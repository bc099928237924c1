import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import select
import signal
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fold_gap_certificates, z_steps_sq
from vmadmm import cli, diagnostics, experiments, problems, solver
from vmadmm.cli import main
from vmadmm.errors import ConfigError, NonFiniteIterate
from vmadmm.functions import Zero
from vmadmm.experiments import (
    RunConfig,
    parse_config,
    run_experiment,
    serialize_config,
)


@pytest.fixture
def forked(monkeypatch):
    """Solve beside the certifier in a forked child, on any host; the list
    counts this process's forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(1)
        return pid

    monkeypatch.setattr(experiments, "_solve_beside", lambda: True)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


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


def test_config_rejects_a_log_vectors_that_is_not_a_bool():
    data = json.loads(serialize_config(toy_config()))
    for value in ("false", 0, 1, None):
        data["log_vectors"] = value
        with pytest.raises(ConfigError, match="'log_vectors'"):
            parse_config(json.dumps(data))


def test_config_rejects_an_infinite_problem_size():
    # JSON reads 1e309 as infinity, which int() cannot convert
    for name, key in (("box-qp", "n"), ("tv1d", "n"), ("lasso-split", "rows")):
        cfg = toy_config(problem={"name": name, key: math.inf})
        with pytest.raises(ConfigError, match="'problem' table: OverflowError"):
            experiments.problem_from_config(cfg)


def test_config_requires_problem_name():
    data = json.loads(serialize_config(toy_config()))
    data["problem"] = {}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(data))


@pytest.mark.parametrize("overrides, table, keys", [
    (dict(metric2={"kind": "constant", "metric": {
        "kind": "scaled_identity", "mu": 1.0, "entries": [2.0]}}),
     "metric", "['entries']"),
    (dict(metric2={"kind": "constant", "rho": 0.5, "metric": {
        "kind": "scaled_identity", "mu": 1.0}}), "schedule", "['rho']"),
    (dict(init={"X": [5.0], "y": [0.0]}), "'init' table", "['X']"),
    # the penalty is the top-level c, which would overwrite this one
    (dict(problem={"name": "toy1d", "c": 0.1}), "'problem' table", "['c']"),
], ids=["metric", "schedule", "init", "problem"])
def test_config_tables_reject_keys_nothing_reads(tmp_path, overrides, table, keys):
    cfg = toy_config(iters=5, checks=[], **overrides)
    with pytest.raises(ConfigError, match=r"^" + table + r" \{.*\}: unknown keys ") as exc:
        run_experiment(cfg, out_dir=str(tmp_path))
    assert str(exc.value).endswith(keys)
    assert not os.path.exists(tmp_path / "log.csv")


@pytest.mark.parametrize("read, match", [
    (lambda: parse_config("[]", source="list.json"),
     "list.json: top level must be a table"),
    (lambda: experiments.prepare(toy_config(
        metric1={"kind": "constant", "metric": {"kind": "bogus"}})),
     "unknown metric kind 'bogus'"),
    (lambda: experiments.prepare(toy_config(init="ones")),
     "'init' must be \"zeros\" or a table"),
], ids=["top-level", "metric-kind", "init"])
def test_config_refusals_name_the_entry(read, match):
    with pytest.raises(ConfigError, match=re.escape(match)):
        read()


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


def test_feasibility_rate_is_judged_on_its_bound(tmp_path):
    # toy1d with zero metrics at c = 0.1: the residual stays under the bound
    # while its fitted log-log slope is near 0; the slope is reported only
    zero = {"kind": "constant", "metric": {"kind": "zero"}}
    cfg = toy_config(c=0.1, metric1=zero, metric2=zero, iters=150,
                     checks=["feasibility_rate"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.summary["rate_slope"] > -0.45
    assert result.checks["feasibility_rate"][0]
    assert result.exit_code == 0


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


def _edit_v(monkeypatch, edits):
    """Make the certifier's ``v_k`` ``edits[k](v_{k-1})`` at each ``k`` in
    ``edits``, whichever block ``k`` falls in."""
    uv_step = diagnostics.uv_step
    handed = []  # every v_k handed out, k = 1, 2, ...

    def edited(problem, saddle, m1, m2, prev, cur):
        u, v, dz_sq = uv_step(problem, saddle, m1, m2, prev, cur)
        v = v.copy()
        for i in range(len(v)):
            k = len(handed) + 1
            if k in edits:
                v[i] = edits[k](handed[-1])
            handed.append(v[i])
        return u, v, dz_sq

    monkeypatch.setattr(diagnostics, "uv_step", edited)


_B = experiments.BLOCK


@pytest.mark.parametrize("rises", [(2,), (_B + 1,), (2 * _B,), (5, _B + 2)],
                         ids=["k=2", "k=B+1", "k=2B", "two-rises"])
def test_v_monotone_check_covers_first_step(tmp_path, monkeypatch, rises):
    # an (injected) increase v_k > v_{k-1} must fail the check at the first
    # such k: at k = 2, on the first row of a block (against the held row of
    # the block before) and on the last
    _edit_v(monkeypatch, {k: lambda before: before + 1.0 for k in rises})
    cfg = toy_config(iters=2 * _B + 4, checks=["v_monotone"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.checks["v_monotone"] == (False, f"first violation at k={rises[0]}")


def test_a_nan_v_in_the_first_block_reaches_the_v_minima(tmp_path, monkeypatch):
    # the slack minima fold block by block: a NaN slack of the first of
    # three blocks stays NaN, as np.min over the series keeps it
    _edit_v(monkeypatch, {5: lambda before: math.nan})
    cfg = toy_config(iters=2 * _B + 4, checks=["v_inequality"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert math.isnan(result.summary["min_v_slack"])
    assert math.isnan(result.summary["findings"]["uncorrected_v_min_slack"])
    assert result.checks["v_inequality"] == (False, "min_slack=nan")


def test_two_iteration_run_checks_its_one_contraction_step(tmp_path):
    # K = 2 has one step k = 1 -> 2 to check, logged on the first row
    cfg = toy_config(iters=2, checks=["v_inequality"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    with open(result.csv_path, newline="") as fh:
        slacks = [row["v_slack"] for row in csv.DictReader(fh)]
    assert slacks[1] == ""
    assert result.summary["min_v_slack"] == float(slacks[0])
    assert result.checks["v_inequality"] == (
        True, f"min_slack={float(slacks[0]):.3e}"
    )


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


def test_logged_vectors_are_streamed_not_stored(tmp_path):
    # log.csv is appended block by block: with the iterates in the log, the
    # traced peak of a certified solve grows by a few floats per added
    # iteration (the per-iteration series), and no more at n = 400 than at
    # n = 100
    def solve(n, iters):
        cfg = toy_config(
            problem={"name": "tv1d", "n": n},
            metric1={"kind": "shifted_gram", "tau": 0.19},
            metric2={"kind": "constant", "metric": {"kind": "zero"}},
            iters=iters,
            checks=["gap_bound", "dual_identity"],
            log_vectors=True,
        )
        result = run_experiment(cfg, out_dir=str(tmp_path / f"{n}-{iters}"))
        assert result.exit_code == 0, result.checks

    K = 300
    solve(100, 20)  # warms one-time allocations up
    growth = {}
    for n in (100, 400):
        peaks = []
        for iters in (K, 2 * K):
            tracemalloc.start()
            try:
                solve(n, iters)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth[n] = (peaks[1] - peaks[0]) / K
    assert growth[100] <= 4 * 8
    assert growth[400] <= growth[100] + 8


def test_a_raising_run_leaves_no_log_and_keeps_an_earlier_one(tmp_path):
    # the log is written as log.csv.partial and renamed when complete: a run
    # that diverges removes it, and the log of an earlier run stays as it was
    out = str(tmp_path)
    earlier = run_experiment(toy_config(iters=40), out_dir=out)
    with open(earlier.csv_path, "rb") as fh:
        before = fh.read()
    diverging = toy_config(
        problem={"name": "tv1d", "n": 20},
        metric1={"kind": "geometric_decay",
                 "metric": {"kind": "scaled_identity", "mu": 1.0}, "rho": 0.5},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=3000,
        checks=["kkt", "gap_bound"],
    )
    with pytest.raises(NonFiniteIterate):
        run_experiment(diverging, force=True, out_dir=out)
    assert not os.path.exists(os.path.join(out, "log.csv.partial"))
    with open(earlier.csv_path, "rb") as fh:
        assert fh.read() == before
    fresh = str(tmp_path / "fresh")
    with pytest.raises(NonFiniteIterate):
        run_experiment(diverging, force=True, out_dir=fresh)
    assert os.listdir(fresh) == []


def _row_formats():
    """The certifier's two row formats for a run that fills every column."""
    cfg = toy_config(iters=2, checks=["v_inequality"])
    problem, _, s1, s2, _ = experiments.prepare(cfg)
    saddle = (np.zeros(problem.n), np.zeros(problem.m), np.zeros(problem.m))
    certifier = experiments._Certifier(
        cfg, problem, solver.initial_state(problem), s1, s2, saddle,
        solver.validate_assumptions(problem, s1, s2), io.StringIO(),
    )
    return certifier.formats


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16]


def test_row_format_has_the_bytes_of_format_17g():
    every, last = _row_formats()
    columns = experiments.CSV_COLUMNS[1:]
    slack = columns.index("v_slack")
    rows = np.array([[v] * len(columns) for v in SPECIAL_FLOATS])
    sink = io.StringIO()
    experiments.write_iterate_log(sink, 1, rows, *every)
    experiments.write_iterate_log(sink, 8, rows[-1:], *last)
    lines = sink.getvalue().splitlines()
    for k, (line, v) in enumerate(zip(lines, SPECIAL_FLOATS), 1):
        assert line == ",".join([str(k)] + [format(v, ".17g")] * len(columns))
    cells = [format(1e16, ".17g")] * len(columns)
    cells[slack] = ""
    assert lines[-1] == ",".join(["8", *cells])


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_percent_17g_has_the_bytes_of_format_17g(v):
    assert "%.17g" % v == format(v, ".17g")


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

    problem, _, sched1, sched2, _ = experiments.prepare(cfg)
    _, trace = solver.run(
        problem, solver.initial_state(problem), sched1, sched2,
        solver.StoppingRule(max_iters=cfg.iters),
    )
    orc = experiments.oracle(problem, budget=cfg.oracle_budget)
    m1, m2 = sched1.metric(0), sched2.metric(0)
    u, v = diagnostics.uv_energies(problem, trace, (orc.x, orc.z, orc.y), m1, m2)
    slacks = diagnostics.inequality_v_check(u, v, z_steps_sq(trace), problem.c)

    assert len(rows) == trace.iterations == cfg.iters
    for i, row in enumerate(rows):
        assert float(row["residual_primal"]) == trace.residual_norms[i]
        assert float(row["u_k"]) == u[i]
        assert float(row["v_k"]) == v[i]
        if i < len(slacks):
            assert float(row["v_slack"]) == slacks[i]
        else:
            assert row["v_slack"] == "" and i + 1 == cfg.iters


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
        exact = experiments.saddle_point

        def shifted(cfg, problem):
            orc = exact(cfg, problem)
            return dataclasses.replace(orc, z=orc.z + z_shift)

        monkeypatch.setattr(experiments, "saddle_point", shifted)
    cfg = toy_config(
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        checks=["gap_bound"], **overrides,
    )
    result = run_experiment(cfg, out_dir=str(tmp_path))
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(result.summary_path) as fh:
        summary = json.load(fh)

    problem, _, sched1, sched2, _ = experiments.prepare(cfg)
    init = solver.initial_state(problem)
    _, trace = solver.run(
        problem, init, sched1, sched2, solver.StoppingRule(max_iters=cfg.iters),
        force=True,
    )
    orc = experiments.saddle_point(cfg, problem)
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


def single_iterate_log(cfg):
    """``log.csv`` text, summary certificates and the ``v_monotone`` and
    ``feasibility_rate`` verdicts of ``cfg`` (when u/v are evaluable), folded
    over a stored trace one iterate at a time with 1-D calls only."""
    problem, _, sched1, sched2, _ = experiments.prepare(cfg)
    init = solver.initial_state(problem)
    _, trace = solver.run(problem, init, sched1, sched2,
                          solver.StoppingRule(max_iters=cfg.iters), force=True)
    K, c = trace.iterations, problem.c
    m1, m2 = sched1.metric(0), sched2.metric(0)
    rows = [{} for _ in range(K)]
    certificates = {"final_kkt": None, "min_gap_slack": None, "min_v_slack": None,
                    "findings": {"uncorrected_v_min_slack": None}}
    verdicts = {}
    start = max(2, min(100, K // 2)) if K else 2
    slope = diagnostics.loglog_slope(range(start, K + 1),
                                     trace.residual_norms[start - 1:])
    certificates["rate_slope"] = None if math.isinf(slope) else slope
    for k, row in enumerate(rows, start=1):
        x, z, y = trace.xs[k], trace.zs[k], trace.ys[k]
        row["residual_primal"] = trace.residual_norms[k - 1]
        row["kkt"] = certificates["final_kkt"] = diagnostics.kkt_residual(problem, x, y)
        for name, vec in (("x", x), ("z", z), ("y", y)):
            if cfg.log_vectors:
                row.update({f"{name}_{i}": v for i, v in enumerate(vec)})
    if experiments.ORACLE_CHECKS & set(cfg.checks):
        orc = experiments.saddle_point(cfg, problem)
        saddle = (orc.x, orc.z, orc.y)
        gap_rows, slacks = fold_gap_certificates(problem, trace, init, m1, m2,
                                                 saddle, cfg.seed)
        for row, more in zip(rows, gap_rows):
            row.update(more)
        if K:
            certificates["min_gap_slack"] = min([math.inf] + slacks)
        if isinstance(problem.h, Zero) and K:  # the u/v columns
            triples = list(zip(trace.xs, trace.zs, trace.ys))
            u, v, _ = np.array([diagnostics.uv_step(problem, saddle, m1, m2, a, b)
                                for a, b in zip(triples, triples[1:])]).T
            v_slacks = diagnostics.inequality_v_check(u, v, z_steps_sq(trace), c)
            for row, u_k, v_k in zip(rows, u, v, strict=True):
                row["u_k"], row["v_k"] = u_k, v_k
            for row, slack in zip(rows, v_slacks):
                row["v_slack"] = slack
            if len(v_slacks):
                certificates["min_v_slack"] = min(v_slacks)
                certificates["findings"]["uncorrected_v_min_slack"] = min(
                    diagnostics.inequality_v_check(u, v, z_steps_sq(trace), 0.0))
            ok, first = diagnostics.v_monotone_check(
                v, experiments.CHECK_TOLERANCES["v_monotone"])
            verdicts["v_monotone"] = (
                ok, "nonincreasing" if ok else f"first violation at k={first}")
            bounds = diagnostics.feasibility_rate(trace.residual_norms, c, u[0],
                                                  z_steps_sq(trace))
            worst = float(np.max(np.asarray(trace.residual_norms[1:]) - bounds,
                                 initial=0.0))
            verdicts["feasibility_rate"] = (
                worst <= experiments.CHECK_TOLERANCES["feasibility_rate"],
                f"max_excess={worst:.3e}, slope={certificates['rate_slope']}",
            )
    columns = experiments.CSV_COLUMNS + (
        [f"{name}_{i}" for name, dim in (("x", problem.n), ("z", problem.m),
                                         ("y", problem.m)) for i in range(dim)]
        if cfg.log_vectors else [])
    lines = [",".join(columns)]
    for k, row in enumerate(rows, start=1):
        row["k"] = k
        lines.append(",".join(
            "" if col not in row else str(row[col]) if col == "k"
            else format(float(row[col]), ".17g") for col in columns))
    return "\n".join(lines) + "\n", certificates, verdicts


_BLOCK_CASES = {
    # all six checks: u/v, feasibility and gap columns
    "lasso-g": dict(problem={"name": "lasso-split", "n": 8, "rows": 12,
                             "quadratic_in": "g"},
                    metric2={"kind": "constant", "metric": {"kind": "zero"}},
                    checks=list(experiments.CHECK_TOLERANCES)),
    # the iterates logged
    "tv1d-vectors": dict(_TV1D_LINEARIZED, checks=["kkt", "gap_bound", "dual_identity"],
                         metric2={"kind": "constant", "metric": {"kind": "zero"}},
                         log_vectors=True),
    # probes outside the box: infinite Lagrangians and NaN gaps
    "box-qp": dict(problem={"name": "box-qp", "n": 10},
                   metric1={"kind": "constant",
                            "metric": {"kind": "scaled_identity", "mu": 5.0}},
                   metric2={"kind": "constant", "metric": {"kind": "zero"}},
                   checks=["kkt", "gap_bound", "dual_identity"]),
}
# the last: a probe round (k % 10 == 0) on the last row of a full block
_BLOCK_EDGES = [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3, math.lcm(10, _B) + 3]


@pytest.mark.parametrize("iters", _BLOCK_EDGES)
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_block_edges_equal_the_single_iterate_fold(tmp_path, monkeypatch, case,
                                                   iters):
    # on both paths, whichever the host would take: the forked run's three
    # slots, whose own-row columns the solver process fills for every slot,
    # then for none, and the in-process run's one, whose row 0 carries its
    # own last row
    cfg = toy_config(**dict(_BLOCK_CASES[case], iters=iters))
    parent, filled_here = os.getpid(), []
    fill = experiments._Certifier.fill

    def watching_fill(self, slot, count):
        if os.getpid() == parent:
            filled_here.append(count)
        return fill(self, slot, count)

    monkeypatch.setattr(experiments._Certifier, "fill", watching_fill)
    outputs = []
    for beside, steals in ((True, True), (True, False), (False, False)):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        monkeypatch.setattr(experiments._RingWriter, "behind",
                            lambda self, steals=steals: steals)
        for block in (_B, 1):
            monkeypatch.setattr(experiments, "BLOCK", block)
            filled_here.clear()
            out_dir = tmp_path / f"{beside}-{steals}-{block}"
            result = run_experiment(cfg, force=True, out_dir=str(out_dir))
            with open(result.csv_path) as fh, open(result.summary_path) as sh:
                outputs.append((fh.read(), sh.read(), result.checks))
            # every row's columns filled once, in the solver process or here
            assert sum(filled_here) == (0 if steals else iters)
    assert all(output == outputs[0] for output in outputs)

    log, certificates, verdicts = single_iterate_log(cfg)
    assert outputs[0][0] == log
    summary = json.loads(outputs[0][1])
    assert {key: summary[key] for key in certificates} == certificates
    checks = outputs[0][2]
    assert {name: checks[name] for name in verdicts} == verdicts
    assert bool(verdicts) == (case == "lasso-g" and iters > 0)


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


def test_dual_identity_keeps_a_nan_from_the_first_block(monkeypatch, tmp_path, forked):
    # the certifier folds each block's deviation into a running maximum: a
    # NaN residual in the first of three blocks must reach the verdict
    record = experiments._RingWriter.record

    def record_nan_at_5(self, state, residual):
        record(self, state, math.nan if state.k == 5 else residual)

    monkeypatch.setattr(experiments._RingWriter, "record", record_nan_at_5)
    cfg = toy_config(iters=2 * experiments.BLOCK + 8, checks=["dual_identity"])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert result.checks["dual_identity"] == (False, "max_dev=nan")
    assert result.exit_code == 1
    assert forked == [1]  # the forked path's states carry k


def test_run_experiment_frees_the_final_state_before_the_checks(monkeypatch,
                                                                 tmp_path):
    # only the iteration count of the state run returns is read: its vectors
    # are not alive while the end-of-run checks and the writes run
    returned = []
    solver_run = experiments.run

    def keeping_run(*args, **kwargs):
        state, recorder = solver_run(*args, **kwargs)
        returned.append(weakref.ref(state))
        return state, recorder

    alive = []
    result = experiments._Certifier.result

    def watching_result(self):
        alive.append(returned[0]() is not None)
        return result(self)

    monkeypatch.setattr(experiments, "_solve_beside", lambda: False)
    monkeypatch.setattr(experiments, "run", keeping_run)
    monkeypatch.setattr(experiments._Certifier, "result", watching_result)
    outcome = run_experiment(toy_config(iters=20), out_dir=str(tmp_path))
    assert outcome.summary["iterations"] == 20
    assert alive == [False]


def test_forked_run_experiment_holds_no_solver_state(monkeypatch, tmp_path, forked):
    # the solver runs in the child: this process never calls run, and while
    # the end-of-run checks run it holds no state past the initial point
    returned = []
    solver_run = experiments.run

    def keeping_run(*args, **kwargs):
        state, recorder = solver_run(*args, **kwargs)
        returned.append(weakref.ref(state))
        return state, recorder

    states = []
    result = experiments._Certifier.result

    def watching_result(self):
        states.extend(o.k for o in gc.get_objects() if isinstance(o, solver.SolverState))
        return result(self)

    monkeypatch.setattr(experiments, "run", keeping_run)
    monkeypatch.setattr(experiments._Certifier, "result", watching_result)
    outcome = run_experiment(toy_config(iters=20), out_dir=str(tmp_path))
    assert outcome.summary["iterations"] == 20
    assert forked == [1] and returned == []
    assert set(states) <= {0}


# ---------------------------------------------------------------------------
# the solver process beside the certifier
# ---------------------------------------------------------------------------


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_solver_process_outlives_a_passing_run(tmp_path, forked):
    result = run_experiment(toy_config(iters=3 * _B + 5), out_dir=str(tmp_path))
    assert result.exit_code == 0
    assert forked == [1]
    _no_child_left()


def test_a_non_finite_iterate_in_the_solver_process_reaches_the_caller(
        tmp_path, monkeypatch):
    # the child's NonFiniteIterate is re-raised here with its message and
    # iteration, as the in-process run raises it, and the child is reaped
    cfg = toy_config(
        problem={"name": "tv1d", "n": 20},
        metric1={"kind": "geometric_decay",
                 "metric": {"kind": "scaled_identity", "mu": 1.0}, "rho": 0.5},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=3000,
        checks=["kkt", "gap_bound"],
    )
    raised = []
    for beside in (True, False):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        with pytest.raises(NonFiniteIterate) as exc:
            run_experiment(cfg, force=True, out_dir=str(tmp_path / str(beside)))
        raised.append((str(exc.value), exc.value.iteration))
        _no_child_left()
    assert raised[0] == raised[1]
    assert raised[0][1] > _B


def test_an_error_in_the_certifier_stops_the_solver_process(tmp_path, forked,
                                                            monkeypatch):
    # on both paths: the forked run kills and reaps its child, and each
    # leaves no log.csv.partial behind
    certify = experiments._Certifier.certify

    def failing_certify(self, slot, count):
        if self.done < _B + 3 <= self.done + count:
            raise RuntimeError("the certifier failed")
        certify(self, slot, count)

    monkeypatch.setattr(experiments._Certifier, "certify", failing_certify)
    for beside in (True, False):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        with pytest.raises(RuntimeError, match="the certifier failed"):
            run_experiment(toy_config(iters=10**6), out_dir=str(tmp_path))
        _no_child_left()
        assert os.listdir(tmp_path) == []
    assert forked == [1]


def test_a_solver_process_that_ends_with_no_result_is_named(tmp_path, forked,
                                                            monkeypatch):
    parent = os.getpid()

    def dying_run(*args, **kwargs):
        assert os.getpid() != parent, "run called in the certifying process"
        os._exit(7)

    monkeypatch.setattr(experiments, "run", dying_run)
    with pytest.raises(ChildProcessError, match=r"exit status 7\)"):
        run_experiment(toy_config(iters=20), out_dir=str(tmp_path))
    _no_child_left()
    assert os.listdir(tmp_path) == []


_STRATEGY_CASES = {
    "linearized": dict(_TV1D_LINEARIZED,
                       metric2={"kind": "constant", "metric": {"kind": "zero"}},
                       checks=["kkt", "gap_bound", "dual_identity"]),
    "quadratic": dict(problem={"name": "tv1d", "n": 20}, iters=57,
                      metric2={"kind": "constant", "metric": {"kind": "zero"}},
                      checks=["kkt", "dual_identity"]),
    "prox_direct": dict(_BLOCK_CASES["lasso-g"], iters=57),
}


@pytest.mark.parametrize("strategy", sorted(_STRATEGY_CASES))
def test_forked_and_in_process_solves_write_the_same_bytes(tmp_path, monkeypatch,
                                                           forked, strategy):
    cfg = toy_config(**_STRATEGY_CASES[strategy], log_vectors=True)
    problem, _, sched1, _, _ = experiments.prepare(cfg)
    assert solver.x_strategy(problem, sched1.metric(1)) == strategy
    outputs = []
    for beside in (True, False):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        result = run_experiment(cfg, out_dir=str(tmp_path / str(beside)))
        with open(result.csv_path, "rb") as fh, open(result.summary_path, "rb") as sh:
            outputs.append((fh.read(), sh.read()))
    assert forked == [1]
    assert outputs[0] == outputs[1]


def test_the_step_sum_is_added_in_iteration_order(tmp_path, monkeypatch):
    # feasibility_rate receives S = sum_k ||z_k - z_{k-1}||^2 added one step
    # at a time, k = 1..K, across two blocks and a tail: the bits of np.cumsum
    # over the whole series, which here differ from numpy's pairwise np.sum
    cfg = toy_config(**dict(_BLOCK_CASES["lasso-g"], iters=2 * _B + 5))
    received = []
    feasibility_rate = diagnostics.feasibility_rate

    def capturing(residuals, c, u1, dz_sq):
        received.append(np.array(dz_sq))
        return feasibility_rate(residuals, c, u1, dz_sq)

    monkeypatch.setattr(diagnostics, "feasibility_rate", capturing)
    run_experiment(cfg, out_dir=str(tmp_path))
    problem, _, sched1, sched2, init = experiments.prepare(cfg)
    _, trace = solver.run(problem, init, sched1, sched2,
                          solver.StoppingRule(max_iters=cfg.iters), force=True)
    dz = np.diff(np.array(trace.zs), axis=0)
    steps = np.vecdot(dz, dz)
    assert np.sum(steps) != np.cumsum(steps)[-1]
    assert len(received) == 1 and received[0].size == 1
    assert received[0][0].tobytes() == np.cumsum(steps)[-1].tobytes()


def test_certifier_holds_one_block_of_iterates_and_frees_it():
    # its one per-iteration series is residual_primal: the u/v checks fold
    # block by block. Besides it, the block's ||z_k - z_{k-1}||^2, the Kahan
    # sum and compensation, the saddle and the probe stacks, a certifier
    # holds its ring, BLOCK + 1 rows of (x, z, y, A x, residual) and three
    # own-row columns a slot, and
    # its table of log rows: the ergodic means are folded into the ring's
    # iterate rows, not kept beside them. Once result() returns, none of
    # these block buffers is alive
    cfg = toy_config(
        problem={"name": "lasso-split", "n": 8, "rows": 12, "quadratic_in": "g"},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=2 * experiments.BLOCK + 3,
        checks=["gap_bound", "v_inequality", "dual_identity"],
        log_vectors=True,
    )
    problem, _, s1, s2, init = experiments.prepare(cfg)
    orc = experiments.saddle_point(cfg, problem)
    certifier = experiments._Certifier(
        cfg, problem, init, s1, s2, (orc.x, orc.z, orc.y),
        solver.validate_assumptions(problem, s1, s2), io.StringIO(),
    )
    # every series and buffer is made
    assert all(fold.live for fold in certifier.folds)
    others = {"residuals", "dz_sq", "sum", "comp", "saddle", "probes"}
    buffers, series = {}, []
    for name, value in [item for holder in (certifier, *certifier.folds)
                        for item in vars(holder).items()]:
        for array in (value if isinstance(value, tuple) else (value,)):
            if isinstance(array, np.ndarray) and array.ndim == 1:
                if array.size >= cfg.iters:
                    series.append(name)
            if name not in others and isinstance(array, np.ndarray):
                while isinstance(array.base, np.ndarray):  # the ring's is an mmap
                    array = array.base
                buffers[id(array)] = array
    assert series == ["residuals"]
    n, m, B = problem.n, problem.m, experiments.BLOCK
    columns = certifier.table.shape[1]
    held = sum(array.size for array in buffers.values())
    assert held <= len(certifier.ring) * (B + 1) * (n + 3 * m + 4) + (B + 1) * columns
    alive = [weakref.ref(array) for array in buffers.values()]
    del buffers, array, value
    writer = experiments._RingWriter(certifier.ring, init, certifier.certify)
    solver.run(problem, init, s1, s2, solver.StoppingRule(max_iters=cfg.iters),
               recorder=writer)
    writer.flush()
    del writer
    _, checks = certifier.result()
    assert all(passed for passed, _ in checks.values())
    assert [ref() is None for ref in alive] == [True] * len(alive)


def test_the_certifying_process_copies_no_iterate(tmp_path, monkeypatch, forked):
    # in a forked run the solver process writes each iterate into the ring
    # once: every x, z, y and A x block the certifier reads, and the means it
    # folds, is a view whose .base chain ends at the ring; so is every block
    # the solver process reads when it fills a slot's own-row columns, which
    # it does for every slot, then for none
    parent, rings, seen = os.getpid(), [], []

    def ends_at_ring(array):
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array is rings[-1]

    def watch(name):
        function = getattr(diagnostics, name)

        def watched(*args):
            if rings:  # while certifying: the set-up reads the probes
                blocks = [a for arg in args
                          for a in (arg if isinstance(arg, tuple) else (arg,))
                          if isinstance(a, np.ndarray) and a.ndim == 2]
                entry = (name, len(blocks), all(map(ends_at_ring, blocks)))
                if os.getpid() == parent:
                    seen.append(entry)
                else:
                    with open(stolen, "a") as fh:
                        fh.write(json.dumps(entry) + "\n")
            return function(*args)

        monkeypatch.setattr(diagnostics, name, watched)

    certify = experiments._Certifier.certify
    fill = experiments._Certifier.fill
    gaps = experiments._GapFold.gaps
    certified = []

    def watching_certify(self, slot, count):
        rings.append(self.ring)
        certified.append(count)
        certify(self, slot, count)

    def watching_fill(self, slot, count):
        rings.append(self.ring)  # the solver process has certified nothing
        fill(self, slot, count)

    def watching_gaps(self, rows, ks, means):
        seen.append(("means", 1, ends_at_ring(means)))
        return gaps(self, rows, ks, means)

    for name in ("dual_identity_deviation", "objective_and_kkt",
                 "lagrangian_terms", "uv_step"):
        watch(name)
    monkeypatch.setattr(experiments._Certifier, "certify", watching_certify)
    monkeypatch.setattr(experiments._Certifier, "fill", watching_fill)
    monkeypatch.setattr(experiments._GapFold, "gaps", watching_gaps)
    cfg = toy_config(**dict(_BLOCK_CASES["lasso-g"], iters=2 * _B + 5))
    # per block: prev y and y; x, y and A x; x, z and A x; prev (x, z, y)
    # and (x, z, y); the means, (x, z, y)_bar end to end, then their x_bar
    # and z_bar rows and, A being the identity, x_bar again as A x_bar. The
    # own-row columns read x, y and A x, then x, z and A x
    columns = [("objective_and_kkt", 3, True), ("lagrangian_terms", 3, True)]
    per_block = [("dual_identity_deviation", 2, True), ("uv_step", 6, True),
                 ("means", 1, True), ("lagrangian_terms", 3, True)]
    for steals in (False, True):
        monkeypatch.setattr(experiments._RingWriter, "behind",
                            lambda self, steals=steals: steals)
        for watched_calls in (rings, seen, certified):
            watched_calls.clear()
        stolen = tmp_path / f"stolen-{steals}.jsonl"  # what the solver process saw
        result = run_experiment(cfg, out_dir=str(tmp_path / f"out-{steals}"))
        assert result.summary["iterations"] == cfg.iters
        assert len(certified) == 3
        if steals:
            with open(stolen) as fh:
                got = [tuple(json.loads(line)) for line in fh]
            assert sorted(got) == sorted(columns * 3)
            assert sorted(seen) == sorted(per_block * 3)
        else:
            assert not stolen.exists()
            assert sorted(seen) == sorted((per_block + columns) * 3)
    assert forked == [1, 1]


@pytest.mark.parametrize("iters", [3 * _B + 1, 2 * _B + 5])
def test_each_slot_opens_with_the_iterate_before_and_certify_writes_no_other(
        tmp_path, monkeypatch, forked, iters):
    # a slot holds all its block needs: row 0 of each slot certify is given
    # is the iterate before the block, and certify leaves every byte of every
    # other slot as it was. The forked run's solver process is stopped while
    # this process certifies, so that nothing else writes the ring meanwhile;
    # at K = 16 j + 1 the run ends on a one-row block, in a reused slot
    cfg = toy_config(**dict(_BLOCK_CASES["lasso-g"], iters=iters))
    problem, _, s1, s2, init = experiments.prepare(cfg)
    _, trace = solver.run(problem, init, s1, s2,
                          solver.StoppingRule(max_iters=iters), force=True)
    fork, pids, seen = os.fork, [], []

    def keeping_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    certify = experiments._Certifier.certify

    def watching_certify(self, slot, count):
        if pids:  # stopped, or already exited
            os.kill(pids[-1], signal.SIGSTOP)
            os.waitid(os.P_PID, pids[-1], os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        try:
            k = self.done
            before = np.concatenate((trace.xs[k], trace.zs[k], trace.ys[k]))
            row0 = experiments._ring_fields(self.ring[slot, 0], problem.m)[0]
            others = np.delete(self.ring, slot, axis=0).tobytes()
            seen.append((len(self.ring), count, row0.tobytes() == before.tobytes()))
            certify(self, slot, count)
            assert np.delete(self.ring, slot, axis=0).tobytes() == others
        finally:
            if pids:
                os.kill(pids[-1], signal.SIGCONT)

    monkeypatch.setattr(os, "fork", keeping_fork)
    monkeypatch.setattr(experiments._Certifier, "certify", watching_certify)
    blocks = [_B] * (iters // _B) + [iters % _B]
    outputs = []
    for beside, slots in ((True, 3), (False, 1)):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        seen.clear()
        pids.clear()
        result = run_experiment(cfg, out_dir=str(tmp_path / str(beside)))
        assert seen == [(slots, count, True) for count in blocks]
        assert len(pids) == beside
        with open(result.csv_path, "rb") as fh:
            outputs.append(fh.read())
    assert forked == [1]
    assert outputs[0] == outputs[1]


def test_the_solver_process_fills_columns_when_the_certifier_holds_every_other_slot():
    # behind() counts the free bytes the pipe holds without blocking: with
    # k of them, the certifier holds sent - freed - k slots, and the rule
    # fires when that is every slot but the one just filled. The first
    # three slots are delivered before any byte is read
    slots = 3
    ring = np.zeros((slots, 2, 5))
    assert not experiments._RingWriter(ring, None, None).behind()  # in process
    free, freed = os.pipe()
    try:
        writer = experiments._RingWriter(ring, None, None, free)
        for sent in range(3 * slots):
            # the writer waits for a free byte before it fills a slot past
            # the ring, so it holds at most slots - 1 delivered slots here
            for held in range(min(sent, slots - 1) + 1):
                for k in range(held + 1):
                    writer.sent, writer.freed = sent, sent - held
                    os.write(freed, b"\0" * k)
                    assert writer.behind() == (held - k >= slots - 1)
                    assert writer.freed == sent - held + k
                    assert not select.select([free], [], [], 0)[0]
        fired = []
        for sent in range(slots):  # no byte read yet
            writer.sent, writer.freed = sent, 0
            fired.append(writer.behind())
        assert fired == [False] * (slots - 1) + [True]
    finally:
        os.close(free)
        os.close(freed)


def test_the_writer_raises_when_the_certifying_process_closed_its_pipe():
    # with every slot delivered, the writer waits for a free byte before it
    # opens one again; a pipe whose write end is closed holds none, and the
    # writer raises instead of blocking
    problem = experiments.prepare(toy_config())[0]
    state = solver.initial_state(problem)
    delivered, filled = [], []
    free, freed = os.pipe()
    os.close(freed)
    try:
        writer = experiments._RingWriter(
            experiments._ring(1, problem.n, problem.m), state,
            lambda slot, count: delivered.append((slot, count)), free,
            lambda slot, count: filled.append((slot, count)))
        writer.record(state, 0.0)
        writer.flush()
        assert delivered == filled == [(0, 1)]
        with pytest.raises(EOFError, match="^the certifying process closed its pipe$"):
            writer.record(state, 0.0)
        assert delivered == [(0, 1)]
    finally:
        os.close(free)


def test_an_error_in_the_solver_process_filling_columns_is_met_here(tmp_path,
                                                                    monkeypatch,
                                                                    forked):
    # a slot whose columns the solver process failed to fill stays
    # unflagged: this process fills them, and raises what the fill raises
    # as the in-process run does
    parent = os.getpid()
    fill = experiments._Certifier.fill

    def failing_fill(self, slot, count):
        if os.getpid() != parent or failing:
            raise RuntimeError("the fill failed")
        return fill(self, slot, count)

    monkeypatch.setattr(experiments._Certifier, "fill", failing_fill)
    # the solver process fills every slot's columns
    monkeypatch.setattr(experiments._RingWriter, "behind",
                        lambda self: self.free is not None)
    cfg = toy_config(**dict(_BLOCK_CASES["lasso-g"], iters=2 * _B + 5))
    outputs = []
    for failing, beside in ((False, True), (False, False)):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        result = run_experiment(cfg, out_dir=str(tmp_path / str(beside)))
        with open(result.csv_path, "rb") as fh, open(result.summary_path, "rb") as sh:
            outputs.append((fh.read(), sh.read()))
    assert outputs[0] == outputs[1]
    failing = True
    for beside in (True, False):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        with pytest.raises(RuntimeError, match="the fill failed"):
            run_experiment(cfg, out_dir=str(tmp_path / "failed"))
        _no_child_left()
    assert forked == [1, 1]


def _held_arrays(obj):
    """The arrays ``obj`` holds, through tuples, lists and the attributes of
    the objects of :mod:`vmadmm.experiments` it holds."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [array for item in obj for array in _held_arrays(item)]
    if type(obj).__module__ == experiments.__name__ and hasattr(obj, "__dict__"):
        return _held_arrays(list(vars(obj).values()))
    return []


def test_no_probe_or_kahan_buffer_is_alive_when_the_fit_starts(tmp_path,
                                                               monkeypatch):
    # the probe rows (eleven a stack) and the Kahan sum and compensation
    # (n + 2m floats each) are dropped once the run's last block is
    # certified: when the end-of-run slope fit starts, the certifier holds
    # the residual series and running values, no block state
    cfg = toy_config(**dict(_TV1D_LINEARIZED, iters=2 * _B + 5),
                     metric2={"kind": "constant", "metric": {"kind": "zero"}},
                     checks=["gap_bound", "dual_identity"])
    problem, *_ = experiments.prepare(cfg)
    n, m = problem.n, problem.m
    made, held = [], []
    set_up = experiments._Certifier.__init__

    def watching_set_up(self, *args, **kwargs):
        made.append(self)
        set_up(self, *args, **kwargs)

    fit = diagnostics.loglog_slope

    def watching_fit(ks, values):
        held.append([array.shape for array in _held_arrays(made[-1])])
        return fit(ks, values)

    monkeypatch.setattr(experiments._Certifier, "__init__", watching_set_up)
    monkeypatch.setattr(diagnostics, "loglog_slope", watching_fit)
    for beside in (True, False):
        monkeypatch.setattr(experiments, "_solve_beside", lambda beside=beside: beside)
        run_experiment(cfg, out_dir=str(tmp_path / str(beside)))
    assert len(held) == 2
    for shapes in held:
        assert (cfg.iters,) in shapes  # the residual series
        assert [shape for shape in shapes
                if shape[:1] == (11,) or shape == (n + 2 * m,)] == []


def test_certifier_setup_holds_one_probe_at_a_time():
    # the set-up draws each probe when it certifies it, by 1-D calls, and
    # keeps its y, gamma and Lagrangian terms: its traced growth is the
    # arrays the certifier holds (its buffers, series and kept probe rows)
    # plus the working set of one probe, about 8 (n + 2m) floats. Stacking
    # the eleven probes, with their list, holds over 1 MB more at n = 2000
    cfg = toy_config(
        problem={"name": "tv1d", "n": 2000},
        metric1={"kind": "shifted_gram", "tau": 0.19},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        iters=3,
        checks=["gap_bound", "dual_identity"],
    )
    problem, _, s1, s2, init = experiments.prepare(cfg)
    orc = experiments.saddle_point(cfg, problem)
    report = solver.validate_assumptions(problem, s1, s2)

    def set_up():
        return experiments._Certifier(cfg, problem, init, s1, s2,
                                      (orc.x, orc.z, orc.y), report, io.StringIO())

    set_up()  # warms one-time allocations up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        certifier = set_up()
        growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    held = {}
    for name, value in [item for holder in (certifier, *certifier.folds)
                        for item in vars(holder).items()]:
        for array in (value if isinstance(value, tuple) else (value,)):
            # the ring is an mmap, which tracemalloc does not see
            if name not in ("saddle", "ring") and isinstance(array, np.ndarray):
                while array.base is not None:
                    array = array.base
                held[id(array)] = array.nbytes
    n, m = problem.n, problem.m
    assert growth <= sum(held.values()) + 8 * (n + 2 * m) * 8


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
    assert main(["oracle", "--config", cfg_path]) == 0
    log = os.path.join(cfg.out_dir, "log.csv")
    against = os.path.join(cfg.out_dir, "oracle.json")
    assert main(["check", "--log", log, "--against", against]) == 0
    with open(against) as fh:
        payload = json.load(fh)
    assert payload["kkt"] < 1e-10
    assert abs(payload["x"][0] - 2.0) < 1e-8


def test_cli_iters_override_and_out(tmp_path):
    cfg = toy_config(iters=5, checks=[])
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "elsewhere")
    assert main(["solve", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "log.csv"))


@pytest.mark.parametrize("key", ["iters", "seed", "oracle_budget"])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cli_negative_count_is_a_config_error(tmp_path, capsys, key, command):
    cfg_path = write_config(tmp_path, toy_config(out_dir=str(tmp_path / "out"),
                                                 **{key: -1}))
    assert main([command, "--config", cfg_path]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg_path}: {key!r} must be an integer >= 0\n"
    )
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("argv", [
    ["solve", "--iters", "5"],
    ["oracle", "--budget", "100000"],
])
def test_cli_takes_no_count_override_flag(tmp_path, argv):
    # the iteration count and the oracle budget are config keys, not flags
    cfg_path = write_config(tmp_path, toy_config(out_dir=str(tmp_path / "out")))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg_path, *argv[1:]])
    assert exc.value.code == 2
    assert not os.path.exists(tmp_path / "out")


def test_cli_oracle_finds_the_tv1d_saddle_directly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(problems, "condat_step", _refuse)
    cfg = toy_config(problem={"name": "tv1d", "n": 200},
                     metric1={"kind": "shifted_gram", "tau": 0.19},
                     metric2={"kind": "constant", "metric": {"kind": "zero"}},
                     out_dir=str(tmp_path / "out"))
    assert main(["oracle", "--config", write_config(tmp_path, cfg)]) == 0
    assert "iterations=0)" in capsys.readouterr().out
    with open(tmp_path / "out" / "oracle.json") as fh:
        payload = json.load(fh)
    assert payload["iterations"] == 0 and payload["kkt"] <= 1e-10
    assert len(payload["x"]) == 200 and len(payload["y"]) == 199


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


@pytest.mark.parametrize("tau", ["NaN", "[0.5, NaN]"])
def test_cli_solve_rejects_a_nan_step_as_a_config_error(tmp_path, capsys, tau):
    # Python's json reads NaN; the step list is rejected before the solve
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(toy_config(
        metric1={"kind": "shifted_gram", "tau": 0.5}, out_dir=str(tmp_path / "out"),
    )).replace('"tau": 0.5', f'"tau": {tau}'))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "taus must be positive" in err
    assert not os.path.exists(tmp_path / "out" / "log.csv")


def test_cli_solve_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["solve", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and missing in err


def test_cli_solve_exits_2_when_the_oracle_misses_its_bar(tmp_path, capsys):
    # the gap check needs the saddle, and 10 iterations do not certify it:
    # the oracle error is reported before anything is written
    out = tmp_path / "out"
    cfg = toy_config(checks=["gap_bound"], oracle_budget=10, out_dir=str(out))
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "oracle error: oracle did not reach KKT residual 1e-10 within 10 iterations")
    assert not out.exists()


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
        # files that are not logs, rows or not
        ("", "k"),
        ("foo,bar\n", "k"),
    ],
    ids=["kkt", "k", "residual_primal", "y_extra", "empty-file", "foreign-header"],
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
        # two bad cells: the log is read one row at a time, so the first in
        # row order is named, not the first of the k column
        ("k,kkt\n1,small\ntwo,1e-9\n", 1, "kkt"),
    ],
    ids=["k", "kkt", "residual_primal", "y_0", "first-in-row-order"],
)
def test_cli_check_non_numeric_cell_exits_2(tmp_path, capsys, log_text, row, column):
    paths = check_inputs(tmp_path, log_text)
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert paths["--log"] in err and f"row {row}," in err and repr(column) in err


@pytest.mark.parametrize(
    "log_text, against, key",
    [
        ("k,kkt\n1,1e-9\n", {"c": 1.0, "kkt": "abc"}, "'kkt'"),
        ("k,kkt\n1,1e-9\n", {"c": 1.0, "kkt": [1e-12]}, "'kkt'"),
        ("k,kkt,residual_primal,y_0\n1,1e-9,0.5,0.5\n",
         {"c": "one", "kkt": 1e-12}, "'c'"),
        ("k,kkt,residual_primal,y_0\n1,1e-9,0.5,0.5\n",
         {"c": 0.0, "kkt": 1e-12}, "'c'"),
        ("k,kkt\n1,1e-9\n", [1.0, 1e-12], "top level"),
    ],
    ids=["kkt-string", "kkt-list", "c-string", "c-zero", "not-an-object"],
)
def test_cli_check_malformed_oracle_entry_exits_2(tmp_path, capsys, log_text,
                                                  against, key):
    paths = check_inputs(tmp_path, log_text)
    with open(paths["--against"], "w") as fh:
        json.dump(against, fh)
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert paths["--against"] in err and key in err


def test_cli_check_malformed_oracle_json_exits_2(tmp_path, capsys):
    paths = check_inputs(tmp_path, "k,kkt\n1,1e-9\n")
    with open(paths["--against"], "w") as fh:
        fh.write('{\n  "c": 1.0,\n  "kkt": 1e-12,,\n}\n')
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert paths["--against"] in err and "line 3" in err


@pytest.mark.parametrize(
    "log_text, code, out",
    [
        # blank lines are skipped, and do not count as rows
        ("k,kkt\n\n1,1.0\n\n2,1e-9\n\n", 0, "final logged kkt: 1.000e-09"),
        # a name repeated in the header is refused
        ("k,kkt,kkt\n1,bad,1.0\n2,bad,1e-9\n", 2,
         "column 'kkt' repeats in the header"),
        # a row longer than the header: the extra cells are not read
        ("k,kkt\n1,1.0,x\n2,1e-9,x,y\n", 0, "final logged kkt: 1.000e-09"),
        # a short row's missing cell is None, which is not a number
        ("k,kkt\n1,1.0\n2\n", 2, "row 2, column 'kkt': None is not a number"),
    ],
    ids=["blank-lines", "repeated-name", "long-row", "short-row"],
)
def test_cli_check_reads_rows_as_a_dict_reader_does(tmp_path, capsys, log_text,
                                                    code, out):
    paths = check_inputs(tmp_path, log_text)
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == code
    assert out in "".join(capsys.readouterr())


def test_cli_check_refuses_a_repeated_dual_column(tmp_path, capsys):
    # consistent steps of 0.5, but y_0 would enter the dual step twice
    paths = check_inputs(tmp_path, "k,kkt,residual_primal,y_0,y_0\n"
                                   "1,1e-9,0.5,0.5,0.5\n2,1e-9,0.5,1.0,1.0\n")
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {paths['--log']}: column 'y_0' repeats")


def _check_peak(tmp_path, rows, dim=20):
    """tracemalloc's peak in bytes for ``vmadmm check`` of a valid log of
    ``rows`` rows with ``dim`` logged dual entries."""
    y_cols = ",".join(f"y_{j}" for j in range(dim))
    lines = [f"k,kkt,residual_primal,{y_cols}\n"]
    lines += [f"{k},1e-9,{math.sqrt(dim) * 0.5!r}," + ",".join([repr(0.5 * k)] * dim)
              + "\n" for k in range(1, rows + 1)]
    paths = check_inputs(tmp_path, "".join(lines))
    tracemalloc.start()
    try:
        assert main(["check", "--log", paths["--log"],
                     "--against", paths["--against"]]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_check_memory_does_not_grow_with_the_log(tmp_path, capsys):
    _check_peak(tmp_path, 500)  # warm: imports and first-call caches
    short, long = _check_peak(tmp_path, 500), _check_peak(tmp_path, 4000)
    assert long <= short + 65536, (short, long)  # a held row list grows by MBs


@pytest.mark.parametrize("kind", ["config", "against", "log", "log-field"])
def test_cli_unreadable_input_exits_2_with_one_line(tmp_path, capsys, kind):
    # a byte that is not UTF-8, or a CSV field past the csv module's
    # 131 072-character limit: an input error naming the file, no traceback
    paths = check_inputs(tmp_path, "k,kkt\n1,1e-9\n")
    bad = tmp_path / "bad"
    if kind == "log-field":
        bad.write_text("k,kkt\n1," + "9" * 200000 + "\n")
    else:
        bad.write_bytes(b"\xff")
    if kind == "config":
        argv = ["solve", "--config", str(bad)]
    else:
        paths["--against" if kind == "against" else "--log"] = str(bad)
        argv = ["check", "--log", paths["--log"], "--against", paths["--against"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err
    assert err.startswith("config error: " if kind == "config" else "error: ")


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


@pytest.mark.parametrize("ks", [(1, 1), (2, 1), (1, 3, 2)])
def test_cli_check_fails_rows_out_of_order(tmp_path, capsys, ks):
    # every k must exceed the last; the first that does not is named
    rows = "".join(f"{k},1e-9\n" for k in ks)
    paths = check_inputs(tmp_path, "k,kkt\n" + rows)
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 1
    bad = next(i for i in range(1, len(ks)) if ks[i] <= ks[i - 1])
    assert f"FAIL: row order: k={ks[bad]} after k={ks[bad - 1]}" in capsys.readouterr().out


def test_cli_check_fails_a_log_without_rows(tmp_path, capsys):
    # the runner fails the kkt check of 0 iterations (final_kkt=inf), and so
    # does the check of the header-only log it writes
    paths = check_inputs(tmp_path, "k,kkt\n")
    assert main(["check", "--log", paths["--log"],
                 "--against", paths["--against"]]) == 1
    assert "FAIL: final kkt inf" in capsys.readouterr().out


def test_cli_check_detects_kkt_failure(tmp_path):
    cfg = toy_config(iters=2, checks=[], log_vectors=True, out_dir=str(tmp_path / "o"))
    cfg_path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", cfg_path]) == 0
    assert main(["oracle", "--config", cfg_path]) == 0
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
    assert main(["oracle", "--config", cfg_path]) == 0
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
    assert main(["oracle", "--config", cfg_path]) == 0
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
    "overrides, error",
    [
        # f is a box indicator and A the identity: a diagonal M1 has no strategy
        (dict(problem={"name": "box-qp", "n": 10},
              metric1={"kind": "constant", "metric": {
                  "kind": "diagonal", "entries": [5.0 + 0.1 * i for i in range(10)]}}),
         "error: no exact x-update strategy applies"),
        # a decayed shifted Gram M1 linearizes at k = 0 only
        (dict(problem={"name": "lasso-split", "n": 8, "rows": 12, "quadratic_in": "g"},
              metric1={"kind": "geometric_decay",
                       "metric": {"kind": "shifted_gram", "tau": 0.5}, "rho": 0.9}),
         "error: no exact x-update strategy applies"),
        # a quadratic g has no prox under a diagonal M2
        (dict(problem={"name": "lasso-split", "n": 8, "rows": 12, "quadratic_in": "g"},
              metric2={"kind": "constant", "metric": {
                  "kind": "diagonal", "entries": [0.5] * 8}}),
         "error: the z update supports"),
    ],
    ids=["box-qp-diagonal-m1", "lasso-decayed-shifted-gram-m1", "lasso-g-diagonal-m2"],
)
def test_cli_rejects_an_inexact_update_before_solving(tmp_path, monkeypatch, capsys,
                                                      overrides, error):
    monkeypatch.setattr(solver, "min_eigenvalue", _refuse)
    monkeypatch.setattr(solver, "gram_min_eigenvalue", _refuse)
    monkeypatch.setattr(experiments, "oracle", _refuse)
    cfg = toy_config(**{"metric2": {"kind": "constant", "metric": {"kind": "zero"}},
                        "checks": ["gap_bound"], "out_dir": str(tmp_path / "out"),
                        **overrides})
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--force"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(error) and err.count("\n") == 1


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
        {"init": {"x": [math.inf]}},
        {"out_dir": 5},
        {"out_dir": ""},
        # numbers are numbers: no string, no bool, no fraction of a size
        {"problem": {"name": "lasso-split", "n": "20"}},
        {"problem": {"name": "lasso-split", "rows": 30.9}},
        {"problem": {"name": "tv1d", "n": 20.5}},
        {"problem": {"name": "box-qp", "n": 10.5}},
        {"problem": {"name": "tv1d", "seed": True}},
        {"problem": {"name": "toy1d", "lam": True}},
        {"metric1": {"kind": "constant",
                     "metric": {"kind": "scaled_identity", "mu": "1e0"}}},
        {"metric1": {"kind": "constant",
                     "metric": {"kind": "diagonal", "entries": [True]}}},
        {"metric1": {"kind": "shifted_gram", "tau": True}},
        {"metric1": {"kind": "shifted_gram", "tau": [0.5, "0.25"]}},
        {"metric2": {"kind": "geometric_decay", "rho": "0.9",
                     "metric": {"kind": "scaled_identity", "mu": 1.0}}},
        {"init": {"x": [True]}},
        {"metric2": {"kind": "bogus"}},
        # a malformed init is refused before the validator refuses decreasing tau
        {"init": {"x": [True]},
         "metric1": {"kind": "shifted_gram", "tau": [0.5, 0.25]}},
    ],
    ids=lambda change: repr(change)[:48],
)
def test_cli_malformed_config_exits_2_before_solving(
    tmp_path, monkeypatch, capsys, change
):
    monkeypatch.setattr(experiments, "run", _refuse)
    monkeypatch.setattr(experiments, "saddle_point", _refuse)
    monkeypatch.setattr(cli, "saddle_point", _refuse)
    data = json.loads(serialize_config(toy_config(out_dir=str(tmp_path / "out"))))
    data.update(change)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    # vmadmm solve and vmadmm oracle read the whole config before validating
    for command in ("solve", "oracle"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


def test_cli_oracle_runs_no_assumption_validation(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "validate_assumptions", _refuse)
    monkeypatch.setattr(solver, "validate_assumptions", _refuse)
    cfg = toy_config(out_dir=str(tmp_path / "out"))
    assert main(["oracle", "--config", write_config(tmp_path, cfg)]) == 0
    assert os.path.exists(tmp_path / "out" / "oracle.json")


@pytest.mark.parametrize(
    "entry",
    [
        '"metric1": {"kind": "constant", '
        '"metric": {"kind": "scaled_identity", "mu": 1e309}}',
        '"metric1": {"kind": "constant", "metric": {"kind": "dense", '
        '"matrix": [[1e309]]}}',
        '"problem": {"name": "toy1d", "lam": 1e309}',
        '"problem": {"name": "toy1d", "h_kind": "huber", "h_delta": 1e309}',
        '"problem": {"name": "toy1d", "h_kind": "quadratic", "h_weight": 1e309}',
        # finite, but Q + Q^T overflows
        '"problem": {"name": "toy1d", "h_kind": "quadratic", "h_weight": 1e308}',
        '"metric1": {"kind": "constant", '
        '"metric": {"kind": "shifted_gram", "tau": 1e309}}',
    ],
    ids=["mu", "dense", "lam", "h_delta", "h_weight", "h_weight-1e308",
         "shifted_gram_tau"],
)
def test_cli_non_finite_number_exits_2_with_one_line(
    tmp_path, monkeypatch, capsys, entry
):
    # JSON reads 1e309 as infinity: a config error, with no warning on the way
    monkeypatch.setattr(experiments, "run", _refuse)
    data = json.loads(serialize_config(toy_config(out_dir=str(tmp_path / "out"),
                                                  checks=["gap_bound"])))
    data.pop(entry.split('"')[1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data)[:-1] + ", " + entry + "}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error")


@pytest.mark.parametrize("name", ["x", "z", "y"])
def test_cli_initial_vector_whose_square_overflows_exits_2_with_one_line(
    tmp_path, monkeypatch, capsys, name
):
    # finite, but no norm of it is: rejected before the oracle and the run,
    # with no overflow warning from a certificate on the way
    monkeypatch.setattr(experiments, "oracle", _refuse)
    monkeypatch.setattr(experiments, "run", _refuse)
    init = {"x": [0.0], "z": [0.0], "y": [0.0], name: [1e300]}
    cfg = toy_config(out_dir=str(tmp_path / "out"), checks=["gap_bound"], init=init)
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error")
    assert f"initial {name}: squared norm overflows" in err


def test_cli_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(toy_config(out_dir=str(blocker / "out"))))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocker) in err
