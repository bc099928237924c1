"""Config-driven experiment runner with bit-stable CSV/JSON logging.

A run configuration is a JSON document (nested tables, canonical form sorts
keys) naming a catalog problem, the two metric schedules, the penalty, the
initial point, the iteration count, and the list of hard checks to evaluate.
Identical configurations produce byte-identical CSV logs on the same
platform: floats are printed with 17 significant digits and all test data is
generated from seeded integer arithmetic.

Every certificate is computed in :mod:`diagnostics` and judged against the
one tolerance in :data:`CHECK_TOLERANCES`; ``vmadmm check`` calls the same
functions with the same tolerances. The u/v checks (``v_inequality``,
``v_monotone``, ``feasibility_rate``) need the metrics to stay constant for
the whole run and are reported "not evaluable" otherwise.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

from . import diagnostics
from .errors import ConfigError, UnsupportedSetting, VmAdmmError
from .linops import MetricOperator
from .problems import build_problem, oracle
from .solver import (
    ConstantSchedule,
    GeometricDecaySchedule,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
    validate_assumptions,
)

#: Pinned tolerances for the named hard checks.
CHECK_TOLERANCES = {
    "kkt": 1e-6,
    "gap_bound": -1e-8,
    "v_inequality": -1e-10,
    "v_monotone": 1e-10,
    "feasibility_rate": -0.45,
    "dual_identity": 1e-12,
}

#: Checks whose evaluation needs a certified saddle point.
ORACLE_CHECKS = {"gap_bound", "v_inequality", "v_monotone", "feasibility_rate"}

CSV_COLUMNS = [
    "k",
    "primal_objective",
    "lagrangian_at_probe",
    "residual_primal",
    "u_k",
    "v_k",
    "v_slack",
    "gap",
    "gap_bound",
    "kkt",
]


@dataclass
class RunConfig:
    """Everything needed to reproduce an experiment."""

    problem: dict
    metric1: dict
    metric2: dict
    c: float
    iters: int
    init: object = "zeros"
    checks: list = field(default_factory=list)
    seed: int = 0
    out_dir: str = "out"
    log_vectors: bool = False
    oracle_budget: int = 400000


_REQUIRED_KEYS = {"problem", "metric1", "metric2", "c", "iters"}
_ALL_KEYS = _REQUIRED_KEYS | {
    "init",
    "checks",
    "seed",
    "out_dir",
    "log_vectors",
    "oracle_budget",
}


def parse_config(text, source="<string>"):
    """Parse a JSON run configuration; errors carry the source and line."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a table")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ConfigError(f"{source}: missing keys {sorted(missing)}")
    unknown = set(data) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    try:
        cfg = RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if not isinstance(cfg.problem, dict) or "name" not in cfg.problem:
        raise ConfigError(f"{source}: 'problem' needs a 'name' entry")
    if cfg.iters < 0:
        raise ConfigError(f"{source}: 'iters' must be >= 0")
    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def serialize_config(cfg):
    """Canonical form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# schedule construction from config tables
# ---------------------------------------------------------------------------


def metric_from_spec(spec, dim, problem):
    kind = spec.get("kind")
    if kind == "zero":
        return MetricOperator.zero(dim)
    if kind == "scaled_identity":
        return MetricOperator.scaled_identity(dim, spec["mu"])
    if kind == "diagonal":
        return MetricOperator.diagonal(spec["entries"])
    if kind == "dense":
        return MetricOperator.dense(spec["matrix"])
    if kind == "shifted_gram":
        return MetricOperator.shifted_gram(spec["tau"], problem.c, problem.A)
    raise ConfigError(f"unknown metric kind {kind!r}")


def schedule_from_spec(spec, dim, problem):
    kind = spec.get("kind")
    if kind == "constant":
        return ConstantSchedule(metric_from_spec(spec["metric"], dim, problem))
    if kind == "geometric_decay":
        return GeometricDecaySchedule(
            metric_from_spec(spec["metric"], dim, problem), spec["rho"]
        )
    if kind == "shifted_gram":
        return ShiftedGramSchedule(spec["tau"], problem.c, problem.A)
    raise ConfigError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV / JSON emission
# ---------------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def write_iterate_log(path, rows, vector_labels=None):
    """Write IterateLog rows (list of dicts) as deterministic CSV."""
    columns = list(CSV_COLUMNS)
    if vector_labels:
        columns += vector_labels
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def write_summary(path, summary):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")


@dataclass
class ExperimentResult:
    exit_code: int
    summary: dict
    csv_path: str | None
    summary_path: str | None
    report: object
    checks: dict


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def problem_from_config(cfg):
    """Build the catalog problem a config names; returns ``(problem, metadata)``."""
    params = {k: v for k, v in cfg.problem.items() if k != "name"}
    params["c"] = cfg.c
    return build_problem(cfg.problem["name"], **params)


def output_dir(cfg, override):
    """Create and return ``override``, else ``$VMADMM_OUT``, else ``cfg.out_dir``."""
    directory = override or os.environ.get("VMADMM_OUT") or cfg.out_dir
    os.makedirs(directory, exist_ok=True)
    return directory


def _initial_from_config(cfg, problem):
    if cfg.init == "zeros":
        return initial_state(problem)
    if isinstance(cfg.init, dict):
        return initial_state(
            problem,
            x0=cfg.init.get("x"),
            z0=cfg.init.get("z"),
            y0=cfg.init.get("y"),
        )
    raise ConfigError("'init' must be \"zeros\" or a table with x/z/y")


def run_experiment(cfg, force=False, out_dir=None, echo=print):
    """Validate, run, log, and check one experiment.

    Prints the assumption report, runs the solver, writes ``log.csv`` and
    ``summary.json`` into the output directory, and evaluates the requested
    hard checks. Exit code 0 iff every requested check passes; 3 when the
    assumption validation rejects the schedules and ``force`` is not set.
    """
    problem, metadata = problem_from_config(cfg)
    sched1 = schedule_from_spec(cfg.metric1, problem.n, problem)
    sched2 = schedule_from_spec(cfg.metric2, problem.m, problem)

    horizon = max(1, min(cfg.iters, 50))
    report = validate_assumptions(problem, sched1, sched2, horizon)
    for line in report.summary_lines():
        echo(line)
    if not report.permits_run and not force:
        echo("assumption validation failed; rerun with --force to override")
        return ExperimentResult(
            exit_code=3,
            summary={},
            csv_path=None,
            summary_path=None,
            report=report,
            checks={},
        )

    init = _initial_from_config(cfg, problem)
    state, trace = run(
        problem, init, sched1, sched2, StoppingRule(max_iters=cfg.iters), force=True
    )
    K = trace.iterations

    needs_oracle = bool(ORACLE_CHECKS & set(cfg.checks))
    saddle = None
    if needs_oracle:
        orc = oracle(problem, budget=cfg.oracle_budget)
        saddle = (orc.x, orc.z, orc.y)

    rows, derived = _assemble_rows(
        problem, trace, sched1, sched2, saddle, seed=cfg.seed
    )
    checks = _evaluate_checks(cfg, problem, trace, derived)

    summary = {
        "problem": metadata,
        "iterations": K,
        "final_kkt": derived["final_kkt"],
        "min_gap_slack": derived["min_gap_slack"],
        "min_v_slack": derived["min_v_slack"],
        "rate_slope": derived["rate_slope"],
        "findings": {
            "uncorrected_v_min_slack": derived["uncorrected_v_min_slack"],
        },
        "checks": {
            name: {"passed": passed, "detail": detail}
            for name, (passed, detail) in checks.items()
        },
        "assumptions": {
            "condition_I": report.condition_I,
            "condition_II": report.condition_II,
            "condition_III": report.condition_III,
            "ergodic_ok": report.ergodic_ok,
        },
    }

    directory = output_dir(cfg, out_dir)
    csv_path = os.path.join(directory, "log.csv")
    summary_path = os.path.join(directory, "summary.json")
    vector_labels = None
    if cfg.log_vectors:
        vector_labels = (
            [f"x_{i}" for i in range(problem.n)]
            + [f"z_{i}" for i in range(problem.m)]
            + [f"y_{i}" for i in range(problem.m)]
        )
        for k, row in enumerate(rows, start=1):
            row.update({f"x_{i}": val for i, val in enumerate(trace.xs[k])})
            row.update({f"z_{i}": val for i, val in enumerate(trace.zs[k])})
            row.update({f"y_{i}": val for i, val in enumerate(trace.ys[k])})
    write_iterate_log(csv_path, rows, vector_labels)
    write_summary(summary_path, summary)

    failed = [name for name, (passed, _) in checks.items() if not passed]
    for name, (passed, detail) in checks.items():
        echo(f"check {name}: {'pass' if passed else 'FAIL'} ({detail})")
    return ExperimentResult(
        exit_code=0 if not failed else 1,
        summary=summary,
        csv_path=csv_path,
        summary_path=summary_path,
        report=report,
        checks=checks,
    )


def _constant_metrics(sched1, sched2, K):
    """The metrics of a run that used one (M1, M2) pair for all K iterations."""
    m1, m2 = sched1.metric(0), sched2.metric(0)
    for k in range(1, K):
        if sched1.metric(k) is not m1 or sched2.metric(k) is not m2:
            raise UnsupportedSetting("u/v need constant metric schedules")
    return m1, m2


def _assemble_rows(problem, trace, sched1, sched2, saddle, seed=0):
    """Build IterateLog rows and the derived per-run quantities in one pass."""
    K = trace.iterations
    u = v = pairs = None
    v_slacks = {}
    uncorrected_min = None
    if saddle is not None and K:
        averager = diagnostics.ErgodicAverager(problem.n, problem.m)
        init_state = trace.state_at(0)
        gamma0 = diagnostics.gamma(
            problem, init_state, trace.m1_0, trace.m2_0, saddle
        )
        # the gap bound is per-probe: sample a few extra probes around the
        # saddle (seeded) and check them every 10th iteration
        probes = diagnostics.sample_ball_probes(saddle, 1.0, 10, seed=seed)
        probe_gammas = [
            diagnostics.gamma(problem, init_state, trace.m1_0, trace.m2_0, p)
            for p in probes
        ]
        try:
            m1, m2 = _constant_metrics(sched1, sched2, K)
            u, v = diagnostics.uv_energies(problem, trace, saddle, m1, m2)
        except UnsupportedSetting:
            pass
        else:
            pairs = diagnostics.uv_pairs(u, v)
            v_slacks = dict(
                diagnostics.inequality_v_check(pairs[1:], trace.zs, problem.c)
            )
            # the stronger, uncorrected inequality is logged as a finding only
            uncorrected = diagnostics.uncorrected_v_slack(pairs[1:])
            if uncorrected:
                uncorrected_min = min(s for _, s in uncorrected)

    rows = []
    gap_slacks, probe_slacks = [], []
    for k in range(1, K + 1):
        x, z, y = trace.xs[k], trace.zs[k], trace.ys[k]
        row = {
            "k": k,
            "primal_objective": problem.f(x)
            + problem.h(x)
            + problem.g(problem.A.apply(x)),
            "residual_primal": trace.residual_norms[k - 1],
            "kkt": diagnostics.kkt_residual(problem, x, y),
        }
        if saddle is not None:
            averager.update(x, z, y)
            cert = diagnostics.gap_certificate(problem, averager, saddle, gamma0)
            gap_slacks.append(cert.slack)
            row["gap"] = cert.gap
            row["gap_bound"] = cert.bound
            row["lagrangian_at_probe"] = diagnostics.lagrangian(
                problem, x, z, saddle[2]
            )
            if k % 10 == 0 or k == K:
                probe_slacks += [
                    diagnostics.gap_certificate(problem, averager, p, g0).slack
                    for p, g0 in zip(probes, probe_gammas)
                ]
        if u is not None:
            row["u_k"] = float(u[k])
            row["v_k"] = float(v[k])
            row["v_slack"] = v_slacks.get(k)
        rows.append(row)

    start = max(2, min(100, K // 2)) if K else 2
    slope = diagnostics.loglog_slope(
        range(start, K + 1),
        trace.residual_norms[start - 1 : K],
    )
    derived = {
        "final_kkt": rows[-1]["kkt"] if rows else None,
        "u": u,
        "uv_pairs": pairs,
        "min_gap_slack": (
            min(min(gap_slacks), min(probe_slacks)) if gap_slacks else None
        ),
        "min_v_slack": min(v_slacks.values()) if v_slacks else None,
        "uncorrected_v_min_slack": uncorrected_min,
        "rate_slope": None if math.isinf(slope) else slope,
    }
    return rows, derived


def _evaluate_checks(cfg, problem, trace, derived):
    checks = {}
    K = trace.iterations
    for name in cfg.checks:
        if name not in CHECK_TOLERANCES:
            raise ConfigError(f"unknown check {name!r}")
        try:
            checks[name] = _single_check(name, problem, trace, derived, K)
        except VmAdmmError as exc:
            checks[name] = (False, f"not evaluable: {exc}")
    return checks


def _single_check(name, problem, trace, derived, K):
    tol = CHECK_TOLERANCES[name]
    if name == "kkt":
        final = derived["final_kkt"] if K else math.inf
        return final < tol, f"final_kkt={final:.3e}"
    if name == "gap_bound":
        if derived["min_gap_slack"] is None:
            return (K == 0), "no iterations"
        worst = derived["min_gap_slack"]
        return worst >= tol, f"min_slack={worst:.3e}"
    if name == "v_inequality":
        if derived["min_v_slack"] is None:
            if derived["u"] is None:
                raise UnsupportedSetting(
                    "u/v energies unavailable (need zero smooth term, "
                    "constant metrics, and a saddle point)"
                )
            return (K <= 2), "trace too short for slacks"
        worst = derived["min_v_slack"]
        return worst >= tol, f"min_slack={worst:.3e}"
    if name == "v_monotone":
        if derived["uv_pairs"] is None:
            raise UnsupportedSetting("v energy unavailable")
        ok, first = diagnostics.v_monotone_check(derived["uv_pairs"], tol)
        return ok, "nonincreasing" if ok else f"first violation at k={first + 1}"
    if name == "feasibility_rate":
        u = derived["u"]
        if u is None:
            raise UnsupportedSetting("u energy unavailable")
        S = diagnostics.accumulate_step_energy(trace, problem.c)
        worst = 0.0
        for k, resid, bound in diagnostics.feasibility_rate(
            trace, problem.c, float(u[1]), S
        ):
            worst = max(worst, resid - bound)
        slope = derived["rate_slope"]
        slope_ok = slope is None or slope <= tol
        ok = worst <= 0.0 and slope_ok
        return ok, f"max_excess={worst:.3e}, slope={slope}"
    if name == "dual_identity":
        worst = diagnostics.dual_identity_deviation(
            trace.ys, trace.residual_norms, problem.c
        )
        return worst <= tol, f"max_dev={worst:.3e}"
