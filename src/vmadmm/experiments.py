"""Config-driven experiment runner with bit-stable CSV/JSON logging.

A run configuration is a JSON document (nested tables, canonical form sorts
keys) naming a catalog problem, the two metric schedules, the penalty, the
initial point, the iteration count, and the list of hard checks to evaluate.
Identical configurations produce byte-identical CSV logs on the same
platform: floats are printed with 17 significant digits and all test data is
generated from seeded integer arithmetic.

Every certificate is computed in :mod:`diagnostics` and judged against the
one tolerance in :data:`CHECK_TOLERANCES`; ``vmadmm check`` calls the same
functions with the same tolerances. The runner computes the saddle point
before the solve and certifies each iterate as :func:`solver.run` hands it
over, keeping the previous iterate and per-iteration scalars only. The u/v
checks (``v_inequality``, ``v_monotone``, ``feasibility_rate``) need the
metrics to stay constant for the whole run; they are "not evaluable" otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import diagnostics
from .errors import ConfigError
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


_ALL_KEYS = {f.name for f in fields(RunConfig)}
_REQUIRED_KEYS = {
    f.name for f in fields(RunConfig)
    if f.default is MISSING and f.default_factory is MISSING
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
    cfg = RunConfig(**data)
    if not isinstance(cfg.problem, dict) or "name" not in cfg.problem:
        raise ConfigError(f"{source}: 'problem' needs a 'name' entry")
    for key in ("iters", "seed", "oracle_budget"):
        if type(getattr(cfg, key)) is not int or getattr(cfg, key) < 0:
            raise ConfigError(f"{source}: {key!r} must be an integer >= 0")
    if type(cfg.c) not in (int, float) or not 0 < cfg.c <= sys.float_info.max:
        raise ConfigError(f"{source}: 'c' must be a finite number > 0")
    if not isinstance(cfg.checks, list) or not all(
        isinstance(name, str) and name in CHECK_TOLERANCES for name in cfg.checks
    ):
        raise ConfigError(
            f"{source}: 'checks' must be a list of names from "
            f"{sorted(CHECK_TOLERANCES)}, got {cfg.checks!r}"
        )
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    return parse_config(text, source=str(path))


def serialize_config(cfg):
    """Canonical form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# schedule construction from config tables
# ---------------------------------------------------------------------------


def metric_from_spec(spec, dim, problem):
    kind = spec["kind"]
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
    """The metric schedule a config table names, over dimension ``dim``."""
    try:
        kind = spec["kind"]
        if kind == "constant":
            return ConstantSchedule(metric_from_spec(spec["metric"], dim, problem))
        if kind == "geometric_decay":
            return GeometricDecaySchedule(
                metric_from_spec(spec["metric"], dim, problem), spec["rho"]
            )
        if kind == "shifted_gram":
            return ShiftedGramSchedule(spec["tau"], problem.c, problem.A)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"schedule {spec!r}: {exc!r}") from exc
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
    try:
        return build_problem(cfg.problem["name"], **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"'problem' table: {exc!r}") from exc


def output_dir(cfg, override):
    """Create and return ``override``, else ``$VMADMM_OUT``, else ``cfg.out_dir``."""
    directory = override or os.environ.get("VMADMM_OUT") or cfg.out_dir
    os.makedirs(directory, exist_ok=True)
    return directory


def _initial_from_config(cfg, problem):
    if cfg.init == "zeros":
        return initial_state(problem)
    if isinstance(cfg.init, dict):
        try:
            return initial_state(
                problem,
                x0=cfg.init.get("x"),
                z0=cfg.init.get("z"),
                y0=cfg.init.get("y"),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'init' table: {exc!r}") from exc
    raise ConfigError("'init' must be \"zeros\" or a table with x/z/y")


def run_experiment(cfg, force=False, out_dir=None):
    """Validate, run, log, and check one experiment.

    Prints the assumption report, runs the solver with a :class:`_Certifier`
    as its recorder, writes ``log.csv`` and ``summary.json`` into the output
    directory, and evaluates the requested hard checks. Exit code 0 iff every
    requested check passes; 3 when the assumption validation rejects the
    schedules and ``force`` is not set.
    """
    problem, metadata = problem_from_config(cfg)
    sched1 = schedule_from_spec(cfg.metric1, problem.n, problem)
    sched2 = schedule_from_spec(cfg.metric2, problem.m, problem)

    report = validate_assumptions(problem, sched1, sched2)
    for line in report.summary_lines():
        print(line)
    if not report.permits_run and not force:
        print("assumption validation failed; rerun with --force to override")
        return ExperimentResult(
            exit_code=3,
            summary={},
            csv_path=None,
            summary_path=None,
            report=report,
            checks={},
        )

    init = _initial_from_config(cfg, problem)
    saddle = None
    if ORACLE_CHECKS & set(cfg.checks):
        orc = oracle(problem, budget=cfg.oracle_budget)
        saddle = (orc.x, orc.z, orc.y)
    certifier = _Certifier(cfg, problem, init, sched1, sched2, saddle, report)
    stop = StoppingRule(max_iters=cfg.iters)
    state, _ = run(problem, init, sched1, sched2, stop, force=True, recorder=certifier)
    rows, certificates, checks = certifier.result()

    summary = {
        "problem": metadata,
        "iterations": state.k,
        **certificates,
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
        dims = (("x", problem.n), ("z", problem.m), ("y", problem.m))
        vector_labels = [f"{name}_{i}" for name, dim in dims for i in range(dim)]
    write_iterate_log(csv_path, rows, vector_labels)
    write_summary(summary_path, summary)

    failed = [name for name, (passed, _) in checks.items() if not passed]
    for name, (passed, detail) in checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'} ({detail})")
    return ExperimentResult(
        exit_code=0 if not failed else 1,
        summary=summary,
        csv_path=csv_path,
        summary_path=summary_path,
        report=report,
        checks=checks,
    )


class _Certifier:
    """The runner's recorder: certifies each iterate as :func:`run` hands it over.

    Between iterations it keeps the previous iterate, the ergodic averager,
    each probe's ``(y, gamma, Lagrangian terms)`` with the saddle as probe 0,
    the smallest gap slack so far and per-iteration scalars only.
    ``saddle`` is None when no requested check needs one. The u/v checks
    need a zero smooth term and one (M1, M2) pair for the whole run; they
    fail as "not evaluable" otherwise.

    :meth:`result` returns ``(rows, certificates, checks)``: the ``log.csv``
    rows, the summary's certificate fields, and ``{name: (passed, detail)}``
    for the checks ``cfg.checks`` requests, in its order, each judged against
    :data:`CHECK_TOLERANCES`.
    """

    def __init__(self, cfg, problem, init, sched1, sched2, saddle, report):
        self.cfg, self.problem, self.saddle, self.prev = cfg, problem, saddle, init
        self.rows = []
        self.residuals = []  # ||A x_k - z_k||
        self.dual_steps = []  # ||y_k - y_{k-1}||
        self.min_gap_slack = None
        self.u = self.v = None
        if saddle is None or not cfg.iters:
            return
        self.averager = diagnostics.ErgodicAverager(problem.n, problem.m)
        self.min_gap_slack = math.inf
        m1, m2 = sched1.metric(0), sched2.metric(0)
        # the gap bound is per-probe: probe 0 is the saddle, checked every
        # iteration, and ten probes sampled around it (seeded) are checked
        # every 10th and at the last. A probe is fixed, so its gamma and
        # Lagrangian terms are computed once; only (y, gamma, terms) is kept
        self.probes = []
        sampled = diagnostics.sample_ball_probes(saddle, 1.0, 10, seed=cfg.seed)
        for probe in [saddle] + sampled:
            Ax = problem.A.apply(probe[0])
            self.probes.append((
                probe[2],
                diagnostics.gamma(problem, init, m1, m2, probe, Ax),
                diagnostics.lagrangian_terms(problem, probe[0], probe[1], Ax),
            ))
        if report.h_is_zero and all(
            sched1.metric(k) is m1 and sched2.metric(k) is m2
            for k in range(1, cfg.iters)
        ):
            self.m1, self.m2 = m1, m2
            # indexed by k like the rows; k = 0 has no step
            self.u, self.v, self.dz_sq = [math.nan], [math.nan], [math.nan]
            self.step_energy = 0.0  # sum of dz_sq in iteration order, for S

    def record(self, state, residual):
        problem, saddle, prev = self.problem, self.saddle, self.prev
        k, x, z, y, Ax = state.k, state.x, state.z, state.y, state.Ax
        self.residuals.append(residual)
        self.dual_steps.append(float(np.linalg.norm(y - prev.y)))
        fh = problem.f(x) + problem.h(x)
        row = {
            "k": k,
            "primal_objective": fh + problem.g(Ax),
            "residual_primal": residual,
            "kkt": diagnostics.kkt_residual(problem, x, y, Ax),
        }
        if saddle is not None:
            averager = self.averager
            averager.update(x, z, y)
            # the Lagrangian terms at the averages, shared by every probe
            average = diagnostics.lagrangian_terms(
                problem, averager.x_bar, averager.z_bar
            )
            y_bar = averager.y_bar
            count = len(self.probes) if k % 10 == 0 or k == self.cfg.iters else 1
            for i in range(count):
                y_p, gamma_p, terms = self.probes[i]
                cert = diagnostics.gap_certificate(
                    diagnostics.lagrangian_at(average, y_p),
                    diagnostics.lagrangian_at(terms, y_bar),
                    gamma_p,
                    averager.k,
                )
                self.min_gap_slack = min(self.min_gap_slack, cert.slack)
                if i == 0:
                    row["gap"], row["gap_bound"] = cert.gap, cert.bound
            row["lagrangian_at_probe"] = diagnostics.lagrangian_at(
                diagnostics.lagrangian_terms(problem, x, z, Ax, fh), saddle[2]
            )
        if self.u is not None:
            u_k, v_k = diagnostics.uv_step(
                problem, saddle, self.m1, self.m2, prev, state
            )
            dz = z - prev.z
            self.dz_sq.append(float(dz @ dz))
            self.step_energy += self.dz_sq[-1]
            self.u.append(u_k)
            self.v.append(v_k)
            row["u_k"], row["v_k"] = u_k, v_k
        if self.cfg.log_vectors:
            for name, vec in (("x", x), ("z", z), ("y", y)):
                row.update({f"{name}_{i}": val for i, val in enumerate(vec)})
        self.rows.append(row)
        self.prev = state

    def result(self):
        problem, rows, u, v = self.problem, self.rows, self.u, self.v
        residuals = self.residuals
        K = len(rows)
        tol = CHECK_TOLERANCES
        verdicts = {
            "v_inequality": (False, "not evaluable: u/v energies unavailable "
                             "(need zero smooth term, constant metrics, and a "
                             "saddle point)"),
            "v_monotone": (False, "not evaluable: v energy unavailable"),
            "feasibility_rate": (False, "not evaluable: u energy unavailable"),
        }
        v_slacks = []
        uncorrected_min = None
        if u is not None:
            v_slacks = diagnostics.inequality_v_check(u, v, self.dz_sq, problem.c)
            for k, slack in v_slacks:
                rows[k - 1]["v_slack"] = slack
            # the stronger, uncorrected inequality (no c ||dz||^2 term) is
            # logged as a finding only
            uncorrected = diagnostics.inequality_v_check(u, v, self.dz_sq, 0.0)
            uncorrected_min = min((s for _, s in uncorrected), default=None)
            ok, first = diagnostics.v_monotone_check(v, tol["v_monotone"])
            verdicts["v_monotone"] = (
                ok,
                "nonincreasing" if ok else f"first violation at k={first}",
            )

        final = rows[-1]["kkt"] if rows else math.inf
        verdicts["kkt"] = (final < tol["kkt"], f"final_kkt={final:.3e}")

        min_gap_slack = self.min_gap_slack
        # a requested gap_bound always has a saddle: no minimum means K == 0
        verdicts["gap_bound"] = (True, "no iterations")
        if min_gap_slack is not None:
            verdicts["gap_bound"] = (
                min_gap_slack >= tol["gap_bound"],
                f"min_slack={min_gap_slack:.3e}",
            )

        min_v_slack = None
        if v_slacks:
            min_v_slack = min(s for _, s in v_slacks)
            verdicts["v_inequality"] = (
                min_v_slack >= tol["v_inequality"],
                f"min_slack={min_v_slack:.3e}",
            )
        elif u is not None:
            verdicts["v_inequality"] = (True, "trace too short for slacks")

        start = max(2, min(100, K // 2)) if K else 2
        slope = diagnostics.loglog_slope(range(start, K + 1), residuals[start - 1 :])
        rate_slope = None if math.isinf(slope) else slope
        if u is not None:
            S = problem.c * self.step_energy
            bounds = diagnostics.feasibility_rate(residuals, problem.c, u[1], S)
            worst = max([0.0] + [resid - bound for _, resid, bound in bounds])
            slope_ok = rate_slope is None or rate_slope <= tol["feasibility_rate"]
            verdicts["feasibility_rate"] = (
                worst <= 0.0 and slope_ok,
                f"max_excess={worst:.3e}, slope={rate_slope}",
            )

        dev = diagnostics.dual_identity_deviation(self.dual_steps, residuals, problem.c)
        verdicts["dual_identity"] = (dev <= tol["dual_identity"], f"max_dev={dev:.3e}")

        certificates = {
            "final_kkt": rows[-1]["kkt"] if rows else None,
            "min_gap_slack": min_gap_slack,
            "min_v_slack": min_v_slack,
            "rate_slope": rate_slope,
            "findings": {"uncorrected_v_min_slack": uncorrected_min},
        }
        return rows, certificates, {name: verdicts[name] for name in self.cfg.checks}
