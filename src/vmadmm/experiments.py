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
before the solve (:func:`saddle_point`) and certifies the iterates
:func:`solver.run` hands over in blocks of :data:`BLOCK`: each certified
quantity is one call over the block, along the leading block axis of
:mod:`diagnostics`, with the bits of certifying one iterate at a time.
Within a block the certifier holds one row per iterate, ``(x, z, y)`` end
to end, and folds the rows in place into their ergodic means once nothing
else reads them. Each block's rows are appended to ``log.csv`` as soon as
they are certified; between blocks the certifier keeps the last iterate,
the last row, running values and one per-iteration series,
``residual_primal``, whose entry ``i`` is iteration ``k = i + 1``. The u/v
checks (``v_inequality``, ``v_monotone``, ``feasibility_rate``) are judged
block by block; they need the metrics to stay constant for the whole run
and are "not evaluable" otherwise.

Where ``os.fork`` exists, at least two CPUs are usable and only one Python
thread runs (:func:`_solve_beside`), :func:`run_experiment` runs the solver
in a forked child and certifies its iterates in this process as they
arrive (:func:`_solve_forked`): the child copies each iterate into a shared
ring of two :data:`BLOCK`-row slots, ``(n + 3 m + 1)`` floats a row (204 KB
at n = 200 for tv1d, about 10 MB at n = 10 000), and the certifier,
``log.csv`` and ``summary.json`` stay here. Otherwise the solver runs here
with the certifier as its recorder. Both paths run the same code in the
same order and write the same bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import mmap
import os
import pickle
import signal
import sys
import threading
from dataclasses import MISSING, asdict, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import diagnostics
from .errors import ConfigError
from .linops import MetricOperator
from .problems import build_problem, oracle, tv1d_saddle
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
    "feasibility_rate": 0.0,
    "dual_identity": 1e-12,
}

#: Checks whose evaluation needs a certified saddle point.
ORACLE_CHECKS = {"gap_bound", "v_inequality", "v_monotone", "feasibility_rate"}

#: Iterates the certifier buffers and certifies together, one numpy call per
#: certified quantity per block. The certifier's working set grows with it:
#: at n = 200 (warm, seed 1) a certified solve's traced peak is 0.37 MB at 16
#: against 0.32 MB at 1 on tv1d-linearized, 0.31 against 0.24 MB on
#: tv1d-quadratic, 1.05 against 0.99 MB on lasso-g and 0.69 against 0.68 MB
#: on box-qp; the block buys time, not memory.
BLOCK = 16

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
    if type(cfg.log_vectors) is not bool:
        raise ConfigError(f"{source}: 'log_vectors' must be true or false")
    if not isinstance(cfg.out_dir, str) or not cfg.out_dir:
        raise ConfigError(f"{source}: 'out_dir' must be a non-empty string")
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(text, source=str(path))


def serialize_config(cfg):
    """Canonical form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# schedule construction from config tables
# ---------------------------------------------------------------------------


def _known_keys(table, name, *keys):
    """Raise :class:`ConfigError` if ``table`` has a key besides ``keys``."""
    unknown = set(table) - set(keys)
    if unknown:
        raise ConfigError(f"{name} {table!r}: unknown keys {sorted(unknown)}")


def _numbers_only(table, name):
    """Raise :class:`ConfigError` at a bool or a string in ``table``, nested
    tables and lists included; only the entries that name a problem, a kind
    or a choice (``name``, ``kind``, ``quadratic_in``, ``h_kind``) take one."""
    stack = [(None, table)]
    while stack:
        key, value = stack.pop()
        if isinstance(value, dict):
            stack += [item for item in value.items()
                      if item[0] not in ("name", "kind", "quadratic_in", "h_kind")]
        elif isinstance(value, list):
            stack += [(key, item) for item in value]
        elif isinstance(value, (bool, str)):
            raise ConfigError(f"{name}: {key!r} must be a number, not {value!r}")


def metric_from_spec(spec, dim, problem):
    kind = spec["kind"]
    if kind == "zero":
        _known_keys(spec, "metric", "kind")
        return MetricOperator.zero(dim)
    if kind == "scaled_identity":
        _known_keys(spec, "metric", "kind", "mu")
        return MetricOperator.scaled_identity(dim, spec["mu"])
    if kind == "diagonal":
        _known_keys(spec, "metric", "kind", "entries")
        return MetricOperator.diagonal(spec["entries"])
    if kind == "dense":
        _known_keys(spec, "metric", "kind", "matrix")
        return MetricOperator.dense(spec["matrix"])
    if kind == "shifted_gram":
        _known_keys(spec, "metric", "kind", "tau")
        return MetricOperator.shifted_gram(spec["tau"], problem.c, problem.A)
    raise ConfigError(f"unknown metric kind {kind!r}")


def schedule_from_spec(spec, dim, problem):
    """The metric schedule a config table names, over dimension ``dim``."""
    try:
        kind = spec["kind"]
        _numbers_only(spec, "schedule")
        if kind == "constant":
            _known_keys(spec, "schedule", "kind", "metric")
            return ConstantSchedule(metric_from_spec(spec["metric"], dim, problem))
        if kind == "geometric_decay":
            _known_keys(spec, "schedule", "kind", "metric", "rho")
            return GeometricDecaySchedule(
                metric_from_spec(spec["metric"], dim, problem), spec["rho"]
            )
        if kind == "shifted_gram":
            _known_keys(spec, "schedule", "kind", "tau")
            return ShiftedGramSchedule(spec["tau"], problem.c, problem.A)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"schedule {spec!r}: {exc!r}") from exc
    raise ConfigError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV / JSON emission
# ---------------------------------------------------------------------------


def write_iterate_log(fh, first, rows, live, fmt):
    """Append ``rows``, iterations ``first, first + 1, ...``, to the open
    ``log.csv`` ``fh``: ``k`` and the ``live`` columns of each row through
    the %-format ``fmt``, whose ``"%.17g"`` has the bytes of ``format(v, ".17g")``
    for every float."""
    rows = rows[:, live].tolist()
    fh.writelines(fmt % (k, *row) for k, row in enumerate(rows, first))


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
    if "c" in cfg.problem:  # the penalty is the top-level "c"
        raise ConfigError(f"'problem' table {cfg.problem!r}: unknown keys ['c']")
    _numbers_only(cfg.problem, "'problem' table")
    params = {k: v for k, v in cfg.problem.items() if k != "name"}
    params["c"] = cfg.c
    try:
        return build_problem(cfg.problem["name"], **params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'problem' table: {exc!r}") from exc


def output_dir(cfg, override):
    """Create and return ``override``, else ``$VMADMM_OUT``, else ``cfg.out_dir``."""
    directory = override or os.environ.get("VMADMM_OUT") or cfg.out_dir
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {directory!r}: {exc.strerror}") from exc
    return directory


def prepare(cfg):
    """Read the whole of ``cfg``: ``(problem, metadata, sched1, sched2,
    init)``. A malformed table raises :class:`ConfigError` here, before
    anything is validated or solved."""
    problem, metadata = problem_from_config(cfg)
    sched1 = schedule_from_spec(cfg.metric1, problem.n, problem)
    sched2 = schedule_from_spec(cfg.metric2, problem.m, problem)
    if cfg.init == "zeros":
        return problem, metadata, sched1, sched2, initial_state(problem)
    if not isinstance(cfg.init, dict):
        raise ConfigError("'init' must be \"zeros\" or a table with x/z/y")
    _known_keys(cfg.init, "'init' table", "x", "z", "y")
    _numbers_only(cfg.init, "'init' table")
    try:
        init = initial_state(problem, x0=cfg.init.get("x"),
                             z0=cfg.init.get("z"), y0=cfg.init.get("y"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'init' table: {exc!r}") from exc
    return problem, metadata, sched1, sched2, init


def saddle_point(cfg, problem):
    """The certified saddle the checks in :data:`ORACLE_CHECKS` read: the
    direct :func:`tv1d_saddle` for a ``tv1d`` config (``oracle_budget``
    unused), the iterative :func:`oracle` within ``cfg.oracle_budget``
    otherwise."""
    if cfg.problem["name"] == "tv1d":
        return tv1d_saddle(problem)
    return oracle(problem, budget=cfg.oracle_budget)


def run_experiment(cfg, force=False, out_dir=None):
    """Read (:func:`prepare`), validate, run, log, and check one experiment.

    Prints the assumption report, runs the solver (in a forked child when
    :func:`_solve_beside`, here otherwise) and certifies its iterates with a
    :class:`_Certifier` here, which streams ``log.csv`` into the output
    directory (as ``log.csv.partial``, renamed when complete and removed if
    the run raises), writes ``summary.json`` and evaluates the requested hard
    checks. Exit code 0 iff every requested check passes; 3 when the
    assumption validation rejects the schedules and ``force`` is not set.
    """
    problem, metadata, sched1, sched2, init = prepare(cfg)
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

    saddle = None
    if ORACLE_CHECKS & set(cfg.checks):
        orc = saddle_point(cfg, problem)
        saddle = (orc.x, orc.z, orc.y)
    directory = output_dir(cfg, out_dir)
    csv_path = os.path.join(directory, "log.csv")
    partial = csv_path + ".partial"
    fh = open(partial, "w", encoding="ascii", newline="\n")
    try:
        with fh:
            certifier = _Certifier(cfg, problem, init, sched1, sched2, saddle,
                                   report, fh)
            solve = (problem, init, sched1, sched2, StoppingRule(max_iters=cfg.iters))
            if _solve_beside():
                iterations = _solve_forked(solve, certifier)
            else:
                # only the count is read: the final iterate is freed before the checks
                iterations = run(*solve, force=True, recorder=certifier)[0].k
            certificates, checks = certifier.result()
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, csv_path)

    summary = {
        "problem": metadata,
        "iterations": iterations,
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

    summary_path = os.path.join(directory, "summary.json")
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


def _solve_beside():
    """Whether :func:`run_experiment` solves in a forked process beside the
    certifier: ``os.fork`` exists, at least two CPUs are usable (on one, the
    two processes only take turns) and only one Python thread runs (a fork
    copies the calling thread alone)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _current_cpu():
    """The CPU this process last ran on (field 39 of ``/proc/self/stat``),
    or None where that file cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except OSError:
        return None


class _RingWriter:
    """The solver process's recorder: copies each iterate's ``x``, ``z``,
    ``y``, ``A x`` and ``||A x_k - z_k||`` into one row of ``ring``, two slots
    of :data:`BLOCK` rows each, and reports each full slot on ``out`` as
    ``("rows", slot, count)``. Before refilling a slot it reads one byte from
    ``free``, which the parent writes when it has certified the slot."""

    def __init__(self, ring, out, free):
        self.ring, self.out, self.free = ring, out, free
        self.sent = 0  # slots reported
        self.row = 0  # rows filled in the open slot

    def record(self, state, residual):
        if not self.row and self.sent >= 2 and not os.read(self.free, 1):
            raise EOFError("the certifying process closed its pipe")
        row = self.ring[self.sent % 2, self.row]
        np.concatenate((state.x, state.z, state.y, state.Ax), out=row[:-1])
        row[-1] = residual
        self.row += 1
        if self.row == BLOCK:
            self.flush()

    def flush(self):
        if self.row:
            self.report(("rows", self.sent % 2, self.row))
            self.sent += 1
            self.row = 0

    def report(self, message):
        self.out.write(pickle.dumps(message))
        self.out.flush()


def _solve_forked(solve, certifier):
    """``run(*solve, force=True)`` in a forked child, its iterates certified
    here as they arrive; returns the final ``k``.

    The child records into a :class:`_RingWriter` over an anonymous shared
    ``mmap`` of two :data:`BLOCK`-row slots (``(n + 3 m + 1)`` floats a row),
    then reports ``("end", k)``, or ``("raise", exc)`` after the rows recorded
    before ``exc``, and leaves by ``os._exit`` on every path, so it flushes
    none of this process's buffers. This process hands each row to
    ``certifier.record`` as a state of ``x``, ``z``, ``y`` and ``Ax`` views
    and ``k``, frees the slot, and re-raises the child's exception. On its
    own exception it kills the child; on every path it reaps it."""
    problem, init = solve[0], solve[1]
    n, m = problem.n, problem.m
    width = n + 3 * m + 1  # x, z, y, A x and the residual
    ring = np.frombuffer(mmap.mmap(-1, 2 * BLOCK * width * 8)).reshape(2, BLOCK, width)
    reports, out = os.pipe()
    free, freed = os.pipe()
    here = _current_cpu()
    pid = os.fork()
    if pid == 0:  # the solver process
        code = 1
        try:
            os.close(reports)
            os.close(freed)
            # a kernel that does not balance load across CPUs keeps a child
            # on its parent's CPU: run beside the parent, not in its turns
            os.sched_setaffinity(0, os.sched_getaffinity(0) - {here})
            writer = _RingWriter(ring, os.fdopen(out, "wb"), free)
            try:
                message = ("end", run(*solve, force=True, recorder=writer)[0].k)
            except BaseException as exc:  # the parent raises it
                message = ("raise", exc)
            writer.flush()
            writer.report(message)
            code = 0
        finally:
            os._exit(code)
    os.close(out)
    os.close(free)
    xs, zs, ys, axs, residuals = np.split(ring, np.cumsum([n, m, m, m]), axis=2)
    k, status = init.k, None
    try:
        with os.fdopen(reports, "rb") as channel:
            while True:
                try:
                    kind, *got = pickle.load(channel)
                except (EOFError, pickle.UnpicklingError):
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(
                        f"the solver process ended with no result "
                        f"(exit status {status})") from None
                if kind == "end":
                    return got[0]
                if kind == "raise":
                    raise got[0]
                slot, count = got
                for x, z, y, Ax, residual in zip(xs[slot], zs[slot], ys[slot], axs[slot],
                                                 residuals[slot, :count, 0].tolist()):
                    k += 1
                    certifier.record(SimpleNamespace(x=x, z=z, y=y, Ax=Ax, k=k),
                                     residual)
                with contextlib.suppress(BrokenPipeError):  # the child is done
                    os.write(freed, b"\0")
    except BaseException:
        if status is None:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(freed)
        if status is None:
            os.waitpid(pid, 0)


class _Certifier:
    """The runner's recorder: certifies the iterates :func:`run` hands over,
    :data:`BLOCK` at a time, and appends their rows to the open ``log``.

    Between blocks it holds the last iterate, the Kahan sum of the iterates
    so far, each probe's ``y``, gamma and Lagrangian terms as one row of
    three arrays (the saddle's first), the smallest gap slack and the
    largest dual identity deviation so far, the ``residual_primal`` series
    and, if u/v are evaluable, the running values of their checks: the two
    least slacks, the first rise of ``v``, ``u_1`` and the step sum. The
    set-up draws one probe at a time, fills its rows by 1-D calls and drops
    it before drawing the next. Within a block it buffers up to
    :data:`BLOCK` iterates, one row each of ``(x, z, y)`` end to end, with
    their ``A x_k``, then certifies them with one call per quantity into
    rows 1.. of a ``BLOCK + 1``-row table; each value keeps the bits of
    certifying its iterate alone. Once all but the gap is certified, the
    iterate rows are folded in place, one Kahan step each, into the ergodic
    means the gap reads. Row 0 of the table holds the block before's last
    row until this block gives its ``v_slack``; the run's last row is
    written with ``v_slack`` empty. ``saddle`` is None when no requested
    check needs one. The u/v checks need a zero smooth term and one (M1, M2)
    pair for the whole run; they fail as "not evaluable" otherwise.

    :meth:`result` frees the block buffers, then returns ``(certificates,
    checks)``: the summary's certificate fields and ``{name: (passed,
    detail)}`` for the checks ``cfg.checks`` requests, in its order, against
    :data:`CHECK_TOLERANCES`.
    """

    def __init__(self, cfg, problem, init, sched1, sched2, saddle, report, log):
        n, m, K = problem.n, problem.m, cfg.iters
        self.cfg, self.problem, self.saddle, self.log = cfg, problem, saddle, log
        self.ergodic_ok = report.ergodic_ok  # the gap bound's hypotheses
        columns = CSV_COLUMNS[1:]
        if cfg.log_vectors:
            dims = (("x", n), ("z", m), ("y", m))
            columns += [f"{name}_{i}" for name, dim in dims for i in range(dim)]
        self.col = {name: j for j, name in enumerate(columns)}
        self.table = np.empty((BLOCK + 1, len(columns)))
        self.residuals = np.empty(K)  # ||A x_k - z_k||
        self.max_dev = 0.0  # largest dual identity deviation so far
        self.done = 0  # rows certified
        self.open = 0  # iterates buffered in the open block
        # (x, z, y) end to end, one row per iterate: row 0 is the iterate
        # before the open block
        self.iterates = np.empty((BLOCK + 1, n + 2 * m))
        self.xs, self.zs, self.ys = np.split(self.iterates, (n, n + m), axis=1)
        self.xs[0], self.zs[0], self.ys[0] = init.x, init.z, init.y
        self.axs = np.empty((BLOCK, m))
        self.min_gap_slack = None
        self.dz_sq = None  # ||z_k - z_{k-1}||^2 of the open block, if u/v are evaluable
        if saddle is not None and K:
            # Kahan sum over (x, z, y) end to end: entry by entry, as three sums
            self.sum, self.comp = np.zeros(n + 2 * m), np.zeros(n + 2 * m)
            self.min_gap_slack = math.inf
            m1, m2 = sched1.metric(0), sched2.metric(0)
            # the gap bound is per-probe: probe 0 is the saddle, checked every
            # iteration, and ten probes sampled around it (seeded) are checked
            # every 10th and at the last. A probe is fixed, so its gamma and
            # Lagrangian terms are computed once, by 1-D calls as it is drawn;
            # only (y, gamma, terms) is kept, one row per probe
            self.probe_y, self.probe_gamma = np.empty((11, m)), np.empty(11)
            self.probe_terms = values, residuals = np.empty(11), np.empty((11, m))
            probes = diagnostics.ball_probes(saddle, 10, seed=cfg.seed)
            for i, (x, z, y) in enumerate(itertools.chain([saddle], probes)):
                Ax = problem.A.apply(x)
                self.probe_y[i] = y
                self.probe_gamma[i] = diagnostics.gamma(problem, init, m1, m2,
                                                        (x, z, y), Ax)
                values[i], residuals[i] = diagnostics.lagrangian_terms(problem, x, z, Ax)
            if report.h_is_zero and all(
                sched1.metric(k) is m1 and sched2.metric(k) is m2
                for k in range(1, K)
            ):
                self.m1, self.m2 = m1, m2
                # rows 1..b: the block's steps; row 0: the sum of those before
                self.dz_sq = np.zeros(BLOCK + 1)
                self.min_v_slacks = (math.inf, math.inf)  # at c and uncorrected
                self.first_rise = None  # the first k with v_k > v_{k-1} + tol
        # which cells are empty, by structure: every row's and the last row's
        blank = {"lagrangian_at_probe", "gap", "gap_bound"} if saddle is None else set()
        if self.dz_sq is None:
            blank |= {"u_k", "v_k", "v_slack"}
        self.formats = [([j for j, name in enumerate(columns) if name not in empty],
                         "%d," + ",".join("" if name in empty else "%.17g"
                                          for name in columns) + "\n")
                        for empty in (blank, blank | {"v_slack"})]
        log.write(",".join(["k", *columns]) + "\n")

    def record(self, state, residual):
        i = self.open
        self.xs[i + 1], self.zs[i + 1], self.ys[i + 1] = state.x, state.z, state.y
        self.axs[i] = state.Ax
        self.residuals[self.done + i] = residual
        self.open += 1
        if self.open == BLOCK:
            self._certify_block()

    def _certify_block(self):
        b, start = self.open, self.done
        if not b:
            return
        problem, saddle, col, table = self.problem, self.saddle, self.col, self.table
        rows = table[1 : b + 1]  # row j of the table is iteration start + j
        prev = self.xs[:b], self.zs[:b], self.ys[:b]
        x, z, y = self.xs[1 : b + 1], self.zs[1 : b + 1], self.ys[1 : b + 1]
        Ax = self.axs[:b]
        residuals = rows[:, col["residual_primal"]] = self.residuals[start : start + b]
        dev = diagnostics.dual_identity_deviation(prev[2], y, residuals, problem.c)
        self.max_dev = np.maximum(self.max_dev, dev)  # a NaN stays NaN
        fh, g_ax, rows[:, col["kkt"]] = diagnostics.objective_and_kkt(problem, x, y, Ax)
        rows[:, col["primal_objective"]] = fh + g_ax
        if saddle is not None:
            rows[:, col["lagrangian_at_probe"]] = diagnostics.lagrangian_at(
                diagnostics.lagrangian_terms(problem, x, z, Ax, fh), saddle[2]
            )
        # the held row 0 is written with this block, its v_slack now known
        first = 0 if start else 1
        if self.dz_sq is not None:
            rows[:, col["u_k"]], rows[:, col["v_k"]] = diagnostics.uv_step(
                problem, saddle, self.m1, self.m2, prev, (x, z, y)
            )
            dz = z - prev[1]
            dz_sq = self.dz_sq[: b + 1]
            dz_sq[1:] = np.vecdot(dz, dz)
            # rows first..b, with the held row 0; inequality_v_check reads no dz_sq[0]
            u, v = table[first : b + 1, col["u_k"]], table[first : b + 1, col["v_k"]]
            if not start:
                self.u1 = u[0]
            # row 0 at c, row 1 the stronger, uncorrected inequality (c = 0)
            slacks = diagnostics.inequality_v_check(u, v, dz_sq[first:],
                                                    np.array([[problem.c], [0.0]]))
            table[first:b, col["v_slack"]] = slacks[0]
            if b > first:  # np.min, as np.minimum, keeps a NaN
                self.min_v_slacks = tuple(np.minimum(self.min_v_slacks, slacks.min(1)))
            ok, rise = diagnostics.v_monotone_check(v, CHECK_TOLERANCES["v_monotone"])
            if not ok and self.first_rise is None:
                self.first_rise = rise + start + first - 1
            # one add per step in iteration order: the bits of np.cumsum
            dz_sq[0] = np.cumsum(dz_sq)[-1]
        iterates = self.iterates
        if self.cfg.log_vectors:
            rows[:, col["x_0"] :] = iterates[1 : b + 1]
        iterates[0] = iterates[b]
        if saddle is not None:
            # nothing else reads rows 1..b: each becomes its ergodic mean by a
            # Kahan step, the new sum written into comp's buffer, then swapped
            means = iterates[1 : b + 1]
            for k, term in enumerate(means, start + 1):
                term -= self.comp
                total = np.add(self.sum, term, out=self.comp)
                comp = np.subtract(total, self.sum, out=self.sum)
                comp -= term
                self.sum, self.comp = total, comp
                np.divide(total, k, out=term)
            self._certify_gaps(rows, np.arange(start + 1, start + b + 1), means)
        write_iterate_log(self.log, start + first, table[first:b], *self.formats[0])
        table[0] = table[b]
        self.done += b
        self.open = 0

    def _certify_gaps(self, rows, ks, means):
        """The gap columns of ``rows`` (iterations ``ks``) and their slacks,
        from the rows of ``(x_bar, z_bar, y_bar)`` end to end in ``means``."""
        problem, n, m = self.problem, self.problem.n, self.problem.m
        average = diagnostics.lagrangian_terms(problem, means[:, :n],
                                               means[:, n : n + m])
        y_bar = means[:, n + m :]
        probe_y, gammas, (values, residuals) = (
            self.probe_y, self.probe_gamma, self.probe_terms
        )
        cert = diagnostics.gap_certificate(
            diagnostics.lagrangian_at(average, probe_y[0]),
            diagnostics.lagrangian_at((values[0], residuals[0]), y_bar),
            gammas[0],
            ks,
        )
        rows[:, self.col["gap"]], rows[:, self.col["gap_bound"]] = cert.gap, cert.bound
        slacks = [cert.slack]
        rounds = (ks % 10 == 0) | (ks == self.cfg.iters)
        if rounds.any():
            value, residual = average
            sampled = diagnostics.gap_certificate(
                diagnostics.lagrangian_at(
                    (value[rounds, None], residual[rounds, None]), probe_y[1:]
                ),
                diagnostics.lagrangian_at(
                    (values[1:], residuals[1:]), y_bar[rounds, None]
                ),
                gammas[1:],
                ks[rounds, None],
            )
            slacks.append(sampled.slack.ravel())
        # fmin skips a NaN slack (two infinite Lagrangians), as min() does
        least = float(np.fmin.reduce(np.concatenate(slacks)))
        self.min_gap_slack = min(self.min_gap_slack, least)

    def result(self):
        self._certify_block()
        problem, K = self.problem, self.done
        if K:  # the held last row, v_slack empty
            write_iterate_log(self.log, K, self.table[:1], *self.formats[1])
        final_kkt = float(self.table[0, self.col["kkt"]]) if K else None
        # the block buffers are freed before the end-of-run checks
        del self.iterates, self.xs, self.zs, self.ys, self.axs, self.table
        residuals = self.residuals[:K]
        tol = CHECK_TOLERANCES
        verdicts = {
            "v_inequality": (False, "not evaluable: u/v energies unavailable "
                             "(need zero smooth term, constant metrics, and a "
                             "saddle point)"),
            "v_monotone": (False, "not evaluable: v energy unavailable"),
            "feasibility_rate": (False, "not evaluable: u energy unavailable"),
        }

        final = math.inf if final_kkt is None else final_kkt
        verdicts["kkt"] = (final < tol["kkt"], f"final_kkt={final:.3e}")

        min_gap_slack = self.min_gap_slack
        # a requested gap_bound always has a saddle: no minimum means K == 0
        verdicts["gap_bound"] = (True, "no iterations")
        if not self.ergodic_ok:
            verdicts["gap_bound"] = (False, "not evaluable: ergodic hypotheses fail")
        elif min_gap_slack is not None:
            verdicts["gap_bound"] = (
                min_gap_slack >= tol["gap_bound"],
                f"min_slack={min_gap_slack:.3e}",
            )

        start = max(2, min(100, K // 2)) if K else 2
        slope = diagnostics.loglog_slope(range(start, K + 1), residuals[start - 1 :])
        rate_slope = None if math.isinf(slope) else slope

        min_v_slack = uncorrected_min = None
        if self.dz_sq is not None:
            verdicts["v_inequality"] = (True, "trace too short for slacks")
            if K > 1:  # one slack per step k -> k + 1
                # the uncorrected slack is logged as a finding only
                min_v_slack, uncorrected_min = map(float, self.min_v_slacks)
                verdicts["v_inequality"] = (
                    min_v_slack >= tol["v_inequality"],
                    f"min_slack={min_v_slack:.3e}",
                )
            first = self.first_rise
            verdicts["v_monotone"] = (
                first is None,
                "nonincreasing" if first is None else f"first violation at k={first}",
            )
            # dz_sq[0] holds the in-order sum of every step, all the bound reads
            bounds = diagnostics.feasibility_rate(residuals, problem.c, self.u1,
                                                  self.dz_sq[:1])
            # a NaN excess fails the check
            worst = float(np.max(residuals[1:] - bounds, initial=0.0))
            verdicts["feasibility_rate"] = (
                worst <= tol["feasibility_rate"],
                f"max_excess={worst:.3e}, slope={rate_slope}",
            )

        dev = float(self.max_dev)
        verdicts["dual_identity"] = (dev <= tol["dual_identity"], f"max_dev={dev:.3e}")

        certificates = {
            "final_kkt": final_kkt,
            "min_gap_slack": min_gap_slack,
            "min_v_slack": min_v_slack,
            "rate_slope": rate_slope,
            "findings": {"uncorrected_v_min_slack": uncorrected_min},
        }
        checks = {name: verdicts[name] for name in self.cfg.checks}
        return certificates, checks
