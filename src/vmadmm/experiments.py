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
:func:`solver.run` hands over in blocks of :data:`BLOCK`, each certified
quantity one call over a block with the bits of one iterate at a time.

The solver's recorder copies each iterate once, into a shared ``mmap`` ring
(:func:`_ring`) whose slots are the :class:`_Certifier`'s block buffers, and
opens each slot with the iterate before its block: a slot holds all its
block reads. Each check is a fold over the blocks that owns its gate, its
``log.csv`` columns, its running values and its verdict (:class:`_KktFold`,
:class:`_DualIdentityFold`, :class:`_UvFold`, :class:`_GapFold`).

The solver runs in a forked child beside the certifier where it can
(:func:`_solve_beside`, :func:`_solve_forked`), in this process otherwise;
both paths run the same code in the same order and write the same bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import mmap
import os
import pickle
import select
import signal
import sys
import threading
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields

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

#: Iterates the certifier certifies together, one numpy call per certified
#: quantity per block; the solver process makes the own-row columns' calls
#: instead when the certifier is two slots behind. The ring's slots grow with
#: it, in untraced ``mmap`` memory: at n = 200 (warm, seed 1, two CPUs) a
#: certified solve's traced peak is 0.28 MB at 16 and at 1 on tv1d-linearized,
#: 0.24 MB on tv1d-quadratic, 0.87 MB on lasso-g and 0.69 MB on box-qp.
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
#: Each fixed column's place in the certifier's table, which leaves out ``k``
#: and holds any logged ``x``, ``z`` and ``y`` after them.
_COLUMN = {name: j for j, name in enumerate(CSV_COLUMNS[1:])}


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
            beside = _solve_beside()
            certifier = _Certifier(cfg, problem, init, sched1, sched2, saddle,
                                   report, fh, slots=3 if beside else 1)
            solve = (problem, init, sched1, sched2, StoppingRule(max_iters=cfg.iters))
            if beside:
                _solve_forked(solve, certifier)
            else:
                writer = _RingWriter(certifier.ring, init, certifier.certify)
                run(*solve, force=True, recorder=writer)
                writer.flush()
                del writer  # with the final iterate, freed before the checks
            certificates, checks = certifier.result()
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, csv_path)

    summary = {
        "problem": metadata,
        "iterations": certifier.done,
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


def _ring(slots, n, m):
    """``slots`` slots of ``BLOCK + 1`` rows ``(x, z, y, A x, ||A x - z||)``
    and three own-row columns (objective, KKT, Lagrangian at the saddle's
    ``y``) in one anonymous shared ``mmap``. Row 0 uses only its ``(x, z,
    y)``, the iterate before the slot's block, and its first own-row column:
    the slot's flag, nonzero once rows ``1..`` have theirs."""
    width = n + 3 * m + 4
    return np.ndarray((slots, BLOCK + 1, width),
                      buffer=mmap.mmap(-1, slots * (BLOCK + 1) * width * 8))


def _ring_fields(rows, m):
    """Views of ring ``rows``: ``(x, z, y)`` end to end, ``A x``, the residual
    and the own-row columns; with ``m`` 0, the first is ``(x, z, y, A x)``."""
    return rows[..., : -4 - m], rows[..., -4 - m : -4], rows[..., -4], rows[..., -3:]


class _RingWriter:
    """The solver's recorder: opens each slot of ``ring`` in turn with the
    state recorded last (``init`` at first) in row 0's ``(x, z, y)``, fills
    rows ``1..BLOCK`` and hands each full slot, and the last at :meth:`flush`,
    to ``deliver(slot, count)``. With ``free``, another process certifies the
    slots and frees each by a byte on ``free``: the writer waits for that
    byte before it opens a slot again, and first calls ``fill(slot, count)``
    on a slot it hands over while the certifier is :meth:`behind`."""

    def __init__(self, ring, init, deliver, free=None, fill=None):
        self.ring, self.deliver, self.free, self.fill = ring, deliver, free, fill
        self.vectors, _, self.residuals, _ = _ring_fields(ring, 0)
        self.last = init  # the state recorded last
        self.sent = 0  # slots delivered
        self.freed = 0  # bytes read from free
        self.row = 0  # rows filled in the open slot

    def record(self, state, residual):
        slot = self.sent % len(self.ring)
        if not self.row:
            if self.free is not None and self.sent - self.freed >= len(self.ring):
                if not os.read(self.free, 1):
                    raise EOFError("the certifying process closed its pipe")
                self.freed += 1
            last = self.last
            np.concatenate((last.x, last.z, last.y),
                           out=_ring_fields(self.ring[slot, 0], last.z.size)[0])
        self.row += 1
        np.concatenate((state.x, state.z, state.y, state.Ax),
                       out=self.vectors[slot, self.row])
        self.residuals[slot, self.row] = residual
        self.last = state
        if self.row == BLOCK:
            self.flush()

    def behind(self):
        """Whether the certifier holds every slot but the open one, counting
        the bytes ``free`` holds without blocking; never without ``free``."""
        if self.free is None:
            return False
        if select.select([self.free], [], [], 0)[0]:
            self.freed += len(os.read(self.free, len(self.ring)))
        return self.sent - self.freed >= len(self.ring) - 1

    def flush(self):
        if self.row:
            slot = self.sent % len(self.ring)
            if self.behind():
                # one that raises leaves the slot unflagged: certify raises it
                with contextlib.suppress(Exception):
                    self.fill(slot, self.row)
            self.deliver(slot, self.row)
            self.sent += 1
            self.row = 0


def _solve_forked(solve, certifier):
    """``run(*solve, force=True)`` in a forked child, its iterates certified
    here as they arrive.

    The child records into ``certifier.ring``, three slots of ``BLOCK + 1``
    rows of ``n + 3 m + 4`` floats (6.4 KB at n = 200 for tv1d), fills a
    slot's own-row columns when this process holds the other two, reports
    each filled slot as ``("rows", slot, count)``, then ``("end",)``, or
    ``("raise", exc)`` after the rows recorded before ``exc``, and leaves by
    ``os._exit`` on every path, so it flushes none of this process's
    buffers. This process certifies each slot in place, frees it, and
    re-raises the child's exception. On its own exception it kills the
    child; on every path it reaps it."""
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
            channel = os.fdopen(out, "wb")

            def report(*message):
                pickle.dump(message, channel)
                channel.flush()

            writer = _RingWriter(certifier.ring, solve[1],  # run's init
                                 lambda slot, count: report("rows", slot, count),
                                 free, certifier.fill)
            try:
                run(*solve, force=True, recorder=writer)
                message = ("end",)
            except BaseException as exc:  # the parent raises it
                message = ("raise", exc)
            writer.flush()
            report(*message)
            code = 0
        finally:
            os._exit(code)
    os.close(out)
    os.close(free)
    status = None
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
                    return
                if kind == "raise":
                    raise got[0]
                certifier.certify(*got)
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


# A certified slot, iterations start + 1 .. start + b: log rows 0..b (row 0
# held from the block before), (x, z, y) rows 0..b end to end (row 0 the
# iterate before), prev and cur (x, z, y) of rows 0..b-1 and 1..b apart, and
# ||A x_k - z_k|| of rows 1..b
_Block = namedtuple("_Block", "start table iterates prev cur residuals")


class _KktFold:
    """``kkt``: the run's final KKT residual, its last row's ``kkt`` cell."""

    live, columns, held = True, (), ()
    column, last = _COLUMN["kkt"], math.inf  # inf without iterations

    def step(self, block):
        self.last = block.table[-1, self.column]

    def verdict(self, residuals, rate_slope):
        final = float(self.last)
        return ({"kkt": (final < CHECK_TOLERANCES["kkt"], f"final_kkt={final:.3e}")},
                {"final_kkt": final if len(residuals) else None})


class _DualIdentityFold:
    """``dual_identity``: ``residual_primal`` against ``||y_k - y_{k-1}|| / c``."""

    live, columns, held = True, (), ()

    def __init__(self, c):
        self.c, self.max_dev = c, 0.0

    def step(self, block):
        dev = diagnostics.dual_identity_deviation(block.prev[2], block.cur[2],
                                                  block.residuals, self.c)
        self.max_dev = np.maximum(self.max_dev, dev)  # a NaN stays NaN

    def verdict(self, residuals, rate_slope):
        dev = float(self.max_dev)
        return ({"dual_identity": (dev <= CHECK_TOLERANCES["dual_identity"],
                                   f"max_dev={dev:.3e}")}, {})


class _UvFold:
    """``v_inequality``, ``v_monotone``, ``feasibility_rate``: the u/v energies."""

    columns, held = ("u_k", "v_k", "v_slack"), ("v_slack",)
    u, v, slack = _COLUMN["u_k"], _COLUMN["v_k"], _COLUMN["v_slack"]

    def __init__(self, problem, sched1, sched2, saddle, report, K):
        m1, m2 = sched1.metric(0), sched2.metric(0)
        # a zero smooth term and one (M1, M2) pair for the whole run
        self.live = saddle is not None and K > 0 and report.h_is_zero and all(
            sched1.metric(k) is m1 and sched2.metric(k) is m2 for k in range(1, K)
        )
        self.problem, self.saddle, self.m1, self.m2 = problem, saddle, m1, m2
        # rows 1..b: the block's ||z_k - z_{k-1}||^2; row 0: the sum of those before
        self.dz_sq = np.zeros(BLOCK + 1)
        self.min_v_slacks = (math.inf, math.inf)  # at c and uncorrected
        self.first_rise = None  # the first k with v_k > v_{k-1} + tol

    def step(self, block):
        start, table = block.start, block.table
        dz_sq = self.dz_sq[: len(table)]
        table[1:, self.u], table[1:, self.v], dz_sq[1:] = diagnostics.uv_step(
            self.problem, self.saddle, self.m1, self.m2, block.prev, block.cur)
        # rows first..b, with the held row 0; inequality_v_check reads no dz_sq[0]
        first = 0 if start else 1
        u, v = table[first:, self.u], table[first:, self.v]
        if not start:
            self.u1 = u[0]
        # row 0 at c, row 1 the stronger, uncorrected inequality (c = 0)
        slacks = diagnostics.inequality_v_check(u, v, dz_sq[first:],
                                                np.array([[self.problem.c], [0.0]]))
        table[first:-1, self.slack] = slacks[0]
        if len(u) > 1:  # np.min, as np.minimum, keeps a NaN
            self.min_v_slacks = tuple(np.minimum(self.min_v_slacks, slacks.min(1)))
        ok, rise = diagnostics.v_monotone_check(v, CHECK_TOLERANCES["v_monotone"])
        if not ok and self.first_rise is None:
            self.first_rise = rise + start + first - 1
        # one add per step in iteration order: the bits of np.cumsum
        dz_sq[0] = np.cumsum(dz_sq)[-1]

    def verdict(self, residuals, rate_slope):
        if not self.live:
            return ({
                "v_inequality": (False, "not evaluable: u/v energies unavailable "
                                 "(need zero smooth term, constant metrics, and a "
                                 "saddle point)"),
                "v_monotone": (False, "not evaluable: v energy unavailable"),
                "feasibility_rate": (False, "not evaluable: u energy unavailable"),
            }, {"min_v_slack": None, "findings": {"uncorrected_v_min_slack": None}})
        min_v_slack = uncorrected_min = None
        inequality = (True, "trace too short for slacks")
        if len(residuals) > 1:  # one slack per step k -> k + 1
            # the uncorrected slack is logged as a finding only
            min_v_slack, uncorrected_min = map(float, self.min_v_slacks)
            inequality = (min_v_slack >= CHECK_TOLERANCES["v_inequality"],
                          f"min_slack={min_v_slack:.3e}")
        first = self.first_rise
        # dz_sq[0] holds the in-order sum of every step, all the bound reads
        bounds = diagnostics.feasibility_rate(residuals, self.problem.c, self.u1,
                                              self.dz_sq[:1])
        # a NaN excess fails the check
        worst = float(np.max(residuals[1:] - bounds, initial=0.0))
        return ({
            "v_inequality": inequality,
            "v_monotone": (first is None, "nonincreasing" if first is None
                           else f"first violation at k={first}"),
            "feasibility_rate": (worst <= CHECK_TOLERANCES["feasibility_rate"],
                                 f"max_excess={worst:.3e}, slope={rate_slope}"),
        }, {"min_v_slack": min_v_slack,
            "findings": {"uncorrected_v_min_slack": uncorrected_min}})


class _GapFold:
    """``gap_bound``: the ergodic means' gap against ``gamma / k`` at each probe."""

    columns, held = ("lagrangian_at_probe", "gap", "gap_bound"), ()
    gap, bound = _COLUMN["gap"], _COLUMN["gap_bound"]

    def __init__(self, cfg, problem, init, sched1, sched2, saddle, report):
        self.problem, self.iters, self.ergodic_ok = problem, cfg.iters, report.ergodic_ok
        # judged only under the ergodic hypotheses; its columns are logged regardless
        self.live = saddle is not None and cfg.iters > 0
        self.min_slack = math.inf if self.live else None
        if not self.live:
            return
        n, m = problem.n, problem.m
        # Kahan sum over (x, z, y) end to end: entry by entry, as three sums
        self.sum, self.comp = np.zeros(n + 2 * m), np.zeros(n + 2 * m)
        m1, m2 = sched1.metric(0), sched2.metric(0)
        # the gap bound is per-probe: probe 0 is the saddle, checked every
        # iteration, and ten probes sampled around it (seeded) are checked
        # every 10th and at the last. A probe is fixed, so its gamma and
        # Lagrangian terms are computed once, by 1-D calls as it is drawn;
        # only its y, gamma and Lagrangian terms are kept, one row per probe
        self.probes = probe_y, gammas, values, residuals = (
            np.empty((11, m)), np.empty(11), np.empty(11), np.empty((11, m)))
        probes = diagnostics.ball_probes(saddle, 10, seed=cfg.seed)
        for i, (x, z, y) in enumerate(itertools.chain([saddle], probes)):
            Ax = problem.A.apply(x)
            probe_y[i] = y
            gammas[i] = diagnostics.gamma(problem, init, m1, m2, (x, z, y), Ax)
            values[i], residuals[i] = diagnostics.lagrangian_terms(problem, x, z, Ax)

    def step(self, block):
        # nothing else reads rows 1..b: each becomes its ergodic mean by a
        # Kahan step, the new sum written into comp's buffer, then swapped
        start, means = block.start, block.iterates[1:]
        for k, term in enumerate(means, start + 1):
            term -= self.comp
            total = np.add(self.sum, term, out=self.comp)
            comp = np.subtract(total, self.sum, out=self.sum)
            comp -= term
            self.sum, self.comp = total, comp
            np.divide(total, k, out=term)
        ks = np.arange(start + 1, start + len(means) + 1)
        self.gaps(block.table[1:], ks, means)
        if ks[-1] == self.iters:  # the run's last block: no step reads them again
            del self.sum, self.comp, self.probes

    def gaps(self, rows, ks, means):
        """The gap columns of ``rows`` (iterations ``ks``) and their slacks,
        from the rows of ``(x_bar, z_bar, y_bar)`` end to end in ``means``."""
        problem, n, m = self.problem, self.problem.n, self.problem.m
        x_bar = means[:, :n]
        # an identity map's product is x_bar itself, as the solver's step takes it
        average = diagnostics.lagrangian_terms(
            problem, x_bar, means[:, n : n + m], x_bar if problem.A.is_identity else None)
        y_bar = means[:, n + m :]
        probe_y, gammas, values, residuals = self.probes
        cert = diagnostics.gap_certificate(
            diagnostics.lagrangian_at(average, probe_y[0]),
            diagnostics.lagrangian_at((values[0], residuals[0]), y_bar), gammas[0], ks)
        rows[:, self.gap], rows[:, self.bound] = cert.gap, cert.bound
        slacks = [cert.slack]
        rounds = (ks % 10 == 0) | (ks == self.iters)
        if rounds.any():
            value, residual = average
            sampled = diagnostics.gap_certificate(
                diagnostics.lagrangian_at((value[rounds, None], residual[rounds, None]),
                                          probe_y[1:]),
                diagnostics.lagrangian_at((values[1:], residuals[1:]),
                                          y_bar[rounds, None]),
                gammas[1:], ks[rounds, None])
            slacks.append(sampled.slack.ravel())
        # fmin skips a NaN slack (two infinite Lagrangians), as min() does
        least = float(np.fmin.reduce(np.concatenate(slacks)))
        self.min_slack = min(self.min_slack, least)

    def verdict(self, residuals, rate_slope):
        # a requested gap_bound always has a saddle: no minimum means K == 0
        verdict = (True, "no iterations")
        if not self.ergodic_ok:
            verdict = (False, "not evaluable: ergodic hypotheses fail")
        elif self.min_slack is not None:
            verdict = (self.min_slack >= CHECK_TOLERANCES["gap_bound"],
                       f"min_slack={self.min_slack:.3e}")
        return {"gap_bound": verdict}, {"min_gap_slack": self.min_slack}


class _Certifier:
    """The runner's recorder: certifies the iterates :func:`run` hands over,
    :data:`BLOCK` at a time, and appends their rows to the open ``log``.

    It keeps what the checks share: the :func:`_ring` of ``slots`` slots a
    :class:`_RingWriter` fills, a table of ``BLOCK + 1`` log rows (row 0 the
    row held from the block before), the ``residual_primal`` series, the
    own-row columns of :meth:`fill`, the row formats and the log; ``done``
    counts the rows certified, the run's length. Each check is a fold, set
    up once. A ``live`` fold's ``step`` takes each certified :data:`_Block`
    in order, writes its ``columns`` and folds its running values; the
    ``columns`` of a fold that is not live are empty in every row, its
    ``held`` columns in the run's last row. Its ``verdict(residuals,
    rate_slope)`` returns ``({check: (passed, detail)}, {certificate:
    value})``. Each value keeps the bits of certifying its iterate alone.
    :meth:`result` frees the ring and the table, then returns
    ``(certificates, checks)`` for the checks ``cfg.checks`` requests, in its
    order. ``saddle`` is None when no requested check needs one.
    """

    def __init__(self, cfg, problem, init, sched1, sched2, saddle, report, log, slots=1):
        n, m, K = problem.n, problem.m, cfg.iters
        self.cfg, self.problem, self.saddle, self.log = cfg, problem, saddle, log
        columns = CSV_COLUMNS[1:]
        if cfg.log_vectors:
            dims = (("x", n), ("z", m), ("y", m))
            columns += [f"{name}_{i}" for name, dim in dims for i in range(dim)]
        # the ring's own-row columns, in its order
        self.own = [_COLUMN[name]
                    for name in ("primal_objective", "kkt", "lagrangian_at_probe")]
        self.table = np.empty((BLOCK + 1, len(columns)))
        self.residuals = np.empty(K)  # ||A x_k - z_k||
        self.done = 0  # rows certified
        self.ring = _ring(slots, n, m)
        self.folds = [
            _KktFold(),
            _DualIdentityFold(problem.c),
            _UvFold(problem, sched1, sched2, saddle, report, K),
            # last: it rewrites rows 1..b into their ergodic means
            _GapFold(cfg, problem, init, sched1, sched2, saddle, report),
        ]
        self.steps = [fold.step for fold in self.folds if fold.live]
        # which cells are empty, by structure: every row's and the last row's
        blank = {name for fold in self.folds if not fold.live for name in fold.columns}
        held = {name for fold in self.folds for name in fold.held}
        self.formats = [([j for j, name in enumerate(columns) if name not in empty],
                         "%d," + ",".join("" if name in empty else "%.17g"
                                          for name in columns) + "\n")
                        for empty in (blank, blank | held)]
        log.write(",".join(["k", *columns]) + "\n")

    def fill(self, slot, count):
        """Fill, then flag, the own-row columns of rows ``1..count`` of ``slot``."""
        problem, n, m = self.problem, self.problem.n, self.problem.m
        iterates, Ax, _, columns = _ring_fields(self.ring[slot, : count + 1], m)
        x, z, y = iterates[1:, :n], iterates[1:, n : n + m], iterates[1:, n + m :]
        fh, g_ax, columns[1:, 1] = diagnostics.objective_and_kkt(problem, x, y, Ax[1:])
        columns[1:, 0] = fh + g_ax
        if self.saddle is not None:
            columns[1:, 2] = diagnostics.lagrangian_at(
                diagnostics.lagrangian_terms(problem, x, z, Ax[1:], fh), self.saddle[2]
            )
        columns[0, 0] = 1.0

    def certify(self, slot, count):
        """Certify rows ``1..count`` of ring slot ``slot`` and write no other."""
        b, start, n, m = count, self.done, self.problem.n, self.problem.m
        table = self.table[: b + 1]  # row j is iteration start + j
        # rows 0..b of the slot: row 0 is the iterate before the block
        iterates, _, residual, columns = _ring_fields(self.ring[slot, : b + 1], m)
        residuals = self.residuals[start : start + b]
        table[1:, _COLUMN["residual_primal"]] = residuals[:] = residual[1:]
        if not columns[0, 0]:
            self.fill(slot, b)
        columns[0, 0] = 0.0  # unflagged for the slot's next block
        table[1:, self.own] = columns[1:]
        if self.cfg.log_vectors:
            table[1:, len(_COLUMN) :] = iterates[1:]
        xs, zs, ys = iterates[:, :n], iterates[:, n : n + m], iterates[:, n + m :]
        block = _Block(start, table, iterates, (xs[:-1], zs[:-1], ys[:-1]),
                       (xs[1:], zs[1:], ys[1:]), residuals)
        for step in self.steps:
            step(block)
        # the held row 0 is written with this block, its held columns now known
        first = 0 if start else 1
        write_iterate_log(self.log, start + first, table[first:b], *self.formats[0])
        table[0] = table[b]
        self.done += b

    def result(self):
        K = self.done
        if K:  # the held last row, its held columns empty
            write_iterate_log(self.log, K, self.table[:1], *self.formats[1])
        # the block buffers are freed before the end-of-run checks
        del self.ring, self.table
        residuals = self.residuals[:K]
        start = max(2, min(100, K // 2)) if K else 2
        slope = diagnostics.loglog_slope(range(start, K + 1), residuals[start - 1 :])
        certificates = {"rate_slope": None if math.isinf(slope) else slope}
        verdicts = {}
        for fold in self.folds:
            checks, fields = fold.verdict(residuals, certificates["rate_slope"])
            verdicts.update(checks)
            certificates.update(fields)
        return certificates, {name: verdicts[name] for name in self.cfg.checks}
