"""Measurements of one workload, each checked for correctness.

Everything goes through vmadmm's public API or its in-process CLI and is
looked up by module attribute at call time, so the tracer's wrappers see the
calls. Import this only after :func:`environment.pin_blas_threads` and
:func:`environment.load_package`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import tempfile
import time
import traceback
import tracemalloc

import numpy as np
import scipy.linalg

from vmadmm import cli, diagnostics, experiments, problems, solver

import tracer as tr
from environment import ROOT
from workloads import PANEL, panel_seeds

OUT = ROOT / ".bench_build" / "perfbench"
KKT_TOL = 1e-8  # time-to-KKT stopping tolerance
KKT_INTERVAL = 25
TTK_MAX_ITERS = 20000
MIN_REPS = 3
MAX_REPS = 50

# Host-speed probe. On the shared host this benchmark was built on, whole
# runs executed the same code up to 1.7x faster or slower than others, so
# raw times spread by 35-70% between runs. Every timed sample is bracketed
# by a fixed kernel like the solver's work: small-vector numpy steps in a
# Python loop, as on the LINEARIZED path, and dense Cholesky factors, as on
# the QUADRATIC one. A sample is reported as its raw time scaled to a host
# on which the kernel takes PROBE_REFERENCE_S. The raw times stay in the
# run's report.
PROBE_REFERENCE_S = 0.005
_PROBE_SPD = np.full((200, 200), 1.0 / 200) + np.eye(200)


class Ledger:
    """Checked operations: attempted, failed, and why each failure failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.certified_attempted = 0
        self.certified_failed = 0

    def check(self, what, problems_found, certified=False):
        self.attempted += 1
        self.certified_attempted += certified
        if problems_found:
            self.certified_failed += certified
            self.failures.append(f"{what}: {'; '.join(problems_found)}")
        return not problems_found

    def run(self, what, fn, *args, certified=False):
        """Call ``fn``; an exception counts as a failed operation."""
        try:
            return fn(*args)
        except Exception:  # a failing solve is a benchmark result, not a crash
            self.check(what, [traceback.format_exc().strip()], certified)
            return None


def summarize(samples):
    """n, median, a tail and the samples. The tail is p99 from 200 samples
    on, p90 from 20, and the maximum below that."""
    xs = sorted(samples)
    n = len(xs)
    if not xs:
        return {"n": 0}
    out = {"n": n, "median": statistics.median(xs), "samples": xs}
    for q, least in ((99, 200), (90, 20)):
        if n >= least:
            out[f"p{q}"] = xs[math.ceil(q * n / 100) - 1]
            break
    else:
        out["max"] = xs[-1]
    return out


def _problem_params(cfg):
    params = {k: v for k, v in cfg["problem"].items() if k != "name"}
    params["c"] = cfg["c"]
    return params


def setup(cfg):
    """Fresh instance: build, both schedules and validation, as the runner does.

    Returns ``(seconds, problem, sched1, sched2, permits_run)``.
    """
    t0 = time.perf_counter()
    problem, _ = problems.build_problem(cfg["problem"]["name"], **_problem_params(cfg))
    sched1 = experiments.schedule_from_spec(cfg["metric1"], problem.n, problem)
    sched2 = experiments.schedule_from_spec(cfg["metric2"], problem.m, problem)
    report = solver.validate_assumptions(
        problem, sched1, sched2, max(1, min(cfg["iters"], 50)))
    elapsed = time.perf_counter() - t0
    return elapsed, problem, sched1, sched2, report.permits_run


def time_to_kkt(problem, sched1, sched2):
    """Library quick-start solve from zeros to KKT 1e-8; ``(s, iters, kkt)``."""
    stop = solver.StoppingRule(max_iters=TTK_MAX_ITERS, kkt_tol=KKT_TOL,
                               kkt_interval=KKT_INTERVAL)
    init = solver.initial_state(problem)
    t0 = time.perf_counter()
    state, _ = solver.run(problem, init, sched1, sched2, stop)
    elapsed = time.perf_counter() - t0
    return elapsed, state.k, diagnostics.kkt_residual(problem, state.x, state.y)


def solve_us_per_iter(problem, sched1, sched2, iters):
    """Plain ``solver.run`` over ``iters`` iterations; microseconds per iteration.

    ``run`` raises on a non-finite iterate, so a return is a completed solve.
    """
    init = solver.initial_state(problem)
    stop = solver.StoppingRule(max_iters=iters)
    t0 = time.perf_counter()
    solver.run(problem, init, sched1, sched2, stop, force=True)
    return (time.perf_counter() - t0) / iters * 1e6


def check_solve_outputs(code, out, cfg):
    """Why a certified solve failed; empty when it passed."""
    found = []
    if code != 0:
        found.append(f"exit code {code}")
    try:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "log.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    except (OSError, ValueError) as exc:
        return found + [f"unreadable output: {exc}"]
    if rows != cfg["iters"]:
        found.append(f"log.csv has {rows} rows, expected {cfg['iters']}")
    checks = summary.get("checks", {})
    for name in cfg["checks"]:
        if not checks.get(name, {}).get("passed"):
            found.append(f"check {name}: {checks.get(name, 'missing')}")
    tol = experiments.CHECK_TOLERANCES["kkt"]
    final = summary.get("final_kkt")
    if final is None or not final < tol:
        found.append(f"final_kkt {final} not below {tol:g}")
    return found


def certified_solve(cfg):
    """One in-process ``vmadmm solve --config ... --out ...``.

    Returns ``(seconds, failures, bytes_written)``; the outputs are deleted.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="solve-", dir=OUT)
    try:
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w", encoding="ascii") as fh:
            json.dump(cfg, fh)
        out = os.path.join(workdir, "out")
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["solve", "--config", cfg_path, "--out", out])
        elapsed = time.perf_counter() - t0
        found = check_solve_outputs(code, out, cfg)
        written = sum(entry.stat().st_size for entry in os.scandir(out)
                      if entry.is_file()) if os.path.isdir(out) else 0
        return elapsed, found, written
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def peak_traced_mb(cfg):
    """``tracemalloc`` peak over one certified solve; ``(MB, failures)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, found, _ = certified_solve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, found


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------


def probe():
    """Host speed now: the fastest of three runs of the fixed kernel, seconds."""
    best = math.inf
    for _ in range(3):
        x = np.linspace(0.0, 1.0, 200)
        y = np.zeros(199)
        t0 = time.perf_counter()
        for _ in range(200):
            d = np.diff(x)
            y = np.clip(y + 0.5 * d, -0.1, 0.1)
            w = np.empty(200)
            w[0], w[1:-1], w[-1] = -y[0], y[:-1] - y[1:], y[-1]
            x = x - 0.1 * w
            float(np.linalg.norm(d))
        for _ in range(4):
            scipy.linalg.cho_factor(_PROBE_SPD)
        best = min(best, time.perf_counter() - t0)
    return best


class Samples:
    """Timed samples of one metric: raw seconds and the probe time around each."""

    def __init__(self):
        self.raw = []
        self.probes = []

    def add(self, raw, probe_s):
        self.raw.append(raw)
        self.probes.append(probe_s)

    def scaled(self):
        return [r * PROBE_REFERENCE_S / p for r, p in zip(self.raw, self.probes)]


def timed(what, ledger, fn, *args, certified=False):
    """``(result, probe seconds)`` of ``fn`` run between two probes, or None
    when ``fn`` raised."""
    before = probe()
    got = ledger.run(what, fn, *args, certified=certified)
    if got is None:
        return None
    return got, 0.5 * (before + probe())


def schedule(**kinds):
    """Task kinds spread evenly over one run.

    ``kinds`` maps a kind to ``(count, first, last)``: its tasks sit evenly
    between the fractions ``first`` and ``last`` of the run.
    """
    slots = [(first + (i + 0.5) / n * (last - first), kind)
             for kind, (n, first, last) in kinds.items() for i in range(n)]
    return [kind for _, kind in sorted(slots)]


def measure(workload, seed, seconds, ledger):
    """End-to-end samples of one workload; returns ``(metrics, details)``.

    Setups fill the first half of the run and time-to-KKT passes the second;
    certified solves and per-iteration runs are spread over all of it. After
    this fixed work, certified solves and per-iteration runs repeat until
    ``seconds`` have passed.
    """
    cfg = workload.config(seed)
    # The memory pass is also the warm-up: the first solve in a process pays
    # one-time costs, such as lazy imports and cold caches.
    peak_mb = None
    got = ledger.run("peak pass", peak_traced_mb, cfg, certified=True)
    if got is not None and ledger.check("peak pass", got[1], certified=True):
        peak_mb = got[0]

    setups, solves, per_iter, ttk = Samples(), Samples(), Samples(), Samples()
    ttk_passes, ttk_iters = [], []
    pending = iter(panel_seeds(seed, PANEL))
    built = []  # (data seed, problem, sched1, sched2); the seed's own first

    def setup_one():
        s = next(pending)
        what = f"instance seed {s} setup"
        got = timed(what, ledger, setup, workload.config(s))
        if got is None:
            return
        (elapsed, problem, sched1, sched2, permits), probe_s = got
        if ledger.check(what, [] if permits else
                        ["validate_assumptions rejects the schedules"]):
            setups.add(elapsed, probe_s)
            built.append((s, problem, sched1, sched2))

    def ttk_pass():
        # One sample: the mean scaled time per instance over the whole panel.
        if not ledger.check("time-to-KKT pass",
                            [] if built else ["no instance was built"]):
            return
        runs, iters = Samples(), []
        for s, problem, sched1, sched2 in built:
            what = f"instance seed {s} time-to-KKT"
            got = timed(what, ledger, time_to_kkt, problem, sched1, sched2)
            if got is None:
                return
            (elapsed, k, kkt), probe_s = got
            if not ledger.check(what, [] if kkt <= KKT_TOL else
                                [f"recomputed KKT {kkt:.3e} after {k} iterations"]):
                return
            runs.add(elapsed, probe_s)
            iters.append(k)
        found = [] if not ttk_iters or iters == ttk_iters[0] else \
            [f"iterations {iters}, first pass {ttk_iters[0]}"]
        if ledger.check("time-to-KKT pass", found):
            ttk.add(statistics.fmean(runs.raw), statistics.fmean(runs.probes))
            ttk_passes.append(statistics.fmean(runs.scaled()))
            ttk_iters.append(iters)

    def certified():
        got = timed("certified solve", ledger, certified_solve, cfg, certified=True)
        if got is not None and ledger.check("certified solve", got[0][1],
                                            certified=True):
            solves.add(got[0][0], got[1])

    def per_iteration():
        if not built or built[0][0] != seed:
            return
        got = timed("solve_us_per_iter", ledger, solve_us_per_iter,
                    *built[0][1:], cfg["iters"])
        if got is not None and ledger.check("solve_us_per_iter", []):
            per_iter.add(*got)

    tasks = {"setup": setup_one, "ttk": ttk_pass, "certified": certified,
             "per_iter": per_iteration}
    start = time.perf_counter()
    for kind in schedule(setup=(PANEL, 0.0, 0.5),
                         ttk=(workload.passes, 0.5, 1.0),
                         certified=(workload.certified, 0.0, 1.0),
                         per_iter=(workload.per_iter, 0.0, 1.0)):
        tasks[kind]()
    while len(solves.raw) < MAX_REPS and time.perf_counter() - start < seconds:
        certified()
        per_iteration()

    timings = {"setup_s": ("s", setups.scaled()),
               "certified_solve_s": ("s", solves.scaled()),
               "solve_us_per_iter": ("us", per_iter.scaled()),
               "time_to_kkt_s": ("s", ttk_passes)}
    metrics = {name: {"value": statistics.median(xs), "unit": unit}
               for name, (unit, xs) in timings.items() if xs}
    if ttk_iters:
        metrics["iters_to_kkt"] = {"value": statistics.fmean(ttk_iters[0]),
                                   "unit": "iterations"}
    if peak_mb is not None:
        metrics["peak_traced_mb"] = {"value": peak_mb, "unit": "MB"}
    details = {name: summarize(xs) for name, (_, xs) in timings.items()}
    details["iters_to_kkt"] = summarize(ttk_iters[0] if ttk_iters else [])
    for name, raw in (("setup_s", setups), ("certified_solve_s", solves),
                      ("solve_us_per_iter", per_iter), ("time_to_kkt_s", ttk)):
        details[f"{name}.raw"] = summarize(raw.raw)
        details[f"{name}.probe_s"] = summarize(raw.probes)
    return metrics, details


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def trace_nbytes(result):
    """Bytes held by the arrays of the trace ``solver.run`` returned, or None."""
    trace = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    if trace is None or not hasattr(trace, "__dict__"):
        return None
    total = 0
    for value in vars(trace).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += sum(v.nbytes if isinstance(v, np.ndarray) else 8 for v in value)
    return total


OBSERVERS = {
    "solver.run": trace_nbytes,
    "problems.oracle": lambda result: getattr(result, "iterations", None),
}

# metric -> (unit, hooks it needs)
LAYER_METRICS = {
    "problems.build_problem.s": ("s", ["problems.build_problem"]),
    "linops.operator_norm.s": ("s", ["linops.operator_norm"]),
    "linops.operator_norm.matvecs": ("count", ["linops.operator_norm", "matvec"]),
    "linops.eig.s": ("s", ["linops.eig"]),
    "solver.validate_assumptions.s": ("s", ["solver.validate_assumptions"]),
    "solver.run.s": ("s", ["solver.run"]),
    "solver.run.self_s": ("s", ["solver.run"]),
    "solver.x_update.s": ("s", ["solver.x_update"]),
    "solver.z_update.s": ("s", ["solver.z_update"]),
    "solver.y_update.s": ("s", ["solver.y_update"]),
    "linops.matvecs": ("count", ["solver.run", "matvec"]),
    "solver.factorizations": ("count", ["solver.run", "factorization"]),
    "functions.prox.s": ("s", ["functions.prox"]),
    "functions.prox.calls": ("count", ["functions.prox"]),
    "functions.quadratic_factor_hit_ratio": (
        "ratio", ["functions.Quadratic.prox", "factorization"]),
    "functions.distance.s": ("s", ["functions.distance"]),
    "functions.distance.calls": ("count", ["functions.distance"]),
    "diagnostics.kkt_residual.s": ("s", ["diagnostics.kkt_residual"]),
    "diagnostics.kkt_residual.calls": ("count", ["diagnostics.kkt_residual"]),
    "diagnostics.gap_certificate.s": ("s", ["diagnostics.gap_certificate"]),
    "diagnostics.gap_certificate.calls": ("count", ["diagnostics.gap_certificate"]),
    "diagnostics.uv_energies.s": ("s", ["diagnostics.uv_energies"]),
    "experiments.run_experiment.self_s": ("s", ["experiments.run_experiment"]),
    "solver.trace_bytes": ("bytes", ["solver.run"]),
    "problems.oracle.s": ("s", ["problems.oracle"]),
    "problems.oracle.iters": ("iterations", ["problems.oracle"]),
    "experiments.write.s": ("s", ["experiments.write"]),
    "experiments.bytes_written": ("bytes", []),
    "tracing.overhead_ratio": ("ratio", []),
}


def layer_values(spans, t, bytes_written):
    """Per-layer values of one traced certified solve (spans of that solve)."""
    inclusive, self_time = tr.layer_times(spans)
    calls = {}
    for span in spans:
        calls[span[2]] = calls.get(span[2], 0) + 1
    quad_calls = t.calls["functions.Quadratic.prox"]
    quad_misses = t.counts["factorization", "functions.Quadratic.prox"]
    trace_bytes = [b for b in t.results["solver.run"] if b is not None]
    oracle_iters = [i for i in t.results["problems.oracle"] if i is not None]
    values = {
        "linops.operator_norm.matvecs": t.counts["matvec", "linops.operator_norm"],
        "solver.run.self_s": self_time["solver.run"],
        "linops.matvecs": t.counts["matvec", "solver.run"],
        "solver.factorizations": t.counts["factorization", "solver.run"],
        "functions.prox.calls": calls.get("functions.prox", 0),
        # 1 when nothing called Quadratic.prox: no call needed a new factor.
        "functions.quadratic_factor_hit_ratio":
            1.0 - quad_misses / quad_calls if quad_calls else 1.0,
        "functions.distance.calls": calls.get("functions.distance", 0),
        "diagnostics.kkt_residual.calls": calls.get("diagnostics.kkt_residual", 0),
        "diagnostics.gap_certificate.calls":
            calls.get("diagnostics.gap_certificate", 0),
        "experiments.run_experiment.self_s":
            self_time["experiments.run_experiment"],
        "problems.oracle.iters": sum(oracle_iters),
        "experiments.bytes_written": bytes_written,
    }
    if trace_bytes or not calls.get("solver.run"):
        values["solver.trace_bytes"] = sum(trace_bytes)
    for name in LAYER_METRICS:
        if name.endswith(".s"):
            values[name] = inclusive[name[:-2]]
    return values


def traced_solve(cfg, t):
    """A certified solve with the hooks installed; ``(s, failures, values)``."""
    first = len(t.spans)
    t.reset_counts()
    uninstall = tr.install(t)
    try:
        elapsed, found, written = certified_solve(cfg)
    finally:
        uninstall()
    return elapsed, found, layer_values(t.spans[first:], t, written)


def measure_traced(workload, seed, seconds, ledger, spans_path=None):
    """Per-layer values, medians over traced certified solves.

    Traced and untraced solves alternate, so ``tracing.overhead_ratio`` compares
    like with like. Returns ``(metrics, details, absent)``.
    """
    cfg = workload.config(seed)
    got = ledger.run("warm-up solve", certified_solve, cfg, certified=True)
    if got is not None:
        ledger.check("warm-up solve", got[1], certified=True)

    t = tr.Tracer(observers=OBSERVERS)
    plain, traced, per_rep = [], [], []
    start = time.perf_counter()
    reps = 0
    while reps < MAX_REPS and (reps < MIN_REPS or time.perf_counter() - start < seconds):
        reps += 1
        got = ledger.run("certified solve", certified_solve, cfg, certified=True)
        if got is not None and ledger.check("certified solve", got[1], certified=True):
            plain.append(got[0])
        got = ledger.run("traced certified solve", traced_solve, cfg, t,
                         certified=True)
        if got is not None and ledger.check("traced certified solve", got[1],
                                            certified=True):
            traced.append(got[0])
            per_rep.append(got[2])

    absent = {}
    for name, (_, needs) in LAYER_METRICS.items():
        lost = [h for h in needs if h not in t.resolved]
        if lost:
            absent[name] = "hook missing: " + ", ".join(lost)
    if per_rep and "solver.trace_bytes" not in per_rep[0]:
        absent.setdefault("solver.trace_bytes", "solver.run returned no trace arrays")
    metrics, details = {}, {}
    for name, (unit, _) in LAYER_METRICS.items():
        xs = [rep[name] for rep in per_rep if name in rep]
        if xs and name not in absent:
            metrics[name] = {"value": statistics.median(xs), "unit": unit}
            details[name] = summarize(xs)
    if plain and traced:
        ratio = statistics.median(traced) / statistics.median(plain)
        metrics["tracing.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        details["certified_solve_s.untraced"] = summarize(plain)
        details["certified_solve_s.traced"] = summarize(traced)
    if spans_path is not None:
        tr.write_spans(spans_path, t.spans)
    return metrics, details, {"absent": absent, "missing_hooks": t.missing}
