"""Byte audit: ``vmadmm solve --force`` and ``vmadmm check`` on two source
trees, outputs compared, or on one tree against recorded digests.

    python3 tools/byte_audit.py OLD_SRC NEW_SRC
    python3 tools/byte_audit.py --digests SRC
    python3 tools/byte_audit.py --record SRC

OLD_SRC and NEW_SRC are the ``src/`` directories of two checkouts. Each tree
solves every config in :func:`configs` in one subprocess, with that tree first
on ``PYTHONPATH`` and BLAS pinned to one thread, writing to the same temporary
paths so that echoed output paths agree. It does so twice: once as the host
runs it, where vmadmm solves in a forked process beside the certifier when
two CPUs are usable, and once with the subprocess pinned to one CPU by
``os.sched_setaffinity``, where vmadmm solves in its own process (without
``sched_setaffinity`` vmadmm always does, and the second pass repeats the
first). A config differs when either pass differs, and each key or line
that differs on one CPU says so. The four runs over the 74 configs take
about 11 s on a 2-core x86-64 host. Per pass and config the audit compares
``log.csv``, ``summary.json``, the exit code and the lines echoed to stdout
and stderr; for a config that wrote a log, it also runs ``vmadmm check`` on
that log against ``{"kkt": 0.0, "c": <the config's c>}`` and compares its
exit code, stdout and stderr. It prints one line per config and exits 1 on
any difference, 0 when every config is identical. Under a config that
differs it also names the ``log.csv`` columns that differ, each with the
number of rows in which it does, and the ``summary.json`` keys that differ,
nested keys joined by dots. In stdout and stderr each
tree's own ``src/`` path, which numpy's warning headers print, reads as
``<src>``, so two checkouts of the same code agree; a warning whose line
number moved still differs. The temporary directory the outputs are
written to reads as ``<work>``, so digests recorded in one run match
another's.

The two passes are meant to give the same bits, so :data:`DIGESTS` holds
one set of digests per config. ``--digests SRC`` runs one tree, both passes,
and compares the SHA-256 digest of each output above, from either pass, with
that set, printing the same lines (no column or key names: a digest has
none). It also names each entry of the recorded environment (Python, numpy,
scipy, the BLAS each bundles, platform) that differs from this one, and the
command that re-records. ``--record SRC`` runs one tree, both passes, and
writes :data:`DIGESTS` from it; it refuses, naming what differs and writing
nothing, when the passes disagree. A change that moves bits on purpose
re-records it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tools", "byte_digests.json")
RECORD = "python3 tools/byte_audit.py --record SRC"
#: What a config's result holds, in the order a difference is named.
KEYS = ("exit", "stdout", "stderr", "log.csv", "summary.json", "check exit",
        "check stdout", "check stderr")
#: The suffix each pass adds to a key that differs: as the host runs it, on one CPU.
PASSES = ("", " on one CPU")
ALL_CHECKS = ["kkt", "gap_bound", "v_inequality", "v_monotone",
              "feasibility_rate", "dual_identity"]
UV_CHECKS = ["v_inequality", "v_monotone", "feasibility_rate"]
ZERO = {"kind": "constant", "metric": {"kind": "zero"}}


def _metric(mu):
    return {"kind": "constant", "metric": {"kind": "scaled_identity", "mu": mu}}


def toy(**overrides):
    """The toy1d config of ``tests/test_experiments.py`` with overrides."""
    cfg = dict(problem={"name": "toy1d"}, metric1=_metric(1.0),
               metric2=_metric(1.0), c=1.0, iters=200,
               checks=["kkt", "dual_identity"], seed=0)
    cfg.update(overrides)
    return cfg


def configs():
    """``(name, config)`` pairs: the test configs, edge cases, workloads."""
    tv1d_lin = dict(metric1={"kind": "shifted_gram", "tau": 0.19}, metric2=ZERO)
    out = [
        # every config of tests/test_experiments.py
        ("toy-default", toy()),
        ("toy-0-iters-no-checks", toy(iters=0, checks=[])),
        ("toy-300-kkt-vineq-gap", toy(iters=300, checks=["kkt", "v_inequality",
                                                          "gap_bound"])),
        ("toy-500-all-checks", toy(iters=500, checks=ALL_CHECKS)),
        ("toy-decreasing-tau", toy(metric1={"kind": "shifted_gram",
                                            "tau": [0.5, 0.25]},
                                   metric2=ZERO, iters=20, checks=[])),
        ("toy-2-iters-kkt", toy(iters=2, checks=["kkt"])),
        ("tv1d-20-smooth-vineq", toy(problem={"name": "tv1d", "n": 20},
                                     iters=50, checks=["v_inequality"],
                                     **tv1d_lin)),
        ("toy-tau-change-k3-uv", toy(metric1={"kind": "shifted_gram",
                                              "tau": [0.4, 0.4, 0.4, 0.45]},
                                     iters=50, checks=UV_CHECKS)),
        ("toy-20-vmonotone", toy(iters=20, checks=["v_monotone"])),
        ("toy-100-log-vectors", toy(iters=100, checks=[], log_vectors=True)),
        ("tv1d-50-linearized", toy(problem={"name": "tv1d", "n": 50},
                                   iters=5000,
                                   checks=["kkt", "gap_bound", "dual_identity"],
                                   **tv1d_lin)),
        ("toy-300-vineq", toy(iters=300, checks=["v_inequality"])),
        ("toy-geometric-m2", toy(metric2={"kind": "geometric_decay",
                                          "metric": {"kind": "scaled_identity",
                                                     "mu": 1.0},
                                          "rho": 0.9},
                                 iters=100, checks=["kkt"])),
        ("toy-init-saddle", toy(init={"x": [2.0], "z": [2.0], "y": [-1.0]},
                                iters=3, checks=["kkt"], log_vectors=True)),
        ("toy-300-kkt-vectors", toy(iters=300, checks=["kkt"],
                                    log_vectors=True)),
        ("toy-5-no-checks", toy(iters=5, checks=[])),
        ("toy-decreasing-tau-5", toy(metric1={"kind": "shifted_gram",
                                              "tau": [0.5, 0.25]},
                                     metric2=ZERO, iters=5, checks=[])),
        ("toy-2-vectors", toy(iters=2, checks=[], log_vectors=True)),
        ("toy-300-vectors", toy(iters=300, checks=[], log_vectors=True)),
    ]
    # edge cases
    out += [(f"toy-{k}-iters-all-checks", toy(iters=k, checks=ALL_CHECKS))
            for k in (0, 1, 2, 3)]
    out += [
        ("toy-tau-change-k1-all", toy(metric1={"kind": "shifted_gram",
                                               "tau": [0.4, 0.45]},
                                      iters=30, checks=ALL_CHECKS)),
        ("toy-tau-change-k3-all", toy(metric1={"kind": "shifted_gram",
                                               "tau": [0.4, 0.4, 0.4, 0.45]},
                                      iters=30, checks=ALL_CHECKS)),
        ("toy-geometric-m1-all", toy(metric1={"kind": "geometric_decay",
                                              "metric": {"kind": "scaled_identity",
                                                         "mu": 2.0},
                                              "rho": 0.8},
                                     iters=60, checks=ALL_CHECKS)),
        ("toy-init-vectors-all", toy(init={"x": [0.5], "z": [-1.0], "y": [0.25]},
                                     iters=40, checks=ALL_CHECKS,
                                     log_vectors=True)),
        ("tv1d-12-quadratic-diagonal",
         toy(problem={"name": "tv1d", "n": 12},
             metric1={"kind": "constant",
                      "metric": {"kind": "diagonal",
                                 "entries": [0.5 + 0.1 * i for i in range(12)]}},
             metric2=ZERO, iters=400, checks=ALL_CHECKS)),
        ("lasso-g-all", toy(problem={"name": "lasso-split", "n": 8, "rows": 12,
                                     "quadratic_in": "g"},
                            metric2=ZERO, iters=400, checks=ALL_CHECKS)),
        ("lasso-h-all", toy(problem={"name": "lasso-split", "n": 8, "rows": 12,
                                     "quadratic_in": "h"},
                            metric1=_metric(2.0), metric2=ZERO, iters=400,
                            checks=ALL_CHECKS)),
        ("box-qp-10-all", toy(problem={"name": "box-qp", "n": 10},
                              metric1=_metric(5.0), metric2=ZERO, iters=300,
                              checks=ALL_CHECKS)),
    ]
    # error paths around the oracle, which runs before the solve
    out += [
        ("toy-oracle-budget-10", toy(checks=["gap_bound"], oracle_budget=10)),
        ("tv1d-20-geometric-m1-diverges",
         toy(problem={"name": "tv1d", "n": 20},
             metric1={"kind": "geometric_decay",
                      "metric": {"kind": "scaled_identity", "mu": 1.0},
                      "rho": 0.5},
             metric2=ZERO, iters=3000, checks=["kkt", "gap_bound"])),
    ]
    # the prox_diag of L1Norm and SquaredL2, a Huber h, a dense M1 and a
    # decaying M2 on a Quadratic g
    gap_checks = ["kkt", "gap_bound", "dual_identity"]
    tridiagonal = [[1.0 if i == j else 0.1 if abs(i - j) == 1 else 0.0
                    for j in range(12)] for i in range(12)]
    out += [
        ("tv1d-12-diagonal-m2", toy(problem={"name": "tv1d", "n": 12},
                                    metric1=tv1d_lin["metric1"],
                                    metric2={"kind": "constant", "metric": {
                                        "kind": "diagonal",
                                        "entries": [0.2 + 0.05 * i
                                                    for i in range(11)]}},
                                    iters=400, checks=gap_checks)),
        ("toy-diagonal-m2-all", toy(metric2={"kind": "constant", "metric": {
                                        "kind": "diagonal", "entries": [0.5]}},
                                    iters=300, checks=ALL_CHECKS)),
        ("toy-huber-h", toy(problem={"name": "toy1d", "h_kind": "huber",
                                     "h_delta": 0.5},
                            metric1=_metric(2.0), iters=300, checks=gap_checks)),
        ("tv1d-12-quadratic-dense-m1",
         toy(problem={"name": "tv1d", "n": 12},
             metric1={"kind": "constant",
                      "metric": {"kind": "dense", "matrix": tridiagonal}},
             metric2=ZERO, iters=400, checks=gap_checks)),
        ("lasso-g-geometric-m2",
         toy(problem={"name": "lasso-split", "n": 8, "rows": 12,
                      "quadratic_in": "g"},
             metric2={"kind": "geometric_decay",
                      "metric": {"kind": "scaled_identity", "mu": 1.0},
                      "rho": 0.9},
             iters=400, checks=gap_checks)),
    ]
    # the last probe round at a final k off a multiple of 10; box-qp's
    # probes outside the box have infinite Lagrangians
    out += [
        ("box-qp-10-37-gap", toy(problem={"name": "box-qp", "n": 10},
                                 metric1=_metric(5.0), metric2=ZERO, iters=37,
                                 checks=["gap_bound"])),
        ("lasso-g-8-23-gap", toy(problem={"name": "lasso-split", "n": 8,
                                          "rows": 12, "quadratic_in": "g"},
                                 metric2=ZERO, iters=23, checks=["gap_bound"])),
    ]
    # the last rows of the u/v columns, with the iterates logged
    out += [(f"toy-{k}-iters-all-checks-vectors",
             toy(iters=k, checks=ALL_CHECKS, log_vectors=True)) for k in (1, 2)]
    # iteration counts off multiples of the certifier's block of 16 iterates:
    # a partial last block, and at 83 a probe round (k = 80) on the last row
    # of a full one
    out += [
        ("tv1d-20-linearized-83", toy(problem={"name": "tv1d", "n": 20}, iters=83,
                                      checks=gap_checks, **tv1d_lin)),
        ("box-qp-20-83", toy(problem={"name": "box-qp", "n": 20},
                             metric1=_metric(5.0), metric2=ZERO, iters=83,
                             checks=gap_checks)),
        ("lasso-g-8-35-all", toy(problem={"name": "lasso-split", "n": 8,
                                          "rows": 12, "quadratic_in": "g"},
                                 metric2=ZERO, iters=35, checks=ALL_CHECKS)),
        ("tv1d-20-37-vectors", toy(problem={"name": "tv1d", "n": 20}, iters=37,
                                   checks=gap_checks, log_vectors=True,
                                   **tv1d_lin)),
    ]
    # a one-row last block at K = 16 j + 1: the held row of a full block is
    # written with the run's last row, u/v, gap and iterate columns filled
    out += [
        ("toy-17-all-checks-vectors", toy(iters=17, checks=ALL_CHECKS,
                                          log_vectors=True)),
        ("lasso-g-8-33-all-vectors", toy(problem={"name": "lasso-split", "n": 8,
                                                  "rows": 12, "quadratic_in": "g"},
                                         metric2=ZERO, iters=33, checks=ALL_CHECKS,
                                         log_vectors=True)),
    ]
    # draw counts past 2^17 and off a power of two (700 * 300 + 700 = 210 700
    # and 300 * 300 + 300 = 90 300), without an oracle; both exit 1, with the
    # kkt check failing after 20 iterations
    out += [
        ("lasso-h-300-700", toy(problem={"name": "lasso-split", "n": 300,
                                         "rows": 700},
                                metric1=_metric(2.0), metric2=ZERO, iters=20)),
        ("box-qp-300", toy(problem={"name": "box-qp", "n": 300},
                           metric1=_metric(5.0), metric2=ZERO, iters=20)),
    ]
    # decisions by value: the feasibility bound at c != 1, a zero M2 spelled
    # as a scaled identity under a fast decay (condition III), and a step
    # list that shrinks by one part in 1e13 (M1 not monotone)
    out += [
        ("toy-c03-all-checks", toy(c=0.3, checks=ALL_CHECKS)),
        ("toy-geometric-zero-m2", toy(metric2={"kind": "geometric_decay",
                                               "metric": {"kind": "scaled_identity",
                                                          "mu": 0.0},
                                               "rho": 0.3})),
        ("toy-tau-shrinks-1e-13", toy(metric1={"kind": "shifted_gram",
                                               "tau": [0.4, 0.4 * (1 - 1e-13)]})),
    ]
    # an M1 with no exact x update, at k = 0 (a diagonal M1 on box-qp) or
    # only from k = 1 (a decayed shifted Gram metric), and a diagonal M2 on
    # a quadratic g: rejected by the validator, before the oracle; and the
    # feasibility bound judged alone where the residual's fitted slope is
    # above -0.45
    out += [
        ("box-qp-10-diagonal-m1",
         toy(problem={"name": "box-qp", "n": 10},
             metric1={"kind": "constant",
                      "metric": {"kind": "diagonal",
                                 "entries": [5.0 + 0.1 * i for i in range(10)]}},
             metric2=ZERO, iters=50, checks=["gap_bound"])),
        ("lasso-g-geometric-shifted-gram-m1",
         toy(problem={"name": "lasso-split", "n": 8, "rows": 12,
                      "quadratic_in": "g"},
             metric1={"kind": "geometric_decay",
                      "metric": {"kind": "shifted_gram", "tau": 0.5},
                      "rho": 0.9},
             metric2=ZERO, iters=50, checks=["gap_bound"])),
        ("lasso-g-diagonal-m2",
         toy(problem={"name": "lasso-split", "n": 8, "rows": 12,
                     "quadratic_in": "g"},
             metric2={"kind": "constant",
                      "metric": {"kind": "diagonal", "entries": [0.5] * 8}},
             iters=50, checks=["gap_bound"])),
        ("toy-c01-zero-metrics", toy(c=0.1, metric1=ZERO, metric2=ZERO, iters=150,
                                     checks=ALL_CHECKS[1:])),
    ]
    # a NaN step, which JSON reads, a key that a constant schedule does not
    # read, a penalty in the problem table, which the top-level c would
    # overwrite, a dense M1 whose (M + M^T) / 2 overflows and an infinite
    # step: all config errors, exit 2
    out += [
        ("toy-nan-tau", toy(metric1={"kind": "shifted_gram", "tau": math.nan})),
        ("toy-constant-with-rho", toy(metric2={**_metric(1.0), "rho": 0.5})),
        ("toy-problem-table-c", toy(problem={"name": "toy1d", "c": 0.1})),
        ("toy-dense-m1-1e308", toy(metric1={"kind": "constant", "metric": {
            "kind": "dense", "matrix": [[1e308]]}})),
        ("toy-infinite-tau", toy(metric1={"kind": "shifted_gram", "tau": math.inf})),
    ]
    # a quadratic h whose Q + Q^T overflows, a fractional problem size and a
    # step that is a bool: config errors, exit 2, with one line each
    out += [
        ("toy-quadratic-h-1e308", toy(problem={"name": "toy1d", "h_kind": "quadratic",
                                               "h_weight": 1e308})),
        ("tv1d-n-20.5", toy(problem={"name": "tv1d", "n": 20.5}, **tv1d_lin)),
        ("toy-shifted-gram-tau-true", toy(metric1={"kind": "shifted_gram",
                                                   "tau": True}, metric2=ZERO)),
    ]
    # a malformed init under a decreasing tau the validator refuses: the config
    # is read whole before any validation, so a config error, exit 2
    out += [
        ("toy-init-true-refused-tau", toy(metric1={"kind": "shifted_gram",
                                                   "tau": [0.5, 0.25]},
                                          init={"x": [True]})),
    ]
    # the benchmark workloads, read from perfbench/ as they are
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        for seed in (1, 2):
            out.append((f"{name}-seed{seed}", WORKLOADS[name].config(seed)))
    return out


def _cli(argv):
    """``vmadmm.cli.main(argv)`` as ``(exit code, stdout, stderr)``."""
    from vmadmm.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is an outcome too
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def solve_all(work, cpu=None):
    """Child mode: solve ``work/configs.json``, check each log written, and
    write ``work/results.json``; first pinned to CPU ``cpu`` when given."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    with open(os.path.join(work, "configs.json")) as fh:
        named = json.load(fh)
    cfg_path = os.path.join(work, "cfg.json")
    against = os.path.join(work, "against.json")
    out_dir = os.path.join(work, "out")
    results = {}
    for name, cfg in named:
        shutil.rmtree(out_dir, ignore_errors=True)
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        result = dict(zip(("exit", "stdout", "stderr"), _cli(
            ["solve", "--config", cfg_path, "--force", "--out", out_dir])))
        for fname in ("log.csv", "summary.json"):
            path = os.path.join(out_dir, fname)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    result[fname] = fh.read().decode("ascii")
        if "log.csv" in result:
            with open(against, "w") as fh:
                json.dump({"kkt": 0.0, "c": cfg["c"]}, fh)
            result.update(zip(("check exit", "check stdout", "check stderr"), _cli(
                ["check", "--log", os.path.join(out_dir, "log.csv"),
                 "--against", against])))
        results[name] = result
    with open(os.path.join(work, "results.json"), "w") as fh:
        json.dump(results, fh)


def run_tree(src, work, cpu=None):
    """Solve every config with the package from ``src``, pinned to CPU
    ``cpu`` when given; results by name, with ``src`` replaced by ``<src>``
    in stdout and stderr."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    pin = [] if cpu is None else [str(cpu)]
    subprocess.run([sys.executable, os.path.abspath(__file__), "--solve-all",
                    work, *pin], env=env, check=True)
    with open(os.path.join(work, "results.json")) as fh:
        results = json.load(fh)
    for result in results.values():
        for key in ("stdout", "stderr", "check stdout", "check stderr"):
            if key in result:
                result[key] = result[key].replace(src, "<src>").replace(work, "<work>")
    return results


def run_passes(srcs, named):
    """``{pass suffix: [results of each tree in srcs]}``: every config of
    ``named`` solved as the host runs it and on one CPU."""
    # the second pass on one CPU, where vmadmm solves in its own process
    one_cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
    passes = {}
    with tempfile.TemporaryDirectory(prefix="byte_audit_") as work:
        with open(os.path.join(work, "configs.json"), "w") as fh:
            json.dump(named, fh)
        for suffix, cpu in zip(PASSES, (None, one_cpu)):
            passes[suffix] = [run_tree(src, work, cpu) for src in srcs]
    return passes


def digest(results):
    """Results by config as SHA-256 hex digests of each of :data:`KEYS`: of
    the text, of an exit code's JSON, or None where the result has none."""
    def sha(value):
        if value is None:
            return None
        text = value if isinstance(value, str) else json.dumps(value)
        return hashlib.sha256(text.encode()).hexdigest()

    return {name: {key: sha(result.get(key)) for key in KEYS}
            for name, result in results.items()}


def host_environment():
    """What the digests depend on besides the source: Python, numpy, scipy,
    the OpenBLAS build each loads and the platform."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import environment

    record = environment.record()
    return {"python": record["python"], "numpy": record["numpy"],
            "scipy": record["scipy"],
            "numpy BLAS": record["numpy_openblas"]["build"],
            "scipy BLAS": record["scipy_openblas"]["build"],
            "platform": f"{platform.system()} {record['machine']}"}


def environment_moved(recorded):
    """One line per entry of the ``recorded`` environment that differs from
    :func:`host_environment`."""
    now = host_environment()
    return [f"environment {key}: recorded {recorded.get(key)!r}, here {now.get(key)!r}"
            for key in sorted(set(now) | set(recorded))
            if recorded.get(key) != now.get(key)]


def _columns_differ(old, new):
    """``log.csv`` columns whose cells differ, as ``name (rows)`` strings."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return ["header"]
    out = []
    for j, name in enumerate(old_rows[0]):
        old_col, new_col = ([row[j] for row in rows[1:]]
                            for rows in (old_rows, new_rows))
        rows = sum(a != b for a, b in zip(old_col, new_col))
        rows += abs(len(old_col) - len(new_col))
        if rows:
            out.append(f"{name} ({rows} row{'s' * (rows != 1)})")
    return out


def _keys_differ(old, new, prefix=""):
    """Dotted ``summary.json`` keys whose values differ, sorted."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [prefix.rstrip(".") or "<top level>"]
    return [key for name in sorted(set(old) | set(new))
            for key in _keys_differ(old.get(name), new.get(name), f"{prefix}{name}.")]


def _details(old, new):
    """Lines naming what differs inside ``log.csv`` and ``summary.json``."""
    lines = []
    if "log.csv" in old and "log.csv" in new and old["log.csv"] != new["log.csv"]:
        lines.append("log.csv columns: "
                     + ", ".join(_columns_differ(old["log.csv"], new["log.csv"])))
    if ("summary.json" in old and "summary.json" in new
            and old["summary.json"] != new["summary.json"]):
        lines.append("summary.json keys: " + ", ".join(_keys_differ(
            json.loads(old["summary.json"]), json.loads(new["summary.json"]))))
    return lines


def report(named, passes, exits, details=lambda old, new: []):
    """Print one line per config of ``named`` and return how many differ.

    ``passes`` maps a pass suffix to ``(old, new)``, results or digests by
    config name; ``exits(name)`` describes the exit codes and ``details(old,
    new)`` gives the lines printed under a config that differs."""
    differ = 0
    for name, _ in named:
        diffs, lines = [], []
        for suffix, (old, new) in passes.items():
            old, new = old.get(name, {}), new[name]
            diffs += [key + suffix for key in KEYS if old.get(key) != new.get(key)]
            lines += [line + suffix for line in details(old, new)]
        differ += bool(diffs)
        status = "DIFFERENT " + ", ".join(diffs) if diffs else "identical"
        print(f"{name}: {status} ({exits(name)})")
        for line in lines:
            print(f"    {line}")
    print(f"{len(named) - differ} of {len(named)} configs identical")
    return differ


def check_digests(named, digests, results):
    """Compare ``{pass suffix: digests}`` of one tree, whose default pass
    gave ``results``, pass by pass with the one set :data:`DIGESTS` holds;
    0 when every config is identical, 1 otherwise, 2 without a record."""
    try:
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        print(f"no digests recorded at {DIGESTS}; record them with {RECORD}",
              file=sys.stderr)
        return 2
    moved = environment_moved(recorded["environment"])
    passes = {suffix: (recorded["configs"], digests[suffix]) for suffix in PASSES}
    gone = sorted(set(recorded["configs"]) - {name for name, _ in named})
    differ = report(named, passes, lambda name: f"exit {results[name]['exit']}")
    for name in gone:
        print(f"{name}: recorded, no longer audited")
    for line in moved:
        print(line)
    if differ or gone:
        print(f"re-record with {RECORD} after a change that moves bits on purpose")
        return 1
    return 0


def record_digests(named, digests):
    """Write :data:`DIGESTS` from ``{pass suffix: digests}`` of one tree; 0,
    or 1 without writing when the passes disagree on some config."""
    default, one_cpu = (digests[suffix] for suffix in PASSES)
    split = [(name, [key for key in KEYS if default[name][key] != one_cpu[name][key]])
             for name, _ in named if default[name] != one_cpu[name]]
    for name, keys in split:
        print(f"{name}: the passes differ in {', '.join(keys)}", file=sys.stderr)
    if split:
        print(f"not recorded: {len(split)} of {len(named)} configs differ on one CPU, "
              "and both passes must give the same bits", file=sys.stderr)
        return 1
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"command": RECORD, "environment": host_environment(),
                   "configs": default}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(named)} configs, the same on both passes, in {DIGESTS}")
    return 0


def main(argv):
    if 2 <= len(argv) <= 3 and argv[0] == "--solve-all":
        solve_all(argv[1], *map(int, argv[2:]))
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/byte_audit.py OLD_SRC NEW_SRC | --digests SRC "
              "| --record SRC", file=sys.stderr)
        return 2
    named = configs()
    if argv[0] in ("--digests", "--record"):
        passes = run_passes(argv[1:], named)
        digests = {suffix: digest(results[0]) for suffix, results in passes.items()}
        if argv[0] == "--digests":
            return check_digests(named, digests, passes[""][0])
        return record_digests(named, digests)
    passes = {suffix: tuple(results)
              for suffix, results in run_passes(argv, named).items()}
    old, new = passes[""]
    differ = report(named, passes,
                    lambda name: f"exit {old[name]['exit']} -> {new[name]['exit']}",
                    _details)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
