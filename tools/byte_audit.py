"""Byte audit: ``vmadmm solve --force`` and ``vmadmm check`` on two source
trees, outputs compared.

    python3 tools/byte_audit.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src/`` directories of two checkouts. Each tree
solves every config in :func:`configs` in one subprocess, with that tree first
on ``PYTHONPATH`` and BLAS pinned to one thread, writing to the same temporary
paths so that echoed output paths agree. Per config the audit compares
``log.csv``, ``summary.json``, the exit code and the lines echoed to stdout
and stderr; for a config that wrote a log, it also runs ``vmadmm check`` on
that log against ``{"kkt": 0.0, "c": <the config's c>}`` and compares its
exit code, stdout and stderr. It prints one line per config and exits 1 on
any difference, 0 when every config is identical. In stdout and stderr each
tree's own ``src/`` path, which numpy's warning headers print, reads as
``<src>``, so two checkouts of the same code agree; a warning whose line
number moved still differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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


def solve_all(work):
    """Child mode: solve ``work/configs.json``, check each log written, and
    write ``work/results.json``."""
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


def run_tree(src, work):
    """Solve every config with the package from ``src``; results by name,
    with ``src`` replaced by ``<src>`` in stdout and stderr."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--solve-all",
                    work], env=env, check=True)
    with open(os.path.join(work, "results.json")) as fh:
        results = json.load(fh)
    for result in results.values():
        for key in ("stdout", "stderr", "check stdout", "check stderr"):
            if key in result:
                result[key] = result[key].replace(src, "<src>")
    return results


def main(argv):
    if len(argv) == 2 and argv[0] == "--solve-all":
        solve_all(argv[1])
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/byte_audit.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    named = configs()
    with tempfile.TemporaryDirectory(prefix="byte_audit_") as work:
        with open(os.path.join(work, "configs.json"), "w") as fh:
            json.dump(named, fh)
        old = run_tree(argv[0], work)
        new = run_tree(argv[1], work)
    differ = 0
    for name, _ in named:
        diffs = [key for key in ("exit", "stdout", "stderr", "log.csv",
                                 "summary.json", "check exit", "check stdout",
                                 "check stderr")
                 if old[name].get(key) != new[name].get(key)]
        differ += bool(diffs)
        status = "DIFFERENT " + ", ".join(diffs) if diffs else "identical"
        print(f"{name}: {status} (exit {old[name]['exit']} -> {new[name]['exit']})")
    print(f"{len(named) - differ} of {len(named)} configs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
