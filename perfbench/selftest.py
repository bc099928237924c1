"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

1. BENCHMARK.json names the workloads, whys and metrics this code measures.
2. Counts repeat exactly across two measurements with one seed:
   ``iters_to_kkt``, ``solver.factorizations``, ``problems.oracle.iters``,
   ``linops.matvecs``, ``solver.trace_bytes`` and ``experiments.bytes_written``.
3. Each workload still takes the path it was chosen for. These describe the
   package as it is when the benchmark was defined; a change that alters a
   path on purpose (say, caching the QUADRATIC factor) makes its check fail
   and should say so.
4. Without ``src/`` beside it, the benchmark exits non-zero and prints no
   result.

Exit code 0 when every test passes.
"""

import argparse
import json
import shutil
import subprocess
import sys

import environment
from workloads import WORKLOADS, panel_seeds

EXACT_COUNTS = ("solver.factorizations", "problems.oracle.iters",
                "linops.matvecs", "solver.trace_bytes",
                "experiments.bytes_written")
END_TO_END = ("setup_s", "certified_solve_s", "solve_us_per_iter",
              "time_to_kkt_s", "iters_to_kkt", "peak_traced_mb")


def check_benchmark_json(harness):
    with open(environment.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != \
            {w.name: w.why for w in WORKLOADS.values()}:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from the measured set")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != {name: unit for name, (unit, _) in harness.LAYER_METRICS.items()}:
        errors.append("BENCHMARK.json per_layer differs from harness.LAYER_METRICS")
    return errors


def counts_once(harness, tracer, workload, seed):
    """Exact counts of one measurement: a small time-to-KKT panel and a
    traced certified solve."""
    iters = []
    for s in panel_seeds(seed, 3):
        _, problem, sched1, sched2, _ = harness.setup(workload.config(s))
        iters.append(harness.time_to_kkt(problem, sched1, sched2)[1])
    _, found, values = harness.traced_solve(workload.config(seed), tracer)
    if found:
        raise AssertionError(f"certified solve failed: {found}")
    return {"iters_to_kkt": iters, **{k: values[k] for k in EXACT_COUNTS}}, values


def path_errors(workload, values):
    """Whether the workload still takes the path it was chosen for."""
    name = workload.name
    if name == "tv1d-quadratic" and values["solver.factorizations"] != workload.iters:
        return [f"{values['solver.factorizations']} factorizations, "
                f"expected one per iteration ({workload.iters})"]
    if name == "tv1d-linearized" and values["solver.factorizations"] != 0:
        return [f"{values['solver.factorizations']} factorizations, expected 0"]
    if name == "lasso-g" and values["functions.quadratic_factor_hit_ratio"] < 0.99:
        return [f"Quadratic.prox factor hit ratio "
                f"{values['functions.quadratic_factor_hit_ratio']:.4f} < 0.99"]
    if name == "box-qp":
        distance = values["functions.distance.s"]
        others = {
            "diagnostics.gap_certificate.s": values["diagnostics.gap_certificate.s"],
            "diagnostics.uv_energies.s": values["diagnostics.uv_energies.s"],
            "kkt_residual outside distance":
                values["diagnostics.kkt_residual.s"] - distance,
        }
        larger = {k: v for k, v in others.items() if v >= distance}
        if larger:
            return [f"functions.distance.s={distance:.3f} is not the largest "
                    f"diagnostics span: {larger}"]
    return []


def check_bare_directory():
    """The benchmark must refuse to run without the sources."""
    bare = environment.ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(environment.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(environment.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "box-qp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/selftest.py")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    environment.pin_blas_threads()  # before numpy is first imported
    environment.load_package()
    import harness
    import tracer as tr

    failures = [f"benchmark.json: {e}" for e in check_benchmark_json(harness)]
    failures += check_bare_directory()
    for name, workload in sorted(WORKLOADS.items()):
        t = tr.Tracer(observers=harness.OBSERVERS)
        first, values = counts_once(harness, t, workload, args.seed)
        second, _ = counts_once(harness, t, workload, args.seed)
        if t.missing:
            failures.append(f"{name}: hooks missing: {t.missing}")
        for key in first:
            if first[key] != second[key]:
                failures.append(f"{name}: {key} {first[key]} then {second[key]}")
        failures += [f"{name}: {e}" for e in path_errors(workload, values)]
        print(f"{name}: " + ", ".join(f"{k}={v}" for k, v in first.items()))
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
