"""vmadmm benchmark: certified solves of four catalog workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; vmadmm is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures the per-layer metrics from a traced run. Every solve's outputs are
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every checked operation passed. Scratch output goes under
``.bench_build/perfbench/`` and is deleted, except for the run's report and,
with tracing, its spans. README.md beside this file says what each workload
and metric is for.
"""

import argparse
import json
import sys

import environment
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    environment.pin_blas_threads()  # before numpy is first imported
    environment.load_package()
    env = environment.record()
    for lib in ("numpy_openblas", "scipy_openblas"):
        threads = env[lib]["threads"]
        if threads not in (None, environment.BLAS_THREADS):
            sys.stderr.write(f"perfbench: {lib} runs {threads} threads, "
                             f"not {environment.BLAS_THREADS}\n")
            return 2

    import harness

    workload = WORKLOADS[args.workload]
    ledger = harness.Ledger()
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    harness.OUT.mkdir(parents=True, exist_ok=True)
    extra = {}
    if args.trace:
        metrics, details, extra = harness.measure_traced(
            workload, args.seed, args.seconds, ledger,
            spans_path=harness.OUT / f"spans-{label}.tsv")
    else:
        metrics, details = harness.measure(workload, args.seed, args.seconds, ledger)

    failed = len(ledger.failures)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "samples": details,
        "failed_ratio": [ledger.certified_failed, ledger.certified_attempted],
        "failures": ledger.failures,
        **extra,
    }
    with open(harness.OUT / f"report-{label}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"perfbench {label}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, stats in details.items():
        print(f"  {name:40s} " + " ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in stats.items() if k != "samples"))
    for name, why in extra.get("absent", {}).items():
        print(f"  {name:40s} absent ({why})")
    print(f"  failed_ratio {ledger.certified_failed}/{ledger.certified_attempted}"
          " certified solves")
    for failure in ledger.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
