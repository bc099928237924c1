"""Paired benchmark record: alternating parent/change runs of perfbench.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT LABEL

PARENT_ROOT and CHANGE_ROOT are two source checkouts. For every workload in
CHANGE_ROOT's ``BENCHMARK.json`` the script runs ``perfbench/run.py --trace 0``
for the benchmark's ``run_seconds`` in PAIRS pairs, alternating which side
runs first in a pair, with data seed SEED + i in pair i on both sides. Ten
pairs is the fewest that a gain claim (better in nine of ten) can rest on.
It writes ``CHANGE_ROOT/BENCH_<LABEL>.json``: every run's end-to-end metrics, per
metric each side's median and quartiles and the pairs the change won, and
the environment record perfbench prints. Runs that fail a checked operation
are kept, with their ``failed`` count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
SEED = 101


def run_once(root, workload, seed, seconds):
    """One untraced perfbench run in ``root``: ``(result, environment)``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=False).stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in out
               if line.startswith("environment "))
    return json.loads(out[-1]), env


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("label")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"label": args.label, "pairs": PAIRS,
              "seeds": [SEED + i for i in range(PAIRS)],
              "command": "perfbench/run.py --workload W --seed SEED+i "
                         f"--seconds {seconds:g} --trace 0",
              "environment": {}, "workloads": {}}
    for spec in bench["workloads"]:
        name = spec["name"]
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, env = run_once(getattr(args, side), name, SEED + i,
                                       seconds)
                record["environment"].setdefault(side, env)
                runs[side].append({
                    "seed": SEED + i, "first": side == order[0],
                    "failed": result["failed"], "attempted": result["attempted"],
                    **{m: result["metrics"][m]["value"] for m in lower_is_better},
                })
                print(f"{name} pair {i} {side}: " + " ".join(
                    f"{m}={runs[side][-1][m]:.6g}" for m in lower_is_better),
                    flush=True)
        summary = {}
        for metric, lower in lower_is_better.items():
            parent = [r[metric] for r in runs["parent"]]
            change = [r[metric] for r in runs["change"]]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            summary[metric] = {"parent": quartiles(parent), "change": quartiles(change),
                               "change_wins": wins}
        record["workloads"][name] = {"runs": runs, "summary": summary}
    path = os.path.join(args.change, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
