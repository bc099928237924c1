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
are kept, with their ``failed`` count. A run that printed no result line, or
whose result lacks a metric (perfbench omits a metric whose samples all
failed), is kept as failed with that metric (or every metric) None; it is
left out of that metric's quartiles and wins, and the count left out is
printed. Each run is stopped after ``30 * run_seconds + 60`` seconds, as
one that printed no result. A run that failed or printed no result keeps
the last STDERR_LINES lines of its standard error in its record, under
``stderr``, the timeout's own line last when it was stopped.
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
STDERR_LINES = 20


def run_timeout(seconds):
    """Seconds a run of ``seconds`` may take before it is stopped."""
    return 30 * seconds + 60


def _text(output):
    """Output a stopped run left, as text (a timeout hands over bytes)."""
    if isinstance(output, bytes):
        return output.decode(errors="replace")
    return output or ""


def run_once(root, workload, seed, seconds):
    """One untraced perfbench run in ``root``: ``(result, environment,
    stderr)``, the first two None when the run did not print them, and the
    last STDERR_LINES lines of its standard error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    timeout = run_timeout(seconds)
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              check=False, timeout=timeout)
        out, err = done.stdout.splitlines(), done.stderr.splitlines()
    except subprocess.TimeoutExpired as exc:
        out = _text(exc.stdout).splitlines()
        err = _text(exc.stderr).splitlines() + [
            f"stopped: no exit after {timeout:g} s"]
    err = err[-STDERR_LINES:]
    env = next((json.loads(line.split(" ", 1)[1]) for line in out
                if line.startswith("environment ")), None)
    try:
        return json.loads(out[-1]), env, err
    except (IndexError, json.JSONDecodeError):
        return None, env, err


def run_record(result, metrics):
    """A run's ``failed``, ``attempted`` and metric values; a metric the
    result lacks is None, and such a run counts at least one failure."""
    result = result or {}
    values = {m: result.get("metrics", {}).get(m, {}).get("value") for m in metrics}
    failed = result.get("failed", 0)
    if None in values.values():
        failed = max(failed, 1)
    return {"failed": failed, "attempted": result.get("attempted"), **values}


def quartiles(values):
    if len(values) < 2:
        return None
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
                result, env, err = run_once(getattr(args, side), name, SEED + i,
                                            seconds)
                if env is not None:
                    record["environment"].setdefault(side, env)
                run = {"seed": SEED + i, "first": side == order[0],
                       **run_record(result, lower_is_better)}
                if result is None or run["failed"]:
                    run["stderr"] = err
                runs[side].append(run)
                print(f"{name} pair {i} {side}: " + " ".join(
                    f"{m}={runs[side][-1][m]:.6g}" if runs[side][-1][m] is not None
                    else f"{m}=missing" for m in lower_is_better), flush=True)
        summary = {}
        for metric, lower in lower_is_better.items():
            pairs = [(p[metric], c[metric])
                     for p, c in zip(runs["parent"], runs["change"])]
            parent = [p for p, _ in pairs if p is not None]
            change = [c for _, c in pairs if c is not None]
            left_out = 2 * PAIRS - len(parent) - len(change)
            if left_out:
                print(f"{name} {metric}: {left_out} runs without a value left out")
            wins = sum((c < p) if lower else (c > p) for p, c in pairs
                       if p is not None and c is not None)
            summary[metric] = {"parent": quartiles(parent), "change": quartiles(change),
                               "change_wins": wins, "left_out": left_out}
        record["workloads"][name] = {"runs": runs, "summary": summary}
    path = os.path.join(args.change, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
