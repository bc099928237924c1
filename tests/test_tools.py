"""Tests of the scripts under ``tools/`` and of the perfbench tracer's hooks,
loaded from their files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from helpers import load_tool


def test_bench_pairs_leaves_out_a_run_without_a_metric(tmp_path, monkeypatch,
                                                        capsys):
    # perfbench omits a metric whose samples all failed: that run is kept as
    # failed, and only that metric's quartiles and wins leave it out
    bench_pairs = load_tool("bench_pairs")
    metrics = ["setup_s", "peak_traced_mb"]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": m, "better": "lower"} for m in metrics],
    }))
    dropped = bench_pairs.SEED + 3

    def run_once(root, workload, seed, seconds):
        value = 1.0 + seed if root == "parent-root" else 0.5 + seed
        result = {"failed": 0, "attempted": 4,
                  "metrics": {m: {"value": value} for m in metrics}}
        if root != "parent-root" and seed == dropped:
            del result["metrics"]["peak_traced_mb"]
        return result, {"host": root}, [f"stderr of {root} at {seed}"]

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["parent-root", str(tmp_path), "x"]) == 0
    assert "peak_traced_mb: 1 runs without a value left out" in capsys.readouterr().out
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    workload = record["workloads"]["w"]
    bad = [r for r in workload["runs"]["change"] if r["seed"] == dropped]
    assert bad == [{"seed": dropped, "first": True, "failed": 1,
                    "attempted": 4, "setup_s": 0.5 + dropped,
                    "peak_traced_mb": None,
                    "stderr": [f"stderr of {tmp_path} at {dropped}"]}]
    # a run that passed keeps no stderr
    runs = workload["runs"]["parent"] + workload["runs"]["change"]
    assert [r for r in runs if "stderr" in r] == bad
    peak, setup = workload["summary"]["peak_traced_mb"], workload["summary"]["setup_s"]
    assert (peak["change_wins"], peak["left_out"]) == (bench_pairs.PAIRS - 1, 1)
    assert (setup["change_wins"], setup["left_out"]) == (bench_pairs.PAIRS, 0)
    kept = [0.5 + bench_pairs.SEED + i for i in range(bench_pairs.PAIRS)
            if bench_pairs.SEED + i != dropped]
    assert peak["change"] == bench_pairs.quartiles(kept)


def test_bench_pairs_run_without_a_result_line_is_none(monkeypatch):
    # a run that crashed before printing leaves no environment or result line
    bench_pairs = load_tool("bench_pairs")
    for stdout in ("", "perfbench w\nTraceback (most recent call last):\n"):
        monkeypatch.setattr(bench_pairs.subprocess, "run",
                            lambda *a, stdout=stdout, **k:
                            subprocess.CompletedProcess(a, 1, stdout, "boom\n"))
        result, env, stderr = bench_pairs.run_once(".", "w", 1, 1)
        assert (result, env, stderr) == (None, None, ["boom"])
        assert bench_pairs.run_record(result, ["setup_s"]) == {
            "failed": 1, "attempted": None, "setup_s": None}


def fake_root(path, body):
    """A source root whose ``perfbench/run.py`` is ``body``, with ``sys``,
    ``json`` and ``time`` imported and ``seed`` its ``--seed``."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        "import json, sys, time\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n" + body)
    return path


def test_bench_pairs_stops_a_hung_run_and_keeps_its_stderr(tmp_path, monkeypatch):
    # a run gets 30 run_seconds plus a minute; one still running then is
    # stopped and kept as a run without a result, with its last stderr lines
    bench_pairs = load_tool("bench_pairs")
    assert bench_pairs.run_timeout(5) == 210
    root = fake_root(tmp_path / "hung", "for i in range(30):\n"
                     "    print(f'line {i}', file=sys.stderr)\n"
                     "sys.stderr.flush()\n"
                     "time.sleep(60)\n")
    monkeypatch.setattr(bench_pairs, "run_timeout", lambda seconds: 2.0)
    result, env, stderr = bench_pairs.run_once(str(root), "w", 1, 5)
    assert (result, env) == (None, None)
    assert len(stderr) == bench_pairs.STDERR_LINES
    assert stderr[-2:] == ["line 29", "stopped: no exit after 2 s"]


def test_bench_pairs_keeps_the_stderr_of_failed_runs_only(tmp_path):
    # runs in two fake roots: every change run crashes before its result,
    # one parent run reports a failed operation; those keep their last
    # stderr lines in the record, the runs that passed keep none
    bench_pairs = load_tool("bench_pairs")
    result = ("print('environment ' + json.dumps({'host': 'fake'}))\n"
              "failed = int(seed == %d)\n"
              "print('FAIL kkt' if failed else 'ok', file=sys.stderr)\n"
              "print(json.dumps({'failed': failed, 'attempted': 4, 'metrics':"
              " {'setup_s': {'value': 1.0}}}))\n" % (bench_pairs.SEED + 2))
    parent = fake_root(tmp_path / "parent", result)
    change = fake_root(tmp_path / "change",
                       "print('Traceback (most recent call last):', file=sys.stderr)\n"
                       "print('ValueError: seed', seed, file=sys.stderr)\n"
                       "sys.exit(1)\n")
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "better": "lower"}],
    }))
    assert bench_pairs.main([str(parent), str(change), "x"]) == 0
    runs = json.loads((change / "BENCH_x.json").read_text())["workloads"]["w"]["runs"]
    assert [r.get("stderr") for r in runs["parent"]] == [
        ["FAIL kkt"] if r["seed"] == bench_pairs.SEED + 2 else None
        for r in runs["parent"]]
    assert [r["stderr"] for r in runs["change"]] == [
        ["Traceback (most recent call last):", f"ValueError: seed {r['seed']}"]
        for r in runs["change"]]


def test_every_tracer_hook_resolves(monkeypatch):
    # perfbench reports a layer whose hook target is gone as absent instead
    # of failing, so a rename in the package would silently drop a row;
    # the tracer is loaded from its file and only read
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    keys = set()
    for _, target in tracer.SPAN_HOOKS + tracer.COUNTER_HOOKS:
        found = [key for _, _, key in tracer._targets(target)]
        assert found, f"{target} resolves to nothing"
        keys.update(found)
    # the per-kind key the factor hit ratio reads
    assert "functions.Quadratic.prox" in keys
