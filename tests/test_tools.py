"""Tests of the scripts under ``tools/`` and of the perfbench tracer's hooks,
loaded from their files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path


def load_tool(name):
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        return result, {"host": root}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["parent-root", str(tmp_path), "x"]) == 0
    assert "peak_traced_mb: 1 runs without a value left out" in capsys.readouterr().out
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    workload = record["workloads"]["w"]
    bad = [r for r in workload["runs"]["change"] if r["seed"] == dropped]
    assert bad == [{"seed": dropped, "first": True, "failed": 1,
                    "attempted": 4, "setup_s": 0.5 + dropped,
                    "peak_traced_mb": None}]
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
                            subprocess.CompletedProcess(a, 1, stdout, ""))
        result, env = bench_pairs.run_once(".", "w", 1, 1)
        assert (result, env) == (None, None)
        assert bench_pairs.run_record(result, ["setup_s"]) == {
            "failed": 1, "attempted": None, "setup_s": None}


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
