"""Tests of the scripts under ``tools/`` and of the perfbench tracer's hooks,
loaded from their files."""

import hashlib
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


def fake_audit(tmp_path, monkeypatch):
    """``tools/byte_audit.py`` loaded with two configs, a digest file under
    ``tmp_path`` and fake runs: ``results[suffix][name]`` is what the pass
    with that suffix gives a config, editable between calls."""
    audit = load_tool("byte_audit")
    named = [("solved", {}), ("refused", {})]
    results = {suffix: {
        "solved": {"exit": 0, "stdout": "log: <work>/out/log.csv\n", "stderr": "",
                   "log.csv": "k,gap\n1,0.5\n", "summary.json": "{}\n",
                   "check exit": 0, "check stdout": "check passed\n",
                   "check stderr": ""},
        "refused": {"exit": 2, "stdout": "", "stderr": "config error: tau\n"},
    } for suffix in audit.PASSES}
    env = {"python": "3.11.7", "numpy": "2.4.6"}
    monkeypatch.setattr(audit, "configs", lambda: named)
    monkeypatch.setattr(audit, "DIGESTS", str(tmp_path / "byte_digests.json"))
    monkeypatch.setattr(audit, "host_environment", lambda: dict(env))
    monkeypatch.setattr(audit, "run_passes", lambda srcs, named: {
        suffix: [json.loads(json.dumps(r)) for _ in srcs]
        for suffix, r in results.items()})
    return audit, results, env


def test_byte_audit_records_and_compares_digests(tmp_path, monkeypatch, capsys):
    audit, results, env = fake_audit(tmp_path, monkeypatch)
    assert audit.main(["--digests", "src"]) == 2
    assert "record them with" in capsys.readouterr().err
    assert audit.main(["--record", "src"]) == 0
    record = json.loads((tmp_path / "byte_digests.json").read_text())
    assert record["environment"] == env
    # one set of digests per config, which both passes gave
    assert sorted(record["configs"]) == ["refused", "solved"]
    solved = record["configs"]["solved"]
    assert solved["log.csv"] == hashlib.sha256(b"k,gap\n1,0.5\n").hexdigest()
    assert solved["exit"] == hashlib.sha256(b"0").hexdigest()
    assert record["configs"]["refused"]["log.csv"] is None
    capsys.readouterr()

    assert audit.main(["--digests", "src"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["solved: identical (exit 0)", "refused: identical (exit 2)",
                   "2 of 2 configs identical"]

    # one cell of the log on one CPU, and the environment, move
    results[" on one CPU"]["solved"]["log.csv"] = "k,gap\n1,0.25\n"
    env["numpy"] = "2.5.0"
    assert audit.main(["--digests", "src"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["solved: DIFFERENT log.csv on one CPU (exit 0)",
                       "refused: identical (exit 2)", "1 of 2 configs identical"]
    assert "environment numpy: recorded '2.4.6', here '2.5.0'" in out
    assert out[-1].startswith(f"re-record with {audit.RECORD}")

    # passes that disagree are not recorded: the file keeps its digests
    before = (tmp_path / "byte_digests.json").read_text()
    assert audit.main(["--record", "src"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "solved: the passes differ in log.csv"
    assert err[1].startswith("not recorded: 1 of 2 configs differ on one CPU")
    assert (tmp_path / "byte_digests.json").read_text() == before

    # the default pass moves as well: both passes now differ from the record
    results[""]["solved"]["log.csv"] = "k,gap\n1,0.25\n"
    assert audit.main(["--digests", "src"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "solved: DIFFERENT log.csv, log.csv on one CPU (exit 0)")

    # a config no longer audited is named, and fails the comparison
    assert audit.main(["--record", "src"]) == 0
    monkeypatch.setattr(audit, "configs", lambda: [("solved", {})])
    del results[""]["refused"], results[" on one CPU"]["refused"]
    capsys.readouterr()
    assert audit.main(["--digests", "src"]) == 1
    assert "refused: recorded, no longer audited" in capsys.readouterr().out


def test_byte_audit_two_trees_name_the_columns_that_differ(tmp_path, monkeypatch,
                                                          capsys):
    audit, results, _ = fake_audit(tmp_path, monkeypatch)
    # the new tree's log is as the old one's, then one cell moves
    logs = iter([None, "k,gap\n1,0.25\n"])

    def run_passes(srcs, named):
        log = next(logs)
        passes = {}
        for suffix, r in results.items():
            old, new = (json.loads(json.dumps(r)) for _ in srcs)
            if log is not None:
                new["solved"]["log.csv"] = log
            passes[suffix] = [old, new]
        return passes

    monkeypatch.setattr(audit, "run_passes", run_passes)
    assert audit.main(["old/src", "new/src"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 of 2 configs identical"
    assert audit.main(["old/src", "new/src"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "solved: DIFFERENT log.csv, log.csv on one CPU (exit 0 -> 0)",
        "    log.csv columns: gap (1 row)",
        "    log.csv columns: gap (1 row) on one CPU"]


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


def test_byte_digests_record_every_audited_config():
    # a config added to the audit without re-recording fails here, not only
    # in the manual audit
    audit = load_tool("byte_audit")
    with open(audit.DIGESTS) as fh:
        recorded = json.load(fh)["configs"]
    names = [name for name, _ in audit.configs()]
    assert len(set(names)) == len(names)
    assert sorted(recorded) == sorted(names)
