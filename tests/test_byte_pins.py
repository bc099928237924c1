"""The output bytes of a few configs of ``tools/byte_audit.py``, on both run
paths, against their digests in ``tools/byte_digests.json``.

The pinned outputs are ``log.csv``, ``summary.json`` and the ``vmadmm
check`` of the log, digested by ``byte_audit.digest``. The configs are one
per x-update strategy and together request every check: u/v "not
evaluable" by a smooth term and by a metric change, infinite probe
Lagrangians, the iterates logged, K = 0 and a one-row last block after a
full one. A change that moves bits on purpose re-records the one file with
``python3 tools/byte_audit.py --record SRC``.
"""

import json

import pytest

from helpers import load_tool
from vmadmm import experiments

CONFIGS = ("tv1d-20-smooth-vineq", "toy-0-iters-all-checks", "toy-tau-change-k3-all",
           "tv1d-12-quadratic-diagonal", "box-qp-10-37-gap", "tv1d-20-linearized-83",
           "lasso-g-8-35-all", "tv1d-20-37-vectors", "lasso-g-8-33-all-vectors")
KEYS = ("log.csv", "summary.json", "check exit", "check stdout", "check stderr")


@pytest.mark.parametrize("beside", [True, False], ids=["forked", "in-process"])
def test_outputs_keep_their_pinned_digests(tmp_path, monkeypatch, beside):
    # each config solved with the run path experiments._solve_beside picks
    monkeypatch.setattr(experiments, "_solve_beside", lambda: beside)
    audit = load_tool("byte_audit")
    with open(tmp_path / "configs.json", "w") as fh:
        json.dump([(name, cfg) for name, cfg in audit.configs() if name in CONFIGS],
                  fh)
    audit.solve_all(str(tmp_path))
    with open(tmp_path / "results.json") as fh:
        got = audit.digest(json.load(fh))
    with open(audit.DIGESTS) as fh:
        recorded = json.load(fh)
    moved = [f"{name} {key}" for name in CONFIGS for key in KEYS
             if got.get(name, {}).get(key) != recorded["configs"][name][key]]
    assert not moved, "; ".join(
        [f"digests moved: {', '.join(moved)}",
         *audit.environment_moved(recorded["environment"]),
         f"re-record with {audit.RECORD} after a change that moves bits on purpose"])
