"""SHA-256 pins of ``log.csv``, ``summary.json`` and the ``vmadmm check``
output of a few configs of ``tools/byte_audit.py``, on both run paths.

    PYTHONPATH=src python3 tests/test_byte_pins.py

prints the digests of the tree on ``PYTHONPATH`` in the form of
:data:`PINS`, with the environment, to re-record them after a change that
moves bits on purpose. The configs are one per x-update strategy and
together request every check: u/v "not evaluable" by a smooth term and by a
metric change, infinite probe Lagrangians, the iterates logged, K = 0 and a
one-row last block after a full one.
"""

import hashlib
import json
import platform
import sys

import numpy as np
import pytest

from helpers import load_tool
from vmadmm import experiments

RECORD = "PYTHONPATH=src python3 tests/test_byte_pins.py"

#: Where the digests were recorded.
ENVIRONMENT = {"machine": "x86_64", "numpy": "2.4.6", "python": "3.11"}

PINS = {
    "tv1d-20-smooth-vineq": {
        "log.csv": "b28cc1e527fe6f6c77a06466adffb0bdb9e7412deeaa7ad9b66b71130b1d6420",
        "summary.json": "82ad687e54dc0302437d33e31e85e2e73610b6b96c9108558ae5622cef501d27",
        "check": "50679752e4b9d4c5ec027fcb75233f58a2ca88f1eacb92a1f34e4729badaaaba",
    },
    "toy-0-iters-all-checks": {
        "log.csv": "41e40faf958f70817b8d930b1976c1d37304af30e6d7d7307ef9f22a4fd88870",
        "summary.json": "4c1edee6aaa584c59de6a7c2a64461d0949ed665db8f26f9aa458af5d37e4bfa",
        "check": "a6ffbf427cb6d74c70974a9d75b029d9a7419c35db0a3ff6a193e5fce075beaf",
    },
    "toy-tau-change-k3-all": {
        "log.csv": "daee0c56c9dc7adce5b2b56740199b9d001fd59ff0272d6b92543bf755137968",
        "summary.json": "0af313f802d0685e3c40da5a8f8e82d30c186205ae60d828dea7945a0a448ed1",
        "check": "0cee2d3c298fc56c8ed12b5217f7d4dc8c1215dc83f14d8519aee108a97c95d2",
    },
    "tv1d-12-quadratic-diagonal": {
        "log.csv": "de8e99713d5a4c901e95ebbe4908c8ddd330899e6afe89ddc8035eef0d7cf39d",
        "summary.json": "5e18b71e9069c02b10fc1a2d9a65e9608fd762275f227e93ab9c73e08c831ddd",
        "check": "2d72146d246be7bdbc3c16dc949652f4965a337f524da8237df6296dba64b4c5",
    },
    "box-qp-10-37-gap": {
        "log.csv": "3e96b76490fc8858f0507b2d8942affa52d654664f7371c5ecdd766023d39501",
        "summary.json": "9bbaa33a28e0c1db378163bc76c50032acd9c914ecce40803704ef6c4a74240c",
        "check": "10151bdab7940f374147b2598f043a1e4646bbf17fd13c6c65dc6506f6cf595b",
    },
    "tv1d-20-linearized-83": {
        "log.csv": "b8f8c7a0dc79c61adb47d49e9db5d92a75319c4578ff97be919c121cf8395d89",
        "summary.json": "7bf2d299bbc1b37986dff493dc975214cb2d2527a29ae9bd5f0855f966463e91",
        "check": "f758ed983177d4de6b17e8f3151662502ab8ce0cc1e85698175706a0aac7a6d8",
    },
    "lasso-g-8-35-all": {
        "log.csv": "00a6fa5bd8e9e518cfeb87a9819833827d218f0f21e56720be0fca13d10bd1a3",
        "summary.json": "2ece3638faed0755f2d9da7e62f82d374f8386a17d0cbc4d70b09be8e02590d2",
        "check": "768f6beafd079946632d6a3abf6d66914945bfe15f787c43593bc25d085d7cd5",
    },
    "tv1d-20-37-vectors": {
        "log.csv": "c371366b9de722c696c1285ff7dd43eea9c0e1a4c011a2c1eaaebf094ac34385",
        "summary.json": "422838b503bb5674a565d657420c552b31591383fdc6cc8362dddfefe2fbbd33",
        "check": "48520b04fffb8bb54495a5532357a533013004df5ccc06f2e9bd23aace6984f6",
    },
    "lasso-g-8-33-all-vectors": {
        "log.csv": "586fd5d73dc55e2f6a144563ea1098f3fd5c22af07b6a2989edc742ba5de6ad0",
        "summary.json": "17312418a5512ed186c8edafd2ede944e9a9e5aeccc92011807c81a370579f0f",
        "check": "516ef89e5d9691392fdba549566e9af13bbd031eed09b47fad2f5747b51b6464",
    },
}


def environment():
    return {"machine": platform.machine(), "numpy": np.__version__,
            "python": ".".join(platform.python_version_tuple()[:2])}


def digests(work):
    """``{config: {output: sha256}}`` for every pinned config, solved with
    the run path ``experiments._solve_beside`` picks, in ``work``."""
    audit = load_tool("byte_audit")
    with open(work / "configs.json", "w") as fh:
        json.dump([(name, cfg) for name, cfg in audit.configs() if name in PINS],
                  fh)
    audit.solve_all(str(work))
    with open(work / "results.json") as fh:
        results = json.load(fh)

    def sha(text):
        return None if text is None else hashlib.sha256(text.encode()).hexdigest()

    return {name: {"log.csv": sha(result.get("log.csv")),
                   "summary.json": sha(result.get("summary.json")),
                   "check": sha(json.dumps([result.get(key) for key in (
                       "check exit", "check stdout", "check stderr")]))}
            for name, result in results.items()}


@pytest.mark.parametrize("beside", [True, False], ids=["forked", "in-process"])
def test_outputs_keep_their_pinned_digests(tmp_path, monkeypatch, beside):
    monkeypatch.setattr(experiments, "_solve_beside", lambda: beside)
    got = digests(tmp_path)
    moved = [f"{name} {output}" for name, pinned in PINS.items()
             for output, digest in pinned.items()
             if got.get(name, {}).get(output) != digest]
    assert not moved, (
        f"digests moved: {', '.join(moved)}; recorded on {ENVIRONMENT}, "
        f"running on {environment()}; re-record with {RECORD}")


if __name__ == "__main__":
    import pathlib
    import tempfile

    PINS = dict.fromkeys(sys.argv[1:] or PINS)
    with tempfile.TemporaryDirectory() as work:
        print(f"ENVIRONMENT = {json.dumps(environment())}")
        print("PINS = " + json.dumps(digests(pathlib.Path(work)), indent=4))
