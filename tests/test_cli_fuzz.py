"""Fuzz test of ``vmadmm solve``: generated configs end in a documented exit code.

Hypothesis draws run configs over every :class:`RunConfig` key: catalog
problems with n <= 50, every schedule and metric kind, at most 60
iterations, and in any entry a wrong type, a huge finite number (1e300,
whose square overflows) or a non-finite number such as ``1e309`` (which
JSON reads as infinity). Whatever the config, ``cli.main`` returns 0, 1, 2
or 3 without raising, and an exit 2 prints one line. A ``log_vectors`` that
is not a bool, and a problem ``seed`` that is a float or a string, are
config errors, as is a bool or a string wherever a number is read. One
config in three starts from a vector with a 1e300 entry and requests a
check that runs the oracle; such a config never solves.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given
from hypothesis import strategies as st

from vmadmm.cli import main
from vmadmm.experiments import CHECK_TOLERANCES, ORACLE_CHECKS

# replaced by the literal 1e309 in the config text
HUGE = "__1e309__"

WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.just("abc"),
    st.just([]),
    st.just({}),
    st.just(HUGE),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -1.0, 0.0, 2.5,
                     1e300, -1e300]),
)

# a problem seed must be an integer: a float or a string is a config error
BAD_SEEDS = st.sampled_from([3.0, 1e300, "3"])


def number(low, high):
    """A float in ``[low, high]``, or an integer there when there is one."""
    ints = range(math.ceil(low), math.floor(high) + 1)
    if not ints:
        return st.floats(low, high)
    return st.one_of(st.floats(low, high), st.sampled_from(ints))


def vector(dim):
    return st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)


@st.composite
def problems(draw):
    """A catalog problem table and its ``(n, m)``."""
    name = draw(st.sampled_from(["tv1d", "lasso-split", "box-qp", "toy1d"]))
    n = draw(st.integers(2, 50))
    if name == "tv1d":
        table = {"n": n, "lam": draw(number(0.01, 2.0)),
                 "noise": draw(st.one_of(number(0, 1), st.just(1e300)))}
        dims = (n, n - 1)
    elif name == "lasso-split":
        table = {"n": n, "rows": n + draw(st.integers(0, 10)),
                 "lam": draw(number(0.01, 2.0)),
                 "quadratic_in": draw(st.sampled_from(["h", "g"]))}
        dims = (n, n)
    elif name == "box-qp":
        table, dims = {"n": n}, (n, n)
    else:
        table = {"lam": draw(number(0.1, 3.0)),
                 "target": draw(st.one_of(number(-5, 5), st.just(1e300))),
                 "sigma": draw(number(0.1, 3.0)),
                 "h_kind": draw(st.sampled_from(["zero", "squared_l2", "huber",
                                                 "quadratic"])),
                 "h_shift": draw(number(-2, 2)), "h_weight": draw(number(0.1, 3.0)),
                 "h_delta": draw(number(0.1, 3.0))}
        dims = (1, 1)
    if name != "toy1d" and draw(st.booleans()):
        table["seed"] = draw(st.integers(0, 99))
        if draw(st.integers(0, 3)) == 0:
            table["seed"] = draw(BAD_SEEDS)
    return {"name": name, **table}, dims


@st.composite
def metrics(draw, dim, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "scaled_identity":
        return {"kind": kind, "mu": draw(number(0, 10))}
    if kind == "diagonal":
        return {"kind": kind, "entries": draw(st.lists(st.floats(0.0, 3.0),
                                                       min_size=dim, max_size=dim))}
    if kind == "dense":
        scale = draw(st.floats(0.0, 3.0))
        return {"kind": kind, "matrix": [[scale if i == j else 0.0
                                          for j in range(dim)] for i in range(dim)]}
    if kind == "shifted_gram":
        return {"kind": kind, "tau": draw(number(0.01, 0.3))}
    return {"kind": kind}


# the metric kinds the z update takes first: the others exit 2 before solving
M1_KINDS = ["scaled_identity", "diagonal", "dense", "shifted_gram", "zero"]
M2_KINDS = ["zero", "scaled_identity", "diagonal", "dense", "shifted_gram"]


@st.composite
def schedules(draw, dim, kinds):
    kind = draw(st.sampled_from(["constant", "geometric_decay", "shifted_gram"]
                                if "shifted_gram" in kinds[:3] else
                                ["constant", "geometric_decay"]))
    if kind == "constant":
        return {"kind": kind, "metric": draw(metrics(dim, kinds))}
    if kind == "geometric_decay":
        return {"kind": kind, "metric": draw(metrics(dim, kinds)),
                "rho": draw(number(0.5, 1))}
    return {"kind": kind, "tau": draw(st.one_of(
        number(0.01, 0.3), st.lists(st.floats(0.01, 0.3), min_size=1, max_size=3)))}


def leaves(value, path=()):
    """Paths to every entry of nested dicts and lists, containers included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from leaves(item, path + (key,))


@st.composite
def configs(draw):
    """A valid config with up to two entries replaced by wrong values and
    up to one key dropped or added."""
    problem, (n, m) = draw(problems())
    cfg = {
        "problem": problem,
        "metric1": draw(schedules(n, M1_KINDS)),
        "metric2": draw(schedules(m, M2_KINDS[: draw(st.sampled_from([3, 3, 5]))])),
        "c": draw(number(0.1, 5.0)),
        "iters": draw(st.integers(0, 60)),
        "init": draw(st.one_of(
            st.just("zeros"),
            st.fixed_dictionaries({}, optional={"x": vector(n), "z": vector(m),
                                                "y": vector(m)}),
        )),
        "checks": draw(st.lists(st.sampled_from(sorted(CHECK_TOLERANCES)),
                                max_size=6, unique=True)),
        "seed": draw(st.integers(0, 5)),
        "out_dir": draw(st.sampled_from(["out", "a/b"])),
        "log_vectors": draw(st.one_of(st.booleans(), st.booleans(),
                                      st.sampled_from(["false", 0, 1, None]))),
        "oracle_budget": draw(st.integers(0, 3000)),
    }
    if draw(st.integers(0, 2)) == 0:
        # a start whose square overflows, with a check that runs the oracle
        key = draw(st.sampled_from(["x", "z", "y"]))
        vec = draw(vector(n if key == "x" else m))
        vec[draw(st.integers(0, len(vec) - 1))] = 1e300
        cfg["init"] = {**(cfg["init"] if cfg["init"] != "zeros" else {}), key: vec}
        check = draw(st.sampled_from(sorted(ORACLE_CHECKS)))
        if check not in cfg["checks"]:
            cfg["checks"].append(check)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        path = draw(st.sampled_from(list(leaves(cfg))[1:]))
        *parents, last = path
        owner = cfg
        for key in parents:
            owner = owner[key]
        owner[last] = draw(WRONG)
    change = draw(st.sampled_from([None] * 8 + ["drop", "add"]))
    if change == "drop":
        cfg.pop(draw(st.sampled_from(sorted(cfg))))
    elif change == "add":
        cfg["unknown"] = 1
    return cfg


def holds_text(value):
    """Whether a bool or a string sits in ``value``, nested tables and lists
    included, outside the entries that name a problem, a kind or a choice."""
    if isinstance(value, dict):
        return any(holds_text(item) for key, item in value.items()
                   if key not in ("name", "kind", "quadratic_in", "h_kind"))
    if isinstance(value, list):
        return any(holds_text(item) for item in value)
    return isinstance(value, (bool, str))


@given(configs(), st.booleans())
# a malformed init under schedules the validator refuses is still a config error
@example({"problem": {"name": "toy1d"},
          "metric1": {"kind": "shifted_gram", "tau": [0.5, 0.25]},
          "metric2": {"kind": "constant",
                      "metric": {"kind": "scaled_identity", "mu": 1.0}},
          "c": 1.0, "iters": 5, "init": {"x": [True]}, "checks": [], "seed": 0,
          "out_dir": "out"}, False)
def test_solve_ends_in_a_documented_exit_code(cfg, force):
    text = json.dumps(cfg).replace(json.dumps(HUGE), "1e309")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chdir(work)  # a relative out_dir lands here
        try:
            # a warning would print to stderr too, so it counts as a line
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["solve", "--config", path] + ["--force"] * force)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), text
    if not isinstance(cfg.get("log_vectors", False), bool):
        assert code == 2, text
    if isinstance(cfg.get("problem"), dict) and \
            isinstance(cfg["problem"].get("seed"), (float, str)):
        assert code == 2, text
    if any(isinstance(cfg.get(key), dict) and holds_text(cfg[key])
           for key in ("problem", "metric1", "metric2")):
        assert code == 2, text
    init = cfg.get("init")
    if isinstance(init, dict) and holds_text(init):
        assert code == 2, text
    if isinstance(init, dict) and any(
        isinstance(vec, list) and any(abs(e) == 1e300 for e in vec
                                      if isinstance(e, float))
        for vec in init.values()
    ):
        assert code == 2, text
    if code == 2:
        lines = stderr.getvalue().count("\n") + len(caught)
        assert lines == 1, (text, stderr.getvalue(), [str(w.message) for w in caught])
