import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from vmadmm.diagnostics import kkt_residual
from vmadmm.errors import OracleError
from vmadmm.functions import BoxIndicator, L1Norm, Quadratic, SquaredL2, Zero
from vmadmm import problems
from vmadmm.linops import MetricOperator, forward_difference
from vmadmm.problems import (
    LCG_INCREMENT,
    LCG_MODULUS,
    LCG_MULTIPLIER,
    build_problem,
    lcg_uniforms,
    noisy_ramp,
    oracle,
    toy1d_saddle,
    tv1d_saddle,
)
from vmadmm.solver import (
    ConstantSchedule,
    ProblemSpec,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
)


# ---------------------------------------------------------------------------
# seeded data
# ---------------------------------------------------------------------------


def test_lcg_matches_independent_recomputation():
    # recompute the stream with plain Python integer arithmetic
    seed = 12345
    state = seed
    expected = []
    for _ in range(5):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) % LCG_MODULUS
        expected.append((state >> 11) / float(1 << 53))
    assert list(lcg_uniforms(seed, 5)) == expected


def test_lcg_uniform_range_and_determinism():
    u = lcg_uniforms(7, 1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, lcg_uniforms(7, 1000))
    assert not np.array_equal(lcg_uniforms(7, 10), lcg_uniforms(8, 10))


# SHA-256 of lcg_uniforms(seed, count).tobytes(), recorded from the per-draw
# loop: the benchmark's tv1d, box-qp and lasso-split (rows 300) draws at n =
# 200, then tv1d, lasso-split and box-qp at their default seeds and sizes
CATALOG_DIGESTS = {
    (1, 200): "27010d470d4e241a5f7ad01bc967bbec8ff91e0491e245883920e28514a2e7f0",
    (1, 60300): "5864e84c9e8b171eadb72a5ec025214685113bf849509374009ce70eefaf39b1",
    (1, 40200): "51bb0864cb22377041e1312282c77883365f46e64e63d1d9d29022ca0214d609",
    (20240801, 50): "bbeadde5b28d20cfbee02ecae2a5427e4884060f0cba5d346d5c0a5904d5963b",
    (20240802, 630): "6fac7bf23b4837be2a9872b6fa793db85b2cb3f13f0f63ba9a254e2efaa0b76e",
    (20240803, 110): "f49d49db5d95f61e344dc69a8a07317f65f7a570974ef725bb2c5eb82c9bf9ec",
}


@pytest.mark.parametrize("seed, count", sorted(CATALOG_DIGESTS))
def test_lcg_catalog_draws_keep_their_digests(seed, count):
    digest = hashlib.sha256(lcg_uniforms(seed, count).tobytes()).hexdigest()
    assert digest == CATALOG_DIGESTS[seed, count]


def test_lcg_draws_hold_one_array_of_their_floats():
    # the states are cast to floats in place, a chunk at a time: the peak
    # is the one array of count floats and a chunk, not two arrays
    count = 60300
    lcg_uniforms(1, 10)  # one-time allocations out of the way
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        lcg_uniforms(1, count)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 8 * count + 64 * 1024


# SHA-256 of (Q.tobytes(), q.tobytes()) of the built quadratic term, recorded
# before the data was built in place: lasso-split's (with the quadratic in h
# and in g) and box-qp's, at their default sizes and at the benchmark's n=200
DATA_DIGESTS = {
    ("lasso-split", 20): (
        "614b10d286afa637b8d7bdce1a52d2e5ff5de4b8199af9391cec9540a8cda3e9",
        "cdb46c228af70f35a21da49dba419df798d870178bf493cacc55d4f7fef7f539",
    ),
    ("lasso-split", 200): (
        "65092bf5253a27e2a366368d916ef5414d060184bbc40d628143c9b070e91553",
        "26965eb51c3f58de3df6fb6aa6a134d8b644d019024591816c10a2bbb3e56e1b",
    ),
    ("box-qp", 10): (
        "a024444408b6e57e36893da7a1aedac3f7013fd4d82057bb73fb165b4febae0e",
        "6cf4c68838de82e5dd85ff5a0834dfedd1437c0bbfa868dcab88198564e0e196",
    ),
    ("box-qp", 200): (
        "739e8672d96d4aef816ffcd311745f404ada5ac2873e2ec79d5671475dd1a894",
        "70de45ceacda134316be0ca0341dd34fdf8ea1989fa716fd41d1ae527422118b",
    ),
}
DATA_BUILDS = [
    ("lasso-split", {"quadratic_in": "h"}, "h", 20),
    ("lasso-split", {"quadratic_in": "g"}, "g", 20),
    ("lasso-split", {"quadratic_in": "h", "n": 200, "rows": 300}, "h", 200),
    ("lasso-split", {"quadratic_in": "g", "n": 200, "rows": 300}, "g", 200),
    ("box-qp", {}, "h", 10),
    ("box-qp", {"n": 200}, "h", 200),
]


@pytest.mark.parametrize("name, params, side, n", DATA_BUILDS,
                         ids=[f"{name}-{side}-{n}" for name, _, side, n in DATA_BUILDS])
def test_catalog_data_keeps_its_digests(name, params, side, n):
    quad = getattr(build_problem(name, **params)[0], side)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (quad.Q, quad.q))
    assert digests == DATA_DIGESTS[name, n]


@pytest.mark.parametrize("name, params, draws, multiple", [
    # the quadratic's Q (n^2 floats) is the argument, its symmetrized copy
    # and eigvalsh's work copy at once: about 2.0 and 3.0 draws' bytes
    ("lasso-split", {"n": 200, "rows": 300}, 200 * 300 + 300, 2.5),
    ("box-qp", {"n": 200}, 200 * 200 + 200, 3.5),
], ids=["lasso-split", "box-qp"])
def test_catalog_build_peaks_at_a_few_times_its_draws(name, params, draws, multiple):
    # the draws and the design (base) matrix are dead once (Q, q) exists
    build_problem(name, **params)  # one-time allocations out of the way
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        build_problem(name, **params)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < multiple * 8 * draws


@pytest.mark.parametrize("seed", [3.0, 1e300, float("inf"), "3", None])
def test_lcg_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(TypeError):
        lcg_uniforms(seed, 0)
    with pytest.raises(TypeError):
        build_problem("tv1d", n=5, seed=seed)


def test_lcg_takes_the_seed_mod_two_to_the_64():
    assert np.array_equal(lcg_uniforms(-1, 50), lcg_uniforms(2**64 - 1, 50))
    assert np.array_equal(lcg_uniforms(2**64 + 5, 50), lcg_uniforms(5, 50))
    assert np.array_equal(lcg_uniforms(np.int64(5), 50), lcg_uniforms(5, 50))


def test_noisy_ramp_shape_and_bounds():
    data = noisy_ramp(50, seed=1, noise=0.25)
    assert data.shape == (50,)
    ramp = np.arange(50) / 49.0
    assert np.all(np.abs(data - ramp) <= 0.25)


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------


def test_tv1d_dimensions_and_kinds():
    P, meta = build_problem("tv1d", n=50, lam=0.5)
    assert (P.n, P.m) == (50, 49)
    assert isinstance(P.f, Zero)
    assert isinstance(P.h, SquaredL2)
    assert isinstance(P.g, L1Norm)
    assert meta["L"] == 1.0
    assert 1.99 < meta["norm_A"] < 2.0


def test_tv1d_builds_and_solves_above_n_300():
    # the top eigenvalues of D*D are O(1/n^2) apart, too close for power
    # iteration to resolve from n = 300 on; the norm comes in closed form
    for n in (300, 1000):
        _, meta = build_problem("tv1d", n=n)
        assert meta["norm_A"] == 2.0 * math.cos(math.pi / (2 * n))
    P, meta = build_problem("tv1d", n=300)
    tau = 0.95 / (P.c * meta["norm_A"] ** 2 + meta["L"])
    state, trace = run(
        P,
        initial_state(P),
        ShiftedGramSchedule(tau, P.c, P.A),
        ConstantSchedule(MetricOperator.zero(P.m)),
        StoppingRule(max_iters=5000, kkt_tol=1e-8),
    )
    assert trace.iterations < 5000
    assert kkt_residual(P, state.x, state.y) <= 1e-8


def test_lasso_split_variants():
    P_h, _ = build_problem("lasso-split")
    assert isinstance(P_h.h, Quadratic) and isinstance(P_h.g, Zero)
    P_g, _ = build_problem("lasso-split", quadratic_in="g")
    assert isinstance(P_g.h, Zero) and isinstance(P_g.g, Quadratic)
    assert P_g.A.is_identity
    with pytest.raises(ValueError):
        build_problem("lasso-split", quadratic_in="x")


def test_box_qp_lipschitz_from_eigensolve():
    P, meta = build_problem("box-qp", n=10)
    assert isinstance(P.f, BoxIndicator)
    lam_max = float(np.linalg.eigvalsh(P.h.Q)[-1])
    assert meta["L"] == pytest.approx(lam_max)


def test_toy1d_hand_saddle_formula():
    xs, zs, ys = toy1d_saddle(lam=1.0, target=3.0, sigma=1.0)
    assert xs[0] == 2.0 and zs[0] == 2.0 and ys[0] == -1.0
    P, _ = build_problem("toy1d")
    assert kkt_residual(P, xs, ys) <= 1e-12


def test_toy1d_kinds_parameterized():
    P, _ = build_problem("toy1d", h_kind="squared_l2", h_shift=1.0, h_weight=2.0)
    assert isinstance(P.h, SquaredL2) and P.h.lipschitz == 2.0
    P2, _ = build_problem("toy1d", h_kind="huber", h_delta=0.5)
    assert P2.h.lipschitz == pytest.approx(2.0)
    P3, _ = build_problem("toy1d", h_kind="quadratic", h_weight=3.0)
    assert isinstance(P3.h, Quadratic)
    with pytest.raises(ValueError):
        build_problem("toy1d", h_kind="mystery")


def test_unknown_problem_name():
    with pytest.raises(ValueError) as exc:
        build_problem("tv2d")
    assert "tv1d" in str(exc.value)


def test_invalid_params():
    with pytest.raises(ValueError):
        build_problem("tv1d", n=1)
    with pytest.raises(ValueError):
        build_problem("tv1d", lam=-1.0)
    with pytest.raises(ValueError):
        build_problem("box-qp", n=0)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_toy1d_matches_hand_derivation(toy1d_oracle):
    xs, zs, ys = toy1d_saddle()
    orc = toy1d_oracle
    assert abs(orc.x[0] - xs[0]) <= 1e-8
    assert abs(orc.z[0] - zs[0]) <= 1e-8
    assert abs(orc.y[0] - ys[0]) <= 1e-8


def test_oracle_tv1d_certificates(tv1d, tv1d_oracle):
    P, _ = tv1d
    orc = tv1d_oracle
    assert orc.kkt < 1e-10
    assert np.array_equal(orc.z, P.A.apply(orc.x))
    from vmadmm.diagnostics import dual_objective

    primal = P.f(orc.x) + P.h(orc.x) + P.g(P.A.apply(orc.x))
    assert abs(primal - dual_objective(P, orc.y)) < 1e-8


def test_oracle_budget_exhaustion_carries_best():
    P, _ = build_problem("tv1d", n=30)
    with pytest.raises(OracleError) as exc:
        oracle(P, budget=10)
    assert np.isfinite(exc.value.best_kkt)


# SHA-256 of the oracle's x, z, y and (kkt, iterations) bytes, recorded
# before the reference stepped plain vectors
ORACLE_DIGESTS = [
    ("tv1d", {"n": 50},
     "f9df6675de488815415399264fd6c9b4c27c8484546af56644f4f1ec76f10385"),
    ("lasso-split", {"n": 20, "quadratic_in": "g"},
     "4e8aec77d64a1b36884063d4222b1ef9b6fdeed5219c35cc3fad04f3134e028a"),
    ("box-qp", {"n": 13},
     "9acd5c1caf7e2707c55c8acc85f0a27bd21ebdea97fd28fa3af6e3a72ed31c99"),
]


@pytest.mark.parametrize("name, params, expected", ORACLE_DIGESTS,
                         ids=["tv1d-50", "lasso-split-g-20", "box-qp-13"])
def test_oracle_bits_pinned(name, params, expected):
    orc = oracle(build_problem(name, **params)[0])
    digest = hashlib.sha256()
    for v in (orc.x, orc.z, orc.y, np.array([orc.kkt, orc.iterations])):
        digest.update(v.tobytes())
    assert digest.hexdigest() == expected


def test_oracle_box_qp(box_qp, box_qp_oracle):
    P, _ = box_qp
    orc = box_qp_oracle
    assert orc.kkt <= 1e-10
    assert np.all(orc.x >= 0.0) and np.all(orc.x <= 1.0)


# ---------------------------------------------------------------------------
# direct tv1d saddle
# ---------------------------------------------------------------------------


def _tv1d_spec(data, lam, weight=1.0):
    n = len(data)
    return ProblemSpec(f=Zero(n), h=SquaredL2(n, shift=data, weight=weight),
                       g=L1Norm(n - 1, weight=lam), A=forward_difference(n), c=1.0)


@pytest.mark.parametrize("lam", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [5, 30, 120])
def test_tv1d_saddle_agrees_with_the_oracle(n, seed, lam):
    P, _ = build_problem("tv1d", n=n, lam=lam, seed=seed)
    direct, orc = tv1d_saddle(P), oracle(P)
    assert direct.kkt <= 1e-12 and direct.iterations == 0
    assert np.array_equal(direct.z, P.A.apply(direct.x))
    # the oracle stops at KKT 1e-10; x is held to 1e-8 (its worst distance
    # here is 1.2e-9), and y is pinned by A* y = data - x only through the
    # smallest singular value 2 sin(pi / (2n)) of A
    x_tol = 1e-8
    y_tol = (x_tol + math.sqrt(n) * 1e-10) / (2.0 * math.sin(math.pi / (2 * n)))
    assert np.abs(direct.x - orc.x).max() <= x_tol
    assert np.abs(direct.y - orc.y).max() <= y_tol


def test_tv1d_saddle_of_a_constant_signal_is_the_signal():
    data = np.full(7, 0.3)
    s = tv1d_saddle(_tv1d_spec(data, 0.5))
    assert np.array_equal(s.x, data)
    assert not s.y.any() and not s.z.any()


def test_tv1d_saddle_of_a_single_jump_shrinks_it_by_lam():
    # the jump of height 1 after k samples keeps its place and loses
    # lam / k on the left and lam / (n - k) on the right
    n, k, lam = 9, 4, 0.6
    data = np.r_[np.zeros(k), np.ones(n - k)]
    s = tv1d_saddle(_tv1d_spec(data, lam))
    expected = np.r_[np.full(k, lam / k), np.full(n - k, 1.0 - lam / (n - k))]
    assert np.abs(s.x - expected).max() <= 1e-15
    assert s.y[k - 1] == pytest.approx(lam, abs=1e-15)  # on the bound at the jump


def test_tv1d_saddle_is_the_mean_from_the_largest_partial_sum_on():
    # x = mean(data) is optimal iff lam >= max |cumsum(data - mean)|, a
    # threshold that can exceed the total variation of the data
    data = noisy_ramp(40, 3)
    threshold = float(np.abs(np.cumsum(data - data.mean())).max())
    above = tv1d_saddle(_tv1d_spec(data, threshold * (1.0 + 1e-9)))
    assert np.abs(above.x - data.mean()).max() <= 1e-15
    assert not above.z.any()
    below = tv1d_saddle(_tv1d_spec(data, threshold * 0.99))
    assert above.kkt <= 1e-12 and np.ptp(below.x) > 0.0
    halves = np.r_[np.zeros(3), np.ones(3)]  # total variation 1, threshold 1.5
    assert np.ptp(tv1d_saddle(_tv1d_spec(halves, 1.2)).x) > 0.0
    assert np.ptp(tv1d_saddle(_tv1d_spec(halves, 1.5)).x) == 0.0


def test_tv1d_saddle_scales_lam_by_the_data_weight():
    data = noisy_ramp(25, 4)
    weighted = tv1d_saddle(_tv1d_spec(data, 0.8, weight=2.0))
    assert np.array_equal(weighted.x, tv1d_saddle(_tv1d_spec(data, 0.4)).x)
    assert weighted.kkt <= 1e-12


def test_tv1d_saddle_certifies_n_10000_without_iterating(monkeypatch):
    monkeypatch.setattr(problems, "condat_step", _refuse)
    P, _ = build_problem("tv1d", n=10_000, lam=0.5, seed=1)
    t0 = time.perf_counter()
    s = tv1d_saddle(P)
    elapsed = time.perf_counter() - t0
    assert s.kkt <= 1e-10 and s.iterations == 0
    assert elapsed < 0.5  # about 8 ms on a 2-core host; the oracle takes 2.3 s


def _refuse(*args, **kwargs):
    raise AssertionError("reached")


def _tv1d_with_an_l1_f():
    P, _ = build_problem("tv1d", n=6)
    return ProblemSpec(f=L1Norm(6, 1.0), h=P.h, g=P.g, A=P.A, c=P.c)


@pytest.mark.parametrize("build, kinds", [
    (lambda: build_problem("lasso-split", n=4, rows=6)[0],
     "L1Norm, Quadratic, identity and Zero"),
    (lambda: build_problem("toy1d")[0], "L1Norm, Zero, identity and SquaredL2"),
    (lambda: build_problem("box-qp", n=3)[0],
     "BoxIndicator, Quadratic, identity and Zero"),
    (_tv1d_with_an_l1_f, "L1Norm, SquaredL2, forward_difference and L1Norm"),
], ids=["lasso-split", "toy1d", "box-qp", "tv1d-l1-f"])
def test_tv1d_saddle_rejects_a_problem_not_in_tv1d_form(build, kinds):
    with pytest.raises(ValueError, match=f"tv1d_saddle needs f Zero.*got {kinds}$"):
        tv1d_saddle(build())


def test_tv1d_saddle_raises_above_kkt_1e_10_and_never_iterates(monkeypatch):
    monkeypatch.setattr(problems, "oracle", _refuse)
    monkeypatch.setattr(problems, "condat_step", _refuse)
    exact = problems._condat_denoise
    monkeypatch.setattr(problems, "_condat_denoise",
                        lambda data, lam: exact(data, lam) + 1e-9)
    P, _ = build_problem("tv1d", n=20)
    with pytest.raises(OracleError, match="direct tv1d saddle") as exc:
        tv1d_saddle(P)
    assert exc.value.best_kkt > 1e-10


@pytest.mark.parametrize("name, params, match", [
    ("lasso-split", {"n": 4, "rows": 3}, "lasso-split needs rows >= n"),
    ("lasso-split", {"lam": 0.0}, "lasso-split needs lam > 0"),
    ("toy1d", {"sigma": 0.0}, "sigma > 0"),
], ids=["lasso-rows", "lasso-lam", "toy1d-sigma"])
def test_catalog_refusals_name_the_parameter(name, params, match):
    with pytest.raises(ValueError, match=match):
        build_problem(name, **params)
