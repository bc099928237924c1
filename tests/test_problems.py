import math

import numpy as np
import pytest

from vmadmm.diagnostics import kkt_residual
from vmadmm.errors import OracleError
from vmadmm.functions import BoxIndicator, L1Norm, Quadratic, SquaredL2, Zero
from vmadmm.linops import MetricOperator
from vmadmm.problems import (
    LCG_INCREMENT,
    LCG_MODULUS,
    LCG_MULTIPLIER,
    build_problem,
    lcg_uniforms,
    noisy_ramp,
    oracle,
    toy1d_saddle,
)
from vmadmm.solver import (
    ConstantSchedule,
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


def test_oracle_box_qp(box_qp, box_qp_oracle):
    P, _ = box_qp
    orc = box_qp_oracle
    assert orc.kkt <= 1e-10
    assert np.all(orc.x >= 0.0) and np.all(orc.x <= 1.0)
