import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from helpers import KahanAverager, count_eigh, count_factorizations, minimize_1d
from vmadmm import diagnostics, experiments, functions, solver
from vmadmm.errors import (
    AssumptionError,
    NonFiniteIterate,
    NotPositiveSemidefinite,
    SingularSubproblem,
    StrategyError,
    UnsupportedMetric,
)
from vmadmm.functions import (
    BoxIndicator,
    ConvexFunction,
    Huber,
    L1Norm,
    Quadratic,
    SquaredL2,
    Zero,
)
from vmadmm.linops import LinearMap, MetricOperator, forward_difference, min_eigenvalue
from vmadmm.problems import build_problem, toy1d_saddle
from vmadmm.solver import (
    ConstantSchedule,
    GeometricDecaySchedule,
    ProblemSpec,
    RunTrace,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
    step,
    validate_assumptions,
    x_strategy,
    x_update,
    y_update,
    z_strategy,
    z_update,
)


def scalar_problem(f=None, h=None, g=None, c=1.0):
    return ProblemSpec(
        f=f or Zero(1),
        h=h or Zero(1),
        g=g or Zero(1),
        A=LinearMap.identity(1),
        c=c,
    )


def state1(P, x, z, y):
    return initial_state(P, [x], [z], [y])


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def test_problem_spec_validates_dims():
    with pytest.raises(Exception):
        ProblemSpec(f=Zero(2), h=Zero(3), g=Zero(3), A=LinearMap.identity(3), c=1.0)


def test_problem_spec_requires_smooth_h():
    with pytest.raises(ValueError):
        ProblemSpec(
            f=Zero(2), h=L1Norm(2, 1.0), g=Zero(2), A=LinearMap.identity(2), c=1.0
        )


def test_problem_spec_requires_positive_c():
    with pytest.raises(ValueError):
        scalar_problem(c=0.0)


def _spec_with_lipschitz(A, lipschitz):
    h = SquaredL2(2, 0.0, 1.0)
    h.lipschitz = lipschitz
    return ProblemSpec(f=Zero(2), h=h, g=Zero(2), A=A, c=1.0)


# each sign check, with NaN in the place of the quantity it tests
NAN_SIGN_CHECKS = {
    "shifted-gram-tau": lambda A: MetricOperator.shifted_gram(math.nan, 1.0, A),
    "shifted-gram-coupling": lambda A: MetricOperator.shifted_gram(0.5, math.nan, A),
    "scaled": lambda A: MetricOperator.scaled_identity(2, 1.0).scaled(math.nan),
    "schedule-taus": lambda A: ShiftedGramSchedule([0.5, math.nan], 1.0, A),
    "problem-spec-lipschitz": lambda A: _spec_with_lipschitz(A, math.nan),
}


@pytest.mark.parametrize("name", sorted(NAN_SIGN_CHECKS))
def test_sign_checks_reject_nan(name):
    with pytest.raises((ValueError, NotPositiveSemidefinite),
                       match="positive|>=? 0"):
        NAN_SIGN_CHECKS[name](LinearMap.identity(2))


# each scaling whose factor or result is infinite: no factory makes the metric
INF_SCALINGS = {
    "factor": lambda: MetricOperator.scaled_identity(3, 1.0).scaled(math.inf),
    "overflow": lambda: MetricOperator.scaled_identity(3, 1e308).scaled(10.0),
    # (M + M^T) / 2 of the scaled matrix overflows
    "dense-overflow": lambda: MetricOperator.dense([[1e307, 0.0], [0.0, 1.0]]).scaled(10.0),
    # tau / s overflows
    "shifted-gram-underflow": lambda: MetricOperator.shifted_gram(
        1.0, 1.0, LinearMap.identity(1)).scaled(1e-320),
    "geometric-shifted-gram-k1030": lambda: GeometricDecaySchedule(
        MetricOperator.shifted_gram(0.2, 1.0, forward_difference(5)), 0.5).metric(1030),
}


@pytest.mark.parametrize("name", sorted(INF_SCALINGS))
def test_scaled_rejects_an_infinite_metric(name):
    with pytest.raises(ValueError, match="finite"):
        INF_SCALINGS[name]()


@pytest.mark.parametrize("make, match", [
    # a Huber h with a subnormal delta has weight / delta = inf
    (lambda: _spec_with_lipschitz(LinearMap.identity(2), math.inf),
     "finite Lipschitz constant"),
    # the first x update would compute inf * 0
    (lambda: build_problem("toy1d", c=math.inf), "penalty c must be a finite"),
], ids=["lipschitz", "c"])
def test_problem_spec_rejects_an_infinite_lipschitz_constant(make, match):
    with pytest.raises(ValueError, match=match):
        make()


# ---------------------------------------------------------------------------
# x update
# ---------------------------------------------------------------------------


def test_x_update_least_squares_onto_target():
    P = scalar_problem()
    out = x_update(P, state1(P, 0.0, 2.0, 0.0), MetricOperator.zero(1))
    assert out == pytest.approx([2.0])


def test_x_update_linearized_derived():
    # strategy (a); oracle: 1-D minimization of |x| + 0.5 (x - 3)^2 + 0.5 x^2
    P = scalar_problem(f=L1Norm(1, 1.0))
    m1 = MetricOperator.shifted_gram(0.5, 1.0, P.A)
    out = x_update(P, state1(P, 0.0, 3.0, 0.0), m1)
    expected = minimize_1d(
        lambda x: abs(x) + 0.5 * (x - 3.0) ** 2 + 0.5 * (x - 0.0) ** 2 * (2.0 - 1.0),
        -5.0,
        5.0,
    )
    assert out[0] == pytest.approx(expected, abs=5e-8)
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_x_update_quadratic_derived():
    # strategy (b); oracle: minimize x^2/2 + (x-1)*1 + x^2/2 + (x-1)^2/2
    P = scalar_problem(f=Quadratic([[1.0]], [0.0]), h=SquaredL2(1, 0.0, 1.0))
    out = x_update(P, state1(P, 1.0, 0.0, 0.0), MetricOperator.scaled_identity(1, 1.0))
    expected = minimize_1d(
        lambda x: 0.5 * x * x
        + (x - 1.0) * 1.0
        + 0.5 * x * x
        + 0.5 * (x - 1.0) ** 2,
        -5.0,
        5.0,
    )
    assert out[0] == pytest.approx(expected, abs=5e-8)
    assert out[0] == pytest.approx(0.0, abs=1e-12)


def test_x_update_prox_direct_strategy():
    # strategy (c): A identity, scaled-identity metric, proxable f
    P = scalar_problem(f=L1Norm(1, 1.0), c=2.0)
    m1 = MetricOperator.scaled_identity(1, 3.0)
    out = x_update(P, state1(P, 1.0, 3.0, -1.0), m1)
    expected = minimize_1d(
        lambda x: abs(x) + 1.0 * (x - 3.5) ** 2 + 1.5 * (x - 1.0) ** 2, -5.0, 5.0
    )
    assert out[0] == pytest.approx(expected, abs=5e-8)


def test_x_update_optimality_inclusion_residual():
    # returned x must satisfy the stationarity inclusion to 1e-10
    cases = []
    P1, _ = build_problem("tv1d", n=20)
    shared = MetricOperator.scaled_identity(P1.n, 1.0)
    cases.append((P1, MetricOperator.shifted_gram(0.2, 1.0, P1.A)))
    cases.append((P1, shared))
    # non-diagonal metrics on the QUADRATIC path, added to c A*A densely
    tridiagonal = np.eye(P1.n) + 0.1 * (np.eye(P1.n, k=1) + np.eye(P1.n, k=-1))
    cases.append((P1, MetricOperator.dense(tridiagonal)))
    cases.append((P1, MetricOperator.shifted_gram(0.2, 0.5, P1.A)))
    P2, _ = build_problem("box-qp", n=8)
    cases.append((P2, MetricOperator.scaled_identity(P2.n, 2.0)))
    P3, _ = build_problem("lasso-split")
    cases.append((P3, MetricOperator.shifted_gram(0.4, 1.0, P3.A)))
    # the QUADRATIC factor cached on one metric object must follow the
    # problem when that object serves systems that differ in c or in Q
    P4, _ = build_problem("tv1d", n=20, c=2.0)
    B = np.random.default_rng(11).standard_normal((P1.n, P1.n))
    P5 = ProblemSpec(
        f=Quadratic(B @ B.T, B[0]), h=P1.h, g=P1.g, A=P1.A, c=1.0
    )
    cases += [(P4, shared), (P5, shared), (P1, shared)]
    rng = np.random.default_rng(5)
    for P, m1 in cases:
        state = initial_state(
            P, rng.standard_normal(P.n), rng.standard_normal(P.m), rng.standard_normal(P.m)
        )
        x_next = x_update(P, state, m1)
        target = (
            -P.h.grad(state.x)
            + P.c * P.A.adjoint(state.z - state.y / P.c - P.A.apply(x_next))
            + m1.apply(state.x - x_next)
        )
        assert P.f.distance_to_subdifferential(x_next, target) <= 1e-10


def test_x_update_no_strategy_errors():
    # f neither zero nor quadratic, A not identity, metric does not linearize
    P = ProblemSpec(
        f=L1Norm(2, 1.0),
        h=Zero(2),
        g=Zero(1),
        A=LinearMap.from_dense([[1.0, 1.0]]),
        c=1.0,
    )
    state = initial_state(P)
    with pytest.raises(StrategyError) as exc:
        x_update(P, state, MetricOperator.zero(2))
    assert "Gram" in str(exc.value)


def test_x_strategy_names_each_exact_update():
    P = scalar_problem(f=L1Norm(1, 1.0))
    assert x_strategy(P, MetricOperator.shifted_gram(0.5, P.c, P.A)) == "linearized"
    assert x_strategy(P, MetricOperator.scaled_identity(1, 1.0)) == "prox_direct"
    assert x_strategy(scalar_problem(), MetricOperator.zero(1)) == "quadratic"
    # a shifted Gram metric on another coupling linearizes nothing
    with pytest.raises(StrategyError):
        x_strategy(P, MetricOperator.shifted_gram(0.5, 2.0, P.A))


def test_z_strategy_names_each_exact_update():
    P = scalar_problem()
    assert z_strategy(P, MetricOperator.zero(1)) == "scalar"
    assert z_strategy(P, MetricOperator.scaled_identity(1, 2.0)) == "scalar"
    assert z_strategy(P, MetricOperator.diagonal([2.0])) == "diagonal"
    # a scaled identity needs only prox, so it serves a quadratic g too
    Q = scalar_problem(g=Quadratic([[1.0]]))
    assert z_strategy(Q, MetricOperator.scaled_identity(1, 2.0)) == "scalar"
    for problem, m2 in ((Q, MetricOperator.diagonal([2.0])),
                        (P, MetricOperator.dense([[2.0]])),
                        (P, MetricOperator.shifted_gram(0.5, P.c, P.A))):
        with pytest.raises(UnsupportedMetric):
            z_strategy(problem, m2)


@pytest.mark.parametrize("m2", [
    MetricOperator.diagonal([0.5] * 8),
    MetricOperator.dense(np.eye(8)),
], ids=["diagonal", "dense"])
def test_validator_and_forced_run_refuse_an_m2_alike(m2):
    # one decision, so the validator and a forced run raise one error
    P, _ = build_problem("lasso-split", n=8, rows=12, quadratic_in="g")
    s1 = ConstantSchedule(MetricOperator.scaled_identity(8, 1.0))
    s2 = ConstantSchedule(m2)
    with pytest.raises(UnsupportedMetric) as validated:
        validate_assumptions(P, s1, s2)
    with pytest.raises(UnsupportedMetric) as forced:
        run(P, initial_state(P), s1, s2, StoppingRule(max_iters=1), force=True)
    assert str(forced.value) == str(validated.value)
    assert "separable g" in str(forced.value)


class _GradOnly(ConvexFunction):
    lipschitz = 0.0

    def __call__(self, x):
        return 0.0

    def _grad(self, x):
        return np.zeros(self.dim)


class _DeclaresProxable(ConvexFunction):
    proxable = True  # without a _prox: the flag is read from the kernels

    def __call__(self, x):
        return 0.0


@pytest.mark.parametrize("f", [
    Zero(2), L1Norm(2, 1.0), SquaredL2(2), BoxIndicator(2, -1.0, 1.0),
    Quadratic(np.eye(2)), Huber(2, 0.5), _GradOnly(2), _DeclaresProxable(2),
], ids=lambda f: type(f).__name__)
def test_capability_flags_are_the_methods_a_kind_defines(f):
    defines = vars(type(f))  # each kind here derives from ConvexFunction itself
    assert f.proxable == ("_prox" in defines)
    assert f.separable == ("_prox_diag" in defines)
    assert f.smooth == ("_grad" in defines)


def test_capability_flags_decide_what_a_problem_accepts():
    # a kind with a grad serves as h; one without a prox has no x update
    A = LinearMap.identity(2)
    assert ProblemSpec(f=Zero(2), h=_GradOnly(2), g=Zero(2), A=A, c=1.0).h.smooth
    P = ProblemSpec(f=_DeclaresProxable(2), h=Zero(2), g=Zero(2), A=A, c=1.0)
    s = ConstantSchedule(MetricOperator.scaled_identity(2, 1.0))
    with pytest.raises(StrategyError):
        validate_assumptions(P, s, s)


def test_x_update_singular_system():
    # a failed factorization is never cached: every call raises again, and
    # the same metric still serves a problem whose system is definite
    P = ProblemSpec(
        f=Zero(2), h=Zero(2), g=Zero(1), A=LinearMap.zero(1, 2), c=1.0
    )
    state = initial_state(P)
    m1 = MetricOperator.zero(2)
    for _ in range(2):
        with pytest.raises(SingularSubproblem):
            x_update(P, state, m1)
    definite = ProblemSpec(
        f=Zero(2), h=Zero(2), g=Zero(2), A=LinearMap.identity(2), c=1.0
    )
    target = np.array([1.0, -2.0])
    state = initial_state(definite, z0=target)
    assert x_update(definite, state, m1) == pytest.approx(target)


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0])
def test_x_update_tv1d_zero_m1_singular(c, monkeypatch):
    # c D*D is singular for every c, also where rounding leaves the last
    # Cholesky pivot positive (c = 0.5), whether D records its Gram bands or
    # is a dense copy: rejected before any factorization, nothing is cached,
    # and the same metric then serves a definite problem
    factorizations = count_factorizations(monkeypatch)
    P, _ = build_problem("tv1d", n=20, c=c)
    m1 = MetricOperator.zero(P.n)
    dense = ProblemSpec(f=P.f, h=P.h, g=P.g, A=LinearMap.from_dense(P.A.to_dense()), c=c)
    for problem in (P, dense):
        for _ in range(2):
            with pytest.raises(SingularSubproblem, match="singular"):
                x_update(problem, initial_state(problem), m1)
    assert factorizations == []
    definite = ProblemSpec(
        f=Zero(P.n), h=Zero(P.n), g=Zero(P.n), A=LinearMap.identity(P.n), c=1.0
    )
    target = np.linspace(-1.0, 1.0, P.n)
    state = initial_state(definite, z0=target)
    assert x_update(definite, state, m1) == pytest.approx(target)


@pytest.mark.parametrize("banded", [True, False])
def test_x_update_lapack_solve_matches_scipy_bitwise(banded):
    # the QUADRATIC solve calls dpbtrs / dpotrs on the cached factor; it
    # must equal scipy's checked cho_solve_banded / cho_solve bit for bit
    P, _ = build_problem("tv1d", n=30, c=0.7)
    if banded:
        m1 = MetricOperator.diagonal(np.linspace(0.5, 2.0, P.n))
    else:
        P = ProblemSpec(f=Quadratic(np.diag(np.linspace(0.0, 1.0, P.n)), np.ones(P.n)),
                        h=P.h, g=P.g, A=P.A, c=P.c)
        m1 = MetricOperator.scaled_identity(P.n, 1.5)
    rng = np.random.default_rng(5)
    state = initial_state(P, rng.standard_normal(P.n), rng.standard_normal(P.m),
                          rng.standard_normal(P.m))
    x_next = x_update(P, state, m1)
    factor = solver._quadratic_factor(P, m1)[1]  # the bound update's factor, rebuilt
    rhs = -P.h.grad(state.x) + P.c * P.A.adjoint(state.z - state.y / P.c) + m1.apply(state.x)
    if banded:
        expected = scipy.linalg.cho_solve_banded((factor, False), rhs)
    else:
        expected = scipy.linalg.cho_solve((factor, False), rhs - P.f.q)
    assert factor.shape == ((2, P.n) if banded else (P.n, P.n))
    assert np.array_equal(x_next, expected)


class RebuiltEachStepSchedule(ConstantSchedule):
    """A constant scaled-identity metric, rebuilt as a new object at every k."""

    def metric(self, k):
        return MetricOperator.scaled_identity(self._metric0.dim, self._metric0.mu)


def test_run_quadratic_factors_once_per_metric_object(monkeypatch):
    P, _ = build_problem("tv1d", n=20)
    sched2 = ConstantSchedule(MetricOperator.zero(P.m))
    K = 12
    factorizations = count_factorizations(monkeypatch)

    def run_counting(sched1):
        factorizations.clear()
        state, _ = run(
            P, initial_state(P), sched1, sched2, StoppingRule(max_iters=K), force=True
        )
        return state, len(factorizations)

    constant, n_constant = run_counting(
        ConstantSchedule(MetricOperator.scaled_identity(P.n, 2.0))
    )
    fresh, n_fresh = run_counting(
        RebuiltEachStepSchedule(MetricOperator.scaled_identity(P.n, 2.0))
    )
    _, n_decaying = run_counting(
        GeometricDecaySchedule(MetricOperator.scaled_identity(P.n, 2.0), 0.9)
    )
    assert (n_constant, n_fresh, n_decaying) == (1, K, K)
    for a, b in zip((constant.x, constant.z, constant.y), (fresh.x, fresh.z, fresh.y)):
        assert np.array_equal(a, b)  # bitwise


@pytest.mark.parametrize("m1", [
    lambda P: MetricOperator.shifted_gram(0.2, P.c, P.A),
    lambda P: MetricOperator.scaled_identity(P.n, 2.0),
], ids=["linearized", "quadratic"])
def test_run_decides_each_strategy_once_per_problem_and_metric(monkeypatch, m1):
    decided = []
    for name in ("x_strategy", "z_strategy"):
        def counting(problem, metric, name=name, decide=getattr(solver, name)):
            decided.append(name)
            return decide(problem, metric)
        monkeypatch.setattr(solver, name, counting)
    P, _ = build_problem("tv1d", n=12)
    sched1 = ConstantSchedule(m1(P))
    sched2 = ConstantSchedule(MetricOperator.zero(P.m))
    for problem in (P, dataclasses.replace(P)):  # a new problem decides again
        run(problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=9),
            force=True)
    assert decided == ["x_strategy", "z_strategy"] * 2


def test_run_geometric_m2_on_quadratic_g_decomposes_once(monkeypatch):
    # a decaying M2 changes the z-update step every iteration; the prox of
    # the quadratic g reuses one eigendecomposition of Q for all of them
    P, _ = build_problem("lasso-split", n=8, rows=12, quadratic_in="g")
    sched1 = ConstantSchedule(MetricOperator.scaled_identity(P.n, 1.0))
    sched2 = GeometricDecaySchedule(MetricOperator.scaled_identity(P.m, 1.0), 0.9)
    factorizations = count_factorizations(monkeypatch)
    decompositions = count_eigh(monkeypatch)
    _, trace = run(P, initial_state(P), sched1, sched2, StoppingRule(max_iters=40))
    assert trace.iterations == 40
    assert decompositions == [(P.m, P.m)]
    assert factorizations == []


# ---------------------------------------------------------------------------
# z update
# ---------------------------------------------------------------------------


def test_z_update_unconstrained():
    P = scalar_problem(c=1.0)
    out = z_update(P, state1(P, 0.0, 0.0, 1.0), np.array([2.0]), MetricOperator.zero(1))
    assert out == pytest.approx([3.0])  # A x+ + y/c


def test_z_update_soft_threshold():
    P = scalar_problem(g=L1Norm(1, 1.0))
    out = z_update(P, state1(P, 0.0, 0.0, 0.0), np.array([2.0]), MetricOperator.zero(1))
    assert out == pytest.approx([1.0])


def test_z_update_scaled_identity_derived():
    # oracle: minimize |z| + (z - 2)^2 / 2 + z^2 / 2
    P = scalar_problem(g=L1Norm(1, 1.0))
    out = z_update(
        P, state1(P, 0.0, 0.0, 0.0), np.array([2.0]), MetricOperator.scaled_identity(1, 1.0)
    )
    expected = minimize_1d(
        lambda z: abs(z) + 0.5 * (z - 2.0) ** 2 + 0.5 * z * z, -5.0, 5.0
    )
    assert out[0] == pytest.approx(expected, abs=5e-8)
    assert out[0] == pytest.approx(0.5, abs=1e-12)


def test_z_update_diagonal_metric():
    P = ProblemSpec(
        f=Zero(2), h=Zero(2), g=L1Norm(2, 1.0), A=LinearMap.identity(2), c=1.0
    )
    state = initial_state(P, z0=[1.0, -1.0])
    m2 = MetricOperator.diagonal([1.0, 3.0])
    out = z_update(P, state, np.array([2.0, 2.0]), m2)
    for i, d2 in enumerate([1.0, 3.0]):
        expected = minimize_1d(
            lambda z, i=i, d2=d2: abs(z)
            + 0.5 * (2.0 - z) ** 2
            + 0.5 * d2 * (z - state.z[i]) ** 2,
            -5.0,
            5.0,
        )
        assert out[i] == pytest.approx(expected, abs=5e-8)


def test_z_update_optimality_inclusion_residual():
    P, _ = build_problem("tv1d", n=15)
    rng = np.random.default_rng(8)
    state = initial_state(
        P, rng.standard_normal(P.n), rng.standard_normal(P.m), rng.standard_normal(P.m)
    )
    Ax_next = P.A.apply(rng.standard_normal(P.n))
    for m2 in (MetricOperator.zero(P.m), MetricOperator.scaled_identity(P.m, 0.7)):
        z_next = z_update(P, state, Ax_next, m2)
        target = P.c * (Ax_next - z_next + state.y / P.c) + m2.apply(
            state.z - z_next
        )
        assert P.g.distance_to_subdifferential(z_next, target) <= 1e-10


def test_z_update_objective_descent():
    # argmin property: objective at z+ is no larger than at z_k
    P, _ = build_problem("toy1d")
    m2 = MetricOperator.scaled_identity(1, 1.0)
    rng = np.random.default_rng(10)
    for _ in range(20):
        state = state1(P, rng.normal(), rng.normal(), rng.normal())
        x_next = np.array([rng.normal()])

        def objective(z):
            r = P.A.apply(x_next) - z + state.y / P.c
            return (
                P.g(z)
                + 0.5 * P.c * float(r @ r)
                + 0.5 * m2.seminorm_sq(z - state.z)
            )

        z_next = z_update(P, state, P.A.apply(x_next), m2)
        assert objective(z_next) <= objective(state.z) + 1e-12


def test_z_update_unsupported_metric():
    P = ProblemSpec(
        f=Zero(2), h=Zero(2), g=Zero(2), A=LinearMap.identity(2), c=1.0
    )
    state = initial_state(P)
    with pytest.raises(UnsupportedMetric):
        z_update(P, state, np.zeros(2), MetricOperator.dense(np.eye(2)))


# ---------------------------------------------------------------------------
# y update
# ---------------------------------------------------------------------------


def test_y_update_feasible_point_fixed():
    s = state1(scalar_problem(), 0.0, 0.0, 3.0)
    assert y_update(s, np.array([2.0]) - np.array([2.0]), 1.0) == pytest.approx([3.0])


def test_y_update_scaling():
    s = state1(scalar_problem(), 0.0, 0.0, 0.0)
    out = y_update(s, np.array([3.0]) - np.array([1.0]), 2.0)
    assert out == pytest.approx([4.0])


def test_y_update_componentwise():
    P = ProblemSpec(
        f=Zero(2), h=Zero(2), g=Zero(2), A=LinearMap.identity(2), c=1.0
    )
    s = initial_state(P, y0=[1.0, -1.0])
    out = y_update(s, np.array([1.0, 1.0]) - np.array([0.5, 0.5]), 1.0)
    assert np.allclose(out, [1.5, -0.5])


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_hand_executed():
    P = scalar_problem()
    s1 = ConstantSchedule(MetricOperator.zero(1))
    s2 = ConstantSchedule(MetricOperator.zero(1))
    out = step(P, state1(P, 0.0, 1.0, 0.0), s1, s2)
    assert out.x == pytest.approx([1.0])
    assert out.z == pytest.approx([1.0])
    assert out.y == pytest.approx([0.0])
    assert out.k == 1


def test_step_increments_k():
    P = scalar_problem()
    s = ConstantSchedule(MetricOperator.zero(1))
    state = dataclasses.replace(state1(P, 0.0, 1.0, 0.0), k=7)
    assert step(P, state, s, s).k == 8


def test_step_fixed_point_at_saddle():
    P, _ = build_problem("toy1d")
    xs, zs, ys = toy1d_saddle()
    saddle = initial_state(P, xs, zs, ys)
    schedules = [
        (
            ConstantSchedule(MetricOperator.scaled_identity(1, 1.0)),
            ConstantSchedule(MetricOperator.scaled_identity(1, 0.5)),
        ),
        (
            ShiftedGramSchedule(0.5, P.c, P.A),
            ConstantSchedule(MetricOperator.zero(1)),
        ),
    ]
    for s1, s2 in schedules:
        out = step(P, saddle, s1, s2)
        assert np.max(np.abs(out.x - xs)) <= 1e-9
        assert np.max(np.abs(out.z - zs)) <= 1e-9
        assert np.max(np.abs(out.y - ys)) <= 1e-9


def test_step_fixed_point_at_oracle(tv1d, tv1d_oracle):
    P, _ = tv1d
    orc = tv1d_oracle
    saddle = initial_state(P, orc.x, orc.z, orc.y)
    s1 = ShiftedGramSchedule(0.19, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    out = step(P, saddle, s1, s2)
    assert np.max(np.abs(out.x - orc.x)) <= 1e-9
    assert np.max(np.abs(out.z - orc.z)) <= 1e-9
    assert np.max(np.abs(out.y - orc.y)) <= 1e-9


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["x", "z", "y"])
def test_initial_state_rejects_a_vector_whose_square_overflows(name):
    P, _ = build_problem("toy1d")
    with pytest.raises(ValueError, match=f"initial {name}: squared norm overflows"):
        initial_state(P, **{f"{name}0": [1e300]})
    with pytest.raises(ValueError, match=f"initial {name}: entries must be finite"):
        initial_state(P, **{f"{name}0": [math.inf]})
    assert initial_state(P, **{f"{name}0": [1e150]}).k == 0


@pytest.mark.parametrize("fields", [
    {"max_iters": -3},
    {"max_iters": 2.5},
    {"max_iters": True},
    {"kkt_interval": 0},
    {"kkt_interval": -1},
    {"kkt_tol": math.nan},
    {"kkt_tol": -1e-8},
    {"kkt_tol": "1e-8"},
], ids=lambda fields: "{}={!r}".format(*next(iter(fields.items()))))
def test_stopping_rule_rejects_a_field_outside_its_domain(fields):
    name = next(iter(fields))
    with pytest.raises(ValueError, match=f"StoppingRule {name} must be"):
        StoppingRule(**{"max_iters": 5, **fields})


def test_stopping_rule_accepts_the_harness_and_runner_values():
    rule = StoppingRule(max_iters=20000, kkt_tol=1e-8, kkt_interval=25)
    assert (rule.max_iters, rule.kkt_tol, rule.kkt_interval) == (20000, 1e-8, 25)
    assert StoppingRule(max_iters=0).kkt_tol is None
    assert StoppingRule(max_iters=np.int64(3), kkt_tol=0, kkt_interval=1).kkt_tol == 0


def test_run_zero_iterations_returns_init():
    P, _ = build_problem("toy1d")
    s1 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    init = initial_state(P)
    state, trace = run(P, init, s1, s2, StoppingRule(max_iters=0))
    assert state is init
    assert trace.iterations == 0
    assert trace.residual_norms == []


def test_run_dual_update_bitwise_replay():
    P, _ = build_problem("toy1d")
    s1 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=50))
    for k in range(1, trace.iterations + 1):
        replay = trace.ys[k - 1] + P.c * (P.A.apply(trace.xs[k]) - trace.zs[k])
        assert np.array_equal(replay, trace.ys[k])  # bitwise


def test_run_dual_identity_along_trace():
    P, _ = build_problem("lasso-split", quadratic_in="g")
    s1 = ConstantSchedule(MetricOperator.zero(P.n))
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=200))
    for k in range(1, trace.iterations + 1):
        lhs = trace.residual_norms[k - 1]
        rhs = float(np.linalg.norm(trace.ys[k] - trace.ys[k - 1])) / P.c
        assert abs(lhs - rhs) <= 1e-12


def test_run_kkt_stopping():
    from vmadmm.diagnostics import kkt_residual

    P, _ = build_problem("toy1d")
    s1 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    state, trace = run(
        P,
        initial_state(P),
        s1,
        s2,
        StoppingRule(max_iters=10000, kkt_tol=1e-8, kkt_interval=5),
    )
    assert trace.iterations < 10000
    assert kkt_residual(P, state.x, state.y) <= 1e-8


def test_run_rejects_unsupported_schedules():
    P, _ = build_problem("toy1d")
    # decreasing steps make the shifted Gram schedule non-monotone
    s1 = ShiftedGramSchedule([0.5, 0.25], P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(1))
    with pytest.raises(AssumptionError):
        run(P, initial_state(P), s1, s2, StoppingRule(max_iters=5))
    state, trace = run(
        P, initial_state(P), s1, s2, StoppingRule(max_iters=5), force=True
    )
    assert trace.iterations == 5


def test_run_detects_nonfinite_iterates():
    class BrokenSmooth(ConvexFunction):
        lipschitz = 0.0

        def __call__(self, x):
            return 0.0

        def _grad(self, x):
            return np.array([math.nan])

    P = ProblemSpec(
        f=Zero(1), h=BrokenSmooth(1), g=Zero(1), A=LinearMap.identity(1), c=1.0
    )
    s = ConstantSchedule(MetricOperator.zero(1))
    with pytest.raises(NonFiniteIterate) as exc:
        run(P, initial_state(P), s, s, StoppingRule(max_iters=3), force=True)
    assert exc.value.iteration == 1


def test_run_stops_once_the_squared_norm_overflows():
    # M1 decays to zero and the tv1d iterates grow without bound: the run
    # stops at the first iterate whose squared norm is not finite, before
    # any entry overflows and without an overflow warning
    P, _ = build_problem("tv1d", n=20)
    s1 = GeometricDecaySchedule(MetricOperator.scaled_identity(P.n, 1.0), 0.5)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterate) as exc:
            run(P, initial_state(P), s1, s2, StoppingRule(max_iters=3000), force=True)
    assert exc.value.iteration == 35


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200],
                         ids=["nan", "inf", "square-overflows"])
@pytest.mark.parametrize("name", ["x", "z", "y"])
def test_run_guard_covers_each_vector(monkeypatch, name, bad):
    # one entry of one vector of the third iterate is made NaN, inf, or so
    # large that its square overflows; the run stops there, without a warning
    real_step = solver.step

    def poisoned_step(problem, state, sched1, sched2):
        nxt = real_step(problem, state, sched1, sched2)
        if nxt.k != 3:
            return nxt
        v = getattr(nxt, name).copy()
        v[0] = bad
        return dataclasses.replace(nxt, **{name: v})

    monkeypatch.setattr(solver, "step", poisoned_step)
    P, _ = build_problem("tv1d", n=20)
    s1 = ShiftedGramSchedule(0.19, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIterate) as exc:
            run(P, initial_state(P), s1, s2, StoppingRule(max_iters=10))
    assert exc.value.iteration == 3


def test_run_tv1d_reaches_kkt_tolerance(tv1d):
    P, meta = tv1d
    tau = 0.95 / (P.c * meta["norm_A"] ** 2 + meta["L"])
    s1 = ShiftedGramSchedule(tau, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=2000))
    from vmadmm.diagnostics import kkt_residual

    assert kkt_residual(P, state.x, state.y) < 1e-6


def test_run_deterministic():
    P, _ = build_problem("tv1d", n=20)
    s1 = ShiftedGramSchedule(0.19, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    _, t1 = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=40))
    _, t2 = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=40))
    for a, b in zip(t1.xs, t2.xs):
        assert np.array_equal(a, b)


# SHA-256 of a 200-iteration run's xs, zs, ys and residual norms, recorded
# with each update dividing y by c and forming A x - z itself. Penalties
# other than 1 make y / c and y * (1 / c) differ, so a reordered division fails
TRAJECTORY_DIGESTS = {
    "linearized": "56366e7b09580f8371c45ffbdfcfb53c53c4971b3369197aa0e2d01ff604d1e0",
    "linearized-tau-list":
        "9d1e249190efc3a6760e48f8c8bc7d33225a3796e239107582b18b71206422d6",
    "linearized-hand-built":
        "55fdadb907970e3106407d9984b3e9f9b83f9f89089d67be71832b59057afa6f",
    "quadratic-banded":
        "e1b07931b3b965bfec4adaa42f79c178376b272bc78b3e68f9caca7ff497f54b",
    "quadratic-dense":
        "720b660ce93382f8ca39e13f501612ff6fdfe0b9c37584b059bb320771764680",
    "prox-direct": "8309e020e8b52b8fffcfc08455153335bf283f5f80271662437c8f59ea1686f2",
}


def pinned_run(name):
    """``(problem, init, sched1, sched2)`` of trajectory pin ``name``. The pins
    cover every x-update strategy (QUADRATIC on both factors), every M2 kind
    and a start away from zero, whose derived vectors initial_state forms."""
    if name.startswith("linearized"):
        P, _ = build_problem("tv1d", n=30, c=1.3)
        taus = [0.1, 0.12, 0.15] if name == "linearized-tau-list" else 0.15
        init = initial_state(P)
        if name == "linearized-hand-built":
            x = np.linspace(0.0, 1.0, P.n)
            init = initial_state(P, x, np.diff(x), np.linspace(-1.0, 1.0, P.m))
        m2 = MetricOperator.zero(P.m)
        return P, init, ShiftedGramSchedule(taus, P.c, P.A), ConstantSchedule(m2)
    if name == "quadratic-banded":
        P, _ = build_problem("tv1d", n=30, c=0.7)
        m1 = MetricOperator.scaled_identity(P.n, 1.0)
        m2 = MetricOperator.scaled_identity(P.m, 0.5)
        return P, initial_state(P), ConstantSchedule(m1), ConstantSchedule(m2)
    if name == "quadratic-dense":
        # a quadratic f: c A*A + M1 + Q is factored densely; a nonzero y0
        # makes the first updates' y / c count
        quad = build_problem("box-qp", n=20)[0].h
        P = ProblemSpec(f=Quadratic(quad.Q, quad.q), h=Zero(20), g=L1Norm(19, 0.3),
                        A=forward_difference(20), c=3.0)
        m1 = MetricOperator.diagonal(np.linspace(0.1, 1.0, P.n))
        m2 = MetricOperator.diagonal(np.linspace(0.2, 0.6, P.m))
        init = initial_state(P, y0=np.linspace(-1.0, 1.0, P.m))
        return P, init, ConstantSchedule(m1), ConstantSchedule(m2)
    P, meta = build_problem("lasso-split", n=20, rows=30, c=1.3)
    m1 = MetricOperator.scaled_identity(P.n, meta["L"] + 0.5)
    m2 = MetricOperator.scaled_identity(P.m, 1.0)
    return P, initial_state(P), ConstantSchedule(m1), GeometricDecaySchedule(m2, 0.9)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
def test_run_keeps_its_trajectory_bits(name):
    P, init, s1, s2 = pinned_run(name)
    _, trace = run(P, init, s1, s2, StoppingRule(max_iters=200))
    assert trace.iterations == 200
    digest = hashlib.sha256()
    for v in trace.xs + trace.zs + trace.ys:
        digest.update(v.tobytes())
    digest.update(np.array(trace.residual_norms).tobytes())
    assert digest.hexdigest() == TRAJECTORY_DIGESTS[name]


class CopyingTrace(RunTrace):
    """A :class:`RunTrace` that stores a copy of every iterate."""

    def record(self, state, residual):
        super().record(dataclasses.replace(
            state, x=state.x.copy(), z=state.z.copy(), y=state.y.copy()), residual)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
def test_run_trace_holds_a_copy_of_init_and_the_iterates_step_made(name):
    P, init, s1, s2 = pinned_run(name)
    stop = StoppingRule(max_iters=30)
    state, trace = run(P, init, s1, s2, stop)
    copies = CopyingTrace([init.x.copy()], [init.z.copy()], [init.y.copy()])
    run(P, init, s1, s2, stop, recorder=copies)
    entries = trace.xs + trace.zs + trace.ys
    assert [v.tobytes() for v in entries] == [
        v.tobytes() for v in copies.xs + copies.zs + copies.ys]
    assert trace.residual_norms == copies.residual_norms
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            assert not np.shares_memory(a, b)
    first = trace.xs[0].copy()
    init.x[:] = 7.0
    assert np.array_equal(trace.xs[0], first)
    assert state.x is trace.xs[-1]
    assert state.z is trace.zs[-1]
    assert state.y is trace.ys[-1]


def checked_reference_run(P, init, sched1, sched2, iters):
    """``iters`` iterations written out with the update expressions of
    :mod:`vmadmm.solver` on the public, checked calls of f, h, g, A and the
    metrics, deciding the strategies every iteration; returns the lists of
    x, z and y and the residual norms, as a :class:`RunTrace` holds them."""
    f, h, g, A, c = P.f, P.h, P.g, P.A, P.c
    x, z, y = init.x, init.z, init.y
    r = A.apply(x) - z
    xs, zs, ys, norms = [x], [z], [y], []
    for k in range(iters):
        m1, m2 = sched1.metric(k), sched2.metric(k)
        yc = y / c
        strategy = x_strategy(P, m1)
        if strategy == "linearized":
            tau = m1.tau
            grad_step = h.grad(x) + c * A.adjoint(r + yc)
            x = f.prox(x - tau * grad_step, tau)
        elif strategy == "quadratic":
            rhs = -h.grad(x) + c * A.adjoint(z - yc) + m1.apply(x)
            if isinstance(f, Quadratic):
                rhs = rhs - f.q
            solve, factor = solver._quadratic_factor(P, m1)
            x, info = solve(factor, rhs)
            assert info == 0
        else:
            mu = m1.mu
            denom = c + mu
            w = (c * (z - yc) + mu * x - h.grad(x)) / denom
            x = f.prox(w, 1.0 / denom)
        Ax = A.apply(x)
        w = Ax + yc
        if z_strategy(P, m2) == "scalar":
            mu = m2.mu
            denom = c + mu
            z = g.prox((c * w + mu * z) / denom, 1.0 / denom)
        else:
            d2 = m2.entries
            d = c + d2
            z = g.prox_diag((c * w + d2 * z) / d, d)
        r = Ax - z
        y = y + c * r
        xs.append(x)
        zs.append(z)
        ys.append(y)
        norms.append(math.sqrt(float(r.dot(r))))
    return xs, zs, ys, norms


def bound_update_case(name):
    """``(problem, init, sched1, sched2)`` of a bound-update pin: every x
    strategy, a scalar and a diagonal z update, and constant, decaying and
    step-list schedules, the last two with a new metric object each k."""
    if name.startswith("linearized"):
        P, _ = build_problem("tv1d", n=30, c=1.3)
        x = np.linspace(0.0, 1.0, P.n)
        init = initial_state(P, x, np.diff(x), np.linspace(-1.0, 1.0, P.m))
        if name == "linearized-constant":
            m2 = MetricOperator.zero(P.m)
            return P, init, ShiftedGramSchedule(0.15, P.c, P.A), ConstantSchedule(m2)
        m2 = MetricOperator.diagonal(np.linspace(0.2, 0.6, P.m))
        taus = [0.1, 0.11, 0.12, 0.13, 0.15]
        return P, init, ShiftedGramSchedule(taus, P.c, P.A), ConstantSchedule(m2)
    if name == "quadratic-banded-decay":
        P, _ = build_problem("tv1d", n=30, c=0.7)
        m1 = MetricOperator.scaled_identity(P.n, 1.0)
        m2 = MetricOperator.diagonal(np.linspace(0.2, 0.6, P.m))
        return (P, initial_state(P), GeometricDecaySchedule(m1, 0.5),
                GeometricDecaySchedule(m2, 0.5))
    if name == "quadratic-dense-decay":
        quad = build_problem("box-qp", n=20)[0].h
        P = ProblemSpec(f=Quadratic(quad.Q, quad.q), h=Zero(20), g=L1Norm(19, 0.3),
                        A=forward_difference(20), c=3.0)
        m1 = MetricOperator.diagonal(np.linspace(0.1, 1.0, P.n))
        m2 = MetricOperator.scaled_identity(P.m, 0.8)
        init = initial_state(P, y0=np.linspace(-1.0, 1.0, P.m))
        return P, init, ConstantSchedule(m1), GeometricDecaySchedule(m2, 0.5)
    if name == "prox-direct-decay":
        P, meta = build_problem("lasso-split", n=20, rows=30, c=1.3, quadratic_in="g")
        m1 = MetricOperator.scaled_identity(P.n, 2.0)
        m2 = MetricOperator.scaled_identity(P.m, 1.0)
        return (P, initial_state(P), GeometricDecaySchedule(m1, 0.5),
                ConstantSchedule(m2))
    P, meta = build_problem("box-qp", n=20)
    m1 = MetricOperator.scaled_identity(P.n, meta["L"] + 0.5)
    m2 = MetricOperator.diagonal(np.linspace(0.5, 1.5, P.m))
    return P, initial_state(P), ConstantSchedule(m1), ConstantSchedule(m2)


@pytest.mark.parametrize("name", [
    "linearized-constant", "linearized-step-list", "quadratic-banded-decay",
    "quadratic-dense-decay", "prox-direct-decay", "prox-direct-box",
])
def test_run_equals_the_checked_updates_bit_for_bit(name):
    # the bound updates call unchecked kernels on the solver's own arrays;
    # every iterate and residual keeps the bits of the checked calls, signed
    # zeros included, and each new metric of a schedule binds afresh
    P, init, s1, s2 = bound_update_case(name)
    iters = 20
    _, trace = run(P, init, s1, s2, StoppingRule(max_iters=iters), force=True)
    expected = checked_reference_run(P, init, s1, s2, iters)
    got = (trace.xs, trace.zs, trace.ys, [np.array(trace.residual_norms)])
    for ours, theirs in zip(got, expected[:3] + ([np.array(expected[3])],)):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a.dtype == np.float64
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_forced_linearized_divergence_stops_at_the_same_iteration():
    # a gradient step of tau L = 9.5 on h diverges; the guard stops the run
    # at the iteration the checked updates reached too
    P, _ = build_problem("tv1d", n=20)
    P = ProblemSpec(f=P.f, h=SquaredL2(P.n, shift=P.h.shift, weight=50.0), g=P.g,
                    A=P.A, c=P.c)
    s1 = ShiftedGramSchedule(0.19, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    with pytest.raises(NonFiniteIterate) as exc:
        run(P, initial_state(P), s1, s2, StoppingRule(max_iters=3000), force=True)
    assert exc.value.iteration == 166


def test_quadratic_prox_on_an_indefinite_system_is_singular_at_its_iteration():
    # Q has a tiny negative eigenvalue, which construction forgives; the z
    # step t = 1 / (c + mu_k) grows as M2 decays, and the first k at which
    # 1 + t lambda_min(Q) <= 0 raises, after 27 recorded iterations
    P = ProblemSpec(f=L1Norm(2, 1.0), h=Zero(2), g=Quadratic(np.diag([-1e-11, 1.0])),
                    A=LinearMap.identity(2), c=1e-12)
    s = GeometricDecaySchedule(MetricOperator.scaled_identity(2, 1e-3), 0.5)
    init = initial_state(P, [1.0, -2.0])
    trace = RunTrace([init.x], [init.z], [init.y])
    with pytest.raises(SingularSubproblem, match="not positive definite"):
        run(P, init, s, s, StoppingRule(max_iters=100), force=True, recorder=trace)
    assert trace.iterations == 27


@pytest.mark.parametrize("update", ["x", "z"])
def test_a_prox_step_that_rounds_to_zero_is_refused_at_the_first_update(update):
    # c + mu overflows, so the PROX-DIRECT or scalar z step 1 / (c + mu) is
    # 0: the bound update refuses it with the checked prox's error
    P = ProblemSpec(f=L1Norm(2, 1.0), h=Zero(2), g=L1Norm(2, 1.0),
                    A=LinearMap.identity(2), c=1e308)
    big = ConstantSchedule(MetricOperator.scaled_identity(2, 1e308))
    small = ConstantSchedule(MetricOperator.scaled_identity(2, 1.0))
    s1, s2 = (big, small) if update == "x" else (small, big)
    with pytest.raises(ValueError, match=r"^L1Norm step t must be > 0, got 0\.0$"):
        run(P, initial_state(P), s1, s2, StoppingRule(max_iters=3), force=True)


@pytest.mark.parametrize("returns", ["list", "int-array"])
def test_matrix_free_results_become_float_iterates(returns):
    # a matrix_free map is user code: what it returns is converted before
    # the solver steps on it, as a checked apply and adjoint convert it
    n = 6
    if returns == "list":
        A = LinearMap.matrix_free(n, n, lambda x: list(2.0 * x), lambda v: list(2.0 * v))
    else:
        A = LinearMap.matrix_free(n, n, lambda x: np.zeros(n, dtype=np.int64),
                                  lambda v: np.zeros(n, dtype=np.int64))
    P = ProblemSpec(f=L1Norm(n, 0.3), h=SquaredL2(n, shift=np.linspace(-1.0, 1.0, n)),
                    g=L1Norm(n, 0.2), A=A, c=1.0)
    s1 = ShiftedGramSchedule(0.2, P.c, A)
    s2 = ConstantSchedule(MetricOperator.zero(n))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=10),
                       force=True)
    assert trace.iterations == 10
    for v in trace.xs + trace.zs + trace.ys + [state.Ax, state.r, state.yc]:
        assert type(v) is np.ndarray and v.dtype == np.float64
    if returns == "list":
        assert np.array_equal(state.Ax, 2.0 * state.x)


def count_matvecs(monkeypatch, A):
    """Patch the kernels ``A._apply`` and ``A._adjoint``, which the checked
    ``apply`` and ``adjoint`` call too, to count the products of ``A``;
    returns the (live) ``{"apply": n, "adjoint": n}`` counts."""
    counts = {"apply": 0, "adjoint": 0}
    for name in counts:
        kernel = getattr(A, "_" + name)

        def counting(v, name=name, kernel=kernel):
            counts[name] += 1
            return kernel(v)

        monkeypatch.setattr(A, "_" + name, counting)
    return counts


def test_linearized_run_makes_one_apply_and_one_adjoint_per_iteration(monkeypatch):
    # A x+ is computed once in step and reused by the z and y updates, the
    # residual and the next x update
    P, _ = build_problem("tv1d", n=20)
    s1 = ShiftedGramSchedule(0.19, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    init = initial_state(P)
    counts = count_matvecs(monkeypatch, P.A)
    K = 30
    _, trace = run(P, init, s1, s2, StoppingRule(max_iters=K))
    assert trace.iterations == K
    assert counts == {"apply": K, "adjoint": K}


def test_certified_rows_reuse_the_solvers_product(monkeypatch, tmp_path):
    # objective, Lagrangian at the saddle's y and KKT of a block of rows all
    # read the buffered A x_k: no apply of the x_k while the block is certified
    block_x = []
    applied = []
    apply = LinearMap.apply

    def watching_apply(self, v):
        applied.append(any(np.array_equal(v, x) for x in block_x))
        return apply(self, v)

    certify_block = experiments._Certifier._certify_block

    def watching_certify_block(self):
        block_x.append(self.xs[1 : self.open + 1].copy())
        try:
            certify_block(self)
        finally:
            block_x.clear()

    monkeypatch.setattr(LinearMap, "apply", watching_apply)
    monkeypatch.setattr(experiments._Certifier, "_certify_block",
                        watching_certify_block)
    cfg = experiments.RunConfig(
        problem={"name": "tv1d", "n": 20},
        metric1={"kind": "shifted_gram", "tau": 0.19},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        c=1.0,
        iters=40,
        checks=["kkt", "gap_bound", "dual_identity"],
    )
    result = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    assert result.summary["iterations"] == 40
    assert applied and not any(applied)


def test_certifier_applies_A_once_per_block(monkeypatch, tmp_path):
    # the saddle and the probes share the Lagrangian terms of the averages,
    # and a probe's own terms are fixed for the run: while certifying, A is
    # applied once per block of iterates, to their x_bar rows; while setting
    # up, once per probe, to its x vector, the saddle first and then the
    # sampled probes in their order, besides the M1 seminorms of the gammas.
    # The x_bar rows are folded in place over the x_k rows, so they are
    # checked against a reference averager fed by record, never against the
    # certifier's own buffer
    running = []  # (method name, instance) of the watched calls under way
    applied = {"__init__": [], "_certify_block": [], "seminorm_sq": []}
    reference, x_bars, xs = None, [], []  # x_bar_k and x_k, k = 1, 2, ...
    apply = LinearMap.apply
    record = experiments._Certifier.record

    def feeding_record(self, state, residual):
        nonlocal reference
        if reference is None:
            reference = KahanAverager(self.problem.n, self.problem.m)
        reference.update(state.x, state.z, state.y)
        x_bars.append(reference.means[: self.problem.n])
        xs.append(state.x.copy())
        return record(self, state, residual)

    def watching_apply(self, v):
        if running:
            name, obj = running[-1]
            if name == "_certify_block":
                # whether v is the x_bar rows, and whether it differs from
                # the x_k rows, so that the first tells the two apart
                block = slice(obj.done, obj.done + obj.open)
                applied[name].append((np.array_equal(v, x_bars[block]),
                                      not np.array_equal(v, xs[block])))
            else:
                applied[name].append((obj, np.array(v)))
        return apply(self, v)

    for cls, name in ((experiments._Certifier, "__init__"),
                      (experiments._Certifier, "_certify_block"),
                      (MetricOperator, "seminorm_sq")):
        method = getattr(cls, name)

        def watching(self, *args, name=name, method=method):
            running.append((name, self))
            try:
                return method(self, *args)
            finally:
                running.pop()

        monkeypatch.setattr(cls, name, watching)
    monkeypatch.setattr(LinearMap, "apply", watching_apply)
    monkeypatch.setattr(experiments._Certifier, "record", feeding_record)
    cfg = experiments.RunConfig(
        problem={"name": "tv1d", "n": 20},
        metric1={"kind": "shifted_gram", "tau": 0.19},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        c=1.0,
        iters=43,
        checks=["gap_bound"],
    )
    result = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    assert result.summary["iterations"] == cfg.iters
    blocks = -(-cfg.iters // experiments.BLOCK)
    assert applied["_certify_block"] == [(True, True)] * blocks
    certifier = applied["__init__"][0][0]
    saddle = certifier.saddle
    probes = [saddle] + list(diagnostics.ball_probes(saddle, 1.0, 10, seed=cfg.seed))
    assert [(obj, v.shape) for obj, v in applied["__init__"]] == [(certifier, (20,))] * 11
    assert all(np.array_equal(v, probe[0])
               for (_, v), probe in zip(applied["__init__"], probes))


@pytest.mark.parametrize("problem, mu, products", [
    # h = Q at the x_k rows (objective and KKT share one product), at x_bar
    ({"name": "box-qp", "n": 10}, 5.0, 2),
    # g = Q at the A x_k rows (objective and KKT), at the z_k and z_bar rows
    ({"name": "lasso-split", "n": 8, "rows": 12, "quadratic_in": "g"}, 1.0, 3),
], ids=["box-qp", "lasso-g"])
def test_certifier_multiplies_Q_once_per_point_set(monkeypatch, tmp_path, problem,
                                                   mu, products):
    # every product of a dense quadratic goes through functions.matvec
    counts, running = [], []  # products per nonempty block; the block under way
    matvec = functions.matvec

    def counting_matvec(M, x):
        if running:
            counts[-1] += 1
        return matvec(M, x)

    certify_block = experiments._Certifier._certify_block

    def watching_certify_block(self):
        if not self.open:
            return certify_block(self)
        counts.append(0)
        running.append(self)
        try:
            return certify_block(self)
        finally:
            running.pop()

    monkeypatch.setattr(functions, "matvec", counting_matvec)
    monkeypatch.setattr(experiments._Certifier, "_certify_block",
                        watching_certify_block)
    cfg = experiments.RunConfig(
        problem=problem,
        metric1={"kind": "constant",
                 "metric": {"kind": "scaled_identity", "mu": mu}},
        metric2={"kind": "constant", "metric": {"kind": "zero"}},
        c=1.0,
        iters=40,
        checks=["gap_bound", "dual_identity"],
    )
    result = experiments.run_experiment(cfg, out_dir=str(tmp_path))
    assert result.exit_code == 0
    blocks = -(-cfg.iters // experiments.BLOCK)
    assert counts == [products] * blocks


def test_step_differences_vanish_on_convergent_runs():
    # the successive-difference norms trend to zero under each condition
    configs = []
    P1, _ = build_problem("tv1d", n=30)
    configs.append(
        (
            P1,
            ConstantSchedule(MetricOperator.scaled_identity(P1.n, 1.0)),
            ConstantSchedule(MetricOperator.zero(P1.m)),
        )
    )
    P2, _ = build_problem("lasso-split", quadratic_in="g")
    configs.append(
        (
            P2,
            ConstantSchedule(MetricOperator.zero(P2.n)),
            ConstantSchedule(MetricOperator.zero(P2.m)),
        )
    )
    P3, meta3 = build_problem("box-qp")
    configs.append(
        (
            P3,
            ConstantSchedule(MetricOperator.scaled_identity(P3.n, meta3["L"])),
            ConstantSchedule(MetricOperator.scaled_identity(P3.m, 1.0)),
        )
    )
    for P, s1, s2 in configs:
        _, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=2000))
        K = trace.iterations
        for series in ("xs", "zs", "ys"):
            vecs = getattr(trace, series)
            diffs = [
                float(np.linalg.norm(vecs[k + 1] - vecs[k])) for k in range(K)
            ]
            head = max(diffs[: K // 10])
            tail = max(diffs[-(K // 10) :])
            assert tail <= 0.01 * head + 1e-14


def test_summability_certificates():
    # partial sums of the three series settle: last-quarter increment < 1%
    P, meta = build_problem("tv1d", n=30)
    L = meta["L"]
    mu = 1.0
    s1 = ConstantSchedule(MetricOperator.scaled_identity(P.n, mu))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(P.m, 0.5))
    _, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=4000))
    K = trace.iterations
    m1_shift = MetricOperator.scaled_identity(P.n, mu - L / 2.0)
    m2 = s2.metric(0)
    series = {
        "coupling": [
            float(np.linalg.norm(trace.zs[k] - P.A.apply(trace.xs[k + 1]))) ** 2
            for k in range(K)
        ],
        "x": [m1_shift.seminorm_sq(trace.xs[k] - trace.xs[k + 1]) for k in range(K)],
        "z": [m2.seminorm_sq(trace.zs[k] - trace.zs[k + 1]) for k in range(K)],
    }
    for name, vals in series.items():
        total = sum(vals)
        tail = sum(vals[3 * K // 4 :])
        assert tail <= 0.01 * total + 1e-14, name


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_geometric_decay_schedule():
    m0 = MetricOperator.scaled_identity(3, 2.0)
    sched = GeometricDecaySchedule(m0, 0.5)
    assert sched.metric(0) is m0
    assert sched.metric(2).mu == pytest.approx(0.5)
    assert sched.is_monotone()
    assert sched.min_eig_infimum() == 0.0
    assert sched.double_monotone()
    assert not GeometricDecaySchedule(m0, 0.4).double_monotone()
    assert GeometricDecaySchedule(m0, 1.0).min_eig_infimum() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        GeometricDecaySchedule(m0, 0.0)


def test_shifted_gram_schedule_steps():
    A = forward_difference(10)
    sched = ShiftedGramSchedule([0.1, 0.1, 0.2], 1.0, A)
    assert sched.metric(0).tau == 0.1
    assert sched.metric(5).tau == 0.2  # held at the last step
    assert sched.is_monotone()
    assert not ShiftedGramSchedule([0.2, 0.1], 1.0, A).is_monotone()
    lam = sched.min_eig_infimum()
    assert lam == pytest.approx(min_eigenvalue(sched.metric(5)), abs=1e-12)


def test_shifted_gram_monotone_is_exact():
    # a step shorter by one part in 1e13 is an M1 that grows: not monotone
    A = forward_difference(10)
    sched = ShiftedGramSchedule([0.2, 0.2 * (1 - 1e-13)], 1.0, A)
    assert min_eigenvalue(sched.metric(1)) > min_eigenvalue(sched.metric(0))
    assert not sched.is_monotone()
    assert ShiftedGramSchedule([0.2, 0.2], 1.0, A).is_monotone()


def test_validate_reads_the_whole_tau_list():
    # the step drops at k=60: validation reads the whole list
    P, _ = build_problem("toy1d")
    s1 = ShiftedGramSchedule([0.4] * 60 + [0.3], P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(1))
    report = validate_assumptions(P, s1, s2, 50)
    assert not report.monotone_m1
    assert not report.ergodic_ok
    assert not report.permits_run


def _dense_m2():
    return MetricOperator.dense([[2.0]])


@pytest.mark.parametrize(
    "make_m2",
    [
        lambda P: ShiftedGramSchedule(0.5, P.c, P.A),
        lambda P: ConstantSchedule(_dense_m2()),
        lambda P: GeometricDecaySchedule(_dense_m2(), 0.9),
        lambda P: GeometricDecaySchedule(MetricOperator.shifted_gram(0.5, P.c, P.A), 0.9),
    ],
    ids=["shifted_gram", "dense", "geometric_dense", "geometric_shifted_gram"],
)
def test_validate_rejects_m2_the_z_update_cannot_apply(make_m2, monkeypatch):
    # rejected at the door, before any dense eigensolve
    P, _ = build_problem("toy1d")
    s1 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    s2 = make_m2(P)

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(UnsupportedMetric):
        validate_assumptions(P, s1, s2, 5)


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


def test_validate_condition_I_constant():
    P = ProblemSpec(
        f=Zero(2),
        h=SquaredL2(2, 0.0, 2.0),  # L = 2
        g=Zero(2),
        A=LinearMap.identity(2),
        c=1.0,
    )
    s1 = ConstantSchedule(MetricOperator.scaled_identity(2, 2.0))
    s2 = ConstantSchedule(MetricOperator.zero(2))
    report = validate_assumptions(P, s1, s2, 5)
    assert report.condition_I
    assert report.alpha1 == pytest.approx(1.0)


def test_validate_condition_II_singular_gram():
    # derived: eigensolve of the difference operator's Gram matrix
    P, _ = build_problem("tv1d", n=50)
    lam_min = float(np.linalg.eigvalsh(P.A.gram_dense())[0])
    assert abs(lam_min) <= 1e-10
    s1 = ConstantSchedule(MetricOperator.scaled_identity(P.n, 1.0))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(P.m, 1.0))
    report = validate_assumptions(P, s1, s2, 5)
    assert not report.condition_II
    assert report.alpha == pytest.approx(lam_min, abs=1e-12)


def test_validate_condition_III_constant_metric():
    P, _ = build_problem("toy1d")  # h is zero, A is the identity
    s1 = ConstantSchedule(MetricOperator.zero(1))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    report = validate_assumptions(P, s1, s2, 5)
    assert report.condition_III


def test_validate_condition_III_decides_a_zero_m2_by_value():
    # every spelling of the zero metric halves safely under any rho
    P, _ = build_problem("toy1d")
    s1 = ConstantSchedule(MetricOperator.scaled_identity(1, 1.0))
    reports = [
        validate_assumptions(P, s1, GeometricDecaySchedule(m2, 0.3))
        for m2 in (MetricOperator.zero(1), MetricOperator.scaled_identity(1, 0.0),
                   MetricOperator.diagonal([0.0]))
    ]
    assert reports[0].condition_III
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert not validate_assumptions(
        P, s1, GeometricDecaySchedule(MetricOperator.diagonal([1e-300]), 0.3)
    ).condition_III


def test_validate_condition_III_needs_zero_h():
    P, _ = build_problem("box-qp")  # h quadratic
    s1 = ConstantSchedule(MetricOperator.scaled_identity(P.n, 10.0))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(P.m, 1.0))
    report = validate_assumptions(P, s1, s2, 5)
    assert not report.condition_III
    assert any("h is not zero" in n for n in report.notes)


def test_validate_ergodic_flag():
    P, meta = build_problem("tv1d", n=20)
    tau = 0.95 / (P.c * meta["norm_A"] ** 2 + meta["L"])
    s1 = ShiftedGramSchedule(tau, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    report = validate_assumptions(P, s1, s2, 5)
    assert report.ergodic_ok and report.condition_I and report.permits_run
    # too large a step: the metric no longer dominates L id
    tau_big = 1.0 / (P.c * meta["norm_A"] ** 2 + 0.1)
    report2 = validate_assumptions(
        P, ShiftedGramSchedule(tau_big, P.c, P.A), s2, 5
    )
    assert not report2.ergodic_ok


def test_validate_tv1d_at_scale_never_densifies(monkeypatch):
    # ||D|| and lambda_min(D*D) are known in closed form: building and
    # validating a LINEARIZED tv1d run needs no dense n x n matrix (densifying
    # would fail here at once rather than allocate 800 MB)
    def refuse(A):
        raise AssertionError(f"densified {A!r}")

    monkeypatch.setattr(LinearMap, "to_dense", refuse)
    P, meta = build_problem("tv1d", n=10_000)
    tau = 0.95 / (P.c * meta["norm_A"] ** 2 + meta["L"])
    s1 = ShiftedGramSchedule(tau, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    report = validate_assumptions(P, s1, s2, 50)
    assert report.permits_run
    assert report.alpha == 0.0
    assert P.A._dense is None and P.A._gram is None


def test_quadratic_tv1d_at_scale_never_densifies(monkeypatch):
    # QUADRATIC on a forward difference with a diagonal M1 factors the
    # banded c D*D + M1: a few iterations at n = 10 000 need no dense n x n
    # matrix (densifying would fail here at once rather than allocate 800 MB)
    def refuse(A):
        raise AssertionError(f"densified {A!r}")

    monkeypatch.setattr(LinearMap, "to_dense", refuse)
    monkeypatch.setattr(LinearMap, "gram_dense", refuse)
    factorizations = count_factorizations(monkeypatch)
    P, _ = build_problem("tv1d", n=10_000)
    s1 = ConstantSchedule(MetricOperator.scaled_identity(P.n, 1.0))
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=5))
    assert trace.iterations == 5 and np.all(np.isfinite(state.x))
    assert factorizations == [(2, P.n)]


def test_validate_condition_II_gates_on_m1_when_h_smooth():
    # A*A and M2 positive definite, but M1 below (L/2) id: no theorem applies
    P, meta = build_problem("box-qp")
    s1 = ConstantSchedule(MetricOperator.zero(P.n))
    s2 = ConstantSchedule(MetricOperator.scaled_identity(P.m, 1.0))
    report = validate_assumptions(P, s1, s2, 5)
    assert report.condition_II
    assert not report.m1_dominates_half_L
    assert not report.permits_run
