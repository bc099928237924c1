"""Property tests of catalog invariants over generated instances.

Each property runs once per kind in the function catalog (per LinearMap
factory, or per x-update strategy), with parameters, dimensions, points and
step sizes drawn by Hypothesis. The example budget and derandomization come
from the profile registered in conftest.py.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import count_cho_factor, dual_steps
from vmadmm.diagnostics import dual_identity_deviation
from vmadmm.experiments import CHECK_TOLERANCES
from vmadmm.functions import (
    BoxIndicator,
    Huber,
    L1Norm,
    Quadratic,
    SquaredL2,
    Zero,
)
from vmadmm.linops import (
    LinearMap,
    MetricOperator,
    forward_difference,
    linear_map_from_file,
    min_eigenvalue,
    operator_norm,
    save_dense_matrix,
)
from vmadmm.problems import build_problem
from vmadmm.solver import (
    ConstantSchedule,
    ProblemSpec,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
    validate_assumptions,
)

KINDS = ["zero", "l1", "squared_l2", "box", "quadratic", "huber"]
CONJUGABLE_KINDS = ["zero", "l1", "squared_l2", "box"]
FACTORIES = ["dense", "file", "identity", "zero", "matrix_free", "forward_difference"]
STRATEGIES = ["linearized", "quadratic", "prox_direct"]

DIMS = st.integers(min_value=1, max_value=6)
POSITIVE = st.floats(min_value=0.1, max_value=5.0)
# powers of two keep v / t and t * (v / t) exact, so the Moreau identity
# holds without rounding in the identity itself
STEPS = st.integers(min_value=-3, max_value=3).map(lambda e: 2.0**e)


def reals(shape, bound=10.0):
    """Hypothesis' edge-heavy floats (zeros, tiny values, repeats) or a
    generic seeded uniform draw, in ``[-bound, bound]``."""
    return st.one_of(
        arrays(np.float64, shape, elements=st.floats(-bound, bound)),
        st.integers(0, 2**32 - 1).map(
            lambda seed: np.random.default_rng(seed).uniform(-bound, bound, shape)
        ),
    )


@st.composite
def catalog_function(draw, kind, dim):
    """An instance of catalog ``kind`` in dimension ``dim``."""
    if kind == "zero":
        return Zero(dim)
    if kind == "l1":
        return L1Norm(dim, weight=draw(POSITIVE))
    if kind == "squared_l2":
        return SquaredL2(dim, shift=draw(reals(dim)), weight=draw(POSITIVE))
    if kind == "box":
        lower = draw(reals(dim))
        width = np.abs(draw(reals(dim, bound=5.0)))
        return BoxIndicator(dim, lower=lower, upper=lower + width)
    if kind == "quadratic":
        B = draw(reals((dim, dim), bound=2.0))
        return Quadratic(B @ B.T, draw(reals(dim)))
    return Huber(dim, delta=draw(POSITIVE), weight=draw(POSITIVE))


@st.composite
def function_step_points(draw, kind, count):
    """``(F, t, v_1, ..., v_count)`` for catalog ``kind``."""
    dim = draw(DIMS)
    f = draw(catalog_function(kind, dim))
    return (f, draw(STEPS), *(draw(reals(dim)) for _ in range(count)))


@pytest.mark.parametrize("kind", KINDS)
def test_prox_optimality_residual(kind):
    # u = prox(v, t) iff (v - u) / t is a subgradient of F at u
    @given(function_step_points(kind, 1))
    def check(case):
        f, t, v = case
        u = f.prox(v, t)
        residual = f.distance_to_subdifferential(u, (v - u) / t)
        assert residual <= 1e-9 * (1.0 + np.linalg.norm(v) / t)

    check()


@pytest.mark.parametrize("kind", CONJUGABLE_KINDS)
def test_moreau_identity_behind_prox_conjugate(kind):
    # v = prox_{tF*}(v) + t prox_{F/t}(v/t), and the two parts are a
    # Fenchel-Young equality pair: F(u) + F*(p) = <u, p>
    @given(function_step_points(kind, 1))
    def check(case):
        f, t, v = case
        p = f.prox_conjugate(v, t)
        u = f.prox(v / t, 1.0 / t)
        assert np.max(np.abs(p + t * u - v)) <= 1e-12 * (1.0 + np.abs(v).max())
        fu, conj, inner = f(u), f.conjugate(p), float(u @ p)
        assert abs(fu + conj - inner) <= 1e-9 * (1.0 + abs(fu) + abs(conj) + abs(inner))

    check()


@pytest.mark.parametrize("kind", KINDS)
def test_prox_firmly_nonexpansive(kind):
    # ||P a - P b||^2 <= <P a - P b, a - b>
    @given(function_step_points(kind, 2))
    def check(case):
        f, t, a, b = case
        d = f.prox(a, t) - f.prox(b, t)
        ab = a - b
        assert float(d @ d) <= float(d @ ab) + 1e-9 * (1.0 + float(ab @ ab))

    check()


def _map_from_file(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "A.txt")
        save_dense_matrix(path, matrix)
        return linear_map_from_file(path)


@st.composite
def linear_map(draw, factory):
    """A map built by ``factory`` with its dimensions (and entries) drawn."""
    rows, cols = draw(DIMS), draw(DIMS)
    if factory == "identity":
        return LinearMap.identity(cols)
    if factory == "zero":
        return LinearMap.zero(rows, cols)
    if factory == "forward_difference":
        return forward_difference(cols + 1)
    M = draw(reals((rows, cols), bound=5.0))
    if factory == "dense":
        return LinearMap.from_dense(M)
    if factory == "file":
        return _map_from_file(M)
    return LinearMap.matrix_free(rows, cols, lambda x: M @ x, lambda v: M.T @ v)


@pytest.mark.parametrize("factory", FACTORIES)
def test_adjoint_identity(factory):
    # <A x, v> = <x, A* v>
    @given(linear_map(factory), st.data())
    def check(A, data):
        x = data.draw(reals(A.cols))
        v = data.draw(reals(A.rows))
        ax, asv = A.apply(x), A.adjoint(v)
        scale = np.linalg.norm(ax) * np.linalg.norm(v) + np.linalg.norm(x) * np.linalg.norm(
            asv
        )
        assert abs(float(ax @ v) - float(x @ asv)) <= 1e-12 * (1.0 + scale)

    check()


@pytest.mark.parametrize("factory", FACTORIES)
def test_spectrum_matches_dense_reference(factory):
    # ||A||, lambda_min of a shifted Gram metric over A, and lambda_min(A*A)
    # as the solver reads them, against dense SVD / eigensolves; closed forms
    # and the dense SVD are both exact to rounding

    @given(linear_map(factory), POSITIVE, st.floats(0.1, 1.0))
    def check(A, c, fraction):
        norm = operator_norm(A)
        sigma = float(np.linalg.svd(A.to_dense(), compute_uv=False)[0])
        assert abs(norm - sigma) <= 1e-14 * sigma

        bound = c * norm**2
        tau = fraction / bound if bound > 0 else 1.0
        U = MetricOperator.shifted_gram(tau, c, A)
        assert abs(min_eigenvalue(U) - float(np.linalg.eigvalsh(U.to_dense())[0])) <= 1e-12

        problem = ProblemSpec(Zero(A.cols), Zero(A.cols), Zero(A.rows), A, c)
        sched1 = ConstantSchedule(MetricOperator.zero(A.cols))
        sched2 = ConstantSchedule(MetricOperator.zero(A.rows))
        report = validate_assumptions(problem, sched1, sched2, 1)
        gram_min = float(np.linalg.eigvalsh(A.gram_dense())[0])
        assert abs(report.alpha - gram_min) <= 1e-12 * max(1.0, sigma**2)

    check()


@st.composite
def catalog_problem(draw, name):
    """``(problem, metadata)`` for catalog problem ``name`` at a small size."""
    seed = draw(st.integers(1, 2**31 - 1))
    # powers of two keep y / c and c * (y / c) exact
    c = draw(st.sampled_from([0.5, 1.0, 2.0]))
    if name == "tv1d":
        params = dict(n=draw(st.integers(2, 8)), seed=seed)
    elif name == "lasso-split":
        n = draw(DIMS)
        params = dict(
            n=n,
            rows=n + draw(st.integers(0, 4)),
            seed=seed,
            quadratic_in=draw(st.sampled_from(["h", "g"])),
        )
    elif name == "box-qp":
        params = dict(n=draw(DIMS), seed=seed)
    else:
        params = {}
    return build_problem(name, c=c, **params)


@st.composite
def strategy_run(draw, strategy):
    """``(problem, M1 schedule, M2 schedule, K)`` whose x-updates take
    ``strategy``, with constant metrics that pass the assumption check."""
    if strategy == "quadratic":
        name = "tv1d"  # f = 0
    elif strategy == "linearized":
        name = draw(st.sampled_from(["tv1d", "lasso-split", "toy1d"]))
    else:
        name = draw(st.sampled_from(["lasso-split", "box-qp", "toy1d"]))
    problem, meta = draw(catalog_problem(name))
    L = meta["L"]
    if strategy == "linearized":
        tau = draw(st.floats(0.5, 0.99)) / (problem.c * meta["norm_A"] ** 2 + L)
        sched1 = ShiftedGramSchedule(tau, problem.c, problem.A)
    elif strategy == "quadratic" and draw(st.booleans()):
        entries = L + draw(arrays(np.float64, problem.n, elements=POSITIVE))
        sched1 = ConstantSchedule(MetricOperator.diagonal(entries))
    else:
        mu1 = L + draw(POSITIVE)
        sched1 = ConstantSchedule(MetricOperator.scaled_identity(problem.n, mu1))
    mu2 = draw(st.one_of(st.just(0.0), POSITIVE))
    sched2 = ConstantSchedule(MetricOperator.scaled_identity(problem.m, mu2))
    return problem, sched1, sched2, draw(st.integers(2, 30))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_dual_identity_along_runs(strategy, monkeypatch):
    # ||A x_k - z_k|| = ||y_k - y_{k-1}|| / c, because y+ = y + c (A x+ - z+)
    factorizations = count_cho_factor(monkeypatch)

    @given(strategy_run(strategy))
    def check(case):
        problem, sched1, sched2, K = case
        factorizations.clear()
        _, trace = run(problem, initial_state(problem), sched1, sched2, StoppingRule(K))
        if strategy == "quadratic":
            assert len(factorizations) == 1  # factored once, reused K - 1 times
        deviation = dual_identity_deviation(
            dual_steps(trace), trace.residual_norms, problem.c
        )
        assert deviation <= CHECK_TOLERANCES["dual_identity"]

    check()
