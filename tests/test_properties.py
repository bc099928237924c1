"""Property tests of catalog invariants over generated instances.

Each property runs once per kind in the function catalog (per LinearMap
factory, or per x-update strategy), with parameters, dimensions, points and
step sizes drawn by Hypothesis. The example budget and derandomization come
from the profile registered in conftest.py.
"""

import io
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from helpers import (
    KahanAverager,
    ball_probes_reference,
    count_factorizations,
    lcg_reference,
)
from vmadmm import diagnostics
from vmadmm.diagnostics import dual_identity_deviation
from vmadmm.errors import (
    NotPositiveSemidefinite,
    SingularSubproblem,
    StrategyError,
    UnsupportedMetric,
)
from vmadmm.experiments import (
    BLOCK,
    CHECK_TOLERANCES,
    RunConfig,
    _Certifier,
    _RingWriter,
    prepare,
    run_experiment,
)
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
    min_eigenvalue,
    operator_norm,
)
from vmadmm.problems import build_problem, lcg_uniforms
from vmadmm.solver import (
    ConstantSchedule,
    GeometricDecaySchedule,
    ProblemSpec,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
    validate_assumptions,
    x_update,
)

KINDS = ["zero", "l1", "squared_l2", "box", "quadratic", "huber"]
CONJUGABLE_KINDS = ["zero", "l1", "squared_l2", "box"]
FACTORIES = ["dense", "identity", "zero", "matrix_free", "forward_difference"]
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


@st.composite
def linear_map(draw, factory):
    """A map built by ``factory`` with its dimensions (and entries) drawn."""
    rows, cols = draw(DIMS), draw(DIMS)
    if factory == "identity":
        return LinearMap.identity(cols)
    if factory == "zero":
        return LinearMap.from_dense(np.zeros((rows, cols)))
    if factory == "forward_difference":
        return forward_difference(cols + 1)
    M = draw(reals((rows, cols), bound=5.0))
    if factory == "dense":
        return LinearMap.from_dense(M)
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


# signed zeros, infinities and NaN among ordinary floats
DIFF_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats()
)


@given(st.integers(2, 12), st.integers(0, 3), st.booleans(), st.data())
def test_forward_difference_keeps_the_bits_of_np_diff(n, rows, fortran, data):
    # a vector (rows = 0) or a block of rows, C- or Fortran-ordered
    shape = (n,) if rows == 0 else (rows, n)
    x = data.draw(arrays(np.float64, shape, elements=DIFF_ENTRIES))
    if fortran:
        x = np.asfortranarray(x)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, overflow
        out = forward_difference(n).apply(x)
        expected = np.diff(x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


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
    factorizations = count_factorizations(monkeypatch)

    @given(strategy_run(strategy))
    def check(case):
        problem, sched1, sched2, K = case
        factorizations.clear()
        _, trace = run(problem, initial_state(problem), sched1, sched2, StoppingRule(K))
        if strategy == "quadratic":
            assert len(factorizations) == 1  # factored once, reused K - 1 times
        deviation = dual_identity_deviation(
            trace.ys[:-1], trace.ys[1:], trace.residual_norms, problem.c
        )
        assert deviation <= CHECK_TOLERANCES["dual_identity"]

    check()


@pytest.mark.parametrize("kind", ["zero", "scaled_identity", "diagonal"])
def test_banded_x_update_matches_dense(kind, monkeypatch):
    # tv1d QUADRATIC factors c D*D + M1 in banded form; its update equals
    # the dense solve and satisfies the optimality inclusion, and a zero M1
    # (singular: D*D annihilates constants) is rejected, never solved
    factorizations = count_factorizations(monkeypatch)

    @given(st.integers(2, 60), st.floats(0.1, 10.0), st.data())
    def check(n, c, data):
        problem, _ = build_problem("tv1d", n=n, c=c)
        if kind == "zero":
            m1 = MetricOperator.zero(n)
        elif kind == "scaled_identity":
            m1 = MetricOperator.scaled_identity(n, data.draw(POSITIVE))
        else:
            entries = st.one_of(st.just(0.0), POSITIVE)
            m1 = MetricOperator.diagonal(data.draw(arrays(np.float64, n, elements=entries)))
        state = initial_state(
            problem, data.draw(reals(n)), data.draw(reals(n - 1)), data.draw(reals(n - 1))
        )
        d1 = m1.diagonal_entries()
        factorizations.clear()
        if not d1.any():
            with pytest.raises(SingularSubproblem):
                x_update(problem, state, m1)
            assert factorizations == []
            return
        x_next = x_update(problem, state, m1)
        assert factorizations == [(2, n)]

        A = problem.A
        rhs = -problem.h.grad(state.x) + c * A.adjoint(state.z - state.y / c) + d1 * state.x
        dense = scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(c * A.gram_dense() + np.diag(d1)), rhs
        )
        assert np.linalg.norm(x_next - dense) <= 1e-12 * np.linalg.norm(dense)
        target = (
            -problem.h.grad(state.x)
            + c * A.adjoint(state.z - state.y / c - A.apply(x_next))
            + d1 * (state.x - x_next)
        )
        assert problem.f.distance_to_subdifferential(x_next, target) <= 1e-10

    check()


@given(st.integers(1, 40), st.data())
def test_quadratic_prox_matches_cholesky(n, data):
    # the spectral prox of Q = B B^T, of any rank, and the resolvent kernel
    # a lasting binding steps with, against the Cholesky solve of
    # (I + tQ) u = v - tq for t over six decades. All three agree to the
    # condition number of I + tQ times 1e-12. The two solves are backward
    # stable, so their residual is bounded normwise (Rigal-Gaches backward
    # error); the product with the formed resolvent R is not: its error is
    # about eps ||R|| ||w|| in every direction, ||R|| <= 1, and I + tQ
    # scales it by up to ||I + tQ|| (Q = 68 J at n = 17, v = 1, t = 1 reads
    # 1.3e-13 against the solves' bound)
    rank = data.draw(st.integers(0, n))
    B = data.draw(arrays(np.float64, (n, rank), elements=st.floats(-2.0, 2.0)))
    f = Quadratic(B @ B.T, data.draw(reals(n)))
    v = data.draw(reals(n))
    t = 10.0 ** data.draw(st.floats(-3.0, 3.0))
    w = v - t * f.q
    system = np.eye(n) + t * f.Q
    reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(system), w)
    kappa = np.linalg.cond(system)
    norm = 1.0 + t * f.lipschitz  # ||I + tQ||_2
    for u, scale in ((f.prox(v, t), 1.0), (f._prox_at(t)(v, t), norm)):
        assert np.linalg.norm(u - reference) <= 1e-12 * kappa * np.linalg.norm(reference)
        residual = np.linalg.norm(u + t * (f.Q @ u) - w)
        assert residual <= 1e-13 * (norm * np.linalg.norm(u) + scale * np.linalg.norm(w))


# one entry of a symmetric Q moved by this many times 1e-12 max(1, max |Q|):
# accepted up to 1.0 inclusive, rejected past it
SYMMETRY_FACTORS = [0.0, 0.5, 0.999, 1.0, 1.001, 2.0, -1.0, -1.001]


@given(st.integers(1, 5), st.data())
def test_quadratic_symmetrizes_to_the_mean_with_its_transpose(n, data):
    # entries of either sign, signed zeros included, over seven decades, so
    # max |Q| is sometimes a negative entry; the constructor decides as
    # max |Q - Q^T| <= 1e-12 max(1, max |Q|) does, keeps (Q + Q^T) / 2.0 bit
    # for bit, and leaves its argument as it was
    scale = 10.0 ** data.draw(st.integers(-3, 4))
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
    B = data.draw(arrays(np.float64, (n, n), elements=entries)) * scale
    Q = np.where(np.tri(n, dtype=bool), B, B.T)
    if data.draw(st.booleans()):
        Q[np.diag_indices(n)] += n * scale  # diagonally dominant, so PSD
    if n > 1:
        i, j = data.draw(st.permutations(range(n)))[:2]
        bound = 1e-12 * max(1.0, float(np.abs(Q).max()))
        Q[i, j] = Q[j, i] + data.draw(st.sampled_from(SYMMETRY_FACTORS)) * bound
        if Q[i, j] == 0.0 and data.draw(st.booleans()):
            Q[i, j] = -Q[j, i]  # equal, with the other sign bit
    given_bytes = Q.tobytes()
    asymmetric = float(np.abs(Q - Q.T).max()) > 1e-12 * max(1.0, float(np.abs(Q).max()))
    try:
        f = Quadratic(Q)
    except ValueError as exc:
        assert ("symmetric" in str(exc)) == asymmetric, str(exc)
        assert asymmetric or "PSD" in str(exc)
    else:
        assert not asymmetric
        assert f.Q.tobytes() == ((Q + Q.T) / 2.0).tobytes()
    assert Q.tobytes() == given_bytes


def box_distance_reference(box, x, s):
    """The per-coordinate case analysis behind
    ``BoxIndicator.distance_to_subdifferential``, one coordinate at a time."""
    contrib = np.empty(box.dim)
    for i in range(box.dim):
        lo, hi = box.lower[i], box.upper[i]
        tol_lo = 1e-12 * (1.0 + abs(lo)) if math.isfinite(lo) else 0.0
        tol_hi = 1e-12 * (1.0 + abs(hi)) if math.isfinite(hi) else 0.0
        if x[i] < lo - tol_lo or x[i] > hi + tol_hi:
            return math.inf
        at_lo = math.isfinite(lo) and abs(x[i] - lo) <= tol_lo
        at_hi = math.isfinite(hi) and abs(x[i] - hi) <= tol_hi
        if at_lo and at_hi:
            contrib[i] = 0.0
        elif at_lo:
            contrib[i] = max(s[i], 0.0)
        elif at_hi:
            contrib[i] = max(-s[i], 0.0)
        else:
            contrib[i] = abs(s[i])
    return float(np.linalg.norm(contrib))


FINITE = st.floats(-10.0, 10.0)


@st.composite
def box_coordinate(draw):
    """``(lower, upper, x, s)`` of one coordinate: finite or infinite
    bounds, ``lower == upper`` included, and points on a bound, 1e-13,
    1e-12 (the tolerance) or 1e-11 off one, inside, outside or infinite."""
    lo = draw(st.one_of(FINITE, st.just(-math.inf)))
    hi = draw(st.sampled_from(["equal", "wider", "infinite"]))
    if hi == "equal":
        hi = lo  # also -inf == -inf
    elif hi == "infinite":
        hi = math.inf
    else:
        hi = lo + draw(st.floats(1e-12, 5.0)) if math.isfinite(lo) else draw(FINITE)
    bound = draw(st.sampled_from([lo, hi]))
    offset = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11]))
    x = draw(st.one_of(
        st.just(bound + offset * (1.0 + abs(bound))),
        FINITE,
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ))
    s = draw(st.one_of(FINITE, st.sampled_from([0.0, -0.0, math.nan, -math.nan])))
    return lo, hi, x, s


def test_box_distance_matches_per_coordinate_reference():
    # points exactly the tolerance 1e-12 off a bound at 0 still count as at it
    @example([(0.0, 1.0, 1e-12, -1.0), (-1.0, 0.0, -1e-12, 1.0)])
    @given(st.lists(box_coordinate(), min_size=1, max_size=8))
    def check(coords):
        lo, hi, x, s = (np.array(col) for col in zip(*coords))
        box = BoxIndicator(lo.size, lower=lo, upper=hi)
        expected = box_distance_reference(box, x, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = box.distance_to_subdifferential(x, s)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    check()


@st.composite
def iterate_sequences(draw):
    """``(n, m, iterates)``: K rows of ``(x, z, y)`` end to end, each entry
    of magnitude 1e-8 to 1e8, so that Kahan compensation is busy; K is often
    at or next to a multiple of :data:`BLOCK`."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = [j * BLOCK + d for j in (1, 2) for d in (-1, 0, 1)]
    K = draw(st.one_of(st.sampled_from(edges), st.integers(1, 3 * BLOCK)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (K, n + 2 * m)
    return n, m, rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-8, 8, shape)


def test_single_buffer_averager_matches_per_vector_kahan():
    # the certifier's one Kahan buffer over (x, z, y) works entry by entry,
    # so each mean it folds into its iterate rows, and hands to the gap
    # certificate when the block is certified, has the bits of a Kahan sum
    # of that vector alone, across the block edges
    @given(iterate_sequences())
    def check(case):
        n, m, iterates = case
        problem = ProblemSpec(Zero(n), Zero(n), Zero(m),
                              LinearMap.from_dense(np.eye(m, n)), 1.0)
        s1 = ConstantSchedule(MetricOperator.zero(n))
        s2 = ConstantSchedule(MetricOperator.zero(m))
        cfg = RunConfig(problem={}, metric1={}, metric2={}, c=1.0,
                        iters=len(iterates))
        saddle = (np.zeros(n), np.zeros(m), np.zeros(m))
        certifier = _Certifier(cfg, problem, initial_state(problem), s1, s2,
                               saddle, validate_assumptions(problem, s1, s2),
                               io.StringIO())
        gap = certifier.folds[-1]  # the gap fold
        gaps, received = gap.gaps, []

        def capturing(rows, ks, means):
            received.extend(zip(ks.tolist(), means.copy()))
            return gaps(rows, ks, means)

        gap.gaps = capturing
        reference = KahanAverager(n, m)
        expected = []
        writer = _RingWriter(certifier.ring, initial_state(problem),
                             certifier.certify)
        for k, row in enumerate(iterates, 1):
            x, z, y = row[:n], row[n : n + m], row[n + m :]
            writer.record(initial_state(problem, x, z, y), 0.0)
            reference.update(x, z, y)
            expected.append((k, reference.means.tobytes()))
        writer.flush()
        certifier.result()
        assert [(k, mean.tobytes()) for k, mean in received] == expected

    check()


def box_distance_nested_where(box, x, s):
    """``BoxIndicator.distance_to_subdifferential`` as three nested
    ``np.where`` over fully evaluated branches: the expression its
    one-buffer fill is held to, bit for bit."""
    below, above, fin_lo, fin_hi, tol_lo, tol_hi, lo, hi = box._bounds
    outside = np.any((x < below) | (x > above), axis=-1)
    at_lo = fin_lo & (np.abs(x - lo) <= tol_lo)
    at_hi = fin_hi & (np.abs(x - hi) <= tol_hi)
    contrib = np.where(
        at_lo & at_hi,
        0.0,
        np.where(
            at_lo,
            np.maximum(s, 0.0),
            np.where(at_hi, np.maximum(-s, 0.0), np.abs(s)),
        ),
    )
    norms = np.sqrt(np.vecdot(contrib, contrib))
    return np.where(outside, math.inf, norms)


@st.composite
def box_blocks(draw):
    """``(lower, upper, x, s)``: per coordinate, finite or infinite bounds,
    ``lower == upper`` included; 1 to 4 rows of points and targets. A row
    is inside the box, each entry on a bound (exactly or within its
    tolerance) or between the bounds, or anywhere: past a bound's
    tolerance, outside, infinite or NaN. Targets ``s`` are finite, signed
    zeros, infinite or NaN."""
    bounds = [draw(box_coordinate())[:2] for _ in range(draw(st.integers(1, 6)))]
    lower, upper = (np.array(col) for col in zip(*bounds))

    def near(bound, offset):
        return bound + offset * (1.0 + abs(bound)) if math.isfinite(bound) else bound

    def entry(lo, hi, inside):
        offsets = [0.0, 1e-13, -1e-13]
        if not inside:
            offsets += [1e-12, -1e-12, 1e-11, -1e-11]
        choices = [
            st.builds(near, st.sampled_from([lo, hi]), st.sampled_from(offsets)),
            FINITE.map(lambda v: min(max(v, lo), hi)),
        ]
        if not inside:
            choices += [FINITE, st.sampled_from([math.inf, -math.inf, math.nan])]
        return draw(st.one_of(choices))

    x, s = [], []
    for _ in range(draw(st.integers(1, 4))):
        inside = draw(st.booleans())
        x.append([entry(lo, hi, inside) for lo, hi in bounds])
        s.append([draw(st.one_of(FINITE, st.sampled_from(
            [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])))
            for _ in bounds])
    return lower, upper, np.array(x), np.array(s)


def test_box_distance_one_buffer_has_the_bits_of_the_nested_where():
    # the distance fills one buffer case by case; a vector, a block of rows,
    # a point against a block of targets and a block against one target each
    # give the bits of the nested np.where it replaced
    # a row at both equal bounds, at a lower, at an upper, inside an
    # infinite one and exactly the tolerance 1e-12 past an upper bound at 0;
    # a row with an infinite target; a row outside
    @example((np.array([0.0, -1.0, 2.0, -math.inf, -1.0]),
              np.array([0.0, 1.0, math.inf, 3.0, 0.0]),
              np.array([[0.0, -1.0, 2.0, 0.5, 1e-12],
                        [0.0, 1.0, 3.0, -math.inf, 0.0],
                        [0.5, 0.0, 2.0, 3.0, -0.5]]),
              np.array([[1.0, 1.0, -1.0, -2.0, 1.0],
                        [-0.0, math.inf, math.nan, 1.0, -1.0],
                        [1.0, 1.0, 1.0, 1.0, 1.0]])))
    @given(box_blocks())
    def check(case):
        lower, upper, x, s = case
        box = BoxIndicator(lower.size, lower=lower, upper=upper)
        for point, target in ((x[0], s[0]), (x, s), (x[0], s), (x, s[0])):
            expected = box_distance_nested_where(box, point, target)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = box.distance_to_subdifferential(point, target)
            assert np.asarray(got).tobytes() == expected.tobytes()

    check()


# seeds past 2^64 either way, and the edges of the modulus
LCG_SEEDS = st.one_of(st.integers(-(2**70), 2**70),
                      st.sampled_from([0, 2**64 - 1, 2**64 + 5]))
# counts where the jump-ahead's last doubling is one short, exact or one over
LCG_EDGE_COUNTS = sorted({2**j + d for j in range(13) for d in (-1, 0, 1)})


@given(LCG_SEEDS, st.integers(0, 4100))
def test_lcg_jump_ahead_matches_the_per_draw_loop(seed, count):
    assert lcg_uniforms(seed, count).tobytes() == lcg_reference(seed, count).tobytes()


def test_lcg_jump_ahead_matches_the_per_draw_loop_at_doubling_edges():
    for count in LCG_EDGE_COUNTS:
        for seed in (0, 2**64 - 1, 2**64 + 5, -(2**70)):
            got = lcg_uniforms(seed, count).tobytes()
            assert got == lcg_reference(seed, count).tobytes(), (seed, count)


# ---------------------------------------------------------------------------
# the block axis: a (B, dim) call is the stack of its 1-D calls, bit for bit
# ---------------------------------------------------------------------------

# small dimensions and ones large enough for the BLAS kernels to unroll
BLOCK_DIMS = st.sampled_from([1, 2, 3, 5, 8, 17, 64, 200])
# each example compares whole blocks, bit for bit
BLOCK_EXAMPLES = settings(max_examples=20)


@st.composite
def blocks(draw, dim, rows=None):
    """A ``(rows, dim)`` block, 1 to BLOCK rows unless given, with exact zeros."""
    if rows is None:
        rows = draw(st.integers(1, BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-10.0, 10.0, (rows, dim))
    X[rng.uniform(size=X.shape) < 0.2] = 0.0
    return X


def assert_stacked(block_result, vector_results):
    """The block call's result has the shape and the bits of the stacked
    1-D results, each of which is a float or a vector."""
    expected = np.array(vector_results, dtype=float)
    got = np.asarray(block_result)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert all(isinstance(r, float) for r in vector_results) or all(
        isinstance(r, np.ndarray) for r in vector_results
    )


@st.composite
def block_function(draw, kind, dim):
    """An instance of catalog ``kind`` in dimension ``dim``, drawn cheaply
    at any size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = rng.uniform(0.1, 5.0)
    if kind == "zero":
        return Zero(dim)
    if kind == "l1":
        return L1Norm(dim, weight=weight)
    if kind == "squared_l2":
        return SquaredL2(dim, shift=rng.uniform(-10, 10, dim), weight=weight)
    if kind == "box":
        lower = rng.uniform(-10, 10, dim)
        return BoxIndicator(dim, lower=lower, upper=lower + rng.uniform(0, 5, dim))
    if kind == "quadratic":
        B = rng.uniform(-2, 2, (dim, dim))
        return Quadratic(B @ B.T, rng.uniform(-10, 10, dim))
    return Huber(dim, delta=rng.uniform(0.1, 5.0), weight=weight)


@pytest.mark.parametrize("kind", KINDS)
def test_function_block_calls_stack_the_vector_calls(kind):
    @BLOCK_EXAMPLES
    @given(BLOCK_DIMS, st.integers(1, BLOCK), st.data())
    def check(dim, rows, data):
        f = data.draw(block_function(kind, dim))
        X, S = data.draw(blocks(dim, rows)), data.draw(blocks(dim, rows))
        if kind == "box":
            # half the rows inside the box (some at a bound); the rest have
            # infinite values and distances
            X[::2] = np.clip(X[::2], f.lower, f.upper)
        assert_stacked(f(X), [f(x) for x in X])
        if f.smooth:
            assert_stacked(f.grad(X), [f.grad(x) for x in X])
        assert_stacked(f.distance_to_subdifferential(X, S),
                       [f.distance_to_subdifferential(x, s) for x, s in zip(X, S)])

    check()


def assert_same(got, expected):
    """Same type, shape and bytes: a float where the separate call gives one."""
    assert type(got) is type(expected)
    assert np.asarray(got).shape == np.asarray(expected).shape
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_value_and_grad_and_distance_have_the_bits_of_the_separate_calls(kind):
    # on a vector and on a block; a drawn quadratic may hold 0.0 against -0.0
    # across its diagonal, which np.array_equal calls symmetric but whose
    # mean with its transpose has +0.0 where the signs differ
    @BLOCK_EXAMPLES
    @given(BLOCK_DIMS, st.integers(1, BLOCK), st.booleans(), st.data())
    def check(dim, rows, signed_zeros, data):
        f = data.draw(block_function(kind, dim))
        if kind == "quadratic" and signed_zeros:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            Q = np.where(np.eye(dim, dtype=bool), rng.uniform(0.0, 5.0, dim),
                         np.copysign(0.0, rng.uniform(-1.0, 1.0, (dim, dim))))
            f = Quadratic(Q, f.q)
            assert f.Q.tobytes() == ((Q + Q.T) / 2.0).tobytes()
        X, S = data.draw(blocks(dim, rows)), data.draw(blocks(dim, rows))
        if kind == "box":
            X[::2] = np.clip(X[::2], f.lower, f.upper)
        for x, s in ((X[0], S[0]), (X, S)):
            if f.smooth:
                value, grad = f.value_and_grad(x)
                assert_same(value, f(x))
                assert_same(grad, f.grad(x))
            value, distance = f.value_and_distance(x, s)
            assert_same(value, f(x))
            expected = distance_reference(kind, f, x, s)
            assert_same(distance, expected)
            assert_same(f.distance_to_subdifferential(x, s), expected)

    check()


def distance_reference(kind, f, x, s):
    """The distance from ``s`` to the subdifferential of ``f`` at ``x``,
    written apart from the kernels: the nested ``np.where`` of the L1 norm
    and of the box, and ``||s - grad f(x)||`` for the smooth kinds."""
    if kind == "l1":
        return l1_distance_nested_where(f, x, s)
    if kind == "box":
        distance = box_distance_nested_where(f, x, s)
    else:
        d = s - f.grad(x)
        distance = np.sqrt(np.vecdot(d, d))
    return float(distance) if distance.ndim == 0 else distance


def l1_distance_nested_where(f, x, s):
    """``L1Norm.distance_to_subdifferential`` as one ``np.where`` over both
    fully evaluated branches: the expression its masked fill is held to,
    bit for bit."""
    a = np.abs(x)
    active = a > 1e-8 * (1.0 + a.max(axis=-1, keepdims=True))
    per_coord = np.where(active, np.abs(s - f.weight * np.sign(x)),
                         np.maximum(np.abs(s) - f.weight, 0.0))
    distance = np.sqrt(np.vecdot(per_coord, per_coord))
    return float(distance) if distance.ndim == 0 else distance


SPECIAL_ENTRIES = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])


@st.composite
def row_buffer_views(draw, dim):
    """``(buf, x, s)``: a ``(rows, 3 dim)`` row buffer of 1 to BLOCK rows and
    its first and last ``dim`` columns, strided views as the certifier's
    iterate columns are. Entries are finite with exact zeros of either
    sign; about a third of the rows hold infinite and NaN entries. In every
    finite row of ``x`` with three entries or more, one entry is exactly at
    the :class:`L1Norm` activity threshold ``1e-8 (1 + max|x|)`` (inactive)
    and one is the next float above it (active), each of either sign."""
    rows = draw(st.integers(1, BLOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buf = rng.uniform(-10.0, 10.0, (rows, 3 * dim))
    buf[rng.uniform(size=buf.shape) < 0.2] = 0.0
    buf[rng.uniform(size=buf.shape) < 0.1] = -0.0
    x, s = buf[:, :dim], buf[:, 2 * dim :]
    for i in range(rows):
        top = int(np.argmax(np.abs(x[i])))
        others = [j for j in range(dim) if j != top]
        if rng.uniform() < 1 / 3:
            for row in (x[i], s[i]):
                spots = rng.integers(0, dim, 2)
                row[spots] = rng.choice(SPECIAL_ENTRIES, 2)
        elif len(others) >= 2 and x[i, top] != 0.0:
            at = 1e-8 * (1.0 + abs(x[i, top]))
            j, k = rng.choice(others, 2, replace=False)
            x[i, j] = rng.choice([-1.0, 1.0]) * at
            x[i, k] = rng.choice([-1.0, 1.0]) * np.nextafter(at, math.inf)
    return buf, x, s


def buffer_layouts(x, s):
    """``(x, s)`` as vectors, as contiguous blocks, as the strided views
    themselves, and a block against a vector either way."""
    return ((x[0], s[0]), (x.copy(), s.copy()), (x, s), (x, s[0]), (x[0], s))


def test_l1_value_and_distance_fill_one_buffer_with_the_bits_of_the_nested_where():
    # value_and_distance reads |x| once for the value and the activity mask,
    # and puts one branch's buffer over the other's with np.putmask: every
    # layout gives the bits of f(x) and of the np.where over both branches,
    # with no warning, and neither argument is written
    @BLOCK_EXAMPLES
    @given(BLOCK_DIMS, st.floats(0.1, 5.0), st.data())
    def check(dim, weight, data):
        f = L1Norm(dim, weight)
        buf, x, s = data.draw(row_buffer_views(dim))
        before = buf.tobytes()
        for point, target in buffer_layouts(x, s):
            expected = l1_distance_nested_where(f, point, target)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, distance = f.value_and_distance(point, target)
                assert_same(value, f(point))
                assert_same(distance, expected)
                assert_same(f.distance_to_subdifferential(point, target), expected)
        assert buf.tobytes() == before

    check()


@pytest.mark.parametrize("kind", ["zero", "squared_l2", "quadratic"])
def test_one_temporary_kernels_have_the_bits_of_the_separate_calls(kind):
    # SquaredL2.value_and_grad forms x - shift once, Zero's distance is
    # ||s|| with no difference formed, and Quadratic's value skips the
    # gradient's pass; each against the calls it stands for (for Zero,
    # ||s - grad(x)|| formed here), on every layout of a row buffer with
    # signed zeros, infinities and NaN, writing neither argument
    @BLOCK_EXAMPLES
    @given(BLOCK_DIMS, st.data())
    def check(dim, data):
        f = data.draw(block_function(kind, dim))
        buf, x, s = data.draw(row_buffer_views(dim))
        before = buf.tobytes()
        for point, target in buffer_layouts(x, s):
            with warnings.catch_warnings():
                # a dense product meets inf - inf in a row with both infinities
                warnings.simplefilter("ignore" if kind == "quadratic" else "error")
                if kind == "zero":
                    expected = distance_reference(kind, f, point, target)
                    assert_same(f.distance_to_subdifferential(point, target), expected)
                    value, distance = f.value_and_distance(point, target)
                    assert_same(value, f(point))
                    assert_same(distance, expected)
                elif kind == "squared_l2":
                    value, grad = f.value_and_grad(point)
                    assert_same(value, f(point))
                    assert_same(grad, f.grad(point))
                else:
                    assert_same(f(point), f.value_and_grad(point)[0])
        assert buf.tobytes() == before

    check()


@pytest.mark.parametrize("factory", FACTORIES)
def test_linear_map_block_calls_stack_the_vector_calls(factory):
    @BLOCK_EXAMPLES
    @given(linear_map(factory), st.data())
    def check(A, data):
        rows = data.draw(st.integers(1, BLOCK))
        X, V = data.draw(blocks(A.cols, rows)), data.draw(blocks(A.rows, rows))
        assert_stacked(A.apply(X), [A.apply(x) for x in X])
        assert_stacked(A.adjoint(V), [A.adjoint(v) for v in V])

    check()


@st.composite
def metric(draw, kind):
    """A metric operator of ``kind``."""
    dim = draw(BLOCK_DIMS)
    if kind == "zero":
        return MetricOperator.zero(dim)
    if kind == "scaled_identity":
        return MetricOperator.scaled_identity(dim, draw(POSITIVE))
    if kind == "diagonal":
        return MetricOperator.diagonal(np.abs(draw(blocks(dim, 1))[0]))
    if kind == "dense":
        B = draw(blocks(dim, dim))
        return MetricOperator.dense(B @ B.T)
    A = LinearMap.from_dense(draw(blocks(draw(BLOCK_DIMS), dim)))
    c = draw(POSITIVE)
    bound = c * operator_norm(A) ** 2
    tau = draw(st.floats(0.5, 1.0)) / bound if bound > 0 else 1.0
    return MetricOperator.shifted_gram(tau, c, A)


@pytest.mark.parametrize(
    "kind", ["zero", "scaled_identity", "diagonal", "dense", "shifted_gram"]
)
def test_metric_block_calls_stack_the_vector_calls(kind):
    @BLOCK_EXAMPLES
    @given(metric(kind), st.data())
    def check(U, data):
        X = data.draw(blocks(U.dim))
        assert_stacked(U.apply(X), [U.apply(x) for x in X])
        assert_stacked(U.seminorm_sq(X), [U.seminorm_sq(x) for x in X])

    check()


@pytest.mark.parametrize("name", ["tv1d", "lasso-split", "box-qp", "toy1d"])
def test_diagnostics_block_calls_stack_the_vector_calls(name):
    # the certifier's calls: KKT residuals, Lagrangian terms and values,
    # gammas, gap certificates and u/v over blocks of points
    @BLOCK_EXAMPLES
    @given(catalog_problem(name), st.data())
    def check(built, data):
        problem, _ = built
        rows = data.draw(st.integers(1, BLOCK))
        x = data.draw(blocks(problem.n, rows))
        z, y = data.draw(blocks(problem.m, rows)), data.draw(blocks(problem.m, rows))
        if name == "box-qp":
            x[::2] = np.clip(x[::2], 0.0, 1.0)  # the others are outside the box
        Ax = problem.A.apply(x)
        assert_stacked(diagnostics.kkt_residual(problem, x, y, Ax),
                       [diagnostics.kkt_residual(problem, *p) for p in zip(x, y)])
        terms = diagnostics.lagrangian_terms(problem, x, z)
        value, residual = terms
        assert_stacked(value, [diagnostics.lagrangian_terms(problem, *p)[0]
                               for p in zip(x, z)])
        assert_stacked(residual, [diagnostics.lagrangian_terms(problem, *p)[1]
                                  for p in zip(x, z)])
        assert_stacked(diagnostics.lagrangian_at(terms, y),
                       [diagnostics.lagrangian(problem, *p) for p in zip(x, z, y)])
        init = initial_state(problem)
        m1 = MetricOperator.scaled_identity(problem.n, 2.0)
        m2 = MetricOperator.scaled_identity(problem.m, 0.5)
        gammas = diagnostics.gamma(problem, init, m1, m2, (x, z, y))
        assert_stacked(gammas, [diagnostics.gamma(problem, init, m1, m2, p)
                                for p in zip(x, z, y)])
        ks = np.arange(1, rows + 1)
        right = value[::-1].copy()  # infinite on both sides: a NaN gap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = diagnostics.gap_certificate(value, right, gammas, ks)
            singles = [diagnostics.gap_certificate(*p)
                       for p in zip(value.tolist(), right.tolist(),
                                    gammas.tolist(), ks.tolist())]
        for field in ("gap", "bound", "slack"):
            assert_stacked(getattr(cert, field), [getattr(c, field) for c in singles])
        if isinstance(problem.h, Zero):
            saddle = (x[0], z[0], y[0])
            prev, cur = (x[:-1], z[:-1], y[:-1]), (x[1:], z[1:], y[1:])
            u, v, _ = diagnostics.uv_step(problem, saddle, m1, m2, prev, cur)
            pairs = [diagnostics.uv_step(problem, saddle, m1, m2, a, b)
                     for a, b in zip(zip(*prev), zip(*cur))]
            assert_stacked(u, [p[0] for p in pairs])
            assert_stacked(v, [p[1] for p in pairs])

    check()


SETUP_CASES = ["tv1d-shifted-gram", "tv1d-dense", "tv1d-diagonal", "lasso-g",
               "lasso-h", "box-qp", "toy1d-diagonal", "toy1d-geometric"]


@st.composite
def certifier_setups(draw, case):
    """``(cfg, center)``: a run config of ``case`` at a small size, with a
    drawn initial point and probe seed, and a drawn ``(x, z, y)`` center to
    stand in for the saddle, which the set-up reads only as the probes'
    center. For box-qp the center's x sits on the box's bounds, so that
    probes leave the box."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    data_seed = draw(st.integers(1, 2**31 - 1))

    def constant(kind, **entries):
        return {"kind": "constant", "metric": {"kind": kind, **entries}}

    metric1, metric2 = constant("scaled_identity", mu=1.0), constant("zero")
    if case.startswith("tv1d"):
        problem = {"name": "tv1d", "n": n, "seed": data_seed}
        B = rng.uniform(-1.0, 1.0, (n, n))
        metric1 = {
            "tv1d-shifted-gram": {"kind": "shifted_gram", "tau": 0.19},
            "tv1d-dense": constant("dense", matrix=(B @ B.T + np.eye(n)).tolist()),
            "tv1d-diagonal": constant("diagonal",
                                      entries=rng.uniform(0.5, 3.0, n).tolist()),
        }[case]
    elif case.startswith("lasso"):
        problem = {"name": "lasso-split", "n": n, "rows": n + 2, "seed": data_seed,
                   "quadratic_in": case[-1]}
    elif case == "box-qp":
        problem = {"name": "box-qp", "n": n, "seed": data_seed}
        metric1 = constant("scaled_identity", mu=5.0)
    else:
        problem = {"name": "toy1d"}
        metric2 = (constant("diagonal", entries=[0.7]) if case == "toy1d-diagonal"
                   else {"kind": "geometric_decay", "rho": 0.9,
                         "metric": {"kind": "scaled_identity", "mu": 1.0}})
    built = build_problem(problem["name"], **{k: v for k, v in problem.items()
                                              if k != "name"})[0]
    dims = (built.n, built.m, built.m)
    init = {key: rng.uniform(-2.0, 2.0, dim).tolist()
            for key, dim in zip("xzy", dims)}
    center = [rng.uniform(-2.0, 2.0, dim) for dim in dims]
    if case == "box-qp":
        center[0] = np.arange(dims[0]) % 2.0
    cfg = RunConfig(problem=problem, metric1=metric1, metric2=metric2, c=1.0,
                    iters=5, init=init, checks=["gap_bound"],
                    seed=draw(st.integers(0, 2**32 - 1)))
    return cfg, tuple(center)


@pytest.mark.parametrize("case", SETUP_CASES)
def test_certifier_setup_has_the_bits_of_the_stacked_probe_calls(case):
    # the certifier draws each probe when it certifies it and keeps only its
    # y, gamma and Lagrangian terms, from 1-D calls: they equal, byte for
    # byte, the block calls over the saddle stacked with
    # diagnostics.ball_probes, whose draw is held to the reference draw
    @BLOCK_EXAMPLES
    @given(certifier_setups(case))
    def check(setup):
        cfg, center = setup
        problem, _, s1, s2, init = prepare(cfg)
        report = validate_assumptions(problem, s1, s2)
        certifier = _Certifier(cfg, problem, init, s1, s2, center, report, io.StringIO())
        sampled = list(diagnostics.ball_probes(center, 10, seed=cfg.seed))
        reference = ball_probes_reference(center, 1.0, 10, cfg.seed)
        assert [[v.tobytes() for v in p] for p in sampled] == [
            [v.tobytes() for v in p] for p in reference]
        x, z, y = (np.array([p[i] for p in [center] + sampled]) for i in range(3))
        Ax = problem.A.apply(x)
        gammas = diagnostics.gamma(problem, init, s1.metric(0), s2.metric(0),
                                   (x, z, y), Ax)
        values, residuals = diagnostics.lagrangian_terms(problem, x, z, Ax)
        if case == "box-qp":
            assert np.isinf(values[1:]).any()
        got_y, got_gammas, got_values, got_residuals = certifier.folds[-1].probes
        assert got_y.tobytes() == y.tobytes()
        assert got_gammas.tobytes() == gammas.tobytes()
        assert got_values.tobytes() == values.tobytes()
        assert got_residuals.tobytes() == residuals.tobytes()

    check()


THEORY_CHECKS = ["gap_bound", "v_inequality", "v_monotone", "feasibility_rate",
                 "dual_identity"]
ZERO_SCHEDULE = {"kind": "constant", "metric": {"kind": "zero"}}


@st.composite
def theory_runs(draw):
    """The fields of a run config: a catalog problem with n <= 12, a penalty
    log-uniform in [0.05, 20], two schedules (zero, scaled identity,
    diagonal, shifted Gram or geometric decay; M2 is zero in one draw in
    seven), a zero or random start and at most 150 iterations. Scales are
    relative to L, and steps to ``1 / (c ||A||^2)``, so that many draws are
    permitted."""
    name = draw(st.sampled_from(["toy1d", "tv1d", "lasso-g", "lasso-h", "box-qp"]))
    if name == "toy1d":
        problem = {"name": "toy1d"}
    elif name == "tv1d":
        problem = {"name": "tv1d", "n": draw(st.integers(2, 12))}
    elif name == "box-qp":
        problem = {"name": "box-qp", "n": draw(st.integers(1, 12))}
    else:
        n = draw(st.integers(1, 12))
        problem = {"name": "lasso-split", "n": n, "rows": draw(st.integers(n, 12)),
                   "quadratic_in": name[-1]}
    c = math.exp(draw(st.floats(math.log(0.05), math.log(20.0))))
    params = {k: v for k, v in problem.items() if k != "name"}
    P, meta = build_problem(problem["name"], c=c, **params)
    scale = meta["L"] or 1.0
    max_tau = 1.0 / (c * meta["norm_A"] ** 2)

    def metric(dim, kind):
        if kind == "zero":
            return {"kind": "zero"}
        if kind == "scaled_identity":
            return {"kind": kind, "mu": scale * draw(st.floats(0.25, 4.0))}
        if kind == "diagonal":
            entries = st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim)
            return {"kind": kind, "entries": [scale * e for e in draw(entries)]}
        return {"kind": kind, "tau": max_tau * draw(st.floats(0.2, 0.95))}

    def schedule(dim, kinds):
        kind = draw(st.sampled_from(kinds))
        if kind == "geometric_decay":
            base = draw(st.sampled_from(["scaled_identity", "diagonal", "shifted_gram"]))
            return {"kind": kind, "metric": metric(dim, base),
                    "rho": draw(st.floats(0.3, 1.0))}
        if kind == "shifted_gram":
            steps = draw(st.lists(st.floats(0.2, 0.95), min_size=1, max_size=3))
            return {"kind": kind, "tau": [max_tau * t for t in sorted(steps)]}
        return {"kind": "constant", "metric": metric(dim, kind)}

    nonzero = ["scaled_identity", "diagonal", "shifted_gram", "geometric_decay"]
    metric1 = schedule(P.n, ["zero"] + nonzero)
    metric2 = schedule(P.m, ["scaled_identity", "diagonal", "zero", "scaled_identity",
                             "diagonal", "shifted_gram", "geometric_decay"])
    init = "zeros"
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        init = {"x": rng.uniform(-2.0, 2.0, P.n).tolist(),
                "z": rng.uniform(-2.0, 2.0, P.m).tolist(),
                "y": rng.uniform(-2.0, 2.0, P.m).tolist()}
    return dict(problem=problem, c=c, metric1=metric1, metric2=metric2, init=init,
                iters=draw(st.integers(1, 150)))


def test_every_permitted_run_passes_the_theory_checks(tmp_path):
    # every run the validator permits passes each theorem check it can
    # evaluate; a run it refuses, or rejects as inexact, is discarded
    @given(theory_runs())
    @settings(max_examples=150)
    # the feasibility bound holds while the residual's fitted slope is -0.006
    @example(dict(problem={"name": "toy1d"}, c=0.1, metric1=ZERO_SCHEDULE,
                  metric2=ZERO_SCHEDULE, init="zeros", iters=150))
    # permitted (condition I holds) with M1 - L id not PSD: the ergodic gap
    # bound's hypotheses fail, and its slack reaches -8.3e-2
    @example(dict(problem={"name": "tv1d", "n": 2}, c=1.0,
                  metric1={"kind": "constant",
                           "metric": {"kind": "scaled_identity", "mu": 0.51}},
                  metric2=ZERO_SCHEDULE, init="zeros", iters=150))
    def check(fields):
        cfg = RunConfig(**fields, checks=THEORY_CHECKS, out_dir=str(tmp_path))
        try:
            result = run_experiment(cfg)
        except (StrategyError, UnsupportedMetric):
            return
        if result.exit_code == 3:  # the validator refused the schedules
            return
        for name, (passed, detail) in result.checks.items():
            assert passed or detail.startswith("not evaluable"), (name, detail, fields)

    check()


# ---------------------------------------------------------------------------
# metrics under scaling: every metric handed out passed its factory's checks
# ---------------------------------------------------------------------------

# factors across the whole float range: subnormal, tiny, ordinary, huge
FACTORS = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307))
# the error each kind's factory raises, and the quantity it names
REFUSALS = {
    "scaled_identity": (ValueError, "mu"),
    "diagonal": (ValueError, "diagonal metric"),
    "dense": ((ValueError, NotPositiveSemidefinite), "dense metric"),
    "shifted_gram": ((ValueError, NotPositiveSemidefinite), "tau|coupling"),
}
# dimensions the factories take, and two below 1 that they refuse
METRIC_DIMS = st.sampled_from([1, 2, 3, 4, 0, -1])
# eight units in the last place of a subnormal: the roundoff of a metric
# whose scale is subnormal, below which no relative bound reaches
TINY = 8 * 5e-324


def metric_scale(U):
    """The largest entry of ``U`` (``1/tau`` bounds a shifted Gram metric's)."""
    return 1.0 / U.tau if U.kind == "shifted_gram" else float(np.abs(U.to_dense()).max())


class MetricMachine(RuleBasedStateMachine):
    """Metrics from every factory, scaled by factors from 1e-323 to 1e308,
    0, NaN and inf, and read from schedules at large k. Every metric handed
    out is finite, symmetric and PSD, with the smallest eigenvalue its
    factory recorded; every step refused raises its factory's documented
    error, which names the quantity."""

    metrics = Bundle("metrics")

    def __init__(self):
        super().__init__()
        self.live = []

    def hand_out(self, make, refusal):
        error, names = refusal
        try:
            U = make()
        except error as exc:
            assert re.search(names, str(exc)), str(exc)
            return multiple()
        self.live.append(U)
        return U

    @initialize(target=metrics)
    def past_overflow(self):
        # rho^k tau overflows from k = 1030 on at rho = 1/2
        return self.hand_out(
            lambda: MetricOperator.shifted_gram(0.2, 1.0, forward_difference(5)),
            REFUSALS["shifted_gram"])

    @rule(target=metrics, dim=METRIC_DIMS, factor=FACTORS)
    def scaled_identity(self, dim, factor):
        refusal = (ValueError, "dim") if dim < 1 else REFUSALS["scaled_identity"]
        return self.hand_out(lambda: MetricOperator.scaled_identity(dim, factor), refusal)

    @rule(target=metrics, dim=METRIC_DIMS)
    def zero(self, dim):
        return self.hand_out(lambda: MetricOperator.zero(dim), (ValueError, "dim"))

    @rule(target=metrics, dim=st.sampled_from([1, 2, 3, 4, 0]), factor=FACTORS,
          seed=st.integers(0, 99))
    def diagonal(self, dim, factor, seed):
        d = factor * np.random.default_rng(seed).uniform(0.0, 1.0, dim)
        refusal = (ValueError, "dim") if dim < 1 else REFUSALS["diagonal"]
        return self.hand_out(lambda: MetricOperator.diagonal(d), refusal)

    @rule(target=metrics, dim=st.sampled_from([1, 2, 3, 4, 0]), factor=FACTORS,
          seed=st.integers(0, 99))
    def dense(self, dim, factor, seed):
        B = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim, dim))
        with np.errstate(over="ignore"):
            M = factor * (B @ B.T)
        refusal = (ValueError, "dim") if dim < 1 else REFUSALS["dense"]
        return self.hand_out(lambda: MetricOperator.dense(M), refusal)

    @rule(target=metrics, dim=st.integers(2, 4), coupling=FACTORS,
          fraction=st.floats(0.0, 1.0, exclude_min=True),
          map_kind=st.sampled_from(["identity", "zero", "forward_difference"]))
    def shifted_gram(self, dim, coupling, fraction, map_kind):
        A = {"identity": LinearMap.identity(dim),
             "zero": LinearMap.from_dense(np.zeros((dim, dim))),
             "forward_difference": forward_difference(dim)}[map_kind]
        with np.errstate(over="ignore"):
            bound = coupling * operator_norm(A) ** 2
        tau = fraction / bound if bound > 0 else fraction
        return self.hand_out(lambda: MetricOperator.shifted_gram(tau, coupling, A),
                             REFUSALS["shifted_gram"])

    @rule(target=metrics, U=metrics,
          s=st.one_of(FACTORS, st.sampled_from([0.0, -1.0, math.nan, math.inf])))
    def scale(self, U, s):
        if not s >= 0:
            refusal = (NotPositiveSemidefinite, "scaling factor")
        elif s == math.inf:
            refusal = (ValueError, "scaling factor")
        else:
            refusal = REFUSALS[U.kind]
        return self.hand_out(lambda: U.scaled(s), refusal)

    @rule(target=metrics, U=metrics,
          rho=st.one_of(st.just(0.5), st.floats(0.01, 1.0)),
          k=st.one_of(st.just(1030), st.integers(0, 80_000)))
    def geometric(self, U, rho, k):
        return self.hand_out(lambda: GeometricDecaySchedule(U, rho).metric(k),
                             REFUSALS[U.kind])

    @rule(target=metrics, taus=st.lists(st.floats(0.01, 0.2), min_size=1, max_size=4),
          k=st.integers(0, 10**9))
    def step_schedule(self, taus, k):
        schedule = ShiftedGramSchedule(taus, 1.0, forward_difference(3))
        return self.hand_out(lambda: schedule.metric(k), REFUSALS["shifted_gram"])

    @invariant()
    def every_metric_is_a_finite_psd_matrix(self):
        for U in self.live:
            D = U.to_dense()
            assert np.all(np.isfinite(D)) and np.array_equal(D, D.T)
            scale = metric_scale(U)
            lam = min_eigenvalue(U)
            assert lam >= -1e-12 * scale - TINY
            assert abs(lam - float(np.linalg.eigvalsh(D)[0])) <= 1e-12 * scale + TINY
            # probes shrunk so that <x, Ux> is at most dim: a larger value
            # need not be a float at all for a metric of scale 1e308
            X = np.random.default_rng(U.dim).uniform(-1.0, 1.0, (3, U.dim))
            X /= math.sqrt(U.dim) * math.sqrt(max(1.0, scale))
            values = U.seminorm_sq(X)
            assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


MetricMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=20)
test_metric_machine = MetricMachine.TestCase
