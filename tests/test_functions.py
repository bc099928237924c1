import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import count_eigh, count_factorizations, minimize_1d
from vmadmm.errors import CapabilityError, DimensionMismatch, SingularSubproblem
from vmadmm.functions import (
    BoxIndicator,
    ConvexFunction,
    Huber,
    L1Norm,
    Quadratic,
    SquaredL2,
    Zero,
)

ALL_PROXABLE = [
    Zero(3),
    L1Norm(3, weight=1.5),
    SquaredL2(3, shift=[1.0, -1.0, 0.5], weight=2.0),
    BoxIndicator(3, lower=-1.0, upper=2.0),
    Quadratic(np.diag([1.0, 2.0, 3.0]), [0.5, 0.0, -0.5]),
    Huber(3, delta=0.5, weight=2.0),
]

ALL_SMOOTH = [f for f in ALL_PROXABLE if f.smooth]
# the kinds with a closed-form Fenchel conjugate
ALL_CONJUGABLE = [
    f for f in ALL_PROXABLE if isinstance(f, (Zero, L1Norm, SquaredL2, BoxIndicator))
]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_l1():
    assert L1Norm(2, weight=2.0)(np.array([1.0, -3.0])) == pytest.approx(8.0)


def test_eval_squared_l2():
    assert SquaredL2(2, shift=0.0, weight=1.0)(np.array([3.0, 4.0])) == pytest.approx(12.5)


def test_eval_box_outside_is_inf_not_nan():
    box = BoxIndicator(2, lower=[0.0, 0.0], upper=[1.0, 1.0])
    value = box(np.array([2.0, 0.0]))
    assert math.isinf(value) and value > 0
    assert not math.isnan(value)
    assert box(np.array([0.5, 1.0])) == 0.0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        L1Norm(2, weight=1.0)(np.ones(3))


def test_infinity_propagates_through_sums():
    box = BoxIndicator(1, lower=0.0, upper=1.0)
    assert box(np.array([2.0])) + 5.0 == math.inf
    assert math.inf > 1e300  # comparisons with inf are total


# ---------------------------------------------------------------------------
# prox
# ---------------------------------------------------------------------------


def test_prox_l1_soft_threshold():
    f = L1Norm(2, weight=1.0)
    assert np.allclose(f.prox(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])


def test_soft_threshold_keeps_the_bits_of_its_expression():
    # written into its own buffers, with the operands of
    # sign(v) * max(|v| - t, 0) in that order, signed zeros included
    from vmadmm.functions import _soft_threshold

    v = np.array([0.0, -0.0, 0.25, -0.25, 3.0, -3.0, 1e-300, np.nextafter(0.5, 1)])
    for t in (0.5, np.linspace(0.1, 0.8, v.size)):
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        got = _soft_threshold(v, t)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert not np.shares_memory(got, v)


def test_prox_zero_is_identity():
    f = Zero(2)
    v = np.array([3.0, -4.0])
    assert np.array_equal(f.prox(v, 7.5), v)


def test_prox_quadratic_scalar():
    f = Quadratic([[1.0]], [0.0])
    assert f.prox(np.array([4.0]), 1.0) == pytest.approx([2.0])


def test_prox_requires_positive_t():
    # the message names the offending step; NaN is rejected like t <= 0
    for f in ALL_PROXABLE:
        for t in (0.0, -1.0, math.nan):
            for prox in (f.prox, f.prox_conjugate):
                with pytest.raises(ValueError, match=f"got {t!r}"):
                    prox(np.ones(f.dim), t)


@pytest.mark.parametrize("f", ALL_PROXABLE, ids=lambda f: type(f).__name__)
def test_prox_subgradient_characterization(f):
    # u = prox(v, t) must satisfy F(w) >= F(u) + <(v-u)/t, w-u> for all w
    rng = np.random.default_rng(101)
    for _ in range(5):
        v = rng.standard_normal(f.dim) * 3.0
        t = float(rng.uniform(0.1, 4.0))
        u = f.prox(v, t)
        fu = f(u)
        assert math.isfinite(fu)
        sub = (v - u) / t
        for _ in range(100):
            w = rng.standard_normal(f.dim) * 3.0
            assert f(w) >= fu + float(sub @ (w - u)) - 1e-10


def test_prox_huber_matches_bruteforce():
    f = Huber(1, delta=0.5, weight=2.0)
    for v, t in [(3.0, 1.0), (0.3, 0.7), (-1.2, 0.25)]:
        expected = minimize_1d(
            lambda u: f(np.array([u])) + (u - v) ** 2 / (2.0 * t), -6.0, 6.0
        )
        assert f.prox(np.array([v]), t)[0] == pytest.approx(expected, abs=5e-8)


def test_prox_quadratic_large_dim_exact_with_cached_factor(monkeypatch):
    # every dimension takes the exact spectral path: one eigendecomposition
    # of Q serves every step size, and no Cholesky factor is made
    factorizations = count_factorizations(monkeypatch)
    decompositions = count_eigh(monkeypatch)
    n = 500
    rng = np.random.default_rng(9)
    B = rng.standard_normal((n, n)) / math.sqrt(n)
    f = Quadratic(B @ B.T, rng.standard_normal(n))
    for t in (0.7, 0.7, 3.0, 0.05, 40.0):
        v = rng.standard_normal(n)
        u = f.prox(v, t)
        residual = np.linalg.norm(f.grad(u) + (u - v) / t)
        scale = np.linalg.norm(f.Q @ u) + np.linalg.norm(f.q) + np.linalg.norm(v) / t
        assert residual <= 1e-10 * scale
    assert decompositions == [(n, n)]
    assert factorizations == []


def test_prox_quadratic_rejects_indefinite_step():
    # the constructor accepts an eigenvalue of -1e-11 as rounding; the prox
    # stays exact while 1 + t lam > 0 and raises once it is not
    f = Quadratic(np.diag([-1e-11, 1.0]), [0.5, -0.5])
    v = np.array([1.0, 2.0])
    u = f.prox(v, 1e10)
    assert np.linalg.norm(f.grad(u) + (u - v) / 1e10) <= 1e-12 * np.linalg.norm(v)
    for t in (2e11, 1e13):
        with pytest.raises(SingularSubproblem, match="not positive definite"):
            f.prox(v, t)


def test_prox_quadratic_holds_one_factor_across_step_sizes():
    # a schedule whose t changes every call must not keep a factor per t
    n = 200
    B = np.random.default_rng(4).standard_normal((n, n)) / math.sqrt(n)
    f = Quadratic(B @ B.T, None)
    v = np.ones(n)
    f.prox(v, 1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(50):
            f.prox(v, 1.0 / (1.0 + 0.99**k))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2 * n * n * 8


def test_prox_quadratic_keeps_the_bits_of_a_fresh_instance_as_t_changes():
    # the step's constants (t, 1 + t lam, t q) are kept for the last t only:
    # at t1, t2 and t1 again each call has the bits of a first call at that t
    n = 12
    rng = np.random.default_rng(5)
    B = rng.standard_normal((n, n))
    Q, q = B @ B.T, rng.standard_normal(n)
    v = rng.standard_normal(n)
    f = Quadratic(Q, q)
    for t in (0.3, 1.7, 0.3):
        expected = Quadratic(Q, q).prox(v, t)
        assert np.array_equal(f.prox(v, t).view(np.uint64), expected.view(np.uint64))
    assert f._at_step[0] == 0.3
    assert [a.size for a in f._at_step[1:]] == [n, n]


def test_prox_quadratic_caches_no_step_it_refused():
    # a t at which I + tQ is indefinite raises on every call, also after a
    # step that passed, and a later good t still has a fresh instance's bits
    f = Quadratic(np.diag([-1e-11, 1.0]), [0.5, -0.5])
    v = np.array([1.0, 2.0])
    for t in (2e11, 2e11, 1.0, 2e11, 2e11):
        if t == 1.0:
            fresh = Quadratic(f.Q, f.q).prox(v, t)
            assert np.array_equal(f.prox(v, t).view(np.uint64), fresh.view(np.uint64))
            continue
        with pytest.raises(SingularSubproblem, match="not positive definite"):
            f.prox(v, t)
    assert f._at_step[0] == 1.0


def test_quadratic_built_from_a_bitwise_symmetric_matrix_copies_it_once():
    # the argument is its own (Q + Q^T) / 2: the eigensolve reads it and the
    # one n x n the build adds is the kept copy (a symmetrize buffer as well
    # read about 1.2 n x n, eigvalsh's copy being outside tracemalloc's view)
    n = 200
    B = np.random.default_rng(5).standard_normal((n, n))
    Q = B.T @ B
    assert np.array_equal(Q.view(np.uint64), Q.view(np.uint64).T)
    Quadratic(Q)  # warm
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = Quadratic(Q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert f.Q.tobytes() == Q.tobytes() and f.Q is not Q
    assert peak <= 1.1 * n * n * 8


# ---------------------------------------------------------------------------
# prox under diagonal metrics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f", [f for f in ALL_PROXABLE if not isinstance(f, Quadratic)],
    ids=lambda f: type(f).__name__,
)
@pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
def test_prox_diag_requires_positive_diagonal(f, bad):
    d = np.array([1.0, bad, 3.0])
    with pytest.raises(ValueError, match=f"smallest {bad!r}"):
        f.prox_diag(np.ones(3), d)
    with pytest.raises(DimensionMismatch):
        f.prox_diag(np.ones(3), np.ones(2))


def test_prox_diag_l1():
    f = L1Norm(2, weight=1.0)
    out = f.prox_diag(np.array([2.0, 2.0]), np.array([1.0, 4.0]))
    assert np.allclose(out, [1.0, 1.75])


def test_prox_diag_zero():
    assert np.allclose(Zero(1).prox_diag(np.array([3.0]), np.array([7.0])), [3.0])


def test_prox_diag_box_ignores_weights():
    box = BoxIndicator(1, lower=0.0, upper=1.0)
    assert np.allclose(box.prox_diag(np.array([5.0]), np.array([2.0])), [1.0])


@pytest.mark.parametrize("lower, upper", [
    (-1.0, 2.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 1.0), (-1.0, -0.0),
    (-math.inf, 2.0), (-1.0, math.inf), (-math.inf, math.inf), (-math.inf, -math.inf),
    ([-1.0, -math.inf, 0.0, -0.0, 2.0, -math.inf], [2.0, 0.0, math.inf, 0.0, 2.0, math.inf]),
])
def test_box_prox_has_the_bits_of_np_clip(lower, upper):
    # signed zeros, infinities, NaN, and values on and beyond each bound; the
    # reference is np.clip itself, whose signed zeros np.maximum and
    # np.minimum do not always keep
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, 2.0, -1.5, 2.5,
              0.5, 1e300, -1e300, -5e-324, 5e-324]
    box = BoxIndicator(6, lower, upper)
    for value in values:
        v = np.full(6, value)
        expected = np.clip(v, box.lower, box.upper).view(np.uint64)
        assert np.array_equal(box.prox(v, 0.7).view(np.uint64), expected)
        assert np.array_equal(box.prox_diag(v, np.full(6, 3.0)).view(np.uint64), expected)


def test_prox_diag_matches_scalar_prox():
    for f in (L1Norm(3, 0.8), SquaredL2(3, shift=1.0, weight=2.0), Huber(3, 0.4)):
        v = np.array([1.0, -2.0, 0.3])
        d = np.full(3, 2.5)
        assert np.allclose(f.prox_diag(v, d), f.prox(v, 1.0 / 2.5))


def test_prox_diag_not_separable():
    f = Quadratic(np.eye(2), None)
    with pytest.raises(CapabilityError):
        f.prox_diag(np.ones(2), np.ones(2))


def test_prox_diag_bruteforce_oracle():
    # coordinatewise independent minimization for a separable instance
    f = SquaredL2(2, shift=[1.0, -2.0], weight=3.0)
    v = np.array([0.5, 0.5])
    d = np.array([2.0, 5.0])
    out = f.prox_diag(v, d)
    for i in range(2):
        expected = minimize_1d(
            lambda u, i=i: 0.5 * 3.0 * (u - f.shift[i]) ** 2
            + 0.5 * d[i] * (u - v[i]) ** 2,
            -5.0,
            5.0,
        )
        assert out[i] == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_grad_squared_l2():
    f = SquaredL2(2, shift=[1.0, 1.0], weight=2.0)
    assert np.allclose(f.grad(np.array([2.0, 3.0])), [2.0, 4.0])


def test_grad_zero():
    assert np.array_equal(Zero(3).grad(np.ones(3)), np.zeros(3))


def test_grad_quadratic():
    f = Quadratic([[2.0, 0.0], [0.0, 4.0]], [1.0, 0.0])
    assert np.allclose(f.grad(np.array([1.0, 1.0])), [3.0, 4.0])


def test_grad_not_smooth():
    with pytest.raises(CapabilityError):
        L1Norm(2, 1.0).grad(np.zeros(2))


def test_distance_without_a_formula_is_a_capability_error():
    # a kind with a value but neither a gradient nor its own kernel
    class ValueOnly(ConvexFunction):
        def __call__(self, x):
            return 0.0

    f = ValueOnly(2)
    with pytest.raises(CapabilityError):
        f.distance_to_subdifferential(np.zeros(2), np.zeros(2))
    with pytest.raises(CapabilityError):
        f.value_and_distance(np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("f", ALL_SMOOTH, ids=lambda f: type(f).__name__)
def test_grad_matches_central_differences(f):
    rng = np.random.default_rng(7)
    step = 1e-6
    for _ in range(10):
        x = rng.standard_normal(f.dim) * 2.0
        g = f.grad(x)
        for i in range(f.dim):
            e = np.zeros(f.dim)
            e[i] = step
            fd = (f(x + e) - f(x - e)) / (2.0 * step)
            assert abs(g[i] - fd) <= 1e-5


@pytest.mark.parametrize("f", ALL_SMOOTH, ids=lambda f: type(f).__name__)
def test_gradient_lipschitz_certificate(f):
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.standard_normal(f.dim) * 5.0
        w = rng.standard_normal(f.dim) * 5.0
        lhs = np.linalg.norm(f.grad(x) - f.grad(w))
        assert lhs <= f.lipschitz * np.linalg.norm(x - w) * (1.0 + 1e-10) + 1e-15


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------


def test_conjugate_l1_inside_ball():
    assert L1Norm(2, 1.0).conjugate(np.array([0.5, -1.0])) == 0.0


def test_conjugate_l1_outside_ball():
    assert L1Norm(2, 1.0).conjugate(np.array([2.0, 0.0])) == math.inf


def test_conjugate_squared_l2():
    assert SquaredL2(2, 0.0, 1.0).conjugate(np.array([2.0, 0.0])) == pytest.approx(2.0)


def test_conjugate_zero():
    assert Zero(2).conjugate(np.zeros(2)) == 0.0
    assert Zero(2).conjugate(np.array([0.0, 1e-300])) == math.inf


def test_conjugate_box_support_function():
    box = BoxIndicator(2, lower=[-1.0, 0.0], upper=[2.0, 3.0])
    assert box.conjugate(np.array([1.0, -1.0])) == pytest.approx(2.0)
    unbounded = BoxIndicator(1, lower=0.0, upper=math.inf)
    assert unbounded.conjugate(np.array([1.0])) == math.inf
    assert unbounded.conjugate(np.array([0.0])) == 0.0
    assert unbounded.conjugate(np.array([-1.0])) == 0.0


def test_conjugate_not_available():
    with pytest.raises(CapabilityError):
        Quadratic(np.eye(2), None).conjugate(np.zeros(2))
    with pytest.raises(CapabilityError):
        Huber(2, 0.5).conjugate(np.zeros(2))


@pytest.mark.parametrize("f", ALL_CONJUGABLE, ids=lambda f: type(f).__name__)
def test_fenchel_young(f):
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.standard_normal(f.dim) * 2.0
        y = rng.standard_normal(f.dim) * 2.0
        lhs = f(x) + f.conjugate(y)
        if math.isinf(lhs):
            continue
        assert lhs >= float(x @ y) - 1e-10


# ---------------------------------------------------------------------------
# prox of the conjugate (Moreau decomposition)
# ---------------------------------------------------------------------------


def test_prox_conjugate_l1_is_ball_projection():
    f = L1Norm(1, weight=1.0)
    assert f.prox_conjugate(np.array([3.0]), 1.0) == pytest.approx([1.0])


def test_prox_conjugate_zero():
    # conjugate of zero is the indicator of {0}; its prox maps everything to 0
    assert Zero(1).prox_conjugate(np.array([4.0]), 2.0) == pytest.approx([0.0])


def test_prox_conjugate_squared_l2_derived():
    # independent oracle: minimize y^2/2 + (y - 3)^2 / 2 directly
    f = SquaredL2(1, shift=0.0, weight=1.0)
    expected = minimize_1d(lambda y: 0.5 * y * y + 0.5 * (y - 3.0) ** 2, -10.0, 10.0)
    assert expected == pytest.approx(1.5, abs=5e-8)
    got = f.prox_conjugate(np.array([3.0]), 1.0)[0]
    assert got == pytest.approx(expected, abs=5e-8)
    assert got == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("f", ALL_PROXABLE, ids=lambda f: type(f).__name__)
def test_moreau_identity_at_unit_step(f):
    rng = np.random.default_rng(53)
    for _ in range(20):
        v = rng.standard_normal(f.dim) * 4.0
        recombined = f.prox(v, 1.0) + f.prox_conjugate(v, 1.0)
        assert np.max(np.abs(recombined - v)) <= 1e-12


# ---------------------------------------------------------------------------
# subdifferential distances
# ---------------------------------------------------------------------------


def test_subdiff_distance_l1():
    f = L1Norm(2, weight=1.0)
    # at x = (2, 0): subdifferential is {1} x [-1, 1]
    assert f.distance_to_subdifferential(
        np.array([2.0, 0.0]), np.array([1.0, 0.5])
    ) == pytest.approx(0.0)
    assert f.distance_to_subdifferential(
        np.array([2.0, 0.0]), np.array([0.0, 2.0])
    ) == pytest.approx(math.sqrt(2.0))


def test_subdiff_distance_box():
    box = BoxIndicator(1, lower=0.0, upper=1.0)
    # at the lower bound the normal cone is (-inf, 0]
    assert box.distance_to_subdifferential(np.array([0.0]), np.array([-3.0])) == 0.0
    assert box.distance_to_subdifferential(np.array([0.0]), np.array([2.0])) == 2.0
    assert box.distance_to_subdifferential(np.array([0.5]), np.array([0.3])) == 0.3
    assert box.distance_to_subdifferential(np.array([2.0]), np.array([0.0])) == math.inf


def test_subdiff_distance_prox_consistency():
    # (v - u)/t is always a subgradient at u = prox(v, t)
    rng = np.random.default_rng(77)
    for f in ALL_PROXABLE:
        v = rng.standard_normal(f.dim) * 2.0
        t = 0.8
        u = f.prox(v, t)
        assert f.distance_to_subdifferential(u, (v - u) / t) <= 1e-9


# ---------------------------------------------------------------------------
# construction and config
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: L1Norm(2, weight=bad),
        lambda bad: SquaredL2(2, weight=bad),
        lambda bad: Huber(2, delta=bad),
        lambda bad: Huber(2, delta=1.0, weight=bad),
        lambda bad: Quadratic([[1.0, 0.0], [0.0, bad]]),
    ],
    ids=["l1-weight", "squared_l2-weight", "huber-delta", "huber-weight",
         "quadratic-Q"],
)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_parameters_must_be_finite(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError):
        Quadratic([[0.0, 1.0], [1.0, 0.0]], None)  # eigenvalues +-1


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        Quadratic([[1.0, 0.5], [0.0, 1.0]], None)


@pytest.mark.parametrize("Q, message", [
    ([[1e308, 0.0], [0.0, 1.0]], r"\(Q \+ Q\^T\) / 2 must be finite"),
    ([[1e308]], r"\(Q \+ Q\^T\) / 2 must be finite"),
    ([[0.0, 1e308], [-1e308, 0.0]], "Q must be symmetric"),
], ids=["diagonal-2x2", "1x1", "antisymmetric"])
def test_quadratic_rejects_a_matrix_whose_symmetrization_overflows(Q, message):
    # every entry is finite, but Q + Q^T or Q - Q^T is not: refused, unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            Quadratic(Q)


def test_lipschitz_constants():
    assert Zero(2).lipschitz == 0.0
    assert SquaredL2(2, 0.0, 3.0).lipschitz == 3.0
    assert Huber(2, delta=0.5, weight=2.0).lipschitz == pytest.approx(4.0)
    f = Quadratic(np.diag([1.0, 5.0]), None)
    assert f.lipschitz == pytest.approx(5.0)



@pytest.mark.parametrize("build, error, match", [
    (lambda: Zero(0), ValueError, "dim must be positive"),
    (lambda: BoxIndicator(2, [0.0], [1.0, 1.0]), DimensionMismatch,
     "BoxIndicator bounds: expected dimension 2"),
    (lambda: BoxIndicator(2, [0.0, math.nan], 1.0), ValueError,
     "box bounds must not be NaN"),
    (lambda: BoxIndicator(2, [0.0, 2.0], 1.0), ValueError, "lower <= upper"),
    (lambda: Quadratic(np.ones((2, 3))), ValueError, "Q must be a square"),
], ids=["dim", "box-shape", "box-nan", "box-order", "quadratic-shape"])
def test_construction_refusals_name_the_quantity(build, error, match):
    with pytest.raises(error, match=re.escape(match)):
        build()
