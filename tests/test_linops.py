import math
import re
import warnings

import numpy as np
import pytest

from vmadmm.errors import (
    AdjointConsistencyError,
    DimensionMismatch,
    NotPositiveSemidefinite,
)
from vmadmm.linops import (
    LinearMap,
    MetricOperator,
    adjoint_mismatch,
    as_vector,
    forward_difference,
    gram_min_eigenvalue,
    loewner_geq,
    min_eigenvalue,
    operator_norm,
)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_as_vector_basic():
    v = as_vector([1.0, 2.0, 3.0])
    assert v.shape == (3,)
    assert as_vector(5.0).shape == (1,)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_as_vector_rejects_an_overflowing_squared_norm():
    # finite entries whose squared norm is infinite: every norm of the data
    # would overflow, so the entry is refused where it is named
    with pytest.raises(ValueError, match="SquaredL2 shift: squared norm overflows"):
        as_vector([1e300], what="SquaredL2 shift")
    assert as_vector([1e150]).tolist() == [1e150]


def test_as_vector_dim_mismatch_names_dims():
    with pytest.raises(DimensionMismatch) as exc:
        as_vector([1.0, 2.0], dim=3)
    assert "3" in str(exc.value) and "2" in str(exc.value)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_identity():
    A = LinearMap.identity(3)
    assert np.array_equal(A.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_apply_zero_map():
    A = LinearMap.from_dense(np.zeros((2, 2)))
    assert np.array_equal(A.apply(np.array([5.0, -1.0])), [0.0, 0.0])


def test_apply_hand_multiplication():
    A = LinearMap.from_dense([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(A.apply(np.array([1.0, 1.0])), [3.0, 7.0])


def test_apply_dimension_mismatch_names_both_dims():
    A = LinearMap.from_dense([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionMismatch) as exc:
        A.apply(np.ones(3))
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_adjoint_consistency_random_dense():
    rng = np.random.default_rng(0)
    A = LinearMap.from_dense(rng.standard_normal((7, 5)))
    assert adjoint_mismatch(A) <= 1e-12


def test_adjoint_consistency_forward_difference():
    A = forward_difference(12)
    assert adjoint_mismatch(A) <= 1e-12
    dense = A.to_dense()
    x = np.arange(12.0)
    assert np.allclose(A.apply(x), dense @ x)
    v = np.arange(11.0)
    assert np.allclose(A.adjoint(v), dense.T @ v)


@pytest.mark.parametrize("n", [2, 3, 12])
def test_forward_difference_adjoint_keeps_the_bits_of_its_expression(n):
    # (D*v)_i = v[i-1] - v[i] inside, -v[0] and v[-1] at the ends, for a
    # vector and a block, signed zeros included
    rng = np.random.default_rng(n)
    V = rng.standard_normal((3, n - 1))
    V[0, :] = -0.0
    V[1, ::2] = 0.0
    for v in (V, V[1], V[0]):
        expected = np.concatenate(
            (-v[..., :1], v[..., :-1] - v[..., 1:], v[..., -1:]), axis=-1)
        got = forward_difference(n).adjoint(v)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 12])
def test_forward_difference_gram_bands_are_its_gram(n):
    # upper banded form: row 0 the super-diagonal (first entry unused),
    # row 1 the diagonal; the other factories record no bands
    bands = forward_difference(n)._gram_bands
    assert bands[0, 0] == 0.0
    gram = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[0, 1:], -1)
    assert np.array_equal(gram, forward_difference(n).gram_dense())
    assert LinearMap.identity(n)._gram_bands is None
    assert LinearMap.from_dense(np.eye(n))._gram_bands is None


def test_matrix_free_rejects_bad_adjoint():
    with pytest.raises(AdjointConsistencyError):
        LinearMap.matrix_free(
            3, 3, lambda x: 2.0 * x, lambda v: 3.0 * v  # wrong adjoint
        )


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def test_operator_norm_diagonal():
    A = LinearMap.from_dense(np.diag([3.0, 1.0]))
    assert abs(operator_norm(A) - 3.0) <= 1e-8


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_operator_norm_far_from_unit_scale(scale):
    # squares of such entries underflow or overflow; the SVD must scale
    A = LinearMap.from_dense(np.diag([3.0, 1.0]) * scale)
    assert abs(operator_norm(A) - 3.0 * scale) <= 1e-8 * 3.0 * scale


def test_operator_norm_identity():
    assert operator_norm(LinearMap.identity(5)) == pytest.approx(1.0, abs=1e-12)


def _dense_copy(D):
    return LinearMap.from_dense(D.to_dense())


def _matrix_free_copy(D):
    m = D.to_dense()
    return LinearMap.matrix_free(m.shape[0], m.shape[1], lambda x: m @ x, lambda v: m.T @ v)


@pytest.mark.parametrize("n", [3, 5, 7, 50])
@pytest.mark.parametrize(
    "wrap", [lambda D: D, _dense_copy, _matrix_free_copy],
    ids=["structured", "dense", "matrix_free"],
)
def test_operator_norm_forward_difference_vs_svd(wrap, n):
    # ||D|| = 2 cos(pi / (2n)) however D is wrapped; at odd n the top
    # singular vector is orthogonal to ramp-like start vectors
    A = wrap(forward_difference(n))
    exact = 2.0 * np.cos(np.pi / (2 * n))
    assert abs(operator_norm(A) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("shape", [(4, 4), (20, 13), (100, 60)])
def test_operator_norm_squared_matches_dense_eigensolve(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    A = LinearMap.from_dense(rng.standard_normal(shape))
    lam_max = float(np.linalg.eigvalsh(A.gram_dense())[-1])
    assert operator_norm(A) ** 2 == pytest.approx(lam_max, rel=1e-8)


def test_operator_norm_zero_map():
    assert operator_norm(LinearMap.from_dense(np.zeros((3, 3)))) == 0.0


@pytest.mark.parametrize(
    "make",
    [lambda: forward_difference(200), lambda: LinearMap.identity(7)],
    ids=["forward_difference", "identity"],
)
def test_structured_spectrum_needs_no_matvec(make):
    A = make()
    calls = []
    apply_fn, adjoint_fn = A._apply, A._adjoint
    A._apply = lambda x: calls.append("apply") or apply_fn(x)
    A._adjoint = lambda v: calls.append("adjoint") or adjoint_fn(v)
    norm = operator_norm(A)
    min_eigenvalue(MetricOperator.shifted_gram(0.5 / max(norm**2, 1.0), 1.0, A))
    assert calls == []


def test_matrix_free_spectrum_densifies_once():
    m = forward_difference(9).to_dense()
    calls = []
    A = LinearMap.matrix_free(
        m.shape[0], m.shape[1],
        lambda x: calls.append("apply") or m @ x,
        lambda v: calls.append("adjoint") or m.T @ v,
    )
    calls.clear()  # drop the adjoint-consistency probes
    norm = operator_norm(A)
    MetricOperator.shifted_gram(0.5 / norm**2, 1.0, A)
    gram_min_eigenvalue(A)
    assert operator_norm(A) == norm
    assert calls.count("apply") == A.cols
    assert calls.count("adjoint") == 0


# ---------------------------------------------------------------------------
# metric operators
# ---------------------------------------------------------------------------


def test_seminorm_zero_operator():
    U = MetricOperator.zero(4)
    assert U.seminorm_sq(np.array([1.0, -2.0, 3.0, 0.5])) == 0.0


def test_seminorm_scaled_identity():
    U = MetricOperator.scaled_identity(2, 2.0)
    assert U.seminorm_sq(np.array([1.0, 1.0])) == pytest.approx(4.0)


def test_seminorm_shifted_gram():
    U = MetricOperator.shifted_gram(0.25, 1.0, LinearMap.identity(2))
    assert U.seminorm_sq(np.array([1.0, 0.0])) == pytest.approx(3.0)


def test_seminorm_clamps_a_roundoff_negative_value_to_zero():
    # within 1e-12 (1 + ||x||^2) of zero a negative <x, U x> reads 0, in a
    # block row by row
    U = MetricOperator.dense([[1.0, 0.0], [0.0, -1e-13]])
    assert U.seminorm_sq(np.array([0.0, 1.0])) == 0.0
    assert U.seminorm_sq(np.array([[0.0, 1.0], [2.0, 0.0]])).tolist() == [0.0, 4.0]


def test_seminorm_dimension_mismatch():
    U = MetricOperator.scaled_identity(2, 1.0)
    with pytest.raises(DimensionMismatch):
        U.seminorm_sq(np.ones(3))


@pytest.mark.parametrize(
    "metric",
    [
        MetricOperator.zero(5),
        MetricOperator.scaled_identity(5, 0.7),
        MetricOperator.diagonal([0.0, 1.0, 2.0, 0.5, 3.0]),
        MetricOperator.dense(np.diag([1.0, 2.0, 3.0, 0.0, 0.1])),
        MetricOperator.shifted_gram(0.2, 1.0, forward_difference(5)),
    ],
)
def test_seminorm_nonnegative_on_random_probes(metric):
    rng = np.random.default_rng(42)
    for _ in range(50):
        assert metric.seminorm_sq(rng.standard_normal(5) * 10.0) >= 0.0


def test_metric_symmetry_probes():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((6, 6))
    U = MetricOperator.dense(base @ base.T)
    for _ in range(10):
        x = rng.standard_normal(6)
        w = rng.standard_normal(6)
        lhs = float(U.apply(x) @ w)
        rhs = float(x @ U.apply(w))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_shifted_gram_construction_guard():
    # 1/tau must dominate coupling * ||A||^2
    with pytest.raises(NotPositiveSemidefinite):
        MetricOperator.shifted_gram(2.0, 1.0, LinearMap.identity(3))


def test_shifted_gram_rejects_a_step_just_past_the_bound():
    # tau 5e-11 beyond 1/||D||^2 is slightly indefinite (lambda_min about
    # -2e-10); accepted, D*D's top eigenvector would make seminorm_sq raise
    A = forward_difference(200)
    bound = operator_norm(A) ** 2
    with pytest.raises(NotPositiveSemidefinite) as exc:
        MetricOperator.shifted_gram((1.0 + 5e-11) / bound, 1.0, A)
    shortfall = bound - bound / (1.0 + 5e-11)
    assert f"falls short by {shortfall:.3e}" in str(exc.value)


def test_shifted_gram_accepts_the_bound_computed_in_floats():
    A, c = forward_difference(10_000), 0.3
    norm = operator_norm(A)
    tau = 1.0 / (c * norm**2)
    assert 1.0 / tau < c * norm * norm  # rounding lands just below the bound
    U = MetricOperator.shifted_gram(tau, c, A)
    assert abs(min_eigenvalue(U)) <= 1e-15 * c * norm**2


def test_diagonal_rejects_negative_entries():
    with pytest.raises(NotPositiveSemidefinite):
        MetricOperator.diagonal([1.0, -0.5])


def test_scaled_identity_rejects_negative():
    with pytest.raises(NotPositiveSemidefinite):
        MetricOperator.scaled_identity(2, -1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: MetricOperator.scaled_identity(2, bad),
        lambda bad: MetricOperator.dense([[1.0, 0.0], [0.0, bad]]),
        lambda bad: MetricOperator.diagonal([1.0, bad]),
    ],
    ids=["scaled_identity", "dense", "diagonal"],
)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_metric_rejects_non_finite_entries_without_warning(build, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            build(bad)


def test_dense_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        MetricOperator.dense([[1.0, 0.0], [0.0, -1.0]])


def test_dense_rejects_a_matrix_whose_symmetrization_overflows():
    # every entry is finite, but (M + M^T) / 2 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(M \+ M\^T\) / 2 must be finite"):
            MetricOperator.dense([[1e308]])


@pytest.mark.parametrize("tau, coupling, A, name", [
    (math.inf, 1.0, LinearMap.from_dense(np.zeros((2, 2))), "tau"),
    (0.5, math.inf, LinearMap.from_dense(np.zeros((2, 2))), "coupling"),
    # 1/tau = 0 falls short of ||A||^2 = 1, but the step is what is wrong
    (math.inf, 1.0, LinearMap.identity(2), "tau"),
    (1e-310, 1.0, LinearMap.from_dense(np.zeros((2, 2))), "1/tau"),
], ids=["tau", "coupling", "tau-nonzero-map", "inverse-tau"])
def test_shifted_gram_rejects_a_non_finite_step(tau, coupling, A, name):
    with pytest.raises(ValueError, match=f"Gram {re.escape(name)} must be finite"):
        MetricOperator.shifted_gram(tau, coupling, A)


def test_shifted_gram_rejects_a_map_whose_squared_norm_overflows():
    # the PSD bound coupling * ||A|| * ||A|| is finite and met, but ||A||^2
    # is not: refused by name, not with Python's untyped OverflowError
    with pytest.raises(ValueError, match=r"finite \|\|A\|\|\^2, got \|\|A\|\| = 1\.000e\+160"):
        MetricOperator.shifted_gram(1e-10, 1e-320, LinearMap.from_dense([[1e160]]))


@pytest.mark.parametrize("build", [
    lambda: MetricOperator.scaled_identity(-1, 1.0),
    lambda: MetricOperator.zero(-2),
    lambda: MetricOperator.diagonal([]),
    lambda: MetricOperator.dense(np.zeros((0, 0))),
], ids=["scaled_identity", "zero", "diagonal", "dense"])
def test_metric_rejects_a_dimension_below_one(build):
    with pytest.raises(ValueError, match="dim must be positive"):
        build()


def test_to_dense_of_a_huge_scaled_identity_is_finite():
    # mu id with mu above half the largest float: its entries are finite
    assert np.array_equal(MetricOperator.scaled_identity(2, 1e308).to_dense(),
                          np.diag([1e308, 1e308]))


def _shifted_gram_min(U):
    return 1.0 / U.tau - U.coupling * operator_norm(U.map) ** 2


def _dense_metric():
    B = np.random.default_rng(5).standard_normal((5, 5))
    return MetricOperator.dense(B @ B.T + 0.1 * np.eye(5))


def _edge_shifted_gram():
    A, c = forward_difference(10_000), 0.3
    return MetricOperator.shifted_gram(1.0 / (c * operator_norm(A) ** 2), c, A)


# each kind's smallest eigenvalue, and the expression that computed it before
# the factories recorded it; a scaled metric is recorded by its own factory
MIN_EIGENVALUE_EXPRESSIONS = {
    "zero": (lambda: MetricOperator.zero(3),
             lambda U: float(np.full(U.dim, U.mu).min())),
    "scaled_identity": (lambda: MetricOperator.scaled_identity(4, 0.7).scaled(0.3),
                        lambda U: float(np.full(U.dim, U.mu).min())),
    "diagonal": (lambda: MetricOperator.diagonal([0.3, 1.7, 0.2]).scaled(0.9),
                 lambda U: float(U.entries.min())),
    "dense": (_dense_metric,
              lambda U: float(np.linalg.eigvalsh(U.to_dense())[0])),
    "dense-scaled": (lambda: _dense_metric().scaled(0.7),
                     lambda U: float(np.linalg.eigvalsh(U.to_dense())[0])),
    "shifted_gram": (lambda: MetricOperator.shifted_gram(
        0.05, 0.5, LinearMap.from_dense(np.random.default_rng(3).standard_normal((6, 4)))),
        _shifted_gram_min),
    "shifted_gram-at-the-bound": (_edge_shifted_gram, _shifted_gram_min),
    "shifted_gram-scaled": (lambda: MetricOperator.shifted_gram(
        0.2, 1.0, forward_difference(20)).scaled(0.9), _shifted_gram_min),
}


@pytest.mark.parametrize("name", sorted(MIN_EIGENVALUE_EXPRESSIONS))
def test_min_eigenvalue_keeps_the_bits_of_each_kind(name):
    build, expression = MIN_EIGENVALUE_EXPRESSIONS[name]
    U = build()
    assert min_eigenvalue(U) == expression(U)


def test_metric_scaled_preserves_form():
    A = forward_difference(6)
    U = MetricOperator.shifted_gram(0.2, 1.0, A)
    V = U.scaled(2.0)
    assert V.kind == "shifted_gram"
    x = np.arange(6.0)
    assert np.allclose(V.apply(x), 2.0 * U.apply(x))
    Z = U.scaled(0.0)
    assert (Z.kind, Z.mu) == ("scaled_identity", 0.0)
    D = MetricOperator.diagonal([1.0, 2.0]).scaled(3.0)
    assert np.allclose(D.diagonal_entries(), [3.0, 6.0])


def test_metric_scaled_dense_scales_its_matrix_once():
    # a geometric decay of a dense M1 hands out rho^k M0
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    U = MetricOperator.dense(M).scaled(3.0)
    assert U.kind == "dense"
    assert np.array_equal(U.matrix, 3.0 * M)
    assert not U.matrix.flags.writeable
    assert np.allclose(U.apply(np.array([1.0, -1.0])), 3.0 * (M @ [1.0, -1.0]))


# ---------------------------------------------------------------------------
# Loewner order
# ---------------------------------------------------------------------------


def test_loewner_scaled_identities():
    two = MetricOperator.scaled_identity(2, 2.0)
    one = MetricOperator.scaled_identity(2, 1.0)
    assert loewner_geq(two, one).holds
    res = loewner_geq(one, two)
    assert not res.holds
    assert res.witness is not None
    assert np.linalg.norm(res.witness) == pytest.approx(1.0)


def test_loewner_diagonal_witness():
    U1 = MetricOperator.diagonal([3.0, 0.5])
    U2 = MetricOperator.scaled_identity(2, 1.0)
    res = loewner_geq(U1, U2)
    assert not res.holds
    assert abs(res.witness[1]) == pytest.approx(1.0, abs=1e-12)
    assert res.min_eigenvalue == pytest.approx(-0.5)


def test_loewner_reflexive_and_antisymmetric_up_to_slack():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 5))
    U = MetricOperator.dense(base @ base.T)
    assert loewner_geq(U, U, slack=1e-12).holds
    V = MetricOperator.dense(U.to_dense() + 1e-9 * np.eye(5))
    if loewner_geq(U, V, slack=1e-8).holds and loewner_geq(V, U, slack=1e-8).holds:
        diff = np.abs(np.linalg.eigvalsh(U.to_dense() - V.to_dense())).max()
        assert diff <= 2e-8


def test_loewner_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        loewner_geq(MetricOperator.zero(2), MetricOperator.zero(3))


def test_min_eigenvalue_shifted_gram():
    A = forward_difference(20)
    U = MetricOperator.shifted_gram(0.2, 1.0, A)
    lam = min_eigenvalue(U)
    gram_max = float(np.linalg.eigvalsh(A.gram_dense())[-1])
    assert lam == pytest.approx(5.0 - gram_max, abs=1e-10)


def test_min_eigenvalue_shifted_gram_over_dense_map_needs_no_eigensolve(monkeypatch):
    # 1/tau - coupling ||A||^2 holds for every map once ||A|| is exact
    M = np.random.default_rng(3).standard_normal((6, 4))
    A = LinearMap.from_dense(M)
    U = MetricOperator.shifted_gram(0.05, 0.5, A)
    reference = float(np.linalg.eigvalsh(U.to_dense())[0])

    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert min_eigenvalue(U) == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 17, 64, 200])
def test_block_kernels_keep_the_bits_of_the_vector_kernels(dim):
    # the block axis rests on three kernels: per row, each has the bits of
    # the 1-D numpy call it replaces (a GEMM of the block, einsum and
    # np.linalg.norm(axis=-1) do not)
    from vmadmm.functions import _norm
    from vmadmm.linops import matvec

    rng = np.random.default_rng(dim)
    M = rng.standard_normal((dim + 3, dim))
    X, Y = rng.standard_normal((2, 16, dim))
    V = rng.standard_normal((16, dim + 3))
    for got, want in [
        (matvec(M, X), [M @ x for x in X]),
        (matvec(M.T, V), [M.T @ v for v in V]),
        (np.vecdot(X, Y), [x @ y for x, y in zip(X, Y)]),
        (_norm(X), [np.linalg.norm(x) for x in X]),
        (matvec(M, X[0]), M @ X[0]),
        (_norm(X[0]), np.linalg.norm(X[0])),
    ]:
        assert np.asarray(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("build, match", [
    (lambda: as_vector(np.ones((2, 2)), what="x"), "x: expected a 1-D array"),
    (lambda: LinearMap.from_dense(np.zeros((0, 2))), "rows and cols must be positive"),
    (lambda: LinearMap.from_dense([1.0, 2.0]), "dense map needs a 2-D array"),
    (lambda: LinearMap.from_dense([[1.0, math.inf]]), "dense map entries must be finite"),
    (lambda: forward_difference(1), "forward difference needs n >= 2"),
    (lambda: MetricOperator.dense(np.ones((2, 3))), "dense metric needs a square"),
    (lambda: MetricOperator.dense([[1.0, 0.5], [0.0, 1.0]]),
     "dense metric must be symmetric"),
], ids=["vector-2d", "map-rows", "dense-map-1d", "dense-map-inf", "difference-n",
        "metric-shape", "metric-asymmetric"])
def test_construction_refusals_name_the_quantity(build, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        build()
