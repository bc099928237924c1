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
    A = LinearMap.zero(2, 2)
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
    assert operator_norm(LinearMap.zero(3, 3)) == 0.0


@pytest.mark.parametrize(
    "make",
    [lambda: forward_difference(200), lambda: LinearMap.identity(7),
     lambda: LinearMap.zero(3, 4)],
    ids=["forward_difference", "identity", "zero"],
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


def test_dense_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        MetricOperator.dense([[1.0, 0.0], [0.0, -1.0]])


def test_metric_scaled_preserves_form():
    A = forward_difference(6)
    U = MetricOperator.shifted_gram(0.2, 1.0, A)
    V = U.scaled(2.0)
    assert V.kind == "shifted_gram"
    x = np.arange(6.0)
    assert np.allclose(V.apply(x), 2.0 * U.apply(x))
    assert U.scaled(0.0).kind == "zero"
    D = MetricOperator.diagonal([1.0, 2.0]).scaled(3.0)
    assert np.allclose(D.diagonal_entries(), [3.0, 6.0])


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
