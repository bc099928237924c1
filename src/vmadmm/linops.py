"""Finite-dimensional vectors, linear maps, and PSD metric operators.

All vectors are 1-D float64 numpy arrays. Linear maps carry an explicit
adjoint so that matrix-free operators (e.g. finite differences) can be used
without densification. Metric operators are symmetric positive-semidefinite
and induce the seminorm ``||x||_U^2 = <x, Ux>`` used by the solver and its
certificates. Everything is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AdjointConsistencyError,
    DimensionMismatch,
    EigensolveError,
    NotPositiveSemidefinite,
)


def as_vector(entries, dim=None, what="vector"):
    """Validate and convert ``entries`` to a finite 1-D float64 array.

    Scalars are promoted to length-1 vectors. Raises on NaN/Inf entries and,
    when ``dim`` is given, on a length mismatch.
    """
    x = np.asarray(entries, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise ValueError(f"{what}: expected a 1-D array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: entries must be finite (no NaN/Inf)")
    if dim is not None and x.shape[0] != dim:
        raise DimensionMismatch(what, dim, x.shape[0])
    return x


def _check_dim(what, x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != dim:
        got = x.shape[0] if x.ndim == 1 else x.shape
        raise DimensionMismatch(what, dim, got)
    return x


class LinearMap:
    """A rows-by-cols real linear operator with an explicit adjoint.

    Construct through one of the factories: :meth:`from_dense`,
    :meth:`identity`, :meth:`zero`, :meth:`matrix_free`, or
    :func:`forward_difference`.
    """

    def __init__(self, rows, cols, apply_fn, adjoint_fn, kind, matrix=None):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.kind = kind
        self._dense = matrix
        self._gram = None
        # ||A|| once known; the structured factories record it and
        # lambda_min(A*A) exactly when built
        self._opnorm = None
        self._gram_min = None

    def _exact_spectrum(self, norm, gram_min):
        """Record ``||A|| = norm`` and ``lambda_min(A*A) = gram_min``, both exact."""
        self._opnorm = float(norm)
        self._gram_min = float(gram_min)
        return self

    @classmethod
    def from_dense(cls, matrix):
        """Wrap a dense 2-D array."""
        m = np.array(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("dense map needs a 2-D array")
        if not np.all(np.isfinite(m)):
            raise ValueError("dense map entries must be finite")
        m.setflags(write=False)
        return cls(
            m.shape[0],
            m.shape[1],
            lambda x: m @ x,
            lambda v: m.T @ v,
            kind="dense",
            matrix=m,
        )

    @classmethod
    def identity(cls, n):
        op = cls(n, n, lambda x: x.copy(), lambda v: v.copy(), kind="identity")
        return op._exact_spectrum(1.0, 1.0)

    @classmethod
    def zero(cls, rows, cols):
        op = cls(
            rows,
            cols,
            lambda x: np.zeros(rows),
            lambda v: np.zeros(cols),
            kind="zero",
        )
        return op._exact_spectrum(0.0, 0.0)

    @classmethod
    def matrix_free(cls, rows, cols, apply_fn, adjoint_fn):
        """Wrap an apply/adjoint pair, probe-testing adjoint consistency.

        The check draws four seeded random pairs (x, v) and requires
        ``|<Ax,v> - <x,A*v>|`` below 1e-12 relative to the probe magnitudes.
        """
        op = cls(rows, cols, apply_fn, adjoint_fn, kind="matrix_free")
        mismatch = adjoint_mismatch(op)
        if mismatch > 1e-12:
            raise AdjointConsistencyError(
                f"adjoint probe mismatch {mismatch:.3e} exceeds 1e-12"
            )
        return op

    @property
    def is_identity(self):
        return self.kind == "identity"

    def apply(self, x):
        """Return ``A x``."""
        x = _check_dim("LinearMap.apply input", x, self.cols)
        return np.asarray(self._apply(x), dtype=float)

    def adjoint(self, v):
        """Return ``A* v``."""
        v = _check_dim("LinearMap.adjoint input", v, self.rows)
        return np.asarray(self._adjoint(v), dtype=float)

    def to_dense(self):
        """Densify by applying to the canonical basis (desk scale only)."""
        if self._dense is None:
            cols = [self.apply(e) for e in np.eye(self.cols)]
            dense = np.column_stack(cols)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def gram_dense(self):
        """Dense ``A* A`` (cached)."""
        if self._gram is None:
            d = self.to_dense()
            gram = d.T @ d
            gram.setflags(write=False)
            self._gram = gram
        return self._gram

    def __repr__(self):
        return f"LinearMap({self.rows}x{self.cols}, kind={self.kind!r})"


def forward_difference(n):
    """The (n-1) x n first-difference operator ``(Dx)_i = x[i+1] - x[i]``.

    ``D*D`` is the path-graph Laplacian, with eigenvalues
    ``4 sin^2(pi k / (2n))`` for k = 0..n-1, so ``||D|| = 2 cos(pi / (2n))``
    and ``lambda_min(D*D) = 0`` (constants are its null space).
    """
    if n < 2:
        raise ValueError("forward difference needs n >= 2")

    def apply_fn(x):
        return np.diff(x)

    def adjoint_fn(v):
        w = np.empty(n)
        w[0] = -v[0]
        if n > 2:
            w[1:-1] = v[:-1] - v[1:]
        w[-1] = v[-1]
        return w

    op = LinearMap(n - 1, n, apply_fn, adjoint_fn, kind="forward_difference")
    return op._exact_spectrum(2.0 * math.cos(math.pi / (2 * n)), 0.0)


def adjoint_mismatch(A):
    """Largest relative adjoint defect ``|<Ax,v> - <x,A*v>|`` over four seeded probes."""
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(4):
        x = rng.standard_normal(A.cols)
        v = rng.standard_normal(A.rows)
        ax = A.apply(x)
        asv = A.adjoint(v)
        lhs = float(ax @ v)
        rhs = float(x @ asv)
        scale = max(
            float(np.linalg.norm(ax)) * float(np.linalg.norm(v)),
            float(np.linalg.norm(x)) * float(np.linalg.norm(asv)),
            1e-30,
        )
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def operator_norm(A):
    """Largest singular value ``||A||`` of a linear map, exact to rounding.

    The structured factories know it in closed form and return it without a
    matvec: 1 for :meth:`LinearMap.identity`, 0 for :meth:`LinearMap.zero`,
    and ``2 cos(pi / (2n))`` for :func:`forward_difference`. Any other map
    takes one dense SVD of :meth:`LinearMap.to_dense` (the copy that
    validation densifies anyway), cached on the map.
    """
    if A._opnorm is None:
        A._opnorm = float(np.linalg.norm(A.to_dense(), 2))
    return A._opnorm


class MetricOperator:
    """Symmetric PSD operator inducing the seminorm ``||x||_U^2 = <x, Ux>``.

    Representations: zero, scaled identity, nonnegative diagonal, dense
    symmetric, and the shifted Gram form ``(1/tau) id - coupling * A*A``
    (applied matrix-free). Positive semidefiniteness is a hard construction
    error, never a warning.
    """

    def __init__(self, dim, kind, mu=None, entries=None, matrix=None, tau=None,
                 coupling=None, map_=None):
        self.dim = int(dim)
        self.kind = kind
        self.mu = mu
        self.entries = entries
        self.matrix = matrix
        self.tau = tau
        self.coupling = coupling
        self.map = map_
        self._dense_cache = matrix
        self._x_factor = None  # (problem, Cholesky factor) of solver.x_update

    # -- factories ---------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, "zero")

    @classmethod
    def scaled_identity(cls, dim, mu):
        mu = float(mu)
        if mu < 0:
            raise NotPositiveSemidefinite(f"scaled identity needs mu >= 0, got {mu}")
        return cls(dim, "scaled_identity", mu=mu)

    @classmethod
    def diagonal(cls, entries):
        d = as_vector(entries, what="diagonal metric")
        if np.any(d < 0):
            raise NotPositiveSemidefinite("diagonal metric entries must be >= 0")
        d.setflags(write=False)
        return cls(d.shape[0], "diagonal", entries=d)

    @classmethod
    def dense(cls, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense metric needs a square 2-D array")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > 1e-12 * scale:
            raise ValueError("dense metric must be symmetric")
        m = (m + m.T) / 2.0
        lam = float(np.linalg.eigvalsh(m)[0])
        if lam < -1e-12 * scale:
            raise NotPositiveSemidefinite(
                f"dense metric has eigenvalue {lam:.3e} below -1e-12"
            )
        m.setflags(write=False)
        return cls(m.shape[0], "dense", matrix=m)

    @classmethod
    def shifted_gram(cls, tau, coupling, A):
        """The operator ``(1/tau) id - coupling * A*A`` on the domain of A.

        Requires ``1/tau >= coupling * ||A||^2`` so the result is PSD, with
        ``||A||`` from :func:`operator_norm` (exact, cached on A). Only the
        rounding of the bound itself is forgiven (4 units in the last
        place), so ``tau = 1 / (coupling ||A||^2)`` computed in floats is
        accepted and any step beyond it is rejected.
        """
        tau = float(tau)
        coupling = float(coupling)
        if tau <= 0 or coupling <= 0:
            raise ValueError("shifted Gram metric needs tau > 0 and coupling > 0")
        nrm = operator_norm(A)
        bound = coupling * nrm * nrm
        if 1.0 / tau < bound * (1.0 - 4.0 * np.finfo(float).eps):
            raise NotPositiveSemidefinite(
                f"shifted Gram metric needs 1/tau >= coupling*||A||^2; "
                f"1/tau falls short by {bound - 1.0 / tau:.3e}"
            )
        return cls(A.cols, "shifted_gram", tau=tau, coupling=coupling, map_=A)

    # -- behaviour ----------------------------------------------------------

    @property
    def is_scalar(self):
        return self.kind in ("zero", "scaled_identity")

    @property
    def scalar_value(self):
        if self.kind == "zero":
            return 0.0
        if self.kind == "scaled_identity":
            return self.mu
        raise ValueError(f"{self.kind} metric has no scalar value")

    def diagonal_entries(self):
        """Per-coordinate diagonal, or None for non-diagonal forms."""
        if self.kind == "zero":
            return np.zeros(self.dim)
        if self.kind == "scaled_identity":
            return np.full(self.dim, self.mu)
        if self.kind == "diagonal":
            return self.entries
        return None

    def apply(self, x):
        x = _check_dim("MetricOperator.apply input", x, self.dim)
        if self.kind == "zero":
            return np.zeros(self.dim)
        if self.kind == "scaled_identity":
            return self.mu * x
        if self.kind == "diagonal":
            return self.entries * x
        if self.kind == "dense":
            return self.matrix @ x
        # shifted_gram, applied matrix-free for exactness
        return x / self.tau - self.coupling * self.map.adjoint(self.map.apply(x))

    def seminorm_sq(self, x):
        """``<x, Ux>``, clamped to 0 when within roundoff of zero.

        Negative values beyond the PSD construction tolerance
        (1e-12 relative to ||x||^2) indicate a genuinely indefinite
        operator and raise.
        """
        x = _check_dim("seminorm_sq input", x, self.dim)
        val = float(x @ self.apply(x))
        if val < 0.0:
            tiny = 1e-12 * (1.0 + float(x @ x))
            if val >= -tiny:
                return 0.0
            raise NotPositiveSemidefinite(
                f"seminorm_sq produced {val:.3e}; operator is not PSD"
            )
        return val

    def to_dense(self):
        if self._dense_cache is None:
            if self.kind == "shifted_gram":
                dense = np.eye(self.dim) / self.tau - self.coupling * self.map.gram_dense()
            else:
                dense = np.column_stack([self.apply(e) for e in np.eye(self.dim)])
            dense = (dense + dense.T) / 2.0
            dense.setflags(write=False)
            self._dense_cache = dense
        return self._dense_cache

    def scaled(self, s):
        """The operator ``s * U`` for ``s >= 0`` (PSD is preserved)."""
        s = float(s)
        if s < 0:
            raise NotPositiveSemidefinite("scaling factor must be >= 0")
        if s == 0.0 or self.kind == "zero":
            return MetricOperator.zero(self.dim)
        if self.kind == "scaled_identity":
            return MetricOperator(self.dim, "scaled_identity", mu=self.mu * s)
        if self.kind == "diagonal":
            return MetricOperator.diagonal(self.entries * s)
        if self.kind == "dense":
            m = self.matrix * s
            m.setflags(write=False)
            return MetricOperator(self.dim, "dense", matrix=m)
        return MetricOperator(
            self.dim,
            "shifted_gram",
            tau=self.tau / s,
            coupling=self.coupling * s,
            map_=self.map,
        )

    def __repr__(self):
        return f"MetricOperator(dim={self.dim}, kind={self.kind!r})"


def min_eigenvalue(U):
    """Smallest eigenvalue of a metric operator.

    Exact least entry for zero, scaled-identity and diagonal metrics;
    ``1/tau - coupling * ||A||^2`` for a shifted Gram metric over any map,
    with ``||A||`` exact from :func:`operator_norm`; a dense symmetric
    eigensolve for the dense form only.
    """
    d = U.diagonal_entries()
    if d is not None:
        return float(d.min())
    if U.kind == "shifted_gram":
        return 1.0 / U.tau - U.coupling * operator_norm(U.map) ** 2
    try:
        return float(np.linalg.eigvalsh(U.to_dense())[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise EigensolveError(str(exc)) from exc


def gram_min_eigenvalue(A):
    """``lambda_min(A*A)``: recorded exactly by the structured factories,
    otherwise a dense symmetric eigensolve of ``A.gram_dense()``."""
    if A._gram_min is not None:
        return A._gram_min
    return float(np.linalg.eigvalsh(A.gram_dense())[0])


class LoewnerResult:
    """Outcome of a Loewner-order comparison ``U1 >= U2``."""

    def __init__(self, holds, min_eigenvalue, witness):
        self.holds = holds
        self.min_eigenvalue = min_eigenvalue
        self.witness = witness

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return f"LoewnerResult(holds={self.holds}, min_eigenvalue={self.min_eigenvalue:.3e})"


def loewner_geq(U1, U2, slack=0.0):
    """Decide ``U1 >= U2`` in the Loewner order, up to ``slack``.

    Returns a :class:`LoewnerResult`; when the order fails, ``witness`` is the
    unit eigenvector realizing the most negative eigenvalue of ``U1 - U2``.
    """
    if U1.dim != U2.dim:
        raise DimensionMismatch("loewner_geq", U1.dim, U2.dim)
    diff = U1.to_dense() - U2.to_dense()
    try:
        vals, vecs = np.linalg.eigh(diff)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolveError(str(exc)) from exc
    lam = float(vals[0])
    if lam >= -slack:
        return LoewnerResult(True, lam, None)
    return LoewnerResult(False, lam, vecs[:, 0].copy())
