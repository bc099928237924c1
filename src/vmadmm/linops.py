"""Finite-dimensional vectors, linear maps, and PSD metric operators.

All vectors are 1-D float64 numpy arrays. :meth:`LinearMap.apply`,
:meth:`LinearMap.adjoint`, :meth:`MetricOperator.apply` and
:meth:`MetricOperator.seminorm_sq` also take a block, a 2-D array with one
vector per row, and treat each row exactly as the 1-D call would, bit for
bit: a product with a dense matrix is one GEMV per row (:func:`matvec`),
never a GEMM of the block, and a reduction runs along the last axis.
Linear maps carry an explicit
adjoint so that matrix-free operators (e.g. finite differences) can be used
without densification. Metric operators are symmetric positive-semidefinite
and induce the seminorm ``||x||_U^2 = <x, Ux>`` used by the solver and its
certificates. A metric is not changed after its factory returns: it holds
the smallest eigenvalue its factory decided PSD by (``_min_eig``) and no
state of a solver. On first use a map caches its dense matrix, Gram matrix
and norm (``_dense``, ``_gram``, ``_opnorm``).
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

    Scalars are promoted to length-1 vectors. Raises on NaN/Inf entries, on
    entries whose squared norm overflows (no norm of the data would be
    finite) and, when ``dim`` is given, on a length mismatch.
    """
    x = np.asarray(entries, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise ValueError(f"{what}: expected a 1-D array, got shape {x.shape}")
    _check_finite(what, x)
    if dim is not None and x.shape[0] != dim:
        raise DimensionMismatch(what, dim, x.shape[0])
    return x


def _check_finite(what, x):
    """Raise unless every entry of the vector ``x`` and its squared norm are
    finite: no norm of data past that would be."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: entries must be finite (no NaN/Inf)")
    with np.errstate(over="ignore"):
        if not np.isfinite(np.vecdot(x, x)):
            raise ValueError(f"{what}: squared norm overflows")


def _check_block(what, x, dim, ndims=(1, 2), owner=None):
    """``x`` as a float array: one ``dim``-vector, or a 2-D block of them
    when ``ndims`` allows one. On a mismatch the label is ``what``, after the
    kind of ``owner`` when one is given (formatted only then)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in ndims or x.shape[-1] != dim:
        got = x.shape[-1] if x.ndim in ndims else x.shape
        prefix = "" if owner is None else type(owner).__name__ + " "
        raise DimensionMismatch(prefix + what, dim, got)
    return x


def _per_point(values):
    """A float for the 0-d result of a 1-D call; a block's array as it is."""
    return float(values) if np.ndim(values) == 0 else values


def matvec(M, x):
    """``M x`` for a vector ``x``, or for each row of a block: one GEMV per
    row, with the bits of ``M @ row`` (a GEMM of the block has others)."""
    return np.matmul(M, x[..., None])[..., 0]


def _user_kernel(fn, dim):
    """A matrix_free function, user code that takes vectors only, as a kernel:
    its result as a new float array, one call per row of a block. The copy
    of a vector's result lets a caller write into it, whatever ``fn`` returns
    (its argument, say)."""
    def kernel(x):
        if x.ndim == 1:
            return np.array(fn(x), dtype=float)
        out = np.empty((x.shape[0], dim))
        for i, row in enumerate(x):
            out[i] = fn(row)
        return out
    return kernel


class LinearMap:
    """A rows-by-cols real linear operator with an explicit adjoint.

    Construct through one of the factories: :meth:`from_dense`,
    :meth:`identity`, :meth:`matrix_free`, or :func:`forward_difference`.
    """

    def __init__(self, rows, cols, apply_fn, adjoint_fn, kind, matrix=None):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        # the kernels: A x and A* v of a float vector or block, as new float arrays
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.kind = kind
        self._dense = matrix
        self._gram = None
        # ||A|| once known; the structured factories record it and
        # lambda_min(A*A) exactly when built
        self._opnorm = None
        self._gram_min = None
        # A*A in LAPACK upper banded form, when the factory knows it is banded
        self._gram_bands = None

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
            lambda x: matvec(m, x),
            lambda v: matvec(m.T, v),
            kind="dense",
            matrix=m,
        )

    @classmethod
    def identity(cls, n):
        op = cls(n, n, lambda x: x.copy(), lambda v: v.copy(), kind="identity")
        return op._exact_spectrum(1.0, 1.0)

    @classmethod
    def matrix_free(cls, rows, cols, apply_fn, adjoint_fn):
        """Wrap an apply/adjoint pair, probe-testing adjoint consistency.

        The check draws four seeded random pairs (x, v) and requires
        ``|<Ax,v> - <x,A*v>|`` below 1e-12 relative to the probe magnitudes.
        """
        op = cls(rows, cols, _user_kernel(apply_fn, rows),
                 _user_kernel(adjoint_fn, cols), kind="matrix_free")
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
        """Return ``A x``; of each row for a block."""
        return self._apply(_check_block("LinearMap.apply input", x, self.cols))

    def adjoint(self, v):
        """Return ``A* v``; of each row for a block."""
        return self._adjoint(_check_block("LinearMap.adjoint input", v, self.rows))

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
    and ``lambda_min(D*D) = 0`` (constants are its null space). It is
    tridiagonal with exact integer bands, recorded in LAPACK upper banded
    form as ``_gram_bands``: row 0 the super-diagonal (all -1, its first
    entry unused) and row 1 the diagonal ``[1, 2, ..., 2, 1]``.
    """
    if n < 2:
        raise ValueError("forward difference needs n >= 2")

    def apply_fn(x):
        return x[..., 1:] - x[..., :-1]  # the subtract np.diff runs

    def adjoint_fn(v):
        w = np.empty(v.shape[:-1] + (n,))
        # coordinates first through the transposes, for a vector and a block
        wt, vt = w.T, v.T
        wt[0] = -vt[0]
        if n > 2:
            np.subtract(vt[:-1], vt[1:], out=wt[1:-1])
        wt[-1] = vt[-1]
        return w

    op = LinearMap(n - 1, n, apply_fn, adjoint_fn, kind="forward_difference")
    bands = op._gram_bands = np.full((2, n), 2.0)
    bands[0] = -1.0
    bands[0, 0] = 0.0  # unused by the upper banded form
    bands[1, 0] = bands[1, -1] = 1.0
    bands.setflags(write=False)
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
    matvec: 1 for :meth:`LinearMap.identity` and ``2 cos(pi / (2n))`` for
    :func:`forward_difference`. Any other map takes one dense SVD of
    :meth:`LinearMap.to_dense` (the copy that validation densifies anyway),
    cached on the map.
    """
    if A._opnorm is None:
        A._opnorm = float(np.linalg.norm(A.to_dense(), 2))
    return A._opnorm


class MetricOperator:
    """Symmetric PSD operator inducing the seminorm ``||x||_U^2 = <x, Ux>``.

    Representations: scaled identity, nonnegative diagonal, dense
    symmetric, and the shifted Gram form ``(1/tau) id - coupling * A*A``
    (applied matrix-free). The zero metric is the scaled identity with
    ``mu = 0`` (:meth:`zero`); properties are decided by value, never by the
    spelling of a kind. Every metric comes from a factory, which records the
    smallest eigenvalue it decided PSD by; failing is an error, never a warning.
    """

    def __init__(self, dim, kind, mu=None, entries=None, matrix=None, tau=None,
                 coupling=None, map_=None):
        if dim <= 0:
            raise ValueError(f"metric dim must be positive, got {dim}")
        self.dim = int(dim)
        self.kind = kind
        self.mu = mu
        self.entries = entries
        self.matrix = matrix
        self.tau = tau
        self.coupling = coupling
        self.map = map_
        self._min_eig = None

    def _exact_min(self, lam):
        """Record ``lambda_min(U) = lam``, the value the factory decided PSD by."""
        self._min_eig = float(lam)
        return self

    # -- factories ---------------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls.scaled_identity(dim, 0.0)

    @classmethod
    def scaled_identity(cls, dim, mu):
        """``mu id`` for a finite ``mu >= 0``, smallest eigenvalue ``mu``."""
        mu = float(mu)
        if not math.isfinite(mu):
            raise ValueError(f"scaled identity needs a finite mu, got {mu}")
        if mu < 0:
            raise NotPositiveSemidefinite(f"scaled identity needs mu >= 0, got {mu}")
        return cls(dim, "scaled_identity", mu=mu)._exact_min(mu)

    @classmethod
    def diagonal(cls, entries):
        """``diag(d)`` for finite ``d >= 0``, smallest eigenvalue ``d.min()``."""
        d = as_vector(entries, what="diagonal metric")
        if np.any(d < 0):
            raise NotPositiveSemidefinite("diagonal metric entries must be >= 0")
        d.setflags(write=False)
        return cls(d.shape[0], "diagonal", entries=d)._exact_min(d.min())

    @classmethod
    def dense(cls, matrix):
        """The finite ``(M + M^T) / 2`` of an ``M`` symmetric and PSD to 1e-12."""
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense metric needs a square 2-D array")
        with np.errstate(over="ignore", invalid="ignore"):
            sym = (m + m.T) / 2.0
            asym = np.abs(m - m.T)
        sym.setflags(write=False)
        U = cls(m.shape[0], "dense", matrix=sym)  # refuses dim 0 before any reduction
        if not np.all(np.isfinite(sym)):
            raise ValueError("dense metric (M + M^T) / 2 must be finite (no NaN/Inf)")
        scale = max(1.0, float(np.abs(m).max()))
        if float(asym.max()) > 1e-12 * scale:
            raise ValueError("dense metric must be symmetric")
        lam = float(np.linalg.eigvalsh(sym)[0])
        if not lam >= -1e-12 * scale:  # NaN fails too
            raise NotPositiveSemidefinite(
                f"dense metric has eigenvalue {lam:.3e} below -1e-12"
            )
        return U._exact_min(lam)

    @classmethod
    def shifted_gram(cls, tau, coupling, A):
        """The operator ``(1/tau) id - coupling * A*A`` on the domain of A.

        Requires finite ``tau, 1/tau, coupling > 0``, a finite ``||A||^2``
        and ``1/tau >= coupling ||A||^2`` (PSD), with ``||A||`` from
        :func:`operator_norm` (exact, cached on A); only the bound's rounding
        is forgiven (4 units in the last place), so ``tau = 1 / (coupling
        ||A||^2)`` computed in floats is accepted. Smallest eigenvalue:
        ``1/tau - coupling * ||A||^2``.
        """
        tau = float(tau)
        coupling = float(coupling)
        for name, value in (("tau", tau), ("coupling", coupling)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"shifted Gram {name} must be finite > 0, got {value}")
        if 1.0 / tau == math.inf:
            raise ValueError(f"shifted Gram 1/tau must be finite, got tau = {tau}")
        nrm = operator_norm(A)
        try:
            nrm_sq = nrm ** 2  # the smallest eigenvalue's term, as recorded below
        except OverflowError:
            raise ValueError(
                f"shifted Gram needs a finite ||A||^2, got ||A|| = {nrm:.3e}"
            ) from None
        bound = coupling * nrm * nrm
        if 1.0 / tau < bound * (1.0 - 4.0 * np.finfo(float).eps):
            raise NotPositiveSemidefinite(
                f"shifted Gram metric needs 1/tau >= coupling*||A||^2; "
                f"1/tau falls short by {bound - 1.0 / tau:.3e}"
            )
        U = cls(A.cols, "shifted_gram", tau=tau, coupling=coupling, map_=A)
        return U._exact_min(1.0 / tau - coupling * nrm_sq)

    # -- behaviour ----------------------------------------------------------

    @property
    def is_scalar(self):
        """Whether this is ``mu id``; ``mu`` is then its value."""
        return self.kind == "scaled_identity"

    def diagonal_entries(self):
        """Per-coordinate diagonal, or None for non-diagonal forms."""
        if self.kind == "scaled_identity":
            return np.full(self.dim, self.mu)
        if self.kind == "diagonal":
            return self.entries
        return None

    def apply(self, x):
        """Return ``U x``; of each row for a block."""
        return self._apply(_check_block("MetricOperator.apply input", x, self.dim))

    def _apply(self, x):  # the kernel: x a float vector or block, unchecked
        if self.kind == "scaled_identity":
            return self.mu * x
        if self.kind == "diagonal":
            return self.entries * x
        if self.kind == "dense":
            return matvec(self.matrix, x)
        # shifted_gram, applied matrix-free for exactness
        return x / self.tau - self.coupling * self.map._adjoint(self.map._apply(x))

    def seminorm_sq(self, x):
        """``<x, Ux>``, clamped to 0 when within roundoff of zero; a float,
        or one value per row of a block.

        Negative values beyond the PSD construction tolerance
        (1e-12 relative to ||x||^2) indicate a genuinely indefinite
        operator and raise.
        """
        x = _check_block("seminorm_sq input", x, self.dim)
        val = np.vecdot(x, self._apply(x))
        negative = val < 0.0
        if np.any(negative):
            tiny = 1e-12 * (1.0 + np.vecdot(x, x))
            if np.any(val < -tiny):
                worst = float(np.min(val))
                raise NotPositiveSemidefinite(
                    f"seminorm_sq produced {worst:.3e}; operator is not PSD"
                )
            val = np.where(negative, 0.0, val)
        return _per_point(val)

    def to_dense(self):
        """The dense matrix, exactly symmetric, as ``A.gram_dense()`` is: a
        dense metric's own (read-only), another kind's built by this call."""
        if self.kind == "dense":
            return self.matrix
        if self.kind == "shifted_gram":
            return np.eye(self.dim) / self.tau - self.coupling * self.map.gram_dense()
        return np.diag(self.diagonal_entries())

    def scaled(self, s):
        """``s * U`` for a finite ``s >= 0``, from its kind's factory (``zero`` at 0)."""
        s = float(s)
        if not s >= 0:
            raise NotPositiveSemidefinite("scaling factor must be >= 0")
        if s == math.inf:
            raise ValueError(f"scaling factor must be finite, got {s}")
        if s == 0.0:
            return MetricOperator.zero(self.dim)
        if self.kind == "scaled_identity":
            return MetricOperator.scaled_identity(self.dim, self.mu * s)
        with np.errstate(over="ignore"):  # the factory refuses an infinite entry
            if self.kind == "diagonal":
                return MetricOperator.diagonal(self.entries * s)
            if self.kind == "dense":
                return MetricOperator.dense(self.matrix * s)
        return MetricOperator.shifted_gram(self.tau / s, self.coupling * s, self.map)

    def __repr__(self):
        return f"MetricOperator(dim={self.dim}, kind={self.kind!r})"


def min_eigenvalue(U):
    """Smallest eigenvalue of a metric, as its factory recorded it (no eigensolve)."""
    return U._min_eig


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
