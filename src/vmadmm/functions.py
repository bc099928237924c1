"""Catalog of convex functions with exact proximal maps and gradients.

Each function reports its capabilities through the flags ``proxable`` and
``smooth`` (with a Lipschitz constant for the gradient); the kinds with a
closed-form Fenchel conjugate implement ``conjugate``, a reference for the
dual objective, and the others raise :class:`CapabilityError`. Evaluations
are extended-real: indicator functions return ``math.inf`` outside their
domain, never NaN, and infinities propagate through sums.

All proximal maps are closed forms (the quadratic's from one cached
eigendecomposition), so subproblem error stays at machine precision. Their
arguments are checked once, in :class:`ConvexFunction`, for every kind.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, DimensionMismatch, SingularSubproblem
from .linops import _check_dim, as_vector


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class ConvexFunction:
    """Base class; concrete kinds override the operations they support."""

    proxable = False
    smooth = False
    lipschitz = None

    def __init__(self, dim):
        dim = int(dim)
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def _check(self, x, what="argument"):
        return _check_dim(f"{type(self).__name__} {what}", x, self.dim)

    def _prox_args(self, v, t):
        """Checked ``v`` and ``float(t)``; raises unless ``t > 0`` (NaN is not)."""
        v = self._check(v)
        t = float(t)
        if not t > 0:
            raise ValueError(f"{type(self).__name__} step t must be > 0, got {t!r}")
        return v, t

    def _prox_diag_args(self, v, d):
        """Checked ``v`` and ``d``; raises unless every ``d_i > 0`` (NaN is not)."""
        v = self._check(v)
        d = self._check(d, "diagonal")
        if not np.all(d > 0):
            raise ValueError(f"{type(self).__name__} diagonal entries must be "
                             f"> 0, smallest {float(d.min())!r}")
        return v, d

    def __call__(self, x):
        raise NotImplementedError

    def prox(self, v, t):
        """``argmin_u F(u) + ||u - v||^2 / (2 t)`` for ``t > 0``."""
        raise CapabilityError(f"{type(self).__name__} has no proximal map")

    def prox_diag(self, v, d):
        """``argmin_u F(u) + sum_i d_i (u_i - v_i)^2 / 2`` for ``d_i > 0``.

        Only coordinatewise kinds implement this.
        """
        raise CapabilityError(f"{type(self).__name__} is not separable")

    def grad(self, x):
        raise CapabilityError(f"{type(self).__name__} is not smooth")

    def conjugate(self, y):
        """Closed-form Fenchel conjugate value ``sup_x <y,x> - F(x)``."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form conjugate")

    def prox_conjugate(self, v, t):
        """Proximal map of ``t F*`` via the Moreau decomposition.

        Never requires an explicit conjugate:
        ``prox_{tF*}(v) = v - t prox_{F/t}(v / t)``.
        """
        if not self.proxable:
            raise CapabilityError(f"{type(self).__name__} has no proximal map")
        v, t = self._prox_args(v, t)
        return v - t * self.prox(v / t, 1.0 / t)

    def distance_to_subdifferential(self, x, s):
        """Euclidean distance from ``s`` to the subdifferential at ``x``:
        ``||s - grad F(x)||`` for a smooth kind; nonsmooth kinds override it."""
        if not self.smooth:
            raise CapabilityError(
                f"{type(self).__name__} has no subdifferential distance formula"
            )
        s = self._check(s, "subgradient target")
        return float(np.linalg.norm(s - self.grad(x)))


class Zero(ConvexFunction):
    """The identically-zero function."""

    proxable = True
    smooth = True
    lipschitz = 0.0

    def __call__(self, x):
        self._check(x)
        return 0.0

    def prox(self, v, t):
        v, _ = self._prox_args(v, t)
        return v.copy()

    def prox_diag(self, v, d):
        v, _ = self._prox_diag_args(v, d)
        return v.copy()

    def grad(self, x):
        self._check(x)
        return np.zeros(self.dim)

    def conjugate(self, y):
        y = self._check(y)
        return 0.0 if not np.any(y) else math.inf


class L1Norm(ConvexFunction):
    """``weight * ||x||_1`` with ``weight > 0``."""

    proxable = True

    def __init__(self, dim, weight):
        super().__init__(dim)
        self.weight = float(weight)
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def __call__(self, x):
        x = self._check(x)
        return float(self.weight * np.abs(x).sum())

    def prox(self, v, t):
        v, t = self._prox_args(v, t)
        return _soft_threshold(v, t * self.weight)

    def prox_diag(self, v, d):
        v, d = self._prox_diag_args(v, d)
        return _soft_threshold(v, self.weight / d)

    def conjugate(self, y):
        y = self._check(y)
        tol = 1e-12 * (1.0 + self.weight)
        return 0.0 if float(np.abs(y).max()) <= self.weight + tol else math.inf

    def distance_to_subdifferential(self, x, s):
        # Coordinates are classified as active when |x_i| exceeds a small
        # tolerance; at active coordinates the subgradient is the signed
        # weight, elsewhere the interval [-weight, weight].
        x = self._check(x)
        s = self._check(s, "subgradient target")
        zero_tol = 1e-8 * (1.0 + float(np.abs(x).max()))
        active = np.abs(x) > zero_tol
        per_coord = np.where(
            active,
            np.abs(s - self.weight * np.sign(x)),
            np.maximum(np.abs(s) - self.weight, 0.0),
        )
        return float(np.linalg.norm(per_coord))


class SquaredL2(ConvexFunction):
    """``(weight / 2) * ||x - shift||^2`` with ``weight > 0``."""

    proxable = True
    smooth = True

    def __init__(self, dim, shift=0.0, weight=1.0):
        super().__init__(dim)
        if np.ndim(shift) == 0:
            shift = np.full(dim, float(shift))
        self.shift = as_vector(shift, dim, "SquaredL2 shift")
        self.shift.setflags(write=False)
        self.weight = float(weight)
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        self.lipschitz = self.weight

    def __call__(self, x):
        x = self._check(x)
        diff = x - self.shift
        return float(0.5 * self.weight * (diff @ diff))

    def prox(self, v, t):
        v, t = self._prox_args(v, t)
        return (v + t * self.weight * self.shift) / (1.0 + t * self.weight)

    def prox_diag(self, v, d):
        v, d = self._prox_diag_args(v, d)
        return (d * v + self.weight * self.shift) / (d + self.weight)

    def grad(self, x):
        x = self._check(x)
        return self.weight * (x - self.shift)

    def conjugate(self, y):
        y = self._check(y)
        return float(y @ self.shift + (y @ y) / (2.0 * self.weight))


class BoxIndicator(ConvexFunction):
    """Indicator of the box ``lower <= x <= upper`` (coordinatewise)."""

    proxable = True

    def __init__(self, dim, lower, upper):
        super().__init__(dim)
        if np.ndim(lower) == 0:
            lower = np.full(dim, float(lower))
        if np.ndim(upper) == 0:
            upper = np.full(dim, float(upper))
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != (dim,) or upper.shape != (dim,):
            raise DimensionMismatch("BoxIndicator bounds", dim, lower.shape)
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("box needs lower <= upper")
        lower.setflags(write=False)
        upper.setflags(write=False)
        self.lower = lower
        self.upper = upper

    def __call__(self, x):
        x = self._check(x)
        inside = bool(np.all(x >= self.lower) and np.all(x <= self.upper))
        return 0.0 if inside else math.inf

    def prox(self, v, t):
        v, _ = self._prox_args(v, t)
        return np.clip(v, self.lower, self.upper)

    def prox_diag(self, v, d):
        v, _ = self._prox_diag_args(v, d)
        return np.clip(v, self.lower, self.upper)

    def conjugate(self, y):
        # Support function of the box; handles infinite bounds without
        # producing 0 * inf.
        y = self._check(y)
        total = 0.0
        for yi, lo, hi in zip(y, self.lower, self.upper):
            if yi > 0.0:
                total += hi * yi
            elif yi < 0.0:
                total += lo * yi
            if math.isinf(total):
                return math.inf
        return float(total)

    def distance_to_subdifferential(self, x, s):
        # Per coordinate: outside the box (beyond the tolerance) the
        # subdifferential is empty; at both bounds it is the whole line, at
        # the lower bound (-inf, 0], at the upper [0, inf), inside {0}.
        x = self._check(x)
        s = self._check(s, "subgradient target")
        # A point is at a finite bound within a relative tolerance; an
        # infinite bound has tolerance 0 and no point is ever at it.
        lo, hi = self.lower, self.upper
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
        tol_lo = np.where(fin_lo, 1e-12 * (1.0 + np.abs(lo)), 0.0)
        tol_hi = np.where(fin_hi, 1e-12 * (1.0 + np.abs(hi)), 0.0)
        if np.any((x < lo - tol_lo) | (x > hi + tol_hi)):
            return math.inf  # empty subdifferential outside the box
        # Mask before subtracting: 0 stands in for an infinite bound in
        # ``x - bound``, because -inf - (-inf) would warn.
        at_lo = fin_lo & (np.abs(x - np.where(fin_lo, lo, 0.0)) <= tol_lo)
        at_hi = fin_hi & (np.abs(x - np.where(fin_hi, hi, 0.0)) <= tol_hi)
        contrib = np.where(
            at_lo & at_hi,
            0.0,
            np.where(
                at_lo,
                np.maximum(s, 0.0),
                np.where(at_hi, np.maximum(-s, 0.0), np.abs(s)),
            ),
        )
        return float(np.linalg.norm(contrib))


class Quadratic(ConvexFunction):
    """``(1/2) <x, Q x> + <q, x>`` with PSD ``Q`` (enforced at construction).

    The first :meth:`prox` call computes ``Q = V diag(lam) V^T`` once and
    keeps only ``(lam, V)``; every later call, for any step size, reuses it.
    """

    proxable = True
    smooth = True

    def __init__(self, Q, q=None):
        Q = np.array(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square 2-D array")
        dim = Q.shape[0]
        super().__init__(dim)
        scale = max(1.0, float(np.abs(Q).max()))
        if float(np.abs(Q - Q.T).max()) > 1e-12 * scale:
            raise ValueError("Q must be symmetric")
        Q = (Q + Q.T) / 2.0
        eigs = np.linalg.eigvalsh(Q)
        if float(eigs[0]) < -1e-10 * scale:
            raise ValueError(f"Q must be PSD; smallest eigenvalue {eigs[0]:.3e}")
        Q.setflags(write=False)
        self.Q = Q
        if q is None:
            q = np.zeros(dim)
        self.q = as_vector(q, dim, "Quadratic linear term")
        self.q.setflags(write=False)
        self.lipschitz = max(0.0, float(eigs[-1]))
        self._eigh = None  # (lam, V) of Q, made by the first prox call

    def __call__(self, x):
        x = self._check(x)
        return float(0.5 * (x @ (self.Q @ x)) + self.q @ x)

    def grad(self, x):
        x = self._check(x)
        return self.Q @ x + self.q

    def prox(self, v, t):
        """``(I + tQ)^{-1} (v - tq) = V diag(1 / (1 + t lam)) V^T (v - tq)``,
        two matrix-vector products; :class:`SingularSubproblem` when some
        ``1 + t lam <= 0`` (a tiny negative eigenvalue at a large t)."""
        v, t = self._prox_args(v, t)
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self.Q)
        lam, V = self._eigh
        denom = 1.0 + t * lam
        if not denom[0] > 0:  # lam ascends, so denom[0] is the smallest
            raise SingularSubproblem(
                f"I + tQ is not positive definite at t={t!r}: "
                f"1 + t lambda_min(Q) = {float(denom[0]):.3e}"
            )
        # V.T @ w is a transposed GEMV on V itself; no copy of V.T is kept
        return V @ ((V.T @ (v - t * self.q)) / denom)


class Huber(ConvexFunction):
    """Huber penalty ``weight * sum_i phi_delta(x_i)``.

    ``phi_delta(r) = r^2 / (2 delta)`` for ``|r| <= delta``, else
    ``|r| - delta/2``. Smooth with gradient Lipschitz constant
    ``weight / delta``.
    """

    proxable = True
    smooth = True

    def __init__(self, dim, delta, weight=1.0):
        super().__init__(dim)
        self.delta = float(delta)
        self.weight = float(weight)
        if self.delta <= 0 or self.weight <= 0:
            raise ValueError("delta and weight must be positive")
        self.lipschitz = self.weight / self.delta

    def __call__(self, x):
        x = self._check(x)
        a = np.abs(x)
        quad = a <= self.delta
        vals = np.where(quad, x * x / (2.0 * self.delta), a - self.delta / 2.0)
        return float(self.weight * vals.sum())

    def grad(self, x):
        x = self._check(x)
        return self.weight * np.clip(x / self.delta, -1.0, 1.0)

    def _prox_scaled(self, v, scale):
        # scale = t * weight per coordinate
        inner = np.abs(v) <= self.delta + scale
        return np.where(
            inner,
            v * self.delta / (self.delta + scale),
            v - scale * np.sign(v),
        )

    def prox(self, v, t):
        v, t = self._prox_args(v, t)
        return self._prox_scaled(v, t * self.weight)

    def prox_diag(self, v, d):
        v, d = self._prox_diag_args(v, d)
        return self._prox_scaled(v, self.weight / d)

