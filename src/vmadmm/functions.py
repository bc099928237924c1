"""Catalog of convex functions with exact proximal maps and gradients.

Each function reports its capabilities through the flags ``proxable``,
``separable`` and ``smooth`` (with a Lipschitz constant for the gradient),
read from the kernels they name: a kind has a flag when it has its own
``_prox``, ``_prox_diag`` or ``_grad``. The kinds with a closed-form Fenchel
conjugate implement ``conjugate``, a reference for the dual objective, and
the others raise :class:`CapabilityError`. Evaluations are extended-real:
indicator functions return ``math.inf`` outside their domain, never NaN,
and infinities propagate through sums.

All proximal maps are closed forms (the quadratic's from one cached
eigendecomposition), so subproblem error stays at machine precision. A public
call checks its arguments once, in :class:`ConvexFunction`, then calls the
kind's kernel, which the solver calls directly on the arrays it made. A
proximal map returns a new array, except ``Zero``'s, which returns its
argument. A binding that calls the prox many times at one step ``t`` takes
its kernel from ``_prox_at(t)``: ``_prox`` itself, or for ``Quadratic`` the
resolvent ``(I + tQ)^{-1}`` made once, one matrix-vector product a call.

Each kind has one subdifferential kernel, ``value_and_distance(x, s)``, and
``distance_to_subdifferential`` is defined once, as its distance; a smooth
kind's is the base class's ``||s - grad F(x)||`` unless it has a cheaper
one. These two, a value, ``grad`` and ``value_and_grad`` also take a block,
a 2-D array with one point per row, and return one result per row, each with
the bits of the 1-D call; a 1-D call returns a float where a value is asked
for. Proximal maps and conjugates take vectors only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, DimensionMismatch, SingularSubproblem
from .linops import _check_block, _per_point, as_vector, matvec


def _soft_threshold(v, t):
    """``sign(v) * max(|v| - t, 0)``, its temporaries written in place."""
    out = np.abs(v)
    np.subtract(out, t, out=out)
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(v), out, out=out)


def _positive(value, name):
    """``float(value)``; raises unless it is finite and > 0."""
    value = float(value)
    if not 0 < value <= np.finfo(float).max:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return value


def _norm(v):
    """``||v||`` of a vector or of each row, with the bits of ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(v, v))


class ConvexFunction:
    """Base class; concrete kinds override the operations they support."""

    proxable = False
    separable = False
    smooth = False
    lipschitz = None

    def __init_subclass__(cls, **kwargs):
        # Each flag is decided once per kind, from the kernel it names: a class
        # attribute costs a lookup, and cannot disagree with the kernel.
        super().__init_subclass__(**kwargs)
        cls.proxable = cls._prox is not ConvexFunction._prox
        cls.separable = cls._prox_diag is not ConvexFunction._prox_diag
        cls.smooth = cls._grad is not ConvexFunction._grad

    def __init__(self, dim):
        dim = int(dim)
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def _check(self, x, what="argument", ndims=(1, 2)):
        """``x``: one vector, or a block when ``ndims`` allows, checked against ``dim``."""
        return _check_block(what, x, self.dim, ndims, self)

    def _check_vector(self, v, what="argument"):
        return self._check(v, what, (1,))

    def _step(self, t):
        """``float(t)``; raises unless ``t > 0`` (NaN is not)."""
        t = float(t)
        if not t > 0:
            raise ValueError(f"{type(self).__name__} step t must be > 0, got {t!r}")
        return t

    def __call__(self, x):
        raise NotImplementedError

    def prox(self, v, t):
        """``argmin_u F(u) + ||u - v||^2 / (2 t)`` for ``t > 0``: a new array,
        except that ``Zero`` returns ``v`` itself (as a float array)."""
        return self._prox(self._check_vector(v), self._step(t))

    def prox_diag(self, v, d):
        """``argmin_u F(u) + sum_i d_i (u_i - v_i)^2 / 2`` for ``d_i > 0``.

        Only coordinatewise kinds implement its kernel.
        """
        v = self._check_vector(v)
        d = self._check_vector(d, "diagonal")
        if not np.all(d > 0):  # NaN is not
            raise ValueError(f"{type(self).__name__} diagonal entries must be "
                             f"> 0, smallest {float(d.min())!r}")
        return self._prox_diag(v, d)

    def grad(self, x):
        return self._grad(self._check(x))

    def value_and_grad(self, x):
        """``(F(x), grad F(x))``, each with the bits of its own call; a kind
        whose two share work computes it once."""
        return self(x), self.grad(x)

    def _prox(self, v, t):
        raise CapabilityError(f"{type(self).__name__} has no proximal map")

    def _prox_at(self, t):
        """The kernel a binding calls, as ``kernel(v, t)``, for every call at
        the one step ``t``: ``_prox`` itself, unless a kind has a cheaper form
        for a fixed step, made once here (``Quadratic``'s resolvent)."""
        return self._prox

    def _prox_diag(self, v, d):
        raise CapabilityError(f"{type(self).__name__} is not separable")

    def _grad(self, x):
        raise CapabilityError(f"{type(self).__name__} is not smooth")

    def conjugate(self, y):
        """Closed-form Fenchel conjugate value ``sup_x <y,x> - F(x)``."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form conjugate")

    def prox_conjugate(self, v, t):
        """Proximal map of ``t F*`` via the Moreau decomposition.

        Never requires an explicit conjugate:
        ``prox_{tF*}(v) = v - t prox_{F/t}(v / t)``.
        """
        v, t = self._check_vector(v), self._step(t)
        return v - t * self.prox(v / t, 1.0 / t)

    def distance_to_subdifferential(self, x, s):
        """Euclidean distance from ``s`` to the subdifferential at ``x``."""
        return self.value_and_distance(x, s)[1]

    def value_and_distance(self, x, s):
        """``(F(x), distance_to_subdifferential(x, s))``: the kind's one
        subdifferential kernel, each result with the bits of its own call. A
        smooth kind's distance is ``||s - grad F(x)||``, both from one
        :meth:`value_and_grad`; each nonsmooth kind, and ``Zero``, overrides it."""
        if not self.smooth:
            raise CapabilityError(
                f"{type(self).__name__} has no subdifferential distance formula"
            )
        value, grad = self.value_and_grad(x)
        return value, _per_point(_norm(self._check(s, "subgradient target") - grad))


class Zero(ConvexFunction):
    """The identically-zero function."""

    lipschitz = 0.0

    def __call__(self, x):
        x = self._check(x)
        return _per_point(np.zeros(x.shape[:-1]))

    def _prox(self, v, t):
        return v

    _prox_diag = _prox

    def _grad(self, x):
        return np.zeros(x.shape)

    def conjugate(self, y):
        y = self._check_vector(y)
        return 0.0 if not np.any(y) else math.inf

    def value_and_distance(self, x, s):
        # ||s - 0.0|| is ||s||: s - 0.0 is s bit for bit, signed zeros and NaN
        # included, so no difference is formed
        x = self._check(x)
        s = self._check(s, "subgradient target")
        if s.shape != x.shape:
            s = np.broadcast_to(s, np.broadcast_shapes(s.shape, x.shape))
        return _per_point(np.zeros(x.shape[:-1])), _per_point(_norm(s))


class L1Norm(ConvexFunction):
    """``weight * ||x||_1`` with ``weight > 0``."""

    def __init__(self, dim, weight):
        super().__init__(dim)
        self.weight = _positive(weight, "weight")

    def __call__(self, x):
        x = self._check(x)
        return _per_point(self.weight * np.abs(x).sum(axis=-1))

    def _prox(self, v, t):
        return _soft_threshold(v, t * self.weight)

    def _prox_diag(self, v, d):
        return _soft_threshold(v, self.weight / d)

    def conjugate(self, y):
        y = self._check_vector(y)
        tol = 1e-12 * (1.0 + self.weight)
        return 0.0 if float(np.abs(y).max()) <= self.weight + tol else math.inf

    def value_and_distance(self, x, s):
        """Coordinates are classified as active when |x_i| exceeds
        1e-8 (1 + max_j |x_j|); at active coordinates the subgradient is the
        signed weight, elsewhere the interval [-weight, weight]. ``|x|`` is
        taken once, for the value and the mask; its buffer then takes
        ``|s - weight sign(x)|`` and one more buffer ``max(|s| - weight, 0)``,
        which one ``np.putmask`` puts over it at the inactive coordinates:
        the two branches of an ``np.where`` with no temporaries. A ``where=``
        masked fill, or ``np.copyto``'s, is 2 to 5 times slower on mixed masks."""
        x = self._check(x)
        s = self._check(s, "subgradient target")
        w = self.weight
        a = np.abs(x)
        value = _per_point(w * a.sum(axis=-1))
        active = a > 1e-8 * (1.0 + a.max(axis=-1, keepdims=True))
        near = np.multiply(np.sign(x, out=a), w, out=a)
        # a block against one vector broadcasts into a new buffer
        near = np.subtract(s, near, out=near if s.shape == x.shape else None)
        np.abs(near, out=near)
        far = np.abs(s)
        far -= w
        np.maximum(far, 0.0, out=far)
        inactive = np.logical_not(active, out=active)
        if inactive.shape != far.shape:  # np.broadcast_arrays costs 4 us a call
            inactive, far = np.broadcast_arrays(inactive, far)
        np.putmask(near, inactive, far)
        return value, _per_point(_norm(near))


class SquaredL2(ConvexFunction):
    """``(weight / 2) * ||x - shift||^2`` with ``weight > 0``."""

    def __init__(self, dim, shift=0.0, weight=1.0):
        super().__init__(dim)
        if np.ndim(shift) == 0:
            shift = np.full(dim, float(shift))
        self.shift = as_vector(shift, dim, "SquaredL2 shift")
        self.shift.setflags(write=False)
        self.weight = _positive(weight, "weight")
        self.lipschitz = self.weight

    def __call__(self, x):
        x = self._check(x)
        diff = x - self.shift
        return _per_point(0.5 * self.weight * np.vecdot(diff, diff))

    def _prox(self, v, t):
        return (v + t * self.weight * self.shift) / (1.0 + t * self.weight)

    def _prox_diag(self, v, d):
        return (d * v + self.weight * self.shift) / (d + self.weight)

    def _grad(self, x):
        return self.weight * (x - self.shift)

    def value_and_grad(self, x):
        x = self._check(x)
        diff = x - self.shift  # once for both; then the gradient's buffer
        value = _per_point(0.5 * self.weight * np.vecdot(diff, diff))
        return value, np.multiply(self.weight, diff, out=diff)

    def conjugate(self, y):
        y = self._check_vector(y)
        return float(y @ self.shift + (y @ y) / (2.0 * self.weight))


class BoxIndicator(ConvexFunction):
    """Indicator of the box ``lower <= x <= upper`` (coordinatewise)."""

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
        # the subdifferential distance's constants: a point is at a finite
        # bound within a relative tolerance; an infinite bound has tolerance
        # 0 and no point is ever at it, and 0 stands in for it in
        # ``x - bound``, because -inf - (-inf) would warn
        fin_lo, fin_hi = np.isfinite(lower), np.isfinite(upper)
        tol_lo = np.where(fin_lo, 1e-12 * (1.0 + np.abs(lower)), 0.0)
        tol_hi = np.where(fin_hi, 1e-12 * (1.0 + np.abs(upper)), 0.0)
        self._bounds = (lower - tol_lo, upper + tol_hi, fin_lo, fin_hi, tol_lo, tol_hi,
                        np.where(fin_lo, lower, 0.0), np.where(fin_hi, upper, 0.0))

    def __call__(self, x):
        x = self._check(x)
        inside = np.all(x >= self.lower, axis=-1) & np.all(x <= self.upper, axis=-1)
        return _per_point(np.where(inside, 0.0, math.inf))

    def _prox(self, v, t):
        # the method np.clip dispatches to, with its bits, minus the dispatch
        return v.clip(self.lower, self.upper)

    _prox_diag = _prox

    def conjugate(self, y):
        # Support function of the box; handles infinite bounds without
        # producing 0 * inf.
        y = self._check_vector(y)
        total = 0.0
        for yi, lo, hi in zip(y, self.lower, self.upper):
            if yi > 0.0:
                total += hi * yi
            elif yi < 0.0:
                total += lo * yi
            if math.isinf(total):
                return math.inf
        return float(total)

    def value_and_distance(self, x, s):
        # Per coordinate: outside the box (beyond the tolerance) the
        # subdifferential is empty; at both bounds it is the whole line, at
        # the lower bound (-inf, 0], at the upper [0, inf), inside {0}.
        x = self._check(x)
        s = self._check(s, "subgradient target")
        value = self(x)  # before the buffer below is made
        below, above, fin_lo, fin_hi, tol_lo, tol_hi, lo, hi = self._bounds
        # empty subdifferential outside the box
        outside = np.any((x < below) | (x > above), axis=-1)
        # one buffer holds |x - bound|, then the contributions: inside |s|,
        # over which np.putmask merges, case by case, the branch a second
        # buffer holds at the upper bound, then at the lower, then 0 at both
        # (a where=-masked fill is 2 to 5 times slower on mixed masks)
        buf = np.empty(np.broadcast_shapes(x.shape, s.shape))
        at_hi = fin_hi & (np.abs(np.subtract(x, hi, out=buf), out=buf) <= tol_hi)
        at_lo = fin_lo & (np.abs(np.subtract(x, lo, out=buf), out=buf) <= tol_lo)
        both = at_lo & at_hi
        if both.shape != buf.shape:  # a point against a block of targets
            at_hi, at_lo, both, _ = np.broadcast_arrays(at_hi, at_lo, both, buf)
        contrib = np.abs(s, out=buf)
        side = np.negative(s, out=np.empty_like(buf))
        np.maximum(side, 0.0, out=side)
        np.putmask(contrib, at_hi, side)
        np.maximum(s, 0.0, out=side)
        np.putmask(contrib, at_lo, side)
        np.putmask(contrib, both, 0.0)
        return value, _per_point(np.where(outside, math.inf, _norm(contrib)))


class Quadratic(ConvexFunction):
    """``(1/2) <x, Q x> + <q, x>`` with PSD ``Q`` (enforced at construction).

    The first :meth:`prox` call computes ``Q = V diag(lam) V^T`` once and
    keeps only ``(lam, V)``; every later call, for any step size, reuses it.
    Beside it one entry ``(t, 1 + t lam, t q)`` holds the last step's
    constants, 2n floats, made again only when ``t`` changes. The resolvent
    ``(I + tQ)^{-1}`` that :meth:`_prox_at` forms is held only by the kernel
    it returns, so a process that only evaluates or certifies ``F`` keeps no
    ``n x n`` matrix beside ``Q`` and ``V``.
    """

    def __init__(self, Q, q=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square 2-D array")
        if not np.all(np.isfinite(Q)):
            raise ValueError("Q entries must be finite (no NaN/Inf)")
        dim = Q.shape[0]
        super().__init__(dim)
        scale = max(1.0, float(Q.max()), -float(Q.min()))  # max |Q_ij|
        # a bitwise symmetric Q is its own (Q + Q^T) / 2 unless Q + Q overflows;
        # its spectrum is read off the argument, then it is copied once
        symmetric = np.array_equal(Q.view(np.uint64), Q.view(np.uint64).T)
        if symmetric and scale > np.finfo(float).max / 2:
            raise ValueError("(Q + Q^T) / 2 must be finite (no NaN/Inf)")
        if not symmetric:
            # one buffer, first for |Q - Q^T|, then for (Q + Q^T) / 2; the
            # argument is only read, never written. An overflow is refused below
            with np.errstate(over="ignore"):
                work = np.subtract(Q, Q.T)
                if float(np.abs(work, out=work).max()) > 1e-12 * scale:
                    raise ValueError("Q must be symmetric")
                Q = np.add(Q, Q.T, out=work)
            Q /= 2.0
            if not -math.inf < float(Q.min()) <= float(Q.max()) < math.inf:
                raise ValueError("(Q + Q^T) / 2 must be finite (no NaN/Inf)")
        eigs = np.linalg.eigvalsh(Q)
        if float(eigs[0]) < -1e-10 * scale:
            raise ValueError(f"Q must be PSD; smallest eigenvalue {eigs[0]:.3e}")
        self.Q = Q.copy() if symmetric else Q
        self.Q.setflags(write=False)
        if q is None:
            q = np.zeros(dim)
        self.q = as_vector(q, dim, "Quadratic linear term")
        self.q.setflags(write=False)
        self.lipschitz = max(0.0, float(eigs[-1]))
        self._eigh = None  # (lam, V) of Q, made by the first prox call
        self._at_step = None  # (t, 1 + t lam, t q) of the last prox call's t

    def __call__(self, x):
        x = self._check(x)
        return self._value(x, matvec(self.Q, x))

    def _value(self, x, Qx):
        return _per_point(0.5 * np.vecdot(x, Qx) + np.vecdot(self.q, x))

    def _grad(self, x):
        return matvec(self.Q, x) + self.q

    def value_and_grad(self, x):
        x = self._check(x)
        Qx = matvec(self.Q, x)  # one product for both
        return self._value(x, Qx), np.add(Qx, self.q, out=Qx)

    # its own name: perfbench's factor hit ratio reads the key Quadratic.prox
    prox = ConvexFunction.prox

    def _prox(self, v, t):
        """``(I + tQ)^{-1} (v - tq) = V diag(1 / (1 + t lam)) V^T (v - tq)``,
        two matrix-vector products; :class:`SingularSubproblem` when some
        ``1 + t lam <= 0`` (a tiny negative eigenvalue at a large t)."""
        V, denom, tq = self._spectral_step(t)
        # V.T @ w is a transposed GEMV on V itself; no copy of V.T is kept
        return V @ ((V.T @ (v - tq)) / denom)

    def _prox_at(self, t):
        """The resolvent ``R = (I + tQ)^{-1} = V diag(1 / (1 + t lam)) V^T``,
        one ``n x n`` product made here, then one matrix-vector product a
        call, ``R (v - tq)``; the kernel ignores its own ``t``. The same
        :class:`SingularSubproblem` check as :meth:`_prox`, raised here."""
        V, denom, tq = self._spectral_step(t)
        R = (V / denom) @ V.T
        return lambda v, t: R @ (v - tq)

    def _spectral_step(self, t):
        """``(V, 1 + t lam, t q)`` for step ``t``, from the one
        eigendecomposition; the step's constants are kept only once the
        positivity check has passed."""
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self.Q)
        lam, V = self._eigh
        if self._at_step is None or self._at_step[0] != t:
            denom = 1.0 + t * lam
            if not denom[0] > 0:  # lam ascends, so denom[0] is the smallest
                raise SingularSubproblem(
                    f"I + tQ is not positive definite at t={t!r}: "
                    f"1 + t lambda_min(Q) = {float(denom[0]):.3e}"
                )
            self._at_step = (t, denom, t * self.q)
        _, denom, tq = self._at_step
        return V, denom, tq


class Huber(ConvexFunction):
    """Huber penalty ``weight * sum_i phi_delta(x_i)``.

    ``phi_delta(r) = r^2 / (2 delta)`` for ``|r| <= delta``, else
    ``|r| - delta/2``. Smooth with gradient Lipschitz constant
    ``weight / delta``.
    """

    def __init__(self, dim, delta, weight=1.0):
        super().__init__(dim)
        self.delta = _positive(delta, "delta")
        self.weight = _positive(weight, "weight")
        self.lipschitz = self.weight / self.delta

    def __call__(self, x):
        x = self._check(x)
        a = np.abs(x)
        quad = a <= self.delta
        vals = np.where(quad, x * x / (2.0 * self.delta), a - self.delta / 2.0)
        return _per_point(self.weight * vals.sum(axis=-1))

    def _grad(self, x):
        return self.weight * np.clip(x / self.delta, -1.0, 1.0)

    def _prox_scaled(self, v, scale):
        # scale = t * weight per coordinate
        inner = np.abs(v) <= self.delta + scale
        return np.where(
            inner,
            v * self.delta / (self.delta + scale),
            v - scale * np.sign(v),
        )

    def _prox(self, v, t):
        return self._prox_scaled(v, t * self.weight)

    def _prox_diag(self, v, d):
        return self._prox_scaled(v, self.weight / d)

