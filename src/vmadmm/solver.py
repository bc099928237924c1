"""Variable-metric proximal ADMM for ``min f(x) + h(x) + g(Ax)``.

Each iteration solves, exactly,

    x+ = argmin f(x) + <x - x_k, grad h(x_k)>
                + (c/2) ||A x - z_k + y_k / c||^2 + (1/2) ||x - x_k||^2_{M1_k}
    z+ = argmin g(z) + (c/2) ||A x+ - z + y_k / c||^2 + (1/2) ||z - z_k||^2_{M2_k}
    y+ = y_k + c (A x+ - z+)

where the per-iteration metrics M1_k, M2_k come from monotone PSD schedules.
The x subproblem is dispatched to one of three exact strategies; unsupported
configurations are rejected rather than solved inexactly, so every
certificate in :mod:`vmadmm.diagnostics` can be checked to ~1e-10.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot

from . import functions
from .diagnostics import kkt_residual
from .errors import (
    AssumptionError,
    DimensionMismatch,
    NonFiniteIterate,
    SingularSubproblem,
    StrategyError,
    UnsupportedMetric,
)
from .linops import (
    LinearMap,
    MetricOperator,
    _check_finite,
    gram_min_eigenvalue,
    min_eigenvalue,
)


@dataclass(frozen=True)
class ProblemSpec:
    """A composite problem ``min f(x) + h(x) + g(Ax)`` with penalty ``c``.

    ``f`` and ``h`` live on the domain of ``A`` (dimension n), ``g`` on its
    range (dimension m); ``h`` must be smooth with a known gradient Lipschitz
    constant, and ``c`` is the positive augmentation penalty.
    """

    f: functions.ConvexFunction
    h: functions.ConvexFunction
    g: functions.ConvexFunction
    A: LinearMap
    c: float

    def __post_init__(self):
        if self.f.dim != self.A.cols:
            raise DimensionMismatch("ProblemSpec f", self.A.cols, self.f.dim)
        if self.h.dim != self.A.cols:
            raise DimensionMismatch("ProblemSpec h", self.A.cols, self.h.dim)
        if self.g.dim != self.A.rows:
            raise DimensionMismatch("ProblemSpec g", self.A.rows, self.g.dim)
        if not self.h.smooth:
            raise ValueError("h must be smooth with a Lipschitz gradient")
        if self.h.lipschitz is None or not 0 <= self.h.lipschitz < math.inf:
            raise ValueError("h must carry a finite Lipschitz constant >= 0")
        if not 0 < self.c < math.inf:
            raise ValueError(f"penalty c must be a finite number > 0, got {self.c!r}")

    @property
    def n(self):
        return self.A.cols

    @property
    def m(self):
        return self.A.rows


@dataclass
class SolverState:
    """Iterate triple (x, z, y), the iteration counter, and three derived
    vectors: ``Ax = A x``, ``yc = y / c`` and the residual ``r = A x - z``.

    :func:`initial_state` and :func:`step` set every field, with the same
    expressions, so each derived vector is computed once per iterate: ``yc``
    feeds the next x and z updates, ``r`` the recorder's ``||A x_k - z_k||``
    and the next LINEARIZED x update, ``Ax`` the certifier. For an identity
    map ``Ax`` is ``x`` itself, not a copy of it.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    k: int
    Ax: np.ndarray
    yc: np.ndarray
    r: np.ndarray


def initial_state(problem, x0=None, z0=None, y0=None):
    """All-zeros state unless explicit starting vectors are given.

    Each given vector must be finite with a finite squared norm, as problem
    data must (:func:`~vmadmm.linops.as_vector`); otherwise ``ValueError``.
    """
    x = np.zeros(problem.n) if x0 is None else np.array(x0, dtype=float)
    z = np.zeros(problem.m) if z0 is None else np.array(z0, dtype=float)
    y = np.zeros(problem.m) if y0 is None else np.array(y0, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch("initial x", problem.n, x.shape)
    if z.shape != (problem.m,):
        raise DimensionMismatch("initial z", problem.m, z.shape)
    if y.shape != (problem.m,):
        raise DimensionMismatch("initial y", problem.m, y.shape)
    for name, v in (("x", x), ("z", z), ("y", y)):
        _check_finite(f"initial {name}", v)
    Ax = x if problem.A.is_identity else problem.A.apply(x)
    return SolverState(x=x, z=z, y=y, k=0, Ax=Ax, yc=y / problem.c, r=Ax - z)


# ---------------------------------------------------------------------------
# metric schedules
# ---------------------------------------------------------------------------


class GeometricDecaySchedule:
    """``M^k = rho^k * M0`` with ``rho`` in (0, 1]; monotone by construction."""

    def __init__(self, metric0, rho):
        rho = float(rho)
        if not (0.0 < rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        self._metric0 = metric0
        self.rho = rho

    def metric(self, k):
        if self.rho == 1.0 or k == 0:
            return self._metric0
        return self._metric0.scaled(self.rho**k)

    def is_monotone(self):
        return True

    def min_eig_infimum(self):
        if self.rho == 1.0:
            return min_eigenvalue(self._metric0)
        return 0.0  # the schedule decays to the zero operator

    def double_monotone(self):
        # 2 rho^{k+1} M0 >= rho^k M0 holds for every PSD M0 when rho >= 1/2,
        # and for any rho when M0 is zero; a non-diagonal M0 reads as nonzero
        d = self._metric0.diagonal_entries()
        return self.rho >= 0.5 or (d is not None and not d.any())


class ConstantSchedule(GeometricDecaySchedule):
    """``M^k = M`` for every k: the geometric schedule at ``rho = 1``."""

    def __init__(self, metric):
        super().__init__(metric, 1.0)


class ShiftedGramSchedule:
    """``M^k = (1/tau_k) id - c A*A`` for a step sequence ``tau_k``.

    ``taus`` is a single positive float (constant steps) or a list, held at
    its last value beyond the end. Monotonicity requires nondecreasing steps.
    """

    def __init__(self, taus, coupling, A):
        if np.ndim(taus) == 0:
            taus = [float(taus)]
        self.taus = [float(t) for t in taus]
        if not self.taus or not all(t > 0 for t in self.taus):
            raise ValueError("taus must be positive")
        self._cache = {
            t: MetricOperator.shifted_gram(t, float(coupling), A)
            for t in set(self.taus)
        }

    def _tau(self, k):
        return self.taus[min(k, len(self.taus) - 1)]

    def metric(self, k):
        return self._cache[self._tau(k)]

    def is_monotone(self):
        # the whole list: beyond its end the step is held, so this is every k
        return all(a <= b for a, b in zip(self.taus, self.taus[1:]))

    def min_eig_infimum(self):
        return min(min_eigenvalue(m) for m in self._cache.values())


# ---------------------------------------------------------------------------
# iteration updates
# ---------------------------------------------------------------------------


def x_strategy(problem, m1):
    """The exact x update for metric ``m1``: ``"linearized"``, ``"quadratic"``
    or ``"prox_direct"``, tried in that order; :class:`StrategyError` if none."""
    f = problem.f
    if (m1.kind == "shifted_gram" and m1.map is problem.A
            and m1.coupling == problem.c and f.proxable):
        return "linearized"
    if isinstance(f, (functions.Zero, functions.Quadratic)):
        return "quadratic"
    if problem.A.is_identity and m1.is_scalar and f.proxable:
        return "prox_direct"
    raise StrategyError(
        "no exact x-update strategy applies: f is neither zero nor quadratic, "
        "and the metric does not linearize the coupling. Choose a shifted "
        "Gram metric (1/tau) id - c A*A for M1."
    )


def x_update(problem, state, m1):
    """Exact minimizer of the x subproblem under metric ``m1``.

    The strategy is :func:`x_strategy`'s answer:

    * LINEARIZED -- ``m1`` is the shifted Gram metric ``(1/tau) id - c A*A``
      built on the problem's own A and c: the quadratic coupling cancels and
      the update is a single prox of f at a gradient-style point. Exact
      because ``c A*A + m1 = (1/tau) id``.
    * QUADRATIC -- f is zero or quadratic: one SPD linear solve with the
      Cholesky factor of ``c A*A + m1 (+ Q)`` (:func:`_quadratic_factor`).
    * PROX-DIRECT -- A is the identity and ``m1`` is a scaled identity:
      a single prox of f under the scalar metric ``c + mu``.

    The update depends on the problem and ``m1`` alone; this call binds it
    (:func:`_bind_x_update`) for itself, and :func:`run` once per metric
    object.
    """
    return _bind_x_update(problem, m1)(state)


def _bind_x_update(problem, m1):
    """:func:`x_update` under ``m1``, a function of the state with its scalars
    and factor computed once, on the kernels of f, h and A (unchecked).

    Each operation that the kinds of f and h make an exact no-op is left out
    when the update is bound: a zero h's gradient under PROX-DIRECT, since
    ``w - (+0.0)`` is ``w`` bit for bit, signed zeros and NaN included, and a
    zero f's prox under LINEARIZED, which would copy the point it is given.
    LINEARIZED keeps ``grad(x) +`` for a zero h, because ``+0.0 + (-0.0)`` is
    ``+0.0``.
    """
    f, A, c = problem.f, problem.A, problem.c
    grad, adjoint, prox = problem.h._grad, A._adjoint, f._prox
    zero_h = isinstance(problem.h, functions.Zero)
    strategy = x_strategy(problem, m1)

    if strategy == "linearized":
        tau = m1.tau
        zero_f = isinstance(f, functions.Zero)
        def linearized(state):
            step = grad(state.x) + c * adjoint(state.r + state.yc)
            point = state.x - tau * step
            return point if zero_f else prox(point, tau)
        return linearized

    if strategy == "quadratic":
        solve, factor = _quadratic_factor(problem, m1)
        apply_m1 = m1._apply
        q = f.q if isinstance(f, functions.Quadratic) else None
        def quadratic(state):
            rhs = -grad(state.x) + c * adjoint(state.z - state.yc)
            rhs += apply_m1(state.x)
            if q is not None:
                rhs -= q
            # both factors are upper triangular, LAPACK's default
            x_next, info = solve(factor, rhs)
            if info != 0:
                raise ValueError(f"LAPACK solve: illegal value in argument {-info}")
            return x_next
        return quadratic

    mu = m1.mu
    denom = c + mu
    t = f._step(1.0 / denom)
    def prox_direct(state):
        # (c (z - yc) + mu x - grad h(x)) / (c + mu), formed in z - yc
        w = state.z - state.yc
        np.multiply(c, w, out=w)
        w += mu * state.x
        if not zero_h:
            w -= grad(state.x)
        w /= denom
        return prox(w, t)
    return prox_direct


def _quadratic_factor(problem, m1):
    """``(solve, factor)`` of the QUADRATIC x update's system ``c A*A + m1
    (+ Q)``: LAPACK's ``dpbtrs`` or ``dpotrs`` and the upper Cholesky factor.

    The factor is banded, O(n) to build, store and solve with, when A records
    its Gram bands (a forward difference), ``m1`` is diagonal (zero, scaled
    identity or diagonal) and f is zero; otherwise it is dense. With f zero,
    a zero ``m1`` and a singular ``A*A`` (smallest eigenvalue at most 1e-10)
    the system is singular and is rejected unfactored.
    """
    f, A, c = problem.f, problem.A, problem.c
    d1 = m1.diagonal_entries()
    zero_f = isinstance(f, functions.Zero)
    if (zero_f and d1 is not None and not d1.any()
            and gram_min_eigenvalue(A) <= 1e-10):
        raise SingularSubproblem("x subproblem: A*A is singular and M1 zero")
    banded = A._gram_bands is not None and d1 is not None and zero_f
    if banded:
        system = c * A._gram_bands
        system[-1] += d1
    else:
        system = c * A.gram_dense()
        if d1 is None:
            system += m1.to_dense()
        else:
            system[np.diag_indices(problem.n)] += d1
        if isinstance(f, functions.Quadratic):
            system += f.Q
    try:
        if banded:
            return scipy.linalg.lapack.dpbtrs, scipy.linalg.cholesky_banded(system)
        return scipy.linalg.lapack.dpotrs, scipy.linalg.cho_factor(system)[0]
    except scipy.linalg.LinAlgError as exc:
        raise SingularSubproblem(
            "x subproblem is not strongly convex: " + str(exc)
        ) from exc


def z_strategy(problem, m2):
    """The exact z update for metric ``m2``: ``"scalar"`` for a zero or
    scaled-identity metric, ``"diagonal"`` for a diagonal one on a
    ``separable`` g; :class:`UnsupportedMetric` otherwise."""
    if m2.is_scalar:
        return "scalar"
    if problem.g.separable and m2.diagonal_entries() is not None:
        return "diagonal"
    raise UnsupportedMetric(
        f"the z update supports zero, scaled-identity, or diagonal M2 (on a "
        f"separable g), got {m2.kind!r} on {type(problem.g).__name__}"
    )


def z_update(problem, state, Ax_next, m2):
    """Exact minimizer of the z subproblem under metric ``m2``.

    ``Ax_next`` is ``A x+``, the product of the new x iterate; the state
    supplies ``yc = y / c``. The strategy is :func:`z_strategy`'s answer,
    bound as :func:`x_update` binds its own. The subproblem is strongly
    convex with modulus ``c + m2`` and reduces to a single prox of g:
    ``prox`` under a scalar metric, ``prox_diag`` under a diagonal one.
    """
    return _bind_z_update(problem, m2)(state, Ax_next)


def _bind_z_update(problem, m2):
    """:func:`z_update` under ``m2`` with its scalars computed once, on g's
    kernels; the scalar update with a zero g returns the point its prox would
    copy."""
    g, c = problem.g, problem.c
    if z_strategy(problem, m2) == "scalar":
        zero_g = isinstance(g, functions.Zero)
        mu = m2.mu
        denom = c + mu
        t, prox = g._step(1.0 / denom), g._prox
        def scalar(state, Ax_next):
            point = _blend(c, Ax_next + state.yc, mu * state.z, denom)
            return point if zero_g else prox(point, t)
        return scalar
    d2, prox_diag = m2.entries, g._prox_diag
    d = c + d2
    def diagonal(state, Ax_next):
        return prox_diag(_blend(c, Ax_next + state.yc, d2 * state.z, d), d)
    return diagonal


def _blend(c, u, v, d):
    """``(c * u + v) / d``, with that expression's bits, formed in ``u``, a
    temporary the caller made."""
    np.multiply(c, u, out=u)
    u += v
    u /= d
    return u


def y_update(state, residual, c):
    """Dual ascent ``y + c r`` from the residual ``r = A x+ - z+``; exact."""
    step = c * residual
    return np.add(state.y, step, out=step)


def step(problem, state, sched1, sched2):
    """One full iteration; returns the next state with ``k`` incremented.

    The iteration under the metrics of ``state.k``, bound for this one call
    as :func:`run` binds it (:func:`_bind_step`): one implementation. A loop
    of steps binds every step; :func:`run` binds once per metric object.
    """
    k = state.k
    return _bind_step(problem, _bind_x_update(problem, sched1.metric(k)),
                      _bind_z_update(problem, sched2.metric(k)))(state)


def _bind_step(problem, x_next_of, z_next_of):
    """The iteration on the bound x and z updates ``x_next_of`` and
    ``z_next_of``, a function of the state, with ``c`` and A's kernel read
    once.

    ``A x+``, the residual ``r = A x+ - z+`` and ``y+ / c`` are computed
    once per step: ``A x+`` for the z update, ``r`` for the y update, and
    all three for the next state (:class:`SolverState`). For an identity map
    ``A x+`` is ``x+`` itself, which nothing writes to.
    """
    c, apply = problem.c, None if problem.A.is_identity else problem.A._apply

    def bound_step(state):
        x_next = x_next_of(state)
        Ax_next = x_next if apply is None else apply(x_next)
        z_next = z_next_of(state, Ax_next)
        r = Ax_next - z_next
        y_next = y_update(state, r, c)
        return SolverState(x_next, z_next, y_next, state.k + 1, Ax_next, y_next / c, r)
    return bound_step


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class StoppingRule:
    """Halt after ``max_iters`` or once the KKT residual drops below a tolerance."""

    max_iters: int
    kkt_tol: float | None = None
    kkt_interval: int = 25

    def __post_init__(self):
        for name, kind, low, rule in (
            ("max_iters", numbers.Integral, 0, "an int >= 0"),
            ("kkt_interval", numbers.Integral, 1, "an int >= 1"),
            ("kkt_tol", numbers.Real, 0, "None or a real >= 0"),  # NaN fails >=
        ):
            value = getattr(self, name)
            bad = type(value) is bool or not isinstance(value, kind) or not value >= low
            if bad and not (name == "kkt_tol" and value is None):
                raise ValueError(f"StoppingRule {name} must be {rule}, got {value!r}")


@dataclass
class RunTrace:
    """The default recorder of :func:`run`: every iterate and primal residual.

    Entry 0 of ``xs``, ``zs`` and ``ys`` copies the caller's initial vector;
    later entries are the fresh arrays each step made, uncopied, which
    nothing in the package writes to.
    """

    xs: list = field(default_factory=list)
    zs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)  # ||A x_k - z_k|| for k >= 1

    @property
    def iterations(self):
        return len(self.xs) - 1

    def record(self, state, residual):
        self.xs.append(state.x)
        self.zs.append(state.z)
        self.ys.append(state.y)
        self.residual_norms.append(residual)


def run(problem, init, sched1, sched2, stop, force=False, recorder=None):
    """Iterate :func:`step` from ``init`` under the given schedules.

    Validates the convergence assumptions first and refuses to run when
    none holds, unless ``force`` is set. The x update is bound once per
    object ``sched1.metric(k)`` returns, the z update once per object
    ``sched2.metric(k)`` returns, and the iteration on the two
    (:func:`_bind_step`, the binding :func:`step` makes for one iteration)
    whenever either is rebound. After each step calls
    ``recorder.record(state, ||A x_k - z_k||)``, the norm of the state's
    ``r`` with the bits of ``np.linalg.norm``; the default recorder is a
    :class:`RunTrace` holding a copy of ``init`` and the iterates the
    steps made, uncopied: after a step, the returned state's vectors
    are its last entries. Returns ``(state, recorder)``. Raises
    :class:`NonFiniteIterate` as soon as ``x.x + z.z + y.y`` is not finite
    (a NaN or inf entry, or an overflow), decided by three BLAS ``ddot``
    calls that read no floating-point error state. Deterministic given its
    inputs.
    """
    if not force:
        report = validate_assumptions(problem, sched1, sched2)
        if not report.permits_run:
            raise AssumptionError(report)

    if recorder is None:
        recorder = RunTrace([init.x.copy()], [init.z.copy()], [init.y.copy()])

    state = init
    metric1, metric2, record = sched1.metric, sched2.metric, recorder.record
    tol, interval = stop.kkt_tol, stop.kkt_interval
    m1 = m2 = None
    for _ in range(stop.max_iters):
        n1, n2 = metric1(state.k), metric2(state.k)
        if n1 is not m1 or n2 is not m2:  # a new metric object
            if n1 is not m1:
                m1, x_next_of = n1, _bind_x_update(problem, n1)
            if n2 is not m2:
                m2, z_next_of = n2, _bind_z_update(problem, n2)
            bound_step = _bind_step(problem, x_next_of, z_next_of)
        state = bound_step(state)
        x, z, y, r = state.x, state.z, state.y, state.r
        # on the safe side: an iterate whose squared norm overflows is
        # already past exact certification, as is a NaN or inf entry
        if not math.isfinite(ddot(x, x) + ddot(z, z) + ddot(y, y)):
            raise NonFiniteIterate(state.k)
        record(state, math.sqrt(float(r.dot(r))))
        if tol is not None and state.k % interval == 0:
            if kkt_residual(problem, x, y, state.Ax) <= tol:
                break
    return state, recorder


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------


@dataclass
class AssumptionReport:
    """Which convergence assumptions the schedules satisfy for a problem.

    ``condition_I``: the first metric stays uniformly above (L/2) id.
    ``condition_II``: A*A is uniformly positive definite and so is the second
    metric. ``condition_III`` (smooth term absent): A*A uniformly positive
    definite and the second metric shrinks by at most a factor 2 per step.
    ``ergodic_ok``: the first metric dominates L id and both schedules are
    monotone, the hypotheses of the ergodic gap bound.
    """

    condition_I: bool
    alpha1: float
    condition_II: bool
    alpha: float
    alpha2: float
    condition_III: bool
    ergodic_ok: bool
    monotone_m1: bool
    monotone_m2: bool
    m1_dominates_half_L: bool
    h_is_zero: bool
    notes: list

    @property
    def permits_run(self):
        # Condition II needs the global hypothesis M1 >= (L/2) id when a
        # smooth term is present; condition III already requires h = 0.
        return (
            self.monotone_m1
            and self.monotone_m2
            and (
                self.ergodic_ok
                or self.condition_I
                or (self.m1_dominates_half_L and self.condition_II)
                or self.condition_III
            )
        )

    def summary_lines(self):
        flag = lambda b: "yes" if b else "no"
        lines = [
            f"condition I  (M1 uniformly above (L/2) id): {flag(self.condition_I)}"
            f" (alpha1={self.alpha1:.6g})",
            f"condition II (A*A and M2 uniformly positive definite): "
            f"{flag(self.condition_II)} (alpha={self.alpha:.6g}, alpha2={self.alpha2:.6g})",
            f"condition III (h absent, A*A positive definite, "
            f"2 M2+ >= M2 >= M2+): {flag(self.condition_III)}",
            f"ergodic hypotheses (M1 - L id PSD, monotone schedules): "
            f"{flag(self.ergodic_ok)}",
            f"monotone schedules: M1 {flag(self.monotone_m1)}, "
            f"M2 {flag(self.monotone_m2)}",
        ]
        lines += [f"note: {n}" for n in self.notes]
        return lines


def validate_assumptions(problem, sched1, sched2, horizon=None):
    """Check the convergence assumptions for every k.

    A schedule is any object with ``metric(k)``, the PSD metric of
    iteration k; ``is_monotone()``, whether ``M^k >= M^{k+1}`` for all k;
    ``min_eig_infimum()``, the infimum over all k of the smallest
    eigenvalue; and, for an M2 schedule, ``double_monotone()``, whether
    ``2 M^{k+1} >= M^k`` for all k. Every schedule decides its flags for all
    k, so ``horizon`` is ignored; it is accepted only because the benchmark
    harness still passes one.

    Constant schedules are checked once; decaying and step-sequence schedules
    additionally account for their limiting operator, so the reported flags
    are reproducible from the schedules and the problem alone. First, an
    ``M2^0`` that :func:`z_strategy` rejects raises
    :class:`UnsupportedMetric`, and an M1 that :func:`x_strategy` rejects at
    k = 0 or 1 raises :class:`StrategyError`; each schedule has the form of
    ``M1^1`` at every ``k >= 1`` (``rho^k M0``, or shifted Gram metrics on
    one map and coupling). Other failures are reported with witnesses in
    ``notes``.
    """
    z_strategy(problem, sched2.metric(0))
    for k in (0, 1):
        x_strategy(problem, sched1.metric(k))
    L = problem.h.lipschitz
    notes = []

    mono1 = sched1.is_monotone()
    mono2 = sched2.is_monotone()
    if not mono1:
        notes.append("M1 schedule is not monotone (M1^k >= M1^{k+1} fails)")
    if not mono2:
        notes.append("M2 schedule is not monotone (M2^k >= M2^{k+1} fails)")

    inf_eig1 = sched1.min_eig_infimum()
    alpha1 = inf_eig1 - L / 2.0
    condition_I = alpha1 > 1e-10
    if not condition_I:
        notes.append(
            f"condition I fails: min eigenvalue of M1 - (L/2) id is {alpha1:.3e}"
        )

    alpha = gram_min_eigenvalue(problem.A)
    alpha2 = sched2.min_eig_infimum()
    condition_II = alpha > 1e-10 and alpha2 > 1e-10
    if not condition_II:
        notes.append(
            f"condition II fails: lambda_min(A*A)={alpha:.3e}, "
            f"inf lambda_min(M2)={alpha2:.3e}"
        )

    h_is_zero = isinstance(problem.h, functions.Zero)
    doubling = sched2.double_monotone()
    condition_III = h_is_zero and alpha > 1e-10 and doubling and mono2
    if not condition_III:
        reason = []
        if not h_is_zero:
            reason.append("h is not zero")
        if alpha <= 1e-10:
            reason.append("A*A is singular")
        if not doubling:
            reason.append("2 M2^{k+1} >= M2^k fails")
        if not mono2:
            reason.append("M2 not monotone")
        notes.append("condition III fails: " + ", ".join(reason))

    ergodic_ok = (inf_eig1 >= L - 1e-12) and mono1 and mono2
    if not ergodic_ok:
        notes.append(
            f"ergodic hypotheses fail: inf lambda_min(M1)={inf_eig1:.3e} vs L={L:.3e}, "
            f"monotone=({mono1}, {mono2})"
        )

    return AssumptionReport(
        condition_I=condition_I,
        alpha1=alpha1,
        condition_II=condition_II,
        alpha=alpha,
        alpha2=alpha2,
        condition_III=condition_III,
        ergodic_ok=ergodic_ok,
        monotone_m1=mono1,
        monotone_m2=mono2,
        m1_dominates_half_L=inf_eig1 >= L / 2.0 - 1e-12,
        h_is_zero=h_is_zero,
        notes=notes,
    )
