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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
        if self.h.lipschitz is None or self.h.lipschitz < 0:
            raise ValueError("h must carry a finite Lipschitz constant >= 0")
        if not (self.c > 0):
            raise ValueError("penalty c must be positive")

    @property
    def n(self):
        return self.A.cols

    @property
    def m(self):
        return self.A.rows


@dataclass
class SolverState:
    """Iterate triple (x, z, y), the iteration counter, and ``Ax = A x``.

    :func:`initial_state` and :func:`step` set ``Ax``, so each iterate's
    product is computed once and shared by the next x update, the residual
    and the recorder. A state built by hand may leave it None; it is then
    computed where needed.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    k: int = 0
    Ax: np.ndarray | None = None


def initial_state(problem, x0=None, z0=None, y0=None):
    """All-zeros state unless explicit starting vectors are given."""
    x = np.zeros(problem.n) if x0 is None else np.array(x0, dtype=float)
    z = np.zeros(problem.m) if z0 is None else np.array(z0, dtype=float)
    y = np.zeros(problem.m) if y0 is None else np.array(y0, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionMismatch("initial x", problem.n, x.shape)
    if z.shape != (problem.m,):
        raise DimensionMismatch("initial z", problem.m, z.shape)
    if y.shape != (problem.m,):
        raise DimensionMismatch("initial y", problem.m, y.shape)
    return SolverState(x=x, z=z, y=y, k=0, Ax=problem.A.apply(x))


# ---------------------------------------------------------------------------
# metric schedules
# ---------------------------------------------------------------------------


class ConstantSchedule:
    def __init__(self, metric):
        self._metric = metric

    def metric(self, k):
        return self._metric

    def is_monotone(self):
        return True

    def min_eig_infimum(self):
        return min_eigenvalue(self._metric)

    def double_monotone(self):
        return True  # 2M >= M for PSD M


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
        lam0 = min_eigenvalue(self._metric0)
        if self.rho == 1.0:
            return lam0
        return 0.0  # the schedule decays to the zero operator

    def double_monotone(self):
        if self._metric0.kind == "zero":
            return True
        return self.rho >= 0.5  # 2 rho^{k+1} >= rho^k


class ShiftedGramSchedule:
    """``M^k = (1/tau_k) id - c A*A`` for a step sequence ``tau_k``.

    ``taus`` is a single positive float (constant steps) or a list, held at
    its last value beyond the end. Monotonicity requires nondecreasing steps.
    """

    def __init__(self, taus, coupling, A):
        if np.ndim(taus) == 0:
            taus = [float(taus)]
        self.taus = [float(t) for t in taus]
        if not self.taus or any(t <= 0 for t in self.taus):
            raise ValueError("taus must be positive")
        self.coupling = float(coupling)
        self.A = A
        self._cache = {
            t: MetricOperator.shifted_gram(t, self.coupling, A) for t in set(self.taus)
        }

    def _tau(self, k):
        return self.taus[min(k, len(self.taus) - 1)]

    def metric(self, k):
        return self._cache[self._tau(k)]

    def is_monotone(self):
        # the whole list: beyond its end the step is held, so this is every k
        return all(a <= b * (1 + 1e-12) for a, b in zip(self.taus, self.taus[1:]))

    def min_eig_infimum(self):
        return min(min_eigenvalue(m) for m in self._cache.values())


# ---------------------------------------------------------------------------
# iteration updates
# ---------------------------------------------------------------------------


def _linearized_applicable(problem, m1):
    return (
        m1.kind == "shifted_gram"
        and m1.map is problem.A
        and m1.coupling == problem.c
        and problem.f.proxable
    )


def x_update(problem, state, m1):
    """Exact minimizer of the x subproblem under metric ``m1``.

    Strategy, chosen automatically:

    * LINEARIZED -- ``m1`` is the shifted Gram metric ``(1/tau) id - c A*A``
      built on the problem's own A and c: the quadratic coupling cancels and
      the update is a single prox of f at a gradient-style point. Exact
      because ``c A*A + m1 = (1/tau) id``.
    * QUADRATIC -- f is zero or quadratic: one SPD linear solve. The
      Cholesky factor of ``c A*A + m1 (+ Q)`` is cached on ``m1`` for this
      problem and recomputed when the metric object (or the problem)
      changes, so a constant schedule factors once per run.
    * PROX-DIRECT -- A is the identity and ``m1`` is a scaled identity:
      a single prox of f under the scalar metric ``c + mu``.
    """
    f, h, A, c = problem.f, problem.h, problem.A, problem.c
    x, z, y = state.x, state.z, state.y

    if _linearized_applicable(problem, m1):
        tau = m1.tau
        Ax = A.apply(x) if state.Ax is None else state.Ax
        step = h.grad(x) + c * A.adjoint(Ax - z + y / c)
        return f.prox(x - tau * step, tau)

    if isinstance(f, (functions.Zero, functions.Quadratic)):
        # The system depends on the problem and m1 alone. Keyed on the
        # problem object itself (held, so a reused id() cannot match).
        cached = m1._x_factor
        if cached is None or cached[0] is not problem:
            system = c * A.gram_dense()
            d1 = m1.diagonal_entries()
            if d1 is None:
                system += m1.to_dense()
            else:
                system[np.diag_indices(problem.n)] += d1
            if isinstance(f, functions.Quadratic):
                system += f.Q
            try:
                cached = (problem, scipy.linalg.cho_factor(system))
            except scipy.linalg.LinAlgError as exc:
                raise SingularSubproblem(
                    "x subproblem is not strongly convex: " + str(exc)
                ) from exc
            m1._x_factor = cached
        rhs = -h.grad(x) + c * A.adjoint(z - y / c) + m1.apply(x)
        if isinstance(f, functions.Quadratic):
            rhs = rhs - f.q
        return scipy.linalg.cho_solve(cached[1], rhs, check_finite=False)

    if A.is_identity and m1.is_scalar and f.proxable:
        mu = m1.scalar_value
        denom = c + mu
        w = (c * (z - y / c) + mu * x - h.grad(x)) / denom
        return f.prox(w, 1.0 / denom)

    raise StrategyError(
        "no exact x-update strategy applies: f is neither zero nor quadratic, "
        "and the metric does not linearize the coupling. Choose a shifted "
        "Gram metric (1/tau) id - c A*A for M1."
    )


def z_update(problem, state, Ax_next, m2):
    """Exact minimizer of the z subproblem under metric ``m2``.

    ``Ax_next`` is ``A x+``, the product of the new x iterate. Supports
    zero, scaled-identity, and diagonal metrics. The subproblem is strongly
    convex with modulus ``c + m2`` and reduces to a single prox of g
    (diagonal metrics additionally require g to implement ``prox_diag``).
    """
    g, c = problem.g, problem.c
    w = Ax_next + state.y / c
    if m2.is_scalar:
        mu = m2.scalar_value
        denom = c + mu
        v = (c * w + mu * state.z) / denom
        return g.prox(v, 1.0 / denom)
    d2 = m2.diagonal_entries()
    if d2 is None:
        raise UnsupportedMetric(
            f"z update supports zero, scaled-identity, or diagonal metrics, "
            f"got {m2.kind!r}"
        )
    d = c + d2
    v = (c * w + d2 * state.z) / d
    return g.prox_diag(v, d)


def y_update(state, Ax_next, z_next, c):
    """Dual ascent ``y + c (A x+ - z+)`` from ``Ax_next = A x+``; exact."""
    return state.y + c * (Ax_next - z_next)


def step(problem, state, sched1, sched2):
    """One full iteration; returns the next state with ``k`` incremented.

    ``A x+`` is computed once, here, for the z and y updates and the next
    state's ``Ax``.
    """
    m1 = sched1.metric(state.k)
    m2 = sched2.metric(state.k)
    x_next = x_update(problem, state, m1)
    Ax_next = problem.A.apply(x_next)
    z_next = z_update(problem, state, Ax_next, m2)
    y_next = y_update(state, Ax_next, z_next, problem.c)
    return SolverState(x=x_next, z=z_next, y=y_next, k=state.k + 1, Ax=Ax_next)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class StoppingRule:
    """Halt after ``max_iters`` or once the KKT residual drops below a tolerance."""

    max_iters: int
    kkt_tol: float | None = None
    kkt_interval: int = 25


@dataclass
class RunTrace:
    """The default recorder of :func:`run`: every iterate and primal residual."""

    xs: list = field(default_factory=list)
    zs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)  # ||A x_k - z_k|| for k >= 1

    @property
    def iterations(self):
        return len(self.xs) - 1

    def state_at(self, k):
        return SolverState(x=self.xs[k], z=self.zs[k], y=self.ys[k], k=k)

    def record(self, state, residual):
        self.xs.append(state.x.copy())
        self.zs.append(state.z.copy())
        self.ys.append(state.y.copy())
        self.residual_norms.append(residual)


def run(problem, init, sched1, sched2, stop, force=False, recorder=None):
    """Iterate :func:`step` from ``init`` under the given schedules.

    Validates the convergence assumptions first and refuses to run when
    none holds, unless ``force`` is set. After each step calls
    ``recorder.record(state, ||A x_k - z_k||)``; the default recorder is a
    :class:`RunTrace` holding copies of ``init`` and of every iterate.
    Returns ``(state, recorder)``. Raises :class:`NonFiniteIterate` as soon
    as any component stops being finite. Deterministic given its inputs.
    """
    if not force:
        report = validate_assumptions(problem, sched1, sched2)
        if not report.permits_run:
            raise AssumptionError(report)

    if recorder is None:
        recorder = RunTrace([init.x.copy()], [init.z.copy()], [init.y.copy()])

    state = init
    for _ in range(stop.max_iters):
        state = step(problem, state, sched1, sched2)
        if not (
            np.all(np.isfinite(state.x))
            and np.all(np.isfinite(state.z))
            and np.all(np.isfinite(state.y))
        ):
            raise NonFiniteIterate(state.k)
        recorder.record(state, float(np.linalg.norm(state.Ax - state.z)))
        if stop.kkt_tol is not None and state.k % stop.kkt_interval == 0:
            if kkt_residual(problem, state.x, state.y, state.Ax) <= stop.kkt_tol:
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
        # smooth term is present; condition III is stated for h = 0 only.
        return (
            self.monotone_m1
            and self.monotone_m2
            and (
                self.ergodic_ok
                or self.condition_I
                or (self.m1_dominates_half_L and self.condition_II)
                or (self.h_is_zero and self.condition_III)
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
    are reproducible from the schedules and the problem alone. An M2 that
    :func:`z_update` cannot apply (neither zero, scaled identity nor
    diagonal) raises :class:`UnsupportedMetric` before anything is checked;
    every other failure is reported with witnesses in ``notes``.
    """
    first_m2 = sched2.metric(0)
    if first_m2.diagonal_entries() is None:
        raise UnsupportedMetric(
            f"the z update supports zero, scaled-identity, or diagonal M2, "
            f"got {first_m2.kind!r}"
        )
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
