"""Numerical certificates for solver runs.

Everything the theory promises is evaluated here, on concrete iterates:
Lagrangian values and the ergodic primal-dual gap with its gamma/k bound,
the distance-to-saddle energy ``u_k`` and successive-difference energy
``v_k`` with their one-step contraction inequality, the 1/sqrt(k)
feasibility decay bound, KKT residuals, and the per-iteration inequality
that drives the ergodic bound. All checks use absolute slack tolerances
because the compared quantities approach zero at convergence.

Functions here are pure, over iterates or per-iteration scalars; the
``u``/``v`` regime (no smooth term, constant metrics) is enforced rather than
silently generalized. The y-independent part of a Lagrangian,
:func:`lagrangian_terms`, is computed once per point and evaluated at many
``y`` by :func:`lagrangian_at`: a certifier pays one ``A x_bar`` per
iteration, however many probes it checks, and every value keeps the bits of
a plain :func:`lagrangian` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import DimensionMismatch, UnsupportedSetting


# ---------------------------------------------------------------------------
# Lagrangian values
# ---------------------------------------------------------------------------


def lagrangian_terms(problem, x, z, Ax=None, fh=None):
    """The y-independent part of the Lagrangian at ``(x, z)``: ``(value, residual)``.

    ``value`` is ``f(x) + h(x) + g(z)`` and ``residual`` is ``Ax - z``, or
    None when ``value`` is infinite (then ``A`` is not applied). ``Ax`` is
    ``A x`` and ``fh`` is ``f(x) + h(x)`` when the caller already holds them.
    """
    if fh is None:
        fh = problem.f(x) + problem.h(x)
    value = fh + problem.g(z)
    if math.isinf(value):
        return value, None
    if Ax is None:
        Ax = problem.A.apply(x)
    return value, Ax - z


def lagrangian_at(terms, y):
    """The Lagrangian at ``y`` from :func:`lagrangian_terms` ``(value, residual)``."""
    value, residual = terms
    if math.isinf(value):
        return value
    return value + float(y @ residual)


def lagrangian(problem, x, z, y):
    """``f(x) + h(x) + g(z) + <y, Ax - z>`` with extended-real propagation."""
    return lagrangian_at(lagrangian_terms(problem, x, z), y)


def gamma(problem, init, m1, m2, probe, Ax=None):
    """Constant of the ergodic gap bound, an initial-iterate quantity.

    ``(c/2)||Ax - z0||^2 + (1/2)(||x - x0||^2_{M1} + ||z - z0||^2_{M2})
    + (1/2c)||y - y0||^2`` at the probe ``(x, z, y)``, with the k=0 metrics.
    ``Ax`` is ``A x`` when the caller already holds it; computed otherwise.
    """
    x, z, y = probe
    if Ax is None:
        Ax = problem.A.apply(np.asarray(x, dtype=float))
    r = Ax - init.z
    val = 0.5 * problem.c * float(r @ r)
    val += 0.5 * m1.seminorm_sq(np.asarray(x, dtype=float) - init.x)
    val += 0.5 * m2.seminorm_sq(np.asarray(z, dtype=float) - init.z)
    dy = np.asarray(y, dtype=float) - init.y
    val += float(dy @ dy) / (2.0 * problem.c)
    return val


# ---------------------------------------------------------------------------
# ergodic averages and the gap certificate
# ---------------------------------------------------------------------------


class ErgodicAverager:
    """Running means of (x, z, y) over iterates 1..k, compensated summation.

    One Kahan sum and one compensation vector hold ``(x, z, y)`` end to end;
    the means are slices of it. Kahan compensation keeps the accumulated mean
    within ~1e-13 * k of the exact average, as required by the gap
    certificate, and works entry by entry, so each mean is the one a sum of
    that vector alone would give.
    """

    def __init__(self, n, m):
        self.k = 0
        self._n, self._nm = n, n + m
        self._shapes = ((n,), (m,), (m,))
        self._sum = np.zeros(n + 2 * m)
        self._comp = np.zeros(n + 2 * m)

    def update(self, x, z, y):
        shapes = (np.shape(x), np.shape(z), np.shape(y))
        if shapes != self._shapes:
            raise DimensionMismatch("ErgodicAverager.update (x, z, y)",
                                    self._shapes, shapes)
        term = np.concatenate((x, z, y), dtype=float)
        term -= self._comp
        total = self._sum + term
        np.subtract(total, self._sum, out=self._comp)
        self._comp -= term
        self._sum = total
        self.k += 1

    @property
    def x_bar(self):
        return self._sum[: self._n] / self.k

    @property
    def z_bar(self):
        return self._sum[self._n : self._nm] / self.k

    @property
    def y_bar(self):
        return self._sum[self._nm :] / self.k


@dataclass
class GapCertificate:
    """The ergodic primal-dual gap against its gamma/k bound."""

    gap: float
    bound: float
    slack: float


def gap_certificate(left, right, gamma0, k):
    """Gap ``left - right`` versus ``gamma0 / k`` after ``k`` averaged iterates.

    ``left`` is ``l(x_bar, z_bar, y)`` and ``right`` is ``l(x, z, y_bar)``
    at the probe ``(x, z, y)``, whose gamma is ``gamma0``. An infinite gap
    (probe outside a domain) is reported in the certificate, not thrown.
    """
    if k < 1:
        raise ValueError("gap certificate needs k >= 1")
    gap = left - right
    bound = gamma0 / k
    return GapCertificate(gap=gap, bound=bound, slack=bound - gap)


# ---------------------------------------------------------------------------
# contraction energies u_k / v_k (no smooth term, constant metrics)
# ---------------------------------------------------------------------------


def _require_uv_regime(problem):
    if not isinstance(problem.h, functions.Zero):
        raise UnsupportedSetting(
            "u/v energies are defined only when the smooth term is zero"
        )


def uv_step(problem, saddle, m1, m2, prev, cur):
    """``(u_k, v_k)`` of the step from iterate ``prev`` to iterate ``cur``.

    ``v_k = ||x_k - x_{k-1}||^2_{M1} + ||z_k - z_{k-1}||^2_{M2 + cI}
    + (1/c) ||y_k - y_{k-1}||^2`` and ``u_k`` adds the saddle distances plus
    the trailing ``||z_k - z_{k-1}||^2_{M2}`` term. Defined only for a zero
    smooth term and constant metrics.
    """
    _require_uv_regime(problem)
    x_star, z_star, y_star = (np.asarray(v, dtype=float) for v in saddle)
    c = problem.c
    dxs, dzs, dys = x_star - cur.x, z_star - cur.z, y_star - cur.y
    dx, dz_prev, dy = cur.x - prev.x, cur.z - prev.z, cur.y - prev.y
    u = (
        m1.seminorm_sq(dxs)
        + m2.seminorm_sq(dzs)
        + c * float(dzs @ dzs)
        + float(dys @ dys) / c
        + m2.seminorm_sq(dz_prev)
    )
    v = (
        m1.seminorm_sq(dx)
        + m2.seminorm_sq(dz_prev)
        + c * float(dz_prev @ dz_prev)
        + float(dy @ dy) / c
    )
    return u, v


def uv_energies(problem, trace, saddle, m1, m2):
    """Arrays ``u``, ``v`` of :func:`uv_step` over a stored trace; index 0 is NaN."""
    u, v = np.full((2, trace.iterations + 1), np.nan)
    for k in range(1, trace.iterations + 1):
        u[k], v[k] = uv_step(
            problem, saddle, m1, m2, trace.state_at(k - 1), trace.state_at(k)
        )
    return u, v


def inequality_v_check(u, v, dz_sq, c):
    """Slack of the one-step contraction inequality, per k.

    ``slack_k = (u_k - u_{k+1}) - (v_{k+1} - c ||z_{k+1} - z_k||^2)`` for
    ``k = 1..K-2``, from the :func:`uv_energies` arrays and ``dz_sq[k] =
    ||z_k - z_{k-1}||^2`` indexed like them; nonnegative (to roundoff)
    whenever the iteration ran exactly. Returns ``(k, slack)`` pairs.
    """
    return [
        (k, float((u[k] - u[k + 1]) - (v[k + 1] - c * dz_sq[k + 1])))
        for k in range(1, len(u) - 2)
    ]


def v_monotone_check(v, tol):
    """Whether ``v_k <= v_{k-1} + tol`` for ``k = 2..K``; ``(ok, first violating k)``."""
    for k in range(2, len(v)):
        if v[k] > v[k - 1] + tol:
            return False, k
    return True, None


def dual_identity_deviation(dual_steps, residuals, c):
    """Largest ``| dual_steps[i] / c - residuals[i] |``; NaN if any term is NaN.

    ``dual_steps`` holds the norms ``||y_k - y_{k-1}||`` and ``residuals``
    the logged ``||A x_k - z_k||``, one entry per step each; the two agree
    exactly on a genuine run, because the dual update is ``y + c (Ax - z)``.
    """
    deviations = np.abs(np.divide(dual_steps, c) - np.asarray(residuals, float))
    return float(np.max(deviations, initial=0.0))


def feasibility_rate(residuals, c, u1, S):
    """Primal residual against its ``sqrt(c (u1 + S) / (k - 1))`` bound.

    ``residuals[k - 1]`` is ``||A x_k - z_k||``. Returns triples
    ``(k, ||A x_k - z_k||, bound_k)`` for ``k >= 2``. The bound follows from
    summing the contraction inequality and the monotonicity of the step
    energy ``S = c sum_k ||z_k - z_{k-1}||^2``.
    """
    return [
        (k, residuals[k - 1], math.sqrt(c * (u1 + S) / (k - 1)))
        for k in range(2, len(residuals) + 1)
    ]


def loglog_slope(ks, values):
    """Least-squares slope of log(value) against log(k).

    Values at or below 1e-300 are dropped (they only occur once the residual
    has converged past double precision); with fewer than two usable points
    the slope is -inf.
    """
    pts = [(math.log(k), math.log(v)) for k, v in zip(ks, values) if v > 1e-300]
    if len(pts) < 2:
        return -math.inf
    lk = np.array([p[0] for p in pts])
    lv = np.array([p[1] for p in pts])
    return float(np.polyfit(lk, lv, 1)[0])


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------


def kkt_residual(problem, x, y, Ax=None):
    """Distance to satisfying the primal-dual optimality inclusions.

    The maximum of the distance from ``-A*y - grad h(x)`` to the
    subdifferential of f at x, and the distance from ``y`` to the
    subdifferential of g at Ax, both in closed form per catalog kind.
    ``Ax`` is ``A x`` when the caller already holds it; computed otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if Ax is None:
        Ax = problem.A.apply(x)
    target_f = -problem.A.adjoint(y) - problem.h.grad(x)
    dist_f = problem.f.distance_to_subdifferential(x, target_f)
    dist_g = problem.g.distance_to_subdifferential(Ax, y)
    return max(dist_f, dist_g)


# ---------------------------------------------------------------------------
# per-iteration inequality behind the ergodic bound
# ---------------------------------------------------------------------------


def iteration_inequality_check(problem, state_k, state_next, m1, m2, probe):
    """Slacks of the two per-iteration inequalities at a probe point.

    The first compares the Lagrangian of the new iterate against the probe
    Lagrangian plus telescoping metric terms (minus the step-energy terms,
    with the smooth correction ``L ||x+ - x_k||^2``); the second bounds the
    cross term ``c <z+ - z_k, A(x - x+)>``. Returns ``(slack1, slack2)``,
    both nonnegative (to roundoff) on genuine iterates; infinite probe values
    make slack1 infinite (a reported skip, not an error). ``L`` is the
    smooth term's gradient Lipschitz constant.
    """
    L = problem.h.lipschitz
    c = problem.c
    x, z, y = (np.asarray(v, dtype=float) for v in probe)
    xk, zk, yk = state_k.x, state_k.z, state_k.y
    xn, zn, yn = state_next.x, state_next.z, state_next.y

    dx_step = xn - xk
    dz_step = zn - zk
    dy_step = yn - yk
    cross = c * float(dz_step @ problem.A.apply(x - xn))

    lhs = lagrangian(problem, xn, zn, y)
    rhs = lagrangian(problem, x, z, yn) + cross
    rhs += 0.5 * (
        m1.seminorm_sq(x - xk)
        + m2.seminorm_sq(z - zk)
        + float((y - yk) @ (y - yk)) / c
    )
    rhs -= 0.5 * (
        m1.seminorm_sq(x - xn)
        + m2.seminorm_sq(z - zn)
        + float((y - yn) @ (y - yn)) / c
    )
    rhs -= 0.5 * (
        m1.seminorm_sq(dx_step)
        - L * float(dx_step @ dx_step)
        + m2.seminorm_sq(dz_step)
        + float(dy_step @ dy_step) / c
    )
    slack1 = rhs - lhs

    ax_zk = problem.A.apply(x) - zk
    ax_zn = problem.A.apply(x) - zn
    slack2 = (
        0.5 * c * (float(ax_zk @ ax_zk) - float(ax_zn @ ax_zn))
        + float(dy_step @ dy_step) / (2.0 * c)
        - cross
    )
    return slack1, slack2


# ---------------------------------------------------------------------------
# dual objective
# ---------------------------------------------------------------------------


def dual_objective(problem, y):
    """Value of the Fenchel dual at ``y`` when it reduces to closed forms.

    Requires either the smooth term or f to vanish, so the infimal
    convolution of their conjugates collapses to a single conjugate.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise DimensionMismatch("dual_objective y", problem.m, y.shape)
    w = -problem.A.adjoint(y)
    if isinstance(problem.h, functions.Zero):
        first = problem.f.conjugate(w)
    elif isinstance(problem.f, functions.Zero):
        first = problem.h.conjugate(w)
    else:
        raise UnsupportedSetting(
            "dual objective needs f or the smooth term to be zero"
        )
    return -first - problem.g.conjugate(y)


# ---------------------------------------------------------------------------
# probe sampling
# ---------------------------------------------------------------------------


def sample_ball_probes(center, radius, count, seed):
    """Deterministic probes in a ball around a (x, z, y) triple."""
    rng = np.random.default_rng(seed)
    cx, cz, cy = (np.asarray(v, dtype=float) for v in center)
    total = cx.size + cz.size + cy.size
    probes = []
    for _ in range(count):
        direction = rng.standard_normal(total)
        direction *= radius * rng.uniform() ** (1.0 / total) / np.linalg.norm(direction)
        probes.append(
            (
                cx + direction[: cx.size],
                cz + direction[cx.size : cx.size + cz.size],
                cy + direction[cx.size + cz.size :],
            )
        )
    return probes
