"""Numerical certificates for solver runs.

Everything the theory promises is evaluated here, on concrete iterates:
Lagrangian values and the ergodic primal-dual gap with its gamma/k bound,
the distance-to-saddle energy ``u_k`` and successive-difference energy
``v_k`` with their one-step contraction inequality, the 1/sqrt(k)
feasibility decay bound, KKT residuals, and the per-iteration inequality
that drives the ergodic bound. All checks use absolute slack tolerances
because the compared quantities approach zero at convergence.

Functions here are pure, over iterates or per-iteration series, each in
the row order of ``log.csv``: entry ``i`` is iteration ``k = i + 1``. The
``u``/``v`` regime (no smooth term, constant metrics) is enforced rather
than silently generalized. The y-independent part of a Lagrangian,
:func:`lagrangian_terms`, is computed once per point and evaluated at many
``y`` by :func:`lagrangian_at`: a certifier pays one ``A x_bar`` per
iteration, however many probes it checks, and every value keeps the bits of
a plain :func:`lagrangian` call. The KKT residual has one code path:
:func:`kkt_residual` is :func:`objective_and_kkt` with the values discarded.

:func:`kkt_residual`, :func:`objective_and_kkt`, :func:`lagrangian_terms`,
:func:`lagrangian_at`, :func:`gamma`, :func:`gap_certificate` and
:func:`uv_step` also take a leading block axis: iterates stacked as the
rows of 2-D arrays give one result per row, each with the bits of the 1-D
call, because every kernel underneath reduces a row as the 1-D code does
(see :mod:`linops`). A 1-D call is a block of one and returns floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions
from .errors import DimensionMismatch, UnsupportedSetting
from .linops import _per_point


# ---------------------------------------------------------------------------
# Lagrangian values
# ---------------------------------------------------------------------------


def lagrangian_terms(problem, x, z, Ax=None, fh=None):
    """The y-independent part of the Lagrangian at ``(x, z)``: ``(value, residual)``.

    ``value`` is ``f(x) + h(x) + g(z)`` and ``residual`` is ``Ax - z``. ``Ax``
    is ``A x`` and ``fh`` is ``f(x) + h(x)`` when the caller already holds
    them. Over a block, both have one entry (row) per point.
    """
    if fh is None:
        fh = problem.f(x) + problem.h(x)
    if Ax is None:
        Ax = problem.A.apply(x)
    return fh + problem.g(z), Ax - z


def lagrangian_at(terms, y):
    """The Lagrangian at ``y`` from :func:`lagrangian_terms` ``(value, residual)``.

    ``value + <y, residual>``, broadcast over leading axes; an infinite
    ``value`` (a point outside a domain) stays infinite.
    """
    value, residual = terms
    return _per_point(value + np.vecdot(y, residual))


def lagrangian(problem, x, z, y):
    """``f(x) + h(x) + g(z) + <y, Ax - z>`` with extended-real propagation."""
    return lagrangian_at(lagrangian_terms(problem, x, z), y)


def gamma(problem, init, m1, m2, probe, Ax=None):
    """Constant of the ergodic gap bound, an initial-iterate quantity.

    ``(c/2)||Ax - z0||^2 + (1/2)(||x - x0||^2_{M1} + ||z - z0||^2_{M2})
    + (1/2c)||y - y0||^2`` at the probe ``(x, z, y)``, with the k=0 metrics.
    ``Ax`` is ``A x`` when the caller already holds it; computed otherwise.
    Probes stacked as the rows of blocks give one constant per probe.
    """
    x, z, y = (np.asarray(v, dtype=float) for v in probe)
    if Ax is None:
        Ax = problem.A.apply(x)
    r = Ax - init.z
    val = 0.5 * problem.c * np.vecdot(r, r)
    val += 0.5 * m1.seminorm_sq(x - init.x)
    val += 0.5 * m2.seminorm_sq(z - init.z)
    dy = y - init.y
    val += np.vecdot(dy, dy) / (2.0 * problem.c)
    return _per_point(val)


# ---------------------------------------------------------------------------
# the ergodic gap certificate
# ---------------------------------------------------------------------------


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
    (probe outside a domain) is reported in the certificate, not thrown; two
    infinite Lagrangians give a NaN gap, as Python floats do, without a
    warning. Arrays broadcast together give one certificate per entry.
    """
    if np.any(np.less(k, 1)):
        raise ValueError("gap certificate needs k >= 1")
    with np.errstate(invalid="ignore"):
        gap = np.subtract(left, right)
    bound = np.divide(gamma0, k)
    return GapCertificate(
        gap=_per_point(gap), bound=_per_point(bound), slack=_per_point(bound - gap)
    )


# ---------------------------------------------------------------------------
# contraction energies u_k / v_k (no smooth term, constant metrics)
# ---------------------------------------------------------------------------


def _require_uv_regime(problem):
    if not isinstance(problem.h, functions.Zero):
        raise UnsupportedSetting(
            "u/v energies are defined only when the smooth term is zero"
        )


def uv_step(problem, saddle, m1, m2, prev, cur):
    """``(u_k, v_k, ||z_k - z_{k-1}||^2)`` of the step from ``prev`` to ``cur``.

    ``prev`` and ``cur`` are ``(x, z, y)`` triples; blocks of iterates give
    one triple per row.
    ``v_k = ||x_k - x_{k-1}||^2_{M1} + ||z_k - z_{k-1}||^2_{M2 + cI}
    + (1/c) ||y_k - y_{k-1}||^2`` and ``u_k`` adds the saddle distances plus
    the trailing ``||z_k - z_{k-1}||^2_{M2}`` term. Defined only for a zero
    smooth term and constant metrics.
    """
    _require_uv_regime(problem)
    x_star, z_star, y_star = (np.asarray(v, dtype=float) for v in saddle)
    (x0, z0, y0), (x, z, y) = prev, cur
    c = problem.c
    # each difference is formed just before its terms and freed after them;
    # every sum adds its terms in the order of the formulas above
    d = z - z0
    dz_m2 = m2.seminorm_sq(d)  # a term of both
    dz_sq = np.vecdot(d, d)
    del d
    v = m1.seminorm_sq(x - x0) + dz_m2 + c * dz_sq
    d = y - y0
    v = v + np.vecdot(d, d) / c
    del d
    u = m1.seminorm_sq(x_star - x)
    d = z_star - z
    u = u + m2.seminorm_sq(d) + c * np.vecdot(d, d)
    del d
    d = y_star - y
    u = u + np.vecdot(d, d) / c + dz_m2
    return _per_point(u), _per_point(v), _per_point(dz_sq)


def uv_energies(problem, trace, saddle, m1, m2):
    """Arrays ``u``, ``v`` of :func:`uv_step` over a stored trace, in row order.

    One block call over the trace's K steps: the reference the certifier's
    blocks are held to.
    """
    xs, zs, ys = (np.array(vs, dtype=float) for vs in (trace.xs, trace.zs, trace.ys))
    return uv_step(problem, saddle, m1, m2, (xs[:-1], zs[:-1], ys[:-1]),
                   (xs[1:], zs[1:], ys[1:]))[:2]


def inequality_v_check(u, v, dz_sq, c):
    """Slacks of the one-step contraction inequality, in row order.

    ``slack_k = (u_k - u_{k+1}) - (v_{k+1} - c ||z_{k+1} - z_k||^2)`` for
    ``k = 1..K-1``, from the :func:`uv_energies` arrays and ``dz_sq``, whose
    entry ``i`` is ``||z_k - z_{k-1}||^2`` at ``k = i + 1``; nonnegative (to
    roundoff) whenever the iteration ran exactly.
    """
    return (u[:-1] - u[1:]) - (v[1:] - c * dz_sq[1:])


def v_monotone_check(v, tol):
    """``(ok, first violating k)`` of ``v_k <= v_{k-1} + tol`` for ``k = 2..K``."""
    rises = np.flatnonzero(v[1:] > v[:-1] + tol)
    if rises.size:
        return False, int(rises[0]) + 2
    return True, None


def dual_identity_deviation(y_prev, y, residuals, c):
    """Largest ``| ||y[i] - y_prev[i]|| / c - residuals[i] |``; NaN if any
    term is NaN.

    ``y_prev`` and ``y`` hold the dual iterates ``y_{k-1}`` and ``y_k`` as
    rows and ``residuals`` the logged ``||A x_k - z_k||``, one entry per step
    each; the two agree exactly on a genuine run, because the dual update is
    ``y + c (Ax - z)``.
    """
    dy = np.subtract(y, y_prev)
    steps = np.sqrt(np.vecdot(dy, dy))
    deviations = np.abs(np.divide(steps, c) - np.asarray(residuals, float))
    return float(np.max(deviations, initial=0.0))


def feasibility_rate(residuals, c, u1, dz_sq):
    """Bounds ``sqrt((u1 + S) / (c (k - 1)))`` on the primal residual, ``k = 2..K``.

    ``residuals`` and ``dz_sq`` are in row order: entry ``i`` is
    ``||A x_k - z_k||`` and ``||z_k - z_{k-1}||^2`` at ``k = i + 1``. The
    bounds are aligned with ``residuals[1:]``. Summing the contraction
    inequality gives ``sum_k v_k <= u1 + S`` with the step energy
    ``S = c sum_k ||z_k - z_{k-1}||^2``, summed in iteration order (a
    cumulative sum; ``np.sum`` sums pairwise). Each ``v_k`` is at least
    ``c ||A x_k - z_k||^2`` and v does not increase, hence the bound. Only
    that sum of ``dz_sq`` is read: a one-entry array holding it gives the
    same bounds.
    """
    S = c * np.cumsum(dz_sq)[-1] if len(dz_sq) else 0.0
    return np.sqrt((u1 + S) / (c * np.arange(1, len(residuals))))


def loglog_slope(ks, values):
    """Least-squares slope of log(value) against log(k).

    ``ks`` and ``values`` have one entry per point. Values at or below
    1e-300 are dropped (they only occur once the residual has converged past
    double precision); with fewer than two usable points the slope is -inf.
    The logs are ``math.log``'s, written straight into two arrays.
    """
    values = np.asarray(values, dtype=float)
    keep = values > 1e-300
    count = int(np.count_nonzero(keep))
    if count < 2:
        return -math.inf
    lk = np.fromiter(map(math.log, np.asarray(ks)[keep]), float, count)
    lv = np.fromiter(map(math.log, values[keep]), float, count)
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
    Blocks of iterates give one residual per row. It is
    :func:`objective_and_kkt` with the values discarded.
    """
    if Ax is None:
        Ax = problem.A.apply(x)
    return objective_and_kkt(problem, x, y, Ax)[2]


def objective_and_kkt(problem, x, y, Ax):
    """``(f(x) + h(x), g(Ax), kkt_residual(problem, x, y, Ax))``, each with
    the bits of its own call. Each term's value comes with its gradient or
    distance, from one ``value_and_grad`` or ``value_and_distance`` call;
    each temporary is freed before the next is made."""
    target_f = problem.A.adjoint(y)  # a fresh array, negated in place
    np.negative(target_f, out=target_f)
    h_value, grad = problem.h.value_and_grad(x)
    target_f -= grad
    del grad
    f_value, dist_f = problem.f.value_and_distance(x, target_f)
    del target_f
    g_value, dist_g = problem.g.value_and_distance(Ax, y)
    # Python's max(dist_f, dist_g), NaN and signed zeros included
    return (f_value + h_value, g_value,
            _per_point(np.where(dist_g > dist_f, dist_g, dist_f)))


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


def ball_probes(center, count, seed):
    """Deterministic probes in the unit ball around a ``(x, z, y)`` triple,
    drawn one at a time: each ``(x, z, y)`` is made when it is asked for."""
    rng = np.random.default_rng(seed)
    cx, cz, cy = (np.asarray(v, dtype=float) for v in center)
    total = cx.size + cz.size + cy.size
    for _ in range(count):
        direction = rng.standard_normal(total)
        direction *= rng.uniform() ** (1.0 / total) / np.linalg.norm(direction)
        yield (
            cx + direction[: cx.size],
            cz + direction[cx.size : cx.size + cz.size],
            cy + direction[cx.size + cz.size :],
        )
