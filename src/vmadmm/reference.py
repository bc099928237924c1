"""Independent reference iterations used as equivalence oracles.

Two classical methods are implemented here from scratch, sharing only the
vector/operator and function-catalog modules with the solver: the plain
alternating-direction method (no smooth term, no metrics) and the
primal-dual iteration of Condat (JOTA 2013), which alternately applies the
resolvent of the conjugate of g and a prox of f at a gradient-corrected
point. Both step plain vectors. The solver reproduces both under specific
metric choices, and :func:`trajectory_deviations` measures how far two
trajectories are apart.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import functions
from .errors import CapabilityError, SingularSubproblem
from .linops import operator_norm


def check_step_sizes(h, A, tau, c):
    """Raise ``ValueError`` unless ``tau > 0``, ``c > 0`` and
    ``1/tau - c ||A||^2 > L/2``, which makes the primal-dual iteration
    provably convergent. A NaN fails each test."""
    if not (tau > 0 and c > 0):
        raise ValueError("tau and c must be positive")
    norm_a = operator_norm(A)
    L = h.lipschitz if h.lipschitz is not None else 0.0
    if not 1.0 / tau - c * norm_a**2 > L / 2.0:
        raise ValueError(
            f"step sizes violate 1/tau - c ||A||^2 > L/2 "
            f"({1.0 / tau:.6g} - {c * norm_a ** 2:.6g} <= {L / 2.0:.6g})"
        )


def condat_step(f, h, g, A, x, y, tau, c):
    """One primal-dual iteration; returns ``(x+, y+)``.

    ``y+`` is the resolvent of ``c * conjugate(g)`` at ``y + c A x`` (via the
    Moreau decomposition, so no explicit conjugate is needed), then
    ``x+ = prox_{tau f}(x - tau grad h(x) - tau A*(2 y+ - y))``.
    """
    y_next = g.prox_conjugate(y + c * A.apply(x), c)
    x_next = f.prox(x - tau * h.grad(x) - tau * A.adjoint(2.0 * y_next - y), tau)
    return x_next, y_next


def condat_start_from_admm(f, h, g, A, x0, z0, y0, tau, c):
    """Starting ``(x1, y0)`` whose x equals the first ADMM-style x-iterate.

    With the metric ``(1/tau) id - c A*A`` the first x update collapses to a
    prox of f at a gradient-corrected point; computing it here keeps the
    reference trajectory aligned with a solver run started at (x0, z0, y0)
    without touching solver code. The step sizes pass
    :func:`check_step_sizes` first.
    """
    check_step_sizes(h, A, tau, c)
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    step = h.grad(x0) + c * A.adjoint(A.apply(x0) - z0 + y0 / c)
    return f.prox(x0 - tau * step, tau), y0


def classical_admm_step(f, g, A, c, x, z, y):
    """One iteration of the plain alternating-direction method.

    x solves ``min f(x) + (c/2)||Ax - z + y/c||^2`` (supported when A is the
    identity and f is proxable, or when f is zero/quadratic), then z is a
    prox of g, then the dual ascent. Returns the new ``(x, z, y)``.
    """
    if A.is_identity and f.proxable:
        x_next = f.prox(z - y / c, 1.0 / c)
    elif isinstance(f, (functions.Zero, functions.Quadratic)):
        system = c * A.gram_dense()
        rhs = c * A.adjoint(z - y / c)
        if isinstance(f, functions.Quadratic):
            system = system + f.Q
            rhs = rhs - f.q
        try:
            factor = scipy.linalg.cho_factor(system)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSubproblem(
                "x subproblem is not strongly convex: " + str(exc)
            ) from exc
        x_next = scipy.linalg.cho_solve(factor, rhs)
    else:
        raise CapabilityError(
            "classical x update needs A = identity with proxable f, "
            "or zero/quadratic f"
        )
    z_next = g.prox(A.apply(x_next) + y / c, 1.0 / c)
    y_next = y + c * (A.apply(x_next) - z_next)
    return x_next, z_next, y_next


def trajectory_deviations(trace_a, trace_b):
    """The largest ``|a - b|`` at each step of two index-aligned
    trajectories, as one array.

    Each trace is a sequence of steps, each a tuple of arrays; the
    deviation at a step is the maximum over all of its components, and a
    NaN in any component makes it NaN. Raises ``ValueError`` on a length
    mismatch.
    """
    if len(trace_a) != len(trace_b):
        raise ValueError(
            f"trajectory length mismatch: {len(trace_a)} vs {len(trace_b)}"
        )
    return np.array([
        np.max([np.max(np.abs(np.subtract(va, vb))) for va, vb in zip(ta, tb)])
        for ta, tb in zip(trace_a, trace_b)
    ], dtype=float)
