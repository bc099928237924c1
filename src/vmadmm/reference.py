"""Independent reference iterations used as equivalence oracles.

Two classical methods are implemented here from scratch, sharing only the
vector/operator and function-catalog modules with the solver: the plain
alternating-direction method (no smooth term, no metrics) and a primal-dual
iteration that alternately applies the resolvent of the conjugate of g and a
prox of f at a gradient-corrected point. The solver reproduces both under
specific metric choices, and the tests assert that trajectory match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import functions
from .errors import CapabilityError, SingularSubproblem
from .linops import operator_norm


@dataclass
class PrimalDualState:
    """State of the primal-dual iteration: current x and dual y."""

    x: np.ndarray
    y: np.ndarray
    k: int
    tau: float
    c: float


def condat_state(f, h, g, A, x, y, tau, c):
    """Validated starting state for the primal-dual iteration.

    Enforces the step-size condition ``1/tau - c ||A||^2 > L/2`` at
    construction, which makes the iteration provably convergent.
    """
    tau = float(tau)
    c = float(c)
    if tau <= 0 or c <= 0:
        raise ValueError("tau and c must be positive")
    norm_a = operator_norm(A)
    L = h.lipschitz if h.lipschitz is not None else 0.0
    if 1.0 / tau - c * norm_a**2 <= L / 2.0:
        raise ValueError(
            f"step sizes violate 1/tau - c ||A||^2 > L/2 "
            f"({1.0 / tau:.6g} - {c * norm_a ** 2:.6g} <= {L / 2.0:.6g})"
        )
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    return PrimalDualState(x=x, y=y, k=0, tau=tau, c=c)


def condat_step(f, h, g, A, state):
    """One primal-dual iteration.

    ``y+`` is the resolvent of ``c * conjugate(g)`` at ``y + c A x`` (via the
    Moreau decomposition, so no explicit conjugate is needed), then
    ``x+ = prox_{tau f}(x - tau grad h(x) - tau A*(2 y+ - y))``.
    """
    y_next = g.prox_conjugate(state.y + state.c * A.apply(state.x), state.c)
    x_next = f.prox(
        state.x
        - state.tau * h.grad(state.x)
        - state.tau * A.adjoint(2.0 * y_next - state.y),
        state.tau,
    )
    return PrimalDualState(
        x=x_next,
        y=y_next,
        k=state.k + 1,
        tau=state.tau,
        c=state.c,
    )


def condat_start_from_admm(f, h, g, A, x0, z0, y0, tau, c):
    """Starting state whose x equals the first ADMM-style x-iterate.

    With the metric ``(1/tau) id - c A*A`` the first x update collapses to a
    prox of f at a gradient-corrected point; computing it here keeps the
    reference trajectory aligned with a solver run started at (x0, z0, y0)
    without touching solver code.
    """
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    step = h.grad(x0) + c * A.adjoint(A.apply(x0) - z0 + y0 / c)
    x1 = f.prox(x0 - tau * step, tau)
    return condat_state(f, h, g, A, x1, y0, tau, c)


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


@dataclass
class EquivalenceReport:
    """Per-iteration maximum component deviation between two trajectories."""

    deviations: list
    tol: float
    passed: bool
    first_failure: int | None
    max_deviation: float


def equivalence_check(trace_a, trace_b, tol):
    """Compare two trajectories element by element.

    Each trace is a sequence of tuples of arrays (already index-aligned by
    the caller). Fails on length mismatch; reports the first iteration whose
    maximum component deviation exceeds ``tol``.
    """
    if len(trace_a) != len(trace_b):
        raise ValueError(
            f"trajectory length mismatch: {len(trace_a)} vs {len(trace_b)}"
        )
    deviations = []
    first_failure = None
    for i, (ta, tb) in enumerate(zip(trace_a, trace_b)):
        dev = 0.0
        for va, vb in zip(ta, tb):
            dev = max(dev, float(np.max(np.abs(np.asarray(va) - np.asarray(vb)))))
        deviations.append(dev)
        if dev > tol and first_failure is None:
            first_failure = i
    max_dev = max(deviations) if deviations else 0.0
    return EquivalenceReport(
        deviations=deviations,
        tol=tol,
        passed=first_failure is None,
        first_failure=first_failure,
        max_deviation=max_dev,
    )
