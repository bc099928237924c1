"""Problem catalog, seeded test data, and the saddle-point oracle.

All randomness comes from a 64-bit linear congruential generator (Knuth's
MMIX multiplier 6364136223846793005, increment 1442695040888963407, modulus
2^64; uniforms take the top 53 bits), so catalog instances are bit-identical
across platforms without external data files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functions
from .diagnostics import kkt_residual
from .errors import OracleError
from .linops import LinearMap, forward_difference, operator_norm
from .reference import condat_state, condat_step
from .solver import ProblemSpec

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MODULUS = 1 << 64


def lcg_uniforms(seed, count):
    """``count`` uniforms in [0, 1) from the 64-bit LCG, platform independent."""
    state = seed % LCG_MODULUS
    out = np.empty(count)
    for i in range(count):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) % LCG_MODULUS
        out[i] = (state >> 11) / float(1 << 53)
    return out


def noisy_ramp(n, seed, noise=0.25):
    """A linear ramp on [0, 1] plus uniform noise of amplitude ``noise``."""
    ramp = np.arange(n) / max(n - 1, 1)
    return ramp + noise * (2.0 * lcg_uniforms(seed, n) - 1.0)


def build_problem(name, **params):
    """Construct a catalog problem.

    Names: ``tv1d`` (1-D total-variation denoising), ``lasso-split``
    (l1-regularized least squares under an identity split), ``box-qp``
    (box-constrained quadratic program), ``toy1d`` (one-dimensional, with a
    saddle point computable by hand). Returns ``(ProblemSpec, metadata)``
    where metadata records the smooth term's Lipschitz constant and the
    operator norm of A (in closed form: every catalog A is an identity or a
    forward difference).
    """
    builders = {
        "tv1d": _build_tv1d,
        "lasso-split": _build_lasso_split,
        "box-qp": _build_box_qp,
        "toy1d": _build_toy1d,
    }
    if name not in builders:
        raise ValueError(
            f"unknown problem {name!r}; available: {sorted(builders)}"
        )
    problem = builders[name](**params)
    metadata = {
        "name": name,
        "n": problem.n,
        "m": problem.m,
        "L": problem.h.lipschitz,
        "norm_A": operator_norm(problem.A),
    }
    return problem, metadata


def _build_tv1d(n=50, lam=0.5, c=1.0, seed=20240801, noise=0.25):
    n = int(n)
    if n < 2:
        raise ValueError("tv1d needs n >= 2")
    if lam <= 0:
        raise ValueError("tv1d needs lam > 0")
    data = noisy_ramp(n, seed, noise)
    return ProblemSpec(
        f=functions.Zero(n),
        h=functions.SquaredL2(n, shift=data, weight=1.0),
        g=functions.L1Norm(n - 1, weight=lam),
        A=forward_difference(n),
        c=float(c),
    )


def _build_lasso_split(n=20, rows=30, lam=0.1, c=1.0, seed=20240802,
                       quadratic_in="h"):
    n = int(n)
    rows = int(rows)
    if n < 1 or rows < n:
        raise ValueError("lasso-split needs rows >= n >= 1")
    if lam <= 0:
        raise ValueError("lasso-split needs lam > 0")
    u = lcg_uniforms(seed, rows * n + rows)
    design = (2.0 * u[: rows * n] - 1.0).reshape(rows, n) / np.sqrt(rows)
    target = 2.0 * u[rows * n :] - 1.0
    quad = functions.Quadratic(design.T @ design, -design.T @ target)
    if quadratic_in == "h":
        f, h, g = functions.L1Norm(n, lam), quad, functions.Zero(n)
    elif quadratic_in == "g":
        f, h, g = functions.L1Norm(n, lam), functions.Zero(n), quad
    else:
        raise ValueError("quadratic_in must be 'h' or 'g'")
    return ProblemSpec(f=f, h=h, g=g, A=LinearMap.identity(n), c=float(c))


def _build_box_qp(n=10, c=1.0, seed=20240803):
    n = int(n)
    if n < 1:
        raise ValueError("box-qp needs n >= 1")
    u = lcg_uniforms(seed, n * n + n)
    base = (2.0 * u[: n * n] - 1.0).reshape(n, n)
    Q = base.T @ base / n + 0.5 * np.eye(n)
    q = 2.0 * u[n * n :] - 1.0
    return ProblemSpec(
        f=functions.BoxIndicator(n, lower=0.0, upper=1.0),
        h=functions.Quadratic(Q, q),
        g=functions.Zero(n),
        A=LinearMap.identity(n),
        c=float(c),
    )


def _build_toy1d(lam=1.0, target=3.0, sigma=1.0, c=1.0, h_kind="zero",
                 h_shift=0.0, h_weight=1.0, h_delta=1.0):
    if lam <= 0 or sigma <= 0:
        raise ValueError("toy1d needs lam > 0 and sigma > 0")
    if h_kind == "zero":
        h = functions.Zero(1)
    elif h_kind == "squared_l2":
        h = functions.SquaredL2(1, shift=h_shift, weight=h_weight)
    elif h_kind == "huber":
        h = functions.Huber(1, delta=h_delta, weight=h_weight)
    elif h_kind == "quadratic":
        h = functions.Quadratic([[float(h_weight)]], [float(h_shift)])
    else:
        raise ValueError(f"unknown toy1d h_kind {h_kind!r}")
    return ProblemSpec(
        f=functions.L1Norm(1, weight=lam),
        h=h,
        g=functions.SquaredL2(1, shift=target, weight=sigma),
        A=LinearMap.identity(1),
        c=float(c),
    )


def toy1d_saddle(lam=1.0, target=3.0, sigma=1.0):
    """Hand-derived saddle point of the default toy1d problem.

    With a zero smooth term the optimality inclusions reduce to soft
    thresholding: ``x* = sign(b) max(|b| - lam/sigma, 0)`` and
    ``y* = sigma (x* - b)``.
    """
    x = np.sign(target) * max(abs(target) - lam / sigma, 0.0)
    y = sigma * (x - target)
    return np.array([x]), np.array([x]), np.array([y])


@dataclass
class OracleResult:
    """A certified saddle point: the triple plus its KKT residual."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    kkt: float
    iterations: int


def oracle(problem, budget=1_000_000):
    """Compute a saddle point to KKT residual 1e-10 with the primal-dual reference.

    Runs the independent primal-dual iteration from zeros with conservative
    step sizes, checking the KKT residual every 25 iterations and at the end
    of the budget, until it certifies the triple; the auxiliary variable is
    set to ``A x*`` exactly. Correctness rests on the residual check alone,
    not on the iteration used. Raises :class:`OracleError` carrying the best
    residual achieved if the budget is exhausted.
    """
    f, h, g, A, c = problem.f, problem.h, problem.g, problem.A, problem.c
    norm_a = operator_norm(A)
    L = h.lipschitz
    tau = 0.95 / (c * norm_a**2 + L / 2.0) if (c * norm_a**2 + L) > 0 else 1.0
    state = condat_state(
        f,
        h,
        g,
        A,
        x=np.zeros(problem.n),
        y=np.zeros(problem.m),
        tau=tau,
        c=c,
    )
    best = np.inf
    for i in range(1, budget + 1):
        state = condat_step(f, h, g, A, state)
        if i % 25 == 0 or i == budget:
            kkt = kkt_residual(problem, state.x, state.y)
            best = min(best, kkt)
            if kkt <= 1e-10:
                return OracleResult(
                    x=state.x.copy(),
                    z=A.apply(state.x),
                    y=state.y.copy(),
                    kkt=kkt,
                    iterations=i,
                )
    raise OracleError(
        f"oracle did not reach KKT residual 1e-10 within {budget} iterations",
        best,
    )
