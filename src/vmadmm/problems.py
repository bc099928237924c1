"""Problem catalog, seeded test data, and the saddle points: the iterative
oracle for every problem and a direct one for tv1d.

All randomness comes from a 64-bit linear congruential generator (Knuth's
MMIX multiplier 6364136223846793005, increment 1442695040888963407, modulus
2^64; uniforms take the top 53 bits), so catalog instances are bit-identical
across platforms without external data files; jump-ahead computes the stream
in O(log count) numpy passes, with the bits of one step per draw.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import functions
from .diagnostics import kkt_residual
from .errors import OracleError
from .linops import LinearMap, forward_difference, operator_norm
from .reference import check_step_sizes, condat_step
from .solver import ProblemSpec

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MODULUS = 1 << 64


def lcg_uniforms(seed, count):
    """``count`` uniforms in [0, 1) from the 64-bit LCG, platform independent.

    ``seed`` is an integer, taken mod 2^64. Jump-ahead: states ``i + len``
    are ``a_len * s_i + c_len``, with ``(a_len, c_len)`` the step composed
    ``len`` times, so O(log count) ``uint64`` passes give the loop's bits.
    """
    states = np.empty(count, dtype=np.uint64)
    a, c, filled = LCG_MULTIPLIER, LCG_INCREMENT, min(count, 1)
    states[:filled] = (operator.index(seed) * a + c) % LCG_MODULUS
    while filled < count:
        block = states[filled : 2 * filled]
        np.multiply(states[: len(block)], np.uint64(a), out=block)
        block += np.uint64(c)
        a, c = a * a % LCG_MODULUS, (a * c + c) % LCG_MODULUS
        filled *= 2
    states >>= np.uint64(11)
    out = states.view(float)  # cast in place by chunks, exact below 2^53
    for i in range(0, count, 4096):
        np.multiply(states[i : i + 4096], 2.0**-53, out=out[i : i + 4096])
    return out


def noisy_ramp(n, seed, noise=0.25):
    """A linear ramp on [0, 1] plus uniform noise of amplitude ``noise``."""
    ramp = np.arange(n) / max(n - 1, 1)
    return ramp + noise * _signed_draws(seed, n)


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


def _whole(value, name):
    """``int(value)``; a ValueError unless ``value`` is a whole number."""
    if int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _build_tv1d(n=50, lam=0.5, c=1.0, seed=20240801, noise=0.25):
    n = _whole(n, "tv1d n")
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
    n, rows = _whole(n, "lasso-split n"), _whole(rows, "lasso-split rows")
    if n < 1 or rows < n:
        raise ValueError("lasso-split needs rows >= n >= 1")
    if lam <= 0:
        raise ValueError("lasso-split needs lam > 0")
    quad = functions.Quadratic(*_lasso_data(n, rows, seed))
    if quadratic_in == "h":
        f, h, g = functions.L1Norm(n, lam), quad, functions.Zero(n)
    elif quadratic_in == "g":
        f, h, g = functions.L1Norm(n, lam), functions.Zero(n), quad
    else:
        raise ValueError("quadratic_in must be 'h' or 'g'")
    return ProblemSpec(f=f, h=h, g=g, A=LinearMap.identity(n), c=float(c))


def _build_box_qp(n=10, c=1.0, seed=20240803):
    n = _whole(n, "box-qp n")
    if n < 1:
        raise ValueError("box-qp needs n >= 1")
    return ProblemSpec(
        f=functions.BoxIndicator(n, lower=0.0, upper=1.0),
        h=functions.Quadratic(*_box_qp_data(n, seed)),
        g=functions.Zero(n),
        A=LinearMap.identity(n),
        c=float(c),
    )


def _signed_draws(seed, count):
    """``2 u - 1`` for ``count`` LCG uniforms ``u``, in the draws' own buffer."""
    u = lcg_uniforms(seed, count)
    u *= 2.0
    u -= 1.0
    return u


def _lasso_data(n, rows, seed):
    """``(D^T D, -D^T b)`` for the design ``D`` (``rows x n``, scaled by
    ``1 / sqrt(rows)``) and target ``b`` drawn in place; the draws are freed
    on return."""
    u = _signed_draws(seed, rows * n + rows)
    design = u[: rows * n].reshape(rows, n)
    design /= np.sqrt(rows)
    target = u[rows * n :]
    np.negative(target, out=target)  # (-D^T) b and D^T (-b): the same products
    return design.T @ design, design.T @ target


def _box_qp_data(n, seed):
    """``(B^T B / n + I / 2, q)`` for ``B`` (``n x n``) and ``q`` drawn in
    place; the draws are freed on return."""
    u = _signed_draws(seed, n * n + n)
    base = u[: n * n].reshape(n, n)
    Q = base.T @ base
    Q /= n
    Q.flat[:: n + 1] += 0.5  # the diagonal, in place
    return Q, u[n * n :].copy()


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


def tv1d_saddle(problem):
    """The saddle of a tv1d problem from Condat's direct algorithm, no iteration.

    ``problem`` must have the tv1d form: f :class:`~functions.Zero`, h
    :class:`~functions.SquaredL2` ``(w/2) ||x - data||^2``, A a
    :func:`forward_difference` and g :class:`~functions.L1Norm` with weight
    ``lam``; otherwise ``ValueError``. ``x*`` denoises ``data`` at ``lam / w``
    by Condat's exact, finite algorithm ("A direct algorithm for 1-D total
    variation denoising", IEEE Signal Process. Lett. 2013); the dual solves
    ``A* y* = w (data - x*)``, a cumulative sum, and ``z* = A x*``. Neither
    step shares a kernel with the solver. Raises :class:`OracleError` unless
    the KKT residual is at most 1e-10, the bar of :func:`oracle`.
    """
    f, h, g, A = problem.f, problem.h, problem.g, problem.A
    if not (isinstance(f, functions.Zero) and isinstance(h, functions.SquaredL2)
            and isinstance(g, functions.L1Norm) and A.kind == "forward_difference"):
        raise ValueError(
            "tv1d_saddle needs f Zero, h SquaredL2, A a forward difference and "
            f"g L1Norm, got {type(f).__name__}, {type(h).__name__}, "
            f"{A.kind} and {type(g).__name__}"
        )
    # a memoryview reads one Python float at a time: a list of n floats would
    # leave up to 100 of them in CPython's float free list after the call
    x = _condat_denoise(memoryview(h.shift), g.weight / h.weight)
    y = -np.cumsum(h.weight * (h.shift - x))[:-1]
    kkt = kkt_residual(problem, x, y)
    if not kkt <= 1e-10:
        raise OracleError("the direct tv1d saddle missed KKT residual 1e-10", kkt)
    return OracleResult(x=x, z=A.apply(x), y=y, kkt=kkt, iterations=0)


def _condat_denoise(data, lam):
    """``argmin_x (1/2) ||x - data||^2 + lam sum_i |x[i+1] - x[i]|`` exactly.

    Condat's direct algorithm on a sequence of floats: it grows the current
    segment ``[k0, k]`` while the segment's value bounds ``[vmin, vmax]`` keep
    the running dual ``u`` within ``[-lam, lam]``, and when they cannot,
    closes the segment at the last position ``kminus`` (``kplus``) where the
    dual sat on its bound, with a downward (upward) jump, and restarts after
    it; the right end closes with ``u = 0``. A restart revisits samples, so
    the worst case is quadratic in n; on the catalog's data the time grows
    linearly (0.2 ms at n = 200, 7 ms at n = 10 000).
    """
    n = len(data)
    x = np.empty(n)
    k = k0 = kminus = kplus = 0
    umin, umax = lam, -lam
    vmin, vmax = data[0] - lam, data[0] + lam

    def close(value, last):
        # the segment [k0, max(k0, last)] takes ``value``; returns its end + 1
        end = max(k0, last) + 1
        x[k0:end] = value
        return end

    while True:
        while k == n - 1:  # the right end: the dual must close at 0
            if umin < 0.0:  # vmin too high: a downward jump
                k0 = k = kminus = close(vmin, kminus)
                vmin, umin = data[k0], lam
                umax = vmin + umin - vmax
            elif umax > 0.0:  # vmax too low: an upward jump
                k0 = k = kplus = close(vmax, kplus)
                vmax, umax = data[k0], -lam
                umin = vmax + umax - vmin
            else:
                close(vmin + umin / (k - k0 + 1), k)
                return x
        umin += data[k + 1] - vmin
        if umin < -lam:  # a downward jump at kminus
            k0 = k = kminus = kplus = close(vmin, kminus)
            vmin = data[k0]
            vmax = vmin + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += data[k + 1] - vmax
        if umax > lam:  # an upward jump at kplus
            k0 = k = kminus = kplus = close(vmax, kplus)
            vmax = data[k0]
            vmin = vmax - 2.0 * lam
            umin, umax = lam, -lam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


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

    Runs the independent primal-dual iteration (:func:`condat_step` on the
    vectors ``(x, y)``) from zeros with conservative step sizes, checked
    once by :func:`check_step_sizes`, testing the KKT residual every 25
    iterations and at the end of the budget, until it certifies the triple;
    the auxiliary variable is set to ``A x*`` exactly. Correctness rests on
    the residual check alone, not on the iteration used. Raises
    :class:`OracleError` carrying the best residual achieved if the budget
    is exhausted.
    """
    f, h, g, A, c = problem.f, problem.h, problem.g, problem.A, problem.c
    norm_a = operator_norm(A)
    L = h.lipschitz
    tau = 0.95 / (c * norm_a**2 + L / 2.0) if (c * norm_a**2 + L) > 0 else 1.0
    check_step_sizes(h, A, tau, c)
    x, y = np.zeros(problem.n), np.zeros(problem.m)
    best = np.inf
    for i in range(1, budget + 1):
        x, y = condat_step(f, h, g, A, x, y, tau, c)
        if i % 25 == 0 or i == budget:
            kkt = kkt_residual(problem, x, y)
            best = min(best, kkt)
            if kkt <= 1e-10:
                return OracleResult(x=x, z=A.apply(x), y=y, kkt=kkt, iterations=i)
    raise OracleError(
        f"oracle did not reach KKT residual 1e-10 within {budget} iterations",
        best,
    )
