"""Test helpers: independent scalar-minimization oracles used to freeze
expected values, the per-draw LCG loop, factorization and eigendecomposition
counters, the primal-dual reference trajectory, the reference probe draw,
and reference folds of the gap certificates.

Value-only minimization cannot localize a smooth minimum better than about
sqrt(machine epsilon) ~ 1.5e-8, so comparisons against these oracles use
tolerances of 5e-8.
"""

import math

import numpy as np
import scipy.linalg

from vmadmm import diagnostics
from vmadmm.problems import LCG_INCREMENT, LCG_MODULUS, LCG_MULTIPLIER
from vmadmm.reference import condat_start_from_admm, condat_step


def lcg_reference(seed, count):
    """The LCG stream one Python-int step per draw: the reference that
    :func:`vmadmm.problems.lcg_uniforms` must equal bit for bit."""
    state = seed % LCG_MODULUS
    out = np.empty(count)
    for i in range(count):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) % LCG_MODULUS
        out[i] = (state >> 11) / float(1 << 53)
    return out


def golden_minimize(fn, lo, hi, tol=1e-11):
    """Golden-section search on [lo, hi] for a unimodal function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def minimize_1d(fn, lo, hi, grid=4001, tol=1e-11):
    """Coarse grid scan followed by golden-section refinement."""
    xs = np.linspace(lo, hi, grid)
    vals = np.array([fn(float(x)) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid - 1)]
    return golden_minimize(fn, float(a), float(b), tol)


def z_steps_sq(trace):
    """``||z_k - z_{k-1}||^2`` of a stored trace in row order, as
    ``uv_energies``: entry ``i`` is ``k = i + 1``."""
    return np.array([float((b - a) @ (b - a)) for a, b in zip(trace.zs, trace.zs[1:])])


def condat_trajectory(problem, init, tau, iters):
    """The primal-dual reference aligned with a solver run from ``init``
    under ``M1 = (1/tau) id - c A*A`` and ``M2 = 0``: ``iters`` x-iterates,
    entry ``j`` the solver's x at ``k = j + 1``, and ``iters - 1``
    y-iterates, entry ``j`` the solver's y at ``k = j + 1``."""
    f, h, g, A, c = problem.f, problem.h, problem.g, problem.A, problem.c
    x, y = condat_start_from_admm(f, h, g, A, init.x, init.z, init.y, tau, c)
    xs, ys = [x], []
    for _ in range(iters - 1):
        x, y = condat_step(f, h, g, A, x, y, tau, c)
        xs.append(x)
        ys.append(y)
    return xs, ys


def count_calls(monkeypatch, module, names):
    """Patch each ``module.<name>`` to record the shape of its first argument
    on every call; returns the (live) list of shapes."""
    shapes = []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(a.shape)
            return fn(a, *args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return shapes


def count_factorizations(monkeypatch):
    """Record the shape of every ``scipy.linalg.cho_factor`` and
    ``scipy.linalg.cholesky_banded`` call; returns the (live) list."""
    return count_calls(monkeypatch, scipy.linalg, ("cho_factor", "cholesky_banded"))


def count_eigh(monkeypatch):
    """Record the shape of every ``np.linalg.eigh`` call; returns the list."""
    return count_calls(monkeypatch, np.linalg, ("eigh",))


class KahanAverager:
    """Running means of (x, z, y) with one Kahan sum per vector: the
    reference the certifier's ergodic means must equal bit for bit."""

    def __init__(self, n, m):
        self.k = 0
        self._sums = [np.zeros(n), np.zeros(m), np.zeros(m)]
        self._comp = [np.zeros(n), np.zeros(m), np.zeros(m)]

    def update(self, x, z, y):
        for slot, vec in zip((0, 1, 2), (x, z, y)):
            term = np.asarray(vec, dtype=float) - self._comp[slot]
            total = self._sums[slot] + term
            self._comp[slot] = (total - self._sums[slot]) - term
            self._sums[slot] = total
        self.k += 1

    @property
    def means(self):
        """``(x_bar, z_bar, y_bar)`` end to end, one vector."""
        return np.concatenate(self._sums) / self.k


def ball_probes_reference(center, radius, count, seed):
    """Probes in the ball of ``radius`` around the ``(x, z, y)`` triple
    ``center``, drawn as :func:`diagnostics.ball_probes` is
    specified: per probe, one ``standard_normal`` direction over the whole
    ``(x, z, y)`` length, then one ``uniform`` draw that sets its length
    ``radius * u ** (1 / length)``. The reference the package's draws must
    equal bit for bit."""
    rng = np.random.default_rng(seed)
    parts = [np.asarray(v, dtype=float) for v in center]
    flat = np.concatenate(parts)
    cuts = np.cumsum([part.size for part in parts])[:-1]
    probes = []
    for _ in range(count):
        direction = rng.standard_normal(flat.size)
        direction *= radius * rng.uniform() ** (1.0 / flat.size) / np.linalg.norm(direction)
        probes.append(tuple(np.split(flat + direction, cuts)))
    return probes


def gap_at(problem, averager, probe, gamma0):
    """:func:`diagnostics.gap_certificate` at ``probe`` after ``averager.k``
    iterates, both Lagrangians from plain :func:`diagnostics.lagrangian` calls
    on slices of ``averager.means``."""
    x, z, y = probe
    n, m = problem.n, problem.m
    means = averager.means
    return diagnostics.gap_certificate(
        diagnostics.lagrangian(problem, means[:n], means[n : n + m], y),
        diagnostics.lagrangian(problem, x, z, means[n + m :]),
        gamma0,
        averager.k,
    )


def fold_gap_certificates(problem, trace, init, m1, m2, saddle, seed):
    """The gap columns of a certified solve, folded over a stored trace.

    Each value comes from plain :func:`diagnostics.lagrangian` calls and
    :func:`gap_at` on a :class:`KahanAverager`, with nothing shared between
    calls: the saddle every iteration, ten probes (seeded by ``seed``) every
    10th and at the last. Returns the rows (``primal_objective``,
    ``lagrangian_at_probe``, ``gap`` and ``gap_bound`` per k) and every gap
    slack, in order.
    """
    gamma0 = diagnostics.gamma(problem, init, m1, m2, saddle)
    probes = list(diagnostics.ball_probes(saddle, 1.0, 10, seed=seed))
    probe_gammas = [diagnostics.gamma(problem, init, m1, m2, p) for p in probes]
    averager = KahanAverager(problem.n, problem.m)
    rows, slacks = [], []
    for k in range(1, trace.iterations + 1):
        x, z, y = trace.xs[k], trace.zs[k], trace.ys[k]
        Ax = problem.A.apply(x)
        averager.update(x, z, y)
        cert = gap_at(problem, averager, saddle, gamma0)
        slacks.append(cert.slack)
        rows.append({
            "primal_objective": problem.f(x) + problem.h(x) + problem.g(Ax),
            "lagrangian_at_probe": diagnostics.lagrangian(problem, x, z, saddle[2]),
            "gap": cert.gap,
            "gap_bound": cert.bound,
        })
        if k % 10 == 0 or k == trace.iterations:
            slacks += [
                gap_at(problem, averager, p, g0).slack
                for p, g0 in zip(probes, probe_gammas)
            ]
    return rows, slacks
