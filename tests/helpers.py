"""Test helpers: independent scalar-minimization oracles used to freeze
expected values, factorization and eigendecomposition counters, and
reference folds of the gap certificates.

Value-only minimization cannot localize a smooth minimum better than about
sqrt(machine epsilon) ~ 1.5e-8, so comparisons against these oracles use
tolerances of 5e-8.
"""

import math

import numpy as np
import scipy.linalg

from vmadmm import diagnostics


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
    """``||z_k - z_{k-1}||^2`` of a stored trace, indexed like ``uv_energies``
    (index 0 is NaN)."""
    return [math.nan] + [
        float((b - a) @ (b - a)) for a, b in zip(trace.zs, trace.zs[1:])
    ]


def dual_steps(trace):
    """``||y_k - y_{k-1}||`` for ``k = 1..K`` of a stored trace."""
    return [float(np.linalg.norm(b - a)) for a, b in zip(trace.ys, trace.ys[1:])]


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
    reference :class:`diagnostics.ErgodicAverager` must equal bit for bit."""

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
    def x_bar(self):
        return self._sums[0] / self.k

    @property
    def z_bar(self):
        return self._sums[1] / self.k

    @property
    def y_bar(self):
        return self._sums[2] / self.k


def gap_at(problem, averager, probe, gamma0):
    """:func:`diagnostics.gap_certificate` at ``probe`` after ``averager.k``
    iterates, both Lagrangians from plain :func:`diagnostics.lagrangian` calls."""
    x, z, y = probe
    return diagnostics.gap_certificate(
        diagnostics.lagrangian(problem, averager.x_bar, averager.z_bar, y),
        diagnostics.lagrangian(problem, x, z, averager.y_bar),
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
    probes = diagnostics.sample_ball_probes(saddle, 1.0, 10, seed=seed)
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
