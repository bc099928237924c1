"""Test helpers: independent scalar-minimization oracles used to freeze
expected values, and a factorization counter.

Value-only minimization cannot localize a smooth minimum better than about
sqrt(machine epsilon) ~ 1.5e-8, so comparisons against these oracles use
tolerances of 5e-8.
"""

import math

import numpy as np
import scipy.linalg


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


def count_cho_factor(monkeypatch):
    """Patch ``scipy.linalg.cho_factor`` to record the shape of every call;
    returns the (live) list of shapes."""
    shapes = []
    cho_factor = scipy.linalg.cho_factor

    def counting_cho_factor(a):
        shapes.append(a.shape)
        return cho_factor(a)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting_cho_factor)
    return shapes
