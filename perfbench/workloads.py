"""The four benchmark workloads: catalog configs, iteration counts and why.

Each workload is one vmadmm run config at n=200. The benchmark seed becomes
the problem ``seed`` (the catalog's LCG data) and the config ``seed`` (the
gap-bound probes). Setup and time-to-KKT also run on fixed reference
instances, because the iterations a tv1d instance needs vary by about 30%
from one data seed to the next (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

ZERO_METRIC = {"kind": "constant", "metric": {"kind": "zero"}}
TV1D = {"name": "tv1d", "n": 200, "lam": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: dict
    metric1: dict
    metric2: dict
    iters: int
    checks: tuple
    passes: int  # time-to-KKT passes over the panel
    certified: int  # certified solves per run, at least
    per_iter: int  # plain solver runs per run, at least

    def config(self, seed):
        """The run config for data seed ``seed``, as ``vmadmm solve`` reads it."""
        return {
            "problem": dict(self.problem, seed=seed),
            "metric1": self.metric1,
            "metric2": self.metric2,
            "c": 1.0,
            "iters": self.iters,
            "checks": list(self.checks),
            "seed": seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tv1d-linearized",
            why="setup-heavy (power iteration) and diagnostics-heavy (gap at the "
                "saddle plus 10 probes), no factorizations: the Python-overhead "
                "LINEARIZED iteration path",
            problem=TV1D,
            metric1={"kind": "shifted_gram", "tau": 0.19},
            metric2=ZERO_METRIC,
            iters=3000,
            checks=("kkt", "gap_bound", "dual_identity"),
            passes=3,
            certified=4,
            per_iter=10,
        ),
        Workload(
            name="tv1d-quadratic",
            why="one Cholesky factor per iteration dominates the QUADRATIC solve, "
                "with no oracle and little diagnostics: a factor-caching change "
                "shows here and nowhere else",
            problem=TV1D,
            metric1={"kind": "constant",
                     "metric": {"kind": "scaled_identity", "mu": 1.0}},
            metric2=ZERO_METRIC,
            # Some data seeds need up to ~1600 iterations before the final
            # KKT residual drops below the check tolerance.
            iters=2500,
            checks=("kkt", "dual_identity"),
            passes=2,
            certified=5,
            per_iter=5,
        ),
        Workload(
            name="lasso-g",
            why="light setup (A = identity), PROX-DIRECT with the factor cached "
                "once in Quadratic.prox, and h=0 so all six certificates run, "
                "u/v contraction and feasibility included",
            problem={"name": "lasso-split", "n": 200, "rows": 300,
                     "quadratic_in": "g"},
            metric1={"kind": "constant",
                     "metric": {"kind": "scaled_identity", "mu": 1.0}},
            metric2=ZERO_METRIC,
            iters=2000,
            checks=("kkt", "gap_bound", "v_inequality", "v_monotone",
                    "feasibility_rate", "dual_identity"),
            passes=3,
            certified=8,
            per_iter=10,
        ),
        Workload(
            name="box-qp",
            why="the only constrained instance: the per-coordinate box KKT "
                "closed form in functions dominates certification, and probes "
                "outside the box give infinite Lagrangians",
            problem={"name": "box-qp", "n": 200},
            metric1={"kind": "constant",
                     "metric": {"kind": "scaled_identity", "mu": 5.0}},
            metric2=ZERO_METRIC,
            iters=1000,
            checks=("kkt", "gap_bound", "dual_identity"),
            passes=3,
            certified=4,
            per_iter=10,
        ),
    )
}


PANEL = 8  # instances for setup and time-to-KKT: the seed's, then references
FIRST_REFERENCE_SEED = 20240801


def panel_seeds(seed, count):
    """``seed`` itself, then ``count - 1`` reference data seeds that every
    run shares."""
    return [seed] + [FIRST_REFERENCE_SEED + j for j in range(count - 1)]
