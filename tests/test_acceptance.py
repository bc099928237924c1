"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every run here uses configurations whose hypotheses are validated in-test
before asserting the certified behavior, and every expected value comes from
a hand derivation, an independent oracle, or a dual implementation.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import KahanAverager, condat_trajectory, gap_at, z_steps_sq
from vmadmm import diagnostics as dg
from vmadmm.functions import BoxIndicator, Huber, L1Norm, Quadratic, SquaredL2, Zero
from vmadmm.linops import MetricOperator, min_eigenvalue
from vmadmm.reference import classical_admm_step, trajectory_deviations
from vmadmm.solver import (
    ConstantSchedule,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
    validate_assumptions,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ergodic_tv1d(tv1d):
    problem, meta = tv1d
    tau = 0.95 / (problem.c * meta["norm_A"] ** 2 + meta["L"])
    sched1 = ShiftedGramSchedule(tau, problem.c, problem.A)
    sched2 = ConstantSchedule(MetricOperator.zero(problem.m))
    # step-size condition behind the ergodic hypotheses
    assert 1.0 / tau - problem.c * meta["norm_A"] ** 2 > meta["L"]
    assert min_eigenvalue(sched1.metric(0)) >= meta["L"]
    state, trace = run(
        problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=5000)
    )
    return problem, meta, trace, sched1, sched2, tau


@pytest.fixture(scope="module")
def ergodic_toy1d(toy1d):
    problem, meta = toy1d
    tau = 0.5
    sched1 = ShiftedGramSchedule(tau, problem.c, problem.A)
    sched2 = ConstantSchedule(MetricOperator.zero(problem.m))
    assert 1.0 / tau - problem.c * meta["norm_A"] ** 2 > meta["L"]
    state, trace = run(
        problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=5000)
    )
    return problem, meta, trace, sched1, sched2, tau


def _uv_run(problem, iters=2002):
    m1 = MetricOperator.scaled_identity(problem.n, 1.0)
    m2 = MetricOperator.scaled_identity(problem.m, 1.0)
    sched1, sched2 = ConstantSchedule(m1), ConstantSchedule(m2)
    state, trace = run(
        problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=iters)
    )
    return trace, m1, m2


@pytest.fixture(scope="module")
def uv_toy1d(toy1d):
    problem, _ = toy1d
    trace, m1, m2 = _uv_run(problem)
    return problem, trace, m1, m2


@pytest.fixture(scope="module")
def uv_lasso(lasso_g):
    problem, _ = lasso_g
    trace, m1, m2 = _uv_run(problem)
    return problem, trace, m1, m2


@pytest.fixture(scope="module")
def regime_runs(tv1d, box_qp, lasso_g):
    """One convergent run per assumption set, hypotheses validated."""
    runs = {}

    problem, meta = tv1d  # uniformly positive-definite first metric
    sched1 = ConstantSchedule(MetricOperator.scaled_identity(problem.n, 1.0))
    sched2 = ConstantSchedule(MetricOperator.zero(problem.m))
    report = validate_assumptions(problem, sched1, sched2, 5)
    assert report.condition_I
    _, trace = run(
        problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=10000)
    )
    runs["I"] = (problem, trace)

    problem, meta = box_qp  # injective coupling map and positive-definite M2
    sched1 = ConstantSchedule(MetricOperator.scaled_identity(problem.n, meta["L"]))
    sched2 = ConstantSchedule(MetricOperator.scaled_identity(problem.m, 1.0))
    report = validate_assumptions(problem, sched1, sched2, 5)
    assert report.condition_II and report.permits_run
    _, trace = run(
        problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=10000)
    )
    runs["II"] = (problem, trace)

    problem, _ = lasso_g  # plain alternating directions, no smooth term
    sched1 = ConstantSchedule(MetricOperator.zero(problem.n))
    sched2 = ConstantSchedule(MetricOperator.zero(problem.m))
    report = validate_assumptions(problem, sched1, sched2, 5)
    assert report.condition_III
    _, trace = run(
        problem, initial_state(problem), sched1, sched2, StoppingRule(max_iters=10000)
    )
    runs["III"] = (problem, trace)
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_ergodic_gap_bound(ergodic_tv1d, ergodic_toy1d, tv1d_oracle, toy1d_oracle):
    started = time.time()
    with criterion(1, "ergodic-gap-bound"):
        for (problem, meta, trace, sched1, sched2, tau), orc in (
            (ergodic_tv1d, tv1d_oracle),
            (ergodic_toy1d, toy1d_oracle),
        ):
            saddle = (orc.x, orc.z, orc.y)
            gamma0 = dg.gamma(
                problem, initial_state(problem, trace.xs[0], trace.zs[0], trace.ys[0]),
                sched1.metric(0), sched2.metric(0), saddle
            )
            averager = KahanAverager(problem.n, problem.m)
            worst = math.inf
            for k in range(1, 5001):
                averager.update(trace.xs[k], trace.zs[k], trace.ys[k])
                cert = gap_at(problem, averager, saddle, gamma0)
                worst = min(worst, cert.slack)
            assert worst >= -1e-8, f"worst gap slack {worst:.3e}"
        assert time.time() - started < 30.0


def test_c02_contraction_inequality(uv_toy1d, uv_lasso, toy1d_oracle, lasso_g_oracle):
    with criterion(2, "contraction-inequality"):
        for (problem, trace, m1, m2), orc in (
            (uv_toy1d, toy1d_oracle),
            (uv_lasso, lasso_g_oracle),
        ):
            saddle = (orc.x, orc.z, orc.y)
            u, v = dg.uv_energies(problem, trace, saddle, m1, m2)
            slacks = dg.inequality_v_check(u, v, z_steps_sq(trace), problem.c)
            assert len(slacks) >= 2000  # entry k - 1 is the slack at k
            worst = min(slacks[:2000])
            assert worst >= -1e-10, f"worst contraction slack {worst:.3e}"


def test_c03_feasibility_rate(uv_toy1d, uv_lasso, toy1d_oracle, lasso_g_oracle):
    with criterion(3, "feasibility-rate"):
        for (problem, trace, m1, m2), orc in (
            (uv_toy1d, toy1d_oracle),
            (uv_lasso, lasso_g_oracle),
        ):
            assert min_eigenvalue(m2) > 0  # the rate argument needs M2 definite
            saddle = (orc.x, orc.z, orc.y)
            u, v = dg.uv_energies(problem, trace, saddle, m1, m2)
            bounds = dg.feasibility_rate(
                trace.residual_norms, problem.c, u[0], z_steps_sq(trace)
            )
            resids = trace.residual_norms[1:]
            for k, resid, bound in zip(range(2, 2001), resids, bounds):
                assert resid <= bound, f"k={k}: {resid:.3e} > {bound:.3e}"
            ks = range(100, 2001)
            slope = dg.loglog_slope(ks, [trace.residual_norms[k - 1] for k in ks])
            assert slope <= -0.45, f"slope {slope:.3f}"


def test_c04_dual_update_identity(
    ergodic_tv1d, ergodic_toy1d, uv_toy1d, uv_lasso, regime_runs
):
    with criterion(4, "dual-update-identity"):
        traces = [
            (ergodic_tv1d[0], ergodic_tv1d[2]),
            (ergodic_toy1d[0], ergodic_toy1d[2]),
            (uv_toy1d[0], uv_toy1d[1]),
            (uv_lasso[0], uv_lasso[1]),
        ] + list(regime_runs.values())
        for problem, trace in traces:
            for k in range(1, trace.iterations + 1):
                lhs = trace.residual_norms[k - 1]
                rhs = float(np.linalg.norm(trace.ys[k] - trace.ys[k - 1])) / problem.c
                assert abs(lhs - rhs) <= 1e-12


def test_c05_primal_dual_equivalence(tv1d, toy1d):
    with criterion(5, "primal-dual-equivalence"):
        cases = []
        problem, meta = tv1d
        cases.append((problem, 0.9 / (problem.c * meta["norm_A"] ** 2 + meta["L"])))
        problem, meta = toy1d
        cases.append((problem, 0.5))
        for problem, tau in cases:
            sched1 = ShiftedGramSchedule(tau, problem.c, problem.A)
            sched2 = ConstantSchedule(MetricOperator.zero(problem.m))
            init = initial_state(problem)
            state, trace = run(
                problem, init, sched1, sched2, StoppingRule(max_iters=200)
            )
            ref_xs, ref_ys = condat_trajectory(problem, init, tau, 200)
            # the reference x after j steps equals the solver x at j+1
            dx = trajectory_deviations(
                [(x,) for x in trace.xs[1:201]], [(x,) for x in ref_xs]
            )
            dy = trajectory_deviations(
                [(y,) for y in trace.ys[1:200]], [(y,) for y in ref_ys]
            )
            assert np.all(dx <= 1e-10), f"x deviation {dx.max():.3e}"
            assert np.all(dy <= 1e-10), f"y deviation {dy.max():.3e}"


def test_c06_classical_degeneration(lasso_g):
    with criterion(6, "classical-degeneration"):
        problem, _ = lasso_g
        sched1 = ConstantSchedule(MetricOperator.zero(problem.n))
        sched2 = ConstantSchedule(MetricOperator.zero(problem.m))
        state, trace = run(
            problem, initial_state(problem), sched1, sched2,
            StoppingRule(max_iters=100),
        )
        x = np.zeros(problem.n)
        z = np.zeros(problem.m)
        y = np.zeros(problem.m)
        for k in range(1, 101):
            x, z, y = classical_admm_step(
                problem.f, problem.g, problem.A, problem.c, x, z, y
            )
            assert float(np.max(np.abs(x - trace.xs[k]))) <= 1e-12
            assert float(np.max(np.abs(z - trace.zs[k]))) <= 1e-12
            assert float(np.max(np.abs(y - trace.ys[k]))) <= 1e-12


def test_c07_convergence_under_each_assumption(
    regime_runs, tv1d_oracle, box_qp_oracle, lasso_g_oracle
):
    with criterion(7, "iterate-convergence"):
        oracles = {"I": tv1d_oracle, "II": box_qp_oracle, "III": lasso_g_oracle}
        for label, (problem, trace) in regime_runs.items():
            orc = oracles[label]
            final_kkt = dg.kkt_residual(
                problem, trace.xs[-1], trace.ys[-1]
            )
            assert final_kkt < 1e-6, f"{label}: kkt {final_kkt:.3e}"
            target = np.concatenate([orc.x, orc.z, orc.y])
            K = trace.iterations
            dist = [
                float(
                    np.linalg.norm(
                        np.concatenate([trace.xs[k], trace.zs[k], trace.ys[k]])
                        - target
                    )
                )
                for k in range(K - K // 10, K + 1)
            ]
            for a, b in zip(dist, dist[1:]):
                assert b <= a * (1.0 + 1e-9) + 1e-12, label


def test_c08_saddle_point_inequality(toy1d, tv1d, toy1d_oracle, tv1d_oracle):
    with criterion(8, "saddle-point-inequality"):
        for (problem, _), orc in ((toy1d, toy1d_oracle), (tv1d, tv1d_oracle)):
            l_star = dg.lagrangian(problem, orc.x, orc.z, orc.y)
            probes = list(dg.ball_probes((orc.x, orc.z, orc.y), 1.0, 100, seed=88))
            for px, pz, py in probes:
                assert dg.lagrangian(problem, orc.x, orc.z, py) <= l_star + 1e-9
                assert l_star <= dg.lagrangian(problem, px, pz, orc.y) + 1e-9


def test_c09_gradient_and_prox_certificates():
    started = time.time()
    with criterion(9, "gradient-prox-certificates"):
        catalog = [
            Zero(4),
            L1Norm(4, 0.7),
            SquaredL2(4, shift=[1.0, 0.0, -1.0, 2.0], weight=1.5),
            BoxIndicator(4, lower=-1.0, upper=1.0),
            Quadratic(np.diag([1.0, 2.0, 3.0, 0.5]), [0.1, 0.0, -0.2, 0.4]),
            Huber(4, delta=0.4, weight=1.2),
        ]
        rng = np.random.default_rng(99)
        step = 1e-6
        for f in catalog:
            if f.smooth:
                for _ in range(20):
                    x = rng.standard_normal(f.dim) * 2.0
                    g = f.grad(x)
                    for i in range(f.dim):
                        e = np.zeros(f.dim)
                        e[i] = step
                        fd = (f(x + e) - f(x - e)) / (2.0 * step)
                        assert abs(g[i] - fd) <= 1e-5
            # prox characterization at 100 probes
            v = rng.standard_normal(f.dim) * 3.0
            t = 0.9
            u = f.prox(v, t)
            fu = f(u)
            sub = (v - u) / t
            for _ in range(100):
                w = rng.standard_normal(f.dim) * 3.0
                assert f(w) >= fu + float(sub @ (w - u)) - 1e-10
        assert time.time() - started < 120.0


def test_c10_per_iteration_inequality(ergodic_tv1d, ergodic_toy1d,
                                      tv1d_oracle, toy1d_oracle):
    with criterion(10, "per-iteration-inequality"):
        for (problem, meta, trace, sched1, sched2, tau), orc in (
            (ergodic_tv1d, tv1d_oracle),
            (ergodic_toy1d, toy1d_oracle),
        ):
            assert min_eigenvalue(sched1.metric(0)) >= meta["L"] - 1e-12
            probes = list(dg.ball_probes((orc.x, orc.z, orc.y), 1.0, 20, seed=41))
            m1, m2 = sched1.metric(0), sched2.metric(0)
            for k in range(0, trace.iterations, 10):
                s_k = initial_state(problem, trace.xs[k], trace.zs[k], trace.ys[k])
                s_next = initial_state(problem, trace.xs[k + 1], trace.zs[k + 1],
                                       trace.ys[k + 1])
                for probe in probes:
                    sl1, sl2 = dg.iteration_inequality_check(
                        problem, s_k, s_next, m1, m2, probe
                    )
                    assert sl1 >= -1e-9, f"k={k}: first inequality {sl1:.3e}"
                    assert sl2 >= -1e-9, f"k={k}: second inequality {sl2:.3e}"
