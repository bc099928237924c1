import math
import tracemalloc

import numpy as np
import pytest

from helpers import KahanAverager, gap_at, z_steps_sq
from vmadmm import diagnostics as dg
from vmadmm.errors import DimensionMismatch, UnsupportedSetting
from vmadmm.experiments import CHECK_TOLERANCES
from vmadmm.functions import L1Norm, SquaredL2, Zero
from vmadmm.linops import LinearMap, MetricOperator
from vmadmm.problems import build_problem, toy1d_saddle
from vmadmm.solver import (
    ConstantSchedule,
    ProblemSpec,
    RunTrace,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
)


def scalar_problem(f=None, h=None, g=None, c=1.0):
    return ProblemSpec(
        f=f or Zero(1), h=h or Zero(1), g=g or Zero(1), A=LinearMap.identity(1), c=c
    )


def constant_trace(problem, x, z, y, iters):
    """A synthetic trace sitting at one point (a fixed-point trajectory)."""
    trace = RunTrace()
    for _ in range(iters + 1):
        trace.xs.append(np.array(x, dtype=float))
        trace.zs.append(np.array(z, dtype=float))
        trace.ys.append(np.array(y, dtype=float))
    trace.residual_norms = [
        float(np.linalg.norm(problem.A.apply(trace.xs[k]) - trace.zs[k]))
        for k in range(1, iters + 1)
    ]
    return trace


@pytest.fixture(scope="module")
def toy_run():
    problem, _ = build_problem("toy1d")
    m1 = MetricOperator.scaled_identity(1, 1.0)
    m2 = MetricOperator.scaled_identity(1, 1.0)
    s1, s2 = ConstantSchedule(m1), ConstantSchedule(m2)
    state, trace = run(
        problem, initial_state(problem), s1, s2, StoppingRule(max_iters=400)
    )
    return problem, trace, m1, m2


# ---------------------------------------------------------------------------
# Lagrangians
# ---------------------------------------------------------------------------


def test_lagrangian_all_zero_functions():
    P = scalar_problem()
    x, z, y = np.array([2.0]), np.array([1.0]), np.array([3.0])
    assert dg.lagrangian(P, x, z, y) == pytest.approx(3.0)  # <y, Ax - z>


def test_lagrangian_feasible_point_ignores_y():
    P = scalar_problem(f=L1Norm(1, 1.0), g=SquaredL2(1, 0.0, 1.0))
    x = np.array([2.0])
    v1 = dg.lagrangian(P, x, x, np.array([5.0]))
    v2 = dg.lagrangian(P, x, x, np.array([-7.0]))
    assert v1 == pytest.approx(v2)
    assert v1 == pytest.approx(2.0 + 2.0)


def test_lagrangian_hand_value():
    P = scalar_problem(f=L1Norm(1, 1.0), g=SquaredL2(1, 0.0, 1.0))
    val = dg.lagrangian(P, np.array([1.0]), np.array([1.0]), np.array([2.0]))
    assert val == pytest.approx(1.5)


def test_lagrangian_propagates_infinity():
    from vmadmm.functions import BoxIndicator

    P = scalar_problem(f=BoxIndicator(1, 0.0, 1.0))
    assert dg.lagrangian(P, np.array([2.0]), np.array([0.0]), np.array([1.0])) == math.inf


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_zero_at_feasible_start():
    P = scalar_problem()
    init = initial_state(P, [1.0], [1.0], [0.5])
    m = MetricOperator.zero(1)
    probe = (init.x, init.z, init.y)
    assert dg.gamma(P, init, m, m, probe) == pytest.approx(0.0)


def test_gamma_infeasible_start():
    P = scalar_problem(c=2.0)
    init = initial_state(P, [1.0], [0.0], [0.0])
    m = MetricOperator.zero(1)
    probe = (init.x, init.z, init.y)
    assert dg.gamma(P, init, m, m, probe) == pytest.approx(1.0)  # (c/2)||Ax0 - z0||^2


def test_gamma_hand_value():
    P = scalar_problem(c=2.0)
    init = initial_state(P, [0.0], [0.0], [0.0])
    m = MetricOperator.zero(1)
    probe = (np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert dg.gamma(P, init, m, m, probe) == pytest.approx(1.0)
    # each metric term on its own, then both: at x - x0 = 1, z - z0 = 0.5,
    # (c/2)||x - z0||^2 = 1, (1/2)||x - x0||^2_M1 = 1.5 and
    # (1/2)||z - z0||^2_M2 = 0.5
    probe = (np.array([1.0]), np.array([0.5]), np.array([0.0]))
    s1, s2 = MetricOperator.scaled_identity(1, 3.0), MetricOperator.scaled_identity(1, 4.0)
    d1, d2 = MetricOperator.diagonal([3.0]), MetricOperator.diagonal([4.0])
    for m1, m2, want in [(m, m, 1.0), (s1, m, 2.5), (m, s2, 1.5), (s1, s2, 3.0),
                         (d1, m, 2.5), (m, d2, 1.5), (d1, d2, 3.0)]:
        assert dg.gamma(P, init, m1, m2, probe) == pytest.approx(want)


# ---------------------------------------------------------------------------
# ergodic averages and gap certificates
# ---------------------------------------------------------------------------


def test_ergodic_averager_matches_fsum():
    rng = np.random.default_rng(17)
    avg = KahanAverager(3, 2)
    xs, zs, ys = [], [], []
    k = 500
    for _ in range(k):
        x, z, y = rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(2)
        xs.append(x)
        zs.append(z)
        ys.append(y)
        avg.update(x, z, y)
    for i in range(3):
        exact = math.fsum(float(v[i]) for v in xs) / k
        assert abs(avg.means[i] - exact) <= 1e-13 * k


def test_gap_bound_halves_when_k_doubles():
    P, _ = build_problem("toy1d")
    avg = KahanAverager(1, 1)
    probe = (np.zeros(1), np.zeros(1), np.zeros(1))
    for _ in range(10):
        avg.update(np.ones(1), np.ones(1), np.zeros(1))
    c10 = gap_at(P, avg, probe, 8.0)
    for _ in range(10):
        avg.update(np.ones(1), np.ones(1), np.zeros(1))
    c20 = gap_at(P, avg, probe, 8.0)
    assert c10.bound == pytest.approx(2.0 * c20.bound)
    assert c10.bound == pytest.approx(8.0 / 10) and c20.bound == pytest.approx(8.0 / 20)


def test_gap_certificate_saddle_probe_sign(toy1d_oracle):
    # at a saddle probe the gap is nonnegative and below gamma/k
    P, _ = build_problem("toy1d")
    s1 = ShiftedGramSchedule(0.5, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(1))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=300))
    orc = toy1d_oracle
    probe = (orc.x, orc.z, orc.y)
    gamma0 = dg.gamma(P, initial_state(P, trace.xs[0], trace.zs[0], trace.ys[0]),
                      s1.metric(0), s2.metric(0), probe)
    avg = KahanAverager(1, 1)
    for k in range(1, trace.iterations + 1):
        avg.update(trace.xs[k], trace.zs[k], trace.ys[k])
        cert = gap_at(P, avg, probe, gamma0)
        assert math.isfinite(cert.gap)
        assert cert.gap >= -1e-8
        assert cert.slack >= -1e-8


def test_gap_bound_holds_at_random_probes(toy1d_oracle):
    # the bound is per-probe: gamma is evaluated at the same (x, z, y)
    P, _ = build_problem("toy1d")
    s1 = ShiftedGramSchedule(0.5, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(1))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=200))
    orc = toy1d_oracle
    probes = list(dg.ball_probes((orc.x, orc.z, orc.y), 10, seed=3))
    for probe in probes:
        gamma0 = dg.gamma(P, initial_state(P, trace.xs[0], trace.zs[0], trace.ys[0]),
                          s1.metric(0), s2.metric(0), probe)
        avg = KahanAverager(1, 1)
        for k in range(1, trace.iterations + 1):
            avg.update(trace.xs[k], trace.zs[k], trace.ys[k])
            cert = gap_at(P, avg, probe, gamma0)
            assert cert.slack >= -1e-8


def test_gap_certificate_reports_infinite_probe():
    from vmadmm.functions import BoxIndicator

    P = scalar_problem(f=BoxIndicator(1, 0.0, 1.0))
    avg = KahanAverager(1, 1)
    avg.update(np.array([0.5]), np.array([0.5]), np.zeros(1))
    probe = (np.array([9.0]), np.array([9.0]), np.zeros(1))  # outside the box
    cert = gap_at(P, avg, probe, 1.0)
    assert not math.isfinite(cert.gap)  # reported, not thrown


# ---------------------------------------------------------------------------
# u/v energies
# ---------------------------------------------------------------------------


def test_uv_zero_at_exact_saddle():
    P, _ = build_problem("toy1d")
    xs, zs, ys = toy1d_saddle()
    trace = constant_trace(P, xs, zs, ys, iters=5)
    m = MetricOperator.scaled_identity(1, 1.0)
    u, v = dg.uv_energies(P, trace, (xs, zs, ys), m, m)
    assert np.allclose(u, 0.0)
    assert np.allclose(v, 0.0)


def test_uv_stationary_trace_v_zero():
    P, _ = build_problem("toy1d")
    point = (np.array([0.3]), np.array([0.3]), np.array([0.1]))
    trace = constant_trace(P, *point, iters=6)
    m = MetricOperator.scaled_identity(1, 1.0)
    saddle = toy1d_saddle()
    u, v = dg.uv_energies(P, trace, saddle, m, m)
    assert np.allclose(v, 0.0)
    assert np.all(u > 0.0)  # off the saddle, distances stay positive


def test_uv_requires_zero_smooth_term(tv1d):
    P, _ = tv1d  # tv1d has a nonzero smooth term
    trace = constant_trace(P, np.zeros(P.n), np.zeros(P.m), np.zeros(P.m), 3)
    m1 = MetricOperator.zero(P.n)
    m2 = MetricOperator.zero(P.m)
    with pytest.raises(UnsupportedSetting):
        dg.uv_energies(P, trace, (np.zeros(P.n), np.zeros(P.m), np.zeros(P.m)), m1, m2)


def test_uv_spreadsheet_recomputation(toy_run, toy1d_oracle):
    # recompute u/v for the first five iterations with plain Python floats
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    saddle = (orc.x, orc.z, orc.y)
    u, v = dg.uv_energies(P, trace, saddle, m1, m2)
    mu1 = mu2 = 1.0
    c = P.c
    xs = [float(val[0]) for val in trace.xs]
    zs = [float(val[0]) for val in trace.zs]
    ys = [float(val[0]) for val in trace.ys]
    xst, zst, yst = float(orc.x[0]), float(orc.z[0]), float(orc.y[0])
    for k in range(1, 6):
        u_manual = (
            mu1 * (xst - xs[k]) ** 2
            + (mu2 + c) * (zst - zs[k]) ** 2
            + (yst - ys[k]) ** 2 / c
            + mu2 * (zs[k] - zs[k - 1]) ** 2
        )
        v_manual = (
            mu1 * (xs[k] - xs[k - 1]) ** 2
            + (mu2 + c) * (zs[k] - zs[k - 1]) ** 2
            + (ys[k] - ys[k - 1]) ** 2 / c
        )
        assert u[k - 1] == pytest.approx(u_manual, rel=1e-12, abs=1e-14)
        assert v[k - 1] == pytest.approx(v_manual, rel=1e-12, abs=1e-14)


def test_inequality_v_fixed_point_slack_zero():
    P, _ = build_problem("toy1d")
    xs, zs, ys = toy1d_saddle()
    trace = constant_trace(P, xs, zs, ys, iters=6)
    m = MetricOperator.scaled_identity(1, 1.0)
    u, v = dg.uv_energies(P, trace, (xs, zs, ys), m, m)
    slacks = dg.inequality_v_check(u, v, z_steps_sq(trace), P.c)
    for s in slacks:
        assert abs(s) <= 1e-14


def test_inequality_v_holds_on_run(toy_run, toy1d_oracle):
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    u, v = dg.uv_energies(P, trace, (orc.x, orc.z, orc.y), m1, m2)
    slacks = dg.inequality_v_check(u, v, z_steps_sq(trace), P.c)
    assert min(slacks) >= -1e-10


def test_inequality_v_detects_corrupted_trace(toy_run, toy1d_oracle):
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    corrupted = RunTrace()
    corrupted.xs = [x.copy() for x in trace.xs]
    corrupted.zs = [z.copy() for z in trace.zs]
    corrupted.ys = [y.copy() for y in trace.ys]
    # fault injection late in the run, where the genuine slack is near zero
    corrupted.ys[350] = corrupted.ys[350] + 0.05
    u, v = dg.uv_energies(P, corrupted, (orc.x, orc.z, orc.y), m1, m2)
    slacks = dg.inequality_v_check(u, v, z_steps_sq(corrupted), P.c)
    assert min(slacks) < -1e-10


def test_inequality_v_detects_a_corrupted_last_iterate(toy_run, toy1d_oracle):
    # the step K-1 -> K is checked too: a fault in the last iterate alone shows
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    corrupted = RunTrace(list(trace.xs), list(trace.zs), list(trace.ys))
    corrupted.ys[-1] = corrupted.ys[-1] + 0.05
    u, v = dg.uv_energies(P, corrupted, (orc.x, orc.z, orc.y), m1, m2)
    slacks = dg.inequality_v_check(u, v, z_steps_sq(corrupted), P.c)
    assert len(slacks) == trace.iterations - 1
    assert min(slacks[:-1]) >= -1e-10 > slacks[-1]


def test_v_monotone_on_run(toy_run, toy1d_oracle):
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    _, v = dg.uv_energies(P, trace, (orc.x, orc.z, orc.y), m1, m2)
    ok, first = dg.v_monotone_check(v, CHECK_TOLERANCES["v_monotone"])
    assert ok and first is None


def test_v_monotone_reports_first_violation():
    v = np.array([2.0, 1.0, 0.5, 0.7, 0.9])  # v_4 > v_3: first increase
    ok, first = dg.v_monotone_check(v, CHECK_TOLERANCES["v_monotone"])
    assert not ok and first == 4


def test_uncorrected_inequality_logged_not_asserted(toy_run, toy1d_oracle):
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    u, v = dg.uv_energies(P, trace, (orc.x, orc.z, orc.y), m1, m2)
    slacks = dg.inequality_v_check(u, v, z_steps_sq(trace), 0.0)
    assert len(slacks) == trace.iterations - 1  # values exist as findings, no assertion


# ---------------------------------------------------------------------------
# feasibility rate
# ---------------------------------------------------------------------------


def test_feasibility_rate_feasible_trace():
    P, _ = build_problem("toy1d")
    x = np.array([0.7])
    trace = constant_trace(P, x, x, np.array([0.2]), iters=10)
    bounds = dg.feasibility_rate(trace.residual_norms, P.c, u1=1.0, dz_sq=np.zeros(10))
    for resid, bound in zip(trace.residual_norms[1:], bounds, strict=True):
        assert resid == 0.0
        assert resid <= bound


def test_feasibility_bound_sqrt_scaling():
    P, _ = build_problem("toy1d")
    trace = constant_trace(P, np.zeros(1), np.zeros(1), np.zeros(1), iters=10)
    bounds = dg.feasibility_rate(trace.residual_norms, 1.0, u1=4.0, dz_sq=np.zeros(10))
    rates = dict(zip(range(2, 11), bounds, strict=True))
    # bound is proportional to 1/sqrt(k - 1): quadrupling (k-1) halves it
    assert rates[2] == pytest.approx(2.0 * rates[5])


def test_feasibility_bound_sums_the_step_energy_in_order():
    # 1 + 1e-16 rounds back to 1 at each step of a sequential sum, while a
    # pairwise or compensated sum keeps the small terms: the bound takes the
    # step energy S summed in iteration order
    dz_sq = np.array([1.0] + [1e-16] * 15)
    S_seq = 0.0
    for step in dz_sq.tolist():
        S_seq += step
    assert S_seq != float(np.sum(dz_sq)) and S_seq != math.fsum(dz_sq)
    c, u1 = 2.0, 0.5
    bounds = dg.feasibility_rate(np.zeros(16), c, u1, dz_sq)
    assert bounds.tolist() == [math.sqrt((u1 + c * S_seq) / (c * (k - 1)))
                               for k in range(2, 17)]


def test_feasibility_rate_on_run(toy_run, toy1d_oracle):
    P, trace, m1, m2 = toy_run
    orc = toy1d_oracle
    u, v = dg.uv_energies(P, trace, (orc.x, orc.z, orc.y), m1, m2)
    bounds = dg.feasibility_rate(trace.residual_norms, P.c, u[0], z_steps_sq(trace))
    for resid, bound in zip(trace.residual_norms[1:], bounds, strict=True):
        assert resid <= bound


@pytest.mark.parametrize("c", [0.05, 0.1, 0.3, 3.0, 10.0])
def test_feasibility_bound_holds_for_any_penalty(c):
    # c ||A x_k - z_k||^2 <= v_k: the penalty divides the bound; with c as a
    # factor instead, the residual exceeds it for every c < 1 here
    P, _ = build_problem("toy1d", c=c)
    m = MetricOperator.scaled_identity(1, 1.0)
    sched = ConstantSchedule(m)
    _, trace = run(P, initial_state(P), sched, sched, StoppingRule(max_iters=300))
    u, _ = dg.uv_energies(P, trace, toy1d_saddle(), m, m)
    bounds = dg.feasibility_rate(trace.residual_norms, c, u[0], z_steps_sq(trace))
    assert np.max(np.subtract(trace.residual_norms[1:], bounds)) <= 0.0


@pytest.mark.parametrize("K", [0, 1, 2, 3, 17, 200])
def test_row_order_folds_equal_the_per_k_loops(K):
    # the array forms keep the bits of a Python fold over k, one float at a
    # time; v rises now and then, so the monotone check has something to find
    rng = np.random.default_rng(K)
    scales = 10.0 ** -rng.integers(0, 12, (4, K))
    u, v, dz_sq, residuals = rng.uniform(0.0, 1.0, (4, K)) * scales
    c, u1 = 1.7, float(u[0]) if K else 1.0
    for cc in (c, 0.0):
        want = [(u[k - 1] - u[k]) - (v[k] - cc * dz_sq[k]) for k in range(1, K)]
        got = dg.inequality_v_check(u, v, dz_sq, cc)
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
    for tol in (0.0, 1e-3):
        rises = [k for k in range(2, K + 1) if v[k - 1] > v[k - 2] + tol]
        ok, first = dg.v_monotone_check(v, tol)
        assert (ok, first) == ((True, None) if not rises else (False, rises[0]))
    S = 0.0
    for step in dz_sq.tolist():
        S += step
    want = [math.sqrt((u1 + c * S) / (c * (k - 1))) for k in range(2, K + 1)]
    assert dg.feasibility_rate(residuals, c, u1, dz_sq).tolist() == want


def test_loglog_slope_linear_decay():
    ks = range(10, 200)
    vals = [1.0 / k for k in ks]
    assert dg.loglog_slope(ks, vals) == pytest.approx(-1.0, abs=1e-9)
    sq = [1.0 / math.sqrt(k) for k in ks]
    assert dg.loglog_slope(ks, sq) == pytest.approx(-0.5, abs=1e-9)
    assert dg.loglog_slope([1, 2, 3], [0.0, 0.0, 0.0]) == -math.inf


def _residual_tail(K):
    """A decaying residual column with converged (zero, subnormal) and NaN
    entries, as the certifier's tail of ``log.csv`` can hold."""
    values = np.geomspace(1.0, 1e-9, K) * (1.0 + 0.3 * np.sin(np.arange(K)))
    values[K // 3 :: 97] = 0.0
    values[K // 2 :: 89] = 1e-310
    values[7 % K] = math.nan
    return values


def test_loglog_slope_keeps_the_bits_of_the_per_point_logs():
    for K in (2, 3, 9, 50, 3000):
        ks, values = range(2, K + 2), _residual_tail(K)
        pts = [(math.log(k), math.log(v)) for k, v in zip(ks, values) if v > 1e-300]
        want = -math.inf
        if len(pts) >= 2:
            want = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
        assert dg.loglog_slope(ks, values) == want, K


def test_loglog_slope_peaks_at_a_few_floats_per_point():
    # no Python object per point: the logs go straight into two arrays, and
    # the least-squares fit holds a few more copies
    K = 3000
    ks, values = range(2, K + 2), _residual_tail(K)
    dg.loglog_slope(ks, values)  # one-time allocations out of the way
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        dg.loglog_slope(ks, values)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * K


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------


def test_kkt_zero_at_hand_saddle():
    P, _ = build_problem("toy1d")
    xs, zs, ys = toy1d_saddle()
    assert dg.kkt_residual(P, xs, ys) <= 1e-12


def test_kkt_zero_at_oracle(tv1d, tv1d_oracle):
    P, _ = tv1d
    orc = tv1d_oracle
    assert dg.kkt_residual(P, orc.x, orc.y) <= 1e-10


def test_kkt_f_zero_reduction():
    # with f = 0 the first term is the norm of A*y + grad h(x)
    P, _ = build_problem("tv1d", n=10)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(P.n)
    y = np.zeros(P.m)  # second term vanishes: 0 is in the l1 subdifferential
    expected = float(np.linalg.norm(P.A.adjoint(y) + P.h.grad(x)))
    # make the g side inactive by picking y = 0 and |Ax| coordinates small
    x = np.zeros(P.n)
    expected = float(np.linalg.norm(P.h.grad(x)))
    assert dg.kkt_residual(P, x, y) == pytest.approx(expected)


def test_kkt_positive_away_from_saddle():
    P, _ = build_problem("toy1d")
    assert dg.kkt_residual(P, np.array([0.0]), np.array([0.0])) > 0.1


def test_kkt_negates_the_adjoint_in_place_not_the_dual_iterate():
    # a matrix-free adjoint may hand back its argument: the residual negates
    # a copy of it, and the dual iterate and its bits stay as they were
    n = 5
    P = ProblemSpec(f=Zero(n), h=SquaredL2(n, shift=np.arange(n, dtype=float)),
                    g=L1Norm(n, 0.5), A=LinearMap.matrix_free(n, n, lambda x: x,
                                                              lambda v: v), c=1.0)
    x = np.linspace(-1.0, 1.0, n)
    y = np.array([0.25, -0.5, 0.0, 1.5, -2.0])
    kept = y.copy()
    expected = max(float(np.linalg.norm(y + P.h.grad(x))),
                   L1Norm(n, 0.5).distance_to_subdifferential(x, y))
    assert dg.kkt_residual(P, x, y) == expected
    assert y.tobytes() == kept.tobytes()


# ---------------------------------------------------------------------------
# per-iteration inequality and the smooth-term bound
# ---------------------------------------------------------------------------


def test_iteration_inequality_on_genuine_run(tv1d, tv1d_oracle):
    P, meta = tv1d
    tau = 0.95 / (P.c * meta["norm_A"] ** 2 + meta["L"])
    s1 = ShiftedGramSchedule(tau, P.c, P.A)
    s2 = ConstantSchedule(MetricOperator.zero(P.m))
    state, trace = run(P, initial_state(P), s1, s2, StoppingRule(max_iters=120))
    orc = tv1d_oracle
    probes = list(dg.ball_probes((orc.x, orc.z, orc.y), 20, seed=2024))
    m1, m2 = s1.metric(0), s2.metric(0)
    for k in range(0, 120, 10):
        s_k = initial_state(P, trace.xs[k], trace.zs[k], trace.ys[k])
        s_next = initial_state(P, trace.xs[k + 1], trace.zs[k + 1], trace.ys[k + 1])
        # the iterate itself is a valid probe
        sl1, sl2 = dg.iteration_inequality_check(
            P, s_k, s_next, m1, m2, (s_next.x, s_next.z, s_next.y)
        )
        assert sl1 >= -1e-9 and sl2 >= -1e-9
        for probe in probes:
            sl1, sl2 = dg.iteration_inequality_check(P, s_k, s_next, m1, m2, probe)
            assert sl1 >= -1e-9
            assert sl2 >= -1e-9


def test_iteration_inequality_fixed_point_reduces_to_probe_terms():
    P, _ = build_problem("toy1d")
    xs, zs, ys = toy1d_saddle()
    fixed = initial_state(P, xs, zs, ys)
    m = MetricOperator.scaled_identity(1, 1.0)
    probe = (np.array([1.0]), np.array([0.5]), np.array([2.0]))
    sl1, sl2 = dg.iteration_inequality_check(P, fixed, fixed, m, m, probe)
    assert sl1 >= -1e-12
    assert abs(sl2) <= 1e-12  # both sides vanish with a zero step


# ---------------------------------------------------------------------------
# dual objective
# ---------------------------------------------------------------------------


def test_dual_objective_zero_f_and_h():
    P = scalar_problem(g=SquaredL2(1, 0.0, 1.0))
    assert dg.dual_objective(P, np.array([0.0])) == pytest.approx(0.0)
    assert dg.dual_objective(P, np.array([1.0])) == -math.inf


def test_dual_objective_closed_forms():
    P = scalar_problem(f=SquaredL2(1, 0.0, 1.0), g=L1Norm(1, 1.0))
    assert dg.dual_objective(P, np.array([0.5])) == pytest.approx(-0.125)


def test_dual_objective_strong_duality_at_oracle(tv1d, tv1d_oracle):
    P, _ = tv1d
    orc = tv1d_oracle
    primal = P.f(orc.x) + P.h(orc.x) + P.g(P.A.apply(orc.x))
    dual = dg.dual_objective(P, orc.y)
    assert abs(primal - dual) <= 1e-8


def test_dual_objective_unsupported():
    P = scalar_problem(f=L1Norm(1, 1.0), h=SquaredL2(1, 0.0, 1.0))
    with pytest.raises(UnsupportedSetting):
        dg.dual_objective(P, np.zeros(1))


# ---------------------------------------------------------------------------
# saddle inequality at probes
# ---------------------------------------------------------------------------


def test_saddle_point_inequality_at_probes(toy1d_oracle):
    P, _ = build_problem("toy1d")
    orc = toy1d_oracle
    l_star = dg.lagrangian(P, orc.x, orc.z, orc.y)
    for probe in list(dg.ball_probes((orc.x, orc.z, orc.y), 100, seed=5)):
        px, pz, py = probe
        assert dg.lagrangian(P, orc.x, orc.z, py) <= l_star + 1e-9
        assert l_star <= dg.lagrangian(P, px, pz, orc.y) + 1e-9


@pytest.mark.parametrize("call, error, match", [
    (lambda: dg.gap_certificate(1.0, 0.0, 1.0, 0), ValueError,
     "gap certificate needs k >= 1"),
    (lambda: dg.dual_objective(build_problem("toy1d")[0], [0.0, 0.0]),
     DimensionMismatch, "dual_objective y: expected dimension 1"),
], ids=["gap-k", "dual-y"])
def test_diagnostic_refusals_name_the_quantity(call, error, match):
    with pytest.raises(error, match=match):
        call()
