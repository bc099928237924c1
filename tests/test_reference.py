import numpy as np
import pytest

from helpers import condat_trajectory
from vmadmm.errors import CapabilityError
from vmadmm.functions import L1Norm, SquaredL2, Zero
from vmadmm.linops import LinearMap, MetricOperator
from vmadmm.problems import build_problem, toy1d_saddle
from vmadmm.reference import (
    check_step_sizes,
    classical_admm_step,
    condat_step,
    trajectory_deviations,
)
from vmadmm.solver import (
    ConstantSchedule,
    ShiftedGramSchedule,
    StoppingRule,
    initial_state,
    run,
)


# ---------------------------------------------------------------------------
# classical alternating-direction steps
# ---------------------------------------------------------------------------


def test_classical_step_equals_solver_with_zero_metrics(lasso_g):
    P, _ = lasso_g
    s_zero_n = ConstantSchedule(MetricOperator.zero(P.n))
    s_zero_m = ConstantSchedule(MetricOperator.zero(P.m))
    state, trace = run(
        P, initial_state(P), s_zero_n, s_zero_m, StoppingRule(max_iters=100)
    )
    x = np.zeros(P.n)
    z = np.zeros(P.m)
    y = np.zeros(P.m)
    for k in range(1, 101):
        x, z, y = classical_admm_step(P.f, P.g, P.A, P.c, x, z, y)
        assert np.max(np.abs(x - trace.xs[k])) <= 1e-12
        assert np.max(np.abs(z - trace.zs[k])) <= 1e-12
        assert np.max(np.abs(y - trace.ys[k])) <= 1e-12


def test_classical_step_fixed_point_at_saddle():
    P, _ = build_problem("toy1d")
    xs, zs, ys = toy1d_saddle()
    x, z, y = classical_admm_step(P.f, P.g, P.A, P.c, xs, zs, ys)
    assert np.max(np.abs(x - xs)) <= 1e-12
    assert np.max(np.abs(z - zs)) <= 1e-12
    assert np.max(np.abs(y - ys)) <= 1e-12


def test_classical_step_quadratic_f_path():
    # f quadratic with a non-identity map exercises the linear-solve branch
    rng = np.random.default_rng(4)
    from vmadmm.functions import Quadratic

    A = LinearMap.from_dense(rng.standard_normal((5, 3)))
    f = Quadratic(np.eye(3), None)
    g = SquaredL2(5, shift=rng.standard_normal(5), weight=1.0)
    x, z, y = classical_admm_step(
        f, g, A, 1.0, np.zeros(3), np.zeros(5), np.zeros(5)
    )
    # stationarity of the x subproblem: Q x + c A*(Ax - z + y/c) = 0
    grad = f.grad(x) + 1.0 * A.adjoint(A.apply(x) - np.zeros(5))
    assert np.max(np.abs(grad)) <= 1e-10


def test_classical_step_rejects_hard_subproblem():
    A = LinearMap.from_dense([[1.0, 1.0]])
    f = L1Norm(2, 1.0)
    with pytest.raises(CapabilityError):
        classical_admm_step(f, Zero(1), A, 1.0, np.zeros(2), np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# primal-dual iteration
# ---------------------------------------------------------------------------


def test_check_step_sizes_enforces_step_condition():
    A = LinearMap.identity(2)
    h = SquaredL2(2, 0.0, 1.0)  # L = 1
    with pytest.raises(ValueError, match="1/tau - c"):
        check_step_sizes(h, A, tau=1.0, c=1.0)
    assert check_step_sizes(h, A, tau=0.5, c=1.0) is None


@pytest.mark.parametrize("tau, c", [
    (0.0, 1.0), (-0.5, 1.0), (0.5, 0.0), (0.5, -1.0),
    (float("nan"), 1.0), (0.5, float("nan")),
])
def test_check_step_sizes_rejects_a_step_that_is_not_positive(tau, c):
    with pytest.raises(ValueError, match="tau and c must be positive"):
        check_step_sizes(Zero(2), LinearMap.identity(2), tau, c)


def test_check_step_sizes_rejects_a_nan_lipschitz_constant():
    h = SquaredL2(2, 0.0, 1.0)
    h.lipschitz = float("nan")
    with pytest.raises(ValueError, match="1/tau - c"):
        check_step_sizes(h, LinearMap.identity(2), tau=0.5, c=1.0)


def test_condat_zero_g_pins_dual_at_zero():
    # the conjugate of zero is the indicator of {0}: y stays 0 forever
    A = LinearMap.identity(2)
    x, y = np.ones(2), np.ones(2)
    for _ in range(3):
        x, y = condat_step(Zero(2), Zero(2), Zero(2), A, x, y, 0.5, 1.0)
        assert np.array_equal(y, np.zeros(2))


def test_condat_trivial_fixed_point():
    # f = h = 0 and A the zero map: x never moves
    A = LinearMap.from_dense(np.zeros((2, 2)))
    x0 = np.array([1.0, -2.0])
    x, y = x0, np.zeros(2)
    for _ in range(3):
        x, y = condat_step(Zero(2), Zero(2), Zero(2), A, x, y, 0.5, 1.0)
        assert np.array_equal(x, x0)


def test_condat_matches_solver_tv1d(tv1d):
    P, meta = tv1d
    tau = 0.9 / (P.c * meta["norm_A"] ** 2 + meta["L"])
    sched1 = ShiftedGramSchedule(tau, P.c, P.A)
    sched2 = ConstantSchedule(MetricOperator.zero(P.m))
    init = initial_state(P)
    state, trace = run(P, init, sched1, sched2, StoppingRule(max_iters=200))
    ref_xs, ref_ys = condat_trajectory(P, init, tau, 200)
    dx = trajectory_deviations([(x,) for x in trace.xs[1:]], [(x,) for x in ref_xs])
    dy = trajectory_deviations([(y,) for y in trace.ys[1:200]], [(y,) for y in ref_ys])
    assert (len(dx), len(dy)) == (200, 199)
    assert np.all(dx <= 1e-10) and np.all(dy <= 1e-10)


def test_condat_varying_steps_run():
    # nondecreasing step sequences are exercised even without a guarantee
    P, meta = build_problem("toy1d")
    taus = [0.3, 0.4, 0.5]
    sched1 = ShiftedGramSchedule(taus, P.c, P.A)
    sched2 = ConstantSchedule(MetricOperator.zero(P.m))
    state, trace = run(P, initial_state(P), sched1, sched2, StoppingRule(max_iters=50))
    assert trace.iterations == 50


# ---------------------------------------------------------------------------
# trajectory deviations
# ---------------------------------------------------------------------------


def test_equivalence_identical_traces():
    trace = [(np.array([1.0, 2.0]),), (np.array([3.0, 4.0]),)]
    copies = [tuple(np.copy(v) for v in t) for t in trace]
    assert trajectory_deviations(trace, copies).tolist() == [0.0, 0.0]


def test_equivalence_reports_first_offender():
    a = [(np.array([1.0]),), (np.array([2.0]),), (np.array([3.0]),)]
    b = [(np.array([1.0]),), (np.array([2.5]),), (np.array([9.0]),)]
    deviations = trajectory_deviations(a, b)
    assert deviations.tolist() == [0.0, 0.5, 6.0]
    assert int(np.argmax(deviations > 1e-10)) == 1


def test_trajectory_deviations_take_the_largest_component_and_keep_nan():
    a = [(np.zeros(2), np.zeros(1)), (np.zeros(2), np.zeros(1))]
    b = [(np.array([0.5, -2.0]), np.array([1.0])), (np.zeros(2), np.array([np.nan]))]
    deviations = trajectory_deviations(a, b)
    assert deviations[0] == 2.0
    assert np.isnan(deviations[1])


def test_equivalence_length_mismatch():
    with pytest.raises(ValueError):
        trajectory_deviations([(np.zeros(1),)], [])
