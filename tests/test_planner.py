import math

import numpy as np
import pytest

from qhetfed.planner import (
    DeadlinePlan,
    InfeasibleScheduleError,
    gamma_from_tau,
    grid_search_schedule,
    max_feasible_tau,
    objective_J,
    optimize_schedule,
    quadratic_coefficients,
    raw_objective,
)
from qhetfed.timing import LinkComputeParams, PhaseTimes, baseline_iteration_delay, compute_times, iteration_delay

# reference link budget: 1 MHz band, 0.5 W transmit power, 1e-10 W noise,
# 1e-8 channel gain -> SNR 50; 20 cycles/bit on a 1 GHz CPU with 1e8 bits
# per local pass and a 1e6-bit model
LINK = LinkComputeParams(
    bandwidth_hz=1e6,
    power_w=0.5,
    noise_w=1e-10,
    channel_gain=1e-8,
    cycles_per_bit=20,
    cpu_hz=1e9,
    bits_per_local_iter=1e8,
    model_bits=1e6,
    edge_cloud_ratio=10.0,
)


def _plan(deadline=15600.0, rounds=100):
    return DeadlinePlan(deadline_s=deadline, rounds=rounds, times=compute_times(LINK))


def test_compute_times_hand_values():
    t = compute_times(LINK)
    assert abs(t.t_cp - 2.0) < 1e-12
    # upload time is model_bits / (bandwidth * log2(1 + 50))
    expected = 1e6 / (1e6 * math.log2(51.0))
    assert abs(t.t_de - expected) / expected < 1e-12
    assert abs(t.t_de - 0.17629143) < 1e-6
    assert abs(t.t_ec - 10 * t.t_de) < 1e-12


def test_compute_times_direct_edge_cloud():
    lp = LinkComputeParams(
        bandwidth_hz=1e6, power_w=0.5, noise_w=1e-10, channel_gain=1e-8,
        cycles_per_bit=20, cpu_hz=1e9, bits_per_local_iter=1e8, model_bits=1e6,
        edge_cloud_time=3.5,
    )
    assert compute_times(lp).t_ec == 3.5


@pytest.mark.parametrize("power_w, noise_w, rate", [(1e-200, 1e200, "0.0"), (1e200, 1e-200, "inf")])
def test_compute_times_rejects_a_zero_or_infinite_rate(power_w, noise_w, rate):
    # every input is a finite positive number, but the SNR underflows to 0 or overflows to inf
    lp = LinkComputeParams(**dict(LINK._asdict(), power_w=power_w, noise_w=noise_w))
    message = f"link rate bandwidth_hz * log2(1 + snr) must be a finite positive number, got {rate}"
    with pytest.raises(ValueError) as exc:
        compute_times(lp)
    assert str(exc.value) == message

def test_iteration_delays():
    t = compute_times(LINK)
    d = iteration_delay(12, 3, t)
    assert abs(d - (15 * 2.0 + 22 * t.t_de)) < 1e-12
    assert abs(d - 33.878441) < 1e-4
    b = baseline_iteration_delay(12, 3, t)
    assert abs(b - (72.0 + 22 * t.t_de)) < 1e-12
    assert b > d


def test_gamma_from_tau_hand_value():
    plan = _plan()
    assert abs(gamma_from_tau(12.0, plan) - 64.06079422) < 1e-6
    # gamma spends exactly the per-iteration budget
    t = plan.times
    g = gamma_from_tau(12.0, plan)
    assert abs(iteration_delay(12.0, g, t) * plan.rounds - plan.deadline_s) < 1e-6


def test_max_feasible_tau_boundary():
    plan = _plan()
    hi = max_feasible_tau(plan)
    assert abs(hi - 69.95252715) < 1e-6
    assert abs(gamma_from_tau(hi, plan) - 1.0) < 1e-9


def test_objective_two_forms_agree():
    plan = _plan()
    for tau in (1.0, 5.0, 20.0, 60.0):
        g = gamma_from_tau(tau, plan)
        assert abs(objective_J(tau, plan, 11.9, 3, 60) - raw_objective(tau, g, 11.9, 3, 60)) < 1e-9


def _central_difference(tau, plan, q1, C, N, h=1e-5):
    return (objective_J(tau + h, plan, q1, C, N) - objective_J(tau - h, plan, q1, C, N)) / (2 * h)


def test_quadratic_coefficients_are_the_scaled_derivative():
    # the planner solves a0*tau^2 + b0*tau + c0 = 0, which is dJ/dtau times (tau + gamma(tau))^2
    plan = _plan()
    a0, b0, c0 = quadratic_coefficients(plan, 11.9, 3, 60)
    for tau in (2.0, 10.0, 35.0, 60.0):
        scaled = (tau + gamma_from_tau(tau, plan)) ** 2 * _central_difference(tau, plan, 11.9, 3, 60)
        quadratic = a0 * tau * tau + b0 * tau + c0
        assert abs(quadratic - scaled) < 1e-6 * max(1.0, abs(quadratic))


def test_quadratic_roots_are_stationary_points():
    plan = DeadlinePlan(deadline_s=900.0, rounds=10, times=PhaseTimes(1.0, 0.2, 2.0))
    q1, C, N = 30.0, 2, 30
    a0, b0, c0 = quadratic_coefficients(plan, q1, C, N)
    disc = b0 * b0 - 4 * a0 * c0
    assert disc > 0
    roots = [(-b0 - math.sqrt(disc)) / (2 * a0), (-b0 + math.sqrt(disc)) / (2 * a0)]
    feasible = [root for root in roots if 1.0 <= root <= max_feasible_tau(plan)]
    assert feasible
    for root in feasible:
        assert abs(_central_difference(root, plan, q1, C, N)) < 1e-6


def test_optimizer_takes_the_boundary_when_roots_fall_outside():
    plan = _plan()
    choice = optimize_schedule(plan, 11.9, 3, 60)
    hi = max_feasible_tau(plan)
    assert abs(choice.tau - hi) < 1e-9
    assert choice.gamma == 1.0
    assert abs(choice.j_value - 45.11938001) < 1e-6
    assert choice.tau_int == 69
    assert choice.gamma_int == 2
    # the integer pair still fits the deadline
    delay = iteration_delay(choice.tau_int, choice.gamma_int, plan.times)
    assert plan.rounds * delay <= plan.deadline_s + 1e-9
    assert abs(delay - 155.92702332) < 1e-6


def test_optimizer_agrees_with_grid_on_reference_plan():
    plan = _plan()
    choice = optimize_schedule(plan, 11.9, 3, 60)
    grid = grid_search_schedule(plan, 11.9, 3, 60)
    assert grid.tau == 69
    assert abs(choice.tau_int - grid.tau) <= 1
    assert abs(objective_J(float(choice.tau_int), plan, 11.9, 3, 60) - grid.j_value) <= 0.02 * grid.j_value


def test_expensive_quantization_pins_tau_to_one():
    # a heavy per-upload variance penalty makes J increasing from tau=1
    plan = DeadlinePlan(deadline_s=230.0, rounds=10, times=PhaseTimes(1.0, 0.2, 2.0))
    q1, C, N = 49.0, 2, 20
    choice = optimize_schedule(plan, q1, C, N)
    grid = grid_search_schedule(plan, q1, C, N)
    assert choice.tau == 1.0
    assert choice.tau_int == 1
    assert grid.tau == 1


def test_minimum_is_always_on_a_boundary():
    # dJ * A^2 is a parabola with vertex at tau = P/r, beyond feasibility,
    # so the feasible minimizer is tau=1 or the gamma=1 boundary
    plan = DeadlinePlan(deadline_s=900.0, rounds=10, times=PhaseTimes(1.0, 0.2, 2.0))
    for q1 in (0.5, 5.0, 30.0, 120.0):
        for C, N in ((2, 30), (4, 40)):
            choice = optimize_schedule(plan, q1, C, N)
            hi = max_feasible_tau(plan)
            assert choice.tau == 1.0 or abs(choice.tau - hi) < 1e-9
            grid = grid_search_schedule(plan, q1, C, N)
            assert abs(choice.tau_int - grid.tau) <= 1


def test_degenerate_quadratic_falls_back_to_boundaries():
    # r = 1 and K = 4/3 collapse the stationarity equation entirely
    plan = DeadlinePlan(deadline_s=300.0, rounds=10, times=PhaseTimes(1.0, 1.0, 2.0))
    choice = optimize_schedule(plan, 3.0, 1, 3)
    assert abs(choice.a0) < 1e-12
    assert abs(choice.b0) < 1e-12
    assert 1.0 in choice.candidates
    assert any(abs(c - max_feasible_tau(plan)) < 1e-9 for c in choice.candidates)


def test_infeasible_deadline_raises():
    # P = 2 leaves gamma(1) = 0.8 under the deadline
    plan = DeadlinePlan(deadline_s=30.0, rounds=10, times=PhaseTimes(1.0, 0.2, 1.0))
    with pytest.raises(InfeasibleScheduleError):
        optimize_schedule(plan, 1.0, 1, 2)
    with pytest.raises(InfeasibleScheduleError):
        grid_search_schedule(plan, 1.0, 1, 2)


def test_plan_validation():
    with pytest.raises(ValueError):
        PhaseTimes(0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        DeadlinePlan(deadline_s=1.0, rounds=10, times=PhaseTimes(1.0, 0.1, 1.0))
    # values are checked, not cast: a count takes an integer, and no number a bool
    times = PhaseTimes(1.0, 0.1, 1.0)
    for rounds in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="rounds"):
            DeadlinePlan(deadline_s=100.0, rounds=rounds, times=times)
    with pytest.raises(ValueError, match="deadline"):
        DeadlinePlan(deadline_s=True, rounds=1, times=PhaseTimes(0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="t_cp"):
        PhaseTimes(True, 0.1, 1.0)
    with pytest.raises(ValueError, match="power_w"):
        LinkComputeParams(**{**LINK._asdict(), "power_w": True})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_plan_inputs_must_be_positive_and_finite(bad):
    # NaN fails every comparison, so each check is written as the valid range
    with pytest.raises(ValueError, match="t_de"):
        PhaseTimes(1.0, bad, 1.0)
    with pytest.raises(ValueError, match="bandwidth_hz"):
        LinkComputeParams(**{**LINK._asdict(), "bandwidth_hz": bad})
    with pytest.raises(ValueError, match="edge_cloud_time"):
        LinkComputeParams(**{**LINK._asdict(), "edge_cloud_time": bad})
    with pytest.raises(ValueError, match="deadline"):
        DeadlinePlan(deadline_s=bad, rounds=10, times=PhaseTimes(1.0, 0.1, 1.0))
    plan = _plan()
    for schedule in (optimize_schedule, grid_search_schedule):
        with pytest.raises(ValueError, match="num_sets"):
            schedule(plan, 1.0, bad, 60)
        with pytest.raises(ValueError, match="num_devices"):
            schedule(plan, 1.0, 3, bad)
        with pytest.raises(ValueError, match="num_sets <= num_devices"):
            schedule(plan, 1.0, 70, 60)
        # bad - 1 is NaN, infinite or negative: q1 may be 0 but not below
        with pytest.raises(ValueError, match="q1"):
            schedule(plan, bad - 1.0, 3, 60)


def test_objective_rejects_infeasible_tau():
    plan = _plan()
    with pytest.raises(InfeasibleScheduleError):
        objective_J(max_feasible_tau(plan) + 1.0, plan, 1.0, 3, 60)
