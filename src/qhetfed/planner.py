"""Deadline-constrained schedule optimization over ``timing``'s delay model.

Given a total deadline ``T_d`` for ``T`` global iterations, the deadline fixes
gamma as an affine function of tau, and the communication-error objective
J(tau) becomes a one-dimensional function whose stationary points solve a
quadratic.  ``optimize_schedule`` evaluates that
closed form; ``grid_search_schedule`` is the brute-force integer oracle used
to validate it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .checks import NON_NEGATIVE, check_count, check_number


class InfeasibleScheduleError(ValueError):
    """No (tau, gamma) with tau, gamma >= 1 fits inside the deadline."""


class DeadlinePlan(namedtuple("DeadlinePlan", "deadline_s rounds times")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_count(self.rounds, "rounds")
        check_number(self.deadline_s, "deadline_s")
        if not self.rounds * self.times.t_ec < self.deadline_s:
            raise ValueError("deadline_s must leave time for computation: need rounds * t_ec < deadline_s")
        return self


def _ratios(plan: DeadlinePlan) -> tuple[float, float]:
    """(r, P): upload/compute ratio and the compute-step budget net of t_ec."""
    t = plan.times
    r = t.t_de / t.t_cp
    P = plan.deadline_s / (plan.rounds * t.t_cp) - t.t_ec / t.t_cp
    if not math.isfinite(P):
        raise ValueError(f"the deadline ratio deadline_s / (rounds * t_cp) = {plan.deadline_s!r} / "
                         f"({plan.rounds} * {t.t_cp!r}) is too large for a float")
    return r, P


def gamma_from_tau(tau: float, plan: DeadlinePlan) -> float:
    """The gamma that exactly exhausts the deadline at the given tau.

    Real-valued and unclamped: values below 1 mean the tau is infeasible,
    which callers decide how to handle.
    """
    r, P = _ratios(plan)
    return P - (1.0 + r) * tau


def max_feasible_tau(plan: DeadlinePlan) -> float:
    """The tau at which gamma_from_tau reaches exactly 1."""
    r, P = _ratios(plan)
    return (P - 1.0) / (1.0 + r)


def raw_objective(tau: float, gamma: float, q1: float, C: int, N: int) -> float:
    """Communication-error objective at an explicit (tau, gamma) pair."""
    K = (C / N) * (1.0 + q1)
    return K * tau * (1.0 + (gamma - 1.0) / (tau + gamma)) + gamma * (gamma - 1.0) / (tau + gamma)


# feasibility slack for the gamma = 1 boundary: max_feasible_tau is derived
# from gamma_from_tau by exact algebra, but round-trips through floats, so the
# boundary tau can land a few ulps past gamma = 1
_GAMMA_EPS = 1e-9


def objective_J(tau: float, plan: DeadlinePlan, q1: float, C: int, N: int) -> float:
    """Objective as a function of tau alone, with gamma pinned by the deadline."""
    gamma = gamma_from_tau(tau, plan)
    if gamma < 1.0 - _GAMMA_EPS:
        raise InfeasibleScheduleError(
            f"tau={tau} leaves gamma={gamma:.4f} < 1 under the deadline"
        )
    return raw_objective(tau, max(gamma, 1.0), q1, C, N)


def quadratic_coefficients(plan: DeadlinePlan, q1: float, C: int, N: int) -> tuple[float, float, float]:
    """Coefficients (a0, b0, c0) of the stationarity equation a0*tau^2 + b0*tau + c0 = 0."""
    r, P = _ratios(plan)
    K = (C / N) * (1.0 + q1)
    M = K - 1.0 - r
    a0 = (M + K) * r * r + M * r
    b0 = -2.0 * M * P - 2.0 * P * r * (M + K)
    c0 = (M + K) * P * P - M * P - P * P - P * r
    return a0, b0, c0


class ScheduleChoice(NamedTuple):
    """Continuous optimum plus the deadline-respecting integer pair."""

    tau: float
    gamma: float
    j_value: float
    tau_int: int
    gamma_int: int
    j_int: float
    a0: float
    b0: float
    c0: float
    candidates: tuple[float, ...]


def check_objective_inputs(q1: float, C: int, N: int) -> None:
    """The objective's inputs: 1 <= C <= N sets and devices, and a finite q1 >= 0."""
    check_count(C, "num_sets")
    check_count(N, "num_devices")
    if C > N:
        raise ValueError(f"need 1 <= num_sets <= num_devices, got {C} sets and {N} devices")
    check_number(q1, "q1", NON_NEGATIVE)


def optimize_schedule(plan: DeadlinePlan, q1: float, C: int, N: int) -> ScheduleChoice:
    """Closed-form minimization of J over feasible tau.

    Candidates are the feasible quadratic roots plus both feasibility
    boundaries (tau = 1 and the tau where gamma hits 1).  The boundaries are
    load-bearing: dJ * A^2 is a parabola whose vertex sits at tau = P/r,
    beyond the feasible range, so on the feasible interval the derivative
    changes sign at most once and only from + to -, meaning interior
    stationary points are maxima and the minimum is always at a boundary.
    The roots stay in the candidate set as cheap insurance.  The integer pair
    rounds every candidate both ways and keeps the tau with the lowest pinned
    objective; rounding only the continuous winner is not safe, because a
    winner sitting just past an integer on a steep boundary can round to a
    worse tau than the losing boundary.  Gamma is recomputed from the
    deadline and floored, so the integer pair still meets the deadline.
    """
    check_objective_inputs(q1, C, N)
    if gamma_from_tau(1.0, plan) < 1.0:
        raise InfeasibleScheduleError(
            "deadline too tight: even tau=1 leaves gamma < 1"
        )
    tau_hi = max_feasible_tau(plan)
    a0, b0, c0 = quadratic_coefficients(plan, q1, C, N)
    scale = max(abs(a0), abs(b0), abs(c0), 1e-300)
    roots: list[float] = []
    if abs(a0) <= 1e-12 * scale:
        if b0 != 0.0:
            roots = [-c0 / b0]
    else:
        disc = b0 * b0 - 4.0 * a0 * c0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots = [(-b0 - sq) / (2.0 * a0), (-b0 + sq) / (2.0 * a0)]
    candidates = sorted({1.0, tau_hi, *(x for x in roots if 1.0 <= x <= tau_hi)})
    tau_best = min(candidates, key=lambda t: objective_J(t, plan, q1, C, N))
    gamma_best = max(gamma_from_tau(tau_best, plan), 1.0)
    j_best = raw_objective(tau_best, gamma_best, q1, C, N)

    int_taus = sorted(
        {max(1, math.floor(t)) for t in candidates}
        | {max(1, math.ceil(t)) for t in candidates}
    )
    int_pairs: list[tuple[int, float]] = []
    for ti in int_taus:
        g = gamma_from_tau(float(ti), plan)
        if g < 1.0 - _GAMMA_EPS:
            continue
        int_pairs.append((ti, objective_J(float(ti), plan, q1, C, N)))
    # tau = 1 is always in int_taus and always feasible here
    tau_int = min(int_pairs, key=lambda p: p[1])[0]
    gamma_int = max(1, math.floor(gamma_from_tau(float(tau_int), plan)))
    j_int = raw_objective(float(tau_int), float(gamma_int), q1, C, N)

    return ScheduleChoice(
        tau=tau_best,
        gamma=gamma_best,
        j_value=j_best,
        tau_int=tau_int,
        gamma_int=gamma_int,
        j_int=j_int,
        a0=a0,
        b0=b0,
        c0=c0,
        candidates=tuple(candidates),
    )


class GridResult(NamedTuple):
    tau: int
    gamma: float
    j_value: float


def grid_search_schedule(plan: DeadlinePlan, q1: float, C: int, N: int) -> GridResult:
    """Exhaustive integer-tau oracle over the feasible range ``1..floor(max_feasible_tau(plan))``.

    Evaluates the same deadline-pinned objective as ``objective_J``; gamma in
    the result is the real-valued deadline gamma at the winning tau.  An empty
    range is an ``InfeasibleScheduleError``.
    """
    check_objective_inputs(q1, C, N)
    best_tau = None
    best_j = math.inf
    for ti in range(1, math.floor(max_feasible_tau(plan)) + 1):
        if gamma_from_tau(float(ti), plan) < 1.0 - _GAMMA_EPS:
            break
        j = objective_J(float(ti), plan, q1, C, N)
        if j < best_j:
            best_tau, best_j = ti, j
    if best_tau is None:
        raise InfeasibleScheduleError("no integer tau with gamma >= 1 fits the deadline")
    return GridResult(tau=best_tau, gamma=gamma_from_tau(float(best_tau), plan), j_value=best_j)
