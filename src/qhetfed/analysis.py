"""Closed-form convergence theory calculators.

Under smoothness (constant L), a Polyak-Lojasiewicz condition (constant
delta), bounded gradient noise (sigma^2 / B per mini-batch), bounded
heterogeneity (G^2), and unbiased quantization with relative variance factors
q1 (device uplink) and q2 (edge uplink), the expected optimality gap after T
global iterations contracts geometrically with factor ``c`` toward a
persistent error floor ``e``:

    gap_T  <=  c^T * gap_0 + (1 - c^T) / (1 - c) * e.

Two algorithm families are covered: the gradient-aggregating scheme with tau
synchronized rounds plus gamma trailing local steps (contraction
``c = 1 - mu (tau + gamma) delta``), and the model-averaging baseline that
nests gamma local steps inside each of tau rounds (``c = 1 - mu tau gamma
delta``).  The baseline contracts faster but pays a strictly larger error
floor; ``error_gap_decomposition`` splits that excess into its four sources.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .checks import NON_NEGATIVE, POSITIVE, check_count, check_number
from .planner import check_objective_inputs, raw_objective

PREFER_HIGH_TAU = "prefer_high_tau"
PREFER_LOW_TAU = "prefer_low_tau"
INDIFFERENT = "indifferent"


class TheoryParams(namedtuple("TheoryParams", "L delta sigma2 batch G2 q1 q2 mu tau gamma T devices_per_set")):
    """Problem and algorithm constants the bounds are evaluated at.

    ``sigma2`` bounds the per-sample gradient variance, so the mini-batch
    noise floor is ``sigma2 / batch``.  ``devices_per_set`` fixes both the set
    count and the total device count.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("batch", "tau", "gamma", "T"):
            check_count(getattr(self, name), name)
        for name in ("L", "delta", "sigma2", "G2", "q1", "q2"):
            check_number(getattr(self, name), name, NON_NEGATIVE)
        check_number(self.mu, "mu", POSITIVE)
        # any sequence of counts, a list or a numpy array included, is stored as a tuple of ints
        counts = tuple(self.devices_per_set)
        if not counts:
            raise ValueError("devices_per_set must not be empty")
        for i, n in enumerate(counts):
            check_count(n, f"devices_per_set[{i}]")
        return self._replace(devices_per_set=tuple(int(n) for n in counts))

    @property
    def C(self) -> int:
        return len(self.devices_per_set)

    @property
    def N(self) -> int:
        return int(sum(self.devices_per_set))


class LrConditions(NamedTuple):
    cond_a: bool
    cond_b: bool
    lhs_a: float
    lhs_b: float


def check_lr_conditions(p: TheoryParams) -> LrConditions:
    """Feasibility of the learning rate for the gradient-aggregating scheme.

    Both left-hand sides must be non-negative.  Set-size imbalance enters
    through max_l N_l and max_l 1/N_l, which is why equal set sizes admit the
    widest feasible mu interval.
    """
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    q1, q2, N = p.q1, p.q2, p.N
    max_nl = max(p.devices_per_set)
    max_inv = 1.0 / min(p.devices_per_set)
    lhs_a = (
        1.0
        - L**2 * mu**2 * (tau * gamma + tau * (tau - 1) / 2.0 + q1 * (tau + gamma) * max_inv)
        - L * mu * (tau + q1 / N + q2 * q1 / N + tau * q2 * max_nl / N)
    )
    lhs_b = (
        1.0
        - L**2 * mu**2 * gamma * (gamma - 1) / 2.0
        - L * mu * gamma * (1.0 + (1.0 + q2) * q1 / N + q2 * max_nl / N)
    )
    return LrConditions(cond_a=lhs_a >= 0.0, cond_b=lhs_b >= 0.0, lhs_a=lhs_a, lhs_b=lhs_b)


def baseline_lr_condition(p: TheoryParams) -> tuple[bool, float]:
    """Single learning-rate condition for the model-averaging baseline."""
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    lhs = (
        1.0
        - L**2 * mu**2 * (gamma * (gamma - 1) / 2.0 + gamma * tau * (tau * (tau - 1) / 2.0 + p.q1 * tau))
        - L * mu * (1.0 + p.q2) * (gamma * tau + p.q1 * gamma / p.N)
    )
    return lhs >= 0.0, lhs


def _geometric_bound(c: float, e: float, gap0: float, T: int) -> float:
    # closed form of the recursion gap <- c * gap + e; |c| >= 1 still evaluates
    # to the exact recursion value, it just no longer contracts
    if c == 1.0:
        return gap0 + T * e
    cT = c**T
    return cT * gap0 + (1.0 - cT) / (1.0 - c) * e


class GapBound(NamedTuple):
    c: float
    e: float
    bound: float
    contractive: bool


def qhetfed_error_floor(p: TheoryParams) -> float:
    """Per-iteration error term e for the gradient-aggregating scheme."""
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    noise = p.sigma2 / p.batch
    inner = (
        (L * mu / p.N) * p.C * (1.0 + p.q1) * tau * ((tau - 1) / 2.0 + gamma)
        + L * mu * gamma * (gamma - 1) / 2.0
        + (1.0 / p.N) * (tau + gamma) * (1.0 + p.q2) * (1.0 + p.q1)
    )
    return (L * mu**2 / 2.0) * noise * inner + mu * (tau + gamma) * p.G2 / 2.0


def qhetfed_gap_bound(p: TheoryParams, gap0: float) -> GapBound:
    """Optimality-gap bound after ``p.T`` global iterations.

    ``contractive`` is False when |c| >= 1; the bound value is still the exact
    recursion value, it just grows with T instead of settling.
    """
    c = 1.0 - p.mu * (p.tau + p.gamma) * p.delta
    e = qhetfed_error_floor(p)
    return GapBound(c=c, e=e, bound=_geometric_bound(c, e, gap0, p.T), contractive=abs(c) < 1.0)


class BaselineGapBound(NamedTuple):
    c_bar: float
    e_bar: float
    bound: float
    contractive: bool
    cond: bool
    cond_lhs: float


def baseline_error_floor(p: TheoryParams) -> float:
    """Per-iteration error term for the model-averaging baseline."""
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    noise = p.sigma2 / p.batch
    inner = (
        (L * mu / p.N) * p.C * (1.0 + p.q1) * gamma**2 * tau * (tau - 1) / 2.0
        + L * mu * tau * gamma * (gamma - 1) / 2.0
        + (1.0 / p.N) * tau * gamma * (1.0 + p.q2) * (1.0 + p.q1)
    )
    return (L * mu**2 / 2.0) * noise * inner + mu * tau * gamma * p.G2 / 2.0


def baseline_gap_bound(p: TheoryParams, gap0: float) -> BaselineGapBound:
    c_bar = 1.0 - p.mu * p.tau * p.gamma * p.delta
    e_bar = baseline_error_floor(p)
    ok, lhs = baseline_lr_condition(p)
    return BaselineGapBound(
        c_bar=c_bar,
        e_bar=e_bar,
        bound=_geometric_bound(c_bar, e_bar, gap0, p.T),
        contractive=abs(c_bar) < 1.0,
        cond=ok,
        cond_lhs=lhs,
    )


class GapDecomposition(NamedTuple):
    d_q1: float
    d_q2: float
    d_local: float
    d_het: float
    delta_total: float


def error_gap_decomposition(p: TheoryParams) -> GapDecomposition:
    """Split of (baseline error floor - gradient-scheme error floor) by source.

    The four components sum to ``delta_total`` exactly.  The total is usually
    positive (the baseline pays more) but can go negative in corners such as
    tau = gamma = 1, where tau*gamma - tau - gamma < 0; no sign is asserted.
    """
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    noise = p.sigma2 / p.batch
    excess_rounds = tau * gamma - tau - gamma
    d_q1 = (
        (L**2 * mu**3 / (2.0 * p.N))
        * noise
        * p.C
        * (1.0 + p.q1)
        * ((gamma**2 - 1.0) * tau * (tau - 1) / 2.0 - tau * gamma)
    )
    d_q2 = (L * mu**2 / (2.0 * p.N)) * noise * (1.0 + p.q2) * (1.0 + p.q1) * excess_rounds
    d_local = (L**2 * mu**3 / 2.0) * noise * (tau - 1) * gamma * (gamma - 1) / 2.0
    d_het = (mu / 2.0) * p.G2 * excess_rounds
    delta_total = (
        (L * mu**2 / 2.0)
        * noise
        * (
            (L * mu / p.N)
            * p.C
            * (1.0 + p.q1)
            * (gamma**2 * tau * (tau - 1) / 2.0 - tau * (tau - 1) / 2.0 - tau * gamma)
            + (1.0 / p.N) * (1.0 + p.q2) * (1.0 + p.q1) * excess_rounds
            + L * mu * (tau - 1) * gamma * (gamma - 1) / 2.0
        )
        + (mu / 2.0) * p.G2 * excess_rounds
    )
    return GapDecomposition(
        d_q1=d_q1, d_q2=d_q2, d_local=d_local, d_het=d_het, delta_total=delta_total
    )


def convergence_rate_bound(p: TheoryParams, gap0: float) -> float:
    """Bound on the average squared gradient norm over ``p.T`` global iterations."""
    L, mu, tau, gamma, T = p.L, p.mu, p.tau, p.gamma, p.T
    noise = p.sigma2 / p.batch
    return (
        2.0 * gap0 / (mu * (tau + gamma) * T)
        + (L**2 * mu**2 / 2.0) * noise * raw_objective(tau, gamma, p.q1, p.C, p.N)
        + L * mu * noise * (1.0 / p.N) * (1.0 + p.q2) * (1.0 + p.q1)
        + p.G2
    )


def tau_preference(q1: float, N: int, C: int) -> str:
    """Which way to trade tau against gamma at a fixed tau + gamma budget.

    Cheap, accurate uplinks (small q1) favor many synchronized rounds; noisy
    uplinks favor local steps.  The threshold is q1 = N/C - 1, where the planner's
    weight (C/N)(1 + q1) crosses 1, so the inputs are checked as the planner's.
    """
    check_objective_inputs(q1, C, N)
    threshold = N / C - 1.0
    if q1 < threshold:
        return PREFER_HIGH_TAU
    if q1 > threshold:
        return PREFER_LOW_TAU
    return INDIFFERENT
