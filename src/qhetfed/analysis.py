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

from dataclasses import dataclass

import numpy as np

PREFER_HIGH_TAU = "prefer_high_tau"
PREFER_LOW_TAU = "prefer_low_tau"
INDIFFERENT = "indifferent"


@dataclass(frozen=True)
class TheoryParams:
    """Problem and algorithm constants the bounds are evaluated at.

    ``sigma2`` bounds the per-sample gradient variance, so the mini-batch
    noise floor is ``sigma2 / batch``.  ``devices_per_set`` fixes both the set
    count and the total device count.
    """

    L: float
    delta: float
    sigma2: float
    batch: int
    G2: float
    q1: float
    q2: float
    mu: float
    tau: int
    gamma: int
    T: int
    devices_per_set: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("L", "delta", "sigma2", "G2", "q1", "q2"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        for name in ("mu", "tau", "gamma", "T", "batch"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.devices_per_set or any(n < 1 for n in self.devices_per_set):
            raise ValueError("devices_per_set must be non-empty positive integers")

    @property
    def C(self) -> int:
        return len(self.devices_per_set)

    @property
    def N(self) -> int:
        return int(sum(self.devices_per_set))


@dataclass(frozen=True)
class LrConditions:
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


@dataclass(frozen=True)
class GapBound:
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


@dataclass(frozen=True)
class BaselineGapBound:
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


@dataclass(frozen=True)
class GapDecomposition:
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


def convergence_rate_bound(p: TheoryParams, T: int, gap0: float) -> float:
    """Bound on the average squared gradient norm over T global iterations."""
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    noise = p.sigma2 / p.batch
    return (
        2.0 * gap0 / (mu * (tau + gamma) * T)
        + (L**2 * mu**2 / 2.0)
        * noise
        * ((p.C / p.N) * (1.0 + p.q1) * tau * (1.0 + (gamma - 1.0) / (tau + gamma)) + gamma * (gamma - 1.0) / (tau + gamma))
        + L * mu * noise * (1.0 / p.N) * (1.0 + p.q2) * (1.0 + p.q1)
        + p.G2
    )


def single_set_gap_bound(p: TheoryParams, gap0: float) -> GapBound:
    """Specialized bound for one device set with an exact edge-to-cloud link.

    Only valid at C = 1 and q2 = 0; written out independently so the general
    calculator can be cross-checked against it.
    """
    if p.C != 1 or p.q2 != 0.0:
        raise ValueError("specialized bound requires C == 1 and q2 == 0")
    L, mu, tau, gamma = p.L, p.mu, p.tau, p.gamma
    noise = p.sigma2 / p.batch
    e = (L * mu**2 / 2.0) * noise * (
        (L * mu / p.N) * (1.0 + p.q1) * tau * ((tau - 1) / 2.0 + gamma)
        + L * mu * gamma * (gamma - 1) / 2.0
        + (1.0 / p.N) * (tau + gamma) * (1.0 + p.q1)
    ) + mu * (tau + gamma) * p.G2 / 2.0
    c = 1.0 - mu * (tau + gamma) * p.delta
    return GapBound(c=c, e=e, bound=_geometric_bound(c, e, gap0, p.T), contractive=abs(c) < 1.0)


def tau_preference(q1: float, N: int, C: int) -> str:
    """Which way to trade tau against gamma at a fixed tau + gamma budget.

    Cheap, accurate uplinks (small q1) favor many synchronized rounds; noisy
    uplinks favor local steps.  The threshold is q1 = N/C - 1.
    """
    if N < 1 or C < 1:
        raise ValueError("N and C must be positive")
    threshold = N / C - 1.0
    if q1 < threshold:
        return PREFER_HIGH_TAU
    if q1 > threshold:
        return PREFER_LOW_TAU
    return INDIFFERENT
