import numpy as np
import pytest

from qhetfed.analysis import (
    GapBound,
    INDIFFERENT,
    PREFER_HIGH_TAU,
    PREFER_LOW_TAU,
    TheoryParams,
    _gap_bound,
    baseline_error_floor,
    baseline_gap_bound,
    baseline_lr_condition,
    check_lr_conditions,
    convergence_rate_bound,
    error_gap_decomposition,
    qhetfed_error_floor,
    qhetfed_gap_bound,
    tau_preference,
)
from qhetfed.streams import stream

# reference parameter point: 3 sets of 20 devices, tau=12, gamma=3, mu=0.01,
# unit smoothness / PL / noise / heterogeneity constants, q1=q2=1
REF = TheoryParams(
    L=1.0, delta=1.0, sigma2=1.0, batch=1, G2=1.0, q1=1.0, q2=1.0,
    mu=0.01, tau=12, gamma=3, T=100, devices_per_set=(20, 20, 20),
)


def test_sizes_derived_from_device_counts():
    assert REF.C == 3
    assert REF.N == 60


def test_lr_conditions_hand_values():
    conds = check_lr_conditions(REF)
    # condition A: 1 - 1e-4*(36 + 66 + 15/20) - 0.01*(12 + 1/60 + 1/60 + 4)
    assert abs(conds.lhs_a - 0.8293916666666666) < 1e-12
    # condition B: 1 - 1e-4*3 - 0.03*(1 + 2/60 + 20/60)
    assert abs(conds.lhs_b - 0.9587) < 1e-12
    assert conds.cond_a and conds.cond_b


def test_baseline_condition_hand_value():
    ok, lhs = baseline_lr_condition(REF)
    # 1 - 1e-4*(3 + 36*78) - 0.02*36.05 crosses below zero
    assert abs(lhs - (-0.0021)) < 1e-12
    assert not ok


def test_gap_bound_hand_values():
    gb = qhetfed_gap_bound(REF, 1.0)
    assert abs(gb.c - 0.85) < 1e-15
    assert abs(gb.e - 0.0750566) < 1e-10
    assert gb.contractive
    assert abs(gb.bound - 0.5003773770386936) < 1e-10


def test_baseline_gap_bound_hand_values():
    bb = baseline_gap_bound(REF, 1.0)
    assert abs(bb.c - 0.64) < 1e-15
    assert abs(bb.e - 0.1801677) < 1e-10
    assert abs(bb.bound - 0.5004658333333333) < 1e-10
    assert bb.contractive
    assert not baseline_lr_condition(REF)[0]


def test_decomposition_hand_values():
    dec = error_gap_decomposition(REF)
    assert abs(dec.d_q1 - 2.46e-05) < 1e-12
    assert abs(dec.d_q2 - 7e-05) < 1e-12
    assert abs(dec.d_local - 1.65e-05) < 1e-12
    assert abs(dec.d_het - 0.105) < 1e-12
    assert abs(dec.delta_total - 0.1051111) < 1e-10


def test_decomposition_matches_floor_difference():
    gb = qhetfed_gap_bound(REF, 1.0)
    bb = baseline_gap_bound(REF, 1.0)
    dec = error_gap_decomposition(REF)
    diff = bb.e - gb.e
    assert abs(dec.delta_total - diff) < 1e-12 * max(1.0, abs(diff))


def test_decomposition_total_is_the_sum_of_its_parts_and_both_bounds_are_gap_bounds():
    # criterion 6's 100 seeded draws
    rng = stream(606, "accept-decomp")
    for trial in range(100):
        devices = tuple(int(rng.integers(1, 30)) for _ in range(int(rng.integers(1, 6))))
        p = TheoryParams(
            L=float(rng.uniform(0.1, 5.0)), delta=float(rng.uniform(0.01, 2.0)),
            sigma2=float(rng.uniform(0.0, 5.0)), batch=int(rng.integers(1, 11)),
            G2=float(rng.uniform(0.0, 5.0)), q1=float(rng.uniform(0.0, 50.0)),
            q2=float(rng.uniform(0.0, 50.0)), mu=float(rng.uniform(1e-4, 0.1)),
            tau=int(rng.integers(1, 21)), gamma=int(rng.integers(1, 21)),
            T=int(rng.integers(1, 101)), devices_per_set=devices,
        )
        dec = error_gap_decomposition(p)
        assert dec.delta_total == dec.d_q1 + dec.d_q2 + dec.d_local + dec.d_het, f"trial {trial}"
        assert type(qhetfed_gap_bound(p, 1.0)) is GapBound and type(baseline_gap_bound(p, 1.0)) is GapBound


def test_rate_bound_hand_value():
    # 2/15 + 5e-5*1.76 + 6.667e-4 + 1
    assert abs(convergence_rate_bound(REF, 1.0) - 1.13408797) < 1e-6


def test_geometric_bound_degenerate_contraction():
    assert _gap_bound(1.0, 0.5, 2.0, 10).bound == 2.0 + 10 * 0.5
    # plain geometric case: closed form equals the unrolled recursion
    c, e, gap0 = 0.9, 0.1, 1.0
    value = gap0
    for _ in range(7):
        value = c * value + e
    assert abs(_gap_bound(c, e, gap0, 7).bound - value) < 1e-12


def test_non_contractive_flagged_not_raised():
    p = TheoryParams(
        L=1.0, delta=1.0, sigma2=0.0, batch=1, G2=0.0, q1=0.0, q2=0.0,
        mu=0.2, tau=12, gamma=3, T=5, devices_per_set=(4,),
    )
    gb = qhetfed_gap_bound(p, 1.0)
    assert gb.c == 1.0 - 0.2 * 15
    assert not gb.contractive
    assert np.isfinite(gb.bound)


def test_error_floor_grows_with_quantizer_variance():
    worse = TheoryParams(
        L=1.0, delta=1.0, sigma2=1.0, batch=1, G2=1.0, q1=8.0, q2=1.0,
        mu=0.01, tau=12, gamma=3, T=100, devices_per_set=(20, 20, 20),
    )
    assert qhetfed_gap_bound(worse, 1.0).e > qhetfed_gap_bound(REF, 1.0).e


def _single_set_gap_bound(p: TheoryParams, gap0: float) -> GapBound:
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
    return GapBound(c=c, e=e, bound=_gap_bound(c, e, gap0, p.T).bound, contractive=abs(c) < 1.0)


def test_single_set_bound_matches_general_form_at_c1_q2_zero():
    p = TheoryParams(
        L=1.0, delta=0.5, sigma2=2.0, batch=4, G2=0.3, q1=3.0, q2=0.0,
        mu=0.02, tau=5, gamma=2, T=40, devices_per_set=(10,),
    )
    special = _single_set_gap_bound(p, 1.0)
    general = qhetfed_gap_bound(p, 1.0)
    assert abs(special.e - general.e) < 1e-15
    assert abs(special.bound - general.bound) < 1e-12


def test_single_set_bound_rejects_multi_set_input():
    with pytest.raises(ValueError):
        _single_set_gap_bound(REF, 1.0)
    p = TheoryParams(
        L=1.0, delta=1.0, sigma2=1.0, batch=1, G2=0.0, q1=1.0, q2=0.5,
        mu=0.01, tau=2, gamma=2, T=10, devices_per_set=(5,),
    )
    with pytest.raises(ValueError):
        _single_set_gap_bound(p, 1.0)


def test_tau_preference_threshold():
    # the switch sits at q1 = N/C - 1
    assert tau_preference(18.0, 60, 3) == PREFER_HIGH_TAU
    assert tau_preference(20.0, 60, 3) == PREFER_LOW_TAU
    assert tau_preference(19.0, 60, 3) == INDIFFERENT


@pytest.mark.parametrize("name,bad", [
    ("G2", np.nan), ("q1", np.inf), ("sigma2", np.nan),
    ("mu", np.nan), ("mu", np.inf), ("T", np.inf),
    # every count rejects what is not an integer, every number what is not a finite number
    *[(name, bad) for name in ("batch", "tau", "gamma", "T") for bad in (2.5, 2.0, True, "2")],
    *[("devices_per_set", (2, bad)) for bad in (2.5, 2.0, True, "2")],
    *[(name, bad) for name in ("L", "delta", "sigma2", "G2", "q1", "q2", "mu") for bad in (True, "1", np.nan, np.inf)],
    # a float holds every integer up to 2**53 exactly, and the bounds mix the counts with floats
    *[(name, 2**53 + 1) for name in ("batch", "tau", "gamma", "T")],
])
def test_theory_params_reject_non_finite(name, bad):
    base = dict(L=1, delta=1, sigma2=1, batch=1, G2=1, q1=0, q2=0,
                mu=0.1, tau=1, gamma=1, T=1, devices_per_set=(2,))
    with pytest.raises(ValueError, match=name):
        TheoryParams(**{**base, name: bad})


def test_theory_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(L=1, delta=1, sigma2=1, batch=1, G2=1, q1=-1, q2=0,
                     mu=0.1, tau=1, gamma=1, T=1, devices_per_set=(2,))
    with pytest.raises(ValueError):
        TheoryParams(L=1, delta=1, sigma2=1, batch=1, G2=1, q1=0, q2=0,
                     mu=0.1, tau=0, gamma=1, T=1, devices_per_set=(2,))
    with pytest.raises(ValueError):
        TheoryParams(L=1, delta=1, sigma2=1, batch=1, G2=1, q1=0, q2=0,
                     mu=0.1, tau=1, gamma=1, T=1, devices_per_set=())
    # counts take integers only, and no number takes a bool
    base = dict(L=1, delta=1, sigma2=1, batch=1, G2=1, q1=0, q2=0,
                mu=0.1, tau=1, gamma=1, T=1, devices_per_set=(2,))
    for name, bad in [("devices_per_set", (2.5,)), ("devices_per_set", (2, True)), ("tau", 2.5),
                      ("gamma", True), ("batch", 1.0), ("T", 3.0), ("mu", True), ("L", True)]:
        with pytest.raises(ValueError, match=name):
            TheoryParams(**{**base, name: bad})


@pytest.mark.parametrize("counts", [[2, 2], np.array([2, 2]), (np.int64(2), 2)], ids=["list", "array", "numpy_ints"])
def test_theory_params_store_any_sequence_of_counts_as_a_tuple_of_ints(counts):
    base = dict(L=1, delta=1, sigma2=1, batch=1, G2=1, q1=0, q2=0, mu=0.1, tau=1, gamma=1, T=1)
    p = TheoryParams(**base, devices_per_set=counts)
    assert p == TheoryParams(**base, devices_per_set=(2, 2))
    assert hash(p) == hash(TheoryParams(**base, devices_per_set=(2, 2)))
    assert type(p.devices_per_set) is tuple and all(type(n) is int for n in p.devices_per_set)
    with pytest.raises(ValueError, match="devices_per_set must not be empty"):
        TheoryParams(**base, devices_per_set=np.array([], dtype=int))


@pytest.mark.parametrize("name", ["L", "mu"])
def test_baseline_condition_names_a_square_too_large_for_a_float(name):
    p = TheoryParams(**{**REF._asdict(), name: 1e200})
    message = rf"^{name}\*\*2 = \(1e\+200\)\*\*2 is too large for a float$"
    with pytest.raises(ValueError, match=message):
        baseline_lr_condition(p)
    # the same words as the scheme's own conditions
    with pytest.raises(ValueError, match=message):
        check_lr_conditions(p)


@pytest.mark.parametrize("bound", [
    qhetfed_error_floor, baseline_error_floor, error_gap_decomposition, lambda p: convergence_rate_bound(p, 1.0),
], ids=["qhetfed_error_floor", "baseline_error_floor", "error_gap_decomposition", "convergence_rate_bound"])
def test_each_bound_names_a_float_power_that_overflows(bound):
    # mu**2 = 1e310 and mu**3 = 1e465 both outgrow a float
    p = TheoryParams(**{**REF._asdict(), "mu": 1e155})
    with pytest.raises(ValueError, match=r"^mu\*\*[23] = \(1e\+155\)\*\*[23] is too large for a float$"):
        bound(p)
