"""Acceptance gate: one test per numbered criterion.

Each test is self-contained and pinned to its stated tolerance; the terminal
summary hook in conftest.py prints one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np
import pytest

from qhetfed import analysis, planner, timing
from qhetfed.datagen import (
    IID,
    NONIID1,
    NONIID2,
    DeviceShard,
    PartitionScheme,
    global_loss,
    make_synthetic_dataset,
    partition,
    split_dataset,
)
from qhetfed.federation import (
    CENTRALIZED_SGD,
    FedRunConfig,
    HIER_LOCAL_QSGD,
    QHETFED,
    QHETFED_GAMMA1,
    Schedule,
    Topology,
    iterates,
    run,
)
from qhetfed.harness import _run_mapper, run_experiment
from qhetfed.models import (
    ModelSpec,
    finite_diff_gradient,
    gradient,
)
from qhetfed.quantizer import (
    QuantizerSpec,
    estimate_variance_factor,
    identity_spec,
    quantize,
)
from qhetfed.streams import derive_seed, stream


def make_shards(topology, model_rng, samples_per_device, input_dim, num_classes):
    """Random classification shards, one per device."""
    from qhetfed.datagen import DeviceShard

    shards = []
    for l, n_dev in enumerate(topology.devices_per_set):
        for n in range(n_dev):
            # features then label, sample by sample: the draw order of the per-sample fixture
            rows = [
                (model_rng.standard_normal(input_dim), int(model_rng.integers(0, num_classes)))
                for _ in range(samples_per_device)
            ]
            samples = (np.stack([x for x, _ in rows]), np.array([k for _, k in rows]))
            shards.append(DeviceShard(set_index=l, device_index=n, samples=samples))
    return shards


def test_criterion_01_quantizer_contract():
    started = time.monotonic()
    d = 16
    draws = 10**5
    estimates = []
    for s in (1, 2, 4, 8, 16):
        rng = stream(101, "accept-q", s)
        x = rng.standard_normal(d)
        acc = np.zeros(d)
        sq = np.zeros(d)
        for _ in range(draws):
            y = quantize(x, QuantizerSpec(levels=s), rng)
            acc += y
            sq += y * y
        mean = acc / draws
        var = sq / draws - mean**2
        se = np.sqrt(np.maximum(var, 0.0) / draws)
        # unbiasedness per coordinate; exact-grid coordinates have zero spread
        # and zero deviation, which satisfies the inequality trivially
        assert np.all(np.abs(mean - x) <= 4.0 * se + 1e-12), f"bias at s={s}"
        estimates.append(
            estimate_variance_factor(QuantizerSpec(levels=s), d, 20000, stream(102, "accept-v", s))
        )
    for lo, hi in zip(estimates[1:], estimates[:-1]):
        assert lo <= hi * 1.0 + 1e-12, f"variance factor not non-increasing: {estimates}"
    assert time.monotonic() - started < 30.0


def test_criterion_02_gradient_correctness():
    started = time.monotonic()
    rng = stream(202, "accept-grad")
    specs = {
        "logistic": lambda: ModelSpec(
            kind="logistic",
            input_dim=int(rng.integers(2, 8)),
            num_classes=int(rng.integers(2, 6)),
        ),
        "mlp": lambda: ModelSpec(
            kind="mlp",
            input_dim=int(rng.integers(2, 6)),
            num_classes=int(rng.integers(2, 5)),
            hidden_width=int(rng.integers(2, 6)),
        ),
    }
    for kind, make_spec in specs.items():
        for trial in range(20):
            spec = make_spec()
            w = rng.standard_normal(spec.dim)
            batch_size = int(rng.integers(1, 9))
            X = rng.standard_normal((batch_size, spec.input_dim))
            y = rng.integers(0, spec.num_classes, size=batch_size)
            analytic = gradient(spec, w, (X, y))
            numeric = finite_diff_gradient(spec, w, (X, y), 1e-6)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
            assert rel < 1e-5, f"{kind} trial {trial}: rel={rel:.2e}"
    assert time.monotonic() - started < 10.0


def test_criterion_03_degenerate_equivalence():
    topo = Topology((1,))
    model = ModelSpec(kind="logistic", input_dim=5, num_classes=3)
    shards = make_shards(topo, stream(303, "accept-data"), 30, 5, 3)
    tau, gamma, rounds, batch = 2, 3, 50, 8

    def cfg(algorithm):
        return FedRunConfig(
            topology=topo,
            schedule=Schedule(tau=tau, gamma=gamma, mu=0.05, rounds=rounds, batch=batch),
            model=model,
            shards=shards,
            q1=identity_spec(),
            q2=identity_spec(),
            algorithm=algorithm,
            master_seed=42,
        )

    fed = [w for _, w in iterates(cfg(QHETFED))]
    oracle_fed = [w for _, w in iterates(cfg(CENTRALIZED_SGD), steps_per_iteration=tau + gamma)]
    assert len(fed) == rounds + 1
    for t in range(1, rounds + 1):
        diff = np.max(np.abs(fed[t] - oracle_fed[t]))
        assert diff <= 1e-12, f"qhetfed deviates at t={t}: {diff:.2e}"

    base = [w for _, w in iterates(cfg(HIER_LOCAL_QSGD))]
    oracle_base = [w for _, w in iterates(cfg(CENTRALIZED_SGD), steps_per_iteration=tau * gamma)]
    for t in range(1, rounds + 1):
        diff = np.max(np.abs(base[t] - oracle_base[t]))
        assert diff <= 1e-12, f"baseline deviates at t={t}: {diff:.2e}"


def test_criterion_04_single_local_step_equivalence():
    topo = Topology((2, 2, 2))
    model = ModelSpec(kind="logistic", input_dim=4, num_classes=3)
    shards = make_shards(topo, stream(404, "accept-data"), 25, 4, 3)

    def cfg(algorithm):
        return FedRunConfig(
            topology=topo,
            schedule=Schedule(tau=3, gamma=1, mu=0.05, rounds=10, batch=6),
            model=model,
            shards=shards,
            q1=identity_spec(),
            q2=identity_spec(),
            algorithm=algorithm,
            master_seed=7,
        )

    general = [w for _, w in iterates(cfg(QHETFED))]
    reduced = [w for _, w in iterates(cfg(QHETFED_GAMMA1))]
    for t in range(1, 11):
        diff = np.max(np.abs(general[t] - reduced[t]))
        assert diff <= 1e-10, f"t={t}: {diff:.2e}"


def test_criterion_05_gap_bounds_hold():
    # homogeneous 1-D quadratic: every device holds the same sample, full
    # batch, identity quantizers, so L = delta = 1, sigma^2 = 0, G^2 = 0
    topo = Topology((2, 2, 2))
    model = ModelSpec(kind="quadratic", input_dim=1)
    from qhetfed.datagen import DeviceShard

    shards = [
        DeviceShard(
            set_index=l, device_index=n,
            samples=(np.array([[1.0]]), np.array([0])),
        )
        for l in range(3)
        for n in range(2)
    ]
    mu, tau, gamma, rounds = 0.01, 2, 2, 50

    def cfg(algorithm):
        return FedRunConfig(
            topology=topo,
            schedule=Schedule(tau=tau, gamma=gamma, mu=mu, rounds=rounds, batch=1),
            model=model,
            shards=shards,
            q1=identity_spec(),
            q2=identity_spec(),
            algorithm=algorithm,
            master_seed=0,
        )

    def params(T):
        return analysis.TheoryParams(
            L=1.0, delta=1.0, sigma2=0.0, batch=1, G2=0.0, q1=0.0, q2=0.0,
            mu=mu, tau=tau, gamma=gamma, T=T, devices_per_set=(2, 2, 2),
        )

    conds = analysis.check_lr_conditions(params(1))
    assert conds.cond_a and conds.cond_b, "chosen mu violates the step-size conditions"
    ok, _ = analysis.baseline_lr_condition(params(1))
    assert ok, "chosen mu violates the baseline step-size condition"

    gap0 = 0.5  # F(0) - F* = 0.5 * (0 - 1)^2

    fed = run(cfg(QHETFED))
    for t in range(rounds):
        bound = analysis.qhetfed_gap_bound(params(t + 1), gap0).bound
        assert fed.train_loss[t] <= bound + 1e-15, (
            f"simulated gap {fed.train_loss[t]:.3e} above bound {bound:.3e} at T={t + 1}"
        )

    base = run(cfg(HIER_LOCAL_QSGD))
    for t in range(rounds):
        bound = analysis.baseline_gap_bound(params(t + 1), gap0).bound
        assert base.train_loss[t] <= bound + 1e-15, (
            f"baseline gap {base.train_loss[t]:.3e} above bound {bound:.3e} at T={t + 1}"
        )


def test_gap_bound_holds_in_its_own_regime():
    # criterion 5's bounds where their terms are not zero: heterogeneous shards,
    # mini-batches and quantized links.  The quadratic kind makes every constant
    # exact, and the bounds hold in expectation, so the rule takes the mean gap
    # over the seeds.  Sizes, seeds and the pass rule are fixed, not tuned to the result.
    topo, D, rows, seeds = Topology((4, 4, 4)), 8, 30, range(20)
    mu, tau, gamma, batch, rounds, s1, s2 = 0.02, 3, 2, 5, 60, 4, 8
    model = ModelSpec(kind="quadratic", input_dim=D)
    data = stream(2024, "gap-data")
    shards = []
    for l, n_dev in enumerate(topo.devices_per_set):
        for n in range(n_dev):
            centre = data.standard_normal(D)
            samples = (centre + data.standard_normal((rows, D)), np.zeros(rows, dtype=int))
            shards.append(DeviceShard(set_index=l, device_index=n, samples=samples))

    means = [s.features.mean(axis=0) for s in shards]
    pooled = np.concatenate([s.features for s in shards]).mean(axis=0)
    G2 = max(float(np.sum((pooled - m) ** 2)) for m in means)
    sigma2 = max(float(np.mean(np.sum((s.features - m) ** 2, axis=1))) for s, m in zip(shards, means))
    q1, q2 = (min(D / s**2, math.sqrt(D) / s) for s in (s1, s2))
    f_star = global_loss(shards, model, pooled)
    gap0 = global_loss(shards, model, np.zeros(D)) - f_star

    def params(T):
        return analysis.TheoryParams(
            L=1.0, delta=1.0, sigma2=sigma2, batch=batch, G2=G2, q1=q1, q2=q2,
            mu=mu, tau=tau, gamma=gamma, T=T, devices_per_set=topo.devices_per_set,
        )

    conds = analysis.check_lr_conditions(params(1))
    assert conds.cond_a and conds.cond_b, "chosen mu violates the step-size conditions"
    assert analysis.baseline_lr_condition(params(1))[0], "chosen mu violates the baseline step-size condition"

    def simulate(task):
        algorithm, seed = task
        rec = run(FedRunConfig(
            topology=topo, schedule=Schedule(tau=tau, gamma=gamma, mu=mu, rounds=rounds, batch=batch),
            model=model, shards=shards, q1=QuantizerSpec(levels=s1), q2=QuantizerSpec(levels=s2),
            algorithm=algorithm, master_seed=seed,
        ))
        return rec.diverged_at, rec.train_loss

    # the seeded runs are independent, so the worker pool maps them; results are keyed by task
    tasks = [(algorithm, seed) for algorithm in (QHETFED, HIER_LOCAL_QSGD) for seed in seeds]
    results = dict(_run_mapper(simulate, tasks))
    for algorithm, bound_of in ((QHETFED, analysis.qhetfed_gap_bound), (HIER_LOCAL_QSGD, analysis.baseline_gap_bound)):
        losses = []
        for seed in seeds:
            diverged_at, train_loss = results[algorithm, seed]
            assert diverged_at is None
            losses.append(train_loss)
        mean_gap = (np.array(losses) - f_star).mean(axis=0)
        for t in range(rounds):
            bound = bound_of(params(t + 1), gap0).bound
            assert mean_gap[t] <= bound, f"{algorithm}: mean gap {mean_gap[t]:.3e} above bound {bound:.3e} at T={t + 1}"


def test_criterion_06_decomposition_identity():
    rng = stream(606, "accept-decomp")
    for trial in range(100):
        devices = tuple(int(rng.integers(1, 30)) for _ in range(int(rng.integers(1, 6))))
        p = analysis.TheoryParams(
            L=float(rng.uniform(0.1, 5.0)),
            delta=float(rng.uniform(0.01, 2.0)),
            sigma2=float(rng.uniform(0.0, 5.0)),
            batch=int(rng.integers(1, 11)),
            G2=float(rng.uniform(0.0, 5.0)),
            q1=float(rng.uniform(0.0, 50.0)),
            q2=float(rng.uniform(0.0, 50.0)),
            mu=float(rng.uniform(1e-4, 0.1)),
            tau=int(rng.integers(1, 21)),
            gamma=int(rng.integers(1, 21)),
            T=int(rng.integers(1, 101)),
            devices_per_set=devices,
        )
        diff = analysis.baseline_gap_bound(p, 1.0).e - analysis.qhetfed_gap_bound(p, 1.0).e
        total = analysis.error_gap_decomposition(p).delta_total
        denom = max(abs(diff), abs(total), 1e-300)
        assert abs(diff - total) / denom <= 1e-10, (
            f"trial {trial}: diff={diff!r} total={total!r}"
        )


def _random_plan_instance(rng):
    t_cp = float(rng.uniform(0.5, 4.0))
    r = float(rng.uniform(0.05, 3.0))
    t_de = r * t_cp
    t_ec = float(rng.uniform(2.0, 20.0)) * t_de
    rounds = int(rng.integers(10, 201))
    p_target = float(rng.uniform(10.0, 120.0))
    deadline = (p_target + t_ec / t_cp) * rounds * t_cp
    q1 = float(rng.uniform(0.5, 150.0))
    C = int(rng.integers(2, 7))
    n_l = int(rng.integers(5, 41))
    plan = planner.DeadlinePlan(
        deadline_s=deadline, rounds=rounds, times=timing.PhaseTimes(t_cp, t_de, t_ec)
    )
    return plan, q1, C, C * n_l


def test_criterion_07_planner_correctness():
    # closed form vs exhaustive integer grid on random feasible instances
    rng = stream(707, "accept-plan")
    checked = 0
    while checked < 50:
        plan, q1, C, N = _random_plan_instance(rng)
        if planner.max_feasible_tau(plan) < 1.0:
            continue
        choice = planner.optimize_schedule(plan, q1, C, N)
        grid = planner.grid_search_schedule(plan, q1, C, N)
        assert abs(choice.tau_int - grid.tau) <= 1, (
            f"tau mismatch: closed-form {choice.tau_int} vs grid {grid.tau}"
        )
        j_closed = planner.objective_J(float(choice.tau_int), plan, q1, C, N)
        assert j_closed <= grid.j_value * 1.02 + 1e-12, (
            f"objective gap beyond 2%: {j_closed} vs {grid.j_value}"
        )
        checked += 1

    # hand value for the device-edge upload time at SNR 50
    lp = timing.LinkComputeParams(
        bandwidth_hz=1e6, power_w=0.5, noise_w=1e-10, channel_gain=1e-8,
        cycles_per_bit=20, cpu_hz=1e9, bits_per_local_iter=1e8, model_bits=1e6,
        edge_cloud_ratio=10.0,
    )
    times = timing.compute_times(lp)
    hand_t_de = 1.0 / math.log2(51.0)
    assert abs(times.t_de - hand_t_de) / hand_t_de < 1e-6

    # a feasible plan under these times lands within 5% of a 156 s iteration
    plan = planner.DeadlinePlan(deadline_s=15600.0, rounds=100, times=times)
    choice = planner.optimize_schedule(plan, 1.0, 3, 60)
    delay = timing.iteration_delay(choice.tau_int + choice.gamma_int, choice.tau_int, times)
    assert abs(delay - 156.0) / 156.0 < 0.05
    assert 100 * delay <= 15600.0 + 1e-9


@pytest.mark.slow
def test_criterion_08_quantization_direction_flip():
    # fixed step budget tau + gamma = 20: with a moderate device quantizer
    # (variance factor near 5, well below the flip threshold N / C - 1 = 19)
    # the gradient-heavy split (15, 5) should win, while a one-bit device
    # quantizer (variance factor near 37) reverses the ordering toward
    # (10, 10); the decisive noise has to be per-step sampling noise, so the
    # task uses low separation, high feature noise, and a small batch
    started = time.monotonic()
    topo = Topology((20, 20, 20))
    model = ModelSpec(kind="logistic", input_dim=200, num_classes=10)

    def final_accuracy(task):
        seed, tau, gamma, device_levels = task
        dataset = make_synthetic_dataset(
            10, 480, 200, stream(seed, "dataset"), separation=2.0, noise=1.5
        )
        train, test = split_dataset(dataset, 0.2, stream(seed, "split"))
        shards = partition(
            train, topo, PartitionScheme(kind=NONIID1, size_range=(40, 70)),
            stream(seed, "partition"),
        )
        record = run(FedRunConfig(
            topology=topo,
            schedule=Schedule(tau=tau, gamma=gamma, mu=0.1, rounds=40, batch=5),
            model=model,
            shards=shards,
            q1=QuantizerSpec(levels=device_levels),
            q2=QuantizerSpec(levels=16),
            master_seed=derive_seed(seed, "run", 0),
            test_samples=test,
        ))
        return record.test_accuracy[-1]

    # each task builds its own data, so at most one dataset per worker is held at a time
    tasks = [(seed, tau, gamma, levels) for seed in range(10)
             for tau, gamma, levels in ((15, 5, 6), (10, 10, 6), (10, 10, 1), (15, 5, 1))]
    acc = dict(_run_mapper(final_accuracy, tasks))
    high_tau_wins = sum(acc[seed, 15, 5, 6] >= acc[seed, 10, 10, 6] for seed in range(10))
    low_tau_wins = sum(acc[seed, 10, 10, 1] > acc[seed, 15, 5, 1] for seed in range(10))
    assert high_tau_wins >= 7, f"fine quantization: (15,5) won only {high_tau_wins}/10"
    assert low_tau_wins >= 7, f"coarse quantization: (10,10) won only {low_tau_wins}/10"
    assert time.monotonic() - started < 900.0


@pytest.mark.slow
def test_criterion_09_heterogeneity_robustness():
    # matched wall-clock budget: each algorithm gets as many global
    # iterations as fit the same modeled time under its own delay formula
    started = time.monotonic()
    times = timing.PhaseTimes(2.0, 0.17629143438888212, 1.7629143438888213)
    topo = Topology((20, 20, 20))
    tau, gamma, mu, batch, wall = 12, 3, 0.05, 40, 1360.0
    model = ModelSpec(kind="logistic", input_dim=20, num_classes=10)
    t_fed = int(math.floor(wall / timing.iteration_delay(tau + gamma, tau, times)))
    t_base = int(math.floor(wall / timing.iteration_delay(tau * gamma, tau, times)))

    def final_pair(task):
        seed, scheme_kind = task
        dataset = make_synthetic_dataset(
            10, 480, 20, stream(seed, "dataset"), separation=3.0, noise=1.0
        )
        train, test = split_dataset(dataset, 0.2, stream(seed, "split"))
        shards = partition(
            train, topo, PartitionScheme(kind=scheme_kind, size_range=(40, 70)),
            stream(seed, "partition"),
        )
        common = dict(
            topology=topo, model=model, shards=shards,
            q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=10),
            master_seed=derive_seed(seed, "run", 0), test_samples=test,
        )
        fed = run(FedRunConfig(
            schedule=Schedule(tau, gamma, mu, t_fed, batch), **common))
        base = run(FedRunConfig(
            schedule=Schedule(tau, gamma, mu, t_base, batch),
            algorithm=HIER_LOCAL_QSGD, **common))
        return fed.test_accuracy[-1], base.test_accuracy[-1]

    tasks = [(seed, scheme_kind) for seed in range(10) for scheme_kind in (NONIID2, IID)]
    pairs = dict(_run_mapper(final_pair, tasks))
    het_wins = sum(pairs[seed, NONIID2][0] >= pairs[seed, NONIID2][1] for seed in range(10))
    iid_gaps = [abs(pairs[seed, IID][0] - pairs[seed, IID][1]) for seed in range(10)]
    assert het_wins >= 8, f"qhetfed won only {het_wins}/10 under noniid2"
    assert all(g <= 0.03 for g in iid_gaps), f"iid accuracy gaps: {iid_gaps}"
    assert time.monotonic() - started < 1200.0


def test_criterion_10_deterministic_reruns(tmp_path):
    config = {
        "seed": 11,
        "repeats": 2,
        "dataset": {
            "classes": 3,
            "per_class": 30,
            "input_dim": 4,
            "separation": 4.0,
            "noise": 1.0,
            "test_fraction": 0.2,
        },
        "partition": {"scheme": "noniid1", "size_min": 5, "size_max": 10},
        "topology": {"num_sets": 2, "devices_per_set": 3},
        "schedule": {"tau": 2, "gamma": 2, "mu": 0.05, "rounds": 4, "batch": 4},
    }
    first = dict(config, output_dir=str(tmp_path / "first"))
    second = dict(config, output_dir=str(tmp_path / "second"))
    paths_first = sorted(run_experiment(first))
    paths_second = sorted(run_experiment(second))
    tables_first = [p for p in paths_first if p.endswith(".csv")]
    tables_second = [p for p in paths_second if p.endswith(".csv")]
    assert len(tables_first) == len(tables_second) > 0
    for a, b in zip(tables_first, tables_second):
        with open(a, "rb") as fh:
            blob_a = fh.read()
        with open(b, "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, f"{a} differs from {b}"
