import dataclasses
import hashlib

import numpy as np
import pytest

from qhetfed import federation, models
from qhetfed.datagen import NONIID1, DeviceShard, PartitionScheme, make_synthetic_dataset, partition
from qhetfed.federation import (
    ALGORITHMS,
    CENTRALIZED_SGD,
    FedRunConfig,
    HIER_LOCAL_QSGD,
    QHETFED,
    QHETFED_GAMMA1,
    Schedule,
    Topology,
    _batch,
    _batch_rows,
    cloud_aggregate,
    edge_aggregate_gradients,
    edge_aggregate_models,
    run,
    run_centralized_sgd,
    steps_per_round,
)
from qhetfed.models import LOGISTIC, MLP, ModelSpec, QUADRATIC, gradient
from qhetfed.planner import PhaseTimes, baseline_iteration_delay, iteration_delay
from qhetfed.quantizer import QuantizerSpec, identity_spec, quantize
from qhetfed.streams import stream


def scalar_shard(set_index, device_index, values):
    samples = (np.array(values, dtype=float).reshape(-1, 1), np.zeros(len(values), dtype=int))
    return DeviceShard(set_index=set_index, device_index=device_index, samples=samples)


def quadratic_config(devices_per_set, shard_values, tau, gamma, mu, rounds, **kw):
    """Quadratic-model run over scalar shards; shard_values[l][n] lists device samples."""
    topo = Topology(tuple(devices_per_set))
    shards = [
        scalar_shard(l, n, vals)
        for l, row in enumerate(shard_values)
        for n, vals in enumerate(row)
    ]
    batch = kw.pop("batch", max(s.size for s in shards))
    return FedRunConfig(
        topology=topo,
        schedule=Schedule(tau=tau, gamma=gamma, mu=mu, rounds=rounds, batch=batch),
        model=ModelSpec(kind=QUADRATIC, input_dim=1),
        shards=shards,
        **kw,
    )


# ---------------------------------------------------------------------------
# aggregation operations


def test_edge_gradient_mean_identity():
    grads = [np.array([1.0, 1.0]), np.array([3.0, 3.0])]
    out = edge_aggregate_gradients(grads, identity_spec(), [stream(0, "unused")] * 2)
    assert np.array_equal(out, np.array([2.0, 2.0]))


def test_edge_gradient_single_device_passthrough():
    g = np.array([0.5, -1.5, 2.0])
    out = edge_aggregate_gradients([g], identity_spec(), [stream(0, "unused")])
    assert np.array_equal(out, g)


def test_edge_gradient_matches_manual_quantization():
    spec = QuantizerSpec(levels=4)
    grads = [np.array([0.3, -1.1, 0.7]), np.array([2.2, 0.05, -0.4])]
    rngs = [stream(7, "q1", 0, n, 0, 0) for n in range(2)]
    fresh = [stream(7, "q1", 0, n, 0, 0) for n in range(2)]
    expected = (quantize(grads[0], spec, fresh[0]) + quantize(grads[1], spec, fresh[1])) / 2
    out = edge_aggregate_gradients(grads, spec, rngs)
    assert np.array_equal(out, expected)


def test_edge_model_zero_deltas_return_base():
    base = np.array([1.0, -2.0, 3.0])
    deltas = [np.zeros(3), np.zeros(3)]
    out = edge_aggregate_models(deltas, base, identity_spec(), [stream(0, "x")] * 2)
    assert np.array_equal(out, base)


def test_edge_model_mean_of_deltas():
    base = np.array([1.0, 1.0])
    deltas = [np.array([2.0, 0.0]), np.array([0.0, 4.0])]
    out = edge_aggregate_models(deltas, base, identity_spec(), [stream(0, "x")] * 2)
    assert np.array_equal(out, np.array([2.0, 3.0]))


def test_cloud_weighted_by_device_counts():
    topo = Topology((3, 1))
    m1 = np.array([2.0, 2.0])
    m2 = np.array([6.0, 6.0])
    prev = np.zeros(2)
    out = cloud_aggregate([m1, m2], prev, topo, identity_spec(), [stream(0, "x")] * 2)
    assert np.allclose(out, np.array([3.0, 3.0]), atol=1e-15)


def test_cloud_equal_sets_take_plain_mean():
    topo = Topology((2, 2))
    m1 = np.array([1.0])
    m2 = np.array([5.0])
    prev = np.array([1.0])
    out = cloud_aggregate([m1, m2], prev, topo, identity_spec(), [stream(0, "x")] * 2)
    assert np.allclose(out, np.array([3.0]), atol=1e-15)


def test_cloud_rejects_wrong_set_count():
    topo = Topology((2, 2))
    with pytest.raises(ValueError, match="1 set models for 2 sets"):
        cloud_aggregate([np.zeros(2)], np.zeros(2), topo, identity_spec(), [stream(0, "x")])


# each aggregation step as a function of (messages, generators), with a length-2 model beside them
AGGREGATIONS = {
    "edge_aggregate_gradients": lambda msgs, rngs: edge_aggregate_gradients(msgs, identity_spec(), rngs),
    "edge_aggregate_models": lambda msgs, rngs: edge_aggregate_models(msgs, np.zeros(2), identity_spec(), rngs),
    "cloud_aggregate": lambda msgs, rngs: cloud_aggregate(
        msgs, np.zeros(2), Topology((1,) * max(len(msgs), 1)), identity_spec(), rngs
    ),
}


# (messages, generator count, expected error); the cloud checks its set count before the messages
AGGREGATION_FAULTS = {
    "no_messages": ([], 0, "no messages|0 set models"),
    # a length-1 message would broadcast against a length-2 model without the check
    "wrong_length": ([np.array([5.0]), np.zeros(2)], 2, r"message lengths \[1, 2\]"),
    "short_rng_list": ([np.zeros(2), np.zeros(2)], 1, "need 2 rng streams, got 1"),
}


@pytest.mark.parametrize("fault", AGGREGATION_FAULTS)
@pytest.mark.parametrize("name", AGGREGATIONS)
def test_aggregation_checks_its_messages(name, fault):
    messages, n_rngs, match = AGGREGATION_FAULTS[fault]
    with pytest.raises(ValueError, match=match):
        AGGREGATIONS[name](messages, [stream(0, "x")] * n_rngs)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        quadratic_config([1], [[[1.0]]], 1, 1, 0.1, 1, algorithm="sgd")


def test_config_gamma1_variant_requires_gamma_one():
    with pytest.raises(ValueError):
        quadratic_config([1], [[[1.0]]], 1, 2, 0.1, 1, algorithm=QHETFED_GAMMA1)


def test_config_rejects_wrong_shard_count():
    topo = Topology((2,))
    shards = [scalar_shard(0, 0, [1.0])]
    with pytest.raises(ValueError):
        FedRunConfig(
            topology=topo,
            schedule=Schedule(1, 1, 0.1, 1, 1),
            model=ModelSpec(kind=QUADRATIC, input_dim=1),
            shards=shards,
        )


def test_config_rejects_duplicate_and_missing_shards():
    topo = Topology((2,))
    dup = [scalar_shard(0, 0, [1.0]), scalar_shard(0, 0, [2.0])]
    with pytest.raises(ValueError):
        FedRunConfig(
            topology=topo,
            schedule=Schedule(1, 1, 0.1, 1, 1),
            model=ModelSpec(kind=QUADRATIC, input_dim=1),
            shards=dup,
        )
    misplaced = [scalar_shard(0, 0, [1.0]), scalar_shard(1, 0, [2.0])]
    with pytest.raises(ValueError):
        FedRunConfig(
            topology=topo,
            schedule=Schedule(1, 1, 0.1, 1, 1),
            model=ModelSpec(kind=QUADRATIC, input_dim=1),
            shards=misplaced,
        )


def test_config_rejects_initial_params_of_wrong_length():
    with pytest.raises(ValueError):
        quadratic_config([1], [[[1.0]]], 1, 1, 0.1, 1, initial_params=np.zeros(3))


def test_config_rejects_test_samples_that_do_not_fit_the_model():
    cfg = synthetic_config(QHETFED, LOGISTIC)
    X, y = make_synthetic_dataset(3, 2, 4, stream(5, "test"))
    assert dataclasses.replace(cfg, test_samples=(X, y)).test_samples is not None
    # before this check, a narrow test set failed in numpy's matmul after the first round
    for bad in [(X[:, :3], y), (X, y[:-1]), (X[0], y[:1])]:
        with pytest.raises(ValueError, match="test_samples must be rows of width 4"):
            dataclasses.replace(cfg, test_samples=bad)


def test_topology_validation():
    for counts in [(), (2, 0), (2.7,), (2.0, 1), (True, 2), (np.float64(3),), ("2",)]:
        with pytest.raises(ValueError):
            Topology(counts)
    assert Topology((3, 1)).num_devices == 4
    topo = Topology((np.int64(3), np.int32(1)))
    assert topo.devices_per_set == (3, 1)
    assert all(type(n) is int for n in topo.devices_per_set)


def test_schedule_validation():
    bad = [
        (0, 1, 0.1, 1, 1), (1, 1, 0.0, 1, 1), (1, 1, 0.1, 1, 0),
        (2.7, 1, 0.1, 1, 1), (1, 2.0, 0.1, 1, 1), (1, 1, 0.1, True, 1), (1, 1, 0.1, 1, 4.5),
        (1, 1, True, 1, 1), (1, 1, "0.1", 1, 1), (1, 1, float("nan"), 1, 1), (1, 1, float("inf"), 1, 1),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            Schedule(*args)
    sched = Schedule(np.int64(2), np.int32(3), 1, np.int64(4), np.int64(5))
    assert steps_per_round(QHETFED, sched) == 5


# ---------------------------------------------------------------------------
# hand-checked trajectories (identity quantizers, full batch)


def test_quadratic_hand_trajectory_single_device():
    # w <- w + mu*(a - w) three times: 0 -> 0.1 -> 0.19 -> 0.271
    cfg = quadratic_config([1], [[[1.0]]], tau=2, gamma=1, mu=0.1, rounds=1)
    rec = run(cfg)
    assert abs(rec.final_params[0] - 0.271) < 1e-15


def test_intra_set_rounds_descend_from_shared_state():
    # both devices' gradients are evaluated at the same broadcast point, so
    # the round moves by the mean gradient rather than per-device values
    cfg = quadratic_config([2], [[[1.0], [3.0]]], tau=1, gamma=1, mu=0.1, rounds=1)
    rec = run(cfg)
    # round: w_set = 0 - 0.1*mean(-1, -3) = 0.2
    # local: deltas 0.1*(1-0.2)=0.08 and 0.1*(3-0.2)=0.28, mean 0.18
    assert abs(rec.final_params[0] - 0.38) < 1e-15


def test_hier_local_hand_value_two_devices():
    cfg = quadratic_config(
        [2], [[[1.0], [3.0]]], tau=1, gamma=1, mu=0.1, rounds=1,
        algorithm=HIER_LOCAL_QSGD,
    )
    rec = run(cfg)
    # each device steps from 0: deltas 0.1 and 0.3, mean 0.2
    assert abs(rec.final_params[0] - 0.2) < 1e-15


def test_centralized_matches_closed_form():
    # full-batch descent on 0.5*(w - 1)^2 contracts the gap by (1 - mu) per step
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=10,
        algorithm=CENTRALIZED_SGD,
    )
    rec = run_centralized_sgd(cfg)
    assert abs(rec.final_params[0] - (1.0 - 0.9 ** 10)) < 1e-12


def test_centralized_snapshots_follow_closed_form():
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=8,
        algorithm=CENTRALIZED_SGD, keep_snapshots=True,
    )
    rec = run_centralized_sgd(cfg)
    for t, w in enumerate(rec.snapshots):
        assert abs(w[0] - (1.0 - 0.9 ** (t + 1))) < 1e-12


def test_centralized_full_batch_ignores_seed():
    kw = dict(tau=1, gamma=1, mu=0.1, rounds=5, algorithm=CENTRALIZED_SGD)
    a = run_centralized_sgd(quadratic_config([1], [[[1.0, 3.0]]], master_seed=1, **kw))
    b = run_centralized_sgd(quadratic_config([1], [[[1.0, 3.0]]], master_seed=2, **kw))
    assert a.param_hash == b.param_hash


# ---------------------------------------------------------------------------
# reference replays with stochastic quantizers


def replay_qhetfed(cfg):
    """Straight-line reimplementation of the qhetfed iteration for comparison."""
    sched, topo, seed = cfg.schedule, cfg.topology, cfg.master_seed
    grid = cfg._grid
    w = np.array(cfg.initial_params, dtype=float)
    for t in range(sched.rounds):
        set_models = []
        for l in range(topo.num_sets):
            w_set = w.copy()
            for i in range(sched.tau):
                q_grads = []
                for n, s in enumerate(grid[l]):
                    X, y = batch_for(s, cfg, l, n, t, i)
                    g = gradient(cfg.model, w_set, (X, y))
                    q_grads.append(quantize(g, cfg.q1, stream(seed, "q1", l, n, t, i)))
                w_set = w_set - sched.mu * np.mean(q_grads, axis=0)
            q_deltas = []
            for n, s in enumerate(grid[l]):
                w_dev = w_set.copy()
                for j in range(sched.gamma):
                    X, y = batch_for(s, cfg, l, n, t, sched.tau + j)
                    w_dev = w_dev - sched.mu * gradient(cfg.model, w_dev, (X, y))
                q_deltas.append(
                    quantize(w_dev - w_set, cfg.q1, stream(seed, "q1", l, n, t, sched.tau))
                )
            set_models.append(w_set + np.mean(q_deltas, axis=0))
        total = np.zeros_like(w)
        for l, m in enumerate(set_models):
            q = quantize(m - w, cfg.q2, stream(seed, "q2", l, t))
            total += topo.devices_per_set[l] * q
        w = w + total / topo.num_devices
    return w


def batch_for(shard, cfg, l, n, t, k):
    B = cfg.schedule.batch
    if B >= shard.size:
        return shard.features, shard.labels
    idx = stream(cfg.master_seed, "batch", l, n, t, k).integers(0, shard.size, size=B)
    return shard.features[idx], shard.labels[idx]


def test_qhetfed_matches_reference_replay():
    cfg = quadratic_config(
        [2, 1],
        [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]], [[4.0, 5.0, 6.0]]],
        tau=2, gamma=2, mu=0.05, rounds=3, batch=2,
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8),
        master_seed=123, initial_params=np.array([0.25]),
    )
    rec = run(cfg)
    assert np.array_equal(rec.final_params, replay_qhetfed(cfg))


def replay_hier_local(cfg):
    sched, topo, seed = cfg.schedule, cfg.topology, cfg.master_seed
    grid = cfg._grid
    w = np.array(cfg.initial_params, dtype=float)
    for t in range(sched.rounds):
        set_models = []
        for l in range(topo.num_sets):
            w_set = w.copy()
            for i in range(sched.tau):
                q_deltas = []
                for n, s in enumerate(grid[l]):
                    w_dev = w_set.copy()
                    for j in range(sched.gamma):
                        X, y = batch_for(s, cfg, l, n, t, i * sched.gamma + j)
                        w_dev = w_dev - sched.mu * gradient(cfg.model, w_dev, (X, y))
                    q_deltas.append(
                        quantize(w_dev - w_set, cfg.q1, stream(seed, "q1", l, n, t, i))
                    )
                w_set = w_set + np.mean(q_deltas, axis=0)
            set_models.append(w_set)
        total = np.zeros_like(w)
        for l, m in enumerate(set_models):
            q = quantize(m - w, cfg.q2, stream(seed, "q2", l, t))
            total += topo.devices_per_set[l] * q
        w = w + total / topo.num_devices
    return w


def test_hier_local_matches_reference_replay():
    cfg = quadratic_config(
        [2, 1],
        [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]], [[4.0, 5.0, 6.0]]],
        tau=2, gamma=2, mu=0.05, rounds=3, batch=2,
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8),
        master_seed=123, initial_params=np.array([0.25]),
        algorithm=HIER_LOCAL_QSGD,
    )
    rec = run(cfg)
    assert np.array_equal(rec.final_params, replay_hier_local(cfg))


# ---------------------------------------------------------------------------
# equivalences


def test_gamma1_variant_matches_general_run():
    kw = dict(
        tau=3, gamma=1, mu=0.05, rounds=6, batch=2,
        master_seed=11, initial_params=np.array([0.1]),
    )
    values = [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]], [[4.0, 5.0, 6.0]]]
    general = run(quadratic_config([2, 1], values, **kw))
    reduced = run(
        quadratic_config([2, 1], values, algorithm=QHETFED_GAMMA1, **kw)
    )
    assert np.max(np.abs(general.final_params - reduced.final_params)) < 1e-12


def test_gamma1_equivalence_survives_stochastic_quantization():
    kw = dict(
        tau=3, gamma=1, mu=0.05, rounds=6, batch=2,
        master_seed=11, initial_params=np.array([0.1]),
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8),
    )
    values = [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]], [[4.0, 5.0, 6.0]]]
    general = run(quadratic_config([2, 1], values, **kw))
    reduced = run(
        quadratic_config([2, 1], values, algorithm=QHETFED_GAMMA1, **kw)
    )
    assert np.max(np.abs(general.final_params - reduced.final_params)) < 1e-12


def test_single_device_identity_collapses_to_centralized():
    # per global iteration the qhetfed run takes tau + gamma descent steps
    # and the baseline takes tau * gamma, so each gets its own oracle alignment
    values = [[[1.0, 2.0, 5.0]]]
    kw = dict(tau=2, gamma=3, mu=0.05, rounds=5, master_seed=3)
    fed = run(quadratic_config([1], values, **kw))
    base = run(
        quadratic_config([1], values, algorithm=HIER_LOCAL_QSGD, **kw)
    )
    central_fed = run_centralized_sgd(
        quadratic_config([1], values, algorithm=CENTRALIZED_SGD, **kw),
        steps_per_iteration=2 + 3,
    )
    central_base = run_centralized_sgd(
        quadratic_config([1], values, algorithm=CENTRALIZED_SGD, **kw),
        steps_per_iteration=2 * 3,
    )
    assert np.max(np.abs(fed.final_params - central_fed.final_params)) < 1e-12
    assert np.max(np.abs(base.final_params - central_base.final_params)) < 1e-12


# ---------------------------------------------------------------------------
# record bookkeeping


def test_runtime_column_is_iteration_times_delay():
    times = PhaseTimes(2.0, 0.25, 1.5)
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=3, gamma=2, mu=0.1, rounds=4, times=times,
    )
    rec = run(cfg)
    delay = iteration_delay(3, 2, times)
    assert rec.runtime_s == [(t + 1) * delay for t in range(4)]

    cfg_b = quadratic_config(
        [1], [[[1.0]]], tau=3, gamma=2, mu=0.1, rounds=4, times=times,
        algorithm=HIER_LOCAL_QSGD,
    )
    rec_b = run(cfg_b)
    delay_b = baseline_iteration_delay(3, 2, times)
    assert rec_b.runtime_s == [(t + 1) * delay_b for t in range(4)]


def test_rerun_is_bit_identical():
    kw = dict(
        tau=2, gamma=2, mu=0.05, rounds=4, batch=2,
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8), master_seed=9,
        initial_params=np.array([0.3]),
    )
    values = [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]]]
    a = run(quadratic_config([2], values, **kw))
    b = run(quadratic_config([2], values, **kw))
    assert a.param_hash == b.param_hash
    assert a.train_loss == b.train_loss
    assert a.runtime_s == b.runtime_s


def test_different_seed_changes_stochastic_run():
    values = [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]]]
    kw = dict(
        tau=2, gamma=2, mu=0.05, rounds=4, batch=2,
        q1=QuantizerSpec(levels=4), initial_params=np.array([0.3]),
    )
    a = run(quadratic_config([2], values, master_seed=1, **kw))
    b = run(quadratic_config([2], values, master_seed=2, **kw))
    assert a.param_hash != b.param_hash


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_divergence_guard_stops_run(algorithm):
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=2, gamma=1, mu=5.0, rounds=50, norm_guard=100.0,
        algorithm=algorithm, keep_snapshots=True,
    )
    rec = run(cfg)
    assert rec.diverged_at is not None and rec.diverged_at >= 1
    for values in (rec.train_loss, rec.test_accuracy, rec.runtime_s, rec.param_hash, rec.snapshots):
        assert len(values) == rec.diverged_at
    # the diverged iterate is never handed out: the run ends on its last recorded one
    assert np.array_equal(rec.final_params, rec.snapshots[-1])
    assert np.linalg.norm(rec.final_params) <= cfg.norm_guard


@pytest.mark.parametrize("steps", [0, -1, 2.5, 2.0, True, "2"])
def test_oracle_rejects_a_step_count_that_is_not_a_positive_integer(steps):
    cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=1, algorithm=CENTRALIZED_SGD)
    with pytest.raises(ValueError, match="steps_per_iteration must be a positive integer"):
        run_centralized_sgd(cfg, steps_per_iteration=steps)


def test_divergence_guard_catches_nonfinite_gradients():
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=2, gamma=1, mu=1e200, rounds=50, norm_guard=float("inf"),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run(cfg)
    assert rec.diverged_at is not None


def test_accuracy_column_defaults_to_zero_without_test_samples():
    cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=3)
    rec = run(cfg)
    assert rec.test_accuracy == [0.0, 0.0, 0.0]


def test_runners_reject_another_algorithms_config():
    for other in ALGORITHMS:
        if other != CENTRALIZED_SGD:
            cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=1, algorithm=other)
            with pytest.raises(ValueError, match=f"{CENTRALIZED_SGD!r} run got a {other!r} config"):
                run_centralized_sgd(cfg)


def test_dispatcher_routes_every_algorithm():
    values = [[[1.0, 2.0]]]
    for algo in ALGORITHMS:
        gamma = 1 if algo == QHETFED_GAMMA1 else 2
        cfg = quadratic_config(
            [1], values, tau=2, gamma=gamma, mu=0.05, rounds=2, algorithm=algo,
        )
        rec = run(cfg)
        assert rec.algorithm == algo
        assert len(rec.train_loss) == 2


def test_snapshots_match_param_hashes():
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=3, keep_snapshots=True,
    )
    rec = run(cfg)
    assert len(rec.snapshots) == 3
    for w, h in zip(rec.snapshots, rec.param_hash):
        assert hashlib.sha256(w.tobytes()).hexdigest() == h


# ---------------------------------------------------------------------------
# byte-level pins on synthetic data


def synthetic_config(algorithm, kind):
    """Sets of 2 and 3 devices on a small synthetic task, stochastic q1/q2.

    Shard sizes straddle the batch size, so some devices draw sampled batches
    and others take full-batch steps.
    """
    topo = Topology((2, 3))
    train = make_synthetic_dataset(3, 20, 4, stream(5, "dataset"))
    shards = partition(train, topo, PartitionScheme(NONIID1, (3, 9)), stream(5, "partition"))
    return FedRunConfig(
        topology=topo,
        schedule=Schedule(tau=2, gamma=1 if algorithm == QHETFED_GAMMA1 else 3, mu=0.1,
                          rounds=4, batch=5),
        model=ModelSpec(kind=kind, input_dim=4, num_classes=3, hidden_width=5 if kind == MLP else 0),
        shards=shards,
        q1=QuantizerSpec(levels=4),
        q2=QuantizerSpec(levels=8),
        algorithm=algorithm,
        master_seed=17,
    )


# sha256 of the newline-joined param_hash list of each run
PINNED_DIGESTS = {
    (QHETFED, LOGISTIC): "3c4eadc8be403c2550e70d5d0aebeae456fbfa353d9c8d630967b27bff939226",
    (HIER_LOCAL_QSGD, LOGISTIC): "9756567819921e77f8508dec129bda1ac34b64dc0ba7efe88389568ee888e8ee",
    (QHETFED_GAMMA1, LOGISTIC): "608b77bd8bcc05ececb44fac995958ee5692818547daba5b593eff8186cc96eb",
    (QHETFED, MLP): "0e4860298f9e62ac90b84e274466e90fa6031346d179f54722fa7ca7376b9446",
    (HIER_LOCAL_QSGD, MLP): "c34d005c1c3de59ba7672127a1751ffc90c5c1f5c6468ab4d463993b640de9c9",
    (QHETFED_GAMMA1, MLP): "79d5a3f8d2cf7e2a6a3f3cb66063eda3d84a175aba8ffc5675ede1f9ab9cebfc",
}


@pytest.mark.parametrize("algorithm, kind", sorted(PINNED_DIGESTS))
def test_trajectory_matches_pinned_digest(algorithm, kind):
    rec = run(synthetic_config(algorithm, kind))
    assert len(rec.param_hash) == 4 and rec.diverged_at is None
    digest = hashlib.sha256("\n".join(rec.param_hash).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[algorithm, kind]


def ragged_config(sizes, batch):
    """Set 1 holds one device per entry of ``sizes``; feature column 1 is each row's index."""
    shards = [DeviceShard(0, 0, (np.zeros((4, 2)), np.zeros(4, dtype=int)))]
    for n, size in enumerate(sizes):
        rows = np.arange(size)
        shards.append(DeviceShard(1, n, (np.column_stack([np.full(size, n), rows]), rows % 3)))
    return FedRunConfig(
        topology=Topology((1, len(sizes))),
        schedule=Schedule(tau=2, gamma=3, mu=0.1, rounds=1, batch=batch),
        model=ModelSpec(kind=LOGISTIC, input_dim=2, num_classes=3),
        shards=shards,
        master_seed=23,
    )


@pytest.mark.parametrize("batch", [1, 7, 40])
def test_batch_rows_are_numpys_rows_for_each_key(batch):
    cfg = ragged_config([1, 3, 7, 8, 40, 41, 55, 100], batch)
    steps = steps_per_round(QHETFED, cfg.schedule)
    rows = _batch_rows(cfg, 1, 3)
    sampled = [n for n, shard in enumerate(cfg._grid[1]) if shard.size > batch]
    assert sorted(rows) == sampled
    for n in sampled:
        size = cfg._grid[1][n].size
        want = [stream(23, "batch", 1, n, 3, k).integers(0, size, size=batch) for k in range(steps)]
        assert np.array_equal(rows[n], want)


def test_batch_gathers_one_step_or_a_slice_of_steps():
    cfg = ragged_config([3, 41], 7)
    small, large = cfg._grid[1]
    rows = _batch_rows(cfg, 1, 0)
    X, y = _batch(small, None, slice(2, 5))
    assert X is small.features and y is small.labels
    X, y = _batch(large, rows[1], slice(2, 5))
    assert X.shape == (3, 7, 2)
    for j, k in enumerate((2, 3, 4)):
        # feature column 1 holds each row's index
        assert np.array_equal(X[j, :, 1], rows[1][k]) and np.array_equal(y[j], large.labels[rows[1][k]])
        X1, y1 = _batch(large, rows[1], k)
        assert np.array_equal(X1, X[j]) and np.array_equal(y1, y[j])


def test_full_batch_set_draws_nothing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a full-batch set drew a batch stream")

    monkeypatch.setattr(federation, "stream", no_draw)
    monkeypatch.setattr(federation, "seed_states", no_draw)
    assert _batch_rows(ragged_config([2, 5, 9], 9), 1, 0) == {}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_steps_per_round_counts_gradient_calls_per_device(monkeypatch, algorithm):
    calls = []

    def counting_gradient(spec, w, batch):
        calls.append(1)
        return gradient(spec, w, batch)

    monkeypatch.setattr(models, "gradient", counting_gradient)
    cfg = synthetic_config(algorithm, LOGISTIC)
    # the oracle steps once per iteration on the pooled data: one device
    devices = 1 if algorithm == CENTRALIZED_SGD else cfg.topology.num_devices
    run(cfg)
    assert len(calls) == steps_per_round(algorithm, cfg.schedule) * devices * cfg.schedule.rounds
