import hashlib
import pickle

import numpy as np
import pytest

from qhetfed import federation, models
from qhetfed.datagen import NONIID1, DeviceShard, PartitionScheme, make_synthetic_dataset, partition
from qhetfed.federation import (
    ALGORITHMS,
    CENTRALIZED_SGD,
    FedRunConfig,
    HIER_LOCAL_QSGD,
    NORM_GUARD,
    QHETFED,
    QHETFED_GAMMA1,
    Schedule,
    Topology,
    _batch,
    _batch_rows,
    _shard_grid,
    cloud_aggregate,
    edge_aggregate_gradients,
    edge_aggregate_models,
    iterates,
    run,
    seconds_per_round,
    steps_per_round,
)
from qhetfed.models import LOGISTIC, MLP, ModelSpec, QUADRATIC, gradient
from qhetfed.quantizer import NonFiniteInputError, QuantizerSpec, identity_spec, quantize
from qhetfed.streams import stream
from qhetfed.timing import PhaseTimes, iteration_delay


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


def test_config_rejects_test_samples_that_do_not_fit_the_model():
    X, y = make_synthetic_dataset(3, 2, 4, stream(5, "test"))
    # a copy with new test samples is built through the constructor, so it runs the checks
    assert synthetic_config(QHETFED, LOGISTIC, test_samples=(X, y)).test_samples is not None
    assert synthetic_config(QHETFED, LOGISTIC, test_samples=(X[:0], y[:0])).test_samples is not None
    # before this check, a narrow test set failed in numpy's matmul after the first round
    for bad in [(X[:, :3], y), (X, y[:-1]), (X[0], y[:1])]:
        with pytest.raises(ValueError, match="test_samples must be rows of width 4"):
            synthetic_config(QHETFED, LOGISTIC, test_samples=bad)


def test_topology_validation():
    for counts in [(), (2, 0), (2.7,), (2.0, 1), (True, 2), (np.float64(3),), ("2",)]:
        with pytest.raises(ValueError):
            Topology(counts)
    assert Topology((3, 1)).num_devices == 4
    topo = Topology((np.int64(3), np.int32(1)))
    assert topo.devices_per_set == (3, 1)
    assert all(type(n) is int for n in topo.devices_per_set)
    # any sequence of counts, a numpy integer array included
    topo = Topology(np.array([3, 3]))
    assert topo.devices_per_set == (3, 3) and all(type(n) is int for n in topo.devices_per_set)
    with pytest.raises(ValueError, match="^devices_per_set must not be empty$"):
        Topology(np.array([], dtype=int))


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


def test_run_record_survives_a_pickle_round_trip():
    # the experiment pool's workers send their records to the parent pickled
    rec = run(quadratic_config([2], [[[1.0, 2.0], [3.0]]], tau=2, gamma=2, mu=0.1, rounds=3))
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is federation.RunRecord
    for name in ("algorithm", "master_seed", "train_loss", "test_accuracy", "runtime_s", "param_hash",
                 "diverged_at", "snapshots", "config"):
        assert getattr(back, name) == getattr(rec, name)
    assert back.final_params.tobytes() == rec.final_params.tobytes()


def test_config_and_record_fields_are_read_only():
    cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=2)
    rec = run(cfg)
    # a field assigned after construction would skip the checks, and the engine would run on unchecked inputs
    for obj, count in ((cfg, 11), (rec, 10)):
        assert len(obj._fields) == count
        for name in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    with pytest.raises(AttributeError):
        cfg.extra = 1


def test_config_keeps_its_shards_as_a_tuple_in_set_device_order():
    cfg = quadratic_config([2, 1], [[[1.0], [2.0]], [[3.0]]], tau=1, gamma=1, mu=0.1, rounds=1)
    back = FedRunConfig(**dict(cfg._asdict(), shards=list(cfg.shards[::-1])))
    for c in (cfg, back):
        assert type(c.shards) is tuple
        assert [(s.set_index, s.device_index) for s in c.shards] == [(0, 0), (0, 1), (1, 0)]


def test_pickled_config_unpickles_through_its_checks():
    cfg = quadratic_config([2], [[[1.0, 2.0], [3.0]]], tau=2, gamma=2, mu=0.1, rounds=3, master_seed=4)
    back = pickle.loads(pickle.dumps(cfg))
    assert type(back) is FedRunConfig and type(back.shards) is tuple
    assert run(back).param_hash == run(cfg).param_hash
    # _replace skips the checks; unpickling goes through the constructor again
    for bad, message in ((cfg._replace(master_seed=-1), "master_seed must be >= 0"),
                         (cfg._replace(shards=cfg.shards[:1]), "1 shards for 2 devices")):
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(bad))


def test_a_checked_configs_arrays_cannot_be_written():
    # a write after the checks would reach the run unchecked: it ended a run at diverged_at = 0
    X, y = np.ones((2, 1)), np.zeros(2, dtype=int)
    view = X[:]
    view.flags.writeable = False
    cfg = FedRunConfig(Topology((2,)), Schedule(2, 1, 0.1, 3, 2), ModelSpec(QUADRATIC, 1),
                       [DeviceShard(0, 0, (X, y)), DeviceShard(0, 1, (view, y))], test_samples=(X, y))
    shard = cfg.shards[0]
    for array, index in ((shard.features, (0, 0)), (shard.labels, 0),
                         (cfg.test_samples[0], (0, 0)), (cfg.test_samples[1], 0), (cfg.shards[1].features, (0, 0))):
        with pytest.raises(ValueError, match="read-only"):
            array[index] = 7
    # nor can a shard's fields be replaced by arrays the config never checked
    for name in shard._fields:
        with pytest.raises(AttributeError):
            setattr(shard, name, np.full((2, 1), np.inf))
    # a writable array, or a read-only view of one, is copied; the caller's arrays stay as they were
    held = [shard.features, shard.labels, cfg.shards[1].features, *cfg.test_samples]
    assert X.flags.writeable and y.flags.writeable
    assert not any(np.shares_memory(a, b) for a in held for b in (X, y))
    assert len(run(cfg).train_loss) == 3
    # an unpickled array is writable: the shards and the config unpickle through their constructors
    back = pickle.loads(pickle.dumps(cfg))
    assert not any(a.flags.writeable for s in back.shards for a in (s.features, s.labels))
    assert not back.test_samples[0].flags.writeable


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_does_not_depend_on_the_order_of_the_shard_list(algorithm):
    topo = Topology((2, 3))
    train = make_synthetic_dataset(3, 20, 4, stream(5, "dataset"))
    shards = partition(train, topo, PartitionScheme(NONIID1, (3, 9)), stream(5, "partition"))
    for kind, hidden in ((LOGISTIC, 0), (MLP, 5)):
        recs = [
            run(FedRunConfig(topo, Schedule(2, 3, 0.1, 4, 5), ModelSpec(kind, 4, 3, hidden), order,
                             QuantizerSpec(levels=4), QuantizerSpec(levels=8), algorithm, 17))
            for order in (shards, shards[::-1])
        ]
        # global_loss sums over config.shards, kept in (set, device) order whatever order they came in
        assert recs[0].param_hash == recs[1].param_hash
        assert recs[0].train_loss == recs[1].train_loss


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
    rec = run(cfg)
    assert abs(rec.final_params[0] - (1.0 - 0.9 ** 10)) < 1e-12


def test_centralized_iterates_follow_closed_form():
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=8,
        algorithm=CENTRALIZED_SGD,
    )
    ws = [w for _, w in iterates(cfg)]
    assert len(ws) == 9
    for t, w in enumerate(ws):
        assert abs(w[0] - (1.0 - 0.9 ** t)) < 1e-12


def test_centralized_full_batch_ignores_seed():
    kw = dict(tau=1, gamma=1, mu=0.1, rounds=5, algorithm=CENTRALIZED_SGD)
    a = run(quadratic_config([1], [[[1.0, 3.0]]], master_seed=1, **kw))
    b = run(quadratic_config([1], [[[1.0, 3.0]]], master_seed=2, **kw))
    assert a.param_hash == b.param_hash


# ---------------------------------------------------------------------------
# reference replays with stochastic quantizers


def replay_qhetfed(cfg):
    """Straight-line reimplementation of the qhetfed iteration for comparison."""
    sched, topo, seed = cfg.schedule, cfg.topology, cfg.master_seed
    grid = _shard_grid(cfg.shards, cfg.topology)
    w = np.zeros(cfg.model.dim)
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
        master_seed=123,
    )
    rec = run(cfg)
    assert np.array_equal(rec.final_params, replay_qhetfed(cfg))


def replay_hier_local(cfg):
    sched, topo, seed = cfg.schedule, cfg.topology, cfg.master_seed
    grid = _shard_grid(cfg.shards, cfg.topology)
    w = np.zeros(cfg.model.dim)
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
        master_seed=123,
        algorithm=HIER_LOCAL_QSGD,
    )
    rec = run(cfg)
    assert np.array_equal(rec.final_params, replay_hier_local(cfg))


# ---------------------------------------------------------------------------
# equivalences


def test_gamma1_variant_matches_general_run():
    kw = dict(
        tau=3, gamma=1, mu=0.05, rounds=6, batch=2,
        master_seed=11,
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
        master_seed=11,
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8),
    )
    values = [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]], [[4.0, 5.0, 6.0]]]
    general = run(quadratic_config([2, 1], values, **kw))
    reduced = run(
        quadratic_config([2, 1], values, algorithm=QHETFED_GAMMA1, **kw)
    )
    assert np.max(np.abs(general.final_params - reduced.final_params)) < 1e-12


def test_gamma1_variant_reads_no_gamma():
    # its phases, batch draws and delay are the same under any schedule.gamma
    kw = dict(
        tau=3, mu=0.05, rounds=4, batch=2, master_seed=11, algorithm=QHETFED_GAMMA1,
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8), times=PhaseTimes(2.0, 0.25, 1.5),
    )
    values = [[[1.0, 2.0, 3.0], [0.5, 1.5, 2.5]], [[4.0, 5.0, 6.0]]]
    one, three = (run(quadratic_config([2, 1], values, gamma=gamma, **kw)) for gamma in (1, 3))
    assert one.param_hash == three.param_hash and len(one.param_hash) == 4
    assert one.train_loss == three.train_loss
    assert one.runtime_s == three.runtime_s == [(t + 1) * iteration_delay(4, 3, kw["times"]) for t in range(4)]


def test_single_device_identity_collapses_to_centralized():
    # per global iteration the qhetfed run takes tau + gamma descent steps
    # and the baseline takes tau * gamma, so each gets its own oracle alignment
    values = [[[1.0, 2.0, 5.0]]]
    kw = dict(tau=2, gamma=3, mu=0.05, rounds=5, master_seed=3)
    fed = run(quadratic_config([1], values, **kw))
    base = run(
        quadratic_config([1], values, algorithm=HIER_LOCAL_QSGD, **kw)
    )
    oracle = quadratic_config([1], values, algorithm=CENTRALIZED_SGD, **kw)
    central_fed = [w for _, w in iterates(oracle, steps_per_iteration=2 + 3)][-1]
    central_base = [w for _, w in iterates(oracle, steps_per_iteration=2 * 3)][-1]
    assert np.max(np.abs(fed.final_params - central_fed)) < 1e-12
    assert np.max(np.abs(base.final_params - central_base)) < 1e-12


# ---------------------------------------------------------------------------
# record bookkeeping


def test_runtime_column_is_iteration_times_delay():
    times = PhaseTimes(2.0, 0.25, 1.5)
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=3, gamma=2, mu=0.1, rounds=4, times=times,
    )
    rec = run(cfg)
    delay = iteration_delay(3 + 2, 3, times)
    assert rec.runtime_s == [(t + 1) * delay for t in range(4)]

    cfg_b = quadratic_config(
        [1], [[[1.0]]], tau=3, gamma=2, mu=0.1, rounds=4, times=times,
        algorithm=HIER_LOCAL_QSGD,
    )
    rec_b = run(cfg_b)
    delay_b = iteration_delay(3 * 2, 3, times)
    assert rec_b.runtime_s == [(t + 1) * delay_b for t in range(4)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runtime_stamps_step_by_seconds_per_round(algorithm):
    # parse_config checks the last stamp through seconds_per_round, so the stamps must come from it too
    times = PhaseTimes(2.0, 0.25, 1.5)
    cfg = quadratic_config([2], [[[1.0], [3.0]]], tau=3, gamma=2, mu=0.1, rounds=4, times=times,
                           algorithm=algorithm)
    delay = seconds_per_round(algorithm, cfg.schedule, times)
    assert run(cfg).runtime_s == [t * delay for t in range(1, 5)]
    if algorithm == CENTRALIZED_SGD:
        assert delay == times.t_cp


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_iterates_are_read_only(algorithm):
    # advance reads w after the reader resumes the stream, so a write into w would steer the next iteration
    cfg = quadratic_config([2], [[[1.0], [3.0]]], tau=2, gamma=2, mu=0.1, rounds=3, algorithm=algorithm)
    for _, w in iterates(cfg):
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 7.0
    assert not run(cfg).final_params.flags.writeable


def test_a_readers_own_overflow_still_warns():
    # the engine silences overflow only around its own step: a reader's arithmetic between yields still warns
    cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=3)
    for _, w in iterates(cfg):
        with pytest.warns(RuntimeWarning, match="overflow"):
            np.full(1, 1e308) * 10


def test_rerun_is_bit_identical():
    kw = dict(
        tau=2, gamma=2, mu=0.05, rounds=4, batch=2,
        q1=QuantizerSpec(levels=4), q2=QuantizerSpec(levels=8), master_seed=9,
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
        q1=QuantizerSpec(levels=4),
    )
    a = run(quadratic_config([2], values, master_seed=1, **kw))
    b = run(quadratic_config([2], values, master_seed=2, **kw))
    assert a.param_hash != b.param_hash


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_divergence_guard_stops_run(algorithm):
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=2, gamma=1, mu=5.0, rounds=50,
        algorithm=algorithm,
    )
    rec = run(cfg)
    assert rec.diverged_at is not None and rec.diverged_at >= 1
    ws = [w for t, w in iterates(cfg) if t]
    for values in (rec.train_loss, rec.test_accuracy, rec.runtime_s, rec.param_hash, ws):
        assert len(values) == rec.diverged_at
    # the diverged iterate is never handed out: the run ends on its last recorded one
    assert np.array_equal(rec.final_params, ws[-1])
    assert np.linalg.norm(rec.final_params) <= NORM_GUARD


@pytest.mark.parametrize("steps", [0, -1, 2.5, 2.0, True, "2"])
def test_oracle_rejects_a_step_count_that_is_not_a_positive_integer(steps):
    cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=1, algorithm=CENTRALIZED_SGD)
    with pytest.raises(ValueError, match="steps_per_iteration must be (an integer|>= 1)"):
        iterates(cfg, steps_per_iteration=steps)


def test_divergence_guard_catches_nonfinite_gradients(monkeypatch):
    raised = []

    def recording_quantize(*args):
        try:
            return quantize(*args)
        except NonFiniteInputError:
            raised.append(True)
            raise

    monkeypatch.setattr(federation, "quantize", recording_quantize)
    cfg = quadratic_config([1], [[[1.0]]], tau=2, gamma=1, mu=1e200, rounds=50)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run(cfg)
    # the local phase hands the quantizer a NaN delta in round 0, before any norm is tested
    assert rec.diverged_at == 0 and raised == [True]


@pytest.mark.parametrize("make_config", [
    lambda: quadratic_config([1], [[[1.0]]], tau=2, gamma=1, mu=1e200, rounds=50),
    lambda: synthetic_config(QHETFED, MLP, init_scale=1e308),
], ids=["quadratic_mu_1e200", "mlp_init_scale_1e308"])
def test_an_overflow_ends_the_run_without_a_numpy_warning(make_config):
    # the suite turns every warning into an error, so a numpy warning from the engine fails here
    assert run(make_config()).diverged_at == 0


def test_accuracy_column_defaults_to_zero_without_test_samples():
    cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=3)
    rec = run(cfg)
    assert rec.test_accuracy == [0.0, 0.0, 0.0]


def test_only_the_oracle_takes_several_steps_per_iteration():
    for other in ALGORITHMS:
        if other != CENTRALIZED_SGD:
            cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=1, algorithm=other)
            # the call raises, not the first next()
            with pytest.raises(ValueError, match=f"a {other!r} config takes steps_per_iteration 1, got 2"):
                iterates(cfg, steps_per_iteration=2)


def test_dispatcher_routes_every_algorithm():
    values = [[[1.0, 2.0]]]
    for algo in ALGORITHMS:
        cfg = quadratic_config(
            [1], values, tau=2, gamma=2, mu=0.05, rounds=2, algorithm=algo,
        )
        rec = run(cfg)
        assert rec.algorithm == algo
        assert len(rec.train_loss) == 2


def test_iterates_match_param_hashes():
    cfg = quadratic_config(
        [1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=3,
    )
    rec = run(cfg)
    ws = [w for t, w in iterates(cfg) if t]
    assert len(ws) == 3
    for w, h in zip(ws, rec.param_hash):
        assert hashlib.sha256(w.tobytes()).hexdigest() == h


@pytest.mark.parametrize("kind", [LOGISTIC, MLP, QUADRATIC])
def test_the_engine_picks_the_start_point(kind, monkeypatch):
    # zeros, but for the mlp, whose zero point is a saddle: init_scale times one draw from the "init" stream
    if kind == QUADRATIC:
        cfg = quadratic_config([1], [[[1.0]]], tau=1, gamma=1, mu=0.1, rounds=1)
    else:
        cfg = synthetic_config(QHETFED, kind, init_scale=0.3)
    purposes = []
    monkeypatch.setattr(federation, "stream", lambda *key, **kw: purposes.append(key[1]) or stream(*key, **kw))
    w0 = next(iterates(cfg))[1]
    if kind == MLP:
        assert np.array_equal(w0, 0.3 * stream(cfg.master_seed, "init").standard_normal(cfg.model.dim))
    else:
        assert np.array_equal(w0, np.zeros(cfg.model.dim))
    assert purposes == (["init"] if kind == MLP else [])


# ---------------------------------------------------------------------------
# byte-level pins on synthetic data


def synthetic_config(algorithm, kind, **kw):
    """Sets of 2 and 3 devices on a small synthetic task, stochastic q1/q2; ``kw`` adds config fields.

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
        **kw,
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
    devices = cfg.shards[1:]  # set 0 holds the one device before them
    rows = _batch_rows(cfg, 1, devices, 3, steps)
    sampled = [n for n, shard in enumerate(devices) if shard.size > batch]
    assert sorted(rows) == sampled
    for n in sampled:
        size = devices[n].size
        want = [stream(23, "batch", 1, n, 3, k).integers(0, size, size=batch) for k in range(steps)]
        assert np.array_equal(rows[n], want)


def test_batch_gathers_one_step_or_a_slice_of_steps():
    cfg = ragged_config([3, 41], 7)
    small, large = cfg.shards[1:]
    rows = _batch_rows(cfg, 1, (small, large), 0, steps_per_round(QHETFED, cfg.schedule))
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
    cfg = ragged_config([2, 5, 9], 9)
    assert _batch_rows(cfg, 1, cfg.shards[1:], 0, steps_per_round(QHETFED, cfg.schedule)) == {}


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
