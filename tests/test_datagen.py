import time
from typing import NamedTuple

import numpy as np
import pytest

from qhetfed.datagen import (
    DeviceShard,
    PartitionScheme,
    _device_rule,
    global_loss,
    make_synthetic_dataset,
    partition,
    split_dataset,
)
from qhetfed.federation import FedRunConfig, Schedule, Topology
from qhetfed.models import ModelSpec
from qhetfed.streams import stream


# The per-sample construction the array path replaced, kept as the reference:
# the same rng calls in the same order, one Sample object per row.


class Sample(NamedTuple):
    features: np.ndarray
    label: int


def _reference_dataset(num_classes, per_class, input_dim, rng, separation=6.0, noise=1.0):
    directions = rng.standard_normal((num_classes, input_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions
    dataset = []
    for k in range(num_classes):
        points = means[k] + noise * rng.standard_normal((per_class, input_dim))
        dataset.extend(Sample(features=p, label=k) for p in points)
    return dataset


def _reference_split(dataset, test_fraction, rng):
    order = rng.permutation(len(dataset))
    n_test = int(round(test_fraction * len(dataset)))
    return [dataset[i] for i in order[n_test:]], [dataset[i] for i in order[:n_test]]


def _reference_partition(dataset, topology, scheme, rng):
    """(set, device, X, y) per device, stacked from the chosen sample objects."""
    labels = np.array([s.label for s in dataset], dtype=int)
    by_class = [np.flatnonzero(labels == k) for k in range(int(labels.max()) + 1)]
    present = [k for k in range(len(by_class)) if len(by_class[k])]
    lo, hi = scheme.size_range
    shards = []
    for l in range(topology.num_sets):
        n_dev = topology.devices_per_set[l]
        for n in range(n_dev):
            rule = _device_rule(scheme, l, n, n_dev)
            size = int(rng.integers(lo, hi + 1))
            if rule == "iid":
                pool = np.arange(len(dataset))
            else:
                chosen = rng.choice(present, size={"noniid1": 2, "noniid2": 1}[rule], replace=False)
                pool = np.concatenate([by_class[k] for k in np.sort(chosen)])
            idx = rng.choice(pool, size=size, replace=size > len(pool))
            samples = [dataset[i] for i in idx]
            shards.append((l, n, np.stack([s.features for s in samples]),
                           np.array([s.label for s in samples], dtype=int)))
    return shards


def _assert_pair_equal(pair, samples):
    X, y = pair
    assert np.array_equal(X, np.stack([s.features for s in samples]))
    assert np.array_equal(y, [s.label for s in samples])
    assert X.dtype == np.float64 and y.dtype == np.int64


def _assert_shards_equal(shards, reference):
    assert len(shards) == len(reference)
    for s, (l, n, X, y) in zip(shards, reference):
        assert (s.set_index, s.device_index) == (l, n)
        assert np.array_equal(s.features, X) and np.array_equal(s.labels, y)
        assert s.size == len(y)


def _rows(X):
    return {row.tobytes() for row in X}


@pytest.mark.parametrize("args", [(3, 20, 5, 6.0, 1.0), (10, 48, 200, 2.0, 1.5), (2, 1, 1, 0.5, 0.0)])
def test_dataset_matches_per_sample_reference(args):
    classes, per_class, dim, separation, noise = args
    rng, ref_rng = stream(9, "ds"), stream(9, "ds")
    pair = make_synthetic_dataset(classes, per_class, dim, rng, separation=separation, noise=noise)
    _assert_pair_equal(pair, _reference_dataset(classes, per_class, dim, ref_rng, separation, noise))
    # the same number of draws: both generators continue identically
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("fraction", [0.0, 0.2, 0.5])
def test_split_matches_per_sample_reference(fraction):
    pair = make_synthetic_dataset(3, 30, 4, stream(10, "ds"))
    reference = _reference_dataset(3, 30, 4, stream(10, "ds"))
    train, test = split_dataset(pair, fraction, stream(10, "split"))
    ref_train, ref_test = _reference_split(reference, fraction, stream(10, "split"))
    _assert_pair_equal(train, ref_train)
    if ref_test:
        _assert_pair_equal(test, ref_test)
    else:
        assert test[0].shape == (0, 4) and test[1].shape == (0,)


@pytest.mark.parametrize("kind", ["iid", "noniid1", "noniid2", "mixed"])
def test_partition_matches_per_sample_reference(kind):
    pair = make_synthetic_dataset(5, 60, 4, stream(11, "ds"))
    reference = _reference_dataset(5, 60, 4, stream(11, "ds"))
    topo = Topology((3, 4, 5))
    scheme = PartitionScheme(kind=kind, size_range=(20, 40))
    expected = _reference_partition(reference, topo, scheme, stream(11, kind))
    _assert_shards_equal(partition(pair, topo, scheme, stream(11, kind)), expected)


def test_partition_falls_back_to_replacement_like_the_reference():
    # noniid2 pools hold 8 samples, shards want 10 to 12
    pair = make_synthetic_dataset(3, 8, 2, stream(12, "ds"))
    reference = _reference_dataset(3, 8, 2, stream(12, "ds"))
    topo = Topology((2, 2))
    scheme = PartitionScheme(kind="noniid2", size_range=(10, 12))
    shards = partition(pair, topo, scheme, stream(12, "p"))
    _assert_shards_equal(shards, _reference_partition(reference, topo, scheme, stream(12, "p")))
    assert all(len(_rows(s.features)) < s.size for s in shards)


def test_partition_pools_only_the_labels_present_whatever_their_values():
    X = np.arange(6.0).reshape(3, 2)
    topo = Topology((2, 2))
    start = time.perf_counter()
    shards = partition((X, np.array([0, 1, 10**12])), topo, PartitionScheme("noniid1", (2, 3)), stream(0, "p"))
    # one pool per label present, not one per integer up to the largest label
    assert time.perf_counter() - start < 0.5
    assert all(len(set(s.labels.tolist())) <= 2 and set(s.labels.tolist()) <= {0, 1, 10**12} for s in shards)
    # a negative label is a class like any other
    shards = partition((X, np.array([-1, -1, -1])), topo, PartitionScheme("noniid2", (2, 3)), stream(0, "p"))
    assert all(s.labels.tolist() == [-1] * s.size for s in shards)


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("kind", ["iid", "noniid1", "noniid2", "mixed"])
@pytest.mark.parametrize("values", [
    [-10, -9, -8, -7, -6],
    [0, 10**12, 2 * 10**12, 3 * 10**12, 4 * 10**12],
    [0, 1, 8, 27, 64],
    [_INT64.min, -1, 0, 1, _INT64.max],
], ids=["negative", "huge", "gapped", "int64_extremes"])
def test_partition_pools_follow_label_order_and_row_order(kind, values):
    # rows in shuffled order, labels relabelled by an increasing map: each class pool is still the
    # reference's, in label order and each in row order, so the same draws pick the same rows
    perm = stream(13, "perm").permutation(300)
    X, y = make_synthetic_dataset(5, 60, 4, stream(11, "ds"))
    reference = _reference_dataset(5, 60, 4, stream(11, "ds"))
    relabel = np.array(values, dtype=np.int64)
    topo = Topology((3, 4, 5))
    scheme = PartitionScheme(kind=kind, size_range=(20, 40))
    expected = [(l, n, X_ref, relabel[y_ref])
                for l, n, X_ref, y_ref in _reference_partition([reference[i] for i in perm], topo, scheme,
                                                                stream(11, kind))]
    _assert_shards_equal(partition((X[perm], relabel[y[perm]]), topo, scheme, stream(11, kind)), expected)


def test_synthetic_dataset_shape_and_order():
    X, y = make_synthetic_dataset(3, 20, 5, stream(0, "ds"))
    assert X.shape == (60, 5)
    assert y.tolist() == [0] * 20 + [1] * 20 + [2] * 20


def test_synthetic_classes_are_separated():
    X, y = make_synthetic_dataset(4, 100, 8, stream(1, "ds"), separation=8.0, noise=1.0)
    means = {k: X[y == k].mean(axis=0) for k in range(4)}
    for a in range(4):
        for b in range(a + 1, 4):
            assert np.linalg.norm(means[a] - means[b]) > 4.0


def test_split_dataset():
    ds = make_synthetic_dataset(2, 50, 3, stream(2, "ds"))
    train, test = split_dataset(ds, 0.2, stream(2, "split"))
    assert len(test[1]) == 20 and len(test[0]) == 20
    assert len(train[1]) == 80 and len(train[0]) == 80
    # no row in both halves, and together they are the whole dataset
    assert not _rows(train[0]) & _rows(test[0])
    assert _rows(train[0]) | _rows(test[0]) == _rows(ds[0])
    # deterministic for a fixed stream
    train2, test2 = split_dataset(ds, 0.2, stream(2, "split"))
    assert np.array_equal(test[1], test2[1]) and np.array_equal(test[0], test2[0])
    with pytest.raises(ValueError):
        split_dataset(ds, 1.0, stream(0, "x"))
    # 0.99 of 100 rows rounds to 99 test rows; of 2 rows, to 2
    assert len(split_dataset(ds, 0.99, stream(0, "x"))[0][1]) == 1
    with pytest.raises(ValueError, match="test_fraction 0.9 leaves none of the 2 rows for training"):
        split_dataset(make_synthetic_dataset(2, 1, 3, stream(2, "ds")), 0.9, stream(0, "x"))
    # a positive fraction that rounds to no test row is refused; 0.0 means no test set
    with pytest.raises(ValueError, match="test_fraction 0.004 leaves none of the 100 rows for testing"):
        split_dataset(ds, 0.004, stream(0, "x"))
    assert len(split_dataset(ds, 0.0, stream(0, "x"))[1][1]) == 0


def test_iid_partition_sizes_and_diversity():
    ds = make_synthetic_dataset(3, 400, 4, stream(3, "ds"))
    topo = Topology((3, 3))
    scheme = PartitionScheme(kind="iid", size_range=(40, 60))
    shards = partition(ds, topo, scheme, stream(3, "part"))
    assert len(shards) == 6
    assert {(s.set_index, s.device_index) for s in shards} == {
        (l, n) for l in range(2) for n in range(3)
    }
    for s in shards:
        assert 40 <= s.size <= 60
        assert len(set(s.labels.tolist())) >= 2
        # without replacement: no duplicated rows inside one device
        assert len(_rows(s.features)) == s.size


def test_noniid_partitions_limit_class_counts():
    ds = make_synthetic_dataset(5, 300, 4, stream(4, "ds"))
    topo = Topology((4, 4))
    for kind, max_classes in (("noniid1", 2), ("noniid2", 1)):
        shards = partition(ds, topo, PartitionScheme(kind=kind, size_range=(30, 50)), stream(4, kind))
        for s in shards:
            assert len(set(s.labels.tolist())) <= max_classes
    # noniid1 devices should usually carry exactly two classes
    shards = partition(ds, topo, PartitionScheme(kind="noniid1", size_range=(30, 50)), stream(5, "n1"))
    assert any(len(set(s.labels.tolist())) == 2 for s in shards)


def test_mixed_partition_layout():
    ds = make_synthetic_dataset(4, 500, 4, stream(6, "ds"))
    topo = Topology((4, 4, 4))
    shards = partition(ds, topo, PartitionScheme(kind="mixed", size_range=(40, 60)), stream(6, "mix"))
    by_set = {}
    for s in shards:
        by_set.setdefault(s.set_index, []).append(s)
    # first set iid, second set class-limited, third set half and half
    assert all(len(set(s.labels.tolist())) >= 3 for s in by_set[0])
    assert all(len(set(s.labels.tolist())) <= 2 for s in by_set[1])
    third = sorted(by_set[2], key=lambda s: s.device_index)
    assert len(set(third[0].labels.tolist())) >= 3
    assert len(set(third[-1].labels.tolist())) <= 2


def test_mixed_partition_needs_three_sets():
    ds = make_synthetic_dataset(3, 100, 4, stream(7, "ds"))
    with pytest.raises(ValueError):
        partition(ds, Topology((2, 2)), PartitionScheme(kind="mixed"), stream(7, "mix"))


@pytest.mark.parametrize("kind", ["noniid1", "mixed"])
def test_class_skewed_schemes_need_two_classes(kind):
    # mixed gives some devices the noniid1 rule, so it needs noniid1's two classes
    X, y = make_synthetic_dataset(2, 20, 4, stream(7, "ds"))
    one_class = (X[y == 0], y[y == 0])
    with pytest.raises(ValueError, match=f"scheme '{kind}' needs 2 classes per device but the dataset has only 1"):
        partition(one_class, Topology((2, 2, 2)), PartitionScheme(kind=kind), stream(7, "part"))
    assert len(partition(one_class, Topology((2, 2, 2)), PartitionScheme(kind="noniid2"), stream(7, "part"))) == 6


def test_global_loss_is_size_weighted():
    spec = ModelSpec(kind="quadratic", input_dim=1)
    small = DeviceShard(0, 0, (np.array([[0.0]]), np.array([0])))
    big = DeviceShard(0, 1, (np.full((3, 1), 2.0), np.zeros(3, dtype=int)))
    w = np.array([0.0])
    # losses are 0 and 2, sizes 1 and 3: weighted mean 1.5
    assert abs(global_loss([small, big], spec, w) - 1.5) < 1e-12


def test_shard_validation():
    with pytest.raises(ValueError):
        DeviceShard(0, 0, (np.zeros((0, 2)), np.zeros(0, dtype=int)))
    with pytest.raises(ValueError):
        DeviceShard(0, 0, (np.zeros((3, 2)), np.zeros(2, dtype=int)))
    with pytest.raises(ValueError):
        PartitionScheme(kind="iid", size_range=(10, 5))
    with pytest.raises(ValueError):
        PartitionScheme(kind="weird")
    for bad in [(3,), (2, 5, 7), 4]:
        with pytest.raises(ValueError, match=r"^size_range must be a \(min, max\) pair, got "):
            PartitionScheme(kind="iid", size_range=bad)
    # a list is stored as a tuple, so the read-only spec stays hashable
    scheme = PartitionScheme(kind="iid", size_range=[2, 5])
    assert scheme.size_range == (2, 5) and type(scheme.size_range) is tuple
    assert hash(scheme) == hash(PartitionScheme("iid", (2, 5)))


def test_unsigned_labels_that_fit_int64_pass_unchanged():
    labels = np.array([0, 7, 2**63 - 1], dtype=np.uint64)
    shard = DeviceShard(0, 0, (np.zeros((3, 2)), labels))
    assert shard.labels.dtype == np.int64
    assert shard.labels.tolist() == [0, 7, 2**63 - 1]


def test_split_and_partition_hand_over_read_only_arrays_that_no_config_copies():
    topo = Topology((2, 1))
    train, test = split_dataset(make_synthetic_dataset(3, 20, 4, stream(3, "dataset")), 0.25, stream(3, "split"))
    shards = partition(train, topo, PartitionScheme(), stream(3, "partition"))
    arrays = [*train, *test, *(a for s in shards for a in (s.features, s.labels))]
    assert not any(a.flags.writeable for a in arrays)
    assert all(a.base is None for a in arrays)
    cfg = FedRunConfig(topo, Schedule(1, 1, 0.1, 1, 5), ModelSpec("logistic", 4, 3), shards, test_samples=test)
    # the run path keeps the very arrays datagen built: no shard or test array is copied
    assert all(a is b for a, b in zip(cfg.test_samples, test))
    assert all(a is b for a, b in zip(cfg.shards, shards))
    again = DeviceShard(0, 0, (shards[0].features, shards[0].labels))
    assert again.features is shards[0].features and again.labels is shards[0].labels
