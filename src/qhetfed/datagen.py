"""Synthetic classification data and device partitioning schemes.

Data lives in stacked arrays: a dataset, each half of a split and each
device shard is an ``(X, y)`` pair of a float feature matrix and an int label
vector, the batch form of ``models``, checked on entry by ``check_samples``.

The partition schemes control how class-skewed each device's shard is:

* ``iid``     -- every device draws uniformly from the whole dataset.
* ``noniid1`` -- every device first picks 2 classes, then draws only from them.
* ``noniid2`` -- like noniid1 with a single class per device (the extreme case).
* ``mixed``   -- requires exactly 3 device sets: set 0 is iid, set 1 is
  noniid1, and in set 2 the first half of the devices are iid while the rest
  follow noniid1.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import models as _models
from .checks import check_count, check_finite, check_number, read_only
from .models import ModelSpec

IID = "iid"
MIXED = "mixed"
NONIID1 = "noniid1"
NONIID2 = "noniid2"

SCHEMES = (IID, MIXED, NONIID1, NONIID2)

_CLASSES_PER_DEVICE = {NONIID1: 2, NONIID2: 1}

# the largest label the int64 label vector holds; an unsigned label above it is rejected, not wrapped
_INT64_MAX = int(np.iinfo(np.int64).max)


class DeviceShard(namedtuple("DeviceShard", "set_index device_index features labels")):
    """One device's local dataset as stacked, read-only ``features`` and ``labels`` arrays.

    ``samples`` is an ``(X, y)`` pair; it is unpacked into the two fields and
    not kept.
    """

    __slots__ = ()

    def __new__(cls, set_index: int, device_index: int, samples: tuple[np.ndarray, np.ndarray]):
        check_count(set_index, "set_index", 0)
        check_count(device_index, "device_index", 0)
        return super().__new__(cls, set_index, device_index, *map(read_only, check_samples(samples)))

    def __getnewargs__(self):
        # an unpickled array is writable, so unpickling goes through the constructor again
        return self.set_index, self.device_index, (self.features, self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)


def _sealed(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mark a pair of arrays this module has just indexed, and so shares with no one, read-only."""
    X.flags.writeable = y.flags.writeable = False
    return X, y


def check_samples(samples, name: str = "", model: ModelSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for a sample set entering the package; returns its float rows and int64 labels.

    Rows are 2-D with one integer label each, which int64 holds (checked, never cast); without a
    ``model`` there is at least one.  With the run's ``model`` they are also of its width and finite
    and, for a classifier, labelled in 0..K-1; an empty set passes, as a run's test set may.
    """
    X, y = np.asarray(samples[0], dtype=float), np.asarray(samples[1])
    of = f"{name} " if name else ""
    rows = f"rows of width {model.input_dim}" if model else "one or more rows"
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y) or (X.shape[1] != model.input_dim if model else not len(y)):
        raise ValueError(f"{name or 'samples'} must be {rows} with one label each, "
                         f"got X of shape {X.shape} and {y.size} labels")
    if y.dtype.kind not in "iu":
        raise ValueError(f"{of}labels must be integers, got {y.dtype} labels")
    if y.dtype.kind == "u" and len(y) and y.max() > _INT64_MAX:
        raise ValueError(f"{of}labels must be at most {_INT64_MAX}, got {int(y.max())}")
    y = y.astype(np.int64, copy=False)
    if model is None:
        return X, y
    check_finite(X, f"{of}features")
    if model.kind != _models.QUADRATIC and len(y):
        lo, hi = y.min(), y.max()
        if lo < 0 or hi >= model.num_classes:
            raise ValueError(f"{of}labels must be in 0..{model.num_classes - 1}, got {int(lo if lo < 0 else hi)}")
    return X, y


class PartitionScheme(namedtuple("PartitionScheme", "kind size_range", defaults=(IID, (50, 150)))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        kind, size_range = super().__new__(cls, *args, **kwargs)
        if kind not in SCHEMES:
            raise ValueError(f"unknown partition scheme {kind!r}")
        try:
            lo, hi = size_range
        except (TypeError, ValueError):
            raise ValueError(f"size_range must be a (min, max) pair, got {size_range!r}") from None
        check_count(lo, "size_range[0]")
        check_count(hi, "size_range[1]", lo)
        return super().__new__(cls, kind, (lo, hi))


def make_synthetic_dataset(
    num_classes: int,
    per_class: int,
    input_dim: int,
    rng: np.random.Generator,
    *,
    separation: float = 6.0,
    noise: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced Gaussian class clusters as ``(X, y)``, class by class.

    Class means are random directions scaled to length ``separation``; each
    sample is its class mean plus ``noise``-scaled standard normal jitter, so
    ``separation / noise`` controls how hard the task is.
    """
    check_count(num_classes, "num_classes", 2)
    check_count(per_class, "per_class")
    check_count(input_dim, "input_dim")
    check_number(separation, "separation")
    check_number(noise, "noise")
    directions = rng.standard_normal((num_classes, input_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions
    # each class block is drawn into its place in X: one copy of the data, never two.  A noise
    # that overflows gives inf features, which check_samples, the one finite-features rule, rejects
    X = np.empty((num_classes * per_class, input_dim))
    with np.errstate(over="ignore"):
        for k in range(num_classes):
            block = X[k * per_class : (k + 1) * per_class]
            rng.standard_normal(out=block)
            block *= noise
            block += means[k]
    return X, np.repeat(np.arange(num_classes), per_class)


def split_dataset(
    dataset: tuple[np.ndarray, np.ndarray], test_fraction: float, rng: np.random.Generator
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Shuffle and split into ``(train, test)``, each an ``(X, y)`` pair."""
    check_number(test_fraction, "test_fraction")
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    X, y = check_samples(dataset)
    n_test = int(round(test_fraction * len(y)))
    if n_test == len(y):
        raise ValueError(f"test_fraction {test_fraction} leaves none of the {len(y)} rows for training")
    # 0.0 means no test set; a positive fraction that rounds to no row would report
    # an accuracy of 0.0 as if it were measured
    if n_test == 0 and test_fraction > 0:
        raise ValueError(f"test_fraction {test_fraction} leaves none of the {len(y)} rows for testing")
    order = rng.permutation(len(y))
    test, train = order[:n_test], order[n_test:]
    # handed over read-only, so a shard or config built from them copies neither
    return _sealed(X[train], y[train]), _sealed(X[test], y[test])


def partition(
    dataset: tuple[np.ndarray, np.ndarray],
    topology,
    scheme: PartitionScheme,
    rng: np.random.Generator,
) -> list[DeviceShard]:
    """Build one shard per device under the given scheme.

    A class-skewed device's pool is the rows of classes it draws from the
    labels present, whatever their values.  Draws are without replacement
    from the pool, or with replacement when the pool is smaller than the shard.
    """
    X, labels = check_samples(dataset)
    # one pool of row indices per label present, in label order, each pool in row order:
    # a stable sort, split where the sorted label changes
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    by_class = np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1)

    # the mixed scheme gives some of its devices the noniid1 rule
    budget = _CLASSES_PER_DEVICE.get(NONIID1 if scheme.kind == MIXED else scheme.kind)
    if budget is not None and budget > len(by_class):
        raise ValueError(
            f"scheme {scheme.kind!r} needs {budget} classes per device "
            f"but the dataset has only {len(by_class)}"
        )
    if scheme.kind == MIXED and topology.num_sets != 3:
        raise ValueError("the mixed scheme is defined for exactly 3 device sets")

    lo, hi = scheme.size_range
    all_indices = np.arange(len(labels))
    shards: list[DeviceShard] = []
    for l in range(topology.num_sets):
        n_dev = topology.devices_per_set[l]
        for n in range(n_dev):
            rule = _device_rule(scheme, l, n, n_dev)
            size = int(rng.integers(lo, hi + 1))
            if rule == IID:
                pool = all_indices
            else:
                chosen = rng.choice(len(by_class), size=_CLASSES_PER_DEVICE[rule], replace=False)
                pool = np.concatenate([by_class[k] for k in np.sort(chosen)])
            idx = rng.choice(pool, size=size, replace=size > len(pool))
            shards.append(DeviceShard(l, n, _sealed(X[idx], labels[idx])))
    return shards


def _device_rule(scheme: PartitionScheme, set_index: int, device_index: int, n_dev: int) -> str:
    if scheme.kind != MIXED:
        return scheme.kind
    if set_index == 0:
        return IID
    if set_index == 1:
        return NONIID1
    # set 2: first half iid, second half class-skewed
    return IID if device_index < (n_dev + 1) // 2 else NONIID1


def global_loss(shards: list[DeviceShard], spec: ModelSpec, w: np.ndarray) -> float:
    """Size-weighted average of per-shard losses.

    Equals the plain mean loss over the pooled multiset of all shard samples.
    """
    if not shards:
        raise ValueError("no shards")
    total = sum(s.size for s in shards)
    acc = 0.0
    for s in shards:
        acc += s.size * _models.loss(spec, w, (s.features, s.labels))
    return acc / total
