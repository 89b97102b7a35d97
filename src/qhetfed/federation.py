"""Hierarchical federated training engine: cloud, edge sets, devices.

The hierarchical algorithms share one global iteration: each device set runs
its list of phases from the cloud model, then the cloud averages the quantized
set deltas weighted by set size.  A phase is one of

* ``(GRAD, k, k)``: every device uploads a quantized mini-batch gradient,
  taken at the shared set model on batch step k, under q1 key k; the edge
  averages them and the whole set takes one descent step;
* ``(LOCAL, k0, key)``: every device takes gamma solo steps on batch steps
  k0..k0+gamma-1; the edge averages their quantized parameter deltas (q1 key
  ``key``) onto the set model.

``qhetfed`` runs gradient rounds k = 0..tau-1, then ``(LOCAL, tau, tau)``;
``hier_local_qsgd`` runs ``(LOCAL, i*gamma, i)`` for i = 0..tau-1 (model
averaging at both levels); ``qhetfed_gamma1``, the reduced form of qhetfed at
gamma = 1, runs gradient rounds k = 0..tau.  ``centralized_sgd`` is the
single-worker oracle the degenerate topologies are checked against.

``run(config)`` is the one entry point: it runs the algorithm that
``config.algorithm`` names.  ``run_centralized_sgd`` stays callable on its own
for its ``steps_per_iteration`` alignment.  Every algorithm, the oracle
included, is one ``advance(w, t)`` step inside one loop that records each
iterate and stops before the first diverged one.  The three aggregation
steps (edge gradients, edge models, cloud) are one quantized average,
QSGD-style (Alistarh et al., arXiv:1610.02132), over one checked loop: at
least one message, every message of the model's length, one generator per
message.

Every random draw is keyed by (master seed, purpose, set, device, iteration,
step) through :mod:`qhetfed.streams`, never by call order.  The batch step
index is global within an iteration, and the oracle consumes k = 0..steps-1.
Variants that perform the same conceptual draw therefore read the same
stream, which is what makes the equivalence tests exact: qhetfed_gamma1's
round tau reads the streams of qhetfed's local phase.  A batch stream hands
over only raw words: numpy's Lemire rule turns a set-round's words into the
indices ``integers`` would draw, and numpy redraws each rejected key itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import models as _models
from .datagen import DeviceShard, global_loss
from .models import ModelSpec
from .planner import PhaseTimes, baseline_iteration_delay, iteration_delay
from .quantizer import NonFiniteInputError, QuantizerSpec, _is_count, identity_spec, quantize
from .streams import integers_from_words, seed_states, stream

QHETFED = "qhetfed"
HIER_LOCAL_QSGD = "hier_local_qsgd"
QHETFED_GAMMA1 = "qhetfed_gamma1"
CENTRALIZED_SGD = "centralized_sgd"

ALGORITHMS = (QHETFED, HIER_LOCAL_QSGD, QHETFED_GAMMA1, CENTRALIZED_SGD)

GRAD = "grad"
LOCAL = "local"


@dataclass(frozen=True)
class Topology:
    """Device sets hanging off one cloud: ``devices_per_set[l]`` devices in set l."""

    devices_per_set: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.devices_per_set:
            raise ValueError("need at least one device set")
        if not all(map(_is_count, self.devices_per_set)):
            raise ValueError(f"device counts must be integers, got {self.devices_per_set!r}")
        if any(n < 1 for n in self.devices_per_set):
            raise ValueError("every set needs at least one device")
        object.__setattr__(self, "devices_per_set", tuple(int(n) for n in self.devices_per_set))

    @property
    def num_sets(self) -> int:
        return len(self.devices_per_set)

    @property
    def num_devices(self) -> int:
        return int(sum(self.devices_per_set))


@dataclass(frozen=True)
class Schedule:
    """Iteration structure: tau rounds, gamma local steps, rate mu, T global iterations, batch B."""

    tau: int
    gamma: int
    mu: float
    rounds: int
    batch: int

    def __post_init__(self) -> None:
        if not all(map(_is_count, (self.tau, self.gamma, self.rounds, self.batch))):
            raise ValueError("tau, gamma, rounds and batch must be integers")
        if self.tau < 1 or self.gamma < 1:
            raise ValueError("tau and gamma must be >= 1")
        is_number = isinstance(self.mu, (int, float, np.integer, np.floating)) and not isinstance(self.mu, bool)
        # written as what is valid: a NaN fails every comparison
        if not is_number or not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be a finite positive number, got {self.mu!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclass
class FedRunConfig:
    topology: Topology
    schedule: Schedule
    model: ModelSpec
    shards: list[DeviceShard]
    q1: QuantizerSpec = field(default_factory=identity_spec)
    q2: QuantizerSpec = field(default_factory=identity_spec)
    algorithm: str = QHETFED
    master_seed: int = 0
    test_samples: tuple[np.ndarray, np.ndarray] | None = None
    times: PhaseTimes = field(default_factory=lambda: PhaseTimes(1.0, 0.1, 1.0))
    initial_params: np.ndarray | None = None
    init_scale: float = 0.1
    keep_snapshots: bool = False
    norm_guard: float = 1e9

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == QHETFED_GAMMA1 and self.schedule.gamma != 1:
            raise ValueError("qhetfed_gamma1 requires schedule.gamma == 1")
        if len(self.shards) != self.topology.num_devices:
            raise ValueError(
                f"{len(self.shards)} shards for {self.topology.num_devices} devices"
            )
        if self.initial_params is not None and len(self.initial_params) != self.model.dim:
            raise ValueError("initial_params length does not match the model dimension")
        if self.test_samples is not None:
            X, y = self.test_samples
            if np.ndim(X) != 2 or np.shape(X)[1] != self.model.input_dim or len(X) != len(y):
                raise ValueError(
                    f"test_samples must be rows of width {self.model.input_dim} with one label each, "
                    f"got X of shape {np.shape(X)} and {len(y)} labels"
                )
        self._grid = _shard_grid(self.shards, self.topology)


def _shard_grid(shards: list[DeviceShard], topology: Topology) -> list[list[DeviceShard]]:
    grid: list[list[DeviceShard | None]] = [
        [None] * n for n in topology.devices_per_set
    ]
    for s in shards:
        if not (0 <= s.set_index < topology.num_sets):
            raise ValueError(f"shard set_index {s.set_index} outside topology")
        if not (0 <= s.device_index < topology.devices_per_set[s.set_index]):
            raise ValueError(
                f"shard device_index {s.device_index} outside set {s.set_index}"
            )
        if grid[s.set_index][s.device_index] is not None:
            raise ValueError(f"duplicate shard for device ({s.set_index},{s.device_index})")
        grid[s.set_index][s.device_index] = s
    for l, row in enumerate(grid):
        for n, entry in enumerate(row):
            if entry is None:
                raise ValueError(f"missing shard for device ({l},{n})")
    return grid  # type: ignore[return-value]


@dataclass
class RunRecord:
    """Per-global-iteration metrics plus the configuration that produced them.

    All lists have one entry per recorded global iteration, and ``final_params``
    is the last recorded iterate.  A run that trips the divergence guard stops
    before the offending iteration and stores its index in ``diverged_at``;
    otherwise the lists have exactly ``schedule.rounds`` entries.
    """

    algorithm: str
    master_seed: int
    train_loss: list[float]
    test_accuracy: list[float]
    runtime_s: list[float]
    param_hash: list[str]
    final_params: np.ndarray
    diverged_at: int | None
    snapshots: list[np.ndarray] | None
    config: FedRunConfig


# ---------------------------------------------------------------------------
# aggregation operations


def _quantized_sum(messages, dim: int, spec: QuantizerSpec, rngs: list[np.random.Generator],
                   origin: np.ndarray | None = None, weights=None) -> np.ndarray:
    """Sum of the quantized messages (each minus ``origin`` and times its weight, when given).

    Every message must have length ``dim``: numpy would broadcast a length-1 one silently.
    """
    if len(messages) == 0:
        raise ValueError("no messages to aggregate")
    lengths = sorted({len(m) for m in messages})
    if lengths != [dim]:
        raise ValueError(f"message lengths {lengths} for a model of length {dim}")
    # zip would silently drop the messages or generators past the shorter list
    if len(rngs) != len(messages):
        raise ValueError(f"need {len(messages)} rng streams, got {len(rngs)}")
    total = np.zeros(dim)
    for i, (m, r) in enumerate(zip(messages, rngs)):
        q = quantize(m if origin is None else m - origin, spec, r)
        total += q if weights is None else weights[i] * q
    return total


def edge_aggregate_gradients(local_grads, q1_spec: QuantizerSpec, rngs: list[np.random.Generator]) -> np.ndarray:
    """Mean of the quantized device gradients of one set, one generator per device."""
    dim = len(local_grads[0]) if len(local_grads) else 0
    return _quantized_sum(local_grads, dim, q1_spec, rngs) / len(local_grads)


def edge_aggregate_models(deltas, base: np.ndarray, q1_spec: QuantizerSpec,
                          rngs: list[np.random.Generator]) -> np.ndarray:
    """Set model after averaging quantized parameter deltas onto ``base``, one generator per device."""
    return base + _quantized_sum(deltas, len(base), q1_spec, rngs) / len(deltas)


def cloud_aggregate(set_models, global_prev: np.ndarray, topology: Topology, q2_spec: QuantizerSpec,
                    rngs: list[np.random.Generator]) -> np.ndarray:
    """Global model from quantized set deltas, weighted by set device counts, one generator per set."""
    if len(set_models) != topology.num_sets:
        raise ValueError(f"{len(set_models)} set models for {topology.num_sets} sets")
    total = _quantized_sum(set_models, len(global_prev), q2_spec, rngs,
                           origin=global_prev, weights=topology.devices_per_set)
    return global_prev + total / topology.num_devices


# ---------------------------------------------------------------------------
# engine


def _batch_rows(config: FedRunConfig, l: int, t: int) -> dict[int, np.ndarray]:
    """(steps, B) batch indices of each device n of set l in iteration t; none for a full-batch device.

    Row k is ``integers``' draw from the batch stream of key (l, n, t, k), found from its raw words.
    """
    B, seed = config.schedule.batch, config.master_seed
    steps = steps_per_round(config.algorithm, config.schedule)
    devices = config._grid[l]
    sampled = [n for n, s in enumerate(devices) if B < s.size]
    if not sampled:
        return {}
    states = seed_states(seed, "batch", l, np.array(sampled)[:, None], t, np.arange(steps))
    words = np.array([
        stream(seed, "batch", l, n, t, k, state=states[i, k]).bit_generator.random_raw((B + 1) // 2)
        for i, n in enumerate(sampled) for k in range(steps)
    ]).reshape(len(sampled), steps, -1)
    sizes = np.array([devices[n].size for n in sampled])[:, None]
    return dict(zip(sampled, integers_from_words(words, sizes, B, states)))


def _batch(shard: DeviceShard, rows: np.ndarray | None, k) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of batch step k, or stacked over the steps of a slice k, with one ``take``; no rows: the shard."""
    if rows is None:
        return shard.features, shard.labels
    return shard.features.take(rows[k], axis=0), shard.labels.take(rows[k])


def _phases(algorithm: str, schedule: Schedule) -> list[tuple[str, int, int]]:
    """One global iteration of a hierarchical ``algorithm`` on one set, phase by phase."""
    tau, gamma = schedule.tau, schedule.gamma
    return {
        QHETFED: [(GRAD, k, k) for k in range(tau)] + [(LOCAL, tau, tau)],
        HIER_LOCAL_QSGD: [(LOCAL, i * gamma, i) for i in range(tau)],
        QHETFED_GAMMA1: [(GRAD, k, k) for k in range(tau + 1)],
    }[algorithm]


def _set_model(config: FedRunConfig, phases, w: np.ndarray, l: int, t: int) -> np.ndarray:
    """Model of set l after running ``phases`` of global iteration t from the cloud model ``w``."""
    mu, gamma, seed = config.schedule.mu, config.schedule.gamma, config.master_seed
    devices = config._grid[l]
    rows = _batch_rows(config, l, t)
    # seed the q1 streams of every upload in one pass; every draw still comes from its own stream() call
    q1 = seed_states(seed, "q1", l, np.arange(len(devices))[:, None], t, np.array([key for _, _, key in phases]))
    # one shared array per set: the broadcast value every device holds
    w_set = w.copy()
    for i, (kind, k, key) in enumerate(phases):
        rngs = [stream(seed, "q1", l, n, t, key, state=q1[n, i]) for n in range(len(devices))]
        if kind == GRAD:
            grads = [_models.gradient(config.model, w_set, _batch(s, rows.get(n), k)) for n, s in enumerate(devices)]
            w_set = w_set - mu * edge_aggregate_gradients(grads, config.q1, rngs)
        else:
            deltas = []
            for n, s in enumerate(devices):
                w_dev = w_set
                X, y = _batch(s, rows.get(n), slice(k, k + gamma))
                for j in range(gamma):
                    step = _models.gradient(config.model, w_dev, (X[j], y[j]) if n in rows else (X, y))
                    step *= mu
                    w_dev = w_dev - step
                deltas.append(w_dev - w_set)
            w_set = edge_aggregate_models(deltas, w_set, config.q1, rngs)
    return w_set


def _train(config: FedRunConfig, delay: float, advance) -> RunRecord:
    """The loop every algorithm shares: ``w = advance(w, t)`` for t < rounds, each iterate recorded.

    It stops before the first diverged iterate (a non-finite quantizer input or
    entry, or a norm above ``norm_guard``), whose index goes to ``diverged_at``;
    ``final_params`` is the last recorded iterate, or the start point.
    """
    record = RunRecord(algorithm=config.algorithm, master_seed=config.master_seed, train_loss=[],
                       test_accuracy=[], runtime_s=[], param_hash=[], final_params=None, diverged_at=None,
                       snapshots=[] if config.keep_snapshots else None, config=config)
    if config.initial_params is not None:
        w = np.array(config.initial_params, dtype=float)
    elif config.model.kind == _models.MLP:
        w = _models.init_params(config.model, stream(config.master_seed, "init"), scale=config.init_scale)
    else:
        w = _models.init_params(config.model)
    # an (X, y) pair is truthy even with no rows, so count its labels
    has_test = config.test_samples is not None and len(config.test_samples[1]) > 0
    for t in range(config.schedule.rounds):
        try:
            w_next = advance(w, t)
        except NonFiniteInputError:
            w_next = None
        if w_next is None or not np.all(np.isfinite(w_next)) or float(np.linalg.norm(w_next)) > config.norm_guard:
            record.diverged_at = t
            break
        w = w_next
        record.train_loss.append(global_loss(config.shards, config.model, w))
        record.test_accuracy.append(_models.accuracy(config.model, w, config.test_samples) if has_test else 0.0)
        record.runtime_s.append((t + 1) * delay)
        record.param_hash.append(hashlib.sha256(w.tobytes()).hexdigest())
        if record.snapshots is not None:
            record.snapshots.append(w.copy())
    record.final_params = w
    return record


def _run_hierarchical(config: FedRunConfig) -> RunRecord:
    """Global iterations of ``config.algorithm``: every set runs its phases, then the cloud aggregates."""
    sched, topo = config.schedule, config.topology
    phases = _phases(config.algorithm, sched)
    delay_of = baseline_iteration_delay if config.algorithm == HIER_LOCAL_QSGD else iteration_delay

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        set_models = [_set_model(config, phases, w, l, t) for l in range(topo.num_sets)]
        rngs = [stream(config.master_seed, "q2", l, t) for l in range(topo.num_sets)]
        return cloud_aggregate(set_models, w, topo, config.q2, rngs)

    return _train(config, delay_of(sched.tau, sched.gamma, config.times), advance)


def run_centralized_sgd(config: FedRunConfig, steps_per_iteration: int = 1) -> RunRecord:
    """Plain mini-batch SGD on the pooled data; the degenerate-case oracle.

    ``steps_per_iteration`` sets how many SGD steps count as one recorded
    iteration, so the oracle can be aligned with a federated run that takes
    several descent steps per global iteration.
    """
    if config.algorithm != CENTRALIZED_SGD:
        raise ValueError(f"a {CENTRALIZED_SGD!r} run got a {config.algorithm!r} config")
    if not _is_count(steps_per_iteration) or steps_per_iteration < 1:
        raise ValueError(f"steps_per_iteration must be a positive integer, got {steps_per_iteration!r}")
    sched, seed = config.schedule, config.master_seed
    pooled_X = np.concatenate([s.features for row in config._grid for s in row])
    pooled_y = np.concatenate([s.labels for row in config._grid for s in row])
    pooled_size = len(pooled_y)

    def advance(w: np.ndarray, t: int) -> np.ndarray:
        for k in range(steps_per_iteration):
            if sched.batch >= pooled_size:
                X, y = pooled_X, pooled_y
            else:
                idx = stream(seed, "batch", 0, 0, t, k).integers(0, pooled_size, size=sched.batch)
                X, y = pooled_X[idx], pooled_y[idx]
            w = w - sched.mu * _models.gradient(config.model, w, (X, y))
        return w

    return _train(config, steps_per_iteration * config.times.t_cp, advance)


def run(config: FedRunConfig) -> RunRecord:
    """Run the simulation ``config.algorithm`` names: the centralized oracle or a hierarchical algorithm."""
    if config.algorithm == CENTRALIZED_SGD:
        return run_centralized_sgd(config)
    return _run_hierarchical(config)


def steps_per_round(algorithm: str, schedule: Schedule) -> int:
    """Gradient steps each device takes per global iteration of ``algorithm``.

    A gradient round is one step and a local phase gamma; the oracle takes one
    step on the pooled data.  Run lengths scale with this count, which is how
    the experiment harness orders runs longest first.
    """
    if algorithm == CENTRALIZED_SGD:
        return 1
    return sum(1 if kind == GRAD else schedule.gamma for kind, _, _ in _phases(algorithm, schedule))
