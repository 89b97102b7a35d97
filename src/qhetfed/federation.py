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
gamma = 1, runs gradient rounds k = 0..tau and reads no ``schedule.gamma``.
``centralized_sgd`` is the single-worker oracle the degenerate topologies are
checked against.

``iterates(config)`` is the engine: it picks the start point
(``init_scale`` times a Gaussian draw for the mlp, zeros for the other kinds)
and yields it, then each accepted global iterate of the algorithm
``config.algorithm`` names, read-only, and stops before the first diverged
one; every algorithm, the oracle included, is one ``advance(w, t)`` step of
its one loop.  ``run`` is the stream's one reader, which records it.  The
phase list is all a hierarchical algorithm is: ``steps_per_round`` counts
its compute steps (one per gradient round, gamma per local phase), which size
the batch draws and give every iteration the delay ``seconds_per_round``.
The three aggregation steps (edge gradients, edge models, cloud) are one
quantized average, QSGD-style (Alistarh et al., arXiv:1610.02132), over one
checked loop: at least one message, every message of the model's length, one
generator per message.

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
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import models as _models
from .checks import POSITIVE, check_count, check_number, read_only
from .datagen import DeviceShard, check_samples, global_loss
from .models import ModelSpec
from .quantizer import NonFiniteInputError, QuantizerSpec, identity_spec, quantize
from .streams import integers_from_words, seed_states, stream
from .timing import PhaseTimes, iteration_delay

QHETFED = "qhetfed"
HIER_LOCAL_QSGD = "hier_local_qsgd"
QHETFED_GAMMA1 = "qhetfed_gamma1"
CENTRALIZED_SGD = "centralized_sgd"

ALGORITHMS = (QHETFED, HIER_LOCAL_QSGD, QHETFED_GAMMA1, CENTRALIZED_SGD)

GRAD = "grad"
LOCAL = "local"


class Topology(namedtuple("Topology", "devices_per_set")):
    """Device sets hanging off one cloud: ``devices_per_set[l]`` devices in set l."""

    __slots__ = ()

    def __new__(cls, devices_per_set):
        counts = tuple(devices_per_set)
        if not counts:
            raise ValueError("devices_per_set must not be empty")
        for i, n in enumerate(counts):
            check_count(n, f"devices_per_set[{i}]")
        return super().__new__(cls, tuple(int(n) for n in counts))

    @property
    def num_sets(self) -> int:
        return len(self.devices_per_set)

    @property
    def num_devices(self) -> int:
        return int(sum(self.devices_per_set))


class Schedule(namedtuple("Schedule", "tau gamma mu rounds batch")):
    """Iteration structure: tau rounds, gamma local steps, rate mu, T global iterations, batch B."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("tau", "gamma", "rounds", "batch"):
            check_count(getattr(self, name), name)
        check_number(self.mu, "mu", POSITIVE)
        return self


# the largest parameter norm a run may reach; an iterate past it, or not finite, ends the run
NORM_GUARD = 1e9


class FedRunConfig(namedtuple("FedRunConfig", (
        "topology", "schedule", "model", "shards", "q1", "q2", "algorithm", "master_seed", "test_samples", "times",
        "init_scale"),
        defaults=(identity_spec(), identity_spec(), QHETFED, 0, None, PhaseTimes(1.0, 0.1, 1.0), 0.1))):
    """One simulation's inputs, checked once at construction; ``shards`` is kept as a tuple in (set, device) order.

    Every array it holds is read-only, so nothing can change it after the
    checks.  Every run stops at its first iterate whose norm is not at most
    ``NORM_GUARD``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_count(self.master_seed, "master_seed", 0)
        check_number(self.init_scale, "init_scale")
        topology, model, shards, test = self.topology, self.model, self.shards, self.test_samples
        if len(shards) != topology.num_devices:
            raise ValueError(f"{len(shards)} shards for {topology.num_devices} devices")
        # the gradient kernel checks no data, so it is checked here, once per run
        for s in shards:
            check_samples((s.features, s.labels), f"shard ({s.set_index}, {s.device_index})", model)
        if test is not None:
            test = tuple(map(read_only, check_samples(test, "test_samples", model)))
        # _replace builds the tuple without coming back through these checks
        return self._replace(shards=tuple(s for row in _shard_grid(shards, topology) for s in row), test_samples=test)


def _shard_grid(shards, topology: Topology) -> list[list[DeviceShard]]:
    """Shards by (set, device).  The caller has counted one shard per device, so with none out of
    range and none repeated every slot is filled."""
    grid: list[list[DeviceShard | None]] = [[None] * n for n in topology.devices_per_set]
    for s in shards:
        l, n = s.set_index, s.device_index
        if not (0 <= l < topology.num_sets and 0 <= n < topology.devices_per_set[l]):
            raise ValueError(f"shard ({l}, {n}) outside topology {topology.devices_per_set}")
        if grid[l][n] is not None:
            raise ValueError(f"duplicate shard for device ({l},{n})")
        grid[l][n] = s
    return grid  # type: ignore[return-value]


class RunRecord(NamedTuple):
    """Per-global-iteration metrics of one run.

    All lists have one entry per recorded global iteration, and ``final_params``
    is the last recorded iterate.  A run that trips the divergence guard stops
    before the offending iteration and stores its index in ``diverged_at``;
    otherwise the lists have exactly ``schedule.rounds`` entries.  Nothing in
    the package sets ``snapshots`` or ``config``: they stay only because the
    benchmark's micro timings build records with those two keywords.
    """

    algorithm: str
    master_seed: int
    train_loss: list[float]
    test_accuracy: list[float]
    runtime_s: list[float]
    param_hash: list[str]
    final_params: np.ndarray
    diverged_at: int | None
    snapshots: list[np.ndarray] | None = None
    config: FedRunConfig | None = None


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


def _batch_rows(config: FedRunConfig, l: int, devices, t: int, steps: int) -> dict[int, np.ndarray]:
    """(steps, B) batch indices of each device n of set l (shards ``devices``) in iteration t; none for a
    full-batch device.

    Row k is ``integers``' draw from the batch stream of key (l, n, t, k), found from its raw words.
    """
    B, seed = config.schedule.batch, config.master_seed
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


def _set_model(config: FedRunConfig, phases, steps: int, w: np.ndarray, l: int, devices, t: int) -> np.ndarray:
    """Model of set l (shards ``devices``) after running ``phases`` (``steps`` compute steps) of iteration t
    from the cloud model ``w``."""
    mu, gamma, seed = config.schedule.mu, config.schedule.gamma, config.master_seed
    rows = _batch_rows(config, l, devices, t, steps)
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
                    # gradient returns an owned vector, so the update overwrites it: no new iterate per step
                    w_dev = np.subtract(w_dev, step, out=step)
                deltas.append(w_dev - w_set)
            w_set = edge_aggregate_models(deltas, w_set, config.q1, rngs)
    return w_set


def iterates(config: FedRunConfig, steps_per_iteration: int = 1):
    """A generator of ``(t, w)``: the start point at t = 0, then each accepted global iterate up to
    t = ``schedule.rounds``, every ``w`` read-only.

    The engine picks the start point, with no caller override: ``init_scale`` times the ``"init"``
    draw for the mlp, zeros for the other kinds.

    The stream stops before the first diverged iterate, so one that ends at
    t < rounds diverged in iteration t: ``advance`` met a non-finite quantizer
    input, or the iterate's norm is not at most ``NORM_GUARD`` (a NaN or
    infinite entry makes the norm NaN or inf, which fails the same test), with
    no numpy overflow warning.  ``steps_per_iteration`` SGD steps of the
    oracle make one iteration, to align it with a federated run's descent
    steps; a hierarchical config takes only 1.  The checks and set-up run at
    the call, so a bad call raises there and not at the first ``next``.
    """
    check_count(steps_per_iteration, "steps_per_iteration")
    sched, topo, seed = config.schedule, config.topology, config.master_seed
    if config.algorithm == CENTRALIZED_SGD:
        # plain mini-batch SGD on the pooled data
        pooled_X = np.concatenate([s.features for s in config.shards])
        pooled_y = np.concatenate([s.labels for s in config.shards])
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
    elif steps_per_iteration != 1:
        raise ValueError(f"a {config.algorithm!r} config takes steps_per_iteration 1, got {steps_per_iteration}")
    else:
        phases = _phases(config.algorithm, sched)
        steps = steps_per_round(config.algorithm, sched)
        sets = _shard_grid(config.shards, topo)

        def advance(w: np.ndarray, t: int) -> np.ndarray:
            set_models = [_set_model(config, phases, steps, w, l, devices, t) for l, devices in enumerate(sets)]
            rngs = [stream(seed, "q2", l, t) for l in range(topo.num_sets)]
            return cloud_aggregate(set_models, w, topo, config.q2, rngs)

    if config.model.kind == _models.MLP:
        # a Gaussian draw: the all-zeros point is a symmetric saddle where the hidden layer never
        # receives a gradient.  A start point that overflows diverges in round 0, as an overflowing iterate does
        with np.errstate(over="ignore"):
            w = config.init_scale * stream(seed, "init").standard_normal(config.model.dim)
    else:
        w = np.zeros(config.model.dim)
    return _advanced(w, advance, sched.rounds)


def _advanced(w: np.ndarray, advance, rounds: int):
    """``(0, w)``, then ``(t + 1, advance(w, t))`` while accepted, each ``w`` read-only: a reader that
    wrote into one would steer the next iteration, which ``advance`` computes from it."""
    w.flags.writeable = False
    yield 0, w
    for t in range(rounds):
        # an overflowing iterate is a diverged run, which the norm test reports; numpy need not warn of it.
        # The yield stays outside this block, so a reader's own overflow still warns.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                w = advance(w, t)
            except NonFiniteInputError:
                return
            if not float(np.linalg.norm(w)) <= NORM_GUARD:
                return
        w.flags.writeable = False
        yield t + 1, w


def run(config: FedRunConfig) -> RunRecord:
    """Run the simulation ``config.algorithm`` names and record each iterate of ``iterates(config)``.

    A stream that ends before ``schedule.rounds`` gives its last t as
    ``diverged_at``; ``final_params`` is the last iterate, or the start point.
    """
    delay = seconds_per_round(config.algorithm, config.schedule, config.times)
    # an (X, y) pair is truthy even with no rows, so count its labels
    has_test = config.test_samples is not None and len(config.test_samples[1]) > 0
    train_loss, test_accuracy, runtime_s, param_hash = [], [], [], []
    for t, w in iterates(config):
        if t:
            train_loss.append(global_loss(config.shards, config.model, w))
            test_accuracy.append(_models.accuracy(config.model, w, config.test_samples) if has_test else 0.0)
            runtime_s.append(t * delay)
            param_hash.append(hashlib.sha256(w.tobytes()).hexdigest())
    return RunRecord(config.algorithm, config.master_seed, train_loss, test_accuracy, runtime_s, param_hash,
                     final_params=w, diverged_at=None if t == config.schedule.rounds else t)


def steps_per_round(algorithm: str, schedule: Schedule) -> int:
    """Gradient steps each device takes per global iteration of ``algorithm``.

    A gradient round is one step and a local phase gamma; the oracle takes one
    step on the pooled data.  Run lengths scale with this count, which is how
    the experiment harness orders runs longest first.
    """
    if algorithm == CENTRALIZED_SGD:
        return 1
    return sum(1 if kind == GRAD else schedule.gamma for kind, _, _ in _phases(algorithm, schedule))


def seconds_per_round(algorithm: str, schedule: Schedule, times: PhaseTimes) -> float:
    """Modeled seconds of one global iteration of ``algorithm``, the step of every runtime stamp.

    The oracle's one step on the pooled data takes ``t_cp``; a hierarchical
    iteration takes ``timing.iteration_delay`` of its compute steps and tau uploads.
    """
    if algorithm == CENTRALIZED_SGD:
        return times.t_cp
    return iteration_delay(steps_per_round(algorithm, schedule), schedule.tau, times)
