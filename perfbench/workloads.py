"""The benchmark's workloads: how each builds its inputs from a seed and what one timed call is.

A workload's ``build(q, seed, rounds)`` is the set-up a user performs before
the timed call (dataset build, split, partition and config construction for
the single-simulation workloads; config construction for the experiment
workload, whose data preparation happens inside ``run_experiment``).  It
returns a run object whose ``call()`` is the timed call and whose
``check(result)`` turns its result into an ``Outcome``.  ``q`` is the
namespace of imported ``qhetfed`` modules, and every call into the package
goes through a module attribute so that the tracer's patches are seen.

Pinned digests are the seed-0 outputs of the code as first benchmarked, keyed
by the number of rounds.  Single simulations pin sha256 over the concatenated
per-iteration ``RunRecord.param_hash`` strings; the experiment pins the
sha256 of ``metrics.csv`` and ``aggregate.csv``.  At 40 rounds (the size of
acceptance criterion 8) the flip_d2010 digest is ``3ac7351ac493...`` and at
17 rounds the het_local digest is ``6c68c7f8b8bd...``.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import NamedTuple


class Outcome(NamedTuple):
    digest: str
    accuracy: float
    problem: str | None  # why the output check failed, or None


def _steps_per_device_round(q, algorithm: str, schedule) -> int:
    fed = q.federation
    if algorithm == fed.QHETFED:
        return schedule.tau + schedule.gamma
    if algorithm == fed.HIER_LOCAL_QSGD:
        return schedule.tau * schedule.gamma
    raise ValueError(f"no step count for algorithm {algorithm!r}")


@dataclass(frozen=True)
class SimWorkload:
    """One ``federation.run`` call on a 3 x 20 device topology with a logistic model."""

    name: str
    algorithm: str
    input_dim: int
    separation: float
    noise: float
    scheme: str
    tau: int
    gamma: int
    mu: float
    batch: int
    q1_levels: int
    q2_levels: int
    rounds: int
    check_rounds: int
    smoke_rounds: int
    pins: dict[int, str] = field(default_factory=dict)
    classes: int = 10
    per_class: int = 480
    devices_per_set: tuple[int, ...] = (20, 20, 20)
    size_range: tuple[int, int] = (40, 70)

    def build(self, q, seed: int, rounds: int, out_dir: str = "") -> "SimRun":
        del out_dir
        topology = q.federation.Topology(self.devices_per_set)
        dataset = q.datagen.make_synthetic_dataset(
            self.classes, self.per_class, self.input_dim, q.streams.stream(seed, "dataset"),
            separation=self.separation, noise=self.noise,
        )
        train, test = q.datagen.split_dataset(dataset, 0.2, q.streams.stream(seed, "split"))
        shards = q.datagen.partition(
            train, topology, q.datagen.PartitionScheme(kind=self.scheme, size_range=self.size_range),
            q.streams.stream(seed, "partition"),
        )
        config = q.federation.FedRunConfig(
            topology=topology,
            schedule=q.federation.Schedule(self.tau, self.gamma, self.mu, rounds, self.batch),
            model=q.models.ModelSpec(kind="logistic", input_dim=self.input_dim, num_classes=self.classes),
            shards=shards,
            q1=q.quantizer.QuantizerSpec(levels=self.q1_levels),
            q2=q.quantizer.QuantizerSpec(levels=self.q2_levels),
            algorithm=self.algorithm,
            master_seed=q.streams.derive_seed(seed, "run", 0),
            test_samples=test,
        )
        steps = rounds * topology.num_devices * _steps_per_device_round(q, self.algorithm, config.schedule)
        return SimRun(q, config, steps)


class SimRun:
    def __init__(self, q, config, steps: int) -> None:
        self.q = q
        self.config = config
        self.steps = steps

    def reset(self) -> None:
        """Nothing to clear between calls."""

    def call(self):
        return self.q.federation.run(self.config)

    def check(self, record) -> Outcome:
        digest = hashlib.sha256("".join(record.param_hash).encode()).hexdigest()
        accuracy = record.test_accuracy[-1] if record.test_accuracy else float("nan")
        problem = None
        if record.diverged_at is not None:
            problem = f"diverged at iteration {record.diverged_at}"
        elif len(record.param_hash) != self.config.schedule.rounds:
            problem = f"{len(record.param_hash)} of {self.config.schedule.rounds} iterations recorded"
        elif not all(math.isfinite(v) for v in record.train_loss):
            problem = "non-finite training loss"
        return Outcome(digest, accuracy, problem)


@dataclass(frozen=True)
class ExperimentWorkload:
    """One in-process ``harness.run_experiment`` call, table writes included."""

    name: str
    user_config: dict
    rounds: int
    check_rounds: int
    smoke_rounds: int
    pins: dict[int, str] = field(default_factory=dict)

    def build(self, q, seed: int, rounds: int, out_dir: str = "") -> "ExperimentRun":
        user = copy.deepcopy(self.user_config)
        user["seed"] = seed
        user["output_dir"] = out_dir
        user["schedule"] = dict(user.get("schedule", {}), rounds=rounds)
        cfg = q.harness.parse_config(user)
        per_rep = sum(
            cfg.schedule.rounds * cfg.topology.num_devices
            * _steps_per_device_round(q, algorithm, cfg.schedule)
            for algorithm in cfg.algorithms
        )
        return ExperimentRun(q, cfg, cfg.repeats * per_rep)


class ExperimentRun:
    def __init__(self, q, cfg, steps: int) -> None:
        self.q = q
        self.cfg = cfg
        self.steps = steps

    def reset(self) -> None:
        """Remove the previous call's tables so every call writes them afresh."""
        shutil.rmtree(self.cfg.output_dir, ignore_errors=True)

    def call(self):
        return self.q.harness.run_experiment(self.cfg)

    def check(self, written) -> Outcome:
        del written
        out = self.cfg.output_dir
        parts = []
        for table in ("metrics.csv", "aggregate.csv"):
            with open(os.path.join(out, table), "rb") as fh:
                parts.append(f"{table}={hashlib.sha256(fh.read()).hexdigest()}")
        with open(os.path.join(out, "aggregate.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        last_t = {row["algorithm"]: int(row["t"]) for row in rows}
        finals = [float(r["test_accuracy_mean"]) for r in rows if int(r["t"]) == last_t[r["algorithm"]]]
        accuracy = sum(finals) / len(finals) if finals else float("nan")
        with open(os.path.join(out, "runs.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        problem = None
        expected_runs = self.cfg.repeats * len(self.cfg.algorithms)
        diverged = [run["run_id"] for run in manifest if run["diverged_at"] is not None]
        if diverged:
            problem = f"diverged runs: {', '.join(diverged)}"
        elif len(manifest) != expected_runs:
            problem = f"{len(manifest)} of {expected_runs} runs in runs.json"
        elif any(t != self.cfg.schedule.rounds for t in last_t.values()):
            problem = f"aggregate.csv stops early: {last_t}"
        return Outcome(" ".join(parts), accuracy, problem)


# README.md records why each workload was chosen and which layers it stresses.
WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="flip_d2010",
            algorithm="qhetfed",
            input_dim=200,
            separation=2.0,
            noise=1.5,
            scheme="noniid1",
            tau=15,
            gamma=5,
            mu=0.1,
            batch=5,
            q1_levels=6,
            q2_levels=16,
            rounds=5,
            check_rounds=2,
            smoke_rounds=1,
            pins={
                1: "35f29e7a6012b0f80a40d0d35f048e5afc4d285be6e8593f13e64a09e24eaca3",
                2: "4666ef2c5d4e1e8e81af7d4de616d5c48b8e300836e80d282942d66cc18f7edc",
                5: "4de790d7dfd4d957e38a4d815ce3b7ace90eda3ce23d3c9293397bda655236c3",
            },
        ),
        SimWorkload(
            name="het_local",
            algorithm="hier_local_qsgd",
            input_dim=20,
            separation=3.0,
            noise=1.0,
            scheme="noniid2",
            tau=12,
            gamma=3,
            mu=0.05,
            batch=40,
            q1_levels=4,
            q2_levels=10,
            rounds=6,
            check_rounds=2,
            smoke_rounds=1,
            pins={
                1: "f47d101a45ca97e846ad713fd9ec80c918e05317d419ccd97cf5494928bb716e",
                2: "1699648501198a0c887cb21195cb8f9016934c752d1478e6e41eef12fceaacac",
                6: "21783f707daef2d9b3da78a591d95b2b33129b51eb0071062e9b3a238c13729c",
            },
        ),
        ExperimentWorkload(
            name="experiment_mlp",
            user_config={
                "repeats": 2,
                "algorithms": ["qhetfed", "hier_local_qsgd"],
                "model": {"kind": "mlp", "hidden_width": 64},
                "partition": {"scheme": "iid", "size_min": 50, "size_max": 150},
                "schedule": {"batch": 100},
            },
            rounds=2,
            check_rounds=1,
            smoke_rounds=1,
            pins={
                1: (
                    "metrics.csv=09989c0eb293e82cd8f48a32bf733dde2226b9228d220a8f80b67c1a974eeda8 "
                    "aggregate.csv=a0141478f7b34593d23d0ce42e41c183d253a5e851d0db1641c211b5a4e6cc35"
                ),
                2: (
                    "metrics.csv=5746c72c371c10bfc32c9753585fc65d0ad379525cb8ab2cc832931bb9bbe945 "
                    "aggregate.csv=58992d4f877514631d2d07eb8a5187e0387bcbe6a7a81357ef3ae666480702e2"
                ),
            },
        ),
    )
}
