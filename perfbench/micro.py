"""Per-layer microbenchmarks at fixed inputs, reported in microseconds per call.

The inputs never depend on the workload seed, so these numbers isolate a
layer's own cost from the data a workload happens to draw.
"""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter

import numpy as np

from .workloads import WORKLOADS

_BATCHES = 5


def _per_call_us(fn, reps: int) -> float:
    fn()  # first call outside the timing: lazy imports and allocator warm-up
    per_call = []
    for _ in range(_BATCHES):
        start = perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((perf_counter() - start) / reps)
    return median(per_call) * 1e6


def _gradient_case(q, rng, kind: str, input_dim: int, batch: int, hidden: int = 0):
    spec = q.models.ModelSpec(kind=kind, input_dim=input_dim, num_classes=10, hidden_width=hidden)
    w = 0.1 * rng.standard_normal(spec.dim)
    X = rng.standard_normal((batch, input_dim))
    y = rng.integers(0, 10, size=batch)
    return lambda: q.models.gradient(spec, w, (X, y))


def _emit_case(q, rng, out_dir: str):
    # shaped like a default-length experiment_mlp: 2 algorithms x 2 repeats, 6 rounds, d = 1994
    rounds = 6
    records = []
    for algorithm in ("qhetfed", "hier_local_qsgd"):
        for rep in range(2):
            record = q.federation.RunRecord(
                algorithm=algorithm,
                master_seed=rep,
                train_loss=[float(v) for v in rng.random(rounds)],
                test_accuracy=[float(v) for v in rng.random(rounds)],
                runtime_s=[float(t + 1) * 33.9 for t in range(rounds)],
                param_hash=["0" * 64] * rounds,
                final_params=np.zeros(1994),
                diverged_at=None,
                snapshots=None,
                config=None,
            )
            records.append((f"{algorithm}_s0_r{rep:02d}", record))
    return lambda: q.harness.emit_metrics(records, out_dir, 1, {"seed": 0})


def run_micro(q, out_dir: str, scale: float = 1.0) -> dict[str, float]:
    """Time each layer operation on fixed inputs; ``scale`` shrinks the repetition counts."""
    rng = np.random.default_rng(20240301)
    draw_rng = np.random.default_rng(7)
    stream, quantize = q.streams.stream, q.quantizer.quantize
    fed = q.federation
    cases = {"micro.stream": (lambda: stream(7, "q1", 1, 2, 3, 4), 400)}

    for d in (210, 2010):
        x = rng.standard_normal(d)
        for s in (1, 4, 16):
            spec = q.quantizer.QuantizerSpec(levels=s)
            cases[f"micro.quantize.d{d}.s{s}"] = ((lambda x=x, spec=spec: quantize(x, spec, draw_rng)), 400)

    for batch in (5, 40, 100):
        cases[f"micro.gradient.logistic.b{batch}"] = (_gradient_case(q, rng, "logistic", 200, batch), 300)
    cases["micro.gradient.mlp.b100"] = (_gradient_case(q, rng, "mlp", 20, 100, hidden=64), 200)

    n, d = 20, 2010
    vectors = [rng.standard_normal(d) for _ in range(n)]
    base = rng.standard_normal(d)
    q1 = q.quantizer.QuantizerSpec(levels=6)
    q2 = q.quantizer.QuantizerSpec(levels=16)
    rngs = [np.random.default_rng(i) for i in range(n)]
    topology = fed.Topology((3,) * n)
    cases["micro.edge_aggregate_gradients"] = (lambda: fed.edge_aggregate_gradients(vectors, q1, rngs), 20)
    cases["micro.edge_aggregate_models"] = (lambda: fed.edge_aggregate_models(vectors, base, q1, rngs), 20)
    cases["micro.cloud_aggregate"] = (lambda: fed.cloud_aggregate(vectors, base, topology, q2, rngs), 20)

    flip = WORKLOADS["flip_d2010"]
    config = flip.build(q, 0, 1).config
    w = 0.01 * rng.standard_normal(config.model.dim)
    cases["micro.global_loss_accuracy"] = (
        lambda: (
            q.datagen.global_loss(config.shards, config.model, w),
            q.models.accuracy(config.model, w, config.test_samples),
        ),
        10,
    )
    cases["micro.emit_metrics"] = (_emit_case(q, rng, os.path.join(out_dir, "emit_metrics")), 20)

    dataset = q.datagen.make_synthetic_dataset(
        flip.classes, flip.per_class, flip.input_dim, stream(0, "dataset"),
        separation=flip.separation, noise=flip.noise,
    )
    scheme = q.datagen.PartitionScheme(kind=flip.scheme, size_range=flip.size_range)
    cases["micro.partition"] = (
        lambda: q.datagen.partition(dataset, config.topology, scheme, stream(0, "partition")),
        2,
    )

    return {name: _per_call_us(fn, max(1, round(reps * scale))) for name, (fn, reps) in cases.items()}
