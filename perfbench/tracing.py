"""Per-layer spans and counts, recorded by wrapping qhetfed functions from outside.

``Tracer.installed(q)`` replaces each traced function under the name the
calling code looks it up by (``federation.stream``, ``federation.quantize``,
``models.gradient``, ...) and restores the originals on exit, so nothing in
the package changes.  Each wrapper pushes a frame on one parent stack; a
span's self time is its duration minus the time of the child spans it caused.
Spans are aggregated in memory per name and per (parent, child) edge rather
than kept one by one: a criterion-8-sized run makes over 200,000 of them.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPANS = (
    "streams.stream",
    "federation.run",
    "quantizer.quantize",
    "federation.edge_aggregate_gradients",
    "federation.edge_aggregate_models",
    "federation.cloud_aggregate",
    "models.gradient",
    "datagen.global_loss",
    "models.accuracy",
    "harness.emit_metrics",
    "datagen.partition",
    "datagen.make_synthetic_dataset",
)

STREAM_PURPOSES = ("batch", "q1", "q2")

_DEVICE_EDGE_PARENTS = ("federation.edge_aggregate_gradients", "federation.edge_aggregate_models")


def message_bits(d: int, spec) -> int:
    """Bits of one quantized message under the QSGD encoding (Alistarh et al., arXiv:1610.02132).

    Per coordinate a sign bit and a level index in 0..s, plus one float64
    norm per message; the identity quantizer sends d float64 values.
    """
    if spec.mode == "identity":
        return 64 * d
    return d * (1 + math.ceil(math.log2(spec.levels + 1))) + 64


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._full_batches: dict[int, object] = {}

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if before is not None:
                before(parent, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                self.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _on_stream(self, parent, args) -> None:
        purpose = args[1] if len(args) > 1 else None
        if purpose in STREAM_PURPOSES:
            self.counts[f"streams.stream.{purpose}.calls"] += 1

    def _on_quantize(self, parent, args) -> None:
        x, spec = args[0], args[1]
        d = len(x)
        self.counts["quantizer.quantize.coords"] += d
        if parent in _DEVICE_EDGE_PARENTS:
            self.counts["federation.bits.device_edge"] += message_bits(d, spec)
        elif parent == "federation.cloud_aggregate":
            self.counts["federation.bits.edge_cloud"] += message_bits(d, spec)

    def _on_gradient(self, parent, args) -> None:
        batch = args[2]
        if isinstance(batch, tuple):
            X, y = batch
            self.counts["models.gradient.samples"] += len(y)
            # the engine passes a shard's own arrays when the batch covers the whole shard
            if self._full_batches.get(id(X)) is X:
                self.counts["models.gradient.full_batch_calls"] += 1
        else:
            self.counts["models.gradient.samples"] += len(batch)

    def _on_partition(self, shards) -> None:
        # strong references keep the ids from being reused while this tracer lives
        for shard in shards:
            self._full_batches[id(shard.features)] = shard.features

    @contextmanager
    def installed(self, q):
        """Patch the traced functions of the ``qhetfed`` modules in ``q`` for the block's duration."""
        targets = (
            (q.federation, "stream", "streams.stream", self._on_stream, None),
            (q.federation, "quantize", "quantizer.quantize", self._on_quantize, None),
            (q.federation, "edge_aggregate_gradients", "federation.edge_aggregate_gradients", None, None),
            (q.federation, "edge_aggregate_models", "federation.edge_aggregate_models", None, None),
            (q.federation, "cloud_aggregate", "federation.cloud_aggregate", None, None),
            (q.federation, "global_loss", "datagen.global_loss", None, None),
            (q.federation, "run", "federation.run", None, None),
            (q.models, "gradient", "models.gradient", self._on_gradient, None),
            (q.models, "accuracy", "models.accuracy", None, None),
            (q.harness, "emit_metrics", "harness.emit_metrics", None, None),
            (q.datagen, "partition", "datagen.partition", None, self._on_partition),
            (q.datagen, "make_synthetic_dataset", "datagen.make_synthetic_dataset", None, None),
        )
        saved = []
        try:
            for module, attr, span, before, after in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def exact_counts(self) -> dict[str, int]:
        """Every call and work count; these must repeat exactly between runs of the same inputs."""
        out = {f"{span}.calls": self.calls[span] for span in SPANS}
        out.update(self.counts)
        return out

    def edge_list(self) -> list[dict]:
        return [
            {"parent": parent, "span": span, "calls": calls}
            for (parent, span), calls in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        ]
