"""Smoke tests of the benchmark itself: tiny rounds, so its numbers are never checked here.

They check that each mode prints exactly the metrics ``BENCHMARK.json``
declares, that the traced counts follow from the schedule, the topology and
the shard sizes, and that the command refuses to run without ``src/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qhetfed  # noqa: F401  (loads every submodule used below)
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# (rounds, counts) of the single-simulation workloads at seed 0, as first traced
REFERENCE_COUNTS = {
    "flip_d2010": (40, {"streams.stream.calls": 86_520, "models.gradient.calls": 48_000,
                        "quantizer.quantize.calls": 38_520}),
    "het_local": (17, {"streams.stream.calls": 47_787, "models.gradient.calls": 36_720,
                       "quantizer.quantize.calls": 12_291}),
}


def _modules():
    return types.SimpleNamespace(**{m: sys.modules[f"qhetfed.{m}"] for m in
                                    ("streams", "quantizer", "models", "datagen", "federation", "harness")})


def expected_counts(name: str, rounds: int) -> dict[str, int]:
    """Per-call counts of one seed-0 simulation, from the algorithm's loop structure."""
    workload = WORKLOADS[name]
    config = workload.build(_modules(), 0, rounds).config
    sched, topo = config.schedule, config.topology
    if config.algorithm == "qhetfed":
        steps, q1_messages = sched.tau + sched.gamma, sched.tau + 1
    else:
        steps, q1_messages = sched.tau * sched.gamma, sched.tau
    # a device whose shard fits in one batch takes full-batch steps and draws no batch stream
    sampled = sum(1 for shard in config.shards if shard.size > sched.batch)
    per_round = {
        "models.gradient.calls": topo.num_devices * steps,
        "streams.stream.batch.calls": sampled * steps,
        "streams.stream.q1.calls": topo.num_devices * q1_messages,
        "streams.stream.q2.calls": topo.num_sets,
    }
    per_round["quantizer.quantize.calls"] = per_round["streams.stream.q1.calls"] + topo.num_sets
    per_round["streams.stream.calls"] = sum(
        per_round[f"streams.stream.{p}.calls"] for p in ("batch", "q1", "q2")
    )
    return {key: rounds * value for key, value in per_round.items()}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench.run", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(REFERENCE_COUNTS))
def test_count_formula_matches_reference_trace(name):
    rounds, reference = REFERENCE_COUNTS[name]
    counts = expected_counts(name, rounds)
    assert {key: counts[key] for key in reference} == reference


@pytest.mark.parametrize(
    "workload,trace",
    [("flip_d2010", 1), ("het_local", 1), ("flip_d2010", 0), ("experiment_mlp", 0)],
)
def test_smoke_run_prints_declared_metrics(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                            "--trace", str(trace), "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        expected = expected_counts(workload, WORKLOADS[workload].smoke_rounds)
        assert {key: values[key] for key in expected} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "flip_d2010", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
