"""Benchmark command: one workload in one process, closed loop, no worker pool.

    python3 -m perfbench.run --workload flip_d2010 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated and timed, then the workload's timed call runs back to back until
``--seconds`` are spent.  ``--trace 1`` gives the per-layer numbers: fixed-input
microbenchmarks, then alternating untraced and traced calls.  ``--smoke`` runs
the same code path at the workload's smallest size; its numbers are never
gates.  Every invocation first runs the workload at seed 0 and a small size
and compares the output with a pinned digest.  Every timing is scaled to a
nominal host speed with the reference kernel of ``calibration.py``; the raw
times are printed and kept too.

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record, with the machine it ran on, is written to
``.bench_out/results/`` in the checkout.  ``qhetfed`` is imported from the
checkout's ``src/``; without it the command exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
import types
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from .calibration import timed
from .micro import run_micro
from .tracing import SPANS, STREAM_PURPOSES, Tracer
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("streams", "quantizer", "models", "datagen", "federation", "harness")

SETUP_REPEATS = 15
MIN_SAMPLES = 3
MIN_TRACED = 2  # span counts are compared between traced calls


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# machine record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# running the program


def import_qhetfed() -> types.SimpleNamespace:
    """Import qhetfed afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "qhetfed" or m.startswith("qhetfed.")]:
        del sys.modules[name]
    package = importlib.import_module("qhetfed")
    if Path(package.__file__).resolve().parent != (SRC / "qhetfed").resolve():
        raise BenchmarkError(f"qhetfed was imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"qhetfed.{m}") for m in MODULES})


class Ledger:
    """Every run attempted and every one that raised, diverged or failed its output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def attempt(self, label: str, run, expect: str | None):
        """Reset, time ``run.call()`` and check its output.

        Returns (scaled seconds, raw seconds, outcome), or None when the run failed.
        """
        self.attempted += 1
        run.reset()
        try:
            result, raw, scaled = timed(run.call)
            outcome = run.check(result)
        except Exception as exc:  # a failing run is counted and the loop goes on
            traceback.print_exc()
            return self._fail(label, f"raised {type(exc).__name__}: {exc}")
        if outcome.problem is not None:
            return self._fail(label, outcome.problem)
        if expect is not None and outcome.digest != expect:
            return self._fail(label, f"output digest {outcome.digest} differs from {expect}")
        return scaled, raw, outcome

    def _fail(self, label: str, problem: str) -> None:
        self.problems.append(f"{label}: {problem}")
        print(f"FAILED {label}: {problem}", file=sys.stderr)
        return None

    @property
    def failed(self) -> int:
        return len(self.problems)


def pinned_check(workload, q, ledger: Ledger, rounds: int, out_dir: str) -> None:
    """Run the workload at seed 0 and compare with the committed digest; also warms the code path."""
    run = workload.build(q, 0, rounds, out_dir)
    ledger.attempt(f"pinned check (seed 0, {rounds} rounds)", run, workload.pins.get(rounds))


def keep_going(count: int, minimum: int, durations: list[float], deadline: float) -> bool:
    """Closed loop: start another call only if one more typical call fits before the deadline."""
    if count < minimum:
        return True
    if not durations:
        return False
    return perf_counter() + median(durations) <= deadline


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(workload, seed: int, rounds: int, seconds: float, out_dir: str, smoke: bool):
    def setup():
        q = import_qhetfed()
        return q, workload.build(q, seed, rounds, out_dir)

    setup_times, setup_raw = [], []
    for _ in range(1 if smoke else SETUP_REPEATS):
        (q, run), raw, scaled = timed(setup)
        setup_times.append(scaled)
        setup_raw.append(raw)

    ledger = Ledger()
    pinned_check(workload, q, ledger, workload.check_rounds, out_dir)
    expect = workload.pins.get(rounds) if seed == 0 else None
    walls, raw_walls, accuracy, calls = [], [], None, 0
    deadline = perf_counter() + seconds
    while keep_going(calls, 1 if smoke else MIN_SAMPLES, raw_walls, deadline):
        calls += 1
        got = ledger.attempt(f"call {calls}", run, expect)
        if got is None:
            continue
        wall, raw, outcome = got
        walls.append(wall)
        raw_walls.append(raw)
        expect, accuracy = outcome.digest, outcome.accuracy
    if not walls:
        raise BenchmarkError("no timed call succeeded")

    wall_s = median(walls)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (run.steps / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_accuracy": (accuracy, "ratio"),
    }
    detail = {
        "setup_s_samples": setup_times,
        "raw_setup_s_samples": setup_raw,
        "wall_s_samples": walls,
        "raw_wall_s_samples": raw_walls,
        "device_steps_per_call": run.steps,
        "output_digest": expect,
        "failed_ops_ratio": ledger.failed / ledger.attempted,
    }
    return metrics, ledger, detail


def traced(workload, seed: int, rounds: int, seconds: float, out_dir: str, smoke: bool):
    q = import_qhetfed()
    run = workload.build(q, seed, rounds, out_dir)
    ledger = Ledger()
    pinned_check(workload, q, ledger, workload.check_rounds, out_dir)
    micro = run_micro(q, out_dir, scale=0.05 if smoke else 1.0)

    expect = workload.pins.get(rounds) if seed == 0 else None
    untraced_walls, raw_untraced, samples = [], [], []
    pair_times: list[float] = []
    deadline = perf_counter() + seconds
    while keep_going(len(pair_times), MIN_TRACED, pair_times, deadline):
        pair_start = perf_counter()
        got = ledger.attempt(f"untraced call {len(pair_times) + 1}", run, expect)
        if got is not None:
            untraced_walls.append(got[0])
            raw_untraced.append(got[1])
            expect = got[2].digest
        tracer = Tracer()
        with tracer.installed(q):
            start = perf_counter()
            traced_run = workload.build(q, seed, rounds, out_dir)
            setup_wall = perf_counter() - start
            got = ledger.attempt(f"traced call {len(pair_times) + 1}", traced_run, expect)
        if got is not None:
            scaled, raw, outcome = got
            # (tracer, scaled call seconds, host-speed factor, raw seconds of build plus call)
            samples.append((tracer, scaled, scaled / raw, setup_wall + raw))
            expect = outcome.digest
        pair_times.append(perf_counter() - pair_start)
        if ledger.failed and not samples and len(pair_times) >= MIN_TRACED:
            break
    if len(samples) < MIN_TRACED or not untraced_walls:
        raise BenchmarkError("too few traced and untraced calls succeeded")

    counts = [tracer.exact_counts() for tracer, *_ in samples]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
        raise BenchmarkError(f"span counts differ between traced calls of the same inputs: {diff}")
    exact = counts[0]

    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = (exact[f"{span}.calls"], "count")
        metrics[f"{span}.self_s"] = (median(t.self_s[span] * factor for t, _, factor, _ in samples), "s")
        metrics[f"{span}.share"] = (median(t.self_s[span] / total for t, _, _, total in samples), "ratio")
    for purpose in STREAM_PURPOSES:
        name = f"streams.stream.{purpose}.calls"
        metrics[name] = (exact.get(name, 0), "count")
    gradient_calls = exact["models.gradient.calls"]
    metrics["models.gradient.samples"] = (exact.get("models.gradient.samples", 0), "count")
    metrics["models.gradient.full_batch_ratio"] = (
        exact.get("models.gradient.full_batch_calls", 0) / gradient_calls if gradient_calls else 0.0,
        "ratio",
    )
    metrics["quantizer.quantize.coords"] = (exact.get("quantizer.quantize.coords", 0), "count")
    for link in ("device_edge", "edge_cloud"):
        name = f"federation.bits.{link}"
        metrics[name] = (exact.get(name, 0), "bit_computed")
    metrics["trace.overhead_ratio"] = (median(w for _, w, _, _ in samples) / median(untraced_walls), "ratio")
    for name, us in micro.items():
        metrics[name] = (us, "us")

    detail = {
        "untraced_wall_s_samples": untraced_walls,
        "raw_untraced_wall_s_samples": raw_untraced,
        "traced_wall_s_samples": [w for _, w, _, _ in samples],
        "raw_traced_total_s_samples": [total for *_, total in samples],
        "exact_counts": exact,
        "span_edges": samples[0][0].edge_list(),
        "output_digest": expect,
        "failed_ops_ratio": ledger.failed / ledger.attempted,
    }
    return metrics, ledger, detail


# ---------------------------------------------------------------------------
# command line


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest size; for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhetfed" / "__init__.py").is_file():
        print(f"perfbench: no qhetfed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    rounds = workload.smoke_rounds if args.smoke else workload.rounds
    out_dir = str(OUT / f"run-{os.getpid()}")
    mode = traced if args.trace else end_to_end
    try:
        metrics, ledger, detail = mode(workload, args.seed, rounds, args.seconds, out_dir, args.smoke)
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    machine = dict(machine_record(), loadavg_start=load_start, loadavg_end=os.getloadavg())
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for key in ("raw_setup_s_samples", "setup_s_samples", "raw_wall_s_samples", "wall_s_samples",
                "raw_untraced_wall_s_samples", "untraced_wall_s_samples", "traced_wall_s_samples"):
        if key in detail:
            times = detail[key]
            print(f"{key[:-8]} over {len(times)}: median {median(times):.4f} s, "
                  f"min {min(times):.4f} s, max {max(times):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"{'failed_ops_ratio':<44} {detail['failed_ops_ratio']:>16.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} runs)")
    for problem in ledger.problems:
        print(f"FAILED {problem}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, args=vars(args), rounds=rounds, machine=machine,
                       problems=ledger.problems, **detail), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
