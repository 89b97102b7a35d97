"""Config-driven experiment orchestration and metrics persistence.

An experiment is described by one JSON file.  ``DEFAULTS`` is its schema:
each key takes the type of its default (an ``int`` default makes a count, a
``float`` one any finite number), and any other value is a ``ConfigError``.
``run_experiment`` builds the dataset once, re-partitions it per repetition,
runs every requested algorithm on the same repetition seed (paired
comparisons), and writes:

* one CSV per run: ``<algorithm>_s<seed>_r<rep>_<cfghash>.csv``
* ``metrics.csv``: all runs concatenated
* ``aggregate.csv`` / ``aggregate.json``: mean and sample standard deviation
  per (algorithm, iteration), the latter with the resolved config echoed
* ``runs.json``: manifest with per-run status, including divergence markers
* ``resolved_config.json``: the fully defaulted config actually used

All output is byte-deterministic for a fixed config: every table cell is
written with ``str``, which gives a Python or numpy float's shortest
round-trip form, and JSON keys are sorted.  The runs are independent
simulations, run by the fork pool that maps any function, at most one worker
per usable CPU; every draw is keyed, so the files do not depend on that count.
Each file is written to a temporary name and renamed into place.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import os
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import datagen, federation
from .checks import check_count, check_number
from .datagen import PartitionScheme, split_dataset
from .federation import ALGORITHMS, FedRunConfig, RunRecord, Schedule, Topology
from .models import ModelSpec
from .quantizer import QuantizerSpec
from .streams import derive_seed, stream
from .timing import LINK_KEYS, LinkComputeParams, PhaseTimes, compute_times

DEFAULTS: dict = {
    "seed": 0,
    "repeats": 10,
    "output_dir": "results",
    "algorithms": ["qhetfed", "hier_local_qsgd"],
    "metric_cadence": 1,
    "dataset": {
        "classes": 10,
        "per_class": 600,
        "input_dim": 20,
        "separation": 6.0,
        "noise": 1.0,
        "test_fraction": 0.2,
    },
    "partition": {
        "scheme": "iid",
        "size_min": 50,
        "size_max": 150,
    },
    "topology": {
        "num_sets": 3,
        "devices_per_set": 20,
    },
    "model": {
        "kind": "logistic",
        "hidden_width": 16,
        "init_scale": 0.1,
    },
    "schedule": {
        "tau": 12,
        "gamma": 3,
        "mu": 0.01,
        "rounds": 50,
        "batch": 100,
    },
    "quantizers": {
        "levels_device": 4,
        "levels_edge": 10,
        "mode": "stochastic",
    },
    "runtime": {
        "t_cp": 2.0,
        "t_de": 0.17629143438888212,
        "t_ec": 1.7629143438888213,
    },
}


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values, with the offending key path."""


# least value of an integer key; every other integer key is a count of at least 1.
# hidden_width's depends on model.kind, so parse_config checks it.
_INT_MINIMUM = {"seed": 0, "dataset.classes": 2, "model.hidden_width": None}


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    """``user`` merged over ``defaults``; each user value is checked by its default's type, named by its dotted key."""
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key == "link" and not path:
            if not isinstance(value, dict):
                raise ConfigError("link must be a table of keys")
            bad = set(value).difference(LINK_KEYS)
            if bad:
                raise ConfigError(f"unknown configuration key: link.{sorted(bad)[0]}")
            for name, number in value.items():
                if not (name == "edge_cloud_time" and number is None):
                    check_number(number, f"link.{name}")
            missing = [name for name, required in LINK_KEYS.items() if required and name not in value]
            if missing:
                raise ConfigError(f"link: missing keys: {', '.join(missing)}")
            out["link"] = copy.deepcopy(value)
            continue
        if key not in defaults:
            raise ConfigError(f"unknown configuration key: {here}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be a table of keys")
            out[key] = _merge(default, value, here)
            continue
        if isinstance(default, float):
            check_number(value, here)
        elif isinstance(default, int):
            if here == "topology.devices_per_set" and isinstance(value, list):
                for i, n in enumerate(value):
                    check_count(n, f"{here}[{i}]")
            else:
                check_count(value, here, _INT_MINIMUM.get(here, 1))
        out[key] = copy.deepcopy(value)
    return out


def resolved_config(user: dict) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys and values of the wrong type."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    if "link" in user and "runtime" in user:
        raise ConfigError("give either a runtime or a link table, not both")
    try:
        merged = _merge(DEFAULTS, user)
    except ConfigError:
        raise
    except ValueError as exc:
        # a count or number rule's message, which names the dotted key
        raise ConfigError(str(exc)) from exc
    if "link" in merged:
        merged.pop("runtime", None)
    return merged


class ExperimentConfig(namedtuple("ExperimentConfig", (
        "seed repeats output_dir algorithms metric_cadence dataset scheme topology model schedule q1 q2 times "
        "init_scale raw"))):
    """Fully resolved experiment description plus the raw dict it came from; ``parse_config`` checks it."""

    __slots__ = ()


@contextlib.contextmanager
def _checked(path: str):
    """Re-raise a ``ValueError`` or ``TypeError`` from building the ``path`` block as a ``ConfigError`` naming it."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(user: dict) -> ExperimentConfig:
    """Resolve ``user`` over the defaults and build the value types it describes."""
    cfg = resolved_config(user)
    # resolved_config has checked every number against its default's type;
    # the rules left here need more than one key, or more than a type
    if not isinstance(cfg["output_dir"], str) or not cfg["output_dir"]:
        raise ConfigError(f"output_dir must be a non-empty string, got {cfg['output_dir']!r}")
    algorithms = cfg["algorithms"]
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("algorithms must be a non-empty list")
    for i, alg in enumerate(algorithms):
        if alg not in ALGORITHMS:
            raise ConfigError(f"algorithms: unknown algorithm {alg!r}")
        if alg in algorithms[:i]:
            # one run_id per (algorithm, rep): a repeat would run and count twice
            raise ConfigError(f"algorithms: {alg!r} is listed twice")

    ds = cfg["dataset"]
    if not 0.0 <= ds["test_fraction"] < 1.0:
        raise ConfigError("dataset.test_fraction must be in [0, 1)")

    part = cfg["partition"]
    with _checked("partition"):
        scheme = PartitionScheme(kind=part["scheme"], size_range=(part["size_min"], part["size_max"]))

    num_sets, per_set = cfg["topology"]["num_sets"], cfg["topology"]["devices_per_set"]
    if isinstance(per_set, list):
        if len(per_set) != num_sets:
            raise ConfigError("topology.devices_per_set length must equal topology.num_sets")
        topology = Topology(devices_per_set=tuple(per_set))
    else:
        topology = Topology(devices_per_set=(per_set,) * num_sets)

    kind, hidden_width = cfg["model"]["kind"], cfg["model"]["hidden_width"]
    least_width = 1 if kind == "mlp" else 0
    if hidden_width < least_width:
        raise ConfigError(f"model.hidden_width must be >= {least_width}")
    with _checked("model"):
        model = ModelSpec(kind=kind, input_dim=ds["input_dim"], num_classes=ds["classes"],
                          hidden_width=hidden_width if kind == "mlp" else 0)

    # float() keeps an integer rate or delay from printing as an int downstream
    with _checked("schedule"):
        schedule = Schedule(**dict(cfg["schedule"], mu=float(cfg["schedule"]["mu"])))

    quantizers = cfg["quantizers"]
    with _checked("quantizers"):
        q1, q2 = (QuantizerSpec(quantizers[key], quantizers["mode"]) for key in ("levels_device", "levels_edge"))

    if "link" in cfg:
        with _checked("link"):
            times = compute_times(LinkComputeParams(**cfg["link"]))
    else:
        with _checked("runtime"):
            times = PhaseTimes(**{name: float(value) for name, value in cfg["runtime"].items()})
    # a run stamps iteration t with t times its delay, and the tables write every stamp
    with _checked("link" if "link" in cfg else "runtime"):
        for alg in algorithms:
            delay = federation.seconds_per_round(alg, schedule, times)
            try:
                last = schedule.rounds * delay
            except OverflowError:  # a round count beyond any float
                last = math.inf
            check_number(last, f"{alg}'s modeled runtime after {schedule.rounds} rounds")

    return ExperimentConfig(
        seed=cfg["seed"],
        repeats=cfg["repeats"],
        output_dir=cfg["output_dir"],
        algorithms=list(algorithms),
        metric_cadence=cfg["metric_cadence"],
        dataset=ds,
        scheme=scheme,
        topology=topology,
        model=model,
        schedule=schedule,
        q1=q1,
        q2=q2,
        times=times,
        init_scale=float(cfg["model"]["init_scale"]),
        raw=cfg,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    # output_dir is excluded: the hash fingerprints the experiment, not
    # where its results land, so re-runs into fresh directories compare equal
    fingerprint = {k: v for k, v in cfg.raw.items() if k != "output_dir"}
    canon = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"), default=np.generic.item)
    return hashlib.sha256(canon.encode()).hexdigest()[:8]


# ---------------------------------------------------------------------------
# metric tables


class CurvePoint(NamedTuple):
    """One row of the aggregate tables: the field order is the column order of both."""

    t: int
    runtime_s: float
    runs: int
    train_loss_mean: float
    train_loss_std: float
    test_accuracy_mean: float
    test_accuracy_std: float


AGG_COLUMNS = ("algorithm", *CurvePoint._fields)


def _sample_std(values: list[float]) -> float:
    # sample (ddof=1) standard deviation; a single observation has no spread
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1))


def aggregate_records(records: list[tuple[str, RunRecord]]) -> dict[str, list[CurvePoint]]:
    """Mean and sample-std loss and accuracy curves per algorithm.

    Each point carries the iteration index and the modeled cumulative runtime
    of that iteration, so a curve can be plotted against either.
    """
    by_alg: dict[str, list[RunRecord]] = {}
    for _, rec in records:
        by_alg.setdefault(rec.algorithm, []).append(rec)
    curves: dict[str, list[CurvePoint]] = {alg: [] for alg in by_alg}
    for alg, recs in by_alg.items():
        for t in range(max(len(r.train_loss) for r in recs)):
            # the runs that reached iteration t, in record order
            reached = [r for r in recs if len(r.train_loss) > t]
            losses = [r.train_loss[t] for r in reached]
            accs = [r.test_accuracy[t] for r in reached]
            curves[alg].append(
                CurvePoint(
                    t=t + 1,
                    runtime_s=reached[0].runtime_s[t],
                    runs=len(reached),
                    train_loss_mean=float(np.mean(losses)),
                    train_loss_std=_sample_std(losses),
                    test_accuracy_mean=float(np.mean(accs)),
                    test_accuracy_std=_sample_std(accs),
                )
            )
    return curves


RUN_COLUMNS = ("run_id", "algorithm", "t", "train_loss", "test_accuracy", "runtime_s")


def _run_rows(run_id: str, rec: RunRecord, cadence: int) -> list[tuple]:
    rows = []
    last = len(rec.train_loss)
    for t in range(1, last + 1):
        if t % cadence == 0 or t == last:
            rows.append(
                (run_id, rec.algorithm, t, rec.train_loss[t - 1],
                 rec.test_accuracy[t - 1], rec.runtime_s[t - 1])
            )
    return rows


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``.

    Readers, and a later run after a crash, see the old file or the whole new
    one, never a partial file.  A failed write is an ``OSError`` that names ``path``.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write metrics file {path}: {exc}") from exc
        raise


def _write_table(path: str, columns: tuple, rows: list[tuple]) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(map(str, row)) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload) -> None:
    # a config passed as a dict may hold numpy scalars, which the value rules accept: each is written as its value
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2, default=np.generic.item) + "\n")


def emit_metrics(records: list[tuple[str, RunRecord]], output_dir: str,
                 cadence: int = 1, config_echo: dict | None = None) -> list[str]:
    """Write the combined metrics table and the aggregate, return written paths.

    ``records`` is a list of (run_id, RunRecord).  An empty list still
    produces header-only tables.
    """
    check_count(cadence, "cadence")
    os.makedirs(output_dir, exist_ok=True)
    written = []

    rows: list[tuple] = []
    for run_id, rec in sorted(records, key=lambda item: item[0]):
        rows.extend(_run_rows(run_id, rec, cadence))
    metrics_path = os.path.join(output_dir, "metrics.csv")
    _write_table(metrics_path, RUN_COLUMNS, rows)
    written.append(metrics_path)

    curves = aggregate_records(records)
    agg_path = os.path.join(output_dir, "aggregate.csv")
    _write_table(agg_path, AGG_COLUMNS, [(alg, *p) for alg in sorted(curves) for p in curves[alg]])
    written.append(agg_path)

    agg_json = {
        "config": config_echo or {},
        "curves": {alg: [p._asdict() for p in pts] for alg, pts in curves.items()},
    }
    json_path = os.path.join(output_dir, "aggregate.json")
    _write_json(json_path, agg_json)
    written.append(json_path)
    return written


# ---------------------------------------------------------------------------
# experiment driver


# A worker's copy of the pool's stop event and mapped function, set by the
# pool initializer.  The pool forks, so both reach the workers by inheritance
# (a closure works); only tasks and results are pickled.
_worker_state: tuple = ()


# OpenBLAS's thread-count setter under the names numpy's wheels and system builds export
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _single_blas_thread() -> None:
    """Cap the OpenBLAS this process has loaded at one thread; do nothing if none is found.

    The pool already runs one worker per usable CPU, so BLAS threads in the
    workers would only compete with each other for the same CPUs.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # the path is the sixth field, and may itself hold spaces
            fields = (line.rstrip("\n").split(None, 5) for line in fh)
            paths = {f[5] for f in fields if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1].lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _init_worker(stop, fn) -> None:
    global _worker_state
    _worker_state = stop, fn
    _single_blas_thread()


def _run_in_worker(task):
    """Return ``(task, fn(task))``; once any task of the pool has raised, return None without running it."""
    stop, fn = _worker_state
    if stop.is_set():
        return None
    try:
        return task, fn(task)
    except BaseException:
        # the parent cannot cancel the tasks already in the pool's call queue, so the workers skip them
        stop.set()
        raise


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_mapper(fn, tasks: list):
    """Yield ``(task, fn(task))`` for every task, in the order the tasks finish.

    The tasks go to ``min(len(tasks), usable CPUs)`` processes: a fork pool
    when that is two or more, else this process, which also maps them on a
    platform without fork.  A task that raises
    stops the iteration with its own exception type; in the pool, it first
    sets a shared event, so no task starts after it, and the running ones are
    drained, so their results are still yielded.  A worker that dies without
    raising (killed, ``os._exit``) breaks the pool: the finished tasks are
    yielded, then a ``ChildProcessError`` whose argument lists the unfinished ones.
    """
    workers = min(len(tasks), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        yield from ((task, fn(task)) for task in tasks)
        return
    # imported here rather than with the package: they add about 1 MB to
    # every process that loads them, and single simulations never need them
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed

    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, context, _init_worker, (context.Event(), fn))
    lost, error = [], None
    try:
        futures = {pool.submit(_run_in_worker, task): task for task in tasks}
        for future in as_completed(futures):
            exc = future.exception()
            if isinstance(exc, BrokenExecutor):
                lost.append(futures[future])
            elif exc is not None:
                error = error or exc
            elif future.result() is not None:
                yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    if error is not None:
        raise error
    if lost:
        raise ChildProcessError(lost)


def run_experiment(cfg: ExperimentConfig | dict) -> list[str]:
    """Run every (algorithm, repetition) pair and write all result files.

    The runs go to ``min(runs, usable CPUs)`` worker processes.  Every run
    draws from streams keyed by (seed, rep, algorithm), so the files do not
    depend on that count or on the order in which runs finish.  Each per-run
    CSV is written as soon as its run returns, so a run that raises, or a
    worker that dies (a ``ChildProcessError`` naming the unfinished runs),
    leaves the finished runs' files behind.  Every run's ``FedRunConfig`` is
    built, and so checked, before the output directory exists, so data the
    config rules out (no training row, too few classes for the scheme,
    features that overflow to inf) is a ``ConfigError`` before any file.
    """
    # anything else, a list or a file name included, meets parse_config's "config root" rule
    if not isinstance(cfg, ExperimentConfig):
        cfg = parse_config(cfg)
    ds = cfg.dataset
    with _checked("dataset"):
        dataset = datagen.make_synthetic_dataset(
            ds["classes"], ds["per_class"], ds["input_dim"], stream(cfg.seed, "dataset"),
            separation=ds["separation"], noise=ds["noise"],
        )
        train, test = split_dataset(dataset, ds["test_fraction"], stream(cfg.seed, "split"))
    with _checked("partition"):
        partitions = [
            datagen.partition(train, cfg.topology, cfg.scheme, stream(cfg.seed, "partition", rep))
            for rep in range(cfg.repeats)
        ]
    tasks = [(rep, algorithm) for rep in range(cfg.repeats) for algorithm in cfg.algorithms]
    # every run's inputs are checked here, before any file: a worker only runs a checked config
    with _checked("dataset"):
        configs = {
            (rep, algorithm): FedRunConfig(
                topology=cfg.topology, schedule=cfg.schedule, model=cfg.model, shards=partitions[rep],
                q1=cfg.q1, q2=cfg.q2, algorithm=algorithm, master_seed=derive_seed(cfg.seed, "run", rep),
                test_samples=test, times=cfg.times, init_scale=cfg.init_scale,
            )
            for rep, algorithm in tasks
        }

    os.makedirs(cfg.output_dir, exist_ok=True)
    chash = config_hash(cfg)
    # longest runs first, so two long ones do not end up queued on one worker
    by_length = sorted(tasks, key=lambda task: -federation.steps_per_round(task[1], cfg.schedule))
    # rep is padded to one width, at least two digits, so the ids sort in rep order
    width = max(2, len(str(cfg.repeats - 1)))
    run_ids = {(rep, alg): f"{alg}_s{cfg.seed}_r{rep:0{width}d}" for rep, alg in tasks}
    run_paths = {task: os.path.join(cfg.output_dir, f"{run_id}_{chash}.csv") for task, run_id in run_ids.items()}
    finished: dict[tuple[int, str], RunRecord] = {}
    # the workers inherit ``configs`` by fork, so only tasks and records are pickled
    runs = _run_mapper(lambda task: federation.run(configs[task]), by_length)
    try:
        with contextlib.closing(runs):
            for task, rec in runs:
                _write_table(run_paths[task], RUN_COLUMNS, _run_rows(run_ids[task], rec, cfg.metric_cadence))
                finished[task] = rec
    except ChildProcessError as exc:
        names = ", ".join(f"{algorithm} rep {rep}" for rep, algorithm in sorted(exc.args[0]))
        raise ChildProcessError(f"a worker process died before these runs finished: {names}") from None

    # every table below is in (rep, algorithm) order, whatever order the runs finished in
    records = [(run_ids[task], finished[task]) for task in tasks]
    manifest = [
        {
            "run_id": run_ids[task],
            "algorithm": task[1],
            "rep": task[0],
            "master_seed": finished[task].master_seed,
            "iterations_completed": len(finished[task].train_loss),
            "diverged_at": finished[task].diverged_at,
            "file": os.path.basename(run_paths[task]),
        }
        for task in tasks
    ]
    written = [run_paths[task] for task in tasks]
    written.extend(emit_metrics(records, cfg.output_dir, cfg.metric_cadence, cfg.raw))
    for name, payload in (("runs.json", manifest), ("resolved_config.json", cfg.raw)):
        written.append(os.path.join(cfg.output_dir, name))
        _write_json(written[-1], payload)
    return written
