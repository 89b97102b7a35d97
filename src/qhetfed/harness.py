"""Config-driven experiment orchestration and metrics persistence.

An experiment is described by one JSON file (see ``DEFAULTS`` for the full
key set and default values).  ``run_experiment`` builds the dataset once,
re-partitions it per repetition, runs every requested algorithm on the same
repetition seed (paired comparisons), and writes:

* one CSV per run: ``<algorithm>_s<seed>_r<rep>_<cfghash>.csv``
* ``metrics.csv``: all runs concatenated
* ``aggregate.csv`` / ``aggregate.json``: mean and sample standard deviation
  per (algorithm, iteration), the latter with the resolved config echoed
* ``runs.json``: manifest with per-run status, including divergence markers
* ``resolved_config.json``: the fully defaulted config actually used

All output is byte-deterministic for a fixed config: floats are written with
``repr`` (shortest round-trip form) and JSON keys are sorted.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import datagen, federation
from .datagen import PartitionScheme, split_dataset
from .federation import ALGORITHMS, FedRunConfig, RunRecord, Schedule, Topology
from .models import ModelSpec
from .planner import LinkComputeParams, PhaseTimes, compute_times
from .quantizer import IDENTITY, STOCHASTIC, QuantizerSpec, identity_spec
from .streams import derive_seed, stream

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

# physical-link alternative to the "runtime" block; mutually exclusive with it
LINK_KEYS = {
    "bandwidth_hz",
    "power_w",
    "noise_w",
    "channel_gain",
    "cycles_per_bit",
    "cpu_hz",
    "bits_per_local_iter",
    "model_bits",
    "edge_cloud_time",
    "edge_cloud_ratio",
}


class ConfigError(ValueError):
    """Raised for unknown keys or invalid values, with the offending key path."""


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key == "link" and not path:
            bad = set(value) - LINK_KEYS
            if bad:
                raise ConfigError(f"unknown configuration key: link.{sorted(bad)[0]}")
            out["link"] = copy.deepcopy(value)
            continue
        if key not in defaults:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be a table of keys")
            out[key] = _merge(defaults[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolved_config(user: dict) -> dict:
    """Merge a user config over the defaults, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    merged = _merge(DEFAULTS, user)
    if "link" in merged:
        merged.pop("runtime", None)
    return merged


def _quantizer_pair(block: dict) -> tuple[QuantizerSpec, QuantizerSpec]:
    mode = block["mode"]
    if mode == IDENTITY:
        return identity_spec(), identity_spec()
    if mode != STOCHASTIC:
        raise ConfigError(f"quantizers.mode must be '{STOCHASTIC}' or '{IDENTITY}'")
    q1 = QuantizerSpec(levels=int(block["levels_device"]), mode=STOCHASTIC)
    q2 = QuantizerSpec(levels=int(block["levels_edge"]), mode=STOCHASTIC)
    return q1, q2


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description plus the raw dict it came from."""

    seed: int
    repeats: int
    output_dir: str
    algorithms: list[str]
    metric_cadence: int
    dataset: dict
    scheme: PartitionScheme
    topology: Topology
    model: ModelSpec
    schedule: Schedule
    q1: QuantizerSpec
    q2: QuantizerSpec
    times: PhaseTimes
    init_scale: float
    raw: dict = field(repr=False)


def parse_config(user: dict) -> ExperimentConfig:
    cfg = resolved_config(user)
    if cfg["repeats"] < 1:
        raise ConfigError("repeats must be >= 1")
    if cfg["metric_cadence"] < 1:
        raise ConfigError("metric_cadence must be >= 1")
    for alg in cfg["algorithms"]:
        if alg not in ALGORITHMS:
            raise ConfigError(f"algorithms: unknown algorithm {alg!r}")

    ds = cfg["dataset"]
    part = cfg["partition"]
    scheme = PartitionScheme(
        kind=part["scheme"], size_range=(int(part["size_min"]), int(part["size_max"]))
    )

    topo_block = cfg["topology"]
    per_set = topo_block["devices_per_set"]
    if isinstance(per_set, int):
        per_set = [per_set] * int(topo_block["num_sets"])
    elif len(per_set) != topo_block["num_sets"]:
        raise ConfigError("topology.devices_per_set length must equal topology.num_sets")
    topology = Topology(devices_per_set=tuple(int(n) for n in per_set))

    mdl = cfg["model"]
    model = ModelSpec(
        kind=mdl["kind"],
        input_dim=int(ds["input_dim"]),
        num_classes=int(ds["classes"]),
        hidden_width=int(mdl["hidden_width"]) if mdl["kind"] == "mlp" else 0,
    )

    sch = cfg["schedule"]
    schedule = Schedule(
        tau=int(sch["tau"]),
        gamma=int(sch["gamma"]),
        mu=float(sch["mu"]),
        rounds=int(sch["rounds"]),
        batch=int(sch["batch"]),
    )

    q1, q2 = _quantizer_pair(cfg["quantizers"])

    if "link" in cfg:
        times = compute_times(LinkComputeParams(**cfg["link"]))
    else:
        rt = cfg["runtime"]
        times = PhaseTimes(float(rt["t_cp"]), float(rt["t_de"]), float(rt["t_ec"]))

    return ExperimentConfig(
        seed=int(cfg["seed"]),
        repeats=int(cfg["repeats"]),
        output_dir=cfg["output_dir"],
        algorithms=list(cfg["algorithms"]),
        metric_cadence=int(cfg["metric_cadence"]),
        dataset=ds,
        scheme=scheme,
        topology=topology,
        model=model,
        schedule=schedule,
        q1=q1,
        q2=q2,
        times=times,
        init_scale=float(mdl["init_scale"]),
        raw=cfg,
    )


def read_config_file(path: str):
    """Parse a JSON config file: malformed JSON is a ``ConfigError``, a missing file an ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        user = read_config_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(user)


def config_hash(cfg: ExperimentConfig) -> str:
    # output_dir is excluded: the hash fingerprints the experiment, not
    # where its results land, so re-runs into fresh directories compare equal
    fingerprint = {k: v for k, v in cfg.raw.items() if k != "output_dir"}
    canon = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:8]


# ---------------------------------------------------------------------------
# metric tables


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


AGG_COLUMNS = (
    "algorithm",
    "t",
    "runtime_s",
    "runs",
    "train_loss_mean",
    "train_loss_std",
    "test_accuracy_mean",
    "test_accuracy_std",
)


@dataclass(frozen=True)
class CurvePoint:
    t: int
    runtime_s: float
    runs: int
    train_loss_mean: float
    train_loss_std: float
    test_accuracy_mean: float
    test_accuracy_std: float


@dataclass
class ComparisonReport:
    """Mean and sample-std accuracy/loss curves per algorithm, on both axes.

    Each curve carries the iteration index and the modeled cumulative runtime
    for that iteration, so it can be plotted against either.  ``config_echo``
    is the resolved experiment config the curves came from.
    """

    curves: dict[str, list[CurvePoint]]
    config_echo: dict

    def rows(self) -> list[tuple]:
        out = []
        for alg in sorted(self.curves):
            for p in self.curves[alg]:
                out.append(
                    (alg, p.t, p.runtime_s, p.runs, p.train_loss_mean,
                     p.train_loss_std, p.test_accuracy_mean, p.test_accuracy_std)
                )
        return out


def _sample_std(values: list[float]) -> float:
    # sample (ddof=1) standard deviation; a single observation has no spread
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values), ddof=1))


def aggregate_records(records: list[tuple[str, RunRecord]], config_echo: dict) -> ComparisonReport:
    by_alg: dict[str, dict[int, list[RunRecord]]] = {}
    for _, rec in records:
        per_t = by_alg.setdefault(rec.algorithm, {})
        for t in range(len(rec.train_loss)):
            per_t.setdefault(t, []).append(rec)
    curves: dict[str, list[CurvePoint]] = {}
    for alg, per_t in by_alg.items():
        pts = []
        for t in sorted(per_t):
            recs = per_t[t]
            losses = [r.train_loss[t] for r in recs]
            accs = [r.test_accuracy[t] for r in recs]
            pts.append(
                CurvePoint(
                    t=t + 1,
                    runtime_s=recs[0].runtime_s[t],
                    runs=len(recs),
                    train_loss_mean=float(np.mean(losses)),
                    train_loss_std=_sample_std(losses),
                    test_accuracy_mean=float(np.mean(accs)),
                    test_accuracy_std=_sample_std(accs),
                )
            )
        curves[alg] = pts
    return ComparisonReport(curves=curves, config_echo=config_echo)


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


def _write_table(path: str, columns: tuple, rows: list[tuple]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics file {path}: {exc}") from exc


def emit_metrics(records: list[tuple[str, RunRecord]], output_dir: str,
                 cadence: int = 1, config_echo: dict | None = None) -> list[str]:
    """Write the combined metrics table and the aggregate, return written paths.

    ``records`` is a list of (run_id, RunRecord).  An empty list still
    produces header-only tables.
    """
    os.makedirs(output_dir, exist_ok=True)
    written = []

    rows: list[tuple] = []
    for run_id, rec in sorted(records, key=lambda item: item[0]):
        rows.extend(_run_rows(run_id, rec, cadence))
    metrics_path = os.path.join(output_dir, "metrics.csv")
    _write_table(metrics_path, RUN_COLUMNS, rows)
    written.append(metrics_path)

    report = aggregate_records(records, config_echo or {})
    agg_path = os.path.join(output_dir, "aggregate.csv")
    _write_table(agg_path, AGG_COLUMNS, report.rows())
    written.append(agg_path)

    agg_json = {
        "config": report.config_echo,
        "curves": {
            alg: [
                {
                    "t": p.t,
                    "runtime_s": p.runtime_s,
                    "runs": p.runs,
                    "train_loss_mean": p.train_loss_mean,
                    "train_loss_std": p.train_loss_std,
                    "test_accuracy_mean": p.test_accuracy_mean,
                    "test_accuracy_std": p.test_accuracy_std,
                }
                for p in pts
            ]
            for alg, pts in report.curves.items()
        },
    }
    json_path = os.path.join(output_dir, "aggregate.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(agg_json, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(json_path)
    return written


# ---------------------------------------------------------------------------
# experiment driver


def _build_run_config(cfg: ExperimentConfig, algorithm: str, rep: int,
                      shards, test_samples) -> FedRunConfig:
    schedule = cfg.schedule
    if algorithm == federation.QHETFED_GAMMA1 and schedule.gamma != 1:
        schedule = Schedule(schedule.tau, 1, schedule.mu, schedule.rounds, schedule.batch)
    return FedRunConfig(
        topology=cfg.topology,
        schedule=schedule,
        model=cfg.model,
        shards=shards,
        q1=cfg.q1,
        q2=cfg.q2,
        algorithm=algorithm,
        master_seed=derive_seed(cfg.seed, "run", rep),
        test_samples=test_samples,
        times=cfg.times,
        init_scale=cfg.init_scale,
    )


def run_experiment(cfg: ExperimentConfig | dict) -> list[str]:
    """Run every (algorithm, repetition) pair and write all result files."""
    if isinstance(cfg, dict):
        cfg = parse_config(cfg)
    ds = cfg.dataset
    dataset = datagen.make_synthetic_dataset(
        int(ds["classes"]), int(ds["per_class"]), int(ds["input_dim"]),
        stream(cfg.seed, "dataset"),
        separation=float(ds["separation"]), noise=float(ds["noise"]),
    )
    train, test = split_dataset(dataset, float(ds["test_fraction"]), stream(cfg.seed, "split"))

    os.makedirs(cfg.output_dir, exist_ok=True)
    chash = config_hash(cfg)
    written = []
    records: list[tuple[str, RunRecord]] = []
    manifest = []
    for rep in range(cfg.repeats):
        shards = datagen.partition(train, cfg.topology, cfg.scheme, stream(cfg.seed, "partition", rep))
        for algorithm in cfg.algorithms:
            run_cfg = _build_run_config(cfg, algorithm, rep, shards, test)
            rec = federation.run(run_cfg)
            run_id = f"{algorithm}_s{cfg.seed}_r{rep:02d}"
            records.append((run_id, rec))
            run_path = os.path.join(cfg.output_dir, f"{run_id}_{chash}.csv")
            _write_table(run_path, RUN_COLUMNS, _run_rows(run_id, rec, cfg.metric_cadence))
            written.append(run_path)
            manifest.append(
                {
                    "run_id": run_id,
                    "algorithm": algorithm,
                    "rep": rep,
                    "master_seed": rec.master_seed,
                    "iterations_completed": len(rec.train_loss),
                    "diverged_at": rec.diverged_at,
                    "file": os.path.basename(run_path),
                }
            )

    written.extend(emit_metrics(records, cfg.output_dir, cfg.metric_cadence, cfg.raw))

    manifest_path = os.path.join(cfg.output_dir, "runs.json")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(manifest_path)

    resolved_path = os.path.join(cfg.output_dir, "resolved_config.json")
    with open(resolved_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg.raw, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(resolved_path)
    return written
