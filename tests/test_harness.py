import contextlib
import ctypes
import hashlib
import io
import json
import multiprocessing
import os
import re
import signal
import time
from concurrent import futures
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qhetfed import cli, federation, harness
from qhetfed.harness import (
    AGG_COLUMNS,
    DEFAULTS,
    ConfigError,
    RUN_COLUMNS,
    aggregate_records,
    config_hash,
    emit_metrics,
    parse_config,
    resolved_config,
    run_experiment,
)
from qhetfed.datagen import DeviceShard
from qhetfed.models import ModelSpec
from qhetfed.streams import derive_seed, stream
from qhetfed.timing import LinkComputeParams, compute_times
from qhetfed.quantizer import IDENTITY, QuantizerSpec


LINK_BLOCK = {
    "bandwidth_hz": 1e6,
    "power_w": 0.5,
    "noise_w": 1e-10,
    "channel_gain": 1e-8,
    "cycles_per_bit": 20,
    "cpu_hz": 1e9,
    "bits_per_local_iter": 1e8,
    "model_bits": 1e6,
    "edge_cloud_ratio": 10.0,
}


TINY = {
    "seed": 7,
    "repeats": 2,
    "dataset": {
        "classes": 3,
        "per_class": 20,
        "input_dim": 4,
        "separation": 4.0,
        "noise": 1.0,
        "test_fraction": 0.2,
    },
    "partition": {"scheme": "iid", "size_min": 5, "size_max": 10},
    "topology": {"num_sets": 2, "devices_per_set": 2},
    "schedule": {"tau": 2, "gamma": 1, "mu": 0.05, "rounds": 3, "batch": 5},
}


# sha256 of the tables the TINY experiment writes into the relative output_dir
# "out": a change to the table code must keep every byte of them
TINY_TABLE_DIGESTS = {
    "metrics.csv": "979becddb7d9a871a85fd15c76ff3c133d254b621e25ac590c62cf01ecf9e5ef",
    "aggregate.csv": "2039aec4cda8a952c6fa3c4a4729415903bfa844072f8e07302dc2641b7ecefd",
    "aggregate.json": "a9f6a162f2a55b319ba8c789e3ea56df433ed4ae27cc50e8b60cb6a97d1b3ebf",
    "runs.json": "f29713682fa2b4db23d62d8380e9e053a5854fa6a45be9f60c718505e9c0ed3d",
}

# the same, for TINY with every algorithm, the centralized_sgd oracle included
ALL_ALGORITHMS_TABLE_DIGESTS = {
    "metrics.csv": "c294dac6b3204699936dbe2bf66da76c957da236afdb1d6935cbdd251bd53e52",
    "aggregate.csv": "ae7e817a4e2cf325b4e93d4a81c2b06d1e0522e92e3185558d9e5c2b82a93d5c",
    "aggregate.json": "217c01aac671e93c75e835172c899d2dbd3feb7c8f72bc6eb2da074222ef3f6a",
    "runs.json": "76da27ee3ddc4564e8ee95efcb5dcca898c0438babf54a850ca7d9cf4638553e",
}


def make_record(algorithm, losses, accs=None, delay=2.0):
    n = len(losses)
    return federation.RunRecord(
        algorithm=algorithm,
        master_seed=0,
        train_loss=list(losses),
        test_accuracy=list(accs) if accs is not None else [0.0] * n,
        runtime_s=[(t + 1) * delay for t in range(n)],
        param_hash=["0" * 64] * n,
        final_params=np.zeros(1),
        diverged_at=None,
    )


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = tuple(lines[0].split(","))
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config resolution


def test_defaults_resolve():
    cfg = parse_config({})
    assert cfg.seed == 0
    assert cfg.repeats == 10
    assert cfg.schedule.tau == 12 and cfg.schedule.gamma == 3
    assert cfg.topology.devices_per_set == (20, 20, 20)
    assert cfg.model.kind == "logistic" and cfg.model.num_classes == 10
    assert cfg.q1.levels == 4 and cfg.q2.levels == 10
    assert cfg.times.t_cp == 2.0
    # read-only, like the specs it holds
    with pytest.raises(AttributeError):
        cfg.seed = 1


def test_unknown_key_rejected_with_dotted_path():
    with pytest.raises(ConfigError, match="schedule.tua"):
        parse_config({"schedule": {"tua": 1}})
    with pytest.raises(ConfigError, match="colour"):
        parse_config({"colour": "blue"})


def test_scalar_where_table_expected():
    with pytest.raises(ConfigError):
        parse_config({"schedule": 5})


def test_partial_override_keeps_sibling_defaults():
    cfg = parse_config({"schedule": {"tau": 4}})
    assert cfg.schedule.tau == 4
    assert cfg.schedule.gamma == 3
    assert cfg.schedule.rounds == 50


def test_identity_quantizer_mode():
    cfg = parse_config({"quantizers": {"mode": "identity"}})
    assert cfg.q1.mode == IDENTITY and cfg.q2.mode == IDENTITY


def test_devices_per_set_list_form():
    cfg = parse_config({"topology": {"num_sets": 2, "devices_per_set": [3, 5]}})
    assert cfg.topology.devices_per_set == (3, 5)
    with pytest.raises(ConfigError):
        parse_config({"topology": {"num_sets": 3, "devices_per_set": [3, 5]}})


def test_link_block_replaces_runtime_table():
    resolved = resolved_config({"link": LINK_BLOCK})
    assert "runtime" not in resolved
    cfg = parse_config({"link": LINK_BLOCK})
    expected = compute_times(LinkComputeParams(**LINK_BLOCK))
    assert cfg.times == expected
    # a null edge_cloud_time means "derive t_ec from the ratio", as when it is left out
    assert parse_config({"link": dict(LINK_BLOCK, edge_cloud_time=None)}).times == expected


def test_link_block_rejects_unknown_key():
    block = dict(LINK_BLOCK, bandwith_hz=1.0)
    with pytest.raises(ConfigError, match="link.bandwith_hz"):
        resolved_config({"link": block})


def test_validation_of_counts():
    with pytest.raises(ConfigError):
        parse_config({"repeats": 0})
    with pytest.raises(ConfigError):
        parse_config({"metric_cadence": 0})
    with pytest.raises(ConfigError):
        parse_config({"algorithms": ["sgd"]})


@pytest.mark.parametrize("algorithms", [["qhetfed", "qhetfed"], ["qhetfed", "hier_local_qsgd", "qhetfed"], [], "qhetfed"])
def test_duplicate_or_empty_algorithms_rejected(algorithms):
    with pytest.raises(ConfigError, match="algorithms"):
        parse_config({"algorithms": algorithms})


@pytest.mark.parametrize(
    "user",
    [
        {"repeats": "3"},
        {"repeats": 2.0},
        {"repeats": True},
        {"metric_cadence": 1.5},
        {"metric_cadence": "1"},
        {"metric_cadence": False},
        {"seed": 2.7},
        {"seed": "5"},
        {"seed": True},
        {"seed": None},
        {"seed": -1},
    ],
    ids=lambda user: f"{next(iter(user))}={next(iter(user.values()))!r}",
)
def test_integer_keys_take_only_integers_in_range(user):
    key = next(iter(user))
    with pytest.raises(ConfigError, match=key):
        parse_config(user)


def test_integer_keys_keep_their_values():
    cfg = parse_config({"seed": 2**70, "repeats": 3, "metric_cadence": 4})
    assert (cfg.seed, cfg.repeats, cfg.metric_cadence) == (2**70, 3, 4)


@pytest.mark.parametrize(
    "user, key",
    [
        ({"schedule": {"tau": 2.7}}, "schedule.tau"),
        ({"schedule": {"batch": None}}, "schedule.batch"),
        ({"topology": {"devices_per_set": True}}, "topology.devices_per_set"),
        ({"topology": {"num_sets": 2, "devices_per_set": [3, True]}}, r"topology.devices_per_set\[1\]"),
        ({"topology": {"num_sets": 3.0}}, "topology.num_sets"),
        ({"dataset": {"per_class": "600"}}, "dataset.per_class"),
        ({"dataset": {"input_dim": 20.5}}, "dataset.input_dim"),
        ({"partition": {"size_min": 5.5}}, "partition.size_min"),
        ({"model": {"kind": "mlp", "hidden_width": 16.0}}, "model.hidden_width"),
        ({"quantizers": {"levels_device": True}}, "quantizers.levels_device"),
        ({"quantizers": {"levels_edge": 2.5}}, "quantizers.levels_edge"),
        ({"schedule": {"mu": True}}, "schedule.mu"),
        ({"schedule": {"mu": "0.1"}}, "schedule.mu"),
        ({"dataset": {"noise": float("nan")}}, "dataset.noise"),
        ({"model": {"init_scale": None}}, "model.init_scale"),
        ({"runtime": {"t_cp": "2"}}, "runtime.t_cp"),
        ({"link": dict(LINK_BLOCK, bandwidth_hz=True)}, "link.bandwidth_hz"),
        ({"link": dict(LINK_BLOCK, noise_w=float("nan"))}, "link.noise_w"),
        ({"link": dict(LINK_BLOCK, cpu_hz=float("inf"))}, "link.cpu_hz"),
        ({"link": dict(LINK_BLOCK, model_bits="1e6")}, "link.model_bits"),
        ({"link": dict(LINK_BLOCK, edge_cloud_ratio=None)}, "link.edge_cloud_ratio"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else "",
)
def test_nested_numbers_are_checked_not_cast(user, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(user)


@pytest.mark.parametrize(
    "user, key",
    [
        ({"partition": {"scheme": "bogus"}}, "partition"),
        ({"partition": {"size_min": 10, "size_max": 5}}, "partition"),
        ({"schedule": {"rounds": 0}}, "schedule.rounds"),
        ({"schedule": {"mu": -0.1}}, "schedule"),
        ({"dataset": {"classes": 1}}, "dataset.classes"),
        ({"dataset": {"test_fraction": 1.0}}, "dataset.test_fraction"),
        ({"topology": {"devices_per_set": 0}}, "topology.devices_per_set"),
        ({"model": {"kind": "tree"}}, "model"),
        ({"model": {"kind": "mlp", "hidden_width": 0}}, "model.hidden_width"),
        ({"quantizers": {"levels_edge": 0}}, "quantizers.levels_edge"),
        ({"runtime": {"t_ec": 0}}, "runtime"),
        ({"link": {k: v for k, v in LINK_BLOCK.items() if k != "cpu_hz"}}, "link"),
        ({"link": dict(LINK_BLOCK, power_w=-1.0)}, "link"),
        ({"link": 5}, "link"),
        ({"link": LINK_BLOCK, "runtime": {"t_cp": 99}}, "runtime"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": None}, "output_dir"),
        ({"output_dir": ""}, "output_dir"),
    ],
    ids=lambda v: json.dumps(v)[:60] if isinstance(v, dict) else "",
)
def test_out_of_range_nested_values_are_config_errors(user, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(user)


@pytest.mark.parametrize(
    "user, message",
    [
        ({"quantizers": {"levels_edge": 2.5}}, "quantizers.levels_edge must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"dataset": {"classes": 1}}, "dataset.classes must be >= 2"),
        ({"partition": {"size_max": 0}}, "partition.size_max must be >= 1"),
        ({"model": {"hidden_width": -1}}, "model.hidden_width must be >= 0"),
        ({"model": {"kind": "mlp", "hidden_width": -1}}, "model.hidden_width must be >= 1"),
        ({"dataset": {"noise": float("inf")}}, "dataset.noise must be a finite number, got inf"),
        ({"schedule": {"mu": "0.1"}}, "schedule.mu must be a finite number, got '0.1'"),
        ({"schedule": {"mu": 0}}, "schedule: mu must be a finite positive number, got 0.0"),
        ({"topology": {"num_sets": 2, "devices_per_set": [3.0, 3]}},
         "topology.devices_per_set[0] must be an integer, got 3.0"),
        ({"topology": {"num_sets": 2, "devices_per_set": [3, 0]}}, "topology.devices_per_set[1] must be >= 1"),
        ({"link": dict(LINK_BLOCK, edge_cloud_time="x")}, "link.edge_cloud_time must be a finite number, got 'x'"),
        ({"link": dict(LINK_BLOCK, noise_w=float("nan"))}, "link.noise_w must be a finite number, got nan"),
        ({"link": {k: v for k, v in LINK_BLOCK.items() if k != "cpu_hz"}}, "link: missing keys: cpu_hz"),
        # each delay is a finite number, but qhetfed's last stamp, 2 iterations of them, is not
        ({"runtime": {"t_cp": 1e308}, "schedule": {"rounds": 2}},
         "runtime: qhetfed's modeled runtime after 2 rounds must be a finite number, got inf"),
        ({"runtime": {"t_ec": 1e308}, "schedule": {"rounds": 2}},
         "runtime: qhetfed's modeled runtime after 2 rounds must be a finite number, got inf"),
        ({"link": dict(LINK_BLOCK, cpu_hz=2e-299), "schedule": {"rounds": 2}},
         "link: qhetfed's modeled runtime after 2 rounds must be a finite number, got inf"),
    ],
    ids=lambda v: json.dumps(v)[:60] if isinstance(v, dict) else "",
)
def test_one_fault_config_error_messages(user, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(user)
    assert str(exc.value) == message


def _leaves(table: dict, path: str = ""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield f"{path}{key}", value


def _readme_config_rows() -> dict[str, str]:
    """Key -> default text of each row of the README's configuration table.

    A row such as ``partition.size_min/max`` with ``50/150`` gives one key per part: each later
    part replaces as many trailing ``_`` words of the first key's last segment as it has.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for key, default in re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", table, re.MULTILINE):
        first, *rest = key.split("/")
        head, _, last = first.rpartition(".")
        keys = [first] + [f"{head}." + "_".join(last.split("_")[: -len(part.split("_"))] + [part]) for part in rest]
        rows.update(zip(keys, default.split("/") if rest else [default]))
    return rows


def test_readme_config_table_gives_every_default():
    rows = _readme_config_rows()
    wrong = [key for key, value in _leaves(DEFAULTS) if rows.get(key) != json.dumps(value)]
    assert not wrong, "README configuration table lacks or misstates: " + ", ".join(wrong)


def test_resolving_a_config_checks_each_value_by_its_default():
    with pytest.raises(ConfigError, match=r"^schedule\.tau must be an integer, got 2\.7$"):
        resolved_config({"schedule": {"tau": 2.7}})
    # integer delays are numbers, taken as floats
    times = parse_config({"runtime": {"t_cp": 30, "t_de": 1, "t_ec": 2}}).times
    assert [type(t) for t in (times.t_cp, times.t_de, times.t_ec)] == [float] * 3


def test_number_keys_accept_ints_and_valid_configs_keep_their_hash():
    cfg = parse_config({"schedule": {"mu": 1}, "dataset": {"test_fraction": 0}})
    assert cfg.schedule.mu == 1.0 and isinstance(cfg.schedule.mu, float)
    # hashes of the code before nested values were checked
    assert config_hash(parse_config({})) == "47fe5935"
    assert config_hash(parse_config(TINY)) == "83d2a07c"
    mixed = {"link": LINK_BLOCK, "model": {"kind": "mlp"}, "quantizers": {"mode": "identity"},
             "topology": {"num_sets": 2, "devices_per_set": [3, 5]}}
    assert config_hash(parse_config(mixed)) == "73c746de"


def test_config_hash_ignores_output_dir():
    a = parse_config({"output_dir": "/tmp/a", **TINY})
    b = parse_config({"output_dir": "/tmp/b", **TINY})
    assert config_hash(a) == config_hash(b)
    c = parse_config({"seed": 8, **{k: v for k, v in TINY.items() if k != "seed"}})
    assert config_hash(a) != config_hash(c)


def test_numpy_scalars_in_a_dict_config_are_written_as_their_values(tmp_path):
    # the count and number rules take numpy scalars, as the library's value types do
    schedule = TINY["schedule"]
    numpy_cfg = parse_config({**TINY, "seed": np.int64(7), "schedule": {**schedule, "mu": np.float32(0.5)}})
    plain_cfg = parse_config({**TINY, "seed": 7, "schedule": {**schedule, "mu": 0.5}})
    assert config_hash(numpy_cfg) == config_hash(plain_cfg)
    harness._write_json(str(tmp_path / "config.json"), numpy_cfg.raw)
    assert json.loads((tmp_path / "config.json").read_text(encoding="utf-8")) == plain_cfg.raw


def test_the_clock_check_reads_the_delay_each_algorithm_stamps():
    # the oracle's iteration is one compute step: an upload delay is not in its clock
    oracle = {"algorithms": ["centralized_sgd"], "runtime": {"t_de": 1e307}, "schedule": {"rounds": 2}}
    assert parse_config(oracle).times.t_de == 1e307
    with pytest.raises(ConfigError, match=r"^runtime: qhetfed's modeled runtime after 2 rounds"):
        parse_config(dict(oracle, algorithms=["centralized_sgd", "qhetfed"]))
    with pytest.raises(ConfigError, match=r"^runtime: qhetfed's modeled runtime after 1000"):
        parse_config({"schedule": {"rounds": 10**400}})


# ---------------------------------------------------------------------------
# metric tables


def test_aggregate_sample_std_hand_value():
    recs = [
        ("a", make_record("qhetfed", [1.0])),
        ("b", make_record("qhetfed", [3.0])),
    ]
    curves = aggregate_records(recs)
    point = curves["qhetfed"][0]
    assert point.runs == 2
    assert point.train_loss_mean == 2.0
    assert abs(point.train_loss_std - 2.0 ** 0.5) < 1e-15


def test_aggregate_single_run_has_zero_std():
    curves = aggregate_records([("a", make_record("qhetfed", [1.5, 1.2]))])
    for point in curves["qhetfed"]:
        assert point.train_loss_std == 0.0
        assert point.runs == 1


def test_aggregate_of_identical_runs_equals_single_run():
    base = make_record("qhetfed", [2.0, 1.0], accs=[0.3, 0.6])
    twin = make_record("qhetfed", [2.0, 1.0], accs=[0.3, 0.6])
    curves = aggregate_records([("a", base), ("b", twin)])
    for t, point in enumerate(curves["qhetfed"]):
        assert point.train_loss_mean == base.train_loss[t]
        assert point.train_loss_std == 0.0
        assert point.test_accuracy_mean == base.test_accuracy[t]


def test_emit_metrics_empty_is_header_only(tmp_path):
    written = emit_metrics([], str(tmp_path))
    header, rows = read_csv(os.path.join(str(tmp_path), "metrics.csv"))
    assert header == RUN_COLUMNS and rows == []
    header, rows = read_csv(os.path.join(str(tmp_path), "aggregate.csv"))
    assert header == AGG_COLUMNS and rows == []
    assert len(written) == 3


def test_metrics_round_trip_exact(tmp_path):
    rec = make_record("qhetfed", [0.1 + 0.2, 1.0 / 3.0], accs=[0.5, 2.0 / 3.0], delay=33.878411556555406)
    emit_metrics([("run0", rec)], str(tmp_path))
    _, rows = read_csv(os.path.join(str(tmp_path), "metrics.csv"))
    assert len(rows) == 2
    for t, row in enumerate(rows):
        assert row[0] == "run0" and row[1] == "qhetfed"
        assert int(row[2]) == t + 1
        assert float(row[3]) == rec.train_loss[t]
        assert float(row[4]) == rec.test_accuracy[t]
        assert float(row[5]) == rec.runtime_s[t]


def test_numpy_floats_in_a_record_write_the_same_tables(tmp_path):
    # numpy 2 reprs a float64 as np.float64(0.5); every cell is written with str instead
    values = dict(losses=[0.5, 1.0 / 3.0], accs=[0.25, 0.1 + 0.2])
    python = make_record("qhetfed", **values, delay=1.5)
    numpy = make_record("qhetfed", **{k: list(np.array(v)) for k, v in values.items()}, delay=np.float64(1.5))
    assert type(numpy.train_loss[0]) is type(numpy.runtime_s[0]) is np.float64
    tables = []
    for name, rec in (("python", python), ("numpy", numpy)):
        emit_metrics([("run0", rec)], str(tmp_path / name))
        tables.append([(tmp_path / name / table).read_bytes() for table in ("metrics.csv", "aggregate.csv")])
    assert tables[0] == tables[1]
    assert tables[0][0].splitlines()[1] == b"run0,qhetfed,1,0.5,0.25,1.5"


def test_metric_cadence_keeps_last_iteration(tmp_path):
    rec = make_record("qhetfed", [float(t) for t in range(12)])
    emit_metrics([("run0", rec)], str(tmp_path), cadence=5)
    _, rows = read_csv(os.path.join(str(tmp_path), "metrics.csv"))
    assert [int(r[2]) for r in rows] == [5, 10, 12]


def test_aggregate_json_contains_config_echo(tmp_path):
    rec = make_record("qhetfed", [1.0])
    emit_metrics([("run0", rec)], str(tmp_path), config_echo={"seed": 9})
    with open(os.path.join(str(tmp_path), "aggregate.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["config"] == {"seed": 9}
    assert data["curves"]["qhetfed"][0]["train_loss_mean"] == 1.0


# ---------------------------------------------------------------------------
# experiment driver


def test_run_experiment_end_to_end(tmp_path):
    user = dict(TINY, output_dir=str(tmp_path / "out"))
    written = run_experiment(user)
    names = sorted(os.path.basename(p) for p in written)
    assert "metrics.csv" in names
    assert "aggregate.csv" in names
    assert "aggregate.json" in names
    assert "runs.json" in names
    assert "resolved_config.json" in names
    per_run = [n for n in names if n.endswith(".csv") and n not in ("metrics.csv", "aggregate.csv")]
    assert len(per_run) == 4  # 2 algorithms x 2 repeats

    with open(tmp_path / "out" / "runs.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert len(manifest) == 4
    for entry in manifest:
        assert entry["iterations_completed"] == 3
        assert entry["diverged_at"] is None
        assert (tmp_path / "out" / entry["file"]).exists()

    with open(tmp_path / "out" / "resolved_config.json", encoding="utf-8") as fh:
        resolved = json.load(fh)
    assert resolved["schedule"]["tau"] == 2
    assert resolved["repeats"] == 2
    assert resolved["quantizers"]["levels_device"] == 4  # default survived the merge


def test_run_experiment_tables_match_pinned_digests(tmp_path, monkeypatch):
    # a relative output_dir keeps the config echo in aggregate.json the same in every checkout
    monkeypatch.chdir(tmp_path)
    run_experiment(dict(TINY, output_dir="out"))
    for name, digest in TINY_TABLE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


def test_run_experiment_with_every_algorithm_matches_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_experiment(dict(TINY, output_dir="out",
                        algorithms=["qhetfed", "hier_local_qsgd", "qhetfed_gamma1", "centralized_sgd"]))
    for name, digest in ALL_ALGORITHMS_TABLE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


def test_run_experiment_reruns_byte_identical(tmp_path):
    user_a = dict(TINY, output_dir=str(tmp_path / "a"))
    user_b = dict(TINY, output_dir=str(tmp_path / "b"))
    run_experiment(user_a)
    run_experiment(user_b)
    for name in ("metrics.csv", "aggregate.csv"):
        with open(tmp_path / "a" / name, "rb") as fh:
            blob_a = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, name
    # the json report embeds the config echo, whose output_dir legitimately
    # differs between the two runs; the curves themselves must match
    with open(tmp_path / "a" / "aggregate.json", encoding="utf-8") as fh:
        curves_a = json.load(fh)["curves"]
    with open(tmp_path / "b" / "aggregate.json", encoding="utf-8") as fh:
        curves_b = json.load(fh)["curves"]
    assert curves_a == curves_b
    csvs_a = sorted(p.name for p in (tmp_path / "a").glob("*_s7_*.csv"))
    csvs_b = sorted(p.name for p in (tmp_path / "b").glob("*_s7_*.csv"))
    assert csvs_a == csvs_b and len(csvs_a) == 4


def test_run_experiment_without_test_split_records_zero_accuracy(tmp_path):
    user = dict(TINY, output_dir=str(tmp_path / "out"), dataset=dict(TINY["dataset"], test_fraction=0.0))
    run_experiment(user)
    header, rows = read_csv(tmp_path / "out" / "metrics.csv")
    column = header.index("test_accuracy")
    assert len(rows) == 12 and all(row[column] == "0.0" for row in rows)


def test_run_experiment_runs_gamma1_under_any_gamma(tmp_path):
    # qhetfed_gamma1 reads no schedule.gamma: its tables are those of the gamma = 1 experiment
    tables = {}
    for gamma in (1, 3):
        out = tmp_path / f"gamma{gamma}"
        run_experiment(dict(TINY, output_dir=str(out), algorithms=["qhetfed_gamma1"],
                            schedule=dict(TINY["schedule"], gamma=gamma)))
        with open(out / "runs.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert {m["algorithm"] for m in manifest} == {"qhetfed_gamma1"}
        assert all(m["iterations_completed"] == 3 for m in manifest)
        tables[gamma] = [(out / name).read_bytes() for name in ("metrics.csv", "aggregate.csv")]
    assert tables[1] == tables[3]


def test_no_temporary_file_left_behind(tmp_path):
    out = tmp_path / "out"
    written = run_experiment(dict(TINY, output_dir=str(out)))
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in written)
    # a rerun replaces every file in place
    assert run_experiment(dict(TINY, output_dir=str(out))) == written
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in written)


def test_a_dataset_that_overflows_is_a_config_error_before_any_file(tmp_path, monkeypatch):
    # noise * N(0, 1) overflows to inf features without a warning, which the tests turn into an
    # error; every run's config rejects them before the directory exists, and no run starts
    monkeypatch.setattr(federation, "run", lambda config: pytest.fail("a run started"))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^dataset: shard \(0, 0\) features must be finite numbers, got -inf$"):
        run_experiment(dict(TINY, output_dir=str(out), dataset=dict(TINY["dataset"], noise=1e308)))
    assert not out.exists()


def test_a_failed_rename_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    path.write_bytes(b"old\n")
    renamed = []

    def replace(src, dst):
        renamed.append(os.path.basename(src))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match=f"^cannot write metrics file {re.escape(str(path))}: "):
        harness._write_table(str(path), ("t",), [(1,)])
    assert renamed == [f".metrics.csv.{os.getpid()}.tmp"]
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["metrics.csv"]


# ---------------------------------------------------------------------------
# worker processes

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs the fork start method"
)


def _record_pids(monkeypatch, log):
    """Make every simulation append the id of the process it ran in to ``log``."""
    real_run = federation.run

    def run(config):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_run(config)

    monkeypatch.setattr(federation, "run", run)


def _read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


@needs_fork
def test_pool_and_in_process_runs_write_identical_files(tmp_path, monkeypatch):
    out = tmp_path / "out"
    user = dict(TINY, output_dir=str(out), algorithms=["qhetfed", "hier_local_qsgd", "qhetfed_gamma1"])
    outputs, pids = {}, {}
    for workers in (2, 1):
        monkeypatch.setattr(harness, "_usable_cpus", lambda n=workers: n)
        log = tmp_path / f"pids-{workers}.txt"
        _record_pids(monkeypatch, log)
        written = run_experiment(user)
        outputs[workers] = (written, _read_dir(out))
        pids[workers] = log.read_text(encoding="utf-8").split()
        os.rename(out, tmp_path / f"out-{workers}")
    assert outputs[2] == outputs[1]
    written, files = outputs[1]
    assert {"runs.json", "aggregate.json", "metrics.csv"} <= set(files)
    assert len(files) == 6 + 5
    # runs finish longest first, but the manifest and the path list keep (rep, algorithm) order
    manifest = json.loads(files["runs.json"])
    assert [(m["rep"], m["algorithm"]) for m in manifest] == [
        (rep, alg) for rep in range(2) for alg in user["algorithms"]
    ]
    assert [os.path.basename(p) for p in written[:6]] == [m["file"] for m in manifest]
    assert len(pids[1]) == len(pids[2]) == 6
    assert set(pids[1]) == {str(os.getpid())}
    assert str(os.getpid()) not in pids[2]


@needs_fork
def test_mapped_simulations_do_not_depend_on_the_pool_size(monkeypatch):
    topology, model, data = federation.Topology((2, 2)), ModelSpec("logistic", 4, 3), stream(5, "mapper-data")
    shards = [DeviceShard(l, n, (data.standard_normal((6, 4)), data.integers(0, 3, 6)))
              for l in range(2) for n in range(2)]

    def simulate(task):
        algorithm, seed = task
        rec = federation.run(federation.FedRunConfig(
            topology, federation.Schedule(tau=2, gamma=2, mu=0.05, rounds=3, batch=3), model, shards,
            QuantizerSpec(levels=4), QuantizerSpec(levels=8), algorithm=algorithm, master_seed=seed,
        ))
        return os.getpid(), rec.param_hash

    tasks = [(algorithm, seed) for algorithm in ("qhetfed", "hier_local_qsgd") for seed in range(3)]
    hashes, pids = {}, {}
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda n=workers: n)
        results = dict(harness._run_mapper(simulate, tasks))
        hashes[workers] = {task: param_hash for task, (_, param_hash) in results.items()}
        pids[workers] = {pid for pid, _ in results.values()}
    assert hashes[2] == hashes[1]
    assert sorted(hashes[1]) == sorted(tasks) and all(len(h) == 3 for h in hashes[1].values())
    # the closure ran in this process alone, then in forked workers only
    assert pids[1] == {os.getpid()} and os.getpid() not in pids[2]


@needs_fork
def test_mapper_without_fork_maps_in_the_calling_process(monkeypatch):
    tasks, calls = list(range(5)), []

    def square(task):
        calls.append(task)  # a forked worker appends to its own copy of the list
        return task * task

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    pooled = sorted(harness._run_mapper(square, tasks))
    assert calls == [] and pooled == [(task, task * task) for task in tasks]
    monkeypatch.delattr(os, "fork")
    assert list(harness._run_mapper(square, tasks)) == pooled
    assert calls == tasks


def test_blas_cap_loads_an_openblas_whose_path_holds_a_space(monkeypatch):
    path = "/opt/my env/lib/python3.11/site-packages/numpy.libs/libscipy_openblas64_-ff651d7f.so"
    maps = (
        f"7f2a00000000-7f2a00100000 r-xp 00000000 08:01 1234                       {path}\n"
        "7f2a00200000-7f2a00300000 rw-p 00000000 00:00 0 \n"
        "7ffc00000000-7ffc00021000 rw-p 00000000 00:00 0                          [stack]\n"
    )
    loaded, threads = [], []

    def cdll(name):
        loaded.append(name)
        return SimpleNamespace(scipy_openblas_set_num_threads64_=lambda n: threads.append(n))

    monkeypatch.setattr(harness, "open", lambda *args, **kwargs: io.StringIO(maps), raising=False)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    harness._single_blas_thread()
    assert loaded == [path] and threads == [1]


@needs_fork
def test_mapper_pool_is_capped_by_tasks_and_cpus(monkeypatch):
    sizes = []

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            sizes.append(max_workers)
            super().__init__(max_workers, *args)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    # (usable CPUs, tasks, pool size); no task, one task or one CPU forks nothing
    for cpus, count, pool in ((3, 0, None), (3, 1, None), (3, 2, 2), (3, 3, 3), (3, 5, 3), (1, 5, None)):
        monkeypatch.setattr(harness, "_usable_cpus", lambda n=cpus: n)
        sizes.clear()
        pids = dict(harness._run_mapper(lambda task: os.getpid(), list(range(count))))
        assert sorted(pids) == list(range(count))
        if pool is None:
            assert sizes == [] and set(pids.values()) <= {os.getpid()}
        else:
            assert sizes == [pool] and os.getpid() not in pids.values()
    monkeypatch.undo()
    assert 1 <= harness._usable_cpus() <= (os.cpu_count() or 1)


class RunFailed(RuntimeError):
    """Raised by a deliberately failing simulation."""


@pytest.mark.parametrize("workers", [pytest.param(2, marks=needs_fork), 1])
def test_failing_run_raises_its_own_type_and_keeps_finished_runs(tmp_path, monkeypatch, workers):
    reference = tmp_path / "reference"
    run_experiment(dict(TINY, output_dir=str(reference)))
    per_run = sorted(p.name for p in reference.glob("*_s7_r*.csv"))

    # at tau = 2, gamma = 1 a hier_local_qsgd run is the shorter (2 steps a
    # round against 3), so its r01 is submitted last; it fails once the parent
    # has written the other three runs' files, which it must do as they arrive
    out = tmp_path / "out"
    real_run = federation.run

    def run(config):
        if config.algorithm == "hier_local_qsgd" and config.master_seed == derive_seed(7, "run", 1):
            deadline = time.monotonic() + 30.0
            while len(list(out.glob("*_s7_r*.csv"))) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RunFailed("hier_local_qsgd r01 failed")
        return real_run(config)

    monkeypatch.setattr(federation, "run", run)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
    with pytest.raises(RunFailed, match="r01 failed"):
        run_experiment(dict(TINY, output_dir=str(out)))
    kept = sorted(os.listdir(out))
    assert kept == [name for name in per_run if not name.startswith("hier_local_qsgd_s7_r01")]
    for name in kept:
        assert (out / name).read_bytes() == (reference / name).read_bytes()


@needs_fork
def test_failing_run_drains_the_running_ones_and_keeps_their_files(tmp_path, monkeypatch):
    reference = tmp_path / "reference"
    run_experiment(dict(TINY, output_dir=str(reference)))

    # the two qhetfed runs start first, one per worker: r00 raises once r01 is
    # running, and r01 is still running when the parent sees the failure; the
    # hier_local_qsgd runs are queued by then, and none of them may start
    out, started, log = tmp_path / "out", tmp_path / "r01-started", tmp_path / "started.txt"
    real_run = federation.run

    def run(config):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{config.algorithm}\n")
        if config.algorithm == "qhetfed" and config.master_seed == derive_seed(7, "run", 1):
            started.touch()
            time.sleep(1.0)
        elif config.algorithm == "qhetfed":
            deadline = time.monotonic() + 30.0
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RunFailed("qhetfed r00 failed")
        return real_run(config)

    monkeypatch.setattr(federation, "run", run)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    with _hard_timeout(60), pytest.raises(RunFailed, match="r00 failed"):
        run_experiment(dict(TINY, output_dir=str(out)))
    assert sorted(log.read_text(encoding="utf-8").split()) == ["qhetfed", "qhetfed"]
    kept = sorted(os.listdir(out))
    assert [name[:15] for name in kept] == ["qhetfed_s7_r01_"]
    for name in kept:
        assert (out / name).read_bytes() == (reference / name).read_bytes()


@contextlib.contextmanager
def _hard_timeout(seconds):
    """Fail a block that runs longer than ``seconds``, so a hang fails the test instead of the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
@pytest.mark.parametrize("entry", ["run_experiment", "cli"])
def test_dead_worker_fails_the_experiment_and_names_the_unfinished_runs(tmp_path, monkeypatch, capsys, entry):
    out = tmp_path / "out"
    real_run = federation.run

    def run(config):
        # the last run submitted dies without raising, as an OOM kill does, once another run's file exists
        if config.algorithm == "hier_local_qsgd" and config.master_seed == derive_seed(7, "run", 1):
            deadline = time.monotonic() + 30.0
            while not list(out.glob("*_s7_r*.csv")) and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(9)
        return real_run(config)

    monkeypatch.setattr(federation, "run", run)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    user = dict(TINY, output_dir=str(out))
    with _hard_timeout(60):
        if entry == "cli":
            config = tmp_path / "config.json"
            config.write_text(json.dumps(user), encoding="utf-8")
            assert cli.main(["run", "--config", str(config)]) == 1
            message = capsys.readouterr().err
            assert message.startswith("error: ") and message.count("\n") == 1
        else:
            with pytest.raises(ChildProcessError) as exc:
                run_experiment(user)
            message = str(exc.value)
    tasks = {(rep, alg) for rep in range(2) for alg in ("qhetfed", "hier_local_qsgd")}
    named = {(rep, alg) for rep, alg in tasks if f"{alg} rep {rep}" in message}
    kept = {(rep, alg) for rep, alg in tasks if list(out.glob(f"{alg}_s7_r{rep:02d}_*.csv"))}
    # every run either finished and kept its file or is named as unfinished
    assert (1, "hier_local_qsgd") in named and kept
    assert named | kept == tasks and not named & kept
    assert not (out / "runs.json").exists()
