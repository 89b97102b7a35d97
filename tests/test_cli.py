import argparse
import json

import pytest

from qhetfed.cli import main


TINY = {
    "seed": 7,
    "repeats": 1,
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


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def parse_kv(output):
    pairs = {}
    for line in output.strip().splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
    return pairs


def test_run_subcommand_succeeds(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics.csv" in out
    assert (tmp_path / "out" / "runs.json").exists()


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"colour": "blue"})
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "colour" in capsys.readouterr().err


def test_run_set_override_applies(tmp_path):
    cfg = write_config(tmp_path, TINY)
    code = main([
        "run", "--config", cfg, "--output-dir", str(tmp_path / "out"),
        "--set", "schedule.rounds=2",
    ])
    assert code == 0
    with open(tmp_path / "out" / "runs.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert all(m["iterations_completed"] == 2 for m in manifest)


def test_run_set_override_rejects_unknown_path(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    code = main([
        "run", "--config", cfg, "--output-dir", str(tmp_path / "out"),
        "--set", "bogus.key=1",
    ])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_plan_prints_frozen_schedule(capsys):
    code = main([
        "plan", "--deadline", "15600", "--rounds", "100", "--q1", "1",
        "--num-sets", "3", "--num-devices", "60",
        "--t-cp", "2.0", "--t-de", "0.17629143438888212",
        "--t-ec", "1.7629143438888213",
    ])
    assert code == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["tau"] == "69"
    assert pairs["gamma"] == "2"
    assert abs(float(pairs["iteration_delay_s"]) - 155.9270233167217) < 1e-9
    assert float(pairs["total_time_s"]) <= 15600.0


def test_plan_link_mode_matches_direct_times(capsys):
    args = [
        "plan", "--deadline", "15600", "--rounds", "100", "--q1", "1",
        "--num-sets", "3", "--num-devices", "60",
        "--bandwidth-hz", "1e6", "--power-w", "0.5", "--noise-w", "1e-10",
        "--channel-gain", "1e-8", "--cycles-per-bit", "20", "--cpu-hz", "1e9",
        "--bits-per-local-iter", "1e8", "--model-bits", "1e6",
        "--edge-cloud-ratio", "10.0",
    ]
    assert main(args) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert abs(float(pairs["t_cp"]) - 2.0) < 1e-12
    assert abs(float(pairs["t_de"]) - 0.17629143438888212) < 1e-15
    assert pairs["tau"] == "69"


def test_plan_infeasible_deadline_fails(capsys):
    code = main([
        "plan", "--deadline", "30", "--rounds", "10", "--q1", "1",
        "--num-sets", "2", "--num-devices", "10",
        "--t-cp", "1.0", "--t-de", "0.2", "--t-ec", "1.0",
    ])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_plan_requires_complete_time_set(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "plan", "--deadline", "100", "--rounds", "10", "--q1", "1",
            "--num-sets", "2", "--num-devices", "10", "--t-cp", "1.0",
        ])
    assert exc.value.code == 2


def test_plan_rejects_mixed_time_modes(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "plan", "--deadline", "100", "--rounds", "10", "--q1", "1",
            "--num-sets", "2", "--num-devices", "10",
            "--t-cp", "1.0", "--t-de", "0.2", "--t-ec", "1.0",
            "--bandwidth-hz", "1e6",
        ])
    assert exc.value.code == 2


NUMERIC_COMMANDS = {
    "plan": [
        "plan", "--deadline", "15600", "--rounds", "100", "--q1", "1",
        "--num-sets", "3", "--num-devices", "60",
        "--t-cp", "2.0", "--t-de", "0.2", "--t-ec", "1.8",
    ],
    "plan-link": [
        "plan", "--deadline", "15600", "--rounds", "100", "--q1", "1",
        "--num-sets", "3", "--num-devices", "60",
        "--bandwidth-hz", "1e6", "--power-w", "0.5", "--noise-w", "1e-10",
        "--channel-gain", "1e-8", "--cycles-per-bit", "20", "--cpu-hz", "1e9",
        "--bits-per-local-iter", "1e8", "--model-bits", "1e6",
    ],
    "bounds": [
        "bounds", "--L", "1", "--delta", "1", "--sigma2", "1", "--batch", "1",
        "--G2", "1", "--q1", "1", "--q2", "1", "--mu", "0.01",
        "--tau", "12", "--gamma", "3", "--rounds", "100",
        "--devices-per-set", "20,20,20",
    ],
}


@pytest.mark.parametrize("command,flag,value", [
    ("plan", "--q1", "nan"),
    ("plan", "--deadline", "inf"),
    ("plan-link", "--bandwidth-hz", "nan"),
    ("plan", "--t-cp", "nan"),
    ("bounds", "--G2", "nan"),
    ("bounds", "--gap0", "-inf"),
])
def test_non_finite_numbers_are_usage_errors(capsys, command, flag, value):
    # rejected by argparse before anything is computed or printed
    args = NUMERIC_COMMANDS[command]
    assert main(args) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        # a repeated option overrides the earlier one
        main(args + [f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: expected a finite number, got {value!r}" in captured.err


@pytest.mark.parametrize("command,overrides", [
    ("plan", ["--num-devices", "0"]),
    ("plan", ["--num-sets", "0"]),
    ("plan", ["--q1", "-5"]),
    ("plan", ["--num-sets", "70", "--num-devices", "60"]),
    ("plan-link", ["--num-sets", "70"]),
    ("plan", ["--rounds", "0"]),
    ("bounds", ["--rounds", "0"]),
    ("bounds", ["--q1", "-1"]),
])
def test_out_of_range_numbers_exit_1_with_one_error_line(capsys, command, overrides):
    # a repeated option overrides the earlier one
    assert main(NUMERIC_COMMANDS[command] + overrides) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command,flag,value,code", [
    ("plan-link", "--bandwidth-hz", "-1e6", 1),
    ("plan-link", "--bandwidth-hz", "-2.5E+3", 1),
    ("plan", "--t-cp", "-.5e-1", 1),
    ("plan", "--deadline", "-inf", 2),
    ("bounds", "--L", "-1e6", 1),
    ("bounds", "--L", "-1", 1),
    ("bounds", "--gap0", "-NaN", 2),
])
def test_negative_numbers_reach_the_same_check_in_both_option_forms(capsys, command, flag, value, code):
    # a repeated option overrides the earlier one
    args = NUMERIC_COMMANDS[command]
    separate = _outcome(capsys, args + [flag, value])
    joined = _outcome(capsys, args + [f"{flag}={value}"])
    assert separate == joined
    assert separate[0] == code and separate[1] == ""
    assert "expected one argument" not in separate[2]


def test_argparse_still_reads_its_negative_number_pattern():
    # the plan and bounds parsers replace this private argparse attribute to
    # read "-1e6" as a value; if argparse drops it, the replacement does nothing
    assert argparse.ArgumentParser()._negative_number_matcher.match("-1")


def test_bounds_prints_frozen_values(capsys):
    code = main([
        "bounds", "--L", "1", "--delta", "1", "--sigma2", "1", "--batch", "1",
        "--G2", "1", "--q1", "1", "--q2", "1", "--mu", "0.01",
        "--tau", "12", "--gamma", "3", "--rounds", "100",
        "--devices-per-set", "20,20,20",
    ])
    assert code == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert abs(float(pairs["qhetfed_c"]) - 0.85) < 1e-12
    assert abs(float(pairs["qhetfed_gap_bound"]) - 0.5003773770386936) < 1e-10
    assert abs(float(pairs["baseline_gap_bound"]) - 0.5004658333333333) < 1e-10
    assert abs(float(pairs["delta_total"]) - 0.1051111) < 1e-10
    assert pairs["baseline_cond"] == "False"
    # q1 = 1 sits below the switch point N/C - 1 = 19
    assert pairs["tau_preference"] == "prefer_high_tau"


def test_bounds_rejects_bad_device_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "bounds", "--L", "1", "--delta", "1", "--sigma2", "1", "--batch", "1",
            "--G2", "1", "--q1", "1", "--q2", "1", "--mu", "0.01",
            "--tau", "12", "--gamma", "3", "--rounds", "100",
            "--devices-per-set", "20,x",
        ])
    assert exc.value.code == 2


def test_quantizer_table_outputs_rows(capsys):
    code = main([
        "quantizer-table", "--levels", "1,4", "--dim", "16",
        "--trials", "2000", "--seed", "0",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "levels,variance_factor,theory_cap"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 4]
    # more levels means lower variance, and estimates respect the cap
    assert float(rows[1][1]) < float(rows[0][1])
    for r in rows:
        assert float(r[1]) <= float(r[2]) * 1.05


def test_missing_config_file_fails(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert "missing.json" in capsys.readouterr().err


def test_malformed_config_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"seed": 7,', encoding="utf-8")
    code = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("algorithms", [["qhetfed", "qhetfed"], []])
def test_run_rejects_duplicate_or_empty_algorithms(tmp_path, capsys, algorithms):
    cfg = write_config(tmp_path, dict(TINY, algorithms=algorithms))
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "algorithms" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "assignment",
    ["schedule.tau=2.7", "topology.devices_per_set=true", 'partition.scheme="bogus"',
     "schedule.rounds=0", "dataset.classes=1"],
)
def test_run_set_rejects_bad_nested_value(tmp_path, capsys, assignment):
    cfg = write_config(tmp_path, TINY)
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out"), "--set", assignment])
    assert code == 2
    assert assignment.split("=")[0].split(".")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "update, key",
    [
        ({"link": 5}, "link"),
        ({"link": {"bandwidth_hz": True}}, "link.bandwidth_hz"),
        ({"link": {"bandwidth_hz": 1e6}, "runtime": {"t_cp": 99}}, "runtime"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": None}, "output_dir"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else "",
)
def test_run_rejects_bad_config_shape(tmp_path, capsys, monkeypatch, update, key):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, dict(TINY, **update))
    code = main(["run", "--config", cfg])
    assert code == 2
    assert key in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "update, message",
    [
        ({"partition": {"scheme": "mixed", "size_min": 5, "size_max": 10}},
         "partition: the mixed scheme is defined for exactly 3 device sets"),
        ({"dataset": dict(TINY["dataset"], classes=2, per_class=1, test_fraction=0.9)},
         "dataset: test_fraction 0.9 leaves none of the 2 rows for training"),
        ({"dataset": dict(TINY["dataset"], classes=3, per_class=20, test_fraction=0.005)},
         "dataset: test_fraction 0.005 leaves none of the 60 rows for testing"),
        ({"dataset": dict(TINY["dataset"], classes=2, per_class=1, test_fraction=0.5),
          "partition": {"scheme": "mixed", "size_min": 5, "size_max": 10},
          "topology": {"num_sets": 3, "devices_per_set": 2}},
         "partition: scheme 'mixed' needs 2 classes per device but the dataset has only 1"),
    ],
    ids=["mixed-two-sets", "no-training-row", "no-test-row", "mixed-one-class"],
)
def test_data_the_config_rules_out_is_a_config_error(tmp_path, capsys, update, message):
    cfg = write_config(tmp_path, dict(TINY, **update))
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
