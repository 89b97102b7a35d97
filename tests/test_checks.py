import math
import os
import re

import numpy as np
import pytest

from qhetfed.analysis import (
    TheoryParams, baseline_gap_bound, convergence_rate_bound, qhetfed_gap_bound, tau_preference,
)
from qhetfed.checks import NON_NEGATIVE, POSITIVE, check_count, check_number, is_count
from qhetfed.datagen import DeviceShard, PartitionScheme, make_synthetic_dataset, partition, split_dataset
from qhetfed.federation import CENTRALIZED_SGD, FedRunConfig, Schedule, Topology, iterates
from qhetfed.harness import ConfigError, emit_metrics, resolved_config
from qhetfed.models import ModelSpec, finite_diff_gradient
from qhetfed.planner import DeadlinePlan, grid_search_schedule, optimize_schedule
from qhetfed.quantizer import QuantizerSpec, estimate_variance_factor
from qhetfed.streams import stream
from qhetfed.timing import LinkComputeParams, PhaseTimes

NOT_COUNTS = (2.5, 2.0, True, "2")
NOT_NUMBERS = (True, "1", math.nan, math.inf)

SCHEDULE = dict(tau=2, gamma=1, mu=0.1, rounds=3, batch=2)
TIMES = dict(t_cp=1.0, t_de=0.1, t_ec=1.0)
LINK = dict(bandwidth_hz=1e6, power_w=0.5, noise_w=1e-10, channel_gain=1e-8, cycles_per_bit=20.0,
            cpu_hz=1e9, bits_per_local_iter=1e8, model_bits=1e6, edge_cloud_ratio=10.0)
PLAN = DeadlinePlan(deadline_s=15600.0, rounds=100, times=PhaseTimes(2.0, 0.2, 1.8))
THEORY = TheoryParams(L=1.0, delta=1.0, sigma2=1.0, batch=1, G2=1.0, q1=1.0, q2=1.0,
                      mu=0.01, tau=2, gamma=2, T=10, devices_per_set=(2,))
LOGISTIC = ModelSpec("logistic", 2, 2)
SAMPLES = (np.zeros((4, 2)), np.array([0, 1, 0, 1]))
# a directory that cannot be made: a call that got past its checks would fail there with an OSError
NO_DIR = os.path.join(os.devnull, "out")


def _config(**fields):
    shards = [DeviceShard(0, 0, (np.ones((2, 1)), np.zeros(2, dtype=int)))]
    return FedRunConfig(Topology((1,)), Schedule(**SCHEDULE), ModelSpec("quadratic", 1), shards, **fields)


def _classifier_config(labels=(0, 1), feature=0.0, test=(np.zeros((1, 2)), np.array([1]))):
    shard = DeviceShard(0, 0, (np.array([[feature, 0.0], [0.0, 0.0]]), np.array(labels)))
    return FedRunConfig(Topology((1,)), Schedule(**SCHEDULE), LOGISTIC, [shard], test_samples=test)


def _oracle(steps):
    return iterates(_config(algorithm=CENTRALIZED_SGD), steps)


# entry -> (call with the value under test, the name its message gives that value)
COUNT_FIELDS = {
    "Topology.devices_per_set": (lambda v: Topology((3, v)), "devices_per_set"),
    "DeviceShard.set_index": (lambda v: DeviceShard(v, 0, SAMPLES), "set_index"),
    "DeviceShard.device_index": (lambda v: DeviceShard(0, v, SAMPLES), "device_index"),
    **{f"Schedule.{name}": ((lambda v, name=name: Schedule(**{**SCHEDULE, name: v})), name)
       for name in ("tau", "gamma", "rounds", "batch")},
    "iterates.steps_per_iteration": (_oracle, "steps_per_iteration"),
    "QuantizerSpec.levels": (lambda v: QuantizerSpec(levels=v), "levels"),
    "estimate_variance_factor.levels": (lambda v: estimate_variance_factor(v, 8, 64, stream(0, "v")), "levels"),
    "estimate_variance_factor.d": (lambda v: estimate_variance_factor(2, v, 64, stream(0, "v")), "d"),
    "estimate_variance_factor.trials": (lambda v: estimate_variance_factor(2, 8, v, stream(0, "v")), "trials"),
    "ModelSpec.input_dim": (lambda v: ModelSpec("logistic", v, 10), "input_dim"),
    "ModelSpec.num_classes": (lambda v: ModelSpec("logistic", 20, v), "num_classes"),
    "ModelSpec.hidden_width": (lambda v: ModelSpec("mlp", 20, 10, v), "hidden_width"),
    "PartitionScheme.size_range.min": (lambda v: PartitionScheme("iid", (v, 3)), "size_range"),
    "PartitionScheme.size_range.max": (lambda v: PartitionScheme("iid", (1, v)), "size_range"),
    "make_synthetic_dataset.num_classes": (lambda v: make_synthetic_dataset(v, 3, 2, stream(0, "d")), "num_classes"),
    "make_synthetic_dataset.per_class": (lambda v: make_synthetic_dataset(2, v, 2, stream(0, "d")), "per_class"),
    "make_synthetic_dataset.input_dim": (lambda v: make_synthetic_dataset(2, 3, v, stream(0, "d")), "input_dim"),
    "FedRunConfig.master_seed": (lambda v: _config(master_seed=v), "master_seed"),
    "DeadlinePlan.rounds": (lambda v: DeadlinePlan(15600.0, v, PhaseTimes(**TIMES)), "rounds"),
    "optimize_schedule.C": (lambda v: optimize_schedule(PLAN, 1.0, v, 60), "num_sets"),
    "optimize_schedule.N": (lambda v: optimize_schedule(PLAN, 1.0, 3, v), "num_devices"),
    "grid_search_schedule.C": (lambda v: grid_search_schedule(PLAN, 1.0, v, 60), "num_sets"),
    "grid_search_schedule.N": (lambda v: grid_search_schedule(PLAN, 1.0, 3, v), "num_devices"),
    "tau_preference.N": (lambda v: tau_preference(1.0, v, 3), "num_devices"),
    "tau_preference.C": (lambda v: tau_preference(1.0, 60, v), "num_sets"),
    "resolved_config.seed": (lambda v: resolved_config({"seed": v}), "seed"),
    "resolved_config.schedule.tau": (lambda v: resolved_config({"schedule": {"tau": v}}), "schedule.tau"),
    "resolved_config.topology.devices_per_set": (
        lambda v: resolved_config({"topology": {"num_sets": 2, "devices_per_set": [3, v]}}),
        "topology.devices_per_set"),
}

NUMBER_FIELDS = {
    "Schedule.mu": (lambda v: Schedule(**{**SCHEDULE, "mu": v}), "mu"),
    **{f"PhaseTimes.{name}": ((lambda v, name=name: PhaseTimes(**{**TIMES, name: v})), name) for name in TIMES},
    # each value is checked before the rule that edge_cloud_time and edge_cloud_ratio exclude each other
    **{f"LinkComputeParams.{name}": ((lambda v, name=name: LinkComputeParams(**{**LINK, name: v})), name)
       for name in LinkComputeParams._fields},
    "DeadlinePlan.deadline_s": (lambda v: DeadlinePlan(v, 100, PhaseTimes(**TIMES)), "deadline_s"),
    "optimize_schedule.q1": (lambda v: optimize_schedule(PLAN, v, 3, 60), "q1"),
    "grid_search_schedule.q1": (lambda v: grid_search_schedule(PLAN, v, 3, 60), "q1"),
    "tau_preference.q1": (lambda v: tau_preference(v, 60, 3), "q1"),
    **{f"{bound.__name__}.gap0": ((lambda v, bound=bound: bound(THEORY, v)), "gap0")
       for bound in (qhetfed_gap_bound, baseline_gap_bound, convergence_rate_bound)},
    "FedRunConfig.init_scale": (lambda v: _config(init_scale=v), "init_scale"),
    "split_dataset.test_fraction": (lambda v: split_dataset(SAMPLES, v, stream(0, "s")), "test_fraction"),
    "make_synthetic_dataset.separation": (
        lambda v: make_synthetic_dataset(2, 3, 2, stream(0, "d"), separation=v), "separation"),
    "make_synthetic_dataset.noise": (lambda v: make_synthetic_dataset(2, 3, 2, stream(0, "d"), noise=v), "noise"),
    "finite_diff_gradient.h": (lambda v: finite_diff_gradient(ModelSpec("quadratic", 2), np.zeros(2), SAMPLES, v), "h"),
    "resolved_config.schedule.mu": (lambda v: resolved_config({"schedule": {"mu": v}}), "schedule.mu"),
    "resolved_config.dataset.noise": (lambda v: resolved_config({"dataset": {"noise": v}}), "dataset.noise"),
    "resolved_config.link.power_w": (lambda v: resolved_config({"link": {**LINK, "power_w": v}}), "link.power_w"),
}

CASES = [pytest.param(entry, bad, id=f"{entry}={bad!r}") for entry in COUNT_FIELDS for bad in NOT_COUNTS]
CASES += [pytest.param(entry, bad, id=f"{entry}={bad!r}") for entry in NUMBER_FIELDS for bad in NOT_NUMBERS]


@pytest.mark.parametrize("entry,bad", CASES)
def test_every_count_and_number_is_checked_by_its_rule_and_never_cast(entry, bad):
    # TheoryParams has its own table in test_analysis
    if entry in COUNT_FIELDS:
        (call, field), wording = COUNT_FIELDS[entry], "an integer"
    else:
        (call, field), wording = NUMBER_FIELDS[entry], "a finite (positive |non-negative )?number"
    with pytest.raises(ValueError) as exc:
        call(bad)
    # the message names the field (or one entry of it) in the shared wording
    assert re.fullmatch(rf"{re.escape(field)}(\[\d\])? must be {wording}, got {re.escape(repr(bad))}", str(exc.value))


# values the tables above cannot state: a count's minimum or maximum, a False count or fraction,
# a pair of options that exclude each other, and the data a run trains and tests on
BOUNDARY_CASES = {
    "DeviceShard.set_index=-1": (lambda: DeviceShard(-1, 0, SAMPLES), "set_index must be >= 0"),
    "DeviceShard.device_index=False": (lambda: DeviceShard(0, False, SAMPLES),
                                       "device_index must be an integer, got False"),
    "DeviceShard.labels=[1.7, 0.2]": (lambda: DeviceShard(0, 0, (np.zeros((2, 2)), [1.7, 0.2])),
                                      "labels must be integers, got float64 labels"),
    "DeviceShard.labels=uint64 2**63": (
        lambda: DeviceShard(0, 0, (np.zeros((1, 2)), np.array([2**63], dtype=np.uint64))),
        "labels must be at most 9223372036854775807, got 9223372036854775808"),
    "split_dataset.labels=float": (lambda: split_dataset((np.zeros((4, 2)), np.zeros(4)), 0.5, stream(0, "s")),
                                   "labels must be integers, got float64 labels"),
    "partition.labels=float": (
        lambda: partition((np.zeros((4, 2)), np.zeros(4)), Topology((1,)), PartitionScheme(), stream(0, "p")),
        "labels must be integers, got float64 labels"),
    "FedRunConfig.shard_label=K": (lambda: _classifier_config(labels=(0, 2)),
                                   "shard (0, 0) labels must be in 0..1, got 2"),
    "FedRunConfig.shard_label=-1": (lambda: _classifier_config(labels=(-1, 1)),
                                    "shard (0, 0) labels must be in 0..1, got -1"),
    "FedRunConfig.shard_feature=nan": (lambda: _classifier_config(feature=math.nan),
                                       "shard (0, 0) features must be finite numbers, got nan"),
    "FedRunConfig.test_feature=nan": (lambda: _classifier_config(test=(np.full((1, 2), math.nan), np.array([1]))),
                                      "test_samples features must be finite numbers, got nan"),
    "FedRunConfig.test_label=K": (lambda: _classifier_config(test=(np.zeros((1, 2)), np.array([2]))),
                                  "test_samples labels must be in 0..1, got 2"),
    "FedRunConfig.test_label=float": (lambda: _classifier_config(test=(np.zeros((1, 2)), np.array([1.0]))),
                                      "test_samples labels must be integers, got float64 labels"),
    "DeviceShard.labels=2-D": (lambda: DeviceShard(0, 0, (np.zeros((2, 2)), np.zeros((2, 1), dtype=int))),
                               "samples must be one or more rows with one label each, got X of shape (2, 2) and 2 labels"),
    "FedRunConfig.shard_width=3": (
        lambda: FedRunConfig(Topology((1,)), Schedule(**SCHEDULE), ModelSpec("logistic", 4, 2),
                             [DeviceShard(0, 0, (np.zeros((2, 3)), np.array([0, 1])))]),
        "shard (0, 0) must be rows of width 4 with one label each, got X of shape (2, 3) and 2 labels"),
    "FedRunConfig.shard=(1, 0)": (
        lambda: FedRunConfig(Topology((1,)), Schedule(**SCHEDULE), LOGISTIC, [DeviceShard(1, 0, SAMPLES)]),
        "shard (1, 0) outside topology (1,)"),
    "FedRunConfig.initial_params=[nan]": (lambda: _config(initial_params=np.array([math.nan])),
                                          "initial_params must be finite numbers, got nan"),
    "FedRunConfig.initial_params=(dim, 2)": (lambda: _config(initial_params=np.zeros((1, 2))),
                                             "initial_params must be a vector of length 1, got shape (1, 2)"),
    "FedRunConfig.master_seed=-1": (lambda: _config(master_seed=-1), "master_seed must be >= 0"),
    "LinkComputeParams.edge_cloud_time+edge_cloud_ratio": (lambda: LinkComputeParams(**LINK, edge_cloud_time=2.0),
                                                           "give edge_cloud_time or edge_cloud_ratio, not both"),
    "QuantizerSpec.levels=2**53+1": (lambda: QuantizerSpec(levels=2**53 + 1),
                                     "levels must be at most 2**53, up to which a float holds every integer exactly"),
    "ModelSpec.hidden_width=7 (logistic)": (lambda: ModelSpec("logistic", 4, 3, 7),
                                            "hidden_width must be 0 for the logistic kind, got 7"),
    "split_dataset.test_fraction=False": (lambda: split_dataset(SAMPLES, False, stream(0, "s")),
                                          "test_fraction must be a finite number, got False"),
    "finite_diff_gradient.h=[1e-6, nan]": (
        lambda: finite_diff_gradient(ModelSpec("quadratic", 2), np.zeros(2), SAMPLES, [1e-6, math.nan]),
        f"h must be a finite positive number, got {np.float64(math.nan)!r}"),
    "emit_metrics.cadence=0": (lambda: emit_metrics([], NO_DIR, cadence=0), "cadence must be >= 1"),
    "emit_metrics.cadence=-1": (lambda: emit_metrics([], NO_DIR, cadence=-1), "cadence must be >= 1"),
    "emit_metrics.cadence=1.5": (lambda: emit_metrics([], NO_DIR, cadence=1.5), "cadence must be an integer, got 1.5"),
    "emit_metrics.cadence=True": (lambda: emit_metrics([], NO_DIR, cadence=True),
                                  "cadence must be an integer, got True"),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_boundary_values_are_checked_by_their_rule(case):
    call, message = BOUNDARY_CASES[case]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_the_count_rule():
    assert all(map(is_count, (0, -3, np.int64(2), np.uint8(1), 10**30)))
    assert not any(map(is_count, (True, np.True_, 2.0, np.float64(2.0), "2", None)))
    check_count(0, "seed", 0)
    check_count(-5, "width", None)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        check_count(-1, "seed", 0)


def test_the_number_rule():
    for value in (0, -1.5, np.float32(0.5), np.int64(3), 10**300, 1e308):
        check_number(value, "x")
    check_number(0.0, "x", NON_NEGATIVE)
    for value, sign in ((0.0, POSITIVE), (-1e-300, NON_NEGATIVE), (np.float64(-2.0), POSITIVE)):
        with pytest.raises(ValueError, match=f"^x must be a finite {sign} number, got "):
            check_number(value, "x", sign)
    # an int too large for a float is no number: it used to escape the config checks as an OverflowError
    for value in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="^x must be a finite number, got "):
            check_number(value, "x")
    with pytest.raises(ConfigError, match="^schedule.mu must be a finite number, got 1000"):
        resolved_config({"schedule": {"mu": 10**400}})
