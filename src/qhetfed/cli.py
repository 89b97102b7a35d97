"""Command-line interface.

Subcommands:

* ``run``: execute a config-driven experiment and write metric tables.
* ``plan``: closed-form deadline-constrained schedule optimization.
* ``bounds``: convergence-bound calculators for a given parameter point.
* ``quantizer-table``: empirical variance factor per quantization level.

Exit codes: 0 on full success, 1 on runtime failure (including any diverged
run), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from . import analysis, harness, planner
from .quantizer import QuantizerSpec, estimate_variance_factor
from .streams import stream


def _f(x: float) -> str:
    return repr(float(x))


# one plan option per planner.LinkComputeParams field; link mode requires those without a default
_LINK_FIELDS = dataclasses.fields(planner.LinkComputeParams)
_LINK_ARGS = tuple(f.name for f in _LINK_FIELDS if f.default is dataclasses.MISSING)


# argparse takes "-1e6" or "-inf" after an option for another option unless it
# matches its negative-number pattern.  The plan and bounds parsers widen that
# pattern to every float literal, so "--x -1e6" and "--x=-1e6" both reach ``_finite``.
_FLOAT_VALUE = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


def _finite(text: str) -> float:
    """argparse type for the plan and bounds numbers: NaN and infinity are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _set_override(user: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise harness.ConfigError(f"--set expects key.path=value, got {assignment!r}")
    path, raw_value = assignment.split("=", 1)
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    keys = path.split(".")
    node = user
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise harness.ConfigError(f"--set path {path!r} crosses a non-table key")
    node[keys[-1]] = value


def _cmd_run(args: argparse.Namespace) -> int:
    user: dict = {}
    if args.config:
        user = harness.read_config_file(args.config)
    for assignment in args.set or []:
        _set_override(user, assignment)
    if args.output_dir is not None:
        user["output_dir"] = args.output_dir
    if args.seed is not None:
        user["seed"] = args.seed
    if args.repeats is not None:
        user["repeats"] = args.repeats

    cfg = harness.parse_config(user)
    written = harness.run_experiment(cfg)
    for path in written:
        print(path)

    manifest_path = os.path.join(cfg.output_dir, "runs.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    diverged = [m["run_id"] for m in manifest if m["diverged_at"] is not None]
    if diverged:
        print(f"diverged runs: {', '.join(diverged)}", file=sys.stderr)
        return 1
    return 0


def _times_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> planner.PhaseTimes:
    direct = [args.t_cp, args.t_de, args.t_ec]
    link_given = args.bandwidth_hz is not None
    if link_given and any(v is not None for v in direct):
        parser.error("give either --t-cp/--t-de/--t-ec or the link parameters, not both")
    if link_given:
        missing = [name for name in _LINK_ARGS if getattr(args, name) is None]
        if missing:
            parser.error(f"link mode needs --{missing[0].replace('_', '-')}")
        lp = planner.LinkComputeParams(**{f.name: getattr(args, f.name) for f in _LINK_FIELDS})
        return planner.compute_times(lp)
    if any(v is None for v in direct):
        parser.error("need all of --t-cp, --t-de, --t-ec (or the link parameters)")
    return planner.PhaseTimes(args.t_cp, args.t_de, args.t_ec)


def _cmd_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    times = _times_from_args(args, parser)
    plan = planner.DeadlinePlan(deadline_s=args.deadline, rounds=args.rounds, times=times)
    choice = planner.optimize_schedule(plan, args.q1, args.num_sets, args.num_devices)
    print(f"t_cp: {_f(times.t_cp)}")
    print(f"t_de: {_f(times.t_de)}")
    print(f"t_ec: {_f(times.t_ec)}")
    print(f"max_feasible_tau: {_f(planner.max_feasible_tau(plan))}")
    print(f"a0: {_f(choice.a0)}")
    print(f"b0: {_f(choice.b0)}")
    print(f"c0: {_f(choice.c0)}")
    print(f"candidates: {' '.join(_f(c) for c in choice.candidates)}")
    print(f"tau_continuous: {_f(choice.tau)}")
    print(f"gamma_continuous: {_f(choice.gamma)}")
    print(f"j_continuous: {_f(choice.j_value)}")
    print(f"tau: {choice.tau_int}")
    print(f"gamma: {choice.gamma_int}")
    print(f"j_integer: {_f(choice.j_int)}")
    delay = planner.iteration_delay(choice.tau_int, choice.gamma_int, times)
    print(f"iteration_delay_s: {_f(delay)}")
    print(f"total_time_s: {_f(args.rounds * delay)}")
    print(f"deadline_s: {_f(args.deadline)}")
    return 0


def _cmd_bounds(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        devices = tuple(int(x) for x in args.devices_per_set.split(","))
    except ValueError:
        parser.error("--devices-per-set expects a comma-separated integer list")
    p = analysis.TheoryParams(
        L=args.L, delta=args.delta, sigma2=args.sigma2, batch=args.batch,
        G2=args.G2, q1=args.q1, q2=args.q2, mu=args.mu,
        tau=args.tau, gamma=args.gamma, T=args.rounds, devices_per_set=devices,
    )
    conds = analysis.check_lr_conditions(p)
    print(f"cond_a: {conds.cond_a}")
    print(f"cond_a_lhs: {_f(conds.lhs_a)}")
    print(f"cond_b: {conds.cond_b}")
    print(f"cond_b_lhs: {_f(conds.lhs_b)}")
    gb = analysis.qhetfed_gap_bound(p, args.gap0)
    print(f"qhetfed_c: {_f(gb.c)}")
    print(f"qhetfed_e: {_f(gb.e)}")
    print(f"qhetfed_contractive: {gb.contractive}")
    print(f"qhetfed_gap_bound: {_f(gb.bound)}")
    bb = analysis.baseline_gap_bound(p, args.gap0)
    print(f"baseline_cond: {bb.cond}")
    print(f"baseline_cond_lhs: {_f(bb.cond_lhs)}")
    print(f"baseline_c: {_f(bb.c_bar)}")
    print(f"baseline_e: {_f(bb.e_bar)}")
    print(f"baseline_contractive: {bb.contractive}")
    print(f"baseline_gap_bound: {_f(bb.bound)}")
    dec = analysis.error_gap_decomposition(p)
    print(f"delta_q1: {_f(dec.d_q1)}")
    print(f"delta_q2: {_f(dec.d_q2)}")
    print(f"delta_local: {_f(dec.d_local)}")
    print(f"delta_het: {_f(dec.d_het)}")
    print(f"delta_total: {_f(dec.delta_total)}")
    print(f"rate_bound: {_f(analysis.convergence_rate_bound(p, p.T, args.gap0))}")
    print(f"tau_preference: {analysis.tau_preference(p.q1, p.N, p.C)}")
    return 0


def _cmd_quantizer_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        parser.error("--levels expects a comma-separated integer list")
    if any(s < 1 for s in levels):
        parser.error("levels must be >= 1")
    print("levels,variance_factor,theory_cap")
    d = args.dim
    for s in levels:
        spec = QuantizerSpec(levels=s)
        rng = stream(args.seed, "quantizer-table", s)
        q_hat = estimate_variance_factor(spec, d, args.trials, rng)
        cap = min(d / s**2, d**0.5 / s)
        print(f"{s},{_f(q_hat)},{_f(cap)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhetfed",
        description="Hierarchical quantized federated learning: simulator, bounds, and scheduler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p_run.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config key, e.g. --set schedule.tau=6")
    p_run.add_argument("--output-dir")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--repeats", type=int)

    p_plan = sub.add_parser("plan", help="optimize (tau, gamma) under a deadline")
    p_plan.add_argument("--deadline", type=_finite, required=True, help="total time budget, seconds")
    p_plan.add_argument("--rounds", type=int, required=True, help="global iterations T")
    p_plan.add_argument("--q1", type=_finite, required=True, help="device quantizer variance factor")
    p_plan.add_argument("--num-sets", type=int, required=True)
    p_plan.add_argument("--num-devices", type=int, required=True)
    p_plan.add_argument("--t-cp", type=_finite, help="per-local-iteration compute time, seconds")
    p_plan.add_argument("--t-de", type=_finite, help="device-to-edge upload time, seconds")
    p_plan.add_argument("--t-ec", type=_finite, help="edge-to-cloud time, seconds")
    for f in _LINK_FIELDS:
        default = None if f.default is dataclasses.MISSING else f.default
        p_plan.add_argument(f"--{f.name.replace('_', '-')}", type=_finite, default=default)

    p_bounds = sub.add_parser("bounds", help="evaluate the convergence-bound calculators")
    p_bounds.add_argument("--L", type=_finite, required=True, help="smoothness constant")
    p_bounds.add_argument("--delta", type=_finite, required=True, help="PL constant")
    p_bounds.add_argument("--sigma2", type=_finite, required=True, help="gradient noise variance")
    p_bounds.add_argument("--batch", type=int, required=True)
    p_bounds.add_argument("--G2", type=_finite, required=True, help="heterogeneity bound")
    p_bounds.add_argument("--q1", type=_finite, required=True)
    p_bounds.add_argument("--q2", type=_finite, required=True)
    p_bounds.add_argument("--mu", type=_finite, required=True)
    p_bounds.add_argument("--tau", type=int, required=True)
    p_bounds.add_argument("--gamma", type=int, required=True)
    p_bounds.add_argument("--rounds", type=int, required=True)
    p_bounds.add_argument("--devices-per-set", required=True,
                          help="comma-separated device counts, e.g. 20,20,20")
    p_bounds.add_argument("--gap0", type=_finite, default=1.0)

    p_plan._negative_number_matcher = p_bounds._negative_number_matcher = _FLOAT_VALUE

    p_qt = sub.add_parser("quantizer-table", help="empirical variance factor per level count")
    p_qt.add_argument("--levels", default="1,2,4,8,16")
    p_qt.add_argument("--dim", type=int, default=64)
    p_qt.add_argument("--trials", type=int, default=4096)
    p_qt.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plan":
            return _cmd_plan(args, parser)
        if args.command == "bounds":
            return _cmd_bounds(args, parser)
        if args.command == "quantizer-table":
            return _cmd_quantizer_table(args, parser)
        parser.error(f"unknown command {args.command!r}")
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (planner.InfeasibleScheduleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
