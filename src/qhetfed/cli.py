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
import json
import math
import os
import re
import sys

from . import analysis, harness, planner, timing
from .quantizer import QuantizerSpec, estimate_variance_factor
from .streams import stream


def _f(x: float) -> str:
    return repr(float(x))


def _print_rows(rows) -> None:
    """Print every ``(key, value)`` row as ``key: value``, a float value by ``_f``, in one call once all
    are computed, so a value the library rejects prints only its error."""
    print("\n".join(f"{key}: {_f(value) if isinstance(value, float) else value}" for key, value in rows))


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


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for ``--devices-per-set`` and ``--levels``: a comma-separated integer list."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a comma-separated integer list, got {text!r}") from None


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


def _read_config_file(path: str) -> dict:
    """Parse a JSON config file: malformed JSON, text that is not UTF-8 or a root that is not an
    object is a ``ConfigError``, a missing file an ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise harness.ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    # checked here, not only in parse_config, because the overrides write into the root first
    if not isinstance(user, dict):
        raise harness.ConfigError("config root must be a JSON object")
    return user


def _cmd_run(args: argparse.Namespace) -> int:
    user: dict = {}
    # an empty path, as from an unset shell variable, is a missing file, not "no file"
    if args.config is not None:
        user = _read_config_file(args.config)
    for assignment in args.set or []:
        _set_override(user, assignment)
    for key in ("output_dir", "seed", "repeats"):
        if getattr(args, key) is not None:
            user[key] = getattr(args, key)

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


def _times_from_args(args: argparse.Namespace) -> timing.PhaseTimes:
    direct = [args.t_cp, args.t_de, args.t_ec]
    # link mode is any link option given; LinkComputeParams fills in the rest's defaults
    link = {name: getattr(args, name) for name in timing.LINK_KEYS if getattr(args, name) is not None}
    # ``usage_error`` is plan's own parser's error, so each message follows plan's usage line
    if link and any(v is not None for v in direct):
        args.usage_error("give either --t-cp/--t-de/--t-ec or the link parameters, not both")
    if link:
        missing = [name for name, required in timing.LINK_KEYS.items() if required and name not in link]
        if missing:
            args.usage_error(f"link mode needs --{missing[0].replace('_', '-')}")
        return timing.compute_times(timing.LinkComputeParams(**link))
    if any(v is None for v in direct):
        args.usage_error("need all of --t-cp, --t-de, --t-ec (or the link parameters)")
    return timing.PhaseTimes(args.t_cp, args.t_de, args.t_ec)


def _cmd_plan(args: argparse.Namespace) -> int:
    times = _times_from_args(args)
    plan = planner.DeadlinePlan(deadline_s=args.deadline, rounds=args.rounds, times=times)
    choice = planner.optimize_schedule(plan, args.q1, args.num_sets, args.num_devices)
    delay = timing.iteration_delay(choice.tau_int + choice.gamma_int, choice.tau_int, times)
    _print_rows([
        ("t_cp", times.t_cp), ("t_de", times.t_de), ("t_ec", times.t_ec),
        ("max_feasible_tau", planner.max_feasible_tau(plan)),
        ("a0", choice.a0), ("b0", choice.b0), ("c0", choice.c0),
        ("candidates", " ".join(_f(c) for c in choice.candidates)),
        ("tau_continuous", choice.tau), ("gamma_continuous", choice.gamma), ("j_continuous", choice.j_value),
        ("tau", choice.tau_int), ("gamma", choice.gamma_int), ("j_integer", choice.j_int),
        ("iteration_delay_s", delay), ("total_time_s", args.rounds * delay), ("deadline_s", args.deadline),
    ])
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    p = analysis.TheoryParams(
        L=args.L, delta=args.delta, sigma2=args.sigma2, batch=args.batch,
        G2=args.G2, q1=args.q1, q2=args.q2, mu=args.mu,
        tau=args.tau, gamma=args.gamma, T=args.rounds, devices_per_set=args.devices_per_set,
    )
    conds = analysis.check_lr_conditions(p)
    base_ok, base_lhs = analysis.baseline_lr_condition(p)
    gb = analysis.qhetfed_gap_bound(p, args.gap0)
    bb = analysis.baseline_gap_bound(p, args.gap0)
    dec = analysis.error_gap_decomposition(p)
    _print_rows([
        ("cond_a", conds.cond_a), ("cond_a_lhs", conds.lhs_a),
        ("cond_b", conds.cond_b), ("cond_b_lhs", conds.lhs_b),
        ("qhetfed_c", gb.c), ("qhetfed_e", gb.e),
        ("qhetfed_contractive", gb.contractive), ("qhetfed_gap_bound", gb.bound),
        ("baseline_cond", base_ok), ("baseline_cond_lhs", base_lhs),
        ("baseline_c", bb.c), ("baseline_e", bb.e),
        ("baseline_contractive", bb.contractive), ("baseline_gap_bound", bb.bound),
        ("delta_q1", dec.d_q1), ("delta_q2", dec.d_q2), ("delta_local", dec.d_local),
        ("delta_het", dec.d_het), ("delta_total", dec.delta_total),
        ("rate_bound", analysis.convergence_rate_bound(p, args.gap0)),
        ("tau_preference", analysis.tau_preference(p.q1, p.N, p.C)),
    ])
    return 0


def _cmd_quantizer_table(args: argparse.Namespace) -> int:
    # as in _print_rows, every CSV line is computed before any prints
    lines = ["levels,variance_factor,theory_cap"]
    d = args.dim
    for s in args.levels:
        spec = QuantizerSpec(levels=s)
        rng = stream(args.seed, "quantizer-table", s)
        q_hat = estimate_variance_factor(spec, d, args.trials, rng)
        cap = min(d / s**2, d**0.5 / s)
        lines.append(f"{s},{_f(q_hat)},{_f(cap)}")
    print("\n".join(lines))
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
    p_run.set_defaults(handler=_cmd_run)

    p_plan = sub.add_parser("plan", help="optimize (tau, gamma) under a deadline")
    p_plan.add_argument("--deadline", type=_finite, required=True, help="total time budget, seconds")
    p_plan.add_argument("--rounds", type=int, required=True, help="global iterations T")
    p_plan.add_argument("--q1", type=_finite, required=True, help="device quantizer variance factor")
    p_plan.add_argument("--num-sets", type=int, required=True)
    p_plan.add_argument("--num-devices", type=int, required=True)
    p_plan.add_argument("--t-cp", type=_finite, help="per-local-iteration compute time, seconds")
    p_plan.add_argument("--t-de", type=_finite, help="device-to-edge upload time, seconds")
    p_plan.add_argument("--t-ec", type=_finite, help="edge-to-cloud time, seconds")
    # one option per timing.LinkComputeParams field
    for name in timing.LINK_KEYS:
        p_plan.add_argument(f"--{name.replace('_', '-')}", type=_finite)
    p_plan.set_defaults(handler=_cmd_plan, usage_error=p_plan.error)

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
    p_bounds.add_argument("--devices-per-set", type=_int_list, required=True,
                          help="comma-separated device counts, e.g. 20,20,20")
    p_bounds.add_argument("--gap0", type=_finite, default=1.0)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_plan._negative_number_matcher = p_bounds._negative_number_matcher = _FLOAT_VALUE

    p_qt = sub.add_parser("quantizer-table", help="empirical variance factor per level count")
    # argparse passes a string default through the type too
    p_qt.add_argument("--levels", type=_int_list, default="1,2,4,8,16")
    p_qt.add_argument("--dim", type=int, default=64)
    p_qt.add_argument("--trials", type=int, default=4096)
    p_qt.add_argument("--seed", type=int, default=0)
    p_qt.set_defaults(handler=_cmd_quantizer_table)

    return parser


def main(argv=None) -> int:
    # argparse requires a subcommand, and each sets its handler
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # a ValueError: a value the library rejects, planner.InfeasibleScheduleError included;
    # an ArithmeticError: a value outgrew a float on the way, as in c**T, L**2 or floor(inf);
    # a MemoryError: numpy could not allocate an array, as for quantizer-table --dim 10**17
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
