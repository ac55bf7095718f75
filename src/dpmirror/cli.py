"""Command-line entry point.

Subcommands: run (experiment grid), tau-sim (stopping-time Monte Carlo),
calibrate (accountant queries), audit (single-step DP audit).

Exit codes: 0 success, 2 configuration error, 3 regime violation,
4 statistically significant audit violation.
"""

import argparse
import json
import os
import secrets
import sys
from dataclasses import asdict

from .errors import ConfigurationError, RegimeError
from .harness import RUN_KEYS, build_spec, check_output_name, experiment_dir, json_value, \
    parse_kv_file, resolve_output_dir, run_and_write, run_tau_sim, write_audit_csv, write_json
from .privacy import MAX_GRID_CELLS, MIN_TRIALS_PER_CELL, audit_single_step, \
    calibrate_sigma, end_to_end, from_target

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_AUDIT = 4


def _resolve_seed(seed):
    # Reproducible mode needs --seed or a config file's seed line; otherwise
    # draw one from entropy and record it in every output. The seed is checked
    # before any work: by its run key, run_tau_sim or audit_single_step.
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed not given; drawn from entropy: {seed}", file=sys.stderr)
    return seed


def _cmd_run(args):
    overrides = parse_kv_file(args.config) if args.config else {}
    for key in RUN_KEYS:
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    overrides["seed"] = str(_resolve_seed(overrides.get("seed")))
    spec = build_spec(overrides)
    result = run_and_write(spec)
    outdir = os.path.join(spec.output_dir, spec.name)
    print(json.dumps({"output_dir": outdir, "cells": len(result.cells)}))
    return EXIT_OK


def _cmd_tau_sim(args):
    try:
        n_values = [int(v) for v in args.n.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--n: expected comma-separated integers, got {args.n!r}") from None
    seed = _resolve_seed(args.seed)
    stats = run_tau_sim(n_values, args.trials, seed, resolve_output_dir(args.output_dir),
                        name=args.name)
    print(json.dumps({"seed": seed, "results": [s.summary() for s in stats]}))
    return EXIT_OK


def _flags(dests):
    return ", ".join("--" + dest.replace("_", "-") for dest in dests)


def _cmd_calibrate(args):
    target_group = args.eps_bar is not None or args.delta_bar is not None
    if target_group == (args.eps is not None):
        raise ConfigurationError("provide either --eps (with --delta/--delta-prime) or "
                                 "--eps-bar/--delta-bar" + (", not both" if target_group else ""))
    # A flag the chosen mode does not read, or part of the --L/--D/--d
    # triple, is an error, not a silent no-op.
    unread = [f for f in ("delta", "delta_prime") if getattr(args, f) is not None]
    if target_group and unread:
        raise ConfigurationError(f"{_flags(unread)} not read with --eps-bar/--delta-bar")
    missing = [f for f in ("L", "D", "d") if getattr(args, f) is None]
    if missing and not (target_group and len(missing) == 3):
        raise ConfigurationError(f"missing {_flags(missing)}: --L, --D and --d go together"
                                 + ("" if target_group else ", and are required with --eps"))
    payload = {}
    if target_group:
        if args.eps_bar is None or args.delta_bar is None or args.n is None:
            raise ConfigurationError("--eps-bar, --delta-bar and --n are all required")
        budget = from_target(args.eps_bar, args.delta_bar, args.n)
        payload["internal"] = asdict(budget)
        eps, delta, delta_prime = budget.epsilon, budget.delta, budget.delta_prime
    else:
        if args.n is None or args.delta is None:
            raise ConfigurationError("--n and --delta are required with --eps")
        eps, delta = args.eps, args.delta
        delta_prime = args.delta_prime if args.delta_prime is not None else args.delta
    if not missing:
        plan = end_to_end(args.n, eps, delta, delta_prime, args.L, args.D, args.d)
        payload.update(asdict(plan))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_audit(args):
    check_output_name(args.name, "--name")
    seed = _resolve_seed(args.seed)
    sigma = (args.sigma if args.sigma is not None
             else calibrate_sigma(args.L, args.delta, args.eps_tilde))
    result = audit_single_step(sigma, args.L, args.eps_tilde, args.delta,
                               args.trials, grid_cells=args.grid, seed=seed)
    outdir = experiment_dir(resolve_output_dir(args.output_dir), args.name)
    write_audit_csv(result, os.path.join(outdir, "audit.csv"))
    # A worst cell at a lumped tail has an infinite edge, written as null.
    summary = {key: json_value(getattr(result, key)) for key in (
        "max_violation", "max_violation_stderr", "significant", "worst_lo", "worst_hi")}
    # What was audited: the noise, the shift between the two outputs, the
    # claim tested, and the draw.
    summary.update(sigma=sigma, sensitivity=args.L, eps_tilde=args.eps_tilde, delta=args.delta,
                   trials=args.trials, grid_cells=args.grid, seed=seed)
    write_json(summary, os.path.join(outdir, "audit_summary.json"))
    print(json.dumps(summary))
    return EXIT_AUDIT if result.significant else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpmirror",
        description="Differentially private SGD: experiments, accounting, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid")
    run.add_argument("--config", help="flat key=value config file")
    for key, spec in RUN_KEYS.items():
        default = "" if spec.default is None else f" (default: {spec.default})"
        run.add_argument("--" + key.replace("_", "-"), dest=key, help=spec.meaning + default)
    run.set_defaults(func=_cmd_run)

    tau = sub.add_parser("tau-sim", help="stopping-time Monte Carlo")
    tau.add_argument("--n", required=True, help="comma-separated dataset sizes")
    tau.add_argument("--trials", type=int, default=10_000)
    tau.add_argument("--seed", type=int)
    tau.add_argument("--name", default="tau-sim")
    tau.add_argument("--output-dir", dest="output_dir")
    tau.set_defaults(func=_cmd_tau_sim)

    cal = sub.add_parser("calibrate", help="accountant queries")
    cal.add_argument("--n", type=int)
    cal.add_argument("--eps", type=float)
    cal.add_argument("--delta", type=float)
    cal.add_argument("--delta-prime", dest="delta_prime", type=float)
    cal.add_argument("--L", type=float)
    cal.add_argument("--D", type=float)
    cal.add_argument("--d", type=int)
    cal.add_argument("--eps-bar", dest="eps_bar", type=float)
    cal.add_argument("--delta-bar", dest="delta_bar", type=float)
    cal.set_defaults(func=_cmd_calibrate)

    audit = sub.add_parser("audit", help="single-step DP audit")
    audit.add_argument("--sigma", type=float, help="noise scale (else calibrated)")
    audit.add_argument("--L", type=float, required=True)
    audit.add_argument("--eps-tilde", dest="eps_tilde", type=float, required=True)
    audit.add_argument("--delta", type=float, required=True)
    audit.add_argument("--trials", type=int, default=MIN_TRIALS_PER_CELL * MAX_GRID_CELLS)
    audit.add_argument("--grid", type=int, default=MAX_GRID_CELLS)
    audit.add_argument("--seed", type=int)
    audit.add_argument("--name", default="audit")
    audit.add_argument("--output-dir", dest="output_dir")
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
