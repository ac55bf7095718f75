"""Benchmark workloads: what each one runs, and how its outputs are checked.

A workload is a fixed list of `dpmirror` CLI commands, generated from the
workload seed, plus checks on the files those commands write. Everything
here is plain data and arithmetic: it imports nothing from dpmirror, so the
checks stay an oracle independent of the code under test.

Workloads:

  grid      `dpmirror run` on the acceptance grid (hinge loss, linear-margin
            data, l2 ball with D = 1, n in {100, 400, 1600}, epsilon = max),
            once at d = 2 and once at d = 10.
  grid-box  the same n-grid with squared loss on uniform-ball data over the
            box [-0.5, 0.5]^10: box clipping instead of radial projection, and
            a subgradient that is nonzero on every fresh step.
  verify    `tau-sim --n 16,64,256,1024`, then 20 audits at the calibrated
            sigma (seeds 0-19, the acceptance suite's seeds) and one at
            sigma/10, which must be flagged. Never calls the optimizer.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20260
OUTPUT_ROOT = ".perfbench"

# "full" is what the benchmark measures; "tiny" only exercises the code
# paths (self-test). Repeats are a quarter of the acceptance grid's 200 so
# that two passes of `grid` fit in one 25-second run even when the host runs
# at half speed, and a full set of comparison runs stays under an hour.
SIZES = {
    "full": {"repeats": 50, "eval_samples": 2000, "baseline_steps": 100_000,
             "tau_trials": 10_000, "audit_trials": 1_000_000,
             "calibrated_audits": 20},
    "tiny": {"repeats": 2, "eval_samples": 100, "baseline_steps": 10_000,
             "tau_trials": 1000, "audit_trials": 1_000_000,
             "calibrated_audits": 2},
}

WORKLOADS = ("grid", "grid-box", "verify")

N_VALUES = (100, 400, 1600)
TAU_N_VALUES = (16, 64, 256, 1024)
AUDIT_L, AUDIT_EPS_TILDE, AUDIT_DELTA = 1.0, 0.5, 1e-6
EXIT_OK, EXIT_AUDIT = 0, 4

# Mean stopping times must lie within this many standard errors of the
# exact partial coupon-collector mean.
TAU_STDERRS = 5.0
# A count of trials with tau > 2n is accepted if a count at least that
# large has probability above this under the exact tail of tau.
EXCEED_FALSE_ALARM = 1e-9


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    expected_exit: int
    kind: str          # "run", "tau-sim" or "audit"
    output: str        # output directory, relative to the checkout root


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    sizes: dict
    workdir: str
    configs: dict      # config path -> file text
    commands: tuple


def workdir_for(workload):
    """Fixed per-workload directory, so seeded outputs (which echo their own
    path) hash the same in every run, trace mode and commit."""
    return os.path.join(OUTPUT_ROOT, workload)


def _config_text(entries):
    return "".join(f"{k} = {v}\n" for k, v in entries)


def calibrated_sigma():
    """sigma = L*sqrt(3 ln(1/delta))/eps_tilde, the per-step calibration."""
    return AUDIT_L * math.sqrt(3.0 * math.log(1.0 / AUDIT_DELTA)) / AUDIT_EPS_TILDE


def make_plan(workload, seed, size_name="full"):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[size_name]
    workdir = workdir_for(workload)
    out = os.path.join(workdir, "out")
    configs, commands = {}, []

    if workload in ("grid", "grid-box"):
        common = [("n_values", ",".join(map(str, N_VALUES))),
                  ("epsilon_values", "max"), ("delta", "1e-6"),
                  ("delta_prime", "1e-6"), ("repeats", sizes["repeats"]),
                  ("eval_samples", sizes["eval_samples"]),
                  ("baseline_steps", sizes["baseline_steps"]),
                  ("feature_bound", "1.0"), ("output_dir", out)]
        if workload == "grid":
            variants = [(f"grid-d{d}", [("loss", "hinge"), ("generator", "linear_margin"),
                                        ("noise_rate", "0.1"), ("dimension", d),
                                        ("set", "l2_ball"), ("radius", "0.5")])
                        for d in (2, 10)]
        else:
            variants = [("box-d10", [("loss", "squared"), ("generator", "uniform_ball"),
                                     ("dimension", 10), ("set", "box"),
                                     ("lower", ",".join(["-0.5"] * 10)),
                                     ("upper", ",".join(["0.5"] * 10))])]
        for name, entries in variants:
            path = os.path.join(workdir, f"{name}.cfg")
            configs[path] = _config_text([("name", name)] + entries + common)
            commands.append(Command(name, ("run", "--config", path, "--seed", str(seed)),
                                    EXIT_OK, "run", os.path.join(out, name)))
    else:
        commands.append(Command(
            "tau-sim", ("tau-sim", "--n", ",".join(map(str, TAU_N_VALUES)),
                        "--trials", str(sizes["tau_trials"]), "--seed", str(seed),
                        "--name", "tau-sim", "--output-dir", out),
            EXIT_OK, "tau-sim", os.path.join(out, "tau-sim")))
        audit = ("audit", "--L", repr(AUDIT_L), "--eps-tilde", repr(AUDIT_EPS_TILDE),
                 "--delta", repr(AUDIT_DELTA), "--trials", str(sizes["audit_trials"]),
                 "--output-dir", out)
        for rep in range(sizes["calibrated_audits"]):
            name = f"audit-calibrated-{rep:02d}"
            commands.append(Command(name, audit + ("--seed", str(rep), "--name", name),
                                    EXIT_OK, "audit", os.path.join(out, name)))
        commands.append(Command(
            "audit-deflated",
            audit + ("--sigma", repr(calibrated_sigma() / 10.0), "--seed", str(seed),
                     "--name", "audit-deflated"),
            EXIT_AUDIT, "audit", os.path.join(out, "audit-deflated")))

    return Plan(workload, seed, sizes, workdir, configs, tuple(commands))


def write_configs(plan):
    os.makedirs(plan.workdir, exist_ok=True)
    for path, text in plan.configs.items():
        with open(path, "w") as fh:
            fh.write(text)


# ---- exact stopping-time moments (independent of dpmirror.sampler) --------

def tau_mean_var(n):
    """Mean and variance of the arrival step of the (n//2+1)-th distinct index.

    A sum of independent geometric waits with success probability (n-k)/n,
    k = 0..n//2.
    """
    p = (n - np.arange(n // 2 + 1)) / n
    return float((1.0 / p).sum()), float(((1.0 - p) / p ** 2).sum())


def tau_exceed_prob(n, steps):
    """P(tau > steps): fewer than n//2+1 distinct indices after `steps` draws."""
    k = np.arange(n + 1)
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for _ in range(steps):
        moved = dist * (n - k) / n
        dist = dist * k / n
        dist[1:] += moved[:-1]
    return float(dist[:n // 2 + 1].sum())


def exceed_limit(n, trials):
    """Largest count of tau > 2n trials that is not a significant excess."""
    lam = trials * tau_exceed_prob(n, 2 * n)
    count, term, tail = 0, math.exp(-lam), 1.0
    while True:
        tail -= term                     # tail = P(Poisson(lam) > count)
        if tail < EXCEED_FALSE_ALARM:
            return count
        count += 1
        term *= lam / count


# ---- output checks ---------------------------------------------------------

def _tau_check(n, mean_tau, count):
    mean, var = tau_mean_var(n)
    if not count:
        return False, f"n={n}: no completed runs"
    limit = TAU_STDERRS * math.sqrt(var / count)
    return (abs(mean_tau - mean) <= limit,
            f"n={n}: mean tau {mean_tau:.3f} vs exact {mean:.3f} +- {limit:.3f}")


def check_outputs(plan, exits):
    """Check the files a pass wrote. `exits` maps command label to exit code.

    Returns (checks, items): checks is a list of (name, ok, detail); items
    counts the work done (private runs and steps, Monte-Carlo trials).
    """
    checks = []
    items = {"runs": 0, "runs_overrun": 0, "steps": 0, "tau_trials": 0,
             "audit_trials": 0}
    for cmd in plan.commands:
        code = exits.get(cmd.label)
        checks.append((f"{cmd.label}.exit", code == cmd.expected_exit,
                       f"exit {code}, expected {cmd.expected_exit}"))
        if code != cmd.expected_exit:
            continue
        if cmd.kind == "run":
            with open(os.path.join(cmd.output, "summary.json")) as fh:
                summary = json.load(fh)
            repeats = summary["config"]["repeats"]
            for cell in summary["cells"]:
                n, overruns = cell["n"], cell["overrun_runs"]
                completed = repeats - overruns
                items["runs"] += repeats
                items["runs_overrun"] += overruns
                if completed:
                    items["steps"] += round(cell["mean_tau"] * completed)
                checks.append((f"{cmd.label}.n{n}.bound_satisfied",
                               cell["bound_satisfied"] is True,
                               f"excess {cell['mean_excess_risk']} vs bound "
                               f"{cell['bound_value']} + 3*{cell['stderr']}"))
                checks.append((f"{cmd.label}.n{n}.no_overrun", overruns == 0,
                               f"{overruns} overrun runs"))
                ok, detail = _tau_check(n, cell["mean_tau"], completed)
                checks.append((f"{cmd.label}.n{n}.mean_tau", ok, detail))
        elif cmd.kind == "tau-sim":
            with open(os.path.join(cmd.output, "tau_summary.json")) as fh:
                summary = json.load(fh)
            for res in summary["results"]:
                n, trials = res["n"], res["trials"]
                items["tau_trials"] += trials
                ok, detail = _tau_check(n, res["mean_tau"], trials)
                checks.append((f"{cmd.label}.n{n}.mean_tau", ok, detail))
                exceeded = round(res["frac_exceed_2n"] * trials)
                limit = exceed_limit(n, trials)
                checks.append((f"{cmd.label}.n{n}.exceed_2n", exceeded <= limit,
                               f"{exceeded} of {trials} trials had tau > 2n, "
                               f"limit {limit}"))
        else:
            items["audit_trials"] += plan.sizes["audit_trials"]
    return checks, items


def digests(plan):
    """sha256 of every file the commands wrote, keyed by path under out/."""
    out = os.path.join(plan.workdir, "out")
    result = {}
    for cmd in plan.commands:
        if not os.path.isdir(cmd.output):
            continue
        for name in sorted(os.listdir(cmd.output)):
            path = os.path.join(cmd.output, name)
            with open(path, "rb") as fh:
                result[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return result
