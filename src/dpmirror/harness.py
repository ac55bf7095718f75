"""Experiment orchestration: grids of private runs, bound checks, file outputs.

Config files are flat key=value text ('#' starts a comment); CLI flags
override file values. Recognized keys mirror ExperimentSpec:

  name            experiment name (output subdirectory)
  loss            hinge | absolute | squared
  generator       linear_margin | uniform_ball
  dimension       feature dimension d
  feature_bound   norm bound on generated features (also L for hinge/absolute)
  noise_rate      label flip probability for linear_margin (default 0.1)
  w_true          comma-separated floats (default: first basis vector)
  set             l2_ball | box
  radius          ball radius (default 0.5, i.e. diameter 1)
  lower, upper    comma-separated box corners (box only)
  n_values        comma-separated dataset sizes
  epsilon_values  comma-separated floats, or 'max' for 1/(2*sqrt(n))
  delta, delta_prime   accountant deltas (default 1e-6 each)
  repeats         runs per (n, epsilon) cell
  eval_samples    Monte-Carlo draws per risk estimate (default 2000)
  baseline_steps  step cap for the reference minimizer (default 10^5)
  sigma_override  optional noise scale replacing the calibrated one (0 = no noise)
  seed            master seed
  output_dir      where <output_dir>/<name>/ is written

Per-cell CSV column order (fixed): n, epsilon, sigma, eta, mean_tau,
mean_regret, mean_excess_risk, stderr, bound_value, bound_satisfied,
report_epsilon, report_delta_total, overrun_runs. Floats are printed with
17 significant digits so rerunning with the same seed reproduces files
byte for byte.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import FeasibleSet
from .losses import (ABSOLUTE, HINGE, LINEAR_MARGIN, SQUARED, UNIFORM_BALL,
                     LossOracle, PopulationSpec, draw_dataset)
# private_sgd is not called here; perfbench/spans.py wraps it by this name.
from .optimizer import (RunConfig, baseline_minimizer, estimate_regret,  # noqa: F401
                        estimate_risk, private_sgd, private_sgd_batch)
from .privacy import end_to_end
from .sampler import simulate_tau

OUTPUT_DIR_ENV = "DPMIRROR_OUTPUT_DIR"
EXCESS_RISK_CONSTANT = 2.5

CELL_COLUMNS = ("n", "epsilon", "sigma", "eta", "mean_tau", "mean_regret",
                "mean_excess_risk", "stderr", "bound_value", "bound_satisfied",
                "report_epsilon", "report_delta_total", "overrun_runs")

_DEFAULTS = {
    "name": "experiment",
    "loss": HINGE,
    "generator": LINEAR_MARGIN,
    "dimension": "2",
    "feature_bound": "1.0",
    "noise_rate": "0.1",
    "set": "l2_ball",
    "radius": "0.5",
    "delta": "1e-6",
    "delta_prime": "1e-6",
    "repeats": "20",
    "eval_samples": "2000",
    "baseline_steps": "100000",
}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    population: PopulationSpec
    oracle: LossOracle
    feasible_set: FeasibleSet
    n_values: tuple
    epsilon_values: tuple   # floats or the string 'max'
    delta: float
    delta_prime: float
    repeats: int
    seed: int
    output_dir: str
    eval_samples: int
    baseline_steps: int
    sigma_override: float   # None: the calibrated sigma


@dataclass
class CellResult:
    n: int
    epsilon: float
    sigma: float
    eta: float
    mean_tau: float
    mean_regret: float
    mean_excess_risk: float
    stderr: float
    bound_value: float
    bound_satisfied: bool
    report_epsilon: float
    report_delta_total: float
    overrun_runs: int
    degraded: bool


@dataclass
class ExperimentResult:
    spec_echo: dict
    cells: list
    baseline_error: float
    baseline_risk: float
    degraded: bool = False


def default_output_dir():
    return os.environ.get(OUTPUT_DIR_ENV, "runs")


def parse_kv_file(path):
    """Read a flat key = value config file into a string dict."""
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _require(mapping, key, cast):
    if key not in mapping:
        raise ConfigurationError(f"missing config field: {key}")
    try:
        return cast(mapping[key])
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad value for config field {key}: {exc}") from exc


def epsilon_for(n, value):
    """Resolve an epsilon entry; 'max' means the regime boundary 1/(2*sqrt(n))."""
    if value == "max":
        return 1.0 / (2.0 * math.sqrt(n))
    return float(value)


def build_spec(overrides):
    """Assemble and validate an ExperimentSpec from string key-values."""
    kv = dict(_DEFAULTS)
    kv.update({k: v for k, v in overrides.items() if v is not None})

    name = kv["name"]
    dimension = _require(kv, "dimension", int)
    if dimension < 1:
        raise ConfigurationError(
            f"bad value for config field dimension: must be >= 1, got {dimension}")
    feature_bound = _require(kv, "feature_bound", float)
    loss = kv["loss"]
    if loss not in (HINGE, ABSOLUTE, SQUARED):
        raise ConfigurationError(f"bad value for config field loss: {loss!r}")

    set_kind = kv["set"]
    if set_kind == "l2_ball":
        feasible = FeasibleSet.l2_ball(_require(kv, "radius", float),
                                       dimension=dimension)
    elif set_kind == "box":
        lower = _require(kv, "lower", _floats)
        upper = _require(kv, "upper", _floats)
        feasible = FeasibleSet.box(lower, upper)
        if feasible.dimension != dimension:
            raise ConfigurationError("config field lower/upper: wrong dimension")
    else:
        raise ConfigurationError(f"bad value for config field set: {set_kind!r}")

    generator = kv["generator"]
    if generator == LINEAR_MARGIN:
        if "w_true" in kv:
            w_true = np.array(_floats(kv["w_true"]))
        else:
            w_true = np.zeros(dimension)
            w_true[0] = 1.0
    elif generator == UNIFORM_BALL:
        w_true = None
    else:
        raise ConfigurationError(f"bad value for config field generator: {generator!r}")

    seed = _require(kv, "seed", int)
    population = PopulationSpec(
        generator=generator, dimension=dimension, feature_bound=feature_bound,
        w_true=w_true,
        noise_rate=_require(kv, "noise_rate", float) if generator == LINEAR_MARGIN else 0.0,
    )

    if loss == SQUARED:
        oracle = LossOracle.squared(feature_bound, feasible)
    elif loss == ABSOLUTE:
        oracle = LossOracle.absolute(feature_bound)
    else:
        oracle = LossOracle.hinge(feature_bound)

    n_values = _require(kv, "n_values", lambda t: tuple(int(v) for v in t.split(",")))
    eps_raw = _require(kv, "epsilon_values", str)
    epsilon_values = tuple(v.strip() if v.strip() == "max" else float(v)
                           for v in eps_raw.split(","))

    repeats = _require(kv, "repeats", int)
    if repeats < 1:
        raise ConfigurationError("bad value for config field repeats: must be >= 1")

    spec = ExperimentSpec(
        name=name,
        population=population,
        oracle=oracle,
        feasible_set=feasible,
        n_values=n_values,
        epsilon_values=epsilon_values,
        delta=_require(kv, "delta", float),
        delta_prime=_require(kv, "delta_prime", float),
        repeats=repeats,
        seed=seed,
        output_dir=kv.get("output_dir", default_output_dir()),
        eval_samples=_require(kv, "eval_samples", int),
        baseline_steps=_require(kv, "baseline_steps", int),
        sigma_override=(_require(kv, "sigma_override", float)
                        if "sigma_override" in kv else None),
    )

    for n in spec.n_values:
        if n < 16:
            raise ConfigurationError(f"config field n_values: n={n} below minimum 16")
        for value in spec.epsilon_values:
            if value != "max" and value > 1.0 / (2.0 * math.sqrt(n)):
                raise ConfigurationError(
                    f"config field epsilon_values: epsilon={value} exceeds "
                    f"1/(2*sqrt(n)) for n={n}"
                )
    return spec


def spec_echo(spec):
    """Fully resolved configuration for embedding in output files."""
    echo = {
        "name": spec.name,
        "loss": spec.oracle.kind,
        "lipschitz_L": spec.oracle.lipschitz_L,
        "generator": spec.population.generator,
        "dimension": spec.population.dimension,
        "feature_bound": spec.population.feature_bound,
        "noise_rate": spec.population.noise_rate,
        "set": spec.feasible_set.kind,
        "diameter": spec.feasible_set.diameter(),
        "n_values": list(spec.n_values),
        "epsilon_values": [v if v == "max" else float(v) for v in spec.epsilon_values],
        "delta": spec.delta,
        "delta_prime": spec.delta_prime,
        "repeats": spec.repeats,
        "eval_samples": spec.eval_samples,
        "baseline_steps": spec.baseline_steps,
        "seed": spec.seed,
        "output_dir": spec.output_dir,
    }
    if spec.population.w_true is not None:
        echo["w_true"] = [float(v) for v in spec.population.w_true]
    if spec.sigma_override is not None:
        echo["sigma_override"] = spec.sigma_override
    return echo


def _run_seed(master, *context):
    ss = np.random.SeedSequence(entropy=[master, *context])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_experiment(spec):
    """Execute every (n, epsilon) cell and aggregate per-cell statistics.

    Per repeat: draw a fresh dataset, run the private optimizer, estimate
    the output's risk, and measure regret against the reference minimizer.
    The repeats of a cell run together in one private_sgd_batch call; each
    uses seeds derived from (seed, cell, repeat), so results do not depend
    on execution order. A repeat that overruns its step cap is counted in
    overrun_runs and left out of the cell's means. Reported stderr adds the
    reference minimizer's own error bound so bound checks stay honest.
    """
    d = spec.population.dimension
    D = spec.feasible_set.diameter()
    L = spec.oracle.lipschitz_L
    w1 = spec.feasible_set.project(np.zeros(d))

    baseline = baseline_minimizer(spec.population, spec.oracle, spec.feasible_set,
                                  spec.baseline_steps, seed=spec.seed)
    base_risk = estimate_risk(
        baseline.w, spec.population, spec.oracle,
        max(spec.eval_samples * 10, 100_000),
        rng=np.random.default_rng(np.random.SeedSequence(entropy=[spec.seed, 0xBA5E])),
    )

    cells = []
    for n_idx, n in enumerate(spec.n_values):
        for e_idx, eps_value in enumerate(spec.epsilon_values):
            eps = epsilon_for(n, eps_value)
            if spec.sigma_override is not None:
                sigma = spec.sigma_override
                eta = D / (math.sqrt(n) * (L + sigma * math.sqrt(d)))
                report_eps, report_delta = math.nan, math.nan
            else:
                plan = end_to_end(n, eps, spec.delta, spec.delta_prime, L, D, d)
                sigma, eta = plan.sigma, plan.eta
                report_eps = plan.report.epsilon
                report_delta = plan.report.delta_total

            features = np.empty((spec.repeats, n, d))
            labels = np.empty((spec.repeats, n))
            for r in range(spec.repeats):
                data_rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=[spec.seed, n_idx, e_idx, r, 0]))
                features[r], labels[r] = draw_dataset(spec.population, n, data_rng)
            seeds = [_run_seed(spec.seed, n_idx, e_idx, r, 1)
                     for r in range(spec.repeats)]
            config = RunConfig(n=n, eta=eta, sigma=sigma, feasible_set=spec.feasible_set,
                               oracle=spec.oracle, w1=w1)
            batch = private_sgd_batch(config, seeds, features, labels)
            all_regrets = estimate_regret(batch, (features, labels), baseline.w, config)
            finished = np.flatnonzero(~batch.overrun)
            overruns = spec.repeats - finished.size
            taus = batch.tau[finished].tolist()
            regrets = all_regrets[finished].tolist()
            excesses = []
            for r in finished.tolist():
                risk = estimate_risk(
                    batch.output[r], spec.population, spec.oracle, spec.eval_samples,
                    rng=np.random.default_rng(
                        np.random.SeedSequence(entropy=[spec.seed, n_idx, e_idx, r, 2])))
                excesses.append(risk.mean - base_risk.mean)

            completed = len(excesses)
            mean_excess = float(np.mean(excesses)) if completed else math.nan
            run_stderr = (float(np.std(excesses, ddof=1) / math.sqrt(completed))
                          if completed > 1 else 0.0)
            stderr = run_stderr + baseline.error_bound + base_risk.stderr
            bound_value = EXCESS_RISK_CONSTANT * D * (L + sigma * math.sqrt(d)) / math.sqrt(n)
            cells.append(CellResult(
                n=n, epsilon=eps, sigma=sigma, eta=eta,
                mean_tau=float(np.mean(taus)) if taus else math.nan,
                mean_regret=float(np.mean(regrets)) if regrets else math.nan,
                mean_excess_risk=mean_excess,
                stderr=stderr,
                bound_value=bound_value,
                bound_satisfied=bool(completed and
                                     mean_excess <= bound_value + 3.0 * stderr),
                report_epsilon=report_eps,
                report_delta_total=report_delta,
                overrun_runs=overruns,
                degraded=overruns > 0.01 * spec.repeats,
            ))

    return ExperimentResult(
        spec_echo=spec_echo(spec),
        cells=cells,
        baseline_error=baseline.error_bound,
        baseline_risk=base_risk.mean,
        degraded=any(c.degraded for c in cells),
    )


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _echo_lines(echo):
    return [f"# {k}={json.dumps(echo[k])}" for k in sorted(echo)]


def write_cells_csv(result, path):
    with open(path, "w") as fh:
        for line in _echo_lines(result.spec_echo):
            fh.write(line + "\n")
        fh.write(f"# baseline_risk={_fmt(result.baseline_risk)}"
                 f" baseline_error={_fmt(result.baseline_error)}\n")
        fh.write(",".join(CELL_COLUMNS) + "\n")
        for cell in result.cells:
            fh.write(",".join(_fmt(getattr(cell, col)) for col in CELL_COLUMNS) + "\n")


def write_summary_json(result, path):
    payload = {
        "config": result.spec_echo,
        "baseline": {"risk": result.baseline_risk, "error": result.baseline_error},
        "degraded": result.degraded,
        "cells": [
            {col: getattr(cell, col) for col in CELL_COLUMNS} for cell in result.cells
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def experiment_dir(output_dir, name):
    path = os.path.join(output_dir, name)
    os.makedirs(path, exist_ok=True)
    return path


def run_and_write(spec):
    """run_experiment plus the cells.csv / summary.json pair."""
    result = run_experiment(spec)
    outdir = experiment_dir(spec.output_dir, spec.name)
    write_cells_csv(result, os.path.join(outdir, "cells.csv"))
    write_summary_json(result, os.path.join(outdir, "summary.json"))
    return result


def run_tau_sim(n_values, trials, seed, output_dir, name="tau-sim"):
    """Stopping-time Monte Carlo for several n; writes tau.csv and summaries.

    tau.csv gets an extra leading n column so several sizes share one file;
    the per-n summaries land in tau_summary.json.
    """
    if trials < 1000:
        raise ConfigurationError(f"tau-sim: trials must be >= 1000, got {trials}")
    outdir = experiment_dir(output_dir, name)
    all_stats = []
    with open(os.path.join(outdir, "tau.csv"), "w") as fh:
        fh.write(f"# n_values={list(n_values)} trials={trials} seed={seed}\n")
        fh.write("n,trial,tau\n")
        for n in n_values:
            stats = simulate_tau(n, trials, seed)
            all_stats.append(stats)
            for trial, tau in enumerate(stats.tau_samples):
                fh.write(f"{n},{trial},{int(tau)}\n")
    with open(os.path.join(outdir, "tau_summary.json"), "w") as fh:
        json.dump({"seed": seed, "results": [s.summary() for s in all_stats]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return all_stats
