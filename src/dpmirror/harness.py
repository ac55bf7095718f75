"""Experiment orchestration: grids of private runs, bound checks, file outputs.

Config files are flat key=value text ('#' starts a comment); CLI flags
override file values. RUN_KEYS lists every key with its parser, default
and meaning; any other key is a configuration error, and so is a key
that READ_ONLY_UNDER ties to a set or generator the run does not use.
Per-cell CSV columns are CELL_COLUMNS, in CellResult's field order. Floats
are printed with 17 significant digits so rerunning with the same seed
reproduces files byte for byte.
"""

import json
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .geometry import BOX, L2_BALL, FeasibleSet
from .losses import (ABSOLUTE, HINGE, LINEAR_MARGIN, RISK_QUADRATURE_BOUND, SQUARED,
                     UNIFORM_BALL, LossOracle, PopulationSpec, draw_dataset,
                     lipschitz_certificate, population_risk)
# private_sgd and estimate_risk are not called here; perfbench/spans.py
# wraps them by these names.
from .optimizer import (RunConfig, baseline_minimizer, estimate_regret,  # noqa: F401
                        estimate_risk, private_sgd, private_sgd_batch)
from .privacy import end_to_end, epsilon_limit, step_size
from .sampler import derived_seeds, seeded_streams, simulate_tau

OUTPUT_DIR_ENV = "DPMIRROR_OUTPUT_DIR"
EXCESS_RISK_CONSTANT = 2.5


def _checked(convert, rule, ok):
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {value}")
        return value
    return parse


def _each(parse):
    return lambda text: tuple(parse(v.strip()) for v in text.split(","))


def _one_of(*choices):
    return _checked(str, " | ".join(choices), lambda v: v in choices)


_AT_LEAST_ONE = _checked(int, ">= 1", lambda v: v >= 1)
_PROBABILITY = _checked(float, "in (0, 1)", lambda v: 0.0 < v < 1.0)
_EPSILON = _checked(lambda text: text if text == "max" else float(text),
                    "max or finite and positive",
                    lambda v: v == "max" or (math.isfinite(v) and v > 0.0))


class RunKey(NamedTuple):
    parse: Callable
    default: str    # raw text as in a config file; None: no default
    meaning: str


# Every key `run` takes, as a config file line or as a --flag (underscores
# as dashes); a flag wins over the file.
RUN_KEYS = {
    "name": RunKey(str, "experiment", "experiment name (output subdirectory)"),
    "loss": RunKey(_one_of(HINGE, ABSOLUTE, SQUARED), HINGE,
                   "hinge | absolute | squared"),
    "generator": RunKey(_one_of(LINEAR_MARGIN, UNIFORM_BALL), LINEAR_MARGIN,
                        "linear_margin | uniform_ball"),
    "dimension": RunKey(_AT_LEAST_ONE, "2", "feature dimension d"),
    "feature_bound": RunKey(float, "1.0", "norm bound on generated features "
                            "(also L for hinge/absolute)"),
    "noise_rate": RunKey(float, "0.1", "label flip probability for linear_margin"),
    "w_true": RunKey(_each(float), None, "comma-separated floats for linear_margin "
                     "(default: first basis vector)"),
    "set": RunKey(_one_of(L2_BALL, BOX), L2_BALL, "l2_ball | box"),
    "radius": RunKey(float, "0.5", "ball radius, centred at 0"),
    "lower": RunKey(_each(float), None, "comma-separated lower box corner (box only)"),
    "upper": RunKey(_each(float), None, "comma-separated upper box corner (box only)"),
    "n_values": RunKey(_each(_checked(int, ">= 16", lambda v: v >= 16)), None,
                       "comma-separated dataset sizes, each >= 16 (required)"),
    "epsilon_values": RunKey(_each(_EPSILON), None,
                             "comma-separated floats, or max for 1/(2*sqrt(n)) "
                             "(required)"),
    "delta": RunKey(_PROBABILITY, "1e-6", "accountant delta"),
    "delta_prime": RunKey(_PROBABILITY, "1e-6", "accountant delta prime"),
    "repeats": RunKey(_AT_LEAST_ONE, "20", "runs per (n, epsilon) cell"),
    "eval_samples": RunKey(_AT_LEAST_ONE, "2000",
                           "not read: each run's risk is exact (accepted until "
                           "ROADMAP.md item 1 deletes it)"),
    "baseline_steps": RunKey(_checked(int, ">= 10000", lambda v: v >= 10_000), "100000",
                             "step cap for the reference minimizer"),
    "sigma_override": RunKey(_checked(float, "finite and >= 0",
                                      lambda v: math.isfinite(v) and v >= 0.0), None,
                             "noise scale replacing the calibrated one (0 = no noise)"),
    "seed": RunKey(_checked(int, ">= 0", lambda v: v >= 0), None,
                   "master seed (default: drawn from entropy)"),
    "output_dir": RunKey(str, None,
                         f"where <output_dir>/<name>/ is written "
                         f"(default: ${OUTPUT_DIR_ENV} or runs)"),
}

# Keys that only one set or generator reads: key -> (choosing key, choice).
# Giving one under another choice is a configuration error, not a no-op.
READ_ONLY_UNDER = {
    "radius": ("set", L2_BALL),
    "lower": ("set", BOX),
    "upper": ("set", BOX),
    "noise_rate": ("generator", LINEAR_MARGIN),
    "w_true": ("generator", LINEAR_MARGIN),
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


CELL_COLUMNS = tuple(f.name for f in fields(CellResult) if f.name != "degraded")


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


def _read_keys(overrides):
    """Each RUN_KEYS value parsed once from its text or default; None if neither."""
    unknown = sorted(set(overrides) - set(RUN_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config field(s): {', '.join(unknown)}")
    values = {}
    for key, (parse, default, _) in RUN_KEYS.items():
        text = overrides.get(key)
        text = default if text is None else text
        try:
            values[key] = None if text is None else parse(text)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for config field {key}: {exc}") from exc
    for key in sorted(set(overrides) & set(READ_ONLY_UNDER)):
        chooser, choice = READ_ONLY_UNDER[key]
        if values[chooser] != choice:
            raise ConfigurationError(
                f"config field {key} is not read with {chooser} = {values[chooser]} "
                f"(only with {chooser} = {choice})")
    return values


def _given(values, key):
    if values[key] is None:
        raise ConfigurationError(f"missing config field: {key}")
    return values[key]


def build_spec(overrides):
    """Assemble and validate an ExperimentSpec from string key-values."""
    kv = _read_keys(overrides)
    dimension = kv["dimension"]
    if kv["set"] == L2_BALL:
        feasible = FeasibleSet.l2_ball(kv["radius"], dimension=dimension)
    else:
        feasible = FeasibleSet.box(_given(kv, "lower"), _given(kv, "upper"))
        if feasible.dimension != dimension:
            raise ConfigurationError("config field lower/upper: wrong dimension")

    seed = _given(kv, "seed")
    w_true, noise_rate = None, 0.0
    if kv["generator"] == LINEAR_MARGIN:
        w_true, noise_rate = kv["w_true"], kv["noise_rate"]
        if w_true is None:
            w_true = np.zeros(dimension)
            w_true[0] = 1.0
    population = PopulationSpec(
        generator=kv["generator"], dimension=dimension,
        feature_bound=kv["feature_bound"], w_true=w_true, noise_rate=noise_rate)
    oracle = LossOracle(kv["loss"], lipschitz_certificate(
        kv["loss"], kv["feature_bound"], feasible))

    spec = ExperimentSpec(
        name=kv["name"],
        population=population,
        oracle=oracle,
        feasible_set=feasible,
        n_values=_given(kv, "n_values"),
        epsilon_values=_given(kv, "epsilon_values"),
        delta=kv["delta"],
        delta_prime=kv["delta_prime"],
        repeats=kv["repeats"],
        seed=seed,
        output_dir=(default_output_dir() if kv["output_dir"] is None
                    else kv["output_dir"]),
        baseline_steps=kv["baseline_steps"],
        sigma_override=kv["sigma_override"],
    )

    for n in spec.n_values:
        for value in spec.epsilon_values:
            if value != "max" and value > epsilon_limit(n):
                raise ConfigurationError(
                    f"config field epsilon_values: epsilon={value} exceeds "
                    f"1/(2*sqrt(n)) for n={n}")
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
        "baseline_steps": spec.baseline_steps,
        "seed": spec.seed,
        "output_dir": spec.output_dir,
    }
    if spec.population.w_true is not None:
        echo["w_true"] = [float(v) for v in spec.population.w_true]
    if spec.sigma_override is not None:
        echo["sigma_override"] = spec.sigma_override
    if spec.feasible_set.kind == BOX:
        echo["lower"] = spec.feasible_set.lower.tolist()
        echo["upper"] = spec.feasible_set.upper.tolist()
    return echo


def run_experiment(spec):
    """Execute every (n, epsilon) cell and aggregate per-cell statistics.

    The reference minimizer and its exact population risk (baseline_risk,
    from losses.population_risk) come first. Each cell runs its repeats in
    one private_sgd_batch call; repeat r of cell (n_idx, e_idx) draws its
    dataset from the SeedSequence of [seed, n_idx, e_idx, r, 0] and runs
    with the seed that generate_state(1, uint64) gives for [seed, n_idx,
    e_idx, r, 1], all seeded at once by sampler, so no result depends on
    execution order. A run's excess risk is its output's exact population
    risk minus baseline_risk, its regret is measured against the reference
    minimizer, and no evaluation data are drawn. A repeat that overruns its
    step cap is counted in overrun_runs and left out of the cell's means.
    stderr adds to the runs' standard error the reference minimizer's error
    bound and the largest quadrature bound of the finished runs' risks,
    RISK_QUADRATURE_BOUND * (1 + B*||w||)^2, so bound checks stay honest.

    Each cell is checked against bound_value = 2.5*D*(L + sigma*sqrt(d))/sqrt(n).
    end_to_end's risk_bound, 5LD/sqrt(n) + 20LD*sqrt(d*ln(1/delta))/(eps*n),
    exceeds it by exactly 2.5*L*D/sqrt(n) at the calibrated sigma. Choosing
    one is open (ROADMAP.md, item 3).
    """
    d = spec.population.dimension
    D = spec.feasible_set.diameter()
    L = spec.oracle.lipschitz_L
    w1 = spec.feasible_set.project(np.zeros(d))

    baseline = baseline_minimizer(spec.population, spec.oracle, spec.feasible_set,
                                  spec.baseline_steps)
    base_risk = population_risk(spec.population, spec.oracle, baseline.w)[0]

    cells = []
    for n_idx, n in enumerate(spec.n_values):
        for e_idx, eps_value in enumerate(spec.epsilon_values):
            eps = epsilon_limit(n) if eps_value == "max" else eps_value
            if spec.sigma_override is not None:
                sigma = spec.sigma_override
                eta = step_size(n, sigma, L, D, d)
                report_eps, report_delta = math.nan, math.nan
            else:
                plan = end_to_end(n, eps, spec.delta, spec.delta_prime, L, D, d)
                sigma, eta = plan.sigma, plan.eta
                report_eps = plan.report.epsilon
                report_delta = plan.report.delta_total

            features, labels = np.empty((spec.repeats, n, d)), np.empty((spec.repeats, n))
            repeats = np.arange(spec.repeats)
            data = seeded_streams(spec.seed, n_idx, e_idx, repeats, 0)
            for r in repeats:
                features[r], labels[r] = draw_dataset(spec.population, n, data.stream(r))
            seeds = derived_seeds(spec.seed, n_idx, e_idx, repeats, 1)
            config = RunConfig(n=n, eta=eta, sigma=sigma, feasible_set=spec.feasible_set,
                               oracle=spec.oracle, w1=w1)
            batch = private_sgd_batch(config, seeds, features, labels)
            all_regrets = estimate_regret(batch, (features, labels), baseline.w, config)
            finished = np.flatnonzero(~batch.overrun)
            overruns = spec.repeats - finished.size
            taus = batch.tau[finished].tolist()
            regrets = all_regrets[finished].tolist()
            outputs = batch.output[finished]
            excesses = [population_risk(spec.population, spec.oracle, w)[0] - base_risk
                        for w in outputs]
            completed = len(excesses)
            # population_risk's stated error bound at the output farthest from 0
            scale = 1.0 + spec.population.feature_bound * np.linalg.norm(outputs, axis=1)
            quadrature = RISK_QUADRATURE_BOUND * float(scale.max()) ** 2 if completed else 0.0
            mean_excess = float(np.mean(excesses)) if completed else math.nan
            run_stderr = (float(np.std(excesses, ddof=1) / math.sqrt(completed))
                          if completed > 1 else 0.0)
            stderr = run_stderr + baseline.error_bound + quadrature
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
        baseline_risk=base_risk,
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


def json_value(value):
    """A non-finite float as None (null), which strict JSON parsers accept."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_summary_json(result, path):
    """cells.csv's records as strict JSON: a NaN there is null here."""
    payload = {
        "config": result.spec_echo,
        "baseline": {"risk": result.baseline_risk, "error": result.baseline_error},
        "degraded": result.degraded,
        "cells": [
            {col: json_value(getattr(cell, col)) for col in CELL_COLUMNS}
            for cell in result.cells
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
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
    the per-n summaries land in tau_summary.json. Every n is simulated
    before anything is written, so a bad n leaves no files behind.
    """
    if trials < 1000:
        raise ConfigurationError(f"tau-sim: trials must be >= 1000, got {trials}")
    all_stats = [simulate_tau(n, trials, seed) for n in n_values]
    outdir = experiment_dir(output_dir, name)
    with open(os.path.join(outdir, "tau.csv"), "w") as fh:
        fh.write(f"# n_values={list(n_values)} trials={trials} seed={seed}\n")
        fh.write("n,trial,tau\n")
        for stats in all_stats:
            # Python ints from tolist() format faster than numpy scalars; a
            # join of the whole n would hold 10^4 line strings at once.
            for trial, tau in enumerate(stats.tau_samples.tolist()):
                fh.write(f"{stats.n},{trial},{tau}\n")
    with open(os.path.join(outdir, "tau_summary.json"), "w") as fh:
        json.dump({"seed": seed, "results": [s.summary() for s in all_stats]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return all_stats
