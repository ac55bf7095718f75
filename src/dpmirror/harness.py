"""Experiment orchestration: grids of private runs, bound checks, all file I/O.

Config files are flat key=value text ('#' starts a comment); CLI flags
override file values. RUN_KEYS lists every key with its converter, its
checker from errors.py, its default and its meaning; any other key is a
configuration error, and so is a key that READ_ONLY_UNDER ties to a set
or generator the run does not use.
Per-cell CSV columns are CELL_COLUMNS; floats get 17 significant digits,
so a rerun with the same seed reproduces files byte for byte.
"""

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, check_count, check_probability, check_real
from .geometry import BOX, L2_BALL, FeasibleSet, dot
from .losses import (HINGE, LINEAR_MARGIN, LOSS_KINDS, RISK_QUADRATURE_BOUND, LossOracle,
                     PopulationSpec, draw_dataset, lipschitz_certificate, population_risk)
# private_sgd and estimate_risk are not called here; perfbench/spans.py
# wraps them by these names.
from .optimizer import (MIN_BASELINE_STEPS, RunConfig, baseline_minimizer,  # noqa: F401
                        check_rows, draw_fresh_steps, estimate_regret, estimate_risk,
                        private_sgd, run_steps)
from .privacy import MIN_RECORDS, end_to_end, epsilon_limit, risk_bound, step_size
from .sampler import INDEXED_STREAMS, derived_seeds, seeded_streams, simulate_tau

OUTPUT_DIR_ENV = "DPMIRROR_OUTPUT_DIR"


def _listed(convert):
    """A comma list's converter: convert applied to each entry, as a tuple."""
    return lambda text: tuple(convert(v.strip()) for v in text.split(","))


def _each(check):
    """A comma list's checker: check applied to each entry under the key's name."""
    return lambda values, name: tuple(check(v, name) for v in values)


def check_output_name(value, name):
    """value as one directory entry of the output dir: a string that is not
    empty, . or .., and holds no path separator, so that experiment_dir
    stays inside <output_dir>."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or any(sep and sep in value for sep in (os.sep, os.altsep))):
        raise ConfigurationError(f"{name} must name one directory inside the output "
                                 f"directory, got {value!r}")
    return value


def experiment_dir(output_dir, name):
    """<output_dir>/<name>/, made if missing; name is check_output_name's."""
    path = os.path.join(output_dir, name)
    os.makedirs(path, exist_ok=True)
    return path


class RunKey(NamedTuple):
    convert: Callable   # the key's text to its value
    check: Callable     # an errors.py checker of (value, name); None: none here
    default: str        # raw text as in a config file; None: no default
    meaning: str


# Every key `run` takes, as a config file line or as a --flag (underscores
# as dashes); a flag wins over the file. A loss, generator or set kind, and
# a key with no check here, are checked by the object built from it.
RUN_KEYS = {
    "name": RunKey(str, check_output_name, "experiment", "experiment name (output subdirectory)"),
    "loss": RunKey(str, None, HINGE, " | ".join(LOSS_KINDS)),
    "generator": RunKey(str, None, LINEAR_MARGIN, "linear_margin | uniform_ball"),
    "dimension": RunKey(int, check_count, "2", "feature dimension d"),
    "feature_bound": RunKey(float, None, "1.0", "norm bound on generated features "
                            "(also L for hinge/absolute)"),
    "noise_rate": RunKey(float, None, "0.1", "label flip probability for linear_margin"),
    "w_true": RunKey(_listed(float), None, None, "comma-separated floats for linear_margin "
                     "(default: first basis vector)"),
    "set": RunKey(str, None, L2_BALL, "l2_ball | box"),
    "radius": RunKey(float, None, "0.5", "ball radius, centred at 0"),
    "lower": RunKey(_listed(float), None, None, "comma-separated lower box corner (box only)"),
    "upper": RunKey(_listed(float), None, None, "comma-separated upper box corner (box only)"),
    "n_values": RunKey(_listed(int), _each(partial(check_count, low=MIN_RECORDS)), None,
                       f"comma-separated dataset sizes, each in [{MIN_RECORDS}, 2**53] "
                       "(required)"),
    "epsilon_values": RunKey(_listed(lambda text: text if text == "max" else float(text)),
                             _each(lambda v, name: v if v == "max" else check_real(v, name)),
                             None, "comma-separated floats, or max for 1/(2*sqrt(n)) "
                             "(required)"),
    "delta": RunKey(float, check_probability, "1e-6", "accountant delta"),
    "delta_prime": RunKey(float, check_probability, "1e-6", "accountant delta prime"),
    "repeats": RunKey(int, partial(check_count, high=INDEXED_STREAMS), "20",
                      "runs per (n, epsilon) cell, at most 2**32"),
    "eval_samples": RunKey(int, check_count, "2000",
                           "not read: each run's risk is exact (accepted until "
                           "ROADMAP.md item 1 deletes it)"),
    "baseline_steps": RunKey(int, partial(check_count, low=MIN_BASELINE_STEPS), "100000",
                             "step budget of the reference minimizer"),
    "sigma_override": RunKey(float, partial(check_real, zero=True), None,
                             "noise scale replacing the calibrated one (0 = no noise)"),
    "seed": RunKey(int, partial(check_count, low=0, high=None), None,
                   "master seed (default: drawn from entropy)"),
    "output_dir": RunKey(str, None, None,
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


class CellPlan(NamedTuple):
    """A cell's accountant output. config, the RunConfig the engine runs, is the
    one holder of its n, sigma and eta; the report is NaN under sigma_override."""

    epsilon: float
    config: RunConfig
    bound_value: float
    report_epsilon: float
    report_delta_total: float


@dataclass
class CellResult:
    plan: CellPlan
    mean_tau: float
    mean_regret: float
    mean_excess_risk: float
    stderr: float
    bound_satisfied: bool

    def columns(self):
        """The cell's CELL_COLUMNS values; n, sigma and eta are its RunConfig's."""
        # overrun_runs is always 0 (a run has no step cap); the column stays
        # while perfbench/workloads.py reads it (ROADMAP.md, item 1 B1).
        values = {**vars(self.plan.config), **self.plan._asdict(), **vars(self),
                  "overrun_runs": 0}
        return [values[col] for col in CELL_COLUMNS]


CELL_COLUMNS = ("n", "epsilon", "sigma", "eta", "mean_tau", "mean_regret",
                "mean_excess_risk", "stderr", "bound_value", "bound_satisfied",
                "report_epsilon", "report_delta_total", "overrun_runs")


@dataclass
class ExperimentResult:
    spec_echo: dict
    cells: list
    baseline_error: float
    baseline_risk: float


def resolve_output_dir(given):
    """Where a command writes its <name>/ directory: given, or if it is None or
    empty, $DPMIRROR_OUTPUT_DIR, or runs if that is unset."""
    return given or os.environ.get(OUTPUT_DIR_ENV, "runs")


def parse_kv_file(path):
    """Read a flat key = value config file into a string dict; a key given
    on two lines is refused, not overwritten by the later one."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read config file: {exc}") from exc
    values, key_lines = {}, {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in key_lines:
            raise ConfigurationError(f"{path}:{line_no}: config field {key} "
                                     f"already given on line {key_lines[key]}")
        values[key], key_lines[key] = value, line_no
    return values


def _read_keys(overrides):
    """Each RUN_KEYS value converted once from its text or default, then
    checked under its key's name; None if neither."""
    unknown = sorted(set(overrides) - set(RUN_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown config field(s): {', '.join(unknown)}")
    values = {}
    for key, (convert, check, default, _) in RUN_KEYS.items():
        text = default if overrides.get(key) is None else overrides[key]
        try:
            values[key] = None if text is None else convert(text)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for config field {key}: {exc}") from exc
        if check is not None and values[key] is not None:
            values[key] = check(values[key], f"config field {key}")
    return values


def _given(values, key):
    if values[key] is None:
        raise ConfigurationError(f"missing config field: {key}")
    return values[key]


def build_spec(overrides):
    """Assemble and validate an ExperimentSpec from string key-values; an
    unknown kind is refused by its constructor, before READ_ONLY_UNDER's rule.
    Every field but the population, oracle and set is its RUN_KEYS value."""
    kv = _read_keys(overrides)
    dimension = kv["dimension"]
    if kv["set"] == BOX:
        feasible = FeasibleSet(BOX, dimension, lower=_given(kv, "lower"),
                               upper=_given(kv, "upper"))
    else:
        feasible = FeasibleSet(kv["set"], dimension, radius=kv["radius"])

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
    for key in sorted(set(overrides) & set(READ_ONLY_UNDER)):
        chooser, choice = READ_ONLY_UNDER[key]
        if kv[chooser] != choice:
            raise ConfigurationError(
                f"config field {key} is not read with {chooser} = {kv[chooser]} "
                f"(only with {chooser} = {choice})")
    for key in ("n_values", "epsilon_values", "seed"):
        _given(kv, key)
    kv.update(population=population, oracle=oracle, feasible_set=feasible,
              output_dir=resolve_output_dir(kv["output_dir"]))
    return ExperimentSpec(**{field.name: kv[field.name] for field in fields(ExperimentSpec)})


def spec_echo(spec):
    """The resolved configuration the output files echo: every ExperimentSpec
    value that is set, the population's fields that are set, the loss and
    set kinds with the certified L and the diameter, and a box's corners."""
    oracle, feasible = spec.oracle, spec.feasible_set
    echo = {key: value for part in (vars(spec), vars(spec.population))
            for key, value in part.items() if value is not None and not is_dataclass(value)}
    echo.update(loss=oracle.kind, lipschitz_L=oracle.lipschitz_L, set=feasible.kind,
                diameter=feasible.diameter())
    if feasible.kind == BOX:
        echo.update(lower=feasible.lower, upper=feasible.upper)
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in echo.items()}


def plan_cells(spec):
    """Every cell's CellPlan, keyed by (n_idx, e_idx) in run order; draws nothing.

    sigma is end_to_end's or sigma_override, and eta and bound_value are
    step_size and risk_bound at that sigma. A RunConfig checks itself when
    built, so every cell's ConfigurationError or RegimeError comes first.
    """
    D, L, d = spec.feasible_set.diameter(), spec.oracle.lipschitz_L, spec.population.dimension
    w1 = spec.feasible_set.project(np.zeros(d))
    plans = {}
    for n_idx, n in enumerate(spec.n_values):
        for e_idx, eps_value in enumerate(spec.epsilon_values):
            eps = epsilon_limit(n) if eps_value == "max" else eps_value
            if eps > epsilon_limit(n):
                raise ConfigurationError(f"config field epsilon_values: epsilon={eps} exceeds "
                                         f"1/(2*sqrt(n)) for n={n}")
            sigma, report = spec.sigma_override, (math.nan, math.nan)
            if sigma is None:
                accountant = end_to_end(n, eps, spec.delta, spec.delta_prime, L, D, d)
                sigma = accountant.sigma
                report = (accountant.report.epsilon, accountant.report.delta_total)
            config = RunConfig(n=n, eta=step_size(n, sigma, L, D, d), sigma=sigma,
                               feasible_set=spec.feasible_set, oracle=spec.oracle, w1=w1)
            plans[n_idx, e_idx] = CellPlan(eps, config, risk_bound(n, sigma, L, D, d), *report)
    return plans


def run_experiment(spec):
    """Plan every (n, epsilon) cell, then run each and aggregate its statistics.

    plan_cells comes first, so a cell the accountant or RunConfig refuses
    stops the command before any work. Then the reference minimizer and its
    exact population risk (baseline_risk, from losses.population_risk), and
    the cells one at a time (run_cell).
    """
    plans = plan_cells(spec)
    baseline = baseline_minimizer(spec.population, spec.oracle, spec.feasible_set,
                                  spec.baseline_steps)
    base_risk = population_risk(spec.population, spec.oracle, baseline.w)[0]
    cells = [run_cell(spec, key, plan, baseline, base_risk) for key, plan in plans.items()]
    return ExperimentResult(spec_echo(spec), cells, baseline_error=baseline.error_bound,
                            baseline_risk=base_risk)


def run_cell(spec, key, plan, baseline, base_risk):
    """The CellResult of the repeats of cell key = (n_idx, e_idx) under plan.

    Repeat r draws its dataset and run seed from the entropy [seed, n_idx,
    e_idx, r, 0 | 1] (README, "seeds"), all seeded at once by sampler, so
    no result depends on execution order. The runs' fresh steps are read
    first (draw_fresh_steps); then each repeat's dataset is drawn, checked
    whole as private_sgd_batch checks it (check_rows), and only the m =
    n//2 + 1 rows its fresh steps read are kept, in step order. run_steps
    reads those rows with no row map and runs the repeats on the plan's
    RunConfig, whose sigma and eta cells.csv prints, and estimate_regret
    scores the same rows against the reference minimizer, a block of rows
    at a time. A run's excess risk is its output's exact population risk
    minus base_risk; no evaluation data are drawn.
    stderr adds to the runs' standard error the reference minimizer's error
    bound and the largest quadrature bound of the runs' risks,
    RISK_QUADRATURE_BOUND * (1 + B*||w||)^2, so bound checks stay honest.
    """
    config, repeats = plan.config, np.arange(spec.repeats)
    steps = draw_fresh_steps(config.n, derived_seeds(spec.seed, *key, repeats, 1))
    (rows, target), d = steps.fresh_indices.shape, spec.population.dimension
    features, labels = np.empty((rows, target, d)), np.empty((rows, target))
    data = seeded_streams(spec.seed, *key, repeats, 0)
    for r in repeats:
        drawn_features, drawn_labels = draw_dataset(spec.population, config.n, data.stream(r))
        check_rows(config, drawn_features, drawn_labels)
        drawn_features.take(steps.fresh_indices[r], axis=0, out=features[r])
        drawn_labels.take(steps.fresh_indices[r], out=labels[r])
        del drawn_features, drawn_labels   # before the next repeat draws
    batch = run_steps(config, steps, features.reshape(-1, d), labels.reshape(-1))
    regrets = estimate_regret(batch, (features, labels), baseline.w, config)
    excesses = population_risk(spec.population, spec.oracle, batch.output)[0] - base_risk
    # population_risk's stated error bound at the output farthest from 0
    scale = 1.0 + spec.population.feature_bound * np.sqrt(dot(batch.output, batch.output))
    quadrature = RISK_QUADRATURE_BOUND * float(scale.max()) ** 2
    mean_excess = float(np.mean(excesses))
    run_stderr = np.std(excesses, ddof=1) / math.sqrt(rows) if rows > 1 else 0.0
    stderr = float(run_stderr) + baseline.error_bound + quadrature
    return CellResult(
        plan=plan, mean_tau=float(np.mean(batch.tau)), mean_regret=float(np.mean(regrets)),
        mean_excess_risk=mean_excess, stderr=stderr,
        bound_satisfied=bool(mean_excess <= plan.bound_value + 3.0 * stderr),
    )


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_cells_csv(result, path):
    with open(path, "w") as fh:
        fh.writelines(f"# {k}={json.dumps(v)}\n" for k, v in sorted(result.spec_echo.items()))
        fh.write(f"# baseline_risk={_fmt(result.baseline_risk)}"
                 f" baseline_error={_fmt(result.baseline_error)}\n")
        fh.write(",".join(CELL_COLUMNS) + "\n")
        for cell in result.cells:
            fh.write(",".join(map(_fmt, cell.columns())) + "\n")


def write_audit_csv(result, path):
    """Columns: interval_lo,interval_hi,p_S,p_Sprime,violation."""
    with open(path, "w") as fh:
        fh.write("interval_lo,interval_hi,p_S,p_Sprime,violation\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % row
                      for row in zip(result.edges[:-1].tolist(), result.edges[1:].tolist(),
                                     result.p_s.tolist(), result.p_sprime.tolist(),
                                     result.violation.tolist()))


def json_value(value):
    """A non-finite float as None (null), which strict JSON parsers accept."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(payload, path):
    """payload as strict JSON (no NaN or inf), indented, keys sorted, newline-ended."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_summary_json(result, path):
    """cells.csv's records as strict JSON: a NaN there is null here."""
    write_json({
        "config": result.spec_echo,
        "baseline": {"risk": result.baseline_risk, "error": result.baseline_error},
        "cells": [
            dict(zip(CELL_COLUMNS, map(json_value, cell.columns())))
            for cell in result.cells
        ],
    }, path)


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
    the per-n summaries land in tau_summary.json. Every n is checked
    before any is simulated, and simulated before anything is written, so
    a bad n costs no work and leaves no files behind. An n given twice is
    a bad n: it would simulate the same trials again and write them twice.
    """
    trials = check_count(trials, "tau-sim: trials", low=1000)
    name = check_output_name(name, "tau-sim: name")
    n_values = [check_count(n, "tau-sim: n") for n in n_values]
    repeated = [n for n, count in Counter(n_values).items() if count > 1]
    if repeated:
        raise ConfigurationError(f"tau-sim: n = {repeated[0]} is given more than once")
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
    write_json({"seed": seed, "results": [s.summary() for s in all_stats]},
               os.path.join(outdir, "tau_summary.json"))
    return all_stats
