"""Noisy projected SGD with a fresh-sample stopping rule, plus utility probes.

The main loop draws a uniform dataset index each step. The first time an
index appears, a subgradient is computed at the current iterate and the
update uses gradient + Gaussian noise; on repeat draws the update is
noise-only. The run halts once more than half the indices have been seen,
and outputs the average of the iterates held at the fresh steps.

Noise convention: sigma is the per-coordinate standard deviation, i.e.
noise is N(0, sigma^2 * I). This matches the accountant in privacy.py.

A run is fixed by its RunConfig, its seed and its dataset, and takes at
most max_steps = MAX_STEPS_FACTOR * n steps. Its index and noise streams
are the two children SeedSequence spawns from its seed (spawned_streams),
so its index stream depends neither on sigma nor on the iterates: stopping
times and fresh steps are read up front by sampler.draw_stopping_times,
simulate_tau's reader, and private_sgd_batch runs the projected-step
recursion for R runs at once. A run's result is the RunBatch arrays.

baseline_minimizer, the non-private reference point, minimizes the exact
population risk (losses.population_risk, a quadrature with a stated error
bound) over the feasible set by accelerated projected gradient. A
Frank-Wolfe gap computed during the run certifies how far the result is
from the population optimum, and the run stops once that certificate is
BASELINE_TOLERANCE * D * L. No data are drawn for it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
# mirror_step, sample_index and draw_dataset are not called here; they stay
# importable from this module because perfbench/spans.py wraps them by name.
from .geometry import dot, mirror_step  # noqa: F401
from .losses import (RISK_QUADRATURE_BOUND, draw_arrays, draw_dataset,  # noqa: F401
                     population_risk, risk_curvature)
from .sampler import (check_seed, draw_stopping_times, fresh_target,  # noqa: F401
                      sample_index, spawned_streams)

MAX_STEPS_FACTOR = 4
NOISE_CHUNK_STEPS = 128
CERTIFICATE_EVERY = 5
BASELINE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """The parameters of one private run; the dimension is feasible_set.dimension.

    A run that has not stopped after MAX_STEPS_FACTOR * n steps is an
    overrun, reported rather than silently truncated (the stopping rule
    makes it exponentially unlikely at that cap).
    """

    n: int
    eta: float
    sigma: float
    feasible_set: object
    oracle: object
    w1: np.ndarray

    def validate(self):
        if self.n < 1:
            raise ConfigurationError(f"RunConfig: n must be >= 1, got {self.n}")
        if not math.isfinite(self.eta) or self.eta <= 0:
            raise ConfigurationError(
                f"RunConfig: eta must be finite and positive, got {self.eta}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ConfigurationError(
                f"RunConfig: sigma must be finite and >= 0, got {self.sigma}")
        w1 = np.asarray(self.w1, dtype=float)
        if w1.shape != (self.feasible_set.dimension,):
            raise ConfigurationError("RunConfig: w1 does not match the set's dimension")
        if not np.all(np.isfinite(w1)):
            raise ConfigurationError("RunConfig: w1 must be finite")
        if not self.feasible_set.contains(w1):
            raise ConfigurationError("RunConfig: w1 lies outside the feasible set")


@dataclass
class RunBatch:
    """R runs from private_sgd_batch; row r is the run with seeds[r].

    tau             (R,) steps taken; max_steps = MAX_STEPS_FACTOR * n in
                    rows that overran
    overrun         (R,) True where max_steps draws held fewer than n//2+1
                    distinct indices. An overrun is reported here, not
                    raised, and leaves the other rows untouched.
    output          (R, d) mean iterate at the fresh steps; NaN where overrun
    fresh_indices   (R, m) dataset index of each fresh step in step order,
                    m = n//2+1; 0 past an overrun row's last fresh step
    fresh_iterates  (R, m, d) iterate held at each fresh step; NaN past an
                    overrun row's last fresh step
    """

    tau: np.ndarray
    overrun: np.ndarray
    output: np.ndarray
    fresh_indices: np.ndarray
    fresh_iterates: np.ndarray


def private_sgd(config, seed, dataset):
    """private_sgd_batch for one seed on one (features, labels) dataset."""
    return private_sgd_batch(config, [seed],
                             *(np.asarray(a, dtype=float)[None] for a in dataset))


def private_sgd_batch(config, seeds, features, labels):
    """R = len(seeds) private runs at once, in lockstep.

    Row r is the run of config with seed seeds[r] on the dataset
    (features[r], labels[r]); features is (R, n, d) and labels (R, n). Rows
    step in lockstep up to max(tau); a row past its own tau takes noise-only
    steps that nothing reads, drawn after every value it uses, so each row
    equals the run made alone.

    Per chunk of NOISE_CHUNK_STEPS steps, each run's noise stream draws
    standard_normal((k, d)) and keeps its place. A running cumsum of the
    (steps + 1, R) fresh mask gives every (step, row) of the chunk its flat
    slot r*m + count - 1 and flat data row r*n + index; one take each
    gathers the (chunk, R, d) features and (chunk, R) labels, with a zero
    row (label 1) at noise-only steps, where g = subgradient + noise is
    exactly the noise. The iterates held at fresh steps go to
    fresh_iterates in one scatter per chunk and into the output's sum by
    one cumsum over the chunk's steps, in step order, so memory stays
    O(R * chunk * d).

    Inputs are checked once here rather than per step: the config
    (RunConfig.validate), the seeds (sampler.check_seed), the array shapes,
    finite features and labels, and that no row's subgradient norm on the
    feasible set can exceed oracle.lipschitz_L, the sensitivity the
    accountant prices.
    """
    config.validate()
    n, d, rows = config.n, config.feasible_set.dimension, len(seeds)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if rows < 1:
        raise ConfigurationError("private_sgd_batch: need at least one seed")
    for seed in seeds:
        check_seed(seed, "private_sgd")
    if features.shape != (rows, n, d) or labels.shape != (rows, n):
        raise ConfigurationError(
            f"private_sgd: {rows} run(s) need features of shape (n, d) = ({n}, {d}) "
            f"and labels of shape ({n},) each; got {features.shape} and {labels.shape}")
    if not (np.isfinite(features).all() and np.isfinite(labels).all()):
        raise ConfigurationError("private_sgd: features and labels must be finite")
    worst = config.oracle.max_subgradient_norm(features, labels, config.feasible_set)
    if worst > config.oracle.lipschitz_L * (1.0 + 1e-9):
        raise ConfigurationError(
            f"private_sgd: a data row gives subgradients of norm up to {worst:.6g} on "
            f"the feasible set, above the certified L = {config.oracle.lipschitz_L:.6g}")
    max_steps = MAX_STEPS_FACTOR * n
    target = fresh_target(n)

    # Index streams, stopping times and fresh steps, before any iterate. An
    # overrun row's missing arrivals read max_steps: index 0, and the spare
    # last row of the (steps + 1, R) mask.
    index_streams, noise_streams = spawned_streams(seeds)
    tau, arrivals, fresh_indices = draw_stopping_times(n, index_streams, cap=max_steps,
                                                       fresh=True)
    overrun = tau > max_steps
    tau = np.minimum(tau, max_steps)
    steps = int(tau.max())
    fresh = np.zeros((steps + 1, rows), dtype=bool)
    fresh[arrivals, np.arange(rows)[:, None]] = True
    del arrivals
    seen = 0
    fresh_iterates = np.full((rows, target, d), np.nan)
    eta, oracle, feasible_set = config.eta, config.oracle, config.feasible_set
    w = np.tile(np.asarray(config.w1, dtype=float), (rows, 1))
    # Row r's slot j is flat slot r*target + j, and its data row i is r*n + i.
    flat_slots, flat_data = np.arange(rows) * target - 1, np.arange(rows) * n
    flat_x, flat_iterates = features.reshape(-1, d), fresh_iterates.reshape(-1, d)
    total = np.zeros((rows, d))

    for chunk_start in range(0, steps, NOISE_CHUNK_STEPS):
        k = min(NOISE_CHUNK_STEPS, steps - chunk_start)
        noise = config.sigma * noise_streams.standard_normal((k, d)).swapaxes(0, 1)
        # A noise-only step reads a zero row with label 1: slope -1 under
        # each loss, so a -0.0 subgradient, which keeps every bit of the noise.
        mask = fresh[chunk_start:chunk_start + k]
        counts = mask.cumsum(axis=0) + seen
        seen = counts[-1]
        slots = counts + flat_slots
        data = fresh_indices.take(slots) + flat_data
        x = np.where(mask[..., None], flat_x.take(data, axis=0), 0.0)
        y = np.where(mask, labels.take(data), 1.0)
        held = []
        for x_t, y_t, xi in zip(x, y, noise):
            held.append(w)
            g = oracle.subgradient(w, x_t, y_t) + xi
            w = feasible_set.project_rows(w - eta * g)
        held = np.stack(held)
        at = np.flatnonzero(mask)
        flat_iterates[slots.ravel()[at]] = held.reshape(-1, d)[at]
        # The fresh-iterate sum in step order; adding +0.0 at the other steps
        # is exact, as a sum from +0.0 is never -0.0. cumsum, not add.reduce,
        # which sums pairwise when rows * d = 1.
        total = np.cumsum(np.concatenate([total[None], np.where(mask[..., None], held, 0.0)]),
                          axis=0)[-1]

    total[overrun] = np.nan
    return RunBatch(tau=tau, overrun=overrun, output=total / target,
                    fresh_indices=fresh_indices, fresh_iterates=fresh_iterates)


def estimate_regret(batch, dataset, comparator, config):
    """Per row, the sum over fresh steps of f(w_t, x_t) - f(u, x_t).

    Stale steps contribute nothing: their loss is a pure noise linear term
    with zero mean, so only the fresh-step losses carry signal.

    batch is a RunBatch and dataset the stacked (R, n, d), (R, n) arrays it
    ran on; the result is an (R,) array that is NaN in overrun rows.
    """
    u = np.asarray(comparator, dtype=float)
    if not config.feasible_set.contains(u):
        raise ConfigurationError("estimate_regret: comparator lies outside the set")
    features, labels = (np.asarray(a, dtype=float) for a in dataset)
    idx = batch.fresh_indices
    shape = (len(idx), config.n, config.feasible_set.dimension)
    if features.shape != shape or labels.shape != shape[:2]:
        raise ConfigurationError(
            f"estimate_regret: need the stacked features (R, n, d) = {shape} and labels "
            f"(R, n) = {shape[:2]} the batch ran on; got {features.shape} and {labels.shape}")
    flat = idx + (np.arange(len(idx)) * config.n)[:, None]
    x = features.reshape(-1, shape[2]).take(flat, axis=0)
    y = labels.take(flat)
    z = np.einsum("...i,...i->...", batch.fresh_iterates, x)
    oracle = config.oracle
    return (oracle.loss_at(z, y) - oracle.batch_values(u, x, y)).sum(axis=-1)


# Nothing in dpmirror calls estimate_risk (a run's risk is population_risk's
# exact value); it and RiskEstimate stay because perfbench/spans.py wraps
# harness.estimate_risk by name (ROADMAP.md, item 1).
@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float


def estimate_risk(w, population, oracle, eval_samples, rng):
    """Monte-Carlo mean and standard error of the loss at w on draws from rng."""
    if eval_samples < 1:
        raise ConfigurationError("estimate_risk: eval_samples must be >= 1")
    features, labels = draw_arrays(population, eval_samples, rng)
    values = oracle.batch_values(np.asarray(w, dtype=float), features, labels)
    stderr = float(values.std(ddof=1) / math.sqrt(eval_samples)) if eval_samples > 1 else 0.0
    return RiskEstimate(mean=float(values.mean()), stderr=stderr)


@dataclass(frozen=True)
class BaselineResult:
    """Non-private reference minimizer and a bound on its own suboptimality."""

    w: np.ndarray
    error_bound: float
    budget_steps: int


def baseline_minimizer(population, oracle, feasible_set, budget_steps):
    """Non-private reference point: a certified minimizer of the population risk.

    Minimizes the population risk F (losses.population_risk) over the
    feasible set K by accelerated projected gradient (FISTA, Beck &
    Teboulle 2009) from the projection of 0, with step 1/beta, beta =
    losses.risk_curvature, a bound on the Lipschitz constant of grad F. F
    is differentiable on both populations, so no loss is smoothed.

    Certificate. For w in K and g = grad F(w), convexity of F gives
        F(w) - min_K F <= gap(w) = max_{u in K} <g, w - u>,
    the Frank-Wolfe gap (FeasibleSet.frank_wolfe_gap). The gap is computed
    from the quadrature gradient g~, whose coordinates are within
    eps = RISK_QUADRATURE_BOUND * B * (1 + B*||w||) of g's, so
        F(w) - min_K F <= gap~(w) + D*sqrt(d)*eps,
    whatever the step size. error_bound is that sum. The gap is computed
    every CERTIFICATE_EVERY steps, and the run stops once it is at most
    BASELINE_TOLERANCE * D * L. budget_steps caps the steps (at least
    10^4); a run that reaches the cap reports the certificate it has.
    """
    if budget_steps < 10_000:
        raise ConfigurationError("baseline_minimizer: budget_steps must be >= 10^4")
    D = feasible_set.diameter()
    target = BASELINE_TOLERANCE * D * oracle.lipschitz_L
    step = 1.0 / risk_curvature(population, oracle)

    def gradient(w):
        return population_risk(population, oracle, w)[1]

    project = feasible_set.project_rows
    w = y = project(np.zeros(feasible_set.dimension))
    t = 1.0
    for k in range(1, budget_steps + 1):
        w_next = project(y - step * gradient(y))
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, t = w_next, t_next
        if k % CERTIFICATE_EVERY == 0 or k == budget_steps:
            certificate = feasible_set.frank_wolfe_gap(w, gradient(w))
            if certificate <= target:
                break

    bound = population.feature_bound
    quadrature = (D * math.sqrt(feasible_set.dimension) * RISK_QUADRATURE_BOUND
                  * bound * (1.0 + bound * math.sqrt(dot(w, w))))
    return BaselineResult(w=w, error_bound=certificate + quadrature,
                          budget_steps=budget_steps)
