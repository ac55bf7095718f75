"""Noisy projected SGD with a fresh-sample stopping rule, plus utility probes.

The main loop draws a uniform dataset index each step. The first time an
index appears, a subgradient is computed at the current iterate and the
update uses gradient + Gaussian noise; on repeat draws the update is
noise-only. The run halts once more than half the indices have been seen,
and outputs the average of the iterates held at the fresh steps.

Noise convention: sigma is the per-coordinate standard deviation, i.e.
noise is N(0, sigma^2 * I). This matches the accountant in privacy.py.

A run is fixed by its RunConfig, its seed and its dataset, and, as in the
paper, runs until it stops: the accountant prices tau > 2n (privacy.py),
and P(tau > 4n) is 7.0e-16 at n = 16 (README, "Run results"). Its index
and noise streams are the two children SeedSequence spawns from its seed
(spawned_streams), so its index stream depends neither on sigma nor on
the iterates, nor on the data: draw_fresh_steps reads R runs' stopping
times and fresh steps before any data, and run_steps runs the
projected-step recursion for the R runs at once, reading each fresh
step's data row. private_sgd_batch maps the steps into R full datasets
through a row map; the harness passes the fresh rows it keeps, in step
order, and no map. A run's result is the RunBatch arrays.

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

from .errors import ConfigurationError, check_count, check_real, check_reals, check_vector
# mirror_step, sample_index and draw_dataset are not called here; they stay
# importable from this module because perfbench/spans.py wraps them by name.
from .geometry import dot, mirror_step  # noqa: F401
from .losses import (RISK_QUADRATURE_BOUND, draw_arrays, draw_dataset,  # noqa: F401
                     population_risk, risk_curvature)
from .sampler import draw_stopping_times, sample_index, spawned_streams  # noqa: F401

NOISE_CHUNK_STEPS = 128
# About the values estimate_regret checks and scores at a time, as whole rows.
REGRET_BLOCK = 1 << 16
CERTIFICATE_EVERY = 5
BASELINE_TOLERANCE = 1e-6
# The fewest steps baseline_minimizer is given, and so `run`'s baseline_steps.
MIN_BASELINE_STEPS = 10_000


@dataclass(frozen=True)
class RunConfig:
    """The parameters of one private run; the dimension is feasible_set.dimension.

    The fields are checked when built, and w1 is held as a read-only copy.
    No step checks for overflow: the range of eta, sigma, L and the set
    keeps every offset a step projects finite (errors.py, "step").
    """

    n: int
    eta: float
    sigma: float
    feasible_set: object
    oracle: object
    w1: np.ndarray

    def __post_init__(self):
        fields = {"n": check_count(self.n, "RunConfig: n"),
                  "eta": check_real(self.eta, "RunConfig: eta"),
                  "sigma": check_real(self.sigma, "RunConfig: sigma", zero=True),
                  "w1": check_vector(self.w1, self.feasible_set.dimension, "RunConfig: w1")}
        if not self.feasible_set.contains(fields["w1"]):
            raise ConfigurationError("RunConfig: w1 lies outside the feasible set")
        for field, value in fields.items():
            object.__setattr__(self, field, value)


@dataclass
class RunBatch:
    """R runs from private_sgd_batch; row r is the run with seeds[r].

    tau             (R,) steps taken
    output          (R, d) mean iterate at the fresh steps
    fresh_indices   (R, m) dataset index of each fresh step in step order,
                    m = n//2+1
    fresh_iterates  (R, m, d) iterate held at each fresh step
    """

    tau: np.ndarray
    output: np.ndarray
    fresh_indices: np.ndarray
    fresh_iterates: np.ndarray


def private_sgd(config, seed, dataset):
    """private_sgd_batch for one seed on one (features, labels) dataset."""
    return private_sgd_batch(config, [seed],
                             *(check_reals(a, "private_sgd: dataset")[None] for a in dataset))


@dataclass
class FreshSteps:
    """What R runs read of their datasets, fixed by their seeds alone.

    tau             as in RunBatch
    fresh           (max(tau), R) True at each row's fresh steps
    fresh_indices   as in RunBatch
    noise_streams   the rows' noise streams (sampler.TrialStreams); run_steps
                    starts each at its stream start, so a FreshSteps can run again
    """

    tau: np.ndarray
    fresh: np.ndarray
    fresh_indices: np.ndarray
    noise_streams: object


def draw_fresh_steps(n, seeds):
    """The FreshSteps of R = len(seeds) runs on n records, before any data.

    A run's index and noise streams are the two children its seed spawns
    (sampler.spawned_streams), so its stopping time and fresh steps are
    read up front by sampler.draw_stopping_times, simulate_tau's reader.
    The caller checks the seeds (private_sgd_batch).
    """
    rows = len(seeds)
    index_streams, noise_streams = spawned_streams(seeds)
    tau, arrivals, fresh_indices = draw_stopping_times(n, index_streams, fresh=True)
    fresh = np.zeros((int(tau.max()), rows), dtype=bool)
    fresh[arrivals, np.arange(rows)[:, None]] = True
    return FreshSteps(tau, fresh, fresh_indices, noise_streams)


def check_rows(config, features, labels):
    """Raise ConfigurationError unless every (..., d) feature row and (...,)
    label is finite and no row's subgradient norm on the feasible set can
    exceed oracle.lipschitz_L, the sensitivity the accountant prices."""
    if not (np.isfinite(features).all() and np.isfinite(labels).all()):
        raise ConfigurationError("private_sgd: features and labels must be finite")
    worst = config.oracle.max_subgradient_norm(features, labels, config.feasible_set)
    if not worst <= config.oracle.lipschitz_L * (1.0 + 1e-9):   # NaN: 0 * an inf norm
        raise ConfigurationError(
            f"private_sgd: a data row gives subgradients of norm up to {worst:.6g} on "
            f"the feasible set, above the certified L = {config.oracle.lipschitz_L:.6g}")


def private_sgd_batch(config, seeds, features, labels):
    """R = len(seeds) private runs at once, in lockstep.

    Row r is the run of config with seed seeds[r] on the dataset
    (features[r], labels[r]); features is (R, n, d) and labels (R, n).
    Inputs are checked before any draw (config when built): the seeds
    (each a non-negative int), the arrays' entries (check_reals) and
    shapes, and every data row (check_rows). Then draw_fresh_steps reads
    every run's fresh steps, and run_steps reads row r's fresh index i at
    flat data row r*n + i, so nothing is gathered.
    """
    n, d, rows = config.n, config.feasible_set.dimension, len(seeds)
    features = check_reals(features, "private_sgd: features")
    labels = check_reals(labels, "private_sgd: labels")
    check_count(rows, "private_sgd_batch: the number of seeds")
    for seed in seeds:
        check_count(seed, "private_sgd: seed", low=0, high=None)
    if features.shape != (rows, n, d) or labels.shape != (rows, n):
        raise ConfigurationError(
            f"private_sgd: {rows} run(s) need features of shape (n, d) = ({n}, {d}) "
            f"and labels of shape ({n},) each; got {features.shape} and {labels.shape}")
    check_rows(config, features, labels)
    steps = draw_fresh_steps(n, seeds)
    data_rows = steps.fresh_indices + (np.arange(rows) * n)[:, None]
    return run_steps(config, steps, features.reshape(-1, d), labels.reshape(-1), data_rows)


def run_steps(config, steps, features, labels, data_rows=None):
    """The projected-step recursion of the runs steps fixes, as a RunBatch.

    features (N, d) and labels (N,) are flat data rows. data_rows (R, m)
    holds the one read at each row's fresh step j; without it, that is flat
    row r*m + j, as in the (R, m, d) rows the harness gathers, flattened.
    Rows step in lockstep up to max(tau); a row past its own tau takes
    noise-only steps that nothing reads, drawn after every value it uses,
    so each row equals the run made alone. The data are not checked here
    (check_rows).

    Each run's noise Generator is built once and kept live, about 0.75 KB
    (less than its (k, d) chunk of normals) until run_steps returns: per
    chunk of NOISE_CHUNK_STEPS steps it draws standard_normal((k, d)) where
    its last chunk stopped, into one (R, k, d) buffer reused by every
    chunk. A running cumsum of the chunk's fresh mask gives every (step,
    row) its flat slot r*m + count - 1, and one take each gathers its
    (chunk, R, d) features, into another reused buffer, and (chunk, R)
    labels, set to a zero row (label 1) at noise-only steps, where g =
    subgradient + noise is exactly the noise. Where the oracle certifies
    that no iterate the set holds can change a chunk's slopes
    (LossOracle.fixed_slopes), the chunk's eta * g is formed at once in the
    gathered features, and each step is one projection; the bits are those
    of the step by step path. Once step t has read x[t], x[t] holds the
    iterate of step t, so the iterates held at fresh steps go to
    fresh_iterates in one scatter per chunk, and memory stays
    O(R * chunk * d) beside the output. Then add.accumulate sums them in
    step order from +0.0, NOISE_CHUNK_STEPS at a time in the noise buffer:
    the step by step running add, to the bit (add.reduce would sum pairwise
    when rows * d = 1).
    """
    rows, target = steps.fresh_indices.shape
    d = config.feasible_set.dimension
    eta, oracle, feasible_set = config.eta, config.oracle, config.feasible_set
    fresh_iterates = np.empty((rows, target, d))
    flat_iterates = fresh_iterates.reshape(-1, d)
    slot_base = np.arange(rows) * target - 1
    w = np.tile(config.w1, (rows, 1))
    steps_taken = len(steps.fresh)
    noise_rngs = [steps.noise_streams.stream(r) for r in range(rows)]
    noise_buffer, x_buffer = (np.empty(rows * min(NOISE_CHUNK_STEPS, steps_taken) * d)
                              for _ in range(2))
    seen = 0
    for chunk_start in range(0, steps_taken, NOISE_CHUNK_STEPS):
        k = min(NOISE_CHUNK_STEPS, steps_taken - chunk_start)
        noise = noise_buffer[:rows * k * d].reshape(rows, k, d)
        for rng, row_noise in zip(noise_rngs, noise):
            rng.standard_normal(out=row_noise)
        noise *= config.sigma
        mask = steps.fresh[chunk_start:chunk_start + k]
        counts = mask.cumsum(axis=0) + seen
        seen = counts[-1]
        slots = counts + slot_base
        data = slots if data_rows is None else data_rows.reshape(-1).take(slots)
        # A noise-only step reads a zero row with label 1: slope -1 under
        # each loss, so a -0.0 subgradient, which keeps every bit of the noise.
        # Every index is a data row, so mode="clip" changes nothing but lets
        # take write to out unbuffered.
        x = features.take(data, axis=0, mode="clip",
                          out=x_buffer[:k * rows * d].reshape(k, rows, d))
        np.copyto(x, 0.0, where=~mask[..., None])
        y = np.where(mask, labels.take(data), 1.0)
        noise = noise.swapaxes(0, 1)
        slopes = oracle.fixed_slopes(y, lambda: feasible_set.reach(x))
        if slopes is not None:
            # eta * (slope * x + noise), formed in x by the same operations
            # per value, in the same order, as the step below.
            x *= slopes[..., None]
            x += noise
            x *= eta
        for t in range(k):
            step = x[t] if slopes is not None else eta * (
                oracle.subgradient(w, x[t], y[t]) + noise[t])
            w, x[t] = feasible_set.project_rows(w - step), w
        at = np.flatnonzero(mask)
        flat_iterates[slots.ravel()[at]] = x.reshape(-1, d)[at]
    total = np.zeros((rows, d))
    for block_start in range(0, target, NOISE_CHUNK_STEPS):
        k = min(NOISE_CHUNK_STEPS, target - block_start)
        block = noise_buffer[:rows * k * d].reshape(rows, k, d)
        np.copyto(block, fresh_iterates[:, block_start:block_start + k])
        block[:, 0] += total
        np.add.accumulate(block, axis=1, out=block)
        total = block[:, -1].copy()

    return RunBatch(tau=steps.tau, output=total / target,
                    fresh_indices=steps.fresh_indices, fresh_iterates=fresh_iterates)


def estimate_regret(batch, rows, comparator, config):
    """Per row, the sum over fresh steps of f(w_t, x_t) - f(u, x_t).

    Stale steps contribute nothing: their loss is a pure noise linear term
    with zero mean, so only the fresh-step losses carry signal.

    batch is a RunBatch and rows the (R, m, d) features and (R, m) labels
    its fresh steps read, in step order (m = n//2+1); the result is an (R,)
    array. Rows are checked and scored REGRET_BLOCK // m at a time (one at
    least), so no temporary holds all R rows; each row's sum is one
    add.reduce over its m steps, as for the whole array at once.
    """
    u = check_vector(comparator, config.feasible_set.dimension, "estimate_regret: comparator")
    if not config.feasible_set.contains(u):
        raise ConfigurationError("estimate_regret: comparator lies outside the set")
    x, y = (check_reals(a, "estimate_regret: rows", finite=False) for a in rows)
    shape = batch.fresh_iterates.shape
    if x.shape != shape or y.shape != shape[:2]:
        raise ConfigurationError(
            f"estimate_regret: need the (R, m, d) = {shape} features and (R, m) = "
            f"{shape[:2]} labels the batch's fresh steps read; got {x.shape} and {y.shape}")
    oracle, regret = config.oracle, np.empty(shape[0])
    block = max(1, REGRET_BLOCK // shape[1])
    for start in range(0, shape[0], block):
        part = slice(start, start + block)
        x_part, y_part = x[part], y[part]
        if not (np.isfinite(x_part).all() and np.isfinite(y_part).all()):
            raise ConfigurationError("estimate_regret: rows must be finite")
        # Two (block, m) arrays at most: the margins, scored in place, and u's losses.
        with np.errstate(over="ignore", invalid="ignore"):
            margins = np.einsum("...i,...i->...", batch.fresh_iterates[part], x_part)
            scores = oracle.loss_at(margins, y_part, out=margins)
            scores -= oracle.batch_values(u, x_part, y_part)
            regret[part] = scores.sum(axis=-1)
    if not np.isfinite(regret).all():
        raise ConfigurationError("estimate_regret: a loss on these rows overflows")
    return regret


# Nothing in dpmirror calls estimate_risk (a run's risk is population_risk's
# exact value); it and RiskEstimate stay because perfbench/spans.py wraps
# harness.estimate_risk by name (ROADMAP.md, item 1).
@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float


def estimate_risk(w, population, oracle, eval_samples, rng):
    """Monte-Carlo mean and standard error of the loss at w on draws from rng."""
    check_count(eval_samples, "estimate_risk: eval_samples")
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
    BASELINE_TOLERANCE * D * L. budget_steps bounds the steps (at least
    MIN_BASELINE_STEPS); a run that uses them all reports the certificate it has.
    """
    budget_steps = check_count(budget_steps, "baseline_minimizer: budget_steps",
                               low=MIN_BASELINE_STEPS)
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
