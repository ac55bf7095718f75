"""Noisy projected SGD with a fresh-sample stopping rule, plus utility probes.

The main loop draws a uniform dataset index each step. The first time an
index appears, a subgradient is computed at the current iterate and the
update uses gradient + Gaussian noise; on repeat draws the update is
noise-only. The run halts once more than half the indices have been seen,
and outputs the average of the iterates held at the fresh steps.

Noise convention: sigma is the per-coordinate standard deviation, i.e.
noise is N(0, sigma^2 * I). This matches the accountant in privacy.py.

A run is fixed by its RunConfig (n, eta, sigma, the feasible set, the
oracle and w1), the seed passed beside it and its dataset, and takes at
most max_steps = MAX_STEPS_FACTOR * n steps. The index stream does not
depend on the iterates, so every run's stopping time and fresh steps are
read up front by sampler.draw_stopping_times, simulate_tau's path, from a
first block of about 3n/4 indices per run; only the projected-step
recursion is sequential. private_sgd_batch runs it for R runs at once
(repeats that differ in seed and dataset) on (R, d) arrays, rows in seed
order, every row stepping up to the largest stopping time; private_sgd is
its R = 1 case. Each run draws its noise from its own generator in chunks
of NOISE_CHUNK_STEPS steps. The values equal one standard_normal(d) draw
per step, and memory stays O(R * chunk * d) rather than O(R * max_steps * d).
Every run is reproducible from its seed alone, whatever batch it runs in.

baseline_minimizer, the non-private reference point, minimizes the risk of
a holdout of at least 10^5 points by accelerated projected gradient on the
(m, d) holdout array, two matvecs per step, smoothing the losses that are
not smooth. A Frank-Wolfe gap computed during the run certifies how far the
result is from the holdout optimum, and the run stops once that certificate
is a tenth of the holdout's statistical error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OverrunError
# mirror_step, sample_index and draw_dataset are not called here; they stay
# importable from this module because perfbench/spans.py wraps them by name.
from .geometry import mirror_step  # noqa: F401
from .losses import SQUARED, draw_arrays, draw_dataset  # noqa: F401
from . import sampler
from .sampler import draw_stopping_times, fresh_target, sample_index  # noqa: F401

MAX_STEPS_FACTOR = 4
NOISE_CHUNK_STEPS = 128
CERTIFICATE_EVERY = 5
SUM_BLOCK_ENTRIES = 4096


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
class RunTrace:
    """One private run as arrays over its steps t = 0, ..., tau - 1.

    indices      (tau,) dataset index drawn at each step
    fresh        (tau,) True where that index is drawn for the first time
    iterates     (tau, d) iterate held before each step; a fresh step takes
                 its subgradient here
    noise_norms  (tau,) Euclidean norm of each step's noise vector
    tau          steps taken; max_steps when the run overran
    output       (d,) mean of iterates[fresh]; None when the run overran
    """

    indices: np.ndarray
    fresh: np.ndarray
    iterates: np.ndarray
    noise_norms: np.ndarray
    tau: int
    output: np.ndarray

    @property
    def fresh_indices(self):
        return self.indices[self.fresh]

    @property
    def fresh_iterates(self):
        return self.iterates[self.fresh]


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
    traces          per-row RunTrace list with record=True, else None
    """

    tau: np.ndarray
    overrun: np.ndarray
    output: np.ndarray
    fresh_indices: np.ndarray
    fresh_iterates: np.ndarray
    traces: list = None


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float


def run_streams(seed):
    """Two independent generators (index draws, noise draws) from one seed.

    Keeping the streams separate means the sampled index sequence is
    invariant to sigma, so noisy and noiseless runs with the same seed see
    the same data order.
    """
    idx_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(idx_ss), np.random.default_rng(noise_ss)


def private_sgd(config, seed, dataset):
    """One private run with the given seed on a dataset of exactly config.n points.

    dataset is a (features, labels) pair of shape (n, d) and (n,). Each
    step: draw an index; if unseen, step against the noisy subgradient at
    the current iterate and mark it seen; otherwise step against noise
    alone. Every step is projected back onto the feasible set.

    Returns a RunTrace whose output is the average of the iterates at fresh
    steps (the iterate the subgradient was evaluated at, not the updated
    one). Fully deterministic given the seed; the R = 1 case of
    private_sgd_batch.

    Raises OverrunError (carrying the partial trace) if the stopping rule
    has not fired within max_steps.
    """
    features, labels = dataset
    batch = private_sgd_batch(config, [seed],
                              np.asarray(features, dtype=float)[None],
                              np.asarray(labels, dtype=float)[None], record=True)
    trace = batch.traces[0]
    if batch.overrun[0]:
        raise OverrunError(
            f"private_sgd: no stop after max_steps={trace.tau} "
            f"({int(trace.fresh.sum())}/{fresh_target(config.n)} fresh)", trace=trace)
    return trace


def private_sgd_batch(config, seeds, features, labels, record=False):
    """private_sgd for R = len(seeds) runs at once, in lockstep.

    Row r is the run of config with seed seeds[r] on the dataset
    (features[r], labels[r]); features is (R, n, d) and labels (R, n). Each
    row gives the same result as running it alone.

    All rows step in lockstep up to max(tau). A row past its own tau keeps
    taking noise-only steps from its own noise generator, and nothing reads
    them: all of its fresh steps come before its tau, and those noise draws
    come after every value it uses. Per-row results therefore do not depend
    on the other rows; a per-step statistic over the batch must mask to
    t < tau[r], and record=True cuts each row's trace at its tau.

    Inputs are checked once here rather than per step: the config
    (RunConfig.validate), the array shapes, finite features and labels, and
    that no row's subgradient norm on the feasible set can exceed
    oracle.lipschitz_L, the sensitivity the accountant prices.
    record=True also keeps every iterate and noise norm, O(R * max_steps * d)
    memory, redraws each row's indices up to its tau from its own stream,
    and returns them as per-row RunTraces.
    """
    config.validate()
    n, d, rows = config.n, config.feasible_set.dimension, len(seeds)
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if rows < 1:
        raise ConfigurationError("private_sgd_batch: need at least one seed")
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

    # Index streams, stopping times and fresh steps, before any iterate.
    streams = [run_streams(seed) for seed in seeds]
    starts = [index_rng.bit_generator.state for index_rng, _ in streams]

    def index_stream(r):
        streams[r][0].bit_generator.state = starts[r]
        return streams[r][0]

    draws = np.empty((rows, min(sampler.first_block(n), max_steps)), dtype=np.int64)
    arrivals, tau = draw_stopping_times(n, index_stream, draws, cap=max_steps)
    overrun = tau > max_steps
    tau = np.minimum(tau, max_steps)
    steps = int(tau.max())

    # Fresh indices are read at the arrivals, redrawn for a row whose
    # arrivals pass its first block. An overrun row's missing arrivals read
    # max_steps: index 0, and the spare last row of the (steps + 1, R) mask.
    fresh_indices = np.take_along_axis(draws, np.minimum(arrivals, draws.shape[1] - 1), 1)
    for r in np.flatnonzero(arrivals[:, -1] >= draws.shape[1]):
        drawn = np.append(index_stream(r).integers(0, n, size=max_steps), 0)
        fresh_indices[r] = drawn[arrivals[r]]
    fresh = np.zeros((steps + 1, rows), dtype=bool)
    fresh[arrivals, np.arange(rows)[:, None]] = True
    del draws, arrivals   # arrivals is a view of the (R, n) sort buffer
    # Per row: the flat slot of its next fresh step, and its fresh data rows.
    next_slot = np.arange(0, rows * target, target)
    fresh_data = (fresh_indices + np.arange(0, rows * n, n)[:, None]).ravel()
    flat_x = features.reshape(rows * n, d)
    flat_y = labels.reshape(rows * n)
    fresh_iterates = np.full((rows * target, d), np.nan)
    eta, sigma = config.eta, config.sigma
    oracle, feasible_set = config.oracle, config.feasible_set
    w = np.tile(np.asarray(config.w1, dtype=float), (rows, 1))
    if record:
        iterates = np.empty((steps, rows, d))
        noise_norms = np.empty((steps, rows))

    for t in range(steps):
        if t % NOISE_CHUNK_STEPS == 0:
            chunk_start = t
            chunk = np.empty((min(NOISE_CHUNK_STEPS, steps - t), rows, d))
            for r, (_, noise_rng) in enumerate(streams):
                chunk[:, r] = noise_rng.standard_normal((chunk.shape[0], d))
            noise = sigma * chunk
            if record:
                noise_norms[t:t + chunk.shape[0]] = np.sqrt(
                    np.einsum("...i,...i->...", noise, noise))
        xi = noise[t - chunk_start]
        if record:
            iterates[t] = w
        at = fresh[t].nonzero()[0]
        if at.size:
            dest = next_slot[at]
            next_slot[at] = dest + 1
            data = fresh_data[dest]
            w_at = w[at]
            fresh_iterates[dest] = w_at
            g = xi.copy()
            g[at] = oracle.subgradient(w_at, flat_x[data], flat_y[data]) + xi[at]
        else:
            g = xi
        w = feasible_set.project_rows(w - eta * g)

    # The fresh-iterate sum, accumulated in step order.
    fresh_iterates = fresh_iterates.reshape(rows, target, d)
    total = np.zeros((rows, d))
    for slot in range(target):
        total += fresh_iterates[:, slot]
    batch = RunBatch(tau=tau, overrun=overrun, output=total / target,
                     fresh_indices=fresh_indices,
                     fresh_iterates=fresh_iterates)
    if record:
        batch.traces = []
        for r in range(rows):
            last = int(tau[r])
            batch.traces.append(RunTrace(
                indices=index_stream(r).integers(0, n, size=last),
                fresh=fresh[:last, r].copy(), iterates=iterates[:last, r].copy(),
                noise_norms=noise_norms[:last, r].copy(), tau=last,
                output=None if overrun[r] else batch.output[r]))
    return batch


def estimate_regret(trace, dataset, comparator, config):
    """Sum over fresh steps of f(w_t, x_t) - f(u, x_t).

    Stale steps contribute nothing: their loss is a pure noise linear term
    with zero mean, so only the fresh-step losses carry signal.

    trace is a RunTrace with its (features, labels) dataset, giving a float,
    or a RunBatch with the stacked (R, n, d), (R, n) arrays it ran on,
    giving an (R,) array that is NaN in overrun rows.
    """
    u = np.asarray(comparator, dtype=float)
    if not config.feasible_set.contains(u):
        raise ConfigurationError("estimate_regret: comparator lies outside the set")
    features, labels = (np.asarray(a, dtype=float) for a in dataset)
    idx = trace.fresh_indices
    x = np.take_along_axis(features, idx[..., None], axis=-2)
    y = np.take_along_axis(labels, idx, axis=-1)
    z = np.einsum("...i,...i->...", trace.fresh_iterates, x)
    oracle = config.oracle
    total = (oracle.loss_at(z, y) - oracle.batch_values(u, x, y)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


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
    holdout_size: int


def _row_sum(weights, features):
    """weights.T @ features for (m,) or (m, k) weights and (m, d) features.

    One BLAS call over all m rows may split the sum between threads, and
    then its last bits depend on the thread count. Here each BLAS call
    covers one block of rows with at most SUM_BLOCK_ENTRIES feature
    entries, small enough for BLAS to run it on one thread, and the blocks
    are added in a fixed order, so the bits do not depend on the thread
    count. Shape (d,) for (m,) weights, else (k, d).
    """
    m, d = features.shape
    rows = max(1, SUM_BLOCK_ENTRIES // d)
    whole = m - m % rows
    weights_2d = weights.reshape(m, -1)
    blocks = np.matmul(weights_2d[:whole].reshape(-1, rows, weights_2d.shape[1])
                       .transpose(0, 2, 1), features[:whole].reshape(-1, rows, d))
    total = blocks.sum(axis=0) + weights_2d[whole:].T @ features[whole:]
    return total.reshape(weights.shape[1:] + (d,))


def baseline_minimizer(population, oracle, feasible_set, budget_steps, seed=0):
    """Non-private reference point: a certified minimizer of a holdout's risk.

    Draws a holdout of m = max(10^5, budget_steps) points and minimizes
    its empirical risk F_m over the feasible set K by accelerated projected
    gradient (FISTA, Beck & Teboulle 2009) on the whole (m, d) holdout:
    each step is the two matvecs X @ v and X' @ s / m. Hinge and absolute
    losses are replaced by their Huber smoothing F_mu
    (LossOracle.smoothed_slope_at, Nesterov 2005) with mu the stopping
    target below, so F_mu <= F_m <= F_mu + mu/2; the squared loss is
    already smooth and takes mu = 0. The step size is 1/beta with beta =
    lambda_max(X'X/m)/mu (lambda_max(X'X/m) for squared): labels lie in
    [-1, 1], so beta bounds the curvature of every smoothed loss.

    Certificate. For w in K and g the gradient of F_mu at w, convexity of
    F_mu gives
        F_m(w) - min_K F_m <= mu/2 + F_mu(w) - min_K F_mu <= mu/2 + gap(w),
    with the Frank-Wolfe gap gap(w) = max_{u in K} <g, w - u>
    (FeasibleSet.frank_wolfe_gap). The bound holds whatever the step size,
    so the result's accuracy rests on it alone. It is computed every
    CERTIFICATE_EVERY steps, and the run stops once it is at most
    D*L/(10*sqrt(m)), a tenth of the statistical term. budget_steps caps
    the steps; a run that reaches the cap reports the certificate it has.

    error_bound = D*L/sqrt(m) + certificate bounds the population excess
    risk F(w) - F(w*) of the result w in expectation over the holdout, with
    w* the minimizer of the population risk F over K. Split
        F(w) - F(w*) = [F(w) - F_m(w)] + [F_m(w) - F_m(w*)] + [F_m(w*) - F(w*)].
    The middle term is at most the certificate, and the last has mean 0
    since w* is fixed. The first is at most sup_K (F - F_m), whose mean is
    at most twice the Rademacher complexity of the loss class
    (symmetrization). Every loss is L_phi-Lipschitz in the margin z over K:
    L_phi = 1 for hinge and absolute as |y| <= 1, and |z - y| <= W*X + 1
    for squared, with X the feature norm bound and W the largest norm on K.
    Talagrand's contraction bounds the complexity by L_phi times that of
    {x -> <w, x> : w in K}. K lies in a ball of radius D/2 about some
    centre c, whose own term has mean 0, so that complexity is at most
    (D/2)*X/sqrt(m) (Bartlett & Mendelson 2002). In total
    2*L_phi*(D/2)*X/sqrt(m) = D*L/sqrt(m), as lipschitz_certificate gives
    L = L_phi*X for all three losses and both set kinds. The bound is in
    expectation, not a high-probability bound.
    """
    if budget_steps < 10_000:
        raise ConfigurationError("baseline_minimizer: budget_steps must be >= 10^4")
    holdout_size = max(100_000, budget_steps)
    D = feasible_set.diameter()
    L = oracle.lipschitz_L
    d = feasible_set.dimension
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x6261]))
    features, labels = draw_arrays(population, holdout_size, rng)

    statistical = D * L / math.sqrt(holdout_size)
    target = statistical / 10.0
    mu = 0.0 if oracle.kind == SQUARED else target
    curvature = float(np.linalg.eigvalsh(_row_sum(features, features) / holdout_size)[-1])
    step = (mu or 1.0) / curvature

    def gradient(w):
        slopes = oracle.smoothed_slope_at(features @ w, labels, mu)
        return _row_sum(slopes, features) / holdout_size

    project = feasible_set.project_rows
    w = y = project(np.zeros(d))
    t = 1.0
    for k in range(1, budget_steps + 1):
        w_next = project(y - step * gradient(y))
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, t = w_next, t_next
        if k % CERTIFICATE_EVERY == 0 or k == budget_steps:
            certificate = mu / 2.0 + feasible_set.frank_wolfe_gap(w, gradient(w))
            if certificate <= target:
                break

    return BaselineResult(w=w, error_bound=statistical + certificate,
                          budget_steps=budget_steps, holdout_size=holdout_size)
