"""Noisy projected SGD with a fresh-sample stopping rule, plus utility probes.

The main loop draws a uniform dataset index each step. The first time an
index appears, a subgradient is computed at the current iterate and the
update uses gradient + Gaussian noise; on repeat draws the update is
noise-only. The run halts once more than half the indices have been seen,
and outputs the average of the iterates held at the fresh steps.

Noise convention: sigma is the per-coordinate standard deviation, i.e.
noise is N(0, sigma^2 * I). This matches the accountant in privacy.py.

The index stream does not depend on the iterates, so a run's indices are
drawn up front as one block of max_steps draws, and its stopping time and
fresh steps are read off that block with sampler.first_arrivals (the
computation simulate_tau uses). Only the projected-step recursion is
sequential. private_sgd_batch runs it for R runs at once (repeats that
differ in seed and dataset) on (R, d) arrays, each row frozen once past its
own stopping time; private_sgd is its R = 1 case. Each run draws its noise
from its own generator in chunks of NOISE_CHUNK_STEPS steps. The values
equal one standard_normal(d) draw per step, and memory stays O(R * chunk * d)
rather than O(R * max_steps * d). Every run is reproducible from its seed
alone, whatever batch it runs in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OverrunError
# mirror_step, sample_index and draw_dataset are not called here; they stay
# importable from this module because perfbench/spans.py wraps them by name.
from .geometry import mirror_step  # noqa: F401
from .losses import draw_arrays, draw_dataset  # noqa: F401
from .sampler import first_arrivals, fresh_target, sample_index  # noqa: F401

DEFAULT_MAX_STEPS_FACTOR = 4
NOISE_CHUNK_STEPS = 128


@dataclass(frozen=True)
class RunConfig:
    """Full parameterization of one private run.

    max_steps defaults to 4n; exceeding it raises OverrunError rather than
    silently truncating (the stopping rule makes overrun exponentially
    unlikely at that cap).
    """

    n: int
    d: int
    eta: float
    sigma: float
    feasible_set: object
    oracle: object
    w1: np.ndarray
    seed: int
    max_steps: int = None

    def resolved_max_steps(self):
        if self.max_steps is None:
            return DEFAULT_MAX_STEPS_FACTOR * self.n
        return self.max_steps

    def validate(self):
        if self.n < 1:
            raise ConfigurationError(f"RunConfig: n must be >= 1, got {self.n}")
        if self.d != self.feasible_set.dimension:
            raise ConfigurationError(
                f"RunConfig: d={self.d} != set dimension {self.feasible_set.dimension}"
            )
        if not math.isfinite(self.eta) or self.eta <= 0:
            raise ConfigurationError(
                f"RunConfig: eta must be finite and positive, got {self.eta}")
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ConfigurationError(
                f"RunConfig: sigma must be finite and >= 0, got {self.sigma}")
        if self.resolved_max_steps() < self.n:
            raise ConfigurationError("RunConfig: max_steps must be at least n")
        w1 = np.asarray(self.w1, dtype=float)
        if w1.shape != (self.d,):
            raise ConfigurationError("RunConfig: w1 does not match dimension d")
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

    tau             (R,) steps taken; max_steps in rows that overran
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
    eval_samples: int


def run_streams(seed):
    """Two independent generators (index draws, noise draws) from one seed.

    Keeping the streams separate means the sampled index sequence is
    invariant to sigma, so noisy and noiseless runs with the same seed see
    the same data order.
    """
    idx_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(idx_ss), np.random.default_rng(noise_ss)


def private_sgd(config, dataset):
    """Run the private optimizer on a dataset of exactly config.n points.

    dataset is a (features, labels) pair of shape (n, d) and (n,). Each
    step: draw an index; if unseen, step against the noisy subgradient at
    the current iterate and mark it seen; otherwise step against noise
    alone. Every step is projected back onto the feasible set.

    Returns a RunTrace whose output is the average of the iterates at fresh
    steps (the iterate the subgradient was evaluated at, not the updated
    one). Fully deterministic given config.seed; the R = 1 case of
    private_sgd_batch.

    Raises OverrunError (carrying the partial trace) if the stopping rule
    has not fired within max_steps.
    """
    features, labels = dataset
    batch = private_sgd_batch(config, [config.seed],
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

    Row r is the run of config with seed seeds[r] (config.seed is not used)
    on the dataset (features[r], labels[r]); features is (R, n, d) and
    labels (R, n). Each row gives the same result as running it alone.

    Inputs are checked once here rather than per step: the config
    (RunConfig.validate), the array shapes, and finite features and labels.
    record=True also keeps every iterate and noise norm, O(R * max_steps * d)
    memory, and returns them as per-row RunTraces.
    """
    config.validate()
    n, d, rows = config.n, config.d, len(seeds)
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
    max_steps = config.resolved_max_steps()
    target = fresh_target(n)

    # Index streams, stopping times and fresh steps, before any iterate.
    streams = [run_streams(seed) for seed in seeds]
    indices = np.stack([idx_rng.integers(0, n, size=max_steps) for idx_rng, _ in streams])
    arrivals = [first_arrivals(row)[:target] for row in indices]
    overrun = np.array([a.size < target for a in arrivals])
    tau = np.array([a[-1] + 1 if a.size == target else max_steps for a in arrivals])
    steps = int(tau.max())

    # Rows sorted by falling tau, so the rows still running at step t are a
    # prefix of the working arrays: running[t] of them.
    order = np.argsort(-tau, kind="stable")
    position = np.empty(rows, dtype=np.int64)
    position[order] = np.arange(rows)
    finished_by = np.searchsorted(np.sort(tau), np.arange(steps), side="right")
    running = (rows - finished_by).tolist()

    # Fresh steps of all rows as events grouped by step; bounds[t]:bounds[t+1]
    # are the events of step t.
    ev_step = np.concatenate(arrivals)
    ev_row = np.repeat(np.arange(rows), [a.size for a in arrivals])
    ev_slot = np.concatenate([np.arange(a.size) for a in arrivals])
    by_step = np.argsort(ev_step, kind="stable")
    ev_step, ev_row, ev_slot = ev_step[by_step], ev_row[by_step], ev_slot[by_step]
    ev_pos = position[ev_row]
    ev_data = ev_row * n + indices[ev_row, ev_step]
    ev_dest = ev_row * target + ev_slot
    bounds = np.searchsorted(ev_step, np.arange(steps + 1)).tolist()

    flat_x = features.reshape(rows * n, d)
    flat_y = labels.reshape(rows * n)
    fresh_iterates = np.full((rows * target, d), np.nan)
    fresh_indices = np.zeros(rows * target, dtype=np.int64)
    fresh_indices[ev_dest] = indices[ev_row, ev_step]
    noise_rngs = [streams[r][1] for r in order]
    eta, sigma = config.eta, config.sigma
    oracle, feasible_set = config.oracle, config.feasible_set
    w = np.tile(np.asarray(config.w1, dtype=float), (rows, 1))
    if record:
        iterates = np.empty((steps, rows, d))
        noise_norms = np.empty((steps, rows))

    for t in range(steps):
        k = running[t]
        if t % NOISE_CHUNK_STEPS == 0:
            chunk_start = t
            chunk = np.empty((min(NOISE_CHUNK_STEPS, steps - t), k, d))
            for j in range(k):
                chunk[:, j] = noise_rngs[j].standard_normal((chunk.shape[0], d))
            noise = sigma * chunk
            if record:
                noise_norms[t:t + chunk.shape[0], :k] = np.sqrt(
                    np.einsum("...i,...i->...", noise, noise))
        xi = noise[t - chunk_start, :k]
        if record:
            iterates[t, :k] = w[:k]
        lo, hi = bounds[t], bounds[t + 1]
        if lo < hi:
            at, data = ev_pos[lo:hi], ev_data[lo:hi]
            w_at = w[at]
            fresh_iterates[ev_dest[lo:hi]] = w_at
            g = xi.copy()
            g[at] = oracle.subgradient_rows(w_at, flat_x[data], flat_y[data]) + xi[at]
        else:
            g = xi
        w[:k] = feasible_set.project_rows(w[:k] - eta * g)

    # The fresh-iterate sum, accumulated in step order.
    fresh_iterates = fresh_iterates.reshape(rows, target, d)
    total = np.zeros((rows, d))
    for slot in range(target):
        total += fresh_iterates[:, slot]
    batch = RunBatch(tau=tau, overrun=overrun, output=total / target,
                     fresh_indices=fresh_indices.reshape(rows, target),
                     fresh_iterates=fresh_iterates)
    if record:
        batch.traces = []
        for r in range(rows):
            p, last = position[r], int(tau[r])
            fresh = np.zeros(last, dtype=bool)
            fresh[arrivals[r]] = True
            batch.traces.append(RunTrace(
                indices=indices[r, :last], fresh=fresh,
                iterates=iterates[:last, p].copy(),
                noise_norms=noise_norms[:last, p].copy(), tau=last,
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


def estimate_risk(w, population, oracle, eval_samples, rng=None):
    """Monte-Carlo mean and standard error of the loss at w on fresh draws."""
    if eval_samples < 1:
        raise ConfigurationError("estimate_risk: eval_samples must be >= 1")
    features, labels = draw_arrays(population, eval_samples, rng)
    values = oracle.batch_values(np.asarray(w, dtype=float), features, labels)
    mean = float(values.mean())
    if eval_samples == 1:
        return RiskEstimate(mean=mean, stderr=0.0, eval_samples=1)
    stderr = float(values.std(ddof=1) / math.sqrt(eval_samples))
    return RiskEstimate(mean=mean, stderr=stderr, eval_samples=eval_samples)


@dataclass(frozen=True)
class BaselineResult:
    """Non-private reference minimizer and a bound on its own suboptimality."""

    w: np.ndarray
    error_bound: float
    budget_steps: int
    holdout_size: int


def baseline_minimizer(population, oracle, feasible_set, budget_steps,
                       seed=0, holdout_size=None):
    """Averaged projected subgradient descent as a stand-in for the true optimum.

    Runs budget_steps of SGD with step size D/(L*sqrt(t)) over a held-out
    sample, returning the uniform iterate average. The reported error_bound
    combines the standard averaged-SGD guarantee (1.5*D*L/sqrt(T)) with a
    holdout-size term (D*L/sqrt(m)); callers should fold it into any bound
    they check against this reference point.
    """
    if budget_steps < 10_000:
        raise ConfigurationError("baseline_minimizer: budget_steps must be >= 10^4")
    if holdout_size is None:
        holdout_size = max(100_000, budget_steps)
    D = feasible_set.diameter()
    L = oracle.lipschitz_L
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x6261]))
    features, labels = draw_arrays(population, holdout_size, rng)
    # The same values one integers() draw and one step size per step give.
    picks = rng.integers(0, holdout_size, size=budget_steps).tolist()
    etas = (D / (L * np.sqrt(np.arange(1, budget_steps + 1)))).tolist()
    labels = labels.tolist()

    slope_at, project = oracle.slope_at, feasible_set.project
    w = project(np.zeros(feasible_set.dimension))
    average = np.zeros(feasible_set.dimension)
    for i, eta_t in zip(picks, etas):
        x = features[i]
        g = slope_at(float(w.dot(x)), labels[i]) * x
        average += w
        w = project(w - eta_t * g)
    average /= budget_steps

    error = 1.5 * D * L / math.sqrt(budget_steps) + D * L / math.sqrt(holdout_size)
    return BaselineResult(w=average, error_bound=error,
                          budget_steps=budget_steps, holdout_size=holdout_size)
