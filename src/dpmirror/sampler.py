"""Uniform index sampling, first arrivals, and stopping-time Monte Carlo.

The optimizer stops once more than half of the dataset indices have been
drawn at least once: its stopping time tau is the 1-based step at which
the (floor(n/2)+1)-th distinct index arrives. simulate_tau measures the
distribution of tau.

Both read tau off blocks of pre-drawn indices with stopping_times, on one
kernel, first_arrivals: a scatter-minimum of each draw's position onto its
(row, value) slot gives every value's first position in its row, and the
sorted slots are the row's first arrivals in step order. Both work on
(rows, steps) blocks: the optimizer passes all repeats of a cell at once
and simulate_tau a chunk of trials.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def sample_index(rng, n):
    """Uniform draw from {0, ..., n-1}."""
    if n < 1:
        raise ConfigurationError(f"sample_index: n must be >= 1, got {n}")
    return int(rng.integers(0, n))


def fresh_target(n):
    """Number of distinct indices needed before the run stops."""
    return n // 2 + 1


def expected_tau(n):
    """Exact mean stopping time: sum over k of n/(n-k), k = 0..floor(n/2).

    Each term is the expected wait for the next unseen index given k are
    already seen (partial coupon-collector sum).
    """
    return float(sum(n / (n - k) for k in range(n // 2 + 1)))


@dataclass
class TauStats:
    n: int
    trials: int
    tau_samples: np.ndarray

    @property
    def mean_tau(self):
        return float(self.tau_samples.mean())

    @property
    def max_tau(self):
        return int(self.tau_samples.max())

    @property
    def frac_exceed_2n(self):
        return float((self.tau_samples > 2 * self.n).mean())

    def summary(self):
        return {
            "n": self.n,
            "trials": self.trials,
            "mean_tau": self.mean_tau,
            "max_tau": self.max_tau,
            "frac_exceed_2n": self.frac_exceed_2n,
        }


# simulate_tau stacks its trials' first blocks into chunks of at most this
# many draws (32 KB of int64; one block when n >= 1024) for one
# first_arrivals call each. Larger chunks were slower and raised peak memory.
CHUNK_DRAWS = 1 << 12


def first_arrivals(draws, n):
    """First-arrival positions of each row of a (rows, steps) index block.

    draws holds values in {0, ..., n-1}. Returns a (rows, n) int64 array:
    row r lists, in increasing order, the positions at which row r draws a
    value for the first time, then steps once for each value it never
    draws. For an index stream these are the fresh steps, and the run stops
    after the step at column fresh_target(n) - 1, unless that entry is
    steps (the block is too short).
    """
    draws = np.asarray(draws)
    rows, steps = draws.shape
    first = np.full(rows * n, steps, dtype=np.int64)
    # Keys and positions go in flat and of equal length: on numpy 2.4,
    # ufunc.at with a 2-D index and a broadcast operand reads garbage.
    keys = (draws + np.arange(0, rows * n, n)[:, None]).ravel()
    np.minimum.at(first, keys, np.tile(np.arange(steps), rows))
    first = first.reshape(rows, n)
    first.sort(axis=1)
    return first


def stopping_times(draws, n):
    """(arrivals, tau) of each row of a (rows, steps) index block.

    arrivals is the (rows, fresh_target(n)) head of first_arrivals, the
    fresh steps in step order; tau is one past the last of them. A row whose
    block is too short holds steps in its missing arrivals and tau = steps + 1.
    """
    arrivals = first_arrivals(draws, n)[:, :fresh_target(n)]
    return arrivals, arrivals[:, -1] + 1


def _trial_stream(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, trial]))


def _tau_one_trial(n, rng):
    # Block-draws the index stream until the stopping time falls inside it;
    # redraws are vanishingly rare past 4n.
    block = max(4 * n, 8)
    draws = rng.integers(0, n, size=block)
    while True:
        tau = int(stopping_times(draws[None], n)[1][0])
        if tau <= draws.size:
            return tau
        draws = np.concatenate([draws, rng.integers(0, n, size=block)])


def simulate_tau(n, trials, seed):
    """Monte-Carlo sample of the stopping time over independent trials.

    Each trial uses its own generator derived from (seed, trial index), so
    trials are individually reproducible and order-independent. A trial
    draws its indices in blocks of max(4n, 8); the first blocks of up to
    CHUNK_DRAWS // block trials go through first_arrivals together. A
    trial needs a second block with vanishing probability; _tau_one_trial
    then walks its stream alone.
    """
    if n < 1:
        raise ConfigurationError(f"simulate_tau: n must be >= 1, got {n}")
    if trials < 1:
        raise ConfigurationError(f"simulate_tau: trials must be >= 1, got {trials}")
    block = max(4 * n, 8)
    per_chunk = max(1, CHUNK_DRAWS // block)
    samples = np.empty(trials, dtype=np.int64)
    draws = np.empty((per_chunk, block), dtype=np.int64)
    for start in range(0, trials, per_chunk):
        chunk = draws[:min(per_chunk, trials - start)]
        for row in range(len(chunk)):
            chunk[row] = _trial_stream(seed, start + row).integers(0, n, size=block)
        tau = stopping_times(chunk, n)[1]
        samples[start:start + len(chunk)] = tau
        # The rare trial whose first block holds too few distinct values is
        # replayed from the start of its stream, block by block.
        for row in np.flatnonzero(tau > block):
            samples[start + row] = _tau_one_trial(n, _trial_stream(seed, start + row))
    return TauStats(n=n, trials=trials, tau_samples=samples)
