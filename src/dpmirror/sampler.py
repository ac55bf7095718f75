"""Uniform index sampling, first arrivals, and stopping-time Monte Carlo.

The optimizer stops once more than half of the dataset indices have been
drawn at least once. simulate_tau measures the distribution of that
stopping time: the first step at which the count of distinct draws exceeds
floor(n/2), i.e. the arrival of the (floor(n/2)+1)-th distinct index.

Both read the stopping time off blocks of pre-drawn indices with one
kernel, first_arrivals: a scatter-minimum of each draw's position onto its
(row, value) slot gives every value's first position in its row, and the
sorted slots are the row's first arrivals in step order. It works on
(rows, steps) blocks, so the optimizer passes all repeats of a cell at
once and simulate_tau a chunk of trials.
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


def _trial_stream(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, trial]))


def _tau_one_trial(n, target, rng):
    # Block-draws the index stream and reads off the arrival time of the
    # target-th distinct value; redraws are vanishingly rare past 4n.
    block = max(4 * n, 8)
    draws = rng.integers(0, n, size=block)
    while True:
        arrival = first_arrivals(draws[None], n)[0, target - 1]
        if arrival < draws.size:
            return int(arrival) + 1
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
    target = fresh_target(n)
    block = max(4 * n, 8)
    per_chunk = max(1, CHUNK_DRAWS // block)
    samples = np.empty(trials, dtype=np.int64)
    draws = np.empty((per_chunk, block), dtype=np.int64)
    for start in range(0, trials, per_chunk):
        chunk = draws[:min(per_chunk, trials - start)]
        for row in range(len(chunk)):
            chunk[row] = _trial_stream(seed, start + row).integers(0, n, size=block)
        arrival = first_arrivals(chunk, n)[:, target - 1]
        samples[start:start + len(chunk)] = arrival + 1
        # The rare trial whose first block holds too few distinct values is
        # replayed from the start of its stream, block by block.
        for row in np.flatnonzero(arrival == block):
            samples[start + row] = _tau_one_trial(n, target, _trial_stream(seed, start + row))
    return TauStats(n=n, trials=trials, tau_samples=samples)
