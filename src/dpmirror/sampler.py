"""Uniform index sampling, stopping times, and stopping-time Monte Carlo.

The optimizer stops once more than half of the dataset indices have been
drawn at least once: its stopping time tau is the 1-based step at which
the (floor(n/2)+1)-th distinct index arrives. simulate_tau measures the
distribution of tau.

The optimizer and simulate_tau read tau on one path, draw_stopping_times:
each row (a run, or a trial) draws a first block of about 3n/4 indices
from its own stream, stopping_times reads all rows at once, and only the
rare row whose tau falls past its block draws more. Integer draws of one
generator concatenate (integers(0, n, a) then integers(0, n, b) equals
integers(0, n, a + b)), so tau does not depend on how a stream is cut into
blocks.
"""

import math
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


def stopping_times(draws, n):
    """(arrivals, tau) of each row of a (rows, steps) index block.

    draws holds values in {0, ..., n-1}. Row r of arrivals lists the first
    fresh_target(n) steps at which row r draws a value for the first time,
    in step order, and tau is one past the last of them. A row whose block
    is too short holds steps in its missing arrivals and tau = steps + 1.

    A scatter-minimum of each draw's position onto its (row, value) slot
    gives every value's first position in its row; sorting the slots puts
    them in step order. The whole row is sorted: np.partition at n//2 plus
    a sort of the head was slower at every n from 64 to 4096.
    """
    rows, steps = draws.shape
    first = np.full(rows * n, steps, dtype=np.int64)
    # Keys and positions go in flat and of equal length: on numpy 2.4,
    # ufunc.at with a 2-D index and a broadcast operand reads garbage.
    keys = (draws + np.arange(0, rows * n, n)[:, None]).ravel()
    np.minimum.at(first, keys, np.tile(np.arange(steps), rows))
    first = first.reshape(rows, n)
    first.sort(axis=1)
    arrivals = first[:, :fresh_target(n)]
    return arrivals, arrivals[:, -1] + 1


# A trial's first block. tau averages n ln 2 + O(1) < 0.7n with a standard
# deviation of about 0.55*sqrt(n), so 3n/4 + 4*sqrt(n) + 8 draws hold it
# over seven standard deviations past the mean: P(tau > first_block(n)) is
# 2.4e-4 at n = 2 and below 1e-6 from n = 16 on. Draws past tau are wasted,
# and a 4n block wasted most of its draws and its stopping_times work.
def first_block(n):
    return (3 * n) // 4 + 4 * math.isqrt(n) + 8


# simulate_tau stacks its trials' first blocks into chunks of at most this
# many draws (128 KB of int64) for one stopping_times call each. On n in
# {16, ..., 1024}, 2**13 and 2**15 were both slower.
CHUNK_DRAWS = 1 << 14

_MASK64 = (1 << 64) - 1


class TrialStreams:
    """The index streams of trials 0..trials-1 under one seed, seeded once.

    Trial t's stream is default_rng(SeedSequence([seed, t])). Building that
    generator takes about six times as long as restoring a saved state, so
    the constructor builds each one once and keeps only its PCG64 state:
    the 128-bit state and increment as four uint64 words, 32 bytes per
    trial. stream(t) restores row t into one reused Generator, which then
    draws exactly what the freshly built generator would.
    """

    def __init__(self, seed, trials):
        self.seed = seed
        self.trials = trials
        self._packed = np.empty((trials, 4), dtype=np.uint64)
        for trial in range(trials):
            state = np.random.PCG64(np.random.SeedSequence([seed, trial])).state["state"]
            self._packed[trial] = (state["state"] >> 64, state["state"] & _MASK64,
                                   state["inc"] >> 64, state["inc"] & _MASK64)
        self._bit_generator = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bit_generator)

    def stream(self, trial):
        """Trial's generator at the start of its stream.

        The one Generator is shared: a later stream() call moves it.
        """
        hi, lo, inc_hi, inc_lo = self._packed[trial].tolist()
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}
        return self._rng


def draw_stopping_times(n, stream, draws, cap=math.inf):
    """(arrivals, tau) of rows of index streams, read off their first blocks.

    stream(r) returns row r's generator at the start of its stream. Row r
    of draws, a caller-owned (rows, block) int64 buffer, gets the first
    block of stream r, and one stopping_times call reads all rows. A row
    whose tau falls past its block is redrawn alone from its stream start,
    in blocks of max(4n, 8), until tau falls inside or cap draws are used.
    A row that has not stopped within cap draws holds cap in its missing
    arrivals and gets tau = cap + 1.
    """
    rows, block = draws.shape
    for row in range(rows):
        draws[row] = stream(row).integers(0, n, size=block)
    arrivals, tau = stopping_times(draws, n)
    for row in np.flatnonzero(tau > block):
        rng, drawn = stream(row), np.empty(0, dtype=np.int64)
        while tau[row] > drawn.size and drawn.size < cap:
            more = rng.integers(0, n, size=min(max(4 * n, 8), cap - drawn.size))
            drawn = np.concatenate([drawn, more])
            row_arrivals, row_tau = stopping_times(drawn[None], n)
            arrivals[row], tau[row] = row_arrivals[0], row_tau[0]
    return arrivals, tau


def simulate_tau(n, trials, seed, streams=None):
    """Monte-Carlo sample of the stopping time over independent trials.

    Trial t draws its indices from its own stream,
    default_rng(SeedSequence([seed, t])), so trials are individually
    reproducible and order-independent. streams, a TrialStreams(seed,
    trials), holds those streams seeded once (32 bytes of packed state per
    trial); pass one to share it between several n, or leave it None to
    build one here.

    Each trial draws a first block of first_block(n) indices, about 3n/4.
    draw_stopping_times reads up to CHUNK_DRAWS // first_block(n) trials at
    a time into one reused buffer, and replays the rare trial whose tau
    falls past its first block (probability at most 2.4e-4, below 1e-6 for
    n >= 16) along its own stream.
    """
    if n < 1:
        raise ConfigurationError(f"simulate_tau: n must be >= 1, got {n}")
    if trials < 1:
        raise ConfigurationError(f"simulate_tau: trials must be >= 1, got {trials}")
    if streams is None:
        streams = TrialStreams(seed, trials)
    elif (streams.seed, streams.trials) != (seed, trials):
        raise ConfigurationError(
            f"simulate_tau: streams are for seed {streams.seed} and "
            f"{streams.trials} trials, not {seed} and {trials}")
    block = first_block(n)
    per_chunk = max(1, CHUNK_DRAWS // block)
    samples = np.empty(trials, dtype=np.int64)
    draws = np.empty((per_chunk, block), dtype=np.int64)
    for start in range(0, trials, per_chunk):
        chunk = draws[:min(per_chunk, trials - start)]
        samples[start:start + len(chunk)] = draw_stopping_times(
            n, lambda row: streams.stream(start + row), chunk)[1]
    return TauStats(n=n, trials=trials, tau_samples=samples)
