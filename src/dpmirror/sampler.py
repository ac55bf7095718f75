"""Uniform index sampling, stopping times, and stopping-time Monte Carlo.

The optimizer stops once more than half of the dataset indices have been
drawn at least once: its stopping time tau is the 1-based step at which
the (floor(n/2)+1)-th distinct index arrives. simulate_tau measures the
distribution of tau.

The optimizer and simulate_tau read tau on one path, draw_stopping_times:
each row (a run, or a trial) draws a first block of about 3n/4 indices
from its own PCG64 stream, stopping_times reads all rows at once, and only
the rare row whose tau falls past its block draws more. Integer draws of
one generator concatenate (integers(0, n, a) then integers(0, n, b) equals
integers(0, n, a + b)), so tau does not depend on how a stream is cut into
blocks.

No per-row Generator call is needed on the common path. First blocks are
decoded from each stream's raw 64-bit words with the bounded-integer
method numpy's integers uses (Lemire, "Fast random integer generation in
an interval", ACM TOMACS 2019), and TrialStreams computes every trial's
SeedSequence and PCG64 seeding as array arithmetic. Both reproduce numpy
bit for bit, and numpy's own integers stays the path for any row the
shortcut does not cover.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def check_seed(seed, where):
    """Refuse all but a non-negative int seed (np.integer yes, bool no)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"{where}: seed must be a non-negative int, got {seed!r}")


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

_MASK32 = (1 << 32) - 1

# numpy's SeedSequence (O'Neill's seed_seq_fe: hashmix, mix and
# generate_state) and PCG64 seeding (pcg_setseq_128_srandom_r) constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(multiplier, step):
    """SeedSequence's hashmix over uint32 arrays; the multiplier moves per call."""
    def hashmix(value):
        nonlocal multiplier
        value = value ^ np.uint32(multiplier)
        multiplier = multiplier * step & _MASK32
        value = value * np.uint32(multiplier)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return result ^ (result >> np.uint32(16))


# 128-bit numbers are four 32-bit limbs, low first, each a uint64 array.
def _carry(columns):
    """Column sums (column k weighs 2**(32k)) as 32-bit limbs, mod 2**128."""
    limbs, carry = [], 0
    for column in columns:
        total = column + carry
        limbs.append(total & _MASK32)
        carry = total >> 32
    return limbs


def _mul128(a, constant):
    """a * constant mod 2**128."""
    columns = [0] * 4
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * ((constant >> 32 * j) & _MASK32)
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def _pcg64_states(seed, trials):
    """PCG64(SeedSequence([seed, t])) state for each t of a uint32 array, packed.

    Row i is [state >> 64, state & mask, inc >> 64, inc & mask] of trial
    trials[i], as uint64. SeedSequence hashes its entropy words (seed's
    uint32 words, least significant first, then t's one word) into a pool
    of four words and hashes those out as generate_state(4, uint64); PCG64
    then sets inc = (initseq << 1) | 1 and state = (inc + initstate) * M +
    inc, mod 2**128. Every step is fixed uint32 or 128-bit arithmetic, done
    here on one column per trial.
    """
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    # Entropy shorter than the pool hashes zeros into the rest of it.
    entropy = np.zeros((max(len(words) + 1, 4), len(trials)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = trials
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # generate_state's uint64 words k are out[2k] | out[2k + 1] << 32;
    # initstate = k0 << 64 | k1 and initseq = k2 << 64 | k3.
    initstate = [out[2], out[3], out[0], out[1]]
    initseq = [out[6], out[7], out[4], out[5]]
    inc = [(initseq[0] << 1 | 1) & _MASK32] + [
        (initseq[k] << 1 | initseq[k - 1] >> 31) & _MASK32 for k in (1, 2, 3)]
    start = _mul128(_carry([x + y for x, y in zip(inc, initstate)]), _PCG64_MULT)
    state = _carry([x + y for x, y in zip(start, inc)])
    packed = np.empty((len(trials), 4), dtype=np.uint64)
    for col, (hi, lo) in enumerate([(state[3], state[2]), (state[1], state[0]),
                                    (inc[3], inc[2]), (inc[1], inc[0])]):
        packed[:, col] = hi << 32 | lo
    return packed


class TrialStreams:
    """The index streams of trials 0..trials-1 under one seed, seeded once.

    Trial t's stream is default_rng(SeedSequence([seed, t])), a PCG64
    generator. The constructor computes every trial's PCG64 state at once
    with numpy's own seeding arithmetic (_pcg64_states) and keeps it packed:
    the 128-bit state and increment as four uint64 words, 32 bytes per
    trial. stream(t) restores row t into one reused Generator, which then
    draws exactly what the freshly built generator would.

    seed must be a non-negative int and trials an int in [1, 2**32], so
    that SeedSequence reads t as one uint32 word.
    """

    def __init__(self, seed, trials):
        check_seed(seed, "TrialStreams")
        if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
                or not 1 <= trials <= 1 << 32):
            raise ConfigurationError(
                f"TrialStreams: trials must be an int in [1, 2**32], got {trials!r}")
        self._packed = _pcg64_states(int(seed), np.arange(trials, dtype=np.uint32))
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


def fill_first_blocks(n, stream, draws):
    """Fill row r of draws with stream(r).integers(0, n, draws.shape[1]).

    stream(r) returns row r's generator, a PCG64 Generator at the start of
    its stream with no 32-bit half-word buffered. For n <= 2**32, numpy's
    integers(0, n) is Lemire's method on the stream's 32-bit outputs, the
    low half of each 64-bit word first: output x gives index (x * n) >> 32,
    unless (x * n) mod 2**32 < 2**32 mod n rejects it and the next output
    is used. So each row reads only ceil(block / 2) raw words, and all rows
    are decoded at once. A row with a rejected output in its block, and
    every row when n > 2**32, draws through integers.
    """
    rows, block = draws.shape
    redraw = range(rows)
    if n <= 1 << 32:
        words = np.empty((rows, (block + 1) // 2), dtype=np.uint64)
        for row in range(rows):
            words[row] = stream(row).bit_generator.random_raw(words.shape[1])
        scaled = draws.view(np.uint64)
        np.multiply(words.astype("<u8", copy=False).view("<u4")[:, :block],
                    np.uint64(n), out=scaled)
        threshold = (1 << 32) % n
        redraw = np.flatnonzero(((scaled & _MASK32) < threshold).any(axis=1)) if threshold else []
        scaled >>= np.uint64(32)
    for row in redraw:
        draws[row] = stream(row).integers(0, n, size=block)


def draw_stopping_times(n, stream, draws, cap=math.inf):
    """(arrivals, tau) of rows of index streams, read off their first blocks.

    stream(r) returns row r's generator at the start of its stream, as
    fill_first_blocks takes it. Row r of draws, a caller-owned (rows, block)
    int64 buffer, gets the first block of stream r, and one stopping_times
    call reads all rows. A row whose tau falls past its block is redrawn
    alone from its stream start, in blocks of max(4n, 8), until tau falls
    inside or cap draws are used. A row that has not stopped within cap
    draws holds cap in its missing arrivals and gets tau = cap + 1.
    """
    block = draws.shape[1]
    fill_first_blocks(n, stream, draws)
    arrivals, tau = stopping_times(draws, n)
    for row in np.flatnonzero(tau > block):
        rng, drawn = stream(row), np.empty(0, dtype=np.int64)
        while tau[row] > drawn.size and drawn.size < cap:
            more = rng.integers(0, n, size=min(max(4 * n, 8), cap - drawn.size))
            drawn = np.concatenate([drawn, more])
            row_arrivals, row_tau = stopping_times(drawn[None], n)
            arrivals[row], tau[row] = row_arrivals[0], row_tau[0]
    return arrivals, tau


def simulate_tau(n, trials, seed):
    """Monte-Carlo sample of the stopping time over independent trials.

    Trial t draws its indices from its own PCG64 stream,
    default_rng(SeedSequence([seed, t])), so trials are individually
    reproducible and order-independent. A TrialStreams(seed, trials) holds
    those streams, all seeded at once (32 bytes of packed state per trial).
    seed must be a non-negative int and trials an int in [1, 2**32];
    anything else raises ConfigurationError.

    Each trial draws a first block of first_block(n) indices, about 3n/4,
    decoded by Lemire's method from ceil(first_block(n) / 2) raw words of
    its stream (fill_first_blocks). draw_stopping_times reads up to
    CHUNK_DRAWS // first_block(n) trials at a time into one reused buffer,
    and replays the rare trial whose tau falls past its first block
    (probability at most 2.4e-4, below 1e-6 for n >= 16) along its own
    stream.
    """
    if n < 1:
        raise ConfigurationError(f"simulate_tau: n must be >= 1, got {n}")
    streams = TrialStreams(seed, trials)
    block = first_block(n)
    per_chunk = max(1, CHUNK_DRAWS // block)
    samples = np.empty(trials, dtype=np.int64)
    draws = np.empty((per_chunk, block), dtype=np.int64)
    for start in range(0, trials, per_chunk):
        chunk = draws[:min(per_chunk, trials - start)]
        samples[start:start + len(chunk)] = draw_stopping_times(
            n, lambda row: streams.stream(start + row), chunk)[1]
    return TauStats(n=n, trials=trials, tau_samples=samples)
