"""Uniform index sampling, stopping times, stopping-time Monte Carlo, seeding.

The optimizer stops once more than half of the dataset indices have been
drawn at least once: its stopping time tau is the 1-based step at which
the (floor(n/2)+1)-th distinct index arrives. The optimizer and
simulate_tau read tau on one path, draw_stopping_times: each row (a run,
or a trial) is read as a block of indices from the start of its own PCG64
stream, first about 3n/4 of them, and stopping_times reads a chunk of
rows at once. The rare row whose tau falls past its block is read again
from its stream start, with a longer block, on the same path, until it
stops. A block of integer draws is a prefix of every longer block from
the same start, so tau does not depend on the block length.

Every seed in dpmirror becomes its streams here: _generate_state repeats
numpy's SeedSequence as array arithmetic, one entropy column per stream
(simulate_tau's trials, the engine's index and noise streams, the
harness's data streams and run seeds, the audit's stream), and
TrialStreams keeps each stream as the generate_state words its PCG64 is
seeded from. Blocks need no Generator call: they are decoded from raw
64-bit words with the bounded-integer method numpy's integers uses
(Lemire, "Fast random integer generation in an interval", ACM TOMACS
2019).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count

# A stream's index (a trial or a repeat) is one uint32 word of its entropy.
INDEXED_STREAMS = 1 << 32


def sample_index(rng, n):
    """Uniform draw from {0, ..., n-1}."""
    check_count(n, "sample_index: n")
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
        return {"n": self.n, "trials": self.trials, "mean_tau": self.mean_tau,
                "max_tau": self.max_tau, "frac_exceed_2n": self.frac_exceed_2n}


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


# A row's first block. tau averages n ln 2 + O(1) < 0.7n with a standard
# deviation of about 0.55*sqrt(n), so 3n/4 + 4*sqrt(n) + 8 draws hold it
# over seven standard deviations past the mean: P(tau > first_block(n)) is
# 2.4e-4 at n = 2 and below 1e-6 from n = 16 on. Draws past tau are wasted,
# and a 4n block wasted most of its draws and its stopping_times work. A
# row past it is read again from its stream start with a longer block.
def first_block(n):
    return (3 * n) // 4 + 4 * math.isqrt(n) + 8


# draw_stopping_times stacks blocks into chunks of at most this many draws
# (128 KB of int64) for one stopping_times call each. On n in
# {16, ..., 1024}, simulate_tau was slower at 2**13 and 2**15.
CHUNK_DRAWS = 1 << 14

# simulate_tau seeds about this many trials at a time, rounded down to whole
# row chunks (at least one): seeding costs about 230 bytes a trial, so a
# block holds about 1 MB whatever the trial count. At n = 16, blocks of
# exactly 4096 trials, each ending in a partial row chunk, were 15% slower.
TAU_BLOCK_TRIALS = 1 << 12


def rows_per_chunk(block):
    """Rows of block draws each that draw_stopping_times stacks into one chunk."""
    return max(1, CHUNK_DRAWS // block)


_MASK32 = (1 << 32) - 1

# numpy's SeedSequence constants (O'Neill's seed_seq_fe: hashmix, mix and
# generate_state).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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


def _words(value):
    """An int as SeedSequence reads it: its uint32 words, least significant first."""
    return [value >> 32 * k & _MASK32 for k in range(max(1, (value.bit_length() + 31) // 32))]


def _entropy(parts):
    """SeedSequence's entropy for [*parts] as (words, columns) uint32, one column
    per stream: an int part gives its words to every column, an array part one
    word (below 2**32) per column; zeros pad it to the pool's four words."""
    rows = [row for part in parts
            for row in ([part] if isinstance(part, np.ndarray) else _words(int(part)))]
    rows += [0] * (4 - len(rows))
    return np.array(np.broadcast_arrays(*rows), dtype=np.uint32).reshape(len(rows), -1)


def _generate_state(entropy):
    """SeedSequence's generate_state(4, uint64) for each entropy column, as a
    (columns, 4) uint64 array: the first four entropy words are hashed into
    the pool, each later word mixed into every pool word, and the pool
    hashed out in turn into eight uint32 words, which pair up low word first."""
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
    out = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class SeedWords:
    """A stream's SeedSequence as PCG64 reads it: the (4,) uint64 words of
    its generate_state(4, uint64). TrialStreams registers it as numpy's
    ISeedSequence when first built, so that import dpmirror leaves
    numpy.random unimported; PCG64 then seeds itself from the words in C."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        """SeedSequence's generate_state(n_words, dtype), for the uint64 words held."""
        if np.dtype(dtype) != np.uint64 or n_words > len(self.words):
            raise ValueError(f"SeedWords holds {len(self.words)} uint64 words")
        return self.words[:n_words]


class TrialStreams:
    """Streams as the generate_state(4, uint64) words of their
    SeedSequences, 32 bytes a row. stream(r) builds row r's Generator at its
    stream start, Generator(PCG64(SeedWords(words))), which draws what
    default_rng of that SeedSequence draws."""

    def __init__(self, words):
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(SeedWords)   # a no-op once registered
        words.flags.writeable = False   # SeedWords hands PCG64 views of it
        self._words = words

    def __len__(self):
        return len(self._words)

    def stream(self, row):
        return np.random.Generator(np.random.PCG64(SeedWords(self._words[row])))


def seeded_streams(*parts):
    """TrialStreams of the default_rng streams of SeedSequence entropy
    [*parts], one row per column of _entropy(parts)."""
    return TrialStreams(_generate_state(_entropy(parts)))


def derived_seeds(*parts):
    """SeedSequence's generate_state(1, uint64)[0] for entropy [*parts], the
    first of its generate_state(4, uint64) words, one int per column of
    _entropy(parts)."""
    return _generate_state(_entropy(parts))[:, 0].tolist()


def spawned_streams(seeds):
    """(child 0, child 1) TrialStreams: row r of child k is the default_rng
    stream of child k of SeedSequence.spawn(2) on seeds[r], whose entropy is
    the seed's words zero-padded to the pool size of 4, then k. Seeds of more
    than four words assemble longer entropy; each length is seeded apart."""
    words = [seed_words + [0] * (4 - len(seed_words))
             for seed_words in (_words(int(seed)) for seed in seeds)]
    width = np.array([len(seed_words) for seed_words in words])
    children = np.empty((2, len(words), 4), dtype=np.uint64)
    for size in set(width.tolist()):
        rows = np.flatnonzero(width == size)
        columns = np.array([words[r] for r in rows], dtype=np.uint32).T
        for key in (0, 1):
            children[key, rows] = _generate_state(_entropy([*columns, key]))
    return TrialStreams(children[0]), TrialStreams(children[1])


def fill_blocks(n, stream, draws):
    """Fill row r of draws with stream(r).integers(0, n, draws.shape[1]).

    stream(r) is row r's PCG64 Generator at its stream start. For n <= 2**32,
    integers(0, n) is Lemire's method on 32-bit outputs, low half of each
    64-bit word first: output x gives index (x * n) >> 32, unless (x * n)
    mod 2**32 < 2**32 mod n rejects it for the next output. So each row
    reads ceil(block / 2) raw words, and all rows are decoded at once; a
    row with a rejection in its block, and every row when n > 2**32, draws
    through integers.
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


def draw_stopping_times(n, streams, fresh=False):
    """tau of each row of a TrialStreams; with fresh, (tau, arrivals, indices).

    Each round reads rows from their stream start, rows_per_chunk(block)
    at a time, into one reused buffer of blocks (fill_blocks) for one
    stopping_times call: round 1 every row with first_block(n) draws, each
    later round again each row whose tau fell past its block, with twice
    that block (first_block and CHUNK_DRAWS are read at call time). Only
    fresh keeps arrivals, the (rows, n//2+1) steps of each row's first
    draws of a value, and indices, the values drawn there.
    """
    rows, target = len(streams), fresh_target(n)
    tau = np.empty(rows, dtype=np.int64)
    if fresh:
        # Two arrays, so that the engine can free arrivals and keep indices.
        arrivals, indices = (np.empty((rows, target), dtype=np.int64) for _ in range(2))
    pending, block = np.arange(rows), first_block(n)
    while pending.size:
        per_chunk = rows_per_chunk(block)
        draws = np.empty((min(per_chunk, pending.size), block), dtype=np.int64)
        for start in range(0, pending.size, per_chunk):
            chunk_rows = pending[start:start + per_chunk]
            chunk = draws[:len(chunk_rows)]
            ids = chunk_rows.tolist()   # stream() is slower on a numpy integer
            fill_blocks(n, lambda row: streams.stream(ids[row]), chunk)
            chunk_arrivals, tau[chunk_rows] = stopping_times(chunk, n)
            if fresh:   # a row read again later gets its values then
                arrivals[chunk_rows] = chunk_arrivals
                indices[chunk_rows] = np.take_along_axis(
                    chunk, np.minimum(chunk_arrivals, block - 1), 1)
        pending = pending[tau[pending] > block]
        block *= 2
    return (tau, arrivals, indices) if fresh else tau


def simulate_tau(n, trials, seed):
    """Monte-Carlo sample of the stopping time over independent trials.

    Trial t draws its indices from its own stream, the default_rng stream
    of SeedSequence entropy [seed, t], so trials are individually
    reproducible and order-independent. They are seeded (seeded_streams)
    and read by draw_stopping_times one block at a time: about
    TAU_BLOCK_TRIALS trials, a whole number of its row chunks. So memory
    beyond the 8-byte-a-trial result does not grow with trials. seed must
    be a non-negative int and trials an int in [1, INDEXED_STREAMS], so that
    t is one uint32 word; anything else raises ConfigurationError.
    """
    n = check_count(n, "simulate_tau: n")
    seed = check_count(seed, "simulate_tau: seed", low=0, high=None)
    trials = check_count(trials, "simulate_tau: trials", high=INDEXED_STREAMS)
    per_chunk = rows_per_chunk(first_block(n))
    block = per_chunk * max(1, TAU_BLOCK_TRIALS // per_chunk)
    tau = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        streams = seeded_streams(seed, np.arange(start, stop, dtype=np.uint32))
        tau[start:stop] = draw_stopping_times(n, streams)
    return TauStats(n=n, trials=trials, tau_samples=tau)
