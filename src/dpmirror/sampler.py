"""Uniform index sampling, stopping times, stopping-time Monte Carlo, seeding.

The optimizer stops once more than half of the dataset indices have been
drawn at least once: its stopping time tau is the 1-based step at which
the (floor(n/2)+1)-th distinct index arrives. The optimizer and
simulate_tau (TAU_BLOCK_TRIALS trials at a time) read tau on one path,
draw_stopping_times: each row (a run, or a trial) is read as a block of
indices from the start of its own PCG64 stream, first about 0.7n of
them, and stopping_times reads a chunk of rows at once, in working
arrays that each round of a read allocates once and every chunk fills
in place. The rare row whose tau falls past its block is read again from
its stream start, with a longer block, on the same path, until it stops.
A block of integer draws is a prefix of every longer block from the same
start, so tau does not depend on the block length.

Every seed in dpmirror becomes its streams here: _generate_state repeats
numpy's SeedSequence as array arithmetic, one entropy column per stream
(simulate_tau's trials, the engine's index and noise streams, the
harness's data streams and run seeds, the audit's stream), and
TrialStreams keeps each stream as the generate_state words its PCG64 is
seeded from. Blocks need no Generator: they are decoded from a bare
PCG64's raw 64-bit words with the bounded-integer method numpy's integers
uses (Lemire, "Fast random integer generation in an interval", ACM TOMACS
2019).
"""

import functools
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


def chunk_work(rows, steps, n):
    """stopping_times' working arrays for chunks of up to rows rows of steps
    draws each: the (rows*n) scatter table, the (rows*steps) keys, and two
    constant (rows*steps) arrays, each draw's step within its row and its
    row's offset in the table (a flat add of offsets runs about twice as
    fast as a broadcast column)."""
    return (np.empty(rows * n, dtype=np.int64), np.empty(rows * steps, dtype=np.int64),
            np.tile(np.arange(steps), rows), np.repeat(np.arange(0, rows * n, n), steps))


def stopping_times(draws, n, arrivals, work):
    """(arrivals, tau) of each row of a (rows, steps) index block.

    draws holds values in {0, ..., n-1}. Row r of arrivals lists the first
    fresh_target(n) steps at which row r draws a value for the first time,
    in step order, and tau is one past the last of them. A row whose block
    is too short holds steps in its missing arrivals and tau = steps + 1.
    Without arrivals, (None, tau). work is chunk_work(rows', steps, n) for
    some rows' >= rows, filled in place; arrivals is a view into it, which
    the next call overwrites.

    A scatter-minimum of each draw's position onto its (row, value) slot
    gives every value's first position in its row. tau alone is one past
    the (n//2+1)-th smallest of them, an exact integer order statistic,
    which np.partition at n//2 selects (about 4x faster than a sort at
    n = 4096). Arrivals sort the whole row: np.partition at n//2 plus a
    sort of the head was slower at every n from 64 to 4096.
    """
    rows, steps = draws.shape
    first, keys, positions, offsets = work
    first, keys = first[:rows * n], keys[:rows * steps]
    first.fill(steps)
    # Keys and positions go in flat and of equal length: on numpy 2.4,
    # ufunc.at with a 2-D index and a broadcast operand reads garbage.
    np.add(draws.ravel(), offsets[:rows * steps], out=keys)
    np.minimum.at(first, keys, positions[:rows * steps])
    first = first.reshape(rows, n)
    last = fresh_target(n) - 1
    if not arrivals:
        first.partition(last, axis=1)
        return None, first[:, last] + 1
    first.sort(axis=1)
    return first[:, :last + 1], first[:, last] + 1


# A row's first block. tau averages n ln 2 + O(1) with a standard
# deviation of about 0.55*sqrt(n), so 7n/10 + 2*sqrt(n) + 4 draws hold all
# but a few rows in a thousand: P(tau > first_block(n)) is 1.6e-2 at n = 2,
# 1.1e-3 at n = 16, at most 3.2e-3 (at n = 24) from n = 16 to 1024, and
# 6.4e-5 at n = 1024. A row past it is read again from its stream start
# with twice the block. Counting that second read, a row's expected draws
# are fewer than with the earlier 3n/4 + 4*sqrt(n) + 8 at every n: 36% at
# n = 16, 19% at 256 and 13% at 1024. Draws past tau are wasted.
def first_block(n):
    return (7 * n) // 10 + 2 * math.isqrt(n) + 4


# draw_stopping_times stacks blocks into chunks of at most this many draws
# (128 KB of int64) for one stopping_times call each; simulate_tau was
# slower at 2**13 and 2**15 (n in {16, ..., 1024}). A chunk's arrays reach
# glibc's 128 KiB mmap threshold, so a round makes them once: made per
# chunk, they were faulted in anew unless the threshold had risen (about 54
# page faults a chunk at n = 1024), and simulate_tau's time followed it.
CHUNK_DRAWS = 1 << 14

# simulate_tau seeds this many trials at a time: seeding costs about 230
# bytes a trial, so a block holds about 1 MB whatever the trial count.
TAU_BLOCK_TRIALS = 1 << 12


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


@functools.cache
def _seed_words():
    """SeedWords, numpy's ISeedSequence for a stream's generate_state(4,
    uint64) words. It is defined when the first TrialStreams is built, so
    that import dpmirror leaves numpy.random unimported."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """A stream's SeedSequence as PCG64 reads it: the (4,) uint64 words
        of its generate_state(4, uint64). PCG64 seeds itself from the words
        in C; a subclass passes its isinstance check faster than a
        registered class."""

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            """The words as held (no slice: a fifth of a build), for PCG64's (4, uint64)."""
            if n_words == 4 and dtype is np.uint64:
                return self.words
            raise ValueError(f"SeedWords holds 4 uint64 words, not generate_state("
                             f"{n_words}, {dtype})")

    return SeedWords


class TrialStreams:
    """Streams as the generate_state(4, uint64) words of their
    SeedSequences, 32 bytes a row. bit_generator(r) builds row r's PCG64 at
    its stream start, PCG64(SeedWords(words)), and stream(r) wraps it in a
    Generator, which draws what default_rng of that SeedSequence draws.
    No other code in dpmirror builds a PCG64 or a Generator."""

    def __init__(self, words):
        words.flags.writeable = False   # SeedWords hands PCG64 views of it
        self._words = words
        self._seed_words = _seed_words()

    def __len__(self):
        return len(self._words)

    def bit_generator(self, row):
        return np.random.PCG64(self._seed_words(self._words[row]))

    def stream(self, row):
        return np.random.Generator(self.bit_generator(row))


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


def fill_blocks(n, streams, rows, draws, words):
    """Fill row i of draws with streams.stream(rows[i]).integers(0, n,
    draws.shape[1]), with words, a uint64 array of at least len(rows) *
    ceil(draws.shape[1] / 2) elements, for the raw words; rows holds Python
    ints, which bit_generator reads faster than numpy integers.

    For n <= 2**32, integers(0, n) is Lemire's method on 32-bit outputs of
    the row's PCG64, low half of each 64-bit word first: output x gives
    index (x * n) >> 32, unless (x * n) mod 2**32 < 2**32 mod n rejects it
    for the next output. So each row reads ceil(block / 2) raw words, and
    all rows are decoded at once; a row with a rejection in its block, and
    every row when n > 2**32, draws through integers.
    """
    count, block = draws.shape
    redraw = range(count)
    if n <= 1 << 32:
        size = (block + 1) // 2
        words = np.concatenate([streams.bit_generator(row).random_raw(size) for row in rows],
                               out=words[:count * size])
        scaled = draws.view(np.uint64)
        np.multiply(words.reshape(count, size).astype("<u8", copy=False).view("<u4")[:, :block],
                    np.uint64(n), out=scaled)
        threshold = (1 << 32) % n
        if threshold:   # a row's least (x * n) mod 2**32, read from its low halves
            low = scaled.astype("<u8", copy=False).view("<u4")[:, ::2].min(axis=1)
            redraw = np.flatnonzero(low < threshold)
        else:
            redraw = []
        scaled >>= np.uint64(32)
    for i in redraw:
        draws[i] = streams.stream(rows[i]).integers(0, n, size=block)


def draw_stopping_times(n, streams, fresh=False):
    """tau of each row of a TrialStreams; with fresh, (tau, arrivals, indices).

    Each round reads rows from their stream start, CHUNK_DRAWS // block of
    them (at least one) at a time, for one stopping_times call a chunk:
    round 1 every row with first_block(n) draws, each later round again
    each row whose tau fell past its block, with twice that block
    (first_block and CHUNK_DRAWS are read at call time). A round allocates
    one set of chunk arrays, the blocks and chunk_work's, and every chunk
    of it fills them in place; the arrays returned are copies out of them.
    Only fresh keeps arrivals, the (rows, n//2+1) steps of each row's first
    draws of a value, and indices, the values drawn there.
    """
    rows, target = len(streams), fresh_target(n)
    tau = np.empty(rows, dtype=np.int64)
    if fresh:
        # Two arrays, so that the engine can free arrivals and keep indices.
        arrivals, indices = (np.empty((rows, target), dtype=np.int64) for _ in range(2))
    pending, block = np.arange(rows), first_block(n)
    while pending.size:
        per_chunk = max(1, CHUNK_DRAWS // block)
        count = min(per_chunk, pending.size)
        draws, work = np.empty((count, block), dtype=np.int64), chunk_work(count, block, n)
        # The keys hold fill_blocks' raw words until stopping_times builds them.
        words = work[1].view(np.uint64)
        for start in range(0, pending.size, per_chunk):
            chunk_rows = pending[start:start + per_chunk]
            chunk = draws[:len(chunk_rows)]
            fill_blocks(n, streams, chunk_rows.tolist(), chunk, words)
            chunk_arrivals, tau[chunk_rows] = stopping_times(chunk, n, fresh, work)
            if fresh:   # a row read again later gets its values then
                arrivals[chunk_rows] = chunk_arrivals
                indices[chunk_rows] = np.take_along_axis(
                    chunk, np.minimum(chunk_arrivals, block - 1, out=chunk_arrivals), 1)
        pending = pending[tau[pending] > block]
        block *= 2
    return (tau, arrivals, indices) if fresh else tau


def simulate_tau(n, trials, seed):
    """Monte-Carlo sample of the stopping time over independent trials.

    Trial t draws its indices from its own stream, the default_rng stream
    of SeedSequence entropy [seed, t], so trials are individually
    reproducible and order-independent. They are seeded (seeded_streams)
    and read by draw_stopping_times TAU_BLOCK_TRIALS at a time, so memory
    beyond the 8-byte-a-trial result does not grow with trials. seed must
    be a non-negative int and trials an int in [1, INDEXED_STREAMS], so that
    t is one uint32 word; anything else raises ConfigurationError.
    """
    n = check_count(n, "simulate_tau: n")
    seed = check_count(seed, "simulate_tau: seed", low=0, high=None)
    trials = check_count(trials, "simulate_tau: trials", high=INDEXED_STREAMS)
    tau = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, TAU_BLOCK_TRIALS):
        stop = min(start + TAU_BLOCK_TRIALS, trials)
        streams = seeded_streams(seed, np.arange(start, stop, dtype=np.uint32))
        tau[start:stop] = draw_stopping_times(n, streams)
    return TauStats(n=n, trials=trials, tau_samples=tau)
