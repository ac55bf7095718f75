"""Uniform index sampling, stopping times, stopping-time Monte Carlo, seeding.

The optimizer stops once more than half of the dataset indices have been
drawn at least once: its stopping time tau is the 1-based step at which
the (floor(n/2)+1)-th distinct index arrives. The optimizer and
simulate_tau read tau on one path, draw_stopping_times: each row (a run,
or a trial) draws a first block of about 3n/4 indices from its own PCG64
stream, stopping_times reads all rows at once, and only the rare row whose
tau falls past its block draws more. Integer draws of one generator
concatenate, so tau does not depend on how a stream is cut into blocks.

Every seed in dpmirror becomes its streams here: _pcg64_states repeats
numpy's SeedSequence and PCG64 seeding bit for bit as array arithmetic,
one entropy column per stream (simulate_tau's trials, the engine's index
and noise streams, the harness's data streams and run seeds, the audit's
stream). TrialStreams keeps the states packed and restores one row at a
time into one reused Generator. First blocks need no Generator call: they
are decoded from raw 64-bit words with the bounded-integer method numpy's
integers uses (Lemire, "Fast random integer generation in an interval",
ACM TOMACS 2019).
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


# A trial's first block. tau averages n ln 2 + O(1) < 0.7n with a standard
# deviation of about 0.55*sqrt(n), so 3n/4 + 4*sqrt(n) + 8 draws hold it
# over seven standard deviations past the mean: P(tau > first_block(n)) is
# 2.4e-4 at n = 2 and below 1e-6 from n = 16 on. Draws past tau are wasted,
# and a 4n block wasted most of its draws and its stopping_times work.
def first_block(n):
    return (3 * n) // 4 + 4 * math.isqrt(n) + 8


# draw_stopping_times stacks first blocks into chunks of at most this many
# draws (128 KB of int64) for one stopping_times call each. On n in
# {16, ..., 1024}, simulate_tau was slower at 2**13 and 2**15.
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
    """SeedSequence's generate_state(8) for each entropy column, as eight
    uint64 arrays of uint32 words: the first four entropy words are hashed
    into the pool, each later word mixed into every pool word, and the pool
    hashed out in turn."""
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
    return [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]


def _pcg64_states(entropy):
    """The PCG64 state SeedSequence seeds from each column of an assembled
    (words, streams) uint32 entropy array, packed: row i is [state >> 64,
    state & mask, inc >> 64, inc & mask] of stream i, as uint64.

    PCG64 reads generate_state(4, uint64) and sets inc = (initseq << 1) | 1
    and state = (inc + initstate) * M + inc, mod 2**128.
    """
    out = _generate_state(entropy)
    # generate_state's uint64 words k are out[2k] | out[2k + 1] << 32;
    # initstate = k0 << 64 | k1 and initseq = k2 << 64 | k3.
    initstate = [out[2], out[3], out[0], out[1]]
    initseq = [out[6], out[7], out[4], out[5]]
    inc = [(initseq[0] << 1 | 1) & _MASK32] + [
        (initseq[k] << 1 | initseq[k - 1] >> 31) & _MASK32 for k in (1, 2, 3)]
    start = _mul128(_carry([x + y for x, y in zip(inc, initstate)]), _PCG64_MULT)
    state = _carry([x + y for x, y in zip(start, inc)])
    packed = np.empty((entropy.shape[1], 4), dtype=np.uint64)
    for col, (hi, lo) in enumerate([(state[3], state[2]), (state[1], state[0]),
                                    (inc[3], inc[2]), (inc[1], inc[0])]):
        packed[:, col] = hi << 32 | lo
    return packed


class TrialStreams:
    """Packed PCG64 streams (state and increment, 32 bytes a row) read through
    one shared Generator: stream(r) restores row r, which then draws what a
    generator seeded the same way would; standard_normal draws each row's
    next normals and stores its state back (normals buffer no half-word)."""

    def __init__(self, packed):
        self._packed = packed
        self._bit_generator = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bit_generator)

    def __len__(self):
        return len(self._packed)

    def stream(self, row):
        hi, lo, inc_hi, inc_lo = self._packed[row].tolist()
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}
        return self._rng

    def standard_normal(self, shape):
        """Each row's next standard_normal(shape), as (rows, *shape)."""
        out = np.empty((len(self), *shape))
        for row in range(len(self)):
            self.stream(row).standard_normal(out=out[row])
            state = self._bit_generator.state["state"]["state"]
            self._packed[row, :2] = divmod(state, 1 << 64)
        return out


def seeded_streams(*parts):
    """TrialStreams of the default_rng streams of SeedSequence entropy
    [*parts], one row per column of _entropy(parts)."""
    return TrialStreams(_pcg64_states(_entropy(parts)))


def derived_seeds(*parts):
    """SeedSequence's generate_state(1, uint64)[0] for entropy [*parts], one
    int per column of _entropy(parts)."""
    out = _generate_state(_entropy(parts))
    return (out[0] | out[1] << np.uint64(32)).tolist()


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
            children[key, rows] = _pcg64_states(_entropy([*columns, key]))
    return TrialStreams(children[0]), TrialStreams(children[1])


def fill_first_blocks(n, stream, draws):
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


def draw_stopping_times(n, streams, cap=math.inf, fresh=False):
    """tau of each row of a TrialStreams; with fresh, (tau, arrivals, indices).

    Rows go CHUNK_DRAWS // block at a time (block = min(first_block(n),
    cap); both are read at call time) through one reused buffer of first
    blocks (fill_first_blocks) and one stopping_times call. A row whose tau
    falls past its block is redrawn alone from its stream start, in blocks
    of max(4n, 8), until tau falls inside or cap draws are used (then its
    missing arrivals read cap and tau = cap + 1). Only fresh keeps
    arrivals, the (rows, n//2+1) steps of each row's first draws of a
    value, and indices, the values drawn there (0 at missing arrivals).
    """
    rows, target = len(streams), fresh_target(n)
    block = min(first_block(n), cap)
    per_chunk = max(1, CHUNK_DRAWS // block)
    draws = np.empty((min(per_chunk, rows), block), dtype=np.int64)
    tau = np.empty(rows, dtype=np.int64)
    if fresh:
        # Two arrays, so that the engine can free arrivals and keep indices.
        arrivals, indices = (np.empty((rows, target), dtype=np.int64) for _ in range(2))
    for start in range(0, rows, per_chunk):
        chunk = draws[:min(per_chunk, rows - start)]
        stop = start + len(chunk)
        fill_first_blocks(n, lambda row: streams.stream(start + row), chunk)
        # Each branch frees stopping_times' (rows, n) sort buffer at once.
        if fresh:   # a row replayed below gets its values there
            arrivals[start:stop], tau[start:stop] = stopping_times(chunk, n)
            indices[start:stop] = np.take_along_axis(
                chunk, np.minimum(arrivals[start:stop], block - 1), 1)
        else:
            tau[start:stop] = stopping_times(chunk, n)[1]
    for row in np.flatnonzero(tau > block):
        rng, drawn = streams.stream(row), np.empty(0, dtype=np.int64)
        while tau[row] > drawn.size and drawn.size < cap:
            more = rng.integers(0, n, size=min(max(4 * n, 8), cap - drawn.size))
            drawn = np.concatenate([drawn, more])
            row_arrivals, row_tau = stopping_times(drawn[None], n)
            tau[row] = row_tau[0]
        if fresh:
            arrivals[row] = row_arrivals[0]
            indices[row] = np.append(drawn, 0)[row_arrivals[0]]
    return (tau, arrivals, indices) if fresh else tau


def simulate_tau(n, trials, seed):
    """Monte-Carlo sample of the stopping time over independent trials.

    Trial t draws its indices from its own stream, the default_rng stream
    of SeedSequence entropy [seed, t], so trials are individually
    reproducible and order-independent; all are seeded at once
    (seeded_streams) and read by draw_stopping_times. seed must be a
    non-negative int and trials an int in [1, 2**32], so that t is one
    uint32 word; anything else raises ConfigurationError.
    """
    if n < 1:
        raise ConfigurationError(f"simulate_tau: n must be >= 1, got {n}")
    check_seed(seed, "simulate_tau")
    if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
            or not 1 <= trials <= 1 << 32):
        raise ConfigurationError(
            f"simulate_tau: trials must be an int in [1, 2**32], got {trials!r}")
    streams = seeded_streams(seed, np.arange(trials, dtype=np.uint32))
    return TauStats(n=n, trials=trials, tau_samples=draw_stopping_times(n, streams))
