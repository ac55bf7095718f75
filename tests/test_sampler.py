import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import partial_coupon_sum, stopping_tail

from dpmirror import sampler
from dpmirror.errors import ConfigurationError
from dpmirror.sampler import (TrialStreams, expected_tau, first_block, fresh_target,
                              sample_index, simulate_tau, stopping_times)

# 99.9% quantile of chi-square with 9 degrees of freedom (standard tables).
CHI2_9DOF_999 = 27.877
# No test here reads a block of more than 1024 draws a row. A sampler that
# never draws some value leaves rows that never stop, and
# draw_stopping_times doubles their block without end.
MAX_BLOCK = 2 ** 16


@pytest.fixture(autouse=True)
def bounded_blocks():
    """Fail a test whose fill_blocks call asks for more than MAX_BLOCK
    draws a row, instead of letting it run out of time or memory. It does
    not use the monkeypatch fixture, which a test may undo."""
    fill = sampler.fill_blocks

    def bounded(n, stream, draws):
        if draws.shape[1] > MAX_BLOCK:
            pytest.fail(f"a block of {draws.shape[1]} draws a row at n = {n}")
        fill(n, stream, draws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "fill_blocks", bounded)
        yield


class TestSampleIndex:
    def test_single_outcome(self):
        rng = np.random.default_rng(0)
        assert all(sample_index(rng, 1) == 0 for _ in range(100))

    def test_uniformity_chi_square(self):
        rng = np.random.default_rng(101)
        n, draws = 10, 1_000_000
        counts = np.bincount(rng.integers(0, n, size=draws), minlength=n)
        expected = draws / n
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat <= CHI2_9DOF_999

    def test_deterministic_replay(self):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        assert [sample_index(rng1, 10) for _ in range(50)] == \
               [sample_index(rng2, 10) for _ in range(50)]

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_index(np.random.default_rng(0), 0)


def arrivals_of(draws, n=None):
    """First arrivals of one index stream, as a 1-row block of the kernel.

    stopping_times keeps the first m//2 + 1 arrivals over m values, so the
    stream is read as one over 2n values to keep all n of them."""
    draws = np.asarray(draws)
    n = int(draws.max()) + 1 if n is None else n
    row = stopping_times(draws[None], 2 * n)[0][0]
    return row[row < draws.size]


def stopping_step(draws, n):
    """1-based step at which the fresh count first exceeds n/2, or None."""
    arrivals = arrivals_of(draws, n)
    target = fresh_target(n)
    return int(arrivals[target - 1]) + 1 if arrivals.size >= target else None


def set_walk_tau(stream, n):
    """Stopping time by a plain Python set walk over an index stream."""
    seen = set()
    for t, idx in enumerate(stream, start=1):
        seen.add(int(idx))
        if len(seen) > n // 2:
            return t
    return None


def set_walk_arrivals(stream, n):
    """0-based steps at which a plain Python set walk over an index stream
    first sees each of its first n//2 + 1 values."""
    seen, steps = set(), []
    for t, idx in enumerate(stream):
        if len(seen) > n // 2:
            break
        if int(idx) not in seen:
            seen.add(int(idx))
            steps.append(t)
    return steps


def fresh_stream(seed, trial):
    """Trial's generator, built from scratch as simulate_tau defines it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, trial]))


def fresh_stream_tau(seed, trial, n):
    """Stopping time by a set walk over a freshly built trial stream, drawn
    in blocks of max(4n, 8) until the walk stops."""
    rng, draws = fresh_stream(seed, trial), np.empty(0, dtype=np.int64)
    while True:
        draws = np.concatenate([draws, rng.integers(0, n, size=max(4 * n, 8))])
        tau = set_walk_tau(draws, n)
        if tau is not None:
            return tau


class TestFreshSet:
    """The fresh set of an index stream: stopping_times marks the draws that
    add an index to it, and the run stops once it holds more than n/2."""

    def test_first_record_is_fresh(self):
        assert arrivals_of(np.array([3])).tolist() == [0]
        rng = np.random.default_rng(1)
        assert arrivals_of(rng.integers(0, 10, size=40))[0] == 0

    def test_repeat_is_stale(self):
        assert arrivals_of(np.array([4, 4])).tolist() == [0]
        assert arrivals_of(np.array([4, 2, 4, 2, 7])).tolist() == [0, 1, 4]

    def test_all_indices_recorded(self):
        draws = np.random.default_rng(2).permutation(8)
        assert arrivals_of(draws).tolist() == list(range(8))

    def test_should_stop_at_half(self):
        draws = [0, 1, 2, 3, 4, 4, 5, 6]
        assert stopping_step(draws[:6], 10) is None   # count == n/2 keeps going
        assert stopping_step(draws, 10) == 7          # count exceeds n/2

    def test_should_stop_single_point(self):
        assert stopping_step([0], 1) == 1

    def test_count_matches_set_bits(self):
        rng = np.random.default_rng(71)
        draws = rng.integers(0, 30, size=200)
        arrivals = set(arrivals_of(draws, 30).tolist())
        seen, prev = set(), 0
        for t, idx in enumerate(draws.tolist()):
            seen.add(idx)
            count = sum(1 for a in arrivals if a <= t)
            assert count == len(seen)
            assert count in (prev, prev + 1)   # increments by at most 1
            assert (t in arrivals) == (count == prev + 1)
            prev = count


class TestSimulateTau:
    def test_degenerate_n(self):
        stats = simulate_tau(1, 50, seed=0)
        assert np.all(stats.tau_samples == 1)

    def test_tail_bound(self):
        stats = simulate_tau(100, 10_000, seed=42)
        # 2*exp(-100/16) ~ 0.0039; test against the looser 0.01 envelope
        assert stats.frac_exceed_2n <= 0.01

    def test_mean_matches_partial_coupon_sum(self):
        stats = simulate_tau(100, 10_000, seed=42)
        exact = partial_coupon_sum(100)
        assert abs(stats.mean_tau - exact) <= 0.05 * exact

    def test_minimum_possible_tau(self):
        for n in (5, 16, 33):
            stats = simulate_tau(n, 500, seed=9)
            assert stats.tau_samples.min() >= (n + 1) // 2
            # needs one step per fresh draw, so the target is also a floor
            assert stats.tau_samples.min() >= fresh_target(n)

    def test_mean_within_linear_envelope(self):
        for n in (16, 64):
            stats = simulate_tau(n, 4000, seed=3)
            assert stats.mean_tau <= 2 * n

    def test_matches_stepwise_bookkeeping(self):
        # Replay each trial's generator and walk it through a plain Python
        # set, stopping once it holds more than n/2 indices; the vectorized
        # path must agree.
        n, trials, seed = 24, 200, 17
        stats = simulate_tau(n, trials, seed)
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, trial]))
            draws = rng.integers(0, n, size=max(4 * n, 8))
            assert set_walk_tau(draws, n) == stats.tau_samples[trial]

    def test_expected_tau_helper(self):
        for n in (1, 2, 16, 99):
            assert expected_tau(n) == pytest.approx(partial_coupon_sum(n))

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            simulate_tau(0, 10, seed=0)
        with pytest.raises(ConfigurationError):
            simulate_tau(10, 0, seed=0)

    def test_golden_streams(self):
        # sha256 of the seeded samples as little-endian int64, fixed when
        # each trial still ran first_arrivals alone through np.unique.
        golden = {
            16: (25242, "6decdc113f64cef2a3075fc201e60a463a60edb13b289c69067cc3b235afc36b"),
            1024: (1422020,
                   "29938626bdec43ad06469271880160d132e68edbef3b66564a8f5dc941c5842b"),
        }
        for n, (total, digest) in golden.items():
            tau = simulate_tau(n, 2000, seed=7).tau_samples
            assert int(tau.sum()) == total
            assert hashlib.sha256(tau.astype("<i8").tobytes()).hexdigest() == digest

    def test_golden_streams_past_first_block(self, monkeypatch):
        # A first block of one draw reads every trial again in later rounds.
        monkeypatch.setattr(sampler, "first_block", lambda n: 1)
        self.test_golden_streams()

    def test_chunking_does_not_move_samples(self, monkeypatch):
        # Chunks of 1, 3 and all trials (n = 2 also needs second blocks).
        for n in (2, 16, 33):
            whole = simulate_tau(n, 300, seed=11).tau_samples
            for chunk in (max(4 * n, 8), 3 * max(4 * n, 8)):
                monkeypatch.setattr(sampler, "CHUNK_DRAWS", chunk)
                assert np.array_equal(simulate_tau(n, 300, seed=11).tau_samples, whole)
            monkeypatch.undo()

    @staticmethod
    def stub_streams():
        """(stubs, StubStreams) at n = 16: StubStreams is TrialStreams with
        trials 1 and 3 served from stubs[trial], whose first blocks hold too
        few distinct values. Read from its start, trial 1 stops within 4n
        draws, in round 2 (a block of 72), and trial 3 past 8n, in round 3
        (a block of 144)."""
        n = 16
        block = first_block(n)
        filler = np.random.default_rng(99).integers(0, n, size=4 * n)
        stubs = {
            1: np.concatenate([np.arange(block) % 4, filler]),
            3: np.concatenate([np.arange(4 * n) % 2, 2 + np.arange(4 * n) % 6, filler]),
        }

        class StubStream:
            """Serves values from its start as raw words."""

            def __init__(self, values):
                self.values, self.pos = values, 0
                self.bit_generator = self

            def random_raw(self, size):
                # n = 16 divides 2**32, so Lemire's method maps a 32-bit
                # output x to x >> 28 and rejects none: value v is output
                # v << 28, two outputs to a word, low half first.
                out = self.values[self.pos:self.pos + 2 * size]
                assert out.size == 2 * size, "stub stream ran dry"
                self.pos += 2 * size
                halves = out.astype(np.uint64) << np.uint64(28)
                return halves[0::2] | halves[1::2] << np.uint64(32)

        class StubStreams(TrialStreams):
            def stream(self, trial):
                if trial in stubs:
                    return StubStream(stubs[trial])
                return super().stream(trial)

        taus = {trial: set_walk_tau(values, n) for trial, values in stubs.items()}
        assert block < taus[1] <= 4 * n
        assert 2 * 4 * n < taus[3] <= 3 * 4 * n
        return stubs, StubStreams

    def test_short_first_block_continues_its_stream(self, monkeypatch):
        # Trial 1 stops in the second round, trial 3 only in the third;
        # both must be walked along their own stream, and the other trials
        # must not notice.
        n, trials, seed = 16, 5, 4
        stubs, stub_streams = self.stub_streams()
        plain = simulate_tau(n, trials, seed).tau_samples
        monkeypatch.setattr(sampler, "TrialStreams", stub_streams)
        stats = simulate_tau(n, trials, seed)
        for trial, values in stubs.items():
            assert stats.tau_samples[trial] == set_walk_tau(values, n)
        keep = [t for t in range(trials) if t not in stubs]
        assert np.array_equal(stats.tau_samples[keep], plain[keep])

    def test_late_rows_keep_their_fresh_steps_bytewise(self, monkeypatch):
        # The engine's read of the same stub rows: the arrivals and indices
        # of a row read again in a later round are the set walk's
        # first-arrival steps and values, and every other row is as without
        # stubs, byte for byte.
        n, trials, seed = 16, 5, 4
        stubs, stub_streams = self.stub_streams()
        rows = np.arange(trials, dtype=np.uint32)
        plain = sampler.draw_stopping_times(n, sampler.seeded_streams(seed, rows), fresh=True)
        monkeypatch.setattr(sampler, "TrialStreams", stub_streams)
        got = sampler.draw_stopping_times(n, sampler.seeded_streams(seed, rows), fresh=True)
        for trial, values in stubs.items():
            steps = set_walk_arrivals(values, n)
            assert got[0][trial] == set_walk_tau(values, n) == steps[-1] + 1
            assert got[1][trial].tolist() == steps
            assert got[2][trial].tolist() == values[steps].tolist()
        keep = [t for t in range(trials) if t not in stubs]
        for want, have in zip(plain, got):
            assert have.dtype == want.dtype == np.int64
            assert have[keep].tobytes() == want[keep].tobytes()

    def test_matches_fresh_stream_walk(self):
        # Every n in mixed order, and n = 1024 twice: each trial's tau must
        # be the set walk over its freshly built stream.
        trials, seed = 300, 20260
        reference = {}
        for n in (1024, 16, 1024, 1, 2, 3, 5, 33):
            if n not in reference:
                reference[n] = [fresh_stream_tau(seed, t, n) for t in range(trials)]
            got = simulate_tau(n, trials, seed).tau_samples
            assert got.tolist() == reference[n], n


class TestTrialBlocks:
    """simulate_tau seeds and reads its trials one block at a time."""

    @staticmethod
    def trial_block(n):
        per_chunk = sampler.rows_per_chunk(first_block(n))
        return per_chunk * max(1, sampler.TAU_BLOCK_TRIALS // per_chunk)

    @pytest.mark.parametrize("n", [2, 16, 1024])
    def test_blocks_match_one_block(self, n):
        # Two whole blocks and a partial third: each trial t is still the
        # stream of entropy [seed, t], read as one block of every trial reads it.
        seed = 31
        block = self.trial_block(n)
        assert block % sampler.rows_per_chunk(first_block(n)) == 0
        trials = 2 * block + 123
        one_block = sampler.draw_stopping_times(
            n, sampler.seeded_streams(seed, np.arange(trials, dtype=np.uint32)))
        assert simulate_tau(n, trials, seed).tau_samples.tobytes() == one_block.tobytes()

    def test_traced_peak_does_not_grow_with_trials(self):
        # Seeding every trial at once held about 230 bytes a trial (23 MB at
        # 10^5 trials); by blocks, the peak past the 8-byte-a-trial result is
        # about 1.1 MB at 10^4 trials and at 10^5. A first small call keeps
        # one-off allocations out of the trace.
        simulate_tau(16, 10, 5)
        extra = []
        for trials in (10**4, 10**5):
            tracemalloc.start()
            try:
                simulate_tau(16, trials, 5)
                extra.append(tracemalloc.get_traced_memory()[1] - 8 * trials)
            finally:
                tracemalloc.stop()
        assert max(extra) <= 1.5 * 2**20, extra


class TestTrialStreams:
    """The stream properties simulate_tau's short first blocks rest on."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 1024, 2 ** 33 + 5])
    def test_split_draws_concatenate(self, n):
        # integers(0, n, a) then integers(0, n, b) is one integers(0, n, a + b)
        # draw, for any cut, including odd ones that leave half of a 64-bit
        # output buffered in the generator.
        total = 301
        whole = fresh_stream(8, 2).integers(0, n, size=total)
        for sizes in [(1, 300), (7, 94, 200), (150, 151), (299, 1, 1), (2, 2, 297)]:
            rng = fresh_stream(8, 2)
            parts = [rng.integers(0, n, size=k) for k in sizes]
            assert np.array_equal(np.concatenate(parts), whole), sizes
        for k in (1, 2, 33, 300):
            assert np.array_equal(fresh_stream(8, 2).integers(0, n, size=k), whole[:k])

    def test_restored_stream_draws_as_fresh(self):
        seed = 11
        streams = sampler.seeded_streams(seed, np.arange(6, dtype=np.uint32))
        for trial in (5, 0, 3, 3, 1):
            for n in (16, 1025, 2 ** 33 + 5):
                # An odd draw on another row first, which leaves its own
                # Generator mid-output.
                streams.stream((trial + 1) % 6).integers(0, 16, size=3)
                got = streams.stream(trial).integers(0, n, size=101)
                want = fresh_stream(seed, trial).integers(0, n, size=101)
                assert np.array_equal(got, want), (trial, n)


class TestValidation:
    """Seeds and trial counts that SeedSequence([seed, t]) cannot take as
    one seed word list and one trial word are refused where they enter."""

    @pytest.mark.parametrize("seed", [-1, -(2 ** 40), 1.5, "3", None, True])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            simulate_tau(16, 10, seed=seed)

    @pytest.mark.parametrize("trials", [0, -3, 2 ** 32 + 1, 1.5, 10.0])
    def test_bad_trials(self, trials):
        with pytest.raises(ConfigurationError, match="trials"):
            simulate_tau(16, trials, seed=0)

    def test_numpy_integer_arguments(self):
        got = simulate_tau(16, np.int64(40), seed=np.uint64(7)).tau_samples
        assert np.array_equal(got, simulate_tau(16, 40, seed=7).tau_samples)


class TestRawWordDraws:
    """fill_blocks against numpy's own integers on the same stream."""

    N_VALUES = [1, 2, 3, 16, 1000, 1024, 2 ** 31 + 1, 3 * 2 ** 30 + 7, 2 ** 32 - 5, 2 ** 32]

    @staticmethod
    def fill(n, k, rows=40, seed=5):
        """(draws, rows that drew through integers) of fresh trial streams."""
        fallback = set()

        class Watched:
            def __init__(self, row):
                self.row, self.rng = row, fresh_stream(seed, row)
                self.bit_generator = self.rng.bit_generator

            def integers(self, *args, **kwargs):
                fallback.add(self.row)
                return self.rng.integers(*args, **kwargs)

        draws = np.full((rows, k), -1, dtype=np.int64)
        sampler.fill_blocks(n, Watched, draws)
        return draws, fallback

    @pytest.mark.parametrize("n", N_VALUES)
    @pytest.mark.parametrize("k", [1, 2, 7, 36])
    def test_equals_integers(self, n, k):
        draws, _ = self.fill(n, k)
        for row in range(draws.shape[0]):
            want = fresh_stream(5, row).integers(0, n, size=k)
            assert np.array_equal(draws[row], want), (n, k, row)

    def test_rejection_falls_back(self):
        # 2**32 mod (2**31 + 1) = 2**31 - 1: about half of all outputs are
        # rejected, so some one-draw rows fall back and some do not.
        draws, fallback = self.fill(2 ** 31 + 1, 1)
        assert 0 < len(fallback) < draws.shape[0]
        draws, fallback = self.fill(3 * 2 ** 30 + 7, 36)
        assert len(fallback) == draws.shape[0]
        for n in (1, 16, 1024, 2 ** 32):
            assert self.fill(n, 37)[1] == set(), n

    def test_above_32_bits_draws_through_integers(self):
        n = 2 ** 33 + 5
        draws, fallback = self.fill(n, 9, rows=6)
        assert fallback == set(range(6))
        for row in range(6):
            assert np.array_equal(draws[row], fresh_stream(5, row).integers(0, n, size=9))


class TestVectorSeeding:
    """sampler's seeding against numpy's own SeedSequence and PCG64: trial
    streams, their words, the engine's spawned children, the harness's data
    streams and run seeds, and the audit's stream."""

    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 95 + 7, 2 ** 130 + 1]

    @staticmethod
    def numpy_state(seed, trial):
        return np.random.PCG64(np.random.SeedSequence([seed, trial])).state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_start_at_numpy_state(self, seed):
        trials = 1000
        streams = sampler.seeded_streams(seed, np.arange(trials, dtype=np.uint32))
        for trial in [*range(50), trials - 1]:
            assert streams.stream(trial).bit_generator.state == self.numpy_state(seed, trial)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_high_trial_words(self, seed):
        trials = np.array([2 ** 32 - 1, 2 ** 31, 65_537, 12_345_678], dtype=np.uint32)
        words = sampler._generate_state(sampler._entropy([seed, trials]))
        assert words.dtype == np.uint64 and words.shape == (len(trials), 4)
        for row, trial in zip(words, trials.tolist()):
            want = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
            assert row.tobytes() == want.tobytes(), trial

    def test_seed_words_generate_state(self):
        # SeedWords answers generate_state as SeedSequence does, for every
        # count of the uint64 words it holds, and refuses anything else.
        sequence = np.random.SeedSequence([2 ** 40 + 3, 9])
        held = sampler.SeedWords(sequence.generate_state(4, np.uint64))
        for n_words in range(5):
            got = held.generate_state(n_words, np.uint64)
            want = sequence.generate_state(n_words, np.uint64)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for n_words, dtype in ((5, np.uint64), (2, np.uint32), (2, np.int64)):
            with pytest.raises(ValueError, match="holds 4 uint64 words"):
                held.generate_state(n_words, dtype)

    # Spawned seeds of one, two, three and five words (2**128 makes the
    # entropy longer than the pool), and numpy integers, in one batch.
    SPAWN_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 95 + 7, 2 ** 128,
                   np.uint64(9), np.int64(2 ** 40 + 3)]

    def test_spawned_children(self):
        children = sampler.spawned_streams(self.SPAWN_SEEDS)
        for key, streams in enumerate(children):
            assert len(streams) == len(self.SPAWN_SEEDS)
            for row, seed in enumerate(self.SPAWN_SEEDS):
                want = np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[key]).state
                assert streams.stream(row).bit_generator.state == want, (key, seed)

    @pytest.mark.parametrize("master", [0, 7, 2 ** 32 - 1, 2 ** 40 + 3, 2 ** 63 - 5, 2 ** 128])
    def test_harness_context(self, master):
        # The harness's data stream [seed, n_idx, e_idx, r, 0], run seed
        # [seed, n_idx, e_idx, r, 1] and the audit's [seed, 0xA0D1].
        repeats = np.arange(6)
        data = sampler.seeded_streams(master, 2, 1, repeats, 0)
        seeds = sampler.derived_seeds(master, 2, 1, repeats, 1)
        for r in range(6):
            want = np.random.PCG64(np.random.SeedSequence([master, 2, 1, r, 0])).state
            assert data.stream(r).bit_generator.state == want
            sequence = np.random.SeedSequence([master, 2, 1, r, 1])
            assert seeds[r] == int(sequence.generate_state(1, np.uint64)[0])
            assert type(seeds[r]) is int
        audit = sampler.seeded_streams(master, 0xA0D1).stream(0)
        want = np.random.default_rng(np.random.SeedSequence([master, 0xA0D1]))
        assert np.array_equal(audit.standard_normal(50), want.standard_normal(50))


class TestFirstArrivalsKernel:
    """stopping_times on (rows, steps) blocks against a per-row np.unique reference."""

    @staticmethod
    def reference(row):
        return np.sort(np.unique(row, return_index=True)[1])

    def check(self, draws, n):
        rows, steps = draws.shape
        got, tau = stopping_times(draws, n)
        assert got.shape == (rows, fresh_target(n))
        for r in range(rows):
            want = self.reference(draws[r])[:fresh_target(n)]
            assert np.array_equal(got[r, :want.size], want)
            assert np.all(got[r, want.size:] == steps)
        assert np.array_equal(tau, got[:, -1] + 1)

    def test_random_blocks(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            rows = int(rng.integers(1, 8))
            steps = int(rng.integers(1, 5 * n + 2))
            self.check(rng.integers(0, n, size=(rows, steps)), n)

    def test_rows_short_of_target(self):
        # Rows of one repeated value, or too few steps, never reach n//2+1.
        n = 20
        draws = np.stack([np.full(40, 7), np.arange(40) % 3,
                          np.random.default_rng(5).integers(0, n, size=40)])
        self.check(draws, n)
        arrivals = stopping_times(draws, n)[0][:, fresh_target(n) - 1]
        assert arrivals[0] == arrivals[1] == 40
        assert arrivals[2] < 40
        short = np.random.default_rng(6).integers(0, n, size=(4, fresh_target(n) - 1))
        self.check(short, n)
        assert np.all(stopping_times(short, n)[0][:, fresh_target(n) - 1] == short.shape[1])

    def test_largest_draw_below_n_minus_one(self):
        rng = np.random.default_rng(8)
        draws = rng.integers(0, 5, size=(6, 30))
        for n in (6, 11, 64):
            self.check(draws, n)

    def test_single_column(self):
        draws = np.array([[3], [0], [9], [3]])
        self.check(draws, 10)
        assert stopping_times(draws, 10)[0][:, 0].tolist() == [0, 0, 0, 0]
        assert np.all(stopping_times(draws, 10)[0][:, 1:] == 1)

    def test_stopping_times(self):
        # tau is one past the (n//2+1)-th first arrival, as a set walk finds
        # it; a row too short to get there reads steps + 1.
        n, steps = 20, 40
        rng = np.random.default_rng(12)
        draws = np.concatenate([rng.integers(0, n, size=(5, steps)),
                                [np.full(steps, 7), np.arange(steps) % 3]])
        self.check(draws, n)
        tau = stopping_times(draws, n)[1]
        for r in range(5):
            assert tau[r] == set_walk_tau(draws[r], n)
        assert tau[5:].tolist() == [steps + 1, steps + 1]


class TestExactTail:
    """The tail of tau that the code and the README state, against the exact
    law (oracles.stopping_tail), to the printed digits."""

    @pytest.fixture(autouse=True)
    def scipy(self):
        pytest.importorskip("scipy")

    def test_law_of_two_records_and_the_mean(self):
        # At n = 2 tau - 1 is a geometric wait with p = 1/2, so P(tau > t) =
        # 2^(1-t) for t >= 1; at every n, the tail sums to the mean.
        tail = stopping_tail(2, 60)
        assert tail[0] == 1.0
        assert np.allclose(tail[1:], 2.0 ** (1 - np.arange(1, 61)), rtol=1e-12, atol=0)
        for n in (1, 3, 16, 64):
            assert stopping_tail(n, 40 * n + 40).sum() == pytest.approx(
                partial_coupon_sum(n), rel=1e-12)

    def test_first_block_holds_tau(self):
        # first_block's comment: P(tau > first_block(n)) is 2.4e-4 at n = 2
        # and below 1e-6 from n = 16 on (largest at n = 22 up to 1024).
        def past_first_block(n):
            return stopping_tail(n, first_block(n))[-1]

        assert f"{past_first_block(2):.1e}" == "2.4e-04"
        sizes = [*range(16, 257), 300, 511, 777, 1000, 1023, 1024]
        assert max(past_first_block(n) for n in sizes) < 1e-6

    def test_tail_past_2n_and_4n(self):
        # README, "Run results", and the optimizer's docstring.
        assert f"{stopping_tail(16, 32)[-1]:.1e}" == "2.7e-06"
        assert f"{stopping_tail(16, 64)[-1]:.1e}" == "7.0e-16"
        assert f"{stopping_tail(64, 256)[-1]:.1e}" == "1.6e-59"
