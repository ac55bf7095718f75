import json

import numpy as np
import pytest

from dpmirror.errors import ConfigurationError
from dpmirror.sampler import (expected_tau, first_arrivals, fresh_target,
                              sample_index, simulate_tau, write_tau_csv,
                              write_tau_summary)

# 99.9% quantile of chi-square with 9 degrees of freedom (standard tables).
CHI2_9DOF_999 = 27.877


def partial_coupon_sum(n):
    # Independent copy of the exact mean stopping time for cross-checking.
    total = 0.0
    for k in range(n // 2 + 1):
        total += n / (n - k)
    return total


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


def stopping_step(draws, n):
    """1-based step at which the fresh count first exceeds n/2, or None."""
    arrivals = first_arrivals(np.asarray(draws))
    target = fresh_target(n)
    return int(arrivals[target - 1]) + 1 if arrivals.size >= target else None


class TestFreshSet:
    """The fresh set of an index stream: first_arrivals marks the draws that
    add an index to it, and the run stops once it holds more than n/2."""

    def test_first_record_is_fresh(self):
        assert first_arrivals(np.array([3])).tolist() == [0]
        rng = np.random.default_rng(1)
        assert first_arrivals(rng.integers(0, 10, size=40))[0] == 0

    def test_repeat_is_stale(self):
        assert first_arrivals(np.array([4, 4])).tolist() == [0]
        assert first_arrivals(np.array([4, 2, 4, 2, 7])).tolist() == [0, 1, 4]

    def test_all_indices_recorded(self):
        draws = np.random.default_rng(2).permutation(8)
        assert first_arrivals(draws).tolist() == list(range(8))

    def test_should_stop_at_half(self):
        draws = [0, 1, 2, 3, 4, 4, 5, 6]
        assert stopping_step(draws[:6], 10) is None   # count == n/2 keeps going
        assert stopping_step(draws, 10) == 7          # count exceeds n/2

    def test_should_stop_single_point(self):
        assert stopping_step([0], 1) == 1

    def test_count_matches_set_bits(self):
        rng = np.random.default_rng(71)
        draws = rng.integers(0, 30, size=200)
        arrivals = set(first_arrivals(draws).tolist())
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
            seen = set()
            tau = None
            for t, idx in enumerate(draws, start=1):
                seen.add(int(idx))
                if len(seen) > n // 2:
                    tau = t
                    break
            assert tau == stats.tau_samples[trial]

    def test_expected_tau_helper(self):
        for n in (1, 2, 16, 99):
            assert expected_tau(n) == pytest.approx(partial_coupon_sum(n))

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            simulate_tau(0, 10, seed=0)
        with pytest.raises(ConfigurationError):
            simulate_tau(10, 0, seed=0)

    def test_exports(self, tmp_path):
        stats = simulate_tau(16, 25, seed=4)
        csv_path = tmp_path / "tau.csv"
        json_path = tmp_path / "tau.json"
        write_tau_csv(stats, csv_path)
        write_tau_summary(stats, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,tau"
        assert len(lines) == 26
        first = lines[1].split(",")
        assert first[0] == "0" and int(first[1]) == stats.tau_samples[0]
        summary = json.loads(json_path.read_text())
        assert summary == {
            "n": 16, "trials": 25,
            "mean_tau": stats.mean_tau,
            "max_tau": stats.max_tau,
            "frac_exceed_2n": stats.frac_exceed_2n,
        }
