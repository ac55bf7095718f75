"""Uniform index sampling, fresh-index bookkeeping, and stopping-time Monte Carlo.

The optimizer stops once more than half of the dataset indices have been
drawn at least once. simulate_tau measures the distribution of that
stopping time: the first step at which the count of distinct draws exceeds
floor(n/2), i.e. the arrival of the (floor(n/2)+1)-th distinct index.
"""

import json
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


def first_arrivals(draws):
    """Positions (0-based, increasing) at which each distinct value first appears.

    For an index stream these are the fresh steps: the run stops after the
    step at position first_arrivals(draws)[fresh_target(n) - 1]. The
    optimizer and simulate_tau both read the stopping time off this.
    """
    return np.sort(np.unique(draws, return_index=True)[1])


def _tau_one_trial(n, target, rng):
    # Block-draws the index stream and reads off the arrival time of the
    # target-th distinct value; redraws are vanishingly rare past 4n.
    block = max(4 * n, 8)
    draws = rng.integers(0, n, size=block)
    while True:
        arrivals = first_arrivals(draws)
        if arrivals.size >= target:
            return int(arrivals[target - 1]) + 1
        draws = np.concatenate([draws, rng.integers(0, n, size=block)])


def simulate_tau(n, trials, seed):
    """Monte-Carlo sample of the stopping time over independent trials.

    Each trial uses its own generator derived from (seed, trial index), so
    trials are individually reproducible and order-independent.
    """
    if n < 1:
        raise ConfigurationError(f"simulate_tau: n must be >= 1, got {n}")
    if trials < 1:
        raise ConfigurationError(f"simulate_tau: trials must be >= 1, got {trials}")
    target = fresh_target(n)
    samples = np.empty(trials, dtype=np.int64)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, trial]))
        samples[trial] = _tau_one_trial(n, target, rng)
    return TauStats(n=n, trials=trials, tau_samples=samples)


def write_tau_csv(stats, path):
    """Columns: trial,tau."""
    with open(path, "w") as fh:
        fh.write("trial,tau\n")
        for trial, tau in enumerate(stats.tau_samples):
            fh.write(f"{trial},{int(tau)}\n")


def write_tau_summary(stats, path):
    with open(path, "w") as fh:
        json.dump(stats.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")
