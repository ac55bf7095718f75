import dataclasses
import math

import numpy as np
import pytest

from dpmirror.errors import ConfigurationError, OverrunError
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import LossOracle, PopulationSpec, draw_dataset
from dpmirror.optimizer import (NOISE_CHUNK_STEPS, RunConfig, baseline_minimizer,
                                estimate_regret, estimate_risk, private_sgd,
                                private_sgd_batch, run_streams)
from dpmirror.sampler import fresh_target


def hinge_setup(n, d, sigma, eta, seed, radius=0.5, noise_rate=0.1, data_seed=None):
    population = PopulationSpec(
        "linear_margin", d, 1.0, seed=data_seed if data_seed is not None else seed,
        w_true=np.eye(d)[0], noise_rate=noise_rate)
    dataset = draw_dataset(population, n)
    fs = FeasibleSet.l2_ball(radius, dimension=d)
    config = RunConfig(n=n, d=d, eta=eta, sigma=sigma, feasible_set=fs,
                       oracle=LossOracle.hinge(1.0), w1=np.zeros(d), seed=seed)
    return population, dataset, config


def constant_dataset(n, d, value=0.0, label=1.0):
    return np.full((n, d), value), np.full(n, label)


class TestPrivateSgd:
    def test_two_step_run_by_hand(self):
        # Seed 1 draws indices [0, 1] for n=2, so the noiseless run is two
        # fresh hinge steps on a clamped interval:
        #   w1 = 0            g = -1*0.8 -> w2 = clamp(0 + 0.25*0.8)  = 0.2
        #   w2 = 0.2          g = +0.5   -> w3 = clamp(0.2 - 0.125)   = 0.075
        # output = (0 + 0.2)/2 = 0.1
        fs = FeasibleSet.box([-1.0], [1.0])
        data = (np.array([[0.8], [0.5]]), np.array([1.0, -1.0]))
        config = RunConfig(n=2, d=1, eta=0.25, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(1), seed=1)
        trace = private_sgd(config, data)
        assert trace.tau == 2
        assert trace.indices.tolist() == [0, 1]
        np.testing.assert_allclose(trace.iterates[0], [0.0], atol=1e-15)
        np.testing.assert_allclose(trace.iterates[1], [0.2], atol=1e-12)
        np.testing.assert_allclose(trace.output, [0.1], atol=1e-12)

    def test_vanishing_step_size_keeps_w1(self):
        _, data, config = hinge_setup(20, 2, sigma=1.0, eta=1e-12, seed=3)
        trace = private_sgd(config, data)
        assert np.linalg.norm(trace.output - config.w1) <= 1e-6

    def test_fixed_seed_is_bitwise_deterministic(self):
        _, data, config = hinge_setup(32, 3, sigma=0.8, eta=0.05, seed=7)
        a = private_sgd(config, data)
        b = private_sgd(config, data)
        assert a.tau == b.tau
        np.testing.assert_array_equal(a.output, b.output)
        for field in ("indices", "fresh", "iterates", "noise_norms"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_trace_invariants(self):
        _, data, config = hinge_setup(50, 2, sigma=2.0, eta=0.1, seed=11)
        trace = private_sgd(config, data)
        assert trace.tau == len(trace.indices) == len(trace.fresh)
        assert trace.iterates.shape == (trace.tau, 2)
        assert trace.noise_norms.shape == (trace.tau,)
        assert int(trace.fresh.sum()) == 50 // 2 + 1
        assert trace.fresh[-1]                  # the stopping step is fresh
        for w in trace.iterates:
            assert config.feasible_set.contains(w, tol=1e-9)
        np.testing.assert_allclose(trace.output, trace.iterates[trace.fresh].mean(axis=0),
                                   atol=1e-12)
        assert config.feasible_set.contains(trace.output, tol=1e-9)
        # fresh flags in the trace agree with first occurrences
        seen = set()
        for idx, fresh in zip(trace.indices.tolist(), trace.fresh.tolist()):
            assert fresh == (idx not in seen)
            seen.add(idx)

    def test_noise_norms_match_sigma(self):
        # Each step's noise is N(0, sigma^2 I): E||xi||^2 = sigma^2 * d.
        _, data, config = hinge_setup(400, 3, sigma=2.0, eta=0.01, seed=12)
        trace = private_sgd(config, data)
        mean_sq = float(np.mean(trace.noise_norms ** 2))
        assert abs(mean_sq - 4.0 * 3) <= 0.15 * 12.0

    def test_noiseless_matches_plain_projected_sgd(self):
        # Independent replay: plain projected subgradient steps on the
        # recorded index stream, with projection and subgradients written
        # out longhand.
        _, (features, labels), config = hinge_setup(40, 3, sigma=0.0, eta=0.07, seed=13)
        trace = private_sgd(config, (features, labels))
        w = config.w1.copy()
        r = config.feasible_set.radius
        for t in range(trace.tau):
            assert np.max(np.abs(trace.iterates[t] - w)) <= 1e-12
            if trace.fresh[t]:
                x, y = features[trace.indices[t]], labels[trace.indices[t]]
                margin = y * float(w @ x)
                g = -y * x if margin <= 1.0 else np.zeros(3)
                w = w - config.eta * g
                norm = math.sqrt(float(w @ w))
                if norm > r:
                    w = w * (r / norm)
        assert np.all(trace.noise_norms == 0.0)

    def test_noisy_matches_stepwise_reference(self):
        # The per-step loop as the reference: one integers() draw and one
        # standard_normal(d) draw per step from the run's two streams, a
        # Python set of seen indices, projection written out. At n = 300
        # the run crosses noise-chunk boundaries.
        n, d = 300, 3
        _, (features, labels), config = hinge_setup(n, d, sigma=0.7, eta=0.05, seed=17)
        trace = private_sgd(config, (features, labels))
        idx_rng, noise_rng = run_streams(config.seed)
        r = config.feasible_set.radius
        w = config.w1.copy()
        seen, fresh_sum, t = set(), np.zeros(d), 0
        while len(seen) <= n // 2:
            i = int(idx_rng.integers(0, n))
            xi = config.sigma * noise_rng.standard_normal(d)
            assert i == trace.indices[t]
            assert np.max(np.abs(trace.iterates[t] - w)) <= 1e-12
            assert abs(trace.noise_norms[t] - np.linalg.norm(xi)) <= 1e-12
            g = xi
            if i not in seen:
                seen.add(i)
                fresh_sum += w
                x, y = features[i], labels[i]
                g = (-y * x if y * float(w @ x) <= 1.0 else np.zeros(d)) + xi
            w = w - config.eta * g
            norm = math.sqrt(float(w @ w))
            if norm > r:
                w = w * (r / norm)
            t += 1
        assert trace.tau == t > NOISE_CHUNK_STEPS
        assert np.max(np.abs(trace.output - fresh_sum / len(seen))) <= 1e-12

    def test_wrong_dataset_size(self):
        _, (features, labels), config = hinge_setup(30, 2, sigma=0.0, eta=0.1, seed=5)
        with pytest.raises(ConfigurationError):
            private_sgd(config, (features[:-1], labels[:-1]))

    def test_w1_outside_set_rejected(self):
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        config = RunConfig(n=16, d=2, eta=0.1, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0),
                           w1=np.array([1.0, 0.0]), seed=0)
        with pytest.raises(ConfigurationError):
            private_sgd(config, constant_dataset(16, 2))

    def test_max_steps_below_n_rejected(self):
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        config = RunConfig(n=16, d=2, eta=0.1, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(2),
                           seed=0, max_steps=8)
        with pytest.raises(ConfigurationError):
            private_sgd(config, constant_dataset(16, 2))

    def test_overrun_carries_partial_trace(self):
        # Seed 26 yields at most 8 distinct indices in the first 16 draws
        # for n=16, so a cap of 16 steps cannot reach the 9 fresh draws
        # the stopping rule needs.
        fs = FeasibleSet.box([-1.0], [1.0])
        config = RunConfig(n=16, d=1, eta=0.1, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(1),
                           seed=26, max_steps=16)
        with pytest.raises(OverrunError) as err:
            private_sgd(config, constant_dataset(16, 1, value=0.1))
        partial = err.value.trace
        assert partial.tau == 16
        assert len(partial.indices) == 16
        assert partial.iterates.shape == (16, 1)
        assert int(partial.fresh.sum()) < fresh_target(16)
        assert partial.output is None


class TestInputChecks:
    """Bad inputs raise ConfigurationError once, at run entry."""

    def config(self, **changes):
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        values = dict(n=16, d=2, eta=0.1, sigma=1.0, feasible_set=fs,
                      oracle=LossOracle.hinge(1.0), w1=np.zeros(2), seed=0)
        values.update(changes)
        return RunConfig(**values)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta(self, eta):
        with pytest.raises(ConfigurationError, match="eta"):
            private_sgd(self.config(eta=eta), constant_dataset(16, 2))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma"):
            private_sgd(self.config(sigma=sigma), constant_dataset(16, 2))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_w1(self, value):
        with pytest.raises(ConfigurationError, match="w1"):
            private_sgd(self.config(w1=np.array([value, 0.0])), constant_dataset(16, 2))

    def test_non_finite_features(self):
        features, labels = constant_dataset(16, 2, value=0.1)
        features[3, 1] = math.nan
        with pytest.raises(ConfigurationError, match="finite"):
            private_sgd(self.config(), (features, labels))

    def test_non_finite_labels(self):
        features, labels = constant_dataset(16, 2, value=0.1)
        labels[5] = math.inf
        with pytest.raises(ConfigurationError, match="finite"):
            private_sgd(self.config(), (features, labels))

    def test_feature_dimension_mismatch(self):
        features, labels = constant_dataset(16, 3)
        with pytest.raises(ConfigurationError, match="shape"):
            private_sgd(self.config(), (features, labels))

    def test_label_count_mismatch(self):
        features, labels = constant_dataset(16, 2)
        with pytest.raises(ConfigurationError, match="shape"):
            private_sgd(self.config(), (features, labels[:-1]))

    def test_batch_row_count_mismatch(self):
        features, labels = constant_dataset(16, 2)
        with pytest.raises(ConfigurationError, match="shape"):
            private_sgd_batch(self.config(), [1, 2, 3], np.stack([features] * 2),
                              np.stack([labels] * 2))


def stacked_datasets(population, n, rows, first_seed):
    data = [draw_dataset(population, n, np.random.default_rng(first_seed + r))
            for r in range(rows)]
    return np.stack([f for f, _ in data]), np.stack([y for _, y in data])


def single_runs(config, seeds, features, labels):
    """Each row on its own, through private_sgd (overruns kept as partial traces)."""
    traces = []
    for r, seed in enumerate(seeds):
        row_config = dataclasses.replace(config, seed=seed)
        try:
            traces.append(private_sgd(row_config, (features[r], labels[r])))
        except OverrunError as err:
            traces.append(err.trace)
    return traces


class TestBatchEquivalence:
    """R rows of private_sgd_batch equal R independent single-row runs."""

    def check(self, config, seeds, features, labels, comparator):
        batch = private_sgd_batch(config, seeds, features, labels, record=True)
        singles = single_runs(config, seeds, features, labels)
        regrets = estimate_regret(batch, (features, labels), comparator, config)
        for r, single in enumerate(singles):
            row = batch.traces[r]
            assert row.tau == single.tau == batch.tau[r]
            np.testing.assert_array_equal(row.indices, single.indices)
            np.testing.assert_array_equal(row.fresh, single.fresh)
            assert np.max(np.abs(row.iterates - single.iterates)) <= 1e-12
            assert np.max(np.abs(row.noise_norms - single.noise_norms)) <= 1e-12
            if single.output is None:
                assert batch.overrun[r]
                assert np.all(np.isnan(batch.output[r])) and math.isnan(regrets[r])
                continue
            assert not batch.overrun[r]
            assert np.max(np.abs(batch.output[r] - single.output)) <= 1e-12
            np.testing.assert_array_equal(batch.output[r], row.output)
            single_regret = estimate_regret(single, (features[r], labels[r]),
                                            comparator, config)
            assert abs(regrets[r] - single_regret) <= 1e-12
        return batch

    def test_hinge_on_l2_ball_with_noiseless_row(self):
        d, n = 3, 60
        population = PopulationSpec("linear_margin", d, 1.0, seed=1,
                                    w_true=np.eye(d)[0], noise_rate=0.1)
        features, labels = stacked_datasets(population, n, rows=4, first_seed=0)
        fs = FeasibleSet.l2_ball(0.5, dimension=d)
        seeds = [101, 102, 103, 104]
        for sigma in (1.5, 0.0):
            config = RunConfig(n=n, d=d, eta=0.2, sigma=sigma, feasible_set=fs,
                               oracle=LossOracle.hinge(1.0), w1=np.zeros(d), seed=0)
            self.check(config, seeds, features, labels, np.array([0.3, 0.0, 0.1]))

    def test_absolute_on_off_centre_ball(self):
        d, n = 2, 48
        population = PopulationSpec("uniform_ball", d, 1.0, seed=2)
        features, labels = stacked_datasets(population, n, rows=3, first_seed=10)
        center = np.array([0.4, -0.3])
        fs = FeasibleSet.l2_ball(0.6, center=center)
        config = RunConfig(n=n, d=d, eta=0.3, sigma=0.7, feasible_set=fs,
                           oracle=LossOracle.absolute(1.0), w1=center.copy(), seed=0)
        self.check(config, [7, 8, 9], features, labels, center + 0.1)

    def test_squared_on_box_across_noise_chunks(self):
        # At n = 200 stopping times sit near 0.69n = 139, around the first
        # noise-chunk boundary: with these seeds one row stops just before
        # it and the others cross it mid-run.
        d, n = 4, 200
        population = PopulationSpec("uniform_ball", d, 1.0, seed=3)
        features, labels = stacked_datasets(population, n, rows=3, first_seed=20)
        fs = FeasibleSet.box([-0.5] * d, [0.5] * d)
        config = RunConfig(n=n, d=d, eta=0.05, sigma=0.4, feasible_set=fs,
                           oracle=LossOracle.squared(1.0, fs), w1=np.zeros(d), seed=0)
        batch = self.check(config, [31, 32, 33], features, labels, np.full(d, 0.1))
        assert batch.tau.min() <= NOISE_CHUNK_STEPS < batch.tau.max()

    def test_overrunning_row_beside_finishing_rows(self):
        # Seed 26 overruns a 16-step cap at n = 16 (see
        # test_overrun_carries_partial_trace); seeds 27-29 finish within it.
        n, d = 16, 1
        fs = FeasibleSet.box([-1.0], [1.0])
        config = RunConfig(n=n, d=d, eta=0.1, sigma=0.5, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(d), seed=0,
                           max_steps=16)
        seeds = [26, 27, 28, 29]
        rng = np.random.default_rng(5)
        features = rng.uniform(-1.0, 1.0, size=(4, n, d))
        labels = rng.choice([-1.0, 1.0], size=(4, n))
        batch = self.check(config, seeds, features, labels, np.array([0.2]))
        assert batch.overrun.tolist() == [True, False, False, False]


class TestRegret:
    def test_finite_for_own_output(self):
        _, data, config = hinge_setup(24, 2, sigma=0.4, eta=0.1, seed=23)
        trace = private_sgd(config, data)
        value = estimate_regret(trace, data, trace.output, config)
        assert math.isfinite(value)

    def test_constant_loss_gives_zero(self):
        # zero features make the hinge identically one
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        data = constant_dataset(16, 2)
        config = RunConfig(n=16, d=2, eta=0.1, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(2), seed=4)
        trace = private_sgd(config, data)
        assert estimate_regret(trace, data, np.array([0.3, 0.0]), config) == 0.0

    def test_comparator_must_be_feasible(self):
        _, data, config = hinge_setup(16, 2, sigma=0.0, eta=0.1, seed=5)
        trace = private_sgd(config, data)
        with pytest.raises(ConfigurationError):
            estimate_regret(trace, data, np.array([5.0, 0.0]), config)

    def test_matches_direct_sum(self):
        _, (features, labels), config = hinge_setup(30, 2, sigma=0.6, eta=0.05, seed=29)
        trace = private_sgd(config, (features, labels))
        u = np.array([0.2, -0.1])
        total = 0.0
        for t in np.flatnonzero(trace.fresh):
            x, y = features[trace.indices[t]], labels[trace.indices[t]]
            wt = trace.iterates[t]
            total += max(0.0, 1.0 - y * float(wt @ x))
            total -= max(0.0, 1.0 - y * float(u @ x))
        value = estimate_regret(trace, (features, labels), u, config)
        assert isinstance(value, float)
        assert value == pytest.approx(total, abs=1e-12)


def uniform_interval_density(ts, d, radius):
    # marginal density of <u, X> for X uniform in the d-ball of the given radius
    dens = np.clip(1.0 - (ts / radius) ** 2, 0.0, None) ** ((d - 1) / 2)
    return dens / np.trapezoid(dens, ts)


class TestRisk:
    def test_constant_loss(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0, seed=31)
        oracle = LossOracle.hinge(1.0)
        est = estimate_risk(np.zeros(2), spec, oracle, 500)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_quadrature_oracle(self):
        # E[hinge(w, X)] for w aligned with w_true under noiseless labels is
        # a one-dimensional integral against the marginal of <w_true, X>.
        d, c = 3, 0.7
        spec = PopulationSpec("linear_margin", d, 1.0, seed=37,
                              w_true=np.eye(d)[0], noise_rate=0.0)
        oracle = LossOracle.hinge(1.0)
        w = c * np.eye(d)[0]
        ts = np.linspace(-1.0, 1.0, 400_001)
        dens = uniform_interval_density(ts, d, 1.0)
        expected = np.trapezoid(np.maximum(0.0, 1.0 - c * np.abs(ts)) * dens, ts)
        est = estimate_risk(w, spec, oracle, 1_000_000,
                            rng=np.random.default_rng(38))
        assert abs(est.mean - expected) <= 3.0 * est.stderr

    def test_eval_samples_validated(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0, seed=1)
        with pytest.raises(ConfigurationError):
            estimate_risk(np.zeros(2), spec, LossOracle.hinge(1.0), 0)


class TestBaseline:
    def test_recovers_interior_quadratic_minimizer(self):
        # Squared loss with independent uniform labels has population risk
        # 0.5*w'Sw + const with S = (R^2/(d+2)) I, so the minimizer is 0.
        # Averaged over a few seeds: a single run wobbles at the 1e-2 scale.
        spec = PopulationSpec("uniform_ball", 2, 1.0, seed=41)
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        oracle = LossOracle.squared(1.0, fs)
        norms = [np.linalg.norm(baseline_minimizer(spec, oracle, fs,
                                                   150_000, seed=s).w)
                 for s in (0, 1, 2)]
        assert np.mean(norms) <= 1e-2
        assert max(norms) <= 2e-2

    def test_boundary_when_minimizer_outside(self):
        # With sign labels the unconstrained quadratic minimizer is
        # (E|T| / E[T^2]) * w_true, far outside a radius-0.25 ball; the
        # constrained optimum is its radial projection 0.25*w_true.
        d = 2
        spec = PopulationSpec("linear_margin", d, 1.0, seed=43,
                              w_true=np.eye(d)[0], noise_rate=0.0)
        fs = FeasibleSet.l2_ball(0.25, dimension=d)
        oracle = LossOracle.squared(1.0, fs)
        unconstrained = (4.0 / (3.0 * math.pi)) / (1.0 / (d + 2.0))
        assert unconstrained > 1.5   # comfortably outside
        result = baseline_minimizer(spec, oracle, fs, 60_000, seed=2)
        np.testing.assert_allclose(result.w, [0.25, 0.0], atol=1e-2)

    def test_error_bound_and_decay(self):
        # Boundary-constrained quadratic with exact coefficients: for X
        # uniform on the unit disk and sign labels, F(w) = w'w/8 - b w_1 with
        # b = 4/(3pi), minimized on the 0.25-ball at the boundary. Excess
        # risk must sit under the reported error bound and decay at least
        # like 1/sqrt(budget).
        d = 2
        spec = PopulationSpec("linear_margin", d, 1.0, seed=43,
                              w_true=np.eye(d)[0], noise_rate=0.0)
        fs = FeasibleSet.l2_ball(0.25, dimension=d)
        oracle = LossOracle.squared(1.0, fs)
        b = 4.0 / (3.0 * math.pi)

        def excess(w):
            risk = 0.125 * float(w @ w) - b * w[0]
            best = 0.125 * 0.25 ** 2 - b * 0.25
            return risk - best

        budgets = [10_000, 30_000, 90_000]
        means = []
        for budget in budgets:
            per_seed = []
            for seed in range(5):
                result = baseline_minimizer(spec, oracle, fs, budget, seed=seed)
                value = excess(result.w)
                assert value <= result.error_bound
                per_seed.append(value)
            means.append(np.mean(per_seed))
        slope = np.polyfit(np.log(budgets), np.log(means), 1)[0]
        assert slope <= -0.4

    @pytest.mark.parametrize("case", ["hinge-ball", "squared-box"])
    def test_matches_stepwise_replay(self, case):
        # The documented algorithm step by step: one generator call and one
        # step size per step, projection written out. Pre-drawing the
        # indices and step sizes must not change a single bit.
        d, budget, seed = 3, 10_000, 3
        if case == "hinge-ball":
            spec = PopulationSpec("linear_margin", d, 1.0, seed=5,
                                  w_true=np.eye(d)[0], noise_rate=0.1)
            fs = FeasibleSet.l2_ball(0.5, dimension=d)
            oracle = LossOracle.hinge(1.0)

            def project(v):
                offset = v - fs.center
                norm = np.linalg.norm(offset)
                return v if norm <= fs.radius else fs.center + offset * (fs.radius / norm)

            def subgradient(w, x, y):
                return -y * x if y * float(w @ x) <= 1.0 else np.zeros(d)
        else:
            spec = PopulationSpec("uniform_ball", d, 1.0, seed=6)
            fs = FeasibleSet.box([-0.5, -0.2, -0.5], [0.5, 0.5, 0.1])
            oracle = LossOracle.squared(1.0, fs)

            def project(v):
                return np.minimum(np.maximum(v, fs.lower), fs.upper)

            def subgradient(w, x, y):
                return (float(w @ x) - y) * x
        result = baseline_minimizer(spec, oracle, fs, budget, seed=seed)

        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x6261]))
        features, labels = draw_dataset(spec, result.holdout_size, rng)
        D, L = fs.diameter(), oracle.lipschitz_L
        w = project(np.zeros(d))
        average = np.zeros(d)
        for t in range(1, budget + 1):
            i = int(rng.integers(0, result.holdout_size))
            g = subgradient(w, features[i], labels[i])
            average += w
            w = project(w - D / (L * math.sqrt(t)) * g)
        average /= budget
        np.testing.assert_array_equal(result.w, average)

    def test_budget_floor(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0, seed=1)
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        with pytest.raises(ConfigurationError):
            baseline_minimizer(spec, LossOracle.squared(1.0, fs), fs, 999)
