import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import dpmirror.harness as harness_mod
import dpmirror.optimizer as optimizer_mod
from dpmirror import sampler
from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import (RISK_QUADRATURE_BOUND, LossOracle, PopulationSpec, draw_dataset,
                             population_risk)
from dpmirror.optimizer import (NOISE_CHUNK_STEPS, REGRET_BLOCK, RunBatch, RunConfig,
                                baseline_minimizer, estimate_regret, estimate_risk,
                                private_sgd, private_sgd_batch)

from oracles import (engine_matches_stepwise, fresh_rows, grid_minimum, plain_subgradient,
                     project_ball, stepwise_run)


def hinge_setup(n, d, sigma, eta, seed, radius=0.5, noise_rate=0.1):
    """(population, dataset, config) of a hinge run; the dataset is drawn
    with np.random.default_rng(seed), and the run takes the seed as well."""
    population = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                noise_rate=noise_rate)
    dataset = draw_dataset(population, n, np.random.default_rng(seed))
    fs = FeasibleSet.l2_ball(radius, dimension=d)
    config = RunConfig(n=n, eta=eta, sigma=sigma, feasible_set=fs,
                       oracle=LossOracle.hinge(1.0), w1=np.zeros(d))
    return population, dataset, config


def constant_dataset(n, d, value=0.0, label=1.0):
    return np.full((n, d), value), np.full(n, label)


class TestPrivateSgd:
    def test_two_step_run_by_hand(self):
        # Seed 1 draws indices [0, 1] for n=2, so the noiseless run is two
        # fresh hinge steps on a clamped interval:
        #   w1 = 0            g = -1*0.8 -> w2 = clamp(0 + 0.25*0.8)  = 0.2
        #   w2 = 0.2          g = +0.5   -> w3 = clamp(0.2 - 0.125)   = 0.075
        # margins <w1, 0.8> = 0 and <w2, 0.5> = 0.1; output = (0 + 0.2)/2 = 0.1
        fs = FeasibleSet.box([-1.0], [1.0])
        data = (np.array([[0.8], [0.5]]), np.array([1.0, -1.0]))
        config = RunConfig(n=2, eta=0.25, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(1))
        run = private_sgd(config, 1, data)
        assert run.tau.tolist() == [2]
        assert run.fresh_indices[0].tolist() == [0, 1]
        np.testing.assert_allclose(run.fresh_margins[0], [0.0, 0.1], atol=1e-12)
        np.testing.assert_allclose(run.output[0], [0.1], atol=1e-12)

    def test_vanishing_step_size_keeps_w1(self):
        _, data, config = hinge_setup(20, 2, sigma=1.0, eta=1e-12, seed=3)
        run = private_sgd(config, 3, data)
        assert np.linalg.norm(run.output[0] - config.w1) <= 1e-6

    def test_fixed_seed_is_bitwise_deterministic(self):
        _, data, config = hinge_setup(32, 3, sigma=0.8, eta=0.05, seed=7)
        a = private_sgd(config, 7, data)
        b = private_sgd(config, 7, data)
        for field in ("tau", "output", "fresh_indices", "fresh_margins"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

    def test_trace_invariants(self):
        n = 50
        _, data, config = hinge_setup(n, 2, sigma=2.0, eta=0.1, seed=11)
        run = private_sgd(config, 11, data)
        assert run.fresh_indices.shape == (1, n // 2 + 1)
        assert len(set(run.fresh_indices[0].tolist())) == n // 2 + 1
        assert run.fresh_margins.shape == (1, n // 2 + 1)
        # Every iterate lies in the 0.5-ball, so |<w_t, x_t>| <= 0.5 * ||x_t||.
        norms = np.linalg.norm(data[0][run.fresh_indices[0]], axis=1)
        assert (np.abs(run.fresh_margins[0]) <= 0.5 * norms * (1 + 1e-12)).all()
        assert config.feasible_set.contains(run.output[0])

    def test_noiseless_matches_plain_projected_sgd(self):
        # Independent replay: plain projected subgradient steps on the
        # run's index stream, with the projection and the subgradients
        # written out longhand in tests/oracles.py.
        _, (features, labels), config = hinge_setup(40, 3, sigma=0.0, eta=0.07, seed=13)
        self.check_against_reference(config, 13, features, labels)

    def test_noisy_matches_stepwise_reference(self):
        # The per-step loop as the reference: one integers() draw and one
        # standard_normal(d) draw per step from the run's two streams, a
        # Python set of seen indices, projection written out. At n = 300
        # the run crosses noise-chunk boundaries.
        _, (features, labels), config = hinge_setup(300, 3, sigma=0.7, eta=0.05, seed=17)
        run = self.check_against_reference(config, 17, features, labels)
        assert run.tau[0] > NOISE_CHUNK_STEPS

    @staticmethod
    def check_against_reference(config, seed, features, labels):
        r = config.feasible_set.radius
        tau, indices, _, margins, output = stepwise_run(
            config.n, config.eta, config.sigma, config.w1, seed, features, labels,
            lambda x: project_ball(r, x),
            lambda w, x, y: plain_subgradient("hinge", w, x, y))
        run = private_sgd(config, seed, (features, labels))
        # At d = 3 einsum may sum a dot product in another order than
        # oracles.dot, so margins agree to 1e-12, not bit for bit.
        assert run.tau.tolist() == [tau]
        np.testing.assert_array_equal(run.fresh_indices[0], indices)
        assert np.max(np.abs(run.fresh_margins[0] - margins)) <= 1e-12
        assert np.max(np.abs(run.output[0] - output)) <= 1e-12
        return run

    def test_wrong_dataset_size(self):
        _, (features, labels), config = hinge_setup(30, 2, sigma=0.0, eta=0.1, seed=5)
        with pytest.raises(ConfigurationError):
            private_sgd(config, 5, (features[:-1], labels[:-1]))

    def test_w1_outside_set_rejected(self):
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        with pytest.raises(ConfigurationError):
            RunConfig(n=16, eta=0.1, sigma=0.0, feasible_set=fs,
                      oracle=LossOracle.hinge(1.0), w1=np.array([1.0, 0.0]))


class TestInputChecks:
    """Bad inputs raise ConfigurationError once: a config when built,
    the seeds and data at run entry."""

    def config(self, **changes):
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        values = dict(n=16, eta=0.1, sigma=1.0, feasible_set=fs,
                      oracle=LossOracle.hinge(1.0), w1=np.zeros(2))
        values.update(changes)
        return RunConfig(**values)

    @pytest.mark.parametrize("changes", [
        dict(n=0), dict(n=16.0), dict(eta=0.0), dict(sigma=-1.0), dict(w1=np.zeros(3)),
    ], ids=["n-0", "n-float", "eta-0", "sigma-negative", "w1-dimension"])
    def test_config_checked_when_built(self, changes):
        with pytest.raises(ConfigurationError):
            self.config(**changes)

    @pytest.mark.parametrize("changes", [dict(eta=1e160), dict(eta=1.0, sigma=1e160),
                                         dict(sigma=1e307)],
                             ids=["eta", "sigma", "noise-norm"])
    def test_step_that_could_overflow_refused(self, changes):
        # On the ball of radius 0.5 a step of eta = 1e160 once ran with no
        # warning and held (0, 0) at every step: project_rows maps a point
        # whose squared norm overflows to 0. Each value is past
        # 2^200, the range that keeps every step finite (errors.py, "step").
        with pytest.raises(ConfigurationError, match=r"must have magnitude in \[2\^-200"):
            self.config(**changes)

    def test_largest_steps_stay_on_the_sphere(self):
        # Steps of norm about 1e60, at the largest eta, are accepted: their
        # squares are finite, so every iterate is projected onto the sphere,
        # with no warning.
        features, labels = constant_dataset(16, 2, value=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, iterates = engine_matches_stepwise(self.config(eta=2.0**200), [0],
                                                  features[None], labels[None])
        norms = np.linalg.norm(iterates[0, 1:], axis=1)
        assert np.allclose(norms, 0.5, rtol=1e-12)

    def test_bool_data_entry_refused(self):
        # A bool among numbers in a nested list once ran as 0 or 1; an
        # ndarray of bool dtype was refused already.
        features, labels = constant_dataset(16, 2, value=0.1)
        rows = features.tolist()
        rows[0][0] = True
        for bad in ([rows, labels], [features, [np.True_] + labels.tolist()[1:]],
                    [features.astype(bool), labels]):
            with pytest.raises(ConfigurationError, match="real numbers"):
                private_sgd(self.config(), 0, bad)
        run = private_sgd(self.config(), 0, (features.tolist(), labels.tolist()))
        assert np.isfinite(run.output).all()

    def test_config_holds_a_read_only_copy_of_w1(self):
        # A checked w1 cannot be moved outside the set afterwards.
        w1 = np.zeros(2)
        config = self.config(w1=w1)
        w1[0] = 5.0
        assert config.w1.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            config.w1[0] = 5.0

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta(self, eta):
        with pytest.raises(ConfigurationError, match="eta"):
            self.config(eta=eta)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ConfigurationError, match="sigma"):
            self.config(sigma=sigma)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_w1(self, value):
        with pytest.raises(ConfigurationError, match="w1"):
            self.config(w1=np.array([value, 0.0]))

    def test_non_finite_features(self):
        features, labels = constant_dataset(16, 2, value=0.1)
        features[3, 1] = math.nan
        with pytest.raises(ConfigurationError, match="finite"):
            private_sgd(self.config(), 0, (features, labels))

    def test_non_finite_labels(self):
        features, labels = constant_dataset(16, 2, value=0.1)
        labels[5] = math.inf
        with pytest.raises(ConfigurationError, match="finite"):
            private_sgd(self.config(), 0, (features, labels))

    def test_feature_dimension_mismatch(self):
        features, labels = constant_dataset(16, 3)
        with pytest.raises(ConfigurationError, match="shape"):
            private_sgd(self.config(), 0, (features, labels))

    def test_label_count_mismatch(self):
        features, labels = constant_dataset(16, 2)
        with pytest.raises(ConfigurationError, match="shape"):
            private_sgd(self.config(), 0, (features, labels[:-1]))

    def test_features_beyond_certificate(self):
        # A norm-5 feature row under a hinge oracle certified for L = 1
        # would give a step 5x the sensitivity the accountant prices.
        features, labels = constant_dataset(16, 2, value=0.1)
        features[7] = [3.0, 4.0]
        with pytest.raises(ConfigurationError, match="certified L"):
            private_sgd(self.config(), 0, (features, labels))
        good = constant_dataset(16, 2, value=0.1)
        with pytest.raises(ConfigurationError, match="certified L"):
            private_sgd_batch(self.config(), [1, 2], np.stack([good[0], features]),
                              np.stack([good[1], labels]))

    def test_squared_label_beyond_certificate(self):
        # Unit feature bound, labels in [-1, 1] and the radius-0.5 ball give
        # L = (0.5 * 1 + 1) * 1 = 1.5; a unit-norm row labelled 2 can reach
        # (0.5 * 1 + 2) * 1 = 2.5.
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        config = self.config(oracle=LossOracle.squared(1.0, fs))
        features, labels = constant_dataset(16, 2, value=0.1)
        features[2], labels[2] = [0.6, 0.8], 2.0
        with pytest.raises(ConfigurationError, match="certified L"):
            private_sgd(config, 0, (features, labels))
        labels[2] = 1.0   # the same row at label 1 sits exactly on L and runs
        assert private_sgd(config, 0, (features, labels)).tau[0] >= 9

    @pytest.mark.parametrize("entry", ["", "0.1", [0.1]],
                             ids=["empty-text", "number-text", "nested"])
    def test_data_entry_that_is_not_a_real(self, entry):
        # Text once ended in numpy's ValueError (and "0.1" ran as 0.1), and a
        # ragged nesting in a ValueError too. Found by tests/test_fuzz.py.
        features = np.full((1, 16, 2), 0.1).tolist()
        features[0][3][1] = entry
        labels = np.ones((1, 16)).tolist()
        with pytest.raises(ConfigurationError, match="features"):
            private_sgd_batch(self.config(), [1], features, labels)
        labels[0][5] = entry
        with pytest.raises(ConfigurationError, match="labels"):
            private_sgd_batch(self.config(), [1], np.full((1, 16, 2), 0.1), labels)

    def test_zero_label_beside_an_overflowing_feature_norm(self):
        # A hinge row labelled 0 has a zero subgradient, but a feature row
        # whose squared norm overflows made the certificate check 0 * inf
        # (a RuntimeWarning, then a NaN that passed the comparison).
        features, labels = constant_dataset(16, 2, value=0.1)
        features[4], labels[4] = [1e200, 0.0], 0.0
        with pytest.raises(ConfigurationError, match="certified L"):
            private_sgd(self.config(), 0, (features, labels))

    def test_batch_row_count_mismatch(self):
        features, labels = constant_dataset(16, 2)
        with pytest.raises(ConfigurationError, match="shape"):
            private_sgd_batch(self.config(), [1, 2, 3], np.stack([features] * 2),
                              np.stack([labels] * 2))

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"])
    def test_bad_seed(self, seed):
        # None would seed from OS entropy and True run as seed 1.
        features, labels = constant_dataset(16, 2, value=0.1)
        with pytest.raises(ConfigurationError, match="seed"):
            private_sgd_batch(self.config(), [4, seed], np.stack([features] * 2),
                              np.stack([labels] * 2))

    def test_numpy_integer_seed(self):
        features, labels = constant_dataset(16, 2, value=0.1)
        a = private_sgd(self.config(), np.uint64(9), (features, labels))
        b = private_sgd(self.config(), 9, (features, labels))
        assert a.fresh_margins.tobytes() == b.fresh_margins.tobytes()
        assert a.output.tobytes() == b.output.tobytes()


def stacked_datasets(population, n, rows, first_seed):
    data = [draw_dataset(population, n, np.random.default_rng(first_seed + r))
            for r in range(rows)]
    return np.stack([f for f, _ in data]), np.stack([y for _, y in data])


class TestBatchEquivalence:
    """R rows of private_sgd_batch equal R independent R = 1 runs."""

    def check(self, config, seeds, features, labels, comparator):
        batch = private_sgd_batch(config, seeds, features, labels)
        regrets = estimate_regret(batch, fresh_rows(batch, features, labels),
                                  comparator, config)
        for r, seed in enumerate(seeds):
            single = private_sgd(config, seed, (features[r], labels[r]))
            assert single.tau[0] == batch.tau[r]
            np.testing.assert_array_equal(batch.fresh_indices[r], single.fresh_indices[0])
            np.testing.assert_allclose(batch.fresh_margins[r], single.fresh_margins[0],
                                       rtol=0, atol=1e-12)
            single_regret = estimate_regret(
                single, fresh_rows(single, features[r:r + 1], labels[r:r + 1]),
                comparator, config)[0]
            assert np.max(np.abs(batch.output[r] - single.output[0])) <= 1e-12
            assert abs(regrets[r] - single_regret) <= 1e-12
        return batch

    def test_hinge_on_l2_ball_with_noiseless_row(self):
        d, n = 3, 60
        population = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                    noise_rate=0.1)
        features, labels = stacked_datasets(population, n, rows=4, first_seed=0)
        fs = FeasibleSet.l2_ball(0.5, dimension=d)
        seeds = [101, 102, 103, 104]
        for sigma in (1.5, 0.0):
            config = RunConfig(n=n, eta=0.2, sigma=sigma, feasible_set=fs,
                               oracle=LossOracle.hinge(1.0), w1=np.zeros(d))
            self.check(config, seeds, features, labels, np.array([0.3, 0.0, 0.1]))

    def test_absolute_on_off_origin_box(self):
        d, n = 2, 48
        population = PopulationSpec("uniform_ball", d, 1.0)
        features, labels = stacked_datasets(population, n, rows=3, first_seed=10)
        center = np.array([0.4, -0.3])
        fs = FeasibleSet.box(center - 0.6, center + 0.6)
        config = RunConfig(n=n, eta=0.3, sigma=0.7, feasible_set=fs,
                           oracle=LossOracle.absolute(1.0), w1=center.copy())
        self.check(config, [7, 8, 9], features, labels, center + 0.1)

    def test_squared_on_box_across_noise_chunks(self):
        # At n = 200 stopping times sit near 0.69n = 139, around the first
        # noise-chunk boundary: with these seeds one row stops just before
        # it and the others cross it mid-run.
        d, n = 4, 200
        population = PopulationSpec("uniform_ball", d, 1.0)
        features, labels = stacked_datasets(population, n, rows=3, first_seed=20)
        fs = FeasibleSet.box([-0.5] * d, [0.5] * d)
        config = RunConfig(n=n, eta=0.05, sigma=0.4, feasible_set=fs,
                           oracle=LossOracle.squared(1.0, fs), w1=np.zeros(d))
        batch = self.check(config, [31, 32, 33], features, labels, np.full(d, 0.1))
        assert batch.tau.min() <= NOISE_CHUNK_STEPS < batch.tau.max()


def golden_batch_case(name):
    """(config, seeds, features, labels) of one pinned five-row batch."""
    if name == "hinge-box-d1-n16":
        fs = FeasibleSet.box([-1.0], [1.0])
        config = RunConfig(n=16, eta=0.1, sigma=0.5, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(1))
        rng = np.random.default_rng(5)
        features = rng.uniform(-1.0, 1.0, size=(5, 16, 1))
        labels = rng.choice([-1.0, 1.0], size=(5, 16))
        return config, [26, 27, 28, 29, 43], features, labels
    if name == "hinge-ball-d2":
        d, sigma, seeds, first_seed = 2, 1.5, [51, 52, 53, 54, 55], 60
        population = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                    noise_rate=0.1)
        fs = FeasibleSet.l2_ball(0.5, dimension=d)
        oracle = LossOracle.hinge(1.0)
    else:
        d, sigma, seeds, first_seed = 10, 0.4, [61, 62, 63, 64, 65], 70
        population = PopulationSpec("uniform_ball", d, 1.0)
        fs = FeasibleSet.box([-0.5] * d, [0.5] * d)
        oracle = LossOracle.squared(1.0, fs)
    features, labels = stacked_datasets(population, 200, rows=5, first_seed=first_seed)
    config = RunConfig(n=200, eta=0.05, sigma=sigma, feasible_set=fs, oracle=oracle,
                       w1=np.zeros(d))
    return config, seeds, features, labels


class TestBatchGolden:
    """Seeded batches pinned bit for bit, fixed while the engine still kept
    its rows sorted by falling tau and froze each row at its own tau."""

    # sha256 of the tau, output and fresh_margins bytes, in order. Each was
    # re-pinned when the margins replaced the fresh iterates in the digest:
    # tau and output hash as before, and the margins equal the einsum of the
    # old fresh iterates against the rows they read. squared-box-d10 was
    # re-pinned before, when draw_arrays took U**(1/d) by float_power, which
    # rounds alike with and without numpy's AVX-512 loops: the new digest
    # was the old code's without them. Each row of hinge-box-d1-n16 equals
    # oracles.stepwise_run's bit for bit.
    GOLDEN = {
        "hinge-ball-d2":
            "381a10f54cf997d88d28e1fda3a37cccd7c267d895b7b94957eb91d2a940ae81",
        "squared-box-d10":
            "48c34988d25fb1508b977c36a7ca6b6f9c93f5c7880c556a2df91a3109ebb0cb",
        "hinge-box-d1-n16":
            "fc6a394514c85b3194f652b96ea48e5ae575ecc824af782b8d173592809a20f9",
    }
    # The n = 200 cases run past the first NOISE_CHUNK_STEPS = 128 steps.
    TAU = {
        "hinge-ball-d2": [145, 135, 145, 149, 123],
        "squared-box-d10": [155, 136, 162, 124, 125],
        "hinge-box-d1-n16": [19, 14, 14, 15, 16],
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_digest(self, name):
        batch = private_sgd_batch(*golden_batch_case(name))
        assert batch.tau.tolist() == self.TAU[name]
        digest = hashlib.sha256()
        for array in (batch.tau, batch.output, batch.fresh_margins):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == self.GOLDEN[name]

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_digest_past_first_block(self, name, monkeypatch):
        # A first block of one draw reads every row again in later rounds.
        monkeypatch.setattr(sampler, "first_block", lambda n: 1)
        self.test_golden_digest(name)

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_permuting_rows_permutes_results(self, name):
        config, seeds, features, labels = golden_batch_case(name)
        perm = np.array([3, 0, 4, 1, 2])
        batch = private_sgd_batch(config, seeds, features, labels)
        permuted = private_sgd_batch(config, np.asarray(seeds)[perm].tolist(),
                                     features[perm], labels[perm])
        for field in ("tau", "output", "fresh_indices", "fresh_margins"):
            want = getattr(batch, field)[perm]
            assert getattr(permuted, field).tobytes() == want.tobytes(), field


class TestNoisyBytes:
    """At sigma > 0 and d <= 2, engine rows equal the stepwise reference bit
    for bit: the reference's dot products (oracles.dot) sum in coordinate
    order, as the engine's einsum does at d <= 2. n = 300 crosses noise
    chunks, and both sets' projections are active along the way."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_matches_stepwise_reference(self, kind, set_kind, d):
        self.check(kind, set_kind, d, [31, 32])

    def test_one_row_in_one_dimension(self):
        # rows * d = 1, where numpy's add.reduce over steps sums pairwise.
        self.check("squared", "box", 1, [31])

    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_unit_features_make_each_margin_its_iterate(self, kind, set_kind,
                                                       monkeypatch):
        # At d = 1 with every feature e_1, each margin <w_t, e_1> is the
        # iterate held at fresh step t, bit for bit: the margins keep what a
        # white-box audit of one record's steps reads. Labels of size 1 make
        # every hinge and absolute chunk certified (fixed_slopes); squared
        # chunks never are.
        n, seeds = 300, [31, 32]
        labels = np.random.default_rng(41).choice([-1.0, 1.0], size=(len(seeds), n))
        fs = (FeasibleSet.l2_ball(0.5, dimension=1) if set_kind == "ball"
              else FeasibleSet.box([-0.5], [0.5]))
        oracle = (LossOracle.squared(1.0, fs) if kind == "squared"
                  else getattr(LossOracle, kind)(1.0))
        config = RunConfig(n=n, eta=0.1, sigma=0.7, feasible_set=fs, oracle=oracle,
                           w1=np.zeros(1))
        fixed = record_fixed_slopes(monkeypatch)
        batch, iterates = engine_matches_stepwise(config, seeds, np.ones((len(seeds), n, 1)),
                                                  labels)
        assert batch.tau.min() > NOISE_CHUNK_STEPS
        assert len(fixed) >= 2 and set(fixed) == {kind != "squared"}
        assert batch.fresh_margins.tobytes() == iterates[..., 0].tobytes()

    def check(self, kind, set_kind, d, seeds):
        n = 300
        if kind == "hinge":
            population = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                        noise_rate=0.1)
        else:
            population = PopulationSpec("uniform_ball", d, 1.0)
        features, labels = stacked_datasets(population, n, len(seeds), first_seed=40)
        if set_kind == "ball":
            fs = FeasibleSet.l2_ball(0.5, dimension=d)
            on_boundary = lambda w: abs(math.hypot(*w) - 0.5) < 1e-12  # noqa: E731
        else:
            fs = FeasibleSet.box([-0.5] * d, [0.5] * d)
            on_boundary = lambda w: bool(np.any(np.abs(w) == 0.5))  # noqa: E731
        oracle = (LossOracle.squared(1.0, fs) if kind == "squared"
                  else getattr(LossOracle, kind)(1.0))
        config = RunConfig(n=n, eta=0.1, sigma=0.7, feasible_set=fs, oracle=oracle,
                           w1=np.zeros(d))
        batch, iterates = engine_matches_stepwise(config, seeds, features, labels)
        assert batch.tau.min() > NOISE_CHUNK_STEPS
        assert sum(on_boundary(w) for row in iterates for w in row) > 0


class TestLiveNoiseGenerators:
    def test_each_run_draws_one_stream_across_chunks(self, monkeypatch):
        # run_steps starts each run's noise stream once and keeps its
        # Generator live: the normals it draws chunk by chunk, with the
        # other runs drawing between them, are one standard_normal draw of
        # the freshly built child, at any chunk length.
        n, d, seeds = 40, 2, [4, 2 ** 33, 7]
        features = np.full((len(seeds) * n, d), 0.1)
        labels = np.ones(len(seeds) * n)
        config = RunConfig(n=n, eta=0.1, sigma=0.7,
                           feasible_set=FeasibleSet.l2_ball(0.5, dimension=d),
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(d))
        outputs = []
        for chunk in (3, 7, NOISE_CHUNK_STEPS):
            monkeypatch.setattr(optimizer_mod, "NOISE_CHUNK_STEPS", chunk)
            steps = optimizer_mod.draw_fresh_steps(n, seeds)
            started, pieces = [], {row: [] for row in range(len(seeds))}

            def watched(row, streams=steps.noise_streams):
                started.append(row)
                rng = streams.stream(row)

                def standard_normal(out):
                    rng.standard_normal(out=out)
                    pieces[row].append(out.copy())
                return types.SimpleNamespace(standard_normal=standard_normal)

            steps.noise_streams = types.SimpleNamespace(stream=watched)
            data_rows = steps.fresh_indices + (np.arange(len(seeds)) * n)[:, None]
            outputs.append(optimizer_mod.run_steps(config, steps, features, labels,
                                                   data_rows).output.tobytes())
            assert started == list(range(len(seeds)))
            total = len(steps.fresh)
            assert total > 2 * chunk or chunk == NOISE_CHUNK_STEPS
            for row, seed in enumerate(seeds):
                assert [len(piece) for piece in pieces[row]] == (
                    [chunk] * (total // chunk) + [total % chunk] * (total % chunk > 0))
                fresh = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
                want = fresh.standard_normal((total, d))
                assert np.concatenate(pieces[row]).tobytes() == want.tobytes(), (chunk, seed)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_fresh_steps_run_again(self):
        # run_steps starts every noise stream afresh, so one FreshSteps run
        # twice gives the same batch.
        n, d = 300, 2
        features, labels = np.full((n, d), 0.1), np.ones(n)
        _, _, config = hinge_setup(n, d, sigma=0.7, eta=0.05, seed=17)
        steps = optimizer_mod.draw_fresh_steps(n, [17, 18])
        data_rows = steps.fresh_indices % n
        first, second = (optimizer_mod.run_steps(config, steps, features, labels, data_rows)
                         for _ in range(2))
        assert first.fresh_margins.tobytes() == second.fresh_margins.tobytes()
        assert first.output.tobytes() == second.output.tobytes()


def seeds_running_past(n, steps, count):
    """The first count seeds, in order, whose runs on n records have not
    stopped after steps steps: the first steps draws of their index streams
    (child 0 of SeedSequence(seed).spawn(2), one integers() call per step as
    in oracles.stepwise_run) hold at most n//2 distinct values."""
    seeds, seed = [], 0
    while len(seeds) < count:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        if len({int(rng.integers(0, n)) for _ in range(steps)}) <= n // 2:
            seeds.append(seed)
        seed += 1
    return seeds


class TestCornerBytes:
    """Engine rows equal the stepwise reference bit for bit where the update
    meets exact zeros: sigma = 0 from w1 = (-0.0, -0.0), on data whose second
    coordinate is +0.0 or -0.0, so that coordinate of every iterate stays a
    signed zero, at n = 16 and at n = 300, where the output's sum crosses a
    block. Rows that run past 4n steps do so beside rows that stop early, at
    sigma = 0 and sigma > 0. TestNoisyBytes covers sigma > 0 at n = 300."""

    N, D = 16, 2

    def case(self, kind, set_kind, rows, n, sigma):
        rng = np.random.default_rng(9)
        features = np.zeros((rows, n, self.D))
        features[..., 0] = rng.uniform(-1.0, 1.0, size=(rows, n))
        features[..., 1] = np.where(rng.random((rows, n)) < 0.5, 0.0, -0.0)
        if kind == "hinge":
            labels = rng.choice([-1.0, 1.0], size=(rows, n))
        else:
            labels = rng.uniform(-1.0, 1.0, size=(rows, n))
        fs = (FeasibleSet.l2_ball(0.5, dimension=self.D) if set_kind == "ball"
              else FeasibleSet.box([-0.5] * self.D, [0.5] * self.D))
        oracle = (LossOracle.squared(1.0, fs) if kind == "squared"
                  else getattr(LossOracle, kind)(1.0))
        config = RunConfig(n=n, eta=0.3, sigma=sigma, feasible_set=fs,
                           oracle=oracle, w1=np.array([-0.0, -0.0]))
        return config, features, labels

    def check(self, kind, set_kind, seeds, n=N, sigma=0.0):
        """The batch and the reference's fresh-step iterates."""
        config, features, labels = self.case(kind, set_kind, len(seeds), n, sigma)
        return engine_matches_stepwise(config, seeds, features, labels)

    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_noiseless_from_negative_zero(self, kind, set_kind):
        _, iterates = self.check(kind, set_kind, [11, 12, 13, 14, 15])
        # The second coordinate stays a signed zero, and both signs occur.
        second = iterates[..., 1]
        assert not second.any() and np.signbit(second).any() and not np.signbit(second).all()

    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_noiseless_sum_across_blocks(self, kind, set_kind):
        # m = 151 fresh steps: the output's running sum crosses a noise
        # chunk of NOISE_CHUNK_STEPS steps, and the next chunk adds to the
        # sum so far. A running add from +0.0 of signed zeros is +0.0.
        batch, iterates = self.check(kind, set_kind, [11, 12, 13, 14, 15], n=300)
        assert batch.fresh_margins.shape[1] == 151 > NOISE_CHUNK_STEPS
        second = iterates[..., 1]
        assert not second.any() and np.signbit(second).any() and not np.signbit(second).all()
        assert batch.output[:, 1].tobytes() == np.zeros(5).tobytes()

    @pytest.mark.parametrize("block", ["first", "redrawn"])
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_row_past_4n_steps_beside_rows_that_stop_early(self, kind, set_kind, sigma,
                                                           block, monkeypatch):
        # At n = 2 a run takes more than 4n = 8 steps with probability 2^-7;
        # the first two seeds whose index streams do so, 140 and 208 (tau 9
        # and 10), run to their own stop beside seeds 0 and 1 (tau 3 and 2).
        # A first block of one draw reads every row again in later rounds,
        # whose first, 8-draw block the long rows outrun.
        if block == "redrawn":
            monkeypatch.setattr(sampler, "first_block", lambda n: 1)
        batch, _ = self.check(kind, set_kind, seeds_running_past(2, 8, 2) + [0, 1], n=2,
                              sigma=sigma)
        assert batch.tau[:2].min() > 8 and batch.tau[2:].max() <= 3
        assert np.isfinite(batch.output).all()


def record_fixed_slopes(monkeypatch):
    """A list that gets, per noise chunk, whether LossOracle.fixed_slopes
    certified its slopes."""
    fixed, certify = [], LossOracle.fixed_slopes

    def recorded(self, labels, reach):
        slopes = certify(self, labels, reach)
        fixed.append(slopes is not None)
        return slopes

    monkeypatch.setattr(LossOracle, "fixed_slopes", recorded)
    return fixed


class TestFixedSlopeBytes:
    """Chunks whose slopes LossOracle.fixed_slopes certifies form their steps
    in one pass, and equal the stepwise reference bit for bit, as the
    chunks it does not certify do. The hinge cases of TestNoisyBytes and
    TestCornerBytes are certified too (|y| = 1, ||x|| <= 1, sets of largest
    norm at most 0.5*sqrt(2))."""

    def check(self, config, seeds, features, labels):
        batch, _ = engine_matches_stepwise(config, seeds, features, labels)
        assert batch.tau.min() > NOISE_CHUNK_STEPS

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    def test_absolute_loss_with_unit_labels(self, set_kind, d, sigma, monkeypatch):
        # |y| = 1 exceeds every margin on both sets, so every chunk is
        # certified, with slope sign(-y).
        n, seeds = 300, [31, 32]
        features, _ = stacked_datasets(PopulationSpec("uniform_ball", d, 1.0), n, len(seeds),
                                       first_seed=90)
        labels = np.random.default_rng(91).choice([-1.0, 1.0], size=(len(seeds), n))
        fs = (FeasibleSet.l2_ball(0.5, dimension=d) if set_kind == "ball"
              else FeasibleSet.box([-0.5] * d, [0.5] * d))
        config = RunConfig(n=n, eta=0.1, sigma=sigma, feasible_set=fs,
                           oracle=LossOracle.absolute(1.0), w1=np.full(d, -0.0))
        fixed = record_fixed_slopes(monkeypatch)
        self.check(config, seeds, features, labels)
        assert len(fixed) >= 2 and all(fixed)

    def test_both_paths_alternate_within_a_row(self, monkeypatch):
        # Two rows of norm 3 > 1/(|y| * 0.5), read fresh in the second and
        # the fourth noise chunk, send those chunks down the step by step
        # path; the first and third are certified.
        n, d, seed = 600, 2, 41
        features, labels = stacked_datasets(
            PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0], noise_rate=0.1),
            n, 1, first_seed=92)
        steps = optimizer_mod.draw_fresh_steps(n, [seed])
        chunk = np.flatnonzero(steps.fresh[:, 0]) // NOISE_CHUNK_STEPS
        assert chunk.max() >= 3
        for c in (1, 3):
            row = features[0, steps.fresh_indices[0, np.argmax(chunk == c)]]
            row *= 3.0 / np.linalg.norm(row)
        config = RunConfig(n=n, eta=0.1, sigma=0.7,
                           feasible_set=FeasibleSet.l2_ball(0.5, dimension=d),
                           oracle=LossOracle.hinge(3.0), w1=np.zeros(d))
        fixed = record_fixed_slopes(monkeypatch)
        self.check(config, [seed], features, labels)
        assert fixed == [True, False, True, False] + [True] * (len(fixed) - 4)

    @pytest.mark.parametrize("workload", ["grid", "grid-box"])
    def test_grid_cell_calls_subgradient_only_off_the_certificate(self, workload,
                                                                  monkeypatch):
        # A grid-shaped cell (hinge, features of norm at most 1, the ball of
        # radius 0.5) runs without LossOracle.subgradient; a grid-box-shaped
        # cell (squared loss on the box) still calls it at every step.
        keys = {"dimension": "10", "n_values": "100", "epsilon_values": "max",
                "repeats": "4", "seed": "5", "baseline_steps": "10000"}
        if workload == "grid-box":
            keys.update(loss="squared", generator="uniform_ball", set="box",
                        lower=",".join(["-0.5"] * 10), upper=",".join(["0.5"] * 10))
        calls, subgradient = [], LossOracle.subgradient

        def counted(self, w, features, labels):
            assert workload == "grid-box", "the certified grid cell called subgradient"
            calls.append(len(w))
            return subgradient(self, w, features, labels)

        monkeypatch.setattr(LossOracle, "subgradient", counted)
        (cell,) = harness_mod.run_experiment(harness_mod.build_spec(keys)).cells
        assert math.isfinite(cell.mean_excess_risk)
        if workload == "grid":
            assert not calls
        else:   # one call per lockstep step of the 4 rows
            assert len(calls) >= cell.mean_tau and set(calls) == {4}


class TestSingleUse:
    """Runs on S and on S', which flips the label of record j, with the same
    seed: the index stream, so tau and the fresh steps, does not depend on
    the data, and the run reads j only at a fresh step that draws it. If
    none does, the two runs are byte-identical; if fresh step k does, so are
    tau, the fresh indices and the margins of fresh steps 0 to k: the
    iterates held there against features the flip leaves alone. A
    flip read at the last fresh step never moves the output, since no fresh
    step holds that step's update; one read earlier mostly does. Every
    record j of each case is flipped in turn. Where the output is affine in
    the steps, a flip moves it by its one step's share, up to rounding; each
    record is fresh in a run with probability (n//2 + 1)/n."""

    @pytest.mark.parametrize("case", ["hinge-ball-0.5", "hinge-ball-2", "squared-box"])
    def test_record_read_at_one_fresh_step(self, case, monkeypatch):
        # Iterates reach the boundary of each set. On the 0.5-ball no margin
        # reaches the hinge's kink, and every chunk is certified
        # (fixed_slopes); on the 2-ball margins cross it.
        n, d, sigma, eta, seed = 64, 2, 0.5, 0.5, 9
        if case == "squared-box":
            fs = FeasibleSet.box([-0.5] * d, [0.5] * d)
            features, labels = draw_dataset(PopulationSpec("uniform_ball", d, 1.0), n,
                                            np.random.default_rng(seed))
            config = RunConfig(n=n, eta=eta, sigma=sigma, feasible_set=fs,
                               oracle=LossOracle.squared(1.0, fs), w1=np.zeros(d))
        else:
            radius = float(case.split("-")[-1])
            _, (features, labels), config = hinge_setup(n, d, sigma, eta, seed, radius=radius)
        fixed = record_fixed_slopes(monkeypatch)
        run, (iterates,) = engine_matches_stepwise(config, [seed], features[None],
                                                   labels[None])
        assert fixed == [case == "hinge-ball-0.5"]
        fresh, unchanged = run.fresh_indices[0].tolist(), []
        if case == "squared-box":
            assert (np.abs(iterates) == 0.5).any()
        else:
            assert (np.abs(np.linalg.norm(iterates, axis=1) - radius) < 1e-12).any()
            margins = run.fresh_margins[0] * labels[fresh]
            assert (margins.max() > 1) == (radius == 2)
        for j in range(n):
            flipped = labels.copy()
            flipped[j] = -flipped[j]
            other = private_sgd(config, seed, (features, flipped))
            assert other.tau.tobytes() == run.tau.tobytes()
            assert other.fresh_indices.tobytes() == run.fresh_indices.tobytes()
            if j in fresh:
                held = fresh.index(j) + 1
                assert (other.fresh_margins[:, :held].tobytes()
                        == run.fresh_margins[:, :held].tobytes()), j
                if other.output.tobytes() == run.output.tobytes():
                    unchanged.append(held - 1)
            else:
                assert other.output.tobytes() == run.output.tobytes(), j
                assert other.fresh_margins.tobytes() == run.fresh_margins.tobytes(), j
        # An earlier flip leaves no trace only where projections erase the
        # difference it made before the next fresh step (on the box, a clip
        # of each coordinate it moved).
        assert len(fresh) - 1 in unchanged and len(unchanged) <= len(fresh) // 8

    def test_flip_moves_the_output_by_its_one_step(self, monkeypatch):
        # Features of norm 0.01 on the unit ball keep every margin far below
        # the hinge's kink, so each chunk is certified and the slope is -1
        # throughout, and no iterate leaves the ball, so no step projects.
        # The output is then affine in the steps: a flip of y_j read at
        # fresh step k changes that one step by 2 * eta * y_j * x_j, which
        # the m - 1 - k fresh iterates after it hold, so
        #     output(S) - output(S') = 2 * eta * y_j * x_j * (m - 1 - k) / m.
        n, d, sigma, eta, seed = 64, 2, 0.01, 0.01, 9
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, d))
        features *= 0.01 / np.linalg.norm(features, axis=1, keepdims=True)
        labels = rng.choice([-1.0, 1.0], n)
        fs = FeasibleSet.l2_ball(1.0, dimension=d)
        config = RunConfig(n=n, eta=eta, sigma=sigma, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(d))
        fixed, norms, project = record_fixed_slopes(monkeypatch), [], FeasibleSet.project_rows

        def recorded(self, points):
            norms.append(np.linalg.norm(points, axis=-1).max())
            return project(self, points)

        monkeypatch.setattr(FeasibleSet, "project_rows", recorded)
        run = private_sgd(config, seed, (features, labels))
        tau, (fresh,) = int(run.tau[0]), run.fresh_indices.tolist()
        m = len(fresh)
        for j in range(n):
            flipped = labels.copy()
            flipped[j] = -flipped[j]
            other = private_sgd(config, seed, (features, flipped))
            if j not in fresh:
                assert other.output.tobytes() == run.output.tobytes(), j
                continue
            # W bounds the norm of every iterate of both runs, so 2W that of
            # every step. In each run, each of the tau steps and the m terms
            # of the output's running sum rounds once, by at most 2**-53 of a
            # value of norm at most 2W (a partial sum, at most m * 2W, shares
            # its rounding among the m terms the output divides it by); the
            # flipped step and want round twice more.
            w_bound = max(norms)
            assert w_bound < 0.01
            k = fresh.index(j)
            want = 2 * eta * labels[j] * features[j] * (m - 1 - k) / m
            error = np.abs(run.output[0] - other.output[0] - want).max()
            assert error <= (tau + m + 2) * 2.0 ** -51 * w_bound, j
        assert all(fixed) and max(norms) < 0.01

    @pytest.mark.parametrize("n", [16, 64, 257])
    def test_each_record_is_fresh_with_probability_q(self, n):
        # Each run's fresh set is a uniform m-subset of the n records, m =
        # n//2 + 1, so record i is fresh with probability q = m/n. Over R
        # runs, i's count c_i has variance R q (1 - q), and the counts sum to
        # R m, which takes one degree of freedom: X below is chi-square with
        # n - 1 degrees of freedom. The seeds are 0..R-1.
        scipy_stats = pytest.importorskip("scipy.stats")
        runs, m = 20_000, n // 2 + 1
        q = m / n
        steps = optimizer_mod.draw_fresh_steps(n, list(range(runs)))
        counts = np.bincount(steps.fresh_indices.ravel(), minlength=n)
        assert counts.sum() == runs * m
        x = ((counts - runs * q) ** 2).sum() / (runs * q * (1 - q)) * (n - 1) / n
        assert scipy_stats.chi2.sf(x, n - 1) > 1e-6, x


class TestBatchMemory:
    @staticmethod
    def traced_peak(d):
        """tracemalloc's peak, per R*n, of private_sgd_batch on R = 4 hinge
        datasets of n = 20 000 records drawn beforehand."""
        n, rows = 20_000, 4
        population = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                    noise_rate=0.1)
        features, labels = stacked_datasets(population, n, rows, first_seed=80)
        config = RunConfig(n=n, eta=0.01, sigma=1.0,
                           feasible_set=FeasibleSet.l2_ball(0.5, dimension=d),
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(d))
        tracemalloc.start()
        try:
            private_sgd_batch(config, [81, 82, 83, 84], features, labels)
            return tracemalloc.get_traced_memory()[1] / (rows * n)
        finally:
            tracemalloc.stop()

    def test_peak_stays_linear_in_what_tau_reaches(self):
        # Per R*n, the run's own arrays peak at about 16.8 bytes, in
        # draw_fresh_steps' read of the stopping times in row chunks; with
        # the data gathered per noise chunk, run_steps and its (R, m) row
        # map, margins and fresh indices stay below that, at about 12.7.
        # Holding the (R, m, d) fresh iterates took it to 17.6, a flat
        # per-row data index to 18.5, reading all first blocks at once to
        # 28, drawing a 4n block per row to 112.
        assert self.traced_peak(2) < 22

    def test_peak_does_not_grow_with_dimension(self):
        # run_steps holds one margin per fresh step, not the iterate: at
        # d = 10 the peak is draw_fresh_steps' 16.8 bytes per R*n, as at
        # d = 2. The (R, m, d) fresh iterates, 4d bytes per R*n, took it to
        # 50.8.
        assert self.traced_peak(10) < 22

    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_regret_holds_two_score_arrays(self, kind):
        # estimate_regret checks and scores a block of REGRET_BLOCK // m rows
        # at a time: its peak is two (block, m) float64 arrays, the run's
        # losses at its margins and u's losses, 16 bytes a value. Checking
        # and scoring all R rows at once held two (R, m) arrays and an
        # (R, m, d) check, here 4.7 times the bound; one array per ufunc held
        # four.
        rows, target, d = 32, 10_001, 2
        block = REGRET_BLOCK // target
        assert 1 < block < rows
        rng = np.random.default_rng(85)
        fs = FeasibleSet.l2_ball(0.5, dimension=d)
        oracle = (LossOracle.squared(1.0, fs) if kind == "squared"
                  else getattr(LossOracle, kind)(1.0))
        config = RunConfig(n=2 * (target - 1), eta=0.01, sigma=1.0, feasible_set=fs,
                           oracle=oracle, w1=np.zeros(d))
        batch = RunBatch(tau=np.full(rows, 2 * target), output=np.zeros((rows, d)),
                         fresh_indices=np.zeros((rows, target), dtype=np.int64),
                         fresh_margins=rng.uniform(-0.3, 0.3, (rows, target)))
        read = (rng.uniform(-0.7, 0.7, (rows, target, d)),
                rng.choice([-1.0, 1.0], size=(rows, target)))
        tracemalloc.start()
        try:
            estimate_regret(batch, read, np.array([0.3, 0.1]), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * block * target


class TestGatheredRows:
    """run_steps with no row map reads slot r*m + j of the flat rows, and
    estimate_regret scores its rows a block at a time: both byte for byte
    as with the identity row map and with one block."""

    @staticmethod
    def case(kind):
        """(config, seeds, features, labels): hinge rows on the 0.5-ball,
        whose slopes fixed_slopes certifies, or squared rows on a box,
        stepped one by one; at n = 300 every run passes NOISE_CHUNK_STEPS."""
        n, seeds = 300, [91, 92, 93]
        if kind == "hinge":
            d = 2
            population = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                        noise_rate=0.1)
            fs = FeasibleSet.l2_ball(0.5, dimension=d)
            oracle = LossOracle.hinge(1.0)
        else:
            d = 4
            population = PopulationSpec("uniform_ball", d, 1.0)
            fs = FeasibleSet.box([-0.5] * d, [0.5] * d)
            oracle = LossOracle.squared(1.0, fs)
        features, labels = stacked_datasets(population, n, len(seeds), first_seed=90)
        config = RunConfig(n=n, eta=0.05, sigma=0.7, feasible_set=fs, oracle=oracle,
                           w1=np.zeros(d))
        return config, seeds, features, labels

    @pytest.mark.parametrize("kind", ["hinge", "squared"])
    def test_no_row_map_equals_identity_map(self, kind, monkeypatch):
        config, seeds, features, labels = self.case(kind)
        steps = optimizer_mod.draw_fresh_steps(config.n, seeds)
        x, y = fresh_rows(steps, features, labels)
        flat = (x.reshape(-1, x.shape[-1]), y.reshape(-1))
        fixed = record_fixed_slopes(monkeypatch)
        mapped = optimizer_mod.run_steps(config, steps, *flat,
                                         np.arange(y.size).reshape(y.shape))
        direct = optimizer_mod.run_steps(config, steps, *flat)
        assert steps.tau.min() > NOISE_CHUNK_STEPS
        assert len(fixed) >= 4 and set(fixed) == {kind == "hinge"}
        for field in ("tau", "output", "fresh_indices", "fresh_margins"):
            assert getattr(direct, field).tobytes() == getattr(mapped, field).tobytes(), field

    @pytest.mark.parametrize("kind", ["hinge", "squared"])
    def test_regret_blocks_equal_one_block(self, kind, monkeypatch):
        # Blocks of one row, of two rows with a one-row remainder, and m
        # past the block size (one row each), against one block of all rows.
        config, seeds, features, labels = self.case(kind)
        batch = private_sgd_batch(config, seeds, features, labels)
        read = fresh_rows(batch, features, labels)
        comparator = np.full(config.feasible_set.dimension, 0.1)
        target = batch.fresh_indices.shape[1]
        regrets = []
        for block_size in (len(seeds) * target, target, 2 * target + 1, target // 3):
            monkeypatch.setattr(optimizer_mod, "REGRET_BLOCK", block_size)
            regrets.append(estimate_regret(batch, read, comparator, config).tobytes())
        assert regrets[1:] == regrets[:1] * 3


def read_rows(run, dataset):
    """The rows an R = 1 run's fresh steps read from its (features, labels)
    dataset, as the (1, m, d), (1, m) stack estimate_regret takes."""
    features, labels = dataset
    return fresh_rows(run, features[None], labels[None])


class TestRegret:
    def test_finite_for_own_output(self):
        _, data, config = hinge_setup(24, 2, sigma=0.4, eta=0.1, seed=23)
        run = private_sgd(config, 23, data)
        value = estimate_regret(run, read_rows(run, data), run.output[0], config)
        assert value.shape == (1,) and math.isfinite(value[0])

    def test_constant_loss_gives_zero(self):
        # zero features make the hinge identically one
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        data = constant_dataset(16, 2)
        config = RunConfig(n=16, eta=0.1, sigma=0.0, feasible_set=fs,
                           oracle=LossOracle.hinge(1.0), w1=np.zeros(2))
        run = private_sgd(config, 4, data)
        assert estimate_regret(run, read_rows(run, data), np.array([0.3, 0.0]),
                               config).tolist() == [0.0]

    def test_comparator_must_be_feasible(self):
        _, data, config = hinge_setup(16, 2, sigma=0.0, eta=0.1, seed=5)
        run = private_sgd(config, 5, data)
        with pytest.raises(ConfigurationError):
            estimate_regret(run, read_rows(run, data), np.array([5.0, 0.0]), config)

    @pytest.mark.parametrize("part, value, message", [
        ("labels", math.inf, "finite"), ("features", math.nan, "finite"),
        ("features", "x", "real numbers"), ("comparator", ["", 0.0], "comparator"),
        ("labels", 1e300, "overflows"),
    ], ids=["inf-label", "nan-feature", "text-feature", "text-comparator",
            "overflowing-loss"])
    def test_bad_rows_or_comparator_refused(self, part, value, message):
        # An infinite label or a NaN feature once gave a RuntimeWarning or a
        # NaN regret, text a ValueError, and a label of 1e300 an overflowing
        # squared loss. Found by tests/test_fuzz.py.
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        config = RunConfig(n=16, eta=0.1, sigma=0.4, feasible_set=fs,
                           oracle=LossOracle.squared(1.0, fs), w1=np.zeros(2))
        features, labels = constant_dataset(16, 2, value=0.1, label=0.5)
        run = private_sgd(config, 3, (features, labels))
        x, y = (a.tolist() for a in read_rows(run, (features, labels)))
        comparator = [0.0, 0.0]
        if part == "labels":
            y[0][2] = value
        elif part == "features":
            x[0][2][0] = value
        else:
            comparator = value
        with pytest.raises(ConfigurationError, match=message):
            estimate_regret(run, (x, y), comparator, config)

    def test_unstacked_dataset_rejected(self):
        # The (n, d), (n,) dataset of private_sgd, passed instead of the
        # (1, m, d), (1, m) rows its fresh steps read.
        _, data, config = hinge_setup(16, 2, sigma=0.3, eta=0.1, seed=5)
        run = private_sgd(config, 5, data)
        with pytest.raises(ConfigurationError, match=r"\(R, m, d\) = \(1, 9, 2\)"):
            estimate_regret(run, data, np.zeros(2), config)

    def test_matches_direct_sum(self):
        _, (features, labels), config = hinge_setup(30, 2, sigma=0.6, eta=0.05, seed=29)
        run = private_sgd(config, 29, (features, labels))
        _, _, iterates, _, _ = stepwise_run(
            30, 0.05, 0.6, np.zeros(2), 29, features, labels, lambda x: project_ball(0.5, x),
            lambda w, x, y: plain_subgradient("hinge", w, x, y))
        u = np.array([0.2, -0.1])
        total = 0.0
        for i, wt in zip(run.fresh_indices[0], iterates):
            x, y = features[i], labels[i]
            total += max(0.0, 1.0 - y * float(wt @ x))
            total -= max(0.0, 1.0 - y * float(u @ x))
        value = estimate_regret(run, read_rows(run, (features, labels)), u, config)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(total, abs=1e-12)


def uniform_interval_density(ts, d, radius):
    # marginal density of <u, X> for X uniform in the d-ball of the given radius
    dens = np.clip(1.0 - (ts / radius) ** 2, 0.0, None) ** ((d - 1) / 2)
    return dens / np.trapezoid(dens, ts)


class TestRisk:
    def test_constant_loss(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0)
        oracle = LossOracle.hinge(1.0)
        est = estimate_risk(np.zeros(2), spec, oracle, 500, np.random.default_rng(31))
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_quadrature_oracle(self):
        # E[hinge(w, X)] for w aligned with w_true under noiseless labels is
        # a one-dimensional integral against the marginal of <w_true, X>.
        d, c = 3, 0.7
        spec = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                              noise_rate=0.0)
        oracle = LossOracle.hinge(1.0)
        w = c * np.eye(d)[0]
        ts = np.linspace(-1.0, 1.0, 400_001)
        dens = uniform_interval_density(ts, d, 1.0)
        expected = np.trapezoid(np.maximum(0.0, 1.0 - c * np.abs(ts)) * dens, ts)
        est = estimate_risk(w, spec, oracle, 1_000_000,
                            rng=np.random.default_rng(38))
        assert abs(est.mean - expected) <= 3.0 * est.stderr

    def test_eval_samples_validated(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0)
        with pytest.raises(ConfigurationError):
            estimate_risk(np.zeros(2), spec, LossOracle.hinge(1.0), 0,
                          np.random.default_rng(1))


class TestBaseline:
    def test_recovers_interior_quadratic_minimizer(self):
        # Squared loss with independent uniform labels has population risk
        # 0.5*w'Sw + 1/6 with S = (R^2/(d+2)) I, so the minimizer is 0 and
        # the excess at w is |w|^2/(2(d+2)).
        d = 2
        spec = PopulationSpec("uniform_ball", d, 1.0)
        fs = FeasibleSet.l2_ball(0.5, dimension=d)
        oracle = LossOracle.squared(1.0, fs)
        result = baseline_minimizer(spec, oracle, fs, 150_000)
        assert float(result.w @ result.w) / (2.0 * (d + 2)) <= result.error_bound
        assert np.linalg.norm(result.w) <= 1e-6

    def test_boundary_when_minimizer_outside(self):
        # With sign labels the unconstrained quadratic minimizer is
        # (E|T| / E[T^2]) * w_true, far outside a radius-0.25 ball; the
        # constrained optimum is its radial projection 0.25*w_true.
        d = 2
        spec = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                              noise_rate=0.0)
        fs = FeasibleSet.l2_ball(0.25, dimension=d)
        oracle = LossOracle.squared(1.0, fs)
        unconstrained = (4.0 / (3.0 * math.pi)) / (1.0 / (d + 2.0))
        assert unconstrained > 1.5   # comfortably outside
        result = baseline_minimizer(spec, oracle, fs, 60_000)
        np.testing.assert_allclose(result.w, [0.25, 0.0], atol=1e-6)

    def test_error_bound_and_decay(self):
        # Boundary-constrained quadratic with exact coefficients: for X
        # uniform on the unit disk and sign labels, F(w) = w'w/8 - b w_1 with
        # b = 4/(3pi), minimized on the 0.25-ball at the boundary. Excess
        # risk must sit under the reported error bound, and the bound minus
        # its quadrature term D*sqrt(d)*RISK_QUADRATURE_BOUND*B*(1 + B|w|)
        # under its target BASELINE_TOLERANCE*D*L, for every step cap;
        # noise_rate 0.2 scales b by 1 - 2*0.2.
        d = 2
        fs = FeasibleSet.l2_ball(0.25, dimension=d)
        for noise_rate in (0.0, 0.2):
            spec = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                  noise_rate=noise_rate)
            oracle = LossOracle.squared(1.0, fs)
            b = (1.0 - 2.0 * noise_rate) * 4.0 / (3.0 * math.pi)

            def excess(w):
                risk = 0.125 * float(w @ w) - b * w[0]
                best = 0.125 * 0.25 ** 2 - b * 0.25
                return risk - best

            target = optimizer_mod.BASELINE_TOLERANCE * fs.diameter() * oracle.lipschitz_L
            for budget in (10_000, 30_000, 90_000):
                result = baseline_minimizer(spec, oracle, fs, budget)
                assert excess(result.w) <= result.error_bound
                quadrature = (fs.diameter() * math.sqrt(d) * RISK_QUADRATURE_BOUND
                              * (1.0 + np.linalg.norm(result.w)))
                assert result.error_bound - quadrature <= target

    def test_budget_floor(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0)
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        with pytest.raises(ConfigurationError):
            baseline_minimizer(spec, LossOracle.squared(1.0, fs), fs, 999)

    def test_draws_nothing(self, monkeypatch):
        # The reference minimizer works on the exact risk: no holdout.
        def no_draw(*args):
            raise AssertionError("baseline_minimizer drew data")
        monkeypatch.setattr(optimizer_mod, "draw_arrays", no_draw)
        spec = PopulationSpec("linear_margin", 3, 1.0, w_true=np.eye(3)[0])
        fs = FeasibleSet.l2_ball(0.5, dimension=3)
        result = baseline_minimizer(spec, LossOracle.hinge(1.0), fs, 10_000)
        assert result.budget_steps == 10_000
        assert not hasattr(result, "holdout_size")

    def test_numpy_budget_held_as_int(self):
        # A numpy count was once held as given (found by test_fuzz.py's
        # baseline_minimizer cases); every other entry point holds an int.
        spec = PopulationSpec("uniform_ball", 2, 1.0)
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        result = baseline_minimizer(spec, LossOracle.hinge(1.0), fs, np.int64(10_000))
        assert type(result.budget_steps) is int and result.budget_steps == 10_000


class TestBaselineOracles:
    """The reference minimizer against optima found without library code."""

    # uniform_ball labels are uniform on [-1, 1] and independent of x, and
    # E[xx'] = X^2/(d+2) I for x uniform in the ball of radius X. With
    # t = <w, x>: squared loss E(t - y)^2/2 = t^2/2 + 1/6, and absolute loss
    # E|t - y| = (1 + t^2)/2 for |t| <= 1 and |t| <= (1 + t^2)/2 beyond.
    # Both risks are therefore minimized at w* = 0 whenever 0 lies in K
    # (squared risk 1/6, absolute risk 1/2), and the excess at w is at most
    # |w|^2 X^2 / (2(d+2)); for squared loss, and for absolute loss while
    # |w| X <= 1, it is exactly that.
    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("kind", ["squared", "absolute"])
    @pytest.mark.parametrize("set_kind", ["ball", "box"])
    def test_symmetric_labels_minimized_at_zero(self, d, kind, set_kind):
        X = 1.0
        spec = PopulationSpec("uniform_ball", d, X)
        if set_kind == "ball":
            fs = FeasibleSet.l2_ball(0.5, dimension=d)
        else:
            fs = FeasibleSet.box(np.full(d, -0.3), np.full(d, 0.5))
        oracle = (LossOracle.squared(X, fs) if kind == "squared"
                  else LossOracle.absolute(X))
        result = baseline_minimizer(spec, oracle, fs, 10_000)
        excess = float(result.w @ result.w) * X * X / (2.0 * (d + 2))
        assert excess <= result.error_bound

    SETS = {
        "centred-ball": lambda d: FeasibleSet.l2_ball(0.5, dimension=d),
        "offcentre-box": lambda d: FeasibleSet.box([-0.5, -2.0][:d], [2.5, 1.0][:d]),
        "box": lambda d: FeasibleSet.box([-0.3, -0.6][:d], [0.8, 0.2][:d]),
    }
    POPULATIONS = {"hinge": "linear_margin", "absolute": "uniform_ball",
                   "squared": "linear_margin"}

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    @pytest.mark.parametrize("set_name", list(SETS))
    def test_certificate_covers_grid_gap(self, d, kind, set_name):
        # F(w_hat) - min_grid F <= F(w_hat) - min_K F <= error_bound, since
        # every grid point lies in K: a sound falsification check.
        fs = self.SETS[set_name](d)
        if self.POPULATIONS[kind] == "linear_margin":
            spec = PopulationSpec("linear_margin", d, 1.0, w_true=np.eye(d)[0],
                                  noise_rate=0.1)
        else:
            spec = PopulationSpec("uniform_ball", d, 1.0)
        oracle = (LossOracle.squared(1.0, fs) if kind == "squared"
                  else getattr(LossOracle, kind)(1.0))
        result = baseline_minimizer(spec, oracle, fs, 10_000)

        if fs.kind == "box":
            lower, upper = fs.lower, fs.upper

            def inside(points):
                return np.all((points >= lower) & (points <= upper), axis=1)
        else:
            lower, upper = np.full(d, -fs.radius), np.full(d, fs.radius)

            def inside(points):
                return np.sum(points * points, axis=1) <= fs.radius ** 2

        def risks(points):
            return [population_risk(spec, oracle, p)[0] for p in points]
        assert fs.contains(result.w)   # the projection may round one ulp out
        best = grid_minimum(risks, inside, lower, upper, points=41 if d == 1 else 13)
        assert risks(result.w[None])[0] - best <= result.error_bound

    @pytest.mark.parametrize("d", [2, 3, 10])
    @pytest.mark.parametrize("kind", ["hinge", "absolute", "squared"])
    def test_linear_margin_optimum_on_span_of_w_true(self, d, kind):
        # On a centred ball, reflecting x across span(w_true) keeps the
        # population and every label, so F is symmetric about that line
        # and convex: its minimizer over the ball lies on it. Radius 3
        # leaves the hinge and absolute optima inside the ball. The line
        # search is scipy's bounded Brent method on F(a * w_true/|w_true|),
        # an optimizer that shares nothing with FISTA.
        optimize = pytest.importorskip("scipy.optimize")
        w_true = np.arange(1.0, d + 1.0)
        spec = PopulationSpec("linear_margin", d, 1.0, w_true=w_true, noise_rate=0.1)
        fs = FeasibleSet.l2_ball(3.0, dimension=d)
        oracle = (LossOracle.squared(1.0, fs) if kind == "squared"
                  else getattr(LossOracle, kind)(1.0))
        result = baseline_minimizer(spec, oracle, fs, 10_000)
        axis = w_true / np.linalg.norm(w_true)
        along = float(result.w @ axis)
        assert np.linalg.norm(result.w - along * axis) <= 1e-3
        line = optimize.minimize_scalar(
            lambda a: population_risk(spec, oracle, a * axis)[0], bounds=(-3.0, 3.0),
            method="bounded", options={"xatol": 1e-10})
        value = population_risk(spec, oracle, result.w)[0]
        assert value - line.fun <= result.error_bound   # Brent's point lies in K
