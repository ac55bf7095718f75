import os

import numpy as np
import pytest

from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import (DataPoint, LossOracle, PopulationSpec,
                             draw_arrays, draw_dataset, lipschitz_certificate,
                             load_dataset, save_dataset)
from oracles import population_point


def point(features, label):
    return DataPoint(np.asarray(features, dtype=float), float(label))


class TestLossValues:
    def test_hinge_zero_beyond_margin(self):
        oracle = LossOracle.hinge(2.0)
        # <w, x> * label = 2
        assert oracle.value(np.array([2.0]), point([1.0], 1.0)) == 0.0

    def test_hinge_at_origin(self):
        oracle = LossOracle.hinge(1.0)
        assert oracle.value(np.zeros(3), point([0.3, 0.1, -0.2], -1.0)) == 1.0

    def test_absolute_exact_fit(self):
        oracle = LossOracle.absolute(1.0)
        assert oracle.value(np.array([0.5, 0.5]), point([1.0, 0.0], 0.5)) == 0.0

    def test_squared_value(self):
        fs = FeasibleSet.l2_ball(1.0, dimension=1)
        oracle = LossOracle.squared(1.0, fs)
        assert oracle.value(np.array([1.0]), point([1.0], 0.0)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        oracle = LossOracle.hinge(1.0)
        with pytest.raises(ConfigurationError):
            oracle.value(np.zeros(2), point([1.0], 1.0))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(41)
        fs = FeasibleSet.l2_ball(1.0, dimension=3)
        oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
                   LossOracle.squared(1.0, fs)]
        w = rng.normal(size=3)
        feats = rng.normal(size=(64, 3))
        labels = rng.choice([-1.0, 1.0], size=64)
        for oracle in oracles:
            batch = oracle.batch_values(w, feats, labels)
            for i in range(64):
                assert batch[i] == pytest.approx(
                    oracle.value(w, point(feats[i], labels[i])), abs=1e-12)


class TestRowwise:
    """The optimizer's stacked per-step subgradient agrees with subgradient()."""

    def test_subgradient_rows_match_pointwise(self):
        rng = np.random.default_rng(44)
        fs = FeasibleSet.l2_ball(1.0, dimension=3)
        oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
                   LossOracle.squared(1.0, fs)]
        w = rng.uniform(-2.0, 2.0, size=(64, 3))
        feats = rng.normal(size=(64, 3))
        labels = rng.choice([-1.0, 1.0], size=64)
        # put a few rows exactly on the hinge kink and the absolute-loss kink
        w[0], feats[0], labels[0] = [0.8, -0.6, 0.0], [0.8, -0.6, 0.0], 1.0
        w[1], feats[1], labels[1] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], -1.0
        for oracle in oracles:
            rows = oracle.subgradient_rows(w, feats, labels)
            assert rows.shape == (64, 3)
            for i in range(64):
                np.testing.assert_allclose(
                    rows[i], oracle.subgradient(w[i], point(feats[i], labels[i])),
                    rtol=0.0, atol=1e-12)


class TestSubgradients:
    def test_hinge_flat_region(self):
        oracle = LossOracle.hinge(1.0)
        g = oracle.subgradient(np.array([2.0]), point([1.0], 1.0))
        np.testing.assert_array_equal(g, [0.0])

    def test_hinge_active_region(self):
        oracle = LossOracle.hinge(1.0)
        g = oracle.subgradient(np.array([0.1]), point([0.5], -1.0))
        np.testing.assert_allclose(g, [0.5])

    def test_hinge_at_kink(self):
        # Margin exactly 1: the returned extreme subgradient must satisfy
        # the subgradient inequality on a grid of nearby points.
        oracle = LossOracle.hinge(1.0)
        x = point([0.8, -0.6], 1.0)
        w = np.array([0.8, -0.6]) / 1.0   # <w, x> = 1 exactly
        assert x.label * float(w @ x.features) == pytest.approx(1.0)
        g = oracle.subgradient(w, x)
        np.testing.assert_allclose(g, [-0.8, 0.6])
        fw = oracle.value(w, x)
        for du in np.linspace(-0.5, 0.5, 21):
            for dv in np.linspace(-0.5, 0.5, 21):
                v = w + np.array([du, dv])
                assert oracle.value(v, x) >= fw + g @ (v - w) - 1e-9

    def test_subgradient_inequality_random_triples(self):
        # 10^5 (w, v, x) triples per loss family, slack 1e-9.
        rng = np.random.default_rng(43)
        fs = FeasibleSet.l2_ball(2.0, dimension=3)
        oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
                   LossOracle.squared(1.0, fs)]
        for oracle in oracles:
            for _ in range(100_000):
                w = rng.uniform(-2.0, 2.0, size=3)
                v = rng.uniform(-2.0, 2.0, size=3)
                feats = rng.normal(size=3)
                feats /= max(1.0, np.linalg.norm(feats))
                x = point(feats, rng.choice([-1.0, 1.0]))
                g = oracle.subgradient(w, x)
                lhs = oracle.value(v, x)
                rhs = oracle.value(w, x) + g @ (v - w)
                assert lhs >= rhs - 1e-9

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(47)
        fs = FeasibleSet.l2_ball(2.0, dimension=3)
        oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
                   LossOracle.squared(1.0, fs)]
        h = 1e-6
        checked = 0
        while checked < 3000:
            w = rng.uniform(-2.0, 2.0, size=3)
            feats = rng.normal(size=3)
            feats /= np.linalg.norm(feats)
            x = point(feats, rng.choice([-1.0, 1.0]))
            z = float(w @ feats)
            # keep the evaluation point clear of both kink loci
            if abs(x.label * z - 1.0) < 1e-3 or abs(z - x.label) < 1e-3:
                continue
            checked += 1
            for oracle in oracles:
                g = oracle.subgradient(w, x)
                fd = np.zeros(3)
                for i in range(3):
                    e = np.zeros(3)
                    e[i] = h
                    fd[i] = (oracle.value(w + e, x) - oracle.value(w - e, x)) / (2 * h)
                assert np.linalg.norm(fd - g) <= 1e-4 * (1.0 + np.linalg.norm(g))

    def test_norm_never_exceeds_certificate(self):
        rng = np.random.default_rng(53)
        fs = FeasibleSet.l2_ball(1.0, dimension=4)
        oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
                   LossOracle.squared(1.0, fs)]
        for _ in range(2000):
            w_dir = rng.normal(size=4)
            w = w_dir / np.linalg.norm(w_dir) * rng.uniform(0.0, 1.0)  # inside fs
            feats = rng.normal(size=4)
            feats /= max(1.0, np.linalg.norm(feats))
            x = point(feats, rng.uniform(-1.0, 1.0))
            for oracle in oracles:
                g = oracle.subgradient(w, x)
                assert np.linalg.norm(g) <= oracle.lipschitz_L + 1e-9


class TestLipschitzCertificates:
    def test_hinge(self):
        assert lipschitz_certificate("hinge", 1.0) == 1.0

    def test_absolute(self):
        assert lipschitz_certificate("absolute", 5.0) == 5.0

    def test_squared_brute_force(self):
        # Maximize ||(<w,x> - y) x|| by brute force over the unit ball,
        # unit feature bound, labels in [-1, 1]; the certificate is the
        # analytic envelope of that search.
        fs = FeasibleSet.l2_ball(1.0, dimension=2)
        cert = lipschitz_certificate("squared", 1.0, fs)
        assert cert == pytest.approx(2.0)
        rng = np.random.default_rng(59)
        worst = 0.0
        for _ in range(20_000):
            w = rng.normal(size=2)
            w = w / np.linalg.norm(w) * rng.uniform(0.0, 1.0)
            x = rng.normal(size=2)
            x = x / np.linalg.norm(x) * rng.uniform(0.0, 1.0)
            y = rng.uniform(-1.0, 1.0)
            worst = max(worst, float(np.linalg.norm((w @ x - y) * x)))
        assert worst <= cert + 1e-9
        assert worst > 1.8      # the bound is near-tight

    def test_squared_needs_a_set(self):
        with pytest.raises(ConfigurationError):
            lipschitz_certificate("squared", 1.0)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(61)
        fs = FeasibleSet.l2_ball(2.0, dimension=3)
        oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
                   LossOracle.squared(1.0, fs)]
        for oracle in oracles:
            for _ in range(5000):
                w1 = rng.uniform(-2.0, 2.0, size=3)
                w2 = rng.uniform(-2.0, 2.0, size=3)
                lam = rng.random()
                x = point(rng.normal(size=3) / 2.0, rng.choice([-1.0, 1.0]))
                mix = oracle.value(lam * w1 + (1 - lam) * w2, x)
                assert mix <= (lam * oracle.value(w1, x)
                               + (1 - lam) * oracle.value(w2, x) + 1e-9)


class TestPopulations:
    def spec(self, noise=0.0, seed=6):
        return PopulationSpec("linear_margin", 2, 1.0, seed=seed,
                              w_true=np.array([1.0, 0.0]), noise_rate=noise)

    def test_noiseless_labels_agree_with_margin(self):
        spec = self.spec()
        features, labels = draw_dataset(spec, 2000)
        assert features.shape == (2000, 2) and labels.shape == (2000,)
        assert np.all(labels * (features @ spec.w_true) >= 0.0)

    def test_feature_bound_holds(self):
        spec = PopulationSpec("uniform_ball", 3, 0.7, seed=1)
        features, _ = draw_dataset(spec, 2000)
        assert np.all(np.linalg.norm(features, axis=1) <= 0.7 + 1e-12)

    def test_fixed_seed_reproduces(self):
        spec = self.spec(noise=0.3)
        a_features, a_labels = draw_dataset(spec, 100)
        b_features, b_labels = draw_dataset(spec, 100)
        np.testing.assert_array_equal(a_features, b_features)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_flip_rate_half(self):
        spec = self.spec(noise=0.5, seed=8)
        n = 10_000
        features, labels = draw_dataset(spec, n)
        clean = np.where(features @ spec.w_true >= 0.0, 1.0, -1.0)
        flips = int(np.sum(labels != clean))
        assert 0.45 <= flips / n <= 0.55

    def test_uniform_ball_labels(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0, seed=2)
        _, labels = draw_dataset(spec, 1000)
        assert np.all((-1.0 <= labels) & (labels <= 1.0))

    def test_batched_draws_match_scalar_distribution(self):
        # draw_arrays must sample the same population as an independent
        # per-point reference sampler; compare summary statistics.
        spec = PopulationSpec("linear_margin", 3, 1.0, seed=4,
                              w_true=np.eye(3)[0], noise_rate=0.3)
        rng = np.random.default_rng(0)
        scalar = [population_point(spec, rng) for _ in range(30_000)]
        s_feats = np.stack([x for x, _ in scalar])
        s_labels = np.array([y for _, y in scalar])
        b_feats, b_labels = draw_arrays(spec, 30_000, np.random.default_rng(1))
        assert np.all(np.linalg.norm(b_feats, axis=1) <= 1.0 + 1e-12)
        # mean feature norm and flip rate agree within Monte-Carlo noise
        assert abs(np.linalg.norm(s_feats, axis=1).mean()
                   - np.linalg.norm(b_feats, axis=1).mean()) < 0.01
        s_flips = (s_labels != np.where(s_feats @ spec.w_true >= 0, 1.0, -1.0)).mean()
        b_flips = (b_labels != np.where(b_feats @ spec.w_true >= 0, 1.0, -1.0)).mean()
        assert abs(s_flips - b_flips) < 0.02
        assert abs(s_flips - 0.3) < 0.02

    def test_bad_spec(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec("linear_margin", 2, 1.0, seed=0)     # no w_true
        with pytest.raises(ConfigurationError):
            PopulationSpec("uniform_ball", 2, -1.0, seed=0)
        with pytest.raises(ConfigurationError):
            PopulationSpec("mystery", 2, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            draw_dataset(PopulationSpec("uniform_ball", 2, 1.0, seed=0), 0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = PopulationSpec("linear_margin", 3, 1.0, seed=9,
                              w_true=np.array([0.0, 1.0, 0.0]), noise_rate=0.2)
        features, labels = draw_dataset(spec, 50)
        path = os.path.join(tmp_path, "data.csv")
        save_dataset(path, (features, labels), seed=9)
        loaded_features, loaded_labels = load_dataset(path, feature_bound=1.0)
        assert loaded_features.shape == (50, 3)
        np.testing.assert_array_equal(loaded_features, features)
        np.testing.assert_array_equal(loaded_labels, labels)
        with open(path) as fh:
            assert fh.readline().startswith("# dim=3 n=50 seed=9")

    def test_bound_violation_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("# dim=2 n=1 seed=0\n")
            fh.write("5.0,0.0,1.0\n")
        with pytest.raises(ConfigurationError):
            load_dataset(path, feature_bound=1.0)

    def test_missing_header_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "headerless.csv")
        with open(path, "w") as fh:
            fh.write("0.0,0.0,1.0\n")
        with pytest.raises(ConfigurationError):
            load_dataset(path)
