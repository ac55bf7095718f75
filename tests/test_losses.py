import math

import numpy as np
import pytest

from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import (LossOracle, PopulationSpec, draw_arrays,
                             draw_dataset, lipschitz_certificate)
from oracles import (plain_loss, plain_subgradient, points_away_from_kinks,
                     population_point)


def row_losses(oracle, w, features, labels):
    """The oracle's loss for each stacked (w, x, y) row."""
    return oracle.loss_at(np.einsum("...i,...i->...", w, features), labels)


def three_oracles(feasible_set):
    return [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
            LossOracle.squared(1.0, feasible_set)]


class TestLossValues:
    def test_hinge_zero_beyond_margin(self):
        oracle = LossOracle.hinge(2.0)
        # <w, x> * label = 2
        assert oracle.batch_values(np.array([2.0]), [[1.0]], [1.0]).tolist() == [0.0]

    def test_hinge_at_origin(self):
        oracle = LossOracle.hinge(1.0)
        assert oracle.batch_values(np.zeros(3), [[0.3, 0.1, -0.2]], [-1.0]).tolist() == [1.0]

    def test_absolute_exact_fit(self):
        oracle = LossOracle.absolute(1.0)
        assert oracle.batch_values(np.array([0.5, 0.5]), [[1.0, 0.0]], [0.5]).tolist() == [0.0]

    def test_squared_value(self):
        fs = FeasibleSet.l2_ball(1.0, dimension=1)
        oracle = LossOracle.squared(1.0, fs)
        assert oracle.batch_values(np.array([1.0]), [[1.0]], [0.0])[0] == pytest.approx(0.5)

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(41)
        fs = FeasibleSet.l2_ball(1.0, dimension=3)
        w = rng.normal(size=3)
        feats = rng.normal(size=(64, 3))
        labels = rng.choice([-1.0, 1.0], size=64)
        for oracle in three_oracles(fs):
            batch = oracle.batch_values(w, feats, labels)
            stacked = row_losses(oracle, np.tile(w, (64, 1)), feats, labels)
            for i in range(64):
                expected = plain_loss(oracle.kind, w, feats[i], labels[i])
                assert batch[i] == pytest.approx(expected, abs=1e-12)
                assert stacked[i] == pytest.approx(expected, abs=1e-12)


class TestRowwise:
    """subgradient() on stacked rows and on single points agrees with the closed form."""

    def test_stacked_rows_match_pointwise(self):
        rng = np.random.default_rng(44)
        fs = FeasibleSet.l2_ball(1.0, dimension=3)
        w = rng.uniform(-2.0, 2.0, size=(64, 3))
        feats = rng.normal(size=(64, 3))
        labels = rng.choice([-1.0, 1.0], size=64)
        # put a few rows exactly on the hinge kink and the absolute-loss kink
        w[0], feats[0], labels[0] = [0.8, -0.6, 0.0], [0.8, -0.6, 0.0], 1.0
        w[1], feats[1], labels[1] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], -1.0
        for oracle in three_oracles(fs):
            rows = oracle.subgradient(w, feats, labels)
            assert rows.shape == (64, 3)
            # the same rows stacked one level deeper, as (2, 32, 3)
            np.testing.assert_array_equal(
                oracle.subgradient(w.reshape(2, 32, 3), feats.reshape(2, 32, 3),
                                   labels.reshape(2, 32)).reshape(64, 3), rows)
            for i in range(64):
                expected = plain_subgradient(oracle.kind, w[i], feats[i], labels[i])
                np.testing.assert_allclose(rows[i], expected, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(
                    oracle.subgradient(w[i], feats[i], labels[i]), expected,
                    rtol=0.0, atol=1e-12)


class TestSubgradients:
    def test_hinge_flat_region(self):
        oracle = LossOracle.hinge(1.0)
        g = oracle.subgradient(np.array([2.0]), np.array([1.0]), 1.0)
        np.testing.assert_array_equal(g, [0.0])

    def test_hinge_active_region(self):
        oracle = LossOracle.hinge(1.0)
        g = oracle.subgradient(np.array([0.1]), np.array([0.5]), -1.0)
        np.testing.assert_allclose(g, [0.5])

    def test_hinge_at_kink(self):
        # Margin exactly 1: the returned extreme subgradient must satisfy
        # the subgradient inequality on a grid of nearby points.
        oracle = LossOracle.hinge(1.0)
        x, y = np.array([0.8, -0.6]), 1.0
        w = np.array([0.8, -0.6]) / 1.0   # <w, x> = 1 exactly
        assert y * float(w @ x) == pytest.approx(1.0)
        g = oracle.subgradient(w, x, y)
        np.testing.assert_allclose(g, [-0.8, 0.6])
        fw = plain_loss("hinge", w, x, y)
        du, dv = np.meshgrid(np.linspace(-0.5, 0.5, 21), np.linspace(-0.5, 0.5, 21))
        v = w + np.stack([du.ravel(), dv.ravel()], axis=1)
        assert np.all(row_losses(oracle, v, x, y) >= fw + (v - w) @ g - 1e-9)

    def test_subgradient_inequality_random_triples(self):
        # 10^5 (w, v, x) triples per loss family, slack 1e-9.
        rng = np.random.default_rng(43)
        fs = FeasibleSet.l2_ball(2.0, dimension=3)
        for oracle in three_oracles(fs):
            w = rng.uniform(-2.0, 2.0, size=(100_000, 3))
            v = rng.uniform(-2.0, 2.0, size=(100_000, 3))
            feats = rng.normal(size=(100_000, 3))
            feats /= np.maximum(1.0, np.linalg.norm(feats, axis=1))[:, None]
            labels = rng.choice([-1.0, 1.0], size=100_000)
            g = oracle.subgradient(w, feats, labels)
            lhs = row_losses(oracle, v, feats, labels)
            rhs = row_losses(oracle, w, feats, labels) + np.sum(g * (v - w), axis=1)
            assert np.all(lhs >= rhs - 1e-9)

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(47)
        fs = FeasibleSet.l2_ball(2.0, dimension=3)
        h = 1e-6
        w, feats, labels = points_away_from_kinks(rng, 3000)
        for oracle in three_oracles(fs):
            g = oracle.subgradient(w, feats, labels)
            fd = np.empty_like(g)
            for i, e in enumerate(np.eye(3) * h):
                fd[:, i] = (row_losses(oracle, w + e, feats, labels)
                            - row_losses(oracle, w - e, feats, labels)) / (2 * h)
            assert np.all(np.linalg.norm(fd - g, axis=1)
                          <= 1e-4 * (1.0 + np.linalg.norm(g, axis=1)))

    def test_norm_never_exceeds_certificate(self):
        rng = np.random.default_rng(53)
        fs = FeasibleSet.l2_ball(1.0, dimension=4)
        w_dir = rng.normal(size=(2000, 4))
        w = (w_dir / np.linalg.norm(w_dir, axis=1)[:, None]
             * rng.uniform(0.0, 1.0, size=(2000, 1)))   # inside fs
        feats = rng.normal(size=(2000, 4))
        feats /= np.maximum(1.0, np.linalg.norm(feats, axis=1))[:, None]
        labels = rng.uniform(-1.0, 1.0, size=2000)
        for oracle in three_oracles(fs):
            g = oracle.subgradient(w, feats, labels)
            assert np.all(np.linalg.norm(g, axis=1) <= oracle.lipschitz_L + 1e-9)


def huber_smoothed(kind, z, y, mu):
    """Huber smoothing of max(0, 1 - y*z) (hinge) or |z - y| (absolute), written out."""
    if kind == "hinge":
        u = 1.0 - y * z
        return np.where(u <= 0.0, 0.0, np.where(u <= mu, u * u / (2.0 * mu), u - mu / 2.0))
    r = np.abs(z - y)
    return np.where(r <= mu, r * r / (2.0 * mu), r - mu / 2.0)


class TestSmoothedSlopes:
    def test_derivative_of_the_huber_smoothing(self):
        # Margins straddle both ends of each smoothing band. The reference
        # minimizer's certificate relies on f_mu <= f <= f_mu + mu/2, and
        # its step size on the slope being 1/mu-Lipschitz for |y| <= 1.
        rng = np.random.default_rng(71)
        mu, h = 0.05, 1e-7
        z = rng.uniform(-2.0, 2.0, size=5000)
        y = rng.uniform(-1.0, 1.0, size=5000)
        for oracle in (LossOracle.hinge(1.0), LossOracle.absolute(1.0)):
            f_mu = huber_smoothed(oracle.kind, z, y, mu)
            f = oracle.loss_at(z, y)
            assert np.all(f_mu <= f) and np.all(f <= f_mu + mu / 2.0 + 1e-12)
            slope = oracle.smoothed_slope_at(z, y, mu)
            fd = (huber_smoothed(oracle.kind, z + h, y, mu)
                  - huber_smoothed(oracle.kind, z - h, y, mu)) / (2.0 * h)
            np.testing.assert_allclose(slope, fd, rtol=0.0, atol=1e-5)
            order = np.argsort(z)
            for label in (-1.0, -0.3, 1.0):
                s = oracle.smoothed_slope_at(z[order], label, mu)
                assert np.all(np.abs(np.diff(s)) <= np.diff(z[order]) / mu + 1e-12)
        squared = LossOracle.squared(1.0, FeasibleSet.l2_ball(1.0, dimension=1))
        np.testing.assert_array_equal(squared.smoothed_slope_at(z, y, 0.0),
                                      squared.slope_at(z, y))


class TestMaxSubgradientNorm:
    """The run-entry sensitivity bound against brute force over the set."""

    def test_closed_forms(self):
        ball = FeasibleSet.l2_ball(1.0, center=[0.5, 0.0])     # max norm 1.5
        feats = np.array([[3.0, 4.0], [0.0, 1.0]])
        labels = np.array([0.5, -2.0])
        assert LossOracle.hinge(1.0).max_subgradient_norm(feats, labels, ball) == 2.5
        assert LossOracle.absolute(1.0).max_subgradient_norm(feats, labels, ball) == 5.0
        # rows: (1.5*5 + 0.5)*5 = 40 and (1.5*1 + 2)*1 = 3.5
        assert LossOracle.squared(1.0, ball).max_subgradient_norm(
            feats, labels, ball) == 40.0

    def test_bounds_every_iterate(self):
        rng = np.random.default_rng(67)
        box = FeasibleSet.box([-0.5, -0.2, 0.0], [0.5, 0.3, 0.4])
        w = rng.uniform(box.lower, box.upper, size=(20_000, 3))
        w[:8] = np.array(np.meshgrid(*zip(box.lower, box.upper))).reshape(3, 8).T
        w[8] = 0.0
        for oracle in three_oracles(box):
            for _ in range(20):
                x = rng.normal(size=3)
                y = rng.uniform(-1.5, 1.5)
                bound = oracle.max_subgradient_norm(x[None], np.array([y]), box)
                g = oracle.subgradient(w, np.tile(x, (20_000, 1)), np.full(20_000, y))
                norms = np.linalg.norm(g, axis=1)
                assert norms.max() <= bound * (1.0 + 1e-12)
                if oracle.kind != "squared":   # attained at w = 0
                    assert norms.max() == pytest.approx(bound)


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
        for oracle in three_oracles(fs):
            w1 = rng.uniform(-2.0, 2.0, size=(5000, 3))
            w2 = rng.uniform(-2.0, 2.0, size=(5000, 3))
            lam = rng.random(size=(5000, 1))
            feats = rng.normal(size=(5000, 3)) / 2.0
            labels = rng.choice([-1.0, 1.0], size=5000)
            mix = row_losses(oracle, lam * w1 + (1 - lam) * w2, feats, labels)
            lam = lam[:, 0]
            assert np.all(mix <= lam * row_losses(oracle, w1, feats, labels)
                          + (1 - lam) * row_losses(oracle, w2, feats, labels) + 1e-9)


class TestPopulations:
    def spec(self, noise=0.0):
        return PopulationSpec("linear_margin", 2, 1.0, w_true=np.array([1.0, 0.0]),
                              noise_rate=noise)

    def test_noiseless_labels_agree_with_margin(self):
        spec = self.spec()
        features, labels = draw_dataset(spec, 2000, np.random.default_rng(6))
        assert features.shape == (2000, 2) and labels.shape == (2000,)
        assert np.all(labels * (features @ spec.w_true) >= 0.0)

    def test_feature_bound_holds(self):
        spec = PopulationSpec("uniform_ball", 3, 0.7)
        features, _ = draw_dataset(spec, 2000, np.random.default_rng(1))
        assert np.all(np.linalg.norm(features, axis=1) <= 0.7 + 1e-12)

    def test_fixed_seed_reproduces(self):
        spec = self.spec(noise=0.3)
        a_features, a_labels = draw_dataset(spec, 100, np.random.default_rng(6))
        b_features, b_labels = draw_dataset(spec, 100, np.random.default_rng(6))
        np.testing.assert_array_equal(a_features, b_features)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_flip_rate_half(self):
        spec = self.spec(noise=0.5)
        n = 10_000
        features, labels = draw_dataset(spec, n, np.random.default_rng(8))
        clean = np.where(features @ spec.w_true >= 0.0, 1.0, -1.0)
        flips = int(np.sum(labels != clean))
        assert 0.45 <= flips / n <= 0.55

    def test_uniform_ball_labels(self):
        spec = PopulationSpec("uniform_ball", 2, 1.0)
        _, labels = draw_dataset(spec, 1000, np.random.default_rng(2))
        assert np.all((-1.0 <= labels) & (labels <= 1.0))

    def test_batched_draws_match_scalar_distribution(self):
        # draw_arrays must sample the same population as an independent
        # per-point reference sampler; compare summary statistics.
        spec = PopulationSpec("linear_margin", 3, 1.0, w_true=np.eye(3)[0],
                              noise_rate=0.3)
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
            PopulationSpec("linear_margin", 2, 1.0)     # no w_true
        with pytest.raises(ConfigurationError):
            PopulationSpec("uniform_ball", 2, -1.0)
        for bound in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="feature_bound must be finite"):
                PopulationSpec("uniform_ball", 2, bound)
            with pytest.raises(ConfigurationError, match="feature_bound must be finite"):
                LossOracle.hinge(bound)
        with pytest.raises(ConfigurationError, match="w_true must be finite"):
            PopulationSpec("linear_margin", 2, 1.0, w_true=[math.nan, 0.0])
        with pytest.raises(ConfigurationError):
            PopulationSpec("mystery", 2, 1.0)
        with pytest.raises(ConfigurationError):
            draw_dataset(PopulationSpec("uniform_ball", 2, 1.0), 0, np.random.default_rng(0))

