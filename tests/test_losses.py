import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import (RISK_QUADRATURE_BOUND, LossOracle, PopulationSpec,
                             draw_arrays, draw_dataset, lipschitz_certificate,
                             population_risk, risk_curvature)
from oracles import (plain_loss, plain_subgradient, points_away_from_kinks,
                     population_point, quadrature_risk, row_losses)


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


def risk_case(kind, population, d):
    """(spec, oracle, w) for one population_risk case; B*|w| > 1, so the
    loss kinks cross the ball, and feature_bound != 1 for odd d."""
    rng = np.random.default_rng([d, len(kind), len(population)])
    bound = 1.3 if d % 2 else 0.7
    if population == "uniform_ball":
        spec = PopulationSpec("uniform_ball", d, bound)
    else:
        w_true = np.zeros(d) if population == "w_true-zero" else rng.standard_normal(d)
        spec = PopulationSpec("linear_margin", d, bound, w_true=w_true, noise_rate=0.15)
    w = rng.standard_normal(d)
    w *= 1.6 / np.linalg.norm(w)
    fs = FeasibleSet.l2_ball(2.0, dimension=d)
    oracle = (LossOracle.squared(bound, fs) if kind == "squared"
              else getattr(LossOracle, kind)(bound))
    return spec, oracle, w


RISK_CASES = pytest.mark.parametrize(
    "kind,population,d",
    [(kind, population, d) for kind in ("hinge", "absolute", "squared")
     for population in ("linear_margin", "w_true-zero", "uniform_ball")
     for d in (1, 2, 3, 10)])


class TestPopulationRisk:
    """population_risk against oracles that share none of its code."""

    @RISK_CASES
    def test_matches_dblquad(self, kind, population, d):
        pytest.importorskip("scipy")
        spec, oracle, w = risk_case(kind, population, d)
        value, gradient = population_risk(spec, oracle, w)
        want_value, want_gradient = quadrature_risk(spec, kind, w)
        scale = 1.0 + spec.feature_bound * np.linalg.norm(w)
        assert abs(value - want_value) <= RISK_QUADRATURE_BOUND * scale ** 2
        assert np.all(np.abs(gradient - want_gradient)
                      <= RISK_QUADRATURE_BOUND * spec.feature_bound * scale)

    @RISK_CASES
    def test_matches_monte_carlo(self, kind, population, d):
        # 10^6 draws from the library's sampler, in four blocks; the loss
        # and its gradient rows are written out from the closed forms.
        spec, oracle, w = risk_case(kind, population, d)
        value, gradient = population_risk(spec, oracle, w)
        rng = np.random.default_rng(12)
        sums = np.zeros((2, d + 1))
        for _ in range(4):
            features, labels = draw_arrays(spec, 250_000, rng)
            z = features @ w
            if kind == "hinge":
                loss, slope = np.maximum(0.0, 1.0 - labels * z), -labels * (labels * z < 1.0)
            elif kind == "absolute":
                loss, slope = np.abs(z - labels), np.sign(z - labels)
            else:
                loss, slope = 0.5 * (z - labels) ** 2, z - labels
            rows = np.column_stack([loss, slope[:, None] * features])
            sums += [rows.sum(axis=0), (rows * rows).sum(axis=0)]
        mean = sums[0] / 1e6
        stderr = np.sqrt((sums[1] / 1e6 - mean ** 2) / (1e6 - 1.0))
        got = np.concatenate([[value], gradient])
        assert np.all(np.abs(got - mean) <= 4.0 * stderr + 1e-12), (got - mean) / stderr

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_closed_forms(self, d):
        # At w = 0 the margin is 0: squared loss E y^2/2 = 1/6 and absolute
        # E|y| = 1/2 under uniform labels, and hinge 1 under any labels.
        # Squared loss under uniform labels is B^2|w|^2/(2(d+2)) + 1/6 at
        # every w (E[xx'] = B^2/(d+2) I). Hinge under sign labels while
        # B|w| <= 1 is 1 - (1 - 2 flip) <w, E[sign(<w_true, x>) x]>, and
        # E|x_1| is 1/2, 4/(3 pi) and 3/8 in the unit ball at d = 1, 2, 3.
        zero = np.zeros(d)
        uniform = PopulationSpec("uniform_ball", d, 1.7)
        signs = PopulationSpec("linear_margin", d, 0.6, w_true=np.eye(d)[0], noise_rate=0.2)
        fs = FeasibleSet.l2_ball(1.0, dimension=d)
        squared = LossOracle.squared(1.7, fs)
        assert population_risk(uniform, squared, zero)[0] == pytest.approx(1 / 6, abs=1e-14)
        assert population_risk(uniform, LossOracle.absolute(1.7), zero)[0] == pytest.approx(
            0.5, abs=1e-14)
        for spec in (uniform, signs):
            assert population_risk(spec, LossOracle.hinge(1.7), zero)[0] == pytest.approx(
                1.0, abs=1e-14)
        w = np.linspace(0.3, -0.5, d)
        value, gradient = population_risk(uniform, squared, w)
        assert value == pytest.approx(1.7 ** 2 * (w @ w) / (2 * (d + 2)) + 1 / 6, abs=1e-13)
        np.testing.assert_allclose(gradient, 1.7 ** 2 * w / (d + 2), rtol=0, atol=1e-13)
        mean_abs = {1: 0.5, 2: 4.0 / (3.0 * math.pi), 3: 3.0 / 8.0}
        if d in mean_abs:
            slope = (1.0 - 2 * 0.2) * 0.6 * mean_abs[d]
            w = np.full(d, 0.9 / math.sqrt(d))
            value, gradient = population_risk(signs, LossOracle.hinge(0.6), w)
            assert value == pytest.approx(1.0 - slope * w[0], abs=1e-13)
            np.testing.assert_allclose(gradient, -slope * np.eye(d)[0], rtol=0, atol=1e-13)

    @RISK_CASES
    def test_gradient_matches_finite_differences(self, kind, population, d):
        spec, oracle, w = risk_case(kind, population, d)
        gradient = population_risk(spec, oracle, w)[1]
        h = 1e-6
        for i in range(d):
            step = h * np.eye(d)[i]
            slope = (population_risk(spec, oracle, w + step)[0]
                     - population_risk(spec, oracle, w - step)[0]) / (2 * h)
            assert slope == pytest.approx(gradient[i], abs=1e-7)

    @RISK_CASES
    def test_curvature_bounds_gradient_changes(self, kind, population, d):
        # The FISTA step of the reference minimizer is 1/risk_curvature.
        spec, oracle, w = risk_case(kind, population, d)
        beta = risk_curvature(spec, oracle)
        rng = np.random.default_rng(d)
        for _ in range(20):
            v, u = rng.standard_normal((2, d)) * rng.uniform(0.0, 3.0, size=(2, 1))
            change = np.linalg.norm(population_risk(spec, oracle, v)[1]
                                    - population_risk(spec, oracle, u)[1])
            assert change <= beta * np.linalg.norm(v - u) * (1 + 1e-9) + 1e-12


def risk_rows_case(kind, population, d):
    """(spec, oracle) for a stacked population_risk case: sign labels about a
    random w_true, about w_true = 2 e_1 (so rows along and across it are
    exact), about w_true = 0, or uniform labels."""
    bound = 1.3 if d % 2 else 0.7
    w_true = {"linear_margin": np.random.default_rng([d, 5]).standard_normal(d),
              "axis_margin": 2.0 * np.eye(d)[0], "w_true-zero": np.zeros(d)}.get(population)
    spec = (PopulationSpec("uniform_ball", d, bound) if w_true is None else
            PopulationSpec("linear_margin", d, bound, w_true=w_true, noise_rate=0.15))
    return spec, LossOracle(kind, 1.0)


def risk_rows(spec):
    """Rows in every group of population_risk's piece counts: w = 0, B|w| below
    and above 1, along w_true and against it, and across it (d > 1)."""
    d, bound = spec.dimension, spec.feature_bound
    axis = spec.w_true if spec.w_true is not None and spec.w_true.any() else np.eye(d)[0]
    # Sums by np.sum, not BLAS, so the rows do not depend on the OpenBLAS kernel.
    axis = axis / np.sqrt(np.sum(axis * axis))
    unit = np.random.default_rng([d, 6]).standard_normal((3, d))
    unit /= np.sqrt(np.sum(unit * unit, axis=1, keepdims=True))
    rows = [np.zeros(d), 0.5 / bound * unit[0], 2.5 / bound * unit[1], 1.0 / bound * unit[2],
            3.0 / bound * axis, -0.4 / bound * axis, 2.0 * np.eye(d)[0]]
    if d > 1:
        across = unit[0] - np.sum(unit[0] * axis) * axis
        across /= np.sqrt(np.sum(across * across))
        rows += [2.0 / bound * across, 0.3 / bound * across, 1.5 * np.eye(d)[1]]
    return np.array(rows)


ROWS_CASES = [(kind, population, d) for kind in ("hinge", "absolute", "squared")
              for population in ("linear_margin", "axis_margin", "w_true-zero", "uniform_ball")
              for d in (1, 2, 3, 10)]
# sha256 of every ROWS_CASES row's one-point (F, grad F) bytes, in order, from
# the one-point population_risk before it took stacked rows. One value under
# every numpy CPU dispatch: losses takes arcsin by math.asin, so this is the
# value the old code gave without numpy's AVX-512 loops.
POINT_RISKS_SHA256 = "260ea26e44092a2c31b5663f3d9859d15236be625ec3e9d180ccc5590ada9b0e"


class TestRiskRowsBytes:
    """population_risk of stacked (R, d) rows equals its one-point calls bit
    for bit: the rows are grouped by piece count, never padded."""

    @pytest.mark.parametrize("kind,population,d", ROWS_CASES)
    def test_rows_match_points(self, kind, population, d):
        spec, oracle = risk_rows_case(kind, population, d)
        rows = risk_rows(spec)
        values, gradients = population_risk(spec, oracle, rows)
        points = [population_risk(spec, oracle, w) for w in rows]
        assert values.tobytes() == np.array([value for value, _ in points]).tobytes()
        assert gradients.tobytes() == np.array([gradient for _, gradient in points]).tobytes()

    @pytest.mark.parametrize("d", [1, 10])
    def test_no_rows(self, d):
        # A cell whose repeats all overran scores no rows.
        spec, oracle = risk_rows_case("hinge", "linear_margin", d)
        values, gradients = population_risk(spec, oracle, np.empty((0, d)))
        assert values.shape == (0,) and gradients.shape == (0, d)

    def test_points_digest(self):
        digest = hashlib.sha256()
        for kind, population, d in ROWS_CASES:
            spec, oracle = risk_rows_case(kind, population, d)
            for w in risk_rows(spec):
                value, gradient = population_risk(spec, oracle, w)
                assert isinstance(value, float) and gradient.shape == (d,)
                digest.update(np.float64(value).tobytes() + gradient.tobytes())
        assert digest.hexdigest() == POINT_RISKS_SHA256


class TestMaxSubgradientNorm:
    """The run-entry sensitivity bound against brute force over the set."""

    def test_closed_forms(self):
        ball = FeasibleSet.l2_ball(1.5, dimension=2)
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

    def test_squared_certificate_that_overflows_refused(self):
        # (max_norm*B + 1)*B overflows although B*B does not: the certificate
        # was once returned as inf (found by test_fuzz.py). Such a B is now
        # past 2^200; at B = 2^200 the certificate, about 2^399.5, is itself
        # out of range, and refused by name.
        box = FeasibleSet.box([-0.5, -0.5], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="lipschitz_certificate: feature_bound "
                                                         "must have magnitude"):
                lipschitz_certificate("squared", 1.6e154, box)
            with pytest.raises(ConfigurationError, match="squared loss's L at "
                                                         "feature_bound=1.6.*e.60"):
                lipschitz_certificate("squared", 2.0**200, box)

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

    @pytest.mark.parametrize("bound", [1e-310, 1e-160, 1e200])
    def test_feature_bound_whose_square_is_not_normal_refused(self, bound):
        # risk_curvature squares the bound: a square of 0 made the reference
        # minimizer's step 1/0 (ZeroDivisionError), a subnormal one made it
        # inf (RuntimeWarning), and an overflowing one raised OverflowError.
        # Found by tests/test_fuzz.py.
        # The range [2^-200, 2^200] keeps every square normal (errors.py,
        # "squares").
        for generator, w_true in (("uniform_ball", None), ("linear_margin", [1.0, 0.0])):
            with pytest.raises(ConfigurationError, match="feature_bound must have magnitude"):
                PopulationSpec(generator, 2, bound, w_true=w_true)
        PopulationSpec("uniform_ball", 2, 2.0**-200)
        PopulationSpec("uniform_ball", 2, 2.0**200)

    @pytest.mark.parametrize("w_true", [[5e-324, 0.0], [1e-310, 1e-310], [1e308, 0.0],
                                        [1e154, 1e154]])
    def test_w_true_whose_squared_norm_under_or_overflows_refused(self, w_true):
        # population_risk divides w_true by its norm: a squared norm that
        # underflowed to 0 divided by zero, and one that overflowed warned.
        # Found by tests/test_fuzz.py. Each has an entry outside [2^-200,
        # 2^200]; w_true = 0 and the range's ends stay accepted.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigurationError, match="w_true entries must be 0 or have "
                                                         "magnitude"):
                PopulationSpec("linear_margin", 2, 1.0, w_true=w_true)
            PopulationSpec("linear_margin", 2, 1.0, w_true=[0.0, 0.0])
            PopulationSpec("linear_margin", 2, 1.0, w_true=[2.0**-200, 0.0])
            PopulationSpec("linear_margin", 2, 1.0, w_true=[2.0**200, -2.0**200])

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

    @pytest.mark.parametrize("fields", [
        dict(w_true="junk"), dict(w_true=[1.0, 0.0]), dict(noise_rate=0.4),
        dict(w_true="junk", noise_rate=0.4)], ids=["junk-w_true", "w_true", "noise_rate", "both"])
    def test_uniform_ball_refuses_what_it_does_not_read(self, fields):
        # A built spec holds no unchecked field. A noise rate of 0, which run
        # passes for every generator, is read as none (tests/test_fuzz.py).
        with pytest.raises(ConfigurationError,
                           match="^uniform_ball: w_true and noise_rate not read$"):
            PopulationSpec("uniform_ball", 2, 1.0, **fields)


@pytest.mark.parametrize("kind, lipschitz_L", [
    ("Hinge", 1.0), ("logistic", 1.0), ("hinge", math.nan), ("hinge", math.inf),
    ("absolute", 0.0), ("squared", -1.0),
])
def test_oracle_refuses_unknown_kind_and_bad_constant(kind, lipschitz_L):
    # "Hinge" would score as the squared loss (loss_at(2, 1) = 0.5, where
    # hinge gives 0), and a NaN L would let check_rows pass rows of any norm.
    with pytest.raises(ConfigurationError):
        LossOracle(kind, lipschitz_L)


class TestCertificateBytes:
    """LossOracle.fixed_slopes, fed FeasibleSet.reach, certifies a slope only
    where slope_at gives that slope, bit for bit, at every iterate."""

    def test_hinge_at_the_threshold(self):
        oracle = LossOracle.hinge(1.0)
        labels = np.array([2.0, -4.0, 0.0])
        reach = np.array([0.5, 0.25, 7.0])   # |y| * reach = 1, 1 and 0
        assert oracle.fixed_slopes(labels, lambda: reach).tobytes() == (-labels).tobytes()
        reach[0] = np.nextafter(0.5, 1.0)
        assert oracle.fixed_slopes(labels, lambda: reach) is None

    def test_absolute_with_reach_equal_to_the_label(self):
        oracle = LossOracle.absolute(1.0)
        labels = np.array([1.0, -0.5])
        assert oracle.fixed_slopes(labels, lambda: np.abs(labels)) is None
        below = np.nextafter(np.abs(labels), 0.0)
        assert oracle.fixed_slopes(labels, lambda: below).tolist() == [-1.0, 1.0]

    def test_squared_computes_no_reach(self):
        def reach():
            raise AssertionError("the squared loss asked for a norm")

        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        assert LossOracle.squared(1.0, fs).fixed_slopes(np.ones(3), reach) is None

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.sampled_from(["hinge", "absolute"]),
           st.sampled_from(["ball", "box"]), st.integers(-30, 30), st.integers(-30, 30),
           st.integers(0, 2**32 - 1))
    def test_certified_slopes_are_slope_at(self, d, kind, set_kind, set_scale, label_scale,
                                           seed):
        # Rows sized so that their reach sits just inside the certificate,
        # against iterates the projection returns on the boundary point
        # along each row (the largest margin there) and inside the set.
        rng, rows = np.random.default_rng(seed), 8
        scale = math.ldexp(1.0, set_scale)
        if set_kind == "ball":
            fs = FeasibleSet.l2_ball(scale * rng.uniform(0.1, 1.0), dimension=d)
            direction = rng.normal(size=(rows, d))
        else:
            # Half the boxes sit off the origin.
            lower = scale * (rng.uniform(-1.0, 0.5, size=d)
                             + rng.normal(size=d) * rng.integers(0, 2))
            fs = FeasibleSet.box(lower, lower + scale * rng.uniform(0.0, 1.0, size=d))
            corner = np.maximum(np.abs(fs.lower), np.abs(fs.upper))
            direction = (corner * np.where(np.abs(fs.upper) >= np.abs(fs.lower), 1.0, -1.0)
                         + scale * 1e-3 * rng.normal(size=(rows, d)))
        labels = (rng.choice([-1.0, 1.0], size=rows) * math.ldexp(1.0, label_scale)
                  * rng.uniform(0.5, 1.0, size=rows))
        oracle = getattr(LossOracle, kind)(1.0)
        limit = 1.0 / np.abs(labels) if kind == "hinge" else np.abs(labels)
        features = direction * (limit * (1.0 - 2.0 ** -50) / fs.reach(direction))[:, None]
        slopes = oracle.fixed_slopes(labels, lambda: fs.reach(features))
        assert slopes is not None
        far = features / np.linalg.norm(features, axis=1)[:, None] * 4.0 * fs.max_norm()
        for points in far, far * rng.uniform(size=(rows, 1)) / 4.0:
            w = fs.project_rows(points)
            margins = np.einsum("...i,...i->...", w, features)
            assert oracle.slope_at(margins, labels).tobytes() == slopes.tobytes()


class TestRiskMemory:
    @pytest.mark.parametrize("generator, w_true", [("uniform_ball", None),
                                                   ("linear_margin", "zero")])
    def test_population_without_a_label_axis_holds_no_identity(self, generator, w_true):
        # population_risk once built np.eye(d)[0] for the direction of w = 0
        # whenever the population had no label axis: 68.7 MB at d = 3000.
        d = 3000
        spec = PopulationSpec(generator, d, 1.0,
                              w_true=None if w_true is None else np.zeros(d))
        oracle = LossOracle.hinge(1.0)
        w = np.full(d, 0.01)
        population_risk(spec, oracle, w)
        tracemalloc.start()
        try:
            population_risk(spec, oracle, w)
            population_risk(spec, oracle, np.zeros(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestRiskInputs:
    @pytest.mark.parametrize("w, message", [
        ([[0.1], [0.2, 0.3]], "rectangular"),
        ([0.1, 0.2, 0.3], "shape"),
        ([[[0.1, 0.2]]], "shape"),
        ([0.1, math.nan], "finite"),
        (["0.1", "0.2"], "real numbers"),
        ([1e200, 0.0], "overflows"),
    ], ids=["ragged", "wrong-length", "three-axes", "nan", "text", "overflowing-risk"])
    def test_bad_point_refused(self, w, message):
        # Each once ended in numpy's ValueError, a NaN risk or a
        # RuntimeWarning. Found by tests/test_fuzz.py.
        spec = PopulationSpec("uniform_ball", 2, 1.0)
        fs = FeasibleSet.l2_ball(0.5, dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigurationError, match=message):
                population_risk(spec, LossOracle.squared(1.0, fs), w)

    def test_curvature_whose_reciprocal_overflows_refused(self):
        # B = 1.52e-154 has a normal square, but B^2/6 does not, and the
        # reference minimizer's step 1/beta was inf. A large d does the same.
        # Both B are below 2^-200, where the smallest beta, at the largest d,
        # is normal (errors.py, "curvature").
        with pytest.raises(ConfigurationError, match="feature_bound must have magnitude"):
            risk_curvature(PopulationSpec("uniform_ball", 1, 1.52e-154), LossOracle.hinge(1.0))
        with pytest.raises(ConfigurationError, match="feature_bound must have magnitude"):
            risk_curvature(PopulationSpec("uniform_ball", 2**53, 1.5e-154),
                           LossOracle.hinge(1.0))
        for d in (1, 2**53):
            beta = risk_curvature(PopulationSpec("uniform_ball", d, 2.0**-200),
                                  LossOracle.hinge(1.0))
            assert beta >= sys.float_info.min and 1.0 / beta < math.inf
