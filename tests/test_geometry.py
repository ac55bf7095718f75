import numpy as np
import pytest

from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet, Potential, mirror_step

RNG = np.random.default_rng(20240)


def random_sets(count, dim, rng):
    sets = []
    for i in range(count):
        if i % 2 == 0:
            center = rng.normal(size=dim)
            sets.append(FeasibleSet.l2_ball(float(rng.uniform(0.2, 3.0)), center=center))
        else:
            lo = rng.normal(size=dim)
            sets.append(FeasibleSet.box(lo, lo + rng.uniform(0.1, 2.0, size=dim)))
    return sets


class TestProjection:
    def test_interior_point_is_fixed(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        np.testing.assert_allclose(ball.project(np.array([0.1, 0.2])), [0.1, 0.2])

    def test_radial_scaling(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_box_clamp(self):
        box = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(box.project(np.array([-2.0, 0.5])), [0.0, 0.5])

    def test_projection_lands_in_set(self):
        rng = np.random.default_rng(7)
        for s in random_sets(20, 3, rng):
            for _ in range(50):
                p = s.project(rng.normal(scale=5.0, size=3))
                assert s.contains(p)

    def test_nonexpansiveness(self):
        # 10^4 random pairs across ball and box geometries.
        rng = np.random.default_rng(11)
        sets = random_sets(10, 4, rng)
        for _ in range(1000):
            for s in sets:
                x = rng.normal(scale=4.0, size=4)
                y = rng.normal(scale=4.0, size=4)
                lhs = np.linalg.norm(s.project(x) - s.project(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-9

    def test_idempotence(self):
        rng = np.random.default_rng(13)
        for s in random_sets(10, 3, rng):
            for _ in range(100):
                once = s.project(rng.normal(scale=5.0, size=3))
                np.testing.assert_allclose(s.project(once), once, atol=1e-12)

    def test_dimension_mismatch(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        with pytest.raises(ConfigurationError):
            ball.project(np.array([1.0, 2.0, 3.0]))

    def test_rows_match_pointwise(self):
        rng = np.random.default_rng(37)
        for s in random_sets(10, 3, rng):
            points = rng.normal(scale=3.0, size=(50, 3))
            rows = s.project_rows(points)
            assert rows.shape == (50, 3)
            for point, row in zip(points, rows):
                np.testing.assert_allclose(row, s.project(point), rtol=0.0, atol=1e-12)
            # rows already in the set come back unchanged
            middle = s.center if s.kind == "l2_ball" else (s.lower + s.upper) / 2.0
            inside = middle + 0.01 * rng.uniform(-1.0, 1.0, size=(5, 3))
            np.testing.assert_array_equal(s.project_rows(inside), inside)

    def test_diameter(self):
        assert FeasibleSet.l2_ball(1.5, dimension=3).diameter() == 3.0
        box = FeasibleSet.box([0.0, 0.0], [3.0, 4.0])
        assert box.diameter() == pytest.approx(5.0)
        assert box.diameter() > 0


class TestPotential:
    def test_bregman_of_point_with_itself(self):
        pot = Potential.euclidean(2)
        x = np.array([0.3, -1.2])
        assert pot.bregman(x, x) == 0.0

    def test_bregman_known_values(self):
        pot = Potential.euclidean(2)
        assert pot.bregman(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)
        assert pot.bregman(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(12.5)

    def test_grad_and_conjugate_grad_invert(self):
        pot = Potential.euclidean(5)
        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.normal(scale=10.0, size=5)
            back = pot.conjugate_grad(pot.grad(x))
            assert np.linalg.norm(back - x) <= 1e-9 * (1.0 + np.linalg.norm(x))

    def test_strong_convexity_lower_bound(self):
        pot = Potential.euclidean(3)
        rng = np.random.default_rng(19)
        for _ in range(500):
            x, y = rng.normal(size=3), rng.normal(size=3)
            gap = pot.bregman(x, y) - 0.5 * pot.strong_convexity * np.sum((x - y) ** 2)
            assert gap >= -1e-9

    def test_conjugate_is_strongly_smooth(self):
        # Dual-side counterpart of strong convexity: the conjugate's
        # divergence is dominated by (1/alpha)*||x - y||^2.
        pot = Potential.euclidean(3)
        rng = np.random.default_rng(23)
        for _ in range(500):
            x, y = rng.normal(scale=3.0, size=3), rng.normal(scale=3.0, size=3)
            bound = np.sum((x - y) ** 2) / pot.strong_convexity
            assert pot.conjugate_bregman(x, y) <= bound + 1e-9

    def test_dimension_mismatch(self):
        pot = Potential.euclidean(2)
        with pytest.raises(ConfigurationError):
            pot.bregman(np.zeros(2), np.zeros(3))


class TestMirrorStep:
    def test_zero_gradient_just_projects(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        pot = Potential.euclidean(2)
        w = np.array([2.0, 0.0])
        np.testing.assert_allclose(
            mirror_step(pot, ball, w, np.zeros(2), 0.5), ball.project(w))

    def test_interior_gradient_step(self):
        ball = FeasibleSet.l2_ball(10.0, dimension=2)
        pot = Potential.euclidean(2)
        out = mirror_step(pot, ball, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 1.0])

    def test_step_onto_boundary(self):
        # w - eta*g = (2, 0); radial projection of (2, 0) onto the unit
        # ball is (1, 0), checked against the projection operator itself.
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        pot = Potential.euclidean(2)
        out = mirror_step(pot, ball, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, ball.project(np.array([2.0, 0.0])))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_equals_projected_gradient_step(self):
        rng = np.random.default_rng(29)
        pot = Potential.euclidean(4)
        for s in random_sets(10, 4, rng):
            for _ in range(100):
                w = s.project(rng.normal(size=4))
                g = rng.normal(scale=3.0, size=4)
                eta = float(rng.uniform(1e-3, 2.0))
                expected = s.project(w - eta * g)
                np.testing.assert_allclose(
                    mirror_step(pot, s, w, g, eta), expected, rtol=1e-12, atol=1e-15)

    def test_result_in_set(self):
        rng = np.random.default_rng(31)
        pot = Potential.euclidean(3)
        for s in random_sets(8, 3, rng):
            for _ in range(50):
                out = mirror_step(pot, s, s.project(rng.normal(size=3)),
                                  rng.normal(size=3), 0.7)
                assert s.contains(out)

    def test_bad_eta(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        with pytest.raises(ConfigurationError):
            mirror_step(Potential.euclidean(2), ball, np.zeros(2), np.zeros(2), 0.0)

    def test_dimension_mismatch(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=3)
        with pytest.raises(ConfigurationError):
            mirror_step(Potential.euclidean(2), ball, np.zeros(2), np.zeros(2), 0.1)


def test_invalid_set_construction():
    with pytest.raises(ConfigurationError):
        FeasibleSet.l2_ball(0.0, dimension=2)
    with pytest.raises(ConfigurationError):
        FeasibleSet.box([0.0, 0.0], [1.0])
    with pytest.raises(ConfigurationError):
        FeasibleSet.box([1.0], [0.0])
