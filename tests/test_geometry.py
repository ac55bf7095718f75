import itertools
import math
import warnings

import numpy as np
import pytest

from dpmirror.errors import ConfigurationError
from dpmirror.geometry import FeasibleSet, mirror_step
from oracles import project_ball, project_box

RNG = np.random.default_rng(20240)


def random_sets(count, dim, rng):
    sets = []
    for i in range(count):
        if i % 2 == 0:
            sets.append(FeasibleSet.l2_ball(float(rng.uniform(0.2, 3.0)), dimension=dim))
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
            middle = 0.0 if s.kind == "l2_ball" else (s.lower + s.upper) / 2.0
            inside = middle + 0.01 * rng.uniform(-1.0, 1.0, size=(5, 3))
            np.testing.assert_array_equal(s.project_rows(inside), inside)

    @staticmethod
    def boolean_index_projection(ball, points):
        """The ball projection as a copy with the outside rows rescaled by
        boolean indexing, the formula the branch-free one replaced."""
        norms = np.sqrt(np.einsum("...i,...i->...", points, points))
        outside = norms > ball.radius
        projected = points.copy()
        projected[outside] = points[outside] * (ball.radius / norms[outside])[:, None]
        return projected

    @pytest.mark.parametrize("radius, rows", [
        # inside, exactly on the sphere ((3, 4)), outside, the centre
        (5.0, [[1.0, 1.0], [3.0, 4.0], [10.0, 10.0], [0.0, 0.0]]),
        # the same kinds of row at radius 1, with signed zeros
        (1.0, [[0.5, -0.0], [-0.0, -1.0], [3.0, -4.0], [-0.0, -0.0]]),
        (1.0, [[0.25], [-1.0], [-3.0], [-0.0]]),
        # d = 10, the grid's larger dimension, at radius 5 and at its 0.5
        (5.0, [[0.5, -0.0, 1.0, 0.0, -2.0, 0.0, -0.0, 0.25, 1.0, -0.0],
               [-0.0, 3.0, 0.0, -0.0, 0.0, -4.0, -0.0, 0.0, 0.0, -0.0],
               [10.0, -0.0, 10.0, 0.0, -1.0, 2.0, -0.0, 0.0, 3.0, -5.0],
               [0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0]]),
        (0.5, [[0.125, -0.0, -0.25, 0.0, 0.0, 0.125, -0.0, 0.0, -0.0, 0.0],
               [-0.0, 0.0, 0.0, -0.0, -0.5, 0.0, -0.0, 0.0, 0.0, -0.0],
               [0.5, -0.0, 0.5, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.5],
               [-0.0] * 10]),
    ], ids=["radius-5", "origin", "d1", "d10-radius-5", "d10-radius-0.5"])
    def test_ball_matches_boolean_index_formula_bytewise(self, radius, rows):
        rows = np.array(rows)
        d = rows.shape[1]
        ball = FeasibleSet.l2_ball(radius, dimension=d)
        assert math.sqrt(rows[1] @ rows[1]) == radius      # the second row is on the sphere
        with np.errstate(all="raise"):
            for point in rows:
                got = ball.project_rows(point)
                assert got.shape == point.shape
                assert got.tobytes() == self.boolean_index_projection(ball, point).tobytes()
            for stack in (rows, rows[::-1], np.stack([rows, rows[[2, 0, 3, 1]]])):
                want = self.boolean_index_projection(ball, stack.reshape(-1, d))
                got = ball.project_rows(stack)
                assert got.shape == stack.shape
                assert got.tobytes() == want.tobytes()
        # Rows inside or on the sphere keep their bits; the outside row moves.
        got = ball.project_rows(rows)
        assert got[[0, 1, 3]].tobytes() == rows[[0, 1, 3]].tobytes()
        assert np.linalg.norm(got[2]) == pytest.approx(radius, rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_stacked_chunk_matches_boolean_index_formula_bytewise(self, d):
        # A (k, R, d) stack shaped like a noise chunk of iterates: rows well
        # inside, near and well outside the ball, some exactly on it, and
        # all-zero rows of either sign.
        rng = np.random.default_rng(35 + d)
        ball = FeasibleSet.l2_ball(0.5, dimension=d)
        stack = rng.normal(size=(16, 20, d)) * rng.choice([0.01, 0.3, 0.5, 4.0], size=(16, 20, 1))
        stack[::5, ::3] = 0.0
        stack[1::5, ::4] = -0.0
        stack[2::5, 1::3] = np.where(np.arange(d) == 0, -0.5, -0.0)
        with np.errstate(all="raise"):
            got = ball.project_rows(stack)
        want = self.boolean_index_projection(ball, stack.reshape(-1, d)).reshape(stack.shape)
        assert got.shape == stack.shape
        assert got.tobytes() == want.tobytes()
        norms = np.sqrt(np.einsum("...i,...i->...", stack, stack))
        assert (norms < 0.5).any() and (norms == 0.5).any() and (norms > 0.5).any()
        assert np.signbit(stack[norms == 0.0]).any()

    @pytest.mark.parametrize("point, want", [
        ([-0.0, -4.0], [-0.0, -1.0]), ([3.0, -0.0], [1.0, -0.0]), ([0.0, 2.0], [0.0, 1.0])],
        ids=["first", "second", "positive"])
    def test_outside_point_keeps_its_signed_zero(self, point, want):
        # The ball scales the point itself, so a -0.0 coordinate stays -0.0.
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        for got in (ball.project(point), ball.project_rows(np.array(point))):
            assert got.tobytes() == np.array(want).tobytes()
        assert project_ball(1.0, np.array(point)).tobytes() == np.array(want).tobytes()

    def test_diameter(self):
        assert FeasibleSet.l2_ball(1.5, dimension=3).diameter() == 3.0
        box = FeasibleSet.box([0.0, 0.0], [3.0, 4.0])
        assert box.diameter() == pytest.approx(5.0)
        assert box.diameter() > 0


class TestMaxNorm:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_box_is_the_largest_corner(self, dim):
        # Asymmetric bounds, some intervals on one side of 0, against every
        # corner of the box.
        rng = np.random.default_rng(dim)
        for _ in range(10):
            lower = rng.uniform(-2.0, 1.0, size=dim)
            upper = lower + rng.uniform(0.1, 2.0, size=dim)
            corners = itertools.product(*zip(lower, upper))
            expected = max(math.sqrt(sum(c * c for c in corner)) for corner in corners)
            box = FeasibleSet.box(lower, upper)
            assert box.max_norm() == pytest.approx(expected, rel=1e-12)

    def test_ball_is_its_radius(self):
        ball = FeasibleSet.l2_ball(0.5, dimension=2)
        assert ball.max_norm() == 0.5
        assert ball.contains(np.array([0.3, -0.4])) and not ball.contains([0.3, 0.41])


class TestMirrorStep:
    def test_zero_gradient_just_projects(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        w = np.array([2.0, 0.0])
        np.testing.assert_allclose(
            mirror_step(ball, w, np.zeros(2), 0.5), ball.project(w))

    def test_interior_gradient_step(self):
        ball = FeasibleSet.l2_ball(10.0, dimension=2)
        out = mirror_step(ball, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [0.5, 1.0])

    def test_step_onto_boundary(self):
        # w - eta*g = (2, 0); radial projection of (2, 0) onto the unit
        # ball is (1, 0), checked against the projection operator itself.
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        out = mirror_step(ball, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, ball.project(np.array([2.0, 0.0])))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_equals_projected_gradient_step(self):
        rng = np.random.default_rng(29)
        for s in random_sets(10, 4, rng):
            for _ in range(100):
                w = s.project(rng.normal(size=4))
                g = rng.normal(scale=3.0, size=4)
                eta = float(rng.uniform(1e-3, 2.0))
                if s.kind == "l2_ball":
                    expected = project_ball(s.radius, w - eta * g)
                else:
                    expected = project_box(s.lower, s.upper, w - eta * g)
                np.testing.assert_allclose(
                    mirror_step(s, w, g, eta), expected, rtol=1e-12, atol=1e-15)

    def test_result_in_set(self):
        rng = np.random.default_rng(31)
        for s in random_sets(8, 3, rng):
            for _ in range(50):
                out = mirror_step(s, s.project(rng.normal(size=3)),
                                  rng.normal(size=3), 0.7)
                assert s.contains(out)

    def test_bad_eta(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=2)
        for eta in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                mirror_step(ball, np.zeros(2), np.zeros(2), eta)

    def test_dimension_mismatch(self):
        ball = FeasibleSet.l2_ball(1.0, dimension=3)
        with pytest.raises(ConfigurationError):
            mirror_step(ball, np.zeros(2), np.zeros(2), 0.1)

    @pytest.mark.parametrize("w, g, eta, message", [
        ([0.5, 0.0], [1e308, 0.0], 1e308, r"mirror_step: eta must have magnitude in \[2\^-200"),
        ([0.5, 0.0], [1e308, 0.0], 2.0**200, "project: point must be finite"),
        ([1e308, 0.0], [-1e308, 0.0], 1.0, "project: point must be finite")],
        ids=["product", "product-in-range", "difference"])
    def test_overflowing_step_refused(self, w, g, eta, message):
        # w - eta * g overflowed with a RuntimeWarning. Found by reading the
        # cases tests/test_fuzz.py draws. An eta past 2^200 is out of range;
        # w and g are computed vectors, with no range, so project refuses the
        # overflowed point.
        ball = FeasibleSet.l2_ball(0.5, dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigurationError, match=message):
                mirror_step(ball, w, g, eta)

    def test_point_whose_squared_norm_overflows_refused(self):
        # project_rows scales such a point by r/inf = 0, so project once
        # returned 0 for (1e308, 1e308) instead of a boundary point.
        ball = FeasibleSet.l2_ball(0.5, dimension=2)
        with pytest.raises(ConfigurationError, match="overflows"):
            ball.project([1e308, 1e308])
        with pytest.raises(ConfigurationError, match="overflows"):
            mirror_step(ball, [1e308, 1e308], [0.0, 0.0], 1.0)
        np.testing.assert_allclose(ball.project([1e150, 1e150]), [0.5**1.5, 0.5**1.5])


def test_invalid_set_construction():
    with pytest.raises(ConfigurationError):
        FeasibleSet.l2_ball(0.0, dimension=2)
    with pytest.raises(ConfigurationError):
        FeasibleSet.box([0.0, 0.0], [1.0])
    with pytest.raises(ConfigurationError):
        FeasibleSet.box([1.0], [0.0])


@pytest.mark.parametrize("build", [
    lambda: FeasibleSet.l2_ball(math.nan, dimension=2),
    lambda: FeasibleSet.l2_ball(math.inf, dimension=2),
    lambda: FeasibleSet.box([math.nan, 0.0], [1.0, 1.0]),
    lambda: FeasibleSet.box([0.0, 0.0], [1.0, math.nan]),
    lambda: FeasibleSet.box([-math.inf, 0.0], [1.0, 1.0]),
    lambda: FeasibleSet.box([0.0, 0.0], [1.0, math.inf]),
], ids=["radius-nan", "radius-inf",
        "lower-nan", "upper-nan", "lower-minus-inf", "upper-inf"])
def test_non_finite_set_parameters_rejected(build):
    # NaN passes every <= guard and an infinite set has no diameter; both
    # would reach the projection and the accountant's D unchecked.
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize("build, kind", [
    (lambda: FeasibleSet.box([-1e308, -1e308], [1e308, 1e308]), "box"),
    (lambda: FeasibleSet.l2_ball(1e308, dimension=2), "l2_ball"),
], ids=["box-1e308", "ball-huge-radius"])
def test_set_whose_diameter_or_norm_overflows_rejected(build, kind):
    # Every bound is finite, but the box's diameter and 2*radius overflow:
    # refused when built, naming the set, with no RuntimeWarning, where the
    # set once built and its diameter() and max_norm() warned and returned
    # inf. Each bound is past 2^200, the range that keeps every diameter and
    # norm finite (errors.py, "set").
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigurationError, match=rf"{kind}: .*magnitude in \[2\^-200"):
            build()


@pytest.mark.parametrize("fields", [
    dict(kind="ball", dimension=2, radius=1.0),
    dict(kind="l2_ball", dimension=2),
    dict(kind="box", dimension=2, lower=[0.0, 0.0]),
    dict(kind="l2_ball", dimension=0, radius=1.0),
], ids=["unknown-kind", "ball-without-radius", "box-without-upper", "dimension-0"])
def test_direct_construction_checked(fields):
    # A "ball" set would be taken for a box with no bounds: project_rows
    # returned its input unprojected, and contains raised TypeError.
    with pytest.raises(ConfigurationError):
        FeasibleSet(**fields)


@pytest.mark.parametrize("fields, message", [
    (dict(kind="box", dimension=2, radius=5.0, lower=[0, 0], upper=[1, 1]), "box: radius"),
    (dict(kind="box", dimension=2, radius=0.0, lower=[0, 0], upper=[1, 1]), "box: radius"),
    (dict(kind="l2_ball", dimension=2, radius=1.0, lower="junk"), "l2_ball: lower"),
    (dict(kind="l2_ball", dimension=2, radius=1.0, lower=[0, 0], upper=[1, 1]),
     "l2_ball: lower/upper"),
], ids=["box-radius", "box-zero-radius", "ball-junk-lower", "ball-corners"])
def test_field_the_kind_does_not_read_refused(fields, message):
    # A built set holds no unchecked field.
    with pytest.raises(ConfigurationError, match=f"^{message} not read$"):
        FeasibleSet(**fields)


def test_set_holds_read_only_copies():
    lower = np.array([-1.0, -1.0])
    box = FeasibleSet.box(lower, [1.0, 1.0])
    lower[0] = 5.0
    assert box.lower.tolist() == [-1.0, -1.0]
    with pytest.raises(ValueError):
        box.upper[0] = -5.0


def test_direct_construction_projects():
    ball = FeasibleSet("l2_ball", 2, radius=1.0)
    np.testing.assert_array_equal(ball.project_rows(np.array([3.0, 0.0])), [1.0, 0.0])
    box = FeasibleSet("box", 2, lower=[0, 0], upper=[1, 1])
    np.testing.assert_array_equal(box.project_rows(np.array([3.0, -1.0])), [1.0, 0.0])
