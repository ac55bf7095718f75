"""Property tests of the input checkers (src/dpmirror/errors.py) and of the
constructors that use them: RunConfig, FeasibleSet, LossOracle and
PopulationSpec.

Every input is drawn from bools, Python and numpy scalars, +-0.0,
subnormals, +-inf, NaN, 1e308, ints past 2**63, short strings and None.
Each call must either be accepted with its rule holding or be refused
with ConfigurationError: any other exception, and any warning, fails the
test. Where the rule is a plain statement about the value, the test also
checks that the value is accepted exactly when the rule holds; the
statement is written with the numbers ABCs, not with the checkers' own
isinstance tests. Nothing here does work in proportion to a value, so a
huge accepted count costs nothing. Runs are derandomized and keep no
example database, so every run tries the same inputs.
"""

import math
import numbers
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmirror.errors import ConfigurationError, as_real, check_count, check_real, check_vector
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import LossOracle, PopulationSpec
from dpmirror.optimizer import RunConfig

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

SCALARS = st.one_of(
    st.booleans(),
    st.integers(-3, 40),
    st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63)),
    st.floats(),    # NaN, +-inf, +-0.0, subnormals and 1e308 among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
                     math.nan, 2**63, 2**64 + 1]),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint64, st.integers(0, 2**64 - 1)),
    st.builds(np.int32, st.integers(-(2**31), 2**31 - 1)),
    st.builds(np.float64, st.floats()),
    st.builds(np.float32, st.floats(width=32)),
    st.sampled_from([np.bool_(True), np.bool_(False)]),
    st.text(max_size=3),
    st.none(),
)
VECTORS = st.lists(SCALARS, max_size=3)
# Good vectors, told apart by identity: [False, False] == [0.0, 0.0].
ORIGIN, AXIS = [0.0, 0.0], [1.0, 0.0]
REFUSED = object()


def outcome(call, *args, **kwargs):
    """call's result, or REFUSED on a ConfigurationError; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except ConfigurationError:
            return REFUSED


def is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def is_count(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


def finite_positive(value):
    return is_real(value) and 0 < value < math.inf


def held_vector(vector, dimension):
    """Whether vector is a finite, read-only float64 vector of shape (dimension,)."""
    return (isinstance(vector, np.ndarray) and vector.dtype == np.float64
            and vector.shape == (dimension,) and not vector.flags.writeable
            and bool(np.isfinite(vector).all()))


@FUZZ
@given(SCALARS, st.sampled_from([0, 1, 16, 10_000]), st.sampled_from([None, 500, 2**32]))
def test_check_count(value, low, high):
    result = outcome(check_count, value, "count", low, high)
    rule = is_count(value) and low <= value and (high is None or value <= high)
    assert (result is not REFUSED) == rule
    if rule:
        assert type(result) is int and result == value


@FUZZ
@given(SCALARS)
def test_check_real_and_as_real(value):
    real = outcome(as_real, value, "real")
    assert (real is not REFUSED) == is_real(value)
    if is_real(value):
        assert type(real) is float and (real == float(value) or math.isnan(real))
    positive = outcome(check_real, value, "real")
    assert (positive is not REFUSED) == finite_positive(value)
    if finite_positive(value):
        assert type(positive) is float and positive == float(value)


@FUZZ
@given(VECTORS, st.integers(1, 3))
def test_check_vector(values, dimension):
    result = outcome(check_vector, values, dimension, "vector")
    rule = len(values) == dimension and all(is_real(v) and math.isfinite(v) for v in values)
    assert (result is not REFUSED) == rule
    if rule:
        assert held_vector(result, dimension)
        assert result.tolist() == [float(v) for v in values]


@FUZZ
@given(SCALARS, SCALARS, SCALARS, st.one_of(st.just(ORIGIN), VECTORS))
def test_run_config(n, eta, sigma, w1):
    ball = FeasibleSet.l2_ball(0.5, dimension=2)
    config = outcome(RunConfig, n=n, eta=eta, sigma=sigma, feasible_set=ball,
                     oracle=LossOracle.hinge(1.0), w1=w1)
    scalars_ok = (is_count(n) and n >= 1 and finite_positive(eta)
                  and is_real(sigma) and 0 <= sigma < math.inf)
    if w1 is ORIGIN:
        assert (config is not REFUSED) == scalars_ok
    if config is not REFUSED:
        assert scalars_ok
        assert type(config.n) is int and config.n == n
        assert type(config.eta) is float and type(config.sigma) is float
        assert held_vector(config.w1, 2) and ball.contains(config.w1)


@FUZZ
@given(st.sampled_from(["l2_ball", "box", "cube"]), st.one_of(st.integers(1, 3), SCALARS),
       SCALARS, VECTORS, VECTORS)
def test_feasible_set(kind, dimension, radius, first, second):
    fs = outcome(FeasibleSet, kind, dimension, radius=radius, center=first,
                 lower=first, upper=second)
    if fs is REFUSED:
        return
    assert kind in ("l2_ball", "box") and type(fs.dimension) is int and fs.dimension >= 1
    if kind == "l2_ball":
        assert type(fs.radius) is float and finite_positive(fs.radius)
        assert held_vector(fs.center, fs.dimension)
    else:
        assert held_vector(fs.lower, fs.dimension) and held_vector(fs.upper, fs.dimension)
        assert np.all(fs.lower <= fs.upper)


@FUZZ
@given(SCALARS, st.integers(1, 3))
def test_l2_ball(radius, dimension):
    fs = outcome(FeasibleSet.l2_ball, radius, dimension=dimension)
    assert (fs is not REFUSED) == finite_positive(radius)
    if fs is not REFUSED:
        assert fs.radius == float(radius) and held_vector(fs.center, dimension)


@FUZZ
@given(st.sampled_from(["hinge", "absolute", "squared", "Hinge"]), SCALARS)
def test_loss_oracle(kind, lipschitz_L):
    oracle = outcome(LossOracle, kind, lipschitz_L)
    rule = kind != "Hinge" and finite_positive(lipschitz_L)
    assert (oracle is not REFUSED) == rule
    if rule:
        assert type(oracle.lipschitz_L) is float and oracle.lipschitz_L == float(lipschitz_L)
    for build in (LossOracle.hinge, LossOracle.absolute):
        assert (outcome(build, lipschitz_L) is not REFUSED) == finite_positive(lipschitz_L)


@FUZZ
@given(st.sampled_from(["linear_margin", "uniform_ball"]), SCALARS, SCALARS, SCALARS,
       st.one_of(st.just(AXIS), VECTORS))
def test_population_spec(generator, dimension, feature_bound, noise_rate, w_true):
    spec = outcome(PopulationSpec, generator, dimension, feature_bound, w_true=w_true,
                   noise_rate=noise_rate)
    scalars_ok = (is_count(dimension) and dimension >= 1 and finite_positive(feature_bound)
                  and is_real(noise_rate) and 0 <= noise_rate <= 1)
    if generator == "uniform_ball" or (w_true is AXIS and dimension == 2):
        assert (spec is not REFUSED) == scalars_ok
    if spec is not REFUSED:
        assert scalars_ok and type(spec.dimension) is int
        assert type(spec.feature_bound) is float and type(spec.noise_rate) is float
        if generator == "linear_margin":
            assert held_vector(spec.w_true, spec.dimension)
