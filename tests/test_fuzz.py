"""Property tests of the input checkers (src/dpmirror/errors.py), of the
constructors that use them (RunConfig, FeasibleSet, LossOracle and
PopulationSpec), of the numeric inputs of private_sgd_batch,
population_risk, mirror_step, simulate_tau, draw_dataset,
estimate_regret, lipschitz_certificate and baseline_minimizer, of the
accountant's calibrate_sigma, end_to_end, from_target and
audit_single_step, and of every CLI command.

Every input is drawn from bools, Python and numpy scalars, +-0.0,
subnormals, +-inf, NaN, 1e308, ints past 2**63, short strings and None,
and from both sides of each end of the range of a real parameter
(errors.py): +-2^-200 and +-2^200, and the next float outside each.
Each call must either be accepted with its rule holding or be refused
with ConfigurationError (or, by the accountant, RegimeError): any other
exception, and any warning, fails the test. Where the rule is a plain statement about the value, the test also
checks that the value is accepted exactly when the rule holds; the
statement is written with the numbers ABCs, not with the checkers' own
isinstance tests. A function's result must be finite. Nothing here does
work in proportion to a value, so a huge accepted count costs nothing;
the counts that size a function's work (simulate_tau's n and trials,
draw_dataset's n, audit_single_step's trials, baseline_minimizer's
budget_steps) fold an accepted count to at most 40, or 7000 trials, or
10 100 steps. Data arrays get one or two entries from the classes among
good ones. Runs are derandomized and keep no example database, so every
run tries the same inputs.

The CLI tests give each command's numeric flags the same classes written
as text, through cli.main. A call must exit 2 or 3 (argparse's own
refusal counts as 2), or exit as its printed verdict says with every
printed number finite; a traceback or a warning fails the test. Flags that
size the work (SIZING_FLAGS) get only small accepted values: a huge
accepted one would never finish. Each of them also gets every class
value outside its accepted range, which must exit 2 before any work.
"""

import contextlib
import functools
import io
import json
import math
import numbers
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmirror import cli, harness, privacy, sampler
from dpmirror.errors import (ConfigurationError, RegimeError, as_real, check_count,
                             check_parameter_vector, check_probability, check_real,
                             check_vector)
from dpmirror.geometry import FeasibleSet, mirror_step
from dpmirror.losses import (LossOracle, PopulationSpec, draw_dataset, lipschitz_certificate,
                             population_risk)
from dpmirror.optimizer import RunConfig, baseline_minimizer, estimate_regret, private_sgd_batch
from dpmirror.privacy import audit_single_step, calibrate_sigma, end_to_end, from_target
from dpmirror.sampler import simulate_tau

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# The ends of the range of a real parameter, and the next float outside each.
TINY, HUGE = 2.0**-200, 2.0**200
EDGES = [TINY, math.nextafter(TINY, 0.0), HUGE, math.nextafter(HUGE, math.inf)]
EDGES += [-edge for edge in EDGES]
SCALARS = st.one_of(
    st.booleans(),
    st.integers(-3, 40),
    st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63)),
    st.floats(),    # NaN, +-inf, +-0.0, subnormals and 1e308 among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
                     math.nan, 2**63, 2**64 + 1]),
    st.sampled_from(EDGES),
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


def in_range(value):
    """Whether value is a real number that is 0 or has magnitude in [2^-200, 2^200]."""
    return is_real(value) and (value == 0 or TINY <= abs(float(value)) <= HUGE)


def parameter(value, zero=False):
    """Whether value is a real parameter: in range, and positive, or 0 with zero."""
    return in_range(value) and (value > 0 or zero and value == 0)


def normal(value):
    """Whether value is a positive float that is normal and finite."""
    return type(value) is float and sys.float_info.min <= value < math.inf


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
    assert (positive is not REFUSED) == parameter(value)
    if parameter(value):
        assert type(positive) is float and positive == float(value)
    assert (outcome(check_real, value, "real", zero=True) is not REFUSED) == parameter(value, True)
    probability = outcome(check_probability, value, "delta")
    assert (probability is not REFUSED) == (parameter(value) and value < 1)


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
@given(VECTORS, st.integers(1, 3))
def test_check_parameter_vector(values, dimension):
    result = outcome(check_parameter_vector, values, dimension, "vector")
    rule = len(values) == dimension and all(map(in_range, values))
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
    # In range, every step's offset squares to a finite float (errors.py,
    # "step"), so no other bound applies.
    scalars_ok = (is_count(n) and 1 <= n <= 2**53 and parameter(eta)
                  and parameter(sigma, zero=True))
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
    # Each kind with its own fields only: a field it does not read is refused.
    own = dict(radius=radius) if kind == "l2_ball" else dict(lower=first, upper=second)
    fs = outcome(FeasibleSet, kind, dimension, **own)
    if fs is REFUSED:
        return
    assert kind in ("l2_ball", "box") and type(fs.dimension) is int and fs.dimension >= 1
    if kind == "l2_ball":
        assert type(fs.radius) is float and parameter(fs.radius)
        assert fs.lower is None and fs.upper is None
    else:
        assert held_vector(fs.lower, fs.dimension) and held_vector(fs.upper, fs.dimension)
        assert fs.radius is None
        assert np.all(fs.lower <= fs.upper) and all(map(in_range, first + second))
    assert math.isfinite(fs.diameter()) and math.isfinite(fs.max_norm())


@FUZZ
@given(SCALARS, st.integers(1, 3))
def test_l2_ball(radius, dimension):
    fs = outcome(FeasibleSet.l2_ball, radius, dimension=dimension)
    assert (fs is not REFUSED) == parameter(radius)
    if fs is not REFUSED:
        assert fs.radius == float(radius) and fs.dimension == dimension


@FUZZ
@given(st.sampled_from(["hinge", "absolute", "squared", "Hinge"]), SCALARS)
def test_loss_oracle(kind, lipschitz_L):
    oracle = outcome(LossOracle, kind, lipschitz_L)
    rule = kind != "Hinge" and parameter(lipschitz_L)
    assert (oracle is not REFUSED) == rule
    if rule:
        assert type(oracle.lipschitz_L) is float and oracle.lipschitz_L == float(lipschitz_L)
    for build in (LossOracle.hinge, LossOracle.absolute):
        assert (outcome(build, lipschitz_L) is not REFUSED) == parameter(lipschitz_L)


@FUZZ
@given(st.sampled_from(["linear_margin", "uniform_ball"]), SCALARS, SCALARS, SCALARS,
       st.one_of(st.just(AXIS), VECTORS))
def test_population_spec(generator, dimension, feature_bound, noise_rate, w_true):
    # Each generator with its own fields only: uniform_ball reads no w_true,
    # and no noise rate but 0.
    own = dict(w_true=w_true) if generator == "linear_margin" else {}
    spec = outcome(PopulationSpec, generator, dimension, feature_bound, noise_rate=noise_rate,
                   **own)
    scalars_ok = (is_count(dimension) and 1 <= dimension <= 2**53 and parameter(feature_bound)
                  and is_real(noise_rate) and 0 <= noise_rate <= 1
                  and (generator == "linear_margin" or noise_rate == 0))
    if generator == "uniform_ball" or (w_true is AXIS and dimension == 2):
        assert (spec is not REFUSED) == scalars_ok
    if spec is not REFUSED:
        assert scalars_ok and type(spec.dimension) is int
        assert type(spec.feature_bound) is float and type(spec.noise_rate) is float
        if generator == "linear_margin":
            assert held_vector(spec.w_true, spec.dimension) and all(map(in_range, w_true))


def sized(high=40):
    """SCALARS for a count that sizes the work: an accepted count above high
    is folded to at most high, so that no call runs long."""
    return SCALARS.map(lambda v: v % (high + 1) if is_count(v) and high < v <= 2**53 else v)


def fuzzed(data, shape, good):
    """A nested list of the given shape whose entries are good, bar one or
    two drawn from SCALARS."""
    entries = [good] * math.prod(shape)
    for index in data.draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, max_size=2)):
        entries[index] = data.draw(SCALARS)
    return np.array(entries, dtype=object).reshape(shape).tolist()


def finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def real_entries(nested):
    """Whether every entry of a nested list is a finite real (never a bool)."""
    return all(is_real(v) and math.isfinite(v) for v in np.array(nested, dtype=object).ravel())


LOSSES = st.sampled_from(["hinge", "absolute", "squared"])


def oracle_for(kind, feasible_set):
    if kind == "squared":
        return LossOracle.squared(1.0, feasible_set)
    return getattr(LossOracle, kind)(1.0)


@FUZZ
@given(LOSSES, st.lists(SCALARS, min_size=1, max_size=2), st.booleans(), st.data())
def test_private_sgd_batch(kind, seeds, fuzz_labels, data):
    n, d, rows = 4, 2, len(seeds)
    ball = FeasibleSet.l2_ball(0.5, dimension=d)
    config = RunConfig(n=n, eta=0.1, sigma=0.5, feasible_set=ball,
                       oracle=oracle_for(kind, ball), w1=ORIGIN)
    features = [[[0.3, -0.2]] * n] * rows
    labels = [[1.0] * n] * rows
    if fuzz_labels:
        labels = fuzzed(data, (rows, n), 0.5)
    else:
        features = fuzzed(data, (rows, n, d), 0.25)
    batch = outcome(private_sgd_batch, config, seeds, features, labels)
    if batch is REFUSED:
        return
    assert all(is_count(seed) and seed >= 0 for seed in seeds)
    assert real_entries(features) and real_entries(labels)
    assert finite(batch.output, batch.fresh_margins)


@FUZZ
@given(st.sampled_from(["linear_margin", "uniform_ball"]), LOSSES,
       st.lists(VECTORS, min_size=1, max_size=2), st.booleans())
def test_population_risk(generator, kind, points, stacked):
    spec = PopulationSpec(generator, 2, 1.0, w_true=AXIS if generator == "linear_margin" else None)
    oracle = oracle_for(kind, FeasibleSet.l2_ball(0.5, dimension=2))
    result = outcome(population_risk, spec, oracle, points if stacked else points[0])
    if result is REFUSED:
        return
    used = points if stacked else points[:1]
    assert all(len(point) == 2 and real_entries(point) for point in used)
    assert finite(*result)


@FUZZ
@given(st.sampled_from(["l2_ball", "box"]), st.one_of(st.just(AXIS), VECTORS),
       st.one_of(st.just(AXIS), VECTORS), SCALARS)
def test_mirror_step(kind, w, g, eta):
    fs = (FeasibleSet.l2_ball(0.5, dimension=2) if kind == "l2_ball"
          else FeasibleSet.box([-0.5, -0.5], [0.5, 0.5]))
    result = outcome(mirror_step, fs, w, g, eta)
    if w is AXIS and g is AXIS:
        assert (result is not REFUSED) == parameter(eta)
    if result is not REFUSED:
        assert parameter(eta) and finite(result) and fs.contains(result)


@FUZZ
@given(sized(), sized(), SCALARS)
def test_simulate_tau(n, trials, seed):
    stats = outcome(simulate_tau, n, trials, seed)
    rule = (is_count(n) and 1 <= n <= 2**53 and is_count(trials) and 1 <= trials <= 2**32
            and is_count(seed) and seed >= 0)
    assert (stats is not REFUSED) == rule
    if rule:
        assert stats.tau_samples.shape == (trials,) and finite_numbers(stats.summary())


@FUZZ
@given(sized(), st.sampled_from(["linear_margin", "uniform_ball"]))
def test_draw_dataset(n, generator):
    spec = PopulationSpec(generator, 2, 1.0, w_true=AXIS if generator == "linear_margin" else None)
    dataset = outcome(draw_dataset, spec, n, np.random.default_rng(0))
    assert (dataset is not REFUSED) == (is_count(n) and 1 <= n <= 2**53)
    if dataset is not REFUSED:
        features, labels = dataset
        assert features.shape == (n, 2) and labels.shape == (n,) and finite(features, labels)
        assert (np.einsum("ij,ij->i", features, features) <= 1.0 + 1e-12).all()


@functools.cache
def regret_case(kind):
    """(config, batch) of one run on eight rows (0.25, 0.25) labelled 0.5."""
    n, d = 8, 2
    ball = FeasibleSet.l2_ball(0.5, dimension=d)
    config = RunConfig(n=n, eta=0.1, sigma=0.5, feasible_set=ball,
                       oracle=oracle_for(kind, ball), w1=ORIGIN)
    return config, private_sgd_batch(config, [3], np.full((1, n, d), 0.25), np.full((1, n), 0.5))


@FUZZ
@given(LOSSES, st.sampled_from(["features", "labels", "comparator"]), st.data())
def test_estimate_regret(kind, fuzz, data):
    config, batch = regret_case(kind)
    m, d = batch.fresh_indices.shape[1], 2
    features, labels, comparator = [[[0.25] * d] * m], [[0.5] * m], ORIGIN
    if fuzz == "features":
        features = fuzzed(data, (1, m, d), 0.25)
    elif fuzz == "labels":
        labels = fuzzed(data, (1, m), 0.5)
    else:
        comparator = data.draw(VECTORS)
    regret = outcome(estimate_regret, batch, (features, labels), comparator, config)
    if regret is not REFUSED:
        assert real_entries(features) and real_entries(labels) and finite(regret)


SETS = {"l2_ball": FeasibleSet.l2_ball(0.5, dimension=2),
        "box": FeasibleSet.box([-0.5, -0.5], [0.5, 0.5]), None: None}


@FUZZ
@given(st.sampled_from(["hinge", "absolute", "squared", "Hinge"]), SCALARS,
       st.sampled_from(sorted(SETS, key=str)))
def test_lipschitz_certificate(kind, feature_bound, set_kind):
    fs = SETS[set_kind]
    L = outcome(lipschitz_certificate, kind, feature_bound, fs)
    if kind in ("hinge", "absolute", "Hinge"):
        assert (L is not REFUSED) == (kind != "Hinge" and parameter(feature_bound))
    if L is REFUSED:
        return
    assert parameter(feature_bound) and (kind != "squared" or fs is not None)
    assert type(L) is float and parameter(L)
    # L is the bound check_rows applies, at a row of norm feature_bound
    # (sqrt of a normal square is exact) and label size 1.
    row = np.array([[float(feature_bound), 0.0]])
    for label in (1.0, -1.0):
        assert LossOracle(kind, L).max_subgradient_norm(row, np.array([label]), fs) == L


BUDGET_STEPS = SCALARS.map(lambda v: 10_000 + v % 101 if is_count(v) and 10_100 < v else v)


# Each example can run the reference minimizer, so there are half as many.
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(LOSSES, st.sampled_from(["linear_margin", "uniform_ball"]),
       st.sampled_from(["l2_ball", "box"]), st.one_of(st.just(1.0), SCALARS),
       st.one_of(st.just(10_000), BUDGET_STEPS))
def test_baseline_minimizer(kind, generator, set_kind, feature_bound, budget_steps):
    fs = SETS[set_kind]
    population = outcome(PopulationSpec, generator, 2, feature_bound,
                         w_true=AXIS if generator == "linear_margin" else None)
    L = outcome(lipschitz_certificate, kind, feature_bound, fs)
    if population is REFUSED or L is REFUSED:
        return
    result = outcome(baseline_minimizer, population, LossOracle(kind, L), fs, budget_steps)
    if result is REFUSED:
        return
    assert is_count(budget_steps) and 10_000 <= budget_steps <= 2**53
    assert type(result.budget_steps) is int and result.budget_steps == budget_steps
    assert result.w.shape == (2,) and finite(result.w) and fs.contains(result.w)
    assert type(result.error_bound) is float and 0 <= result.error_bound < math.inf


def accounted(call, **kwargs):
    """call(**kwargs), or REFUSED on a ConfigurationError or RegimeError; a
    warning raises."""
    try:
        return outcome(call, **kwargs)
    except RegimeError:
        return REFUSED


def fuzz_keywords(data, good, sizes=None):
    """good with one or two of its keywords drawn from SCALARS (from sizes[key]
    instead for a keyword that sizes the work)."""
    sizes = sizes or {}
    chosen = data.draw(st.lists(st.sampled_from(sorted(good)), min_size=1, max_size=2,
                                unique=True))
    return {**good, **{key: data.draw(sizes.get(key, SCALARS), label=key) for key in chosen}}


def in_unit_interval(value):
    return is_real(value) and 0 < value < 1


@FUZZ
@given(st.data())
def test_calibrate_sigma(data):
    args = fuzz_keywords(data, {"L": 1.0, "delta": 1e-6, "epsilon_tilde": 0.5})
    sigma = accounted(calibrate_sigma, **args)
    if sigma is not REFUSED:
        assert parameter(args["L"]) and parameter(args["epsilon_tilde"])
        assert in_unit_interval(args["delta"]) and in_range(args["delta"])
        assert normal(sigma)


END_TO_END = {"n": 400, "epsilon": 0.02, "delta": 1e-6, "delta_prime": 1e-6,
              "L": 1.0, "D": 1.0, "d": 2}


def plan_numbers(plan):
    return [plan.sigma, plan.eta, plan.risk_bound, plan.report.epsilon,
            plan.report.delta_total]


@FUZZ
@given(st.data())
def test_end_to_end(data):
    args = fuzz_keywords(data, END_TO_END)
    plan = accounted(end_to_end, **args)
    if plan is not REFUSED:
        assert is_count(args["n"]) and 16 <= args["n"] <= 2**53
        assert is_count(args["d"]) and 1 <= args["d"] <= 2**53
        assert all(map(parameter, (args["epsilon"], args["L"], args["D"])))
        for delta in (args["delta"], args["delta_prime"]):
            assert in_unit_interval(delta) and in_range(delta)
        assert all(map(normal, plan_numbers(plan)))
        assert plan.report.delta_total < 1


@FUZZ
@given(st.data())
def test_from_target(data):
    # An accepted split fed to end_to_end gives a report within the target,
    # or end_to_end refuses it as it refuses any other input.
    args = fuzz_keywords(data, {"eps_bar": 0.5, "delta_bar": 1e-4, "n": 400})
    budget = accounted(from_target, **args)
    if budget is REFUSED:
        return
    assert parameter(args["eps_bar"]) and parameter(args["delta_bar"])
    assert is_count(args["n"]) and 16 <= args["n"] <= 2**53
    assert normal(budget.epsilon)
    assert in_unit_interval(budget.delta) and in_range(budget.delta)
    assert budget.delta_prime == budget.delta
    plan = accounted(end_to_end, **{**END_TO_END, "n": args["n"], "epsilon": budget.epsilon,
                                    "delta": budget.delta, "delta_prime": budget.delta_prime})
    if plan is not REFUSED:
        assert plan.report.epsilon <= args["eps_bar"] * (1 + 1e-12)
        assert plan.report.delta_total <= args["delta_bar"] * (1 + 1e-12)


AUDIT = {"sigma": 6.0, "L": 1.0, "epsilon_tilde": 0.5, "delta": 1e-6, "trials": 6000,
         "grid_cells": 3, "seed": 7}
AUDIT_TRIALS = SCALARS.map(lambda v: 6000 + v % 1000 if is_count(v) and 7000 < v else v)


@FUZZ
@given(st.data())
def test_audit_single_step(data):
    args = fuzz_keywords(data, AUDIT, {"trials": AUDIT_TRIALS})
    result = accounted(audit_single_step, **args)
    if result is REFUSED:
        return
    assert all(map(parameter, (args["sigma"], args["L"], args["epsilon_tilde"])))
    assert in_unit_interval(args["delta"]) and in_range(args["delta"])
    assert is_count(args["seed"]) and args["seed"] >= 0
    cells = args["grid_cells"]
    assert is_count(cells) and 3 <= cells <= 500 and args["trials"] >= 2000 * cells
    assert finite(result.max_violation, result.max_violation_stderr, result.violation,
                  result.p_s, result.p_sprime, result.edges[1:-1])
    assert result.edges.shape == (cells + 1,) and np.all(np.diff(result.edges) > 0)
    for p in (result.p_s, result.p_sprime):
        assert math.isclose(p.sum(), 1.0, rel_tol=1e-12)


# The classes above as command-line text, one branch each, so every class
# is as likely as any other.
CLASSES = {
    "bool": ["True", "False"],
    "zero": ["0", "0.0", "-0.0"],
    "subnormal": ["5e-324", "-5e-324", "1e-310", "2e-308"],
    "infinite": ["inf", "-inf"],
    "nan": ["nan", "-nan"],
    "huge": ["1e308", "-1e308", repr(sys.float_info.max)],
    "range edge": list(map(repr, EDGES)),
    "past 2**63": [str(2**63), str(2**64 + 1), str(2**70), str(-(2**63) - 1)],
    "not a number": ["", "abc", "0x10", "None", "1e", "--1"],
}
TEXT_BRANCHES = [*map(st.sampled_from, CLASSES.values()), st.floats().map(repr),
                 st.integers(-(2**70), 2**70).map(str), st.text(max_size=3)]
TEXT = st.one_of(TEXT_BRANCHES)
CLI_FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def text_or(*good):
    """A good value, or text from one of the classes, each as likely."""
    return st.one_of(st.sampled_from(good), *TEXT_BRANCHES)


def text_list(size, *good):
    """A comma list of size entries: one fuzzed text repeated, or each entry
    good or fuzzed on its own."""
    return st.one_of(TEXT.map(lambda text: ",".join([text] * size)),
                     st.lists(text_or(*good), min_size=size, max_size=size).map(",".join))


def run_flags(loss, generator, kind, dimension):
    """run's good flags for this choice, and each numeric flag that sizes no
    work as (good values, entries in its comma list)."""
    good = {"loss": loss, "generator": generator, "set": kind, "dimension": str(dimension),
            "n-values": "16", "epsilon-values": "max", "repeats": "2",
            "baseline-steps": "10000", "seed": "7"}
    numeric = {"feature-bound": (("1.0", "0.5"), 1), "epsilon-values": (("max", "0.01"), 2),
               "delta": (("1e-6", "0.1"), 1), "delta-prime": (("1e-6", "0.1"), 1),
               "eval-samples": (("10",), 1), "sigma-override": (("0", "0.3"), 1),
               "seed": (("7",), 1)}
    if generator == "linear_margin":
        numeric.update({"noise-rate": (("0.1", "0"), 1), "w-true": (("1", "0", "-2"), dimension)})
    if kind == "l2_ball":
        numeric["radius"] = (("0.5", "2"), 1)
    else:
        good.update(lower=",".join(["-0.5"] * dimension), upper=",".join(["0.5"] * dimension))
        numeric.update(lower=(("-0.5", "-1"), dimension), upper=(("0.5", "1"), dimension))
    return good, numeric


def calibrate_flags(target_mode, with_plan):
    """calibrate's good flags in one mode, and its numeric flags; --n sizes
    no work here, so it is fuzzed with the rest."""
    mode = ({"eps-bar": ("0.1", "0.5"), "delta-bar": ("3e-6", "1e-4")} if target_mode else
            {"eps": ("0.005", "0.02"), "delta": ("1e-6",), "delta-prime": ("1e-6", "1e-3")})
    if with_plan or not target_mode:
        mode.update({"L": ("1", "2"), "D": ("1", "0.5"), "d": ("2", "10")})
    numeric = {flag: (values, 1) for flag, values in {"n": ("400",), **mode}.items()}
    return {flag: values[0] for flag, (values, _) in numeric.items()}, numeric


def audit_flags(calibrated):
    """audit's good flags, with --sigma unless calibrated, and its numeric flags."""
    numeric = {"L": ("1", "2.5"), "eps-tilde": ("0.5", "2"), "delta": ("1e-6", "0.01"),
               "grid": ("3",), "seed": ("7",), **({} if calibrated else {"sigma": ("6", "0.5")})}
    numeric = {flag: (values, 1) for flag, values in numeric.items()}
    good = {flag: values[0] for flag, (values, _) in numeric.items()}
    return {**good, "trials": "6000"}, numeric


def tau_sim_flags(n, trials):
    """tau-sim's flags at a small --n and --trials; only --seed is fuzzed."""
    return {"n": n, "trials": trials, "seed": "7"}, {"seed": (("7",), 1)}


VERDICT = {"run": lambda printed: 0,
           "tau-sim": lambda printed: 0, "calibrate": lambda printed: 0,
           "audit": lambda printed: 4 if printed["significant"] else 0}


def finite_numbers(value):
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(map(finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


def run_cli(command, flags):
    """(exit code, stdout) of `dpmirror command --flag=text ...`; a warning raises."""
    argv = [command] + [f"--{flag}={text}" for flag, text in flags.items()]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv if command == "calibrate" else [*argv, f"--output-dir={outdir}"])
        except SystemExit as exc:   # argparse refuses a flag's text
            code = exc.code
    return code, out.getvalue()


def cli_outcome(command, flags):
    """Run `dpmirror command --flag=text ...` and check how it ends: exit 2
    or 3, or the exit its printed verdict gives, with every number it
    prints finite."""
    code, out = run_cli(command, flags)
    if code in (2, 3):
        return
    printed = json.loads(out, parse_constant=lambda name: math.nan)
    assert finite_numbers(printed), (argv, printed)
    assert code == VERDICT[command](printed), (argv, code, printed)


def fuzz_some(command, data, flags):
    """cli_outcome of good flags with one or two numeric flags fuzzed."""
    good, numeric = flags
    chosen = data.draw(st.lists(st.sampled_from(sorted(numeric)), min_size=1, max_size=2,
                                unique=True))
    cli_outcome(command, {**good, **{flag: data.draw(text_list(numeric[flag][1],
                                                               *numeric[flag][0]), label=flag)
                                     for flag in chosen}})


@CLI_FUZZ
@given(st.sampled_from(["hinge", "absolute", "squared"]),
       st.sampled_from(["linear_margin", "uniform_ball"]), st.sampled_from(["l2_ball", "box"]),
       st.integers(1, 2), st.data())
def test_run_command(loss, generator, kind, dimension, data):
    fuzz_some("run", data, run_flags(loss, generator, kind, dimension))


@CLI_FUZZ
@given(st.sampled_from(["16", "17,64"]), st.sampled_from(["1000", "2000"]), st.data())
def test_tau_sim_command(n, trials, data):
    fuzz_some("tau-sim", data, tau_sim_flags(n, trials))


@CLI_FUZZ
@given(st.booleans(), st.booleans(), st.data())
def test_calibrate_command(target_mode, with_plan, data):
    fuzz_some("calibrate", data, calibrate_flags(target_mode, with_plan))


@CLI_FUZZ
@given(st.booleans(), st.data())
def test_audit_command(calibrated, data):
    fuzz_some("audit", data, audit_flags(calibrated))


# Random draws can miss a class at a flag, so every class value also
# reaches every numeric flag of each command once, the flag's comma list
# holding that value in every entry.
SWEEPS = {
    "run-hinge-ball": ("run", run_flags("hinge", "linear_margin", "l2_ball", 2)),
    "run-squared-box": ("run", run_flags("squared", "uniform_ball", "box", 2)),
    "tau-sim": ("tau-sim", tau_sim_flags("16", "1000")),
    "calibrate": ("calibrate", calibrate_flags(False, True)),
    "calibrate-target": ("calibrate", calibrate_flags(True, True)),
    "audit": ("audit", audit_flags(False)),
    "audit-calibrated": ("audit", audit_flags(True)),
}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_every_class_reaches_every_numeric_flag(sweep):
    command, (good, numeric) = SWEEPS[sweep]
    for flag, (_, entries) in numeric.items():
        for values in CLASSES.values():
            for text in values:
                cli_outcome(command, {**good, flag: ",".join([text] * entries)})


# Every flag that sizes the work, with the range of counts it accepts, and
# where each command's work starts.
SIZING_FLAGS = {
    ("run", "repeats"): (1, 2**32), ("run", "n-values"): (16, 2**53),
    ("run", "dimension"): (1, 2**53), ("run", "baseline-steps"): (10_000, 2**53),
    ("run", "eval-samples"): (1, 2**53), ("tau-sim", "n"): (1, 2**53),
    ("tau-sim", "trials"): (1000, 2**32), ("audit", "trials"): (6000, 2**53),
    ("audit", "grid"): (3, 500),
}
WORK_STARTS = {"run": (harness, "baseline_minimizer"),
               "tau-sim": (sampler, "draw_stopping_times"), "audit": (privacy, "seeded_streams")}
GOOD_FLAGS = {"run": run_flags("hinge", "linear_margin", "l2_ball", 2)[0],
              "tau-sim": tau_sim_flags("16", "1000")[0], "audit": audit_flags(False)[0]}


def no_work(*args, **kwargs):
    raise AssertionError("a refused count reached the command's work")


@pytest.mark.parametrize("command, flag", SIZING_FLAGS,
                         ids=[f"{command}--{flag}" for command, flag in SIZING_FLAGS])
def test_sizing_flag_refuses_every_count_outside_its_range(command, flag, monkeypatch):
    # Only values the flag must refuse: a count inside its range would
    # allocate, or run for as long as it asks. Every class value is one.
    low, high = SIZING_FLAGS[command, flag]
    monkeypatch.setattr(*WORK_STARTS[command], no_work)
    texts = [text for values in CLASSES.values() for text in values]
    texts += ["-1", "-16", "1.5", "16.0", "1e4", str(low - 1), str(high + 1)]
    for text in texts:
        with contextlib.suppress(ValueError):
            assert not low <= int(text) <= high, text
        assert run_cli(command, {**GOOD_FLAGS[command], flag: text})[0] == 2, (flag, text)
