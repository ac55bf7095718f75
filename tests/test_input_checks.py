"""One rule for inputs at every public entry point (src/dpmirror/errors.py).

Each case below substitutes one value into one parameter of one entry
point. A count (an int or numpy integer within its bounds) refuses a bool,
a float, a string, NaN and +-inf; a real (an int, float or numpy real that
is finite and in its range) refuses a bool, a string, NaN and +-inf. Every
refusal is a ConfigurationError. An np.int64 count and an np.float64 real
are still accepted. The float counts include the ones that once returned a
guarantee (end_to_end's n = 16.5 and d = 2.5, from_target's n = 400.5) or
ended in a TypeError (simulate_tau's n = 16.0, draw_dataset's n = 2.5,
baseline_minimizer's 1e5); RunConfig once took n = True and eta = "1" ended
in a TypeError.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dpmirror import errors
from dpmirror.errors import ConfigurationError, as_real, check_count
from dpmirror.geometry import FeasibleSet, mirror_step
from dpmirror.harness import run_tau_sim
from dpmirror.losses import LossOracle, PopulationSpec, draw_arrays, lipschitz_certificate
from dpmirror.optimizer import (RunConfig, baseline_minimizer, estimate_regret, estimate_risk,
                                private_sgd, private_sgd_batch)
from dpmirror.privacy import audit_single_step, calibrate_sigma, end_to_end, from_target
from dpmirror.sampler import sample_index, simulate_tau

BALL = FeasibleSet.l2_ball(0.5, dimension=2)
HINGE = LossOracle.hinge(1.0)
POPULATION = PopulationSpec("uniform_ball", 2, 1.0)


def rng():
    return np.random.default_rng(0)


def run_config(**changes):
    return RunConfig(**{**dict(n=16, eta=0.1, sigma=1.0, feasible_set=BALL, oracle=HINGE,
                               w1=np.zeros(2)), **changes})


def end_to_end_with(**changes):
    return end_to_end(**{**dict(n=400, epsilon=0.02, delta=1e-6, delta_prime=1e-6,
                                L=1.0, D=1.0, d=2), **changes})


def audit_with(**changes):
    # 2000 trials a cell over 3 cells: the smallest audit there is.
    return audit_single_step(**{**dict(sigma=6.0, L=1.0, epsilon_tilde=0.5, delta=1e-6,
                                       trials=6000, grid_cells=3, seed=0), **changes})


def one_run(seed):
    features, labels = np.full((1, 16, 2), 0.1), np.ones((1, 16))
    return private_sgd_batch(run_config(), [seed], features, labels)


# (kind, good value, float count or None for float(good), entry point of one value)
COUNT, REAL = "count", "real"
CASES = {
    "FeasibleSet-dimension": (COUNT, 2, None,
                              lambda v: FeasibleSet("box", v, lower=[0.0, 0.0], upper=[1.0, 1.0])),
    "l2_ball-dimension": (COUNT, 2, None, lambda v: FeasibleSet.l2_ball(1.0, dimension=v)),
    "l2_ball-radius": (REAL, 1.0, None, lambda v: FeasibleSet.l2_ball(v, dimension=2)),
    "mirror_step-eta": (REAL, 0.1, None,
                        lambda v: mirror_step(BALL, np.zeros(2), np.ones(2), v)),
    "lipschitz_certificate-feature_bound": (REAL, 1.0, None,
                                            lambda v: lipschitz_certificate("hinge", v)),
    "LossOracle-lipschitz_L": (REAL, 1.0, None, lambda v: LossOracle("hinge", v)),
    "PopulationSpec-dimension": (COUNT, 2, 2.5,
                                 lambda v: PopulationSpec("uniform_ball", v, 1.0)),
    "PopulationSpec-feature_bound": (REAL, 1.0, None,
                                     lambda v: PopulationSpec("uniform_ball", 2, v)),
    "PopulationSpec-noise_rate": (REAL, 0.1, None, lambda v: PopulationSpec(
        "linear_margin", 2, 1.0, w_true=[1.0, 0.0], noise_rate=v)),
    "draw_arrays-n": (COUNT, 16, 2.5, lambda v: draw_arrays(POPULATION, v, rng())),
    "RunConfig-n": (COUNT, 16, None, lambda v: run_config(n=v)),
    "RunConfig-eta": (REAL, 0.1, None, lambda v: run_config(eta=v)),
    "RunConfig-sigma": (REAL, 1.0, None, lambda v: run_config(sigma=v)),
    "private_sgd_batch-seed": (COUNT, 3, None, one_run),
    "baseline_minimizer-budget_steps": (COUNT, 10_000, 1e5, lambda v: baseline_minimizer(
        POPULATION, HINGE, BALL, v)),
    "estimate_risk-eval_samples": (COUNT, 10, None, lambda v: estimate_risk(
        np.zeros(2), POPULATION, HINGE, v, rng())),
    "calibrate_sigma-L": (REAL, 1.0, None, lambda v: calibrate_sigma(v, 1e-6, 0.5)),
    "calibrate_sigma-delta": (REAL, 1e-6, None, lambda v: calibrate_sigma(1.0, v, 0.5)),
    "calibrate_sigma-epsilon_tilde": (REAL, 0.5, None,
                                      lambda v: calibrate_sigma(1.0, 1e-6, v)),
    "end_to_end-n": (COUNT, 400, 16.5, lambda v: end_to_end_with(n=v)),
    "end_to_end-epsilon": (REAL, 0.02, None, lambda v: end_to_end_with(epsilon=v)),
    "end_to_end-delta": (REAL, 1e-6, None, lambda v: end_to_end_with(delta=v)),
    "end_to_end-delta_prime": (REAL, 1e-6, None, lambda v: end_to_end_with(delta_prime=v)),
    "end_to_end-L": (REAL, 1.0, None, lambda v: end_to_end_with(L=v)),
    "end_to_end-D": (REAL, 1.0, None, lambda v: end_to_end_with(D=v)),
    "end_to_end-d": (COUNT, 2, 2.5, lambda v: end_to_end_with(d=v)),
    "from_target-eps_bar": (REAL, 0.1, None, lambda v: from_target(v, 3e-6, 400)),
    "from_target-delta_bar": (REAL, 3e-6, None, lambda v: from_target(0.1, v, 400)),
    "from_target-n": (COUNT, 400, 400.5, lambda v: from_target(0.1, 3e-6, v)),
    "audit-sigma": (REAL, 6.0, None, lambda v: audit_with(sigma=v)),
    "audit-L": (REAL, 1.0, None, lambda v: audit_with(L=v)),
    "audit-epsilon_tilde": (REAL, 0.5, None, lambda v: audit_with(epsilon_tilde=v)),
    "audit-delta": (REAL, 1e-6, None, lambda v: audit_with(delta=v)),
    "audit-trials": (COUNT, 6000, None, lambda v: audit_with(trials=v)),
    "audit-grid_cells": (COUNT, 3, None, lambda v: audit_with(grid_cells=v)),
    "audit-seed": (COUNT, 0, None, lambda v: audit_with(seed=v)),
    "sample_index-n": (COUNT, 16, None, lambda v: sample_index(rng(), v)),
    "simulate_tau-n": (COUNT, 16, None, lambda v: simulate_tau(v, 10, 1)),
    "simulate_tau-trials": (COUNT, 10, None, lambda v: simulate_tau(16, v, 1)),
    "simulate_tau-seed": (COUNT, 1, None, lambda v: simulate_tau(16, 10, v)),
    "run_tau_sim-n": (COUNT, 16, None, lambda v: run_tau_sim([v], 1000, 1, "out")),
    "run_tau_sim-trials": (COUNT, 1000, None, lambda v: run_tau_sim([16], v, 1, "out")),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_entry_point_refuses_bools_floats_strings_and_non_finite(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    kind, good, float_count, call = case
    if kind == COUNT:
        refused = [True, float(good) if float_count is None else float_count, str(good)]
        call(np.int64(good))
    else:
        refused = [True, str(good)]
        call(np.float64(good))
    for value in refused + [math.nan, math.inf, -math.inf]:
        with pytest.raises(ConfigurationError):
            call(value)


@pytest.mark.parametrize("build, field", [
    (lambda v: FeasibleSet.box(v, [5.0, 5.0]), "lower"),
    (lambda v: run_config(w1=v, feasible_set=FeasibleSet.l2_ball(5.0, dimension=2)), "w1"),
    (lambda v: PopulationSpec("linear_margin", 2, 1.0, w_true=v), "w_true"),
], ids=["box-lower", "RunConfig-w1", "PopulationSpec-w_true"])
def test_vector_is_a_checked_read_only_copy(build, field):
    vector = np.array([1.0, 0.0])
    built = build(vector)
    vector[0] = math.nan   # a later write by the caller does not reach it
    held = getattr(built, field)
    assert held.tolist() == [1.0, 0.0] and not held.flags.writeable
    for bad in ([math.nan, 0.0], [0.0, -math.inf], ["1", "0"], [True, False], [1.0], None):
        with pytest.raises(ConfigurationError):
            build(bad)


@pytest.mark.parametrize("call", [
    lambda v: mirror_step(BALL, v, np.zeros(2), 0.1),
    lambda v: mirror_step(BALL, np.zeros(2), v, 0.1),
    BALL.project,
    BALL.contains,
], ids=["mirror_step-w", "mirror_step-g", "project", "contains"])
def test_point_checked(call):
    call(np.zeros(2))
    for bad in ([math.nan, 0.0], [0.0, math.inf], ["1", "0"], [0.0, 0.0, 0.0]):
        with pytest.raises(ConfigurationError):
            call(bad)


@pytest.mark.parametrize("call, name", [
    (lambda: end_to_end_with(n=10**400), "end_to_end: n"),
    (lambda: end_to_end_with(d=2**70), "d"),
    (lambda: from_target(0.1, 3e-6, 10**400), "from_target: n"),
    (lambda: FeasibleSet.l2_ball(1.0, dimension=2**70), "FeasibleSet: dimension"),
    (lambda: PopulationSpec("uniform_ball", 2**70, 1.0), "PopulationSpec: dimension"),
    (lambda: run_config(n=2**70), "RunConfig: n"),
], ids=["end_to_end-n", "end_to_end-d", "from_target-n", "l2_ball-dimension",
        "PopulationSpec-dimension", "RunConfig-n"])
def test_count_past_float_range_refused(call, name):
    # n, d and every dimension are at most 2**53, the largest integer a float
    # holds exactly. Past it the accountant's float(n) overflowed
    # (OverflowError) and numpy refused the array (ValueError).
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an int in \[\d+, {2**53}\]"):
        call()


FEATURES, LABELS = np.full((16, 2), 0.1), np.ones(16)


@pytest.mark.parametrize("value", [FEATURES, FEATURES[:2], (FEATURES,), (FEATURES, LABELS, LABELS),
                                   None, "xy"],
                         ids=["array", "two-row-array", "one", "three", "none", "string"])
@pytest.mark.parametrize("call, name", [
    (lambda v: private_sgd(run_config(), 1, v), "private_sgd: dataset"),
    (lambda v: estimate_regret(one_run(0), v, np.zeros(2), run_config()), "estimate_regret: rows"),
], ids=["private_sgd", "estimate_regret"])
def test_dataset_must_be_a_pair(call, name, value):
    # A dataset that is not a (features, labels) pair once ended in a
    # TypeError (private_sgd_batch's argument count) or a ValueError (not
    # enough or too many values to unpack); an array unpacked along its rows.
    with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be a (features, "
                                                           "labels) pair, got ")):
        call(value)


def test_seed_takes_any_non_negative_int():
    # Seeds are the one count with no upper bound.
    big = 2**70
    assert simulate_tau(16, 10, big).trials == 10
    assert audit_with(seed=big).edges.size == 4
    assert one_run(big).tau.shape == (1,)


def test_int_too_long_to_print_refused():
    # Python refuses to format an int of more than 4300 digits, so the
    # refusal's own message once raised ValueError.
    for check in (lambda v: check_count(v, "n"), lambda v: as_real(v, "eta")):
        with pytest.raises(ConfigurationError, match="an int of 16610 bits"):
            check(10**5000)


def range_lines():
    """errors.py's range inequalities, its docstring's 'name: expression' lines."""
    return dict(re.findall(r"^    (\w+): (.+)$", errors.__doc__, re.MULTILINE))


def holds(line, K, S, RHO=Fraction(2**6)):
    """A range inequality in exact rational arithmetic at exponent K, with S
    for sqrt(d) and RHO for the rounding factor."""
    names = dict(K=K, X=Fraction(2)**K, S=Fraction(S), RHO=Fraction(RHO),
                 OVER=Fraction(2)**1024, NORMAL=Fraction(1, 2**1022))
    return eval(line, {"__builtins__": {}}, names)


def test_range_inequalities_hold_exactly():
    # Each line of errors.py's docstring, at K = 200 and d = 2^53, with its
    # S = 2^27 and with isqrt(d) + 1, both at least sqrt(d).
    d, lines = 2**53, range_lines()
    assert set(lines) == {"reciprocal", "set", "squares", "curvature", "step", "sigma", "eta",
                          "risk_bound", "epsilon", "audit"}
    assert errors.RANGE_EXPONENT == 200
    for S in (2**27, math.isqrt(d) + 1):
        assert S * S >= d
        for name, line in lines.items():
            assert holds(line, errors.RANGE_EXPONENT, S) is True, name
    # RHO = 2^6 bounds 2^55 roundings either way: (1 + u)^k <= e^(k*u) and
    # (1 - u)^k >= e^(-k*u/(1 - u)), with k*u = 4 and 6*ln(2) > 4.0001.
    assert 6 * math.log(2) > 4.0001


def test_step_bound_first_overflows_at_241():
    # The step line is the binding one: its exact bound
    # (2*(2*(sqrt(d) + 1)*X + X*(X + 14*sqrt(d)*X)))^2, taken with RHO = 2,
    # is below 2^1024 at K = 240 (S = isqrt(d) + 1 >= sqrt(d)) and reaches it
    # at K = 241 (S = isqrt(d) <= sqrt(d)), at d = 2^53.
    d, step = 2**53, range_lines()["step"]
    assert holds(step, 240, math.isqrt(d) + 1, RHO=2) is True
    assert holds(step, 241, math.isqrt(d), RHO=2) is False
    assert holds(step, 241, math.isqrt(d), RHO=1) is False
