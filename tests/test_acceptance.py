"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The regret and utility criteria read one 200-repeat grid of
`dpmirror run` cells, run once per session.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (closed_form_cell_violations, partial_coupon_sum, plain_subgradient,
                     points_away_from_kinks, project_ball, project_box, row_losses,
                     stepwise_run)

from dpmirror import cli
from dpmirror.geometry import FeasibleSet
from dpmirror.losses import LossOracle
from dpmirror.optimizer import RunConfig, private_sgd
from dpmirror.privacy import (audit_single_step, calibrate_sigma, end_to_end,
                              from_target)
from dpmirror.sampler import simulate_tau

GRID_DIMS = (2, 10)
GRID_NS = (100, 400, 1600)
GRID_REPEATS = 200
MASTER_SEED = 33


def check(criterion, label, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] criterion {criterion} ({label}): {status}  {detail}")
    assert condition, f"criterion {criterion} ({label}) failed: {detail}"


def derived_seed(*context):
    ss = np.random.SeedSequence(entropy=[MASTER_SEED, *context])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def grid_run_keys(d):
    """The `dpmirror run` keys of the acceptance grid at dimension d: hinge
    loss, margin data, the ball of radius 0.5 (D = 1, L = 1) and epsilon =
    1/(2*sqrt(n)). Both d share MASTER_SEED."""
    return {"name": f"grid-d{d}", "loss": "hinge", "generator": "linear_margin",
            "noise_rate": "0.1", "dimension": str(d), "feature_bound": "1.0",
            "set": "l2_ball", "radius": "0.5", "n_values": ",".join(map(str, GRID_NS)),
            "epsilon_values": "max", "delta": "1e-6", "delta_prime": "1e-6",
            "repeats": str(GRID_REPEATS), "seed": str(MASTER_SEED)}


@pytest.fixture(scope="session")
def private_run_grid(tmp_path_factory):
    """summary.json's cells of `dpmirror run` on the acceptance grid, keyed
    by (d, n). A cell's stderr is the runs' standard error plus the
    reference minimizer's error bound and the risk's quadrature bound."""
    output_dir = tmp_path_factory.mktemp("acceptance-grid")
    started = time.time()
    cells = {}
    for d in GRID_DIMS:
        keys = dict(grid_run_keys(d), output_dir=str(output_dir))
        flags = [arg for key, value in keys.items()
                 for arg in ("--" + key.replace("_", "-"), value)]
        assert cli.main(["run", *flags]) == cli.EXIT_OK
        with open(output_dir / keys["name"] / "summary.json") as fh:
            cells.update({(d, cell["n"]): cell for cell in json.load(fh)["cells"]})
    cells["elapsed"] = time.time() - started
    return cells


def test_criterion_1_stopping_time():
    started = time.time()
    ok = True
    details = []
    for n in (16, 64, 256, 1024):
        stats = simulate_tau(n, 10_000, seed=MASTER_SEED)
        frac = stats.frac_exceed_2n
        stderr = math.sqrt(max(frac * (1 - frac), 0.0) / 10_000)
        tail_bound = 2.0 * math.exp(-n / 16.0) + 3.0 * stderr
        exact = partial_coupon_sum(n)
        ok &= frac <= tail_bound
        ok &= abs(stats.mean_tau - exact) <= 0.05 * exact
        details.append(f"n={n}: tail {frac:.4f}<={tail_bound:.4f}, "
                       f"mean {stats.mean_tau:.1f} vs {exact:.1f}")
    elapsed = time.time() - started
    ok &= elapsed < 30.0
    check(1, "stopping time", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_regret_bound(private_run_grid):
    ok = True
    details = []
    for d in GRID_DIMS:
        for n in GRID_NS:
            cell = private_run_grid[(d, n)]
            bound = 2.0 * 1.0 * (1.0 + cell["sigma"] * math.sqrt(d)) * math.sqrt(n)
            ok &= cell["mean_regret"] <= bound
            details.append(f"d={d},n={n}: {cell['mean_regret']:.1f}<={bound:.0f}")
    ok &= private_run_grid["elapsed"] < 300.0
    check(2, "regret bound", ok,
          "; ".join(details) + f"; grid {private_run_grid['elapsed']:.0f}s")


def test_criterion_3_utility_bound(private_run_grid):
    ok = True
    details = []
    fitted_constants = []
    for d in GRID_DIMS:
        for n in GRID_NS:
            cell = private_run_grid[(d, n)]
            scale = 1.0 * (1.0 + cell["sigma"] * math.sqrt(d)) / math.sqrt(n)
            bound = 2.5 * scale
            excess = cell["mean_excess_risk"]
            ok &= excess <= bound + 3.0 * cell["stderr"]
            fitted_constants.append(excess / scale)
            details.append(f"d={d},n={n}: {excess:.3f}<={bound:.2f}")
    ok &= private_run_grid["elapsed"] < 600.0
    fitted = max(fitted_constants)
    check(3, "utility bound", ok,
          "; ".join(details)
          + f"; empirical constant {fitted:.4f} vs theoretical 5/2")


def test_criterion_4_accountant_identities():
    # Independent arithmetic: different operator arrangement throughout.
    ok = True
    for n in (16, 100, 400, 1600, 10_000):
        for delta, delta_prime in ((1e-6, 1e-6), (1e-5, 1e-7), (1e-8, 1e-4)):
            L, D, d = 1.0, 1.0, 10
            eps = 0.5 / n ** 0.5
            plan = end_to_end(n, eps, delta, delta_prime, L, D, d)
            eps_oracle = (2.0 / n ** 0.5) * ((-math.log(delta_prime)) ** 0.5 + 2.0)
            risk_oracle = (5.0 * L * D / n ** 0.5
                           + 20.0 * L * D * (d * -math.log(delta)) ** 0.5 / (eps * n))
            ok &= abs(plan.report.epsilon - eps_oracle) <= 1e-12 * eps_oracle
            ok &= abs(plan.risk_bound - risk_oracle) <= 1e-12 * risk_oracle
    check(4, "accountant formula identities", ok, "1e-12 relative on 15 configs")


def test_criterion_5_target_round_trip():
    rng = np.random.default_rng(MASTER_SEED + 5)
    done = 0
    ok = True
    while done < 1000:
        n = int(rng.integers(16, 20_000))
        delta_bar = float(10.0 ** rng.uniform(-8.0, math.log10(3.0 * math.exp(-4.0))))
        if delta_bar < 6.0 * math.exp(-n / 16.0):
            continue
        eps_cap = 4.0 * math.sqrt(math.log(3.0 / delta_bar) / n)
        eps_bar = float(rng.uniform(0.05, 0.999)) * eps_cap
        budget = from_target(eps_bar, delta_bar, n)
        plan = end_to_end(n, budget.epsilon, budget.delta, budget.delta_prime,
                          L=1.0, D=1.0, d=4)
        ok &= plan.report.epsilon <= eps_bar * (1.0 + 1e-12)
        ok &= plan.report.delta_total <= delta_bar * (1.0 + 1e-12)
        done += 1
    check(5, "target split round trip", ok, "1000 random valid targets")


def test_criterion_6_single_step_audit():
    started = time.time()
    L, eps_tilde, delta = 1.0, 0.5, 1e-6
    calibrated = calibrate_sigma(L, delta, eps_tilde)

    false_alarms = sum(
        audit_single_step(calibrated, L, eps_tilde, delta, 1_000_000,
                          seed=rep).significant
        for rep in range(20))

    deflated = calibrated / 10.0
    predicted, lo, hi = closed_form_cell_violations(deflated, L, eps_tilde,
                                                    delta, 500)
    x_star = (L * L - 2.0 * deflated ** 2 * eps_tilde) / (2.0 * L)
    width = hi[2] - lo[2]
    detections = 0
    at_predicted = 0
    for rep in range(20):
        result = audit_single_step(deflated, L, eps_tilde, delta, 1_000_000,
                                   seed=rep)
        if not result.significant:
            continue
        detections += 1
        flagged = next(i for i in range(500)
                       if lo[i] == result.worst_lo and hi[i] == result.worst_hi)
        in_region = (result.worst_hi <= x_star + width
                     or result.worst_lo >= (L - x_star) - width)
        if in_region and predicted[flagged] >= 0.9 * predicted.max():
            at_predicted += 1
    elapsed = time.time() - started
    ok = false_alarms == 0 and detections >= 19 and at_predicted >= 19
    ok &= elapsed < 120.0
    check(6, "single-step DP audit", ok,
          f"false alarms {false_alarms}/20, detections {detections}/20, "
          f"at predicted cell {at_predicted}/20; {elapsed:.1f}s")


def test_criterion_7_noiseless_equivalence():
    rng = np.random.default_rng(MASTER_SEED + 7)
    worst, same_steps = 0.0, True
    for case in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(16, 64))
        eta = float(10.0 ** rng.uniform(-3.0, -0.3))
        if rng.random() < 0.5:
            radius = float(rng.uniform(0.3, 1.5))
            feasible = FeasibleSet.l2_ball(radius, dimension=d)
            project = lambda x: project_ball(radius, x)
        else:
            lower = rng.uniform(-1.5, -0.3, size=d)
            upper = rng.uniform(0.3, 1.5, size=d)
            feasible = FeasibleSet.box(lower, upper)
            project = lambda x: project_box(lower, upper, x)
        kind = ("hinge", "absolute", "squared")[case % 3]
        if kind == "squared":
            oracle = LossOracle.squared(1.0, feasible)
        elif kind == "absolute":
            oracle = LossOracle.absolute(1.0)
        else:
            oracle = LossOracle.hinge(1.0)
        rows = []
        for _ in range(n):
            feats = rng.normal(size=d)
            feats /= max(1.0, float(np.linalg.norm(feats)))
            rows.append((feats, float(rng.choice([-1.0, 1.0]))))
        features = np.array([f for f, _ in rows])
        labels = np.array([y for _, y in rows])
        w1 = project(rng.normal(scale=0.5, size=d))
        config = RunConfig(n=n, eta=eta, sigma=0.0, feasible_set=feasible,
                           oracle=oracle, w1=w1)
        seed = derived_seed(7, case)
        run = private_sgd(config, seed, (features, labels))
        tau, indices, _, margins, output = stepwise_run(
            n, eta, 0.0, w1, seed, features, labels, project,
            lambda w, x, y: plain_subgradient(kind, w, x, y))
        same_steps &= (run.tau.tolist() == [tau]
                       and np.array_equal(run.fresh_indices[0], indices))
        worst = max(worst, float(np.max(np.abs(run.fresh_margins[0] - margins))),
                    float(np.max(np.abs(run.output[0] - output))))
    check(7, "noiseless trajectory equivalence", same_steps and worst <= 1e-12,
          f"same tau and fresh indices: {same_steps}; max margin or output gap "
          f"{worst:.2e} over 100 configs")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(MASTER_SEED + 8)
    ok = True

    # projection: nonexpansive and idempotent, 10^4 pairs
    sets = []
    for i in range(10):
        if i % 2 == 0:
            sets.append(FeasibleSet.l2_ball(float(rng.uniform(0.2, 2.0)), dimension=3))
        else:
            lower = rng.normal(size=3)
            sets.append(FeasibleSet.box(lower, lower + rng.uniform(0.1, 2.0, size=3)))
    for _ in range(1000):
        for s in sets:
            x = rng.normal(scale=4.0, size=3)
            y = rng.normal(scale=4.0, size=3)
            px, py = s.project(x), s.project(y)
            ok &= np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9
            ok &= float(np.max(np.abs(s.project(px) - px))) <= 1e-12

    # subgradient inequality, 10^5 triples across the three losses
    feasible = FeasibleSet.l2_ball(2.0, dimension=3)
    oracles = [LossOracle.hinge(1.0), LossOracle.absolute(1.0),
               LossOracle.squared(1.0, feasible)]
    for oracle in oracles:
        w = rng.uniform(-2.0, 2.0, size=(34_000, 3))
        v = rng.uniform(-2.0, 2.0, size=(34_000, 3))
        feats = rng.normal(size=(34_000, 3))
        feats /= np.maximum(1.0, np.linalg.norm(feats, axis=1))[:, None]
        labels = rng.choice([-1.0, 1.0], size=34_000)
        g = oracle.subgradient(w, feats, labels)
        lhs = row_losses(oracle, v, feats, labels)
        rhs = row_losses(oracle, w, feats, labels) + np.sum(g * (v - w), axis=1)
        ok &= bool(np.all(lhs >= rhs - 1e-9))

    # subgradients vs central differences away from kinks, 1e-4 relative
    h = 1e-6
    w, feats, labels = points_away_from_kinks(rng, 2000)
    for oracle in oracles:
        g = oracle.subgradient(w, feats, labels)
        fd = np.empty_like(g)
        for i, e in enumerate(np.eye(3) * h):
            fd[:, i] = (row_losses(oracle, w + e, feats, labels)
                        - row_losses(oracle, w - e, feats, labels)) / (2 * h)
        ok &= bool(np.all(np.linalg.norm(fd - g, axis=1)
                          <= 1e-4 * (1.0 + np.linalg.norm(g, axis=1))))

    check(8, "property suites", ok, "projection, subgradient, finite-difference")
