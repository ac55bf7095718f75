import contextlib
import hashlib
import io
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from oracles import (CyclingStreams, audit_cells_reference, audit_counts_reference, audit_draws,
                     closed_form_cell_violations, directed_variances, exact_cell_probabilities)

from dpmirror import cli, privacy
from dpmirror.errors import ConfigurationError, RegimeError
from dpmirror.privacy import (AUDIT_BLOCK, audit_single_step, calibrate_sigma, end_to_end,
                              from_target, risk_bound, write_audit_csv)


class TestCalibrateSigma:
    def test_constants_cancel(self):
        # delta = e^-3 and eps = 3 make sigma = sqrt(3*3)/3 = 1
        assert calibrate_sigma(1.0, math.exp(-3.0), 3.0) == pytest.approx(1.0)

    def test_reference_value(self):
        # independent evaluation: sqrt(3 * 6 * ln(10))
        expected = math.sqrt(18.0 * math.log(10.0))
        assert calibrate_sigma(1.0, 1e-6, 1.0) == pytest.approx(expected, rel=1e-12)
        assert calibrate_sigma(1.0, 1e-6, 1.0) == pytest.approx(6.4379, abs=1e-4)

    def test_homogeneous_in_L(self):
        assert calibrate_sigma(2.0, 1e-5, 0.7) == pytest.approx(
            2.0 * calibrate_sigma(1.0, 1e-5, 0.7))

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError):
            calibrate_sigma(1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            calibrate_sigma(1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            calibrate_sigma(1.0, -0.5, 1.0)
        with pytest.raises(ConfigurationError):
            calibrate_sigma(0.0, 1e-6, 1.0)
        with pytest.raises(ConfigurationError):
            calibrate_sigma(1.0, 1e-6, 0.0)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                calibrate_sigma(bad, 1e-6, 1.0)
            with pytest.raises(ConfigurationError):
                calibrate_sigma(1.0, 1e-6, bad)


    def test_overflow_refused(self):
        # 1/delta overflows for a subnormal delta; a subnormal epsilon_tilde
        # makes sigma overflow. Neither may come back as sigma = inf: both
        # are below 2^-200.
        with pytest.raises(ConfigurationError, match="delta must have magnitude"):
            calibrate_sigma(1.0, 1e-320, 1.0)
        with pytest.raises(ConfigurationError, match="epsilon_tilde must have magnitude"):
            calibrate_sigma(1.0, 1e-6, 1e-310)
        assert calibrate_sigma(2.0**200, 2.0**-200, 2.0**-200) < math.inf


    def test_underflow_refused(self):
        # A subnormal L with delta near 1 once gave sigma = 0.0, a step with
        # no noise, and L = 1e-310 a subnormal sigma that keeps only a few
        # bits (found by test_fuzz.py's accountant cases). Both L are below
        # 2^-200; the smallest sigma in range is normal.
        with pytest.raises(ConfigurationError, match="L must have magnitude"):
            calibrate_sigma(5e-324, 1 - 2**-53, 0.5)
        with pytest.raises(ConfigurationError, match="L must have magnitude.*1e-310"):
            calibrate_sigma(1e-310, 1e-6, 1.0)
        assert calibrate_sigma(2.0**-200, 1 - 2**-53, 2.0**200) > sys.float_info.min


class TestRiskBound:
    def test_reference_value(self):
        # 2.5 * 2 * (2*1.5 + 4*sqrt(9)) / sqrt(100) = 7.5
        assert risk_bound(100, 4.0, 1.5, 2.0, 9) == pytest.approx(7.5, rel=1e-15)

    def test_noiseless_bound_is_5LD_over_sqrt_n(self):
        assert risk_bound(400, 0.0, 1.3, 0.8, 7) == pytest.approx(
            5.0 * 1.3 * 0.8 / 20.0, rel=1e-15)

    def test_end_to_end_reports_it(self):
        plan = end_to_end(1600, 0.01, 1e-6, 1e-7, L=1.3, D=0.8, d=7)
        assert plan.risk_bound == risk_bound(1600, plan.sigma, 1.3, 0.8, 7)


class TestEndToEnd:
    def test_reference_sigma_eta_risk(self):
        plan = end_to_end(10_000, 0.005, 1e-6, 1e-6, L=1.0, D=1.0, d=10)
        assert plan.sigma == pytest.approx(59.471, abs=1e-3)
        assert plan.eta == pytest.approx(5.289e-5, rel=1e-3)
        assert plan.risk_bound == pytest.approx(4.7516, abs=2e-4)

    def test_formula_identity_at_regime_boundary(self):
        # Exact identities, cross-checked against independently written
        # arithmetic, at epsilon = 1/(2*sqrt(n)).
        for n in (16, 100, 1024, 10_000):
            eps = 0.5 / math.sqrt(n)
            delta, delta_prime = 1e-6, 1e-7
            plan = end_to_end(n, eps, delta, delta_prime, L=1.3, D=0.8, d=7)
            eps_oracle = 4.0 * eps * (math.sqrt(-math.log(delta_prime)) + 2.0)
            assert plan.report.epsilon == pytest.approx(eps_oracle, rel=1e-12)
            risk_oracle = (5.0 * 1.3 * 0.8 / math.sqrt(n)
                           + 20.0 * 1.3 * 0.8 * math.sqrt(7.0 * -math.log(delta))
                           / (eps * n))
            assert plan.risk_bound == pytest.approx(risk_oracle, rel=1e-12)
            delta_oracle = delta + delta_prime + 2.0 * math.exp(-n / 16.0)
            assert plan.report.delta_total == pytest.approx(delta_oracle, rel=1e-12)

    def test_out_of_regime_rejected(self):
        with pytest.raises(RegimeError) as err:
            end_to_end(100, 0.06, 1e-6, 1e-6, L=1.0, D=1.0, d=2)
        assert "1/(2*sqrt(n))" in str(err.value)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            end_to_end(15, 0.01, 1e-6, 1e-6, L=1.0, D=1.0, d=2)

    def test_deterministic(self):
        a = end_to_end(400, 0.02, 1e-6, 1e-6, L=1.0, D=1.0, d=3)
        b = end_to_end(400, 0.02, 1e-6, 1e-6, L=1.0, D=1.0, d=3)
        assert a == b

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                end_to_end(400, bad, 1e-6, 1e-6, L=1.0, D=1.0, d=3)
            with pytest.raises(ConfigurationError):
                end_to_end(400, 0.02, 1e-6, 1e-6, L=bad, D=1.0, d=3)
            with pytest.raises(ConfigurationError):
                end_to_end(400, 0.02, 1e-6, 1e-6, L=1.0, D=bad, d=3)
            with pytest.raises(ConfigurationError):
                from_target(bad, 3e-6, 400)

    @pytest.mark.parametrize("args, message", [
        ((1600, 1e-320, 1e-6, 1e-6, 1.0, 1.0, 2), "epsilon must have magnitude"),
        ((1600, 0.001, 1e-6, 1e-320, 1.0, 1.0, 2), "delta_prime must have magnitude"),
        ((1600, 0.001, 1e-6, 1e-6, 1.0, 1e-320, 2), "D must have magnitude"),
        # A subnormal L makes sigma subnormal and eta overflow: calibrate
        # once printed "eta": Infinity and exited 0 (found by test_fuzz.py).
        ((400, 0.005, 1e-6, 1e-6, 5e-324, 1.0, 2), "L must have magnitude"),
    ], ids=["epsilon", "delta_prime", "D", "L-subnormal"])
    def test_overflow_refused(self, args, message):
        # Each value is below 2^-200 (errors.py, "sigma", "eta" and
        # "risk_bound").
        with pytest.raises(ConfigurationError, match=message):
            end_to_end(*args)

    @pytest.mark.parametrize("args, message", [
        ((16_000, 0.003, 1 - 2**-53, 1e-300, 5e-324, 1e-300, 1),
         "delta_prime must have magnitude"),
        ((400, 0.02, 1e-6, 1e-6, 5e-324, 1e-15, 2), "L must have magnitude"),
    ], ids=["sigma", "risk_bound"])
    def test_underflow_refused(self, args, message):
        # Each once came back as a plan: sigma = 0.0 (a run with no noise)
        # with a finite guarantee, and a risk bound of 0.0 (found by
        # test_fuzz.py's accountant cases). The sigma case's n keeps its
        # delta total, 1 - 2**-53, below 1. Each has a value below 2^-200; at
        # the range's ends every result is a normal float.
        with pytest.raises(ConfigurationError, match=message):
            end_to_end(*args)
        tiny, huge = 2.0**-200, 2.0**200
        for extreme in ((2**53, 0.5 / math.sqrt(2**53), 1 - 2**-53, tiny, tiny, tiny, 1),
                        (2**53, tiny, tiny, tiny, huge, tiny, 2**53),
                        (16, 0.125, tiny, tiny, tiny, huge, 1),
                        (16, tiny, tiny, tiny, huge, huge, 2**53)):
            plan = end_to_end(*extreme)
            numbers = (plan.sigma, plan.eta, plan.risk_bound, plan.report.epsilon)
            assert all(sys.float_info.min <= x < math.inf for x in numbers), extreme

    @pytest.mark.parametrize("n, epsilon, delta, delta_prime", [
        (16, 0.125, 0.9, 0.9), (16, 0.125, 0.5, 1e-6), (1600, 0.0125, 0.5, 0.5)])
    def test_delta_total_of_one_or_more_refused(self, n, epsilon, delta, delta_prime):
        # delta + delta_prime + 2*exp(-n/16) is 2.54, 1.24 and 1.0: each was
        # once reported as a guarantee.
        with pytest.raises(ConfigurationError, match="which must be below 1"):
            end_to_end(n, epsilon, delta, delta_prime, 1.0, 1.0, 1)

    def test_delta_total_just_below_one_accepted(self):
        plan = end_to_end(16, 0.125, 0.1, 0.1, 1.0, 1.0, 1)
        assert plan.report.delta_total == 0.2 + 2.0 * math.exp(-1.0) < 1.0

    def test_from_target_subnormal_delta_refused(self):
        # delta_bar/3 is subnormal; the derived epsilon would be 0. delta_bar
        # is itself below 2^-200, and at delta_bar = 2^-200 its third is
        # refused by name.
        with pytest.raises(ConfigurationError, match="delta_bar must have magnitude"):
            from_target(0.1, 1e-320, 20_000)
        with pytest.raises(ConfigurationError, match="delta_bar/3 must have magnitude"):
            from_target(0.1, 2.0**-200, 20_000)


class TestFromTarget:
    def test_splits_delta_by_three(self):
        budget = from_target(0.05, 3e-6, 400)
        assert budget.delta == pytest.approx(1e-6)
        assert budget.delta_prime == pytest.approx(1e-6)

    def test_reference_epsilon(self):
        budget = from_target(0.1, 3e-6, 400)
        assert budget.epsilon == pytest.approx(0.1 / (8.0 * math.sqrt(6 * math.log(10))),
                                               rel=1e-12)
        assert budget.epsilon == pytest.approx(0.0033630, abs=1e-7)

    def test_round_trip_dominated_by_target(self):
        # 1000 random valid targets: running the derived internal budget
        # through end_to_end must stay within (eps_bar, delta_bar).
        rng = np.random.default_rng(71)
        done = 0
        while done < 1000:
            n = int(rng.integers(16, 20_000))
            delta_bar = float(10.0 ** rng.uniform(-8, math.log10(3.0 * math.exp(-4.0))))
            if delta_bar < 6.0 * math.exp(-n / 16.0):
                continue
            eps_cap = 4.0 * math.sqrt(math.log(3.0 / delta_bar) / n)
            eps_bar = float(rng.uniform(0.05, 0.999)) * eps_cap
            budget = from_target(eps_bar, delta_bar, n)
            plan = end_to_end(n, budget.epsilon, budget.delta, budget.delta_prime,
                              L=1.0, D=1.0, d=5)
            assert plan.report.epsilon <= eps_bar * (1 + 1e-12)
            assert plan.report.delta_total <= delta_bar * (1 + 1e-12)
            done += 1

    def test_underflowing_epsilon_refused(self):
        # eps_bar = 5e-324 once gave the internal epsilon 0.0, and calibrate
        # printed it with exit 0. Both eps_bar are below 2^-200. The epsilon
        # derived from eps_bar = 2^-200 is normal but out of range, and the
        # next call, end_to_end, refuses it by name.
        with pytest.raises(ConfigurationError, match="eps_bar must have magnitude"):
            from_target(5e-324, 1e-4, 400)
        with pytest.raises(ConfigurationError, match="eps_bar must have magnitude"):
            from_target(1e-307, 1e-4, 400)
        budget = from_target(2.0**-200, 1e-4, 400)
        assert sys.float_info.min <= budget.epsilon < 2.0**-200
        with pytest.raises(ConfigurationError, match="epsilon must have magnitude"):
            end_to_end(400, budget.epsilon, budget.delta, budget.delta_prime, 1.0, 1.0, 2)

    def test_delta_window_enforced(self):
        with pytest.raises(RegimeError) as err:
            from_target(0.1, 1e-12, 20)    # below 6*exp(-20/16)
        assert "6*exp(-n/16)" in str(err.value)
        with pytest.raises(RegimeError):
            from_target(0.1, 0.06, 400)    # above 3*e^-4

    def test_epsilon_cap_enforced(self):
        with pytest.raises(RegimeError) as err:
            from_target(5.0, 3e-6, 10_000)
        assert "1/(2*sqrt(n))" in str(err.value)


class TestAudit:
    def test_calibrated_sigma_passes(self):
        sigma = calibrate_sigma(1.0, 1e-6, 0.5)
        result = audit_single_step(sigma, 1.0, 0.5, 1e-6, 1_000_000, seed=5)
        assert not result.significant

    def test_inflated_sigma_passes_with_margin(self):
        sigma = 10.0 * calibrate_sigma(1.0, 1e-6, 0.5)
        result = audit_single_step(sigma, 1.0, 0.5, 1e-6, 1_000_000, seed=5)
        assert not result.significant
        assert result.max_violation <= 3.0 * result.max_violation_stderr

    def test_deflated_sigma_detected_at_predicted_interval(self):
        # Event-level oracle: the audit grid is deterministic, so the true
        # violation of every cell follows in closed form from the two
        # Gaussian CDFs. The audit must flag a near-maximally violating cell.
        L, eps, delta = 1.0, 0.5, 1e-6
        sigma = calibrate_sigma(L, delta, eps) / 10.0
        predicted, los, his = closed_form_cell_violations(sigma, L, eps, delta, 500)
        assert predicted.max() > 1e-3
        x_star = (L * L - 2.0 * sigma * sigma * eps) / (2.0 * L)

        result = audit_single_step(sigma, L, eps, delta, 1_000_000, seed=5)
        assert result.significant
        assert result.max_violation == pytest.approx(predicted.max(), rel=0.3)
        flagged = next(i for i in range(500)
                       if los[i] == result.worst_lo and his[i] == result.worst_hi)
        assert predicted[flagged] >= 0.9 * predicted.max()
        # flagged cell lies in the violating region below x*, or in its
        # mirror image above L - x* (roles of the datasets swapped)
        width = his[2] - los[2]
        assert (result.worst_hi <= x_star + width
                or result.worst_lo >= (L - x_star) - width)

    def test_deterministic_under_seed(self):
        sigma = calibrate_sigma(1.0, 1e-6, 0.5)
        a = audit_single_step(sigma, 1.0, 0.5, 1e-6, 1_000_000, seed=9)
        b = audit_single_step(sigma, 1.0, 0.5, 1e-6, 1_000_000, seed=9)
        assert a.max_violation == b.max_violation
        assert a.worst_hi == b.worst_hi

    def test_insufficient_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            audit_single_step(1.0, 1.0, 0.5, 1e-6, 10_000, grid_cells=500)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            for args in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)):
                with pytest.raises(ConfigurationError):
                    audit_single_step(*args, 1e-6, 2_000_000)

    @pytest.mark.parametrize("seed", [None, True, -1, 1.5])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            audit_single_step(1.0, 1.0, 0.5, 1e-3, 100_000, grid_cells=50, seed=seed)

    def test_numpy_integer_seed(self):
        a = audit_single_step(1.0, 1.0, 0.5, 1e-3, 100_000, grid_cells=50, seed=np.int64(3))
        b = audit_single_step(1.0, 1.0, 0.5, 1e-3, 100_000, grid_cells=50, seed=3)
        assert a.p_s.tobytes() == b.p_s.tobytes()

    def test_grid_cap(self):
        with pytest.raises(ConfigurationError):
            audit_single_step(1.0, 1.0, 0.5, 1e-6, 2_000_000, grid_cells=501)

    @pytest.mark.parametrize("trials, grid_cells", [
        (1e6, 500), (np.float64(1e6), 500), (True, 3), (10**6, 500.0), (10**6, True)],
        ids=["float-trials", "np-float-trials", "bool-trials", "float-cells", "bool-cells"])
    def test_non_int_trials_or_cells(self, trials, grid_cells):
        # A float once reached range() or linspace() and raised TypeError.
        with pytest.raises(ConfigurationError, match="int"):
            audit_single_step(1.0, 1.0, 0.5, 1e-6, trials, grid_cells=grid_cells)

    def test_numpy_integer_trials_and_cells(self):
        a = audit_single_step(1.0, 1.0, 0.5, 1e-3, np.int64(100_000), grid_cells=np.int32(50))
        b = audit_single_step(1.0, 1.0, 0.5, 1e-3, 100_000, grid_cells=50)
        assert a.p_s.tobytes() == b.p_s.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 10.0, 0.1])
    def test_matches_cell_by_cell_reference(self, scale):
        # Calibrated, inflated and deflated noise: the array scoring gives
        # the reference loop's verdict, bit for bit, from joint counts the
        # reference finds by np.digitize of both sides' whole draws.
        sigma = scale * calibrate_sigma(1.0, 1e-6, 0.5)
        result = audit_single_step(sigma, 1.0, 0.5, 1e-6, 1_000_000, seed=5)
        violations, verdict = audit_cells_reference(
            *audit_draws(sigma, 1.0, 1_000_000, 5), result.edges, 0.5, 1e-6)
        np.testing.assert_array_equal(result.violation, violations)
        assert (result.max_violation, result.max_violation_stderr, result.worst_lo,
                result.worst_hi, result.significant) == verdict
        assert verdict[-1] == (scale == 0.1)

    @pytest.mark.parametrize("trials", [6000, 3 * AUDIT_BLOCK + 6001, 4 * AUDIT_BLOCK])
    def test_blocked_draws_match_one_draw(self, trials):
        # Below one block, with a partial last block, and in whole blocks:
        # the streamed counts are those of one whole draw z, histogrammed as
        # sigma*z and L + sigma*z.
        result = audit_single_step(1.3, 0.4, 0.5, 1e-6, trials, grid_cells=3, seed=2)
        p_s, p_sprime = audit_counts_reference(1.3, 0.4, trials, result.edges, 2)
        assert result.p_s.tobytes() == p_s.tobytes()
        assert result.p_sprime.tobytes() == p_sprime.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_shared_draw_counts_bytewise(self, scale):
        # The CLI's default grid and trials: 500 cells, 10^6 trials in 15
        # whole blocks and a partial one. The counts are np.histogram's of
        # sigma*z and L + sigma*z, whatever kernels sort, scale and shift.
        sigma = scale * calibrate_sigma(1.0, 1e-6, 0.5)
        result = audit_single_step(sigma, 1.0, 0.5, 1e-6, 1_000_000, seed=7)
        p_s, p_sprime = audit_counts_reference(sigma, 1.0, 1_000_000, result.edges, 7)
        assert result.p_s.tobytes() == p_s.tobytes()
        assert result.p_sprime.tobytes() == p_sprime.tobytes()

    @pytest.mark.parametrize("trials", [6000, 3 * AUDIT_BLOCK + 6001, 4 * AUDIT_BLOCK])
    def test_draws_each_normal_once(self, trials, monkeypatch):
        # Both sides read one draw: trials normals in all, not 2*trials, in
        # ceil(trials / AUDIT_BLOCK) calls.
        streams = CyclingStreams(np.linspace(-2.0, 2.0, 7))
        monkeypatch.setattr(privacy, "seeded_streams", streams)
        audit_single_step(1.3, 0.4, 0.5, 1e-6, trials, grid_cells=3)
        assert sum(streams.sizes) == trials
        assert len(streams.sizes) == -(-trials // AUDIT_BLOCK)

    @pytest.mark.parametrize("sigma", [1.0, 30.0], ids=["narrow-cells", "wide-cells"])
    def test_stderr_is_the_coupled_one(self, sigma):
        # 200 seeds at 10^5 trials and 50 cells, L = 1. At sigma = 1 cells are
        # narrower than L and the two sides' counts covary negatively; at
        # sigma = 30 they are wider, and the covariance is positive and
        # large. For every cell and direction, the spread over seeds of
        # p_S - e^eps p_S' (or the reverse) must fit the exact coupled
        # variance from Gaussian CDFs within the chi-square band of 199
        # degrees of freedom at 1e-6 a side; the independent-sides variance
        # must miss it at sigma = 30. The stderr the audit reports at its
        # worst cell must be the coupled one, in the median over seeds.
        L, eps, delta, trials, cells, seeds = 1.0, 0.5, 1e-6, 100_000, 50, 200
        amp = math.exp(eps)
        coupled, independent = directed_variances(
            *exact_cell_probabilities(sigma, L, cells), eps, trials)
        directed = np.empty((seeds, 2, cells))
        reported = []
        for seed in range(seeds):
            result = audit_single_step(sigma, L, eps, delta, trials, grid_cells=cells,
                                       seed=seed)
            directed[seed] = (result.p_s - amp * result.p_sprime,
                              result.p_sprime - amp * result.p_s)
            worst = int(np.argmax(result.violation))
            reverse = int(directed[seed, 1, worst] > directed[seed, 0, worst])
            reported.append(result.max_violation_stderr / math.sqrt(coupled[reverse, worst]))
        spread = directed.var(axis=0, ddof=1)
        low, high = chi2.ppf([1e-6, 1.0 - 1e-6], seeds - 1) / (seeds - 1)
        ratio = spread / coupled
        assert low < ratio.min() and ratio.max() < high, (ratio.min(), ratio.max())
        if sigma == 30.0:
            assert (spread / independent).max() < low
        assert 0.85 < np.median(reported) < 1.15

    def test_ties_on_edges_count_as_histogram(self, monkeypatch):
        # Draws exactly on the interior edges -3, -2, ..., 4 (sigma = L = 1,
        # 9 cells) and past both ends: the in-place sort and both edge
        # searches must count them as np.histogram does, into the upper cell.
        values = np.arange(-4.0, 5.5, 0.5)
        monkeypatch.setattr(privacy, "seeded_streams", CyclingStreams(values))
        trials = 18_000
        result = audit_single_step(1.0, 1.0, 0.5, 1e-6, trials, grid_cells=9)
        assert result.edges[1:-1].tolist() == list(range(-3, 5))
        drawn = np.resize(values, trials)
        for side, p in enumerate((result.p_s, result.p_sprime)):
            want = np.histogram(drawn + side, bins=result.edges)[0] / trials
            assert p.tobytes() == want.tobytes()

    def test_peak_memory_is_one_block(self):
        # 10^6 trials a side once held four 8 MB arrays (a 17 MB traced
        # peak); streamed through one block, the peak was 1.03 MB with
        # np.histogram's sorted copy of each block, 0.57 MB with each block
        # sorted in place, and is 0.59 MB with both sides in that one block.
        # The first audit in a process imports numpy.random (0.7 MB more),
        # so a small audit runs before the traced one.
        sigma = calibrate_sigma(1.0, 1e-6, 0.5)
        audit_single_step(sigma, 1.0, 0.5, 1e-6, 6000, grid_cells=3)
        tracemalloc.start()
        try:
            audit_single_step(sigma, 1.0, 0.5, 1e-6, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7 * 2**20

    # sha256 of (audit.csv, audit_summary.json) from `dpmirror audit` at seed
    # 7, fixed when both sides came to share one draw and the summary came
    # to name the audited parameters.
    GOLDEN_FILES = {
        1.0: ("20a29b51943db090a8a0f2590d7ef78fce2b93cc5c94f51e93ad3a2c2cabb3a2",
              "f3ed28c9271230ec62eb80a179a115579f167d085f64e7e71593988ab91f7412"),
        0.1: ("9f1791ee8e1e9f25d22289f0a57596c0fbe028abdd65899bf3531d9c88c1a286",
              "6c7974a53db09a3c59c1d3a23b9774923f36221d86146a8725b46980c235bb5d"),
    }

    @pytest.mark.parametrize("scale", list(GOLDEN_FILES))
    def test_golden_files(self, scale, tmp_path):
        sigma = scale * calibrate_sigma(1.0, 1e-6, 0.5)
        argv = ["audit", "--L", "1.0", "--eps-tilde", "0.5", "--delta", "1e-06",
                "--trials", "1000000", "--seed", "7", "--sigma", repr(sigma),
                "--name", "a", "--output-dir", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == (4 if scale < 1.0 else 0)
        digests = tuple(hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
                        for name in ("audit.csv", "audit_summary.json"))
        assert digests == self.GOLDEN_FILES[scale]

    @pytest.mark.parametrize("L, sigma", [
        ("1.0", "1e308"), ("1e308", "1e308"), ("1.7e308", "1e307")],
        ids=["sigma", "sigma-and-L", "L"])
    def test_overflowing_grid_or_draws_exit_2(self, L, sigma, tmp_path, capsys):
        # A 3-sigma margin of inf once made the edges -inf, nan, ... and the
        # command exited 4, a significant violation, after overflow warnings.
        # Each sigma is past 2^200 (errors.py, "audit").
        rc = cli.main(["audit", "--L", L, "--eps-tilde", "0.5", "--delta", "1e-06",
                       "--trials", "1000000", "--seed", "7", "--sigma", sigma,
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert f"sigma must have magnitude in [2^-200, 2^200], got {float(sigma)!r}" \
            in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("eps_tilde, message", [
        ("400", "epsilon_tilde=400.0: e^(2*epsilon_tilde) overflows"),
        ("710", "epsilon_tilde=710.0: e^(2*epsilon_tilde) overflows"),
        ("1e308", "epsilon_tilde must have magnitude in [2^-200, 2^200], got 1e+308")],
        ids=["400", "710", "1e308"])
    def test_epsilon_tilde_whose_weight_overflows_exit_2(self, eps_tilde, message, tmp_path,
                                                         capsys):
        # e^(2*epsilon_tilde) weighs the reverse variance: past about 354.9 it
        # overflowed, and inf * 0 warned "invalid value"; past 709.78
        # math.exp raised OverflowError. Found by tests/test_fuzz.py. The
        # range, up to 2^200, does not cover this, so the audit keeps its
        # check.
        rc = cli.main(["audit", "--L", "1", "--eps-tilde", eps_tilde, "--delta", "1e-6",
                       "--trials", "6000", "--grid", "3", "--seed", "7",
                       "--output-dir", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()

    def test_large_accepted_epsilon_tilde_gives_finite_output(self):
        result = audit_single_step(6.0, 1.0, 354.0, 1e-6, 6000, grid_cells=3, seed=7)
        assert math.isfinite(result.max_violation + result.max_violation_stderr)
        assert np.isfinite(result.violation).all() and not result.significant

    def test_largest_accepted_sigma_gives_finite_edges(self, tmp_path, capsys):
        # sigma = 2^200, the largest in range, with L = 1 and with the
        # largest L: the edges and draws stay finite (errors.py, "audit").
        # The next float up exits 2, with no file written.
        sigma = 2.0**200
        for L in (1.0, sigma):
            result = audit_single_step(sigma, L, 0.5, 1e-6, 6000, grid_cells=3, seed=7)
            assert np.isfinite(result.edges[1:-1]).all()
            assert np.all(np.diff(result.edges) > 0.0)
            assert result.p_s.sum() == pytest.approx(1.0) == result.p_sprime.sum()
        refused = math.nextafter(sigma, math.inf)
        rc = cli.main(["audit", "--L", "1", "--eps-tilde", "0.5", "--delta", "1e-6",
                       "--trials", "6000", "--grid", "3", "--seed", "7",
                       "--sigma", repr(refused), "--output-dir", str(tmp_path)])
        assert rc == 2
        assert f"sigma must have magnitude in [2^-200, 2^200], got {refused!r}" \
            in capsys.readouterr().err
        assert not (tmp_path / "audit").exists()

    def test_csv_export(self, tmp_path):
        result = audit_single_step(2.0, 1.0, 0.5, 1e-3, 100_000, grid_cells=50, seed=3)
        path = tmp_path / "audit.csv"
        write_audit_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "interval_lo,interval_hi,p_S,p_Sprime,violation"
        assert len(lines) == 51
