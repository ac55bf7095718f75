"""Differentially private stochastic convex optimization via noisy mirror descent.

The optimizer takes one uniform sample per step, does a noisy subgradient
step the first time an index appears and a noise-only step on repeats, and
stops once more than half the dataset has been touched. privacy provides
the matching accountant (calibration, subsampling amplification, advanced
composition, end-to-end parameter solving) and an empirical audit.
"""

from .errors import ConfigurationError, OverrunError, RegimeError
from .geometry import FeasibleSet, Potential, mirror_step
from .losses import (DataPoint, LossOracle, PopulationSpec, draw_arrays,
                     draw_dataset, draw_sample, lipschitz_certificate,
                     load_dataset, save_dataset)
from .optimizer import (BaselineResult, RiskEstimate, RunBatch, RunConfig,
                        RunTrace, baseline_minimizer, estimate_regret,
                        estimate_risk, private_sgd, private_sgd_batch)
from .privacy import (AuditResult, EndToEndPlan, InternalBudget, PrivacyReport,
                      StepPrivacy, amplify_by_subsampling, audit_single_step,
                      calibrate_sigma, compose, end_to_end, from_target)
from .sampler import TauStats, expected_tau, sample_index, simulate_tau

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "OverrunError", "RegimeError",
    "FeasibleSet", "Potential", "mirror_step",
    "DataPoint", "LossOracle", "PopulationSpec", "draw_arrays",
    "draw_dataset", "draw_sample",
    "lipschitz_certificate", "load_dataset", "save_dataset",
    "BaselineResult", "RiskEstimate", "RunBatch", "RunConfig", "RunTrace",
    "baseline_minimizer", "estimate_regret", "estimate_risk", "private_sgd",
    "private_sgd_batch",
    "AuditResult", "EndToEndPlan", "InternalBudget", "PrivacyReport",
    "StepPrivacy", "amplify_by_subsampling", "audit_single_step",
    "calibrate_sigma", "compose", "end_to_end", "from_target",
    "TauStats", "expected_tau", "sample_index", "simulate_tau",
]
