"""Differentially private stochastic convex optimization via noisy mirror descent.

The optimizer takes one uniform sample per step, does a noisy subgradient
step the first time an index appears and a noise-only step on repeats, and
stops once more than half the dataset has been touched. privacy provides
the matching accountant (per-step calibration, the end-to-end run
parameters and guarantee, and the split of an overall target) and an
empirical audit.
"""

from .errors import ConfigurationError, RegimeError
from .geometry import FeasibleSet
from .losses import (LossOracle, PopulationSpec, draw_dataset, lipschitz_certificate,
                     population_risk)
from .optimizer import (BaselineResult, RunBatch, RunConfig, baseline_minimizer,
                        estimate_regret, private_sgd, private_sgd_batch)
from .privacy import (AuditResult, EndToEndPlan, InternalBudget, PrivacyReport,
                      audit_single_step, calibrate_sigma, end_to_end, from_target)
from .sampler import TauStats, simulate_tau

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "RegimeError",
    "FeasibleSet", "LossOracle", "PopulationSpec", "draw_dataset",
    "lipschitz_certificate", "population_risk",
    "BaselineResult", "RunBatch", "RunConfig",
    "baseline_minimizer", "estimate_regret", "private_sgd", "private_sgd_batch",
    "AuditResult", "EndToEndPlan", "InternalBudget", "PrivacyReport",
    "audit_single_step", "calibrate_sigma", "end_to_end", "from_target",
    "TauStats", "simulate_tau",
]
