"""Privacy accountant for the noisy-SGD loop, plus an empirical audit.

calibrate_sigma gives the noise scale that makes one gradient step
(eps_tilde, delta)-DP, the claim the audit checks. end_to_end gives the
whole run's sigma, eta and closed-form guarantee, with the stopping-time
failure mass 2*exp(-n/16) folded into delta. from_target splits an overall
(eps_bar, delta_bar) target into the parameters end_to_end takes.

All logarithms are natural. Out-of-regime parameters raise RegimeError
instead of being clamped: a clamped answer would misstate the guarantee.
Accountant functions are pure and safe to call concurrently.

audit_single_step checks the per-step claim by Monte Carlo: it histograms
the two neighbouring outputs on a fixed grid and scores every cell in both
directions at once, as arrays; the per-cell table it returns is those
arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RegimeError
from .sampler import check_seed, seeded_streams

STAGE_END_TO_END = "end_to_end"

# Audit needs this many trials per grid cell for stable tail estimates.
MIN_TRIALS_PER_CELL = 2000
MAX_GRID_CELLS = 500
# Interior grid half-width in noise units; everything beyond is lumped into
# the two outermost cells so no event has near-zero expected count.
AUDIT_RANGE_SIGMAS = 3.0


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    delta_total: float
    stage: str
    assumptions: tuple = ()


def _check_positive(name, value):
    # "not value > 0" alone lets inf through; NaN fails every comparison.
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def _check_delta(delta, name="delta"):
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"{name} must lie in (0, 1), got {delta}")


def calibrate_sigma(L, delta, epsilon_tilde):
    """Noise scale making one gradient step (epsilon_tilde, delta)-DP.

    sigma = L * sqrt(3 * ln(1/delta)) / epsilon_tilde, with L the bound on
    gradient norms (the step's sensitivity).
    """
    _check_positive("L", L)
    _check_positive("epsilon_tilde", epsilon_tilde)
    _check_delta(delta)
    return L * math.sqrt(3.0 * math.log(1.0 / delta)) / epsilon_tilde


def epsilon_limit(n):
    """Largest per-record epsilon the end-to-end guarantee covers: 1/(2*sqrt(n))."""
    return 1.0 / (2.0 * math.sqrt(n))


def step_size(n, sigma, L, D, d):
    """The run's step size eta = D / (sqrt(n)*(L + sigma*sqrt(d)))."""
    return D / (math.sqrt(n) * (L + sigma * math.sqrt(d)))


@dataclass(frozen=True)
class EndToEndPlan:
    sigma: float
    eta: float
    report: PrivacyReport
    risk_bound: float


def end_to_end(n, epsilon, delta, delta_prime, L, D, d):
    """Full-run parameters and guarantee for a target per-record epsilon.

    Requires n >= 16 and epsilon <= 1/(2*sqrt(n)), which already keeps the
    per-step epsilon_tilde = sqrt(n)*epsilon composed over the run <= 1/2. Returns
      sigma = 8*L*sqrt(ln(1/delta)) / (sqrt(n)*epsilon)
      eta   = D / (sqrt(n)*(L + sigma*sqrt(d)))
    and the guarantee (4*epsilon*(sqrt(ln(1/delta')) + 2),
    delta + delta' + 2*exp(-n/16)), where the exponential term is the
    probability the run fails to stop within 2n steps. risk_bound is the
    matching excess-risk value 5LD/sqrt(n) + 20LD*sqrt(d*ln(1/delta))/(eps*n).
    The harness checks its cells against a different formula, bound_value =
    2.5*D*(L + sigma*sqrt(d))/sqrt(n); at this sigma, risk_bound exceeds it
    by exactly 2.5*L*D/sqrt(n). Choosing one is open (ROADMAP.md, item 3).
    """
    if n < 16:
        raise ConfigurationError(f"end_to_end requires n >= 16, got {n}")
    limit = epsilon_limit(n)
    _check_positive("epsilon", epsilon)
    if epsilon > limit:
        raise RegimeError(
            f"epsilon={epsilon} violates epsilon <= 1/(2*sqrt(n)) = {limit}; "
            "the end-to-end guarantee only covers this regime"
        )
    _check_delta(delta)
    _check_delta(delta_prime, "delta_prime")
    _check_positive("L", L)
    _check_positive("D", D)
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")

    sigma = 8.0 * L * math.sqrt(math.log(1.0 / delta)) / (math.sqrt(n) * epsilon)
    eta = step_size(n, sigma, L, D, d)
    report = PrivacyReport(
        epsilon=4.0 * epsilon * (math.sqrt(math.log(1.0 / delta_prime)) + 2.0),
        delta_total=delta + delta_prime + 2.0 * math.exp(-n / 16.0),
        stage=STAGE_END_TO_END,
        assumptions=(
            "conditioned on stopping within 2n steps; failure mass "
            "2*exp(-n/16) added to delta",
            "per-step epsilon_tilde = sqrt(n)*epsilon composed over tau = 2n",
        ),
    )
    risk_bound = (5.0 * L * D / math.sqrt(n)
                  + 20.0 * L * D * math.sqrt(d * math.log(1.0 / delta)) / (epsilon * n))
    return EndToEndPlan(sigma=sigma, eta=eta, report=report, risk_bound=risk_bound)


@dataclass(frozen=True)
class InternalBudget:
    epsilon: float
    delta: float
    delta_prime: float


def from_target(eps_bar, delta_bar, n):
    """Split an overall (eps_bar, delta_bar) target into internal parameters.

    delta = delta' = delta_bar/3 and epsilon = eps_bar/(8*sqrt(ln(1/delta'))).
    Feeding the result to end_to_end yields a report dominated by the target,
    provided 6*exp(-n/16) <= delta_bar <= 3*e^-4 and the derived epsilon
    stays within end_to_end's regime epsilon <= 1/(2*sqrt(n)).
    """
    _check_positive("eps_bar", eps_bar)
    _check_positive("delta_bar", delta_bar)
    if n < 16:
        raise ConfigurationError(f"from_target requires n >= 16, got {n}")
    floor = 6.0 * math.exp(-n / 16.0)
    ceiling = 3.0 * math.exp(-4.0)
    if not floor <= delta_bar <= ceiling:
        raise RegimeError(
            f"delta_bar={delta_bar} violates 6*exp(-n/16) = {floor:.6g} "
            f"<= delta_bar <= 3*e^-4 = {ceiling:.6g}"
        )
    delta = delta_bar / 3.0
    epsilon = eps_bar / (8.0 * math.sqrt(math.log(1.0 / delta)))
    limit = epsilon_limit(n)
    if epsilon > limit:
        raise RegimeError(
            f"derived epsilon={epsilon:.6g} violates epsilon <= 1/(2*sqrt(n)) "
            f"= {limit:.6g}; lower eps_bar or raise n "
            f"(need eps_bar <= 4*sqrt(ln(3/delta_bar)/n))"
        )
    return InternalBudget(epsilon=epsilon, delta=delta, delta_prime=delta)


@dataclass
class AuditResult:
    """Outcome of a Monte-Carlo single-step DP audit.

    max_violation is the largest estimate of P[M(S) in E] - e^eps * P[M(S') in E]
    - delta over the tested events (both directions); significant is True if
    any event exceeded three times its own binomial standard error. The
    per-cell table is held as arrays in grid order: edges (cells + 1,) and,
    per cell, p_s, p_sprime and the larger violation of the two directions.
    """

    max_violation: float
    max_violation_stderr: float
    significant: bool
    worst_lo: float
    worst_hi: float
    edges: np.ndarray
    p_s: np.ndarray
    p_sprime: np.ndarray
    violation: np.ndarray

    def to_dict(self):
        return {
            "max_violation": self.max_violation,
            "max_violation_stderr": self.max_violation_stderr,
            "significant": self.significant,
            "worst_lo": self.worst_lo,
            "worst_hi": self.worst_hi,
        }


def audit_single_step(sigma, L, epsilon_tilde, delta, trials,
                      grid_cells=MAX_GRID_CELLS, seed=0):
    """Empirically test the (epsilon_tilde, delta)-DP claim of one noisy step.

    Simulates the one-dimensional mechanism on two neighboring single-point
    datasets whose gradients at the audited iterate differ by exactly L:
    outputs are N(0, sigma^2) versus N(L, sigma^2). The partition is a
    deterministic grid spanning 3 noise units around both means; whatever
    falls outside is lumped into the two outermost (half-line) cells. Each
    partition cell is tested in both directions. The lumping keeps every
    event's expected count large enough that the 3-stderr rule is an honest
    significance test; splitting the far tails into slivers of a few counts
    would make false positives routine.

    Requires trials >= 2000 per grid cell (10^6 at the 500-cell default)
    and a seed that is a non-negative int.
    """
    _check_positive("sigma", sigma)
    _check_positive("L", L)
    _check_positive("epsilon_tilde", epsilon_tilde)
    _check_delta(delta)
    check_seed(seed, "audit_single_step")
    if grid_cells < 3 or grid_cells > MAX_GRID_CELLS:
        raise ConfigurationError(
            f"grid_cells must lie in [3, {MAX_GRID_CELLS}], got {grid_cells}"
        )
    if trials < MIN_TRIALS_PER_CELL * grid_cells:
        raise ConfigurationError(
            f"insufficient trials for {grid_cells} grid cells: need at least "
            f"{MIN_TRIALS_PER_CELL * grid_cells}, got {trials}"
        )

    rng = seeded_streams(seed, 0xA0D1).stream(0)
    out_s = sigma * rng.standard_normal(trials)
    out_sprime = L + sigma * rng.standard_normal(trials)

    lo, hi = audit_grid_range(sigma, L)
    interior = np.linspace(lo, hi, grid_cells - 1)
    edges = np.concatenate([[-np.inf], interior, [np.inf]])
    p_s = np.histogram(out_s, bins=edges)[0] / trials
    p_sp = np.histogram(out_sprime, bins=edges)[0] / trials

    # Row 0 tests each cell as "S against e^eps * S' + delta", row 1 the
    # reverse, each with the binomial stderr of that difference. Variances
    # are clipped at zero: cumulative probabilities can round a hair past 1.
    amp = math.exp(epsilon_tilde)
    p = np.stack([p_s, p_sp])
    var = np.maximum(p * (1.0 - p), 0.0) / trials
    directed = p - amp * p[::-1] - delta
    directed_se = np.sqrt(var + amp * amp * var[::-1])
    # The stderr is never negative, so beating 3 stderrs means a positive
    # violation.
    significant = bool(np.any(directed > 3.0 * directed_se))
    # A cell takes the reverse direction only where it is strictly larger,
    # and the worst cell is the first one at the maximum.
    reverse = directed[1] > directed[0]
    violation = np.where(reverse, directed[1], directed[0])
    stderr = np.where(reverse, directed_se[1], directed_se[0])
    worst = int(np.argmax(violation))
    return AuditResult(max_violation=float(violation[worst]),
                       max_violation_stderr=float(stderr[worst]),
                       significant=significant,
                       worst_lo=float(edges[worst]), worst_hi=float(edges[worst + 1]),
                       edges=edges, p_s=p_s, p_sprime=p_sp, violation=violation)


def audit_grid_range(sigma, L):
    """Interior grid span used by the audit: 3 noise units past both means."""
    margin = AUDIT_RANGE_SIGMAS * sigma
    return min(0.0, L) - margin, max(0.0, L) + margin


def write_audit_csv(result, path):
    """Columns: interval_lo,interval_hi,p_S,p_Sprime,violation."""
    with open(path, "w") as fh:
        fh.write("interval_lo,interval_hi,p_S,p_Sprime,violation\n")
        for row in zip(result.edges[:-1].tolist(), result.edges[1:].tolist(),
                       result.p_s.tolist(), result.p_sprime.tolist(),
                       result.violation.tolist()):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
