"""Privacy accountant for the noisy-SGD loop, plus an empirical audit.

calibrate_sigma gives the noise scale that makes one gradient step
(eps_tilde, delta)-DP, the claim the audit checks. end_to_end gives the
whole run's sigma, eta and closed-form guarantee, with the stopping-time
failure mass 2*exp(-n/16) folded into delta. step_size and risk_bound give
eta and the one excess-risk bound at any sigma. from_target splits an
overall (eps_bar, delta_bar) target into the parameters end_to_end takes.

All logarithms are natural. Out-of-regime parameters raise RegimeError
instead of being clamped: a clamped answer would misstate the guarantee.
Accountant functions are pure and safe to call concurrently.

audit_single_step checks the per-step claim by Monte Carlo: it histograms
the two neighbouring outputs on a fixed grid and scores every cell in both
directions at once, as arrays; the per-cell table it returns is those
arrays. Both neighbours share one normal draw (common random numbers), so
each cell's standard error carries the covariance of its two counts. The
draw streams through one block of AUDIT_BLOCK values, sorted in place once
and counted with a searchsorted of the interior edges per neighbour, so the
audit's memory is that one block whatever its trial count. Its counts equal
np.histogram's of sigma*z and L + sigma*z over one whole draw z (see
audit_single_step).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RegimeError, check_count, check_probability, check_real
from .sampler import seeded_streams

# The fewest records end_to_end and from_target cover, and so `run` takes.
MIN_RECORDS = 16
# Audit needs this many trials per grid cell for stable tail estimates.
MIN_TRIALS_PER_CELL = 2000
MAX_GRID_CELLS = 500
# Interior grid half-width in noise units; everything beyond is lumped into
# the two outermost cells so no event has near-zero expected count.
AUDIT_RANGE_SIGMAS = 3.0
# Draws per histogram pass: the audit's memory is one block of this many
# float64s, whatever the trial count.
AUDIT_BLOCK = 1 << 16


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    delta_total: float
    stage: str
    assumptions: tuple = ()


def calibrate_sigma(L, delta, epsilon_tilde):
    """Noise scale making one gradient step (epsilon_tilde, delta)-DP.

    sigma = L * sqrt(3 * ln(1/delta)) / epsilon_tilde, with L the bound on
    gradient norms (the step's sensitivity), a normal float (errors.py).

    Sensitivity: the claim covers neighbouring datasets whose one differing
    gradient is at most L apart, the N(0, sigma^2) against N(L, sigma^2)
    pair that audit_single_step draws. Replace-one neighbours of hinge or
    absolute-loss data can differ by 2L, and the claim then fails.
    """
    L, epsilon_tilde = check_real(L, "L"), check_real(epsilon_tilde, "epsilon_tilde")
    delta = check_probability(delta, "delta")
    return L * math.sqrt(3.0 * math.log(1.0 / delta)) / epsilon_tilde


def epsilon_limit(n):
    """Largest per-record epsilon the end-to-end guarantee covers: 1/(2*sqrt(n))."""
    return 1.0 / (2.0 * math.sqrt(n))


def step_size(n, sigma, L, D, d):
    """The run's step size eta = D / (sqrt(n)*(L + sigma*sqrt(d)))."""
    return D / (math.sqrt(n) * (L + sigma * math.sqrt(d)))


def risk_bound(n, sigma, L, D, d):
    """The run's excess-risk bound 2.5*D*(2*L + sigma*sqrt(d))/sqrt(n).

    At end_to_end's sigma it is exactly the accountant's closed form
    5LD/sqrt(n) + 20LD*sqrt(d*ln(1/delta))/(epsilon*n), which end_to_end
    states as the paper's; written in sigma, it is also defined for a
    sigma_override run, where that epsilon form means nothing.
    """
    return 2.5 * D * (2.0 * L + sigma * math.sqrt(d)) / math.sqrt(n)


@dataclass(frozen=True)
class EndToEndPlan:
    sigma: float
    eta: float
    report: PrivacyReport
    risk_bound: float


def end_to_end(n, epsilon, delta, delta_prime, L, D, d):
    """Full-run parameters and guarantee for a target per-record epsilon.

    Requires n >= MIN_RECORDS and epsilon <= 1/(2*sqrt(n)), which already keeps the
    per-step epsilon_tilde = sqrt(n)*epsilon composed over the run <= 1/2. Returns
      sigma = 8*L*sqrt(ln(1/delta)) / (sqrt(n)*epsilon)
      eta   = D / (sqrt(n)*(L + sigma*sqrt(d)))
    and the guarantee (4*epsilon*(sqrt(ln(1/delta')) + 2),
    delta + delta' + 2*exp(-n/16)), where the exponential term is the
    probability the run fails to stop within 2n steps, and risk_bound at
    this sigma. A delta total of 1 or more rules nothing out, and is
    refused. Every result is a finite, normal float (errors.py, "sigma",
    "eta" and "risk_bound").

    Regime: at the grid's epsilon = 1/(2*sqrt(n)) the privacy term
    20LD*sqrt(d*ln(1/delta))/(epsilon*n) is 40LD*sqrt(d*ln(1/delta))/sqrt(n)
    and shrinks like 1/sqrt(n). At epsilon proportional to 1/n, the regime
    of the paper's optimal rate, it is constant in n.
    """
    n = check_count(n, "end_to_end: n", low=MIN_RECORDS)
    limit = epsilon_limit(n)
    epsilon = check_real(epsilon, "epsilon")
    if epsilon > limit:
        raise RegimeError(
            f"epsilon={epsilon} violates epsilon <= 1/(2*sqrt(n)) = {limit}; "
            "the end-to-end guarantee only covers this regime"
        )
    delta = check_probability(delta, "delta")
    delta_prime = check_probability(delta_prime, "delta_prime")
    delta_total = delta + delta_prime + 2.0 * math.exp(-n / 16.0)
    if not delta_total < 1.0:
        raise ConfigurationError(
            f"delta={delta}, delta_prime={delta_prime} and n={n} give delta_total="
            f"{delta_total} (delta + delta_prime + 2*exp(-n/16)), which must be below 1")
    L, D = check_real(L, "L"), check_real(D, "D")
    d = check_count(d, "d")

    sigma = 8.0 * L * math.sqrt(math.log(1.0 / delta)) / (math.sqrt(n) * epsilon)
    report = PrivacyReport(
        epsilon=4.0 * epsilon * (math.sqrt(math.log(1.0 / delta_prime)) + 2.0),
        delta_total=delta_total,
        stage="end_to_end",
        assumptions=(
            "conditioned on stopping within 2n steps; failure mass "
            "2*exp(-n/16) added to delta",
            "per-step epsilon_tilde = sqrt(n)*epsilon composed over tau = 2n",
        ),
    )
    return EndToEndPlan(sigma=sigma, eta=step_size(n, sigma, L, D, d), report=report,
                        risk_bound=risk_bound(n, sigma, L, D, d))


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
    eps_bar, delta_bar = check_real(eps_bar, "eps_bar"), check_real(delta_bar, "delta_bar")
    n = check_count(n, "from_target: n", low=MIN_RECORDS)
    floor = 6.0 * math.exp(-n / 16.0)
    ceiling = 3.0 * math.exp(-4.0)
    if not floor <= delta_bar <= ceiling:
        raise RegimeError(
            f"delta_bar={delta_bar} violates 6*exp(-n/16) = {floor:.6g} "
            f"<= delta_bar <= 3*e^-4 = {ceiling:.6g}"
        )
    delta = check_probability(delta_bar / 3.0, "delta_bar/3")
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
    any event exceeded three times its own standard error, which counts the
    covariance of the two sides' shared draw (see audit_single_step). The
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

    Requires int trials >= 2000 per grid cell (10^6 at the 500-cell
    default), an int grid_cells in [3, 500], a seed that is a non-negative
    int, and an epsilon_tilde whose e^(2*epsilon_tilde) is finite; anything
    else raises ConfigurationError.

    Both neighbours read one draw z of trials normals: S's outputs are
    sigma*z and S''s are (sigma*z) + L, each value rounded as that
    expression rounds. The draw passes through one reused block of
    AUDIT_BLOCK float64s (512 KB), so memory does not depend on trials.
    Each block is scaled and sorted in place (np.histogram would sort a
    copy) and searched for the interior edges; L is then added in place,
    which keeps the block sorted, as x -> x + L rounds monotonically, and
    the edges are searched again. The two searches add to each side's
    counts below each edge, and one diff per side gives the cells. The
    counts are np.histogram's of sigma*z and of L + sigma*z, byte for byte:
    the Generator keeps no normal between calls, so the blocks concatenate
    to z; cell k holds edges[k] <= x < edges[k + 1] in both (np.histogram
    also closes the last cell at +inf, which no finite draw reaches); and
    the blocks' integer counts add exactly. The two searches also give, per
    cell, the draws whose two outputs both land in it: the overlap of the
    cell's two runs of sorted positions.

    Each cell is scored as "S against e^eps * S' + delta" and the reverse.
    The standard error of p - e^eps * p' is the coupled one,
    sqrt([p(1-p) + e^(2 eps) p'(1-p') - 2 e^eps (p_both - p p')] / trials),
    with p_both the share of draws in the cell on both sides. Dropping the
    covariance would overstate it wherever cells are wider than L (2.8x in
    variance at sigma = 30, L = 1, eps = 0.5) and make the test blind.
    """
    sigma, L = check_real(sigma, "sigma"), check_real(L, "L")
    epsilon_tilde = check_real(epsilon_tilde, "epsilon_tilde")
    delta = check_probability(delta, "delta")
    seed = check_count(seed, "audit_single_step: seed", low=0, high=None)
    grid_cells = check_count(grid_cells, "grid_cells", low=3, high=MAX_GRID_CELLS)
    trials = check_count(trials, f"trials for {grid_cells} grid cells",
                         low=MIN_TRIALS_PER_CELL * grid_cells)
    # The stderr weighs a variance by e^(2*epsilon_tilde); math.exp itself
    # overflows past 709.78.
    amp = math.exp(min(epsilon_tilde, 709.0))
    if not math.isfinite(amp * amp):
        raise ConfigurationError(f"epsilon_tilde={epsilon_tilde}: e^(2*epsilon_tilde) overflows")
    margin = AUDIT_RANGE_SIGMAS * sigma
    interior = np.linspace(min(0.0, L) - margin, max(0.0, L) + margin, grid_cells - 1)
    edges = np.concatenate([[-np.inf], interior, [np.inf]])

    rng = seeded_streams(seed, 0xA0D1).stream(0)
    block = np.empty(min(trials, AUDIT_BLOCK))
    # Per side, the sorted positions that start each cell, then the block's
    # size; the positions of cell k run from bounds[:, k] to bounds[:, k + 1].
    bounds = np.zeros((2, grid_cells + 1), dtype=np.int64)
    below = np.zeros((2, grid_cells - 1), dtype=np.int64)   # draws below each interior edge
    both = np.zeros(grid_cells, dtype=np.int64)              # draws in the cell on both sides
    for start in range(0, trials, AUDIT_BLOCK):
        part = block[:min(AUDIT_BLOCK, trials - start)]
        rng.standard_normal(out=part)
        part *= sigma
        part.sort()
        bounds[0, 1:-1] = part.searchsorted(interior)
        part += L
        bounds[1, 1:-1] = part.searchsorted(interior)
        bounds[:, -1] = part.size
        below += bounds[:, 1:-1]
        both += np.maximum(bounds[:, 1:].min(axis=0) - bounds[:, :-1].max(axis=0), 0)
    counts = np.diff(below, prepend=0, append=trials)

    # Row 0 tests each cell as "S against e^eps * S' + delta", row 1 the
    # reverse, each with the coupled stderr of that difference. The variance
    # is clipped at zero: it is one of a difference, which rounding can take
    # a hair below.
    p = counts / trials
    p_s, p_sp = p
    var = p * (1.0 - p)
    cov = both / trials - p_s * p_sp
    directed = p - amp * p[::-1] - delta
    directed_se = np.sqrt(np.maximum(var + amp * amp * var[::-1] - 2.0 * amp * cov, 0.0)
                          / trials)
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
