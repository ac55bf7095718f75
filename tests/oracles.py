"""Independent reference computations shared by the test modules.

Everything here is deliberately written against closed forms or brute
force, not against the library code paths it is used to check.
"""

import math

import numpy as np

from dpmirror.privacy import audit_grid_range


def phi(x):
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def closed_form_cell_violations(sigma, L, eps, delta, grid_cells):
    """True per-cell violations of the audit partition, from Gaussian CDFs.

    Returns (violations, cell_lo, cell_hi) aligned with the audit's grid.
    """
    lo, hi = audit_grid_range(sigma, L)
    interior = np.linspace(lo, hi, grid_cells - 1)
    edges = np.concatenate([[-np.inf], interior, [np.inf]])

    def cdf(x, mu):
        if not np.isfinite(x):
            return 0.0 if x < 0 else 1.0
        return phi((x - mu) / sigma)

    p_s = np.array([cdf(edges[i + 1], 0.0) - cdf(edges[i], 0.0)
                    for i in range(grid_cells)])
    p_sp = np.array([cdf(edges[i + 1], L) - cdf(edges[i], L)
                     for i in range(grid_cells)])
    amp = math.exp(eps)
    violations = np.maximum(p_s - amp * p_sp, p_sp - amp * p_s) - delta
    return violations, edges[:-1], edges[1:]


def partial_coupon_sum(n):
    """Exact expected stopping time: sum of n/(n-k) for k = 0..floor(n/2)."""
    total = 0.0
    for k in range(n // 2 + 1):
        total += n / (n - k)
    return total


def population_point(spec, rng):
    """One draw from a PopulationSpec's distribution, one point at a time.

    Features come by rejection from the cube [-B, B]^d, B = feature_bound,
    which is uniform on the ball by construction and shares nothing with
    the library's direction-and-radius sampler. Labels follow the spec:
    uniform on [-1, 1], or sign(<w_true, x>) flipped with probability
    noise_rate. Returns (features, label).
    """
    bound = spec.feature_bound
    while True:
        x = rng.uniform(-bound, bound, size=spec.dimension)
        if x @ x <= bound * bound:
            break
    if spec.generator == "uniform_ball":
        return x, rng.uniform(-1.0, 1.0)
    label = 1.0 if spec.w_true @ x >= 0.0 else -1.0
    if rng.random() < spec.noise_rate:
        label = -label
    return x, label
