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


def audit_cells_reference(p_s, p_sprime, edges, eps, delta, trials):
    """The audit's verdict from its cell probabilities, one cell at a time.

    Each cell is tested as "a against e^eps * b + delta" for (a, b) =
    (p_S, p_S') and then the reverse, with the binomial stderr of that
    difference. A cell keeps the reverse only where it is strictly larger,
    the first cell at the maximum is the worst, and any direction above 0
    and above 3 stderrs is significant. Returns the per-cell violations and
    (max_violation, stderr, worst_lo, worst_hi, significant).
    """
    amp = math.exp(eps)
    best = (-math.inf, 0.0, None, None)
    significant = False
    violations = []
    for i in range(len(p_s)):
        worst = (-math.inf, 0.0)
        for a, b in ((float(p_s[i]), float(p_sprime[i])),
                     (float(p_sprime[i]), float(p_s[i]))):
            v = a - amp * b - delta
            var_a = max(a * (1.0 - a), 0.0) / trials
            var_b = max(b * (1.0 - b), 0.0) / trials
            se = math.sqrt(var_a + amp * amp * var_b)
            if v > worst[0]:
                worst = (v, se)
            if v > 0.0 and v > 3.0 * se:
                significant = True
        if worst[0] > best[0]:
            best = (worst[0], worst[1], float(edges[i]), float(edges[i + 1]))
        violations.append(worst[0])
    return np.array(violations), (*best, significant)


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


def project_ball(center, radius, x):
    """Euclidean projection onto a ball: radial scaling of x - center."""
    off = x - center
    norm = math.sqrt(float(off @ off))
    if norm <= radius:
        return x
    return center + off * (radius / norm)


def project_box(lower, upper, x):
    """Euclidean projection onto a box: coordinatewise clamp."""
    return np.minimum(np.maximum(x, lower), upper)


def plain_loss(kind, w, features, label):
    """Loss of one (w, x, y) point, written out from the closed forms."""
    z = float(w @ features)
    if kind == "hinge":
        return max(0.0, 1.0 - label * z)
    if kind == "absolute":
        return abs(z - label)
    return 0.5 * (z - label) ** 2


def plain_subgradient(kind, w, features, label):
    """Subgradient in w at one (w, x, y) point; the extreme -y*x at the hinge kink."""
    z = float(w @ features)
    if kind == "hinge":
        return -label * features if label * z <= 1.0 else np.zeros_like(features)
    if kind == "absolute":
        return float(np.sign(z - label)) * features
    return (z - label) * features


def points_away_from_kinks(rng, count):
    """count (w, x, y) rows, stacked, whose margin is 1e-3 clear of both kinks.

    w is uniform on [-2, 2]^3, x a unit vector, y = +-1; rows with
    |y*<w, x> - 1| or |<w, x> - y| below 1e-3 are redrawn.
    """
    w = np.empty((0, 3))
    feats = np.empty((0, 3))
    labels = np.empty(0)
    while len(labels) < count:
        w_new = rng.uniform(-2.0, 2.0, size=(count, 3))
        x_new = rng.normal(size=(count, 3))
        x_new /= np.linalg.norm(x_new, axis=1)[:, None]
        y_new = rng.choice([-1.0, 1.0], size=count)
        z = np.sum(w_new * x_new, axis=1)
        keep = (np.abs(y_new * z - 1.0) >= 1e-3) & (np.abs(z - y_new) >= 1e-3)
        w = np.concatenate([w, w_new[keep]])
        feats = np.concatenate([feats, x_new[keep]])
        labels = np.concatenate([labels, y_new[keep]])
    return w[:count], feats[:count], labels[:count]


def empirical_risks(kind, points, features, labels, block=16):
    """Mean loss over an (m, d) sample of each row of points (k, d).

    The losses are written out from their closed forms; block rows of
    points are scored at a time to keep the (m, block) margins small.
    """
    risks = np.empty(len(points))
    y = labels[:, None]
    for start in range(0, len(points), block):
        z = features @ points[start:start + block].T
        if kind == "hinge":
            values = np.maximum(0.0, 1.0 - y * z)
        elif kind == "absolute":
            values = np.abs(z - y)
        else:
            values = 0.5 * (z - y) ** 2
        risks[start:start + block] = values.mean(axis=0)
    return risks


def grid_minimum(kind, inside, lower, upper, features, labels, points, rounds=6):
    """Smallest empirical risk found on grids of a set K: at least min over K.

    The first grid has `points` points per axis across the bounding box
    [lower, upper] of K; each later round centres a grid of the same size
    and a third of the width on the best point so far. Only grid points
    with inside(points) true are scored, so the result is the risk of a
    point of K and never below the minimum over K.
    """
    best, centre = math.inf, (np.asarray(lower) + np.asarray(upper)) / 2.0
    half = (np.asarray(upper) - np.asarray(lower)) / 2.0
    for _ in range(rounds):
        axes = [np.linspace(c - h, c + h, points) for c, h in zip(centre, half)]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(axes))
        grid = grid[inside(grid)]
        risks = empirical_risks(kind, grid, features, labels)
        if len(risks) and risks.min() < best:
            best, centre = float(risks.min()), grid[np.argmin(risks)]
        half = half / 3.0
    return best
