"""Independent reference computations shared by the test modules.

Everything here is deliberately written against closed forms or brute
force, not against the library code paths it is used to check; only
engine_matches_stepwise runs the engine, to hold it to stepwise_run.
"""

import math

import numpy as np

from dpmirror.optimizer import private_sgd_batch


def phi(x):
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def closed_form_cell_violations(sigma, L, eps, delta, grid_cells):
    """True per-cell violations of the audit partition, from Gaussian CDFs.

    Returns (violations, cell_lo, cell_hi) aligned with the audit's grid,
    whose interior spans 3 noise units past both means.
    """
    interior = np.linspace(min(0.0, L) - 3.0 * sigma, max(0.0, L) + 3.0 * sigma,
                           grid_cells - 1)
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


def audit_draws(sigma, L, trials, seed):
    """The audit's outputs (S, S'), drawn whole by numpy's own seeding.

    As the README states it: one draw z of trials normals from
    default_rng(SeedSequence([seed, 0xA0D1])) serves both sides, S's
    outputs are sigma*z and S''s are L + sigma*z.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA0D1]))
    out_s = sigma * rng.standard_normal(trials)
    return out_s, L + out_s


def audit_counts_reference(sigma, L, trials, edges, seed):
    """The audit's (p_S, p_S'): np.histogram of audit_draws on its edges."""
    return tuple(np.histogram(out, bins=edges)[0] / trials
                 for out in audit_draws(sigma, L, trials, seed))


def audit_cells_reference(out_s, out_sprime, edges, eps, delta):
    """The audit's verdict on paired draws, one cell at a time.

    Each draw's cell on either side comes from np.digitize, and a cell's
    joint count is the draws whose two cells are both it. Each cell is
    tested as "a against e^eps * b + delta" for (a, b) = (p_S, p_S') and
    then the reverse, with the coupled stderr of that difference,
    sqrt(max(var_a + e^(2 eps) var_b - 2 e^eps cov, 0) / trials), where
    var_a = a(1 - a) and cov = p_both - p_S p_S'. A cell keeps the reverse
    only where it is strictly larger, the first cell at the maximum is the
    worst, and any direction above 0 and above 3 stderrs is significant.
    Returns the per-cell violations and (max_violation, stderr, worst_lo,
    worst_hi, significant).
    """
    trials, cells = len(out_s), len(edges) - 1
    cell_s, cell_sprime = np.digitize(out_s, edges) - 1, np.digitize(out_sprime, edges) - 1
    count_s = np.bincount(cell_s, minlength=cells).tolist()
    count_sprime = np.bincount(cell_sprime, minlength=cells).tolist()
    count_both = np.bincount(cell_s[cell_s == cell_sprime], minlength=cells).tolist()
    amp = math.exp(eps)
    best = (-math.inf, 0.0, None, None)
    significant = False
    violations = []
    for i in range(cells):
        p_s, p_sprime = count_s[i] / trials, count_sprime[i] / trials
        cov = count_both[i] / trials - p_s * p_sprime
        worst = (-math.inf, 0.0)
        for a, b in ((p_s, p_sprime), (p_sprime, p_s)):
            v = a - amp * b - delta
            var = a * (1.0 - a) + amp * amp * (b * (1.0 - b)) - 2.0 * amp * cov
            se = math.sqrt(max(var, 0.0) / trials)
            if v > worst[0]:
                worst = (v, se)
            if v > 0.0 and v > 3.0 * se:
                significant = True
        if worst[0] > best[0]:
            best = (worst[0], worst[1], float(edges[i]), float(edges[i + 1]))
        violations.append(worst[0])
    return np.array(violations), (*best, significant)


def exact_cell_probabilities(sigma, L, grid_cells):
    """Per audit cell [lo, hi): P[sigma*Z in it], P[L + sigma*Z in it] and
    P[both], Z standard normal, from scipy.stats.norm.cdf.

    Both outputs land in [lo, hi) when sigma*Z is in [lo, hi - L) for L > 0.
    """
    from scipy.stats import norm

    interior = np.linspace(min(0.0, L) - 3.0 * sigma, max(0.0, L) + 3.0 * sigma,
                           grid_cells - 1)
    lo = np.concatenate([[-np.inf], interior])
    hi = np.concatenate([interior, [np.inf]])
    p_s = norm.cdf(hi / sigma) - norm.cdf(lo / sigma)
    p_sprime = norm.cdf((hi - L) / sigma) - norm.cdf((lo - L) / sigma)
    p_both = np.maximum(norm.cdf((hi - L) / sigma) - norm.cdf(lo / sigma), 0.0)
    return p_s, p_sprime, p_both


def directed_variances(p_s, p_sprime, p_both, eps, trials):
    """Exact variances of p_S - e^eps p_S' and of p_S' - e^eps p_S, as rows,
    over trials paired draws and, as a second (2, cells) array, over trials
    independent draws per side."""
    amp = math.exp(eps)
    var = np.array([p_s * (1.0 - p_s), p_sprime * (1.0 - p_sprime)])
    independent = (var + amp * amp * var[::-1]) / trials
    return independent - 2.0 * amp * (p_both - p_s * p_sprime) / trials, independent


class CyclingStreams:
    """A stand-in for sampler.seeded_streams: every stream it gives fills
    standard_normal(out=...) with `values` repeated from the start, and
    `sizes` records each call's size."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.sizes = []

    def __call__(self, *parts):
        return self

    def stream(self, row):
        return self

    def standard_normal(self, out):
        self.sizes.append(out.size)
        out[:] = np.resize(self.values, out.size)


def partial_coupon_sum(n):
    """Exact expected stopping time: sum of n/(n-k) for k = 0..floor(n/2)."""
    total = 0.0
    for k in range(n // 2 + 1):
        total += n / (n - k)
    return total


def stopping_tail(n, steps):
    """P(tau > t) for t = 0..steps, tau the step of the (n//2+1)-th distinct
    index among uniform draws from n values.

    tau is a sum of independent geometric waits: the first draw is fresh,
    and with k values seen the next fresh one takes G >= 1 draws, P(G > g) =
    (k/n)^g, for k = 1..n//2. Each wait is convolved into the pmf f of the
    sum so far, S, on 0..steps: with r = k/n and a[t] = sum over s <= t of
    f[s] r^(t-s), a first-order recurrence (scipy's lfilter),
        P(S + G > t) = P(S > t) + a[t],   P(S + G = t) = (1 - r) a[t-1].
    Every term is non-negative, so a tail far below 1 keeps its relative
    precision: no 1 - cdf is formed.
    """
    from scipy.signal import lfilter

    pmf = np.zeros(steps + 1)
    pmf[1] = 1.0
    tail = np.ones(steps + 1)
    tail[1:] = 0.0
    for k in range(1, n // 2 + 1):
        r = k / n
        acc = lfilter([1.0], [1.0, -r], pmf)
        tail += acc
        pmf[0] = 0.0
        pmf[1:] = (1.0 - r) * acc[:-1]
    return tail


def row_losses(oracle, w, features, labels):
    """The oracle's loss for each stacked (w, x, y) row."""
    return oracle.loss_at(np.einsum("...i,...i->...", w, features), labels)


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


def dot(a, b):
    """<a, b> as plain Python floats, summed left to right from 0.0.

    For d <= 2 this rounds exactly as the engine's np.einsum dot products
    do, signed zeros included; at d = 3 einsum may sum in another order.
    """
    total = 0.0
    for x, y in zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        total += x * y
    return total


def project_ball(radius, x):
    """Euclidean projection onto the ball of the given radius about 0: radial scaling of x."""
    norm = math.sqrt(dot(x, x))
    if norm <= radius:
        return x
    return x * (radius / norm)


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
    z = dot(w, features)
    if kind == "hinge":
        return -label * features if label * z <= 1.0 else np.zeros_like(features)
    if kind == "absolute":
        return float(np.sign(z - label)) * features
    return (z - label) * features


def stepwise_run(n, eta, sigma, w1, seed, features, labels, project, subgradient):
    """One private run as the per-step loop: the paper's algorithm, one step
    at a time.

    The index and noise streams are the two children of
    np.random.SeedSequence(seed).spawn(2). Each step draws one index by
    integers(0, n) and one standard_normal(d) noise vector. An index not yet
    in the Python set of seen indices is fresh: the step takes
    subgradient(w, x, y) + noise at the current iterate w, which is kept. A
    repeat steps against the noise alone. Every step ends with project(w).
    The run stops once more than n/2 indices are seen.

    Returns (tau, fresh indices, fresh-step iterates, fresh-step margins,
    output), where a margin is dot(w, x) of the step's iterate and features
    and the output is the mean of the fresh-step iterates, summed in step
    order.
    """
    index_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    index_rng = np.random.default_rng(index_seq)
    noise_rng = np.random.default_rng(noise_seq)
    w = np.array(w1, dtype=float)
    seen, fresh_indices, fresh_iterates, margins, tau = set(), [], [], [], 0
    while len(seen) <= n // 2:
        i = int(index_rng.integers(0, n))
        g = sigma * noise_rng.standard_normal(len(w))
        if i not in seen:
            seen.add(i)
            fresh_indices.append(i)
            fresh_iterates.append(w)
            margins.append(dot(w, features[i]))
            g = subgradient(w, features[i], labels[i]) + g
        w = project(w - eta * g)
        tau += 1
    total = np.zeros(len(w))
    for iterate in fresh_iterates:
        total = total + iterate
    return (tau, np.array(fresh_indices), np.array(fresh_iterates), np.array(margins),
            total / len(seen))


def engine_matches_stepwise(config, seeds, features, labels):
    """private_sgd_batch of config on the stacked (R, n, d) features and
    (R, n) labels, after asserting that each row's tau, fresh indices,
    fresh margins and output equal stepwise_run's bit for bit. The
    reference projects onto config's set by project_ball or project_box
    and steps by plain_subgradient of config's loss kind. Returns the
    batch and the reference's (R, m, d) fresh-step iterates, which the
    batch does not hold."""
    fs, kind = config.feasible_set, config.oracle.kind
    if fs.kind == "l2_ball":
        project = lambda x: project_ball(fs.radius, x)  # noqa: E731
    else:
        project = lambda x: project_box(fs.lower, fs.upper, x)  # noqa: E731
    batch = private_sgd_batch(config, seeds, features, labels)
    iterates = []
    for r, seed in enumerate(seeds):
        tau, indices, held, margins, output = stepwise_run(
            config.n, config.eta, config.sigma, config.w1, seed, features[r], labels[r],
            project, lambda w, x, y: plain_subgradient(kind, w, x, y))
        assert batch.tau[r] == tau, (seed, batch.tau[r], tau)
        assert batch.fresh_indices[r].tobytes() == indices.tobytes(), seed
        assert batch.fresh_margins[r].tobytes() == margins.tobytes(), seed
        assert batch.output[r].tobytes() == output.tobytes(), seed
        iterates.append(held)
    return batch, np.stack(iterates)


def run_repeat_streams(seed, n_idx, e_idx, repeat):
    """A `run` repeat's dataset generator and run seed, by numpy's own seeding.

    As the README states them: the dataset is drawn from
    default_rng(SeedSequence([seed, n_idx, e_idx, repeat, 0])), and the run
    seed is SeedSequence([seed, n_idx, e_idx, repeat, 1]).generate_state(1,
    uint64)[0]. Returns (generator, run seed as a Python int).
    """
    key = [seed, n_idx, e_idx, repeat]
    data = np.random.default_rng(np.random.SeedSequence(key + [0]))
    run_seed = np.random.SeedSequence(key + [1]).generate_state(1, np.uint64)[0]
    return data, int(run_seed)


def fresh_rows(batch, features, labels):
    """The (R, m, d) features and (R, m) labels each fresh step of batch read
    from the stacked (R, n, d), (R, n) datasets it ran on, in step order."""
    index = np.asarray(batch.fresh_indices)
    return (np.take_along_axis(np.asarray(features), index[..., None], axis=1),
            np.take_along_axis(np.asarray(labels), index, axis=1))


def read_cells_csv(path):
    """cells.csv as (baseline_risk, [one dict of column -> text per cell])."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    (baseline,) = [line for line in lines if line.startswith("# baseline_risk=")]
    baseline_risk = float(baseline.split()[1].partition("=")[2])
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return baseline_risk, [dict(zip(header, row, strict=True)) for row in rows]


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


def grid_minimum(risks, inside, lower, upper, points, rounds=6):
    """Smallest risk found on grids of a set K: at least min over K.

    risks maps a (k, d) array of points to their k risks. The first grid
    has `points` points per axis across the bounding box [lower, upper] of
    K; each later round centres a grid of the same size and a third of the
    width on the best point so far. Only grid points with inside(points)
    true are scored, so the result is the risk of a point of K and never
    below the minimum over K.
    """
    best, centre = math.inf, (np.asarray(lower) + np.asarray(upper)) / 2.0
    half = (np.asarray(upper) - np.asarray(lower)) / 2.0
    for _ in range(rounds):
        axes = [np.linspace(c - h, c + h, points) for c, h in zip(centre, half)]
        grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(axes))
        grid = grid[inside(grid)]
        values = np.asarray(risks(grid))
        if len(values) and values.min() < best:
            best, centre = float(values.min()), grid[np.argmin(values)]
        half = half / 3.0
    return best


def plain_losses(kind, z, y):
    """Loss and z-slope at one margin z and label y, written out from the
    closed forms (the slope is 0 at a kink)."""
    if kind == "hinge":
        return (1.0 - y * z, -y) if y * z < 1.0 else (0.0, 0.0)
    if kind == "absolute":
        return abs(z - y), (z > y) - (z < y)
    return 0.5 * (z - y) ** 2, z - y


def quadrature_risk(spec, kind, w, tol=1e-11):
    """Population risk and gradient of w by scipy's adaptive quadrature.

    x/B, B = feature_bound, is uniform in the unit d-ball. In Cartesian
    coordinates (s, t) on w's direction and the direction across it in the
    plane of w and w_true, (s, t) has the density
    (d/2pi)(1 - s^2 - t^2)^((d-2)/2) on the unit disk for d >= 2, s alone
    the density proportional to (1 - s^2)^((d-1)/2), and the loss depends
    on x only through the margin B*|w|*s. Sign labels (linear_margin) flip
    on the line <w_true, x> = 0; uniform labels y are a second coordinate
    on (-1, 1). Each integral is a sum of dblquad calls over regions cut
    where the integrand has a kink or jump: the loss kinks in s (or in y),
    and the label line, as the inner limit t_c(s). For d = 1 the risk is a
    quad integral over s. The gradient is B*(E[slope*s] on w's direction +
    E[slope*t] across); no other direction contributes, by symmetry.
    Shares no code with dpmirror.
    """
    from scipy import integrate

    d, bound = spec.dimension, spec.feature_bound
    w = np.asarray(w, dtype=float)
    norm = math.sqrt(float(w @ w))
    k = bound * norm
    signed = spec.generator == "linear_margin"
    true_norm = math.sqrt(float(spec.w_true @ spec.w_true)) if signed else 0.0
    axis = spec.w_true / true_norm if true_norm > 0 else None
    e_s = w / norm if norm > 0 else (axis if axis is not None else np.eye(d)[0])
    cuts = {-1.0, 0.0, 1.0} | ({-1.0 / k, 1.0 / k} if k > 1 else set())
    cos_a, sin_a, e_t = 1.0, 0.0, np.zeros(d)
    if axis is not None:
        cos_a = float(axis @ e_s)
        across = axis - cos_a * e_s
        sin_a = math.sqrt(float(across @ across))
        if sin_a > 0:
            e_t = across / sin_a
            cuts |= {-sin_a, sin_a}
    cuts = sorted(cuts)
    p = spec.noise_rate
    opts = {"epsabs": tol, "epsrel": tol}

    if not signed:
        total = integrate.quad(lambda s: (1.0 - s * s) ** ((d - 1) / 2.0), -1, 1,
                               epsabs=tol, epsrel=tol)[0]

        def kink(s):   # the y at which the loss of margin k*s bends
            z = k * s
            y = z if kind == "absolute" else (1.0 / z if abs(z) > 1 else 1.0)
            return min(1.0, max(-1.0, y))

        moments = []
        for part in range(2):
            def f(y, s):
                value, slope = plain_losses(kind, k * s, y)
                weight = (1.0 - s * s) ** ((d - 1) / 2.0) / (2.0 * total)
                return weight * (value if part == 0 else bound * slope * s)
            moments.append(sum(
                integrate.dblquad(f, lo, hi, -1.0, kink, **opts)[0]
                + integrate.dblquad(f, lo, hi, kink, 1.0, **opts)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:])))
        return moments[0], moments[1] * e_s

    def mixed(s, t):
        # Loss and slope at margin k*s, averaged over the label's flip; the
        # label before the flip is +1 where <w_true, x> >= 0.
        sign = 1.0 if axis is None or s * cos_a + t * sin_a >= 0.0 else -1.0
        first, first_slope = plain_losses(kind, k * s, sign)
        second, second_slope = plain_losses(kind, k * s, -sign)
        return (1 - p) * first + p * second, (1 - p) * first_slope + p * second_slope

    def edge(s):
        return math.sqrt(max(1.0 - s * s, 0.0))

    def t_c(s):   # the label line, clipped to the chord
        if sin_a == 0:
            return edge(s)
        return min(edge(s), max(-edge(s), -s * cos_a / sin_a))

    moments = []
    for part in range(3):
        def f(t, s):
            value, slope = mixed(s, t)
            if d == 1:
                weight = 0.5
            else:
                weight = d / (2 * math.pi) * max(1.0 - s * s - t * t, 0.0) ** ((d - 2) / 2.0)
            return weight * (value, bound * slope * s, bound * slope * t)[part]

        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if d == 1:
                total += integrate.quad(lambda s: f(0.0, s), lo, hi, **opts)[0]
                continue
            total += integrate.dblquad(f, lo, hi, lambda s: -edge(s), t_c, **opts)[0]
            total += integrate.dblquad(f, lo, hi, t_c, edge, **opts)[0]
        moments.append(total)
    return moments[0], moments[1] * e_s + moments[2] * e_t
