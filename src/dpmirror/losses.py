"""Instantaneous convex losses, their subgradients, and synthetic populations.

Three loss families are provided: hinge and absolute (non-smooth, globally
Lipschitz once features are bounded) and squared (smooth, Lipschitz only on
a bounded iterate set). Feature vectors are norm-bounded at generation time,
which is what makes the Lipschitz certificates valid; max_subgradient_norm
checks that bound on a given dataset.

The oracle works on arrays only: loss_at and slope_at take margins
z = <w, x>, subgradient takes one (d,) point or stacked (..., d) rows, and
batch_values scores one w against a feature array. A dataset is the
(features, labels) array pair. population_risk gives the exact population
risk of a point and its gradient, and risk_curvature a bound on that
gradient's Lipschitz constant.

Seeded outputs must not depend on the CPU features numpy dispatches to.
Arithmetic, sqrt, sin, cos, hypot and float_power give the same float64
bits with and without numpy's AVX-512 loops, and so does math.asin, which
_arcsin applies elementwise; numpy's power (bar its ** 2 and ** 0.5 fast
paths), exp, log, arcsin and their kin do not, so none is used here.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, as_real, check_count, check_parameter_vector,
                     check_real, check_reals)
from .geometry import dot

HINGE = "hinge"
ABSOLUTE = "absolute"
SQUARED = "squared"
LOSS_KINDS = (HINGE, ABSOLUTE, SQUARED)

LINEAR_MARGIN = "linear_margin"
UNIFORM_BALL = "uniform_ball"


def _arcsin(x):
    """math.asin of each element of x clipped to [-1, 1]: np.arcsin without
    numpy's CPU dispatch (see the module docstring)."""
    x = np.clip(x, -1.0, 1.0)
    return np.fromiter(map(math.asin, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _worst_subgradient(kind, norms, labels, feasible_set):
    """Largest subgradient norm at any w in the set of a row with feature norm
    ||x|| and label y: |y|*||x|| for hinge, ||x|| for absolute, and
    (set.max_norm()*||x|| + |y|)*||x|| for squared."""
    if kind == HINGE:
        return abs(labels) * norms
    if kind == ABSOLUTE:
        return norms
    return (feasible_set.max_norm() * norms + abs(labels)) * norms


def lipschitz_certificate(kind, feature_bound, feasible_set=None):
    """Uniform bound on subgradient norms for the given loss family.

    It is the bound max_subgradient_norm applies to a row, by the same
    operations, at ||x|| = feature_bound and |y| = 1, the largest label
    either population draws. Hinge and absolute losses are globally
    Lipschitz once features are bounded; the squared loss is not, so its
    certificate needs the iterate set and is valid only on it. A certificate
    outside the range of a real parameter (errors.check_real) is refused.
    """
    feature_bound = check_real(feature_bound, "lipschitz_certificate: feature_bound")
    if kind == SQUARED and feasible_set is None:
        raise ConfigurationError(
            "squared loss has no global Lipschitz constant; pass the feasible set")
    if kind not in LOSS_KINDS:
        raise ConfigurationError(f"unknown loss kind {kind!r}")
    return check_real(_worst_subgradient(kind, feature_bound, 1.0, feasible_set),
                      f"lipschitz_certificate: the {kind} loss's L at "
                      f"feature_bound={feature_bound}")


@dataclass(frozen=True)
class LossOracle:
    """A loss family together with its certified Lipschitz constant.

    Built with a kind loss_at does not know (it would score it as squared)
    or an L that is not finite and positive (check_rows would pass every
    row at a NaN L), it raises ConfigurationError.
    """

    kind: str
    lipschitz_L: float

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.kind!r}")
        object.__setattr__(self, "lipschitz_L",
                           check_real(self.lipschitz_L, "LossOracle: lipschitz_L"))

    @classmethod
    def hinge(cls, feature_bound):
        return cls(HINGE, lipschitz_certificate(HINGE, feature_bound))

    @classmethod
    def absolute(cls, feature_bound):
        return cls(ABSOLUTE, lipschitz_certificate(ABSOLUTE, feature_bound))

    @classmethod
    def squared(cls, feature_bound, feasible_set):
        return cls(SQUARED, lipschitz_certificate(SQUARED, feature_bound, feasible_set))

    def loss_at(self, z, labels, out=None):
        """Loss as a function of the margin z = <w, x>, elementwise.

        Written into out (it may be z itself) or one new array: each ufunc
        works in place there, so scoring a batch holds one array of the
        margins' shape, not one per operation. Scalars give a scalar.
        """
        if out is None:
            out = np.empty(np.broadcast(z, labels).shape)
        if self.kind == HINGE:
            np.multiply(labels, z, out=out)
            np.subtract(1.0, out, out=out)
            np.maximum(0.0, out, out=out)
        elif self.kind == ABSOLUTE:
            np.abs(np.subtract(z, labels, out=out), out=out)
        else:
            # numpy computes ** 2 as square.
            np.square(np.subtract(z, labels, out=out), out=out)
            np.multiply(0.5, out, out=out)
        return out[()]

    def slope_at(self, z, labels):
        """d loss / d z at the margin z, elementwise; a subgradient in w is slope * x.

        At the hinge kink (margin exactly 1) the slope is -label, giving the
        extreme subgradient -label*features; at the absolute-loss kink, zero.
        """
        if self.kind == HINGE:
            # -label where the margin label*z is at most 1, else 0.
            return -labels * (labels * z <= 1.0)
        if self.kind == ABSOLUTE:
            return np.sign(z - labels)
        return z - labels

    def fixed_slopes(self, labels, reach):
        """The slope slope_at gives every row at every w the set holds, or None.

        reach() returns each row's bound on |<w, x>| (FeasibleSet.reach).
        Where every row has |y| * reach <= 1, the hinge is linear in w on the
        set, with slope -y; where every row has reach < |y|, so is the
        absolute loss, with slope sign(-y). Otherwise, and always for the
        squared loss, whose slope follows w, the result is None; the squared
        loss never calls reach.
        """
        if self.kind == SQUARED:
            return None
        size = np.abs(labels)
        if self.kind == HINGE:
            with np.errstate(invalid="ignore"):   # 0 * an overflowed reach
                fixed = (size * reach() <= 1.0).all()
            return -labels if fixed else None
        return np.sign(-labels) if (reach() < size).all() else None

    def subgradient(self, w, features, labels):
        """slope_at(<w, x>, y) * x, an element of the subdifferential in w.

        w and features are one (d,) point or stacked (..., d) rows, labels
        the matching scalar or (...,) array. No input checks: this is the
        optimizer's per-step subgradient, whose inputs are checked once at
        run entry.
        """
        z = np.einsum("...i,...i->...", w, features)
        return self.slope_at(z, labels)[..., None] * features

    def max_subgradient_norm(self, features, labels, feasible_set):
        """Largest subgradient norm any (x, y) row can give at any w in the set.

        A row above lipschitz_L would break the sensitivity the accountant
        assumes. One pass over stacked (..., d) features and (...,) labels; a
        norm that overflows gives inf, or NaN beside a zero label.
        """
        norms = np.sqrt(np.einsum("...i,...i->...", features, features))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_worst_subgradient(self.kind, norms, np.asarray(labels),
                                            feasible_set).max())

    def batch_values(self, w, features, labels):
        """loss_at at the margins <x, w> of one w against stacked (..., d)
        features, summed by einsum, not BLAS (see geometry.dot)."""
        z = np.asarray(np.einsum("...i,i->...", np.asarray(features, dtype=float),
                                 np.asarray(w, dtype=float)))
        return self.loss_at(z, np.asarray(labels, dtype=float), out=z)


@dataclass(frozen=True)
class PopulationSpec:
    """Synthetic data distribution: feature draw plus labeling rule.

    linear_margin: features uniform in the ball of radius feature_bound,
    label = sign(<w_true, features>) flipped with probability noise_rate.
    uniform_ball: same features, label drawn uniformly from [-1, 1]
    (a regression-style population for the absolute/squared losses); it
    takes no w_true, and a noise_rate of 0 only.
    """

    generator: str
    dimension: int
    feature_bound: float
    w_true: np.ndarray = None
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.generator not in (LINEAR_MARGIN, UNIFORM_BALL):
            raise ConfigurationError(f"unknown generator {self.generator!r}")
        d = check_count(self.dimension, "PopulationSpec: dimension")
        fields = {"dimension": d,
                  "feature_bound": check_real(self.feature_bound, "feature_bound"),
                  "noise_rate": as_real(self.noise_rate, "noise_rate")}
        if not 0.0 <= fields["noise_rate"] <= 1.0:
            raise ConfigurationError(f"noise_rate must lie in [0, 1], got {self.noise_rate!r}")
        if self.generator == LINEAR_MARGIN:
            if self.w_true is None:
                raise ConfigurationError("linear_margin requires w_true")
            fields["w_true"] = check_parameter_vector(self.w_true, d, "w_true")
        elif self.w_true is not None or fields["noise_rate"] != 0.0:
            raise ConfigurationError("uniform_ball: w_true and noise_rate not read")
        for field, value in fields.items():
            object.__setattr__(self, field, value)


def draw_arrays(spec, n, rng):
    """A dataset of n i.i.d. draws: (features, labels) arrays of shape (n, d), (n,).

    All randomness comes from the generator rng, so the same seeded rng
    gives the same dataset. Features are uniform in the ball of radius
    spec.feature_bound: a Gaussian direction scaled to radius
    feature_bound * U**(1/d).
    """
    check_count(n, "draw_arrays: n")
    features = rng.standard_normal((n, spec.dimension))
    norms = np.sqrt(dot(features, features))
    norms[norms == 0.0] = 1.0
    radii = spec.feature_bound * np.float_power(rng.random(n), 1.0 / spec.dimension)
    # Scaled in place: the same products, without a second (n, d) array.
    features *= (radii / norms)[:, None]
    if spec.generator == UNIFORM_BALL:
        return features, rng.uniform(-1.0, 1.0, size=n)
    labels = np.where(np.einsum("ij,j->i", features, spec.w_true) >= 0.0, 1.0, -1.0)
    if spec.noise_rate > 0.0:
        flips = rng.random(n) < spec.noise_rate
        labels = np.where(flips, -labels, labels)
    return features, labels


# A dataset is the (features, labels) array pair; this is its public name.
draw_dataset = draw_arrays


# Gauss-Legendre nodes per piece of population_risk's integral.
RISK_NODES = 48
# Stated bound on population_risk's quadrature error, in units of the loss
# scale (1 + B*||w||)^2 for F and B*(1 + B*||w||) for the gradient.
RISK_QUADRATURE_BOUND = 1e-10


@functools.cache
def _mapped_rule(nodes):
    """Gauss-Legendre nodes and weights for integrals over [0, 1], after
    the map t = sin^2(pi*sigma/2), built on first use.

    The nodes x in (-1, 1) are the roots of the Legendre polynomial P_n,
    found by Newton's method on its three-term recurrence from the
    asymptotic guesses cos(pi*(i + 3/4)/(n + 1/2)); the weights are
    2/((1 - x^2) P_n'(x)^2). The map clusters nodes at both ends of [0, 1],
    which turns an endpoint factor (t(1 - t))^(j/2) into an analytic one
    for every j >= 0.
    """
    x = np.cos(np.pi * (np.arange(nodes) + 0.75) / (nodes + 0.5))
    for _ in range(100):
        before, value = np.ones_like(x), x
        for k in range(2, nodes + 1):
            before, value = value, ((2 * k - 1) * x * value - (k - 1) * before) / k
        slope = nodes * (x * value - before) / (x * x - 1.0)
        step = value / slope
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    half = np.pi * (x + 1.0) / 4.0          # pi*sigma/2, sigma in (0, 1)
    return np.sin(half) ** 2, weights / 2.0 * (np.pi / 2.0) * np.sin(2.0 * half)


def _cos_power_integral(n, psi):
    """The integral of cos^n from -pi/2 to psi, elementwise, for integer n >= 0."""
    sin, cos = np.sin(psi), np.cos(psi)
    total, first = (psi + np.pi / 2.0, 2) if n % 2 == 0 else (sin + 1.0, 3)
    for j in range(first, n + 1, 2):
        total = np.float_power(cos, j - 1) * sin / j + (j - 1) / j * total
    return total


def _uniform_label_loss(kind, z):
    """E over y uniform on [-1, 1] of loss(z, y) and of its z-derivative."""
    size = np.abs(z)
    if kind == SQUARED:
        return 0.5 * z * z + 1.0 / 6.0, z
    if kind == ABSOLUTE:
        inside = size <= 1.0
        return np.where(inside, 0.5 * (1.0 + z * z), size), np.where(inside, z, np.sign(z))
    # Hinge: 1 - y*z >= 0 for every y when |z| <= 1; beyond, only y < 1/|z|
    # (signed) counts.
    beyond = np.maximum(size, 1.0)
    return (np.where(size > 1.0, (beyond + 1.0) ** 2 / (4.0 * beyond), 1.0),
            np.sign(z) * (beyond * beyond - 1.0) / (4.0 * beyond * beyond))


def _marginal_constant(d):
    """c_d, the density c_d*(1 - s^2)^((d-1)/2) of <u, x> for x uniform in
    the unit d-ball and u a unit vector."""
    return math.exp(math.lgamma(d / 2.0 + 1.0) - math.lgamma((d + 1) / 2.0)) / math.sqrt(math.pi)


def population_risk(spec, oracle, w):
    """Exact population risk F(w) = E loss(<w, x>, y) of spec, and its gradient.

    Returns (F(w), grad F(w)) for a (d,) point w, and the (R,) values and
    (R, d) gradients for stacked (R, d) rows; a point is the R = 1 case.
    Both populations draw x uniform in the ball of radius
    B = spec.feature_bound. Let s = <x, w>/(B||w||)
    and, in the plane of w and w_true, t the coordinate of x/B across w.
    Labels depend on x only through sign(<w_true, x>) (linear_margin) or
    not at all (uniform_ball, and linear_margin with w_true = 0, whose
    labels are all +1 before the flips), so
        F(w)      = integral over s in (-1, 1) of c_d (1 - s^2)^((d-1)/2) E[loss | s]
        grad F(w) = B E[slope * s] w/||w|| + B E[slope * t] w_perp,
    where w_perp is the unit vector across w in that plane. Given s, t is
    distributed as sqrt(1 - s^2) sin(psi) with density proportional to
    cos^(d-1)(psi); the label line <w_true, x> = 0 cuts psi at psi_c(s),
    and the integrals of cos^(d-1) and sin*cos^(d-1) up to psi_c are closed
    forms. So P(label +1 | s) and E[t; label +1 | s] are closed forms, and
    so is E over a uniform label of each loss. Everything left is one
    integral in s, over x uniform in the ball for every d >= 1 (d = 1 has
    no t).

    Quadrature. With s = sin(psi) the weight becomes cos^d(psi). The psi
    range is cut at the loss kinks s = +-1/(B||w||), where the label line
    meets the unit circle, s = +-|sin angle(w, w_true)|, and at s = 0. The
    integrand is analytic inside each piece and at worst behaves like
    (distance to an end)^(j/2), j an integer, at its ends. Each piece gets
    RISK_NODES Gauss-Legendre nodes after the endpoint map
    t = sin^2(pi*sigma/2), which makes such powers analytic. Against a
    600-node rule, F and each gradient coordinate moved by at most 1.3e-12
    over 3 losses, both populations, d in {1, 2, 3, 5, 10}, B||w|| from 0.5
    to 50, and w placed so that a kink and the label line's end lie 1e-8
    apart. The stated bound, with a margin, is RISK_QUADRATURE_BOUND times
    (1 + B||w||)^2 for F and times B(1 + B||w||) for each gradient
    coordinate; tests check it against scipy's dblquad. Rows with the same
    number of pieces share one pass; rows are not padded to one length, as
    padding would change add.reduce's pairwise sums, and so the bits.

    w must be finite (check_reals) and of shape (d,) or (R, d), and a w
    whose risk or gradient overflows raises ConfigurationError.
    """
    w = check_reals(w, "population_risk: w")
    d = spec.dimension
    if w.ndim not in (1, 2) or w.shape[-1] != d:
        raise ConfigurationError(
            f"population_risk: w must be a ({d},) point or (R, {d}) rows, got shape {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        risk, gradient = _risk_rows(spec, oracle, np.atleast_2d(w))
    if not (np.isfinite(risk).all() and np.isfinite(gradient).all()):
        raise ConfigurationError("population_risk: the risk or its gradient at w overflows")
    return (float(risk[0]), gradient[0]) if w.ndim == 1 else (risk, gradient)


def _risk_rows(spec, oracle, rows):
    """population_risk's (R,) values and (R, d) gradients at (R, d) rows."""
    d, bound = spec.dimension, spec.feature_bound
    norm = np.sqrt(dot(rows, rows))[:, None]
    scale = bound * norm
    label_axis = None
    if spec.generator == LINEAR_MARGIN and spec.w_true.any():
        label_axis = spec.w_true / math.sqrt(dot(spec.w_true, spec.w_true))
    along = np.where(norm > 0.0, rows / np.where(norm > 0.0, norm, 1.0),
                     label_axis if label_axis is not None else np.eye(1, d)[0])
    # Each row's cuts; one that does not apply is a +-0.0, a repeat of 0.
    inverse = np.where(scale > 1.0, 1.0 / np.maximum(scale, 1.0), 0.0)
    cuts = [np.broadcast_to([-1.0, 0.0, 1.0], (len(rows), 3)), -inverse, inverse]
    if label_axis is not None:
        cos_angle = dot(along, label_axis)[:, None]
        rest = along - cos_angle * label_axis
        sin_angle = np.sqrt(dot(rest, rest))[:, None]
        across = np.where(sin_angle > 0.0, -sin_angle * label_axis + cos_angle * rest
                          / np.where(sin_angle > 0.0, sin_angle, 1.0), 0.0)
        cuts += [-sin_angle, sin_angle]
    cuts = np.sort(np.hstack(cuts), axis=1)
    distinct = np.diff(cuts, axis=1, prepend=-2.0) > 0.0
    sizes = distinct.sum(axis=1)
    t, t_weights = _mapped_rule(RISK_NODES)
    c_d = _marginal_constant(d)
    risk, gradient = np.empty(len(rows)), np.empty_like(rows)
    for size in np.flatnonzero(np.bincount(sizes)):
        group = np.flatnonzero(sizes == size)
        edges = _arcsin(cuts[group][distinct[group]].reshape(-1, size))
        lo, hi = edges[:, :-1, None], edges[:, 1:, None]
        psi = (lo + (hi - lo) * t).reshape(len(group), -1)
        s, cos = np.sin(psi), np.cos(psi)
        density = ((hi - lo) * t_weights).reshape(len(group), -1) * c_d * np.float_power(cos, d)
        z = scale[group] * s
        if spec.generator == UNIFORM_BALL:
            value, slope = _uniform_label_loss(oracle.kind, z)
        else:
            flip = spec.noise_rate
            up_value, up_slope = oracle.loss_at(z, 1.0), oracle.slope_at(z, 1.0)
            down_value, down_slope = oracle.loss_at(z, -1.0), oracle.slope_at(z, -1.0)
            p_up = 1.0 - flip
            if label_axis is not None:
                # sin(psi_c) = s*cot(angle)/sqrt(1 - s^2), clipped (by
                # _arcsin) where the label line misses the chord; the chord's
                # side <w_true, x> > 0 is psi < psi_c.
                with np.errstate(divide="ignore"):
                    psi_c = _arcsin(s * cos_angle[group] / (sin_angle[group] * cos))
                # The whole chord's integral of cos^(d-1) is 2*pi*c_d/d.
                chord = 2.0 * math.pi * c_d / d
                p_up = flip + (1.0 - 2.0 * flip) * _cos_power_integral(d - 1, psi_c) / chord
                # E[t; label +1 | s] = -(1 - 2 flip) cos(psi) cos^d(psi_c)/(d * chord).
                mean_t_up = (-(1.0 - 2.0 * flip) * cos * np.float_power(np.cos(psi_c), d)
                             / (d * chord))
                across_slope = mean_t_up * (up_slope - down_slope)
            value = p_up * up_value + (1.0 - p_up) * down_value
            slope = p_up * up_slope + (1.0 - p_up) * down_slope
        risk[group] = dot(density, value)
        gradient[group] = (bound * dot(density, s * slope))[:, None] * along[group]
        if label_axis is not None:
            gradient[group] += (bound * dot(density, across_slope))[:, None] * across[group]
    return risk, gradient


def risk_curvature(spec, oracle):
    """beta with ||grad F(w) - grad F(v)|| <= beta*||w - v|| for population_risk's F.

    grad F is continuous, since <w, x> has no atoms for w != 0, so beta
    bounds the norm of the Hessian E[loss''(z, y) x x'] wherever it exists,
    with z = <w, x> and ||x|| <= B. Squared loss: E[x x'] = B^2/(d+2) I.
    Under uniform labels, E_y loss'' is 1{|z| <= 1} (absolute) and
    1{|z| > 1}/(2|z|^3) <= 1/2 (hinge), so the Hessian is at most B^2/(d+2)
    and B^2/(2(d+2)). Under sign labels, loss'' is a point mass at z = y
    (weight 1 for hinge, 2 for absolute), so the Hessian norm is at most B^2
    times the weight times f(1) + f(-1), where f is the density of z:
    c_d (1 - (z/k)^2)^((d-1)/2)/k with k = B||w||, nonzero at +-1 only for
    k >= 1, hence at most c_d. That gives 2 c_d B^2 and 4 c_d B^2.

    The reference minimizer steps by 1/beta, which the range of B keeps
    finite (errors.py, "curvature").
    """
    d, square = spec.dimension, spec.feature_bound ** 2
    if oracle.kind == SQUARED or (spec.generator == UNIFORM_BALL and oracle.kind == ABSOLUTE):
        return square / (d + 2.0)
    if spec.generator == UNIFORM_BALL:
        return square / (2.0 * (d + 2.0))
    return (2.0 if oracle.kind == HINGE else 4.0) * _marginal_constant(d) * square
