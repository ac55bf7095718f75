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
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import dot

HINGE = "hinge"
ABSOLUTE = "absolute"
SQUARED = "squared"

LINEAR_MARGIN = "linear_margin"
UNIFORM_BALL = "uniform_ball"


def lipschitz_certificate(kind, feature_bound, feasible_set=None):
    """Uniform bound on subgradient norms for the given loss family.

    Hinge and absolute losses have subgradients of norm at most the feature
    bound, everywhere. The squared loss has no global Lipschitz constant;
    its certificate (max|<w,x> - y| * ||x||, maximized over the given
    iterate set and labels in [-1, 1], the range both populations draw)
    is only valid on that set; max_subgradient_norm checks a run's actual
    rows against it.
    """
    if not (math.isfinite(feature_bound) and feature_bound > 0):
        raise ConfigurationError(
            "lipschitz_certificate: feature_bound must be finite and positive, "
            f"got {feature_bound}")
    if kind in (HINGE, ABSOLUTE):
        return float(feature_bound)
    if kind == SQUARED:
        if feasible_set is None:
            raise ConfigurationError(
                "squared loss has no global Lipschitz constant; pass the feasible set"
            )
        w_max = feasible_set.max_norm()
        return float((w_max * feature_bound + 1.0) * feature_bound)
    raise ConfigurationError(f"unknown loss kind {kind!r}")


@dataclass(frozen=True)
class LossOracle:
    """A loss family together with its certified Lipschitz constant."""

    kind: str
    lipschitz_L: float

    @classmethod
    def hinge(cls, feature_bound):
        return cls(HINGE, lipschitz_certificate(HINGE, feature_bound))

    @classmethod
    def absolute(cls, feature_bound):
        return cls(ABSOLUTE, lipschitz_certificate(ABSOLUTE, feature_bound))

    @classmethod
    def squared(cls, feature_bound, feasible_set):
        return cls(SQUARED, lipschitz_certificate(SQUARED, feature_bound, feasible_set))

    def loss_at(self, z, labels):
        """Loss as a function of the margin z = <w, x>, elementwise."""
        if self.kind == HINGE:
            return np.maximum(0.0, 1.0 - labels * z)
        if self.kind == ABSOLUTE:
            return np.abs(z - labels)
        return 0.5 * (z - labels) ** 2

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

        Per row: |y|*||x|| for hinge, ||x|| for absolute, and
        (set.max_norm()*||x|| + |y|)*||x|| for squared. A row above
        lipschitz_L would break the sensitivity the accountant assumes.
        One pass over stacked (..., d) features and (...,) labels.
        """
        norms = np.sqrt(np.einsum("...i,...i->...", features, features))
        if self.kind == HINGE:
            worst = np.abs(labels) * norms
        elif self.kind == ABSOLUTE:
            worst = norms
        else:
            worst = (feasible_set.max_norm() * norms + np.abs(labels)) * norms
        return float(worst.max())

    def batch_values(self, w, features, labels):
        """loss_at at the margins <x, w> of one w against stacked (..., d)
        features, summed by einsum, not BLAS (see geometry.dot)."""
        z = np.einsum("...i,i->...", np.asarray(features, dtype=float),
                      np.asarray(w, dtype=float))
        return self.loss_at(z, np.asarray(labels, dtype=float))


@dataclass(frozen=True)
class PopulationSpec:
    """Synthetic data distribution: feature draw plus labeling rule.

    linear_margin: features uniform in the ball of radius feature_bound,
    label = sign(<w_true, features>) flipped with probability noise_rate.
    uniform_ball: same features, label drawn uniformly from [-1, 1]
    (a regression-style population for the absolute/squared losses).
    """

    generator: str
    dimension: int
    feature_bound: float
    w_true: np.ndarray = None
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.generator not in (LINEAR_MARGIN, UNIFORM_BALL):
            raise ConfigurationError(f"unknown generator {self.generator!r}")
        if self.dimension < 1:
            raise ConfigurationError("population dimension must be >= 1")
        if not (math.isfinite(self.feature_bound) and self.feature_bound > 0):
            raise ConfigurationError(
                f"feature_bound must be finite and positive, got {self.feature_bound}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigurationError("noise_rate must lie in [0, 1]")
        if self.generator == LINEAR_MARGIN:
            if self.w_true is None:
                raise ConfigurationError("linear_margin requires w_true")
            w = np.asarray(self.w_true, dtype=float)
            if w.shape != (self.dimension,):
                raise ConfigurationError("w_true does not match dimension")
            if not np.isfinite(w).all():
                raise ConfigurationError("w_true must be finite")
            object.__setattr__(self, "w_true", w)


def draw_arrays(spec, n, rng):
    """A dataset of n i.i.d. draws: (features, labels) arrays of shape (n, d), (n,).

    All randomness comes from the generator rng, so the same seeded rng
    gives the same dataset. Features are uniform in the ball of radius
    spec.feature_bound: a Gaussian direction scaled to radius
    feature_bound * U**(1/d).
    """
    if n < 1:
        raise ConfigurationError(f"draw_arrays: n must be >= 1, got {n}")
    features = rng.standard_normal((n, spec.dimension))
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = spec.feature_bound * rng.random(n) ** (1.0 / spec.dimension)
    # Scaled in place: the same products, without a second (n, d) array.
    features *= radii[:, None] / norms
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
        total = cos ** (j - 1) * sin / j + (j - 1) / j * total
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

    Returns (F(w), grad F(w)) for a (d,) point w. Both populations draw x
    uniform in the ball of radius B = spec.feature_bound. Let s = <x, w>/(B||w||)
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
    coordinate; tests check it against scipy's dblquad.
    """
    w = np.asarray(w, dtype=float)
    d, bound = spec.dimension, spec.feature_bound
    norm = math.sqrt(dot(w, w))
    scale = bound * norm
    label_axis = None
    if spec.generator == LINEAR_MARGIN and spec.w_true.any():
        label_axis = spec.w_true / math.sqrt(dot(spec.w_true, spec.w_true))
    along = w / norm if norm > 0.0 else (
        label_axis if label_axis is not None else np.eye(d)[0])
    cuts = [-1.0, 0.0, 1.0]
    if scale > 1.0:
        cuts += [-1.0 / scale, 1.0 / scale]
    if label_axis is not None:
        cos_angle = float(dot(along, label_axis))
        rest = along - cos_angle * label_axis
        sin_angle = math.sqrt(dot(rest, rest))
        across = (-sin_angle * label_axis + cos_angle * rest / sin_angle
                  if sin_angle > 0.0 else np.zeros(d))
        cuts += [-sin_angle, sin_angle]
    t, t_weights = _mapped_rule(RISK_NODES)
    cuts = np.arcsin(sorted(set(cuts)))
    lo, hi = cuts[:-1, None], cuts[1:, None]
    psi = (lo + (hi - lo) * t).ravel()
    s, cos = np.sin(psi), np.cos(psi)
    c_d = _marginal_constant(d)
    density = ((hi - lo) * t_weights).ravel() * c_d * cos ** d
    z = scale * s

    across_slope = None
    if spec.generator == UNIFORM_BALL:
        value, slope = _uniform_label_loss(oracle.kind, z)
    else:
        flip = spec.noise_rate
        up_value, up_slope = oracle.loss_at(z, 1.0), oracle.slope_at(z, 1.0)
        down_value, down_slope = oracle.loss_at(z, -1.0), oracle.slope_at(z, -1.0)
        p_up = 1.0 - flip
        if label_axis is not None:
            # sin(psi_c) = s*cot(angle)/sqrt(1 - s^2), clipped where the
            # label line misses the chord; the chord's side <w_true, x> > 0
            # is psi < psi_c.
            with np.errstate(divide="ignore"):
                psi_c = np.arcsin(np.clip(s * cos_angle / (sin_angle * cos), -1.0, 1.0))
            # The whole chord's integral of cos^(d-1) is 2*pi*c_d/d.
            chord = 2.0 * math.pi * c_d / d
            p_up = flip + (1.0 - 2.0 * flip) * _cos_power_integral(d - 1, psi_c) / chord
            # E[t; label +1 | s] = -(1 - 2 flip) cos(psi) cos^d(psi_c)/(d * chord).
            mean_t_up = -(1.0 - 2.0 * flip) * cos * np.cos(psi_c) ** d / (d * chord)
            across_slope = mean_t_up * (up_slope - down_slope)
        value = p_up * up_value + (1.0 - p_up) * down_value
        slope = p_up * up_slope + (1.0 - p_up) * down_slope

    gradient = bound * float(dot(density, s * slope)) * along
    if across_slope is not None:
        gradient = gradient + bound * float(dot(density, across_slope)) * across
    return float(dot(density, value)), gradient


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
    """
    d, square = spec.dimension, spec.feature_bound ** 2
    if oracle.kind == SQUARED or (spec.generator == UNIFORM_BALL and oracle.kind == ABSOLUTE):
        return square / (d + 2.0)
    if spec.generator == UNIFORM_BALL:
        return square / (2.0 * (d + 2.0))
    return (2.0 if oracle.kind == HINGE else 4.0) * _marginal_constant(d) * square
