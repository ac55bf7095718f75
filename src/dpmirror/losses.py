"""Instantaneous convex losses, their subgradients, and synthetic populations.

Three loss families are provided: hinge and absolute (non-smooth, globally
Lipschitz once features are bounded) and squared (smooth, Lipschitz only on
a bounded iterate set). Feature vectors are norm-bounded at generation time,
which is what makes the Lipschitz certificates valid; max_subgradient_norm
checks that bound on a given dataset.

The oracle works on arrays only: loss_at, slope_at and smoothed_slope_at
take margins z = <w, x>, subgradient takes one (d,) point or stacked
(..., d) rows, and batch_values scores one w against a feature array. A
dataset is the (features, labels) array pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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

    def smoothed_slope_at(self, z, labels, mu):
        """d f_mu / d z for the Huber-smoothed loss f_mu, elementwise.

        Hinge and absolute losses are smoothed with width mu > 0 (Nesterov
        2005): max(0, u) becomes u^2/(2mu) on [0, mu] and u - mu/2 above it,
        with u = 1 - label*z, and |r| with r = z - label becomes r^2/(2mu)
        on |r| <= mu and |r| - mu/2 outside. Then f_mu <= f <= f_mu + mu/2,
        and the slope is 1/mu-Lipschitz in z for labels in [-1, 1]. The
        squared loss is already smooth: its slope is returned and mu is
        not read.
        """
        if self.kind == HINGE:
            return -labels * np.clip((1.0 - labels * z) / mu, 0.0, 1.0)
        if self.kind == ABSOLUTE:
            return np.clip((z - labels) / mu, -1.0, 1.0)
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
        """Loss values for one w against a stacked (..., d) feature array.

        Vectorized convenience for Monte-Carlo risk evaluation: loss_at at
        the margins features @ w.
        """
        z = np.asarray(features, dtype=float) @ np.asarray(w, dtype=float)
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
    labels = np.where(features @ spec.w_true >= 0.0, 1.0, -1.0)
    if spec.noise_rate > 0.0:
        flips = rng.random(n) < spec.noise_rate
        labels = np.where(flips, -labels, labels)
    return features, labels


# A dataset is the (features, labels) array pair; this is its public name.
draw_dataset = draw_arrays

