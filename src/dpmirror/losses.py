"""Instantaneous convex losses, their subgradients, and synthetic populations.

Three loss families are provided: hinge and absolute (non-smooth, globally
Lipschitz once features are bounded) and squared (smooth, Lipschitz only on
a bounded iterate set). Feature vectors are norm-bounded at generation time,
which is what makes the Lipschitz certificates valid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import BOX, L2_BALL

HINGE = "hinge"
ABSOLUTE = "absolute"
SQUARED = "squared"

LINEAR_MARGIN = "linear_margin"
UNIFORM_BALL = "uniform_ball"

_LOSS_KINDS = (HINGE, ABSOLUTE, SQUARED)


@dataclass(frozen=True)
class DataPoint:
    features: np.ndarray
    label: float


def max_norm_on(feasible_set):
    """Largest Euclidean norm attained on the set (exact for both kinds)."""
    if feasible_set.kind == L2_BALL:
        return float(np.linalg.norm(feasible_set.center)) + feasible_set.radius
    if feasible_set.kind == BOX:
        corner = np.maximum(np.abs(feasible_set.lower), np.abs(feasible_set.upper))
        return float(np.linalg.norm(corner))
    raise ConfigurationError(f"unknown set kind {feasible_set.kind!r}")


def lipschitz_certificate(kind, feature_bound, feasible_set=None, label_bound=1.0):
    """Uniform bound on subgradient norms for the given loss family.

    Hinge and absolute losses have subgradients of norm at most the feature
    bound, everywhere. The squared loss has no global Lipschitz constant;
    its certificate (max|<w,x> - y| * ||x||, maximized over the given
    iterate set and label range) is only valid on that set.
    """
    if feature_bound <= 0:
        raise ConfigurationError(
            f"lipschitz_certificate: feature_bound must be positive, got {feature_bound}"
        )
    if kind in (HINGE, ABSOLUTE):
        return float(feature_bound)
    if kind == SQUARED:
        if feasible_set is None:
            raise ConfigurationError(
                "squared loss has no global Lipschitz constant; pass the feasible set"
            )
        w_max = max_norm_on(feasible_set)
        return float((w_max * feature_bound + label_bound) * feature_bound)
    raise ConfigurationError(f"unknown loss kind {kind!r}")


@dataclass(frozen=True)
class LossOracle:
    """A loss family together with its certified Lipschitz constant."""

    kind: str
    lipschitz_L: float
    smooth: bool

    @classmethod
    def hinge(cls, feature_bound):
        return cls(HINGE, lipschitz_certificate(HINGE, feature_bound), smooth=False)

    @classmethod
    def absolute(cls, feature_bound):
        return cls(ABSOLUTE, lipschitz_certificate(ABSOLUTE, feature_bound), smooth=False)

    @classmethod
    def squared(cls, feature_bound, feasible_set, label_bound=1.0):
        L = lipschitz_certificate(SQUARED, feature_bound, feasible_set, label_bound)
        return cls(SQUARED, L, smooth=True)

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
            # -label where the margin label*z is at most 1, else 0; written
            # without np.where so scalar calls stay cheap.
            return -labels * (labels * z <= 1.0)
        if self.kind == ABSOLUTE:
            return np.sign(z - labels)
        return z - labels

    def _margin(self, w, point, what):
        w = np.asarray(w, dtype=float)
        x = point.features
        if w.shape != x.shape:
            raise ConfigurationError(
                f"{what}: w shape {w.shape} != feature shape {x.shape}"
            )
        return float(w @ x)

    def value(self, w, point):
        z = self._margin(w, point, "loss value")
        if self.kind == HINGE:
            return max(0.0, 1.0 - point.label * z)
        if self.kind == ABSOLUTE:
            return abs(z - point.label)
        return 0.5 * (z - point.label) ** 2

    def subgradient(self, w, point):
        """An arbitrary-but-fixed element of the subdifferential at w (see slope_at)."""
        z = self._margin(w, point, "subgradient")
        return self.slope_at(z, point.label) * point.features

    def subgradient_rows(self, w, features, labels):
        """subgradient() for each row of stacked (..., d) iterates and features.

        No input checks: this is the optimizer's per-step subgradient, whose
        inputs are checked once at run entry.
        """
        z = np.einsum("...i,...i->...", w, features)
        return self.slope_at(z, labels)[..., None] * features

    def batch_values(self, w, features, labels):
        """Loss values for one w against a stacked (..., d) feature array.

        Vectorized convenience for Monte-Carlo risk evaluation; agrees with
        value() pointwise.
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
    seed: int
    w_true: np.ndarray = None
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.generator not in (LINEAR_MARGIN, UNIFORM_BALL):
            raise ConfigurationError(f"unknown generator {self.generator!r}")
        if self.dimension < 1:
            raise ConfigurationError("population dimension must be >= 1")
        if self.feature_bound <= 0:
            raise ConfigurationError("feature_bound must be positive")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigurationError("noise_rate must lie in [0, 1]")
        if self.generator == LINEAR_MARGIN:
            if self.w_true is None:
                raise ConfigurationError("linear_margin requires w_true")
            w = np.asarray(self.w_true, dtype=float)
            if w.shape != (self.dimension,):
                raise ConfigurationError("w_true does not match dimension")
            object.__setattr__(self, "w_true", w)

    def rng(self):
        return np.random.default_rng(self.seed)


def _uniform_ball(rng, dimension, radius):
    direction = rng.standard_normal(dimension)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(dimension)
        norm = np.linalg.norm(direction)
    r = radius * rng.random() ** (1.0 / dimension)
    return direction * (r / norm)


def draw_sample(spec, rng):
    features = _uniform_ball(rng, spec.dimension, spec.feature_bound)
    if spec.generator == UNIFORM_BALL:
        return DataPoint(features, float(rng.uniform(-1.0, 1.0)))
    label = 1.0 if float(spec.w_true @ features) >= 0.0 else -1.0
    if spec.noise_rate > 0.0 and rng.random() < spec.noise_rate:
        label = -label
    return DataPoint(features, label)


def draw_arrays(spec, n, rng=None):
    """A dataset of n i.i.d. draws: (features, labels) arrays of shape (n, d), (n,).

    Reproducible from spec.seed when no rng is passed. Same distribution as
    draw_sample, drawn in vectorized blocks (so the two paths consume the
    generator differently but are interchangeable statistically).
    """
    if n < 1:
        raise ConfigurationError(f"draw_arrays: n must be >= 1, got {n}")
    if rng is None:
        rng = spec.rng()
    directions = rng.standard_normal((n, spec.dimension))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = spec.feature_bound * rng.random(n) ** (1.0 / spec.dimension)
    features = directions * (radii[:, None] / norms)
    if spec.generator == UNIFORM_BALL:
        return features, rng.uniform(-1.0, 1.0, size=n)
    labels = np.where(features @ spec.w_true >= 0.0, 1.0, -1.0)
    if spec.noise_rate > 0.0:
        flips = rng.random(n) < spec.noise_rate
        labels = np.where(flips, -labels, labels)
    return features, labels


# A dataset is the (features, labels) array pair; this is its public name.
draw_dataset = draw_arrays


def save_dataset(path, dataset, seed=0):
    """One record per line, comma-separated features then label.

    dataset is a (features, labels) pair. The header line carries
    dimension, count and generating seed so files are self-describing.
    """
    features, labels = dataset
    n, dim = features.shape
    with open(path, "w") as fh:
        fh.write(f"# dim={dim} n={n} seed={seed}\n")
        for row, label in zip(features, labels):
            cells = [f"{v:.17g}" for v in row] + [f"{label:.17g}"]
            fh.write(",".join(cells) + "\n")


def load_dataset(path, feature_bound=None):
    """Read a dataset file into a (features, labels) pair.

    Optionally validates the feature-norm bound, row by row.
    """
    rows = []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# dim="):
            raise ConfigurationError(f"{path}: missing dataset header line")
        dim = int(header.split("dim=")[1].split()[0])
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = [float(c) for c in line.split(",")]
            if len(cells) != dim + 1:
                raise ConfigurationError(
                    f"{path}:{line_no}: expected {dim + 1} fields, got {len(cells)}"
                )
            if feature_bound is not None:
                if np.linalg.norm(cells[:-1]) > feature_bound + 1e-9:
                    raise ConfigurationError(
                        f"{path}:{line_no}: feature norm exceeds bound {feature_bound}"
                    )
            rows.append(cells)
    table = np.array(rows, dtype=float).reshape(-1, dim + 1)
    return table[:, :-1], table[:, -1]
