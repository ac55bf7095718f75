"""Convex feasible sets, the Euclidean potential, and the mirror-descent step.

Projections are closed-form (ball: radial scaling, box: coordinatewise
clamp), so no iterative solver is involved anywhere in this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MEMBERSHIP_TOL = 1e-9

L2_BALL = "l2_ball"
BOX = "box"
EUCLIDEAN = "euclidean"


def _as_vector(x, dim, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise ConfigurationError(
            f"{name}: expected vector of dimension {dim}, got shape {v.shape}"
        )
    return v


@dataclass(frozen=True)
class FeasibleSet:
    """Closed bounded convex constraint set with a closed-form projection."""

    kind: str
    dimension: int
    radius: float = 0.0
    center: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    @classmethod
    def l2_ball(cls, radius, center=None, dimension=None):
        if radius <= 0:
            raise ConfigurationError(f"l2_ball: radius must be positive, got {radius}")
        if center is None:
            if dimension is None:
                raise ConfigurationError("l2_ball: need a center or a dimension")
            center = np.zeros(dimension)
        center = np.asarray(center, dtype=float)
        if dimension is not None and center.shape[0] != dimension:
            raise ConfigurationError("l2_ball: center does not match dimension")
        return cls(kind=L2_BALL, dimension=center.shape[0],
                   radius=float(radius), center=center)

    @classmethod
    def box(cls, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ConfigurationError("box: lower/upper must be vectors of equal length")
        if np.any(upper < lower):
            raise ConfigurationError("box: upper must dominate lower coordinatewise")
        return cls(kind=BOX, dimension=lower.shape[0], lower=lower, upper=upper)

    def diameter(self):
        if self.kind == L2_BALL:
            return 2.0 * self.radius
        return float(np.linalg.norm(self.upper - self.lower))

    def project(self, point):
        """Euclidean-nearest point of the set."""
        p = _as_vector(point, self.dimension, "project: point")
        if self.kind == L2_BALL:
            offset = p - self.center
            norm = math.sqrt(offset.dot(offset))   # same bits as np.linalg.norm, faster
            if norm <= self.radius:
                return p
            return self.center + offset * (self.radius / norm)
        return p.clip(self.lower, self.upper)

    def project_rows(self, points):
        """project() applied to each row of a stacked (..., d) float array.

        No input checks: this is the optimizer's per-step projection, whose
        inputs are checked once at run entry. Rows already in the set are
        returned unchanged, as in project().
        """
        if self.kind == L2_BALL:
            offset = points - self.center
            norms = np.sqrt(np.einsum("...i,...i->...", offset, offset))
            outside = norms > self.radius
            if not outside.any():
                return points
            projected = points.copy()
            projected[outside] = self.center + offset[outside] * (
                self.radius / norms[outside])[:, None]
            return projected
        return points.clip(self.lower, self.upper)

    def contains(self, point, tol=MEMBERSHIP_TOL):
        p = _as_vector(point, self.dimension, "contains: point")
        if self.kind == L2_BALL:
            return np.linalg.norm(p - self.center) <= self.radius + tol
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))


@dataclass(frozen=True)
class Potential:
    """Mirror map with gradient, conjugate gradient, and Bregman divergence.

    Only the Euclidean potential 0.5*||x||^2 is shipped (strong convexity 1,
    self-conjugate, gradient = identity). The interface exists so the
    optimizer is written against the general mirror-descent update.
    """

    kind: str = EUCLIDEAN
    dimension: int = 1
    strong_convexity: float = 1.0

    @classmethod
    def euclidean(cls, dimension):
        if dimension < 1:
            raise ConfigurationError("euclidean potential: dimension must be >= 1")
        return cls(kind=EUCLIDEAN, dimension=int(dimension), strong_convexity=1.0)

    def value(self, x):
        x = _as_vector(x, self.dimension, "potential value")
        return 0.5 * float(x @ x)

    def grad(self, x):
        return _as_vector(x, self.dimension, "potential grad").copy()

    def conjugate_value(self, y):
        y = _as_vector(y, self.dimension, "conjugate value")
        return 0.5 * float(y @ y)

    def conjugate_grad(self, y):
        return _as_vector(y, self.dimension, "conjugate grad").copy()

    def bregman(self, x, y):
        """Divergence value(x) - value(y) - <grad(y), x - y>; here 0.5*||x-y||^2."""
        x = _as_vector(x, self.dimension, "bregman: x")
        y = _as_vector(y, self.dimension, "bregman: y")
        d = x - y
        return 0.5 * float(d @ d)

    def conjugate_bregman(self, x, y):
        """Bregman divergence induced by the conjugate function."""
        x = _as_vector(x, self.dimension, "conjugate bregman: x")
        y = _as_vector(y, self.dimension, "conjugate bregman: y")
        d = x - y
        return 0.5 * float(d @ d)


def mirror_step(potential, feasible_set, w, g, eta):
    """One mirror-descent update with Bregman projection back onto the set.

    Maps w to the dual space, takes a step of length eta against g, maps
    back, and projects. For the Euclidean potential the Bregman projection
    coincides with the Euclidean one, so the update is exactly
    project(w - eta * g).
    """
    if potential.dimension != feasible_set.dimension:
        raise ConfigurationError(
            f"mirror_step: potential dimension {potential.dimension} "
            f"!= set dimension {feasible_set.dimension}"
        )
    if eta <= 0:
        raise ConfigurationError(f"mirror_step: eta must be positive, got {eta}")
    w = _as_vector(w, potential.dimension, "mirror_step: w")
    g = _as_vector(g, potential.dimension, "mirror_step: g")
    dual = potential.grad(w) - eta * g
    return feasible_set.project(potential.conjugate_grad(dual))
