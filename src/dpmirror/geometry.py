"""Convex feasible sets and the projected step.

Projections are closed-form (ball: radial scaling, box: coordinatewise
clamp), and so is the Frank-Wolfe gap that certifies the reference
minimizer, so no iterative solver is involved anywhere in this module.
The paper's noisy mirror-descent update under the Euclidean potential
0.5*||x||^2 is exactly the projected step project(w - eta * g):
mirror_step takes it for one point, and the optimizer takes it for its
stacked (R, d) iterates with project_rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MEMBERSHIP_TOL = 1e-9

L2_BALL = "l2_ball"
BOX = "box"


# Reductions on a run's path sum by add.reduce, not by BLAS (ndarray.dot, @,
# np.linalg.norm of a vector), whose last bits depend on the OpenBLAS kernel.
def dot(a, b):
    return np.add.reduce(a * b, axis=-1)


def _norm(x):
    return math.sqrt(dot(x, x))


def _as_vector(x, dim, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise ConfigurationError(
            f"{name}: expected vector of dimension {dim}, got shape {v.shape}"
        )
    return v


@dataclass(frozen=True)
class FeasibleSet:
    """Closed bounded convex constraint set with a closed-form projection.

    Checked when built, by l2_ball, box or directly: kind is L2_BALL or
    BOX, dimension >= 1, and the kind's radius, center or bounds are
    finite. Its vectors are read-only copies, so no check can be undone.
    """

    kind: str
    dimension: int
    radius: float = 0.0
    center: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError(f"FeasibleSet: dimension must be >= 1, got {self.dimension}")
        if self.kind == L2_BALL:
            if not math.isfinite(self.radius) or self.radius <= 0:
                raise ConfigurationError(
                    f"l2_ball: radius must be finite and positive, got {self.radius}")
            self._hold_vector("center", "center")
        elif self.kind == BOX:
            lower = self._hold_vector("lower", "lower/upper")
            if np.any(self._hold_vector("upper", "lower/upper") < lower):
                raise ConfigurationError("box: upper must dominate lower coordinatewise")
        else:
            raise ConfigurationError(
                f"FeasibleSet: kind must be {L2_BALL!r} or {BOX!r}, got {self.kind!r}")

    def _hold_vector(self, field, label):
        """Store field as a read-only copy, a finite float vector of the set's dimension."""
        v = np.array(getattr(self, field), dtype=float)
        if v.shape != (self.dimension,):
            raise ConfigurationError(
                f"{self.kind}: {label} must have shape ({self.dimension},)")
        if not np.isfinite(v).all():
            raise ConfigurationError(f"{self.kind}: {label} must be finite")
        v.flags.writeable = False
        object.__setattr__(self, field, v)
        return v

    @classmethod
    def l2_ball(cls, radius, center=None, dimension=None):
        if center is None:
            if dimension is None:
                raise ConfigurationError("l2_ball: need a center or a dimension")
            center = np.zeros(dimension)
        if dimension is None:
            dimension = np.size(center)
        return cls(kind=L2_BALL, dimension=dimension, radius=float(radius), center=center)

    @classmethod
    def box(cls, lower, upper):
        return cls(kind=BOX, dimension=np.size(lower), lower=lower, upper=upper)

    def diameter(self):
        if self.kind == L2_BALL:
            return 2.0 * self.radius
        return _norm(self.upper - self.lower)

    def project(self, point):
        """Euclidean-nearest point of the set."""
        return self.project_rows(_as_vector(point, self.dimension, "project: point"))

    def project_rows(self, points):
        """project() applied to each row of a (d,) or stacked (..., d) float array.

        No input checks: this is the per-step projection of the optimizer
        and of the reference minimizer, whose inputs are checked once at
        entry. Returns a new array: rows already in the set keep their bits.
        """
        if self.kind == L2_BALL:
            offset = points - self.center
            norms = np.sqrt(np.einsum("...i,...i->...", offset, offset))
            scale = self.radius / np.maximum(norms, self.radius)
            return np.where((norms > self.radius)[..., None],
                            self.center + offset * scale[..., None], points)
        return points.clip(self.lower, self.upper)

    def max_norm(self):
        """Largest Euclidean norm attained on the set (exact for both kinds)."""
        if self.kind == L2_BALL:
            return _norm(self.center) + self.radius
        return _norm(np.maximum(np.abs(self.lower), np.abs(self.upper)))

    def frank_wolfe_gap(self, w, g):
        """max over u in the set of <g, w - u>, in closed form; no input checks.

        The minimizing u is the linear minimization oracle: c - r*g/||g||
        on the ball, giving <g, w - c> + r*||g||, and per coordinate the
        corner lower_i or upper_i on the box. For convex f with gradient g
        at w, f(w) - min over the set of f is at most this gap.
        """
        if self.kind == L2_BALL:
            return float(dot(g, w - self.center) + self.radius * _norm(g))
        return float(np.maximum(g * (w - self.lower), g * (w - self.upper)).sum())

    def contains(self, point):
        p = _as_vector(point, self.dimension, "contains: point")
        if self.kind == L2_BALL:
            return _norm(p - self.center) <= self.radius + MEMBERSHIP_TOL
        return bool(np.all(p >= self.lower - MEMBERSHIP_TOL)
                    and np.all(p <= self.upper + MEMBERSHIP_TOL))


def mirror_step(feasible_set, w, g, eta):
    """The projected gradient step project(w - eta * g).

    Under the Euclidean potential 0.5*||x||^2, the only one used here, the
    mirror-descent update with Bregman projection is exactly this step.
    """
    if not math.isfinite(eta) or eta <= 0:
        raise ConfigurationError(
            f"mirror_step: eta must be finite and positive, got {eta}")
    d = feasible_set.dimension
    w = _as_vector(w, d, "mirror_step: w")
    g = _as_vector(g, d, "mirror_step: g")
    return feasible_set.project(w - eta * g)
