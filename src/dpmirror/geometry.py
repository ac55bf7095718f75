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
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, check_count, check_real, check_vector

MEMBERSHIP_TOL = 1e-9

L2_BALL = "l2_ball"
BOX = "box"


# Reductions on a run's path sum by add.reduce, not by BLAS (ndarray.dot, @,
# np.linalg.norm of a vector), whose last bits depend on the OpenBLAS kernel.
def dot(a, b):
    return np.add.reduce(a * b, axis=-1)


def _norm(x):
    return math.sqrt(dot(x, x))


@dataclass(frozen=True)
class FeasibleSet:
    """Closed bounded convex constraint set with a closed-form projection.

    Checked when built, by l2_ball, box or directly: kind is L2_BALL or
    BOX, dimension >= 1, the kind's radius, center or bounds are finite,
    and so are its diameter and largest norm. Its vectors are read-only
    copies, so no check can be undone.
    """

    kind: str
    dimension: int
    radius: float = 0.0
    center: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        d = check_count(self.dimension, "FeasibleSet: dimension")
        if self.kind == L2_BALL:
            fields = {"radius": check_real(self.radius, "l2_ball: radius"),
                      "center": check_vector(self.center, d, "l2_ball: center")}
        elif self.kind == BOX:
            fields = {end: check_vector(getattr(self, end), d, "box: lower/upper")
                      for end in ("lower", "upper")}
            if np.any(fields["upper"] < fields["lower"]):
                raise ConfigurationError("box: upper must dominate lower coordinatewise")
        else:
            raise ConfigurationError(
                f"FeasibleSet: kind must be {L2_BALL!r} or {BOX!r}, got {self.kind!r}")
        for field, value in {**fields, "dimension": d}.items():
            object.__setattr__(self, field, value)
        with np.errstate(over="ignore"):
            if not all(map(math.isfinite, (self.diameter(), self.max_norm()))):
                raise ConfigurationError(f"{self.kind}: its diameter or largest norm overflows")

    @classmethod
    def l2_ball(cls, radius, center=None, dimension=None):
        if center is None:
            if dimension is None:
                raise ConfigurationError("l2_ball: need a center or a dimension")
            center = np.zeros(check_count(dimension, "l2_ball: dimension"))
        if dimension is None:
            dimension = np.size(center)
        return cls(kind=L2_BALL, dimension=dimension, radius=radius, center=center)

    @classmethod
    def box(cls, lower, upper):
        return cls(kind=BOX, dimension=np.size(lower), lower=lower, upper=upper)

    def diameter(self):
        if self.kind == L2_BALL:
            return 2.0 * self.radius
        return _norm(self.upper - self.lower)

    def project(self, point):
        """Euclidean-nearest point of the set.

        On the ball, a point whose squared distance from the centre
        overflows is refused: project_rows would scale it by r/inf = 0.
        """
        point = check_vector(point, self.dimension, "project: point")
        if self.kind == L2_BALL:
            with np.errstate(over="ignore"):
                offset = point - self.center
                if not np.einsum("i,i->", offset, offset) < math.inf:
                    raise ConfigurationError(
                        "project: the point's squared distance from the centre overflows")
        return self.project_rows(point)

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

    def reach(self, features):
        """Each row's bound on |<w, x>| as np.einsum computes it, for stacked
        (..., d) rows x and every w that contains() accepts or project_rows
        returns, so for every iterate a run holds; inf where it overflows.

        With n~ = sqrt(einsum(x, x)) as computed, M = max_norm() as computed
        and tau = MEMBERSHIP_TOL, the bound is fl(fl(n~ + 2^-510) * W) for
            W = (M + tau*(isqrt(d) + 1) + 2^-47) * (1 + (d + 4)*2^-49),
        rounded up to a float. Proof, for every d <= 2^53, in the standard
        model: with u = 2^-53, a = 1/(1 - u), b = 1 + u, a float operation
        returns (p op q)(1 + delta) + e with |delta| <= u, |e| <= 2^-1075
        and e = 0 for + and -; a sum of d terms rounds at most d - 1 times
        in any order (einsum and add.reduce may pair terms); and
        theta = 2^-511 >= sqrt(d * 2^-1075).
        1. A computed norm n~ of a d-vector v has ||v|| <= a^(d/2+1)(n~ + theta):
           the computed square sum is at least (1 - u)^d ||v||^2 - d*2^-1075.
        2. Every such w has ||w|| <= b^3 a^(d+4) (M + tau sqrt(d)) + 2^-48.
           contains() bounds fl(w - c), whose coordinates are within relative
           u of w - c, by fl(r + tau) on the ball (so 1 applies) and by the
           corners +- tau on the box. project_rows clips to the box; on the
           ball it keeps a point whose computed offset norm is at most r, or
           returns fl(c + fl(o*s)) with s = fl(r/n~), n~ > r, which is
           within b^3 a^(d/2+1)(r + theta) + u||c|| + 2^-50 of c (the last
           term if s underflows, as ||o|| < 2^1025). By 1 and
           M >= (1 - u)(||c||~ + r), or M = the corner's computed norm, each
           case is within the bound.
        3. einsum gives |<w, x>|~ <= b^d (||w|| ||x|| + d*2^-1075), at most
           b^d (||w|| + theta)(||x|| + theta).
        4. LossOracle.fixed_slopes needs b*|<w, x>|~ <= reach: the hinge's
           fl(y*z) <= 1 holds once |y*z| <= 1, and fl(|y| * reach) <= 1
           gives |y| * reach <= 1 + u; fl(z - y) has the sign of z - y.
        By 1-3, with the two roundings of the bound itself,
        b*|<w, x>|~ <= b^(d+4) a^(3d/2+7) (M + tau sqrt(d) + 2^-47) fl(n~ + 2^-510).
        The powers are at most e^t with t <= (2.5d + 12)u/(1 - u) <= 2.6,
        and e^t <= 1 + 5t <= 1 + (d + 4)*2^-49 there.
        """
        d = self.dimension
        exact = ((Fraction(self.max_norm()) + Fraction(MEMBERSHIP_TOL) * (math.isqrt(d) + 1)
                  + Fraction(1, 1 << 47)) * (1 + Fraction(d + 4, 1 << 49)))
        scale = float(exact)
        if Fraction(scale) < exact:
            scale = math.nextafter(scale, math.inf)
        reach = np.sqrt(np.einsum("...i,...i->...", features, features))
        reach += math.ldexp(1.0, -510)
        with np.errstate(over="ignore"):
            reach *= scale
        return reach

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
        p = check_vector(point, self.dimension, "contains: point")
        if self.kind == L2_BALL:
            # A distance that overflows to inf is correctly outside.
            with np.errstate(over="ignore"):
                return _norm(p - self.center) <= self.radius + MEMBERSHIP_TOL
        return bool(np.all(p >= self.lower - MEMBERSHIP_TOL)
                    and np.all(p <= self.upper + MEMBERSHIP_TOL))


def mirror_step(feasible_set, w, g, eta):
    """The projected gradient step project(w - eta * g).

    Under the Euclidean potential 0.5*||x||^2, the only one used here, the
    mirror-descent update with Bregman projection is exactly this step.
    """
    eta = check_real(eta, "mirror_step: eta")
    d = feasible_set.dimension
    w = check_vector(w, d, "mirror_step: w")
    g = check_vector(g, d, "mirror_step: g")
    with np.errstate(over="ignore"):
        point = w - eta * g
    if not np.isfinite(point).all():
        raise ConfigurationError("mirror_step: w - eta * g overflows")
    return feasible_set.project(point)
