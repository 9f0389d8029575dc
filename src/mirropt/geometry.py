"""Prox-function geometries: Bregman divergences, dual norms and mirror steps.

A geometry bundles the feasible set X, a prox function d that is 1-strongly
convex on X with respect to the geometry's primal norm, and the anchor point
where d attains its minimum (the solver's starting point).  Three closed-form
geometries are provided:

* :class:`EuclideanSpace`  -- all of R^n, d(x) = ||x - anchor||^2 / 2
* :class:`EuclideanBall`   -- a Euclidean ball, same d, steps are projected
* :class:`EntropySimplex`  -- the unit simplex with the entropy prox, whose
  Bregman divergence is the KL divergence (l1 primal norm, max dual norm)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ProxGeometry",
    "EuclideanSpace",
    "EuclideanBall",
    "EntropySimplex",
    "dual_norm",
    "bregman_divergence",
    "mirror_step",
]

Array = np.ndarray

# Feasibility drift allowed before a point is considered outside the set.
FEASIBILITY_TOL = 1e-12


def as_vector(v, dimension: int | None = None, name: str = "vector") -> Array:
    """Coerce to a 1-D float64 array, checking dimension and finiteness."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValueError(
            f"{name} has dimension {arr.shape[0]}, expected {dimension}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class ProxGeometry:
    """Base class for prox geometries.

    Parameters
    ----------
    anchor : array-like
        Minimizer of the prox function over the feasible set; the solver
        starts from this point.
    theta0 : float
        Radius parameter: the comparison point x* is assumed to satisfy
        d(x*) <= theta0**2.
    """

    def __init__(self, anchor, theta0: float) -> None:
        self.anchor = as_vector(anchor, name="anchor")
        theta0 = float(theta0)
        if not math.isfinite(theta0) or theta0 <= 0.0:
            raise ValueError("theta0 must be finite and positive")
        self.theta0 = theta0
        self.dimension = self.anchor.shape[0]

    # Subclasses implement the actual geometry.
    def contains(self, x: Array) -> bool:
        raise NotImplementedError

    def distance_generating_value(self, x: Array) -> float:
        """Value of the prox function d at x (zero at the anchor)."""
        raise NotImplementedError

    def dual_norm(self, p: Array) -> float:
        raise NotImplementedError

    def bregman(self, x: Array, y: Array) -> float:
        raise NotImplementedError

    def mirror_step(self, x: Array, p: Array, h: float) -> Array:
        raise NotImplementedError

    def validate_point(self, x, name: str = "point") -> Array:
        x = as_vector(x, self.dimension, name)
        if not self.contains(x):
            raise ValueError(f"{name} lies outside the feasible set")
        return x


class EuclideanSpace(ProxGeometry):
    """Unconstrained Euclidean geometry: d(x) = ||x - anchor||^2 / 2.

    Mirror steps are plain subgradient steps x - h*p; the primal and dual
    norms are both l2.
    """

    def contains(self, x: Array) -> bool:
        return x.shape[0] == self.dimension

    def distance_generating_value(self, x: Array) -> float:
        d = x - self.anchor
        return 0.5 * float(d @ d)

    def dual_norm(self, p: Array) -> float:
        return math.sqrt(float(p @ p))

    def bregman(self, x: Array, y: Array) -> float:
        d = y - x
        return 0.5 * float(d @ d)

    def mirror_step(self, x: Array, p: Array, h: float) -> Array:
        return x - h * p


class EuclideanBall(EuclideanSpace):
    """Euclidean ball geometry: mirror steps project radially onto the ball.

    The prox function, norms and divergence are those of
    :class:`EuclideanSpace`.

    Parameters
    ----------
    center : array-like
        Ball center.
    radius : float
        Ball radius, must be positive.
    anchor : array-like, optional
        Starting point, defaults to the center.  Must lie inside the ball.
    theta0 : float
        Prox-radius parameter, see :class:`ProxGeometry`.
    """

    def __init__(self, center, radius: float, theta0: float, anchor=None) -> None:
        center = as_vector(center, name="center")
        radius = float(radius)
        if not math.isfinite(radius) or radius <= 0.0:
            raise ValueError("radius must be finite and positive")
        if anchor is None:
            anchor = center
        super().__init__(anchor, theta0)
        self.center = as_vector(center, self.dimension, "center")
        self.radius = radius
        if not self.contains(self.anchor):
            raise ValueError("anchor lies outside the ball")

    def contains(self, x: Array) -> bool:
        d = x - self.center
        return math.sqrt(float(d @ d)) <= self.radius * (1.0 + FEASIBILITY_TOL)

    def mirror_step(self, x: Array, p: Array, h: float) -> Array:
        return self.scaled_step(x, p, h)[0]

    def scaled_step(self, x: Array, p: Array, h: float) -> tuple[Array, float]:
        """The mirror step x' and its radial scale t: x' = center + t (x -
        h p - center), t = 1.0 where x - h p lies in the ball (no
        projection), radius / ||x - h p - center|| where it does not."""
        z = x - h * p
        d = z - self.center
        nrm = math.sqrt(float(d @ d))
        if nrm > self.radius:
            t = self.radius / nrm
            return self.center + d * t, t
        return z, 1.0


class EntropySimplex(ProxGeometry):
    """Unit-simplex geometry with the entropy prox function.

    d(x) = sum_i x_i log x_i + log n, minimized at the uniform point; the
    Bregman divergence is the KL divergence and mirror steps are
    multiplicative-weight updates.  Primal norm l1, dual norm max.

    Parameters
    ----------
    dimension : int
        Number of simplex coordinates, at least 1.
    theta0 : float
        Prox-radius parameter, see :class:`ProxGeometry`.
    """

    def __init__(self, dimension: int, theta0: float) -> None:
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        super().__init__(np.full(dimension, 1.0 / dimension), theta0)

    def contains(self, x: Array) -> bool:
        if x.shape[0] != self.dimension:
            return False
        return bool(np.all(x >= -FEASIBILITY_TOL)) and abs(float(x.sum()) - 1.0) <= 1e-9

    def distance_generating_value(self, x: Array) -> float:
        # 0 log 0 = 0 by convention.
        pos = x[x > 0.0]
        return float(pos @ np.log(pos)) + math.log(self.dimension)

    def dual_norm(self, p: Array) -> float:
        return float(np.max(np.abs(p)))

    def bregman(self, x: Array, y: Array) -> float:
        if np.any(x <= 0.0):
            raise ValueError(
                "KL divergence requires strictly positive first argument"
            )
        mask = y > 0.0
        ym = y[mask]
        return float(ym @ (np.log(ym) - np.log(x[mask])))

    def mirror_step(self, x: Array, p: Array, h: float) -> Array:
        # Multiplicative update u_i proportional to x_i * exp(-h p_i),
        # computed in log space for stability, in one float64 buffer (p (-h)
        # is -(h p) exactly); zero coordinates stay zero.  Only an x with a
        # zero or NaN coordinate enters errstate, to silence log(0).
        logits = np.multiply(p, -h, dtype=np.float64)
        if np.minimum.reduce(x) > 0.0:
            logits += np.log(x)
        else:
            with np.errstate(divide="ignore"):
                logits += np.log(x)
        logits -= np.maximum.reduce(logits)
        np.exp(logits, out=logits)
        logits /= np.add.reduce(logits)
        return logits


def dual_norm(p, structure: ProxGeometry) -> float:
    """Dual norm of a gradient-space vector under the geometry's norm pair."""
    p = as_vector(p, structure.dimension, "p")
    return structure.dual_norm(p)


def bregman_divergence(x, y, structure: ProxGeometry) -> float:
    """Bregman divergence V(x, y) = d(y) - d(x) - <grad d(x), y - x>.

    The first argument is the gradient anchor.  Nonnegative, and at least
    half the squared primal-norm distance between x and y.
    """
    x = structure.validate_point(x, "x")
    y = structure.validate_point(y, "y")
    return structure.bregman(x, y)


def mirror_step(x, p, h: float, structure: ProxGeometry) -> Array:
    """Prox-mapping step: argmin_u { <h*p, u> + V(x, u) } over the feasible set."""
    x = structure.validate_point(x, "x")
    p = as_vector(p, structure.dimension, "p")
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError("step size h must be finite and positive")
    return structure.mirror_step(x, p, h)
