"""Numerically stable primitives for the Lorentz (hyperboloid) model.

An n-dimensional hyperbolic space of curvature -c (c > 0) is represented
as the upper sheet of the two-sheeted hyperboloid in R^{n+1}:

    { x : <x, x>_L = -1/c },  <x, y>_L = <x_space, y_space> - x_time * y_time

Points store only their space components; the time component is always
recomputed as sqrt(1/c + ||x_space||^2), so the hyperboloid constraint
holds by construction and cannot drift.

Each quantity has one formula, in a row-kernel function (`time_part`,
`pair_inner`, `dist_from_inner`, `exp_space`, ...) over (..., n) arrays
of space components.  The kernels are generic over the autodiff engine:
given tape nodes they build the differentiable graph, given plain arrays
they evaluate identical numpy code.  The typed single-point operations
(`lift`, `lorentz_distance`, ...) on the frozen dataclasses below are
wrappers, not a second layer of formulas: they validate their arguments
and call the kernels on one row in 64-bit floats.

All operations are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NORM_FLOOR

# Clamp range applied to the curvature when it is a trainable parameter.
CURV_MIN = 0.1
CURV_MAX = 10.0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Curvature:
    """Positive scalar c; the hyperboloid has sectional curvature -c."""

    c: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"curvature must be a finite positive real, got {self.c}")


def _vector(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point on the upper hyperboloid sheet, stored as space components."""

    space: np.ndarray
    curv: Curvature

    def __post_init__(self):
        object.__setattr__(self, "space", _vector(self.space, "space"))

    @property
    def time(self) -> float:
        """Derived time component sqrt(1/c + ||space||^2); always > 0."""
        return time_part(self.space, self.curv.c).item()

    @property
    def dim(self) -> int:
        return self.space.shape[0]


@dataclass(frozen=True)
class TangentVector:
    """Vector in the tangent space at the hyperboloid origin.

    As an ambient (n+1)-vector [space, 0] it is Lorentz-orthogonal to the
    origin exactly.
    """

    space: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "space", _vector(self.space, "space"))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.space))


def _as_space_time(x) -> tuple[np.ndarray, float]:
    if isinstance(x, HyperbolicPoint):
        return x.space, x.time
    if isinstance(x, TangentVector):
        return x.space, 0.0
    raise TypeError(f"expected a HyperbolicPoint or TangentVector, got {type(x)!r}")


# ---------------------------------------------------------------------------
# Row kernels over (..., n) space components (autodiff-generic)
# ---------------------------------------------------------------------------

def sq_norm(x):
    """Row-wise squared Euclidean norm, keepdims: (..., n) -> (..., 1)."""
    return ad.sum(x * x, axis=-1, keepdims=True)


def safe_norm(x):
    """Row-wise norm with a tiny floor; zero rows get zero gradient."""
    return ad.sqrt(ad.clamp(sq_norm(x), lo=NORM_FLOOR))


def time_part(space, c):
    """Hyperboloid time components for rows of space components."""
    return ad.sqrt(sq_norm(space) + 1.0 / c)


def pair_inner(x_space, x_time, y_space, y_time):
    """Row-wise Lorentzian inner product: (..., 1)."""
    return ad.sum(x_space * y_space, axis=-1, keepdims=True) - x_time * y_time


def cross_inner(x_space, x_time, y_space, y_time):
    """All-pairs Lorentzian inner products: (B, n),(B, 1) x2 -> (B, B)."""
    return ad.matmul(x_space, ad.transpose(y_space)) - ad.matmul(x_time, ad.transpose(y_time))


def dist_from_inner(inner, c):
    """Geodesic distance from Lorentzian inner products.

    The acosh argument -c*<x,y>_L is clamped to >= 1, so coincident points
    give exactly zero distance; the acosh adjoint is safeguarded at
    1 + 1e-8, keeping gradients bounded near coincidence.
    """
    arg = ad.clamp(-(inner * c), lo=1.0)
    return ad.acosh(arg) / ad.sqrt(c)


def coincident(x_space, y_space) -> np.ndarray:
    """Row-wise: whether two rows of space components are the same point.
    Such points are at distance exactly 0, which the inner-product route
    can miss: it may round a few ulps above the acosh branch point."""
    return np.all(x_space == y_space, axis=-1)


def exp_space(v_space, c):
    """Space components of the origin exponential map applied to rows.

    x_space = sinh(sqrt(c) ||v||) / (sqrt(c) ||v||) * v, with the
    sinh(t)/t kernel switching to its Taylor series for small t.
    """
    t = ad.sqrt(c) * safe_norm(v_space)
    return ad.sinhc(t) * v_space


def log_space(x_space, c):
    """Space components of the origin logarithmic map applied to rows.

    v = acosh(sqrt(c) x_time) / (sqrt(c) ||x_space||) * x_space; exact
    inverse of `exp_space`.  The denominator is sqrt(c x_time^2 - 1) in
    exact arithmetic, but overflows no earlier than `time_part` itself
    (||x_space|| ~ 1.34e154), where c x_time^2 overflowed already at
    1.34e154 / sqrt(c); a zero row keeps the norm floor.
    """
    xt = time_part(x_space, c)
    num = ad.acosh(ad.clamp(ad.sqrt(c) * xt, lo=1.0))
    den = ad.sqrt(c) * safe_norm(x_space)
    return (num / den) * x_space


# ---------------------------------------------------------------------------
# Typed single-point operations
# ---------------------------------------------------------------------------

def lorentz_inner(x, y) -> float:
    """Lorentzian inner product <x,y>_L = <x_s, y_s> - x_t * y_t.

    Accepts any mix of HyperbolicPoint / TangentVector (whose time
    component is 0).
    Symmetric in its arguments.
    """
    xs, xt = _as_space_time(x)
    ys, yt = _as_space_time(y)
    if xs.shape != ys.shape:
        raise ValueError(f"dimension mismatch: {xs.shape[0]} vs {ys.shape[0]}")
    return pair_inner(xs, xt, ys, yt).item()


def lift(space, curv: Curvature) -> HyperbolicPoint:
    """Package space components as a point on the hyperboloid."""
    space = _vector(space, "space")
    if not np.all(np.isfinite(space)):
        raise ValueError("cannot lift non-finite space components")
    return HyperbolicPoint(space=space, curv=curv)


def origin(dim: int, curv: Curvature) -> HyperbolicPoint:
    """The hyperboloid origin O = [0, sqrt(1/c)]."""
    return HyperbolicPoint(space=np.zeros(dim), curv=curv)


def _check_same_chart(x: HyperbolicPoint, y: HyperbolicPoint) -> None:
    if x.curv.c != y.curv.c:
        raise ValueError(f"curvature mismatch: {x.curv.c} vs {y.curv.c}")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def lorentz_distance(x: HyperbolicPoint, y: HyperbolicPoint) -> float:
    """Geodesic distance (1/sqrt(c)) * acosh(-c <x,y>_L) >= 0.

    Symmetric, and exactly zero for coincident points (the acosh argument
    is clamped to >= 1 before acosh).
    """
    _check_same_chart(x, y)
    if coincident(x.space, y.space):
        return 0.0
    return dist_from_inner(lorentz_inner(x, y), x.curv.c).item()


def exp_map_origin(v, curv: Curvature) -> HyperbolicPoint:
    """Exponential map at the origin; radial isometry, so the geodesic
    distance of the result from O equals ||v_space||."""
    if isinstance(v, TangentVector):
        vs = v.space
    else:
        vs = _vector(v, "v")
    if not np.all(np.isfinite(vs)):
        raise ValueError("cannot exp-map non-finite tangent components")
    return HyperbolicPoint(space=np.asarray(exp_space(vs, curv.c)), curv=curv)


def log_map_origin(x: HyperbolicPoint) -> TangentVector:
    """Logarithmic map at the origin; exact inverse of `exp_map_origin`."""
    return TangentVector(space=np.asarray(log_space(x.space, x.curv.c)))


def poincare_to_lorentz(xb, curv: Curvature) -> HyperbolicPoint:
    """Map a point of the Poincare ball (c ||xb||^2 < 1) to the hyperboloid
    via x_space = 2 xb / (1 - c ||xb||^2)."""
    xb = _vector(xb, "xb")
    c = curv.c
    denom = 1.0 - c * float(np.dot(xb, xb))
    if denom <= 0.0:
        raise ValueError("point lies on or outside the Poincare ball boundary")
    return lift(2.0 * xb / denom, curv)
