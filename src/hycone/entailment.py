"""Entailment-cone geometry and the partial-order hinge loss.

Each point x away from the origin projects a cone opening outward (away
from O).  A point y is entailed by x when y lies inside that cone, i.e.
when the exterior angle at x in the geodesic triangle O-x-y does not
exceed the cone's half-aperture.  The hinge penalty

    max(0, ext(x, y) - aper(x))

is zero exactly when the partial order x -> y already holds.  Formulas
are valid for any curvature c > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry
from .geometry import HyperbolicPoint

# Inverse-trig arguments are kept this far inside their domain, so angles
# stay finite-gradient; the sqrt argument floor below guards coincident
# points.
ANGLE_EPS = 1e-8
SQRT_FLOOR = 1e-16

# The default cone boundary constant K (MERU's min_radius): the trainer,
# traversal and the gradient check use it unless told otherwise.
CONE_BOUNDARY = 0.1


@dataclass(frozen=True)
class ConeParams:
    """Cone boundary constant; fixes aperture behaviour near the origin.

    Points with ||x_space|| <= 2 * boundary / sqrt(c) get a fully open
    cone (half-aperture ~ pi/2): everything is entailed near the origin.
    """

    boundary: float = CONE_BOUNDARY

    def __post_init__(self):
        if not (np.isfinite(self.boundary) and self.boundary > 0.0):
            raise ValueError(f"cone boundary constant must be positive, got {self.boundary}")


# ---------------------------------------------------------------------------
# Row kernels (autodiff-generic, shapes as in geometry row kernels)
# ---------------------------------------------------------------------------

def aperture_rows(x_space, c, boundary):
    """Half-aperture asin(2K / (sqrt(c) ||x_space||)) per row: (..., 1).

    The asin argument is clamped to <= 1 - 1e-8; rows nearer the origin
    than the cone boundary therefore saturate at ~ pi/2.
    """
    arg = (2.0 * boundary) / (ad.sqrt(c) * geometry.safe_norm(x_space))
    return ad.asin(ad.clamp(arg, hi=1.0 - ANGLE_EPS))


def exterior_rows(x_space, x_time, y_space, y_time, c):
    """Exterior angle pi - angle(O, x, y) per row: (..., 1).

    Zero means y lies on the outbound geodesic ray from O through x.  The
    acos argument is clamped to [-1 + 1e-8, 1 - 1e-8] and the inner sqrt
    argument to >= 1e-16.
    """
    ip = geometry.pair_inner(x_space, x_time, y_space, y_time)
    cip = c * ip
    num = y_time + x_time * cip
    den = geometry.safe_norm(x_space) * ad.sqrt(ad.clamp(cip * cip - 1.0, lo=SQRT_FLOOR))
    ratio = ad.clamp(num / den, lo=-1.0 + ANGLE_EPS, hi=1.0 - ANGLE_EPS)
    return ad.acos(ratio)


def hinge_rows(x_space, x_time, y_space, y_time, c, boundary):
    """Per-row entailment hinge max(0, ext - aper) with x as cone apex."""
    ext = exterior_rows(x_space, x_time, y_space, y_time, c)
    aper = aperture_rows(x_space, c, boundary)
    return ad.relu(ext - aper)


# ---------------------------------------------------------------------------
# Typed single-pair operations
# ---------------------------------------------------------------------------

def _check_apex(x: HyperbolicPoint) -> None:
    if float(np.dot(x.space, x.space)) == 0.0:
        raise ValueError("entailment cone is undefined at the origin")


def half_aperture(x: HyperbolicPoint, params: ConeParams) -> float:
    """Half-aperture of the cone projected by x, in radians (0, pi/2]."""
    _check_apex(x)
    return float(np.asarray(aperture_rows(x.space, x.curv.c, params.boundary)).item())


def exterior_angle(x: HyperbolicPoint, y: HyperbolicPoint) -> float:
    """Exterior angle pi - angle(O, x, y) in radians [0, pi]."""
    geometry._check_same_chart(x, y)
    _check_apex(x)
    c = x.curv.c
    out = exterior_rows(
        x.space, np.array([x.time]), y.space, np.array([y.time]), c
    )
    return float(np.asarray(out).item())


def entailment_loss_pair(x_text: HyperbolicPoint, y_image: HyperbolicPoint, params: ConeParams) -> float:
    """Hinge penalty max(0, ext(x, y) - aper(x)); zero when y is inside
    the cone projected by x."""
    ext = exterior_angle(x_text, y_image)
    aper = half_aperture(x_text, params)
    return max(0.0, ext - aper)
