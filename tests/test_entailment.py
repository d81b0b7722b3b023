import math

import numpy as np
import pytest

from hycone.entailment import ConeParams, exterior_angle, half_aperture, hinge_rows
from hycone.geometry import Curvature, TangentVector, exp_map_origin, lift, lorentz_distance, origin

C1 = Curvature(1.0)
CONES = ConeParams()
# forward clamps keep inverse-trig arguments 1e-8 inside their domain, so
# exact-boundary angles land within ~sqrt(2e-8) of their limits
CLAMP_TOL = 2e-4


def on_ray(radius, c=1.0):
    return exp_map_origin(TangentVector([radius, 0.0]), Curvature(c))


def hinge(x, y):
    """The objective's hinge kernel on one pair, x the cone apex."""
    out = hinge_rows(x.space, np.array([x.time]), y.space, np.array([y.time]), x.curv.c, CONES.boundary)
    return float(np.asarray(out).item())


class TestHalfAperture:
    def test_boundary_case_saturates(self):
        # 2K / ||x|| = 1 exactly: clamped asin(1 - 1e-8) ~ pi/2
        x = lift([0.2, 0.0], C1)
        assert half_aperture(x, CONES) == math.asin(1.0 - 1e-8)
        assert half_aperture(x, CONES) == pytest.approx(math.pi / 2, abs=CLAMP_TOL)

    def test_closed_form(self):
        x = lift([0.4, 0.0], C1)
        assert half_aperture(x, CONES) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_monotone_decreasing(self):
        a_near = half_aperture(lift([0.4, 0.0], C1), CONES)
        a_far = half_aperture(lift([0.8, 0.0], C1), CONES)
        assert a_near > a_far

    def test_reduces_to_fixed_curvature_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            space = rng.standard_normal(3)
            x = lift(space, C1)
            expected = math.asin(min(2 * 0.1 / np.linalg.norm(space), 1 - 1e-8))
            assert half_aperture(x, CONES) == pytest.approx(expected, abs=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            half_aperture(origin(2, C1), CONES)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ConeParams(boundary=0.0)


class TestExteriorAngle:
    def test_outbound_collinear_is_zero(self):
        assert exterior_angle(on_ray(1.0), on_ray(2.0)) == pytest.approx(0.0, abs=CLAMP_TOL)

    def test_opposite_ray_is_pi(self):
        assert exterior_angle(on_ray(1.0), on_ray(-1.0)) == pytest.approx(math.pi, abs=CLAMP_TOL)

    def test_origin_apex_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            exterior_angle(origin(2, C1), on_ray(1.0))

    def test_law_of_cosines_oracle(self):
        # independent derivation: hyperbolic law of cosines on the side
        # lengths of the triangle O-x-y gives the interior angle at x
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 300:
            c = float(rng.uniform(0.1, 10.0))
            curv = Curvature(c)
            x = exp_map_origin(TangentVector(rng.uniform(0.5, 1.5) * _unit(rng)), curv)
            y = exp_map_origin(TangentVector(rng.uniform(0.5, 1.5) * _unit(rng)), curv)
            o = origin(3, curv)
            sc = math.sqrt(c)
            d_oy, d_ox, d_xy = (
                lorentz_distance(o, y),
                lorentz_distance(o, x),
                lorentz_distance(x, y),
            )
            if d_xy < 1e-3:
                continue
            cos_angle = (math.cosh(d_xy * sc) * math.cosh(d_ox * sc) - math.cosh(d_oy * sc)) / (
                math.sinh(d_xy * sc) * math.sinh(d_ox * sc)
            )
            if abs(cos_angle) > 1 - 1e-3:
                continue
            oracle = math.pi - math.acos(cos_angle)
            assert exterior_angle(x, y) == pytest.approx(oracle, abs=1e-6)
            checked += 1


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestEntailmentLossPair:
    """The hinge max(0, ext - aper) of one pair, through `hinge_rows`."""

    def test_collinear_deeper_point_in_cone(self):
        assert hinge(on_ray(1.0), on_ray(2.0)) == 0.0

    def test_opposite_ray_penalty(self):
        x = on_ray(1.0)
        aper = math.asin(2 * 0.1 / math.sinh(1.0))
        loss = hinge(x, on_ray(-1.0))
        assert loss == pytest.approx(math.pi - aper, abs=CLAMP_TOL)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            c = float(rng.uniform(0.1, 10.0))
            curv = Curvature(c)
            x = exp_map_origin(TangentVector(rng.standard_normal(3)), curv)
            y = exp_map_origin(TangentVector(rng.standard_normal(3)), curv)
            if np.linalg.norm(x.space) == 0.0:
                continue
            assert hinge(x, y) >= 0.0

    def test_membership_dichotomy(self):
        rng = np.random.default_rng(3)
        inside = outside = 0
        for trial in range(300):
            c = float(rng.uniform(0.1, 2.0))
            curv = Curvature(c)
            x_dir = _unit(rng)
            x = exp_map_origin(TangentVector(0.6 * x_dir), curv)
            if trial % 2:
                # near the outbound ray through x: mostly inside the cone
                y_vec = rng.uniform(1.0, 2.0) * x_dir + 0.05 * rng.standard_normal(3)
            else:
                y_vec = rng.uniform(0.2, 2.5) * _unit(rng)
            y = exp_map_origin(TangentVector(y_vec), curv)
            loss = hinge(x, y)
            ext, aper = exterior_angle(x, y), half_aperture(x, CONES)
            if ext <= aper:
                assert loss == 0.0
                inside += 1
            else:
                assert loss > 0.0
                outside += 1
        assert inside > 10 and outside > 10

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            x_sp, y_sp = rng.standard_normal(4), rng.standard_normal(4)
            x, y = lift(x_sp, C1), lift(y_sp, C1)
            xr, yr = lift(q @ x_sp, C1), lift(q @ y_sp, C1)
            assert half_aperture(xr, CONES) == pytest.approx(half_aperture(x, CONES), abs=1e-9)
            assert exterior_angle(xr, yr) == pytest.approx(exterior_angle(x, y), abs=1e-9)
            assert hinge(xr, yr) == pytest.approx(hinge(x, y), abs=1e-9)


class TestChartChecks:
    def test_exterior_angle_curvature_mismatch(self):
        x = exp_map_origin(TangentVector([1.0, 0.0]), Curvature(1.0))
        y = exp_map_origin(TangentVector([2.0, 0.0]), Curvature(2.0))
        with pytest.raises(ValueError, match="curvature mismatch"):
            exterior_angle(x, y)

    def test_inner_accepts_tangent_vectors(self):
        from hycone.geometry import TangentVector as TV, lorentz_inner
        v = TV([1.0, 2.0])
        assert lorentz_inner(v, v) == 5.0     # time components are zero
