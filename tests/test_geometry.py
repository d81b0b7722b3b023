import dataclasses
import math

import numpy as np
import pytest

from hycone import geometry
from hycone.geometry import (
    AmbientVector,
    Curvature,
    HyperbolicPoint,
    TangentVector,
    exp_map_origin,
    lift,
    log_map_origin,
    lorentz_distance,
    lorentz_inner,
    origin,
    poincare_to_lorentz,
    tangent_project,
    time_component,
)
from hycone.losses import LossParams, SimilarityMode, logit_matrix, lorentz_logits

C1 = Curvature(1.0)


def random_point(rng, dim, c, max_radius=2.0):
    # bounded geodesic radius keeps hyperboloid coordinates in the regime
    # where 1e-9 absolute residual checks are meaningful in 64-bit floats
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    v = TangentVector(rng.uniform(0.0, max_radius) * direction)
    return exp_map_origin(v, Curvature(c))


class TestCurvature:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Curvature(0.0)
        with pytest.raises(ValueError):
            Curvature(-1.0)

    def test_clamped_range(self):
        def clamped(raw):
            return LossParams(log_inv_temp=0.0, log_curv=math.log(raw),
                              log_scale_img=0.0, log_scale_txt=0.0).curv().c

        assert clamped(0.01) == 0.1
        assert clamped(50.0) == 10.0
        assert clamped(2.5) == math.exp(math.log(2.5))


class TestLorentzInner:
    def test_origin_self_inner_is_minus_inv_c(self):
        o = origin(2, C1)
        assert lorentz_inner(o, o) == -1.0
        o4 = origin(3, Curvature(4.0))
        assert lorentz_inner(o4, o4) == pytest.approx(-0.25, abs=1e-12)

    def test_on_hyperboloid_self_inner(self):
        p = lift([1.0, 0.0], C1)
        assert lorentz_inner(p, p) == pytest.approx(-1.0, abs=1e-12)

    def test_origin_vs_lifted(self):
        # 0 - 1*sqrt(2)
        o = origin(2, C1)
        p = lift([1.0, 0.0], C1)
        assert lorentz_inner(o, p) == pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = AmbientVector(rng.standard_normal(3), rng.standard_normal())
            y = AmbientVector(rng.standard_normal(3), rng.standard_normal())
            assert lorentz_inner(x, y) == lorentz_inner(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            lorentz_inner(AmbientVector([1.0, 0.0], 1.0), AmbientVector([1.0, 0.0, 0.0], 1.0))


class TestTimeComponentAndLift:
    def test_zero_space(self):
        assert time_component(np.zeros(3), C1) == 1.0
        assert time_component(np.zeros(3), Curvature(0.25)) == 2.0

    def test_three_four_five(self):
        assert time_component([3.0, 4.0], C1) == pytest.approx(math.sqrt(26), abs=1e-12)

    def test_lift_origin(self):
        p = lift(np.zeros(2), C1)
        assert p.time == 1.0
        np.testing.assert_array_equal(p.space, np.zeros(2))

    def test_lift_unit(self):
        assert lift([1.0, 0.0], C1).time == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_lift_sinh_identity(self):
        # cosh^2 - sinh^2 = 1
        p = lift([math.sinh(1.0), 0.0], C1)
        assert p.time == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_lift_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lift([np.nan, 0.0], C1)
        with pytest.raises(ValueError):
            lift([np.inf, 0.0], C1)


class TestDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = random_point(rng, 4, float(rng.uniform(0.1, 10.0)))
            assert lorentz_distance(x, x) == 0.0

    def test_closed_form(self):
        o = origin(2, C1)
        p = lift([1.0, 0.0], C1)
        assert lorentz_distance(o, p) == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-12)

    def test_curvature_prefactor(self):
        c4 = Curvature(4.0)
        x, y = lift([0.3, 0.1], c4), lift([-0.2, 0.5], c4)
        ip = lorentz_inner(x, y)
        expected = math.acosh(-4.0 * ip) / 2.0
        assert lorentz_distance(x, y) == pytest.approx(expected, abs=1e-12)

    def test_curvature_mismatch(self):
        with pytest.raises(ValueError, match="curvature mismatch"):
            lorentz_distance(lift([1.0], C1), lift([1.0], Curvature(2.0)))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = float(rng.uniform(0.1, 10.0))
            x, y = random_point(rng, 3, c), random_point(rng, 3, c)
            assert lorentz_distance(x, y) == lorentz_distance(y, x)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c = float(rng.uniform(0.1, 10.0))
            x, y, z = (random_point(rng, 3, c, max_radius=3.0) for _ in range(3))
            assert lorentz_distance(x, z) <= lorentz_distance(x, y) + lorentz_distance(y, z) + 1e-7


class TestExpMap:
    def test_zero_vector(self):
        p = exp_map_origin(TangentVector(np.zeros(3)), C1)
        np.testing.assert_array_equal(p.space, np.zeros(3))
        assert p.time == 1.0

    def test_unit_vector(self):
        p = exp_map_origin(TangentVector([1.0, 0.0]), C1)
        assert p.space[0] == pytest.approx(math.sinh(1.0), abs=1e-12)
        assert p.space[1] == 0.0
        assert p.time == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_large_norm_growth(self):
        # norm sqrt(512) maps to space norm sinh(sqrt(512)) ~ 3.36e9
        n = math.sqrt(512)
        p = exp_map_origin(TangentVector([n, 0.0]), C1)
        assert np.linalg.norm(p.space) == pytest.approx(math.sinh(n), rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            exp_map_origin(TangentVector([np.nan]), C1)

    def test_constraint_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            c = float(rng.uniform(0.1, 10.0))
            p = random_point(rng, 5, c)
            assert abs(lorentz_inner(p, p) + 1.0 / c) < 1e-9

    def test_radial_isometry(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            c = float(rng.uniform(0.1, 10.0))
            v = TangentVector(1.5 * rng.standard_normal(4))
            p = exp_map_origin(v, Curvature(c))
            d = lorentz_distance(origin(4, Curvature(c)), p)
            assert abs(d - v.norm) < 1e-8


class TestLogMap:
    def test_log_origin_is_zero(self):
        v = log_map_origin(origin(3, C1))
        np.testing.assert_array_equal(v.space, np.zeros(3))

    def test_inverse_of_exp_example(self):
        p = HyperbolicPoint(space=np.array([math.sinh(1.0), 0.0]), curv=C1)
        v = log_map_origin(p)
        np.testing.assert_allclose(v.space, [1.0, 0.0], atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            c = float(rng.uniform(0.1, 10.0))
            v = rng.standard_normal(4)
            norm = np.linalg.norm(v)
            if norm > 5.0:
                v = v * (5.0 / norm)
            back = log_map_origin(exp_map_origin(TangentVector(v), Curvature(c)))
            np.testing.assert_allclose(back.space, v, atol=1e-8)


class TestTangentProject:
    def test_origin_onto_itself_vanishes(self):
        o = origin(2, C1)
        w = tangent_project(o, AmbientVector(np.zeros(2), 1.0))
        np.testing.assert_array_equal(w.space, np.zeros(2))
        assert w.time == 0.0

    def test_tangent_fixed_point(self):
        o = origin(2, C1)
        u = AmbientVector([0.7, -0.3], 0.0)
        w = tangent_project(o, u)
        np.testing.assert_array_equal(w.space, u.space)
        assert w.time == 0.0

    def test_kills_time_component_at_origin(self):
        o = origin(2, C1)
        w = tangent_project(o, AmbientVector([0.5, 0.25], 3.0))
        np.testing.assert_array_equal(w.space, [0.5, 0.25])
        assert w.time == 0.0

    def test_projection_is_tangent(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = float(rng.uniform(0.1, 10.0))
            z = random_point(rng, 3, c)
            u = AmbientVector(rng.standard_normal(3), rng.standard_normal())
            w = tangent_project(z, u)
            assert abs(lorentz_inner(z, w)) < 1e-9


class TestPoincareMap:
    def test_center_to_origin(self):
        p = poincare_to_lorentz(np.zeros(3), C1)
        np.testing.assert_array_equal(p.space, np.zeros(3))

    def test_half_radius(self):
        p = poincare_to_lorentz([0.5, 0.0], C1)
        np.testing.assert_allclose(p.space, [4.0 / 3.0, 0.0], atol=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            poincare_to_lorentz([1.0, 0.0], C1)
        with pytest.raises(ValueError):
            poincare_to_lorentz([0.8, 0.8], C1)

    def test_aperture_invariance(self):
        # half-aperture computed on the mapped point must match the
        # ball-model closed form asin(K (1 - c r^2) / (sqrt(c) r))
        from hycone.entailment import ConeParams, half_aperture

        k = 0.1
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 200:
            c = float(rng.uniform(0.1, 10.0))
            u = float(rng.uniform(0.15, 0.95))  # sqrt(c) * r
            r = u / math.sqrt(c)
            direction = rng.standard_normal(3)
            xb = r * direction / np.linalg.norm(direction)
            arg = k * (1 - c * r * r) / (math.sqrt(c) * r)
            if arg > 1 - 1e-6:
                continue
            ball_aperture = math.asin(arg)
            mapped = poincare_to_lorentz(xb, Curvature(c))
            assert abs(half_aperture(mapped, ConeParams(boundary=k)) - ball_aperture) < 1e-10
            checked += 1


class TestWrappersEqualKernels:
    """The typed single-point operations return the row kernels' numbers
    bit for bit, the kernels run on the points stacked as rows."""

    @staticmethod
    def cases(seed, count=200, rows=4):
        """(points, stacked space rows, c) with c in [0.1, 10], dims 1-16."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            c = float(rng.uniform(0.1, 10.0))
            dim = int(rng.integers(1, 17))
            sp = rng.standard_normal((rows, dim)) * rng.uniform(0.01, 5.0)
            yield [HyperbolicPoint(space=row, curv=Curvature(c)) for row in sp], sp, c

    def test_time(self):
        for points, sp, c in self.cases(0):
            t = geometry.time_part(sp, c)
            for i, p in enumerate(points):
                assert p.time == t[i, 0]
                assert time_component(p.space, p.curv) == t[i, 0]

    def test_inner(self):
        for points, sp, c in self.cases(1):
            t = geometry.time_part(sp, c)
            y_sp, y_t = sp[::-1], t[::-1]
            want = geometry.pair_inner(sp, t, y_sp, y_t)
            for i, (x, y) in enumerate(zip(points, points[::-1])):
                assert lorentz_inner(x, y) == want[i, 0]

    def test_distance_on_distinct_points(self):
        for points, sp, c in self.cases(2):
            t = geometry.time_part(sp, c)
            y_sp, y_t = np.roll(sp, 1, axis=0), np.roll(t, 1, axis=0)
            want = geometry.dist_from_inner(geometry.pair_inner(sp, t, y_sp, y_t), c)
            for i, (x, y) in enumerate(zip(points, points[-1:] + points[:-1])):
                assert not np.array_equal(x.space, y.space)
                assert lorentz_distance(x, y) == want[i, 0]

    @pytest.mark.parametrize("mode", [SimilarityMode.NEG_LORENTZ_DISTANCE, SimilarityMode.LORENTZ_INNER])
    def test_logit_matrix(self, mode):
        params = dataclasses.replace(LossParams.init(1), log_inv_temp=float(np.log(1.0 / 0.2)))
        for points, sp, c in self.cases(3):
            images, texts = points[:2], points[2:]
            t = geometry.time_part(sp, c)
            want = lorentz_logits(sp[:2], t[:2], sp[2:], t[2:], c, params.inv_temp(), mode)
            np.testing.assert_array_equal(logit_matrix(images, texts, params, mode), want)
