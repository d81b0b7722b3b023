import numpy as np
import pytest

from hycone import autodiff as ad
from hycone.autodiff import PRIMITIVES, Tape, finite_diff, grad_report
from hycone.gradcheck import check_primitive, total_loss_report
from hycone.losses import SimilarityMode


class TestTapeBasics:
    def test_quadratic_gradient(self):
        v = np.array([1.0, -2.0, 3.0])
        tape = Tape()
        x = tape.var(v)
        out = ad.sum(x * x)
        grads = tape.backward(out)
        np.testing.assert_allclose(grads[x.idx], 2 * v, atol=1e-12)

    def test_distance_through_exp_map_is_norm(self):
        # d(O, exp(v)) = ||v||, so the gradient is v / ||v||
        from hycone import geometry

        v = np.array([0.6, -0.8, 1.1])
        tape = Tape()
        x = tape.var(v)
        sp = geometry.exp_space(x, 1.0)
        t = geometry.time_part(sp, 1.0)
        d = ad.acosh(ad.clamp(t, lo=1.0))  # sqrt(c)=1
        grads = tape.backward(ad.sum(d))
        np.testing.assert_allclose(grads[x.idx], v / np.linalg.norm(v), atol=1e-8)

    def test_contrastive_uniform_gradient_pattern(self):
        from hycone.losses import contrastive_from_logits

        b = 4
        logits = np.zeros((b, b))
        tape = Tape()
        m = tape.var(logits)
        out = contrastive_from_logits(m)
        analytic = tape.backward(out)[m.idx]
        expected = (np.full((b, b), 1.0 / b) - np.eye(b)) / b
        np.testing.assert_allclose(analytic, expected, atol=1e-12)
        numeric = finite_diff(
            lambda z: float(np.asarray(contrastive_from_logits(z.reshape(b, b)))),
            logits.ravel(),
        )
        np.testing.assert_allclose(analytic.ravel(), numeric, atol=1e-9)

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = tape.var(np.ones(3))
        y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_unreached_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.var(np.ones(3))
        y = tape.var(np.ones(2))
        out = ad.sum(x * x)
        grads = tape.backward(out)
        np.testing.assert_array_equal(grads[y.idx], np.zeros(2))

    def test_backward_bitwise_deterministic(self):
        rng = np.random.default_rng(0)
        tape = Tape()
        a = tape.var(rng.standard_normal((4, 3)))
        b = tape.var(rng.standard_normal((3, 5)))
        out = ad.sum(ad.tanh(ad.matmul(a, b)) * 0.5)
        g1 = tape.backward(out)
        g2 = tape.backward(out)
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_mixing_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError, match="different tapes"):
            _ = t1.var(1.0) + t2.var(1.0)

    def test_reverse_append_order(self):
        tape = Tape()
        x = tape.var(2.0)
        y = x * x
        z = y + x
        assert [n.op for n in tape.nodes] == ["var", "mul", "add"]
        assert float(z.value) == 6.0


class TestFiniteDiff:
    def test_constant(self):
        g = finite_diff(lambda x: 1.5, np.ones(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_linear_exact(self):
        a = np.array([2.0, -3.0, 0.5])
        g = finite_diff(lambda x: float(a @ x), np.zeros(3))
        np.testing.assert_allclose(g, a, atol=1e-9)

    def test_nonfinite_names_coordinate(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return float(np.log(x[1]))

        with pytest.raises(ValueError, match=r"coordinate \(1,\)"):
            finite_diff(f, np.array([1.0, 1e-20, 1.0]), h=1e-5)


class TestPrimitiveRegistry:
    def test_every_primitive_sampled(self):
        # each registered op must carry a usable sampler and adjoint
        assert len(PRIMITIVES) >= 20
        for name in PRIMITIVES:
            res = check_primitive(name, points=5, seed=1)
            assert res.passed, f"{name}: {res.report.max_abs_err}"

    def test_clamp_zero_subgradient_outside(self):
        tape = Tape()
        x = tape.var(np.array([-1.0, 0.0, 0.5, 2.0]))
        out = ad.sum(ad.clamp(x, lo=0.0, hi=1.0))
        g = tape.backward(out)[x.idx]
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0, 0.0])

    def test_hinge_zero_subgradient_at_kink(self):
        tape = Tape()
        x = tape.var(np.array([-1.0, 0.0, 2.0]))
        out = ad.sum(ad.relu(x))
        g = tape.backward(out)[x.idx]
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])

    def test_acosh_adjoint_bounded_near_boundary(self):
        tape = Tape()
        x = tape.var(np.array([1.0 + 1e-12]))
        out = ad.sum(ad.acosh(ad.clamp(x, lo=1.0)))
        g = tape.backward(out)[x.idx]
        assert np.all(np.isfinite(g))
        assert abs(g[0]) <= 1.0 / np.sqrt(2e-8) + 1.0


def recorded_margin(op, x, **params):
    """Kink margin of a tape that records one op on the var x."""
    tape = Tape()
    op(tape.var(np.array(x)), **params)
    return tape.kink_margin()


class TestKinkMargin:
    def test_records_clamp_margin(self):
        assert recorded_margin(ad.clamp, [0.3, 0.9], lo=0.0, hi=1.0) == pytest.approx(0.1)

    def test_records_hinge_margin(self):
        assert recorded_margin(ad.relu, [-0.02, 0.5]) == pytest.approx(0.02)

    # The margin is read from each input, not from the clipped output.
    def test_lower_bound_only(self):
        assert recorded_margin(ad.clamp, [0.2, 5.0], lo=0.25) == pytest.approx(0.05)

    def test_upper_bound_only(self):
        assert recorded_margin(ad.clamp, [1.1, -7.0], hi=1.0) == pytest.approx(0.1)

    def test_tape_without_kinks(self):
        assert recorded_margin(lambda x: ad.sum(ad.exp(x) * x), [0.0, 1.0]) == float("inf")

    def test_least_over_every_kink(self):
        tape = Tape()
        x = tape.var(np.array([0.5, 2.0]))
        ad.relu(ad.clamp(x, lo=0.3) - 1.97)
        assert tape.kink_margin() == pytest.approx(0.03)


class TestEndToEnd:
    @pytest.mark.parametrize("mode", [SimilarityMode.NEG_LORENTZ_DISTANCE, SimilarityMode.LORENTZ_INNER])
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_total_loss_gradients(self, mode, lam):
        count = 0
        seed = 0
        while count < 3:
            rep = total_loss_report(seed, mode, lam)
            seed += 1
            if rep is None:
                continue
            assert rep.within(1e-4, 1e-6), (mode, lam, rep.max_abs_err, rep.max_rel_err)
            count += 1

    def test_grad_report_helper(self):
        rep = grad_report(lambda x: ad.sum(ad.sinh(x) * x), np.array([0.3, -0.7]))
        assert rep.within(1e-6, 1e-9)
