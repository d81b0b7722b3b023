"""The objective's and every primitive's central differences run as one
stacked forward per sample point; these tests pin them to the per-point
loops they replace."""

import zlib

import numpy as np
import pytest

from hycone import autodiff as ad
from hycone import gradcheck
from hycone.autodiff import PRIMITIVES, Tape, finite_diff, finite_diff_stacked, make_report
from hycone.losses import SimilarityMode, objective

LORENTZ_MODES = [SimilarityMode.NEG_LORENTZ_DISTANCE, SimilarityMode.LORENTZ_INNER]


def per_point_closure(case):
    """The objective at one flat point, as the loop over finite_diff saw it."""
    imgs, txts, scalars, run = case
    ni, nt = imgs.size, txts.size

    def f(flat):
        return float(np.asarray(run(flat[:ni].reshape(imgs.shape),
                                    flat[ni:ni + nt].reshape(txts.shape), flat[ni + nt:])))

    return f, np.concatenate([imgs.ravel(), txts.ravel(), scalars])


class TestStackedNumericGradient:
    @pytest.mark.parametrize("mode", LORENTZ_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_equals_per_point_loop(self, mode, lam):
        for case in gradcheck._admissible_cases(3, mode, lam, 4, 8):
            f, x = per_point_closure(case)
            np.testing.assert_array_equal(gradcheck._numeric_gradient(case, 1e-5),
                                          finite_diff(f, x, h=1e-5))

    def test_nonfinite_stacked_evaluation_names_coordinate(self):
        imgs, txts, scalars, run = next(
            gradcheck._admissible_cases(1, SimilarityMode.NEG_LORENTZ_DISTANCE, 0.2, 4, 8))
        first_txt = imgs.size     # flat coordinate of txts[0, 0]

        def poisoned(img_rows, txt_rows, sc):
            total = np.asarray(run(img_rows, txt_rows, sc), dtype=np.float64)
            return np.where(txt_rows[..., 0, 0] < txts[0, 0], np.nan, total)

        with pytest.raises(ValueError, match=rf"coordinate \({first_txt},\)"):
            gradcheck._numeric_gradient((imgs, txts, scalars, poisoned), 1e-5)


class TestFiniteDiffStacked:
    def test_stack_layout_on_matrix_input(self):
        x = np.random.default_rng(3).standard_normal((2, 3))
        seen = []

        def f_stack(points):
            seen.append(points.copy())
            return np.sum(np.sin(points), axis=(1, 2))

        grad = finite_diff_stacked(f_stack, x)
        np.testing.assert_allclose(grad, np.cos(x), atol=1e-9)
        (points,) = seen
        assert points.shape == (12, 2, 3)
        steps = (points - x).reshape(12, 6)
        np.testing.assert_array_equal(np.sign(steps), np.vstack([np.eye(6), -np.eye(6)]))

    def test_nonfinite_names_coordinate(self):
        def f_stack(pts):
            with np.errstate(invalid="ignore"):
                return np.log(pts[:, 1, 2])

        x = np.ones((2, 3))
        x[1, 2] = 1e-20
        with pytest.raises(ValueError, match=r"coordinate \(1, 2\)"):
            finite_diff_stacked(f_stack, x)


class TestStackedObjective:
    @pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("batch,dim", [(4, 8), (64, 16)])
    def test_stack_equals_single_calls(self, mode, batch, dim):
        k = 5
        rng = np.random.default_rng(batch)
        imgs = rng.standard_normal((k, batch, dim))
        txts = rng.standard_normal((k, batch, dim))
        scalars = np.stack([
            np.log(1.0 / 0.07) + 0.1 * rng.standard_normal(k),
            0.1 * rng.standard_normal(k),
            np.log(1.0 / np.sqrt(dim)) + 0.1 * rng.standard_normal(k),
            np.log(1.0 / np.sqrt(dim)) + 0.1 * rng.standard_normal(k),
        ])
        for lam in (0.0, 0.2):
            kw = dict(mode=mode, entail_weight=lam, cone_boundary=gradcheck.CONE_BOUNDARY)
            stacked = objective(imgs, txts, *scalars.reshape(4, k, 1, 1), **kw)
            assert np.shape(stacked[0]) == (k,)
            for j in range(k):
                single = objective(imgs[j], txts[j], *scalars[:, j], **kw)
                for s, one in zip(stacked, single):
                    assert np.broadcast_to(s, (k,))[j] == one



def loop_check_primitive(name, points, seed):
    """check_primitive as it ran before its differences were stacked: per
    sample point, a scalar closure through `finite_diff` (2N forwards).
    Returns the CheckResult and each point's (inputs, params, numeric)."""
    prim = PRIMITIVES[name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    worst, ok, draws = None, True, []
    for _ in range(points):
        inputs, params = prim.sample(rng)
        inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
        numeric = loop_numeric_gradient(prim, inputs, params)
        tape = Tape()
        nodes = [tape.var(a) for a in inputs]
        grads = tape.backward(ad.sum(ad.apply_op(name, *nodes, **params)))
        rep = make_report(np.concatenate([grads[n.idx].ravel() for n in nodes]), numeric)
        if worst is None or rep.max_abs_err > worst.max_abs_err:
            worst = rep
        ok &= rep.within(gradcheck.PRIMITIVE_RTOL, gradcheck.PRIMITIVE_ATOL)
        draws.append((inputs, params, numeric))
    return gradcheck.CheckResult(name=f"primitive/{name}", passed=ok, report=worst), draws


def loop_numeric_gradient(prim, inputs, params):
    def f(flat):
        args, off = [], 0
        for a in inputs:
            args.append(flat[off:off + a.size].reshape(a.shape))
            off += a.size
        return float(np.sum(prim.forward(*args, **params)))

    return finite_diff(f, np.concatenate([a.ravel() for a in inputs]))


def assert_same_result(got, want):
    assert (got.name, got.passed) == (want.name, want.passed)
    assert (got.report.max_abs_err, got.report.max_rel_err) == \
        (want.report.max_abs_err, want.report.max_rel_err)
    np.testing.assert_array_equal(got.report.analytic, want.report.analytic)
    np.testing.assert_array_equal(got.report.numeric, want.report.numeric)


class TestStackedPrimitiveCheck:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_equals_per_point_loop(self, name):
        for seed in (0, 1, 5):
            want, draws = loop_check_primitive(name, 15, seed)
            for inputs, params, numeric in draws:
                np.testing.assert_array_equal(
                    gradcheck._primitive_numeric_gradient(PRIMITIVES[name], inputs, params), numeric)
            assert_same_result(gradcheck.check_primitive(name, points=15, seed=seed), want)

    def test_draws_cover_axes_and_broadcasts(self):
        seen = {name: set() for name in ("sum", "add", "mul")}
        for name in seen:
            for seed in (0, 1, 5):
                for inputs, params, _ in loop_check_primitive(name, 15, seed)[1]:
                    seen[name].add((params.get("axis"), params.get("keepdims"), inputs[-1].shape))
        assert {(a, k) for a, k, _ in seen["sum"]} == {
            (a, k) for a in (None, 0, -1) for k in (False, True)}
        assert {s for *_, s in seen["add"]} == {(3, 4), (4,)}
        assert {s for *_, s in seen["mul"]} == {(3, 4), (3, 1)}

    @pytest.mark.parametrize("axis", [None, 0, 1, -1, -2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_sum_axis_counted_from_end(self, axis, keepdims):
        x = np.random.default_rng(2).standard_normal((3, 4))
        params = {"axis": axis, "keepdims": keepdims}
        np.testing.assert_array_equal(
            gradcheck._primitive_numeric_gradient(PRIMITIVES["sum"], [x], params),
            loop_numeric_gradient(PRIMITIVES["sum"], [x], params))

    @pytest.mark.parametrize("name, shapes", [
        ("add", [(3, 4), (4,)]), ("add", [(4,), (3, 4)]), ("mul", [(3, 4), (3, 1)]),
        ("mul", [(3, 4), ()]), ("sub", [(3, 4), (3, 4)]), ("transpose", [(3, 4)]),
        ("transpose", [(5, 2)]), ("matmul", [(3, 4), (4, 2)]),
    ])
    def test_broadcasts_and_transposes(self, name, shapes):
        rng = np.random.default_rng(4)
        inputs = [rng.standard_normal(s) for s in shapes]
        np.testing.assert_array_equal(
            gradcheck._primitive_numeric_gradient(PRIMITIVES[name], inputs, {}),
            loop_numeric_gradient(PRIMITIVES[name], inputs, {}))
