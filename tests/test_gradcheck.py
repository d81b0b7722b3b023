"""The objective's central differences run as one stacked forward per
sample point; these tests pin them to the per-point loop they replace."""

import numpy as np
import pytest

from hycone import gradcheck
from hycone.autodiff import finite_diff, finite_diff_stacked
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

