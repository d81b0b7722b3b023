import dataclasses
import functools
import math

import numpy as np
import pytest

from hycone.entailment import CONE_BOUNDARY, ConeParams, exterior_angle, half_aperture
from hycone.geometry import Curvature, TangentVector, exp_map_origin, lorentz_distance, lorentz_inner
from hycone.losses import (
    BatchEmbeddings,
    LossParams,
    SimilarityMode,
    contrastive_from_logits,
    lift_batch,
    logit_matrix,
    objective,
)

N = 4
# The objective in the hyperbolic mode the trainer defaults to, on plain
# arrays: (images, texts, log_inv_temp, log_curv, log_scale_img,
# log_scale_txt, entail_weight=...) -> (total, contrastive, entailment).
neg_distance_objective = functools.partial(
    objective, mode=SimilarityMode.NEG_LORENTZ_DISTANCE, cone_boundary=CONE_BOUNDARY
)
# log_inv_temp, log_curv, log_scale_img, log_scale_txt of LossParams.init(N)
INIT = dataclasses.astuple(LossParams.init(N))


def unit_params():
    # tau = 1, c = 1, scales = 1
    return LossParams(log_inv_temp=0.0, log_curv=0.0, log_scale_img=0.0, log_scale_txt=0.0)


class TestLiftBatch:
    def test_zero_row_maps_to_origin(self):
        batch = BatchEmbeddings(images=np.zeros((2, 3)), texts=np.ones((2, 3)))
        images, _ = lift_batch(batch, LossParams.init(3))
        np.testing.assert_array_equal(images[0].space, np.zeros(3))
        assert images[0].time == pytest.approx(1.0)

    def test_unit_scale_matches_exp_map(self):
        batch = BatchEmbeddings(images=np.array([[1.0, 0.0], [0.0, 1.0]]), texts=np.zeros((2, 2)))
        images, _ = lift_batch(batch, unit_params())
        expected = exp_map_origin(TangentVector([1.0, 0.0]), Curvature(1.0))
        np.testing.assert_allclose(images[0].space, expected.space, atol=1e-12)

    def test_scale_applied_before_lift(self):
        p = unit_params()
        p.log_scale_img = math.log(1.0 / math.sqrt(2.0))
        batch = BatchEmbeddings(images=np.array([[1.0, 1.0], [0.0, 1.0]]), texts=np.zeros((2, 2)))
        images, _ = lift_batch(batch, p)
        expected = exp_map_origin(TangentVector(np.array([1.0, 1.0]) / math.sqrt(2.0)), Curvature(1.0))
        np.testing.assert_allclose(images[0].space, expected.space, atol=1e-12)

    def test_nonfinite_row_identified(self):
        images = np.zeros((3, 2))
        images[1, 0] = np.nan
        batch = BatchEmbeddings(images=images, texts=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="images row at index 1"):
            lift_batch(batch, unit_params())

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match=">= 2"):
            BatchEmbeddings(images=np.zeros((1, 2)), texts=np.zeros((1, 2)))


class TestLogitMatrix:
    def test_diagonal_zero_for_matched_pairs(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, N))
        batch = BatchEmbeddings(images=rows, texts=rows.copy())
        params = unit_params()
        images, texts = lift_batch(batch, params)
        logits = logit_matrix(images, texts, params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        np.testing.assert_array_equal(np.diag(logits), np.zeros(3))

    def test_inner_product_bound(self):
        rng = np.random.default_rng(1)
        params = LossParams.init(N)
        batch = BatchEmbeddings(images=rng.standard_normal((5, N)), texts=rng.standard_normal((5, N)))
        images, texts = lift_batch(batch, params)
        logits = logit_matrix(images, texts, params, SimilarityMode.LORENTZ_INNER)
        bound = -(1.0 / params.curv().c) * params.inv_temp()
        assert np.all(logits <= bound + 1e-9)

    def test_constructed_two_by_two(self):
        # pairs on one radial geodesic: d(x1,y1)=d(x2,y2)=0, cross distance 1
        params = unit_params()
        a = exp_map_origin(TangentVector([0.7, 0.0]), Curvature(1.0))
        b = exp_map_origin(TangentVector([1.7, 0.0]), Curvature(1.0))
        assert lorentz_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        logits = logit_matrix([a, b], [a, b], params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        np.testing.assert_allclose(logits, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-9)

    def test_cosine_rejects_points(self):
        params = unit_params()
        p = exp_map_origin(TangentVector([1.0, 0.0]), Curvature(1.0))
        with pytest.raises(ValueError, match="COSINE"):
            logit_matrix([p, p], [p, p], params, SimilarityMode.COSINE)

    def test_cosine_on_rows(self):
        params = unit_params()
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = logit_matrix(rows, rows, params, SimilarityMode.COSINE)
        np.testing.assert_allclose(logits, np.eye(2), atol=1e-12)


class TestContrastiveLoss:
    """The two-direction contrastive term, `contrastive_from_logits`."""

    def test_uniform_logits(self):
        assert contrastive_from_logits(np.zeros((4, 4))) == pytest.approx(math.log(4), abs=1e-12)
        assert contrastive_from_logits(np.full((7, 7), 3.3)) == pytest.approx(math.log(7), abs=1e-12)

    def test_two_class_closed_form(self):
        logits = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert contrastive_from_logits(logits) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((5, 5))
        shifted = logits + rng.standard_normal((5, 1))  # constant per image row
        # image-direction row losses are shift invariant; assert via the
        # one-direction decomposition
        def img_direction(m):
            mx = m.max(axis=1, keepdims=True)
            lse = np.log(np.exp(m - mx).sum(axis=1)) + mx[:, 0]
            return (lse - np.diag(m)).mean()

        assert img_direction(shifted) == pytest.approx(img_direction(logits), abs=1e-12)

    def test_goes_to_zero_with_confident_diagonal(self):
        logits = np.full((4, 4), -1.0) + 60.0 * np.eye(4)
        assert contrastive_from_logits(logits) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert contrastive_from_logits(rng.standard_normal((4, 4))) >= 0.0


class TestTotalLoss:
    """The objective's (total, contrastive, entailment) on plain arrays."""

    def _rows(self, rng, b=4):
        return rng.standard_normal((b, N)), rng.standard_normal((b, N))

    def test_zero_weight_equals_contrastive(self):
        rng = np.random.default_rng(4)
        total, cont, ent = neg_distance_objective(*self._rows(rng), *INIT, entail_weight=0.0)
        assert total == cont
        assert ent == 0.0

    def test_images_inside_cones_give_zero_term(self):
        # same direction, image deeper than text: cones satisfied
        texts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        images = 1.8 * texts
        total, cont, ent = neg_distance_objective(images, texts, 0.0, 0.0, 0.0, 0.0, entail_weight=0.2)
        assert ent == 0.0
        assert total == cont

    def test_compositional_oracle(self):
        # the objective must equal the independently composed typed operations
        rng = np.random.default_rng(5)
        imgs, txts = self._rows(rng, b=2)
        params = LossParams.init(N)
        total, cont_obj, ent = neg_distance_objective(imgs, txts, *INIT, entail_weight=0.2)

        images, texts = lift_batch(BatchEmbeddings(images=imgs, texts=txts), params)
        cont = contrastive_from_logits(
            logit_matrix(images, texts, params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        )
        cones = ConeParams(boundary=CONE_BOUNDARY)
        pair_losses = [
            max(0.0, exterior_angle(t, i) - half_aperture(t, cones)) for t, i in zip(texts, images)
        ]
        assert cont_obj == pytest.approx(cont, abs=1e-12)
        assert ent == pytest.approx(np.mean(pair_losses), abs=1e-12)
        assert total == pytest.approx(cont + 0.2 * np.mean(pair_losses), abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        imgs, txts = self._rows(rng, b=6)
        perm = rng.permutation(6)
        a, _, _ = neg_distance_objective(imgs, txts, *INIT, entail_weight=0.2)
        b, _, _ = neg_distance_objective(imgs[perm], txts[perm], *INIT, entail_weight=0.2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_temperature_clamp_binds_exactly(self):
        rng = np.random.default_rng(7)
        rows = self._rows(rng)
        below_floor = math.log(1.0 / 0.005)     # tau below its 0.01 floor
        assert dataclasses.replace(unit_params(), log_inv_temp=below_floor).inv_temp() == 100.0
        a, _, _ = neg_distance_objective(*rows, below_floor, 0.0, 0.0, 0.0, entail_weight=0.2)
        b, _, _ = neg_distance_objective(*rows, math.log(100.0), 0.0, 0.0, 0.0, entail_weight=0.2)
        assert a == b

    def test_sphere_mode(self):
        rng = np.random.default_rng(8)
        total, cont, ent = objective(*self._rows(rng), *INIT, mode=SimilarityMode.COSINE,
                                     entail_weight=0.2, cone_boundary=CONE_BOUNDARY)
        assert ent == 0.0
        assert total == cont


class TestRankingEquivalence:
    def test_inner_product_order_matches_distance_order(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            c = float(rng.uniform(0.1, 10.0))
            curv = Curvature(c)
            q = exp_map_origin(TangentVector(rng.standard_normal(3)), curv)
            cands = [exp_map_origin(TangentVector(rng.standard_normal(3)), curv) for _ in range(20)]
            inners = np.array([lorentz_inner(q, p) for p in cands])
            dists = np.array([lorentz_distance(q, p) for p in cands])
            by_inner = np.argsort(-inners, kind="stable")
            by_dist = np.argsort(dists, kind="stable")
            np.testing.assert_array_equal(by_inner, by_dist)
