import dataclasses
import math

import numpy as np
import pytest

from hycone.entailment import ConeParams, entailment_loss_pair
from hycone.geometry import Curvature, TangentVector, exp_map_origin, lorentz_distance, lorentz_inner
from hycone.losses import (
    BatchEmbeddings,
    LossParams,
    SimilarityMode,
    contrastive_loss,
    lift_batch,
    logit_matrix,
    total_loss,
)

N = 4


def unit_params(**kw):
    # tau = 1, c = 1, scales = 1
    return LossParams(log_inv_temp=0.0, log_curv=0.0, log_scale_img=0.0, log_scale_txt=0.0, **kw)


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
    def test_uniform_logits(self):
        assert contrastive_loss(np.zeros((4, 4))) == pytest.approx(math.log(4), abs=1e-12)
        assert contrastive_loss(np.full((7, 7), 3.3)) == pytest.approx(math.log(7), abs=1e-12)

    def test_two_class_closed_form(self):
        logits = np.array([[0.0, -1.0], [-1.0, 0.0]])
        assert contrastive_loss(logits) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

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
        assert contrastive_loss(logits) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert contrastive_loss(rng.standard_normal((4, 4))) >= 0.0

    def test_square_required(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.zeros((3, 4)))


class TestTotalLoss:
    def _batch(self, rng, b=4):
        return BatchEmbeddings(
            images=rng.standard_normal((b, N)), texts=rng.standard_normal((b, N))
        )

    def test_zero_weight_equals_contrastive(self):
        rng = np.random.default_rng(4)
        batch = self._batch(rng)
        params = dataclasses.replace(LossParams.init(N), entail_weight=0.0)
        out = total_loss(batch, params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        assert out.total == out.contrastive
        assert out.entailment == 0.0

    def test_images_inside_cones_give_zero_term(self):
        # same direction, image deeper than text: cones satisfied
        params = unit_params(entail_weight=0.2)
        texts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        images = 1.8 * texts
        out = total_loss(BatchEmbeddings(images=images, texts=texts), params,
                         SimilarityMode.NEG_LORENTZ_DISTANCE)
        assert out.entailment == 0.0
        assert out.total == out.contrastive

    def test_compositional_oracle(self):
        # total must equal the independently composed public sub-operations
        rng = np.random.default_rng(5)
        batch = self._batch(rng, b=2)
        params = dataclasses.replace(LossParams.init(N), entail_weight=0.2)
        out = total_loss(batch, params, SimilarityMode.NEG_LORENTZ_DISTANCE)

        images, texts = lift_batch(batch, params)
        cont = contrastive_loss(
            logit_matrix(images, texts, params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        )
        cones = ConeParams(boundary=params.cone_boundary)
        pair_losses = [
            entailment_loss_pair(t, i, cones) for t, i in zip(texts, images)
        ]
        assert out.contrastive == pytest.approx(cont, abs=1e-12)
        assert out.entailment == pytest.approx(np.mean(pair_losses), abs=1e-12)
        assert out.total == pytest.approx(cont + 0.2 * np.mean(pair_losses), abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        batch = self._batch(rng, b=6)
        params = LossParams.init(N)
        perm = rng.permutation(6)
        permuted = BatchEmbeddings(images=batch.images[perm], texts=batch.texts[perm])
        a = total_loss(batch, params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        b = total_loss(permuted, params, SimilarityMode.NEG_LORENTZ_DISTANCE)
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_temperature_clamp_binds_exactly(self):
        rng = np.random.default_rng(7)
        batch = self._batch(rng)
        tiny_tau = unit_params()
        tiny_tau.log_inv_temp = math.log(1.0 / 0.005)  # below the floor
        at_floor = unit_params()
        at_floor.log_inv_temp = math.log(100.0)
        assert tiny_tau.tau() == 0.01
        a = total_loss(batch, tiny_tau, SimilarityMode.NEG_LORENTZ_DISTANCE)
        b = total_loss(batch, at_floor, SimilarityMode.NEG_LORENTZ_DISTANCE)
        assert a.total == b.total

    def test_sphere_mode(self):
        rng = np.random.default_rng(8)
        batch = self._batch(rng)
        out = total_loss(batch, LossParams.init(N), SimilarityMode.COSINE)
        assert out.entailment == 0.0
        assert out.total == out.contrastive


class TestLossParamsDomain:
    """The domain TrainConfig checks for the entailment weight and the cone
    boundary; outside it, total_loss returned NaN or inf."""

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
    def test_entail_weight_finite_non_negative(self, weight):
        with pytest.raises(ValueError, match="entailment weight must be finite and >= 0"):
            unit_params(entail_weight=weight)
        with pytest.raises(ValueError, match="entailment weight"):
            dataclasses.replace(LossParams.init(N), entail_weight=weight)

    @pytest.mark.parametrize("boundary", [-1.0, 0.0, math.nan, math.inf])
    def test_cone_boundary_finite_positive(self, boundary):
        with pytest.raises(ValueError, match="cone boundary constant must be finite and positive"):
            unit_params(cone_boundary=boundary)
        with pytest.raises(ValueError, match="cone boundary"):
            dataclasses.replace(LossParams.init(N), cone_boundary=boundary)

    def test_domain_edges_accepted(self):
        assert unit_params(entail_weight=0.0, cone_boundary=1e-300).entail_weight == 0.0


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
