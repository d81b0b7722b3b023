import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hycone import analysis, entailment, geometry
from hycone.analysis import (
    LABEL_CLASSES,
    EmbeddingIndex,
    Labels,
    class_scores,
    classify,
    estimate_root,
    interpolate_steps,
    retrieve,
    root_distance_proxy,
    root_distance_stats,
    row_blocks,
    stats_hist_csv,
    stats_summary_csv,
    traverse,
    with_root,
)
from hycone.dumpio import read_dump, write_dump
from hycone.entailment import ConeParams, exterior_angle, half_aperture
from hycone.hierarchy import MAX_BINS, MAX_TRAVERSE_STEPS
from hycone.geometry import (
    Curvature,
    HyperbolicPoint,
    TangentVector,
    exp_map_origin,
    lorentz_distance,
)
from hycone.losses import LossParams

C1 = Curvature(1.0)


def ray_point(radius, dim=2, axis=0):
    v = np.zeros(dim)
    v[axis] = radius
    return exp_map_origin(TangentVector(v), C1)


def lorentz_index(points, labels, c=1.0, root=False):
    idx = EmbeddingIndex(
        space="lorentz",
        curvature=c,
        vectors=np.stack([p.space for p in points]),
        labels=tuple(labels),
    )
    return with_root(idx) if root else idx


class TestEstimateRoot:
    def test_lorentz_root_is_origin(self):
        idx = lorentz_index([ray_point(1.0), ray_point(2.0)], [("text", "a"), ("text", "b")])
        np.testing.assert_array_equal(estimate_root(idx), np.zeros(2))

    def test_sphere_root_normalized_mean(self):
        idx = EmbeddingIndex(
            space="sphere", curvature=None,
            vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            labels=(("text", "a"), ("text", "b")),
        )
        np.testing.assert_allclose(estimate_root(idx), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_sphere_degenerate_mean_rejected(self):
        idx = EmbeddingIndex(
            space="sphere", curvature=None,
            vectors=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            labels=(("text", "a"), ("text", "b")),
        )
        with pytest.raises(ValueError, match="degenerate"):
            estimate_root(idx)

    def test_empty_rejected(self):
        idx = EmbeddingIndex(space="lorentz", curvature=1.0,
                             vectors=np.zeros((0, 2)), labels=())
        with pytest.raises(ValueError, match="empty"):
            estimate_root(idx)


class TestIndexValidation:
    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="label count"):
            EmbeddingIndex(space="lorentz", curvature=1.0,
                           vectors=np.zeros((2, 2)), labels=(("text", "a"),))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown label class"):
            EmbeddingIndex(space="lorentz", curvature=1.0,
                           vectors=np.zeros((1, 2)), labels=(("caption", "a"),))

    def test_sphere_norms_checked(self):
        with pytest.raises(ValueError, match="norm"):
            EmbeddingIndex(space="sphere", curvature=None,
                           vectors=np.array([[2.0, 0.0]]), labels=(("text", "a"),))


class TestRootDistanceStats:
    def test_lorentz_proxy_values(self):
        pts = [ray_point(0.0), ray_point(1.0)]
        idx = lorentz_index(pts, [("text", "o"), ("image", "p")])
        prox = root_distance_proxy(idx)
        assert prox[0] == 0.0
        assert prox[1] == pytest.approx(math.sinh(1.0), abs=1e-12)

    def test_sphere_proxy_range(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        idx = EmbeddingIndex(
            space="sphere", curvature=None, vectors=vecs,
            labels=(("root", "[ROOT]"), ("text", "same"), ("text", "anti"), ("image", "orth")),
        )
        prox = root_distance_proxy(idx)
        assert prox[1] == 0.0          # equal to the root
        assert prox[2] == 1.0          # antipodal
        assert prox[3] == 0.5

    def test_single_point_histogram(self):
        idx = lorentz_index([ray_point(0.0)], [("text", "o")])
        stats = root_distance_stats(idx)
        s = stats["text"]
        assert s.count == 1 and s.mean == 0.0
        assert list(s.hist_counts) == [1]
        hist = stats_hist_csv(stats)
        assert hist.splitlines()[1] == "text,0,0,1"
        summary = stats_summary_csv(stats)
        assert summary.splitlines()[0].startswith("class,count,mean,std")


class TestInterpolateSteps:
    def test_lorentz_endpoints_and_linearity(self):
        y = exp_map_origin(TangentVector([1.4, -0.8]), C1)
        idx = lorentz_index([y], [("image", "y")], root=True)
        steps = interpolate_steps(y.space, idx, steps=50)
        assert len(steps) == 50
        np.testing.assert_array_equal(steps[0], y.space)
        np.testing.assert_array_equal(steps[-1], np.zeros(2))
        o = exp_map_origin(TangentVector([0.0, 0.0]), C1)
        d_full = lorentz_distance(o, y)
        for k, sp in enumerate(steps):
            t = k / 49.0
            d = lorentz_distance(o, HyperbolicPoint(space=sp, curv=C1))
            assert abs(d - (1 - t) * d_full) < 1e-8

    def test_sphere_unit_norms(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx = with_root(EmbeddingIndex(space="sphere", curvature=None, vectors=vecs,
                                       labels=(("text", "a"), ("image", "b"))))
        steps = interpolate_steps(vecs[1], idx, steps=20)
        for sp in steps:
            assert abs(np.linalg.norm(sp) - 1.0) < 1e-9

    def test_sphere_antipodal_rejected(self):
        vecs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        idx = EmbeddingIndex(
            space="sphere", curvature=None, vectors=vecs,
            labels=(("root", "[ROOT]"), ("image", "anti"), ("text", "t")),
        )
        with pytest.raises(ValueError, match="zero"):
            interpolate_steps(vecs[1], idx, steps=21)


class TestTraverse:
    def fixture_index(self):
        # two texts on one outbound ray: t_deep entails radii (1.5, inf),
        # t_shallow radii (0.5, inf); verified through the cone angles
        t_shallow, t_deep = ray_point(0.5), ray_point(1.5)
        cones = ConeParams()
        assert exterior_angle(t_deep, ray_point(2.5)) <= half_aperture(t_deep, cones)
        assert exterior_angle(t_shallow, ray_point(1.0)) <= half_aperture(t_shallow, cones)
        assert exterior_angle(t_deep, ray_point(1.0)) > half_aperture(t_deep, cones)
        return lorentz_index(
            [t_shallow, t_deep], [("text", "shallow"), ("text", "deep")], root=True
        )

    def test_constructed_ancestor_chain(self):
        idx = self.fixture_index()
        y = ray_point(2.5)
        res = traverse(y.space, idx, steps=50)
        assert res.unique == ("deep", "shallow", "[ROOT]")
        ks = [k for k, _ in res.steps]
        assert ks == sorted(ks)

    def test_terminates_at_root_with_origin_special_case(self):
        idx = self.fixture_index()
        res = traverse(ray_point(2.5).space, idx, steps=10)
        assert res.steps[-1][1] == "[ROOT]"
        assert res.unique[-1] == "[ROOT]"

    def test_proxy_nonincreasing(self):
        idx = self.fixture_index()
        steps = interpolate_steps(ray_point(2.5).space, idx, steps=50)
        norms = [np.linalg.norm(s) for s in steps]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_sphere_bypasses_cone_filter(self):
        # nearest-by-cosine text wins; no cone filter is applied on the sphere
        vecs = np.array([
            [0.0, 1.0],                          # query image
            [math.sin(0.05), math.cos(0.05)],    # text right next to it
            [1.0, 0.0],                          # distant text pulls ROOT away
        ])
        idx = with_root(EmbeddingIndex(
            space="sphere", curvature=None, vectors=vecs,
            labels=(("image", "img"), ("text", "near"), ("text", "far")),
        ))
        res = traverse(vecs[0], idx, steps=5)
        assert res.steps[0][1] == "near"
        assert res.unique[-1] == "[ROOT]"

    def test_without_root_entry_walks_to_space_root(self):
        # [ROOT] is the space's root, numbered and named as the row
        # `with_root` appends, so the index needs no copy with that row.
        for space in ("lorentz", "sphere"):
            idx = random_walk_index(space, 7, rooted=False)
            rooted = with_root(idx)
            for row in idx.rows_of_class("image"):
                for slack in (0.0, math.inf):
                    assert traverse(idx.vectors[row], idx, steps=9, cone_slack=slack) == \
                        traverse(idx.vectors[row], rooted, steps=9, cone_slack=slack)

    def test_cone_slack_relaxes_filter(self):
        t = ray_point(1.5)
        idx = lorentz_index([t], [("text", "t")], root=True)
        y = ray_point(1.2)     # just above the apex: outside the strict cone
        strict = traverse(y.space, idx, steps=2)
        relaxed = traverse(y.space, idx, steps=2, cone_slack=3.2)
        assert strict.steps[0][1] == "[ROOT]"
        assert relaxed.steps[0][1] == "t"


class TestRetrieve:
    def random_index(self, rng, n=12):
        pts = [exp_map_origin(TangentVector(rng.standard_normal(3)), C1) for _ in range(n)]
        return lorentz_index(pts, [("text", f"t{i}") for i in range(n)])

    def test_self_retrieval_first(self):
        rng = np.random.default_rng(0)
        idx = self.random_index(rng)
        hits = retrieve(idx.vectors[4], idx, k=3)
        assert hits[0].row == 4

    def test_matches_distance_order(self):
        rng = np.random.default_rng(1)
        idx = self.random_index(rng)
        q = exp_map_origin(TangentVector(rng.standard_normal(3)), C1)
        hits = retrieve(q.space, idx, k=idx.count)
        dists = [
            lorentz_distance(q, HyperbolicPoint(space=v, curv=C1)) for v in idx.vectors
        ]
        np.testing.assert_array_equal([h.row for h in hits], np.argsort(dists, kind="stable"))

    def test_prefix_stability(self):
        rng = np.random.default_rng(2)
        idx = self.random_index(rng)
        q = rng.standard_normal(3)
        full = [h.row for h in retrieve(q, idx, k=idx.count)]
        for k in (1, 3, 7):
            assert [h.row for h in retrieve(q, idx, k=k)] == full[:k]

    def test_k_zero_empty(self):
        rng = np.random.default_rng(3)
        idx = self.random_index(rng)
        assert retrieve(np.zeros(3), idx, k=0) == []

    def test_calibrated_scores_sum_to_one(self):
        rng = np.random.default_rng(4)
        idx = self.random_index(rng)
        hits = retrieve(rng.standard_normal(3), idx, k=idx.count, calibrated=True, tau=0.07)
        assert sum(h.score for h in hits) == pytest.approx(1.0, abs=1e-12)

    def test_k_bounds(self):
        rng = np.random.default_rng(5)
        idx = self.random_index(rng)
        with pytest.raises(ValueError):
            retrieve(np.zeros(3), idx, k=idx.count + 1)


class TestClassify:
    def test_single_prompt_equals_no_ensembling(self):
        params = LossParams.init(2)
        img = exp_map_origin(TangentVector([1.0, 0.2]), params.curv())
        a = classify(img, {"cat": [np.array([1.0, 0.0])]}, params)
        b = classify(img, {"cat": [np.array([1.0, 0.0])] * 3}, params)
        assert a.scores == b.scores

    def test_two_class_fixture(self):
        # class embeddings verified nearer/farther via lorentz distance
        params = LossParams(log_inv_temp=0.0, log_curv=0.0,
                            log_scale_img=0.0, log_scale_txt=0.0)
        curv = params.curv()
        img = exp_map_origin(TangentVector([1.0, 0.0]), curv)
        a_vecs = [np.array([0.9, 0.1]), np.array([1.1, -0.1])]
        b_vecs = [np.array([-1.0, 0.0])]
        a_pt = exp_map_origin(TangentVector(np.mean(a_vecs, axis=0)), curv)
        b_pt = exp_map_origin(TangentVector(np.mean(b_vecs, axis=0)), curv)
        assert lorentz_distance(img, a_pt) < lorentz_distance(img, b_pt)
        res = classify(img, {"a": a_vecs, "b": b_vecs}, params)
        assert res.predicted == "a"
        assert res.scores["a"] > res.scores["b"]

    def test_empty_class_rejected(self):
        params = LossParams.init(2)
        img = exp_map_origin(TangentVector([1.0, 0.0]), params.curv())
        with pytest.raises(ValueError, match="no prompt"):
            classify(img, {"cat": []}, params)

    def test_sphere_image(self):
        params = LossParams.init(2)
        res = classify(np.array([1.0, 0.0]),
                       {"x": [np.array([2.0, 0.0])], "y": [np.array([0.0, 3.0])]},
                       params)
        assert res.predicted == "x"
        assert res.scores["x"] == pytest.approx(1.0, abs=1e-12)


class TestEdgeContracts:
    def test_with_root_idempotent(self):
        idx = lorentz_index([ray_point(1.0)], [("text", "t")], root=True)
        again = with_root(idx)
        assert again is idx

    def test_stats_empty_index_rejected(self):
        idx = EmbeddingIndex(space="lorentz", curvature=1.0,
                             vectors=np.zeros((0, 2)), labels=())
        with pytest.raises(ValueError, match="empty"):
            root_distance_stats(idx)

    def test_interpolate_needs_two_steps(self):
        idx = lorentz_index([ray_point(1.0)], [("text", "t")], root=True)
        with pytest.raises(ValueError, match="steps"):
            interpolate_steps(ray_point(1.0).space, idx, steps=1)

    def test_bins_and_steps_capped_before_allocating(self):
        # Validation alone rejects each size above its cap.
        idx = lorentz_index([ray_point(1.0), ray_point(2.0), ray_point(3.0)],
                            [("text", "t"), ("image", "a"), ("image", "b")], root=True)
        for bins in (0, MAX_BINS + 1, 10**12):
            with pytest.raises(ValueError, match=f"bins <= {MAX_BINS}"):
                root_distance_stats(idx, bins=bins)
        assert root_distance_stats(idx, bins=MAX_BINS)["image"].hist_counts.size == MAX_BINS
        y = ray_point(1.5).space
        for steps in (MAX_TRAVERSE_STEPS + 1, 10**12):
            with pytest.raises(ValueError, match=f"at most {MAX_TRAVERSE_STEPS}"):
                interpolate_steps(y, idx, steps=steps)
            with pytest.raises(ValueError, match=f"at most {MAX_TRAVERSE_STEPS}"):
                traverse(y, idx, steps=steps)
        assert len(interpolate_steps(y, idx, steps=MAX_TRAVERSE_STEPS)) == MAX_TRAVERSE_STEPS

    def test_calibrated_sphere_rejected(self):
        idx = EmbeddingIndex(space="sphere", curvature=None,
                             vectors=np.array([[1.0, 0.0]]), labels=(("text", "t"),))
        with pytest.raises(ValueError, match="calibrated"):
            retrieve(np.array([1.0, 0.0]), idx, k=1, calibrated=True)

    def test_classify_curvature_mismatch(self):
        params = LossParams.init(2)          # c = 1 after clamping
        img = exp_map_origin(TangentVector([1.0, 0.0]), Curvature(2.0))
        with pytest.raises(ValueError, match="curvature"):
            classify(img, {"a": [np.array([1.0, 0.0])]}, params)


class TestTopKTies:
    """Many rows tie at the k-th score; the documented order (lower row
    first) must hold across the cut, as with a full stable argsort."""

    K = 5
    labels = tuple(("image", str(i)) for i in range(68))

    def tied_vectors(self, unit: bool):
        rng = np.random.default_rng(11)
        best = rng.standard_normal((3, 3))
        tied = np.tile(rng.standard_normal(3), (40, 1))
        worse = rng.standard_normal((25, 3))
        vecs = np.vstack([tied[:15], best, worse, tied[15:]])   # ties before and after the best
        return vecs / np.linalg.norm(vecs, axis=1, keepdims=True) if unit else vecs

    def query_between(self, idx, scores_of):
        """A query that puts 3 rows above the tied block and the rest below."""
        rng = np.random.default_rng(12)
        for _ in range(1000):
            q = rng.standard_normal(idx.dim)
            if idx.space == "sphere":
                q /= np.linalg.norm(q)      # retrieve rejects a sphere query off the unit norm
            s = scores_of(q)
            tie = s[0]
            if np.sum(s > tie) == 3 and np.sum(s == tie) == 40:
                return q, s
        raise AssertionError("no query separates the fixture")

    def check(self, idx, calibrated=False):
        def scores_of(q):
            return np.array([h.score for h in sorted(
                retrieve(q, idx, k=idx.count, calibrated=calibrated, tau=0.07),
                key=lambda h: h.row)])

        q, s = self.query_between(idx, scores_of)
        want = np.argsort(-s, kind="stable")[: self.K]
        got = [h.row for h in retrieve(q, idx, k=self.K, calibrated=calibrated, tau=0.07)]
        assert got == list(want)
        assert got[3:] == [0, 1]       # the lowest tied rows fill the cut

    def test_raw_lorentz(self):
        idx = EmbeddingIndex(space="lorentz", curvature=1.3, vectors=self.tied_vectors(False),
                             labels=self.labels)
        self.check(idx)

    def test_calibrated_lorentz(self):
        idx = EmbeddingIndex(space="lorentz", curvature=1.3, vectors=self.tied_vectors(False),
                             labels=self.labels)
        self.check(idx, calibrated=True)

    def test_sphere(self):
        idx = EmbeddingIndex(space="sphere", curvature=None, vectors=self.tied_vectors(True),
                             labels=self.labels)
        self.check(idx)

    def test_all_equal(self):
        idx = EmbeddingIndex(space="sphere", curvature=None, vectors=np.tile([[0.6, 0.8]], (9, 1)),
                             labels=tuple(("text", str(i)) for i in range(9)))
        assert [h.row for h in retrieve(np.array([1.0, 0.0]), idx, k=4)] == [0, 1, 2, 3]


def seed_classify(image_embedding, prompt_sets, params):
    """Per-image reference: lift every class mean for this one image."""
    means = {name: np.asarray(p, dtype=np.float64).mean(axis=0) for name, p in prompt_sets.items()}
    scores = {}
    if isinstance(image_embedding, HyperbolicPoint):
        c = params.curv().c
        q_sp, q_t = image_embedding.space, image_embedding.time
        for name in sorted(means):
            sp = np.asarray(geometry.exp_space(means[name] * params.scale_txt(), c))
            t = float(np.asarray(geometry.time_part(sp, c)).item())
            scores[name] = float(np.dot(q_sp, sp) - q_t * t)
    else:
        q = np.asarray(image_embedding, dtype=np.float64)
        for name in sorted(means):
            m = means[name]
            scores[name] = float(q @ (m / np.linalg.norm(m)))
    return max(sorted(scores), key=lambda nm: scores[nm]), scores


class TestBatchedClassify:
    def prompt_sets(self, rng, n):
        return {f"class{k:02d}": list(rng.standard_normal((int(rng.integers(1, 6)), n)))
                for k in rng.permutation(30)}

    def test_lorentz_matches_per_image(self):
        rng = np.random.default_rng(21)
        params = LossParams(log_inv_temp=2.0, log_curv=float(np.log(0.9454)),
                            log_scale_img=-1.0, log_scale_txt=-0.7)
        c = params.curv()
        images = np.asarray(geometry.exp_space(rng.standard_normal((50, 6)), c.c))
        prompts = self.prompt_sets(rng, 6)
        res = class_scores(images, prompts, analysis.Lorentz(c.c), params.scale_txt())
        assert list(res.names) == sorted(prompts)
        for i, row in enumerate(images):
            pred, scores = seed_classify(HyperbolicPoint(space=row, curv=c), prompts, params)
            assert res.predicted()[i] == pred
            np.testing.assert_allclose(res.scores[i], [scores[nm] for nm in res.names],
                                       rtol=1e-12, atol=0)

    def test_sphere_matches_per_image(self):
        rng = np.random.default_rng(22)
        params = LossParams.init(5)
        images = rng.standard_normal((50, 5))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        prompts = self.prompt_sets(rng, 5)
        res = class_scores(images, prompts, analysis.Sphere(), params.scale_txt())
        for i, row in enumerate(images):
            pred, scores = seed_classify(row, prompts, params)
            assert res.predicted()[i] == pred
            np.testing.assert_allclose(res.scores[i], [scores[nm] for nm in res.names],
                                       rtol=1e-12, atol=0)

    def test_wrapper_is_one_row_of_the_batch(self):
        rng = np.random.default_rng(23)
        params = LossParams.init(4)
        images = np.asarray(geometry.exp_space(rng.standard_normal((3, 4)), 1.0))
        prompts = self.prompt_sets(rng, 4)
        res = class_scores(images, prompts, analysis.Lorentz(1.0), params.scale_txt())
        one = classify(HyperbolicPoint(space=images[2], curv=Curvature(1.0)), prompts, params)
        assert one.predicted == res.predicted()[2]
        np.testing.assert_allclose(list(one.scores.values()), res.scores[2], rtol=1e-12, atol=0)

    def test_ties_go_to_first_sorted_name(self):
        params = LossParams.init(2)
        same = [np.array([1.0, 0.5])]
        res = class_scores(np.zeros((2, 2)), {"b": same, "a": same, "c": same},
                           analysis.Lorentz(1.0), params.scale_txt())
        assert res.predicted() == ["a", "a"]


class TestIndexClasses:
    def test_rows_of_class_and_root_default(self):
        idx = lorentz_index([ray_point(r) for r in (0.5, 1.0, 0.0, 2.0)],
                            [("image", "a"), ("text", "b"), ("root", "[ROOT]"), ("image", "c")])
        assert idx.rows_of_class("image").tolist() == [0, 3]
        assert idx.rows_of_class("text").tolist() == [1]
        assert idx.rows_of_class("caption").tolist() == []
        assert idx.root_id == 2          # the first "root" row
        assert with_root(idx) is idx

    def test_with_root_appends_one_validated_row(self):
        idx = lorentz_index([ray_point(1.0)], [("image", "a")], root=True)
        assert idx.labels == (("image", "a"), ("root", "[ROOT]"))
        assert idx.rows_of_class("root").tolist() == [1] and idx.root_id == 1
        np.testing.assert_array_equal(idx.vectors[1], np.zeros(2))

    def test_with_root_rejects_bad_root_row(self, monkeypatch):
        idx = EmbeddingIndex(space="sphere", curvature=None, vectors=np.array([[1.0, 0.0]]),
                             labels=(("text", "t"),))
        monkeypatch.setattr(analysis, "estimate_root", lambda index: np.array([2.0, 0.0]))
        with pytest.raises(ValueError, match="sphere row 1 has norm 2"):
            with_root(idx)

    def test_equality_is_identity_and_indexes_hash(self):
        rows, labels = [ray_point(r) for r in (0.5, 1.0, 2.0)], [("image", "a"), ("text", "b"), ("image", "c")]
        idx, twin = lorentz_index(rows, labels), lorentz_index(rows, labels)
        rooted = with_root(idx)
        assert idx == idx and with_root(idx) != idx and rooted == rooted
        assert idx != twin          # equal rows, another index
        assert hash(idx) == hash(idx) and idx in {idx} and len({idx, rooted, twin, idx}) == 3

    def test_nan_sphere_row_rejected(self):
        with pytest.raises(ValueError, match="sphere row 1"):
            EmbeddingIndex(space="sphere", curvature=None,
                           vectors=np.array([[1.0, 0.0], [np.nan, 0.0]]),
                           labels=(("text", "a"), ("text", "b")))


class TestLabels:
    def test_sequence_of_pairs(self):
        pairs = (("text", "a\tb"), ("image", ""), ("root", "[ROOT]"))
        labels = Labels.from_pairs(pairs)
        assert labels.data == b"text\ta\tb\nimage\t\nroot\t[ROOT]\n"
        assert len(labels) == 3 and labels[0] == ("text", "a\tb") and labels[-1][1] == "[ROOT]"
        assert list(labels) == list(pairs) and labels == pairs and labels == list(pairs)
        assert labels != pairs[1:]
        assert labels + (("text", "z"),) == pairs + (("text", "z"),)
        assert labels.class_codes().tolist() == [0, 1, 2]

    @pytest.mark.parametrize("pairs", [[("text\tx", "a")], [("Text", "a")], [("image", "a"), (None, "b")]])
    def test_unknown_class_rejected(self, pairs):
        with pytest.raises(ValueError, match="unknown label class at row"):
            Labels.from_pairs(pairs)

    @pytest.mark.parametrize("line", ["text", "texts\ta", "", "image a"])
    def test_bad_line_rejected(self, line):
        with pytest.raises(ValueError, match="unknown label class at row 1"):
            Labels(f"root\tr\n{line}\n".encode()).class_codes()

    def test_crlf_and_cr_read_like_lf(self):
        labels = Labels(b"text\ta\r\nimage\tb\r")
        assert labels == (("text", "a"), ("image", "b"))
        assert labels.data == b"text\ta\nimage\tb\n" and labels.starts.tolist() == [0, 7, 15]


PAIRS = st.lists(st.tuples(st.sampled_from(LABEL_CLASSES),
                           st.text(st.characters(exclude_characters="\n\r"), max_size=6)),
                 max_size=10)


class TestLabelsContract:
    """Labels behaves as the tuple of its (class, text) pairs, whatever the
    texts hold: tabs, other separators, non-ASCII; a text that holds a
    line break is refused."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pairs=PAIRS, more=PAIRS)
    def test_matches_tuple_of_pairs(self, pairs, more):
        pairs, more = tuple(pairs), tuple(more)
        labels = Labels.from_pairs(pairs)
        n = len(pairs)
        assert len(labels) == n and labels.starts.dtype == np.int64
        assert [labels[i] for i in range(-n, n)] == [pairs[i] for i in range(-n, n)]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                labels[i]
        assert tuple(labels) == pairs and list(iter(labels)) == list(pairs)
        assert labels.class_codes().tolist() == [LABEL_CLASSES.index(c) for c, _ in pairs]
        assert labels == pairs and labels == list(pairs) and labels == Labels.from_pairs(pairs)
        assert hash(labels) == hash(tuple(pairs))
        assert labels == Labels("".join(f"{c}\t{t}\n" for c, t in pairs).encode())
        assert (labels == pairs + more) == (not more)
        assert (labels == Labels.from_pairs(pairs + more)) == (not more)
        assert labels + more == pairs + more
        assert labels + Labels.from_pairs(more) == Labels.from_pairs(pairs + more)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pairs=PAIRS, text=st.tuples(st.text(max_size=3), st.sampled_from(["\n", "\r", "\r\n"]),
                                       st.text(max_size=3)).map("".join), data=st.data())
    def test_text_holding_a_line_break_is_refused(self, pairs, text, data):
        # The first such row is named, with its text.
        row = data.draw(st.integers(0, len(pairs)))
        cls = data.draw(st.sampled_from(LABEL_CLASSES))
        with pytest.raises(ValueError, match=re.escape(
                f"label of row {row} holds a line break and cannot be read back: {text!r}")):
            Labels.from_pairs([*pairs[:row], (cls, text), *pairs[row:], ("text", "\n")])

    def test_same_bytes_same_rows(self):
        one = Labels.from_pairs([("text", "a"), ("text", "b")])
        for two in (Labels(b"text\ta\ntext\tb\n"), Labels(b"text\ta\r\ntext\tb"), one + ()):
            assert one.data == two.data and one == two and hash(one) == hash(two)
            np.testing.assert_array_equal(one.starts, two.starts)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pairs=PAIRS.filter(len))    # an empty index has no root to estimate
    def test_index_with_root_and_rows_of_class(self, pairs):
        pairs = tuple(pairs)
        idx = with_root(EmbeddingIndex(space="lorentz", curvature=1.0,
                                       vectors=np.zeros((len(pairs), 2)), labels=pairs))
        rooted = pairs if any(c == "root" for c, _ in pairs) else pairs + (("root", "[ROOT]"),)
        assert idx.labels == rooted and len(idx.labels) == idx.count == len(rooted)
        for cls in (*LABEL_CLASSES, "caption"):
            assert idx.rows_of_class(cls).tolist() == [i for i, (c, _) in enumerate(rooted) if c == cls]


class TestTraverseTies:
    """On both spaces a tie goes to [ROOT], then to the lower text row."""

    def test_lorentz_equal_texts_give_lower_row(self):
        t = ray_point(0.5)
        idx = lorentz_index([t, t], [("text", "first"), ("text", "second")], root=True)
        res = traverse(ray_point(2.5).space, idx, steps=5)
        assert res.steps[0][1] == "first"
        assert "second" not in res.unique

    def test_lorentz_text_tying_root_gives_root(self):
        # A text at the origin scores exactly as [ROOT] (row 1, after it);
        # the slack puts every step but the last inside its cone.
        idx = lorentz_index([ray_point(0.0)], [("text", "origin")], root=True)
        y = ray_point(2.5).space
        assert idx.geom.cone(idx.vectors[:1], y[None, :], 0.1, 0.01).all()
        res = traverse(y, idx, steps=5, cone_slack=0.01)
        assert res.unique == ("[ROOT]",)

    def test_sphere_equal_texts_give_lower_row(self):
        idx = with_root(EmbeddingIndex(
            space="sphere", curvature=None,
            vectors=np.array([[0.6, 0.8], [0.0, 1.0], [0.0, 1.0]]),
            labels=(("image", "img"), ("text", "first"), ("text", "second")),
        ))
        res = traverse(np.array([0.0, 1.0]), idx, steps=5)
        assert res.steps[0][1] == "first"
        assert "second" not in res.unique

    def test_sphere_text_tying_root_gives_root(self):
        idx = EmbeddingIndex(
            space="sphere", curvature=None, vectors=np.array([[0.6, 0.8], [0.6, 0.8]]),
            labels=(("text", "same"), ("root", "[ROOT]")),
        )
        res = traverse(np.array([0.0, 1.0]), idx, steps=5)
        assert res.unique == ("[ROOT]",)


def per_step_traverse(y, index, steps, slack, boundary=0.1):
    """The per-step traversal the one-array walk replaced, kept as the
    oracle: one inner product and one cone test per step, on broadcast
    rows, and no cone at a step at the origin."""
    cand = np.concatenate([[index.root_id], index.rows_of_class("text")])
    vectors, geom = index.vectors[cand], index.geom
    out = []
    for k, step in enumerate(interpolate_steps(y, index, steps=steps)):
        scores = geom.inner(vectors, step)
        if isinstance(geom, analysis.Lorentz):
            apexes = vectors[1:]
            apex_t = np.asarray(geometry.time_part(apexes, geom.c))
            step_t = np.broadcast_to(np.asarray(geometry.time_part(step, geom.c)), apex_t.shape)
            hinge = np.asarray(entailment.hinge_rows(
                apexes, apex_t, np.broadcast_to(step, apexes.shape), step_t, geom.c, boundary))
            held = (hinge[:, 0] <= slack) & (float(np.dot(step, step)) != 0.0)
            scores[1:][~held] = -np.inf
        out.append((k, index.labels[cand[np.argmax(scores)]][1]))
    return tuple(out)


def random_walk_index(space, seed, texts=12, dim=3, rooted=True):
    """Texts at radii 0.02 to 1, with a duplicate pair and, on lorentz, one
    at the origin; images further out, each near a text's ray; [ROOT]
    appended if `rooted`."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((texts, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pre = dirs * rng.uniform(0.02, 1.0, (texts, 1))
    pre[1] = pre[0]
    if space == "lorentz":
        pre[2] = 0.0
    near = dirs[rng.integers(0, texts, 8)]
    pre = np.vstack([pre, near * rng.uniform(1.5, 3.0, (8, 1)) + 0.2 * rng.standard_normal((8, dim))])
    geom = analysis.Lorentz(1.3) if space == "lorentz" else analysis.Sphere()
    labels = [("text", f"t{i}") for i in range(texts)] + [("image", f"i{i}") for i in range(8)]
    idx = EmbeddingIndex(space=space, curvature=geom.c, vectors=geom.lift(pre, 1.0), labels=labels)
    return with_root(idx) if rooted else idx


@pytest.mark.parametrize("space", ["lorentz", "sphere"])
@pytest.mark.parametrize("query", [np.full(2, 0.6), np.full(4, 0.5), np.ones((1, 3)) / math.sqrt(3)],
                         ids=["dim-2", "dim-4", "one-row-matrix"])
def test_query_of_another_shape_names_both(space, query):
    # numpy's matmul and broadcast errors named neither the query nor the index
    idx = random_walk_index(space, 3)
    msg = f"^query has shape {re.escape(str(query.shape))}, index has dim 3$"
    with pytest.raises(ValueError, match=msg):
        retrieve(query, idx, k=1)
    with pytest.raises(ValueError, match=msg):
        traverse(query, idx)


def test_sphere_traverse_query_must_be_a_unit_vector():
    idx = random_walk_index("sphere", 3)
    with pytest.raises(ValueError, match="^query is not a sphere point: sphere row 0 has norm 2.0"):
        traverse(np.array([2.0, 0.0, 0.0]), idx)
    assert traverse(np.array([1.0, 0.0, 0.0]), idx).steps[0][0] == 0


class TestOneArrayWalk:
    """The walk is one (steps, n) array, scored in blocks of steps, with
    the per-step algorithm's outputs."""

    @pytest.mark.parametrize("space", ["lorentz", "sphere"])
    @pytest.mark.parametrize("slack", [0.0, 0.05, math.inf])
    def test_same_steps_as_per_step_oracle(self, space, slack):
        labels = set()
        for seed in range(6):
            idx = random_walk_index(space, seed)
            for row in idx.rows_of_class("image"):
                y = idx.vectors[row]
                res = traverse(y, idx, steps=9, cone_slack=slack)
                assert res.steps == per_step_traverse(y, idx, 9, slack)
                labels.update(label for _, label in res.steps)
        assert len(labels) > 3      # the walks retrieve texts, not [ROOT] alone

    @pytest.mark.parametrize("space", ["lorentz", "sphere"])
    @pytest.mark.parametrize("block_steps, steps", [(1, 5), (3, 7), (4, 50)])
    def test_blocks_give_the_same_steps(self, monkeypatch, space, block_steps, steps):
        # 7 steps in blocks of 3 leave a last block of one step.
        idx = random_walk_index(space, 11)
        size = (len(idx.rows_of_class("text")) + 1) * idx.dim
        monkeypatch.setattr(analysis, "TRAVERSE_BLOCK", block_steps * size)
        for row in idx.rows_of_class("image"):
            y = idx.vectors[row]
            for slack in (0.0, 0.05):
                assert traverse(y, idx, steps=steps, cone_slack=slack).steps == \
                    per_step_traverse(y, idx, steps, slack)

    def test_lorentz_walk_bits_are_per_step_exp_maps(self):
        idx = random_walk_index("lorentz", 3)
        c, ts = idx.curvature, np.linspace(0.0, 1.0, 40)
        for y in idx.vectors[idx.rows_of_class("image")]:
            walk = interpolate_steps(y, idx, steps=40)
            v = np.asarray(geometry.log_space(y, c))
            expected = [np.asarray(geometry.exp_space(v * (1.0 - t), c)) for t in ts]
            expected[0], expected[-1] = y, np.zeros(idx.dim)
            assert walk.shape == (40, idx.dim)
            assert walk.tobytes() == np.stack(expected).tobytes()

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_sphere_walk_bits_are_per_step_norms(self, dim):
        idx = random_walk_index("sphere", 5, dim=dim)
        root = idx.vectors[idx.root_id]
        ts = np.linspace(0.0, 1.0, 40)
        for y in idx.vectors[idx.rows_of_class("image")]:
            walk = interpolate_steps(y, idx, steps=40)
            expected = []
            for t in ts:
                mix = (1.0 - t) * y + t * root
                expected.append(mix / np.linalg.norm(mix))
            expected[0], expected[-1] = y, root
            assert walk.tobytes() == np.stack(expected).tobytes()

    def test_lorentz_cone_is_empty_at_origin_steps(self):
        # A step whose sum of squares is 0, underflow included, is in no
        # cone, even with an infinite slack; every other step is.
        idx = random_walk_index("lorentz", 2)
        texts = idx.vectors[idx.rows_of_class("text")]
        walk = interpolate_steps(idx.vectors[idx.rows_of_class("image")[0]], idx, steps=6)
        walk = np.vstack([walk, np.full(idx.dim, 1e-200)])
        mask = idx.geom.cone(texts, walk, 0.1, math.inf)
        assert mask.shape == (7, len(texts))
        assert mask[:-2].all() and not mask[-2:].any()
        assert analysis.Sphere().cone(texts, walk, 0.1, 0.0).shape == (7, len(texts))

    def test_non_finite_step_is_named_across_blocks(self, monkeypatch):
        idx = random_walk_index("lorentz", 4)
        walk = interpolate_steps(idx.vectors[-2], idx, steps=9)
        walk[5] = np.nan
        monkeypatch.setattr(analysis, "interpolate_steps", lambda y, index, steps: walk)
        monkeypatch.setattr(analysis, "TRAVERSE_BLOCK", 2 * idx.dim * (len(idx.rows_of_class("text")) + 1))
        with pytest.raises(ValueError, match=f"^traversal step 5 scores non-finite against row {idx.root_id}$"):
            traverse(idx.vectors[-2], idx, steps=9)

    @pytest.mark.parametrize("slack", [-1.0, -1e-300, math.nan, -math.inf])
    def test_cone_slack_below_zero_or_nan_rejected(self, slack):
        idx = random_walk_index("lorentz", 1)
        with pytest.raises(ValueError, match="cone slack must be >= 0"):
            traverse(idx.vectors[-2], idx, cone_slack=slack)

    def test_walk_memory_is_bounded_by_the_block(self):
        # 2,000 texts x 200 steps x 16 dims is 51 MB per intermediate
        # unblocked; a block holds at most TRAVERSE_BLOCK float64 elements.
        rng = np.random.default_rng(9)
        geom = analysis.Lorentz(1.0)
        vecs = geom.lift(rng.standard_normal((2001, 16)) * 0.3, 1.0)
        idx = with_root(EmbeddingIndex(
            space="lorentz", curvature=1.0, vectors=vecs,
            labels=[("text", f"t{i}") for i in range(2000)] + [("image", "y")],
        ))
        tracemalloc.start()
        try:
            traverse(vecs[-1] * 3.0, idx, steps=200, cone_slack=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * analysis.TRAVERSE_BLOCK * 8


class TestSpaces:
    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError, match="unknown space 'poincare'"):
            EmbeddingIndex(space="poincare", curvature=1.0,
                           vectors=np.zeros((1, 2)), labels=(("text", "a"),))

    def test_sphere_index_has_no_curvature(self):
        idx = EmbeddingIndex(space="sphere", curvature=2.0,
                             vectors=np.array([[1.0, 0.0]]), labels=(("text", "a"),))
        assert idx.curvature is None and isinstance(idx.geom, analysis.Sphere)

    @pytest.mark.parametrize("space", [analysis.Lorentz(1.3), analysis.Sphere()])
    def test_inner_of_one_vector_is_a_column_of_k_rows(self, space):
        rng = np.random.default_rng(31)
        rows = space.lift(rng.standard_normal((7, 3)), 0.8)
        others = space.lift(rng.standard_normal((4, 3)), 0.8)
        full = space.inner(rows, others)
        assert full.shape == (7, 4)
        for k in range(4):
            np.testing.assert_allclose(space.inner(rows, others[k]), full[:, k],
                                       rtol=1e-12, atol=1e-15)


# A small ROW_BLOCK for the tests below: a multiple of 4 rows, as ROW_BLOCK is.
SMALL_BLOCK = 8


def dump_index(tmp_path, space, count, dim, seed=0, edit=None):
    """An index read back from a dump, so that its rows are the file's
    float32 payload in place: 5 texts, then images.  `edit` may change
    the float64 rows before they are written."""
    rng = np.random.default_rng(seed)
    geom = analysis.Lorentz(0.8) if space == "lorentz" else analysis.Sphere()
    rows = geom.lift(rng.standard_normal((count, dim)) * 0.5, 1.0)
    if edit:
        edit(rows)
    labels = [("text", f"t{i}") for i in range(5)] + [("image", f"i{i}") for i in range(count - 5)]
    path = tmp_path / f"{space}-{count}-{dim}.hypb"
    write_dump(EmbeddingIndex(space=space, curvature=geom.c, vectors=rows, labels=labels), path)
    return read_dump(path)


def damage_row(path, row, scale):
    """Multiply row `row` of a dump's payload by `scale` in place."""
    raw = bytearray(path.read_bytes())
    dim = struct.unpack_from("<I", raw, 9)[0]
    at = 29 + row * dim * 4
    values = np.frombuffer(raw, dtype="<f4", count=dim, offset=at) * np.float32(scale)
    raw[at:at + dim * 4] = values.astype("<f4").tobytes()
    path.write_bytes(bytes(raw))


class TestRowBlocks:
    """Queries read an index's rows ROW_BLOCK at a time, each block
    promoted to float64 on its own; every result equals the one from the
    whole float64 matrix, bit for bit.  57 rows leave a last block of one
    row, which joins the block before it; 61 rows leave five."""

    @pytest.mark.parametrize("count, last", [(57, (48, 9)), (61, (56, 5)), (8, (0, 8)), (1, (0, 1))])
    def test_blocks_cover_the_rows_in_order(self, monkeypatch, count, last):
        monkeypatch.setattr(analysis, "ROW_BLOCK", SMALL_BLOCK)
        rows = np.arange(count * 2, dtype=np.float32).reshape(count, 2)
        blocks = list(row_blocks(rows))
        assert (blocks[-1][0], len(blocks[-1][1])) == last
        assert all(b.dtype == np.float64 for _, b in blocks)
        assert np.array_equal(np.concatenate([b for _, b in blocks]), rows)
        assert [first for first, _ in blocks] == list(range(0, last[0] + 1, SMALL_BLOCK))

    @pytest.mark.parametrize("space, calibrated", [("lorentz", False), ("lorentz", True), ("sphere", False)])
    @pytest.mark.parametrize("count", [57, 61])
    @pytest.mark.parametrize("dim", [3, 16])
    def test_retrieve_scores(self, tmp_path, monkeypatch, space, calibrated, count, dim):
        idx = dump_index(tmp_path, space, count, dim)
        for row in (0, 30, count - 1):
            q = idx.rows(row)
            whole = retrieve(q, idx, k=count, calibrated=calibrated)    # one block
            with monkeypatch.context() as m:
                m.setattr(analysis, "ROW_BLOCK", SMALL_BLOCK)
                blocked = retrieve(q, idx, k=count, calibrated=calibrated)
            assert [(h.row, h.score.hex()) for h in blocked] == [(h.row, h.score.hex()) for h in whole]
            if not calibrated:
                scores = np.array([h.score for h in sorted(blocked, key=lambda h: h.row)])
                assert scores.tobytes() == idx.geom.inner(idx.vectors, q).tobytes()

    @pytest.mark.parametrize("space", ["lorentz", "sphere"])
    @pytest.mark.parametrize("count", [57, 61])
    @pytest.mark.parametrize("dim", [3, 16])
    def test_root_proxies(self, tmp_path, monkeypatch, space, count, dim):
        idx = dump_index(tmp_path, space, count, dim)
        want = idx.geom.root_proxy(idx.vectors, estimate_root(idx))
        monkeypatch.setattr(analysis, "ROW_BLOCK", SMALL_BLOCK)
        assert root_distance_proxy(idx).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [57, 61, 3001])
    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_sphere_root_is_the_float64_mean(self, tmp_path, count, dim):
        idx = dump_index(tmp_path, "sphere", count, dim)
        mean = idx.vectors.mean(axis=0)
        assert idx.payload.dtype == np.float32
        assert estimate_root(idx).tobytes() == (mean / np.linalg.norm(mean)).tobytes()

    @pytest.mark.parametrize("space", ["lorentz", "sphere"])
    def test_traverse(self, tmp_path, monkeypatch, space):
        idx = dump_index(tmp_path, space, 61, 3, seed=4)
        rooted = with_root(idx)
        for row in (5, 33, 60):
            for slack in (0.0, math.inf):
                want = traverse(idx.vectors[row], rooted, steps=20, cone_slack=slack)
                with monkeypatch.context() as m:
                    m.setattr(analysis, "ROW_BLOCK", SMALL_BLOCK)
                    assert traverse(idx.rows(row), idx, steps=20, cone_slack=slack) == want

    @pytest.mark.parametrize("space, scale, message", [
        ("lorentz", math.nan, "lorentz row 50 has a non-finite component"),
        ("lorentz", math.inf, "lorentz row 50 has a non-finite component"),
        ("sphere", math.nan, "sphere row 50 has norm nan, expected 1 within 1e-06"),
        ("sphere", 1.5, r"sphere row 50 has norm 1\.5000000\d, expected 1 within 1e-06"),
    ])
    def test_bad_row_in_a_later_block_is_named(self, tmp_path, monkeypatch, space, scale, message):
        dump_index(tmp_path, space, 61, 16)
        path = tmp_path / f"{space}-61-16.hypb"
        damage_row(path, 50, scale)
        monkeypatch.setattr(analysis, "ROW_BLOCK", SMALL_BLOCK)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_dump(path)

    @pytest.mark.parametrize("space", ["lorentz", "sphere"])
    def test_score_ties_across_a_block_boundary_keep_the_lower_row(self, tmp_path, monkeypatch, space):
        def duplicate(rows):
            rows[9] = rows[6]
        idx = dump_index(tmp_path, space, 61, 16, edit=duplicate)
        monkeypatch.setattr(analysis, "ROW_BLOCK", SMALL_BLOCK)
        assert [h.row for h in retrieve(idx.rows(6), idx, k=2)] == [6, 9]
        assert [h.row for h in retrieve(idx.rows(9), idx, k=2)] == [6, 9]

    def test_row_screen_sums_in_float64(self):
        # float32 rows whose float32 sum would overflow: the screen's
        # verdict is the same for either storage type.
        class Rows(np.ndarray):
            sums = []

            def sum(self, *args, **kwargs):
                Rows.sums.append(kwargs.get("dtype"))
                return super().sum(*args, **kwargs)

        rows = np.full((4, 3), 3e38, dtype=np.float32).view(Rows)
        analysis.Lorentz(1.0).check_rows(rows)
        assert Rows.sums == [np.float64]
