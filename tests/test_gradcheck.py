"""The objective's and every primitive's checks run as stacks: one tape
and one backward per primitive signature group and per batch of
objective candidates, one central-difference forward per signature group
and per objective case.  These tests pin them to the single-point tapes
and per-point loops they replace."""

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
    imgs, txts, scalars, run, _ = case
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
            imgs, txts, scalars, run, _ = case
            np.testing.assert_array_equal(
                gradcheck._numeric_gradient(lambda i, t, *sc: run(i, t, sc),
                                            [imgs[None], txts[None], *scalars[:, None]], {}, 1e-5)[0],
                finite_diff(f, x, h=1e-5))

    def test_nonfinite_stacked_evaluation_names_coordinate(self):
        imgs, txts, scalars, run, tape_grad = \
            gradcheck._admissible_cases(1, SimilarityMode.NEG_LORENTZ_DISTANCE, 0.2, 4, 8)[0]
        first_txt = imgs.size     # flat coordinate of txts[0, 0]

        def poisoned(img_rows, txt_rows, sc):
            total = np.asarray(run(img_rows, txt_rows, sc), dtype=np.float64)
            return np.where(txt_rows[..., 0, 0] < txts[0, 0], np.nan, total)

        with pytest.raises(ValueError, match=rf"coordinate \({first_txt},\)"):
            gradcheck._numeric_gradient(lambda i, t, *sc: poisoned(i, t, sc),
                                        [imgs[None], txts[None], *scalars[:, None]], {}, 1e-5)


def point_margin(seed, mode, lam):
    """Kink margin of the objective's forward at an end-to-end sample point."""
    imgs, txts, scalars = gradcheck._sample_case(seed, 4, 8)
    tape = Tape()
    vs = [tape.var(v) for v in (imgs, txts, *scalars)]
    objective(*vs, mode=mode, entail_weight=lam, cone_boundary=gradcheck.CONE_BOUNDARY)
    return tape.kink_margin()


class TestBoundaryRejection:
    """Every seed the suite draws is admissible at the shipped margin, so
    these tests raise the margin to reach the rejection path."""

    @pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_margin_above_every_point_rejects_all(self, monkeypatch, mode, lam):
        monkeypatch.setattr(gradcheck, "BOUNDARY_MARGIN", np.inf)
        assert gradcheck.total_loss_report(0, mode, lam) is None
        with pytest.raises(RuntimeError, match="admissible"):
            next(gradcheck._admissible_cases(1, mode, lam, 4, 8))

    def test_point_at_the_margin_is_admissible(self, monkeypatch):
        mode, lam = SimilarityMode.NEG_LORENTZ_DISTANCE, 0.2
        margin = point_margin(0, mode, lam)
        monkeypatch.setattr(gradcheck, "BOUNDARY_MARGIN", np.nextafter(margin, np.inf))
        assert gradcheck._admissible_case(0, mode, lam, 4, 8) is None
        monkeypatch.setattr(gradcheck, "BOUNDARY_MARGIN", margin)
        assert gradcheck._admissible_case(0, mode, lam, 4, 8) is not None

    def test_tape_gradient_of_admissible_point(self):
        mode, lam = SimilarityMode.NEG_LORENTZ_DISTANCE, 0.2
        imgs, txts, scalars, run, tape_grad = gradcheck._admissible_case(0, mode, lam, 4, 8)
        tape = Tape()
        vi, vt = tape.var(imgs), tape.var(txts)
        vs = [tape.var(s) for s in scalars]
        grads = tape.backward(run(vi, vt, vs))
        want = np.concatenate([grads[vi.idx].ravel(), grads[vt.idx].ravel()]
                              + [np.atleast_1d(grads[v.idx]) for v in vs])
        np.testing.assert_array_equal(tape_grad, want)


class TestFiniteDiffStacked:
    def test_stack_layout_on_matrix_input(self):
        x = np.random.default_rng(3).standard_normal((2, 3))
        seen = []

        def f_stack(points):
            seen.append(points.copy())
            return np.sum(np.sin(points), axis=(1, 2))

        grad = finite_diff_stacked(f_stack, x[None])[0]
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
            finite_diff_stacked(f_stack, x[None])

    @pytest.mark.parametrize("block,calls", [(ad.FD_BLOCK, [48]), (150, [24, 24]), (100, [12] * 4)])
    def test_points_equal_single_points(self, monkeypatch, block, calls):
        # A point's 12 copies of 6 values hold 72; 150 takes two points a call.
        monkeypatch.setattr(ad, "FD_BLOCK", block)
        xs = np.random.default_rng(5).standard_normal((4, 2, 3))
        seen = []

        def f_stack(points):
            seen.append(len(points))
            return np.sum(np.sin(points) * points, axis=(1, 2))

        grads = finite_diff_stacked(f_stack, xs)
        assert seen == calls
        for x, grad in zip(xs, grads):
            np.testing.assert_array_equal(grad, finite_diff_stacked(f_stack, x[None])[0])
            np.testing.assert_array_equal(grad, finite_diff(lambda z: float(np.sum(np.sin(z) * z)), x))

    def test_nonfinite_names_point_and_coordinate(self):
        def f_stack(pts):
            with np.errstate(invalid="ignore"):
                return np.log(pts[:, 1])

        xs = np.ones((3, 2))
        xs[2, 1] = 1e-20
        with pytest.raises(ValueError, match=r"at point 2, coordinate \(1,\)"):
            finite_diff_stacked(f_stack, xs)


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
                np.testing.assert_array_equal(gradcheck._numeric_gradient(
                    PRIMITIVES[name].forward, [a[None] for a in inputs], params, 1e-5)[0], numeric)
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
            gradcheck._numeric_gradient(PRIMITIVES["sum"].forward, [x[None]], params, 1e-5)[0],
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
            gradcheck._numeric_gradient(PRIMITIVES[name].forward, [a[None] for a in inputs], {}, 1e-5)[0],
            loop_numeric_gradient(PRIMITIVES[name], inputs, {}))

    @pytest.mark.parametrize("points", [1, 15, 100])
    @pytest.mark.parametrize("block", [ad.FD_BLOCK, 10**9], ids=["blocks", "one-forward"])
    def test_check_equals_loop_at_point_counts(self, monkeypatch, points, block):
        # One point gives every signature group one point; 100 is the suite's
        # default, where `sum` draws all six of its groups.
        monkeypatch.setattr(ad, "FD_BLOCK", block)
        for name in sorted(PRIMITIVES):
            assert_same_result(gradcheck.check_primitive(name, points=points),
                               loop_check_primitive(name, points, 0)[0])


VARIANTS = [(mode, lam) for mode in SimilarityMode for lam in (0.0, 0.2)]
VARIANT_IDS = [f"{mode.value}-{lam}" for mode, lam in VARIANTS]


def loop_admissible_cases(seeds, mode, lam):
    """(seed, case) of the first `seeds` admissible cases, found as they were
    before candidates were stacked: one single-point tape per seed, its
    `kink_margin()` against BOUNDARY_MARGIN, the backward of its total."""
    def run(img_rows, txt_rows, sc):
        return objective(img_rows, txt_rows, *sc, mode=mode, entail_weight=lam,
                         cone_boundary=gradcheck.CONE_BOUNDARY)[0]

    found, seed = [], 0
    while len(found) < seeds:
        assert seed < 50 * seeds
        imgs, txts, scalars = gradcheck._sample_case(seed, 4, 8)
        tape = Tape()
        leaves = [tape.var(v) for v in (imgs, txts, *scalars)]
        total = run(leaves[0], leaves[1], leaves[2:])
        if tape.kink_margin() >= gradcheck.BOUNDARY_MARGIN:
            grads = tape.backward(total)
            tape_grad = np.concatenate([grads[v.idx].ravel() for v in leaves])
            found.append((seed, (imgs, txts, scalars, run, tape_grad)))
        seed += 1
    return found


def loop_case_differences(case):
    """A case's central differences as one stack of its 2N points."""
    imgs, txts, scalars, run, _ = case

    def f_stack(points):
        k = len(points)
        return run(points[:, :32].reshape(k, 4, 8), points[:, 32:64].reshape(k, 4, 8),
                   [points[:, 64 + j].reshape(k, 1, 1) for j in range(4)])

    return finite_diff_stacked(f_stack, np.concatenate([imgs.ravel(), txts.ravel(), scalars])[None], h=1e-5)[0]


def loop_worst(name, reports, rtol, atol):
    return gradcheck.CheckResult(name=name, passed=all(r.within(rtol, atol) for r in reports),
                                 report=max(reports, key=lambda r: r.max_abs_err))


def loop_check_total_loss(seeds):
    """check_total_loss as it ran per case before its tapes and differences
    were stacked: one report per case, the worst of each variant."""
    tape_results, closed_results = [], []
    for mode, lam in VARIANTS:
        tape_reports, closed_reports = [], []
        for _, case in loop_admissible_cases(seeds, mode, lam):
            closed_reports.append(make_report(gradcheck._closed_form_gradient(case, mode, lam), case[-1]))
            if mode is not SimilarityMode.COSINE:
                tape_reports.append(make_report(case[-1], loop_case_differences(case)))
        variant = f"{mode.value}/entail_weight={lam}"
        if tape_reports:
            tape_results.append(loop_worst(f"total_loss/{variant}", tape_reports,
                                           gradcheck.END_TO_END_RTOL, gradcheck.END_TO_END_ATOL))
        closed_results.append(loop_worst(f"closed_form/{variant}", closed_reports, 0.0, 0.0))
    return tape_results + closed_results


def assert_same_cases(got, want):
    assert len(got) == len(want)
    for case, (_, old) in zip(got, want):
        for a, b in zip(case[:3] + case[4:], old[:3] + old[4:]):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype


class TestStackedTotalLoss:
    @pytest.mark.parametrize("seeds", [1, 3, 20])
    @pytest.mark.parametrize("block", [ad.FD_BLOCK, 10**9], ids=["blocks", "one-forward"])
    def test_equals_per_case_loop(self, monkeypatch, seeds, block):
        monkeypatch.setattr(ad, "FD_BLOCK", block)
        got, want = gradcheck.check_total_loss(seeds), loop_check_total_loss(seeds)
        assert len(got) == len(want) == 10
        for g, w in zip(got, want):
            assert_same_result(g, w)

    @pytest.mark.parametrize("mode,lam", VARIANTS, ids=VARIANT_IDS)
    def test_per_candidate_margins_equal_single_tapes(self, mode, lam):
        seeds = range(30)
        imgs, txts, scalars = (np.stack(a) for a in zip(*(gradcheck._sample_case(s, 4, 8) for s in seeds)))
        tape = Tape()
        leaves = [tape.var(v) for v in (imgs, txts, *scalars.T.reshape(4, 30, 1, 1))]
        objective(*leaves, mode=mode, entail_weight=lam, cone_boundary=gradcheck.CONE_BOUNDARY)
        margins = tape.kink_margins(30)
        np.testing.assert_array_equal(margins, [point_margin(s, mode, lam) for s in seeds])
        assert tape.kink_margin() == margins.min()

    @pytest.mark.parametrize("mode,lam", VARIANTS, ids=VARIANT_IDS)
    def test_rejections_draw_further_batches(self, monkeypatch, mode, lam):
        # At the median single-point margin of the first 30 seeds about half
        # the candidates are rejected, so the first batch falls short.
        margin = float(np.median([point_margin(s, mode, lam) for s in range(30)]))
        monkeypatch.setattr(gradcheck, "BOUNDARY_MARGIN", margin)
        batches = []
        candidates = gradcheck._admissible_among

        def counted(seeds, *args):
            batches.append(list(seeds))
            return candidates(seeds, *args)

        monkeypatch.setattr(gradcheck, "_admissible_among", counted)
        want = loop_admissible_cases(8, mode, lam)
        assert_same_cases(gradcheck._admissible_cases(8, mode, lam, 4, 8), want)
        assert len(batches) >= 2 and batches[0] == list(range(8))
        assert sum(batches, []) == list(range(want[-1][0] + 1))

    def test_rejections_keep_the_suite_equal_to_the_loop(self, monkeypatch):
        # Above the least margin of the entailment variants, below that of
        # the others: those variants draw further batches.
        monkeypatch.setattr(gradcheck, "BOUNDARY_MARGIN", 0.05)
        got, want = gradcheck.check_total_loss(3), loop_check_total_loss(3)
        assert len(got) == len(want) == 10
        for g, w in zip(got, want):
            assert_same_result(g, w)
