"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The reference experiment (depth 3, branching 4, 16-dim embeddings, batch
64, 2000 steps, seed 7) is trained once per session for the structural
criteria; realized numbers are pinned in expected_results.json.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hycone import analysis
from hycone.cli import main as cli_main
from hycone.dumpio import DumpFormatError, read_dump, write_dump
from hycone.entailment import ConeParams, exterior_angle, half_aperture
from hycone.geometry import (
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
)
from hycone.hierarchy import is_ancestor
from hycone.trainer import TrainConfig, checkpoint_bytes, reference_config, train

EXPECTED = json.loads((Path(__file__).parent.parent / "expected_results.json").read_text())


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def bounded_tangent(rng, dim, max_radius):
    d = rng.standard_normal(dim)
    d /= np.linalg.norm(d)
    return rng.uniform(0.0, max_radius) * d


@pytest.fixture(scope="module")
def reference_runs():
    t0 = time.time()
    lorentz = train(reference_config(seed=7))
    sphere = train(reference_config(seed=7, space="sphere"))
    return lorentz, sphere, time.time() - t0


def _draw_bounded(rng, n, dim, max_radius):
    d = rng.standard_normal((n, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return rng.uniform(0.0, max_radius, (n, 1)) * d


def test_criterion_1_geometry_suite():
    from hycone import geometry as geo

    rng = np.random.default_rng(101)
    t0 = time.time()
    n = 100_000
    # radius <= 2 keeps the 1e-9 absolute residual target meaningful in f64;
    # row kernels broadcast a per-draw curvature column
    c = rng.uniform(0.1, 10.0, (n, 1))
    v = _draw_bounded(rng, n, 4, 2.0)

    sp = np.asarray(geo.exp_space(v, c))
    t = np.asarray(geo.time_part(sp, c))
    residuals = np.abs(np.sum(sp * sp, axis=1, keepdims=True) - t * t + 1.0 / c)
    back = np.asarray(geo.log_space(sp, c))
    roundtrip = np.abs(back - v)
    origin_inner = -t / np.sqrt(c)
    d_from_origin = np.asarray(geo.dist_from_inner(origin_inner, c))
    isometry = np.abs(d_from_origin[:, 0] - np.linalg.norm(v, axis=1))
    # inverse-map regime at larger radii (norms up to 5)
    v5 = _draw_bounded(rng, 20_000, 4, 5.0)
    c5 = rng.uniform(0.1, 10.0, (20_000, 1))
    sp5 = np.asarray(geo.exp_space(v5, c5))
    roundtrip5 = np.abs(np.asarray(geo.log_space(sp5, c5)) - v5)

    worst_residual = float(residuals.max())
    worst_roundtrip = float(max(roundtrip.max(), roundtrip5.max()))
    worst_isometry = float(isometry.max())

    # triangle inequality over 1e4 random triples
    ct = rng.uniform(0.1, 10.0, (10_000, 1))
    xs, ys, zs = (np.asarray(geo.exp_space(_draw_bounded(rng, 10_000, 3, 3.0), ct))
                  for _ in range(3))
    xt, yt, zt = (np.asarray(geo.time_part(s, ct)) for s in (xs, ys, zs))

    def dists(a_sp, a_t, b_sp, b_t):
        ip = np.asarray(geo.pair_inner(a_sp, a_t, b_sp, b_t))
        return np.asarray(geo.dist_from_inner(ip, ct))[:, 0]

    triangle_ok = bool(
        np.all(dists(xs, xt, zs, zt) <= dists(xs, xt, ys, yt) + dists(ys, yt, zs, zt) + 1e-7)
    )

    # the typed surface must agree with the batched kernels on shared draws
    surface_diff = 0.0
    for i in range(0, n, n // 2000):
        curv = Curvature(float(c[i, 0]))
        p = exp_map_origin(TangentVector(v[i]), curv)
        surface_diff = max(surface_diff, float(np.max(np.abs(p.space - sp[i]))))
        surface_diff = max(surface_diff, float(np.max(np.abs(log_map_origin(p).space - back[i]))))
        d = lorentz_distance(origin(4, curv), p)
        surface_diff = max(surface_diff, abs(d - float(d_from_origin[i, 0])))
        surface_diff = max(surface_diff, abs(lorentz_inner(p, p) + 1.0 / curv.c))

    elapsed = time.time() - t0
    ok = (
        worst_residual < 1e-9
        and worst_roundtrip < 1e-8
        and worst_isometry < 1e-8
        and triangle_ok
        and surface_diff < 1e-9
        and elapsed < 10.0
    )
    report(
        1, "geometry suite", ok,
        f"residual {worst_residual:.2e}, roundtrip {worst_roundtrip:.2e}, "
        f"isometry {worst_isometry:.2e}, triangle {'ok' if triangle_ok else 'VIOLATED'}, "
        f"typed-surface diff {surface_diff:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_aperture_isometry():
    boundary = 0.1
    cones = ConeParams(boundary=boundary)
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    while checked < 1000:
        c = float(rng.uniform(0.1, 10.0))
        u = float(rng.uniform(0.12, 0.999))      # sqrt(c) * ||xb||
        r = u / math.sqrt(c)
        direction = rng.standard_normal(3)
        xb = r * direction / np.linalg.norm(direction)
        arg = boundary * (1.0 - c * r * r) / (math.sqrt(c) * r)
        if arg > 1.0 - 1e-6:
            continue
        ball_form = math.asin(arg)
        hyperboloid_form = half_aperture(poincare_to_lorentz(xb, Curvature(c)), cones)
        worst = max(worst, abs(hyperboloid_form - ball_form))
        checked += 1
    report(2, "aperture model-invariance", worst < 1e-10, f"max |diff| {worst:.2e} over 1000 pairs")


def test_criterion_3_exterior_angle_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    while checked < 1000:
        c = float(rng.uniform(0.1, 10.0))
        curv = Curvature(c)
        x = exp_map_origin(TangentVector(bounded_tangent(rng, 3, 1.5) + 0.2), curv)
        y = exp_map_origin(TangentVector(bounded_tangent(rng, 3, 1.5) + 0.2), curv)
        o = origin(3, curv)
        sc = math.sqrt(c)
        d_oy, d_ox, d_xy = (
            lorentz_distance(o, y), lorentz_distance(o, x), lorentz_distance(x, y)
        )
        if d_xy < 1e-2 or d_ox < 1e-2:
            continue
        cos_angle = (
            math.cosh(d_xy * sc) * math.cosh(d_ox * sc) - math.cosh(d_oy * sc)
        ) / (math.sinh(d_xy * sc) * math.sinh(d_ox * sc))
        if abs(cos_angle) > 1.0 - 1e-3:          # clamp-boundary neighborhood
            continue
        oracle = math.pi - math.acos(cos_angle)
        worst = max(worst, abs(exterior_angle(x, y) - oracle))
        checked += 1
    report(3, "exterior-angle law-of-cosines oracle", worst < 1e-6,
           f"max |diff| {worst:.2e} over 1000 pairs")


def test_criterion_4_gradient_suite(capsys):
    t0 = time.time()
    code = cli_main(["gradcheck", "--points", "100", "--seeds", "20"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        report(4, "gradient suite", code == 0 and elapsed < 30.0,
               f"gradcheck exit {code} in {elapsed:.1f}s")
    assert "gradient check passed" in out


def test_criterion_5_ranking_equivalence():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(1000):
        c = float(rng.uniform(0.1, 10.0))
        curv = Curvature(c)
        q = exp_map_origin(TangentVector(rng.standard_normal(4)), curv)
        cands = [
            exp_map_origin(TangentVector(rng.standard_normal(4)), curv) for _ in range(16)
        ]
        inners = np.array([lorentz_inner(q, p) for p in cands])
        dists = np.array([lorentz_distance(q, p) for p in cands])
        if not np.array_equal(np.argsort(-inners, kind="stable"),
                              np.argsort(dists, kind="stable")):
            ok = False
            break
    report(5, "ranking equivalence", ok, "argsort equality over 1000 query/candidate sets")


def _proxy_gap_over_se(index):
    """Signed (image - text) root-distance-proxy gap in pooled-SE units."""
    proxies = analysis.root_distance_proxy(index)
    text = proxies[index.rows_of_class("text")]
    image = proxies[index.rows_of_class("image")]
    se = math.sqrt(text.var(ddof=1) / text.size + image.var(ddof=1) / image.size)
    return (image.mean() - text.mean()) / se, text.mean(), image.mean()


def test_criterion_6_hierarchy_separation(reference_runs):
    lorentz, sphere, elapsed = reference_runs
    gap_l, text_l, img_l = _proxy_gap_over_se(lorentz.index)
    gap_s, text_s, img_s = _proxy_gap_over_se(analysis.with_root(sphere.index))
    drop = 1.0 - lorentz.curve[-1, 3] / lorentz.curve[0, 3]
    ok = (
        text_l < img_l
        and gap_l > 3.0
        and gap_s < 1.0
        and drop >= 0.5
        and elapsed < 300.0
    )
    report(
        6, "toy hierarchy separation", ok,
        f"lorentz text {text_l:.3f} < image {img_l:.3f}, gap {gap_l:.1f}xSE; "
        f"sphere gap {gap_s:.1f}xSE; loss drop {drop:.1%}; runtime {elapsed:.0f}s",
    )
    for key, value in (
        ("lorentz_gap_over_se", gap_l),
        ("sphere_gap_over_se", gap_s),
        ("loss_drop", drop),
    ):
        assert value == pytest.approx(EXPECTED["reference"][key], rel=0.1, abs=0.05), key


def test_criterion_7_ablation_flags():
    small = dict(batch_size=8, steps=40, warmup=4, depth=2, branching=3,
                 latent_dim=8, embed_dim=8, held_out_per_leaf=2, seed=3)

    no_ent = train(TrainConfig(no_entailment=True, **small))
    flag1 = bool(np.all(no_ent.curve[:, 2] == 0.0))

    fixed = train(TrainConfig(fixed_curvature=True, **small))
    flag2 = float(fixed.tensors["log_curv"]) == 0.0 and bool(
        np.all(fixed.curve[:, 6] == 1.0)
    )

    inner = train(TrainConfig(inner_product_logits=True, **small))
    from hycone.hierarchy import PairSampler, generate_tree
    from hycone.losses import BatchEmbeddings, SimilarityMode, lift_batch, logit_matrix
    from hycone.trainer import encoder_forward

    cfg = inner.config
    tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
    batch = PairSampler(tree, cfg.seed).next_batch(cfg.batch_size)
    img = np.asarray(encoder_forward(inner.tensors, batch.image_latents, "img", 0))
    txt = np.asarray(encoder_forward(inner.tensors, batch.text_latents, "txt", 0))
    params = inner.loss_params()
    images, texts = lift_batch(BatchEmbeddings(images=img, texts=txt), params)
    logits = logit_matrix(images, texts, params, SimilarityMode.LORENTZ_INNER)
    bound = -(1.0 / params.curv().c) * params.inv_temp()
    flag3 = bool(np.all(logits <= bound + 1e-9))

    report(
        7, "ablation switches", flag1 and flag2 and flag3,
        f"no-entailment term==0: {flag1}; fixed c==1.0: {flag2}; "
        f"inner-product logits <= -1/(c*tau): {flag3}",
    )


def test_criterion_8_traversal_regression(reference_runs):
    lorentz, _, _ = reference_runs
    index = analysis.with_root(lorentz.index)
    per_leaf = {}
    for row in index.rows_of_class("image"):
        leaf = index.labels[row][1].split("/")[0]
        per_leaf.setdefault(leaf, row)

    hits = 0
    monotone = True
    terminated = True
    for leaf, row in per_leaf.items():
        result = analysis.traverse(index.vectors[row], index)
        if any(is_ancestor(lbl, leaf) for lbl in result.unique[:-1]):
            hits += 1
        steps = analysis.interpolate_steps(index.vectors[row], index)
        norms = [float(np.linalg.norm(s)) for s in steps]
        monotone &= all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        terminated &= result.unique[-1] == "[ROOT]" and result.steps[-1][1] == "[ROOT]"
    rate = hits / len(per_leaf)
    ok = rate >= 0.8 and monotone and terminated
    report(
        8, "traversal regression", ok,
        f"ancestor-before-ROOT rate {rate:.1%} over {len(per_leaf)} leaves; "
        f"proxy monotone: {monotone}; terminates at ROOT: {terminated}",
    )
    assert rate == pytest.approx(EXPECTED["reference"]["traversal_ancestor_rate"], abs=0.08)


def test_criterion_9_determinism_and_format(tmp_path):
    small = dict(batch_size=8, steps=40, warmup=4, depth=2, branching=3,
                 latent_dim=8, embed_dim=8, held_out_per_leaf=2, seed=12)
    a, b = train(TrainConfig(**small)), train(TrainConfig(**small))
    same_checkpoints = checkpoint_bytes(a) == checkpoint_bytes(b)

    pa, la = write_dump(a.index, tmp_path / "a.hypb")
    pb, lb = write_dump(b.index, tmp_path / "b.hypb")
    same_dumps = pa.read_bytes() == pb.read_bytes() and la.read_bytes() == lb.read_bytes()

    loaded = read_dump(pa)
    pc, lc = write_dump(loaded, tmp_path / "c.hypb")
    roundtrip = pc.read_bytes() == pa.read_bytes() and lc.read_bytes() == la.read_bytes()

    corrupted = bytearray(pa.read_bytes())
    corrupted[0] ^= 0xFF
    (tmp_path / "bad.hypb").write_bytes(bytes(corrupted))
    (tmp_path / "bad.labels").write_bytes(la.read_bytes())
    try:
        read_dump(tmp_path / "bad.hypb")
        error_class = False
    except DumpFormatError as exc:
        error_class = "bad magic at offset 0" in str(exc)

    ok = same_checkpoints and same_dumps and roundtrip and error_class
    report(
        9, "determinism and format", ok,
        f"checkpoints bitwise: {same_checkpoints}; dumps bitwise: {same_dumps}; "
        f"roundtrip bitwise: {roundtrip}; corrupt header error: {error_class}",
    )
