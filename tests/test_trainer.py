import dataclasses
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hycone import dumpio, trainer
from hycone.analysis import Labels, space_of
from hycone.hierarchy import (
    MAX_BATCH_SIZE, MAX_DIM, MAX_HELD_OUT_IMAGES, MAX_STEPS, MAX_TREE_NODES, PairSampler,
    generate_tree, tree_node_count,
)
from hycone.losses import (
    LossParams, SimilarityMode, clamped_curv, logit_matrix, objective,
)
from hycone.trainer import (
    AdamState,
    ParamVector,
    TrainConfig,
    adamw_step,
    build_embedding_index,
    checkpoint_bytes,
    curve_csv,
    encoder_forward,
    init_tensors,
    load_checkpoint,
    lr_at,
    reference_config,
    save_checkpoint,
    save_curve,
    train,
    train_step,
)

TINY = dict(batch_size=8, steps=30, warmup=3, depth=2, branching=3,
            latent_dim=8, embed_dim=8, held_out_per_leaf=2)


class TestSchedule:
    def test_warmup_endpoints(self):
        cfg = TrainConfig(steps=1000, warmup=100, peak_lr=5e-4)
        assert lr_at(0, cfg) == 0.0
        assert lr_at(100, cfg) == cfg.peak_lr
        assert lr_at(50, cfg) == pytest.approx(cfg.peak_lr / 2)

    def test_cosine_reaches_zero(self):
        cfg = TrainConfig(steps=1000, warmup=100, peak_lr=5e-4)
        assert abs(lr_at(1000, cfg)) < 1e-12

    def test_monotone_decay_after_warmup(self):
        cfg = TrainConfig(steps=500, warmup=50)
        vals = [lr_at(s, cfg) for s in range(50, 501)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_range_validated(self):
        cfg = TrainConfig(steps=100, warmup=10)
        with pytest.raises(ValueError):
            lr_at(101, cfg)
        with pytest.raises(ValueError):
            TrainConfig(steps=100, warmup=100)


# Float fields that must be > 0; the others must be >= 0.  All must be finite.
POSITIVE_FIELDS = ("peak_lr", "cone_boundary")
NON_NEGATIVE_FIELDS = ("weight_decay", "noise", "entail_weight")


class TestConfigDomain:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", POSITIVE_FIELDS + NON_NEGATIVE_FIELDS)
    def test_float_fields(self, field, value):
        if value == 0.0 and field in NON_NEGATIVE_FIELDS:
            assert getattr(TrainConfig(**TINY, **{field: value}), field) == 0.0
        else:
            with pytest.raises(ValueError, match=field):
                TrainConfig(**TINY, **{field: value})

    def test_int_is_a_float_but_bool_is_no_number(self):
        assert TrainConfig(**TINY, peak_lr=1, noise=0).peak_lr == 1
        for field, value in (("peak_lr", True), ("depth", 2.0), ("no_entailment", 1)):
            with pytest.raises(TypeError, match=f"{field} must be of type"):
                TrainConfig(**{**TINY, field: value})

    @pytest.mark.parametrize("depth, branching", [(40, 2), (10**18, 2), (2, 10**18), (5, 10), (16, 2)])
    def test_tree_above_cap_rejected_before_it_is_built(self, depth, branching):
        # Validation alone: nothing of the tree's size is allocated.
        with pytest.raises(ValueError, match=f"more than {MAX_TREE_NODES} nodes"):
            TrainConfig(**{**TINY, "depth": depth, "branching": branching})
        with pytest.raises(ValueError, match=f"more than {MAX_TREE_NODES} nodes"):
            generate_tree(depth, branching, 4, 0.1, 0)

    @pytest.mark.parametrize("per_leaf", [0, MAX_HELD_OUT_IMAGES])
    def test_held_out_count_checked_before_training(self, per_leaf):
        with pytest.raises(ValueError, match="held-out image"):
            TrainConfig(**{**TINY, "held_out_per_leaf": per_leaf})

    @pytest.mark.parametrize("field, cap", [
        ("batch_size", MAX_BATCH_SIZE), ("steps", MAX_STEPS),
        ("latent_dim", MAX_DIM), ("embed_dim", MAX_DIM), ("hidden_dim", MAX_DIM),
    ])
    def test_sizes_above_cap_rejected_before_allocating(self, field, cap):
        # Validation alone: nothing of the size is allocated.
        for value in (cap + 1, 10**12):
            with pytest.raises(ValueError, match=f"<= {cap}, got {value}"):
                TrainConfig(**{**TINY, field: value})
        assert getattr(TrainConfig(**{**TINY, field: cap}), field) == cap

    def test_tree_cap_admits_documented_shapes(self):
        # README reference, the benchmark's wide run, the small test trees,
        # and the largest trees under the cap.
        for depth, branching, nodes in [(3, 4, 85), (4, 6, 1555), (2, 2, 7), (2, 3, 13),
                                        (15, 2, 65535), (5, 9, 66430)]:
            assert tree_node_count(depth, branching) == nodes <= MAX_TREE_NODES
            TrainConfig(**{**TINY, "depth": depth, "branching": branching})
        with pytest.raises(ValueError, match="depth >= 2"):
            tree_node_count(1, 4)


class TestAdamW:
    def test_one_step_closed_form(self):
        params = {"w": np.array(1.0)}
        grads = {"w": np.array(1.0)}
        state = AdamState.zeros(params)
        new, state = adamw_step(params, grads, state, lr=0.1, weight_decay=0.0)
        # bias-corrected m_hat = v_hat = 1
        assert float(new["w"]) == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)
        assert state.step == 1

    def test_decoupled_decay_only(self):
        params = {"w": np.array([[2.0]])}   # 2-D: decays by default
        grads = {"w": np.array([[0.0]])}
        state = AdamState.zeros(params)
        new, _ = adamw_step(params, grads, state, lr=0.1, weight_decay=0.2)
        np.testing.assert_allclose(new["w"], [[2.0 * (1 - 0.02)]], atol=1e-15)

    def test_zero_grad_no_decay_unchanged(self):
        params = {"b": np.array([1.0, -1.0])}   # 1-D: no decay
        grads = {"b": np.zeros(2)}
        state = AdamState.zeros(params)
        new, _ = adamw_step(params, grads, state, lr=0.1, weight_decay=0.2)
        np.testing.assert_array_equal(new["b"], params["b"])

    def test_nonfinite_grad_rejected(self):
        params = {"w": np.array(1.0)}
        grads = {"w": np.array(np.nan)}
        with pytest.raises(ValueError, match="non-finite gradient"):
            adamw_step(params, grads, AdamState.zeros(params), lr=0.1)


def dict_adamw_step(params, grads, m, v, t, lr, betas, weight_decay, eps):
    """The per-tensor AdamW loop the flat update replaced: the oracle.
    `m` and `v` are dicts; returns (params, m, v) as new dicts."""
    b1, b2 = betas
    new_p, new_m, new_v = {}, {}, {}
    for k in sorted(params):
        g = np.asarray(grads[k], dtype=np.float64)
        mk = b1 * m[k] + (1.0 - b1) * g
        vk = b2 * v[k] + (1.0 - b2) * g * g
        m_hat = mk / (1.0 - b1**t)
        v_hat = vk / (1.0 - b2**t)
        p = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        if np.ndim(params[k]) >= 2:
            p = p - lr * weight_decay * params[k]
        new_p[k], new_m[k], new_v[k] = np.asarray(p), np.asarray(mk), np.asarray(vk)
    return new_p, new_m, new_v


class TestFlatAdamW:
    @pytest.mark.parametrize("extra", [
        {}, {"hidden_dim": 8}, {"space": "sphere"}, {"fixed_curvature": True},
    ], ids=lambda e: ",".join(e) or "reference")
    def test_train_step_equals_dict_loop(self, extra):
        cfg = replace(reference_config(), **extra)
        tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
        sampler = PairSampler(tree, cfg.seed)
        init = init_tensors(cfg)
        params, state = ParamVector.of(init), AdamState.zeros(init)
        ref = dict(init)
        ref_m = {k: np.zeros_like(p) for k, p in init.items()}
        ref_v = {k: np.zeros_like(p) for k, p in init.items()}
        lam = cfg.entail_weight
        for step in range(60):
            batch = sampler.next_batch(cfg.batch_size)
            params, state, _ = train_step(params, state, batch, cfg, step)
            with np.errstate(all="ignore"):
                rows = [encoder_forward(ref, lat, mod, cfg.hidden_dim)
                        for lat, mod in ((batch.image_latents, "img"), (batch.text_latents, "txt"))]
                _, grads = trainer._closed_form_gradients(ref, batch, cfg, lam, *rows)
                upd, upd_m, upd_v = dict_adamw_step(
                    {k: ref[k] for k in grads}, grads, ref_m, ref_v, step + 1, lr_at(step, cfg),
                    trainer.ADAM_BETAS, cfg.weight_decay, trainer.ADAM_EPS)
            ref, ref_m, ref_v = {**ref, **upd}, {**ref_m, **upd_m}, {**ref_v, **upd_v}
            moments = ParamVector(params.layout, state.m), ParamVector(params.layout, state.v)
            assert state.step == step + 1
            for k in ref:
                np.testing.assert_array_equal(params[k], ref[k], err_msg=f"{k} at step {step}")
                np.testing.assert_array_equal(moments[0][k], ref_m[k], err_msg=k)
                np.testing.assert_array_equal(moments[1][k], ref_v[k], err_msg=k)
        if cfg.fixed_curvature:
            assert params["log_curv"].tobytes() == init["log_curv"].tobytes()
            assert moments[0]["log_curv"] == 0.0 and moments[1]["log_curv"] == 0.0

    @pytest.mark.parametrize("moments", ["zero", "random"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.2])
    def test_bits_of_textbook_update_and_inputs_untouched(self, moments, weight_decay):
        rng = np.random.default_rng([17, weight_decay > 0, moments == "random"])
        tensors = {"a_w": rng.standard_normal((5, 3)), "b": rng.standard_normal(3),
                   "c": np.asarray(rng.standard_normal())}     # decays a_w only
        params = ParamVector.of(tensors)
        grads = {k: rng.standard_normal(np.shape(v)) * 10.0 ** rng.integers(-6, 3)
                 for k, v in tensors.items()}
        if moments == "zero":
            state = AdamState.zeros(params)
        else:
            n = params.flat.size
            state = AdamState(step=6, m=rng.standard_normal(n), v=rng.random(n) * 1e-2)
        ref_m = dict(ParamVector(params.layout, state.m))
        ref_v = dict(ParamVector(params.layout, state.v))
        kept = [a.copy() for a in (params.flat, state.m, state.v)]
        kept_grads = {k: g.copy() for k, g in grads.items()}

        new, new_state = adamw_step(params, grads, state, lr=3e-4, weight_decay=weight_decay)
        ref, ref_m, ref_v = dict_adamw_step(tensors, grads, ref_m, ref_v, state.step + 1, 3e-4,
                                            trainer.ADAM_BETAS, weight_decay, trainer.ADAM_EPS)
        assert new_state.step == state.step + 1
        for k in tensors:
            assert new[k].tobytes() == ref[k].tobytes(), k
            assert ParamVector(params.layout, new_state.m)[k].tobytes() == ref_m[k].tobytes(), k
            assert ParamVector(params.layout, new_state.v)[k].tobytes() == ref_v[k].tobytes(), k
        # The update writes only into arrays of its own.
        for before, after in zip(kept, (params.flat, state.m, state.v)):
            assert before.tobytes() == after.tobytes()
        for k, g in grads.items():
            assert g.tobytes() == kept_grads[k].tobytes(), k
        for out in (new.flat, new_state.m, new_state.v):
            for arr in (params.flat, state.m, state.v, *grads.values()):
                assert not np.shares_memory(out, arr)

    def test_views_share_one_vector(self):
        params = ParamVector.of(init_tensors(TrainConfig(**TINY)))
        assert list(params) == sorted(params)
        assert sum(np.size(params[k]) for k in params) == params.flat.size
        for k in params:
            assert np.shares_memory(params[k], params.flat)
        assert params["log_curv"].shape == () and params["img_w"].shape == (8, 8)

    def test_missing_gradient_raises_naming_the_tensor(self):
        params = {"a": np.array([[1.0, 2.0]]), "b": np.array([[0.5, -0.5]])}
        with pytest.raises(KeyError, match="'b'"):
            adamw_step(params, {"a": np.array([[0.3, -0.1]])}, AdamState.zeros(params), lr=0.1)

    @pytest.mark.parametrize("as_vector", [False, True])
    def test_nonfinite_names_first_tensor_in_sorted_order(self, as_vector):
        tensors = init_tensors(TrainConfig(**TINY))
        grads = {k: np.zeros(np.shape(p)) for k, p in tensors.items()}
        grads["txt_w"][0, 0] = np.nan
        grads["log_curv"] = np.array(np.inf)
        grads["img_b"][-1] = np.nan
        params = ParamVector.of(tensors) if as_vector else tensors
        with pytest.raises(ValueError, match=r"^non-finite gradient for parameter 'img_b'$"):
            adamw_step(params, grads, AdamState.zeros(tensors), lr=0.1)
        grads["img_b"][-1] = 0.0
        with pytest.raises(ValueError, match=r"^non-finite gradient for parameter 'log_curv'$"):
            adamw_step(params, grads, AdamState.zeros(tensors), lr=0.1)


class TestTraining:
    def test_bitwise_determinism(self):
        cfg = TrainConfig(seed=11, **TINY)
        a = train(cfg)
        b = train(cfg)
        assert checkpoint_bytes(a) == checkpoint_bytes(b)
        assert np.array_equal(a.curve, b.curve)
        assert np.array_equal(a.index.vectors, b.index.vectors)

    def test_seed_changes_result(self):
        a = train(TrainConfig(seed=1, **TINY))
        b = train(TrainConfig(seed=2, **TINY))
        assert checkpoint_bytes(a) != checkpoint_bytes(b)

    def test_loss_decreases(self):
        chk = train(TrainConfig(seed=11, **TINY))
        assert chk.curve[-1, 3] < chk.curve[0, 3]

    def test_no_entailment_flag(self):
        chk = train(TrainConfig(seed=11, no_entailment=True, **TINY))
        assert np.all(chk.curve[:, 2] == 0.0)

    def test_no_entailment_checkpoint_has_no_hinge_term(self, tmp_path):
        cfg = TrainConfig(seed=11, no_entailment=True, **TINY)
        chk = train(cfg)
        loaded = load_checkpoint(save_checkpoint(chk, tmp_path / "c.bin"))
        tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
        batch = PairSampler(tree, cfg.seed).next_batch(cfg.batch_size)
        for c in (chk, loaded):
            params = c.loss_params()
            assert c.config.trained_entail_weight == 0.0
            total, cont, _ = objective(
                encoder_forward(c.tensors, batch.image_latents, "img", cfg.hidden_dim),
                encoder_forward(c.tensors, batch.text_latents, "txt", cfg.hidden_dim),
                params.log_inv_temp, params.log_curv, params.log_scale_img, params.log_scale_txt,
                mode=cfg.mode(), entail_weight=c.config.trained_entail_weight,
                cone_boundary=c.config.cone_boundary,
            )
            assert total == cont

    def test_fixed_curvature_flag(self):
        cfg = TrainConfig(seed=11, fixed_curvature=True, **TINY)
        chk = train(cfg)
        assert float(chk.tensors["log_curv"]) == 0.0
        assert np.all(chk.curve[:, 6] == 1.0)

    def test_inner_product_logits_bound(self):
        cfg = TrainConfig(seed=11, inner_product_logits=True, **TINY)
        chk = train(cfg)
        # rebuild a batch of logits at the final parameters
        from hycone.hierarchy import PairSampler, generate_tree
        from hycone.losses import BatchEmbeddings, lift_batch

        tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
        batch = PairSampler(tree, cfg.seed).next_batch(cfg.batch_size)
        img = np.asarray(encoder_forward(chk.tensors, batch.image_latents, "img", cfg.hidden_dim))
        txt = np.asarray(encoder_forward(chk.tensors, batch.text_latents, "txt", cfg.hidden_dim))
        params = chk.loss_params()
        images, texts = lift_batch(BatchEmbeddings(images=img, texts=txt), params)
        logits = logit_matrix(images, texts, params, SimilarityMode.LORENTZ_INNER)
        bound = -(1.0 / params.curv().c) * params.inv_temp()
        assert np.all(logits <= bound + 1e-9)

    def test_sphere_space(self):
        chk = train(TrainConfig(seed=11, space="sphere", **TINY))
        assert chk.index.space == "sphere"
        assert np.all(chk.curve[:, 2] == 0.0)
        norms = np.linalg.norm(chk.index.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_divergence_aborts_with_step(self):
        from hycone.trainer import DivergenceError

        cfg = TrainConfig(seed=11, peak_lr=1e305, **TINY)
        with pytest.raises(DivergenceError, match="step"):
            train(cfg)

    def test_index_labels_equal_pair_labels(self):
        cfg = TrainConfig(seed=11, **TINY)
        tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
        index = build_embedding_index(init_tensors(cfg), cfg, tree)
        names = [f"{tree.nodes[leaf].path}/h{j}" for leaf in tree.leaves
                 for j in range(cfg.held_out_per_leaf)]
        pairs = [("text", tree.nodes[i].path) for i in tree.internal] + [("image", n) for n in names]
        assert index.labels == Labels.from_pairs(pairs)

    def test_hidden_layer_variant_trains(self):
        cfg = TrainConfig(seed=11, hidden_dim=12, batch_size=8, steps=300, warmup=10,
                          depth=2, branching=3, latent_dim=8, embed_dim=8,
                          held_out_per_leaf=2)
        chk = train(cfg)
        assert "img_w1" in chk.tensors
        assert chk.curve[-10:, 3].mean() < chk.curve[:10, 3].mean()


def whole_set_vectors(tensors, cfg, tree, per_leaf):
    """The index matrix as `build_embedding_index` made it before blocks:
    one draw of the whole held-out set, `np.repeat` of the leaf latents,
    one encode and one lift per modality, then `np.vstack`."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    img_latents = rng.standard_normal((len(tree.leaves) * per_leaf, tree.latent_dim))
    img_latents *= tree.noise
    img_latents += np.repeat(tree.leaf_latents(), per_leaf, axis=0)
    txt_latents = np.stack([tree.nodes[i].latent for i in tree.internal])
    space = space_of(cfg.space, float(clamped_curv(tensors["log_curv"])))
    return np.vstack([
        space.lift(np.asarray(encoder_forward(tensors, latents, mod, cfg.hidden_dim)),
                   np.exp(tensors[f"log_scale_{mod}"]))
        for latents, mod in ((txt_latents, "txt"), (img_latents, "img"))
    ])


BLOCKED_CONFIGS = {    # name: (config fields, multiply-adds per row in the smaller product)
    "lorentz": (dict(depth=2, branching=2, latent_dim=8, embed_dim=6), 48),
    "sphere": (dict(depth=2, branching=2, latent_dim=8, embed_dim=6, space="sphere"), 48),
    "hidden": (dict(depth=2, branching=2, latent_dim=8, embed_dim=6, hidden_dim=5), 30),
}


def perturbed_tensors(cfg):
    """A run's tensors with every entry moved, biases included, so each
    term of the encoders shows in the bits."""
    rng = np.random.default_rng(cfg.seed)
    return {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in init_tensors(cfg).items()}


def assert_index_is_whole_set(cfg, per_leaf=None):
    tensors = perturbed_tensors(cfg)
    tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
    want = whole_set_vectors(tensors, cfg, tree, per_leaf or cfg.held_out_per_leaf)
    index = build_embedding_index(tensors, cfg, tree, per_leaf)
    assert index.vectors.shape == want.shape
    assert np.array_equal(index.vectors, want)


class TestBlockedIndex:
    # 4 leaves, so 4 to 28 held-out rows: below, at and above a multiple
    # of each block height.  A one-row block is left out: numpy multiplies
    # it by gemv, and EMBED_BLOCK never makes a block that short.
    @pytest.mark.parametrize("name", BLOCKED_CONFIGS)
    @pytest.mark.parametrize("rows", [2, 3, 7])
    @pytest.mark.parametrize("per_leaf", [1, 2, 3, 4, 7])
    def test_equals_whole_set_bit_for_bit(self, monkeypatch, name, rows, per_leaf):
        fields, madds = BLOCKED_CONFIGS[name]
        monkeypatch.setattr(trainer, "EMBED_BLOCK", rows * madds)
        assert_index_is_whole_set(TrainConfig(seed=3, held_out_per_leaf=per_leaf, **fields))

    # Output widths 2 and 3 from latent width 32: OpenBLAS rounds these
    # differently in products of at most 10^6 multiply-adds and in the
    # last (height mod 4) rows of one, so a fixed 8,192-row blocking
    # changes bits.  400 rows are one block; 66,000 and 88,004 rows are
    # one to four.
    @pytest.mark.parametrize("fields", [
        dict(latent_dim=32, embed_dim=2),
        dict(latent_dim=32, embed_dim=3, space="sphere"),
        dict(latent_dim=32, hidden_dim=3, embed_dim=16),
    ])
    @pytest.mark.parametrize("per_leaf", [100, 16_500, 22_001])
    def test_narrow_widths_keep_whole_set_bits(self, fields, per_leaf):
        assert_index_is_whole_set(TrainConfig(seed=5, depth=2, branching=2, **fields), per_leaf)

    def test_whole_set_temporaries_are_gone(self):
        # 64 leaves x 782 images = 50,048 rows, twelve blocks.  The index
        # is 50,069 x 16 float64 (6.4 MB) and a block's latents 1-2 MB; the
        # whole-set algorithm holds two 12.8 MB latent arrays at once.
        bound = 16 * 2**20
        cfg = TrainConfig(seed=7, held_out_per_leaf=782)
        tensors = init_tensors(cfg)
        tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
        peaks = []
        for build in (lambda: build_embedding_index(tensors, cfg, tree).vectors,
                      lambda: whole_set_vectors(tensors, cfg, tree, cfg.held_out_per_leaf)):
            tracemalloc.start()
            try:
                vectors = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert vectors.shape == (50_069, 16)
        blocked, whole = peaks
        assert blocked < bound < whole, (blocked, whole)
        assert np.array_equal(build_embedding_index(tensors, cfg, tree).vectors,
                              whole_set_vectors(tensors, cfg, tree, cfg.held_out_per_leaf))


class TestEncoderInit:
    def test_expected_unit_norm_after_scale(self):
        cfg = TrainConfig(seed=0, **TINY)
        tensors = init_tensors(cfg)
        from hycone.hierarchy import PairSampler, generate_tree

        tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
        batch = PairSampler(tree, cfg.seed).next_batch(8)
        rows = np.asarray(encoder_forward(tensors, batch.image_latents, "img", 0))
        scaled = rows * np.exp(float(tensors["log_scale_img"]))
        mean_norm = np.linalg.norm(scaled, axis=1).mean()
        assert 0.3 < mean_norm < 3.0


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        cfg = TrainConfig(seed=11, **TINY)
        chk = train(cfg)
        path = save_checkpoint(chk, tmp_path / "c.bin")
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.clamp_hits == chk.clamp_hits
        for k, v in chk.tensors.items():
            assert np.array_equal(loaded.tensors[k], v)

    def test_loss_params_survive_roundtrip(self, tmp_path):
        cfg = TrainConfig(seed=11, cone_boundary=0.25, entail_weight=0.35, **TINY)
        chk = train(cfg)
        loaded = load_checkpoint(save_checkpoint(chk, tmp_path / "c.bin"))
        want, got = chk.loss_params(), loaded.loss_params()
        assert (loaded.config.trained_entail_weight, loaded.config.cone_boundary) == (0.35, 0.25)
        for f in dataclasses.fields(LossParams):
            assert getattr(got, f.name) == getattr(want, f.name), f.name

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    @pytest.mark.parametrize("cfg_json, match", [
        (b'{"batch_size":8,"stepz":30}', "unknown checkpoint config key 'stepz'"),
        (b'[1, 2]', "not a JSON object"),
    ])
    def test_bad_config_json_is_value_error(self, tmp_path, cfg_json, match):
        p = tmp_path / "c.bin"
        p.write_bytes(b"HYEC" + (1).to_bytes(4, "little") + len(cfg_json).to_bytes(4, "little")
                      + cfg_json)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(p)

    def test_retired_config_keys_are_dropped(self, tmp_path):
        # The config JSON a checkpoint held while the initial tau and
        # curvature and AdamW's betas and epsilon were settings.
        cfg = TrainConfig()
        chk = trainer.Checkpoint(config=cfg, tensors=init_tensors(cfg), curve=np.zeros((0, 7)),
                                 clamp_hits={"tau": 0, "curv": 0})
        raw = checkpoint_bytes(chk)
        old = json.dumps({**dataclasses.asdict(cfg), "tau_init": 0.07, "curv_init": 1.0,
                          "betas": [0.9, 0.98], "adam_eps": 1e-8},
                         sort_keys=True, separators=(",", ":")).encode("utf-8")
        n = int.from_bytes(raw[8:12], "little")
        (tmp_path / "old.bin").write_bytes(raw[:8] + len(old).to_bytes(4, "little") + old + raw[12 + n:])
        loaded = load_checkpoint(tmp_path / "old.bin")
        assert loaded.config == TrainConfig()
        for k, v in chk.tensors.items():
            assert loaded.tensors[k].tobytes() == v.tobytes()

    def test_curve_csv_header(self):
        chk = train(TrainConfig(seed=11, **TINY))
        text = curve_csv(chk.curve)
        assert text.splitlines()[0] == "step,contrastive,entailment,total,lr,tau,c"
        assert len(text.splitlines()) == 31


class TestAtomicWrites:
    def test_failed_replace_keeps_previous_bytes(self, tmp_path, monkeypatch):
        chk = train(TrainConfig(seed=11, **TINY))
        paths = (save_checkpoint(chk, tmp_path / "c.bin"), save_curve(chk.curve, tmp_path / "curve.csv"))
        before = [p.read_bytes() for p in paths]

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(dumpio.os, "replace", fail)
        changed = replace(chk, clamp_hits={"tau": 1, "curv": 2})
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(changed, paths[0])
        with pytest.raises(OSError, match="disk full"):
            save_curve(chk.curve[:3], paths[1])
        assert [p.read_bytes() for p in paths] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin", "curve.csv"]
