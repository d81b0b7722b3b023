"""The closed-form objective gradient the trainer runs, against the reverse
tape that stays its oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from hycone import autodiff as ad
from hycone import trainer
from hycone.autodiff import Tape
from hycone.geometry import CURV_MAX, CURV_MIN
from hycone.hierarchy import PairSampler, generate_tree
from hycone.losses import (
    INV_TEMP_MAX, SimilarityMode, objective, objective_grad, objective_workspace,
)
from hycone.trainer import (
    AdamState, ParamVector, TrainConfig, encoder_forward, init_tensors, train, train_step,
)

TINY = dict(batch_size=8, steps=30, warmup=3, depth=2, branching=3,
            latent_dim=8, embed_dim=8, held_out_per_leaf=2)
MODE_CONFIG = {
    SimilarityMode.NEG_LORENTZ_DISTANCE: {},
    SimilarityMode.LORENTZ_INNER: {"inner_product_logits": True},
    SimilarityMode.COSINE: {"space": "sphere"},
}


def first_batch(cfg):
    tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
    return PairSampler(tree, cfg.seed).next_batch(cfg.batch_size)


def tape_gradients(params, batch, cfg, lam):
    """((total, contrastive, entailment), grads) of one training step on the
    reverse tape: the trainer's encoders and objective on tape nodes.  Under
    fixed curvature the curvature's gradient is zero."""
    tape = Tape()
    tvars = {k: tape.var(v) for k, v in params.items()}
    img_rows = trainer.encoder_forward(tvars, batch.image_latents, "img", cfg.hidden_dim)
    txt_rows = trainer.encoder_forward(tvars, batch.text_latents, "txt", cfg.hidden_dim)
    terms = trainer.objective(
        img_rows, txt_rows,
        tvars["log_inv_temp"], tvars["log_curv"], tvars["log_scale_img"], tvars["log_scale_txt"],
        mode=cfg.mode(), entail_weight=lam, cone_boundary=cfg.cone_boundary,
    )
    grads_by_id = tape.backward(terms[0])
    grads = {k: grads_by_id[v.idx] for k, v in tvars.items()}
    if cfg.fixed_curvature:
        grads["log_curv"] = np.zeros(())
    return tuple(float(np.asarray(ad.value_of(x))) for x in terms), grads


@pytest.mark.parametrize("batch_size", [3, 4, 64])
@pytest.mark.parametrize("hidden_dim", [0, 8])
@pytest.mark.parametrize("lam", [0.0, 0.2])
@pytest.mark.parametrize("mode", list(MODE_CONFIG), ids=lambda m: m.value)
def test_step_gradient_matches_tape(mode, lam, hidden_dim, batch_size):
    cfg = TrainConfig(seed=3, batch_size=batch_size, hidden_dim=hidden_dim, **MODE_CONFIG[mode])
    batch = first_batch(cfg)
    # Move every tensor off its initial value, where biases are zero and
    # the root concept's text row sits at the origin (see below).
    rng = np.random.default_rng(batch_size + hidden_dim)
    params = {k: v + 0.05 * rng.standard_normal(v.shape)
              for k, v in init_tensors(cfg).items()}
    img_rows = encoder_forward(params, batch.image_latents, "img", hidden_dim)
    txt_rows = encoder_forward(params, batch.text_latents, "txt", hidden_dim)

    tape_terms, tape_grads = tape_gradients(params, batch, cfg, lam)
    terms, grads = trainer._closed_form_gradients(params, batch, cfg, lam, img_rows, txt_rows)
    # To the bit: the layout of each returned row gradient, which decides
    # the order of the encoder's sums, must be the tape's too.
    assert terms == tape_terms
    assert sorted(grads) == sorted(tape_grads)
    for k, g in tape_grads.items():
        np.testing.assert_array_equal(grads[k], g, err_msg=k)


@pytest.mark.parametrize("extra", [
    {}, {"no_entailment": True}, {"fixed_curvature": True}, {"inner_product_logits": True},
    {"space": "sphere"}, {"hidden_dim": 12},
], ids=lambda e: ",".join(e) or "reference")
def test_train_matches_tape_only_loop(monkeypatch, extra):
    cfg = TrainConfig(seed=11, **TINY, **extra)
    calls = []
    real_objective = trainer.objective

    def counted(*args, **kwargs):
        calls.append(1)
        return real_objective(*args, **kwargs)

    monkeypatch.setattr(trainer, "objective", counted)
    chk = train(cfg)
    assert not calls                    # the closed form never builds a tape
    # Every step through the tape: the loop the trainer ran before the closed form.
    def on_tape(params, batch, config, lam, img_rows, txt_rows, workspace):
        return tape_gradients(params, batch, config, lam)

    monkeypatch.setattr(trainer, "_closed_form_gradients", on_tape)
    ref = train(cfg)
    assert len(calls) == cfg.steps

    np.testing.assert_allclose(chk.curve, ref.curve, rtol=1e-12, atol=1e-12)
    assert chk.clamp_hits == ref.clamp_hits
    assert sorted(chk.tensors) == sorted(ref.tensors)
    for k, v in ref.tensors.items():
        np.testing.assert_allclose(chk.tensors[k], v, rtol=0, atol=1e-12, err_msg=k)
    np.testing.assert_allclose(chk.index.vectors, ref.index.vectors, rtol=0, atol=1e-12)


@pytest.mark.parametrize("hidden_dim", [0, 8])
def test_apex_at_origin_gradient_equals_tape(hidden_dim):
    # At initialisation the root concept's text row sits at the origin,
    # where the cone is undefined.  The tape's text-bias gradient there is
    # ~1e147, and d/dlog_curv is what is left after such terms cancel; the
    # closed form adds them in the tape's order and gets the same numbers.
    cfg = TrainConfig(seed=11, **TINY, hidden_dim=hidden_dim)
    batch = first_batch(cfg)
    assert 0 in batch.text_nodes        # the root concept: zero latent, zero bias
    params = init_tensors(cfg)
    img_rows = encoder_forward(params, batch.image_latents, "img", hidden_dim)
    txt_rows = encoder_forward(params, batch.text_latents, "txt", hidden_dim)

    tape_terms, tape_grads = tape_gradients(params, batch, cfg, cfg.entail_weight)
    terms, grads = trainer._closed_form_gradients(
        params, batch, cfg, cfg.entail_weight, img_rows, txt_rows
    )
    assert np.max(np.abs(tape_grads["txt_b" if hidden_dim == 0 else "txt_b2"])) > 1e100
    assert terms == tape_terms
    assert sorted(grads) == sorted(tape_grads)
    for k, g in tape_grads.items():
        np.testing.assert_array_equal(grads[k], g, err_msg=k)


def objective_inputs(mode, batch_size, seed):
    """Encoder output rows and log scalars of a first training step, moved
    off their initial values."""
    cfg = TrainConfig(seed=seed, batch_size=batch_size, **MODE_CONFIG[mode])
    batch = first_batch(cfg)
    rng = np.random.default_rng(seed)
    params = {k: v + 0.05 * rng.standard_normal(v.shape)
              for k, v in init_tensors(cfg).items()}
    rows = [encoder_forward(params, lat, m, 0)
            for m, lat in (("img", batch.image_latents), ("txt", batch.text_latents))]
    scalars = [params[k] for k in ("log_inv_temp", "log_curv", "log_scale_img", "log_scale_txt")]
    return rows + scalars


def assert_same_bits(a, b):
    """Equal (total, contrastive, entailment, grads), floats by float.hex."""
    assert [float.hex(float(x)) for x in a[:3]] == [float.hex(float(x)) for x in b[:3]]
    assert list(a[3]) == list(b[3])
    for k in a[3]:
        if np.ndim(a[3][k]):
            assert np.array_equal(a[3][k], b[3][k]), k
        else:
            assert float.hex(float(a[3][k])) == float.hex(float(b[3][k])), k


def _ulp(x, direction):
    return float(np.nextafter(x, direction))


LOG_TAU_MAX, LOG_C_MIN, LOG_C_MAX = map(math.log, (INV_TEMP_MAX, CURV_MIN, CURV_MAX))
# Scalar values on and around each clamp: exp(log 100) and exp(log 10)
# round just above their bound and exp(log 0.1) just above its, so each
# bound is probed at its log, one ulp to either side, and well past it.
CLAMP_EDGES = {
    "tau-at": ("log_inv_temp", LOG_TAU_MAX),
    "tau-past": ("log_inv_temp", LOG_TAU_MAX + 1.0),
    "tau-ulp-inside": ("log_inv_temp", _ulp(LOG_TAU_MAX, -np.inf)),
    **{f"curv-{bound}-{where}": ("log_curv", value)
       for bound, log_c, inside in (("min", LOG_C_MIN, np.inf), ("max", LOG_C_MAX, -np.inf))
       for where, value in (("at", log_c),
                            ("ulp-inside", _ulp(log_c, inside)),
                            ("ulp-outside", _ulp(log_c, -inside)),
                            ("inside", log_c + math.copysign(0.5, inside)),
                            ("outside", log_c - math.copysign(0.5, inside)))},
}


@pytest.mark.parametrize("edge", list(CLAMP_EDGES))
@pytest.mark.parametrize("mode", list(MODE_CONFIG), ids=lambda m: m.value)
def test_clamp_edges_equal_tape(mode, edge):
    # The other tests move the scalars 0.05 off their initial values, where
    # no clamp is hit; here tau and c sit on, beside and past their clamps,
    # where the closed form's Python-float clamps and masks must give the
    # tape's (np.clip, strict-inequality mask) bits.
    name, value = CLAMP_EDGES[edge]
    inputs = objective_inputs(mode, 8, seed=4)
    inputs[2 + ("log_inv_temp", "log_curv").index(name)] = np.asarray(value)
    kw = dict(mode=mode, entail_weight=0.2, cone_boundary=0.1)
    tape = Tape()
    tvars = [tape.var(np.asarray(x, dtype=np.float64)) for x in inputs]
    terms = objective(*tvars, **kw)
    by_id = tape.backward(terms[0])
    total, cont, ent, grads = objective_grad(*inputs, **kw)

    assert [total, cont, ent] == [float(np.asarray(ad.value_of(t))) for t in terms]
    names = ("img_rows", "txt_rows", "log_inv_temp", "log_curv", "log_scale_img", "log_scale_txt")
    for k, v in zip(names, tvars):
        np.testing.assert_array_equal(grads[k], by_id[v.idx], err_msg=k)
    e = float(np.exp(value))
    if name == "log_inv_temp":
        assert (grads[name] == 0.0) == (e > INV_TEMP_MAX)
    elif mode is not SimilarityMode.COSINE:
        assert (grads[name] == 0.0) == (not CURV_MIN < e < CURV_MAX)


@pytest.mark.parametrize("batch_size", [4, 64])
@pytest.mark.parametrize("lam", [0.0, 0.2])
@pytest.mark.parametrize("mode", list(MODE_CONFIG), ids=lambda m: m.value)
def test_workspace_gives_same_bits(mode, lam, batch_size):
    inputs = objective_inputs(mode, batch_size, seed=5)
    kw = dict(mode=mode, entail_weight=lam, cone_boundary=0.1)
    fresh = objective_grad(*inputs, **kw)
    workspace = np.full_like(objective_workspace(batch_size), np.nan)   # contents are ignored
    held = objective_grad(*inputs, **kw, workspace=workspace)
    assert_same_bits(held, fresh)
    assert_same_bits(objective_grad(*inputs, **kw, workspace=workspace), fresh)


@pytest.mark.parametrize("mode", list(MODE_CONFIG), ids=lambda m: m.value)
def test_results_do_not_alias_workspace(mode):
    workspace = objective_workspace(16)
    kw = dict(mode=mode, entail_weight=0.2, cone_boundary=0.1, workspace=workspace)
    first = objective_grad(*objective_inputs(mode, 16, seed=1), **kw)
    kept = (first[:3], {k: np.copy(v) for k, v in first[3].items()})
    for g in first[3].values():
        assert not np.shares_memory(g, workspace)
    objective_grad(*objective_inputs(mode, 16, seed=2), **kw)
    assert_same_bits(first, (*kept[0], kept[1]))


def test_train_step_with_workspace_allocates_no_bxb_matrix():
    b = 256
    cfg = TrainConfig(seed=3, **{**TINY, "batch_size": b})
    batch = first_batch(cfg)
    params = ParamVector.of(init_tensors(cfg))
    state = AdamState.zeros(params)
    workspace = objective_workspace(b)
    train_step(params, state, batch, cfg, 1, workspace)     # warm up lazy set-up
    tracemalloc.start()
    try:
        train_step(params, state, batch, cfg, 1, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One bool mask (1/8 of a matrix) and B x n rows; a step allocated
    # about nine B x B float64 matrices without the held workspace.
    assert peak < 2 * b * b * 8
