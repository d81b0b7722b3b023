"""Desk-scale deterministic trainer on synthetic concept trees.

Two small encoders (affine, or one tanh hidden layer) map text/image
latents to pre-lift embeddings; the objective, its gradients (reverse
tape) and the AdamW updates run in 64-bit floats end to end, so a fixed
config and seed reproduce checkpoints bit for bit.

The learning rate warms up linearly, then follows cosine decay to zero.
Weight decay is decoupled and disabled for biases and the learnable
scalars.  The spherical baseline trains on identical data with unit-norm
embeddings and cosine logits.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .analysis import EmbeddingIndex, Labels
from .autodiff import Tape
from .hierarchy import ConceptTree, PairSampler, generate_tree, held_out_images
from .losses import (
    ENTAIL_WEIGHT_DEFAULT,
    LossParams,
    SimilarityMode,
    clamped_curv,
    clamped_inv_temp,
    lift_rows,
    normalize_rows,
    objective,
)

SPACES = ("lorentz", "sphere")
CURVE_COLUMNS = ("step", "contrastive", "entailment", "total", "lr", "tau", "c")


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class TrainConfig:
    batch_size: int = 64
    steps: int = 2000
    warmup: int = 100
    peak_lr: float = 5e-4
    weight_decay: float = 0.2
    seed: int = 0
    no_entailment: bool = False
    fixed_curvature: bool = False
    inner_product_logits: bool = False
    space: str = "lorentz"
    depth: int = 3
    branching: int = 4
    latent_dim: int = 32
    embed_dim: int = 16
    noise: float = 0.1
    hidden_dim: int = 0
    entail_weight: float = ENTAIL_WEIGHT_DEFAULT
    cone_boundary: float = 0.1
    tau_init: float = 0.07
    curv_init: float = 1.0
    betas: tuple[float, float] = (0.9, 0.98)
    adam_eps: float = 1e-8
    held_out_per_leaf: int = 4

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        if not (0 <= self.warmup < self.steps):
            raise ValueError("need 0 <= warmup < steps")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")

    def mode(self) -> SimilarityMode:
        if self.space == "sphere":
            return SimilarityMode.COSINE
        if self.inner_product_logits:
            return SimilarityMode.LORENTZ_INNER
        return SimilarityMode.NEG_LORENTZ_DISTANCE

    def effective_entail_weight(self) -> float:
        if self.no_entailment or self.space == "sphere":
            return 0.0
        return self.entail_weight


def reference_config(seed: int = 7, space: str = "lorentz") -> TrainConfig:
    """The documented reference experiment (depth 3, branching 4, n=16)."""
    return TrainConfig(seed=seed, space=space)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

@dataclass
class EncoderParams:
    """All trainable tensors: two encoder maps plus the loss scalars."""

    tensors: dict[str, np.ndarray]
    hidden_dim: int = 0
    entail_weight: float = ENTAIL_WEIGHT_DEFAULT
    cone_boundary: float = 0.1

    @classmethod
    def init(cls, config: TrainConfig) -> "EncoderParams":
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
        n, latent, hidden = config.embed_dim, config.latent_dim, config.hidden_dim
        # Gains target unit-variance encoder outputs on tree latents, so
        # rows have expected unit norm once the 1/sqrt(n) scale applies:
        # image latents carry ~depth + noise^2*latent_dim squared norm,
        # text latents (uniform over the ancestor chain) ~(depth-1)/2.
        img_sq = config.depth + config.noise**2 * latent
        txt_sq = max((config.depth - 1) / 2.0, 0.5)
        tensors: dict[str, np.ndarray] = {}
        for modality, in_sq in (("img", img_sq), ("txt", txt_sq)):
            gain = 1.0 / np.sqrt(in_sq)
            if hidden > 0:
                tensors[f"{modality}_w1"] = gain * rng.standard_normal((latent, hidden))
                tensors[f"{modality}_b1"] = np.zeros(hidden)
                tensors[f"{modality}_w2"] = rng.standard_normal((hidden, n)) / np.sqrt(hidden)
                tensors[f"{modality}_b2"] = np.zeros(n)
            else:
                tensors[f"{modality}_w"] = gain * rng.standard_normal((latent, n))
                tensors[f"{modality}_b"] = np.zeros(n)
        lp = LossParams.init(n, tau=config.tau_init, curv=config.curv_init)
        tensors["log_inv_temp"] = np.asarray(lp.log_inv_temp)
        tensors["log_curv"] = np.asarray(lp.log_curv)
        tensors["log_scale_img"] = np.asarray(lp.log_scale_img)
        tensors["log_scale_txt"] = np.asarray(lp.log_scale_txt)
        return cls(
            tensors=tensors,
            hidden_dim=hidden,
            entail_weight=config.entail_weight,
            cone_boundary=config.cone_boundary,
        )

    def loss_params(self) -> LossParams:
        t = self.tensors
        return LossParams(
            log_inv_temp=float(t["log_inv_temp"]),
            log_curv=float(t["log_curv"]),
            log_scale_img=float(t["log_scale_img"]),
            log_scale_txt=float(t["log_scale_txt"]),
            entail_weight=self.entail_weight,
            cone_boundary=self.cone_boundary,
        )

    def fold_scales(self) -> "EncoderParams":
        """Absorb exp(log_scale) into each encoder's final affine map.

        Lifted embeddings are unchanged: scaling commutes with the affine
        output before the exponential map.
        """
        t = {k: v.copy() for k, v in self.tensors.items()}
        for modality in ("img", "txt"):
            alpha = float(np.exp(t[f"log_scale_{modality}"]))
            wkey = f"{modality}_w2" if self.hidden_dim > 0 else f"{modality}_w"
            bkey = f"{modality}_b2" if self.hidden_dim > 0 else f"{modality}_b"
            t[wkey] = t[wkey] * alpha
            t[bkey] = t[bkey] * alpha
            t[f"log_scale_{modality}"] = np.asarray(0.0)
        return replace(self, tensors=t)


def encoder_forward(tensors, latents, modality: str, hidden_dim: int):
    """Encode latent rows; `tensors` may hold arrays or tape nodes."""
    if hidden_dim > 0:
        h = ad.matmul(latents, tensors[f"{modality}_w1"]) + tensors[f"{modality}_b1"]
        return ad.matmul(ad.tanh(h), tensors[f"{modality}_w2"]) + tensors[f"{modality}_b2"]
    return ad.matmul(latents, tensors[f"{modality}_w"]) + tensors[f"{modality}_b"]


# ---------------------------------------------------------------------------
# Learning-rate schedule and AdamW
# ---------------------------------------------------------------------------

def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup to the peak, then cosine decay to zero."""
    if not (0 <= step <= config.steps):
        raise ValueError(f"step {step} outside [0, {config.steps}]")
    if step < config.warmup:
        return config.peak_lr * step / config.warmup
    progress = (step - config.warmup) / (config.steps - config.warmup)
    return config.peak_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def default_decay_mask(params: dict[str, np.ndarray]) -> dict[str, bool]:
    """Decay weight matrices only; biases and learnable scalars are exempt."""
    return {k: p.ndim >= 2 for k, p in params.items()}


def adamw_step(params, grads, state: AdamState, lr: float,
               betas: tuple[float, float] = (0.9, 0.98), weight_decay: float = 0.2,
               eps: float = 1e-8, decay_mask: dict[str, bool] | None = None,
               ) -> tuple[dict[str, np.ndarray], AdamState]:
    """One decoupled-weight-decay Adam update; pure (returns new dicts)."""
    if decay_mask is None:
        decay_mask = default_decay_mask(params)
    b1, b2 = betas
    t = state.step + 1
    new_p, new_m, new_v = {}, {}, {}
    for k in sorted(params):
        g = np.asarray(grads[k], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {k!r}")
        m = b1 * state.m[k] + (1.0 - b1) * g
        v = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        if decay_mask.get(k, False):
            p = p - lr * weight_decay * params[k]
        # 0-d arithmetic yields numpy scalars; keep tensors as ndarray
        new_p[k], new_m[k], new_v[k] = np.asarray(p), np.asarray(m), np.asarray(v)
    return new_p, AdamState(step=t, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: TrainConfig
    encoder: EncoderParams
    curve: np.ndarray            # steps x len(CURVE_COLUMNS)
    clamp_hits: dict[str, int]
    index: EmbeddingIndex | None = None


def train(config: TrainConfig) -> Checkpoint:
    """Run the full training loop; deterministic for a fixed config."""
    tree = generate_tree(
        config.depth, config.branching, config.latent_dim, config.noise, config.seed
    )
    sampler = PairSampler(tree, config.seed)
    enc = EncoderParams.init(config)
    params = enc.tensors
    state = AdamState.zeros(params)
    decay_mask = default_decay_mask(params)
    mode = config.mode()
    lam = config.effective_entail_weight()
    frozen = {"log_curv"} if config.fixed_curvature else set()

    curve = np.zeros((config.steps, len(CURVE_COLUMNS)))
    clamp_hits = {"tau": 0, "curv": 0}
    for step in range(config.steps):
        batch = sampler.next_batch(config.batch_size)
        tape = Tape()
        tvars = {
            k: (tape.const(v) if k in frozen else tape.var(v)) for k, v in params.items()
        }
        with np.errstate(all="ignore"):
            img_rows = encoder_forward(tvars, batch.image_latents, "img", config.hidden_dim)
            txt_rows = encoder_forward(tvars, batch.text_latents, "txt", config.hidden_dim)
            total, cont, ent = objective(
                img_rows,
                txt_rows,
                tvars["log_inv_temp"],
                tvars["log_curv"],
                tvars["log_scale_img"],
                tvars["log_scale_txt"],
                mode=mode,
                entail_weight=lam,
                cone_boundary=config.cone_boundary,
                space=config.space,
            )
            total_v = float(total.value)
            if not np.isfinite(total_v):
                raise DivergenceError(f"non-finite loss at step {step}")
            grads_by_id = tape.backward(total)

        live = {k: v for k, v in params.items() if k not in frozen}
        grads = {k: grads_by_id[tvars[k].idx] for k in live}
        lr = lr_at(step, config)
        with np.errstate(all="ignore"):   # runaway params surface as divergence
            updated, state = adamw_step(
                live, grads, state, lr,
                betas=config.betas, weight_decay=config.weight_decay,
                eps=config.adam_eps, decay_mask=decay_mask,
            )
        params = {**params, **updated}

        tau_raw = float(np.exp(params["log_inv_temp"]))
        curv_raw = float(np.exp(params["log_curv"]))
        if tau_raw > 100.0:
            clamp_hits["tau"] += 1
        if not (0.1 <= curv_raw <= 10.0):
            clamp_hits["curv"] += 1
        inv_t = float(np.asarray(clamped_inv_temp(params["log_inv_temp"])))
        tau_eff = 1.0 / inv_t if inv_t > 0.0 else float("inf")
        c_eff = float(np.asarray(clamped_curv(params["log_curv"])))
        curve[step] = (
            step,
            float(np.asarray(ad.value_of(cont))),
            float(np.asarray(ad.value_of(ent))),
            total_v,
            lr,
            tau_eff,
            c_eff,
        )

    enc = replace(enc, tensors=params)
    index = build_embedding_index(enc, config, tree)
    return Checkpoint(config=config, encoder=enc, curve=curve, clamp_hits=clamp_hits, index=index)


def build_embedding_index(enc: EncoderParams, config: TrainConfig,
                          tree: ConceptTree | None = None,
                          held_out_per_leaf: int | None = None) -> EmbeddingIndex:
    """Embed all text concept nodes plus a held-out image set."""
    if tree is None:
        tree = generate_tree(
            config.depth, config.branching, config.latent_dim, config.noise, config.seed
        )
    per_leaf = config.held_out_per_leaf if held_out_per_leaf is None else held_out_per_leaf
    txt_latents = np.stack([tree.nodes[i].latent for i in tree.internal])
    txt_labels = [("text", tree.nodes[i].path) for i in tree.internal]
    img_latents, img_names = held_out_images(tree, per_leaf, config.seed)

    txt_rows = np.asarray(encoder_forward(enc.tensors, txt_latents, "txt", config.hidden_dim))
    img_rows = np.asarray(encoder_forward(enc.tensors, img_latents, "img", config.hidden_dim))
    if config.space == "sphere":
        vectors = np.vstack([normalize_rows(txt_rows), normalize_rows(img_rows)])
        curvature = None
    else:
        c = float(np.asarray(clamped_curv(enc.tensors["log_curv"])))
        txt_sp, _ = lift_rows(txt_rows, enc.tensors["log_scale_txt"], c)
        img_sp, _ = lift_rows(img_rows, enc.tensors["log_scale_img"], c)
        vectors = np.vstack([np.asarray(txt_sp), np.asarray(img_sp)])
        curvature = c
    return EmbeddingIndex(
        space=config.space,
        curvature=curvature,
        vectors=vectors,
        labels=Labels.from_pairs(chain(txt_labels, zip(repeat("image"), img_names))),
    )


# ---------------------------------------------------------------------------
# Persistence: checkpoint container and loss-curve CSV
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"HYEC"
CHECKPOINT_VERSION = 1


def _config_json(config: TrainConfig) -> bytes:
    d = asdict(config)
    d["betas"] = list(d["betas"])
    return json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")


def checkpoint_bytes(chk: Checkpoint) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = _config_json(chk.config)
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    tensors = chk.encoder.tensors
    buf.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        # np.asarray keeps 0-d scalars 0-d (ascontiguousarray would not)
        arr = np.asarray(tensors[name], dtype="<f8")
        nm = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nm)))
        buf.write(nm)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(arr.tobytes())
    meta = json.dumps(
        {"clamp_hits": chk.clamp_hits}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    return buf.getvalue()


def save_checkpoint(chk: Checkpoint, path) -> Path:
    path = Path(path)
    path.write_bytes(checkpoint_bytes(chk))
    return path


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"truncated checkpoint at offset {off}")
        out = raw[off:off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic at offset 0")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    cfg = json.loads(take(cfg_len).decode("utf-8"))
    if not isinstance(cfg, dict):
        raise ValueError("checkpoint config is not a JSON object")
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown checkpoint config key {unknown[0]!r}")
    try:
        if "betas" in cfg:
            cfg["betas"] = tuple(cfg["betas"])
        config = TrainConfig(**cfg)
    except TypeError as exc:    # a value of the wrong type
        raise ValueError(f"bad checkpoint config: {exc}") from exc
    (n_tensors,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (nm_len,) = struct.unpack("<H", take(2))
        name = take(nm_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        n_items = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape).copy()
        tensors[name] = arr if ndim else arr.reshape(())
    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(take(meta_len).decode("utf-8"))
    enc = EncoderParams(
        tensors=tensors,
        hidden_dim=config.hidden_dim,
        entail_weight=config.entail_weight,
        cone_boundary=config.cone_boundary,
    )
    return Checkpoint(
        config=config,
        encoder=enc,
        curve=np.zeros((0, len(CURVE_COLUMNS))),
        clamp_hits=meta["clamp_hits"],
    )


def curve_csv(curve: np.ndarray) -> str:
    lines = [",".join(CURVE_COLUMNS)]
    for row in curve:
        lines.append(
            f"{int(row[0])}," + ",".join(repr(float(v)) for v in row[1:])
        )
    return "\n".join(lines) + "\n"


def save_curve(curve: np.ndarray, path) -> Path:
    path = Path(path)
    path.write_text(curve_csv(curve), encoding="utf-8")
    return path
