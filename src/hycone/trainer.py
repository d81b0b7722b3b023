"""Desk-scale deterministic trainer on synthetic concept trees.

Two small encoders (affine, or one tanh hidden layer) map text/image
latents to pre-lift embeddings; the objective, its gradients and the AdamW
updates run in 64-bit floats end to end, so a fixed config and seed
reproduce checkpoints bit for bit.

`train` loops over the pure `train_step`.  A step takes its gradient in
closed form (`losses.objective_grad`, then `encoder_backward`).  The
reverse tape stays the oracle: `encoder_forward` on tape nodes followed by
`objective` records the same step's graph, and tests and `gradcheck`
check the closed form against it.

The learning rate warms up linearly, then follows cosine decay to zero.
Weight decay is decoupled and disabled for biases and the learnable
scalars.  The spherical baseline trains on identical data with unit-norm
embeddings and cosine logits.
"""

from __future__ import annotations

import io
import json
import math
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .analysis import EmbeddingIndex, Labels, space_of
from .dumpio import atomic_write
from .entailment import CONE_BOUNDARY
from .geometry import CURV_MAX, CURV_MIN
from .hierarchy import (
    MAX_BATCH_SIZE, MAX_DIM, MAX_STEPS, ConceptTree, PairBatch, PairSampler, generate_tree,
    held_out_count, held_out_images, tree_node_count,
)
from .losses import (
    ENTAIL_WEIGHT_DEFAULT,
    INV_TEMP_MAX,
    LossParams,
    SimilarityMode,
    clamped_curv,
    curv_read,
    inv_temp_read,
    objective,  # noqa: F401  the tape oracle's step objective; bench/spec.py traces it here
    objective_grad,
    objective_workspace,
)

SPACES = ("lorentz", "sphere")
CURVE_COLUMNS = ("step", "contrastive", "entailment", "total", "lr", "tau", "c")
# AdamW's moment decay rates and denominator floor, as in MERU.
ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8
# Multiply-adds of each encoder product per block of held-out images (a
# module constant, not a flag): 4,096 to 8,191 rows at latent width 32
# and embedding width 16.  At some output widths numpy's OpenBLAS rounds
# a product of at most 10^6 multiply-adds (its small-matrix kernel)
# differently from a larger one, and the last (height mod 4) rows of
# such a product differently again.  A set smaller than a block is one
# block and every other block is above 10^6, so each row gets the bits
# the whole-set product gives it.  The narrower the layers, the taller
# the block: its latents are under 2^25 * latent_dim / (multiply-adds
# per row) bytes, and the whole set when that exceeds it.
EMBED_BLOCK = 2**21


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


# TrainConfig's scalar float fields: (what each is, whether it must be
# strictly positive rather than non-negative).  Every one must be finite.
_FLOAT_FIELDS = {
    "peak_lr": ("peak learning rate", True),
    "weight_decay": ("weight decay", False),
    "noise": ("latent noise", False),
    "entail_weight": ("entailment weight", False),
    "cone_boundary": ("cone boundary", True),
}


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
    cone_boundary: float = CONE_BOUNDARY
    held_out_per_leaf: int = 4

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            # A bool is never a number here, and an int is a float.
            if isinstance(value, bool) != (kind is bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise TypeError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        if not (0 <= self.warmup < self.steps):
            raise ValueError("need 0 <= warmup < steps")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {self.steps}")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(f"batch size must be <= {MAX_BATCH_SIZE}, got {self.batch_size}")
        for name, (what, positive) in _FLOAT_FIELDS.items():
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
                bound = "> 0" if positive else ">= 0"
                raise ValueError(f"{what} ({name}) must be finite and {bound}, got {value!r}")
        if self.embed_dim < 1 or self.hidden_dim < 0:
            raise ValueError("need embed_dim >= 1 and hidden_dim >= 0")
        for name in ("latent_dim", "embed_dim", "hidden_dim"):
            if getattr(self, name) > MAX_DIM:
                raise ValueError(f"{name} must be <= {MAX_DIM}, got {getattr(self, name)}")
        tree_node_count(self.depth, self.branching)    # bounds the power below
        held_out_count(self.branching ** self.depth, self.held_out_per_leaf)

    @property
    def trained_entail_weight(self) -> float:
        """The entailment weight the objective uses: 0 under no_entailment."""
        return 0.0 if self.no_entailment else self.entail_weight

    def mode(self) -> SimilarityMode:
        if self.space == "sphere":
            return SimilarityMode.COSINE
        if self.inner_product_logits:
            return SimilarityMode.LORENTZ_INNER
        return SimilarityMode.NEG_LORENTZ_DISTANCE


def reference_config(seed: int = 7, space: str = "lorentz") -> TrainConfig:
    """The documented reference experiment (depth 3, branching 4, n=16)."""
    return TrainConfig(seed=seed, space=space)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------

def init_tensors(config: TrainConfig) -> dict[str, np.ndarray]:
    """The named tensors a run starts from: two encoder maps plus the
    loss scalars in log space."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
    n, latent, hidden = config.embed_dim, config.latent_dim, config.hidden_dim
    # Gains target unit-variance encoder outputs on tree latents, so
    # rows have expected unit norm once the 1/sqrt(n) scale applies:
    # image latents carry ~depth + noise^2*latent_dim squared norm,
    # text latents (uniform over the ancestor chain) ~(depth-1)/2.
    # A float64 power: where a huge noise's square overflows, Python's
    # raises OverflowError, and this gives the image encoder zero gains.
    img_sq = config.depth + np.float64(config.noise) ** 2 * latent
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
    lp = LossParams.init(n)
    tensors["log_inv_temp"] = np.asarray(lp.log_inv_temp)
    tensors["log_curv"] = np.asarray(lp.log_curv)
    tensors["log_scale_img"] = np.asarray(lp.log_scale_img)
    tensors["log_scale_txt"] = np.asarray(lp.log_scale_txt)
    return tensors


def encoder_forward(tensors, latents, modality: str, hidden_dim: int):
    """Encode latent rows; `tensors` may hold arrays or tape nodes."""
    if hidden_dim > 0:
        h = ad.matmul(latents, tensors[f"{modality}_w1"]) + tensors[f"{modality}_b1"]
        return ad.matmul(ad.tanh(h), tensors[f"{modality}_w2"]) + tensors[f"{modality}_b2"]
    return ad.matmul(latents, tensors[f"{modality}_w"]) + tensors[f"{modality}_b"]


def encoder_backward(tensors, latents, modality: str, hidden_dim: int,
                     g_rows) -> dict[str, np.ndarray]:
    """Gradients of one encoder's tensors, given d loss / d (its output
    rows); the tanh layer's activation is recomputed from `latents`."""
    if hidden_dim > 0:
        w1, b1, w2, b2 = (f"{modality}_{k}" for k in ("w1", "b1", "w2", "b2"))
        act = np.tanh(latents @ tensors[w1] + tensors[b1])
        g_h = (g_rows @ tensors[w2].T) * (1.0 - act * act)
        return {w1: latents.T @ g_h, b1: g_h.sum(axis=0),
                w2: act.T @ g_rows, b2: g_rows.sum(axis=0)}
    return {f"{modality}_w": latents.T @ g_rows, f"{modality}_b": g_rows.sum(axis=0)}


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


class _Layout:
    """Where each named tensor sits in a ParamVector's flat vector: in
    sorted name order, one slice per tensor."""

    def __init__(self, tensors):
        self.names = tuple(sorted(tensors))
        self.shapes = tuple(np.shape(tensors[k]) for k in self.names)
        ends = np.cumsum([int(np.prod(s)) for s in self.shapes]).tolist()
        self.slices = tuple(slice(a, b) for a, b in zip([0] + ends, ends))
        self.size = ends[-1] if ends else 0
        # Decay weight matrices only; biases and learnable scalars are exempt.
        self.decay = np.zeros(self.size, dtype=bool)
        for sl, shape in zip(self.slices, self.shapes):
            self.decay[sl] = len(shape) >= 2


class ParamVector(Mapping):
    """Named tensors held as views into one contiguous float64 vector,
    `flat`; indexing by name gives a view with the tensor's shape."""

    def __init__(self, layout: _Layout, flat: np.ndarray):
        self.layout, self.flat = layout, flat
        self._views = {k: flat[sl].reshape(shape)
                       for k, sl, shape in zip(layout.names, layout.slices, layout.shapes)}

    @classmethod
    def of(cls, tensors) -> "ParamVector":
        """`tensors` itself if it is a ParamVector, else a flat copy of it."""
        if isinstance(tensors, cls):
            return tensors
        layout = _Layout(tensors)
        parts = [np.ravel(np.asarray(tensors[k], dtype=np.float64)) for k in layout.names]
        return cls(layout, np.concatenate(parts) if parts else np.zeros(0))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.layout.names)


@dataclass
class AdamState:
    """Step count and first and second moments, each a vector laid out
    like the parameters' `ParamVector.flat`."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, params) -> "AdamState":
        n = sum(np.size(params[k]) for k in params)
        return cls(step=0, m=np.zeros(n), v=np.zeros(n))


def adamw_step(params, grads, state: AdamState, lr: float,
               weight_decay: float = 0.2) -> tuple[ParamVector, AdamState]:
    """One decoupled-weight-decay Adam update of every tensor; pure
    (returns a new ParamVector and state).

    `params` is a ParamVector or a dict of named tensors; a dict is first
    copied into one.  `grads` holds every tensor's gradient.  The update
    runs once over the whole flat vector; a zero gradient with zero moments
    leaves a tensor's bits unchanged.
    """
    params = ParamVector.of(params)
    layout = params.layout
    g = np.empty(layout.size)
    for k, sl in zip(layout.names, layout.slices):
        g[sl] = np.ravel(grads[k])
    finite = np.isfinite(g)
    if not np.logical_and.reduce(finite):
        bad = int(np.argmin(finite))
        name = next(k for k, sl in zip(layout.names, layout.slices) if bad < sl.stop)
        raise ValueError(f"non-finite gradient for parameter {name!r}")

    b1, b2 = ADAM_BETAS
    t = state.step + 1
    p0 = params.flat
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    # p = p0 - lr m_hat / (sqrt(v_hat) + eps) - lr wd p0 (decayed tensors):
    # each product and quotient in that order, into buffers of this call.
    tmp = np.multiply(g, 1.0 - b1)
    m = np.multiply(state.m, b1)
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v = np.multiply(state.v, b2)
    v += tmp
    np.divide(v, 1.0 - b2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    upd = np.divide(m, 1.0 - b1**t, out=g)
    upd *= lr
    upd /= tmp
    p = np.subtract(p0, upd)
    np.subtract(p, np.multiply(p0, lr * weight_decay, out=tmp), out=p, where=layout.decay)
    return ParamVector(layout, p), AdamState(step=t, m=m, v=v)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A trained model: its config, named tensors and clamp hits.  `train`
    also fills in `curve` and `index`; a loaded one has an empty curve."""

    config: TrainConfig
    tensors: dict[str, np.ndarray]
    curve: np.ndarray            # steps x len(CURVE_COLUMNS)
    clamp_hits: dict[str, int]
    index: EmbeddingIndex | None = None

    def loss_params(self) -> LossParams:
        t = self.tensors
        return LossParams(
            log_inv_temp=float(t["log_inv_temp"]),
            log_curv=float(t["log_curv"]),
            log_scale_img=float(t["log_scale_img"]),
            log_scale_txt=float(t["log_scale_txt"]),
            entail_weight=self.config.trained_entail_weight,
            cone_boundary=self.config.cone_boundary,
        )


def _closed_form_gradients(params, batch: PairBatch, config: TrainConfig, lam: float,
                           img_rows, txt_rows, workspace=None):
    """((total, contrastive, entailment), grads) of the step's objective,
    given the encoders' output rows; `grads` holds every tensor (log_curv's
    is zero under fixed_curvature).  `workspace` goes to `objective_grad`."""
    total, cont, ent, g = objective_grad(
        img_rows, txt_rows,
        params["log_inv_temp"], params["log_curv"], params["log_scale_img"], params["log_scale_txt"],
        mode=config.mode(), entail_weight=lam, cone_boundary=config.cone_boundary,
        workspace=workspace,
    )
    grads = {
        **encoder_backward(params, batch.image_latents, "img", config.hidden_dim, g.pop("img_rows")),
        **encoder_backward(params, batch.text_latents, "txt", config.hidden_dim, g.pop("txt_rows")),
        **g,
    }
    if config.fixed_curvature:
        grads["log_curv"] = 0.0
    return (total, cont, ent), grads


def train_step(params: ParamVector, state: AdamState, batch: PairBatch,
               config: TrainConfig, step: int, workspace: np.ndarray | None = None):
    """One optimisation step; pure but for `workspace`.  Returns (params,
    state, metrics): the updated tensors and Adam state, and the step's
    curve values (`CURVE_COLUMNS` after "step") plus whether tau and c
    were clamped.  `params` may also be a dict of named tensors.
    `workspace` is the objective's B x B scratch
    (`losses.objective_workspace`); without one the step allocates its own.
    """
    lam = config.trained_entail_weight
    with np.errstate(all="ignore"):   # runaway params surface as divergence
        img_rows = encoder_forward(params, batch.image_latents, "img", config.hidden_dim)
        txt_rows = encoder_forward(params, batch.text_latents, "txt", config.hidden_dim)
        (total, cont, ent), grads = _closed_form_gradients(
            params, batch, config, lam, img_rows, txt_rows, workspace
        )
        if not math.isfinite(total):
            raise DivergenceError(f"non-finite loss at step {step}")
        lr = lr_at(step, config)
        try:
            params, state = adamw_step(params, grads, state, lr, weight_decay=config.weight_decay)
        except ValueError as exc:     # a non-finite gradient of a finite loss
            raise DivergenceError(f"{exc} at step {step}") from None

    e_it, inv_t = inv_temp_read(params["log_inv_temp"])
    e_c, c = curv_read(params["log_curv"])
    metrics = {
        "contrastive": cont,
        "entailment": ent,
        "total": total,
        "lr": lr,
        "tau": 1.0 / inv_t if inv_t > 0.0 else float("inf"),
        "c": c,
        "tau_clamped": e_it > INV_TEMP_MAX,
        "curv_clamped": not (CURV_MIN <= e_c <= CURV_MAX),
    }
    return params, state, metrics


def train(config: TrainConfig) -> Checkpoint:
    """Run the full training loop; deterministic for a fixed config."""
    tree = generate_tree(
        config.depth, config.branching, config.latent_dim, config.noise, config.seed
    )
    sampler = PairSampler(tree, config.seed)
    params = ParamVector.of(init_tensors(config))
    state = AdamState.zeros(params)

    curve = np.zeros((config.steps, len(CURVE_COLUMNS)))
    clamp_hits = {"tau": 0, "curv": 0}
    workspace = objective_workspace(config.batch_size)     # one per run, not per step
    for step in range(config.steps):
        batch = sampler.next_batch(config.batch_size)
        params, state, metrics = train_step(params, state, batch, config, step, workspace)
        curve[step] = (step, *(metrics[k] for k in CURVE_COLUMNS[1:]))
        for k in clamp_hits:
            clamp_hits[k] += metrics[f"{k}_clamped"]

    index = build_embedding_index(params, config, tree)
    return Checkpoint(config=config, tensors=dict(params), curve=curve, clamp_hits=clamp_hits,
                      index=index)


def build_embedding_index(tensors: Mapping[str, np.ndarray], config: TrainConfig,
                          tree: ConceptTree | None = None,
                          held_out_per_leaf: int | None = None) -> EmbeddingIndex:
    """Embed all text concept nodes plus a held-out image set with the
    named `tensors` (a dict or a ParamVector) of a run of `config`.  Each
    block of held-out images is encoded and lifted into its rows of the
    index's matrix as it is drawn, so no temporary spans the whole set."""
    if tree is None:
        tree = generate_tree(
            config.depth, config.branching, config.latent_dim, config.noise, config.seed
        )
    per_leaf = config.held_out_per_leaf if held_out_per_leaf is None else held_out_per_leaf
    widths = [w for w in (config.latent_dim, config.hidden_dim, config.embed_dim) if w]
    madds = min(k * n for k, n in zip(widths, widths[1:]))     # per row, in the smaller product
    images = held_out_images(tree, per_leaf, config.seed, -(-EMBED_BLOCK // madds))
    texts = len(tree.internal)
    vectors = np.empty((texts + len(tree.leaves) * per_leaf, config.embed_dim))
    space = space_of(config.space, float(np.asarray(clamped_curv(tensors["log_curv"]))))
    txt_latents = np.stack([tree.nodes[i].latent for i in tree.internal])
    txt_rows = np.asarray(encoder_forward(tensors, txt_latents, "txt", config.hidden_dim))
    vectors[:texts] = space.lift(txt_rows, np.exp(tensors["log_scale_txt"]))
    img_scale = np.exp(tensors["log_scale_img"])
    for first, latents in images:
        img_rows = np.asarray(encoder_forward(tensors, latents, "img", config.hidden_dim))
        vectors[texts + first:texts + first + len(latents)] = space.lift(img_rows, img_scale)
    # The label sidecar's bytes: one join per leaf over its images'
    # "/h<j>" suffixes, so no string is built per image row.
    suffixes = [f"/h{j}\n" for j in range(per_leaf)]
    sidecar = "".join(f"text\t{tree.nodes[i].path}\n" for i in tree.internal)
    sidecar += "".join(prefix + prefix.join(suffixes)
                       for prefix in (f"image\t{tree.nodes[i].path}" for i in tree.leaves))
    return EmbeddingIndex(
        space=config.space,
        curvature=space.c,
        vectors=vectors,
        labels=Labels.from_sidecar(sidecar.encode("utf-8")),
    )


# ---------------------------------------------------------------------------
# Persistence: checkpoint container and loss-curve CSV
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"HYEC"
CHECKPOINT_VERSION = 1
# Config keys that checkpoints held while the initial tau and curvature and
# AdamW's betas and epsilon were settings.  A loaded checkpoint is never
# trained further, so they are dropped on read.
_RETIRED_CONFIG_KEYS = ("tau_init", "curv_init", "betas", "adam_eps")


def _config_json(config: TrainConfig) -> bytes:
    return json.dumps(asdict(config), sort_keys=True, separators=(",", ":")).encode("utf-8")


def checkpoint_bytes(chk: Checkpoint) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = _config_json(chk.config)
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    tensors = chk.tensors
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
    atomic_write(path, [checkpoint_bytes(chk)])
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
    for key in _RETIRED_CONFIG_KEYS:
        cfg.pop(key, None)
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown checkpoint config key {unknown[0]!r}")
    try:
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
        tensors[name] = np.frombuffer(take(8 * n_items), dtype="<f8").reshape(shape).copy()
    expected = init_tensors(config)
    if tensors.keys() != expected.keys():
        raise ValueError(
            f"checkpoint tensors do not match its config: missing {sorted(expected.keys() - tensors)}, "
            f"unexpected {sorted(tensors.keys() - expected)}"
        )
    for name in sorted(tensors):
        if tensors[name].shape != expected[name].shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {tensors[name].shape}, "
                             f"its config implies {expected[name].shape}")
    (meta_len,) = struct.unpack("<I", take(4))
    meta = json.loads(take(meta_len).decode("utf-8"))
    if not (isinstance(meta, dict) and isinstance(meta.get("clamp_hits"), dict)):
        raise ValueError("checkpoint metadata lacks a clamp_hits mapping")
    return Checkpoint(
        config=config,
        tensors=tensors,
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
    atomic_write(path, [curve_csv(curve).encode("utf-8")])
    return path
