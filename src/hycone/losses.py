"""Batch contrastive + entailment objective over hyperbolic embeddings.

Encoder outputs (one row per sample) are scaled by a learnable
per-modality scalar, lifted onto the hyperboloid through the origin
exponential map, and scored pairwise.  The contrastive term is the
two-direction softmax cross-entropy over the similarity matrix; the
entailment term is the mean cone hinge with the text embedding as apex.

The learnable scalars (temperature, curvature, modality scales) are held
in log space; clamps are applied on read, never to the stored values, so
optimizer state is not mutated by clamping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import entailment, geometry
from .geometry import CURV_MAX, CURV_MIN, Curvature, HyperbolicPoint

# tau is clamped to >= 0.01, i.e. 1/tau <= 100.
INV_TEMP_MAX = 100.0

TAU_INIT = 0.07
CURV_INIT = 1.0
ENTAIL_WEIGHT_DEFAULT = 0.2


class SimilarityMode(enum.Enum):
    """Similarity used for the contrastive logits."""

    NEG_LORENTZ_DISTANCE = "neg_lorentz_distance"
    LORENTZ_INNER = "lorentz_inner"
    COSINE = "cosine"           # spherical baseline only


@dataclass
class LossParams:
    """Learnable scalars of the objective, stored in log space."""

    log_inv_temp: float
    log_curv: float
    log_scale_img: float
    log_scale_txt: float
    entail_weight: float = ENTAIL_WEIGHT_DEFAULT
    cone_boundary: float = 0.1

    def __post_init__(self):
        if self.entail_weight < 0.0:
            raise ValueError("entailment weight must be >= 0")

    @classmethod
    def init(cls, embed_dim: int, *, tau: float = TAU_INIT, curv: float = CURV_INIT,
             entail_weight: float = ENTAIL_WEIGHT_DEFAULT, cone_boundary: float = 0.1) -> "LossParams":
        """Defaults: tau=0.07, c=1.0, per-modality scales 1/sqrt(n)."""
        log_scale = float(np.log(1.0 / np.sqrt(embed_dim)))
        return cls(
            log_inv_temp=float(np.log(1.0 / tau)),
            log_curv=float(np.log(curv)),
            log_scale_img=log_scale,
            log_scale_txt=log_scale,
            entail_weight=entail_weight,
            cone_boundary=cone_boundary,
        )

    # Clamped reads (functional; stored log values stay untouched).
    def inv_temp(self) -> float:
        return float(np.minimum(np.exp(self.log_inv_temp), INV_TEMP_MAX))

    def tau(self) -> float:
        return 1.0 / self.inv_temp()

    def curv(self) -> Curvature:
        return Curvature.clamped(float(np.exp(self.log_curv)))

    def scale_img(self) -> float:
        return float(np.exp(self.log_scale_img))

    def scale_txt(self) -> float:
        return float(np.exp(self.log_scale_txt))


@dataclass
class BatchEmbeddings:
    """Paired pre-lift encoder outputs; row i of texts matches row i of images."""

    images: np.ndarray
    texts: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.texts = np.asarray(self.texts, dtype=np.float64)
        if self.images.ndim != 2 or self.texts.ndim != 2:
            raise ValueError("batch embeddings must be B x n matrices")
        if self.images.shape != self.texts.shape:
            raise ValueError(
                f"image/text batch shapes differ: {self.images.shape} vs {self.texts.shape}"
            )
        if self.images.shape[0] < 2:
            raise ValueError("batch size must be >= 2")


@dataclass
class LossBreakdown:
    contrastive: float
    entailment: float
    total: float


# ---------------------------------------------------------------------------
# Generic kernels (Node or ndarray inputs)
# ---------------------------------------------------------------------------

def clamped_inv_temp(log_inv_temp):
    return ad.clamp(ad.exp(log_inv_temp), hi=INV_TEMP_MAX)


def clamped_curv(log_curv):
    return ad.clamp(ad.exp(log_curv), lo=CURV_MIN, hi=CURV_MAX)


def lift_rows(rows, log_scale, c):
    """Scale rows by exp(log_scale) and exp-map through the origin.

    Returns (space (B, n), time (B, 1)).
    """
    v = rows * ad.exp(log_scale)
    sp = geometry.exp_space(v, c)
    return sp, geometry.time_part(sp, c)


def normalize_rows(rows):
    """Unit-normalize rows (spherical baseline embedding)."""
    return rows / geometry.safe_norm(rows)


def contrastive_from_logits(logits):
    """Mean softmax cross-entropy against the diagonal, averaged over the
    image->text and text->image directions (max-subtraction softmax)."""
    ce_img = ad.logsumexp_rows(logits) - ad.diag_part(logits)
    logits_t = ad.transpose(logits)
    ce_txt = ad.logsumexp_rows(logits_t) - ad.diag_part(logits_t)
    return 0.5 * (ad.mean(ce_img) + ad.mean(ce_txt))


def lorentz_logits(img_sp, img_t, txt_sp, txt_t, c, inv_temp, mode: SimilarityMode):
    """Similarity logits; entry (i, j) compares image i against text j."""
    inner = geometry.cross_inner(img_sp, img_t, txt_sp, txt_t)
    if mode is SimilarityMode.LORENTZ_INNER:
        sim = inner
    elif mode is SimilarityMode.NEG_LORENTZ_DISTANCE:
        sim = -geometry.dist_from_inner(inner, c)
    else:
        raise ValueError(f"mode {mode} is not a hyperbolic similarity")
    return sim * inv_temp


def cosine_logits(img_rows, txt_rows, inv_temp):
    img_n = normalize_rows(img_rows)
    txt_n = normalize_rows(txt_rows)
    return ad.matmul(img_n, ad.transpose(txt_n)) * inv_temp


def objective(img_rows, txt_rows, log_inv_temp, log_curv, log_scale_img, log_scale_txt,
              *, mode: SimilarityMode, entail_weight: float, cone_boundary: float):
    """Full training objective on pre-lift rows; returns (total, contrastive,
    entailment) scalars (tape nodes when the inputs are nodes).

    mode=COSINE is the spherical baseline: unit-normalized embeddings with
    cosine logits and no entailment term (cones are undefined on the
    sphere), whatever the entailment weight.
    """
    inv_temp = clamped_inv_temp(log_inv_temp)
    if mode is SimilarityMode.COSINE:
        cont = contrastive_from_logits(cosine_logits(img_rows, txt_rows, inv_temp))
        return cont, cont, 0.0
    c = clamped_curv(log_curv)
    img_sp, img_t = lift_rows(img_rows, log_scale_img, c)
    txt_sp, txt_t = lift_rows(txt_rows, log_scale_txt, c)
    cont = contrastive_from_logits(
        lorentz_logits(img_sp, img_t, txt_sp, txt_t, c, inv_temp, mode)
    )
    if entail_weight == 0.0:
        return cont, cont, 0.0
    ent = ad.mean(entailment.hinge_rows(txt_sp, txt_t, img_sp, img_t, c, cone_boundary))
    total = cont + entail_weight * ent
    return total, cont, ent


# ---------------------------------------------------------------------------
# Typed surface
# ---------------------------------------------------------------------------

def lift_batch(batch: BatchEmbeddings, params: LossParams) -> tuple[list[HyperbolicPoint], list[HyperbolicPoint]]:
    """Scale each row by its modality's exp(log_scale) and exp-map it onto
    the hyperboloid at the clamped curvature."""
    for name, rows in (("images", batch.images), ("texts", batch.texts)):
        bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
        if bad.size:
            raise ValueError(f"non-finite {name} row at index {int(bad[0])}")
    curv = params.curv()
    img_sp, _ = lift_rows(batch.images, params.log_scale_img, curv.c)
    txt_sp, _ = lift_rows(batch.texts, params.log_scale_txt, curv.c)
    images = [HyperbolicPoint(space=row, curv=curv) for row in np.asarray(img_sp)]
    texts = [HyperbolicPoint(space=row, curv=curv) for row in np.asarray(txt_sp)]
    return images, texts


def _points_to_rows(points: list[HyperbolicPoint]) -> tuple[np.ndarray, np.ndarray, Curvature]:
    curv = points[0].curv
    for p in points[1:]:
        if p.curv.c != curv.c:
            raise ValueError("points in a batch must share one curvature")
    sp = np.stack([p.space for p in points])
    t = np.array([[p.time] for p in points])
    return sp, t, curv


def logit_matrix(images, texts, params: LossParams, mode: SimilarityMode) -> np.ndarray:
    """B x B similarity logits; row i holds image i against every text.

    The text-direction loss uses the transpose of this matrix.  For the
    hyperbolic modes `images`/`texts` are lists of HyperbolicPoint; COSINE
    takes unit-row arrays and rejects hyperbolic points.
    """
    inv_temp = params.inv_temp()

    def has_points(seq) -> bool:
        return isinstance(seq, (list, tuple)) and len(seq) > 0 and isinstance(seq[0], HyperbolicPoint)

    if mode is SimilarityMode.COSINE:
        if has_points(images) or has_points(texts):
            raise ValueError("COSINE similarity is undefined for hyperbolic points")
        img_rows = np.asarray(images, dtype=np.float64)
        txt_rows = np.asarray(texts, dtype=np.float64)
        if img_rows.shape[0] != txt_rows.shape[0]:
            raise ValueError("image/text batch sizes differ")
        return np.asarray(cosine_logits(img_rows, txt_rows, inv_temp))
    if len(images) != len(texts):
        raise ValueError("image/text batch sizes differ")
    img_sp, img_t, curv_i = _points_to_rows(list(images))
    txt_sp, txt_t, curv_t = _points_to_rows(list(texts))
    if curv_i.c != curv_t.c:
        raise ValueError("image and text batches must share one curvature")
    logits = np.asarray(
        lorentz_logits(img_sp, img_t, txt_sp, txt_t, curv_i.c, inv_temp, mode)
    )
    if mode is SimilarityMode.NEG_LORENTZ_DISTANCE:
        # identical point pairs are at distance exactly 0; the inner-product
        # route can round to a few ulps above the acosh branch point
        same = np.all(img_sp[:, None, :] == txt_sp[None, :, :], axis=-1)
        logits[same] = 0.0
    return logits


def contrastive_loss(logits: np.ndarray) -> float:
    """Two-direction softmax cross-entropy of a square logit matrix."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise ValueError(f"logits must be square, got shape {logits.shape}")
    if logits.shape[0] < 2:
        raise ValueError("batch size must be >= 2")
    return float(contrastive_from_logits(logits))


def total_loss(batch: BatchEmbeddings, params: LossParams, mode: SimilarityMode) -> LossBreakdown:
    """Contrastive term plus entail_weight times the mean pair hinge, the
    text embedding acting as cone apex for its paired image (no hinge
    under COSINE)."""
    total, cont, ent = objective(
        batch.images,
        batch.texts,
        params.log_inv_temp,
        params.log_curv,
        params.log_scale_img,
        params.log_scale_txt,
        mode=mode,
        entail_weight=params.entail_weight,
        cone_boundary=params.cone_boundary,
    )
    return LossBreakdown(
        contrastive=float(np.asarray(cont)),
        entailment=float(np.asarray(ent)),
        total=float(np.asarray(total)),
    )
