"""Batch contrastive + entailment objective over hyperbolic embeddings.

Encoder outputs (one row per sample) are scaled by a learnable
per-modality scalar, lifted onto the hyperboloid through the origin
exponential map, and scored pairwise.  The contrastive term is the
two-direction softmax cross-entropy over the similarity matrix; the
entailment term is the mean cone hinge with the text embedding as apex.

The learnable scalars (temperature, curvature, modality scales) are held
in log space; clamps are applied on read, never to the stored values, so
optimizer state is not mutated by clamping.

`objective` builds the loss from the generic kernels, so on tape nodes it
records the graph the reverse tape differentiates.  `objective_grad`
computes the same loss and its gradient in closed form, in plain numpy,
with the tape's subgradient conventions; the trainer runs it, and the tape
stays the oracle it is checked against (`gradcheck`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import entailment, geometry
from .autodiff import ACOSH_EPS, NORM_FLOOR, sinhc_pair
from .entailment import ANGLE_EPS, SQRT_FLOOR
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

    @classmethod
    def init(cls, embed_dim: int) -> "LossParams":
        """Defaults: tau=0.07, c=1.0, per-modality scales 1/sqrt(n)."""
        log_scale = float(np.log(1.0 / np.sqrt(embed_dim)))
        return cls(
            log_inv_temp=float(np.log(1.0 / TAU_INIT)),
            log_curv=float(np.log(CURV_INIT)),
            log_scale_img=log_scale,
            log_scale_txt=log_scale,
        )

    # Clamped reads (functional; stored log values stay untouched).
    def inv_temp(self) -> float:
        return inv_temp_read(self.log_inv_temp)[1]

    def curv(self) -> Curvature:
        return Curvature(curv_read(self.log_curv)[1])

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
    batch = float(logits.shape[-1])
    ce_img = ad.logsumexp_rows(logits) - ad.diag_part(logits)
    logits_t = ad.transpose(logits)
    ce_txt = ad.logsumexp_rows(logits_t) - ad.diag_part(logits_t)
    return 0.5 * (ad.sum(ce_img, axis=-1) / batch + ad.sum(ce_txt, axis=-1) / batch)


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

    Plain-array inputs may carry leading batch axes: (..., B, n) rows and
    scalars broadcastable as (..., 1, 1).  The losses then have shape
    (...), one entry per stacked objective, each equal to its own call.

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
    hinge = entailment.hinge_rows(txt_sp, txt_t, img_sp, img_t, c, cone_boundary)
    ent = ad.sum(hinge, axis=(-2, -1)) / float(hinge.shape[-2])
    total = cont + entail_weight * ent
    return total, cont, ent


# ---------------------------------------------------------------------------
# Closed-form objective and gradient (plain numpy)
# ---------------------------------------------------------------------------
#
# The backward pass unrolls the tape's: every adjoint is the expression the
# tape registers for the primitive it undoes, and where a value feeds
# several ops, their adjoints are added in the tape's order (the reverse of
# the forward's).  So the subgradient conventions are the tape's (a clamp
# passes gradient only strictly inside its bounds, acosh's adjoint is taken
# at max(arg, 1 + ACOSH_EPS), asin/acos use the 1e-16 floor, sinh(t)/t
# keeps its Taylor branch, NORM_FLOOR / SQRT_FLOOR zero what they floor),
# and under the same numpy and BLAS the result is the tape's to the bit.
# Adjoints of the scalars are summed axis by axis, as the tape reduces them.
#
# Equal bits in fewer calls: ufuncs and their `reduce` are called directly
# (no `np.sum`/`np.max`/`np.clip` wrappers); the learnable scalars are
# Python floats, never a divisor that can be 0; no sum is reordered, and a
# negation is dropped only where rounding's sign symmetry cancels it.  A
# (B, n) adjoint that may arrive transposed is not updated in place: a new
# array takes its layout from its operands, and the layout decides the
# order of a later row or column sum.
#
# Row blocks: the matrix products (img.sp @ txt.sp.T, g @ txt.sp,
# img.sp.T @ g and the time parts') stay whole, so BLAS sees the operands
# the tape gives it and adds in its order.  The elementwise passes between
# them (the forward from `inner` to the logits, both softmaxes and the
# backward chain) run one block of rows at a time, while the block sits in
# cache, and keep three B x B matrices (`inner`, `acosh`, the logits that
# become their adjoint); sim and -(inner * c) are recomputed per block by
# the op that made them.  Row sums and row or column maxima are exact
# whatever the blocks.  A column sum is carried: the column softmax's sum
# of exps and the three sums to a scalar of g * sim, g * acosh / c and
# g * inner each keep running sums, which `_carry` puts in row 0 of the
# block buffer, so one reduce over axis 0 adds each column row by row, as
# it adds a whole matrix's.

# The most float64 elements a row block holds: 64 rows at batch 1,024,
# the whole matrix at batch 256 and below.
OBJECTIVE_BLOCK = 2**16


def inv_temp_read(log_inv_temp) -> tuple[float, float]:
    """(exp(log_inv_temp), `clamped_inv_temp(log_inv_temp)`) as Python
    floats, from one `np.exp`; `min` gives `np.clip`'s value, NaN included."""
    e = float(np.exp(log_inv_temp))
    return e, min(e, INV_TEMP_MAX)


def curv_read(log_curv) -> tuple[float, float]:
    """(exp(log_curv), `clamped_curv(log_curv)`) as Python floats, from one
    `np.exp`; `min` and `max` give `np.clip`'s value, NaN included."""
    e = float(np.exp(log_curv))
    return e, min(max(e, CURV_MIN), CURV_MAX)


def _total(x):
    """Sum to a scalar one axis at a time, as the tape reduces a
    broadcast scalar's adjoint."""
    return np.add.reduce(np.add.reduce(x, axis=0), axis=0)


def _safe_norm(rows):
    """`geometry.safe_norm` of rows: (norm (B, 1), unclamped mask (B, 1))."""
    sq = np.add.reduce(rows * rows, axis=-1, keepdims=True)
    return np.sqrt(np.maximum(sq, NORM_FLOOR)), sq > NORM_FLOOR


def _norm_adjoint(g_norm, norm, unclamped):
    """Adjoint of a safe norm's squared norm; its rows' gradient is
    `rows` times this, added twice (x * x has two operands)."""
    return g_norm * 0.5 / norm * unclamped


class _Lift:
    """`lift_rows` forward, keeping what its backward needs."""

    def __init__(self, rows, log_scale, c, sqrt_c):
        self.rows, self.scale = rows, float(np.exp(log_scale))
        self.v = rows * self.scale
        self.norm, self.unclamped = _safe_norm(self.v)
        self.t = sqrt_c * self.norm
        self.k, self.dk = sinhc_pair(self.t)
        self.sp = self.k * self.v
        self.time = np.sqrt(np.add.reduce(self.sp * self.sp, axis=-1, keepdims=True) + 1.0 / c)

    def backward(self, g_sp, g_time, c, sqrt_c):
        """(d rows, d log_scale, [d c through 1/c, d c through sqrt(c)]),
        given the adjoints of the space and time parts from their other
        uses."""
        g_u = g_time * 0.5 / self.time
        g_c_inv = -_total(g_u) / (c * c)
        q = g_u * self.sp
        g_sp = (g_sp + q) + q
        g_t = np.add.reduce(g_sp * self.v, axis=-1, keepdims=True) * self.dk
        g_c_sqrt = _total(g_t * self.norm) * 0.5 / sqrt_c
        q = _norm_adjoint(g_t * sqrt_c, self.norm, self.unclamped) * self.v
        g_v = (g_sp * self.k + q) + q
        return g_v * self.scale, _total(g_v * self.rows) * self.scale, [g_c_inv, g_c_sqrt]


class _Hinge:
    """`entailment.hinge_rows` forward (x the cone apex), keeping what its
    backward needs; `total` is the sum over rows."""

    def __init__(self, x_sp, x_t, y_sp, y_t, c, sqrt_c, boundary):
        self.x_sp, self.x_t, self.y_sp, self.y_t = x_sp, x_t, y_sp, y_t
        self.ip = np.add.reduce(x_sp * y_sp, axis=-1, keepdims=True) - x_t * y_t
        self.cip = c * self.ip
        self.num = y_t + x_t * self.cip
        self.nx, self.nx_unclamped = _safe_norm(x_sp)
        self.r_arg = self.cip * self.cip - 1.0
        self.r = np.sqrt(np.maximum(self.r_arg, SQRT_FLOOR))
        self.den = self.nx * self.r
        self.q = self.num / self.den
        self.ratio = np.minimum(np.maximum(self.q, -1.0 + ANGLE_EPS), 1.0 - ANGLE_EPS)
        self.a_den = sqrt_c * self.nx
        self.a = (2.0 * boundary) / self.a_den
        self.a_cl = np.minimum(self.a, 1.0 - ANGLE_EPS)
        self.z = np.arccos(self.ratio) - np.arcsin(self.a_cl)
        self.total = np.add.reduce(np.maximum(self.z, 0.0), axis=None)
        self.boundary = boundary

    def backward(self, g_h, c, sqrt_c):
        """Adjoints (x_sp, x_t, y_sp, y_t, [c through sqrt(c), c through
        c * ip]) of g_h times the row sum."""
        neg_g_z = -g_h * (self.z > 0.0)        # -(g_z), negated once for both uses
        g_a_cl = neg_g_z / np.sqrt(np.maximum(1.0 - self.a_cl * self.a_cl, 1e-16))
        g_a = g_a_cl * (self.a < 1.0 - ANGLE_EPS)
        g_a_den = g_a * -(2.0 * self.boundary) / (self.a_den * self.a_den)
        g_c_sqrt = _total(g_a_den * self.nx) * 0.5 / sqrt_c
        qa = _norm_adjoint(g_a_den * sqrt_c, self.nx, self.nx_unclamped) * self.x_sp
        in_range = (self.q > -1.0 + ANGLE_EPS) & (self.q < 1.0 - ANGLE_EPS)
        g_q = neg_g_z / np.sqrt(np.maximum(1.0 - self.ratio * self.ratio, 1e-16)) * in_range
        g_num = g_q / self.den
        g_den = -g_q * self.num / (self.den * self.den)
        g_rr = g_den * self.nx * 0.5 / self.r * (self.r_arg > SQRT_FLOOR)
        qe = _norm_adjoint(g_den * self.r, self.nx, self.nx_unclamped) * self.x_sp
        g_cip = g_rr * self.cip
        g_cip = (g_cip + g_cip) + g_num * self.x_t
        g_ip = g_cip * c
        g_x_sp = (((qa + qa) + qe) + qe) + g_ip * self.y_sp
        # a + (-g_ip) * b == a - g_ip * b, as rounding is sign-symmetric
        g_x_t = g_num * self.cip - g_ip * self.y_t
        g_y_t = g_num - g_ip * self.x_t
        return g_x_sp, g_x_t, g_ip * self.x_sp, g_y_t, [g_c_sqrt, _total(g_cip * self.ip)]


def _normalize_grad(g_n, rows, norm, unclamped):
    """Gradient w.r.t. rows of rows / safe_norm(rows)."""
    g_norm = np.add.reduce(-g_n * rows / (norm * norm), axis=-1, keepdims=True)
    q = _norm_adjoint(g_norm, norm, unclamped) * rows
    return (g_n / norm + q) + q


def _block_rows(batch_size: int) -> int:
    """R: the rows of OBJECTIVE_BLOCK elements, at least one, at most B."""
    return min(batch_size, max(1, OBJECTIVE_BLOCK // batch_size))


def objective_workspace(batch_size: int) -> np.ndarray:
    """Uninitialised scratch for `objective_grad` at this batch size: one
    (3B + R + 1) x B float64 array, carved into three B x B matrices and
    the R + 1 rows of the row-block buffer (R = `_block_rows(B)`)."""
    return np.empty((3 * batch_size + _block_rows(batch_size) + 1, batch_size))


def _carry(head, running):
    """Column sums of the block in rows 1.. of `head`, added to `running`
    (None at the first block) through row 0, so that one reduce over axis
    0 adds each column row by row, in the whole matrix's order."""
    if running is None:
        return np.add.reduce(head[1:], axis=0)
    head[0] = running
    return np.add.reduce(head, axis=0, out=running)


def _similarity_grad(inner, acosh, logits, buf, times, c, inv_temp):
    """The B x B part of the objective, one row block at a time: the
    forward from `inner` to the logits, the contrastive loss, and its
    adjoint back to `inner`, which is written over `logits`.

    `inner` holds the space products (or cosines) on entry; the outer
    product of `times`, (image times (B, 1), text times (1, B)) on the
    hyperboloid and None on the sphere, is subtracted here.  `c` is the
    curvature in the distance mode, else None; `acosh` is written only
    then.  `buf` is the (R + 1) x B block buffer.  Returns (contrastive,
    d/d inv_temp, [d c through sim, in the tape's order]).

    Each direction's softmax is exp(logits - logsumexp), as the tape's
    adjoint computes it: dividing the loss's exp(logits - max) by its sum
    instead differs in the last bit, which a long run can amplify.  The
    text->image direction reduces the same rows over axis 0, which gives
    the tape's numbers without a transposed operand.
    """
    b, rows = logits.shape[0], buf.shape[0] - 1
    # Per block: its rows s:e, the buffer rows 0..e-s (row 0 carries) and its views.
    blocks = []
    for s in range(0, b, rows):
        e = min(s + rows, b)
        head = buf[:e - s + 1]
        blocks.append((s, e, head, head[1:], inner[s:e], logits[s:e]))
    sqrt_c = None if c is None else math.sqrt(c)
    lse_r, mx_c = np.empty((b, 1)), None
    for s, e, _, blk, sim, lg in blocks:
        if times is not None:
            # times as an outer product: one rounding per entry, as the tape's (B, 1) @ (1, B)
            sim -= np.multiply(times[0][s:e], times[1], out=blk)
        if c is not None:
            # Negations folded into the constants: -(x * c) == x * -c, as rounding is sign-symmetric.
            ac = acosh[s:e]
            np.arccosh(np.maximum(np.multiply(sim, -c, out=blk), 1.0, out=ac), out=ac)
            sim = np.divide(ac, -sqrt_c, out=blk)
        np.multiply(sim, inv_temp, out=lg)
        m = np.maximum.reduce(lg, axis=0)
        mx_c = m if mx_c is None else np.maximum(mx_c, m, out=mx_c)
        mx_r = np.maximum.reduce(lg, axis=1, keepdims=True)
        np.exp(np.subtract(lg, mx_r, out=blk), out=blk)
        np.add(np.log(np.add.reduce(blk, axis=1, keepdims=True)), mx_r, out=lse_r[s:e])
    col = None
    for _, _, head, blk, _, lg in blocks:
        np.exp(np.subtract(lg, mx_c, out=blk), out=blk)
        col = _carry(head, col)
    lse_c = np.log(col) + mx_c
    diag = np.diagonal(logits)
    cont = 0.5 * (np.add.reduce(lse_r[:, 0] - diag) / b + np.add.reduce(lse_c - diag) / b)

    w = 0.5 / b
    sum_sim = sum_acosh = sum_inner = None
    for s, e, head, blk, inn, g in blocks:
        np.exp(np.subtract(g, lse_r[s:e], out=blk), out=blk)
        blk *= w
        np.exp(np.subtract(g, lse_c, out=g), out=g)
        g *= w
        # The diagonal's adjoint is ((g - w) - w) + g_r, as the tape adds it.
        g_diag = g.reshape(-1, copy=False)[s::b + 1]
        g_diag -= w
        g_diag -= w
        g += blk
        sim = inn if c is None else np.divide(acosh[s:e], -sqrt_c, out=blk)
        np.multiply(g, sim, out=blk)
        sum_sim = _carry(head, sum_sim)
        g *= inv_temp
        if c is not None:
            # sim = -acosh(max(-(inner * c), 1)) / sqrt(c)
            np.multiply(g, acosh[s:e], out=blk)
            blk /= sqrt_c * sqrt_c
            sum_acosh = _carry(head, sum_acosh)
            # The tape divides by -sqrt(c) and negates after the mask; both
            # negations cancel to the bit.
            g /= sqrt_c
            live = np.multiply(inn, -c, out=blk) > 1.0
            # max(max(x, 1), 1 + ACOSH_EPS) == max(x, 1 + ACOSH_EPS)
            np.maximum(blk, 1.0 + ACOSH_EPS, out=blk)
            np.square(blk, out=blk)
            blk -= 1.0
            g /= np.sqrt(blk, out=blk)
            g *= live
            np.multiply(g, inn, out=blk)
            sum_inner = _carry(head, sum_inner)
            g *= c
    sim_c = [] if c is None else [np.add.reduce(sum_acosh, axis=0) * 0.5 / sqrt_c,
                                  np.add.reduce(sum_inner, axis=0)]
    return float(cont), np.add.reduce(sum_sim, axis=0), sim_c


def objective_grad(img_rows, txt_rows, log_inv_temp, log_curv, log_scale_img, log_scale_txt,
                   *, mode: SimilarityMode, entail_weight: float, cone_boundary: float,
                   workspace: np.ndarray | None = None):
    """`objective` on plain arrays, plus its gradient in closed form.

    Returns (total, contrastive, entailment, grads): the three floats
    `objective` computes, and `grads` mapping "img_rows", "txt_rows" and
    the four log-scalar argument names to d total / d input.  The
    arithmetic is the tape's (see above), so the gradient equals the
    tape's to the bit (`gradcheck` checks that).  That holds also where a
    text row, a cone apex, sits at the origin and the cone is undefined: the
    tape's gradient there is the residue of cancelling ~1e147 terms, and
    the closed form, adding them in the same order, gives the same residue.

    `workspace` is `objective_workspace(B)`: every B x B intermediate
    (inner products, acosh, logits and their adjoint) and the row-block
    buffer are written into it, so a caller that holds one across calls,
    as the trainer does for a run, allocates no B x B matrix per call.
    Without one, the call allocates its own.  Its contents are scratch
    before and after a call; nothing returned aliases it, and the results
    are the same bits either way.
    """
    img_rows = np.asarray(img_rows, dtype=np.float64)
    txt_rows = np.asarray(txt_rows, dtype=np.float64)
    b = img_rows.shape[0]
    if workspace is None:
        workspace = objective_workspace(b)
    inner, acosh, g, buf = workspace[:b], workspace[b:2 * b], workspace[2 * b:3 * b], workspace[3 * b:]
    e_it, inv_temp = inv_temp_read(log_inv_temp)
    grads = dict.fromkeys(("log_curv", "log_scale_img", "log_scale_txt"), 0.0)

    if mode is SimilarityMode.COSINE:
        img_norm, img_unclamped = _safe_norm(img_rows)
        txt_norm, txt_unclamped = _safe_norm(txt_rows)
        img_n, txt_n = img_rows / img_norm, txt_rows / txt_norm
        np.matmul(img_n, txt_n.T, out=inner)
        cont, g_inv_temp, _ = _similarity_grad(inner, acosh, g, buf, None, None, inv_temp)
        grads["log_inv_temp"] = g_inv_temp * (e_it < INV_TEMP_MAX) * e_it
        grads["img_rows"] = _normalize_grad(g @ txt_n, img_rows, img_norm, img_unclamped)
        grads["txt_rows"] = _normalize_grad((img_n.T @ g).T, txt_rows, txt_norm, txt_unclamped)
        return cont, cont, 0.0, grads
    if mode not in (SimilarityMode.NEG_LORENTZ_DISTANCE, SimilarityMode.LORENTZ_INNER):
        raise ValueError(f"mode {mode} is not a similarity mode")

    e_c, c = curv_read(log_curv)
    sqrt_c = math.sqrt(c)
    img, txt = _Lift(img_rows, log_scale_img, c, sqrt_c), _Lift(txt_rows, log_scale_txt, c, sqrt_c)
    np.matmul(img.sp, txt.sp.T, out=inner)
    cont, g_inv_temp, sim_c = _similarity_grad(
        inner, acosh, g, buf, (img.time, txt.time.T),
        c if mode is SimilarityMode.NEG_LORENTZ_DISTANCE else None, inv_temp,
    )
    # The times enter `inner` negated; -(g @ t) == (-g) @ t, as rounding is sign-symmetric.
    g_img_sp, g_img_t = g @ txt.sp, -(g @ txt.time)
    g_txt_sp, g_txt_t = (img.sp.T @ g).T, -(img.time.T @ g).T

    total, ent, hinge_c = cont, 0.0, []
    if entail_weight != 0.0:
        hinge = _Hinge(txt.sp, txt.time, img.sp, img.time, c, sqrt_c, cone_boundary)
        ent = float(hinge.total / b)
        total = cont + entail_weight * ent
        h_txt_sp, h_txt_t, h_img_sp, h_img_t, hinge_c = hinge.backward(entail_weight / b, c, sqrt_c)
        g_txt_sp, g_txt_t = g_txt_sp + h_txt_sp, g_txt_t + h_txt_t
        g_img_sp, g_img_t = g_img_sp + h_img_sp, g_img_t + h_img_t

    grads["txt_rows"], grads["log_scale_txt"], txt_c = txt.backward(g_txt_sp, g_txt_t, c, sqrt_c)
    grads["img_rows"], grads["log_scale_img"], img_c = img.backward(g_img_sp, g_img_t, c, sqrt_c)
    # c's adjoints add up in the tape's order: the ops that ran last first.
    c_terms = hinge_c + sim_c + txt_c + img_c
    g_c = c_terms[0]
    for term in c_terms[1:]:
        g_c = g_c + term
    grads["log_inv_temp"] = g_inv_temp * (e_it < INV_TEMP_MAX) * e_it
    grads["log_curv"] = g_c * (CURV_MIN < e_c < CURV_MAX) * e_c
    return total, cont, ent, grads


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
    return sp, geometry.time_part(sp, curv.c), curv


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
        logits[geometry.coincident(img_sp[:, None, :], txt_sp[None, :, :])] = 0.0
    return logits
