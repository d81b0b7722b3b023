"""Embedding-space instruments: root estimation, radial statistics,
geodesic traversals with cone-filtered retrieval, ranked retrieval and
prompt-ensembled classification.

Works on an :class:`EmbeddingIndex` in either representation space,
:class:`Lorentz` (hyperboloid, [ROOT] at the origin, entailment cones) or
:class:`Sphere` (unit vectors, [ROOT] at the normalized mean, no cones).
Both have the same methods, and :func:`space_of` picks one per index:
nothing else branches on the space.

Indexes are immutable after load; every query here is read-only.  Each
row is validated once, when the index is built.  Labels are kept as the
sidecar's UTF-8 bytes plus row offsets (:class:`Labels`); a row is
decoded and split into (class, text) only when it is accessed (a
retrieve's top k, traverse's texts, classify's rows), and the per-row
class is one code array, read from the first byte of each row, that
class lookups and statistics share.

Classification is batched: :func:`class_scores` builds the K class
embeddings once and scores all I images against them in one matrix
product; the typed single-image :func:`classify` is a thin wrapper over
it.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import entailment, geometry
from .geometry import CURV_MAX, CURV_MIN, HyperbolicPoint
from .hierarchy import MAX_BINS, MAX_TRAVERSE_STEPS
from .losses import LossParams

LABEL_CLASSES = ("text", "image", "root")
ROOT_LABEL = "[ROOT]"
SPHERE_NORM_TOL = 1e-6
# Relative gap tolerated between an image curvature and the clamped
# curvature of LossParams, which stores c in log space: exp(log(c)) can
# miss c by an ulp or two.
CURV_RTOL = 1e-12

_CLASS_CODES = {cls: code for code, cls in enumerate(LABEL_CLASSES)}
_ROOT_CODE = _CLASS_CODES["root"]
_LINE_PREFIXES = tuple(f"{cls}\t".encode("ascii") for cls in LABEL_CLASSES)
# A valid line's first byte names its class: the classes' initials differ.
_CODE_OF_INITIAL = np.full(256, -1, dtype=np.int8)
_CODE_OF_INITIAL[[prefix[0] for prefix in _LINE_PREFIXES]] = range(len(LABEL_CLASSES))


class LabelClassError(ValueError):
    """A label line that does not start with a class in LABEL_CLASSES and a tab."""

    def __init__(self, row: int, line: str):
        super().__init__(f"unknown label class at row {row}: {line!r}")
        self.row = row
        self.line = line


def _row_starts(data: bytes) -> np.ndarray:
    """Offsets of the rows of "\\n"-ended lines, then the byte length."""
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    return np.concatenate([[0], ends + 1])


class Labels(Sequence):
    """(class, text) per row, held as the label sidecar's bytes: one UTF-8
    "class<TAB>text\\n" line per row, back to back, plus the int64 offset
    at which each row starts (and, last, the byte length).  A row is
    decoded and split only when it is accessed, and the class codes come
    from whole-buffer numpy work, so reading a dump builds no per-row
    object."""

    __slots__ = ("data", "starts")

    def __init__(self, lines):
        """From "class<TAB>text" lines, encoded once.  One newline scan
        finds the rows, unless a line holds a "\\n" of its own (which
        `write_dump` then refuses); then the lines' byte lengths do."""
        lines = [*lines, ""]
        self.data = "\n".join(lines).encode("utf-8")
        self.starts = _row_starts(self.data)
        if self.starts.size != len(lines):
            sizes = [len(line.encode("utf-8")) + 1 for line in lines[:-1]]
            self.starts = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])

    @classmethod
    def _of(cls, data: bytes, starts: np.ndarray) -> "Labels":
        out = cls.__new__(cls)
        out.data, out.starts = data, starts
        return out

    @classmethod
    def from_sidecar(cls, data: bytes) -> "Labels":
        """Rows of UTF-8 sidecar bytes with "\\n" line ends; a last line
        without its "\\n" is a row too."""
        if data and not data.endswith(b"\n"):
            data += b"\n"
        return cls._of(data, _row_starts(data))

    @classmethod
    def from_pairs(cls, pairs) -> "Labels":
        """From (class, text) pairs, in one pass that keeps no pair: held
        as 200,000 tuples, they cost the cyclic GC more than the
        formatting."""
        lines = []
        for row, (c, t) in enumerate(pairs):
            if c not in _CLASS_CODES:
                raise LabelClassError(row, f"{c}\t{t}")
            lines.append(f"{c}\t{t}")
        return cls(lines)

    def class_codes(self) -> np.ndarray:
        """Per-row index into LABEL_CLASSES, from the first byte of each
        row; the rest of each class prefix is checked one byte column at a
        time.  Raises LabelClassError at the first bad row."""
        buf = np.frombuffer(self.data, dtype=np.uint8)
        heads = self.starts[:-1]
        codes = _CODE_OF_INITIAL[buf[heads]]
        bad = codes < 0
        for code, prefix in enumerate(_LINE_PREFIXES):
            rows = codes == code
            at = heads[rows]
            miss = np.zeros(at.size, dtype=bool)
            # A row shorter than its prefix misses at its "\n"; the bound
            # keeps a short last row's reads inside the buffer.
            for j in range(1, len(prefix)):
                miss |= buf[np.minimum(at + j, buf.size - 1)] != prefix[j]
            bad[rows] = miss
        if bad.any():
            row = int(np.argmax(bad))
            raise LabelClassError(row, self.line(row))
        return codes

    def line(self, i: int) -> str:
        """Row i's "class<TAB>text" line, decoded."""
        i = range(len(self))[i]
        return self.data[self.starts[i]:self.starts[i + 1] - 1].decode("utf-8")

    @property
    def lines(self) -> tuple[str, ...]:
        """Every row's line, decoded."""
        bounds = self.starts.tolist()
        return tuple(self.data[a:b - 1].decode("utf-8") for a, b in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Labels(self.lines[i])
        cls, _, text = self.line(i).partition("\t")
        return cls, text

    def __iter__(self):
        for cls, _, text in map(str.partition, self.lines, repeat("\t")):
            yield cls, text

    def __add__(self, other) -> "Labels":
        other = other if isinstance(other, Labels) else Labels.from_pairs(other)
        return Labels._of(self.data + other.data,
                          np.concatenate([self.starts, other.starts[1:] + len(self.data)]))

    def __eq__(self, other) -> bool:
        if isinstance(other, Labels):
            return self.data == other.data and np.array_equal(self.starts, other.starts)
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(map(tuple, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Labels({list(self)!r})"


@dataclass(frozen=True)
class Lorentz:
    """Hyperboloid of curvature -c.  Rows are space components, [ROOT] is
    the origin, scores are Lorentzian inner products, and the cone filter
    keeps the texts whose entailment cone holds a step.  c lies in the
    trainer's clamp range [CURV_MIN, CURV_MAX], as every writer's does."""

    c: float

    def __post_init__(self):
        if self.c is None or not (CURV_MIN <= self.c <= CURV_MAX):
            raise ValueError(f"lorentz curvature must lie in [{CURV_MIN}, {CURV_MAX}], got {self.c}")

    def check_rows(self, rows: np.ndarray, first_row: int) -> None:
        """Every finite row is a point: its time component is derived.
        One sum screens all rows; a non-finite one is located only then."""
        with np.errstate(invalid="ignore", over="ignore"):     # inf - inf, or a finite overflow
            total = rows.sum()
        if not np.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:    # else the sum overflowed on finite rows
                raise ValueError(f"lorentz row {first_row + int(bad[0])} has a non-finite component")

    def root(self, vectors: np.ndarray, root_id: int | None = None) -> np.ndarray:
        return np.zeros(vectors.shape[1])

    def root_proxy(self, rows: np.ndarray, root: np.ndarray) -> np.ndarray:
        return np.linalg.norm(rows, axis=-1)

    def interpolate(self, y: np.ndarray, root: np.ndarray, ts: np.ndarray) -> list[np.ndarray]:
        v = np.asarray(geometry.log_space(y, self.c))
        return [np.asarray(geometry.exp_space(v * (1.0 - t), self.c)) for t in ts]

    def inner(self, rows: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Scores of N rows against one vector (N,) or K rows (N x K)."""
        rows_t = np.asarray(geometry.time_part(rows, self.c))
        other_t = np.asarray(geometry.time_part(other, self.c))
        prod = rows @ other.T
        return prod - (rows_t * other_t.T).reshape(prod.shape)

    def distance(self, inner: np.ndarray) -> np.ndarray:
        return np.asarray(geometry.dist_from_inner(inner, self.c))

    def lift(self, rows: np.ndarray, scale: float) -> np.ndarray:
        """Pre-lift rows, scaled, through the origin exponential map."""
        return np.asarray(geometry.exp_space(rows * scale, self.c))

    def cone(self, apexes: np.ndarray, y: np.ndarray, boundary: float, slack: float) -> np.ndarray:
        """Apexes whose cone holds y (hinge <= slack); none at the origin,
        where the cone formula is undefined."""
        if float(np.dot(y, y)) == 0.0:
            return np.zeros(apexes.shape[0], dtype=bool)
        apex_t = np.asarray(geometry.time_part(apexes, self.c))
        y_t = np.broadcast_to(np.asarray(geometry.time_part(y, self.c)), apex_t.shape)
        hinge = entailment.hinge_rows(apexes, apex_t, np.broadcast_to(y, apexes.shape), y_t,
                                      self.c, boundary)
        return np.asarray(hinge)[:, 0] <= slack


@dataclass(frozen=True)
class Sphere:
    """Unit sphere of the CLIP-style baseline.  Rows are unit vectors,
    [ROOT] is the normalized mean of all rows, scores are cosines, and the
    cone filter keeps every row."""

    c = None    # no curvature parameter

    def check_rows(self, rows: np.ndarray, first_row: int) -> None:
        """Unit norms; `first_row` numbers the first of `rows` in errors."""
        if rows.shape[0]:
            norms = np.linalg.norm(rows, axis=1)
            off = np.abs(norms - 1.0)
            if not float(off.max()) <= SPHERE_NORM_TOL:   # NaN rows fail too
                bad = int(np.argmax(off))
                raise ValueError(
                    f"sphere row {first_row + bad} has norm {norms[bad]:.8f}, "
                    f"expected 1 within {SPHERE_NORM_TOL}"
                )

    def root(self, vectors: np.ndarray, root_id: int | None = None) -> np.ndarray:
        """Row `root_id` if given, else the normalized mean of all rows."""
        if root_id is not None:
            return vectors[root_id]
        mean = vectors.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if not norm >= 1e-9:
            raise ValueError("degenerate sphere root: mean embedding has near-zero norm")
        return mean / norm

    def root_proxy(self, rows: np.ndarray, root: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 - rows @ root)

    def interpolate(self, y: np.ndarray, root: np.ndarray, ts: np.ndarray) -> list[np.ndarray]:
        out = []
        for t in ts:
            mix = (1.0 - t) * y + t * root
            norm = float(np.linalg.norm(mix))
            if norm < 1e-9:
                raise ValueError(f"sphere interpolation passes through zero at t={t:.4f}")
            out.append(mix / norm)
        return out

    def inner(self, rows: np.ndarray, other: np.ndarray) -> np.ndarray:
        return rows @ other.T

    def distance(self, inner: np.ndarray) -> np.ndarray:
        raise ValueError("calibrated scores are defined for lorentz indexes only")

    def lift(self, rows: np.ndarray, scale: float) -> np.ndarray:
        """Pre-lift rows normalized to unit length; the scale cancels."""
        norms = np.linalg.norm(rows, axis=-1, keepdims=True)
        small = np.flatnonzero(norms < 1e-9)
        if small.size:
            raise ValueError(f"row {small[0]} has near-zero norm and no direction on the sphere")
        return rows / norms

    def cone(self, apexes: np.ndarray, y: np.ndarray, boundary: float, slack: float) -> np.ndarray:
        return np.ones(apexes.shape[0], dtype=bool)


def space_of(name: str, curvature: float | None = None) -> Lorentz | Sphere:
    if name == "lorentz":
        return Lorentz(curvature)
    if name == "sphere":
        return Sphere()
    raise ValueError(f"unknown space {name!r}")


@dataclass(frozen=True)
class EmbeddingIndex:
    space: str                        # "lorentz" | "sphere"
    curvature: float | None           # lorentz only; set to None on the sphere
    vectors: np.ndarray               # N x n float64 space components
    labels: Labels                    # (class, text) per row; pairs are converted
    root_id: int | None = None        # default: the first row of class "root", if any
    classes: np.ndarray = field(init=False, repr=False, compare=False)  # codes into LABEL_CLASSES
    geom: Lorentz | Sphere = field(init=False, repr=False, compare=False)  # space_of(space, curvature)

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"index vectors must be N x n, got shape {vectors.shape}")
        labels = self.labels if isinstance(self.labels, Labels) else Labels.from_pairs(self.labels)
        if vectors.shape[0] != len(labels):
            raise ValueError(
                f"row count {vectors.shape[0]} != label count {len(labels)}"
            )
        classes = labels.class_codes()
        geom = space_of(self.space, self.curvature)
        geom.check_rows(vectors, 0)
        object.__setattr__(self, "geom", geom)
        object.__setattr__(self, "curvature", geom.c)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)
        if self.root_id is None:
            roots = np.flatnonzero(classes == _ROOT_CODE)
            if roots.size:
                object.__setattr__(self, "root_id", int(roots[0]))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def rows_of_class(self, cls: str) -> np.ndarray:
        return np.flatnonzero(self.classes == _CLASS_CODES.get(cls, -1))


def estimate_root(index: EmbeddingIndex) -> np.ndarray:
    """[ROOT] vector for an index: the hyperboloid origin (all-zero space
    components) for lorentz, the normalized mean of all rows for sphere."""
    if index.count == 0:
        raise ValueError("cannot estimate a root for an empty index")
    return index.geom.root(index.vectors)


def with_root(index: EmbeddingIndex) -> EmbeddingIndex:
    """Index with a [ROOT] entry appended (no-op if already present).

    The existing rows were validated when `index` was built; only the
    appended row is checked.
    """
    if index.root_id is not None:
        return index
    root = estimate_root(index)[None, :]
    index.geom.check_rows(root, index.count)
    out = copy.copy(index)   # a frozen dataclass copy; __post_init__ does not run
    for name, value in (
        ("vectors", np.vstack([index.vectors, root])),
        ("labels", index.labels + (("root", ROOT_LABEL),)),
        ("classes", np.append(index.classes, np.int8(_ROOT_CODE))),
        ("root_id", index.count),
    ):
        object.__setattr__(out, name, value)
    return out


# ---------------------------------------------------------------------------
# Radial statistics
# ---------------------------------------------------------------------------

def root_distance_proxy(index: EmbeddingIndex, rows: np.ndarray | None = None) -> np.ndarray:
    """Monotone distance-from-[ROOT] proxy per row.

    lorentz: ||z_space||; sphere: 0.5 * (1 - <z, root>).
    """
    vectors = index.vectors if rows is None else np.asarray(rows, dtype=np.float64)
    return index.geom.root_proxy(vectors, index.geom.root(index.vectors, index.root_id))


@dataclass(frozen=True)
class ClassStats:
    count: int
    mean: float
    std: float
    quantiles: tuple[float, float, float, float, float]   # min, q25, median, q75, max
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def root_distance_stats(index: EmbeddingIndex, bins: int = 32) -> dict[str, ClassStats]:
    """Per-label-class histogram and summary of the root-distance proxy;
    `bins` is at most MAX_BINS."""
    if not (1 <= bins <= MAX_BINS):
        raise ValueError(f"need 1 <= bins <= {MAX_BINS}, got {bins}")
    if index.count == 0:
        raise ValueError("cannot compute statistics of an empty index")
    proxies = root_distance_proxy(index)
    out: dict[str, ClassStats] = {}
    for cls in LABEL_CLASSES:
        rows = index.rows_of_class(cls)
        if rows.size == 0:
            continue
        vals = proxies[rows]
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            edges = np.array([lo, hi])
            counts = np.array([vals.size])
        else:
            counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
        out[cls] = ClassStats(
            count=int(vals.size),
            mean=float(vals.mean()),
            std=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            quantiles=tuple(float(q) for q in np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])),
            hist_edges=edges,
            hist_counts=counts,
        )
    return out


def stats_summary_csv(stats: dict[str, ClassStats]) -> str:
    lines = ["class,count,mean,std,q0,q25,q50,q75,q100"]
    for cls, s in stats.items():
        q = ",".join(f"{v:.10g}" for v in s.quantiles)
        lines.append(f"{cls},{s.count},{s.mean:.10g},{s.std:.10g},{q}")
    return "\n".join(lines) + "\n"


def stats_hist_csv(stats: dict[str, ClassStats]) -> str:
    lines = ["class,bin_lo,bin_hi,count"]
    for cls, s in stats.items():
        for i, n in enumerate(s.hist_counts):
            lines.append(
                f"{cls},{s.hist_edges[i]:.10g},{s.hist_edges[i + 1]:.10g},{int(n)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Geodesic interpolation and traversal
# ---------------------------------------------------------------------------

def interpolate_steps(y, index: EmbeddingIndex, steps: int = 50) -> list[np.ndarray]:
    """Equally spaced walk from an embedding to [ROOT]; step 0 is y, the
    last step is [ROOT] exactly.

    lorentz: linear interpolation of the origin log map, lifted back via
    the exponential map (the radial distance shrinks linearly).  sphere:
    linear interpolation toward the root vector, re-normalized per step.
    `steps` is at most MAX_TRAVERSE_STEPS.
    """
    if steps < 2:
        raise ValueError("need at least 2 interpolation steps")
    if steps > MAX_TRAVERSE_STEPS:
        raise ValueError(f"need at most {MAX_TRAVERSE_STEPS} interpolation steps, got {steps}")
    y = np.asarray(y, dtype=np.float64)
    root = index.geom.root(index.vectors, index.root_id)
    out = index.geom.interpolate(y, root, np.linspace(0.0, 1.0, steps))
    out[0], out[-1] = y.copy(), root.copy()
    return out


@dataclass(frozen=True)
class TraversalResult:
    """Per-step retrievals plus the deduplicated first-hit view."""

    steps: tuple[tuple[int, str], ...]
    unique: tuple[str, ...]


def traverse(y, text_index: EmbeddingIndex, steps: int = 50, cone_slack: float = 0.0,
             cone_boundary: float = entailment.CONE_BOUNDARY) -> TraversalResult:
    """Walk an embedding to [ROOT], retrieving the best text at each step.

    Candidates are [ROOT], which always qualifies, and the texts whose
    cone holds the step (the space's cone filter): on lorentz, hinge loss
    <= cone_slack, and no text at the exact origin, where the cone formula
    is undefined; on the sphere, every text.  Scoring is by the space's
    inner product.  Ties prefer [ROOT], then the lowest row index.  A
    cone boundary that is not finite and positive is a ValueError.
    """
    cone_boundary = entailment.ConeParams(cone_boundary).boundary
    if text_index.root_id is None:
        raise ValueError("traversal needs an index with a [ROOT] entry")
    cand = np.concatenate([[text_index.root_id], text_index.rows_of_class("text")])
    vectors = text_index.vectors[cand]
    geom = text_index.geom
    retrieved: list[tuple[int, str]] = []
    # A query too long to lift overflows: one error, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, step in enumerate(interpolate_steps(y, text_index, steps=steps)):
            scores = geom.inner(vectors, step)    # not finite either if the step is not
            if not np.isfinite(scores).all():
                row = cand[np.argmin(np.isfinite(scores))]
                raise ValueError(f"traversal step {k} scores non-finite against row {row}")
            scores[1:][~geom.cone(vectors[1:], step, cone_boundary, cone_slack)] = -np.inf
            best = int(np.argmax(scores))   # the first maximum: [ROOT], then the lowest row
            retrieved.append((k, text_index.labels[cand[best]][1]))

    unique: list[str] = []
    for _, label in retrieved:
        if label not in unique:
            unique.append(label)
    return TraversalResult(steps=tuple(retrieved), unique=tuple(unique))


# ---------------------------------------------------------------------------
# Retrieval and classification
# ---------------------------------------------------------------------------

def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k highest scores, descending; ties keep the lower row
    first (the first k of a stable argsort of -scores)."""
    neg = -scores
    if k < neg.size:
        kth = np.partition(neg, k - 1)[k - 1]
        # Every row that can make the top k, in row order: those at or
        # above the k-th score.  NaN compares false, so a NaN kth keeps
        # every row and NaN rows still sort last, as in a full argsort.
        cand = np.flatnonzero(~(neg > kth))
    else:
        cand = np.arange(neg.size)
    return cand[np.argsort(neg[cand], kind="stable")[:k]]


@dataclass(frozen=True)
class Retrieved:
    row: int
    label_class: str
    label: str
    score: float


def retrieve(query, index: EmbeddingIndex, k: int, calibrated: bool = False,
             tau: float = 1.0) -> list[Retrieved]:
    """Top-k index rows for a query embedding.

    lorentz ranks by Lorentzian inner product (descending; equivalently
    ascending distance); sphere ranks by cosine.  calibrated=True returns
    softmax(-distance / tau) scores instead of raw similarities (lorentz
    only).  Ties break toward the lower row index; k=0 yields [].
    """
    if k < 0 or k > index.count:
        raise ValueError(f"k must be in [0, {index.count}]")
    if k == 0:
        return []
    if calibrated and not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be a finite positive number, got {tau}")
    # A query too long to lift overflows: one error, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = index.geom.inner(index.vectors, np.asarray(query, dtype=np.float64))
        if calibrated:
            z = -index.geom.distance(scores) / tau
            z -= z.max()
            e = np.exp(z)
            scores = e / e.sum()
    if not np.isfinite(scores).all():
        raise ValueError(f"query scores non-finite against row {np.argmin(np.isfinite(scores))}")
    order = _top_k(scores, k)
    return [
        Retrieved(
            row=int(i),
            label_class=index.labels[i][0],
            label=index.labels[i][1],
            score=float(scores[i]),
        )
        for i in order
    ]


@dataclass(frozen=True)
class Classification:
    scores: dict[str, float]
    predicted: str


@dataclass(frozen=True)
class ClassScores:
    """Scores of I images (rows) against K classes (columns)."""

    names: tuple[str, ...]     # class names in sorted order
    scores: np.ndarray         # I x K

    def predicted(self) -> list[str]:
        """Best class per image; ties go to the first name in sorted order."""
        return [self.names[k] for k in np.argmax(self.scores, axis=1)]


def class_scores(images, prompt_sets: dict[str, list], params: LossParams,
                 curvature: float | None = None) -> ClassScores:
    """Zero-shot classification with prompt ensembling, for I images at once.

    Each class embeds as the arithmetic mean of its pre-lift prompt
    vectors.  With a curvature, `images` are hyperboloid space components
    at that curvature (it must match the clamped curvature of `params`):
    each mean is scaled by the text scale, lifted once, and all I x K
    pairs are scored by Lorentzian inner product in one matrix product.
    Without one, `images` are unit vectors (sphere): the means are
    re-normalized and scored by cosine.
    """
    if not prompt_sets:
        raise ValueError("need at least one class")
    names = tuple(sorted(prompt_sets))
    means = []
    for name in names:
        prompts = prompt_sets[name]
        if len(prompts) == 0:
            raise ValueError(f"class {name!r} has no prompt vectors")
        mat = np.asarray(prompts, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"class {name!r} prompts must be a list of vectors")
        means.append(mat.mean(axis=0))
    if curvature is None:
        space = Sphere()
    else:
        space = Lorentz(params.curv().c)
        if not math.isclose(curvature, space.c, rel_tol=CURV_RTOL):
            raise ValueError(
                f"image embedding curvature {curvature} differs from params curvature {space.c}"
            )
    # A prompt mean too long to lift overflows; report it as one error
    # rather than as numpy warnings and NaN scores.
    with np.errstate(over="ignore", invalid="ignore"):
        classes = space.lift(np.stack(means), params.scale_txt())
        scores = space.inner(np.asarray(images, dtype=np.float64), classes)
    if not np.isfinite(scores).all():
        i, k = np.argwhere(~np.isfinite(scores))[0]
        raise ValueError(f"image row {i} scores non-finite against class {names[k]!r}")
    return ClassScores(names=names, scores=scores)


def classify(image_embedding, prompt_sets: dict[str, list], params: LossParams) -> Classification:
    """Zero-shot classification of one image: :func:`class_scores` for a
    :class:`HyperbolicPoint` (Lorentzian inner product at its curvature)
    or a unit vector (cosine).  Ties predict the first class in sorted
    name order.
    """
    if isinstance(image_embedding, HyperbolicPoint):
        row, curvature = image_embedding.space, image_embedding.curv.c
    else:
        row, curvature = np.asarray(image_embedding, dtype=np.float64), None
    res = class_scores(row[None, :], prompt_sets, params, curvature)
    return Classification(scores=dict(zip(res.names, res.scores[0].tolist())),
                          predicted=res.predicted()[0])
