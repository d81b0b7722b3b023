"""Embedding-space instruments: root estimation, radial statistics,
geodesic traversals with cone-filtered retrieval, ranked retrieval and
prompt-ensembled classification.

Works on an :class:`EmbeddingIndex` in either representation space,
:class:`Lorentz` (hyperboloid, [ROOT] at the origin, entailment cones) or
:class:`Sphere` (unit vectors, [ROOT] at the normalized mean, no cones).
Both have the same methods, and :func:`space_of` picks one per index:
nothing else branches on the space.

Indexes are immutable after load; every query here is read-only.  An
index keeps its rows as stored: a dump's float32 payload is read in
place.  Rows are validated when the index is built, and queries read
them ROW_BLOCK rows at a time, each block promoted to float64
(:func:`row_blocks`), so no float64 copy of the whole set is made.

Labels are kept as the sidecar's UTF-8 bytes plus row offsets
(:class:`Labels`); a row is decoded and split into (class, text) only
when it is accessed (a retrieve's top k, traverse's texts, classify's
rows), and the per-row class is one code array, read from the first byte
of each row, that class lookups and statistics share.

A traversal is one array: :func:`interpolate_steps` gives the walk as
one (steps, n) array, and :func:`traverse` scores it in blocks of steps,
each with one steps x candidates inner product, one cone mask and one
argmax per step; a block holds at most TRAVERSE_BLOCK float64 elements
of steps x candidates x dim, which bounds its memory.

Classification is batched: :func:`class_scores` builds the K class
embeddings once and scores all I images against them in one matrix
product; the typed single-image :func:`classify` is a thin wrapper over
it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
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

# Rows an index reads (as float64) or a dump writes (as float32) at a
# time; a module constant, not a flag.  OpenBLAS scores rows in groups of
# 4 and numpy scores a lone row with a dot product, each rounding its own
# way, so a block is a multiple of 4 rows and never one row alone: each
# row then gets the bits of a one-thread product over the whole set.  The
# blocks give those bits at 1 and 2 BLAS threads, where a whole-set
# product split between 2 threads rounds the rows at its split otherwise.
ROW_BLOCK = 8192

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
        """From "class<TAB>text" lines, each encoded once; a row starts
        where the lines before it end, so a line may hold a "\\n" of its
        own (which `write_dump` then refuses)."""
        encoded = [line.encode("utf-8") + b"\n" for line in lines]
        self.data = b"".join(encoded)
        self.starts = np.concatenate([[0], np.cumsum([len(b) for b in encoded], dtype=np.int64)])

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
            # The selected rows' byte ranges, gathered: no row is decoded.
            r = range(len(self))[i]
            rows = np.arange(r.start, r.stop, r.step)
            begin, end = self.starts[rows], self.starts[rows + 1]
            starts = np.concatenate([[0], np.cumsum(end - begin)])
            at = np.repeat(begin - starts[:-1], end - begin) + np.arange(starts[-1])
            return Labels._of(np.frombuffer(self.data, dtype=np.uint8)[at].tobytes(), starts)
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

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Labels({list(self)!r})"


def row_blocks(rows: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, float64 rows) of N x n `rows` of any float type,
    ROW_BLOCK rows at a time; a last block of one row joins the block
    before it."""
    n, start = rows.shape[0], 0
    while start < n:
        stop = start + ROW_BLOCK
        if stop + 1 == n:
            stop = n
        with np.errstate(invalid="ignore"):     # a signalling NaN; the row check reports it
            block = np.asarray(rows[start:stop], dtype=np.float64)
        yield start, block
        start = stop


def map_rows(fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The (N,) float64 results of a per-row `fn`, applied to the blocks
    of :func:`row_blocks`."""
    out = np.empty(rows.shape[0])
    for first, block in row_blocks(rows):
        out[first:first + block.shape[0]] = fn(block)
    return out


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

    def check_rows(self, rows: np.ndarray) -> None:
        """Every finite row is a point: its time component is derived.
        One float64 sum screens all rows, whatever their storage type; a
        non-finite one is located only then."""
        with np.errstate(invalid="ignore", over="ignore"):     # inf - inf, or a finite overflow
            total = rows.sum(dtype=np.float64)
        if not np.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:    # else the sum overflowed on finite rows
                raise ValueError(f"lorentz row {int(bad[0])} has a non-finite component")

    def root(self, vectors: np.ndarray, root_id: int | None = None) -> np.ndarray:
        return np.zeros(vectors.shape[1])

    def root_proxy(self, rows: np.ndarray, root: np.ndarray) -> np.ndarray:
        return np.linalg.norm(rows, axis=-1)

    def interpolate(self, y: np.ndarray, root: np.ndarray, ts: np.ndarray) -> np.ndarray:
        v = np.asarray(geometry.log_space(y, self.c))
        return np.asarray(geometry.exp_space(v * (1.0 - ts)[:, None], self.c))

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

    def cone(self, apexes: np.ndarray, steps: np.ndarray, boundary: float, slack: float) -> np.ndarray:
        """(steps, apexes) mask: whether each apex's cone holds each step
        (hinge <= slack).  A step at the origin, where the cone formula is
        undefined, is in no cone."""
        apex_t = np.asarray(geometry.time_part(apexes, self.c))
        steps_t = np.asarray(geometry.time_part(steps, self.c))
        hinge = entailment.hinge_rows(apexes, apex_t, steps[:, None], steps_t[:, None],
                                      self.c, boundary)
        return (np.asarray(hinge)[..., 0] <= slack) & (np.vecdot(steps, steps) != 0.0)[:, None]


@dataclass(frozen=True)
class Sphere:
    """Unit sphere of the CLIP-style baseline.  Rows are unit vectors,
    [ROOT] is the normalized mean of all rows, scores are cosines, and the
    cone filter keeps every row."""

    c = None    # no curvature parameter

    def check_rows(self, rows: np.ndarray) -> None:
        """Unit float64 norms; an error names the row furthest off."""
        if rows.shape[0]:
            norms = map_rows(lambda block: np.linalg.norm(block, axis=1), rows)
            off = np.abs(norms - 1.0)
            if not float(off.max()) <= SPHERE_NORM_TOL:   # NaN rows fail too
                bad = int(np.argmax(off))
                raise ValueError(
                    f"sphere row {bad} has norm {norms[bad]:.8f}, "
                    f"expected 1 within {SPHERE_NORM_TOL}"
                )

    def root(self, vectors: np.ndarray, root_id: int | None = None) -> np.ndarray:
        """Row `root_id` if given, else the normalized mean of all rows.
        The mean sums float32 rows in float64 one row after another, as a
        mean of their float64 copy does, and gives its bits."""
        if root_id is not None:
            return np.asarray(vectors[root_id], dtype=np.float64)
        mean = vectors.mean(axis=0, dtype=np.float64)
        norm = float(np.linalg.norm(mean))
        if not norm >= 1e-9:
            raise ValueError("degenerate sphere root: mean embedding has near-zero norm")
        return mean / norm

    def root_proxy(self, rows: np.ndarray, root: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 - rows @ root)

    def interpolate(self, y: np.ndarray, root: np.ndarray, ts: np.ndarray) -> np.ndarray:
        mix = (1.0 - ts)[:, None] * y + ts[:, None] * root
        norms = np.sqrt(np.vecdot(mix, mix))    # per-step norm bits, which norm(axis=1) can miss
        small = np.flatnonzero(norms < 1e-9)
        if small.size:
            raise ValueError(f"sphere interpolation passes through zero at t={ts[small[0]]:.4f}")
        return mix / norms[:, None]

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

    def cone(self, apexes: np.ndarray, steps: np.ndarray, boundary: float, slack: float) -> np.ndarray:
        return np.ones((steps.shape[0], apexes.shape[0]), dtype=bool)


def space_of(name: str, curvature: float | None = None) -> Lorentz | Sphere:
    if name == "lorentz":
        return Lorentz(curvature)
    if name == "sphere":
        return Sphere()
    raise ValueError(f"unknown space {name!r}")


@dataclass(frozen=True, init=False, eq=False)
class EmbeddingIndex:
    """Labelled rows of one space.  Built from `vectors` (N x n space
    components) and `labels`; float32 rows are kept as they are, without
    a copy, and any other rows as float64.  Queries read the rows through
    :func:`row_blocks`; :attr:`vectors` is the whole set as float64, made
    anew on each access.  Indexes compare and hash by identity."""

    space: str                        # "lorentz" | "sphere"
    curvature: float | None           # lorentz only; set to None on the sphere
    payload: np.ndarray = field(repr=False)   # N x n rows as stored: float32 or float64
    labels: Labels                    # (class, text) per row; pairs are converted
    root_id: int | None               # the first row of class "root", if any
    classes: np.ndarray = field(repr=False)   # codes into LABEL_CLASSES
    geom: Lorentz | Sphere = field(repr=False)   # space_of(space, curvature)

    def __init__(self, space: str, curvature: float | None, vectors, labels):
        for name, value in (("space", space), ("curvature", curvature),
                            ("payload", vectors), ("labels", labels)):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        rows = self.payload
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.float32):
            rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"index vectors must be N x n, got shape {rows.shape}")
        labels = self.labels if isinstance(self.labels, Labels) else Labels.from_pairs(self.labels)
        if rows.shape[0] != len(labels):
            raise ValueError(
                f"row count {rows.shape[0]} != label count {len(labels)}"
            )
        classes = labels.class_codes()
        geom = space_of(self.space, self.curvature)
        geom.check_rows(rows)
        object.__setattr__(self, "geom", geom)
        object.__setattr__(self, "curvature", geom.c)
        object.__setattr__(self, "payload", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)
        roots = np.flatnonzero(classes == _ROOT_CODE)
        object.__setattr__(self, "root_id", int(roots[0]) if roots.size else None)

    @property
    def count(self) -> int:
        return self.payload.shape[0]

    @property
    def dim(self) -> int:
        return self.payload.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """Every row as float64: the payload itself if it is float64, else
        a whole-set copy, which `stats`, `retrieve` and `traverse` never
        make."""
        return self.rows(slice(None))

    def rows(self, which) -> np.ndarray:
        """Rows `which` (a row number, slice or row array) as float64."""
        return np.asarray(self.payload[which], dtype=np.float64)

    def rows_of_class(self, cls: str) -> np.ndarray:
        return np.flatnonzero(self.classes == _CLASS_CODES.get(cls, -1))


def estimate_root(index: EmbeddingIndex) -> np.ndarray:
    """[ROOT] vector for an index: the hyperboloid origin (all-zero space
    components) for lorentz, the normalized mean of all rows for sphere."""
    if index.count == 0:
        raise ValueError("cannot estimate a root for an empty index")
    return index.geom.root(index.payload)


def with_root(index: EmbeddingIndex) -> EmbeddingIndex:
    """Index with a [ROOT] entry appended (no-op if already present).

    A new index, built and validated like any other, whose float64 rows
    are `index`'s rows followed by :func:`estimate_root`'s; :func:`traverse`
    needs no [ROOT] row.
    """
    if index.root_id is not None:
        return index
    return EmbeddingIndex(index.space, index.curvature,
                          np.vstack([index.payload, estimate_root(index)]),
                          index.labels + (("root", ROOT_LABEL),))


# ---------------------------------------------------------------------------
# Radial statistics
# ---------------------------------------------------------------------------

def root_distance_proxy(index: EmbeddingIndex) -> np.ndarray:
    """Monotone distance-from-[ROOT] proxy per row.

    lorentz: ||z_space||; sphere: 0.5 * (1 - <z, root>).
    """
    geom = index.geom
    root = geom.root(index.payload, index.root_id)
    return map_rows(lambda rows: geom.root_proxy(rows, root), index.payload)


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

# The most float64 elements a block of traversal steps scores at once,
# counted as block x candidates x dim (8 MB): the cone's largest
# intermediate has that shape.  A benchmark walk fits in one block.
TRAVERSE_BLOCK = 2**20


def interpolate_steps(y, index: EmbeddingIndex, steps: int = 50) -> np.ndarray:
    """Equally spaced walk from an embedding to [ROOT], one row per step;
    step 0 is y, the last step is [ROOT] exactly.

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
    root = index.geom.root(index.payload, index.root_id)
    out = index.geom.interpolate(y, root, np.linspace(0.0, 1.0, steps))
    out[0], out[-1] = y, root
    return out


@dataclass(frozen=True)
class TraversalResult:
    """Per-step retrievals plus the deduplicated first-hit view."""

    steps: tuple[tuple[int, str], ...]
    unique: tuple[str, ...]


def _check_query(query, index: EmbeddingIndex) -> np.ndarray:
    """The query as float64, checked as the index's rows are: one vector
    of the index's dimension, finite on lorentz, a unit vector on the
    sphere."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise ValueError(f"query has shape {query.shape}, index has dim {index.dim}")
    try:
        index.geom.check_rows(query[None])
    except ValueError as exc:
        raise ValueError(f"query is not a {index.space} point: {exc}") from None
    return query


def traverse(y, text_index: EmbeddingIndex, steps: int = 50, cone_slack: float = 0.0,
             cone_boundary: float = entailment.CONE_BOUNDARY) -> TraversalResult:
    """Walk an embedding to [ROOT], retrieving the best text at each step.

    Candidates are [ROOT] (the index's root row, else the space's root,
    so the index needs no [ROOT] row), which always qualifies, and the
    texts whose cone holds the step (the space's cone filter): on
    lorentz, hinge loss <= cone_slack, and no text at a step at the exact
    origin, where the cone formula is undefined; on the sphere, every
    text.  Scoring is by the space's inner product.  Ties prefer [ROOT],
    then the lowest row index.  The walk is scored in blocks of steps of at most
    TRAVERSE_BLOCK elements of steps x candidates x dim.  The query is
    checked as `retrieve` checks it.  A cone slack
    below 0 or NaN, or a cone boundary that is not finite and positive,
    is a ValueError; an infinite slack keeps every text.
    """
    cone_boundary = entailment.ConeParams(cone_boundary).boundary
    if not cone_slack >= 0.0:
        raise ValueError(f"cone slack must be >= 0, got {cone_slack}")
    texts = text_index.rows_of_class("text")
    # [ROOT] is the index's root row, or else the space's root, numbered
    # as the row `with_root` would append.
    root_id = text_index.root_id
    cand = np.concatenate([[text_index.count if root_id is None else root_id], texts])
    geom = text_index.geom
    block = max(1, TRAVERSE_BLOCK // max(cand.size * text_index.dim, 1))
    best = []
    # A query too long to lift overflows: one error, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        walk = interpolate_steps(_check_query(y, text_index), text_index, steps=steps)
        # The root row's vector, or else the walk's last step: the space's root exactly.
        root = walk[-1] if root_id is None else text_index.rows(root_id)
        vectors = np.vstack([root, text_index.rows(texts)])
        for first in range(0, steps, block):
            part = walk[first:first + block]
            scores = geom.inner(part, vectors)    # not finite either where a step is not
            finite = np.isfinite(scores)
            if not finite.all():
                k, j = np.argwhere(~finite)[0]
                raise ValueError(f"traversal step {first + k} scores non-finite against row {cand[j]}")
            scores[:, 1:][~geom.cone(vectors[1:], part, cone_boundary, cone_slack)] = -np.inf
            best.append(np.argmax(scores, axis=1))   # the first maximum: [ROOT], then the lowest row
    root_label = ROOT_LABEL if root_id is None else text_index.labels[root_id][1]
    labels = [text_index.labels[cand[j]][1] if j else root_label for j in np.concatenate(best)]
    return TraversalResult(steps=tuple(enumerate(labels)), unique=tuple(dict.fromkeys(labels)))


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
    ascending distance); sphere ranks by cosine.  The query is checked as
    the index's rows are: one vector of the index's dimension, finite on
    lorentz, a unit vector on the sphere.
    calibrated=True returns softmax(-distance / tau) scores instead of raw
    similarities (lorentz only).  Ties break toward the lower row index;
    k=0 yields [].
    """
    if k < 0 or k > index.count:
        raise ValueError(f"k must be in [0, {index.count}]")
    if k == 0:
        return []
    if calibrated and not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be a finite positive number, got {tau}")
    # A query too long to lift overflows: one error, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        query = _check_query(query, index)
        scores = map_rows(lambda rows: index.geom.inner(rows, query), index.payload)
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
    images = np.asarray(images, dtype=np.float64)
    if images.shape[-1] != means[0].shape[0]:
        raise ValueError(f"prompts have dim {means[0].shape[0]}, images have dim {images.shape[-1]}")
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
        scores = space.inner(images, classes)
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
