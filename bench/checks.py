"""The benchmark's own readers and writers of hycone's file formats, and
the checks it applies to every command's output.

Nothing here imports hycone: the expected results are computed from the
raw bytes the program wrote, so a defect in the program's readers or
kernels cannot hide itself.  Each check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

DUMP_HEADER = struct.Struct("<4sIBIQd")   # magic, version, space, dim, count, curvature
ROOT_LABEL = "[ROOT]"


class Dump:
    """A dump/labels pair read from its raw bytes."""

    def __init__(self, path):
        path = Path(path)
        raw = path.read_bytes()
        magic, version, space, dim, count, curv = DUMP_HEADER.unpack_from(raw, 0)
        if magic != b"HYPB" or version != 1:
            raise ValueError(f"{path}: not a version-1 dump")
        self.space = {0: "lorentz", 1: "sphere"}[space]
        self.curvature = curv
        self.count = count
        self.vectors = (
            np.frombuffer(raw, dtype="<f4", count=count * dim, offset=DUMP_HEADER.size)
            .astype(np.float64)
            .reshape(count, dim)
        )
        lines = path.with_suffix(".labels").read_text(encoding="utf-8").splitlines()
        # A numpy array, not 200k tuples: objects the benchmark keeps alive
        # would make every garbage collection inside the program slower.
        self.classes = np.array([line.partition("\t")[0] for line in lines])
        if len(self.classes) != count:
            raise ValueError(f"{path}: {len(self.classes)} labels for {count} rows")

    def rows_of_class(self, cls: str) -> list[int]:
        return np.flatnonzero(self.classes == cls).tolist()


def dump_count(path) -> int:
    """Row count from a dump's header alone."""
    with open(path, "rb") as fh:
        magic, version, _, _, count, _ = DUMP_HEADER.unpack(fh.read(DUMP_HEADER.size))
    if magic != b"HYPB" or version != 1:
        raise ValueError(f"{path}: not a version-1 dump")
    return count


def write_dump(path, vectors: np.ndarray, labels: list[tuple[str, str]], curvature: float) -> None:
    """Write a Lorentz-space dump/labels pair (the prompt-set input format)."""
    path = Path(path)
    vectors = np.asarray(vectors, dtype=np.float64)
    header = DUMP_HEADER.pack(b"HYPB", 1, 0, vectors.shape[1], vectors.shape[0], curvature)
    path.write_bytes(header + np.ascontiguousarray(vectors, dtype="<f4").tobytes())
    path.with_suffix(".labels").write_text(
        "".join(f"{c}\t{t}\n" for c, t in labels), encoding="utf-8"
    )


def read_checkpoint_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(config, tensors) of a checkpoint file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"HYEC":
        raise ValueError(f"{path}: bad checkpoint magic")
    off = 8
    (n,) = struct.unpack_from("<I", raw, off)
    config = json.loads(raw[off + 4: off + 4 + n])
    off += 4 + n
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    tensors = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<H", raw, off)
        name = raw[off + 2: off + 2 + n].decode("utf-8")
        off += 2 + n
        ndim = raw[off]
        shape = struct.unpack_from(f"<{ndim}I", raw, off + 1)
        off += 1 + 4 * ndim
        size = math.prod(shape)
        tensors[name] = np.frombuffer(raw, dtype="<f8", count=size, offset=off).reshape(shape)
        off += 8 * size
    return config, tensors


def text_encoder_rows(tensors: dict[str, np.ndarray], latents: np.ndarray) -> np.ndarray:
    """Pre-lift text rows: the trained text encoder applied to latents."""
    if "txt_w1" in tensors:
        h = np.tanh(latents @ tensors["txt_w1"] + tensors["txt_b1"])
        return h @ tensors["txt_w2"] + tensors["txt_b2"]
    return latents @ tensors["txt_w"] + tensors["txt_b"]


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _time_part(space: np.ndarray, c: float) -> np.ndarray:
    return np.sqrt(np.sum(space * space, axis=-1, keepdims=True) + 1.0 / c)


def expected_top_k(dump: Dump, row: int, k: int, calibrated: bool, tau: float) -> list[int]:
    """Brute-force ranking: a stable descending sort of every row's score."""
    q = dump.vectors[row]
    if dump.space == "sphere":
        scores = dump.vectors @ q
    else:
        c = dump.curvature
        inner = dump.vectors @ q - _time_part(dump.vectors, c)[:, 0] * _time_part(q, c).item()
        scores = inner
        if calibrated:
            d = np.arccosh(np.clip(-(inner * c), 1.0, None)) / np.sqrt(c)
            z = -d / tau
            z -= z.max()
            e = np.exp(z)
            scores = e / e.sum()
    return [int(i) for i in np.argsort(-scores, kind="stable")[:k]]


def check_retrieve(out: str, row: int, want: list[int]):
    """`want` is expected_top_k of the dump the command read."""
    got = [r["row"] for r in json.loads(out)["results"]]
    if got != want:
        return f"retrieve row {row}: top-{len(want)} {got[:4]}... != brute force {want[:4]}..."
    return None


def check_dump_count(path, rows: int):
    count = dump_count(path)
    return None if count == rows else f"dump has {count} rows, expected {rows}"


def check_traverse(out: str, steps: int):
    step_lines = [ln.split(",", 2) for ln in out.splitlines() if ln.startswith("step,")]
    if len(step_lines) != steps:
        return f"traverse printed {len(step_lines)} steps, asked for {steps}"
    if step_lines[-1][2] != ROOT_LABEL:
        return f"traverse ends at {step_lines[-1][2]!r}, not {ROOT_LABEL}"
    return None


def check_stats(out: str, rows: int):
    lines = out.splitlines()
    if not lines or not lines[0].startswith("class,count,"):
        return "stats summary header missing"
    total = 0
    for ln in lines[1:]:
        if ln.startswith("class,"):
            break
        total += int(ln.split(",")[1])
    if total != rows:
        return f"stats counts sum to {total}, dump has {rows} rows"
    return None


def check_classify(out: str, images: int):
    preds = json.loads(out)["predictions"]
    if len(preds) != images:
        return f"classify returned {len(preds)} predictions for {images} images"
    for p in preds:
        scores = p["scores"]
        best = max(sorted(scores), key=lambda name: scores[name])
        if p["predicted"] != best:
            return f"classify predicted {p['predicted']!r} for {p['image']!r}, argmax is {best!r}"
    return None


def check_curve(path, steps: int, final_total: float | None):
    """Curve has one finite row per step; optionally pins the final total
    loss to 6 decimals."""
    rows = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != steps:
        return f"curve has {len(rows)} rows for {steps} steps"
    values = np.array([[float(v) for v in r.split(",")] for r in rows])
    if not np.all(np.isfinite(values)):
        return "curve has non-finite values"
    if final_total is not None and round(values[-1, 3], 6) != final_total:
        return f"final total loss {values[-1, 3]:.6f} != expected {final_total:.6f}"
    return None
