"""Embedding dump files: binary vectors plus a text label sidecar.

Layout (all little-endian):

    magic   4 bytes  b"HYPB"
    version u32      1
    space   u8       0 = lorentz, 1 = sphere
    dim     u32
    count   u64
    curv    f64      ignored for sphere
    payload count * dim float32 space components

The sidecar shares the dump's basename with a ".labels" extension; one
"class<TAB>text" line per row, class in {text, image, root}.  Lines end
in "\n" (read in text mode, so "\r\n" and "\r" count as "\n" too); the
text may hold tabs and any other character, and the writer refuses
labels holding "\n" or "\r", which could not be read back.  Dumps are
interchange artifacts: storage is 32-bit, all math promotes to 64-bit on
load.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .analysis import EmbeddingIndex, LabelClassError, Labels

MAGIC = b"HYPB"
VERSION = 1
_HEADER = struct.Struct("<4sIBIQd")
SPACE_CODES = {"lorentz": 0, "sphere": 1}
SPACE_NAMES = {v: k for k, v in SPACE_CODES.items()}


class DumpFormatError(ValueError):
    """Malformed dump or label sidecar."""


def labels_path(path) -> Path:
    return Path(path).with_suffix(".labels")


def atomic_write(path: Path, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, then rename it over
    `path`: readers see the old bytes or the new, never a partial file.
    The temp file is created exclusively, under a random name, with the
    mode a plain write gives (0o666 less the umask)."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dump(index: EmbeddingIndex, path) -> tuple[Path, Path]:
    """Write an index as a dump/labels file pair; returns both paths."""
    path = Path(path)
    header = _HEADER.pack(
        MAGIC, VERSION, SPACE_CODES[index.space], index.dim, index.count, index.curvature or 0.0
    )
    sidecar = "\n".join([*index.labels.lines, ""])
    if sidecar.count("\n") != index.count or "\r" in sidecar:
        row, text = next((i, text) for i, (_, text) in enumerate(index.labels)
                         if "\n" in text or "\r" in text)
        raise ValueError(f"label of row {row} holds a line break and cannot be read back: {text!r}")
    payload = np.ascontiguousarray(index.vectors, dtype="<f4").tobytes()
    atomic_write(path, header + payload)

    lpath = labels_path(path)
    atomic_write(lpath, sidecar.encode("utf-8"))
    return path, lpath


def read_dump(path) -> EmbeddingIndex:
    """Load a dump/labels pair, validating format and invariants."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DumpFormatError(
            f"truncated header: got {len(raw)} bytes, need {_HEADER.size}"
        )
    magic, version, space_code, dim, count, curv = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise DumpFormatError(f"bad magic at offset 0: {magic!r}")
    if version != VERSION:
        raise DumpFormatError(f"unsupported version {version} at offset 4")
    if space_code not in SPACE_NAMES:
        raise DumpFormatError(f"unknown space code {space_code} at offset 8")
    expected = count * dim * 4
    got = len(raw) - _HEADER.size
    if got != expected:
        raise DumpFormatError(
            f"payload length mismatch at offset {_HEADER.size}: "
            f"expected {expected} bytes, found {got}"
        )
    with np.errstate(invalid="ignore"):     # a signalling NaN; the row check reports it
        vectors = (
            np.frombuffer(raw, dtype="<f4", count=count * dim, offset=_HEADER.size)
            .astype(np.float64)
            .reshape(count, dim)
        )

    lpath = labels_path(path)
    try:
        text = lpath.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise DumpFormatError(f"missing label sidecar {lpath}") from exc
    lines = text.split("\n")
    if lines[-1] == "":     # after the last line's "\n" (or in an empty sidecar)
        lines.pop()
    if len(lines) != count:
        raise DumpFormatError(
            f"label count mismatch: dump has {count} rows, sidecar has {len(lines)}"
        )
    try:
        return EmbeddingIndex(
            space=SPACE_NAMES[space_code],
            curvature=curv,     # the index drops it on the sphere
            vectors=vectors,
            labels=Labels(lines),
        )
    except LabelClassError as exc:
        raise DumpFormatError(f"bad label line {exc.row}: {lines[exc.row]!r}") from exc
