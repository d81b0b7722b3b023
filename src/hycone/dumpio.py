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
UTF-8 "class<TAB>text" line per row, class in {text, image, root}.  Lines
end in "\n" ("\r\n" and "\r" count as "\n" too, as in a text-mode
read); the text may hold tabs and any other character, and the writer
refuses labels holding "\n" or "\r", which could not be read back.  The
reader keeps the sidecar as bytes (:class:`Labels`): it decodes them once
only to check that they are UTF-8, finds the rows with one newline scan
and the class codes with whole-buffer numpy work, and a row's text is
decoded when it is accessed.  The writer writes those bytes back as they
are.  Dumps are interchange artifacts: storage is 32-bit, all math
promotes to 64-bit on load.

Writes are atomic (temp file + rename) and streamed: `write_dump`
converts, checks and writes the payload WRITE_BLOCK rows at a time.  A
row that float32 cannot hold stops the write, and any dump and labels
at the path stay as they were.
"""

from __future__ import annotations

import itertools
import os
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .analysis import EmbeddingIndex, LabelClassError, Labels

MAGIC = b"HYPB"
VERSION = 1
_HEADER = struct.Struct("<4sIBIQd")
SPACE_CODES = {"lorentz": 0, "sphere": 1}
SPACE_NAMES = {v: k for k, v in SPACE_CODES.items()}
# Rows converted to float32 and written at a time (a module constant, not
# a flag): 8,192 rows of width 16 are 512 KB.
WRITE_BLOCK = 8192


class DumpFormatError(ValueError):
    """Malformed dump or label sidecar."""


def labels_path(path) -> Path:
    return Path(path).with_suffix(".labels")


def atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the bytes-like `chunks`, in order, to a temp file beside
    `path`, then rename it over `path`: readers see the old bytes or the
    new, never a partial file.  If producing a chunk raises, the temp file
    is removed and `path` is untouched.  The temp file is created
    exclusively, under a random name, with the mode a plain write gives
    (0o666 less the umask)."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _float32_blocks(vectors: np.ndarray) -> Iterator[np.ndarray]:
    """`vectors` as little-endian float32, WRITE_BLOCK rows at a time;
    raises ValueError at the first row that float32 cannot hold."""
    for start in range(0, vectors.shape[0], WRITE_BLOCK):
        with np.errstate(over="ignore"):    # what float32 cannot hold becomes inf, refused below
            block = np.ascontiguousarray(vectors[start:start + WRITE_BLOCK], dtype="<f4")
        if not np.isfinite(block).all():
            row = start + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
            raise ValueError(f"row {row} does not fit the dump's float32 storage: "
                             f"a component is beyond {np.finfo(np.float32).max:.4g} in magnitude")
        yield block


def write_dump(index: EmbeddingIndex, path) -> tuple[Path, Path]:
    """Write an index as a dump/labels file pair; returns both paths."""
    path = Path(path)
    header = _HEADER.pack(
        MAGIC, VERSION, SPACE_CODES[index.space], index.dim, index.count, index.curvature or 0.0
    )
    sidecar = index.labels.data
    if sidecar.count(b"\n") != index.count or b"\r" in sidecar:
        row, text = next((i, text) for i, (_, text) in enumerate(index.labels)
                         if "\n" in text or "\r" in text)
        raise ValueError(f"label of row {row} holds a line break and cannot be read back: {text!r}")
    atomic_write(path, itertools.chain([header], _float32_blocks(index.vectors)))

    lpath = labels_path(path)
    atomic_write(lpath, [sidecar])
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
        data = lpath.read_bytes()
    except FileNotFoundError as exc:
        raise DumpFormatError(f"missing label sidecar {lpath}") from exc
    data.decode("utf-8")    # validation only: a row is decoded when accessed
    if b"\r" in data:       # universal newlines, as a text-mode read has them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    labels = Labels.from_sidecar(data)
    if len(labels) != count:
        raise DumpFormatError(
            f"label count mismatch: dump has {count} rows, sidecar has {len(labels)}"
        )
    try:
        return EmbeddingIndex(
            space=SPACE_NAMES[space_code],
            curvature=curv,     # the index drops it on the sphere
            vectors=vectors,
            labels=labels,
        )
    except LabelClassError as exc:
        raise DumpFormatError(f"bad label line {exc.row}: {exc.line!r}") from exc
