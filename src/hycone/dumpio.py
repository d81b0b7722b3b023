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
read); the text may hold tabs and any other character but "\n" and
"\r", which are refused where labels are made
(:meth:`Labels.from_pairs`), so every label can be written and read
back.  The sidecar's format is :class:`Labels`'s: the reader hands the
bytes to it, and the writer writes its bytes as they are.  Dumps are
interchange artifacts: storage is 32-bit.  The index that `read_dump`
returns keeps the float32 payload in place, as a view of a read-only map
of the file, and every query promotes it to 64-bit one block of
`analysis.ROW_BLOCK` rows at a time, so no float64 copy of the whole set
is made.  The writer replaces a file by renaming a new one over it, so
an index keeps the bytes it mapped.

Writes are atomic (temp file + rename) and streamed: `write_dump`
converts, checks and writes the payload in those same blocks.  A
row that float32 cannot hold stops the write, and any dump and labels
at the path stay as they were.
"""

from __future__ import annotations

import itertools
import mmap
import os
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .analysis import EmbeddingIndex, LabelClassError, Labels, row_blocks

MAGIC = b"HYPB"
VERSION = 1
_HEADER = struct.Struct("<4sIBIQd")
SPACE_CODES = {"lorentz": 0, "sphere": 1}
SPACE_NAMES = {v: k for k, v in SPACE_CODES.items()}


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
    (0o666 less the umask).  A symbolic link at `path` is written
    through: the temp file sits beside the file it resolves to and
    replaces that file, and the link stays."""
    path = Path(os.path.realpath(path))
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


def _float32_blocks(rows: np.ndarray) -> Iterator[np.ndarray]:
    """`rows` as little-endian float32, in the blocks of `row_blocks`;
    raises ValueError at the first row that float32 cannot hold."""
    for start, block in row_blocks(rows):
        with np.errstate(over="ignore"):    # what float32 cannot hold becomes inf, refused below
            block = np.ascontiguousarray(block, dtype="<f4")
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
    atomic_write(path, itertools.chain([header], _float32_blocks(index.payload)))

    lpath = labels_path(path)
    atomic_write(lpath, [index.labels.data])
    return path, lpath


def read_dump(path) -> EmbeddingIndex:
    """Load a dump/labels pair, validating format and invariants.  The
    index's rows are a view of a read-only map of the file's payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DumpFormatError(
                f"truncated header: got {len(head)} bytes, need {_HEADER.size}"
            )
        magic, version, space_code, dim, count, curv = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DumpFormatError(f"bad magic at offset 0: {magic!r}")
        if version != VERSION:
            raise DumpFormatError(f"unsupported version {version} at offset 4")
        if space_code not in SPACE_NAMES:
            raise DumpFormatError(f"unknown space code {space_code} at offset 8")
        expected = count * dim * 4
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got != expected:
            raise DumpFormatError(
                f"payload length mismatch at offset {_HEADER.size}: "
                f"expected {expected} bytes, found {got}"
            )
        raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    vectors = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=_HEADER.size).reshape(count, dim)

    lpath = labels_path(path)
    try:
        data = lpath.read_bytes()
    except FileNotFoundError as exc:
        raise DumpFormatError(f"missing label sidecar {lpath}") from exc
    labels = Labels(data)
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
