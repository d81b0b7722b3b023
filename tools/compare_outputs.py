"""Compare every output of the hycone CLI between two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots, each holding `src/hycone`.  Every
command runs in a fresh interpreter that imports `hycone` from that
checkout's `src/`, with relative output paths in a scratch directory of
its own, so the stdout of both sides can match byte for byte.  The output
set:

- `checkpoint.bin`, `curve.csv`, `embeddings.hypb`, `embeddings.labels`
  and the `train` stdout of the seed-7 Lorentz and sphere references,
  `--no-entailment`, `--fixed-curvature`, `--hidden-dim 8`,
  `--inner-product-logits` and the benchmark's wide run (batch 1024, hidden 64, depth 4, branching 6);
- the dump, labels and stdout of an `embed` of each of those checkpoints
  at its default held-out count, so every tensor layout (affine and
  hidden-layer, hyperboloid and sphere) goes through `load_checkpoint`
  and `build_embedding_index`;
- the dump and labels of a 200,021-row `embed` of the Lorentz reference
  checkpoint, and its stdout;
- on each of those dumps, the stdout of `stats`, `traverse`, `retrieve`
  (raw and `--calibrated`) and `classify` (against a fixed random prompt
  set, with the dump's own checkpoint);
- `gradcheck` stdout at the default flags and at `--points 3 --seeds 2`.

Each output gets one line: its SHA-256 prefix and `same`, or both
digests and `DIFFERS` (`MISSING` when a side wrote no such file).  The
exit code and stderr of each command are part of its stdout output's
digest.  Exits 1 on any difference or missing file.  Uses numpy and the
standard library only.
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 7
TRAIN_RUNS = {
    "ref-lorentz": [],
    "ref-sphere": ["--space", "sphere"],
    "no-entailment": ["--no-entailment"],
    "fixed-curvature": ["--fixed-curvature"],
    "hidden-8": ["--hidden-dim", "8"],
    "inner-product": ["--inner-product-logits"],
    "wide": ["--batch-size", "1024", "--hidden-dim", "64", "--depth", "4", "--branching", "6",
             "--steps", "40", "--warmup", "4"],
}
TRAIN_FILES = ("checkpoint.bin", "curve.csv", "embeddings.hypb", "embeddings.labels")
# 21 text rows plus 64 leaves x 3125 held-out images: the benchmark's big dump.
BIG_HELD_OUT = 3125
GRADCHECK_RUNS = {"gradcheck": [], "gradcheck-small": ["--points", "3", "--seeds", "2"]}
DUMP_HEADER = struct.Struct("<4sIBIQd")     # magic, version, space, dim, count, curvature
PROMPT_CLASSES, PROMPTS_PER_CLASS, PROMPT_DIM = 3, 4, 16


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Side:
    """Runs CLI commands from one checkout, in one scratch directory."""

    def __init__(self, checkout: Path, work: Path):
        self.src = checkout / "src"
        self.work = work
        self.work.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        self.outputs: dict[str, str] = {}

    def check_import(self) -> None:
        proc = subprocess.run([sys.executable, "-c", "import hycone; print(hycone.__file__)"],
                              env=self.env, cwd=self.work, capture_output=True, text=True)
        where = Path(proc.stdout.strip()).resolve()
        if proc.returncode != 0 or self.src.resolve() not in where.parents:
            raise SystemExit(f"compare_outputs: hycone does not import from {self.src}: "
                             f"{proc.stdout.strip()}{proc.stderr.strip()}")

    def cli(self, name: str, *argv) -> None:
        proc = subprocess.run([sys.executable, "-m", "hycone.cli", *map(str, argv)],
                              env=self.env, cwd=self.work, capture_output=True)
        self.outputs[name] = digest(b"exit %d\n" % proc.returncode + proc.stdout
                                    + b"\nstderr\n" + proc.stderr)

    def files(self, prefix: str, paths) -> None:
        for p in paths:
            path = self.work / p
            self.outputs[f"{prefix}/{path.name}"] = (
                digest(path.read_bytes()) if path.exists() else "missing"
            )


def write_prompts(path: Path) -> None:
    """A fixed prompt-set dump: PROMPTS_PER_CLASS random pre-lift vectors
    per class, the same file for both sides."""
    rng = np.random.default_rng([SEED, 11])
    vectors = rng.standard_normal((PROMPT_CLASSES * PROMPTS_PER_CLASS, PROMPT_DIM))
    header = DUMP_HEADER.pack(b"HYPB", 1, 0, PROMPT_DIM, len(vectors), 1.0)
    path.write_bytes(header + vectors.astype("<f4").tobytes())
    labels = "".join(f"text\tclass{k}\n" for k in range(PROMPT_CLASSES)
                     for _ in range(PROMPTS_PER_CLASS))
    path.with_suffix(".labels").write_bytes(labels.encode("utf-8"))


def dump_count(path: Path) -> int:
    """Row count in a dump's header; 0 when the dump is missing or short,
    so the commands on it still run and record how they fail."""
    try:
        with open(path, "rb") as f:
            head = f.read(DUMP_HEADER.size)
    except OSError:
        return 0
    return DUMP_HEADER.unpack(head)[4] if len(head) == DUMP_HEADER.size else 0


def analyse(side: Side, name: str, dump: str, checkpoint: str, prompts: Path) -> None:
    """The README's analysis commands on one dump, from two image rows
    (the last row and the middle one; images follow the text rows)."""
    count = dump_count(side.work / dump)
    last, middle = max(count - 1, 0), count // 2
    side.cli(f"{name}/stats", "stats", "--dump", dump)
    side.cli(f"{name}/traverse", "traverse", "--dump", dump, "--row", last, "--steps", 50)
    side.cli(f"{name}/retrieve", "retrieve", "--dump", dump, "--row", middle, "--k", 5)
    side.cli(f"{name}/retrieve-calibrated", "retrieve", "--dump", dump, "--row", middle, "--k", 5,
             "--calibrated", "--tau", 0.07)
    side.cli(f"{name}/classify", "classify", "--prompts", prompts, "--images", dump,
             "--checkpoint", checkpoint)


def run_side(side: Side, prompts: Path) -> None:
    side.check_import()
    for name, flags in TRAIN_RUNS.items():
        side.cli(f"{name}/train-stdout", "train", "--seed", SEED, *flags, "--out", name)
        side.files(name, [f"{name}/{f}" for f in TRAIN_FILES])
        side.cli(f"{name}/embed-stdout", "embed", "--checkpoint", f"{name}/checkpoint.bin",
                 "--out", f"{name}/embed.hypb")
        side.files(name, [f"{name}/embed.hypb", f"{name}/embed.labels"])
    side.cli("embed-200k/embed-stdout", "embed", "--checkpoint", "ref-lorentz/checkpoint.bin",
             "--out", "big.hypb", "--held-out-per-leaf", BIG_HELD_OUT)
    side.files("embed-200k", ["big.hypb", "big.labels"])
    for name in TRAIN_RUNS:
        analyse(side, name, f"{name}/embeddings.hypb", f"{name}/checkpoint.bin", prompts)
    analyse(side, "embed-200k", "big.hypb", "ref-lorentz/checkpoint.bin", prompts)
    for name, flags in GRADCHECK_RUNS.items():
        side.cli(name, "gradcheck", *flags)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        prompts = Path(tmp) / "prompts.hypb"
        write_prompts(prompts)
        sides = [Side(parent, Path(tmp) / "parent"), Side(change, Path(tmp) / "change")]
        for side in sides:
            run_side(side, prompts)
    a, b = (s.outputs for s in sides)
    differs = 0
    width = max(map(len, a))
    for name in a:
        if "missing" in (a[name], b[name]):
            status = "MISSING"
        else:
            status = "same" if a[name] == b[name] else "DIFFERS"
        if status == "same":
            print(f"{name:<{width}}  {a[name]}  same")
        else:
            differs += 1
            print(f"{name:<{width}}  {a[name]} -> {b[name]}  {status}")
    print(f"{len(a) - differs} same, {differs} differ or are missing")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
