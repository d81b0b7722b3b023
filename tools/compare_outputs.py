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
  `--inner-product-logits`, `--space sphere --hidden-dim 8` (the cosine
  closed form under a hidden layer), `--batch-size 3` (row and column
  sums shorter than numpy's 8-element unrolled reduction), the
  benchmark's wide run (batch 1024, hidden 64, depth 4, branching 6) in
  all three similarity modes (distance, `--space sphere` and
  `--inner-product-logits`), `--batch-size 300` (200 steps; the
  objective's row blocks of 218 rows end in a shorter one of 82) and a
  depth-8, branching-4 run, whose 21,845 texts make a traversal score its
  walk in several blocks;
- each of those checkpoints' bytes after its config JSON, as
  `<run>/checkpoint.tensors`: its tensors and metadata, so a change to the
  config JSON alone reads `checkpoint.bin DIFFERS` beside
  `checkpoint.tensors same`;
- the dump, labels and stdout of an `embed` of each of those checkpoints
  at its default held-out count, so every tensor layout (affine and
  hidden-layer, hyperboloid and sphere) goes through `load_checkpoint`
  and `build_embedding_index`;
- the dump and labels of a 200,021-row `embed` of the Lorentz and sphere
  reference checkpoints and of the `--hidden-dim 8` one, and their
  stdout: `embed` draws, encodes and lifts these in many blocks, so the
  sphere lift and the tanh layer are compared across blocks too;
- on each of those dumps, the stdout of `stats`, `traverse` (from an
  image row, from the same row with `--cone-slack 0.05` and with
  `--cone-slack inf`, where texts below the root concept qualify, and
  from the first text row), `retrieve` (raw and `--calibrated`) and
  `classify` (against a fixed random prompt set, with the dump's own
  checkpoint, and without a checkpoint, which scores at the curvature
  in the dump's header);
- the stdout of `stats` and `retrieve` on damaged copies of the Lorentz
  and sphere 200,021-row dumps, one with a NaN in row DAMAGED_ROW and, for
  the sphere, one with that row off the unit norm: the row is past the
  first block of rows that an index reads, so these outputs show the
  messages that checking rows block by block could renumber;
- the stdout of `embed` and of `classify --checkpoint` on copies of the
  Lorentz reference checkpoint whose config JSON holds a value of the
  wrong type: `"depth": 3.0` and `"no_entailment": 1`;
- the files that `stats --out-summary --out-hist`, `traverse --out`,
  `retrieve --out` and `classify --out` write on the Lorentz reference
  dump, and those commands' stdout;
- `gradcheck` stdout at the default flags, at `--points 3 --seeds 2`,
  `--points 1 --seeds 1` and `--points 150 --seeds 30`.

Each output gets one line: its SHA-256 prefix and `same`, or both
digests and `DIFFERS` (`MISSING` when a side wrote no such file).  The
exit code and stderr of each command are part of its stdout output's
digest.  A `retrieve` or `classify` stdout gets a second line,
`<name>.value`: the digest of the JSON value it prints, written as
`json.dumps` writes it on one line, so a change to the layout alone
reads `DIFFERS` on the first line and `same` on the second.  Exits 1 on
any difference or missing file.  Uses numpy and the standard library
only.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 7
# The benchmark's wide run: 16 row blocks of the objective per step.
WIDE = ["--batch-size", "1024", "--hidden-dim", "64", "--depth", "4", "--branching", "6",
        "--steps", "40", "--warmup", "4"]
TRAIN_RUNS = {
    "ref-lorentz": [],
    "ref-sphere": ["--space", "sphere"],
    "no-entailment": ["--no-entailment"],
    "fixed-curvature": ["--fixed-curvature"],
    "hidden-8": ["--hidden-dim", "8"],
    "inner-product": ["--inner-product-logits"],
    "sphere-hidden-8": ["--space", "sphere", "--hidden-dim", "8"],
    "batch-3": ["--batch-size", "3"],
    "wide": WIDE,
    "wide-sphere": [*WIDE, "--space", "sphere"],
    "wide-inner-product": [*WIDE, "--inner-product-logits"],
    "batch-300": ["--batch-size", "300", "--steps", "200", "--warmup", "20"],
    "deep": ["--depth", "8", "--branching", "4", "--steps", "20", "--warmup", "2",
             "--held-out-per-leaf", "1"],
}
TRAIN_FILES = ("checkpoint.bin", "curve.csv", "embeddings.hypb", "embeddings.labels")
# 21 text rows plus 64 leaves x 3125 held-out images: the benchmark's big
# dump, embedded from each of these runs' checkpoints.
BIG_HELD_OUT = 3125
BIG_EMBEDS = {"embed-200k": "ref-lorentz", "embed-200k-sphere": "ref-sphere",
              "embed-200k-hidden-8": "hidden-8"}
# Damaged copies of the big dumps: (dump, damage) per copy, at one row
# past the first 8,192-row block.
DAMAGED = {"damaged-nan": ("embed-200k", "nan"), "damaged-nan-sphere": ("embed-200k-sphere", "nan"),
           "damaged-norm-sphere": ("embed-200k-sphere", "norm")}
DAMAGED_ROW = 100_003
# Copies of the Lorentz reference checkpoint with one config value of
# the wrong type: (key, value) per copy.
MALFORMED = {"config-depth-float": ("depth", 3.0), "config-switch-int": ("no_entailment", 1)}
# `gradcheck-one` stacks one point per primitive signature group and one
# candidate per objective tape; `gradcheck-large` stacks more of both
# than the defaults do.
GRADCHECK_RUNS = {"gradcheck": [], "gradcheck-small": ["--points", "3", "--seeds", "2"],
                  "gradcheck-one": ["--points", "1", "--seeds", "1"],
                  "gradcheck-large": ["--points", "150", "--seeds", "30"]}
JSON_COMMANDS = ("retrieve", "classify")
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
        head, tail = b"exit %d\n" % proc.returncode, b"\nstderr\n" + proc.stderr
        self.outputs[name] = digest(head + proc.stdout + tail)
        if argv[0] in JSON_COMMANDS:
            try:
                value = json.dumps(json.loads(proc.stdout)).encode("utf-8")
            except ValueError:      # no JSON (a failed command): its stdout as it is
                value = proc.stdout
            self.outputs[f"{name}.value"] = digest(head + value + tail)

    def files(self, prefix: str, paths) -> None:
        for p in paths:
            path = self.work / p
            self.outputs[f"{prefix}/{path.name}"] = (
                digest(path.read_bytes()) if path.exists() else "missing"
            )

    def checkpoint_tensors(self, name: str) -> None:
        """The digest of a checkpoint's bytes after its config JSON (magic,
        version and the JSON's length come first)."""
        path = self.work / name / "checkpoint.bin"
        raw = path.read_bytes() if path.exists() else b""
        self.outputs[f"{name}/checkpoint.tensors"] = (
            digest(raw[12 + struct.unpack_from("<I", raw, 8)[0]:]) if len(raw) >= 12 else "missing"
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


def write_damaged(work: Path, name: str, source: str, damage: str) -> None:
    """A copy of dump `source` and its labels whose row DAMAGED_ROW holds
    a NaN (`damage` "nan") or is scaled by 1.5 ("norm").  Nothing is
    written when the source is missing or short, so the commands on the
    copy record that."""
    try:
        raw = bytearray((work / f"{source}.hypb").read_bytes())
        labels = (work / f"{source}.labels").read_bytes()
    except OSError:
        return
    if dump_count(work / f"{source}.hypb") <= DAMAGED_ROW:
        return
    dim = DUMP_HEADER.unpack_from(raw)[3]
    at = DUMP_HEADER.size + DAMAGED_ROW * dim * 4
    row = np.frombuffer(raw, dtype="<f4", count=dim, offset=at).copy()
    if damage == "nan":
        row[0] = np.nan
    else:
        row *= np.float32(1.5)
    raw[at:at + dim * 4] = row.tobytes()
    (work / f"{name}.hypb").write_bytes(bytes(raw))
    (work / f"{name}.labels").write_bytes(labels)


def write_malformed(work: Path, name: str, key: str, value) -> None:
    """A copy of the Lorentz reference checkpoint, `<name>.bin`, whose
    config JSON maps `key` to `value`.  Nothing is written when the
    reference is missing or short, so the commands on the copy record
    that."""
    try:
        raw = (work / "ref-lorentz" / "checkpoint.bin").read_bytes()
        (n,) = struct.unpack_from("<I", raw, 8)
        config = json.loads(raw[12:12 + n])
    except (OSError, struct.error, ValueError):
        return
    config[key] = value
    blob = json.dumps(config).encode("utf-8")
    (work / f"{name}.bin").write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])


def analyse(side: Side, name: str, dump: str, checkpoint: str, prompts: Path) -> None:
    """The README's analysis commands on one dump, from two image rows
    (the last row and the middle one; images follow the text rows) and
    the first text row (row 0)."""
    count = dump_count(side.work / dump)
    last, middle = max(count - 1, 0), count // 2
    side.cli(f"{name}/stats", "stats", "--dump", dump)
    side.cli(f"{name}/traverse", "traverse", "--dump", dump, "--row", last, "--steps", 50)
    side.cli(f"{name}/traverse-slack", "traverse", "--dump", dump, "--row", last, "--steps", 50,
             "--cone-slack", 0.05)
    side.cli(f"{name}/traverse-slack-inf", "traverse", "--dump", dump, "--row", last, "--steps", 50,
             "--cone-slack", "inf")
    side.cli(f"{name}/traverse-text", "traverse", "--dump", dump, "--row", 0, "--steps", 50)
    side.cli(f"{name}/retrieve", "retrieve", "--dump", dump, "--row", middle, "--k", 5)
    side.cli(f"{name}/retrieve-calibrated", "retrieve", "--dump", dump, "--row", middle, "--k", 5,
             "--calibrated", "--tau", 0.07)
    side.cli(f"{name}/classify", "classify", "--prompts", prompts, "--images", dump,
             "--checkpoint", checkpoint)
    side.cli(f"{name}/classify-no-checkpoint", "classify", "--prompts", prompts, "--images", dump)


def write_out_files(side: Side, name: str, dump: str, checkpoint: str, prompts: Path) -> None:
    """The query commands that write files (`--out`, `--out-summary`,
    `--out-hist`) on one dump, from its last row; file f is `<name>-f`."""
    row = max(dump_count(side.work / dump) - 1, 0)
    summary, hist, walk, hits, predictions = (
        f"{name}-{f}" for f in ("summary.csv", "hist.csv", "traverse.csv", "retrieve.json", "classify.json"))
    side.cli(f"{name}/stats", "stats", "--dump", dump, "--out-summary", summary, "--out-hist", hist)
    side.cli(f"{name}/traverse", "traverse", "--dump", dump, "--row", row, "--steps", 50, "--out", walk)
    side.cli(f"{name}/retrieve", "retrieve", "--dump", dump, "--row", row, "--k", 5, "--out", hits)
    side.cli(f"{name}/classify", "classify", "--prompts", prompts, "--images", dump,
             "--checkpoint", checkpoint, "--out", predictions)
    side.files(name, [summary, hist, walk, hits, predictions])


def run_side(side: Side, prompts: Path) -> None:
    side.check_import()
    for name, flags in TRAIN_RUNS.items():
        side.cli(f"{name}/train-stdout", "train", "--seed", SEED, *flags, "--out", name)
        side.files(name, [f"{name}/{f}" for f in TRAIN_FILES])
        side.checkpoint_tensors(name)
        side.cli(f"{name}/embed-stdout", "embed", "--checkpoint", f"{name}/checkpoint.bin",
                 "--out", f"{name}/embed.hypb")
        side.files(name, [f"{name}/embed.hypb", f"{name}/embed.labels"])
    for name, run in BIG_EMBEDS.items():
        side.cli(f"{name}/embed-stdout", "embed", "--checkpoint", f"{run}/checkpoint.bin",
                 "--out", f"{name}.hypb", "--held-out-per-leaf", BIG_HELD_OUT)
        side.files(name, [f"{name}.hypb", f"{name}.labels"])
    for name in TRAIN_RUNS:
        analyse(side, name, f"{name}/embeddings.hypb", f"{name}/checkpoint.bin", prompts)
    for name, run in BIG_EMBEDS.items():
        analyse(side, name, f"{name}.hypb", f"{run}/checkpoint.bin", prompts)
    for name, (source, damage) in DAMAGED.items():
        write_damaged(side.work, name, source, damage)
        side.cli(f"{name}/stats", "stats", "--dump", f"{name}.hypb")
        side.cli(f"{name}/retrieve", "retrieve", "--dump", f"{name}.hypb", "--row", 0, "--k", 5)
    for name, (key, value) in MALFORMED.items():
        write_malformed(side.work, name, key, value)
        side.cli(f"{name}/embed", "embed", "--checkpoint", f"{name}.bin", "--out", f"{name}.hypb")
        side.cli(f"{name}/classify", "classify", "--prompts", prompts,
                 "--images", "ref-lorentz/embeddings.hypb", "--checkpoint", f"{name}.bin")
    write_out_files(side, "out-files", "ref-lorentz/embeddings.hypb", "ref-lorentz/checkpoint.bin", prompts)
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
