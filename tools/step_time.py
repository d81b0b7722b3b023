"""Median training-step time at batch 64, in two checkouts side by side.

    python3 tools/step_time.py PARENT CHANGE

PARENT and CHANGE are checkout roots, each holding `src/hycone`.  For each
space (Lorentz, sphere) the tool starts ROUNDS fresh interpreters per
checkout, alternating which checkout runs first in each round.  Each one
imports `hycone` from its checkout's `src/`, builds the reference config at
seed 7, draws batches from the run's `PairSampler` and runs `train_step`
with one objective workspace, as `train` does: WARMUP steps untimed, then
TIMED steps, each timed with its sampler call.  A process reports the
median ms per step; the table gives, per space and side, the median and
range of those medians over the processes, and the change against the
parent.

The BLAS thread count each process ran with and `OPENBLAS_NUM_THREADS`
are printed above the table.  Both sides run under one environment with
PYTHONHASHSEED pinned to 0, as the benchmark pins it.  Uses numpy and the
standard library only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SPACES = ("lorentz", "sphere")
ROUNDS = 5
WARMUP = 20
TIMED = 1500

CHILD = """
import ctypes, json, statistics, sys, time
import numpy as np
import hycone
from hycone.hierarchy import PairSampler, generate_tree
from hycone.losses import objective_workspace
from hycone.trainer import AdamState, ParamVector, init_tensors, reference_config, train_step

def blas_threads():
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None

space, warmup, timed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cfg = reference_config(7, space)
tree = generate_tree(cfg.depth, cfg.branching, cfg.latent_dim, cfg.noise, cfg.seed)
sampler = PairSampler(tree, cfg.seed)
params = ParamVector.of(init_tensors(cfg))
state = AdamState.zeros(params)
workspace = objective_workspace(cfg.batch_size)
clock = time.perf_counter
ms = []
for step in range(warmup + timed):
    t0 = clock()
    batch = sampler.next_batch(cfg.batch_size)
    params, state, _ = train_step(params, state, batch, cfg, step, workspace)
    ms.append((clock() - t0) * 1e3)
print(json.dumps({"file": hycone.__file__, "median_ms": statistics.median(ms[warmup:]),
                  "blas_threads": blas_threads()}))
"""


def run_one(checkout: Path, space: str) -> dict:
    """One fresh process of `checkout` timing `space`; its report."""
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", CHILD, space, str(WARMUP), str(TIMED)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"step_time: {checkout} ({space}) failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if src.resolve() not in Path(report["file"]).resolve().parents:
        raise SystemExit(f"step_time: hycone did not import from {src}: {report['file']}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/step_time.py PARENT CHANGE", file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    medians = {(space, side): [] for space in SPACES for side in sides}
    threads = set()
    for space in SPACES:
        for r in range(ROUNDS):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            for side in order:
                report = run_one(sides[side], space)
                medians[space, side].append(report["median_ms"])
                threads.add(report["blas_threads"])
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}, "
          f"BLAS threads {', '.join(map(str, sorted(threads, key=str)))}; "
          f"batch 64, seed 7, {WARMUP} warm-up + {TIMED} timed steps, "
          f"{ROUNDS} fresh processes per side")
    print(f"{'space':<8} {'parent ms/step':>22} {'change ms/step':>22} {'change':>8}")
    for space in SPACES:
        cells = []
        for side in sides:
            xs = medians[space, side]
            cells.append(f"{statistics.median(xs):.3f} ({min(xs):.3f}-{max(xs):.3f})")
        p, c = (statistics.median(medians[space, side]) for side in sides)
        print(f"{space:<8} {cells[0]:>22} {cells[1]:>22} {(c - p) / p:>+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
