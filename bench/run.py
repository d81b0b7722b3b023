"""hycone benchmark: end-to-end and per-layer timings of the CLI workloads.

    python3 bench/run.py --workload train-ref --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --smoke                 # tiny sizes; checks names and schema
    python3 bench/run.py --write-spec            # regenerate BENCHMARK.json

Run from anywhere inside a checkout that has `src/hycone`.  Each workload
runs in its own process (`bench/workload.py`) with PYTHONHASHSEED pinned,
because the string-hash seed changes training time (the same 1000 sphere
steps took 0.91 s under one seed and 1.55 s under another), and with BLAS
at its default thread count; both are recorded in the result.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer ones.  Temporary files go to `.bench_work/`, span
dumps of traced runs to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HASH_SEED = "0"
CHILD_TIMEOUT_S = 175


def run_workload(workload: str, seed: int, seconds: float, trace: int, profile: str = "full") -> dict:
    """Run one workload in a fresh process; returns its result document."""
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{workload}-s{seed}-p{os.getpid()}.json"
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(BENCH / "workload.py"), "run", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--profile", profile, "--result", str(result_path)]
    try:
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"bench: workload {workload} ran over {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise SystemExit(f"bench: workload {workload} exited with {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)


def table(result: dict) -> str:
    head = f"{result['workload']} (seed {result['seed']}, trace {result['trace']}, " \
           f"passes {result['passes']})"
    lines = [head]
    for d in result["detail"]:
        lines.append(f"  {d['name']:<22} {d['value']:>14.6g} {d['unit']:<6} n={d['n']}")
    if result["trace"]:
        for name, m in result["line"]["metrics"].items():
            lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def smoke() -> int:
    """Every workload at tiny size, traced and untraced: metric names,
    units and the result schema must match the spec.  Timings are ignored."""
    e2e = {n: u for n, u, _ in spec.END_TO_END}
    layer = dict(spec.per_layer_metrics())
    problems = []
    on_disk = ROOT / "BENCHMARK.json"
    if on_disk.exists() and on_disk.read_text(encoding="utf-8") != spec.benchmark_json_text():
        problems.append("BENCHMARK.json differs from bench/spec.py (run --write-spec)")
    for workload, _ in spec.WORKLOADS:
        for trace, want in ((0, e2e), (1, layer)):
            line = run_workload(workload, 7, 0, trace, profile="smoke")["line"]
            where = f"{workload} trace {trace}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: correct={line['correct']} failed={line['failed']}")
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metric names or units differ: "
                                f"{sorted(set(got) ^ set(want))}")
            bad = [n for n, m in line["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-spec", action="store_true")
    args = p.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json_text(), encoding="utf-8")
        return 0
    if not (ROOT / "src" / "hycone" / "__init__.py").is_file():
        print(f"bench: no hycone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    if args.workload == "all":
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
        for res in results:
            print(table(res))
        print(json.dumps({res["workload"]: res["line"] for res in results}))
        return 0
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(table(res))
    print(json.dumps({"host": res["host"], "failures": res["failures"],
                      "missing_trace_targets": res["missing_trace_targets"],
                      "peak_rss_above_commands_mb": res["peak_rss_above_commands_mb"]}))
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
