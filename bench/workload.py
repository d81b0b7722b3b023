"""One benchmark workload in its own process; `run.py` starts it.

    workload.py run --workload W --seed S --seconds N --trace T --result PATH
    workload.py prepare --workload W --seed S --out DIR

`run` runs passes of the workload's command sequence while the next one
still fits in N seconds (at least one).  Before and between passes it
times `prepare` processes, the set-up: a fresh interpreter importing
hycone, as every CLI command starts, and building the workload's fixed
inputs.
Every command goes through `hycone.cli.main` in this process, one after
the other, and every output is checked.  With T=1 each untraced pass is
followed by a traced one; the traced pass must write the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import spec
import tracer
from hycone import cli, hierarchy

ROOT = Path(__file__).resolve().parents[1]
READ_KINDS = ("retrieve", "retrieve_cal", "traverse", "stats", "classify")
# Query flags of the README's CLI session (k=5 is also the CLI default).
K = 5             # retrieve --k
TAU = 0.07        # retrieve --calibrated --tau
STEPS = 50        # traverse --steps

# Workload sizes.  "smoke" only exercises the code paths and the output
# schema; its numbers mean nothing.
PROFILES = {
    "full": {
        "gradcheck": [],
        "ref": ["--steps", "2000", "--warmup", "100"],
        "wide": ["--batch-size", "1024", "--hidden-dim", "64", "--depth", "4",
                 "--branching", "6", "--steps", "40", "--warmup", "4"],
        "short": ["--steps", "300", "--warmup", "30"],
        "held_out": 3125,
        # Rounds of the README query session per query-200k pass: 4 give
        # every per-kind median at least 10 samples in a 40 s run.
        "query_rounds": 4,
        # Set-up repeats until both are reached; its median is `setup_s`.
        "setup_min_reps": 5,
        "setup_budget_s": 4.0,
    },
    "smoke": {
        "gradcheck": ["--points", "1", "--seeds", "1"],
        "ref": ["--steps", "20", "--warmup", "2"],
        "wide": ["--batch-size", "32", "--hidden-dim", "8", "--depth", "3",
                 "--branching", "3", "--steps", "4", "--warmup", "1"],
        "short": ["--steps", "20", "--warmup", "2"],
        "held_out": 5,
        "query_rounds": 1,
        "setup_min_reps": 2,
        "setup_budget_s": 0.0,
    },
}


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def write_prompts(chk_path: Path, depths: set[int], per_class: int, seed: int, out: Path) -> None:
    """Prompt-set dump: `per_class` noisy latents of every tree concept at
    the given depths, through the checkpoint's text encoder."""
    config, tensors = checks.read_checkpoint_tensors(chk_path)
    tree = hierarchy.generate_tree(
        config["depth"], config["branching"], config["latent_dim"], config["noise"], config["seed"]
    )
    rng = np.random.default_rng([seed, 11])
    nodes = [n for n in tree.nodes if n.depth in depths]
    latents = np.concatenate([
        n.latent + config["noise"] * rng.standard_normal((per_class, n.latent.size)) for n in nodes
    ])
    labels = [("text", n.path) for n in nodes for _ in range(per_class)]
    checks.write_dump(out, checks.text_encoder_rows(tensors, latents), labels, curvature=1.0)


class Runner:
    """Runs commands closed-loop, timing and checking each one."""

    def __init__(self, workload: str, seed: int, profile: str, work: Path):
        self.workload = workload
        self.seed = seed
        self.profile = profile
        self.prof = PROFILES[profile]
        self.work = work
        self.records: list[tuple[int, str, float]] = []    # (pass, kind, seconds)
        self.failures: list[str] = []
        self.attempted = 0
        self.pass_no = 0
        self.queries = None
        self.cmd_peak_kb = 0    # highest ru_maxrss a command raised it to

    def fail(self, msg: str) -> None:
        self.failures.append(msg)
        print(f"[bench] FAILED: {msg}", file=sys.stderr)

    def expect(self, ok: bool, msg: str) -> None:
        """A check that is an operation of its own (determinism, restore)."""
        self.attempted += 1
        if not ok:
            self.fail(msg)

    def cmd(self, kind: str, argv: list, check=None) -> None:
        argv = [str(a) for a in argv]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        # A CLI command normally starts in a fresh process: collect the
        # previous commands' garbage here, outside the timed region, so that
        # collections inside it depend on this command's allocations only.
        gc.collect()
        rss0 = _maxrss_kb()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejecting a flag: exit code 2
            rc = 0 if exc.code is None else exc.code
        except Exception:   # a traceback is a failed operation, not a crash
            rc = "traceback: " + " | ".join(traceback.format_exc().strip().splitlines()[-3:])
        self.records.append((self.pass_no, kind, time.perf_counter() - t0))
        rss1 = _maxrss_kb()
        if rss1 > rss0:
            self.cmd_peak_kb = rss1
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[:300]}"
        else:
            try:
                problem = check(out.getvalue()) if check else None
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problem = f"unreadable output: {exc}"
        if problem:
            self.fail(f"{' '.join(argv)}: {problem}")

    # -- building blocks ----------------------------------------------------

    def analysis(self, dump_path: Path, chk_path: Path, prompts: Path) -> None:
        """The README's analysis session on one dump: stats, then traverse
        and retrieve from two seeded image rows, then classify."""
        dump = checks.Dump(dump_path)
        images = dump.rows_of_class("image")
        rng = np.random.default_rng([self.seed, 21])
        t_row, r_row = (images[i] for i in rng.choice(len(images), 2, replace=False))
        self.stats(dump_path, dump.count)
        self.traverse(dump_path, t_row)
        self.retrieve(dump_path, r_row, False, checks.expected_top_k(dump, r_row, K, False, TAU))
        self.classify(dump_path, chk_path, prompts, dump.count)

    def stats(self, dump_path, rows: int) -> None:
        self.cmd("stats", ["stats", "--dump", dump_path], lambda o: checks.check_stats(o, rows))

    def retrieve(self, dump_path, row: int, calibrated: bool, want: list[int]) -> None:
        argv = ["retrieve", "--dump", dump_path, "--row", row, "--k", K]
        if calibrated:
            argv += ["--calibrated", "--tau", TAU]
        self.cmd("retrieve_cal" if calibrated else "retrieve", argv,
                 lambda o: checks.check_retrieve(o, row, want))

    def traverse(self, dump_path, row: int) -> None:
        self.cmd("traverse", ["traverse", "--dump", dump_path, "--row", row, "--steps", STEPS],
                 lambda o: checks.check_traverse(o, STEPS))

    def classify(self, dump_path, chk_path, prompts, images: int) -> None:
        self.cmd("classify",
                 ["classify", "--prompts", prompts, "--images", dump_path, "--checkpoint", chk_path],
                 lambda o: checks.check_classify(o, images))

    def train(self, kind: str, flags: list[str], out: Path, final_total: float | None = None) -> None:
        argv = ["train", "--seed", self.seed, *flags, "--out", out]
        steps = _flag(flags, "--steps")
        self.cmd(kind, argv, lambda o: checks.check_curve(out / "curve.csv", steps, final_total))

    # -- workloads: one pass each; returns digests of the bytes written ------

    def pass_train_ref(self, prep: Path) -> dict[str, str]:
        self.cmd("gradcheck", ["gradcheck", *self.prof["gradcheck"]],
                 lambda o: None if "gradient check passed" in o else "no pass line")
        final = None
        if self.profile == "full" and self.seed == 7:
            expected = json.loads((ROOT / "expected_results.json").read_text())
            final = expected["reference"]["final_total_loss"]
        digests = {}
        for space in ("lorentz", "sphere"):
            out = self.work / space
            self.train(f"train_{space}", [*self.prof["ref"], "--space", space], out,
                       final if space == "lorentz" else None)
            digests[space] = checks.digest(out / "checkpoint.bin")
        for space in ("lorentz", "sphere"):
            out = self.work / space
            write_prompts(out / "checkpoint.bin", {0, 1, 2}, 4, self.seed, out / "prompts.hypb")
            self.analysis(out / "embeddings.hypb", out / "checkpoint.bin", out / "prompts.hypb")
        return digests

    def pass_train_wide(self, prep: Path) -> dict[str, str]:
        out = self.work / "wide"
        self.train("train_lorentz", self.prof["wide"], out)
        return {"wide": checks.digest(out / "checkpoint.bin")}

    def pass_query_200k(self, prep: Path) -> dict[str, str]:
        chk = prep / "chk" / "checkpoint.bin"
        big = self.work / "big.hypb"
        config, _ = checks.read_checkpoint_tensors(chk)
        b, d = config["branching"], config["depth"]
        rows = sum(b**i for i in range(d)) + b**d * self.prof["held_out"]
        self.cmd("embed", ["embed", "--checkpoint", chk, "--out", big,
                           "--held-out-per-leaf", self.prof["held_out"]],
                 lambda o: checks.check_dump_count(big, rows))
        if self.queries is None:
            self.queries = self.plan_queries(big)
        small = prep / "chk" / "embeddings.hypb"
        small_rows = checks.dump_count(small)
        # Rounds of the README session on the big dump; classify takes the
        # checkpoint's own dump, as in the README.
        for t_row, r_row, want, want_cal in self.queries:
            self.stats(big, rows)
            self.traverse(big, t_row)
            self.retrieve(big, r_row, False, want)
            self.retrieve(big, r_row, True, want_cal)
            self.classify(small, chk, prep / "prompts.hypb", small_rows)
        return {"dump": checks.digest(big, big.with_suffix(".labels"))}

    def plan_queries(self, big: Path) -> list[tuple[int, int, list[int], list[int]]]:
        """Per round: a traverse row, a retrieve row and its raw and
        calibrated brute-force top-k.  Computed once, from the first pass's
        dump (later passes must write the same bytes), and the benchmark's
        copy of the dump is dropped before any read command runs."""
        dump = checks.Dump(big)
        images = dump.rows_of_class("image")
        rng = np.random.default_rng([self.seed, 31])
        plan = []
        for _ in range(self.prof["query_rounds"]):
            t_row, r_row = (images[i] for i in rng.choice(len(images), 2, replace=False))
            plan.append((t_row, r_row, checks.expected_top_k(dump, r_row, K, False, TAU),
                         checks.expected_top_k(dump, r_row, K, True, TAU)))
        del dump, images
        gc.collect()
        return plan

    def one_pass(self, prep: Path) -> tuple[float, dict[str, str]]:
        """Session seconds (sum of command wall times) and output digests."""
        self.pass_no += 1
        first = len(self.records)
        fn = {"train-ref": self.pass_train_ref, "train-wide": self.pass_train_wide,
              "query-200k": self.pass_query_200k}[self.workload]
        try:
            digests = fn(prep)
        except (OSError, ValueError, KeyError, struct.error) as exc:   # outputs missing or unreadable
            self.fail(f"pass {self.pass_no}: {type(exc).__name__}: {exc}")
            digests = {}
        return sum(r[2] for r in self.records[first:]), digests


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def prepare(args) -> int:
    """Set-up body, run in a fresh interpreter; prints a digest of its inputs."""
    prof = PROFILES[args.profile]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload != "query-200k":
        print("ready")
        return 0
    chk = out / "chk"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in ["train", "--seed", args.seed, *prof["short"], "--out", chk]])
    if rc != 0:
        return rc
    write_prompts(chk / "checkpoint.bin", {3}, 8, args.seed, out / "prompts.hypb")
    print(checks.digest(chk / "checkpoint.bin", chk / "embeddings.hypb", out / "prompts.hypb"))
    return 0


class SetUp:
    """Times `prepare` in fresh interpreters; every repetition must print
    the same digest of the inputs it built.  The first one's inputs are
    the ones the passes use."""

    def __init__(self, r: Runner):
        self.r = r
        self.times: list[float] = []
        self.digests: set[str] = set()

    def rep(self) -> Path:
        r = self.r
        out = r.work / f"prep{len(self.times)}"
        argv = [sys.executable, __file__, "prepare", "--workload", r.workload,
                "--seed", str(r.seed), "--profile", r.profile, "--out", str(out)]
        r.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            r.fail(f"set-up exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            self.digests.add(proc.stdout.strip())
        return out

    def until(self, seconds: float, reps: int = 0) -> None:
        """Repeat until `seconds` of set-up and `reps` repetitions are done."""
        while sum(self.times) < seconds or len(self.times) < reps:
            self.rep()


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def run(args) -> int:
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = Runner(args.workload, args.seed, args.profile, work)
    try:
        setup = SetUp(r)
        prep = setup.rep()
        sessions, traced_sessions, layers = [], [], []
        first_digests, first_trace = None, None
        measured = 0.0
        while True:
            t_iter = time.perf_counter()
            secs, digests = r.one_pass(prep)
            sessions.append((r.pass_no, secs))
            if first_digests is None:
                first_digests = digests
            else:
                r.expect(digests == first_digests,
                         f"pass {r.pass_no} wrote other bytes than pass 1: {sorted(digests)}")
            if args.trace:
                rec = tracer.SpanRecorder()
                patches = tracer.install(rec)
                missing_targets = patches.missing
                try:
                    secs, digests = r.one_pass(prep)
                finally:
                    unrestored = patches.restore()
                r.expect(not unrestored, f"wrapped names not restored: {unrestored}")
                r.expect(digests == first_digests,
                         f"traced pass {r.pass_no} wrote other bytes than the untraced run")
                traced_sessions.append((r.pass_no, secs))
                layers.append(tracer.layer_metrics(rec))
                if first_trace is None:
                    first_trace = rec   # kept in memory, written out at the end
                    first_trace_spans = len(rec.names)
            # Measure for up to --seconds: start no iteration that would end
            # after that, judging by the last one (the first always runs).
            last = time.perf_counter() - t_iter
            measured += last
            # The host's speed swings by up to 2x over spans of about ten
            # seconds, so set-up repetitions are spread over the run in
            # step with the passes instead of bunched before them.
            setup.until(r.prof["setup_budget_s"] * min(1.0, measured / max(args.seconds, 1e-9)))
            if measured + last > args.seconds:
                break
        setup.until(r.prof["setup_budget_s"], r.prof["setup_min_reps"])
        r.expect(len(setup.digests) <= 1,
                 "set-up is not deterministic: its inputs differ between repetitions")
        if first_trace is not None:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            first_trace.save(out_dir / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traced_passes = {p for p, _ in traced_sessions}
    by_kind = defaultdict(list)
    for p, kind, secs in r.records:
        if p not in traced_passes:
            by_kind[kind].append(secs * 1e3)
    reads = [v for kind in READ_KINDS for v in by_kind[kind]]
    # One pass's commands, each at its kind's median over the run: a run
    # spans only a few host-speed swings, and the many commands of a kind
    # sample all of them where a few whole passes sample one each.
    session_s = sum(n * statistics.median(by_kind[kind]) / 1e3
                    for kind, n in Counter(k for p, k, _ in r.records if p == 1).items())

    def e2e(name, value, unit, n):
        return {"name": name, "value": value, "unit": unit, "n": n}

    detail = [
        e2e("setup_s", statistics.median(setup.times), "s", len(setup.times)),
        e2e("session_s", session_s, "s", len(sessions)),
        e2e("peak_rss_mb", _maxrss_kb() / 1024, "MB", 1),
    ]
    # Per-command views; printed with their sample counts, not bounded.
    for kind, name in (("gradcheck", "gradcheck_s"), ("train_lorentz", "lorentz_train_s"),
                       ("train_sphere", "sphere_train_s"), ("embed", "embed_s")):
        if by_kind[kind]:
            detail.append(e2e(name, statistics.median(by_kind[kind]) / 1e3, "s", len(by_kind[kind])))
    for kind in READ_KINDS:
        if by_kind[kind]:
            detail.append(e2e(f"{kind}_ms_p50", statistics.median(by_kind[kind]), "ms",
                              len(by_kind[kind])))
    if reads:
        detail.append(e2e("query_ms_p90", _p90(reads), "ms", len(reads)))
    if args.workload == "train-ref":
        per_pass = defaultdict(float)
        for p, kind, secs in r.records:
            if p not in traced_passes and kind in READ_KINDS:
                per_pass[p] += secs
        detail.append(e2e("ref_analysis_s", statistics.median(per_pass.values()), "s",
                          len(per_pass)))
    failed = len(r.failures)
    detail.append(e2e("error_rate", failed / r.attempted, "ratio", r.attempted))

    units = dict((n, u) for n, u in spec.per_layer_metrics())
    if args.trace:
        metrics = {
            name: {"value": float(statistics.median(d[name] for d in layers)), "unit": units[name]}
            for name in layers[0]
        }
        overhead = (statistics.median(s for _, s in traced_sessions)
                    / statistics.median(s for _, s in sessions) - 1.0)
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        metrics["trace.spans"] = {"value": float(first_trace_spans), "unit": "count"}
    else:
        e2e_names = {n for n, _, _ in spec.END_TO_END}
        metrics = {d["name"]: {"value": d["value"], "unit": d["unit"]}
                   for d in detail if d["name"] in e2e_names}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "profile": args.profile,
        "host": host_facts(),
        "passes": {"untraced": len(sessions), "traced": len(traced_sessions)},
        "missing_trace_targets": missing_targets if args.trace else [],
        # How far code outside every command (the benchmark's readers and
        # prompt building, a traced run's spans) pushed the peak above the
        # highest one a command set; 0 when peak_rss_mb is hycone's alone.
        "peak_rss_above_commands_mb": max(0, _maxrss_kb() - r.cmd_peak_kb) / 1024,
        "detail": detail,
        "failures": r.failures[:20],
        "line": {
            "correct": failed == 0,
            "attempted": r.attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("run", "prepare"))
    p.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), default="full")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", help="where `run` writes its result JSON")
    p.add_argument("--out", help="where `prepare` builds its inputs")
    args = p.parse_args(argv)
    return run(args) if args.mode == "run" else prepare(args)


if __name__ == "__main__":
    sys.exit(main())
