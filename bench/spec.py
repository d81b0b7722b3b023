"""What the hycone benchmark measures: workloads, metric names and bounds.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 bench/run.py --write-spec`), and the smoke mode checks that
every run reports exactly these metric names.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 40

# Each workload runs in its own process, driven by one closed-loop client:
# every CLI command starts after the previous one returned.  The `why`
# also names the modules each workload loads or bypasses.
WORKLOADS = [
    (
        "train-ref",
        "README reference session at batch 64 (gradcheck, Lorentz and sphere train, 277-row "
        "analysis): tape bookkeeping and per-call overhead dominate; sphere twin bypasses "
        "geometry+entailment",
    ),
    (
        "train-wide",
        "Lorentz train at batch 1024, hidden 64, 1296-leaf tree (5443-row dump): numpy kernels "
        "and BLAS dominate, tape bookkeeping is small; bypasses gradcheck and analysis",
    ),
    (
        "query-200k",
        "embed a 200,021-row dump, then a seeded retrieve/traverse/stats/classify mix: dumpio "
        "reads, index validation and full scans dominate; bypasses the tape, losses, gradcheck",
    ),
]

# Every run reports every end-to-end metric, so these are the ones all
# three workloads have: set-up time, session time (one pass's commands,
# each at its kind's median wall time) and the workload process's peak
# RSS.  The per-command views (gradcheck_s, lorentz_train_s,
# sphere_train_s, ref_analysis_s, embed_s, the per-kind query medians,
# query_ms_p90, error_rate) are printed with their sample counts above
# the result line and carry no bound: on a shared 2-core Xeon VM the
# millisecond-scale ones spread by more than 0.25 between runs.  Timing
# bounds are the largest allowed: a fixed CPU loop there runs up to 2x
# slower for stretches of about ten seconds, which moves every timing of
# a run together.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("session_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
]

# The primitives the trainer records on the tape (`tanh` only with a
# hidden layer, as on train-wide).  `log`, `sinh` and `cosh` run only
# inside gradcheck and are left out of the per-primitive metrics.
TRAINING_PRIMITIVES = (
    "add", "sub", "mul", "div", "neg", "matmul", "transpose", "sum", "sqrt", "exp",
    "tanh", "asin", "acos", "acosh", "sinhc", "clamp", "relu", "logsumexp_rows",
    "diag_part",
)

# (owner, attribute, span name).  The owner is where the caller looks the
# name up: `trainer.train` calls `objective` through trainer's globals and
# `gradcheck` through its own, so both are wrapped under one span name.
TRACED_CALLS = [
    ("hycone.cli", "main", "cli.main"),
    ("hycone.trainer", "train", "trainer.train"),
    ("hycone.gradcheck", "run_suite", "gradcheck.run_suite"),
    ("hycone.autodiff", "apply_op", "autodiff.apply_op"),
    ("hycone.autodiff:Tape", "backward", "autodiff.backward"),
    ("hycone.autodiff", "finite_diff", "autodiff.finite_diff"),
    ("hycone.gradcheck", "finite_diff", "autodiff.finite_diff"),
    ("hycone.trainer", "objective", "losses.objective"),
    ("hycone.gradcheck", "objective", "losses.objective"),
    ("hycone.geometry", "dist_from_inner", "geometry.dist_from_inner"),
    ("hycone.geometry", "cross_inner", "geometry.cross_inner"),
    ("hycone.geometry", "exp_space", "geometry.exp_space"),
    ("hycone.geometry", "time_part", "geometry.time_part"),
    ("hycone.entailment", "hinge_rows", "entailment.hinge_rows"),
    ("hycone.hierarchy:PairSampler", "next_batch", "hierarchy.next_batch"),
    ("hycone.trainer", "generate_tree", "hierarchy.generate_tree"),
    ("hycone.trainer", "held_out_images", "hierarchy.held_out_images"),
    ("hycone.trainer", "adamw_step", "trainer.adamw_step"),
    ("hycone.trainer", "encoder_forward", "trainer.encoder_forward"),
    ("hycone.trainer", "build_embedding_index", "trainer.build_embedding_index"),
    ("hycone.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("hycone.trainer", "save_curve", "trainer.save_curve"),
    ("hycone.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("hycone.dumpio", "read_dump", "dumpio.read_dump"),
    ("hycone.dumpio", "write_dump", "dumpio.write_dump"),
    ("hycone.analysis:EmbeddingIndex", "__post_init__", "analysis.index_init"),
    ("hycone.analysis", "with_root", "analysis.with_root"),
    ("hycone.analysis", "retrieve", "analysis.retrieve"),
    ("hycone.analysis", "traverse", "analysis.traverse"),
    ("hycone.analysis", "interpolate_steps", "analysis.interpolate_steps"),
    ("hycone.analysis", "classify", "analysis.classify"),
    ("hycone.analysis", "root_distance_stats", "analysis.root_distance_stats"),
    ("hycone.gradcheck", "check_all_primitives", "gradcheck.check_all_primitives"),
    ("hycone.gradcheck", "check_total_loss", "gradcheck.check_total_loss"),
]

# Spans that only give structure (parents whose self time is derived
# separately, or whole commands); every other traced name yields
# `<name>_ms` (inclusive wall time) and `<name>_calls`.
STRUCTURAL_SPANS = {
    "cli.main", "trainer.train", "gradcheck.run_suite", "autodiff.apply_op", "autodiff.backward",
}
TIMED_CALLS = list(dict.fromkeys(
    name for _, _, name in TRACED_CALLS if name not in STRUCTURAL_SPANS
))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports; all are
    lower-is-better, and `trace.*` describe the tracing itself."""
    out = [
        ("autodiff.record_ms", "ms"),
        ("autodiff.record_calls", "count"),
        ("autodiff.backward_overhead_ms", "ms"),
        ("autodiff.backward_calls", "count"),
        ("autodiff.tape_nodes", "count"),
        ("autodiff.const_nodes", "count"),
    ]
    for prim in TRAINING_PRIMITIVES:
        out += [
            (f"autodiff.fwd_ms.{prim}", "ms"),
            (f"autodiff.vjp_ms.{prim}", "ms"),
            (f"autodiff.calls.{prim}", "count"),
        ]
    for name in TIMED_CALLS:
        out += [(f"{name}_ms", "ms"), (f"{name}_calls", "count")]
    out += [
        ("dumpio.bytes_read", "bytes"),
        ("dumpio.bytes_written", "bytes"),
        ("cli.self_ms", "ms"),
        ("cli.commands", "count"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ]
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"}
            for n, u in per_layer_metrics()
        ],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
