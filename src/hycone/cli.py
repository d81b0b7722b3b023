"""Command-line surface tying training and analysis together.

Subcommands: train, embed, stats, traverse, retrieve, classify,
gradcheck.  Exit codes: 0 success, 1 validation error, 2 numerical
failure (training divergence or gradient-check failure).  Every command
is a pure function of its flags, input files and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, dumpio, gradcheck, trainer
from .entailment import CONE_BOUNDARY
from .losses import CURV_INIT, LossParams
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


_SWITCH_HELP = {
    "no_entailment": "drop the entailment term (entail weight 0)",
    "fixed_curvature": "freeze the curvature parameter at its initial value",
    "inner_product_logits":
        "contrastive logits from the Lorentzian inner product instead of negative distance",
}
_CHOICES = {"space": trainer.SPACES}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field: a switch for each bool, otherwise a
    value of the default's type."""
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_true", help=_SWITCH_HELP[f.name])
        else:
            p.add_argument(flag, type=type(f.default), default=f.default,
                           choices=_CHOICES.get(f.name))


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _query_vector(args: argparse.Namespace, index: analysis.EmbeddingIndex) -> np.ndarray:
    if args.row is not None and args.vector is not None:
        raise ValueError("give --row or --vector, not both")
    if args.row is not None:
        if not (0 <= args.row < index.count):
            raise ValueError(f"row {args.row} outside index of size {index.count}")
        return index.rows(args.row)
    if args.vector is None:
        raise ValueError("provide --row or --vector")
    vec = np.array([float(v) for v in args.vector.split(",")])
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"query vector has a non-finite component: {args.vector}")
    if vec.shape[0] != index.dim:
        raise ValueError(f"query has dim {vec.shape[0]}, index has {index.dim}")
    return vec


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = _config_from_args(args)
    # Overflowing latents (a huge noise) or rows (runaway weights) end the
    # run in one error line; numpy's warnings would add more lines.
    with np.errstate(over="ignore", invalid="ignore"):
        chk = trainer.train(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trainer.save_checkpoint(chk, out / "checkpoint.bin")
    trainer.save_curve(chk.curve, out / "curve.csv")
    dumpio.write_dump(chk.index, out / "embeddings.hypb")
    print(
        f"trained {config.steps} steps (space={config.space}, seed={config.seed}): "
        f"loss {chk.curve[0, 3]:.4f} -> {chk.curve[-1, 3]:.4f}, "
        f"clamp hits tau={chk.clamp_hits['tau']} curv={chk.clamp_hits['curv']}"
    )
    print(f"wrote {out / 'checkpoint.bin'}, {out / 'curve.csv'}, {out / 'embeddings.hypb'}")
    return EXIT_OK


def cmd_embed(args) -> int:
    chk = trainer.load_checkpoint(args.checkpoint)
    # Weights large enough to overflow give non-finite rows, which the index
    # rejects with one error line; numpy's warnings would add more lines.
    with np.errstate(over="ignore", invalid="ignore"):
        index = trainer.build_embedding_index(
            chk.tensors, chk.config, held_out_per_leaf=args.held_out_per_leaf
        )
    paths = dumpio.write_dump(index, args.out)
    print(f"wrote {paths[0]} ({index.count} rows, space={index.space})")
    return EXIT_OK


def cmd_stats(args) -> int:
    index = dumpio.read_dump(args.dump)
    stats = analysis.root_distance_stats(index, bins=args.bins)
    _emit(analysis.stats_summary_csv(stats), args.out_summary)
    _emit(analysis.stats_hist_csv(stats), args.out_hist)
    return EXIT_OK


def cmd_traverse(args) -> int:
    index = dumpio.read_dump(args.dump)
    query = _query_vector(args, index)
    result = analysis.traverse(
        query, index, steps=args.steps, cone_slack=args.cone_slack,
        cone_boundary=args.cone_boundary,
    )
    lines = ["kind,step,label"]
    for k, label in result.steps:
        lines.append(f"step,{k},{label}")
    first_hit = {}
    for k, label in result.steps:
        first_hit.setdefault(label, k)
    for label in result.unique:
        lines.append(f"unique,{first_hit[label]},{label}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    index = dumpio.read_dump(args.dump)
    query = _query_vector(args, index)
    hits = analysis.retrieve(
        query, index, k=args.k, calibrated=args.calibrated, tau=args.tau
    )
    payload = {
        "k": args.k,
        "calibrated": args.calibrated,
        "results": [
            {"row": h.row, "class": h.label_class, "label": h.label, "score": h.score}
            for h in hits
        ],
    }
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    prompts = dumpio.read_dump(args.prompts)
    images = dumpio.read_dump(args.images)
    # Image rows are scored at the curvature they were dumped at; a
    # checkpoint from the other space, or at another curvature (rejected by
    # class_scores), does not fit them.  The sphere has no curvature, and
    # scoring there reads none.
    if args.checkpoint:
        chk = trainer.load_checkpoint(args.checkpoint)
        if chk.config.space != images.space:
            raise ValueError(f"checkpoint is a {chk.config.space} run, images are a {images.space} dump")
        params = chk.loss_params()
    else:
        params = LossParams.init(prompts.dim, curv=images.curvature or CURV_INIT)
    prompt_sets: dict[str, list] = {}
    for (cls, label), row in zip(prompts.labels, prompts.vectors):
        if cls != "text":
            raise ValueError(f"prompt dump rows must have class 'text', got {cls!r}")
        prompt_sets.setdefault(label, []).append(row)

    res = analysis.class_scores(images.vectors, prompt_sets, params, images.curvature)
    results = [
        {"image": label, "predicted": predicted, "scores": dict(zip(res.names, scores))}
        for (_, label), predicted, scores in zip(images.labels, res.predicted(), res.scores.tolist())
    ]
    _emit(json.dumps({"predictions": results}) + "\n", args.out)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ok = gradcheck.run_suite(points=args.points, seeds=args.seeds)
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERICAL
    print("gradient check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hycone",
        description="Hyperbolic contrastive embeddings: train, dump, and analyze.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train on a synthetic concept tree",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embed", help="embed tree nodes + held-out images from a checkpoint",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="dump file path")
    p.add_argument("--held-out-per-leaf", type=int, default=None)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("stats", help="root-distance distribution of a dump",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--dump", required=True)
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--out-summary", default=None)
    p.add_argument("--out-hist", default=None)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("traverse", help="walk an embedding to [ROOT], retrieving texts",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--dump", required=True)
    p.add_argument("--row", type=int, default=None)
    p.add_argument("--vector", default=None, help="comma-separated floats")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--cone-slack", type=float, default=0.0,
                   help="allow hinge loss up to this value (>= 0; inf keeps every text) "
                        "in the cone filter")
    p.add_argument("--cone-boundary", type=float, default=CONE_BOUNDARY)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_traverse)

    p = sub.add_parser("retrieve", help="top-k nearest rows for a query",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--dump", required=True)
    p.add_argument("--row", type=int, default=None)
    p.add_argument("--vector", default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--calibrated", action="store_true",
                   help="softmax(-distance/tau) scores instead of raw similarity")
    p.add_argument("--tau", type=float, default=0.07)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("classify", help="zero-shot classify images against prompt sets",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--prompts", required=True, help="dump of pre-lift prompt vectors; label = class name")
    p.add_argument("--images", required=True, help="dump of image embeddings")
    p.add_argument("--checkpoint", default=None, help="read loss scalars from this checkpoint")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--points", type=int, default=100, help="sample points per primitive")
    p.add_argument("--seeds", type=int, default=20, help="admissible seeds per objective variant")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except trainer.DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
