"""Command-line entry points.

Subcommands::

    kickcast prepare     annotations -> evaluation-clips file
    kickcast targets     annotations -> per-clip training targets
    kickcast loss-check  outputs+targets file -> component losses
    kickcast evaluate    eval-clips + predictions -> scored report
    kickcast baseline    annotations -> synthetic prediction file

All outputs are canonical (sorted records, stable JSON), so repeated runs
on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Sequence

from .annotations import GameAnnotations, class_stats, filter_classes, parse_annotations
from .baselines import BASELINE_KINDS, BaselineSpec, run_baseline
from .config import BenchConfig
from .fileio import (
    RENDERERS,
    VERSION,
    dump_json,
    format_delta,
    iter_annotation_files,
    parse_delta,
    read_eval_clips,
    read_loss_check,
    read_predictions,
    write_eval_clips,
    write_predictions,
    write_targets,
    write_text,
)
from .losses import (
    LossError,
    LossParts,
    loss_class,
    loss_detection,
    loss_segmentation,
    loss_time,
    total_loss,
)
from .metrics import DEFAULT_DELTAS, evaluate
from .targets import HEADS, HeadVariant, assign_for_variant
from .windowing import make_eval_clips, make_train_clips


def _add_window_args(parser: argparse.ArgumentParser, with_queries: bool = False) -> None:
    parser.add_argument("--tc", type=float, default=5.0, help="context length in seconds")
    parser.add_argument("--ta", type=float, default=5.0, help="anticipation length in seconds")
    parser.add_argument("--fps", type=float, default=6.25, help="context frame rate")
    if with_queries:
        parser.add_argument(
            "--queries", type=int, default=0, help="slot count (0 = derived from --ta)"
        )


def _config_from_args(args: argparse.Namespace) -> BenchConfig:
    return BenchConfig(
        context_s=args.tc,
        anticipation_s=args.ta,
        fps=args.fps,
        queries=getattr(args, "queries", 0),
    )


def _load_corpus(paths: Sequence[str], split: str | None) -> list[GameAnnotations]:
    games = [filter_classes(parse_annotations(p)) for p in iter_annotation_files(paths)]
    if split is not None:
        games = [g for g in games if g.split == split]
    if not games:
        raise ValueError(
            "no games to process" + (f" in split {split!r}" if split else "")
        )
    seen: set[str] = set()
    for game in games:
        if game.game_id in seen:
            raise ValueError(f"duplicate game id {game.game_id!r} in inputs")
        seen.add(game.game_id)
    return games


def _eval_clips(games: Sequence[GameAnnotations], cfg: BenchConfig) -> list:
    clips = [clip for game in games for clip in make_eval_clips(game, cfg)]
    if not clips:
        raise ValueError("no evaluation windows could be derived from the inputs")
    return clips


def _emit(text: str, out: str | None) -> None:
    """Write a report to the ``--out`` file, or to stdout without one."""
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    games = _load_corpus(args.annotations, args.split)
    write_eval_clips(args.out, _eval_clips(games, cfg), cfg)
    return 0


def cmd_targets(args: argparse.Namespace) -> int:
    variant = HeadVariant(args.variant)
    if HEADS[variant].needs_outputs:
        raise ValueError(
            f"{variant.value} pairing depends on model outputs and cannot be "
            "precomputed; use the library API with live outputs instead"
        )
    cfg = _config_from_args(args)
    games = _load_corpus(args.annotations, args.split)
    records = []
    for game in games:
        for clip in make_train_clips(game, cfg):
            records.append((clip.clip_id, assign_for_variant(variant, clip.future_actions, cfg)))
    if not records:
        raise ValueError("no training windows could be derived from the inputs")
    write_targets(args.out, records, cfg, variant)
    return 0


def cmd_loss_check(args: argparse.Namespace) -> int:
    cfg, weights, entries = read_loss_check(args.file)
    if not entries:
        raise ValueError(f"{args.file}: no clips to check")
    rows = []
    for i, (clip_id, outputs, assignment, seg) in enumerate(entries):
        try:
            parts = LossParts(
                loss_detection(outputs, assignment),
                loss_class(outputs, assignment, weights),
                loss_time(outputs, assignment),
                loss_segmentation(*seg, weights) if seg else 0.0,
            )
        except LossError as exc:
            raise LossError(f"{args.file}: clip #{i} ({clip_id}): {exc}") from exc
        rows.append({"id": clip_id, **asdict(parts), "total": total_loss(parts, cfg)})
    mean = {k: math.fsum(row[k] for row in rows) / len(rows) for k in rows[0] if k != "id"}
    doc = {"format": "kickcast-loss-report", "version": VERSION, "clips": rows, "mean": mean}
    _emit(dump_json(doc), args.out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    clips, _cfg = read_eval_clips(args.gt)
    predictions = read_predictions(args.pred)
    deltas = tuple(parse_delta(part) for part in args.deltas.split(","))
    report = evaluate(clips, predictions, deltas)
    text = RENDERERS[args.format](report)
    _emit(text, args.out)
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    spec = BaselineSpec(
        kind=args.kind,
        noise_std_s=args.noise_std,
        drop_prob=args.drop_prob,
        seed=args.seed,
        top_k=args.top_k,
        per_clip=args.per_clip,
    )
    cfg = _config_from_args(args)
    games = _load_corpus(args.annotations, None)
    scored = [g for g in games if args.split is None or g.split == args.split]
    if not scored:
        raise ValueError(f"no games in split {args.split!r}")
    stats = None
    if spec.kind == "prior":
        train_games = [g for g in games if g.split == "train"]
        if not train_games:
            raise ValueError("prior baseline needs train-split games in the inputs")
        stats = class_stats(train_games)
    predictions = run_baseline(_eval_clips(scored, cfg), spec, stats)
    write_predictions(args.out, predictions)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickcast",
        description="Ball-action anticipation benchmark tools: windowing, "
        "targets, losses, scoring and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="derive evaluation clips from annotations")
    p.add_argument("annotations", nargs="+", help="annotation files or directories")
    p.add_argument("--split", help="only games of this split")
    _add_window_args(p)
    p.add_argument("--out", required=True, help="output eval-clips file")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("targets", help="derive per-slot training targets")
    p.add_argument("annotations", nargs="+", help="annotation files or directories")
    p.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in HeadVariant],
        help="prediction-head variant",
    )
    p.add_argument("--split", help="only games of this split")
    _add_window_args(p, with_queries=True)
    p.add_argument("--out", required=True, help="output targets file")
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("loss-check", help="recompute reference losses for an outputs file")
    p.add_argument("file", help="loss-check input file (outputs + targets)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("evaluate", help="score a prediction file")
    p.add_argument("--gt", required=True, help="eval-clips file (ground truth)")
    p.add_argument("--pred", required=True, help="predictions file")
    p.add_argument(
        "--deltas",
        default=",".join(map(format_delta, DEFAULT_DELTAS)),
        help="comma-separated tolerances in seconds (inf allowed)",
    )
    p.add_argument("--format", choices=sorted(RENDERERS), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="emit a synthetic prediction file")
    p.add_argument("annotations", nargs="+", help="annotation files or directories")
    p.add_argument("--kind", required=True, choices=BASELINE_KINDS)
    p.add_argument("--split", help="score only games of this split")
    p.add_argument("--noise-std", type=float, default=0.0, help="oracle time noise (seconds)")
    p.add_argument("--drop-prob", type=float, default=0.0, help="oracle drop probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", type=int, default=3, help="prior: number of classes emitted")
    p.add_argument("--per-clip", type=int, default=3, help="random: predictions per clip")
    _add_window_args(p)
    p.add_argument("--out", required=True, help="output predictions file")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"kickcast: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
