"""Command-line entry points.

Subcommands::

    kickcast prepare     annotations -> evaluation-clips file
    kickcast targets     annotations -> per-clip training targets
    kickcast loss-check  outputs+targets file -> component losses
    kickcast evaluate    eval-clips + predictions -> scored report
    kickcast baseline    annotations -> synthetic prediction file

The evaluation protocol fixes 30 s of visible history before each window, so
``prepare`` and ``baseline`` take only ``--ta``; context length, frame rate
and slot count are training choices, given to ``targets``.

All outputs are canonical (sorted records, stable JSON), so repeated runs
on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from typing import Sequence

from .annotations import GameAnnotations, class_stats, load_corpus
from .baselines import BASELINE_KINDS, BaselineSpec, run_baseline
from .config import (
    MAX_HALF_MS,
    MAX_TOLERANCES,
    MAX_WINDOWS_PAST_HALF,
    MAX_WINDOWS_PER_HALF,
    BenchConfig,
)
from .fileio import (
    RENDERERS,
    VERSION,
    dump_json,
    format_delta,
    parse_delta,
    read_eval_clips,
    read_loss_check,
    read_predictions,
    write_eval_clips,
    write_predictions,
    write_targets,
)
from .jsonio import write_text
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
from .windowing import make_eval_clips, make_train_clips, train_stride_ms


def _add_ta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ta", type=float, default=5.0, help="anticipation length in seconds")


def _split(games: Sequence[GameAnnotations], split: str | None) -> list[GameAnnotations]:
    """The games of ``split``, or all of them for None; finding none is an error."""
    chosen = [g for g in games if split is None or g.split == split]
    if not chosen:
        raise ValueError(f"no games to process in split {split!r}")
    return chosen


def _bound_windows(flag: str, seconds: float, stride_ms: int) -> None:
    """Refuse a stride that tiles the longest half into too many windows.

    Arithmetic on :data:`~kickcast.config.MAX_HALF_MS` and the stride, so it
    runs before any file is read or game tiled; the limit is
    :data:`~kickcast.config.MAX_WINDOWS_PER_HALF`.
    """
    windows = -(-MAX_HALF_MS // stride_ms)
    if windows > MAX_WINDOWS_PER_HALF:
        raise ValueError(
            f"{flag} {seconds!r} tiles a {MAX_HALF_MS} ms half at a {stride_ms} ms stride "
            f"into up to {windows} windows; at most {MAX_WINDOWS_PER_HALF} windows per half "
            "are allowed"
        )


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
    cfg = BenchConfig(anticipation_s=args.ta)
    _bound_windows("--ta", args.ta, cfg.anticipation_ms)
    games = _split(load_corpus(args.annotations), args.split)
    write_eval_clips(args.out, _eval_clips(games, cfg), cfg)
    return 0


def cmd_targets(args: argparse.Namespace) -> int:
    variant = HeadVariant(args.variant)
    if HEADS[variant].needs_outputs:
        raise ValueError(
            f"{variant.value} pairing depends on model outputs and cannot be "
            "precomputed; use the library API with live outputs instead"
        )
    cfg = BenchConfig(
        context_s=args.tc, anticipation_s=args.ta, fps=args.fps, queries=args.queries
    )
    stride_ms = train_stride_ms(cfg)
    _bound_windows("--tc", args.tc, stride_ms)
    # A half whose length is inferred is tiled to its last action plus T_a.
    if -(-cfg.anticipation_ms // stride_ms) > MAX_WINDOWS_PAST_HALF:
        raise ValueError(
            f"--ta {args.ta!r} tiles more than {MAX_WINDOWS_PAST_HALF} windows at a "
            f"{stride_ms} ms stride past the end of a half; at --tc {args.tc!r}, --ta may be "
            f"at most {MAX_WINDOWS_PAST_HALF * stride_ms / 1000!r} s"
        )
    games = _split(load_corpus(args.annotations), args.split)
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
            total = total_loss(parts, cfg)
        except LossError as exc:
            raise LossError(f"{args.file}: clip #{i} ({clip_id}): {exc}") from exc
        except OverflowError:  # a square or a sum past the largest float
            total = math.inf
        # A part past the largest float makes the total inf or nan (a zero
        # lambda gives 0 * inf = nan), so the total checks every part.
        if not math.isfinite(total):
            raise LossError(f"{args.file}: clip #{i} ({clip_id}): its losses overflow a float")
        rows.append(
            {
                "id": clip_id,
                "detection": parts.detection,
                "classification": parts.classification,
                "time": parts.time,
                "segmentation": parts.segmentation,
                "total": total,
            }
        )
    try:
        mean = {k: math.fsum(row[k] for row in rows) / len(rows) for k in rows[0] if k != "id"}
    except OverflowError:
        raise LossError(f"{args.file}: the mean losses overflow a float") from None
    doc = {"format": "kickcast-loss-report", "version": VERSION, "clips": rows, "mean": mean}
    _emit(dump_json(doc), args.out)
    return 0


def _deltas(text: str) -> tuple[float, ...]:
    """The ``--deltas`` tolerances: distinct, at most :data:`~kickcast.config.MAX_TOLERANCES`."""
    count = text.count(",") + 1
    if count > MAX_TOLERANCES:
        raise ValueError(
            f"--deltas lists {count} tolerances, at most {MAX_TOLERANCES} are allowed"
        )
    deltas = tuple(parse_delta(part) for part in text.split(","))
    if len(set(deltas)) != len(deltas):  # by value: "1,1.0" and "inf,Infinity" too
        raise ValueError(f"duplicate tolerances in {deltas!r}")
    return deltas


def cmd_evaluate(args: argparse.Namespace) -> int:
    deltas = _deltas(args.deltas)  # before either file is read
    clips, _cfg = read_eval_clips(args.gt)
    predictions = read_predictions(args.pred)
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
    cfg = BenchConfig(anticipation_s=args.ta)
    _bound_windows("--ta", args.ta, cfg.anticipation_ms)
    games = load_corpus(args.annotations)
    train = [g for g in games if g.split == "train"]
    stats = class_stats(train) if spec.kind == "prior" and train else None
    predictions = run_baseline(_eval_clips(_split(games, args.split), cfg), spec, stats)
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
    _add_ta_arg(p)
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
    p.add_argument("--tc", type=float, default=5.0, help="context length in seconds")
    _add_ta_arg(p)
    p.add_argument("--fps", type=float, default=6.25, help="context frame rate")
    p.add_argument("--queries", type=int, default=0, help="slot count (0 = derived from --ta)")
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
        help=f"comma-separated tolerances in seconds (inf allowed), at most {MAX_TOLERANCES}",
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
    _add_ta_arg(p)
    p.add_argument("--out", required=True, help="output predictions file")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; bad input is one ``kickcast: error:`` line and status 2.

    The cyclic garbage collector is paused for the call.  The records a command
    builds hold no reference cycles, so reference counting frees each of them
    as before; the collector's passes (hundreds per command, triggered by the
    allocation count) would only ever find the parser's own few hundred
    objects.  The caller's collector state is restored on the way out.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"kickcast: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
