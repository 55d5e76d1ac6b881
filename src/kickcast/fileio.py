"""On-disk formats for clips, predictions, targets and reports.

All documents are JSON with a ``format`` tag and integer ``version``.  Files
are written canonically — sorted keys, two-space indent, records in a
documented sort order, trailing newline — so identical inputs produce
byte-identical files no matter how the records were generated.

Formats (all version 1):

* ``kickcast-eval-clips``   {format, version, config, clips: [{clip_id,
  game_id, half, context_start_ms, context_end_ms, anticipation_start_ms,
  anticipation_end_ms, partial, gt_actions: [{label, offset_ms}]}]},
  clips sorted by (game_id, half, anticipation_start_ms).
* ``kickcast-predictions``  {format, version, predictions: [{clip_id, label,
  time_s, confidence}]}, sorted by (clip_id, label, time_s, -confidence).
* ``kickcast-targets``      {format, version, config, variant, clips:
  [{clip_id, truncated, slots: [{gt_index, actionness, class_index,
  class_multihot, time}]}]}, sorted by clip_id.
* ``kickcast-loss-check``   input for the loss-check command: {format,
  version, config?, weights?, clips: [{id, variant, outputs: [{actionness,
  class_probs, time_raw}], slots: [...], truncated?, segmentation?:
  {frame_dists, labels}}]}.
* ``kickcast-report``       scoring output, see :func:`report_to_doc`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .annotations import parse_label
from .config import BenchConfig
from .losses import SlotOutput
from .metrics import EvalReport, Prediction
from .targets import Assignment, HeadVariant, SlotTarget
from .windowing import EvalClip, GtAction, SegGrid

FORMAT_EVAL_CLIPS = "kickcast-eval-clips"
FORMAT_PREDICTIONS = "kickcast-predictions"
FORMAT_TARGETS = "kickcast-targets"
FORMAT_LOSS_CHECK = "kickcast-loss-check"
FORMAT_REPORT = "kickcast-report"
VERSION = 1


class FileFormatError(ValueError):
    """Raised when a document does not follow its declared format."""


def dump_json(doc: Any) -> str:
    """Canonical JSON serialization (stable bytes for stable content)."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(dump_json(doc), encoding="utf-8")


def _load(path: str | Path, expected_format: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    fmt = doc.get("format")
    if fmt != expected_format:
        raise FileFormatError(f"{path}: format {fmt!r}, expected {expected_format!r}")
    version = doc.get("version")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version!r}")
    return doc


def _list(doc: dict, key: str, path: str | Path) -> list | None:
    """The document's ``key`` entry: a list, or None when absent or null."""
    value = doc.get(key)
    if value is not None and not isinstance(value, list):
        raise FileFormatError(f"{path}: {key!r} must be a list")
    return value


def _records(doc: dict, key: str, path: str | Path, what: str) -> Iterator[tuple[int, dict]]:
    """Yield (index, record) over the document's record list; each must be an object."""
    for i, rec in enumerate(_list(doc, key, path) or ()):
        if not isinstance(rec, dict):
            raise FileFormatError(f"{path}: {what} #{i}: must be an object")
        yield i, rec


def iter_annotation_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files and directories (non-recursive ``*.json``) into file paths."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.json"))
            if not found:
                raise FileFormatError(f"{path}: directory contains no .json files")
            yield from found
        elif path.exists():
            yield path
        else:
            raise FileFormatError(f"{path}: no such file")


# --- delta formatting -------------------------------------------------------


def format_delta(delta: float) -> str:
    if math.isinf(delta):
        return "inf"
    if float(delta).is_integer():
        return str(int(delta))
    return repr(float(delta))


def parse_delta(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in ("inf", "infinity"):
        return math.inf
    try:
        value = float(lowered)
    except ValueError:
        raise FileFormatError(f"bad tolerance {text!r}") from None
    if not value > 0:
        raise FileFormatError(f"tolerance must be positive, got {text!r}")
    return value


# --- config -----------------------------------------------------------------


def config_to_doc(cfg: BenchConfig) -> dict:
    return asdict(cfg)


def config_from_doc(doc: Any) -> BenchConfig:
    if not isinstance(doc, dict):
        raise FileFormatError("config must be an object")
    try:
        return BenchConfig(**doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad config: {exc}") from exc


# --- eval clips -------------------------------------------------------------


def eval_clips_to_doc(clips: Iterable[EvalClip], cfg: BenchConfig) -> dict:
    records = []
    ordered = sorted(clips, key=lambda c: (c.game_id, c.half, c.anticipation_start_ms))
    for clip in ordered:
        records.append(
            {
                "clip_id": clip.clip_id,
                "game_id": clip.game_id,
                "half": clip.half,
                "context_start_ms": clip.context_start_ms,
                "context_end_ms": clip.context_end_ms,
                "anticipation_start_ms": clip.anticipation_start_ms,
                "anticipation_end_ms": clip.anticipation_end_ms,
                "partial": clip.partial,
                "gt_actions": [
                    {"label": a.label.value, "offset_ms": a.offset_ms}
                    for a in clip.gt_actions
                ],
            }
        )
    return {
        "format": FORMAT_EVAL_CLIPS,
        "version": VERSION,
        "config": config_to_doc(cfg),
        "clips": records,
    }


def write_eval_clips(path: str | Path, clips: Iterable[EvalClip], cfg: BenchConfig) -> None:
    write_json(path, eval_clips_to_doc(clips, cfg))


def read_eval_clips(path: str | Path) -> tuple[list[EvalClip], BenchConfig]:
    doc = _load(path, FORMAT_EVAL_CLIPS)
    cfg = config_from_doc(doc.get("config"))
    clips = []
    for i, rec in _records(doc, "clips", path, "clip"):
        try:
            gt = tuple(
                GtAction(label=parse_label(a["label"]), offset_ms=int(a["offset_ms"]))
                for a in rec["gt_actions"]
            )
            clip = EvalClip(
                game_id=rec["game_id"],
                half=int(rec["half"]),
                context_start_ms=int(rec["context_start_ms"]),
                context_end_ms=int(rec["context_end_ms"]),
                anticipation_start_ms=int(rec["anticipation_start_ms"]),
                anticipation_end_ms=int(rec["anticipation_end_ms"]),
                partial=bool(rec["partial"]),
                gt_actions=gt,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: clip #{i}: {exc}") from exc
        if rec.get("clip_id") != clip.clip_id:
            raise FileFormatError(
                f"{path}: clip #{i}: id {rec.get('clip_id')!r} does not match "
                f"derived {clip.clip_id!r}"
            )
        window = clip.window_len_ms
        if window <= 0 or (window < cfg.anticipation_ms) != clip.partial:
            raise FileFormatError(
                f"{path}: clip #{i}: span of {window} ms inconsistent with "
                f"partial={clip.partial} at T_a={cfg.anticipation_ms} ms"
            )
        for a in clip.gt_actions:
            if not 0 <= a.offset_ms < window:
                raise FileFormatError(
                    f"{path}: clip #{i}: action at {a.offset_ms} ms outside {window} ms span"
                )
        clips.append(clip)
    return clips, cfg


# --- predictions ------------------------------------------------------------


def predictions_to_doc(predictions: Iterable[Prediction]) -> dict:
    ordered = sorted(
        predictions, key=lambda p: (p.clip_id, p.label.value, p.time_s, -p.confidence)
    )
    return {
        "format": FORMAT_PREDICTIONS,
        "version": VERSION,
        "predictions": [
            {
                "clip_id": p.clip_id,
                "label": p.label.value,
                "time_s": p.time_s,
                "confidence": p.confidence,
            }
            for p in ordered
        ],
    }


def write_predictions(path: str | Path, predictions: Iterable[Prediction]) -> None:
    write_json(path, predictions_to_doc(predictions))


def read_predictions(path: str | Path) -> list[Prediction]:
    doc = _load(path, FORMAT_PREDICTIONS)
    predictions = []
    for i, rec in _records(doc, "predictions", path, "prediction"):
        try:
            predictions.append(
                Prediction(
                    clip_id=rec["clip_id"],
                    label=parse_label(rec["label"]),
                    time_s=float(rec["time_s"]),
                    confidence=float(rec["confidence"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: prediction #{i}: {exc}") from exc
    return predictions


# --- targets ----------------------------------------------------------------


def _slot_to_doc(slot: SlotTarget) -> dict:
    return {
        "gt_index": slot.gt_index,
        "actionness": slot.actionness,
        "class_index": slot.class_index,
        "class_multihot": list(slot.class_multihot) if slot.class_multihot else None,
        "time": slot.time,
    }


def targets_to_doc(
    assignments: Iterable[tuple[str, Assignment]],
    cfg: BenchConfig,
    variant: HeadVariant,
) -> dict:
    records = []
    for clip_id, assignment in sorted(assignments, key=lambda pair: pair[0]):
        records.append(
            {
                "clip_id": clip_id,
                "truncated": assignment.truncated,
                "slots": [_slot_to_doc(s) for s in assignment.slots],
            }
        )
    return {
        "format": FORMAT_TARGETS,
        "version": VERSION,
        "config": config_to_doc(cfg),
        "variant": variant.value,
        "clips": records,
    }


def write_targets(
    path: str | Path,
    assignments: Iterable[tuple[str, Assignment]],
    cfg: BenchConfig,
    variant: HeadVariant,
) -> None:
    write_json(path, targets_to_doc(assignments, cfg, variant))


# --- loss-check input -------------------------------------------------------


def _slot_from_doc(doc: Any, where: str) -> SlotTarget:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: slot must be an object")
    multihot = doc.get("class_multihot")
    return SlotTarget(
        gt_index=doc.get("gt_index"),
        actionness=doc.get("actionness"),
        class_index=doc.get("class_index"),
        class_multihot=tuple(int(v) for v in multihot) if multihot is not None else None,
        time=doc.get("time"),
    )


def read_loss_check(
    path: str | Path,
) -> tuple[
    BenchConfig,
    tuple[float, ...] | None,
    list[tuple[str, list[SlotOutput], Assignment, tuple[list[list[float]], SegGrid] | None]],
]:
    """Parse a loss-check document into (config, weights, per-clip entries)."""
    doc = _load(path, FORMAT_LOSS_CHECK)
    cfg = config_from_doc(doc["config"]) if "config" in doc else BenchConfig()
    weights_doc = _list(doc, "weights", path)
    try:
        weights = tuple(float(w) for w in weights_doc) if weights_doc is not None else None
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: weights: {exc}") from exc
    entries = []
    for i, rec in _records(doc, "clips", path, "clip"):
        where = f"{path}: clip #{i}"
        try:
            clip_id = str(rec.get("id", i))
            variant = HeadVariant(rec["variant"])
            outputs = [
                SlotOutput(
                    actionness=float(o["actionness"]),
                    class_probs=tuple(float(p) for p in o["class_probs"]),
                    time_raw=float(o["time_raw"]),
                )
                for o in rec["outputs"]
            ]
            slots = tuple(_slot_from_doc(s, where) for s in rec["slots"])
            assignment = Assignment(
                variant=variant, slots=slots, truncated=bool(rec.get("truncated", False))
            )
            seg = None
            seg_doc = rec.get("segmentation")
            if seg_doc is not None:
                frame_dists = [[float(p) for p in dist] for dist in seg_doc["frame_dists"]]
                seg = (frame_dists, SegGrid(tuple(int(v) for v in seg_doc["labels"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
        entries.append((clip_id, outputs, assignment, seg))
    return cfg, weights, entries


# --- reports ----------------------------------------------------------------


def report_to_doc(report: EvalReport) -> dict:
    classes = {}
    for label in report.classes:
        per_delta = {}
        for delta in report.deltas:
            score = report.scores[delta][label]
            per_delta[format_delta(delta)] = {
                "ap": score.ap,
                "tp": score.tp,
                "fp": score.fp,
                "gt": score.gt,
            }
        classes[label.value] = per_delta
    return {
        "format": FORMAT_REPORT,
        "version": VERSION,
        "deltas": [format_delta(d) for d in report.deltas],
        "map": {format_delta(d): report.map_at[d] for d in report.deltas},
        "average_map": report.average,
        "classes": classes,
        "clip_count": report.clip_count,
        "prediction_count": report.prediction_count,
        "clamped_predictions": report.clamped_predictions,
    }


def render_report_json(report: EvalReport) -> str:
    return dump_json(report_to_doc(report))


def render_report_csv(report: EvalReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["delta", "class", "ap", "tp", "fp", "gt"])
    for delta in report.deltas:
        name = format_delta(delta)
        for label in report.classes:
            score = report.scores[delta][label]
            ap = "" if score.ap is None else repr(score.ap)
            writer.writerow([name, label.value, ap, score.tp, score.fp, score.gt])
        writer.writerow([name, "mAP", repr(report.map_at[delta]), "", "", ""])
    writer.writerow(["all", "average mAP", repr(report.average), "", "", ""])
    return buffer.getvalue()


def render_report_md(report: EvalReport) -> str:
    def fmt(ap: float | None) -> str:
        return "n/a" if ap is None else f"{ap:.4f}"

    names = [format_delta(d) for d in report.deltas]
    lines = [
        "| Class | " + " | ".join(f"AP@{n}" for n in names) + " |",
        "| --- |" + " ---: |" * len(names),
    ]
    for label in report.classes:
        cells = [fmt(report.scores[d][label].ap) for d in report.deltas]
        lines.append(f"| {label.value} | " + " | ".join(cells) + " |")
    lines.append(
        "| **mAP** | " + " | ".join(f"**{report.map_at[d]:.4f}**" for d in report.deltas) + " |"
    )
    lines.append("")
    lines.append(f"Average mAP over tolerances: **{report.average:.4f}**")
    lines.append(
        f"Clips: {report.clip_count}, predictions: {report.prediction_count}"
        f" ({report.clamped_predictions} time-clamped)"
    )
    return "\n".join(lines) + "\n"


RENDERERS = {
    "json": render_report_json,
    "csv": render_report_csv,
    "md": render_report_md,
}
