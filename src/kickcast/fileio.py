"""On-disk formats for clips, predictions, targets and reports.

All documents are JSON with a ``format`` tag and integer ``version``.  Files
are written canonically — sorted keys, two-space indent, records in a
documented sort order, trailing newline — so identical inputs produce
byte-identical files no matter how the records were generated.

Every record list is read through :func:`_read_records`, its fields with the
value rules of :mod:`kickcast.jsonio`: a bad record is one FileFormatError naming it.

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
import functools
import io
import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .annotations import parse_label
from .config import BenchConfig
from .jsonio import FileFormatError, exact, number, read_json, write_text
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


_encode_str = json.encoder.encode_basestring_ascii


def _encode_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


#: JSON text of a scalar, keyed by its exact type.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@functools.lru_cache(maxsize=None)  # one entry per nesting depth
def _breaks(depth: int) -> tuple[str, str]:
    """(newline + indent, comma + newline + indent) at ``depth``."""
    newline = "\n" + "  " * depth
    return newline, "," + newline


#: No item yet, in :func:`_encode_list`'s run tracking (``None`` is an item).
_NOTHING = object()


def _encode(value: Any, depth: int) -> str:
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict:
        return _encode_dict(value, depth)
    if kind is list or kind is tuple:
        return _encode_list(value, depth)
    # Subclasses of built-in types, in the order json's encoder tests them.
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _encode_float(value)
    if isinstance(value, (list, tuple)):
        return _encode_list(value, depth)
    if isinstance(value, dict):
        return _encode_dict(value, depth)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _encode_list(items: list | tuple, depth: int) -> str:
    if not items:
        return "[]"
    close = _breaks(depth)[0]
    newline, sep = _breaks(depth + 1)
    kinds = set(map(type, items))
    scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    if scalar is not None:
        body = sep.join(map(scalar, items))
    else:
        # A run of one object (the shared unpaired slot of a targets clip)
        # is encoded once; a comprehension keeps lists without runs as fast
        # as a plain one.
        prev = text = _NOTHING
        texts = [
            text if item is prev else (text := _encode(prev := item, depth + 1))
            for item in items
        ]
        body = sep.join(texts)
        del texts  # free the item texts before the f-string below copies body
    return f"[{newline}{body}{close}]"


@functools.lru_cache(maxsize=1024)  # a document has few key sets; exceptions are not cached
def _layout(keys: tuple, depth: int) -> tuple[tuple[tuple[Any, str], ...], str]:
    """((key, text before its value), ...) in sorted key order, and the closing text.

    ``keys`` are a dict's keys in insertion order; only ``str`` keys are allowed.
    """
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    newline, sep = _breaks(depth + 1)
    heads = tuple(
        (key, f"{sep if i else newline}{_encode_str(key)}: ") for i, key in enumerate(sorted(keys))
    )
    return heads, _breaks(depth)[0] + "}"


def _encode_dict(obj: dict, depth: int) -> str:
    if not obj:
        return "{}"
    heads, close = _layout(tuple(obj), depth)
    parts = ["{"]
    for key, head in heads:
        value = obj[key]
        scalar = _SCALARS.get(type(value))
        parts.append(head)
        parts.append(scalar(value) if scalar is not None else _encode(value, depth + 1))
    parts.append(close)
    return "".join(parts)


def dump_json(doc: Any) -> str:
    """Canonical JSON serialization (stable bytes for stable content).

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"`` for documents with string keys, which would run
    CPython's pure-Python encoder (any ``indent`` turns its C encoder off).  A
    run of one object, such as a targets clip's shared unpaired slot, is
    encoded once (see :func:`targets_to_doc`), and the sorted keys of a dict
    and the text before each value are laid out once per key set and depth.
    """
    return _encode(doc, 0) + "\n"


def write_json(path: str | Path, doc: Any) -> None:
    write_text(path, dump_json(doc))


def _load(path: str | Path, expected_format: str) -> dict:
    doc = read_json(path)
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


def _read_records(doc: dict, key: str, path: str | Path, what: str, read: Callable) -> list:
    """``read`` of each object in ``doc[key]``; its errors become one FileFormatError."""
    records: list = []
    items = _list(doc, key, path) or ()
    try:
        for rec in items:
            if not isinstance(rec, dict):
                raise TypeError("must be an object")
            records.append(read(rec))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {what} #{len(records)}: {exc}") from exc
    return records


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
    try:
        value = float(text)  # also "inf" and "infinity", in any case, with surrounding spaces
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
    unknown = sorted(doc.keys() - {f.name for f in fields(BenchConfig)})
    if unknown:
        raise FileFormatError(f"bad config: unknown field {unknown[0]!r}")
    try:
        return BenchConfig(**doc)
    except ValueError as exc:
        raise FileFormatError(f"bad config: {exc}") from exc


def _config(doc: Any, path: str | Path) -> BenchConfig:
    try:
        return config_from_doc(doc)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# --- eval clips -------------------------------------------------------------


def eval_clips_to_doc(clips: Iterable[EvalClip], cfg: BenchConfig) -> dict:
    records = [
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
                {"label": a.label.value, "offset_ms": a.offset_ms} for a in clip.gt_actions
            ],
        }
        for clip in sorted(clips, key=lambda c: (c.game_id, c.half, c.anticipation_start_ms))
    ]
    return {
        "format": FORMAT_EVAL_CLIPS,
        "version": VERSION,
        "config": config_to_doc(cfg),
        "clips": records,
    }


def write_eval_clips(path: str | Path, clips: Iterable[EvalClip], cfg: BenchConfig) -> None:
    write_json(path, eval_clips_to_doc(clips, cfg))


def _eval_clip(rec: dict, ta_ms: int) -> EvalClip:
    clip = EvalClip(
        game_id=exact(rec["game_id"], str, "game_id"),
        half=exact(rec["half"], int, "half"),
        context_start_ms=exact(rec["context_start_ms"], int, "context_start_ms"),
        context_end_ms=exact(rec["context_end_ms"], int, "context_end_ms"),
        anticipation_start_ms=exact(rec["anticipation_start_ms"], int, "anticipation_start_ms"),
        anticipation_end_ms=exact(rec["anticipation_end_ms"], int, "anticipation_end_ms"),
        partial=exact(rec["partial"], bool, "partial"),
        gt_actions=tuple(
            GtAction(parse_label(a["label"]), exact(a["offset_ms"], int, "offset_ms"))
            for a in rec["gt_actions"]
        ),
    )
    if exact(rec["clip_id"], str, "clip_id") != clip.clip_id:
        raise ValueError(f"id {rec['clip_id']!r} does not match derived {clip.clip_id!r}")
    window = clip.window_len_ms
    if window <= 0 or (window < ta_ms) != clip.partial:
        raise ValueError(
            f"span of {window} ms inconsistent with partial={clip.partial} at T_a={ta_ms} ms"
        )
    for a in clip.gt_actions:
        if not 0 <= a.offset_ms < window:
            raise ValueError(f"action at {a.offset_ms} ms outside {window} ms span")
    return clip


def read_eval_clips(path: str | Path) -> tuple[list[EvalClip], BenchConfig]:
    doc = _load(path, FORMAT_EVAL_CLIPS)
    cfg = _config(doc.get("config"), path)
    read = functools.partial(_eval_clip, ta_ms=cfg.anticipation_ms)
    return _read_records(doc, "clips", path, "clip", read), cfg


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


def _prediction(rec: dict) -> Prediction:
    time_s, confidence = rec["time_s"], rec["confidence"]
    if type(time_s) is not float or type(confidence) is not float:  # inline: the common case
        time_s, confidence = number(time_s, "time_s"), number(confidence, "confidence")
    return Prediction(
        exact(rec["clip_id"], str, "clip_id"), parse_label(rec["label"]), time_s, confidence
    )


def read_predictions(path: str | Path) -> list[Prediction]:
    doc = _load(path, FORMAT_PREDICTIONS)
    return _read_records(doc, "predictions", path, "prediction", _prediction)


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
    # One dict per distinct slot object, so the encoder sees a run of the
    # shared unpaired slot as one object.  Keyed by identity, not value:
    # SlotTarget(actionness=0) == SlotTarget(actionness=0.0) but they encode
    # differently.  The assignments are alive for the whole call, so ids are
    # not reused.
    slot_docs: dict[int, dict] = {}
    records = []
    for clip_id, assignment in sorted(assignments, key=lambda pair: pair[0]):
        slots = []
        for s in assignment.slots:
            doc = slot_docs.get(id(s))
            if doc is None:
                doc = slot_docs[id(s)] = _slot_to_doc(s)
            slots.append(doc)
        records.append({"clip_id": clip_id, "truncated": assignment.truncated, "slots": slots})
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


#: A loss-check clip: id, slot outputs, targets, and (frame distributions, labels) or None.
_LossEntry = tuple[str, list[SlotOutput], Assignment, tuple[list[list[float]], SegGrid] | None]


def _loss_clip(rec: dict) -> _LossEntry:
    outputs = [
        SlotOutput(
            actionness=number(o["actionness"], "actionness"),
            class_probs=tuple(number(p, "class_probs") for p in o["class_probs"]),
            time_raw=number(o["time_raw"], "time_raw"),
        )
        for o in rec["outputs"]
    ]
    slots = []
    for s in rec["slots"]:
        actionness, hot, time = s["actionness"], s["class_multihot"], s["time"]
        if hot is not None:
            hot = tuple(exact(v, int, "class_multihot") for v in hot)
        slots.append(
            SlotTarget(
                gt_index=exact(s["gt_index"], int, "gt_index", nullable=True),
                actionness=None if actionness is None else number(actionness, "actionness"),
                class_index=exact(s["class_index"], int, "class_index", nullable=True),
                class_multihot=hot,
                time=None if time is None else number(time, "time"),
            )
        )
    assignment = Assignment(
        variant=HeadVariant(rec["variant"]),
        slots=tuple(slots),
        truncated=exact(rec.get("truncated", False), bool, "truncated"),
    )
    seg = None
    seg_doc = rec.get("segmentation")
    if seg_doc is not None:
        frame_dists = [
            [number(p, "frame_dists") for p in dist] for dist in seg_doc["frame_dists"]
        ]
        seg = (frame_dists, SegGrid(tuple(exact(v, int, "labels") for v in seg_doc["labels"])))
    return exact(rec.get("id"), str, "id", nullable=True), outputs, assignment, seg


def _weights(doc: dict, path: str | Path) -> tuple[float, ...] | None:
    """The class weights, each a finite JSON number > 0 (not a boolean), or None."""
    items = _list(doc, "weights", path)
    if items is None:
        return None
    weights: list[float] = []
    try:
        for value in items:
            name = f"weights #{len(weights)}:"
            weight = number(value, name)
            if not (math.isfinite(weight) and weight > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            weights.append(weight)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return tuple(weights)


def read_loss_check(
    path: str | Path,
) -> tuple[BenchConfig, tuple[float, ...] | None, list[_LossEntry]]:
    """Parse a loss-check document into (config, weights, per-clip entries)."""
    doc = _load(path, FORMAT_LOSS_CHECK)
    cfg = _config(doc.get("config", {}), path)
    weights = _weights(doc, path)
    clips = _read_records(doc, "clips", path, "clip", _loss_clip)
    entries = [(str(i if id_ is None else id_), *rest) for i, (id_, *rest) in enumerate(clips)]
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
