"""On-disk formats for clips, predictions, targets and reports.

All documents are JSON with a ``format`` tag and integer ``version``.  Files
are written canonically — sorted keys, two-space indent, records in a
documented sort order, trailing newline — so identical inputs produce
byte-identical files no matter how the records were generated.

A document is plain dicts and lists, whose text is :func:`dump_json`'s.  The
eval-clips, predictions and targets writers build no document: each sorts its
records and writes their texts one at a time into the frame that
:func:`dump_json` makes of the document's other values (:func:`_write_frame`).
A record's fields are formatted into its template: integers by ``%d``, strings
by the stdlib's encoder, booleans and labels from tables, floats by their repr.
Predictions are written one clip at a time, a clip's records in one text.

Every record list is read through :func:`_read_records`, its fields with the
value rules of :mod:`kickcast.jsonio`: a bad record is one FileFormatError
naming it.  Prediction records are built inside the JSON parser: its object
hook (:func:`_prediction_hook`) turns each well-formed record into its
Prediction as the parser closes it, so the document's dicts are never all
held at once, and leaves every other object a dict for the checked path
(:func:`_prediction`) and its errors.  Writers hold each field to the same
rules, so what they write reads back: an eval clip by :func:`_checked_clip`,
which its reader applies too, a slot by the loss-check slot reader's kinds and
the targets schema's ranges, a prediction by its constructor.

Formats (all version 1):

* ``kickcast-eval-clips``   {format, version, config, clips: [{clip_id,
  game_id, half, context_start_ms, context_end_ms, anticipation_start_ms,
  anticipation_end_ms, partial, gt_actions: [{label, offset_ms}]}]},
  clips sorted by :attr:`EvalClip.sort_key`.  ``clip_id`` and the context span
  are derived from the other fields and checked against them on read; a window
  is T_a long unless it is ``partial``.  Only ``anticipation_s`` of the config
  shapes the clips: the rest keeps its defaults for byte stability.
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
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable

from .annotations import LABEL_TEXT, ActionClass, AnnotationError, parse_label
from .config import NUM_CLASSES, BenchConfig
from .jsonio import FileFormatError, brief, exact, number, read_json, write_frame, write_text
from .losses import SlotOutput
from .metrics import EvalReport, Prediction
from .targets import BLANK, HEADS, ONE_HOT, UNCONSTRAINED, Assignment, HeadVariant, SlotTarget
from .windowing import EvalClip, GtAction, SegGrid

FORMAT_EVAL_CLIPS = "kickcast-eval-clips"
FORMAT_PREDICTIONS = "kickcast-predictions"
FORMAT_TARGETS = "kickcast-targets"
FORMAT_LOSS_CHECK = "kickcast-loss-check"
FORMAT_REPORT = "kickcast-report"
VERSION = 1


_encode_str = json.encoder.encode_basestring_ascii
#: The JSON text of each boolean.
_BOOL_TEXT = {False: "false", True: "true"}


def _template(keys: tuple, depth: int) -> str:
    """The text of a dict with ``keys`` at ``depth``, with a ``%s`` for each value.

    Values, encoded at ``depth + 1``, fill it in sorted key order; they are not
    part of the template, so a ``%`` in a value is just data.
    """
    newline = "\n" + "  " * (depth + 1)
    heads = [newline + _encode_str(key).replace("%", "%%") + ": %s" for key in sorted(keys)]
    return "{" + ",".join(heads) + "\n" + "  " * depth + "}"


def _join(texts: list[str], depth: int) -> str:
    """The text of a list at ``depth`` whose items, at ``depth + 1``, have ``texts``."""
    if not texts:
        return "[]"
    close = "\n" + "  " * depth
    return "[" + close + "  " + ("," + close + "  ").join(texts) + close + "]"


def dump_json(doc: Any) -> str:
    """Canonical JSON serialization (stable bytes for stable content)."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str | Path, doc: Any) -> None:
    """Write :func:`dump_json`'s text through :func:`~kickcast.jsonio.output`.

    Nothing of ``path`` changes unless the whole document is written.
    """
    write_text(path, dump_json(doc))


def _write_frame(path: str | Path, head: dict, key: str, texts: Iterable[str]) -> None:
    """Write :func:`dump_json`'s text of ``head`` plus ``key``, a list with ``texts`` as items."""
    write_frame(path, dump_json({**head, key: []}), key, texts)


def _objects(value: Any, name: str) -> list:
    """``value`` if it is a list of objects; a wrong item is named ``name #i``."""
    for i, item in enumerate(exact(value, list, name)):
        if not isinstance(item, dict):
            raise TypeError(f"{name} #{i} must be an object, got {brief(item)}")
    return value


def _load(path: str | Path, expected_format: str, object_hook: Callable | None = None) -> dict:
    doc = read_json(path, object_hook)
    if not isinstance(doc, dict):
        if isinstance(doc, (list, str, int, float)) or doc is None:
            raise FileFormatError(f"{path}: expected a JSON object at top level")
        doc = {}  # a record that ``object_hook`` built of the top-level object: it has no format
    fmt = doc.get("format")
    if fmt != expected_format:
        raise FileFormatError(f"{path}: format {brief(fmt)}, expected {expected_format!r}")
    version = doc.get("version")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {brief(version)}")
    return doc


def _list(doc: dict, key: str, path: str | Path) -> list | None:
    """The document's ``key`` entry: a list, or None when absent or null."""
    value = doc.get(key)
    if value is not None and not isinstance(value, list):
        raise FileFormatError(f"{path}: {key!r} must be a list")
    return value


def _read_records(
    doc: dict, key: str, path: str | Path, what: str, read: Callable, built: type | None = None
) -> list:
    """``doc[key]``, each object replaced by ``read`` of it; its errors become one FileFormatError.

    An item of type ``built``, a record that the parser's object hook built
    already, is kept as it is.  The document's list becomes the record list.
    """
    records = _list(doc, key, path) or []
    try:
        for i, rec in enumerate(records):
            if type(rec) is not built:
                if not isinstance(rec, dict):
                    raise TypeError("must be an object")
                records[i] = read(rec)
    except KeyError as exc:
        raise FileFormatError(f"{path}: {what} #{i}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {what} #{i}: {exc}") from exc
    return records


# --- delta formatting -------------------------------------------------------


def format_delta(delta: float) -> str:
    if math.isinf(delta):
        return "inf"
    if float(delta).is_integer():
        return str(int(delta))
    return repr(float(delta))


#: Smallest tolerance a text may name, in seconds: 1 ms, the resolution of clip spans.
MIN_DELTA_S = 0.001

#: The spellings of an unbounded tolerance, lower-cased: the only texts that may give ∞.
_INF_SPELLINGS = ("inf", "+inf", "infinity", "+infinity")


def parse_delta(text: str) -> float:
    """A tolerance in seconds: at least :data:`MIN_DELTA_S`, or ``inf`` for none.

    Any text ``float()`` takes, except digit separators (``_``), non-ASCII
    digits and finite literals too large for a float, which ``float()`` would
    read as ∞.
    """
    try:
        if "_" in text or not text.isascii():
            raise ValueError
        value = float(text)  # also "inf" and "infinity", in any case, with surrounding spaces
    except ValueError:
        raise FileFormatError(f"bad tolerance {brief(text)}") from None
    if not value > 0:
        raise FileFormatError(f"tolerance must be positive, got {brief(text)}")
    if value == math.inf and text.strip().lower() not in _INF_SPELLINGS:
        raise FileFormatError(f"tolerance {brief(text)} is too large; write inf for no bound")
    if value < MIN_DELTA_S:
        raise FileFormatError(
            f"tolerance must be at least {MIN_DELTA_S} s (1 ms), got {brief(text)}"
        )
    return value


# --- config -----------------------------------------------------------------


def config_to_doc(cfg: BenchConfig) -> dict:
    return asdict(cfg)


def config_from_doc(doc: Any) -> BenchConfig:
    if not isinstance(doc, dict):
        raise FileFormatError("config must be an object")
    unknown = sorted(doc.keys() - {f.name for f in fields(BenchConfig)})
    if unknown:
        raise FileFormatError(f"bad config: unknown field {brief(unknown[0])}")
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


#: An eval clip's text: its fields and the three derived from them, with ``%d``
#: for each integer in sorted key order.  (The keys hold no ``%``, so the
#: template has no ``%%`` for this formatting to undo.)
_DERIVED = ("clip_id", "context_start_ms", "context_end_ms")
_EVAL_CLIP = _template(EvalClip._fields + _DERIVED, 2) % (
    "%d", "%d", "%s", "%d", "%d", "%s", "%s", "%d", "%s"
)
_GT_ACTION = _template(("label", "offset_ms"), 4) % ("%s", "%d")  # in a clip's gt_actions list


def _checked_clip(clip: EvalClip, ta_ms: int) -> EvalClip:
    """``clip``, if an eval-clips file at T_a = ``ta_ms`` can hold it: read or written.

    Each field's kind, a non-empty game id, half 1 or 2, a start >= 0, a window
    T_a long unless ``partial``, and every action inside the window.
    """
    game_id, half, start, end, partial, actions = clip
    if not exact(game_id, str, "game_id"):
        raise ValueError("game_id must not be empty")
    if exact(half, int, "half") not in (1, 2):
        raise ValueError(f"half must be 1 or 2, got {brief(half)}")
    if exact(start, int, "anticipation_start_ms") < 0:
        raise ValueError(f"anticipation_start_ms must be >= 0, got {brief(start)}")
    window = exact(end, int, "anticipation_end_ms") - start
    if not 0 < window <= ta_ms or (window < ta_ms) != exact(partial, bool, "partial"):
        raise ValueError(
            f"span of {window} ms inconsistent with partial={partial} at T_a={ta_ms} ms"
        )
    for label, offset_ms in actions:
        if type(label) is not ActionClass:
            raise TypeError(f"label must be an ActionClass, got {brief(label)}")
        if not 0 <= exact(offset_ms, int, "offset_ms") < window:
            raise ValueError(f"action at {offset_ms} ms outside {window} ms span")
    return clip


def _eval_clip_text(clip: EvalClip) -> str:
    game_id, half, start, end, partial, actions = clip
    texts = [_GT_ACTION % (LABEL_TEXT[label], offset_ms) for label, offset_ms in actions]
    return _EVAL_CLIP % (
        end,
        start,
        _encode_str(clip.clip_id),
        clip.context_end_ms,
        clip.context_start_ms,
        _encode_str(game_id),
        _join(texts, 3),
        half,
        _BOOL_TEXT[partial],
    )


def write_eval_clips(path: str | Path, clips: Iterable[EvalClip], cfg: BenchConfig) -> None:
    """Write ``clips``, each checked by :func:`_checked_clip` before any is written."""
    check = functools.partial(_checked_clip, ta_ms=cfg.anticipation_ms)
    ordered = sorted(map(check, clips), key=attrgetter("sort_key"))
    head = {"format": FORMAT_EVAL_CLIPS, "version": VERSION, "config": config_to_doc(cfg)}
    _write_frame(path, head, "clips", map(_eval_clip_text, ordered))


def _eval_clip(rec: dict, ta_ms: int) -> EvalClip:
    actions = tuple(
        GtAction(parse_label(exact(a["label"], str, "label")), a["offset_ms"])
        for a in _objects(rec["gt_actions"], "gt_actions")
    )
    # The file's keys are the clip's field names.
    clip = _checked_clip(EvalClip(*(rec[key] for key in EvalClip._fields[:-1]), actions), ta_ms)
    for key, kind in zip(_DERIVED, (str, int, int)):
        derived = getattr(clip, key)
        if exact(rec[key], kind, key) != derived:
            raise ValueError(f"{key} {brief(rec[key])} does not match derived {brief(derived)}")
    return clip


def read_eval_clips(path: str | Path) -> tuple[list[EvalClip], BenchConfig]:
    doc = _load(path, FORMAT_EVAL_CLIPS)
    cfg = _config(doc.get("config"), path)
    read = functools.partial(_eval_clip, ta_ms=cfg.anticipation_ms)
    return _read_records(doc, "clips", path, "clip", read), cfg


# --- predictions ------------------------------------------------------------


#: A prediction's text, with ``%r`` for confidence and time: a Prediction holds
#: both as finite floats, whose repr is their JSON text.  (The template's keys
#: hold no ``%``, so it has no ``%%`` for this formatting to undo.)
_PREDICTION = _template(("clip_id", "confidence", "label", "time_s"), 2) % ("%s", "%r", "%s", "%r")
_CLIP_ID = attrgetter("clip_id")


def _in_clip_order(p: Prediction) -> tuple[str, float, float]:
    return (p.label.value, p.time_s, -p.confidence)


def _clip_predictions_text(clip_id: str, predictions: Iterable[Prediction]) -> str:
    """The texts of one clip's predictions in file order, joined as items of one list.

    Every record is :data:`_PREDICTION` filled in, with the clip id encoded
    once: a :class:`~kickcast.metrics.Prediction` holds only values the file
    can hold (a str id, an :class:`ActionClass`, floats in the reader's ranges).
    """
    id_text = _encode_str(clip_id)
    texts = [
        _PREDICTION % (id_text, confidence, LABEL_TEXT[label], time_s)
        for _, label, time_s, confidence, _ in sorted(predictions, key=_in_clip_order)
    ]
    return ",\n    ".join(texts)


def write_predictions(path: str | Path, predictions: Iterable[Prediction]) -> None:
    # The order of the key (clip_id, label, time_s, -confidence), with key
    # tuples and record texts for one clip at a time: for the whole file they
    # would take about as much memory as its text.  Each clip is one write.
    by_clip = groupby(sorted(predictions, key=_CLIP_ID), _CLIP_ID)
    head = {"format": FORMAT_PREDICTIONS, "version": VERSION}
    _write_frame(path, head, "predictions", (_clip_predictions_text(*group) for group in by_clip))


def _prediction_hook() -> Callable[[dict], Prediction | dict]:
    """An object hook that builds each well-formed prediction record as the parser closes it.

    A well-formed record has exactly the four keys, a str clip id, a str label
    that :func:`parse_label` knows, and float time and confidence in the
    reader's ranges: it is built without Prediction's second check, its dict
    freed at once, and every record of one clip holds the id string of this
    call's table.  Any other object is returned as it is, for
    :func:`_prediction` to read or refuse.  The hook never raises.

    The hook cannot tell where an object sits, so a well-formed record nested
    inside another value is built too: an error that quotes that value (a
    record's ``clip_id`` given as such an object, say) shows the Prediction.
    """
    ids: dict[str, str] = {}

    def build(rec: dict) -> Prediction | dict:
        if len(rec) != 4:
            return rec
        time_s, confidence = rec.get("time_s"), rec.get("confidence")
        clip_id, label = rec.get("clip_id"), rec.get("label")
        if not (
            type(time_s) is float
            and type(confidence) is float
            and type(label) is str
            and type(clip_id) is str
            and 0.0 <= time_s < math.inf
            and 0.0 <= confidence <= 1.0
        ):
            return rec
        try:
            action = parse_label(label)
        except AnnotationError:
            return rec
        return tuple.__new__(
            Prediction, (ids.setdefault(clip_id, clip_id), action, time_s, confidence, False)
        )

    return build


def _prediction(rec: dict) -> Prediction:
    """A record that :func:`_prediction_hook` left as a dict, by the checked path."""
    # A missing number field or label is reported before any wrong value.
    time_s, confidence, label = rec["time_s"], rec["confidence"], rec["label"]
    time_s, confidence = number(time_s, "time_s"), number(confidence, "confidence")
    exact(label, str, "label")
    return Prediction(exact(rec["clip_id"], str, "clip_id"), parse_label(label), time_s, confidence)


def read_predictions(path: str | Path) -> list[Prediction]:
    doc = _load(path, FORMAT_PREDICTIONS, _prediction_hook())
    return _read_records(doc, "predictions", path, "prediction", _prediction, Prediction)


# --- targets ----------------------------------------------------------------


_TARGET_CLIP = _template(("clip_id", "slots", "truncated"), 2)
#: A slot is at depth 4 in a targets document: document, clips, clip, slots, slot.
_SLOT = _template(("actionness", "class_index", "class_multihot", "gt_index", "time"), 4)


def _number_text(value: float | None, name: str, closed: bool) -> str:
    """The text of a slot's ``actionness`` or ``time``: a number in [0, 1], as a float, or null.

    1 is in the range only if it is ``closed``.
    """
    if value is None:
        return "null"
    if not math.isfinite(value := number(value, name)):
        raise ValueError(f"{name} {value!r}: out of range float values are not JSON compliant")
    if not (0.0 <= value < 1.0 or (closed and value == 1.0)):
        raise ValueError(f"{name} {value!r} outside [0, 1{']' if closed else ')'}")
    return repr(value)


def _index_text(value: int | None, name: str, top: float) -> str:
    """The text of a slot's ``gt_index`` or ``class_index``: an integer in [0, ``top``], or null."""
    if value is None:
        return "null"
    if not 0 <= exact(value, int, name) <= top:
        raise ValueError(f"{name} {value} outside [0, {top}]")
    return "%d" % value


def _multihot_text(hot: tuple | list | None) -> str:
    """The text of a slot's ``class_multihot``: a list of 0s and 1s, or null."""
    if hot is None:
        return "null"
    if not isinstance(hot, (list, tuple)):
        raise TypeError(f"class_multihot must be a list, got {brief(hot)}")
    for v in hot:
        if exact(v, int, "class_multihot") not in (0, 1):
            raise ValueError(f"class_multihot entry {v} is not 0 or 1")
    return _join(["%d" % v for v in hot], 5)


def _slot_text(slot: SlotTarget) -> str:
    """A slot's text, each field held to the kinds the loss-check slot reader takes
    and to the ranges of the targets schema (class indices up to the sentinel C)."""
    gt_index, actionness, class_index, hot, time = slot
    return _SLOT % (
        _number_text(actionness, "actionness", closed=True),
        _index_text(class_index, "class_index", NUM_CLASSES),
        hit[1] if (hit := _SHARED.get(id(hot))) else _multihot_text(hot),
        _index_text(gt_index, "gt_index", math.inf),
        _number_text(time, "time", closed=False),
    )


#: Texts of the values that most slots share, each encoded once, at import,
#: keyed by the value's id: a ``class_multihot`` of None (every head but
#: q-bce) or of a class (:data:`~kickcast.targets.ONE_HOT`, shared by every
#: paired q-bce slot of that class), and the unpaired slots (:data:`BLANK`,
#: :data:`UNCONSTRAINED` and each head's ``unpaired``).  They are found by
#: identity, not value, so only these objects, checked here, skip the writer's
#: checks (``(False, True)`` equals ``(0, 1)``, and is refused).  Each entry
#: holds its value next to its text, so the id is never reused.
_SHARED: dict[int, tuple[Any, str]] = {}
_SHARED.update((id(hot), (hot, _multihot_text(hot))) for hot in (None, *ONE_HOT))
_SHARED.update(
    (id(slot), (slot, _slot_text(slot)))
    for slot in (BLANK, UNCONSTRAINED, *(head.unpaired for head in HEADS.values()))
)


def _target_clip_text(clip_id: str, assignment: Assignment, variant: HeadVariant) -> str:
    if assignment.variant is not variant:
        raise ValueError(f"clip {brief(clip_id)}: {assignment.variant} targets in a {variant} file")
    slots = [hit[1] if (hit := _SHARED.get(id(s))) else _slot_text(s) for s in assignment.slots]
    truncated = _BOOL_TEXT[exact(assignment.truncated, bool, "truncated")]
    if not exact(clip_id, str, "clip_id"):
        raise ValueError("clip_id must not be empty")
    return _TARGET_CLIP % (_encode_str(clip_id), _join(slots, 3), truncated)


def write_targets(
    path: str | Path,
    assignments: Iterable[tuple[str, Assignment]],
    cfg: BenchConfig,
    variant: HeadVariant,
) -> None:
    ordered = sorted(assignments, key=itemgetter(0))
    head = {
        "format": FORMAT_TARGETS,
        "version": VERSION,
        "config": config_to_doc(cfg),
        "variant": variant.value,
    }
    _write_frame(path, head, "clips", (_target_clip_text(*pair, variant) for pair in ordered))


# --- loss-check input -------------------------------------------------------


#: A loss-check clip: id, slot outputs, targets, and (frame distributions, labels) or None.
_LossEntry = tuple[str, list[SlotOutput], Assignment, tuple[list[list[float]], SegGrid] | None]


_VARIANTS = {v.value: v for v in HeadVariant}


def _variant(value: Any) -> HeadVariant:
    """The head variant named by ``value``; ``HeadVariant(value)`` would quote all of it."""
    variant = _VARIANTS.get(exact(value, str, "variant"))
    if variant is None:
        raise ValueError(f"unknown variant {brief(value)}")
    return variant


def _loss_clip(rec: dict) -> _LossEntry:
    outputs = [
        SlotOutput(
            actionness=number(o["actionness"], "actionness"),
            class_probs=tuple(
                number(p, "class_probs") for p in exact(o["class_probs"], list, "class_probs")
            ),
            time_raw=number(o["time_raw"], "time_raw"),
        )
        for o in _objects(rec["outputs"], "outputs")
    ]
    slots = []
    for s in _objects(rec["slots"], "slots"):
        actionness, hot, time = s["actionness"], s["class_multihot"], s["time"]
        if exact(hot, list, "class_multihot", nullable=True) is not None:
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
        variant=_variant(rec["variant"]),
        slots=tuple(slots),
        truncated=exact(rec.get("truncated", False), bool, "truncated"),
    )
    seg = None
    seg_doc = exact(rec.get("segmentation"), dict, "segmentation", nullable=True)
    if seg_doc is not None:
        frame_dists = [
            [number(p, "frame_dists") for p in exact(dist, list, "frame_dists")]
            for dist in exact(seg_doc["frame_dists"], list, "frame_dists")
        ]
        labels = exact(seg_doc["labels"], list, "labels")
        seg = (frame_dists, SegGrid(tuple(exact(v, int, "labels") for v in labels)))
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
                raise ValueError(f"{name} must be finite and > 0, got {brief(value)}")
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
