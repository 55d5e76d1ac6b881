"""Decoding slot outputs into predictions and scoring them.

Scoring follows the tolerance-window average-precision family: a prediction
of class c in a clip is a true positive at tolerance delta if an unmatched
ground-truth action of class c lies within delta/2 seconds (boundary
included); delta = inf accepts any unmatched same-class action in the clip.
Per-class AP uses all-point interpolation (the precision envelope over
recall), mAP@delta is the unweighted mean over classes that have ground
truth, and the headline number averages mAP over the six tolerances.

AP is accumulated in exact rational arithmetic and rounded once at the end,
so reports are bit-for-bit reproducible and independent of input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .annotations import CLASS_INDEX, RETAINED_CLASSES, ActionClass
from .config import BenchConfig
from .losses import SlotOutput, check_distribution
from .targets import HEADS, HeadVariant, Pairing
from .timecodec import decode_time
from .windowing import EvalClip

#: The six scoring tolerances, in seconds.
DEFAULT_DELTAS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, math.inf)


class MetricError(ValueError):
    """Raised for malformed predictions or scoring inputs."""


@dataclass(frozen=True)
class Prediction:
    """One anticipated action.

    ``time_s`` is relative to the anticipation window start.  ``time_clamped``
    records that decoding had to pull the raw time back into the window; it
    is bookkeeping, not part of the prediction's identity on disk.
    """

    clip_id: str
    label: ActionClass
    time_s: float
    confidence: float
    time_clamped: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time_s) and self.time_s >= 0.0):
            raise MetricError(f"prediction time {self.time_s!r} must be finite and >= 0")
        if not 0.0 <= self.confidence <= 1.0:
            raise MetricError(f"confidence {self.confidence!r} outside [0, 1]")


@dataclass(frozen=True)
class ClassScore:
    """Per-class scoring detail at one tolerance; ``ap`` is None without gt."""

    ap: float | None
    tp: int
    fp: int
    gt: int


@dataclass(frozen=True)
class EvalReport:
    """Full scoring output across classes and tolerances."""

    deltas: tuple[float, ...]
    classes: tuple[ActionClass, ...]
    scores: Mapping[float, Mapping[ActionClass, ClassScore]]
    map_at: Mapping[float, float]
    average: float
    clip_count: int
    prediction_count: int
    clamped_predictions: int = 0


def _argmax(values: Sequence[float]) -> int:
    """Index of the maximum, first occurrence on ties."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def decode_predictions(
    clip_id: str,
    outputs: Sequence[SlotOutput],
    variant: HeadVariant,
    cfg: BenchConfig,
) -> list[Prediction]:
    """Turn one clip's slot outputs into scored predictions.

    Each surviving slot emits one prediction per real class with confidence
    ``actionness * p(class)``.  The end-of-sequence / background index is
    never emitted; for the end-of-sequence head, the first slot whose argmax
    is that index ends the sequence and later slots are dropped.
    """
    spec = HEADS[variant]
    n_classes = cfg.num_classes
    want = n_classes + spec.sentinel
    ta_s = cfg.anticipation_s
    bin_s = ta_s / cfg.queries
    preds: list[Prediction] = []
    for slot, out in enumerate(outputs):
        if len(out.class_probs) != want:
            raise MetricError(
                f"slot {slot}: {len(out.class_probs)} class probabilities, expected {want}"
            )
        if not spec.multihot:
            check_distribution(out.class_probs)
        if spec.eos and _argmax(out.class_probs) == n_classes:
            break
        if spec.pairing is Pairing.ANCHOR_BINS:
            time_s = slot * bin_s + decode_time(out.time_raw, bin_s)
        else:
            time_s = decode_time(out.time_raw, ta_s)
        clamped = out.time_raw > 0.0  # exp(raw) > 1 would leave the span
        for c in range(n_classes):
            preds.append(
                Prediction(
                    clip_id=clip_id,
                    label=RETAINED_CLASSES[c],
                    time_s=time_s,
                    confidence=out.actionness * out.class_probs[c],
                    time_clamped=clamped,
                )
            )
    return preds


def match_window(
    preds: Sequence[Prediction], gt_times_s: Sequence[float], delta: float
) -> list[bool]:
    """TP/FP flags for same-class predictions of one clip.

    Predictions are matched in descending confidence (ties: earlier time) to
    the nearest unmatched ground truth within delta/2 seconds, boundary
    included; each ground truth matches at most once.  Flags are returned in
    the input order.
    """
    if not (delta > 0.0):
        raise MetricError(f"tolerance must be positive, got {delta!r}")
    half = delta / 2.0
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, preds[i].time_s))
    gts = sorted(gt_times_s)
    taken = [False] * len(gts)
    flags = [False] * len(preds)
    for i in order:
        t = preds[i].time_s
        best = -1
        best_dist = math.inf
        for j, g in enumerate(gts):
            if taken[j]:
                continue
            dist = abs(t - g)
            if dist <= half and dist < best_dist:
                best = j
                best_dist = dist
        if best >= 0:
            taken[best] = True
            flags[i] = True
    return flags


def average_precision(ranked_flags: Sequence[bool], total_gt: int) -> float:
    """All-point interpolated AP from rank-ordered TP/FP flags.

    ``ranked_flags`` must already be in global descending-confidence order.
    Computed exactly (rationals), rounded once to float.
    """
    if total_gt <= 0:
        raise MetricError("average precision needs at least one ground truth")
    if not ranked_flags:
        return 0.0
    tps = list(accumulate(int(f) for f in ranked_flags))
    area = Fraction(0)
    envelope = Fraction(0)
    for i in range(len(ranked_flags) - 1, -1, -1):
        precision = Fraction(tps[i], i + 1)
        if precision > envelope:
            envelope = precision
        if ranked_flags[i]:
            area += envelope
    return float(area / total_gt)


def _ranking_key(p: Prediction) -> tuple:
    return (-p.confidence, p.time_s, p.label.value, p.clip_id)


def evaluate(
    clips: Sequence[EvalClip],
    predictions: Iterable[Prediction],
    deltas: Sequence[float] = DEFAULT_DELTAS,
) -> EvalReport:
    """Score predictions against the ground truth of the given clips."""
    if not deltas:
        raise MetricError("need at least one tolerance")
    if len(set(deltas)) != len(deltas):
        raise MetricError(f"duplicate tolerances in {deltas!r}")
    by_id: dict[str, EvalClip] = {}
    for clip in clips:
        if clip.clip_id in by_id:
            raise MetricError(f"duplicate clip id {clip.clip_id!r}")
        by_id[clip.clip_id] = clip
        for action in clip.gt_actions:
            if action.label not in CLASS_INDEX:
                raise MetricError(
                    f"clip {clip.clip_id!r} has excluded class {action.label.value!r}"
                )

    grouped: dict[tuple[str, ActionClass], list[Prediction]] = {}
    n_preds = 0
    n_clamped = 0
    for pred in predictions:
        clip = by_id.get(pred.clip_id)
        if clip is None:
            raise MetricError(f"prediction references unknown clip {pred.clip_id!r}")
        if pred.label not in CLASS_INDEX:
            raise MetricError(f"prediction has excluded class {pred.label.value!r}")
        if pred.time_s > clip.window_len_s:
            raise MetricError(
                f"prediction at {pred.time_s} s outside {clip.window_len_s} s window"
                f" of clip {pred.clip_id!r}"
            )
        grouped.setdefault((pred.clip_id, pred.label), []).append(pred)
        n_preds += 1
        n_clamped += pred.time_clamped

    gt_times: dict[tuple[str, ActionClass], list[float]] = {}
    gt_totals: dict[ActionClass, int] = {label: 0 for label in RETAINED_CLASSES}
    for clip in by_id.values():
        for action in clip.gt_actions:
            gt_times.setdefault((clip.clip_id, action.label), []).append(action.offset_s)
            gt_totals[action.label] += 1

    scores: dict[float, dict[ActionClass, ClassScore]] = {}
    map_at: dict[float, float] = {}
    for delta in deltas:
        per_class: dict[ActionClass, ClassScore] = {}
        for label in RETAINED_CLASSES:
            pool: list[tuple[Prediction, bool]] = []
            for (clip_id, pred_label), preds in grouped.items():
                if pred_label is not label:
                    continue
                # Canonical in-group order first: flags of byte-identical
                # predictions must not depend on input file order.
                preds = sorted(preds, key=lambda p: (-p.confidence, p.time_s))
                flags = match_window(preds, gt_times.get((clip_id, label), ()), delta)
                pool.extend(zip(preds, flags))
            pool.sort(key=lambda pair: _ranking_key(pair[0]))
            ranked_flags = [flag for _, flag in pool]
            tp = sum(ranked_flags)
            total = gt_totals[label]
            ap = average_precision(ranked_flags, total) if total > 0 else None
            per_class[label] = ClassScore(
                ap=ap, tp=tp, fp=len(ranked_flags) - tp, gt=total
            )
        scores[delta] = per_class
        with_gt = [s.ap for s in per_class.values() if s.ap is not None]
        map_at[delta] = math.fsum(with_gt) / len(with_gt) if with_gt else 0.0

    average = math.fsum(map_at[d] for d in deltas) / len(deltas)
    return EvalReport(
        deltas=tuple(deltas),
        classes=RETAINED_CLASSES,
        scores=scores,
        map_at=map_at,
        average=average,
        clip_count=len(by_id),
        prediction_count=n_preds,
        clamped_predictions=n_clamped,
    )
