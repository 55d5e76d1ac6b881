"""Decoding slot outputs into predictions and scoring them.

Scoring follows the tolerance-window average-precision family: a prediction
of class c in a clip is a true positive at tolerance delta if an unmatched
ground-truth action of class c lies within delta/2 seconds (boundary
included); delta = inf accepts any unmatched same-class action in the clip.
Per-class AP uses all-point interpolation (the precision envelope over
recall), mAP@delta is the unweighted mean over classes that have ground
truth, and the headline number averages mAP over the six tolerances.

A :class:`Prediction` is a validating tuple that unpacks as the 5-tuple
``(clip_id, label, time_s, confidence, time_clamped)``: a scored file holds
tens of thousands, so building and reading one must cost little.

``evaluate`` buckets the predictions by class in one pass and ranks each
class once, by three stable sorts on the scalar keys clip id, time and
confidence, so identical predictions keep their input order; read within one
clip, that ranking is also the matching order.  Only predictions whose clip
has ground truth of their class are grouped, after a filter that runs no
Python code per prediction.  Per tolerance only those (clip, class) groups
are matched, by bisection into their sorted times, and a group stops once all
its ground truths are taken.  AP visits only TP ranks and adds one exact
rational per precision-envelope segment, rounded once at the end, so reports
are bit-for-bit reproducible and independent of input order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .annotations import RETAINED_CLASSES, ActionClass
from .config import BenchConfig
from .jsonio import brief
from .losses import SlotOutput, check_distribution
from .targets import HEADS, HeadVariant, Pairing
from .timecodec import decode_time
from .windowing import EvalClip

#: The six scoring tolerances, in seconds.
DEFAULT_DELTAS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, math.inf)


class MetricError(ValueError):
    """Raised for malformed predictions or scoring inputs."""


class _PredictionFields(NamedTuple):
    clip_id: str
    label: ActionClass
    time_s: float
    confidence: float
    time_clamped: bool = False


def _exact_float(value: object, name: str) -> float:
    """``value`` as an exact float: from a float (a subclass too) or an int, not a bool."""
    if not isinstance(value, (float, int)) or isinstance(value, bool):
        raise MetricError(f"{name} must be a float or an int, got {brief(value)}")
    try:
        return float(value)
    except OverflowError:
        raise MetricError(f"{name} is an int too large for a float") from None


class Prediction(_PredictionFields):
    """One anticipated action.

    ``time_s`` is relative to the anticipation window start.  ``time_clamped``
    records that decoding had to pull the raw time back into the window; it
    is bookkeeping, not part of the prediction's identity on disk.

    An immutable tuple subclass: it unpacks as the 5-tuple ``(clip_id, label,
    time_s, confidence, time_clamped)`` and compares equal (with an equal
    hash) to a plain tuple of the same fields.  Every construction (positional,
    keyword, ``_make``, ``_replace``) fixes the value form its file holds: a
    plain str id, an :class:`ActionClass`, and time and confidence as exact
    floats in range; any other value is one MetricError naming the field.
    """

    __slots__ = ()

    def __new__(
        cls,
        clip_id: str,
        label: ActionClass,
        time_s: float,
        confidence: float,
        time_clamped: bool = False,
    ) -> Prediction:
        if type(clip_id) is not str:
            if not isinstance(clip_id, str):
                raise MetricError(f"clip_id must be a string, got {brief(clip_id)}")
            clip_id = str.__str__(clip_id)
        if type(label) is not ActionClass:
            raise MetricError(f"label must be an ActionClass, got {brief(label)}")
        if type(time_s) is not float:
            time_s = _exact_float(time_s, "time_s")
        if type(confidence) is not float:
            confidence = _exact_float(confidence, "confidence")
        if not (math.isfinite(time_s) and time_s >= 0.0):
            raise MetricError(f"prediction time {time_s!r} must be finite and >= 0")
        if not 0.0 <= confidence <= 1.0:
            raise MetricError(f"confidence {confidence!r} outside [0, 1]")
        return tuple.__new__(cls, (clip_id, label, time_s, confidence, time_clamped))

    @classmethod
    def _make(cls, iterable: Iterable) -> Prediction:
        # namedtuple's own _make (and so _replace) would skip the checks
        return cls(*iterable)


#: Ranking keys: ``clip_id``, ``time_s`` and ``confidence`` of a Prediction.
_CLIP = itemgetter(0)
_TIME = itemgetter(2)
_CONFIDENCE = itemgetter(3)


@dataclass(frozen=True)
class ClassScore:
    """Per-class scoring detail at one tolerance; ``ap`` is None without gt."""

    ap: float | None
    tp: int
    fp: int
    gt: int


@dataclass(frozen=True)
class EvalReport:
    """Full scoring output across classes and tolerances.

    ``clamped_predictions`` counts the scored predictions whose
    ``time_clamped`` is set.  Only :func:`decode_predictions` sets it: a
    predictions file carries no clamp flag, so a report scored from a file,
    as ``kickcast evaluate`` scores one, always counts 0.
    """

    deltas: tuple[float, ...]
    classes: tuple[ActionClass, ...]
    scores: Mapping[float, Mapping[ActionClass, ClassScore]]
    map_at: Mapping[float, float]
    average: float
    clip_count: int
    prediction_count: int
    clamped_predictions: int = 0


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
    classes = RETAINED_CLASSES[:n_classes]
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
        # max() keeps the first index on ties
        if spec.eos and max(range(want), key=out.class_probs.__getitem__) == n_classes:
            break
        if spec.pairing is Pairing.ANCHOR_BINS:
            time_s = slot * bin_s + decode_time(out.time_raw, bin_s)
        else:
            time_s = decode_time(out.time_raw, ta_s)
        clamped = out.time_raw > 0.0  # exp(raw) > 1 would leave the span
        actionness = out.actionness
        for label, p in zip(classes, out.class_probs):
            preds.append(Prediction(clip_id, label, time_s, actionness * p, clamped))
    return preds


def _check_tolerance(delta: float) -> None:
    if not (delta > 0.0):  # also rejects NaN
        raise MetricError(f"tolerance must be positive, got {delta!r}")


def _match_group(
    members: Sequence[tuple[int, float]], gts: Sequence[float], half: float, flags: list[bool]
) -> None:
    """Greedy match of one (clip, class) group; sets ``flags[slot]`` for each TP.

    ``members`` are ``(slot, time_s)`` pairs in matching order, ``gts`` is
    sorted.  The ground truths within reach are one run around the bisection
    point, found by stepping outwards with the match's own test: the float
    window ``[t - half, t + half]`` misses boundary cases it accepts.  Once
    every ground truth is taken, the remaining members are all FPs.
    """
    left = len(gts)
    taken = [False] * left
    for slot, t in members:
        lo = hi = bisect_left(gts, t)
        while lo and abs(t - gts[lo - 1]) <= half:
            lo -= 1
        while hi < len(gts) and abs(t - gts[hi]) <= half:
            hi += 1
        best = -1
        best_dist = math.inf
        for j in range(lo, hi):
            dist = abs(t - gts[j])
            if not taken[j] and dist <= half and dist < best_dist:
                best = j
                best_dist = dist
        if best >= 0:
            taken[best] = True
            flags[slot] = True
            left -= 1
            if not left:
                return


def match_window(
    preds: Sequence[Prediction], gt_times_s: Sequence[float], delta: float
) -> list[bool]:
    """TP/FP flags for same-class predictions of one clip.

    Predictions are matched in descending confidence (ties: earlier time) to
    the nearest unmatched ground truth within delta/2 seconds, boundary
    included; each ground truth matches at most once.  Flags are returned in
    the input order.
    """
    _check_tolerance(delta)
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].confidence, preds[i].time_s))
    flags = [False] * len(preds)
    _match_group([(i, preds[i].time_s) for i in order], sorted(gt_times_s), delta / 2.0, flags)
    return flags


def average_precision(ranked_flags: Sequence[bool], total_gt: int) -> float:
    """All-point interpolated AP from rank-ordered TP/FP flags.

    ``ranked_flags`` must already be in global descending-confidence order.
    The envelope at the k-th TP is the best ``j / rank_j`` over j >= k, so
    only TP ranks are visited.  Computed exactly (rationals), rounded once.
    """
    if total_gt <= 0:
        raise MetricError("average precision needs at least one ground truth")
    ranks = list(compress(range(1, len(ranked_flags) + 1), ranked_flags))
    area = Fraction(0)
    num, den, count = 0, 1, 0  # envelope num/den and the TPs it covers so far
    for k in range(len(ranks), 0, -1):
        if k * den > num * ranks[k - 1]:
            area += Fraction(num * count, den)
            num, den, count = k, ranks[k - 1], 0
        count += 1
    area += Fraction(num * count, den)
    return float(area / total_gt)


def evaluate(
    clips: Sequence[EvalClip],
    predictions: Iterable[Prediction],
    deltas: Sequence[float] = DEFAULT_DELTAS,
) -> EvalReport:
    """Score predictions against the ground truth of the given clips."""
    if not deltas:
        raise MetricError("need at least one tolerance")
    for delta in deltas:
        _check_tolerance(delta)
    if len(set(deltas)) != len(deltas):
        raise MetricError(f"duplicate tolerances in {deltas!r}")
    window_s: dict[str, float] = {}  # clip id -> window length
    gt_times: dict[ActionClass, dict[str, list[float]]] = {c: {} for c in RETAINED_CLASSES}
    for clip in clips:
        clip_id = clip.clip_id
        if clip_id in window_s:
            raise MetricError(f"duplicate clip id {brief(clip_id)}")
        window_s[clip_id] = clip.window_len_s
        for action in clip.gt_actions:
            class_gt = gt_times.get(action.label)
            if class_gt is None:
                raise MetricError(
                    f"clip {brief(clip_id)} has excluded class {action.label.value!r}"
                )
            class_gt.setdefault(clip_id, []).append(action.offset_s)

    # A missing bucket is an excluded class: the retained ones all have one.
    by_class: dict[ActionClass, list[Prediction]] = {c: [] for c in RETAINED_CLASSES}
    n_clamped = 0
    for pred in predictions:
        clip_id, label, time_s, _, clamped = pred
        window = window_s.get(clip_id)
        if window is None:
            raise MetricError(f"prediction references unknown clip {brief(clip_id)}")
        bucket = by_class.get(label)
        if bucket is None:
            raise MetricError(f"prediction has excluded class {label.value!r}")
        if time_s > window:
            raise MetricError(
                f"prediction at {time_s} s outside {window} s window of clip {brief(clip_id)}"
            )
        bucket.append(pred)
        n_clamped += clamped

    scores: dict[float, dict[ActionClass, ClassScore]] = {d: {} for d in deltas}
    for label, ranked in by_class.items():
        # Three stable sorts give the order of the key (-confidence, time_s,
        # clip_id) with scalar compares and no key tuple per prediction.
        ranked.sort(key=_CLIP)
        ranked.sort(key=_TIME)
        ranked.sort(key=_CONFIDENCE, reverse=True)
        class_gt = {clip_id: sorted(times) for clip_id, times in gt_times[label].items()}
        groups: dict[str, list[tuple[int, float]]] = {}
        has_gt = map(class_gt.__contains__, map(_CLIP, ranked))
        for slot, (clip_id, _, time_s, _, _) in compress(enumerate(ranked), has_gt):
            groups.setdefault(clip_id, []).append((slot, time_s))
        total = sum(map(len, class_gt.values()))
        for delta in deltas:
            flags = [False] * len(ranked)
            for clip_id, members in groups.items():
                _match_group(members, class_gt[clip_id], delta / 2.0, flags)
            tp = sum(flags)
            ap = average_precision(flags, total) if total > 0 else None
            scores[delta][label] = ClassScore(ap=ap, tp=tp, fp=len(ranked) - tp, gt=total)

    map_at: dict[float, float] = {}
    for delta in deltas:
        with_gt = [s.ap for s in scores[delta].values() if s.ap is not None]
        map_at[delta] = math.fsum(with_gt) / len(with_gt) if with_gt else 0.0
    average = math.fsum(map_at[d] for d in deltas) / len(deltas)
    return EvalReport(
        deltas=tuple(deltas),
        classes=RETAINED_CLASSES,
        scores=scores,
        map_at=map_at,
        average=average,
        clip_count=len(window_s),
        prediction_count=sum(map(len, by_class.values())),
        clamped_predictions=n_clamped,
    )
