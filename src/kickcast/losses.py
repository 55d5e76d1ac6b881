"""Reference implementations of the per-clip training losses.

These are scalar, framework-free oracles: a training codebase can check its
tensorised losses against them on small cases.  All reductions are means
over the contributing slots/frames, so values are invariant to slot count
and batch assembly.

Conventions shared by all losses:

* probabilities are clamped to at least ``EPS_PROB`` before any log, so
  degenerate outputs stay finite;
* a slot only contributes to a loss when the assignment gives it a target
  for that quantity (see :mod:`kickcast.targets`);
* detection and the multi-hot class head share one binary cross-entropy:
  actionness targets may be soft (in [0, 1]), multi-hot entries must be 0
  or 1, and anything else is a :class:`LossError`;
* class weights are given in canonical class order; the sentinel
  (end-of-sequence / background) index always has weight 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .config import BenchConfig
from .targets import Assignment
from .timecodec import encode_time
from .windowing import SegGrid

#: Probability floor applied before logs.
EPS_PROB = 1e-7

_SUM_TOL = 1e-9


class LossError(ValueError):
    """Raised for malformed loss inputs."""


@dataclass(frozen=True)
class SlotOutput:
    """One slot's raw model output.

    ``class_probs`` has length C (plain heads) or C+1 (heads with an
    end-of-sequence or background class) and must sum to 1.  ``time_raw``
    is the unbounded log-space time output (see :mod:`kickcast.timecodec`).
    """

    actionness: float
    class_probs: tuple[float, ...]
    time_raw: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.actionness <= 1.0:
            raise LossError(f"actionness {self.actionness} outside [0, 1]")
        object.__setattr__(self, "class_probs", tuple(self.class_probs))
        for p in self.class_probs:
            if not 0.0 <= p <= 1.0:
                raise LossError(f"class probability {p} outside [0, 1]")
        if not math.isfinite(self.time_raw):
            raise LossError(f"time output {self.time_raw!r} is not finite")


def check_distribution(probs: Sequence[float], what: str = "class distribution") -> None:
    """Require ``probs`` (named ``what`` in the error) to sum to 1 +- 1e-9.

    Softmax heads must satisfy this; the multi-hot sigmoid head need not,
    which is why it is not a :class:`SlotOutput` construction invariant.
    """
    total = math.fsum(probs)
    if not abs(total - 1.0) <= _SUM_TOL:  # NaN fails too
        raise LossError(f"{what} sums to {total!r}, expected 1")


def _log(p: float) -> float:
    return math.log(max(p, EPS_PROB))


def _bce(y: float, p: float, w: float = 1.0) -> float:
    """Binary cross-entropy of output ``p`` for target ``y``, ``w`` weighting the positive term."""
    return -(w * y * _log(p) + (1 - y) * _log(1.0 - p))


def _weight(weights: Sequence[float] | None, idx: int) -> float:
    """Weight of class ``idx``; 1 without weights and for indices past them (sentinels)."""
    return 1.0 if weights is None or idx >= len(weights) else weights[idx]


def _check_pairing(outputs: Sequence[SlotOutput], assignment: Assignment) -> None:
    if len(outputs) != len(assignment.slots):
        raise LossError(
            f"{len(outputs)} outputs for {len(assignment.slots)} assigned slots"
        )


def loss_detection(outputs: Sequence[SlotOutput], assignment: Assignment) -> float:
    """Mean binary cross-entropy of actionness over supervised slots."""
    _check_pairing(outputs, assignment)
    terms = []
    for out, slot in zip(outputs, assignment.slots):
        if slot.actionness is None:
            continue
        if not 0.0 <= slot.actionness <= 1.0:
            raise LossError(f"actionness target {slot.actionness!r} outside [0, 1]")
        terms.append(_bce(slot.actionness, out.actionness))
    return math.fsum(terms) / len(terms) if terms else 0.0


def loss_class(
    outputs: Sequence[SlotOutput],
    assignment: Assignment,
    weights: Sequence[float] | None = None,
) -> float:
    """Weighted cross-entropy of class outputs over slots with class targets.

    Softmax heads contribute ``w(target) * -ln p(target)`` per slot; the
    multi-hot head contributes a per-class binary cross-entropy averaged
    over classes, with ``w`` applied to the positive terms.
    """
    _check_pairing(outputs, assignment)
    terms = []
    for out, slot in zip(outputs, assignment.slots):
        if slot.class_index is not None:
            check_distribution(out.class_probs)
            idx = slot.class_index
            if type(idx) is not int or not 0 <= idx < len(out.class_probs):
                raise LossError(
                    f"class target {idx!r} outside distribution of {len(out.class_probs)}"
                )
            terms.append(-_weight(weights, idx) * _log(out.class_probs[idx]))
        elif slot.class_multihot is not None:
            hot = slot.class_multihot
            if len(hot) != len(out.class_probs):
                raise LossError(
                    f"multi-hot target of {len(hot)} vs distribution of {len(out.class_probs)}"
                )
            if any(y not in (0, 1) for y in hot):
                raise LossError(f"multi-hot target {hot!r} has an entry other than 0 or 1")
            per_class = [
                _bce(y, p, _weight(weights, c))
                for c, (y, p) in enumerate(zip(hot, out.class_probs))
            ]
            terms.append(math.fsum(per_class) / len(per_class))
    return math.fsum(terms) / len(terms) if terms else 0.0


def loss_time(outputs: Sequence[SlotOutput], assignment: Assignment) -> float:
    """Mean squared error in log-time space over slots with time targets."""
    _check_pairing(outputs, assignment)
    terms = []
    for out, slot in zip(outputs, assignment.slots):
        if slot.time is None:
            continue
        if not 0.0 <= slot.time < 1.0:
            raise LossError(f"time target {slot.time} outside [0, 1)")
        terms.append((out.time_raw - encode_time(slot.time, 1.0)) ** 2)
    return math.fsum(terms) / len(terms) if terms else 0.0


def loss_segmentation(
    frame_dists: Sequence[Sequence[float]],
    seg_grid: SegGrid,
    weights: Sequence[float] | None = None,
) -> float:
    """Weighted cross-entropy of per-frame class distributions.

    ``frame_dists`` holds one (C+1)-way distribution per context frame
    (index 0 = background); labels come from the dilated grid.
    """
    labels = seg_grid.labels
    if len(frame_dists) != len(labels):
        raise LossError(f"{len(frame_dists)} frame distributions for {len(labels)} labels")
    terms = []
    for f, (dist, label) in enumerate(zip(frame_dists, labels)):
        check_distribution(dist, f"frame {f} distribution")
        if not 0 <= label < len(dist):
            raise LossError(f"frame {f} label {label} outside distribution of {len(dist)}")
        w = 1.0 if label == 0 else _weight(weights, label - 1)
        terms.append(-w * _log(dist[label]))
    return math.fsum(terms) / len(terms) if terms else 0.0


@dataclass(frozen=True)
class LossParts:
    """The four per-clip loss components, unweighted."""

    detection: float
    classification: float
    time: float
    segmentation: float


def total_loss(parts: LossParts, cfg: BenchConfig) -> float:
    """Lambda-weighted sum of the components."""
    return (
        cfg.lambda_detection * parts.detection
        + cfg.lambda_class * parts.classification
        + cfg.lambda_time * parts.time
        + cfg.lambda_segmentation * parts.segmentation
    )
