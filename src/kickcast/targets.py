"""Assignment of ground-truth actions to prediction slots.

Every head predicts a fixed number of slots per clip; training needs each
slot tied to a ground-truth action (or explicitly to "nothing").  The
variants differ in how that pairing is built and in what the unpaired
slots are supervised towards; :data:`HEADS` holds these rules for both
target assignment and decoding:

* ``q-act``        sequential pairing, unpaired slots only push actionness to 0
* ``q-eos``        sequential pairing, the first unpaired slot learns an
                   end-of-sequence class and later slots carry no loss at all
* ``q-bckg``       sequential pairing, every unpaired slot learns a
                   background class
* ``q-bce``        sequential pairing, classes supervised as independent
                   multi-hot sigmoids instead of a softmax
* ``q-hung-time``  Hungarian pairing on |decoded time - gt time| / T_a
* ``q-hung-class`` Hungarian pairing on 1 - p(gt class)
* ``anchors``      slots are fixed time bins of width T_a/q; each bin adopts
                   the first action falling inside it

Class indices in targets are 0..C-1 for real classes; the sentinel index C
stands for end-of-sequence (``q-eos``) or background (``q-bckg``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .annotations import CLASS_INDEX
from .config import BenchConfig
from .timecodec import decode_time
from .windowing import GtAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .losses import SlotOutput


class TargetError(ValueError):
    """Raised for malformed assignment inputs."""


class HeadVariant(enum.Enum):
    """Prediction-head flavours (see module docstring)."""

    Q_ACT = "q-act"
    Q_EOS = "q-eos"
    Q_BCKG = "q-bckg"
    Q_BCE = "q-bce"
    Q_HUNG_TIME = "q-hung-time"
    Q_HUNG_CLASS = "q-hung-class"
    ANCHORS = "anchors"


class Pairing(enum.Enum):
    """How slots are tied to ground-truth actions."""

    SEQUENTIAL = "sequential"  # slot i takes the i-th action in time order
    HUNGARIAN_TIME = "hungarian-time"  # min-cost on |decoded time - gt time| / T_a
    HUNGARIAN_CLASS = "hungarian-class"  # min-cost on 1 - p(gt class)
    ANCHOR_BINS = "anchor-bins"  # slot i is the i-th T_a/q bin, first action wins


@dataclass(frozen=True)
class HeadSpec:
    """What a head variant means, for target assignment and decoding alike."""

    pairing: Pairing
    sentinel: bool = False  # class index C (end-of-sequence / background) exists
    eos: bool = False  # only the first unpaired slot is supervised; it ends decoding
    multihot: bool = False  # independent sigmoids instead of a softmax

    @property
    def needs_outputs(self) -> bool:
        """Pairing depends on the model's current outputs, so cannot be precomputed."""
        return self.pairing in (Pairing.HUNGARIAN_TIME, Pairing.HUNGARIAN_CLASS)


HEADS: dict[HeadVariant, HeadSpec] = {
    HeadVariant.Q_ACT: HeadSpec(Pairing.SEQUENTIAL),
    HeadVariant.Q_EOS: HeadSpec(Pairing.SEQUENTIAL, sentinel=True, eos=True),
    HeadVariant.Q_BCKG: HeadSpec(Pairing.SEQUENTIAL, sentinel=True),
    HeadVariant.Q_BCE: HeadSpec(Pairing.SEQUENTIAL, multihot=True),
    HeadVariant.Q_HUNG_TIME: HeadSpec(Pairing.HUNGARIAN_TIME),
    HeadVariant.Q_HUNG_CLASS: HeadSpec(Pairing.HUNGARIAN_CLASS),
    HeadVariant.ANCHORS: HeadSpec(Pairing.ANCHOR_BINS),
}


@dataclass(frozen=True)
class SlotTarget:
    """Supervision for one slot.

    ``None`` fields mean "no supervision for this quantity"; a slot with
    ``actionness=None`` contributes to no loss at all.  ``class_index`` uses
    the sentinel value C for end-of-sequence / background.  ``time`` is the
    regression target in window-relative units: seconds / T_a for query
    heads, bin-relative in [0, 1) for anchors.
    """

    gt_index: int | None
    actionness: float | None
    class_index: int | None = None
    class_multihot: tuple[int, ...] | None = None
    time: float | None = None


#: Slot supervised only towards "no action here".
BLANK = SlotTarget(gt_index=None, actionness=0.0)
#: Slot carrying no supervision whatsoever (q-eos beyond the EoS slot).
UNCONSTRAINED = SlotTarget(gt_index=None, actionness=None)


@dataclass(frozen=True)
class Assignment:
    """Per-slot targets for one clip under one head variant.

    ``truncated`` records that some ground-truth actions could not be
    represented (more actions than slots, or several in one anchor bin).
    """

    variant: HeadVariant
    slots: tuple[SlotTarget, ...]
    truncated: bool = False

    @property
    def paired(self) -> tuple[tuple[int, int], ...]:
        """(slot, gt) index pairs, in slot order."""
        return tuple(
            (i, s.gt_index) for i, s in enumerate(self.slots) if s.gt_index is not None
        )


def _check_gt(gt: Sequence[GtAction], anticipation_ms: int) -> None:
    prev = -1
    for k, action in enumerate(gt):
        if not 0 <= action.offset_ms < anticipation_ms:
            raise TargetError(
                f"gt action #{k} at {action.offset_ms} ms outside window of {anticipation_ms} ms"
            )
        if action.offset_ms < prev:
            raise TargetError("gt actions must be sorted by offset")
        prev = action.offset_ms


def _class_idx(action: GtAction) -> int:
    try:
        return CLASS_INDEX[action.label]
    except KeyError:
        raise TargetError(f"label {action.label!r} is not a retained class") from None


def sequential_assign(
    gt: Sequence[GtAction], queries: int, anticipation_s: float
) -> Assignment:
    """Pair slot i with the i-th action in time order; the rest are negatives."""
    if queries <= 0:
        raise TargetError(f"queries must be positive, got {queries}")
    cfg = BenchConfig(anticipation_s=anticipation_s, queries=queries)
    return assign_for_variant(HeadVariant.Q_ACT, gt, cfg)


def hungarian(cost: Sequence[Sequence[float]]) -> tuple[tuple[int, int], ...]:
    """Minimum-cost one-to-one pairing of rows to columns.

    Solves the rectangular assignment problem (min(R, C) pairs) by shortest
    augmenting paths over the reduced-cost graph, O(n^3).  Among pairings of
    equal total cost the lexicographically smallest (row, col) sequence is
    returned, which keeps training targets reproducible; the tie-break is
    exact whenever the cost arithmetic is (e.g. integer-valued costs).

    Costs must be finite and non-negative.
    """
    n_rows = len(cost)
    n_cols = len(cost[0]) if n_rows else 0
    for i, row in enumerate(cost):
        if len(row) != n_cols:
            raise TargetError(f"cost row {i} has {len(row)} entries, expected {n_cols}")
        for j, value in enumerate(row):
            if not math.isfinite(value) or value < 0:
                raise TargetError(f"cost[{i}][{j}] = {value!r} is not finite and >= 0")
    if n_rows == 0 or n_cols == 0:
        return ()

    # Tie-break: attach a secondary integer cost encoding the pairing as a
    # base-B number with one digit per row (col j -> j+1, no real col -> C+1,
    # B = C+2).  Minimising the secondary among primary-optimal solutions
    # picks the lexicographically smallest pairing.
    base = n_cols + 2
    pad = max(v for row in cost for v in row) + 1.0
    m = max(n_rows, n_cols)
    a: list[list[tuple[float, int]]] = []
    for i in range(n_rows):
        weight = base ** (n_rows - 1 - i)
        row_cost = cost[i]
        a.append(
            [
                (row_cost[j], (j + 1) * weight) if j < n_cols else (pad, (n_cols + 1) * weight)
                for j in range(m)
            ]
        )

    # Shortest-augmenting-path assignment over (primary, secondary) pairs,
    # compared lexicographically; 1-based with column 0 as the virtual root.
    inf = (math.inf, 0)
    zero = (0.0, 0)
    u: list[tuple[float, int]] = [zero] * (n_rows + 1)
    v: list[tuple[float, int]] = [zero] * (m + 1)
    match: list[int] = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n_rows + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            ui = u[i0]
            row = a[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cj = row[j - 1]
                vj = v[j]
                cur = (cj[0] - ui[0] - vj[0], cj[1] - ui[1] - vj[1])
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    uj = u[match[j]]
                    u[match[j]] = (uj[0] + delta[0], uj[1] + delta[1])
                    vj = v[j]
                    v[j] = (vj[0] - delta[0], vj[1] - delta[1])
                else:
                    mj = minv[j]
                    minv[j] = (mj[0] - delta[0], mj[1] - delta[1])
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    pairs = [
        (match[j] - 1, j - 1) for j in range(1, m + 1) if match[j] != 0 and j - 1 < n_cols
    ]
    pairs.sort()
    return tuple(pairs)


def _pairs(
    spec: HeadSpec,
    gt: Sequence[GtAction],
    cfg: BenchConfig,
    outputs: Sequence[SlotOutput] | None,
) -> Sequence[tuple[int, int]]:
    """(slot, gt) index pairs under the head's pairing rule."""
    if not gt:
        return ()
    if spec.pairing is Pairing.SEQUENTIAL:
        return [(i, i) for i in range(min(len(gt), cfg.queries))]
    if spec.pairing is Pairing.ANCHOR_BINS:
        pairs: list[tuple[int, int]] = []
        for k, action in enumerate(gt):
            b = action.offset_ms * cfg.queries // cfg.anticipation_ms
            if not pairs or pairs[-1][0] != b:  # gt is sorted, so bins never decrease
                pairs.append((b, k))
        return pairs
    if spec.pairing is Pairing.HUNGARIAN_TIME:
        ta_s = cfg.anticipation_s
        cost = [
            [abs(decode_time(out.time_raw, ta_s) - g.offset_s) / ta_s for g in gt]
            for out in outputs
        ]
    else:
        cost = [[1.0 - out.class_probs[_class_idx(g)] for g in gt] for out in outputs]
    return hungarian(cost)


def assign_for_variant(
    variant: HeadVariant,
    gt: Sequence[GtAction],
    cfg: BenchConfig,
    outputs: Sequence[SlotOutput] | None = None,
) -> Assignment:
    """Build per-slot targets for one clip under the rules in :data:`HEADS`.

    ``outputs`` (the model's current slot outputs) is required for the
    Hungarian variants, whose pairing depends on what the model predicts,
    and ignored otherwise.
    """
    spec = HEADS[variant]
    ta_ms = cfg.anticipation_ms
    _check_gt(gt, ta_ms)
    q = cfg.queries
    n_classes = cfg.num_classes
    if spec.needs_outputs:
        if outputs is None:
            raise TargetError(f"{variant.value} pairing needs model outputs")
        if len(outputs) != q:
            raise TargetError(f"expected {q} slot outputs, got {len(outputs)}")
    pairs = _pairs(spec, gt, cfg, outputs)

    unpaired = BLANK
    if spec.sentinel:
        unpaired = SlotTarget(gt_index=None, actionness=0.0, class_index=n_classes)
    elif spec.multihot:
        unpaired = SlotTarget(gt_index=None, actionness=0.0, class_multihot=(0,) * n_classes)
    slots = [unpaired] * q
    # Time target (t - slot start) / slot span in integer ms: in-bin for anchors.
    scale, step = (q, ta_ms) if spec.pairing is Pairing.ANCHOR_BINS else (1, 0)
    for i, k in pairs:
        action = gt[k]
        c = _class_idx(action)
        hot = tuple(int(j == c) for j in range(n_classes)) if spec.multihot else None
        slots[i] = SlotTarget(
            gt_index=k,
            actionness=1.0,
            class_index=None if spec.multihot else c,
            class_multihot=hot,
            time=(action.offset_ms * scale - i * step) / ta_ms,
        )
    if spec.eos:
        first = next((i for i, s in enumerate(slots) if s.gt_index is None), q)
        slots[first + 1 :] = [UNCONSTRAINED] * (q - first - 1)
    return Assignment(variant, tuple(slots), truncated=len(pairs) < len(gt))
