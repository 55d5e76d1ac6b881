"""Evaluation and training clip generation over annotation timelines.

Evaluation windows tile each half from t=0 with a stride of one anticipation
window, so every retained action lands in exactly one window. Halves are
treated as independent timelines; windows never straddle half-time. Training
clips slide with 90% overlap and carry both the observed context actions and
the following anticipation-window actions for supervision.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .annotations import CLASS_INDEX, ActionClass, ActionInstance, GameAnnotations
from .config import BenchConfig

#: Fixed span of observable context preceding each evaluation window.
EVAL_CONTEXT_MS = 30_000


@dataclass(frozen=True)
class GtAction:
    """An action re-expressed as a millisecond offset inside a clip window."""

    label: ActionClass
    offset_ms: int

    @property
    def offset_s(self) -> float:
        return self.offset_ms / 1000.0


@dataclass(frozen=True)
class EvalClip:
    """One scoring unit: a context span plus the anticipation window that follows it."""

    game_id: str
    half: int
    context_start_ms: int
    context_end_ms: int
    anticipation_start_ms: int
    anticipation_end_ms: int
    partial: bool
    gt_actions: tuple[GtAction, ...]

    @property
    def clip_id(self) -> str:
        return f"{self.game_id}:{self.half}:{self.anticipation_start_ms:07d}"

    @property
    def window_len_ms(self) -> int:
        return self.anticipation_end_ms - self.anticipation_start_ms

    @property
    def window_len_s(self) -> float:
        return self.window_len_ms / 1000.0


@dataclass(frozen=True)
class TrainClip:
    """A context span with its actions plus the future actions to supervise on."""

    game_id: str
    half: int
    context_start_ms: int
    context_end_ms: int
    context_actions: tuple[GtAction, ...]
    future_actions: tuple[GtAction, ...]

    @property
    def clip_id(self) -> str:
        """Stable identifier; the ``c`` marks a (train) context window."""
        return f"{self.game_id}:{self.half}:c{self.context_start_ms:07d}"


@dataclass(frozen=True)
class SegGrid:
    """Per-frame labels over the context window: 0 is background, k is class k-1."""

    labels: tuple[int, ...]


def _half_timeline_ms(
    actions: tuple[ActionInstance, ...], declared_ms: int | None, horizon_ms: int
) -> int | None:
    """Span to tile for one half, or None when it cannot be determined.

    Unknown durations are inferred as last action time plus one anticipation
    window. A declared duration is stretched by 1 ms when an action sits
    exactly on it, so the half-open tiling still covers that action.
    """
    if declared_ms is None:
        if not actions:
            return None
        return actions[-1].time_ms + horizon_ms
    if actions and actions[-1].time_ms >= declared_ms:
        return actions[-1].time_ms + 1
    return declared_ms


def make_eval_clips(game: GameAnnotations, cfg: BenchConfig) -> list[EvalClip]:
    """Tile each half with anticipation windows of stride ``anticipation_s``.

    The final window of a half may be shorter than the stride; it is flagged
    ``partial`` and scored like any other. The context span is the up-to-30 s
    stretch ending at the window start (shorter near the half start).
    """
    ta_ms = cfg.anticipation_ms
    clips: list[EvalClip] = []
    for half in (1, 2):
        actions = game.half_actions(half)
        duration = _half_timeline_ms(actions, game.half_durations_ms.get(half), ta_ms)
        if duration is None:
            continue
        pos = 0
        for start in range(0, duration, ta_ms):
            end = min(start + ta_ms, duration)
            gt = []
            while pos < len(actions) and actions[pos].time_ms < end:
                gt.append(GtAction(actions[pos].label, actions[pos].time_ms - start))
                pos += 1
            clips.append(
                EvalClip(
                    game_id=game.game_id,
                    half=half,
                    context_start_ms=max(0, start - EVAL_CONTEXT_MS),
                    context_end_ms=start,
                    anticipation_start_ms=start,
                    anticipation_end_ms=end,
                    partial=end - start < ta_ms,
                    gt_actions=tuple(gt),
                )
            )
    return clips


def make_train_clips(game: GameAnnotations, cfg: BenchConfig) -> list[TrainClip]:
    """Slide a ``context_s`` window with 90% overlap (stride = context_s / 10).

    Context actions lie in ``[start, ctx_end)`` and future actions in
    ``[ctx_end, ctx_end + ta_ms)``; each clip finds both spans by bisection
    into the half's sorted action times.
    """
    tc_ms = cfg.context_ms
    ta_ms = cfg.anticipation_ms
    stride = max(1, round(tc_ms / 10))
    clips: list[TrainClip] = []
    for half in (1, 2):
        actions = game.half_actions(half)
        duration = _half_timeline_ms(actions, game.half_durations_ms.get(half), ta_ms)
        if duration is None or duration < tc_ms:
            continue
        times = [a.time_ms for a in actions]
        for start in range(0, duration - tc_ms + 1, stride):
            ctx_end = start + tc_ms
            lo = bisect_left(times, start)
            mid = bisect_left(times, ctx_end, lo)
            hi = bisect_left(times, ctx_end + ta_ms, mid)
            context = tuple(GtAction(a.label, a.time_ms - start) for a in actions[lo:mid])
            future = tuple(GtAction(a.label, a.time_ms - ctx_end) for a in actions[mid:hi])
            clips.append(
                TrainClip(
                    game_id=game.game_id,
                    half=half,
                    context_start_ms=start,
                    context_end_ms=ctx_end,
                    context_actions=context,
                    future_actions=future,
                )
            )
    return clips


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def action_frame(offset_s: float, cfg: BenchConfig) -> int:
    """Frame index of an action inside the context grid (round half up, clamped)."""
    return min(_round_half_up(offset_s * cfg.fps), cfg.context_frames - 1)


def segmentation_targets(clip: TrainClip, cfg: BenchConfig) -> SegGrid:
    """Frame labels with dilation: each action claims the frames within
    ``dilation_radius`` of its frame index; contested frames go to the nearest
    action center, ties to the earlier action."""
    n = cfg.context_frames
    r = cfg.dilation_radius
    labels = [0] * n
    best: dict[int, tuple[int, int]] = {}
    for order, action in enumerate(clip.context_actions):
        center = action_frame(action.offset_s, cfg)
        for frame in range(max(0, center - r), min(n, center + r + 1)):
            key = (abs(frame - center), order)
            if frame not in best or key < best[frame]:
                best[frame] = key
                labels[frame] = CLASS_INDEX[action.label] + 1
    return SegGrid(tuple(labels))
