"""Synthetic predictors for exercising the scoring pipeline end to end.

Three kinds, from informed to clueless:

* ``oracle``  replays the ground truth, optionally with Gaussian time noise
              and random drops — an upper-bound probe;
* ``prior``   ignores the clip and always predicts the most frequent
              training classes at evenly spread times;
* ``random``  uniform classes, times and confidences.

Outputs must be byte-reproducible across runs, platforms and languages, so
randomness comes from an explicitly documented generator instead of
``random``:

* Stream: SplitMix64 — ``state += 0x9E3779B97F4A7C15`` per step, output is
  ``z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) *
  0x94D049BB133111EB; z ^ z>>31`` (all mod 2**64).
* Uniform floats: ``((u64 >> 11) + 0.5) / 2**53`` — open interval (0, 1).
* Normal deviates: Box-Muller on two uniforms, ``sqrt(-2 ln u1) * cos/sin
  (2 pi u2)``; produced in pairs, the sine deviate is handed out second.
* Per-clip streams are seeded with ``seed XOR FNV1a64(kind + ":" + clip_id)``
  so clip order and parallelism cannot change the output.

Each kind is a generator of one clip's ``(label, time_s, confidence)``
draws, looked up by kind in one table; :func:`run_baseline` is the one loop
over clips.  The per-action draw order in the oracle is: one uniform for the
drop decision; if kept and noise_std_s > 0, one normal deviate for the noise.
Each random prediction draws a u64 for the class (mod the class count), then
a uniform for the time and one for the confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

from .annotations import RETAINED_CLASSES, ActionClass, ClassStats
from .config import MAX_PREDICTIONS_PER_CLIP
from .jsonio import brief
from .metrics import Prediction
from .windowing import EvalClip

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The documented 64-bit generator (see module docstring)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) / 9007199254740992.0  # 2**53

    def next_gauss(self) -> float:
        """Standard normal deviate (Box-Muller, pairwise)."""
        if self._spare_gauss is not None:
            z = self._spare_gauss
            self._spare_gauss = None
            return z
        u1 = self.next_float()
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 bytes of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class BaselineSpec:
    """Parameters of one baseline run.

    ``noise_std_s`` and ``drop_prob`` only affect the oracle; ``top_k`` only
    the prior; ``per_clip`` only the random predictor, at most
    :data:`~kickcast.config.MAX_PREDICTIONS_PER_CLIP`.
    """

    kind: str
    noise_std_s: float = 0.0
    drop_prob: float = 0.0
    seed: int = 0
    top_k: int = 3
    per_clip: int = 3

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not (math.isfinite(self.noise_std_s) and self.noise_std_s >= 0.0):
            raise ValueError(f"noise_std_s must be finite and >= 0, got {self.noise_std_s!r}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob {self.drop_prob!r} outside [0, 1]")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 1 <= self.per_clip <= MAX_PREDICTIONS_PER_CLIP:
            raise ValueError(
                f"per_clip must be from 1 to {MAX_PREDICTIONS_PER_CLIP}, "
                f"got {brief(self.per_clip)}"
            )


#: The prior's ``(label, confidence)`` pairs, most frequent class first.
_Ranking = Sequence[tuple[ActionClass, float]]
#: One clip's predictions as ``(label, time_s, confidence)``, in output order.
_Draws = Iterator[tuple[ActionClass, float, float]]


def _stream(spec: BaselineSpec, clip_id: str) -> SplitMix64:
    """The clip's own stream, seeded with ``seed XOR FNV1a64(kind:clip_id)``."""
    return SplitMix64(spec.seed ^ fnv1a64(f"{spec.kind}:{clip_id}"))


def _oracle(clip: EvalClip, spec: BaselineSpec, ranked: _Ranking) -> _Draws:
    """Ground truth with optional Gaussian time noise and random drops."""
    rng = _stream(spec, clip.clip_id)
    limit = clip.window_len_s
    for action in clip.gt_actions:
        if rng.next_float() >= spec.drop_prob:
            time_s = action.offset_s
            if spec.noise_std_s > 0.0:
                time_s += rng.next_gauss() * spec.noise_std_s
            yield action.label, min(max(time_s, 0.0), limit), 1.0


def _prior(clip: EvalClip, spec: BaselineSpec, ranked: _Ranking) -> _Draws:
    """The j-th of the ranked classes at the centre of the j-th of k equal time bins."""
    span = clip.window_len_s
    k = len(ranked)
    for j, (label, confidence) in enumerate(ranked):
        yield label, (j + 0.5) * span / k, confidence


def _random(clip: EvalClip, spec: BaselineSpec, ranked: _Ranking) -> _Draws:
    """``per_clip`` uniform draws of class, time and confidence."""
    rng = _stream(spec, clip.clip_id)
    span = clip.window_len_s
    for _ in range(spec.per_clip):
        label = RETAINED_CLASSES[rng.next_u64() % len(RETAINED_CLASSES)]
        yield label, rng.next_float() * span, rng.next_float()


#: kind -> the generator of one clip's draws.
_DRAWS = {"oracle": _oracle, "prior": _prior, "random": _random}
BASELINE_KINDS = tuple(_DRAWS)


def run_baseline(
    clips: Sequence[EvalClip],
    spec: BaselineSpec,
    train_stats: ClassStats | None = None,
) -> list[Prediction]:
    """The ``spec.kind`` predictions for ``clips``, in canonical clip order.

    The prior needs ``train_stats`` with a train split: it ranks the ``top_k``
    most frequent training classes, with confidence count / train total.
    """
    ranked: _Ranking = ()
    if spec.kind == "prior":
        train = train_stats.counts.get("train") if train_stats is not None else None
        if not train:
            raise ValueError("prior baseline needs statistics of train-split games")
        total = sum(train.values())
        top = sorted(train, key=lambda c: (-train[c], c.value))[: spec.top_k]
        ranked = [(label, train[label] / total) for label in top]
    draw = _DRAWS[spec.kind]
    preds: list[Prediction] = []
    for clip in sorted(clips, key=attrgetter("sort_key")):
        clip_id = clip.clip_id
        for label, time_s, confidence in draw(clip, spec, ranked):
            preds.append(Prediction(clip_id, label, time_s, confidence))
    return preds
