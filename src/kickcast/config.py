"""Benchmark configuration shared by clip generation, target assignment, losses, and decoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Number of action classes scored by the benchmark.
NUM_CLASSES = 10


def default_query_count(anticipation_s: float) -> int:
    """Default number of query slots: 8 covers a 5 s window, doubled for longer ones."""
    return 16 if anticipation_s > 5.0 else 8


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of the benchmark protocol.

    ``queries`` defaults to :func:`default_query_count` for the chosen
    anticipation window. ``context_frames`` is derived: the number of frame
    instants ``k / fps`` falling inside ``[0, context_s)`` (32 at the default
    5 s / 6.25 fps).
    """

    context_s: float = 5.0
    anticipation_s: float = 5.0
    fps: float = 6.25
    dilation_radius: int = 4
    queries: int = 0  # 0 = auto from anticipation window
    lambda_detection: float = 1.0
    lambda_class: float = 1.0
    lambda_time: float = 10.0
    lambda_segmentation: float = 1.0
    num_classes: int = NUM_CLASSES

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        for name in ("context_s", "anticipation_s"):
            ms = getattr(self, name) * 1000  # may overflow to inf for huge finite seconds
            if not (math.isfinite(ms) and round(ms) >= 1):
                raise ValueError(
                    f"{name} must give a window of 1 ms or more, got {getattr(self, name)!r} s"
                )
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.dilation_radius < 0:
            raise ValueError("dilation_radius must be non-negative")
        # Kept in config documents for byte stability; the head table, the class
        # set and the decoder all assume the one retained class count.
        if self.num_classes != NUM_CLASSES:
            raise ValueError(f"num_classes must be {NUM_CLASSES}, got {self.num_classes!r}")
        if self.queries == 0:
            object.__setattr__(self, "queries", default_query_count(self.anticipation_s))
        if self.queries < 1:
            raise ValueError("queries must be at least 1")

    @property
    def context_frames(self) -> int:
        # count of sample instants in [0, context_s); epsilon guards float noise
        return math.ceil(self.context_s * self.fps - 1e-9)

    @property
    def context_ms(self) -> int:
        return round(self.context_s * 1000)

    @property
    def anticipation_ms(self) -> int:
        return round(self.anticipation_s * 1000)
