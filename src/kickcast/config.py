"""Benchmark configuration shared by clip generation, target assignment, losses, and decoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .jsonio import brief, exact, number

#: Number of action classes scored by the benchmark.
NUM_CLASSES = 10
#: Largest slot count a config accepts: 4x the paper's 16 slots for a 10 s window.
#: Target, loss and decoding work grow with it for every clip.
MAX_QUERIES = 64
#: Most predictions a synthetic baseline may emit per clip: the densest q x C
#: decode (every class at every slot) at :data:`MAX_QUERIES`.  Scoring work
#: and the predictions file grow with it for every clip.
MAX_PREDICTIONS_PER_CLIP = MAX_QUERIES * NUM_CLASSES
#: Most tolerances ``evaluate --deltas`` may list.  Matching work and the report
#: grow with each one; 256 holds twice a 0.5-60 s sweep in 0.5 s steps plus inf.
MAX_TOLERANCES = 256
#: Longest half an annotation file may declare or time an action in: 2 h, a
#: 45-minute half plus any stoppage time.  Tiling work grows with the half
#: length, and it keeps every clip id's ``{start:07d}`` at 7 digits, so that
#: clip ids sort in time order.
MAX_HALF_MS = 7_200_000
#: Most windows ``prepare``, ``baseline`` or ``targets`` may tile in one half,
#: counted for a half of :data:`MAX_HALF_MS` at the command's stride (T_a for
#: evaluation windows, T_c / 10 for training ones) before any game is read.
#: It is five times the paper's densest tiling, 5 s training contexts at a
#: 500 ms stride (14,400 windows), and admits any T_a of at least 0.1 s and
#: any T_c of at least 1 s.  Tiling, target and scoring work and every output
#: grow with it; a 1 ms stride would tile 7.2M windows.  A tiled half can run
#: past :data:`MAX_HALF_MS`: to its last action plus T_a when its length is
#: inferred, or to its declared length plus 1 ms when an action sits on that
#: end.  So a half can hold one evaluation window more (72,001 at T_a = 0.1 s
#: with an action at 2:00:00), and up to :data:`MAX_WINDOWS_PAST_HALF`
#: training windows more.
MAX_WINDOWS_PER_HALF = 72_000
#: Most training windows ``targets`` may tile past a :data:`MAX_HALF_MS` half,
#: counted as T_a over the stride before any game is read: 1 % of
#: :data:`MAX_WINDOWS_PER_HALF`, so no half holds more than 72,720.  T_a of
#: 5 and 10 s add at most 50 and 100 at any T_c the bound above admits (72,041
#: and 72,091 at T_c = 1 s); T_a may be up to 72 s there, 360 s at T_c = 5 s.
MAX_WINDOWS_PAST_HALF = MAX_WINDOWS_PER_HALF // 100


def default_query_count(anticipation_s: float) -> int:
    """Default number of query slots: 8 covers a 5 s window, doubled for longer ones."""
    return 16 if anticipation_s > 5.0 else 8


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of the benchmark protocol.

    ``queries`` defaults to :func:`default_query_count` for the chosen
    anticipation window and may be at most :data:`MAX_QUERIES`, checked here,
    before any game is tiled. ``context_frames`` is derived: the number of
    frame instants ``k / fps`` falling inside ``[0, context_s)`` (32 at the
    default 5 s / 6.25 fps).
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
        # Int fields take an int, float fields a finite int or float, kept as given.
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                if field.type != "float":
                    exact(value, int, field.name)
                elif not math.isfinite(number(value, field.name)):
                    raise ValueError(f"{field.name} must be finite, got {value!r}")
            except TypeError as exc:
                raise ValueError(str(exc)) from None
        # Tiling works in whole milliseconds and decoding in seconds, so the two
        # agree only when the seconds are a whole number of milliseconds.
        for name in ("context_s", "anticipation_s"):
            seconds = getattr(self, name)
            ms = seconds * 1000  # may overflow to inf for huge finite seconds
            if not (math.isfinite(ms) and round(ms) >= 1 and round(ms) / 1000 == seconds):
                raise ValueError(
                    f"{name} must be a whole number of milliseconds, at least 1 ms, "
                    f"got {seconds!r} s"
                )
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.dilation_radius < 0:
            raise ValueError("dilation_radius must be non-negative")
        # Kept in config documents for byte stability; the head table, the class
        # set and the decoder all assume the one retained class count.
        if self.num_classes != NUM_CLASSES:
            raise ValueError(f"num_classes must be {NUM_CLASSES}, got {brief(self.num_classes)}")
        if self.queries == 0:
            object.__setattr__(self, "queries", default_query_count(self.anticipation_s))
        if not 1 <= self.queries <= MAX_QUERIES:
            raise ValueError(f"queries must be from 1 to {MAX_QUERIES}, got {brief(self.queries)}")

    @property
    def context_frames(self) -> int:
        # count of sample instants in [0, context_s); epsilon guards float noise
        return math.ceil(self.context_s * self.fps - 1e-9)

    # Read once per clip by tiling and target assignment: each is computed on
    # first use and then kept beside the fields.  Not a field, so config
    # documents keep their keys; ``dataclasses.replace`` builds a new instance,
    # so it recomputes them.
    @cached_property
    def context_ms(self) -> int:
        return round(self.context_s * 1000)

    @cached_property
    def anticipation_ms(self) -> int:
        return round(self.anticipation_s * 1000)
