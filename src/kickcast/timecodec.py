"""Exponential-space encoding of action times within the anticipation window.

Targets are learned as ``ln(t / T_a + eps)`` and decoded back with a clamped
exponential, so small times get fine resolution without the log blowing up
at t = 0.
"""

from __future__ import annotations

import math

#: Offset keeping the log target finite at t = 0.
EPS_TIME = 1e-6


def encode_time(time_s: float, anticipation_s: float) -> float:
    """Log-space regression target for a time inside [0, anticipation_s)."""
    if not 0.0 <= time_s < anticipation_s:
        raise ValueError(f"time {time_s} outside [0, {anticipation_s})")
    return math.log(time_s / anticipation_s + EPS_TIME)


def decode_time(raw: float, anticipation_s: float) -> float:
    """Inverse of :func:`encode_time`, clamped to the window."""
    # raw > 0 would overflow exp() long before mattering: the result clamps.
    if raw > 0.0:
        return anticipation_s
    return min(max(anticipation_s * math.exp(raw), 0.0), anticipation_s)


def decode_unit(raw: float) -> float:
    """Decode to the unit interval; the same as ``decode_time(raw, 1.0)``."""
    # Unused by kickcast itself, but kept: perfbench/tracer.py looks every traced
    # name up with a bare getattr, so deleting it breaks ``run.py --trace 1``.
    return decode_time(raw, 1.0)
