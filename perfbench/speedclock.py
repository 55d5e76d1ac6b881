"""Time corrected for the changing speed of a shared CPU.

On a shared host the speed of the CPU this process runs on changes from one
second to the next (another tenant on the same core or cache, frequency
changes), by up to 1.5-2x, and the mix changes over minutes.  Wall time of
the same work then spreads by 20-30 % between runs, too much to see a 10 %
change.

While a clock is running, a timer interrupts the process every
``INTERVAL_S`` and a signal handler times one of three fixed pure-Python
gauges, in turn, none of which calls kickcast:

* ``interp``: allocation, dicts, a sort, float and string work, like
  kickcast's own code;
* ``scatter``: reads at random places of an 8 MiB buffer (cache misses);
* ``copy``: copies 2 MiB into a second buffer and scans it (memory bandwidth).

The gauges allocate nothing while they run, so they add a constant 10 MiB
to the resident set and do not move its peak.

``measure(t0, t1)`` turns the wall time of an interval into the time the
same work would take on a machine on which each gauge takes its
``REFERENCE_S``::

    work  = (t1 - t0) - time spent in gauges inside the interval
    speed = REFERENCE_S[g] * mean(1 / gauge time) over the interval, per gauge g
    norm  = work * geometric mean of the three speeds

The gauges are taken at even wall-clock steps, so the mean of their speeds
is the time-weighted speed of the machine over the interval.  A change to
kickcast that does less work lowers ``norm`` by the same share as it lowers
the wall time; a slower second of the machine does not raise it.  On the
benchmark's workloads this cut the pass-to-pass spread of the same work from
10-12 % to about 2-4 %.  The gauges cost about 5 % of the run and are
subtracted from ``work``; what they leave in the caches slows kickcast by a
share that is the same in every run.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time

#: How often a gauge is taken while a clock runs (each gauge every third time).
INTERVAL_S = 0.02
#: The gauge times the normalized seconds refer to: about their medians
#: while kickcast runs on a 2-vCPU Xeon cloud VM.
REFERENCE_S = {"interp": 260e-6, "scatter": 450e-6, "copy": 2300e-6}
#: An interval with fewer samples of a gauge inside borrows the nearest ones around it.
MIN_SAMPLES = 5

_KEYS = [f"k{i}" for i in range(64)]
_BUFFER = bytearray(range(256)) * (1 << 15)  # 8 MiB
_PLACES = random.Random(1).sample(range(len(_BUFFER)), 1500)
_COPY = bytearray(1 << 21)


def _interp() -> int:
    rows = []
    for i in range(120):
        rows.append({"id": _KEYS[i % 64], "t": i * 0.37, "n": i % 7})
    rows.sort(key=lambda r: (r["n"], r["t"]))
    acc = 0.0
    seen: dict[str, int] = {}
    for r in rows:
        acc += r["t"] * 1.0001
        seen[r["id"]] = seen.get(r["id"], 0) + 1
    return len(",".join(str(r["n"]) for r in rows)) + len(seen) + int(acc)


def _scatter() -> int:
    buf = _BUFFER
    return sum(buf[i] for i in _PLACES)


def _copy() -> int:
    _COPY[:] = memoryview(_BUFFER)[: len(_COPY)]
    return _COPY.count(7)


GAUGES = {"interp": _interp, "scatter": _scatter, "copy": _copy}


class SpeedClock:
    """Gauge samples taken by a timer signal, and intervals normalized by them.

    One clock per process; ``start``/``stop`` bracket the timed regions.
    Samples are kept across starts, so an interval may use any of them.
    """

    def __init__(self) -> None:
        self._turn = 0
        # Per gauge: perf_counter when each sample began, and its duration.
        self.starts: dict[str, list[float]] = {name: [] for name in GAUGES}
        self.times: dict[str, list[float]] = {name: [] for name in GAUGES}

    def _tick(self, signum, frame) -> None:
        name = tuple(GAUGES)[self._turn % len(GAUGES)]
        self._turn += 1
        t0 = time.perf_counter()
        GAUGES[name]()
        self.starts[name].append(t0)
        self.times[name].append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """``(work, norm)`` seconds of the interval ``[t0, t1]``: wall time
        less the gauges inside it, and that work at the reference speed."""
        work = t1 - t0
        log_speed = 0.0
        for name in GAUGES:
            starts, times = self.starts[name], self.times[name]
            lo = bisect.bisect_left(starts, t0)
            hi = bisect.bisect_left(starts, t1)
            work -= sum(times[lo:hi])
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
                # Too short for its own samples: widen towards the nearer side.
                if hi >= len(times) or (lo > 0 and t0 - starts[lo - 1] <= starts[hi] - t1):
                    lo -= 1
                else:
                    hi += 1
            if lo == hi:
                raise RuntimeError("speed clock: no gauge was taken; start() the clock first")
            log_speed += math.log(REFERENCE_S[name] * statistics.fmean(1.0 / g for g in times[lo:hi]))
        return work, work * math.exp(log_speed / len(GAUGES))

    def medians_us(self) -> dict[str, float]:
        """Median time of each gauge so far, in microseconds (higher = slower machine)."""
        return {name: statistics.median(times) * 1e6 for name, times in self.times.items() if times}
