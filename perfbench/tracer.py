"""Spans and counters recorded around calls into kickcast's public functions.

The tracer patches module attributes from outside the package: every module
of ``kickcast`` that holds a reference to a traced function (``kickcast.cli``
imports most of them by name) gets the wrapper, and the report renderers are
swapped inside the shared ``RENDERERS`` table.  Spans are kept in memory as
``(span_id, parent_id, command_id, name, start, end)`` tuples and only
aggregated when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    """Records nested spans and named counts while its patches are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._command = 0
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        if not parent:
            self._command = span_id  # a root span opens a new command
        command = self._command
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, command, name, start, end))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children.

        Spans nest strictly (one thread), so the children of a span cover
        exactly the sum of their durations.
        """
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return dict(totals)

    # -- patching ----------------------------------------------------------

    def calls(self) -> Counter[str]:
        """Number of spans per name."""
        return Counter(span[3] for span in self.spans)

    def _wrap(
        self,
        fn: Callable,
        name: Callable[..., str] | str,
        counts_of: Callable[[Any], dict[str, int]] | None,
        timed: bool,
    ) -> Callable:
        span = self.span
        counts = self.counts
        span_name = (lambda *a, **k: name) if isinstance(name, str) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                counts[span_name(*args, **kwargs)] += 1
                return fn(*args, **kwargs)
            with span(span_name(*args, **kwargs)):
                result = fn(*args, **kwargs)
            if counts_of is not None:
                counts.update(counts_of(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every traced function for its wrapper until the block ends."""
        import kickcast.fileio as fileio

        for module_name, attr, name, counts_of, timed in _TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, counts_of, timed)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("kickcast") and getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        renderers = fileio.RENDERERS
        for fmt, renderer in list(renderers.items()):
            self._patches.append((renderers, fmt, renderer))
            renderers[fmt] = self._wrap(renderer, "fileio.render", None, True)
        try:
            yield
        finally:
            while self._patches:
                target, key, original = self._patches.pop()
                if target is renderers:
                    target[key] = original
                else:
                    setattr(target, key, original)


# -- what is traced ----------------------------------------------------------

#: (module, function, span name or name-from-arguments, counts from the result,
#: timed).  Untimed entries only count calls, under the span name, because they
#: run in inner loops where a span would cost more than the call itself.
_TRACED: list[tuple[str, str, Any, Any, bool]] = [
    ("kickcast.cli", "main", lambda argv, *a, **k: f"cli.{argv[0]}", None, True),
    (
        "kickcast.annotations", "parse_annotations", "annotations.parse",
        lambda game: {"annotations.actions": len(game.actions)}, True,
    ),
    (
        "kickcast.windowing", "make_eval_clips", "windowing.eval_clips",
        lambda clips: {"windowing.eval_clips": len(clips)}, True,
    ),
    (
        "kickcast.windowing", "make_train_clips", "windowing.train_clips",
        lambda clips: {"windowing.train_clips": len(clips)}, True,
    ),
    ("kickcast.windowing", "segmentation_targets", "windowing.segmentation", None, True),
    (
        "kickcast.targets", "assign_for_variant",
        lambda variant, *a, **k: f"targets.assign.{variant.value}",
        lambda a: {"targets.assignments": 1, "targets.truncated": int(a.truncated)}, True,
    ),
    ("kickcast.targets", "hungarian", "targets.hungarian", None, True),
    ("kickcast.losses", "loss_detection", "losses.detection", None, True),
    ("kickcast.losses", "loss_class", "losses.class", None, True),
    ("kickcast.losses", "loss_time", "losses.time", None, True),
    ("kickcast.losses", "loss_segmentation", "losses.segmentation", None, True),
    ("kickcast.timecodec", "decode_time", "timecodec.decode_calls", None, False),
    ("kickcast.timecodec", "decode_unit", "timecodec.decode_calls", None, False),
    ("kickcast.metrics", "decode_predictions", "metrics.decode", None, True),
    ("kickcast.metrics", "evaluate", "metrics.evaluate", None, True),
    ("kickcast.metrics", "match_window", "metrics.match_window", None, True),
    ("kickcast.metrics", "average_precision", "metrics.average_precision", None, True),
    (
        "kickcast.baselines", "run_baseline",
        lambda clips, spec, *a, **k: f"baselines.run.{spec.kind}",
        lambda preds: {"baselines.predictions": len(preds)}, True,
    ),
    ("kickcast.fileio", "dump_json", "fileio.dump_json", None, True),
    ("kickcast.fileio", "write_json", "fileio.write", None, True),
    ("kickcast.fileio", "write_eval_clips", "fileio.write", None, True),
    ("kickcast.fileio", "write_predictions", "fileio.write", None, True),
    ("kickcast.fileio", "write_targets", "fileio.write", None, True),
    ("kickcast.fileio", "read_eval_clips", "fileio.read_eval_clips", None, True),
    ("kickcast.fileio", "read_predictions", "fileio.read_predictions", None, True),
    ("kickcast.fileio", "read_loss_check", "fileio.read_loss_check", None, True),
]
