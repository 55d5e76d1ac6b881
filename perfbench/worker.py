"""Runs one workload in this process and writes its measurements as JSON.

``run.py`` starts this script as a child process per run, so that the peak
resident set size it reads belongs to the workload alone.  Usage::

    python3 perfbench/worker.py --workload eval-dense --seed 1 --seconds 20 \\
        --trace 0 --work-dir .perfbench/work --result .perfbench/work/result.json

With ``--trace 1 --spans PATH`` every recorded span is written to PATH.

The run sets up its inputs several times (``--trace 0``) and reports the
median set-up time, warms imports and lazy set-up with one pass over a small
corpus, then repeats the workload's command sequence until ``--seconds`` have
passed (at least twice).  With ``--trace 1`` it sets up once with tracing on
and alternates untraced and traced passes, so the per-layer numbers and the
tracing overhead come from the same run.

Set-up and untraced passes run under a ``SpeedClock``: every time they report
is normalized to a reference machine speed (see ``speedclock.py``), and the
raw wall time is reported beside it as ``wall_raw_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from speedclock import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WARMUP_HALF_MS, WORKLOADS, Env, Ledger, Step, sha256_file  # noqa: E402

#: Set-up runs at least this many times, and again while the set-ups so far
#: took less than SETUP_BUDGET_S, so a short set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.0
MAX_SETUPS = 15
MIN_PASSES = 2

#: End-to-end metrics with their units; each is reported where its
#: workload runs the command.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_raw_s": "s",
    "prepare_s": "s",
    "baseline_s": "s",
    "evaluate_s": "s",
    "targets_s": "s",
    "loss_check_s": "s",
    "live_assign_s": "s",
    "evaluate_preds_per_s": "1/s",
    "targets_clips_per_s": "1/s",
}

VARIANTS = ("q-act", "q-eos", "q-bckg", "q-bce", "anchors", "q-hung-time", "q-hung-class")
COMMANDS = ("prepare", "targets", "loss-check", "evaluate", "baseline")

#: Per-layer metrics: (name, unit, source, key).  ``self`` sources are span
#: self times, ``calls`` sources count spans, ``count`` sources are tracer
#: counters and ``io`` sources are the runner's byte counts.
PER_LAYER = [
    ("annotations.parse_s", "s", "self", "annotations.parse"),
    ("annotations.actions", "count", "count", "annotations.actions"),
    ("windowing.eval_clips_s", "s", "self", "windowing.eval_clips"),
    ("windowing.eval_clips", "count", "count", "windowing.eval_clips"),
    ("windowing.train_clips_s", "s", "self", "windowing.train_clips"),
    ("windowing.train_clips", "count", "count", "windowing.train_clips"),
    ("windowing.segmentation_s", "s", "self", "windowing.segmentation"),
    *[(f"targets.assign_s.{v}", "s", "self", f"targets.assign.{v}") for v in VARIANTS],
    ("targets.hungarian_s", "s", "self", "targets.hungarian"),
    ("targets.hungarian_calls", "count", "calls", "targets.hungarian"),
    ("losses.detection_s", "s", "self", "losses.detection"),
    ("losses.class_s", "s", "self", "losses.class"),
    ("losses.time_s", "s", "self", "losses.time"),
    ("losses.segmentation_s", "s", "self", "losses.segmentation"),
    ("timecodec.decode_calls", "count", "count", "timecodec.decode_calls"),
    ("metrics.decode_s", "s", "self", "metrics.decode"),
    ("metrics.evaluate_self_s", "s", "self", "metrics.evaluate"),
    ("metrics.match_window_s", "s", "self", "metrics.match_window"),
    ("metrics.match_window_calls", "count", "calls", "metrics.match_window"),
    ("metrics.average_precision_s", "s", "self", "metrics.average_precision"),
    *[(f"baselines.run_s.{k}", "s", "self", f"baselines.run.{k}") for k in ("oracle", "prior", "random")],
    ("baselines.predictions", "count", "count", "baselines.predictions"),
    ("fileio.dump_json_s", "s", "self", "fileio.dump_json"),
    ("fileio.write_s", "s", "self", "fileio.write"),
    ("fileio.bytes_written", "bytes", "io", "bytes_written"),
    ("fileio.read_predictions_s", "s", "self", "fileio.read_predictions"),
    ("fileio.read_eval_clips_s", "s", "self", "fileio.read_eval_clips"),
    ("fileio.read_loss_check_s", "s", "self", "fileio.read_loss_check"),
    ("fileio.render_s", "s", "self", "fileio.render"),
    ("fileio.bytes_read", "bytes", "io", "bytes_read"),
    *[(f"cli.{c}.self_s", "s", "self", f"cli.{c}") for c in COMMANDS],
]


def path_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.glob("*.json"))
    return path.stat().st_size


def tree_digest(d: Path) -> tuple[str, int]:
    """Digest and total size of every file under ``d`` (paths relative to ``d``)."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(d)).encode() + b"\0" + sha256_file(path).encode())
        size += path.stat().st_size
    return h.hexdigest(), size


def summary(values: list[float]) -> dict:
    """Median with quartiles and sample count; a tail percentile only with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def run_pass(env: Env, steps: list[Step], tracer: Tracer | None, clock: SpeedClock | None) -> dict:
    """One closed-loop pass over the steps; outputs are hashed after the clock stops.

    With a ``clock`` (untraced passes) the times are speed-normalized and
    ``raw_wall`` is the wall time less the gauges; without one (traced
    passes) both are plain wall time.
    """
    gc.collect()
    bounds, errors, results = [], [], []
    if clock:
        clock.start()
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for step in steps:
            t0 = time.perf_counter()
            error, result = None, None
            try:
                if step.argv:
                    env.run_cli(step.argv)  # traced as cli.<command> by the patched main
                else:
                    with tracer.span(f"lib.{step.label}") if tracer else contextlib.nullcontext():
                        result = step.call()
            except Exception as exc:  # a failed command is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            bounds.append((t0, time.perf_counter()))
            errors.append(error)
            results.append(result)
        end = time.perf_counter()
    if clock:
        clock.stop()
        raw_wall, wall = clock.measure(start, end)
        times = [clock.measure(t0, t1)[1] for t0, t1 in bounds]
    else:
        raw_wall = wall = end - start
        times = [t1 - t0 for t0, t1 in bounds]
    digests = []
    for step, error, result in zip(steps, errors, results):
        if error:
            digests.append(None)
        elif step.argv:
            digests.append(sha256_file(step.out) if step.out.exists() else None)
        else:
            digests.append(hashlib.sha256(result).hexdigest())
    return {
        "wall": wall,
        "raw_wall": raw_wall,
        "times": times,
        "errors": errors,
        "digests": digests,
        "bytes_read": sum(path_bytes(p) for s in steps for p in s.inputs),
        "bytes_written": sum(s.out.stat().st_size for s in steps if s.argv and s.out.exists()),
    }


def record_pass(ledger: Ledger, steps: list[Step], rec: dict, reference: list) -> None:
    """Each step is one operation: it fails on an error or on output that differs from pass 1."""
    for step, error, digest, ref in zip(steps, rec["errors"], rec["digests"], reference):
        if error:
            ledger.record(step.label, False, error)
        else:
            ledger.record(step.label, digest == ref and digest is not None,
                          "output differs from the first pass")


def step_metrics(workload, steps: list[Step], rec: dict) -> dict[str, float]:
    out = {"wall_s": rec["wall"], "wall_raw_s": rec["raw_wall"]}
    for step, t in zip(steps, rec["times"]):
        out[step.metric] = out.get(step.metric, 0.0) + t
    sizes = workload.sizes
    if "evaluate_s" in out and sizes.get("predictions"):
        out["evaluate_preds_per_s"] = sizes["predictions"] / out["evaluate_s"]
    if "targets_s" in out:
        n_targets = sum(1 for s in steps if s.metric == "targets_s")
        out["targets_clips_per_s"] = sizes["train_clips"] * n_targets / out["targets_s"]
    return out


def _whole(value: float) -> float | int:
    return int(value) if value == int(value) else value


def combine(setup: Tracer, passes: Tracer, n_passes: int) -> tuple[dict, dict]:
    """Self time and calls per traced function, and counter totals, for one
    set-up plus one (average) traced pass."""
    setup_self, pass_self = setup.self_times(), passes.self_times()
    setup_calls, pass_calls = setup.calls(), passes.calls()
    by_function = {
        name: {
            "self_s": setup_self.get(name, 0.0) + pass_self.get(name, 0.0) / n_passes,
            "calls": _whole(setup_calls[name] + pass_calls[name] / n_passes),
        }
        for name in sorted(set(setup_calls) | set(pass_calls))
    }
    counts = {
        name: _whole(setup.counts[name] + passes.counts[name] / n_passes)
        for name in set(setup.counts) | set(passes.counts)
    }
    return by_function, counts


def layer_values(by_function: dict, counts: dict, io: dict) -> dict:
    """The per-layer metrics of ``BENCHMARK.json``; 0 where a workload never calls a layer."""
    out = {}
    for name, unit, source, key in PER_LAYER:
        if source == "self":
            value = by_function.get(key, {}).get("self_s", 0.0)
        elif source == "calls":
            value = by_function.get(key, {}).get("calls", 0)
        elif source == "count":
            value = counts.get(key, 0)
        else:
            value = io[key]
        out[name] = {"value": value, "unit": unit}
    assigned = counts.get("targets.assignments", 0)
    out["targets.truncated_ratio"] = {
        "value": counts.get("targets.truncated", 0) / assigned if assigned else 0.0,
        "unit": "ratio",
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="with --trace 1, write every span here")
    args = parser.parse_args()

    env = Env(ROOT)
    clock = SpeedClock()
    cls = WORKLOADS[args.workload]
    ledger = Ledger()
    d = args.work_dir / "run"

    # -- set-up: the median of several, each from scratch ----------------------
    setup_tracer = Tracer()
    setup_times, setup_digests = [], []
    phase = time.perf_counter()
    while not setup_times or (
        not args.trace
        and len(setup_times) < MAX_SETUPS
        and (len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_BUDGET_S)
    ):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        workload = cls(env, args.seed)
        gc.collect()
        if args.trace:
            t0 = time.perf_counter()
            with setup_tracer.installed(), setup_tracer.span("setup"):
                workload.setup(d)
            setup_times.append(time.perf_counter() - t0)
        else:
            clock.start()
            t0 = time.perf_counter()
            workload.setup(d)
            t1 = time.perf_counter()
            clock.stop()
            setup_times.append(clock.measure(t0, t1)[1])
        setup_digests.append(tree_digest(d))
    print(f"perfbench: {args.workload} set-up x{len(setup_times)}, median "
          f"{statistics.median(setup_times):.3f} s", flush=True)
    phases = {"setup": time.perf_counter() - phase}
    ledger.record("set-up writes the same files each time", len(set(setup_digests)) == 1)
    setup_written = setup_digests[0][1] - path_bytes(d / "annotations")

    # -- warm-up: imports and lazy set-up, on a small corpus --------------------
    phase = time.perf_counter()
    warm_dir = args.work_dir / "warmup"
    warm_dir.mkdir(parents=True)
    warm = cls(env, args.seed, half_ms=WARMUP_HALF_MS)
    warm.setup(warm_dir)
    first_of_each: dict[str, Step] = {}
    for step in warm.steps(warm_dir):
        first_of_each.setdefault(step.metric, step)
    run_pass(env, list(first_of_each.values()), None, clock)  # a failing command is counted later
    shutil.rmtree(warm_dir)
    phases["warmup"] = time.perf_counter() - phase

    # -- timed passes ------------------------------------------------------------
    steps = workload.steps(d)
    pass_tracer = Tracer()
    untraced, traced = [], []
    reference = None
    start = time.perf_counter()
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        with_trace = bool(args.trace) and len(untraced) > len(traced)
        rec = run_pass(env, steps, pass_tracer if with_trace else None, None if with_trace else clock)
        if reference is None:
            reference = rec["digests"]
        record_pass(ledger, steps, rec, reference)
        (traced if with_trace else untraced).append(rec)
        print(f"perfbench: {args.workload} pass {len(untraced) + len(traced)}"
              f"{' (traced)' if with_trace else ''} {rec['wall']:.3f} s (raw {rec['raw_wall']:.3f} s)", flush=True)

    phases["passes"] = time.perf_counter() - start
    phase = time.perf_counter()
    workload.check_outputs(d, ledger)
    workload.extra_checks(d, ledger)
    phases["checks"] = time.perf_counter() - phase

    samples: dict[str, list[float]] = {"setup_s": setup_times}
    for rec in untraced:
        for name, value in step_metrics(workload, steps, rec).items():
            samples.setdefault(name, []).append(value)
    io = {"bytes_read": untraced[0]["bytes_read"], "bytes_written": untraced[0]["bytes_written"]}
    result = {
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "failures": ledger.failures,
        "end_to_end": {
            name: dict(summary(values), unit=E2E_UNITS[name]) for name, values in samples.items()
        },
        "sizes": dict(workload.sizes, passes=len(untraced), setup_bytes_written=setup_written, **io),
        "pass_walls_s": [rec["wall"] for rec in untraced],
        "pass_raw_walls_s": [rec["raw_wall"] for rec in untraced],
        "step_s": {
            step.label: statistics.median(rec["times"][k] for rec in untraced)
            for k, step in enumerate(steps)
        },
        "phases_s": phases,
        "speed_gauge_us": clock.medians_us(),
    }
    if args.trace:
        traced_walls = [rec["wall"] for rec in traced]
        by_fn, counts = combine(setup_tracer, pass_tracer, len(traced))
        per_layer = layer_values(by_fn, counts, io)
        per_layer["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(rec["raw_wall"] for rec in untraced),
            "unit": "s",
        }
        setup_part = layer_values(*combine(setup_tracer, Tracer(), 1), {"bytes_read": 0, "bytes_written": 0})
        result.update(
            per_layer=per_layer,
            per_layer_setup_part={k: v["value"] for k, v in setup_part.items() if v["value"]},
            by_function=by_fn,
            traced_pass_walls_s=traced_walls,
            spans=len(setup_tracer.spans) + len(pass_tracer.spans),
        )
        if args.spans:
            args.spans.write_text(json.dumps({
                "fields": ["span_id", "parent_id", "command_id", "name", "start_s", "end_s"],
                "setup": setup_tracer.spans,
                "passes": pass_tracer.spans,
            }))
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
