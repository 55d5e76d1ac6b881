"""kickcast benchmark: one seeded workload per run, in its own child process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval-dense --seed 1 --seconds 20 --trace 0

Workloads: ``eval-dense``, ``baseline-sweep``, ``train-supervision`` (see
``workloads.py`` for what each one stresses and why).  The run prints a
report (every end-to-end metric by name and unit, sample counts and
quartiles, workload sizes, provenance and any failed check) and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full report is also written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``, and with ``--trace 1``
every span to ``.perfbench/<workload>-seed<seed>-spans.json``.

Times are normalized to a reference CPU speed by gauges taken during the
run (``speedclock.py``): the speed of a shared CPU changes from second to
second and would otherwise dominate the spread.  ``wall_raw_s`` in the
report is the plain wall time.  CPU frequency and the page cache are outside
the benchmark's control, so the remaining noise shows only as the spread
between repeated runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Files of the repository the benchmark runs; without them it cannot start.
REQUIRED = ("src/kickcast/cli.py", "tools/gen_fixtures.py", "tests/reference_eval.py", "fixtures/annotations")
CHILD_TIMEOUT_S = 170
NOISE_NOTE = (
    "CPU frequency is not pinned and the page cache is not dropped; times are "
    "normalized to a reference CPU speed by gauges taken during the run; "
    "remaining noise is shown by the spread of repeated runs and passes"
)


def benchmark_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def provenance() -> dict:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kickcast").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "noise": NOISE_NOTE,
        "loop": "closed loop, one caller, one command at a time, no extra threads",
    }


def print_report(report: dict) -> None:
    print(f"perfbench: {report['workload']} seed={report['seed']} trace={report['trace']}")
    for name, stat in report["end_to_end"].items():
        spread = f" q1={stat['q1']:.6g} q3={stat['q3']:.6g}" if "q1" in stat else ""
        tail = f" p90={stat['p90']:.6g}" if "p90" in stat else " (no tail: fewer than 10 samples beyond p90)"
        print(f"  {name:<22} {stat['median']:.6g} {stat['unit']} n={stat['n']}{spread}{tail}")
    for name, metric in report.get("per_layer", {}).items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"  steps_s {json.dumps(report['step_s'])}")
    print(f"  phases_s {json.dumps(report['phases_s'])}")
    print(f"  speed_gauge_us {json.dumps(report['speed_gauge_us'])} (median gauge times; higher = slower machine)")
    print(f"  sizes {json.dumps(report['sizes'], sort_keys=True)}")
    print(f"  error_rate {report['error_rate']:.6g} ({report['failed']}/{report['attempted']})")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"  provenance {json.dumps(report['provenance'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    missing = [rel for rel in REQUIRED if not (ROOT / rel).exists()]
    if missing or not (ROOT / "BENCHMARK.json").exists():
        print(f"perfbench: error: not a kickcast checkout, missing {missing or ['BENCHMARK.json']}",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = benchmark_metrics()

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work), "--result", str(result_path),
    ]
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        cmd += ["--spans", str(report_path.with_name(f"{args.workload}-seed{args.seed}-spans.json"))]
    child_env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, env=child_env)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: error: {args.workload} did not finish in {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if code != 0 or not result_path.exists():
            print(f"perfbench: error: {args.workload} worker exited with status {code}",
                  file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The only child this process waited for is the worker.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["end_to_end"]["peak_rss_mib"] = {"median": peak_kib / 1024.0, "n": 1, "unit": "MiB"}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "error_rate": result["failed"] / result["attempted"],
        "provenance": provenance(),
        **result,
    }
    report_path.write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print_report(report)

    if args.trace:
        metrics = {name: report["per_layer"][name] for name in per_layer}
    else:
        metrics = {
            name: {"value": report["end_to_end"][name]["median"], "unit": unit}
            for name, unit in end_to_end.items()
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
