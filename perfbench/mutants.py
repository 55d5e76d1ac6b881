"""Checks that the benchmark's output checks catch broken programs.

Each mutation below breaks one behaviour of kickcast in a copy of the
checkout (under ``.perfbench/mutants/<name>``), runs the workload whose checks
should notice for one second, and requires the result line to say
``"correct": false``.  Run from the root of a checkout::

    python3 perfbench/mutants.py            # every mutation, a few minutes
    python3 perfbench/mutants.py loss-total # just one

Exits 1 if any mutation goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tools", "tests", "fixtures", "perfbench", "BENCHMARK.json")

#: name -> (workload, file, original text, broken text)
MUTATIONS = {
    "ap-scaled": (
        "eval-dense", "src/kickcast/metrics.py",
        "return float(area / total_gt)", "return float(area / total_gt) * 0.999",
    ),
    "report-nondeterministic": (
        "eval-dense", "src/kickcast/cli.py",
        "    text = RENDERERS[args.format](report)\n",
        "    global _N\n    _N = globals().get('_N', 0) + 1\n"
        "    text = RENDERERS[args.format](report) + '\\n' * (_N % 2)\n",
    ),
    "decode-time-stretched": (
        "eval-dense", "src/kickcast/metrics.py",
        "clamped = out.time_raw > 0.0", "clamped = out.time_raw > 0.0\n        time_s = min(time_s * 1.05, ta_s)",
    ),
    "oracle-shifted": (
        "baseline-sweep", "src/kickcast/baselines.py",
        "            time_s = action.offset_s\n", "            time_s = action.offset_s + 0.6\n",
    ),
    "eval-window-shifted": (
        "baseline-sweep", "src/kickcast/windowing.py",
        "gt.append(GtAction(actions[pos].label, actions[pos].time_ms - start))",
        "gt.append(GtAction(actions[pos].label, max(0, actions[pos].time_ms - start - 1)))",
    ),
    "prior-extra-class": (
        "baseline-sweep", "src/kickcast/baselines.py",
        "[: spec.top_k]", "[: spec.top_k + 1]",
    ),
    "csv-map-scaled": (
        "baseline-sweep", "src/kickcast/fileio.py",
        'writer.writerow([name, "mAP", repr(report.map_at[delta]), "", "", ""])',
        'writer.writerow([name, "mAP", repr(report.map_at[delta] * 1.01), "", "", ""])',
    ),
    "loss-total-lambda": (
        "train-supervision", "src/kickcast/losses.py",
        "+ cfg.lambda_time * parts.time", "+ 9.0 * parts.time",
    ),
    "hungarian-sequential": (
        "train-supervision", "src/kickcast/targets.py",
        "            pairs: Sequence[tuple[int, int]] = hungarian(cost)",
        "            hungarian(cost)\n            pairs = tuple((i, i) for i in range(min(len(gt), q)))",
    ),
    "train-window-open": (
        "train-supervision", "src/kickcast/windowing.py",
        "if ctx_end <= a.time_ms < ctx_end + ta_ms", "if ctx_end < a.time_ms < ctx_end + ta_ms",
    ),
    "bce-blank-slots": (
        "train-supervision", "src/kickcast/targets.py",
        "slots = [empty if s.gt_index is None else s for s in slots]",
        "slots = [BLANK if s.gt_index is None else s for s in slots]",
    ),
}


def run_mutant(name: str) -> bool:
    workload, rel, original, broken = MUTATIONS[name]
    copy = ROOT / ".perfbench" / "mutants" / name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    try:
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy(src, copy / item)
        target = copy / rel
        text = target.read_text()
        if text.count(original) != 1:
            print(f"{name}: the code to break was not found once in {rel}")
            return False
        target.write_text(text.replace(original, broken))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, check=False,
        )
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    lines = proc.stdout.splitlines()
    failures = [line.strip() for line in lines if line.strip().startswith("FAILED")]
    caught = proc.returncode == 0 and json.loads(lines[-1])["correct"] is False
    print(f"{name} ({workload}): {'caught' if caught else 'NOT CAUGHT'}")
    for failure in failures:
        print(f"    {failure[:200]}")
    return caught


def main() -> int:
    names = sys.argv[1:] or list(MUTATIONS)
    unknown = [n for n in names if n not in MUTATIONS]
    if unknown:
        print(f"unknown mutations {unknown}; choose from {list(MUTATIONS)}", file=sys.stderr)
        return 2
    missed = [name for name in names if not run_mutant(name)]
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
