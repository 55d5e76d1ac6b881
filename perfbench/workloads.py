"""The three seeded workloads: their inputs, their timed steps and their output checks.

Every workload plays one caller in a closed loop: each ``kickcast`` command
(called in process through ``kickcast.cli.main``) or library call starts only
after the previous one returned.  Inputs are full-match synthetic games, two
45-minute halves each, made by ``tools/gen_fixtures.build_game`` under game
ids that carry the workload seed (``bench-<seed>/g00``), so each seed gives a
different corpus without touching ``tools/``.

Why these three:

* ``eval-dense``: the path every published number takes.  One test game,
  q x C decoded slot outputs per clip (~86k predictions), timed step
  ``evaluate``.  No windowing, targets or write path runs in the timed step.
* ``baseline-sweep``: eight games, two of them train.  ``prepare`` then the
  three baselines, each scored by ``evaluate`` with the json, csv and md
  renderers.  Write-heavy, re-parses every annotation file per command, and
  scores many small (clip, class) groups instead of a few dense ones.
* ``train-supervision``: one train game.  ``targets`` for the five
  precomputable heads, live Hungarian assignment at T_a = 5 s (q = 8) and
  10 s (q = 16), and ``loss-check``.  ``metrics`` does no work here.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.util
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

FULL_HALF_MS = 2_700_000
#: Half length of the small corpus used to warm up imports and lazy set-up
#: (long enough for the train-split class fillers of ``build_game``).
WARMUP_HALF_MS = 600_000

TOL = 1e-9


def load_tool(root: Path, rel: str, name: str) -> Any:
    """Import a helper script of the repository by path (``tools/``, ``tests/``)."""
    spec = importlib.util.spec_from_file_location(name, root / rel)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Ledger:
    """Attempted and failed operations; a failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def check(self, name: str, fn: Callable[[], None]) -> bool:
        """Run one output check; an AssertionError or exception is a failure."""
        try:
            fn()
        except Exception as exc:  # a check must never stop the run
            return self.record(name, False, f"{type(exc).__name__}: {exc}")
        return self.record(name, True)


@dataclass
class Step:
    """One timed operation of a pass.

    ``argv`` runs a CLI command that reads ``inputs`` (files or directories
    of ``*.json``) and writes ``out``; otherwise ``call`` runs a library call
    and returns the bytes its output is identified by.
    """

    label: str
    metric: str
    argv: list[str] | None = None
    out: Path | None = None
    inputs: tuple[Path, ...] = ()
    call: Callable[[], bytes] | None = None


class Env:
    """The kickcast modules and repository helpers a workload uses."""

    def __init__(self, root: Path) -> None:
        import kickcast.annotations as annotations
        import kickcast.baselines as baselines
        import kickcast.cli as cli
        import kickcast.config as config
        import kickcast.fileio as fileio
        import kickcast.losses as losses
        import kickcast.metrics as metrics
        import kickcast.targets as targets
        import kickcast.timecodec as timecodec
        import kickcast.windowing as windowing

        self.root = root
        self.annotations = annotations
        self.baselines = baselines
        self.cli = cli
        self.config = config
        self.fileio = fileio
        self.losses = losses
        self.metrics = metrics
        self.targets = targets
        self.timecodec = timecodec
        self.windowing = windowing
        self.gen = load_tool(root, "tools/gen_fixtures.py", "perfbench_gen_fixtures")
        self.reference = load_tool(root, "tests/reference_eval.py", "perfbench_reference_eval")
        self.classes = annotations.RETAINED_CLASSES

    def run_cli(self, argv: list[str]) -> None:
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        if code != 0:
            raise RuntimeError(f"kickcast {argv[0]} exited with status {code}")

    def rng(self, seed: int, key: str):
        return self.baselines.SplitMix64(seed ^ self.baselines.fnv1a64(key))

    def synth_outputs(self, rng, gt, q: int, n_probs: int, ta_s: float) -> list:
        """Model-like slot outputs: slot i leans towards the i-th action, if any."""
        outs = []
        for i in range(q):
            weights = [rng.next_float() for _ in range(n_probs)]
            if i < len(gt):
                weights[self.annotations.CLASS_INDEX[gt[i].label]] += 4.0
                actionness = 0.5 + 0.5 * rng.next_float()
                t = gt[i].offset_s + 0.8 * (rng.next_float() - 0.5)
                time_raw = self.timecodec.encode_time(min(max(t, 0.0), 0.999 * ta_s), ta_s)
            else:
                actionness = 0.4 * rng.next_float()
                time_raw = math.log(rng.next_float())
            total = math.fsum(weights)
            probs = tuple(w / total for w in weights)
            outs.append(self.losses.SlotOutput(actionness, probs, time_raw))
        return outs


class Workload:
    """Base: a corpus, the set-up that writes input files, and the timed steps."""

    name = ""
    splits: tuple[str, ...] = ()

    def __init__(self, env: Env, seed: int, half_ms: int = FULL_HALF_MS) -> None:
        self.env = env
        self.seed = seed
        self.half_ms = half_ms
        self.sizes: dict[str, int] = {}

    def games(self) -> list:
        build = self.env.gen.build_game
        durations = {1: self.half_ms, 2: self.half_ms}
        return [
            build(f"bench-{self.seed}/g{k:02d}", split, durations)
            for k, split in enumerate(self.splits)
        ]

    def write_corpus(self, d: Path) -> list:
        ann = d / "annotations"
        ann.mkdir(parents=True, exist_ok=True)
        games = self.games()
        for k, game in enumerate(games):
            self.env.annotations.write_annotations(game, ann / f"g{k:02d}.json")
        self.sizes["games"] = len(games)
        self.sizes["gt_actions"] = sum(
            len(self.env.annotations.filter_classes(g).actions) for g in games
        )
        return games

    def setup(self, d: Path) -> None:
        raise NotImplementedError

    def steps(self, d: Path) -> list[Step]:
        raise NotImplementedError

    def check_outputs(self, d: Path, ledger: Ledger) -> None:
        """Content checks on the outputs of the first pass."""

    def extra_checks(self, d: Path, ledger: Ledger) -> None:
        """Checks that need their own inputs (reference evaluator, brute force)."""


# --- shared checks ---------------------------------------------------------


def _delta_names(env: Env) -> list[str]:
    return [env.fileio.format_delta(d) for d in env.metrics.DEFAULT_DELTAS]


def check_report_json(env: Env, doc: dict, gt_per_class: dict, pred_per_class: dict) -> None:
    """A json report is consistent with its inputs and with itself."""
    deltas = _delta_names(env)
    assert doc["deltas"] == deltas, doc["deltas"]
    assert doc["prediction_count"] == sum(pred_per_class.values()), doc["prediction_count"]
    maps = []
    for name in deltas:
        aps = []
        for label in env.classes:
            score = doc["classes"][label.value][name]
            gt = gt_per_class.get(label.value, 0)
            assert score["gt"] == gt, (label.value, name, score["gt"], gt)
            assert score["tp"] + score["fp"] == pred_per_class.get(label.value, 0), (label.value, name)
            assert score["tp"] <= gt, (label.value, name)
            if gt:
                assert 0.0 <= score["ap"] <= 1.0, (label.value, name, score["ap"])
                aps.append(score["ap"])
            else:
                assert score["ap"] is None, (label.value, name)
        expected = math.fsum(aps) / len(aps) if aps else 0.0
        assert abs(doc["map"][name] - expected) <= TOL, (name, doc["map"][name], expected)
        maps.append(doc["map"][name])
    expected = math.fsum(maps) / len(maps)
    assert abs(doc["average_map"] - expected) <= TOL, (doc["average_map"], expected)


def check_report_csv(env: Env, text: str, gt_per_class: dict, pred_per_class: dict) -> None:
    rows = text.splitlines()
    assert rows[0] == "delta,class,ap,tp,fp,gt", rows[0]
    body = [row.split(",") for row in rows[1:]]
    deltas = _delta_names(env)
    assert len(body) == len(deltas) * (len(env.classes) + 1) + 1, len(body)
    maps = []
    for k, name in enumerate(deltas):
        block = body[k * (len(env.classes) + 1) : (k + 1) * (len(env.classes) + 1)]
        aps = []
        for label, row in zip(env.classes, block):
            assert row[:2] == [name, label.value], row
            tp, fp, gt = int(row[3]), int(row[4]), int(row[5])
            assert gt == gt_per_class.get(label.value, 0), row
            assert tp + fp == pred_per_class.get(label.value, 0), row
            if gt:
                aps.append(float(row[2]))
        assert block[-1][:2] == [name, "mAP"], block[-1]
        expected = math.fsum(aps) / len(aps) if aps else 0.0
        assert abs(float(block[-1][2]) - expected) <= TOL, (name, block[-1][2], expected)
        maps.append(float(block[-1][2]))
    assert body[-1][:2] == ["all", "average mAP"], body[-1]
    assert abs(float(body[-1][2]) - math.fsum(maps) / len(maps)) <= TOL, body[-1]


def check_report_md(env: Env, text: str, n_clips: int, n_preds: int) -> None:
    lines = text.splitlines()
    assert len(lines) == 2 + len(env.classes) + 4, len(lines)
    for label, line in zip(env.classes, lines[2:]):
        assert line.startswith(f"| {label.value} |"), line
    assert lines[-1].startswith(f"Clips: {n_clips}, predictions: {n_preds} "), lines[-1]


def clip_subsample(clips: list[dict], every: int) -> list[dict]:
    return [clip for k, clip in enumerate(clips) if k % every == 0]


def check_against_reference(
    env: Env, d: Path, tag: str, gt_path: Path, pred_path: Path, every: int
) -> None:
    """``evaluate`` on a fixed subsample of clips agrees with the naive scorer to 1e-9.

    The naive scorer's AP is quadratic in the pool size, so it cannot score
    a whole dense pool; every ``every``-th clip is kept with its predictions.
    """
    gt_doc = json.loads(gt_path.read_text())
    pred_doc = json.loads(pred_path.read_text())
    clips = clip_subsample(gt_doc["clips"], every)
    kept = {c["clip_id"] for c in clips}
    preds = [p for p in pred_doc["predictions"] if p["clip_id"] in kept]
    sub_gt = d / f"sub-{tag}-clips.json"
    sub_pred = d / f"sub-{tag}-preds.json"
    sub_report = d / f"sub-{tag}-report.json"
    sub_gt.write_text(json.dumps(dict(gt_doc, clips=clips)))
    sub_pred.write_text(json.dumps(dict(pred_doc, predictions=preds)))
    env.run_cli(["evaluate", "--gt", str(sub_gt), "--pred", str(sub_pred), "--out", str(sub_report)])
    report = json.loads(sub_report.read_text())

    parse_label = env.annotations.parse_label
    ref_clips = [
        SimpleNamespace(
            clip_id=c["clip_id"],
            gt_actions=[
                env.windowing.GtAction(parse_label(a["label"]), a["offset_ms"])
                for a in c["gt_actions"]
            ],
        )
        for c in clips
    ]
    ref_preds = [
        SimpleNamespace(
            clip_id=p["clip_id"],
            label=parse_label(p["label"]),
            time_s=p["time_s"],
            confidence=p["confidence"],
        )
        for p in preds
    ]
    deltas = env.metrics.DEFAULT_DELTAS
    aps, maps, average = env.reference.naive_evaluate(ref_clips, ref_preds, deltas, env.classes)
    assert report["clip_count"] == len(clips) and report["prediction_count"] == len(preds)
    for delta, name in zip(deltas, _delta_names(env)):
        for label in env.classes:
            got = report["classes"][label.value][name]["ap"]
            want = aps[delta][label]
            if want is None or got is None:
                assert got is want, (name, label.value, got, want)
            else:
                assert abs(got - want) <= TOL, (name, label.value, got, want)
        assert abs(report["map"][name] - maps[delta]) <= TOL, (name, report["map"][name], maps[delta])
    assert abs(report["average_map"] - average) <= TOL, (report["average_map"], average)


def check_fixture_oracle(env: Env, d: Path) -> None:
    """A noise-free oracle on the shipped fixtures scores average mAP exactly 1.0."""
    fixtures = env.root / "fixtures" / "annotations"
    clips, preds, report = d / "fx-clips.json", d / "fx-oracle.json", d / "fx-report.json"
    env.run_cli(["prepare", str(fixtures), "--out", str(clips)])
    env.run_cli(["baseline", str(fixtures), "--kind", "oracle", "--out", str(preds)])
    env.run_cli(["evaluate", "--gt", str(clips), "--pred", str(preds), "--out", str(report)])
    doc = json.loads(report.read_text())
    assert doc["average_map"] == 1.0, doc["average_map"]


def per_class(records: list[dict], key: str = "label") -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec[key]] = counts.get(rec[key], 0) + 1
    return counts


def gt_per_class(clips: list[dict]) -> dict[str, int]:
    return per_class([a for c in clips for a in c["gt_actions"]])


def expected_eval_clips(env: Env, games: list) -> dict[str, list[tuple[str, int]]]:
    """Reference tiling: clip id -> [(label, offset_ms)] for 5 s windows.

    Assumes halves of a whole number of windows with every action strictly
    inside the declared duration, which holds for the generated corpus.
    """
    out = {}
    for game in games:
        for half, duration in game.half_durations_ms.items():
            for start in range(0, duration, 5000):
                out[f"{game.game_id}:{half}:{start:07d}"] = []
        for a in env.annotations.filter_classes(game).actions:
            start = a.time_ms // 5000 * 5000
            out[f"{game.game_id}:{a.half}:{start:07d}"].append((a.label.value, a.time_ms - start))
    return out


def check_eval_clips(env: Env, doc: dict, games: list) -> None:
    expected = expected_eval_clips(env, games)
    assert [c["clip_id"] for c in doc["clips"]] == sorted(expected), "clip ids differ"
    for clip in doc["clips"]:
        got = [(a["label"], a["offset_ms"]) for a in clip["gt_actions"]]
        assert got == expected[clip["clip_id"]], clip["clip_id"]


# --- eval-dense --------------------------------------------------------------


class EvalDense(Workload):
    name = "eval-dense"
    splits = ("test",)
    reference_every = 24  # ~45 of 1,080 clips for the naive scorer

    def setup(self, d: Path) -> None:
        env = self.env
        self.game_list = self.write_corpus(d)
        env.run_cli(["prepare", str(d / "annotations"), "--out", str(d / "clips.json")])
        clips, cfg = env.fileio.read_eval_clips(d / "clips.json")
        preds = []
        self.sampled_outputs = {}
        for k, clip in enumerate(clips):
            rng = env.rng(self.seed, f"outputs:{clip.clip_id}")
            outs = env.synth_outputs(rng, clip.gt_actions, cfg.queries, cfg.num_classes, cfg.anticipation_s)
            preds.extend(
                env.metrics.decode_predictions(clip.clip_id, outs, env.targets.HeadVariant.Q_ACT, cfg)
            )
            if k % self.reference_every == 0:
                self.sampled_outputs[clip.clip_id] = outs
        env.fileio.write_predictions(d / "preds.json", preds)
        self.ta_s = cfg.anticipation_s
        self.sizes.update(clips=len(clips), predictions=len(preds))

    def steps(self, d: Path) -> list[Step]:
        return [
            Step(
                "evaluate",
                "evaluate_s",
                argv=["evaluate", "--gt", str(d / "clips.json"), "--pred", str(d / "preds.json"),
                      "--format", "json", "--out", str(d / "report.json")],
                out=d / "report.json",
                inputs=(d / "clips.json", d / "preds.json"),
            )
        ]

    def check_outputs(self, d: Path, ledger: Ledger) -> None:
        env = self.env

        def report() -> None:
            clips = json.loads((d / "clips.json").read_text())["clips"]
            preds = json.loads((d / "preds.json").read_text())["predictions"]
            doc = json.loads((d / "report.json").read_text())
            assert doc["clip_count"] == len(clips) == self.sizes["clips"]
            check_report_json(env, doc, gt_per_class(clips), per_class(preds))

        ledger.check("evaluate report consistent with its inputs", report)

    def check_decode(self, d: Path) -> None:
        """Decoded predictions of sampled clips match a reference q-act decoding:
        every slot emits each class at ``T_a * exp(time_raw)`` (clamped) with
        confidence ``actionness * p(class)``."""
        got: dict[str, list] = {clip_id: [] for clip_id in self.sampled_outputs}
        for p in json.loads((d / "preds.json").read_text())["predictions"]:
            if p["clip_id"] in got:
                got[p["clip_id"]].append((p["label"], p["time_s"], p["confidence"]))
        ta = self.ta_s
        for clip_id, outs in self.sampled_outputs.items():
            want = [
                (label.value, ta if o.time_raw > 0 else min(ta * math.exp(o.time_raw), ta),
                 o.actionness * o.class_probs[c])
                for o in outs
                for c, label in enumerate(self.env.classes)
            ]
            assert sorted(got[clip_id]) == sorted(want), clip_id

    def extra_checks(self, d: Path, ledger: Ledger) -> None:
        env = self.env
        ledger.check("decoded predictions match the reference decoding", lambda: self.check_decode(d))
        ledger.check(
            "evaluate agrees with the naive reference on a clip subsample",
            lambda: check_against_reference(
                env, d, "dense", d / "clips.json", d / "preds.json", self.reference_every
            ),
        )
        ledger.check("prepare tiles the corpus like the reference", lambda: check_eval_clips(
            env, json.loads((d / "clips.json").read_text()), self.game_list))
        ledger.check("noise-free oracle scores 1.0 on the fixtures", lambda: check_fixture_oracle(env, d))


# --- baseline-sweep --------------------------------------------------------


class BaselineSweep(Workload):
    name = "baseline-sweep"
    splits = ("train", "test", "test", "test", "train", "test", "test", "test")
    reference_every = 60  # ~108 of 6,480 clips for the naive scorer
    #: (kind, extra arguments, report format); the renderers rotate over the kinds.
    runs = (
        ("oracle", ["--noise-std", "1.0", "--drop-prob", "0.2"], "json"),
        ("prior", [], "csv"),
        ("random", ["--per-clip", "8"], "md"),
    )

    def setup(self, d: Path) -> None:
        self.game_list = self.write_corpus(d)

    def steps(self, d: Path) -> list[Step]:
        ann = d / "annotations"
        clips = d / "clips.json"
        steps = [
            Step("prepare", "prepare_s", ["prepare", str(ann), "--split", "test", "--out", str(clips)],
                 clips, (ann,))
        ]
        for kind, extra, fmt in self.runs:
            preds = d / f"{kind}.json"
            report = d / f"{kind}.report.{fmt}"
            steps.append(
                Step(
                    f"baseline {kind}",
                    "baseline_s",
                    ["baseline", str(ann), "--kind", kind, "--split", "test", "--seed", str(self.seed),
                     *extra, "--out", str(preds)],
                    preds,
                    (ann,),
                )
            )
            steps.append(
                Step(
                    f"evaluate {kind}",
                    "evaluate_s",
                    ["evaluate", "--gt", str(clips), "--pred", str(preds), "--format", fmt,
                     "--out", str(report)],
                    report,
                    (clips, preds),
                )
            )
        return steps

    def check_outputs(self, d: Path, ledger: Ledger) -> None:
        ledger.check("prepare tiles the test games like the reference", lambda: self.check_clips(d))
        self.sizes["predictions"] = 0
        for kind, _, fmt in self.runs:
            ledger.check(
                f"baseline {kind} and its {fmt} report are consistent with their inputs",
                lambda kind=kind, fmt=fmt: self.check_run(d, kind, fmt),
            )

    def check_clips(self, d: Path) -> None:
        doc = json.loads((d / "clips.json").read_text())
        self.sizes["clips"] = len(doc["clips"])
        check_eval_clips(self.env, doc, [g for g in self.game_list if g.split == "test"])

    def check_run(self, d: Path, kind: str, fmt: str) -> None:
        clips = json.loads((d / "clips.json").read_text())["clips"]
        preds = json.loads((d / f"{kind}.json").read_text())["predictions"]
        self.sizes[f"predictions_{kind}"] = len(preds)
        self.sizes["predictions"] += len(preds)
        gt = gt_per_class(clips)
        if kind == "oracle":
            assert 0 < len(preds) <= sum(gt.values()), len(preds)
        else:
            assert len(preds) == len(clips) * (3 if kind == "prior" else 8), len(preds)
        text = (d / f"{kind}.report.{fmt}").read_text()
        if fmt == "json":
            check_report_json(self.env, json.loads(text), gt, per_class(preds))
        elif fmt == "csv":
            check_report_csv(self.env, text, gt, per_class(preds))
        else:
            check_report_md(self.env, text, len(clips), len(preds))

    def extra_checks(self, d: Path, ledger: Ledger) -> None:
        env = self.env
        for kind, _, _ in self.runs:
            ledger.check(
                f"evaluate {kind} agrees with the naive reference on a clip subsample",
                lambda kind=kind: check_against_reference(
                    env, d, kind, d / "clips.json", d / f"{kind}.json", self.reference_every
                ),
            )
        ledger.check("noise-free oracle scores 1.0 on the fixtures", lambda: check_fixture_oracle(env, d))


# --- train-supervision -----------------------------------------------------


class TrainSupervision(Workload):
    name = "train-supervision"
    splits = ("train",)
    variants = ("q-act", "q-eos", "q-bckg", "q-bce", "anchors")
    #: Every n-th train clip gets live outputs; Hungarian cost grows with q.
    live_every = {5.0: 8, 10.0: 40}
    loss_every = 20  # every n-th T_a = 5 s train clip goes into the loss-check file
    brute_force_per_config = 12

    def setup(self, d: Path) -> None:
        env = self.env
        (game,) = self.write_corpus(d)
        game = env.annotations.filter_classes(game)
        self.game = game
        HV = env.targets.HeadVariant
        self.live = []
        for ta, every in self.live_every.items():
            cfg = env.config.BenchConfig(anticipation_s=ta)
            items = []
            for clip in self.reference_windows(cfg.anticipation_ms)[::every]:
                rng = env.rng(self.seed, f"live:{ta}:{clip.clip_id}")
                outs = env.synth_outputs(rng, clip.future_actions, cfg.queries, cfg.num_classes, ta)
                items.append((clip, outs))
            self.live.append((cfg, items))
        cfg, _ = self.live[0]
        clips = self.reference_windows(cfg.anticipation_ms)
        weights = env.annotations.class_stats([game]).weight_vector()
        variants = list(HV)
        records = []
        for k, clip in enumerate(clips[:: self.loss_every]):
            variant = variants[k % len(variants)]
            sentinel = variant in (HV.Q_EOS, HV.Q_BCKG)
            rng = env.rng(self.seed, f"loss:{clip.clip_id}")
            outs = env.synth_outputs(
                rng, clip.future_actions, cfg.queries, cfg.num_classes + sentinel, cfg.anticipation_s
            )
            assignment = env.targets.assign_for_variant(variant, clip.future_actions, cfg, outs)
            grid = env.windowing.segmentation_targets(clip, cfg)
            frame_dists = []
            for label in grid.labels:
                w = [rng.next_float() for _ in range(cfg.num_classes + 1)]
                w[label] += 3.0
                total = math.fsum(w)
                frame_dists.append([x / total for x in w])
            records.append(
                {
                    "id": clip.clip_id,
                    "variant": variant.value,
                    "outputs": [
                        {"actionness": o.actionness, "class_probs": list(o.class_probs), "time_raw": o.time_raw}
                        for o in outs
                    ],
                    "slots": [
                        {
                            "gt_index": s.gt_index,
                            "actionness": s.actionness,
                            "class_index": s.class_index,
                            "class_multihot": list(s.class_multihot) if s.class_multihot else None,
                            "time": s.time,
                        }
                        for s in assignment.slots
                    ],
                    "truncated": assignment.truncated,
                    "segmentation": {"frame_dists": frame_dists, "labels": list(grid.labels)},
                }
            )
        doc = {
            "format": "kickcast-loss-check",
            "version": 1,
            "config": env.fileio.config_to_doc(cfg),
            "weights": list(weights),
            "clips": records,
        }
        (d / "loss.json").write_text(json.dumps(doc), encoding="utf-8")
        self.lambdas = (cfg.lambda_detection, cfg.lambda_class, cfg.lambda_time, cfg.lambda_segmentation)
        self.sizes.update(
            train_clips=len(clips),
            live_clips=sum(len(items) for _, items in self.live),
            loss_clips=len(records),
        )

    def live_assign(self) -> bytes:
        HV = self.env.targets.HeadVariant
        results = []
        for cfg, items in self.live:
            for variant in (HV.Q_HUNG_TIME, HV.Q_HUNG_CLASS):
                for clip, outs in items:
                    results.append(
                        self.env.targets.assign_for_variant(variant, clip.future_actions, cfg, outs)
                    )
        self.last_live = results
        return repr(results).encode()

    def steps(self, d: Path) -> list[Step]:
        ann = d / "annotations"
        steps = [
            Step(
                f"targets {v}",
                "targets_s",
                ["targets", str(ann), "--variant", v, "--out", str(d / f"targets-{v}.json")],
                d / f"targets-{v}.json",
                (ann,),
            )
            for v in self.variants
        ]
        steps.append(Step("live_assign", "live_assign_s", call=self.live_assign))
        steps.append(
            Step(
                "loss-check",
                "loss_check_s",
                ["loss-check", str(d / "loss.json"), "--out", str(d / "loss.report.json")],
                d / "loss.report.json",
                (d / "loss.json",),
            )
        )
        return steps

    # -- reference targets ---------------------------------------------------

    def reference_windows(self, ta_ms: int) -> list:
        """Reference train windows: 5 s context, 0.5 s stride, ``ta_ms`` of future.

        Written apart from ``kickcast.windowing`` (bisect over action times),
        so the set-up does not depend on the code the targets check verifies.
        """
        GtAction, TrainClip = self.env.windowing.GtAction, self.env.windowing.TrainClip
        out = []
        for half, duration in sorted(self.game.half_durations_ms.items()):
            actions = [a for a in self.game.actions if a.half == half]
            times = [a.time_ms for a in actions]
            for start in range(0, duration - 5000 + 1, 500):
                end = start + 5000
                lo, mid, hi = (bisect.bisect_left(times, t) for t in (start, end, end + ta_ms))
                out.append(
                    TrainClip(
                        self.game.game_id, half, start, end,
                        tuple(GtAction(a.label, a.time_ms - start) for a in actions[lo:mid]),
                        tuple(GtAction(a.label, a.time_ms - end) for a in actions[mid:hi]),
                    )
                )
        return out

    def reference_slots(self, variant: str, future: tuple) -> tuple[bool, list[dict]]:
        """Reference per-slot targets for the five precomputable heads (q = 8, T_a = 5 s)."""
        q, ta_ms, n = 8, 5000, len(self.env.classes)
        index = {c.value: i for i, c in enumerate(self.env.classes)}

        def slot(gt=None, act=None, cls=None, hot=None, time=None) -> dict:
            return {"gt_index": gt, "actionness": act, "class_index": cls, "class_multihot": hot, "time": time}

        if variant == "anchors":
            slots = [slot(act=0.0) for _ in range(q)]
            truncated = False
            for k, action in enumerate(future):
                label, off = action.label.value, action.offset_ms
                b = off * q // ta_ms
                if slots[b]["gt_index"] is not None:
                    truncated = True
                    continue
                slots[b] = slot(k, 1.0, index[label], time=(off * q - b * ta_ms) / ta_ms)
            return truncated, slots
        slots = []
        for i in range(q):
            if i < len(future):
                label, off = future[i].label.value, future[i].offset_ms
                if variant == "q-bce":
                    hot = [0] * n
                    hot[index[label]] = 1
                    slots.append(slot(i, 1.0, hot=hot, time=off / ta_ms))
                else:
                    slots.append(slot(i, 1.0, index[label], time=off / ta_ms))
            elif variant == "q-act":
                slots.append(slot(act=0.0))
            elif variant == "q-bce":
                slots.append(slot(act=0.0, hot=[0] * n))
            elif variant == "q-bckg" or i == len(future):
                slots.append(slot(act=0.0, cls=n))
            else:  # q-eos beyond its end-of-sequence slot
                slots.append(slot())
        return len(future) > q, slots

    def check_outputs(self, d: Path, ledger: Ledger) -> None:
        reference = {clip.clip_id: clip.future_actions for clip in self.reference_windows(5000)}
        ids = sorted(reference)
        for variant in self.variants:

            def targets_check(variant=variant) -> None:
                doc = json.loads((d / f"targets-{variant}.json").read_text())
                assert doc["variant"] == variant, doc["variant"]
                assert [c["clip_id"] for c in doc["clips"]] == ids, "train clip ids differ"
                for clip in doc["clips"]:
                    truncated, slots = self.reference_slots(variant, reference[clip["clip_id"]])
                    assert clip["truncated"] == truncated, clip["clip_id"]
                    assert clip["slots"] == slots, clip["clip_id"]

            ledger.check(f"targets {variant} match the reference", targets_check)

        def loss_totals() -> None:
            doc = json.loads((d / "loss.report.json").read_text())
            assert len(doc["clips"]) == self.sizes["loss_clips"], len(doc["clips"])
            ld, lc, lt, ls = self.lambdas
            for row in doc["clips"]:
                parts = (ld * row["detection"], lc * row["classification"],
                         lt * row["time"], ls * row["segmentation"])
                assert all(math.isfinite(p) and p >= 0.0 for p in parts), row["id"]
                assert abs(row["total"] - math.fsum(parts)) <= TOL * max(1.0, row["total"]), row["id"]

        ledger.check("loss-check total is the lambda-weighted sum of its parts", loss_totals)

    def extra_checks(self, d: Path, ledger: Ledger) -> None:
        ledger.check("Hungarian pairings cost the brute-force optimum", self.check_hungarian)

    def check_hungarian(self) -> None:
        """On sampled clips, the live pairing costs as little as the best injective map."""
        names = ("q-hung-time", "q-hung-class")
        it = iter(self.last_live)
        checked = 0
        for cfg, items in self.live:
            ta = cfg.anticipation_s
            limit = 4 if cfg.queries <= 8 else 3  # keeps q!/(q-n)! permutations small
            for name in names:
                taken = 0
                for clip, outs in items:
                    assignment = next(it)
                    gt = clip.future_actions
                    assert assignment.variant.value == name
                    if not 1 <= len(gt) <= limit or taken >= self.brute_force_per_config:
                        continue
                    taken += 1
                    if name == "q-hung-time":
                        times = [ta if o.time_raw > 0 else min(ta * math.exp(o.time_raw), ta) for o in outs]
                        cost = [[abs(t - g.offset_ms / 1000.0) / ta for g in gt] for t in times]
                    else:
                        index = {c: i for i, c in enumerate(self.env.classes)}
                        cost = [[1.0 - o.class_probs[index[g.label]] for g in gt] for o in outs]
                    paired = assignment.paired
                    assert len(paired) == min(len(gt), cfg.queries), paired
                    assert len({g for _, g in paired}) == len(paired), paired
                    got = math.fsum(cost[s][g] for s, g in paired)
                    best = min(
                        math.fsum(cost[s][g] for g, s in enumerate(perm))
                        for perm in itertools.permutations(range(cfg.queries), len(gt))
                    )
                    assert abs(got - best) <= TOL, (clip.clip_id, name, got, best)
                    checked += 1
        assert checked > 0, "no clip qualified for the brute-force check"


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (EvalDense, BaselineSweep, TrainSupervision)
}
