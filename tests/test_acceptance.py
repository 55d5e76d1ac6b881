"""Acceptance suite: the eight go/no-go checks for this benchmark kit.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line on the real
terminal so the gate's status is visible even inside a large pytest run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

from kickcast.annotations import (
    RETAINED_CLASSES,
    ActionClass,
    parse_label,
    stats_from_counts,
)
from kickcast.baselines import BaselineSpec, run_baseline
from kickcast.config import BenchConfig
from kickcast.losses import LossParts, SlotOutput, loss_class, loss_detection, total_loss
from kickcast.metrics import Prediction, average_precision, evaluate, match_window
from kickcast.targets import HeadVariant, assign_for_variant, hungarian
from kickcast.timecodec import EPS_TIME, decode_time, encode_time
from kickcast.windowing import EvalClip, GtAction, make_eval_clips

from conftest import FIXTURE_DIR
from reference_eval import naive_evaluate


@contextlib.contextmanager
def announced(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {name}: PASS")


def test_perfect_oracle_identity(capsys, corpus, cfg):
    with announced(capsys, "1/8 perfect-oracle identity (AP == 1.0, < 1 s)"):
        started = time.perf_counter()
        clips = [c for g in corpus for c in make_eval_clips(g, cfg)]
        preds = run_baseline(clips, BaselineSpec(kind="oracle"))
        report = evaluate(clips, preds)
        elapsed = time.perf_counter() - started

        assert report.average == 1.0
        for delta in report.deltas:
            assert report.map_at[delta] == 1.0
            for label, score in report.scores[delta].items():
                if score.gt > 0:
                    assert score.ap == 1.0, (delta, label)
                    assert score.fp == 0
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_metric_oracle_equivalence(capsys, cfg):
    labels = (ActionClass.PASS, ActionClass.SHOT, ActionClass.DRIVE)
    deltas = (1.0, 2.0, 3.0, 4.0, 5.0, math.inf)
    rng = random.Random(0xBA5EBA11)

    def instance():
        clips, preds = [], []
        for k in range(rng.randint(1, 20)):
            gt = []
            for label in labels:
                gt += [
                    (label, rng.randint(0, 4_999)) for _ in range(rng.randint(0, 4))
                ]
            gt.sort(key=lambda pair: pair[1])
            start = k * 5_000
            clip = EvalClip(
                game_id="acc/equiv",
                half=1,
                anticipation_start_ms=start,
                anticipation_end_ms=start + 5_000,
                partial=False,
                gt_actions=tuple(GtAction(lab, off) for lab, off in gt),
            )
            clips.append(clip)
            for label in labels:
                preds += [
                    Prediction(
                        clip_id=clip.clip_id,
                        label=label,
                        time_s=round(rng.uniform(0.0, 5.0), 3),
                        confidence=round(rng.random(), 3),
                    )
                    for _ in range(rng.randint(0, 6))
                ]
        return clips, preds

    with announced(capsys, "2/8 metric equivalence vs naive reference (1000 instances, 1e-9)"):
        for _ in range(1_000):
            clips, preds = instance()
            report = evaluate(clips, preds, deltas=deltas)
            aps, maps, avg = naive_evaluate(clips, preds, deltas, RETAINED_CLASSES)
            for delta in deltas:
                for label in RETAINED_CLASSES:
                    got = report.scores[delta][label].ap
                    want = aps[delta][label]
                    if want is None:
                        assert got is None
                    else:
                        assert abs(got - want) <= 1e-9, (delta, label)
                assert abs(report.map_at[delta] - maps[delta]) <= 1e-9
            assert abs(report.average - avg) <= 1e-9


def test_worked_ap_example(capsys):
    with announced(capsys, "3/8 worked AP example (TP,FP,TP at delta=1 -> 5/6 exact)"):
        clip = EvalClip(
            game_id="acc/worked",
            half=1,
            anticipation_start_ms=0,
            anticipation_end_ms=5_000,
            partial=False,
            gt_actions=(
                GtAction(ActionClass.PASS, 1_000),
                GtAction(ActionClass.PASS, 3_000),
            ),
        )
        preds = [
            Prediction(clip.clip_id, ActionClass.PASS, 1.2, 0.9),
            Prediction(clip.clip_id, ActionClass.PASS, 4.9, 0.8),
            Prediction(clip.clip_id, ActionClass.PASS, 3.1, 0.7),
        ]
        flags = match_window(preds, [1.0, 3.0], 1.0)
        assert flags == [True, False, True]
        assert average_precision(flags, 2) == float(Fraction(5, 6))

        report = evaluate([clip], preds, deltas=(1.0,))
        assert report.scores[1.0][ActionClass.PASS].ap == float(Fraction(5, 6))


def test_hungarian_optimality(capsys):
    def exhaustive_min(cost):
        n_rows, n_cols = len(cost), len(cost[0])
        if n_rows <= n_cols:
            return min(
                sum(cost[i][p[i]] for i in range(n_rows))
                for p in itertools.permutations(range(n_cols), n_rows)
            )
        return min(
            sum(cost[p[j]][j] for j in range(n_cols))
            for p in itertools.permutations(range(n_rows), n_cols)
        )

    rng = random.Random(0x0DDBA11)
    with announced(capsys, "4/8 Hungarian optimality (10000 instances up to 5x5, exact)"):
        for i in range(10_000):
            n_rows = rng.randint(1, 5)
            n_cols = rng.randint(1, 5)
            # integers and exact quarter-floats keep the comparison exact
            unit = 1 if i % 3 else 0.25
            cost = [
                [rng.randint(0, 20) * unit for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            pairs = hungarian(cost)
            assert len(pairs) == min(n_rows, n_cols)
            got = sum(cost[r][c] for r, c in pairs)
            assert got == exhaustive_min(cost), cost


def test_tiling_coverage(capsys, corpus):
    with announced(capsys, "5/8 tiling covers every retained action exactly once"):
        for cfg in (BenchConfig(), BenchConfig(anticipation_s=10.0)):
            for game in corpus:
                clips = make_eval_clips(game, cfg)
                covered = sorted(
                    (c.half, c.anticipation_start_ms + a.offset_ms, a.label.value)
                    for c in clips
                    for a in c.gt_actions
                )
                truth = sorted((a.half, a.time_ms, a.label.value) for a in game.actions)
                assert covered == truth, (game.game_id, cfg.anticipation_s)


def test_statistics_fixture_replay(capsys):
    published = {
        "Pass": (2679, 585, 1721),
        "Drive": (2297, 554, 1449),
        "High Pass": (465, 115, 181),
        "Header": (404, 127, 182),
        "Out": (331, 75, 145),
        "Throw-in": (213, 54, 95),
        "Cross": (177, 24, 60),
        "Ball Player Block": (128, 28, 67),
        "Shot": (100, 25, 44),
        "Successful Tackle": (34, 12, 28),
    }
    with announced(capsys, "6/8 statistics replay (weight ratio 2679/34 exact)"):
        per_split = {
            split: {parse_label(name): row[i] for name, row in published.items()}
            for i, split in enumerate(("train", "valid", "test"))
        }
        stats = stats_from_counts(per_split)
        w = stats.weights
        assert (
            w[ActionClass.SUCCESSFUL_TACKLE] / w[ActionClass.PASS]
            == Fraction(2679, 34)
        )
        assert w[ActionClass.DRIVE] / w[ActionClass.PASS] == Fraction(2679, 2297)
        total = sum(row[0] for row in published.values())
        products = {w[c] * per_split["train"][c] for c in w}
        assert products == {Fraction(total, len(published))}
        for value in w.values():
            assert isinstance(value, Fraction)


def test_loss_component_analytics(capsys, cfg):
    C = cfg.num_classes
    with announced(capsys, "7/8 loss analytics (ln 2, ln 10, total 13) and time round-trip"):
        gt = (GtAction(ActionClass.PASS, 1_000),)
        assignment = assign_for_variant(HeadVariant.Q_ACT, gt, cfg)

        halves = [SlotOutput(0.5, (1.0 / C,) * C, 0.0) for _ in range(cfg.queries)]
        assert loss_detection(halves, assignment) == math.log(2.0)

        uniform = [SlotOutput(1.0, (0.1,) * C, 0.0) for _ in range(cfg.queries)]
        got = loss_class(uniform, assignment)
        assert got == -math.log(0.1)
        assert abs(got - math.log(10.0)) < 1e-15

        assert total_loss(LossParts(1.0, 1.0, 1.0, 1.0), cfg) == 13.0

        for ta in (5.0, 10.0):
            tol = EPS_TIME * ta * (1.0 + 1e-9)  # epsilon bias + float headroom
            for k in range(1, 997):
                t = k * ta / 997.0
                err = abs(decode_time(encode_time(t, ta), ta) - t)
                assert err <= tol, (t, ta, err)


def test_cli_determinism(capsys, tmp_path):
    from kickcast.cli import main

    def run_to_file(argv, name):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    with announced(capsys, "8/8 CLI determinism (byte-identical across runs and orders)"):
        fixture_files = sorted(str(p) for p in FIXTURE_DIR.glob("*.json"))

        prepare_a = run_to_file(["prepare", str(FIXTURE_DIR)], "prep-a.json")
        prepare_b = run_to_file(["prepare", *fixture_files], "prep-b.json")
        prepare_c = run_to_file(["prepare", *reversed(fixture_files)], "prep-c.json")
        assert prepare_a == prepare_b == prepare_c

        targets_a = run_to_file(
            ["targets", str(FIXTURE_DIR), "--variant", "q-eos"], "tgt-a.json"
        )
        targets_b = run_to_file(
            ["targets", *reversed(fixture_files), "--variant", "q-eos"], "tgt-b.json"
        )
        assert targets_a == targets_b

        base = ["baseline", str(FIXTURE_DIR), "--seed", "42"]
        for kind in ("oracle", "prior", "random"):
            first = run_to_file([*base, "--kind", kind], f"{kind}-a.json")
            second = run_to_file([*base, "--kind", kind], f"{kind}-b.json")
            permuted = run_to_file(
                [
                    "baseline",
                    *reversed(fixture_files),
                    "--seed",
                    "42",
                    "--kind",
                    kind,
                ],
                f"{kind}-c.json",
            )
            assert first == second == permuted, kind

        clips_path = tmp_path / "prep-a.json"
        noisy = run_to_file(
            [*base, "--kind", "oracle", "--noise-std", "1.0", "--drop-prob", "0.1"],
            "noisy.json",
        )
        (tmp_path / "noisy-copy.json").write_bytes(noisy)
        eval_args = [
            "evaluate",
            "--gt",
            str(clips_path),
            "--pred",
            str(tmp_path / "noisy.json"),
        ]
        for fmt in ("json", "csv", "md"):
            first = run_to_file([*eval_args, "--format", fmt], f"rep-a.{fmt}")
            second = run_to_file([*eval_args, "--format", fmt], f"rep-b.{fmt}")
            assert first == second, fmt

        # a report must not depend on prediction-record order inside the file:
        # shuffle, rewrite (canonical writer), re-evaluate
        from kickcast.fileio import read_predictions, write_predictions

        preds = read_predictions(tmp_path / "noisy.json")
        random.Random(1).shuffle(preds)
        write_predictions(tmp_path / "shuffled.json", preds)
        assert (tmp_path / "shuffled.json").read_bytes() == noisy

        report_a = run_to_file([*eval_args, "--format", "json"], "rep-c.json")
        report_b = run_to_file(
            [
                "evaluate",
                "--gt",
                str(clips_path),
                "--pred",
                str(tmp_path / "shuffled.json"),
                "--format",
                "json",
            ],
            "rep-d.json",
        )
        assert report_a == report_b
        assert json.loads(report_a)["format"] == "kickcast-report"
