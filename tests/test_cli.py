"""End-to-end command line flows, exercised in process."""

from __future__ import annotations

import errno
import gc
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import kickcast.cli as cli
from kickcast.annotations import format_game_time
from kickcast.cli import main
from kickcast.config import (
    MAX_HALF_MS,
    MAX_PREDICTIONS_PER_CLIP,
    MAX_QUERIES,
    MAX_TOLERANCES,
    MAX_WINDOWS_PAST_HALF,
    MAX_WINDOWS_PER_HALF,
    NUM_CLASSES,
    BenchConfig,
)
from kickcast.fileio import format_delta, read_eval_clips, read_predictions

from conftest import FIXTURE_DIR, REPO_ROOT, loss_check_doc


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_argv(command, clips_file, oracle_file, check_file):
    """Arguments for a successful run of ``command`` on the fixtures, without ``--out``."""
    return {
        "prepare": ["prepare", str(FIXTURE_DIR)],
        "targets": ["targets", str(FIXTURE_DIR), "--variant", "q-act"],
        "baseline": ["baseline", str(FIXTURE_DIR), "--kind", "oracle"],
        "evaluate": ["evaluate", "--gt", str(clips_file), "--pred", str(oracle_file)],
        "loss-check": ["loss-check", str(check_file)],
    }[command]


COMMANDS = ["prepare", "targets", "baseline", "evaluate", "loss-check"]
#: A document value of 10^6 characters, for the bounded-error-text tests.
LONG = "x" * 1_000_000


@pytest.fixture()
def clips_file(tmp_path):
    out = tmp_path / "clips.json"
    assert main(["prepare", str(FIXTURE_DIR), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def oracle_file(tmp_path, clips_file):
    out = tmp_path / "oracle.json"
    assert (
        main(["baseline", str(FIXTURE_DIR), "--kind", "oracle", "--out", str(out)]) == 0
    )
    return out


class TestPrepare:
    def test_writes_clip_file(self, clips_file):
        clips, cfg = read_eval_clips(clips_file)
        assert cfg.anticipation_s == 5.0
        assert len(clips) > 500

    def test_split_filter(self, tmp_path, capsys):
        out = tmp_path / "train.json"
        code, _, _ = run(
            ["prepare", str(FIXTURE_DIR), "--split", "train", "--out", str(out)], capsys
        )
        assert code == 0
        clips, _ = read_eval_clips(out)
        assert {c.game_id for c in clips} == {"fixture-league/game-alpha"}

    def test_unknown_split_fails(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code, _, err = run(
            ["prepare", str(FIXTURE_DIR), "--split", "valid2", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "kickcast: error:" in err
        assert not out.exists()

    def test_ten_second_horizon(self, tmp_path, capsys):
        out = tmp_path / "ta10.json"
        code, _, _ = run(
            ["prepare", str(FIXTURE_DIR), "--ta", "10", "--out", str(out)], capsys
        )
        assert code == 0
        clips, cfg = read_eval_clips(out)
        assert cfg.anticipation_s == 10.0
        assert cfg.queries == 16  # auto-doubled with the longer horizon
        assert max(c.window_len_ms for c in clips) == 10_000

    def test_duplicate_game_ids_rejected(self, tmp_path, capsys):
        dup = tmp_path / "dup"
        dup.mkdir()
        shutil.copy(FIXTURE_DIR / "game-alpha.json", dup / "one.json")
        shutil.copy(FIXTURE_DIR / "game-alpha.json", dup / "two.json")
        code, _, err = run(
            ["prepare", str(dup), "--out", str(tmp_path / "x.json")], capsys
        )
        assert code == 2
        assert "duplicate game id" in err

    def test_deterministic_bytes(self, tmp_path, clips_file, capsys):
        again = tmp_path / "again.json"
        run(["prepare", str(FIXTURE_DIR), "--out", str(again)], capsys)
        assert again.read_bytes() == clips_file.read_bytes()

    def test_input_order_does_not_matter(self, tmp_path, clips_file, capsys):
        files = sorted(FIXTURE_DIR.glob("*.json"))
        reordered = [str(p) for p in reversed(files)]
        out = tmp_path / "reordered.json"
        code, _, _ = run(["prepare", *reordered, "--out", str(out)], capsys)
        assert code == 0
        assert out.read_bytes() == clips_file.read_bytes()


class TestTargets:
    def test_writes_targets(self, tmp_path, capsys):
        out = tmp_path / "targets.json"
        code, _, _ = run(
            [
                "targets",
                str(FIXTURE_DIR),
                "--variant",
                "q-eos",
                "--split",
                "train",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "kickcast-targets"
        assert doc["variant"] == "q-eos"
        assert doc["clips"]
        assert all(len(rec["slots"]) == doc["config"]["queries"] for rec in doc["clips"])

    def test_anchor_targets(self, tmp_path, capsys):
        out = tmp_path / "anchors.json"
        code, _, _ = run(
            ["targets", str(FIXTURE_DIR), "--variant", "anchors", "--out", str(out)],
            capsys,
        )
        assert code == 0

    def test_hungarian_variants_refused(self, tmp_path, capsys):
        code, _, err = run(
            [
                "targets",
                str(FIXTURE_DIR),
                "--variant",
                "q-hung-time",
                "--out",
                str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "model outputs" in err

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["targets", str(FIXTURE_DIR), "--variant", "q-act"]
        run([*args, "--out", str(a)], capsys)
        run([*args, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestRecordOrder:
    """The two record orders of the written files, on game ids whose clip ids interleave.

    ``clips.json`` lists clips by ``(game_id, half, start)``; predictions and
    targets list them by the ``clip_id`` string.  ``a0:…`` sorts before
    ``a:…``.  Game ``a:1``'s eval ids (``a:1:1:…``) fall between game ``a``'s
    halves (``a:1:0…`` and ``a:2:…``); its train ids sort before both of
    them, because the ``c`` of ``a:1:c…`` sorts after every digit.
    """

    GAMES = ("a", "a0", "a:1")

    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        ann = tmp_path / "ann"
        ann.mkdir()
        for k, game_id in enumerate(self.GAMES):
            records = [
                {"gameTime": format_game_time(half, ms), "position": ms, "label": "Pass"}
                for half in (1, 2)
                for ms in (3_000, 11_000)
            ]
            doc = {
                "gameId": game_id,
                "split": "train",
                "halfDurationsMs": {"1": 20_000, "2": 20_000},
                "annotations": records,
            }
            (ann / f"g{k}.json").write_text(json.dumps(doc))
        return ann

    @staticmethod
    def blocks(clip_ids):
        """(game, half) of each run of consecutive clip ids, and whether starts ascend in each."""
        runs, ascending = [], True
        for clip_id in clip_ids:
            game, half, start = clip_id.rsplit(":", 2)
            start = int(start.lstrip("c"))  # a train clip id marks its context start
            if runs and runs[-1][0] == (game, int(half)):
                ascending &= start > runs[-1][1]
                runs[-1][1] = start
            else:
                runs.append([(game, int(half)), start])
        return [block for block, _ in runs], ascending

    def test_eval_clips_in_sort_key_order(self, tmp_path, corpus_dir):
        out = tmp_path / "clips.json"
        assert main(["prepare", str(corpus_dir), "--out", str(out)]) == 0
        ids = [c["clip_id"] for c in json.loads(out.read_text())["clips"]]
        assert self.blocks(ids) == (
            [("a", 1), ("a", 2), ("a0", 1), ("a0", 2), ("a:1", 1), ("a:1", 2)],
            True,
        )

    @pytest.mark.parametrize("command", ["baseline", "targets"])
    def test_predictions_and_targets_in_clip_id_order(self, tmp_path, corpus_dir, command):
        out = tmp_path / "out.json"
        argv = {
            "baseline": ["baseline", str(corpus_dir), "--kind", "random", "--per-clip", "1"],
            "targets": ["targets", str(corpus_dir), "--variant", "q-bce"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        records = doc["predictions"] if command == "baseline" else doc["clips"]
        ids = [r["clip_id"] for r in records]
        assert ids == sorted(ids)
        expected = {
            "baseline": [("a0", 1), ("a0", 2), ("a", 1), ("a:1", 1), ("a:1", 2), ("a", 2)],
            "targets": [("a0", 1), ("a0", 2), ("a:1", 1), ("a:1", 2), ("a", 1), ("a", 2)],
        }[command]
        assert self.blocks(ids) == (expected, True)


class TestBaselineCommand:
    def test_oracle_round_trip(self, oracle_file, clips_file):
        preds = read_predictions(oracle_file)
        clips, _ = read_eval_clips(clips_file)
        assert len(preds) == sum(len(c.gt_actions) for c in clips)

    def test_prior_needs_train_games(self, tmp_path, capsys):
        beta_only = tmp_path / "beta"
        beta_only.mkdir()
        shutil.copy(FIXTURE_DIR / "game-beta.json", beta_only)
        code, _, err = run(
            [
                "baseline",
                str(beta_only),
                "--kind",
                "prior",
                "--out",
                str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "train-split games" in err

    def test_prior_scores_non_train_split(self, tmp_path, capsys):
        out = tmp_path / "prior.json"
        code, _, _ = run(
            [
                "baseline",
                str(FIXTURE_DIR),
                "--kind",
                "prior",
                "--split",
                "test",
                "--top-k",
                "2",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        preds = read_predictions(out)
        assert len({p.label for p in preds}) == 2
        assert all(p.clip_id.startswith("fixture-league/game-gamma") for p in preds)

    def test_random_seed_changes_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["baseline", str(FIXTURE_DIR), "--kind", "random"]
        run([*base, "--seed", "1", "--out", str(a)], capsys)
        run([*base, "--seed", "2", "--out", str(b)], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["baseline", str(FIXTURE_DIR), "--kind", "random", "--seed", "7"]
        run([*base, "--out", str(a)], capsys)
        run([*base, "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_drop_prob_rejected(self, tmp_path, capsys):
        code, _, err = run(
            [
                "baseline",
                str(FIXTURE_DIR),
                "--kind",
                "oracle",
                "--drop-prob",
                "1.5",
                "--out",
                str(tmp_path / "x.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "drop_prob" in err

    # 640 is q x C at MAX_QUERIES, 160 the paper's 16 slots x 10 classes.
    @pytest.mark.parametrize(
        "per_clip, accepted",
        [(640, True), (160, True), (1, True), (641, False), (10**9, False), (0, False)],
    )
    def test_per_clip_bound(self, tmp_path, capsys, monkeypatch, per_clip, accepted):
        assert MAX_PREDICTIONS_PER_CLIP == MAX_QUERIES * NUM_CLASSES == 640

        # No predictions are generated: reaching the predictor shows the spec was accepted.
        def stop(clips, spec, train_stats):
            raise RuntimeError(f"predictor reached with per_clip={spec.per_clip}")

        monkeypatch.setattr(cli, "run_baseline", stop)
        out = tmp_path / "x.json"
        argv = ["baseline", str(FIXTURE_DIR), "--kind", "random", "--per-clip", str(per_clip)]
        argv += ["--out", str(out)]
        if accepted:
            with pytest.raises(RuntimeError, match=f"per_clip={per_clip}$"):
                main(argv)
        else:
            code, _, err = run(argv, capsys)
            assert code == 2
            assert err == f"kickcast: error: per_clip must be from 1 to 640, got {per_clip}\n"
        assert not out.exists()


class TestEvaluateCommand:
    def test_oracle_scores_one_everywhere(self, clips_file, oracle_file, capsys):
        code, out, _ = run(
            ["evaluate", "--gt", str(clips_file), "--pred", str(oracle_file)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["average_map"] == 1.0
        assert set(doc["map"]) == {"1", "2", "3", "4", "5", "inf"}
        assert all(v == 1.0 for v in doc["map"].values())

    def test_custom_deltas(self, clips_file, oracle_file, capsys):
        code, out, _ = run(
            [
                "evaluate",
                "--gt",
                str(clips_file),
                "--pred",
                str(oracle_file),
                "--deltas",
                "2,inf",
            ],
            capsys,
        )
        assert code == 0
        assert list(json.loads(out)["map"]) == ["2", "inf"]

    def test_markdown_format(self, clips_file, oracle_file, capsys):
        code, out, _ = run(
            [
                "evaluate",
                "--gt",
                str(clips_file),
                "--pred",
                str(oracle_file),
                "--format",
                "md",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("| Class |")
        assert "**mAP**" in out

    def test_csv_to_file(self, tmp_path, clips_file, oracle_file, capsys):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            [
                "evaluate",
                "--gt",
                str(clips_file),
                "--pred",
                str(oracle_file),
                "--format",
                "csv",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("delta,class,ap")

    def test_bad_delta_string(self, clips_file, oracle_file, capsys):
        code, _, err = run(
            [
                "evaluate",
                "--gt",
                str(clips_file),
                "--pred",
                str(oracle_file),
                "--deltas",
                "1,zap",
            ],
            capsys,
        )
        assert code == 2
        assert "kickcast: error:" in err

    def test_report_bytes_stable_under_prediction_shuffle(
        self, tmp_path, clips_file, oracle_file, capsys
    ):
        # rewriting the prediction file from a shuffled list must not change
        # the rendered report
        from kickcast.fileio import write_predictions
        import random

        preds = read_predictions(oracle_file)
        random.Random(5).shuffle(preds)
        shuffled = tmp_path / "shuffled.json"
        write_predictions(shuffled, preds)
        assert shuffled.read_bytes() == oracle_file.read_bytes()

        _, first, _ = run(
            ["evaluate", "--gt", str(clips_file), "--pred", str(oracle_file)], capsys
        )
        _, second, _ = run(
            ["evaluate", "--gt", str(clips_file), "--pred", str(shuffled)], capsys
        )
        assert first == second


class TestLossCheck:
    def test_report_structure(self, check_file, capsys):
        import math

        code, out, _ = run(["loss-check", str(check_file)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "kickcast-loss-report"
        (row,) = doc["clips"]
        assert row["id"] == "demo"
        # every slot is an unpaired negative at actionness 0.5
        assert row["detection"] == pytest.approx(math.log(2.0))
        assert row["classification"] == 0.0
        assert row["time"] == 0.0
        assert doc["mean"]["total"] == pytest.approx(row["total"])

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["loss-check", str(tmp_path / "missing.json")], capsys)
        assert code == 2
        assert "kickcast: error:" in err


class TestBadInput:
    @staticmethod
    def assert_one_error_line(code, err):
        assert code == 2
        assert err.startswith("kickcast: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--ta", "inf", "anticipation_s"),
            ("--ta", "nan", "anticipation_s"),
            ("--ta", "0.0001", "anticipation_s"),
            ("--ta", "1e308", "anticipation_s"),
            ("--ta", "5.0004", "anticipation_s"),
            ("--tc", "0.0004", "context_s"),
            ("--fps", "inf", "fps"),
        ],
    )
    def test_bad_window_config(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "c.json"
        # Only targets takes the training choices --tc and --fps.
        command = ["prepare"] if flag == "--ta" else ["targets", "--variant", "q-act"]
        code, _, err = run([*command, str(FIXTURE_DIR), flag, value, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_out(self, tmp_path, capsys, clips_file, oracle_file, check_file, command):
        out = tmp_path / "missing" / "out.json"
        argv = command_argv(command, clips_file, oracle_file, check_file)
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert f"{out}: No such file or directory" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_directory_not_writable(
        self, tmp_path, capsys, monkeypatch, clips_file, oracle_file, check_file, command
    ):
        # Root ignores directory permissions, so the refusal is made where the
        # temporary file is created; the error names --out, not that file.
        locked = tmp_path / "locked"
        locked.mkdir()
        real_open = os.open

        def refuse(path, flags, *args, **kwargs):
            if os.path.dirname(path) == str(locked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse)
        out = locked / "out.json"
        argv = command_argv(command, clips_file, oracle_file, check_file)
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err == f"kickcast: error: {out}: Permission denied\n"
        assert list(locked.iterdir()) == []

    @pytest.mark.parametrize("count", [MAX_TOLERANCES + 1, 300_000])
    def test_tolerance_count_checked_before_any_file_is_read(
        self, tmp_path, capsys, monkeypatch, count
    ):
        def unreachable(path):
            raise AssertionError(f"{path} was read before --deltas was checked")

        monkeypatch.setattr(cli, "read_eval_clips", unreachable)
        monkeypatch.setattr(cli, "read_predictions", unreachable)
        deltas = ",".join(str(k + 1) for k in range(count))
        argv = ["evaluate", "--gt", "clips.json", "--pred", "preds.json", "--deltas", deltas]
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == (
            f"kickcast: error: --deltas lists {count} tolerances, "
            f"at most {MAX_TOLERANCES} are allowed\n"
        )

    @pytest.mark.parametrize(
        "deltas, shown",
        [
            ("1,1", "(1.0, 1.0)"),
            ("1,1.0", "(1.0, 1.0)"),
            ("2,1,2.0", "(2.0, 1.0, 2.0)"),
            ("inf,Infinity", "(inf, inf)"),
        ],
    )
    def test_duplicate_tolerances_checked_before_any_file_is_read(
        self, capsys, monkeypatch, deltas, shown
    ):
        def unreachable(path):
            raise AssertionError(f"{path} was read before --deltas was checked")

        monkeypatch.setattr(cli, "read_eval_clips", unreachable)
        monkeypatch.setattr(cli, "read_predictions", unreachable)
        argv = ["evaluate", "--gt", "clips.json", "--pred", "preds.json", "--deltas", deltas]
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == f"kickcast: error: duplicate tolerances in {shown}\n"

    @pytest.mark.parametrize(
        "deltas, error",
        [
            ("1e309,5", "tolerance '1e309' is too large; write inf for no bound"),
            ("1_0", "bad tolerance '1_0'"),
            ("1,1e-320", "tolerance must be at least 0.001 s (1 ms), got '1e-320'"),
            ("0.0005,5", "tolerance must be at least 0.001 s (1 ms), got '0.0005'"),
        ],
        ids=["overflow", "separator", "subnormal", "sub-millisecond"],
    )
    def test_out_of_range_tolerance_checked_before_any_file_is_read(
        self, capsys, monkeypatch, deltas, error
    ):
        def unreachable(path):
            raise AssertionError(f"{path} was read before --deltas was checked")

        monkeypatch.setattr(cli, "read_eval_clips", unreachable)
        monkeypatch.setattr(cli, "read_predictions", unreachable)
        argv = ["evaluate", "--gt", "clips.json", "--pred", "preds.json", "--deltas", deltas]
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == f"kickcast: error: {error}\n"

    @pytest.mark.parametrize(
        "deltas",
        [[k / 2 for k in range(1, 121)], [k / 4 for k in range(1, MAX_TOLERANCES + 1)]],
        ids=["0.5-60s-sweep", "at-the-bound"],
    )
    def test_tolerance_sweeps_accepted(self, clips_file, oracle_file, capsys, deltas):
        names = [format_delta(d) for d in deltas]
        argv = ["evaluate", "--gt", str(clips_file), "--pred", str(oracle_file)]
        code, out, err = run([*argv, "--deltas", ",".join(names)], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["deltas"] == names
        assert doc["average_map"] == 1.0

    @pytest.mark.parametrize(
        "fmt, body, match",
        [
            ("kickcast-eval-clips", {"config": {}, "clips": 5}, "'clips' must be a list"),
            ("kickcast-eval-clips", {"config": {}, "clips": [5]}, "clip #0"),
            ("kickcast-predictions", {"predictions": 5}, "'predictions' must be a list"),
            ("kickcast-predictions", {"predictions": [[1]]}, "prediction #0"),
            ("kickcast-loss-check", {"clips": 5}, "'clips' must be a list"),
            ("kickcast-loss-check", {"clips": [[1]]}, "clip #0"),
            ("kickcast-loss-check", {"weights": 5, "clips": []}, "'weights' must be a list"),
            ("kickcast-loss-check", {"weights": [[1]], "clips": []}, "weights"),
            ("kickcast-eval-clips", {"config": 5, "clips": []}, "config must be an object"),
            ("kickcast-loss-check", {"config": 5, "clips": []}, "config must be an object"),
        ],
    )
    def test_malformed_record_arrays(self, tmp_path, clips_file, capsys, fmt, body, match):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": fmt, "version": 1, **body}))
        if fmt == "kickcast-loss-check":
            argv = ["loss-check", str(bad)]
        elif fmt == "kickcast-predictions":
            argv = ["evaluate", "--gt", str(clips_file), "--pred", str(bad)]
        else:
            argv = ["evaluate", "--gt", str(bad), "--pred", str(bad)]
        code, _, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert match in err
        assert err.count(f"{bad}: ") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("class_index", "a"),
            ("class_index", True),
            ("class_index", 1.5),
            ("time", "a"),
            ("gt_index", "a"),
            ("actionness", "x"),
            ("class_multihot", [0, "1"]),
            (None, 5),
            ("truncated", "no"),
            ("id", 5),
        ],
    )
    def test_bad_loss_check_field(self, tmp_path, capsys, key, value):
        doc = loss_check_doc()
        clip = doc["clips"][0]
        if key is None:
            clip["slots"][0] = value
        elif key in ("truncated", "id"):
            clip[key] = value
        else:
            clip["slots"][0] = {**clip["slots"][0], key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert err.count(f"{bad}: clip #0: ") == 1

    @pytest.mark.parametrize("value", ["empty", "", 5], ids=["empty-container", "string", "int"])
    @pytest.mark.parametrize(
        "field",
        [
            "gt_actions",
            "outputs",
            "slots",
            "class_probs",
            "class_multihot",
            "segmentation",
            "frame_dists",
            "labels",
        ],
    )
    def test_container_field_of_wrong_type(
        self, tmp_path, capsys, clips_file, oracle_file, field, value
    ):
        # An empty container of the other kind must not read as an empty one.
        what = "an object" if field == "segmentation" else "a list"
        if value == "empty":
            value = [] if field == "segmentation" else {}
        bad = tmp_path / "bad.json"
        if field == "gt_actions":
            doc = json.loads(clips_file.read_text())
            doc["clips"][0]["gt_actions"] = value
            argv = ["evaluate", "--gt", str(bad), "--pred", str(oracle_file)]
        else:
            doc = loss_check_doc()
            clip = doc["clips"][0]
            frames = BenchConfig().context_frames
            clip["segmentation"] = {
                "frame_dists": [[1.0 / (NUM_CLASSES + 1)] * (NUM_CLASSES + 1)] * frames,
                "labels": [0] * frames,
            }
            if field in ("class_probs", "class_multihot"):
                records = clip["outputs" if field == "class_probs" else "slots"]
                records[0] = {**records[0], field: value}
            elif field in ("frame_dists", "labels"):
                clip["segmentation"][field] = value
            else:
                clip[field] = value
            argv = ["loss-check", str(bad)]
        bad.write_text(json.dumps(doc))
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"kickcast: error: {bad}: clip #0: {field} must be {what}, got {value!r}\n"

    @pytest.mark.parametrize("value", ["x", 5, [], None])
    @pytest.mark.parametrize("field", ["gt_actions", "outputs", "slots"])
    def test_item_of_wrong_type(self, tmp_path, capsys, clips_file, oracle_file, field, value):
        bad = tmp_path / "bad.json"
        if field == "gt_actions":
            doc = json.loads(clips_file.read_text())
            doc["clips"][0]["gt_actions"] = [value]
            argv = ["evaluate", "--gt", str(bad), "--pred", str(oracle_file)]
        else:
            doc = loss_check_doc()
            doc["clips"][0][field][0] = value
            argv = ["loss-check", str(bad)]
        bad.write_text(json.dumps(doc))
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        want = f"clip #0: {field} #0 must be an object, got {value!r}"
        assert err == f"kickcast: error: {bad}: {want}\n"

    @pytest.mark.parametrize("index", [-1, -10])
    def test_negative_class_index(self, tmp_path, capsys, index):
        doc = loss_check_doc()
        doc["clips"][0]["slots"][0] = {
            "gt_index": 0,
            "actionness": 1.0,
            "class_index": index,
            "class_multihot": None,
            "time": 0.5,
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert f"class target {index} outside distribution" in err

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("actionness", 5.0, "actionness target 5.0 outside [0, 1]"),
            ("class_multihot", [2] + [0] * 9, "entry other than 0 or 1"),
            ("class_multihot", [1, 0, 0], "multi-hot target of 3 vs distribution of 10"),
        ],
    )
    def test_loss_target_out_of_range(self, tmp_path, capsys, key, value, match):
        doc = loss_check_doc()
        slot = {"gt_index": 0, "actionness": 1.0, "class_index": None, "class_multihot": None}
        doc["clips"][0]["slots"][0] = {**slot, "time": 0.5, key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert match in err
        assert err.count(f"{bad}: clip #0 (demo): ") == 1

    @pytest.mark.parametrize(
        "weight, match",
        [
            (-1.0, "must be finite and > 0, got -1.0"),
            (0, "must be finite and > 0, got 0"),
            (math.nan, "must be finite and > 0, got nan"),
            (math.inf, "must be finite and > 0, got inf"),
            ("1.5", "must be a number, got '1.5'"),
            (True, "must be a number, got True"),
        ],
    )
    def test_bad_loss_weight(self, tmp_path, capsys, weight, match):
        doc = loss_check_doc()
        doc["weights"] = [1.0, 1.0, weight] + [1.0] * 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN and Infinity as JSON's extension literals
        code, out, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert f"{bad}: weights #2: {match}" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("queries", 8.5),
            ("dilation_radius", 2.5),
            ("num_classes", 10.0),
            ("context_s", True),
            ("context_s", 5),  # an int is a valid number of seconds
            ("bogus", 1),
            ("num_classes", 10**4_000),
            ("queries", 10**4_000),
        ],
        ids=lambda value: f"{str(value)[:8]}..." if len(str(value)) > 20 else None,
    )
    @pytest.mark.parametrize("command", ["evaluate", "loss-check"])
    def test_config_field_type(self, tmp_path, capsys, request, command, key, value):
        source = request.getfixturevalue("clips_file" if command == "evaluate" else "check_file")
        doc = json.loads(source.read_text())
        doc["config"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        if command == "evaluate":
            oracle_file = request.getfixturevalue("oracle_file")
            argv = ["evaluate", "--gt", str(bad), "--pred", str(oracle_file)]
        else:
            argv = ["loss-check", str(bad)]
        code, _, err = run(argv, capsys)
        if key == "context_s" and type(value) is int:
            assert (code, err) == (0, "")
        else:
            self.assert_one_error_line(code, err)
            what = "unknown field 'bogus'" if key == "bogus" else f"{key} must be"
            assert f"{bad}: bad config: {what}" in err
            assert len(err.replace(str(bad), "").encode()) <= 300
    def test_nan_frame_distribution(self, tmp_path, capsys):
        doc = loss_check_doc()
        frames, width = BenchConfig().context_frames, BenchConfig().num_classes + 1
        dists = [[1.0 / width] * width for _ in range(frames)]
        dists[-1][0] = math.nan
        doc["clips"][0]["segmentation"] = {"frame_dists": dists, "labels": [0] * frames}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN as JSON's extension literal
        code, out, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert f"{bad}: clip #0 (demo): frame {frames - 1} distribution sums to nan" in err

    @pytest.mark.parametrize(
        "head, message",
        [
            ([1.5, -0.5], "frame 0 probability 1.5 outside [0, 1]"),
            ([-0.5, 1.5], "frame 0 probability -0.5 outside [0, 1]"),
            ([1e308, 1e308], "frame 0 probability 1e+308 outside [0, 1]"),
        ],
        ids=["above-one", "negative", "overflowing-sum"],
    )
    def test_frame_probability_outside_unit_interval(self, tmp_path, capsys, head, message):
        # The first two frames sum to 1, so only the range check stops a
        # negative loss; the last would overflow math.fsum.
        doc = loss_check_doc()
        frames, width = BenchConfig().context_frames, BenchConfig().num_classes + 1
        dists = [[1.0 / width] * width for _ in range(frames)]
        dists[0] = head + [0.0] * (width - len(head))
        doc["clips"][0]["segmentation"] = {"frame_dists": dists, "labels": [0] * frames}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == f"kickcast: error: {bad}: clip #0 (demo): {message}\n"

    @pytest.mark.parametrize(
        "time_raw, weight, clips, message",
        [
            (1e308, 1.0, 1, "clip #0 (demo): its losses overflow a float"),  # its square
            (-1.0, 1e308, 1, "clip #0 (demo): its losses overflow a float"),  # weighted CE
            (1.2e154, 1.0, 1, None),  # a square of 1.44e308: finite, and reported
            (1.2e154, 1.0, 2, "the mean losses overflow a float"),  # their sum is not
        ],
        ids=["time-square", "class-weight", "finite", "mean"],
    )
    def test_losses_past_the_largest_float(
        self, tmp_path, capsys, time_raw, weight, clips, message
    ):
        doc = loss_check_doc()
        doc["config"]["lambda_time"] = 1.0
        doc["weights"] = [weight] * NUM_CLASSES
        clip = doc["clips"][0]
        clip["slots"] = [
            {"gt_index": 0, "actionness": 1.0, "class_index": 2, "class_multihot": None, "time": 0.5},
            *clip["slots"][1:],
        ]
        clip["outputs"] = [{**clip["outputs"][0], "time_raw": time_raw}, *clip["outputs"][1:]]
        doc["clips"] = [{**clip, "id": "demo" if k == 0 else f"demo{k}"} for k in range(clips)]
        path = tmp_path / "check.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["loss-check", str(path)], capsys)
        if message is None:
            assert code == 0 and err == ""
            assert json.loads(out)["clips"][0]["time"] > 1e308
        else:
            self.assert_one_error_line(code, err)
            assert out == ""
            assert err == f"kickcast: error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv, key, value, message",
        [
            (
                ["targets", str(FIXTURE_DIR), "--variant", "q-act", "--fps", "0"],
                None,
                None,
                "fps must be positive",
            ),
            (
                ["loss-check"],
                "dilation_radius",
                -1,
                "bad config: dilation_radius must be non-negative",
            ),
        ],
        ids=["fps-flag", "dilation-config"],
    )
    def test_config_out_of_range(self, tmp_path, capsys, argv, key, value, message):
        out = tmp_path / "out.json"
        if key is not None:
            doc = loss_check_doc()
            doc["config"][key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            argv = [*argv, str(bad)]
            message = f"{bad}: {message}"
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err == f"kickcast: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["eval-clips", "predictions", "loss-check"])
    def test_top_level_not_an_object(self, tmp_path, capsys, clips_file, oracle_file, reader):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        argv = {
            "eval-clips": ["evaluate", "--gt", str(bad), "--pred", str(oracle_file)],
            "predictions": ["evaluate", "--gt", str(clips_file), "--pred", str(bad)],
            "loss-check": ["loss-check", str(bad)],
        }[reader]
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == f"kickcast: error: {bad}: expected a JSON object at top level\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"annotations": [5]}, "annotation #0: annotation record must be an object, got int"),
            ({"halfDurationsMs": []}, "halfDurationsMs must be an object keyed by half"),
            ({"gameId": 5}, "gameId must be a string, got 5"),
            ({"gameId": ""}, "gameId must be a non-empty string, got ''"),
        ],
        ids=["record", "durations", "game-id-type", "game-id-empty"],
    )
    def test_bad_annotation_document(self, tmp_path, capsys, change, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"gameId": "g", "annotations": [], **change}))
        out = tmp_path / "clips.json"
        code, _, err = run(["prepare", str(path), "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err == f"kickcast: error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prepare", "targets", "baseline"])
    def test_empty_split(self, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        argv = [*command_argv(command, None, None, None), "--split", "valid2"]
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err == "kickcast: error: no games to process in split 'valid2'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("prepare", "no evaluation windows could be derived from the inputs"),
            ("targets", "no training windows could be derived from the inputs"),
            ("loss-check", "{bad}: no clips to check"),
        ],
    )
    def test_nothing_to_do(self, tmp_path, capsys, command, message):
        bad = tmp_path / "bad.json"
        if command == "prepare":  # no durations and no actions: no half to tile
            doc = {"gameId": "g", "annotations": []}
            argv = ["prepare", str(bad)]
        elif command == "targets":  # halves shorter than the 5 s context
            doc = {"gameId": "g", "halfDurationsMs": {"1": 4000, "2": 4000}, "annotations": []}
            argv = ["targets", str(bad), "--variant", "q-act", "--tc", "5"]
        else:
            doc = {**loss_check_doc(), "clips": []}
            argv = ["loss-check", str(bad)]
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err == f"kickcast: error: {message.format(bad=bad)}\n"
        assert not out.exists()

    def test_duplicate_game_id_outside_the_split(self, tmp_path, capsys):
        # Game ids are unique across the inputs, not only within the chosen split.
        dup = tmp_path / "dup"
        dup.mkdir()
        doc = json.loads((FIXTURE_DIR / "game-alpha.json").read_text())
        (dup / "one.json").write_text(json.dumps(doc))
        (dup / "two.json").write_text(json.dumps({**doc, "split": "test"}))
        out = tmp_path / "clips.json"
        code, _, err = run(["prepare", str(dup), "--split", "test", "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err == f"kickcast: error: duplicate game id {doc['gameId']!r} in inputs\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload", ["[" * 100_000 + "]" * 100_000, "1" + "0" * 5000], ids=["deep", "5001-digit"]
    )
    @pytest.mark.parametrize(
        "kind", ["annotations", "eval-clips", "predictions", "loss-check", "config"]
    )
    def test_undecodable_json(self, tmp_path, capsys, clips_file, oracle_file, kind, payload):
        bad = tmp_path / "bad.json"
        if kind == "annotations":
            doc = json.loads(next(FIXTURE_DIR.glob("*.json")).read_text())
            doc["annotations"][0]["position"] = "@"
            argv = ["prepare", str(bad), "--out", str(tmp_path / "out.json")]
        elif kind == "predictions":
            doc = json.loads(oracle_file.read_text())
            doc["predictions"][0]["time_s"] = "@"
            argv = ["evaluate", "--gt", str(clips_file), "--pred", str(bad)]
        elif kind == "loss-check":
            doc = loss_check_doc()
            doc["clips"][0]["id"] = "@"
            argv = ["loss-check", str(bad)]
        else:  # an eval-clips file, or the config embedded in one
            doc = json.loads(clips_file.read_text())
            if kind == "config":
                doc["config"]["queries"] = "@"
            else:
                doc["clips"][0]["half"] = "@"
            argv = ["evaluate", "--gt", str(bad), "--pred", str(oracle_file)]
        bad.write_text(json.dumps(doc).replace('"@"', payload, 1))
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert f"{bad}: not valid JSON: " in err

    @pytest.mark.parametrize("key", ["half", "offset_ms", "game_id", "clip_id"])
    def test_bad_eval_clip_field(self, tmp_path, capsys, clips_file, oracle_file, key):
        doc = json.loads(clips_file.read_text())
        clip = next(c for c in doc["clips"] if c["gt_actions"])
        if key == "half":
            clip["half"] = str(clip["half"])  # the derived clip id does not change
        elif key == "offset_ms":
            clip["gt_actions"][0]["offset_ms"] += 0.9  # int() would truncate it
        else:
            clip[key] = 5
        doc["clips"] = [clip]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["evaluate", "--gt", str(bad), "--pred", str(oracle_file)], capsys)
        self.assert_one_error_line(code, err)
        assert err.count(f"{bad}: clip #0: ") == 1
        what = "a string" if key.endswith("_id") else "an integer"
        assert f"{key} must be {what}" in err

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("context_start_ms", 10**12, "context_start_ms 1000000000000 does not match derived"),
            ("context_end_ms", -7, "context_end_ms -7 does not match derived"),
            ("anticipation_end_ms", 10**12, "inconsistent with partial=False at T_a=5000 ms"),
            ("half", [0] * 200_000, "half must be an integer, got [0, 0, "),
            ("clip_id", "x" * 1_000_000, "clip_id 'xxx"),
        ],
        ids=["context-start", "context-end", "long-window", "huge-half", "huge-clip-id"],
    )
    def test_eval_clip_outside_protocol(
        self, tmp_path, capsys, clips_file, oracle_file, key, value, match
    ):
        doc = json.loads(clips_file.read_text())
        clip = next(c for c in doc["clips"] if not c["partial"])
        if key == "anticipation_end_ms":
            value += clip["anticipation_start_ms"]
        clip[key] = value
        doc["clips"] = [clip]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["evaluate", "--gt", str(bad), "--pred", str(oracle_file)], capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err.count(f"{bad}: clip #0: ") == 1
        assert match in err
        assert len(err.replace(str(bad), "").encode()) <= 300  # values are quoted briefly

    def test_bad_prediction_clip_id(self, tmp_path, capsys, clips_file, oracle_file):
        doc = json.loads(oracle_file.read_text())
        doc["predictions"][0]["clip_id"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["evaluate", "--gt", str(clips_file), "--pred", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert err.count(f"{bad}: prediction #0: ") == 1
        assert "clip_id must be a string" in err

    @pytest.mark.parametrize(
        "label, shown", [([1], "[1]"), (5, "5"), (None, "None")], ids=["list", "int", "null"]
    )
    @pytest.mark.parametrize("file", ["predictions", "eval-clips"])
    def test_non_string_label(
        self, tmp_path, capsys, clips_file, oracle_file, file, label, shown
    ):
        if file == "predictions":
            doc = json.loads(oracle_file.read_text())
            doc["predictions"][0]["label"] = label
            what = "prediction"
        else:
            doc = json.loads(clips_file.read_text())
            doc["clips"] = [next(c for c in doc["clips"] if c["gt_actions"])]
            doc["clips"][0]["gt_actions"][0]["label"] = label
            what = "clip"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        gt, pred = (clips_file, bad) if file == "predictions" else (bad, oracle_file)
        code, out, err = run(["evaluate", "--gt", str(gt), "--pred", str(pred)], capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == f"kickcast: error: {bad}: {what} #0: label must be a string, got {shown}\n"

    @pytest.mark.parametrize("key", ["time_s", "confidence"])
    def test_huge_integer_prediction_field(self, tmp_path, capsys, clips_file, oracle_file, key):
        doc = json.loads(oracle_file.read_text())
        doc["predictions"][3][key] = 10**400  # "1" and 400 zeros: no float holds it
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["evaluate", "--gt", str(clips_file), "--pred", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert err.count(f"{bad}: prediction #3: ") == 1
        assert f"{key} is an integer too large for a float" in err

    @pytest.mark.parametrize("key", ["actionness", "class_probs", "time_raw", "slot actionness"])
    def test_huge_integer_loss_check_field(self, tmp_path, capsys, key):
        doc = loss_check_doc()
        clip = doc["clips"][0]
        if key == "class_probs":
            clip["outputs"][0] = {**clip["outputs"][0], key: [10**400] + [0.1] * 9}
        elif key == "slot actionness":
            clip["slots"][0] = {**clip["slots"][0], "actionness": 10**400}
        else:
            clip["outputs"][0] = {**clip["outputs"][0], key: 10**400}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["loss-check", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err.count(f"{bad}: clip #0: ") == 1
        assert f"{key.split()[-1]} is an integer too large for a float" in err

    @pytest.mark.parametrize("queries", [MAX_QUERIES + 1, 100_000_000])
    def test_queries_bound_checked_before_any_game_is_read(
        self, tmp_path, capsys, monkeypatch, queries
    ):
        def unreachable(*args):
            raise AssertionError("the corpus was read before the config was checked")

        monkeypatch.setattr(cli, "load_corpus", unreachable)
        out = tmp_path / "t.json"
        argv = ["targets", str(FIXTURE_DIR), "--variant", "q-act", "--queries", str(queries)]
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert f"queries must be from 1 to {MAX_QUERIES}, got {queries}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "reader, field",
        [("predictions", "label"), ("eval-clips", "partial"), ("loss-check", "time_raw")],
    )
    def test_missing_field(self, tmp_path, capsys, clips_file, oracle_file, reader, field):
        bad = tmp_path / "bad.json"
        if reader == "predictions":
            doc = json.loads(oracle_file.read_text())
            records, what = doc["predictions"], "prediction"
            argv = ["evaluate", "--gt", str(clips_file), "--pred", str(bad)]
        elif reader == "eval-clips":
            doc = json.loads(clips_file.read_text())
            records, what = doc["clips"], "clip"
            argv = ["evaluate", "--gt", str(bad), "--pred", str(oracle_file)]
        else:
            doc = loss_check_doc()
            records, what = doc["clips"][0]["outputs"], "clip"
            argv = ["loss-check", str(bad)]
        records[0] = {k: v for k, v in records[0].items() if k != field}
        bad.write_text(json.dumps(doc))
        code, out, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert out == ""
        assert err == f"kickcast: error: {bad}: {what} #0: missing field {field!r}\n"

    # The limit is checked on read: tiling a 10^15 ms half would never end.
    @pytest.mark.parametrize(
        "where, ms",
        [
            ("duration", MAX_HALF_MS),
            ("duration", MAX_HALF_MS + 1),
            ("duration", 10**15),
            ("action", MAX_HALF_MS),
            ("action", MAX_HALF_MS + 1),
        ],
    )
    def test_half_length_bound(self, tmp_path, capsys, monkeypatch, where, ms):
        def stop(game, cfg):
            raise RuntimeError(f"tiling reached for {game.game_id}")

        monkeypatch.setattr(cli, "make_eval_clips", stop)
        doc = {"gameId": "g", "annotations": []}
        if where == "duration":
            doc["halfDurationsMs"] = {"1": ms}
            error = f"half duration must be at most {MAX_HALF_MS} ms, got {ms}"
        else:
            record = {"gameTime": format_game_time(1, ms), "position": ms, "label": "Pass"}
            doc["annotations"].append(record)
            error = f"annotation #0: time {ms} ms exceeds the longest half, {MAX_HALF_MS} ms"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "clips.json"
        argv = ["prepare", str(path), "--out", str(out)]
        if ms <= MAX_HALF_MS:
            with pytest.raises(RuntimeError, match="tiling reached for g$"):
                main(argv)
        else:
            code, _, err = run(argv, capsys)
            self.assert_one_error_line(code, err)
            assert err == f"kickcast: error: {path}: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--ta", "0.001"],
            ["prepare", "--ta", "0.099"],  # a 99 ms stride: 72,728 windows
            ["baseline", "--kind", "oracle", "--ta", "0.001"],
            ["targets", "--variant", "q-act", "--tc", "0.001"],
            ["targets", "--variant", "q-bce", "--tc", "0.949"],  # a 95 ms stride
        ],
    )
    def test_windows_per_half_bound(self, tmp_path, capsys, monkeypatch, argv):
        # Checked on the flags alone: no file is read and no half is tiled.
        def stop(*args):
            raise RuntimeError("work reached")

        for name in ("load_corpus", "make_eval_clips", "make_train_clips"):
            monkeypatch.setattr(cli, name, stop)
        out = tmp_path / "out.json"
        code, _, err = run([argv[0], str(FIXTURE_DIR), *argv[1:], "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        flag, seconds = argv[-2:]
        assert err.startswith(f"kickcast: error: {flag} {float(seconds)!r} tiles ")
        assert err.endswith(f"at most {MAX_WINDOWS_PER_HALF} windows per half are allowed\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # The paper's settings: T_a of 5 and 10 s, T_c of 5 s.
            ["prepare", "--ta", "5"],
            ["prepare", "--ta", "10"],
            ["baseline", "--kind", "prior", "--ta", "10"],
            ["targets", "--variant", "q-act", "--tc", "5", "--ta", "10"],
            # The finest strides the limit admits: exactly its windows per half.
            ["prepare", "--ta", "0.1"],
            ["targets", "--variant", "anchors", "--tc", "0.999"],
            # T_a of 5 and 10 s at the finest T_c, and the longest T_a there.
            ["targets", "--variant", "q-act", "--tc", "0.995", "--ta", "5"],
            ["targets", "--variant", "q-act", "--tc", "0.995", "--ta", "10"],
            ["targets", "--variant", "q-eos", "--tc", "1", "--ta", "72"],
        ],
    )
    def test_windows_per_half_bound_admits(self, tmp_path, monkeypatch, argv):
        def stop(game, cfg):
            raise RuntimeError(f"tiling reached for {game.game_id}")

        monkeypatch.setattr(cli, "make_eval_clips", stop)
        monkeypatch.setattr(cli, "make_train_clips", stop)
        out = tmp_path / "out.json"
        with pytest.raises(RuntimeError, match="^tiling reached for "):
            main([argv[0], str(FIXTURE_DIR), *argv[1:], "--out", str(out)])

    @pytest.mark.parametrize(
        "tc, ta, most_s",
        [
            ("1", "72.001", 72.0),
            ("0.995", "100", 72.0),
            ("5", "360.5", 360.0),
            ("5", "1e300", 360.0),
        ],
    )
    def test_windows_past_half_bound(self, tmp_path, capsys, monkeypatch, tc, ta, most_s):
        # A half whose length is inferred is tiled to its last action plus T_a,
        # so T_a is bounded too, on the flags alone: no file is read.
        def stop(*args):
            raise RuntimeError("work reached")

        for name in ("load_corpus", "make_train_clips"):
            monkeypatch.setattr(cli, name, stop)
        out = tmp_path / "out.json"
        argv = ["targets", str(FIXTURE_DIR), "--variant", "q-act", "--tc", tc, "--ta", ta]
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert err.startswith(
            f"kickcast: error: --ta {float(ta)!r} tiles more than {MAX_WINDOWS_PAST_HALF} windows "
        )
        assert err.endswith(f"at --tc {float(tc)!r}, --ta may be at most {most_s!r} s\n")
        assert not out.exists()

    def test_windows_past_half_bound_is_a_hard_maximum(self, tmp_path):
        # The longest tiling a half can get: its length inferred from an action
        # at the end of the longest half, at the finest T_c and the longest T_a.
        last = {"gameTime": format_game_time(1, MAX_HALF_MS), "label": "Pass"}
        doc = {"gameId": "g", "split": "train", "annotations": [last]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        game = cli.load_corpus([str(path)])[0]
        windows = len(cli.make_train_clips(game, BenchConfig(context_s=1.0, anticipation_s=72.0)))
        assert MAX_WINDOWS_PER_HALF < windows <= MAX_WINDOWS_PER_HALF + MAX_WINDOWS_PAST_HALF

    def test_directory_named_like_annotation_file(self, tmp_path, capsys):
        ann = tmp_path / "ann"
        shutil.copytree(FIXTURE_DIR, ann)
        (ann / "x.json").mkdir()
        out = tmp_path / "clips.json"
        code, _, err = run(["prepare", str(ann), "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert "x.json: Is a directory" in err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["annotations", "eval-clips"])
    def test_non_utf8_input(self, tmp_path, capsys, reader):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "\xff"}')
        if reader == "annotations":
            argv = ["prepare", str(bad), "--out", str(tmp_path / "clips.json")]
        else:
            argv = ["evaluate", "--gt", str(bad), "--pred", str(bad)]
        code, _, err = run(argv, capsys)
        self.assert_one_error_line(code, err)
        assert "bad.json: not valid UTF-8" in err

    # Each echoed document value is quoted through jsonio.brief.  Integers can
    # only be as long as JSON's 4,300-digit limit allows, so those cases use
    # 4,000 digits.
    @classmethod
    def assert_brief_error(cls, code, out, err, path, match):
        cls.assert_one_error_line(code, err)
        assert out == ""
        assert match in err
        assert len(err.replace(str(path), "").encode()) <= 300

    @pytest.mark.parametrize(
        "case, match",
        [
            ("label", "unknown label 'xxx"),
            ("split", "split must be one of"),
            ("gameTime", "malformed gameTime 'xxx"),
            ("position", "digit string, got 'xxx"),
            ("position-disagrees", "disagrees with gameTime"),
            ("time-past-half", "exceeds half 1 duration"),
            ("half-key", 'half key must be "1" or "2", got \'xxx'),
            ("half-duration", "half duration must be non-negative, got -1000"),
            ("duplicate-game-id", "duplicate game id 'xxx"),
        ],
    )
    def test_long_annotation_value(self, tmp_path, capsys, case, match):
        doc = json.loads((FIXTURE_DIR / "game-alpha.json").read_text())
        record = doc["annotations"][0]
        digits = "9" * 4_000
        if case in ("split", "label", "gameTime", "position"):
            (doc if case == "split" else record)[case] = LONG
        elif case == "position-disagrees":
            record["position"] = digits
        elif case == "time-past-half":
            record["gameTime"] = f"1 - {digits}:00"
            record["position"] = str(int(digits) * 60_000)
        elif case == "half-key":
            doc["halfDurationsMs"] = {LONG: 1}
        elif case == "half-duration":
            doc["halfDurationsMs"] = {"1": -(10**4_000)}
        else:
            doc["gameId"] = LONG
        bad = tmp_path / "ann"
        bad.mkdir()
        (bad / "a.json").write_text(json.dumps(doc))
        if case == "duplicate-game-id":
            (bad / "b.json").write_text(json.dumps(doc))
        code, out, err = run(["prepare", str(bad), "--out", str(tmp_path / "c.json")], capsys)
        self.assert_brief_error(code, out, err, bad, match)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("label", "unknown label 'xxx"),
            ("duplicate-clip-id", "duplicate clip id 'xxx"),
            ("excluded-class", "has excluded class 'Goal'"),
        ],
    )
    def test_long_eval_clip_value(self, tmp_path, capsys, clips_file, oracle_file, case, match):
        doc = json.loads(clips_file.read_text())
        clip = next(c for c in doc["clips"] if c["gt_actions"])
        if case == "label":
            clip["gt_actions"][0]["label"] = LONG
        else:
            clip["game_id"] = LONG
            clip["clip_id"] = f"{LONG}:{clip['half']}:{clip['anticipation_start_ms']:07d}"
        if case == "excluded-class":
            clip["gt_actions"][0]["label"] = "Goal"
        doc["clips"] = [clip, clip] if case == "duplicate-clip-id" else [clip]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["evaluate", "--gt", str(bad), "--pred", str(oracle_file)], capsys)
        self.assert_brief_error(code, out, err, bad, match)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("label", "unknown label 'xxx"),
            ("unknown-clip", "prediction references unknown clip 'xxx"),
            ("outside-window", "outside 5.0 s window of clip 'xxx"),
        ],
    )
    def test_long_prediction_value(self, tmp_path, capsys, clips_file, case, match):
        clips = json.loads(clips_file.read_text())
        clip = next(c for c in clips["clips"] if not c["partial"])
        clip["game_id"] = LONG
        clip["clip_id"] = f"{LONG}:{clip['half']}:{clip['anticipation_start_ms']:07d}"
        clip["gt_actions"] = []
        clips["clips"] = [clip]
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(clips))
        prediction = {"clip_id": clip["clip_id"], "label": "Pass", "time_s": 1.0, "confidence": 0.5}
        if case == "label":
            prediction["label"] = LONG
        elif case == "unknown-clip":
            prediction["clip_id"] = LONG  # the clip's id is LONG + ":<half>:<start>"
        else:
            prediction["time_s"] = 6.0
        pred = tmp_path / "pred.json"
        doc = {"format": "kickcast-predictions", "version": 1, "predictions": [prediction]}
        pred.write_text(json.dumps(doc))
        code, out, err = run(["evaluate", "--gt", str(gt), "--pred", str(pred)], capsys)
        self.assert_brief_error(code, out, err, pred, match)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("variant", "unknown variant 'xxx"),
            ("class-index", "class target 1000"),
            ("multi-hot", "multi-hot target (1000"),
            ("frame-label", "frame 0 label 1000"),
        ],
    )
    def test_long_loss_check_value(self, tmp_path, capsys, case, match):
        doc = loss_check_doc()
        clip = doc["clips"][0]
        huge = 10**4_000
        if case == "variant":
            clip["variant"] = LONG
        elif case == "frame-label":
            frames, width = BenchConfig().context_frames, BenchConfig().num_classes + 1
            dists = [[1.0 / width] * width for _ in range(frames)]
            clip["segmentation"] = {"frame_dists": dists, "labels": [huge] + [0] * (frames - 1)}
        else:
            slot = {"gt_index": 0, "actionness": 1.0, "class_index": None, "class_multihot": None}
            slot["time"] = 0.5
            if case == "class-index":
                slot["class_index"] = huge
            else:
                slot["class_multihot"] = [huge] + [0] * 9
            clip["slots"][0] = slot
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["loss-check", str(bad)], capsys)
        self.assert_brief_error(code, out, err, bad, match)


#: Writes every output of the commands below into the directory named by argv[1].
_HASH_SEED_SCRIPT = """
import sys
from kickcast.cli import main

ann, out = sys.argv[1], sys.argv[2]
for argv in (
    ["prepare", ann, "--out", out + "/clips.json"],
    ["baseline", ann, "--kind", "prior", "--out", out + "/prior.json"],
    ["targets", ann, "--variant", "q-bce", "--out", out + "/targets.json"],
    ["evaluate", "--gt", out + "/clips.json", "--pred", out + "/prior.json",
     "--out", out + "/report.json"],
    ["evaluate", "--gt", out + "/clips.json", "--pred", out + "/prior.json",
     "--format", "csv", "--out", out + "/report.csv"],
):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Enum members hash by identity and strings by a per-process seed, so a
    # set or a hash-ordered walk would change the bytes between processes.
    outputs = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    for seed in ("1", "2024"):
        out = tmp_path / seed
        out.mkdir()
        env["PYTHONHASHSEED"] = seed
        argv = [sys.executable, "-c", _HASH_SEED_SCRIPT, str(FIXTURE_DIR), str(out)]
        subprocess.run(argv, env=env, check=True, timeout=120)
        outputs[seed] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(outputs["1"]) == [
        "clips.json", "prior.json", "report.csv", "report.json", "targets.json"
    ]
    assert outputs["1"] == outputs["2024"]


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_variant_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["targets", str(FIXTURE_DIR), "--variant", "zap", "--out", "x"])

    @pytest.mark.parametrize("command", ["prepare", "baseline"])
    @pytest.mark.parametrize("flag, value", [("--tc", "5"), ("--fps", "25")])
    def test_eval_commands_take_no_training_choices(self, tmp_path, capsys, command, flag, value):
        # The evaluation protocol fixes the context; only --ta shapes eval clips.
        kind = ["--kind", "oracle"] if command == "baseline" else []
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([command, str(FIXTURE_DIR), *kind, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestCollectorPause:
    """Commands run with the cyclic garbage collector paused, then hand its state back."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
    @pytest.mark.parametrize("outcome", ["success", "error", "usage"])
    def test_caller_state_restored(self, tmp_path, capsys, outcome, enabled):
        out = tmp_path / "clips.json"
        source = {"success": FIXTURE_DIR, "error": tmp_path / "missing.json"}.get(outcome)
        (gc.enable if enabled else gc.disable)()
        try:
            if source is None:
                with pytest.raises(SystemExit):
                    main(["prepare", "--bogus", "--out", str(out)])
            else:
                assert main(["prepare", str(source), "--out", str(out)]) == (
                    0 if outcome == "success" else 2
                )
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_collection_during_command(
        self, tmp_path, monkeypatch, clips_file, oracle_file, check_file, command
    ):
        name = "cmd_" + command.replace("-", "_")
        real, seen = getattr(cli, name), []

        def counted(args):
            before = [s["collections"] for s in gc.get_stats()]
            code = real(args)
            seen.append((gc.isenabled(), before, [s["collections"] for s in gc.get_stats()]))
            return code

        monkeypatch.setattr(cli, name, counted)
        argv = command_argv(command, clips_file, oracle_file, check_file)
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        [(enabled, before, after)] = seen
        assert not enabled
        assert after == before

    @pytest.mark.parametrize("command", ["prepare", "targets", "baseline", "evaluate"])
    def test_cycles_do_not_grow_with_the_corpus(self, tmp_path, command):
        # What the paused collector leaves for later must be a constant (the
        # parser's own cycles), not a cycle per game, clip or record.
        one = tmp_path / "one"
        one.mkdir()
        shutil.copy(FIXTURE_DIR / "game-alpha.json", one)
        freed = []
        for corpus in (one, FIXTURE_DIR):
            clips, preds = tmp_path / "clips.json", tmp_path / "preds.json"
            assert main(["prepare", str(corpus), "--out", str(clips)]) == 0
            assert main(["baseline", str(corpus), "--kind", "random", "--out", str(preds)]) == 0
            argv = {
                "prepare": ["prepare", str(corpus)],
                "targets": ["targets", str(corpus), "--variant", "q-bce"],
                "baseline": ["baseline", str(corpus), "--kind", "random"],
                "evaluate": ["evaluate", "--gt", str(clips), "--pred", str(preds)],
            }[command]
            gc.disable()  # so that nothing collects between the command and the count
            try:
                gc.collect()
                assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
                freed.append(gc.collect())
            finally:
                gc.enable()
        assert freed[1] <= freed[0]
