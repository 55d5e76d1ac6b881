"""End-to-end command line flows, exercised in process."""

from __future__ import annotations

import json
import math
import shutil

import pytest

import kickcast.cli as cli
from kickcast.cli import main
from kickcast.config import MAX_QUERIES, BenchConfig
from kickcast.fileio import read_eval_clips, read_predictions

from conftest import FIXTURE_DIR, loss_check_doc


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(["prepare", str(FIXTURE_DIR), flag, value, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prepare", "targets", "baseline", "evaluate", "loss-check"])
    def test_unwritable_out(self, tmp_path, capsys, clips_file, oracle_file, check_file, command):
        out = tmp_path / "missing" / "out.json"
        argv = {
            "prepare": ["prepare", str(FIXTURE_DIR)],
            "targets": ["targets", str(FIXTURE_DIR), "--variant", "q-act"],
            "baseline": ["baseline", str(FIXTURE_DIR), "--kind", "oracle"],
            "evaluate": ["evaluate", "--gt", str(clips_file), "--pred", str(oracle_file)],
            "loss-check": ["loss-check", str(check_file)],
        }[command]
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert f"{out}: No such file or directory" in err

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
        ],
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

    def test_bad_prediction_clip_id(self, tmp_path, capsys, clips_file, oracle_file):
        doc = json.loads(oracle_file.read_text())
        doc["predictions"][0]["clip_id"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["evaluate", "--gt", str(clips_file), "--pred", str(bad)], capsys)
        self.assert_one_error_line(code, err)
        assert err.count(f"{bad}: prediction #0: ") == 1
        assert "clip_id must be a string" in err

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

        monkeypatch.setattr(cli, "_load_corpus", unreachable)
        out = tmp_path / "t.json"
        argv = ["targets", str(FIXTURE_DIR), "--variant", "q-act", "--queries", str(queries)]
        code, _, err = run([*argv, "--out", str(out)], capsys)
        self.assert_one_error_line(code, err)
        assert f"queries must be from 1 to {MAX_QUERIES}, got {queries}" in err
        assert not out.exists()

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


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_variant_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["targets", str(FIXTURE_DIR), "--variant", "zap", "--out", "x"])
