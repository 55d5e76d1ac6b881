"""End-to-end command line flows, exercised in process."""

from __future__ import annotations

import json
import shutil

import pytest

from kickcast.cli import main
from kickcast.fileio import read_eval_clips, read_predictions

from conftest import FIXTURE_DIR


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
    @pytest.fixture()
    def check_file(self, tmp_path):
        from kickcast.config import BenchConfig
        from kickcast.fileio import config_to_doc, dump_json

        cfg = BenchConfig()
        C = cfg.num_classes
        doc = {
            "format": "kickcast-loss-check",
            "version": 1,
            "config": config_to_doc(cfg),
            "clips": [
                {
                    "id": "demo",
                    "variant": "q-act",
                    "outputs": [
                        {"actionness": 0.5, "class_probs": [0.1] * C, "time_raw": -1.0}
                    ]
                    * cfg.queries,
                    "slots": [
                        {
                            "gt_index": None,
                            "actionness": 0.0,
                            "class_index": None,
                            "class_multihot": None,
                            "time": None,
                        }
                    ]
                    * cfg.queries,
                }
            ],
        }
        path = tmp_path / "check.json"
        path.write_text(dump_json(doc))
        return path

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


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_variant_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["targets", str(FIXTURE_DIR), "--variant", "zap", "--out", "x"])
