"""Deterministic serialization: round trips, validation, schemas, renderers."""

from __future__ import annotations

import json
import math
import random

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from kickcast.annotations import ActionClass, serialize_annotations
from kickcast.baselines import BaselineSpec, oracle_predictor
from kickcast.config import BenchConfig
from kickcast.fileio import (
    FORMAT_EVAL_CLIPS,
    FileFormatError,
    config_from_doc,
    config_to_doc,
    dump_json,
    eval_clips_to_doc,
    format_delta,
    iter_annotation_files,
    parse_delta,
    predictions_to_doc,
    read_eval_clips,
    read_loss_check,
    read_predictions,
    render_report_csv,
    render_report_json,
    render_report_md,
    report_to_doc,
    targets_to_doc,
    write_eval_clips,
    write_predictions,
    write_targets,
)
from kickcast.losses import SlotOutput
from kickcast.metrics import Prediction, evaluate
from kickcast.targets import HeadVariant, assign_for_variant

from conftest import REPO_ROOT, SCHEMA_DIR

CFG = BenchConfig()


@pytest.fixture(scope="module")
def schema_registry():
    resources = []
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


def validator_for(name, registry):
    doc = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    return Draft202012Validator(doc, registry=registry)


@pytest.fixture(scope="module")
def some_predictions(eval_clips):
    spec = BaselineSpec(kind="oracle", noise_std_s=0.4, drop_prob=0.1, seed=6)
    return oracle_predictor(eval_clips, spec)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = dump_json({"b": 1, "a": [2, 1]})
        assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dump_json({"x": math.nan})


class TestDeltaCodec:
    @pytest.mark.parametrize(
        "delta, text",
        [(1.0, "1"), (2.0, "2"), (math.inf, "inf"), (0.5, "0.5")],
    )
    def test_round_trip(self, delta, text):
        assert format_delta(delta) == text
        assert parse_delta(text) == delta

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_delta("soon")
        with pytest.raises(ValueError):
            parse_delta("-1")


class TestConfigCodec:
    def test_round_trip(self):
        for cfg in (BenchConfig(), BenchConfig(anticipation_s=10.0)):
            assert config_from_doc(config_to_doc(cfg)) == cfg

    def test_doc_is_flat_and_json_safe(self):
        doc = config_to_doc(CFG)
        json.dumps(doc)
        assert doc["anticipation_s"] == 5.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_classes", 3),
            ("num_classes", 12),
            ("anticipation_s", math.inf),
            ("context_s", math.nan),
            ("fps", math.inf),
            ("lambda_time", math.inf),
            ("anticipation_s", 0.0001),
            ("context_s", 0.0004),
            ("anticipation_s", 1e308),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(FileFormatError, match=field):
            config_from_doc({**config_to_doc(CFG), field: value})

    def test_huge_integer_rejected(self):
        with pytest.raises(FileFormatError, match="bad config"):
            config_from_doc({**config_to_doc(CFG), "context_s": 10**400})


class TestEvalClipsFile:
    def test_round_trip(self, tmp_path, eval_clips):
        path = tmp_path / "clips.json"
        write_eval_clips(path, eval_clips, CFG)
        loaded, cfg = read_eval_clips(path)
        assert cfg == CFG
        assert sorted(loaded, key=lambda c: c.clip_id) == sorted(
            eval_clips, key=lambda c: c.clip_id
        )

    def test_write_is_order_insensitive(self, tmp_path, eval_clips):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        shuffled = list(eval_clips)
        random.Random(3).shuffle(shuffled)
        write_eval_clips(a, eval_clips, CFG)
        write_eval_clips(b, shuffled, CFG)
        assert a.read_bytes() == b.read_bytes()

    def test_rewrites_are_byte_identical(self, tmp_path, eval_clips):
        path = tmp_path / "clips.json"
        write_eval_clips(path, eval_clips, CFG)
        first = path.read_bytes()
        loaded, cfg = read_eval_clips(path)
        write_eval_clips(path, loaded, cfg)
        assert path.read_bytes() == first

    def _doc(self, eval_clips):
        return eval_clips_to_doc(eval_clips[:3], CFG)

    def test_clip_id_mismatch_rejected(self, tmp_path, eval_clips):
        doc = self._doc(eval_clips)
        doc["clips"][0]["clip_id"] = "tampered"
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="does not match"):
            read_eval_clips(path)

    def test_wrong_format_rejected(self, tmp_path, eval_clips):
        doc = self._doc(eval_clips)
        doc["format"] = "something-else"
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="format"):
            read_eval_clips(path)

    def test_wrong_version_rejected(self, tmp_path, eval_clips):
        doc = self._doc(eval_clips)
        doc["version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="version"):
            read_eval_clips(path)

    def test_partial_flag_consistency_enforced(self, tmp_path, eval_clips):
        doc = self._doc(eval_clips)
        full = next(rec for rec in doc["clips"] if not rec["partial"])
        full["partial"] = True
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="partial"):
            read_eval_clips(path)

    def test_offset_outside_span_rejected(self, tmp_path, eval_clips):
        doc = eval_clips_to_doc(eval_clips, CFG)
        rec = next(r for r in doc["clips"] if r["gt_actions"])
        rec["gt_actions"][0]["offset_ms"] = 999_999
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="outside"):
            read_eval_clips(path)


class TestPredictionsFile:
    def test_round_trip(self, tmp_path, some_predictions):
        path = tmp_path / "preds.json"
        write_predictions(path, some_predictions)
        loaded = read_predictions(path)
        # identity on disk excludes the clamped flag
        want = sorted(
            (p.clip_id, p.label.value, p.time_s, p.confidence) for p in some_predictions
        )
        got = sorted((p.clip_id, p.label.value, p.time_s, p.confidence) for p in loaded)
        assert got == want

    def test_write_is_order_insensitive(self, tmp_path, some_predictions):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        shuffled = list(some_predictions)
        random.Random(17).shuffle(shuffled)
        write_predictions(a, some_predictions)
        write_predictions(b, shuffled)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_confidence_rejected(self, tmp_path):
        doc = predictions_to_doc([])
        doc["predictions"] = [
            {"clip_id": "c", "label": "Pass", "time_s": 1.0, "confidence": 2.0}
        ]
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="prediction #0"):
            read_predictions(path)


class TestTargetsFile:
    def test_doc_shape(self, eval_clips):
        pairs = [
            (c.clip_id, assign_for_variant(HeadVariant.Q_ACT, c.gt_actions, CFG))
            for c in eval_clips[:5]
        ]
        doc = targets_to_doc(pairs, CFG, HeadVariant.Q_ACT)
        assert doc["variant"] == "q-act"
        assert [r["clip_id"] for r in doc["clips"]] == sorted(
            r["clip_id"] for r in doc["clips"]
        )
        slot = doc["clips"][0]["slots"][0]
        assert set(slot) == {"gt_index", "actionness", "class_index", "class_multihot", "time"}

    def test_write_round_trip_bytes(self, tmp_path, eval_clips):
        pairs = [
            (c.clip_id, assign_for_variant(HeadVariant.ANCHORS, c.gt_actions, CFG))
            for c in eval_clips[:8]
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_targets(a, pairs, CFG, HeadVariant.ANCHORS)
        write_targets(b, list(reversed(pairs)), CFG, HeadVariant.ANCHORS)
        assert a.read_bytes() == b.read_bytes()


class TestLossCheckFile:
    def test_round_trip(self, tmp_path):
        C = CFG.num_classes
        doc = {
            "format": "kickcast-loss-check",
            "version": 1,
            "config": config_to_doc(CFG),
            "weights": [1.0] * C,
            "clips": [
                {
                    "id": "clip-0",
                    "variant": "q-act",
                    "outputs": [
                        {
                            "actionness": 0.5,
                            "class_probs": [1.0 / C] * C,
                            "time_raw": -1.0,
                        }
                    ]
                    * CFG.queries,
                    "slots": [
                        {
                            "gt_index": None,
                            "actionness": 0.0,
                            "class_index": None,
                            "class_multihot": None,
                            "time": None,
                        }
                    ]
                    * CFG.queries,
                    "segmentation": {
                        "frame_dists": [[1.0 / (C + 1)] * (C + 1)] * CFG.context_frames,
                        "labels": [0] * CFG.context_frames,
                    },
                }
            ],
        }
        path = tmp_path / "check.json"
        path.write_text(dump_json(doc))
        cfg, weights, entries = read_loss_check(path)
        assert cfg == CFG
        assert weights == (1.0,) * C
        clip_id, outputs, assignment, seg = entries[0]
        assert clip_id == "clip-0"
        assert len(outputs) == CFG.queries
        assert assignment.variant is HeadVariant.Q_ACT
        assert seg is not None and len(seg[0]) == CFG.context_frames

    def test_malformed_output_rejected(self, tmp_path):
        doc = {
            "format": "kickcast-loss-check",
            "version": 1,
            "clips": [{"id": "x", "variant": "q-act", "outputs": [{}], "slots": []}],
        }
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="clip #0"):
            read_loss_check(path)


class TestAnnotationDiscovery:
    def test_directory_expansion_sorted(self, fixture_paths):
        found = list(iter_annotation_files([fixture_paths[0].parent]))
        assert found == sorted(fixture_paths)

    def test_files_passed_through(self, fixture_paths):
        assert list(iter_annotation_files(fixture_paths)) == list(fixture_paths)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="no such file"):
            list(iter_annotation_files([tmp_path / "nope"]))

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="no .json files"):
            list(iter_annotation_files([tmp_path]))


@pytest.fixture(scope="module")
def report(eval_clips, some_predictions):
    return evaluate(eval_clips, some_predictions)


class TestReportRenderers:

    def test_json_doc_round_trips_floats(self, report):
        doc = json.loads(render_report_json(report))
        assert doc["format"] == "kickcast-report"
        assert doc["average_map"] == report.average
        assert doc["map"]["inf"] == report.map_at[math.inf]
        assert doc["clip_count"] == report.clip_count

    def test_csv_shape(self, report):
        lines = render_report_csv(report).splitlines()
        assert lines[0] == "delta,class,ap,tp,fp,gt"
        # 6 deltas * (10 classes + 1 mAP row) + header + average row
        assert len(lines) == 6 * 11 + 2
        assert lines[-1].startswith("all,average mAP,")

    def test_md_mentions_all_classes(self, report):
        text = render_report_md(report)
        for label in report.classes:
            assert f"| {label.value} |" in text
        assert "**mAP**" in text
        assert "Average mAP" in text

    def test_renderers_deterministic(self, report):
        for render in (render_report_json, render_report_csv, render_report_md):
            assert render(report) == render(report)

    def test_report_doc_keys_are_formatted_deltas(self, report):
        doc = report_to_doc(report)
        assert list(doc["map"]) == ["1", "2", "3", "4", "5", "inf"]


class TestSchemas:
    def test_all_schemas_are_valid(self, schema_registry):
        for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
            Draft202012Validator.check_schema(json.loads(path.read_text()))

    def test_fixture_annotations_validate(self, schema_registry, fixture_paths):
        validator = validator_for("annotations", schema_registry)
        for path in fixture_paths:
            validator.validate(json.loads(path.read_text()))

    def test_serialized_corpus_validates(self, schema_registry, raw_corpus):
        validator = validator_for("annotations", schema_registry)
        for game in raw_corpus:
            validator.validate(serialize_annotations(game))

    def test_eval_clips_doc_validates(self, schema_registry, eval_clips):
        validator = validator_for("eval-clips", schema_registry)
        validator.validate(eval_clips_to_doc(eval_clips, CFG))

    def test_predictions_doc_validates(self, schema_registry, some_predictions):
        validator = validator_for("predictions", schema_registry)
        validator.validate(predictions_to_doc(some_predictions))

    def test_targets_doc_validates(self, schema_registry, eval_clips):
        validator = validator_for("targets", schema_registry)
        for variant in (HeadVariant.Q_ACT, HeadVariant.Q_EOS, HeadVariant.Q_BCE):
            pairs = [
                (c.clip_id, assign_for_variant(variant, c.gt_actions, CFG))
                for c in eval_clips[:6]
            ]
            validator.validate(targets_to_doc(pairs, CFG, variant))

    def test_schema_rejects_bad_half(self, schema_registry):
        validator = validator_for("annotations", schema_registry)
        bad = {
            "gameId": "g",
            "split": "train",
            "annotations": [{"gameTime": "3 - 00:01", "label": "Pass"}],
        }
        assert not validator.is_valid(bad)

    def test_schema_rejects_wrong_format_tag(self, schema_registry, eval_clips):
        validator = validator_for("eval-clips", schema_registry)
        doc = eval_clips_to_doc(eval_clips[:1], CFG)
        doc["format"] = FORMAT_EVAL_CLIPS + "-not"
        assert not validator.is_valid(doc)
