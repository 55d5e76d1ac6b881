"""Deterministic serialization: round trips, validation, schemas, renderers."""

from __future__ import annotations

import dataclasses
import enum
import itertools
import json
import math
import os
import random
import stat
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import kickcast.fileio as fileio
from kickcast.annotations import (
    ActionClass,
    AnnotationError,
    format_game_time,
    load_corpus,
    parse_annotations_dict,
    serialize_annotations,
)
from kickcast.baselines import BaselineSpec, run_baseline
from kickcast.config import MAX_HALF_MS, MAX_QUERIES, BenchConfig
from kickcast.fileio import (
    FORMAT_EVAL_CLIPS,
    FileFormatError,
    config_from_doc,
    config_to_doc,
    dump_json,
    format_delta,
    parse_delta,
    read_eval_clips,
    read_loss_check,
    read_predictions,
    render_report_csv,
    render_report_json,
    render_report_md,
    report_to_doc,
    write_eval_clips,
    write_json,
    write_predictions,
    write_targets,
)
from kickcast.losses import SlotOutput
from kickcast.metrics import Prediction, evaluate
from kickcast.targets import (
    BLANK,
    HEADS,
    ONE_HOT,
    UNCONSTRAINED,
    Assignment,
    HeadVariant,
    SlotTarget,
    assign_for_variant,
)
from kickcast.windowing import EvalClip, GtAction, make_train_clips, segmentation_targets

from conftest import REPO_ROOT, SCHEMA_DIR

CFG = BenchConfig()


class Mood(str, enum.Enum):
    CALM = "calm"


class Level(enum.IntEnum):
    HIGH = 3


class Ratio(float):
    def __repr__(self) -> str:
        return "Ratio()"


class Items(list):
    pass


class Table(dict):
    pass


def oracle_dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def file_text(write, *args):
    """The text of the file that ``write(path, *args)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        write(path, *args)
        with open(path, encoding="utf-8") as f:
            return f.read()


def file_doc(write, *args):
    """The document that ``write(path, *args)`` writes, as lists and dicts."""
    return json.loads(file_text(write, *args))


# Each writer's document as plain dicts and lists, written out field by field
# for the stdlib encoder to dump.


def plain_eval_clips_doc(clips, cfg):
    return {
        "format": "kickcast-eval-clips",
        "version": 1,
        "config": config_to_doc(cfg),
        "clips": [
            {
                "clip_id": c.clip_id,
                "game_id": c.game_id,
                "half": c.half,
                "context_start_ms": c.context_start_ms,
                "context_end_ms": c.context_end_ms,
                "anticipation_start_ms": c.anticipation_start_ms,
                "anticipation_end_ms": c.anticipation_end_ms,
                "partial": c.partial,
                "gt_actions": [
                    {"label": a.label.value, "offset_ms": a.offset_ms} for a in c.gt_actions
                ],
            }
            for c in sorted(clips, key=lambda c: (c.game_id, c.half, c.anticipation_start_ms))
        ],
    }


def plain_predictions_doc(predictions):
    ordered = sorted(
        predictions, key=lambda p: (p.clip_id, p.label.value, p.time_s, -p.confidence)
    )
    return {
        "format": "kickcast-predictions",
        "version": 1,
        "predictions": [
            {
                "clip_id": p.clip_id,
                "label": p.label.value,
                "time_s": p.time_s,
                "confidence": p.confidence,
            }
            for p in ordered
        ],
    }


def as_read(value):
    """A slot's actionness or time as the loss-check reader holds it: a float, or None."""
    return None if value is None else float(value)


def plain_targets_doc(pairs, cfg, variant):
    return {
        "format": "kickcast-targets",
        "version": 1,
        "config": config_to_doc(cfg),
        "variant": variant.value,
        "clips": [
            {
                "clip_id": clip_id,
                "truncated": a.truncated,
                "slots": [
                    {
                        "gt_index": s.gt_index,
                        "actionness": as_read(s.actionness),
                        "class_index": s.class_index,
                        "class_multihot": (
                            None if s.class_multihot is None else list(s.class_multihot)
                        ),
                        "time": as_read(s.time),
                    }
                    for s in a.slots
                ],
            }
            for clip_id, a in sorted(pairs, key=lambda p: p[0])
        ],
    }


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**64), 10**40]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, -1e16, 1e-7, 1.5]),
    st.text(),
    st.text(alphabet='"\\/[]{},:\x00\x1f\x7f\u00e9\u2028\U0001f600 '),
    st.sampled_from([Mood.CALM, Level.HIGH]),
)


def wrap_once(children):
    keys = st.one_of(st.text(max_size=6), st.sampled_from(["a", "b", "", "\x00", "\u00e9"]))
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    )


JSON_DOCS = st.recursive(JSON_SCALARS, wrap_once, max_leaves=30)


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
    return run_baseline(eval_clips, spec)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = dump_json({"b": 1, "a": [2, 1]})
        assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dump_json({"x": math.nan})

    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_matches_stdlib_indented_dump(self, doc):
        assert dump_json(doc) == oracle_dump(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_non_finite_rejected_at_any_depth(self, bad, data):
        doc = bad
        for _ in range(data.draw(st.integers(0, 5))):
            siblings = data.draw(st.lists(JSON_DOCS, max_size=3))
            at = data.draw(st.integers(0, len(siblings)))
            items = siblings[:at] + [doc] + siblings[at:]
            kind = data.draw(st.sampled_from(["list", "tuple", "dict"]))
            if kind == "dict":
                keys = data.draw(
                    st.lists(st.text(max_size=4), min_size=len(items), max_size=len(items), unique=True)
                )
                doc = dict(zip(keys, items))
            else:
                doc = items if kind == "list" else tuple(items)
        with pytest.raises(ValueError, match="not JSON compliant"):
            oracle_dump(doc)
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json(doc)

    def test_subclasses_render_as_their_base(self):
        doc = {Mood.CALM: [Mood.CALM, Level.HIGH, True], "n": Level.HIGH, "f": Ratio(0.5)}
        doc["l"] = Items([Ratio(1.5), Table(k=Items())])
        doc["d"] = Table(k=[Level.HIGH], j=Table())
        assert dump_json(doc) == oracle_dump(doc)
        assert dump_json(Table(doc)) == oracle_dump(doc)

    @pytest.mark.parametrize(
        "value", [object(), {1}, b"x", 1j], ids=["object", "set", "bytes", "complex"]
    )
    def test_unsupported_type_rejected(self, value):
        message = f"Object of type {type(value).__name__} is not JSON serializable"
        with pytest.raises(TypeError, match=message):
            oracle_dump({"k": [value]})
        with pytest.raises(TypeError, match=message):
            dump_json({"k": [value]})

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
        st.randoms(use_true_random=False),
        st.lists(JSON_SCALARS, min_size=8, max_size=8),
    )
    def test_one_key_set_at_several_depths(self, keys, rng, leaves):
        # One key set, inserted in a fresh order at every depth, so the encoder
        # meets the same keys at several depths and in several orders.
        values = itertools.cycle(leaves)

        def node(depth):
            # The first key in insertion order holds the next depth (inside a
            # list at odd depths); the others hold scalars.
            child = node(depth + 1) if depth < 4 else next(values)
            if depth % 2:
                child = [child]
            order = rng.sample(keys, len(keys))
            return {k: child if i == 0 else next(values) for i, k in enumerate(order)}

        doc = [node(0), {"wrap": node(1)}, node(0)]
        assert dump_json(doc) == oracle_dump(doc)


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

    @pytest.mark.parametrize(
        "text, error",
        [
            ("1_0", "bad tolerance '1_0'"),
            ("1_000.5", "bad tolerance '1_000.5'"),
            ("\u0661", "bad tolerance '\u0661'"),
            ("\uff15", "bad tolerance '\uff15'"),
            ("1e309", "tolerance '1e309' is too large; write inf for no bound"),
            # A long text is quoted cut to 80 characters.
            ("1" * 400, "tolerance '" + "1" * 79 + "... is too large; write inf for no bound"),
            ("x" * 300_000, "bad tolerance '" + "x" * 79 + "..."),
            ("1e-320", "tolerance must be at least 0.001 s (1 ms), got '1e-320'"),
            ("0.0009", "tolerance must be at least 0.001 s (1 ms), got '0.0009'"),
            ("0", "tolerance must be positive, got '0'"),
            ("-inf", "tolerance must be positive, got '-inf'"),
            ("nan", "tolerance must be positive, got 'nan'"),
        ],
        ids=[
            "separator", "separator-fraction", "arabic-indic-digit", "fullwidth-digit",
            "overflow", "long-overflow", "long-junk", "subnormal",
            "sub-millisecond", "zero", "minus-inf", "nan",
        ],
    )
    def test_parse_rejects_out_of_range(self, text, error):
        with pytest.raises(FileFormatError) as info:
            parse_delta(text)
        assert str(info.value) == error

    @pytest.mark.parametrize(
        "text, delta",
        [
            ("0.001", 0.001),
            ("1e-3", 0.001),
            ("1e308", 1e308),
            ("inf", math.inf),
            ("Infinity", math.inf),
            (" +INF ", math.inf),
            ("+infinity", math.inf),
        ],
    )
    def test_parse_accepts_the_bounds(self, text, delta):
        assert parse_delta(text) == delta


class TestConfigCodec:
    def test_round_trip(self):
        for cfg in (
            BenchConfig(),
            BenchConfig(anticipation_s=10.0),
            BenchConfig(context_s=3.333, anticipation_s=0.001),  # whole milliseconds
        ):
            assert config_from_doc(config_to_doc(cfg)) == cfg

    def test_millisecond_spans_follow_replace(self):
        # anticipation_ms and context_ms are kept once computed; replace
        # builds a new config, whose spans follow its own seconds.
        cfg = BenchConfig(context_s=3.333, anticipation_s=5.0)
        assert (cfg.context_ms, cfg.anticipation_ms) == (3333, 5000)
        other = dataclasses.replace(cfg, anticipation_s=10.0, context_s=0.25)
        assert (other.context_ms, other.anticipation_ms) == (250, 10000)
        assert (cfg.context_ms, cfg.anticipation_ms) == (3333, 5000)
        assert dataclasses.replace(other) == other
        # Not fields: a config document keeps its keys.
        assert config_to_doc(other).keys() == config_to_doc(BenchConfig()).keys()
        assert not {"anticipation_ms", "context_ms"} & config_to_doc(other).keys()

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
            ("anticipation_s", 5.0004),
            ("context_s", 2.00005),
            ("queries", -1),
            ("queries", MAX_QUERIES + 1),
            ("queries", 100_000_000),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(FileFormatError, match=field):
            config_from_doc({**config_to_doc(CFG), field: value})

    def test_huge_integer_rejected(self):
        with pytest.raises(FileFormatError, match="bad config"):
            config_from_doc({**config_to_doc(CFG), "context_s": 10**400})

    def test_queries_up_to_the_bound_accepted(self):
        cfg = config_from_doc({**config_to_doc(CFG), "queries": MAX_QUERIES})
        assert cfg.queries == MAX_QUERIES


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
        return file_doc(write_eval_clips, eval_clips[:3], CFG)

    @pytest.mark.parametrize(
        "key, value",
        [("clip_id", "tampered"), ("context_start_ms", 1), ("context_end_ms", 1)],
    )
    def test_clip_id_mismatch_rejected(self, tmp_path, eval_clips, key, value):
        doc = self._doc(eval_clips)
        doc["clips"][0][key] = value
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match=f"clip #0: {key} .* does not match derived"):
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
        doc = file_doc(write_eval_clips, eval_clips, CFG)
        rec = next(r for r in doc["clips"] if r["gt_actions"])
        rec["gt_actions"][0]["offset_ms"] = 999_999
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="outside"):
            read_eval_clips(path)

    GOOD = EvalClip("g", 1, 5000, 10000, False, (GtAction(ActionClass.PASS, 10),))

    @pytest.mark.parametrize(
        "bad, ta, error",
        [
            (GOOD._replace(partial=0), 5.0, "partial must be a boolean, got 0"),
            (GOOD._replace(half=True), 5.0, "half must be an integer, got True"),
            (
                GOOD._replace(gt_actions=(GtAction(ActionClass.PASS, True),)),
                5.0,
                "offset_ms must be an integer, got True",
            ),
            (GOOD, 10.0, "span of 5000 ms inconsistent with partial=False at T_a=10000 ms"),
            (GOOD._replace(half=3), 5.0, "half must be 1 or 2, got 3"),
            (
                GOOD._replace(anticipation_start_ms=-5000, anticipation_end_ms=0),
                5.0,
                "anticipation_start_ms must be >= 0, got -5000",
            ),
            (GOOD._replace(game_id=""), 5.0, "game_id must not be empty"),
        ],
        ids=["partial-0", "half-true", "offset-true", "ta-mismatch", "half-3", "negative-start",
             "empty-game-id"],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, bad, ta, error):
        # One rule set: the writer refuses the clip, leaving --out as it was,
        # and the reader refuses the record that holds it.
        cfg = BenchConfig(anticipation_s=ta)
        path = tmp_path / "clips.json"
        path.write_bytes(b"old bytes\n")
        with pytest.raises((TypeError, ValueError)) as info:
            write_eval_clips(path, [self.GOOD._replace(game_id="f"), bad], cfg)
        assert str(info.value) == error
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]
        path.write_text(oracle_dump(plain_eval_clips_doc([bad], cfg)))
        with pytest.raises(FileFormatError) as info:
            read_eval_clips(path)
        assert str(info.value) == f"{path}: clip #0: {error}"

    def test_writer_refuses_a_label_that_is_not_a_class(self, tmp_path):
        bad = self.GOOD._replace(gt_actions=(GtAction("Pass", 10),))
        with pytest.raises(TypeError, match="label must be an ActionClass, got 'Pass'"):
            write_eval_clips(tmp_path / "clips.json", [bad], CFG)
        assert list(tmp_path.iterdir()) == []


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
        doc = file_doc(write_predictions, [])
        doc["predictions"] = [
            {"clip_id": "c", "label": "Pass", "time_s": 1.0, "confidence": 2.0}
        ]
        path = tmp_path / "bad.json"
        path.write_text(dump_json(doc))
        with pytest.raises(FileFormatError, match="prediction #0"):
            read_predictions(path)

    @staticmethod
    def read_one(tmp_path, record):
        """The second prediction of a file whose first one is well formed."""
        good = '{"clip_id": "c", "label": "Pass", "time_s": 1.0, "confidence": 0.5}'
        path = tmp_path / "preds.json"
        path.write_text(
            '{"format": "kickcast-predictions", "version": 1, '
            f'"predictions": [{good}, {record}]}}'
        )
        return read_predictions(path)[1]

    @pytest.mark.parametrize(
        "time_s, confidence, want",
        [
            ("0", "1", (0.0, 1.0)),
            ("1", "0", (1.0, 0.0)),
            ("-0.0", "1.0", (-0.0, 1.0)),
            ("0.0", "-0.0", (0.0, -0.0)),
            ("1e308", "5e-324", (1e308, 5e-324)),
        ],
        ids=["ints", "ints-swapped", "negative-zero-time", "negative-zero-confidence", "extremes"],
    )
    def test_edge_numbers_accepted(self, tmp_path, time_s, confidence, want):
        fields = f'"time_s": {time_s}, "confidence": {confidence}'
        pred = self.read_one(tmp_path, f'{{"clip_id": "c", "label": "Pass", {fields}}}')
        assert type(pred) is Prediction
        assert pred == ("c", ActionClass.PASS, *want, False)
        assert [type(v) for v in pred] == [str, ActionClass, float, float, bool]
        assert [math.copysign(1.0, v) for v in pred[2:4]] == [math.copysign(1.0, v) for v in want]

    @pytest.mark.parametrize(
        "time_s, confidence, error",
        [
            ("NaN", "0.5", "prediction time nan must be finite and >= 0"),
            ("Infinity", "0.5", "prediction time inf must be finite and >= 0"),
            ("-Infinity", "0.5", "prediction time -inf must be finite and >= 0"),
            ("-0.5", "0.5", "prediction time -0.5 must be finite and >= 0"),
            ("1.0", "NaN", "confidence nan outside [0, 1]"),
            ("1.0", "Infinity", "confidence inf outside [0, 1]"),
            ("1.0", "1.5", "confidence 1.5 outside [0, 1]"),
            ("1.0", "-0.5", "confidence -0.5 outside [0, 1]"),
            ("NaN", "1.5", "prediction time nan must be finite and >= 0"),
        ],
        ids=[
            "nan-time", "inf-time", "minus-inf-time", "negative-time", "nan-confidence",
            "inf-confidence", "confidence-1.5", "negative-confidence", "time-before-confidence",
        ],
    )
    def test_out_of_range_rejected(self, tmp_path, time_s, confidence, error):
        fields = f'"time_s": {time_s}, "confidence": {confidence}'
        with pytest.raises(FileFormatError) as info:
            self.read_one(tmp_path, f'{{"clip_id": "c", "label": "Pass", {fields}}}')
        assert str(info.value) == f"{tmp_path / 'preds.json'}: prediction #1: {error}"

    @pytest.mark.parametrize(
        "record, error",
        [
            (
                '{"label": "Pass", "time_s": "2.5", "confidence": 0.5}',
                "time_s must be a number, got '2.5'",
            ),
            ('{"label": "Pass", "time_s": 2.5, "confidence": 0.5}', "missing field 'clip_id'"),
            (
                '{"clip_id": 7, "label": "Pass", "time_s": NaN, "confidence": 0.5}',
                "clip_id must be a string, got 7",
            ),
            (
                '{"clip_id": "c", "label": "Nope", "time_s": NaN, "confidence": 0.5}',
                "unknown label 'Nope'",
            ),
        ],
        ids=["time-before-missing-clip", "missing-clip", "clip-before-range", "label-before-range"],
    )
    def test_error_precedence(self, tmp_path, record, error):
        with pytest.raises(FileFormatError) as info:
            self.read_one(tmp_path, record)
        assert str(info.value) == f"{tmp_path / 'preds.json'}: prediction #1: {error}"

    def test_unknown_label_with_valid_numbers_rejected(self, tmp_path):
        record = '{"clip_id": "c", "label": "Nope", "time_s": 1.0, "confidence": 0.5}'
        with pytest.raises(FileFormatError) as info:
            self.read_one(tmp_path, record)
        assert str(info.value) == f"{tmp_path / 'preds.json'}: prediction #1: unknown label 'Nope'"

    def test_top_level_record_is_an_object_without_format(self, tmp_path):
        # A top-level object is reported by its format, even when it has
        # exactly the keys and values of a well-formed record.
        path = tmp_path / "preds.json"
        path.write_text('{"clip_id": "c", "label": "Pass", "time_s": 1.0, "confidence": 0.5}')
        with pytest.raises(FileFormatError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: format None, expected 'kickcast-predictions'"

    def test_predictions_of_a_clip_share_one_id(self, tmp_path, some_predictions):
        path = tmp_path / "preds.json"
        write_predictions(path, some_predictions)
        loaded = read_predictions(path)
        ids = {}
        for p in loaded:
            assert ids.setdefault(p.clip_id, p.clip_id) is p.clip_id
        assert 1 < len(ids) < len(loaded)

    @pytest.mark.parametrize("label", [7, ["Pass"], {"name": "Pass"}, None])
    def test_non_string_label_rejected(self, tmp_path, label):
        doc = file_doc(write_predictions, [])
        doc["predictions"] = [
            {"clip_id": "c", "label": label, "time_s": 1.0, "confidence": 0.5}
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
        doc = file_doc(write_targets, pairs, CFG, HeadVariant.Q_ACT)
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

    @pytest.mark.parametrize("ta", [5.0, 10.0])
    @pytest.mark.parametrize("variant", [v for v in HeadVariant if not HEADS[v].needs_outputs])
    def test_shared_slot_docs_match_fresh_dicts(self, corpus, variant, ta):
        cfg = BenchConfig(anticipation_s=ta)
        pairs = [
            (c.clip_id, assign_for_variant(variant, c.future_actions, cfg))
            for game in corpus
            for c in make_train_clips(game, cfg)[::7]
        ]
        fresh = plain_targets_doc(pairs, cfg, variant)
        assert file_text(write_targets, pairs, cfg, variant) == oracle_dump(fresh)

    def test_equal_slots_of_different_types_write_one_text(self):
        # SlotTarget(actionness=0) == SlotTarget(actionness=0.0), and the
        # loss-check reader holds both as 0.0: an int in a number field is
        # written as the float it reads back as.
        as_int = SlotTarget(gt_index=None, actionness=1, time=0)
        as_float = SlotTarget(gt_index=None, actionness=1.0, time=0.0)
        assert as_int == as_float
        slots = (as_int, as_int, as_float, as_float, as_int)
        pairs = [("c", Assignment(HeadVariant.Q_ACT, slots))]
        text = file_text(write_targets, pairs, CFG, HeadVariant.Q_ACT)
        written = json.loads(text)["clips"][0]["slots"]
        assert [(type(s["actionness"]), type(s["time"])) for s in written] == [(float, float)] * 5
        floats = [("c", Assignment(HeadVariant.Q_ACT, (as_float,) * 5))]
        assert text == file_text(write_targets, floats, CFG, HeadVariant.Q_ACT)

    @pytest.mark.parametrize(
        "hot",
        [
            ONE_HOT[3][:1] + ONE_HOT[3][1:],  # equal to ONE_HOT[3], another tuple
            list(ONE_HOT[3]),
            (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),  # not one-hot
            (0,) * 10,
        ],
        # hot2 was a boolean vector, which the writer now refuses: see
        # test_writer_refuses_fields_of_other_kinds[bool-multihot].
        ids=["hot0", "hot1", "hot3", "hot4"],
    )
    def test_multihot_text_is_shared_only_by_identity(self, hot):
        # The text of each ONE_HOT vector is encoded once and found by
        # identity: any other vector, equal or not, is encoded as it comes.
        assert hot is not ONE_HOT[3]
        slots = (
            SlotTarget(0, 1.0, None, ONE_HOT[3], 0.25),
            SlotTarget(1, 1.0, None, hot, 0.5),
            HEADS[HeadVariant.Q_BCE].unpaired,
        )
        pairs = [("c", Assignment(HeadVariant.Q_BCE, slots))]
        text = file_text(write_targets, pairs, CFG, HeadVariant.Q_BCE)
        assert text == oracle_dump(plain_targets_doc(pairs, CFG, HeadVariant.Q_BCE))
        written_hot = json.loads(text)["clips"][0]["slots"][1]["class_multihot"]
        assert [type(v) for v in written_hot] == [type(v) for v in hot]

    @pytest.mark.parametrize(
        "clip_id, slot, truncated, error",
        [
            ("c", SlotTarget(0, 1.0, None, tuple(map(bool, ONE_HOT[3])), 0.25),
             False, "class_multihot must be an integer, got False"),
            ("c", SlotTarget(0, 1.0, None, {0, 1}, 0.25), False,
             "class_multihot must be a list, got {0, 1}"),
            ("c", SlotTarget(Level.HIGH, 1.0, 3), False,
             "gt_index must be an integer, got <Level.HIGH: 3>"),
            ("c", SlotTarget(0, 1.0, True), False, "class_index must be an integer, got True"),
            ("c", SlotTarget(0, True, 3), False, "actionness must be a number, got True"),
            ("c", SlotTarget(0, 1.0, 3, None, Ratio(0.5)), False,
             "time must be a number, got Ratio()"),
            ("c", SlotTarget(0, 10**400, 3), False,
             "actionness is an integer too large for a float"),
            ("c", SlotTarget(0, 1.0, 3, None, "0.5"), False, "time must be a number, got '0.5'"),
            (7, BLANK, False, "clip_id must be a string, got 7"),
            ("c", BLANK, 0, "truncated must be a boolean, got 0"),
            ("c", SlotTarget(0, 2.0, 3), False, "actionness 2.0 outside [0, 1]"),
            ("c", SlotTarget(0, -0.5, 3), False, "actionness -0.5 outside [0, 1]"),
            ("c", SlotTarget(0, 1.0, 3, None, 1.0), False, "time 1.0 outside [0, 1)"),
            ("c", SlotTarget(0, 1.0, 3, None, 1), False, "time 1.0 outside [0, 1)"),
            ("c", SlotTarget(0, 1.0, 3, None, -0.25), False, "time -0.25 outside [0, 1)"),
            ("c", SlotTarget(-1, 1.0, 3), False, "gt_index -1 outside [0, inf]"),
            ("c", SlotTarget(0, 1.0, -1), False, "class_index -1 outside [0, 10]"),
            ("c", SlotTarget(0, 1.0, 11), False, "class_index 11 outside [0, 10]"),
            ("c", SlotTarget(0, 1.0, None, (0, 1, 5), 0.5), False,
             "class_multihot entry 5 is not 0 or 1"),
            ("c", SlotTarget(0, 1.0, None, [-1], 0.5), False,
             "class_multihot entry -1 is not 0 or 1"),
            ("", BLANK, False, "clip_id must not be empty"),
        ],
        ids=["bool-multihot", "set-multihot", "intenum-gt-index", "bool-class-index",
             "bool-actionness", "float-subclass-time", "huge-actionness", "string-time",
             "int-clip-id", "int-truncated", "actionness-2", "negative-actionness", "time-1",
             "int-time-1", "negative-time", "negative-gt-index", "negative-class-index",
             "class-index-past-sentinel", "multihot-5", "multihot-minus-1", "empty-clip-id"],
    )
    def test_writer_refuses_fields_of_other_kinds(self, tmp_path, clip_id, slot, truncated, error):
        # Each slot field is held to the kinds the loss-check slot reader
        # holds, and to the ranges of the targets schema (class indices up to
        # the sentinel C).
        path = tmp_path / "targets.json"
        path.write_bytes(b"old bytes\n")
        pairs = [(clip_id, Assignment(HeadVariant.Q_BCE, (slot, BLANK), truncated))]
        with pytest.raises((TypeError, ValueError)) as info:
            write_targets(path, pairs, CFG, HeadVariant.Q_BCE)
        assert str(info.value) == error
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_assignment_of_another_variant_refused(self, tmp_path, eval_clips):
        clip = next(c for c in eval_clips if c.gt_actions)
        assignment = assign_for_variant(HeadVariant.Q_ACT, clip.gt_actions, CFG)
        path = tmp_path / "targets.json"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(ValueError) as info:
            write_targets(path, [(clip.clip_id, assignment)], CFG, HeadVariant.Q_BCE)
        assert str(info.value) == (
            f"clip {clip.clip_id!r}: HeadVariant.Q_ACT targets in a HeadVariant.Q_BCE file"
        )
        assert path.read_bytes() == b"old bytes\n"

    def test_non_finite_slot_fails_cleanly(self, tmp_path):
        # The good records before the bad one overflow the write buffer, so the
        # temporary file holds bytes when the NaN is met.
        path = tmp_path / "targets.json"
        path.write_bytes(b"old bytes\n")
        paired = SlotTarget(gt_index=0, actionness=1.0, class_index=0, time=math.nan)
        pairs = [(f"c{k:04d}", Assignment(HeadVariant.Q_ACT, (BLANK,) * 8)) for k in range(2000)]
        pairs.append(("d", Assignment(HeadVariant.Q_ACT, (paired,) + (BLANK,) * 7)))
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_targets(path, pairs, CFG, HeadVariant.Q_ACT)
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]


#: Ids with the text a %-template or a JSON string could trip on.
RECORD_IDS = st.one_of(
    st.sampled_from(["a", "a0", "a:1", "%", "%s", "%%", "%(x)s", '"', "\\", "\u00e9", ":"]),
    st.text(alphabet='%s()"\\:a0\u00e9\u2028\U0001f600 ', max_size=8),
    st.text(max_size=6),
)
ALL_LABELS = list(ActionClass)
LABELS = st.sampled_from(ALL_LABELS)
#: A slot number field: an int or a float (each held, and written, as a float), or None.
SLOT_NUMBERS = st.one_of(
    st.none(),
    st.integers(-3, 2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0]),
)
#: Slot number fields in the targets schema's ranges: actionness in [0, 1], time in [0, 1).
ACTIONNESS = st.one_of(st.none(), st.sampled_from([0, 0.0, -0.0, 1, 1.0]), st.floats(0.0, 1.0))
TIMES = st.one_of(st.none(), st.sampled_from([0, 0.0, -0.0]), st.floats(0.0, 1.0, exclude_max=True))


def eval_clips_at(ta: float):
    """``(ta, clips)``: eval clips that a file at T_a = ``ta`` s holds, each full or ``partial``."""
    ta_ms = round(ta * 1000)

    def clip(game_id, half, start, span, actions):
        actions = tuple(GtAction(label, offset % span) for label, offset in actions)
        return EvalClip(game_id, half, start, start + span, span < ta_ms, actions)

    clips = st.builds(
        clip,
        RECORD_IDS.filter(bool),
        st.integers(1, 2),
        st.integers(0, 10**7),
        st.one_of(st.just(ta_ms), st.integers(1, ta_ms)),
        st.lists(st.tuples(LABELS, st.integers(0, 9_999)), max_size=3),
    )
    return st.tuples(st.just(ta), st.lists(clips, max_size=6))


EVAL_CLIPS = st.sampled_from([5.0, 10.0]).flatmap(eval_clips_at)
#: Eval clips of any span and ``partial`` flag, some with a half, a start, an
#: offset or a field kind that an eval-clips file refuses.
ANY_EVAL_CLIPS = st.builds(
    lambda game_id, half, start, span, partial, actions: EvalClip(
        game_id, half, start, start + span, partial, tuple(actions)
    ),
    RECORD_IDS,
    st.sampled_from([1, 2, 0, 3, True]),
    st.one_of(st.integers(0, 10**7), st.just(-5000)),
    st.integers(-1, 10_000),
    st.sampled_from([False, True, 0, 1]),
    st.lists(
        st.builds(GtAction, LABELS, st.one_of(st.integers(-1, 10_000), st.just(True))),
        max_size=3,
    ),
)
#: A prediction's time and confidence: a float or an int (each held, and
#: written, as a float).
PREDICTIONS = st.builds(
    Prediction,
    RECORD_IDS,
    LABELS,
    st.one_of(
        st.sampled_from([0, 1, 0.0, -0.0, 1.0]),
        st.integers(0, 10**6),
        st.floats(0.0, 1e6),
    ),
    st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 0.5]), st.floats(0.0, 1.0)),
)
#: 145 predictions of one clip, nine to each (label, time_s), so confidence
#: alone orders them, or input order on a full tie: 1.0 and 1, 0 and 0.0.
#: The id holds text a %-template or a JSON string could trip on.
ONE_CLIP = [
    Prediction('a"\\%s\u00e9:1', ALL_LABELS[k % 4], float(k // 12), conf)
    for k in range(48)
    for conf in (0.25, 0.75, 1.0 if k % 5 else 1)
] + [Prediction('a"\\%s\u00e9:1', ALL_LABELS[0], 0, 0.5)]


def slot_targets(actionness, time, lowest, bits):
    """The shared slots, and slots of ``actionness`` and ``time`` draws, indices from
    ``lowest`` up and multi-hot entries from ``bits``."""
    return st.one_of(
        st.sampled_from([BLANK, UNCONSTRAINED, *(head.unpaired for head in HEADS.values())]),
        st.builds(
            SlotTarget,
            gt_index=st.one_of(st.none(), st.integers(lowest, 20)),
            actionness=actionness,
            class_index=st.one_of(st.none(), st.integers(lowest, 10)),
            class_multihot=st.one_of(
                st.none(),
                st.just(()),
                st.sampled_from(ONE_HOT),
                st.sampled_from(ONE_HOT).map(list),  # equal values, other objects
                st.lists(st.sampled_from(bits), max_size=10).map(tuple),
            ),
            time=time,
        ),
    )


#: Slots a targets file holds, and slots with values out of its schema's ranges too.
SLOTS = slot_targets(ACTIONNESS, TIMES, 0, [0, 1])
ANY_SLOTS = slot_targets(SLOT_NUMBERS, SLOT_NUMBERS, -2, [0, 1, 0, 1, 2, -1])


def assignments_of(variant: HeadVariant, ids=RECORD_IDS.filter(bool), slots=SLOTS):
    """``(variant, pairs)``: (clip id, assignment) pairs of ``variant``."""
    pair = st.tuples(
        ids,
        st.builds(
            lambda slots, truncated: Assignment(variant, tuple(slots), truncated),
            st.lists(slots, max_size=6),
            st.booleans(),
        ),
    )
    return st.tuples(st.just(variant), st.lists(pair, max_size=6))


ASSIGNMENTS = st.sampled_from(list(HeadVariant)).flatmap(assignments_of)
ANY_ASSIGNMENTS = st.sampled_from(list(HeadVariant)).flatmap(
    lambda variant: assignments_of(variant, RECORD_IDS, ANY_SLOTS)
)


class TestWriterBytes:
    """Each writer's file holds the stdlib encoder's text of the same document as plain dicts.

    A document with no records is always one of the cases: its record list is
    written ``[]``, as the stdlib writes an empty list.
    """

    @settings(max_examples=150, deadline=None)
    @given(EVAL_CLIPS)
    @example(drawn=(5.0, []))
    def test_eval_clips(self, drawn):
        ta, clips = drawn
        cfg = BenchConfig(anticipation_s=ta)
        text = file_text(write_eval_clips, clips, cfg)
        assert text == oracle_dump(plain_eval_clips_doc(clips, cfg))
        assert file_text(write_eval_clips, clips, cfg) == text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_EVAL_CLIPS, min_size=1, max_size=3), st.sampled_from([5.0, 10.0]))
    def test_eval_clips_writer_refuses_what_the_reader_refuses(self, clips, ta):
        # The writer refuses a list of clips exactly when the reader refuses
        # the document of them as plain dicts.
        cfg = BenchConfig(anticipation_s=ta)
        plain = oracle_dump(plain_eval_clips_doc(clips, cfg))
        try:
            written = file_text(write_eval_clips, clips, cfg)
        except (TypeError, ValueError):
            written = None
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "clips.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(plain)
            if written is None:
                with pytest.raises(FileFormatError):
                    read_eval_clips(path)
            else:
                assert written == plain
                read_eval_clips(path)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(PREDICTIONS, max_size=8))
    @example(predictions=[])
    @example(predictions=ONE_CLIP[::-1])
    def test_predictions(self, predictions):
        text = file_text(write_predictions, predictions)
        assert text == oracle_dump(plain_predictions_doc(predictions))
        assert file_text(write_predictions, predictions) == text

    @settings(max_examples=150, deadline=None)
    @given(ASSIGNMENTS)
    @example(drawn=(HeadVariant.Q_BCE, []))
    def test_targets(self, drawn):
        # The plain document holds each slot's values as the loss-check reader would.
        variant, pairs = drawn
        text = file_text(write_targets, pairs, CFG, variant)
        assert text == oracle_dump(plain_targets_doc(pairs, CFG, variant))
        assert file_text(write_targets, pairs, CFG, variant) == text

    @settings(max_examples=200, deadline=None)
    @given(ANY_ASSIGNMENTS)
    def test_targets_writer_refuses_what_the_schema_refuses(self, schema_registry, drawn):
        # Empty ids, negative indices, numbers out of [0, 1] and multi-hot
        # entries other than 0 and 1 among the draws: the writer refuses the
        # pairs exactly when the schema refuses their plain document.
        variant, pairs = drawn
        plain = plain_targets_doc(pairs, CFG, variant)
        try:
            written = file_text(write_targets, pairs, CFG, variant)
        except ValueError:
            written = None
        valid = validator_for("targets", schema_registry).is_valid(plain)
        assert valid == (written is not None)
        if valid:
            assert written == oracle_dump(plain)


class TestPredictionsReWrite:
    """A predictions file reads back as what was written, and writes again as the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(PREDICTIONS, max_size=8))
    @example(predictions=[])
    @example(predictions=[Prediction("c", ActionClass.PASS, 3, 1)])
    @example(predictions=ONE_CLIP[::-1])
    def test_read_then_write_again(self, predictions):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
            write_predictions(first, predictions)
            read = read_predictions(first)
            write_predictions(second, read)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        in_file_order = sorted(
            predictions, key=lambda p: (p.clip_id, p.label.value, p.time_s, -p.confidence)
        )
        # A file holds no clamp flag, and reads each as False.
        assert [p[:4] for p in read] == [p[:4] for p in in_file_order]
        assert not any(p.time_clamped for p in read)
        for p in predictions + read:
            assert [type(v) for v in p[:4]] == [str, ActionClass, float, float]


def read_plain(path):
    """The predictions reader without its object hook: the whole document as
    dicts, then :func:`fileio._prediction` of each record."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return fileio._read_records(doc, "predictions", path, "prediction", fileio._prediction)


def outcome(read, path):
    """What ``read(path)`` gives: each field of each record with its type and repr, or its error."""
    try:
        return [[(type(v), repr(v)) for v in p] for p in read(path)]
    except FileFormatError as exc:
        return str(exc)


#: Clip ids, with non-ASCII text and JSON escapes among them.
READ_IDS = st.sampled_from(
    ["a:1:0000000", "a:1:0005000", "\u00e9t\u00e9:2", '"\\', "\U0001f600", ""]
)
#: Label spellings: the file's own, other spellings parse_label knows, unknown ones.
LABEL_SPELLINGS = st.sampled_from(["Pass", "Drive", "PASS", "pass", "succesful_tackle", "Nope", ""])
#: Values a record field should not hold, a well-formed record nested in an
#: extra field among them.
ODD_VALUES = st.sampled_from([None, True, "0.5", [], {}, 2**70, math.nan, math.inf, -0.5, 1.5])
NESTED = {"clip_id": "n", "label": "Pass", "time_s": 0.0, "confidence": 0.5}


@st.composite
def prediction_records(draw):
    """A record of a predictions document, well formed or not, its keys in any order."""
    rec = {
        "clip_id": draw(READ_IDS),
        "label": draw(LABEL_SPELLINGS),
        "time_s": draw(st.one_of(st.floats(0.0, 1e6), st.sampled_from([0, 3, -0.0, 1e308]))),
        "confidence": draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0, 5e-324]))),
    }
    if draw(st.integers(0, 9)) == 0:
        key = draw(st.sampled_from(sorted(rec)))
        if draw(st.booleans()):
            del rec[key]
        else:
            rec[key] = draw(ODD_VALUES)
    if draw(st.integers(0, 4)) == 0:
        rec["extra"] = draw(st.one_of(ODD_VALUES, st.just(NESTED)))
    if draw(st.integers(0, 29)) == 0:
        return draw(st.sampled_from([[], "x", 5, None]))
    return {key: rec[key] for key in draw(st.permutations(list(rec)))}


class TestPredictionsReader:
    """The reader gives what the document's dicts give record by record:
    the same predictions of the same types, or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(prediction_records(), max_size=12),
        st.sampled_from(["canonical", "one-line", "one-line-utf8"]),
    )
    @example(records=[NESTED, {**NESTED, "extra": NESTED}], layout="one-line")
    def test_equals_the_per_record_reference(self, records, layout):
        doc = {"format": "kickcast-predictions", "version": 1, "predictions": records}
        text = {
            "canonical": lambda: json.dumps(doc, indent=2, sort_keys=True),
            "one-line": lambda: json.dumps(doc),
            "one-line-utf8": lambda: json.dumps(doc, ensure_ascii=False),
        }[layout]()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "preds.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            assert outcome(read_predictions, path) == outcome(read_plain, path)

    def test_peak_is_below_the_reference_path(self, tmp_path):
        # Records are built as the parser closes them, so the document's dicts
        # are never all alive at once.
        predictions = [
            Prediction(f"g:1:{k // 80:07d}", ALL_LABELS[k % 10], k % 80 * 0.0625, (k % 997) / 997)
            for k in range(20_000)
        ]
        path = tmp_path / "preds.json"
        write_predictions(path, predictions)
        peaks = {}
        for read in (read_plain, read_predictions):
            tracemalloc.start()
            try:
                records = read(path)
                _, peaks[read] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(records) == 20_000
            del records
        assert peaks[read_predictions] < 0.75 * peaks[read_plain], peaks


class TestTargetsMemory:
    def test_write_peak_is_a_fraction_of_the_file(self, corpus, tmp_path):
        # Records are encoded and written one at a time, so neither the whole
        # document nor its text is ever held at once.
        cfg = BenchConfig()
        pairs = [
            (c.clip_id, assign_for_variant(HeadVariant.Q_BCE, c.future_actions, cfg))
            for game in corpus
            for c in make_train_clips(game, cfg)[::4]
        ]
        path = tmp_path / "targets.json"
        tracemalloc.start()
        try:
            write_targets(path, pairs, cfg, HeadVariant.Q_BCE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 2, (peak, size)


class TestPredictionsMemory:
    def test_write_peak_is_a_fraction_of_the_file(self, eval_clips, tmp_path):
        # Predictions are encoded and written one at a time, like targets, and
        # sorted with key tuples for one clip at a time.
        predictions = run_baseline(eval_clips, BaselineSpec(kind="random", per_clip=20))
        path = tmp_path / "preds.json"
        tracemalloc.start()
        try:
            write_predictions(path, predictions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 2, (peak, size)


class TestOutputFile:
    """``write_json`` replaces its output only when the whole document is written."""

    DOC = {"format": "x", "records": [{"k": 1.5}, {"k": None}]}

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes\n")
        # The document is encoded whole before the file is opened; a writer
        # that fails part way is TestTargetsFile.test_non_finite_slot_fails_cleanly.
        doc = {"records": [{"k": "x" * 600_000}, {"k": math.nan}]}
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, doc)
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_creates_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "out.json", {"records": [{"k": 1}, {"k": math.inf}]})
        assert list(tmp_path.iterdir()) == []

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "out.json"
        old = os.umask(0o027)
        try:
            write_json(path, self.DOC)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == dump_json(self.DOC)

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_json(link, self.DOC)
        assert link.is_symlink()
        assert target.read_text() == dump_json(self.DOC)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.json", "out.json", "real"]

    def test_fifo_is_written_not_replaced(self, tmp_path, eval_clips):
        regular, fifo = tmp_path / "clips.json", tmp_path / "clips.fifo"
        write_eval_clips(regular, eval_clips, CFG)  # larger than a pipe's buffer
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as f:
                received.append(f.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        write_eval_clips(fifo, eval_clips, CFG)
        reader.join(timeout=10)
        if reader.is_alive():  # the writer never opened the FIFO: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert received == [regular.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo, regular]


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
    def test_directory_expansion_sorted(self, fixture_paths, corpus):
        found = load_corpus([fixture_paths[0].parent])
        assert found == corpus  # the fixture games, in sorted path order

    def test_files_passed_through(self, fixture_paths, corpus):
        assert load_corpus(fixture_paths) == corpus

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="no such file"):
            load_corpus([tmp_path / "nope"])

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="no .json files"):
            load_corpus([tmp_path])


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


class Recorder(dict):
    """A JSON object that logs each key looked up in it, with the object's path.

    Lookups by ``[]`` are logged as indexed, lookups by ``get`` as optional.
    """

    def __init__(self, items, path, log):
        super().__init__(items)
        self.path, self.log = path, log

    def __getitem__(self, key):
        self.log.append((self.path, key, True))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.append((self.path, key, False))
        return super().get(key, default)


def recording(value, log, path=()):
    """``value`` with every object a :class:`Recorder`; list items add ``*`` to the path."""
    if isinstance(value, dict):
        return Recorder({k: recording(v, log, (*path, k)) for k, v in value.items()}, path, log)
    if isinstance(value, list):
        return [recording(v, log, (*path, "*")) for v in value]
    return value


def resolved(schema, resolver):
    while "$ref" in schema:
        found = resolver.lookup(schema["$ref"])
        schema, resolver = found.contents, found.resolver
    return schema, resolver


def schema_at(root, registry, path):
    """The schema of the value at ``path`` (keys, ``*`` for list items) and its resolver."""
    schema, resolver = resolved(root, registry.resolver(base_uri=root["$id"]))
    for step in path:
        schema = schema["items"] if step == "*" else schema["properties"][step]
        schema, resolver = resolved(schema, resolver)
    return schema, resolver


JSON_TYPES = {
    bool: "boolean",
    int: "integer",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}


def admitted_types(schema):
    """JSON types a schema admits, from its ``type`` or the values of its ``enum``."""
    if "type" in schema:
        return {schema["type"]} if isinstance(schema["type"], str) else set(schema["type"])
    return {JSON_TYPES[type(v)] for v in schema["enum"]}


def number_fields(doc, root, registry):
    """Path of one value at each place the schema types ``number``, keyed by its schema path.

    Only the first item of each list is visited: the items of a list share a schema.
    """
    found = {}

    def visit(value, path, where):
        schema, _ = schema_at(root, registry, where)
        types = schema.get("type", ())
        if "number" in ((types,) if isinstance(types, str) else types):
            found[where] = path
        if isinstance(value, dict):
            for key, child in value.items():
                visit(child, (*path, key), (*where, key))
        elif isinstance(value, list) and value:
            visit(value[0], (*path, 0), (*where, "*"))

    visit(doc, (), ())
    return found


@pytest.fixture(scope="module")
def full_loss_check_doc(corpus):
    """A loss-check document that sets every field the reader knows."""
    clip = next(
        c for game in corpus for c in make_train_clips(game, CFG) if len(c.future_actions) >= 2
    )
    grid = segmentation_targets(clip, CFG)
    C = CFG.num_classes
    records = []
    for variant in (HeadVariant.Q_ACT, HeadVariant.Q_EOS, HeadVariant.Q_BCE):
        assignment = assign_for_variant(variant, clip.future_actions, CFG)
        width = C + HEADS[variant].sentinel
        doc = file_doc(write_targets, [(clip.clip_id, assignment)], CFG, variant)
        slots = doc["clips"][0]["slots"]
        output = {"actionness": 0.5, "class_probs": [1.0 / width] * width, "time_raw": -1.0}
        records.append(
            {
                "id": variant.value,
                "variant": variant.value,
                "outputs": [output] * CFG.queries,
                "slots": slots,
                "truncated": assignment.truncated,
                "segmentation": {
                    "frame_dists": [[1.0 / (C + 1)] * (C + 1)] * len(grid.labels),
                    "labels": list(grid.labels),
                },
            }
        )
    return json.loads(
        dump_json(
            {
                "format": "kickcast-loss-check",
                "version": 1,
                "config": config_to_doc(CFG),
                "weights": [1.0] * C,
                "clips": records,
            }
        )
    )


class TestSchemas:
    @pytest.mark.parametrize("name", ["eval-clips", "predictions", "loss-check"])
    def test_readers_agree_with_schemas(
        self, name, schema_registry, eval_clips, some_predictions, full_loss_check_doc,
        tmp_path, monkeypatch,
    ):
        doc, read = {
            "eval-clips": (file_doc(write_eval_clips, eval_clips, CFG), read_eval_clips),
            "predictions": (file_doc(write_predictions, some_predictions), read_predictions),
            "loss-check": (full_loss_check_doc, read_loss_check),
        }[name]
        if name == "predictions":
            # An integer time takes the reader's checked path, which types
            # every field; the well-formed records skip it.
            doc["predictions"].append({**doc["predictions"][0], "time_s": 0})
        validator_for(name, schema_registry).validate(doc)
        lookups, typed = [], set()
        load, exact = fileio._load, fileio.exact

        def spy(value, kind, field, nullable=False):
            typed.add((field, kind, nullable))
            return exact(value, kind, field, nullable)

        monkeypatch.setattr(fileio, "_load", lambda *args: recording(load(*args), lookups))
        monkeypatch.setattr(fileio, "exact", spy)
        path = tmp_path / "doc.json"
        path.write_text(dump_json(doc))
        read(path)

        assert lookups
        root = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
        for where, key, indexed in lookups:
            schema, _ = schema_at(root, schema_registry, where)
            if indexed:
                assert key in schema.get("required", ()), (where, key)
        for field, kind, nullable in typed:
            props = [
                resolved(schema["properties"][key], resolver)[0]
                for schema, resolver, key in (
                    (*schema_at(root, schema_registry, where), key)
                    for where, key, _ in lookups
                    if key == field
                )
            ]
            assert props, field
            want = {JSON_TYPES[kind]} | ({"null"} if nullable else set())
            for prop in props:
                types = admitted_types(prop)
                if "array" in types - want:  # the field is a list of such values
                    assert types <= {"array", "null"}, field
                    types = admitted_types(prop["items"])
                assert types == want, (field, types)

    @pytest.mark.parametrize("bad", [True, "1", 10**400], ids=["true", "string", "huge-int"])
    @pytest.mark.parametrize("name", ["eval-clips", "predictions", "loss-check"])
    def test_number_fields_take_only_numbers_that_fit_a_float(
        self, name, bad, schema_registry, eval_clips, some_predictions, full_loss_check_doc,
        tmp_path,
    ):
        doc, read = {
            "eval-clips": (file_doc(write_eval_clips, eval_clips, CFG), read_eval_clips),
            "predictions": (file_doc(write_predictions, some_predictions), read_predictions),
            "loss-check": (full_loss_check_doc, read_loss_check),
        }[name]
        root = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
        fields = number_fields(doc, root, schema_registry)
        config = {"context_s", "anticipation_s", "fps"} | {f for f in CFG.__dict__ if "lambda" in f}
        expected = {
            "eval-clips": config,
            "predictions": {"time_s", "confidence"},
            "loss-check": config
            | {"weights", "actionness", "class_probs", "time_raw", "time", "frame_dists"},
        }[name]
        names = {next(step for step in reversed(where) if step != "*") for where in fields}
        assert names == expected
        path = tmp_path / "doc.json"
        for where, at in fields.items():
            broken = json.loads(json.dumps(doc))
            parent = broken
            for step in at[:-1]:
                parent = parent[step]
            parent[at[-1]] = bad
            path.write_text(json.dumps(broken))
            with pytest.raises(FileFormatError):
                read(path)

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
        validator.validate(file_doc(write_eval_clips, eval_clips, CFG))

    def test_predictions_doc_validates(self, schema_registry, some_predictions):
        validator = validator_for("predictions", schema_registry)
        validator.validate(file_doc(write_predictions, some_predictions))

    def test_targets_doc_validates(self, schema_registry, eval_clips):
        validator = validator_for("targets", schema_registry)
        for variant in (v for v in HeadVariant if not HEADS[v].needs_outputs):
            pairs = [
                (c.clip_id, assign_for_variant(variant, c.gt_actions, CFG))
                for c in eval_clips[:6]
            ]
            validator.validate(file_doc(write_targets, pairs, CFG, variant))

    def test_schema_rejects_bad_half(self, schema_registry):
        validator = validator_for("annotations", schema_registry)
        bad = {
            "gameId": "g",
            "split": "train",
            "annotations": [{"gameTime": "3 - 00:01", "label": "Pass"}],
        }
        assert not validator.is_valid(bad)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("halfDurationsMs", {"1": 9000, "01": 20000}),
            ("position", "1_0000"),
            ("position", " +10000 "),
            ("gameTime", "\u0661 - 00:10"),  # an Arabic-Indic digit one
            ("gameTime", "01 - 00:10"),
        ],
    )
    def test_annotation_reader_rejects_what_the_schema_rejects(self, schema_registry, key, value):
        validator = validator_for("annotations", schema_registry)
        record = {"gameTime": "1 - 00:10", "position": 10000, "label": "Pass"}
        doc = {"gameId": "g", "split": "train", "annotations": [record]}
        validator.validate(doc)
        parse_annotations_dict(doc)
        (doc if key == "halfDurationsMs" else record)[key] = value
        assert not validator.is_valid(doc)
        with pytest.raises(AnnotationError):
            parse_annotations_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("half", 3), ("anticipation_start_ms", -5000), ("game_id", "")],
    )
    def test_eval_clips_reader_rejects_what_the_schema_rejects(
        self, schema_registry, tmp_path, field, value
    ):
        validator = validator_for("eval-clips", schema_registry)
        path = tmp_path / "clips.json"
        good = EvalClip("g", 1, 5000, 10000, False, (GtAction(ActionClass.PASS, 10),))
        doc = plain_eval_clips_doc([good], CFG)
        validator.validate(doc)
        path.write_text(oracle_dump(doc))
        read_eval_clips(path)
        # The clip id and context span of the plain document follow the changed field.
        doc = plain_eval_clips_doc([good._replace(**{field: value})], CFG)
        assert not validator.is_valid(doc)
        path.write_text(oracle_dump(doc))
        with pytest.raises(FileFormatError, match=f"clip #0: {field} must"):
            read_eval_clips(path)

    @pytest.mark.parametrize("over", [0, 1], ids=["2h", "2h+1ms"])
    @pytest.mark.parametrize("where", ["duration", "position"])
    def test_half_length_limit(self, schema_registry, where, over):
        validator = validator_for("annotations", schema_registry)
        ms = MAX_HALF_MS + over
        doc = {"gameId": "g", "annotations": []}
        if where == "duration":
            doc["halfDurationsMs"] = {"1": ms}
            match = f"half duration must be at most {MAX_HALF_MS} ms, got {ms}"
        else:
            record = {"gameTime": format_game_time(1, ms), "position": ms, "label": "Pass"}
            doc["annotations"].append(record)
            match = f"time {ms} ms exceeds the longest half, {MAX_HALF_MS} ms"
        assert validator.is_valid(doc) is not over
        if over:
            with pytest.raises(AnnotationError, match=match):
                parse_annotations_dict(doc)
        else:
            parse_annotations_dict(doc)

    def test_schema_rejects_wrong_format_tag(self, schema_registry, eval_clips):
        validator = validator_for("eval-clips", schema_registry)
        doc = file_doc(write_eval_clips, eval_clips[:1], CFG)
        assert validator.is_valid(doc)
        doc["format"] = FORMAT_EVAL_CLIPS + "-not"
        assert not validator.is_valid(doc)
