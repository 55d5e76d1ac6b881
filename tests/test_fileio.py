"""Deterministic serialization: round trips, validation, schemas, renderers."""

from __future__ import annotations

import enum
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import kickcast.fileio as fileio
from kickcast.annotations import (
    ActionClass,
    AnnotationError,
    parse_annotations_dict,
    serialize_annotations,
)
from kickcast.baselines import BaselineSpec, oracle_predictor
from kickcast.config import MAX_QUERIES, BenchConfig
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
from kickcast.targets import HEADS, Assignment, HeadVariant, SlotTarget, assign_for_variant
from kickcast.windowing import make_train_clips, segmentation_targets

from conftest import REPO_ROOT, SCHEMA_DIR

CFG = BenchConfig()


class Mood(str, enum.Enum):
    CALM = "calm"


class Level(enum.IntEnum):
    HIGH = 3


class Ratio(float):
    def __repr__(self) -> str:
        return "Ratio()"


def oracle_dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    return oracle_predictor(eval_clips, spec)


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
        assert dump_json(doc) == oracle_dump(doc)

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError):
            dump_json({1: "one"})

    def test_non_string_key_rejected_after_an_equal_layout(self):
        # Layouts are cached by key tuple, and (1,), (True,) and (1.0,) are
        # equal tuples; a rejected key set is never cached, so it raises each time.
        for _ in range(2):
            assert dump_json({"1": "one"}) == oracle_dump({"1": "one"})
            with pytest.raises(TypeError, match="keys must be str"):
                dump_json({1: "one"})
            with pytest.raises(TypeError, match="keys must be str"):
                dump_json({True: "one"})
            with pytest.raises(TypeError, match="keys must be str"):
                dump_json({"a": {1.0: "one"}})

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

    def test_repeated_objects(self):
        # The encoder reuses the text of a run of one object; the same object
        # at another depth, or after a different item, must be encoded anew.
        x = {"a": [1, 2.5], "b": None}
        y = [x, "s", None]
        docs = [
            [x] * 4,
            [x, y, x, x, y, y, x],
            {"outer": [[x, x], x, [y, y], x], "inner": [x, x]},
            [None, x, x, None, None, x],
            (y, y, [y, y]),
        ]
        for doc in docs:
            assert dump_json(doc) == oracle_dump(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(JSON_DOCS, min_size=1, max_size=3), st.lists(st.integers(0, 2), max_size=8))
    def test_runs_of_shared_children(self, pool, picks):
        doc = [pool[i % len(pool)] for i in picks]
        assert dump_json({"k": [doc, doc]}) == oracle_dump({"k": [doc, doc]})


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
        for cfg in (
            BenchConfig(),
            BenchConfig(anticipation_s=10.0),
            BenchConfig(context_s=3.333, anticipation_s=0.001),  # whole milliseconds
        ):
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


    @pytest.mark.parametrize("label", [7, ["Pass"], {"name": "Pass"}, None])
    def test_non_string_label_rejected(self, tmp_path, label):
        doc = predictions_to_doc([])
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

    @pytest.mark.parametrize("ta", [5.0, 10.0])
    @pytest.mark.parametrize("variant", [v for v in HeadVariant if not HEADS[v].needs_outputs])
    def test_shared_slot_docs_match_fresh_dicts(self, corpus, variant, ta):
        cfg = BenchConfig(anticipation_s=ta)
        pairs = [
            (c.clip_id, assign_for_variant(variant, c.future_actions, cfg))
            for game in corpus
            for c in make_train_clips(game, cfg)[::7]
        ]
        fresh = {
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
                            "actionness": s.actionness,
                            "class_index": s.class_index,
                            "class_multihot": list(s.class_multihot) if s.class_multihot else None,
                            "time": s.time,
                        }
                        for s in a.slots
                    ],
                }
                for clip_id, a in sorted(pairs, key=lambda p: p[0])
            ],
        }
        assert dump_json(targets_to_doc(pairs, cfg, variant)) == oracle_dump(fresh)

    def test_equal_slots_of_different_types_keep_their_text(self):
        # SlotTarget(actionness=0) == SlotTarget(actionness=0.0), but JSON
        # writes them as 0 and 0.0: slots are shared by identity, not value.
        as_int = SlotTarget(gt_index=None, actionness=0)
        as_float = SlotTarget(gt_index=None, actionness=0.0)
        assert as_int == as_float
        slots = (as_int, as_int, as_float, as_float, as_int)
        doc = targets_to_doc([("c", Assignment(HeadVariant.Q_ACT, slots))], CFG, HeadVariant.Q_ACT)
        values = [json.loads(dump_json(doc))["clips"][0]["slots"][i]["actionness"] for i in range(5)]
        assert [type(v) for v in values] == [int, int, float, float, int]


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


JSON_TYPES = {bool: "boolean", int: "integer", str: "string", type(None): "null"}


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
        slots = targets_to_doc([(clip.clip_id, assignment)], CFG, variant)["clips"][0]["slots"]
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
            "eval-clips": (eval_clips_to_doc(eval_clips, CFG), read_eval_clips),
            "predictions": (predictions_to_doc(some_predictions), read_predictions),
            "loss-check": (full_loss_check_doc, read_loss_check),
        }[name]
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
                if "array" in types:  # the field is a list of such values
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
            "eval-clips": (eval_clips_to_doc(eval_clips, CFG), read_eval_clips),
            "predictions": (predictions_to_doc(some_predictions), read_predictions),
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

    def test_schema_rejects_wrong_format_tag(self, schema_registry, eval_clips):
        validator = validator_for("eval-clips", schema_registry)
        doc = eval_clips_to_doc(eval_clips[:1], CFG)
        doc["format"] = FORMAT_EVAL_CLIPS + "-not"
        assert not validator.is_valid(doc)
