"""Annotation parsing, canonicalization, filtering, and class statistics."""

from __future__ import annotations

import json
import os
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kickcast.annotations import (
    CLASS_INDEX,
    EXCLUDED_CLASSES,
    RETAINED_CLASSES,
    ActionClass,
    ActionInstance,
    AnnotationError,
    GameAnnotations,
    class_stats,
    filter_classes,
    format_game_time,
    parse_annotations,
    parse_annotations_dict,
    parse_label,
    serialize_annotations,
    stats_from_counts,
    write_annotations,
)
from kickcast.config import MAX_HALF_MS
from kickcast.jsonio import FileFormatError

from conftest import REPO_ROOT


def make_doc(annotations, *, game_id="g", split="train", durations=None):
    doc = {"gameId": game_id, "split": split, "annotations": annotations}
    if durations is not None:
        doc["halfDurationsMs"] = durations
    return doc


class TestParseLabel:
    def test_canonical_names(self):
        for cls in ActionClass:
            assert parse_label(cls.value) is cls

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("PASS", ActionClass.PASS),
            ("throw in", ActionClass.THROW_IN),
            ("THROW-IN", ActionClass.THROW_IN),
            ("ball_player_block", ActionClass.BALL_PLAYER_BLOCK),
            ("  high   pass ", ActionClass.HIGH_PASS),
            ("player successful tackle", ActionClass.SUCCESSFUL_TACKLE),
            ("succesful tackle", ActionClass.SUCCESSFUL_TACKLE),
        ],
    )
    def test_aliases_and_normalization(self, raw, expected):
        assert parse_label(raw) is expected

    def test_unknown_label_raises(self):
        with pytest.raises(AnnotationError, match="unknown label"):
            parse_label("Rabona")

    def test_unknown_label_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(AnnotationError, match=r"^unknown label 'Rabona'$"):
                parse_label("Rabona")

    def test_cache_is_bounded(self):
        assert parse_label.cache_info().maxsize == 64
        for i in range(200):  # 200 distinct spellings of one label
            assert parse_label("Pass" + " " * i) is ActionClass.PASS
        assert parse_label.cache_info().currsize <= 64


class TestClassSets:
    def test_ten_retained_two_excluded(self):
        assert len(RETAINED_CLASSES) == 10
        assert EXCLUDED_CLASSES == (ActionClass.FREE_KICK, ActionClass.GOAL)
        assert not set(RETAINED_CLASSES) & set(EXCLUDED_CLASSES)

    def test_canonical_order(self):
        assert [c.value for c in RETAINED_CLASSES] == [
            "Pass",
            "Drive",
            "High Pass",
            "Header",
            "Out",
            "Throw-in",
            "Cross",
            "Ball Player Block",
            "Shot",
            "Successful Tackle",
        ]
        assert CLASS_INDEX[ActionClass.PASS] == 0
        assert CLASS_INDEX[ActionClass.SUCCESSFUL_TACKLE] == 9


class TestGameTime:
    def test_minutes_seconds(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 12:34", "label": "Pass"}])
        )
        assert game.actions[0].half == 1
        assert game.actions[0].time_ms == (12 * 60 + 34) * 1000

    def test_millisecond_suffix(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "2 - 00:01.250", "label": "Shot"}])
        )
        assert game.actions[0].half == 2
        assert game.actions[0].time_ms == 1250

    def test_short_fraction_is_padded(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:01.5", "label": "Shot"}])
        )
        assert game.actions[0].time_ms == 1500

    @pytest.mark.parametrize("raw", ["12:34", "3 - 12:34", "1 - 12", "1-12:34:56", ""])
    def test_malformed_game_time(self, raw):
        with pytest.raises(AnnotationError):
            parse_annotations_dict(make_doc([{"gameTime": raw, "label": "Pass"}]))

    def test_format_round_trip(self):
        assert format_game_time(1, 754250) == "1 - 12:34.250"
        assert format_game_time(2, 61000) == "2 - 01:01.000"


class TestPosition:
    def test_position_is_authoritative(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:10", "label": "Pass", "position": 10400}])
        )
        assert game.actions[0].time_ms == 10400

    def test_position_as_digit_string(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:10", "label": "Pass", "position": "10400"}])
        )
        assert game.actions[0].time_ms == 10400

    def test_disagreement_of_a_second_rejected(self):
        with pytest.raises(AnnotationError, match="disagrees"):
            parse_annotations_dict(
                make_doc([{"gameTime": "1 - 00:10", "label": "Pass", "position": 11000}])
            )

    def test_disagreement_just_under_a_second_allowed(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:10", "label": "Pass", "position": 10999}])
        )
        assert game.actions[0].time_ms == 10999

    def test_missing_position_falls_back(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:10.250", "label": "Pass"}])
        )
        assert game.actions[0].time_ms == 10250


class TestDocumentValidation:
    def test_not_an_object(self):
        with pytest.raises(AnnotationError, match="JSON object"):
            parse_annotations_dict([1, 2, 3])

    def test_missing_annotations_array(self):
        with pytest.raises(AnnotationError, match="'annotations' array"):
            parse_annotations_dict({"gameId": "g"})

    def test_missing_label(self):
        with pytest.raises(AnnotationError, match="annotation #0"):
            parse_annotations_dict(make_doc([{"gameTime": "1 - 00:10"}]))

    def test_bad_split(self):
        with pytest.raises(AnnotationError, match="split"):
            parse_annotations_dict(make_doc([], split="holdout"))

    def test_bad_half_duration_key(self):
        with pytest.raises(AnnotationError, match="half key"):
            parse_annotations_dict(make_doc([], durations={"3": 1000}))

    def test_action_beyond_declared_duration(self):
        with pytest.raises(AnnotationError, match="exceeds half"):
            parse_annotations_dict(
                make_doc(
                    [{"gameTime": "1 - 00:10", "label": "Pass"}],
                    durations={"1": 9000},
                )
            )

    def test_action_exactly_at_duration_allowed(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:09", "label": "Pass"}], durations={"1": 9000})
        )
        assert game.actions[0].time_ms == 9000

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(bad))}: not valid JSON"):
            parse_annotations(bad)

    def test_game_id_defaults_to_file_stem(self, tmp_path):
        doc = {"split": "test", "annotations": []}
        path = tmp_path / "derby.json"
        path.write_text(json.dumps(doc))
        assert parse_annotations(path).game_id == "derby"


class TestCanonicalization:
    def test_actions_sorted_by_half_then_time(self):
        game = parse_annotations_dict(
            make_doc(
                [
                    {"gameTime": "2 - 00:05", "label": "Pass"},
                    {"gameTime": "1 - 00:30", "label": "Shot"},
                    {"gameTime": "1 - 00:05", "label": "Drive"},
                ]
            )
        )
        keys = [a.sort_key for a in game.actions]
        assert keys == sorted(keys)
        assert [a.label for a in game.actions] == [
            ActionClass.DRIVE,
            ActionClass.SHOT,
            ActionClass.PASS,
        ]

    def test_fixture_corpus_is_sorted(self, raw_corpus):
        for game in raw_corpus:
            keys = [a.sort_key for a in game.actions]
            assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "order",
        [
            [(1, 9000, ActionClass.PASS), (1, 1000, ActionClass.PASS)],
            [(2, 1000, ActionClass.PASS), (1, 9000, ActionClass.PASS)],
            [(1, 1000, ActionClass.SHOT), (1, 1000, ActionClass.DRIVE)],
        ],
    )
    def test_unsorted_actions_rejected(self, order):
        actions = tuple(
            ActionInstance(game_id="g", half=h, time_ms=t, label=lab) for h, t, lab in order
        )
        with pytest.raises(AnnotationError, match="action #1"):
            GameAnnotations(game_id="g", split="train", half_durations_ms={}, actions=actions)
        GameAnnotations(
            game_id="g",
            split="train",
            half_durations_ms={},
            actions=tuple(sorted(actions, key=lambda a: a.sort_key)),
        )

    def test_duplicate_actions_allowed(self):
        action = ActionInstance(game_id="g", half=1, time_ms=1000, label=ActionClass.PASS)
        game = GameAnnotations(
            game_id="g", split="train", half_durations_ms={}, actions=(action, action)
        )
        assert len(game.actions) == 2

    def test_round_trip_dict(self, raw_corpus):
        for game in raw_corpus:
            doc = serialize_annotations(game)
            assert parse_annotations_dict(doc) == game

    def test_round_trip_file(self, tmp_path, raw_corpus):
        game = raw_corpus[0]
        path = tmp_path / f"{game.game_id.split('/')[-1]}.json"
        write_annotations(game, path)
        assert parse_annotations(path) == game

    def test_fixture_files_match_canonical_bytes(self, tmp_path, fixture_paths):
        # the shipped fixtures were written by write_annotations and must stay
        # byte-identical under a parse/rewrite cycle
        for path in fixture_paths:
            game = parse_annotations(path)
            out = tmp_path / path.name
            write_annotations(game, out)
            assert out.read_bytes() == path.read_bytes()

    def test_fixture_generator_reproduces_the_fixtures(self, tmp_path, fixture_paths):
        # The script checks the corpus and each file's round trip itself; this
        # catches a writer or build_game change that alters regenerated bytes.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        script = REPO_ROOT / "tools" / "gen_fixtures.py"
        argv = [sys.executable, str(script), "--out-dir", str(tmp_path)]
        subprocess.run(argv, env=env, cwd=REPO_ROOT, check=True, timeout=120, capture_output=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in fixture_paths]
        for path in fixture_paths:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def _game(*actions, game_id="g", durations=None):
    """A game of ``(half, time_ms, label[, game_id])`` actions, checked only by construction."""
    return GameAnnotations(
        game_id=game_id,
        split="test",
        half_durations_ms={} if durations is None else durations,
        actions=tuple(
            ActionInstance(game_id if len(a) == 3 else a[3], a[0], a[1], a[2]) for a in actions
        ),
    )


PASS = ActionClass.PASS


class TestWriter:
    """write_annotations holds a game to its reader's rules and to the output contract."""

    @pytest.mark.parametrize(
        "game, error",
        [
            (_game(game_id=""), "gameId must be a non-empty string, got ''"),
            (_game(game_id=7), "gameId must be a string, got 7"),
            (_game(durations={3: 5000}), "half key must be 1 or 2, got 3"),
            (_game(durations={1: -5}), "half duration must be non-negative, got -5"),
            (
                _game(durations={2: 8_000_000}),
                f"half duration must be at most {MAX_HALF_MS} ms, got 8000000",
            ),
            (
                _game((1, 5001, PASS), durations={1: 5000}),
                "annotation #0: time 5001 ms exceeds half 1 duration 5000 ms",
            ),
            (
                _game((2, MAX_HALF_MS + 1, PASS)),
                f"annotation #0: time {MAX_HALF_MS + 1} ms exceeds the longest half, "
                f"{MAX_HALF_MS} ms",
            ),
            (_game((True, 1000, PASS)), "annotation #0: half must be an integer, got True"),
            (
                _game((1, 1000, PASS), (1, 2000, PASS, "other")),
                "annotation #1: game_id 'other' is not the game's, 'g'",
            ),
            (_game((1, 1000.5, PASS)), "annotation #0: time_ms must be an integer, got 1000.5"),
            (_game((1, 1000, "Pass")), "annotation #0: label must be an ActionClass, got 'Pass'"),
        ],
        ids=[
            "empty-id", "int-id", "half-key-3", "negative-duration", "long-duration",
            "past-duration", "past-longest-half", "bool-half", "other-game-id", "float-time",
            "str-label",
        ],
    )
    def test_refuses_what_the_reader_refuses(self, tmp_path, game, error):
        path = tmp_path / "game.json"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(AnnotationError) as info:
            write_annotations(game, path)
        assert str(info.value) == error
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "game",
        [
            _game(game_id=""),
            _game(durations={1: -5}),
            _game(durations={2: 8_000_000}),
            _game((1, 5001, PASS), durations={1: 5000}),
            _game((2, MAX_HALF_MS + 1, PASS)),
        ],
        ids=[
            "empty-id", "negative-duration", "long-duration", "past-duration", "past-longest-half",
        ],
    )
    def test_writer_and_reader_give_one_message(self, tmp_path, game):
        with pytest.raises(AnnotationError) as written:
            write_annotations(game, tmp_path / "game.json")
        with pytest.raises(AnnotationError) as read:
            parse_annotations_dict(serialize_annotations(game))
        assert str(read.value) == str(written.value)

    def test_overwriting_gives_the_same_bytes(self, tmp_path, raw_corpus):
        path = tmp_path / "game.json"
        path.write_text("old bytes that are longer than nothing\n" * 4)
        write_annotations(raw_corpus[0], path)
        first = path.read_bytes()
        write_annotations(raw_corpus[0], path)
        assert path.read_bytes() == first
        oracle = json.dumps(serialize_annotations(raw_corpus[0]), indent=2) + "\n"
        assert first == oracle.encode()
        assert list(tmp_path.iterdir()) == [path]

    def test_fifo_gets_the_bytes_of_a_file(self, tmp_path, raw_corpus):
        regular, fifo = tmp_path / "game.json", tmp_path / "game.fifo"
        write_annotations(raw_corpus[0], regular)  # larger than a pipe's buffer
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as f:
                received.append(f.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        write_annotations(raw_corpus[0], fifo)
        reader.join(timeout=10)
        if reader.is_alive():  # the writer never opened the FIFO: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [regular.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo, regular]


class TestFilterClasses:
    def test_drops_only_excluded(self, raw_corpus):
        for game in raw_corpus:
            kept = filter_classes(game)
            assert all(a.label not in EXCLUDED_CLASSES for a in kept.actions)
            dropped = len(game.actions) - len(kept.actions)
            assert dropped == sum(1 for a in game.actions if a.label in EXCLUDED_CLASSES)

    def test_idempotent_and_identity_when_clean(self, corpus):
        for game in corpus:
            assert filter_classes(game) is game

    def test_fixtures_contain_excluded_actions(self, raw_corpus):
        # the corpus generator plants free kicks and goals so this filter is
        # actually exercised
        total = sum(
            1 for g in raw_corpus for a in g.actions if a.label in EXCLUDED_CLASSES
        )
        assert total >= 2


def _counts(**by_name: int) -> dict[ActionClass, int]:
    return {parse_label(name.replace("_", " ")): n for name, n in by_name.items()}


class TestClassStats:
    def test_class_order_is_by_value_whatever_the_count_order(self):
        # Members hash by identity, so a set of them has no fixed order from
        # run to run; the set stats_from_counts builds is sorted by value.
        assert hash(ActionClass.PASS) == object.__hash__(ActionClass.PASS)
        classes = list(RETAINED_CLASSES)
        by_value = sorted(classes, key=lambda c: c.value)
        for order in (classes, classes[::-1], classes[3:] + classes[:3]):
            counts = {c: 1 + k for k, c in enumerate(order)}
            stats = stats_from_counts({"train": counts, "test": dict(reversed(counts.items()))})
            assert list(stats.weights) == by_value
            assert list(stats.counts["train"]) == list(stats.counts["test"]) == by_value

    def test_equal_counts_give_unit_weights(self):
        stats = stats_from_counts({"train": _counts(Pass=10, Shot=10)})
        assert stats.weights[ActionClass.PASS] == Fraction(1)
        assert stats.weights[ActionClass.SHOT] == Fraction(1)

    def test_worked_two_class_example(self):
        stats = stats_from_counts({"train": _counts(Pass=30, Shot=10)})
        assert stats.weights[ActionClass.PASS] == Fraction(2, 3)
        assert stats.weights[ActionClass.SHOT] == Fraction(2)

    def test_weights_are_exact_fractions(self):
        stats = stats_from_counts({"train": _counts(Pass=7, Shot=3, Drive=11)})
        for w in stats.weights.values():
            assert isinstance(w, Fraction)

    def test_class_missing_from_train_rejected(self):
        with pytest.raises(ValueError, match="zero train-split count"):
            stats_from_counts(
                {"train": _counts(Pass=5), "test": _counts(Pass=2, Shot=1)}
            )

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no actions"):
            stats_from_counts({"train": {}})

    def test_unfiltered_corpus_rejected(self):
        game = parse_annotations_dict(
            make_doc([{"gameTime": "1 - 00:10", "label": "Goal"}])
        )
        with pytest.raises(ValueError, match="excluded class"):
            class_stats([game])

    def test_counts_cover_all_splits(self, corpus):
        stats = class_stats(corpus)
        assert set(stats.counts) == {"train", "valid", "test"}
        # zero-filled across observed classes so report tables line up
        observed = set().union(*(set(c) for c in stats.counts.values()))
        for split_counts in stats.counts.values():
            assert set(split_counts) == observed

    def test_weight_vector_order_and_default(self):
        stats = stats_from_counts({"train": _counts(Pass=30, Shot=10)})
        vec = stats.weight_vector(default=1.0)
        assert len(vec) == len(RETAINED_CLASSES)
        assert vec[CLASS_INDEX[ActionClass.PASS]] == pytest.approx(2 / 3)
        assert vec[CLASS_INDEX[ActionClass.SHOT]] == 2.0
        assert vec[CLASS_INDEX[ActionClass.DRIVE]] == 1.0

    @given(
        st.dictionaries(
            st.sampled_from(RETAINED_CLASSES),
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
            max_size=10,
        )
    )
    def test_weight_times_count_is_constant(self, counts):
        stats = stats_from_counts({"train": counts})
        products = {stats.weights[c] * n for c, n in counts.items()}
        assert len(products) == 1
        # the constant is the mean train count
        assert products.pop() == Fraction(sum(counts.values()), len(counts))

    @given(
        st.dictionaries(
            st.sampled_from(RETAINED_CLASSES),
            st.integers(min_value=1, max_value=10_000),
            min_size=2,
            max_size=10,
        )
    )
    def test_weights_reverse_ordered_against_counts(self, counts):
        stats = stats_from_counts({"train": counts})
        for a, na in counts.items():
            for b, nb in counts.items():
                if na < nb:
                    assert stats.weights[a] > stats.weights[b]
                elif na == nb:
                    assert stats.weights[a] == stats.weights[b]

    def test_fixture_corpus_weights(self, corpus):
        stats = class_stats(corpus)
        train = stats.counts["train"]
        total = sum(train.values())
        n = len(train)
        for cls, count in train.items():
            assert count > 0
            assert stats.weights[cls] == Fraction(total, n * count)
