"""Annotation files, eval clips and targets of generated corpora read back as written.

Corpora hold one to three games whose ids contain ``:`` or are prefixes of one
another (``a``, ``a0``, ``a:1``), halves of declared or inferred length, and
actions at 0 ms, on window edges, on the declared length and in bursts, tiled
at each T_a in {0.5, 1, 2.5, 5, 10} s.  Each property fails on a hand-made
mutation of the library:

* ``test_eval_clips_read_back_and_write_again`` fails when
  ``fileio.write_eval_clips`` orders clips by ``clip_id`` instead of
  ``sort_key`` (``"a0:1:..."`` sorts before ``"a:1:..."``), and when
  ``windowing.make_eval_clips`` takes an action on a window's end into that
  window (``time_ms <= end`` for ``time_ms < end``): its offset then equals the
  span, which the writer refuses.
* ``test_targets_read_back_through_the_loss_check_reader`` fails when
  ``fileio._slot_text`` writes ``gt_index`` in the place of ``class_index``.

Generated games (:func:`annotation_games`) hold no actions or many, declare no
half, one or both, and have ids with non-ASCII characters, ``"``, ``\\``,
``%`` and ``/``.  ``test_annotation_files_are_the_stdlib_dump_and_read_back``
fails when ``annotations._ACTION`` lists a record's keys in sorted order, when
``jsonio.write_frame`` closes an empty list on a line of its own, when
``write_annotations`` dumps its head with ``ensure_ascii=False``, and when
``annotations._check_time`` refuses an action on its half's declared duration.
"""

from __future__ import annotations

import json
import os
import tempfile
from operator import itemgetter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kickcast.annotations import (
    RETAINED_CLASSES,
    SPLITS,
    ActionClass,
    ActionInstance,
    GameAnnotations,
    parse_annotations,
    serialize_annotations,
    write_annotations,
)
from kickcast.config import MAX_HALF_MS, BenchConfig
from kickcast.fileio import (
    dump_json,
    read_eval_clips,
    read_loss_check,
    write_eval_clips,
    write_targets,
)
from kickcast.targets import HEADS, HeadVariant, assign_for_variant
from kickcast.windowing import make_eval_clips

GAME_IDS = ["a", "a0", "a:1", "a:", ":", "b:2:0000000"]
TA_S = [0.5, 1.0, 2.5, 5.0, 10.0]
#: The heads whose targets do not depend on model outputs: the ``targets`` command's.
PRECOMPUTED = [v for v in HeadVariant if not HEADS[v].needs_outputs]


@st.composite
def corpora(draw):
    """``(ta, games)``: T_a in seconds and one to three games with distinct ids."""
    ta = draw(st.sampled_from(TA_S))
    ta_ms = round(ta * 1000)
    games = []
    for game_id in draw(st.lists(st.sampled_from(GAME_IDS), min_size=1, max_size=3, unique=True)):
        durations, actions = {}, []
        for half in (1, 2):
            declared = draw(st.one_of(st.none(), st.integers(1, 8 * ta_ms)))
            if declared is not None:
                durations[half] = declared
            last = 8 * ta_ms if declared is None else declared
            edges = [0, last] + [k * ta_ms for k in range(last // ta_ms + 1)]
            times = st.one_of(st.sampled_from(edges), st.integers(0, last))
            for time_ms in draw(st.lists(times, max_size=6)):
                # A burst: up to three actions at one instant or a millisecond apart.
                for gap in range(draw(st.integers(1, 3))):
                    label = draw(st.sampled_from(RETAINED_CLASSES))
                    actions.append(ActionInstance(game_id, half, min(time_ms + gap, last), label))
        actions.sort(key=lambda a: a.sort_key)
        games.append(GameAnnotations(game_id, "test", durations, tuple(actions)))
    return ta, games


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_eval_clips_read_back_and_write_again(drawn):
    ta, games = drawn
    cfg = BenchConfig(anticipation_s=ta)
    clips = [clip for game in games for clip in make_eval_clips(game, cfg)]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        write_eval_clips(first, clips, cfg)
        read, read_cfg = read_eval_clips(first)
        write_eval_clips(second, read, read_cfg)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert read_cfg == cfg
    assert read == sorted(clips, key=lambda c: (c.game_id, c.half, c.anticipation_start_ms))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_targets_read_back_through_the_loss_check_reader(drawn):
    # Each eval window's actions stand for a training clip's future actions.
    ta, games = drawn
    cfg = BenchConfig(anticipation_s=ta)
    clips = [clip for game in games for clip in make_eval_clips(game, cfg)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.json")
        for variant in PRECOMPUTED:
            pairs = [(c.clip_id, assign_for_variant(variant, c.gt_actions, cfg)) for c in clips]
            write_targets(path, pairs, cfg, variant)
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            width = cfg.num_classes + HEADS[variant].sentinel
            output = {"actionness": 0.5, "class_probs": [1.0 / width] * width, "time_raw": -1.0}
            records = [
                {
                    "id": rec["clip_id"],
                    "variant": doc["variant"],
                    "outputs": [output] * len(rec["slots"]),
                    "slots": rec["slots"],
                    "truncated": rec["truncated"],
                }
                for rec in doc["clips"]
            ]
            check = {"format": "kickcast-loss-check", "version": 1, "config": doc["config"]}
            with open(path, "w", encoding="utf-8") as f:
                f.write(dump_json({**check, "clips": records}))
            _, _, entries = read_loss_check(path)
            want = sorted(pairs, key=itemgetter(0))
            assert [(clip_id, a) for clip_id, _, a, _ in entries] == want
            for (_, _, got, _), (_, assignment) in zip(entries, want):
                assert [list(map(type, s)) for s in got.slots] == [
                    list(map(type, s)) for s in assignment.slots
                ]


#: Game id characters the writer must escape as the stdlib does: non-ASCII
#: (one outside the BMP), the quote, the backslash, a newline; and ``%`` and
#: ``/``, which a template or a path could mistake.
ID_CHARS = 'a0:%/"\\\né中\U0001f600'
#: Times a game time must spell right: 99:59.999, and 100 and 120 minutes.
LONG_TIMES = [5_999_999, 6_000_000, MAX_HALF_MS]


@st.composite
def annotation_games(draw):
    """A game with zero, one or two declared halves, and actions of every class.

    Actions fall at 0 ms, on the declared duration, at the long times or
    anywhere in the half, and up to three share one instant with any labels.
    """
    ids = st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=8) | st.text(min_size=1)
    game_id = draw(ids)
    declared = draw(st.sampled_from([(), (1,), (2,), (1, 2)]))
    lengths = st.sampled_from([0, 1, *LONG_TIMES]) | st.integers(0, MAX_HALF_MS)
    durations = {half: draw(lengths) for half in declared}
    actions = []
    for half in (1, 2):
        last = durations.get(half, MAX_HALF_MS)
        edges = [t for t in [0, last, *LONG_TIMES] if t <= last]
        for time_ms in draw(st.lists(st.sampled_from(edges) | st.integers(0, last), max_size=5)):
            labels = draw(st.lists(st.sampled_from(list(ActionClass)), min_size=1, max_size=3))
            actions.extend(ActionInstance(game_id, half, time_ms, label) for label in labels)
    actions.sort(key=lambda a: a.sort_key)
    return GameAnnotations(game_id, draw(st.sampled_from(SPLITS)), durations, tuple(actions))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(annotation_games())
def test_annotation_files_are_the_stdlib_dump_and_read_back(game):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        write_annotations(game, first)
        read = parse_annotations(first)
        write_annotations(read, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            written, rewritten = a.read(), b.read()
    assert written == (json.dumps(serialize_annotations(game), indent=2) + "\n").encode()
    assert read == game
    assert rewritten == written
