"""Evaluation tiling, training clip extraction, and segmentation grids."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickcast.annotations import (
    RETAINED_CLASSES,
    ActionClass,
    ActionInstance,
    GameAnnotations,
    parse_annotations_dict,
)
from kickcast.config import BenchConfig
from kickcast.windowing import (
    EVAL_CONTEXT_MS,
    GtAction,
    TrainClip,
    _half_timeline_ms,
    action_frame,
    make_eval_clips,
    make_train_clips,
    segmentation_targets,
)


def make_game(
    actions_ms,
    *,
    durations=None,
    split="train",
    labels=None,
    half=1,
):
    labels = labels or ["Pass"] * len(actions_ms)
    records = []
    for t, lab in zip(actions_ms, labels):
        minutes, rem = divmod(t, 60_000)
        sec, ms = divmod(rem, 1000)
        records.append(
            {
                "gameTime": f"{half} - {minutes:02d}:{sec:02d}.{ms:03d}",
                "label": lab,
                "position": t,
            }
        )
    doc = {"gameId": "t/unit", "split": split, "annotations": records}
    if durations is not None:
        doc["halfDurationsMs"] = {str(h): d for h, d in durations.items()}
    return parse_annotations_dict(doc)


def reference_train_clips(game, cfg):
    """Train tiling by two full scans of the half per clip: the oracle for the bisected one."""
    tc_ms = cfg.context_ms
    ta_ms = cfg.anticipation_ms
    stride = max(1, round(tc_ms / 10))
    clips = []
    for half in (1, 2):
        actions = game.half_actions(half)
        duration = _half_timeline_ms(actions, game.half_durations_ms.get(half), ta_ms)
        if duration is None or duration < tc_ms:
            continue
        for start in range(0, duration - tc_ms + 1, stride):
            ctx_end = start + tc_ms
            context = tuple(
                GtAction(a.label, a.time_ms - start)
                for a in actions
                if start <= a.time_ms < ctx_end
            )
            future = tuple(
                GtAction(a.label, a.time_ms - ctx_end)
                for a in actions
                if ctx_end <= a.time_ms < ctx_end + ta_ms
            )
            clips.append(TrainClip(game.game_id, half, start, ctx_end, context, future))
    return clips


@pytest.fixture(scope="module")
def cfg5():
    return BenchConfig()


@pytest.fixture(scope="module")
def cfg10():
    return BenchConfig(anticipation_s=10.0)


class TestEvalTiling:
    def test_hundred_second_half_gives_twenty_windows(self, cfg5):
        game = make_game([1000], durations={1: 100_000})
        clips = make_eval_clips(game, cfg5)
        assert len(clips) == 20
        assert not any(c.partial for c in clips)
        assert clips[0].anticipation_start_ms == 0
        assert clips[-1].anticipation_end_ms == 100_000

    def test_action_offset_relative_to_window(self, cfg5):
        game = make_game([97_300], durations={1: 100_000})
        clips = make_eval_clips(game, cfg5)
        holders = [c for c in clips if c.gt_actions]
        assert len(holders) == 1
        (clip,) = holders
        assert clip.anticipation_start_ms == 95_000
        assert clip.gt_actions[0].offset_ms == 2_300
        assert clip.gt_actions[0].offset_s == pytest.approx(2.3)

    def test_partial_final_window(self, cfg5):
        game = make_game([500], durations={1: 12_345})
        clips = make_eval_clips(game, cfg5)
        assert [c.window_len_ms for c in clips] == [5000, 5000, 2345]
        assert [c.partial for c in clips] == [False, False, True]

    def test_clip_ids_are_stable_and_unique(self, eval_clips):
        ids = [c.clip_id for c in eval_clips]
        assert len(ids) == len(set(ids))
        for c in eval_clips:
            assert c.clip_id == f"{c.game_id}:{c.half}:{c.anticipation_start_ms:07d}"

    def test_every_action_covered_exactly_once(self, corpus, cfg5):
        # brute-force membership oracle: each retained action lands in exactly
        # one window of its own half, at the right offset
        for game in corpus:
            clips = make_eval_clips(game, cfg5)
            placed = Counter()
            for clip in clips:
                for gt in clip.gt_actions:
                    assert 0 <= gt.offset_ms < clip.window_len_ms
                    placed[(clip.half, clip.anticipation_start_ms + gt.offset_ms, gt.label)] += 1
            truth = Counter((a.half, a.time_ms, a.label) for a in game.actions)
            assert placed == truth

    def test_action_exactly_at_declared_duration_is_covered(self, cfg5):
        # duration gets stretched by one millisecond so the final half-open
        # window still contains the action
        game = make_game([60_000], durations={1: 60_000})
        clips = make_eval_clips(game, cfg5)
        assert sum(len(c.gt_actions) for c in clips) == 1
        last = clips[-1]
        assert last.partial and last.window_len_ms == 1
        assert last.gt_actions[0].offset_ms == 0

    def test_context_span_capped_at_thirty_seconds(self, eval_clips):
        for c in eval_clips:
            assert c.context_end_ms == c.anticipation_start_ms
            assert 0 <= c.context_end_ms - c.context_start_ms <= EVAL_CONTEXT_MS
            if c.anticipation_start_ms >= EVAL_CONTEXT_MS:
                assert c.context_start_ms == c.anticipation_start_ms - EVAL_CONTEXT_MS
            else:
                assert c.context_start_ms == 0

    def test_halves_tiled_independently(self, cfg5):
        doc = {
            "gameId": "t/two-halves",
            "split": "test",
            "halfDurationsMs": {"1": 7_000, "2": 6_000},
            "annotations": [
                {"gameTime": "1 - 00:06.500", "label": "Pass"},
                {"gameTime": "2 - 00:00.500", "label": "Shot"},
            ],
        }
        clips = make_eval_clips(parse_annotations_dict(doc), BenchConfig())
        by_half = {1: [], 2: []}
        for c in clips:
            by_half[c.half].append(c)
        # each half restarts its tiling at zero; nothing straddles the break
        assert [c.anticipation_start_ms for c in by_half[1]] == [0, 5000]
        assert [c.anticipation_start_ms for c in by_half[2]] == [0, 5000]
        assert by_half[1][1].gt_actions[0].offset_ms == 1500
        assert by_half[2][0].gt_actions[0].offset_ms == 500

    def test_unknown_duration_inferred_from_last_action(self, cfg5):
        game = make_game([8_200])  # no halfDurationsMs
        clips = make_eval_clips(game, cfg5)
        # inferred span = 8200 + 5000, so three windows ending at 13200
        assert [c.anticipation_end_ms for c in clips] == [5000, 10_000, 13_200]
        assert clips[-1].partial

    def test_empty_half_without_duration_produces_no_clips(self, cfg5):
        game = make_game([], durations={})
        assert make_eval_clips(game, cfg5) == []

    def test_ten_second_horizon(self, cfg10):
        game = make_game([1000], durations={1: 100_000})
        clips = make_eval_clips(game, cfg10)
        assert len(clips) == 10
        assert all(c.window_len_ms == 10_000 for c in clips)


class TestTrainClips:
    def test_twenty_second_half_gives_31_clips(self, cfg5):
        game = make_game([1000], durations={1: 20_000})
        clips = make_train_clips(game, cfg5)
        assert len(clips) == 31
        assert clips[0].context_start_ms == 0
        assert clips[1].context_start_ms == 500
        assert clips[-1].context_start_ms == 15_000

    def test_future_offset_relative_to_context_end(self, cfg5):
        game = make_game([6_200], durations={1: 20_000})
        clips = make_train_clips(game, cfg5)
        first = clips[0]  # context [0, 5000), future [5000, 10000)
        assert first.context_actions == ()
        assert first.future_actions == (GtAction(ActionClass.PASS, 1_200),)
        assert first.future_actions[0].offset_s == pytest.approx(1.2)

    def test_membership_oracle(self, corpus, cfg5):
        # every clip's action lists must match a brute-force interval scan
        for game in corpus[:1]:
            tc, ta = cfg5.context_ms, cfg5.anticipation_ms
            for clip in make_train_clips(game, cfg5):
                actions = game.half_actions(clip.half)
                s = clip.context_start_ms
                ctx = tuple(
                    GtAction(a.label, a.time_ms - s)
                    for a in actions
                    if s <= a.time_ms < s + tc
                )
                fut = tuple(
                    GtAction(a.label, a.time_ms - s - tc)
                    for a in actions
                    if s + tc <= a.time_ms < s + tc + ta
                )
                assert clip.context_actions == ctx
                assert clip.future_actions == fut
                assert clip.context_end_ms == s + tc

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_two_scan_reference(self, data):
        cfg = data.draw(
            st.builds(
                BenchConfig,
                context_s=st.sampled_from([5.0, 3.333, 1.0]),
                anticipation_s=st.sampled_from([5.0, 10.0]),
            )
        )
        stride = max(1, round(cfg.context_ms / 10))
        # times on and 1 ms either side of every clip edge: start, ctx_end, ctx_end + ta
        edge = st.builds(
            lambda k, shift, jitter: max(0, k * stride + shift + jitter),
            st.integers(0, 120),
            st.sampled_from([0, cfg.context_ms, cfg.context_ms + cfg.anticipation_ms]),
            st.sampled_from([-1, 0, 1]),
        )
        times = st.lists(st.one_of(edge, st.integers(0, 40_000)), max_size=25)
        actions = []
        for half in (1, 2):
            drawn = data.draw(times)
            drawn += data.draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
            for t in drawn:
                label = data.draw(st.sampled_from(RETAINED_CLASSES))
                actions.append(ActionInstance(game_id="t/g", half=half, time_ms=t, label=label))
        actions.sort(key=lambda a: a.sort_key)
        # a declared duration may be shorter than the last action, or absent
        durations = data.draw(
            st.dictionaries(st.sampled_from([1, 2]), st.integers(0, 40_000), max_size=2)
        )
        game = GameAnnotations(
            game_id="t/g", split="train", half_durations_ms=durations, actions=tuple(actions)
        )
        assert make_train_clips(game, cfg) == reference_train_clips(game, cfg)

    def test_half_shorter_than_context_skipped(self, cfg5):
        game = make_game([1000], durations={1: 4_000})
        assert make_train_clips(game, cfg5) == []

    def test_train_clip_ids_unique(self, corpus, cfg5):
        game = corpus[0]
        ids = [c.clip_id for c in make_train_clips(game, cfg5)]
        assert len(ids) == len(set(ids))
        assert all(":c" in i for i in ids)


class TestSegmentation:
    def seg_clip(self, offsets_ms, labels=None, cfg=None):
        cfg = cfg or BenchConfig()
        labels = labels or [ActionClass.PASS] * len(offsets_ms)
        return TrainClip(
            game_id="t/unit",
            half=1,
            context_start_ms=0,
            context_end_ms=cfg.context_ms,
            context_actions=tuple(GtAction(l, o) for l, o in zip(labels, offsets_ms)),
            future_actions=(),
        )

    def test_worked_frame_and_dilation(self, cfg5):
        # 2.56 s at 6.25 fps -> frame 16; radius 4 claims frames 12..20
        assert action_frame(2.56, cfg5) == 16
        grid = segmentation_targets(self.seg_clip([2_560]), cfg5)
        assert len(grid.labels) == cfg5.context_frames == 32
        pass_idx = 1  # 0 is background, classes are 1-based on the grid
        claimed = {i for i, lab in enumerate(grid.labels) if lab == pass_idx}
        assert claimed == set(range(12, 21))

    def test_empty_context_is_all_background(self, cfg5):
        grid = segmentation_targets(self.seg_clip([]), cfg5)
        assert set(grid.labels) == {0}

    def test_rounding_half_up_and_clamp(self, cfg5):
        assert action_frame(0.0, cfg5) == 0
        assert action_frame(0.08, cfg5) == 1  # 0.5 rounds up
        assert action_frame(4.99, cfg5) == 31  # clamped to last frame
        grid = segmentation_targets(self.seg_clip([4_990]), cfg5)
        assert grid.labels[31] != 0

    def test_contested_frames_go_to_nearest_center(self, cfg5):
        # centers at frames 6 (0.96 s) and 12 (1.92 s); boundary frame 9 is
        # equidistant and must go to the earlier action
        grid = segmentation_targets(
            self.seg_clip([960, 1_920], labels=[ActionClass.PASS, ActionClass.SHOT]),
            cfg5,
        )
        pass_idx = 1
        shot_idx = 9  # Shot is class index 8, grid labels are index + 1
        assert grid.labels[8] == pass_idx
        assert grid.labels[9] == pass_idx
        assert grid.labels[10] == shot_idx

    @given(
        st.lists(
            st.integers(min_value=0, max_value=4_999), min_size=0, max_size=6
        ).map(sorted)
    )
    def test_nearest_center_oracle(self, offsets):
        cfg = BenchConfig()
        labels = [ActionClass(ActionClass.PASS.value)] * len(offsets)
        clip = self.seg_clip(offsets, labels=labels, cfg=cfg)
        grid = segmentation_targets(clip, cfg)
        centers = [action_frame(o / 1000.0, cfg) for o in offsets]
        for frame, lab in enumerate(grid.labels):
            dists = [abs(frame - c) for c in centers]
            if not dists or min(dists) > cfg.dilation_radius:
                assert lab == 0
            else:
                assert lab != 0

    def test_non_background_budget(self, cfg5):
        # n actions can claim at most n * (2r + 1) frames
        offsets = [0, 1_000, 2_000, 3_000]
        grid = segmentation_targets(self.seg_clip(offsets), cfg5)
        budget = len(offsets) * (2 * cfg5.dilation_radius + 1)
        assert sum(1 for lab in grid.labels if lab != 0) <= budget

    def test_label_encodes_class_index_plus_one(self, cfg5):
        grid = segmentation_targets(
            self.seg_clip([2_000], labels=[ActionClass.SUCCESSFUL_TACKLE]), cfg5
        )
        assert set(grid.labels) == {0, 10}
