"""Decoding, window matching, average precision, and the full evaluator."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickcast.annotations import CLASS_INDEX, RETAINED_CLASSES, ActionClass
from kickcast.config import BenchConfig
from kickcast.losses import SlotOutput
from kickcast.metrics import (
    DEFAULT_DELTAS,
    ClassScore,
    EvalReport,
    MetricError,
    Prediction,
    average_precision,
    decode_predictions,
    evaluate,
    match_window,
)
from kickcast.targets import HeadVariant
from kickcast.windowing import EvalClip, GtAction

from reference_eval import naive_evaluate, naive_flags

CFG = BenchConfig()
C = CFG.num_classes


def make_clip(gt, *, clip_seq=0, window_ms=5_000, game="t/unit", half=1):
    start = clip_seq * window_ms
    return EvalClip(
        game_id=game,
        half=half,
        anticipation_start_ms=start,
        anticipation_end_ms=start + window_ms,
        partial=False,
        gt_actions=tuple(GtAction(lab, off) for lab, off in gt),
    )


def pred(clip, label, time_s, conf, clamped=False):
    return Prediction(
        clip_id=clip.clip_id,
        label=label,
        time_s=time_s,
        confidence=conf,
        time_clamped=clamped,
    )


PASS = ActionClass.PASS
SHOT = ActionClass.SHOT


def softmax_out(act, hot_idx, n=C, p=0.9, time_raw=-1.0):
    probs = [(1.0 - p) / (n - 1)] * n
    probs[hot_idx] = p
    return SlotOutput(act, tuple(probs), time_raw)


class TestDecode:
    def test_worked_single_slot(self):
        # ln(0.5) decodes to half the window: 2.5 s; confident Pass
        out = softmax_out(1.0, CLASS_INDEX[PASS], p=1.0, time_raw=math.log(0.5))
        preds = decode_predictions("c", [out], HeadVariant.Q_ACT, CFG)
        assert len(preds) == C
        best = max(preds, key=lambda p: p.confidence)
        assert best.label is PASS
        assert best.time_s == 2.5
        assert best.confidence == 1.0
        assert not best.time_clamped

    def test_confidence_is_product(self):
        out = softmax_out(0.5, CLASS_INDEX[SHOT], p=0.8)
        preds = decode_predictions("c", [out], HeadVariant.Q_ACT, CFG)
        by_label = {p.label: p for p in preds}
        assert by_label[SHOT].confidence == pytest.approx(0.4)
        for label, p in by_label.items():
            if label is not SHOT:
                assert p.confidence == pytest.approx(0.5 * 0.2 / (C - 1))

    def test_eos_argmax_breaks_sequence(self):
        probs_eos = [0.0] * (C + 1)
        probs_eos[C] = 1.0
        real = softmax_out(1.0, 0, n=C + 1, p=1.0)
        eos = SlotOutput(1.0, tuple(probs_eos), -1.0)
        preds = decode_predictions("c", [real, eos, real], HeadVariant.Q_EOS, CFG)
        # the third slot sits beyond the end-of-sequence marker
        assert len(preds) == C
        preds = decode_predictions("c", [eos, real], HeadVariant.Q_EOS, CFG)
        assert preds == []

    def test_eos_tie_argmax_keeps_first_index(self):
        # uniform (C+1)-way: argmax is index 0, not the sentinel, so the slot
        # still emits
        uniform = SlotOutput(1.0, (1.0 / (C + 1),) * (C + 1), -1.0)
        preds = decode_predictions("c", [uniform], HeadVariant.Q_EOS, CFG)
        assert len(preds) == C

    def test_sentinel_class_never_emitted(self):
        probs = [1.0 / (C + 1)] * (C + 1)
        out = SlotOutput(1.0, tuple(probs), -1.0)
        preds = decode_predictions("c", [out], HeadVariant.Q_BCKG, CFG)
        assert {p.label for p in preds} == set(RETAINED_CLASSES)

    def test_bckg_head_needs_extra_prob(self):
        out = softmax_out(1.0, 0, n=C)
        with pytest.raises(MetricError, match="expected 11"):
            decode_predictions("c", [out], HeadVariant.Q_BCKG, CFG)

    def test_bce_skips_sum_check(self):
        out = SlotOutput(1.0, (0.9,) * C, -1.0)
        preds = decode_predictions("c", [out], HeadVariant.Q_BCE, CFG)
        assert len(preds) == C
        assert all(p.confidence == pytest.approx(0.9) for p in preds)

    def test_softmax_sum_checked(self):
        from kickcast.losses import LossError

        out = SlotOutput(1.0, (0.9,) * C, -1.0)
        with pytest.raises(LossError, match="sums to"):
            decode_predictions("c", [out], HeadVariant.Q_ACT, CFG)

    def test_anchor_times_offset_by_bin(self):
        # bin width 0.625 s at q=8;  slot k decodes into [k, k+1) * bin
        outs = [softmax_out(1.0, 0, time_raw=math.log(0.5)) for _ in range(2)]
        preds = decode_predictions("c", outs, HeadVariant.ANCHORS, CFG)
        times = sorted({p.time_s for p in preds})
        bin_s = CFG.anticipation_s / CFG.queries
        assert times == [pytest.approx(0.5 * bin_s), pytest.approx(1.5 * bin_s)]

    def test_positive_raw_clamps_and_flags(self):
        out = softmax_out(1.0, 0, time_raw=0.25)
        (p,) = [p for p in decode_predictions("c", [out], HeadVariant.Q_ACT, CFG) if p.label is PASS]
        assert p.time_s == CFG.anticipation_s
        assert p.time_clamped

        out_anchor = softmax_out(1.0, 0, time_raw=700.0)  # exp would overflow
        preds = decode_predictions("c", [out_anchor], HeadVariant.ANCHORS, CFG)
        assert all(p.time_clamped for p in preds)
        assert preds[0].time_s == pytest.approx(CFG.anticipation_s / CFG.queries)

    def test_zero_raw_is_not_clamped(self):
        out = softmax_out(1.0, 0, time_raw=0.0)
        preds = decode_predictions("c", [out], HeadVariant.Q_ACT, CFG)
        assert not any(p.time_clamped for p in preds)
        assert preds[0].time_s == CFG.anticipation_s


class TestMatchWindow:
    def test_worked_example(self):
        # gt at 1.0 and 3.0; preds (1.2, .9), (4.9, .8), (3.1, .7); delta 1
        preds = [
            pred(make_clip([]), PASS, 1.2, 0.9),
            pred(make_clip([]), PASS, 4.9, 0.8),
            pred(make_clip([]), PASS, 3.1, 0.7),
        ]
        assert match_window(preds, [1.0, 3.0], 1.0) == [True, False, True]

    def test_boundary_included(self):
        p = [pred(make_clip([]), PASS, 1.5, 0.9)]
        assert match_window(p, [1.0], 1.0) == [True]  # |1.5 - 1.0| == delta/2
        p = [pred(make_clip([]), PASS, 1.5000001, 0.9)]
        assert match_window(p, [1.0], 1.0) == [False]

    def test_each_gt_matches_once(self):
        preds = [
            pred(make_clip([]), PASS, 1.0, 0.9),
            pred(make_clip([]), PASS, 1.1, 0.8),
        ]
        assert match_window(preds, [1.0], 5.0) == [True, False]

    def test_higher_confidence_claims_first(self):
        preds = [
            pred(make_clip([]), PASS, 1.4, 0.5),
            pred(make_clip([]), PASS, 1.2, 0.9),
        ]
        # the 0.9 prediction matches even though it appears second
        assert match_window(preds, [1.0], 1.0) == [False, True]

    def test_nearest_gt_preferred(self):
        preds = [pred(make_clip([]), PASS, 2.0, 0.9)]
        flags = match_window(preds, [0.5, 2.2], 5.0)
        assert flags == [True]

    def test_infinite_delta_matches_by_count(self):
        preds = [pred(make_clip([]), PASS, float(i), 0.9 - i * 0.1) for i in range(4)]
        flags = match_window(preds, [0.0, 4.9], math.inf)
        assert sum(flags) == 2

    def test_empty_gt_all_false(self):
        preds = [pred(make_clip([]), PASS, 1.0, 0.9)]
        assert match_window(preds, [], 1.0) == [False]

    def test_delta_must_be_positive(self):
        with pytest.raises(MetricError):
            match_window([], [], 0.0)
        with pytest.raises(MetricError):
            match_window([], [], -1.0)

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(st.floats(0, 5), st.floats(0.01, 1.0)), max_size=6
        ),
        st.lists(st.floats(0, 5), max_size=4).map(sorted),
        st.sampled_from([1.0, 2.0, 5.0, math.inf]),
    )
    def test_matches_naive_reference(self, raw_preds, gt_times, delta):
        clip = make_clip([])
        preds = [pred(clip, PASS, t, c) for t, c in raw_preds]
        got = match_window(preds, gt_times, delta)
        want = naive_flags(raw_preds, gt_times, delta)
        assert got == want

    def test_float_window_boundary_counterexample(self):
        # |t - g| <= 1.5 holds although g < t - 1.5 in floats: a plain
        # [t - half, t + half] bisection window would miss this match
        t, g = 1.8694184655399038, 0.3694184655399037
        assert abs(t - g) <= 1.5 and g < t - 1.5
        assert match_window([pred(make_clip([]), PASS, t, 0.9)], [g], 3.0) == [True]
        assert naive_flags([(t, 0.9)], [g], 3.0) == [True]

    @settings(max_examples=300)
    @given(st.data())
    def test_boundary_ground_truths_match_naive(self, data):
        delta = data.draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, math.inf]))
        on_grid = st.integers(0, 5_000).map(lambda ms: ms / 1000)
        times = data.draw(st.lists(st.one_of(on_grid, st.floats(0, 5)), min_size=1, max_size=5))
        candidates = []
        for t in times:
            for edge in (t - delta / 2, t + delta / 2):
                if math.isfinite(edge):
                    candidates += [
                        edge,
                        math.nextafter(edge, -math.inf),
                        math.nextafter(edge, math.inf),
                        round(edge * 1000) / 1000,
                    ]
        candidates += times
        gt_times = data.draw(st.lists(st.sampled_from(candidates), max_size=6))
        raw = [(t, data.draw(st.sampled_from([0.25, 0.5, 0.75]))) for t in times]
        got = match_window([pred(make_clip([]), PASS, t, c) for t, c in raw], gt_times, delta)
        assert got == naive_flags(raw, gt_times, delta)


def fraction_ap(ranked_flags, total_gt):
    """Per-rank exact AP: the envelope is updated at every rank, right to left."""
    tp = 0
    precisions = []
    for i, flag in enumerate(ranked_flags):
        tp += flag
        precisions.append(Fraction(tp, i + 1))
    area = Fraction(0)
    envelope = Fraction(0)
    for i in range(len(ranked_flags) - 1, -1, -1):
        envelope = max(envelope, precisions[i])
        if ranked_flags[i]:
            area += envelope
    return float(area / total_gt)


class TestAveragePrecision:
    def test_worked_five_sixths(self):
        # ranks: TP, FP, TP with two ground truths
        ap = average_precision([True, False, True], 2)
        assert ap == float(Fraction(5, 6))

    def test_perfect_ranking(self):
        assert average_precision([True, True], 2) == 1.0

    def test_all_false(self):
        assert average_precision([False, False], 3) == 0.0

    def test_empty_flags(self):
        assert average_precision([], 1) == 0.0

    def test_missing_gt_lowers_ap(self):
        # one of two ground truths never found
        assert average_precision([True], 2) == 0.5

    def test_needs_positive_gt(self):
        with pytest.raises(MetricError):
            average_precision([True], 0)

    def test_envelope_interpolation(self):
        # precision recovers after an FP: the later higher precision wins
        # ranks: FP, TP, TP -> precisions at TPs are 1/2, 2/3 -> envelope 2/3
        ap = average_precision([False, True, True], 2)
        assert ap == float((Fraction(2, 3) + Fraction(2, 3)) / 2)

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.lists(st.booleans(), max_size=60),
            st.integers(0, 40).map(lambda n: [True] * n),
            st.integers(0, 40).map(lambda n: [False] * n),
            st.tuples(st.lists(st.booleans(), max_size=20), st.integers(0, 500)).map(
                lambda pair: pair[0] + [False] * pair[1]
            ),
        ),
        st.integers(0, 5),
    )
    def test_exact_against_per_rank_fractions(self, flags, missed):
        total = max(sum(flags) + missed, 1)
        assert average_precision(flags, total) == fraction_ap(flags, total)


class TestEvaluate:
    def test_perfect_predictions_score_one(self):
        clips = [
            make_clip([(PASS, 1_000), (SHOT, 3_000)], clip_seq=0),
            make_clip([(PASS, 250)], clip_seq=1),
        ]
        preds = [
            pred(clips[0], PASS, 1.0, 1.0),
            pred(clips[0], SHOT, 3.0, 1.0),
            pred(clips[1], PASS, 0.25, 1.0),
        ]
        report = evaluate(clips, preds)
        assert report.average == 1.0
        for delta in report.deltas:
            assert report.map_at[delta] == 1.0
        assert report.scores[1.0][PASS].tp == 2
        assert report.scores[1.0][PASS].gt == 2
        assert report.clip_count == 2
        assert report.prediction_count == 3

    def test_classes_without_gt_excluded_from_map(self):
        clips = [make_clip([(PASS, 1_000)])]
        report = evaluate(clips, [pred(clips[0], PASS, 1.0, 1.0)])
        assert report.scores[1.0][SHOT].ap is None
        assert report.map_at[1.0] == 1.0

    def test_no_predictions(self):
        clips = [make_clip([(PASS, 1_000)])]
        report = evaluate(clips, [])
        assert report.average == 0.0
        assert report.prediction_count == 0

    @pytest.mark.parametrize(
        "deltas", [(-1.0, math.nan), (math.nan,), (1.0, 0.0), (math.nan, math.nan)]
    )
    def test_bad_tolerance_rejected_without_predictions(self, deltas):
        with pytest.raises(MetricError, match="tolerance must be positive"):
            evaluate([make_clip([(PASS, 1_000)])], [], deltas=deltas)

    def test_bad_tolerance_rejected_for_groups_without_gt(self):
        clips = [make_clip([(PASS, 1_000)])]
        with pytest.raises(MetricError, match="tolerance must be positive"):
            evaluate(clips, [pred(clips[0], SHOT, 1.0, 0.5)], deltas=(1.0, -2.0))

    def test_cross_class_matches_forbidden(self):
        clips = [make_clip([(PASS, 1_000)])]
        report = evaluate(clips, [pred(clips[0], SHOT, 1.0, 1.0)])
        assert report.scores[math.inf][PASS].tp == 0
        assert report.scores[math.inf][SHOT].fp == 1

    def test_map_strictly_widens_with_delta(self):
        # a prediction 1.4 s off only matches at delta >= 3
        clips = [make_clip([(PASS, 1_000)])]
        report = evaluate(clips, [pred(clips[0], PASS, 2.4, 1.0)])
        assert report.map_at[1.0] == 0.0
        assert report.map_at[2.0] == 0.0
        assert report.map_at[3.0] == 1.0
        assert report.map_at[math.inf] == 1.0

    def test_feasibility_monotone_in_delta(self, eval_clips):
        rng = random.Random(7)
        preds = []
        for clip in eval_clips[:80]:
            for gt in clip.gt_actions:
                jitter = rng.uniform(-2.0, 2.0)
                t = min(max(gt.offset_s + jitter, 0.0), clip.window_len_s)
                preds.append(pred(clip, gt.label, t, rng.random()))
        report = evaluate(eval_clips[:80], preds)
        maps = [report.map_at[d] for d in report.deltas]
        assert maps == sorted(maps)

    def test_permutation_invariance(self, eval_clips):
        rng = random.Random(13)
        preds = []
        for clip in eval_clips[:60]:
            for gt in clip.gt_actions:
                t = min(max(gt.offset_s + rng.gauss(0, 1), 0.0), clip.window_len_s)
                preds.append(pred(clip, gt.label, t, rng.random()))
        # include byte-identical duplicates: their flags must not depend on
        # input order either
        preds += preds[:5]
        base = evaluate(eval_clips[:60], preds)
        for seed in (1, 2):
            shuffled = preds[:]
            random.Random(seed).shuffle(shuffled)
            again = evaluate(eval_clips[:60], shuffled)
            assert again == base

    def test_confidence_scaling_invariance(self, eval_clips):
        rng = random.Random(29)
        preds = []
        for clip in eval_clips[:40]:
            for gt in clip.gt_actions:
                t = min(max(gt.offset_s + rng.gauss(0, 1), 0.0), clip.window_len_s)
                preds.append(pred(clip, gt.label, t, 0.2 + 0.8 * rng.random()))
        base = evaluate(eval_clips[:40], preds)
        scaled = [
            Prediction(p.clip_id, p.label, p.time_s, p.confidence * 0.5)
            for p in preds
        ]
        again = evaluate(eval_clips[:40], scaled)
        assert again.map_at == base.map_at
        assert again.average == base.average

    def test_unknown_clip_rejected(self):
        clips = [make_clip([(PASS, 1_000)])]
        stray = Prediction("nope:1:0000000", PASS, 1.0, 0.5)
        with pytest.raises(MetricError, match="unknown clip"):
            evaluate(clips, [stray])

    def test_excluded_prediction_class_rejected(self):
        clips = [make_clip([(PASS, 1_000)])]
        bad = pred(clips[0], ActionClass.GOAL, 1.0, 0.5)
        with pytest.raises(MetricError, match="excluded class"):
            evaluate(clips, [bad])

    def test_excluded_gt_class_rejected(self):
        clips = [make_clip([(ActionClass.FREE_KICK, 1_000)])]
        with pytest.raises(MetricError, match="excluded class"):
            evaluate(clips, [])

    def test_time_outside_window_rejected(self):
        clips = [make_clip([(PASS, 1_000)])]
        bad = pred(clips[0], PASS, 5.5, 0.5)
        with pytest.raises(MetricError, match="outside"):
            evaluate(clips, [bad])

    def test_duplicate_clip_ids_rejected(self):
        clip = make_clip([(PASS, 1_000)])
        with pytest.raises(MetricError, match="duplicate clip id"):
            evaluate([clip, clip], [])

    def test_duplicate_deltas_rejected(self):
        with pytest.raises(MetricError, match="duplicate"):
            evaluate([make_clip([])], [], deltas=(1.0, 1.0))

    def test_empty_deltas_rejected(self):
        with pytest.raises(MetricError, match="tolerance"):
            evaluate([make_clip([])], [], deltas=())

    def test_clamped_predictions_counted(self):
        clips = [make_clip([(PASS, 1_000)])]
        preds = [
            pred(clips[0], PASS, 5.0, 0.9, clamped=True),
            pred(clips[0], PASS, 1.0, 0.8),
        ]
        report = evaluate(clips, preds)
        assert report.clamped_predictions == 1

    def test_prediction_validation(self):
        with pytest.raises(MetricError):
            Prediction("c", PASS, -0.1, 0.5)
        with pytest.raises(MetricError):
            Prediction("c", PASS, math.nan, 0.5)
        with pytest.raises(MetricError):
            Prediction("c", PASS, 1.0, 1.5)


class TestPrediction:
    def test_positional_and_keyword_construction_agree(self):
        by_position = Prediction("c", PASS, 1.5, 0.25, True)
        by_keyword = Prediction(
            clip_id="c", label=PASS, time_s=1.5, confidence=0.25, time_clamped=True
        )
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
        assert (by_position.clip_id, by_position.label) == ("c", PASS)
        assert (by_position.time_s, by_position.confidence) == (1.5, 0.25)
        assert by_position.time_clamped is True

    def test_time_clamped_defaults_to_false(self):
        assert Prediction("c", PASS, 1.0, 0.5).time_clamped is False
        assert Prediction(clip_id="c", label=PASS, time_s=1.0, confidence=0.5).time_clamped is False

    def test_unpacks_and_compares_as_a_five_tuple(self):
        p = Prediction("c", SHOT, 2.0, 0.75)
        clip_id, label, time_s, confidence, clamped = p
        assert (clip_id, label, time_s, confidence, clamped) == ("c", SHOT, 2.0, 0.75, False)
        assert p == ("c", SHOT, 2.0, 0.75, False)
        assert hash(p) == hash(("c", SHOT, 2.0, 0.75, False))
        assert p != Prediction("c", SHOT, 2.0, 0.75, True)

    @pytest.mark.parametrize(
        "time_s, confidence, message",
        [
            (-0.1, 0.5, "prediction time -0.1 must be finite and >= 0"),
            (math.nan, 0.5, "prediction time nan must be finite and >= 0"),
            (math.inf, 0.5, "prediction time inf must be finite and >= 0"),
            (1.0, 1.5, "confidence 1.5 outside [0, 1]"),
            (1.0, -0.5, "confidence -0.5 outside [0, 1]"),
            (1.0, math.nan, "confidence nan outside [0, 1]"),
        ],
    )
    def test_validation_messages(self, time_s, confidence, message):
        with pytest.raises(MetricError) as info:
            Prediction("c", PASS, time_s, confidence)
        assert str(info.value) == message
        with pytest.raises(MetricError) as info:
            Prediction(clip_id="c", label=PASS, time_s=time_s, confidence=confidence)
        assert str(info.value) == message

    def test_replace_is_validated(self):
        p = Prediction("c", PASS, 1.0, 0.5)
        assert p._replace(confidence=0.25) == Prediction("c", PASS, 1.0, 0.25)
        with pytest.raises(MetricError, match="confidence 2.0 outside"):
            p._replace(confidence=2.0)

    GOOD = Prediction("c", PASS, 1.0, 0.5)

    def builds(self, change):
        """GOOD with ``change``, built positionally, by keyword, by _make and by _replace."""
        values = {**self.GOOD._asdict(), **change}
        return [
            lambda: Prediction(*values.values()),
            lambda: Prediction(**values),
            lambda: Prediction._make(values.values()),
            lambda: self.GOOD._replace(**change),
        ]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"time_s": True}, "time_s must be a float or an int, got True"),
            ({"time_s": False}, "time_s must be a float or an int, got False"),
            ({"confidence": True}, "confidence must be a float or an int, got True"),
            ({"confidence": False}, "confidence must be a float or an int, got False"),
            ({"time_s": "1.0"}, "time_s must be a float or an int, got '1.0'"),
            ({"time_s": 10**400}, "time_s is an int too large for a float"),
            ({"confidence": 10**400}, "confidence is an int too large for a float"),
            ({"clip_id": 7}, "clip_id must be a string, got 7"),
            ({"clip_id": None}, "clip_id must be a string, got None"),
            ({"clip_id": b"c"}, "clip_id must be a string, got b'c'"),
            ({"label": "Pass"}, "label must be an ActionClass, got 'Pass'"),
            (
                {"label": HeadVariant.Q_ACT},
                "label must be an ActionClass, got <HeadVariant.Q_ACT: 'q-act'>",
            ),
        ],
        ids=[
            "true-time", "false-time", "true-confidence", "false-confidence", "string-time",
            "huge-time", "huge-confidence", "int-clip", "none-clip", "bytes-clip",
            "string-label", "other-enum-label",
        ],
    )
    def test_value_form_is_checked_every_way_in(self, change, message):
        for build in self.builds(change):
            with pytest.raises(MetricError) as info:
                build()
            assert str(info.value) == message

    class Seconds(float):
        def __repr__(self):
            return "Seconds()"

    class Name(str):
        pass

    @pytest.mark.parametrize(
        "change",
        [
            {"time_s": 3, "confidence": 1},
            {"time_s": 0, "confidence": 0},
            {"time_s": Seconds(2.5), "confidence": Seconds(0.25)},
            {"clip_id": Name("c")},
        ],
        ids=["ints", "zeros", "float-subclass", "str-subclass"],
    )
    def test_values_are_held_in_their_exact_types(self, change):
        values = tuple({**self.GOOD._asdict(), **change}.values())
        for build in self.builds(change):
            p = build()
            assert p == values
            assert [type(v) for v in p] == [str, ActionClass, float, float, bool]
            assert repr(p.time_s) == repr(float(values[2]))

    @pytest.mark.parametrize(
        "field", ["clip_id", "label", "time_s", "confidence", "time_clamped"]
    )
    def test_immutable(self, field):
        p = Prediction("c", PASS, 1.0, 0.5)
        with pytest.raises(AttributeError):
            setattr(p, field, getattr(p, field))
        with pytest.raises(AttributeError):
            p.extra = 1
        with pytest.raises(TypeError):
            p[0] = "d"


#: Few distinct values, so that confidences, times and clip ids tie often.
_TIED_CONFIDENCES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
_TIED_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 5.0])


@st.composite
def tied_instances(draw, games=("t/unit",)):
    """Clips with zero to two ground truths per class and dense tied predictions.

    Each clip gets a q x C block of predictions: every slot emits every
    drawn class, so many predictions of one (clip, class) group share the
    same one or two ground truths.  Each clip's game is drawn from ``games``.
    """
    labels = [PASS, SHOT, ActionClass.DRIVE]
    clips, preds = [], []
    for k in range(draw(st.integers(1, 4))):
        gt = [
            (label, draw(st.sampled_from([0, 500, 1_000, 2_500, 4_999])))
            for label in labels
            for _ in range(draw(st.integers(0, 2)))
        ]
        gt.sort(key=lambda pair: pair[1])
        clip = make_clip(gt, clip_seq=k, game=draw(st.sampled_from(games)))
        clips.append(clip)
        for _ in range(draw(st.integers(0, 6))):  # slots
            time_s = draw(_TIED_TIMES)
            for label in labels:
                preds.append(pred(clip, label, time_s, draw(_TIED_CONFIDENCES)))
    order = draw(st.permutations(range(len(preds))))
    return clips, [preds[i] for i in order]


class TestNaiveEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(tied_instances(), st.sampled_from([(1.0,), (2.0, math.inf), (1.0, 3.0, 5.0)]))
    def test_tied_dense_groups_against_reference(self, instance, deltas):
        self.assert_reference_scores(*instance, deltas)

    @settings(max_examples=150, deadline=None)
    @given(tied_instances(games=("a", "a0")), st.sampled_from([(1.0,), (2.0, 5.0)]))
    def test_prefix_game_ids_against_reference(self, instance, deltas):
        # "a0:1:..." sorts before "a:1:..." ("0" < ":"), though game "a" sorts
        # before "a0": equal confidence and time are decided by the whole clip id.
        clips, preds = instance
        self.assert_reference_scores(clips, preds, deltas)
        at_inf = evaluate(clips, preds, (math.inf,)).scores[math.inf]
        assert at_inf == closed_form_at_inf(clips, preds)

    @staticmethod
    def assert_reference_scores(clips, preds, deltas):
        report = evaluate(clips, preds, deltas=deltas)
        aps, maps, avg = naive_evaluate(clips, preds, deltas, RETAINED_CLASSES)
        for delta in deltas:
            for label in RETAINED_CLASSES:
                got = report.scores[delta][label].ap
                if aps[delta][label] is None:
                    assert got is None
                else:
                    assert got == pytest.approx(aps[delta][label], abs=1e-9)
            assert report.map_at[delta] == pytest.approx(maps[delta], abs=1e-9)
        assert report.average == pytest.approx(avg, abs=1e-9)

    def random_instance(self, rng):
        labels = [PASS, SHOT, ActionClass.DRIVE]
        clips = []
        preds = []
        for k in range(rng.randint(1, 8)):
            gt = []
            for label in labels:
                for _ in range(rng.randint(0, 3)):
                    gt.append((label, rng.randint(0, 4_999)))
            gt.sort(key=lambda pair: pair[1])
            clip = make_clip(gt, clip_seq=k)
            clips.append(clip)
            for label in labels:
                for _ in range(rng.randint(0, 4)):
                    preds.append(
                        pred(
                            clip,
                            label,
                            round(rng.uniform(0, 5.0), 3),
                            round(rng.random(), 3),
                        )
                    )
        return clips, preds

    def test_randomized_against_reference(self):
        rng = random.Random(99)
        deltas = (1.0, 3.0, math.inf)
        for _ in range(150):
            clips, preds = self.random_instance(rng)
            report = evaluate(clips, preds, deltas=deltas)
            aps, maps, avg = naive_evaluate(clips, preds, deltas, RETAINED_CLASSES)
            for delta in deltas:
                for label in RETAINED_CLASSES:
                    got = report.scores[delta][label].ap
                    want = aps[delta][label]
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)
                assert report.map_at[delta] == pytest.approx(maps[delta], abs=1e-9)
            assert report.average == pytest.approx(avg, abs=1e-9)


def closed_form_at_inf(clips, preds):
    """Per-class scores at delta = inf, without matching.

    With an unbounded tolerance any prediction may take any unmatched ground
    truth of its (clip, class) group, so the group's TPs are exactly its first
    ``min(#predictions, #ground truth)`` predictions in rank order
    (descending confidence, then time, then clip id; stable in input order).
    """
    gt_count = Counter((clip.clip_id, a.label) for clip in clips for a in clip.gt_actions)
    taken = Counter()
    flags = {label: [] for label in RETAINED_CLASSES}
    for p in sorted(preds, key=lambda p: (-p.confidence, p.time_s, p.clip_id)):
        group = (p.clip_id, p.label)
        flags[p.label].append(taken[group] < gt_count[group])
        taken[group] += 1
    scores = {}
    for label, ranked in flags.items():
        total = sum(n for (_, lab), n in gt_count.items() if lab == label)
        tp = sum(ranked)
        ap = fraction_ap(ranked, total) if total else None
        scores[label] = ClassScore(ap=ap, tp=tp, fp=len(ranked) - tp, gt=total)
    return scores


class TestClosedFormOracles:
    """Properties of evaluate that hold whatever the greedy matching does."""

    @settings(max_examples=150, deadline=None)
    @given(tied_instances())
    def test_infinite_tolerance_in_closed_form(self, instance):
        clips, preds = instance
        assert evaluate(clips, preds, (math.inf,)).scores[math.inf] == closed_form_at_inf(
            clips, preds
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda n: st.tuples(*(tied_instances(games=(f"t/game-{i}",)) for i in range(n)))
        )
    )
    def test_counts_add_up_over_games(self, games):
        whole = evaluate(
            [c for clips, _ in games for c in clips], [p for _, preds in games for p in preds]
        )
        parts = [evaluate(clips, preds) for clips, preds in games]
        for delta in DEFAULT_DELTAS:
            for label in RETAINED_CLASSES:
                got = whole.scores[delta][label]
                for field in ("tp", "fp", "gt"):
                    assert getattr(got, field) == sum(
                        getattr(part.scores[delta][label], field) for part in parts
                    )

    @settings(max_examples=150, deadline=None)
    @given(tied_instances(), st.data())
    def test_scores_depend_only_on_confidence_rank(self, instance, data):
        clips, preds = instance
        levels = sorted({p.confidence for p in preds})
        new_levels = data.draw(
            st.lists(
                st.floats(0.0, 1.0), min_size=len(levels), max_size=len(levels), unique=True
            ).map(sorted)
        )
        remap = dict(zip(levels, new_levels))  # strictly increasing into [0, 1]
        mapped = [p._replace(confidence=remap[p.confidence]) for p in preds]
        assert evaluate(clips, mapped).scores == evaluate(clips, preds).scores

    @settings(max_examples=150, deadline=None)
    @given(tied_instances())
    def test_infinite_tolerance_finds_the_most(self, instance):
        clips, preds = instance
        report = evaluate(clips, preds)
        for label in RETAINED_CLASSES:
            at_inf = report.scores[math.inf][label].tp
            assert all(at_inf >= report.scores[d][label].tp for d in DEFAULT_DELTAS)
