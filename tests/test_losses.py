"""Reference loss components and the weighted total."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kickcast.annotations import ActionClass
from kickcast.config import BenchConfig
from kickcast.losses import (
    EPS_PROB,
    LossError,
    LossParts,
    SlotOutput,
    check_distribution,
    loss_class,
    loss_detection,
    loss_segmentation,
    loss_time,
    total_loss,
)
from kickcast.targets import (
    BLANK,
    UNCONSTRAINED,
    Assignment,
    HeadVariant,
    SlotTarget,
    assign_for_variant,
)
from kickcast.timecodec import EPS_TIME
from kickcast.windowing import GtAction, SegGrid

CFG = BenchConfig()
C = CFG.num_classes


def onehot(idx, n=C, value=1.0):
    probs = [(1.0 - value) / (n - 1)] * n
    probs[idx] = value
    return tuple(probs)


def out_for(slot, n=C):
    """A slot output that nails its target exactly."""
    if slot.actionness is None:
        return SlotOutput(0.5, (1.0 / n,) * n, 0.0)
    act = slot.actionness
    if slot.class_index is not None:
        probs = onehot(slot.class_index, max(n, slot.class_index + 1))
    elif slot.class_multihot is not None:
        probs = tuple(float(y) for y in slot.class_multihot)
    else:
        probs = (1.0 / n,) * n
    raw = math.log(slot.time + EPS_TIME) if slot.time is not None else 0.0
    return SlotOutput(act, probs, raw)


def assignment_for(offsets_ms, variant=HeadVariant.Q_ACT, cfg=CFG):
    gt = tuple(GtAction(ActionClass.PASS, o) for o in offsets_ms)
    return assign_for_variant(variant, gt, cfg)


class TestSlotOutput:
    def test_bounds_enforced(self):
        with pytest.raises(LossError):
            SlotOutput(1.5, (1.0,), 0.0)
        with pytest.raises(LossError):
            SlotOutput(0.5, (1.2, -0.2), 0.0)
        with pytest.raises(LossError):
            SlotOutput(0.5, (1.0,), math.nan)

    def test_multihot_style_probs_allowed(self):
        # sigmoid outputs need not sum to one at construction time
        SlotOutput(0.5, (0.9, 0.9, 0.9), 0.0)

    def test_check_distribution(self):
        check_distribution((0.25,) * 4)
        with pytest.raises(LossError, match="sums to"):
            check_distribution((0.9, 0.9))

    def test_check_distribution_rejects_nan(self):
        with pytest.raises(LossError, match="sums to nan"):
            check_distribution((math.nan, 0.5, 0.5))


class TestDetection:
    def test_perfect_outputs_zero_loss(self):
        a = assignment_for([400, 2_700])
        outs = [out_for(s) for s in a.slots]
        assert loss_detection(outs, a) == 0.0

    def test_half_confidence_is_ln2(self):
        a = assignment_for([400])
        outs = [SlotOutput(0.5, (1.0 / C,) * C, 0.0) for _ in a.slots]
        assert loss_detection(outs, a) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_unconstrained_slots_skipped(self):
        cfg = BenchConfig(queries=4)
        a = assignment_for([400], variant=HeadVariant.Q_EOS, cfg=cfg)
        assert UNCONSTRAINED in a.slots
        # a wildly wrong output on the unconstrained slots must not matter
        outs = [
            out_for(s) if s.actionness is not None else SlotOutput(1.0, (1.0 / C,) * C, 9.9)
            for s in a.slots
        ]
        assert loss_detection(outs, a) == 0.0

    def test_mean_over_supervised_slots(self):
        a = assignment_for([400])
        outs = []
        for s in a.slots:
            p = 0.9 if s.actionness == 1.0 else 0.2
            outs.append(SlotOutput(p, (1.0 / C,) * C, 0.0))
        expect = (-math.log(0.9) + 7 * -math.log(0.8)) / 8
        assert loss_detection(outs, a) == pytest.approx(expect, rel=1e-12)

    def test_clamped_at_eps(self):
        a = assignment_for([400])
        outs = [SlotOutput(0.0 if s.actionness == 1.0 else 0.0, (1.0 / C,) * C, 0.0) for s in a.slots]
        got = loss_detection(outs, a)
        assert got == pytest.approx(-math.log(EPS_PROB) / 8, rel=1e-12)

    def test_length_mismatch(self):
        a = assignment_for([400])
        with pytest.raises(LossError, match="outputs"):
            loss_detection([SlotOutput(0.5, (1.0 / C,) * C, 0.0)], a)

    def test_soft_target(self):
        p = 0.9
        a = Assignment(HeadVariant.Q_ACT, (SlotTarget(gt_index=None, actionness=0.5),), False)
        got = loss_detection([SlotOutput(p, (1.0 / C,) * C, 0.0)], a)
        assert got == pytest.approx(-(0.5 * math.log(p) + 0.5 * math.log(1.0 - p)), rel=1e-15)

    @pytest.mark.parametrize("target", [5.0, -0.5, math.nan])
    def test_target_outside_unit_interval(self, target):
        a = Assignment(HeadVariant.Q_ACT, (SlotTarget(gt_index=None, actionness=target),), False)
        with pytest.raises(LossError, match=r"actionness target .* outside \[0, 1\]"):
            loss_detection([SlotOutput(0.9, (1.0 / C,) * C, 0.0)], a)


class TestClassification:
    def test_uniform_ten_way_is_ln10(self):
        a = assignment_for([400])
        outs = [SlotOutput(1.0, (0.1,) * C, 0.0) for _ in a.slots]
        # only the paired slot has a class target under q-act
        assert loss_class(outs, a) == pytest.approx(math.log(10.0), abs=1e-12)
        assert loss_class(outs, a) == -math.log(0.1)

    def test_weight_scales_term(self):
        a = assignment_for([400])
        outs = [SlotOutput(1.0, (0.1,) * C, 0.0) for _ in a.slots]
        weights = [3.0] + [1.0] * (C - 1)  # Pass weight 3
        assert loss_class(outs, a, weights) == pytest.approx(-3.0 * math.log(0.1))

    def test_perfect_prediction_zero_loss(self):
        a = assignment_for([400, 2_700])
        outs = [out_for(s) for s in a.slots]
        assert loss_class(outs, a) == 0.0

    def test_sentinel_class_weight_is_one(self):
        cfg = BenchConfig(queries=2)
        a = assignment_for([], variant=HeadVariant.Q_BCKG, cfg=cfg)
        # sentinel index C needs a (C+1)-way distribution
        outs = [SlotOutput(0.0, (1.0 / (C + 1),) * (C + 1), 0.0)] * 2
        weights = [99.0] * C  # big real-class weights must not leak onto C
        assert loss_class(outs, a, weights) == pytest.approx(math.log(C + 1))

    def test_multihot_oracle(self):
        a = assignment_for([400, 2_700], variant=HeadVariant.Q_BCE)
        p = 0.7
        outs = [SlotOutput(1.0, (p,) * C, 0.0) for _ in a.slots]
        weights = [2.0] * C

        def bce(hot):
            terms = [
                (-2.0 * math.log(p)) if y else (-math.log(1.0 - p)) for y in hot
            ]
            return math.fsum(terms) / len(terms)

        expect = math.fsum(bce(s.class_multihot) for s in a.slots) / len(a.slots)
        assert loss_class(outs, a, weights) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("entry", [2, -1])
    def test_multihot_entry_not_binary_rejected(self, entry):
        hot = (entry,) + (0,) * (C - 1)
        a = Assignment(
            HeadVariant.Q_BCE,
            (SlotTarget(gt_index=0, actionness=1.0, class_multihot=hot),),
            truncated=False,
        )
        with pytest.raises(LossError, match="other than 0 or 1"):
            loss_class([SlotOutput(1.0, (0.7,) * C, 0.0)], a)

    def test_multihot_probs_need_not_sum_to_one(self):
        a = assignment_for([400], variant=HeadVariant.Q_BCE)
        outs = [SlotOutput(1.0, (0.9,) * C, 0.0) for _ in a.slots]
        loss_class(outs, a)  # must not raise

    def test_softmax_sum_enforced(self):
        a = assignment_for([400])
        outs = [SlotOutput(1.0, (0.9,) * C, 0.0) for _ in a.slots]
        with pytest.raises(LossError, match="sums to"):
            loss_class(outs, a)

    def test_no_class_targets_zero(self):
        a = Assignment(HeadVariant.Q_ACT, (BLANK,) * 4, truncated=False)
        outs = [SlotOutput(0.0, (1.0 / C,) * C, 0.0)] * 4
        assert loss_class(outs, a) == 0.0

    def test_target_outside_distribution(self):
        a = Assignment(
            HeadVariant.Q_BCKG,
            (SlotTarget(gt_index=None, actionness=0.0, class_index=C),),
            truncated=False,
        )
        outs = [SlotOutput(0.0, (0.1,) * C, 0.0)]
        with pytest.raises(LossError, match="outside distribution"):
            loss_class(outs, a)

    @pytest.mark.parametrize("index", [-1, -10, True, 1.5])
    def test_index_not_in_range_rejected(self, index):
        # negative indices would wrap around and score another class; a bool
        # would stand for 0 or 1, and a float cannot index at all
        a = Assignment(
            HeadVariant.Q_ACT,
            (SlotTarget(gt_index=0, actionness=1.0, class_index=index),),
            truncated=False,
        )
        outs = [SlotOutput(1.0, (0.1,) * C, 0.0)]
        with pytest.raises(LossError, match="outside distribution"):
            loss_class(outs, a)


class TestTime:
    def test_exact_log_target_zero_loss(self):
        a = assignment_for([400, 2_700])
        outs = [out_for(s) for s in a.slots]
        assert loss_time(outs, a) == 0.0

    def test_mse_oracle(self):
        a = assignment_for([400, 2_700])
        raws = [0.3, -1.2]
        outs = []
        it = iter(raws)
        for s in a.slots:
            outs.append(SlotOutput(1.0 if s.time is not None else 0.0, (0.1,) * C, next(it) if s.time is not None else 0.0))
        us = [math.log(s.time + EPS_TIME) for s in a.slots if s.time is not None]
        expect = math.fsum((r - u) ** 2 for r, u in zip(raws, us)) / 2
        assert loss_time(outs, a) == pytest.approx(expect, rel=1e-12)

    def test_no_paired_slots_zero(self):
        a = assignment_for([])
        outs = [SlotOutput(0.0, (0.1,) * C, 5.0)] * CFG.queries
        assert loss_time(outs, a) == 0.0

    def test_time_target_outside_unit_interval(self):
        a = Assignment(
            HeadVariant.Q_ACT,
            (SlotTarget(gt_index=0, actionness=1.0, class_index=0, time=1.0),),
            truncated=False,
        )
        with pytest.raises(LossError, match=r"outside \[0, 1\)"):
            loss_time([SlotOutput(1.0, (0.1,) * C, 0.0)], a)


class TestSegmentation:
    def test_uniform_eleven_way(self):
        grid = SegGrid(labels=(0,) * 32)
        dists = [(1.0 / (C + 1),) * (C + 1)] * 32
        assert loss_segmentation(dists, grid) == pytest.approx(math.log(C + 1))

    def test_perfect_prediction_zero(self):
        grid = SegGrid(labels=(0, 3, 0))
        dists = [onehot(lab, C + 1) for lab in grid.labels]
        assert loss_segmentation(dists, grid) == 0.0

    def test_weights_apply_to_foreground_only(self):
        grid = SegGrid(labels=(0, 1))
        dists = [(0.5,) * 2 + (0.0,) * (C - 1)] * 2
        weights = [4.0] + [1.0] * (C - 1)
        # background term unweighted, class-0 term weighted by 4
        expect = (math.log(2.0) + 4.0 * math.log(2.0)) / 2
        assert loss_segmentation(dists, grid, weights) == pytest.approx(expect)

    def test_length_mismatch(self):
        grid = SegGrid(labels=(0, 0))
        with pytest.raises(LossError, match="frame distributions"):
            loss_segmentation([(1.0,) * 1], grid)

    def test_distribution_sum_enforced(self):
        grid = SegGrid(labels=(0,))
        with pytest.raises(LossError, match="sums to"):
            loss_segmentation([(0.7, 0.7)], grid)

    def test_label_outside_distribution(self):
        grid = SegGrid(labels=(5,))
        with pytest.raises(LossError, match="outside distribution"):
            loss_segmentation([(0.5, 0.5)], grid)


class TestTotal:
    def test_unit_parts_with_default_lambdas(self):
        # lambdas (1, 1, 10, 1) -> 13 on all-ones parts
        assert total_loss(LossParts(1.0, 1.0, 1.0, 1.0), CFG) == 13.0

    def test_zero_parts(self):
        assert total_loss(LossParts(0.0, 0.0, 0.0, 0.0), CFG) == 0.0

    def test_linearity_in_each_part(self):
        base = LossParts(0.2, 0.3, 0.05, 0.4)
        cfg = CFG
        got = total_loss(base, cfg)
        expect = 0.2 + 0.3 + 10 * 0.05 + 0.4
        assert got == pytest.approx(expect, rel=1e-15)

    @given(
        st.tuples(
            st.floats(0, 10, allow_nan=False),
            st.floats(0, 10, allow_nan=False),
            st.floats(0, 10, allow_nan=False),
            st.floats(0, 10, allow_nan=False),
        )
    )
    def test_total_non_negative(self, parts):
        assert total_loss(LossParts(*parts), CFG) >= 0.0


class TestRoundTrip:
    def test_encode_decode_error_within_tolerance(self):
        from kickcast.timecodec import decode_time, encode_time

        ta = CFG.anticipation_s
        tol = EPS_TIME * ta * (1.0 + 1e-9)
        for k in range(1, 500):
            t = k * ta / 500.0
            if t >= ta:
                break
            raw = encode_time(t, ta)
            assert abs(decode_time(raw, ta) - t) <= tol

    def test_worked_decode(self):
        from kickcast.timecodec import decode_time

        assert decode_time(math.log(0.5), 5.0) == 2.5
