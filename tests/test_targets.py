"""Query-slot target assignment across head variants, plus the matcher itself."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickcast.annotations import ActionClass, CLASS_INDEX
import kickcast.cli as cli
from kickcast.cli import main
from kickcast.config import BenchConfig
from kickcast.losses import SlotOutput
from kickcast.metrics import MetricError, decode_predictions
from kickcast.targets import (
    BLANK,
    HEADS,
    UNCONSTRAINED,
    Assignment,
    HeadSpec,
    HeadVariant,
    Pairing,
    SlotTarget,
    TargetError,
    assign_for_variant,
    hungarian,
)
from kickcast.windowing import GtAction, make_train_clips

from conftest import FIXTURE_DIR

CFG = BenchConfig()  # T_a = 5 s, q = 8, C = 10
C = CFG.num_classes


def gts(*offsets_ms, label=ActionClass.PASS):
    return tuple(GtAction(label, o) for o in offsets_ms)


def slot_out(actionness=1.0, probs=None, time_raw=-1.0, classes=C):
    if probs is None:
        probs = (1.0 / classes,) * classes
    return SlotOutput(actionness=actionness, class_probs=tuple(probs), time_raw=time_raw)


def brute_force_min(cost):
    """Exhaustive oracle: minimum total cost and its smallest pairing."""
    n_rows, n_cols = len(cost), len(cost[0])
    k = min(n_rows, n_cols)
    best = None
    rows_all = range(n_rows)
    for rows in itertools.permutations(rows_all, k) if n_rows > n_cols else [tuple(rows_all)]:
        for cols in itertools.permutations(range(n_cols), k):
            pairs = tuple(sorted(zip(rows, cols)))
            total = sum(cost[r][c] for r, c in pairs)
            key = (total, pairs)
            if best is None or key < best:
                best = key
    return best


class TestSequential:
    """Sequential pairing through the q-act head (q = 8, T_a = 5 s)."""

    def test_three_actions_eight_slots(self):
        gt = gts(400, 1_000, 4_999)
        a = assign_for_variant(HeadVariant.Q_ACT, gt, CFG)
        assert a.variant is HeadVariant.Q_ACT
        assert not a.truncated
        assert a.paired == ((0, 0), (1, 1), (2, 2))
        assert a.slots[0].time == pytest.approx(0.08)
        assert a.slots[0].class_index == CLASS_INDEX[ActionClass.PASS]
        assert a.slots[3:] == (BLANK,) * 5

    def test_empty_window(self):
        a = assign_for_variant(HeadVariant.Q_ACT, (), CFG)
        assert a.slots == (BLANK,) * 8
        assert a.paired == ()
        assert not a.truncated

    def test_overflow_marks_truncated(self):
        gt = gts(*range(0, 4_500, 500))  # nine actions, eight slots
        a = assign_for_variant(HeadVariant.Q_ACT, gt, CFG)
        assert a.truncated
        assert len(a.paired) == 8
        # first eight actions kept, in time order
        assert [k for _, k in a.paired] == list(range(8))

    def test_counting_oracle(self):
        for n in range(0, 12):
            gt = gts(*range(0, n * 400, 400))
            a = assign_for_variant(HeadVariant.Q_ACT, gt, CFG)
            assert len(a.paired) == min(n, 8)
            assert a.truncated == (n > 8)

    def test_unsorted_gt_rejected(self):
        with pytest.raises(TargetError, match="sorted"):
            assign_for_variant(HeadVariant.Q_ACT, gts(1_000, 400), CFG)

    def test_out_of_window_gt_rejected(self):
        with pytest.raises(TargetError, match="outside window"):
            assign_for_variant(HeadVariant.Q_ACT, gts(5_000), CFG)
        with pytest.raises(TargetError, match="outside window"):
            assign_for_variant(HeadVariant.Q_ACT, (GtAction(ActionClass.PASS, -1),), CFG)


class TestHungarian:
    def test_diagonal_zero_matrix(self):
        cost = [[0, 9, 9], [9, 0, 9], [9, 9, 0]]
        assert hungarian(cost) == ((0, 0), (1, 1), (2, 2))

    def test_single_cell(self):
        assert hungarian([[5.0]]) == ((0, 0),)

    def test_empty(self):
        assert hungarian([]) == ()

    def test_worked_cross_pairing(self):
        # cheaper to swap than to match the diagonal
        cost = [[10, 1], [1, 10]]
        assert hungarian(cost) == ((0, 1), (1, 0))

    def test_rectangular_wide(self):
        cost = [[4, 1, 3], [2, 0, 5]]
        pairs = hungarian(cost)
        assert pairs == brute_force_min(cost)[1]

    def test_rectangular_tall(self):
        cost = [[4, 1], [3, 2], [0, 5]]
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert pairs == brute_force_min(cost)[1]

    def test_all_equal_costs_pick_lexicographic_identity(self):
        cost = [[7] * 4 for _ in range(4)]
        assert hungarian(cost) == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_exhaustive_oracle_small_integer_matrices(self):
        rng = random.Random(20240915)
        for _ in range(1_500):
            n_rows = rng.randint(1, 4)
            n_cols = rng.randint(1, 4)
            cost = [[rng.randint(0, 9) for _ in range(n_cols)] for _ in range(n_rows)]
            total, pairs = brute_force_min(cost)
            got = hungarian(cost)
            assert sum(cost[r][c] for r, c in got) == total
            assert got == pairs

    @pytest.mark.parametrize(
        "n_rows, n_cols",
        [(8, 1), (8, 2), (8, 3), (1, 8), (2, 8), (3, 8), (16, 2), (2, 16)],
    )
    def test_exhaustive_oracle_live_shapes(self, n_rows, n_cols):
        # Slots x actions as in training (q = 8 or 16), and transposed.  Costs
        # are multiples of 0.25, so sums are exact and ties are frequent.
        rng = random.Random(f"live-{n_rows}x{n_cols}")
        for _ in range(60):
            cost = [[rng.randint(0, 6) * 0.25 for _ in range(n_cols)] for _ in range(n_rows)]
            total, pairs = brute_force_min(cost)
            got = hungarian(cost)
            assert sum(cost[r][c] for r, c in got) == total
            assert got == pairs

    def test_float_near_tie_resolves_to_exact_optimum(self):
        # 0.3 + 0.1 and 0.2 + 0.2 are equal in decimal, not as binary floats.
        cost = [[0.2, 0.7], [0.3, 0.3], [0.1, 0.2]]
        exact = [[Fraction(v) for v in row] for row in cost]
        assert hungarian(cost) == brute_force_min(exact)[1] == ((1, 1), (2, 0))

    @pytest.mark.parametrize("n_rows, n_cols", [(16, 16), (16, 3), (3, 16), (8, 8)])
    def test_total_cost_matches_scipy(self, n_rows, n_cols):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(f"scipy-{n_rows}x{n_cols}")
        for _ in range(40):
            cost = [[rng.random() for _ in range(n_cols)] for _ in range(n_rows)]
            got = hungarian(cost)
            rows, cols = optimize.linear_sum_assignment(cost)
            assert len(got) == len(rows) == min(n_rows, n_cols)
            assert len({r for r, _ in got}) == len({c for _, c in got}) == len(got)
            ours = math.fsum(cost[r][c] for r, c in got)
            theirs = math.fsum(cost[r][c] for r, c in zip(rows, cols))
            assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-12)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_scaling_costs_preserves_pairing(self, cost, factor):
        scaled = [[v * factor for v in row] for row in cost]
        assert hungarian(cost) == hungarian(scaled)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(TargetError, match="expected 2"):
            hungarian([[1, 2], [3]])

    def test_negative_cost_rejected(self):
        with pytest.raises(TargetError, match="finite and >= 0"):
            hungarian([[-1.0]])

    def test_non_finite_cost_rejected(self):
        with pytest.raises(TargetError, match="finite and >= 0"):
            hungarian([[math.inf]])


class TestVariants:
    def test_qeos_sentinel_then_unconstrained(self):
        # q = 4 keeps the worked shape small: two actions, EoS at slot 2,
        # slot 3 carries no loss at all
        cfg = BenchConfig(queries=4)
        a = assign_for_variant(HeadVariant.Q_EOS, gts(400, 2_700), cfg)
        assert a.slots[0].gt_index == 0 and a.slots[1].gt_index == 1
        assert a.slots[2].class_index == cfg.num_classes
        assert a.slots[2].actionness == 0.0
        assert a.slots[3] is UNCONSTRAINED
        assert a.slots[3].actionness is None

    def test_qeos_full_window_has_no_sentinel(self):
        cfg = BenchConfig(queries=4)
        a = assign_for_variant(HeadVariant.Q_EOS, gts(100, 200, 300, 400), cfg)
        assert all(s.gt_index is not None for s in a.slots)

    def test_qeos_empty_window_is_immediate_eos(self):
        a = assign_for_variant(HeadVariant.Q_EOS, (), CFG)
        assert a.slots[0].class_index == C
        assert a.slots[1:] == (UNCONSTRAINED,) * (CFG.queries - 1)

    def test_qbckg_all_unpaired_become_background(self):
        a = assign_for_variant(HeadVariant.Q_BCKG, gts(400), CFG)
        assert a.slots[0].gt_index == 0
        for s in a.slots[1:]:
            assert s.class_index == C
            assert s.actionness == 0.0

    def test_qbce_multihot_shapes(self):
        a = assign_for_variant(HeadVariant.Q_BCE, gts(400, 2_700), CFG)
        hot = a.slots[0].class_multihot
        assert sum(hot) == 1 and hot[CLASS_INDEX[ActionClass.PASS]] == 1
        assert a.slots[0].class_index is None
        for s in a.slots[2:]:
            assert s.class_multihot == (0,) * C
            assert s.actionness == 0.0

    def test_paired_time_is_window_fraction(self):
        a = assign_for_variant(HeadVariant.Q_ACT, gts(2_700), CFG)
        assert a.slots[0].time == pytest.approx(0.54)
        assert 0.0 <= a.slots[0].time < 1.0


class TestHungarianVariants:
    def test_time_cost_worked_pairing(self):
        # model guesses (0.5 s, 3.0 s); actions sit at 0.6 s and 2.9 s
        outputs = [
            slot_out(time_raw=math.log(0.5 / 5.0)),
            slot_out(time_raw=math.log(3.0 / 5.0)),
        ] + [slot_out(time_raw=0.0)] * 6
        gt = gts(600, 2_900)
        a = assign_for_variant(HeadVariant.Q_HUNG_TIME, gt, CFG, outputs=outputs)
        assert a.paired == ((0, 0), (1, 1))
        assert a.slots[0].time == pytest.approx(0.12)

    def test_class_cost_prefers_confident_slot(self):
        shot = CLASS_INDEX[ActionClass.SHOT]
        confident = [0.0] * C
        confident[shot] = 1.0
        outputs = [slot_out(probs=tuple(confident))] + [slot_out()] * 7
        a = assign_for_variant(
            HeadVariant.Q_HUNG_CLASS,
            gts(2_000, label=ActionClass.SHOT),
            CFG,
            outputs=outputs,
        )
        assert a.paired == ((0, 0),)

    def test_reduces_to_sequential_when_predictions_sit_on_gt(self):
        gt = gts(400, 1_800, 3_300)
        outputs = [
            slot_out(time_raw=math.log(g.offset_s / CFG.anticipation_s)) for g in gt
        ] + [slot_out(time_raw=0.0)] * 5
        hung = assign_for_variant(HeadVariant.Q_HUNG_TIME, gt, CFG, outputs=outputs)
        seq = assign_for_variant(HeadVariant.Q_ACT, gt, CFG)
        assert hung.paired == seq.paired
        assert hung.slots == seq.slots

    def test_empty_window_pairs_nothing(self):
        outputs = [slot_out()] * CFG.queries
        a = assign_for_variant(HeadVariant.Q_HUNG_TIME, (), CFG, outputs=outputs)
        assert a.paired == ()
        assert a.slots == (BLANK,) * CFG.queries

    def test_outputs_required(self):
        for variant in (v for v, spec in HEADS.items() if spec.needs_outputs):
            with pytest.raises(TargetError, match="needs model outputs"):
                assign_for_variant(variant, gts(400), CFG)

    def test_output_count_must_match_queries(self):
        with pytest.raises(TargetError, match="slot outputs"):
            assign_for_variant(
                HeadVariant.Q_HUNG_TIME, gts(400), CFG, outputs=[slot_out()] * 3
            )

    def test_truncation_with_more_actions_than_slots(self):
        cfg = BenchConfig(queries=2)
        outputs = [slot_out(time_raw=0.0)] * 2
        a = assign_for_variant(
            HeadVariant.Q_HUNG_TIME, gts(100, 200, 300), cfg, outputs=outputs
        )
        assert a.truncated
        assert len(a.paired) == 2


class TestAnchors:
    def test_worked_bin_and_offset(self):
        # 1.9 s with 8 bins over 5 s -> bin 3 ([1.875, 2.5)); in-bin offset
        # (1900 * 8 - 3 * 5000) / 5000 = 0.04 exactly
        a = assign_for_variant(HeadVariant.ANCHORS, gts(1_900), CFG)
        assert a.slots[3].gt_index == 0
        assert a.slots[3].time == 0.04
        assert sum(1 for s in a.slots if s.gt_index is not None) == 1

    def test_one_action_per_bin(self):
        # two actions in bin 0: the first in time order wins, extras flag
        # truncation
        a = assign_for_variant(HeadVariant.ANCHORS, gts(100, 500), CFG)
        assert a.truncated
        assert a.slots[0].gt_index == 0
        assert a.slots[0].time == pytest.approx(100 * 8 / 5000)

    def test_bin_times_in_unit_interval(self):
        gt = gts(0, 700, 1_400, 2_100, 2_800, 3_500, 4_200, 4_900)
        a = assign_for_variant(HeadVariant.ANCHORS, gt, CFG)
        assert not a.truncated
        for s in a.slots:
            assert s.gt_index is not None
            assert 0.0 <= s.time < 1.0

    def test_bin_index_oracle(self):
        for off in range(0, 5_000, 137):
            a = assign_for_variant(HeadVariant.ANCHORS, gts(off), CFG)
            holders = [i for i, s in enumerate(a.slots) if s.gt_index is not None]
            assert holders == [off * CFG.queries // CFG.anticipation_ms]

    @settings(max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=4_999), max_size=10).map(sorted))
    def test_anchor_invariants(self, offsets):
        gt = gts(*offsets)
        a = assign_for_variant(HeadVariant.ANCHORS, gt, CFG)
        filled = [s for s in a.slots if s.gt_index is not None]
        bins = {offset * CFG.queries // CFG.anticipation_ms for offset in offsets}
        assert len(filled) == len(bins)
        assert a.truncated == (len(offsets) > len(bins))


class TestAssignmentRecord:
    def test_paired_property_in_slot_order(self):
        slots = (
            SlotTarget(gt_index=1, actionness=1.0),
            BLANK,
            SlotTarget(gt_index=0, actionness=1.0),
        )
        a = Assignment(HeadVariant.Q_ACT, slots, truncated=False)
        assert a.paired == ((0, 1), (2, 0))

    def test_excluded_label_rejected(self):
        with pytest.raises(TargetError, match="retained"):
            assign_for_variant(
                HeadVariant.Q_ACT, gts(400, label=ActionClass.GOAL), CFG
            )


class TestHeadTable:
    def test_covers_every_variant(self):
        assert set(HEADS) == set(HeadVariant)

    @pytest.mark.parametrize("variant", list(HeadVariant), ids=lambda v: v.value)
    def test_targets_fit_the_decoder(self, variant, corpus):
        widths = []
        for width in range(C - 1, C + 3):
            outputs = [slot_out(classes=width)] * CFG.queries
            try:
                decode_predictions("clip", outputs, variant, CFG)
            except MetricError:
                continue
            widths.append(width)
        (width,) = widths
        indices, hot_widths = set(), set()
        game = next(g for g in corpus if g.split == "train")
        for clip in make_train_clips(game, CFG)[::5]:
            outputs = [slot_out(classes=width, time_raw=-0.4 * i) for i in range(CFG.queries)]
            for slot in assign_for_variant(variant, clip.future_actions, CFG, outputs).slots:
                if slot.class_index is not None:
                    indices.add(slot.class_index)
                if slot.class_multihot is not None:
                    hot_widths.add(len(slot.class_multihot))
        assert indices or hot_widths
        assert all(0 <= c < width for c in indices)
        assert hot_widths <= {width}

    def test_needs_outputs_exactly_for_hungarian_pairings(self):
        live = {Pairing.HUNGARIAN_TIME, Pairing.HUNGARIAN_CLASS}
        for pairing in Pairing:
            assert HeadSpec(pairing).needs_outputs is (pairing in live)
        assert {v for v, spec in HEADS.items() if spec.needs_outputs} == {
            HeadVariant.Q_HUNG_TIME,
            HeadVariant.Q_HUNG_CLASS,
        }
        # Set with the spec, like unpaired: not an argument, not in repr or ==.
        assert "needs_outputs" not in repr(HEADS[HeadVariant.Q_HUNG_TIME])
        with pytest.raises(TypeError):
            HeadSpec(Pairing.SEQUENTIAL, needs_outputs=True)

    @pytest.mark.parametrize(
        "pairing", [p for p in Pairing if p is not Pairing.SEQUENTIAL], ids=lambda p: p.name
    )
    def test_eos_head_needs_sequential_pairing(self, pairing):
        with pytest.raises(ValueError, match="^an end-of-sequence head needs sequential pairing$"):
            HeadSpec(pairing, eos=True)

    @pytest.mark.parametrize("variant", list(HeadVariant), ids=lambda v: v.value)
    def test_cli_refuses_exactly_output_dependent_heads(self, variant, tmp_path, capsys):
        argv = ["targets", str(FIXTURE_DIR), "--variant", variant.value, "--split", "train"]
        code = main([*argv, "--out", str(tmp_path / "targets.json")])
        assert code == (2 if HEADS[variant].needs_outputs else 0)


class TestSharedSlotObjects:
    def test_one_unpaired_slot_per_head_and_one_vector_per_class(self, tmp_path, monkeypatch):
        # The unpaired slot and the q-bce multi-hot vectors are built once, not
        # per clip; checked over the assignments one `targets` run writes.
        written = {}

        def capture(path, records, cfg, variant):
            written[variant] = records

        monkeypatch.setattr(cli, "write_targets", capture)
        for variant in (HeadVariant.Q_BCKG, HeadVariant.Q_EOS, HeadVariant.Q_BCE):
            argv = ["targets", str(FIXTURE_DIR), "--variant", variant.value, "--split", "train"]
            assert main([*argv, "--out", str(tmp_path / "targets.json")]) == 0
            # UNCONSTRAINED (q-eos after its EoS slot) carries no actionness.
            unpaired = {
                (clip_id, id(slot))
                for clip_id, assignment in written[variant]
                for slot in assignment.slots
                if slot.gt_index is None and slot.actionness is not None
            }
            assert len({clip_id for clip_id, _ in unpaired}) > 1000
            assert len({slot for _, slot in unpaired}) == 1, variant
        vectors: dict[int, set[int]] = {}
        for _, assignment in written[HeadVariant.Q_BCE]:
            for slot in assignment.slots:
                if slot.gt_index is not None:
                    hot = slot.class_multihot
                    vectors.setdefault(hot.index(1), set()).add(id(hot))
        assert len(vectors) > 1
        assert all(len(ids) == 1 for ids in vectors.values())
