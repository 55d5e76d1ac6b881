"""The per-action and per-clip records: immutable tuples with named fields.

``ActionInstance``, ``GtAction``, ``EvalClip``, ``TrainClip``, ``SlotTarget``
and ``Assignment`` are built by the ten thousand per command.  Each is a
NamedTuple (``ActionInstance`` a validating subclass, like
``metrics.Prediction``): built positionally or by keyword, it unpacks,
indexes, compares equal to a plain tuple of its fields and sorts as one.
"""

from __future__ import annotations

import pytest

from kickcast.annotations import ActionClass, ActionInstance, AnnotationError
from kickcast.targets import Assignment, HeadVariant, SlotTarget
from kickcast.windowing import EvalClip, GtAction, TrainClip

PASS, SHOT = ActionClass.PASS, ActionClass.SHOT
_GT = (GtAction(PASS, 5),)

#: (record type, field values in order, repr of the old dataclass form).
RECORDS = [
    (
        ActionInstance,
        {"game_id": "g", "half": 2, "time_ms": 1500, "label": SHOT},
        "ActionInstance(game_id='g', half=2, time_ms=1500, label=<ActionClass.SHOT: 'Shot'>)",
    ),
    (
        GtAction,
        {"label": PASS, "offset_ms": 5},
        "GtAction(label=<ActionClass.PASS: 'Pass'>, offset_ms=5)",
    ),
    (
        EvalClip,
        {
            "game_id": "g",
            "half": 1,
            "anticipation_start_ms": 5000,
            "anticipation_end_ms": 8000,
            "partial": True,
            "gt_actions": _GT,
        },
        "EvalClip(game_id='g', half=1, anticipation_start_ms=5000, anticipation_end_ms=8000, "
        "partial=True, gt_actions=(GtAction(label=<ActionClass.PASS: 'Pass'>, offset_ms=5),))",
    ),
    (
        TrainClip,
        {
            "game_id": "g",
            "half": 1,
            "context_start_ms": 500,
            "context_end_ms": 5500,
            "context_actions": (),
            "future_actions": _GT,
        },
        "TrainClip(game_id='g', half=1, context_start_ms=500, context_end_ms=5500, "
        "context_actions=(), "
        "future_actions=(GtAction(label=<ActionClass.PASS: 'Pass'>, offset_ms=5),))",
    ),
    (
        SlotTarget,
        {"gt_index": 0, "actionness": 1.0, "class_index": 3, "class_multihot": None, "time": 0.25},
        "SlotTarget(gt_index=0, actionness=1.0, class_index=3, class_multihot=None, time=0.25)",
    ),
    (
        Assignment,
        {"variant": HeadVariant.Q_ACT, "slots": (), "truncated": True},
        "Assignment(variant=<HeadVariant.Q_ACT: 'q-act'>, slots=(), truncated=True)",
    ),
]
IDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind, values, _", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(kind, values, _):
    by_position = kind(*values.values())
    by_keyword = kind(**values)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert kind._fields == tuple(values)
    for name, value in values.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("kind, values, _", RECORDS, ids=IDS)
def test_a_tuple_of_its_fields(kind, values, _):
    record = kind(**values)
    fields = tuple(values.values())
    assert tuple(record) == fields
    assert record == fields
    assert hash(record) == hash(fields)
    assert record[1] == fields[1]
    first, *_rest = record
    assert first == fields[0]


@pytest.mark.parametrize("kind, values, _", RECORDS, ids=IDS)
def test_immutable(kind, values, _):
    record = kind(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(TypeError):
        record[0] = None


@pytest.mark.parametrize("kind, values, text", RECORDS, ids=IDS)
def test_repr_unchanged_from_the_dataclass_form(kind, values, text):
    assert repr(kind(**values)) == text


def test_defaults():
    assert SlotTarget(None, 0.0) == (None, 0.0, None, None, None)
    assert Assignment(HeadVariant.Q_ACT, ()).truncated is False


def test_sorts_as_tuples():
    assert sorted([GtAction(PASS, 9), GtAction(PASS, 1)]) == [(PASS, 1), (PASS, 9)]
    actions = [ActionInstance("g", 2, 0, PASS), ActionInstance("g", 1, 7, PASS)]
    assert sorted(actions) == [actions[1], actions[0]]


class TestActionInstanceChecks:
    GOOD = ActionInstance("g", 1, 0, PASS)

    @pytest.mark.parametrize(
        "change, message",
        [({"half": 3}, "half must be 1 or 2, got 3"), ({"time_ms": -1}, "negative timestamp -1")],
        ids=["half-3", "negative-time"],
    )
    def test_every_way_in_is_checked(self, change, message):
        values = {**self.GOOD._asdict(), **change}
        builds = [
            lambda: ActionInstance(*values.values()),
            lambda: ActionInstance(**values),
            lambda: ActionInstance._make(values.values()),
            lambda: self.GOOD._replace(**change),
        ]
        for build in builds:
            with pytest.raises(AnnotationError) as info:
                build()
            assert str(info.value) == message

    def test_half_is_checked_first(self):
        with pytest.raises(AnnotationError, match="^half must be 1 or 2, got 0$"):
            ActionInstance("g", 0, -5, PASS)

    def test_valid_make_and_replace(self):
        assert ActionInstance._make(("g", 1, 0, PASS)) == self.GOOD
        assert type(self.GOOD._replace(half=2)) is ActionInstance
        assert self.GOOD._replace(half=2) == ("g", 2, 0, PASS)
