"""Parsing, validation, and filtering of per-game ball-action annotation files.

A game is stored as one JSON document (see ``schemas/annotations.schema.json``)::

    {
      "gameId": "demo-league/game-001",
      "split": "train",
      "halfDurationsMs": {"1": 2700000, "2": 2760000},
      "annotations": [
        {"gameTime": "1 - 02:34.120", "position": 154120, "label": "Pass"},
        ...
      ]
    }

``gameTime`` is ``"<half> - MM:SS"`` or ``"<half> - MM:SS.mmm"``. ``position``
is milliseconds from the half start (string or integer) and is authoritative
for the timestamp; ``gameTime`` is authoritative for the half and must agree
with ``position`` to within a second. Labels outside the recognized class set
are a hard error: silently skipping records would corrupt benchmark results.

:func:`write_annotations` writes the bytes of ``json.dumps(serialize_annotations(game),
indent=2)`` plus a newline, one action record at a time, and refuses a game
that the reader would refuse or read back as another game.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .config import MAX_HALF_MS, NUM_CLASSES
from .jsonio import FileFormatError, brief, exact, read_json, write_frame

SPLITS = ("train", "valid", "test", "challenge")

# ASCII digits only, as in the schema (``\d`` would also take other scripts' digits).
_GAME_TIME_RE = re.compile(r"^\s*([12])\s*-\s*([0-9]+):([0-5][0-9])(?:\.([0-9]{1,3}))?\s*$")


class AnnotationError(ValueError):
    """Raised for malformed or inconsistent annotation input."""


class ActionClass(enum.Enum):
    """On-ball action labels; the last two are parsed but excluded from the benchmark."""

    PASS = "Pass"
    DRIVE = "Drive"
    HIGH_PASS = "High Pass"
    HEADER = "Header"
    OUT = "Out"
    THROW_IN = "Throw-in"
    CROSS = "Cross"
    BALL_PLAYER_BLOCK = "Ball Player Block"
    SHOT = "Shot"
    SUCCESSFUL_TACKLE = "Successful Tackle"
    FREE_KICK = "Free Kick"
    GOAL = "Goal"

    # Members are singletons compared by identity, so identity hashing agrees
    # with equality; Enum's own __hash__ is a Python call on every dict lookup.
    # No output order depends on it: the one set of members is sorted by value.
    __hash__ = object.__hash__


#: The ten classes retained for scoring, in canonical index order.
RETAINED_CLASSES: tuple[ActionClass, ...] = tuple(ActionClass)[:NUM_CLASSES]
EXCLUDED_CLASSES: tuple[ActionClass, ...] = (ActionClass.FREE_KICK, ActionClass.GOAL)

#: Canonical class index (0-based) used by prediction heads and target encodings.
CLASS_INDEX: Mapping[ActionClass, int] = {c: i for i, c in enumerate(RETAINED_CLASSES)}


def _normalize_label(raw: str) -> str:
    return " ".join(re.sub(r"[-_]", " ", raw).lower().split())


_LABEL_LOOKUP: dict[str, ActionClass] = {_normalize_label(c.value): c for c in ActionClass}
# aliases seen in annotation exports in the wild
_LABEL_LOOKUP["player successful tackle"] = ActionClass.SUCCESSFUL_TACKLE
_LABEL_LOOKUP["succesful tackle"] = ActionClass.SUCCESSFUL_TACKLE


@functools.lru_cache(maxsize=64)  # bounded: labels come from input files
def parse_label(raw: str) -> ActionClass:
    """Map a raw label string to an :class:`ActionClass`; unknown labels raise."""
    try:
        return _LABEL_LOOKUP[_normalize_label(raw)]
    except KeyError:
        raise AnnotationError(f"unknown label {brief(raw)}") from None


class _ActionFields(NamedTuple):
    game_id: str
    half: int
    time_ms: int
    label: ActionClass


class ActionInstance(_ActionFields):
    """One annotated on-ball event, timed in milliseconds from its half start.

    An immutable tuple subclass, like :class:`kickcast.metrics.Prediction`:
    it unpacks as ``(game_id, half, time_ms, label)``.  Construction,
    positional or by keyword, and so ``_make`` and ``_replace``, checks the
    half and the time.
    """

    __slots__ = ()

    def __new__(cls, game_id: str, half: int, time_ms: int, label: ActionClass) -> ActionInstance:
        if half not in (1, 2):
            raise AnnotationError(f"half must be 1 or 2, got {half}")
        if time_ms < 0:
            raise AnnotationError(f"negative timestamp {time_ms}")
        return tuple.__new__(cls, (game_id, half, time_ms, label))

    @classmethod
    def _make(cls, iterable: Iterable) -> ActionInstance:
        # namedtuple's own _make (and so _replace) would skip the checks
        return cls(*iterable)

    @property
    def sort_key(self) -> tuple[int, int, str]:
        return (self.half, self.time_ms, self.label.value)


_HALF_TIME = operator.attrgetter("half", "time_ms")


@dataclass(frozen=True)
class GameAnnotations:
    """Canonical, sorted annotation corpus for one game."""

    game_id: str
    split: str
    half_durations_ms: Mapping[int, int]
    actions: tuple[ActionInstance, ...]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise AnnotationError(f"split must be one of {SPLITS}, got {brief(self.split)}")
        # Both tilings walk each half's actions in time order.  Only neighbours
        # out of (half, time_ms) order or tied on it need the full sort key.
        actions = self.actions
        times = list(map(_HALF_TIME, actions))
        for i in itertools.compress(range(1, len(times)), map(operator.ge, times, times[1:])):
            if actions[i].sort_key < actions[i - 1].sort_key:
                raise AnnotationError(
                    f"actions must be in (half, time_ms, label) order: "
                    f"action #{i} {actions[i].sort_key} follows {actions[i - 1].sort_key}"
                )

    def half_actions(self, half: int) -> tuple[ActionInstance, ...]:
        return tuple(a for a in self.actions if a.half == half)


def _parse_game_time(raw: str) -> tuple[int, int]:
    """Return (half, milliseconds) from an ``"<half> - MM:SS[.mmm]"`` string."""
    m = _GAME_TIME_RE.match(raw)
    if m is None:
        raise AnnotationError(f"malformed gameTime {brief(raw)}")
    half = int(m.group(1))
    ms = (int(m.group(2)) * 60 + int(m.group(3))) * 1000
    if m.group(4) is not None:
        ms += int(m.group(4).ljust(3, "0"))
    return half, ms


def _parse_position(raw: object) -> int:
    # int() would also take signs, spaces, underscores and other scripts' digits.
    if (type(raw) is str and raw.isascii() and raw.isdigit()) or (type(raw) is int and raw >= 0):
        return int(raw)
    raise AnnotationError(
        f"position must be a non-negative integer or digit string, got {brief(raw)}"
    )


def _parse_record(record: object, game_id: str, durations: Mapping[int, int]) -> ActionInstance:
    if not isinstance(record, dict):
        raise AnnotationError(f"annotation record must be an object, got {type(record).__name__}")
    try:
        game_time = exact(record["gameTime"], str, "gameTime")
        label = parse_label(exact(record["label"], str, "label"))
    except KeyError as exc:
        raise AnnotationError(f"missing field {exc.args[0]!r}") from None
    half, gametime_ms = _parse_game_time(game_time)
    if "position" in record:
        time_ms = _parse_position(record["position"])
        if abs(time_ms - gametime_ms) >= 1000:
            raise AnnotationError(
                f"position {brief(time_ms)} disagrees with gameTime {brief(game_time)} "
                "by a second or more"
            )
    else:
        time_ms = gametime_ms
    _check_time(half, time_ms, durations)
    return ActionInstance(game_id, half, time_ms, label)


# The checks that the reader applies to what it has parsed and the writer to
# what it writes, so that whatever is written reads back.  Their type errors
# are TypeErrors from ``exact``; each caller makes them AnnotationErrors.


def _check_game_id(value: object) -> None:
    if not exact(value, str, "gameId"):
        raise AnnotationError(f"gameId must be a non-empty string, got {brief(value)}")


def _checked_duration(value: object) -> int:
    if exact(value, int, "half duration") < 0:
        raise AnnotationError(f"half duration must be non-negative, got {brief(value)}")
    if value > MAX_HALF_MS:
        raise AnnotationError(
            f"half duration must be at most {MAX_HALF_MS} ms, got {brief(value)}"
        )
    return value


def _check_time(half: int, time_ms: int, durations: Mapping[int, int]) -> None:
    """Refuse an action past its half's declared duration, or past :data:`MAX_HALF_MS`.

    A declared duration is at most ``MAX_HALF_MS`` (:func:`_checked_duration`).
    """
    if time_ms > durations.get(half, MAX_HALF_MS):
        if half in durations:
            duration = durations[half]
            raise AnnotationError(
                f"time {brief(time_ms)} ms exceeds half {half} duration {brief(duration)} ms"
            )
        raise AnnotationError(
            f"time {brief(time_ms)} ms exceeds the longest half, {MAX_HALF_MS} ms"
        )


def _parse_durations(raw: object) -> dict[int, int]:
    if not isinstance(raw, dict):
        raise AnnotationError("halfDurationsMs must be an object keyed by half")
    durations: dict[int, int] = {}
    for key, value in raw.items():
        if key not in ("1", "2"):
            raise AnnotationError(f"half key must be \"1\" or \"2\", got {brief(key)}")
        durations[int(key)] = _checked_duration(value)
    return durations


def parse_annotations_dict(doc: object, *, default_game_id: str = "game") -> GameAnnotations:
    """Parse an already-loaded annotation document into a :class:`GameAnnotations`."""
    if not isinstance(doc, dict):
        raise AnnotationError("annotation document must be a JSON object")
    try:
        game_id = exact(doc.get("gameId", default_game_id), str, "gameId")
        durations = _parse_durations(doc["halfDurationsMs"]) if "halfDurationsMs" in doc else {}
    except TypeError as exc:
        raise AnnotationError(str(exc)) from None
    _check_game_id(game_id)
    split = doc.get("split", "test")
    records = doc.get("annotations")
    if not isinstance(records, list):
        raise AnnotationError("document must carry an 'annotations' array")

    actions: list[ActionInstance] = []
    try:
        for record in records:
            actions.append(_parse_record(record, game_id, durations))
    except (TypeError, ValueError) as exc:  # ValueError: int()'s digit limit too
        raise AnnotationError(f"annotation #{len(actions)}: {exc}") from None
    actions.sort(key=lambda a: a.sort_key)
    return GameAnnotations(
        game_id=game_id, split=split, half_durations_ms=durations, actions=tuple(actions)
    )


def parse_annotations(path: str | Path) -> GameAnnotations:
    """Load, validate, and canonicalize one game's annotation file; errors name the file."""
    doc = read_json(path)
    try:
        return parse_annotations_dict(doc, default_game_id=Path(path).stem)
    except AnnotationError as exc:
        raise AnnotationError(f"{path}: {exc}") from None


def load_corpus(paths: Iterable[str | Path]) -> list[GameAnnotations]:
    """The class-filtered games of the annotation files in ``paths``, in argument order.

    A directory stands for its ``*.json`` files in sorted order, not recursing.
    Game ids must be unique across all the inputs.
    """
    games: dict[str, GameAnnotations] = {}
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileFormatError(f"{path}: no such file")
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        if not files:
            raise FileFormatError(f"{path}: directory contains no .json files")
        for file in files:
            game = filter_classes(parse_annotations(file))
            if game.game_id in games:
                raise AnnotationError(f"duplicate game id {brief(game.game_id)} in inputs")
            games[game.game_id] = game
    return list(games.values())


def serialize_annotations(game: GameAnnotations) -> dict:
    """Inverse of :func:`parse_annotations_dict` for every game :func:`write_annotations` accepts.

    The file :func:`write_annotations` writes is this document's
    ``json.dumps(..., indent=2)`` text plus a newline.
    """
    doc = _head(game)
    doc["annotations"] = [
        {
            "gameTime": format_game_time(a.half, a.time_ms),
            "position": a.time_ms,
            "label": a.label.value,
        }
        for a in game.actions
    ]
    return doc


#: ``"<half> - MM:SS.mmm"``, filled with the half, minutes, seconds and milliseconds.
_GAME_TIME = "%d - %02d:%02d.%03d"
#: An action record's text at depth 2 of the file (document, list, record), in
#: the key order of :func:`serialize_annotations`, filled with the game time's
#: four numbers, the position and the label's JSON text.
_ACTION = (
    '{\n      "gameTime": "' + _GAME_TIME + '",\n      "position": %d,\n      "label": %s\n    }'
)
#: The JSON text of each label.
LABEL_TEXT: Mapping[ActionClass, str] = {
    c: json.encoder.encode_basestring_ascii(c.value) for c in ActionClass
}


def format_game_time(half: int, time_ms: int) -> str:
    minutes, rem = divmod(time_ms, 60_000)
    seconds, ms = divmod(rem, 1000)
    return _GAME_TIME % (half, minutes, seconds, ms)


def _head(game: GameAnnotations) -> dict:
    """The document of ``game`` up to its actions, in file key order."""
    doc: dict = {"gameId": game.game_id, "split": game.split}
    if game.half_durations_ms:
        doc["halfDurationsMs"] = {
            str(h): game.half_durations_ms[h] for h in sorted(game.half_durations_ms)
        }
    return doc


def _action_texts(game: GameAnnotations) -> Iterator[str]:
    """The text of each action of ``game``, if the reader takes it back as that action."""
    game_id, durations = game.game_id, game.half_durations_ms
    for i, (action_game, half, time_ms, label) in enumerate(game.actions):
        try:
            if action_game != game_id:
                raise AnnotationError(
                    f"game_id {brief(action_game)} is not the game's, {brief(game_id)}"
                )
            # An ActionInstance holds a half equal to 1 or 2 and a time >= 0,
            # but True equals 1 and 1000.5 is past 0.
            exact(half, int, "half")
            exact(time_ms, int, "time_ms")
            if type(label) is not ActionClass:
                raise TypeError(f"label must be an ActionClass, got {brief(label)}")
            _check_time(half, time_ms, durations)
        except (TypeError, ValueError) as exc:
            raise AnnotationError(f"annotation #{i}: {exc}") from None
        minutes, rem = divmod(time_ms, 60_000)
        seconds, ms = divmod(rem, 1000)
        yield _ACTION % (half, minutes, seconds, ms, time_ms, LABEL_TEXT[label])


def write_annotations(game: GameAnnotations, path: str | Path) -> None:
    """Write ``game`` as ``json.dumps(serialize_annotations(game), indent=2)`` plus a newline.

    A game the reader would refuse, or read back as another game, is one
    AnnotationError naming the field, and ``path`` keeps its bytes.
    """
    try:
        _check_game_id(game.game_id)
        for half, duration in game.half_durations_ms.items():
            if type(half) is not int or half not in (1, 2):
                raise AnnotationError(f"half key must be 1 or 2, got {brief(half)}")
            _checked_duration(duration)
    except TypeError as exc:
        raise AnnotationError(str(exc)) from None
    frame = json.dumps({**_head(game), "annotations": []}, indent=2) + "\n"
    write_frame(path, frame, "annotations", _action_texts(game))


def filter_classes(game: GameAnnotations) -> GameAnnotations:
    """Drop the excluded classes (free kicks and goals); idempotent."""
    kept = tuple(a for a in game.actions if a.label not in EXCLUDED_CLASSES)
    if len(kept) == len(game.actions):
        return game
    return GameAnnotations(
        game_id=game.game_id,
        split=game.split,
        half_durations_ms=game.half_durations_ms,
        actions=kept,
    )


@dataclass(frozen=True)
class ClassStats:
    """Per-split class counts plus inverse-frequency training weights.

    Weights are exact rationals: ``weight(c) = mean_train_count / train_count(c)``,
    so ``weight(c) * count(c)`` is the same for every class and the weighted
    total equals the raw total.
    """

    counts: Mapping[str, Mapping[ActionClass, int]]
    weights: Mapping[ActionClass, Fraction]

    def weight_vector(self, default: float = 1.0) -> tuple[float, ...]:
        """Weights as floats in canonical class order; absent classes get ``default``."""
        return tuple(float(self.weights.get(c, default)) for c in RETAINED_CLASSES)


def stats_from_counts(per_split: Mapping[str, Mapping[ActionClass, int]]) -> ClassStats:
    """Derive inverse-frequency weights from raw per-split class counts.

    Every class observed in any split must appear at least once in the train
    split, otherwise its weight would be undefined.
    """
    observed = sorted(
        {c for counter in per_split.values() for c in counter}, key=lambda c: c.value
    )
    if not observed:
        raise ValueError("corpus contains no actions")
    train = per_split.get("train", {})
    missing = [c.value for c in observed if not train.get(c)]
    if missing:
        raise ValueError(f"classes with zero train-split count have undefined weights: {missing}")

    total_train = sum(train[c] for c in observed)
    weights = {c: Fraction(total_train, len(observed) * train[c]) for c in observed}
    counts = {
        split: {c: counter.get(c, 0) for c in observed} for split, counter in per_split.items()
    }
    return ClassStats(counts=counts, weights=weights)


def class_stats(corpus: Iterable[GameAnnotations]) -> ClassStats:
    """Count classes per split and derive inverse-frequency weights from the train split.

    The corpus must already be filtered (see :func:`stats_from_counts` for the
    weight definition).
    """
    per_split: dict[str, Counter] = {}
    for game in corpus:
        counter = per_split.setdefault(game.split, Counter())
        for action in game.actions:
            if action.label in EXCLUDED_CLASSES:
                raise ValueError(
                    f"corpus contains excluded class {action.label.value!r}; "
                    "apply filter_classes first"
                )
            counter[action.label] += 1
    return stats_from_counts(per_split)
