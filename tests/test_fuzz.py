"""Mutated inputs through the command line: valid output or one bounded error line.

Each document case takes a valid annotation, eval-clips, predictions or
loss-check document, replaces, deletes or adds a few of its nodes, and runs
the command that reads it.  Each argument case runs a command on valid files
with generated flag values, numbers at the edge of each bound among them.
Whatever the input, the command must exit 0, or exit 2 with exactly one
``kickcast: error:`` line of bounded length: never a traceback.
"""

from __future__ import annotations

import copy
import json
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kickcast.cli import main
from kickcast.config import (
    MAX_HALF_MS,
    MAX_PREDICTIONS_PER_CLIP,
    MAX_QUERIES,
    MAX_TOLERANCES,
    MAX_WINDOWS_PAST_HALF,
    MAX_WINDOWS_PER_HALF,
    BenchConfig,
)
from kickcast.targets import HeadVariant

from conftest import loss_check_doc

#: Longest error line accepted, in bytes, file name included.
MAX_ERROR_BYTES = 2_000
#: The values a mutated node takes: every JSON type, empty containers and
#: numbers at and past the edge of a float.
VALUES = [None, True, 2**1100, 1e308, "", [], {}, -1, 0.5, "x"]


def annotation_doc() -> dict:
    return {
        "gameId": "g",
        "split": "train",
        "halfDurationsMs": {"1": 60_000, "2": 60_000},
        "annotations": [
            {"gameTime": "1 - 00:10.000", "position": 10_000, "label": "Pass"},
            {"gameTime": "1 - 00:12", "position": "12000", "label": "Shot"},
            {"gameTime": "2 - 00:20", "label": "Drive"},
        ],
    }


def segmented_loss_check_doc() -> dict:
    """The one-clip loss-check document, with one paired slot and a segmentation block."""
    cfg = BenchConfig()
    doc = loss_check_doc()
    clip = doc["clips"][0]
    clip["slots"] = list(clip["slots"])
    clip["slots"][0] = {
        "gt_index": 0,
        "actionness": 1.0,
        "class_index": 2,
        "class_multihot": None,
        "time": 0.5,
    }
    width = cfg.num_classes + 1
    clip["segmentation"] = {
        "frame_dists": [[1.0 / width] * width for _ in range(cfg.context_frames)],
        "labels": [0] * (cfg.context_frames - 1) + [3],
    }
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """The directory holding every case's files, and the valid documents by kind."""
    root = tmp_path_factory.mktemp("fuzz")
    game = root / "game.json"
    game.write_text(json.dumps(annotation_doc()))
    clips, preds = root / "clips.json", root / "preds.json"
    assert main(["prepare", str(game), "--out", str(clips)]) == 0
    assert main(["baseline", str(game), "--kind", "oracle", "--out", str(preds)]) == 0
    return {
        "root": root,
        "annotations": annotation_doc(),
        "eval-clips": json.loads(clips.read_text()),
        "predictions": json.loads(preds.read_text()),
        "loss-check": segmented_loss_check_doc(),
    }


def node_paths(node, path=()):
    """The path of every node below the root of a JSON document, parents first.

    The root is left out: a document that is not an object is one case,
    tested on its own.
    """
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from node_paths(child, (*path, key))


def mutate(doc, path, op, value):
    """Replace or delete the node at ``path`` in ``doc``, or give it a new child or sibling.

    A path that an earlier mutation removed leaves the document as it is.
    """
    parent, node = None, doc
    for step in path:
        if type(step) is not {list: int, dict: str}.get(type(node)):
            return
        try:
            parent, node = node, node[step]
        except (KeyError, IndexError):
            return
    if op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    elif op == "add":
        if isinstance(node, dict):
            node[f"extra{len(node)}"] = value
        elif isinstance(node, list):
            node.append(value)
        elif isinstance(parent, list):
            parent.insert(path[-1], value)
        else:
            parent[f"extra{len(parent)}"] = value


KINDS = ["annotations", "eval-clips", "predictions", "loss-check"]
#: A mutation: the node (an index into the valid document's node paths, taken
#: modulo their number), the operation and the new value.
MUTATIONS = st.tuples(
    st.integers(0, 2**16), st.sampled_from(["replace", "delete", "add"]), st.sampled_from(VALUES)
)
CASES = st.tuples(
    st.sampled_from(KINDS), st.lists(MUTATIONS, min_size=1, max_size=3), st.integers(0, 2)
)


def argv_for(kind, bad, root, variant):
    clips, preds = str(root / "clips.json"), str(root / "preds.json")
    out = ["--out", str(root / "out.json")]
    if kind == "annotations":
        return [
            ["prepare", str(bad), *out],
            ["targets", str(bad), "--variant", "q-bce", *out],
            ["baseline", str(bad), "--kind", "prior", *out],
        ][variant]
    if kind == "eval-clips":
        return ["evaluate", "--gt", str(bad), "--pred", preds, "--format", "csv", *out]
    if kind == "predictions":
        return ["evaluate", "--gt", clips, "--pred", str(bad), *out]
    return ["loss-check", str(bad), *out]


# The frame input that made math.fsum overflow with a traceback before frame
# probabilities were range-checked: two entries of frame 0 set to 1e308.
_FRAME = ("clips", 0, "segmentation", "frame_dists", 0)
_LOSS_PATHS = list(node_paths(segmented_loss_check_doc()))
_OVERFLOW = [(_LOSS_PATHS.index((*_FRAME, i)), "replace", 1e308) for i in (0, 1)]
# The output time that made the squared time error overflow with a traceback
# before loss-check checked its losses for overflow.
_TIME_RAW = ("clips", 0, "outputs", 0, "time_raw")
_TIME_OVERFLOW = [(_LOSS_PATHS.index(_TIME_RAW), "replace", 1e308)]


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=CASES)
@example(case=("loss-check", _OVERFLOW, 0))
@example(case=("loss-check", _TIME_OVERFLOW, 0))
def test_mutated_document(inputs, capsys, case):
    kind, mutations, variant = case
    doc = copy.deepcopy(inputs[kind])
    paths = list(node_paths(inputs[kind]))
    for index, op, value in mutations:
        mutate(doc, paths[index % len(paths)], op, copy.deepcopy(value))
    bad = inputs["root"] / "bad.json"
    bad.write_text(json.dumps(doc))
    assert_clean_exit(main(argv_for(kind, bad, inputs["root"], variant)), capsys)


def assert_clean_exit(code, capsys):
    """Exit 0 with nothing on stderr, or exit 2 with one bounded error line."""
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.startswith("kickcast: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < MAX_ERROR_BYTES


def short_game_doc() -> dict:
    """A game of two 5 s halves: the densest tiling a flag allows stays small on it."""
    return {
        "gameId": "s",
        "split": "train",
        "halfDurationsMs": {"1": 5_000, "2": 5_000},
        "annotations": [
            {"gameTime": "1 - 00:01.000", "label": "Pass"},
            {"gameTime": "1 - 00:03.500", "label": "Shot"},
            {"gameTime": "2 - 00:02", "label": "Drive"},
        ],
    }


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory) -> dict:
    """The short game, its eval clips and oracle predictions, and their directory."""
    root = tmp_path_factory.mktemp("argv")
    game = root / "game.json"
    game.write_text(json.dumps(short_game_doc()))
    clips, preds = root / "clips.json", root / "preds.json"
    assert main(["prepare", str(game), "--out", str(clips)]) == 0
    assert main(["baseline", str(game), "--kind", "oracle", "--out", str(preds)]) == 0
    return {"game": str(game), "clips": str(clips), "preds": str(preds), "root": root}


def ms_seconds(least_ms):
    """Whole milliseconds of at least ``least_ms``, written in seconds."""
    return st.integers(least_ms, 10**7).map(lambda ms: repr(ms / 1000))


#: The shortest stride that tiles a MAX_HALF_MS half into at most
#: MAX_WINDOWS_PER_HALF windows: the shortest T_a (100 ms).
MIN_STRIDE_MS = -(-MAX_HALF_MS // MAX_WINDOWS_PER_HALF)
#: The shortest T_c whose stride, T_c / 10 rounded to the millisecond, is
#: MIN_STRIDE_MS (995 ms: 99.5 rounds to 100).
MIN_TC_MS = min(ms for ms in range(1, 10 * MIN_STRIDE_MS + 1) if round(ms / 10) >= MIN_STRIDE_MS)
#: The longest T_a ``targets`` admits at the finest T_c: 720 strides (72 s).
MAX_TA_MS = MAX_WINDOWS_PAST_HALF * MIN_STRIDE_MS
#: Zero, negatives, non-finite numbers and numbers at the edge of a float.
EDGE_FLOATS = ["0", "-0.0", "-1", "nan", "-inf", "inf", "1e309", "1e308", "5e-324"]
#: ``--ta`` and ``--tc`` at their edge, 0.5 ms past it (no whole number of
#: milliseconds), ordinary and huge.  None is shorter than its edge: the
#: windows bound refuses those before any work starts.  ``--ta`` also at the
#: longest ``targets`` admits at the finest T_c, and 1 ms past it.
TA = st.one_of(
    st.sampled_from(
        [repr(MIN_STRIDE_MS / 1000), repr((MIN_STRIDE_MS + 0.5) / 1000), "5", "7200", "1e300"]
        + [repr(MAX_TA_MS / 1000), repr((MAX_TA_MS + 1) / 1000)]
        + EDGE_FLOATS
    ),
    ms_seconds(MIN_STRIDE_MS),
)
TC = st.one_of(
    st.sampled_from(
        [repr(MIN_TC_MS / 1000), repr((MIN_TC_MS + 0.5) / 1000), "1", "60", "1e300"] + EDGE_FLOATS
    ),
    ms_seconds(MIN_TC_MS),
)
FLOATS = st.one_of(st.sampled_from(["0.5", "1", "6.25", *EDGE_FLOATS]), st.floats().map(repr))
QUERIES = st.one_of(
    st.sampled_from([0, 1, MAX_QUERIES, MAX_QUERIES + 1, -1, 2**70]), st.integers(-2, MAX_QUERIES)
).map(str)
PER_CLIP = st.one_of(
    st.sampled_from([1, MAX_PREDICTIONS_PER_CLIP, MAX_PREDICTIONS_PER_CLIP + 1, 0, -1, 2**70]),
    st.integers(1, 40),
).map(str)
INTS = st.one_of(st.sampled_from([0, 1, -1, 2**64, -(2**70)]), st.integers(-5, 50)).map(str)
DELTA = st.sampled_from(
    ["0.001", "0.0009", "0.0015", "1", "1.0", "60", "inf", "Infinity", "1e309", "1_0", "-1"]
    + ["nan", "x", ""]
)


def distinct_deltas(count):
    """A ``--deltas`` value of ``count`` distinct tolerances."""
    return ",".join(map(str, range(1, count + 1)))


#: ``--deltas``: a few tolerances of any kind, or MAX_TOLERANCES distinct ones and one more.
DELTAS = st.one_of(
    st.lists(DELTA, min_size=1, max_size=3).map(",".join),
    st.sampled_from([MAX_TOLERANCES, MAX_TOLERANCES + 1]).map(distinct_deltas),
)
SPLITS = st.sampled_from(["train", "test", ""])
#: Each command's flags and their values; a flag is left out or given one value.
COMMANDS = {
    "prepare": {"--ta": TA, "--split": SPLITS},
    "targets": {
        "--variant": st.sampled_from([v.value for v in HeadVariant]),
        "--tc": TC,
        "--ta": TA,
        "--fps": FLOATS,
        "--queries": QUERIES,
        "--split": SPLITS,
    },
    "baseline": {
        "--kind": st.sampled_from(["oracle", "prior", "random"]),
        "--ta": TA,
        "--per-clip": PER_CLIP,
        "--top-k": INTS,
        "--seed": INTS,
        "--noise-std": FLOATS,
        "--drop-prob": FLOATS,
        "--split": SPLITS,
    },
    "evaluate": {"--deltas": DELTAS, "--format": st.sampled_from(["json", "csv", "md"])},
}
#: Flags every run of a command gives.
REQUIRED = {"targets": ("--variant",), "baseline": ("--kind",)}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    given_flags = [f for f in flags if f in REQUIRED.get(command, ()) or draw(st.booleans())]
    # Each value as --flag=value, so that one starting with "-" is a value, not a flag.
    return command, [f"{flag}={draw(flags[flag])}" for flag in given_flags]


@settings(
    max_examples=500,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=argvs())
@example(case=("prepare", [f"--ta={MIN_STRIDE_MS / 1000}"]))
@example(
    case=("targets", ["--variant=q-bce", f"--tc={MIN_TC_MS / 1000}", f"--queries={MAX_QUERIES}"])
)
@example(
    case=("targets", ["--variant=q-act", f"--tc={MIN_TC_MS / 1000}", f"--ta={MAX_TA_MS / 1000}"])
)
@example(
    case=(
        "targets",
        ["--variant=q-act", f"--tc={MIN_TC_MS / 1000}", f"--ta={(MAX_TA_MS + 1) / 1000}"],
    )
)
@example(case=("baseline", ["--kind=random", f"--per-clip={MAX_PREDICTIONS_PER_CLIP}"]))
@example(case=("evaluate", [f"--deltas={distinct_deltas(MAX_TOLERANCES)}"]))
def test_generated_flags(argv_inputs, capsys, case):
    command, flags = case
    files = ["--gt", argv_inputs["clips"], "--pred", argv_inputs["preds"]]
    argv = [command, *(files if command == "evaluate" else [argv_inputs["game"]]), *flags]
    argv += ["--out", str(argv_inputs["root"] / "out.json")]
    assert_clean_exit(main(argv), capsys)
