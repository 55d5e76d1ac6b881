"""Mutated input documents through the command line: valid output or one bounded error line.

Each case takes a valid annotation, eval-clips, predictions or loss-check
document, replaces, deletes or adds a few of its nodes, and runs the command
that reads it.  Whatever the document, the command must exit 0, or exit 2
with exactly one ``kickcast: error:`` line of bounded length: never a
traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kickcast.cli import main
from kickcast.config import BenchConfig

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
    code = main(argv_for(kind, bad, inputs["root"], variant))
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.startswith("kickcast: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < MAX_ERROR_BYTES
