"""The benchmark's mutation anchors still point at code.

``perfbench/mutants.py`` breaks kickcast by replacing one exact piece of
source text per mutation and expects the benchmark's output checks to notice.
A refactor that rewrites an anchored line silently retires that mutation, and
only the multi-minute mutation run would show it.  This checks each anchor's
text against the tree in a fraction of a second.
"""

from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO_ROOT


def _load_mutations() -> dict:
    path = REPO_ROOT / "perfbench" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTATIONS


MUTATIONS = _load_mutations()
#: Mutations whose anchor text earlier refactors removed; they cannot run.
STALE = ("bce-blank-slots", "hungarian-sequential", "train-window-open")


def _count(name: str) -> int:
    _workload, rel, original, _broken = MUTATIONS[name]
    return (REPO_ROOT / rel).read_text().count(original)


@pytest.mark.parametrize("name", sorted(set(MUTATIONS) - set(STALE)))
def test_anchor_occurs_once(name):
    assert _count(name) == 1


@pytest.mark.parametrize("name", STALE)
def test_stale_anchor_is_still_missing(name):
    # Once an anchor resolves again, move it out of STALE so it is guarded.
    assert _count(name) == 0
