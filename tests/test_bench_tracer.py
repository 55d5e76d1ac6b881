"""The functions the benchmark's tracer patches still exist under their names.

``perfbench/tracer.py`` looks up each traced kickcast function by module and
name, and swaps the report renderers inside ``fileio.RENDERERS``.  A rename
or a deletion makes every traced benchmark run exit 1; this finds it in
tier-1 instead, without running a workload.
"""

from __future__ import annotations

import importlib
import importlib.util

import pytest

from conftest import REPO_ROOT


def _load_traced() -> list:
    path = REPO_ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TRACED


TRACED = sorted({(module, name) for module, name, *_ in _load_traced()})


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_renderers_cover_every_report_format():
    from kickcast.fileio import RENDERERS

    assert {"json", "csv", "md"} <= RENDERERS.keys()
    assert all(callable(render) for render in RENDERERS.values())
