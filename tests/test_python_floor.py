"""The oldest Python that ``pyproject.toml`` admits can parse every source file, and the
runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys

from conftest import REPO_ROOT

#: ``requires-python = ">=3.10"`` in ``pyproject.toml``.
FLOOR = (3, 10)


def test_sources_parse_at_the_floor():
    """Syntax only: ``ast.parse`` with ``feature_version`` rejects grammar newer
    than the floor that the running parser knows of (``except*``, PEP 695 type
    parameters), but not a newer standard-library name or a behaviour that
    changed at run time.
    """
    paths = sorted(
        path
        for folder in ("src", "tests", "tools", "perfbench")
        for path in (REPO_ROOT / folder).rglob("*.py")
    )
    assert len(paths) > 30
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(REPO_ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures


def test_runtime_imports_only_the_stdlib():
    """Every ``import`` and ``from`` in ``src/kickcast`` is relative, of kickcast, or of a
    standard-library module: ``pyproject.toml`` declares no runtime dependency."""
    paths = sorted((REPO_ROOT / "src" / "kickcast").rglob("*.py"))
    assert len(paths) > 10
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "kickcast" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}")
    assert not outside, outside
