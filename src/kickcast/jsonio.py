"""The JSON input boundary: one file loader, one error form and the field value rules.

Every kickcast input is read here; this module imports nothing from kickcast.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


class FileFormatError(ValueError):
    """Raised when a document does not follow its declared format."""


def read_json(path: str | Path) -> Any:
    """The JSON value in ``path``; a file that cannot be read or decoded is a FileFormatError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise FileFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, int digit limit, deep nesting
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write an output file; a path that cannot be written is a FileFormatError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc


def exact(value: Any, kind: type, name: str, nullable: bool = False) -> Any:
    """``value`` if its JSON type is exactly ``kind`` (or null, if ``nullable``)."""
    if type(value) is not kind and not (nullable and value is None):
        what = {bool: "a boolean", int: "an integer", str: "a string"}[kind]
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return value


def number(value: Any, name: str) -> float:
    """``value`` as a float, if it is a JSON number that fits in one (not ``"2.5"`` or ``true``)."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None
