"""The file boundary: one file loader, one output path, one error form and the field value rules.

Error messages quote document values through :func:`brief`, which cuts a long
repr, so one huge value cannot make a huge error line.

Every kickcast input is read here and every output written through
:func:`output`, a record file's list one record text at a time by
:func:`write_frame`; this module imports nothing from kickcast.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import stat
import tempfile
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator


class FileFormatError(ValueError):
    """Raised when a document does not follow its declared format."""


def read_json(path: str | Path, object_hook: Callable[[dict], Any] | None = None) -> Any:
    """The JSON value in ``path``; a file that cannot be read or decoded is a FileFormatError.

    ``object_hook``, as in :func:`json.loads`, is given each object as the
    parser closes it and returns the value that takes its place.  It must not
    raise: its ValueError would be reported as invalid JSON, and any other
    error would escape as it is.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=object_hook)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        raise FileFormatError(f"{path}: not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, int digit limit, deep nesting
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


@contextlib.contextmanager
def output(path: str | Path) -> Iterator[IO[str]]:
    """A UTF-8 text file whose bytes become ``path`` only if the block completes.

    A new or regular file at ``path`` (after following symlinks) is written as
    a temporary file beside it, created with mode 0o666 less the umask, as
    ``open`` would, and renamed over it by ``os.replace`` at the end.  An
    existing FIFO or device (``/dev/stdout``) is never replaced: the bytes go
    to an anonymous temporary file and are copied to it at the end.  If the
    block raises, ``path`` is left as it was and no temporary file remains.
    An OSError is a FileFormatError naming ``path``.
    """
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = stat.S_IFREG
        if stat.S_ISREG(mode) or stat.S_ISDIR(mode):  # replacing a directory fails
            with _renamed(os.path.realpath(path)) as out:
                yield out
        else:
            with tempfile.TemporaryFile("w+", _BUFFER_BYTES, encoding="utf-8") as spool:
                yield spool
                spool.seek(0)  # flushes the text layer too
                with open(path, "wb") as sink:
                    shutil.copyfileobj(spool.buffer, sink)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc


#: Write buffer of an output file.  Writers hand over one record at a time, and
#: io's 8 KiB default costs a system call every few dozen small records.
_BUFFER_BYTES = 1 << 18


@contextlib.contextmanager
def _renamed(target: str) -> Iterator[IO[str]]:
    """A new file beside ``target`` that replaces it when the block completes, else is removed."""
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name[:100]}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", _BUFFER_BYTES, encoding="utf-8") as out:
            yield out
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write an output file through :func:`output`."""
    with output(path) as out:
        out.write(text)


def write_frame(path: str | Path, frame: str, key: str, texts: Iterable[str]) -> None:
    """Write ``frame`` through :func:`output` with ``texts`` as the items of its list ``key``.

    ``frame`` is the stdlib's ``indent=2`` text of an object whose ``key`` is
    ``[]``.  Each text is laid out at depth 2 (document, list, item) and
    written as it comes, so neither the record list nor the file's text is
    held at once.  A top-level key is the only one indented by exactly two
    spaces, and the stdlib escapes every newline in a string, so the cut at
    the empty list is unique.
    """
    opening = "\n  " + json.encoder.encode_basestring_ascii(key) + ": ["
    at = frame.index(opening + "]") + len(opening)
    with output(path) as out:
        out.write(frame[:at])
        sep = "\n    "
        for text in texts:
            out.write(sep + text)
            sep = ",\n    "
        # A list with items closes on a line of its own; an empty one is "[]".
        out.write(frame[at:] if sep == "\n    " else "\n  " + frame[at:])


#: Longest repr of a document value that an error message quotes.
REPR_LIMIT = 80


def brief(value: Any) -> str:
    """``repr(value)``, cut to :data:`REPR_LIMIT` characters plus ``...`` when longer."""
    text = repr(value)
    return text if len(text) <= REPR_LIMIT else text[:REPR_LIMIT] + "..."


#: What :func:`exact` calls each kind in its errors.
_KINDS = {bool: "a boolean", int: "an integer", str: "a string", list: "a list", dict: "an object"}


def exact(value: Any, kind: type, name: str, nullable: bool = False) -> Any:
    """``value`` if its JSON type is ``kind`` (or null, if ``nullable``).

    A scalar's type must be exactly ``kind``, so ``true`` is not an integer; a
    list or dict subclass is still a JSON array or object.
    """
    if type(value) is not kind and not (
        (nullable and value is None) or (kind in (list, dict) and isinstance(value, kind))
    ):
        raise TypeError(f"{name} must be {_KINDS[kind]}, got {brief(value)}")
    return value


def number(value: Any, name: str) -> float:
    """``value`` as a float, if it is a JSON number that fits in one (not ``"2.5"`` or ``true``)."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise TypeError(f"{name} must be a number, got {brief(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None
