"""Small file helpers: atomic writes, the one writer of indented JSON, and the
one reader of input files.

A missing input raises ``FileNotFoundError("<what> not found: <path>")``, other
unopenable paths ``OSError``, and non-UTF-8 or non-JSON text :class:`MalformedLineError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring  # type: ignore[attr-defined]
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

from .errors import ValidationError


class MalformedLineError(ValidationError):
    """A line of an input file is not UTF-8, not JSON, or not what its loader takes."""

    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[IO[str]]:
    """A text handle on a temp file in ``path``'s directory, renamed to ``path`` on success.

    Readers never observe a partially written file. If the block raises,
    ``path`` is left untouched and the temp file removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (see :func:`_atomic_file`)."""
    with _atomic_file(path) as handle:
        handle.write(text)


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]]) -> None:
    """Atomically write one JSON object per line, each as soon as it is encoded."""
    with _atomic_file(path) as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_raise_unencodable = json.JSONEncoder().default


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> Callable[[Any, int], Any]:
    """``json``'s C encoder with each item of a container at ``depth`` on its own line.

    A container of scalars comes out as ``json.dumps(..., indent=2)`` prints it
    at ``depth - 1``, less the line breaks after its opening and before its
    closing bracket.
    """
    return c_make_encoder(None, _raise_unencodable, encode_basestring, None,
                          ": ", ",\n" + _INDENT * depth, False, False, True)


def indented_json(obj: Any, depth: int = 0) -> str:
    """``json.dumps(obj, ensure_ascii=False, indent=2)``, byte for byte, at C speed.

    ``json`` encodes an indented document in pure Python. Here every
    container whose values are all scalars is encoded by one call of the C
    encoder; only the containers above them are walked in Python.
    ``depth`` > 0 gives the text as it would appear nested ``depth`` levels
    deep in a larger document: every line after the first is indented by
    ``2 * depth`` more spaces.
    """
    return _encode(obj, depth, set())


def _encode(obj: Any, depth: int, markers: set[int]) -> str:
    kind = type(obj)
    if kind is str:
        return encode_basestring(obj)
    if isinstance(obj, dict):
        values: Any = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return "".join(_flat_encoder(0)(obj, 0))
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    outer, inner = _INDENT * depth, _INDENT * (depth + 1)
    if (kind is dict or kind is list or kind is tuple) and _SCALARS.issuperset(map(type, values)):
        # The encoder's line breaks hold only between items: add the two
        # around them.
        text = "".join(_flat_encoder(depth + 1)(obj, 0))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{outer}{text[-1]}"
    marker = id(obj)
    if marker in markers:
        raise ValueError("Circular reference detected")
    markers.add(marker)
    depth += 1
    if isinstance(obj, dict):
        parts = [
            (encode_basestring(key) if type(key) is str else _key(key)) + ": "
            + (encode_basestring(value) if type(value) is str else _encode(value, depth, markers))
            for key, value in obj.items()
        ]
        opener, closer = "{", "}"
    else:
        parts = [
            encode_basestring(value) if type(value) is str else _encode(value, depth, markers)
            for value in obj
        ]
        opener, closer = "[", "]"
    markers.remove(marker)
    return f"{opener}\n{inner}" + f",\n{inner}".join(parts) + f"\n{outer}{closer}"


def _key(key: Any) -> str:
    """A non-string object key as ``json`` writes it: its JSON text, quoted."""
    if isinstance(key, str):
        return encode_basestring(key)
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return encode_basestring("".join(_flat_encoder(0)(key, 0)))


def _open(path: str | Path, what: str) -> IO[bytes]:
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None


def _decode(path: str | Path, raw: bytes, first_line: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = first_line + raw.count(b"\n", 0, exc.start)
        raise MalformedLineError(path, line_no, "not UTF-8 text") from exc


def _parse(path: str | Path, text: str, first_line: int) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f"not valid JSON: {exc.msg} at column {exc.colno}"
        raise MalformedLineError(path, first_line + exc.lineno - 1, reason) from exc


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of a whole file; ``what`` names the file in errors."""
    with _open(path, what) as handle:
        return _decode(path, handle.read(), 1)


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value a whole file holds; ``what`` names the file in errors."""
    return _parse(path, read_text(path, what), 1)


def read_jsonl(path: str | Path, what: str) -> Iterator[tuple[int, Any]]:
    """Yield ``(line_no, value)`` for each non-blank line, reading as it goes."""
    with _open(path, what) as handle:
        for line_no, raw in enumerate(handle, start=1):
            raw = raw.rstrip()  # so an error at the line's end is on this line
            if raw:
                yield line_no, _parse(path, _decode(path, raw, line_no), line_no)
