"""Small file helpers: atomic writes, and the one reader of input files.

A missing input raises ``FileNotFoundError("<what> not found: <path>")``, other
unopenable paths ``OSError``, and non-UTF-8 or non-JSON text :class:`MalformedLineError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

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
