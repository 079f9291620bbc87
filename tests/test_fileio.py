"""The shared input-file reader: missing, unreadable and malformed files."""

from __future__ import annotations

import re

import pytest

from transcreate.errors import ValidationError
from transcreate.fileio import MalformedLineError, read_json, read_jsonl, read_text


def test_read_text(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("[system]\ncafé\n", encoding="utf-8")
    assert read_text(path, "test file") == "[system]\ncafé\n"


def test_read_json_value(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"a": [1, "é"]}\n', encoding="utf-8")
    assert read_json(path, "test file") == {"a": [1, "é"]}


@pytest.mark.parametrize("reader", [read_json, lambda path, what: list(read_jsonl(path, what))])
def test_missing_file_names_what_and_path(tmp_path, reader):
    path = tmp_path / "nope.json"
    with pytest.raises(FileNotFoundError, match=f"^test file not found: {re.escape(str(path))}$"):
        reader(path, "test file")


@pytest.mark.parametrize("reader", [read_json, lambda path, what: list(read_jsonl(path, what))])
def test_directory_is_an_os_error(tmp_path, reader):
    with pytest.raises(IsADirectoryError):
        reader(tmp_path, "test file")


def test_read_json_errors_name_path_and_line(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{\n  "a": 1,\n  "b": \n}\n', encoding="utf-8")
    with pytest.raises(MalformedLineError) as info:
        read_json(path, "test file")
    assert (info.value.path, info.value.line_no) == (path, 4)
    assert str(info.value).startswith(f"{path}:4: not valid JSON: Expecting value")
    path.write_bytes(b'{\n  "a": "caf\xe9"\n}\n')
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
        read_json(path, "test file")


def test_read_jsonl_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"n": 1}\n\n   \n[2]\r\n"three"', encoding="utf-8")
    assert list(read_jsonl(path, "test file")) == [(1, {"n": 1}), (4, [2]), (5, "three")]


def test_read_jsonl_yields_before_reading_on(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"n": 1}\n{"n": 2}\n{"n": \xff}\n{broken\n')
    lines = read_jsonl(path, "test file")
    assert next(lines) == (1, {"n": 1})
    assert next(lines) == (2, {"n": 2})
    with pytest.raises(MalformedLineError, match=f"^{re.escape(str(path))}:3: not UTF-8 text$"):
        next(lines)
    path.write_bytes(b'{"n": 1}\n{broken\n')
    with pytest.raises(MalformedLineError) as info:
        list(read_jsonl(path, "test file"))
    assert info.value.line_no == 2
    assert str(info.value).startswith(f"{path}:2: not valid JSON: ")
