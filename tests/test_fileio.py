"""The shared input-file reader (missing, unreadable and malformed files) and atomic writes."""

from __future__ import annotations

import json
import re

import pytest

from transcreate.errors import ValidationError
from transcreate.fileio import MalformedLineError, read_json, read_jsonl, read_text, write_jsonl


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


@pytest.mark.parametrize("rows", [[], [{"a": 1}], [{"b": "café «x»", "n": [1, 2]}, {}, {"c": None}]])
def test_write_jsonl_bytes(tmp_path, rows):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, iter(rows))
    expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_write_jsonl_writes_each_row_as_it_comes(tmp_path):
    path = tmp_path / "out.jsonl"
    sizes = []

    def rows():
        for n in range(3):
            (tmp,) = tmp_path.glob("out.jsonl.*.tmp")
            sizes.append(tmp.stat().st_size)
            yield {"row": n, "pad": "x" * 10_000}  # past the write buffer

    write_jsonl(path, rows())
    assert sizes[0] == 0 and sizes[0] < sizes[1] < sizes[2]
    assert [json.loads(line)["row"] for line in path.read_text(encoding="utf-8").splitlines()] \
        == [0, 1, 2]


def test_write_jsonl_failure_leaves_target_untouched(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n", encoding="utf-8")

    def rows():
        yield {"row": 1}
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_jsonl(path, rows())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
