"""Seeded fuzzing of the exit-code contract over student and transcreation records.

Each case changes one field of a small generated file and runs the commands
that read it through ``cli.main``: ``split``, ``score`` and ``stats`` for
student records; ``judge --mock`` and ``review --open-only`` for
transcreation records of format 1, 2 or 3. Whatever the value, a run must
exit 0, 2, 3 or 4 with at most one stderr line and no traceback, and a
failed run must leave no output file. Stdlib ``random`` with a fixed seed
keeps every case reproducible.
"""

from __future__ import annotations

import copy
import json
import random
import re
import tempfile
from pathlib import Path

from conftest import (
    BLOOM_CYCLE,
    PASSAGES,
    SOURCE_TOPICS,
    build_mock_script,
    make_item,
    make_question,
    mock_gateway,
    v1_rendering,
    v2_rendering,
)
from transcreate import cli
from transcreate.corpus import ReadingItem, save_items
from transcreate.gateway import PromptTemplate
from transcreate.pipeline import TranscreationPipeline, Work, save_records

SEED = 20261018
CASES = 150
TESTS = ("test1", "test2")
N_QUESTIONS = 5

# Replacement values by kind; "repeat" and "empty" are built per case.
WRONG_TYPE = [5, True, None, "x", "", [], {}, [1], {"a": 1}, 1.5]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
OUT_OF_RANGE = [-1, 4, 8, 0, -1e308, 1e308, 10**30, 2**63]


def generate_students(rng: random.Random) -> list[dict]:
    """Two students per group, each answering both tests and the survey."""
    students = []
    for i in range(4):
        students.append({
            "student_id": f"s{i}",
            "toefl": rng.choice([rng.randint(60, 110), round(rng.uniform(60, 110), 1)]),
            "group": "AB"[i % 2],
            "test_answers": {t: [rng.randrange(4) for _ in range(N_QUESTIONS)] for t in TESTS},
            "turnaround_minutes": {t: round(rng.uniform(10, 40), 1) for t in TESTS},
            "imms": {t: [{"item_id": "m1", "subscale": rng.choice(["Attention", "Relevance"]),
                          "response": rng.randint(1, 7)}] for t in TESTS},
        })
    return students


def field_paths(students: list[dict]) -> list[tuple]:
    """Every path to a value inside the records, the top-level list included."""
    paths: list[tuple] = [()]

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            paths.append(path + (key,))
            if isinstance(value, (dict, list)):
                walk(value, path + (key,))

    walk(students, ())
    return paths


def mutate(rng: random.Random, students: list[dict]) -> tuple[object, str]:
    """A copy of ``students`` with one value replaced, and a description of the change."""
    path = rng.choice(field_paths(students))
    kind = rng.choice(["wrong type", "non-finite", "repeat", "empty", "out of range"])
    if kind == "repeat":  # what another student has at the same place
        other = copy.deepcopy(rng.choice(students))
        value = students + [other] if not path else _get(other, path[1:])
    elif kind == "empty":
        value = rng.choice([[], {}, ""])
    else:
        pool = {"wrong type": WRONG_TYPE, "non-finite": NON_FINITE,
                "out of range": OUT_OF_RANGE}[kind]
        value = rng.choice(pool)
    if not path:
        return value, f"whole file -> {repr(value)[:40]}"
    mutated = copy.deepcopy(students)
    _get(mutated, path[:-1])[path[-1]] = value
    return mutated, f"{'/'.join(map(str, path))} -> {repr(value)[:40]} ({kind})"


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def test_no_value_ends_in_a_traceback(tmp_path, capsys):
    rng = random.Random(SEED)
    key = [ReadingItem(id="k1", passage="Key passage. Yes.",
                       questions=tuple(make_question(q, BLOOM_CYCLE[q])
                                       for q in range(N_QUESTIONS)))]
    key_path = tmp_path / "key.jsonl"
    save_items(key, key_path)
    records = tmp_path / "students.json"
    out = tmp_path / "result.json"
    commands = {
        "split": ["split", "--records", records, "--group-size", "2"],
        "score": ["score", "--records", records, "--key", key_path, "--test", "test1"],
        "stats": ["stats", "--records", records, "--key", f"test1={key_path}",
                  "--key", f"test2={key_path}"],
    }
    problems = []
    exits: dict[int, int] = {}
    for case in range(CASES):
        students = generate_students(rng)
        content, change = (students, "unchanged") if case == 0 else mutate(rng, students)
        records.write_text(json.dumps(content), encoding="utf-8")
        for name, argv in commands.items():
            capsys.readouterr()
            try:
                code = cli.main([str(arg) for arg in argv] + ["--out", str(out)])
            except Exception as exc:  # escaped main: a traceback on the command line
                problems.append(f"case {case} {name} [{change}]: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            exits[code] = exits.get(code, 0) + 1
            if case == 0 and code != 0:
                problems.append(f"unchanged records: {name} exited {code}: {err}")
            if code not in (0, 2, 3, 4):
                problems.append(f"case {case} {name} [{change}]: exit {code}")
            if len(err.splitlines()) > 1 or "Traceback" in err:
                problems.append(f"case {case} {name} [{change}]: stderr {err!r}")
            if code != 0 and out.exists():
                problems.append(f"case {case} {name} [{change}]: --out written on exit {code}")
            out.unlink(missing_ok=True)
    assert not problems, "\n".join(problems[:20])
    # The mutations reach both outcomes: accepted values and refused ones.
    assert exits.get(0) and exits.get(3)


# -- records files --------------------------------------------------------------

RECORD_CASES = 90
FORMAT_MARKS = [True, False, 2.0, 3.0, "3", None, 0, 1, 2, 3, 4, [3]]


def generate_record_files(taxonomy, tagset) -> dict[str, list[dict]]:
    """One mock run of two items for two students, as format 1, 2 and 3 lines.

    One reply each at steps 2 and 4 is rejected, so corrective prompts are
    part of every file.
    """
    items = [make_item(item_id, PASSAGES[item_id], source_topic=SOURCE_TOPICS[item_id])
             for item_id in ("r1", "r2")]
    script = build_mock_script(items, repeats=2)
    script["classify_question"].insert(0, "Comprehend")
    script["transcreate_passage"].insert(0, "A reply without its tags.")
    pipe = TranscreationPipeline(mock_gateway(script), taxonomy, tagset)
    records = pipe.transcreate_many([Work(item, topic, sid, "interest") for sid in ("s1", "s2")
                                     for item, topic in zip(items, ("7.a", "8.c"))])
    return {"v1": _lines(v1_rendering(records)), "v2": _lines(v2_rendering(records)),
            "v3": _lines(_saved(records))}


def _lines(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def _saved(records) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        save_records(records, path)
        return path.read_bytes()


def _refs(lines: list[dict], kind: str) -> list[dict]:
    """Every ``{kind: ...}`` reference object in the lines' bindings."""
    return [value for line in lines for exchanges in line.get("step_exchanges", {}).values()
            for exchange in exchanges for value in exchange.get("bindings", {}).values()
            if isinstance(value, dict) and kind in value]


def mutate_records(rng: random.Random, files: dict[str, list[dict]]) -> tuple[str, str]:
    """A records file with one value changed, as text, and a description of the change."""
    version = rng.choice(sorted(files))
    lines = copy.deepcopy(files[version])
    line = rng.choice(lines)
    kind = rng.choice(["any", "format", "same_as", "text key", "field", "template"])
    if kind == "format":
        line["format"] = value = rng.choice(FORMAT_MARKS)
    elif kind == "same_as":
        line["same_as"] = value = rng.choice(
            ["r9:s1", lines[-1]["record_id"], 5, None, line["record_id"]])
    elif kind == "text key" and _refs(lines, "text"):
        ref = rng.choice(_refs(lines, "text") + [rng.choice(
            [e for ex in line["step_exchanges"].values() for e in ex] or [{}])])
        key = "text" if "text" in ref else "template"
        ref[key] = value = rng.choice(["0123456789abcdef", "", 7, ref.get(key, "x")[:8]])
    elif kind == "field" and _refs(lines, "field"):
        ref = rng.choice(_refs(lines, "field"))
        field = rng.choice(["transcreated_passage", "tagged_source", "questions_payload",
                            "source.stem", "source.options", "source", "nope", 3])
        ref.clear()
        ref.update({"field": field, "question": rng.choice([0, 4, 5, -1, True, "1"])}
                   if rng.random() < 0.5 else {"field": field})
        if rng.random() < 0.3:
            line[rng.choice(["transcreated_passage", "tagged_source", "question_blooms"])] = None
        value = ref
    elif kind == "template" and any("texts" in line for line in lines):
        return _drop_placeholder(rng, lines), f"{version} template without a placeholder"
    else:
        path = rng.choice(field_paths(lines)[1:])
        other = rng.choice(lines)  # what another line has at the same place, if anything
        value = rng.choice(WRONG_TYPE + [copy.deepcopy(_get(other, path[1:]))
                                         if _has(other, path[1:]) else None])
        _get(lines, path[:-1])[path[-1]] = value
        kind = "/".join(map(str, path))
    text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
    return text, f"{version} {kind} -> {repr(value)[:40]}"


def _drop_placeholder(rng: random.Random, lines: list[dict]) -> str:
    """The lines with one placeholder taken out of a template, under the template's new key."""
    templates = [(line, key) for line in lines for key, text in line.get("texts", {}).items()
                 if isinstance(text, dict) and "{" in text["user"]]
    line, key = rng.choice(templates)
    template = line["texts"].pop(key)
    names = re.findall(r"\{\w+\}", template["user"])
    template["user"] = template["user"].replace(rng.choice(names), "", 1)
    new_key = PromptTemplate(template["name"], template["system"], template["user"]).sha256[:16]
    line["texts"][new_key] = template
    text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines)
    return text.replace(f'"{key}"', f'"{new_key}"')


def _has(node, path) -> bool:
    try:
        _get(node, path)
    except (KeyError, IndexError, TypeError):
        return False
    return True


def test_no_records_value_ends_in_a_traceback(tmp_path, capsys, taxonomy, tagset):
    rng = random.Random(SEED + 1)
    files = generate_record_files(taxonomy, tagset)
    records = tmp_path / "records.jsonl"
    out = tmp_path / "judged.json"
    queue = tmp_path / "queue.json"
    judge_script = tmp_path / "judge.json"
    judge_script.write_text(json.dumps({"judge_bloom": BLOOM_CYCLE * 8}), encoding="utf-8")
    commands = {
        "judge": ["judge", "--in", records, "--mock", judge_script, "--out", out],
        "review": ["review", "--queue", queue, "--in", records, "--open-only", "--force"],
    }
    problems = []
    exits: dict[int, int] = {}
    for case in range(RECORD_CASES):
        if case < len(files):
            version = sorted(files)[case]
            text = "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in files[version])
            change = f"{version} unchanged"
        else:
            text, change = mutate_records(rng, files)
        records.write_text(text, encoding="utf-8")
        for name, argv in commands.items():
            capsys.readouterr()
            queue.unlink(missing_ok=True)
            try:
                code = cli.main([str(arg) for arg in argv])
            except Exception as exc:  # escaped main: a traceback on the command line
                problems.append(f"case {case} {name} [{change}]: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            exits[code] = exits.get(code, 0) + 1
            # A file that loads may still hold failed records: judge then
            # lists them in its output and names each on its own stderr line.
            listed = (name == "judge" and out.exists()
                      and "failures" in json.loads(out.read_text(encoding="utf-8"))
                      and all(line.startswith("failed: ") for line in err.splitlines()))
            if case < len(files) and code != 0:
                problems.append(f"{change} records: {name} exited {code}: {err}")
            if code not in (0, 2, 3, 4):
                problems.append(f"case {case} {name} [{change}]: exit {code}")
            lines_allowed = 2 if name == "review" and code == 0 else 1
            if "Traceback" in err or (len(err.splitlines()) > lines_allowed and not listed):
                problems.append(f"case {case} {name} [{change}]: stderr {err!r}")
            if code != 0 and (queue.exists() or (out.exists() and not listed)):
                problems.append(f"case {case} {name} [{change}]: output written on exit {code}")
            out.unlink(missing_ok=True)
    assert not problems, "\n".join(problems[:20])
    assert exits.get(0) and exits.get(3)
