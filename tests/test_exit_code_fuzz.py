"""Seeded fuzzing of the exit-code contract over student-records files.

Each case changes one field of a small generated records file and runs
``split``, ``score`` and ``stats`` on it through ``cli.main``. Whatever the
value, a run must exit 0, 2, 3 or 4 with at most one stderr line and no
traceback, and a failed run must leave no ``--out`` file. Stdlib ``random``
with a fixed seed keeps every case reproducible.
"""

from __future__ import annotations

import copy
import json
import random

from conftest import BLOOM_CYCLE, make_question
from transcreate import cli
from transcreate.corpus import ReadingItem, save_items

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
