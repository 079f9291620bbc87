"""``fileio.indented_json`` against ``json.dumps(..., ensure_ascii=False, indent=2)``.

Seeded random payloads, then the real outputs of one seed of the bench's
cohort-mock and study-analysis inputs. Runs under pytest, or without it as a
plain script (``python tests/test_indented_json.py``), for interpreters that
have no pytest.
"""

from __future__ import annotations

import enum
import importlib.util
import json
import math
import random
import sys
import tempfile
from collections import OrderedDict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from transcreate import (  # noqa: E402
    cli, corpus, fileio, gateway, pipeline, stats, textmetrics, validation)
from transcreate.fileio import indented_json  # noqa: E402

SEED = 20261020
STRINGS = ["", "a", "é", "日本語", "🙂", "\n", '"', "}", "},\n", "},\n  {", "]", "\\", "\t",
           "\x00", " ", "{x}", " ", "/", ": "]
SCALARS = [0, 1, -7, 10**30, True, False, None, 0.0, -0.0, 1.5, 1e308, 5e-324, math.nan,
           math.inf, -math.inf, 0.1 + 0.2]
KEYS = [0, -3, 2.5, math.nan, math.inf, -math.inf, True, False, None]


class Sub(dict):
    pass


class Text(str):
    pass


class Level(enum.IntEnum):
    ONE = 1


def oracle(obj, depth=0):
    return json.dumps(obj, ensure_ascii=False, indent=2).replace("\n", "\n" + "  " * depth)


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(STRINGS) for _ in range(rng.randint(0, 4)))


def random_scalar(rng: random.Random):
    return random_string(rng) if rng.random() < 0.4 else rng.choice(SCALARS)


def random_flat(rng: random.Random, kind=None):
    kind = kind or rng.choice([dict, list, tuple, Sub, OrderedDict])
    values = [random_scalar(rng) for _ in range(rng.randint(0, 5))]
    if kind in (list, tuple):
        return kind(values)
    keys = [rng.choice(KEYS) if rng.random() < 0.3 else random_string(rng) + str(i)
            for i in range(len(values))]
    return kind(zip(keys, values))


def random_payload(rng: random.Random, depth: int = 0):
    """Nested containers of every kind, empty ones included at every depth."""
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        return random_scalar(rng)
    if roll < 0.4:
        return random_flat(rng)
    if roll < 0.5:  # a list of flat objects, sometimes with an empty one
        objects = [random_flat(rng, dict) or {"k": 1} for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.2:
            objects.insert(rng.randrange(len(objects) + 1), {})
        return objects
    children = [random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    kind = rng.choice([dict, list, tuple, Sub, OrderedDict])
    if kind in (list, tuple):
        return kind(children)
    return kind((rng.choice(KEYS) if rng.random() < 0.2 else f"k{i}{random_string(rng)}", child)
                for i, child in enumerate(children))


def test_seeded_random_payloads():
    rng = random.Random(SEED)
    for _ in range(3000):
        payload = random_payload(rng)
        depth = rng.choice([0, 0, 1, 2, 3])
        assert indented_json(payload, depth) == oracle(payload, depth), payload


def test_shapes_named_one_by_one():
    flat = {"id": "x", "n": 1, "f": 0.5, "ok": True, "none": None}
    cases = [
        {}, [], (), "s", 1, None, math.nan,
        {"a": {}, "b": [], "c": ()}, [[], {}, [[]], [{}], {"a": []}],
        {"a": [{}, {}]}, [flat, flat, flat], (flat, Sub(flat)), [flat, [1], "x", flat],
        [{"s": "},\n    {"}, {"s": '"}'}], {1: "int", 2.5: "float", True: "bool", None: "none"},
        {math.nan: 1, math.inf: [2], -math.inf: {"x": 3}}, ["\n", "}", "},\n", "é🙂"],
        OrderedDict([("b", 1), ("a", [flat])]), Sub(a=Sub(b=[Sub(), ()])),
        # Subclasses of scalars leave the C fast paths but not the format.
        {Text("k"): Text("}"), Level.ONE: Level.ONE, 1.5: 2.5}, [Text("v"), Level.ONE],
        [{"a": Text("x")}, {"b": Level.ONE}], {"a": [Text("},\n"), {Level.ONE: [Text("")]}]},
    ]
    for case in cases:
        for depth in range(4):
            assert indented_json(case, depth) == oracle(case, depth), (case, depth)


def test_refuses_what_json_refuses():
    loop: list = [1]
    loop.append(loop)
    cases = [([object()], TypeError), ({"a": {1, 2}}, TypeError), ({(1, 2): "x"}, TypeError),
             ([{"a": [1, {(): 2}]}], TypeError), (loop, ValueError)]
    for payload, error in cases:
        for encode in (oracle, indented_json):
            try:
                encode(payload)
            except error:
                continue
            raise AssertionError(f"{encode.__name__} took {payload!r}")


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_real_payloads_of_one_seed():
    """Every value written through the writer in a cohort-mock round (judge) and a
    study-analysis round (split, score, stats, analyze, review, qa-report) of
    seed 1 equals the oracle's text, and so does every JSON file they write."""
    run = _bench_run()
    modules = {"cli": cli, "corpus": corpus, "gateway": gateway, "pipeline": pipeline,
               "stats": stats, "textmetrics": textmetrics, "validation": validation}
    seen: dict[str, int] = {}

    def checked(module):
        def write(obj, depth=0):
            text = fileio.indented_json(obj, depth)
            assert text == oracle(obj, depth)
            seen[module.__name__] = seen.get(module.__name__, 0) + 1
            return text
        return write

    patched = [cli, validation, pipeline]
    for module in patched:
        module.indented_json = checked(module)
    try:
        with tempfile.TemporaryDirectory() as directory:
            for workload in (run.CohortMock, run.StudyAnalysis):
                work = Path(directory) / workload.name
                work.mkdir()
                bench = workload(modules, 1, run.SIZES["full"])
                bench.setup(work)
                calls = bench.run_round(work)
                assert [code for _, code, _ in calls] == [0] * len(calls), calls
                outputs = (["judged.json"] if workload is run.CohortMock else
                           ["split.json", "score.json", "stats.json", "analysis.json",
                            "queue.json", "qa.json"])
                for name in outputs:
                    text = (work / name).read_text(encoding="utf-8")
                    assert text == oracle(json.loads(text)) + "\n", name
    finally:
        for module in patched:
            module.indented_json = fileio.indented_json
    assert set(seen) == {module.__name__ for module in patched}, seen


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"{name}: ok")
