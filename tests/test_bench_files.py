"""The committed BENCH_*.json result files name every end-to-end metric."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_files", ROOT / "tools" / "check_bench_files.py")
check_bench_files = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_files)


def test_committed_files_pass():
    assert list(ROOT.glob("BENCH_*.json"))
    assert check_bench_files.main(["check", str(ROOT)]) == 0


def test_missing_values_are_named(tmp_path, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"parent": 1.0, "change": 1.0} for m in benchmark["end_to_end"]}
    workloads = {w["name"]: {"metrics": {m: dict(pair) for m, pair in metrics.items()}}
                 for w in benchmark["workloads"]}
    first, *_ = workloads
    del workloads[first]["metrics"]["round_s"]["change"]
    workloads[first]["metrics"]["setup_s"]["parent"] = "0.2"
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"workloads": workloads}),
                                           encoding="utf-8")
    (tmp_path / "BENCH_2.json").write_text("{", encoding="utf-8")
    assert check_bench_files.main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"BENCH_1.json: {first}: round_s: no change value" in out
    assert f"BENCH_1.json: {first}: setup_s: no parent value" in out
    assert any(line.startswith("BENCH_2.json: not readable JSON") for line in out)
    assert out[-1] == "2 BENCH file(s) checked, 3 problem(s)"
