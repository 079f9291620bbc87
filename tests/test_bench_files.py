"""The committed BENCH_*.json result files name every end-to-end metric."""

from __future__ import annotations

import copy
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


def bench_workloads(tmp_path, run_values=(1.0,)):
    """Workloads whose every metric is 1.0 on both sides, with runs of those values."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in benchmark["end_to_end"]]
    runs = [{"metrics": {m: {"value": value} for m in names}} for value in run_values]
    return {w["name"]: {"metrics": {m: {"parent": 1.0, "change": 1.0} for m in names},
                        "runs": {"parent": copy.deepcopy(runs), "change": copy.deepcopy(runs)}}
            for w in benchmark["workloads"]}


def test_missing_values_are_named(tmp_path, capsys):
    workloads = bench_workloads(tmp_path)
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


def test_medians_are_checked_against_the_runs(tmp_path, capsys):
    # Even run count: the median is the mean of the middle two, 1.0.
    workloads = bench_workloads(tmp_path, run_values=(0.5, 0.9, 1.1, 7.0))
    first, *_, last = workloads
    workloads[first]["metrics"]["round_s"]["change"] = 0.9
    del workloads[last]["runs"]["parent"][2]["metrics"]["setup_s"]
    workloads[last]["runs"]["change"] = []
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"workloads": workloads}),
                                           encoding="utf-8")
    assert check_bench_files.main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"BENCH_1.json: {first}: round_s: change 0.9 is not the median 1.0 of its runs" in out
    assert f"BENCH_1.json: {last}: setup_s: no parent runs with a value" in out
    assert f"BENCH_1.json: {last}: round_s: no change runs with a value" in out
    n_metrics = len(workloads[last]["metrics"])
    assert out[-1] == f"1 BENCH file(s) checked, {2 + n_metrics} problem(s)"
