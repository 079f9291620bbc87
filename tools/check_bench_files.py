"""Check the committed ``BENCH_*.json`` files against ``BENCHMARK.json``.

Usage: python3 tools/check_bench_files.py [REPO_ROOT]

A ``BENCH_<n>.json`` file holds the ``bench/run.py`` result lines of one
change and of its parent, and their medians::

    {"workloads": {"<workload>": {
        "metrics": {"<end-to-end metric>": {"parent": 0.29, "change": 0.23}, ...},
        "runs": {"parent": [<result line>, ...], "change": [...]}}, ...}, ...}

Each file must parse and give a parent and a change value of every
end-to-end metric of every workload that ``BENCHMARK.json`` declares, and
each value must be the median of that metric over the side's listed runs.
Prints one line per problem and exits 1 if there is any.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def problems(bench_file: Path, benchmark: dict) -> list[str]:
    try:
        data = json.loads(bench_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{bench_file.name}: not readable JSON: {exc}"]
    found = []
    workloads = data.get("workloads") if isinstance(data, dict) else None
    if not isinstance(workloads, dict):
        return [f"{bench_file.name}: no 'workloads' object"]
    for workload in benchmark["workloads"]:
        name = workload["name"]
        entry = workloads.get(name)
        metrics = entry.get("metrics") if isinstance(entry, dict) else None
        metrics = metrics if isinstance(metrics, dict) else {}
        runs = entry.get("runs") if isinstance(entry, dict) else None
        runs = runs if isinstance(runs, dict) else {}
        for metric in benchmark["end_to_end"]:
            where = f"{bench_file.name}: {name}: {metric['name']}"
            pair = metrics.get(metric["name"])
            for side in ("parent", "change"):
                value = pair.get(side) if isinstance(pair, dict) else None
                if not _is_number(value):
                    found.append(f"{where}: no {side} value")
                    continue
                values = _run_values(runs.get(side), metric["name"])
                if values is None:
                    found.append(f"{where}: no {side} runs with a value")
                elif (median := statistics.median(values)) != value:
                    found.append(f"{where}: {side} {value} is not the median {median} of its runs")
    return found


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _run_values(runs, metric: str) -> list[float] | None:
    """The metric's value in each listed result line; None if there are none or one lacks it."""
    if not isinstance(runs, list) or not runs:
        return None
    values = []
    for run in runs:
        metrics = run.get("metrics") if isinstance(run, dict) else None
        entry = metrics.get(metric) if isinstance(metrics, dict) else None
        value = entry.get("value") if isinstance(entry, dict) else None
        if not _is_number(value):
            return None
        values.append(value)
    return values


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = sorted(root.glob("BENCH_*.json"))
    found = [problem for path in files for problem in problems(path, benchmark)]
    for problem in found:
        print(problem)
    print(f"{len(files)} BENCH file(s) checked, {len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
