"""Self-test for the benchmark; run with ``python3 bench/selftest.py``.

Runs every workload in BENCHMARK.json once at tiny size, untraced and
traced, and asserts that the result line names every metric with its unit,
that no operation failed, and that a directory holding only the benchmark
(no program source) makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=180, cwd=root,
    )


def result_problems(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')}")
    if not any(line.startswith("failed_share 0.0 ratio") for line in lines):
        problems.append("failed_share is not reported as 0")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got} (unit {m['unit']})")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            problems = result_problems(run_once(ROOT, workload["name"], trace), spec[section])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload['name']} trace={trace}: {status}")
            failures += problems

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_once(bare, spec["workloads"][0]["name"], 0)
        bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"benchmark without program source: exit {proc.returncode} "
              f"({'ok' if bare_ok else 'FAIL'})")
        if not bare_ok:
            failures.append("benchmark succeeded without the program source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("self-test " + ("passed" if not failures else f"failed: {len(failures)} problems"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
