"""Benchmark for the transcreate program, driven only through its CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and ``transcreate.cli.main(argv)`` is called in-process.
Inputs are generated from ``--seed``; scratch files go under ``.bench_work/``
in the checkout and are removed at exit.

A run times the program's import in fresh interpreters and sets up its
inputs, five times each, and reports the sum of the medians as set-up time.
It then repeats a *round* (one batch of CLI calls) until the rounds
have taken ``--seconds`` in total, checking each round's outputs after it. With
``--trace 0`` it reports the end-to-end metrics from unpatched rounds. With
``--trace 1`` it alternates unpatched and traced rounds, reports the
per-layer metrics from the traced ones, and the tracing overhead as the
difference of their mean round times. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are rescaled to a host of fixed speed. A fixed pure-Python reference
pass is timed before every set-up and every CLI call of a round. Each timed
interval's CPU time is scaled by ``REF_PASS_S`` over the mean pass time of
its phase; the rest of the interval (waiting on files, sockets or the stub)
stays as measured. The raw times are printed alongside.

Workloads (closed loop, one process, at most two worker threads):

- ``cohort-mock``: ``transcreate --mode interest --jobs 2 --mock`` over items x
  20 students, then ``judge --mock`` over the records it wrote.
- ``single-pass-http``: ``transcreate --mode random --jobs 2`` for one student
  through the HTTP backend, against stub.py in its own process.
- ``study-analysis``: ``split``/``score``/``stats`` on one of three cohorts in
  turn, ``analyze`` over a passage corpus, one scripted ``review`` session and
  ``qa-report``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SIZES = {
    "full": {"cohort_items": 20, "cohort_students": 20, "http_items": 48,
             "study_cohorts": 3, "study_students": 20, "corpus": 400,
             "review_items": 8, "review_students": 5},
    "tiny": {"cohort_items": 3, "cohort_students": 4, "http_items": 6,
             "study_cohorts": 1, "study_students": 8, "corpus": 12,
             "review_items": 2, "review_students": 3},
}
SETUP_REPEATS = 5
MIN_ROUNDS = 3
RUN_BUDGET_S = 140.0  # a slow program still gets its result out within 180 s
# Stub delay per reply: most, not all, of a call at the seed commit.
STUB_BASE_MS = 3.0
STUB_PER_CHAR_US = 4.0
API_KEY_ENV = "TRANSCREATE_BENCH_KEY"

# The host's speed shifts by up to 1.7x within seconds (the reference pass
# takes 19 to 37 ms on a 2-vCPU Xeon VM), in both CPU and wall time, so raw
# round times spread between runs by more than the bounds. Times are
# reported as on a host where one reference pass takes REF_PASS_S.
REF_PASS_S = 0.020

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "records_per_s": "records/s",
                    "peak_rss_mb": "MB"}
HOST_UNITS = {"host.ref_pass_ms": "ms", "host.raw_round_s": "s", "host.cpu_share": "ratio"}


class SetupError(Exception):
    pass


class Cli:
    """Calls ``transcreate.cli.main`` with stdin, stdout and stderr swapped for buffers."""

    def __init__(self, module: Any):
        self.module = module
        self.speed: HostSpeed | None = None  # sampled before each call of a timed round
        self.timings: list[tuple[float, float]] = []  # (wall, CPU) of each timed call

    def __call__(self, *argv: Any, stdin: str | None = None) -> tuple[Any, str]:
        args = [str(a) for a in argv]
        if self.speed is not None:
            self.speed.sample()
        saved = sys.stdin, sys.stdout, sys.stderr
        err = io.StringIO()
        sys.stdout, sys.stderr = io.StringIO(), err
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        start = _clock()
        try:
            code = self.module.main(args)  # looked up per call, so tracing applies
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not the end of the run
            code = "crash"
            err.write(traceback.format_exc())
        finally:
            self.timings.append(_since(start))
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, err.getvalue()


def cli_op(tally: checks.Tally, call: tuple[str, Any, str], expected: int = 0) -> bool:
    label, code, err = call
    return tally.op(code == expected,
                    f"{label}: exit {code}, expected {expected}: {err.strip()[-300:]}")


class Workload:
    """One workload: set up inputs, run one round, check one round."""

    def __init__(self, modules: dict[str, Any], seed: int, size: dict[str, int]):
        self.modules = modules
        self.cli = Cli(modules["cli"])
        self.seed = seed
        self.size = size

    def topics_and_tags(self) -> tuple[list[str], list[str]]:
        corpus = self.modules["corpus"]
        return list(corpus.load_taxonomy().codes()), list(corpus.load_tagset().ids())

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def run_round(self, directory: Path) -> list[tuple[str, Any, str]]:
        raise NotImplementedError

    def check_round(self, directory: Path, calls: list, tally: checks.Tally) -> int:
        """Adds the round's operations to ``tally``; returns records on target."""
        raise NotImplementedError

    def records(self) -> int:
        raise NotImplementedError

    def stub_stats(self) -> dict[str, float] | None:
        return None

    def expectations(self) -> list[str]:
        """What the generated inputs imply for the counts the traced run reports."""
        return []

    def close(self) -> None:
        pass


class CohortMock(Workload):
    name = "cohort-mock"

    def setup(self, directory: Path) -> None:
        topics, tags = self.topics_and_tags()
        items = gen.make_items(self.seed, self.size["cohort_items"], topics, tags)
        profiles = gen.make_profiles(self.seed, self.size["cohort_students"], topics)
        self.plan = gen.plan_cohort(self.seed, items, profiles)
        self.items = directory / "items.jsonl"
        self.profiles = directory / "profiles.json"
        self.script = directory / "script.json"
        self.judge_script = directory / "judge_script.json"
        gen.write_jsonl(self.items, [item.to_dict() for item in items])
        gen.write_json(self.profiles, profiles)
        gen.write_json(self.script, self.plan.transcreate_script)
        gen.write_json(self.judge_script, self.plan.judge_script)

    def run_round(self, directory: Path) -> list[tuple[str, Any, str]]:
        records = directory / "records.jsonl"
        return [
            ("transcreate", *self.cli(
                "transcreate", "--in", self.items, "--profiles", self.profiles,
                "--mode", "interest", "--out", records, "--jobs", 2, "--mock", self.script)),
            ("judge", *self.cli(
                "judge", "--in", records, "--out", directory / "judged.json",
                "--mock", self.judge_script)),
        ]

    def check_round(self, directory: Path, calls: list, tally: checks.Tally) -> int:
        for call in calls:
            cli_op(tally, call)
        ok = checks.check_records(directory / "records.jsonl", self.plan.records, tally)
        checks.check_verdicts(directory / "judged.json", self.plan, tally)
        return ok

    def records(self) -> int:
        return len(self.plan.records)

    def expectations(self) -> list[str]:
        calls = self.plan.step_calls
        pipeline_calls = sum(calls[step] for step in spans.STEPS)
        analysis = sum(calls[step] for step in spans.ANALYSIS_STEPS)
        return [
            "script implies per round: " + ", ".join(f"{k} {v} calls" for k, v in calls.items())
            + f", {self.plan.timeouts} timeouts",
            f"script implies pipeline.analysis_call_share {analysis / pipeline_calls} "
            f"(first attempts alone: 7 of 9 = {7 / 9})",
        ]


class SinglePassHttp(Workload):
    name = "single-pass-http"
    stub: subprocess.Popen | None = None

    def setup(self, directory: Path) -> None:
        topics, tags = self.topics_and_tags()
        items = gen.make_items(self.seed, self.size["http_items"], topics, tags, prefix="hp")
        profiles = gen.make_profiles(self.seed, 1, topics)
        source, self.expected, self.implied_calls = gen.plan_single_pass(
            self.seed, items, profiles[0]["student_id"])
        self.doomed = sum(1 for r in self.expected if r.failed_step is not None)
        self.items = directory / "items.jsonl"
        self.profiles = directory / "profiles.json"
        self.config = directory / "config.json"
        replies = directory / "replies.json"
        gen.write_jsonl(self.items, [item.to_dict() for item in items])
        gen.write_json(self.profiles, profiles)
        gen.write_json(replies, source)
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), str(replies),
             str(STUB_BASE_MS), str(STUB_PER_CHAR_US)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        port = self._read_line()["port"]
        gen.write_json(self.config, {"provider": {
            "endpoint": f"http://127.0.0.1:{port}/v1/chat/completions",
            "model_id": "bench-stub", "api_key_env": API_KEY_ENV, "timeout_s": 30.0,
            "max_retries": 3, "max_in_flight": 2,
        }})
        os.environ[API_KEY_ENV] = "bench"

    def _read_line(self) -> dict[str, Any]:
        assert self.stub is not None and self.stub.stdout is not None
        ready, _, _ = select.select([self.stub.stdout], [], [], 15)
        line = self.stub.stdout.readline() if ready else ""
        if not line:
            raise SetupError("stub provider did not answer")
        return json.loads(line)

    def stub_stats(self) -> dict[str, float]:
        assert self.stub is not None and self.stub.stdin is not None
        self.stub.stdin.write("stats\n")
        self.stub.stdin.flush()
        return self._read_line()

    def run_round(self, directory: Path) -> list[tuple[str, Any, str]]:
        return [("transcreate", *self.cli(
            "transcreate", "--in", self.items, "--profiles", self.profiles,
            "--mode", "random", "--out", directory / "records.jsonl", "--jobs", 2,
            "--config", self.config, "--seed", self.seed))]

    def check_round(self, directory: Path, calls: list, tally: checks.Tally) -> int:
        # Doomed items fail at step 4, so the CLI reports validation failures (3).
        cli_op(tally, calls[0], expected=3 if self.doomed else 0)
        return checks.check_records(directory / "records.jsonl", self.expected, tally)

    def records(self) -> int:
        return len(self.expected)

    def expectations(self) -> list[str]:
        return [f"replies imply {self.implied_calls / len(self.expected)} calls/record"]

    def close(self) -> None:
        stub, self.stub = self.stub, None
        if stub is None:
            return
        if stub.stdin is not None:
            stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        if stub.stdout is not None:
            stub.stdout.close()


class StudyAnalysis(Workload):
    name = "study-analysis"

    def setup(self, directory: Path) -> None:
        seed, size = self.seed, self.size
        self.keys = {t: gen.make_key(seed, t) for t in ("test1", "test2")}
        self.key_paths = {t: directory / f"{t}.jsonl" for t in self.keys}
        for t, key in self.keys.items():
            gen.write_jsonl(self.key_paths[t], key)
        self.cohorts = [gen.make_cohort(seed, c, size["study_students"], self.keys)
                        for c in range(size["study_cohorts"])]
        self.cohort_paths = [directory / f"cohort{c}.json" for c in range(len(self.cohorts))]
        for path, cohort in zip(self.cohort_paths, self.cohorts):
            gen.write_json(path, cohort)
        passages, self.counts = gen.make_corpus(seed, size["corpus"])
        self.corpus = directory / "corpus.jsonl"
        gen.write_jsonl(self.corpus, passages)

        # Records to review come from a clean mock run of the program itself,
        # so they follow whatever record format the program writes.
        topics, tags = self.topics_and_tags()
        items = gen.make_items(seed, size["review_items"], topics, tags, prefix="rv")
        profiles = gen.make_profiles(seed + 1, size["review_students"], topics)
        plan = gen.plan_cohort(seed, items, profiles)
        gen.write_jsonl(directory / "review_items.jsonl", [i.to_dict() for i in items])
        gen.write_json(directory / "review_profiles.json", profiles)
        gen.write_json(directory / "review_script.json", plan.transcreate_script)
        self.review_records = directory / "review_records.jsonl"
        code, err = self.cli(
            "transcreate", "--in", directory / "review_items.jsonl",
            "--profiles", directory / "review_profiles.json", "--mode", "interest",
            "--out", self.review_records, "--mock", directory / "review_script.json")
        tally = checks.Tally()
        checks.check_records(self.review_records, plan.records, tally)
        if code != 0 or tally.failed:
            raise SetupError(f"records for review: exit {code}; {tally.failures[:3]} {err[-300:]}")
        self.review_stdin, self.review_steps = gen.plan_review(seed, plan.records)
        self.rounds = 0

    def run_round(self, directory: Path) -> list[tuple[str, Any, str]]:
        # Rounds take the cohorts in turn: shorter rounds, so more of them
        # per run and a steadier mean.
        self.rounds += 1
        c = self.rounds % len(self.cohorts)
        path, test = self.cohort_paths[c], self.test_of(c)
        calls = [
            ("split", *self.cli(
                "split", "--records", path, "--group-size", self.size["study_students"] // 2,
                "--out", directory / "split.json")),
            ("score", *self.cli(
                "score", "--records", path, "--key", self.key_paths[test], "--test", test,
                "--out", directory / "score.json")),
            ("stats", *self.cli(
                "stats", "--records", path, "--key", f"test1={self.key_paths['test1']}",
                "--key", f"test2={self.key_paths['test2']}", "--out", directory / "stats.json")),
        ]
        calls.append(("analyze", *self.cli(
            "analyze", "--in", self.corpus, "--out", directory / "analysis.json")))
        queue = directory / "queue.json"
        calls.append(("review", *self.cli(
            "review", "--queue", queue, "--in", self.review_records, "--force",
            "--reviewer", "bench", stdin=self.review_stdin)))
        calls.append(("qa-report", *self.cli(
            "qa-report", "--queue", queue, "--out", directory / "qa.json")))
        return calls

    def check_round(self, directory: Path, calls: list, tally: checks.Tally) -> int:
        for call in calls:
            cli_op(tally, call)
        c = self.rounds % len(self.cohorts)
        cohort, test = self.cohorts[c], self.test_of(c)
        before = tally.failed
        checks.check_split(directory / "split.json", cohort, len(cohort) // 2, tally)
        checks.check_scores(directory / "score.json", cohort, self.keys[test], test, tally)
        checks.check_stats(directory / "stats.json", cohort, self.keys, tally)
        ok = 3 * len(cohort) if tally.failed == before else 0
        ok += checks.check_analyze(directory / "analysis.json", self.counts, tally)
        ok += checks.check_review(directory / "queue.json", directory / "qa.json",
                                  self.review_steps, gen.QUESTIONS_PER_ITEM, tally)
        return ok

    def records(self) -> int:
        """Student records read by split, score and stats, passages, and review entries."""
        return 3 * self.size["study_students"] + len(self.counts) + len(self.review_steps)

    @staticmethod
    def test_of(cohort: int) -> str:
        return "test2" if cohort % 2 else "test1"


WORKLOADS = {w.name: w for w in (CohortMock, SinglePassHttp, StudyAnalysis)}


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t, c = time.perf_counter(), time.process_time(); import transcreate.cli; "
                "print(time.perf_counter() - t, time.process_time() - c)")


def _import_program() -> dict[str, Any]:
    sys.path.insert(0, str(SRC))
    import transcreate
    from transcreate import cli, corpus, gateway, pipeline, stats, textmetrics, validation
    if Path(transcreate.__file__).resolve().parent != SRC / "transcreate":
        raise SetupError(f"imported transcreate from {transcreate.__file__}, not {SRC}")
    return {"cli": cli, "corpus": corpus, "gateway": gateway, "pipeline": pipeline,
            "stats": stats, "textmetrics": textmetrics, "validation": validation}


def _import_probe() -> tuple[float, float]:
    """Wall and CPU seconds a fresh interpreter takes to import the CLI, as every CLI call pays it."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise SetupError(f"importing the program failed: {probe.stderr[-300:]}")
    wall, cpu = probe.stdout.split()
    return float(wall), float(cpu)


def _clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds (all threads of this process) since ``start``."""
    wall, cpu = _clock()
    return wall - start[0], cpu - start[1]


def _reference_pass() -> float:
    """Seconds one fixed pure-Python workload takes: the host's speed at this moment."""
    start = time.perf_counter()
    table: dict[int, str] = {}
    total = 0
    for i in range(40000):
        word = f"w{i % 997}"
        table[i % 1499] = word
        total += len(word.upper()) * (i % 7) + sum(divmod(i, 13))
    " ".join(table.values()).split()
    return time.perf_counter() - start


class HostSpeed:
    """Reference passes sampled through one phase of a run, and the rescaling they give.

    The mean is used, not the median: the host shifts between a fast and a
    slow speed, and the mean pass time follows the share of time spent slow,
    as the phase's mean interval time does.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []

    def sample(self) -> None:
        self.passes.append(_reference_pass())

    def pass_s(self) -> float:
        return statistics.mean(self.passes)

    def adjust(self, wall: float, cpu: float) -> float:
        """The interval as on the reference host: its CPU time rescaled, its waiting kept."""
        cpu = min(cpu, wall)  # worker threads running side by side count once
        return wall + (REF_PASS_S / self.pass_s() - 1) * cpu


class CheckedRounds:
    """Checks each round, reusing the verdict of an earlier round with identical outputs.

    A round whose exit codes and output bytes equal an already checked
    round's gets that round's verdict; any difference is checked in full.
    """

    def __init__(self) -> None:
        self._seen: dict[str, tuple[int, list[str], int]] = {}

    def check(self, workload: Workload, directory: Path, calls: list,
              tally: checks.Tally) -> int:
        digest = hashlib.sha256(repr([(label, code) for label, code, _ in calls]).encode())
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode() + b"\0")
                with path.open("rb") as handle:  # in blocks, to keep peak memory the program's
                    for block in iter(lambda: handle.read(1 << 20), b""):
                        digest.update(block)
        key = digest.hexdigest()
        if key in self._seen:
            attempted, failures, ok = self._seen[key]
            tally.attempted += attempted
            tally.failures += failures
            return ok
        attempted, failed = tally.attempted, tally.failed
        ok = workload.check_round(directory, calls, tally)
        self._seen[key] = (tally.attempted - attempted, tally.failures[failed:], ok)
        return ok


def _stub_delta(before: dict[str, float] | None, after: dict[str, float] | None
                ) -> dict[str, float] | None:
    if before is None or after is None:
        return None
    return {key: after[key] - before[key] for key in after}


def run(args: argparse.Namespace) -> dict[str, Any]:
    run_start = time.perf_counter()
    modules = _import_program()
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    workload = WORKLOADS[args.workload](modules, args.seed, SIZES[args.size])
    tracer = spans.Tracer(modules) if args.trace else None
    try:
        setup_speed = HostSpeed()
        imports: list[tuple[float, float]] = []
        setups: list[tuple[float, float]] = []
        for n in range(SETUP_REPEATS):
            setup_speed.sample()
            imports.append(_import_probe())
            workload.close()
            directory = base / f"setup{n}"
            directory.mkdir()
            start = _clock()
            workload.setup(directory)
            setups.append(_since(start))
        setup_speed.sample()

        tally = checks.Tally()
        checked = CheckedRounds()
        round_speed = HostSpeed()
        plain_rounds: list[tuple[float, float]] = []
        traced_rounds: list[tuple[float, float]] = []
        plain_ok = 0
        traced_spans: list[list[spans.Span]] = []
        traced_stub: list[dict[str, float]] = []
        timed = 0.0
        n = 0
        while True:
            traced = tracer is not None and n % 2 == 1
            directory = base / f"round{n}"
            directory.mkdir()
            gc.collect()
            stub_before = workload.stub_stats()
            workload.cli.speed, workload.cli.timings = round_speed, []
            if traced:
                tracer.install()
            try:
                calls = workload.run_round(directory)
            finally:
                workload.cli.speed = None
                wall = sum(w for w, _ in workload.cli.timings)
                cpu = sum(c for _, c in workload.cli.timings)
                if traced:
                    tracer.uninstall()
            stub_round = _stub_delta(stub_before, workload.stub_stats())
            ok_records = checked.check(workload, directory, calls, tally)
            shutil.rmtree(directory, ignore_errors=True)
            if traced:
                traced_rounds.append((wall, cpu))
                traced_spans.append(tracer.take())
                if stub_round is not None:
                    traced_stub.append(stub_round)
            else:
                plain_rounds.append((wall, cpu))
                plain_ok += ok_records
            timed += wall
            n += 1
            enough = n >= (2 * MIN_ROUNDS - 2 if tracer else MIN_ROUNDS) and timed >= args.seconds
            # Never start a round likely to end past the budget; a traced run needs two.
            over = time.perf_counter() - run_start + wall > RUN_BUDGET_S
            if enough or (over and n >= (2 if tracer else 1)):
                break
        round_speed.sample()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(base, ignore_errors=True)

    for failure in tally.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    plain = [round_speed.adjust(wall, cpu) for wall, cpu in plain_rounds]
    plain_wall = sum(wall for wall, _ in plain_rounds)
    if tracer is None:
        values = {
            "setup_s": (statistics.median(setup_speed.adjust(*t) for t in imports)
                        + statistics.median(setup_speed.adjust(*t) for t in setups)),
            "round_s": statistics.mean(plain),
            "records_per_s": plain_ok / sum(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        values = spans.layer_metrics(traced_spans, traced_stub or None, workload.records())
        traced = [round_speed.adjust(wall, cpu) for wall, cpu in traced_rounds]
        overhead = statistics.mean(traced) - statistics.mean(plain)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / statistics.mean(plain)
        values["host.ref_pass_ms"] = round_speed.pass_s() * 1000
        values["host.raw_round_s"] = plain_wall / len(plain_rounds)
        values["host.cpu_share"] = sum(min(c, w) for w, c in plain_rounds) / plain_wall
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in {**spans.layer_units(), **HOST_UNITS}.items()}
        spans.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl",
                          traced_spans[-1])
    print(f"workload {args.workload} seed {args.seed}: {n} rounds, {timed:.2f} s timed, "
          f"{workload.records()} records per round")
    print("raw round walls (s): " + " ".join(f"{w:.4f}" for w, _ in plain_rounds))
    print("raw round CPU (s): " + " ".join(f"{c:.4f}" for _, c in plain_rounds))
    print(f"reference pass: {round_speed.pass_s() * 1000:.2f} ms in rounds, "
          f"{setup_speed.pass_s() * 1000:.2f} ms in set-up, {REF_PASS_S * 1000:.0f} ms reported")
    print("raw set-up (s): import " + " ".join(f"{w:.4f}" for w, _ in imports)
          + ", inputs " + " ".join(f"{w:.4f}" for w, _ in setups))
    print(f"failed_share {tally.failed / max(tally.attempted, 1)} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for line in workload.expectations():
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "transcreate" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
