"""Spans around each layer's public entry points, and the per-layer metrics.

The tracer wraps functions from the outside, for the traced rounds only, and
restores the originals afterwards: the untraced rounds run unpatched code.
Each span records its name, start, end and parent. A span opened on a thread
with no open span (a pipeline worker) takes the open ``cli.main`` span as its
parent, so a command's self time excludes work done on its worker threads.
Entry points a later version of the program no longer has are skipped.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

STEPS = ("extract_topic", "classify_question", "tag_features",
         "transcreate_passage", "transcreate_questions")
ANALYSIS_STEPS = STEPS[:3]
SUBCOMMANDS = ("transcreate", "judge", "analyze", "split", "score", "stats",
               "review", "qa-report")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error", "info")

    def __init__(self, span_id: int, parent: int | None, name: str, start: int):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.error = False
        self.info: Any = None

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start_ns": self.start, "end_ns": self.end, "error": self.error,
                "info": self.info}


def _send_info(args: tuple, kwargs: dict, result: Any) -> Any:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return len(request.system) + len(request.user)


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _targets(modules: dict[str, Any]) -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, info hook) for every traced entry point."""
    cli, corpus, gateway, pipeline, stats, textmetrics, validation = (
        modules[name] for name in
        ("cli", "corpus", "gateway", "pipeline", "stats", "textmetrics", "validation"))
    pipe = pipeline.TranscreationPipeline
    out: list[tuple[Any, str, str, Callable | None]] = [
        (cli, "main", "cli.main", lambda a, k, r: str((a[0] if a else k["argv"])[0])),
        (gateway.Gateway, "complete_ex", "gateway.complete_ex", None),
        (gateway.MockBackend, "send", "gateway.send", _send_info),
        (gateway.HttpBackend, "send", "gateway.send", _send_info),
        (pipe, "transcreate_item", "pipeline.record", None),
        (pipeline, "save_records", "pipeline.save_records",
         lambda a, k, r: _file_size(a[1] if len(a) > 1 else k.get("path"))),
        (pipeline, "load_records", "pipeline.load_records", None),
        (validation.BloomJudge, "judge_record", "validation.judge_record",
         lambda a, k, r: len(r)),
        (validation, "agreement_report", "validation.agreement_report", None),
        (validation.ReviewQueue, "apply", "validation.review_apply", None),
        (validation.ReviewQueue, "save", "validation.queue_save",
         lambda a, k, r: _file_size(a[0].path)),
        (validation, "qa_report", "validation.qa_report", None),
        (stats, "balanced_split", "stats.balanced_split", None),
        (stats, "experiment_report", "stats.experiment_report", None),
        (stats, "wilcoxon_signed_rank", "stats.wilcoxon", None),
        (stats, "mann_whitney_u", "stats.mannwhitney", None),
        (stats, "score_test", "stats.score_test", None),
        (textmetrics, "passage_report", "textmetrics.passage_report", None),
    ]
    out += [(pipe, step, f"pipeline.{step}", None) for step in STEPS]
    out += [(corpus, name, "corpus.load", None)
            for name in ("load_items", "load_taxonomy", "load_tagset", "load_profiles")]
    return out


class Tracer:
    """Installs span-recording wrappers; keeps spans in memory until asked."""

    def __init__(self, modules: dict[str, Any]):
        self.spans: list[Span] = []
        self._targets = [t for t in _targets(modules) if hasattr(t[0], t[1])]
        self._saved: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root: Span | None = None

    def install(self) -> None:
        for owner, attr, name, info in self._targets:
            own = attr in vars(owner)
            original = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, original if own else None))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:  # the attribute was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, func: Callable, name: str, info: Callable | None) -> Callable:
        tracer = self
        is_root = name == "cli.main"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            span = Span(next(tracer._ids), parent.id if parent else None, name,
                        time.perf_counter_ns())
            stack.append(span)
            if is_root:
                tracer._root = span
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    tracer._root = None
                if info is not None:
                    try:
                        span.info = info(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        span.info = None
                tracer.spans.append(span)

        return wrapper


def write_spans(path: Path, spans: Iterable[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")


# -- per-layer metrics ----------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered_ns(span: Span, children: list[Span]) -> int:
    """Nanoseconds of ``span`` covered by the union of its children's intervals."""
    covered, cursor = 0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, cursor), min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def layer_metrics(rounds: list[list[Span]], stub: list[dict[str, float]] | None,
                  records: int) -> dict[str, float]:
    """Per-layer metrics over the traced rounds.

    Counts and per-round totals are medians over rounds; timings pool the
    spans of every round. ``stub`` holds the stub provider's counters per
    round on the HTTP workload; ``records`` is the records per round.
    """
    per_round = [_round_counts(round_spans, stub[i] if stub else None, records)
                 for i, round_spans in enumerate(rounds)]
    out = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in (s for round_spans in rounds for s in round_spans):
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def kids(span: Span, name: str | None = None) -> list[Span]:
        return [c for c in children.get(span.id, []) if name is None or c.name == name]

    def durations(name: str, scale: float) -> list[float]:
        return [s.ns / scale for s in by_name.get(name, [])]

    for step in STEPS:
        out[f"pipeline.{step}.self_us_p50"] = _pct(
            [(s.ns - _covered_ns(s, kids(s, "gateway.complete_ex"))) / 1e3
             for s in by_name.get(f"pipeline.{step}", [])], 0.5)
    record_ms = durations("pipeline.record", 1e6)
    out["pipeline.record_ms_p50"] = _pct(record_ms, 0.5)
    out["pipeline.record_ms_p99"] = _pct(record_ms, 0.99)

    completes = by_name.get("gateway.complete_ex", [])
    out["gateway.self_us_p50"] = _pct(
        [(s.ns - _covered_ns(s, kids(s, "gateway.send"))) / 1e3 for s in completes], 0.5)
    waits = []
    for s in completes:
        sends = kids(s, "gateway.send")
        if sends:
            waits.append((min(c.start for c in sends) - s.start) / 1e6)
    out["gateway.wait_ms_p50"] = _pct(waits, 0.5)
    out["gateway.wait_ms_p99"] = _pct(waits, 0.99)
    send_ms = durations("gateway.send", 1e6)
    out["gateway.send_ms_p50"] = _pct(send_ms, 0.5)
    out["gateway.send_ms_p99"] = _pct(send_ms, 0.99)
    service_ms = 1e3 * sum(r["service_s"] for r in stub) if stub else 0.0
    out["gateway.transport_ms_mean"] = (
        (sum(send_ms) - service_ms) / len(send_ms) if send_ms else 0.0)

    out["validation.judge_record_ms_p50"] = _pct(durations("validation.judge_record", 1e6), 0.5)
    applies = sorted(by_name.get("validation.review_apply", []), key=lambda s: s.start)
    saves = sorted(by_name.get("validation.queue_save", []), key=lambda s: s.start)
    decisions = []
    for apply in applies:
        after = next((s for s in saves if s.start >= apply.end), None)
        decisions.append((apply.ns + (after.ns if after else 0)) / 1e6)
    out["validation.review_decision_ms_p50"] = _pct(decisions, 0.5)

    out["stats.balanced_split_ms"] = _pct(durations("stats.balanced_split", 1e6), 0.5)
    out["stats.experiment_report_ms"] = _pct(durations("stats.experiment_report", 1e6), 0.5)
    out["stats.wilcoxon_us_p50"] = _pct(durations("stats.wilcoxon", 1e3), 0.5)
    out["stats.mannwhitney_us_p50"] = _pct(durations("stats.mannwhitney", 1e3), 0.5)
    out["stats.score_test_us_p50"] = _pct(durations("stats.score_test", 1e3), 0.5)
    passage_us = durations("textmetrics.passage_report", 1e3)
    out["textmetrics.passage_report_us_p50"] = _pct(passage_us, 0.5)
    out["textmetrics.passage_report_us_p99"] = _pct(passage_us, 0.99)

    cli_self: dict[str, list[float]] = {}
    for s in by_name.get("cli.main", []):
        cli_self.setdefault(s.info, []).append((s.ns - _covered_ns(s, kids(s))) / 1e6)
    for command in SUBCOMMANDS:
        out[f"cli.{command}.self_ms"] = _pct(cli_self.get(command, []), 0.5)
    return out


def _round_counts(spans: list[Span], stub: dict[str, float] | None,
                  records: int) -> dict[str, float]:
    """Counts and totals for one round."""
    by_name: dict[str, list[Span]] = {}
    calls_under: dict[int, int] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.name == "gateway.complete_ex" and s.parent is not None:
            calls_under[s.parent] = calls_under.get(s.parent, 0) + 1
    out: dict[str, float] = {}
    total_calls = accepted_total = analysis_calls = 0
    for step in STEPS:
        step_spans = by_name.get(f"pipeline.{step}", [])
        calls = sum(calls_under.get(s.id, 0) for s in step_spans)
        accepted = sum(1 for s in step_spans if not s.error)
        out[f"pipeline.{step}.calls"] = calls
        out[f"pipeline.{step}.rejected"] = calls - accepted
        total_calls += calls
        accepted_total += accepted
        analysis_calls += calls if step in ANALYSIS_STEPS else 0
    out["pipeline.analysis_call_share"] = analysis_calls / total_calls if total_calls else 0.0
    out["pipeline.useful_ratio"] = accepted_total / total_calls if total_calls else 0.0
    saves = by_name.get("pipeline.save_records", [])
    out["pipeline.save_records_ms"] = sum(s.ns for s in saves) / 1e6
    out["pipeline.load_records_ms"] = sum(s.ns for s in by_name.get("pipeline.load_records", [])) / 1e6
    out["pipeline.records_bytes_per_record"] = (
        sum(s.info or 0 for s in saves) / records if saves and records else 0.0)

    completes = by_name.get("gateway.complete_ex", [])
    sends = by_name.get("gateway.send", [])
    out["gateway.calls"] = len(completes)
    out["gateway.attempts"] = len(sends)
    out["gateway.transport_retries"] = sum(1 for s in sends if s.error)
    out["gateway.connections_per_call"] = (
        stub["connections"] / stub["requests"] if stub and stub["requests"] else 0.0)
    prompt_chars = stub["prompt_chars"] if stub else sum(s.info or 0 for s in sends)
    served = stub["requests"] if stub else len(sends)
    out["gateway.llm_calls_per_record"] = served / records if records else 0.0
    out["gateway.prompt_kchars_per_record"] = prompt_chars / 1e3 / records if records else 0.0

    judged = by_name.get("validation.judge_record", [])
    judge_calls = sum(calls_under.get(s.id, 0) for s in judged)
    out["validation.judge_calls"] = judge_calls
    out["validation.judge_rejected"] = judge_calls - sum(s.info or 0 for s in judged)
    out["validation.agreement_report_ms"] = sum(
        s.ns for s in by_name.get("validation.agreement_report", [])) / 1e6
    out["validation.queue_bytes_written"] = sum(
        s.info or 0 for s in by_name.get("validation.queue_save", []))
    out["validation.qa_report_ms"] = sum(
        s.ns for s in by_name.get("validation.qa_report", [])) / 1e6
    out["textmetrics.passage_report_calls"] = len(by_name.get("textmetrics.passage_report", []))
    commands = len(by_name.get("cli.main", []))
    out["corpus.load_ms"] = (
        sum(s.ns for s in by_name.get("corpus.load", [])) / 1e6 / commands if commands else 0.0)
    return out


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for step in STEPS:
        units[f"pipeline.{step}.calls"] = "count"
        units[f"pipeline.{step}.rejected"] = "count"
        units[f"pipeline.{step}.self_us_p50"] = "us"
    units.update({
        "pipeline.analysis_call_share": "ratio",
        "pipeline.useful_ratio": "ratio",
        "pipeline.record_ms_p50": "ms",
        "pipeline.record_ms_p99": "ms",
        "pipeline.save_records_ms": "ms",
        "pipeline.load_records_ms": "ms",
        "pipeline.records_bytes_per_record": "B/record",
        "gateway.calls": "count",
        "gateway.attempts": "count",
        "gateway.transport_retries": "count",
        "gateway.self_us_p50": "us",
        "gateway.wait_ms_p50": "ms",
        "gateway.wait_ms_p99": "ms",
        "gateway.send_ms_p50": "ms",
        "gateway.send_ms_p99": "ms",
        "gateway.transport_ms_mean": "ms",
        "gateway.connections_per_call": "ratio",
        "gateway.llm_calls_per_record": "calls/record",
        "gateway.prompt_kchars_per_record": "kchar/record",
        "validation.judge_calls": "count",
        "validation.judge_rejected": "count",
        "validation.judge_record_ms_p50": "ms",
        "validation.agreement_report_ms": "ms",
        "validation.review_decision_ms_p50": "ms",
        "validation.queue_bytes_written": "B",
        "validation.qa_report_ms": "ms",
        "stats.balanced_split_ms": "ms",
        "stats.experiment_report_ms": "ms",
        "stats.wilcoxon_us_p50": "us",
        "stats.mannwhitney_us_p50": "us",
        "stats.score_test_us_p50": "us",
        "textmetrics.passage_report_calls": "count",
        "textmetrics.passage_report_us_p50": "us",
        "textmetrics.passage_report_us_p99": "us",
        "corpus.load_ms": "ms",
    })
    for command in SUBCOMMANDS:
        units[f"cli.{command}.self_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units
