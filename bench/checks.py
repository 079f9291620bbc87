"""Correctness checks for the benchmark's outputs, run outside the timed phase.

Each check reads the program's output files as plain JSON, never through the
program's own loaders, and compares them with what the generator scripted.
Each operation (a record, a judged question, a CLI call, a split, a report,
a review decision) counts once as attempted and once more as failed when its
outcome differs from the expected one.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from gen import BLOOMS, CohortPlan, ExpectedRecord, ReviewStep

TAG_RE = re.compile(r"\[\[T:(.*?)\]\]")


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _load_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _render(tagged: dict[str, Any]) -> str:
    original = tagged["original"]
    parts, cursor = [], 0
    for ins in tagged["insertions"]:
        parts += [original[cursor:ins["position"]], f"[[T:{ins['tag']}]]"]
        cursor = ins["position"]
    return "".join(parts) + original[cursor:]


def _record_problem(data: dict[str, Any], exp: ExpectedRecord) -> str | None:
    item = exp.item
    status = data.get("status") or {}
    if data.get("record_id") != exp.record_id:
        return f"record {data.get('record_id')!r} where {exp.record_id!r} was due"
    if exp.failed_step is None and status.get("state") != "complete":
        return f"{exp.record_id}: state {status} instead of complete"
    if exp.failed_step is not None and (
        status.get("state") != "failed" or status.get("step") != exp.failed_step
    ):
        return f"{exp.record_id}: state {status} instead of failed at step {exp.failed_step}"
    if data.get("extracted_topic") != item.topic:
        return f"{exp.record_id}: topic {data.get('extracted_topic')!r}"
    if data.get("question_blooms") != item.blooms:
        return f"{exp.record_id}: levels {data.get('question_blooms')}"
    tagged = data.get("tagged_source")
    if not tagged or tagged.get("original") != item.passage:
        return f"{exp.record_id}: tagged source does not hold the source passage"
    rendered = _render(tagged)
    if rendered != item.tagged() or TAG_RE.sub("", rendered) != item.passage:
        return f"{exp.record_id}: tagged source differs from the scripted tagging"
    if exp.failed_step is not None:
        if data.get("transcreated_passage") is not None:
            return f"{exp.record_id}: failed record kept a rewritten passage"
        return None
    if data.get("transcreated_passage") != exp.passage:
        return f"{exp.record_id}: rewritten passage differs from the scripted reply"
    if data.get("transcreated_questions") != exp.questions:
        return f"{exp.record_id}: rewritten questions differ from the scripted reply"
    return None


def check_records(path: Path, expected: Sequence[ExpectedRecord], tally: Tally) -> int:
    """One operation per expected record; returns how many matched.

    Streams the file line by line so the check adds little to peak memory.
    """
    ok = 0
    seen = 0
    try:
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                if seen >= len(expected):
                    tally.op(False, f"{path.name}: more records than work items")
                    break
                problem = _record_problem(json.loads(line), expected[seen])
                ok += tally.op(problem is None, problem or "")
                seen += 1
    except (OSError, ValueError) as exc:
        tally.op(False, f"{path.name}: unreadable records ({exc})")
    for exp in expected[seen:]:
        tally.op(False, f"{exp.record_id}: missing from {path.name}")
    return ok


def check_verdicts(path: Path, plan: CohortPlan, tally: Tally) -> None:
    """One operation per judged question plus one for the agreement report."""
    data = _load_json(path) or {}
    verdicts = data.get("verdicts") or []
    for n, (rid, j, source, judged) in enumerate(plan.judged):
        got = verdicts[n] if n < len(verdicts) else {}
        tally.op(
            (got.get("item_id"), got.get("question_idx"), got.get("source_bloom"),
             got.get("judged_bloom")) == (rid, j, source, judged),
            f"verdict {n}: {got} instead of {(rid, j, source, judged)}",
        )
    agreement = data.get("agreement") or {}
    tally.op(
        agreement.get("labels") == list(BLOOMS) and agreement.get("confusion") == plan.confusion(),
        "agreement confusion matrix differs from the judge script",
    )


# -- study analysis -----------------------------------------------------------


def check_split(path: Path, students: list[dict[str, Any]], k: int, tally: Tally) -> None:
    """Disjoint groups of size k, the exact mean gap, and a minimal gap.

    Optimality comes from an exact subset-sum oracle over integer scores:
    every (size, sum) pair reachable by some subset. It checks the gap only,
    not which of several optimal splits the program chose.
    """
    data = _load_json(path) or {}
    scores = {s["student_id"]: s["toefl"] for s in students}
    a, b = set(data.get("group_a") or []), set(data.get("group_b") or [])
    if not tally.op(len(a) == k == len(b) and not a & b and a | b == set(scores),
                    f"{path.name}: groups are not two disjoint halves of the cohort"):
        return
    gap = Fraction(abs(sum(scores[s] for s in a) - sum(scores[s] for s in b)), k)
    reach: list[set[int]] = [set() for _ in range(k + 1)]
    reach[0].add(0)
    for score in scores.values():
        for size in range(k - 1, -1, -1):
            reach[size + 1].update(total + score for total in reach[size])
    total = sum(scores.values())
    best = Fraction(min(abs(2 * s - total) for s in reach[k]), k)
    reported = data.get("mean_gap")
    tally.op(
        isinstance(reported, (int, float)) and math.isclose(reported, gap, rel_tol=1e-12,
                                                           abs_tol=1e-12) and gap == best,
        f"{path.name}: mean_gap {reported}, groups give {float(gap)}, optimum {float(best)}",
    )


def _score(answers: list[int], key: list[dict[str, Any]]) -> int:
    questions = [q for item in key for q in item["questions"]]
    return 5 * sum(a == q["answer_index"] for a, q in zip(answers, questions))


def check_scores(path: Path, students: list[dict[str, Any]], key: list[dict[str, Any]],
                 test_id: str, tally: Tally) -> None:
    data = _load_json(path) or {}
    wrong = [s["student_id"] for s in students
             if (data.get(s["student_id"]) or {}).get("score")
             != _score(s["test_answers"][test_id], key)]
    tally.op(not wrong, f"{path.name}: wrong scores for {wrong[:3]}")


def wilcoxon_brute_force(diffs: list[float]) -> float:
    """Two-sided exact signed-rank p-value by enumerating every sign pattern."""
    nonzero = [d for d in diffs if d != 0]
    m = len(nonzero)
    if m == 0:
        return 1.0
    mags = [abs(d) for d in nonzero]
    # doubled average rank: 2 * (values below) + (ties, self included) + 1
    ranks2 = [2 * sum(v < x for v in mags) + sum(v == x for v in mags) + 1 for x in mags]
    total2 = sum(ranks2)
    plus = sum(r for r, d in zip(ranks2, nonzero) if d > 0)
    t2 = min(plus, total2 - plus)
    favorable = 0
    for mask in range(1 << m):
        if sum(r for i, r in enumerate(ranks2) if mask >> i & 1) <= t2:
            favorable += 1
    return min(1.0, 2 * favorable / (1 << m))


def check_stats(path: Path, students: list[dict[str, Any]],
                keys: dict[str, list[dict[str, Any]]], tally: Tally) -> None:
    """Within-group Wilcoxon p-values (scores and times) against brute force."""
    report = _load_json(path) or {}
    first, second = sorted(keys)
    problems = []
    for group in ("A", "B"):
        members = [s for s in students if s["group"] == group]
        score_diffs = [_score(s["test_answers"][second], keys[second])
                       - _score(s["test_answers"][first], keys[first]) for s in members]
        time_diffs = [s["turnaround_minutes"][second] - s["turnaround_minutes"][first]
                      for s in members]
        section = (report.get("groups") or {}).get(group) or {}
        for label, diffs, got in (
            ("score", score_diffs, ((section.get("score_delta") or {}).get("wilcoxon") or {})),
            ("time", time_diffs, ((section.get("turnaround") or {}).get("wilcoxon") or {})),
        ):
            want = wilcoxon_brute_force(diffs)
            p = got.get("p_value")
            if not isinstance(p, (int, float)) or not math.isclose(p, want, rel_tol=1e-9):
                problems.append(f"group {group} {label}: p {p} instead of {want}")
    tally.op(not problems, f"{path.name}: {problems}")


def check_analyze(path: Path, counts: dict[str, tuple[int, int]], tally: Tally) -> int:
    """One operation per passage: word and sentence counts as generated."""
    data = _load_json(path) or {}
    got = {row.get("id"): (row.get("word_count"), row.get("sentence_count"))
           for row in data.get("items") or []}
    ok = 0
    for item_id, want in counts.items():
        ok += tally.op(got.get(item_id) == want,
                       f"{item_id}: counts {got.get(item_id)} instead of {want}")
    return ok


def check_review(queue_path: Path, qa_path: Path, steps: list[ReviewStep],
                 questions_per_entry: int, tally: Tally) -> int:
    """One operation per review decision plus one for the QA report."""
    queue = _load_json(queue_path) or {}
    decisions = {e.get("record_id"): e.get("decision") or {}
                 for e in queue.get("entries") or []}
    ok = 0
    for step in steps:
        got = decisions.get(step.record_id, {})
        want = {"verdict": step.verdict, "added_word_count": step.added_words,
                "new_passage": step.new_passage, "reason": step.reason,
                "unanswerable_questions": list(step.flags) or None}
        seen = {name: got.get(name) for name in want}
        ok += tally.op(seen == want, f"review {step.record_id}: {seen} instead of {want}")
    qa = _load_json(qa_path) or {}
    edits = [s.added_words for s in steps if s.verdict == "edit"]
    flagged = sum(len(s.flags) for s in steps)
    total = questions_per_entry * len(steps)
    want_qa = {"total_questions": total, "flagged_unanswerable": flagged,
               "edited_passages": len(edits)}
    tally.op(
        all(qa.get(name) == value for name, value in want_qa.items())
        and math.isclose(qa.get("unanswerable_rate", -1), flagged / total)
        and math.isclose(qa.get("mean_added_words", -1), sum(edits) / len(edits) if edits else 0.0),
        f"{qa_path.name}: {qa} does not match the review script",
    )
    return ok
