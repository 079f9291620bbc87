"""Post-transcreation quality control.

Three concerns live here: blind LLM judging of question cognitive levels,
agreement statistics over the judge's verdicts, and the human review queue
with its append-only decision log.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

from .corpus import BloomLevel
from .errors import GatewayError, ValidationError
from .fileio import atomic_write_text, indented_json, read_json
from .gateway import Gateway, PromptTemplate
from .pipeline import (
    DEFAULT_RETRY_BUDGET,
    Exchange,
    TranscreationRecord,
    ask_validated,
    format_options,
    parse_bloom_reply,
)
from .textmetrics import tokenize_words

BLOOM_ORDER = tuple(BloomLevel)
_BLOOM_INDEX = {level: idx for idx, level in enumerate(BLOOM_ORDER)}

JUDGE_RETRY_LINE = "Reply with exactly one of the six level names."


class EmptyVerdictSetError(ValidationError):
    pass


class QueueExistsError(ValidationError):
    pass


class MalformedQueueError(ValidationError):
    pass


class UnknownItemError(ValidationError):
    def __init__(self, record_id: str):
        super().__init__(f"no queue entry for {record_id!r}")
        self.record_id = record_id


class AlreadyDecidedError(ValidationError):
    def __init__(self, record_id: str):
        super().__init__(f"entry {record_id!r} already has a decision")
        self.record_id = record_id


class PendingEntriesError(ValidationError):
    def __init__(self, count: int):
        super().__init__(f"{count} entries still pending review")
        self.count = count


class ConcurrentReviewError(ValidationError):
    pass


class FlaggedQuestionError(ValidationError):
    def __init__(self, record_id: str, flagged: Sequence[int], n_questions: int):
        super().__init__(
            f"entry {record_id!r} flags questions {list(flagged)}: need distinct "
            f"indices in 0..{n_questions - 1}"
        )
        self.record_id = record_id


class IncompleteRecordError(ValidationError):
    def __init__(self, record_id: str, reason: str):
        super().__init__(f"record {record_id} is not complete: {reason}")
        self.record_id = record_id


# -- LLM-as-a-Judge -------------------------------------------------------------


@dataclass(frozen=True)
class JudgeVerdict:
    """One blind judgment of a transcreated question's cognitive level."""

    item_id: str
    question_idx: int
    source_bloom: BloomLevel
    judged_bloom: BloomLevel

    @property
    def match(self) -> bool:
        return self.source_bloom == self.judged_bloom

    def to_dict(self) -> dict[str, Any]:
        return {
            "item_id": self.item_id,
            "question_idx": self.question_idx,
            "source_bloom": self.source_bloom.value,
            "judged_bloom": self.judged_bloom.value,
            "match": self.match,
        }


@dataclass(frozen=True)
class JudgeFailure:
    """A question the judge could not label: every reply was rejected, or the gateway failed.

    ``question_idx`` is ``None`` for a record that failed transcreation and
    so has no questions to judge.
    """

    item_id: str
    question_idx: int | None
    reason: str
    gateway_failure: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"item_id": self.item_id, "question_idx": self.question_idx, "reason": self.reason}


class BloomJudge:
    """Judges transcreated questions without seeing their source labels."""

    def __init__(self, gateway: Gateway, template: PromptTemplate, *,
                 retry_budget: int = DEFAULT_RETRY_BUDGET, seed: int | None = 0):
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        self.gateway = gateway
        self.template = template
        self.retry_budget = retry_budget
        self.seed = seed

    def judge_record(
        self,
        record: TranscreationRecord,
        exchanges: list[Exchange] | None = None,
        *,
        failures: list[JudgeFailure],
    ) -> list[JudgeVerdict]:
        """One verdict per transcreated question, in question order.

        A question whose replies are all rejected, or whose gateway call
        fails, is appended to ``failures`` and judging goes on with the next
        question.
        """
        if not record.status.is_complete:
            raise IncompleteRecordError(record.record_id, record.status.reason or "failed")
        if any(q.bloom is None for q in record.transcreated_questions):
            raise IncompleteRecordError(record.record_id, "question missing its source level")
        verdicts = []
        for idx, question in enumerate(record.transcreated_questions):
            try:
                judged = ask_validated(
                    self.gateway, self.template,
                    {"passage": record.transcreated_passage, "stem": question.stem,
                     "options": format_options(question)},
                    parse_bloom_reply, exchanges,
                    step="judge_bloom", retry_budget=self.retry_budget, seed=self.seed,
                    retry_line=JUDGE_RETRY_LINE,
                )
            except (GatewayError, ValidationError) as exc:
                failures.append(JudgeFailure(
                    record.record_id, idx, f"{type(exc).__name__}: {exc}",
                    gateway_failure=isinstance(exc, GatewayError),
                ))
                continue
            verdicts.append(
                JudgeVerdict(
                    item_id=record.record_id,
                    question_idx=idx,
                    source_bloom=question.bloom,
                    judged_bloom=judged,
                )
            )
        return verdicts


# -- agreement statistics -------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    """Confusion counts, accuracy, and Cohen's kappa for Bloom judging."""

    confusion: tuple[tuple[int, ...], ...]  # rows = source, cols = judged
    accuracy: float
    kappa: float | None  # None when expected agreement is 1 (undefined)
    n: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "labels": [level.value for level in BLOOM_ORDER],
            "confusion": [list(row) for row in self.confusion],
            "accuracy": self.accuracy,
            "kappa": self.kappa if self.kappa is not None else "NotDefined",
            "n": self.n,
        }


def cohen_kappa(confusion: Sequence[Sequence[int]]) -> float | None:
    """Unweighted Cohen's kappa from a square confusion matrix.

    Expected agreement comes from the marginal products; returns None when
    expected agreement equals 1 (kappa undefined).
    """
    size = len(confusion)
    n = sum(sum(row) for row in confusion)
    if n <= 0:
        raise EmptyVerdictSetError("empty confusion matrix")
    trace = sum(confusion[i][i] for i in range(size))
    row_totals = [sum(row) for row in confusion]
    col_totals = [sum(confusion[i][j] for i in range(size)) for j in range(size)]
    expected_num = sum(r * c for r, c in zip(row_totals, col_totals))
    if expected_num == n * n:
        return None
    p_o = trace / n
    p_e = expected_num / (n * n)
    return (p_o - p_e) / (1 - p_e)


def agreement_report(verdicts: Sequence[JudgeVerdict]) -> AgreementReport:
    """Aggregate verdicts into a 6x6 confusion matrix with accuracy and kappa."""
    if not verdicts:
        raise EmptyVerdictSetError("no verdicts to aggregate")
    counts = [[0] * len(BLOOM_ORDER) for _ in BLOOM_ORDER]
    for verdict in verdicts:
        counts[_BLOOM_INDEX[verdict.source_bloom]][_BLOOM_INDEX[verdict.judged_bloom]] += 1
    n = len(verdicts)
    accuracy = sum(counts[i][i] for i in range(len(BLOOM_ORDER))) / n
    kappa = cohen_kappa(counts)
    return AgreementReport(
        confusion=tuple(tuple(row) for row in counts),
        accuracy=accuracy,
        kappa=kappa,
        n=n,
    )


# -- review queue ---------------------------------------------------------------


@dataclass(frozen=True)
class ReviewDecision:
    """One reviewer action on a queue entry.

    ``added_word_count`` is filled in by the queue when an edit is applied:
    the increase in word count, floored at zero.
    """

    item_id: str
    verdict: str  # "accept" | "edit" | "reject"
    reviewer_id: str
    timestamp: str
    new_passage: str | None = None
    reason: str | None = None
    unanswerable_questions: tuple[int, ...] = ()
    added_word_count: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "unanswerable_questions", tuple(self.unanswerable_questions)
        )
        if self.verdict not in ("accept", "edit", "reject"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "edit" and not self.new_passage:
            raise ValueError("edit decisions need a replacement passage")
        if self.verdict == "reject" and not self.reason:
            raise ValueError("reject decisions need a reason")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "item_id": self.item_id,
            "verdict": self.verdict,
            "reviewer_id": self.reviewer_id,
            "timestamp": self.timestamp,
            "added_word_count": self.added_word_count,
        }
        if self.new_passage is not None:
            out["new_passage"] = self.new_passage
        if self.reason is not None:
            out["reason"] = self.reason
        if self.unanswerable_questions:
            out["unanswerable_questions"] = list(self.unanswerable_questions)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReviewDecision":
        return cls(
            item_id=data["item_id"],
            verdict=data["verdict"],
            reviewer_id=data["reviewer_id"],
            timestamp=data["timestamp"],
            new_passage=data.get("new_passage"),
            reason=data.get("reason"),
            unanswerable_questions=tuple(data.get("unanswerable_questions", [])),
            added_word_count=data.get("added_word_count", 0),
        )


def parse_question_numbers(text: str, n_questions: int) -> tuple[int, ...]:
    """Comma-separated 1-based question numbers as sorted, distinct 0-based indices."""
    numbers = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            number = int(token)
        except ValueError:
            raise ValueError(f"{token!r} is not a question number") from None
        if not 1 <= number <= n_questions:
            raise ValueError(f"question {number} is not in 1..{n_questions}")
        numbers.add(number - 1)
    return tuple(sorted(numbers))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class QueueEntry:
    record_id: str
    passage: str
    questions: list[dict[str, Any]]
    original_passage: str
    decision: ReviewDecision | None = None

    @property
    def pending(self) -> bool:
        return self.decision is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "record_id": self.record_id,
            "passage": self.passage,
            "questions": self.questions,
            "original_passage": self.original_passage,
            "decision": self.decision.to_dict() if self.decision else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueueEntry":
        decision = data.get("decision")
        entry = cls(
            record_id=data["record_id"],
            passage=data["passage"],
            questions=list(data["questions"]),
            original_passage=data["original_passage"],
            decision=ReviewDecision.from_dict(decision) if decision else None,
        )
        if entry.decision is not None:
            entry.check_flags(entry.decision)
        return entry

    def check_flags(self, decision: ReviewDecision) -> None:
        """Flagged questions must be distinct indices into this entry's questions."""
        flagged = decision.unanswerable_questions
        if len(set(flagged)) != len(flagged) or not all(
            isinstance(i, int) and 0 <= i < len(self.questions) for i in flagged
        ):
            raise FlaggedQuestionError(self.record_id, flagged, len(self.questions))


class ReviewQueue:
    """Persistent queue of transcreated items awaiting expert review.

    Decisions are append-only: replaying the log against the original queue
    reproduces the final state. One writer at a time, enforced by a lock file.
    """

    def __init__(self, entries: Iterable[QueueEntry], path: str | Path,
                 log: Iterable[ReviewDecision] = ()):
        self.entries: dict[str, QueueEntry] = {e.record_id: e for e in entries}
        self.path = Path(path)
        self.log: list[ReviewDecision] = list(log)
        # Encoded fragments of the saved document: one per entry, by record
        # id, and one per decision of ``log``. Entries change only through
        # ``apply``, which drops the entry's fragment; the log only grows.
        self._entry_json: dict[str, str] = {}
        self._log_json: list[str] = []

    @classmethod
    def open_new(
        cls,
        records: Sequence[TranscreationRecord],
        path: str | Path,
        *,
        force: bool = False,
    ) -> "ReviewQueue":
        """Create a queue file from complete records; refuses to clobber without force."""
        path = Path(path)
        if path.exists() and not force:
            raise QueueExistsError(f"queue already exists: {path} (use force to overwrite)")
        entries = []
        for record in records:
            if not record.status.is_complete:
                raise IncompleteRecordError(record.record_id, record.status.reason or "failed")
            entries.append(
                QueueEntry(
                    record_id=record.record_id,
                    passage=record.transcreated_passage,
                    questions=[q.to_dict() for q in record.transcreated_questions],
                    original_passage=record.transcreated_passage,
                )
            )
        queue = cls(entries, path)
        queue.save()
        return queue

    @classmethod
    def load(cls, path: str | Path) -> "ReviewQueue":
        data = read_json(path, "queue file")
        try:
            entries = [QueueEntry.from_dict(e) for e in data["entries"]]
            log = [ReviewDecision.from_dict(d) for d in data["log"]]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = str(exc) if not isinstance(exc, KeyError) else f"missing field {exc}"
            raise MalformedQueueError(f"bad queue {path}: {reason}") from exc
        return cls(entries, path, log)

    def save(self) -> None:
        """Write the queue as ``json.dumps(..., indent=2)`` would, re-encoding only what changed.

        Only entries changed by ``apply`` since the last save, and decisions
        appended to the log since then, are encoded again; the rest of the
        document is reused. The file is still rewritten whole and atomically.
        """
        entries = []
        for record_id, entry in self.entries.items():
            text = self._entry_json.get(record_id)
            if text is None:
                text = self._entry_json[record_id] = indented_json(entry.to_dict(), depth=2)
            entries.append(text)
        for decision in self.log[len(self._log_json):]:
            self._log_json.append(indented_json(decision.to_dict(), depth=2))
        atomic_write_text(
            self.path,
            '{\n  "entries": ' + _json_list(entries)
            + ',\n  "log": ' + _json_list(self._log_json) + "\n}\n",
        )

    def pending(self) -> list[QueueEntry]:
        return [entry for entry in self.entries.values() if entry.pending]

    def apply(self, decision: ReviewDecision) -> QueueEntry:
        """Apply one decision; edits replace the passage and count added words."""
        entry = self.entries.get(decision.item_id)
        if entry is None:
            raise UnknownItemError(decision.item_id)
        if not entry.pending:
            raise AlreadyDecidedError(decision.item_id)
        entry.check_flags(decision)
        if decision.verdict == "edit":
            old_words = len(tokenize_words(entry.passage))
            new_words = len(tokenize_words(decision.new_passage))
            decision = replace(decision, added_word_count=max(new_words - old_words, 0))
            entry.passage = decision.new_passage
        entry.decision = decision
        self.log.append(decision)
        self._entry_json.pop(entry.record_id, None)
        return entry

    def replay(self, decisions: Sequence[ReviewDecision]) -> "ReviewQueue":
        """Rebuild a fresh queue state by replaying decisions over the original entries.

        Used to verify the append-only audit property.
        """
        fresh = ReviewQueue(
            entries=[
                QueueEntry(
                    record_id=e.record_id,
                    passage=e.original_passage,
                    questions=list(e.questions),
                    original_passage=e.original_passage,
                )
                for e in self.entries.values()
            ],
            path=self.path,
        )
        for decision in decisions:
            fresh.apply(decision)
        return fresh


def _json_list(items: Sequence[str]) -> str:
    """A list of objects encoded two levels deep as a value one level deep."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


# The lock files this process holds, so that a lock naming this process's
# pid is told apart from one left by an earlier process that had the same
# pid on this host (a restarted container).
_held_locks: set[str] = set()


class QueueLock:
    """Single-writer lock for a queue file (a lock file next to it).

    The lock file names its owner as ``{"pid": ..., "host": ...}``; it is
    written in full to a temporary file and hard-linked into place, so no
    lock is ever seen without its owner. A lock whose owner is a process of
    this host that has exited (a crashed session) is taken over, as is one
    naming this process's pid when this process holds no lock on the path.
    Any other existing lock is refused, as is one that names no owner,
    since its owner cannot be checked.
    """

    def __init__(self, queue_path: str | Path):
        self.lock_path = Path(str(queue_path) + ".lock")
        self._key = os.path.abspath(self.lock_path)

    def __enter__(self) -> "QueueLock":
        if not self._create():
            self._take_over()
        _held_locks.add(self._key)
        return self

    def _take_over(self) -> None:
        """Replace an existing lock if its owner has exited; refuse it otherwise."""
        owner = self._owner()
        if owner is None:
            raise ConcurrentReviewError(
                f"lock file {self.lock_path} names no owner; remove it if no review "
                "session is running"
            )
        pid, host = owner
        live = self._key in _held_locks if pid == os.getpid() else _pid_running(pid)
        if host != socket.gethostname() or live:
            raise ConcurrentReviewError(
                f"another review session holds {self.lock_path} (pid {pid} on {host})"
            )
        # The owner has exited: replace its lock. (Two sessions that break the
        # same stale lock at the same instant can both pass.)
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass
        if not self._create():
            raise ConcurrentReviewError(f"another review session holds {self.lock_path}")

    def __exit__(self, *exc_info: Any) -> None:
        _held_locks.discard(self._key)
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass

    def _create(self) -> bool:
        """Publish a lock naming this process; False if a lock file already exists."""
        owner = json.dumps({"pid": os.getpid(), "host": socket.gethostname()})
        temp = f"{self.lock_path}.{os.urandom(6).hex()}.tmp"
        fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        try:
            try:
                os.write(fd, owner.encode("utf-8"))
            finally:
                os.close(fd)
            os.link(temp, self.lock_path)
        except FileExistsError:
            return False
        finally:
            os.unlink(temp)
        return True

    def _owner(self) -> tuple[int, str] | None:
        """The (pid, host) a lock file names, or None if it names no valid owner."""
        try:
            data = json.loads(self.lock_path.read_text(encoding="utf-8"))
            pid, host = data["pid"], data["host"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if type(pid) is not int or not 0 < pid < 2**31 or not isinstance(host, str):
            return None
        return pid, host


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists, under another user
        pass
    return True


# -- QA report ------------------------------------------------------------------


@dataclass(frozen=True)
class QAReport:
    """Flagging and edit statistics over a fully decided review queue."""

    total_questions: int
    flagged_unanswerable: int
    unanswerable_rate: float
    edited_passages: int
    mean_added_words: float

    def rendered_rate(self) -> str:
        """Percentage with one decimal, half-up (1 of 36 renders as '2.8%')."""
        if self.total_questions == 0:
            return "0.0%"
        percent = (
            Decimal(self.flagged_unanswerable) * 100 / Decimal(self.total_questions)
        ).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        return f"{percent}%"

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_questions": self.total_questions,
            "flagged_unanswerable": self.flagged_unanswerable,
            "unanswerable_rate": self.unanswerable_rate,
            "unanswerable_rate_rendered": self.rendered_rate(),
            "edited_passages": self.edited_passages,
            "mean_added_words": self.mean_added_words,
        }


def qa_report(queue: ReviewQueue) -> QAReport:
    """Aggregate a fully decided queue; raises PendingEntriesError otherwise."""
    pending = queue.pending()
    if pending:
        raise PendingEntriesError(len(pending))
    total_questions = sum(len(entry.questions) for entry in queue.entries.values())
    flagged = 0
    added: list[int] = []
    for entry in queue.entries.values():
        decision = entry.decision
        flagged += len(decision.unanswerable_questions)
        if decision.verdict == "edit":
            added.append(decision.added_word_count)
    return QAReport(
        total_questions=total_questions,
        flagged_unanswerable=flagged,
        unanswerable_rate=(flagged / total_questions) if total_questions else 0.0,
        edited_passages=len(added),
        mean_added_words=(sum(added) / len(added)) if added else 0.0,
    )


# -- interactive session ----------------------------------------------------------


def run_review_session(
    queue: ReviewQueue,
    reviewer_id: str,
    in_stream: TextIO,
    out_stream: TextIO,
) -> int:
    """Walk the pending entries interactively; returns how many got decided.

    Commands: a(ccept), e(dit), r(eject), s(kip), q(uit). The queue file is
    saved after every decision.
    """

    def say(text: str = "") -> None:
        out_stream.write(text + "\n")
        out_stream.flush()

    def ask(prompt: str) -> str | None:
        out_stream.write(prompt)
        out_stream.flush()
        line = in_stream.readline()
        if line == "":
            return None
        return line.rstrip("\n")

    decided = 0
    for entry in list(queue.pending()):
        say(f"=== {entry.record_id} ===")
        say(entry.passage)
        for idx, question in enumerate(entry.questions, start=1):
            say(f"Q{idx}. {question['stem']}")
            for letter, option in zip("ABCD", question["options"]):
                say(f"  {letter}. {option}")
            answer = "ABCD"[question["answer_index"]]
            bloom = question.get("bloom", "?")
            say(f"  (answer: {answer}, level: {bloom})")
        choice = ask("Decision [a]ccept / [e]dit / [r]eject / [s]kip / [q]uit: ")
        if choice is None or choice.strip().lower() in ("q", "quit"):
            break
        choice = choice.strip().lower()
        if choice in ("s", "skip", ""):
            continue
        if choice not in ("a", "accept", "e", "edit", "r", "reject"):
            say(f"unrecognized choice {choice!r}; skipping entry")
            continue
        new_passage = None
        reason = None
        if choice in ("e", "edit"):
            say("Enter the replacement passage; finish with a line holding only '.'")
            lines: list[str] = []
            while True:
                line = in_stream.readline()
                if line == "" or line.rstrip("\n") == ".":
                    break
                lines.append(line.rstrip("\n"))
            new_passage = "\n".join(lines)
            verdict = "edit"
        elif choice in ("r", "reject"):
            reason = ask("Reason: ") or "unspecified"
            verdict = "reject"
        else:
            verdict = "accept"
        while True:
            flagged_raw = ask("Unanswerable question numbers (comma-separated, blank for none): ")
            try:
                flagged = parse_question_numbers(flagged_raw or "", len(entry.questions))
                break
            except ValueError as exc:
                say(f"{exc}; try again")
        decision = ReviewDecision(
            item_id=entry.record_id,
            verdict=verdict,
            reviewer_id=reviewer_id,
            timestamp=_now(),
            new_passage=new_passage,
            reason=reason,
            unanswerable_questions=flagged,
        )
        queue.apply(decision)
        queue.save()
        decided += 1
    return decided
