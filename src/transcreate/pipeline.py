"""The five-step transcreation procedure with validated replies and provenance.

Steps run strictly in order within one item; independent items may run
concurrently. Every LLM exchange is kept on the record, including rejected
replies and their corrective retries.
"""

from __future__ import annotations

import json
import random
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import (
    BloomLevel,
    InterestProfile,
    Question,
    ReadingItem,
    TagSet,
    TopicTaxonomy,
    UnknownTopicError,
)
from .errors import GatewayError, ValidationError
from .fileio import MalformedLineError, read_jsonl, write_jsonl
from .gateway import CompletionRequest, Gateway, PromptTemplate, load_prompt_dir, render_template
from .textmetrics import tokenize_words

STEP_NAMES = {
    1: "extract_topic",
    2: "classify_question",
    3: "tag_features",
    4: "transcreate_passage",
    5: "transcreate_questions",
}
ANALYSIS_STEPS = tuple(STEP_NAMES[n] for n in (1, 2, 3))

# Version mark of a records line that refers to an earlier line (``same_as``);
# lines without one are format 1, which format 2 only extends.
RECORDS_FORMAT = 2

TAG_TOKEN_RE = re.compile(r"\[\[T:(.*?)\]\]")
_SENTENCE_TERMINALS = frozenset(".!?")

DEFAULT_RETRY_BUDGET = 3
DEFAULT_LENGTH_ENVELOPE = 0.25


class InvalidTopicReplyError(ValidationError):
    pass


class InvalidBloomReplyError(ValidationError):
    pass


class RoundTripViolationError(ValidationError):
    pass


class UnknownTagError(ValidationError):
    def __init__(self, tag_id: str):
        super().__init__(f"unknown tag id {tag_id!r}")
        self.tag_id = tag_id


class TagPlacementError(ValidationError):
    pass


class TagMultisetMismatchError(ValidationError):
    pass


class LengthViolationError(ValidationError):
    pass


class StructureViolationError(ValidationError):
    def __init__(self, question_idx: int | None, reason: str):
        where = f"question {question_idx}: " if question_idx is not None else ""
        super().__init__(where + reason)
        self.question_idx = question_idx
        self.reason = reason


class EmptyTaxonomyError(ValidationError):
    pass


class MissingProfileError(ValidationError):
    pass


def strip_tags(rendered: str) -> str:
    """Remove every ``[[T:`` ... ``]]`` token; idempotent."""
    text = rendered
    while True:
        stripped = TAG_TOKEN_RE.sub("", text)
        if stripped == text:
            return stripped
        text = stripped


@dataclass(frozen=True)
class TagInsertion:
    tag_id: str
    position: int  # character offset into the original passage


@dataclass(frozen=True)
class TaggedPassage:
    """A passage plus tag insertions placed right after sentence-terminal characters."""

    original: str
    insertions: tuple[TagInsertion, ...]

    def __post_init__(self):
        object.__setattr__(self, "insertions", tuple(self.insertions))
        previous = -1
        for ins in self.insertions:
            if ins.position < previous:
                raise TagPlacementError("insertion positions must be non-decreasing")
            if not 1 <= ins.position <= len(self.original):
                raise TagPlacementError(f"position {ins.position} outside the passage")
            if self.original[ins.position - 1] not in _SENTENCE_TERMINALS:
                raise TagPlacementError(
                    f"tag {ins.tag_id!r} at {ins.position} does not follow '.', '!' or '?'"
                )
            previous = ins.position

    def render(self) -> str:
        """Interleave tag tokens into the original text."""
        return self._rendered

    def tag_ids(self) -> list[str]:
        return [ins.tag_id for ins in self.insertions]

    # The passage is immutable, so what step 4 derives from it is computed
    # once per passage, however many records rewrite it.

    @cached_property
    def _rendered(self) -> str:
        parts: list[str] = []
        cursor = 0
        for ins in self.insertions:
            parts.append(self.original[cursor : ins.position])
            parts.append(f"[[T:{ins.tag_id}]]")
            cursor = ins.position
        parts.append(self.original[cursor:])
        return "".join(parts)

    @cached_property
    def word_count(self) -> int:
        """Words in the original passage, as step 4's length envelope counts them."""
        return len(tokenize_words(self.original))

    @cached_property
    def _sorted_tag_ids(self) -> list[str]:
        return sorted(self.tag_ids())

    def to_dict(self) -> dict[str, Any]:
        return {
            "original": self.original,
            "insertions": [{"tag": i.tag_id, "position": i.position} for i in self.insertions],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaggedPassage":
        return cls(
            original=data["original"],
            insertions=tuple(
                TagInsertion(tag_id=i["tag"], position=i["position"])
                for i in data["insertions"]
            ),
        )


def parse_tagged_reply(reply: str, original: str, tagset: TagSet) -> TaggedPassage:
    """Extract tag insertions from an LLM reply and enforce the round trip.

    The reply with tokens removed must equal ``original`` byte-exactly; every
    tag id must exist; every token must sit right after sentence punctuation.
    """
    insertions: list[TagInsertion] = []
    stripped_parts: list[str] = []
    cursor = 0
    stripped_len = 0
    for match in TAG_TOKEN_RE.finditer(reply):
        chunk = reply[cursor : match.start()]
        stripped_parts.append(chunk)
        stripped_len += len(chunk)
        insertions.append(TagInsertion(tag_id=match.group(1), position=stripped_len))
        cursor = match.end()
    stripped_parts.append(reply[cursor:])
    stripped = "".join(stripped_parts)
    if stripped != original:
        raise RoundTripViolationError(
            "reply does not reproduce the source passage after removing tags"
        )
    for ins in insertions:
        if ins.tag_id not in tagset:
            raise UnknownTagError(ins.tag_id)
    return TaggedPassage(original=original, insertions=tuple(insertions))


@dataclass(frozen=True)
class Exchange:
    """One prompt/response round with the transport attempt count."""

    system: str
    user: str
    response: str
    attempts: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "user": self.user,
            "response": self.response,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Exchange":
        return cls(data["system"], data["user"], data["response"], data["attempts"])


STEP_RETRY_LINE = "Reply again following the required format exactly."


def format_options(question: Question) -> str:
    """The question's options as ``A. ...`` lines, as the step 2 and judge prompts show them."""
    return "\n".join(f"{letter}. {opt}" for letter, opt in zip("ABCD", question.options))


def parse_bloom_reply(reply: str) -> BloomLevel:
    """The Bloom level a reply names, or :class:`InvalidBloomReplyError`."""
    try:
        return BloomLevel.parse(reply)
    except ValueError as exc:
        raise InvalidBloomReplyError(str(exc)) from exc


def ask_validated(
    gateway: Gateway,
    template: PromptTemplate,
    bindings: Mapping[str, str],
    parse: Callable[[str], Any],
    exchanges: list[Exchange] | None,
    *,
    step: str,
    retry_budget: int,
    seed: int | None,
    retry_line: str,
) -> Any:
    """Prompt, parse, and retry with a corrective instruction on violations.

    Each round is appended to ``exchanges``. A rejected reply is followed by
    the original prompt plus the rejection reason and ``retry_line``; after
    ``retry_budget`` rejected retries the last :class:`ValidationError` is
    raised. Gateway errors propagate unchanged.
    """
    system, user = render_template(template, bindings)
    corrective = user
    last_error: ValidationError | None = None
    try:
        for _ in range(retry_budget + 1):
            request = CompletionRequest(system=system, user=corrective, seed=seed)
            result = gateway.complete_ex(request, step=step)
            if exchanges is not None:
                exchanges.append(Exchange(system, corrective, result.text, result.attempts))
            try:
                return parse(result.text)
            except ValidationError as exc:
                last_error = exc
                corrective = f"{user}\n\nYour previous reply was rejected: {exc}\n{retry_line}"
        assert last_error is not None
        raise last_error
    finally:
        # The error's traceback holds this frame; dropping the frame's hold
        # on the error lets both be freed at once, not by the cycle collector.
        last_error = None


@dataclass(frozen=True)
class RecordStatus:
    state: str = "complete"  # "complete" | "failed"
    step: int | None = None
    reason: str | None = None
    gateway_failure: bool = False

    @classmethod
    def failed(cls, step: int, reason: str, gateway_failure: bool = False) -> "RecordStatus":
        return cls(state="failed", step=step, reason=reason, gateway_failure=gateway_failure)

    @property
    def is_complete(self) -> bool:
        return self.state == "complete"

    def to_dict(self) -> dict[str, Any]:
        if self.is_complete:
            return {"state": "complete"}
        return {
            "state": "failed",
            "step": self.step,
            "reason": self.reason,
            "gateway_failure": self.gateway_failure,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RecordStatus":
        return cls(
            state=data["state"],
            step=data.get("step"),
            reason=data.get("reason"),
            gateway_failure=data.get("gateway_failure", False),
        )


@dataclass
class TranscreationRecord:
    """Full provenance of one item's transcreation."""

    source: ReadingItem
    target_topic: str
    student_id: str | None = None
    assignment_mode: str | None = None
    extracted_topic: str | None = None
    question_blooms: tuple[BloomLevel, ...] | None = None
    tagged_source: TaggedPassage | None = None
    transcreated_passage: str | None = None
    transcreated_questions: tuple[Question, ...] | None = None
    topic_unchanged: bool = False
    step_exchanges: dict[str, list[Exchange]] = field(
        default_factory=lambda: {name: [] for name in STEP_NAMES.values()}
    )
    status: RecordStatus = field(default_factory=RecordStatus)

    @property
    def record_id(self) -> str:
        if self.student_id is None:
            return self.source.id
        return f"{self.source.id}:{self.student_id}"

    def to_dict(self, same_as: str | None = None) -> dict[str, Any]:
        """The record as a records-file line.

        With ``same_as``, the record id of an earlier line with the same
        source and steps 1-3 exchanges, the line refers to that line instead
        of repeating them, and carries ``"format": 2``.
        """
        out: dict[str, Any] = {"record_id": self.record_id}
        if same_as is None:
            out["source"] = self.source.to_dict()
        else:
            out["format"] = RECORDS_FORMAT
            out["same_as"] = same_as
        out.update(
            student_id=self.student_id,
            assignment_mode=self.assignment_mode,
            extracted_topic=self.extracted_topic,
            question_blooms=(
                [b.value for b in self.question_blooms] if self.question_blooms else None
            ),
            tagged_source=self.tagged_source.to_dict() if self.tagged_source else None,
            target_topic=self.target_topic,
            topic_unchanged=self.topic_unchanged,
            transcreated_passage=self.transcreated_passage,
            transcreated_questions=(
                [q.to_dict() for q in self.transcreated_questions]
                if self.transcreated_questions
                else None
            ),
            step_exchanges={
                step: [e.to_dict() for e in exchanges]
                for step, exchanges in self.step_exchanges.items()
                if same_as is None or step not in ANALYSIS_STEPS
            },
            status=self.status.to_dict(),
        )
        return out

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], same_as: "TranscreationRecord | None" = None
    ) -> "TranscreationRecord":
        """The inverse of :meth:`to_dict`.

        With ``same_as``, the record that ``data`` refers to, the record
        shares its source and its steps 1-3 exchanges, in new lists.
        """
        blooms = data.get("question_blooms")
        questions = data.get("transcreated_questions")
        exchanges = data.get("step_exchanges", {})
        if same_as is None:
            source = ReadingItem.from_dict(data["source"])
            step_exchanges = {}
        else:
            if "source" in data or not set(ANALYSIS_STEPS).isdisjoint(exchanges):
                raise ValueError("a same_as line repeats its source or steps 1-3 exchanges")
            source = same_as.source
            step_exchanges = {name: list(same_as.step_exchanges[name]) for name in ANALYSIS_STEPS}
        for step, entries in exchanges.items():
            step_exchanges[step] = [Exchange.from_dict(e) for e in entries]
        return cls(
            source=source,
            target_topic=data["target_topic"],
            student_id=data.get("student_id"),
            assignment_mode=data.get("assignment_mode"),
            extracted_topic=data.get("extracted_topic"),
            question_blooms=tuple(BloomLevel.parse(b) for b in blooms) if blooms else None,
            tagged_source=(
                TaggedPassage.from_dict(data["tagged_source"]) if data.get("tagged_source") else None
            ),
            transcreated_passage=data.get("transcreated_passage"),
            transcreated_questions=(
                tuple(Question.from_dict(q) for q in questions) if questions else None
            ),
            topic_unchanged=data.get("topic_unchanged", False),
            step_exchanges=step_exchanges,
            status=RecordStatus.from_dict(data["status"]),
        )


def _analysis_exchanges(record: TranscreationRecord) -> list[list[Exchange]] | None:
    """The record's steps 1-3 exchange lists, or ``None`` unless its exchanges
    start with exactly those steps, as every pipeline record's do."""
    if tuple(record.step_exchanges)[:3] != ANALYSIS_STEPS:
        return None
    return [record.step_exchanges[name] for name in ANALYSIS_STEPS]


def save_records(records: Iterable[TranscreationRecord], path: str | Path) -> None:
    """Write records as JSONL, one line per record in order, atomically.

    A record whose source and steps 1-3 exchanges equal those of an earlier
    line is written with a reference to that line in their place (see
    :meth:`TranscreationRecord.to_dict`); every other field is written in
    full on every line.
    """
    write_jsonl(path, _record_lines(records))


def _record_lines(records: Iterable[TranscreationRecord]) -> Iterator[dict[str, Any]]:
    latest: dict[str, TranscreationRecord] = {}  # record id -> its last line so far
    in_full: dict[str, dict[str, None]] = {}  # item id -> record ids written in full
    for record in records:
        record_id = record.record_id
        analysis = _analysis_exchanges(record)
        same_as = None
        if analysis is not None:
            for candidate in in_full.get(record.source.id, ()):
                earlier = latest[candidate]
                if earlier.source == record.source and _analysis_exchanges(earlier) == analysis:
                    same_as = candidate
                    break
        if same_as is None:
            in_full.setdefault(record.source.id, {})[record_id] = None
        latest[record_id] = record
        yield record.to_dict(same_as)


def load_records(path: str | Path) -> list[TranscreationRecord]:
    """Read a records file; lines without a ``format`` mark are format 1.

    A ``"format": 2`` line takes its source and steps 1-3 exchanges from
    the nearest earlier line whose record id its ``same_as`` names. A
    malformed line, or a reference to no earlier line, raises
    :class:`MalformedLineError` naming ``path:line``.
    """
    records: list[TranscreationRecord] = []
    latest: dict[str, TranscreationRecord] = {}  # record id -> its last line so far
    for line_no, data in read_jsonl(path, "records file"):
        try:
            record = _record_from_line(data, latest)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedLineError(path, line_no, f"bad record: {exc}") from exc
        latest[record.record_id] = record
        records.append(record)
    return records


def _record_from_line(
    data: Any, latest: Mapping[str, TranscreationRecord]
) -> TranscreationRecord:
    if not isinstance(data, dict):
        raise TypeError("a record must be a JSON object")
    version = data.get("format", 1)
    if version == 1:
        return TranscreationRecord.from_dict(data)
    if version != RECORDS_FORMAT:
        raise ValueError(f"unknown records format {version!r}")
    same_as = data["same_as"]
    if not isinstance(same_as, str) or same_as not in latest:
        raise ValueError(f"same_as {same_as!r} names no earlier record")
    return TranscreationRecord.from_dict(data, same_as=latest[same_as])


def default_prompt_dir() -> Path:
    return Path(str(resources.files("transcreate").joinpath("prompts")))


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    return load_prompt_dir(directory or default_prompt_dir())


def questions_payload(source_questions: Sequence[Question], blooms: Sequence[BloomLevel]) -> str:
    """The source questions with their levels, as the step 5 prompt shows them."""
    payload = [
        {
            "stem": q.stem,
            "options": list(q.options),
            "answer": "ABCD"[q.answer_index],
            "bloom": bloom.value,
        }
        for q, bloom in zip(source_questions, blooms)
    ]
    return json.dumps(payload, ensure_ascii=False, indent=2)


@dataclass
class ItemAnalysis:
    """Steps 1-3 of one item, which read only the source, shared by every
    record that rewrites the item.

    ``status`` is complete or the failure of the first step that failed;
    fields of later steps stay ``None``. Once steps 1-3 are complete,
    ``questions_json`` holds step 5's rendering of the source questions,
    and ``tagged_source`` computes step 4's inputs once (see
    :class:`TaggedPassage`).
    """

    extracted_topic: str | None = None
    question_blooms: tuple[BloomLevel, ...] | None = None
    tagged_source: TaggedPassage | None = None
    questions_json: str | None = None
    step_exchanges: dict[str, list[Exchange]] = field(
        default_factory=lambda: {STEP_NAMES[n]: [] for n in (1, 2, 3)}
    )
    status: RecordStatus = field(default_factory=RecordStatus)


def _run_steps(steps: Sequence[tuple[int, Callable[[], None]]]) -> RecordStatus:
    """Run numbered steps in order; the first failure becomes the returned status."""
    for number, run in steps:
        try:
            run()
        except GatewayError as exc:
            return RecordStatus.failed(
                number, f"{type(exc).__name__}: {exc}", gateway_failure=True
            )
        except ValidationError as exc:
            return RecordStatus.failed(number, f"{type(exc).__name__}: {exc}")
    return RecordStatus()


class Work(NamedTuple):
    """One record to make: an item, its target topic, and whom and how it was assigned."""

    item: ReadingItem
    target_topic: str
    student_id: str | None
    mode: str | None


class TranscreationPipeline:
    """Runs the five transcreation steps against a configured gateway."""

    def __init__(
        self,
        gateway: Gateway,
        taxonomy: TopicTaxonomy,
        tagset: TagSet,
        templates: Mapping[str, PromptTemplate] | None = None,
        *,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
        length_envelope: float = DEFAULT_LENGTH_ENVELOPE,
        seed: int | None = 0,
    ):
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if not 0 < length_envelope < 1:
            raise ValueError("length_envelope must be in (0, 1)")
        self.gateway = gateway
        self.taxonomy = taxonomy
        self.tagset = tagset
        self.templates = dict(templates) if templates is not None else load_templates()
        self.retry_budget = retry_budget
        self.length_envelope = length_envelope
        self.seed = seed
        missing = [name for name in STEP_NAMES.values() if name not in self.templates]
        if missing:
            raise ValidationError(f"missing prompt templates: {', '.join(missing)}")

    def _ask(
        self,
        step_name: str,
        bindings: Mapping[str, str],
        parse: Callable[[str], Any],
        exchanges: list[Exchange] | None,
    ) -> Any:
        return ask_validated(
            self.gateway, self.templates[step_name], bindings, parse, exchanges,
            step=step_name, retry_budget=self.retry_budget, seed=self.seed,
            retry_line=STEP_RETRY_LINE,
        )

    # -- steps ----------------------------------------------------------------

    def extract_topic(self, item: ReadingItem, exchanges: list[Exchange] | None = None) -> str:
        """Step 1: name the passage's topic as a taxonomy code."""
        if not item.passage.strip():
            raise ValidationError("empty passage")
        topic_list = "\n".join(
            f"{code}: {self.taxonomy.lookup(code).description}" for code in self.taxonomy.codes()
        )

        def parse(reply: str) -> str:
            code = reply.strip()
            if code not in self.taxonomy:
                raise InvalidTopicReplyError(f"{code!r} is not a topic code in the taxonomy")
            return code

        return self._ask(
            "extract_topic",
            {"passage": item.passage, "topic_list": topic_list},
            parse,
            exchanges,
        )

    def classify_question(
        self, question: Question, exchanges: list[Exchange] | None = None
    ) -> BloomLevel:
        """Step 2: label one question with its cognitive level."""
        return self._ask(
            "classify_question",
            {"stem": question.stem, "options": format_options(question)},
            parse_bloom_reply,
            exchanges,
        )

    def tag_features(
        self, item: ReadingItem, exchanges: list[Exchange] | None = None
    ) -> TaggedPassage:
        """Step 3: mark support sentences with linguistic-feature tags."""
        questions = "\n".join(f"- {q.stem}" for q in item.questions)
        tag_list = "\n".join(f"{tag.id}: {tag.description}" for tag in self.tagset.tags)

        def parse(reply: str) -> TaggedPassage:
            return parse_tagged_reply(reply.strip("\n"), item.passage, self.tagset)

        return self._ask(
            "tag_features",
            {"passage": item.passage, "questions": questions, "tag_list": tag_list},
            parse,
            exchanges,
        )

    def transcreate_passage(
        self,
        tagged: TaggedPassage,
        source_topic: str,
        target_topic: str,
        exchanges: list[Exchange] | None = None,
    ) -> str:
        """Step 4: rewrite the passage into the target topic.

        The reply must carry exactly the source's tag multiset and stay within
        the length envelope; tags are stripped from the stored passage.
        """
        if target_topic not in self.taxonomy:
            raise UnknownTopicError(target_topic)
        source_words = tagged.word_count
        expected_tags = tagged._sorted_tag_ids

        def parse(reply: str) -> str:
            found_tags = sorted(TAG_TOKEN_RE.findall(reply))
            if found_tags != expected_tags:
                raise TagMultisetMismatchError(
                    f"tag tokens {found_tags} do not match the source tags {expected_tags}"
                )
            passage = strip_tags(reply).strip()
            words = len(tokenize_words(passage))
            low = source_words * (1 - self.length_envelope)
            high = source_words * (1 + self.length_envelope)
            if not low <= words <= high:
                raise LengthViolationError(
                    f"{words} words is outside {low:.0f}..{high:.0f} "
                    f"(source has {source_words})"
                )
            return passage

        source_sub = self.taxonomy.lookup(source_topic)
        target_sub = self.taxonomy.lookup(target_topic)
        return self._ask(
            "transcreate_passage",
            {
                "tagged_passage": tagged.render(),
                "source_topic": source_topic,
                "source_description": source_sub.description,
                "target_topic": target_topic,
                "target_description": target_sub.description,
                "word_count": str(source_words),
            },
            parse,
            exchanges,
        )

    def transcreate_questions(
        self,
        passage: str,
        source_questions: Sequence[Question],
        blooms: Sequence[BloomLevel],
        exchanges: list[Exchange] | None = None,
        *,
        questions_json: str | None = None,
    ) -> tuple[Question, ...]:
        """Step 5: rewrite the questions; each keeps its source's cognitive level.

        ``questions_json`` is ``questions_payload(source_questions, blooms)``
        when the caller already has it (see :class:`ItemAnalysis`).
        """
        if questions_json is None:
            questions_json = questions_payload(source_questions, blooms)

        def parse(reply: str) -> tuple[Question, ...]:
            text = reply.strip()
            if text.startswith("```"):
                text = re.sub(r"^```[a-zA-Z]*\n?", "", text)
                text = re.sub(r"\n?```$", "", text)
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise StructureViolationError(None, f"reply is not valid JSON: {exc}") from exc
            if not isinstance(data, list):
                raise StructureViolationError(None, "reply must be a JSON array")
            if len(data) != len(source_questions):
                raise StructureViolationError(
                    None, f"expected {len(source_questions)} questions, got {len(data)}"
                )
            questions = []
            for idx, entry in enumerate(data):
                if not isinstance(entry, Mapping):
                    raise StructureViolationError(idx, "question must be a JSON object")
                options = entry.get("options")
                if not isinstance(options, list) or len(options) != 4:
                    count = len(options) if isinstance(options, list) else 0
                    raise StructureViolationError(idx, f"expected 4 options, got {count}")
                answer = str(entry.get("answer", "")).strip().upper()
                if answer not in ("A", "B", "C", "D"):
                    raise StructureViolationError(idx, f"answer out of range: {answer!r}")
                try:
                    questions.append(
                        Question(
                            stem=str(entry.get("stem", "")),
                            options=tuple(str(opt) for opt in options),
                            answer_index="ABCD".index(answer),
                            bloom=blooms[idx],
                        )
                    )
                except ValueError as exc:
                    raise StructureViolationError(idx, str(exc)) from exc
            return tuple(questions)

        return self._ask(
            "transcreate_questions",
            {"passage": passage, "questions_json": questions_json},
            parse,
            exchanges,
        )

    # -- full item ------------------------------------------------------------

    def analyse(self, item: ReadingItem) -> ItemAnalysis:
        """Run Steps 1-3, which read only the source item.

        Never raises for step failures: a terminal failure is captured as
        ``status=failed(step, reason)`` with all earlier exchanges preserved.
        """
        analysis = ItemAnalysis()
        exchanges = analysis.step_exchanges

        def step1() -> None:
            analysis.extracted_topic = self.extract_topic(item, exchanges["extract_topic"])

        def step2() -> None:
            analysis.question_blooms = tuple(
                self.classify_question(question, exchanges["classify_question"])
                for question in item.questions
            )

        def step3() -> None:
            analysis.tagged_source = self.tag_features(item, exchanges["tag_features"])

        analysis.status = _run_steps([(1, step1), (2, step2), (3, step3)])
        if analysis.status.is_complete:
            analysis.questions_json = questions_payload(item.questions, analysis.question_blooms)
        return analysis

    def transcreate_item(
        self,
        item: ReadingItem,
        target_topic: str,
        *,
        student_id: str | None = None,
        assignment_mode: str | None = None,
        analysis: ItemAnalysis | None = None,
    ) -> TranscreationRecord:
        """Run Steps 4-5 for one item on its analysis (Steps 1-3).

        Without ``analysis`` the item is analysed first. The record gets the
        analysis's fields and copies of its exchange lists; if the analysis
        failed, so does the record, with the same step and reason, and Steps
        4-5 are not asked. Never raises for step failures: a terminal failure
        is captured as ``status=failed(step, reason)`` with all earlier
        exchanges preserved.
        """
        if target_topic not in self.taxonomy:
            raise UnknownTopicError(target_topic)
        if analysis is None:
            analysis = self.analyse(item)
        record = TranscreationRecord(
            source=item,
            target_topic=target_topic,
            student_id=student_id,
            assignment_mode=assignment_mode,
            extracted_topic=analysis.extracted_topic,
            question_blooms=analysis.question_blooms,
            tagged_source=analysis.tagged_source,
            topic_unchanged=analysis.extracted_topic == target_topic,
        )
        for name, exchanges in analysis.step_exchanges.items():
            record.step_exchanges[name] = list(exchanges)
        if not analysis.status.is_complete:
            record.status = analysis.status
            return record

        def step4() -> None:
            record.transcreated_passage = self.transcreate_passage(
                analysis.tagged_source,
                analysis.extracted_topic,
                target_topic,
                record.step_exchanges["transcreate_passage"],
            )

        def step5() -> None:
            record.transcreated_questions = self.transcreate_questions(
                record.transcreated_passage,
                item.questions,
                analysis.question_blooms,
                record.step_exchanges["transcreate_questions"],
                questions_json=analysis.questions_json,
            )

        record.status = _run_steps([(4, step4), (5, step5)])
        return record

    def transcreate_many(self, work: Sequence[Work], jobs: int = 1) -> list[TranscreationRecord]:
        """Transcreate each :class:`Work` entry; output keeps input order.

        Each item is analysed once, by the task of its first record; later
        records of the item, in any worker, wait for that analysis and share
        it. Items are told apart by id.
        """
        analyses: dict[str, Future[ItemAnalysis]] = {}
        lock = threading.Lock()

        def analysis_of(item: ReadingItem) -> ItemAnalysis:
            with lock:
                future = analyses.get(item.id)
                first = future is None
                if first:
                    future = analyses[item.id] = Future()
            if first:
                try:
                    future.set_result(self.analyse(item))
                except BaseException as exc:
                    future.set_exception(exc)
                    raise
            return future.result()

        def run(item: ReadingItem, target: str, sid: str | None,
                mode: str | None) -> TranscreationRecord:
            return self.transcreate_item(item, target, student_id=sid, assignment_mode=mode,
                                         analysis=analysis_of(item))

        if jobs <= 1:
            return [run(*entry) for entry in work]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run, *entry) for entry in work]
            return [future.result() for future in futures]


# -- topic assignment ----------------------------------------------------------


def assign_topics(
    profiles: Sequence[InterestProfile],
    items: Sequence[ReadingItem],
    mode: str,
    rng_seed: int,
    taxonomy: TopicTaxonomy,
) -> list[Work]:
    """Pick a target topic per (student, item); deterministic for a given seed.

    Random mode draws uniformly over the taxonomy minus the item's source
    topic; interest mode gives item k the student's k-th top interest,
    repeating cyclically past four items. The work list is student-major:
    every item for the first profile, then every item for the next.
    """
    if mode not in ("random", "interest"):
        raise ValueError(f"mode must be 'random' or 'interest', not {mode!r}")
    if not profiles:
        raise MissingProfileError("no interest profiles supplied")
    if not taxonomy.codes():
        raise EmptyTaxonomyError("taxonomy has no topic codes")
    for item in items:
        if item.source_topic is not None and item.source_topic not in taxonomy:
            raise UnknownTopicError(item.source_topic, f"source topic of item {item.id}")
    rng = random.Random(rng_seed)
    work = []
    for profile in profiles:
        for idx, item in enumerate(items):
            if mode == "interest":
                topic = profile.top_interests[idx % len(profile.top_interests)]
            else:
                eligible = [code for code in taxonomy.codes() if code != item.source_topic]
                if not eligible:
                    raise EmptyTaxonomyError(
                        f"no eligible topics for item {item.id} after excluding its source"
                    )
                topic = rng.choice(eligible)
            work.append(Work(item, topic, profile.student_id, mode))
    return work
