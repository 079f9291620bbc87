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
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

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
from .fileio import MalformedLineError, indented_json, read_jsonl, write_jsonl
from .gateway import (
    CompletionRequest,
    Gateway,
    PromptTemplate,
    check_bindings,
    load_prompt_dir,
    render_template,
)
from .textmetrics import tokenize_words

STEP_NAMES = {
    1: "extract_topic",
    2: "classify_question",
    3: "tag_features",
    4: "transcreate_passage",
    5: "transcreate_questions",
}
ANALYSIS_STEPS = tuple(STEP_NAMES[n] for n in (1, 2, 3))

# Version mark of the records lines ``save_records`` writes. Lines without a
# mark are format 1; format 2 lines refer to an earlier line (``same_as``).
RECORDS_FORMAT = 3

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


STEP_RETRY_LINE = "Reply again following the required format exactly."

# What joins a first prompt and the reason its reply was rejected; the retry
# line follows the reason after a newline.
CORRECTIVE_PREFIX = "\n\nYour previous reply was rejected: "


def corrective_prompt(user: str, reason: str, retry_line: str) -> str:
    """The prompt sent after a rejected reply to ``user``."""
    return f"{user}{CORRECTIVE_PREFIX}{reason}\n{retry_line}"


@dataclass(frozen=True)
class Exchange:
    """One prompt/response round with the transport attempt count.

    The prompt is kept as it was asked: its template and bindings, and, for
    a corrective prompt, the ``rejected`` reason of the reply before it and
    the ``retry_line``. ``system`` and ``user`` render it on demand, byte for
    byte as it was sent. ``bindings`` must not change once the exchange exists.
    """

    template: PromptTemplate
    bindings: Mapping[str, str]
    response: str
    attempts: int
    rejected: str | None = None
    retry_line: str | None = None

    @property
    def system(self) -> str:
        return self.template.system_text

    @property
    def user(self) -> str:
        user = render_template(self.template, self.bindings)[1]
        if self.rejected is None:
            return user
        return corrective_prompt(user, self.rejected, self.retry_line)

    def to_dict(self) -> dict[str, Any]:
        """The exchange as records format 1 holds it, its prompt rendered."""
        return {
            "system": self.system,
            "user": self.user,
            "response": self.response,
            "attempts": self.attempts,
        }


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
    the original prompt plus the rejection reason and ``retry_line`` (see
    :func:`corrective_prompt`); after ``retry_budget`` rejected retries the
    last :class:`ValidationError` is raised. Gateway errors propagate unchanged.
    """
    system, user = render_template(template, bindings)
    reason: str | None = None
    last_error: ValidationError | None = None
    try:
        for _ in range(retry_budget + 1):
            prompt = user if reason is None else corrective_prompt(user, reason, retry_line)
            request = CompletionRequest(system=system, user=prompt, seed=seed)
            result = gateway.complete_ex(request, step=step)
            if exchanges is not None:
                exchanges.append(Exchange(template, bindings, result.text, result.attempts,
                                          reason, None if reason is None else retry_line))
            try:
                return parse(result.text)
            except ValidationError as exc:
                last_error = exc
                reason = str(exc)
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

    def to_dict(self) -> dict[str, Any]:
        """The record as a records format 1 line: every field in full, every prompt rendered."""
        head = {"record_id": self.record_id, "source": self.source.to_dict()}
        return self._line(head, {
            step: [exchange.to_dict() for exchange in exchanges]
            for step, exchanges in self.step_exchanges.items()
        })

    def _line(self, head: dict[str, Any], step_exchanges: dict[str, Any]) -> dict[str, Any]:
        """``head`` followed by the fields every records line holds in full."""
        head.update(
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
            step_exchanges=step_exchanges,
            status=self.status.to_dict(),
        )
        return head


def _analysis_exchanges(record: TranscreationRecord) -> list[list[Exchange]] | None:
    """The record's steps 1-3 exchange lists, or ``None`` unless its exchanges
    start with exactly those steps, as every pipeline record's do."""
    if tuple(record.step_exchanges)[:3] != ANALYSIS_STEPS:
        return None
    return [record.step_exchanges[name] for name in ANALYSIS_STEPS]


def save_records(records: Iterable[TranscreationRecord], path: str | Path) -> None:
    """Write records as records format 3 JSONL, one line per record in order, atomically.

    A record whose source and steps 1-3 exchanges equal those of an earlier
    line refers to that line (``same_as``) in their place. Each prompt is
    written as its template and bindings: a template, or a binding taken
    from the taxonomy or the tag set, goes once into the file's text table,
    and a binding that a field of the line (or of its ``same_as`` line)
    reproduces is written as a reference to that field. Every other field
    is written in full on every line.
    """
    writer = _RecordsWriter()
    write_jsonl(path, map(writer.line, records))


def load_records(path: str | Path) -> list[TranscreationRecord]:
    """Read a records file of format 1, 2 or 3 lines.

    A line that is malformed, refers to no earlier line or to a text the
    file has not defined, or whose prompt does not fit its template, raises
    :class:`MalformedLineError` naming ``path:line``.
    """
    reader = _RecordsReader()
    records: list[TranscreationRecord] = []
    for line_no, data in read_jsonl(path, "records file"):
        try:
            records.append(reader.record(data))
        except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as exc:
            raise MalformedLineError(path, line_no, f"bad record: {exc}") from exc
    return records


# -- records format 3 ------------------------------------------------------------

# Binding name -> the field references a writer tries for it, in order.
_FIELD_CANDIDATES = {
    "passage": ("source.passage", "transcreated_passage"),
    "stem": ("source.stem",),
    "options": ("source.options",),
    "questions": ("source.stems",),
    "tagged_passage": ("tagged_source",),
    "questions_json": ("questions_payload",),
}
# Field references that name one source question, by its index.
_QUESTION_FIELDS: dict[str, Callable[[Question], str]] = {
    "source.stem": lambda question: question.stem,
    "source.options": format_options,
}
# Bindings taken from the taxonomy or the tag set, the same for many lines.
_TABLE_BINDINGS = frozenset({"topic_list", "tag_list", "source_description",
                             "target_description"})
_TEXT_KEY_LENGTH = 16  # hex digits of the sha256; all 64 where a prefix is taken


def _sha256(text: str) -> str:
    import hashlib  # records files only; not worth every start-up

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reply(entry: Mapping[str, Any]) -> tuple[str, int]:
    """An exchange entry's response and attempt count, checked."""
    response, attempts = entry["response"], entry["attempts"]
    if not isinstance(response, str) or type(attempts) is not int:
        raise TypeError("an exchange needs a string response and an integer attempts")
    return response, attempts


def question_list(questions: Sequence[Question]) -> str:
    """The question stems as ``- stem`` lines, as the step 3 prompt shows them."""
    return "\n".join(f"- {q.stem}" for q in questions)


# Field references that name a text of the record, or None where it has none.
_RECORD_FIELDS: dict[str, Callable[[TranscreationRecord], str | None]] = {
    "source.passage": lambda record: record.source.passage,
    "source.stems": lambda record: question_list(record.source.questions),
    "tagged_source": lambda record: (
        record.tagged_source.render() if record.tagged_source else None),
    "transcreated_passage": lambda record: record.transcreated_passage,
}


class _FieldViews:
    """The texts that field references name, with step 5's payload computed
    once per source and levels."""

    def __init__(self) -> None:
        self._payloads: dict[int, tuple[ReadingItem, tuple[BloomLevel, ...], str]] = {}

    def view(self, record: TranscreationRecord, field: Any, question: Any = None) -> str | None:
        """The text ``field`` names on ``record``, or ``None`` if it names none."""
        if question is None:
            get = _RECORD_FIELDS.get(field)
            if get is not None:
                return get(record)
            if field == "questions_payload" and record.question_blooms:
                return self._payload(record.source, record.question_blooms)
            return None
        get = _QUESTION_FIELDS.get(field)
        questions = record.source.questions
        if get is None or type(question) is not int or not 0 <= question < len(questions):
            return None
        return get(questions[question])

    def _payload(self, source: ReadingItem, blooms: tuple[BloomLevel, ...]) -> str:
        cached = self._payloads.get(id(source))
        if cached is None or cached[0] is not source or cached[1] != blooms:
            payload = questions_payload(source.questions, blooms)
            cached = self._payloads[id(source)] = (source, blooms, payload)
        return cached[2]


class _RecordsWriter(_FieldViews):
    """Turns records into format 3 lines, in file order."""

    def __init__(self) -> None:
        super().__init__()
        self._latest: dict[str, TranscreationRecord] = {}  # record id -> its last line so far
        self._in_full: dict[str, dict[str, None]] = {}  # item id -> record ids written in full
        self._keys: dict[str | PromptTemplate, str] = {}  # text or template -> its key
        self._taken: set[str] = set()
        self._new: dict[str, Any] = {}  # the texts the current line defines
        self._plans: dict[PromptTemplate, tuple[tuple[str, tuple[str, ...], bool], ...]] = {}

    def line(self, record: TranscreationRecord) -> dict[str, Any]:
        same_as = self._same_as(record)
        self._new = {}
        exchanges = {
            step: [self._exchange(exchange, record) for exchange in entries]
            for step, entries in record.step_exchanges.items()
            if same_as is None or step not in ANALYSIS_STEPS
        }
        head: dict[str, Any] = {"record_id": record.record_id, "format": RECORDS_FORMAT}
        if same_as is not None:
            head["same_as"] = same_as
        if self._new:
            head["texts"] = self._new
        if same_as is None:
            head["source"] = record.source.to_dict()
        return record._line(head, exchanges)

    def _same_as(self, record: TranscreationRecord) -> str | None:
        """The id of an earlier line with this record's source and steps 1-3 exchanges."""
        record_id = record.record_id
        analysis = _analysis_exchanges(record)
        same_as = None
        if analysis is not None:
            for candidate in self._in_full.get(record.source.id, ()):
                earlier = self._latest[candidate]
                if earlier.source == record.source and _analysis_exchanges(earlier) == analysis:
                    same_as = candidate
                    break
        if same_as is None:
            self._in_full.setdefault(record.source.id, {})[record_id] = None
        self._latest[record_id] = record
        return same_as

    def _exchange(self, exchange: Exchange, record: TranscreationRecord) -> dict[str, Any]:
        template = self._key(exchange.template)
        values = exchange.bindings
        bindings: dict[str, Any] = {}
        question = None  # the source question an earlier binding named, tried first
        for name, fields, table in self._plan(exchange.template):
            value = values[name]
            ref = self._reference(fields, value, record, question) if fields else None
            if ref is not None:
                bindings[name] = ref
                question = ref.get("question", question)
            elif table:
                bindings[name] = {"text": self._key(value)}
            else:
                bindings[name] = value
        out: dict[str, Any] = {"template": template, "bindings": bindings}
        if exchange.rejected is not None:
            out["rejected"] = {"reason": exchange.rejected, "retry_line": exchange.retry_line}
        out["response"] = exchange.response
        out["attempts"] = exchange.attempts
        return out

    def _plan(self, template: PromptTemplate) -> tuple[tuple[str, tuple[str, ...], bool], ...]:
        """Per placeholder: its name, the fields to try, and whether it goes in the table."""
        plan = self._plans.get(template)
        if plan is None:
            plan = self._plans[template] = tuple(
                (name, _FIELD_CANDIDATES.get(name, ()), name in _TABLE_BINDINGS)
                for name in template.names)
        return plan

    def _reference(self, fields: tuple[str, ...], value: str, record: TranscreationRecord,
                   question: int | None) -> dict[str, Any] | None:
        """A reference to the first field that reproduces ``value`` exactly, if any;
        of a question's fields, those of ``question`` are tried first."""
        for field in fields:
            if field in _QUESTION_FIELDS:
                indexes = range(len(record.source.questions))
                for index in indexes if question is None else (question, *indexes):
                    if self.view(record, field, index) == value:
                        return {"field": field, "question": index}
            elif self.view(record, field) == value:
                return {"field": field}
        return None

    def _key(self, text: str | PromptTemplate) -> str:
        """The text-table key of ``text``, defined on the current line if it is new."""
        key = self._keys.get(text)
        if key is None:
            if isinstance(text, PromptTemplate):
                digest = text.sha256
                entry: Any = {"name": text.name, "system": text.system_text,
                              "user": text.user_template}
            else:
                digest, entry = _sha256(text), text
            key = digest[:_TEXT_KEY_LENGTH]
            if key in self._taken:
                key = digest
            self._keys[text] = key
            self._taken.add(key)
            self._new[key] = entry
        return key


class _RecordsReader(_FieldViews):
    """Turns the lines of one records file into records, in file order."""

    def __init__(self) -> None:
        super().__init__()
        # record id -> its last line so far, as a record and its raw tagged_source
        self._latest: dict[str, tuple[TranscreationRecord, Any]] = {}
        self._texts: dict[str, str | PromptTemplate] = {}
        self._package_templates: dict[str, PromptTemplate] | None = None

    def record(self, data: Any) -> TranscreationRecord:
        if not isinstance(data, dict):
            raise TypeError("a record must be a JSON object")
        version = data.get("format", 1)
        if type(version) is not int:
            raise TypeError(f"records format must be an integer, not {version!r}")
        if version not in (1, 2, RECORDS_FORMAT):
            raise ValueError(f"unknown records format {version!r}")
        exchanges = data.get("step_exchanges", {})
        base = base_tagged = None
        if version == 2 or (version == RECORDS_FORMAT and "same_as" in data):
            same_as = data["same_as"]
            if not isinstance(same_as, str) or same_as not in self._latest:
                raise ValueError(f"same_as {same_as!r} names no earlier record")
            if "source" in data or not set(ANALYSIS_STEPS).isdisjoint(exchanges):
                raise ValueError("a same_as line repeats its source or steps 1-3 exchanges")
            base, base_tagged = self._latest[same_as]
        if version == RECORDS_FORMAT:
            self._define(data.get("texts", {}))
        record = self._fields(data, base, base_tagged)
        if base is not None:
            for name in ANALYSIS_STEPS:
                record.step_exchanges[name] = list(base.step_exchanges[name])
        for step, entries in exchanges.items():
            if not isinstance(entries, list):
                raise TypeError(f"step {step!r} must hold a list of exchanges")
            if version == RECORDS_FORMAT:
                record.step_exchanges[step] = [self._exchange(entry, record) for entry in entries]
            else:
                record.step_exchanges[step] = self._lift(step, entries)
        self._latest[record.record_id] = (record, data.get("tagged_source"))
        return record

    @staticmethod
    def _fields(data: Mapping[str, Any], base: TranscreationRecord | None,
                base_tagged: Any) -> TranscreationRecord:
        """The record without its exchanges. A line whose ``tagged_source``
        equals ``base_tagged``, its base line's, shares the base record's object."""
        blooms = data.get("question_blooms")
        questions = data.get("transcreated_questions")
        tagged = data.get("tagged_source")
        passage = data.get("transcreated_passage")
        if passage is not None and not isinstance(passage, str):
            raise TypeError(f"transcreated_passage must be a string or null, not {passage!r}")
        if not tagged:
            tagged_source = None
        elif base is not None and base.tagged_source and tagged == base_tagged:
            tagged_source = base.tagged_source
        else:
            tagged_source = TaggedPassage.from_dict(tagged)
        record = TranscreationRecord(
            source=base.source if base is not None else ReadingItem.from_dict(data["source"]),
            target_topic=data["target_topic"],
            student_id=data.get("student_id"),
            assignment_mode=data.get("assignment_mode"),
            extracted_topic=data.get("extracted_topic"),
            question_blooms=tuple(BloomLevel.parse(b) for b in blooms) if blooms else None,
            tagged_source=tagged_source,
            transcreated_passage=passage,
            transcreated_questions=(
                tuple(Question.from_dict(q) for q in questions) if questions else None
            ),
            topic_unchanged=data.get("topic_unchanged", False),
            step_exchanges={},
            status=RecordStatus.from_dict(data["status"]),
        )
        if record.status.is_complete and not (passage and record.transcreated_questions):
            raise ValueError("a complete record needs its transcreated passage and questions")
        return record

    def _define(self, texts: Any) -> None:
        if not isinstance(texts, dict):
            raise TypeError("texts must be a JSON object")
        for key, entry in texts.items():
            if isinstance(entry, str):
                text: str | PromptTemplate = entry
                digest = _sha256(entry)
            elif isinstance(entry, dict) and all(
                    isinstance(entry.get(part), str) for part in ("name", "system", "user")):
                text = PromptTemplate(entry["name"], entry["system"], entry["user"])
                digest = text.sha256
            else:
                raise TypeError(f"text {key!r} must be a string or a template object")
            if len(key) not in (_TEXT_KEY_LENGTH, len(digest)) or not digest.startswith(key):
                raise ValueError(f"text key {key!r} is not the start of its text's sha256")
            self._texts[key] = text

    def _text(self, key: Any, kind: type) -> Any:
        text = self._texts.get(key) if type(key) is str else None
        if type(text) is not kind:
            what = "template" if kind is PromptTemplate else "text"
            raise ValueError(f"{what} {key!r} is not in the file's text table")
        return text

    def _exchange(self, entry: Any, record: TranscreationRecord) -> Exchange:
        if not isinstance(entry, dict):
            raise TypeError("an exchange must be a JSON object")
        template = self._text(entry["template"], PromptTemplate)
        raw = entry["bindings"]
        if not isinstance(raw, dict):
            raise TypeError("bindings must be a JSON object")
        bindings = {}
        for name, value in raw.items():
            bindings[name] = value if type(value) is str else self._binding(name, value, record)
        if tuple(bindings) != template.names:  # as written; any other order is checked in full
            check_bindings(template, bindings)
        rejected = entry.get("rejected")
        reason = retry_line = None
        if rejected is not None:
            reason, retry_line = rejected["reason"], rejected["retry_line"]
            if not (isinstance(reason, str) and isinstance(retry_line, str)):
                raise TypeError("a rejection needs a string reason and retry_line")
        return Exchange(template, bindings, *_reply(entry), reason, retry_line)

    def _binding(self, name: str, value: Any, record: TranscreationRecord) -> str:
        """The text a binding that is not a plain string refers to."""
        if type(value) is dict:
            if "field" in value:
                text = self.view(record, value["field"], value.get("question"))
                if text is None:
                    raise ValueError(f"binding {name!r}: {value} names no text this line holds")
                return text
            if "text" in value:
                return self._text(value["text"], str)
        raise TypeError(f"binding {name!r} must be a string, a text or a field reference")

    def _lift(self, step: str, entries: list[Any]) -> list[Exchange]:
        """Format 1 and 2 exchanges, whose prompts are rendered, as template and bindings.

        A prompt that the package template of its step renders is taken
        apart by it; any other is kept whole as the template ``{prompt}``.
        A prompt that extends the step's latest other prompt as
        :func:`corrective_prompt` does is kept as its reason and retry line.
        """
        out: list[Exchange] = []
        first: tuple[Exchange, str] | None = None  # the latest prompt that was not corrective
        for entry in entries:
            system, user = entry["system"], entry["user"]
            if not (isinstance(system, str) and isinstance(user, str)):
                raise TypeError("an exchange's system and user must be strings")
            exchange = None
            if first is not None and first[0].system == system and user.startswith(
                    first[1] + CORRECTIVE_PREFIX):
                tail = user[len(first[1]) + len(CORRECTIVE_PREFIX):]
                reason, newline, retry_line = tail.rpartition("\n")
                if newline:
                    exchange = Exchange(first[0].template, first[0].bindings, *_reply(entry),
                                        reason, retry_line)
            if exchange is None:
                template, bindings = self._prompt(step, system, user)
                exchange = Exchange(template, bindings, *_reply(entry))
                first = (exchange, user)
            out.append(exchange)
        return out

    def _prompt(self, step: str, system: str, user: str) -> tuple[PromptTemplate, dict[str, str]]:
        if self._package_templates is None:
            self._package_templates = load_templates()
        template = self._package_templates.get(step)
        if template is not None and template.system_text == system:
            bindings = template.match(user)
            if bindings is not None:
                return template, bindings
        return PromptTemplate(step, system, "{prompt}"), {"prompt": user}


def default_prompt_dir() -> Path:
    return Path(str(resources.files("transcreate").joinpath("prompts")))


def load_templates(directory: str | Path | None = None) -> dict[str, PromptTemplate]:
    return load_prompt_dir(directory or default_prompt_dir())


def questions_payload(source_questions: Sequence[Question], blooms: Sequence[BloomLevel]) -> str:
    """The source questions with their levels, as the step 5 prompt shows them:
    ``json.dumps(payload, ensure_ascii=False, indent=2)`` of one
    ``{"stem", "options", "answer", "bloom"}`` object per question."""
    return indented_json([
        {"stem": q.stem, "options": q.options, "answer": "ABCD"[q.answer_index],
         "bloom": bloom.value}
        for q, bloom in zip(source_questions, blooms)
    ])


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
        questions = question_list(item.questions)
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
                if not isinstance(entry, dict):
                    raise StructureViolationError(idx, "question must be a JSON object")
                options = entry.get("options")
                if not isinstance(options, list) or len(options) != 4:
                    count = len(options) if isinstance(options, list) else 0
                    raise StructureViolationError(idx, f"expected 4 options, got {count}")
                answer = str(entry.get("answer", "")).strip().upper()
                if answer not in ("A", "B", "C", "D"):
                    raise StructureViolationError(idx, f"answer out of range: {answer!r}")
                try:
                    questions.append(Question(
                        str(entry.get("stem", "")), tuple(map(str, options)),
                        "ABCD".index(answer), blooms[idx],
                    ))
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
