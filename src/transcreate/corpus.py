"""Data model and ingestion for reading items, topics, tags, and interest profiles.

Everything loaded here is immutable after construction and safe to share
across concurrent pipeline workers.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ValidationError
from .fileio import MalformedLineError, read_json, read_jsonl, write_jsonl

TOPIC_CODE_RE = re.compile(r"^\d\.[a-z]$")

DEFAULT_CATEGORY_COUNT = 9
DEFAULT_SUBCATEGORY_COUNT = 33
DEFAULT_TAG_COUNT = 41


class DuplicateIdError(ValidationError):
    def __init__(self, item_id: str):
        super().__init__(f"duplicate item id {item_id!r}")
        self.item_id = item_id


class MalformedTaxonomyError(ValidationError):
    pass


class MalformedTagSetError(ValidationError):
    pass


class MalformedProfileError(ValidationError):
    pass


class UnknownTopicError(ValidationError):
    def __init__(self, code: str, context: str = ""):
        detail = f"unknown topic code {code!r}"
        if context:
            detail += f" ({context})"
        super().__init__(detail)
        self.code = code


class CountMismatchWarning(UserWarning):
    """A user-supplied taxonomy/tag file deviates from the bundled counts."""

    def __init__(self, message: str, found_categories: int = 0, found_subcategories: int = 0):
        super().__init__(message)
        self.found_categories = found_categories
        self.found_subcategories = found_subcategories


class BloomLevel(Enum):
    """The six cognitive levels used to label question demand."""

    REMEMBER = "Remember"
    UNDERSTAND = "Understand"
    APPLY = "Apply"
    ANALYZE = "Analyze"
    EVALUATE = "Evaluate"
    CREATE = "Create"

    @classmethod
    def parse(cls, text: str) -> "BloomLevel":
        """Parse a label, tolerating surrounding whitespace and case."""
        level = _BLOOM_BY_FOLDED_NAME.get(text.strip().casefold())
        if level is None:
            raise ValueError(f"not a Bloom level: {text!r}")
        return level


_BLOOM_BY_FOLDED_NAME = {level.value.casefold(): level for level in BloomLevel}


@dataclass(frozen=True, init=False)
class Question:
    """One multiple-choice question: a stem, exactly four options, one answer.

    Options must be a list or tuple of 4 strings, distinct once trimmed, and
    ``answer_index`` an integer in 0..3; a string, an object or a boolean
    is not taken for one.
    """

    stem: str
    options: tuple[str, str, str, str]
    answer_index: int
    bloom: BloomLevel | None = None

    def __init__(self, stem: str, options: tuple[str, str, str, str] | list[str],
                 answer_index: int, bloom: BloomLevel | None = None):
        if not isinstance(stem, str):
            raise ValueError(f"stem must be a string, not {stem!r}")
        if type(options) is not tuple:
            if type(options) is not list:
                raise ValueError(f"options must be a list of 4 strings, not {options!r}")
            options = tuple(options)
        if len(options) != 4:
            raise ValueError(f"expected 4 options, got {len(options)}")
        try:
            distinct = len(set(map(str.strip, options)))
        except TypeError:
            raise ValueError(f"options must be strings, not {options!r}") from None
        if distinct != 4:
            raise ValueError("duplicate options")
        if type(answer_index) is not int:
            raise ValueError(f"answer_index must be an integer, not {answer_index!r}")
        if not 0 <= answer_index <= 3:
            raise ValueError(f"answer_index out of range: {answer_index!r}")
        setattr_ = object.__setattr__
        setattr_(self, "stem", stem)
        setattr_(self, "options", options)
        setattr_(self, "answer_index", answer_index)
        setattr_(self, "bloom", bloom)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "stem": self.stem,
            "options": list(self.options),
            "answer_index": self.answer_index,
        }
        if self.bloom is not None:
            out["bloom"] = self.bloom.value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Question":
        bloom = data.get("bloom")
        return cls(data["stem"], data["options"], data["answer_index"],
                   BloomLevel.parse(bloom) if bloom is not None else None)


@dataclass(frozen=True)
class ReadingItem:
    """One passage plus its questions; the unit flowing through the pipeline."""

    id: str
    passage: str
    questions: tuple[Question, ...]
    source_topic: str | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "questions", tuple(self.questions))
        if not self.id:
            raise ValueError("empty item id")
        if not self.passage.strip():
            raise ValueError("empty passage")
        if not self.questions:
            raise ValueError("item has no questions")
        if self.source_topic is not None and not TOPIC_CODE_RE.match(self.source_topic):
            raise ValueError(f"bad topic code {self.source_topic!r}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "passage": self.passage,
            "questions": [q.to_dict() for q in self.questions],
        }
        if self.source_topic is not None:
            out["source_topic"] = self.source_topic
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReadingItem":
        return cls(
            id=data["id"],
            passage=data["passage"],
            questions=tuple(Question.from_dict(q) for q in data["questions"]),
            source_topic=data.get("source_topic"),
            metadata=dict(data.get("metadata", {})),
        )


@dataclass(frozen=True)
class Subcategory:
    code: str
    description: str


@dataclass(frozen=True)
class Category:
    number: int
    label: str
    subcategories: tuple[Subcategory, ...]


class TopicTaxonomy:
    """Nine-category interest taxonomy with O(1) lookup by topic code."""

    def __init__(self, categories: Iterable[Category]):
        self.categories: tuple[Category, ...] = tuple(categories)
        by_code: dict[str, Subcategory] = {}
        for category in self.categories:
            for sub in category.subcategories:
                if not TOPIC_CODE_RE.match(sub.code):
                    raise MalformedTaxonomyError(f"bad topic code {sub.code!r}")
                if not sub.code.startswith(f"{category.number}."):
                    raise MalformedTaxonomyError(
                        f"code {sub.code!r} does not belong to category {category.number}"
                    )
                if sub.code in by_code:
                    raise MalformedTaxonomyError(f"duplicate code {sub.code}")
                by_code[sub.code] = sub
        self._by_code = by_code

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __len__(self) -> int:
        return len(self._by_code)

    def codes(self) -> tuple[str, ...]:
        return tuple(self._by_code)

    def lookup(self, code: str) -> Subcategory:
        try:
            return self._by_code[code]
        except KeyError:
            raise UnknownTopicError(code) from None

    @property
    def category_count(self) -> int:
        return len(self.categories)

    @property
    def subcategory_count(self) -> int:
        return len(self._by_code)


@dataclass(frozen=True)
class Tag:
    id: str
    description: str


class TagSet:
    """The inventory of linguistic-feature tags usable in tagged passages."""

    def __init__(self, tags: Iterable[Tag]):
        self.tags: tuple[Tag, ...] = tuple(tags)
        by_id: dict[str, Tag] = {}
        for tag in self.tags:
            if not tag.id or any(ch.isspace() for ch in tag.id) or "]]" in tag.id:
                raise MalformedTagSetError(f"bad tag id {tag.id!r}")
            if tag.id in by_id:
                raise MalformedTagSetError(f"duplicate tag id {tag.id}")
            by_id[tag.id] = tag
        self._by_id = by_id

    def __contains__(self, tag_id: str) -> bool:
        return tag_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def lookup(self, tag_id: str) -> Tag:
        return self._by_id[tag_id]


@dataclass(frozen=True)
class InterestProfile:
    """One student's Likert interest ratings plus their stated top/least topics."""

    student_id: str
    likert: Mapping[str, int]
    top_interests: tuple[str, str, str, str]
    least_interests: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "top_interests", tuple(self.top_interests))
        object.__setattr__(self, "least_interests", frozenset(self.least_interests))
        if len(self.top_interests) != 4 or len(set(self.top_interests)) != 4:
            raise ValueError("top_interests must hold exactly 4 distinct codes")
        for code, value in self.likert.items():
            if not isinstance(value, int) or not 1 <= value <= 7:
                raise ValueError(f"likert value for {code} out of range: {value!r}")


def _bundled(name: str) -> Path:
    return Path(str(resources.files("transcreate") / "data" / name))


def load_items(path: str | Path) -> list[ReadingItem]:
    """Load reading items from a JSONL file, one item per line, order preserved."""
    items: list[ReadingItem] = []
    seen: set[str] = set()
    for line_no, data in read_jsonl(path, "items file"):
        try:
            item = ReadingItem.from_dict(data)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = str(exc) if not isinstance(exc, KeyError) else f"missing field {exc}"
            raise MalformedLineError(path, line_no, reason) from exc
        if item.id in seen:
            raise DuplicateIdError(item.id)
        seen.add(item.id)
        items.append(item)
    return items


def save_items(items: Iterable[ReadingItem], path: str | Path) -> None:
    """Write items as JSONL (atomic); load_items(save_items(x)) == x field-by-field."""
    write_jsonl(path, (item.to_dict() for item in items))


def _parse_taxonomy(data: Any) -> TopicTaxonomy:
    try:
        categories = []
        for cat in data["categories"]:
            categories.append(
                Category(
                    number=int(cat["number"]),
                    label=cat["label"],
                    subcategories=tuple(
                        Subcategory(code=sub["code"], description=sub["description"])
                        for sub in cat["subcategories"]
                    ),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTaxonomyError(f"bad taxonomy structure: {exc}") from exc
    return TopicTaxonomy(categories)


def load_taxonomy(path: str | Path | None = None) -> TopicTaxonomy:
    """Load a topic taxonomy; without a path, the bundled default is used.

    The bundled default must carry exactly 9 categories and 33 subcategories;
    user-supplied files only warn on a count mismatch.
    """
    data = read_json(_bundled("taxonomy.json") if path is None else path, "taxonomy file")
    taxonomy = _parse_taxonomy(data)
    if (
        taxonomy.category_count != DEFAULT_CATEGORY_COUNT
        or taxonomy.subcategory_count != DEFAULT_SUBCATEGORY_COUNT
    ):
        if path is None:
            raise MalformedTaxonomyError(
                "bundled taxonomy is corrupt: "
                f"{taxonomy.category_count} categories / {taxonomy.subcategory_count} subcategories"
            )
        warnings.warn(
            CountMismatchWarning(
                f"taxonomy has {taxonomy.category_count} categories and "
                f"{taxonomy.subcategory_count} subcategories "
                f"(bundled default: {DEFAULT_CATEGORY_COUNT}/{DEFAULT_SUBCATEGORY_COUNT})",
                found_categories=taxonomy.category_count,
                found_subcategories=taxonomy.subcategory_count,
            )
        )
    return taxonomy


def _parse_tagset(data: Any) -> TagSet:
    try:
        tags = tuple(Tag(id=t["id"], description=t["description"]) for t in data["tags"])
    except (KeyError, TypeError) as exc:
        raise MalformedTagSetError(f"bad tag set structure: {exc}") from exc
    return TagSet(tags)


def load_tagset(path: str | Path | None = None) -> TagSet:
    """Load a tag set; without a path, the bundled 41-tag default is used."""
    data = read_json(_bundled("tagset.json") if path is None else path, "tag set file")
    tagset = _parse_tagset(data)
    if len(tagset) != DEFAULT_TAG_COUNT:
        if path is None:
            raise MalformedTagSetError(f"bundled tag set is corrupt: {len(tagset)} tags")
        warnings.warn(
            CountMismatchWarning(
                f"tag set has {len(tagset)} tags (bundled default: {DEFAULT_TAG_COUNT})"
            )
        )
    return tagset


def load_profiles(path: str | Path, taxonomy: TopicTaxonomy) -> list[InterestProfile]:
    """Load interest profiles and check every referenced code against the taxonomy.

    The Likert map must cover every taxonomy subcategory.
    """
    raw = read_json(path, "profiles file")
    if isinstance(raw, Mapping):
        raw = [raw]
    if not isinstance(raw, list):
        raise MalformedProfileError("profiles file must hold a JSON array of profiles")
    profiles = []
    for entry in raw:
        try:
            profile = InterestProfile(
                student_id=entry["student_id"],
                likert={code: value for code, value in entry["likert"].items()},
                top_interests=tuple(entry["top_interests"]),
                least_interests=frozenset(entry.get("least_interests", [])),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedProfileError(f"bad profile entry: {exc}") from exc
        for code in profile.likert:
            if code not in taxonomy:
                raise UnknownTopicError(code, f"likert map of {profile.student_id}")
        missing = set(taxonomy.codes()) - set(profile.likert)
        if missing:
            raise MalformedProfileError(
                f"profile {profile.student_id} is missing likert ratings for "
                f"{len(missing)} codes (e.g. {sorted(missing)[0]})"
            )
        for code in list(profile.top_interests) + sorted(profile.least_interests):
            if code not in taxonomy:
                raise UnknownTopicError(code, f"interests of {profile.student_id}")
        profiles.append(profile)
    return profiles
