"""Deterministic word, sentence, syllable, TTR, and reading-ease measurement.

All functions here are pure and safe for unlimited parallel invocation.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import string
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Any, Iterable, Sequence

from .errors import ValidationError

# Flesch Reading Ease constants.
FRES_BASE = 206.835
FRES_SENTENCE_WEIGHT = 1.015
FRES_SYLLABLE_WEIGHT = 84.6

VOWELS = frozenset("aeiouy")

# A word is a maximal run of Unicode letters, digits, ``'`` and ``’`` in the
# casefolded text; ``_`` and every other character split words.
# ASCII text: every character but a-z, 0-9 and ``'`` becomes a space.
_ASCII_WORD_TABLE = "".join(
    ch if ch in string.ascii_lowercase + string.digits + "'" else " "
    for ch in map(chr, range(128))
)
# Other text: ``\w`` is letters, digits and ``_``; underscores are blanked first.
_TOKEN_RE = re.compile(r"[\w'’]+")

_SENTENCE_TERMINAL_RE = re.compile(r"[.!?]")

# Tokens whose trailing period does not end a sentence.
ABBREVIATIONS = frozenset(
    ["mr", "mrs", "ms", "dr", "prof", "st", "jr", "sr", "vs", "etc", "e.g", "i.e", "eg", "ie"]
)


class EmptyPassageError(ValidationError):
    pass


class EmptyCorpusError(ValidationError):
    pass


def tokenize_words(text: str) -> list[str]:
    """Split text into case-folded word tokens; punctuation is excluded."""
    folded = text.casefold()
    if folded.isascii():
        return folded.translate(_ASCII_WORD_TABLE).split()
    return _TOKEN_RE.findall(folded.replace("_", " "))


def _is_boundary(text: str, idx: int) -> bool:
    """True if the terminal character at ``idx`` ends a sentence."""
    after = idx + 1
    if after < len(text) and not text[after].isspace():
        return False
    if text[idx] != ".":
        return True
    # Abbreviation guard: look back at the token (letters and internal
    # periods) immediately before this period.
    start = idx
    while start > 0 and (text[start - 1].isalpha() or text[start - 1] == "."):
        start -= 1
    token = text[start:idx].casefold().lstrip(".")
    return token not in ABBREVIATIONS


def split_sentences(text: str) -> list[str]:
    """Split text into sentence spans whose concatenation equals the input.

    A boundary falls after '.', '!', or '?' followed by whitespace or end of
    text, except after a guarded abbreviation. A trailing unterminated
    segment counts as a sentence when it contains anything but whitespace.
    """
    if not text.strip():
        return []
    spans: list[str] = []
    start = 0
    for match in _SENTENCE_TERMINAL_RE.finditer(text):
        idx = match.start()
        if _is_boundary(text, idx):
            spans.append(text[start : idx + 1])
            start = idx + 1
    if start < len(text):
        tail = text[start:]
        if tail.strip():
            spans.append(tail)
        elif spans:
            spans[-1] += tail
        else:
            spans.append(tail)
    return spans


@functools.lru_cache(maxsize=1 << 16)
def count_syllables(word: str) -> int:
    """Heuristic syllable count: vowel groups, minus a silent terminal 'e'.

    The final 'e' survives when the word ends in 'le' after a consonant
    (ta-ble, peo-ple). Any word containing a letter counts at least 1.
    Memoised: passages share most of their vocabulary.
    """
    w = word.casefold()
    if not any(ch.isalpha() for ch in w):
        return 0
    groups = 0
    in_group = False
    for ch in w:
        if ch in VOWELS:
            if not in_group:
                groups += 1
            in_group = True
        else:
            in_group = False
    if w.endswith("e"):
        keeps_le = (
            w.endswith("le")
            and len(w) >= 3
            and w[-3].isalpha()
            and w[-3] not in VOWELS
        )
        if not keeps_le:
            groups -= 1
    return max(groups, 1)


@dataclass(frozen=True)
class PassageReport:
    """Length, diversity, and readability measurements for one passage."""

    word_count: int
    sentence_count: int
    syllable_count: int
    ttr: float
    fres: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "word_count": self.word_count,
            "sentence_count": self.sentence_count,
            "syllable_count": self.syllable_count,
            "ttr": self.ttr,
            "fres": self.fres,
        }


def passage_report(text: str) -> PassageReport:
    """Measure one passage; raises EmptyPassageError without a word or sentence.

    FRES = 206.835 - 1.015 * (words/sentences) - 84.6 * (syllables/words),
    not clamped to [0, 100].
    """
    words = tokenize_words(text)
    sentences = split_sentences(text)
    if not words or not sentences:
        raise EmptyPassageError("passage has no words")
    counts = Counter(words)
    syllables = sum(n * count_syllables(word) for word, n in counts.items())
    ttr = len(counts) / len(words)
    fres = (
        FRES_BASE
        - FRES_SENTENCE_WEIGHT * (len(words) / len(sentences))
        - FRES_SYLLABLE_WEIGHT * (syllables / len(words))
    )
    return PassageReport(
        word_count=len(words),
        sentence_count=len(sentences),
        syllable_count=syllables,
        ttr=ttr,
        fres=fres,
    )


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    n: int

    def to_dict(self) -> dict[str, Any]:
        return {"mean": self.mean, "std": self.std, "n": self.n}

    def rendered(self) -> str:
        return format_mean_std(self.mean, self.std)


@dataclass(frozen=True)
class CorpusSummary:
    """Mean and sample std of word count, TTR, and FRES over a corpus."""

    word_count: MetricSummary
    ttr: MetricSummary
    fres: MetricSummary

    def to_dict(self) -> dict[str, Any]:
        return {
            "word_count": self.word_count.to_dict(),
            "ttr": self.ttr.to_dict(),
            "fres": self.fres.to_dict(),
        }

    def rendered(self) -> dict[str, str]:
        return {
            "word_count": self.word_count.rendered(),
            "ttr": self.ttr.rendered(),
            "fres": self.fres.rendered(),
        }


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator; 0.0 when n == 1)."""
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def format_mean_std(mean: float, std: float) -> str:
    """Render a 'mean ± std' string with up to two decimals, zeros trimmed."""

    def fmt(x: float) -> str:
        out = f"{x:.2f}".rstrip("0").rstrip(".")
        return out if out not in ("", "-0") else "0"

    return f"{fmt(mean)} ± {fmt(std)}"


def corpus_summary(reports: Iterable[PassageReport]) -> CorpusSummary:
    """Aggregate per-passage reports; raises EmptyCorpusError on an empty list."""
    reports = list(reports)
    if not reports:
        raise EmptyCorpusError("no passage reports to summarize")
    summaries = {}
    for metric in ("word_count", "ttr", "fres"):
        values = [float(getattr(report, metric)) for report in reports]
        mean, std = mean_std(values)
        summaries[metric] = MetricSummary(mean=mean, std=std, n=len(values))
    return CorpusSummary(**summaries)


def syllable_reference() -> dict[str, int]:
    """The bundled 50-word hand-labeled syllable list used for tolerance checks."""
    text = resources.files("transcreate").joinpath("data/syllable_labels.json").read_text("utf-8")
    return json.loads(text)
