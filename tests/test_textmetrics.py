"""Text measurement tests: tokens, sentences, syllables, TTR, FRES."""

from __future__ import annotations

import random

import pytest

from conftest import PASSAGES, reference_tokenize
from transcreate import textmetrics
from transcreate.textmetrics import (
    EmptyCorpusError,
    EmptyPassageError,
    PassageReport,
    corpus_summary,
    count_syllables,
    format_mean_std,
    passage_report,
    split_sentences,
    syllable_reference,
    tokenize_words,
)


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize_words("The cat, the dog.") == ["the", "cat", "the", "dog"]

    def test_apostrophe_kept(self):
        assert tokenize_words("Don't stop") == ["don't", "stop"]

    def test_empty(self):
        assert tokenize_words("") == []

    def test_case_folding(self):
        assert tokenize_words("Cat CAT cat") == ["cat", "cat", "cat"]

    def test_digits_included(self):
        assert tokenize_words("Room 101 beckons") == ["room", "101", "beckons"]

    def test_same_code_points_as_the_reference_pattern(self):
        # Every code point once, in order, so equal tokens mean the same
        # set of word characters and the same runs.
        every = "".join(map(chr, range(0x110000)))
        tokens = tokenize_words(every)
        assert tokens == reference_tokenize(every)
        assert "'" in tokens and "’" in tokens and "_" not in "".join(tokens)
        # Each code point between letters and next to ', ’, _ and whitespace,
        # 128 code points a text: the first text is ASCII, the others not.
        for start in range(0, 0x110000, 128):
            text = "".join(f"a{ch}b'{ch}’{ch}_{ch} " for ch in map(chr, range(start, start + 128)))
            assert tokenize_words(text) == reference_tokenize(text), hex(start)
        # Code points that casefold to ASCII (ß, ſ, K U+212A, ligatures), alone.
        folds_to_ascii = [ch for ch in map(chr, range(0x80, 0x110000)) if ch.casefold().isascii()]
        assert "ſ" in folds_to_ascii and "\u212a" in folds_to_ascii
        for ch in folds_to_ascii:
            text = f"a{ch}b'{ch}’{ch}_{ch} {ch}"
            assert tokenize_words(text) == reference_tokenize(text), hex(ord(ch))


class TestSplitSentences:
    def test_two_sentences(self):
        assert len(split_sentences("Hi. Bye.")) == 2

    def test_abbreviation_guard(self):
        # Hand segmentation: the honorific period does not end a sentence.
        assert len(split_sentences("Dr. Kim left.")) == 1

    def test_empty(self):
        assert split_sentences("") == []

    def test_unterminated_tail_counts(self):
        assert split_sentences("a a b b") == ["a a b b"]

    def test_partition_property(self):
        text = "Mr. Lee slept! Did he wake? He did.  "
        spans = split_sentences(text)
        assert "".join(spans) == text
        assert len(spans) == 3

    @pytest.mark.parametrize("guard", ["Mrs. Park stays", "e.g. this", "i.e. that", "etc. more"])
    def test_guard_list(self, guard):
        assert len(split_sentences(guard)) == 1

    def test_exclamation_and_question(self):
        assert len(split_sentences("Wow! Really? Yes.")) == 3


class TestSyllables:
    @pytest.mark.parametrize(
        "word,count",
        [
            ("cat", 1),  # hand count
            ("beautiful", 3),  # hand count, vowel-group rule
            ("", 0),
            ("table", 2),  # le after consonant keeps the final group
            ("whole", 1),  # le after vowel drops it
            ("make", 1),  # silent terminal e
            ("happy", 2),  # y as vowel
        ],
    )
    def test_known_words(self, word, count):
        assert count_syllables(word) == count

    def test_no_letters(self):
        assert count_syllables("1234") == 0

    def test_minimum_one_for_lettered_words(self):
        assert count_syllables("b") == 1

    def test_reference_list_agreement(self):
        reference = syllable_reference()
        assert len(reference) == 50
        agree = sum(1 for word, n in reference.items() if count_syllables(word) == n)
        assert agree >= 45  # 90% heuristic tolerance


class TestPassageReport:
    def test_golden_cat(self):
        report = passage_report("The cat sat.")
        assert report.word_count == 3
        assert report.sentence_count == 1
        assert report.syllable_count == 3
        assert report.ttr == 1.0
        # 206.835 - 1.015*3 - 84.6*1, evaluated by hand
        assert report.fres == pytest.approx(119.19, abs=1e-6)

    def test_ttr_half(self):
        assert passage_report("a a b b").ttr == 0.5

    def test_empty_raises(self):
        with pytest.raises(EmptyPassageError):
            passage_report("")

    def test_counts_consistent(self):
        text = "Reading helps people. People read daily!"
        report = passage_report(text)
        words = tokenize_words(text)
        assert report.word_count == len(words)
        assert report.syllable_count == sum(count_syllables(w) for w in words)

    def test_fres_repetition_invariant(self):
        # Same words-per-sentence and syllables-per-word => same FRES.
        base = "The hungry cat sat on a mat. It purred loudly."
        doubled = base + " " + base
        assert passage_report(doubled).fres == pytest.approx(
            passage_report(base).fres, abs=1e-9
        )

    def test_ttr_bounds_fuzzed(self):
        rng = random.Random(20240501)
        vocab = ["sun", "moon", "star", "sky", "cloud", "rain", "wind", "storm"]
        for _ in range(250):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 60))]
            report = passage_report(" ".join(words) + ".")
            assert 0 < report.ttr <= 1.0
            distinct = len(set(words)) == len(words)
            assert (report.ttr == 1.0) == distinct


# The earlier character-by-character sentence splitter and set-based report,
# kept as the reference for the one-pass versions.
def reference_split_sentences(text):
    if not text.strip():
        return []
    spans = []
    start = 0
    for idx, char in enumerate(text):
        if char in ".!?" and textmetrics._is_boundary(text, idx):
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


def reference_passage_report(text):
    words = reference_tokenize(text)
    sentences = reference_split_sentences(text)
    if not words or not sentences:
        raise EmptyPassageError("passage has no words")
    syllables = sum(count_syllables(word) for word in words)
    ttr = len(set(words)) / len(words)
    fres = (
        textmetrics.FRES_BASE
        - textmetrics.FRES_SENTENCE_WEIGHT * (len(words) / len(sentences))
        - textmetrics.FRES_SYLLABLE_WEIGHT * (syllables / len(words))
    )
    return PassageReport(
        word_count=len(words),
        sentence_count=len(sentences),
        syllable_count=syllables,
        ttr=ttr,
        fres=fres,
    )


ORACLE_PIECES = [
    "Dr.", "Mrs.", "mr.", "e.g.", "i.e.", "etc.", "U.S.", "vs.", "St.", "Prof.",
    "the", "cat", "table", "people", "whole", "happy", "rhythm", "sky",
    "don't", "it's", "o’clock", "'tis", "naïve", "café", "Straße", "ÉCOLE", "Ωmega",
    "東京", "١٢٣", "٣", "2024", "3.14", "10.", "x", "snake_case", "_x_", "\u212aelvin", "ſt.",
    ".", "!", "?", "?!", "!?", "...", "..", ".!", ",", ";", "—", "\"", "(a)", "A.",
]
ORACLE_GAPS = [" ", " ", " ", "  ", "\n", "\t", "\u00a0", "\u2003", ""]


def oracle_text(rng):
    out = [rng.choice(["", " ", "\n"])]
    for _ in range(rng.randint(0, 40)):
        out.append(rng.choice(ORACLE_PIECES))
        out.append(rng.choice(ORACLE_GAPS))
    return "".join(out)


def outcome(func, text):
    try:
        return func(text)
    except EmptyPassageError as exc:
        return ("EmptyPassageError", str(exc))


class TestReferenceOracle:
    """The one-pass splitter and report give exactly the earlier results."""

    CASES = [
        *PASSAGES.values(),
        "", " ", "\n\t \u00a0", "...", "?!", "Dr.", "Dr. Kim left.", "e.g. this. And that!  ",
        "Wait... what?! Yes. ", "No terminal", "One. Two.   \n", "٣ apples. ١٢٣ pears?",
    ]

    def test_fixed_cases(self):
        for text in self.CASES:
            assert split_sentences(text) == reference_split_sentences(text), text
            assert outcome(passage_report, text) == outcome(reference_passage_report, text), text

    def test_seeded_random_texts(self):
        rng = random.Random(5150)
        raised = 0
        for _ in range(3000):
            text = oracle_text(rng)
            assert split_sentences(text) == reference_split_sentences(text), repr(text)
            expected = outcome(reference_passage_report, text)
            assert outcome(passage_report, text) == expected, repr(text)
            raised += isinstance(expected, tuple)
        assert 0 < raised < 3000  # both the error and the report paths are covered


class TestCorpusSummary:
    def _report(self, wc, ttr, fres):
        return PassageReport(
            word_count=wc, sentence_count=1, syllable_count=wc, ttr=ttr, fres=fres
        )

    def test_single_report_zero_std(self):
        summary = corpus_summary([self._report(100, 0.5, 50.0)])
        assert summary.word_count.std == 0.0
        assert summary.ttr.std == 0.0
        assert summary.fres.std == 0.0
        assert summary.word_count.n == 1

    def test_two_word_counts(self):
        summary = corpus_summary(
            [self._report(300, 0.5, 50.0), self._report(500, 0.5, 50.0)]
        )
        assert summary.word_count.mean == pytest.approx(400.0)
        # sample std with n-1: sqrt(((300-400)^2 + (500-400)^2)/1) = 100*sqrt(2)
        assert summary.word_count.std == pytest.approx(141.42135623730951, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpusError):
            corpus_summary([])

    def test_rendered_style(self):
        summary = corpus_summary(
            [self._report(300, 0.52, 31.0), self._report(500, 0.66, 52.5)]
        )
        rendered = summary.rendered()
        assert rendered["word_count"] == "400 ± 141.42"
        assert rendered["ttr"] == "0.59 ± 0.1"

    def test_format_mean_std(self):
        assert format_mean_std(394.0, 78.35) == "394 ± 78.35"
        assert format_mean_std(0.59, 0.05) == "0.59 ± 0.05"
