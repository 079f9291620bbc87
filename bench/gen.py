"""Seeded input generator for the benchmark workloads.

Every input file the program reads is derived from the workload seed, and
the outputs the program should produce from them are kept beside the inputs
(in memory), so the checks never consult the program under test.

Items carry unique markers so a reply can be matched to its item by content:
``zq0007p`` sits in item 7's passage, ``zq0007q2`` in the stem of its third
question, ``zq0007r`` in every rewrite of its passage and ``zq0007s2`` in the
rewrite of its third question.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BLOOMS = ("Remember", "Understand", "Apply", "Analyze", "Evaluate", "Create")
SUBSCALES = ("Attention", "Relevance", "Confidence", "Satisfaction")
QUESTIONS_PER_ITEM = 5

# Plain words only: no abbreviation the sentence splitter guards (mr, dr,
# st, etc, ...), no digits, so word and sentence counts are known exactly.
WORDS = """
the a one every many some our their this that these those people family friends
student students teacher teachers children parents town city village school garden
market river bridge station library museum park forest island harbor kitchen
morning evening summer winter weekend holiday festival journey project lesson
game team club song story picture letter message window road path field farm
walked visited cooked painted planted carried opened closed found built watched
helped called shared learned taught answered asked noticed remembered decided
began finished moved stayed waited worked played traveled listened laughed
quickly slowly carefully happily quietly early late often always never sometimes
together nearby outside inside again already still almost really
big small old new bright dark warm cold busy calm happy proud tired curious
green blue golden wooden heavy light long short quiet noisy friendly gentle
and but because while after before when during near behind across through with
for from into over under about around between without
don't it's they're wasn't couldn't
""".split()

# Words that carry the rewrite into a new topic; any plain word would do.
THEME_WORDS = """
robots comics tennis music cooking travel painting science football chess
gardening photography dancing swimming cycling movies history astronomy
""".split()


def marker(index: int, kind: str, question: int | None = None) -> str:
    """The content marker of item ``index``: kind p, q, r or s."""
    tail = "" if question is None else str(question)
    return f"zq{index:04d}{kind}{tail}"


def _sentence(rng: random.Random, n_words: int, vocab: list[str],
              inject: str | None = None, terminal: str | None = None) -> str:
    words = [rng.choice(vocab) for _ in range(n_words)]
    if inject is not None:
        words[rng.randrange(1, n_words)] = inject
    words[0] = words[0][0].upper() + words[0][1:]
    if n_words >= 8 and rng.random() < 0.3:
        words[n_words // 2] += ","
    return " ".join(words) + (terminal or rng.choice(".......?!"))


def _join_tagged(sentences: list[str], tags: list[tuple[int, str]]) -> str:
    by_sentence = dict(tags)
    return " ".join(
        s + (f"[[T:{by_sentence[i]}]]" if i in by_sentence else "")
        for i, s in enumerate(sentences)
    )


def _distinct_options(rng: random.Random, vocab: list[str]) -> list[str]:
    options: list[str] = []
    while len(options) < 4:
        option = f"{rng.choice(vocab)} {rng.choice(vocab)} {rng.choice(vocab)}"
        if option not in options:
            options.append(option)
    return options


@dataclass
class GenItem:
    """One generated reading item plus the replies a faithful LLM would give."""

    index: int
    id: str
    sentences: list[str]
    topic: str
    blooms: list[str]
    tags: list[tuple[int, str]]  # (sentence index, tag id)
    questions: list[dict[str, Any]]
    seed: int

    @property
    def passage(self) -> str:
        return " ".join(self.sentences)

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.id, "passage": self.passage, "questions": self.questions,
                "source_topic": self.topic}

    def tagged(self) -> str:
        """The valid step-3 reply: the passage with its tag tokens."""
        return _join_tagged(self.sentences, self.tags)

    def broken_tagged(self) -> str:
        """A step-3 reply that does not round-trip: one word added."""
        sentences = list(self.sentences)
        sentences[1] = sentences[1][:-1] + " really" + sentences[1][-1]
        return _join_tagged(sentences, self.tags)

    def _rewrite_sentences(self, variant: str) -> list[str]:
        rng = random.Random(f"{self.seed}:{self.id}:rewrite:{variant}")
        vocab = WORDS + THEME_WORDS
        out = []
        for i, source in enumerate(self.sentences):
            n = len(source.split())
            out.append(_sentence(rng, n, vocab, marker(self.index, "r") if i == 0 else None,
                                 terminal=source[-1]))
        return out

    def rewrite(self, variant: str) -> str:
        """The valid step-4 reply for one target (same words per sentence, same tags)."""
        return _join_tagged(self._rewrite_sentences(variant), self.tags)

    def rewrite_passage(self, variant: str) -> str:
        """The passage the program should store for that reply: tags removed."""
        return " ".join(self._rewrite_sentences(variant))

    def rewrite_wrong_tags(self, variant: str) -> str:
        """A step-4 reply whose tag multiset differs from the source's."""
        return _join_tagged(self._rewrite_sentences(variant), self.tags[:-1])

    def rewrite_too_short(self, variant: str) -> str:
        """A step-4 reply with every tag but only the tagged sentences."""
        sentences = self._rewrite_sentences(variant)
        keep = sorted(i for i, _ in self.tags)
        return " ".join(
            sentences[i] + f"[[T:{dict(self.tags)[i]}]]" for i in keep
        )

    def new_questions(self, variant: str) -> list[dict[str, Any]]:
        """The questions the program should store after a valid step-5 reply."""
        rng = random.Random(f"{self.seed}:{self.id}:questions:{variant}")
        vocab = WORDS + THEME_WORDS
        out = []
        for j in range(len(self.questions)):
            stem = (f"According to the passage, what is true of {marker(self.index, 's', j)} "
                    f"and the {rng.choice(THEME_WORDS)}?")
            out.append({"stem": stem, "options": _distinct_options(rng, vocab),
                        "answer_index": rng.randrange(4), "bloom": self.blooms[j]})
        return out

    def questions_reply(self, variant: str) -> str:
        """The valid step-5 reply: a JSON array of rewritten questions."""
        return json.dumps([
            {"stem": q["stem"], "options": q["options"], "answer": "ABCD"[q["answer_index"]]}
            for q in self.new_questions(variant)
        ])


# Words per sentence, shuffled per item or passage: every seed gets the same
# amount of text, so seeds differ in content but not in work.
ITEM_SENTENCE_WORDS = (12, 13, 14, 15, 15, 16, 16, 17, 18, 18, 19, 20)  # 193 words
CORPUS_SENTENCE_WORDS = (8, 9, 10, 11, 12, 13, 14, 14, 15, 16, 16, 17, 17, 18, 19, 20,
                         21, 22, 14, 13, 12)  # 311 words


def make_items(seed: int, count: int, topics: list[str], tags: list[str],
               prefix: str = "it") -> list[GenItem]:
    """Reading items of 193 words, 12 sentences and 5 questions each."""
    rng = random.Random(f"{seed}:items:{prefix}")
    items = []
    for index in range(count):
        lengths = list(ITEM_SENTENCE_WORDS)
        rng.shuffle(lengths)
        sentences = [
            _sentence(rng, n, WORDS, marker(index, "p") if i == 0 else None)
            for i, n in enumerate(lengths)
        ]
        support = sorted(rng.sample(range(8), 3))
        questions = []
        for j in range(QUESTIONS_PER_ITEM):
            questions.append({
                "stem": f"What does the passage say about {marker(index, 'q', j)} "
                        f"and the {rng.choice(WORDS)}?",
                "options": _distinct_options(rng, WORDS),
                "answer_index": rng.randrange(4),
            })
        items.append(GenItem(
            index=index,
            id=f"{prefix}{index:04d}",
            sentences=sentences,
            topic=rng.choice(topics),
            blooms=[rng.choice(BLOOMS) for _ in range(QUESTIONS_PER_ITEM)],
            tags=[(i, rng.choice(tags)) for i in support],
            questions=questions,
            seed=seed,
        ))
    return items


def make_profiles(seed: int, count: int, topics: list[str]) -> list[dict[str, Any]]:
    rng = random.Random(f"{seed}:profiles")
    profiles = []
    for n in range(count):
        chosen = rng.sample(topics, 6)
        profiles.append({
            "student_id": f"s{n + 1:02d}",
            "likert": {code: rng.randint(1, 7) for code in topics},
            "top_interests": chosen[:4],
            "least_interests": chosen[4:],
        })
    return profiles


def _pick(rng: random.Random, population: int, share: float) -> set[int]:
    """Exactly ``share`` of the population (at least one), chosen by the seed."""
    if population == 0:
        return set()
    count = min(population, max(1, round(share * population)))
    return set(rng.sample(range(population), count))


@dataclass
class ExpectedRecord:
    record_id: str
    item: GenItem
    target: str
    failed_step: int | None = None  # None: the record must be complete

    @property
    def passage(self) -> str:
        return self.item.rewrite_passage(self.target)

    @property
    def questions(self) -> list[dict[str, Any]]:
        return self.item.new_questions(self.target)


@dataclass
class CohortPlan:
    """Mock scripts for a cohort run plus everything the checks expect."""

    transcreate_script: dict[str, list[Any]]
    judge_script: dict[str, list[Any]]
    records: list[ExpectedRecord]
    judged: list[tuple[str, int, str, str]]  # record id, question, source, judged level
    step_calls: dict[str, int] = field(default_factory=dict)  # gateway calls per step
    timeouts: int = 0

    def confusion(self) -> list[list[int]]:
        counts = [[0] * len(BLOOMS) for _ in BLOOMS]
        for _, _, source, judged in self.judged:
            counts[BLOOMS.index(source)][BLOOMS.index(judged)] += 1
        return counts


# Contract violations in the cohort scripts. Each is followed by the valid
# reply, so every one recovers within the default retry budget; see
# BENCHMARK.json for why the cohort has no terminal failures.
SHARE_STEP3_BREAK = 0.20  # of items; the same items break for every student
SHARE_STEP4_BREAK = 0.10  # of records; alternately tag multiset and length
SHARE_STEP5_BREAK = 0.05  # of records; truncated JSON
SHARE_JUDGE_BAD_LABEL = 0.04  # of judged questions
SHARE_JUDGE_MISMATCH = 0.15  # of judged questions; judged one level higher
SHARE_TIMEOUT = 0.02  # of all calls; one scripted timeout before the reply


def plan_cohort(seed: int, items: list[GenItem], profiles: list[dict[str, Any]]) -> CohortPlan:
    """FIFO scripts for ``transcreate --mode interest`` then ``judge`` over its records.

    The CLI runs mock scripts in work order: student by student, item by item.
    """
    rng = random.Random(f"{seed}:cohort-plan")
    records = [
        ExpectedRecord(f"{item.id}:{p['student_id']}", item,
                       p["top_interests"][k % len(p["top_interests"])])
        for p in profiles for k, item in enumerate(items)
    ]
    step3_break = _pick(rng, len(items), SHARE_STEP3_BREAK)
    step4_break = sorted(_pick(rng, len(records), SHARE_STEP4_BREAK))
    tag_break = set(step4_break[0::2])
    step5_break = _pick(rng, len(records), SHARE_STEP5_BREAK)

    calls: list[tuple[str, str]] = []
    for n, rec in enumerate(records):
        item = rec.item
        calls.append(("extract_topic", item.topic))
        calls.extend(("classify_question", bloom) for bloom in item.blooms)
        if item.index in step3_break:
            calls.append(("tag_features", item.broken_tagged()))
        calls.append(("tag_features", item.tagged()))
        if n in tag_break:
            calls.append(("transcreate_passage", item.rewrite_wrong_tags(rec.target)))
        elif n in step4_break:
            calls.append(("transcreate_passage", item.rewrite_too_short(rec.target)))
        calls.append(("transcreate_passage", item.rewrite(rec.target)))
        if n in step5_break:
            calls.append(("transcreate_questions", item.questions_reply(rec.target)[:-2]))
        calls.append(("transcreate_questions", item.questions_reply(rec.target)))

    judged = []
    for rec in records:
        for j, bloom in enumerate(rec.item.blooms):
            judged.append((rec.record_id, j, bloom, bloom))
    bad_label = _pick(rng, len(judged), SHARE_JUDGE_BAD_LABEL)
    for n in _pick(rng, len(judged), SHARE_JUDGE_MISMATCH):
        rid, j, source, _ = judged[n]
        judged[n] = (rid, j, source, BLOOMS[(BLOOMS.index(source) + 1) % len(BLOOMS)])
    for n, (_, _, _, level) in enumerate(judged):
        if n in bad_label:
            calls.append(("judge_bloom", "Comprehension"))
        calls.append(("judge_bloom", level))

    timeouts = _pick(rng, len(calls), SHARE_TIMEOUT)
    scripts: dict[str, list[Any]] = {}
    step_calls: dict[str, int] = {}
    for n, (step, reply) in enumerate(calls):
        queue = scripts.setdefault(step, [])
        if n in timeouts:
            queue.append({"error": "timeout"})
        queue.append(reply)
        step_calls[step] = step_calls.get(step, 0) + 1
    judge_script = {"judge_bloom": scripts.pop("judge_bloom")}
    return CohortPlan(scripts, judge_script, records, judged, step_calls, len(timeouts))


SHARE_DOOMED = 1 / 16  # of single-pass items; step 4 is violated on every attempt


def plan_single_pass(seed: int, items: list[GenItem], student_id: str
                     ) -> tuple[dict[str, Any], list[ExpectedRecord], int]:
    """The stub's reply source, the expected records and the calls the replies imply.

    Replies do not depend on the target topic, so random-mode targets need no
    lookup; the record's expected rewrite uses the empty variant.
    """
    rng = random.Random(f"{seed}:single-pass-plan")
    doomed = _pick(rng, len(items), SHARE_DOOMED)
    source: dict[str, Any] = {}
    expected = []
    calls = 0
    for item in items:
        is_doomed = item.index in doomed
        source[f"{item.index:04d}"] = {
            "topic": item.topic,
            "blooms": item.blooms,
            "tagged": item.tagged(),
            "passage": item.rewrite_wrong_tags("") if is_doomed else item.rewrite(""),
            "questions": item.questions_reply(""),
        }
        expected.append(ExpectedRecord(f"{item.id}:{student_id}", item, "",
                                       failed_step=4 if is_doomed else None))
        # step 1, one call per question, step 3, then step 4 (and 5)
        calls += 1 + len(item.blooms) + 1 + (4 if is_doomed else 2)
    return {"items": source}, expected, calls


# -- study analysis -----------------------------------------------------------


def make_key(seed: int, test_id: str, n_items: int = 4) -> list[dict[str, Any]]:
    """An answer key: items whose questions carry their cognitive level."""
    rng = random.Random(f"{seed}:key:{test_id}")
    key = []
    for i in range(n_items):
        sentences = [_sentence(rng, rng.randint(10, 16), WORDS) for _ in range(6)]
        questions = []
        for _ in range(QUESTIONS_PER_ITEM):
            questions.append({
                "stem": f"Which statement about the {rng.choice(WORDS)} is correct?",
                "options": _distinct_options(rng, WORDS),
                "answer_index": rng.randrange(4),
                "bloom": rng.choice(BLOOMS[:5]),
            })
        key.append({"id": f"{test_id}-k{i}", "passage": " ".join(sentences),
                    "questions": questions})
    return key


def make_cohort(seed: int, cohort: int, size: int,
                keys: dict[str, list[dict[str, Any]]]) -> list[dict[str, Any]]:
    """Student records with integer TOEFL scores, answers, times and IMMS ratings."""
    rng = random.Random(f"{seed}:cohort:{cohort}")
    order = list(range(size))
    rng.shuffle(order)
    group_a = set(order[: size // 2])
    records = []
    for n in range(size):
        group = "A" if n in group_a else "B"
        ability = rng.uniform(0.35, 0.8)
        answers = {}
        for test_id in sorted(keys):
            gain = 0.08 if (group == "A" and test_id == max(keys)) else 0.0
            sheet = []
            for item in keys[test_id]:
                for q in item["questions"]:
                    right = rng.random() < ability + gain
                    sheet.append(q["answer_index"] if right
                                 else (q["answer_index"] + rng.randint(1, 3)) % 4)
            answers[test_id] = sheet
        records.append({
            "student_id": f"c{cohort}s{n + 1:02d}",
            "toefl": rng.randint(45, 110),
            "group": group,
            "test_answers": answers,
            "turnaround_minutes": {t: rng.randint(18, 40) for t in sorted(keys)},
            "imms": {
                t: [{"item_id": f"m{m}", "subscale": SUBSCALES[m % 4],
                     "response": rng.randint(1, 7)} for m in range(12)]
                for t in sorted(keys)
            },
        })
    return records


def make_corpus(seed: int, count: int) -> tuple[list[dict[str, Any]], dict[str, tuple[int, int]]]:
    """Passages of 311 words, with their exact word and sentence counts."""
    rng = random.Random(f"{seed}:corpus")
    items = []
    counts = {}
    for n in range(count):
        lengths = list(CORPUS_SENTENCE_WORDS)
        rng.shuffle(lengths)
        sentences = [_sentence(rng, size, WORDS) for size in lengths]
        words = sum(lengths)
        item_id = f"pa{n:04d}"
        items.append({
            "id": item_id,
            "passage": " ".join(sentences),
            "questions": [{"stem": "What is the passage mainly about?",
                           "options": _distinct_options(rng, WORDS), "answer_index": 0}],
        })
        counts[item_id] = (words, len(sentences))
    return items, counts


@dataclass
class ReviewStep:
    record_id: str
    verdict: str  # accept | edit | reject
    flags: tuple[int, ...]  # 0-based unanswerable question indices
    added_words: int = 0
    new_passage: str | None = None
    reason: str | None = None


def plan_review(seed: int, records: list[ExpectedRecord]) -> tuple[str, list[ReviewStep]]:
    """Scripted stdin for one review session that decides every entry."""
    rng = random.Random(f"{seed}:review")
    lines: list[str] = []
    steps = []
    for rec in records:
        roll = rng.random()
        flags: tuple[int, ...] = ()
        if rng.random() < 0.3:
            flags = tuple(sorted(rng.sample(range(QUESTIONS_PER_ITEM), rng.randint(1, 2))))
        if roll < 0.25:
            added = rng.randint(1, 9)
            extra = _sentence(rng, added, WORDS, terminal=".")
            new_passage = rec.passage + " " + extra
            lines += ["e", new_passage, "."]
            step = ReviewStep(rec.record_id, "edit", flags, added, new_passage=new_passage)
        elif roll < 0.4:
            reason = f"topic drift in {rng.choice(WORDS)} sentence"
            lines += ["r", reason]
            step = ReviewStep(rec.record_id, "reject", flags, reason=reason)
        else:
            lines.append("a")
            step = ReviewStep(rec.record_id, "accept", flags)
        lines.append(",".join(str(i + 1) for i in flags))
        steps.append(step)
    return "\n".join(lines) + "\n", steps


def write_json(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")


def write_jsonl(path: Path, rows: list[dict[str, Any]]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")
