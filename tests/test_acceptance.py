"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    FIXTURE_TAGS,
    build_mock_script,
    make_item,
    mock_gateway,
    tagged_reply,
)
from test_stats import (
    experiment_fixture,
    oracle_mannwhitney,
    oracle_min_gap,
    oracle_wilcoxon,
)
from transcreate import cli
from transcreate.corpus import ReadingItem, save_items
from transcreate.pipeline import (
    RoundTripViolationError,
    TagInsertion,
    TaggedPassage,
    TranscreationPipeline,
    strip_tags,
)
from transcreate.stats import (
    balanced_split,
    experiment_report,
    mann_whitney_u,
    score_test,
    wilcoxon_signed_rank,
)
from transcreate.textmetrics import (
    count_syllables,
    passage_report,
    syllable_reference,
    tokenize_words,
)
from transcreate.validation import (
    ReviewDecision,
    ReviewQueue,
    cohen_kappa,
    qa_report,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion {number:2d}: PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"


def test_01_fres_golden_values():
    with criterion(1, "FRES golden values and formula constants", 1.0):
        report = passage_report("The cat sat.")
        assert report.fres == pytest.approx(119.19, abs=1e-6)
        # degenerate case: every word has one syllable, so FRES reduces to
        # 206.835 - 1.015 * (words/sentences) - 84.6
        text = "The cat sat on the mat. The dog ran fast."
        degenerate = passage_report(text)
        words = tokenize_words(text)
        assert all(count_syllables(w) == 1 for w in words)
        expected = 206.835 - 1.015 * (len(words) / 2) - 84.6
        assert degenerate.fres == pytest.approx(expected, abs=1e-9)


def test_02_ttr_exactness_and_bounds():
    with criterion(2, "TTR exact on 20 constructed strings; bounds fuzzed x1000", 1.0):
        constructed = [
            ["a"],
            ["a", "a"],
            ["a", "b"],
            ["a", "a", "b"],
            ["a", "b", "c", "d"],
            ["cat", "cat", "cat", "cat"],
            ["cat", "dog", "cat", "dog"],
            ["one", "two", "three", "two", "one"],
            ["x"] * 10,
            ["x", "y"] * 5,
            ["red", "red", "blue"],
            ["alpha", "beta", "gamma", "alpha"],
            ["sun", "moon"],
            ["sun", "sun", "sun", "moon", "moon", "star"],
            ["a", "b", "a", "b", "a", "c"],
            ["word"] * 3 + ["other"],
            ["p", "q", "r", "s", "t", "p"],
            ["long", "short", "long", "short", "long"],
            ["one"],
            ["repeat"] * 7 + ["unique"],
        ]
        rng = random.Random(17)
        for tokens in constructed:
            expected = len(set(tokens)) / len(tokens)
            # scatter capitalization: TTR case-folds
            text = " ".join(
                token.upper() if rng.random() < 0.5 else token for token in tokens
            )
            assert passage_report(text + ".").ttr == pytest.approx(expected, abs=0)
        vocab = ["kite", "wind", "sky", "cloud", "string", "run", "park", "high"]
        for _ in range(1000):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            ttr = passage_report(" ".join(tokens) + ".").ttr
            assert 0 < ttr <= 1.0


def test_03_syllable_reference_list():
    with criterion(3, "syllable heuristic matches >= 45/50 hand labels", 1.0):
        reference = syllable_reference()
        assert len(reference) == 50
        agree = sum(1 for word, n in reference.items() if count_syllables(word) == n)
        assert agree >= 45


def test_04_tag_round_trip_and_mutation_rejection(taxonomy, tagset):
    with criterion(4, "1000 tag round trips; 100% of mutated replies rejected", 5.0):
        rng = random.Random(2025)
        tag_pool = list(tagset.ids())
        words = ["river", "slow", "boat", "drifts", "past", "green", "hills", "today"]
        for _ in range(1000):
            sentences = []
            for _ in range(rng.randint(1, 6)):
                body = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
                sentences.append(body.capitalize() + rng.choice(".!?"))
            original = " ".join(sentences)
            ends = []
            cursor = 0
            for sentence in sentences:
                cursor += len(sentence)
                ends.append(cursor)
                cursor += 1
            insertions = tuple(
                sorted(
                    (
                        TagInsertion(rng.choice(tag_pool), rng.choice(ends))
                        for _ in range(rng.randint(0, 5))
                    ),
                    key=lambda ins: ins.position,
                )
            )
            tagged = TaggedPassage(original, insertions)
            assert strip_tags(tagged.render()) == original

        # mutated (paraphrased) replies must all be rejected by the pipeline
        rejected = 0
        trials = 100
        for i in range(trials):
            item = make_item(f"m{i}", "The boat drifts past. Green hills rise today.")
            reply = tagged_reply(item.passage, [rng.choice(tag_pool)])
            mutated = reply.replace("hills", "mountains")
            assert mutated != reply
            pipe = TranscreationPipeline(
                mock_gateway({"tag_features": [mutated]}),
                taxonomy,
                tagset,
                retry_budget=0,
            )
            try:
                pipe.tag_features(item)
            except RoundTripViolationError:
                rejected += 1
        assert rejected == trials


def test_05_wilcoxon_exact_vs_oracle():
    with criterion(5, "Wilcoxon exact p == enumeration oracle (200 samples)", 10.0):
        known = wilcoxon_signed_rank([1, 2, 3], [0, 0, 0], sides="one")
        assert known.p_value == pytest.approx(0.125, abs=1e-15)
        rng = random.Random(6001)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 10)
            if rng.random() < 0.3:  # mix in tie-prone integer data
                x = [float(rng.randint(0, 5)) for _ in range(n)]
                y = [float(rng.randint(0, 5)) for _ in range(n)]
            else:
                x = [round(rng.uniform(0, 30), 2) for _ in range(n)]
                y = [round(rng.uniform(0, 30), 2) for _ in range(n)]
            if all(a == b for a, b in zip(x, y)):
                continue
            sides = "one" if checked % 2 else "two"
            mine = wilcoxon_signed_rank(x, y, sides=sides)
            assert mine.method == "exact"
            w_oracle, p_oracle = oracle_wilcoxon(x, y, sides=sides)
            assert mine.statistic == pytest.approx(w_oracle, abs=1e-12)
            assert mine.p_value == pytest.approx(p_oracle, abs=1e-12)
            checked += 1


def test_06_mannwhitney_exact_vs_oracle():
    with criterion(6, "Mann-Whitney exact p == enumeration oracle (200 samples)", 30.0):
        known = mann_whitney_u([1, 2], [3, 4], sides="one")
        assert known.p_value == pytest.approx(1 / 6, abs=1e-15)
        rng = random.Random(6002)
        for trial in range(200):
            n = rng.randint(1, 8)
            if rng.random() < 0.3:
                a = [float(rng.randint(0, 4)) for _ in range(n)]
                b = [float(rng.randint(0, 4)) for _ in range(n)]
            else:
                a = [round(rng.uniform(0, 30), 2) for _ in range(n)]
                b = [round(rng.uniform(0, 30), 2) for _ in range(n)]
            sides = "one" if trial % 2 else "two"
            mine = mann_whitney_u(a, b, sides=sides)
            assert mine.method == "exact"
            u_oracle, p_oracle = oracle_mannwhitney(a, b, sides=sides)
            assert mine.statistic == pytest.approx(u_oracle, abs=1e-12)
            assert mine.p_value == pytest.approx(p_oracle, abs=1e-12)


def test_07_cohen_kappa_constructed_matrices():
    with criterion(7, "Cohen's kappa matches 10 hand-computed matrices", 1.0):
        def pad(rows):
            grid = [[0] * 6 for _ in range(6)]
            for i, row in enumerate(rows):
                for j, value in enumerate(row):
                    grid[i][j] = value
            return grid

        # (matrix, expected kappa); None means undefined (expected agreement 1)
        cases = [
            (pad([[5, 0], [0, 5]]), 1.0),  # diagonal, 2 labels
            (pad([[10]]), None),  # single cell: p_e = 1
            (pad([[1, 1], [0, 2]]), 0.5),  # p_o .75, p_e .5
            (pad([[4, 1], [4, 1]]), 0.0),  # independent marginals
            (pad([[0, 5], [5, 0]]), -1.0),  # total disagreement, symmetric
            (pad([[3, 0, 0], [0, 3, 0], [0, 0, 4]]), 1.0),  # diagonal, 3 labels
            (pad([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), 13 / 33),  # p_o .6, p_e .34
            # six-label case: diag of 2s plus 6 in cell (0,1):
            # p_o = 12/18, p_e = (8*2 + 2*8 + 4*4)/324 = 4/27, kappa = 14/23
            (
                [
                    [2, 6, 0, 0, 0, 0],
                    [0, 2, 0, 0, 0, 0],
                    [0, 0, 2, 0, 0, 0],
                    [0, 0, 0, 2, 0, 0],
                    [0, 0, 0, 0, 2, 0],
                    [0, 0, 0, 0, 0, 2],
                ],
                14 / 23,
            ),
            (pad([[1, 3], [3, 1]]), -0.5),  # p_o .25, p_e .5
            (pad([[5, 1], [2, 2]]), 8 / 23),  # p_o .7, p_e .54
        ]
        assert len(cases) == 10
        for matrix, expected in cases:
            result = cohen_kappa(matrix)
            if expected is None:
                assert result is None
            else:
                assert result == pytest.approx(expected, abs=1e-12)


def test_08_balanced_split_vs_brute_force():
    with criterion(8, "balanced_split == exact subset-sum oracle at k=10, 25 instances", 60.0):
        rng = random.Random(6003)
        for _ in range(25):
            scores = [round(rng.uniform(60, 115), 2) for _ in range(20)]
            students = [(f"s{i:02}", score) for i, score in enumerate(scores)]
            result = balanced_split(students, 10)
            assert result.mean_gap == pytest.approx(oracle_min_gap(scores, 10), abs=1e-12)


def test_09_end_to_end_mock_run(taxonomy, tagset, fixture_items, fixture_profile):
    with criterion(9, "mock run: 4 items x 5 questions; perfect sheet scores 100", 5.0):
        script = build_mock_script(fixture_items)
        pipe = TranscreationPipeline(mock_gateway(script), taxonomy, tagset)
        records = []
        for item, topic in zip(fixture_items, fixture_profile.top_interests):
            records.append(
                pipe.transcreate_item(
                    item, topic,
                    student_id=fixture_profile.student_id, assignment_mode="interest",
                )
            )
        assert len(records) == 4
        assert all(record.status.is_complete for record in records)
        for record, item in zip(records, fixture_items):
            assert len(record.transcreated_questions) == len(item.questions) == 5
            assert [q.bloom for q in record.transcreated_questions] == list(
                record.question_blooms
            )
        key = [
            ReadingItem(
                id=record.record_id,
                passage=record.transcreated_passage,
                questions=record.transcreated_questions,
            )
            for record in records
        ]
        perfect = [q.answer_index for item in key for q in item.questions]
        assert score_test(perfect, key).score == 100


def test_10_qa_report_rounding(tmp_path):
    with criterion(10, "QA report renders 1 flagged of 36 as '2.8%'", 1.0):
        from test_validation import complete_record

        records = [complete_record(f"r{i}", n_questions=6) for i in range(1, 7)]
        queue = ReviewQueue.open_new(records, tmp_path / "qa-acceptance.json")
        ids = sorted(queue.entries)
        queue.apply(
            ReviewDecision(
                item_id=ids[0], verdict="accept", reviewer_id="ex",
                timestamp="2025-02-10T00:00:00+00:00", unanswerable_questions=(0,),
            )
        )
        for record_id in ids[1:]:
            queue.apply(
                ReviewDecision(
                    item_id=record_id, verdict="accept", reviewer_id="ex",
                    timestamp="2025-02-10T00:00:00+00:00",
                )
            )
        report = qa_report(queue)
        assert report.total_questions == 36
        assert report.rendered_rate() == "2.8%"


def test_11_cli_mock_determinism(tmp_path, fixture_items, fixture_profile):
    with criterion(11, "two transcreate --mock runs are byte-identical", 5.0):
        items_path = tmp_path / "items.jsonl"
        save_items(fixture_items, items_path)
        profiles_path = tmp_path / "profiles.json"
        profiles_path.write_text(
            json.dumps(
                [
                    {
                        "student_id": fixture_profile.student_id,
                        "likert": dict(fixture_profile.likert),
                        "top_interests": list(fixture_profile.top_interests),
                    }
                ]
            ),
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(build_mock_script(fixture_items)), encoding="utf-8")
        outputs = []
        for name in ("first.jsonl", "second.jsonl"):
            code = cli.main(
                [
                    "transcreate",
                    "--in", str(items_path),
                    "--profiles", str(profiles_path),
                    "--mode", "interest",
                    "--out", str(tmp_path / name),
                    "--mock", str(script_path),
                ]
            )
            assert code == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]


def test_12_synthetic_experiment_flags():
    with criterion(12, "synthetic 2x10 fixture: B significant at 0.01, A not", 5.0):
        records, keys = experiment_fixture()
        report = experiment_report(records, keys, alpha=0.01)
        group_b = report["groups"]["B"]["score_delta"]
        group_a = report["groups"]["A"]["score_delta"]
        assert group_b["wilcoxon"]["method"] == "exact"
        assert group_b["significant"] is True
        assert group_b["wilcoxon"]["p_value"] < 0.01
        assert group_a["significant"] is False
        assert group_a["wilcoxon"]["p_value"] == 1.0
