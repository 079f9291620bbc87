"""Statistics tests: exact tests vs enumeration oracles, split, scoring, report."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from conftest import make_question
from transcreate import cli
from transcreate.corpus import BloomLevel, ReadingItem, save_items
from transcreate.stats import (
    IMMS_SUBSCALES,
    MANNWHITNEY_EXACT_LIMIT,
    WILCOXON_EXACT_LIMIT,
    AllZeroDifferencesError,
    ImmsResponse,
    InvalidArgumentError,
    LengthMismatchError,
    NoResponsesError,
    StudentRecord,
    TooLargeError,
    balanced_split,
    MalformedRecordError,
    experiment_report,
    likert_summary,
    load_student_records,
    mann_whitney_u,
    render_report_text,
    score_test,
    wilcoxon_signed_rank,
)

# -- independent enumeration oracles (brute force, no shared code) ----------------


def oracle_ranks(values):
    """Average ranks computed the slow way."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        # ranks occupied: less+1 .. less+equal, average them
        ranks.append(less + (equal + 1) / 2)
    return ranks


def oracle_wilcoxon(x, y, sides="two"):
    diffs = [a - b for a, b in zip(x, y) if a != b]
    ranks = oracle_ranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = sum(ranks)
    t_obs = min(w_plus, total - w_plus)
    count = 0
    patterns = 0
    for signs in itertools.product((1, -1), repeat=len(diffs)):
        patterns += 1
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        if w <= t_obs + 1e-9:
            count += 1
    p_one = count / patterns
    return t_obs, (p_one if sides == "one" else min(1.0, 2 * p_one))


def oracle_mannwhitney(a, b, sides="two"):
    n_a, n_b = len(a), len(b)
    pooled = list(a) + list(b)
    ranks = oracle_ranks(pooled)

    def u_of(indices):
        r_a = sum(ranks[i] for i in indices)
        return n_a * n_b + n_a * (n_a + 1) / 2 - r_a

    observed = u_of(range(n_a))
    u_min = min(observed, n_a * n_b - observed)
    count = 0
    labelings = 0
    for indices in itertools.combinations(range(n_a + n_b), n_a):
        labelings += 1
        if u_of(indices) <= u_min + 1e-9:
            count += 1
    p_one = count / labelings
    return u_min, (p_one if sides == "one" else min(1.0, 2 * p_one))


def dp_mannwhitney_p(a, b, sides="two"):
    """p by the 2-D list DP over (subset size, doubled rank sum) that the
    exact Mann-Whitney path used before its counts became packed integers."""
    n_a, n_b = len(a), len(b)
    ranks2 = [round(2 * r) for r in oracle_ranks(list(a) + list(b))]
    r2_a = sum(ranks2[:n_a])
    u2_a = 2 * n_a * n_b + n_a * (n_a + 1) - r2_a
    u2_min = min(u2_a, 2 * n_a * n_b - u2_a)
    max_sum = sum(ranks2)
    counts = [[0] * (max_sum + 1) for _ in range(n_a + 1)]
    counts[0][0] = 1
    for rank2 in ranks2:
        for chosen in range(n_a - 1, -1, -1):
            row, nxt = counts[chosen], counts[chosen + 1]
            for s in range(max_sum - rank2, -1, -1):
                if row[s]:
                    nxt[s + rank2] += row[s]
    threshold = 2 * n_a * n_b + n_a * (n_a + 1) - u2_min
    p_one = sum(counts[n_a][threshold:]) / math.comb(n_a + n_b, n_a)
    return p_one if sides == "one" else min(1.0, 2.0 * p_one)


class TestWilcoxon:
    def test_known_case(self):
        # diffs +1, +2, +3: only the all-positive pattern reaches W = 0
        result = wilcoxon_signed_rank([1, 2, 3], [0, 0, 0], sides="one")
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1 / 8, abs=1e-15)
        assert result.method == "exact"

    def test_all_zero_differences(self):
        with pytest.raises(AllZeroDifferencesError):
            wilcoxon_signed_rank([4, 4], [4, 4])

    def test_zeros_dropped(self):
        result = wilcoxon_signed_rank([1, 2, 5], [1, 0, 2], sides="one")
        assert result.n["zeros_dropped"] == 1
        assert result.n["nonzero"] == 2

    def test_matches_oracle_random(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 10)
            x = [round(rng.uniform(0, 20), 2) for _ in range(n)]
            y = [round(rng.uniform(0, 20), 2) for _ in range(n)]
            if all(a == b for a, b in zip(x, y)):
                continue
            for sides in ("one", "two"):
                mine = wilcoxon_signed_rank(x, y, sides=sides)
                w_oracle, p_oracle = oracle_wilcoxon(x, y, sides=sides)
                assert mine.statistic == pytest.approx(w_oracle, abs=1e-12)
                assert mine.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_matches_oracle_with_ties(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 9)
            x = [rng.randint(0, 4) for _ in range(n)]
            y = [rng.randint(0, 4) for _ in range(n)]
            if all(a == b for a, b in zip(x, y)):
                continue
            mine = wilcoxon_signed_rank(x, y, sides="two")
            _, p_oracle = oracle_wilcoxon(x, y, sides="two")
            assert mine.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_matches_scipy_exact(self):
        from scipy import stats as scipy_stats

        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(3, 10)
            x = [round(rng.uniform(0, 50), 3) for _ in range(n)]
            y = [round(rng.uniform(0, 50), 3) for _ in range(n)]
            mine = wilcoxon_signed_rank(x, y, sides="two")
            theirs = scipy_stats.wilcoxon(x, y, alternative="two-sided", method="exact")
            assert mine.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_monotone_transform_invariance(self):
        x = [3.0, 9.0, 4.5, 1.0, 7.0, 2.5]
        y = [2.0, 8.0, 6.0, 4.0, 7.5, 2.0]
        base = wilcoxon_signed_rank(x, y, sides="two")
        mapped = wilcoxon_signed_rank(
            [2 * v + 7 for v in x], [2 * v + 7 for v in y], sides="two"
        )
        assert mapped.statistic == base.statistic
        assert mapped.p_value == base.p_value

    def test_exact_to_limit_matches_scipy(self):
        from scipy import stats as scipy_stats

        rng = random.Random(41)
        for n in range(21, WILCOXON_EXACT_LIMIT + 1):
            x = [round(rng.uniform(0, 50), 3) for _ in range(n)]
            y = [round(rng.uniform(0, 50), 3) for _ in range(n)]
            mine = wilcoxon_signed_rank(x, y, sides="two")
            theirs = scipy_stats.wilcoxon(x, y, alternative="two-sided", method="exact")
            assert mine.method == "exact"
            assert mine.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_normal_approx_beyond_limit(self):
        rng = random.Random(9)
        x = [rng.uniform(0, 10) + 1.5 for _ in range(WILCOXON_EXACT_LIMIT + 1)]
        y = [rng.uniform(0, 10) for _ in range(WILCOXON_EXACT_LIMIT + 1)]
        result = wilcoxon_signed_rank(x, y, sides="two")
        assert result.method == "normal-approx"
        assert 0 < result.p_value <= 1

    def test_two_sided_is_capped_double(self):
        x = [5, 1, 8, 2]
        y = [4, 2, 7, 3]
        one = wilcoxon_signed_rank(x, y, sides="one")
        two = wilcoxon_signed_rank(x, y, sides="two")
        assert two.p_value == pytest.approx(min(1.0, 2 * one.p_value))


class TestMannWhitney:
    def test_known_case(self):
        result = mann_whitney_u([1, 2], [3, 4], sides="one")
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1 / 6, abs=1e-15)
        assert result.method == "exact"

    def test_identical_multisets_two_sided_one(self):
        result = mann_whitney_u([3, 1, 2], [1, 2, 3], sides="two")
        assert result.method == "exact"
        assert result.p_value == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_matches_oracle_random(self):
        rng = random.Random(4321)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            a = [round(rng.uniform(0, 20), 2) for _ in range(n)]
            b = [round(rng.uniform(0, 20), 2) for _ in range(m)]
            for sides in ("one", "two"):
                mine = mann_whitney_u(a, b, sides=sides)
                u_oracle, p_oracle = oracle_mannwhitney(a, b, sides=sides)
                assert mine.statistic == pytest.approx(u_oracle, abs=1e-12)
                assert mine.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_matches_oracle_with_ties(self):
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(2, 7)
            m = rng.randint(2, 7)
            a = [rng.randint(0, 3) for _ in range(n)]
            b = [rng.randint(0, 3) for _ in range(m)]
            mine = mann_whitney_u(a, b, sides="two")
            _, p_oracle = oracle_mannwhitney(a, b, sides="two")
            assert mine.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_matches_scipy_exact(self):
        from scipy import stats as scipy_stats

        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(2, 8)
            m = rng.randint(2, 8)
            a = [round(rng.uniform(0, 50), 3) for _ in range(n)]
            b = [round(rng.uniform(0, 50), 3) for _ in range(m)]
            mine = mann_whitney_u(a, b, sides="two")
            theirs = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert mine.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_monotone_transform_invariance(self):
        a = [3.0, 9.0, 4.5, 1.0]
        b = [2.0, 8.0, 6.0, 4.0, 7.5]
        base = mann_whitney_u(a, b, sides="two")
        mapped = mann_whitney_u([2 * v + 7 for v in a], [2 * v + 7 for v in b], sides="two")
        assert mapped.statistic == base.statistic
        assert mapped.p_value == base.p_value

    def test_matches_old_dp_to_limit_with_ties(self):
        # p bit for bit equal to the old counter, also where it was exact (N <= 20).
        rng = random.Random(21)
        for total in range(2, MANNWHITNEY_EXACT_LIMIT + 1):
            n = rng.randint(1, total - 1)
            pooled = [rng.randint(0, 5) for _ in range(total)]
            a, b = pooled[:n], pooled[n:]
            mine = mann_whitney_u(a, b, sides="two")
            assert mine.method == "exact"
            assert mine.p_value == dp_mannwhitney_p(a, b, sides="two")

    def test_exact_to_limit_matches_scipy(self):
        from scipy import stats as scipy_stats

        rng = random.Random(17)
        for total in range(21, MANNWHITNEY_EXACT_LIMIT + 1):
            n = rng.randint(1, total - 1)
            a = [round(rng.uniform(0, 50), 3) for _ in range(n)]
            b = [round(rng.uniform(0, 50), 3) for _ in range(total - n)]
            mine = mann_whitney_u(a, b, sides="two")
            theirs = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert mine.method == "exact"
            assert mine.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_argument_order_does_not_change_p(self):
        # Counted over subsets of the smaller sample either way round.
        rng = random.Random(31)
        big = [round(rng.uniform(0, 50), 3) for _ in range(MANNWHITNEY_EXACT_LIMIT - 1)]
        for small in ([60.0], [-1.0], [big[3] + 0.0005]):
            for sides in ("one", "two"):
                forward = mann_whitney_u(big, small, sides=sides)
                backward = mann_whitney_u(small, big, sides=sides)
                assert forward.method == backward.method == "exact"
                assert forward.statistic == backward.statistic
                assert forward.p_value == backward.p_value

    def test_normal_approx_beyond_limit(self):
        rng = random.Random(10)
        a = [rng.uniform(0, 10) + 3 for _ in range(MANNWHITNEY_EXACT_LIMIT // 2 + 1)]
        b = [rng.uniform(0, 10) for _ in range(MANNWHITNEY_EXACT_LIMIT // 2)]
        result = mann_whitney_u(a, b, sides="two")
        assert result.method == "normal-approx"
        assert 0 < result.p_value <= 1


class TestLoadStudentRecords:
    @pytest.mark.parametrize("content, reason", [
        ("5", "must hold a JSON array"),
        ('{"student_id": "s1", "toefl": 90}', "must hold a JSON array"),
        ('[{"student_id": "s1", "toefl": 90, "test_answers": []}]', "bad student record"),
        ('["s1"]', "bad student record"),
    ])
    def test_wrong_shape(self, tmp_path, content, reason):
        path = tmp_path / "students.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=reason):
            load_student_records(path)

    @pytest.mark.parametrize("students, reason", [
        ([{"student_id": 5, "toefl": 90}], "student_id must be a string, got 5"),
        ([{"student_id": True, "toefl": 90}], "student_id must be a string, got True"),
        ([{"student_id": [], "toefl": 90}], r"student_id must be a string, got \[\]"),
        ([{"student_id": "s1", "toefl": 90}, {"student_id": "s1", "toefl": 80}],
         "duplicate student_id 's1'"),
        ([{"student_id": "s1", "toefl": float("nan")}], "toefl must be finite"),
        ([{"student_id": "s1", "toefl": float("inf")}], "toefl must be finite"),
        ([{"student_id": "s1", "toefl": 90, "turnaround_minutes": {"test1": float("-inf")}}],
         "turnaround_minutes must be finite"),
        ([{"student_id": "s1", "toefl": 90, "turnaround_minutes": {"test1": float("nan")}}],
         "turnaround_minutes must be finite"),
    ])
    def test_bad_values(self, tmp_path, students, reason):
        # json writes NaN and Infinity as the bare tokens it also reads back.
        path = tmp_path / "students.json"
        path.write_text(json.dumps(students), encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=f"bad student record: {reason}"):
            load_student_records(path)


def scaled_ints(scores, scale=100):
    """Scores with at most log10(scale) decimals as exact integers."""
    ints = [Fraction(str(score)) * scale for score in scores]
    assert all(x.denominator == 1 for x in ints)
    return [int(x) for x in ints]


def oracle_split(students, k):
    """Exact brute force over all C(2k, k) partitions.

    Key: (mean gap, |std_A - std_B| with population stds, sorted ids of A).
    Gaps are exact fractions; stds are square roots of exact integer
    variances (scaled by (100 k)^2) to 80 digits, so equal values compare equal.
    """
    ordered = sorted(students)
    ids = [sid for sid, _ in ordered]
    ints = scaled_ints([score for _, score in ordered])
    total = sum(ints)

    def std_scaled(group):
        values = [ints[i] for i in group]
        with localcontext() as ctx:
            ctx.prec = 80
            return Decimal(k * sum(v * v for v in values) - sum(values) ** 2).sqrt()

    best = None
    for a_idx in itertools.combinations(range(2 * k), k):
        b_idx = [i for i in range(2 * k) if i not in a_idx]
        gap = Fraction(abs(2 * sum(ints[i] for i in a_idx) - total), 100 * k)
        key = (gap, abs(std_scaled(a_idx) - std_scaled(b_idx)), tuple(ids[i] for i in a_idx))
        if best is None or key < best:
            best = key
    return frozenset(best[2])


def oracle_min_gap(scores, k):
    """Minimal mean gap from every (size, sum) reachable over scores * 100.

    reach[size] is a bitset whose bit s is set when some subset of that size
    sums to s.
    """
    ints = scaled_ints(scores)
    total = sum(ints)
    reach = [1] + [0] * k
    for x in ints:
        for size in range(k - 1, -1, -1):
            reach[size + 1] |= reach[size] << x
    # |2s - total| = total % 2 + 2d for s = total // 2 - d and (total + 1) // 2 + d
    for d in range(total + 1):
        for s in (total // 2 - d, (total + 1) // 2 + d):
            if s >= 0 and reach[k] >> s & 1:
                return (total % 2 + 2 * d) / (100 * k)
    raise AssertionError("no subset of size k")


class TestBalancedSplit:
    def test_symmetric_scores(self):
        result = balanced_split(
            [("s1", 90), ("s2", 90), ("s3", 100), ("s4", 100)], 2
        )
        assert result.mean_gap == 0.0
        assert len(result.group_a) == 2

    def test_six_scores_optimal_gap(self):
        # brute force over C(6,3) = 20 partitions gives 1/3
        students = [(f"s{i}", float(i)) for i in range(1, 7)]
        result = balanced_split(students, 3)
        assert result.mean_gap == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_small_brute_force(self):
        rng = random.Random(2024)
        for _ in range(20):
            scores = [round(rng.uniform(60, 110), 1) for _ in range(8)]
            students = [(f"s{i}", s) for i, s in enumerate(scores)]
            result = balanced_split(students, 4)
            total = sum(scores)
            best = min(
                abs(2 * sum(scores[i] for i in combo) - total) / 4
                for combo in itertools.combinations(range(8), 4)
            )
            assert result.mean_gap == pytest.approx(best, abs=1e-12)

    def test_mean_gap_is_exact(self):
        # One correctly rounded division of exact integers: an exact zero gap
        # is 0.0, not float summation noise such as 2.27e-14.
        rng = random.Random(6003)
        gaps = []
        for _ in range(25):
            scores = [round(rng.uniform(60, 115), 2) for _ in range(20)]
            result = balanced_split([(f"s{i:02}", s) for i, s in enumerate(scores)], 10)
            assert result.mean_gap == oracle_min_gap(scores, 10)
            gaps.append(result.mean_gap)
        assert gaps[0] == 0.0

    def test_input_order_invariance(self):
        students = [("s1", 80.0), ("s2", 95.0), ("s3", 99.0), ("s4", 84.0), ("s5", 90.0), ("s6", 88.0)]
        forward = balanced_split(students, 3)
        backward = balanced_split(list(reversed(students)), 3)
        assert forward == backward

    def test_groups_partition_students(self):
        students = [(f"s{i}", float(70 + i)) for i in range(10)]
        result = balanced_split(students, 5)
        assert result.group_a | result.group_b == {f"s{i}" for i in range(10)}
        assert not result.group_a & result.group_b

    def test_too_large_without_flag(self):
        students = [(f"s{i:02}", float(i)) for i in range(34)]
        with pytest.raises(TooLargeError):
            balanced_split(students, 17)

    def test_heuristic_path(self):
        rng = random.Random(3)
        students = [(f"s{i:02}", round(rng.uniform(60, 110), 1)) for i in range(34)]
        result = balanced_split(students, 17, allow_heuristic=True, rng_seed=1)
        assert len(result.group_a) == 17
        assert result.mean_gap < 2.0  # the swap search gets close on smooth data

    def test_exact_at_limit(self):
        rng = random.Random(16)
        scores = [round(rng.uniform(60, 115), 2) for _ in range(32)]
        students = [(f"s{i:02}", score) for i, score in enumerate(scores)]
        result = balanced_split(students, 16)
        assert len(result.group_a) == len(result.group_b) == 16
        assert result.group_a | result.group_b == {sid for sid, _ in students}
        assert result.mean_gap == pytest.approx(oracle_min_gap(scores, 16), abs=1e-12)

    def test_tie_break_regression(self):
        # {s0,s3,s5} is the mirror of {s1,s2,s4}: equal gap and std gap, so
        # the smaller id set {s0,s1,s4} wins.
        students = [("s0", 102), ("s1", 104), ("s2", 102), ("s3", 110), ("s4", 69), ("s5", 68)]
        assert balanced_split(students, 3).group_a == {"s0", "s1", "s4"}
        assert oracle_split(students, 3) == {"s0", "s1", "s4"}

    def test_decimal_tie_is_exact(self):
        # {s0,s2} = 0.4 vs 0.3 and {s0,s3} = 0.1 + 0.2 vs 0.4 tie exactly, but
        # 0.1 + 0.2 != 0.3 in binary floats; ids decide.
        students = [("s0", 0.1), ("s1", 0.1), ("s2", 0.3), ("s3", 0.2)]
        assert balanced_split(students, 2).group_a == {"s0", "s2"}
        assert oracle_split(students, 2) == {"s0", "s2"}

    def test_matches_exact_oracle(self):
        rng = random.Random(2511)
        for n in range(300):
            k = 2 + n % 5
            places = n % 3  # integer, 1- and 2-decimal scores
            if places == 0:
                scores = [rng.randint(60, 75) for _ in range(2 * k)]
            else:
                scores = [round(rng.uniform(60, 62), places) for _ in range(2 * k)]
            ids = [f"s{i}" for i in range(2 * k)]
            rng.shuffle(ids)
            students = list(zip(ids, scores))
            assert balanced_split(students, k).group_a == oracle_split(students, k), students

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            balanced_split([("a", 1.0)], 1)

    @pytest.mark.parametrize("students, group_size, reason", [
        ([("a", 1.0)], 0, "group_size must be >= 1"),
        ([("a", 1.0), ("b", 2.0)], -1, "group_size must be >= 1"),
        ([("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)], 3, "need exactly 6 students, got 4"),
        ([("a", 1.0), ("a", 2.0)], 1, "student ids must be unique"),
        ([("a", 1.0), ("b", float("nan"))], 1, "scores must be finite"),
    ])
    def test_argument_errors_are_validation_errors(self, students, group_size, reason):
        with pytest.raises(InvalidArgumentError, match=reason) as info:
            balanced_split(students, group_size)
        assert isinstance(info.value, ValueError)


def answer_key(blooms_cycle=None):
    """4 items x 5 bloom-labeled questions = 20-question key."""
    cycle = blooms_cycle or ["Remember", "Understand", "Apply", "Analyze", "Evaluate"]
    items = []
    for i in range(4):
        questions = tuple(make_question(q, cycle[q % len(cycle)]) for q in range(5))
        items.append(
            ReadingItem(
                id=f"k{i}",
                passage=f"Key passage {i}. It exists.",
                questions=questions,
            )
        )
    return items


def sheet(key, n_correct):
    """An answer sheet hitting exactly ``n_correct`` of the key's questions."""
    answers = []
    for idx, question in enumerate([q for item in key for q in item.questions]):
        if idx < n_correct:
            answers.append(question.answer_index)
        else:
            answers.append((question.answer_index + 1) % 4)
    return answers


class TestScoreTest:
    def test_17_of_20(self):
        key = answer_key()
        result = score_test(sheet(key, 17), key)
        assert result.score == 85

    def test_all_correct_totals_100(self):
        key = answer_key()
        result = score_test(sheet(key, 20), key)
        assert result.score == 100

    def test_length_mismatch(self):
        key = answer_key()
        with pytest.raises(LengthMismatchError):
            score_test(sheet(key, 20)[:19], key)

    def test_bloom_breakdown(self):
        key = answer_key()
        result = score_test(sheet(key, 20), key)
        assert result.correct_by_bloom[BloomLevel.ANALYZE] == (4, 4)
        assert sum(c for c, _ in result.correct_by_bloom.values()) == 20

    def test_joint_permutation_invariance(self):
        key = answer_key()
        questions = [q for item in key for q in item.questions]
        answers = sheet(key, 11)
        baseline = score_test(answers, key).score
        rng = random.Random(8)
        order = list(range(20))
        rng.shuffle(order)
        shuffled_questions = tuple(questions[i] for i in order)
        shuffled_answers = [answers[i] for i in order]
        shuffled_key = [
            ReadingItem(id="all", passage="One passage. Enough.", questions=shuffled_questions)
        ]
        assert score_test(shuffled_answers, shuffled_key).score == baseline


def imms(test_id, *responses):
    return {
        test_id: tuple(
            ImmsResponse(item_id=f"q{i}", subscale=sub, response=val)
            for i, (sub, val) in enumerate(responses)
        )
    }


class TestLikertSummary:
    def test_constant_responses(self):
        records = [
            StudentRecord(
                student_id=f"s{i}",
                toefl=90.0,
                imms=imms("test1", ("Attention", 4), ("Confidence", 4)),
            )
            for i in range(3)
        ]
        summary = likert_summary(records, "test1")
        assert summary.mean == 4.0
        assert summary.std == 0.0
        assert summary.n == 3

    def test_two_student_means(self):
        records = [
            StudentRecord(
                student_id="s1", toefl=90.0,
                imms=imms("test1", ("Attention", 4), ("Relevance", 4)),
            ),
            StudentRecord(
                student_id="s2", toefl=90.0,
                imms=imms("test1", ("Attention", 5), ("Relevance", 5)),
            ),
        ]
        summary = likert_summary(records, "test1")
        assert summary.mean == pytest.approx(4.5)
        # hand: sample std of [4, 5] = sqrt(0.5)
        assert summary.std == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_subscale_filter(self):
        records = [
            StudentRecord(
                student_id="s1", toefl=90.0,
                imms=imms("test1", ("Confidence", 4), ("Confidence", 5), ("Attention", 1)),
            ),
            StudentRecord(
                student_id="s2", toefl=90.0,
                imms=imms("test1", ("Confidence", 6), ("Attention", 1)),
            ),
        ]
        summary = likert_summary(records, "test1", subscale="Confidence")
        # hand: student means 4.5 and 6.0 -> mean 5.25, sample std sqrt(1.125)
        assert summary.mean == pytest.approx(5.25)
        assert summary.std == pytest.approx(1.0606601717798212, abs=1e-12)
        assert summary.n == 2

    def test_no_responses(self):
        records = [StudentRecord(student_id="s1", toefl=90.0)]
        with pytest.raises(NoResponsesError):
            likert_summary(records, "test1")


def experiment_fixture():
    """20 students: B gains a constant 10 points, A shifts symmetrically by 5."""
    key = answer_key()
    keys = {"test1": key, "test2": key}
    records = []
    for i in range(10):
        base = 12 + (i % 3)  # 12..14 correct on test 1
        records.append(
            StudentRecord(
                student_id=f"b{i}",
                toefl=90.0 + i,
                group="B",
                test_answers={
                    "test1": tuple(sheet(key, base)),
                    "test2": tuple(sheet(key, base + 2)),  # +10 points
                },
                turnaround_minutes={"test1": 30.0 + i % 4, "test2": 27.0 + i % 4},
                imms={
                    **imms("test1", ("Attention", 5), ("Confidence", 5)),
                    **imms("test2", ("Attention", 5), ("Confidence", 5)),
                },
            )
        )
    for i in range(10):
        base = 13 + (i % 2)
        shift = 1 if i < 5 else -1  # +-5 points, balanced
        records.append(
            StudentRecord(
                student_id=f"a{i}",
                toefl=91.0 + i,
                group="A",
                test_answers={
                    "test1": tuple(sheet(key, base)),
                    "test2": tuple(sheet(key, base + shift)),
                },
                turnaround_minutes={"test1": 25.0 + i % 3, "test2": 32.0 + i % 3},
                imms={
                    **imms("test1", ("Attention", 6), ("Confidence", 6)),
                    **imms("test2", ("Attention", 4), ("Confidence", 4)),
                },
            )
        )
    return records, keys


class TestExperimentReport:
    @pytest.mark.parametrize("tests, alpha, reason", [
        (["test1"], 0.01, "expected exactly 2 answer keys, got 1"),
        (["test1", "test2", "test3"], 0.01, "expected exactly 2 answer keys, got 3"),
        (["test1", "test2"], 1.0, r"alpha must be in \(0, 1\)"),
    ])
    def test_argument_errors_are_validation_errors(self, tests, alpha, reason):
        records, keys = experiment_fixture()
        keys = {test_id: keys["test1"] for test_id in tests}
        with pytest.raises(InvalidArgumentError, match=reason):
            experiment_report(records, keys, alpha=alpha)

    def test_group_b_significant_a_not(self):
        records, keys = experiment_fixture()
        report = experiment_report(records, keys, alpha=0.01)
        group_b = report["groups"]["B"]["score_delta"]
        group_a = report["groups"]["A"]["score_delta"]
        assert group_b["wilcoxon"]["method"] == "exact"
        assert group_b["significant"] is True
        assert group_b["wilcoxon"]["p_value"] < 0.01
        assert group_a["significant"] is False
        assert group_a["wilcoxon"]["p_value"] == 1.0
        assert report["alpha"] == 0.01

    def test_score_means(self):
        records, keys = experiment_fixture()
        report = experiment_report(records, keys)
        means_b = report["groups"]["B"]["scores"]
        assert means_b["test2"]["mean"] - means_b["test1"]["mean"] == pytest.approx(10.0)

    def test_imms_between_groups(self):
        records, keys = experiment_fixture()
        report = experiment_report(records, keys)
        retention = report["imms_between_groups"]["retention_delta"]
        # A drops by 2 for every student, B holds: complete separation
        assert retention["significant"] is True
        assert retention["mannwhitney"]["method"] == "exact"

    def test_empty_group_rejected(self):
        records, keys = experiment_fixture()
        only_b = [r for r in records if r.group == "B"]
        with pytest.raises(Exception, match="group A is empty"):
            experiment_report(only_b, keys)

    def test_turnaround_section(self):
        records, keys = experiment_fixture()
        report = experiment_report(records, keys)
        turnaround_b = report["groups"]["B"]["turnaround"]
        assert turnaround_b["test1"]["mean"] > turnaround_b["test2"]["mean"]
        assert turnaround_b["significant"] is True

    def test_text_rendering(self):
        records, keys = experiment_fixture()
        report = experiment_report(records, keys)
        text = render_report_text(report)
        assert "Group B" in text
        assert "Wilcoxon p" in text

    def test_each_sheet_scored_once(self, monkeypatch):
        records, keys = experiment_fixture()
        calls = []
        monkeypatch.setattr("transcreate.stats.score_test",
                            lambda answers, key: calls.append(answers) or score_test(answers, key))
        experiment_report(records, keys)
        assert len(calls) == len(records) * len(keys)

    def test_partial_imms_counts_only_where_answered(self):
        records, keys = experiment_fixture()
        i = next(i for i, r in enumerate(records) if r.student_id == "a0")
        records[i] = dataclasses.replace(records[i], imms={"test1": records[i].imms["test1"]})
        report = experiment_report(records, keys)
        imms_a = report["groups"]["A"]["imms"]
        assert imms_a["test1"]["n"] == 10
        assert imms_a["test2"]["n"] == 9
        between = report["imms_between_groups"]
        assert between["test1"]["mannwhitney"]["n"] == {"n_a": 10, "n_b": 10}
        assert between["test2"]["mannwhitney"]["n"] == {"n_a": 9, "n_b": 10}
        assert between["retention_delta"]["mannwhitney"]["n"] == {"n_a": 9, "n_b": 10}


def seeded_cohort(seed, size=18):
    """Random sheets, times and IMMS for ``size`` students in groups of uneven size.

    Student 3 has no test 2 turnaround time, so group B reports no
    turnaround; students 4 and 7 answered the IMMS after one test only. The
    two keys differ, and only the second has Create questions.
    """
    rng = random.Random(seed)
    keys = {"test1": answer_key(),
            "test2": answer_key(["Understand", "Apply", "Analyze", "Evaluate", "Create"])}
    records = []
    for i in range(size):
        times = {"test1": round(rng.uniform(20, 40), 1), "test2": round(rng.uniform(20, 40), 1)}
        surveys = {
            test_id: tuple(ImmsResponse(f"q{j}", rng.choice(IMMS_SUBSCALES), rng.randint(1, 7))
                           for j in range(rng.randint(2, 6)))
            for test_id in keys
        }
        if i == 3:
            del times["test2"]
        if i in (4, 7):
            del surveys["test1" if i == 4 else "test2"]
        records.append(StudentRecord(
            student_id=f"s{i:02}", toefl=float(rng.randint(70, 110)),
            group="B" if i % 5 in (1, 3) else "A",
            test_answers={test_id: tuple(rng.randint(0, 3) for _ in range(20))
                          for test_id in keys},
            turnaround_minutes=times, imms=surveys,
        ))
    return records, keys


class TestReportDigests:
    """``stats`` JSON and text output, pinned byte for byte.

    The digests were taken from the version that scored each sheet once per
    use and counted Mann-Whitney labelings with a 2-D list DP.
    """

    DIGESTS = {
        "fixture": ("2c601f51bdb0f350cf3b3f5841e5a16e124599358841ca2d056389376a90dc20",
                    "13abee02af0369edf9e919c8c1db7701fc1fc1f60d6cfa618ddde37ac5969005"),
        "seeded": ("727d3a8b9ba8ca0ce03592bf5baaf4d084d884a93120fa1401444689513b0e8e",
                   "35e62f072908ede4906579d80527495891b719605ef74016e2c6518f58391596"),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_same_statistics(self, tmp_path, name):
        records, keys = experiment_fixture() if name == "fixture" else seeded_cohort(8)
        records_path = tmp_path / "students.json"
        records_path.write_text(json.dumps([dataclasses.asdict(r) for r in records]),
                                encoding="utf-8")
        argv = ["stats", "--records", str(records_path)]
        for test_id, key in keys.items():
            save_items(key, tmp_path / f"{test_id}.jsonl")
            argv += ["--key", f"{test_id}={tmp_path / f'{test_id}.jsonl'}"]
        assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 0
        assert cli.main(argv + ["--format", "text", "--out", str(tmp_path / "report.txt")]) == 0
        digests = tuple(hashlib.sha256((tmp_path / f"report.{ext}").read_bytes()).hexdigest()
                        for ext in ("json", "txt"))
        assert digests == self.DIGESTS[name]
