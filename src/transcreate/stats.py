"""Experiment statistics: balanced splitting, scoring, exact rank tests, IMMS.

The Wilcoxon and Mann-Whitney tests are exact up to 32 observations (two
groups of the largest exact split, 16 + 16) and fall back to a
tie-corrected normal approximation beyond that. All functions are pure.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .corpus import BloomLevel, ReadingItem
from .errors import ValidationError
from .fileio import read_json
from .textmetrics import mean_std

POINTS_PER_QUESTION = 5
DEFAULT_ALPHA = 0.01
IMMS_SUBSCALES = ("Attention", "Relevance", "Confidence", "Satisfaction")

SPLIT_EXACT_LIMIT = 16  # max group size for the exact split
# Two split groups of the largest exact size stay on the exact tests.
WILCOXON_EXACT_LIMIT = 2 * SPLIT_EXACT_LIMIT  # max nonzero differences for enumeration
MANNWHITNEY_EXACT_LIMIT = 2 * SPLIT_EXACT_LIMIT  # max pooled sample size for enumeration


class AllZeroDifferencesError(ValidationError):
    pass


class LengthMismatchError(ValidationError):
    pass


class TooLargeError(ValidationError):
    pass


class NoResponsesError(ValidationError):
    pass


class MalformedRecordError(ValidationError):
    pass


class InvalidArgumentError(ValidationError, ValueError):
    """An argument outside what the analysis accepts, such as a wrong count."""


# -- data model -------------------------------------------------------------------


@dataclass(frozen=True)
class ImmsResponse:
    item_id: str
    subscale: str
    response: int

    def __post_init__(self):
        if self.subscale not in IMMS_SUBSCALES:
            raise ValueError(f"unknown IMMS subscale {self.subscale!r}")
        if not 1 <= self.response <= 7:
            raise ValueError(f"IMMS response out of range: {self.response}")


@dataclass(frozen=True)
class StudentRecord:
    """One participant: proficiency, group, answers, timings, survey responses."""

    student_id: str
    toefl: float
    group: str = "unassigned"  # "A" | "B" | "unassigned"
    test_answers: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    turnaround_minutes: Mapping[str, float] = field(default_factory=dict)
    imms: Mapping[str, tuple[ImmsResponse, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.group not in ("A", "B", "unassigned"):
            raise ValueError(f"group must be A, B, or unassigned, not {self.group!r}")
        for test_id, answers in self.test_answers.items():
            for answer in answers:
                if not isinstance(answer, int) or not 0 <= answer <= 3:
                    raise ValueError(f"answer out of range in {test_id}: {answer!r}")


def _finite(value: Any, what: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def load_student_records(path: str | Path) -> list[StudentRecord]:
    """Load a JSON array of student records.

    Student ids must be unique strings, and ``toefl`` and turnaround times
    finite numbers; any other record raises :class:`MalformedRecordError`.
    """
    raw = read_json(path, "student records file")
    if not isinstance(raw, list):
        raise MalformedRecordError("student records file must hold a JSON array")
    records = []
    seen: set[str] = set()
    for entry in raw:
        try:
            student_id = entry["student_id"]
            if not isinstance(student_id, str):
                raise TypeError(f"student_id must be a string, got {student_id!r}")
            if student_id in seen:
                raise ValueError(f"duplicate student_id {student_id!r}")
            seen.add(student_id)
            records.append(
                StudentRecord(
                    student_id=student_id,
                    toefl=_finite(entry["toefl"], "toefl"),
                    group=entry.get("group") or "unassigned",
                    test_answers={
                        test: tuple(answers)
                        for test, answers in entry.get("test_answers", {}).items()
                    },
                    turnaround_minutes={
                        test: _finite(minutes, "turnaround_minutes")
                        for test, minutes in entry.get("turnaround_minutes", {}).items()
                    },
                    imms={
                        test: tuple(
                            ImmsResponse(
                                item_id=r["item_id"],
                                subscale=r["subscale"],
                                response=r["response"],
                            )
                            for r in responses
                        )
                        for test, responses in entry.get("imms", {}).items()
                    },
                )
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedRecordError(f"bad student record: {exc}") from exc
    return records


# -- balanced split ----------------------------------------------------------------


@dataclass(frozen=True)
class SplitResult:
    group_a: frozenset[str]
    group_b: frozenset[str]
    mean_gap: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "group_a": sorted(self.group_a),
            "group_b": sorted(self.group_b),
            "mean_gap": self.mean_gap,
        }


def _as_scored(students: Iterable[Any]) -> list[tuple[str, float]]:
    scored = []
    for student in students:
        if isinstance(student, StudentRecord):
            scored.append((student.student_id, float(student.toefl)))
        else:
            sid, score = student
            scored.append((str(sid), float(score)))
    ids = [sid for sid, _ in scored]
    if len(set(ids)) != len(ids):
        raise InvalidArgumentError("student ids must be unique")
    return scored


def _fixed_point(scores: Sequence[float]) -> tuple[list[int], int]:
    """Scores as exact integers scaled by 10**d, d the most decimal places of any.

    Returns the integers and the scale 10**d. Each float is read through its
    shortest repr, not its binary value, so 0.1 + 0.2 ties with 0.3.
    """
    decimals = [Decimal(repr(score)) for score in scores]
    if not all(d.is_finite() for d in decimals):
        raise InvalidArgumentError("scores must be finite")
    places = max(0, *(-d.as_tuple().exponent for d in decimals))
    return [int(d.scaleb(places)) for d in decimals], 10**places


def _split_key(a_idx: Iterable[int], ints: Sequence[int], k: int) -> tuple[int, int]:
    """Exact (gap, std gap) order key of group A over fixed-point scores.

    With S, Q the sum and sum of squares of group A and T, Q_all those of
    everyone, the key is (|2S - T|, |A - B|), A = k Q - S^2 and
    B = k (Q_all - Q) - (T - S)^2. Within one gap class A + B is constant,
    so |A - B| orders |std_A - std_B| exactly.
    """
    total = sum(ints)
    sum_a = sum_sq = 0
    for i in a_idx:
        sum_a += ints[i]
        sum_sq += ints[i] * ints[i]
    var_a = k * sum_sq - sum_a * sum_a
    var_b = k * (sum(x * x for x in ints) - sum_sq) - (total - sum_a) ** 2
    return abs(2 * sum_a - total), abs(var_a - var_b)


def _half_subsets(values: Sequence[int], bits: Sequence[int]) -> dict[tuple[int, int, int], int]:
    """(size, sum, sum of squares) -> the largest mask among subsets of one half."""
    table = {(0, 0, 0): 0}
    for x, bit in zip(values, bits):
        for (size, s, q), mask in list(table.items()):
            key = (size + 1, s + x, q + x * x)
            if table.get(key, -1) < mask | bit:
                table[key] = mask | bit
    return table


def _nearest(sorted_values: Sequence[int], target: int, scale: int) -> Sequence[int]:
    """The closest values v below and at-or-above target / scale."""
    pos = bisect_left(sorted_values, -(-target // scale))
    return sorted_values[max(pos - 1, 0) : pos + 1]


def balanced_split(
    students: Iterable[Any],
    group_size: int,
    *,
    allow_heuristic: bool = False,
    rng_seed: int = 0,
) -> SplitResult:
    """Split 2k students into two groups of k with minimal TOEFL mean gap.

    Exact for k <= 16: ties break on the smaller |std_A - std_B| (population
    std), then the lexicographically smallest id set in group A. Scores are
    compared as exact fixed-point decimals (``repr`` of each float), so ties
    are exact. The search is a meet-in-the-middle over half-subsets indexed
    by (size, sum) (Horowitz & Sahni, JACM 1974), not an enumeration of all
    C(2k, k) partitions. The result does not depend on input order. Beyond
    k = 16 pass ``allow_heuristic=True`` for a seeded swap search.
    """
    if group_size < 1:
        raise InvalidArgumentError("group_size must be >= 1")
    scored = sorted(_as_scored(students))  # canonical order by id
    if len(scored) != 2 * group_size:
        raise InvalidArgumentError(f"need exactly {2 * group_size} students, got {len(scored)}")
    ids = [sid for sid, _ in scored]
    ints, scale = _fixed_point([score for _, score in scored])
    k = group_size

    if group_size > SPLIT_EXACT_LIMIT:
        if not allow_heuristic:
            raise TooLargeError(
                f"group_size {group_size} exceeds the exact bound {SPLIT_EXACT_LIMIT}; "
                "pass allow_heuristic=True for a greedy swap search"
            )
        a_idx = _heuristic_split(ids, ints, k, rng_seed)
    else:
        a_idx = _exact_split(ints, k)
    group_a = frozenset(ids[i] for i in a_idx)
    # Integer over integer: the exact gap, correctly rounded once.
    return SplitResult(
        group_a=group_a,
        group_b=frozenset(ids) - group_a,
        mean_gap=_split_key(a_idx, ints, k)[0] / (scale * k),
    )


def _exact_split(ints: Sequence[int], k: int) -> list[int]:
    """Indices of group A minimising the exact key (gap, std gap, ids).

    The lexicographic tie-break puts index 0 in group A, so A is index 0 plus
    k - 1 of the rest. Index i maps to bit n-1-i of a mask; among sets of
    one size the lexicographically smallest has the largest mask, so each
    half keeps one mask per (size, sum, sum of squares).
    """
    n = 2 * k
    total = sum(ints)
    total_sq = sum(x * x for x in ints)
    x0 = ints[0]
    half = (n - 1) // 2
    bits = [1 << (n - 1 - i) for i in range(n)]
    left = _half_subsets(ints[1 : half + 1], bits[1 : half + 1])
    right = _half_subsets(ints[half + 1 :], bits[half + 1 :])

    left_by_sum: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (size, s, q), mask in left.items():
        left_by_sum.setdefault((size, s), []).append((q, mask))
    right_sqs: dict[tuple[int, int], list[int]] = {}
    for size, s, q in right:
        right_sqs.setdefault((size, s), []).append(q)
    for qs in right_sqs.values():
        qs.sort()
    sorted_sums: dict[int, list[int]] = {}
    for size, s in sorted(right_sqs):
        sorted_sums.setdefault(size, []).append(s)

    # 1. The minimum gap |2 S_A - T|, and the (left, right) sum pairs at it.
    best_gap = None
    at_gap: list[tuple[int, int, int, int]] = []
    for size, s in left_by_sum:
        rsize = k - 1 - size
        if rsize not in sorted_sums:
            continue
        for r in _nearest(sorted_sums[rsize], total - 2 * (x0 + s), 2):
            gap = abs(2 * (x0 + s + r) - total)
            if best_gap is None or gap < best_gap:
                best_gap, at_gap = gap, []
            if gap == best_gap:
                at_gap.append((size, s, rsize, r))

    # 2-3. Within that gap class |A - B| = |2k Q_A - c| for a constant c per
    # S_A: find its minimum over sorted right sums of squares, then the
    # largest mask among the exact ties.
    best: tuple[int, int] | None = None
    for size, s, rsize, r in at_gap:
        sum_a = x0 + s + r
        c = k * total_sq + sum_a * sum_a - (total - sum_a) ** 2 - 2 * k * x0 * x0
        for q_left, mask in left_by_sum[size, s]:
            target = c - 2 * k * q_left
            for q_right in _nearest(right_sqs[rsize, r], target, 2 * k):
                key = (abs(2 * k * q_right - target),
                       -(bits[0] | mask | right[rsize, r, q_right]))
                if best is None or key < best:
                    best = key
    assert best is not None
    return [i for i in range(n) if -best[1] & bits[i]]


def _heuristic_split(ids: Sequence[str], ints: Sequence[int], k: int, rng_seed: int) -> list[int]:
    """Indices of group A from a seeded multi-restart pairwise-swap descent on the exact key."""
    rng = random.Random(rng_seed)
    indices = list(range(len(ids)))
    best_key: tuple[int, int, tuple[str, ...]] | None = None
    best_a: list[int] | None = None
    for _ in range(20):
        rng.shuffle(indices)
        a_set = sorted(indices[:k])
        b_set = sorted(indices[k:])
        improved = True
        while improved:
            improved = False
            current = _split_key(a_set, ints, k)
            for i in range(k):
                for j in range(k):
                    candidate = sorted(a_set[:i] + a_set[i + 1 :] + [b_set[j]])
                    cand_key = _split_key(candidate, ints, k)
                    if cand_key < current:
                        b_set = sorted(b_set[:j] + b_set[j + 1 :] + [a_set[i]])
                        a_set = candidate
                        current = cand_key
                        improved = True
                        break
                if improved:
                    break
        # Canonical labeling: group A holds the lexicographically smaller ids.
        if ids[b_set[0]] < ids[a_set[0]]:
            a_set, b_set = b_set, a_set
        key = (*_split_key(a_set, ints, k), tuple(ids[i] for i in a_set))
        if best_key is None or key < best_key:
            best_key = key
            best_a = a_set
    assert best_a is not None
    return best_a


# -- scoring -----------------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    score: int
    correct_by_bloom: Mapping[BloomLevel, tuple[int, int]]  # level -> (correct, total)

    def to_dict(self) -> dict[str, Any]:
        return {
            "score": self.score,
            "correct_by_bloom": {
                level.value: {"correct": c, "total": t}
                for level, (c, t) in self.correct_by_bloom.items()
            },
        }


def flatten_key(key: Sequence[ReadingItem]) -> list:
    """All questions of an answer key, in item order."""
    return [question for item in key for question in item.questions]


def score_test(answers: Sequence[int], key: Sequence[ReadingItem]) -> TestResult:
    """Score an answer sheet: 5 points per correct answer, per-level breakdown."""
    questions = flatten_key(key)
    if len(answers) != len(questions):
        raise LengthMismatchError(
            f"{len(answers)} answers for {len(questions)} questions"
        )
    correct = 0
    by_bloom: dict[BloomLevel, list[int]] = {}
    for answer, question in zip(answers, questions):
        if question.bloom is None:
            raise ValidationError(f"key question {question.stem!r} has no cognitive level")
        tally = by_bloom.setdefault(question.bloom, [0, 0])
        tally[1] += 1
        if answer == question.answer_index:
            tally[0] += 1
            correct += 1
    return TestResult(
        score=POINTS_PER_QUESTION * correct,
        correct_by_bloom={level: (c, t) for level, (c, t) in by_bloom.items()},
    )


# -- rank machinery ----------------------------------------------------------------


def _ranks_doubled(values: Sequence[float]) -> list[int]:
    """Average ranks scaled by 2 so ties stay exact integers."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    doubled = [0] * len(values)
    idx = 0
    while idx < len(order):
        tie_end = idx
        while (
            tie_end + 1 < len(order)
            and values[order[tie_end + 1]] == values[order[idx]]
        ):
            tie_end += 1
        # ranks idx+1 .. tie_end+1 share the average; doubled it is lo+hi
        rank2 = (idx + 1) + (tie_end + 1)
        for j in range(idx, tie_end + 1):
            doubled[order[j]] = rank2
        idx = tie_end + 1
    return doubled


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    method: str  # "exact" | "normal-approx" | "degenerate"
    sides: str  # "one" | "two"
    n: Mapping[str, int]

    def to_dict(self) -> dict[str, Any]:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "sides": self.sides,
            "n": dict(self.n),
        }


def wilcoxon_signed_rank(
    x: Sequence[float], y: Sequence[float], sides: str = "two"
) -> StatTestResult:
    """Paired signed-rank test; W = min(W+, W-).

    Zero differences are dropped; tied magnitudes get average ranks. With at
    most WILCOXON_EXACT_LIMIT nonzero differences the p-value counts all sign
    patterns exactly; beyond that a tie-corrected normal approximation with
    continuity correction applies. One-sided means the tail in the observed
    direction; two-sided doubles it, capped at 1.
    """
    if sides not in ("one", "two"):
        raise ValueError("sides must be 'one' or 'two'")
    if len(x) != len(y):
        raise LengthMismatchError(f"paired samples differ: {len(x)} vs {len(y)}")
    if not x:
        raise ValueError("empty samples")
    diffs = [float(a) - float(b) for a, b in zip(x, y)]
    zeros = sum(1 for d in diffs if d == 0)
    diffs = [d for d in diffs if d != 0]
    if not diffs:
        raise AllZeroDifferencesError("all paired differences are zero")
    magnitudes = [abs(d) for d in diffs]
    ranks2 = _ranks_doubled(magnitudes)
    w2_plus = sum(r for r, d in zip(ranks2, diffs) if d > 0)
    total2 = sum(ranks2)
    w2_minus = total2 - w2_plus
    t2 = min(w2_plus, w2_minus)
    statistic = t2 / 2.0
    m = len(diffs)
    n_desc = {"pairs": len(x), "nonzero": m, "zeros_dropped": zeros}

    if m <= WILCOXON_EXACT_LIMIT:
        # Counts of 2*W+ over all sign patterns in `width`-bit slots, one shift-add per
        # rank; they sum to 2**m < 2**width - 1, so slots 0..t2 sum to the masked poly mod it.
        width = m + 1
        poly = 1
        for rank2 in ranks2:
            poly += poly << rank2 * width
        favorable = (poly & ((1 << (t2 + 1) * width) - 1)) % ((1 << width) - 1)
        p_one = favorable / (1 << m)
        method = "exact"
    else:
        mean2 = total2 / 2.0
        var2 = sum(r * r for r in ranks2) / 4.0  # Var(2W+) = sum (2r)^2 /4
        sd2 = math.sqrt(var2)
        if sd2 == 0:
            p_one = 1.0
        else:
            z = (t2 - mean2 + 1.0) / sd2  # +1 is the 0.5 continuity shift, doubled
            p_one = _normal_cdf(z)
        method = "normal-approx"

    p_value = p_one if sides == "one" else min(1.0, 2.0 * p_one)
    return StatTestResult(
        statistic=statistic, p_value=p_value, method=method, sides=sides, n=n_desc
    )


def mann_whitney_u(
    a: Sequence[float], b: Sequence[float], sides: str = "two"
) -> StatTestResult:
    """Unpaired rank-sum test; U = min(U_a, U_b), average ranks for ties.

    With a pooled size of at most MANNWHITNEY_EXACT_LIMIT the p-value counts
    all C(n+m, n) labelings of the observed (possibly tied) ranks exactly,
    by rank sum per subset size (after Streitberg & Röhmel's shift
    algorithm, Statistical Software Newsletter 12, 1986); beyond that a
    tie-corrected normal approximation with continuity correction applies.
    """
    if sides not in ("one", "two"):
        raise ValueError("sides must be 'one' or 'two'")
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    pooled = [float(v) for v in a] + [float(v) for v in b]
    ranks2 = _ranks_doubled(pooled)
    r2_a = sum(ranks2[:n_a])
    u2_a = 2 * n_a * n_b + n_a * (n_a + 1) - r2_a  # doubled U_a
    u2_b = 2 * n_a * n_b - u2_a
    u2_min = min(u2_a, u2_b)
    statistic = u2_min / 2.0
    n_desc = {"n_a": n_a, "n_b": n_b}
    total = n_a + n_b

    if total <= MANNWHITNEY_EXACT_LIMIT:
        # rows[j] counts the size-j subsets of the doubled ranks by rank sum,
        # one slot of `width` bits per sum, up to the smaller sample's size. No
        # count reaches 2**total, so no slot overflows; each rank is one
        # shift-add per subset size.
        width = total + 1
        n_small = min(n_a, n_b)
        rows = [1] + [0] * n_small
        for rank2 in ranks2:
            shift = rank2 * width
            for chosen in range(n_small, 0, -1):
                rows[chosen] += rows[chosen - 1] << shift
        # U_a <= u  <=>  R2_a >= 2*n_a*n_b + n_a*(n_a+1) - 2u  <=>  (for the
        # complementary labels) R2_b <= n_b*(n_b+1) + 2u; use the doubled
        # observed minimum directly. The slots in the tail sum to less than
        # 2**width - 1, so their sum is the shifted or masked row modulo it.
        if n_a == n_small:
            tail = rows[n_a] >> (2 * n_a * n_b + n_a * (n_a + 1) - u2_min) * width
        else:
            tail = rows[n_b] & ((1 << (n_b * (n_b + 1) + u2_min + 1) * width) - 1)
        favorable = tail % ((1 << width) - 1)
        p_one = favorable / math.comb(total, n_a)
        method = "exact"
    else:
        mean = n_a * n_b / 2.0
        tie_counts: dict[int, int] = {}
        for rank2 in ranks2:
            tie_counts[rank2] = tie_counts.get(rank2, 0) + 1
        tie_term = sum(t**3 - t for t in tie_counts.values())
        var = (n_a * n_b / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
        if var <= 0:
            p_one = 1.0
        else:
            z = (statistic - mean + 0.5) / math.sqrt(var)
            p_one = _normal_cdf(z)
        method = "normal-approx"

    p_value = p_one if sides == "one" else min(1.0, 2.0 * p_one)
    return StatTestResult(
        statistic=statistic, p_value=p_value, method=method, sides=sides, n=n_desc
    )


# -- Likert / IMMS -----------------------------------------------------------------


@dataclass(frozen=True)
class LikertSummary:
    mean: float
    std: float
    n: int

    def to_dict(self) -> dict[str, Any]:
        return {"mean": self.mean, "std": self.std, "n": self.n}


def _imms_mean(
    record: StudentRecord, test_id: str, subscale: str | None = None
) -> float | None:
    """One student's mean IMMS response after one test; None without responses."""
    responses = [
        r.response
        for r in record.imms.get(test_id, ())
        if subscale is None or r.subscale == subscale
    ]
    return sum(responses) / len(responses) if responses else None


def likert_summary(
    records: Sequence[StudentRecord], test_id: str, subscale: str | None = None
) -> LikertSummary:
    """Student-first aggregation: mean +- sample std over per-student means."""
    if subscale is not None and subscale not in IMMS_SUBSCALES:
        raise ValueError(f"unknown IMMS subscale {subscale!r}")
    means = [
        mean for mean in (_imms_mean(r, test_id, subscale) for r in records) if mean is not None
    ]
    if not means:
        raise NoResponsesError(f"no IMMS responses for test {test_id!r}")
    mean, std = mean_std(means)
    return LikertSummary(mean=mean, std=std, n=len(means))


# -- experiment report ---------------------------------------------------------------


def _paired_wilcoxon(before: Sequence[float], after: Sequence[float]) -> dict[str, Any]:
    """Within-group paired test; a group with literally no change reports p = 1."""
    try:
        return wilcoxon_signed_rank(after, before, sides="two").to_dict()
    except AllZeroDifferencesError:
        return {
            "statistic": 0.0,
            "p_value": 1.0,
            "method": "degenerate",
            "sides": "two",
            "n": {"pairs": len(before), "nonzero": 0, "zeros_dropped": len(before)},
        }


def experiment_report(
    records: Sequence[StudentRecord],
    keys: Mapping[str, Sequence[ReadingItem]],
    alpha: float = DEFAULT_ALPHA,
) -> dict[str, Any]:
    """Run the full quantitative analysis over supplied student records.

    Per group: score means per test, within-group Wilcoxon on the score and
    turnaround deltas, per-level point deltas, IMMS summaries. Between groups:
    Mann-Whitney on per-student IMMS means and on their retention deltas.
    Significance is flagged at ``alpha``.
    """
    if not 0 < alpha < 1:
        raise InvalidArgumentError("alpha must be in (0, 1)")
    test_ids = sorted(keys)
    if len(test_ids) != 2:
        raise InvalidArgumentError(f"expected exactly 2 answer keys, got {len(test_ids)}")
    first, second = test_ids
    groups: dict[str, list[StudentRecord]] = {"A": [], "B": []}
    for record in records:
        if record.group in groups:
            groups[record.group].append(record)
    for name, members in groups.items():
        if not members:
            raise ValidationError(f"group {name} is empty")

    bloom_seq = tuple(BloomLevel)
    bloom_levels = sorted(
        {q.bloom for test_id in test_ids for item in keys[test_id] for q in item.questions
         if q.bloom is not None},
        key=bloom_seq.index,
    )
    report: dict[str, Any] = {"alpha": alpha, "tests": test_ids, "groups": {}}
    # group -> test id or "retention_delta" -> the students' IMMS means or deltas
    imms_samples: dict[str, dict[str, list[float]]] = {}

    for name, members in groups.items():
        results: dict[str, list[TestResult]] = {test_id: [] for test_id in test_ids}
        for test_id, sheets in results.items():
            for member in members:
                if test_id not in member.test_answers:
                    raise ValidationError(f"{member.student_id} has no answers for {test_id}")
                sheets.append(score_test(member.test_answers[test_id], keys[test_id]))
        before = [float(result.score) for result in results[first]]
        after = [float(result.score) for result in results[second]]
        deltas = [b - a for a, b in zip(before, after)]
        score_test_stat = _paired_wilcoxon(before, after)
        delta_mean, delta_std = mean_std(deltas)

        bloom_section = {}
        for level in bloom_levels:
            per_student = [
                POINTS_PER_QUESTION * (b.correct_by_bloom.get(level, (0, 0))[0]
                                       - a.correct_by_bloom.get(level, (0, 0))[0])
                for a, b in zip(results[first], results[second])
            ]
            b_mean, b_std = mean_std(per_student)
            bloom_section[level.value] = {"delta_mean": b_mean, "delta_std": b_std}

        turnaround_section: dict[str, Any] = {}
        have_times = all(
            first in m.turnaround_minutes and second in m.turnaround_minutes for m in members
        )
        if have_times:
            t_before = [m.turnaround_minutes[first] for m in members]
            t_after = [m.turnaround_minutes[second] for m in members]
            tb_mean, tb_std = mean_std(t_before)
            ta_mean, ta_std = mean_std(t_after)
            t_stat = _paired_wilcoxon(t_before, t_after)
            turnaround_section = {
                first: {"mean": tb_mean, "std": tb_std},
                second: {"mean": ta_mean, "std": ta_std},
                "wilcoxon": t_stat,
                "significant": t_stat["p_value"] < alpha,
            }

        per_member = {test_id: [_imms_mean(m, test_id) for m in members] for test_id in test_ids}
        samples = imms_samples[name] = {
            test_id: [mean for mean in means if mean is not None]
            for test_id, means in per_member.items()
        }
        samples["retention_delta"] = [
            m2 - m1 for m1, m2 in zip(per_member[first], per_member[second])
            if m1 is not None and m2 is not None
        ]
        imms_section: dict[str, Any] = {}
        for test_id in test_ids:
            means = samples[test_id]
            if means:
                m_mean, m_std = mean_std(means)
                imms_section[test_id] = {"mean": m_mean, "std": m_std, "n": len(means)}

        b_mean, b_std = mean_std(before)
        a_mean, a_std = mean_std(after)
        report["groups"][name] = {
            "n": len(members),
            "scores": {
                first: {"mean": b_mean, "std": b_std},
                second: {"mean": a_mean, "std": a_std},
            },
            "score_delta": {
                "mean": delta_mean,
                "std": delta_std,
                "wilcoxon": score_test_stat,
                "significant": score_test_stat["p_value"] < alpha,
            },
            "bloom_deltas": bloom_section,
            "turnaround": turnaround_section,
            "imms": imms_section,
        }

    between: dict[str, Any] = {}
    for key in (*test_ids, "retention_delta"):
        sample_a, sample_b = (imms_samples[name][key] for name in groups)
        if sample_a and sample_b:
            stat = mann_whitney_u(sample_a, sample_b, sides="two").to_dict()
            between[key] = {"mannwhitney": stat, "significant": stat["p_value"] < alpha}
    if between:
        report["imms_between_groups"] = between
    return report


def render_report_text(report: Mapping[str, Any]) -> str:
    """Plain-text table for the experiment report."""
    lines = [f"Experiment report (alpha = {report['alpha']})"]
    first, second = report["tests"]
    for name, group in report["groups"].items():
        lines.append(f"Group {name} (n={group['n']})")
        for test_id in (first, second):
            s = group["scores"][test_id]
            lines.append(f"  score {test_id}: {s['mean']:.2f} ± {s['std']:.2f}")
        delta = group["score_delta"]
        mark = "significant" if delta["significant"] else "not significant"
        lines.append(
            f"  score delta: {delta['mean']:+.2f} ± {delta['std']:.2f} "
            f"(Wilcoxon p = {delta['wilcoxon']['p_value']:.5g}, {mark})"
        )
        for level, entry in group["bloom_deltas"].items():
            lines.append(
                f"  {level} delta: {entry['delta_mean']:+.2f} ± {entry['delta_std']:.2f}"
            )
        if group["turnaround"]:
            t = group["turnaround"]
            lines.append(
                f"  turnaround: {t[first]['mean']:.2f} -> {t[second]['mean']:.2f} min "
                f"(Wilcoxon p = {t['wilcoxon']['p_value']:.5g})"
            )
        for test_id, entry in group["imms"].items():
            lines.append(
                f"  IMMS {test_id}: {entry['mean']:.2f} ± {entry['std']:.2f} (n={entry['n']})"
            )
    for key, entry in report.get("imms_between_groups", {}).items():
        mark = "significant" if entry["significant"] else "not significant"
        lines.append(
            f"IMMS {key} A vs B: Mann-Whitney p = {entry['mannwhitney']['p_value']:.5g} ({mark})"
        )
    return "\n".join(lines) + "\n"
