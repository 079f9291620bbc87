"""Validation tests: judging, agreement stats, review queue, QA report."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import socket
import subprocess
import sys

import pytest

from conftest import make_question, mock_gateway, reference_tokenize
from transcreate.corpus import BloomLevel, ReadingItem
from transcreate.pipeline import RecordStatus, TranscreationRecord, load_templates
from transcreate.validation import (
    AlreadyDecidedError,
    BloomJudge,
    ConcurrentReviewError,
    EmptyVerdictSetError,
    FlaggedQuestionError,
    IncompleteRecordError,
    MalformedQueueError,
    JudgeFailure,
    JudgeVerdict,
    PendingEntriesError,
    QueueExistsError,
    QueueLock,
    ReviewDecision,
    ReviewQueue,
    UnknownItemError,
    agreement_report,
    cohen_kappa,
    parse_question_numbers,
    qa_report,
    run_review_session,
)

R = BloomLevel.REMEMBER
U = BloomLevel.UNDERSTAND
A = BloomLevel.ANALYZE


def complete_record(record_id="r1", n_questions=5, blooms=None, student=None):
    blooms = blooms or [list(BloomLevel)[i % 6] for i in range(n_questions)]
    item = ReadingItem(
        id=record_id,
        passage="Original text. It has sentences.",
        questions=tuple(make_question(i) for i in range(n_questions)),
    )
    questions = tuple(
        make_question(i, blooms[i].value) for i in range(n_questions)
    )
    return TranscreationRecord(
        source=item,
        target_topic="7.a",
        student_id=student,
        question_blooms=tuple(blooms),
        transcreated_passage="A new passage about tennis. It mirrors the source.",
        transcreated_questions=questions,
        status=RecordStatus(),
    )


def make_judge(replies, **kwargs):
    gateway = mock_gateway({"judge_bloom": replies})
    template = load_templates()["judge_bloom"]
    return BloomJudge(gateway, template, **kwargs)


class TestJudge:
    def test_all_match(self):
        record = complete_record(blooms=[A] * 5)
        judge = make_judge(["Analyze"] * 5)
        failures = []
        verdicts = judge.judge_record(record, failures=failures)
        assert len(verdicts) == 5 and failures == []
        assert all(v.match for v in verdicts)

    def test_mismatch(self):
        record = complete_record(n_questions=1, blooms=[A])
        judge = make_judge(["Understand"])
        failures = []
        verdicts = judge.judge_record(record, failures=failures)
        assert failures == []
        assert verdicts[0].match is False
        assert verdicts[0].judged_bloom is U

    def test_verdicts_in_question_order(self):
        record = complete_record(n_questions=5, blooms=[R, U, A, R, U])
        judge = make_judge(["Remember", "Understand", "Analyze", "Remember", "Understand"])
        failures = []
        verdicts = judge.judge_record(record, failures=failures)
        assert failures == []
        assert [v.question_idx for v in verdicts] == [0, 1, 2, 3, 4]
        assert all(v.match for v in verdicts)

    def test_retry_on_bad_label(self):
        record = complete_record(n_questions=1, blooms=[A])
        judge = make_judge(["Comprehend", "Analyze"])
        exchanges, failures = [], []
        verdicts = judge.judge_record(record, exchanges, failures=failures)
        assert verdicts[0].match and failures == []
        first, retry = exchanges
        assert retry.user == (
            first.user
            + "\n\nYour previous reply was rejected: not a Bloom level: 'Comprehend'"
            + "\nReply with exactly one of the six level names."
        )

    def test_exhausted_question_is_collected_as_a_failure(self):
        record = complete_record(n_questions=2, blooms=[A, U])
        failures = []
        judge = make_judge(["Comprehend"] * 4 + ["Understand"])
        verdicts = judge.judge_record(record, failures=failures)
        assert [(v.question_idx, v.judged_bloom) for v in verdicts] == [(1, U)]
        assert failures == [JudgeFailure(
            "r1", 0, "InvalidBloomReplyError: not a Bloom level: 'Comprehend'")]

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="retry_budget must be >= 0"):
            make_judge(["Analyze"], retry_budget=-1)

    def test_rejects_incomplete_record(self):
        record = complete_record()
        record.status = RecordStatus.failed(3, "RoundTripViolationError: nope")
        judge = make_judge([])
        with pytest.raises(IncompleteRecordError):
            judge.judge_record(record, failures=[])


class TestAgreementReport:
    def verdicts(self, pairs):
        return [
            JudgeVerdict(item_id="r1", question_idx=i, source_bloom=s, judged_bloom=j)
            for i, (s, j) in enumerate(pairs)
        ]

    def test_perfect_agreement(self):
        report = agreement_report(self.verdicts([(R, R), (U, U)] * 5))
        assert report.accuracy == 1.0
        assert report.kappa == 1.0
        assert report.n == 10

    def test_hand_computed_case(self):
        # sources [A,A,B,B] judged [A,B,B,B]: p_o = 0.75, p_e = 0.5, kappa = 0.5
        report = agreement_report(self.verdicts([(R, R), (R, U), (U, U), (U, U)]))
        assert report.accuracy == pytest.approx(0.75)
        assert report.kappa == pytest.approx(0.5)

    def test_degenerate_single_label(self):
        report = agreement_report(self.verdicts([(A, A)] * 7))
        assert report.accuracy == 1.0
        assert report.kappa is None
        assert report.to_dict()["kappa"] == "NotDefined"

    def test_accuracy_equals_match_rate(self):
        pairs = [(R, R), (R, U), (U, U), (A, R), (A, A)]
        verdicts = self.verdicts(pairs)
        report = agreement_report(verdicts)
        assert report.accuracy == sum(v.match for v in verdicts) / len(verdicts)

    def test_empty_rejected(self):
        with pytest.raises(EmptyVerdictSetError):
            agreement_report([])

    def test_confusion_orientation(self):
        report = agreement_report(self.verdicts([(R, U)]))
        # row = source (Remember, idx 0), col = judged (Understand, idx 1)
        assert report.confusion[0][1] == 1


class TestCohenKappa:
    def test_independent_marginals_zero(self):
        # rows proportional to columns: p_o == p_e == 0.5 -> kappa 0
        assert cohen_kappa([[4, 1], [4, 1]]) == pytest.approx(0.0)

    def test_perfect_disagreement(self):
        assert cohen_kappa([[0, 5], [5, 0]]) == pytest.approx(-1.0)

    def test_diagonal_two_labels(self):
        assert cohen_kappa([[5, 0], [0, 5]]) == 1.0


class TestReviewQueue:
    def records(self, n=4):
        return [complete_record(f"r{i}") for i in range(1, n + 1)]

    def test_open_creates_pending_entries(self, tmp_path):
        queue = ReviewQueue.open_new(self.records(4), tmp_path / "q.json")
        assert len(queue.pending()) == 4

    def test_reopen_without_force(self, tmp_path):
        path = tmp_path / "q.json"
        ReviewQueue.open_new(self.records(1), path)
        with pytest.raises(QueueExistsError):
            ReviewQueue.open_new(self.records(1), path)

    def test_reopen_with_force(self, tmp_path):
        path = tmp_path / "q.json"
        ReviewQueue.open_new(self.records(1), path)
        queue = ReviewQueue.open_new(self.records(2), path, force=True)
        assert len(queue.entries) == 2

    def test_empty_records_empty_queue(self, tmp_path):
        queue = ReviewQueue.open_new([], tmp_path / "q.json")
        assert queue.pending() == []

    def decision(self, record_id, verdict="accept", **kwargs):
        return ReviewDecision(
            item_id=record_id,
            verdict=verdict,
            reviewer_id="expert-1",
            timestamp="2025-02-10T00:00:00+00:00",
            **kwargs,
        )

    def test_edit_counts_added_words(self, tmp_path):
        queue = ReviewQueue.open_new(self.records(1), tmp_path / "q.json")
        entry = queue.entries["r1"]
        new_passage = "In 1997, " + entry.passage
        applied = queue.apply(
            self.decision("r1", "edit", new_passage=new_passage)
        )
        assert applied.decision.added_word_count == 2
        assert applied.passage == new_passage

    def test_added_words_count_as_the_reference_pattern(self, tmp_path):
        record = dataclasses.replace(
            complete_record(), transcreated_passage="Zoë’s café didn’t open. It rained."
        )
        queue = ReviewQueue.open_new([record], tmp_path / "q.json")
        new_passage = "Naïve Zoë’s snake_case café didn’t open. It’s rained all day."
        applied = queue.apply(self.decision("r1", "edit", new_passage=new_passage))
        before = len(reference_tokenize(record.transcreated_passage))
        assert applied.decision.added_word_count == len(reference_tokenize(new_passage)) - before == 5

    def test_accept_keeps_passage(self, tmp_path):
        queue = ReviewQueue.open_new(self.records(1), tmp_path / "q.json")
        before = queue.entries["r1"].passage
        applied = queue.apply(self.decision("r1"))
        assert applied.passage == before
        assert applied.decision.added_word_count == 0

    def test_double_decision_rejected(self, tmp_path):
        queue = ReviewQueue.open_new(self.records(1), tmp_path / "q.json")
        queue.apply(self.decision("r1"))
        with pytest.raises(AlreadyDecidedError):
            queue.apply(self.decision("r1", "reject", reason="dup"))

    def test_unknown_item(self, tmp_path):
        queue = ReviewQueue.open_new(self.records(1), tmp_path / "q.json")
        with pytest.raises(UnknownItemError):
            queue.apply(self.decision("missing"))

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "q.json"
        queue = ReviewQueue.open_new(self.records(2), path)
        queue.apply(self.decision("r1", "edit", new_passage="Rewritten. Entirely new."))
        queue.save()
        loaded = ReviewQueue.load(path)
        assert loaded.entries["r1"].passage == "Rewritten. Entirely new."
        assert len(loaded.log) == 1
        assert loaded.pending()[0].record_id == "r2"

    def test_replaying_log_reproduces_state(self, tmp_path):
        queue = ReviewQueue.open_new(self.records(3), tmp_path / "q.json")
        queue.apply(self.decision("r2", "edit", new_passage="Different text here now."))
        queue.apply(self.decision("r1", "reject", reason="off topic"))
        queue.apply(self.decision("r3", unanswerable_questions=(1,)))
        replayed = queue.replay(queue.log)
        assert {rid: e.to_dict() for rid, e in replayed.entries.items()} == {
            rid: e.to_dict() for rid, e in queue.entries.items()
        }

    @pytest.mark.parametrize("flags", [(5,), (-1,), (0, 0), (1, 1, 1)])
    def test_bad_flags_rejected(self, tmp_path, flags):
        # these entries have five questions: valid indices are 0..4
        queue = ReviewQueue.open_new(self.records(1), tmp_path / "q.json")
        with pytest.raises(FlaggedQuestionError):
            queue.apply(self.decision("r1", unanswerable_questions=flags))
        assert queue.pending() and queue.log == []

    @pytest.mark.parametrize("data, reason", [
        ({"entries": []}, "missing field 'log'"),
        ({"log": []}, "missing field 'entries'"),
        ([], "list indices"),
        ({"entries": [5], "log": []}, "has no attribute"),
        ({"entries": [], "log": [{"item_id": "r1"}]}, "missing field 'verdict'"),
    ])
    def test_load_rejects_wrong_shape(self, tmp_path, data, reason):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedQueueError, match=f"bad queue .*{reason}"):
            ReviewQueue.load(path)

    def test_load_rejects_bad_flags(self, tmp_path):
        path = tmp_path / "q.json"
        queue = ReviewQueue.open_new(self.records(1), path)
        queue.apply(self.decision("r1", unanswerable_questions=(1,)))
        queue.save()
        data = json.loads(path.read_text())
        data["entries"][0]["decision"]["unanswerable_questions"] = [0, 0, 0, 8]
        path.write_text(json.dumps(data))
        with pytest.raises(FlaggedQuestionError):
            ReviewQueue.load(path)

    QUEUE_TEXTS = [
        "Plain passage. Two sentences.",
        "Café «naïve» — 東京 ١٢٣!",
        'He said "hi" \\ then\nleft.\r\n',
        "tab\there\u2028line separator\u00a0done",
        "{\"entries\": []}\n  ],",
    ]

    @staticmethod
    def full_encoding(queue):
        return json.dumps(
            {"entries": [entry.to_dict() for entry in queue.entries.values()],
             "log": [decision.to_dict() for decision in queue.log]},
            ensure_ascii=False, indent=2,
        ) + "\n"

    def random_decision(self, rng, entry):
        verdict = rng.choice(["accept", "edit", "reject"])
        flags = sorted(rng.sample(range(len(entry.questions)),
                                  rng.randint(0, len(entry.questions))))
        return self.decision(
            entry.record_id, verdict,
            new_passage=rng.choice(self.QUEUE_TEXTS) if verdict == "edit" else None,
            reason=rng.choice(self.QUEUE_TEXTS) if verdict == "reject" else None,
            unanswerable_questions=tuple(flags),
        )

    def test_every_save_equals_the_full_encoding(self, tmp_path):
        # Only changed entries are re-encoded; the file must still be exactly
        # what encoding the whole queue writes, after every save.
        rng = random.Random(31337)
        for session in range(80):
            path = tmp_path / f"q{session}.json"
            records = [
                dataclasses.replace(
                    complete_record(rng.choice([f"r{i}", f'r{i} "é"\\']), rng.randint(1, 5)),
                    transcreated_passage=rng.choice(self.QUEUE_TEXTS),
                )
                for i in range(rng.choice([0, 1, 2, 5]))
            ]
            queue = ReviewQueue.open_new(records, path)
            assert path.read_text(encoding="utf-8") == self.full_encoding(queue)
            while queue.pending():
                for entry in rng.sample(queue.pending(), rng.randint(1, len(queue.pending()))):
                    queue.apply(self.random_decision(rng, entry))
                    if rng.random() < 0.7:
                        break
                queue.save()
                if rng.random() < 0.2:
                    queue.save()  # nothing changed
                assert path.read_text(encoding="utf-8") == self.full_encoding(queue)
                if rng.random() < 0.3:
                    # A loaded queue saves the identical file, and goes on from there.
                    before = path.read_bytes()
                    queue = ReviewQueue.load(path)
                    queue.save()
                    assert path.read_bytes() == before
            assert len(queue.log) == len(records)

    def test_load_then_save_rewrites_an_identical_file(self, tmp_path):
        path = tmp_path / "q.json"
        queue = ReviewQueue.open_new(self.records(3), path)
        queue.apply(self.decision("r2", "edit", new_passage="Nouveau «texte». Fini!"))
        queue.apply(self.decision("r1", "reject", reason='says "no"',
                                  unanswerable_questions=(0, 4)))
        queue.save()
        before = path.read_bytes()
        ReviewQueue.load(path).save()
        assert path.read_bytes() == before

    def test_lock_excludes_second_session(self, tmp_path):
        path = tmp_path / "q.json"
        with QueueLock(path):
            with pytest.raises(ConcurrentReviewError):
                QueueLock(path).__enter__()
        # released: can lock again
        with QueueLock(path):
            pass

    def write_lock(self, path, owner):
        lock = QueueLock(path).lock_path
        lock.write_text(owner if isinstance(owner, str) else json.dumps(owner))
        return lock

    def test_lock_names_its_owner(self, tmp_path):
        path = tmp_path / "q.json"
        with QueueLock(path) as lock:
            owner = json.loads(lock.lock_path.read_text())
        assert owner == {"pid": os.getpid(), "host": socket.gethostname()}

    def test_lock_of_exited_process_is_taken_over(self, tmp_path):
        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        path = tmp_path / "q.json"
        lock = self.write_lock(path, {"pid": int(child.stdout), "host": socket.gethostname()})
        with QueueLock(path):
            assert json.loads(lock.read_text())["pid"] == os.getpid()
        assert not lock.exists()

    def test_lock_of_live_process_is_refused(self, tmp_path):
        path = tmp_path / "q.json"
        live = os.getppid()  # a running process other than this one
        lock = self.write_lock(path, {"pid": live, "host": socket.gethostname()})
        with pytest.raises(ConcurrentReviewError, match=f"pid {live} on "):
            QueueLock(path).__enter__()
        assert lock.exists()

    def test_lock_naming_this_pid_is_stale_unless_held_here(self, tmp_path, monkeypatch):
        # A crashed session whose restart got the same pid on the same host.
        path = tmp_path / "q.json"
        lock = self.write_lock(path, {"pid": os.getpid(), "host": socket.gethostname()})
        with QueueLock(path):
            assert json.loads(lock.read_text())["pid"] == os.getpid()
            monkeypatch.chdir(tmp_path)
            with pytest.raises(ConcurrentReviewError, match=f"pid {os.getpid()} on "):
                QueueLock("q.json").__enter__()  # the same lock, held here
        assert not lock.exists()

    def test_crash_before_the_owner_is_written_leaves_no_lock(self, tmp_path, monkeypatch):
        def crash(fd, data):
            raise OSError("crashed mid-write")

        monkeypatch.setattr(os, "write", crash)
        with pytest.raises(OSError, match="crashed mid-write"):
            QueueLock(tmp_path / "q.json").__enter__()
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        with QueueLock(tmp_path / "q.json"):
            pass

    def test_lock_of_other_host_is_refused(self, tmp_path):
        path = tmp_path / "q.json"
        self.write_lock(path, {"pid": 1, "host": socket.gethostname() + ".elsewhere"})
        with pytest.raises(ConcurrentReviewError, match="elsewhere"):
            QueueLock(path).__enter__()

    @pytest.mark.parametrize("content", ["", "not json", '{"pid": 0, "host": "h"}', "[]",
                                         '{"pid": 99999999999999999999, "host": "h"}'])
    def test_lock_without_owner_is_refused(self, tmp_path, content):
        path = tmp_path / "q.json"
        lock = self.write_lock(path, content)
        with pytest.raises(ConcurrentReviewError, match="names no owner") as err:
            QueueLock(path).__enter__()
        assert str(lock) in str(err.value)
        assert lock.read_text() == content


class TestQaReport:
    def build_queue(self, tmp_path, n_records, decide):
        records = [complete_record(f"r{i}", n_questions=6) for i in range(1, n_records + 1)]
        queue = ReviewQueue.open_new(records, tmp_path / "qa.json")
        decide(queue)
        return queue

    def decision(self, record_id, verdict="accept", **kwargs):
        return ReviewDecision(
            item_id=record_id,
            verdict=verdict,
            reviewer_id="expert-1",
            timestamp="2025-02-10T00:00:00+00:00",
            **kwargs,
        )

    def test_rate_rounds_half_up_to_one_decimal(self, tmp_path):
        # 6 records x 6 questions = 36; one flagged -> renders "2.8%"
        def decide(queue):
            ids = sorted(queue.entries)
            queue.apply(self.decision(ids[0], unanswerable_questions=(2,)))
            for record_id in ids[1:]:
                queue.apply(self.decision(record_id))

        queue = self.build_queue(tmp_path, 6, decide)
        report = qa_report(queue)
        assert report.total_questions == 36
        assert report.flagged_unanswerable == 1
        assert report.unanswerable_rate == pytest.approx(1 / 36)
        assert report.rendered_rate() == "2.8%"

    def test_mean_added_words(self, tmp_path):
        def decide(queue):
            additions = {"r1": "one two ", "r2": "three four ", "r3": "five "}
            for record_id, prefix in additions.items():
                entry = queue.entries[record_id]
                queue.apply(
                    self.decision(record_id, "edit", new_passage=prefix + entry.passage)
                )

        queue = self.build_queue(tmp_path, 3, decide)
        report = qa_report(queue)
        assert report.edited_passages == 3
        # added word counts [2, 2, 1], hand mean 5/3
        assert report.mean_added_words == pytest.approx(5 / 3)

    def test_zero_flagged(self, tmp_path):
        def decide(queue):
            for record_id in queue.entries:
                queue.apply(self.decision(record_id))

        report = qa_report(self.build_queue(tmp_path, 2, decide))
        assert report.unanswerable_rate == 0.0
        assert report.rendered_rate() == "0.0%"

    def test_pending_entries_rejected(self, tmp_path):
        queue = self.build_queue(tmp_path, 2, lambda q: None)
        with pytest.raises(PendingEntriesError) as err:
            qa_report(queue)
        assert err.value.count == 2


class TestInteractiveSession:
    def test_scripted_session(self, tmp_path):
        records = [complete_record("r1", 2), complete_record("r2", 2)]
        queue = ReviewQueue.open_new(records, tmp_path / "q.json")
        # r1: accept with question 1 flagged; r2: edit, no flags.
        stdin = io.StringIO(
            "a\n"
            "1\n"
            "e\n"
            "A fully rewritten passage. Better now.\n"
            ".\n"
            "\n"
        )
        stdout = io.StringIO()
        decided = run_review_session(queue, "expert-1", stdin, stdout)
        assert decided == 2
        assert queue.pending() == []
        assert queue.entries["r1"].decision.unanswerable_questions == (0,)
        assert queue.entries["r2"].passage.startswith("A fully rewritten")
        # the queue file was saved along the way
        loaded = ReviewQueue.load(tmp_path / "q.json")
        assert loaded.pending() == []

    def test_quit_preserves_pending(self, tmp_path):
        records = [complete_record("r1", 2), complete_record("r2", 2)]
        queue = ReviewQueue.open_new(records, tmp_path / "q.json")
        stdin = io.StringIO("a\n\nq\n")
        decided = run_review_session(queue, "expert-1", stdin, io.StringIO())
        assert decided == 1
        assert len(queue.pending()) == 1

    def test_bad_flags_are_asked_again(self, tmp_path):
        queue = ReviewQueue.open_new([complete_record("r1", 2)], tmp_path / "q.json")
        stdin = io.StringIO("a\n1,1,1,9,0\nx\n2, 1,2\n")
        stdout = io.StringIO()
        run_review_session(queue, "expert-1", stdin, stdout)
        assert queue.entries["r1"].decision.unanswerable_questions == (0, 1)
        assert "question 9 is not in 1..2" in stdout.getvalue()
        assert "'x' is not a question number" in stdout.getvalue()
        report = qa_report(queue)
        assert report.flagged_unanswerable == 2
        assert report.rendered_rate() == "100.0%"

    def test_parse_question_numbers(self):
        assert parse_question_numbers("", 3) == ()
        assert parse_question_numbers(" 3, 1,,3 ", 3) == (0, 2)
        for bad in ("0", "4", "1;2", "-1"):
            with pytest.raises(ValueError):
                parse_question_numbers(bad, 3)

    def test_reject_records_reason(self, tmp_path):
        records = [complete_record("r1", 2)]
        queue = ReviewQueue.open_new(records, tmp_path / "q.json")
        stdin = io.StringIO("r\noff topic\n\n")
        run_review_session(queue, "expert-1", stdin, io.StringIO())
        assert queue.entries["r1"].decision.verdict == "reject"
        assert queue.entries["r1"].decision.reason == "off topic"
