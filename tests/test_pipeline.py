"""Pipeline tests: tagging round trips, step contracts, provenance, assignment."""

from __future__ import annotations

import gc
import json
import random
import re
import threading
import time
import types
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    BLOOM_CYCLE,
    FIXTURE_TAGS,
    build_mock_script,
    make_item,
    mock_gateway,
    questions_reply,
    reference_tokenize,
    tagged_reply,
    themed_passage_reply,
    v1_rendering,
    v2_rendering,
)
from transcreate.corpus import BloomLevel, Question, UnknownTopicError
from transcreate.errors import ValidationError
from transcreate.gateway import Gateway
from transcreate.pipeline import (
    InvalidBloomReplyError,
    InvalidTopicReplyError,
    LengthViolationError,
    MissingProfileError,
    STEP_NAMES,
    STEP_RETRY_LINE,
    RoundTripViolationError,
    StructureViolationError,
    TagInsertion,
    TagMultisetMismatchError,
    TagPlacementError,
    TaggedPassage,
    TranscreationPipeline,
    TranscreationRecord,
    UnknownTagError,
    Work,
    assign_topics,
    load_records,
    load_templates,
    parse_tagged_reply,
    questions_payload,
    save_records,
    strip_tags,
)


def make_pipeline(script, taxonomy, tagset, **kwargs):
    return TranscreationPipeline(mock_gateway(script), taxonomy, tagset, **kwargs)


class TestStripTags:
    def test_basic(self):
        assert strip_tags("A.[[T:x]] B.") == "A. B."

    def test_identity_without_tags(self):
        assert strip_tags("No tags here.") == "No tags here."

    def test_adjacent_tags(self):
        assert strip_tags("[[T:a]][[T:b]]Hi.") == "Hi."

    def test_idempotent(self):
        text = "One.[[T:x]] Two.[[T:y]] Three."
        once = strip_tags(text)
        assert strip_tags(once) == once

    def test_nested_cannot_survive(self):
        # Stripping loops to a fixpoint, so re-formed tokens disappear too.
        tricky = "[[T:a[[T:b]]c]]Done."
        stripped = strip_tags(tricky)
        assert "[[T:" not in stripped


class TestTaggedPassage:
    def test_render_and_strip_round_trip(self):
        original = "First point. Second point! Third point?"
        tagged = TaggedPassage(
            original=original,
            insertions=(
                TagInsertion("past-simple", 12),
                TagInsertion("passive-voice", 26),
            ),
        )
        rendered = tagged.render()
        assert rendered == (
            "First point.[[T:past-simple]] Second point![[T:passive-voice]] Third point?"
        )
        assert strip_tags(rendered) == original

    def test_positions_must_follow_terminals(self):
        with pytest.raises(TagPlacementError):
            TaggedPassage("First point. More.", (TagInsertion("x", 5),))

    def test_positions_non_decreasing(self):
        with pytest.raises(TagPlacementError):
            TaggedPassage(
                "One. Two.", (TagInsertion("a", 9), TagInsertion("b", 4))
            )

    def test_multiple_tags_same_position(self):
        tagged = TaggedPassage(
            "One. Two.", (TagInsertion("a", 4), TagInsertion("b", 4))
        )
        assert tagged.render() == "One.[[T:a]][[T:b]] Two."

    def test_round_trip_randomized(self, tagset):
        rng = random.Random(99)
        tag_pool = list(tagset.ids())
        words = ["rain", "falls", "students", "read", "books", "daily", "here"]
        for _ in range(300):
            n_sentences = rng.randint(1, 6)
            sentences = []
            for _ in range(n_sentences):
                body = " ".join(rng.choice(words) for _ in range(rng.randint(1, 7)))
                sentences.append(body.capitalize() + rng.choice(".!?"))
            original = " ".join(sentences)
            ends = []
            cursor = 0
            for sentence in sentences:
                cursor += len(sentence)
                ends.append(cursor)
                cursor += 1  # the joining space
            insertions = sorted(
                (
                    TagInsertion(rng.choice(tag_pool), rng.choice(ends))
                    for _ in range(rng.randint(0, 4))
                ),
                key=lambda ins: ins.position,
            )
            tagged = TaggedPassage(original, tuple(insertions))
            assert strip_tags(tagged.render()) == original
            reparsed = parse_tagged_reply(tagged.render(), original, tagset)
            assert reparsed == tagged


class TestParseTaggedReply:
    def test_well_formed(self, tagset):
        original = "One sentence. Another sentence."
        reply = "One sentence.[[T:passive-voice]] Another sentence."
        tagged = parse_tagged_reply(reply, original, tagset)
        assert tagged.tag_ids() == ["passive-voice"]
        assert tagged.insertions[0].position == 13

    def test_paraphrase_rejected(self, tagset):
        original = "One sentence. Another sentence."
        reply = "One phrase.[[T:passive-voice]] Another sentence."
        with pytest.raises(RoundTripViolationError):
            parse_tagged_reply(reply, original, tagset)

    def test_unknown_tag(self, tagset):
        original = "One sentence."
        reply = "One sentence.[[T:bogus]]"
        with pytest.raises(UnknownTagError) as err:
            parse_tagged_reply(reply, original, tagset)
        assert err.value.tag_id == "bogus"

    def test_midsentence_tag_rejected(self, tagset):
        original = "One sentence. Another."
        reply = "One [[T:passive-voice]]sentence. Another."
        with pytest.raises(TagPlacementError):
            parse_tagged_reply(reply, original, tagset)


class TestExtractTopic:
    def test_valid_code(self, taxonomy, tagset):
        item = make_item("i1", "They cleaned the house. Chores took all day.")
        pipe = make_pipeline({"extract_topic": ["2.b"]}, taxonomy, tagset)
        assert pipe.extract_topic(item) == "2.b"

    def test_invalid_code_retries_then_fails(self, taxonomy, tagset):
        item = make_item("i1", "Some passage. Words here.")
        pipe = make_pipeline({"extract_topic": ["9.z"] * 4}, taxonomy, tagset)
        with pytest.raises(InvalidTopicReplyError):
            pipe.extract_topic(item)

    def test_recovers_after_corrective_retry(self, taxonomy, tagset):
        item = make_item("i1", "Some passage. Words here.")
        pipe = make_pipeline({"extract_topic": ["nonsense", "2.b"]}, taxonomy, tagset)
        exchanges: list = []
        assert pipe.extract_topic(item, exchanges) == "2.b"
        assert len(exchanges) == 2
        assert "rejected" in exchanges[1].user

    def test_negative_retry_budget_rejected(self, taxonomy, tagset):
        with pytest.raises(ValueError, match="retry_budget must be >= 0"):
            make_pipeline({"extract_topic": ["2.b"]}, taxonomy, tagset, retry_budget=-1)

    def test_blank_passage_precondition(self, taxonomy, tagset):
        from types import SimpleNamespace

        pipe = make_pipeline({"extract_topic": ["2.b"]}, taxonomy, tagset)
        with pytest.raises(Exception, match="empty passage"):
            pipe.extract_topic(SimpleNamespace(passage="   "))


class TestClassifyQuestion:
    def test_passthrough(self, taxonomy, tagset):
        pipe = make_pipeline({"classify_question": ["Analyze"]}, taxonomy, tagset)
        question = make_item("i", "One. Two.").questions[0]
        assert pipe.classify_question(question) is BloomLevel.ANALYZE

    def test_whitespace_and_case(self, taxonomy, tagset):
        pipe = make_pipeline({"classify_question": [" remember\n"]}, taxonomy, tagset)
        question = make_item("i", "One. Two.").questions[0]
        assert pipe.classify_question(question) is BloomLevel.REMEMBER

    def test_non_level_rejected(self, taxonomy, tagset):
        pipe = make_pipeline({"classify_question": ["Comprehend"] * 4}, taxonomy, tagset)
        question = make_item("i", "One. Two.").questions[0]
        with pytest.raises(InvalidBloomReplyError):
            pipe.classify_question(question)

    def test_corrective_prompt_text(self, taxonomy, tagset):
        pipe = make_pipeline({"classify_question": ["Comprehend", "Analyze"]}, taxonomy, tagset)
        question = make_item("i", "One. Two.").questions[0]
        exchanges = []
        assert pipe.classify_question(question, exchanges) is BloomLevel.ANALYZE
        first, retry = exchanges
        assert retry.user == (
            first.user
            + "\n\nYour previous reply was rejected: not a Bloom level: 'Comprehend'"
            + "\nReply again following the required format exactly."
        )


class TestTagFeatures:
    def test_well_formed_reply(self, taxonomy, tagset):
        item = make_item("i1", "First sentence. Second sentence.")
        reply = "First sentence. Second sentence.[[T:passive-voice]]"
        pipe = make_pipeline({"tag_features": [reply]}, taxonomy, tagset)
        tagged = pipe.tag_features(item)
        assert tagged.tag_ids() == ["passive-voice"]

    def test_paraphrased_reply_fails_all_retries(self, taxonomy, tagset):
        item = make_item("i1", "First sentence. Second sentence.")
        reply = "A different text.[[T:passive-voice]]"
        pipe = make_pipeline({"tag_features": [reply] * 4}, taxonomy, tagset)
        with pytest.raises(RoundTripViolationError):
            pipe.tag_features(item)

    def test_unknown_tag_error(self, taxonomy, tagset):
        item = make_item("i1", "First sentence. Second sentence.")
        reply = "First sentence. Second sentence.[[T:bogus]]"
        pipe = make_pipeline({"tag_features": [reply] * 4}, taxonomy, tagset)
        with pytest.raises(UnknownTagError):
            pipe.tag_features(item)


class TestTranscreatePassage:
    def source(self):
        item = make_item("i1", "They cleaned rooms. The work was shared fairly.")
        return TaggedPassage(
            item.passage,
            (
                TagInsertion("past-simple", 19),
                TagInsertion("passive-voice", len(item.passage)),
            ),
        )

    def test_accepts_matching_tags(self, taxonomy, tagset):
        tagged = self.source()
        reply = themed_passage_reply(tagged.original, ["past-simple", "passive-voice"], "tennis")
        pipe = make_pipeline({"transcreate_passage": [reply]}, taxonomy, tagset)
        passage = pipe.transcreate_passage(tagged, "2.b", "7.a")
        assert "[[T:" not in passage
        assert passage  # non-empty stripped text

    def test_missing_tag_rejected(self, taxonomy, tagset):
        tagged = self.source()
        reply = themed_passage_reply(tagged.original, ["past-simple"], "tennis")
        pipe = make_pipeline({"transcreate_passage": [reply] * 4}, taxonomy, tagset)
        with pytest.raises(TagMultisetMismatchError):
            pipe.transcreate_passage(tagged, "2.b", "7.a")

    def test_short_reply_rejected(self, taxonomy, tagset):
        tagged = self.source()
        # 40% of the source length: far below the 25% envelope.
        reply = "Tennis now.[[T:past-simple]][[T:passive-voice]]"
        pipe = make_pipeline({"transcreate_passage": [reply] * 4}, taxonomy, tagset)
        with pytest.raises(LengthViolationError):
            pipe.transcreate_passage(tagged, "2.b", "7.a")

    def test_envelope_counts_words_as_the_reference_pattern(self, taxonomy, tagset):
        # Curly apostrophes and accented letters stay inside a word; _ splits.
        original = "Zoë didn’t rename snake_case files. The café’s owner agreed."
        tagged = TaggedPassage(
            original,
            (
                TagInsertion("past-simple", original.index(".") + 1),
                TagInsertion("passive-voice", len(original)),
            ),
        )
        assert tagged.word_count == len(reference_tokenize(original)) == 10
        tags = "[[T:past-simple]][[T:passive-voice]]"
        above = "Zoë didn’t rename the old snake_case files. The café’s owner agreed today."
        at_high = "Naïve Zoë didn’t rename her old files. The café’s owner agreed today."
        assert [len(reference_tokenize(text)) for text in (above, at_high)] == [13, 12]
        pipe = make_pipeline({"transcreate_passage": [above + tags, at_high + tags]},
                             taxonomy, tagset)
        exchanges = []
        assert pipe.transcreate_passage(tagged, "2.b", "7.a", exchanges) == at_high
        assert "(10 words)" in exchanges[0].user
        assert "13 words is outside 8..12 (source has 10)" in exchanges[1].user

    def test_unknown_target_rejected(self, taxonomy, tagset):
        tagged = self.source()
        pipe = make_pipeline({"transcreate_passage": []}, taxonomy, tagset)
        with pytest.raises(UnknownTopicError):
            pipe.transcreate_passage(tagged, "2.b", "9.z")


class TestTranscreateQuestions:
    def blooms(self, n):
        cycle = list(BloomLevel)
        return [cycle[i % len(cycle)] for i in range(n)]

    def test_structure_preserved(self, taxonomy, tagset):
        item = make_item("i1", "One. Two.", n_questions=5)
        reply = questions_reply(5, "tennis")
        pipe = make_pipeline({"transcreate_questions": [reply]}, taxonomy, tagset)
        questions = pipe.transcreate_questions("New passage.", item.questions, self.blooms(5))
        assert len(questions) == 5
        assert [q.bloom for q in questions] == self.blooms(5)

    def test_three_options_rejected(self, taxonomy, tagset):
        item = make_item("i1", "One. Two.", n_questions=3)
        payload = json.loads(questions_reply(3, "x"))
        payload[2]["options"] = payload[2]["options"][:3]
        reply = json.dumps(payload)
        pipe = make_pipeline({"transcreate_questions": [reply] * 4}, taxonomy, tagset)
        with pytest.raises(StructureViolationError) as err:
            pipe.transcreate_questions("New.", item.questions, self.blooms(3))
        assert err.value.question_idx == 2
        assert "expected 4 options" in str(err.value)

    def test_answer_letter_out_of_range(self, taxonomy, tagset):
        item = make_item("i1", "One. Two.", n_questions=1)
        payload = json.loads(questions_reply(1, "x"))
        payload[0]["answer"] = "E"
        pipe = make_pipeline(
            {"transcreate_questions": [json.dumps(payload)] * 4}, taxonomy, tagset
        )
        with pytest.raises(StructureViolationError, match="answer out of range"):
            pipe.transcreate_questions("New.", item.questions, self.blooms(1))

    def test_wrong_count_rejected(self, taxonomy, tagset):
        item = make_item("i1", "One. Two.", n_questions=2)
        reply = questions_reply(3, "x")
        pipe = make_pipeline({"transcreate_questions": [reply] * 4}, taxonomy, tagset)
        with pytest.raises(StructureViolationError, match="expected 2 questions"):
            pipe.transcreate_questions("New.", item.questions, self.blooms(2))

    def test_fenced_json_accepted(self, taxonomy, tagset):
        item = make_item("i1", "One. Two.", n_questions=1)
        reply = "```json\n" + questions_reply(1, "x") + "\n```"
        pipe = make_pipeline({"transcreate_questions": [reply]}, taxonomy, tagset)
        questions = pipe.transcreate_questions("New.", item.questions, self.blooms(1))
        assert len(questions) == 1


class TestTranscreateItem:
    def test_complete_run(self, taxonomy, tagset, fixture_items):
        item = fixture_items[0]
        script = build_mock_script([item])
        pipe = make_pipeline(script, taxonomy, tagset)
        record = pipe.transcreate_item(item, "7.a", student_id="s1", assignment_mode="interest")
        assert record.status.is_complete
        assert record.extracted_topic == "2.b"
        assert len(record.transcreated_questions) == len(item.questions)
        assert [q.bloom for q in record.transcreated_questions] == list(record.question_blooms)
        assert record.record_id == "r1:s1"
        assert strip_tags(record.tagged_source.render()) == item.passage

    def test_step3_failure_preserves_earlier_exchanges(self, taxonomy, tagset, fixture_items):
        item = fixture_items[0]
        script = build_mock_script([item])
        script["tag_features"] = ["Broken paraphrase."] * 4
        pipe = make_pipeline(script, taxonomy, tagset)
        record = pipe.transcreate_item(item, "7.a")
        assert not record.status.is_complete
        assert record.status.step == 3
        assert "RoundTripViolationError" in record.status.reason
        assert len(record.step_exchanges["extract_topic"]) == 1
        assert len(record.step_exchanges["classify_question"]) == len(item.questions)
        assert len(record.step_exchanges["tag_features"]) == 4
        assert record.transcreated_passage is None

    def test_gateway_failure_marked(self, taxonomy, tagset, fixture_items):
        item = fixture_items[0]
        script = build_mock_script([item])
        script["extract_topic"] = [{"error": "timeout"}] * 8
        pipe = make_pipeline(script, taxonomy, tagset)
        record = pipe.transcreate_item(item, "7.a")
        assert record.status.step == 1
        assert record.status.gateway_failure

    def test_unchanged_topic_noted(self, taxonomy, tagset, fixture_items):
        item = fixture_items[0]
        script = build_mock_script([item])
        pipe = make_pipeline(script, taxonomy, tagset)
        record = pipe.transcreate_item(item, "2.b")  # equals the extracted topic
        assert record.status.is_complete
        assert record.topic_unchanged

    def test_serialization_round_trip(self, taxonomy, tagset, fixture_items, tmp_path):
        item = fixture_items[0]
        pipe = make_pipeline(build_mock_script([item]), taxonomy, tagset)
        record = pipe.transcreate_item(item, "7.a", student_id="s1")
        path = tmp_path / "records.jsonl"
        save_records([record], path)
        loaded = load_records(path)
        assert len(loaded) == 1
        assert loaded[0].to_dict() == record.to_dict()

    def test_mock_determinism(self, taxonomy, tagset, fixture_items):
        item = fixture_items[0]
        records = []
        for _ in range(2):
            pipe = make_pipeline(build_mock_script([item]), taxonomy, tagset)
            records.append(pipe.transcreate_item(item, "7.a", student_id="s1"))
        assert json.dumps(records[0].to_dict()) == json.dumps(records[1].to_dict())

    def test_rejected_replies_leave_no_frame_cycles(self, taxonomy, tagset, fixture_items):
        # A kept error would hold the asking frame, and through it the
        # record's data, until the cycle collector happened to run.
        script = build_mock_script(fixture_items[:2])
        script["classify_question"].insert(0, "Comprehend")  # rejected, then accepted
        script["tag_features"][1:2] = ["mangled"] * 4  # r2 exhausts step 3
        pipe = make_pipeline(script, taxonomy, tagset)
        gc.collect()
        gc.disable()
        try:
            records = [pipe.transcreate_item(item, "7.a") for item in fixture_items[:2]]
            assert [record.status.step for record in records] == [None, 3]
            del records, pipe
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            frames = [obj.f_code.co_name for obj in gc.garbage
                      if isinstance(obj, types.FrameType)
                      and "transcreate" in obj.f_code.co_filename]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert frames == []


class PromptBackend:
    """Thread-safe fake provider: each reply is chosen from the prompt it answers.

    Replies do not depend on call order, so any schedule of workers gets the
    same records. Items in ``broken_tagging`` get a paraphrase at step 3.
    """

    def __init__(self, items, broken_tagging=()):
        self.items = items
        self.broken_tagging = set(broken_tagging)
        self.calls = Counter()
        self.rewrites = Counter()  # step 4 prompts per item id
        self.lock = threading.Lock()

    def item_in(self, prompt):
        # The first sentence survives tagging, so it marks the item in step 4 too.
        [item] = [item for item in self.items if item.passage.split(". ")[0] in prompt]
        return item

    def send(self, request, step):
        with self.lock:
            self.calls[step] += 1
        time.sleep(0.002)  # let workers overlap
        prompt = request.user
        if step == "extract_topic":
            return self.item_in(prompt).source_topic
        if step == "classify_question":
            part = int(re.search(r"part (\d+)", prompt).group(1))
            return BLOOM_CYCLE[(part - 1) % len(BLOOM_CYCLE)]
        if step == "tag_features":
            item = self.item_in(prompt)
            if item.id in self.broken_tagging:
                return "Broken paraphrase."
            return tagged_reply(item.passage, FIXTURE_TAGS)
        if step == "transcreate_passage":
            item = self.item_in(prompt)
            with self.lock:
                self.rewrites[item.id] += 1
            target = re.search(r"New topic: (\S+) \(", prompt).group(1)
            return themed_passage_reply(item.passage, FIXTURE_TAGS,
                                        "topic" + target.replace(".", ""))
        assert step == "transcreate_questions"
        return questions_reply(5, "new")


class TestTranscreateMany:
    TARGETS = {"s1": ("7.a", "8.c", "1.a"), "s2": ("9.a", "4.b", "6.c"), "s3": ("3.d", "7.a", "2.a")}

    def work(self, items):
        # Item by item, so records of one item run side by side with jobs=2.
        return [(item, self.TARGETS[sid][k], sid, "interest")
                for k, item in enumerate(items) for sid in self.TARGETS]

    def run(self, items, taxonomy, tagset, jobs, **backend_kwargs):
        backend = PromptBackend(items, **backend_kwargs)
        pipe = TranscreationPipeline(Gateway(backend, backoff_base_s=0.0), taxonomy, tagset)
        return pipe.transcreate_many(self.work(items), jobs=jobs), backend

    def test_parallel_run_analyses_each_item_once(self, taxonomy, tagset, fixture_items):
        items = fixture_items[:3]
        serial, _ = self.run(items, taxonomy, tagset, jobs=1)
        parallel, backend = self.run(items, taxonomy, tagset, jobs=2)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]
        assert all(record.status.is_complete for record in parallel)
        assert backend.calls == {"extract_topic": 3, "classify_question": 15, "tag_features": 3,
                                 "transcreate_passage": 9, "transcreate_questions": 9}
        # Every record of an item holds its own lists of the same exchanges.
        first, second = parallel[0].step_exchanges, parallel[1].step_exchanges
        assert first["tag_features"] is not second["tag_features"]
        assert first["tag_features"][0] is second["tag_features"][0]

    def test_failed_analysis_fails_every_record_of_the_item(self, taxonomy, tagset,
                                                            fixture_items):
        items = fixture_items[:3]
        records, backend = self.run(items, taxonomy, tagset, jobs=2, broken_tagging={"r2"})
        broken = [r for r in records if r.source.id == "r2"]
        assert len(broken) == 3
        assert {(r.status.step, r.status.reason) for r in broken} == {(3, broken[0].status.reason)}
        assert "RoundTripViolationError" in broken[0].status.reason
        assert all(len(r.step_exchanges["tag_features"]) == 4 for r in broken)
        assert all(r.transcreated_passage is None for r in broken)
        assert backend.rewrites == {"r1": 3, "r3": 3}
        assert all(r.status.is_complete for r in records if r.source.id != "r2")
        assert backend.calls["tag_features"] == 1 + 4 + 1


class TestRecordsFile:
    """Records after an item's first refer to it instead of repeating its
    source and steps 1-3 exchanges; files without references still load."""

    def cohort(self, items, taxonomy, tagset, **backend_kwargs):
        return TestTranscreateMany().run(items, taxonomy, tagset, jobs=1, **backend_kwargs)[0]

    @staticmethod
    def lines(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def test_later_records_of_an_item_refer_to_its_first(self, taxonomy, tagset,
                                                         fixture_items, tmp_path):
        records = self.cohort(fixture_items[:2], taxonomy, tagset)
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        lines = self.lines(path)
        assert [line["record_id"] for line in lines] == [r.record_id for r in records]
        assert [line.get("same_as") for line in lines] == [None, "r1:s1", "r1:s1",
                                                           None, "r2:s1", "r2:s1"]
        for line, record in zip(lines, records):
            referring = "same_as" in line
            assert ("source" in line) != referring
            assert line["format"] == 3
            steps = list(STEP_NAMES.values())[3 if referring else 0:]
            assert list(line["step_exchanges"]) == steps
            # Every other field is on every line.
            assert line["tagged_source"] == record.tagged_source.to_dict()
        v1 = tmp_path / "v1.jsonl"
        v1.write_bytes(v1_rendering(records))
        assert path.stat().st_size < v1.stat().st_size
        assert [r.to_dict() for r in load_records(path)] == [r.to_dict() for r in records]

    def test_v1_file_loads_and_round_trips(self, taxonomy, tagset, fixture_items, tmp_path):
        records = self.cohort(fixture_items[:2], taxonomy, tagset)
        v1 = tmp_path / "v1.jsonl"
        v1.write_bytes(v1_rendering(records))
        loaded = load_records(v1)
        assert loaded == records
        v3 = tmp_path / "v3.jsonl"
        save_records(loaded, v3)
        assert load_records(v3) == records
        again = tmp_path / "again.jsonl"
        again.write_bytes(v1_rendering(load_records(v3)))
        assert again.read_bytes() == v1.read_bytes()

    def test_loaded_records_share_objects_in_their_own_lists(self, taxonomy, tagset,
                                                             fixture_items, tmp_path):
        path = tmp_path / "records.jsonl"
        save_records(self.cohort(fixture_items[:1], taxonomy, tagset), path)
        first, second, third = load_records(path)
        assert second.source is first.source
        for name in ("extract_topic", "classify_question", "tag_features"):
            assert second.step_exchanges[name] is not first.step_exchanges[name]
            assert all(a is b for a, b in zip(second.step_exchanges[name],
                                              first.step_exchanges[name], strict=True))
        kept = [dict((k, list(v)) for k, v in r.step_exchanges.items()) for r in (first, third)]
        second.step_exchanges["tag_features"].clear()
        second.step_exchanges["classify_question"].append(first.step_exchanges["extract_topic"][0])
        assert [first.step_exchanges, third.step_exchanges] == kept

    def test_differing_analysis_or_source_is_written_in_full(self, taxonomy, tagset,
                                                            fixture_items, tmp_path):
        records = self.cohort(fixture_items[:1], taxonomy, tagset)
        # The second student's levels were asked again; the third's item
        # carries other metadata under the same id.
        records[1].step_exchanges["classify_question"] = (
            records[1].step_exchanges["classify_question"][:2])
        records[2].source = replace(records[2].source, metadata={"grade": "C"})
        # Equal exchanges are enough; they need not be the same objects.
        records.append(self.cohort(fixture_items[:1], taxonomy, tagset)[1])
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        assert [line.get("same_as") for line in self.lines(path)] == [None, None, None, "r1:s1"]
        assert load_records(path) == records

    def test_failed_analysis_shares_its_exchanges(self, taxonomy, tagset, fixture_items,
                                                  tmp_path):
        records = self.cohort(fixture_items[:2], taxonomy, tagset, broken_tagging={"r2"})
        assert [r.status.step for r in records] == [None] * 3 + [3] * 3
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        lines = self.lines(path)
        assert [line.get("same_as") for line in lines[3:]] == [None, "r2:s1", "r2:s1"]
        assert all(line["status"]["step"] == 3 for line in lines[3:])
        assert load_records(path) == records

    def test_duplicate_record_ids_round_trip(self, taxonomy, tagset, fixture_items, tmp_path):
        records = self.cohort(fixture_items[:2], taxonomy, tagset)
        # r1:s1 again with other levels, then r1:s2 with those levels and
        # r1:s1 as at first: "r1:s1" now names the nearest line of that id.
        altered = replace(records[0], step_exchanges=dict(records[0].step_exchanges))
        altered.step_exchanges["classify_question"] = []
        like_altered = replace(altered, student_id="s2",
                               step_exchanges=dict(altered.step_exchanges))
        records = records + [altered, like_altered, records[0]] + records
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        assert [line.get("same_as") for line in self.lines(path)[6:10]] == [
            None, "r1:s1", None, "r1:s1"]
        assert load_records(path) == records

    @pytest.mark.parametrize("bad_line, reason", [
        ({"same_as": "r9:s1"}, "same_as 'r9:s1' names no earlier record"),
        ({"same_as": "r1:s2"}, "same_as 'r1:s2' names no earlier record"),  # a later line
        ({"same_as": ["r1:s1"]}, "same_as ['r1:s1'] names no earlier record"),
        ({"same_as": "r1:s1", "format": 4}, "unknown records format 4"),
        ({"same_as": "r1:s1", "source": None}, "repeats its source"),
    ])
    def test_bad_reference_names_its_line(self, taxonomy, tagset, fixture_items, tmp_path,
                                          bad_line, reason):
        path = tmp_path / "records.jsonl"
        save_records(self.cohort(fixture_items[:1], taxonomy, tagset), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        data = json.loads(lines[1])
        data.update({"format": 3, **bad_line})
        lines[1] = json.dumps(data)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_records(path)
        assert str(info.value).startswith(f"{path}:2: bad record: ")
        assert reason in str(info.value)

    @pytest.mark.parametrize("change, reason", [
        (lambda line: line["transcreated_questions"][2].update(stem=5),
         "stem must be a string, not 5"),
        (lambda line: line.update(transcreated_passage=["x"]),
         "transcreated_passage must be a string or null, not ['x']"),
        (lambda line: line.update(transcreated_passage=None), "a complete record needs"),
        (lambda line: line.update(transcreated_questions=[]), "a complete record needs"),
    ])
    def test_text_the_judge_renders_is_checked_on_load(self, taxonomy, tagset, fixture_items,
                                                       tmp_path, change, reason):
        # Found by the exit-code fuzzer: these loaded, then ended judge or
        # review in a TypeError traceback.
        path = tmp_path / "records.jsonl"
        records = self.cohort(fixture_items[:1], taxonomy, tagset)
        lines = [json.loads(line) for line in v1_rendering(records).decode().splitlines()]
        change(lines[1])
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_records(path)
        assert str(info.value).startswith(f"{path}:2: bad record: ")
        assert reason in str(info.value)

    def test_malformed_json_names_the_file_line(self, taxonomy, tagset, fixture_items,
                                                tmp_path):
        path = tmp_path / "records.jsonl"
        save_records(self.cohort(fixture_items[:1], taxonomy, tagset)[:1], path)
        good = path.read_text(encoding="utf-8")
        path.write_text(good + "\n" + '{"record_id": "r1:s2",\n', encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load_records(path)
        assert str(info.value).startswith(f"{path}:3: not valid JSON: ")
        path.write_text(good + "[1, 2]\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r":2: bad record: a record must be"):
            load_records(path)


class TestQuestionsPayload:
    def test_equals_indented_json_dumps(self):
        rng = random.Random(5)
        alphabet = ['"', "\\", "\n", "\t", "\x00", "\u2028", "é", "🙂", "a", " ", "{x}", "/"]
        for n in range(8):
            questions, blooms = [], []
            for _ in range(n):
                stem, *options = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
                                  + f"#{k}" for k in range(5)]
                questions.append(Question(stem, tuple(options), rng.randrange(4)))
                blooms.append(rng.choice(list(BloomLevel)))
            expected = json.dumps([{"stem": q.stem, "options": list(q.options),
                                    "answer": "ABCD"[q.answer_index], "bloom": b.value}
                                   for q, b in zip(questions, blooms)],
                                  ensure_ascii=False, indent=2)
            assert questions_payload(questions, blooms) == expected


class TestRecordsFormat3:
    """Each prompt is stored as its template and bindings: templates and
    taxonomy or tag-set texts once per file, fields by reference."""

    TARGETS = ("7.a", "8.c", "1.a", "3.d")

    def records(self, items, taxonomy, tagset, students=("s1", "s2"), templates=None):
        """A mock run with one rejected reply each at steps 2 and 4."""
        script = build_mock_script(items, repeats=len(students))
        script["classify_question"].insert(0, "Comprehend")
        script["transcreate_passage"].insert(0, "A reply without its tags.")
        pipe = TranscreationPipeline(mock_gateway(script), taxonomy, tagset, templates)
        return pipe.transcreate_many([Work(item, target, sid, "interest") for sid in students
                                      for item, target in zip(items, self.TARGETS)])

    @staticmethod
    def lines(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def test_texts_once_and_fields_by_reference(self, taxonomy, tagset, fixture_items,
                                                 tmp_path):
        records = self.records(fixture_items[:2], taxonomy, tagset)
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        lines = self.lines(path)
        defined: set[str] = set()
        for line in lines:
            new = set(line.get("texts", {}))
            assert not new & defined  # each text once per file
            defined |= new
            for exchanges in line["step_exchanges"].values():
                for exchange in exchanges:  # every key is defined by now
                    assert exchange["template"] in defined
                    assert {b["text"] for b in exchange["bindings"].values()
                            if isinstance(b, dict) and "text" in b} <= defined
        texts = {key: text for line in lines for key, text in line.get("texts", {}).items()}
        assert sorted(t["name"] for t in texts.values() if isinstance(t, dict)) == sorted(
            STEP_NAMES.values())
        analysis = lines[0]["step_exchanges"]
        assert analysis["extract_topic"][0]["bindings"]["passage"] == {"field": "source.passage"}
        assert texts[analysis["extract_topic"][0]["bindings"]["topic_list"]["text"]].startswith(
            "1.a: ")
        rejected, retried = analysis["classify_question"][:2]
        assert "rejected" not in rejected
        assert retried["bindings"] == rejected["bindings"] == {
            "stem": {"field": "source.stem", "question": 0},
            "options": {"field": "source.options", "question": 0}}
        assert retried["rejected"]["retry_line"] == STEP_RETRY_LINE
        assert "Comprehend" in retried["rejected"]["reason"]
        referring = lines[2]
        assert referring["same_as"] == "r1:s1"
        steps = referring["step_exchanges"]
        assert steps["transcreate_passage"][0]["bindings"]["tagged_passage"] == {
            "field": "tagged_source"}
        assert steps["transcreate_questions"][0]["bindings"] == {
            "passage": {"field": "transcreated_passage"},
            "questions_json": {"field": "questions_payload"}}
        loaded = load_records(path)
        assert loaded == records
        assert v1_rendering(loaded) == v1_rendering(records)
        retry = loaded[0].step_exchanges["classify_question"][1]
        assert retry.user.endswith(f"rejected: {retry.rejected}\n{STEP_RETRY_LINE}")
        assert path.stat().st_size < len(v2_rendering(records))

    def test_binding_no_field_reproduces_is_written_inline(self, taxonomy, tagset,
                                                           fixture_items, tmp_path):
        records = self.records(fixture_items[:1], taxonomy, tagset)
        asked = records[1].transcreated_passage
        records[1].transcreated_passage = asked + " Edited later."
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        [exchange] = self.lines(path)[1]["step_exchanges"]["transcreate_questions"]
        assert exchange["bindings"]["passage"] == asked
        assert load_records(path) == records

    @pytest.mark.parametrize("source", ["v1", "v2", "v3"])
    def test_every_format_saves_as_the_same_file(self, taxonomy, tagset, fixture_items,
                                                 tmp_path, source):
        records = self.records(fixture_items[:2], taxonomy, tagset)
        fresh, path = tmp_path / "fresh.jsonl", tmp_path / "in.jsonl"
        save_records(records, fresh)
        rendering = {"v1": v1_rendering, "v2": v2_rendering}.get(source)
        path.write_bytes(rendering(records) if rendering else fresh.read_bytes())
        loaded = load_records(path)
        assert loaded == records
        save_records(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == fresh.read_bytes()

    def test_prompt_of_another_template_is_kept_whole(self, taxonomy, tagset, fixture_items,
                                                      tmp_path):
        templates = load_templates()
        templates["transcreate_passage"] = replace(
            templates["transcreate_passage"],
            user_template="Move {tagged_passage} from {source_topic} ({source_description}) "
                          "to {target_topic} ({target_description}) in {word_count} words.")
        records = self.records(fixture_items[:1], taxonomy, tagset, templates=templates)
        v1 = tmp_path / "v1.jsonl"
        v1.write_bytes(v1_rendering(records))
        loaded = load_records(v1)
        first, retry = loaded[0].step_exchanges["transcreate_passage"]
        assert first.template.user_template == "{prompt}"
        assert first.bindings == {"prompt": first.user}
        assert retry.template is first.template and retry.rejected is not None
        # Prompts of the package templates are still taken apart.
        assert loaded[0].step_exchanges["extract_topic"][0] == records[0].step_exchanges[
            "extract_topic"][0]
        path = tmp_path / "v3.jsonl"
        save_records(loaded, path)
        assert v1_rendering(load_records(path)) == v1.read_bytes()
        kept_whole = [text for line in self.lines(path) for text in line.get("texts", {}).values()
                      if isinstance(text, dict) and text["user"] == "{prompt}"]
        assert len(kept_whole) == 1
        save_records(records, path)  # the other template itself goes in the table
        assert load_records(path) == records

    def test_siblings_share_the_tagged_passage(self, taxonomy, tagset, fixture_items,
                                              tmp_path):
        path = tmp_path / "records.jsonl"
        save_records(self.records(fixture_items[:1], taxonomy, tagset, ("s1", "s2", "s3")),
                     path)
        first, second, third = load_records(path)
        assert second.tagged_source is first.tagged_source is third.tagged_source
        lines = path.read_text(encoding="utf-8").splitlines()
        data = json.loads(lines[2])
        del data["tagged_source"]["insertions"][1:]
        lines[2] = json.dumps(data)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        first, second, third = load_records(path)
        assert second.tagged_source is first.tagged_source
        assert third.tagged_source.insertions == first.tagged_source.insertions[:1]

    @pytest.mark.parametrize("line_no, mark", [(1, True), (1, "1"), (2, 3.0), (2, 2.0)])
    def test_format_mark_must_be_an_integer(self, taxonomy, tagset, fixture_items, tmp_path,
                                            line_no, mark):
        path = tmp_path / "records.jsonl"
        save_records(self.records(fixture_items[:1], taxonomy, tagset), path)
        self.edit(path, line_no, lambda line: line.update(format=mark))
        with pytest.raises(ValidationError, match=(
                rf"^{re.escape(str(path))}:{line_no}: bad record: records format must be an "
                rf"integer, not {re.escape(repr(mark))}$")):
            load_records(path)

    @staticmethod
    def edit(path, line_no, change):
        lines = path.read_text(encoding="utf-8").splitlines()
        data = json.loads(lines[line_no - 1])
        change(data)
        lines[line_no - 1] = json.dumps(data)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def step4(line):
        return line["step_exchanges"]["transcreate_passage"][-1]

    @pytest.mark.parametrize("line_no, change, reason", [
        (2, lambda line: TestRecordsFormat3.step4(line).update(template="0123456789abcdef"),
         "template '0123456789abcdef' is not in the file's text table"),
        (2, lambda line: TestRecordsFormat3.step4(line)["bindings"].update(
            source_description={"text": "0123456789abcdef"}),
         "text '0123456789abcdef' is not in the file's text table"),
        (2, lambda line: line.update(transcreated_passage=None, status={
            "state": "failed", "step": 4, "reason": "r", "gateway_failure": False}),
         "binding 'passage': {'field': 'transcreated_passage'} names no text"),
        (1, lambda line: line["step_exchanges"]["classify_question"][0]["bindings"]["stem"].update(
            question=5), "binding 'stem': {'field': 'source.stem', 'question': 5} names no text"),
        (2, lambda line: TestRecordsFormat3.step4(line)["bindings"].update(word_count=5),
         "binding 'word_count' must be a string, a text or a field reference"),
        (2, lambda line: TestRecordsFormat3.step4(line)["bindings"].update(extra="x"),
         "binding 'extra' matches no placeholder"),
        (2, lambda line: TestRecordsFormat3.step4(line)["bindings"].pop("word_count"),
         "missing binding for placeholder {word_count}"),
        (1, lambda line: line["texts"].update(
            (key, text + " ") for key, text in list(line["texts"].items()) if isinstance(text, str)),
         "is not the start of its text's sha256"),
        (1, lambda line: line.update(texts=["x"]), "texts must be a JSON object"),
        (1, lambda line: line["step_exchanges"]["classify_question"][1]["rejected"].update(
            reason=5), "a rejection needs a string reason and retry_line"),
        (2, lambda line: TestRecordsFormat3.step4(line).update(attempts="1"),
         "an exchange needs a string response and an integer attempts"),
    ])
    def test_bad_line_names_its_line(self, taxonomy, tagset, fixture_items, tmp_path,
                                     line_no, change, reason):
        path = tmp_path / "records.jsonl"
        save_records(self.records(fixture_items[:1], taxonomy, tagset), path)
        self.edit(path, line_no, change)
        with pytest.raises(ValidationError) as info:
            load_records(path)
        assert str(info.value).startswith(f"{path}:{line_no}: bad record: ")
        assert reason in str(info.value)


class TestAssignTopics:
    def test_interest_mode_positional(self, taxonomy, fixture_items, fixture_profile):
        work = assign_topics([fixture_profile], fixture_items, "interest", 0, taxonomy)
        assert [w.item for w in work] == fixture_items
        assert [w.target_topic for w in work] == list(fixture_profile.top_interests)
        assert {(w.student_id, w.mode) for w in work} == {(fixture_profile.student_id, "interest")}

    def test_work_list_is_student_major(self, taxonomy, fixture_items, fixture_profile):
        other = replace(fixture_profile, student_id="s2")
        work = assign_topics([fixture_profile, other], fixture_items, "interest", 0, taxonomy)
        assert [(w.student_id, w.item.id) for w in work] == [
            (sid, item.id) for sid in ("s1", "s2") for item in fixture_items
        ]

    def test_interest_mode_cycles_past_four(self, taxonomy, fixture_items, fixture_profile):
        items = fixture_items + [make_item("r5", "Extra passage. More text.")]
        work = assign_topics([fixture_profile], items, "interest", 0, taxonomy)
        assert work[4].target_topic == fixture_profile.top_interests[0]

    def test_random_mode_deterministic(self, taxonomy, fixture_items, fixture_profile):
        first = assign_topics([fixture_profile], fixture_items, "random", 42, taxonomy)
        second = assign_topics([fixture_profile], fixture_items, "random", 42, taxonomy)
        assert first == second

    def test_random_mode_excludes_source_topic(self, taxonomy, fixture_profile):
        # Exhaustive over many seeded draws: the source topic never comes back.
        item = make_item("r1", "Chores. More chores.", source_topic="2.b")
        items = [item] * 100
        for seed in range(100):
            work = assign_topics([fixture_profile], items, "random", seed, taxonomy)
            assert all(w.target_topic != "2.b" for w in work)

    def test_random_mode_uniform(self, taxonomy, fixture_profile):
        from scipy import stats as scipy_stats

        item = make_item("r1", "Chores. More chores.", source_topic="2.b")
        draws = assign_topics([fixture_profile], [item] * 100_000, "random", 7, taxonomy)
        counts: dict[str, int] = {}
        for work in draws:
            counts[work.target_topic] = counts.get(work.target_topic, 0) + 1
        eligible = [code for code in taxonomy.codes() if code != "2.b"]
        assert set(counts) <= set(eligible)
        observed = [counts.get(code, 0) for code in eligible]
        result = scipy_stats.chisquare(observed)
        assert result.pvalue > 0.01

    def test_requires_profiles(self, taxonomy, fixture_items):
        with pytest.raises(MissingProfileError):
            assign_topics([], fixture_items, "interest", 0, taxonomy)

    def test_unresolvable_source_topic_rejected(self, taxonomy, fixture_profile):
        item = make_item("r1", "Chores. More chores.", source_topic="0.z")
        with pytest.raises(UnknownTopicError):
            assign_topics([fixture_profile], [item], "random", 0, taxonomy)
