"""Corpus model and loader tests."""

from __future__ import annotations

import json

import pytest

from transcreate.corpus import (
    BloomLevel,
    CountMismatchWarning,
    DuplicateIdError,
    InterestProfile,
    MalformedLineError,
    MalformedProfileError,
    MalformedTagSetError,
    MalformedTaxonomyError,
    Question,
    ReadingItem,
    UnknownTopicError,
    load_items,
    load_profiles,
    load_tagset,
    load_taxonomy,
    save_items,
)

from conftest import make_item, make_question


def write_jsonl_file(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def item_row(item_id="r1", n_options=4, **overrides):
    row = {
        "id": item_id,
        "passage": "A passage. It has two sentences.",
        "questions": [
            {
                "stem": "What is it about?",
                "options": [f"opt {i}" for i in range(n_options)],
                "answer_index": 0,
            }
        ],
    }
    row.update(overrides)
    return row


class TestLoadItems:
    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_jsonl_file(path, [item_row("a1"), item_row("a2")])
        items = load_items(path)
        assert [item.id for item in items] == ["a1", "a2"]

    def test_three_options_rejected(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_jsonl_file(path, [item_row(n_options=3)])
        with pytest.raises(MalformedLineError, match="expected 4 options"):
            load_items(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_jsonl_file(path, [item_row("r1"), item_row("r1")])
        with pytest.raises(DuplicateIdError) as err:
            load_items(path)
        assert err.value.item_id == "r1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_items(tmp_path / "nope.jsonl")

    def test_bad_json_line_number(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(json.dumps(item_row()) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(MalformedLineError) as err:
            load_items(path)
        assert err.value.line_no == 2
        assert str(err.value).startswith(f"{path}:2: not valid JSON: ")

    def test_errors_name_path_and_line(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_jsonl_file(path, [item_row("a1"), item_row("a2", n_options=3)])
        with pytest.raises(MalformedLineError, match="expected 4 options") as err:
            load_items(path)
        assert str(err.value).startswith(f"{path}:2: ")
        path.write_bytes(json.dumps(item_row("a1")).encode() + b'\n\n{"id": "\xe9"}\n')
        with pytest.raises(MalformedLineError) as err:
            load_items(path)
        assert str(err.value) == f"{path}:3: not UTF-8 text"

    def test_question_of_wrong_type_is_a_line_error(self, tmp_path):
        path = tmp_path / "items.jsonl"
        write_jsonl_file(path, [item_row(questions=[5])])
        with pytest.raises(MalformedLineError) as err:
            load_items(path)
        assert err.value.line_no == 1

    def test_round_trip(self, tmp_path):
        items = [
            make_item("x1", "First passage. Second sentence!", 2, source_topic="2.b"),
            ReadingItem(
                id="x2",
                passage="One lone passage?",
                questions=(make_question(0, "Analyze"),),
                metadata={"origin": "unit-test"},
            ),
        ]
        path = tmp_path / "round.jsonl"
        save_items(items, path)
        assert load_items(path) == items


class TestQuestionInvariants:
    def test_duplicate_options(self):
        with pytest.raises(ValueError, match="duplicate options"):
            Question(stem="s", options=("a", "a ", "b", "c"), answer_index=0)

    def test_answer_out_of_range(self):
        with pytest.raises(ValueError, match="answer_index"):
            Question(stem="s", options=("a", "b", "c", "d"), answer_index=4)

    def test_empty_passage_rejected(self):
        with pytest.raises(ValueError, match="empty passage"):
            ReadingItem(id="x", passage="   ", questions=(make_question(0),))

    def test_no_questions_rejected(self):
        with pytest.raises(ValueError, match="no questions"):
            ReadingItem(id="x", passage="Text.", questions=())


class TestBloomLevel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Analyze", BloomLevel.ANALYZE),
            (" remember\n", BloomLevel.REMEMBER),
            ("CREATE", BloomLevel.CREATE),
        ],
    )
    def test_parse(self, raw, expected):
        assert BloomLevel.parse(raw) is expected

    def test_parse_rejects_non_level(self):
        with pytest.raises(ValueError):
            BloomLevel.parse("Comprehend")

    def test_six_levels(self):
        assert len(BloomLevel) == 6

    def test_every_level_parses_in_any_case_and_padding(self):
        for level in BloomLevel:
            for raw in (level.value.upper(), level.value.lower(), f"  {level.value}\t\n"):
                assert BloomLevel.parse(raw) is level

    def test_rejection_message(self):
        with pytest.raises(ValueError) as err:
            BloomLevel.parse("Comprehend")
        assert str(err.value) == "not a Bloom level: 'Comprehend'"


class TestTaxonomy:
    def test_default_counts(self, taxonomy):
        assert taxonomy.category_count == 9
        assert taxonomy.subcategory_count == 33

    def test_family_lookup(self, taxonomy):
        assert "family" in taxonomy.lookup("2.b").description

    def test_seeded_codes_present(self, taxonomy):
        for code in ("2.b", "5.a", "4.c", "6.b"):
            assert code in taxonomy

    def test_duplicate_code_rejected(self, tmp_path):
        data = {
            "categories": [
                {
                    "number": 5,
                    "label": "dup",
                    "subcategories": [
                        {"code": "5.a", "description": "one"},
                        {"code": "5.a", "description": "two"},
                    ],
                }
            ]
        }
        path = tmp_path / "tax.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedTaxonomyError, match="duplicate code 5.a"):
            load_taxonomy(path)

    def test_user_file_count_mismatch_warns(self, tmp_path):
        data = {
            "categories": [
                {
                    "number": 1,
                    "label": "only",
                    "subcategories": [{"code": "1.a", "description": "solo"}],
                }
            ]
        }
        path = tmp_path / "tax.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(CountMismatchWarning):
            taxonomy = load_taxonomy(path)
        assert taxonomy.subcategory_count == 1

    def test_unknown_lookup(self, taxonomy):
        with pytest.raises(UnknownTopicError):
            taxonomy.lookup("9.z")


class TestTagSet:
    def test_default_count(self, tagset):
        assert len(tagset) == 41

    def test_user_file_any_count_warns(self, tmp_path):
        data = {"tags": [{"id": f"tag-{i}", "description": "d"} for i in range(12)]}
        path = tmp_path / "tags.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(CountMismatchWarning):
            tagset = load_tagset(path)
        assert len(tagset) == 12

    def test_delimiter_collision_rejected(self, tmp_path):
        data = {"tags": [{"id": "bad]]tag", "description": "d"}]}
        path = tmp_path / "tags.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedTagSetError):
            load_tagset(path)

    def test_whitespace_rejected(self, tmp_path):
        data = {"tags": [{"id": "bad tag", "description": "d"}]}
        path = tmp_path / "tags.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MalformedTagSetError):
            load_tagset(path)


class TestProfiles:
    def profile_payload(self, taxonomy, **overrides):
        payload = {
            "student_id": "s1",
            "likert": {code: 4 for code in taxonomy.codes()},
            "top_interests": ["7.a", "8.c", "1.a", "3.d"],
            "least_interests": ["2.b"],
        }
        payload.update(overrides)
        return payload

    def test_load_valid(self, tmp_path, taxonomy):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([self.profile_payload(taxonomy)]), encoding="utf-8")
        profiles = load_profiles(path, taxonomy)
        assert profiles[0].student_id == "s1"
        assert profiles[0].top_interests == ("7.a", "8.c", "1.a", "3.d")

    def test_unknown_code_fails(self, tmp_path, taxonomy):
        payload = self.profile_payload(taxonomy)
        payload["likert"]["9.z"] = 3
        path = tmp_path / "p.json"
        path.write_text(json.dumps([payload]), encoding="utf-8")
        with pytest.raises(UnknownTopicError):
            load_profiles(path, taxonomy)

    def test_incomplete_likert_fails(self, tmp_path, taxonomy):
        payload = self.profile_payload(taxonomy)
        del payload["likert"]["1.a"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps([payload]), encoding="utf-8")
        with pytest.raises(MalformedProfileError, match="missing likert"):
            load_profiles(path, taxonomy)

    def test_one_object_is_one_profile(self, tmp_path, taxonomy):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self.profile_payload(taxonomy)), encoding="utf-8")
        assert [p.student_id for p in load_profiles(path, taxonomy)] == ["s1"]

    @pytest.mark.parametrize("content", ["5", '"s1"', "null"])
    def test_not_an_array_fails(self, tmp_path, taxonomy, content):
        path = tmp_path / "p.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MalformedProfileError, match="must hold a JSON array"):
            load_profiles(path, taxonomy)

    def test_likert_not_an_object_fails(self, tmp_path, taxonomy):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([self.profile_payload(taxonomy, likert=[4])]),
                        encoding="utf-8")
        with pytest.raises(MalformedProfileError, match="bad profile entry"):
            load_profiles(path, taxonomy)

    def test_likert_range(self, taxonomy):
        likert = {code: 4 for code in taxonomy.codes()}
        likert["1.a"] = 8
        with pytest.raises(ValueError, match="out of range"):
            InterestProfile(
                student_id="s1",
                likert=likert,
                top_interests=("7.a", "8.c", "1.a", "3.d"),
            )

    def test_top_interests_exactly_four(self, taxonomy):
        with pytest.raises(ValueError, match="exactly 4"):
            InterestProfile(
                student_id="s1",
                likert={code: 4 for code in taxonomy.codes()},
                top_interests=("7.a", "7.a", "1.a", "3.d"),
            )
