"""CLI tests: subcommand wiring, exit codes, atomicity, determinism."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from conftest import BLOOM_CYCLE, build_mock_script, make_question, v1_rendering, v2_rendering
from transcreate import cli
from transcreate.corpus import ReadingItem, save_items
from transcreate.pipeline import load_records, save_records
from transcreate.validation import QueueLock


@pytest.fixture
def workdir(tmp_path, fixture_items, fixture_profile, taxonomy):
    """A directory with items, one profile, and a full mock script."""
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
                    "least_interests": sorted(fixture_profile.least_interests),
                }
            ]
        ),
        encoding="utf-8",
    )
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(build_mock_script(fixture_items)), encoding="utf-8")
    return tmp_path


def run(argv):
    return cli.main([str(arg) for arg in argv])


def transcreate_argv(workdir, out_name="out.jsonl"):
    return [
        "transcreate",
        "--in", workdir / "items.jsonl",
        "--profiles", workdir / "profiles.json",
        "--mode", "interest",
        "--out", workdir / out_name,
        "--mock", workdir / "script.json",
    ]


class TestTranscreateCommand:
    def test_happy_path(self, workdir):
        assert run(transcreate_argv(workdir)) == 0
        records = load_records(workdir / "out.jsonl")
        assert len(records) == 4
        assert all(record.status.is_complete for record in records)
        assert {record.student_id for record in records} == {"s1"}

    def test_determinism_two_runs(self, workdir, fixture_items):
        assert run(transcreate_argv(workdir, "one.jsonl")) == 0
        # a fresh script file: the first run consumed the queues in memory only
        assert run(transcreate_argv(workdir, "two.jsonl")) == 0
        assert (workdir / "one.jsonl").read_bytes() == (workdir / "two.jsonl").read_bytes()

    def test_no_partial_output_on_failure(self, workdir, fixture_items):
        script = build_mock_script(fixture_items)
        script["transcreate_questions"] = ["not json"] * 32
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        code = run(transcreate_argv(workdir))
        assert code == 3  # validation failures present
        records = load_records(workdir / "out.jsonl")  # file exists and parses
        assert len(records) == 4
        assert all(record.status.step == 5 for record in records)

    def test_gateway_exhaustion_exit_code(self, workdir, fixture_items):
        script = build_mock_script(fixture_items)
        script["extract_topic"] = [{"error": "timeout"}] * 40
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        assert run(transcreate_argv(workdir)) == 4

    @pytest.mark.parametrize("entry", [
        {"error": "http", "status": "x"}, {"error": "http", "status": True},
        {"error": "http", "status": 503.0}, {"error": "nope"}, {"status": 503},
        {"error": "timeout", "status": 503},
    ])
    def test_bad_mock_entry_refused_before_any_call(self, workdir, fixture_items, capsys,
                                                     entry):
        script = build_mock_script(fixture_items)
        script["extract_topic"].insert(0, entry)
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        log = workdir / "requests.jsonl"
        capsys.readouterr()
        assert run(transcreate_argv(workdir) + ["--log", log]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("validation error: bad mock script entry for step ")
        assert not (workdir / "out.jsonl").exists()
        assert not log.exists()  # no call was made

    def test_missing_items_file(self, workdir):
        argv = transcreate_argv(workdir)
        argv[2] = workdir / "missing.jsonl"
        assert run(argv) == 2


class TestAnalyzeCommand:
    def test_missing_input(self, tmp_path):
        assert run(["analyze", "--in", tmp_path / "missing.jsonl"]) == 2

    def test_report_shape(self, workdir, capsys):
        assert run(["analyze", "--in", workdir / "items.jsonl"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["items"]) == 4
        assert set(payload["summary"]) == {"word_count", "ttr", "fres"}
        assert "±" in payload["rendered"]["word_count"]

    def test_out_file(self, workdir):
        out = workdir / "analysis.json"
        assert run(["analyze", "--in", workdir / "items.jsonl", "--out", out]) == 0
        assert json.loads(out.read_text())["summary"]["word_count"]["n"] == 4


class TestIngestCommand:
    def test_ok(self, workdir, capsys):
        assert run(["ingest", "--in", workdir / "items.jsonl"]) == 0
        assert "4 items" in capsys.readouterr().err

    def test_malformed_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "passage": "", "questions": []}\n', encoding="utf-8")
        assert run(["ingest", "--in", bad]) == 3


class TestJudgeCommand:
    def judge_script(self, n_replies):
        return {"judge_bloom": ["Remember", "Understand", "Apply", "Analyze", "Evaluate"] * n_replies}

    def test_happy_path(self, workdir, capsys):
        assert run(transcreate_argv(workdir)) == 0
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps(self.judge_script(4)), encoding="utf-8")
        code = run(
            ["judge", "--in", workdir / "out.jsonl", "--mock", script_path]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agreement"]["n"] == 20
        assert payload["agreement"]["accuracy"] == 1.0

    @pytest.mark.parametrize(
        "bad, code, reason",
        [("Comprehend", 3, "InvalidBloomReplyError"),
         ({"error": "timeout"}, 4, "RetriesExhaustedError")],
    )
    def test_failed_question_is_recorded(self, workdir, bad, code, reason):
        assert run(transcreate_argv(workdir)) == 0
        replies = self.judge_script(4)["judge_bloom"]
        replies[7:8] = [bad] * 4  # exhausts the budget on question 2 of the second record
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps({"judge_bloom": replies}), encoding="utf-8")
        out = workdir / "verdicts.json"
        assert run(["judge", "--in", workdir / "out.jsonl", "--mock", script_path,
                    "--out", out]) == code
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["verdicts"]) == 19
        assert (payload["agreement"]["n"], payload["agreement"]["accuracy"]) == (19, 1.0)
        [failure] = payload["failures"]
        assert (failure["item_id"], failure["question_idx"]) == ("r2:s1", 2)
        assert failure["reason"].startswith(reason + ": ")

    def test_no_verdicts_omits_agreement(self, workdir):
        assert run(transcreate_argv(workdir)) == 0
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps({"judge_bloom": ["Comprehend"] * 80}), encoding="utf-8")
        out = workdir / "verdicts.json"
        assert run(["judge", "--in", workdir / "out.jsonl", "--mock", script_path,
                    "--out", out]) == 3
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["verdicts"] == [] and "agreement" not in payload
        assert len(payload["failures"]) == 20

    def test_empty_records_exit_3_without_output(self, workdir, capsys):
        records = workdir / "empty.jsonl"
        records.write_text("", encoding="utf-8")
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps(self.judge_script(1)), encoding="utf-8")
        out = workdir / "verdicts.json"
        assert run(["judge", "--in", records, "--mock", script_path, "--out", out]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "validation error" in captured.err

    def test_failed_record_is_listed_and_the_rest_judged(self, workdir, fixture_items, capsys):
        script = build_mock_script(fixture_items)
        script["tag_features"][:1] = ["mangled"] * 4  # r1 exhausts its budget at step 3
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        assert run(transcreate_argv(workdir)) == 3
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps(self.judge_script(3)), encoding="utf-8")
        out = workdir / "verdicts.json"
        capsys.readouterr()
        assert run(["judge", "--in", workdir / "out.jsonl", "--mock", script_path,
                    "--out", out]) == 3
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [v["item_id"] for v in payload["verdicts"]] == [
            f"r{n}:s1" for n in (2, 3, 4) for _ in range(5)]
        assert (payload["agreement"]["n"], payload["agreement"]["accuracy"]) == (15, 1.0)
        [failure] = payload["failures"]
        assert (failure["item_id"], failure["question_idx"]) == ("r1:s1", None)
        assert failure["reason"].startswith("record failed at step 3: RoundTripViolationError")
        assert "failed: r1:s1: record failed at step 3" in capsys.readouterr().err

    def test_failed_record_exits_3(self, workdir, fixture_items, capsys):
        script = build_mock_script(fixture_items)
        script["tag_features"] = ["mangled"] * 32
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        run(transcreate_argv(workdir))
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps(self.judge_script(4)), encoding="utf-8")
        code = run(["judge", "--in", workdir / "out.jsonl", "--mock", script_path])
        assert code == 3
        assert "r1:s1" in capsys.readouterr().err


class TestReviewAndQaCommands:
    def test_open_then_qa_flow(self, workdir, monkeypatch, capsys):
        run(transcreate_argv(workdir))
        queue_path = workdir / "queue.json"
        code = run(
            ["review", "--queue", queue_path, "--in", workdir / "out.jsonl", "--open-only"]
        )
        assert code == 0
        # pending entries -> qa-report refuses
        assert run(["qa-report", "--queue", queue_path]) == 3
        # decide everything: accept all four, no flags
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n\n" * 4))
        assert run(["review", "--queue", queue_path, "--reviewer", "ex1"]) == 0
        capsys.readouterr()
        assert run(["qa-report", "--queue", queue_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_questions"] == 20
        assert payload["flagged_unanswerable"] == 0

    def test_reopen_without_force(self, workdir):
        run(transcreate_argv(workdir))
        queue_path = workdir / "queue.json"
        argv = ["review", "--queue", queue_path, "--in", workdir / "out.jsonl", "--open-only"]
        assert run(argv) == 0
        assert run(argv) == 3
        assert run(argv + ["--force"]) == 0

    @pytest.mark.parametrize("extra", [["--force"], ["--force", "--open-only"]])
    def test_refused_session_leaves_queue_untouched(self, workdir, monkeypatch, extra):
        run(transcreate_argv(workdir))
        queue_path = workdir / "queue.json"
        argv = ["review", "--queue", queue_path, "--in", workdir / "out.jsonl"]
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n\nq\n"))
        assert run(argv) == 0
        before = queue_path.read_bytes()
        assert len(json.loads(before)["log"]) == 1
        with QueueLock(queue_path):  # a live session holds the queue
            assert run(argv + extra) == 3
        assert queue_path.read_bytes() == before


def student_records_payload():
    toefls = [95, 88, 102, 91, 79, 99, 85, 93, 101, 83,
              96, 87, 104, 90, 80, 98, 86, 92, 100, 84]
    return [
        {"student_id": f"s{i:02}", "toefl": float(t)} for i, t in enumerate(toefls)
    ]


def assert_refused(capsys, argv, out, message):
    """The run exits 3 with one stderr line naming ``message`` and writes no ``out``."""
    capsys.readouterr()
    assert run(argv + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("validation error: ") and message in line
    assert not out.exists()


class TestSplitCommand:
    def test_split(self, tmp_path, capsys):
        records_path = tmp_path / "students.json"
        records_path.write_text(json.dumps(student_records_payload()), encoding="utf-8")
        assert run(["split", "--records", records_path, "--group-size", 10]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["group_a"]) == 10
        assert payload["mean_gap"] >= 0

    @pytest.mark.parametrize("group_size, message", [
        (0, "group_size must be >= 1"),
        (-2, "group_size must be >= 1"),
        (3, "need exactly 6 students, got 4"),
    ])
    def test_bad_group_size(self, tmp_path, capsys, group_size, message):
        records_path = tmp_path / "students.json"
        records_path.write_text(json.dumps(student_records_payload()[:4]), encoding="utf-8")
        argv = ["split", "--records", records_path, "--group-size", group_size]
        assert_refused(capsys, argv, tmp_path / "split.json", message)

    @pytest.mark.parametrize("field, value, message", [
        ("student_id", "s00", "duplicate student_id 's00'"),
        ("student_id", 5, "student_id must be a string, got 5"),
        ("student_id", True, "student_id must be a string, got True"),
        ("student_id", [], "student_id must be a string, got []"),
        ("toefl", float("nan"), "toefl must be finite, got nan"),
        ("toefl", float("inf"), "toefl must be finite, got inf"),
    ])
    def test_bad_student_value(self, tmp_path, capsys, field, value, message):
        students = student_records_payload()[:4]
        students[1][field] = value
        records_path = tmp_path / "students.json"
        records_path.write_text(json.dumps(students), encoding="utf-8")
        argv = ["split", "--records", records_path, "--group-size", 2]
        assert_refused(capsys, argv, tmp_path / "split.json", message)


class TestScoreAndStatsCommands:
    def fixture_files(self, tmp_path):
        blooms = ["Remember", "Understand", "Apply", "Analyze", "Evaluate"]
        key_items = [
            ReadingItem(
                id=f"k{i}",
                passage=f"Key passage {i}. Yes.",
                questions=tuple(make_question(q, blooms[q % 5]) for q in range(5)),
            )
            for i in range(4)
        ]
        key_path = tmp_path / "key.jsonl"
        save_items(key_items, key_path)
        correct = [q.answer_index for item in key_items for q in item.questions]
        students = []
        for i, entry in enumerate(student_records_payload()):
            group = "B" if i < 10 else "A"
            base = correct.copy()
            miss = 2 if group == "B" else 1
            test1 = base.copy()
            for j in range(miss + 2):
                test1[j] = (base[j] + 1) % 4
            test2 = base.copy()
            for j in range(miss):
                test2[j] = (base[j] + 1) % 4
            if group == "A":  # balanced: half improve, half regress
                if i % 2 == 0:
                    test1, test2 = test2, test1
            entry.update(
                {
                    "group": group,
                    "test_answers": {"test1": test1, "test2": test2},
                    "turnaround_minutes": {"test1": 30.0, "test2": 28.0},
                    "imms": {
                        "test1": [
                            {"item_id": "m1", "subscale": "Attention", "response": 5}
                        ],
                        "test2": [
                            {"item_id": "m1", "subscale": "Attention", "response": 4}
                        ],
                    },
                }
            )
            students.append(entry)
        students_path = tmp_path / "students.json"
        students_path.write_text(json.dumps(students), encoding="utf-8")
        return students_path, key_path

    def test_score(self, tmp_path, capsys):
        students_path, key_path = self.fixture_files(tmp_path)
        code = run(
            ["score", "--records", students_path, "--key", key_path, "--test", "test2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s00"]["score"] == 90  # B group: 2 misses of 20

    def test_stats_json_and_text(self, tmp_path, capsys):
        students_path, key_path = self.fixture_files(tmp_path)
        code = run(
            [
                "stats",
                "--records", students_path,
                "--key", f"test1={key_path}",
                "--key", f"test2={key_path}",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["groups"]["B"]["score_delta"]["significant"] is True
        assert payload["groups"]["A"]["score_delta"]["significant"] is False
        code = run(
            [
                "stats",
                "--records", students_path,
                "--key", f"test1={key_path}",
                "--key", f"test2={key_path}",
                "--format", "text",
            ]
        )
        assert code == 0
        assert "Group B" in capsys.readouterr().out

    def test_bad_key_spec(self, tmp_path):
        students_path, key_path = self.fixture_files(tmp_path)
        code = run(["stats", "--records", students_path, "--key", str(key_path)])
        assert code == 3

    def test_stats_needs_two_keys(self, tmp_path, capsys):
        students_path, key_path = self.fixture_files(tmp_path)
        argv = ["stats", "--records", students_path, "--key", f"test1={key_path}"]
        assert_refused(capsys, argv, tmp_path / "stats.json",
                       "expected exactly 2 answer keys, got 1")

    @pytest.mark.parametrize("command", ["score", "stats"])
    @pytest.mark.parametrize("mutate, message", [
        (lambda s: s[1].update(student_id=s[0]["student_id"]), "duplicate student_id 's00'"),
        (lambda s: s[1].update(student_id=[]), "student_id must be a string, got []"),
        (lambda s: s[1].update(student_id=7), "student_id must be a string, got 7"),
        (lambda s: s[1]["turnaround_minutes"].update(test2=float("nan")),
         "turnaround_minutes must be finite, got nan"),
        (lambda s: s[1]["turnaround_minutes"].update(test1=float("inf")),
         "turnaround_minutes must be finite, got inf"),
    ], ids=["duplicate", "list-id", "int-id", "nan-time", "inf-time"])
    def test_bad_student_value(self, tmp_path, capsys, command, mutate, message):
        # Before these checks stats counted a repeated student twice and exited 0.
        students_path, key_path = self.fixture_files(tmp_path)
        students = json.loads(students_path.read_text(encoding="utf-8"))
        mutate(students)
        students_path.write_text(json.dumps(students), encoding="utf-8")
        if command == "score":
            argv = ["score", "--records", students_path, "--key", key_path, "--test", "test1"]
        else:
            argv = ["stats", "--records", students_path,
                    "--key", f"test1={key_path}", "--key", f"test2={key_path}"]
        assert_refused(capsys, argv, tmp_path / "result.json", message)


class TestConfigPrecedence:
    def test_flags_override_config(self, workdir, fixture_items):
        config_path = workdir / "config.json"
        config_path.write_text(
            json.dumps({"length_envelope": 0.5, "rng_seed": 3}), encoding="utf-8"
        )
        argv = transcreate_argv(workdir) + ["--config", config_path, "--seed", 11]
        ns = cli.build_parser().parse_args([str(a) for a in argv])
        config = cli.RunConfig.from_args(ns)
        assert config.length_envelope == 0.5  # from config file
        assert config.rng_seed == 11  # flag wins

    def test_unknown_config_key(self, workdir):
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        argv = transcreate_argv(workdir) + ["--config", config_path]
        assert run(argv) == 3


class TestConfigChecks:
    """Out-of-range settings exit 3 before any call, with no output file."""

    def judge_argv(self, workdir):
        assert run(transcreate_argv(workdir, "records.jsonl")) == 0
        script_path = workdir / "judge_script.json"
        script_path.write_text(json.dumps({"judge_bloom": BLOOM_CYCLE * 4}), encoding="utf-8")
        return ["judge", "--in", workdir / "records.jsonl", "--mock", script_path,
                "--out", workdir / "out.jsonl"]

    @pytest.mark.parametrize("command", ["transcreate", "judge"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_retry_budget(self, workdir, capsys, command, from_config):
        argv = transcreate_argv(workdir) if command == "transcreate" else self.judge_argv(workdir)
        if from_config:
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps({"retry_budget": -1}), encoding="utf-8")
            argv += ["--config", config_path]
        else:
            argv += ["--retry-budget", -1]
        assert run(argv) == 3
        assert not (workdir / "out.jsonl").exists()
        assert "retry_budget must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout_s", [0, -1.5])
    def test_non_positive_provider_timeout(self, workdir, capsys, monkeypatch, echo_server,
                                           timeout_s):
        monkeypatch.setenv("TEST_KEY", "k")
        provider = {"endpoint": echo_server.url, "api_key_env": "TEST_KEY",
                    "timeout_s": timeout_s}
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"provider": provider}), encoding="utf-8")
        argv = transcreate_argv(workdir)[:-2]  # without --mock: the HTTP backend
        assert run(argv + ["--config", config_path]) == 3
        assert echo_server.seen == [] and not (workdir / "out.jsonl").exists()
        assert "bad provider config: timeout_s must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", [
        "api.example.com/v1/chat", "http://127.0.0.1:abc/v1", "ftp://127.0.0.1/v1",
        "http:///v1/chat", 5,
    ])
    def test_malformed_provider_endpoint(self, workdir, capsys, monkeypatch, echo_server,
                                         endpoint):
        monkeypatch.setenv("TEST_KEY", "k")
        provider = {"endpoint": endpoint, "api_key_env": "TEST_KEY", "max_retries": 0}
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps({"provider": provider}), encoding="utf-8")
        argv = transcreate_argv(workdir)[:-2]  # without --mock: the HTTP backend
        assert run(argv + ["--config", config_path]) == 3
        assert not (workdir / "out.jsonl").exists()
        assert "bad provider config: endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ('{"alpha": "0.5"}', "alpha must be a number"),
        ('{"alpha": null}', "alpha must be a number"),
        ('{"length_envelope": "x"}', "length_envelope must be a number"),
        ('{"length_envelope": true}', "length_envelope must be a number"),
        ('{"retry_budget": "3"}', "retry_budget must be an integer"),
        ('{"retry_budget": 2.0}', "retry_budget must be an integer"),
        ('{"rng_seed": "1"}', "rng_seed must be an integer"),
        ('{"prompts_dir": 7}', "prompts_dir must be a string"),
        ('[1]', "the file must hold a JSON object"),
        ('{"provider": 3}', "provider must be an object"),
        ('{"alpha": ', "not valid JSON"),
    ])
    @pytest.mark.parametrize("command", ["transcreate", "judge", "stats"])
    def test_wrong_config_type(self, workdir, capsys, command, content, message):
        if command == "transcreate":
            argv = transcreate_argv(workdir)
        elif command == "judge":
            argv = self.judge_argv(workdir)
        else:  # the config is read before the records, so these need not exist
            argv = ["stats", "--records", workdir / "students.json",
                    "--key", f"test1={workdir / 'key.jsonl'}", "--out", workdir / "out.jsonl"]
        config_path = workdir / "config.json"
        config_path.write_text(content, encoding="utf-8")
        capsys.readouterr()
        assert run(argv + ["--config", config_path]) == 3
        assert not (workdir / "out.jsonl").exists()
        assert f"bad config: {message}" in capsys.readouterr().err


class TestFlags:
    REQUIRED = {"transcreate": ["--in", "i", "--profiles", "p", "--mode", "random", "--out", "o"],
                "judge": ["--in", "i"], "stats": ["--records", "r", "--key", "t=k"]}

    @pytest.mark.parametrize("command, flag", [
        ("judge", "--taxonomy"), ("judge", "--tagset"), ("judge", "--length-envelope"),
        ("judge", "--alpha"), ("transcreate", "--alpha"), ("stats", "--taxonomy"),
        ("stats", "--tagset"),
    ])
    def test_unread_flag_is_refused(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, *self.REQUIRED[command], flag, "0.5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transcreate", "judge", "stats"])
    def test_every_config_key_is_accepted(self, tmp_path, command):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "taxonomy_path": "t.json", "tagset_path": "g.json", "prompts_dir": "p",
            "rng_seed": 5, "retry_budget": 1, "length_envelope": 0.3, "alpha": 0.05,
            "mock_script_path": None, "request_log": None,
        }), encoding="utf-8")
        argv = [command, *self.REQUIRED[command], "--config", str(config_path)]
        ns = cli.build_parser().parse_args(argv)
        config = cli.RunConfig.from_args(ns)
        assert (config.tagset_path, config.length_envelope, config.alpha) == ("g.json", 0.3, 0.05)

    def test_transcreate_loads_the_taxonomy_once(self, workdir, monkeypatch):
        loads = []
        load_taxonomy = cli.corpus.load_taxonomy
        monkeypatch.setattr(cli.corpus, "load_taxonomy",
                            lambda path=None: loads.append(path) or load_taxonomy(path))
        assert run(transcreate_argv(workdir)) == 0
        assert loads == [None]


def students_with_answers(workdir):
    path = workdir / "students.json"
    path.write_text(json.dumps([{"student_id": "s1", "toefl": 90.0,
                                 "test_answers": {"test1": [0, 1, 2, 3, 0]}}]),
                    encoding="utf-8")
    return path


def file_flag_argv(workdir, command, flag, path):
    """A run of ``command`` whose other inputs are valid and ``flag`` reads ``path``."""
    out = workdir / "result.out"
    if command == "transcreate":
        argv = transcreate_argv(workdir, out.name)
        if flag in argv:
            argv[argv.index(flag) + 1] = path
            return argv
        return argv + [flag, path]
    if command == "ingest":
        return ["ingest", "--in", path, "--out", out]
    if command == "judge":
        script = workdir / "judge_script.json"
        script.write_text(json.dumps({"judge_bloom": BLOOM_CYCLE}), encoding="utf-8")
        return ["judge", "--in", path, "--mock", script, "--out", out]
    if command == "stats":  # the config is read first
        return ["stats", "--records", students_with_answers(workdir),
                "--key", f"test1={workdir / 'items.jsonl'}", "--config", path, "--out", out]
    if command == "split":
        return ["split", "--records", path, "--group-size", "1", "--out", out]
    if command == "score":
        return ["score", "--records", students_with_answers(workdir), "--key", path,
                "--test", "test1", "--out", out]
    assert command == "qa-report"
    return ["qa-report", "--queue", path, "--out", out]


class TestInputFiles:
    """Every file-reading flag: a bad path exits 2, bad text exits 3, one line each."""

    FLAGS = [("ingest", "--in"), ("judge", "--in"), ("transcreate", "--profiles"),
             ("transcreate", "--taxonomy"), ("transcreate", "--tagset"),
             ("transcreate", "--mock"), ("stats", "--config"), ("split", "--records"),
             ("score", "--key"), ("qa-report", "--queue")]
    CASES = [("missing", 2), ("directory", 2), ("not UTF-8", 3), ("not JSON", 3)]

    @pytest.mark.parametrize("case, code", CASES, ids=[case for case, _ in CASES])
    @pytest.mark.parametrize("command, flag", FLAGS)
    def test_bad_input_file(self, workdir, capsys, command, flag, case, code):
        path = workdir / "bad-input"
        if case == "directory":
            path.mkdir()
        elif case == "not UTF-8":
            path.write_bytes(b'{"id": "caf\xe9"}\n')
        elif case == "not JSON":
            path.write_text("{broken\n", encoding="utf-8")
        argv = file_flag_argv(workdir, command, flag, path)
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert str(path) in line
        assert not (workdir / "result.out").exists()

    @pytest.mark.parametrize("case, code", [("directory", 2), ("not UTF-8", 3)])
    def test_bad_prompt_template(self, workdir, capsys, case, code):
        template = workdir / "prompts" / "judge_bloom.txt"
        if case == "directory":
            template.mkdir(parents=True)
        else:
            template.parent.mkdir()
            template.write_bytes(b"[system]\ncaf\xe9\n[user]\n{question}\n")
        records = workdir / "records.jsonl"
        records.write_text("", encoding="utf-8")
        argv = file_flag_argv(workdir, "judge", "--in", records)
        capsys.readouterr()
        assert run(argv + ["--prompts", template.parent]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert str(template) in line
        assert not (workdir / "result.out").exists()

    @pytest.mark.parametrize("command, flag, content, message", [
        ("transcreate", "--profiles", "5", "must hold a JSON array of profiles"),
        ("transcreate", "--profiles", '[{"student_id": "s", "likert": [4]}]', "bad profile"),
        ("split", "--records", "5", "must hold a JSON array"),
        ("split", "--records", '{"student_id": "s1", "toefl": 90}', "must hold a JSON array"),
        ("split", "--records", '[{"student_id": "s1", "toefl": 90, "imms": []}]',
         "bad student record"),
        ("transcreate", "--mock", "5", "a mock script maps each step to a list"),
        ("transcreate", "--mock", '{"extract_topic": "2.b"}',
         "a mock script maps each step to a list"),
        ("transcreate", "--mock", '{"extract_topic": [5]}',
         "a mock script maps each step to a list"),
        ("transcreate", "--mock", '{"extract_topic": [{"error": "http", "status": "x"}]}',
         "bad mock script entry for step 'extract_topic'"),
        ("transcreate", "--mock", '{"tag_features": ["ok", {"error": "nope"}]}',
         "bad mock script entry for step 'tag_features'"),
        ("qa-report", "--queue", '{"entries": []}', "missing field 'log'"),
        ("qa-report", "--queue", '{"log": []}', "missing field 'entries'"),
        ("qa-report", "--queue", "[]", "bad queue"),
        ("ingest", "--in", '{"id": "x", "passage": "P.", "questions": [5]}', ":1: "),
    ])
    def test_wrong_shape_exits_3(self, workdir, capsys, command, flag, content, message):
        path = workdir / "bad-input"
        path.write_text(content + "\n", encoding="utf-8")
        argv = file_flag_argv(workdir, command, flag, path)
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
        assert not (workdir / "result.out").exists()


class TestQuestionShape:
    """A question's options must be a JSON array and its answer_index an integer:
    a string or an object is not four options, and true is not 1."""

    CASES = [
        ({"options": "abcd"}, "options must be a list of 4 strings, not 'abcd'"),
        ({"options": {"a": 1, "b": 2, "c": 3, "d": 4}}, "options must be a list of 4 strings"),
        ({"answer_index": True}, "answer_index must be an integer, not True"),
    ]

    @staticmethod
    def break_line(path, line_no, change, questions):
        lines = path.read_text(encoding="utf-8").splitlines()
        data = json.loads(lines[line_no - 1])
        data[questions][0].update(change)
        lines[line_no - 1] = json.dumps(data)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("change, message", CASES, ids=["string", "object", "boolean"])
    @pytest.mark.parametrize("command", ["ingest", "score", "judge"])
    def test_refused_naming_the_line(self, workdir, capsys, command, change, message):
        path = workdir / "bad-input"
        if command == "judge":
            assert run(transcreate_argv(workdir)) == 0
            path.write_bytes((workdir / "out.jsonl").read_bytes())
            self.break_line(path, 2, change, "transcreated_questions")
        else:
            path.write_bytes((workdir / "items.jsonl").read_bytes())
            self.break_line(path, 2, change, "questions")
        argv = file_flag_argv(workdir, command, "--key" if command == "score" else "--in", path)
        capsys.readouterr()
        assert run(argv) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert f"{path}:2: " in line and message in line
        assert not (workdir / "result.out").exists()


class TestLoadChecksBeforeAnyCall:
    """A records file whose line k is bad is refused while it loads: the judge
    makes no call and review opens no queue."""

    CASES = [
        (lambda line: line["step_exchanges"]["transcreate_questions"][0]["bindings"].update(
            passage={"field": "no.such.field"}), "no.such.field"),
        (lambda line: line["step_exchanges"]["transcreate_passage"][0]["bindings"].update(
            source_description={"text": "0123456789abcdef"}), "0123456789abcdef"),
        (lambda line: line["transcreated_questions"][1].update(stem=5),
         "stem must be a string, not 5"),
    ]

    @pytest.mark.parametrize("change, message", CASES,
                             ids=["field reference", "text key", "stem"])
    def test_refused_at_load(self, workdir, capsys, change, message):
        assert run(transcreate_argv(workdir)) == 0
        path = workdir / "out.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        data = json.loads(lines[2])
        change(data)
        lines[2] = json.dumps(data)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        script = workdir / "judge_script.json"
        script.write_text(json.dumps({"judge_bloom": []}), encoding="utf-8")
        out, queue = workdir / "verdicts.json", workdir / "queue.json"
        for argv in (["judge", "--in", path, "--mock", script, "--out", out],
                     ["review", "--in", path, "--queue", queue, "--open-only"]):
            capsys.readouterr()
            assert run(argv) == 3
            [line] = capsys.readouterr().err.splitlines()
            assert f"{path}:3: bad record: " in line and message in line
        assert not out.exists() and not queue.exists()


class TestGoldenDigests:
    """Mock outputs are pinned byte for byte: records, judge JSON, request log.

    ``RECORDS_V3_SHA256`` is of the file ``transcreate`` writes, and
    ``RECORDS_V2_SHA256`` of the same records as format 2 wrote them
    (``v2_rendering``). The other records digests are of the records as
    format 1 wrote them, every line in full (``v1_rendering``).
    """

    RECORDS_V3_SHA256 = "d23a5e366a0c43abba2e581386f54128d714d64fac7dc80d77ef201e7e0c7807"
    RECORDS_V2_SHA256 = "62fb892489ef228b3684649ab0d5e0c0e09a44cb5d6706a109061e0717064b7d"
    RECORDS_SHA256 = "8bc80fd10e18075425865d98f6977b2b3412a0bb70ce164e8aeaa2c55156dc00"
    JUDGE_SHA256 = "4a1a601d91d4b77bdeb339b8b6770691f6eb5af3af60e3e31bfc23d4bee4133f"
    LOG_SHA256 = "3522bb49992d744a253821c37584110f66c2011a596311be17143abfc1d28e36"
    # Digests from the version that analysed each (item, student) pair anew:
    # the s1 records, and the s2 records without r1:s2's classify_question
    # exchanges, the only analysis list that differed from s1's there.
    S1_RECORDS_SHA256 = "5784014cee67022e5d0d8cab6622d21dcd714f70cd9c3c65d2a1c8bac583f7aa"
    S2_RECORDS_SHA256 = "6661630b86f00241ac8ca49289860d30695725ef0073ea97310c40a951b08636"
    CLEAN_RECORDS_SHA256 = "fdf193df993f29f0e7c9e0cd62ed09d67fd0a3bfb27c9b1779023b5d23c39783"

    def two_students(self, workdir):
        profiles = json.loads((workdir / "profiles.json").read_text(encoding="utf-8"))
        profiles.append(dict(profiles[0], student_id="s2",
                             top_interests=["9.a", "4.b", "6.c", "2.a"]))
        (workdir / "profiles.json").write_text(json.dumps(profiles), encoding="utf-8")

    def test_transcreate_then_judge(self, workdir, fixture_items, fixture_profile):
        self.two_students(workdir)
        script = build_mock_script(fixture_items, repeats=2)
        # One rejected reply each at steps 2 and 4 and in the judge, so the
        # corrective prompts are part of what is pinned.
        script["classify_question"].insert(0, "Comprehend")
        script["transcreate_passage"].insert(0, "A reply without its tags.")
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        judge_replies = ["Comprehend"] + BLOOM_CYCLE * 8
        judge_replies[5] = "Create"
        (workdir / "judge.json").write_text(
            json.dumps({"judge_bloom": judge_replies}), encoding="utf-8")
        log = workdir / "requests.jsonl"
        assert run(transcreate_argv(workdir) + ["--log", log]) == 0
        assert run(["judge", "--in", workdir / "out.jsonl", "--out", workdir / "verdicts.json",
                    "--mock", workdir / "judge.json", "--log", log]) == 0

        records = v1_rendering(load_records(workdir / "out.jsonl"))
        lines = records.splitlines(keepends=True)
        assert len(lines) == 8
        assert digest(b"".join(lines[:4])) == self.S1_RECORDS_SHA256
        s1, s2 = [json.loads(line) for line in lines[:4]], [json.loads(line) for line in lines[4:]]
        for first, second in zip(s1, s2):
            for step in ("extract_topic", "classify_question", "tag_features"):
                assert second["step_exchanges"][step] == first["step_exchanges"][step]
        s2[0]["step_exchanges"]["classify_question"] = []
        assert digest(json.dumps(s2, ensure_ascii=False).encode("utf-8")) == self.S2_RECORDS_SHA256

        fields = ("step", "system", "user", "response", "attempts", "error")
        log_lines = [
            json.dumps([entry.get(name) for name in fields], ensure_ascii=False)
            for entry in map(json.loads, log.read_text(encoding="utf-8").splitlines())
        ]
        # Steps 1-3 once per item, steps 4-5 per record, two rejected
        # replies, then the judge's 40 questions and one rejected reply.
        assert len(log_lines) == 4 * (1 + 5 + 1) + 8 * 2 + 2 + 41
        assert digest(records) == self.RECORDS_SHA256
        # Each s2 record refers to the s1 record of its item.
        raw = (workdir / "out.jsonl").read_bytes()
        assert [json.loads(line).get("same_as") for line in raw.splitlines()] == (
            [None] * 4 + [f"{item.id}:s1" for item in fixture_items])
        assert digest(raw) == self.RECORDS_V3_SHA256
        v2 = v2_rendering(load_records(workdir / "out.jsonl"))
        assert digest(v2) == self.RECORDS_V2_SHA256
        # A format 1, 2 or 3 file -> load -> save gives the same file.
        for name, data in (("v1", records), ("v2", v2), ("v3", raw)):
            (workdir / f"{name}.jsonl").write_bytes(data)
            save_records(load_records(workdir / f"{name}.jsonl"), workdir / "again.jsonl")
            assert (workdir / "again.jsonl").read_bytes() == raw, name
        assert digest((workdir / "verdicts.json").read_bytes()) == self.JUDGE_SHA256
        assert digest("\n".join(log_lines).encode("utf-8")) == self.LOG_SHA256

    def test_clean_two_student_run(self, workdir, fixture_items):
        # Every reply accepted: the records equal those of analysing per record.
        self.two_students(workdir)
        script = build_mock_script(fixture_items, repeats=2)
        (workdir / "script.json").write_text(json.dumps(script), encoding="utf-8")
        assert run(transcreate_argv(workdir)) == 0
        records = v1_rendering(load_records(workdir / "out.jsonl"))
        assert digest(records) == self.CLEAN_RECORDS_SHA256


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
