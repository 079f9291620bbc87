"""Shared fixtures: sample items, profiles, mock-script builders, a localhost HTTP stub."""

from __future__ import annotations

import json
import re
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from transcreate.corpus import (
    BloomLevel,
    InterestProfile,
    Question,
    ReadingItem,
    load_tagset,
    load_taxonomy,
)
from transcreate.gateway import Gateway, MockBackend
from transcreate.textmetrics import split_sentences, tokenize_words

BLOOM_CYCLE = ["Remember", "Understand", "Apply", "Analyze", "Evaluate"]

PASSAGES = {
    "r1": (
        "Every Saturday the Park family cleans their small house together. "
        "The children sort the laundry while their parents cook a big lunch. "
        "After the chores are finished, they visit their grandmother nearby. "
        "She always tells them stories about holidays from her childhood."
    ),
    "r2": (
        "Grandparents and teenagers often disagree about music and fashion. "
        "A recent survey asked two generations about their favorite songs. "
        "Many older people preferred calm melodies from their youth. "
        "Younger listeners said fast rhythms helped them focus and relax."
    ),
    "r3": (
        "The town hall hosted a graduation ceremony for local volunteers. "
        "Neighbors filled the seats and cheered for every graduate. "
        "A community dinner followed the speeches in the main square. "
        "Organizers said such events bring distant neighbors closer together."
    ),
    "r4": (
        "Students in many countries now study global citizenship at school. "
        "Lessons cover human rights, fair treatment, and polite behavior abroad. "
        "Teachers ask learners to compare rules across different societies. "
        "The goal is a peaceful world built on mutual respect."
    ),
}

SOURCE_TOPICS = {"r1": "2.b", "r2": "5.a", "r3": "4.c", "r4": "6.b"}

FIXTURE_TAGS = ["past-simple", "relative-clause-subject"]

THEMES = {
    "r1": "tennis",
    "r2": "robots",
    "r3": "travel",
    "r4": "comics",
}


def make_question(idx: int, bloom: str | None = None) -> Question:
    return Question(
        stem=f"What does the passage say in part {idx + 1}?",
        options=(
            f"Choice one for {idx + 1}",
            f"Choice two for {idx + 1}",
            f"Choice three for {idx + 1}",
            f"Choice four for {idx + 1}",
        ),
        answer_index=idx % 4,
        bloom=BloomLevel.parse(bloom) if bloom else None,
    )


def make_item(item_id: str, passage: str, n_questions: int = 5,
              source_topic: str | None = None) -> ReadingItem:
    return ReadingItem(
        id=item_id,
        passage=passage,
        questions=tuple(make_question(i) for i in range(n_questions)),
        source_topic=source_topic,
    )


def sentence_end_offsets(text: str) -> list[int]:
    """Character offsets just past each sentence's terminal punctuation."""
    offsets = []
    cursor = 0
    for span in split_sentences(text):
        cursor += len(span)
        end = cursor
        while end > 0 and text[end - 1].isspace():
            end -= 1
        offsets.append(end)
    return offsets


def tagged_reply(passage: str, tags: list[str]) -> str:
    """The passage with one tag token appended after each leading sentence."""
    offsets = sentence_end_offsets(passage)
    assert len(tags) <= len(offsets)
    out = passage
    for tag, offset in sorted(zip(tags, offsets), key=lambda p: -p[1]):
        out = out[:offset] + f"[[T:{tag}]]" + out[offset:]
    return out


def themed_passage_reply(source: str, tags: list[str], theme: str) -> str:
    """A rewrite-shaped reply: same sentence/word shape, new theme, same tags."""
    words_per_sentence = [len(tokenize_words(span)) for span in split_sentences(source)]
    filler = [theme, "players", "often", "practice", "small", "skills", "together",
              "during", "long", "quiet", "afternoons", "near", "the", "old", "court"]
    sentences = []
    for count in words_per_sentence:
        words = [filler[i % len(filler)] for i in range(count)]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    text = " ".join(sentences)
    offsets = sentence_end_offsets(text)
    for tag, offset in sorted(zip(tags, offsets), key=lambda p: -p[1]):
        text = text[:offset] + f"[[T:{tag}]]" + text[offset:]
    return text


def questions_reply(n_questions: int, theme: str) -> str:
    payload = [
        {
            "stem": f"What does the {theme} passage say in part {i + 1}?",
            "options": [
                f"New choice one for {i + 1}",
                f"New choice two for {i + 1}",
                f"New choice three for {i + 1}",
                f"New choice four for {i + 1}",
            ],
            "answer": "ABCD"[i % 4],
        }
        for i in range(n_questions)
    ]
    return json.dumps(payload)


def build_mock_script(items: list[ReadingItem], blooms_per_item: list[list[str]] | None = None,
                      repeats: int = 1) -> dict[str, list]:
    """A complete five-step script for the items, in processing order.

    ``repeats`` replays the whole sequence (one pass per student).
    """
    script: dict[str, list] = {
        "extract_topic": [],
        "classify_question": [],
        "tag_features": [],
        "transcreate_passage": [],
        "transcreate_questions": [],
    }
    for _ in range(repeats):
        for item in items:
            blooms = (
                blooms_per_item[items.index(item)]
                if blooms_per_item
                else [BLOOM_CYCLE[i % len(BLOOM_CYCLE)] for i in range(len(item.questions))]
            )
            theme = THEMES.get(item.id, "tennis")
            script["extract_topic"].append(item.source_topic or "1.a")
            script["classify_question"].extend(blooms)
            script["tag_features"].append(tagged_reply(item.passage, FIXTURE_TAGS))
            script["transcreate_passage"].append(
                themed_passage_reply(item.passage, FIXTURE_TAGS, theme)
            )
            script["transcreate_questions"].append(questions_reply(len(item.questions), theme))
    return script


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy()


@pytest.fixture(scope="session")
def tagset():
    return load_tagset()


@pytest.fixture
def fixture_items() -> list[ReadingItem]:
    return [
        make_item(item_id, passage, source_topic=SOURCE_TOPICS[item_id])
        for item_id, passage in PASSAGES.items()
    ]


@pytest.fixture
def fixture_profile(taxonomy) -> InterestProfile:
    return InterestProfile(
        student_id="s1",
        likert={code: 4 for code in taxonomy.codes()},
        top_interests=("7.a", "8.c", "1.a", "3.d"),
        least_interests=frozenset({"2.b", "5.a"}),
    )


def mock_gateway(script: dict[str, list], **kwargs) -> Gateway:
    kwargs.setdefault("backoff_base_s", 0.0)
    return Gateway(MockBackend(script), **kwargs)


# The word pattern of the earlier tokenizer, kept as the oracle for
# ``tokenize_words`` and the word counts built on it.
REFERENCE_TOKEN_RE = re.compile(r"(?:[^\W\d_]|\d|['’])+")


def reference_tokenize(text: str) -> list[str]:
    return REFERENCE_TOKEN_RE.findall(text.casefold())


def v1_rendering(records) -> bytes:
    """Records as format 1 wrote them: every record in full, one per line."""
    return "".join(json.dumps(record.to_dict(), ensure_ascii=False) + "\n"
                   for record in records).encode("utf-8")


ANALYSIS_STEPS = ("extract_topic", "classify_question", "tag_features")


def v2_rendering(records) -> bytes:
    """Records as format 2 wrote them: prompts rendered, and a record whose
    source and steps 1-3 exchanges equal those of an earlier line written
    with ``"format": 2, "same_as": <record_id>`` in their place."""
    out = []
    latest: dict[str, dict] = {}  # record id -> its last line so far, in full
    in_full: dict[str, list[str]] = {}  # item id -> record ids written in full
    for record in records:
        line = record.to_dict()
        exchanges = line["step_exchanges"]
        same_as = None
        if tuple(exchanges)[:3] == ANALYSIS_STEPS:
            for candidate in in_full.get(record.source.id, ()):
                earlier = latest[candidate]
                if earlier["source"] == line["source"] and all(
                        earlier["step_exchanges"][step] == exchanges[step]
                        for step in ANALYSIS_STEPS):
                    same_as = candidate
                    break
        if same_as is None:
            in_full.setdefault(record.source.id, []).append(record.record_id)
            written = line
        else:
            written = {"record_id": line["record_id"], "format": 2, "same_as": same_as}
            written.update((key, value) for key, value in line.items()
                           if key not in ("record_id", "source", "step_exchanges"))
            written["step_exchanges"] = {step: entries for step, entries in exchanges.items()
                                         if step not in ANALYSIS_STEPS}
            written["status"] = written.pop("status")
        latest[record.record_id] = line
        out.append(json.dumps(written, ensure_ascii=False) + "\n")
    return "".join(out).encode("utf-8")


class EchoHandler(BaseHTTPRequestHandler):
    """Keep-alive chat-completions stub that replies with the user prompt.

    The server's settings shape the replies: ``replies`` holds scripted
    ``(status, body bytes)`` pairs sent before any echo, ``hold`` (an event)
    delays each reply until it is set, and ``close_idle`` closes the
    connection after each reply without saying so. Every request is kept in
    ``seen`` as ``(method, target, headers, body bytes)``. A ``CONNECT`` is
    answered 200 and the connection closed, so a TLS handshake through it fails.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            server.seen.append(("POST", self.path, self.headers, raw))
            scripted = server.replies.popleft() if server.replies else None
        if server.hold is not None:
            server.hold.wait(5)
        if scripted is None:
            content = json.loads(raw)["messages"][1]["content"]
            status, reply = 200, json.dumps({"choices": [{"message": {"content": content}}]})
            reply = reply.encode()
        else:
            status, reply = scripted
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)
        except OSError:  # the client gave up waiting
            self.close_connection = True
        if server.close_idle:
            self.close_connection = True

    def do_CONNECT(self):
        with self.server.lock:
            self.server.seen.append(("CONNECT", self.path, self.headers, b""))
        self.send_response(200)
        self.end_headers()
        self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def echo_server(monkeypatch):
    """An :class:`EchoHandler` server on an ephemeral localhost port, with no proxy set."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    server.lock = threading.Lock()
    server.connections = 0
    server.seen = []
    server.replies = deque()
    server.hold = None
    server.close_idle = False
    host, port = server.server_address
    server.url = f"http://{host}:{port}/v1/chat"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    if server.hold is not None:
        server.hold.set()
    server.shutdown()
    server.server_close()
    thread.join()
