"""Localhost OpenAI-compatible chat-completions stub for the single-pass workload.

Usage: python3 stub.py REPLIES_JSON BASE_MS PER_CHAR_US

Binds 127.0.0.1 on an ephemeral port, prints ``{"port": N}`` on stdout, and
serves HTTP/1.1 with keep-alive until stdin closes. The line ``stats`` on
stdin prints the counters as one JSON line.

Replies are content-addressed: the step and item come from the markers in
the prompt (see gen.py), never from arrival order, and the lookup leans on
data each step must send (the passage, the questions, the tagged passage),
not on prompt wording:

- a rewritten-passage marker: step 5 (questions);
- a passage marker plus the item's tagged passage: step 4 (rewrite);
- a passage marker plus question markers: step 3 (tagging);
- a passage marker alone: step 1 (topic);
- a question marker alone: step 2 (one question's level).

A corrective re-prompt repeats the original prompt, so it gets the same
(valid) reply. Each reply waits ``BASE_MS + PER_CHAR_US * len(reply)``.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PASSAGE_RE = re.compile(r"zq(\d{4})p\b")
QUESTION_RE = re.compile(r"zq(\d{4})q(\d+)\b")
REWRITE_RE = re.compile(r"zq(\d{4})r\b")


class Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.prompt_chars = 0
        self.service_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "connections": self.connections,
                    "prompt_chars": self.prompt_chars, "service_s": self.service_s}


def pick_reply(items: dict, text: str) -> str | None:
    rewrite = REWRITE_RE.search(text)
    if rewrite:
        return items[rewrite.group(1)]["questions"]
    passage = PASSAGE_RE.search(text)
    if passage:
        item = items[passage.group(1)]
        if item["tagged"] in text:
            return item["passage"]
        if QUESTION_RE.search(text):
            return item["tagged"]
        return item["topic"]
    question = QUESTION_RE.search(text)
    if question:
        return items[question.group(1)]["blooms"][int(question.group(2))]
    return None


def make_handler(items: dict, counters: Counters, base_s: float, per_char_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def setup(self) -> None:
            super().setup()
            with counters.lock:
                counters.connections += 1

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

        def do_POST(self) -> None:
            start = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            contents = [m.get("content", "") for m in body.get("messages", [])]
            text = "\n".join(contents)
            try:
                reply = pick_reply(items, text)
            except (KeyError, IndexError, ValueError):
                reply = None
            if reply is None:
                status, payload = 400, {"error": {"message": "no scripted reply"}}
            else:
                time.sleep(base_s + per_char_s * len(reply))
                status = 200
                payload = {"object": "chat.completion",
                           "choices": [{"index": 0, "finish_reason": "stop",
                                        "message": {"role": "assistant", "content": reply}}]}
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            with counters.lock:
                counters.requests += 1
                counters.prompt_chars += sum(len(c) for c in contents)
                counters.service_s += time.perf_counter() - start

    return Handler


def main(argv: list[str]) -> int:
    replies_path, base_ms, per_char_us = argv[0], float(argv[1]), float(argv[2])
    with open(replies_path, encoding="utf-8") as handle:
        items = json.load(handle)["items"]
    counters = Counters()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(items, counters, base_ms / 1e3, per_char_us / 1e6)
    )
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(counters.snapshot()), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
