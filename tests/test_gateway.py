"""Gateway tests: templating, mock scripting, retries, concurrency cap."""

from __future__ import annotations

import gc
import json
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from transcreate.gateway import (
    CompletionRequest,
    Gateway,
    GatewayTimeoutError,
    HttpBackend,
    HttpStatusError,
    MissingApiKeyError,
    MissingBindingError,
    MockBackend,
    MalformedMockScriptError,
    MockScriptError,
    PromptTemplate,
    ProviderConfig,
    RetriesExhaustedError,
    UnknownPlaceholderError,
    load_prompt_dir,
    load_template,
    render_template,
)
from transcreate.pipeline import STEP_NAMES, default_prompt_dir


def request(user="hello"):
    return CompletionRequest(system="sys", user=user)


class TestRenderTemplate:
    def test_substitution(self):
        template = PromptTemplate("t", "sys", "Topic: {topic}")
        assert render_template(template, {"topic": "2.b"}) == ("sys", "Topic: 2.b")

    def test_missing_binding(self):
        template = PromptTemplate("t", "sys", "Topic: {topic}")
        with pytest.raises(MissingBindingError) as err:
            render_template(template, {})
        assert err.value.name == "topic"

    def test_unknown_binding(self):
        template = PromptTemplate("t", "sys", "Topic: {topic}")
        with pytest.raises(UnknownPlaceholderError) as err:
            render_template(template, {"topic": "2.b", "x": "y"})
        assert err.value.name == "x"

    def test_single_pass(self):
        # A value containing placeholder syntax is not re-substituted.
        template = PromptTemplate("t", "sys", "{a} and {b}")
        _, user = render_template(template, {"a": "{b}", "b": "two"})
        assert user == "{b} and two"

    def test_repeated_placeholder(self):
        template = PromptTemplate("t", "sys", "{x}, again {x}")
        assert render_template(template, {"x": "1"})[1] == "1, again 1"


class TestTemplateFiles:
    def test_load_bundled_step_templates(self):
        templates = load_prompt_dir(default_prompt_dir())
        for name in STEP_NAMES.values():
            assert name in templates
        assert "judge_bloom" in templates
        assert templates["extract_topic"].placeholders() == {"passage", "topic_list"}

    def test_load_template_file(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text(
            "# Placeholders: {x}\n[system]\npersona\n[user]\nsay {x}\n", encoding="utf-8"
        )
        template = load_template(path)
        assert template.name == "custom"
        assert template.system_text == "persona"
        assert template.user_template == "say {x}"


class TestMockBackend:
    def test_scripted_reply(self):
        gateway = Gateway(MockBackend({"step": ["2.b"]}), backoff_base_s=0)
        assert gateway.complete_ex(request(), step="step").text == "2.b"

    def test_fifo_order(self):
        gateway = Gateway(MockBackend({"step": ["one", "two"]}), backoff_base_s=0)
        assert gateway.complete_ex(request(), step="step").text == "one"
        assert gateway.complete_ex(request(), step="step").text == "two"

    def test_exhausted_script(self):
        gateway = Gateway(MockBackend({"step": []}), backoff_base_s=0)
        with pytest.raises(MockScriptError):
            gateway.complete_ex(request(), step="step")

    def test_fail_twice_then_ok(self):
        script = {"step": [{"error": "timeout"}, {"error": "timeout"}, "ok"]}
        gateway = Gateway(MockBackend(script), max_retries=3, backoff_base_s=0)
        result = gateway.complete_ex(request(), step="step")
        assert result.text == "ok"
        assert result.attempts == 3

    def test_retries_exhausted(self):
        script = {"step": [{"error": "timeout"}] * 4}
        gateway = Gateway(MockBackend(script), max_retries=3, backoff_base_s=0)
        with pytest.raises(RetriesExhaustedError) as err:
            gateway.complete_ex(request(), step="step")
        assert err.value.attempts == 4
        assert isinstance(err.value.last, GatewayTimeoutError)

    def test_retried_error_leaves_no_frame_cycles(self):
        # A kept transport error would hold the gateway's frame, and through
        # it the request, until the cycle collector happened to run.
        script = {"step": [{"error": "timeout"}, "ok"]}
        gateway = Gateway(MockBackend(script), max_retries=3, backoff_base_s=0)
        gc.collect()
        gc.disable()
        try:
            assert gateway.complete_ex(request(), step="step").text == "ok"
            del gateway
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

    def test_non_transient_http_not_retried(self):
        script = {"step": [{"error": "http", "status": 400}, "never"]}
        gateway = Gateway(MockBackend(script), max_retries=3, backoff_base_s=0)
        with pytest.raises(HttpStatusError):
            gateway.complete_ex(request(), step="step")

    def test_wildcard_queue(self):
        gateway = Gateway(MockBackend({"*": ["any"]}), backoff_base_s=0)
        assert gateway.complete_ex(request(), step="unknown-step").text == "any"

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"step": ["reply"]}), encoding="utf-8")
        gateway = Gateway(MockBackend.from_file(path), backoff_base_s=0)
        assert gateway.complete_ex(request(), step="step").text == "reply"

    def test_http_status_defaults_to_500(self):
        gateway = Gateway(MockBackend({"step": [{"error": "http"}] * 4}), backoff_base_s=0)
        with pytest.raises(RetriesExhaustedError) as err:
            gateway.complete_ex(request(), step="step")
        assert err.value.last.status == 500

    @pytest.mark.parametrize("script", [
        5, ["reply"], {"extract_topic": "2.b"}, {"step": [5]}, {"step": [["reply"]]},
        {"step": ["ok", {"error": "http", "status": "x"}]},
        {"step": [{"error": "http", "status": True}]},
        {"step": [{"error": "http", "status": None}]},
        {"step": [{"error": "nope"}]},
        {"step": [{}]},
        {"step": [{"error": "timeout", "retry": 1}]},
    ])
    def test_malformed_script_refused(self, script):
        # A string queue would otherwise be split into one reply per character.
        with pytest.raises(MalformedMockScriptError):
            MockBackend(script)


class TestRequestLog:
    def test_log_records_every_exchange(self, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        script = {"step": [{"error": "timeout"}, "fine", "next"]}
        gateway = Gateway(
            MockBackend(script), max_retries=2, backoff_base_s=0, log_path=log_path
        )
        try:
            gateway.complete_ex(request("first"), step="step")
            gateway.complete_ex(request("second"), step="step")
        finally:
            gateway.close()
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["attempts"] == 2
        assert lines[0]["response"] == "fine"
        assert lines[1]["user"] == "second"
        assert all("latency_s" in line for line in lines)

    def test_log_is_opened_once_and_flushed_per_line(self, tmp_path, monkeypatch):
        log_path = tmp_path / "logs" / "requests.jsonl"
        write_opens = []
        real_open = Path.open

        def counting_open(path, mode="r", *args, **kwargs):
            if path == log_path and mode not in ("r", "rb"):
                write_opens.append(mode)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        clock = types.SimpleNamespace(time=lambda: 1.5, monotonic=lambda: 2.0, sleep=time.sleep)
        monkeypatch.setattr("transcreate.gateway.time", clock)
        script = {"step": [{"error": "http", "status": 400}, "fine «é»"]}
        first = ('{"ts": 1.5, "step": "step", "system": "sys", "user": "first", '
                 '"response": null, "attempts": 1, "latency_s": 0.0, '
                 '"error": "HTTP 400: scripted failure"}\n')
        second = ('{"ts": 1.5, "step": "step", "system": "sys", "user": "second", '
                  '"response": "fine «é»", "attempts": 1, "latency_s": 0.0}\n')
        gateway = Gateway(MockBackend(script), backoff_base_s=0, log_path=log_path)
        try:
            with pytest.raises(HttpStatusError):
                gateway.complete_ex(request("first"), step="step")
            assert log_path.read_bytes() == first.encode("utf-8")  # flushed, still open
            gateway.complete_ex(request("second"), step="step")
        finally:
            gateway.close()
        assert log_path.read_bytes() == (first + second).encode("utf-8")
        assert write_opens == ["a"]


class SlowBackend:
    """Counts concurrent sends so the in-flight cap is observable."""

    def __init__(self):
        self.active = 0
        self.peak = 0
        self.lock = threading.Lock()

    def send(self, req, step):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.02)
        with self.lock:
            self.active -= 1
        return "ok"


class TestConcurrencyCap:
    def test_max_in_flight(self):
        backend = SlowBackend()
        gateway = Gateway(backend, max_in_flight=3, backoff_base_s=0)
        threads = [
            threading.Thread(target=gateway.complete_ex, args=(request(),))
            for _ in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.peak <= 3

    def test_backoff_sleep_holds_no_slot(self):
        # Call A's first attempt times out; call B, started while A sleeps in
        # its >= 0.24 s backoff, must not wait for it.
        a_failed = threading.Event()

        class FirstTimeout:
            def send(self, req, step):
                if req.user == "a" and not a_failed.is_set():
                    a_failed.set()
                    raise GatewayTimeoutError("first attempt")
                return req.user

        gateway = Gateway(FirstTimeout(), max_in_flight=1, backoff_base_s=0.3)
        call_a = threading.Thread(target=gateway.complete_ex, args=(request("a"),))
        call_a.start()
        assert a_failed.wait(5)
        start = time.monotonic()
        assert gateway.complete_ex(request("b")).text == "b"
        elapsed = time.monotonic() - start
        call_a.join()
        assert elapsed < 0.1


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class TestHttpBackend:
    def config(self):
        return ProviderConfig(endpoint="http://127.0.0.1:9/v1/chat", api_key_env="TEST_KEY")

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be > 0"):
            ProviderConfig(timeout_s=timeout_s)

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("TEST_KEY", raising=False)
        backend = HttpBackend(self.config())
        with pytest.raises(MissingApiKeyError):
            backend.send(request(), None)

    def test_success(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "secret")
        payload = {"choices": [{"message": {"content": "fine"}}]}

        bodies = []

        def fake_post(session, url, json=None, headers=None, timeout=None):
            assert url == "http://127.0.0.1:9/v1/chat"
            assert headers["Authorization"] == "Bearer secret"
            bodies.append(json)
            return FakeResponse(200, payload)

        monkeypatch.setattr("requests.Session.post", fake_post)
        backend = HttpBackend(self.config())
        assert backend.send(CompletionRequest(system="sys", user="hello", seed=7), None) == "fine"
        assert backend.send(request(), None) == "fine"
        # The whole body, in key order: the sampling settings are fixed here.
        expected = {
            "model": "gpt-4o",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": "hello"},
            ],
            "temperature": 0.0,
            "max_tokens": 2048,
            "seed": 7,
        }
        assert list(bodies[0].items()) == list(expected.items())
        del expected["seed"]
        assert list(bodies[1].items()) == list(expected.items())

    def test_http_error_status(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "secret")
        monkeypatch.setattr(
            "requests.Session.post",
            lambda *a, **k: FakeResponse(400, text="bad request"),
        )
        with pytest.raises(HttpStatusError) as err:
            HttpBackend(self.config()).send(request(), None)
        assert err.value.status == 400

    def test_retry_then_success_through_gateway(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "secret")
        calls = {"n": 0}

        def flaky_post(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                return FakeResponse(503, text="busy")
            return FakeResponse(200, {"choices": [{"message": {"content": "done"}}]})

        monkeypatch.setattr("requests.Session.post", flaky_post)
        gateway = Gateway(HttpBackend(self.config()), max_retries=3, backoff_base_s=0)
        result = gateway.complete_ex(request())
        assert result.text == "done"
        assert result.attempts == 3

    def test_timeout_maps(self, monkeypatch):
        import requests as requests_lib

        monkeypatch.setenv("TEST_KEY", "secret")

        def timeout_post(*args, **kwargs):
            raise requests_lib.Timeout("too slow")

        monkeypatch.setattr("requests.Session.post", timeout_post)
        with pytest.raises(GatewayTimeoutError):
            HttpBackend(self.config()).send(request(), None)


class EchoHandler(BaseHTTPRequestHandler):
    """Keep-alive chat-completions stub that replies with the user prompt."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = body["messages"][1]["content"]
        reply = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def echo_server(monkeypatch):
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy", "https_proxy",
                 "all_proxy"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    server.lock = threading.Lock()
    server.connections = 0
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


class TestHttpConnectionReuse:
    def backend(self, server, monkeypatch):
        monkeypatch.setenv("TEST_KEY", "secret")
        host, port = server.server_address
        return HttpBackend(ProviderConfig(endpoint=f"http://{host}:{port}/v1/chat",
                                          api_key_env="TEST_KEY"))

    def test_sequential_sends_share_one_connection(self, echo_server, monkeypatch):
        backend = self.backend(echo_server, monkeypatch)
        try:
            replies = [backend.send(request(f"call {n}"), None) for n in range(10)]
        finally:
            backend.close()
        assert replies == [f"call {n}" for n in range(10)]
        assert echo_server.connections == 1

    def test_one_session_per_thread_and_close_drops_them(self, echo_server, monkeypatch):
        backend = self.backend(echo_server, monkeypatch)
        threads = [threading.Thread(target=backend.send, args=(request(), None))
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(backend._sessions) == 3
        backend.close()
        assert backend._sessions == []
        assert backend.send(request("again"), None) == "again"
        backend.close()
