"""Gateway tests: templating, mock scripting, retries, concurrency cap."""

from __future__ import annotations

import base64
import gc
import http.client
import json
import random
import ssl
import threading
import time
import types
from pathlib import Path

import pytest

from transcreate.gateway import (
    PLACEHOLDER_RE,
    CompletionRequest,
    Gateway,
    GatewayError,
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

    def test_matches_a_substitution_scan_on_seeded_templates(self):
        # The compiled pieces render as one re.sub pass over the template
        # did, braces inside bound values and around placeholders included.
        rng = random.Random(17)
        alphabet = ["{", "}", "{{", "}}", "{a}", " ", "x", "\n", "é", "{1}", "{ a}"]
        for _ in range(300):
            names = rng.sample(["a", "b", "c_1", "_d"], rng.randint(0, 4))
            pieces = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            pieces += [f"{{{rng.choice(names)}}}" for _ in range(rng.randint(0, 5)) if names]
            rng.shuffle(pieces)
            text = "".join(pieces)
            template = PromptTemplate("t", "sys", text)
            wanted = set(PLACEHOLDER_RE.findall(text))
            bindings = {name: "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
                        for name in wanted}
            expected = PLACEHOLDER_RE.sub(lambda match: bindings[match.group(1)], text)
            assert render_template(template, bindings) == ("sys", expected)
            assert template.placeholders() == wanted
            found = template.match(expected)
            assert found is not None and render_template(template, found)[1] == expected
            for name in wanted:
                with pytest.raises(MissingBindingError):
                    render_template(template, {k: v for k, v in bindings.items() if k != name})
            with pytest.raises(UnknownPlaceholderError):
                render_template(template, {**bindings, "zz": "1"})

    def test_match_takes_a_prompt_apart(self):
        template = PromptTemplate("t", "sys", "A {x} and {y}, {x} again.")
        assert template.match("A 1 and {y}, 1 again.") == {"x": "1", "y": "{y}"}
        assert template.match("A 1 and 2, 3 again.") is None
        assert template.sha256 == PromptTemplate("t", "sys", "A {x} and {y}, {x} again.").sha256
        assert template.sha256 != PromptTemplate("u", "sys", "A {x} and {y}, {x} again.").sha256


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


    def test_a_send_that_raises_gives_its_slot_back(self):
        class Crashes:
            def send(self, req, step):
                if req.user == "boom":
                    raise RuntimeError("backend bug")
                return req.user

        gateway = Gateway(Crashes(), max_in_flight=1, backoff_base_s=0)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                gateway.complete_ex(request("boom"))
        assert gateway.complete_ex(request("ok")).text == "ok"

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(ValueError, match="max_in_flight must be >= 1"):
            Gateway(SlowBackend(), max_in_flight=cap)


def http_backend(url, monkeypatch, **settings):
    monkeypatch.setenv("TEST_KEY", "secret")
    return HttpBackend(ProviderConfig(endpoint=url, api_key_env="TEST_KEY", **settings))


class TestHttpBackend:
    """The backend against the localhost stub (``echo_server``): no network."""

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan")])
    def test_non_positive_timeout_rejected(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be > 0"):
            ProviderConfig(timeout_s=timeout_s)

    @pytest.mark.parametrize("endpoint", [
        "api.example.com/v1/chat", "http://127.0.0.1:abc/v1", "http://127.0.0.1:70000/v1",
        "ftp://127.0.0.1/v1", "http:///v1/chat", "http://[::1/v1", "", 5,
    ])
    def test_malformed_endpoint_rejected(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            ProviderConfig(endpoint=endpoint)

    @pytest.mark.parametrize("endpoint", [
        "http://127.0.0.1:8080/v1/chat", "https://api.openai.com/v1/chat/completions",
        "HTTPS://Example.COM", "http://[::1]:80/v1?x=1",
    ])
    def test_http_endpoints_accepted(self, endpoint):
        assert ProviderConfig(endpoint=endpoint).endpoint == endpoint

    def test_missing_api_key(self, echo_server, monkeypatch):
        backend = http_backend(echo_server.url, monkeypatch)
        monkeypatch.delenv("TEST_KEY")
        with pytest.raises(MissingApiKeyError):
            backend.send(request(), None)
        assert echo_server.seen == []

    def test_success(self, echo_server, monkeypatch):
        backend = http_backend(echo_server.url, monkeypatch)
        try:
            assert backend.send(CompletionRequest(system="sys", user="héllo", seed=7), None) == "héllo"
            assert backend.send(request(), None) == "hello"
        finally:
            backend.close()
        # The whole body, in key order: the sampling settings are fixed here.
        expected = {
            "model": "gpt-4o",
            "messages": [
                {"role": "system", "content": "sys"},
                {"role": "user", "content": "héllo"},
            ],
            "temperature": 0.0,
            "max_tokens": 2048,
            "seed": 7,
        }
        (method, target, headers, raw), second = echo_server.seen
        assert (method, target) == ("POST", "/v1/chat")
        assert raw == b'{"model": "gpt-4o", "messages": [{"role": "system", "content": "sys"}, ' \
                      b'{"role": "user", "content": "h\\u00e9llo"}], "temperature": 0.0, ' \
                      b'"max_tokens": 2048, "seed": 7}'
        assert list(json.loads(raw).items()) == list(expected.items())
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"
        assert headers["Content-Length"] == str(len(raw))
        del expected["seed"]
        expected["messages"][1]["content"] = "hello"
        assert list(json.loads(second[3]).items()) == list(expected.items())

    def test_http_error_status(self, echo_server, monkeypatch):
        echo_server.replies.append((400, b"bad request"))
        backend = http_backend(echo_server.url, monkeypatch)
        with pytest.raises(HttpStatusError) as err:
            backend.send(request(), None)
        backend.close()
        assert err.value.status == 400
        assert str(err.value) == "HTTP 400: bad request"

    def test_redirect_is_not_followed(self, echo_server, monkeypatch):
        echo_server.replies.append((307, b"moved"))
        gateway = Gateway(http_backend(echo_server.url, monkeypatch), backoff_base_s=0)
        with pytest.raises(HttpStatusError) as err:
            gateway.complete_ex(request())
        gateway.close()
        assert err.value.status == 307 and len(echo_server.seen) == 1

    @pytest.mark.parametrize("body", [b"not json", b"{}", b'{"choices": []}', b"[1]"])
    def test_malformed_body(self, echo_server, monkeypatch, body):
        echo_server.replies.append((200, body))
        backend = http_backend(echo_server.url, monkeypatch)
        with pytest.raises(GatewayError, match="malformed completion response"):
            backend.send(request(), None)
        backend.close()

    def test_retry_then_success_through_gateway(self, echo_server, monkeypatch):
        echo_server.replies.extend([(503, b"busy"), (503, b"busy")])
        backend = http_backend(echo_server.url, monkeypatch)
        gateway = Gateway(backend, max_retries=3, backoff_base_s=0)
        result = gateway.complete_ex(request("done"))
        gateway.close()
        assert result.text == "done"
        assert result.attempts == 3
        assert len(echo_server.seen) == 3 and echo_server.connections == 1

    def test_timeout_maps(self, echo_server, monkeypatch):
        echo_server.hold = threading.Event()
        backend = http_backend(echo_server.url, monkeypatch, timeout_s=0.2)
        start = time.monotonic()
        with pytest.raises(GatewayTimeoutError):
            backend.send(request(), None)
        assert time.monotonic() - start < 2
        echo_server.hold.set()
        backend.close()

    def test_refused_connection_maps_to_503(self, echo_server, monkeypatch):
        backend = http_backend(echo_server.url, monkeypatch)
        echo_server.shutdown()
        echo_server.server_close()  # nothing listens on the port now
        with pytest.raises(HttpStatusError, match="connection failure") as err:
            backend.send(request(), None)
        backend.close()
        assert err.value.status == 503


class TestHttpConnectionReuse:
    def test_idle_connection_closed_by_server_is_replaced_at_once(self, echo_server,
                                                                  monkeypatch):
        echo_server.close_idle = True
        backend = http_backend(echo_server.url, monkeypatch)
        # A backoff sleep would take 10 s; an extra attempt would show in ``attempts``.
        gateway = Gateway(backend, max_retries=3, backoff_base_s=10)
        start = time.monotonic()
        results = [gateway.complete_ex(request(f"call {n}")) for n in range(3)]
        gateway.close()
        assert [r.text for r in results] == ["call 0", "call 1", "call 2"]
        assert [r.attempts for r in results] == [1, 1, 1]
        assert time.monotonic() - start < 2
        assert echo_server.connections == 3

    def test_sequential_sends_share_one_connection(self, echo_server, monkeypatch):
        backend = http_backend(echo_server.url, monkeypatch)
        try:
            replies = [backend.send(request(f"call {n}"), None) for n in range(10)]
        finally:
            backend.close()
        assert replies == [f"call {n}" for n in range(10)]
        assert echo_server.connections == 1

    def test_one_connection_per_thread_and_close_drops_them(self, echo_server, monkeypatch):
        backend = http_backend(echo_server.url, monkeypatch)
        threads = [threading.Thread(target=backend.send, args=(request(), None))
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        connections = list(backend._connections)
        assert len(connections) == 3 and echo_server.connections == 3
        backend.close()
        assert backend._connections == []
        assert all(connection.sock is None for connection in connections)
        assert backend.send(request("again"), None) == "again"
        backend.close()
        assert echo_server.connections == 4


class TestProxies:
    """Proxies come from the environment, as ``requests`` read them (no network)."""

    def test_http_proxy_gets_the_absolute_uri(self, echo_server, monkeypatch):
        host, port = echo_server.server_address
        monkeypatch.setenv("HTTP_PROXY", f"http://us%3Aer:p%40ss@{host}:{port}")
        backend = http_backend("http://api.example.invalid:8080/v1/chat?x=1", monkeypatch)
        assert backend.send(request("via proxy"), None) == "via proxy"
        backend.close()
        ((method, target, headers, _),) = echo_server.seen
        assert (method, target) == ("POST", "http://api.example.invalid:8080/v1/chat?x=1")
        assert headers["Host"] == "api.example.invalid:8080"
        token = base64.b64encode(b"us:er:p@ss").decode()
        assert headers["Proxy-Authorization"] == f"Basic {token}"

    def test_no_proxy_bypasses_it(self, echo_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
        backend = http_backend(echo_server.url, monkeypatch)
        assert backend.send(request("direct"), None) == "direct"
        backend.close()
        ((_, target, headers, _),) = echo_server.seen
        assert target == "/v1/chat" and "Proxy-Authorization" not in headers

    def test_https_endpoint_verifies_certificates(self, echo_server, monkeypatch):
        backend = http_backend("https://api.example.invalid/v1/chat", monkeypatch)
        connection, target, headers = backend._open()  # built, never connected
        assert isinstance(connection, http.client.HTTPSConnection)
        assert (connection.host, connection.port, target) == ("api.example.invalid", 443,
                                                               "/v1/chat")
        assert connection._context.verify_mode == ssl.CERT_REQUIRED
        assert connection._context.check_hostname
        assert connection._tunnel_host is None and headers == {}

    def test_https_endpoint_tunnels_through_the_proxy(self, echo_server, monkeypatch):
        host, port = echo_server.server_address
        monkeypatch.setenv("HTTPS_PROXY", f"{host}:{port}")  # no scheme: an HTTP proxy
        monkeypatch.setenv("https_proxy", f"http://user:pw@{host}:{port}")  # lower case wins
        backend = http_backend("https://api.example.invalid/v1/chat", monkeypatch)
        # The stub answers the CONNECT, then hangs up, so the TLS handshake fails.
        with pytest.raises(HttpStatusError, match="connection failure") as err:
            backend.send(request(), None)
        backend.close()
        assert err.value.status == 503
        ((method, target, headers, _),) = echo_server.seen
        assert (method, target) == ("CONNECT", "api.example.invalid:443")
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()

    def test_unsupported_proxy_is_a_connection_failure(self, echo_server, monkeypatch):
        monkeypatch.setenv("ALL_PROXY", "socks5://127.0.0.1:9")
        backend = http_backend("http://api.example.invalid/v1/chat", monkeypatch)
        with pytest.raises(HttpStatusError, match="unsupported proxy") as err:
            backend.send(request(), None)
        assert err.value.status == 503
