"""Provider-agnostic chat-completion access.

One :class:`Gateway` fronts a backend (live HTTP or scripted mock) and owns
retry, backoff, in-flight limiting, and request logging. The mock backend is
fully deterministic: the same script file yields byte-identical pipeline
outputs.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from queue import SimpleQueue
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Protocol, TextIO
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from .errors import GatewayError, ValidationError
from .fileio import read_json, read_text

if TYPE_CHECKING:
    import http.client
    import ssl

PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

DEFAULT_API_KEY_ENV = "TRANSCREATE_API_KEY"
DEFAULT_BACKOFF_BASE_S = 1.0

# HTTP statuses worth retrying.
_TRANSIENT_STATUSES = frozenset([408, 409, 429, 500, 502, 503, 504])


class MissingBindingError(ValidationError):
    def __init__(self, name: str):
        super().__init__(f"missing binding for placeholder {{{name}}}")
        self.name = name


class UnknownPlaceholderError(ValidationError):
    def __init__(self, name: str):
        super().__init__(f"binding {name!r} matches no placeholder in the template")
        self.name = name


class MissingApiKeyError(GatewayError):
    def __init__(self, env_name: str):
        super().__init__(f"environment variable {env_name} is not set")
        self.env_name = env_name


class GatewayTimeoutError(GatewayError):
    pass


class HttpStatusError(GatewayError):
    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"HTTP {status}" + (f": {detail}" if detail else ""))
        self.status = status


class RetriesExhaustedError(GatewayError):
    def __init__(self, attempts: int, last: GatewayError):
        super().__init__(f"gave up after {attempts} attempts: {last}")
        self.attempts = attempts
        self.last = last


class MockScriptError(GatewayError):
    pass


class MalformedMockScriptError(ValidationError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt: fixed system text plus a user template with {placeholders}.

    The user template is split into literal and placeholder pieces once, on
    first use, so rendering is one join.
    """

    name: str
    system_text: str
    user_template: str

    @cached_property
    def _pieces(self) -> tuple[str, ...]:
        # Literals at even indices, placeholder names at odd ones.
        return tuple(PLACEHOLDER_RE.split(self.user_template))

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Each placeholder name once, in order of first use."""
        return tuple(dict.fromkeys(self._pieces[1::2]))

    @cached_property
    def sha256(self) -> str:
        """Hex sha256 of ``[name, system_text, user_template]`` as UTF-8 JSON."""
        import hashlib  # only records files hash templates; not worth every start-up

        text = json.dumps([self.name, self.system_text, self.user_template], ensure_ascii=False)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def placeholders(self) -> frozenset[str]:
        return frozenset(self.names)

    def match(self, user: str) -> dict[str, str] | None:
        """Bindings under which this template renders ``user`` exactly, or ``None``.

        Where several splits would do, each placeholder takes the shortest
        value that lets the rest match.
        """
        found = self._matcher.fullmatch(user)
        return None if found is None else found.groupdict()

    @cached_property
    def _matcher(self) -> re.Pattern[str]:
        parts: list[str] = []
        seen: set[str] = set()
        for index, piece in enumerate(self._pieces):
            if index % 2 == 0:
                parts.append(re.escape(piece))
            elif piece in seen:
                parts.append(f"(?P={piece})")
            else:
                seen.add(piece)
                parts.append(f"(?P<{piece}>.*?)")
        return re.compile("".join(parts), re.DOTALL)


def render_template(template: PromptTemplate, bindings: Mapping[str, str]) -> tuple[str, str]:
    """Substitute bindings into the user template, byte-exactly and single-pass.

    Bindings must cover every placeholder and reference nothing else.
    """
    check_bindings(template, bindings)
    parts = list(template._pieces)
    parts[1::2] = [bindings[name] for name in parts[1::2]]
    return template.system_text, "".join(parts)


def check_bindings(template: PromptTemplate, bindings: Mapping[str, str]) -> None:
    """Raise unless ``bindings`` name exactly the template's placeholders."""
    for name in template.names:
        if name not in bindings:
            raise MissingBindingError(name)
    if len(bindings) != len(template.names):
        for name in bindings:
            if name not in template.names:
                raise UnknownPlaceholderError(name)


def load_template(path: str | Path, name: str | None = None) -> PromptTemplate:
    """Load a template file with ``[system]`` and ``[user]`` sections.

    Comment lines starting with '#' before the [system] marker document the
    placeholders and are ignored.
    """
    path = Path(path)
    lines = read_text(path, "prompt template").splitlines()
    section = None
    system_lines: list[str] = []
    user_lines: list[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped == "[system]":
            section = "system"
            continue
        if stripped == "[user]":
            section = "user"
            continue
        if section is None:
            if stripped.startswith("#") or not stripped:
                continue
            raise ValidationError(f"{path}: text before [system] section")
        (system_lines if section == "system" else user_lines).append(line)
    if section != "user":
        raise ValidationError(f"{path}: template needs [system] and [user] sections")
    return PromptTemplate(
        name=name or path.stem,
        system_text="\n".join(system_lines).strip(),
        user_template="\n".join(user_lines).strip(),
    )


def load_prompt_dir(directory: str | Path) -> dict[str, PromptTemplate]:
    """Load every ``*.txt`` template in a directory, keyed by file stem."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"prompt directory not found: {directory}")
    templates = {}
    for path in sorted(directory.glob("*.txt")):
        templates[path.stem] = load_template(path)
    return templates


@dataclass(frozen=True)
class CompletionRequest:
    system: str
    user: str
    seed: int | None = None


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model_id: str = "gpt-4o"
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout_s: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 4

    def __post_init__(self):
        _check_endpoint(self.endpoint)
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


def _check_endpoint(endpoint: Any) -> None:
    """Refuse an endpoint that is not an http(s) URL with a host and a valid port."""
    if not isinstance(endpoint, str):
        raise ValueError("endpoint must be a string")
    try:
        parts = urlsplit(endpoint)
        parts.port  # raises on a port that is not a number in 0-65535
    except ValueError as exc:
        raise ValueError(f"endpoint {endpoint!r}: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint {endpoint!r} must be an http:// or https:// URL with a host")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    attempts: int
    latency_s: float


class Backend(Protocol):
    def send(self, request: CompletionRequest, step: str | None) -> str: ...


class MockBackend:
    """Scripted backend: a map from step name to a FIFO queue of replies.

    Each queue entry is either a response string or ``{"error": "timeout"}`` /
    ``{"error": "http", "status": 503}`` (status optional, default 500) to
    make that attempt fail. Any other entry is refused here, before any call.
    """

    def __init__(self, script: Mapping[str, list[Any]]):
        if not isinstance(script, Mapping) or not all(
            isinstance(entries, list) and all(isinstance(e, (str, dict)) for e in entries)
            for entries in script.values()
        ):
            raise MalformedMockScriptError("a mock script maps each step to a list of replies")
        for step, entries in script.items():
            for entry in entries:
                if isinstance(entry, dict) and not _is_scripted_failure(entry):
                    raise MalformedMockScriptError(
                        f"bad mock script entry for step {step!r}: {entry!r}; "
                        'a failure is {"error": "timeout"} or {"error": "http", "status": N}'
                    )
        self._queues = {step: deque(entries) for step, entries in script.items()}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        return cls(read_json(path, "mock script"))

    def send(self, request: CompletionRequest, step: str | None) -> str:
        key = step or "*"
        with self._lock:
            queue = self._queues.get(key)
            if queue is None and key != "*":
                queue = self._queues.get("*")
            if not queue:
                raise MockScriptError(f"mock script has no reply left for step {key!r}")
            entry = queue.popleft()
        if isinstance(entry, str):
            return entry
        if entry["error"] == "timeout":
            raise GatewayTimeoutError("scripted timeout")
        raise HttpStatusError(entry.get("status", 500), "scripted failure")


def _is_scripted_failure(entry: Mapping[str, Any]) -> bool:
    """``{"error": "timeout"}``, or ``{"error": "http"}`` with an optional integer status."""
    if entry == {"error": "timeout"}:
        return True
    status = entry.get("status", 500)
    return (entry.get("error") == "http" and set(entry) <= {"error", "status"}
            and isinstance(status, int) and not isinstance(status, bool))


class HttpBackend:
    """Live chat-completions transport (OpenAI-compatible JSON bodies).

    Sends with the standard library's ``http.client``, imported here rather
    than with the module, so only a process that builds this backend loads
    it. Each worker thread keeps one persistent connection; :meth:`close`
    closes them all and leaves the backend usable. A connection honours
    ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY`` as read when it is opened,
    and TLS verifies against the default CA store. Redirects are not followed.
    """

    def __init__(self, config: ProviderConfig):
        import http.client  # noqa: F401  (loaded with the backend, not at the first send)

        self.config = config
        self._url = urlsplit(config.endpoint)
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        self._tls: ssl.SSLContext | None = None

    def _route(self) -> _Route:
        route = getattr(self._local, "route", None)
        if route is None:
            route = self._local.route = self._open()
            with self._connections_lock:
                self._connections.append(route.connection)
        return route

    def _open(self) -> _Route:
        """A new, unconnected route to the endpoint, through a proxy if one applies."""
        import http.client
        from urllib.request import getproxies, proxy_bypass

        url = self._url
        target = urlunsplit(("", "", url.path or "/", url.query, ""))
        host, port = url.hostname or "", url.port
        proxy = None if proxy_bypass(host) else _proxy_for(url.scheme, getproxies())
        proxy_auth: dict[str, str] = {}
        if proxy is not None:
            if proxy.username is not None:
                import base64

                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                proxy_auth = {"Proxy-Authorization": f"Basic {token}"}
            host, port = proxy.hostname or "", proxy.port
        timeout = self.config.timeout_s
        if url.scheme == "http":
            connection = http.client.HTTPConnection(host, port, timeout=timeout)
            if proxy is not None:
                # A plain-HTTP proxy takes the absolute URI as the request target.
                return _Route(connection, f"http://{url.netloc}{target}", proxy_auth)
            return _Route(connection, target, {})
        connection = http.client.HTTPSConnection(host, port, timeout=timeout,
                                                 context=self._tls_context())
        if proxy is not None:
            connection.set_tunnel(url.hostname or "", url.port, headers=proxy_auth)
        return _Route(connection, target, {})

    def _tls_context(self) -> ssl.SSLContext:
        with self._connections_lock:
            if self._tls is None:
                import ssl

                self._tls = ssl.create_default_context()
            return self._tls

    def close(self) -> None:
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def send(self, request: CompletionRequest, step: str | None) -> str:
        api_key = os.environ.get(self.config.api_key_env)
        if not api_key:
            raise MissingApiKeyError(self.config.api_key_env)
        body: dict[str, Any] = {
            "model": self.config.model_id,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": 0.0,
            "max_tokens": 2048,
        }
        if request.seed is not None:
            body["seed"] = request.seed
        data = json.dumps(body, allow_nan=False).encode("utf-8")
        status, reply = self._post(data, {"Content-Type": "application/json",
                                          "Authorization": f"Bearer {api_key}"})
        if status != 200:
            raise HttpStatusError(status, reply.decode("utf-8", "replace")[:200])
        try:
            return json.loads(reply)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc

    def _post(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST ``data`` on this thread's connection; the reply's status and body."""
        import http.client

        connection, target, proxy_headers = self._route()
        headers.update(proxy_headers)
        reused = connection.sock is not None
        try:
            try:
                return _exchange(connection, target, data, headers)
            except ConnectionError:
                if not reused:
                    raise
                # A kept-alive connection that fails before any reply was, as
                # a rule, closed by the server while it sat idle: send again
                # at once on a new connection, as urllib3 does.
                connection.close()
                return _exchange(connection, target, data, headers)
        except TimeoutError as exc:
            connection.close()
            raise GatewayTimeoutError(f"no reply within {self.config.timeout_s} s") from exc
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise HttpStatusError(503, f"connection failure: {type(exc).__name__}: {exc}") from exc


class _Route(NamedTuple):
    """One thread's connection, the request target to send on it, and its proxy headers."""

    connection: http.client.HTTPConnection
    target: str
    headers: dict[str, str]


def _proxy_for(scheme: str, proxies: Mapping[str, str]) -> SplitResult | None:
    """The proxy for ``scheme`` in ``proxies`` (``urllib.request.getproxies()``), if any.

    As with ``requests``, a proxy given without a scheme is an HTTP proxy.
    Only HTTP proxies are supported; any other raises a connection failure.
    """
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy:
        return None
    parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if parts.scheme != "http" or not parts.hostname:
        raise HttpStatusError(503, f"connection failure: unsupported proxy {proxy!r}")
    return parts


def _exchange(connection: http.client.HTTPConnection, target: str, data: bytes,
              headers: dict[str, str]) -> tuple[int, bytes]:
    connection.request("POST", target, data, headers)
    response = connection.getresponse()
    return response.status, response.read()


def _is_transient(error: GatewayError) -> bool:
    if isinstance(error, GatewayTimeoutError):
        return True
    if isinstance(error, HttpStatusError):
        return error.status in _TRANSIENT_STATUSES
    return False


class Gateway:
    """Thread-safe completion front end with retries and an in-flight cap.

    Callers may invoke :meth:`complete_ex` from any number of threads; at most
    ``max_in_flight`` requests are outstanding at once. A call waiting out a
    retry backoff holds no slot. The request log is opened at the first
    logged call and held until :meth:`close`.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        max_retries: int = 3,
        max_in_flight: int = 4,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        log_path: str | Path | None = None,
        rng_seed: int = 0,
    ):
        self.backend = backend
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.log_path = Path(log_path) if log_path else None
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        # One token per request allowed in flight: a C queue, cheaper to take
        # from and give back than a semaphore.
        self._slots: SimpleQueue[None] = SimpleQueue()
        for _ in range(max_in_flight):
            self._slots.put(None)
        self._rng = random.Random(rng_seed)
        self._rng_lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._log_file: TextIO | None = None

    def _backoff(self, attempt: int) -> float:
        with self._rng_lock:
            jitter = self._rng.uniform(0.8, 1.2)
        return self.backoff_base_s * (2**attempt) * jitter

    def _log(self, step: str | None, request: CompletionRequest, response: str | None,
             attempts: int, latency_s: float, error: str | None = None) -> None:
        if self.log_path is None:
            return
        record = {
            "ts": time.time(),
            "step": step,
            "system": request.system,
            "user": request.user,
            "response": response,
            "attempts": attempts,
            "latency_s": latency_s,
        }
        if error:
            record["error"] = error
        line = json.dumps(record, ensure_ascii=False)
        with self._log_lock:
            if self._log_file is None:
                self.log_path.parent.mkdir(parents=True, exist_ok=True)
                self._log_file = self.log_path.open("a", encoding="utf-8")
            # Flushed per line, so a crash loses no logged call.
            self._log_file.write(line + "\n")
            self._log_file.flush()

    def complete_ex(self, request: CompletionRequest, step: str | None = None) -> CompletionResult:
        """Run one completion; transient failures retry with exponential backoff."""
        start = time.monotonic()
        # No error outlives its ``except`` block: a kept error's traceback
        # would hold this frame, a cycle left for the collector.
        for attempt in range(self.max_retries + 1):
            try:
                # A token is held for the send only, never across a backoff sleep.
                self._slots.get()
                try:
                    text = self.backend.send(request, step)
                finally:
                    self._slots.put(None)
            except GatewayError as exc:
                if _is_transient(exc) and attempt < self.max_retries:
                    delay = self._backoff(attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                latency = time.monotonic() - start
                self._log(step, request, None, attempt + 1, latency, error=str(exc))
                if _is_transient(exc):
                    raise RetriesExhaustedError(attempt + 1, exc) from exc
                raise
            latency = time.monotonic() - start
            self._log(step, request, text, attempt + 1, latency)
            return CompletionResult(text=text, attempts=attempt + 1, latency_s=latency)
        # Reached only with max_retries < 0, when no attempt was made.
        raise RetriesExhaustedError(self.max_retries + 1, GatewayError("no attempt"))

    def close(self) -> None:
        """Close the request log, if open, and release the backend's connections."""
        with self._log_lock:
            log_file, self._log_file = self._log_file, None
        if log_file is not None:
            log_file.close()
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()
