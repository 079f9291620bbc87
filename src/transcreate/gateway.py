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
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Protocol, TextIO

from .errors import GatewayError, ValidationError
from .fileio import read_json, read_text

if TYPE_CHECKING:
    import requests

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
    """A named prompt: fixed system text plus a user template with {placeholders}."""

    name: str
    system_text: str
    user_template: str

    def placeholders(self) -> set[str]:
        return set(PLACEHOLDER_RE.findall(self.user_template))


def render_template(template: PromptTemplate, bindings: Mapping[str, str]) -> tuple[str, str]:
    """Substitute bindings into the user template, byte-exactly and single-pass.

    Bindings must cover every placeholder and reference nothing else.
    """
    wanted = template.placeholders()
    for name in wanted:
        if name not in bindings:
            raise MissingBindingError(name)
    for name in bindings:
        if name not in wanted:
            raise UnknownPlaceholderError(name)
    user = PLACEHOLDER_RE.sub(lambda match: bindings[match.group(1)], template.user_template)
    return template.system_text, user


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
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


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

    Each worker thread sends through its own ``requests.Session``, so its
    calls reuse one kept-alive connection; :meth:`close` closes them all.
    ``requests`` is imported here, not with the module, so only a process
    that builds this backend pays for loading it.
    """

    def __init__(self, config: ProviderConfig):
        import requests  # noqa: F401  (loaded with the backend, not at the first send)

        self.config = config
        self._local = threading.local()
        self._sessions: list[requests.Session] = []
        self._sessions_lock = threading.Lock()

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
            with self._sessions_lock:
                self._sessions.append(session)
        return session

    def close(self) -> None:
        with self._sessions_lock:
            sessions, self._sessions = self._sessions, []
        for session in sessions:
            session.close()
        self._local = threading.local()

    def send(self, request: CompletionRequest, step: str | None) -> str:
        import requests

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
        try:
            response = self._session().post(
                self.config.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.config.timeout_s,
            )
        except requests.Timeout as exc:
            raise GatewayTimeoutError(str(exc)) from exc
        except requests.RequestException as exc:
            raise HttpStatusError(503, f"connection failure: {exc}") from exc
        if response.status_code != 200:
            raise HttpStatusError(response.status_code, response.text[:200])
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GatewayError(f"malformed completion response: {exc}") from exc


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
        self._slots = threading.BoundedSemaphore(max_in_flight)
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
                # Held for the send only, never across a backoff sleep.
                with self._slots:
                    text = self.backend.send(request, step)
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
