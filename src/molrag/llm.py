"""Chat-completion backends and the retrying client.

The wire protocol is an HTTP POST of ``{model, temperature, max_tokens,
messages: [{role: system}, {role: user}]}``; the response carries
``choices[0].message.content`` and ``finish_reason``. A deterministic replay
backend serves recorded responses keyed by prompt digest so evaluations run
with no network at all.

The API key is read from the environment at request time and never appears in
config files, logs or error messages.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

from molrag.prompt import ChatPrompt

log = logging.getLogger("molrag.llm")

ERROR_KINDS = (
    "rate_limited",
    "context_length_exceeded",
    "network",
    "auth",
    "server",
    "malformed_response",
)
RETRYABLE_KINDS = frozenset({"rate_limited", "network", "server"})

FINISH_REASONS = ("stop", "length", "content_filter", "other")

# delta-seconds form of Retry-After (RFC 9110 section 10.2.3); an HTTP-date is ignored
_DELTA_SECONDS = re.compile(r"\s*([0-9]+)\s*")


class BackendError(Exception):
    """A failed backend call; ``retry_after`` is the server's requested wait in seconds."""

    def __init__(self, kind: str, message: str) -> None:
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown backend error kind {kind!r}")
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message
        self.retry_after: float | None = None


class MissingFixture(Exception):
    """Replay fixture has no entry for a prompt digest."""


class FixtureParseError(Exception):
    pass


# What a config field of each annotated type accepts, and its name in an error
_ACCEPTED = {"str": (str, "a string"), "int": (int, "an integer"),
             "float": ((int, float), "a number")}


def check_field_types(config) -> None:
    """Refuse the first field of the dataclass ``config`` whose value does not have its
    annotated type: ``str``, ``int`` or ``float`` (which takes an int), each of which
    also takes None when annotated ``| None``. Fields of other types go unchecked."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        kind = spec.type.removesuffix(" | None")
        if kind not in _ACCEPTED or (value is None and kind != spec.type):
            continue
        kinds, noun = _ACCEPTED[kind]
        # a config file can hold any JSON type, and a bool is an int to isinstance
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{spec.name} must be {noun}, not {value!r}")


@dataclass(frozen=True)
class BackendConfig:
    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    model_name: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_output_tokens: int = 1024
    request_timeout: float = 60.0
    max_retries: int = 3
    retry_backoff_base: float = 1.0
    api_key_env_var: str = "MOLRAG_API_KEY"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


@dataclass(frozen=True)
class CompletionResult:
    raw_text: str
    finish_reason: str
    latency: float
    attempt_count: int


def prompt_digest(prompt: ChatPrompt) -> str:
    """Stable digest identifying a (system, user) prompt pair."""
    payload = prompt.system_text + "\x1f" + prompt.user_text
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class HttpBackend:
    """One chat-completion POST per send, on a fresh connection; no retry logic of its own.

    ``urllib.request`` honours the ``HTTP(S)_PROXY``/``NO_PROXY`` variables and
    verifies TLS against the system trust store (``SSL_CERT_FILE`` overrides it).
    Redirects are not followed: a 3xx reply is a ``malformed_response`` error.
    The HTTP client modules load here, so commands that send nothing never import them.
    """

    def __init__(self, config: BackendConfig) -> None:
        import urllib.request

        class _NoRedirect(urllib.request.HTTPRedirectHandler):
            """Leaves every 3xx reply an ``HTTPError`` instead of following it.

            Following would send the bearer key on to the ``Location`` host, or turn
            the POST into a body-less GET that cannot return a completion.
            """

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                return None

        self.config = config
        self._opener = urllib.request.build_opener(_NoRedirect)

    def send(self, prompt: ChatPrompt) -> tuple[str, str]:
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        cfg = self.config
        api_key = os.environ.get(cfg.api_key_env_var, "")
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": cfg.model_name,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
        }
        data = json.dumps(body).encode("utf-8")
        try:
            # urllib also opens file:, data: and ftp: URLs, whose replies carry no status
            if urllib.parse.urlsplit(cfg.endpoint_url).scheme not in ("http", "https"):
                raise BackendError("network", "endpoint_url is not an http(s) URL")
            request = urllib.request.Request(cfg.endpoint_url, data, headers, method="POST")
            try:
                with self._opener.open(request, timeout=cfg.request_timeout) as resp:
                    status, reply_headers, raw = resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    status, reply_headers, raw = exc.code, exc.headers, exc.read()
        # OSError covers URLError and timeouts; ValueError is a URL urllib cannot parse
        except (OSError, http.client.HTTPException, ValueError) as exc:
            name = type(exc).__name__
            # a URLError wraps the refused connection, DNS or TLS failure that caused it
            if isinstance(getattr(exc, "reason", None), BaseException):
                name += f"({type(exc.reason).__name__})"
            raise BackendError("network", f"request failed: {name}") from exc

        if status != 200:
            err = _classify_http_error(status, raw)
            if status in (429, 503):
                err.retry_after = _retry_after_seconds(
                    reply_headers.get("Retry-After"), cfg.request_timeout
                )
            raise err
        try:
            choice = json.loads(raw)["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason", "other")
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise BackendError("malformed_response", f"bad response body: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError("malformed_response", f"reply content is {type(text).__name__}")
        if finish not in FINISH_REASONS:
            finish = "other"
        return text, finish


def _classify_http_error(status: int, raw: bytes) -> BackendError:
    """Map a non-200 reply to an error kind; without an ``error`` object, by status alone."""
    code = ""
    message = f"HTTP {status}"
    try:
        err = json.loads(raw).get("error")
    except (ValueError, AttributeError, RecursionError):
        err = None
    if isinstance(err, dict):
        code = str(err.get("code", ""))
        if err.get("message"):
            message = f"HTTP {status}: {err['message']}"
    if code == "context_length_exceeded" or "maximum context length" in message.lower():
        return BackendError("context_length_exceeded", message)
    if status in (401, 403):
        return BackendError("auth", f"HTTP {status}: authentication failed")
    if status == 429:
        return BackendError("rate_limited", message)
    if status >= 500:
        return BackendError("server", message)
    return BackendError("malformed_response", message)


def _retry_after_seconds(value: str | None, cap: float) -> float | None:
    """Seconds a delta-seconds ``Retry-After`` asks for, at most ``cap``; else None."""
    match = _DELTA_SECONDS.fullmatch(value) if value else None
    return min(float(match.group(1)), cap) if match else None


class ReplayBackend:
    """Serves recorded responses from a JSON-lines fixture.

    Each line is ``{"digest": ..., "response": ...}`` with an optional
    ``"error_script"`` list of error kinds raised on successive calls before
    the response is served (or forever, when there is no response).
    """

    def __init__(self, fixture_path) -> None:
        self.path = Path(fixture_path)
        self._entries: dict[str, dict] = {}
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise FixtureParseError(f"cannot read fixture {self.path}: {exc}") from exc
        for line_no, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise FixtureParseError(f"{self.path}:{line_no}: bad JSON: {exc}") from exc
            if not isinstance(entry, dict):
                raise FixtureParseError(f"{self.path}:{line_no}: entry is not a JSON object")
            if "digest" not in entry:
                raise FixtureParseError(f"{self.path}:{line_no}: entry lacks a digest")
            if not isinstance(entry["digest"], str):
                raise FixtureParseError(f"{self.path}:{line_no}: digest is not a string")
            if not isinstance(entry.get("error_script", []), list):
                raise FixtureParseError(f"{self.path}:{line_no}: error_script is not a list")
            for kind in entry.get("error_script", []):
                if kind not in ERROR_KINDS:
                    raise FixtureParseError(f"{self.path}:{line_no}: bad error kind {kind!r}")
            response = entry.get("response")
            if response is not None and not isinstance(response, str):
                raise FixtureParseError(f"{self.path}:{line_no}: response is not a string")
            self._entries[entry["digest"]] = entry

    def send(self, prompt: ChatPrompt) -> tuple[str, str]:
        digest = prompt_digest(prompt)
        entry = self._entries.get(digest)
        if entry is None:
            raise MissingFixture(f"no fixture entry for prompt digest {digest}")
        with self._lock:
            call_index = self._calls.get(digest, 0)
            self._calls[digest] = call_index + 1
        script = entry.get("error_script", [])
        if call_index < len(script):
            kind = script[call_index]
            raise BackendError(kind, f"scripted {kind} (call {call_index + 1})")
        if entry.get("response") is None:
            if script:
                raise BackendError(script[-1], "scripted error (script exhausted)")
            raise MissingFixture(f"fixture entry for {digest} has no response")
        return entry["response"], entry.get("finish_reason", "stop")


class ChatClient:
    """Retry-aware chat client over any backend.

    Retries rate-limit, network and server errors with exponentially growing
    (never decreasing) delays, waiting longer when the error carries a longer
    ``retry_after``; context-length and auth errors surface immediately. At
    most ``max_retries + 1`` attempts are made.
    """

    def __init__(
        self,
        backend,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        sleep=time.sleep,
    ) -> None:
        self.backend = backend
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._sleep = sleep

    def complete(self, prompt: ChatPrompt) -> CompletionResult:
        if not prompt.system_text and not prompt.user_text:
            raise ValueError("prompt is empty")
        start = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                text, finish = self.backend.send(prompt)
                return CompletionResult(
                    raw_text=text,
                    finish_reason=finish,
                    latency=time.monotonic() - start,
                    attempt_count=attempt,
                )
            except BackendError as err:
                if err.kind in RETRYABLE_KINDS and attempt <= self.max_retries:
                    delay = self.backoff_base * (2 ** (attempt - 1))
                    delay = max(delay, err.retry_after or 0.0)
                    log.warning(
                        "backend %s on attempt %d/%d; retrying in %.2fs",
                        err.kind,
                        attempt,
                        self.max_retries + 1,
                        delay,
                    )
                    self._sleep(delay)
                    continue
                raise
