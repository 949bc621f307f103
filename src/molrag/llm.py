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
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import requests

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


class BackendError(Exception):
    def __init__(self, kind: str, message: str) -> None:
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown backend error kind {kind!r}")
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message


class MissingFixture(Exception):
    """Replay fixture has no entry for a prompt digest."""


class FixtureParseError(Exception):
    pass


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
    """One chat-completion POST per send; no retry logic of its own."""

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    def send(self, prompt: ChatPrompt) -> tuple[str, str]:
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
        try:
            resp = requests.post(
                cfg.endpoint_url, json=body, headers=headers, timeout=cfg.request_timeout
            )
        except requests.RequestException as exc:
            raise BackendError("network", f"request failed: {type(exc).__name__}") from exc

        if resp.status_code != 200:
            raise _classify_http_error(resp)
        try:
            payload = resp.json()
            choice = payload["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason", "other")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError("malformed_response", f"bad response body: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError("malformed_response", f"reply content is {type(text).__name__}")
        if finish not in FINISH_REASONS:
            finish = "other"
        return text, finish


def _classify_http_error(resp) -> BackendError:
    code = ""
    message = f"HTTP {resp.status_code}"
    try:
        err = resp.json().get("error", {})
        code = str(err.get("code", ""))
        if err.get("message"):
            message = f"HTTP {resp.status_code}: {err['message']}"
    except ValueError:
        pass
    if code == "context_length_exceeded" or "maximum context length" in message.lower():
        return BackendError("context_length_exceeded", message)
    if resp.status_code in (401, 403):
        return BackendError("auth", f"HTTP {resp.status_code}: authentication failed")
    if resp.status_code == 429:
        return BackendError("rate_limited", message)
    if resp.status_code >= 500:
        return BackendError("server", message)
    return BackendError("malformed_response", message)


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


class ScriptedBackend:
    """In-memory backend for tests: a list of error kinds and/or response texts."""

    def __init__(self, script: list) -> None:
        self.script = list(script)
        self.calls = 0
        self._lock = threading.Lock()

    def send(self, prompt: ChatPrompt) -> tuple[str, str]:
        with self._lock:
            step = self.script[min(self.calls, len(self.script) - 1)]
            self.calls += 1
        if isinstance(step, str) and step in ERROR_KINDS:
            raise BackendError(step, f"scripted {step}")
        return step, "stop"


class ChatClient:
    """Retry-aware chat client over any backend.

    Retries rate-limit, network and server errors with exponentially growing
    (never decreasing) delays; context-length and auth errors surface
    immediately. At most ``max_retries + 1`` attempts are made.
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
