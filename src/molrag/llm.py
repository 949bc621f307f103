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
import urllib.parse
from dataclasses import dataclass, fields
from pathlib import Path

from molrag.errors import MolragError
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
_URL_UNSAFE = re.compile(r"[\x00-\x20\x7f]")


class BackendError(MolragError):
    """A failed backend call; ``retry_after`` is the server's requested wait in seconds."""

    def __init__(self, kind: str, message: str) -> None:
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown backend error kind {kind!r}")
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message
        self.retry_after: float | None = None


class ReplayError(MolragError):
    """A replay fixture cannot be read, or holds no answer for a prompt."""


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
        url = urllib.parse.urlsplit(self.endpoint_url)
        # http.client refuses a request target with a space or a control character
        if (url.scheme not in ("http", "https") or not url.hostname
                or _URL_UNSAFE.search(self.endpoint_url)):
            raise ValueError("endpoint_url must be an http or https URL with a host")
        try:
            port = url.port
        except ValueError:  # not a number, or past 65535
            port = 0
        if port == 0:
            raise ValueError("endpoint_url has a bad port")
        # JSON reads 1e400 and Infinity as inf, NaN as nan; a socket timeout or a sleep
        # past TIMEOUT_MAX raises OverflowError, and a NaN temperature is no JSON to send
        if not 0 <= self.temperature:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        if not 0 < self.request_timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"request_timeout must lie in (0, {threading.TIMEOUT_MAX:.0f}] seconds"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0 <= self.retry_backoff_base <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"retry_backoff_base must lie in [0, {threading.TIMEOUT_MAX:.0f}] seconds"
            )


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
    """One chat-completion POST per send; no retry logic of its own.

    Each thread that sends keeps one ``http.client`` connection (``TCP_NODELAY``
    set, as ``http.client`` sets it) and sends its next request on it while the
    server keeps it open; :meth:`close` closes every connection. When a kept
    connection turns out closed before any reply byte arrives, the request is sent
    once more on a fresh connection, which is no new attempt.

    The proxy for the endpoint's scheme is read once, here, from the
    ``HTTP(S)_PROXY`` and ``NO_PROXY`` variables: an http endpoint is reached by
    sending the proxy the absolute URL, an https one through a ``CONNECT`` tunnel.
    TLS is verified against the system trust store (``SSL_CERT_FILE`` overrides
    it). Redirects are not followed, as ``http.client`` follows none: a 3xx reply is
    a ``malformed_response`` error, where following would carry the bearer key to the
    ``Location`` host or turn the POST into a body-less GET. The HTTP client modules
    load here, so commands that send nothing never import them.
    """

    def __init__(self, config: BackendConfig) -> None:
        import base64
        import urllib.request

        self.config = config
        url = urllib.parse.urlsplit(config.endpoint_url)
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        self._target = urllib.parse.urlunsplit(("", "", url.path, url.query, ""))
        self._headers = {"Content-Type": "application/json"}
        self._tunnel: tuple | None = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            try:
                proxy_port = proxy_url.port or (443 if https else 80)
            except ValueError:  # not a number, or past 65535
                proxy_port = None
            if not proxy_url.hostname or not proxy_port:
                raise BackendError("network", f"the {url.scheme} proxy is not a usable URL")
            proxy_auth = {}
            if proxy_url.username is not None:
                user_pass = (urllib.parse.unquote(proxy_url.username) + ":"
                             + urllib.parse.unquote(proxy_url.password or ""))
                proxy_auth["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(user_pass.encode()).decode("ascii"))
            if https:  # a CONNECT tunnel carries TLS through to the endpoint
                self._tunnel = (host, port, proxy_auth)
            else:  # a plain request names the endpoint in full
                self._target = urllib.parse.urlunsplit(url._replace(fragment=""))
                self._headers.update(proxy_auth)
            host, port = proxy_url.hostname, proxy_port
        self._address = (host, port)
        self._tls = None
        if https:
            import ssl

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list = []

    def _connection(self):
        """This thread's connection, made on its first send."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            import http.client

            host, port = self._address
            timeout = self.config.request_timeout
            if self._tls is None:
                conn = http.client.HTTPConnection(host, port, timeout=timeout)
            else:
                conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                                   context=self._tls)
                if self._tunnel:
                    tunnel_host, tunnel_port, proxy_auth = self._tunnel
                    conn.set_tunnel(tunnel_host, tunnel_port, headers=proxy_auth)
            with self._lock:
                self._connections.append(conn)
            self._local.conn = conn
        return conn

    def _post(self, data: bytes, headers: dict) -> tuple:
        """Status, headers and body of the reply to one POST on this thread's connection."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, data, headers)
                resp = conn.getresponse()
            # RemoteDisconnected is a ConnectionResetError: no byte of a reply came back
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()  # the server closed the kept connection; open a fresh one
                conn.request("POST", self._target, data, headers)
                resp = conn.getresponse()
            return resp.status, resp.headers, resp.read()
        except BaseException:
            conn.close()  # a connection left mid-exchange cannot carry another request
            raise

    def send(self, prompt: ChatPrompt) -> tuple[str, str]:
        import http.client

        cfg = self.config
        api_key = os.environ.get(cfg.api_key_env_var, "")
        headers = dict(self._headers)
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
            status, reply_headers, raw = self._post(data, headers)
        # OSError covers refused connections, DNS, TLS and timeouts; ValueError is a
        # header value http.client refuses to send
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise BackendError("network", f"request failed: {type(exc).__name__}") from exc

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

    def close(self) -> None:
        """Close every connection the backend has opened; a later send opens new ones."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()

    def __enter__(self) -> HttpBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
            raise ReplayError(f"cannot read fixture {self.path}: {exc}") from exc
        for line_no, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise ReplayError(f"{self.path}:{line_no}: bad JSON: {exc}") from exc
            if not isinstance(entry, dict):
                raise ReplayError(f"{self.path}:{line_no}: entry is not a JSON object")
            if "digest" not in entry:
                raise ReplayError(f"{self.path}:{line_no}: entry lacks a digest")
            if not isinstance(entry["digest"], str):
                raise ReplayError(f"{self.path}:{line_no}: digest is not a string")
            if not isinstance(entry.get("error_script", []), list):
                raise ReplayError(f"{self.path}:{line_no}: error_script is not a list")
            for kind in entry.get("error_script", []):
                if kind not in ERROR_KINDS:
                    raise ReplayError(f"{self.path}:{line_no}: bad error kind {kind!r}")
            response = entry.get("response")
            if response is not None and not isinstance(response, str):
                raise ReplayError(f"{self.path}:{line_no}: response is not a string")
            self._entries[entry["digest"]] = entry

    def send(self, prompt: ChatPrompt) -> tuple[str, str]:
        digest = prompt_digest(prompt)
        entry = self._entries.get(digest)
        if entry is None:
            raise ReplayError(f"no fixture entry for prompt digest {digest}")
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
            raise ReplayError(f"fixture entry for {digest} has no response")
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
                    # past TIMEOUT_MAX, time.sleep raises OverflowError
                    delay = min(max(delay, err.retry_after or 0.0), threading.TIMEOUT_MAX)
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
