"""Test doubles for the chat backends in ``molrag.llm``."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from molrag.llm import ERROR_KINDS, BackendError
from molrag.prompt import ChatPrompt


class ScriptedBackend:
    """In-memory backend: a list of error kinds and/or response texts, the last one repeating."""

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


def completion(text, finish="stop") -> dict:
    """A chat-completion response body carrying ``text``."""
    return {"choices": [{"message": {"role": "assistant", "content": text},
                         "finish_reason": finish}]}


class ChatServer:
    """Loopback chat-completions endpoint on 127.0.0.1 and a free port, served by a thread.

    ``replies`` is a list of ``(status, body, headers)``, answered in turn with the
    last one repeating; a ``body`` that is not ``bytes`` is sent as JSON and
    ``None`` as an empty body. ``requests`` records ``(method, path, headers,
    body)``. A server with ``stall`` set waits that many seconds before replying,
    and gives up without a reply when ``close`` is called first.
    """

    def __init__(self) -> None:
        self.replies: list[tuple[int, object, dict]] = []
        self.requests: list[tuple[str, str, dict, bytes]] = []
        self.stall = 0.0
        self._lock = threading.Lock()
        self._closing = threading.Event()
        handler = type("Handler", (_Handler,), {"chat": self})
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._httpd.daemon_threads = True
        # a short poll interval keeps close() from waiting half a second
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.01,),
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}/v1/chat/completions"

    def reset(self, *replies: tuple) -> None:
        """Forget recorded requests and answer with ``replies`` (``(status, body[, headers])``)."""
        with self._lock:
            self.replies = [(r[0], r[1], r[2] if len(r) > 2 else {}) for r in replies]
            self.requests = []
            self.stall = 0.0

    def close(self) -> None:
        self._closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def _next(self, request: tuple) -> tuple[int, bytes, dict]:
        with self._lock:
            self.requests.append(request)
            status, body, headers = self.replies[min(len(self.requests), len(self.replies)) - 1]
        if body is None:
            body = b""
        elif not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        return status, body, headers


class _Handler(BaseHTTPRequestHandler):
    chat: ChatServer

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, data, headers = self.chat._next(
            (self.command, self.path, dict(self.headers), body)
        )
        if self.chat.stall and self.chat._closing.wait(self.chat.stall):
            return
        self.send_response(status)
        for name, value in {"Content-Type": "application/json", **headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    # recorded too, so a POST that a client turned into a GET on redirect shows up
    do_GET = do_POST  # noqa: N815

    def log_message(self, format, *args) -> None:  # noqa: A002 (signature is fixed)
        pass
