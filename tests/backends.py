"""Test doubles for the chat backends in ``molrag.llm``."""

from __future__ import annotations

import http.client
import json
import select
import socket
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

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
    ``None`` as an empty body, and a ``status`` of None closes the connection
    without a reply. ``requests`` records ``(method, path, headers, body)``. A
    server with ``stall`` set waits that many seconds before replying, and gives up
    without a reply when ``close`` is called first.

    The server speaks ``protocol``: HTTP/1.0 closes each connection after its
    reply, HTTP/1.1 keeps it open for the client's next request. With
    ``drop_idle`` an HTTP/1.1 server closes each connection after its reply
    without saying so, as a server whose idle timeout ends a kept connection does.
    ``connections`` counts the connections accepted, ``open_connections`` those
    not yet closed. ``tls`` is a ``(certificate, key)`` pair of files to serve
    https with.
    """

    def __init__(self, protocol: str = "HTTP/1.0", drop_idle: bool = False,
                 tls: tuple | None = None) -> None:
        self.replies: list[tuple[int | None, object, dict]] = []
        self.requests: list[tuple[str, str, dict, bytes]] = []
        self.stall = 0.0
        self.drop_idle = drop_idle
        self.connections = 0
        self.open_connections = 0
        self._lock = threading.Lock()
        self._closing = threading.Event()
        handler = type("Handler", (_Handler,), {"chat": self, "protocol_version": protocol})
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._httpd.daemon_threads = True
        self._scheme = "http"
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
            self._scheme = "https"
        # a short poll interval keeps close() from waiting half a second
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.01,),
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        port = self._httpd.server_address[1]
        return f"{self._scheme}://127.0.0.1:{port}/v1/chat/completions"

    def reset(self, *replies: tuple) -> None:
        """Forget recorded requests and answer with ``replies`` (``(status, body[, headers])``)."""
        with self._lock:
            self.replies = [(r[0], r[1], r[2] if len(r) > 2 else {}) for r in replies]
            self.requests = []
            self.stall = 0.0

    def wait_closed(self, timeout: float = 10.0) -> int:
        """The connections still open once all are closed, or ``timeout`` seconds pass."""
        deadline = time.monotonic() + timeout
        while self.open_connections and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.open_connections

    def close(self) -> None:
        self._closing.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def _count(self, change: int) -> None:
        with self._lock:
            self.open_connections += change
            self.connections += max(change, 0)

    def _next(self, request: tuple) -> tuple[int | None, bytes, dict]:
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

    def setup(self) -> None:
        super().setup()
        # the reply's headers and body go out in two writes: without this, a kept
        # connection waits for the client's delayed ACK before the body (about 40 ms)
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.chat._count(1)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.chat._count(-1)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, data, headers = self.chat._next(
            (self.command, self.path, dict(self.headers), body)
        )
        if status is None or (self.chat.stall and self.chat._closing.wait(self.chat.stall)):
            self.close_connection = True
            return
        self.send_response(status)
        for name, value in {"Content-Type": "application/json", **headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self.chat.drop_idle:
            self.close_connection = True

    # recorded too, so a POST that a client turned into a GET on redirect shows up
    do_GET = do_POST  # noqa: N815

    def log_message(self, format, *args) -> None:  # noqa: A002 (signature is fixed)
        pass


class ForwardProxy:
    """Loopback HTTP proxy on 127.0.0.1 and a free port, served by a thread.

    It forwards a request whose target is an absolute http URL and records the URL
    in ``forwarded``; it opens a ``CONNECT`` tunnel and records its ``host:port``
    in ``tunnels``. Each connection carries one request, or one tunnel.
    """

    def __init__(self) -> None:
        self.forwarded: list[str] = []
        self.tunnels: list[str] = []
        handler = type("Handler", (_ProxyHandler,), {"proxy": self})
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.01,),
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)


class _ProxyHandler(BaseHTTPRequestHandler):
    proxy: ForwardProxy

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self.proxy.forwarded.append(self.path)
        url = urlsplit(self.path)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        headers = {name: value for name, value in self.headers.items()
                   if name.lower() not in ("host", "connection", "proxy-authorization")}
        upstream = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            upstream.request("POST", url.path, body, headers)
            reply = upstream.getresponse()
            data = reply.read()
        finally:
            upstream.close()
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.getheader("Content-Type", "application/json"))
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_CONNECT(self) -> None:  # noqa: N802 (http.server naming)
        self.proxy.tunnels.append(self.path)
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.send_response(200, "Connection established")
            self.end_headers()
            ends = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(ends), [], [], 10)
                if not readable:
                    break
                for sock in readable:
                    data = sock.recv(65536)
                    if not data:
                        return
                    ends[sock].sendall(data)

    def log_message(self, format, *args) -> None:  # noqa: A002 (signature is fixed)
        pass
