"""How HttpBackend reaches the endpoint: kept connections, proxies and TLS.

Every server here is a loopback one from ``backends.py`` and counts the connections
it accepts, so a test can see how many connections a run opened and that all of
them were closed when it ended.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from molrag.llm import BackendConfig, BackendError, ChatClient, HttpBackend
from molrag.prompt import ChatPrompt
from molrag.store import save_store

from backends import ChatServer, ForwardProxy, completion
from cli_runner import invoke
from test_cli import eval_args

CAPTION = completion(json.dumps({"caption": "The molecule is a test compound."}))


def make_prompt(user="Input: CCO") -> ChatPrompt:
    return ChatPrompt(system_text="sys", user_text=user, example_count=0, token_estimate=1)


def backend_config(server, **fields) -> BackendConfig:
    return BackendConfig(endpoint_url=server.url, request_timeout=5.0, **fields)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, corpus_store):
    path = tmp_path_factory.mktemp("transport") / "store"
    save_store(corpus_store, path)
    return path


@pytest.fixture()
def keep_alive_server():
    server = ChatServer(protocol="HTTP/1.1")
    yield server
    server.close()


@pytest.fixture()
def no_proxy_env(monkeypatch):
    """An environment that names no proxy, whatever the host's does."""
    import os

    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


class TestKeptConnections:
    def test_sends_on_one_thread_share_one_connection(self, keep_alive_server):
        keep_alive_server.reset((200, completion("hello")))
        with HttpBackend(backend_config(keep_alive_server)) as backend:
            replies = [backend.send(make_prompt(f"Input: {i}")) for i in range(5)]
            assert replies == [("hello", "stop")] * 5
            assert keep_alive_server.connections == 1
            assert keep_alive_server.open_connections == 1
        assert keep_alive_server.wait_closed() == 0
        assert len(keep_alive_server.requests) == 5

    def test_http_1_0_server_gets_one_connection_per_request(self):
        server = ChatServer(protocol="HTTP/1.0")
        try:
            server.reset((200, completion("hello")), (429, None), (200, completion("again")))
            with HttpBackend(backend_config(server)) as backend:
                first = backend.send(make_prompt())
                with pytest.raises(BackendError) as err:
                    backend.send(make_prompt())
                assert err.value.kind == "rate_limited"
                last = backend.send(make_prompt())
            assert (first, last) == (("hello", "stop"), ("again", "stop"))
            assert server.connections == 3 and len(server.requests) == 3
            assert server.wait_closed() == 0
        finally:
            server.close()

    def test_kept_connection_the_server_dropped_is_reopened_once(self):
        # the server closes each connection after its reply, without saying so: every
        # later send finds its kept connection closed, sends again on a fresh one, and
        # the server still answers each request once
        server = ChatServer(protocol="HTTP/1.1", drop_idle=True)
        try:
            server.reset((200, completion("ok")))
            with HttpBackend(backend_config(server)) as backend:
                client = ChatClient(backend, max_retries=0, backoff_base=0.0)
                results = [client.complete(make_prompt(f"Input: {i}")) for i in range(4)]
            assert [r.attempt_count for r in results] == [1, 1, 1, 1]
            assert [json.loads(body)["messages"][1]["content"]
                    for _, _, _, body in server.requests] == [f"Input: {i}" for i in range(4)]
            assert server.connections == 4
            assert server.wait_closed() == 0
        finally:
            server.close()

    def test_a_fresh_connection_closed_without_a_reply_is_a_network_error(
            self, keep_alive_server):
        keep_alive_server.reset((None, None))
        with HttpBackend(backend_config(keep_alive_server)) as backend:
            with pytest.raises(BackendError) as err:
                backend.send(make_prompt())
        assert err.value.kind == "network"
        assert err.value.message == "request failed: RemoteDisconnected"
        assert len(keep_alive_server.requests) == 1  # not sent again

    def test_a_reused_connection_is_reopened_only_once(self, keep_alive_server):
        keep_alive_server.reset((200, completion("ok")), (None, None))
        with HttpBackend(backend_config(keep_alive_server)) as backend:
            assert backend.send(make_prompt()) == ("ok", "stop")
            with pytest.raises(BackendError) as err:
                backend.send(make_prompt())
        assert err.value.kind == "network"
        # the reused connection and then one fresh connection, each closed unanswered
        assert len(keep_alive_server.requests) == 3
        assert keep_alive_server.connections == 2

    def test_the_socket_sends_without_delay(self, keep_alive_server):
        import socket

        keep_alive_server.reset((200, completion("ok")))
        with HttpBackend(backend_config(keep_alive_server)) as backend:
            backend.send(make_prompt())
            [conn] = backend._connections
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_a_closed_backend_reopens_on_its_next_send(self, keep_alive_server):
        keep_alive_server.reset((200, completion("ok")))
        backend = HttpBackend(backend_config(keep_alive_server))
        backend.send(make_prompt())
        backend.close()
        assert keep_alive_server.wait_closed() == 0
        backend.send(make_prompt())
        backend.close()
        assert keep_alive_server.connections == 2
        assert keep_alive_server.wait_closed() == 0


class TestCommandConnections:
    """evaluate and ablate keep one connection per worker thread for the whole command."""

    @staticmethod
    def write_backend(tmp_path, server) -> str:
        path = tmp_path / "backend.json"
        path.write_text(json.dumps({"endpoint_url": server.url, "retry_backoff_base": 0}),
                        encoding="utf-8")
        return str(path)

    def http_args(self, args, tmp_path, server) -> list[str]:
        at = args.index("--replay")
        return [*args[:at], *args[at + 2:], "--backend", self.write_backend(tmp_path, server)]

    def test_evaluate_uses_at_most_one_connection_per_thread(
            self, data_dir, store_dir, tmp_path, keep_alive_server):
        keep_alive_server.reset((200, CAPTION))
        args = self.http_args(eval_args(data_dir, store_dir, tmp_path / "out",
                                        extra=("--concurrency", "4")), tmp_path,
                              keep_alive_server)
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert len(keep_alive_server.requests) == 50
        assert 1 <= keep_alive_server.connections <= 4
        assert keep_alive_server.wait_closed() == 0

    def test_ablate_keeps_its_connections_across_cells(self, data_dir, store_dir, tmp_path,
                                                       keep_alive_server):
        keep_alive_server.reset((200, CAPTION))
        out = tmp_path / "grid"
        result = invoke([
            "ablate", str(data_dir / "test_items.tsv"), "--store", str(store_dir),
            "--task", "mol2cap", "--grid-shots", "0,1,2", "--grid-strategies",
            "random,morgan_fts", "--limit", "10", "--concurrency", "2",
            "--backend", self.write_backend(tmp_path, keep_alive_server), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(list(out.glob("cell_*/report.json"))) == 6
        assert len(keep_alive_server.requests) == 60
        assert 1 <= keep_alive_server.connections <= 2
        assert keep_alive_server.wait_closed() == 0

    def test_outage_then_resume_writes_the_uninterrupted_report(
            self, data_dir, store_dir, tmp_path, keep_alive_server):
        # the server fails after 7 replies; the run stops with one error line and keeps
        # the rows it finished, and a resume against the recovered server runs the rest
        def run(out):
            return invoke(self.http_args(
                eval_args(data_dir, store_dir, out, extra=("--max-retries", "1")), tmp_path,
                keep_alive_server))

        full, cut = tmp_path / "full", tmp_path / "cut"
        keep_alive_server.reset((200, CAPTION))
        result = run(full)
        assert result.exit_code == 0, result.output

        keep_alive_server.reset(*[(200, CAPTION)] * 7, (503, None))
        result = run(cut)
        assert result.exit_code == 1 and result.output == "Error: [server] HTTP 503\n"
        rows = (cut / "items.jsonl").read_text(encoding="utf-8").splitlines()
        assert 1 <= len(rows) <= 7 and not (cut / "report.json").exists()

        keep_alive_server.reset((200, CAPTION))
        result = run(cut)
        assert result.exit_code == 0, result.output
        assert len(keep_alive_server.requests) == 50 - len(rows)
        for name in ("report.json", "items.jsonl"):
            assert (cut / name).read_bytes() == (full / name).read_bytes(), name
        assert keep_alive_server.wait_closed() == 0

    def test_unreachable_endpoint_ends_the_run(self, data_dir, store_dir, tmp_path):
        out = tmp_path / "out"
        backend = tmp_path / "backend.json"
        backend.write_text(json.dumps({"endpoint_url": "http://127.0.0.1:1/",
                                       "retry_backoff_base": 0}), encoding="utf-8")
        args = eval_args(data_dir, store_dir, out, extra=("--limit", "3"))
        at = args.index("--replay")
        result = invoke([*args[:at], *args[at + 2:], "--backend", str(backend)])
        assert result.exit_code == 1
        assert result.output == "Error: [network] request failed: ConnectionRefusedError\n"
        assert (out / "items.jsonl").read_text(encoding="utf-8") == ""

    def test_unusable_url_is_refused_before_any_file_is_written(self, data_dir, store_dir,
                                                                 tmp_path):
        out = tmp_path / "out"
        backend = tmp_path / "backend.json"
        backend.write_text(json.dumps({"endpoint_url": "ftp://127.0.0.1/chat"}),
                           encoding="utf-8")
        args = eval_args(data_dir, store_dir, out)
        at = args.index("--replay")
        result = invoke([*args[:at], *args[at + 2:], "--backend", str(backend)])
        assert result.exit_code == 1
        assert result.output == (
            "Error: endpoint_url must be an http or https URL with a host\n")
        assert not out.exists()


class TestProxy:
    def test_http_proxy_forwards_and_no_proxy_bypasses_it(self, no_proxy_env,
                                                          keep_alive_server):
        keep_alive_server.reset((200, completion("via proxy")))
        proxy = ForwardProxy()
        try:
            no_proxy_env.setenv("http_proxy", proxy.url)
            with HttpBackend(backend_config(keep_alive_server)) as backend:
                assert backend.send(make_prompt()) == ("via proxy", "stop")
            assert proxy.forwarded == [keep_alive_server.url]
            [(_, path, _, _)] = keep_alive_server.requests

            no_proxy_env.setenv("no_proxy", "127.0.0.1")
            with HttpBackend(backend_config(keep_alive_server)) as backend:
                assert backend.send(make_prompt()) == ("via proxy", "stop")
            assert proxy.forwarded == [keep_alive_server.url]  # the proxy saw no more
            assert len(keep_alive_server.requests) == 2
        finally:
            proxy.close()
        assert path == "/v1/chat/completions"
        assert keep_alive_server.wait_closed() == 0


    @pytest.mark.parametrize("proxy", ["http://127.0.0.1:port", "http://:3128"],
                             ids=["bad-port", "no-host"])
    def test_unusable_proxy_is_a_network_error(self, no_proxy_env, proxy):
        no_proxy_env.setenv("http_proxy", proxy)
        with pytest.raises(BackendError) as err:
            HttpBackend(BackendConfig(endpoint_url="http://127.0.0.1:9/v1/chat"))
        assert err.value.kind == "network"
        assert err.value.message == "the http proxy is not a usable URL"


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """A CA made by ``openssl`` and a server certificate for 127.0.0.1 that it signed."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not installed")
    tmp = tmp_path_factory.mktemp("tls")
    ec = ["-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes"]

    def openssl(*args):
        subprocess.run(["openssl", *args], cwd=tmp, check=True, capture_output=True,
                       timeout=60)

    openssl("req", "-x509", *ec, "-keyout", "ca.key", "-out", "ca.pem", "-days", "2",
            "-subj", "/CN=molrag test CA", "-addext", "basicConstraints=critical,CA:TRUE",
            "-addext", "keyUsage=critical,keyCertSign,cRLSign")
    openssl("req", *ec, "-keyout", "server.key", "-out", "server.csr", "-subj",
            "/CN=127.0.0.1")
    (tmp / "server.ext").write_text(
        "subjectAltName=IP:127.0.0.1\nbasicConstraints=critical,CA:FALSE\n"
        "keyUsage=critical,digitalSignature\nextendedKeyUsage=serverAuth\n"
        "authorityKeyIdentifier=keyid\nsubjectKeyIdentifier=hash\n", encoding="utf-8")
    openssl("x509", "-req", "-in", "server.csr", "-CA", "ca.pem", "-CAkey", "ca.key",
            "-set_serial", "2", "-days", "2", "-extfile", "server.ext", "-out", "server.pem")
    return Path(tmp)


@pytest.fixture()
def tls_server(certificates):
    server = ChatServer(protocol="HTTP/1.1",
                        tls=(certificates / "server.pem", certificates / "server.key"))
    yield server
    server.close()


class TestTls:
    def test_trusted_by_ssl_cert_file(self, certificates, tls_server, no_proxy_env):
        no_proxy_env.setenv("SSL_CERT_FILE", str(certificates / "ca.pem"))
        tls_server.reset((200, completion("secure")))
        with HttpBackend(backend_config(tls_server)) as backend:
            assert [backend.send(make_prompt()) for _ in range(3)] == [("secure", "stop")] * 3
        assert tls_server.connections == 1
        assert tls_server.wait_closed() == 0

    def test_unknown_ca_is_a_network_error(self, certificates, tls_server, no_proxy_env):
        no_proxy_env.setenv("SSL_CERT_FILE", str(certificates / "server.key"))  # no CA
        tls_server.reset((200, completion("secure")))
        with HttpBackend(backend_config(tls_server)) as backend:
            with pytest.raises(BackendError) as err:
                backend.send(make_prompt())
        assert err.value.kind == "network"
        assert err.value.message == "request failed: SSLCertVerificationError"
        assert tls_server.requests == []

    def test_https_proxy_tunnels_to_the_endpoint(self, certificates, tls_server,
                                                 no_proxy_env):
        no_proxy_env.setenv("SSL_CERT_FILE", str(certificates / "ca.pem"))
        tls_server.reset((200, completion("tunnelled")))
        proxy = ForwardProxy()
        try:
            no_proxy_env.setenv("https_proxy", proxy.url)
            with HttpBackend(backend_config(tls_server)) as backend:
                assert backend.send(make_prompt()) == ("tunnelled", "stop")
                assert backend.send(make_prompt()) == ("tunnelled", "stop")
            port = tls_server.url.split(":")[2].split("/")[0]
            assert proxy.tunnels == [f"127.0.0.1:{port}"]  # one tunnel, kept
            assert [path for _, path, _, _ in tls_server.requests] == [
                "/v1/chat/completions"] * 2
        finally:
            proxy.close()
        assert tls_server.wait_closed() == 0
