import json
import logging
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molrag.llm import (
    ERROR_KINDS,
    FINISH_REASONS,
    BackendConfig,
    BackendError,
    ChatClient,
    HttpBackend,
    ReplayBackend,
    ReplayError,
    prompt_digest,
)
from molrag.prompt import ChatPrompt
from backends import ChatServer, ScriptedBackend, completion


def make_prompt(system="system text", user="user text") -> ChatPrompt:
    return ChatPrompt(system_text=system, user_text=user, example_count=0, token_estimate=10)


def make_client(backend, **kwargs) -> ChatClient:
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return ChatClient(backend, **kwargs)


class TestDigest:
    def test_stable_and_distinct(self):
        a = prompt_digest(make_prompt("s", "u"))
        assert a == prompt_digest(make_prompt("s", "u"))
        assert a != prompt_digest(make_prompt("s", "v"))
        assert a != prompt_digest(make_prompt("su", ""))


class TestRetryLoop:
    def test_rate_limit_twice_then_success(self):
        client = make_client(ScriptedBackend(["rate_limited", "rate_limited", "fine"]))
        result = client.complete(make_prompt())
        assert result.raw_text == "fine"
        assert result.attempt_count == 3

    def test_context_length_never_retried(self):
        backend = ScriptedBackend(["context_length_exceeded", "never reached"])
        client = make_client(backend)
        with pytest.raises(BackendError) as err:
            client.complete(make_prompt())
        assert err.value.kind == "context_length_exceeded"
        assert backend.calls == 1

    def test_auth_never_retried(self):
        backend = ScriptedBackend(["auth"])
        client = make_client(backend)
        with pytest.raises(BackendError) as err:
            client.complete(make_prompt())
        assert err.value.kind == "auth"
        assert backend.calls == 1

    def test_bounded_attempts(self):
        backend = ScriptedBackend(["server"])
        client = make_client(backend, max_retries=2)
        with pytest.raises(BackendError):
            client.complete(make_prompt())
        assert backend.calls == 3  # max_retries + 1

    def test_backoff_monotone(self):
        delays = []
        client = ChatClient(
            ScriptedBackend(["rate_limited"] * 4 + ["ok"]),
            max_retries=4,
            backoff_base=0.5,
            sleep=delays.append,
        )
        client.complete(make_prompt())
        assert delays == sorted(delays)
        assert delays == [0.5, 1.0, 2.0, 4.0]

    def test_backoff_stops_at_the_longest_sleep(self):
        # the largest backoff base a backend config accepts doubles past what
        # time.sleep takes
        delays = []
        client = ChatClient(ScriptedBackend(["server"] * 3 + ["ok"]), max_retries=3,
                            backoff_base=threading.TIMEOUT_MAX, sleep=delays.append)
        client.complete(make_prompt())
        assert delays == [threading.TIMEOUT_MAX] * 3

    def test_empty_prompt_rejected(self):
        client = make_client(ScriptedBackend(["x"]))
        with pytest.raises(ValueError):
            client.complete(make_prompt("", ""))


class TestReplayBackend:
    def write_fixture(self, tmp_path, entries):
        path = tmp_path / "fixture.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8"
        )
        return path

    def test_passthrough(self, tmp_path):
        prompt = make_prompt()
        path = self.write_fixture(
            tmp_path, [{"digest": prompt_digest(prompt), "response": "recorded"}]
        )
        client = make_client(ReplayBackend(path))
        result = client.complete(prompt)
        assert result.raw_text == "recorded"
        assert result.attempt_count == 1

    def test_missing_digest(self, tmp_path):
        path = self.write_fixture(tmp_path, [])
        with pytest.raises(ReplayError, match="^no fixture entry for prompt digest ") as err:
            make_client(ReplayBackend(path)).complete(make_prompt())
        assert prompt_digest(make_prompt()) in str(err.value)

    def test_error_script_then_response(self, tmp_path):
        prompt = make_prompt()
        path = self.write_fixture(
            tmp_path,
            [
                {
                    "digest": prompt_digest(prompt),
                    "error_script": ["rate_limited", "rate_limited"],
                    "response": "after retries",
                }
            ],
        )
        result = make_client(ReplayBackend(path)).complete(prompt)
        assert result.raw_text == "after retries"
        assert result.attempt_count == 3

    def test_error_script_without_response_persists(self, tmp_path):
        prompt = make_prompt()
        path = self.write_fixture(
            tmp_path,
            [{"digest": prompt_digest(prompt), "error_script": ["context_length_exceeded"]}],
        )
        backend = ReplayBackend(path)
        for _ in range(3):
            with pytest.raises(BackendError) as err:
                make_client(backend).complete(prompt)
            assert err.value.kind == "context_length_exceeded"

    def test_replay_deterministic(self, tmp_path):
        prompt = make_prompt()
        path = self.write_fixture(
            tmp_path, [{"digest": prompt_digest(prompt), "response": "same"}]
        )
        first = make_client(ReplayBackend(path)).complete(prompt)
        second = make_client(ReplayBackend(path)).complete(prompt)
        assert (first.raw_text, first.finish_reason, first.attempt_count) == (
            second.raw_text,
            second.finish_reason,
            second.attempt_count,
        )

    def test_bad_fixture_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n", encoding="utf-8")
        with pytest.raises(ReplayError, match="bad.jsonl:1: bad JSON: "):
            ReplayBackend(path)

    @pytest.mark.parametrize("line, message", [
        ("42", "entry is not a JSON object"),
        ('["digest"]', "entry is not a JSON object"),
        ('{"digest": ["x"]}', "digest is not a string"),
        ('{"digest": "d", "error_script": 5}', "error_script is not a list"),
    ], ids=["number", "list", "list-digest", "number-script"])
    def test_fixture_line_of_the_wrong_shape(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"digest": "ok", "response": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ReplayError, match=f":2: {message}"):
            ReplayBackend(path)

    def test_fixture_missing_digest_field(self, tmp_path):
        path = self.write_fixture(tmp_path, [{"response": "x"}])
        with pytest.raises(ReplayError, match="fixture.jsonl:1: entry lacks a digest$"):
            ReplayBackend(path)

    def test_fixture_bad_error_kind(self, tmp_path):
        path = self.write_fixture(
            tmp_path, [{"digest": "d", "error_script": ["quota_blown"]}]
        )
        with pytest.raises(ReplayError, match="fixture.jsonl:1: bad error kind 'quota_blown'$"):
            ReplayBackend(path)

    @pytest.mark.parametrize("response", [42, ["text"], {"caption": "x"}],
                             ids=["number", "list", "object"])
    def test_fixture_non_string_response(self, tmp_path, response):
        path = self.write_fixture(tmp_path, [{"digest": "d", "response": response}])
        with pytest.raises(ReplayError, match="fixture.jsonl:1: response is not a string$"):
            ReplayBackend(path)


@pytest.fixture()
def chat_server():
    server = ChatServer()
    yield server
    server.close()


@pytest.fixture(scope="module")
def shared_chat_server():
    server = ChatServer()
    yield server
    server.close()


def free_port() -> int:
    """A loopback port nothing listens on once this returns."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["error", "code", "message", "choices", "content"]) | st.text(max_size=4),
        inner,
        max_size=3,
    ),
    max_leaves=8,
)
reply_bodies = (
    st.binary(max_size=48)
    | json_values.map(lambda value: json.dumps(value).encode("utf-8"))
    | st.builds(
        lambda content, finish: {"choices": [{"message": {"content": content},
                                              "finish_reason": finish}]},
        json_values,
        json_values,
    )
    | st.builds(lambda code, message: {"error": {"code": code, "message": message}},
                json_values, json_values)
)
retry_after_values = (
    st.none()
    | st.integers(0, 10**30).map(str)
    | st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=12)
)


class TestHttpBackend:
    def config(self, server, request_timeout=5.0) -> BackendConfig:
        return BackendConfig(endpoint_url=server.url, max_retries=2,
                             request_timeout=request_timeout)

    def test_request_shape_and_success(self, chat_server, monkeypatch):
        chat_server.reset((200, completion("hello")))
        monkeypatch.setenv("MOLRAG_API_KEY", "sk-test-key")
        backend = HttpBackend(self.config(chat_server))
        text, finish = backend.send(make_prompt("sys", "usr"))
        assert (text, finish) == ("hello", "stop")
        [(method, path, headers, raw)] = chat_server.requests
        assert (method, path) == ("POST", "/v1/chat/completions")
        body = json.loads(raw)
        assert raw == json.dumps(body).encode("utf-8")
        assert body["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "usr"},
        ]
        assert body["model"] == "gpt-3.5-turbo"
        assert "max_tokens" in body and "temperature" in body
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer sk-test-key"

    @pytest.mark.parametrize(
        "status,payload,kind",
        [
            (401, None, "auth"),
            (403, None, "auth"),
            (429, None, "rate_limited"),
            (500, None, "server"),
            (503, None, "server"),
            (400, {"error": {"code": "context_length_exceeded", "message": "too long"}},
             "context_length_exceeded"),
            (400, {"error": {"code": "bad_request", "message": "nope"}}, "malformed_response"),
        ],
    )
    def test_error_mapping(self, chat_server, status, payload, kind):
        chat_server.reset((status, payload))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server)).send(make_prompt())
        assert err.value.kind == kind

    @pytest.mark.parametrize(
        "status,raw,kind",
        [
            (502, b'{"error": "upstream timed out"}', "server"),
            (500, b'["x"]', "server"),
            (502, b"null", "server"),
            (429, b'"slow"', "rate_limited"),
            (502, b"[" * 5000, "server"),
        ],
        ids=["error-string", "list", "null", "string", "deep-nesting"],
    )
    def test_error_body_without_error_object_is_classified_by_status(
        self, chat_server, status, raw, kind
    ):
        chat_server.reset((status, raw))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server)).send(make_prompt())
        assert err.value.kind == kind
        assert err.value.message == f"HTTP {status}"

    def test_network_error(self):
        config = BackendConfig(endpoint_url=f"http://127.0.0.1:{free_port()}/v1/chat")
        with pytest.raises(BackendError) as err:
            HttpBackend(config).send(make_prompt())
        assert err.value.kind == "network"
        assert err.value.message == "request failed: ConnectionRefusedError"

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(self, chat_server, monkeypatch, status):
        monkeypatch.setenv("MOLRAG_API_KEY", "sk-stays-home")
        elsewhere = ChatServer()
        try:
            elsewhere.reset((200, completion("moved")))
            chat_server.reset((status, None, {"Location": elsewhere.url}))
            with pytest.raises(BackendError) as err:
                HttpBackend(self.config(chat_server)).send(make_prompt())
            assert err.value.kind == "malformed_response"
            assert err.value.message == f"HTTP {status}"
            assert len(chat_server.requests) == 1
            assert elsewhere.requests == []
        finally:
            elsewhere.close()

    @pytest.mark.parametrize(
        "url",
        ["not a url", "http://127.0.0.1:port/v1/chat", "data:,x", "file:///dev/null"],
        ids=["no-scheme", "bad-port", "data", "file"],
    )
    def test_unusable_url_is_a_network_error(self, url):
        # no request could ever reach such a URL: the config refuses it before a backend
        # is built, where a send would fail as network on every attempt
        with pytest.raises(ValueError, match="endpoint_url"):
            BackendConfig(endpoint_url=url)

    def test_stall_past_the_timeout_is_a_network_error(self, chat_server):
        chat_server.reset((200, completion("too late")))
        chat_server.stall = 5.0
        started = time.monotonic()
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server, request_timeout=0.2)).send(make_prompt())
        assert err.value.kind == "network"
        assert time.monotonic() - started < 4.0

    def test_malformed_body(self, chat_server):
        chat_server.reset((200, {"nope": 1}))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server)).send(make_prompt())
        assert err.value.kind == "malformed_response"

    @pytest.mark.parametrize("raw", [b'{"choices": "\xff"}', b"[" * 5000],
                             ids=["non-utf8", "deep-nesting"])
    def test_undecodable_body_is_malformed(self, chat_server, raw):
        chat_server.reset((200, raw))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server)).send(make_prompt())
        assert err.value.kind == "malformed_response"

    @pytest.mark.parametrize("content", [None, ["text"], 42], ids=["null", "list", "number"])
    def test_non_string_content_is_malformed(self, chat_server, content):
        chat_server.reset((200, completion(content)))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server)).send(make_prompt())
        assert err.value.kind == "malformed_response"

    def test_api_key_never_logged(self, chat_server, monkeypatch, caplog):
        secret = "sk-do-not-leak-8841"
        monkeypatch.setenv("MOLRAG_API_KEY", secret)
        slow_down = (429, {"error": {"message": "slow down"}})
        chat_server.reset(slow_down, slow_down, (200, completion("ok")))
        client = ChatClient(
            HttpBackend(self.config(chat_server)), max_retries=3, backoff_base=0.0,
            sleep=lambda s: None,
        )
        with caplog.at_level(logging.DEBUG):
            result = client.complete(make_prompt())
        assert result.attempt_count == 3
        assert all(headers["Authorization"] == f"Bearer {secret}"
                   for _, _, headers, _ in chat_server.requests)
        for record in caplog.records:
            assert secret not in record.getMessage()

    def test_api_key_not_in_error_text(self, chat_server, monkeypatch):
        secret = "sk-never-show-this"
        monkeypatch.setenv("MOLRAG_API_KEY", secret)
        chat_server.reset((500, None))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config(chat_server)).send(make_prompt())
        assert secret not in str(err.value)

    @pytest.mark.parametrize(
        "status,retry_after,delays",
        [
            (429, "3", [3.0]),
            (503, " 2 ", [2.0]),
            (429, "0", [0.5]),
            (503, "600", [5.0]),
            (429, "Wed, 21 Oct 2015 07:28:00 GMT", [0.5]),
            (429, "-1", [0.5]),
            (500, "3", [0.5]),
        ],
        ids=["rate-limited", "unavailable", "shorter-than-backoff", "capped-at-timeout",
             "http-date", "negative", "not-429-or-503"],
    )
    def test_retry_after_lengthens_the_wait(self, chat_server, status, retry_after, delays):
        chat_server.reset((status, None, {"Retry-After": retry_after}), (200, completion("ok")))
        slept = []
        client = ChatClient(
            HttpBackend(self.config(chat_server)), max_retries=2, backoff_base=0.5,
            sleep=slept.append,
        )
        assert client.complete(make_prompt()).raw_text == "ok"
        assert slept == delays

    @settings(max_examples=150, deadline=None)
    @given(status=st.integers(200, 599), body=reply_bodies, retry_after=retry_after_values)
    def test_send_raises_only_backend_errors(self, shared_chat_server, status, body,
                                             retry_after):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        shared_chat_server.reset((status, body, headers))
        config = self.config(shared_chat_server)
        try:
            text, finish = HttpBackend(config).send(make_prompt())
        except BackendError as err:
            assert err.kind in ERROR_KINDS
            assert err.retry_after is None or 0.0 <= err.retry_after <= config.request_timeout
        else:
            assert status == 200
            assert isinstance(text, str) and finish in FINISH_REASONS
