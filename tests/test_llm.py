import json
import logging

import pytest
import requests

from molrag.llm import (
    BackendConfig,
    BackendError,
    ChatClient,
    FixtureParseError,
    HttpBackend,
    MissingFixture,
    ReplayBackend,
    ScriptedBackend,
    prompt_digest,
)
from molrag.prompt import ChatPrompt


def make_prompt(system="system text", user="user text") -> ChatPrompt:
    return ChatPrompt(system_text=system, user_text=user, example_count=0, token_estimate=10)


def make_client(backend, **kwargs) -> ChatClient:
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return ChatClient(backend, **kwargs)


class FakeResponse:
    def __init__(self, status_code: int, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


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
        with pytest.raises(MissingFixture) as err:
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
        with pytest.raises(FixtureParseError):
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
        with pytest.raises(FixtureParseError, match=f":2: {message}"):
            ReplayBackend(path)

    def test_fixture_missing_digest_field(self, tmp_path):
        path = self.write_fixture(tmp_path, [{"response": "x"}])
        with pytest.raises(FixtureParseError):
            ReplayBackend(path)

    def test_fixture_bad_error_kind(self, tmp_path):
        path = self.write_fixture(
            tmp_path, [{"digest": "d", "error_script": ["quota_blown"]}]
        )
        with pytest.raises(FixtureParseError):
            ReplayBackend(path)

    @pytest.mark.parametrize("response", [42, ["text"], {"caption": "x"}],
                             ids=["number", "list", "object"])
    def test_fixture_non_string_response(self, tmp_path, response):
        path = self.write_fixture(tmp_path, [{"digest": "d", "response": response}])
        with pytest.raises(FixtureParseError, match="response is not a string"):
            ReplayBackend(path)


class TestHttpBackend:
    def config(self) -> BackendConfig:
        return BackendConfig(endpoint_url="https://example.test/v1/chat", max_retries=2)

    def test_request_shape_and_success(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers, timeout=timeout)
            return FakeResponse(
                200,
                {
                    "choices": [
                        {"message": {"content": "hello"}, "finish_reason": "stop"}
                    ]
                },
            )

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setenv("MOLRAG_API_KEY", "sk-test-key")
        backend = HttpBackend(self.config())
        text, finish = backend.send(make_prompt("sys", "usr"))
        assert (text, finish) == ("hello", "stop")
        assert seen["url"] == "https://example.test/v1/chat"
        assert seen["body"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "usr"},
        ]
        assert seen["body"]["model"] == "gpt-3.5-turbo"
        assert "max_tokens" in seen["body"] and "temperature" in seen["body"]
        assert seen["headers"]["Authorization"] == "Bearer sk-test-key"

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
    def test_error_mapping(self, monkeypatch, status, payload, kind):
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: FakeResponse(status, payload)
        )
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config()).send(make_prompt())
        assert err.value.kind == kind

    def test_network_error(self, monkeypatch):
        def boom(*a, **k):
            raise requests.ConnectionError("nope")

        monkeypatch.setattr(requests, "post", boom)
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config()).send(make_prompt())
        assert err.value.kind == "network"

    def test_malformed_body(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, {"nope": 1}))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config()).send(make_prompt())
        assert err.value.kind == "malformed_response"

    @pytest.mark.parametrize("content", [None, ["text"], 42], ids=["null", "list", "number"])
    def test_non_string_content_is_malformed(self, monkeypatch, content):
        body = {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, body))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config()).send(make_prompt())
        assert err.value.kind == "malformed_response"

    def test_api_key_never_logged(self, monkeypatch, caplog):
        secret = "sk-do-not-leak-8841"
        monkeypatch.setenv("MOLRAG_API_KEY", secret)
        calls = {"n": 0}

        def flaky_post(url, json=None, headers=None, timeout=None):
            calls["n"] += 1
            if calls["n"] < 3:
                return FakeResponse(429, {"error": {"message": "slow down"}})
            return FakeResponse(
                200, {"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]}
            )

        monkeypatch.setattr(requests, "post", flaky_post)
        client = ChatClient(
            HttpBackend(self.config()), max_retries=3, backoff_base=0.0, sleep=lambda s: None
        )
        with caplog.at_level(logging.DEBUG):
            result = client.complete(make_prompt())
        assert result.attempt_count == 3
        for record in caplog.records:
            assert secret not in record.getMessage()

    def test_api_key_not_in_error_text(self, monkeypatch):
        secret = "sk-never-show-this"
        monkeypatch.setenv("MOLRAG_API_KEY", secret)
        monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(500, None))
        with pytest.raises(BackendError) as err:
            HttpBackend(self.config()).send(make_prompt())
        assert secret not in str(err.value)
