"""Backend adapters: scripted replay discipline, chat HTTP client."""

import json
import logging
import re

import pytest

from conftest import JsonStub, StageBackend, make_chat_backend
from kgqa_engine.backends import RecordingBackend, ScriptedBackend
from kgqa_engine.errors import BackendUnavailable, KgUnavailable, MalformedBackendOutput, ScriptMismatch


class TestScriptedBackend:
    def test_plays_in_order(self):
        backend = ScriptedBackend(
            [
                {"expect_stage": "decompose", "response": "STEP: a | b"},
                {"expect_stage": "predict", "response": "OUTCOME: x"},
            ]
        )
        assert backend.complete("p", "decompose") == "STEP: a | b"
        assert backend.complete("p", "predict") == "OUTCOME: x"

    def test_stage_mismatch_is_test_failure(self):
        backend = ScriptedBackend([{"expect_stage": "decompose", "response": "x"}])
        with pytest.raises(ScriptMismatch):
            backend.complete("p", "predict")

    def test_exhaustion_is_test_failure(self):
        backend = ScriptedBackend([])
        with pytest.raises(ScriptMismatch):
            backend.complete("p", "decompose")

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"expect_stage": "think", "response": "hm"}]))
        assert ScriptedBackend.from_file(path).complete("p", "think") == "hm"

    def test_bad_record_rejected(self):
        with pytest.raises(ValueError):
            ScriptedBackend([{"response": "missing stage"}])

    @pytest.mark.parametrize("error", [BackendUnavailable("down"), KgUnavailable("")])
    def test_error_record_raises_that_engine_error(self, error):
        name, message = type(error).__name__, str(error)
        backend = ScriptedBackend([{"expect_stage": "think", "error": name, "message": message}])
        with pytest.raises(type(error), match=f"^{re.escape(message)}$"):
            backend.complete("p", "think")

    @pytest.mark.parametrize(
        "record",
        [{"error": "ScriptMismatch", "message": "m"}, {"error": "ValueError", "message": "m"},
         {"error": "requests", "message": "m"}, {"error": 5, "message": "m"}, {"error": "KgUnavailable"},
         {"error": "KgUnavailable", "message": None}, {}],
        ids=["script-mismatch", "builtin", "module", "not-a-name", "no-message", "message-not-str", "neither"],
    )
    def test_error_record_that_names_no_engine_error_rejected(self, record):
        with pytest.raises(ValueError, match="^script record 0"):
            ScriptedBackend([{"expect_stage": "think", **record}])


class TestRecordingBackend:
    def test_records_and_drains(self):
        inner = ScriptedBackend([{"expect_stage": "think", "response": "hm"}])
        backend = RecordingBackend(inner)
        backend.complete("p", "think")
        assert backend.drain() == [{"stage": "think", "response": "hm"}]
        assert backend.drain() == []

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyError("x"), ValueError()])
    def test_other_exception_becomes_backend_unavailable(self, error):
        backend = RecordingBackend(StageBackend({"think": Raises(error)}))
        with pytest.raises(BackendUnavailable, match=re.escape(f"backend failed: {error!r}")):
            backend.complete("p", "think")
        assert backend.drain() == [
            {"stage": "think", "error": "BackendUnavailable", "message": f"backend failed: {error!r}"}
        ]

    @pytest.mark.parametrize(
        "error", [BackendUnavailable("down"), MalformedBackendOutput("junk"), ScriptMismatch("off script")]
    )
    def test_engine_errors_and_script_mismatch_pass_unchanged(self, error):
        backend = RecordingBackend(StageBackend({"think": Raises(error)}))
        with pytest.raises(type(error)) as caught:
            backend.complete("p", "think")
        assert caught.value is error
        # a script that ran off its fixture is a test failure, never part of a trace
        recorded = [] if isinstance(error, ScriptMismatch) else [
            {"stage": "think", "error": type(error).__name__, "message": str(error)}
        ]
        assert backend.drain() == recorded

    @pytest.mark.parametrize("response, name", [(None, "NoneType"), (5, "int"), (b"hm", "bytes")])
    def test_non_string_response_is_malformed_and_not_recorded(self, response, name):
        backend = RecordingBackend(StageBackend({"think": lambda prompt: response}))
        with pytest.raises(MalformedBackendOutput, match=f"^backend returned {name}, not str$"):
            backend.complete("p", "think")
        # the error is recorded in place of the response
        message = f"backend returned {name}, not str"
        assert backend.drain() == [{"stage": "think", "error": "MalformedBackendOutput", "message": message}]


class Raises:
    """Backend response that raises ``error`` instead of answering."""

    def __init__(self, error):
        self.error = error

    def __call__(self, prompt):
        raise self.error


def completion(text):
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()


class TestChatCompletionBackend:
    def test_posts_expected_body_and_reads_first_choice(self, json_stub, monkeypatch):
        monkeypatch.setenv("KGQA_CHAT_TOKEN", "sk-test")
        JsonStub.responses = [(200, completion("DECISION: Proceed"))]
        backend = make_chat_backend(json_stub, "test-model")
        assert backend.complete("hello", "evaluate") == "DECISION: Proceed"
        request = JsonStub.seen[0]
        assert request["auth"] == "Bearer sk-test"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["temperature"] == 0
        assert request["body"]["messages"] == [{"role": "user", "content": "hello"}]

    @pytest.mark.parametrize("token", [None, ""], ids=["unset", "empty"])
    def test_no_authorization_header_without_token(self, json_stub, monkeypatch, token):
        JsonStub.responses = [(200, completion("ok"))]
        if token is None:
            monkeypatch.delenv("KGQA_CHAT_TOKEN", raising=False)
        else:
            monkeypatch.setenv("KGQA_CHAT_TOKEN", token)
        assert make_chat_backend(json_stub, "m").complete("p", "think") == "ok"
        assert JsonStub.seen[0]["auth"] is None

    def test_retries_then_raises(self, json_stub, fast_backoff):
        JsonStub.responses = [(500, b"broken")]
        backend = make_chat_backend(json_stub, "m", http_retries=2)
        with pytest.raises(BackendUnavailable):
            backend.complete("p", "think")
        assert len(JsonStub.seen) == 3

    def test_recovers_after_transient_failure(self, json_stub, fast_backoff):
        JsonStub.responses = [(500, b"broken"), (200, completion("ok"))]
        backend = make_chat_backend(json_stub, "m", http_retries=2)
        assert backend.complete("p", "think") == "ok"

    def test_malformed_body_raises(self, json_stub):
        JsonStub.responses = [(200, b'{"weird": true}')]
        backend = make_chat_backend(json_stub, "m", http_retries=0)
        with pytest.raises(BackendUnavailable):
            backend.complete("p", "think")

    def test_malformed_body_is_retried(self, json_stub, sleeps):
        JsonStub.responses = [(200, b'{"weird": true}'), (200, completion("ok"))]
        backend = make_chat_backend(json_stub, "m", http_retries=2)
        assert backend.complete("p", "think") == "ok"
        assert len(JsonStub.seen) == 2 and sleeps == [0.5]

    def test_client_error_fails_fast(self, json_stub, sleeps):
        JsonStub.responses = [(401, b"no token")]
        backend = make_chat_backend(json_stub, "m", http_retries=2)
        with pytest.raises(BackendUnavailable, match="HTTP 401"):
            backend.complete("p", "think")
        assert len(JsonStub.seen) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_server_error_and_throttling_are_retried(self, json_stub, sleeps, status):
        JsonStub.responses = [(status, b"busy")]
        backend = make_chat_backend(json_stub, "m", http_retries=2)
        with pytest.raises(BackendUnavailable, match=f"HTTP {status}"):
            backend.complete("p", "think")
        assert len(JsonStub.seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_each_retry_is_logged(self, json_stub, caplog, fast_backoff):
        caplog.set_level(logging.INFO, logger="kgqa_engine.backends")
        JsonStub.responses = [(500, b"broken"), (200, completion("ok"))]
        backend = make_chat_backend(json_stub, "m", http_retries=2)
        assert backend.complete("p", "think") == "ok"
        assert [(r.name, r.levelno) for r in caplog.records] == [("kgqa_engine.backends", logging.INFO)]
        message = caplog.records[0].getMessage()
        assert "attempt 1 of 3" in message and "HTTP 500" in message and "retrying in 0.01 s" in message
