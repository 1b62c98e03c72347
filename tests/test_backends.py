"""Backend adapters: scripted replay discipline, chat HTTP client."""

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from kgqa_engine import backends as backends_mod
from kgqa_engine.backends import ChatCompletionBackend, RecordingBackend, ScriptedBackend
from kgqa_engine.errors import BackendUnavailable, ScriptMismatch


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


class TestRecordingBackend:
    def test_records_and_drains(self):
        inner = ScriptedBackend([{"expect_stage": "think", "response": "hm"}])
        backend = RecordingBackend(inner)
        backend.complete("p", "think")
        assert backend.drain() == [{"stage": "think", "response": "hm"}]
        assert backend.drain() == []


class _ChatHandler(BaseHTTPRequestHandler):
    responses = []
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).seen.append(
            {"body": json.loads(self.rfile.read(length)), "auth": self.headers.get("Authorization")}
        )
        idx = min(len(type(self).seen) - 1, len(type(self).responses) - 1)
        status, payload = type(self).responses[idx]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    _ChatHandler.responses = []
    _ChatHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def completion(text):
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()


class TestChatCompletionBackend:
    def test_posts_expected_body_and_reads_first_choice(self, chat_server, monkeypatch):
        monkeypatch.setenv("KGQA_CHAT_TOKEN", "sk-test")
        _ChatHandler.responses = [(200, completion("DECISION: Proceed"))]
        backend = ChatCompletionBackend(chat_server, "test-model")
        assert backend.complete("hello", "evaluate") == "DECISION: Proceed"
        request = _ChatHandler.seen[0]
        assert request["auth"] == "Bearer sk-test"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["temperature"] == 0
        assert request["body"]["messages"] == [{"role": "user", "content": "hello"}]

    def test_retries_then_raises(self, chat_server):
        _ChatHandler.responses = [(500, b"broken")]
        backend = ChatCompletionBackend(chat_server, "m", retries=2, backoff=0.01)
        with pytest.raises(BackendUnavailable):
            backend.complete("p", "think")
        assert len(_ChatHandler.seen) == 3

    def test_recovers_after_transient_failure(self, chat_server):
        _ChatHandler.responses = [(500, b"broken"), (200, completion("ok"))]
        backend = ChatCompletionBackend(chat_server, "m", retries=2, backoff=0.01)
        assert backend.complete("p", "think") == "ok"

    def test_malformed_body_raises(self, chat_server):
        _ChatHandler.responses = [(200, b'{"weird": true}')]
        backend = ChatCompletionBackend(chat_server, "m", retries=0)
        with pytest.raises(BackendUnavailable):
            backend.complete("p", "think")

    def test_client_error_fails_fast(self, chat_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(backends_mod.time, "sleep", sleeps.append)
        _ChatHandler.responses = [(401, b"no token")]
        backend = ChatCompletionBackend(chat_server, "m", retries=2, backoff=0.5)
        with pytest.raises(BackendUnavailable, match="HTTP 401"):
            backend.complete("p", "think")
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_server_error_and_throttling_are_retried(self, chat_server, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(backends_mod.time, "sleep", sleeps.append)
        _ChatHandler.responses = [(status, b"busy")]
        backend = ChatCompletionBackend(chat_server, "m", retries=2, backoff=0.5)
        with pytest.raises(BackendUnavailable, match=f"HTTP {status}"):
            backend.complete("p", "think")
        assert len(_ChatHandler.seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_each_retry_is_logged(self, chat_server, caplog):
        caplog.set_level(logging.INFO, logger="kgqa_engine.backends")
        _ChatHandler.responses = [(500, b"broken"), (200, completion("ok"))]
        backend = ChatCompletionBackend(chat_server, "m", retries=2, backoff=0.01)
        assert backend.complete("p", "think") == "ok"
        assert [(r.name, r.levelno) for r in caplog.records] == [("kgqa_engine.backends", logging.INFO)]
        message = caplog.records[0].getMessage()
        assert "attempt 1 of 3" in message and "HTTP 500" in message and "retrying in 0.01 s" in message
