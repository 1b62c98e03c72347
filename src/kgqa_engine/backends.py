"""Reasoning backends: a chat-completion HTTP adapter and a scripted one.

Each backend exposes a single call, ``complete(prompt, stage)``, where the
stage tag names the response schema the caller expects
("decompose", "predict", "classify", "think", "evaluate", "select",
"answer", "extract").
"""

from __future__ import annotations

import json
import logging
from typing import Protocol

import urllib3

from . import errors
from .config import EngineConfig
from .errors import BackendUnavailable, EngineError, MalformedBackendOutput, ScriptMismatch, describe
from .transport import JSON_HEADERS, Client, post

log = logging.getLogger(__name__)

CHAT_TOKEN_ENV = "KGQA_CHAT_TOKEN"  # bearer token, read on each request


class ReasoningBackend(Protocol):
    def complete(self, prompt: str, stage: str) -> str: ...


class ChatCompletionBackend(Client):
    """Minimal chat-completions client.

    Endpoint, model, timeout and retries are read from ``config``
    (``chat_url``, ``chat_model``, ``http_timeout``, ``http_retries``) on
    each call.  Temperature is 0 for reproducibility; the bearer token
    comes from ``KGQA_CHAT_TOKEN`` so it never lands in config files.
    Requests are retried as ``transport.post`` does, a malformed body
    included, before giving up with BackendUnavailable.  They go through
    the backend's ``transport.Client`` pool, opened on the first call, which
    takes the environment's proxy, CA-bundle and netrc settings once.
    """

    def __init__(self, config: EngineConfig):
        self.config = config

    def complete(self, prompt: str, stage: str) -> str:
        config = self.config
        body = {
            "model": config.chat_model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
        }
        return post(config.chat_url, _content, BackendUnavailable, log, body=json.dumps(body).encode(),
                    headers=JSON_HEADERS, timeout=config.http_timeout, retries=config.http_retries,
                    session=self, token_env=CHAT_TOKEN_ENV)


def _content(resp: urllib3.BaseHTTPResponse) -> str:
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise BackendUnavailable(f"malformed completion response: {exc}") from exc
    if not isinstance(content, str):
        # null on refusals and tool calls, or any other non-text value
        raise BackendUnavailable(f"completion content is {type(content).__name__}, not str")
    return content


def _engine_error(name) -> type[EngineError] | None:
    """The ``EngineError`` subclass in ``errors`` called ``name``; None for anything else."""
    found = getattr(errors, name, None) if isinstance(name, str) else None
    return found if isinstance(found, type) and issubclass(found, EngineError) else None


class ScriptedBackend:
    """Replays a fixed list of records in order.

    Each record is {expect_stage, response}, or {expect_stage, error,
    message} for a call that raised: ``error`` names an ``EngineError``
    subclass, raised again with ``message``.  Any deviation -- wrong stage
    or a call past the end of the script -- is a fixture bug and raises
    ScriptMismatch (an AssertionError) so tests fail loudly instead of
    degrading.
    """

    def __init__(self, records: list[dict]):
        if not isinstance(records, list):
            raise ValueError("a script is a list of records")
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or "expect_stage" not in rec:
                raise ValueError(f"script record {i} needs expect_stage")
            if "error" not in rec and "response" not in rec:
                raise ValueError(f"script record {i} needs a response or an error")
            if "error" in rec and (_engine_error(rec["error"]) is None or not isinstance(rec.get("message"), str)):
                raise ValueError(f"script record {i}: error {rec['error']!r} is no engine error with a message")
        self.records = records
        self.cursor = 0

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def complete(self, prompt: str, stage: str) -> str:
        if self.cursor >= len(self.records):
            raise ScriptMismatch(f"script exhausted at call {self.cursor} (stage {stage!r})")
        record = self.records[self.cursor]
        if record["expect_stage"] != stage:
            raise ScriptMismatch(
                f"script expected stage {record['expect_stage']!r} at call "
                f"{self.cursor}, engine asked for {stage!r}"
            )
        self.cursor += 1
        if "error" in record:
            raise _engine_error(record["error"])(record["message"])
        return record["response"]


class RecordingBackend:
    """Wraps a backend and logs every call for the trace.

    Every backend call of a run passes through here: an exception that is
    neither an ``EngineError`` nor a ``ScriptMismatch`` becomes
    ``BackendUnavailable``, a non-``str`` response becomes
    ``MalformedBackendOutput``, and a ``str`` subclass becomes a plain
    ``str``.  A call logs {stage, response}, or {stage, error, message}
    for the ``EngineError`` it raised, named by its nearest ``errors`` class,
    so ``ScriptedBackend`` can replay either; a ``ScriptMismatch`` is not logged.
    """

    def __init__(self, inner: ReasoningBackend):
        self.inner = inner
        self.buffer: list[dict] = []

    def complete(self, prompt: str, stage: str) -> str:
        try:
            response = self.inner.complete(prompt, stage)
            if not isinstance(response, str):
                raise MalformedBackendOutput(f"backend returned {type(response).__name__}, not str")
            response = str.__str__(response)  # a plain copy of a str subclass: none of its methods run
        except ScriptMismatch:
            raise
        except EngineError as exc:
            self._log_error(stage, exc)
            raise
        except Exception as exc:
            error = BackendUnavailable(f"backend failed: {describe(exc)}")
            self._log_error(stage, error)
            raise error from exc
        self.buffer.append({"stage": stage, "response": response})
        return response

    def _log_error(self, stage: str, exc: EngineError) -> None:
        error = next(c.__name__ for c in type(exc).__mro__ if _engine_error(c.__name__) is c)
        self.buffer.append({"stage": stage, "error": error, "message": describe(exc, str)})

    def drain(self) -> list[dict]:
        calls, self.buffer = self.buffer, []
        return calls
