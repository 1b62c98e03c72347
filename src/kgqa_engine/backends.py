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

import requests

from .config import EngineConfig
from .errors import BackendUnavailable, EngineError, MalformedBackendOutput, ScriptMismatch
from .transport import post

log = logging.getLogger(__name__)

CHAT_TOKEN_ENV = "KGQA_CHAT_TOKEN"  # bearer token, read on each request


class ReasoningBackend(Protocol):
    def complete(self, prompt: str, stage: str) -> str: ...


class ChatCompletionBackend:
    """Minimal chat-completions client.

    Endpoint, model, timeout and retries are read from ``config``
    (``chat_url``, ``chat_model``, ``http_timeout``, ``http_retries``) on
    each call.  Temperature is 0 for reproducibility; the bearer token
    comes from ``KGQA_CHAT_TOKEN`` so it never lands in config files.
    Requests are retried as ``transport.post`` does, a malformed body
    included, before giving up with BackendUnavailable.
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
        return post(config.chat_url, _content, BackendUnavailable, log, timeout=config.http_timeout,
                    retries=config.http_retries, token_env=CHAT_TOKEN_ENV, json=body,
                    headers={"Content-Type": "application/json"})


def _content(resp: requests.Response) -> str:
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise BackendUnavailable(f"malformed completion response: {exc}") from exc
    if not isinstance(content, str):
        # null on refusals and tool calls, or any other non-text value
        raise BackendUnavailable(f"completion content is {type(content).__name__}, not str")
    return content


class ScriptedBackend:
    """Replays a fixed list of {expect_stage, response} records in order.

    Any deviation -- wrong stage or a call past the end of the script -- is
    a fixture bug and raises ScriptMismatch (an AssertionError) so tests
    fail loudly instead of degrading.
    """

    def __init__(self, records: list[dict]):
        if not isinstance(records, list):
            raise ValueError("a script is a list of records")
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or "expect_stage" not in rec or "response" not in rec:
                raise ValueError(f"script record {i} needs expect_stage and response")
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
        return record["response"]


class RecordingBackend:
    """Wraps a backend and logs every (stage, response) pair for the trace.

    Every backend call of a run passes through here: an exception that is
    neither an ``EngineError`` nor a ``ScriptMismatch`` becomes
    ``BackendUnavailable``, and a non-``str`` response becomes
    ``MalformedBackendOutput``; neither is logged.
    """

    def __init__(self, inner: ReasoningBackend):
        self.inner = inner
        self.buffer: list[dict] = []

    def complete(self, prompt: str, stage: str) -> str:
        try:
            response = self.inner.complete(prompt, stage)
        except (EngineError, ScriptMismatch):
            raise
        except Exception as exc:
            raise BackendUnavailable(f"backend failed: {exc!r}") from exc
        if not isinstance(response, str):
            raise MalformedBackendOutput(f"backend returned {type(response).__name__}, not str")
        self.buffer.append({"stage": stage, "response": response})
        return response

    def drain(self) -> list[dict]:
        calls, self.buffer = self.buffer, []
        return calls
