"""Reasoning backends: a chat-completion HTTP adapter and a scripted one.

Each backend exposes a single call, ``complete(prompt, stage)``, where the
stage tag names the response schema the caller expects
("decompose", "predict", "classify", "think", "evaluate", "select",
"answer", "extract").
"""

from __future__ import annotations

import json
import logging
import os
from typing import Protocol

import requests

from .errors import BackendUnavailable, ScriptMismatch
from .transport import post

log = logging.getLogger(__name__)

STAGES = ("decompose", "predict", "classify", "think", "evaluate", "select", "answer", "extract")


class ReasoningBackend(Protocol):
    def complete(self, prompt: str, stage: str) -> str: ...


class ChatCompletionBackend:
    """Minimal chat-completions client.

    Temperature defaults to 0 for reproducibility; the bearer token comes
    from an environment variable so it never lands in config files.
    Requests are retried as ``transport.post`` does, a malformed body
    included, before giving up with BackendUnavailable.
    """

    def __init__(
        self,
        url: str,
        model: str,
        *,
        token_env: str = "KGQA_CHAT_TOKEN",
        temperature: float = 0.0,
        timeout: float = 60.0,
        retries: int = 2,
    ):
        self.url = url
        self.model = model
        self.token_env = token_env
        self.temperature = temperature
        self.timeout = timeout
        self.retries = retries

    def complete(self, prompt: str, stage: str) -> str:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
        }
        return post(self.url, _content, BackendUnavailable, log, timeout=self.timeout,
                    retries=self.retries, json=body, headers=headers)


def _content(resp: requests.Response) -> str:
    try:
        return resp.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise BackendUnavailable(f"malformed completion response: {exc}") from exc


class ScriptedBackend:
    """Replays a fixed list of {expect_stage, response} records in order.

    Any deviation -- wrong stage or a call past the end of the script -- is
    a fixture bug and raises ScriptMismatch (an AssertionError) so tests
    fail loudly instead of degrading.
    """

    def __init__(self, records: list[dict]):
        for i, rec in enumerate(records):
            if "expect_stage" not in rec or "response" not in rec:
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
    """Wraps a backend and logs every (stage, response) pair for the trace."""

    def __init__(self, inner: ReasoningBackend):
        self.inner = inner
        self.buffer: list[dict] = []

    def complete(self, prompt: str, stage: str) -> str:
        response = self.inner.complete(prompt, stage)
        self.buffer.append({"stage": stage, "response": response})
        return response

    def drain(self) -> list[dict]:
        calls, self.buffer = self.buffer, []
        return calls
