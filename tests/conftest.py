"""Shared test helpers: stage-dispatching backends and tiny graphs."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from kgqa_engine import transport
from kgqa_engine.kg import InMemoryGraphStore
from kgqa_engine.memory import IntegratedMemory, PlanStep, StepStatus

# Same examples on every run, and no per-example deadline: property tests
# must neither wander nor flake on a slow or contended machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


class StageBackend:
    """Backend answering from a dict of stage -> response (str or callable).

    Unlike ScriptedBackend it never runs out, which makes it the right
    tool for adversarial and property tests.
    """

    DEFAULTS = {
        "decompose": "STEP: explore from the topic entity | Walk the graph toward the answer.",
        "predict": "OUTCOME: a relevant neighboring entity",
        "classify": "LEVEL: Partial\nDETAIL: inconclusive",
        "think": "Noted the outcome; continuing.",
        "evaluate": "DECISION: Proceed\nRATIONALE: keep going",
        "select": "CHOICE: 1",
        "answer": "ANSWER: unknown",
        "extract": "ENTITY: nothing",
    }

    def __init__(self, responses: dict | None = None):
        self.responses = dict(self.DEFAULTS)
        self.responses.update(responses or {})
        self.calls: list[tuple[str, str]] = []

    def complete(self, prompt: str, stage: str) -> str:
        self.calls.append((stage, prompt))
        response = self.responses[stage]
        return response(prompt) if callable(response) else response


def make_store(triples, labels=None) -> InMemoryGraphStore:
    store = InMemoryGraphStore()
    for head, relation, tail in triples:
        store.add_triple(head, relation, tail)
    for key, text in (labels or {}).items():
        store.add_label(key, text)
    return store


def make_memory(question="q?", topic=("e1",), plan_objectives=("find it",), **kwargs) -> IntegratedMemory:
    memory = IntegratedMemory.new(question, list(topic), **kwargs)
    steps = [
        PlanStep(index=i, objective=obj, description=f"step {i}")
        for i, obj in enumerate(plan_objectives)
    ]
    memory.install_plan(steps)
    return memory


@pytest.fixture
def store():
    return make_store(
        [("e1", "r1", "e2"), ("e1", "r2", "e3"), ("e2", "r3", "e4")],
        labels={"e1": "One", "e2": "Two", "e3": "Three", "e4": "Four", "r1": "rel one"},
    )


@pytest.fixture
def fast_backoff(monkeypatch):
    """Every HTTP adapter's first retry waits 0.01 s instead of 0.5 s."""
    monkeypatch.setattr(transport, "BACKOFF_S", 0.01)


@pytest.fixture
def sleeps(monkeypatch):
    """Record the retry sleeps of every HTTP adapter instead of sleeping."""
    slept: list[float] = []
    monkeypatch.setattr(transport.time, "sleep", slept.append)
    return slept


class JsonStub(BaseHTTPRequestHandler):
    """Loopback JSON endpoint: records each request, serves a script."""

    responses: list[tuple[int, bytes]] = []  # (status, body); the last one repeats
    seen: list[dict] = []

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
def json_stub():
    """URL of a fresh JsonStub server; its socket is closed afterwards."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), JsonStub)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    JsonStub.responses = []
    JsonStub.seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()
