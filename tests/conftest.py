"""Shared test helpers: stage-dispatching backends and tiny graphs."""

from __future__ import annotations

import pytest
from hypothesis import settings

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
