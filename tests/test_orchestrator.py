"""Engine state machine: scenarios, trace grammar, termination, budgets."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_engine.config import EngineConfig
from kgqa_engine.orchestrator import Engine, Stage, trace_to_jsonl
from kgqa_engine.pruning import HashingEmbedder

from conftest import StageBackend, make_store
from scenarios import (
    SCENARIOS,
    build_engine,
    events_by_stage,
    load_meta,
    run_scenario,
    strip_timestamps,
)

CYCLE = ["predict", "act", "observe", "think", "evaluate"]


def assert_trace_grammar(trace):
    """decompose (P A O T E)* [replan decompose ...] finish, with at most
    one partial trailing cycle (a degraded run can die mid-cycle)."""
    stages = [e.stage.value for e in trace]
    assert stages[0] == "decompose"
    assert stages[-1] == "finish"
    assert stages.count("finish") == 1
    i, position = 1, 0
    while i < len(stages) - 1:
        stage = stages[i]
        if stage == "replan":
            assert position == 0, "replan only between cycles"
            assert stages[i + 1] == "decompose"
            i += 2
            continue
        assert stage == CYCLE[position], f"unexpected {stage} at cycle position {position}"
        position = (position + 1) % len(CYCLE)
        i += 1
    if position != 0:
        # partial trailing cycle is only legal for degraded runs
        assert trace[-1].payload.get("note")


def assert_budgets(trace, config):
    replans = len(events_by_stage(trace, "replan"))
    assert replans <= config.replan_limit
    per_step = {}
    for event in events_by_stage(trace, "evaluate"):
        if event.payload["decision"] == "path_correct":
            key = (event.payload["generation"], event.payload["step_index"])
            per_step[key] = per_step.get(key, 0) + 1
    assert all(n <= config.max_path_corrections for n in per_step.values())


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_gold_answer(self, name):
        meta = load_meta(name)
        result = run_scenario(name)
        assert result.answer == meta["gold"]
        assert result.trace[-1].stage is Stage.FINISH

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_matches_golden_trace(self, name):
        from scenarios import golden_trace

        result = run_scenario(name)
        assert strip_timestamps(trace_to_jsonl(result.trace)) == strip_timestamps(golden_trace(name))

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_trace_grammar_and_budgets(self, name):
        meta = load_meta(name)
        result = run_scenario(name)
        assert_trace_grammar(result.trace)
        assert_budgets(result.trace, EngineConfig(**meta["config"]))

    def test_happy_path_two_cycles(self):
        result = run_scenario("happy_path")
        assert result.cycles == 2
        assert not events_by_stage(result.trace, "replan")

    def test_path_fix_single_correction_avoids_failed_triple(self):
        result = run_scenario("path_fix")
        evaluates = events_by_stage(result.trace, "evaluate")
        assert [e.payload["decision"] for e in evaluates] == ["path_correct", "finish"]
        observes = events_by_stage(result.trace, "observe")
        failed_key = observes[0].payload["observation"]["chosen"]
        failed = [failed_key["head"], failed_key["relation"], failed_key["tail"], failed_key["direction"]]
        assert failed not in observes[1].payload["observation"]["candidates"]

    def test_replan_scenario(self):
        result = run_scenario("replan")
        replans = events_by_stage(result.trace, "replan")
        assert len(replans) == 1
        # knowledge gathered under plan 1 reaches plan 2's decompose context
        second_decompose = events_by_stage(result.trace, "decompose")[1]
        assert "m.0germany" in second_decompose.payload["context"]
        # and the explored set only grew
        final = result.trace[-1].payload["explored_triples"]
        assert {tuple(t) for t in replans[0].payload["explored_triples"]} <= {tuple(t) for t in final}


class TestDeterminism:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_repeat_runs_identical(self, name):
        meta = load_meta(name)
        first = run_scenario(name)
        second = run_scenario(name)
        assert first.answer == second.answer
        assert strip_timestamps(trace_to_jsonl(first.trace)) == strip_timestamps(
            trace_to_jsonl(second.trace)
        )


def random_kg(rng, n_entities=50):
    entities = [f"e{i}" for i in range(n_entities)]
    triples = []
    for _ in range(n_entities * 3):
        head, tail = rng.sample(entities, 2)
        triples.append((head, f"r{rng.randrange(12)}", tail))
    labels = {e: f"Entity {e}" for e in entities}
    return make_store(triples, labels), entities


def adversarial_backend(rng, mode):
    if mode == "always_path_correct":
        return StageBackend({"evaluate": "DECISION: PathCorrect\nRATIONALE: never satisfied"})
    if mode == "always_replan":
        return StageBackend({"evaluate": "DECISION: Replan\nRATIONALE: never satisfied"})

    def garbage(prompt):
        return "".join(rng.choice("abc:123 \n{}|") for _ in range(rng.randrange(0, 40)))

    return StageBackend({stage: garbage for stage in StageBackend.DEFAULTS})


ADVERSARIAL_MODES = ("always_path_correct", "always_replan", "random_malformed")


class TestTermination:
    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    def test_adversarial_backends_halt(self, mode):
        rng = random.Random(hash(mode) % 2**32)
        for trial in range(20):
            store, entities = random_kg(rng)
            config = EngineConfig()
            engine = Engine(
                backend=adversarial_backend(rng, mode),
                kg=store,
                embedder=HashingEmbedder(),
                config=config,
            )
            result = engine.run("adversarial question?", [rng.choice(entities)])
            assert result.trace[-1].stage is Stage.FINISH
            assert result.cycles <= config.max_total_cycles
            assert_budgets(result.trace, config)
            assert_trace_grammar(result.trace)

    def test_cycle_cap_respected_with_tiny_budget(self):
        store, entities = random_kg(random.Random(0))
        config = EngineConfig(max_total_cycles=8, replan_limit=50, max_path_corrections=50)
        engine = Engine(
            backend=StageBackend({"evaluate": "DECISION: PathCorrect"}),
            kg=store,
            embedder=HashingEmbedder(),
            config=config,
        )
        result = engine.run("q?", [entities[0]])
        assert result.cycles <= 8
        assert result.error_note and "cycle budget" in result.error_note


class FaultyEmbedder:
    """HashingEmbedder whose output is corrupted on every ``every``-th call."""

    FAULTS = ("zero", "short", "long", "nan", "inf", "-inf", "none", "str", "fewer", "more")
    BAD_COMPONENTS = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "str": "1.0"}

    def __init__(self, fault, position, every):
        self.fault = fault
        self.position = position
        self.every = every
        self.calls = 0

    def embed(self, texts):
        vecs = HashingEmbedder().embed(texts)
        self.calls += 1
        if self.calls % self.every:
            return vecs
        i = self.position % len(vecs)  # 0 is the objective
        if self.fault == "zero":
            vecs[i] = [0.0] * len(vecs[i])
        elif self.fault == "short":
            vecs[i] = vecs[i][:-1]
        elif self.fault == "long":
            vecs[i] = vecs[i] + [1.0]
        elif self.fault in self.BAD_COMPONENTS:
            vecs[i][self.position % len(vecs[i])] = self.BAD_COMPONENTS[self.fault]
        elif self.fault == "none":  # where the objective is nonzero: elsewhere None reads as 0
            nonzero = [j for j, a in enumerate(vecs[0]) if a]
            vecs[i][nonzero[self.position % len(nonzero)]] = None
        elif self.fault == "fewer":
            del vecs[i]
        else:
            vecs.append(vecs[i])
        return vecs


class TestEmbedderFaults:
    @pytest.mark.parametrize("fault", FaultyEmbedder.FAULTS)
    @settings(max_examples=60)
    @given(
        position=st.integers(0, 400),
        every=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        threshold=st.sampled_from([2, 70]),
    )
    def test_run_finishes_without_failed_exploration(self, fault, position, every, seed, threshold):
        rng = random.Random(seed)
        store, entities = random_kg(rng, n_entities=20)
        config = EngineConfig(prune_threshold=threshold)
        engine = Engine(
            backend=StageBackend(),
            kg=store,
            embedder=FaultyEmbedder(fault, position, every),
            config=config,
        )
        result = engine.run("q?", [rng.choice(entities)])
        assert result.trace[-1].stage is Stage.FINISH
        assert result.cycles <= config.max_total_cycles
        assert not (result.error_note or "").startswith("exploration failed")
        assert_trace_grammar(result.trace)

    @pytest.mark.parametrize("fault", ["zero", "short", "nan", "none", "str"])
    def test_bad_vector_abandons_the_attempt(self, fault):
        store, entities = random_kg(random.Random(2))
        engine = Engine(
            backend=StageBackend(),
            kg=store,
            embedder=FaultyEmbedder(fault, position=1, every=1),
            config=EngineConfig(),
        )
        result = engine.run("q?", [entities[0]])
        observe = events_by_stage(result.trace, "observe")[0]
        assert "pruning unavailable" in observe.payload["observation"]["rationale"]
        assert result.error_note is None or "exploration failed" not in result.error_note


class TestDegradedPaths:
    def test_malformed_decompose_degrades_to_unknown(self):
        store, entities = random_kg(random.Random(1))
        engine = Engine(
            backend=StageBackend({"decompose": "not a plan"}),
            kg=store,
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", [entities[0]])
        assert result.answer == "unknown"
        assert "decomposition failed" in result.error_note
        assert [e.stage.value for e in result.trace] == ["decompose", "finish"]

    def test_no_frontier_degrades(self):
        engine = Engine(
            backend=StageBackend({"extract": "ENTITY: nowhere"}),
            kg=make_store([]),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", [])
        assert result.answer == "unknown"
        assert "no frontier" in result.error_note

    def test_empty_frontier_neighborhood_replans_then_finishes(self):
        # an isolated topic entity yields empty observations forever
        store = make_store([("a", "r", "b")])
        engine = Engine(
            backend=StageBackend(),
            kg=store,
            embedder=HashingEmbedder(),
            config=EngineConfig(replan_limit=2),
        )
        result = engine.run("q?", ["isolated"])
        assert result.trace[-1].stage is Stage.FINISH
        assert len(events_by_stage(result.trace, "replan")) == 2
        assert result.answer == "unknown"

    def test_pruning_failure_abandons_attempt_not_run(self):
        class Broken:
            def embed(self, texts):
                raise RuntimeError("embedder down")

        store, entities = random_kg(random.Random(2))
        engine = Engine(
            backend=StageBackend(),
            kg=store,
            embedder=Broken(),
            config=EngineConfig(),
        )
        result = engine.run("q?", [entities[0]])
        assert result.trace[-1].stage is Stage.FINISH
        observe = events_by_stage(result.trace, "observe")[0]
        assert "pruning unavailable" in observe.payload["observation"]["rationale"]

    def test_kg_failure_degrades_with_note(self):
        from kgqa_engine.errors import KgUnavailable

        class FlakyStore:
            def neighbors(self, entity):
                raise KgUnavailable("endpoint down")

            def label(self, x):
                return None

        engine = Engine(
            backend=StageBackend(),
            kg=FlakyStore(),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", ["e0"])
        assert result.answer == "unknown"
        assert "exploration failed" in result.error_note


class TestProceedPastFinalStep:
    def test_forced_finish_with_synthesis(self):
        store = make_store(
            [("a", "r1", "b")], labels={"a": "Alpha", "b": "Bravo", "r1": "rel"}
        )
        backend = StageBackend(
            {
                "decompose": "STEP: only step | the single step",
                "evaluate": "DECISION: Proceed\nRATIONALE: done",
                "answer": "ANSWER: Bravo",
            }
        )
        engine = Engine(backend=backend, kg=store, embedder=HashingEmbedder(), config=EngineConfig())
        result = engine.run("q?", ["a"])
        assert result.answer == "Bravo"
        assert result.cycles == 1
