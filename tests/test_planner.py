"""Planner operations: parsing, retry bounds, decision overrides."""

import pytest

from kgqa_engine.backends import ScriptedBackend
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import MalformedBackendOutput
from kgqa_engine.memory import ErrorLevel, ErrorSignal, Observation, Prediction
from kgqa_engine.planner import (
    Decision,
    DecisionKind,
    Planner,
    best_effort_answer,
    parse_fields,
    parse_plan_steps,
)
from kgqa_engine.triples import CandidateTriple, Direction

from conftest import make_memory


def scripted(*pairs):
    return ScriptedBackend([{"expect_stage": s, "response": r} for s, r in pairs])


def chosen_triple(**kw):
    defaults = dict(
        head="m.0f", relation="r.cap", tail="m.0p",
        direction=Direction.OUTGOING,
        head_label="France", relation_label="capital", tail_label="Paris",
    )
    defaults.update(kw)
    return CandidateTriple(**defaults)


CHOSEN = Observation("e", 1, chosen_triple(), "")
NOTHING_CHOSEN = Observation("e", 0, None, "no candidates remained after exclusions")


class TestParseFields:
    def test_basic(self):
        assert parse_fields("A: 1\nB: two words") == {"A": "1", "B": "two words"}

    def test_first_occurrence_wins(self):
        assert parse_fields("K: first\nK: second") == {"K": "first"}

    def test_ignores_prose(self):
        fields = parse_fields("Thinking about it.\nDECISION: Proceed\nnot a field")
        assert fields["DECISION"] == "Proceed"


class TestDecompose:
    def test_two_step_response(self):
        backend = scripted(("decompose", "STEP: find director | who directed\nSTEP: find spouse | their spouse"))
        steps = Planner(backend).decompose("q?", "")
        assert [s.objective for s in steps] == ["find director", "find spouse"]
        assert [s.index for s in steps] == [0, 1]

    def test_retry_bound(self):
        backend = scripted(*[("decompose", "no steps here")] * 3)
        with pytest.raises(MalformedBackendOutput):
            Planner(backend, EngineConfig(parse_retries=2)).decompose("q?", "")
        assert backend.cursor == 3

    def test_recovers_within_retries(self):
        backend = scripted(("decompose", "garbage"), ("decompose", "STEP: a | b"))
        steps = Planner(backend, EngineConfig(parse_retries=2)).decompose("q?", "")
        assert len(steps) == 1

    def test_too_many_steps_is_malformed(self):
        text = "\n".join(f"STEP: o{i} | d" for i in range(9))
        with pytest.raises(MalformedBackendOutput):
            parse_plan_steps(text)

    def test_a_ligature_is_no_step_prefix(self):
        # "\ufb06ep:" uppercases to "STEP:" only by growing a letter, so it is no step line
        assert [s.objective for s in parse_plan_steps("\ufb06ep: find the city\nstep: find the river")] == [
            "find the river"]
        with pytest.raises(MalformedBackendOutput):
            parse_plan_steps("\ufb06ep: find the city")

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            Planner(scripted()).decompose("", "")


class TestPredict:
    def test_fields_parsed(self):
        backend = scripted(("predict", "OUTCOME: the film's director\nENTITY_KIND: person\nCONFIDENCE: high"))
        memory = make_memory()
        pred = Planner(backend).predict(memory.current_step(), "ctx")
        assert pred.expected_outcome == "the film's director"
        assert pred.expected_entity_kind == "person"

    def test_empty_context_ok(self):
        backend = scripted(("predict", "OUTCOME: something"))
        pred = Planner(backend).predict(make_memory().current_step(), "")
        assert pred.expected_outcome == "something"

    def test_empty_responses_malformed(self):
        backend = scripted(*[("predict", "")] * 3)
        with pytest.raises(MalformedBackendOutput):
            Planner(backend, EngineConfig(parse_retries=2)).predict(make_memory().current_step(), "")


class TestErrorSignal:
    def test_zero_candidates_is_empty_result_without_backend(self):
        obs = Observation("e", 0, None, "")
        backend = scripted()  # any call would raise ScriptMismatch
        signal = Planner(backend).compute_error_signal(Prediction("x"), obs)
        assert signal.level == ErrorLevel.EMPTY_RESULT

    def test_scripted_fulfilled(self):
        obs = Observation("e", 3, chosen_triple(), "")
        backend = scripted(("classify", "LEVEL: Fulfilled\nDETAIL: as expected"))
        signal = Planner(backend).compute_error_signal(Prediction("capital city"), obs)
        assert signal.level == ErrorLevel.FULFILLED

    def test_scripted_mismatch(self):
        obs = Observation("e", 3, chosen_triple(tail_label="1889-01-01"), "")
        backend = scripted(("classify", "LEVEL: Mismatch\nDETAIL: expected a person, got a date"))
        signal = Planner(backend).compute_error_signal(Prediction("a person"), obs)
        assert signal.level == ErrorLevel.MISMATCH

    def test_unknown_level_malformed(self):
        obs = Observation("e", 1, chosen_triple(), "")
        backend = scripted(*[("classify", "LEVEL: Sideways")] * 3)
        with pytest.raises(MalformedBackendOutput):
            Planner(backend, EngineConfig(parse_retries=2)).compute_error_signal(Prediction("x"), obs)


class TestThink:
    def test_reflection_recorded(self):
        backend = scripted(("think", "The step went well."))
        text = Planner(backend).think(ErrorSignal(ErrorLevel.FULFILLED), "ctx")
        assert text == "The step went well."

    def test_empty_result_reflection_is_not_a_decision(self):
        backend = scripted(("think", "Nothing was found; the plan may need changing."))
        text = Planner(backend).think(ErrorSignal(ErrorLevel.EMPTY_RESULT), "ctx")
        assert isinstance(text, str) and text

    def test_deterministic_with_scripted_backend(self):
        for _ in range(2):
            backend = scripted(("think", "Same reflection."))
            assert Planner(backend).think(ErrorSignal(ErrorLevel.PARTIAL), "ctx") == "Same reflection."


class TestEvaluate:
    def _memory(self, replans=0, **kw):
        memory = make_memory(plan_objectives=("a", "b", "c"), **kw)
        for _ in range(replans):  # each archives the plan in progress: install it again
            plan = memory.strategic.plan
            memory.reset_for_replan()
            memory.install_plan(plan)
        memory.step_cycle.thought = "thought"
        return memory

    def test_replan_at_limit_coerced_to_finish(self):
        memory = self._memory(replans=2, replan_limit=2)
        memory.accept_triple(chosen_triple())
        backend = scripted(("evaluate", "DECISION: Replan\nRATIONALE: start over"))
        decision = Planner(backend).evaluate(CHOSEN, memory)
        assert decision.kind == DecisionKind.FINISH
        assert decision.coerced
        assert decision.answer == "Paris"  # best-effort: chain tail label

    def test_path_correct_at_budget_coerced_to_replan(self):
        memory = self._memory()
        memory.step_cycle.attempt_counter = 3
        backend = scripted(("evaluate", "DECISION: PathCorrect\nRATIONALE: retry"))
        decision = Planner(backend, EngineConfig(max_path_corrections=3)).evaluate(CHOSEN, memory)
        assert decision.kind == DecisionKind.REPLAN
        assert decision.coerced

    def test_coercion_chains_to_finish_when_both_budgets_spent(self):
        memory = self._memory(replans=2, replan_limit=2)
        memory.step_cycle.attempt_counter = 3
        backend = scripted(("evaluate", "DECISION: PathCorrect"))
        decision = Planner(backend, EngineConfig(max_path_corrections=3)).evaluate(CHOSEN, memory)
        assert decision.kind == DecisionKind.FINISH
        assert decision.answer == "unknown"

    def test_proceed_passes_through(self):
        backend = scripted(("evaluate", "DECISION: Proceed\nRATIONALE: done"))
        decision = Planner(backend).evaluate(CHOSEN, self._memory())
        assert decision.kind == DecisionKind.PROCEED
        assert not decision.coerced

    def test_finish_requires_answer(self):
        backend = scripted(*[("evaluate", "DECISION: Finish")] * 3)
        with pytest.raises(MalformedBackendOutput):
            Planner(backend, EngineConfig(parse_retries=2)).evaluate(CHOSEN, self._memory())

    def test_finish_with_answer(self):
        backend = scripted(("evaluate", "DECISION: Finish\nANSWER: Paris"))
        decision = Planner(backend).evaluate(CHOSEN, self._memory())
        assert decision.kind == DecisionKind.FINISH
        assert decision.answer == "Paris"

    def test_nothing_chosen_is_coerced_replan_without_backend(self):
        backend = scripted()  # any call would raise ScriptMismatch
        decision = Planner(backend).evaluate(NOTHING_CHOSEN, self._memory())
        assert decision.kind == DecisionKind.REPLAN
        assert decision.coerced
        assert decision.rationale == "no viable candidates for this step"
        assert backend.cursor == 0

    def test_nothing_chosen_at_replan_limit_is_best_effort_finish(self):
        memory = self._memory(replans=2, replan_limit=2)
        memory.accept_triple(chosen_triple())
        decision = Planner(scripted()).evaluate(NOTHING_CHOSEN, memory)
        assert decision.kind == DecisionKind.FINISH
        assert decision.coerced
        assert decision.answer == best_effort_answer(memory) == "Paris"


class TestSynthesizeAnswer:
    def test_scripted_answer(self):
        memory = make_memory()
        memory.accept_triple(chosen_triple())
        backend = scripted(("answer", "ANSWER: Paris"))
        assert Planner(backend).synthesize_answer(memory) == "Paris"

    def test_fallback_to_unknown(self):
        memory = make_memory()
        backend = scripted(*[("answer", "gibberish")] * 3)
        assert Planner(backend, EngineConfig(parse_retries=2)).synthesize_answer(memory) == "unknown"

    def test_fallback_to_chain_tail(self):
        memory = make_memory()
        memory.accept_triple(chosen_triple())
        backend = scripted(*[("answer", "")] * 3)
        assert Planner(backend, EngineConfig(parse_retries=2)).synthesize_answer(memory) == "Paris"


class TestBestEffortAnswer:
    def test_empty_chain(self):
        assert best_effort_answer(make_memory()) == "unknown"

    def test_unlabeled_tail_uses_raw_id(self):
        memory = make_memory()
        memory.accept_triple(chosen_triple(tail_label=""))
        assert best_effort_answer(memory) == "m.0p"


class TestDecisionInvariants:
    def test_finish_without_answer_rejected(self):
        with pytest.raises(ValueError):
            Decision(kind=DecisionKind.FINISH)

    def test_non_finish_needs_no_answer(self):
        assert Decision(kind=DecisionKind.PROCEED).answer == ""
