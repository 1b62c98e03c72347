"""High-level reasoning: decomposition, prediction, reflection, decisions.

The planner is stateless between calls; everything it knows comes in as
rendered context from the memory module.  Backend responses use a small
delimited key-value format, re-requested up to the config's
``parse_retries`` times before giving up with MalformedBackendOutput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Callable, TypeVar

from .backends import ReasoningBackend
from .config import MAX_PLAN_STEPS, EngineConfig
from .errors import EngineError, MalformedBackendOutput
from .memory import ErrorLevel, ErrorSignal, IntegratedMemory, Observation, PlanStep, Prediction

T = TypeVar("T")


class DecisionKind:
    PROCEED = "proceed"
    PATH_CORRECT = "path_correct"
    REPLAN = "replan"
    FINISH = "finish"


@dataclass
class Decision:
    kind: str  # a DecisionKind constant
    rationale: str = ""
    answer: str = ""  # non-empty iff kind is FINISH
    coerced: bool = False

    def __post_init__(self):
        if self.kind == DecisionKind.FINISH and not self.answer:
            raise ValueError("Finish decision requires a non-empty answer")


@cache
def load_prompt(stage: str) -> str:
    return resources.files("kgqa_engine").joinpath(f"prompts/{stage}.txt").read_text(encoding="utf-8")


def parse_fields(text: str) -> dict[str, str]:
    """Parse ``KEY: value`` lines; first occurrence of each key wins."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        key = key.strip().upper()
        if sep and key and " " not in key and key not in fields:
            fields[key] = value.strip()
    return fields


def parse_plan_steps(text: str) -> list[PlanStep]:
    steps: list[PlanStep] = []
    for line in text.splitlines():
        line = line.strip()
        if line[:5].upper() != "STEP:":  # not line.upper(): a ligature such as "\ufb06" uppercases to two letters
            continue
        objective, _, description = line[5:].partition("|")
        objective = objective.strip()
        if objective:
            steps.append(PlanStep(index=len(steps), objective=objective, description=description.strip()))
    if not 1 <= len(steps) <= MAX_PLAN_STEPS:
        raise MalformedBackendOutput(f"expected 1-{MAX_PLAN_STEPS} plan steps, parsed {len(steps)}")
    return steps


def _prediction(raw: str) -> Prediction:
    fields = parse_fields(raw)
    outcome = fields.get("OUTCOME", "")
    if not outcome:
        raise MalformedBackendOutput("prediction needs a non-empty OUTCOME")
    return Prediction(
        expected_outcome=outcome,
        expected_entity_kind=fields.get("ENTITY_KIND") or None,
        confidence_note=fields.get("CONFIDENCE", ""),
    )


def _error_signal(raw: str) -> ErrorSignal:
    fields = parse_fields(raw)
    level = fields.get("LEVEL", "").lower()
    if level not in (ErrorLevel.FULFILLED, ErrorLevel.PARTIAL, ErrorLevel.MISMATCH):
        raise MalformedBackendOutput(f"unknown error level: {fields.get('LEVEL')!r}")
    return ErrorSignal(level, fields.get("DETAIL", ""))


def _reflection(raw: str) -> str:
    text = raw.strip()
    if not text:
        raise MalformedBackendOutput("reflection must be non-empty")
    return text


# a DECISION word, lowered and without "-" or "_" -> its kind
_DECISION_KINDS = {
    "proceed": DecisionKind.PROCEED,
    "pathcorrect": DecisionKind.PATH_CORRECT,
    "replan": DecisionKind.REPLAN,
    "finish": DecisionKind.FINISH,
}


def _decision(raw: str) -> Decision:
    fields = parse_fields(raw)
    kind = _DECISION_KINDS.get(fields.get("DECISION", "").lower().replace("-", "").replace("_", ""))
    if kind is None:
        raise MalformedBackendOutput(f"unknown decision: {fields.get('DECISION')!r}")
    answer = fields.get("ANSWER", "")
    if kind == DecisionKind.FINISH and not answer:
        raise MalformedBackendOutput("Finish decision requires ANSWER")
    return Decision(kind=kind, rationale=fields.get("RATIONALE", ""),
                    answer=answer if kind == DecisionKind.FINISH else "")


def _answer(raw: str) -> str:
    answer = parse_fields(raw).get("ANSWER", "")
    if not answer:
        raise MalformedBackendOutput("synthesis needs a non-empty ANSWER")
    return answer


def best_effort_answer(memory: IntegratedMemory) -> str:
    """Fallback answer: the tail of the last accepted triple, else unknown."""
    chain = memory.knowledge.reasoning_chain
    if chain:
        last = chain[-1]
        return last.tail_label or last.tail
    return "unknown"


class Planner:
    def __init__(self, backend: ReasoningBackend, config: EngineConfig | None = None):
        self.backend = backend
        self.config = config or EngineConfig()

    def _ask(self, stage: str, parse: Callable[[str], T], **fields: str) -> T:
        """``parse`` of the answer to the ``stage`` prompt; a backend error is raised at once, never retried."""
        prompt = load_prompt(stage).format(**fields)
        attempts = self.config.parse_retries + 1
        last_error: Exception | None = None
        for _ in range(attempts):
            raw = self.backend.complete(prompt, stage)
            try:
                return parse(raw)
            except MalformedBackendOutput as exc:
                last_error = exc
        raise MalformedBackendOutput(f"stage {stage!r} unparseable after {attempts} attempts: {last_error}")

    # -- operations ---------------------------------------------------------

    def decompose(self, question: str, context: str) -> list[PlanStep]:
        if not question:
            raise ValueError("question must be non-empty")
        return self._ask("decompose", parse_plan_steps, context=context)

    def predict(self, step: PlanStep, context: str) -> Prediction:
        return self._ask("predict", _prediction, context=context, objective=step.objective)

    def compute_error_signal(self, prediction: Prediction, observation: Observation) -> ErrorSignal:
        if observation.chosen is None:
            return ErrorSignal(ErrorLevel.EMPTY_RESULT, "no candidate triples survived exploration")
        return self._ask("classify", _error_signal,
                         prediction=prediction.expected_outcome, chosen=observation.chosen.render())

    def think(self, error_signal: ErrorSignal, context: str) -> str:
        return self._ask("think", _reflection, context=context, level=error_signal.level, detail=error_signal.detail)

    def evaluate(self, observation: Observation, memory: IntegratedMemory) -> Decision:
        """Decide the next move, then apply engine overrides.

        With nothing chosen, the backend is not asked: the step becomes a
        coerced Replan.  Termination stays under engine control: a PathCorrect
        past the per-step attempt budget becomes Replan, and a Replan past the
        replan budget becomes a best-effort Finish.
        """
        if observation.chosen is None:
            decision = Decision(DecisionKind.REPLAN, "no viable candidates for this step", coerced=True)
        else:
            decision = self._ask("evaluate", _decision, context=memory.render_context("planner"),
                                 thought=memory.step_cycle.thought or "")
        return self._apply_overrides(decision, memory)

    def _apply_overrides(self, decision: Decision, memory: IntegratedMemory) -> Decision:
        if (
            decision.kind == DecisionKind.PATH_CORRECT
            and memory.step_cycle.attempt_counter >= self.config.max_path_corrections
        ):
            decision = Decision(
                kind=DecisionKind.REPLAN,
                rationale=f"path-correction budget spent ({self.config.max_path_corrections}); replanning",
                coerced=True,
            )
        if (
            decision.kind == DecisionKind.REPLAN
            and memory.strategic.replan_counter >= self.config.replan_limit
        ):
            decision = Decision(
                kind=DecisionKind.FINISH,
                rationale="replan budget spent; finishing with best-effort answer",
                answer=best_effort_answer(memory),
                coerced=True,
            )
        return decision

    def synthesize_answer(self, memory: IntegratedMemory) -> str:
        """Final answer synthesis. Total: backend failures fall back."""
        try:
            return self._ask("answer", _answer, context=memory.render_context("planner"))
        except EngineError:
            return best_effort_answer(memory)
