"""Top-level state machine: decompose, step cycles, self-correction, finish.

Every run terminates: per-step path corrections and replans are budgeted,
and a global cycle cap backstops both.  No engine error escapes ``run``;
internal failures degrade to a best-effort Finish with a note in the trace.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum

from .backends import ReasoningBackend, RecordingBackend
from .config import EngineConfig
from .errors import EngineError, PruningUnavailable
from .executor import Executor
from .kg import GraphStore
from .memory import IntegratedMemory, Observation, StepStatus
from .planner import Decision, DecisionKind, Planner, best_effort_answer
from .pruning import CachingEmbedder, Embedder


class Stage(str, Enum):
    DECOMPOSE = "decompose"
    PREDICT = "predict"
    ACT = "act"
    OBSERVE = "observe"
    THINK = "think"
    EVALUATE = "evaluate"
    REPLAN = "replan"
    FINISH = "finish"


@dataclass
class TraceEvent:
    sequence: int
    timestamp: float
    stage: Stage
    payload: dict

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "stage": self.stage.value,
            "payload": self.payload,
        }


def trace_to_jsonl(trace: list[TraceEvent]) -> str:
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in trace)


def load_trace_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass
class RunResult:
    answer: str
    trace: list[TraceEvent]
    cycles: int
    replans: int
    error_note: str | None = None


@dataclass
class Engine:
    backend: ReasoningBackend
    kg: GraphStore
    embedder: Embedder
    config: EngineConfig = field(default_factory=EngineConfig)

    def run(self, question: str, topic_entities: list[str]) -> RunResult:
        self.config.validate()
        return _Run(self, question, topic_entities).execute()


class _Run:
    """State for a single question; one instance per run, never shared."""

    def __init__(self, engine: Engine, question: str, topic_entities: list[str]):
        self.config = engine.config
        self.backend = RecordingBackend(engine.backend)
        self.planner = Planner(
            self.backend,
            parse_retries=self.config.parse_retries,
            max_path_corrections=self.config.max_path_corrections,
        )
        self.executor = Executor(
            engine.kg,
            CachingEmbedder(engine.embedder),
            self.backend,
            prune_threshold=self.config.prune_threshold,
            expand_unlabeled=self.config.expand_unlabeled,
        )
        self.memory = IntegratedMemory.new(
            question,
            topic_entities,
            replan_limit=self.config.replan_limit,
            context_chain_limit=self.config.context_chain_limit,
        )
        self.question = question
        self.trace: list[TraceEvent] = []
        self.cycles = 0

    # -- tracing --------------------------------------------------------------

    def emit(self, stage: Stage, payload: dict) -> None:
        payload = dict(payload)
        payload["backend_calls"] = self.backend.drain()
        self.trace.append(
            TraceEvent(
                sequence=len(self.trace),
                timestamp=time.time(),
                stage=stage,
                payload=payload,
            )
        )

    def _explored_snapshot(self) -> list[list[str]]:
        return sorted(list(t) for t in self.memory.knowledge.explored_triples)

    # -- terminal states --------------------------------------------------------

    def finish(self, answer: str, note: str | None = None) -> RunResult:
        current = self.memory.current_step()
        if current is not None:
            current.transition(
                StepStatus.ABANDONED if note else StepStatus.COMPLETED
            )
        self.emit(
            Stage.FINISH,
            {
                "answer": answer,
                "note": note,
                "cycles": self.cycles,
                "replans": self.memory.strategic.replan_counter,
                "explored_triples": self._explored_snapshot(),
            },
        )
        return RunResult(
            answer=answer,
            trace=self.trace,
            cycles=self.cycles,
            replans=self.memory.strategic.replan_counter,
            error_note=note,
        )

    def degrade(self, note: str) -> RunResult:
        """Best-effort Finish after an internal failure; never calls the backend."""
        return self.finish(best_effort_answer(self.memory), note)

    # -- plan management ----------------------------------------------------------

    def decompose_into_plan(self) -> bool:
        context = self.memory.render_context("planner")
        try:
            steps = self.planner.decompose(self.question, context)
        except EngineError as exc:
            self.emit(Stage.DECOMPOSE, {"context": self._decompose_header(context), "error": str(exc)})
            return False
        self.memory.install_plan(steps)
        payload = self._decompose_header(context)
        payload["steps"] = [s.to_dict() for s in steps]
        self.emit(Stage.DECOMPOSE, payload)
        return True

    def _decompose_header(self, context: str) -> dict:
        return {
            "question": self.question,
            "topic_entities": list(self.memory.strategic.topic_entities),
            "generation": self.memory.strategic.replan_counter,
            "context": context,
            "config": self.config.snapshot(),
        }

    # -- the loop ------------------------------------------------------------------

    def execute(self) -> RunResult:
        if not self.decompose_into_plan():
            return self.degrade("decomposition failed: backend output unparseable")

        while True:
            step = self.memory.current_step()
            if step is None:
                # all steps completed without an explicit Finish
                return self.finish(self.planner.synthesize_answer(self.memory))
            if self.cycles >= self.config.max_total_cycles:
                return self.degrade(f"cycle budget exhausted ({self.config.max_total_cycles})")
            self.cycles += 1

            # Predict
            try:
                prediction = self.planner.predict(step, self.memory.render_context("executor"))
            except EngineError as exc:
                return self.degrade(f"predict failed: {exc}")
            self.memory.step_cycle.prediction = prediction
            self.emit(
                Stage.PREDICT,
                {
                    "cycle": self.cycles,
                    "step_index": step.index,
                    "generation": self.memory.strategic.replan_counter,
                    "attempt": self.memory.step_cycle.attempt_counter,
                    "prediction": prediction.to_dict(),
                },
            )

            # Act
            try:
                frontier = self.executor.resolve_frontier(self.memory)
            except EngineError as exc:
                return self.degrade(f"no frontier: {exc}")
            self.emit(Stage.ACT, {"frontier": frontier, "step_index": step.index})

            # Observe
            try:
                observation = self.executor.explore(frontier, step, self.memory)
            except PruningUnavailable as exc:
                observation = Observation(
                    frontier_entity=frontier,
                    candidates_total=0,
                    candidates_after_pruning=0,
                    chosen=None,
                    rationale=f"attempt abandoned, pruning unavailable: {exc}",
                )
            except EngineError as exc:
                return self.degrade(f"exploration failed: {exc}")
            self.memory.step_cycle.observation = observation
            self.emit(Stage.OBSERVE, {"observation": observation.to_dict()})

            # Think (error signal first; EmptyResult needs no backend)
            try:
                signal = self.planner.compute_error_signal(prediction, observation)
            except EngineError as exc:
                return self.degrade(f"error-signal classification failed: {exc}")
            self.memory.step_cycle.error_signal = signal
            try:
                thought = self.planner.think(signal, self.memory.render_context("planner"))
            except EngineError as exc:
                return self.degrade(f"think failed: {exc}")
            self.memory.step_cycle.thought = thought
            self.emit(Stage.THINK, {"error_signal": signal.to_dict(), "thought": thought})

            # Evaluate
            if observation.chosen is None:
                # nothing for the backend to choose between: exhausted
                # candidates route straight to replan (or a forced finish)
                decision = self.planner.apply_overrides(
                    Decision(
                        kind=DecisionKind.REPLAN,
                        rationale="no viable candidates for this step",
                        coerced=True,
                    ),
                    self.memory,
                )
            else:
                try:
                    decision = self.planner.evaluate(self.memory)
                except EngineError as exc:
                    return self.degrade(f"evaluate failed: {exc}")
            self.emit(
                Stage.EVALUATE,
                {
                    "decision": decision.kind.value,
                    "rationale": decision.rationale,
                    "coerced": decision.coerced,
                    "step_index": step.index,
                    "generation": self.memory.strategic.replan_counter,
                    "attempt": self.memory.step_cycle.attempt_counter,
                },
            )

            result = self.dispatch(decision, step, observation)
            if result is not None:
                return result

    def dispatch(self, decision: Decision, step, observation) -> RunResult | None:
        if decision.kind is DecisionKind.PROCEED:
            if observation.chosen is not None:
                self.memory.accept_triple(observation.chosen)
            next_step = self.memory.advance_step()
            if next_step is None:
                # proceeded past the final step: the engine forces Finish
                return self.finish(self.planner.synthesize_answer(self.memory))
            return None

        if decision.kind is DecisionKind.PATH_CORRECT:
            if observation.chosen is not None:
                self.memory.mark_failed_path(self.memory.step_signature(step), observation.chosen)
            else:
                self.memory.step_cycle.attempt_counter += 1
            self.memory.step_cycle.reset_attempt()
            return None

        if decision.kind is DecisionKind.REPLAN:
            self.emit(
                Stage.REPLAN,
                {
                    "rationale": decision.rationale,
                    "generation_before": self.memory.strategic.replan_counter,
                    "explored_triples": self._explored_snapshot(),
                },
            )
            self.memory.reset_for_replan()
            if not self.decompose_into_plan():
                return self.degrade("re-decomposition failed: backend output unparseable")
            return None

        # Finish
        if decision.coerced:
            return self.finish(decision.answer, decision.rationale or "forced best-effort finish")
        return self.finish(self.planner.synthesize_answer(self.memory))
