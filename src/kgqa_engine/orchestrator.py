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
from pathlib import Path

from .backends import ReasoningBackend, RecordingBackend
from .config import EngineConfig
from .errors import EngineError, describe
from .executor import Executor
from .kg import GraphStore
from .memory import IntegratedMemory
from .planner import Decision, DecisionKind, Planner, best_effort_answer
from .pruning import Embedder
from .triples import TripleKey


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


_ENCODE = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True), built once


def trace_to_jsonl(trace: list[TraceEvent]) -> str:
    return "".join(_ENCODE(e.to_dict()) + "\n" for e in trace)


def is_plain_name(name: str) -> bool:
    """True for one file name: not empty, ``.`` or ``..``, and no separator in it."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def write_trace(trace: list[TraceEvent], out_dir, name: str) -> str:
    """Write ``<out_dir>/<name>.trace.jsonl``, making the directory; return its path."""
    if not is_plain_name(name):
        raise ValueError(f"trace name {name!r} is not a plain file name")
    path = Path(out_dir) / f"{name}.trace.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_to_jsonl(trace), encoding="utf-8")
    return str(path)


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
        self.planner = Planner(self.backend, self.config)
        self.executor = Executor(engine.kg, engine.embedder, self.backend, self.config)
        self.memory = IntegratedMemory.new(question, topic_entities, self.config)
        self.trace: list[TraceEvent] = []
        self.cycles = 0

    # -- tracing --------------------------------------------------------------

    def emit(self, stage: Stage, payload: dict) -> None:
        """Append an event; ``payload``, a fresh dict from each caller, takes the drained backend calls."""
        payload["backend_calls"] = self.backend.drain()
        self.trace.append(
            TraceEvent(
                sequence=len(self.trace),
                timestamp=time.time(),
                stage=stage,
                payload=payload,
            )
        )

    def _explored_snapshot(self) -> list[TripleKey]:
        """The explored keys, sorted: a copy of memory's list, which keeps growing, holding its own key tuples."""
        return list(self.memory.knowledge.sorted_explored())

    # -- terminal states --------------------------------------------------------

    def finish(self, answer: str, note: str | None = None) -> RunResult:
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
        strategic = self.memory.strategic
        context = self.memory.render_context("planner")
        header = {
            "question": strategic.question,
            "topic_entities": list(strategic.topic_entities),
            "generation": strategic.replan_counter,
            "context": context,
            "config": self.config.snapshot(),
        }
        try:
            steps = self.planner.decompose(strategic.question, context)
        except EngineError as exc:
            self.emit(Stage.DECOMPOSE, {**header, "error": describe(exc, str)})
            return False
        self.memory.install_plan(steps)
        self.emit(Stage.DECOMPOSE, {**header, "steps": [s.to_dict(strategic.cursor) for s in steps]})
        return True

    # -- the loop ------------------------------------------------------------------

    def execute(self) -> RunResult:
        if not self.decompose_into_plan():
            return self.degrade("decomposition failed: backend output unparseable")

        # A step is always in progress here: a cycle that does not finish
        # ends in a PathCorrect, a next step or a freshly installed plan.
        while self.cycles < self.config.max_total_cycles:
            self.cycles += 1
            step = self.memory.current_step()
            # ``failure`` names the stage running now, for the degrade note
            try:
                failure = "predict failed"
                prediction = self.planner.predict(step, self.memory.render_context("executor"))
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

                failure = "no frontier"
                frontier = self.executor.resolve_frontier(self.memory)
                self.emit(Stage.ACT, {"frontier": frontier, "step_index": step.index})

                failure = "exploration failed"
                observation = self.executor.explore(frontier, step, self.memory)
                self.emit(Stage.OBSERVE, {"observation": observation.to_dict()})

                # error signal first: an EmptyResult needs no backend call
                failure = "error-signal classification failed"
                signal = self.planner.compute_error_signal(prediction, observation)
                failure = "think failed"
                thought = self.planner.think(signal, self.memory.render_context("planner"))
                self.memory.step_cycle.thought = thought
                self.emit(Stage.THINK, {"error_signal": signal.to_dict(), "thought": thought})

                failure = "evaluate failed"
                decision = self.planner.evaluate(observation, self.memory)
            except EngineError as exc:
                return self.degrade(f"{failure}: {describe(exc, str)}")
            self.emit(
                Stage.EVALUATE,
                {
                    "decision": decision.kind,
                    "rationale": decision.rationale,
                    "coerced": decision.coerced,
                    "step_index": step.index,
                    "generation": self.memory.strategic.replan_counter,
                    "attempt": self.memory.step_cycle.attempt_counter,
                },
            )

            result = self.dispatch(decision, observation)
            if result is not None:
                return result
        return self.degrade(f"cycle budget exhausted ({self.config.max_total_cycles})")

    def dispatch(self, decision: Decision, observation) -> RunResult | None:
        # Proceed and PathCorrect come only from the backend's evaluate,
        # which the planner asks only when the observation has a chosen triple.
        if decision.kind == DecisionKind.PROCEED:
            self.memory.accept_triple(observation.chosen)
            if self.memory.advance_step() is None:
                # proceeded past the final step: the engine forces Finish
                return self.finish(self.planner.synthesize_answer(self.memory))
            return None

        if decision.kind == DecisionKind.PATH_CORRECT:
            self.memory.mark_failed_path(observation.chosen)
            return None

        if decision.kind == DecisionKind.REPLAN:
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
