"""Three-layer agent memory mediating planner/executor interaction.

* Strategic layer: the question, the plan, and the replan budget.
* Step-cycle layer: transient state for the current attempt.
* Knowledge layer: everything learned from the graph; it only grows,
  including across replans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .errors import ReplanBudgetExhausted
from .triples import CandidateTriple, TripleKey


class StepStatus(str, Enum):
    NOT_STARTED = "not_started"
    IN_PROGRESS = "in_progress"
    COMPLETED = "completed"
    ABANDONED = "abandoned"


_LEGAL_TRANSITIONS = {
    (StepStatus.NOT_STARTED, StepStatus.IN_PROGRESS),
    (StepStatus.IN_PROGRESS, StepStatus.COMPLETED),
    (StepStatus.IN_PROGRESS, StepStatus.ABANDONED),
}

# (plan generation, step index, objective hash): failed paths recorded for a
# step of one plan must not poison an unrelated step of a later plan.
StepSignature = tuple[int, int, str]


@dataclass
class PlanStep:
    index: int
    objective: str
    description: str
    status: StepStatus = StepStatus.NOT_STARTED

    def transition(self, new_status: StepStatus) -> None:
        if (self.status, new_status) not in _LEGAL_TRANSITIONS:
            raise ValueError(f"illegal status transition {self.status.value} -> {new_status.value}")
        self.status = new_status

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "objective": self.objective,
            "description": self.description,
            "status": self.status.value,
        }


@dataclass
class Prediction:
    expected_outcome: str
    expected_entity_kind: str | None = None
    confidence_note: str = ""

    def to_dict(self) -> dict:
        return {
            "expected_outcome": self.expected_outcome,
            "expected_entity_kind": self.expected_entity_kind,
            "confidence_note": self.confidence_note,
        }


class ErrorLevel(str, Enum):
    FULFILLED = "fulfilled"
    PARTIAL = "partial"
    MISMATCH = "mismatch"
    EMPTY_RESULT = "empty_result"


@dataclass
class ErrorSignal:
    level: ErrorLevel
    detail: str = ""

    def to_dict(self) -> dict:
        return {"level": self.level.value, "detail": self.detail}


@dataclass
class Observation:
    frontier_entity: str
    candidates_total: int
    candidates_after_pruning: int
    chosen: CandidateTriple | None
    rationale: str = ""
    candidates: list[CandidateTriple] = field(default_factory=list)  # post-pruning

    def to_dict(self) -> dict:
        return {
            "frontier_entity": self.frontier_entity,
            "candidates_total": self.candidates_total,
            "candidates_after_pruning": self.candidates_after_pruning,
            "chosen": self.chosen.to_dict() if self.chosen else None,
            "rationale": self.rationale,
            "candidates": [list(c.key()) for c in self.candidates],
        }


@dataclass
class StrategicMemory:
    question: str
    topic_entities: list[str]
    plan: list[PlanStep] = field(default_factory=list)
    replan_counter: int = 0
    replan_limit: int = 2
    prior_plans: list[list[PlanStep]] = field(default_factory=list)


@dataclass
class StepCycleMemory:
    attempt_counter: int = 0
    prediction: Prediction | None = None
    observation: Observation | None = None
    error_signal: ErrorSignal | None = None
    thought: str | None = None

    def clear(self) -> None:
        self.attempt_counter = 0
        self.reset_attempt()

    def reset_attempt(self) -> None:
        self.prediction = None
        self.observation = None
        self.error_signal = None
        self.thought = None


@dataclass
class KnowledgeMemory:
    explored_triples: set[TripleKey] = field(default_factory=set)
    visited_entities: set[str] = field(default_factory=set)
    reasoning_chain: list[CandidateTriple] = field(default_factory=list)
    failed_paths: set[tuple[StepSignature, TripleKey]] = field(default_factory=set)


@dataclass
class IntegratedMemory:
    strategic: StrategicMemory
    step_cycle: StepCycleMemory = field(default_factory=StepCycleMemory)
    knowledge: KnowledgeMemory = field(default_factory=KnowledgeMemory)
    context_chain_limit: int = 20

    @classmethod
    def new(
        cls,
        question: str,
        topic_entities: list[str],
        *,
        replan_limit: int = 2,
        context_chain_limit: int = 20,
    ) -> "IntegratedMemory":
        return cls(
            strategic=StrategicMemory(
                question=question,
                topic_entities=list(topic_entities),
                replan_limit=replan_limit,
            ),
            context_chain_limit=context_chain_limit,
        )

    # -- plan lifecycle ---------------------------------------------------

    def install_plan(self, steps: list[PlanStep]) -> None:
        if [s.index for s in steps] != list(range(len(steps))):
            raise ValueError("plan step indices must be contiguous from 0")
        self.strategic.plan = steps
        if steps:
            steps[0].transition(StepStatus.IN_PROGRESS)
        self.step_cycle.clear()

    def current_step(self) -> PlanStep | None:
        for step in self.strategic.plan:
            if step.status is StepStatus.IN_PROGRESS:
                return step
        return None

    def advance_step(self) -> PlanStep | None:
        """Complete the in-progress step and start the next one, if any."""
        current = self.current_step()
        if current is not None:
            current.transition(StepStatus.COMPLETED)
        for step in self.strategic.plan:
            if step.status is StepStatus.NOT_STARTED:
                step.transition(StepStatus.IN_PROGRESS)
                self.step_cycle.clear()
                return step
        return None

    def step_signature(self, step: PlanStep) -> StepSignature:
        digest = hashlib.sha256(step.objective.encode("utf-8")).hexdigest()[:12]
        return (self.strategic.replan_counter, step.index, digest)

    # -- operations -------------------------------------------------------

    def reset_for_replan(self) -> None:
        """Archive the current plan and free the slot for a new one.

        Knowledge persists untouched: the new plan is built from everything
        gathered so far.  The in-progress step is abandoned; steps never
        started keep their status in the archived snapshot.
        """
        strategic = self.strategic
        if strategic.replan_counter >= strategic.replan_limit:
            raise ReplanBudgetExhausted(
                f"replan counter already at limit {strategic.replan_limit}"
            )
        current = self.current_step()
        if current is not None:
            current.transition(StepStatus.ABANDONED)
        strategic.prior_plans.append(strategic.plan)
        strategic.plan = []
        strategic.replan_counter += 1
        self.step_cycle.clear()

    def mark_failed_path(self, signature: StepSignature, triple: CandidateTriple) -> None:
        self.knowledge.failed_paths.add((signature, triple.key()))
        self.step_cycle.attempt_counter += 1

    def record_explored(self, triple: CandidateTriple) -> None:
        self.knowledge.explored_triples.add(triple.key())
        self.knowledge.visited_entities.add(triple.head)
        self.knowledge.visited_entities.add(triple.tail)

    def accept_triple(self, triple: CandidateTriple) -> None:
        self.knowledge.explored_triples.add(triple.key())
        self.knowledge.reasoning_chain.append(triple)

    def failed_keys_for(self, signature: StepSignature) -> set[TripleKey]:
        return {key for sig, key in self.knowledge.failed_paths if sig == signature}

    # -- context rendering --------------------------------------------------

    def render_context(self, audience: str) -> str:
        """Deterministic text view of the memory for prompt construction.

        ``audience`` is "planner" or "executor".  Equal memory states render
        to byte-identical strings.
        """
        if audience == "planner":
            return self._render_planner_context()
        if audience == "executor":
            return self._render_executor_context()
        raise ValueError(f"unknown audience: {audience}")

    def _chain_lines(self, limit: int | None = None) -> list[str]:
        chain = self.knowledge.reasoning_chain
        if limit is not None and len(chain) > limit:
            chain = chain[-limit:]
        return [t.render() for t in chain]

    def _render_planner_context(self) -> str:
        s = self.strategic
        lines = [f"Question: {s.question}"]
        if s.topic_entities:
            lines.append("Topic entities: " + ", ".join(s.topic_entities))
        lines.append(f"Replans used: {s.replan_counter}/{s.replan_limit}")
        if s.prior_plans:
            lines.append("Abandoned plans:")
            for gen, plan in enumerate(s.prior_plans):
                for step in plan:
                    lines.append(f"  (plan {gen}) Step {step.index} [{step.status.value}]: {step.objective}")
        if s.plan:
            lines.append("Current plan:")
            for step in s.plan:
                lines.append(f"Step {step.index} [{step.status.value}]: {step.objective}")
        chain = self._chain_lines(self.context_chain_limit)
        if chain:
            lines.append("Accepted knowledge:")
            lines.extend(f"  {c}" for c in chain)
        # accepted chain stays separate from raw exploration knowledge, but
        # a replanning planner still gets to see everything gathered so far
        accepted = {t.key() for t in self.knowledge.reasoning_chain}
        explored = sorted(self.knowledge.explored_triples - accepted)[: self.context_chain_limit]
        if explored:
            lines.append("Explored so far:")
            lines.extend(f"  {h} —{r}→ {t} ({d})" for h, r, t, d in explored)
        if self.step_cycle.thought:
            lines.append(f"Last thought: {self.step_cycle.thought}")
        return "\n".join(lines)

    def _render_executor_context(self) -> str:
        lines = []
        step = self.current_step()
        if step is not None:
            lines.append(f"Current objective: {step.objective}")
            failed = sorted(self.failed_keys_for(self.step_signature(step)))
            if failed:
                lines.append("Already failed on this step (avoid):")
                lines.extend(f"  {h} —{r}→ {t} ({d})" for h, r, t, d in failed)
        chain = self._chain_lines(3)
        if chain:
            lines.append("Chain so far:")
            lines.extend(f"  {c}" for c in chain)
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-serializable snapshot; field names are a test contract."""
        s = self.strategic
        sc = self.step_cycle
        k = self.knowledge
        step = self.current_step()
        obs = sc.observation
        return {
            "question": s.question,
            "topic_entities": list(s.topic_entities),
            "plan": [st.to_dict() for st in s.plan],
            "replan_counter": s.replan_counter,
            "replan_limit": s.replan_limit,
            "prior_plans": [[st.to_dict() for st in plan] for plan in s.prior_plans],
            "step_cycle": {
                "step_index": step.index if step else 0,
                "attempt_counter": sc.attempt_counter,
                "prediction": sc.prediction.to_dict() if sc.prediction else None,
                "action_record": (
                    {"triple": obs.chosen.to_dict() if obs.chosen else None, "rationale": obs.rationale}
                    if obs else None
                ),
                "observation": obs.to_dict() if obs else None,
                "error_signal": sc.error_signal.to_dict() if sc.error_signal else None,
                "thought": sc.thought,
            },
            "knowledge": {
                "explored_triples": sorted(list(t) for t in k.explored_triples),
                "visited_entities": sorted(k.visited_entities),
                "reasoning_chain": [t.to_dict() for t in k.reasoning_chain],
                "failed_paths": sorted(
                    [list(sig), list(key)] for sig, key in k.failed_paths
                ),
            },
        }
