"""Three-layer agent memory mediating planner/executor interaction.

* Strategic layer: the question, the plan and its cursor, the abandoned
  plans, and the replan count; the replan and context limits come from
  the run's ``EngineConfig``.
* Step-cycle layer: the attempt count, the last thought and the failed
  paths of the step in progress, and the candidates its first explore
  retrieved, with the scores pruning gave them, so a Path Correction's
  re-explore re-ranks them instead of reading the graph again; the trace,
  not memory, records each cycle's prediction, observation and error
  signal.
* Knowledge layer: everything learned from the graph; it only grows,
  including across replans.  Its one writer, ``explore``, adds a key to
  the explored set and appends it, if new, to a list of the same keys,
  which ``sorted_explored`` sorts in place: the sorted prefix and the new
  tail merge in linear time, so the planner context and the trace read a
  sorted view without sorting the whole set each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse, islice

from .config import EngineConfig
from .errors import ReplanBudgetExhausted
from .triples import CandidateTriple, TripleKey


class StepStatus:
    NOT_STARTED = "not_started"
    IN_PROGRESS = "in_progress"
    COMPLETED = "completed"
    ABANDONED = "abandoned"


@dataclass
class PlanStep:
    index: int
    objective: str
    description: str

    def status(self, cursor: int, at_cursor: str = StepStatus.IN_PROGRESS) -> str:
        """The step's status in a plan whose ``cursor`` step is ``at_cursor``."""
        if self.index < cursor:
            return StepStatus.COMPLETED
        return at_cursor if self.index == cursor else StepStatus.NOT_STARTED

    def to_dict(self, cursor: int) -> dict:
        return {
            "index": self.index,
            "objective": self.objective,
            "description": self.description,
            "status": self.status(cursor),
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


class ErrorLevel:
    FULFILLED = "fulfilled"
    PARTIAL = "partial"
    MISMATCH = "mismatch"
    EMPTY_RESULT = "empty_result"


@dataclass
class ErrorSignal:
    level: str  # an ErrorLevel constant
    detail: str = ""

    def to_dict(self) -> dict:
        return {"level": self.level, "detail": self.detail}


@dataclass
class Observation:
    frontier_entity: str
    candidates_total: int
    chosen: CandidateTriple | None
    rationale: str = ""
    candidates: list[CandidateTriple] = field(default_factory=list)  # post-pruning

    def to_dict(self) -> dict:
        return {
            "frontier_entity": self.frontier_entity,
            "candidates_total": self.candidates_total,
            "candidates_after_pruning": len(self.candidates),
            "chosen": self.chosen.to_dict() if self.chosen else None,
            "rationale": self.rationale,
            "candidates": [c.key() for c in self.candidates],
        }


@dataclass
class StrategicMemory:
    question: str
    topic_entities: list[str]
    plan: list[PlanStep] = field(default_factory=list)
    # the index of the step in progress; past the last step once all are done
    cursor: int = 0
    # each abandoned plan with the cursor it was abandoned at: one per replan
    prior_plans: list[tuple[list[PlanStep], int]] = field(default_factory=list)

    @property
    def replan_counter(self) -> int:
        return len(self.prior_plans)


@dataclass
class StepCycleMemory:
    attempt_counter: int = 0
    thought: str | None = None
    failed: set[TripleKey] = field(default_factory=set)  # path-corrected away on this step
    # (frontier, objective, scored candidates) of the step's first explore
    scored: tuple[str, str, list[CandidateTriple]] | None = None

    def clear(self) -> None:
        self.attempt_counter = 0
        self.thought = None
        self.failed = set()
        self.scored = None


@dataclass
class KnowledgeMemory:
    """Explored keys and the accepted chain; ``explore`` is the one writer of the explored keys."""

    explored_triples: set[TripleKey] = field(init=False, default_factory=set)
    reasoning_chain: list[CandidateTriple] = field(default_factory=list)
    # the keys of ``explored_triples``, each once: a sorted prefix, then the keys explored since
    _explored_order: list[TripleKey] = field(init=False, repr=False, compare=False, default_factory=list)

    def explore(self, key: TripleKey) -> None:
        if key not in self.explored_triples:
            self.explored_triples.add(key)
            self._explored_order.append(key)

    def sorted_explored(self) -> list[TripleKey]:
        """Every explored key in sorted order; the list is the memory's own, so do not change it."""
        self._explored_order.sort()  # Timsort merges the sorted prefix with the new tail
        return self._explored_order


@dataclass
class IntegratedMemory:
    strategic: StrategicMemory
    step_cycle: StepCycleMemory = field(default_factory=StepCycleMemory)
    knowledge: KnowledgeMemory = field(default_factory=KnowledgeMemory)
    config: EngineConfig = field(default_factory=EngineConfig)

    @classmethod
    def new(
        cls, question: str, topic_entities: list[str], config: EngineConfig | None = None
    ) -> "IntegratedMemory":
        return cls(
            strategic=StrategicMemory(question=question, topic_entities=list(topic_entities)),
            config=config or EngineConfig(),
        )

    # -- plan lifecycle ---------------------------------------------------

    def install_plan(self, steps: list[PlanStep]) -> None:
        if [s.index for s in steps] != list(range(len(steps))):
            raise ValueError("plan step indices must be contiguous from 0")
        self.strategic.plan = steps
        self.strategic.cursor = 0
        self.step_cycle.clear()

    def current_step(self) -> PlanStep | None:
        plan, cursor = self.strategic.plan, self.strategic.cursor
        return plan[cursor] if cursor < len(plan) else None

    def advance_step(self) -> PlanStep | None:
        """Complete the in-progress step and start the next one, if any."""
        self.strategic.cursor += 1
        step = self.current_step()
        if step is not None:
            self.step_cycle.clear()
        return step

    # -- operations -------------------------------------------------------

    def reset_for_replan(self) -> None:
        """Archive the current plan and free the slot for a new one.

        Knowledge persists untouched: the new plan is built from everything
        gathered so far.  The plan is archived with its cursor, so the step
        in progress renders as abandoned.
        """
        strategic = self.strategic
        if strategic.replan_counter >= self.config.replan_limit:
            raise ReplanBudgetExhausted(f"replan counter already at limit {self.config.replan_limit}")
        strategic.prior_plans.append((strategic.plan, strategic.cursor))
        strategic.plan = []
        self.step_cycle.clear()

    def mark_failed_path(self, triple: CandidateTriple) -> None:
        """Path correction: fail ``triple`` for the step, count the attempt, start the next."""
        self.step_cycle.failed.add(triple.key())
        self.step_cycle.attempt_counter += 1
        self.step_cycle.thought = None

    def accept_triple(self, triple: CandidateTriple) -> None:
        self.knowledge.explore(triple.key())
        self.knowledge.reasoning_chain.append(triple)

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

    def _chain_lines(self, limit: int) -> list[str]:
        """The last ``limit`` accepted triples, rendered; none for 0."""
        chain = self.knowledge.reasoning_chain
        return [t.render() for t in chain[max(len(chain) - limit, 0):]]

    def _render_planner_context(self) -> str:
        s = self.strategic
        lines = [f"Question: {s.question}"]
        if s.topic_entities:
            lines.append("Topic entities: " + ", ".join(s.topic_entities))
        lines.append(f"Replans used: {s.replan_counter}/{self.config.replan_limit}")
        if s.prior_plans:
            lines.append("Abandoned plans:")
            for gen, (plan, cursor) in enumerate(s.prior_plans):
                for step in plan:
                    status = step.status(cursor, StepStatus.ABANDONED)
                    lines.append(f"  (plan {gen}) Step {step.index} [{status}]: {step.objective}")
        if s.plan:
            lines.append("Current plan:")
            for step in s.plan:
                lines.append(f"Step {step.index} [{step.status(s.cursor)}]: {step.objective}")
        limit = self.config.context_chain_limit
        chain = self._chain_lines(limit)
        if chain:
            lines.append("Accepted knowledge:")
            lines.extend(f"  {c}" for c in chain)
        # accepted chain stays separate from raw exploration knowledge, but
        # a replanning planner still gets to see everything gathered so far:
        # the first ``limit`` unaccepted keys in sorted order.
        accepted = {t.key() for t in self.knowledge.reasoning_chain}
        explored = list(islice(filterfalse(accepted.__contains__, self.knowledge.sorted_explored()), limit))
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
            failed = sorted(self.step_cycle.failed)
            if failed:
                lines.append("Already failed on this step (avoid):")
                lines.extend(f"  {h} —{r}→ {t} ({d})" for h, r, t, d in failed)
        chain = self._chain_lines(3)
        if chain:
            lines.append("Chain so far:")
            lines.extend(f"  {c}" for c in chain)
        return "\n".join(lines)
