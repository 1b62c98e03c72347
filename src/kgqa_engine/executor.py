"""Path exploration: expand the frontier, prune, pick one triple.

The executor has no intelligence of its own; candidate selection is
delegated to the reasoning backend with a deterministic score fallback,
so selection is total for every possible backend string.
"""

from __future__ import annotations

import re

from .backends import ReasoningBackend
from .config import EngineConfig
from .errors import MalformedBackendOutput, NoFrontier, PruningUnavailable, describe
from .kg import CheckedGraph, GraphStore
from .memory import IntegratedMemory, Observation, PlanStep
from .planner import load_prompt, parse_fields
from .pruning import Embedder, prune, rank
from .triples import CandidateTriple, Direction


class Executor:
    def __init__(
        self, kg: GraphStore, embedder: Embedder, backend: ReasoningBackend, config: EngineConfig | None = None
    ):
        self.kg = CheckedGraph(kg)
        self.embedder = embedder
        self.backend = backend
        self.config = config or EngineConfig()

    # -- frontier -----------------------------------------------------------

    def resolve_frontier(self, memory: IntegratedMemory) -> str:
        """Chain tail once exploration has started; topic entity before that."""
        chain = memory.knowledge.reasoning_chain
        if chain:
            return chain[-1].tail
        if memory.strategic.topic_entities:
            return memory.strategic.topic_entities[0]
        entity = self._extract_topic_entity(memory.strategic.question)
        if entity is not None:
            memory.strategic.topic_entities.append(entity)
            return entity
        raise NoFrontier("no topic entity and empty reasoning chain")

    def _extract_topic_entity(self, question: str) -> str | None:
        """Backend extraction + reverse label lookup, if the store supports it."""
        if getattr(self.kg.store, "entity_with_label", None) is None:
            return None
        try:
            raw = self.backend.complete(load_prompt("extract").format(question=question), "extract")
        except MalformedBackendOutput:
            return None
        name = parse_fields(raw).get("ENTITY", "")
        return self.kg.entity_with_label(name) if name else None

    # -- exploration ----------------------------------------------------------

    def _retrieve_candidates(self, frontier: str, memory: IntegratedMemory) -> list[CandidateTriple]:
        """Every edge at the frontier as a candidate recorded as explored; ``explore`` asks once per step and frontier.

        Each edge is labelled head, relation, tail and its key recorded at once, so a label fault
        leaves exactly the edges before it explored.
        """
        kg, labels, explore = self.kg, self.kg.labels, memory.knowledge.explore
        expand, outgoing = self.config.expand_unlabeled, Direction.OUTGOING
        candidates: list[CandidateTriple] = []
        for relation, other, direction in kg.neighbors(frontier):  # directions are the constants
            head, tail = (frontier, other) if direction is outgoing else (other, frontier)
            first = CandidateTriple(head, relation, tail, direction, labels[head], labels[relation], labels[tail])
            explore(first.key())
            if not (expand and direction is outgoing and not first.tail_label):
                candidates.append(first)
                continue
            # Hop once more through an unlabeled (CVT-style) node: Freebase
            # answers often sit behind such mediators, so the two hops are
            # presented as one compound candidate whose relation joins both legs.
            compounds = []
            for onward, end, leg in kg.neighbors(other):
                if leg is not outgoing or end == frontier:
                    continue
                onward_label, end_label = labels[onward], labels[end]  # labels[other] is in the memo
                explore((other, onward, end, leg))
                compounds.append(CandidateTriple(
                    frontier, f"{relation}/{onward}", end, outgoing, first.head_label,
                    f"{first.relation_label or relation} / {onward_label or onward}", end_label,
                ))
            candidates.extend(compounds or [first])
        return candidates

    def explore(self, frontier: str, step: PlanStep, memory: IntegratedMemory) -> Observation:
        """One Act+Observe: retrieve, exclude known-bad, prune, select.

        Excluded are triples already failed on the step in progress and
        triples already accepted into the reasoning chain.  All retrieved
        triples are recorded into the knowledge layer regardless.  Unusable
        embeddings abandon the attempt with an empty observation; a graph
        store fault raises ``KgUnavailable``.

        The step's first explore keeps its scored candidates in the
        step-cycle memory.  A later explore of the same frontier and
        objective in the same step (a Path Correction's retry) drops the
        newly excluded ones and re-ranks the rest by those scores, with no
        graph read and no embedding: the chain is unchanged within a step
        and the exclusions only grow, so the observation is the one a
        fresh retrieval would give.
        """
        # chain exclusion ignores traversal direction: the same edge seen
        # from the other side is still a revisit
        excluded = memory.step_cycle.failed | {
            (t.head, t.relation, t.tail, direction)
            for t in memory.knowledge.reasoning_chain
            for direction in (Direction.OUTGOING, Direction.INCOMING)
        }
        scored = memory.step_cycle.scored
        if scored is not None and scored[0] == frontier and scored[1] == step.objective:
            candidates = [c for c in scored[2] if c.key() not in excluded]
            pruned = rank(candidates, self.config.prune_threshold)
        else:
            retrieved = self._retrieve_candidates(frontier, memory)
            candidates = [c for c in retrieved if c.key() not in excluded]
            try:
                pruned = prune(candidates, step.objective, self.config.prune_threshold, self.embedder)
            except PruningUnavailable as exc:
                rationale = f"attempt abandoned, pruning unavailable: {describe(exc, str)}"
                return Observation(frontier_entity=frontier, candidates_total=0, chosen=None, rationale=rationale)
            memory.step_cycle.scored = (frontier, step.objective, candidates)
        if pruned:
            chosen, rationale = self.select_entity(pruned, step, memory.render_context("executor"))
        else:
            chosen, rationale = None, "no candidates remained after exclusions"
        return Observation(
            frontier_entity=frontier,
            candidates_total=len(candidates),
            chosen=chosen,
            rationale=rationale,
            candidates=pruned,
        )

    # -- selection ------------------------------------------------------------

    def select_entity(
        self, pruned: list[CandidateTriple], step: PlanStep, context: str
    ) -> tuple[CandidateTriple, str]:
        """Backend picks a 1-based index; anything unusable falls back to score."""
        if not pruned:
            raise ValueError("select_entity requires a non-empty candidate list")
        listing = "\n".join(
            f"{i}. {c.render()} (relevance {c.score:.3f})" for i, c in enumerate(pruned, start=1)
        )
        prompt = load_prompt("select").format(context=context, candidates=listing)
        try:
            raw = self.backend.complete(prompt, "select")
        except MalformedBackendOutput:
            raw = ""
        fields = parse_fields(raw)
        rationale = fields.get("RATIONALE", "")
        index = self._parse_index(fields.get("CHOICE", "") or raw)
        if index is not None and 1 <= index <= len(pruned):
            return pruned[index - 1], rationale or f"backend chose candidate {index}"
        return rank(pruned, 1)[0], "fallback: highest-relevance candidate (backend choice unusable)"

    @staticmethod
    def _parse_index(text: str) -> int | None:
        match = re.search(r"\d+", text)
        try:
            return int(match.group()) if match else None
        except ValueError:  # too many digits for int(): no usable index
            return None
