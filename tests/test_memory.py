"""Memory layer: plan lifecycle, replan, failed paths, context rendering."""

import itertools
import random
import re
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import ReplanBudgetExhausted
from kgqa_engine.memory import (
    IntegratedMemory,
    PlanStep,
    StepStatus,
)
from kgqa_engine.orchestrator import Engine, Stage, TraceEvent, _Run, trace_to_jsonl
from kgqa_engine.pruning import HashingEmbedder
from kgqa_engine.triples import CandidateTriple, Direction

from conftest import StageBackend, make_memory, make_store

DIRECTIONS = [Direction.OUTGOING, Direction.INCOMING]


def triple(head="a", relation="r", tail="b", direction=Direction.OUTGOING, **kw):
    return CandidateTriple(head=head, relation=relation, tail=tail, direction=direction, **kw)


STEP_LINE = re.compile(r"^ *(?:\(plan (\d+)\) )?Step (\d+) \[(\w+)\]", re.MULTILINE)


def rendered_steps(memory) -> dict[tuple[int, int], str]:
    """(plan generation, step index) -> the status the planner context renders."""
    current = memory.strategic.replan_counter
    return {
        (int(gen) if gen else current, int(index)): status
        for gen, index, status in STEP_LINE.findall(memory.render_context("planner"))
    }


def apply(memory, op: str) -> None:
    """One step-cycle outcome: Proceed, PathCorrect, or Replan followed by a new plan."""
    if op == "advance":
        memory.advance_step()
    elif op == "path_correct":
        memory.mark_failed_path(triple())
    else:
        memory.reset_for_replan()
        memory.install_plan([PlanStep(i, f"o{i}", "") for i in range(3)])


@cache
def status_histories(length: int = 5) -> frozenset[tuple[str, ...]]:
    """Every step's rendered statuses, in order, over all operation sequences up to ``length``.

    A sequence stops once no step is in progress: the run finishes there.
    """
    histories = set()
    for n in range(length + 1):
        for ops in itertools.product(("advance", "path_correct", "replan"), repeat=n):
            memory = make_memory(plan_objectives=("a", "b", "c"), replan_limit=length)
            seen: dict[tuple[int, int], list[str]] = {}
            for op in (None, *ops):
                if op is not None:
                    if memory.current_step() is None:
                        break
                    apply(memory, op)
                for key, status in rendered_steps(memory).items():
                    if seen.setdefault(key, [status])[-1] != status:
                        seen[key].append(status)
            histories.update(tuple(h) for h in seen.values())
    return frozenset(histories)


class TestStepStatusMachine:
    """Statuses derive from the plan cursor; they still follow the step lifecycle."""

    def test_legal_sequences(self):
        memory = make_memory(plan_objectives=("a", "b", "c"))
        memory.advance_step()
        assert rendered_steps(memory) == {(0, 0): "completed", (0, 1): "in_progress", (0, 2): "not_started"}
        memory.reset_for_replan()
        assert rendered_steps(memory) == {(0, 0): "completed", (0, 1): "abandoned", (0, 2): "not_started"}

    @pytest.mark.parametrize(
        "start,target",
        [
            (StepStatus.NOT_STARTED, StepStatus.COMPLETED),
            (StepStatus.NOT_STARTED, StepStatus.ABANDONED),
            (StepStatus.COMPLETED, StepStatus.IN_PROGRESS),
            (StepStatus.ABANDONED, StepStatus.IN_PROGRESS),
            (StepStatus.COMPLETED, StepStatus.ABANDONED),
            (StepStatus.IN_PROGRESS, StepStatus.NOT_STARTED),
        ],
    )
    def test_illegal_transitions_rejected(self, start, target):
        pair = (start, target)
        assert not any(pair in zip(h, h[1:]) for h in status_histories())

    def test_exhaustive_reachable_sequences(self):
        # install_plan starts step 0 at once, so its not_started never renders
        full = {h if h[0] == "not_started" else ("not_started", *h) for h in status_histories()}
        short = {tuple(s[0].upper() for s in h) for h in full}
        assert short == {("N",), ("N", "I"), ("N", "I", "C"), ("N", "I", "A")}


class TestPlanLifecycle:
    def test_install_plan_starts_first_step(self):
        memory = make_memory(plan_objectives=("a", "b"))
        assert memory.current_step().index == 0
        text = memory.render_context("planner")
        assert "Step 0 [in_progress]: a" in text
        assert "Step 1 [not_started]: b" in text

    def test_non_contiguous_indices_rejected(self):
        memory = IntegratedMemory.new("q", [])
        with pytest.raises(ValueError):
            memory.install_plan([PlanStep(1, "o", "d")])

    def test_at_most_one_in_progress(self):
        memory = make_memory(plan_objectives=("a", "b", "c"))
        for _ in range(3):
            assert memory.render_context("planner").count("[in_progress]") <= 1
            memory.advance_step()

    def test_advance_clears_step_cycle(self):
        memory = make_memory(plan_objectives=("a", "b"))
        memory.step_cycle.thought = "something"
        memory.step_cycle.attempt_counter = 2
        memory.step_cycle.scored = ("e1", "a", [triple()])
        nxt = memory.advance_step()
        assert nxt.index == 1
        assert memory.current_step().index == 1
        assert memory.step_cycle.attempt_counter == 0
        assert memory.step_cycle.thought is None
        assert memory.step_cycle.scored is None


class TestResetForReplan:
    def test_basic_replan(self):
        memory = make_memory(plan_objectives=("a", "b", "c"))
        memory.reset_for_replan()
        assert memory.strategic.replan_counter == 1
        assert len(memory.strategic.prior_plans) == 1
        assert memory.strategic.plan == []
        text = memory.render_context("planner")
        assert "(plan 0) Step 0 [abandoned]: a" in text
        assert "(plan 0) Step 1 [not_started]: b" in text

    def test_budget_enforced(self):
        memory = make_memory(replan_limit=2)
        memory.reset_for_replan()
        memory.install_plan([PlanStep(0, "again", "")])
        memory.reset_for_replan()
        memory.install_plan([PlanStep(0, "again 2", "")])
        with pytest.raises(ReplanBudgetExhausted):
            memory.reset_for_replan()
        assert memory.strategic.replan_counter == 2

    def test_knowledge_persists(self):
        memory = make_memory()
        for i in range(5):
            memory.knowledge.explore(triple(head=f"h{i}").key())
        before = set(memory.knowledge.explored_triples)
        memory.reset_for_replan()
        assert memory.knowledge.explored_triples == before
        assert len(before) == 5


class TestFailedPaths:
    def test_mark_failed_path(self):
        memory = make_memory()
        t = triple()
        memory.step_cycle.thought = "wrong turn"
        memory.mark_failed_path(t)
        assert t.key() in memory.step_cycle.failed
        assert memory.step_cycle.attempt_counter == 1
        # the next attempt starts clean
        assert memory.step_cycle.thought is None

    def test_idempotent_set_but_counter_increments(self):
        memory = make_memory()
        t = triple()
        memory.mark_failed_path(t)
        memory.mark_failed_path(t)
        assert memory.step_cycle.failed == {t.key()}
        assert memory.step_cycle.attempt_counter == 2

    def test_distinct_triples(self):
        memory = make_memory()
        memory.mark_failed_path(triple(tail="x"))
        memory.mark_failed_path(triple(tail="y"))
        assert memory.step_cycle.failed == {triple(tail="x").key(), triple(tail="y").key()}


STEP_OPS = st.lists(
    st.one_of(
        st.sampled_from(["advance", "replan"]),
        st.tuples(st.sampled_from(["explore", "accept", "path_correct"]), st.sampled_from("xyz")),
    ),
    max_size=30,
)


class TestStepState:
    """The cursor and the step's failed set, after any sequence of cycle outcomes."""

    @given(STEP_OPS)
    def test_random_operation_sequences(self, ops):
        memory = make_memory(plan_objectives=("a", "b", "c"), replan_limit=len(ops))
        marked: set = set()  # keys marked failed since the last advance or replan
        for op in ops:
            if memory.current_step() is None:
                break  # proceeded past the final step: the run finishes
            if op in ("advance", "replan"):
                apply(memory, op)
                marked = set()
            else:
                op, tail = op
                if op == "explore":
                    memory.knowledge.explore(triple(tail=tail).key())
                elif op == "accept":
                    memory.accept_triple(triple(tail=tail))
                else:
                    memory.mark_failed_path(triple(tail=tail))
                    marked.add(triple(tail=tail).key())
            statuses = rendered_steps(memory)
            assert list(statuses.values()).count("in_progress") <= 1
            for gen in range(memory.strategic.replan_counter):
                plan = [status for (g, _), status in statuses.items() if g == gen]
                assert plan.count("abandoned") == 1
            executor = memory.render_context("executor").split("\n")
            failed = []
            if "Already failed on this step (avoid):" in executor:
                start = executor.index("Already failed on this step (avoid):") + 1
                failed = list(itertools.takewhile(lambda line: line.startswith("  "), executor[start:]))
            assert failed == [f"  {h} —{r}→ {t} ({d})" for h, r, t, d in sorted(marked)]


class TestKnowledgeMonotonicity:
    def test_random_operation_sequences_only_grow(self):
        rng = random.Random(7)
        memory = make_memory(replan_limit=5)
        seen: set = set()
        for _ in range(200):
            op = rng.choice(["explore", "accept", "fail", "replan"])
            if op == "explore":
                memory.knowledge.explore(triple(head=f"h{rng.randrange(20)}", tail=f"t{rng.randrange(20)}").key())
            elif op == "accept":
                memory.accept_triple(triple(head=f"h{rng.randrange(20)}"))
            elif op == "fail":
                step = memory.current_step()
                if step:
                    memory.mark_failed_path(triple())
            elif op == "replan" and memory.strategic.replan_counter < 5:
                memory.reset_for_replan()
                memory.install_plan([PlanStep(0, "o", "")])
            assert seen <= memory.knowledge.explored_triples
            seen = set(memory.knowledge.explored_triples)

    def test_chain_subset_of_explored(self):
        memory = make_memory()
        t = triple()
        memory.accept_triple(t)
        assert t.key() in memory.knowledge.explored_triples


class TestRenderContext:
    def test_planner_context_contains_question_and_steps(self):
        memory = make_memory(question="who wrote it?", plan_objectives=("find author",))
        # install_plan starts step 0, so it renders as in_progress
        text = memory.render_context("planner")
        assert "who wrote it?" in text
        assert "Step 0 [in_progress]: find author" in text

    def test_fresh_plan_renders_not_started(self):
        memory = make_memory(plan_objectives=("a", "b"))
        text = memory.render_context("planner")
        assert "Step 1 [not_started]: b" in text

    def test_chain_in_acceptance_order(self):
        memory = make_memory()
        memory.accept_triple(triple(head="z", tail="m", head_label="Zulu", tail_label="Mike"))
        memory.accept_triple(triple(head="a", tail="b", head_label="Alpha", tail_label="Bravo"))
        text = memory.render_context("planner")
        assert text.index("Zulu") < text.index("Alpha")

    def test_determinism_on_equal_states(self):
        def build():
            memory = make_memory(plan_objectives=("a", "b"))
            for i in (3, 1, 2):
                memory.knowledge.explore(triple(head=f"h{i}").key())
                memory.accept_triple(triple(head=f"h{i}"))
            return memory

        m1, m2 = build(), build()
        for audience in ("planner", "executor"):
            assert m1.render_context(audience) == m2.render_context(audience)

    def test_executor_context_lists_failed_paths(self):
        memory = make_memory(plan_objectives=("obj",))
        memory.mark_failed_path(triple(head="bad", tail="worse"))
        text = memory.render_context("executor")
        assert "Current objective: obj" in text
        assert "bad" in text and "avoid" in text

    def test_chain_truncated_to_limit(self):
        memory = make_memory(context_chain_limit=20)
        for i in range(25):
            memory.accept_triple(triple(head=f"h{i:02d}", tail=f"t{i:02d}"))
        text = memory.render_context("planner")
        assert "h04" not in text
        assert "h05" in text and "h24" in text

    def test_chain_limit_zero_shows_no_chain(self):
        memory = make_memory(context_chain_limit=0)
        for i in range(3):
            memory.accept_triple(triple(head=f"h{i}", tail=f"t{i}"))
        text = memory.render_context("planner")
        assert "Accepted knowledge:" not in text
        assert not any(f"h{i}" in text for i in range(3))
        # the executor's own limit of three is not the planner's
        assert all(f"h{i}" in memory.render_context("executor") for i in range(3))


class TestTripleKey:
    @given(st.text(), st.text(), st.text(), st.sampled_from(DIRECTIONS))
    def test_key_is_the_four_fields(self, head, relation, tail, direction):
        key = triple(head, relation, tail, direction).key()
        assert key == (head, relation, tail, direction)
        assert type(key[3]) is str

    @pytest.mark.parametrize("labels, parts", [
        (("", "", ""), ("m.h", "r.x/r.y", "m.t")),  # no label: each part is its id
        (("Head", "", "Tail"), ("Head", "r.x/r.y", "Tail")),
        (("Head", "won / in", ""), ("Head", "won / in", "m.t")),  # a mediator compound
    ])
    def test_render_joins_the_parts(self, labels, parts):
        head_label, relation_label, tail_label = labels
        cand = triple("m.h", "r.x/r.y", "m.t", head_label=head_label, relation_label=relation_label,
                      tail_label=tail_label)
        assert cand.parts() == parts
        assert cand.render() == "{} —{}→ {}".format(*cand.parts())


NAMES = st.text(alphabet="ab.", max_size=3)
KEYS = st.tuples(NAMES, NAMES, NAMES, st.sampled_from(DIRECTIONS))
# a mediator's compound: the key the chain accepts, beside its two explored legs
COMPOUND_KEYS = st.tuples(NAMES, NAMES, NAMES, NAMES).map(
    lambda names: (names[0], f"{names[1]}/{names[2]}", names[3], Direction.OUTGOING))
MEMORY_OPS = st.lists(st.one_of(
    st.tuples(st.just("explore"), KEYS),
    st.tuples(st.just("accept"), st.one_of(KEYS, COMPOUND_KEYS)),
    st.just(("planner", None)),
    st.just(("snapshot", None)),
), max_size=60)


def random_key(rng):
    def name():
        return "".join(rng.choices("ab.", k=rng.randrange(4)))

    return (name(), name(), name(), rng.choice(DIRECTIONS))


class TestExploredContext:
    """The planner's "Explored so far" block is the full-sort rendering."""

    @given(
        n_explored=st.integers(0, 150),
        seed=st.integers(0, 2**16),
        accepted=st.lists(st.one_of(st.integers(0, 7), KEYS), max_size=6),
        limit=st.one_of(st.integers(0, 3), st.integers(0, 25)),
    )
    def test_lines_equal_sorted_prefix(self, n_explored, seed, accepted, limit):
        rng = random.Random(seed)
        memory = make_memory(context_chain_limit=limit)
        triples = [triple(*random_key(rng)) for _ in range(n_explored)]
        for t in triples:
            memory.knowledge.explore(t.key())
        ranked = sorted(triples, key=CandidateTriple.key)
        for pick in accepted:  # one of the smallest explored keys, or a fresh one
            if isinstance(pick, int):
                if ranked:
                    memory.accept_triple(ranked[pick % len(ranked)])
            else:
                memory.accept_triple(triple(*pick))
        chain = {t.key() for t in memory.knowledge.reasoning_chain}
        expected = sorted(memory.knowledge.explored_triples - chain)[:limit]
        text = memory.render_context("planner")
        if expected:
            block = "\n".join(["Explored so far:"] + [f"  {h} —{r}→ {t} ({d})" for h, r, t, d in expected])
            assert text.endswith("\n" + block)
        else:
            assert "Explored so far:" not in text

    @given(ops=MEMORY_OPS, limit=st.integers(0, 6))
    def test_reads_between_explores_equal_a_full_sort(self, ops, limit):
        config = EngineConfig(context_chain_limit=limit)
        run = _Run(Engine(StageBackend(), make_store([]), HashingEmbedder(), config), "q?", ["e1"])
        memory, knowledge = run.memory, run.memory.knowledge
        for op, key in ops:
            if op == "explore":
                memory.knowledge.explore(triple(*key).key())
                continue
            if op == "accept":
                memory.accept_triple(triple(*key))
                continue
            chain = {t.key() for t in knowledge.reasoning_chain}
            if op == "planner":
                text = memory.render_context("planner")
                block = text.split("Explored so far:\n")[1].split("\n") if "Explored so far:" in text else []
                expected = sorted(knowledge.explored_triples - chain)[:limit]
                assert block == [f"  {h} —{r}→ {t} ({d})" for h, r, t, d in expected]
            else:
                assert run._explored_snapshot() == sorted(knowledge.explored_triples)
            order = knowledge._explored_order
            assert len(order) == len(set(order)) == len(knowledge.explored_triples)


def as_lists(value):
    """``value`` with every tuple in it, nested ones too, made a list."""
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    return value


class TestTracePayloadsShareKeys:
    """Trace payloads hold the engine's own key tuples, not copies of them."""

    def test_snapshots_and_candidates_are_the_engine_keys(self):
        # m is an unlabeled mediator between a and b
        store = make_store(
            [("a", "r1", "m"), ("m", "r2", "b"), ("a", "r3", "c"), ("b", "r4", "d")],
            labels={"a": "Alpha", "b": "Bravo", "c": "Charlie", "d": "Delta"},
        )
        config = EngineConfig(expand_unlabeled=True, replan_limit=1)
        backend = StageBackend({"evaluate": "DECISION: Replan"})
        run = _Run(Engine(backend, store, HashingEmbedder(), config), "q?", ["a"])
        observations, explore = [], run.executor.explore

        def recorded_explore(*args):
            observations.append(explore(*args))
            return observations[-1]

        run.executor.explore = recorded_explore
        trace = run.execute().trace

        order = run.memory.knowledge._explored_order
        own = {id(key) for key in order}
        snapshots = [e.payload["explored_triples"] for e in trace if e.stage in (Stage.REPLAN, Stage.FINISH)]
        assert [e.stage for e in trace if e.stage in (Stage.REPLAN, Stage.FINISH)] == [Stage.REPLAN, Stage.FINISH]
        assert all(snapshots)
        for snapshot in snapshots:
            assert snapshot is not order
            assert all(id(key) in own for key in snapshot)
        assert run._explored_snapshot() is not order

        observed = [e.payload["observation"]["candidates"] for e in trace if e.stage is Stage.OBSERVE]
        assert len(observed) == len(observations) == 2
        for keys, observation in zip(observed, observations):
            assert keys
            assert len(keys) == len(observation.candidates)
            assert all(key is c.key() for key, c in zip(keys, observation.candidates))

        listed = [TraceEvent(e.sequence, e.timestamp, e.stage, as_lists(e.payload)) for e in trace]
        assert trace_to_jsonl(listed) == trace_to_jsonl(trace)
