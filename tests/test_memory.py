"""Memory layer: plan lifecycle, replan, failed paths, context rendering."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgqa_engine.errors import ReplanBudgetExhausted
from kgqa_engine.memory import (
    IntegratedMemory,
    PlanStep,
    StepStatus,
)
from kgqa_engine.triples import CandidateTriple, Direction

from conftest import make_memory


def triple(head="a", relation="r", tail="b", direction=Direction.OUTGOING, **kw):
    return CandidateTriple(head=head, relation=relation, tail=tail, direction=direction, **kw)


class TestStepStatusMachine:
    def test_legal_sequences(self):
        # the only reachable sequences are N, N->I, N->I->C, N->I->A
        for terminal in (StepStatus.COMPLETED, StepStatus.ABANDONED):
            step = PlanStep(0, "o", "d")
            step.transition(StepStatus.IN_PROGRESS)
            step.transition(terminal)
            assert step.status is terminal

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
        step = PlanStep(0, "o", "d", status=start)
        with pytest.raises(ValueError):
            step.transition(target)

    def test_exhaustive_reachable_sequences(self):
        # brute-force enumeration over the transition relation
        legal = {
            (StepStatus.NOT_STARTED, StepStatus.IN_PROGRESS),
            (StepStatus.IN_PROGRESS, StepStatus.COMPLETED),
            (StepStatus.IN_PROGRESS, StepStatus.ABANDONED),
        }
        sequences = set()
        frontier = [(StepStatus.NOT_STARTED,)]
        while frontier:
            seq = frontier.pop()
            sequences.add(seq)
            for a, b in legal:
                if seq[-1] is a:
                    frontier.append(seq + (b,))
        short = {
            tuple(s.value[0].upper() if s.value != "not_started" else "N" for s in seq)
            for seq in sequences
        }
        assert short == {("N",), ("N", "I"), ("N", "I", "C"), ("N", "I", "A")}


class TestPlanLifecycle:
    def test_install_plan_starts_first_step(self):
        memory = make_memory(plan_objectives=("a", "b"))
        assert memory.current_step().index == 0
        assert memory.strategic.plan[0].status is StepStatus.IN_PROGRESS
        assert memory.strategic.plan[1].status is StepStatus.NOT_STARTED

    def test_non_contiguous_indices_rejected(self):
        memory = IntegratedMemory.new("q", [])
        with pytest.raises(ValueError):
            memory.install_plan([PlanStep(1, "o", "d")])

    def test_at_most_one_in_progress(self):
        memory = make_memory(plan_objectives=("a", "b", "c"))
        for _ in range(3):
            in_progress = [s for s in memory.strategic.plan if s.status is StepStatus.IN_PROGRESS]
            assert len(in_progress) <= 1
            memory.advance_step()

    def test_advance_clears_step_cycle(self):
        memory = make_memory(plan_objectives=("a", "b"))
        memory.step_cycle.thought = "something"
        memory.step_cycle.attempt_counter = 2
        nxt = memory.advance_step()
        assert nxt.index == 1
        assert memory.current_step().index == 1
        assert memory.step_cycle.attempt_counter == 0
        assert memory.step_cycle.thought is None


class TestResetForReplan:
    def test_basic_replan(self):
        memory = make_memory(plan_objectives=("a", "b", "c"))
        memory.reset_for_replan()
        assert memory.strategic.replan_counter == 1
        assert len(memory.strategic.prior_plans) == 1
        assert memory.strategic.plan == []
        assert memory.strategic.prior_plans[0][0].status is StepStatus.ABANDONED
        assert memory.strategic.prior_plans[0][1].status is StepStatus.NOT_STARTED

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
            memory.record_explored(triple(head=f"h{i}"))
        before = set(memory.knowledge.explored_triples)
        memory.reset_for_replan()
        assert memory.knowledge.explored_triples == before
        assert len(before) == 5

    def test_counter_matches_prior_plans(self):
        memory = make_memory(replan_limit=3)
        for _ in range(3):
            memory.reset_for_replan()
            memory.install_plan([PlanStep(0, "o", "")])
            assert memory.strategic.replan_counter == len(memory.strategic.prior_plans)


class TestFailedPaths:
    def test_mark_failed_path(self):
        memory = make_memory()
        sig = memory.step_signature(memory.current_step())
        t = triple()
        memory.step_cycle.thought = "wrong turn"
        memory.mark_failed_path(sig, t)
        assert t.key() in memory.failed_keys_for(sig)
        assert memory.step_cycle.attempt_counter == 1
        # the next attempt starts clean
        assert memory.step_cycle.thought is None

    def test_idempotent_set_but_counter_increments(self):
        memory = make_memory()
        sig = memory.step_signature(memory.current_step())
        t = triple()
        memory.mark_failed_path(sig, t)
        memory.mark_failed_path(sig, t)
        assert memory.failed_keys_for(sig) == {t.key()}
        assert memory.step_cycle.attempt_counter == 2

    def test_distinct_triples(self):
        memory = make_memory()
        sig = memory.step_signature(memory.current_step())
        memory.mark_failed_path(sig, triple(tail="x"))
        memory.mark_failed_path(sig, triple(tail="y"))
        assert memory.failed_keys_for(sig) == {triple(tail="x").key(), triple(tail="y").key()}

    def test_signature_distinguishes_generations(self):
        memory = make_memory(plan_objectives=("same objective",))
        sig0 = memory.step_signature(memory.current_step())
        memory.reset_for_replan()
        memory.install_plan([PlanStep(0, "same objective", "")])
        sig1 = memory.step_signature(memory.current_step())
        assert sig0 != sig1  # generation differs even with identical objective


class TestKnowledgeMonotonicity:
    def test_random_operation_sequences_only_grow(self):
        rng = random.Random(7)
        memory = make_memory(replan_limit=5)
        seen: set = set()
        for _ in range(200):
            op = rng.choice(["explore", "accept", "fail", "replan"])
            if op == "explore":
                memory.record_explored(triple(head=f"h{rng.randrange(20)}", tail=f"t{rng.randrange(20)}"))
            elif op == "accept":
                memory.accept_triple(triple(head=f"h{rng.randrange(20)}"))
            elif op == "fail":
                step = memory.current_step()
                if step:
                    memory.mark_failed_path(memory.step_signature(step), triple())
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
                memory.record_explored(triple(head=f"h{i}"))
                memory.accept_triple(triple(head=f"h{i}"))
            return memory

        m1, m2 = build(), build()
        for audience in ("planner", "executor"):
            assert m1.render_context(audience) == m2.render_context(audience)

    def test_executor_context_lists_failed_paths(self):
        memory = make_memory(plan_objectives=("obj",))
        sig = memory.step_signature(memory.current_step())
        memory.mark_failed_path(sig, triple(head="bad", tail="worse"))
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
    @given(st.text(), st.text(), st.text(), st.sampled_from(Direction))
    def test_key_is_the_four_fields(self, head, relation, tail, direction):
        key = triple(head, relation, tail, direction).key()
        assert key == (head, relation, tail, direction.value)
        assert type(key[3]) is str  # the plain value: a Direction member would render differently


NAMES = st.text(alphabet="ab.", max_size=3)
KEYS = st.tuples(NAMES, NAMES, NAMES, st.sampled_from(Direction))


def random_key(rng):
    def name():
        return "".join(rng.choices("ab.", k=rng.randrange(4)))

    return (name(), name(), name(), rng.choice(list(Direction)))


class TestExploredContext:
    """The planner's "Explored so far" block is the full-sort rendering."""

    @given(
        n_explored=st.integers(0, 150),
        seed=st.integers(0, 2**16),
        accepted=st.lists(st.one_of(st.integers(0, 7), KEYS), max_size=6),
        # small limits against large sets take the heap path, the rest a sort
        limit=st.one_of(st.integers(0, 3), st.integers(0, 25)),
    )
    def test_lines_equal_sorted_prefix(self, n_explored, seed, accepted, limit):
        rng = random.Random(seed)
        memory = make_memory(context_chain_limit=limit)
        triples = [triple(*random_key(rng)) for _ in range(n_explored)]
        for t in triples:
            memory.record_explored(t)
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
