"""Executor: frontier resolution, exploration bookkeeping, selection."""

import copy
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_engine.backends import RecordingBackend
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import BackendUnavailable, KgUnavailable, MalformedResults, NoFrontier
from kgqa_engine.executor import Executor
from kgqa_engine.memory import PlanStep
from kgqa_engine.pruning import HashingEmbedder
from kgqa_engine.triples import CandidateTriple, Direction

from conftest import RedirectedStore, StageBackend, make_memory, make_store, plain, random_kg


def make_executor(store, backend=None, **kw):
    return Executor(store, HashingEmbedder(), backend or StageBackend(), EngineConfig(**kw))


def accepted(head="a", relation="r", tail="b"):
    return CandidateTriple(head=head, relation=relation, tail=tail, direction=Direction.OUTGOING)


class TestResolveFrontier:
    def test_topic_entity_on_first_step(self, store):
        memory = make_memory(topic=("e1",))
        assert make_executor(store).resolve_frontier(memory) == "e1"

    def test_chain_tail_on_later_steps(self, store):
        memory = make_memory(topic=("e1",))
        memory.accept_triple(accepted(head="e1", tail="e2"))
        memory.accept_triple(accepted(head="e2", tail="e4"))
        assert make_executor(store).resolve_frontier(memory) == "e4"

    def test_no_sources_raises(self):
        memory = make_memory(topic=())
        store = make_store([])  # no labels, extraction finds nothing
        with pytest.raises(NoFrontier):
            make_executor(store).resolve_frontier(memory)

    def test_backend_extraction_with_label_lookup(self):
        store = make_store([("m.1", "r", "m.2")], labels={"m.1": "Eiffel Tower"})
        backend = StageBackend({"extract": "ENTITY: Eiffel Tower"})
        memory = make_memory(question="Where is the Eiffel Tower?", topic=())
        assert make_executor(store, backend).resolve_frontier(memory) == "m.1"
        assert memory.strategic.topic_entities == ["m.1"]

    def test_non_string_extraction_finds_no_entity(self):
        store = make_store([("m.1", "r", "m.2")], labels={"m.1": "Eiffel Tower"})
        backend = RecordingBackend(StageBackend({"extract": lambda prompt: 5}))
        memory = make_memory(question="Where is the Eiffel Tower?", topic=())
        with pytest.raises(NoFrontier):
            make_executor(store, backend).resolve_frontier(memory)


class TestExplore:
    def test_all_neighbors_become_candidates(self, store):
        memory = make_memory(topic=("e1",))
        obs = make_executor(store).explore("e1", memory.current_step(), memory)
        assert obs.candidates_total == 2
        assert len(obs.candidates) == 2
        assert obs.chosen is not None

    def test_failed_paths_excluded(self, store):
        memory = make_memory(topic=("e1",))
        step = memory.current_step()
        executor = make_executor(store)
        first = executor.explore("e1", step, memory)
        memory.mark_failed_path(first.chosen)
        second = executor.explore("e1", step, memory)
        assert second.candidates_total == 1
        assert second.chosen.key() != first.chosen.key()

    def test_chain_triples_excluded_ignoring_direction(self, store):
        memory = make_memory(topic=("e1",))
        memory.accept_triple(
            CandidateTriple(head="e1", relation="r1", tail="e2", direction=Direction.OUTGOING)
        )
        # exploring e2 sees the accepted edge as incoming; still excluded
        obs = make_executor(store).explore("e2", memory.current_step(), memory)
        assert obs.candidates_total == 1
        assert obs.chosen.relation == "r3"

    def test_zero_neighbors_gives_empty_observation(self, store):
        memory = make_memory(topic=("zzz",))
        obs = make_executor(store).explore("zzz", memory.current_step(), memory)
        assert obs.candidates_total == 0
        assert obs.chosen is None

    def test_failing_embedder_abandons_attempt(self, store):
        class DownEmbedder:
            def embed(self, texts):
                raise ConnectionError("embedding service down")

        memory = make_memory(topic=("e1",))
        executor = Executor(store, DownEmbedder(), StageBackend())
        obs = executor.explore("e1", memory.current_step(), memory)
        assert obs.candidates_total == 0
        assert obs.candidates == []
        assert obs.chosen is None
        assert obs.rationale.startswith("attempt abandoned, pruning unavailable: embedder failed: ")
        assert obs.to_dict()["candidates_after_pruning"] == 0
        # what was retrieved is still recorded
        assert ("e1", "r1", "e2", "outgoing") in memory.knowledge.explored_triples
        # and nothing is stored for a re-explore to reuse
        assert memory.step_cycle.scored is None

    def test_bookkeeping_records_everything_retrieved(self, store):
        memory = make_memory(topic=("e1",))
        make_executor(store).explore("e1", memory.current_step(), memory)
        keys = memory.knowledge.explored_triples
        assert ("e1", "r1", "e2", "outgoing") in keys
        assert ("e1", "r2", "e3", "outgoing") in keys

    def test_labels_resolved_eagerly(self, store):
        memory = make_memory(topic=("e1",))
        obs = make_executor(store, StageBackend({"select": "CHOICE: 1"})).explore(
            "e1", memory.current_step(), memory
        )
        assert obs.chosen.render() == "One —rel one→ Two"

    def test_unlabeled_entities_render_raw_ids(self):
        store = make_store([("x1", "rr", "x2")])
        memory = make_memory(topic=("x1",))
        obs = make_executor(store).explore("x1", memory.current_step(), memory)
        assert obs.chosen.render() == "x1 —rr→ x2"


class TestMediatorExpansion:
    def build(self):
        # m.alb --award.nominee--> cvt --award.work--> m.film ; cvt unlabeled
        store = make_store(
            [
                ("m.alb", "award.nominated_for", "m.cvt1"),
                ("m.cvt1", "award.work", "m.film"),
                ("m.cvt1", "award.year", "m.y1999"),
            ],
            labels={
                "m.alb": "The Album",
                "m.film": "The Film",
                "m.y1999": "1999",
                "award.nominated_for": "nominated for",
                "award.work": "work",
            },
        )
        return store

    def test_disabled_by_default(self):
        memory = make_memory(topic=("m.alb",))
        obs = make_executor(self.build()).explore("m.alb", memory.current_step(), memory)
        assert obs.candidates_total == 1
        assert obs.chosen.tail == "m.cvt1"

    def test_enabled_expands_one_extra_hop(self):
        memory = make_memory(topic=("m.alb",))
        executor = make_executor(self.build(), expand_unlabeled=True)
        obs = executor.explore("m.alb", memory.current_step(), memory)
        assert obs.candidates_total == 2  # two compound candidates via the cvt
        assert "nominated for / " in obs.chosen.render()  # both legs visible
        # raw hops are still in the knowledge layer
        assert ("m.cvt1", "award.work", "m.film", "outgoing") in memory.knowledge.explored_triples

    def test_compound_candidates_in_order_with_labels(self):
        store = make_store(
            [
                ("f", "rel.named", "n1"),  # labelled neighbour
                ("f", "rel.via", "cvt1"),  # mediator with onward legs
                ("cvt1", "leg.year", "y1"),  # labelled leg
                ("cvt1", "leg.raw", "w1"),  # leg without a relation label
                ("cvt1", "leg.back", "f"),  # back to the frontier: no compound
                ("x1", "leg.in", "cvt1"),  # incoming on the mediator: no compound
                ("f", "rel.bare", "cvt2"),  # mediator with no onward edge
                ("x1", "leg.in", "cvt2"),
                ("i1", "rel.in", "f"),  # incoming neighbour
            ],
            labels={
                "f": "Frontier", "n1": "Named", "y1": "1999", "w1": "Work", "i1": "Inbound",
                "rel.named": "named", "rel.via": "via", "leg.year": "year", "rel.in": "in",
            },
        )
        memory = make_memory(topic=("f",))
        executor = make_executor(store, expand_unlabeled=True)

        def cand(head, relation, tail, direction, head_label, relation_label, tail_label):
            return {
                "head": head, "relation": relation, "tail": tail, "direction": direction,
                "head_label": head_label, "relation_label": relation_label, "tail_label": tail_label,
                "score": None,
            }

        assert [c.to_dict() for c in executor._retrieve_candidates("f", memory)] == [
            cand("cvt1", "leg.back", "f", "incoming", "", "", "Frontier"),
            cand("f", "rel.bare", "cvt2", "outgoing", "Frontier", "", ""),
            cand("i1", "rel.in", "f", "incoming", "Inbound", "in", "Frontier"),
            cand("f", "rel.named", "n1", "outgoing", "Frontier", "named", "Named"),
            cand("f", "rel.via/leg.raw", "w1", "outgoing", "Frontier", "via / leg.raw", "Work"),
            cand("f", "rel.via/leg.year", "y1", "outgoing", "Frontier", "via / year", "1999"),
        ]
        assert memory.knowledge.explored_triples == {
            ("cvt1", "leg.back", "f", "incoming"),
            ("cvt1", "leg.raw", "w1", "outgoing"),
            ("cvt1", "leg.year", "y1", "outgoing"),
            ("f", "rel.bare", "cvt2", "outgoing"),
            ("f", "rel.named", "n1", "outgoing"),
            ("f", "rel.via", "cvt1", "outgoing"),
            ("i1", "rel.in", "f", "incoming"),
        }

    def test_labeled_neighbors_not_expanded(self, store):
        memory = make_memory(topic=("e1",))
        executor = make_executor(store, expand_unlabeled=True)
        obs = executor.explore("e1", memory.current_step(), memory)
        # e3 has a label file entry? e3 labeled "Three" -> no expansion of e2/e3
        assert obs.candidates_total == 2


class TestLabelLookups:
    def hub(self):
        # a hub with repeated relations, two unlabeled mediators sharing
        # relations and a tail, and an incoming edge from a shared tail
        triples = [("hub", f"rel.{i % 3}", f"t{i % 7}") for i in range(20)]
        triples += [("hub", "via", "cvt1"), ("hub", "via", "cvt2"), ("t1", "rel.back", "hub")]
        triples += [(cvt, "leg", f"t{j}") for cvt in ("cvt1", "cvt2") for j in range(3)]
        labels = {"hub": "Hub", "rel.0": "zero", "via": "via", "leg": "leg"}
        labels.update({f"t{i}": f"Tail {i}" for i in range(0, 7, 2)})
        return make_store(triples, labels)

    @pytest.mark.parametrize("expand", [False, True])
    def test_one_lookup_per_distinct_id_per_explore(self, expand):
        store = RecordingStore(self.hub())
        memory = make_memory(topic=("hub",))
        executor = make_executor(store, expand_unlabeled=expand, prune_threshold=100)
        obs = executor.explore("hub", memory.current_step(), memory)
        assert set(store.calls("label").values()) == {1}
        # the labels are the ones a direct lookup gives
        for c in obs.candidates:
            if "/" not in c.relation:
                assert c.relation_label == (store.inner.label(c.relation) or "")
            assert c.head_label == (store.inner.label(c.head) or "")
            assert c.tail_label == (store.inner.label(c.tail) or "")
        # a second explore in the same step reads nothing from the graph
        neighbor_calls = store.calls("neighbors")
        executor.explore("hub", memory.current_step(), memory)
        assert store.calls("neighbors") == neighbor_calls
        assert set(store.calls("label").values()) == {1}
        # a new step cycle reads the neighbours again, but the labels are the run's
        memory.step_cycle.clear()
        executor.explore("hub", memory.current_step(), memory)
        assert store.calls("neighbors") == {entity: 2 * calls for entity, calls in neighbor_calls.items()}
        assert set(store.calls("label").values()) == {1}


class RecordingStore:
    """Graph store that logs each ``neighbors`` and ``label`` call in order; it fails the ``fail_at``-th distinct label."""

    def __init__(self, inner, fail_at=None):
        self.inner = inner
        self.fail_at = fail_at
        self.log = []
        self.asked = set()

    def neighbors(self, entity):
        self.log.append(("neighbors", entity))
        return self.inner.neighbors(entity)

    def label(self, entity_or_relation):
        self.log.append(("label", entity_or_relation))
        self.asked.add(entity_or_relation)
        if len(self.asked) == self.fail_at:
            raise RuntimeError("label lookup failed")
        return self.inner.label(entity_or_relation)

    def calls(self, op):
        """How often each id was asked for by ``op``, ``"neighbors"`` or ``"label"``."""
        return Counter(item for kind, item in self.log if kind == op)


def explore_walk(store, frontier, expand):
    """The store calls one explore makes, in order, with ``("key", key)`` once an edge's labels are in.

    Every edge is labelled head, relation, tail; a mediator's legs are
    labelled after its ``neighbors`` call.  Ids already labelled in the run
    repeat here; the executor asks the store for each id once.
    """
    walk = [("neighbors", frontier)]
    for relation, other, direction in store.neighbors(frontier):
        head, tail = (frontier, other) if direction == Direction.OUTGOING else (other, frontier)
        walk += [("label", head), ("label", relation), ("label", tail), ("key", (head, relation, tail, direction))]
        if expand and direction == Direction.OUTGOING and not store.label(other):
            walk.append(("neighbors", other))
            for onward, end, leg in store.neighbors(other):
                if leg == Direction.OUTGOING and end != frontier:
                    walk += [("label", other), ("label", onward), ("label", end), ("key", (other, onward, end, leg))]
    return walk


def store_calls(walk, asked):
    """The walk's calls as the store sees them: each id not yet in ``asked`` labelled once, then added to it."""
    calls = []
    for kind, item in walk:
        if kind == "label":
            if item in asked:
                continue
            asked.add(item)
        if kind != "key":
            calls.append((kind, item))
    return calls


class TestLabelOrder:
    """The store is asked for labels in a fixed order, each id once per run, so faults land the same."""

    def build(self):
        return make_store(
            [("f", "rel.named", "n1"), ("f", "rel.via", "cvt1"), ("cvt1", "leg.year", "y1"),
             ("cvt1", "leg.raw", "w1"), ("cvt1", "leg.back", "f"), ("x1", "leg.in", "cvt1"),
             ("i1", "rel.in", "f"), ("n1", "rel.named", "y1"), ("n1", "rel.via", "cvt1")],
            {"f": "Frontier", "n1": "Named", "y1": "1999", "w1": "Work", "i1": "Inbound",
             "rel.named": "named", "rel.via": "via", "leg.year": "year"},
        )

    @pytest.mark.parametrize("expand", [False, True])
    def test_head_relation_tail_per_edge_each_id_once(self, expand):
        store = RecordingStore(self.build())
        memory = make_memory(topic=("f",))
        executor = make_executor(store, expand_unlabeled=expand)
        asked = set()
        executor.explore("f", memory.current_step(), memory)
        assert store.log == store_calls(explore_walk(store.inner, "f", expand), asked)
        # a later step's explore asks only for ids the run has not labelled yet
        memory.step_cycle.clear()
        del store.log[:]
        executor.explore("n1", memory.current_step(), memory)
        assert store.log == store_calls(explore_walk(store.inner, "n1", expand), asked)
        assert len(store.asked) == len(asked)

    @given(seed=st.integers(0, 2**32 - 1), fail_at=st.integers(1, 40), expand=st.booleans())
    def test_label_fault_leaves_the_edges_labelled_before_it(self, seed, fail_at, expand):
        rng = random.Random(seed)
        entities = [f"e{i}" for i in range(12)]
        triples = [tuple(rng.sample(entities, 2)) for _ in range(30)] + [("e0", e) for e in rng.sample(entities[1:], 4)]
        store = make_store(
            [(head, f"r{rng.randrange(5)}", tail) for head, tail in triples],
            {key: key.upper() for key in rng.sample(entities + [f"r{i}" for i in range(5)], 9)},
        )
        recording = RecordingStore(store, fail_at)
        memory = make_memory(topic=("e0",))
        walk = explore_walk(store, "e0", expand)
        calls = store_calls(walk, set())
        labelled = [i for i, (kind, _) in enumerate(calls) if kind == "label"]
        # the keys of the edges whose labels all come before the fail_at-th distinct id
        asked, expected = set(), set()
        for kind, item in walk:
            if kind == "key":
                expected.add(item)
            elif kind == "label":
                asked.add(item)
                if len(asked) == fail_at:
                    break
        executor = make_executor(recording, expand_unlabeled=expand)
        if fail_at <= len(labelled):
            with pytest.raises(KgUnavailable, match=re.escape("RuntimeError('label lookup failed')")):
                executor.explore("e0", memory.current_step(), memory)
            calls = calls[:labelled[fail_at - 1] + 1]
        else:
            executor.explore("e0", memory.current_step(), memory)
        assert memory.knowledge.explored_triples == expected
        assert recording.log == calls


class TestReExplore:
    """A re-explore of the step's frontier re-ranks the first explore's scored candidates."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), threshold=st.sampled_from([2, 70]),
           failures=st.lists(st.integers(0, 10**6), max_size=6))
    def test_same_observation_as_a_fresh_retrieval(self, seed, threshold, failures):
        rng = random.Random(seed)
        store, entities = random_kg(rng, n_entities=15)
        objectives = [f"Entity e{rng.randrange(15)} r{rng.randrange(12)}" for _ in range(2)]
        memory = make_memory(topic=(rng.choice(entities),), plan_objectives=objectives)
        executor = make_executor(store, prune_threshold=threshold)
        # accept a first step's triple, so the chain excludes an edge at the frontier
        first = executor.explore(executor.resolve_frontier(memory), memory.current_step(), memory)
        if first.chosen is None:
            return
        memory.accept_triple(first.chosen)
        step = memory.advance_step()
        frontier = executor.resolve_frontier(memory)
        executor.explore(frontier, step, memory)
        scored = memory.step_cycle.scored
        for pick in failures:
            if not scored[2]:
                break
            memory.mark_failed_path(scored[2][pick % len(scored[2])])
            reused = executor.explore(frontier, step, memory).to_dict()
            memory.step_cycle.scored = None
            fresh = executor.explore(frontier, step, memory).to_dict()
            assert reused == fresh
            memory.step_cycle.scored = scored

    def test_only_the_first_explore_embeds(self, store):
        class CountingEmbedder(HashingEmbedder):
            calls = 0

            def embed(self, texts):
                self.calls += 1
                return super().embed(texts)

        embedder = CountingEmbedder()
        executor = Executor(store, embedder, StageBackend())
        memory = make_memory(topic=("e1",))
        step = memory.current_step()
        first = executor.explore("e1", step, memory)
        memory.mark_failed_path(first.chosen)
        second = executor.explore("e1", step, memory)
        assert embedder.calls == 1
        assert second.candidates == [c for c in first.candidates if c is not first.chosen]

    def test_another_frontier_or_objective_retrieves(self, store):
        store = RecordingStore(store)
        memory = make_memory(topic=("e1",))
        step = memory.current_step()
        executor = make_executor(store)
        executor.explore("e1", step, memory)
        executor.explore("e2", step, memory)
        executor.explore("e2", PlanStep(0, "another objective", ""), memory)
        assert store.calls("neighbors") == {"e1": 1, "e2": 2}
        assert memory.step_cycle.scored[:2] == ("e2", "another objective")


class BrokenStore:
    """Graph store whose every read raises ``error``."""

    def __init__(self, error):
        self.error = error

    def neighbors(self, entity):
        raise self.error

    label = entity_with_label = neighbors


class TestStoreFaults:
    def test_store_fault_becomes_kg_unavailable(self):
        memory = make_memory(topic=("e1",))
        executor = make_executor(BrokenStore(RuntimeError("boom")))
        with pytest.raises(KgUnavailable, match=re.escape("graph store failed: RuntimeError('boom')")):
            executor.explore("e1", memory.current_step(), memory)
        assert memory.step_cycle.scored is None

    def test_engine_error_passes_unchanged(self):
        memory = make_memory(topic=("e1",))
        executor = make_executor(BrokenStore(KgUnavailable("endpoint down")))
        with pytest.raises(KgUnavailable, match="^endpoint down$"):
            executor.explore("e1", memory.current_step(), memory)

    @pytest.mark.parametrize("bad", [5, 0, b"e2", ["e2"]], ids=["int", "zero", "bytes", "list"])
    def test_non_string_label_is_malformed(self, bad):
        store = make_store([("e1", "r", "e2")])
        store.label = lambda entity_or_relation: bad
        memory = make_memory(topic=("e1",))
        kind = type(bad).__name__
        with pytest.raises(MalformedResults, match=re.escape(f"label of 'e1' is {kind}, not str")):
            make_executor(store).explore("e1", memory.current_step(), memory)

    @pytest.mark.parametrize("relation, entity", [(5, "m.x"), ("r", None), (None, "m.x"), ("r", ["m.x"])])
    def test_non_string_id_is_malformed(self, relation, entity):
        store = make_store([("e1", "r1", "e2")])
        store.neighbors = lambda e: [(relation, entity, Direction.OUTGOING)]
        memory = make_memory(topic=("e1",))
        message = f"neighbor ({relation!r}, {entity!r}) of 'e1' has an id that is not str"
        with pytest.raises(MalformedResults, match=re.escape(message)):
            make_executor(store).explore("e1", memory.current_step(), memory)
        assert memory.knowledge.explored_triples == set()

    @pytest.mark.parametrize("relation, entity", [("", "m.x"), ("r", "")])
    def test_empty_id_is_malformed(self, relation, entity):
        store = make_store([("e1", "r1", "e2")])
        store.neighbors = lambda e: [(relation, entity, Direction.OUTGOING)]
        memory = make_memory(topic=("e1",))
        message = f"neighbor ({relation!r}, {entity!r}) of 'e1' has an empty id"
        with pytest.raises(MalformedResults, match=re.escape(message)):
            make_executor(store).explore("e1", memory.current_step(), memory)
        assert memory.knowledge.explored_triples == set()

    def test_non_string_id_behind_a_mediator_is_malformed(self):
        store = make_store([("e1", "r1", "m")], {"e1": "One"})
        neighbors = store.neighbors
        store.neighbors = lambda e: [("r2", 5, Direction.OUTGOING)] if e == "m" else neighbors(e)
        memory = make_memory(topic=("e1",))
        with pytest.raises(MalformedResults, match=re.escape("neighbor ('r2', 5) of 'm' has an id that is not str")):
            make_executor(store, expand_unlabeled=True).explore("e1", memory.current_step(), memory)

    @pytest.mark.parametrize("expand_unlabeled", [False, True])
    def test_plain_direction_strings_give_the_same_candidates(self, expand_unlabeled):
        assert plain(Direction.OUTGOING) is not Direction.OUTGOING
        # m is an unlabeled mediator with an outgoing and an incoming second leg
        triples = [("e1", "r1", "e2"), ("e3", "r2", "e1"), ("e1", "r3", "m"), ("m", "r4", "e4"), ("e5", "r5", "m")]
        labels = {"e1": "One", "e2": "Two", "e3": "Three", "e4": "Four", "e5": "Five"}
        seen = []
        for store in (make_store(triples, labels), RedirectedStore(make_store(triples, labels), plain)):
            memory = make_memory(topic=("e1",))
            executor = make_executor(store, expand_unlabeled=expand_unlabeled)
            observation = executor.explore("e1", memory.current_step(), memory)
            seen.append((observation.to_dict(), sorted(memory.knowledge.explored_triples)))
        assert seen[0] == seen[1]

    def test_keys_hold_the_plain_direction_constants(self):
        store = make_store([("e1", "r1", "e2"), ("e3", "r2", "e1")], {"e2": "Two", "e3": "Three"})
        memory = make_memory(topic=("e1",))
        observation = make_executor(store).explore("e1", memory.current_step(), memory)
        keys = [c.key() for c in observation.candidates] + sorted(memory.knowledge.explored_triples)
        assert {(key[3], type(key[3])) for key in keys} == {("outgoing", str), ("incoming", str)}

    @pytest.mark.parametrize("bad", ["sideways", None, 5, "OUTGOING"])
    def test_other_direction_is_malformed(self, bad):
        store = RedirectedStore(make_store([("e1", "r", "e2")]), lambda direction: bad)
        memory = make_memory(topic=("e1",))
        with pytest.raises(MalformedResults, match=re.escape(f"direction of 'r' at 'e1' is {bad!r}, not ")):
            make_executor(store).explore("e1", memory.current_step(), memory)

    def test_mediator_leg_that_is_not_outgoing_is_skipped(self):
        # m is an unlabeled mediator whose legs are all incoming: the one from e1 and one from e3
        store = make_store([("e1", "r1", "m"), ("e3", "r2", "m")], {"e1": "One", "e3": "Three"})
        memory = make_memory(topic=("e1",))
        observation = make_executor(store, expand_unlabeled=True).explore("e1", memory.current_step(), memory)
        assert [c.key() for c in observation.candidates] == [("e1", "r1", "m", "outgoing")]

    @pytest.mark.parametrize("leg, message", [
        (("r2", "e2", "sideways"), "direction of 'r2' at 'm' is 'sideways', not 'outgoing' or 'incoming'"),
        ((5, "e2", "incoming"), "neighbor (5, 'e2') of 'm' has an id that is not str"),
        (("r2", "", "incoming"), "neighbor ('r2', '') of 'm' has an empty id"),
    ], ids=["sideways", "int-relation", "empty-entity"])
    def test_malformed_mediator_leg_is_malformed(self, leg, message):
        # a mediator's legs meet the rule a first hop meets, whichever their direction
        store = make_store([("e1", "r1", "m"), ("m", "r3", "e3")], {"e1": "One", "e3": "Three"})
        neighbors = store.neighbors
        store.neighbors = lambda e: [*neighbors(e), leg] if e == "m" else neighbors(e)
        memory = make_memory(topic=("e1",))
        with pytest.raises(MalformedResults, match=re.escape(message)):
            make_executor(store, expand_unlabeled=True).explore("e1", memory.current_step(), memory)

    def test_label_lookup_fault_becomes_kg_unavailable(self):
        memory = make_memory(question="Where is the Eiffel Tower?", topic=())
        backend = StageBackend({"extract": "ENTITY: Eiffel Tower"})
        executor = make_executor(BrokenStore(ValueError("bad label")), backend)
        with pytest.raises(KgUnavailable, match=re.escape("graph store failed: ValueError('bad label')")):
            executor.resolve_frontier(memory)

    @pytest.mark.parametrize("bad", [5, b"e1", ["e1"]], ids=["int", "bytes", "list"])
    def test_non_string_label_lookup_is_malformed(self, bad, store):
        store.entity_with_label = lambda text: bad
        memory = make_memory(topic=())
        executor = make_executor(store, StageBackend({"extract": "ENTITY: One"}))
        kind = type(bad).__name__
        with pytest.raises(MalformedResults, match=re.escape(f"entity with label 'One' is {kind}, not str")):
            executor.resolve_frontier(memory)
        assert memory.strategic.topic_entities == []

    def test_empty_label_lookup_is_malformed(self, store):
        store.entity_with_label = lambda text: ""
        memory = make_memory(topic=())
        executor = make_executor(store, StageBackend({"extract": "ENTITY: One"}))
        with pytest.raises(MalformedResults, match=re.escape("entity with label 'One' is empty")):
            executor.resolve_frontier(memory)
        assert memory.strategic.topic_entities == []

    def test_backend_fault_beside_the_lookup_is_not_a_store_fault(self, store):
        def down(prompt):
            raise BackendUnavailable("down")

        memory = make_memory(topic=())
        with pytest.raises(BackendUnavailable, match="^down$"):
            make_executor(store, StageBackend({"extract": down})).resolve_frontier(memory)


# few ids, labels and scores, so equal scores, equal renderings of different ids and equal candidates are common
scored_candidate = st.builds(
    CandidateTriple,
    head=st.sampled_from(["h1", "h2"]),
    relation=st.sampled_from(["r1", "r2"]),
    tail=st.sampled_from(["t1", "t2"]),
    direction=st.sampled_from([Direction.OUTGOING, Direction.INCOMING]),
    head_label=st.sampled_from(["", "Alpha", "Beta"]),
    relation_label=st.sampled_from(["", "rel"]),
    tail_label=st.sampled_from(["", "Alpha"]),
    score=st.one_of(st.sampled_from([0.5, 0.0, -0.0, -0.25]), st.floats(-1.0, 1.0)),
)


class TestSelectEntity:
    def candidates(self, n=3):
        cands = [
            CandidateTriple(
                head="h",
                relation=f"r{i}",
                tail=f"t{i}",
                direction=Direction.OUTGOING,
                score=0.1 * i,
            )
            for i in range(n)
        ]
        return cands

    def test_backend_index_contract(self, store):
        backend = StageBackend({"select": "CHOICE: 2\nRATIONALE: second looks right"})
        chosen, rationale = make_executor(store, backend).select_entity(
            self.candidates(), make_memory().current_step(), ""
        )
        assert chosen.relation == "r1"
        assert rationale == "second looks right"

    def test_out_of_range_falls_back_to_highest_score(self, store):
        # the second index has more digits than int() converts
        for choice in ("17", "7" * 4301):
            backend = StageBackend({"select": f"CHOICE: {choice}"})
            chosen, rationale = make_executor(store, backend).select_entity(
                self.candidates(), make_memory().current_step(), ""
            )
            assert chosen.relation == "r2"  # highest score
            assert "fallback" in rationale

    def test_non_string_response_falls_back_to_highest_score(self, store):
        backend = RecordingBackend(StageBackend({"select": lambda prompt: None}))
        chosen, rationale = make_executor(store, backend).select_entity(
            self.candidates(), make_memory().current_step(), ""
        )
        assert chosen.relation == "r2"
        assert "fallback" in rationale

    def test_tie_break_lexicographic_rendering(self, store):
        cands = self.candidates()
        for c in cands:
            c.score = 0.5
        backend = StageBackend({"select": "no usable index here"})
        chosen, _ = make_executor(store, backend).select_entity(
            cands, make_memory().current_step(), ""
        )
        assert chosen.render() == min(c.render() for c in cands)

    def test_total_for_arbitrary_backend_strings(self, store):
        rng = random.Random(3)
        alphabet = "abc 0123456789\n:CHOICE-"
        step = make_memory().current_step()
        for _ in range(50):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            backend = StageBackend({"select": text})
            chosen, _ = make_executor(store, backend).select_entity(self.candidates(), step, "")
            assert chosen is not None

    @given(
        pool=st.lists(scored_candidate, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        reply=st.sampled_from(["", "no usable index here", "CHOICE: 0", "CHOICE: 99", "7" * 4301]),
    )
    def test_fallback_is_the_first_of_the_best(self, pool, picks, reply):
        # each pick is a copy of its own, so a repeated pick is an equal but distinct candidate
        cands = [copy.copy(pool[i % len(pool)]) for i in picks]
        backend = StageBackend({"select": reply})
        chosen, rationale = make_executor(make_store([]), backend).select_entity(
            cands, make_memory().current_step(), ""
        )
        assert chosen is min(cands, key=lambda c: (-(c.score or 0.0), c.render(), c.key()))
        assert "fallback" in rationale

    def test_empty_list_rejected(self, store):
        with pytest.raises(ValueError):
            make_executor(store).select_entity([], make_memory().current_step(), "")
