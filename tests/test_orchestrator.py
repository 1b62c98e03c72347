"""Engine state machine: scenarios, trace grammar, termination, budgets."""

import itertools
import json
import math
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgqa_engine.backends import ScriptedBackend
from kgqa_engine.cli import _read_trace, main
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import BackendUnavailable, KgUnavailable, PruningUnavailable
from kgqa_engine.kg import load_memory_store
from kgqa_engine.orchestrator import Engine, Stage, trace_to_jsonl, write_trace
from kgqa_engine.pruning import HashingEmbedder

from conftest import RedirectedStore, StageBackend, TamperedEmbedder, make_store, plain, random_kg
from scenarios import (
    FIXTURES,
    SCENARIOS,
    build_engine,
    events_by_stage,
    load_meta,
    run_scenario,
    strip_timestamps,
)

CYCLE = ["predict", "act", "observe", "think", "evaluate"]


def assert_trace_grammar(trace):
    """decompose (P A O T E)* [replan decompose ...] finish, with at most
    one partial trailing cycle (a degraded run can die mid-cycle)."""
    stages = [e.stage.value for e in trace]
    assert stages[0] == "decompose"
    assert stages[-1] == "finish"
    assert stages.count("finish") == 1
    i, position = 1, 0
    while i < len(stages) - 1:
        stage = stages[i]
        if stage == "replan":
            assert position == 0, "replan only between cycles"
            assert stages[i + 1] == "decompose"
            i += 2
            continue
        assert stage == CYCLE[position], f"unexpected {stage} at cycle position {position}"
        position = (position + 1) % len(CYCLE)
        i += 1
    if position != 0:
        # partial trailing cycle is only legal for degraded runs
        assert trace[-1].payload.get("note")


def assert_budgets(trace, config):
    replans = len(events_by_stage(trace, "replan"))
    assert replans <= config.replan_limit
    per_step = {}
    for event in events_by_stage(trace, "evaluate"):
        if event.payload["decision"] == "path_correct":
            key = (event.payload["generation"], event.payload["step_index"])
            per_step[key] = per_step.get(key, 0) + 1
    assert all(n <= config.max_path_corrections for n in per_step.values())


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_gold_answer(self, name):
        meta = load_meta(name)
        result = run_scenario(name)
        assert result.answer == meta["gold"]
        assert result.trace[-1].stage is Stage.FINISH

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_matches_golden_trace(self, name):
        from scenarios import golden_trace

        result = run_scenario(name)
        assert strip_timestamps(trace_to_jsonl(result.trace)) == strip_timestamps(golden_trace(name))

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_trace_grammar_and_budgets(self, name):
        meta = load_meta(name)
        result = run_scenario(name)
        assert_trace_grammar(result.trace)
        assert_budgets(result.trace, EngineConfig(**meta["config"]))

    def test_happy_path_two_cycles(self):
        result = run_scenario("happy_path")
        assert result.cycles == 2
        assert not events_by_stage(result.trace, "replan")

    def test_path_fix_single_correction_avoids_failed_triple(self):
        result = run_scenario("path_fix")
        evaluates = events_by_stage(result.trace, "evaluate")
        assert [e.payload["decision"] for e in evaluates] == ["path_correct", "finish"]
        observes = events_by_stage(result.trace, "observe")
        failed_key = observes[0].payload["observation"]["chosen"]
        failed = (failed_key["head"], failed_key["relation"], failed_key["tail"], failed_key["direction"])
        assert failed not in observes[1].payload["observation"]["candidates"]

    def test_replan_scenario(self):
        result = run_scenario("replan")
        replans = events_by_stage(result.trace, "replan")
        assert len(replans) == 1
        # knowledge gathered under plan 1 reaches plan 2's decompose context
        second_decompose = events_by_stage(result.trace, "decompose")[1]
        assert "m.0germany" in second_decompose.payload["context"]
        # and the explored set only grew
        final = result.trace[-1].payload["explored_triples"]
        assert {tuple(t) for t in replans[0].payload["explored_triples"]} <= {tuple(t) for t in final}


class TestDeterminism:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_repeat_runs_identical(self, name):
        meta = load_meta(name)
        first = run_scenario(name)
        second = run_scenario(name)
        assert first.answer == second.answer
        assert strip_timestamps(trace_to_jsonl(first.trace)) == strip_timestamps(
            trace_to_jsonl(second.trace)
        )


def adversarial_backend(rng, mode):
    if mode == "always_path_correct":
        return StageBackend({"evaluate": "DECISION: PathCorrect\nRATIONALE: never satisfied"})
    if mode == "always_replan":
        return StageBackend({"evaluate": "DECISION: Replan\nRATIONALE: never satisfied"})

    def garbage(prompt):
        return "".join(rng.choice("abc:123 \n{}|") for _ in range(rng.randrange(0, 40)))

    return StageBackend({stage: garbage for stage in StageBackend.DEFAULTS})


ADVERSARIAL_MODES = ("always_path_correct", "always_replan", "random_malformed")


class TestTermination:
    @pytest.mark.parametrize("mode", ADVERSARIAL_MODES)
    def test_adversarial_backends_halt(self, mode):
        rng = random.Random(hash(mode) % 2**32)
        for trial in range(20):
            store, entities = random_kg(rng)
            config = EngineConfig()
            engine = Engine(
                backend=adversarial_backend(rng, mode),
                kg=store,
                embedder=HashingEmbedder(),
                config=config,
            )
            result = engine.run("adversarial question?", [rng.choice(entities)])
            assert result.trace[-1].stage is Stage.FINISH
            assert result.cycles <= config.max_total_cycles
            assert_budgets(result.trace, config)
            assert_trace_grammar(result.trace)

    def test_cycle_cap_respected_with_tiny_budget(self):
        store, entities = random_kg(random.Random(0))
        config = EngineConfig(max_total_cycles=8, replan_limit=50, max_path_corrections=50)
        engine = Engine(
            backend=StageBackend({"evaluate": "DECISION: PathCorrect"}),
            kg=store,
            embedder=HashingEmbedder(),
            config=config,
        )
        result = engine.run("q?", [entities[0]])
        assert result.cycles <= 8
        assert result.error_note and "cycle budget" in result.error_note


# Junk, and lines one step from what some stage's parser accepts.
BACKEND_LINE = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["STEP", "DECISION", "CHOICE", "OUTCOME", "LEVEL", "ANSWER", "ENTITY", "step", ""]),
        st.text(max_size=20),
    ),
    st.sampled_from([
        "STEP: |", "STEP: a", "DECISION: proceed!", "DECISION: Finish", "CHOICE: 0", "CHOICE: -1",
        "CHOICE: 99999999999999999999", "LEVEL: Mismatch", "ANSWER: x", "OUTCOME:",
    ]),
)
BACKEND_STRING = st.lists(BACKEND_LINE, max_size=4).map("\n".join)
# Well-formed answers beyond the defaults, so that runs go deep: longer
# plans, corrections, replans and finishes.
WELL_FORMED = {
    "decompose": ["STEP: a | b\nSTEP: c | d\nSTEP: e | f"],
    "evaluate": ["DECISION: PathCorrect", "DECISION: Replan", "DECISION: Finish\nANSWER: x"],
    "select": ["CHOICE: 2", "CHOICE: 99"],
    "classify": ["LEVEL: Mismatch\nDETAIL: off", "LEVEL: Fulfilled"],
}


# For each stage, a few strings the backend answers with in turn.
STAGE_RESPONSES = st.fixed_dictionaries(
    {
        stage: st.lists(
            st.one_of(st.sampled_from([default, *WELL_FORMED.get(stage, [])]), BACKEND_STRING),
            min_size=1,
            max_size=4,
        )
        for stage, default in StageBackend.DEFAULTS.items()
    }
)


def cycling_backend(responses: dict[str, list[str]]) -> StageBackend:
    """A backend whose every stage cycles through its own strings."""
    return StageBackend(
        {stage: (lambda prompt, it=itertools.cycle(texts): next(it)) for stage, texts in responses.items()}
    )


class TestBackendStrings:
    @settings(max_examples=100)
    @given(responses=STAGE_RESPONSES, seed=st.integers(0, 2**16))
    def test_any_strings_finish_within_budget(self, responses, seed):
        rng = random.Random(seed)
        store, entities = random_kg(rng, n_entities=20)
        config = EngineConfig()
        result = Engine(cycling_backend(responses), store, HashingEmbedder(), config).run("q?", [rng.choice(entities)])
        assert result.trace[-1].stage is Stage.FINISH
        assert result.cycles <= config.max_total_cycles
        assert isinstance(result.answer, str)
        assert_budgets(result.trace, config)
        assert_trace_grammar(result.trace)


class TestTraceRoundTrip:
    @settings(max_examples=100)
    @given(responses=STAGE_RESPONSES, seed=st.integers(0, 2**16))
    def test_written_trace_replays_to_itself(self, responses, seed):
        rng = random.Random(seed)
        store, entities = random_kg(rng, n_entities=20)
        result = Engine(cycling_backend(responses), store, HashingEmbedder(), EngineConfig()).run(
            "q?", [rng.choice(entities)]
        )
        with tempfile.TemporaryDirectory() as out_dir:
            question, topic_entities, config, backend, _ = _read_trace(write_trace(result.trace, out_dir, "run"))
        replayed = Engine(backend, store, HashingEmbedder(), config).run(question, topic_entities)
        assert strip_timestamps(trace_to_jsonl(replayed.trace)) == strip_timestamps(trace_to_jsonl(result.trace))


def _cannot_format(self):
    raise ValueError("cannot format this exception")


class StrRaises(RuntimeError):
    __str__ = _cannot_format


class ReprRaises(RuntimeError):
    __repr__ = _cannot_format


class BothRaise(RuntimeError):
    __str__ = __repr__ = _cannot_format


class ReprRecurses(RuntimeError):
    def __repr__(self):
        return repr(self)


# Exceptions that cannot be formatted: the handler that absorbs one must not raise while naming it.
UNPRINTABLE = {"str-raises": StrRaises, "repr-raises": ReprRaises, "both-raise": BothRaise,
               "repr-recurses": ReprRecurses}


class Flaky(BackendUnavailable):
    """A port's own subclass of an engine error, which a replay cannot import."""


class HostileStr(str):
    """A ``str`` subclass whose own methods raise: only a plain copy of it is safe to read."""

    def _raise(self, *args):
        raise RuntimeError("hostile str")

    __hash__ = __format__ = splitlines = _raise


class HostileFloat(float):
    def __mul__(self, other):
        raise RuntimeError("hostile float")


class HostileVectors:
    """As many vectors as texts by ``len``, but every subscript raises."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count

    def __getitem__(self, index):
        raise RuntimeError("hostile vectors")


def _hostile(answer):
    """``answer`` with each ``str`` in it, or in a tuple of its list (``neighbors``), a ``HostileStr``."""
    if isinstance(answer, str):
        return HostileStr(answer)
    if isinstance(answer, list):
        return [tuple(map(_hostile, item)) for item in answer]
    return answer


def _first_candidate(change):
    """Changes ``embed``'s answer: the first candidate's vector (vector 0 is the objective's) becomes ``change(vectors)``."""

    def tamper(vectors):
        vectors[1] = change(vectors)
        return vectors

    return tamper


def _component(value):
    """Puts ``value`` in the first candidate's vector where the objective's first nonzero component is."""

    def change(vectors):
        j = next(j for j, a in enumerate(vectors[0]) if a)
        return vectors[1][:j] + [value] + vectors[1][j + 1:]

    return _first_candidate(change)


# What a faulty port does on a call: raise (``RAISED``: an exception that may
# not format, or a subclass of an engine error), answer in the port's place
# (``ANSWERS``), or change the port's own answer (``TAMPERS``): each str in it
# a ``HostileStr``, or ``embed``'s vectors corrupted.
RAISED = {"RuntimeError": RuntimeError, "ValueError": ValueError, "KeyError": KeyError, "TypeError": TypeError,
          **UNPRINTABLE, "Flaky": Flaky}
ANSWERS = {"None": None, "int": 5, "bytes": b"injected", "1-tuple": [("r",)],
           "bad-direction": [("r", "m.0nile", "sideways")], "int-relation": [(5, "m.x", "outgoing")],
           "None-entity": [("r", None, "outgoing")], "empty-entity": [("r", "", "outgoing")], "empty": ""}
TAMPERS = {
    "hostile-str": _hostile,
    "zero": _first_candidate(lambda vectors: [0.0] * len(vectors[1])),
    "short": _first_candidate(lambda vectors: vectors[1][:-1]),
    "long": _first_candidate(lambda vectors: vectors[1] + [1.0]),
    **{kind: _component(value) for kind, value in
       {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "none": None, "str": "1.0", "huge": 10**200}.items()},
    "fewer": lambda vectors: vectors[1:],
    "more": lambda vectors: vectors + vectors[1:2],
    "hostile-vectors": lambda vectors: HostileVectors(len(vectors)),
    "hostile-float": lambda vectors: [[HostileFloat(a) for a in v] for v in vectors],
    "no-index-0": lambda vectors: dict(enumerate(vectors, 1)),
}
# The one fault menu: each port's kinds.  ``embed`` is asked of an embedder
# that is no exact HashingEmbedder, ``similarities`` of the engine's own one.
PORT_FAULTS = {
    "backend.complete": [*RAISED, "None", "int", "hostile-str"],
    "kg.neighbors": [*RAISED, "None", "int", "1-tuple", "bad-direction", "int-relation", "None-entity",
                     "empty-entity", "hostile-str"],
    "kg.label": [*RAISED, "None", "int", "bytes", "hostile-str"],
    "kg.entity_with_label": [*RAISED, "None", "int", "empty", "hostile-str"],
    "embedder.embed": [*RAISED, "None", "int", "zero", "short", "long", "nan", "inf", "-inf", "none", "str", "huge",
                       "fewer", "more", "hostile-vectors", "hostile-float", "no-index-0"],
    "embedder.similarities": [*RAISED],
}
# The pruning message of each embedder kind, after "attempt abandoned, pruning unavailable: ".
PRUNING_MESSAGES = {
    **dict.fromkeys([*RAISED, "None", "int"], "embedder failed: "),
    "zero": "cosine similarity undefined for a zero vector$",
    "short": "dimensions differ: 64 vs 63$",
    "long": "dimensions differ: 64 vs 65$",
    **dict.fromkeys(["nan", "inf", "-inf"], "vector has a non-finite component$"),
    **dict.fromkeys(["fewer", "more"], r"embedder returned \d+ vectors for \d+ texts$"),
    **dict.fromkeys(["none", "str", "huge", "hostile-vectors", "hostile-float", "no-index-0"],
                    "embedder returned an unusable vector: "),
}


class UnprintableEngineError(KgUnavailable):
    __str__ = __repr__ = _cannot_format


# what FaultAt can raise beyond RAISED: an engine error that cannot be
# formatted, and the two exceptions that must reach the caller of Engine.run
EXCEPTIONS = {**RAISED, "unprintable-engine-error": UnprintableEngineError,
              "KeyboardInterrupt": KeyboardInterrupt, "SystemExit": SystemExit}


class FaultAt:
    """Wraps one port method; its ``at``-th call (from 0) shows ``fault``, and so does every ``every``-th
    call after that one (none for 0)."""

    def __init__(self, method, at, fault, every=0):
        self.method = method
        self.at = at
        self.fault = fault
        self.every = every
        self.calls = 0

    def __call__(self, *args):
        since = self.calls - self.at
        self.calls += 1
        if not (since == 0 or since > 0 and self.every and since % self.every == 0):
            return self.method(*args)
        if self.fault in EXCEPTIONS:
            raise EXCEPTIONS[self.fault]("injected")
        if self.fault in ANSWERS:
            return ANSWERS[self.fault]
        return TAMPERS[self.fault](self.method(*args))


PORT_FAULT = st.sampled_from(sorted(PORT_FAULTS)).flatmap(
    lambda port: st.tuples(st.just(port), st.integers(0, 24), st.sampled_from(PORT_FAULTS[port]))
)


def happy_path_backend():
    return StageBackend({
        "decompose": "STEP: mouth country | b\nSTEP: capital | d\nSTEP: country | f",
        "extract": "ENTITY: Nile",
    })


# store name -> a fresh store, its topic entity and that entity's label, and
# the config to run it with.  Every happy_path entity is labelled; the other
# store's mediator m (a -r1-> m -r2-> b) makes the run read past it.  Both
# keep the default cycle budget.
FAULT_STORES = {
    "happy_path": lambda: (load_memory_store(FIXTURES / "happy_path" / "kg.tsv"), "m.0nile", "Nile", EngineConfig()),
    "mediator": lambda: (
        make_store([("a", "r1", "m"), ("m", "r2", "b"), ("a", "r3", "c"), ("b", "r4", "d")],
                   labels={"a": "Alpha", "b": "Bravo", "c": "Charlie", "d": "Delta"}),
        "a", "Alpha", EngineConfig(expand_unlabeled=True),
    ),
}


def faulty_run(port=None, at=0, kind=None, every=0, store_name="happy_path", given_topic=False):
    """A run on a ``FAULT_STORES`` store whose ``port`` (``"<owner>.<method>"``) shows ``kind`` as ``FaultAt``
    makes it; with no port, the same run without a fault."""
    store, topic, label, config = FAULT_STORES[store_name]()
    backend = happy_path_backend()
    backend.responses["extract"] = f"ENTITY: {label}"
    embedder = TamperedEmbedder() if port == "embedder.embed" else HashingEmbedder()
    if port:
        owner, name = port.split(".")
        owner = {"backend": backend, "kg": store, "embedder": embedder}[owner]
        setattr(owner, name, FaultAt(getattr(owner, name), at, kind, every))
    return Engine(backend, store, embedder, config).run("q?", [topic] if given_topic else [])


class TestPortFaults:
    # at least 200 examples, and the profile's count where it asks for more
    @settings(max_examples=max(200, settings.default.max_examples))
    @given(fault=PORT_FAULT, every=st.integers(0, 3), store_name=st.sampled_from(sorted(FAULT_STORES)),
           given_topic=st.booleans())
    @example(fault=("embedder.similarities", 0, "str-raises"), every=0, store_name="happy_path", given_topic=True)
    @example(fault=("kg.neighbors", 0, "repr-raises"), every=0, store_name="happy_path", given_topic=True)
    @example(fault=("backend.complete", 1, "both-raise"), every=0, store_name="happy_path", given_topic=True)
    @example(fault=("kg.label", 0, "repr-recurses"), every=0, store_name="mediator", given_topic=True)
    @example(fault=("backend.complete", 0, "hostile-str"), every=1, store_name="happy_path", given_topic=False)
    @example(fault=("embedder.embed", 1, "nan"), every=2, store_name="mediator", given_topic=True)
    def test_one_fault_anywhere_still_finishes(self, fault, every, store_name, given_topic):
        port, at, kind = fault
        result = faulty_run(port, at, kind, every, store_name, given_topic)
        assert result.trace[-1].stage is Stage.FINISH
        assert result.cycles <= EngineConfig().max_total_cycles
        assert type(result.answer) is str
        assert all(type(i) is str and i for key in result.trace[-1].payload["explored_triples"] for i in key)
        assert_trace_grammar(result.trace)
        assert trace_to_jsonl(result.trace).count("\n") == len(result.trace)
        if port.startswith("embedder"):  # it abandons an attempt, never the exploration
            assert not (result.error_note or "").startswith("exploration failed")

    @pytest.mark.parametrize("port, kind", [(port, kind) for port in PORT_FAULTS for kind in PORT_FAULTS[port]])
    def test_kind_at_first_call(self, port, kind):
        result = faulty_run(port, 0, kind)
        assert result.trace[-1].stage is Stage.FINISH
        assert_trace_grammar(result.trace)
        if kind == "hostile-str":  # read as the plain str it equals
            assert strip_timestamps(trace_to_jsonl(result.trace)) == strip_timestamps(trace_to_jsonl(faulty_run().trace))
        elif port.startswith("embedder"):  # the first explore abandons its attempt and says why
            rationale = events_by_stage(result.trace, "observe")[0].payload["observation"]["rationale"]
            assert re.match("attempt abandoned, pruning unavailable: " + PRUNING_MESSAGES[kind], rationale), rationale
        elif (port, kind) != ("kg.label", "None"):  # a label of None reads as no label
            assert result.error_note

    @pytest.mark.parametrize("port", sorted(PORT_FAULTS))
    def test_an_unprintable_engine_error_is_named_in_the_trace(self, port):
        result = faulty_run(port, 0, "unprintable-engine-error")
        assert result.trace[-1].stage is Stage.FINISH
        assert_trace_grammar(result.trace)
        assert "<unprintable UnprintableEngineError object>" in trace_to_jsonl(result.trace)

    def test_an_unprintable_pruning_error_from_a_vector_is_named(self):
        # a component's * may raise the engine's own PruningUnavailable, which prune lets through
        class UnprintablePruning(PruningUnavailable):
            __str__ = __repr__ = _cannot_format

        class Component(float):
            def __mul__(self, other):
                raise UnprintablePruning()

        embedder = TamperedEmbedder(lambda vecs: [[Component(a) for a in v] for v in vecs])
        store, topic, _, config = FAULT_STORES["happy_path"]()
        result = Engine(happy_path_backend(), store, embedder, config).run("q?", [topic])
        assert_trace_grammar(result.trace)
        observation = events_by_stage(result.trace, "observe")[0].payload["observation"]
        assert observation["rationale"] == (
            "attempt abandoned, pruning unavailable: <unprintable UnprintablePruning object>")

    @pytest.mark.parametrize("port", sorted(PORT_FAULTS))
    @pytest.mark.parametrize("raised", ["KeyboardInterrupt", "SystemExit"])
    def test_an_interrupt_from_any_port_propagates(self, port, raised):
        with pytest.raises(EXCEPTIONS[raised]):
            faulty_run(port, 0, raised)

    @settings(max_examples=60)
    @given(at=st.integers(0, 24), every=st.integers(0, 3), kind=st.sampled_from(PORT_FAULTS["backend.complete"]),
           topic=st.sampled_from([["m.0nile"], []]))
    @example(at=5, every=0, kind="Flaky", topic=["m.0nile"])  # raised at evaluate: the trace names BackendUnavailable
    def test_a_backend_fault_anywhere_replays(self, at, every, kind, topic):
        backend = happy_path_backend()
        backend.complete = FaultAt(backend.complete, at, kind, every)
        kg_file = str(FIXTURES / "happy_path" / "kg.tsv")
        result = Engine(backend, load_memory_store(kg_file), HashingEmbedder(), EngineConfig()).run("q?", topic)
        out, err = StringIO(), StringIO()
        with tempfile.TemporaryDirectory() as out_dir, redirect_stdout(out), redirect_stderr(err):
            code = main(["replay", "--trace", write_trace(result.trace, out_dir, "run"), "--kg-file", kg_file])
        assert code == 0, err.getvalue()
        assert out.getvalue() == result.answer + "\n"


class TestEmbedderFaults:
    # each corruption kind of ``embed`` in PORT_FAULTS (``not-a-list`` is its ``None``), on a random graph
    @pytest.mark.parametrize("fault", ["zero", "short", "long", "nan", "inf", "-inf", "none", "str", "huge", "fewer",
                                       "more", "not-a-list"])
    @settings(max_examples=60)
    @given(at=st.integers(0, 24), every=st.integers(0, 3), seed=st.integers(0, 2**16),
           threshold=st.sampled_from([2, 70]))
    def test_run_finishes_without_failed_exploration(self, fault, at, every, seed, threshold):
        rng = random.Random(seed)
        store, entities = random_kg(rng, n_entities=20)
        config = EngineConfig(prune_threshold=threshold)
        kind = {"not-a-list": "None"}.get(fault, fault)
        assert kind in PORT_FAULTS["embedder.embed"]
        embedder = TamperedEmbedder()
        embedder.embed = FaultAt(embedder.embed, at, kind, every)
        result = Engine(StageBackend(), store, embedder, config).run("q?", [rng.choice(entities)])
        assert result.trace[-1].stage is Stage.FINISH
        assert result.cycles <= config.max_total_cycles
        assert not (result.error_note or "").startswith("exploration failed")
        assert_trace_grammar(result.trace)


class TestForeignDirections:
    """A graph store's directions are compared by value: equal strings work, others degrade."""

    def test_plain_direction_strings_answer_like_the_constants(self):
        meta = load_meta("happy_path")
        runs = []
        for redirect in (None, plain):
            engine = build_engine("happy_path")
            if redirect:
                engine.kg = RedirectedStore(engine.kg, redirect)
            runs.append(engine.run(meta["question"], meta["topic_entities"]))
        assert runs[1].answer == runs[0].answer == meta["gold"]
        assert strip_timestamps(trace_to_jsonl(runs[1].trace)) == strip_timestamps(trace_to_jsonl(runs[0].trace))

    @pytest.mark.parametrize("bad", ["sideways", None, 5, "OUTGOING"])
    def test_other_direction_degrades_the_explore(self, bad):
        meta = load_meta("happy_path")
        engine = build_engine("happy_path")
        engine.kg = RedirectedStore(engine.kg, lambda direction: bad)
        result = engine.run(meta["question"], meta["topic_entities"])
        assert isinstance(result.answer, str)
        assert result.error_note.startswith("exploration failed: direction of ")
        assert f"is {bad!r}, not 'outgoing' or 'incoming'" in result.error_note
        assert_trace_grammar(result.trace)


def _down(prompt):
    raise BackendUnavailable("down")


class TestDegradedPaths:
    def test_malformed_decompose_degrades_to_unknown(self):
        store, entities = random_kg(random.Random(1))
        engine = Engine(
            backend=StageBackend({"decompose": "not a plan"}),
            kg=store,
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", [entities[0]])
        assert result.answer == "unknown"
        assert "decomposition failed" in result.error_note
        assert [e.stage.value for e in result.trace] == ["decompose", "finish"]

    def test_no_frontier_degrades(self):
        engine = Engine(
            backend=StageBackend({"extract": "ENTITY: nowhere"}),
            kg=make_store([]),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", [])
        assert result.answer == "unknown"
        assert "no frontier" in result.error_note

    def test_a_relation_label_names_no_topic_entity(self):
        # "capital" labels the relation location.country.capital, no entity to explore from
        engine = Engine(
            backend=StageBackend({"extract": "ENTITY: capital"}),
            kg=load_memory_store(FIXTURES / "happy_path" / "kg.tsv"),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("What is the capital of Egypt?", [])
        assert "no frontier" in result.error_note
        assert Stage.ACT not in [e.stage for e in result.trace]

    def test_empty_frontier_neighborhood_replans_then_finishes(self):
        # an isolated topic entity yields empty observations forever
        store = make_store([("a", "r", "b")])
        engine = Engine(
            backend=StageBackend(),
            kg=store,
            embedder=HashingEmbedder(),
            config=EngineConfig(replan_limit=2),
        )
        result = engine.run("q?", ["isolated"])
        assert result.trace[-1].stage is Stage.FINISH
        assert len(events_by_stage(result.trace, "replan")) == 2
        assert result.answer == "unknown"

    def test_pruning_failure_abandons_attempt_not_run(self):
        class Broken:
            def embed(self, texts):
                raise RuntimeError("embedder down")

        store, entities = random_kg(random.Random(2))
        engine = Engine(
            backend=StageBackend(),
            kg=store,
            embedder=Broken(),
            config=EngineConfig(),
        )
        result = engine.run("q?", [entities[0]])
        assert result.trace[-1].stage is Stage.FINISH
        observe = events_by_stage(result.trace, "observe")[0]
        assert "pruning unavailable" in observe.payload["observation"]["rationale"]

    def test_kg_failure_degrades_with_note(self):
        from kgqa_engine.errors import KgUnavailable

        class FlakyStore:
            def neighbors(self, entity):
                raise KgUnavailable("endpoint down")

            def label(self, x):
                return None

        engine = Engine(
            backend=StageBackend(),
            kg=FlakyStore(),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", ["e0"])
        assert result.answer == "unknown"
        assert "exploration failed" in result.error_note

    def test_non_string_label_never_reaches_the_answer(self):
        # the label stops the first explore, before a step can accept a
        # triple whose tail label a failed think would make the answer
        store = make_store([("a", "r", "b"), ("b", "r2", "c")])
        store.label = lambda entity_or_relation: 5
        thoughts = iter(["Noted the outcome; continuing.", None])
        backend = StageBackend({
            "decompose": "STEP: first hop | b\nSTEP: second hop | c",
            "think": lambda prompt: next(thoughts),
        })
        result = Engine(backend, store, HashingEmbedder(), EngineConfig()).run("q?", ["a"])
        assert result.answer == "unknown"
        assert result.error_note == "exploration failed: label of 'a' is int, not str"

    @pytest.mark.parametrize(
        "stage, note",
        [
            ("predict", "predict failed: down"),
            ("select", "exploration failed: down"),
            ("classify", "error-signal classification failed: down"),
            ("think", "think failed: down"),
            ("evaluate", "evaluate failed: down"),
        ],
    )
    def test_backend_down_at_stage(self, stage, note):
        engine = Engine(
            backend=StageBackend({stage: _down}),
            kg=make_store([("a", "r", "b")]),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", ["a"])
        assert result.trace[-1].stage is Stage.FINISH
        assert result.trace[-1].payload["note"] == note
        assert result.error_note == note

    @pytest.mark.parametrize(
        "stage, fault, note",
        [
            ("predict", "RuntimeError", "predict failed: backend failed: RuntimeError('injected')"),
            ("evaluate", "KeyError", "evaluate failed: backend failed: KeyError('injected')"),
            ("think", "None", "think failed: backend returned NoneType, not str"),
            ("predict", "int", "predict failed: backend returned int, not str"),
        ],
    )
    def test_faulty_backend_degrades_once(self, stage, fault, note):
        backend = StageBackend({stage: FaultAt(None, 0, fault)})
        engine = Engine(backend, make_store([("a", "r", "b")]), HashingEmbedder(), EngineConfig())
        assert engine.run("q?", ["a"]).error_note == note
        assert [s for s, _ in backend.calls].count(stage) == 1  # not retried

    @pytest.mark.parametrize(
        "fault, note",
        [
            ("RuntimeError", "graph store failed: RuntimeError('injected')"),
            ("None", "graph store failed: TypeError(\"'NoneType' object is not iterable\")"),
            ("1-tuple", "graph store failed: ValueError('not enough values to unpack"),
        ],
    )
    def test_faulty_graph_store_degrades(self, fault, note):
        store = make_store([("a", "r", "b")])
        store.neighbors = FaultAt(store.neighbors, 0, fault)
        result = Engine(StageBackend(), store, HashingEmbedder(), EngineConfig()).run("q?", ["a"])
        assert result.error_note.startswith(f"exploration failed: {note}")

    def test_unparseable_re_decomposition(self):
        plans = iter([StageBackend.DEFAULTS["decompose"]])
        engine = Engine(
            backend=StageBackend(
                {
                    "decompose": lambda prompt: next(plans, "not a plan"),
                    "evaluate": "DECISION: Replan\nRATIONALE: wrong direction",
                }
            ),
            kg=make_store([("a", "r", "b")]),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )
        result = engine.run("q?", ["a"])
        assert [e.stage.value for e in result.trace][-3:] == ["replan", "decompose", "finish"]
        assert result.trace[-1].payload["note"] == "re-decomposition failed: backend output unparseable"
        assert result.error_note == "re-decomposition failed: backend output unparseable"

    def test_select_index_too_long_for_int_falls_back(self, tmp_path, capsys):
        engine = build_engine("happy_path")
        records = json.loads((FIXTURES / "happy_path" / "script.json").read_text())
        first_select = next(r for r in records if r["expect_stage"] == "select")
        first_select["response"] = "CHOICE: " + "7" * 4301
        engine.backend = ScriptedBackend(records)
        meta = load_meta("happy_path")
        result = engine.run(meta["question"], meta["topic_entities"])
        assert result.trace[-1].stage is Stage.FINISH
        assert result.error_note is None
        assert result.answer
        assert "fallback" in events_by_stage(result.trace, "observe")[0].payload["observation"]["rationale"]
        trace = write_trace(result.trace, tmp_path, "run")
        code = main(["replay", "--trace", trace, "--kg-file", str(FIXTURES / "happy_path" / "kg.tsv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.strip() == result.answer


def _observed(trace, field):
    return [e.payload["observation"][field] for e in events_by_stage(trace, "observe")]


# field -> (non-default value, backend responses, what only that value makes true)
BUDGET_EFFECTS = {
    "parse_retries": (0, {"decompose": "not a plan"}, lambda trace, calls: len(calls) == 1),
    "context_chain_limit": (
        0,
        {"decompose": "STEP: a | b\nSTEP: c | d"},
        lambda trace, calls: not any("Accepted knowledge:" in prompt for _, prompt in calls),
    ),
    "expand_unlabeled": (
        True, {}, lambda trace, calls: ("a", "r1/r2", "b", "outgoing") in _observed(trace, "candidates")[0]
    ),
    "prune_threshold": (1, {}, lambda trace, calls: _observed(trace, "candidates_after_pruning")[0] == 1),
    "max_path_corrections": (
        1,
        {"evaluate": "DECISION: PathCorrect"},
        lambda trace, calls: "path-correction budget spent (1); replanning"
        in [e.payload["rationale"] for e in events_by_stage(trace, "evaluate")],
    ),
    "replan_limit": (
        1, {"evaluate": "DECISION: Replan"}, lambda trace, calls: len(events_by_stage(trace, "replan")) == 1
    ),
}


class TestConfigReachesRun:
    @pytest.mark.parametrize("field", BUDGET_EFFECTS)
    def test_budget_set_on_engine_config_changes_the_run(self, field):
        value, responses, effect = BUDGET_EFFECTS[field]
        # m is an unlabeled mediator between a and b
        store = make_store(
            [("a", "r1", "m"), ("m", "r2", "b"), ("a", "r3", "c"), ("b", "r4", "d")],
            labels={"a": "Alpha", "b": "Bravo", "c": "Charlie", "d": "Delta"},
        )

        def effect_seen(config):
            backend = StageBackend(responses)
            engine = Engine(backend=backend, kg=store, embedder=HashingEmbedder(), config=config)
            return effect(engine.run("q?", ["a"]).trace, backend.calls)

        assert effect_seen(EngineConfig(**{field: value}))
        assert not effect_seen(EngineConfig())


class TestProceedPastFinalStep:
    def test_forced_finish_with_synthesis(self):
        store = make_store(
            [("a", "r1", "b")], labels={"a": "Alpha", "b": "Bravo", "r1": "rel"}
        )
        backend = StageBackend(
            {
                "decompose": "STEP: only step | the single step",
                "evaluate": "DECISION: Proceed\nRATIONALE: done",
                "answer": "ANSWER: Bravo",
            }
        )
        engine = Engine(backend=backend, kg=store, embedder=HashingEmbedder(), config=EngineConfig())
        result = engine.run("q?", ["a"])
        assert result.answer == "Bravo"
        assert result.cycles == 1
