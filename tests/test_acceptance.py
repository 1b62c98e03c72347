"""Release gate: one test per shipping criterion, one PASS/FAIL line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion summary lines.  Everything here runs offline against the
scripted backend, hashing embedder, and in-memory store, except two
criteria: SPARQL adapter equivalence also queries a loopback SPARQL
endpoint (conftest's ``TemplateStub``), and the final end-to-end check is
skipped unless real endpoints are configured in the environment.
"""

import json
import os
import random
import string
import time
from functools import lru_cache

import pytest

from kgqa_engine.config import EngineConfig
from kgqa_engine.executor import Executor
from kgqa_engine.harness import evaluate_run, exact_match, load_dataset, normalize_answer
from kgqa_engine.memory import IntegratedMemory, PlanStep
from kgqa_engine.orchestrator import Engine, Stage, trace_to_jsonl
from kgqa_engine.pruning import HashingEmbedder, prune
from kgqa_engine.triples import CandidateTriple, Direction

from conftest import StageBackend, TemplateEndpoint, TemplateStub, make_sparql_store, make_store, serving
from scenarios import (
    SCENARIOS,
    golden_trace,
    load_meta,
    run_scenario,
    strip_timestamps,
)
from test_orchestrator import (
    ADVERSARIAL_MODES,
    adversarial_backend,
    assert_budgets,
    random_kg,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- shared run corpora (computed once, reused by the budget criterion) ------


@lru_cache(maxsize=1)
def scenario_runs():
    return {name: run_scenario(name) for name in SCENARIOS}


@lru_cache(maxsize=1)
def adversarial_runs():
    """200 runs: ~67 per adversarial mode over fresh random 50-entity KGs."""
    runs = []
    trial = 0
    while len(runs) < 200:
        mode = ADVERSARIAL_MODES[trial % len(ADVERSARIAL_MODES)]
        rng = random.Random(trial)
        store, entities = random_kg(rng)
        config = EngineConfig()
        engine = Engine(
            backend=adversarial_backend(rng, mode),
            kg=store,
            embedder=HashingEmbedder(),
            config=config,
        )
        runs.append((engine.run("adversarial question?", [rng.choice(entities)]), config))
        trial += 1
    return runs


def test_criterion_scenarios():
    """Hand-authored scenarios: gold answers, golden traces, under 1 s."""
    start = time.perf_counter()
    for name, result in scenario_runs().items():
        assert result.trace[-1].stage is Stage.FINISH
        assert result.answer == load_meta(name)["gold"]
        assert strip_timestamps(trace_to_jsonl(result.trace)) == strip_timestamps(
            golden_trace(name)
        )
    elapsed = time.perf_counter() - start
    report("scenario suite (gold answers + golden traces)", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_adversarial_termination():
    """200 adversarial-backend runs all halt with Finish, under 30 s."""
    start = time.perf_counter()
    runs = adversarial_runs()
    elapsed = time.perf_counter() - start
    ok = all(
        result.trace[-1].stage is Stage.FINISH and result.cycles <= config.max_total_cycles
        for result, config in runs
    )
    report(
        "termination under adversarial backends",
        ok and len(runs) == 200 and elapsed < 30.0,
        f"200 runs in {elapsed:.1f}s",
    )


def test_criterion_budget_invariants():
    """Replan and path-correction budgets hold in every collected trace."""
    violations = 0
    corpus = [(r.trace, EngineConfig(**load_meta(n)["config"])) for n, r in scenario_runs().items()]
    corpus += [(result.trace, config) for result, config in adversarial_runs()]
    for trace, config in corpus:
        try:
            assert_budgets(trace, config)
        except AssertionError:
            violations += 1
    report("budget invariants", violations == 0, f"{len(corpus)} traces, {violations} violations")


def oracle_top_t(candidates, objective, threshold, embedder):
    """Reference pruning: score everything, full sort, slice."""
    import math

    vectors = embedder.embed([objective] + [c.render() for c in candidates])
    obj = vectors[0]
    norm_obj = math.sqrt(sum(x * x for x in obj))
    scored = []
    for cand, vec in zip(candidates, vectors[1:]):
        dot = sum(a * b for a, b in zip(obj, vec))
        norm = math.sqrt(sum(x * x for x in vec))
        score = max(-1.0, min(1.0, dot / (norm_obj * norm)))
        scored.append((score, cand))
    if len(scored) <= threshold:
        return {c.key() for _, c in scored}
    scored.sort(key=lambda sc: (-sc[0], sc[1].render(), sc[1].key()))
    return {c.key() for _, c in scored[:threshold]}


def test_criterion_pruning_oracle():
    """1,000 randomized pruning instances match the full-sort oracle, <10 s."""
    rng = random.Random(4)
    vocab = [f"word{i}" for i in range(30)]
    embedder = HashingEmbedder()
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(1, 501)
        candidates = [
            CandidateTriple(
                head=f"m.0h{i}",
                relation=f"rel.{rng.choice(vocab)}",
                tail=f"m.0t{rng.randrange(n)}",
                direction=rng.choice([Direction.OUTGOING, Direction.INCOMING]),
                head_label=rng.choice(vocab),
                tail_label=f"{rng.choice(vocab)} {rng.choice(vocab)}",
            )
            for i in range(n)
        ]
        threshold = rng.choice([1, 5, 70])
        objective = f"find the {rng.choice(vocab)} of {rng.choice(vocab)}"
        kept = prune(list(candidates), objective, threshold, embedder)
        if len(kept) != min(n, threshold):
            mismatches += 1
            continue
        if {c.key() for c in kept} != oracle_top_t(candidates, objective, threshold, embedder):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "pruning oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"1000 instances in {elapsed:.1f}s, {mismatches} mismatches",
    )


def test_criterion_failed_path_avoidance():
    """A marked-failed triple never reappears for the same step; 500 cases."""
    rng = random.Random(5)
    violations = 0
    for _ in range(500):
        store, entities = random_kg(rng, n_entities=12)
        frontier = rng.choice(entities)
        if not store.neighbors(frontier):
            continue
        memory = IntegratedMemory.new("q?", [frontier])
        step = PlanStep(index=0, objective="pick any edge", description="")
        memory.install_plan([step])
        executor = Executor(store, HashingEmbedder(), StageBackend(), EngineConfig(prune_threshold=5))
        first = executor.explore(frontier, step, memory)
        if first.chosen is None:
            continue
        memory.mark_failed_path(first.chosen)
        second = executor.explore(frontier, step, memory)
        if first.chosen.key() in {c.key() for c in second.candidates}:
            violations += 1
        if second.chosen is not None and second.chosen.key() == first.chosen.key():
            violations += 1
    report("failed-path avoidance", violations == 0, f"500 cases, {violations} violations")


def test_criterion_knowledge_monotonicity():
    """Explored-triple sets only grow across every replan boundary."""
    violations = 0
    checked = 0
    corpus = [r for r in scenario_runs().values()]
    corpus += [result for result, _ in adversarial_runs()]
    for result in corpus:
        snapshots = [
            {tuple(t) for t in e.payload["explored_triples"]}
            for e in result.trace
            if e.stage.value in ("replan", "finish")
        ]
        for before, after in zip(snapshots, snapshots[1:]):
            checked += 1
            if not before <= after:
                violations += 1
    report(
        "knowledge monotonicity across replan",
        checked > 0 and violations == 0,
        f"{checked} boundaries, {violations} violations",
    )


# -- criterion: SPARQL adapter equivalence ------------------------------------


def test_criterion_adapter_equivalence():
    """In-memory and SPARQL adapters agree on 20 random triple files."""
    rng = random.Random(6)
    mismatches = 0
    with serving(TemplateStub) as port:
        endpoint = f"http://127.0.0.1:{port}/sparql"
        for _ in range(20):
            entities = [f"m.0{''.join(rng.choices(string.ascii_lowercase, k=4))}" for _ in range(10)]
            triples = []
            for _ in range(25):
                head, tail = rng.sample(entities, 2)
                triples.append((head, f"base.rel{rng.randrange(6)}", tail))
            labels = {e: f"Entity {e[-4:]}" for e in rng.sample(entities, 5)}
            TemplateStub.endpoint = TemplateEndpoint(triples, {e: [text] for e, text in labels.items()})
            memory_store = make_store(triples, labels)
            # a fresh store answers label() by a batched query for that id (cache miss)
            fresh_store = make_sparql_store(endpoint, http_retries=0, http_timeout=5)
            for entity in entities:
                if memory_store.label(entity) != fresh_store.label(entity):
                    mismatches += 1
            # this one answers label() from what neighbors() batched (cache hit)
            sparql_store = make_sparql_store(endpoint, http_retries=0, http_timeout=5)
            for entity in entities:
                if memory_store.neighbors(entity) != sparql_store.neighbors(entity):
                    mismatches += 1
                if memory_store.label(entity) != sparql_store.label(entity):
                    mismatches += 1
    report("SPARQL adapter equivalence", mismatches == 0, f"20 files, {mismatches} mismatches")


def test_criterion_metric_correctness():
    """exact_match vs an independent normalizer; aggregate = mean of hits."""

    def oracle_normalize(text):
        s = text.strip()
        while len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
            s = s[1:-1].strip()
        return " ".join(s.split()).lower()

    rng = random.Random(7)
    alphabet = " \t\"'abcdefXYZ09 --"
    disagreements = 0
    hits = []
    for _ in range(1000):
        prediction = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
        golds = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
            for _ in range(rng.randrange(1, 3))
        ]
        if rng.random() < 0.3:  # force some hits through decoration
            golds.append(f'  "{prediction.upper()}" ')
        hit = exact_match(prediction, golds)
        oracle_hit = int(any(oracle_normalize(prediction) == oracle_normalize(g) for g in golds))
        if hit != oracle_hit:
            disagreements += 1
        if normalize_answer(prediction) != oracle_normalize(prediction):
            disagreements += 1
        hits.append(hit)
    # aggregate check against the real harness on a real mini-run
    dataset = [
        {"id": f"q{i}", "question": "q?", "topic_entities": [{"id": "e", "label": "E"}],
         "answers": [f"gold{i}"]}
        for i in range(8)
    ]
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.json")
        with open(path, "w") as fh:
            json.dump(dataset, fh)
        examples = load_dataset(path, "simple")

    def factory(example):
        answer = example.gold_answers[0] if example.id != "q3" else "wrong"
        backend = StageBackend({"evaluate": f"DECISION: Finish\nANSWER: {answer}"})
        return Engine(
            backend=backend,
            kg=make_store([("e", "r", "x")], labels={"e": "E"}),
            embedder=HashingEmbedder(),
            config=EngineConfig(),
        )

    rep = evaluate_run(examples, engine_factory=factory)
    agg_ok = abs(rep.hits_at_1 - sum(r.hit for r in rep.results) / len(rep.results)) <= 1e-12
    report(
        "metric correctness",
        disagreements == 0 and agg_ok,
        f"1000 pairs, {disagreements} disagreements",
    )


def test_criterion_determinism():
    """Scripted runs repeat byte-identically modulo timestamps."""
    ok = True
    for name in SCENARIOS:
        first, second = run_scenario(name), run_scenario(name)
        if first.answer != second.answer:
            ok = False
        if strip_timestamps(trace_to_jsonl(first.trace)) != strip_timestamps(
            trace_to_jsonl(second.trace)
        ):
            ok = False
    report("determinism of scripted runs", ok)


NETWORK_VARS = ("KGQA_CHAT_URL", "KGQA_SPARQL_URL", "KGQA_E2E_DATASET")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in NETWORK_VARS),
    reason="end-to-end check needs KGQA_CHAT_URL, KGQA_SPARQL_URL, KGQA_E2E_DATASET",
)
def test_criterion_end_to_end_live():
    """Live bench over real endpoints: completes with well-formed traces."""
    import tempfile

    from kgqa_engine.cli import main
    from kgqa_engine.orchestrator import load_trace_jsonl

    examples = load_dataset(os.environ["KGQA_E2E_DATASET"], "simple")[:10]
    with tempfile.TemporaryDirectory() as tmp:
        subset = os.path.join(tmp, "subset.json")
        with open(subset, "w") as fh:
            json.dump(
                [
                    {
                        "id": e.id,
                        "question": e.question,
                        "topic_entities": [{"id": i, "label": l} for i, l in e.topic_entities],
                        "answers": e.gold_answers,
                    }
                    for e in examples
                ],
                fh,
            )
        code = main(
            [
                "bench",
                "--dataset",
                subset,
                "--format",
                "simple",
                "--chat-url",
                os.environ["KGQA_CHAT_URL"],
                "--sparql-url",
                os.environ["KGQA_SPARQL_URL"],
                "--out-dir",
                tmp,
            ]
        )
        traces_ok = all(
            load_trace_jsonl(os.path.join(tmp, f"{e.id}.trace.jsonl"))[-1]["stage"] == Stage.FINISH.value
            for e in examples
        )
    report("end-to-end live bench", code in (0, 1) and traces_ok)
