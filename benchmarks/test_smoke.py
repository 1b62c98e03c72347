"""Smoke test of the benchmark itself.

Every workload at a tiny size passes the correctness gate, and the gate
fires when the simulated backend picks a wrong candidate.  The command-line
contract (last stdout line, metric names) is checked on the fastest
workload.  Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from kgqa_engine.errors import KgUnavailable
from kgqa_engine.harness import load_dataset
from kgqa_engine.kg import execute, load_memory_store
from policy import PromptPolicy
from workloads import generate, load_params, write

HERE = Path(__file__).resolve().parent
WORKLOADS = sorted(load_params())
TINY_QUESTIONS = 6


def run_tiny(workload: str, mode: str, tmp_path: Path):
    params = load_params()[workload]
    write(tmp_path, *generate(params, 7, nodes=20, questions=TINY_QUESTIONS))
    tsv = tmp_path / "graph.tsv"
    examples = load_dataset(tmp_path / "questions.json")
    sparql = params["store"] == "sparql"
    with run.graph_endpoint(params, tsv) as (endpoint, stats):
        engine = run.set_up(params, tsv, endpoint, PromptPolicy(mode))
        phase, _ = run.drive(engine, examples, 0, 0.0, min_questions=len(examples),
                             stats=stats, keep_fingerprints=sparql)
        replayed = []
        if sparql:
            replayed = run.replay_in_memory(params, tsv, engine.config, examples,
                                            phase.fingerprints)
    return phase, replayed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_silent_on_planted_path(workload, tmp_path):
    phase, replayed = run_tiny(workload, load_params()[workload]["policy"], tmp_path)
    assert phase.problems == []
    assert replayed == []
    assert phase.hits == phase.questions == TINY_QUESTIONS
    assert phase.failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fires_on_wrong_candidate(workload, tmp_path):
    phase, _ = run_tiny(workload, "sabotage", tmp_path)
    # a wrong turn in a 20-node graph can still end on the gold node
    assert phase.hits + len(phase.problems) == TINY_QUESTIONS
    assert len(phase.problems) > TINY_QUESTIONS // 2
    assert all("answer" in p or "error note" in p for p in phase.problems)


def test_replay_flags_a_diverging_trace(tmp_path):
    params = load_params()["sparql_rtt"]
    write(tmp_path, *generate(params, 7, nodes=20, questions=2))
    examples = load_dataset(tmp_path / "questions.json")
    unused_endpoint = "http://127.0.0.1:9/sparql"  # the replay only reads the in-memory store
    engine = run.set_up(params, tmp_path / "graph.tsv", unused_endpoint, PromptPolicy("direct"))
    problems = run.replay_in_memory(params, tmp_path / "graph.tsv", engine.config, examples,
                                    {0: "0" * 64})
    assert len(problems) == 1 and "differs" in problems[0]


def test_simulator_answers_batched_and_joined_queries(tmp_path):
    """The round-trip-saving query shapes work, and are charged per row."""
    write(tmp_path, *generate(load_params()["sparql_rtt"], 7, nodes=20, questions=2))
    store = load_memory_store(tmp_path / "graph.tsv")
    prefix = "PREFIX ns: <http://rdf.freebase.com/ns/>\n"
    batched = prefix + (
        "SELECT ?e ?label WHERE { VALUES ?e { ns:m.0n1 ns:m.0n2 ns:m.0l5 } "
        "?e ns:type.object.name ?label }"
    )
    joined = prefix + (
        "SELECT ?relation ?tail ?label WHERE { ns:m.0n3 ?relation ?tail . "
        "OPTIONAL { ?tail ns:type.object.name ?label } } LIMIT 200"
    )
    both_ways = prefix + (
        "SELECT DISTINCT ?relation ?other ?to WHERE { "
        "{ ns:m.0n3 ?relation ?other . VALUES ?to { \"outgoing\" } } UNION "
        "{ ?other ?relation ns:m.0n3 . VALUES ?to { \"incoming\" } } }"
    )
    with run.simulator(tmp_path / "graph.tsv", 0.0, 1.0) as (endpoint, stats):
        rows = execute(endpoint, batched)
        assert {r["e"].rsplit("/", 1)[1]: r["label"] for r in rows} == {
            e: store.label(e) for e in ("m.0n1", "m.0n2", "m.0l5")
        }
        rows = execute(endpoint, joined)
        outgoing = [(r, t) for r, t, d in store.neighbors("m.0n3") if d.value == "outgoing"]
        assert sorted((r["relation"].rsplit("/", 1)[1], r["tail"].rsplit("/", 1)[1])
                      for r in rows) == sorted(outgoing)
        assert all(r["label"] == store.label(r["tail"].rsplit("/", 1)[1]) for r in rows)
        rows = execute(endpoint, both_ways)
        assert sorted((r["relation"].rsplit("/", 1)[1], r["other"].rsplit("/", 1)[1],
                       r["to"]) for r in rows) == sorted(
            (r, e, d.value) for r, e, d in store.neighbors("m.0n3"))
        with pytest.raises(KgUnavailable):
            execute(endpoint, prefix + "SELECT ?a WHERE { ?a ?b ?c }", retries=0)
        counters = stats()
    assert counters["requests"] == 4
    assert counters["rows"] == 3 + len(outgoing) + len(store.neighbors("m.0n3"))
    assert counters["delay_s"] == pytest.approx(counters["rows"] / 1000)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_line_contract(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "self_correct", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
