"""Trace fingerprints of three benchmark workloads, pinned.

``hub_inmem`` expands CVT mediators and prunes at every hop;
``self_correct`` runs path corrections and a coerced Replan; ``sparql_rtt``
walks two hops unpruned, so neighbour order alone sets the candidate order.
Forty seed-7 questions of each are generated with ``benchmarks/workloads.py``,
run on one shared Engine over an ``InMemoryGraphStore`` (``sparql_rtt``
too, as the benchmark replays it) with the benchmark's ``PromptPolicy``, and
the sha256 of their concatenated traces, timestamps removed, must match the
digest pinned here.  A change that means to keep traces byte for byte keeps these digests.

Re-pin a digest only when a change means to alter traces, or when
``benchmarks/workloads.py`` or ``benchmarks/policy.py`` changes.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from kgqa_engine.config import EngineConfig
from kgqa_engine.harness import load_dataset
from kgqa_engine.kg import load_memory_store
from kgqa_engine.orchestrator import Engine, trace_to_jsonl
from kgqa_engine.pruning import HashingEmbedder

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from policy import PromptPolicy  # noqa: E402
from workloads import generate, load_params, write  # noqa: E402

PINNED = {
    "hub_inmem": "1aea16f4eadad5057691980078d711988a2986ee0c709e8b9664dea3cfcec7bb",
    "self_correct": "721af5b9fa974c50dc04d6d446c277056a140fcdf793b696d47ff6068186b12d",
    "sparql_rtt": "e37ee0d3b94cd17b2ffecaf5fa0096861dd9b948fa509731520987972fe96fd1",
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_traces_match_pinned_digest(workload, tmp_path):
    params = load_params()[workload]
    write(tmp_path, *generate(params, 7, questions=40))
    engine = Engine(
        PromptPolicy(params["policy"]),
        load_memory_store(tmp_path / "graph.tsv"),
        HashingEmbedder(),
        EngineConfig(**params["engine_config"]),
    )
    digest = hashlib.sha256()
    for example in load_dataset(tmp_path / "questions.json"):
        run = engine.run(example.question, [eid for eid, _ in example.topic_entities])
        digest.update(re.sub(r'"timestamp": [0-9.e+-]+', "", trace_to_jsonl(run.trace)).encode())
    assert digest.hexdigest() == PINNED[workload]
