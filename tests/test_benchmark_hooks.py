"""The six product names ``benchmarks/tracing.instrument`` patches still exist.

During a traced phase the benchmark patches ``executor.prune``,
``executor.load_prompt``, ``planner.load_prompt``,
``IntegratedMemory.render_context``, ``Executor.explore`` and
``kg.execute``.  ``mock.patch.object`` raises on a missing attribute, so
entering ``instrument`` here makes renaming any of them fail this suite,
not only the benchmark's own smoke test.
"""

import sys
from pathlib import Path

from kgqa_engine import executor, kg, planner
from kgqa_engine.config import EngineConfig
from kgqa_engine.executor import Executor
from kgqa_engine.memory import IntegratedMemory
from kgqa_engine.orchestrator import Engine
from kgqa_engine.pruning import HashingEmbedder

from conftest import StageBackend, make_store

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from tracing import Tracer, instrument  # noqa: E402

PATCHED = [(executor, "prune"), (executor, "load_prompt"), (planner, "load_prompt"),
           (IntegratedMemory, "render_context"), (Executor, "explore"), (kg, "execute")]


def test_instrument_patches_the_names_a_run_goes_through():
    before = [getattr(owner, name) for owner, name in PATCHED]
    tracer = Tracer()
    store = make_store([("a", "r1", "b"), ("b", "r2", "c")], {"a": "Alpha", "b": "Bravo", "c": "Charlie"})
    with instrument(tracer):
        assert all(getattr(owner, name) is not old for (owner, name), old in zip(PATCHED, before))
        result = Engine(StageBackend(), store, HashingEmbedder(), EngineConfig()).run("q?", ["a"])
    assert result.error_note is None
    spans = tracer.per_name()
    for span in ("executor.explore", "pruning.prune", "planner.load_prompt", "memory.render_context"):
        assert spans[span]["count"] > 0, span
    assert [getattr(owner, name) for owner, name in PATCHED] == before
