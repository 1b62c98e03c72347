"""Scenario fixture loading and trace comparison helpers."""

from __future__ import annotations

import json
import re
from pathlib import Path

from kgqa_engine.backends import ScriptedBackend
from kgqa_engine.config import EngineConfig
from kgqa_engine.kg import load_memory_store
from kgqa_engine.orchestrator import Engine

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = ("happy_path", "path_fix", "replan")

_TS = re.compile(r'"timestamp": [0-9.e+-]+')


def load_meta(name: str) -> dict:
    return json.loads((FIXTURES / name / "meta.json").read_text())


def build_engine(name: str) -> Engine:
    from kgqa_engine.pruning import HashingEmbedder

    meta = load_meta(name)
    return Engine(
        backend=ScriptedBackend.from_file(FIXTURES / name / "script.json"),
        kg=load_memory_store(FIXTURES / name / "kg.tsv"),
        embedder=HashingEmbedder(),
        config=EngineConfig(**meta["config"]),
    )


def run_scenario(name: str):
    meta = load_meta(name)
    return build_engine(name).run(meta["question"], meta["topic_entities"])


def strip_timestamps(jsonl: str) -> str:
    return _TS.sub('"timestamp": 0', jsonl)


def golden_trace(name: str) -> str:
    return (FIXTURES / name / "trace.golden.jsonl").read_text()


def events_by_stage(trace, stage: str):
    return [e for e in trace if e.stage.value == stage]
