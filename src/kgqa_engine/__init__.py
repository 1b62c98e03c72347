"""Self-correcting planner/executor agent for knowledge-graph QA.

The engine decomposes a question into a plan, walks the graph one
predict/act/observe/think cycle at a time, and corrects itself on two
levels: retrying a step along a different path, or abandoning the plan
and re-decomposing from the knowledge gathered so far.
"""

from .config import EngineConfig
from .harness import QaExample, Report, evaluate_run, exact_match, load_dataset
from .kg import InMemoryGraphStore, SparqlGraphStore, load_memory_store
from .memory import IntegratedMemory
from .orchestrator import Engine, RunResult, TraceEvent
from .pruning import HashingEmbedder, cosine_similarity, prune

__all__ = [
    "Engine",
    "EngineConfig",
    "HashingEmbedder",
    "InMemoryGraphStore",
    "IntegratedMemory",
    "QaExample",
    "Report",
    "RunResult",
    "SparqlGraphStore",
    "TraceEvent",
    "cosine_similarity",
    "evaluate_run",
    "exact_match",
    "load_dataset",
    "load_memory_store",
    "prune",
]
