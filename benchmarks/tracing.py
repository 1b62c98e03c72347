"""In-memory span tracing at the engine's layer boundaries, from outside ``src/``.

A span is (name, start, end, parent, question id).  Spans live in flat
arrays while the traced phase runs and are written out once it ends.  The
boundaries are the objects handed to ``Engine`` (graph store, embedder,
reasoning backend) plus module functions and methods patched for the
duration of the phase: ``executor.prune``, ``load_prompt`` as the planner
and executor see it, ``IntegratedMemory.render_context``,
``Executor.explore`` and ``kg.execute`` (one SPARQL HTTP request).
The benchmark wraps its own ``trace_to_jsonl`` call and each question.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter_ns
from unittest import mock

from kgqa_engine import executor as executor_mod
from kgqa_engine import kg as kg_mod
from kgqa_engine import planner as planner_mod
from kgqa_engine.executor import Executor
from kgqa_engine.memory import IntegratedMemory

BACKEND_STAGES = ("decompose", "predict", "select", "classify", "think", "evaluate", "answer")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.question = array("l")
        self.counts: Counter = Counter()
        self.current_question = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``, nested under the open span."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.question.append(self.current_question)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter_ns()
            self._stack.pop()

    def per_name(self) -> dict[str, dict]:
        """Count, inclusive time and self time (ns) per span name.

        Spans nest strictly (one thread), so a span's self time is its
        duration minus the durations of its direct children.
        """
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"count": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            agg["count"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += dur - child[i]
        return out

    def durations_ms(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [
            (self.end[i] - self.start[i]) / 1e6 for i in range(len(self.name)) if self.name[i] == nid
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,question\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.question[i]}\n"
                )


class TracedGraphStore:
    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def neighbors(self, entity):
        return self.tracer.call("kg.neighbors", self.inner.neighbors, entity)

    def label(self, entity_or_relation):
        return self.tracer.call("kg.label", self.inner.label, entity_or_relation)


class TracedEmbedder:
    """Sits inside the engine's per-run CachingEmbedder: sees only cache misses."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def embed(self, texts):
        self.tracer.counts["embed.texts"] += len(texts)
        return self.tracer.call("embedder.embed", self.inner.embed, texts)


class TracedBackend:
    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def complete(self, prompt, stage):
        self.tracer.counts[f"backend.calls.{stage}"] += 1
        self.tracer.counts["backend.calls"] += 1
        self.tracer.counts["backend.prompt_chars"] += len(prompt)
        return self.tracer.call("backend.complete", self.inner.complete, prompt, stage)


@contextmanager
def instrument(tracer: Tracer):
    """Patch the module-level layer boundaries for the duration of the block."""
    prune, load_prompt = executor_mod.prune, planner_mod.load_prompt
    render, explore, execute = IntegratedMemory.render_context, Executor.explore, kg_mod.execute
    counts = tracer.counts

    def traced_prune(candidates, objective, threshold, embedder):
        kept = tracer.call("pruning.prune", prune, candidates, objective, threshold, embedder)
        counts["prune.in"] += len(candidates)
        counts["prune.out"] += len(kept)
        return kept

    def traced_load_prompt(stage):
        return tracer.call("planner.load_prompt", load_prompt, stage)

    def traced_render(self, audience):
        text = tracer.call("memory.render_context", render, self, audience)
        counts["render.chars"] += len(text)
        return text

    def traced_explore(self, frontier, step, memory):
        observation = tracer.call("executor.explore", explore, self, frontier, step, memory)
        counts["explore.candidates"] += observation.candidates_total
        return observation

    def traced_execute(*args, **kwargs):
        return tracer.call("kg.http", execute, *args, **kwargs)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(executor_mod, "prune", traced_prune))
        stack.enter_context(mock.patch.object(executor_mod, "load_prompt", traced_load_prompt))
        stack.enter_context(mock.patch.object(planner_mod, "load_prompt", traced_load_prompt))
        stack.enter_context(mock.patch.object(IntegratedMemory, "render_context", traced_render))
        stack.enter_context(mock.patch.object(Executor, "explore", traced_explore))
        stack.enter_context(mock.patch.object(kg_mod, "execute", traced_execute))
        yield


def layer_metrics(tracer: Tracer, *, questions: int, cycles: int, replans: int,
                  trace_bytes: int, http_requests: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced phase."""
    spans = tracer.per_name()
    counts = tracer.counts

    def total(name):
        return spans.get(name, {}).get("total_ns", 0)

    def self_ns(name):
        return spans.get(name, {}).get("self_ns", 0)

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    wall = total("question")
    prune_calls = calls("pruning.prune")
    http = tracer.durations_ms("kg.http")
    prune_requested = counts["prune.in"] + prune_calls  # each call embeds the objective too
    metrics = {
        "kg.neighbors_calls_per_cycle": (ratio(calls("kg.neighbors"), cycles), "count"),
        "kg.label_calls_per_cycle": (ratio(calls("kg.label"), cycles), "count"),
        "kg.time_share": (ratio(total("kg.neighbors") + total("kg.label"), wall), "frac"),
        "kg.http_requests_per_cycle": (ratio(http_requests, cycles), "count"),
        "kg.http_ms_p50": (statistics.median(http) if http else 0.0, "ms"),
        "pruning.time_share": (ratio(total("pruning.prune"), wall), "frac"),
        "pruning.candidates_in_per_call": (ratio(counts["prune.in"], prune_calls), "count"),
        "pruning.kept_ratio": (ratio(counts["prune.out"], counts["prune.in"]), "frac"),
        "pruning.embed_texts_per_call": (ratio(counts["embed.texts"], prune_calls), "count"),
        "pruning.embed_cache_hit_ratio": (
            1.0 - ratio(counts["embed.texts"], prune_requested) if prune_requested else 0.0,
            "frac",
        ),
        "executor.explore_self_share": (ratio(self_ns("executor.explore"), wall), "frac"),
        "executor.candidates_per_explore": (
            ratio(counts["explore.candidates"], calls("executor.explore")), "count"
        ),
        "planner.load_prompt_share": (ratio(total("planner.load_prompt"), wall), "frac"),
        "memory.render_calls_per_cycle": (ratio(calls("memory.render_context"), cycles), "count"),
        "memory.render_time_share": (ratio(total("memory.render_context"), wall), "frac"),
        "memory.render_kchars_per_call": (
            ratio(counts["render.chars"], calls("memory.render_context")) / 1000, "kchar"
        ),
        "backends.calls_per_cycle": (ratio(counts["backend.calls"], cycles), "count"),
    }
    for stage in BACKEND_STAGES:
        metrics[f"backends.calls_per_cycle.{stage}"] = (
            ratio(counts[f"backend.calls.{stage}"], cycles), "count"
        )
    metrics.update({
        "backends.sim_time_share": (ratio(self_ns("backend.complete"), wall), "frac"),
        "backends.prompt_kchars_per_call": (
            ratio(counts["backend.prompt_chars"], counts["backend.calls"]) / 1000, "kchar"
        ),
        "orchestrator.cycles_per_question": (ratio(cycles, questions), "count"),
        "orchestrator.replans_per_question": (ratio(replans, questions), "count"),
        "orchestrator.self_share": (ratio(self_ns("question"), wall), "frac"),
        "orchestrator.trace_serialize_share": (
            ratio(total("orchestrator.trace_to_jsonl"), wall), "frac"
        ),
        "orchestrator.trace_kbytes_per_question": (ratio(trace_bytes, questions) / 1000, "kB"),
    })
    return metrics
