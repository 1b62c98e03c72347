"""Offline, seeded benchmark of the engine's plan/act/observe/reflect loop.

Run from the repository root:

    python3 benchmarks/run.py --workload hub_inmem --seed 1 --seconds 30 --trace 0

One client drives ``Engine.run`` closed-loop, one question at a time, the
way ``kgqa bench`` runs with concurrency 1, and serialises each trace with
``trace_to_jsonl`` as ``kgqa bench`` does.  The workload's graph and
questions are generated from the seed in a child process (workloads.py,
parameters in workloads.json); the engine only receives the TSV file, an
endpoint URL for ``sparql_rtt`` and the questions.  The reasoning backend
is the stateless prompt-reading policy in policy.py.

Timings are scaled to a reference machine speed (calibration.py): a fixed
kernel timed after every question tracks the drift of a shared host.  On
``sparql_rtt`` the time the simulator spent serving a question's requests
is taken out before scaling and its nominal cost, the injected delay per
request and per result row, is added back: the endpoint is part of the
workload, and its own drift (it runs on the other core) is not the
engine's.  The unscaled wall-clock rate and the median kernel time are
printed too, for reference.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` spends half the time untraced and half traced (tracing.py)
and reports the per-layer metrics plus the tracing overhead; spans go to
benchmarks/out/<workload>.spans.csv.

Correctness gate: the command exits 1 if any answer differs from its
planted gold answer, any question raised or finished with an error note,
any trace breaks the budget invariants (last event FINISH, cycles within
max_total_cycles, replans within replan_limit), or, on ``sparql_rtt``, a
replay on an in-memory store over the same TSV gives another answer or
another trace once timestamps are stripped.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import requests

    from kgqa_engine.cli import build_embedder, build_kg
    from kgqa_engine.config import EngineConfig
    from kgqa_engine.harness import exact_match, load_dataset
    from kgqa_engine.kg import load_memory_store
    from kgqa_engine.orchestrator import Engine, Stage, trace_to_jsonl
except ImportError as exc:
    sys.exit(f"cannot import the engine from {ROOT / 'src'}: {exc}")

import calibration
from policy import PromptPolicy
from tracing import TracedBackend, TracedEmbedder, TracedGraphStore, Tracer, instrument, layer_metrics
from workloads import load_params

SETUP_REPEATS = 7  # at least, and for at least SETUP_MIN_S
SETUP_MIN_S = 1.0
WARMUP_QUESTIONS = 5
MIN_QUESTIONS = 100  # p90 needs at least 10 samples beyond it
_TIMESTAMP = re.compile(r'"timestamp": [0-9.e+-]+')


@dataclass
class Phase:
    """What one closed-loop phase measured and what its gate found."""

    starts: list[float] = field(default_factory=list)  # s since the phase began
    walls: list[float] = field(default_factory=list)  # per question: Engine.run + serialise
    endpoint_s: list[float] = field(default_factory=list)  # of which the simulator served
    endpoint_delay_s: list[float] = field(default_factory=list)  # its injected (nominal) delay
    kernels: list[float] = field(default_factory=list)  # calibration kernel before q0, after each
    hits: int = 0
    failed: int = 0
    cycles: int = 0
    replans: int = 0
    trace_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprints: dict[int, str] = field(default_factory=dict)  # example index -> trace digest

    @property
    def questions(self) -> int:
        return len(self.walls)

    def scaled_latencies(self) -> list[float]:
        """Engine-side time at reference speed plus the endpoint's nominal time."""
        local = [w - e for w, e in zip(self.walls, self.endpoint_s)]
        scaled = calibration.scaled_latencies(local, self.kernels)
        return [t + d for t, d in zip(scaled, self.endpoint_delay_s)]

    def scaled_questions_per_s(self) -> float:
        return self.questions / sum(self.scaled_latencies())


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "requests": requests.__version__,
    }


def generate(workload: str, seed: int, workdir: Path) -> None:
    # a child process, so generator memory stays out of the engine's peak RSS
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(workdir)],
        check=True,
        timeout=120,
    )


@contextmanager
def simulator(tsv: Path, delay_ms: float, row_delay_ms: float):
    """Start the SPARQL simulator; yield (endpoint URL, stats function).

    ``stats()`` returns the simulator's counters so far: requests, rows,
    busy_s (seconds spent serving) and delay_s (injected delay within it).
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "sparql_sim.py"), str(tsv), str(delay_ms), str(row_delay_ms)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        base = f"http://127.0.0.1:{int(proc.stdout.readline())}"

        def stats() -> dict:
            return requests.get(f"{base}/stats", timeout=10).json()

        yield f"{base}/sparql", stats
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _no_endpoint() -> dict:
    return {"requests": 0, "rows": 0, "busy_s": 0.0, "delay_s": 0.0}


@contextmanager
def graph_endpoint(params: dict, tsv: Path):
    """Yield (endpoint URL, stats function); only the SPARQL store gets a simulator."""
    if params["store"] != "sparql":
        yield "", _no_endpoint
        return
    with simulator(tsv, params["delay_ms"], params["row_delay_ms"]) as pair:
        yield pair


def set_up(params: dict, tsv: Path, endpoint: str, policy) -> Engine:
    """The program's set-up: build the adapter and the Engine.

    The in-memory store loads the TSV; the SPARQL store only needs the URL.
    """
    config = EngineConfig(**params["engine_config"], sparql_url=endpoint)
    kg = load_memory_store(tsv) if params["store"] == "memory" else build_kg(config, None)
    return Engine(backend=policy, kg=kg, embedder=build_embedder(config), config=config)


def timed_set_up(params: dict, tsv: Path, endpoint: str, policy):
    """Repeat ``set_up``; return (median scaled seconds, engine).

    At least SETUP_REPEATS times and for at least SETUP_MIN_S, so that the
    fast SPARQL set-up is timed over many repeats too.
    """
    times = []
    began = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - began < SETUP_MIN_S:
        engine = None  # drop the previous copy before loading again
        gc.collect()  # and start each repeat from the same collector state
        kernels = [calibration.kernel_seconds() for _ in range(3)]
        t0 = time.perf_counter()
        engine = set_up(params, tsv, endpoint, policy)
        wall = time.perf_counter() - t0
        kernels += [calibration.kernel_seconds() for _ in range(3)]
        times.append(calibration.scale(wall, statistics.median(kernels)))
    return statistics.median(times), engine


def gate(example, result, config: EngineConfig) -> str | None:
    """Why this run fails the correctness gate, or None."""
    if result.error_note:
        return f"{example.id}: error note {result.error_note!r}"
    if not exact_match(result.answer, example.gold_answers):
        return f"{example.id}: answer {result.answer!r}, gold {example.gold_answers!r}"
    last = result.trace[-1]
    if last.stage is not Stage.FINISH:
        return f"{example.id}: trace ends in {last.stage.value}"
    if last.payload["cycles"] > config.max_total_cycles:
        return f"{example.id}: {last.payload['cycles']} cycles > {config.max_total_cycles}"
    replans = sum(1 for e in result.trace if e.stage is Stage.REPLAN)
    if replans > config.replan_limit:
        return f"{example.id}: {replans} replans > {config.replan_limit}"
    return None


def fingerprint(jsonl: str) -> str:
    return hashlib.sha256(_TIMESTAMP.sub('"timestamp": 0', jsonl).encode("utf-8")).hexdigest()


def drive(engine: Engine, examples, start: int, seconds: float, *, min_questions: int = 0,
          stats=_no_endpoint, tracer: Tracer | None = None,
          keep_fingerprints: bool = False) -> tuple[Phase, int]:
    """Closed loop: ask questions one after another until time (and count) is up.

    ``stats`` reads the SPARQL simulator's counters (see graph_endpoint).
    """
    phase = Phase()
    before = stats()
    serialize = trace_to_jsonl
    if tracer is not None:
        def serialize(trace):
            return tracer.call("orchestrator.trace_to_jsonl", trace_to_jsonl, trace)

    def answer(example):
        result = engine.run(example.question, [eid for eid, _ in example.topic_entities])
        return result, serialize(result.trace)

    index = start
    phase.kernels.append(calibration.kernel_seconds())
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        position = index % len(examples)
        example = examples[position]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result, jsonl = answer(example)
            else:
                tracer.current_question = index
                result, jsonl = tracer.call("question", answer, example)
        except Exception as exc:  # a crash is a failed question, not a crashed benchmark
            result, jsonl = None, repr(exc)
        phase.walls.append(time.perf_counter() - t0)
        phase.starts.append(t0 - began)
        after = stats()
        phase.endpoint_s.append(after["busy_s"] - before["busy_s"])
        phase.endpoint_delay_s.append(after["delay_s"] - before["delay_s"])
        before = after
        if result is None:
            phase.failed += 1
            phase.problems.append(f"{example.id}: raised {jsonl}")
        else:
            phase.failed += bool(result.error_note)
            phase.hits += exact_match(result.answer, example.gold_answers)
            if problem := gate(example, result, engine.config):
                phase.problems.append(problem)
            phase.cycles += result.cycles
            phase.replans += result.replans
            phase.trace_bytes += len(jsonl)
            if keep_fingerprints:
                phase.fingerprints[position] = fingerprint(jsonl)
        result = jsonl = None  # the kernel runs with the question's garbage gone
        phase.kernels.append(calibration.kernel_seconds())
        index += 1
        if time.perf_counter() >= deadline and phase.questions >= min_questions:
            return phase, index


def replay_in_memory(params: dict, tsv: Path, config: EngineConfig, examples,
                     fingerprints) -> list[str]:
    """Adapter equivalence: the same questions on an in-memory store, same traces.

    Runs after the metrics are taken, so the store is not in peak_rss_mb.
    """
    engine = Engine(backend=PromptPolicy(params["policy"]), kg=load_memory_store(tsv),
                    embedder=build_embedder(config), config=config)
    problems = []
    for position, digest in sorted(fingerprints.items()):
        example = examples[position]
        result = engine.run(example.question, [eid for eid, _ in example.topic_entities])
        if fingerprint(trace_to_jsonl(result.trace)) != digest:
            problems.append(f"{example.id}: in-memory replay trace differs from SPARQL trace")
    return problems


def end_to_end(phase: Phase, policy_calls: int, prompt_chars: int, setup_s: float) -> dict:
    n = phase.questions
    ms = [t * 1000 for t in phase.scaled_latencies()]
    return {
        "questions_per_s": (phase.scaled_questions_per_s(), "1/s"),
        "question_p50_ms": (statistics.median(ms), "ms"),
        "question_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "hits_at_1": (phase.hits / n, "frac"),
        "backend_calls_per_question": (policy_calls / n, "count"),
        "prompt_kchars_per_question": (prompt_chars / n / 1000, "kchar"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    params = load_params()[workload]
    generate(workload, seed, workdir)
    tsv = workdir / "graph.tsv"
    examples = load_dataset(workdir / "questions.json")
    sparql = params["store"] == "sparql"
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "machine": machine(), "params": params}

    with graph_endpoint(params, tsv) as (endpoint, stats):
        policy = PromptPolicy(params["policy"])
        setup_s, engine = timed_set_up(params, tsv, endpoint, policy)

        def loop(run_engine, start, seconds, **kwargs):
            return drive(run_engine, examples, start, seconds, stats=stats,
                         keep_fingerprints=sparql, **kwargs)

        warm, index = loop(engine, 0, 0.0, min_questions=WARMUP_QUESTIONS)
        phases = [warm]
        if not trace:
            calls, chars = policy.calls, policy.prompt_chars
            phase, index = loop(engine, index, seconds, min_questions=MIN_QUESTIONS)
            phases.append(phase)
            metrics = end_to_end(phase, policy.calls - calls, policy.prompt_chars - chars, setup_s)
            report["samples"] = phase.questions
            report["failed_frac"] = phase.failed / phase.questions
            report["unscaled_questions_per_s"] = phase.questions / sum(phase.walls)
            report["kernel_ms"] = statistics.median(phase.kernels) * 1000
        else:
            plain, index = loop(engine, index, seconds / 2)
            tracer = Tracer()
            traced_engine = Engine(
                backend=TracedBackend(engine.backend, tracer),
                kg=TracedGraphStore(engine.kg, tracer),
                embedder=TracedEmbedder(engine.embedder, tracer),
                config=engine.config,
            )
            http_before = stats()["requests"]
            with instrument(tracer):
                traced, index = loop(traced_engine, index, seconds / 2, tracer=tracer)
            phases += [plain, traced]
            n = traced.questions
            metrics = layer_metrics(tracer, questions=n, cycles=traced.cycles,
                                    replans=traced.replans, trace_bytes=traced.trace_bytes,
                                    http_requests=stats()["requests"] - http_before)
            untraced_qps = plain.scaled_questions_per_s()
            traced_qps = traced.scaled_questions_per_s()
            metrics["tracing.untraced_questions_per_s"] = (untraced_qps, "1/s")
            metrics["tracing.traced_questions_per_s"] = (traced_qps, "1/s")
            metrics["tracing.overhead_ratio"] = (untraced_qps / traced_qps, "ratio")
            report["samples"] = n
            tracer.write_csv(OUT / f"{workload}.spans.csv")

    problems = [p for phase in phases for p in phase.problems]
    if sparql:
        fingerprints = {k: v for phase in phases for k, v in phase.fingerprints.items()}
        problems += replay_in_memory(params, tsv, engine.config, examples, fingerprints)
        report["replayed_in_memory"] = len(fingerprints)
    report.update(
        attempted=sum(p.questions for p in phases),
        failed=sum(p.failed for p in phases),
        problems=problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(load_params()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    m = report["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} requests={m['requests']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"samples={report['samples']} attempted={report['attempted']} failed={report['failed']}")
    if "failed_frac" in report:
        print(f"failed_frac = {report['failed_frac']:.4f} frac")
        print(f"unscaled_questions_per_s = {report['unscaled_questions_per_s']:.6g} 1/s")
        print(f"kernel_ms = {report['kernel_ms']:.6g} ms (median calibration kernel time)")
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in report["problems"][:20]:
        print(f"GATE: {problem}")
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
