"""Command line entry points: run one question, bench a dataset, replay a trace."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .backends import ChatCompletionBackend, ScriptedBackend
from .config import EngineConfig
from .errors import ParseError
from .harness import FORMATS, evaluate_run, load_dataset
from .kg import SparqlGraphStore, load_memory_store
from .orchestrator import Engine, load_trace_jsonl, trace_to_jsonl
from .pruning import HashingEmbedder, HttpEmbedder


def build_kg(config: EngineConfig, kg_file: str | None):
    if kg_file:
        return load_memory_store(kg_file)
    if config.sparql_url:
        return SparqlGraphStore(
            config.sparql_url,
            prefix=config.kg_prefix,
            id_pattern=config.entity_id_pattern,
            label_property=config.label_property,
            limit=config.kg_result_limit,
            timeout=config.http_timeout,
            retries=config.http_retries,
        )
    raise SystemExit("no knowledge graph configured: pass --kg-file or set sparql_url")


def build_backend(config: EngineConfig, script: str | None):
    if script:
        return ScriptedBackend.from_file(script)
    if config.chat_url:
        return ChatCompletionBackend(
            config.chat_url,
            config.chat_model,
            timeout=config.http_timeout,
            retries=config.http_retries,
        )
    raise SystemExit("no reasoning backend configured: pass --script or set chat_url")


def build_embedder(config: EngineConfig):
    if config.embed_url:
        import os

        return HttpEmbedder(
            config.embed_url,
            config.embed_model,
            token=os.environ.get("KGQA_EMBED_TOKEN", ""),
            timeout=config.http_timeout,
            retries=config.http_retries,
        )
    return HashingEmbedder()


def _load_config(args) -> EngineConfig:
    overrides = {}
    for name in ("replan_limit", "max_path_corrections", "max_total_cycles",
                 "prune_threshold", "sparql_url", "chat_url", "concurrency"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return EngineConfig.load(args.config, overrides=overrides)


def _write_trace(trace, out_dir: str, name: str) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.trace.jsonl"
    path.write_text(trace_to_jsonl(trace), encoding="utf-8")
    return str(path)


def cmd_run(args) -> int:
    config = _load_config(args)
    engine = Engine(
        backend=build_backend(config, args.script),
        kg=build_kg(config, args.kg_file),
        embedder=build_embedder(config),
        config=config,
    )
    topic = [t.split("=", 1)[0] for t in args.topic_entity]
    result = engine.run(args.question, topic)
    print(result.answer)
    if args.out_dir:
        path = _write_trace(result.trace, args.out_dir, "run")
        print(f"trace: {path}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args)
    try:
        examples = load_dataset(args.dataset, args.format)
    except ParseError as exc:
        print(f"invalid dataset: {exc}", file=sys.stderr)
        return 2
    if not examples:
        print("empty dataset", file=sys.stderr)
        return 2
    try:
        backend = build_backend(config, args.script)
    except (OSError, ValueError) as exc:
        print(f"invalid script: {exc}", file=sys.stderr)
        return 2
    kg = build_kg(config, args.kg_file)
    embedder = build_embedder(config)

    def engine_for(example):
        # a scripted backend replays from its first record, so each example
        # gets its own, built from the records read once above
        if isinstance(backend, ScriptedBackend):
            return Engine(ScriptedBackend(backend.records), kg, embedder, config)
        return Engine(backend, kg, embedder, config)

    report = evaluate_run(
        examples,
        engine_for,
        concurrency=config.concurrency,
        trace_dir=args.out_dir,
    )
    print(report.table())
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )
    return 0


def cmd_replay(args) -> int:
    events = load_trace_jsonl(args.trace)
    if not events or events[0]["stage"] != "decompose":
        print("trace does not start with a decompose event", file=sys.stderr)
        return 1
    header = events[0]["payload"]
    script = [
        {"expect_stage": call["stage"], "response": call["response"]}
        for event in events
        for call in event["payload"].get("backend_calls", [])
    ]
    config = EngineConfig(**header["config"])
    engine = Engine(
        backend=ScriptedBackend(script),
        kg=build_kg(config, args.kg_file),
        embedder=build_embedder(config),
        config=config,
    )
    result = engine.run(header["question"], header["topic_entities"])
    print(result.answer)
    if args.out_dir:
        path = _write_trace(result.trace, args.out_dir, "replay")
        print(f"trace: {path}", file=sys.stderr)
    original_answer = events[-1]["payload"].get("answer")
    if original_answer is not None and original_answer != result.answer:
        print(
            f"replay diverged: original answer {original_answer!r}, got {result.answer!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--kg-file", help="TSV triple file for the in-memory store")
        p.add_argument("--script", help="scripted backend JSON file")
        p.add_argument("--out-dir", help="directory for traces and reports")
        p.add_argument("--sparql-url", help="SPARQL endpoint URL")
        p.add_argument("--chat-url", help="chat-completions endpoint URL")
        p.add_argument("--replan-limit", type=int)
        p.add_argument("--max-path-corrections", type=int)
        p.add_argument("--max-total-cycles", type=int)
        p.add_argument("--prune-threshold", type=int)

    p_run = sub.add_parser("run", help="answer a single question")
    common(p_run)
    p_run.add_argument("--question", required=True)
    p_run.add_argument(
        "--topic-entity",
        action="append",
        default=[],
        metavar="ID[=LABEL]",
        help="topic entity anchoring exploration (repeatable)",
    )
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="evaluate a dataset")
    common(p_bench)
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--format", choices=FORMATS, default="simple")
    p_bench.add_argument("--concurrency", type=int)
    p_bench.set_defaults(func=cmd_bench)

    p_replay = sub.add_parser("replay", help="re-execute a run from its trace")
    common(p_replay)
    p_replay.add_argument("--trace", required=True)
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ParseError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
