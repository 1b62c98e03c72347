"""Command line entry points: run one question, bench a dataset, replay a trace."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from .backends import ChatCompletionBackend, ScriptedBackend
from .config import EngineConfig
from .errors import ParseError, ScriptMismatch
from .harness import FORMATS, evaluate_run, load_dataset
from .kg import SparqlGraphStore, load_memory_store
from .orchestrator import Engine, RunResult, load_trace_jsonl, write_trace
from .pruning import HashingEmbedder, HttpEmbedder


class InvalidInput(Exception):
    """A file or setting the command cannot use; ``main`` exits 2 with its message."""


def _load(what: str, loader, *args, **kwargs):
    """``loader(*args, **kwargs)``, with a failure to read or parse its input as ``invalid <what>: …``."""
    try:
        return loader(*args, **kwargs)
    except (OSError, ValueError, RecursionError, ParseError) as exc:
        raise InvalidInput(f"invalid {what}: {exc}") from exc


def build_kg(config: EngineConfig, kg_file: str | None):
    if kg_file:
        return load_memory_store(kg_file)
    if config.sparql_url:
        return SparqlGraphStore(config)
    raise InvalidInput("no knowledge graph configured: pass --kg-file or set sparql_url")


def build_backend(config: EngineConfig, script: str | None):
    if script:
        return ScriptedBackend.from_file(script)
    if config.chat_url:
        return ChatCompletionBackend(config)
    raise InvalidInput("no reasoning backend configured: pass --script or set chat_url")


def build_embedder(config: EngineConfig):
    return HttpEmbedder(config) if config.embed_url else HashingEmbedder()


def _load_config(args) -> EngineConfig:
    # every config field the command has a flag for; an unset flag is None
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(EngineConfig)}
    return EngineConfig.load(args.config, overrides=overrides)


def _read_trace(path):
    """The question, topic entities, config and backend script a trace recorded, and its events."""
    events = load_trace_jsonl(path)
    try:
        if not events or events[0]["stage"] != "decompose":
            raise ValueError("trace does not start with a decompose event")
        header = events[0]["payload"]
        script = []
        for event in events:
            for call in event["payload"].get("backend_calls", []):
                kept = ("error", "message") if "error" in call else ("response",)
                script.append({"expect_stage": call["stage"], **{key: call[key] for key in kept}})
        config = EngineConfig(**header["config"])
        config.validate()
        return header["question"], header["topic_entities"], config, ScriptedBackend(script), events
    except (LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a run trace: {exc!r}") from exc


def _engine(config: EngineConfig, backend, args) -> Engine:
    """The engine for ``args``, with its ``--out-dir`` made before any question runs."""
    engine = Engine(backend, _load("graph", build_kg, config, args.kg_file), build_embedder(config), config)
    if args.out_dir:
        _load("out-dir", Path(args.out_dir).mkdir, parents=True, exist_ok=True)
    return engine


def _answer(engine: Engine, question: str, topic_entities: list[str], out_dir: str | None, name: str) -> RunResult:
    """Run one question and, given ``out_dir``, write its trace there; then print its answer.

    A character of the answer that stdout cannot encode, such as a lone
    surrogate, is printed as a backslash escape.
    """
    result = engine.run(question, topic_entities)
    path = write_trace(result.trace, out_dir, name) if out_dir else None
    try:
        print(result.answer)
    except UnicodeEncodeError:  # raised before anything is written
        encoding = sys.stdout.encoding
        print(result.answer.encode(encoding, "backslashreplace").decode(encoding))
    if path:
        print(f"trace: {path}", file=sys.stderr)
    return result


def cmd_run(args) -> int:
    if not args.question:
        raise InvalidInput("invalid question: it is empty")
    config = _load("config", _load_config, args)
    engine = _engine(config, _load("script", build_backend, config, args.script), args)
    topic = [t.split("=", 1)[0] for t in args.topic_entity]
    _answer(engine, args.question, topic, args.out_dir, "run")
    return 0


def cmd_bench(args) -> int:
    config = _load("config", _load_config, args)
    examples = _load("dataset", load_dataset, args.dataset, args.format)
    if not examples:
        raise InvalidInput("invalid dataset: it holds no examples")
    engine = _engine(config, _load("script", build_backend, config, args.script), args)

    def engine_for(example):
        # a scripted backend replays from its first record, so each example
        # gets its own, built from the records read once above
        if isinstance(engine.backend, ScriptedBackend):
            return dataclasses.replace(engine, backend=ScriptedBackend(engine.backend.records))
        return engine

    report = evaluate_run(examples, engine_for, concurrency=config.concurrency, trace_dir=args.out_dir)
    print(report.table())
    if args.out_dir:
        report_json = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        (Path(args.out_dir) / "report.json").write_text(report_json, encoding="utf-8")
    return 0


def _untimed(event: dict) -> str:
    """``event`` as canonical JSON without its timestamp, the one field a replay may change."""
    return json.dumps({k: v for k, v in event.items() if k != "timestamp"}, sort_keys=True)


def cmd_replay(args) -> int:
    question, topic_entities, config, backend, recorded = _load("trace", _read_trace, args.trace)
    try:
        result = _answer(_engine(config, backend, args), question, topic_entities, args.out_dir, "replay")
    except ScriptMismatch as exc:  # the run asked for a call the trace does not hold
        print(f"replay diverged: {exc}", file=sys.stderr)
        return 1
    original_answer = recorded[-1]["payload"].get("answer")
    if original_answer is not None and original_answer != result.answer:
        print(f"replay diverged: original answer {original_answer!r}, got {result.answer!r}", file=sys.stderr)
    replayed = [e.to_dict() for e in result.trace]
    for sequence, (old, new) in enumerate(itertools.zip_longest(recorded, replayed, fillvalue={})):
        if _untimed(old) != _untimed(new):
            print(f"replay diverged: event {sequence} ({(old or new).get('stage')}) differs", file=sys.stderr)
            return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *, engine_settings: bool = True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--kg-file", help="TSV triple file for the in-memory store")
        p.add_argument("--out-dir", help="directory for traces and reports")
        if engine_settings:  # replay takes these from the trace
            p.add_argument("--config", help="key=value config file")
            p.add_argument("--script", help="scripted backend JSON file")
            p.add_argument("--sparql-url", help="SPARQL endpoint URL")
            p.add_argument("--chat-url", help="chat-completions endpoint URL")
            p.add_argument("--replan-limit", type=int)
            p.add_argument("--max-path-corrections", type=int)
            p.add_argument("--max-total-cycles", type=int)
            p.add_argument("--prune-threshold", type=int)
        p.set_defaults(func=func)
        return p

    p_run = command("run", cmd_run, "answer a single question")
    p_run.add_argument("--question", required=True)
    p_run.add_argument(
        "--topic-entity",
        action="append",
        default=[],
        metavar="ID[=LABEL]",
        help="topic entity anchoring exploration (repeatable)",
    )

    p_bench = command("bench", cmd_bench, "evaluate a dataset")
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--format", choices=FORMATS, default="simple")
    p_bench.add_argument("--concurrency", type=int)

    p_replay = command("replay", cmd_replay, "re-execute a run from its trace", engine_settings=False)
    p_replay.add_argument("--trace", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
