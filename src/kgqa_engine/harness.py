"""Batch evaluation: dataset loading, exact-match Hits@1, reports."""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable

from .errors import ParseError, ScriptMismatch, describe
from .orchestrator import Engine, is_plain_name, write_trace


@dataclass
class QaExample:
    id: str
    question: str
    topic_entities: list[tuple[str, str]]  # (entity id, label)
    gold_answers: list[str]


def _list(value, field: str) -> list:
    """``value``, which must be a JSON list: no string or object is iterated as one."""
    if not isinstance(value, list):
        raise ParseError(f"{field} is {type(value).__name__}, not a list")
    return value


def _number_as_text(value):
    """A JSON number as its ``str``; any other value as it is."""
    return str(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else value


def _simple(raw) -> QaExample:
    topics = _list(raw.get("topic_entities", []), "topic_entities")
    return QaExample(
        id=_number_as_text(raw["id"]),
        question=raw["question"],
        topic_entities=[(e["id"], e.get("label", "")) for e in topics],
        gold_answers=[_number_as_text(a) for a in _list(raw["answers"], "answers")],
    )


def _grailqa(raw) -> QaExample:
    nodes = _list(raw.get("graph_query", {}).get("nodes", []), "graph_query.nodes")
    return QaExample(
        id=_number_as_text(raw["qid"]),
        question=raw["question"],
        topic_entities=[
            (n["id"], n.get("friendly_name", "")) for n in nodes if n.get("node_type") == "entity"
        ],
        gold_answers=[
            a.get("entity_name") or a.get("answer_argument", "") for a in _list(raw["answer"], "answer")
        ],
    )


def _cwq(raw) -> QaExample:
    gold: list[str] = []
    for ans in _list(raw["answers"], "answers"):
        gold.append(ans["answer"])
        gold.extend(_list(ans.get("aliases", []), "aliases"))
    return QaExample(
        id=_number_as_text(raw["ID"]),
        question=raw["question"],
        topic_entities=sorted((raw.get("topic_entity") or {}).items()),
        gold_answers=gold,
    )


def _webqsp(raw) -> QaExample:
    parses = _list(raw.get("Parses", []), "Parses")
    return QaExample(
        id=_number_as_text(raw["QuestionId"]),
        question=raw["RawQuestion"],
        topic_entities=[
            (p["TopicEntityMid"], p.get("TopicEntityName", ""))
            for p in parses
            if p.get("TopicEntityMid")
        ],
        gold_answers=[
            a.get("EntityName") or a.get("AnswerArgument", "")
            for p in parses
            for a in _list(p.get("Answers", []), "Answers")
        ],
    )


# dataset format -> mapper from one raw record to an example
_RECORD_MAPPERS = {"simple": _simple, "grailqa": _grailqa, "cwq": _cwq, "webqsp": _webqsp}
FORMATS = tuple(_RECORD_MAPPERS)


def load_dataset(path, format: str = "simple") -> list[QaExample]:
    if format not in FORMATS:
        raise ValueError(f"unknown dataset format: {format!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"dataset is not valid JSON: {exc}") from exc
    if format == "webqsp":
        doc = doc.get("Questions") if isinstance(doc, dict) else None
        if not isinstance(doc, list):
            raise ParseError("webqsp dataset must be an object with a Questions list")
    elif not isinstance(doc, list):
        raise ParseError(f"{format} dataset must be a JSON list")
    mapper = _RECORD_MAPPERS[format]
    examples: list[QaExample] = []
    seen: set[str] = set()
    for i, raw in enumerate(doc):
        try:
            ex = mapper(raw)
        except ParseError as exc:
            raise ParseError(f"example {i}: {exc}") from None
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"example {i}: missing field {exc}") from exc
        fields = [("id", ex.id), ("question", ex.question),
                  *(("topic entity id", e) for e, _ in ex.topic_entities),
                  *(("gold answer", a) for a in ex.gold_answers)]
        for field_name, value in fields:
            if not isinstance(value, str):
                raise ParseError(f"example {i} ({ex.id!r}): {field_name} {value!r} is not a string")
        if not ex.gold_answers or not all(ex.gold_answers):
            raise ParseError(f"example {i} ({ex.id!r}): gold answers must be non-empty")
        if not ex.question:
            raise ParseError(f"example {i} ({ex.id!r}): empty question")
        if not is_plain_name(ex.id):
            raise ParseError(f"example {i}: id {ex.id!r} is not a plain file name")
        if ex.id in seen:
            raise ParseError(f"duplicate example id: {ex.id!r}")
        seen.add(ex.id)
        examples.append(ex)
    return examples


# -- metric ---------------------------------------------------------------


def normalize_answer(text: str) -> str:
    """Lowercase, trim, collapse internal whitespace, strip outer quotes."""
    out = text.strip()
    while len(out) >= 2 and out[0] == out[-1] and out[0] in "\"'":
        out = out[1:-1].strip()
    out = re.sub(r"\s+", " ", out)
    return out.lower()


def exact_match(prediction: str, gold_answers: list[str]) -> int:
    norm = normalize_answer(prediction)
    return int(any(norm == normalize_answer(g) for g in gold_answers))


# -- batch evaluation --------------------------------------------------------


@dataclass
class ExampleResult:
    id: str
    answer: str
    hit: int
    cycles: int
    replans: int
    trace_path: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    results: list[ExampleResult] = field(default_factory=list)
    hits_at_1: float = 0.0
    undefined: bool = False  # true for an empty dataset

    def to_dict(self) -> dict:
        return {
            "hits_at_1": self.hits_at_1,
            "undefined": self.undefined,
            "num_examples": len(self.results),
            "results": [r.to_dict() for r in self.results],
        }

    def table(self) -> str:
        lines = [f"{'id':<24} {'hit':>3} {'cycles':>6} {'replans':>7}  answer"]
        for r in self.results:
            lines.append(f"{r.id:<24} {r.hit:>3} {r.cycles:>6} {r.replans:>7}  {r.answer}")
        agg = "undefined (empty dataset)" if self.undefined else f"{self.hits_at_1:.4f}"
        lines.append(f"Hits@1: {agg}")
        return "\n".join(lines)


def evaluate_run(
    examples: list[QaExample],
    engine_factory: Callable[[QaExample], Engine],
    *,
    concurrency: int = 1,
    trace_dir: str | None = None,
) -> Report:
    """Run every example, never aborting the batch on per-example failure.

    ``engine_factory(example)`` gives the engine for one example: a fresh
    one when the backend holds per-run state (scripted replays), the same
    one otherwise.
    """
    if not examples:
        return Report(undefined=True)

    def one(example: QaExample) -> ExampleResult:
        try:
            engine = engine_factory(example)
            run = engine.run(example.question, [eid for eid, _ in example.topic_entities])
            return ExampleResult(
                id=example.id,
                answer=run.answer,
                hit=exact_match(run.answer, example.gold_answers),
                cycles=run.cycles,
                replans=run.replans,
                trace_path=write_trace(run.trace, trace_dir, example.id) if trace_dir else None,
                error=run.error_note,
            )
        except ScriptMismatch:
            raise
        except Exception as exc:  # per-example isolation: record, keep going
            return ExampleResult(
                id=example.id, answer="", hit=0, cycles=0, replans=0, error=describe(exc, str)
            )

    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            results = list(pool.map(one, examples))
    else:
        results = [one(ex) for ex in examples]
    results.sort(key=lambda r: r.id)
    hits = [r.hit for r in results]
    return Report(results=results, hits_at_1=sum(hits) / len(hits))
