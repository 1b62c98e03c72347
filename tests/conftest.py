"""Shared test doubles, one per port: stage-dispatching backends, tiny graphs, tampered embedders,
loopback JSON endpoints and a SPARQL endpoint for every query template."""

from __future__ import annotations

import json
import re
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import sleep as real_sleep  # bound at import: the ``sleeps`` fixture patches time.sleep
from urllib.parse import parse_qs

import pytest
from hypothesis import settings

from kgqa_engine import transport
from kgqa_engine.backends import ChatCompletionBackend
from kgqa_engine.config import FREEBASE_PREFIX, EngineConfig
from kgqa_engine.kg import InMemoryGraphStore, SparqlGraphStore
from kgqa_engine.memory import IntegratedMemory, PlanStep
from kgqa_engine.pruning import HashingEmbedder, HttpEmbedder

# Same examples on every run, and no per-example deadline: property tests
# must neither wander nor flake on a slow or contended machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
# the same, with many more examples: CI runs the bit-identity properties with
# ``--hypothesis-profile=thorough``
settings.register_profile("thorough", settings.get_profile("deterministic"), max_examples=2000)


class StageBackend:
    """Backend answering from a dict of stage -> response (str or callable).

    Unlike ScriptedBackend it never runs out, which makes it the right
    tool for adversarial and property tests.
    """

    DEFAULTS = {
        "decompose": "STEP: explore from the topic entity | Walk the graph toward the answer.",
        "predict": "OUTCOME: a relevant neighboring entity",
        "classify": "LEVEL: Partial\nDETAIL: inconclusive",
        "think": "Noted the outcome; continuing.",
        "evaluate": "DECISION: Proceed\nRATIONALE: keep going",
        "select": "CHOICE: 1",
        "answer": "ANSWER: unknown",
        "extract": "ENTITY: nothing",
    }

    def __init__(self, responses: dict | None = None):
        self.responses = dict(self.DEFAULTS)
        self.responses.update(responses or {})
        self.calls: list[tuple[str, str]] = []

    def complete(self, prompt: str, stage: str) -> str:
        self.calls.append((stage, prompt))
        response = self.responses[stage]
        return response(prompt) if callable(response) else response


def make_store(triples, labels=None) -> InMemoryGraphStore:
    store = InMemoryGraphStore()
    for head, relation, tail in triples:
        store.add_triple(head, relation, tail)
    for key, text in (labels or {}).items():
        store.add_label(key, text)
    return store


def random_kg(rng, n_entities=50):
    """A labelled store of ``3 * n_entities`` random edges over 12 relations, and its entities."""
    entities = [f"e{i}" for i in range(n_entities)]
    triples = []
    for _ in range(n_entities * 3):
        head, tail = rng.sample(entities, 2)
        triples.append((head, f"r{rng.randrange(12)}", tail))
    labels = {e: f"Entity {e}" for e in entities}
    return make_store(triples, labels), entities


class RedirectedStore:
    """Graph store that yields ``redirect(direction)`` for each direction ``inner`` yields."""

    def __init__(self, inner, redirect):
        self.inner = inner
        self.redirect = redirect

    def neighbors(self, entity):
        return [(relation, other, self.redirect(direction))
                for relation, other, direction in self.inner.neighbors(entity)]

    def label(self, entity_or_relation):
        return self.inner.label(entity_or_relation)


class TamperedEmbedder:
    """``inner``'s vectors (a HashingEmbedder's by default) passed through ``tamper`` before they are returned.

    It is no ``HashingEmbedder``, so ``prune`` asks it through ``embed``, as it asks any wrapper.
    """

    def __init__(self, tamper=lambda vectors: vectors, inner=None):
        self.tamper = tamper
        self.inner = inner or HashingEmbedder()

    def embed(self, texts):
        return self.tamper(self.inner.embed(texts))


def plain(text: str) -> str:
    """A string equal to ``text`` but not the same object, as a store that parses text yields."""
    return "".join(list(text))


def make_memory(question="q?", topic=("e1",), plan_objectives=("find it",), **kwargs) -> IntegratedMemory:
    memory = IntegratedMemory.new(question, list(topic), EngineConfig(**kwargs))
    steps = [
        PlanStep(index=i, objective=obj, description=f"step {i}")
        for i, obj in enumerate(plan_objectives)
    ]
    memory.install_plan(steps)
    return memory


def make_sparql_store(url: str, **settings) -> SparqlGraphStore:
    """A SPARQL store on ``url``; ``settings`` are further ``EngineConfig`` fields."""
    return SparqlGraphStore(EngineConfig(sparql_url=url, **settings))


def make_chat_backend(url: str, model: str, **settings) -> ChatCompletionBackend:
    return ChatCompletionBackend(EngineConfig(chat_url=url, chat_model=model, **settings))


def make_http_embedder(url: str, model: str, **settings) -> HttpEmbedder:
    return HttpEmbedder(EngineConfig(embed_url=url, embed_model=model, **settings))


@pytest.fixture
def store():
    return make_store(
        [("e1", "r1", "e2"), ("e1", "r2", "e3"), ("e2", "r3", "e4")],
        labels={"e1": "One", "e2": "Two", "e3": "Three", "e4": "Four", "r1": "rel one"},
    )


@pytest.fixture
def fast_backoff(monkeypatch):
    """Every HTTP adapter's first retry waits 0.01 s instead of 0.5 s."""
    monkeypatch.setattr(transport, "BACKOFF_S", 0.01)


@pytest.fixture
def sleeps(monkeypatch):
    """Record the retry sleeps of every HTTP adapter instead of sleeping."""
    slept: list[float] = []
    monkeypatch.setattr(transport.time, "sleep", slept.append)
    return slept


class JsonStub(BaseHTTPRequestHandler):
    """Loopback JSON endpoint: records each request, serves a script.

    ``seen`` holds each request's body, a JSON body decoded and any other,
    such as a form-encoded SPARQL query, as text, with its Authorization
    header.  ``wire`` holds each request as it arrived: method, path
    (absolute when sent to a proxy), headers, body bytes and the client's
    port, which tells connections apart.  A scripted response is
    ``(status, body)`` or ``(status, body, headers)``, the last one
    repeating, and is sent after ``delay`` seconds; a subclass may compute
    it instead, in ``answer``.
    """

    responses: list[tuple] = []
    seen: list[dict] = []
    wire: list[dict] = []
    delay = 0.0

    def do_POST(self):
        stub = type(self)
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            body = json.loads(raw)
        except ValueError:
            body = raw.decode()
        stub.seen.append({"body": body, "auth": self.headers.get("Authorization")})
        stub.wire.append({"method": self.command, "path": self.path, "headers": self.headers,
                          "body": raw, "port": self.client_address[1]})
        status, payload, *headers = self.answer(body)
        real_sleep(stub.delay)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
        except ConnectionError:  # the client stopped waiting during the delay
            self.close_connection = True

    do_GET = do_POST

    def answer(self, body):
        """The scripted response to this request, the last one once the script runs out."""
        stub = type(self)
        return stub.responses[min(len(stub.seen), len(stub.responses)) - 1]

    def log_message(self, *args):
        pass


@contextmanager
def serving(handler, wrap=None):
    """The port of a loopback server running ``handler``; its socket is closed afterwards.

    ``wrap``, given, wraps the listening socket, as an ``ssl.SSLContext`` does.
    """
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if wrap is not None:
        server.socket = wrap(server.socket)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    try:
        yield server.server_port
    finally:
        server.shutdown()
        server.server_close()


def reset(stub, responses=()):
    stub.responses, stub.seen, stub.wire, stub.delay = list(responses), [], [], 0.0


@pytest.fixture
def json_stub():
    """URL of a fresh JsonStub server speaking HTTP/1.0, so each request has its own connection."""
    reset(JsonStub)
    with serving(JsonStub) as port:
        yield f"http://127.0.0.1:{port}/v1"


class KeepAliveStub(JsonStub):
    """A JsonStub speaking HTTP/1.1, so a client may send many requests over one connection."""

    protocol_version = "HTTP/1.1"


@pytest.fixture
def keepalive_stub():
    """URL of a fresh KeepAliveStub server; it records into ``JsonStub``'s lists."""
    reset(JsonStub)
    with serving(KeepAliveStub) as port:
        yield f"http://127.0.0.1:{port}/v1"


def sparql_json(rows, variables=()):
    """A SPARQL JSON results document binding each row's values as IRIs; the store reads the bindings alone."""
    return json.dumps(
        {
            "head": {"vars": list(variables)},
            "results": {
                "bindings": [
                    {var: {"type": "uri", "value": value} for var, value in row.items()}
                    for row in rows
                ]
            },
        }
    ).encode()


def labelled(edge, texts):
    """An edge's rows in a NEIGHBORS answer: one per label ``texts`` of its far end, else one without ?label."""
    return [{**edge, "label": text} for text in texts] or [edge]


class TemplateEndpoint:
    """An in-Python SPARQL endpoint for every template ``render_sparql`` writes at the default settings,
    over the ``edges`` (head, relation, tail) in their order and each id's ``labels`` in theirs.

    It answers a per-direction query with that direction's edges in order, the EDGES query with the
    outgoing edges and the incoming ones, a label batch with each id's labels in order, and the
    NEIGHBORS query with the entity's label rows, the outgoing edges and the incoming ones, each edge
    once per label of its far end (once without ?label if it has none); then it applies LIMIT.
    ``rng``, if given, interleaves the parts of an answer at random, each part keeping its own order,
    as an endpoint may.  ``answers`` records each query's template and the number of rows answered.
    A query no template matches raises ValueError."""

    HEAD = rf"PREFIX ns: <{re.escape(FREEBASE_PREFIX)}>\nSELECT "
    LABEL = "ns:type\\.object\\.name"
    QUERIES = {
        "neighbors": re.compile(
            rf"{HEAD}\?relation \?tail \?head \?label WHERE \{{ \{{ ns:(\S+) {LABEL} \?label \}} "
            rf"UNION \{{ ns:\1 \?relation \?tail OPTIONAL \{{ \?tail {LABEL} \?label \}} \}} "
            rf"UNION \{{ \?head \?relation ns:\1 OPTIONAL \{{ \?head {LABEL} \?label \}} \}} \}} LIMIT (\d+)"
        ),
        "edges": re.compile(
            rf"{HEAD}\?relation \?tail \?head WHERE \{{ \{{ ns:(\S+) \?relation \?tail \}} "
            rf"UNION \{{ \?head \?relation ns:\1 \}} \}} LIMIT (\d+)"
        ),
        "outgoing": re.compile(rf"{HEAD}\?relation \?tail WHERE \{{ ns:(\S+) \?relation \?tail \}} LIMIT (\d+)"),
        "incoming": re.compile(rf"{HEAD}\?relation \?head WHERE \{{ \?head \?relation ns:(\S+) \}} LIMIT (\d+)"),
        "labels": re.compile(rf"{HEAD}\?x \?label WHERE \{{ VALUES \?x \{{ ([^}}]*) \}} \?x {LABEL} \?label \}}"),
    }

    def __init__(self, edges, labels, rng=None):
        self.edges, self.labels, self.rng = edges, labels, rng
        self.answers = []

    def __call__(self, query):
        for template, pattern in self.QUERIES.items():
            if match := pattern.fullmatch(query):
                break
        else:
            raise ValueError(f"no template matches {query!r}")
        if template == "labels":
            ids = [term.removeprefix("ns:") for term in match[1].split()]
            rows = self.interleave([[{"x": self.iri(i), "label": text} for text in self.labels.get(i, [])]
                                    for i in ids])
        else:
            entity, limit = match[1], int(match[2])
            parts = [self.ends(entity, "tail"), self.ends(entity, "head")]
            if template == "neighbors":
                own = [{"label": text} for text in self.labels.get(entity, [])]
                parts = [own] + [[row for edge, end in part for row in labelled(edge, self.labels.get(end, []))]
                                 for part in parts]
                rows = self.interleave(parts)[:limit]
            elif template == "edges":
                rows = self.interleave([[edge for edge, _ in part] for part in parts])[:limit]
            else:
                rows = [edge for edge, _ in parts[template == "incoming"]][:limit]
        self.answers.append((template, len(rows)))
        return rows

    def ends(self, entity, other):
        """(row, far end) of each edge leaving (``other`` = "tail") or entering ``entity``, in order."""
        return [({"relation": self.iri(relation), other: self.iri(far)}, far)
                for head, relation, tail in self.edges
                for near, far in [(head, tail) if other == "tail" else (tail, head)] if near == entity]

    def interleave(self, parts):
        if self.rng is None:
            return [row for part in parts for row in part]
        queues, rows = [part[::-1] for part in parts if part], []
        while queues:
            queue = self.rng.choice(queues)
            rows.append(queue.pop())
            if not queue:
                queues.remove(queue)
        return rows

    @staticmethod
    def iri(local):
        return FREEBASE_PREFIX + local


class TemplateStub(JsonStub):
    """A JsonStub answering each SPARQL query from ``endpoint``, a TemplateEndpoint, and with HTTP 400 when no
    template matches it; it records into ``JsonStub``'s lists."""

    endpoint: TemplateEndpoint

    def answer(self, body):
        try:
            return 200, sparql_json(self.endpoint(parse_qs(body)["query"][0]))
        except ValueError as exc:
            return 400, str(exc).encode()
