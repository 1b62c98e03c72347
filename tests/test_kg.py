"""Graph access layer: query rendering, protocol client, in-memory store."""

import json
import logging
import random
import re
import string
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

import pytest
import requests

from conftest import StageBackend
from kgqa_engine import kg as kg_mod
from kgqa_engine.errors import InvalidEntityId, KgUnavailable, MalformedResults, ParseError
from kgqa_engine.kg import (
    FREEBASE_PREFIX,
    InMemoryGraphStore,
    SparqlGraphStore,
    SparqlTemplate,
    execute,
    load_memory_store,
    render_sparql,
)
from kgqa_engine.orchestrator import Engine, Stage
from kgqa_engine.pruning import HashingEmbedder
from kgqa_engine.triples import Direction


class TestRenderSparql:
    def test_outgoing_substitutes_subject(self):
        query = render_sparql(SparqlTemplate.OUTGOING_EDGES, "m.0abc")
        assert "ns:m.0abc ?relation ?tail" in query
        assert f"PREFIX ns: <{FREEBASE_PREFIX}>" in query

    def test_incoming_substitutes_object(self):
        query = render_sparql(SparqlTemplate.INCOMING_EDGES, "m.0abc")
        assert "?head ?relation ns:m.0abc" in query

    def test_batched_label_query(self):
        query = render_sparql(SparqlTemplate.LABELS, ["m.0a", "m.0b"])
        assert "SELECT ?x ?label WHERE { VALUES ?x { ns:m.0a ns:m.0b } ?x ns:type.object.name ?label }" in query
        assert "LIMIT" not in query  # a truncated answer would cache "no label" wrongly

    def test_batched_label_query_validates_every_id(self):
        with pytest.raises(InvalidEntityId):
            render_sparql(SparqlTemplate.LABELS, ["m.0a", "m.0a } ?s ?p ?o {"])

    def test_single_id_templates_take_one_id(self):
        with pytest.raises(ValueError):
            render_sparql(SparqlTemplate.NEIGHBORS, ["m.0a", "m.0b"])

    def test_limit_applied(self):
        assert render_sparql(SparqlTemplate.OUTGOING_EDGES, "m.0abc", limit=17).endswith("LIMIT 17")

    def test_neighbors_query_unions_both_directions(self):
        query = render_sparql(SparqlTemplate.NEIGHBORS, "m.0abc", limit=17)
        assert query.endswith(  # limit edges per direction, two directions
            "SELECT ?relation ?tail ?head WHERE "
            "{ { ns:m.0abc ?relation ?tail } UNION { ?head ?relation ns:m.0abc } } LIMIT 34"
        )

    @pytest.mark.parametrize("bad", ["m.0abc } UNION { ?s ?p ?o", "M.0ABC", ""])
    def test_neighbors_query_validates_id(self, bad):
        with pytest.raises(InvalidEntityId):
            render_sparql(SparqlTemplate.NEIGHBORS, bad)

    @pytest.mark.parametrize("bad", ["m.0abc}", "m.0abc . ?x ?y ?z", "M.0ABC", "", "x", "m.0abc\n"])
    def test_grammar_violations_rejected(self, bad):
        with pytest.raises(InvalidEntityId):
            render_sparql(SparqlTemplate.OUTGOING_EDGES, bad)

    def test_custom_grammar(self):
        query = render_sparql(SparqlTemplate.LABELS, ["E17"], id_pattern=r"E\d+")
        assert "ns:E17" in query

    def test_fuzzed_ids_never_escape_the_template(self):
        # anything accepted must be pure [a-z0-9._]; everything else errors
        rng = random.Random(5)
        alphabet = string.printable
        for _ in range(500):
            candidate = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 15)))
            try:
                query = render_sparql(SparqlTemplate.OUTGOING_EDGES, candidate)
            except InvalidEntityId:
                continue
            assert re.fullmatch(r"[a-z]\.[0-9a-z_]+", candidate)
            assert f"ns:{candidate} ?relation ?tail" in query


class _StubHandler(BaseHTTPRequestHandler):
    """Configurable SPARQL endpoint stub: counts requests, serves a script."""

    responses = []  # list of (status, body-bytes); last one repeats
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length).decode()
        type(self).seen.append(parse_qs(body).get("query", [""])[0])
        idx = min(len(type(self).seen) - 1, len(type(self).responses) - 1)
        status, payload = type(self).responses[idx]
        self.send_response(status)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}/sparql"
    server.shutdown()
    server.server_close()


def sparql_json(rows, variables):
    return json.dumps(
        {
            "head": {"vars": variables},
            "results": {
                "bindings": [
                    {var: {"type": "uri", "value": value} for var, value in row.items()}
                    for row in rows
                ]
            },
        }
    ).encode()


class TestExecute:
    def test_parses_two_rows(self, stub_server):
        _StubHandler.responses = [
            (200, sparql_json([{"relation": "r1", "tail": "t1"}, {"relation": "r2", "tail": "t2"}], ["relation", "tail"]))
        ]
        rows = execute(stub_server, "SELECT ...", retries=0)
        assert rows == [{"relation": "r1", "tail": "t1"}, {"relation": "r2", "tail": "t2"}]

    def test_500_three_times_raises_unavailable(self, stub_server, fast_backoff):
        _StubHandler.responses = [(500, b"oops")]
        with pytest.raises(KgUnavailable):
            execute(stub_server, "SELECT ...", retries=2)
        assert len(_StubHandler.seen) == 3

    def test_recovers_after_transient_500(self, stub_server, fast_backoff):
        _StubHandler.responses = [
            (500, b"oops"),
            (200, sparql_json([{"label": "x"}], ["label"])),
        ]
        assert execute(stub_server, "q", retries=2) == [{"label": "x"}]

    def test_truncated_json_is_malformed(self, stub_server):
        _StubHandler.responses = [(200, b'{"head": {"vars": ["x"]}, "resu')]
        with pytest.raises(MalformedResults):
            execute(stub_server, "q", retries=0)

    def test_missing_results_key_is_malformed(self, stub_server):
        _StubHandler.responses = [(200, b'{"head": {"vars": []}}')]
        with pytest.raises(MalformedResults):
            execute(stub_server, "q", retries=0)

    def test_unreachable_endpoint(self, fast_backoff):
        with pytest.raises(KgUnavailable):
            execute("http://127.0.0.1:1/sparql", "q", retries=1, timeout=0.2)

    def test_client_error_fails_fast(self, stub_server, sleeps):
        _StubHandler.responses = [(400, b"bad query")]
        with pytest.raises(KgUnavailable, match="HTTP 400"):
            execute(stub_server, "q", retries=2)
        assert len(_StubHandler.seen) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_server_error_and_throttling_are_retried(self, stub_server, sleeps, status):
        _StubHandler.responses = [(status, b"busy")]
        with pytest.raises(KgUnavailable, match=f"HTTP {status}"):
            execute(stub_server, "q", retries=2)
        assert len(_StubHandler.seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_each_retry_is_logged(self, stub_server, caplog, fast_backoff):
        caplog.set_level(logging.INFO, logger="kgqa_engine.kg")
        _StubHandler.responses = [(500, b"oops"), (200, sparql_json([], ["label"]))]
        assert execute(stub_server, "q", retries=2) == []
        assert [(r.name, r.levelno) for r in caplog.records] == [("kgqa_engine.kg", logging.INFO)]
        message = caplog.records[0].getMessage()
        assert "attempt 1 of 3" in message and "HTTP 500" in message and "retrying in 0.01 s" in message


class TestSparqlGraphStore:
    def test_neighbors_merges_and_localizes(self, stub_server):
        ns = FREEBASE_PREFIX
        _StubHandler.responses = [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": f"{ns}m.0t"}, {"relation": f"{ns}r.a", "head": f"{ns}m.0h"}],
                ["relation", "tail", "head"],
            )),
            (200, sparql_json([], ["x", "label"])),
        ]
        store = SparqlGraphStore(stub_server, retries=0)
        assert store.neighbors("m.0x") == [
            ("r.a", "m.0h", Direction.INCOMING),
            ("r.b", "m.0t", Direction.OUTGOING),
        ]

    def test_label_returns_none_for_ungrammatical_id(self, stub_server):
        store = SparqlGraphStore(stub_server, retries=0)
        assert store.label("not an id") is None
        assert _StubHandler.seen == []

    def test_label_lookup(self, stub_server):
        _StubHandler.responses = [label_batch([("m.0paris", "Paris")])]
        assert SparqlGraphStore(stub_server, retries=0).label("m.0paris") == "Paris"

    def test_unavailable_endpoint_raises_through_session(self):
        with pytest.raises(KgUnavailable):
            execute("http://127.0.0.1:1/sparql", "q", retries=0, timeout=0.2, session=requests.Session())


def union_rows(outgoing, incoming):
    """Rows of the NEIGHBORS query: (relation, tail) rows, then (relation, head) rows."""
    ns = FREEBASE_PREFIX
    return [{"relation": f"{ns}{r}", "tail": f"{ns}{t}"} for r, t in outgoing] + [
        {"relation": f"{ns}{r}", "head": f"{ns}{h}"} for r, h in incoming
    ]


def label_batch(labels):
    """Stub response to a batched label query: one (x, label) row per pair."""
    ns = FREEBASE_PREFIX
    return (200, sparql_json([{"x": f"{ns}{x}", "label": text} for x, text in labels], ["x", "label"]))


def edges_and_labels(outgoing, incoming, labels):
    """Stub responses for one neighbors() call: one union edge query, one label batch."""
    return [(200, sparql_json(union_rows(outgoing, incoming), ["relation", "tail", "head"])), label_batch(labels)]


class TestRoundTrips:
    """One explore costs at most two POSTs; labels are then served from the cache."""

    def test_explore_costs_at_most_two_posts(self, stub_server):
        _StubHandler.responses = edges_and_labels(
            [("r.b", "m.0t1"), ("r.c", "m.0t2")],
            [("r.a", "m.0h")],
            [("m.0x", "Frontier"), ("m.0t1", "Tail one"), ("m.0h", "Head")],
        )
        store = SparqlGraphStore(stub_server, retries=0)
        neighbors = store.neighbors("m.0x")
        labels = [store.label("m.0x")] + [store.label(other) for _, other, _ in neighbors]
        assert labels == ["Frontier", "Head", "Tail one", None]
        assert len(_StubHandler.seen) == 2
        assert "UNION" in _StubHandler.seen[0]
        assert "VALUES ?x { ns:m.0x ns:m.0h ns:m.0t1 ns:m.0t2 }" in _StubHandler.seen[1]

    @pytest.mark.parametrize("rows, expected", [([("m.0paris", "Paris")], "Paris"), ([], None)])
    def test_repeated_label_costs_nothing(self, stub_server, rows, expected):
        _StubHandler.responses = [label_batch(rows)]
        store = SparqlGraphStore(stub_server, retries=0)
        assert store.label("m.0paris") == expected
        assert store.label("m.0paris") == expected  # "no label" is cached too
        assert len(_StubHandler.seen) == 1

    def test_labelled_neighbours_are_not_asked_for_again(self, stub_server):
        _StubHandler.responses = edges_and_labels([("r.b", "m.0t")], [], [("m.0x", "X")])
        _StubHandler.responses += edges_and_labels([], [("r.b", "m.0x")], [("m.0t", "T")])
        store = SparqlGraphStore(stub_server, retries=0)
        store.neighbors("m.0x")
        store.neighbors("m.0t")  # both ends already cached: no label batch
        assert len(_StubHandler.seen) == 3
        assert store.label("m.0t") is None  # cached as unlabelled by the first batch

    def test_ungrammatical_neighbour_never_sent(self, stub_server):
        ns = FREEBASE_PREFIX
        _StubHandler.responses = [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": "http://example.org/x y"}, {"relation": f"{ns}r.a", "head": f"{ns}M.0BAD"}],
                ["relation", "tail", "head"],
            )),
            (200, sparql_json([], ["x", "label"])),
        ]
        store = SparqlGraphStore(stub_server, retries=0)
        store.neighbors("m.0x")
        assert "VALUES ?x { ns:m.0x }" in _StubHandler.seen[1]
        assert store.label("M.0BAD") is None and store.label("http://example.org/x y") is None
        assert len(_StubHandler.seen) == 2

    def test_first_row_per_id_wins(self, stub_server):
        _StubHandler.responses = edges_and_labels([], [], [("m.0x", "First"), ("m.0x", "Second")])
        store = SparqlGraphStore(stub_server, retries=0)
        store.neighbors("m.0x")
        assert store.label("m.0x") == "First"

    def test_full_answer_refills_the_short_direction(self, stub_server):
        # limit 2: four rows fill the union, so the single incoming row may be cut short
        outgoing = [("r.o", f"m.0t{i}") for i in range(3)]
        _StubHandler.responses = edges_and_labels(outgoing, [("r.i", "m.0h0")], [])[:1]
        _StubHandler.responses += [
            (200, sparql_json(union_rows([], [("r.i", "m.0h0"), ("r.i", "m.0h1")]), ["relation", "head"])),
            (200, sparql_json([], ["x", "label"])),
        ]
        store = SparqlGraphStore(stub_server, retries=0, limit=2)
        assert store.neighbors("m.0x") == [
            ("r.i", "m.0h0", Direction.INCOMING),
            ("r.i", "m.0h1", Direction.INCOMING),
            ("r.o", "m.0t0", Direction.OUTGOING),  # the union's first two outgoing rows
            ("r.o", "m.0t1", Direction.OUTGOING),
        ]
        assert len(_StubHandler.seen) == 3
        assert _StubHandler.seen[1].endswith("SELECT ?relation ?head WHERE { ?head ?relation ns:m.0x } LIMIT 2")
        assert "VALUES" in _StubHandler.seen[2]

    @pytest.mark.parametrize(
        "outgoing, incoming",
        [(2, 1), (1, 0), (2, 2), (0, 0)],
        ids=["short_of_full", "one_row", "full_both_at_limit", "empty"],
    )
    def test_no_refill_unless_a_full_answer_leaves_a_direction_short(self, stub_server, outgoing, incoming):
        _StubHandler.responses = edges_and_labels(
            [("r.o", f"m.0t{i}") for i in range(outgoing)], [("r.i", f"m.0h{i}") for i in range(incoming)], []
        )
        store = SparqlGraphStore(stub_server, retries=0, limit=2)
        assert len(store.neighbors("m.0x")) == outgoing + incoming
        assert len(_StubHandler.seen) == 2
        assert "UNION" in _StubHandler.seen[0] and "VALUES" in _StubHandler.seen[1]

    def test_cache_evicts_oldest_past_its_size(self, stub_server, monkeypatch):
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 2)
        _StubHandler.responses = [label_batch([(i, "L") for i in ["m.0a", "m.0b", "m.0c"]])]
        store = SparqlGraphStore(stub_server, retries=0)
        for entity in ["m.0a", "m.0b", "m.0c", "m.0c", "m.0b"]:
            store.label(entity)
        assert len(_StubHandler.seen) == 3
        store.label("m.0a")  # evicted first, so asked for again
        assert len(_StubHandler.seen) == 4

    def test_cache_survives_concurrent_lookups_and_eviction(self, monkeypatch):
        # kgqa bench --concurrency shares one store between threads
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 8)
        store = SparqlGraphStore("http://unused.invalid/sparql")
        store._execute = lambda query: [
            {"x": FREEBASE_PREFIX + i, "label": i.upper()} for i in re.findall(r"VALUES \?x \{ ns:(\S+) \}", query)
        ]
        ids = [f"m.0{i}" for i in range(40)]

        def lookups(worker):
            picks = [ids[(n * 7 + worker) % len(ids)] for n in range(10_000)]
            return [(i, store.label(i)) for i in picks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = [f.result(timeout=30) for f in [pool.submit(lookups, w) for w in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(text == i.upper() for pairs in results for i, text in pairs)
        assert sum(len(pairs) for pairs in results) == 6 * 10_000
        assert len(store._labels) <= 8

    def test_session_opened_lazily_and_reused(self, stub_server):
        _StubHandler.responses = [label_batch([("m.0a", "L"), ("m.0b", "L")])]
        store = SparqlGraphStore(stub_server, retries=0)
        assert store._session is None
        store.label("m.0a")
        session = store._session
        store.label("m.0b")
        assert isinstance(session, requests.Session) and store._session is session


class TestEnvironment:
    """The store takes proxy, CA-bundle and netrc settings from the environment
    once, and they are the ones ``requests`` computes for each request."""

    ENDPOINT = "http://sparql.test/sparql"

    @pytest.fixture
    def sent(self, monkeypatch):
        """Capture what each request would be sent with; nothing leaves the process."""
        sent = []

        def send(adapter, request, **kwargs):
            sent.append({
                "proxies": kwargs["proxies"],
                "verify": kwargs["verify"],
                "cert": kwargs["cert"],
                "auth": request.headers.get("Authorization"),
            })
            resp = requests.Response()
            resp.status_code = 200
            resp._content = sparql_json([], ["label"])
            resp.url, resp.request = request.url, request
            return resp

        monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", send)
        return sent

    @pytest.fixture
    def environment(self, monkeypatch, tmp_path):
        for name in ["http_proxy", "https_proxy", "all_proxy", "no_proxy", "CURL_CA_BUNDLE"]:
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        bundle = tmp_path / "ca.pem"
        bundle.write_text("")
        netrc = tmp_path / "netrc"
        netrc.write_text("machine sparql.test login reader password secret\n")
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.test:3128")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
        monkeypatch.setenv("NETRC", str(netrc))
        return monkeypatch, str(bundle)

    @pytest.mark.parametrize("no_proxy, proxied", [("other.test", True), ("sparql.test", False)])
    def test_requests_carry_what_requests_computes(self, sent, environment, no_proxy, proxied):
        monkeypatch, bundle = environment
        monkeypatch.setenv("NO_PROXY", no_proxy)
        execute(self.ENDPOINT, "q", retries=0)  # plain requests.post, environment read per request
        SparqlGraphStore(self.ENDPOINT, retries=0).label("m.0a")
        expected, got = sent
        assert got == expected
        assert (got["proxies"].get("http") == "http://proxy.test:3128") is proxied
        assert got["verify"] == bundle
        assert got["auth"].startswith("Basic ")

    def test_environment_resolved_once_per_store(self, sent, environment, monkeypatch):
        calls = []
        resolve = requests.sessions.get_environ_proxies
        monkeypatch.setattr(
            requests.sessions, "get_environ_proxies", lambda *a, **kw: calls.append(a) or resolve(*a, **kw)
        )
        store = SparqlGraphStore(self.ENDPOINT, retries=0)
        assert store._session is None and sent == [] and calls == []  # construction sends nothing
        for i in range(5):
            store.neighbors(f"m.0e{i}")
            store.label(f"m.0l{i}")
        assert len(sent) == 15  # per explore one union query and one label batch, plus each label()
        assert len(calls) == 1
        assert all(request == sent[0] for request in sent)
        SparqlGraphStore(self.ENDPOINT, retries=0).label("m.0a")
        assert len(calls) == 2  # a new store resolves it again


class TestMalformedBindings:
    """A row lacking a projected variable is MalformedResults, never KeyError."""

    ns = FREEBASE_PREFIX
    # stores here use limit 2, so a full union answer (four rows) refills
    # the direction it holds fewer than two rows of by a per-direction query
    CASES = {
        "edge row lacks tail": edges_and_labels([], [("r.a", f"m.0h{i}") for i in range(4)], [])[:1]
        + [(200, sparql_json([{"relation": f"{ns}r.b"}], ["relation", "tail"]))],
        "edge row lacks relation": [(200, sparql_json([{"tail": f"{ns}m.0t"}], ["relation", "tail", "head"]))],
        "edge row lacks head": edges_and_labels([("r.b", f"m.0t{i}") for i in range(4)], [], [])[:1]
        + [(200, sparql_json([{"relation": f"{ns}r.a"}], ["relation", "head"]))],
        "union row lacks both ends": [(200, sparql_json([{"relation": f"{ns}r.b"}], ["relation", "tail", "head"]))],
        "union row has both ends": [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": f"{ns}m.0t", "head": f"{ns}m.0h"}], ["relation", "tail", "head"]
            ))
        ],
        "label row lacks label": edges_and_labels([], [], [])[:1]
        + [(200, sparql_json([{"x": f"{ns}m.0x"}], ["x", "label"]))],
        "label row lacks x": edges_and_labels([], [], [])[:1]
        + [(200, sparql_json([{"label": "X"}], ["x", "label"]))],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_neighbors_raises_malformed(self, stub_server, case):
        _StubHandler.responses = self.CASES[case]
        with pytest.raises(MalformedResults):
            SparqlGraphStore(stub_server, retries=0, limit=2).neighbors("m.0x")

    def test_single_label_row_lacking_label(self, stub_server):
        _StubHandler.responses = [(200, sparql_json([{"x": f"{self.ns}m.0x"}], ["x", "label"]))]
        with pytest.raises(MalformedResults):
            SparqlGraphStore(stub_server, retries=0).label("m.0x")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_engine_run_still_finishes(self, stub_server, case):
        _StubHandler.responses = self.CASES[case]
        engine = Engine(
            backend=StageBackend(),
            kg=SparqlGraphStore(stub_server, retries=0, limit=2),
            embedder=HashingEmbedder(),
        )
        result = engine.run("where is it?", ["m.0x"])
        assert result.trace[-1].stage is Stage.FINISH


class TestInMemoryStore:
    def test_bidirectional_indexing(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("A\tr\tB\n")
        store = load_memory_store(path)
        assert store.neighbors("A") == [("r", "B", Direction.OUTGOING)]
        assert store.neighbors("B") == [("r", "A", Direction.INCOMING)]

    def test_absent_entity_empty(self):
        assert InMemoryGraphStore().neighbors("nope") == []

    def test_malformed_line_reports_number(self, tmp_path):
        lines = ["a\tr\tb"] * 6 + ["two\tcolumns"]
        path = tmp_path / "kg.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 7"):
            load_memory_store(path)

    def test_labels_and_comments(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("# comment\nA\tr\tB\nlabel\tA\tAlpha City\n\n")
        store = load_memory_store(path)
        assert store.label("A") == "Alpha City"
        assert store.label("B") is None

    def test_neighbors_sorted(self):
        store = InMemoryGraphStore()
        store.add_triple("x", "r2", "b")
        store.add_triple("x", "r1", "c")
        store.add_triple("a", "r1", "x")
        assert store.neighbors("x") == [
            ("r1", "a", Direction.INCOMING),
            ("r1", "c", Direction.OUTGOING),
            ("r2", "b", Direction.OUTGOING),
        ]

    def test_entity_with_label(self):
        store = InMemoryGraphStore()
        store.add_label("m.1", "Paris")
        assert store.entity_with_label("  paris ") == "m.1"
        assert store.entity_with_label("London") is None
