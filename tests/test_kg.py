"""Graph access layer: query rendering, protocol client, in-memory store."""

import base64
import dataclasses
import json
import logging
import random
import re
import ssl
import string
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import parse_qs

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    JsonStub,
    StageBackend,
    TemplateEndpoint,
    labelled,
    make_sparql_store,
    make_store,
    reset,
    serving,
    sparql_json,
)
from scenarios import FIXTURES, build_engine, events_by_stage, golden_trace, load_meta
from kgqa_engine import kg as kg_mod
from kgqa_engine import transport
from kgqa_engine.config import FREEBASE_PREFIX, EngineConfig
from kgqa_engine.errors import InvalidEntityId, KgUnavailable, MalformedResults, ParseError
from kgqa_engine.kg import (
    InMemoryGraphStore,
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

    def test_label_property_reaches_every_label_pattern(self):
        config = EngineConfig(label_property="common.topic.alias")
        queries = [render_sparql(t, "m.0a", config) for t in [SparqlTemplate.LABELS, SparqlTemplate.NEIGHBORS]]
        assert [q.count(" ns:common.topic.alias ?label") for q in queries] == [1, 3]
        assert "type.object.name" not in "".join(queries)

    def test_batched_label_query_validates_every_id(self):
        with pytest.raises(InvalidEntityId):
            render_sparql(SparqlTemplate.LABELS, ["m.0a", "m.0a } ?s ?p ?o {"])

    def test_single_id_templates_take_one_id(self):
        with pytest.raises(ValueError):
            render_sparql(SparqlTemplate.NEIGHBORS, ["m.0a", "m.0b"])

    def test_limit_applied(self):
        query = render_sparql(SparqlTemplate.OUTGOING_EDGES, "m.0abc", EngineConfig(kg_result_limit=17))
        assert query.endswith("LIMIT 17")

    def test_neighbors_query_unions_both_directions(self):
        query = render_sparql(SparqlTemplate.NEIGHBORS, "m.0abc", EngineConfig(kg_result_limit=17))
        assert query.endswith(  # limit edges per direction, two directions; label rows count toward it
            "SELECT ?relation ?tail ?head ?label WHERE { { ns:m.0abc ns:type.object.name ?label } "
            "UNION { ns:m.0abc ?relation ?tail OPTIONAL { ?tail ns:type.object.name ?label } } "
            "UNION { ?head ?relation ns:m.0abc OPTIONAL { ?head ns:type.object.name ?label } } } LIMIT 34"
        )

    def test_edges_query_unions_both_directions_alone(self):
        query = render_sparql(SparqlTemplate.EDGES, "m.0abc", EngineConfig(kg_result_limit=17))
        assert query.endswith(
            "SELECT ?relation ?tail ?head WHERE { { ns:m.0abc ?relation ?tail } UNION { ?head ?relation ns:m.0abc } } "
            "LIMIT 34"
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
        query = render_sparql(SparqlTemplate.LABELS, ["E17"], EngineConfig(entity_id_pattern=r"E\d+"))
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


def sent():
    """The query of each request the JsonStub server got, in order."""
    return [parse_qs(request["body"])["query"][0] for request in JsonStub.seen]


class TestExecute:
    def test_parses_two_rows(self, json_stub):
        JsonStub.responses = [
            (200, sparql_json([{"relation": "r1", "tail": "t1"}, {"relation": "r2", "tail": "t2"}], ["relation", "tail"]))
        ]
        rows = execute(json_stub, "SELECT ...", retries=0)
        assert rows == [{"relation": "r1", "tail": "t1"}, {"relation": "r2", "tail": "t2"}]

    def test_500_three_times_raises_unavailable(self, json_stub, fast_backoff):
        JsonStub.responses = [(500, b"oops")]
        with pytest.raises(KgUnavailable):
            execute(json_stub, "SELECT ...", retries=2)
        assert len(sent()) == 3

    def test_recovers_after_transient_500(self, json_stub, fast_backoff):
        JsonStub.responses = [
            (500, b"oops"),
            (200, sparql_json([{"label": "x"}], ["label"])),
        ]
        assert execute(json_stub, "q", retries=2) == [{"label": "x"}]

    def test_truncated_json_is_malformed(self, json_stub):
        JsonStub.responses = [(200, b'{"head": {"vars": ["x"]}, "resu')]
        with pytest.raises(MalformedResults):
            execute(json_stub, "q", retries=0)

    def test_missing_results_key_is_malformed(self, json_stub):
        JsonStub.responses = [(200, b'{"head": {"vars": []}}')]
        with pytest.raises(MalformedResults):
            execute(json_stub, "q", retries=0)

    def test_unreachable_endpoint(self, fast_backoff):
        with pytest.raises(KgUnavailable):
            execute("http://127.0.0.1:1/sparql", "q", retries=1, timeout=0.2)

    def test_client_error_fails_fast(self, json_stub, sleeps):
        JsonStub.responses = [(400, b"bad query")]
        with pytest.raises(KgUnavailable, match="HTTP 400"):
            execute(json_stub, "q", retries=2)
        assert len(sent()) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_server_error_and_throttling_are_retried(self, json_stub, sleeps, status):
        JsonStub.responses = [(status, b"busy")]
        with pytest.raises(KgUnavailable, match=f"HTTP {status}"):
            execute(json_stub, "q", retries=2)
        assert len(sent()) == 3
        assert sleeps == [0.5, 1.0]

    def test_each_retry_is_logged(self, json_stub, caplog, fast_backoff):
        caplog.set_level(logging.INFO, logger="kgqa_engine.kg")
        JsonStub.responses = [(500, b"oops"), (200, sparql_json([], ["label"]))]
        assert execute(json_stub, "q", retries=2) == []
        assert [(r.name, r.levelno) for r in caplog.records] == [("kgqa_engine.kg", logging.INFO)]
        message = caplog.records[0].getMessage()
        assert "attempt 1 of 3" in message and "HTTP 500" in message and "retrying in 0.01 s" in message


class TestSparqlGraphStore:
    def test_neighbors_merges_and_localizes(self, json_stub):
        ns = FREEBASE_PREFIX
        JsonStub.responses = [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": f"{ns}m.0t"}, {"relation": f"{ns}r.a", "head": f"{ns}m.0h"}],
                ["relation", "tail", "head"],
            )),
            (200, sparql_json([], ["x", "label"])),
        ]
        store = make_sparql_store(json_stub, http_retries=0)
        assert store.neighbors("m.0x") == [
            ("r.a", "m.0h", Direction.INCOMING),
            ("r.b", "m.0t", Direction.OUTGOING),
        ]

    def test_directions_are_strings_that_answer_value(self, json_stub):
        JsonStub.responses = [joined([("r.b", "m.0t")], [("r.a", "m.0h")], [])]
        directions = [d for _, _, d in make_sparql_store(json_stub, http_retries=0).neighbors("m.0x")]
        assert [(d, type(d.value)) for d in directions] == [("incoming", str), ("outgoing", str)]
        assert [d.value for d in directions] == ["incoming", "outgoing"]

    def test_label_returns_none_for_ungrammatical_id(self, json_stub):
        store = make_sparql_store(json_stub, http_retries=0)
        assert store.label("not an id") is None
        assert sent() == []

    def test_label_lookup(self, json_stub):
        JsonStub.responses = [label_batch([("m.0paris", "Paris")])]
        assert make_sparql_store(json_stub, http_retries=0).label("m.0paris") == "Paris"

    def test_label_cache_evicts_oldest_first(self, json_stub, monkeypatch):
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 3)
        store = make_sparql_store(json_stub, http_retries=0)
        store._remember({"m.0a": "A", "m.0b": "B", "m.0c": "C"})
        store._remember({"m.0a": "A2"})  # an update keeps its place: still the oldest
        assert list(store._labels.items()) == [("m.0a", "A2"), ("m.0b", "B"), ("m.0c", "C")]
        store._remember({"m.0d": "D", "m.0e": None})
        assert list(store._labels) == ["m.0c", "m.0d", "m.0e"]
        assert store.label("m.0e") is None and store.label("m.0c") == "C"
        assert sent() == []  # both served from the cache
        JsonStub.responses = [label_batch([("m.0a", "A3")])]
        assert store.label("m.0a") == "A3"  # evicted, so asked again
        assert len(sent()) == 1
        assert list(store._labels) == ["m.0d", "m.0e", "m.0a"]

    def test_unavailable_endpoint_raises_through_session(self):
        client = transport.Client()
        try:
            with pytest.raises(KgUnavailable):
                execute("http://127.0.0.1:1/sparql", "q", retries=0, timeout=0.2, session=client)
        finally:
            client.close()


def union_rows(outgoing, incoming):
    """Rows of the edges-only queries: (relation, tail) rows, then (relation, head) rows."""
    ns = FREEBASE_PREFIX
    return [{"relation": f"{ns}{r}", "tail": f"{ns}{t}"} for r, t in outgoing] + [
        {"relation": f"{ns}{r}", "head": f"{ns}{h}"} for r, h in incoming
    ]


def label_batch(labels):
    """Stub response to a batched label query: one (x, label) row per pair."""
    ns = FREEBASE_PREFIX
    return (200, sparql_json([{"x": f"{ns}{x}", "label": text} for x, text in labels], ["x", "label"]))


def joined(outgoing, incoming, labels, entity="m.0x"):
    """Stub response to the NEIGHBORS query: a row per label of ``entity``, then each edge's rows;
    ``labels`` are (id, text) pairs."""
    texts = {}
    for i, text in labels:
        texts.setdefault(i, []).append(text)
    rows = [{"label": text} for text in texts.get(entity, [])]
    for edge, (_, end) in zip(union_rows(outgoing, incoming), [*outgoing, *incoming]):
        rows += labelled(edge, texts.get(end, []))
    return (200, sparql_json(rows, ["relation", "tail", "head", "label"]))


class TestRoundTrips:
    """One explore costs one POST, on a cold label cache as on a warm one: each edge row carries its far
    end's label, and one row the entity's own.  Labels are then served from the cache.  Only a full
    answer, which label rows help fill, costs more: an edges-only query per direction it cut short, and
    one label batch for the ids those bring in and for the entity if its label row was cut.  A full
    answer that ids with several labels crowd makes the store ask for edges and labels apart from then
    on: the edges of both directions, then one label batch for the ids not cached.  An entity read
    again costs no POST: its neighbour list is cached for the store's lifetime, up to
    ``NEIGHBOR_CACHE_EDGES`` edges, oldest entities evicted first, and only the labels evicted since
    cost one label batch.  ``close()`` clears neither cache."""

    def test_explore_costs_one_post(self, json_stub):
        JsonStub.responses = [joined(
            [("r.b", "m.0t1"), ("r.c", "m.0t2")],
            [("r.a", "m.0h")],
            [("m.0x", "Frontier"), ("m.0t1", "Tail one"), ("m.0h", "Head")],
        )]
        store = make_sparql_store(json_stub, http_retries=0)
        neighbors = store.neighbors("m.0x")
        labels = [store.label("m.0x")] + [store.label(other) for _, other, _ in neighbors]
        assert labels == ["Frontier", "Head", "Tail one", None]
        assert len(sent()) == 1
        assert "UNION" in sent()[0] and "OPTIONAL" in sent()[0]

    def test_a_row_holding_only_label_is_the_entity_own_label(self, json_stub):
        JsonStub.responses = [(200, sparql_json([{"label": "Own"}], ["relation", "tail", "head", "label"]))]
        store = make_sparql_store(json_stub, http_retries=0)
        assert store.neighbors("m.0x") == []
        assert store.label("m.0x") == "Own" and len(sent()) == 1

    @pytest.mark.parametrize("rows, expected", [([("m.0paris", "Paris")], "Paris"), ([], None)])
    def test_repeated_label_costs_nothing(self, json_stub, rows, expected):
        JsonStub.responses = [label_batch(rows)]
        store = make_sparql_store(json_stub, http_retries=0)
        assert store.label("m.0paris") == expected
        assert store.label("m.0paris") == expected  # "no label" is cached too
        assert len(sent()) == 1

    def test_ungrammatical_label_costs_nothing_the_second_time(self, json_stub, monkeypatch):
        store = make_sparql_store(json_stub, http_retries=0)
        assert store.label("people.person.nationality") is None  # a relation id
        # the second lookup is a cache hit: the grammar is not checked again
        monkeypatch.setattr(store, "_fetch_labels", None)
        assert store.label("people.person.nationality") is None
        assert sent() == []

    def test_labelled_neighbours_are_not_asked_for_again(self, json_stub):
        JsonStub.responses = [joined([("r.b", "m.0t")], [], [("m.0x", "X")])]
        # the second answer labels m.0t, which the first left unlabelled: a cached id is not taken again
        JsonStub.responses += [joined([], [("r.b", "m.0x")], [("m.0t", "T"), ("m.0x", "X2")], entity="m.0t")]
        store = make_sparql_store(json_stub, http_retries=0)
        store.neighbors("m.0x")
        store.neighbors("m.0t")
        assert len(sent()) == 2
        assert store.label("m.0t") is None and store.label("m.0x") == "X"

    def test_unlabelled_neighbour_is_never_asked_for_again(self, json_stub, monkeypatch):
        JsonStub.responses = [joined([("r.b", "m.0cvt")], [], [("m.0x", "X")])]
        JsonStub.responses += [joined([("r.c", "m.0cvt")], [], [], entity="m.0y")]
        store = make_sparql_store(json_stub, http_retries=0)
        store.neighbors("m.0x")
        store.neighbors("m.0y")
        assert len(sent()) == 2  # no label batch
        monkeypatch.setattr(store, "_fetch_labels", None)  # label() reads the cache alone
        assert store.label("m.0cvt") is None and store.label("m.0y") is None

    def test_ungrammatical_neighbour_never_sent(self, json_stub, monkeypatch):
        ns = FREEBASE_PREFIX
        JsonStub.responses = [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": "http://example.org/x y", "label": "Outside"},
                 {"relation": f"{ns}r.a", "head": f"{ns}M.0BAD", "label": "Bad"}],
                ["relation", "tail", "head", "label"],
            )),
        ]
        store = make_sparql_store(json_stub, http_retries=0)
        store.neighbors("m.0x")
        assert len(sent()) == 1
        # neighbors() cached both as unlabelled, whatever the endpoint said: label() reads the cache alone
        monkeypatch.setattr(store, "_fetch_labels", None)
        assert store.label("M.0BAD") is None and store.label("http://example.org/x y") is None
        assert store.label("m.0x") is None  # no row held its own label

    def test_first_row_per_id_wins(self, json_stub):
        labels = [("m.0x", "First"), ("m.0x", "Second"), ("m.0t", "T1"), ("m.0t", "T2")]
        JsonStub.responses = [joined([("r.b", "m.0t")], [("r.a", "m.0t")], labels)]
        store = make_sparql_store(json_stub, http_retries=0)
        store.neighbors("m.0x")
        assert store.label("m.0x") == "First" and store.label("m.0t") == "T1"
        assert len(sent()) == 1

    def test_several_labels_per_id_fill_the_answer_without_cutting_an_edge(self):
        # limit 2: an answer of four rows is full, and here the entity's three label rows fill most of it
        edges = [("m.0x", "r.o", "m.0t0"), ("m.0x", "r.o", "m.0t1"), ("m.0x", "r.o", "m.0t2"),
                 ("m.0h0", "r.i", "m.0x")]
        labels = {i: [f"{i} {n}" for n in range(3)] for i in ["m.0x", "m.0t0", "m.0t1", "m.0t2", "m.0h0"]}
        endpoint = TemplateEndpoint(edges, labels)
        store = make_sparql_store("http://unused.invalid/sparql", kg_result_limit=2)
        store._execute = endpoint
        memory_store = make_store([(h, r, t) for h, r, t in edges if "m.0t2" not in (h, t)])
        assert store.neighbors("m.0x") == memory_store.neighbors("m.0x")
        assert endpoint.answers == [("neighbors", 4), ("outgoing", 2), ("incoming", 1), ("labels", 6)]
        assert [store.label(i) for i in ["m.0x", "m.0t0", "m.0t1", "m.0h0"]] == [
            "m.0x 0", "m.0t0 0", "m.0t1 0", "m.0h0 0"]
        assert len(endpoint.answers) == 4  # every label came from the cache

    def test_labels_crowding_a_full_answer_make_the_store_ask_edges_and_labels_apart(self):
        edges = [("m.0x", "r.o", "m.0t0"), ("m.0x", "r.o", "m.0t1"), ("m.0h0", "r.i", "m.0x"),
                 ("m.0z", "r.z", "m.0w")]
        labels = {i: [f"{i} {n}" for n in range(3)] for i in ["m.0x", "m.0t0", "m.0t1", "m.0h0", "m.0z", "m.0w"]}
        endpoint = TemplateEndpoint(edges, labels)
        store = make_sparql_store("http://unused.invalid/sparql", kg_result_limit=4)
        store._execute = endpoint
        store.neighbors("m.0t0")  # the entity's three label rows and its edge's three: not full (LIMIT 8)
        assert endpoint.answers == [("neighbors", 6)] and store._join_labels
        store.neighbors("m.0x")  # twelve rows cut to eight, holding two of the four edges
        assert endpoint.answers[1] == ("neighbors", 8) and not store._join_labels
        del endpoint.answers[:]
        assert store.neighbors("m.0z") == [("r.z", "m.0w", Direction.OUTGOING)]
        assert store.neighbors("m.0z") == [("r.z", "m.0w", Direction.OUTGOING)]
        # edges, then one label batch for the ids not cached; the repeat is served from the neighbour cache
        assert endpoint.answers == [("edges", 1), ("labels", 6)]
        assert store.neighbors("m.0w") == [("r.z", "m.0z", Direction.INCOMING)]
        assert endpoint.answers[2:] == [("edges", 1)]  # every id cached: the edges alone
        assert [store.label(i) for i in ["m.0z", "m.0w"]] == ["m.0z 0", "m.0w 0"]
        assert len(endpoint.answers) == 3

    EDGES = [("m.0x", "r.o", "m.0t0"), ("m.0x", "r.o", "m.0t1"), ("m.0h0", "r.i", "m.0x")]
    LABELS = {i: [i.upper()] for i in ["m.0x", "m.0t0", "m.0t1", "m.0h0"]}

    def test_repeated_neighbors_send_nothing_and_return_a_fresh_list(self):
        endpoint = TemplateEndpoint(self.EDGES, self.LABELS)
        store = make_sparql_store("http://unused.invalid/sparql")
        store._execute = endpoint
        first = store.neighbors("m.0x")
        second = store.neighbors("m.0x")
        assert endpoint.answers == [("neighbors", 4)]
        assert second == first == make_store(self.EDGES).neighbors("m.0x") and second is not first
        first.reverse()
        second.append(("r.z", "m.0junk", Direction.INCOMING))
        store.close()  # closes the pool; both caches stay
        assert store.neighbors("m.0x") == make_store(self.EDGES).neighbors("m.0x")
        assert [store.label(i) for i in ["m.0x", "m.0h0", "m.0t0", "m.0t1"]] == ["M.0X", "M.0H0", "M.0T0", "M.0T1"]
        assert len(endpoint.answers) == 1

    def test_a_hit_whose_labels_were_evicted_asks_one_label_batch(self, monkeypatch):
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 2)
        endpoint = TemplateEndpoint(self.EDGES, self.LABELS)
        store = make_sparql_store("http://unused.invalid/sparql")
        store._execute = endpoint
        neighbors = store.neighbors("m.0x")  # caches m.0x, m.0h0, m.0t0 and m.0t1 in turn: the last two stay
        assert list(store._labels) == ["m.0t0", "m.0t1"]
        del endpoint.answers[:]
        assert store.neighbors("m.0x") == neighbors
        assert endpoint.answers == [("labels", 2)]  # m.0x and m.0h0 in one batch, no label() each
        assert list(store._labels.items()) == [("m.0x", "M.0X"), ("m.0h0", "M.0H0")]

    @pytest.mark.parametrize("failure, error", [
        ([(500, b"oops")] * 2, KgUnavailable),  # the first attempt and its one retry
        ([(200, sparql_json([{"relation": f"{FREEBASE_PREFIX}r.b"}], ["relation", "tail", "head"]))],
         MalformedResults),
        # both directions at the limit and no own-label row: the label batch for m.0x is malformed
        ([joined([("r.b", "m.0t0"), ("r.b", "m.0t1")], [("r.a", "m.0h0"), ("r.a", "m.0h1")], []),
          (200, sparql_json([{"x": f"{FREEBASE_PREFIX}m.0x"}], ["x", "label"]))], MalformedResults),
    ], ids=["unavailable", "malformed_edges", "malformed_label_batch"])
    def test_a_call_that_raised_keeps_nothing(self, json_stub, fast_backoff, failure, error):
        JsonStub.responses = [*failure, joined([("r.b", "m.0t")], [], [("m.0x", "X")])]
        store = make_sparql_store(json_stub, http_retries=1, kg_result_limit=2)
        with pytest.raises(error):
            store.neighbors("m.0x")
        assert len(sent()) == len(failure)
        assert store.neighbors("m.0x") == [("r.b", "m.0t", Direction.OUTGOING)]  # asked again
        assert len(sent()) == len(failure) + 1
        assert store.neighbors("m.0x") == [("r.b", "m.0t", Direction.OUTGOING)]  # now kept
        assert len(sent()) == len(failure) + 1

    def test_an_entity_outside_the_grammar_is_never_kept(self, json_stub):
        store = make_sparql_store(json_stub, http_retries=0)
        for _ in range(2):
            with pytest.raises(InvalidEntityId):
                store.neighbors("M.0BAD")
        assert sent() == [] and store._neighbor_lists is None

    def test_neighbor_cache_evicts_the_oldest_entities_past_its_edge_bound(self, monkeypatch):
        monkeypatch.setattr(kg_mod, "NEIGHBOR_CACHE_EDGES", 4)
        endpoint = TemplateEndpoint(self.EDGES, self.LABELS)
        store = make_sparql_store("http://unused.invalid/sparql")
        store._execute = endpoint
        for entity in ["m.0x", "m.0t0", "m.0h0", "m.0nothing"]:  # 3 edges, 1, 1, and none, which counts as 1
            store.neighbors(entity)
        assert list(store._neighbor_lists) == ["m.0t0", "m.0h0", "m.0nothing"] and store._neighbor_edges == 3
        del endpoint.answers[:]
        store.neighbors("m.0t0")
        store.neighbors("m.0x")  # evicted first, so asked for again; it evicts m.0t0 in turn
        assert endpoint.answers == [("neighbors", 4)]
        assert list(store._neighbor_lists) == ["m.0nothing", "m.0x"] and store._neighbor_edges == 4

    def test_plan_correction_reads_the_frontier_once(self):
        meta = load_meta("replan")
        edges, labels = [], {}
        for line in (FIXTURES / "replan" / "kg.tsv").read_text().splitlines():
            a, b, c = line.split("\t")
            if a == "label":
                labels[b] = [c]
            else:
                edges.append((a, b, c))
        endpoint = TemplateEndpoint(edges, labels)
        store = make_sparql_store("http://unused.invalid/sparql", **meta["config"])
        store._execute = endpoint
        result = dataclasses.replace(build_engine("replan"), kg=store).run(meta["question"], meta["topic_entities"])
        golden = [json.loads(line) for line in golden_trace("replan").splitlines()]
        explores = [e.payload["frontier"] for e in events_by_stage(result.trace, "act")]
        assert explores == ["m.0danube"] * 3 and result.replans == 1
        # the Path Correction retry re-ranks what it kept, and the replan's explore reads the neighbour cache
        assert [template for template, _ in endpoint.answers] == ["neighbors"]
        assert [e.payload["decision"] for e in events_by_stage(result.trace, "evaluate")] == [
            e["payload"]["decision"] for e in golden if e["stage"] == "evaluate"]
        assert result.answer == golden[-1]["payload"]["answer"] == meta["gold"]

    def test_full_answer_refills_the_short_direction(self, json_stub):
        # limit 2: four rows fill the union, so the single incoming row may be cut short
        outgoing = [("r.o", f"m.0t{i}") for i in range(3)]
        JsonStub.responses = [joined(outgoing, [("r.i", "m.0h0")], [])]
        JsonStub.responses += [
            (200, sparql_json(union_rows([], [("r.i", "m.0h0"), ("r.i", "m.0h1")]), ["relation", "head"])),
            (200, sparql_json([], ["x", "label"])),
        ]
        store = make_sparql_store(json_stub, http_retries=0, kg_result_limit=2)
        assert store.neighbors("m.0x") == [
            ("r.i", "m.0h0", Direction.INCOMING),
            ("r.i", "m.0h1", Direction.INCOMING),
            ("r.o", "m.0t0", Direction.OUTGOING),  # the union's first two outgoing rows
            ("r.o", "m.0t1", Direction.OUTGOING),
        ]
        assert len(sent()) == 3
        assert sent()[1].endswith("SELECT ?relation ?head WHERE { ?head ?relation ns:m.0x } LIMIT 2")
        assert "VALUES" in sent()[2]

    @pytest.mark.parametrize(
        "outgoing, incoming",
        [(2, 1), (1, 0), (2, 2), (0, 0)],
        ids=["short_of_full", "one_row", "full_both_at_limit", "empty"],
    )
    def test_no_refill_unless_a_full_answer_leaves_a_direction_short(self, json_stub, outgoing, incoming):
        JsonStub.responses = [joined(
            [("r.o", f"m.0t{i}") for i in range(outgoing)], [("r.i", f"m.0h{i}") for i in range(incoming)], []
        ), label_batch([])]
        store = make_sparql_store(json_stub, http_retries=0, kg_result_limit=2)
        assert len(store.neighbors("m.0x")) == outgoing + incoming
        assert "UNION" in sent()[0]
        # a full answer without the entity's own label row leaves only that label to ask for
        full = outgoing + incoming == 4
        assert [q.split("WHERE ")[1] for q in sent()[1:]] == [
            "{ VALUES ?x { ns:m.0x } ?x ns:type.object.name ?label }"
        ] * full

    def test_cache_evicts_oldest_past_its_size(self, json_stub, monkeypatch):
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 2)
        JsonStub.responses = [label_batch([(i, "L") for i in ["m.0a", "m.0b", "m.0c"]])]
        store = make_sparql_store(json_stub, http_retries=0)
        for entity in ["m.0a", "m.0b", "m.0c", "m.0c", "m.0b"]:
            store.label(entity)
        assert len(sent()) == 3
        store.label("m.0a")  # evicted first, so asked for again
        assert len(sent()) == 4

    def test_cache_survives_concurrent_lookups_and_eviction(self, monkeypatch):
        # kgqa bench --concurrency shares one store between threads
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 8)
        ids = [f"m.0{i}" for i in range(40)]
        store = make_sparql_store("http://unused.invalid/sparql")
        store._execute = TemplateEndpoint([], {i: [i.upper()] for i in ids})

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

    def test_neighbors_survive_concurrent_calls_and_eviction(self, monkeypatch):
        # kgqa bench --concurrency shares one store between threads; limit 3 makes many answers full
        rng = random.Random(3)
        ids = [f"m.0{i}" for i in range(30)]
        edges = list(dict.fromkeys((rng.choice(ids), rng.choice(["r.a", "r.b"]), rng.choice(ids)) for _ in range(90)))
        labels = {i: [f"{i} {n}" for n in range(rng.randrange(3))] for i in ids}

        def answer(store, entity):
            neighbors = store.neighbors(entity)
            return neighbors, [store.label(i) for i in [entity, *(other for _, other, _ in neighbors)]]

        single = make_sparql_store("http://unused.invalid/sparql", kg_result_limit=3)
        single._execute = TemplateEndpoint(edges, labels)
        expected = {entity: answer(single, entity) for entity in ids}
        monkeypatch.setattr(kg_mod, "LABEL_CACHE_SIZE", 8)
        monkeypatch.setattr(kg_mod, "NEIGHBOR_CACHE_EDGES", 12)
        store = make_sparql_store("http://unused.invalid/sparql", kg_result_limit=3)
        store._execute = endpoint = TemplateEndpoint(edges, labels)

        def calls(worker):
            wrong, largest = 0, (0, 0)
            for n in range(1_000):
                entity = ids[(n * 7 + worker) % len(ids)]
                wrong += answer(store, entity) != expected[entity]
                with store._lock:  # the sizes between two updates, never mid-update
                    kept = sum(len(ends) or 1 for _, ends, _ in (store._neighbor_lists or {}).values())
                    assert kept == store._neighbor_edges
                    largest = max(largest[0], len(store._labels)), max(largest[1], kept)
            return wrong, largest

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(calls, w) for w in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert [wrong for wrong, _ in results] == [0] * 6
        label_sizes, edge_counts = zip(*(largest for _, largest in results))
        assert max(label_sizes) <= 8 and max(edge_counts) <= 12
        # 12 edges hold a few of the 30 entities, so entities were evicted and asked for again
        assert sum(template in ("neighbors", "edges") for template, _ in endpoint.answers) > len(ids)

    IDS = ["m.0a", "m.0b", "m.0c", "m.0d", "M.0E", "m.0f g"]  # the last two are outside the id grammar

    @given(
        edges=st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(["r.a", "r.b"]), st.sampled_from(IDS)),
                       max_size=12, unique=True),
        labels=st.dictionaries(st.sampled_from(IDS), st.lists(st.text("xyz", max_size=2), max_size=3)),
        limit=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_neighbors_and_labels_equal_the_reference(self, edges, labels, limit, seed):
        endpoint = TemplateEndpoint(edges, labels, random.Random(seed))
        store = make_sparql_store("http://unused.invalid/sparql", kg_result_limit=limit)
        store._execute = endpoint
        memory_store = make_store(edges)
        grammatical = [i for i in self.IDS if re.fullmatch(store.config.entity_id_pattern, i)]
        first = []
        for entity in grammatical:
            kept = {*[(r, t, Direction.OUTGOING) for h, r, t in edges if h == entity][:limit],
                    *[(r, h, Direction.INCOMING) for h, r, t in edges if t == entity][:limit]}
            joined, before = store._join_labels, len(endpoint.answers)
            first.append(store.neighbors(entity))
            assert first[-1] == [n for n in memory_store.neighbors(entity) if n in kept]
            answers = endpoint.answers[before:]
            if joined:  # the joined query, an edges-only query per direction, one label batch
                assert answers[0][0] == "neighbors" and len(answers) <= 4
                if answers[0][1] < 2 * limit:
                    assert len(answers) == 1
            else:  # the edges of both directions, a refill of at most one, one label batch
                assert answers[0][0] == "edges" and len(answers) <= 3
        if all(len(texts) <= 1 for texts in labels.values()):
            assert store._join_labels  # with at most one label per id, label rows never crowd an edge out
        asked = len(endpoint.answers)
        assert [store.neighbors(entity) for entity in grammatical] == first  # a second pass reads the caches
        assert len(endpoint.answers) == asked
        for i in self.IDS:
            assert store.label(i) == ((labels.get(i) or [None])[0] if i in grammatical else None)

    def test_session_opened_lazily_and_reused(self, json_stub, monkeypatch):
        opened = []
        open_pool = transport.open_pool
        monkeypatch.setattr(transport, "open_pool", lambda url: opened.append(url) or open_pool(url))
        JsonStub.responses = [label_batch([("m.0a", "L"), ("m.0b", "L")])]
        store = make_sparql_store(json_stub, http_retries=0)
        assert opened == []
        store.label("m.0a")
        store.label("m.0b")
        assert opened == [json_stub] and len(sent()) == 2

    def test_every_request_goes_through_execute(self, json_stub, monkeypatch):
        # the benchmark counts SPARQL round-trips by patching kg.execute
        queries = []
        monkeypatch.setattr(kg_mod, "execute", lambda url, query, **kw: queries.append(query) or execute(url, query, **kw))
        # a full union answer with one direction short: union, refill, label batch; then one label()
        outgoing = [("r.o", f"m.0t{i}") for i in range(3)]
        JsonStub.responses = [joined(outgoing, [("r.i", "m.0h")], [])]
        JsonStub.responses += [(200, sparql_json(union_rows([], [("r.i", "m.0h")]), ["relation", "head"]))]
        JsonStub.responses += [label_batch([("m.0x", "X")]), label_batch([])]
        store = make_sparql_store(json_stub, http_retries=0, kg_result_limit=2)
        store.neighbors("m.0x")
        assert store.label("m.0x") == "X" and store.label("m.0new") is None
        assert len(queries) == 4 and queries == sent()


TLS = Path(__file__).parent / "tls"  # cert.pem: self-signed for IP 127.0.0.1 until 2126 (openssl req -x509)


EMPTY = (200, b'{"results": {"bindings": []}}')


class ProxyStub(JsonStub):
    """A forward HTTP proxy that answers every request itself with an empty SPARQL result."""

    responses, seen, wire = [EMPTY], [], []


class TestEnvironment:
    """The store takes proxy, CA-bundle and netrc settings from the environment
    on its first query, once, as ``requests`` computes them."""

    @pytest.fixture
    def environment(self, monkeypatch, tmp_path):
        for name in ["http_proxy", "https_proxy", "all_proxy", "no_proxy", "CURL_CA_BUNDLE", "REQUESTS_CA_BUNDLE"]:
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login reader password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        return monkeypatch

    @pytest.fixture
    def proxy(self):
        ProxyStub.seen, ProxyStub.wire = [], []
        with serving(ProxyStub) as port:
            yield f"http://pu:pp@127.0.0.1:{port}"

    @staticmethod
    def basic(credentials):
        return "Basic " + base64.b64encode(credentials.encode()).decode()

    @pytest.mark.parametrize("no_proxy, proxied", [("other.test", True), ("127.0.0.1", False)])
    def test_requests_carry_what_requests_computes(self, json_stub, proxy, environment, no_proxy, proxied):
        JsonStub.responses = [EMPTY]
        environment.setenv("HTTP_PROXY", proxy)
        environment.setenv("NO_PROXY", no_proxy)
        execute(json_stub, "q", retries=0)  # without a client: a pool opened for this query alone
        make_sparql_store(json_stub, http_retries=0).label("m.0a")
        sent, bypassed = (ProxyStub.wire, JsonStub.wire) if proxied else (JsonStub.wire, ProxyStub.wire)
        assert bypassed == [] and len(sent) == 2
        assert [r["path"] for r in sent] == [json_stub if proxied else "/v1"] * 2
        assert [r["headers"]["Authorization"] for r in sent] == [self.basic("reader:secret")] * 2
        assert [r["headers"]["Proxy-Authorization"] for r in sent] == [self.basic("pu:pp") if proxied else None] * 2

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    def test_ca_bundle_reaches_the_pool(self, environment, variable):
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS / "cert.pem", TLS / "key.pem")
        reset(JsonStub, [EMPTY])
        with serving(JsonStub, lambda sock: context.wrap_socket(sock, server_side=True)) as port:
            endpoint = f"https://127.0.0.1:{port}/v1"
            with pytest.raises(KgUnavailable, match="CERTIFICATE_VERIFY_FAILED"):
                make_sparql_store(endpoint, http_retries=0).label("m.0a")  # not in the default bundle
            environment.setenv(variable, str(TLS / "cert.pem"))
            assert make_sparql_store(endpoint, http_retries=0).label("m.0a") is None
        assert len(JsonStub.seen) == 1

    def test_environment_resolved_once_per_store(self, json_stub, proxy, environment, tmp_path):
        JsonStub.responses = [EMPTY]
        store = make_sparql_store(json_stub, http_retries=0)
        environment.setenv("HTTP_PROXY", proxy)  # set after construction, read by the first query
        assert ProxyStub.wire == [] and JsonStub.wire == []  # construction sends nothing
        store.neighbors("m.0e0")
        environment.delenv("HTTP_PROXY")
        (tmp_path / "netrc").write_text("machine 127.0.0.1 login writer password other\n")
        for i in range(1, 5):
            store.neighbors(f"m.0e{i}")
            store.label(f"m.0l{i}")
        assert JsonStub.wire == [] and len(ProxyStub.wire) == 9  # per explore one query, plus each label()
        assert {r["headers"]["Authorization"] for r in ProxyStub.wire} == {self.basic("reader:secret")}
        make_sparql_store(json_stub, http_retries=0).label("m.0a")  # a new store resolves it again
        assert [r["headers"]["Authorization"] for r in JsonStub.wire] == [self.basic("writer:other")]


class TestMalformedBindings:
    """A row lacking a projected variable is MalformedResults, never KeyError."""

    ns = FREEBASE_PREFIX
    # stores here use limit 2, so a full union answer (four rows) refills
    # the direction it holds fewer than two edges of by a per-direction query,
    # and asks a label batch for the ids it did not name
    CASES = {
        "edge row lacks tail": [joined([], [("r.a", f"m.0h{i}") for i in range(4)], [])]
        + [(200, sparql_json([{"relation": f"{ns}r.b"}], ["relation", "tail"]))],
        "edge row lacks relation": [(200, sparql_json([{"tail": f"{ns}m.0t"}], ["relation", "tail", "head"]))],
        "edge row lacks head": [joined([("r.b", f"m.0t{i}") for i in range(4)], [], [])]
        + [(200, sparql_json([{"relation": f"{ns}r.a"}], ["relation", "head"]))],
        "union row lacks both ends": [(200, sparql_json([{"relation": f"{ns}r.b"}], ["relation", "tail", "head"]))],
        "union row has both ends": [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": f"{ns}m.0t", "head": f"{ns}m.0h"}], ["relation", "tail", "head"]
            ))
        ],
        "union row has both ends and a label": [
            (200, sparql_json(
                [{"relation": f"{ns}r.b", "tail": f"{ns}m.0t", "head": f"{ns}m.0h", "label": "T"}],
                ["relation", "tail", "head", "label"],
            ))
        ],
        "label row has a relation but no end": [
            (200, sparql_json([{"relation": f"{ns}r.b", "label": "X"}], ["relation", "tail", "head", "label"]))
        ],
        # both directions hold their two edges, but the entity's own label row was cut
        "label row lacks label": [joined([("r.b", "m.0t0"), ("r.b", "m.0t1")], [("r.a", "m.0h0"), ("r.a", "m.0h1")],
                                         [])] + [(200, sparql_json([{"x": f"{ns}m.0x"}], ["x", "label"]))],
        "label row lacks x": [joined([("r.b", "m.0t0"), ("r.b", "m.0t1")], [("r.a", "m.0h0"), ("r.a", "m.0h1")], [])]
        + [(200, sparql_json([{"label": "X"}], ["x", "label"]))],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_neighbors_raises_malformed(self, json_stub, case):
        JsonStub.responses = self.CASES[case]
        with pytest.raises(MalformedResults):
            make_sparql_store(json_stub, http_retries=0, kg_result_limit=2).neighbors("m.0x")

    def test_single_label_row_lacking_label(self, json_stub):
        JsonStub.responses = [(200, sparql_json([{"x": f"{self.ns}m.0x"}], ["x", "label"]))]
        with pytest.raises(MalformedResults):
            make_sparql_store(json_stub, http_retries=0).label("m.0x")

    def test_label_row_in_an_edges_only_answer(self, json_stub):
        JsonStub.responses = [(200, sparql_json([{"label": "X"}], ["relation", "tail", "head"]))]
        store = make_sparql_store(json_stub, http_retries=0)
        store._join_labels = False  # as after a full answer that label rows crowded
        with pytest.raises(MalformedResults):
            store.neighbors("m.0x")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_engine_run_still_finishes(self, json_stub, case):
        JsonStub.responses = self.CASES[case]
        engine = Engine(
            backend=StageBackend(),
            kg=make_sparql_store(json_stub, http_retries=0, kg_result_limit=2),
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

    def test_directions_are_strings_that_answer_value(self):
        store = InMemoryGraphStore()
        store.add_triple("a", "r", "b")
        directions = [d for _, _, d in store.neighbors("a") + store.neighbors("b")]
        assert [(d, type(d.value)) for d in directions] == [("outgoing", str), ("incoming", str)]
        assert [d.value for d in directions] == ["outgoing", "incoming"]

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

    def test_neighbors_see_edges_added_after_a_call(self):
        store = InMemoryGraphStore()
        store.add_triple("x", "r2", "b")
        assert store.neighbors("x") == [("r2", "b", Direction.OUTGOING)]
        assert store.neighbors("b") == [("r2", "x", Direction.INCOMING)]
        assert store.neighbors("z") == []
        store.add_triple("x", "r1", "c")  # x already listed, as a head
        store.add_triple("a", "r3", "b")  # b already listed, as a tail
        store.add_triple("z", "r4", "x")
        assert store.neighbors("x") == [
            ("r1", "c", Direction.OUTGOING),
            ("r2", "b", Direction.OUTGOING),
            ("r4", "z", Direction.INCOMING),
        ]
        assert store.neighbors("b") == [("r2", "x", Direction.INCOMING), ("r3", "a", Direction.INCOMING)]
        assert store.neighbors("z") == [("r4", "x", Direction.OUTGOING)]

    def test_mutating_a_returned_list_changes_no_later_call(self):
        store = InMemoryGraphStore()
        store.add_triple("x", "r2", "b")
        store.add_triple("x", "r1", "c")
        first = store.neighbors("x")
        first.reverse()
        first.append(("r0", "junk", Direction.INCOMING))
        second = store.neighbors("x")
        second.clear()
        assert store.neighbors("x") == [("r1", "c", Direction.OUTGOING), ("r2", "b", Direction.OUTGOING)]

    def test_entity_with_label(self):
        store = make_store([("m.1", "r", "m.2"), ("m.3", "r", "m.1")])
        store.add_label("m.1", "Paris")
        assert store.entity_with_label("  paris ") == "m.1"
        assert store.entity_with_label("London") is None
        store.add_label("m.3", "Cairo")
        store.add_label("m.2", "cairo ")  # added later, but the smaller id
        assert store.entity_with_label("Cairo") == "m.2"

    def test_entity_with_label_is_never_a_relation_id(self):
        store = make_store([], {"location.capital": "Capital", "m.0zz": "capital"})
        assert store.entity_with_label("capital") is None  # m.0zz is in no triple
        store.add_triple("m.0zz", "location.capital", "m.0yy")
        assert store.entity_with_label("capital") == "m.0zz"
