"""HTTP response bodies at the adapter boundary.

Each body parser returns only the types it promises or raises its own
error class (``MalformedResults``, ``BackendUnavailable``,
``PruningUnavailable``), so no body, however malformed or deeply nested,
can crash a run.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_engine import backends, kg, pruning, transport
from kgqa_engine.config import FREEBASE_PREFIX, EngineConfig
from kgqa_engine.errors import BackendUnavailable, MalformedResults, PruningUnavailable
from kgqa_engine.orchestrator import Engine, Stage
from kgqa_engine.pruning import HashingEmbedder

from conftest import (
    JsonStub,
    StageBackend,
    make_chat_backend,
    make_http_embedder,
    make_sparql_store,
    make_store,
)

DEEP = b"[" * 100_000 + b"]" * 100_000  # past the JSON decoder's recursion limit
NON_TEXT = [None, 7, 1.5, True, ["x"], {"value": "x"}]
NON_TEXT_IDS = ["null", "int", "float", "bool", "list", "dict"]


def completion(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def bindings(rows) -> bytes:
    cells = [{var: {"type": "literal", "value": value} for var, value in row.items()} for row in rows]
    return json.dumps({"results": {"bindings": cells}}).encode()


def run_to_finish(**ports):
    """Engine.run over the given ports; asserts it finished, with a str answer."""
    config = EngineConfig()
    ports.setdefault("backend", StageBackend({"answer": "no answer field"}))
    ports.setdefault("kg", make_store([("m.0x", "r.a", "m.0t")], {"m.0t": "Tail"}))
    ports.setdefault("embedder", HashingEmbedder())
    result = Engine(config=config, **ports).run("where is it?", ["m.0x"])
    assert result.trace[-1].stage is Stage.FINISH
    assert result.cycles <= config.max_total_cycles
    assert isinstance(result.answer, str)
    return result


class TestChatContent:
    @pytest.mark.parametrize("content", NON_TEXT, ids=NON_TEXT_IDS)
    def test_non_text_content_is_unavailable(self, json_stub, content):
        JsonStub.responses = [(200, completion(content))]
        with pytest.raises(BackendUnavailable, match="not str"):
            make_chat_backend(json_stub, "m", http_retries=0).complete("p", "think")

    @pytest.mark.parametrize("content", NON_TEXT, ids=NON_TEXT_IDS)
    def test_run_finishes_when_content_turns_non_text(self, json_stub, content):
        # a plan is made, then every later call gets non-text content
        JsonStub.responses = [(200, completion("STEP: find it | walk")), (200, completion(content))]
        result = run_to_finish(backend=make_chat_backend(json_stub, "m", http_retries=0))
        assert result.error_note.startswith("predict failed")


class TestSparqlValues:
    ns = FREEBASE_PREFIX

    @pytest.mark.parametrize("value", NON_TEXT, ids=NON_TEXT_IDS)
    def test_non_text_edge_value_is_malformed(self, json_stub, value):
        JsonStub.responses = [(200, bindings([{"relation": value, "tail": f"{self.ns}m.0t"}]))]
        with pytest.raises(MalformedResults, match="not str"):
            make_sparql_store(json_stub, http_retries=0).neighbors("m.0x")

    @pytest.mark.parametrize("value", NON_TEXT, ids=NON_TEXT_IDS)
    def test_non_text_label_is_malformed(self, json_stub, value):
        JsonStub.responses = [(200, bindings([{"x": f"{self.ns}m.0x", "label": value}]))]
        with pytest.raises(MalformedResults, match="not str"):
            make_sparql_store(json_stub, http_retries=0).label("m.0x")

    @pytest.mark.parametrize("rows", [None, 7, "rows", {"x": {}}], ids=["null", "int", "str", "dict"])
    def test_bindings_that_are_not_an_array_are_malformed(self, json_stub, rows):
        JsonStub.responses = [(200, json.dumps({"results": {"bindings": rows}}).encode())]
        with pytest.raises(MalformedResults):
            make_sparql_store(json_stub, http_retries=0).neighbors("m.0x")

    @pytest.mark.parametrize("value", NON_TEXT, ids=NON_TEXT_IDS)
    def test_non_text_label_never_becomes_the_answer(self, json_stub, value):
        # a well-formed edge whose tail's label is not text; the backend's
        # answer is unusable, so the run falls back to the chain's tail label
        JsonStub.responses = [
            (200, bindings([{"relation": f"{self.ns}r.a", "tail": f"{self.ns}m.0t"}])),
            (200, bindings([{"x": f"{self.ns}m.0t", "label": value}])),
        ]
        result = run_to_finish(kg=make_sparql_store(json_stub, http_retries=0))
        assert result.error_note.startswith("exploration failed")


class TestDeepJson:
    def test_sparql(self, json_stub):
        JsonStub.responses = [(200, DEEP)]
        with pytest.raises(MalformedResults):
            make_sparql_store(json_stub, http_retries=0).neighbors("m.0x")
        result = run_to_finish(kg=make_sparql_store(json_stub, http_retries=0))
        assert result.error_note.startswith("exploration failed")

    def test_chat(self, json_stub):
        JsonStub.responses = [(200, DEEP)]
        with pytest.raises(BackendUnavailable):
            make_chat_backend(json_stub, "m", http_retries=0).complete("p", "think")
        result = run_to_finish(backend=make_chat_backend(json_stub, "m", http_retries=0))
        assert result.error_note.startswith("decomposition failed")

    def test_embeddings(self, json_stub):
        JsonStub.responses = [(200, DEEP)]
        with pytest.raises(PruningUnavailable):
            make_http_embedder(json_stub, "m", http_retries=0).embed(["a"])
        result = run_to_finish(
            backend=StageBackend(), embedder=make_http_embedder(json_stub, "m", http_retries=0)
        )
        assert "pruning unavailable" in result.trace[3].payload["observation"]["rationale"]


class FakeResponse:
    status = 200

    def __init__(self, document):
        self.document = document

    def json(self):
        return self.document


class FakePool:
    """A pool that answers every request with the same decoded document."""

    headers: dict[str, str] = {}

    def __init__(self, document):
        self.document = document

    def urlopen(self, method, url, **request):
        return FakeResponse(self.document)

    def clear(self):
        pass


def answering(document):
    """Every HTTP adapter's pool, while active, is a ``FakePool`` answering ``document``."""
    return mock.patch.object(transport, "open_pool", lambda url: FakePool(document))


# Whole JSON documents: junk of every JSON type, with the keys the three
# parsers look for mixed in, and near-valid SPARQL, chat and embeddings shapes.
KEYS = st.sampled_from(
    ["results", "bindings", "value", "type", "x", "label", "relation", "tail", "head",
     "choices", "message", "content", "data", "embedding", ""]
)
SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = st.recursive(
    SCALAR, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3), max_leaves=10
)
CELL = st.one_of(JSON, st.fixed_dictionaries({"value": st.one_of(JSON, st.text(max_size=8))}))
ROW = st.dictionaries(KEYS, CELL, max_size=3)
SPARQL = st.fixed_dictionaries(
    {"results": st.fixed_dictionaries({"bindings": st.one_of(JSON, st.lists(ROW, max_size=3))})}
)
MESSAGE = st.fixed_dictionaries({"message": st.one_of(JSON, st.fixed_dictionaries({"content": JSON}))})
CHAT = st.fixed_dictionaries({"choices": st.one_of(JSON, st.lists(MESSAGE, max_size=2))})
ITEM = st.fixed_dictionaries({"embedding": st.one_of(JSON, st.lists(SCALAR, max_size=4))})
EMBEDDINGS = st.fixed_dictionaries({"data": st.one_of(JSON, st.lists(ITEM, max_size=3))})
DOCUMENT = st.one_of(JSON, SPARQL, CHAT, EMBEDDINGS)


class TestWholeDocuments:
    """Any decoded document: the promised type, or the adapter's own error."""

    @settings(max_examples=300)
    @given(DOCUMENT)
    def test_sparql_rows_are_strings(self, document):
        try:
            rows = kg._rows(FakeResponse(document))
        except MalformedResults:
            return
        assert all(isinstance(v, str) for row in rows for v in row.values())
        assert all(isinstance(var, str) for row in rows for var in row)

    @settings(max_examples=300)
    @given(DOCUMENT)
    def test_chat_content_is_a_string(self, document):
        try:
            content = backends._content(FakeResponse(document))
        except BackendUnavailable:
            return
        assert isinstance(content, str)

    @settings(max_examples=300)
    @given(DOCUMENT)
    def test_embeddings_are_a_list(self, document):
        try:
            vectors = pruning._embeddings(FakeResponse(document))
        except PruningUnavailable:
            return
        assert isinstance(vectors, list)

    @settings(max_examples=60)
    @given(DOCUMENT)
    def test_runs_finish_whatever_the_graph_answers(self, document):
        with answering(document):
            run_to_finish(kg=make_sparql_store("http://127.0.0.1:9/sparql", http_retries=0))

    @settings(max_examples=60)
    @given(DOCUMENT)
    def test_runs_finish_whatever_the_chat_endpoint_answers(self, document):
        with answering(document):
            run_to_finish(backend=make_chat_backend("http://127.0.0.1:9/chat", "m", http_retries=0))

    @settings(max_examples=60)
    @given(DOCUMENT)
    def test_runs_finish_whatever_the_embedder_answers(self, document):
        with answering(document):
            result = run_to_finish(
                backend=StageBackend(),
                embedder=make_http_embedder("http://127.0.0.1:9/embed", "m", http_retries=0),
            )
        assert not (result.error_note or "").startswith("exploration failed")
