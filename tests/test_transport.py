"""What the three HTTP adapters put on the wire, and how they follow redirects.

The expected requests are the ones these adapters sent when they went
through ``requests``: each stub records every request as it arrived.
"""

import gzip
import json
import warnings

import pytest

from conftest import JsonStub, make_chat_backend, make_http_embedder, make_sparql_store
from kgqa_engine import transport
from kgqa_engine.errors import KgUnavailable
from kgqa_engine.kg import execute
from kgqa_engine.transport import MAX_REDIRECTS

QUERY = "SELECT ?x WHERE { ?x ?p ?o }"
ROWS = b'{"results": {"bindings": [{"x": {"type": "uri", "value": "v"}}]}}'
SPARQL_FORM = b"query=SELECT+%3Fx+WHERE+%7B+%3Fx+%3Fp+%3Fo+%7D"

# adapter -> (call on the stub's URL, response body, what the call returns for it,
#             Content-Type, Accept, Authorization, request body bytes)
ADAPTERS = {
    "sparql": (lambda url: execute(url, QUERY, retries=0), ROWS, [{"x": "v"}],
               "application/x-www-form-urlencoded", "application/sparql-results+json", None, SPARQL_FORM),
    "chat": (lambda url: make_chat_backend(url, "m", http_retries=0).complete("p", "think"),
             b'{"choices": [{"message": {"content": "ok"}}]}', "ok",
             "application/json", "*/*", "Bearer chat-token",
             b'{"model": "m", "messages": [{"role": "user", "content": "p"}], "temperature": 0.0}'),
    "embed": (lambda url: make_http_embedder(url, "m", http_retries=0).embed(["a", "b"]),
              b'{"data": [{"embedding": [1.0]}, {"embedding": [2.0]}]}', [[1.0], [2.0]],
              "application/json", "*/*", "Bearer embed-token", b'{"model": "m", "input": ["a", "b"]}'),
}


@pytest.fixture
def tokens(monkeypatch):
    monkeypatch.setenv("KGQA_CHAT_TOKEN", "chat-token")
    monkeypatch.setenv("KGQA_EMBED_TOKEN", "embed-token")


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_wire_is_what_requests_sent(json_stub, tokens, adapter):
    call, answer, result, content_type, accept, auth, body = ADAPTERS[adapter]
    JsonStub.responses = [(200, answer)]
    assert call(json_stub) == result
    (sent,) = JsonStub.wire
    headers = sent["headers"]
    assert (sent["method"], sent["path"], sent["body"]) == ("POST", "/v1", body)
    assert (headers["Content-Type"], headers["Accept"], headers["Authorization"]) == (content_type, accept, auth)
    assert headers["Content-Length"] == str(len(body))
    assert headers["Accept-Encoding"] == "gzip, deflate"  # so a large answer may come compressed


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_compressed_answer_is_decoded(json_stub, adapter):
    call, answer, result, *_ = ADAPTERS[adapter]
    JsonStub.responses = [(200, gzip.compress(answer), {"Content-Encoding": "gzip"})]
    assert call(json_stub) == result


def test_chat_and_embeddings_open_one_pool_each_on_their_first_request(json_stub, monkeypatch):
    opened = []
    open_pool = transport.open_pool
    monkeypatch.setattr(transport, "open_pool", lambda url: opened.append(url) or open_pool(url))
    backend = make_chat_backend(json_stub, "m", http_retries=0)
    embedder = make_http_embedder(json_stub, "m", http_retries=0)
    assert opened == []
    JsonStub.responses = [(200, b'{"choices": [{"message": {"content": "ok"}}], "data": [{"embedding": [1.0]}]}')]
    for _ in range(3):
        assert backend.complete("p", "think") == "ok" and embedder.embed(["a"]) == [[1.0]]
    assert opened == [json_stub, json_stub] and len(JsonStub.wire) == 6


def test_one_store_keeps_one_connection(keepalive_stub):
    labels = [{"x": {"type": "uri", "value": f"http://rdf.freebase.com/ns/m.0{i}"},
               "label": {"type": "literal", "value": f"L{i}"}} for i in range(5)]
    JsonStub.responses = [(200, json.dumps({"results": {"bindings": [row]}}).encode()) for row in labels]
    store = make_sparql_store(keepalive_stub, http_retries=0)
    try:
        assert [store.label(f"m.0{i}") for i in range(5)] == [f"L{i}" for i in range(5)]
    finally:
        store.close()
    assert len(JsonStub.wire) == 5 and len({sent["port"] for sent in JsonStub.wire}) == 1


@pytest.mark.parametrize("status", [301, 302, 307, 308])
def test_redirect_repeats_the_post(json_stub, status):
    JsonStub.responses = [(status, b"", {"Location": "/v1/moved"}), (200, ROWS)]
    assert execute(json_stub, QUERY, retries=0) == [{"x": "v"}]
    first, second = JsonStub.wire
    assert [sent["path"] for sent in JsonStub.wire] == ["/v1", "/v1/moved"]
    assert second["method"] == "POST" and second["body"] == first["body"] == SPARQL_FORM
    assert second["headers"]["Content-Type"] == "application/x-www-form-urlencoded"


def test_see_other_is_followed_with_a_get(json_stub):
    JsonStub.responses = [(303, b"", {"Location": "/v1/result"}), (400, b"no query")]
    with pytest.raises(KgUnavailable, match="HTTP 400"):
        execute(json_stub, QUERY, retries=0)
    assert [(sent["method"], sent["path"], sent["body"]) for sent in JsonStub.wire] == [
        ("POST", "/v1", SPARQL_FORM), ("GET", "/v1/result", b"")]


def test_redirect_loop_is_a_failed_attempt(json_stub):
    JsonStub.responses = [(307, b"", {"Location": "/v1"})]
    with pytest.raises(KgUnavailable, match="too many redirects"):
        execute(json_stub, QUERY, retries=0)
    assert len(JsonStub.wire) == MAX_REDIRECTS + 1


@pytest.mark.parametrize("url", ["localhost:8890/sparql", "127.0.0.1:9/sparql", "ftp://127.0.0.1/sparql", ""])
def test_url_without_an_http_scheme_is_rejected_at_once(sleeps, url):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing is sent, so urllib3 warns of no missing scheme
        with pytest.raises(KgUnavailable, match="http:// or https://"):
            execute(url, QUERY, retries=2)
    assert sleeps == []


def test_retry_wait_is_capped_at_the_timeout(json_stub, sleeps):
    JsonStub.responses = [(503, b"busy")]
    with pytest.raises(KgUnavailable, match="HTTP 503"):
        execute(json_stub, QUERY, retries=12, timeout=2)
    assert len(JsonStub.wire) == 13
    assert sleeps == [0.5, 1.0] + [2.0] * 10  # doubled, then held at the timeout
