"""Every adapter setting of ``EngineConfig`` reaches the request its adapter sends.

``requests.Session.request`` is patched, so no request leaves the process:
both ``requests.post`` and a pooled session's ``post`` go through it.
"""

from unittest import mock

import pytest
import requests

from kgqa_engine.backends import ChatCompletionBackend
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import BackendUnavailable, KgUnavailable, PruningUnavailable
from kgqa_engine.kg import SparqlGraphStore
from kgqa_engine.pruning import HttpEmbedder

# one body that each of the three adapters accepts
GOOD_BODY = {
    "results": {"bindings": []},
    "choices": [{"message": {"content": "ok"}}],
    "data": [{"embedding": [1.0]}],
}


class Response:
    def __init__(self, status: int):
        self.status_code = status

    def json(self):
        return GOOD_BODY


def sparql(entity="m.0x"):
    return "sparql_url", lambda config: SparqlGraphStore(config).neighbors(entity)


def chat():
    return "chat_url", lambda config: ChatCompletionBackend(config).complete("p", "think")


def embed():
    return "embed_url", lambda config: HttpEmbedder(config).embed(["a"])


def queries(calls):
    return [call["data"]["query"] for call in calls]


def urls(url):
    return lambda calls: calls and {call["url"] for call in calls} == {url}


def timeouts(calls):
    return calls and {call["timeout"] for call in calls} == {7.5}


def attempts(calls):
    return len(calls) == 2  # the first attempt and one retry


OTHER_URL = "http://127.0.0.1:9/other"

# (adapter, field, non-default value, check of the calls the adapter made)
CASES = [
    (sparql(), "sparql_url", OTHER_URL, urls(OTHER_URL)),
    (sparql(), "kg_prefix", "http://example.org/kb/",
     lambda calls: all(q.startswith("PREFIX ns: <http://example.org/kb/>\n") for q in queries(calls))),
    (sparql("E17"), "entity_id_pattern", r"E\d+", lambda calls: "ns:E17 ?relation" in queries(calls)[0]),
    (sparql(), "label_property", "common.topic.alias",
     lambda calls: "?x ns:common.topic.alias ?label" in queries(calls)[-1]),
    (sparql(), "kg_result_limit", 7, lambda calls: queries(calls)[0].endswith(" LIMIT 14")),
    (sparql(), "http_timeout", 7.5, timeouts),
    (sparql(), "http_retries", 1, attempts),
    (chat(), "chat_url", OTHER_URL, urls(OTHER_URL)),
    (chat(), "chat_model", "other-model", lambda calls: calls[0]["json"]["model"] == "other-model"),
    (chat(), "http_timeout", 7.5, timeouts),
    (chat(), "http_retries", 1, attempts),
    (embed(), "embed_url", OTHER_URL, urls(OTHER_URL)),
    (embed(), "embed_model", "other-model", lambda calls: calls[0]["json"]["model"] == "other-model"),
    (embed(), "http_timeout", 7.5, timeouts),
    (embed(), "http_retries", 1, attempts),
]


@pytest.mark.parametrize(
    "adapter, field, value, check",
    CASES,
    ids=[f"{adapter[0].split('_')[0]}-{field}" for adapter, field, _, _ in CASES],
)
def test_setting_reaches_its_adapter(sleeps, adapter, field, value, check):
    url_field, call = adapter
    config = EngineConfig(**{url_field: "http://127.0.0.1:9/adapter", field: value})
    retried = field == "http_retries"
    calls: list[dict] = []

    def request(session, method, url, **kwargs):
        calls.append({"url": url, **kwargs})
        return Response(503 if retried else 200)  # a 503 is retried, then given up on

    with mock.patch.object(requests.Session, "request", request):
        if retried:
            with pytest.raises((KgUnavailable, BackendUnavailable, PruningUnavailable)):
                call(config)
        else:
            call(config)
    assert check(calls)
