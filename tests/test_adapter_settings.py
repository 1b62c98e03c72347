"""Every adapter setting of ``EngineConfig`` reaches the request its adapter sends.

Each adapter sends to a loopback ``JsonStub``, which records every request
as it arrived.
"""

import time
from urllib.parse import parse_qs

import pytest

from conftest import JsonStub
from kgqa_engine.backends import ChatCompletionBackend
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import BackendUnavailable, KgUnavailable, PruningUnavailable
from kgqa_engine.kg import SparqlGraphStore
from kgqa_engine.pruning import HttpEmbedder

# one body that each of the three adapters accepts
GOOD_BODY = b"""{
    "results": {"bindings": []},
    "choices": [{"message": {"content": "ok"}}],
    "data": [{"embedding": [1.0]}]
}"""
DELAY_S = 1.0  # the stub's answer time in the timeout cases, past their http_timeout


def sparql(entity="m.0x"):
    return "sparql_url", lambda config: SparqlGraphStore(config).neighbors(entity)


def chat():
    return "chat_url", lambda config: ChatCompletionBackend(config).complete("p", "think")


def embed():
    return "embed_url", lambda config: HttpEmbedder(config).embed(["a"])


def queries(calls):
    return [parse_qs(call["body"].decode())["query"][0] for call in calls]


def paths(path):
    return lambda calls, failed: calls and {call["path"] for call in calls} == {path}


def timed_out(calls, failed):
    # each of the three attempts gave up before the stub answered
    return failed and len(calls) == 3


def attempts(calls, failed):
    return failed and len(calls) == 2  # the first attempt and one retry


def model(calls, failed):
    return JsonStub.seen[0]["body"]["model"] == "other-model"


# (adapter, field, non-default value, check of the requests the adapter made
# and of whether it raised its own error); "{stub}" is the stub's URL
CASES = [
    (sparql(), "sparql_url", "{stub}/other", paths("/v1/other")),
    (sparql(), "kg_prefix", "http://example.org/kb/",
     lambda calls, _: all(q.startswith("PREFIX ns: <http://example.org/kb/>\n") for q in queries(calls))),
    (sparql("E17"), "entity_id_pattern", r"E\d+", lambda calls, _: "ns:E17 ?relation" in queries(calls)[0]),
    (sparql(), "label_property", "common.topic.alias",
     lambda calls, _: [q.count(" ns:common.topic.alias ?label") for q in queries(calls)] == [3]),
    (sparql(), "kg_result_limit", 7, lambda calls, _: queries(calls)[0].endswith(" LIMIT 14")),
    (sparql(), "http_timeout", 0.1, timed_out),
    (sparql(), "http_retries", 1, attempts),
    (chat(), "chat_url", "{stub}/other", paths("/v1/other")),
    (chat(), "chat_model", "other-model", model),
    (chat(), "http_timeout", 0.1, timed_out),
    (chat(), "http_retries", 1, attempts),
    (embed(), "embed_url", "{stub}/other", paths("/v1/other")),
    (embed(), "embed_model", "other-model", model),
    (embed(), "http_timeout", 0.1, timed_out),
    (embed(), "http_retries", 1, attempts),
]


@pytest.mark.parametrize(
    "adapter, field, value, check",
    CASES,
    ids=[f"{adapter[0].split('_')[0]}-{field}" for adapter, field, _, _ in CASES],
)
def test_setting_reaches_its_adapter(json_stub, sleeps, adapter, field, value, check):
    url_field, call = adapter
    if field == url_field:
        value = value.format(stub=json_stub)
    config = EngineConfig(**{url_field: json_stub, field: value})
    JsonStub.responses = [(503 if field == "http_retries" else 200, GOOD_BODY)]  # a 503 is retried, then given up on
    if field == "http_timeout":
        JsonStub.delay = DELAY_S
    started = time.monotonic()
    try:
        call(config)
    except (KgUnavailable, BackendUnavailable, PruningUnavailable):
        failed = True
    else:
        failed = False
    assert time.monotonic() - started < DELAY_S  # never once waited out the stub's delay
    assert check(JsonStub.wire, failed)
