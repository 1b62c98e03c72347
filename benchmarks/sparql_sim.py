"""SPARQL 1.1 endpoint simulator over a generated TSV graph.

It evaluates a small, general subset of SPARQL SELECT queries and answers
with SPARQL JSON results:

* ``PREFIX`` declarations and ``SELECT [DISTINCT] ?a ?b ...``;
* a group of triple patterns separated by ``.``, whose terms are
  variables, prefixed names, ``<iri>`` or plain ``"literals"``;
* ``VALUES ?x { term ... }`` over one variable;
* ``OPTIONAL { group }`` and ``{ group } UNION { group }``;
* a final ``LIMIT n``.

So besides the three templates ``kgqa_engine.kg.render_sparql`` produces
today (outgoing edges, incoming edges, label), it answers the usual ways to
cut round-trips: labels batched with VALUES, or joined into the neighbour
query with OPTIONAL.  A triple pattern must have its subject or its object
bound when it is matched (no full scans).  Anything outside the subset is
answered with HTTP 400, so a client that needs more must extend this file.

Labels are kept apart from edges, as the engine's in-memory store keeps
them: a pattern whose predicate is ``ns:type.object.name`` matches labels,
any other pattern (a variable predicate too) matches edges only.  So the
neighbour templates see the same edges the in-memory store holds, which
the benchmark's adapter-equivalence replay relies on.  The simulator is
single-threaded and speaks HTTP/1.0 (one connection per request, like a
client without a pooled session sees).  Before answering a POST it sleeps
an injected delay of DELAY_MS per request plus ROW_DELAY_MS per result row,
standing in for the network and store cost of a remote endpoint; a heavier
query costs more.  ``GET /stats`` returns the POSTs served so far, the rows
they returned, the seconds spent serving them (from the parsed request line
to the written response, sleep included) and the seconds of injected delay.

Usage: python3 benchmarks/sparql_sim.py GRAPH_TSV DELAY_MS ROW_DELAY_MS
prints the port it listens on (127.0.0.1) as its first stdout line and
serves until terminated.
"""

from __future__ import annotations

import json
import re
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs

PREFIX = "http://rdf.freebase.com/ns/"
LABEL = PREFIX + "type.object.name"

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<iri><[^<>\s]*>)
      | (?P<literal>"(?:[^"\\\n]|\\.)*")
      | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
      | (?P<pname>[A-Za-z][A-Za-z0-9_-]*:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?)
      | (?P<number>[0-9]+)
      | (?P<word>[A-Za-z]+)
      | (?P<punct>[{}.])
    )""",
    re.X,
)

Term = tuple[str, str]  # ("uri" | "literal", value), as in SPARQL JSON results


class BadQuery(ValueError):
    pass


def tokenize(query: str) -> list[tuple[str, str]]:
    tokens, pos, end = [], 0, len(query.rstrip())
    while pos < end:
        m = _TOKEN.match(query, pos)
        if not m or m.end() == pos:
            raise BadQuery(f"cannot read the query at {query[pos:pos + 20]!r}")
        kind = m.lastgroup
        text = m[kind]
        tokens.append(("kw", text.upper()) if kind == "word" else (kind, text))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over the subset above; builds a small algebra tree.

    A group is a list of elements: ("triple", s, p, o), ("values", var,
    [terms]), ("optional", group) and ("union", [groups]).  A pattern term
    is ("var", name) or a constant Term.
    """

    def __init__(self, query: str):
        self.tokens = tokenize(query)
        self.pos = 0
        self.prefixes: dict[str, str] = {}

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, text: str | None = None) -> str:
        tok = self.peek()
        if tok is None or tok[0] != kind or (text is not None and tok[1] != text):
            raise BadQuery(f"expected {text or kind}, got {tok[1] if tok else 'end of query'!r}")
        self.pos += 1
        return tok[1]

    def accept(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        if tok is not None and tok[0] == kind and (text is None or tok[1] == text):
            self.pos += 1
            return True
        return False

    def query(self):
        while self.accept("kw", "PREFIX"):
            name = self.take("pname")
            if not name.endswith(":"):
                raise BadQuery(f"bad prefix name {name!r}")
            self.prefixes[name[:-1]] = self.take("iri")[1:-1]
        self.take("kw", "SELECT")
        distinct = self.accept("kw", "DISTINCT")
        projection = []
        while (tok := self.peek()) is not None and tok[0] == "var":
            projection.append(self.take("var")[1:])
        if not projection:
            raise BadQuery("SELECT needs variables")
        self.accept("kw", "WHERE")
        group = self.group()
        limit = int(self.take("number")) if self.accept("kw", "LIMIT") else None
        if self.peek() is not None:
            raise BadQuery(f"unsupported {self.peek()[1]!r} after the query")
        return projection, distinct, group, limit

    def group(self) -> list:
        self.take("punct", "{")
        elements: list = []
        while not self.accept("punct", "}"):
            if self.accept("kw", "OPTIONAL"):
                elements.append(("optional", self.group()))
            elif self.accept("kw", "VALUES"):
                var = self.take("var")[1:]
                self.take("punct", "{")
                terms = []
                while not self.accept("punct", "}"):
                    terms.append(self.constant())
                elements.append(("values", var, terms))
            elif (tok := self.peek()) is not None and tok == ("punct", "{"):
                branches = [self.group()]
                while self.accept("kw", "UNION"):
                    branches.append(self.group())
                elements.append(("union", branches))
            else:
                elements.append(("triple", self.term(), self.term(), self.term()))
            self.accept("punct", ".")
        return elements

    def term(self):
        tok = self.peek()
        if tok is not None and tok[0] == "var":
            self.pos += 1
            return ("var", tok[1][1:])
        return self.constant()

    def constant(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise BadQuery("unexpected end of query")
        kind, text = tok
        self.pos += 1
        if kind == "iri":
            return ("uri", text[1:-1])
        if kind == "literal":
            return ("literal", re.sub(r"\\(.)", r"\1", text[1:-1]))
        if kind == "pname":
            prefix, local = text.split(":", 1)
            if prefix not in self.prefixes:
                raise BadQuery(f"undeclared prefix {prefix!r}")
            return ("uri", self.prefixes[prefix] + local)
        raise BadQuery(f"unexpected {text!r}")


class Graph:
    def __init__(self, path: str):
        # subject -> [(predicate, object)] and object -> [(predicate, subject)],
        # one pair of indexes for edges and one for labels
        self.edges: tuple[dict, dict] = ({}, {})
        self.labels: tuple[dict, dict] = ({}, {})
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                a, b, c = line.rstrip("\n").split("\t")
                if a == "label":
                    self._add(self.labels, ("uri", PREFIX + b), ("uri", LABEL), ("literal", c))
                else:
                    self._add(self.edges, ("uri", PREFIX + a), ("uri", PREFIX + b),
                              ("uri", PREFIX + c))

    @staticmethod
    def _add(index: tuple[dict, dict], s: Term, p: Term, o: Term) -> None:
        index[0].setdefault(s, []).append((p, o))
        index[1].setdefault(o, []).append((p, s))

    def select(self, query: str) -> tuple[list[str], list[dict]]:
        """Evaluate a query; return (projected variables, SPARQL JSON bindings)."""
        projection, distinct, group, limit = _Parser(query).query()
        solutions = self._group(group, [{}])
        rows = [tuple(row.get(v) for v in projection) for row in solutions]
        if distinct:
            rows = list(dict.fromkeys(rows))
        if limit is not None:
            rows = rows[:limit]
        bindings = [
            {v: {"type": t[0], "value": t[1]} for v, t in zip(projection, row) if t is not None}
            for row in rows
        ]
        return projection, bindings

    def _group(self, elements: list, solutions: list[dict]) -> list[dict]:
        for element in elements:
            kind = element[0]
            if kind == "triple":
                solutions = [out for row in solutions for out in self._match(row, *element[1:])]
            elif kind == "values":
                _, var, terms = element
                solutions = [
                    {**row, var: t} for row in solutions for t in terms
                    if row.get(var, t) == t
                ]
            elif kind == "optional":
                solutions = [
                    out for row in solutions for out in (self._group(element[1], [row]) or [row])
                ]
            else:  # union
                solutions = [
                    out for row in solutions for branch in element[1]
                    for out in self._group(branch, [row])
                ]
        return solutions

    def _match(self, row: dict, s, p, o):
        subject, obj = _value(row, s), _value(row, o)
        outgoing, incoming = self.labels if _value(row, p) == ("uri", LABEL) else self.edges
        if subject is not None:
            triples = [(subject, q, x) for q, x in outgoing.get(subject, ())]
        elif obj is not None:
            triples = [(x, q, obj) for q, x in incoming.get(obj, ())]
        else:
            raise BadQuery("a triple pattern needs its subject or its object bound")
        for triple in triples:
            out = row
            for term, value in zip((s, p, o), triple):
                out = _bind(out, term, value)
                if out is None:
                    break
            else:
                yield out


def _value(row: dict, term) -> Term | None:
    return row.get(term[1]) if term[0] == "var" else term


def _bind(row: dict, term, value: Term) -> dict | None:
    """Extend ``row`` so that pattern ``term`` equals ``value``, or None on a clash."""
    bound = _value(row, term)
    if bound is None:
        return {**row, term[1]: value}
    return row if bound == value else None


def make_handler(graph: Graph, delay_s: float, row_delay_s: float):
    class Handler(BaseHTTPRequestHandler):
        served = 0
        rows = 0
        busy_s = 0.0
        delay_s = 0.0

        def parse_request(self):
            self.started = time.perf_counter()  # the request line has arrived
            return super().parse_request()

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            form = parse_qs(self.rfile.read(length).decode("utf-8"))
            try:
                variables, bindings = graph.select(form.get("query", [""])[0])
            except BadQuery as exc:
                variables, bindings = None, []
                error = str(exc)
            delay = delay_s + row_delay_s * len(bindings)
            time.sleep(delay)
            if variables is None:
                self._reply(400, {"error": error})
            else:
                self._reply(200, {"head": {"vars": variables}, "results": {"bindings": bindings}})
            Handler.served += 1
            Handler.rows += len(bindings)
            Handler.delay_s += delay
            Handler.busy_s += time.perf_counter() - self.started

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, {"requests": Handler.served, "rows": Handler.rows,
                                  "busy_s": Handler.busy_s, "delay_s": Handler.delay_s})
            else:
                self._reply(404, {"error": "not found"})

        def _reply(self, status: int, doc: dict) -> None:
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/sparql-results+json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    graph = Graph(argv[0])
    handler = make_handler(graph, float(argv[1]) / 1000.0, float(argv[2]) / 1000.0)
    server = HTTPServer(("127.0.0.1", 0), handler)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
