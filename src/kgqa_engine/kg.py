"""Knowledge-graph access: SPARQL adapter and in-memory store.

Both adapters answer the same two questions -- ``neighbors(entity)`` and
``label(id)`` -- so the executor never knows which one it is talking to.
Neighbor lists are sorted by (relation, entity, direction) so candidate
ordering, and therefore whole traces, are reproducible.

The SPARQL adapter answers one ``neighbors`` call with at most two
round-trips: one edge query (the UNION of both directions) and one batched
label query for the frontier and every neighbour not yet labelled.  Labels
are cached per adapter, so the executor's ``label`` calls that follow cost
nothing.  Only an entity with ``limit`` or more edges in one direction can
cost a third round-trip, to refill the other direction.
"""

from __future__ import annotations

import logging
import re
import threading
from collections.abc import Iterable
from enum import Enum
from typing import Protocol

import requests

from .errors import InvalidEntityId, KgUnavailable, MalformedResults, ParseError
from .transport import post
from .triples import Direction

FREEBASE_PREFIX = "http://rdf.freebase.com/ns/"
FREEBASE_ID_PATTERN = r"[a-z]\.[0-9a-z_]+"
FREEBASE_LABEL_PROPERTY = "type.object.name"
# Labels one SparqlGraphStore keeps; past this the oldest are evicted first.
LABEL_CACHE_SIZE = 50_000

Neighbor = tuple[str, str, Direction]  # (relation, other_entity, direction)

log = logging.getLogger(__name__)


class GraphStore(Protocol):
    def neighbors(self, entity: str) -> list[Neighbor]: ...

    def label(self, entity_or_relation: str) -> str | None: ...


class SparqlTemplate(str, Enum):
    OUTGOING_EDGES = "outgoing_edges"
    INCOMING_EDGES = "incoming_edges"
    NEIGHBORS = "neighbors"
    LABELS = "labels"


def render_sparql(
    template: SparqlTemplate,
    entity: str | Iterable[str],
    *,
    prefix: str = FREEBASE_PREFIX,
    id_pattern: str = FREEBASE_ID_PATTERN,
    label_property: str = FREEBASE_LABEL_PROPERTY,
    limit: int = 200,
) -> str:
    """Substitute entity IDs into a fixed query template.

    ``LABELS`` takes any number of IDs and has no LIMIT, since a truncated
    answer would read as "no label" for the IDs cut off; the other
    templates take exactly one.  ``NEIGHBORS`` asks for both edge
    directions at once, so its LIMIT is twice ``limit``.  IDs are validated
    against the configured grammar before substitution; anything outside it
    is rejected, which doubles as injection protection.
    """
    ids = [entity] if isinstance(entity, str) else list(entity)
    for one in ids:
        if not re.fullmatch(id_pattern, one):
            raise InvalidEntityId(f"entity id does not match grammar {id_pattern!r}: {one!r}")
    header = f"PREFIX ns: <{prefix}>\n"
    if template is SparqlTemplate.LABELS:
        values = " ".join(f"ns:{one}" for one in ids)
        return f"{header}SELECT ?x ?label WHERE {{ VALUES ?x {{ {values} }} ?x ns:{label_property} ?label }}"
    if len(ids) != 1:
        raise ValueError(f"{template.value} takes one entity id, got {len(ids)}")
    entity = ids[0]
    if template is SparqlTemplate.OUTGOING_EDGES:
        body = f"SELECT ?relation ?tail WHERE {{ ns:{entity} ?relation ?tail }}"
    elif template is SparqlTemplate.INCOMING_EDGES:
        body = f"SELECT ?relation ?head WHERE {{ ?head ?relation ns:{entity} }}"
    elif template is SparqlTemplate.NEIGHBORS:
        body = (
            f"SELECT ?relation ?tail ?head WHERE {{ {{ ns:{entity} ?relation ?tail }} "
            f"UNION {{ ?head ?relation ns:{entity} }} }}"
        )
        limit *= 2
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(template)
    return f"{header}{body} LIMIT {limit}"


def execute(
    endpoint: str,
    query: str,
    *,
    timeout: float = 30.0,
    retries: int = 2,
    session: requests.Session | None = None,
) -> list[dict[str, str]]:
    """Run a query over the SPARQL 1.1 protocol; return variable->value rows.

    POSTs the query (through ``session`` if given, so connections are pooled)
    with ``transport.post``'s retries; a non-conforming document raises
    MalformedResults at once.
    """
    headers = {"Accept": "application/sparql-results+json"}
    return post(endpoint, _rows, KgUnavailable, log, timeout=timeout, retries=retries,
                session=session, data={"query": query}, headers=headers)


def _rows(resp: requests.Response) -> list[dict[str, str]]:
    try:
        bindings = resp.json()["results"]["bindings"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResults(f"non-conforming SPARQL JSON results: {exc}") from exc
    rows = []
    for binding in bindings:
        if not isinstance(binding, dict):
            raise MalformedResults("binding row is not an object")
        row = {}
        for var, cell in binding.items():
            try:
                row[var] = cell["value"]
            except (KeyError, TypeError) as exc:
                raise MalformedResults(f"binding cell missing value: {exc}") from exc
        rows.append(row)
    return rows


def _field(row: dict[str, str], var: str) -> str:
    try:
        return row[var]
    except KeyError:
        raise MalformedResults(f"result row lacks ?{var}: {sorted(row)}") from None


_UNCACHED = object()

# The variable naming an edge's far end in a NEIGHBORS row -> the edge's
# direction and the query for that direction alone.
_ENDS = {
    "tail": (Direction.OUTGOING, SparqlTemplate.OUTGOING_EDGES),
    "head": (Direction.INCOMING, SparqlTemplate.INCOMING_EDGES),
}


class SparqlGraphStore:
    """GraphStore over a remote SPARQL 1.1 endpoint.

    Labels, ``None`` included, are cached for the adapter's lifetime, which
    assumes the graph does not change under it.  Requests go through one
    pooled ``requests.Session``, opened on the first query, which resolves
    the environment's proxy, CA-bundle and netrc settings for the endpoint
    once: changes to them after that query are not seen.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        prefix: str = FREEBASE_PREFIX,
        id_pattern: str = FREEBASE_ID_PATTERN,
        label_property: str = FREEBASE_LABEL_PROPERTY,
        limit: int = 200,
        timeout: float = 30.0,
        retries: int = 2,
    ):
        self.endpoint = endpoint
        self.prefix = prefix
        self.id_pattern = id_pattern
        self.label_property = label_property
        self.limit = limit
        self.timeout = timeout
        self.retries = retries
        self._labels: dict[str, str | None] = {}
        self._lock = threading.Lock()
        self._session: requests.Session | None = None

    def _render(self, template: SparqlTemplate, entity: str | list[str]) -> str:
        return render_sparql(
            template,
            entity,
            prefix=self.prefix,
            id_pattern=self.id_pattern,
            label_property=self.label_property,
            limit=self.limit,
        )

    def _execute(self, query: str) -> list[dict[str, str]]:
        if self._session is None:
            with self._lock:
                if self._session is None:
                    self._session = self._open_session()
        return execute(
            self.endpoint,
            query,
            timeout=self.timeout,
            retries=self.retries,
            session=self._session,
        )

    def _open_session(self) -> requests.Session:
        """A session with what ``requests`` takes from the environment for
        this endpoint (proxies after ``NO_PROXY``, CA bundle, netrc auth)
        fixed on it, so no request reads ``os.environ`` or ``~/.netrc`` again.
        """
        session = requests.Session()
        settings = session.merge_environment_settings(self.endpoint, {}, None, None, None)
        session.proxies = settings["proxies"]
        session.verify = settings["verify"]
        session.cert = settings["cert"]
        session.auth = requests.utils.get_netrc_auth(self.endpoint)
        session.trust_env = False
        return session

    def _localize(self, value: str) -> str:
        if value.startswith(self.prefix):
            return value[len(self.prefix):]
        return value

    def _remember(self, labels: dict[str, str | None]) -> None:
        with self._lock:
            self._labels.update(labels)
            while len(self._labels) > LABEL_CACHE_SIZE:
                del self._labels[next(iter(self._labels))]

    def _fetch_labels(self, ids: Iterable[str]) -> dict[str, str | None]:
        """One batched query for the grammatical ``ids``; caches and returns what it fetched."""
        missing = [i for i in dict.fromkeys(ids) if re.fullmatch(self.id_pattern, i)]
        if not missing:
            return {}
        found: dict[str, str] = {}
        for row in self._execute(self._render(SparqlTemplate.LABELS, missing)):
            found.setdefault(self._localize(_field(row, "x")), _field(row, "label"))
        fetched = {i: found.get(i) for i in missing}
        self._remember(fetched)
        return fetched

    def neighbors(self, entity: str) -> list[Neighbor]:
        """At most ``limit`` edges per direction, from one UNION query.

        A full answer (``2 * limit`` rows) may have cut one direction short;
        only then is that direction asked for again on its own.
        """
        rows = self._execute(self._render(SparqlTemplate.NEIGHBORS, entity))
        by_end: dict[str, list[dict[str, str]]] = {other: [] for other in _ENDS}
        for row in rows:
            ends = [other for other in _ENDS if other in row]
            if len(ends) != 1:
                raise MalformedResults(f"union row needs exactly one of ?tail and ?head: {sorted(row)}")
            by_end[ends[0]].append(row)
        out: list[Neighbor] = []
        for other, (direction, template) in _ENDS.items():
            found = by_end[other]
            if len(rows) >= 2 * self.limit and len(found) < self.limit:
                found = self._execute(self._render(template, entity))
            for row in found[: self.limit]:
                relation = self._localize(_field(row, "relation"))
                out.append((relation, self._localize(_field(row, other)), direction))
        neighbors = sorted(set(out), key=lambda n: (n[0], n[1], n[2].value))
        self._fetch_labels(i for i in [entity, *(other for _, other, _ in neighbors)] if i not in self._labels)
        return neighbors

    def label(self, entity_or_relation: str) -> str | None:
        cached = self._labels.get(entity_or_relation, _UNCACHED)
        if cached is not _UNCACHED:
            return cached
        return self._fetch_labels([entity_or_relation]).get(entity_or_relation)


class InMemoryGraphStore:
    """Bidirectionally indexed triple store loaded from a TSV file."""

    def __init__(self):
        self._outgoing: dict[str, set[tuple[str, str]]] = {}
        self._incoming: dict[str, set[tuple[str, str]]] = {}
        self._labels: dict[str, str] = {}

    def add_triple(self, head: str, relation: str, tail: str) -> None:
        self._outgoing.setdefault(head, set()).add((relation, tail))
        self._incoming.setdefault(tail, set()).add((relation, head))

    def add_label(self, entity_or_relation: str, text: str) -> None:
        self._labels[entity_or_relation] = text

    def neighbors(self, entity: str) -> list[Neighbor]:
        out = [(r, t, Direction.OUTGOING) for r, t in self._outgoing.get(entity, ())]
        out += [(r, h, Direction.INCOMING) for r, h in self._incoming.get(entity, ())]
        return sorted(out, key=lambda n: (n[0], n[1], n[2].value))

    def label(self, entity_or_relation: str) -> str | None:
        return self._labels.get(entity_or_relation)

    def entity_with_label(self, text: str) -> str | None:
        """Reverse label lookup, used for backend-extracted topic entities."""
        wanted = text.strip().lower()
        for key, lab in sorted(self._labels.items()):
            if lab.strip().lower() == wanted:
                return key
        return None

    def entities(self) -> list[str]:
        return sorted(set(self._outgoing) | set(self._incoming))


def load_memory_store(path) -> InMemoryGraphStore:
    """Load a TSV triple file.

    Lines are either ``head<TAB>relation<TAB>tail`` or
    ``label<TAB>id<TAB>text``. Blank lines and ``#`` comments are skipped.
    """
    store = InMemoryGraphStore()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
            a, b, c = (p.strip() for p in parts)
            if not (a and b and c):
                raise ParseError(f"line {lineno}: empty field")
            if a == "label":
                store.add_label(b, c)
            else:
                store.add_triple(a, b, c)
    return store
