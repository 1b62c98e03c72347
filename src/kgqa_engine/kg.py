"""Knowledge-graph access: SPARQL adapter and in-memory store.

Both adapters answer the same two questions -- ``neighbors(entity)`` and
``label(id)`` -- so the executor never knows which one it is talking to.
It reads any store through ``CheckedGraph``, the one place that checks a
store's answers.  Neighbor lists are sorted by (relation, entity, direction)
so candidate ordering, and therefore whole traces, are reproducible.

The SPARQL adapter answers one ``neighbors`` call with one round-trip, on
a cold label cache as on a warm one, while no answer is full: a UNION of
both edge directions, each edge carrying its far end's label (an
``OPTIONAL`` join), and the entity's own label.  Labels are cached per
adapter, so the executor's ``label`` calls that follow cost nothing.  Label
rows count toward the query's LIMIT, so a full answer can cost more: one
edges-only query per direction it cut short, and one batched label query
for the ids those bring in.  Once a full answer shows ids with several
labels each, whose rows crowd edges out, the adapter asks for edges and
labels apart from then on: the edges of both directions, then one batched
label query for the ids not cached yet.  Each entity's neighbour list is
cached per adapter as well, so a frontier read again, in a later question or
after a Plan Correction, sends no edge query: only one batched label query,
and only for those of its ids whose labels were evicted meanwhile.

The SPARQL adapter reads every setting, the endpoint included, from the
run's ``EngineConfig`` where it is used; it keeps no copy of any.
"""

from __future__ import annotations

import logging
import re
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterable
from enum import Enum
from typing import Protocol
from urllib.parse import urlencode

import urllib3

from .config import EngineConfig
from .errors import EngineError, InvalidEntityId, KgUnavailable, MalformedResults, ParseError, describe
from .transport import Client, post
from .triples import Direction

# Labels one SparqlGraphStore keeps; past this the oldest are evicted first.
LABEL_CACHE_SIZE = 50_000
# Edges one SparqlGraphStore keeps in its neighbour lists, an entity with none
# counting as one; past this the oldest entities are evicted first.
NEIGHBOR_CACHE_EDGES = 100_000

Neighbor = tuple[str, str, str]  # (relation, other_entity, Direction.OUTGOING or INCOMING)


class _Direction(str):
    """A direction the adapters yield, with the ``value`` the old enum had (read under ``benchmarks/``)."""

    value = property(str.__str__)


_OUT, _IN = _Direction(Direction.OUTGOING), _Direction(Direction.INCOMING)
_BY_LETTER = {"o": _OUT, "i": _IN}  # a direction's first letter, as a cached neighbour list keeps it

log = logging.getLogger(__name__)


class GraphStore(Protocol):
    def neighbors(self, entity: str) -> list[Neighbor]: ...

    def label(self, entity_or_relation: str) -> str | None: ...


class _LabelMemo(dict):
    """Label per id, asking ``store`` on a miss: a hit is a plain subscript, with no Python frame."""

    __slots__ = ("store",)

    def __init__(self, store: GraphStore):  # dict.__new__ made it empty: no dict.__init__ to run
        self.store = store

    def __missing__(self, entity_or_relation: str) -> str:
        try:
            text = self.store.label(entity_or_relation)
            if text is None:
                text = ""
            elif type(text) is not str:  # a plain str, the common case, costs this one test
                if not isinstance(text, str):
                    raise MalformedResults(f"label of {entity_or_relation!r} is {type(text).__name__}, not str")
                text = str.__str__(text)  # a plain copy of a str subclass: none of its methods run
        except EngineError:
            raise
        except Exception as exc:
            raise KgUnavailable(f"graph store failed: {describe(exc)}") from exc
        self[entity_or_relation] = text
        return text


class CheckedGraph:
    """The one reader of a ``GraphStore``: any answer outside its contract raises ``MalformedResults``,
    and a store exception that is no ``EngineError`` becomes ``KgUnavailable``.  ``labels[id]`` gives
    ``""`` for ``None``; it is a ``dict`` whose ``__missing__`` asks the store, so each id is asked once
    for the guard's lifetime, which is the executor's: one run, and every later lookup is a subscript."""

    def __init__(self, store: GraphStore):
        self.store = store
        self.labels = _LabelMemo(store)

    def neighbors(self, entity: str) -> list[Neighbor]:
        """``(str, str, Direction constant)`` tuples with non-empty ids, never a store's equal ``str`` subclass."""
        checked = []
        try:
            for relation, other, direction in self.store.neighbors(entity):
                if direction == Direction.OUTGOING:
                    direction = Direction.OUTGOING
                elif direction == Direction.INCOMING:
                    direction = Direction.INCOMING
                else:
                    raise MalformedResults(f"direction of {relation!r} at {entity!r} is {direction!r}, "
                                           f"not {Direction.OUTGOING!r} or {Direction.INCOMING!r}")
                if not (type(relation) is str and type(other) is str):  # as for labels
                    if not (isinstance(relation, str) and isinstance(other, str)):
                        raise MalformedResults(
                            f"neighbor ({relation!r}, {other!r}) of {entity!r} has an id that is not str")
                    relation, other = str.__str__(relation), str.__str__(other)
                if not (relation and other):
                    raise MalformedResults(f"neighbor ({relation!r}, {other!r}) of {entity!r} has an empty id")
                checked.append((relation, other, direction))
        except EngineError:
            raise
        except Exception as exc:  # a store that raises, or lists something that is no triple
            raise KgUnavailable(f"graph store failed: {describe(exc)}") from exc
        return checked

    def entity_with_label(self, text: str) -> str | None:
        """A non-empty ``str`` or ``None``; call it only when the store has ``entity_with_label``."""
        try:
            entity = self.store.entity_with_label(text)
            if entity is None:
                return None
            if not isinstance(entity, str):
                raise MalformedResults(f"entity with label {text!r} is {type(entity).__name__}, not str")
            entity = str.__str__(entity)  # as for labels
        except EngineError:
            raise
        except Exception as exc:
            raise KgUnavailable(f"graph store failed: {describe(exc)}") from exc
        if not entity:
            raise MalformedResults(f"entity with label {text!r} is empty")
        return entity


class SparqlTemplate(str, Enum):
    OUTGOING_EDGES = "outgoing_edges"
    INCOMING_EDGES = "incoming_edges"
    NEIGHBORS = "neighbors"
    EDGES = "edges"
    LABELS = "labels"


def render_sparql(
    template: SparqlTemplate,
    entity: str | Iterable[str],
    config: EngineConfig | None = None,
) -> str:
    """Substitute entity IDs into a fixed query template.

    Prefix, id grammar, label property and LIMIT come from ``config``
    (``EngineConfig()`` when omitted).  ``LABELS`` takes any number of IDs
    and has no LIMIT, since a truncated answer would read as "no label" for
    the IDs cut off; the other templates take exactly one.  ``NEIGHBORS``
    asks for the entity's own label and both edge directions at once, each
    edge's far end with its label through ``OPTIONAL``; its LIMIT is twice
    ``kg_result_limit``, and label rows count toward it.  ``EDGES`` asks for
    both edge directions alone, with the same LIMIT.  IDs are validated
    against the configured grammar before substitution; anything outside it
    is rejected, which doubles as injection protection.
    """
    if config is None:
        config = EngineConfig()
    ids = [entity] if isinstance(entity, str) else list(entity)
    pattern = config.entity_id_pattern
    for one in ids:
        if not re.fullmatch(pattern, one):
            raise InvalidEntityId(f"entity id does not match grammar {pattern!r}: {one!r}")
    header = f"PREFIX ns: <{config.kg_prefix}>\n"
    label = f"ns:{config.label_property}"
    if template is SparqlTemplate.LABELS:
        values = " ".join(f"ns:{one}" for one in ids)
        return f"{header}SELECT ?x ?label WHERE {{ VALUES ?x {{ {values} }} ?x {label} ?label }}"
    if len(ids) != 1:
        raise ValueError(f"{template.value} takes one entity id, got {len(ids)}")
    entity = ids[0]
    limit = config.kg_result_limit
    if template is SparqlTemplate.OUTGOING_EDGES:
        body = f"SELECT ?relation ?tail WHERE {{ ns:{entity} ?relation ?tail }}"
    elif template is SparqlTemplate.INCOMING_EDGES:
        body = f"SELECT ?relation ?head WHERE {{ ?head ?relation ns:{entity} }}"
    elif template is SparqlTemplate.NEIGHBORS:
        body = (
            f"SELECT ?relation ?tail ?head ?label WHERE {{ {{ ns:{entity} {label} ?label }} "
            f"UNION {{ ns:{entity} ?relation ?tail OPTIONAL {{ ?tail {label} ?label }} }} "
            f"UNION {{ ?head ?relation ns:{entity} OPTIONAL {{ ?head {label} ?label }} }} }}"
        )
        limit *= 2
    elif template is SparqlTemplate.EDGES:
        body = (
            f"SELECT ?relation ?tail ?head WHERE {{ {{ ns:{entity} ?relation ?tail }} "
            f"UNION {{ ?head ?relation ns:{entity} }} }}"
        )
        limit *= 2
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(template)
    return f"{header}{body} LIMIT {limit}"


_SPARQL_HEADERS = {
    "Accept": "application/sparql-results+json",
    "Content-Type": "application/x-www-form-urlencoded",
}


def execute(
    endpoint: str,
    query: str,
    *,
    timeout: float = EngineConfig.http_timeout,
    retries: int = EngineConfig.http_retries,
    session: Client | None = None,
) -> list[dict[str, str]]:
    """Run a query over the SPARQL 1.1 protocol; return variable->value rows.

    POSTs the query form-encoded with ``transport.post``'s retries, through
    ``session``'s pool if given, else through one opened and closed for
    this query.  A non-conforming document raises MalformedResults at once.
    """
    return post(endpoint, _rows, KgUnavailable, log, body=urlencode({"query": query}).encode(),
                headers=_SPARQL_HEADERS, timeout=timeout, retries=retries, session=session)


def _rows(resp: urllib3.BaseHTTPResponse) -> list[dict[str, str]]:
    """Variable -> value rows; every value is a ``str`` or MalformedResults is raised."""
    try:
        bindings = resp.json()["results"]["bindings"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise MalformedResults(f"non-conforming SPARQL JSON results: {exc}") from exc
    if not isinstance(bindings, list):
        raise MalformedResults("bindings is not an array")
    rows = []
    for binding in bindings:
        if not isinstance(binding, dict):
            raise MalformedResults("binding row is not an object")
        row = {}
        for var, cell in binding.items():
            try:
                value = cell["value"]
            except (KeyError, TypeError) as exc:
                raise MalformedResults(f"binding cell missing value: {exc}") from exc
            if not isinstance(value, str):
                raise MalformedResults(f"binding value of ?{var} is {type(value).__name__}, not str")
            row[var] = value
        rows.append(row)
    return rows


def _field(row: dict[str, str], var: str) -> str:
    try:
        return row[var]
    except KeyError:
        raise MalformedResults(f"result row lacks ?{var}: {sorted(row)}") from None


# The variable naming an edge's far end in a NEIGHBORS row -> the edge's
# direction and the query for that direction alone.
_ENDS = {
    "tail": (_OUT, SparqlTemplate.OUTGOING_EDGES),
    "head": (_IN, SparqlTemplate.INCOMING_EDGES),
}


class SparqlGraphStore(Client):
    """GraphStore over a remote SPARQL 1.1 endpoint.

    Every setting is read from ``config`` where it is used, ``sparql_url``
    as the endpoint.  Labels, ``None`` included, and each entity's sorted
    neighbour list are cached for the adapter's lifetime, which assumes the
    graph, its edges as its labels, does not change under it: build a new
    adapter to see changes.  The label cache holds ``LABEL_CACHE_SIZE`` ids
    and the neighbour cache ``NEIGHBOR_CACHE_EDGES`` edges, oldest evicted
    first.  Every query goes through the module's ``execute`` and the
    store's ``transport.Client`` pool, opened on the first query, which
    resolves the environment's proxy, CA-bundle and netrc settings for the
    endpoint once: changes to them after that query are not seen.
    ``close()`` closes the pooled connections and clears neither cache.
    ``neighbors`` joins labels into its edge query until a full answer shows
    ids with several labels each; the store then asks for edges and labels
    apart for the rest of its lifetime.
    """

    _join_labels = True  # cleared on the instance by the first full answer that label rows crowd
    # entity -> (relations, far ends, direction letters), oldest first; set on the instance by the first insert
    _neighbor_lists: OrderedDict[str, tuple[tuple[str, ...], tuple[str, ...], str]] | None = None
    _neighbor_edges = 0  # the edges _neighbor_lists holds, an entity with none counting as one

    def __init__(self, config: EngineConfig):
        self.config = config
        self._labels: OrderedDict[str, str | None] = OrderedDict()  # oldest first; an update keeps its place
        self._lock = threading.Lock()

    def _execute(self, query: str) -> list[dict[str, str]]:
        config = self.config
        return execute(config.sparql_url, query, timeout=config.http_timeout,
                       retries=config.http_retries, session=self)

    def _remember(self, labels: dict[str, str | None]) -> None:
        with self._lock:
            self._labels.update(labels)
            while len(self._labels) > LABEL_CACHE_SIZE:
                self._labels.popitem(last=False)

    def _fetch_labels(self, ids: Iterable[str], known: dict[str, str | None]) -> dict[str, str | None]:
        """Every id's label, cached: ``None`` outside the grammar, else the label ``known`` holds for it,
        else the first row of one batched query for the ids ``known`` lacks."""
        pattern, prefix = self.config.entity_id_pattern, self.config.kg_prefix
        fetched: dict[str, str | None] = dict.fromkeys(ids)
        missing = []
        for i in fetched:
            if not re.fullmatch(pattern, i):
                continue
            if i in known:
                fetched[i] = known[i]
            else:
                missing.append(i)
        if missing:
            found: dict[str, str] = {}
            for row in self._execute(render_sparql(SparqlTemplate.LABELS, missing, self.config)):
                found.setdefault(_field(row, "x").removeprefix(prefix), _field(row, "label"))
            for i in missing:
                fetched[i] = found.get(i)
        if fetched:
            self._remember(fetched)
        return fetched

    def _keep_neighbors(self, entity: str, neighbors: list[Neighbor]) -> None:
        """Cache ``entity``'s neighbour list: its ids interned, so each is held once, its directions as letters."""
        relations, ends, directions = zip(*neighbors) if neighbors else ((), (), ())
        entry = (tuple(map(sys.intern, relations)), tuple(map(sys.intern, ends)),
                 "".join([direction[0] for direction in directions]))
        with self._lock:
            lists = self._neighbor_lists
            if lists is None:
                lists = self._neighbor_lists = OrderedDict()
            kept = self._neighbor_edges + (len(ends) or 1)
            if (old := lists.pop(entity, None)) is not None:  # another thread read the same entity meanwhile
                kept -= len(old[1]) or 1
            lists[sys.intern(entity)] = entry
            while kept > NEIGHBOR_CACHE_EDGES:
                kept -= len(lists.popitem(last=False)[1][1]) or 1
            self._neighbor_edges = kept

    def neighbors(self, entity: str) -> list[Neighbor]:
        """At most ``kg_result_limit`` edges per direction, and the labels of the ends, from one query.

        The joined query's rows are edges, each carrying its far end's label
        if it has one, and the entity's own label.  The entity and each
        neighbour not cached yet are cached from that answer through
        ``_fetch_labels``: the first label row wins, and an id without one is
        ``None``.  Label rows count toward the query's LIMIT, so a full answer
        (``2 * kg_result_limit`` rows) may have cut a direction short: only then
        is each direction holding fewer than ``kg_result_limit`` distinct edges
        asked for again on its own, and the ids that this brings in, like the
        entity itself when its label row was cut, are asked for in one batched
        label query.  A full answer with more label rows than one per edge and
        one for the entity means ids with several labels crowd edges out: from
        then on the store sends the edges-only query, refills the same way and
        asks one batched label query for every id not cached.

        A list returned once is cached, so the next call for the entity sends
        no edge query, only one batched label query for the ids whose labels
        were evicted since; the caller gets a fresh list each time.  A call
        that raised caches nothing.
        """
        cached = self._labels
        lists = self._neighbor_lists
        if lists and (entry := lists.get(entity)) is not None:
            relations, ends, letters = entry
            if missing := [i for i in (entity, *ends) if i not in cached]:
                self._fetch_labels(missing, {})
            return list(zip(relations, ends, map(_BY_LETTER.__getitem__, letters)))
        config = self.config
        limit = config.kg_result_limit
        joined = self._join_labels
        rows = self._execute(render_sparql(SparqlTemplate.NEIGHBORS if joined else SparqlTemplate.EDGES,
                                           entity, config))
        by_end: dict[str, dict[Neighbor, None]] = {other: {} for other in _ENDS}  # distinct, in row order
        found: dict[str, str | None] = {}  # id -> its first label row's label, None while it has none
        prefix = config.kg_prefix
        for row in rows:
            label = row.get("label")
            has_tail, has_head = "tail" in row, "head" in row
            if has_tail is not has_head:
                other = "tail" if has_tail else "head"
                end = row[other].removeprefix(prefix)
                by_end[other][_field(row, "relation").removeprefix(prefix), end, _ENDS[other][0]] = None
            elif has_tail or label is None or len(row) != 1 or not joined:
                raise MalformedResults(
                    f"union row needs exactly one of ?tail and ?head, or ?label alone: {sorted(row)}")
            else:
                end = entity
            if found.get(end) is None:
                found[end] = label
        full = len(rows) >= 2 * limit
        if joined and full and len(rows) > len(by_end["tail"]) + len(by_end["head"]) + 1:
            self._join_labels = False  # label rows took edges' places: ask for edges and labels apart from now on
        out: list[Neighbor] = []
        for other, (direction, template) in _ENDS.items():
            edges = list(by_end[other])
            if full and len(edges) < limit:
                edges = [(_field(row, "relation").removeprefix(prefix), _field(row, other).removeprefix(prefix),
                          direction) for row in self._execute(render_sparql(template, entity, config))]
            out += edges[:limit]
        neighbors = sorted(set(out))
        if not joined:
            found = {}  # an edges-only answer holds no label
        elif not full:
            found.setdefault(entity, None)  # a complete answer holds the entity's own label row, if it has one
        self._fetch_labels([i for i in [entity, *(end for _, end, _ in neighbors)] if i not in cached], found)
        self._keep_neighbors(entity, neighbors)
        return neighbors

    def label(self, entity_or_relation: str) -> str | None:
        """The cached label, else one query; ``None``, cached too, for an id with no label or outside the
        grammar (a relation id, say), which is never sent."""
        try:
            return self._labels[entity_or_relation]
        except KeyError:
            return self._fetch_labels([entity_or_relation], {})[entity_or_relation]


class InMemoryGraphStore:
    """Bidirectionally indexed triple store loaded from a TSV file.

    Each entity's edges, both directions, are kept as the very tuples
    ``neighbors`` returns.  Its sorted neighbour list is built on its first
    ``neighbors`` call and kept until ``add_triple`` touches that entity;
    the memo shares the index's tuples, and callers get a copy of the
    list, so nothing they do to it reaches the memo.
    """

    def __init__(self):
        self._edges: dict[str, set[Neighbor]] = {}
        self._labels: dict[str, str] = {}
        self._sorted: dict[str, list[Neighbor]] = {}

    def add_triple(self, head: str, relation: str, tail: str) -> None:
        self._edges.setdefault(head, set()).add((relation, tail, _OUT))
        self._edges.setdefault(tail, set()).add((relation, head, _IN))
        if self._sorted:  # empty while a file loads, so loading pays nothing here
            self._sorted.pop(head, None)
            self._sorted.pop(tail, None)

    def add_label(self, entity_or_relation: str, text: str) -> None:
        self._labels[entity_or_relation] = text

    def neighbors(self, entity: str) -> list[Neighbor]:
        memo = self._sorted.get(entity)
        if memo is None:
            memo = sorted(self._edges.get(entity, ()))
            if memo:  # ids not in the graph are not kept, so the memo stays graph-sized
                self._sorted[entity] = memo
        return list(memo)

    def label(self, entity_or_relation: str) -> str | None:
        return self._labels.get(entity_or_relation)

    def entity_with_label(self, text: str) -> str | None:
        """Reverse label lookup, used for backend-extracted topic entities:
        the smallest id that heads or tails a triple and whose label matches
        ``text``, case and outer space aside, so a relation's label finds no entity."""
        wanted = text.strip().lower()
        return min((key for key, lab in self._labels.items() if lab.strip().lower() == wanted and key in self._edges),
                   default=None)


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
            a, b, c = map(str.strip, parts)
            if not (a and b and c):
                raise ParseError(f"line {lineno}: empty field")
            if a == "label":
                store.add_label(b, c)
            else:
                store.add_triple(a, b, c)
    return store
