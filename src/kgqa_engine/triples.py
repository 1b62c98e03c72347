"""Candidate triples: the unit of graph exploration."""

from __future__ import annotations

from dataclasses import dataclass, field


class Direction:
    """The two directions of an edge seen from an entity, as the plain strings a graph store yields."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"


# (head, relation, tail, direction) -- hashable identity used by the
# knowledge memory sets and the trace files.
TripleKey = tuple[str, str, str, str]


@dataclass(slots=True)
class CandidateTriple:
    """One (head, relation, tail) edge seen from a frontier entity.

    Outgoing means the head is the frontier; incoming means the tail is.
    ``score`` stays None until pruning populates it.  The key is built once,
    at construction, so head, relation, tail and direction must not be
    reassigned afterwards.
    """

    head: str
    relation: str
    tail: str
    direction: str  # Direction.OUTGOING or Direction.INCOMING
    head_label: str = ""
    relation_label: str = ""
    tail_label: str = ""
    score: float | None = None
    _key: TripleKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._key = (self.head, self.relation, self.tail, self.direction)

    def key(self) -> TripleKey:
        return self._key

    def parts(self) -> tuple[str, str, str]:
        """(head, relation, tail) as displayed: each label, or its id where the label is empty."""
        return self.head_label or self.head, self.relation_label or self.relation, self.tail_label or self.tail

    def render(self) -> str:
        head, rel, tail = self.parts()
        return f"{head} —{rel}→ {tail}"

    def to_dict(self) -> dict:
        return {
            "head": self.head,
            "relation": self.relation,
            "tail": self.tail,
            "direction": self.direction,
            "head_label": self.head_label,
            "relation_label": self.relation_label,
            "tail_label": self.tail_label,
            "score": self.score,
        }

