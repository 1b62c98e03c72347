"""Embedding-based candidate pruning.

When exploration returns more candidates than the configured threshold
(70 by default), only the candidates whose rendered text is most similar
to the step objective are kept.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
import re
import threading
from operator import mul
from typing import Iterable, Protocol, Sequence

import requests

from .errors import DimensionMismatch, PruningUnavailable, ZeroVector
from .transport import post
from .triples import CandidateTriple

Vector = Sequence[float]

# Token -> bucket entries one HashingEmbedder keeps; past this it starts over.
TOKEN_MEMO_SIZE = 8_192
_TOKEN = re.compile(r"[a-z0-9]+")
_MEMO_LOCK = threading.Lock()  # taken on memo misses only

log = logging.getLogger(__name__)


class Embedder(Protocol):
    def embed(self, texts: list[str]) -> list[list[float]]: ...


def _sum_squares(v: Vector) -> float:
    nonzero = [*filter(None, v)]
    return sum(map(mul, nonzero, nonzero))


def _cosines(u: Vector, vectors: Iterable[Vector]) -> list[float]:
    """Cosine similarity of ``u`` with each vector; ``u``'s norm is taken once.

    Only nonzero components enter the sums, in ascending index order:
    skipping exact zeros leaves every float sum bit for bit unchanged.
    A non-finite component raises ``PruningUnavailable``, so it can never
    rank first.  Components are not type-checked: ``None`` is skipped like
    a zero, so it reads as 0 where the objective is zero and raises
    ``TypeError`` where it is not, as any other non-number does.
    """
    dim = len(u)
    nonzeros = [(i, a) for i, a in enumerate(u) if a]
    nu = math.sqrt(_sum_squares(u))
    if not math.isfinite(nu):
        raise PruningUnavailable("objective vector has a non-finite component")
    scores = []
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatch(f"dimensions differ: {dim} vs {len(v)}")
        nv = math.sqrt(_sum_squares(v))
        dot = sum([a * v[i] for i, a in nonzeros])
        if not math.isfinite(dot + nv):  # inf or NaN in either
            raise PruningUnavailable("vector has a non-finite component")
        if nu == 0.0 or nv == 0.0:
            raise ZeroVector("cosine similarity undefined for a zero vector")
        scores.append(max(-1.0, min(1.0, dot / (nu * nv))))
    return scores


def cosine_similarity(u: Vector, v: Vector) -> float:
    return _cosines(u, [v])[0]


def prune(
    candidates: list[CandidateTriple],
    objective: str,
    threshold: int,
    embedder: Embedder,
) -> list[CandidateTriple]:
    """Keep the ``threshold`` candidates most relevant to the objective.

    Scores are populated on every candidate either way.  At or below the
    threshold the input list comes back unchanged; above it, the top
    ``threshold`` by cosine similarity are returned sorted score-descending,
    ties broken by lexicographic rendering, then by key.  Unusable vectors,
    non-numeric components included, raise ``PruningUnavailable``.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if not candidates:
        return []
    texts = [c.render() for c in candidates]
    try:
        vectors = embedder.embed([objective] + texts)
    except Exception as exc:
        raise PruningUnavailable(f"embedder failed: {exc}") from exc
    if len(vectors) != len(texts) + 1:
        raise PruningUnavailable(f"embedder returned {len(vectors)} vectors for {len(texts) + 1} texts")
    try:
        scores = _cosines(vectors[0], vectors[1:])
    except TypeError as exc:
        raise PruningUnavailable(f"embedder returned a non-numeric vector: {exc}") from exc
    for cand, score in zip(candidates, scores):
        cand.score = score
    if len(candidates) <= threshold:
        return candidates
    ranked = heapq.nsmallest(
        threshold, zip(candidates, texts), key=lambda ct: (-ct[0].score, ct[1], ct[0].key())
    )
    return [c for c, _ in ranked]


class HashingEmbedder:
    """Deterministic token-hash bag-of-words embedder for offline runs."""

    def __init__(self, dim: int = 64):
        self.dim = dim
        self._buckets: dict[str, int] = {}

    def _bucket(self, token: str) -> int:
        bucket = int(hashlib.md5(token.encode("utf-8")).hexdigest(), 16) % self.dim
        with _MEMO_LOCK:
            if len(self._buckets) >= TOKEN_MEMO_SIZE:
                self._buckets.clear()
            self._buckets[token] = bucket
        return bucket

    def _one(self, text: str) -> list[float]:
        vec = [0.0] * self.dim
        tokens = _TOKEN.findall(text.lower())
        if not tokens:
            vec[0] = 1.0  # token-free text still needs a nonzero vector
            return vec
        buckets = self._buckets
        for token in tokens:
            try:
                vec[buckets[token]] += 1.0
            except KeyError:
                vec[self._bucket(token)] += 1.0
        return vec

    def embed(self, texts: list[str]) -> list[list[float]]:
        return [self._one(t) for t in texts]


class HttpEmbedder:
    """Embeddings over an HTTP endpoint taking {model, input:[...]}, with
    ``transport.post``'s retries, a malformed body included."""

    def __init__(self, url: str, model: str, token: str = "", timeout: float = 30.0, retries: int = 2):
        self.url = url
        self.model = model
        self.token = token
        self.timeout = timeout
        self.retries = retries

    def embed(self, texts: list[str]) -> list[list[float]]:
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        body = {"model": self.model, "input": texts}
        vectors = post(self.url, _embeddings, PruningUnavailable, log, timeout=self.timeout,
                       retries=self.retries, json=body, headers=headers)
        if len(vectors) != len(texts):
            raise PruningUnavailable("embeddings endpoint returned wrong number of vectors")
        return vectors


def _embeddings(resp: requests.Response) -> list[list[float]]:
    try:
        return [item["embedding"] for item in resp.json()["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise PruningUnavailable(f"malformed embeddings response: {exc}") from exc


class CachingEmbedder:
    """Per-run cache keyed by exact text; repeated renderings embed once."""

    def __init__(self, inner: Embedder):
        self.inner = inner
        self._cache: dict[str, list[float]] = {}

    def embed(self, texts: list[str]) -> list[list[float]]:
        missing = [t for t in dict.fromkeys(texts) if t not in self._cache]
        if missing:
            for text, vec in zip(missing, self.inner.embed(missing)):
                self._cache[text] = vec
        return [self._cache[t] for t in texts]
