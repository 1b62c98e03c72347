"""Embedding-based candidate pruning.

When exploration returns more candidates than the configured threshold
(70 by default), only the candidates whose rendered text is most similar
to the step objective are kept.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import threading
from typing import Iterable, Protocol, Sequence

import urllib3

from .config import EngineConfig
from .errors import PruningUnavailable, describe
from .transport import JSON_HEADERS, Client, post
from .triples import CandidateTriple

Vector = Sequence[float]

# Entries a HashingEmbedder's memo keeps; past this it starts over.
TOKEN_MEMO_SIZE = 8_192
_TOKEN = re.compile(r"[a-z0-9]+")
_MEMO_LOCK = threading.Lock()  # taken on memo misses only
EMBED_TOKEN_ENV = "KGQA_EMBED_TOKEN"  # bearer token, read on each request

log = logging.getLogger(__name__)


class Embedder(Protocol):
    def embed(self, texts: list[str]) -> list[list[float]]: ...


def _cosines(u: Vector, vectors: Iterable[Vector]) -> list[float]:
    """Cosine similarity of ``u`` with each vector; ``u``'s norm is taken once.

    Only nonzero components enter the sums, in ascending index order and
    from ``0``: skipping exact zeros leaves every float sum bit for bit
    unchanged.  A non-finite component raises ``PruningUnavailable``, so it
    can never rank first.  Components are not type-checked: ``None`` is
    skipped like a zero, so it reads as 0 where the objective is zero and
    raises ``TypeError`` where it is not, as any other non-number does; an
    int too large for a float raises ``OverflowError``.  ``prune`` uses it
    for every embedder but an exact ``HashingEmbedder``, which scores its
    own texts (``HashingEmbedder.similarities``).
    """
    sqrt, isfinite = math.sqrt, math.isfinite
    dim = len(u)
    nonzeros = [(i, a) for i, a in enumerate(u) if a]
    nu = sqrt(sum([a * a for _, a in nonzeros]))
    if not isfinite(nu):
        raise PruningUnavailable("objective vector has a non-finite component")
    scores = []
    for v in vectors:
        if len(v) != dim:
            raise PruningUnavailable(f"dimensions differ: {dim} vs {len(v)}")
        nv = sqrt(sum([b * b for b in v if b]))
        dot = sum([a * v[i] for i, a in nonzeros])
        if not isfinite(dot + nv):  # inf or NaN in either
            raise PruningUnavailable("vector has a non-finite component")
        if nu == 0.0 or nv == 0.0:
            raise PruningUnavailable("cosine similarity undefined for a zero vector")
        score = dot / (nu * nv)
        # clamped as max(-1.0, min(1.0, score)) would, without two calls
        scores.append(1.0 if score > 1.0 else -1.0 if score < -1.0 else score)
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

    Scores (cosine similarity) are populated on every candidate either
    way, and ``rank`` makes the cut.  An embedder of exactly type
    ``HashingEmbedder`` scores through ``similarities``, from each
    candidate's ``parts()`` and bit for bit what ``embed`` and
    ``_cosines`` give for its rendered text, each part a subscript of its
    memo, whose ``__missing__`` hashes a new part; any other embedder, a
    ``HashingEmbedder`` subclass or wrapper included, is asked through
    ``embed``.  Unusable vectors (non-numeric components, ints too large
    for a float, anything that fails to be indexed or multiplied) raise
    ``PruningUnavailable``, as does any failure of the embedder itself, an
    answer with no length such as ``None`` included.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if not candidates:
        return []
    if type(embedder) is HashingEmbedder:  # not a subclass or wrapper: those embed
        try:
            scores = embedder.similarities(objective, [c.parts() for c in candidates])
        except Exception as exc:
            raise PruningUnavailable(f"embedder failed: {describe(exc, str)}") from exc
    else:
        texts = [c.render() for c in candidates]
        try:
            vectors = embedder.embed([objective] + texts)
            count = len(vectors)  # None or a generator has none: the embedder failed
        except Exception as exc:
            raise PruningUnavailable(f"embedder failed: {describe(exc, str)}") from exc
        if count != len(texts) + 1:
            raise PruningUnavailable(f"embedder returned {count} vectors for {len(texts) + 1} texts")
        try:
            scores = _cosines(vectors[0], vectors[1:])
        except PruningUnavailable:
            raise
        except Exception as exc:  # a non-number, an int too large for a float, a vector it cannot index or multiply
            raise PruningUnavailable(f"embedder returned an unusable vector: {describe(exc, str)}") from exc
    for cand, score in zip(candidates, scores):
        cand.score = score
    return rank(candidates, threshold)


def rank(candidates: list[CandidateTriple], threshold: int) -> list[CandidateTriple]:
    """Pruning's cut of candidates whose scores are already set.

    At or below the threshold the input list comes back unchanged; above
    it, the top ``threshold`` are returned sorted score-descending, ties
    broken by rendering, then by key, then by input order.  Dropping
    candidates from a ranked list leaves the order of the rest unchanged,
    so a subset of candidates scored once ranks the same without embedding
    them again.
    """
    if len(candidates) <= threshold:
        return candidates
    texts = [c.render() for c in candidates]
    # the trailing index keeps full ties in input order and never lets
    # two candidates be compared
    keys = [c.key() for c in candidates]
    ranked = sorted(zip([-c.score for c in candidates], texts, keys, range(len(candidates))))
    return [candidates[i] for *_, i in ranked[:threshold]]


class HashingEmbedder:
    """Deterministic token-hash bag-of-words embedder for offline runs.

    A text's vector counts its tokens (``[a-z0-9]+`` in the lowered text)
    per bucket; a token-free text counts one in bucket 0.  One
    per-instance memo (``_BucketMemo``) maps a string to its tokens'
    buckets (``()`` for a token-free one).  ``embed`` looks up each
    whitespace chunk of a text, since no token spans whitespace, and
    ``similarities`` each part of a text given as parts; only a miss, the
    memo's ``__missing__``, lowers the string and runs the regex and md5.
    ``similarities`` builds no vector per text.
    """

    def __init__(self, dim: int = 64):
        if type(dim) is not int or dim < 1:  # a bool is not a dimension
            raise ValueError(f"dim must be an int >= 1, not {dim!r}")
        self.dim = dim
        self._parts = _BucketMemo(dim)  # whitespace chunk or label part -> buckets

    def _one(self, text: str) -> list[float]:
        memo = self._parts
        buckets: list[int] = []
        for chunk in text.split():
            buckets += memo[chunk]
        vec = [0.0] * self.dim
        for bucket in buckets or [0]:  # token-free text still needs a nonzero vector
            vec[bucket] += 1.0
        return vec

    def embed(self, texts: list[str]) -> list[list[float]]:
        return [self._one(t) for t in texts]

    def similarities(self, objective: str, texts: list[tuple[str, ...]]) -> list[float]:
        """Cosine similarity of ``objective`` with each text, as ``_cosines``
        gives it over ``embed``'s vectors, bit for bit.

        Each text is a tuple of parts, the text they make when joined by
        separators holding no ``[a-z0-9]``: ``prune`` passes a candidate's
        ``parts()``, which ``render()`` joins with `` —`` and ``→ ``, and a
        whole text is a one-part tuple.  A text's buckets are its parts'
        buckets, each part looked up whole in the memo, concatenated, or
        ``[0]`` when no part has a token.  Lowering is context-free but for
        the final sigma, and neither sigma is a token character, so these
        are the buckets ``embed`` finds in the joined text.

        Only the objective gets a vector.  A text's dot product sums the
        objective's components at the text's buckets, and its squared norm
        is the sum of each bucket's count over the bucket list, which is
        the sum of the squared counts.  Every component is a count, an
        integer-valued float, so every sum is an integer below 2**53 and
        exact in any order: the dot product, the norm and the quotient are
        the dense path's, and so is the clamp, which fires on a text equal
        to the objective (``3 / (sqrt(3) * sqrt(3)) > 1``).  The dense
        path's per-vector checks cannot fail here: every bucket is below
        ``dim``, every count is finite and no bucket list is empty.  The
        objective's norm is checked once.
        """
        sqrt = math.sqrt
        u = self._one(objective)
        nu = sqrt(sum([a * a for a in u if a]))
        if not math.isfinite(nu) or nu == 0.0:
            raise PruningUnavailable("objective vector is zero or has a non-finite component")
        weight = u.__getitem__
        memo = self._parts
        scores = []
        for text in texts:
            buckets: list[int] = []
            for p in text:
                buckets += memo[p]
            if not buckets:
                buckets = [0]
            score = sum(map(weight, buckets)) / (nu * sqrt(sum(map(buckets.count, buckets))))
            scores.append(1.0 if score > 1.0 else score)  # no count is negative
        return scores


class _BucketMemo(dict):
    """Buckets per string, for one ``HashingEmbedder``: a hit is a plain subscript, with no Python frame;
    ``__missing__`` enters a new string, clearing the memo first when it holds ``TOKEN_MEMO_SIZE``."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):  # dict.__new__ made it empty: no dict.__init__ to run
        self.dim = dim

    def __missing__(self, part: str) -> tuple[int, ...]:
        tokens = _TOKEN.findall(part.lower())
        buckets = tuple([int(hashlib.md5(t.encode("utf-8")).hexdigest(), 16) % self.dim for t in tokens])
        with _MEMO_LOCK:
            if len(self) >= TOKEN_MEMO_SIZE:
                self.clear()
            self[part] = buckets
        return buckets


class HttpEmbedder(Client):
    """Embeddings over an HTTP endpoint taking {model, input:[...]}, with
    ``transport.post``'s retries, a malformed body included.  Endpoint,
    model, timeout and retries are read from ``config`` (``embed_url``,
    ``embed_model``, ``http_timeout``, ``http_retries``) on each call.  The
    bearer token comes from ``KGQA_EMBED_TOKEN``.  Requests go through the
    embedder's ``transport.Client`` pool, opened on the first call, which
    takes the environment's proxy, CA-bundle and netrc settings once."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def embed(self, texts: list[str]) -> list[list[float]]:
        config = self.config
        body = json.dumps({"model": config.embed_model, "input": texts}).encode()
        vectors = post(config.embed_url, _embeddings, PruningUnavailable, log, body=body, headers=JSON_HEADERS,
                       timeout=config.http_timeout, retries=config.http_retries, session=self,
                       token_env=EMBED_TOKEN_ENV)
        if len(vectors) != len(texts):
            raise PruningUnavailable("embeddings endpoint returned wrong number of vectors")
        return vectors


def _embeddings(resp: urllib3.BaseHTTPResponse) -> list[list[float]]:
    try:
        return [item["embedding"] for item in resp.json()["data"]]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise PruningUnavailable(f"malformed embeddings response: {exc}") from exc
