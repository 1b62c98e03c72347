"""Cosine similarity and candidate pruning, checked against a sort oracle."""

import hashlib
import json
import logging
import math
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import JsonStub, StageBackend
from kgqa_engine import pruning
from kgqa_engine.errors import DimensionMismatch, PruningUnavailable, ZeroVector
from kgqa_engine.orchestrator import Engine, Stage
from kgqa_engine.pruning import (
    CachingEmbedder,
    HashingEmbedder,
    HttpEmbedder,
    cosine_similarity,
    prune,
)
from kgqa_engine.triples import CandidateTriple, Direction


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_45_degrees(self):
        # hand-computed: 1/sqrt(2)
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(0.70711, abs=1e-5)

    def test_opposite_vectors(self):
        assert cosine_similarity([2, 3], [-2, -3]) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity([1, 0, 0], [1, 0])

    def test_range_clamped(self):
        rng = random.Random(0)
        for _ in range(100):
            u = [rng.uniform(-5, 5) for _ in range(8)]
            v = [rng.uniform(-5, 5) for _ in range(8)]
            if not any(u) or not any(v):
                continue
            assert -1.0 <= cosine_similarity(u, v) <= 1.0


def make_candidates(n, rng=None, vocab=None):
    rng = rng or random.Random(0)
    vocab = vocab or ["river", "city", "capital", "person", "film", "award", "date", "country"]
    cands = []
    for i in range(n):
        cands.append(
            CandidateTriple(
                head=f"h{i}",
                relation=f"r{rng.randrange(40)}",
                tail=f"t{rng.randrange(60)}",
                direction=rng.choice([Direction.OUTGOING, Direction.INCOMING]),
                head_label=rng.choice(vocab),
                relation_label=f"{rng.choice(vocab)} {rng.choice(vocab)}",
                tail_label=rng.choice(vocab),
            )
        )
    return cands


def cos(u, v):
    """Reference cosine: a fresh dot and two fresh norms over every component."""
    dot = sum(a * b for a, b in zip(u, v))
    return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))


def oracle_top_t(candidates, objective, t, embedder):
    """Independent reference: embed, score with a fresh dot/norm, full sort."""
    obj_vec = embedder.embed([objective])[0]
    scored = []
    for c in candidates:
        vec = embedder.embed([c.render()])[0]
        scored.append((-cos(obj_vec, vec), c.render(), c.key()))
    scored.sort()
    return {key for _, _, key in scored[:t]}


class TestPrune:
    def test_below_threshold_returns_all_scored(self):
        cands = make_candidates(5)
        out = prune(cands, "find the capital city", 70, HashingEmbedder())
        assert out is cands
        assert all(c.score is not None for c in out)

    def test_size_is_min_of_count_and_threshold(self):
        embedder = CachingEmbedder(HashingEmbedder())
        rng = random.Random(1)
        for n, t in [(1, 1), (10, 5), (100, 70), (70, 70), (71, 70)]:
            out = prune(make_candidates(n, rng), "objective text", t, embedder)
            assert len(out) == min(n, t)

    def test_output_subset_of_input(self):
        cands = make_candidates(120)
        out = prune(cands, "find the film award", 70, HashingEmbedder())
        ids = {id(c) for c in cands}
        assert all(id(c) in ids for c in out)

    def test_above_threshold_sorted_descending(self):
        out = prune(make_candidates(150), "the capital", 70, HashingEmbedder())
        scores = [c.score for c in out]
        assert scores == sorted(scores, reverse=True)

    def test_identical_scores_tie_break_lexicographic(self):
        # identical rendering inputs all score equally; distinct renderings,
        # equal scores: force via identical labels but distinct keys
        cands = []
        for i in range(100):
            cands.append(
                CandidateTriple(
                    head=f"h{i}",
                    relation="r",
                    tail=f"t{i}",
                    direction=Direction.OUTGOING,
                    head_label=f"node {i:03d}",
                    relation_label="same words here",
                    tail_label="same tail",
                )
            )

        class ConstantEmbedder:
            def embed(self, texts):
                return [[1.0, 2.0]] * len(texts)

        out = prune(cands, "objective", 70, ConstantEmbedder())
        renders = sorted(c.render() for c in cands)[:70]
        assert sorted(c.render() for c in out) == renders

    def test_matches_sort_oracle(self):
        embedder = CachingEmbedder(HashingEmbedder())
        rng = random.Random(42)
        cands = make_candidates(100, rng)
        out = prune(list(cands), "find the capital of the country", 70, embedder)
        expected = oracle_top_t(cands, "find the capital of the country", 70, embedder)
        assert {c.key() for c in out} == expected

    def test_permutation_stability(self):
        embedder = CachingEmbedder(HashingEmbedder())
        rng = random.Random(9)
        cands = make_candidates(90, rng)
        baseline = {c.key() for c in prune(list(cands), "goal", 40, embedder)}
        for seed in range(5):
            shuffled = list(cands)
            random.Random(seed).shuffle(shuffled)
            assert {c.key() for c in prune(shuffled, "goal", 40, embedder)} == baseline

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            prune(make_candidates(3), "o", 0, HashingEmbedder())

    def test_empty_input(self):
        assert prune([], "o", 5, HashingEmbedder()) == []

    def test_embedder_failure_becomes_pruning_unavailable(self):
        class BrokenEmbedder:
            def embed(self, texts):
                raise RuntimeError("boom")

        with pytest.raises(PruningUnavailable):
            prune(make_candidates(3), "o", 5, BrokenEmbedder())

    @pytest.mark.parametrize(
        "tamper",
        [lambda vecs: vecs[:-1], lambda vecs: vecs[:-3], lambda vecs: vecs + vecs[:1]],
        ids=["one_short", "three_short", "one_extra"],
    )
    def test_wrong_vector_count_becomes_pruning_unavailable(self, tamper):
        with pytest.raises(PruningUnavailable):
            prune(make_candidates(3), "o", 5, TamperedEmbedder(tamper))

    def test_vector_faults_are_pruning_unavailable(self):
        assert issubclass(ZeroVector, PruningUnavailable)
        assert issubclass(DimensionMismatch, PruningUnavailable)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["candidate", "objective"])
    def test_non_finite_component_never_ranks(self, bad, where):
        def corrupt(vecs):
            vecs = [list(v) for v in vecs]
            vecs[2 if where == "candidate" else 0][5] = bad
            return vecs

        with pytest.raises(PruningUnavailable):
            prune(make_candidates(10), "the capital", 3, TamperedEmbedder(corrupt))

    def test_non_finite_where_objective_is_zero(self):
        # the dot product skips this component; the candidate's norm must not
        def corrupt(vecs):
            zero_at = vecs[0].index(0.0)
            vecs = [list(v) for v in vecs]
            vecs[1][zero_at] = math.inf
            return vecs

        with pytest.raises(PruningUnavailable):
            prune(make_candidates(4), "the capital", 2, TamperedEmbedder(corrupt))

    @pytest.mark.parametrize("bad", [None, "1.0", [1.0]])
    def test_non_numeric_where_objective_is_nonzero(self, bad):
        def corrupt(vecs):
            nonzero_at = next(i for i, a in enumerate(vecs[0]) if a)
            vecs = [list(v) for v in vecs]
            vecs[2][nonzero_at] = bad
            return vecs

        with pytest.raises(PruningUnavailable):
            prune(make_candidates(10), "the capital", 3, TamperedEmbedder(corrupt))

    def test_none_where_objective_is_zero_reads_as_zero(self):
        def put(value):
            def corrupt(vecs):
                vecs = [list(v) for v in vecs]
                vecs[1][vecs[0].index(0.0)] = value
                return vecs

            return TamperedEmbedder(corrupt)

        with_none = prune(make_candidates(4), "the capital", 2, put(None))
        with_zero = prune(make_candidates(4), "the capital", 2, put(0.0))
        assert [(c.key(), c.score) for c in with_none] == [(c.key(), c.score) for c in with_zero]


class TamperedEmbedder:
    """HashingEmbedder output passed through ``tamper`` before it is returned."""

    def __init__(self, tamper):
        self.tamper = tamper

    def embed(self, texts):
        return self.tamper(HashingEmbedder().embed(texts))


class FixedEmbedder:
    """Hands out preset vectors: the objective's first, then one per text."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        assert len(texts) == len(self.vectors)
        return self.vectors


# exact zeros make a vector sparse; the rest keep their squares clear of
# underflow and overflow, so every reference norm is positive and finite
component = st.one_of(
    st.just(0.0),
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
)


@st.composite
def objective_and_vectors(draw):
    dim = draw(st.integers(1, 24))
    vector = st.lists(component, min_size=dim, max_size=dim).filter(any)
    return draw(vector), draw(st.lists(vector, min_size=1, max_size=12))


# few words and few ids, so equal scores, equal renderings and equal keys all occur
word = st.sampled_from(["river", "city", "capital city", ""])
candidate = st.builds(
    CandidateTriple,
    head=st.sampled_from(["h1", "h2", "h3"]),
    relation=st.sampled_from(["r1", "r2"]),
    tail=st.sampled_from(["t1", "t2", "t3"]),
    direction=st.sampled_from(list(Direction)),
    head_label=word,
    relation_label=word,
    tail_label=word,
)


@st.composite
def candidates_and_threshold(draw):
    cands = draw(st.lists(candidate, min_size=1, max_size=40))
    return cands, draw(st.integers(1, len(cands) + 2))


class TestPruneProperties:
    @given(objective_and_vectors())
    def test_scores_equal_reference_formula_bitwise(self, drawn):
        objective, vectors = drawn
        cands = make_candidates(len(vectors))
        prune(cands, "objective", len(cands), FixedEmbedder([objective, *vectors]))
        for cand, vec in zip(cands, vectors):
            expected = repr(max(-1.0, min(1.0, cos(objective, vec))))
            assert repr(cand.score) == expected
            assert repr(cosine_similarity(objective, vec)) == expected

    @given(candidates_and_threshold(), st.sampled_from(["find the capital city", "river", ""]))
    def test_kept_set_and_order_equal_full_sort(self, drawn, objective):
        cands, threshold = drawn
        kept = prune(list(cands), objective, threshold, HashingEmbedder())
        if len(cands) <= threshold:
            expected = cands
        else:
            expected = sorted(cands, key=lambda c: (-c.score, c.render(), c.key()))[:threshold]
        assert [id(c) for c in kept] == [id(c) for c in expected]


class TestHashingEmbedder:
    def test_deterministic(self):
        e = HashingEmbedder()
        assert e.embed(["capital of France"]) == e.embed(["capital of France"])

    def test_shape(self):
        vecs = HashingEmbedder(dim=64).embed(["a", "b c", ""])
        assert len(vecs) == 3
        assert all(len(v) == 64 for v in vecs)

    def test_empty_text_has_nonzero_vector(self):
        assert any(HashingEmbedder().embed([""])[0])

    @staticmethod
    def reference(text, dim=64):
        vec = [0.0] * dim
        for token in re.findall(r"[a-z0-9]+", text.lower()):
            vec[int(hashlib.md5(token.encode("utf-8")).hexdigest(), 16) % dim] += 1.0
        return vec if any(vec) else [1.0] + [0.0] * (dim - 1)

    def test_matches_md5_bucket_reference(self):
        texts = ["Capital of France", "capital —capital→ CAPITAL", "m.0h12 —rel.x→ t9", "", "--"]
        for dim in (7, 64):
            embedder = HashingEmbedder(dim=dim)
            # twice: the second pass reads every bucket from the token memo
            for _ in range(2):
                assert embedder.embed(texts) == [self.reference(t, dim) for t in texts]

    def test_token_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pruning, "TOKEN_MEMO_SIZE", 5)
        embedder = HashingEmbedder()
        texts = [f"token{i} shared" for i in range(40)]
        assert embedder.embed(texts) == [self.reference(t) for t in texts]
        assert len(embedder._buckets) <= 5

    def test_token_memo_shared_across_threads(self, monkeypatch):
        class SizeWatchingDict(dict):
            """Records its largest size; yields the thread after every size check."""

            largest = 0

            def __len__(self):
                size = super().__len__()
                time.sleep(0)  # let another thread act on the size just read
                return size

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.largest = max(self.largest, super().__len__())

        monkeypatch.setattr(pruning, "TOKEN_MEMO_SIZE", 8)
        embedder = HashingEmbedder()
        embedder._buckets = SizeWatchingDict()
        texts = [f"t{i} t{i + 1} t{i * 7 % 40}" for i in range(40)]

        def picks(worker):
            return [texts[(n * 7 + worker) % len(texts)] for n in range(500)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(lambda w: embedder.embed(picks(w)), w) for w in range(6)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        expected = {t: self.reference(t) for t in texts}
        for worker, vectors in enumerate(results):
            assert vectors == [expected[t] for t in picks(worker)]
        assert embedder._buckets.largest <= 8


class TestCachingEmbedder:
    def test_inner_called_once_per_text(self):
        calls = []

        class Counting:
            def embed(self, texts):
                calls.extend(texts)
                return HashingEmbedder().embed(texts)

        cache = CachingEmbedder(Counting())
        cache.embed(["a", "b", "a"])
        cache.embed(["b", "c"])
        assert sorted(calls) == ["a", "b", "c"]

    def test_same_results_as_inner(self):
        inner = HashingEmbedder()
        cache = CachingEmbedder(HashingEmbedder())
        texts = ["x", "y", "x", "z"]
        assert cache.embed(texts) == inner.embed(texts)


def embeddings(*vectors):
    return json.dumps({"data": [{"embedding": v} for v in vectors]}).encode()


class TestHttpEmbedder:
    def test_posts_model_and_input_with_bearer_token(self, json_stub):
        JsonStub.responses = [(200, embeddings([1.0, 0.0], [0.0, 1.0]))]
        embedder = HttpEmbedder(json_stub, "embed-model", token="sk-test")
        assert embedder.embed(["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]
        assert JsonStub.seen == [{"body": {"model": "embed-model", "input": ["a", "b"]}, "auth": "Bearer sk-test"}]

    @pytest.mark.parametrize("status", [400, 401])
    def test_client_error_fails_fast(self, json_stub, sleeps, status):
        JsonStub.responses = [(status, b"rejected")]
        with pytest.raises(PruningUnavailable, match=f"HTTP {status}"):
            HttpEmbedder(json_stub, "m", retries=2).embed(["a"])
        assert len(JsonStub.seen) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_server_error_and_throttling_are_retried(self, json_stub, sleeps, status):
        JsonStub.responses = [(status, b"busy")]
        with pytest.raises(PruningUnavailable, match=f"HTTP {status}"):
            HttpEmbedder(json_stub, "m", retries=2).embed(["a"])
        assert len(JsonStub.seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_each_retry_is_logged(self, json_stub, caplog, fast_backoff):
        caplog.set_level(logging.INFO, logger="kgqa_engine.pruning")
        JsonStub.responses = [(500, b"broken"), (200, embeddings([1.0]))]
        assert HttpEmbedder(json_stub, "m", retries=2).embed(["a"]) == [[1.0]]
        assert [(r.name, r.levelno) for r in caplog.records] == [("kgqa_engine.pruning", logging.INFO)]
        message = caplog.records[0].getMessage()
        assert "attempt 1 of 3" in message and "HTTP 500" in message and "retrying in 0.01 s" in message

    @pytest.mark.parametrize(
        "body, texts",
        [
            (b"not json", ["a"]),
            (b'{"weird": true}', ["a"]),
            (b'{"data": [{"vector": [1.0]}]}', ["a"]),
            (embeddings([1.0]), ["a", "b"]),
            (embeddings([1.0], [2.0]), ["a"]),
        ],
        ids=["not_json", "no_data", "no_embedding", "too_few_vectors", "too_many_vectors"],
    )
    def test_malformed_body_or_wrong_count_is_unavailable(self, json_stub, body, texts):
        JsonStub.responses = [(200, body)]
        with pytest.raises(PruningUnavailable):
            HttpEmbedder(json_stub, "m", retries=0).embed(texts)

    def test_failing_endpoint_abandons_attempts_not_the_run(self, json_stub, store, sleeps):
        JsonStub.responses = [(500, b"broken")]
        engine = Engine(backend=StageBackend(), kg=store, embedder=HttpEmbedder(json_stub, "m"))
        result = engine.run("q?", ["e1"])
        assert result.trace[-1].stage is Stage.FINISH
        observe = [e for e in result.trace if e.stage is Stage.OBSERVE][0]
        assert "pruning unavailable" in observe.payload["observation"]["rationale"]
        assert "exploration failed" not in (result.error_note or "")
