"""Cosine similarity and candidate pruning, checked against a sort oracle."""

import gc
import hashlib
import json
import logging
import math
import random
import re
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import JsonStub, StageBackend, TamperedEmbedder, make_http_embedder
from kgqa_engine import pruning
from kgqa_engine.cli import build_embedder
from kgqa_engine.config import EngineConfig
from kgqa_engine.errors import PruningUnavailable
from kgqa_engine.orchestrator import Engine, Stage
from kgqa_engine.pruning import (
    HashingEmbedder,
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
        with pytest.raises(PruningUnavailable, match="undefined for a zero vector"):
            cosine_similarity([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(PruningUnavailable, match="dimensions differ: 3 vs 2"):
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


def constant(vectors):
    """One vector for every text, as a ``TamperedEmbedder``'s tamper: every candidate scores the same."""
    return [[1.0, 2.0]] * len(vectors)


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

    def test_at_threshold_returns_the_input_list(self):
        cands = make_candidates(70)
        assert prune(cands, "find the capital city", 70, HashingEmbedder()) is cands

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_full_ties_keep_input_order(self, order):
        # two compound candidates alike in score, rendering and key
        twins = [
            CandidateTriple("m.1", "r1/r2", "m.3", Direction.OUTGOING, "Nile", "flows / into", "Egypt")
            for _ in range(2)
        ]
        later = CandidateTriple("m.1", "r9", "m.9", Direction.OUTGOING, "Nile", "zone", "Zambia")
        first, second = (twins[i] for i in order)
        out = prune([later, first, later, second], "objective", 3, TamperedEmbedder(constant))
        assert [id(c) for c in out] == [id(first), id(second), id(later)]

    def test_size_is_min_of_count_and_threshold(self):
        embedder = HashingEmbedder()
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

        out = prune(cands, "objective", 70, TamperedEmbedder(constant))
        renders = sorted(c.render() for c in cands)[:70]
        assert sorted(c.render() for c in out) == renders

    def test_matches_sort_oracle(self):
        embedder = HashingEmbedder()
        rng = random.Random(42)
        cands = make_candidates(100, rng)
        out = prune(list(cands), "find the capital of the country", 70, embedder)
        expected = oracle_top_t(cands, "find the capital of the country", 70, embedder)
        assert {c.key() for c in out} == expected

    def test_permutation_stability(self):
        embedder = HashingEmbedder()
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
        [lambda vecs: vecs[:-1], lambda vecs: vecs[:-3], lambda vecs: vecs + vecs[:1], lambda vecs: None,
         lambda vecs: (v for v in vecs)],
        ids=["one_short", "three_short", "one_extra", "none", "generator"],
    )
    def test_wrong_vector_count_becomes_pruning_unavailable(self, tamper):
        with pytest.raises(PruningUnavailable):
            prune(make_candidates(3), "o", 5, TamperedEmbedder(tamper))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**200])  # 10**200: no float holds it
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
    direction=st.sampled_from([Direction.OUTGOING, Direction.INCOMING]),
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
        prune(cands, "objective", len(cands), TamperedEmbedder(lambda _: [objective, *vectors]))
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


# every kind of ``str.split`` whitespace, letters whose lowercase is or
# holds ASCII (Kelvin sign, dotted I) or is not ASCII (long s, sigma), and
# punctuation that glues to words
awkward = st.sampled_from(
    ["\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000", " ",
     "\u212a", "\u0130", "\u017f", "\u03a3", "-", ".", "/", "\u2014", "\u2192"]
)
unicode_text = st.lists(
    st.one_of(awkward, st.text(alphabet="aZ09", min_size=1, max_size=4), st.text(max_size=4)), max_size=12
).map("".join)


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

    @given(st.lists(unicode_text, min_size=1, max_size=8))
    def test_matches_md5_bucket_reference_on_any_text(self, texts):
        expected = [self.reference(t) for t in texts]
        embedder = HashingEmbedder()
        assert embedder.embed(texts) == expected
        assert embedder.embed(texts) == expected  # every chunk from the memo
        with mock.patch.object(pruning, "TOKEN_MEMO_SIZE", 3):
            assert HashingEmbedder().embed(texts) == expected  # the memo clears as it goes

    def test_token_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pruning, "TOKEN_MEMO_SIZE", 5)
        embedder = HashingEmbedder()
        texts = [f"token{i} shared" for i in range(40)]
        assert embedder.embed(texts) == [self.reference(t) for t in texts]
        assert len(embedder._parts) <= 5

    def test_dropped_embedder_is_freed_without_the_cyclic_collector(self):
        embedder = HashingEmbedder()
        embedder.similarities("capital of France", [("Paris", "capital.of", "France")])
        ref = weakref.ref(embedder)
        gc.disable()
        try:
            del embedder
            assert ref() is None  # no reference cycle keeps it alive
        finally:
            gc.enable()

    def test_token_memo_shared_across_threads(self, monkeypatch):
        class SizeWatchingDict(pruning._BucketMemo):
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
        embedder._parts = SizeWatchingDict(embedder.dim)  # misses still go through __missing__
        texts = [f"t{i} t{i + 1} t{i * 7 % 40}" for i in range(40)]

        def picks(worker):
            return [texts[(n * 7 + worker) % len(texts)] for n in range(500)]

        def work(worker):
            # half the workers score, each text as its three parts, so
            # embedding and scoring share the one memo
            if worker % 2:
                return embedder.similarities(texts[worker], [tuple(t.split()) for t in picks(worker)])
            return embedder.embed(picks(worker))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(work, w) for w in range(6)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        expected = {t: self.reference(t) for t in texts}
        for worker, got in enumerate(results):
            vectors = [expected[t] for t in picks(worker)]
            if worker % 2:
                assert got == pruning._cosines(expected[texts[worker]], vectors)
            else:
                assert got == vectors
        assert 0 < embedder._parts.largest <= 8

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True, False, "64", None])
    def test_invalid_dim_is_refused_at_construction(self, dim):
        with pytest.raises(ValueError, match="dim must be an int >= 1"):
            HashingEmbedder(dim=dim)


def hexes(scores):
    return [score.hex() for score in scores]


# label parts as the executor builds them: ids, empty labels (the id shows),
# awkward letters and whitespace, and mediator compounds joined by " / "
label_part = st.lists(
    st.one_of(awkward, st.sampled_from(["\u03c2", " / "]), st.text(alphabet="aZ09", min_size=1, max_size=4)),
    max_size=6,
).map("".join)
entity_id = st.text(alphabet="abm._09", min_size=1, max_size=6)
scored_candidate = st.builds(
    CandidateTriple,
    head=entity_id,
    relation=entity_id,
    tail=entity_id,
    direction=st.sampled_from([Direction.OUTGOING, Direction.INCOMING]),
    head_label=label_part,
    relation_label=st.one_of(label_part, st.builds("{} / {}".format, label_part, label_part)),
    tail_label=label_part,
)


class TestBucketScorer:
    """``HashingEmbedder.similarities`` against the dense path, bit for bit."""

    @given(unicode_text, st.lists(unicode_text, min_size=1, max_size=8), st.sampled_from([1, 7, 64]))
    def test_equals_dense_cosines_bit_for_bit(self, objective, texts, dim):
        texts = [*texts, objective]  # a text equal to the objective: the clamp fires
        reference = TestHashingEmbedder.reference
        expected = hexes(pruning._cosines(reference(objective, dim), [reference(t, dim) for t in texts]))
        with mock.patch.object(pruning, "TOKEN_MEMO_SIZE", 3):  # the memo clears as it goes
            embedder = HashingEmbedder(dim)
            assert hexes(embedder.similarities(objective, [(t,) for t in texts])) == expected
            assert hexes(pruning._cosines(embedder.embed([objective])[0], embedder.embed(texts))) == expected

    def test_repeated_bucket_counts_twice_in_the_norm(self):
        # 'vavino' twice: its bucket counts 2, so the squared norm is 1 + 4 + 1, not 4
        embedder = HashingEmbedder()
        text = "award.vavino.vavino_of"
        [vector], [vavino] = embedder.embed([text]), embedder.embed(["vavino"])
        assert vector[vavino.index(1.0)] == 2.0
        scores = embedder.similarities("award", [(text,)])
        assert hexes(scores) == hexes([1 / math.sqrt(6)])
        assert hexes(scores) == hexes(pruning._cosines(*embedder.embed(["award"]), embedder.embed([text])))

    @pytest.mark.parametrize("text", ["", "--", " \u2014\u2192 ", "\u017f"])
    def test_token_free_text_scores_as_bucket_zero(self, text):
        embedder = HashingEmbedder(7)
        assert embedder.embed([text]) == [[1.0] + [0.0] * 6]
        # at dim 7, 'a' hashes to bucket 0 and 'b' to bucket 4
        assert embedder.similarities("a", [(text,)]) == [1.0]
        assert embedder.similarities("b", [(text,)]) == [0.0]
        assert hexes(embedder.similarities("a b", [(text,)])) == hexes([1 / math.sqrt(2)])

    def test_a_text_equal_to_the_objective_is_clamped_to_one(self):
        assert 3 / (math.sqrt(3) * math.sqrt(3)) > 1.0  # unclamped, three distinct buckets
        embedder = HashingEmbedder()
        assert embedder.embed(["a b c"])[0].count(1.0) == 3
        assert embedder.similarities("a b c", [("a b c",), ("c b a",)]) == [1.0, 1.0]

    @given(unicode_text, st.lists(scored_candidate, min_size=1, max_size=8), st.sampled_from([1, 7, 64]))
    def test_parts_score_as_the_rendered_text_bit_for_bit(self, objective, cands, dim):
        with mock.patch.object(pruning, "TOKEN_MEMO_SIZE", 3):  # the memos clear as they go
            embedder = HashingEmbedder(dim)
            rendered = embedder.embed([c.render() for c in cands])
            expected = hexes(pruning._cosines(embedder.embed([objective])[0], rendered))
            parts = [c.parts() for c in cands]
            assert hexes(embedder.similarities(objective, parts)) == expected
            assert hexes(embedder.similarities(objective, parts)) == expected  # parts seen before

    def test_token_free_parts_are_served_from_the_memo(self):
        embedder = HashingEmbedder()
        texts = [("\u2014", "\u6771\u4eac", ""), ("",)]
        first = embedder.similarities("a", texts)
        regex = mock.Mock(findall=mock.Mock(side_effect=AssertionError("regex ran")))
        with mock.patch.object(pruning, "_TOKEN", regex), \
                mock.patch.object(pruning.hashlib, "md5", side_effect=AssertionError("md5 ran")):
            assert embedder.similarities("a", texts) == first
        bucket = int(hashlib.md5(b"a").hexdigest(), 16) % embedder.dim
        assert embedder._parts == {"a": (bucket,), "\u2014": (), "\u6771\u4eac": (), "": ()}

    def test_one_memo_serves_embed_and_the_scorer(self):
        # after one embed, the same chunks as vectors, objective or parts are all hits
        embedder = HashingEmbedder()
        objective, text = "capital of Japan", "Tokyo \u2014capital.of\u2192 \u6771\u4eac Japan"
        first = embedder.embed([objective, text])
        regex = mock.Mock(findall=mock.Mock(side_effect=AssertionError("regex ran")))
        with mock.patch.object(pruning, "_TOKEN", regex), \
                mock.patch.object(pruning.hashlib, "md5", side_effect=AssertionError("md5 ran")):
            assert embedder.embed([objective, text]) == first
            scores = embedder.similarities(objective, [tuple(text.split()), tuple(objective.split())])
        assert hexes(scores) == hexes(pruning._cosines(first[0], [first[1], first[0]]))
        assert embedder._parts["\u6771\u4eac"] == ()

    @pytest.mark.parametrize("n, threshold", [(120, 70), (70, 70), (9, 3)])
    def test_prune_keeps_what_the_dense_path_keeps(self, n, threshold):
        objective = "the capital city of the river country"
        exact = prune(make_candidates(n), objective, threshold, HashingEmbedder())
        dense = prune(make_candidates(n), objective, threshold, TamperedEmbedder())
        assert len(exact) == min(n, threshold)
        assert [c.key() for c in exact] == [c.key() for c in dense]
        assert hexes(c.score for c in exact) == hexes(c.score for c in dense)


class TestScoringPath:
    def test_exact_hashing_embedder_never_embeds(self):
        with mock.patch.object(HashingEmbedder, "embed", side_effect=AssertionError("embedded")):
            kept = prune(make_candidates(100), "the capital", 5, HashingEmbedder())
        assert len(kept) == 5

    def test_subclass_and_wrapper_are_asked_through_embed(self):
        class CountingEmbedder(HashingEmbedder):
            calls = 0

            def embed(self, texts):
                self.calls += 1
                return super().embed(texts)

        subclass = CountingEmbedder()
        wrapped = CountingEmbedder()
        with mock.patch.object(HashingEmbedder, "similarities", side_effect=AssertionError("scored")):
            prune(make_candidates(10), "the capital", 5, subclass)
            prune(make_candidates(10), "the capital", 5, TamperedEmbedder(inner=wrapped))
        assert subclass.calls == wrapped.calls == 1

    def test_default_embedder_takes_the_bucket_scorer(self):
        assert type(build_embedder(EngineConfig())) is HashingEmbedder

    def test_failing_scorer_degrades_the_explore_as_a_failing_embed_does(self, store):
        class BrokenEmbedder:
            def embed(self, texts):
                raise RuntimeError("boom")

        def run(embedder):
            trace = Engine(backend=StageBackend(), kg=store, embedder=embedder).run("q?", ["e1"]).trace
            return [(e.stage, e.payload) for e in trace]

        with mock.patch.object(HashingEmbedder, "similarities", side_effect=RuntimeError("boom")):
            scored = run(HashingEmbedder())
        embedded = run(BrokenEmbedder())
        assert scored == embedded
        observe = next(payload for stage, payload in scored if stage is Stage.OBSERVE)
        assert observe["observation"]["rationale"] == "attempt abandoned, pruning unavailable: embedder failed: boom"


def embeddings(*vectors):
    return json.dumps({"data": [{"embedding": v} for v in vectors]}).encode()


class TestHttpEmbedder:
    def test_posts_model_and_input_with_bearer_token(self, json_stub, monkeypatch):
        JsonStub.responses = [(200, embeddings([1.0, 0.0], [0.0, 1.0]))]
        embedder = make_http_embedder(json_stub, "embed-model")
        monkeypatch.setenv("KGQA_EMBED_TOKEN", "sk-test")  # read at request time
        assert embedder.embed(["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]
        assert JsonStub.seen == [{"body": {"model": "embed-model", "input": ["a", "b"]}, "auth": "Bearer sk-test"}]

    @pytest.mark.parametrize("token", [None, ""], ids=["unset", "empty"])
    def test_no_authorization_header_without_token(self, json_stub, monkeypatch, token):
        JsonStub.responses = [(200, embeddings([1.0]))]
        if token is None:
            monkeypatch.delenv("KGQA_EMBED_TOKEN", raising=False)
        else:
            monkeypatch.setenv("KGQA_EMBED_TOKEN", token)
        assert make_http_embedder(json_stub, "m").embed(["a"]) == [[1.0]]
        assert JsonStub.seen[0]["auth"] is None

    @pytest.mark.parametrize("status", [400, 401])
    def test_client_error_fails_fast(self, json_stub, sleeps, status):
        JsonStub.responses = [(status, b"rejected")]
        with pytest.raises(PruningUnavailable, match=f"HTTP {status}"):
            make_http_embedder(json_stub, "m", http_retries=2).embed(["a"])
        assert len(JsonStub.seen) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [503, 429])
    def test_server_error_and_throttling_are_retried(self, json_stub, sleeps, status):
        JsonStub.responses = [(status, b"busy")]
        with pytest.raises(PruningUnavailable, match=f"HTTP {status}"):
            make_http_embedder(json_stub, "m", http_retries=2).embed(["a"])
        assert len(JsonStub.seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_each_retry_is_logged(self, json_stub, caplog, fast_backoff):
        caplog.set_level(logging.INFO, logger="kgqa_engine.pruning")
        JsonStub.responses = [(500, b"broken"), (200, embeddings([1.0]))]
        assert make_http_embedder(json_stub, "m", http_retries=2).embed(["a"]) == [[1.0]]
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
            make_http_embedder(json_stub, "m", http_retries=0).embed(texts)

    def test_failing_endpoint_abandons_attempts_not_the_run(self, json_stub, store, sleeps):
        JsonStub.responses = [(500, b"broken")]
        engine = Engine(backend=StageBackend(), kg=store, embedder=make_http_embedder(json_stub, "m"))
        result = engine.run("q?", ["e1"])
        assert result.trace[-1].stage is Stage.FINISH
        observe = [e for e in result.trace if e.stage is Stage.OBSERVE][0]
        assert "pruning unavailable" in observe.payload["observation"]["rationale"]
        assert "exploration failed" not in (result.error_note or "")
