import math
import random

import numpy as np
import pytest

from hiret.corpus import Segment
from hiret.index import (
    HashingEmbedder,
    InconsistentIndexError,
    IndexBundle,
    KeywordTable,
    VectorIndex,
    build_indices,
)
from hiret.retriever import (
    RankedResult,
    RetrievalConfig,
    RetrievalOutcome,
    fuse_and_rank,
    keyword_route,
    normalize_scores,
    retrieve,
    vector_route,
)

FUSION_WORKED_EXAMPLE = 0.9772588722239781  # 0.4 + 0.3 + 0.2 * ln 4


def seg(doc_id, segment_id, text):
    return Segment(
        segment_id=segment_id,
        chapter_number=segment_id,
        level=1,
        title=segment_id,
        kind="text",
        content=text,
        doc_id=doc_id,
        embedding_text=text,
    )


def bundle_for(texts: dict[str, str], **kwargs):
    segments = [seg("d", sid, text) for sid, text in texts.items()]
    return build_indices(segments, HashingEmbedder(), **kwargs)


class TestRetrievalConfig:
    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            RetrievalConfig(alpha=1.5)
        with pytest.raises(ValueError, match="alpha"):
            RetrievalConfig(alpha=-0.1)

    def test_other_ranges(self):
        with pytest.raises(ValueError, match="beta"):
            RetrievalConfig(beta=-1)
        with pytest.raises(ValueError, match="top_k"):
            RetrievalConfig(top_k=0)
        with pytest.raises(ValueError, match="gamma"):
            RetrievalConfig(gamma=0)


class TestVectorRoute:
    def test_identical_text_scores_one(self):
        e = HashingEmbedder()
        bundle = bundle_for({"1": "alpha beta gamma", "2": "something else entirely"})
        scores = vector_route("alpha beta gamma", bundle.vectors, e)
        assert scores["d#1"] == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_hash_buckets_score_zero(self):
        e = HashingEmbedder()
        # pick two single-token texts whose hash buckets differ
        pool = [f"word{i}" for i in range(20)]
        a = pool[0]
        b = next(w for w in pool[1:] if np.argmax(np.abs(e.embed(w))) != np.argmax(np.abs(e.embed(a))))
        bundle = bundle_for({"1": a})
        scores = vector_route(b, bundle.vectors, e)
        assert scores["d#1"] == 0.0

    def test_empty_index_gives_empty_map(self):
        assert vector_route("q", VectorIndex(dim=256), HashingEmbedder()) == {}

    def test_unembeddable_query_scores_all_zero(self):
        bundle = bundle_for({"1": "alpha", "2": "beta"})
        scores = vector_route("", bundle.vectors, HashingEmbedder())
        assert scores == {"d#1": 0.0, "d#2": 0.0}

    def test_dim_mismatch_is_error(self):
        bundle = bundle_for({"1": "alpha"})
        with pytest.raises(ValueError, match="dim"):
            vector_route("q", bundle.vectors, HashingEmbedder(dim=64))


class TestKeywordRoute:
    def table(self):
        return KeywordTable(
            keywords={
                "d#1": {"ca-is3641", "rs485"},
                "d#2": {"rs485"},
                "d#3": set(),
            }
        )

    def test_single_shared_keyword(self):
        hits = keyword_route("the CA-IS3641 part", self.table())
        assert hits["d#1"] == 1 and hits["d#2"] == 0 and hits["d#3"] == 0

    def test_two_shared_keywords(self):
        hits = keyword_route("CA-IS3641 with RS485 mode", self.table())
        assert hits["d#1"] == 2 and hits["d#2"] == 1

    def test_no_shared_keywords(self):
        hits = keyword_route("plain words only", self.table())
        assert set(hits.values()) == {0}


class TestNormalizeScores:
    def test_min_max(self):
        assert normalize_scores({"a": 2, "b": 4, "c": 6}) == {"a": 0.0, "b": 0.5, "c": 1.0}

    def test_all_equal_maps_to_half(self):
        assert normalize_scores({"a": 7, "b": 7}) == {"a": 0.5, "b": 0.5}

    def test_singleton_maps_to_half(self):
        assert normalize_scores({"a": 3}) == {"a": 0.5}

    def test_empty_map(self):
        assert normalize_scores({}) == {}


class TestFuseAndRank:
    def cfg(self, **kwargs):
        defaults = dict(alpha=0.5, beta=0.2, top_k=5, gamma=1.0)
        defaults.update(kwargs)
        return RetrievalConfig(**defaults)

    def test_worked_example(self):
        (row,) = fuse_and_rank({"k": 0.8}, {"k": 0.6}, {"k": 3}, self.cfg())
        assert row.fused_score == pytest.approx(FUSION_WORKED_EXAMPLE, abs=1e-12)
        # the quoted 0.97726 is the 5-decimal rounding of the exact value
        assert round(row.fused_score, 5) == 0.97726
        assert row.rank == 1

    def test_zero_hits_add_nothing(self):
        (row,) = fuse_and_rank({"k": 0.8}, {"k": 0.6}, {"k": 0}, self.cfg())
        assert row.fused_score == pytest.approx(0.5 * 0.8 + 0.5 * 0.6, abs=1e-15)

    def test_alpha_one_beta_zero_matches_vector_order(self):
        rng = random.Random(7)
        scores_v = {f"k{i}": rng.random() for i in range(30)}
        scores_r = {f"k{i}": rng.random() for i in range(30)}
        ranking = fuse_and_rank(scores_v, scores_r, {}, self.cfg(alpha=1.0, beta=0.0))
        expected = sorted(scores_v, key=lambda k: (-scores_v[k], k))
        assert [r.segment_key for r in ranking] == expected

    def test_alpha_zero_beta_zero_matches_bm25_order(self):
        rng = random.Random(8)
        scores_v = {f"k{i}": rng.random() for i in range(30)}
        scores_r = {f"k{i}": rng.random() for i in range(30)}  # distinct almost surely
        ranking = fuse_and_rank(scores_v, scores_r, {}, self.cfg(alpha=0.0, beta=0.0))
        expected = sorted(scores_r, key=lambda k: -scores_r[k])
        assert [r.segment_key for r in ranking] == expected

    def test_ranks_form_permutation(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randrange(1, 40)
            scores_v = {f"k{i}": rng.choice([0.0, 0.5, 1.0]) for i in range(n)}
            scores_r = {f"k{i}": rng.choice([0.0, 0.5, 1.0]) for i in range(n)}
            hits = {f"k{i}": rng.randrange(3) for i in range(n)}
            ranking = fuse_and_rank(scores_v, scores_r, hits, self.cfg())
            assert sorted(r.rank for r in ranking) == list(range(1, n + 1))
            fused = [r.fused_score for r in ranking]
            assert fused == sorted(fused, reverse=True)

    def test_absent_keys_read_as_zero(self):
        ranking = fuse_and_rank({"a": 1.0}, {"b": 1.0}, {"c": 2}, self.cfg())
        by_key = {r.segment_key: r for r in ranking}
        assert by_key["a"].score_r == 0.0
        assert by_key["b"].score_v == 0.0
        assert by_key["c"].keyword_hits == 2

    def test_more_keyword_hits_never_worsen_rank(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randrange(2, 20)
            scores_v = {f"k{i}": rng.random() for i in range(n)}
            scores_r = {f"k{i}": rng.random() for i in range(n)}
            hits = {f"k{i}": rng.randrange(4) for i in range(n)}
            target = f"k{rng.randrange(n)}"
            before = fuse_and_rank(scores_v, scores_r, hits, self.cfg(beta=0.3))
            rank_before = next(r.rank for r in before if r.segment_key == target)
            hits[target] += rng.randrange(1, 4)
            after = fuse_and_rank(scores_v, scores_r, hits, self.cfg(beta=0.3))
            rank_after = next(r.rank for r in after if r.segment_key == target)
            assert rank_after <= rank_before

    def test_matches_direct_arithmetic_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            alpha = rng.random()
            beta = rng.random()
            v = rng.random()
            r = rng.random()
            c = rng.randrange(0, 10)
            cfg = self.cfg(alpha=alpha, beta=beta)
            (row,) = fuse_and_rank({"k": v}, {"k": r}, {"k": c}, cfg)
            expected = alpha * v + (1 - alpha) * r + beta * math.log(1 + c)
            assert abs(row.fused_score - expected) <= 1e-12

    def test_tie_break_vector_then_key(self):
        scores_v = {"b": 0.9, "a": 0.9, "c": 0.1}
        scores_r = {"b": 0.1, "a": 0.1, "c": 0.9}
        ranking = fuse_and_rank(scores_v, scores_r, {}, self.cfg(alpha=0.5, beta=0.0))
        assert [r.segment_key for r in ranking] == ["a", "b", "c"]


class TestRetrieve:
    def make_bundle(self):
        return bundle_for(
            {
                "1": "alpha bravo charlie",
                "2": "delta echo foxtrot",
                "3": "golf hotel india CA-IS3641",
            }
        )

    def test_top_k_at_least_corpus_returns_all(self):
        outcome = retrieve("alpha", self.make_bundle(), RetrievalConfig(top_k=50))
        assert len(outcome.top) == 3
        assert len(outcome.ranking) == 3

    def test_repeated_call_is_identical(self):
        bundle = self.make_bundle()
        cfg = RetrievalConfig()
        assert retrieve("alpha CA-IS3641", bundle, cfg) == retrieve(
            "alpha CA-IS3641", bundle, cfg
        )

    def test_single_segment_corpus(self):
        bundle = bundle_for({"only": "solitary text"})
        outcome = retrieve("anything", bundle, RetrievalConfig(top_k=1))
        assert outcome.top[0].segment_key == "d#only"
        assert outcome.top[0].rank == 1

    def test_full_ranking_is_permutation(self):
        outcome = retrieve("alpha", self.make_bundle(), RetrievalConfig(top_k=1))
        assert sorted(r.rank for r in outcome.ranking) == [1, 2, 3]
        assert len(outcome.top) == 1

    def test_keyword_query_boosts_holder(self):
        bundle = self.make_bundle()
        outcome = retrieve("CA-IS3641", bundle, RetrievalConfig(alpha=0.5, beta=0.5))
        assert outcome.top[0].segment_key == "d#3"
        assert outcome.top[0].keyword_hits == 1

    def test_inconsistent_universe_names_keys(self):
        bundle = self.make_bundle()
        segments = [s for s in bundle.segments if s.key != "d#2"]
        with pytest.raises(InconsistentIndexError, match="d#2"):
            IndexBundle(bundle.vectors, bundle.bm25, bundle.keywords, segments,
                        bundle.embedder_spec)

    def test_missing_bm25_key_detected(self):
        bundle = self.make_bundle()
        del bundle.bm25.doc_lengths["d#2"]
        with pytest.raises(InconsistentIndexError, match="d#2"):
            IndexBundle(bundle.vectors, bundle.bm25, bundle.keywords, bundle.segments,
                        bundle.embedder_spec)

    def test_vector_skips_are_tolerated(self):
        segments = [seg("d", "1", "alpha"), seg("d", "2", "")]
        bundle = build_indices(segments, HashingEmbedder())
        outcome = retrieve("alpha", bundle, RetrievalConfig(top_k=5))
        assert len(outcome.ranking) == 2
        assert outcome.ranking[0].segment_key == "d#1"
