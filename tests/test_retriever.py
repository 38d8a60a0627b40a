import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import dense, keyword_sets, load_and_ingest, write_datasheet_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from hiret import retriever
from hiret.cli import AppConfig, run_query
from hiret.corpus import Segment
from hiret.evalkit import EvalQuery, evaluate_query
from hiret.index import (
    HashingEmbedder,
    InconsistentIndexError,
    IndexBundle,
    VectorIndex,
    bm25_score,
    bm25_scores,
    build_bm25_index,
    build_indices,
    build_keyword_table,
    extract_keywords,
    save_index,
    unit_vector,
)
from hiret.retriever import (
    RankedResult,
    Ranking,
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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["beta", "gamma"])
    def test_non_finite_beta_and_gamma_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RetrievalConfig(**{name: value})

    @pytest.mark.parametrize("top_k", [2.5, True, math.nan, 3.0])
    def test_top_k_that_is_not_an_int_is_refused(self, top_k):
        # 2.5 used to construct, and retrieve then raised a bare TypeError from slicing
        with pytest.raises(ValueError, match="top_k must be an int"):
            RetrievalConfig(top_k=top_k)


class FakeEmbedder:
    """A plug-in-like embedder that answers ``vectors[text]``, or ``default``."""

    def __init__(self, dim, vectors=None, default=(3.0, 4.0)):
        self.dim = dim
        self.vectors = vectors or {}
        self.default = default

    def embed(self, text):
        return np.asarray(self.vectors.get(text, self.default), dtype=np.float64)

    def spec(self):
        return {"kind": "fake", "dim": self.dim}


class TestVectorRoute:
    def test_non_unit_plugin_vectors_score_a_cosine(self):
        # a 2-dim plug-in answering [3, 4] used to score a "cosine" of 5.0
        embedder = FakeEmbedder(2)
        bundle = build_indices([seg("d", "1", "alpha"), seg("d", "2", "beta")], embedder)
        assert dense(bundle.vectors).tolist() == [[0.6000000238418579, 0.800000011920929]] * 2
        scores = vector_route("query", bundle.vectors, embedder)
        assert scores.tolist() == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_non_finite_query_vector_scores_all_zero(self):
        bundle = build_indices([seg("d", "1", "alpha")], FakeEmbedder(2))
        for bad in [(math.nan, 1.0), (math.inf, 0.0), (1e308, 1e308)]:
            scores = vector_route("q", bundle.vectors, FakeEmbedder(2, {"q": bad}))
            assert scores.tolist() == [0.0]

    def test_wrong_dimension_query_vector_is_error(self):
        bundle = build_indices([seg("d", "1", "alpha")], FakeEmbedder(2))
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            vector_route("q", bundle.vectors, FakeEmbedder(2, {"q": (1.0, 2.0, 3.0)}))

    def test_identical_text_scores_one(self):
        e = HashingEmbedder()
        bundle = bundle_for({"1": "alpha beta gamma", "2": "something else entirely"})
        scores = raw_vector_scores(bundle, "alpha beta gamma", e)
        assert scores["d#1"] == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_hash_buckets_score_zero(self):
        e = HashingEmbedder()
        # pick two single-token texts whose hash buckets differ
        pool = [f"word{i}" for i in range(20)]
        a = pool[0]
        b = next(w for w in pool[1:] if np.argmax(np.abs(e.embed(w))) != np.argmax(np.abs(e.embed(a))))
        bundle = bundle_for({"1": a})
        scores = raw_vector_scores(bundle, b, e)
        assert scores["d#1"] == 0.0

    def test_empty_index_gives_empty_array(self):
        scores = vector_route("q", VectorIndex(dim=256), HashingEmbedder())
        assert scores.shape == (0,)

    def test_unembeddable_query_scores_all_zero(self):
        bundle = bundle_for({"1": "alpha", "2": "beta", "3": ""})  # d#3 has no vector
        scores = raw_vector_scores(bundle, "", HashingEmbedder())
        assert scores == {"d#1": 0.0, "d#2": 0.0}
        ranking = retrieve("-", bundle, RetrievalConfig()).ranking
        assert ranking.score_v.tolist() == [0.5, 0.5, 0.0]

    def test_dim_mismatch_is_error(self):
        bundle = bundle_for({"1": "alpha"})
        with pytest.raises(ValueError, match="dim"):
            vector_route("q", bundle.vectors, HashingEmbedder(dim=64))


class TestKeywordRoute:
    def bundle(self):
        bundle = bundle_for({"1": "RS485 and CA-IS3641", "2": "RS485 only", "3": "no parts"})
        assert keyword_sets(bundle.keywords) == [{"ca-is3641", "rs485"}, {"rs485"}, set()]
        return bundle

    def test_single_shared_keyword(self):
        hits = keyword_route("the CA-IS3641 part", self.bundle())
        assert hits["d#1"] == 1 and hits["d#2"] == 0 and hits["d#3"] == 0

    def test_two_shared_keywords(self):
        hits = keyword_route("CA-IS3641 with RS485 mode", self.bundle())
        assert hits["d#1"] == 2 and hits["d#2"] == 1

    def test_no_shared_keywords(self):
        hits = keyword_route("plain words only", self.bundle())
        assert set(hits.values()) == {0}


class TestNormalizeScores:
    def test_min_max(self):
        assert normalize_scores(np.array([2.0, 4.0, 6.0])).tolist() == [0.0, 0.5, 1.0]

    def test_all_equal_maps_to_half(self):
        assert normalize_scores(np.array([7.0, 7.0])).tolist() == [0.5, 0.5]

    def test_singleton_maps_to_half(self):
        assert normalize_scores(np.array([3.0])).tolist() == [0.5]

    def test_empty_array(self):
        assert normalize_scores(np.zeros(0)).shape == (0,)


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

    @settings(max_examples=300, deadline=None)
    @given(rows=st.dictionaries(st.text(max_size=3), st.tuples(
               st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
               st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1), st.integers(0, 4)),
               min_size=1, max_size=12),
           alpha=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
           beta=st.floats(1e-6, 10), more=st.integers(1, 4), data=st.data())
    def test_more_keyword_hits_never_worsen_rank(self, rows, alpha, beta, more, data):
        # Scores drawn mostly from three values, so many rows tie on every column.
        scores_v = {key: v for key, (v, _, _) in rows.items()}
        scores_r = {key: r for key, (_, r, _) in rows.items()}
        hits = {key: c for key, (_, _, c) in rows.items()}
        target = data.draw(st.sampled_from(sorted(rows)))
        cfg = self.cfg(alpha=alpha, beta=beta)
        before = fuse_and_rank(scores_v, scores_r, hits, cfg).rank_of(target)
        after = fuse_and_rank(scores_v, scores_r, {**hits, target: hits[target] + more}, cfg)
        assert after.rank_of(target) <= before

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
        bm25 = build_bm25_index([s for s in bundle.segments if s.key != "d#2"])
        with pytest.raises(InconsistentIndexError, match="d#2"):
            IndexBundle(bundle.vectors, bm25, bundle.keywords, bundle.segments,
                        bundle.embedder_spec)

    def test_bm25_rows_out_of_segment_order_detected(self):
        bundle = self.make_bundle()
        bm25 = build_bm25_index(bundle.segments[::-1])
        with pytest.raises(InconsistentIndexError, match="segment order"):
            IndexBundle(bundle.vectors, bm25, bundle.keywords, bundle.segments,
                        bundle.embedder_spec)

    def test_keyword_table_of_other_rows_detected(self):
        bundle = self.make_bundle()
        keywords = build_keyword_table(bundle.segments[:2])
        with pytest.raises(InconsistentIndexError,
                           match="keyword table .* row 2 is 'd#3' in the segments, None"):
            IndexBundle(bundle.vectors, bundle.bm25, keywords, bundle.segments,
                        bundle.embedder_spec)

    def test_different_queries_rank_differently(self):
        bundle = self.make_bundle()
        cfg = RetrievalConfig()
        assert retrieve("alpha", bundle, cfg).ranking != retrieve("golf", bundle, cfg).ranking

    def test_vector_skips_are_tolerated(self):
        segments = [seg("d", "1", "alpha"), seg("d", "2", "")]
        bundle = build_indices(segments, HashingEmbedder())
        outcome = retrieve("alpha", bundle, RetrievalConfig(top_k=5))
        assert len(outcome.ranking) == 2
        assert outcome.ranking[0].segment_key == "d#1"


class TestRanking:
    def outcome(self):
        bundle = bundle_for({"1": "alpha bravo", "2": "alpha CA-IS3641", "3": "charlie"})
        return retrieve("alpha CA-IS3641", bundle, RetrievalConfig(top_k=2))

    def test_rows_hold_python_scalars(self):
        outcome = self.outcome()
        ranking = outcome.ranking
        for row in [ranking[0], ranking[-1], ranking[1:][0], next(iter(ranking)), outcome.top[0]]:
            assert isinstance(row, RankedResult)
            for value in (row.score_v, row.score_r, row.fused_score):
                assert type(value) is float
            assert type(row.keyword_hits) is int
            assert type(row.rank) is int

    def test_indexing_agrees_with_iteration(self):
        ranking = self.outcome().ranking
        rows = list(ranking)
        assert [ranking[i] for i in range(len(ranking))] == rows
        assert [ranking[i] for i in range(-len(ranking), 0)] == rows
        assert ranking[np.int64(1)] == rows[1]
        assert ranking[:2] == rows[:2] == self.outcome().top
        for past_either_end in (len(ranking), -len(ranking) - 1):
            with pytest.raises(IndexError):
                ranking[past_either_end]

    @given(st.builds(slice, st.none() | st.integers(-6, 6), st.none() | st.integers(-6, 6),
                     st.none() | st.integers(-4, 4)))
    def test_slicing_agrees_with_list_slicing(self, positions):
        ranking = self.outcome().ranking
        rows = list(ranking)
        if positions.step == 0:
            with pytest.raises(ValueError):
                ranking[positions]
        else:
            assert ranking[positions] == rows[positions]

    def test_rank_of_is_the_inverse_permutation(self):
        ranking = self.outcome().ranking
        for row in ranking:
            assert ranking.rank_of(row.segment_key) == row.rank
        assert ranking.rank_of("d#ghost") is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=3), st.sampled_from([0.0, 0.5, 1.0]),
                              st.sampled_from([0.0, 0.5, 1.0])),
                    max_size=12, unique_by=lambda row: row[0]),
           st.data())
    def test_lazy_reads_agree_with_the_full_sort(self, rows, data):
        # fused and v drawn from three values, so most rows tie on both
        rows = sorted(rows)  # a ranking's rows are in key order
        keys = [key for key, _, _ in rows]
        v = np.array([v for _, v, _ in rows], dtype=np.float64)
        fused = np.array([f for _, _, f in rows], dtype=np.float64)
        r = np.arange(len(rows), dtype=np.float64)
        hits = np.arange(len(rows), dtype=np.int64)
        by_rank = sorted(range(len(keys)), key=lambda i: (-fused[i], -v[i], keys[i]))
        expected = [RankedResult(segment_key=keys[i], score_v=float(v[i]), score_r=float(r[i]),
                                 keyword_hits=int(hits[i]), fused_score=float(fused[i]),
                                 rank=rank) for rank, i in enumerate(by_rank, 1)]

        def fresh():  # no full order computed yet
            return Ranking(keys, v, r, hits, fused)

        ranking = fresh()
        assert [ranking.rank_of(key) for key in keys] == [by_rank.index(i) + 1
                                                          for i in range(len(keys))]
        assert ranking.rank_of("ghost") is None
        assert [ranking.row_of(key) for key in keys] == list(range(len(keys)))
        assert ranking.row_of("ghost") is None
        assert ranking._order is None
        for k in range(len(keys) + 3):
            assert fresh()[:k] == expected[:k]
        if keys:
            position = data.draw(st.integers(-len(keys), len(keys) - 1))
            assert fresh()[position] == expected[position]
        positions = data.draw(st.builds(slice, st.none() | st.integers(-14, 14),
                                        st.none() | st.integers(-14, 14),
                                        st.sampled_from([None, -3, -1, 1, 2])))
        assert fresh()[positions] == expected[positions]
        assert list(ranking) == expected
        assert ranking.order.tolist() == by_rank
        assert ranking[:3] == expected[:3]  # served from the kept order

    def test_retrieve_evaluate_and_run_query_sort_no_full_order(self, tmp_path, monkeypatch):
        bundle = bundle_for({str(i): f"alpha text {i % 3}" for i in range(20)})
        save_index(bundle, tmp_path / "index")
        seen, top_reads = [], []
        top_rows = Ranking._top_rows

        def spy(*args, **kwargs):
            seen.append(retrieve(*args, **kwargs))
            return seen[-1]

        def counted(self, k):
            top_reads.append(k)
            return top_rows(self, k)

        monkeypatch.setattr(Ranking, "_top_rows", counted)
        outcome = retrieve("alpha text 1", bundle, RetrievalConfig(top_k=3))
        relevant = frozenset({"d#4", "d#7"})
        evaluate_query(outcome.ranking, EvalQuery("q", "alpha text 1", relevant), 1.0)
        # evaluation selects no top-k and sorts no full ranking
        assert top_reads == [] and "top" not in outcome.__dict__
        assert outcome.ranking._order is None
        assert len(outcome.top) == 3 and top_reads == [3]
        monkeypatch.setattr(retriever, "retrieve", spy)
        shown = run_query(AppConfig(index_dir=str(tmp_path / "index"), top_k=3), "alpha text 1")
        assert [row["segment_key"] for row in shown["results"]] == [
            row.segment_key for row in outcome.top]
        assert seen[0].ranking._order is None
        assert top_reads == [3, 3]  # the top rows are selected once per query

    def test_top_is_selected_when_first_read_and_kept(self):
        bundle = bundle_for({str(i): f"alpha text {i % 3}" for i in range(20)})
        outcome = retrieve("alpha text 1", bundle, RetrievalConfig(top_k=4))
        assert "top" not in outcome.__dict__ and outcome.top_k == 4
        top = outcome.top
        assert top == outcome.ranking[:4] and len(top) == 4
        assert outcome.top is top
        assert RetrievalOutcome(outcome.ranking, 2).top == top[:2]

    def test_fuse_and_rank_result_looks_keys_up(self):
        ranking = fuse_and_rank({"b": 0.2, "a": 0.9}, {}, {"c": 1}, RetrievalConfig(beta=1.0))
        assert [r.segment_key for r in ranking] == ["c", "a", "b"]
        assert [ranking.rank_of(k) for k in "abc"] == [2, 3, 1]


class TestUserDictionary:
    TEXTS = {"1": "power supply pinout regulator", "2": "power regulator block"}

    def test_retrieve_applies_the_bundle_dictionary_like_the_cli(self, tmp_path):
        bundle = bundle_for(self.TEXTS, user_keywords=["pinout"])
        save_index(bundle, tmp_path / "index")
        cfg = AppConfig(index_dir=str(tmp_path / "index"))
        for query in ("pinout", "power pinout", "regulator"):
            shown = [(row["segment_key"], row["keyword_hits"], row["fused_score"])
                     for row in run_query(cfg, query)["results"]]
            got = [(row.segment_key, row.keyword_hits, row.fused_score)
                   for row in retrieve(query, bundle, cfg.retrieval()).top]
            assert got == shown
        assert retrieve("pinout", bundle, cfg.retrieval()).top[0].keyword_hits == 1

    def test_per_query_words_add_to_the_dictionary(self):
        built = bundle_for(self.TEXTS, user_keywords=["pinout", "regulator"])
        bundle = IndexBundle(built.vectors, built.bm25, built.keywords, built.segments,
                             built.embedder_spec, user_keywords=["pinout"])

        def hits(**kwargs):
            ranking = retrieve("pinout regulator", bundle, RetrievalConfig(), **kwargs).ranking
            return {row.segment_key: row.keyword_hits for row in ranking}

        assert hits() == {"d#1": 1, "d#2": 0}
        assert hits(user_keywords={"regulator"}) == {"d#1": 2, "d#2": 1}


def _corpus_gen():
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import corpus_gen

    return corpus_gen


def _datasheet_case(tmp_path):
    _, segments = load_and_ingest(write_datasheet_corpus(tmp_path / "ds"))
    queries = ["vcc supply voltage", "CA-IS3641 isolation", "pinout package", "zzz", ""]
    return segments, [], queries


def _generated_case(tmp_path):
    corpus_gen = _corpus_gen()
    corpus = corpus_gen.generate(3, 4, bank_size=12)
    corpus_gen.write(corpus, tmp_path / "gen")
    _, segments = load_and_ingest(tmp_path / "gen")
    return segments, corpus.keyword_dict, [q["query"] for q in corpus.bank]


def raw_vector_scores(bundle, query, embedder):
    """Raw cosine of the query against every stored vector, by key."""
    return dict(zip(bundle.vectors.entries, vector_route(query, bundle.vectors, embedder).tolist()))


class TestRankingCoreProperties:
    """Every row of a full ranking follows from the scalar definitions."""

    @pytest.fixture(params=["datasheet", "generated"])
    def case(self, request, tmp_path):
        make = {"datasheet": _datasheet_case, "generated": _generated_case}[request.param]
        return make(tmp_path)

    def test_every_row_matches_the_scalar_oracles(self, case):
        segments, user_keywords, queries = case
        embedder = HashingEmbedder()
        bundle = build_indices(segments, embedder, user_keywords=user_keywords)
        cfg = RetrievalConfig(alpha=0.4, beta=0.3, top_k=5)
        user = set(bundle.user_keywords)
        for query in queries:
            ranking = list(retrieve(query, bundle, cfg, user_keywords=user).ranking)
            assert sorted(r.segment_key for r in ranking) == sorted(bundle.keys)
            assert [r.rank for r in ranking] == list(range(1, len(ranking) + 1))

            raw_r = bm25_scores(bundle.bm25, query)
            for key in bundle.keys:
                assert raw_r[key] == bm25_score(bundle.bm25, query, key)
            lo_r, hi_r = min(raw_r.values()), max(raw_r.values())
            raw_v = raw_vector_scores(bundle, query, embedder)
            lo_v, hi_v = min(raw_v.values()), max(raw_v.values())
            query_keywords = extract_keywords(query, user)
            words_of = dict(zip(bundle.keys, keyword_sets(bundle.keywords)))
            for row in ranking:
                key = row.segment_key
                expected_r = 0.5 if hi_r == lo_r else (raw_r[key] - lo_r) / (hi_r - lo_r)
                assert row.score_r == expected_r
                if key not in raw_v:
                    expected_v = 0.0
                elif hi_v == lo_v:
                    expected_v = 0.5
                else:
                    expected_v = (raw_v[key] - lo_v) / (hi_v - lo_v)
                assert row.score_v == expected_v
                assert row.keyword_hits == len(query_keywords & words_of[key])
                assert row.fused_score == (
                    cfg.alpha * row.score_v
                    + (1.0 - cfg.alpha) * row.score_r
                    + cfg.beta * math.log(1 + row.keyword_hits)
                )
            order = sorted(ranking, key=lambda r: (-r.fused_score, -r.score_v, r.segment_key))
            assert [r.segment_key for r in ranking] == [r.segment_key for r in order]

    def test_raw_vector_scores_match_per_row_dot(self, case):
        segments, user_keywords, queries = case
        embedder = HashingEmbedder()
        forward = build_indices(segments, embedder, user_keywords=user_keywords)
        backward = build_indices(segments[::-1], embedder, user_keywords=user_keywords)
        for query in queries:
            q, _ = unit_vector(embedder.embed(query), embedder.dim)
            if q is None:
                continue
            scores = raw_vector_scores(forward, query, embedder)
            assert scores == raw_vector_scores(backward, query, embedder)
            assert list(scores.values()) == scalar_cosines(dense(forward.vectors), q)


def scalar_cosines(matrix, q):
    """The vector route's exact scalar oracle: each row's float64 products
    summed from 0.0 in ascending dimension order."""
    scores = []
    for row in matrix.tolist():
        s = 0.0
        for j in range(len(q)):
            s += float(row[j]) * float(q[j])
        scores.append(s)
    return scores


def stored_and_scored(rows, query):
    """The float32 unit vectors an index of plug-in ``rows`` stores (a row that is
    not a unit vector's is left out) and the vector route's scores of ``query``."""
    dim = len(query)
    names = [f"{i:03d}" for i in range(len(rows))]  # in key order
    embedder = FakeEmbedder(dim, dict(zip(names, rows)) | {"q": query})
    vectors = build_indices([seg("d", name, name) for name in names], embedder).vectors
    stored = [v for v in (unit_vector(row, dim)[0] for row in rows) if v is not None]
    stored = np.array(stored, np.float32).reshape(-1, dim)
    return vectors, stored, vector_route("q", vectors, embedder)


@pytest.mark.parametrize("dim", [2, 24, 256])
def test_dense_query_scores_the_scalar_sum(dim):
    rng = np.random.default_rng(dim)
    rows = list(rng.standard_normal((40, dim)))
    query = rng.standard_normal(dim)
    vectors, stored, scores = stored_and_scored(rows, query)
    assert dense(vectors).tobytes() == stored.tobytes()
    assert scores.tolist() == scalar_cosines(stored, unit_vector(query, dim)[0])


# Components that are zero, negative zero, or underflow to zero in float32 (1e-46 as
# the only non-zero component of a row does not: it scales to 1.0 first).
_COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0, 1e-46, -1e-46, 1e-40, 1.0, -2.5]),
                        st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), n=st.integers(0, 7),
       density=st.sampled_from(["sparse", "dense"]))
def test_vector_route_is_the_scalar_sum_over_dense_rows(data, dim, n, density):
    """Whatever the matrix (sparse or fully dense, with negative components,
    -0.0, float32 underflow and empty columns) and the query (zero dimensions
    included), the route equals the scalar oracle over the dense float32 rows."""
    component = _COMPONENTS if density == "sparse" else (st.floats(1e-3, 1e3)
                                                         | st.floats(-1e3, -1e-3))
    rows = data.draw(st.lists(st.lists(component, min_size=dim, max_size=dim),
                              min_size=n, max_size=n))
    query = np.array(data.draw(st.lists(_COMPONENTS, min_size=dim, max_size=dim)))
    vectors, stored, scores = stored_and_scored(rows, query)
    assert dense(vectors).tobytes() == (stored + np.float32(0.0)).tobytes()  # -0.0 reads 0.0
    assert len(vectors.values) == np.count_nonzero(stored)  # no zero is stored
    q = unit_vector(query, dim)[0]
    expected = scalar_cosines(stored, q) if q is not None else [0.0] * len(stored)
    assert scores.tobytes() == np.array(expected, dtype=np.float64).tobytes()
