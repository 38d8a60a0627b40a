import math
import random

import numpy as np
import pytest

from hiret.evalkit import (
    EvalError,
    EvalQuery,
    QuestionBankError,
    cohesion_stats,
    evaluate_dataset,
    evaluate_query,
    export_coordinates,
    load_question_bank,
    log_rank_score,
)
from hiret.retriever import Ranking

LOG_RANK_R2_N100 = 0.8494850021680094  # 1 - ln 2 / ln 100
TWO_RELEVANT_EXAMPLE = 0.7614393726401688  # (1 + (1 - ln 3 / ln 10)) / 2


def ranking_of(keys):
    """A ranking holding ``keys`` at ranks 1..n."""
    n = len(keys)
    zeros = np.zeros(n)
    return Ranking(list(keys), np.arange(n), zeros, zeros, np.zeros(n, dtype=np.int64),
                   np.arange(n, 0, -1, dtype=np.float64))


def unit(v):
    arr = np.asarray(v, dtype=np.float64)
    return arr / np.linalg.norm(arr)


class TestLogRankScore:
    def test_rank_one_is_one(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randrange(2, 10_000)
            gamma = rng.uniform(0.01, 50)
            assert log_rank_score(1, n, gamma) == 1.0

    def test_rank_n_is_zero(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randrange(2, 10_000)
            gamma = rng.uniform(0.01, 50)
            assert log_rank_score(n, n, gamma) == 0.0

    def test_worked_example(self):
        score = log_rank_score(2, 100, 1.0)
        assert score == pytest.approx(LOG_RANK_R2_N100, abs=1e-12)
        assert score == pytest.approx(0.849485, abs=1e-6)

    def test_strictly_decreasing_in_rank(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(3, 300)
            gamma = rng.uniform(0.05, 20)
            scores = [log_rank_score(r, n, gamma) for r in range(1, n + 1)]
            assert all(a > b for a, b in zip(scores, scores[1:]))
            assert all(0.0 <= s <= 1.0 for s in scores)

    def test_larger_gamma_drops_scores_pointwise(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randrange(3, 300)
            gamma = rng.uniform(0.05, 10)
            bigger = gamma * rng.uniform(1.5, 4)
            r = rng.randrange(2, n)
            assert log_rank_score(r, n, bigger) < log_rank_score(r, n, gamma)

    def test_degenerate_corpus_rejected(self):
        with pytest.raises(ValueError, match="corpus_size"):
            log_rank_score(1, 1, 1.0)

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            log_rank_score(0, 10, 1.0)
        with pytest.raises(ValueError, match="rank"):
            log_rank_score(11, 10, 1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            log_rank_score(1, 10, 0.0)


class TestEvaluateQuery:
    def test_two_relevant_at_ranks_one_and_three(self):
        ranking = ranking_of([f"k{i}" for i in range(10)])
        eq = EvalQuery("q", "question", frozenset({"k0", "k2"}))
        score = evaluate_query(ranking, eq, gamma=1.0)
        assert score == pytest.approx(TWO_RELEVANT_EXAMPLE, abs=1e-12)

    def test_single_relevant_at_rank_one(self):
        ranking = ranking_of(["a", "b", "c"])
        assert evaluate_query(ranking, EvalQuery("q", "x", frozenset({"a"})), 1.0) == 1.0

    def test_single_relevant_at_rank_n(self):
        ranking = ranking_of(["a", "b", "c"])
        assert evaluate_query(ranking, EvalQuery("q", "x", frozenset({"c"})), 1.0) == 0.0

    def test_missing_relevant_key_is_error(self):
        ranking = ranking_of(["a", "b"])
        with pytest.raises(ValueError, match="ghost"):
            evaluate_query(ranking, EvalQuery("q", "x", frozenset({"ghost"})), 1.0)

    def test_shuffling_irrelevant_segments_changes_nothing(self):
        rng = random.Random(5)
        keys = [f"k{i}" for i in range(20)]
        relevant = {"k3", "k8"}
        eq = EvalQuery("q", "x", frozenset(relevant))
        base = evaluate_query(ranking_of(keys), eq, 2.0)
        for _ in range(10):
            others = [k for k in keys if k not in relevant]
            rng.shuffle(others)
            it = iter(others)
            shuffled = [k if k in relevant else next(it) for k in keys]
            assert evaluate_query(ranking_of(shuffled), eq, 2.0) == base

    def test_empty_relevant_set_rejected_at_construction(self):
        with pytest.raises(ValueError, match="relevant"):
            EvalQuery("q", "x", frozenset())


class TestEvaluateDataset:
    def rank_fn_for(self, keys):
        return lambda eq: ranking_of(keys)

    def test_all_relevant_rank_one(self):
        keys = ["a", "b", "c"]
        queries = [
            EvalQuery("q1", "x", frozenset({"a"})),
            EvalQuery("q2", "y", frozenset({"a"})),
        ]
        report = evaluate_dataset(queries, self.rank_fn_for(keys), 1.0)
        assert report.mean == 1.0
        assert report.std == 0.0
        assert report.corpus_size == 3

    def test_single_query_statistics(self):
        queries = [EvalQuery("q1", "x", frozenset({"b"}))]
        report = evaluate_dataset(queries, self.rank_fn_for(["a", "b", "c"]), 1.0)
        assert report.mean == report.max == report.min
        assert report.std == 0.0

    def test_statistics_match_recomputation(self):
        keys = [f"k{i}" for i in range(30)]
        rng = random.Random(6)
        queries = [
            EvalQuery(f"q{i}", "x", frozenset({rng.choice(keys)})) for i in range(12)
        ]
        report = evaluate_dataset(queries, self.rank_fn_for(keys), 1.5)
        values = list(report.per_query_scores.values())
        mean = sum(values) / len(values)
        assert report.mean == pytest.approx(mean, abs=1e-15)
        assert report.max == max(values)
        assert report.min == min(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert report.std == pytest.approx(math.sqrt(var), abs=1e-15)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            evaluate_dataset([], self.rank_fn_for(["a"]), 1.0)

    def test_error_names_the_query(self):
        queries = [EvalQuery("broken-query", "x", frozenset({"ghost"}))]
        with pytest.raises(EvalError, match="broken-query"):
            evaluate_dataset(queries, self.rank_fn_for(["a", "b"]), 1.0)

    def test_ranking_length_mismatch_names_the_query(self):
        queries = [
            EvalQuery("q1", "x", frozenset({"a"})),
            EvalQuery("shorter", "y", frozenset({"a"})),
        ]
        rankings = {"q1": ranking_of(["a", "b", "c"]), "shorter": ranking_of(["a", "b"])}
        with pytest.raises(EvalError, match="shorter"):
            evaluate_dataset(queries, lambda eq: rankings[eq.query_id], 1.0)


class TestCohesionStats:
    def brute_force(self, vectors):
        total, pairs = 0.0, 0
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                total += float(np.dot(vectors[i], vectors[j]))
                pairs += 1
        return total / pairs

    def test_identical_vectors_cohere_fully(self):
        v = unit([1.0, 2.0, 3.0])
        stats = cohesion_stats({"g": [v, v.copy(), v.copy()]})
        assert stats["g"].mean_pairwise_cosine == pytest.approx(1.0, abs=1e-6)
        assert stats["g"].count == 3

    def test_orthogonal_pair(self):
        stats = cohesion_stats({"g": [unit([1, 0]), unit([0, 1])]})
        assert stats["g"].mean_pairwise_cosine == pytest.approx(0.0, abs=1e-12)

    def test_singleton_is_undefined(self):
        stats = cohesion_stats({"g": [unit([1, 0, 0])]})
        assert stats["g"].mean_pairwise_cosine is None
        assert stats["g"].count == 1
        assert stats["g"].centroid_norm == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError, match="non-unit"):
            cohesion_stats({"g": [np.array([1.0, 1.0])]})

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cohesion_stats({"g": []})

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            vectors = [unit(rng.normal(size=8)) for _ in range(rng.integers(2, 12))]
            stats = cohesion_stats({"g": vectors})
            assert stats["g"].mean_pairwise_cosine == pytest.approx(
                self.brute_force(vectors), abs=1e-9
            )

    def test_union_of_two_tight_clusters_less_cohesive(self):
        rng = np.random.default_rng(8)
        around_a = [unit(np.array([1.0, 0, 0, 0]) + rng.normal(scale=0.01, size=4)) for _ in range(6)]
        around_b = [unit(np.array([0, 1.0, 0, 0]) + rng.normal(scale=0.01, size=4)) for _ in range(6)]
        stats = cohesion_stats({"a": around_a, "b": around_b, "ab": around_a + around_b})
        assert stats["ab"].mean_pairwise_cosine < stats["a"].mean_pairwise_cosine
        assert stats["ab"].mean_pairwise_cosine < stats["b"].mean_pairwise_cosine
        assert stats["ab"].mean_pairwise_cosine == pytest.approx(
            self.brute_force(around_a + around_b), abs=1e-9
        )


class TestExportCoordinates:
    def test_planar_data_preserves_distances(self):
        rng = np.random.default_rng(9)
        basis = np.linalg.qr(rng.normal(size=(12, 2)))[0]  # orthonormal 12x2
        points2d = rng.normal(size=(15, 2))
        vectors = {f"p{i}": points2d[i] @ basis.T for i in range(15)}
        projection = export_coordinates(vectors)
        coords = {key: np.array([x, y]) for key, x, y, _ in projection.rows}
        keys = list(vectors)
        for _ in range(40):
            a, b = rng.choice(keys, size=2, replace=False)
            original = np.linalg.norm(vectors[a] - vectors[b])
            projected = np.linalg.norm(coords[a] - coords[b])
            assert projected == pytest.approx(original, abs=1e-6)
        assert sum(projection.explained_variance) == pytest.approx(1.0, abs=1e-9)

    def test_duplicates_share_coordinates(self):
        vectors = {
            "a": np.array([1.0, 0.0, 0.0]),
            "b": np.array([1.0, 0.0, 0.0]),
            "c": np.array([0.0, 1.0, 0.0]),
        }
        projection = export_coordinates(vectors)
        coords = {key: (x, y) for key, x, y, _ in projection.rows}
        assert coords["a"] == coords["b"]

    def test_all_identical_vectors_rejected(self):
        vectors = {"a": np.ones(4), "b": np.ones(4)}
        with pytest.raises(ValueError, match="distinct"):
            export_coordinates(vectors)

    def test_fewer_than_two_vectors_rejected(self):
        with pytest.raises(ValueError, match="2 vectors"):
            export_coordinates({"a": np.ones(4)})

    def test_groups_flow_into_rows(self):
        vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        projection = export_coordinates(vectors, groups={"a": "g1", "b": "g2"})
        assert [(row[0], row[3]) for row in projection.rows] == [("a", "g1"), ("b", "g2")]

    def test_explained_variance_matches_svd_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, d = int(rng.integers(4, 12)), int(rng.integers(3, 9))
            matrix = rng.normal(size=(n, d))
            vectors = {f"p{i}": matrix[i] for i in range(n)}
            projection = export_coordinates(vectors)
            centered = matrix - matrix.mean(axis=0)
            singular = np.linalg.svd(centered, compute_uv=False)
            eigen = (singular**2) / (n - 1)
            expected = (eigen[0] / eigen.sum(), eigen[1] / eigen.sum())
            assert projection.explained_variance[0] == pytest.approx(expected[0], abs=1e-6)
            assert projection.explained_variance[1] == pytest.approx(expected[1], abs=1e-6)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(8, 5))
        vectors = {f"p{i}": matrix[i] for i in range(8)}
        first = export_coordinates(vectors)
        again = export_coordinates({k: v.copy() for k, v in vectors.items()})
        assert first.rows == again.rows


class TestQuestionBank:
    def test_round_trip(self, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text(
            '{"id": "q1", "query": "alpha", "relevant": ["d#1"], "keywords": ["x9"]}\n'
            '{"id": "q2", "query": "beta", "relevant": ["d#2", "d#3"]}\n',
            encoding="utf-8",
        )
        queries = load_question_bank(bank)
        assert [q.query_id for q in queries] == ["q1", "q2"]
        assert queries[0].user_keywords == frozenset({"x9"})
        assert queries[1].relevant_keys == frozenset({"d#2", "d#3"})

    def test_invalid_json_line_reported_with_number(self, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text('{"id": "q1", "query": "a", "relevant": ["k"]}\nnot json\n')
        with pytest.raises(QuestionBankError, match=":2"):
            load_question_bank(bank)

    def test_missing_fields_rejected(self, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text('{"id": "q1", "query": "a"}\n')
        with pytest.raises(QuestionBankError, match="relevant"):
            load_question_bank(bank)

    def test_empty_bank_rejected(self, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text("\n")
        with pytest.raises(QuestionBankError, match="no queries"):
            load_question_bank(bank)

    def test_duplicate_ids_rejected(self, tmp_path):
        bank = tmp_path / "bank.jsonl"
        bank.write_text(
            '{"id": "q1", "query": "a", "relevant": ["k"]}\n'
            '{"id": "q1", "query": "b", "relevant": ["k"]}\n'
        )
        with pytest.raises(QuestionBankError, match="duplicate"):
            load_question_bank(bank)
