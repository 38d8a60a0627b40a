"""Log-rank retrieval metric, dataset evaluation, and cohesion analytics.

The per-segment score is an inverted-logarithmic function of its rank,
1 at rank 1 and 0 at rank N, steeper near the top as gamma grows. A query
scores the mean over its relevant segments; a dataset report aggregates
mean/max/min and population standard deviation across queries.

Cohesion analytics quantify how tightly groups of segment embeddings
cluster (mean pairwise cosine), with a deterministic 2-D PCA export for
plotting distribution shifts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .retriever import Ranking

UNIT_NORM_TOLERANCE = 1e-6


class QuestionBankError(Exception):
    """A question bank file is malformed or references unknown segments."""


class EvalError(Exception):
    """Evaluation failed for a specific query; the message names it."""


@dataclass(frozen=True)
class EvalQuery:
    """One ground-truth item: a query and the segment keys that answer it."""

    query_id: str
    query: str
    relevant_keys: frozenset[str]
    user_keywords: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.relevant_keys:
            raise ValueError(f"empty relevant set for query {self.query_id!r}")


@dataclass
class EvalReport:
    per_query_scores: dict[str, float]
    mean: float
    max: float
    min: float
    std: float  # population standard deviation
    gamma: float
    corpus_size: int


@dataclass
class CohesionStat:
    mean_pairwise_cosine: float | None  # None marks the undefined singleton case
    centroid_norm: float
    count: int


@dataclass
class PcaProjection:
    rows: list[tuple[str, float, float, str]]  # (key, x, y, group)
    explained_variance: tuple[float, float]


def log_rank_score(rank: int, corpus_size: int, gamma: float) -> float:
    """Inverted-logarithmic rank score: 1 at rank 1, 0 at rank N.

    score = 1 - ln(1 + gamma*(rank-1)) / ln(1 + gamma*(N-1)), strictly
    decreasing in rank for every finite gamma > 0.
    """
    if corpus_size < 2:
        raise ValueError(f"corpus_size must be >= 2, got {corpus_size}")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    if not 1 <= rank <= corpus_size:
        raise ValueError(f"rank {rank} outside 1..{corpus_size}")
    return 1.0 - math.log1p(gamma * (rank - 1)) / math.log1p(gamma * (corpus_size - 1))


def evaluate_query(ranking: Ranking, eq: EvalQuery, gamma: float) -> float:
    """Mean log-rank score over the query's relevant segments."""
    relevant = sorted(eq.relevant_keys)
    ranks = [ranking.rank_of(key) for key in relevant]
    missing = [key for key, rank in zip(relevant, ranks) if rank is None]
    if missing:
        raise ValueError(f"relevant keys missing from the ranking: {missing}")
    n = len(ranking)
    scores = [log_rank_score(rank, n, gamma) for rank in ranks]
    return sum(scores) / len(scores)


def evaluate_dataset(
    queries: Sequence[EvalQuery],
    rank_fn: Callable[[EvalQuery], Ranking],
    gamma: float,
) -> EvalReport:
    """Run retrieval per query and aggregate log-rank statistics."""
    if not queries:
        raise ValueError("evaluate_dataset needs at least one query")
    per_query: dict[str, float] = {}
    corpus_size = None
    for eq in queries:
        try:
            ranking = rank_fn(eq)
            per_query[eq.query_id] = evaluate_query(ranking, eq, gamma)
        except Exception as exc:
            raise EvalError(f"query {eq.query_id!r}: {exc}") from exc
        if corpus_size is None:
            corpus_size = len(ranking)
        elif len(ranking) != corpus_size:
            raise EvalError(
                f"query {eq.query_id!r}: ranking holds {len(ranking)} segments, "
                f"the first ranking {corpus_size}"
            )
    values = list(per_query.values())
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return EvalReport(
        per_query_scores=per_query,
        mean=mean,
        max=max(values),
        min=min(values),
        std=math.sqrt(variance),
        gamma=gamma,
        corpus_size=corpus_size,
    )


def cohesion_stats(
    groups: Mapping[str, Sequence[np.ndarray]],
) -> dict[str, CohesionStat]:
    """Mean pairwise cosine and centroid norm per group of unit vectors.

    Singleton groups report mean_pairwise_cosine as None (undefined).
    """
    stats: dict[str, CohesionStat] = {}
    for group_id, vectors in groups.items():
        if len(vectors) == 0:
            raise ValueError(f"group {group_id!r} is empty")
        matrix = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
        norms = np.linalg.norm(matrix, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOLERANCE):
            raise ValueError(f"group {group_id!r} contains a non-unit vector")
        n = matrix.shape[0]
        centroid_norm = float(np.linalg.norm(matrix.mean(axis=0)))
        if n == 1:
            stats[group_id] = CohesionStat(None, centroid_norm, 1)
            continue
        gram = matrix @ matrix.T
        mean_cos = float((gram.sum() - np.trace(gram)) / (n * (n - 1)))
        stats[group_id] = CohesionStat(mean_cos, centroid_norm, n)
    return stats


def export_coordinates(
    vectors: Mapping[str, np.ndarray],
    groups: Mapping[str, str] | None = None,
) -> PcaProjection:
    """Project vectors to 2-D via PCA with a fixed sign convention.

    Components are the top-2 eigenvectors of the covariance of the centered
    vectors; each eigenvector's first nonzero entry is made positive so the
    output is deterministic across runs.
    """
    keys = list(vectors)
    if len(keys) < 2:
        raise ValueError("the 2-D projection needs at least 2 vectors")
    matrix = np.stack([np.asarray(vectors[k], dtype=np.float64) for k in keys])
    if not (matrix != matrix[0]).any():
        raise ValueError("the 2-D projection needs at least 2 distinct vectors")

    centered = matrix - matrix.mean(axis=0)
    cov = (centered.T @ centered) / (matrix.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:2]
    components = eigenvectors[:, order]
    for j in range(components.shape[1]):
        column = components[:, j]
        nonzero = np.nonzero(np.abs(column) > 1e-12)[0]
        if nonzero.size and column[nonzero[0]] < 0:
            components[:, j] = -column
    coords = centered @ components

    total = float(eigenvalues.sum())
    top = eigenvalues[order]
    explained = (float(top[0] / total), float(top[1] / total)) if total > 0 else (0.0, 0.0)

    groups = groups or {}
    rows = [
        (key, float(coords[i, 0]), float(coords[i, 1]), groups.get(key, ""))
        for i, key in enumerate(keys)
    ]
    return PcaProjection(rows=rows, explained_variance=explained)


def load_question_bank(path: str | Path) -> list[EvalQuery]:
    """Read a JSONL question bank: {"id", "query", "relevant", "keywords"}."""
    queries: list[EvalQuery] = []
    seen: set[str] = set()
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise QuestionBankError(f"unreadable question bank {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise QuestionBankError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "query" not in data or "relevant" not in data:
            raise QuestionBankError(f"{path}:{lineno}: need 'query' and 'relevant' fields")
        for name in ("query", "id"):
            if name in data and not isinstance(data[name], str):
                raise QuestionBankError(f"{path}:{lineno}: {name!r} must be a string")
        for name in ("relevant", "keywords"):
            words = data.get(name, [])
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise QuestionBankError(f"{path}:{lineno}: {name!r} must be a list of strings")
        query_id = data.get("id", f"q{lineno}")
        if query_id in seen:
            raise QuestionBankError(f"{path}:{lineno}: duplicate query id {query_id!r}")
        seen.add(query_id)
        try:
            queries.append(EvalQuery(query_id, data["query"], frozenset(data["relevant"]),
                                     frozenset(data.get("keywords", []))))
        except ValueError as exc:  # the query's own checks
            raise QuestionBankError(f"{path}:{lineno}: {exc}") from exc
    if not queries:
        raise QuestionBankError(f"question bank {path} holds no queries")
    return queries
