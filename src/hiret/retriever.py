"""Three-route retrieval with min-max normalization and score fusion.

A query is scored by cosine similarity against the vector index, by BM25
against the inverted index, and by critical-keyword overlap. The first two
are min-max normalized per query, then fused as

    fused = alpha * vector + (1 - alpha) * bm25 + beta * ln(1 + keyword_hits)

and every segment in the corpus receives a rank (ties broken by vector
score, then key), so downstream evaluation always sees a full permutation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .index import (
    Embedder,
    IndexBundle,
    KeywordExtractor,
    KeywordTable,
    VectorIndex,
    bm25_scores,
    extract_keywords,
    is_embeddable,
    make_embedder,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetrievalConfig:
    """Fusion hyperparameters; gamma rides along for the evaluation kit."""

    alpha: float = 0.5
    beta: float = 0.1
    top_k: int = 5
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class RankedResult:
    segment_key: str
    score_v: float  # normalized vector-route score
    score_r: float  # normalized BM25-route score
    keyword_hits: int
    fused_score: float
    rank: int


@dataclass(frozen=True)
class RetrievalOutcome:
    """Top-k slice for serving plus the full ranking for evaluation."""

    top: list[RankedResult]
    ranking: list[RankedResult]


def vector_route(query: str, vindex: VectorIndex, embedder: Embedder) -> dict[str, float]:
    """Raw cosine similarity of the query against every stored vector."""
    if embedder.dim != vindex.dim:
        raise ValueError(f"embedder dim {embedder.dim} != index dim {vindex.dim}")
    q = np.asarray(embedder.embed(query), dtype=np.float64)
    if not is_embeddable(q):
        log.warning("query %r has no embeddable tokens; vector route scores all zero", query)
        return {key: 0.0 for key in vindex.entries}
    q = q / np.linalg.norm(q)
    return {
        key: float(np.dot(vec.astype(np.float64), q)) for key, vec in vindex.entries.items()
    }


def keyword_route(
    query: str,
    ktable: KeywordTable,
    extractor: KeywordExtractor | None = None,
    user_keywords: set[str] | None = None,
) -> dict[str, int]:
    """Distinct critical keywords shared between the query and each segment."""
    query_keywords = extract_keywords(query, extractor, user_keywords)
    return {key: len(query_keywords & words) for key, words in ktable.keywords.items()}


def normalize_scores(raw: dict[str, float]) -> dict[str, float]:
    """Min-max normalize over the map's key set; all-equal maps to 0.5."""
    if not raw:
        return {}
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        return {key: 0.5 for key in raw}
    span = hi - lo
    return {key: (value - lo) / span for key, value in raw.items()}


def fuse_and_rank(
    scores_v: dict[str, float],
    scores_r: dict[str, float],
    hits: dict[str, int],
    cfg: RetrievalConfig,
) -> list[RankedResult]:
    """Fuse normalized route scores and rank every segment.

    Keys absent from a map score 0 on that route. Ties break on higher
    vector score, then lexicographic key, making the ranking deterministic.
    """
    universe = set(scores_v) | set(scores_r) | set(hits)
    rows = []
    for key in universe:
        v = scores_v.get(key, 0.0)
        r = scores_r.get(key, 0.0)
        c = hits.get(key, 0)
        fused = cfg.alpha * v + (1.0 - cfg.alpha) * r + cfg.beta * math.log(1 + c)
        rows.append((key, v, r, c, fused))
    rows.sort(key=lambda row: (-row[4], -row[1], row[0]))
    return [
        RankedResult(
            segment_key=key,
            score_v=v,
            score_r=r,
            keyword_hits=c,
            fused_score=fused,
            rank=i,
        )
        for i, (key, v, r, c, fused) in enumerate(rows, start=1)
    ]


def retrieve(
    query: str,
    bundle: IndexBundle,
    cfg: RetrievalConfig,
    extractor: KeywordExtractor | None = None,
    user_keywords: set[str] | None = None,
    embedder: Embedder | None = None,
) -> RetrievalOutcome:
    """Run all three routes, fuse, and return top-k plus the full ranking.

    Without ``embedder`` one is made from the bundle's spec and closed
    before returning.
    """
    made = embedder is None
    if made:
        embedder = make_embedder(bundle.embedder_spec)
    try:
        raw_v = vector_route(query, bundle.vectors, embedder)
    finally:
        if made and hasattr(embedder, "close"):
            embedder.close()
    raw_r = bm25_scores(bundle.bm25, query)
    hits = keyword_route(query, bundle.keywords, extractor, user_keywords)
    ranking = fuse_and_rank(normalize_scores(raw_v), normalize_scores(raw_r), hits, cfg)
    return RetrievalOutcome(top=ranking[: cfg.top_k], ranking=ranking)
