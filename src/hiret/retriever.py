"""Three-route retrieval with min-max normalization and score fusion.

A query is scored by cosine similarity against the vector index, by BM25
against the inverted index, and by critical-keyword overlap. The first two
are min-max normalized per query, then fused as

    fused = alpha * vector + (1 - alpha) * bm25 + beta * ln(1 + keyword_hits)

and every segment in the corpus receives a rank (ties broken by vector
score, then key), so downstream evaluation always sees a full permutation.
Every route is a numpy array aligned to ``IndexBundle.keys``; the ranking
keeps those arrays and builds a :class:`RankedResult` only when one is read.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .index import (
    Embedder,
    IndexBundle,
    KeywordTable,
    VectorIndex,
    bm25_route,
    bm25_scores,  # noqa: F401  (bench/spans.py times the BM25 layer under this name)
    extract_keywords,
    make_embedder,
    unit_vector,
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


class Ranking(Sequence[RankedResult]):
    """Every segment in rank order; a row is built only when it is read.

    The score columns are aligned to ``keys`` and ``order[i]`` is the row
    ranked ``i + 1``. Rows read as :class:`RankedResult` with Python
    ``float``/``int`` fields; :meth:`rank_of` looks a key's rank up through
    the inverse permutation without building any row.
    """

    def __init__(self, keys: list[str], order: np.ndarray, score_v: np.ndarray,
                 score_r: np.ndarray, hits: np.ndarray, fused: np.ndarray,
                 row_of: dict[str, int] | None = None):
        self.keys = keys
        self.order = order
        self.score_v = score_v
        self.score_r = score_r
        self.hits = hits
        self.fused = fused
        self._row_of = row_of
        self._ranks: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.order)

    def _rows(self, positions: range) -> Iterator[RankedResult]:
        """The rows at 0-based rank ``positions``, in that order."""
        order = self.order[np.arange(positions.start, positions.stop, positions.step)]
        columns = zip(positions, order.tolist(), self.score_v[order].tolist(),
                      self.score_r[order].tolist(), self.hits[order].tolist(),
                      self.fused[order].tolist())
        for position, row, v, r, c, fused in columns:
            yield RankedResult(self.keys[row], v, r, c, fused, position + 1)

    def __getitem__(self, index):
        positions = range(len(self))[index]  # list semantics, IndexError included
        if isinstance(index, slice):
            return list(self._rows(positions))
        return next(self._rows(range(positions, positions + 1)))

    def __iter__(self) -> Iterator[RankedResult]:
        return self._rows(range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Ranking):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def rank_of(self, key: str) -> int | None:
        """1-based rank of ``key``, or None when the key is not ranked."""
        if self._row_of is None:
            self._row_of = {k: row for row, k in enumerate(self.keys)}
        if self._ranks is None:
            self._ranks = np.empty(len(self), dtype=np.intp)
            self._ranks[self.order] = np.arange(1, len(self) + 1)
        row = self._row_of.get(key)
        return None if row is None else int(self._ranks[row])


@dataclass(frozen=True)
class RetrievalOutcome:
    """Top-k slice for serving plus the full ranking for evaluation."""

    top: list[RankedResult]
    ranking: Ranking


def vector_route(query: str, vindex: VectorIndex, embedder: Embedder) -> np.ndarray:
    """Raw cosine similarity of the query against every stored vector.

    Float64 scores in ``vindex.rows`` order, from one float32-by-float64
    ``einsum``. It sums each row in a fixed order without BLAS, so a score
    does not depend on the thread count or on the other rows. A zero or
    non-finite query vector scores every row 0; a query vector of the wrong
    dimension raises ValueError.
    """
    if embedder.dim != vindex.dim:
        raise ValueError(f"embedder dim {embedder.dim} != index dim {vindex.dim}")
    q = np.asarray(embedder.embed(query), dtype=np.float64)
    if q.shape != (vindex.dim,):
        raise ValueError(f"query vector has shape {q.shape}, expected ({vindex.dim},)")
    q, problem = unit_vector(q, vindex.dim)
    if q is None:
        log.warning("query %r: vector %s; vector route scores all zero", query, problem)
        return np.zeros(len(vindex.rows))
    return np.einsum("ij,j->i", vindex.matrix, q)


def keyword_hits(
    query: str,
    ktable: KeywordTable,
    user_keywords: set[str] | None = None,
) -> np.ndarray:
    """Distinct critical keywords shared between the query and each row."""
    query_keywords = extract_keywords(query, user_keywords)
    rows = [ktable.rows[kw] for kw in query_keywords if kw in ktable.rows]
    hit_rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.intp)
    return np.bincount(hit_rows, minlength=len(ktable.keys))


def keyword_route(query: str, bundle: IndexBundle,
                  user_keywords: set[str] | None = None) -> dict[str, int]:
    """:func:`keyword_hits` of the bundle's keyword table, by key."""
    return dict(zip(bundle.keys, keyword_hits(query, bundle.keywords, user_keywords).tolist()))


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; all-equal scores map to 0.5."""
    if raw.size == 0:
        return np.zeros(0)
    lo = raw.min()
    hi = raw.max()
    if hi == lo:
        return np.full(raw.shape, 0.5)
    return (raw - lo) / (hi - lo)


def _fuse_and_sort(keys: list[str], key_rank: np.ndarray, v: np.ndarray, r: np.ndarray,
                   hits: np.ndarray, cfg: RetrievalConfig,
                   row_of: dict[str, int] | None = None) -> Ranking:
    """Fuse aligned route columns and rank every row by (-fused, -v, key)."""
    log_hits = np.array([math.log(1 + c) for c in range(int(hits.max(initial=0)) + 1)])
    fused = cfg.alpha * v + (1.0 - cfg.alpha) * r + cfg.beta * log_hits[hits]
    order = np.lexsort((key_rank, -v, -fused))
    return Ranking(keys, order, v, r, hits, fused, row_of)


def fuse_and_rank(
    scores_v: dict[str, float],
    scores_r: dict[str, float],
    hits: dict[str, int],
    cfg: RetrievalConfig,
) -> Ranking:
    """Fuse normalized route scores given by key and rank every key.

    Keys absent from a map score 0 on that route. Ties break on higher
    vector score, then lexicographic key, making the ranking deterministic.
    """
    keys = sorted(set(scores_v) | set(scores_r) | set(hits))
    v = np.array([scores_v.get(key, 0.0) for key in keys], dtype=np.float64)
    r = np.array([scores_r.get(key, 0.0) for key in keys], dtype=np.float64)
    c = np.array([hits.get(key, 0) for key in keys], dtype=np.int64)
    return _fuse_and_sort(keys, np.arange(len(keys)), v, r, c, cfg)


def retrieve(
    query: str,
    bundle: IndexBundle,
    cfg: RetrievalConfig,
    user_keywords: set[str] | None = None,
    embedder: Embedder | None = None,
) -> RetrievalOutcome:
    """Run all three routes, fuse, and return top-k plus the full ranking.

    The keyword route applies the bundle's own dictionary
    (``bundle.user_keywords``); ``user_keywords`` adds per-query words to it.
    Without ``embedder`` one is made from the bundle's spec and closed
    before returning. Segments without a vector score 0 on the vector route;
    the others are normalized among themselves.
    """
    made = embedder is None
    if made:
        embedder = make_embedder(bundle.embedder_spec)
    try:
        raw_v = vector_route(query, bundle.vectors, embedder)
    finally:
        if made and hasattr(embedder, "close"):
            embedder.close()
    v = np.zeros(len(bundle.keys))
    v[bundle.vectors.rows] = normalize_scores(raw_v)
    r = normalize_scores(bm25_route(bundle.bm25, query))
    keywords = set(bundle.user_keywords).union(user_keywords or ())
    hits = keyword_hits(query, bundle.keywords, keywords)
    ranking = _fuse_and_sort(bundle.keys, bundle.key_rank, v, r, hits, cfg, bundle.row_of)
    return RetrievalOutcome(top=ranking[: cfg.top_k], ranking=ranking)
