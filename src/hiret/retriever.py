"""Three-route retrieval with min-max normalization and score fusion.

A query is scored by cosine similarity against the vector index, by BM25
against the inverted index, and by critical-keyword overlap. The first two
are min-max normalized per query, then fused as

    fused = alpha * vector + (1 - alpha) * bm25 + beta * ln(1 + keyword_hits)

and every segment in the corpus receives a rank (ties broken by vector
score, then key), so downstream evaluation always sees a full permutation.
Every route is a numpy array aligned to ``IndexBundle.keys``, which are in
key order, so a lower row breaks the last tie; the ranking keeps those
arrays, sorts every row only when every row is read, and builds a
:class:`RankedResult` only when one is read.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

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
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if type(self.top_k) is not int:
            raise ValueError(f"top_k must be an int, got {self.top_k!r}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


@dataclass(frozen=True)
class RankedResult:
    rank: int
    segment_key: str
    fused_score: float
    score_v: float  # normalized vector-route score
    score_r: float  # normalized BM25-route score
    keyword_hits: int


class Ranking(Sequence[RankedResult]):
    """Every segment in rank order; a row is built only when it is read.

    The score columns are aligned to ``keys``, which ascend, so the rank order
    (-fused, -score_v, key) is (-fused, -score_v, row). ``order[i]`` is the
    row ranked ``i + 1``: one sort of every row, made when first needed
    (``order`` itself, iteration, ``==`` or the last position) and kept.
    Until then, reading the first ``k`` positions sorts only the rows whose
    fused score reaches the k-th largest, and :meth:`rank_of` sorts
    nothing. Rows read as :class:`RankedResult` with Python
    ``float``/``int`` fields.
    """

    def __init__(self, keys: list[str], score_v: np.ndarray, score_r: np.ndarray,
                 hits: np.ndarray, fused: np.ndarray):
        self.keys = keys
        self.score_v = score_v
        self.score_r = score_r
        self.hits = hits
        self.fused = fused
        self._order: np.ndarray | None = None

    @property
    def order(self) -> np.ndarray:
        """Every row in rank order: a stable sort breaks the last ties by row."""
        if self._order is None:
            self._order = np.lexsort((-self.score_v, -self.fused))
        return self._order

    def _top_rows(self, k: int) -> np.ndarray:
        """The rows ranked 1..k, in rank order. Unless the full order is known,
        only the rows whose fused score reaches the k-th largest are sorted."""
        n = len(self)
        if self._order is not None or k >= n:
            return self.order[:k]
        kth = -np.partition(-self.fused, k - 1)[k - 1]  # on tied scores 3x faster than n - k
        rows = np.flatnonzero(self.fused >= kth)  # ascending
        return rows[np.lexsort((-self.score_v[rows], -self.fused[rows]))][:k]

    def __len__(self) -> int:
        return len(self.fused)

    def _rows(self, positions: range) -> Iterator[RankedResult]:
        """The rows at 0-based rank ``positions``, in that order."""
        if not positions:
            return
        order = self._top_rows(max(positions) + 1)[np.array(positions, dtype=np.intp)]
        columns = zip(positions, order.tolist(), self.score_v[order].tolist(),
                      self.score_r[order].tolist(), self.hits[order].tolist(),
                      self.fused[order].tolist())
        for position, row, v, r, c, fused in columns:
            yield RankedResult(position + 1, self.keys[row], fused, v, r, c)

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

    def row_of(self, key: str) -> int | None:
        """Row of ``key`` in the score columns, or None when it is not ranked."""
        row = bisect_left(self.keys, key)
        return row if row < len(self.keys) and self.keys[row] == key else None

    def rank_of(self, key: str) -> int | None:
        """1-based rank of ``key``, or None when the key is not ranked: one
        plus the rows ranked ahead of it, counted without sorting. Of the
        rows tied with it on both scores, those below its row rank ahead."""
        row = self.row_of(key)
        if row is None:
            return None
        fused, v = self.fused[row], self.score_v[row]
        level = np.flatnonzero(self.fused == fused)
        ahead = np.count_nonzero(self.fused > fused) + np.count_nonzero(self.score_v[level] > v)
        return ahead + np.count_nonzero(self.score_v[level[level < row]] == v) + 1


@dataclass(frozen=True)
class RetrievalOutcome:
    """The full ranking for evaluation; its top-k slice :attr:`top` is selected when first read."""

    ranking: Ranking
    top_k: int

    @cached_property
    def top(self) -> list[RankedResult]:
        return self.ranking[:self.top_k]


def vector_route(query: str, vindex: VectorIndex, embedder: Embedder) -> np.ndarray:
    """Raw cosine similarity of the query against every stored vector.

    Float64 scores in ``vindex.rows`` order. Only the query's non-zero
    dimensions are read: from zeros, each vector adds its component ``j``
    times ``q[j]`` in float64 for every such ``j`` in ascending order. That
    order is fixed whatever numpy's build, SIMD width or thread count, and a
    score does not depend on the other rows. Dimension ``j`` adds only its
    stored entries, each to a distinct vector; an absent (zero) component
    would add ``+0.0`` or ``-0.0``, which changes no score, as no score is
    ``-0.0``. So each score is bit for bit the sum over the dense vector. A
    zero or non-finite query vector scores every row 0; a query vector of the
    wrong dimension raises ValueError.
    """
    if embedder.dim != vindex.dim:
        raise ValueError(f"embedder dim {embedder.dim} != index dim {vindex.dim}")
    q = np.asarray(embedder.embed(query), dtype=np.float64)
    if q.shape != (vindex.dim,):
        raise ValueError(f"query vector has shape {q.shape}, expected ({vindex.dim},)")
    q, problem = unit_vector(q, vindex.dim)
    scores = np.zeros(len(vindex.rows))
    if q is None:
        log.warning("query %r: vector %s; vector route scores all zero", query, problem)
        return scores
    offsets, ordinals, values = vindex.offsets, vindex.ordinals, vindex.values
    for j in np.flatnonzero(q).tolist():
        lo, hi = offsets[j], offsets[j + 1]
        np.add.at(scores, ordinals[lo:hi], np.multiply(values[lo:hi], q[j], dtype=np.float64))
    return scores


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


def _fuse(keys: list[str], v: np.ndarray, r: np.ndarray, hits: np.ndarray,
          cfg: RetrievalConfig) -> Ranking:
    """Fuse route columns aligned to the ascending ``keys`` into a :class:`Ranking`."""
    log_hits = np.array([math.log(1 + c) for c in range(int(hits.max(initial=0)) + 1)])
    fused = cfg.alpha * v + (1.0 - cfg.alpha) * r + cfg.beta * log_hits[hits]
    return Ranking(keys, v, r, hits, fused)


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
    return _fuse(keys, v, r, c, cfg)


def retrieve(
    query: str,
    bundle: IndexBundle,
    cfg: RetrievalConfig,
    user_keywords: set[str] | None = None,
    embedder: Embedder | None = None,
) -> RetrievalOutcome:
    """Run all three routes, fuse, and return the full ranking with ``cfg.top_k``.

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
        if made:
            embedder.close()
    v = np.zeros(len(bundle.keys))
    v[bundle.vectors.rows] = normalize_scores(raw_v)
    r = normalize_scores(bm25_route(bundle.bm25, query))
    keywords = set(bundle.user_keywords).union(user_keywords or ())
    hits = keyword_hits(query, bundle.keywords, keywords)
    ranking = _fuse(bundle.keys, v, r, hits, cfg)
    return RetrievalOutcome(ranking, cfg.top_k)
