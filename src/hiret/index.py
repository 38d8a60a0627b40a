"""Retrieval substrates: hashed vector index, BM25 index, keyword table.

All three are built from one tokenization of the augmented ``embedding_text``
of each segment, keyed by ``doc_id#segment_id``. The segments are stored in key
order, so row ``i`` is the ``i``-th key in sorted order: every index's ``keys``
is that order and its arrays hold segment rows (the vector index holds a unit
vector per embeddable segment, at ascending ``rows``). An :class:`IndexBundle`
checks at construction that its keys ascend and that the three indices are
over them.

An index persists to a directory as one file, :data:`INDEX_FILE` (format 10): the
per-segment JSON lines from offset 0, each array of :data:`_ARRAYS` at a multiple of 8
bytes, a compact JSON header, its length and a trailer of the crc32 of every byte before
it and a magic (each fact once, rows in key order, row arrays in their narrowest unsigned
type, no segment field the decoder derives, vectors by column with only their non-zero
components). Postings and keywords are :class:`InvertedLists` over the arrays as stored.
Saving is atomic, durable and deterministic: the file is written to a temporary, fsynced
and renamed into place, which commits it, and re-saving an unchanged index reproduces
every byte. Loading maps the file once, checks its crc32 dropping the pages it reads,
views each array in that map as stored and decodes a segment when read.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import mmap
import os
import re
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .corpus import Segment, path_text

log = logging.getLogger(__name__)

FORMAT_VERSION = 10
DEFAULT_DIM = 256
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_UNSIGNED = ("<u1", "<u2", "<u4")  # the types _narrowest picks from
INDEX_FILE = "index.hiret"  # an index directory's one file
# Each array of an index file, in the order it is stored, and the types it may hold.
_ARRAYS = {
    "vector_rows": _UNSIGNED,  # _narrowest(segments) segment row of each vector
    "vector_offsets": ("<i8",),  # dimension j holds entries offsets[j]:offsets[j + 1]
    "vector_ordinals": _UNSIGNED,  # _narrowest(vectors) place in vector_rows of each entry
    "vector_values": ("<f4",),  # non-zero component of each entry
    "postings_offsets": ("<i8",),  # term i holds entries offsets[i]:offsets[i + 1]
    "postings_rows": _UNSIGNED,  # _narrowest(segments) segment row of each posting entry
    "postings_tf": _UNSIGNED,  # _narrowest(largest) term count of each posting entry
    "keywords_offsets": ("<i8",),  # keyword i holds rows offsets[i]:offsets[i + 1]
    "keywords_rows": _UNSIGNED,  # _narrowest(segments) segment row holding the keyword
    "segment_offsets": ("<i8",),  # segment i is bytes offsets[i]:offsets[i + 1] of the lines
}
# The header fields load_index reads and the JSON types they hold.
_HEADER_FIELDS = {"k1": (int, float), "b": (int, float), "embedder": dict, "user_keywords": list,
                  "keys": list, "postings_terms": list, "keywords_terms": list, "lines": int,
                  "arrays": dict}
_MAGIC = b"HIRETIDX"  # an index file's last 8 bytes
_TAIL = 20  # bytes after the header: its length (<u8), then the trailer's crc32 (<u4) and _MAGIC
_OLD_MANIFEST = "manifest.json"  # what an index of format 9 or older is recognized by
_WINDOW, _CHUNK = 1 << 20, 1 << 16  # bytes _crc32 sums, entries Bm25Index counts, at a time

# Unicode letter/digit runs joined by single hyphens: keyword candidates keep
# part numbers intact, and their ``-`` pieces are the BM25 and vector terms.
_KEYWORD_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
# bytes.translate table: each ASCII byte that no token holds becomes a space; letters,
# digits, "-" and every byte of a multibyte UTF-8 character stay, so no character is cut.
_RUN_BREAKS = bytes(32 if b < 128 and not _KEYWORD_TOKEN_RE.fullmatch(f"a{chr(b)}a") else b
                    for b in range(256))
_HAS_LETTER_RE = re.compile(r"[^\W\d_]", re.UNICODE)
_HAS_DIGIT_RE = re.compile(r"\d")


class IndexFormatError(Exception):
    """A persisted index is missing, corrupt, or from another version, or a
    save would replace a directory that is not an index."""


class InconsistentIndexError(IndexFormatError):
    """The indices of a bundle do not describe the same segment universe."""


def tokenize(text: str) -> list[str]:
    """Case-folded ``-`` pieces of the keyword tokens ("CA-IS3641" -> ["ca", "is3641"])."""
    return [piece.casefold() for token in _KEYWORD_TOKEN_RE.findall(text)
            for piece in token.split("-")]


class Embedder(Protocol):
    """Deterministic text-to-vector interface; equal text, equal vector."""

    dim: int

    def embed(self, text: str) -> np.ndarray: ...

    def spec(self) -> dict: ...

    def close(self) -> None: ...


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)`` on lookup, so
    ``map(memo.__getitem__, tokens)`` runs ``compute`` once per distinct
    token and is a plain dict lookup for every repeat."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class HashingEmbedder:
    """Signed feature-hashed bag of words, L2-normalized.

    Each term (a case-folded token) is hashed to one of ``dim`` buckets with
    a +/-1 sign from an unkeyed blake2b digest, so equal text embeds alike
    across processes. Ingest hashes each term of the token scan shared with
    BM25 and the keyword table once and sums blocks of rows with the same
    :meth:`_vectors`. Zero-token input yields the zero (unembeddable) vector.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if problem := _embedder_spec_problem({"dim": dim}):
            raise ValueError(problem)
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        codes = np.fromiter(map(self._code, tokenize(text)), np.intp)
        vec = np.bincount(codes >> 1, weights=(codes & 1) * 2.0 - 1.0, minlength=self.dim)
        return vec / (math.sqrt(vec.dot(vec)) or 1.0)  # one row of _vectors, exactly

    def _code(self, term: str) -> int:
        """``2 * bucket + 1`` for a +1 sign, ``2 * bucket`` for -1."""
        digest = hashlib.blake2b(term.encode("utf-8"), digest_size=5).digest()
        return 2 * (int.from_bytes(digest[:4], "little") % self.dim) + (digest[4] & 1)

    def _vectors(self, codes: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
        """Row ``i``: the normalized signed bucket sums of the next ``lengths[i]`` codes."""
        rows = np.repeat(np.arange(len(lengths)), lengths)
        # Sums of +/-1 are integers, so every order of adding them is exact.
        vecs = np.bincount(rows * self.dim + (codes >> 1), weights=(codes & 1) * 2.0 - 1.0,
                           minlength=len(lengths) * self.dim).reshape(len(lengths), self.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))[:, None]  # np.linalg.norm's, exactly
        return vecs / np.where(norms > 0, norms, 1.0)

    def spec(self) -> dict:
        return {"kind": "hash", "dim": self.dim}

    def close(self) -> None:
        """Nothing to release."""


def _narrowest(count: int) -> str:
    """The first of :data:`_UNSIGNED` that holds ``count``: of rows, ordinals or term counts."""
    return next(dtype for dtype in _UNSIGNED if count <= np.iinfo(dtype).max)


def unit_vector(vector: np.ndarray, dim: int) -> tuple[np.ndarray | None, str]:
    """``vector`` as float64 scaled to unit L2 norm, and ``""``; or None and
    why it cannot be: a shape other than ``(dim,)``, a non-finite component
    (or a norm that overflows), or no non-zero component."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (dim,):
        return None, f"has shape {vector.shape}, expected ({dim},)"
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as not finite
        norm = math.sqrt(vector.dot(vector))  # the sum np.linalg.norm takes
    if not math.isfinite(norm):
        return None, "is not finite"
    if norm == 0.0:
        return None, "is zero (no embeddable text)"
    return vector / norm, ""


@dataclass(eq=False)
class VectorIndex:
    """Unit vectors over ``keys``, stored by column: vector ``i`` is that of segment
    row ``rows[i]`` (``intp``: each query scatters through all of them), and ``rows``
    ascends. Only the non-zero float32 components are kept: dimension ``j`` owns the
    entries ``offsets[j]:offsets[j + 1]``, entry ``e`` being component ``values[e]`` of
    vector ``ordinals[e]`` (:func:`_narrowest`), ordinals ascending within a dimension."""

    dim: int
    keys: list[str] = field(default_factory=list)
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    offsets: np.ndarray | None = None  # None: no entries
    ordinals: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))

    def __post_init__(self):
        if self.offsets is None:
            self.offsets = np.zeros(self.dim + 1, dtype=np.int64)
        if len(self.values) != len(self.ordinals):
            raise ValueError(f"{len(self.values)} vector values for {len(self.ordinals)} "
                             "vector entries")

    @property
    def entries(self) -> dict[str, np.ndarray]:
        """Each vector's segment key to its dense float32 row, all densified in one scatter."""
        dense = np.zeros((len(self.rows), self.dim), dtype=np.float32)
        dense[self.ordinals, np.repeat(np.arange(self.dim), np.diff(self.offsets))] = self.values
        return dict(zip(map(self.keys.__getitem__, self.rows.tolist()), dense))


class InvertedLists(Mapping[str, np.ndarray]):
    """Read-only term -> rows lists over the arrays an index stores: term ``i`` of the
    sorted, distinct ``terms`` owns the ascending :func:`_narrowest`-typed rows
    ``rows[offsets[i]:offsets[i + 1]]`` (a view), and every term owns a row."""

    def __init__(self, terms: list[str], offsets: np.ndarray, rows: np.ndarray):
        self.terms, self.offsets, self.rows = terms, offsets, rows

    def span(self, term: str) -> tuple[int, int]:
        """The bounds of ``term``'s rows in ``rows``; ``(0, 0)`` for an absent term."""
        i = bisect_left(self.terms, term)
        if i == len(self.terms) or self.terms[i] != term:
            return 0, 0
        return int(self.offsets[i]), int(self.offsets[i + 1])

    def __getitem__(self, term: str) -> np.ndarray:
        lo, hi = self.span(term)
        if lo == hi:
            raise KeyError(term)
        return self.rows[lo:hi]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def _check_bm25_params(k1: float, b: float) -> None:
    """Refuse a BM25 ``k1`` that is not finite and positive or a ``b`` outside [0, 1]."""
    if not k1 > 0:
        raise ValueError(f"k1 must be > 0, got {k1}")
    if not math.isfinite(k1):
        raise ValueError(f"k1 must be finite, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError(f"b must be in [0, 1], got {b}")


@dataclass(eq=False)
class Bm25Index:
    """Okapi BM25 statistics over segment embedding_text tokens.

    Row ``i`` is segment ``keys[i]``; ``postings`` lists the rows holding each
    term and ``tf[j]`` counts it in row ``postings.rows[j]``. Each row's token
    count ``lengths`` (its counts' sum), ``avgdl`` and length ``norm`` are derived
    once and never mutated. ``contributions`` keeps, per queried term the index
    holds, its float64 contribution to each of its rows: 8 bytes per posting
    entry at most, never evicted. Two threads at worst compute one term twice.
    """

    k1: float
    b: float
    keys: list[str]
    postings: InvertedLists
    tf: np.ndarray
    lengths: np.ndarray = field(init=False, repr=False)
    avgdl: float = field(init=False)
    norm: np.ndarray = field(init=False, repr=False)
    contributions: dict[str, np.ndarray] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        _check_bm25_params(self.k1, self.b)
        rows = self.postings.rows
        if len(self.tf) != len(rows):
            raise ValueError(f"{len(self.tf)} posting counts for {len(rows)} posting rows")
        self.lengths = np.zeros(len(self.keys), np.int64)  # exact sums, with a float64 copy
        for lo in range(0, len(rows), _CHUNK):  # of one chunk of the counts, not of them all
            self.lengths += np.bincount(rows[lo:lo + _CHUNK], self.tf[lo:lo + _CHUNK],
                                        len(self.keys)).astype(np.int64)
        self.avgdl = int(self.lengths.sum()) / len(self.keys) if self.keys else 0.0
        ratio = self.lengths / self.avgdl if self.avgdl > 0 else np.zeros(len(self.keys))
        self.norm = 1.0 - self.b + self.b * ratio


@dataclass(eq=False)
class KeywordTable:
    """Critical keywords as inverted lists: ``rows`` lists, for each case-folded
    keyword, the rows of the key order ``keys`` holding it."""

    keys: list[str]
    rows: InvertedLists


def _keyword(token: str) -> str:
    """The critical-keyword rule: the case-folded token if it mixes letters
    and digits, else ``""``. It catches part-number-shaped identifiers
    ("CA-IS3641", "iPhone15") that vector similarity tends to blur together."""
    if _HAS_LETTER_RE.search(token) and _HAS_DIGIT_RE.search(token):
        return token.casefold()
    return ""


def _user_words(user_keywords: Iterable[str] | None) -> list[str]:
    """The user dictionary's words, case-folded and stripped, blanks dropped."""
    return [word for word in (raw.casefold().strip() for raw in user_keywords or ()) if word]


def _with_user_keywords(found: set[str], text: str, words: list[str]) -> set[str]:
    """``found`` plus the :func:`_user_words` in ``text``."""
    folded_text = text.casefold() if words else ""
    found.update(word for word in words if word in folded_text)
    return found


def extract_keywords(text: str, user_keywords: Iterable[str] | None = None) -> set[str]:
    """Tokens of ``text`` that mix letters and digits, plus the
    user-dictionary keywords it contains, all case-folded."""
    return _with_user_keywords(set(map(_keyword, _KEYWORD_TOKEN_RE.findall(text))) - {""}, text,
                               _user_words(user_keywords))


class _Scan(list):
    """Segments, their keys and, once a builder reads :attr:`tokens`, the one pass of
    ``_KEYWORD_TOKEN_RE`` over their embedding_text that all three builders share. A
    keyword token's ``-`` pieces are its :func:`tokenize` terms, its term ids once folded.
    The scan cuts each text at the :data:`_RUN_BREAKS` bytes and tokenizes each distinct
    run once: no token holds a break, so a text's tokens are its runs' tokens in order."""

    @cached_property
    def keys(self) -> list[str]:
        return [seg.key for seg in self]

    @cached_property
    def tokens(self) -> tuple[dict[str, int], np.ndarray, np.ndarray, list[set[str]]]:
        """Term ids in order of first use; every row's term ids, row ``i``'s
        being ``ids[offsets[i]:offsets[i + 1]]``; each row's critical keywords."""
        terms: dict[str, int] = {}
        keyword_runs, keywords_of = set(), {}

        def run_ids(run: bytes) -> bytes:  # as bytes, so a row joins its runs' ids
            tokens = _KEYWORD_TOKEN_RE.findall(run.decode("utf-8", "surrogatepass"))
            found = set(map(_keyword, tokens)) - {""}  # a run holds whole characters
            if found:
                keyword_runs.add(run)
                keywords_of[run] = found
            return array("i", [terms.setdefault(piece.casefold(), len(terms))
                               for token in tokens for piece in token.split("-")]).tobytes()
        term_ids = _Memo(run_ids)
        ids, offsets, verdicts = array("i"), array("q", [0]), []
        for seg in self:  # surrogatepass: findall takes a lone surrogate, so the scan does too
            text = seg.embedding_text.encode("utf-8", "surrogatepass")
            runs = text.translate(_RUN_BREAKS).split()
            ids.frombytes(b"".join(map(term_ids.__getitem__, runs)))
            offsets.append(len(ids))
            verdicts.append(set().union(*map(keywords_of.__getitem__,
                                             keyword_runs.intersection(runs))))
        return terms, np.frombuffer(ids, np.intc), np.frombuffer(offsets, np.int64), verdicts


def _scan(segments: Sequence[Segment]) -> _Scan:  # the scan segments carry, or a new one
    return segments if isinstance(segments, _Scan) else _Scan(segments)


def build_vector_index(segments: Sequence[Segment], embedder: Embedder) -> VectorIndex:
    """Embed every augmented segment as a unit vector, skipping with a warning one whose
    vector is zero, not finite or of the wrong dimension. An empty text is skipped without
    one, whatever the embedder: in an ingest it is an undescribed image, which HCA warned of.
    :class:`HashingEmbedder` builds blocks of rows from the shared token scan; others
    embed each non-empty text in turn into a block. No dense matrix of every vector is
    made: each block's non-zero components are taken once the rows are float32, so one
    that underflows there is left out, as a dense float32 store would read it as 0."""
    scan = _scan(segments)
    dim, rows = embedder.dim, []
    small = np.min_scalar_type(dim - 1)  # dimensions as numpy sorts them fastest, stably
    pieces = [(np.zeros(0, np.int32), np.zeros(0, small), np.zeros(0, np.float32))]

    def keep(block: np.ndarray, block_rows: list[int]) -> None:  # unit float32 vectors
        ordinals, dims = np.divmod(np.flatnonzero(block != 0), dim)  # -0.0 too: it adds 0
        pieces.append((ordinals.astype(np.int32) + len(rows), dims.astype(small),
                       block[ordinals, dims]))
        rows.extend(block_rows)

    if type(embedder) is HashingEmbedder:
        terms, ids, offsets, _ = scan.tokens
        codes = np.fromiter(map(embedder._code, terms), np.intp, len(terms))
        for lo in range(0, len(scan), 1024):  # blocks bound the temporary arrays
            bounds = offsets[lo:lo + 1025]
            block = embedder._vectors(codes[ids[bounds[0]:bounds[-1]]], np.diff(bounds))
            norms = np.sqrt([row.dot(row) for row in block])[:, None]  # unit_vector's, per row
            kept = np.flatnonzero(norms)
            keep(np.divide(block[kept], norms[kept], out=np.empty((len(kept), dim), np.float32),
                           casting="same_kind"), (kept + lo).tolist())
            for i in np.flatnonzero(norms == 0).tolist():
                if scan[lo + i].embedding_text:
                    log.warning("segment %s: vector is zero (no embeddable text); skipped from "
                                "vector index", scan.keys[lo + i])
    else:
        block, block_rows = np.empty((1024, dim), dtype=np.float32), []
        for row, seg in enumerate(scan):
            if not (text := seg.embedding_text):
                continue
            vector, problem = unit_vector(embedder.embed(text), dim)
            if vector is None:
                log.warning("segment %s: vector %s; skipped from vector index", seg.key, problem)
                continue
            block[len(block_rows)] = vector
            block_rows.append(row)
            if len(block_rows) == len(block):
                keep(block, block_rows)
                block_rows = []
        keep(block[:len(block_rows)], block_rows)
    ordinals, dims, values = map(list, zip(*pieces))  # joined one column at a time (peak RSS)
    pieces.clear()  # ``keep`` holds the list, so each column's pieces go once it is joined
    dims = np.concatenate(dims)
    by_dim = np.argsort(dims, kind="stable")  # the ordinals ascend within each dimension
    offsets = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(dims, minlength=dim), out=offsets[1:])
    ordinals = np.concatenate(ordinals, dtype=_narrowest(len(rows)), casting="unsafe")[by_dim]
    values = np.concatenate(values)[by_dim]
    return VectorIndex(dim=dim, keys=scan.keys, rows=np.array(rows, dtype=np.intp),
                       offsets=offsets, ordinals=ordinals, values=values)


def _invert(terms: list[str], ids: np.ndarray,
            lengths: np.ndarray) -> tuple[InvertedLists, np.ndarray]:
    """Invert rows of term ids (row ``r`` holds the next ``lengths[r]`` of ``ids``): the
    rows (:func:`_narrowest`) holding each of ``terms`` and how often (int32) each holds
    it, from one sort of all (term rank, row) pairs, the terms ranked in sorted order."""
    n = len(lengths)
    order = sorted(range(len(terms)), key=terms.__getitem__)
    rank = np.argsort(order) * n  # the inverse permutation, scaled: each term's pair with row 0
    pairs = rank[ids]  # every pair, built and sorted in place (peak RSS)
    pairs += np.repeat(np.arange(n, dtype=np.min_scalar_type(n)), lengths)
    pairs.sort()
    starts = np.ones(len(pairs) + 1, bool)  # where each run of equal pairs starts, and the end
    np.not_equal(pairs[1:], pairs[:-1], out=starts[1:-1])
    pairs = pairs[starts[:-1]]  # each pair once, and the sorted copy freed before counting
    bounds = np.flatnonzero(starts)
    counts = np.subtract(bounds[1:], bounds[:-1], out=np.empty(len(bounds) - 1, np.int32))
    offsets = np.searchsorted(pairs, np.arange(len(terms) + 1, dtype=np.int64) * n)
    rows = np.remainder(pairs, max(n, 1), out=pairs).astype(_narrowest(n))
    return InvertedLists([terms[i] for i in order], offsets, rows), counts


def build_bm25_index(segments: Sequence[Segment], k1: float = DEFAULT_K1,
                     b: float = DEFAULT_B) -> Bm25Index:
    """Inverted index with term counts over the shared token scan."""
    scan = _scan(segments)
    terms, ids, offsets, _ = scan.tokens
    postings, tf = _invert(list(terms), ids, np.diff(offsets))
    return Bm25Index(k1=k1, b=b, keys=scan.keys, postings=postings, tf=tf)


def _idf(index: Bm25Index, n: int) -> float:  # n: the rows holding the term
    return math.log(1.0 + (len(index.keys) - n + 0.5) / (n + 0.5))


def _length_norm(index: Bm25Index, dl: int) -> float:
    ratio = dl / index.avgdl if index.avgdl > 0 else 0.0
    return 1.0 - index.b + index.b * ratio


def bm25_score(index: Bm25Index, query: str, key: str) -> float:
    """Okapi BM25 score of one segment against the query.

    IDF uses the ln(1 + (N - n + 0.5)/(n + 0.5)) variant, which never goes
    negative; query terms are summed with multiplicity. This is the scalar
    oracle that :func:`bm25_route` matches bit for bit.
    """
    try:
        row = index.keys.index(key)
    except ValueError:
        raise KeyError(f"segment key not indexed: {key}") from None
    norm = _length_norm(index, int(index.lengths[row]))
    score = 0.0
    for token in tokenize(query):
        lo, hi = index.postings.span(token)
        hit = np.flatnonzero(index.postings.rows[lo:hi] == row)
        if hit.size == 0:
            continue
        freq = int(index.tf[lo + hit[0]])
        score += _idf(index, hi - lo) * (freq * (index.k1 + 1.0)) / (freq + index.k1 * norm)
    return score


def bm25_route(index: Bm25Index, query: str) -> np.ndarray:
    """BM25 score of every row (0.0 where nothing matches), as float64.

    Bit-identical to :func:`bm25_score` per key: each query token, repeats
    included, adds its contribution (kept in ``index.contributions``; an absent
    term is not stored) to the rows holding it. One ``np.bincount`` adds them in
    query-token order, the order of one add per token.
    """
    memo, rows, values = index.contributions, [], []
    for token in tokenize(query):
        lo, hi = index.postings.span(token)  # an absent term adds to no row
        if lo < hi:
            rows.append(index.postings.rows[lo:hi])
            if token not in memo:
                tf, idf = index.tf[lo:hi], _idf(index, hi - lo)
                memo[token] = idf * (tf * (index.k1 + 1.0)) / (tf + index.k1 * index.norm[rows[-1]])
            values.append(memo[token])
    if not rows:  # bincount of nothing would be int64
        return np.zeros(len(index.keys))
    return np.bincount(np.concatenate(rows), np.concatenate(values), len(index.keys))


def bm25_scores(index: Bm25Index, query: str) -> dict[str, float]:
    """:func:`bm25_route` by key."""
    return dict(zip(index.keys, bm25_route(index, query).tolist()))


def build_keyword_table(segments: Sequence[Segment],
                        user_keywords: Iterable[str] | None = None) -> KeywordTable:
    """:func:`extract_keywords` of every segment (the token scan's verdicts), inverted."""
    scan, user = _scan(segments), _user_words(user_keywords)  # the dictionary once, not per row
    found = [_with_user_keywords(words, seg.embedding_text, user)
             for seg, words in zip(scan, scan.tokens[3])]
    ids: dict[str, int] = {}
    codes = np.fromiter((ids.setdefault(w, len(ids)) for words in found for w in words), np.intp)
    rows, _ = _invert(list(ids), codes, np.fromiter(map(len, found), np.intp))
    return KeywordTable(scan.keys, rows)


class StoredSegments(Sequence[Segment]):
    """Segments of a saved index, decoded from their JSON line when read.

    ``keys`` is the segment key order; reading row ``i`` decodes a fresh
    :class:`Segment` from ``blob[offsets[i]:offsets[i + 1]]``, so a query decodes only
    the rows it shows, deriving the fields :func:`_segment_line` leaves out.
    """

    def __init__(self, keys: list[str], blob: mmap.mmap | memoryview, offsets: np.ndarray):
        self.keys, self._blob, self._offsets = keys, blob, offsets

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        row = range(len(self))[index]  # list semantics, IndexError included
        if isinstance(index, slice):
            return [self[i] for i in row]
        try:
            fields = json.loads(self._blob[self._offsets[row]:self._offsets[row + 1]])
            if "doc_id" not in fields:  # the ids are the key's two parts
                fields["doc_id"], _, fields["segment_id"] = self.keys[row].partition("#")
            if "parent_path" in fields:  # the path then ends in the chapter's HCA label
                fields["metadata_path"] = fields.pop("parent_path") + [
                    f"{fields['chapter_number']} {fields['title']}".strip()]
            seg = Segment(**fields)
            if "embedding_text" not in fields:
                seg.embedding_text = path_text(seg.metadata_path, seg.content)
        except (TypeError, ValueError, LookupError, AttributeError) as exc:  # not a segment
            raise IndexFormatError(f"segment row {row} is not a segment: {exc}") from exc
        if seg.key != self.keys[row]:
            raise IndexFormatError(f"segment row {row} holds {seg.key!r}, not {self.keys[row]!r}")
        return seg

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


@dataclass
class IndexBundle:
    """Everything a query needs: the three indices plus segment payloads.

    The segments are the ranking universe, in key order: row ``i`` of every
    index is ``keys[i]``, the ``i``-th key in sorted order. Construction raises
    :class:`InconsistentIndexError` unless the keys strictly ascend, every
    index's ``keys`` is that order, and the vector rows are ascending rows of
    it (some segments have no vector).
    """

    vectors: VectorIndex
    bm25: Bm25Index
    keywords: KeywordTable
    segments: Sequence[Segment]
    embedder_spec: dict
    user_keywords: list[str] = field(default_factory=list)
    keys: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.segments, StoredSegments):
            keys = self.keys = self.segments.keys
        else:
            keys = self.keys = [seg.key for seg in self.segments]
        if not all(map(str.__lt__, keys, keys[1:])):
            dupes = sorted({a for a, b in zip(keys, keys[1:]) if a == b})
            if dupes:
                raise InconsistentIndexError(f"duplicate segment keys: {dupes}")
            row = next(row for row in range(1, len(keys)) if keys[row] < keys[row - 1])
            raise InconsistentIndexError(f"segments are not in key order: row {row} is "
                                         f"{keys[row]!r}, after {keys[row - 1]!r}")
        for name, index in (("vector index", self.vectors), ("bm25 index", self.bm25),
                            ("keyword table", self.keywords)):
            if index.keys != keys:
                pairs = enumerate(zip_longest(index.keys, keys))
                row, (own, seg) = next((row, pair) for row, pair in pairs if pair[0] != pair[1])
                raise InconsistentIndexError(f"{name} is not in segment order: row {row} is "
                                             f"{seg!r} in the segments, {own!r} in the {name}")
        _check_rows("vector index", self.vectors.rows, len(keys))


def build_indices(segments: Sequence[Segment], embedder: Embedder, k1: float = DEFAULT_K1,
                  b: float = DEFAULT_B, user_keywords: Iterable[str] | None = None) -> IndexBundle:
    """Build all three substrates over one augmented segment list, sorted by key,
    and one token scan."""
    scan = _Scan(sorted(segments, key=attrgetter("key")))  # decodes stored segments once
    user = sorted(set(_user_words(user_keywords)))
    return IndexBundle(
        vectors=build_vector_index(scan, embedder),
        bm25=build_bm25_index(scan, k1=k1, b=b),
        keywords=build_keyword_table(scan, user),
        segments=list(scan),  # not the scan, which is freed on return
        embedder_spec=embedder.spec(),
        user_keywords=user,
    )


def _embedder_spec_problem(spec: dict) -> str:
    """Why :func:`make_embedder` refuses ``spec``, or "" when it accepts it."""
    kind = spec.get("kind", "hash")
    if kind not in ("hash", "subprocess"):
        return f"unknown embedder kind: {kind!r}"
    dim = spec.get("dim", DEFAULT_DIM)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        return f"embedder 'dim' must be an integer >= 1, got {dim!r}"
    if kind == "subprocess":
        missing = sorted({"command", "dim"} - spec.keys())
        if missing:
            return f"subprocess embedder spec lacks {missing}"
        return _command_problem("embedder", spec["command"])
    return ""


def _command_problem(role: str, command: object) -> str:  # the embedder's and captioner's rule
    if isinstance(command, list) and command and all(isinstance(part, str) for part in command):
        return ""
    return f"subprocess {role} 'command' must be a non-empty list of strings"


def make_embedder(spec: dict) -> Embedder:
    """Instantiate an embedder from its descriptor, as an index's header stores it."""
    problem = _embedder_spec_problem(spec)
    if problem:
        raise ValueError(problem)
    if spec.get("kind", "hash") == "hash":
        return HashingEmbedder(dim=spec.get("dim", DEFAULT_DIM))
    from . import plugins

    return plugins.SubprocessEmbedder(command=list(spec["command"]), dim=spec["dim"])


# Built once, not per call as json.dumps would; _segment_line writes with its escaper, _quote.
_COMPACT_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_quote = json.encoder.encode_basestring


def _json_bytes(payload: object) -> bytes:
    return (_COMPACT_JSON.encode(payload) + "\n").encode("utf-8")


def _crc32(data: mmap.mmap, end: int) -> int:
    """The crc32 of ``data[:end]``, summed a 1 MiB window at a time; each window is then
    dropped (``MADV_DONTNEED``, where it exists), so none of the file stays resident."""
    crc, drop = 0, getattr(mmap, "MADV_DONTNEED", None)
    with memoryview(data) as view:
        for lo in range(0, end, _WINDOW):
            crc = zlib.crc32(view[lo:min(lo + _WINDOW, end)], crc)
            if drop is not None:
                data.madvise(drop, lo, _WINDOW)
    return crc


def _segment_line(seg: Segment, quoted: _Memo) -> bytes:
    """``seg``'s line as :data:`_COMPACT_JSON` writes it, without the ids when ``doc_id``
    holds no ``#``, a last path element that is the chapter's HCA label (writing the rest
    as ``parent_path``) or an ``embedding_text`` that :func:`path_text` gives: each is
    derived when read. A field not of its annotated type raises ``TypeError``. ``quoted``,
    one ``_Memo(_quote)`` per save, quotes the short fields; no body enters it."""
    q, level, path, text = quoted.__getitem__, seg.level, seg.metadata_path, seg.embedding_text
    if type(level) is bool or not isinstance(path, list):  # the encoder writes a bool as true
        raise TypeError(f"segment {seg.key}: not an int level or list path: {level!r}, {path!r}")
    text_field = "" if text == path_text(path, seg.content) else f'"embedding_text":{_quote(text)},'
    ids = f'"doc_id":{q(seg.doc_id)},', f'"segment_id":{q(seg.segment_id)},'  # type-checked
    doc_id, segment_id = ids if "#" in seg.doc_id else ("", "")  # or the key parts give them
    labelled = path[-1:] == [f"{seg.chapter_number} {seg.title}".strip()]
    path_field, path = ("parent_path", path[:-1]) if labelled else ("metadata_path", path)
    return (f'{{"chapter_number":{q(seg.chapter_number)},"content":{_quote(seg.content)},'
            f'{doc_id}{text_field}"kind":{q(seg.kind)},"level":{int.__repr__(level)},'
            f'"{path_field}":[{",".join(map(q, path))}],{segment_id}"title":{q(seg.title)}}}\n'
            ).encode("utf-8")


def _write_index(bundle: IndexBundle, f) -> dict:
    """Write ``bundle`` to the binary file ``f``: the segment lines from offset 0, each of
    :data:`_ARRAYS` at the next multiple of 8 bytes, the header, its length and the trailer,
    whose crc32 is summed as the bytes before it are written. Returns the header."""
    crc = 0

    def put(data: bytes | np.ndarray) -> int:  # an array is written from its buffer
        nonlocal crc
        crc = zlib.crc32(data, crc)
        return f.write(data)

    quoted = _Memo(_quote)
    lengths = [put(_segment_line(seg, quoted)) for seg in bundle.segments]  # no heap blob
    vectors, tf, rows = bundle.vectors, bundle.bm25.tf, _narrowest(len(bundle.keys))
    postings, keywords = bundle.bm25.postings, bundle.keywords.rows
    stored = {"vector_rows": (vectors.rows, rows), "vector_offsets": (vectors.offsets, "<i8"),
              "vector_ordinals": (vectors.ordinals, _narrowest(len(vectors.rows))),
              "vector_values": (vectors.values, "<f4"),
              "postings_offsets": (postings.offsets, "<i8"), "postings_rows": (postings.rows, rows),
              "postings_tf": (tf, _narrowest(int(tf.max(initial=0)))),
              "keywords_offsets": (keywords.offsets, "<i8"), "keywords_rows": (keywords.rows, rows),
              "segment_offsets": (np.cumsum([0] + lengths), "<i8")}
    arrays, end = {}, sum(lengths)
    for name, (values, dtype) in stored.items():
        array = np.ascontiguousarray(values, dtype)
        end += put(bytes(-end % 8))
        arrays[name] = [dtype, end, len(array)]
        end += put(array)
    header = {"format_version": FORMAT_VERSION, "k1": bundle.bm25.k1, "b": bundle.bm25.b,
              "embedder": bundle.embedder_spec, "user_keywords": bundle.user_keywords,
              "keys": bundle.keys, "postings_terms": postings.terms,
              "keywords_terms": keywords.terms, "lines": sum(lengths), "arrays": arrays}
    encoded = _json_bytes(header)
    put(encoded + len(encoded).to_bytes(8, "little"))
    f.write(crc.to_bytes(4, "little") + _MAGIC)
    return header


def _older_index(directory: Path) -> int | None:
    """The integer ``format_version`` other than this one's in ``directory``'s
    ``manifest.json``, which an index of format 9 or older holds; else None."""
    try:
        version = json.loads((directory / _OLD_MANIFEST).read_bytes()).get("format_version")
    except (OSError, ValueError, AttributeError):  # no manifest, not JSON, not an object
        return None
    return version if type(version) is int and version != FORMAT_VERSION else None


def save_index(bundle: IndexBundle, path: str | Path) -> dict:
    """Persist the bundle to a directory (that a symlinked ``path`` names); returns the
    header. The file is written to ``.index.hiret.tmp`` and fsynced, and its rename onto
    :data:`INDEX_FILE` commits the save (the directory is then fsynced): one that raises
    or is killed before it leaves the previous index (or none) loadable. A committed save
    removes every other entry, an older index's ``manifest.json`` last; a failed one every
    entry it made and its temporary, and the directory if it made it. A removal that fails
    is logged, and keeps that manifest. Any other entry than the file and its temporary raises
    :class:`IndexFormatError`, unless the directory is an index of an older format."""
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_dir():
        raise IndexFormatError(f"refusing to replace {target}: it is not a directory")
    made, committed = not target.exists(), False
    target.mkdir(parents=True, exist_ok=True)
    temporary, before = target / f".{INDEX_FILE}.tmp", set(os.listdir(target))
    stray = sorted(before - {INDEX_FILE, temporary.name})
    if stray and _older_index(target) is None:
        raise IndexFormatError(f"refusing to replace {target}: it holds {stray}, "
                               "which are not index files")
    try:
        with open(temporary, "wb") as f:
            header = _write_index(bundle, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(temporary, target / INDEX_FILE)  # a new inode: loaded maps keep the old
        committed = True
        directory = os.open(target, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    finally:  # committed, or failing already: a removal cannot fail the save
        keep = {INDEX_FILE} if committed else before - {temporary.name}
        # an older index's manifest goes last: until then the directory is still that index
        names = sorted(set(os.listdir(target)) - keep, key=lambda n: (n == _OLD_MANIFEST, n))
        leftovers = [target / name for name in names]
        if made and not committed:
            leftovers.append(target)  # emptied by then
        failed = False
        for leftover in leftovers:
            if failed and leftover.name == _OLD_MANIFEST:
                break
            try:  # concurrent saves to one directory are not supported
                (os.rmdir if leftover == target else os.unlink)(leftover)
            except OSError as exc:
                failed = True
                log.warning("could not remove %s: %s", leftover, exc)
    return header


def _checked_header(file: Path, data: mmap.mmap) -> dict:
    """The header of the index file ``file``, mapped as ``data``, once the trailer's magic
    and crc32 match and the header holds every field :func:`load_index` reads, each array
    a view it can take."""
    size = len(data)
    if size < _TAIL or data[-8:] != _MAGIC:
        raise IndexFormatError(f"index file {file} does not end in an index's magic")
    if _crc32(data, size - 12) != int.from_bytes(data[-12:-8], "little"):
        raise IndexFormatError(f"index file {file} does not match its crc32")
    start = size - _TAIL - int.from_bytes(data[-_TAIL:-12], "little")
    try:
        if start < 0:
            raise ValueError("the header's length runs past the start of the file")
        header = json.loads(data[start:size - _TAIL])
    except ValueError as exc:
        raise IndexFormatError(f"corrupt index file {file}: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format_version {version!r} (expected {FORMAT_VERSION})"
        )
    problem = _header_problem(header, start)
    if problem:
        raise IndexFormatError(f"index file {file}: {problem}")
    return header


def _header_problem(header: dict, start: int) -> str:
    """Why :func:`load_index` cannot read ``header``, which starts at offset ``start``;
    "" when it can."""
    for name, kind in _HEADER_FIELDS.items():
        if isinstance(header.get(name), bool) or not isinstance(header.get(name), kind):
            return f"{name!r} is missing or mistyped"
    for name in ("user_keywords", "keys", "postings_terms", "keywords_terms"):
        if not set(map(type, words := header[name])) <= {str}:
            return f"{name!r} must be a list of strings"
        if name.endswith("_terms") and not all(map(str.__lt__, words, words[1:])):
            return f"{name!r} must hold distinct strings in sorted order"
    if not 0 <= header["lines"] <= start:
        return f"its {header['lines']} bytes of segment lines do not end before the header"
    for name, dtypes in _ARRAYS.items():
        entry = header["arrays"].get(name)
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(n) is int for n in entry[1:])):
            return f"arrays[{name!r}] is not a [dtype, offset, count]"
        if entry[0] not in dtypes:
            return f"arrays[{name!r}] holds {entry[0]!r}, expected {' or '.join(dtypes)}"
        if entry[1] % 8:
            return f"arrays[{name!r}] starts at {entry[1]}, not at a multiple of 8"
        if not 0 <= entry[1] <= entry[1] + entry[2] * np.dtype(entry[0]).itemsize <= start:
            return f"arrays[{name!r}] does not lie before the header"
    return _embedder_spec_problem(header["embedder"])


def _check_offsets(name: str, offsets: np.ndarray, count: int, end: int,
                   empty: bool = False) -> None:
    """Raise :class:`IndexFormatError` unless ``offsets`` splits ``end`` entries into
    ``count`` parts, each non-empty unless ``empty``."""
    if (offsets.shape != (count + 1,) or offsets[0] != 0 or offsets[-1] != end
            or np.any(np.diff(offsets) < (0 if empty else 1))):
        parts = "parts" if empty else "non-empty parts"
        raise IndexFormatError(f"{name} does not split {end} entries into {count} {parts}")


def _check_rows(name: str, rows: np.ndarray, count: int,
                offsets: np.ndarray | None = None, of: str = "segments") -> None:
    """Raise :class:`InconsistentIndexError` unless ``rows`` are rows of ``count``
    segments (or other items ``of`` names), strictly ascending within each list
    ``rows[offsets[i]:offsets[i + 1]]`` (without ``offsets``, one list)."""
    if rows.size and (rows.min() < 0 or rows.max() >= count):
        raise InconsistentIndexError(f"{name} holds rows outside the {count} {of}")
    stalls = rows[1:] <= rows[:-1]  # stalls[j]: rows[j + 1] does not ascend from rows[j]
    if offsets is not None:  # unless rows[j + 1] begins a list
        stalls[offsets[(offsets > 0) & (offsets < len(rows))] - 1] = False
    if stalls.any():
        raise InconsistentIndexError(f"{name} holds a list of rows that is not strictly "
                                     "ascending")


def load_index(path: str | Path) -> IndexBundle:
    """Load a bundle persisted by :func:`save_index`; round-trip is exact.

    The index file is mapped once and must end in the magic and the crc32 of the bytes
    before it; each array is a view of that map, as stored, and once the bundle is built
    the map's pages are dropped. Segments are decoded when read (:class:`StoredSegments`).
    Raises :class:`IndexFormatError` for a missing, corrupt, other-version or inconsistent
    index.
    """
    directory = Path(path)
    file = directory / INDEX_FILE
    try:
        with open(file, "rb") as f:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        version = _older_index(directory)
        raise IndexFormatError(f"no index at {file}" if version is None else
                               f"unsupported index format_version {version} "
                               f"(expected {FORMAT_VERSION})") from None
    except (OSError, ValueError) as exc:  # ValueError: an empty file, which cannot be mapped
        raise IndexFormatError(f"cannot read index file {file}: {exc}") from exc
    try:
        header = _checked_header(file, data)
    except IndexFormatError:
        data.close()  # not kept open by the traceback
        raise
    keys = header["keys"]

    def array(name: str) -> np.ndarray:
        dtype, offset, count = header["arrays"][name]
        return np.frombuffer(data, dtype, count, offset)

    segment_offsets = array("segment_offsets")
    _check_offsets("segment_offsets", segment_offsets, len(keys), header["lines"])

    def inverted(stem: str) -> InvertedLists:
        offsets, rows = array(f"{stem}_offsets"), array(f"{stem}_rows")
        _check_offsets(f"{stem}_offsets", offsets, len(header[f"{stem}_terms"]), len(rows))
        _check_rows(f"{stem}_rows", rows, len(keys), offsets)
        return InvertedLists(header[f"{stem}_terms"], offsets, rows)

    def vectors() -> VectorIndex:
        dim = header["embedder"].get("dim", DEFAULT_DIM)
        rows = array("vector_rows").astype(np.intp)
        offsets, ordinals = array("vector_offsets"), array("vector_ordinals")
        _check_offsets("vector_offsets", offsets, dim, len(ordinals), empty=True)
        _check_rows("vector_ordinals", ordinals, len(rows), offsets, of="vectors")
        return VectorIndex(dim=dim, keys=keys, rows=rows, offsets=offsets, ordinals=ordinals,
                           values=array("vector_values"))

    try:
        bundle = IndexBundle(
            vectors=vectors(),
            bm25=Bm25Index(k1=float(header["k1"]), b=float(header["b"]), keys=keys,
                           postings=inverted("postings"), tf=array("postings_tf")),
            keywords=KeywordTable(keys, inverted("keywords")),
            segments=StoredSegments(keys, data, segment_offsets),
            embedder_spec=dict(header["embedder"]),
            user_keywords=list(header["user_keywords"]),
        )
    except ValueError as exc:  # shapes that do not fit together
        raise IndexFormatError(f"corrupt index {directory}: {exc}") from exc
    if hasattr(mmap, "MADV_DONTNEED"):  # a query faults back the pages it reads
        data.madvise(mmap.MADV_DONTNEED)
    return bundle
