"""Retrieval substrates: hashed vector index, BM25 index, keyword table.

All three are built from one tokenization of the augmented ``embedding_text``
of each segment, keyed by ``doc_id#segment_id``. The segment list is the one
source of the key order: every index's ``keys`` is that order and its arrays
hold segment rows (the vector matrix holds a unit vector per embeddable segment,
at ascending ``rows``). An :class:`IndexBundle` checks at construction that the
three indices are over its keys.

An index persists to a directory as ``.npy`` arrays, a few small JSON files and
one blob of per-segment JSON lines, described by a manifest that records each
file's size and sha256 (format 4: each fact once; postings and keywords share
one inverted-list encoding). Saving is atomic and deterministic: the files go
into a sibling directory that then replaces the old index, and re-saving an
unchanged index reproduces them byte for byte. Loading checks every file
against the manifest, maps the vector matrix from disk and decodes a segment
only when it is read.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import mmap
import os
import re
import shutil
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, zip_longest
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .corpus import Segment

log = logging.getLogger(__name__)

FORMAT_VERSION = 4
DEFAULT_DIM = 256
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

MANIFEST_FILE = "manifest.json"
# Every file the manifest describes.
INDEX_FILES = (
    "vectors.npy",  # float32 (n_vectors, dim) unit vectors
    "vector_rows.npy",  # <i4 segment row of each vector
    "postings_terms.json",  # sorted BM25 terms
    "postings_offsets.npy",  # <i8 term i holds entries offsets[i]:offsets[i + 1]
    "postings_rows.npy",  # <i4 segment row of each posting entry
    "postings_tf.npy",  # <i4 term count of each posting entry
    "keywords_terms.json",  # sorted critical keywords
    "keywords_offsets.npy",  # <i8 keyword i holds rows offsets[i]:offsets[i + 1]
    "keywords_rows.npy",  # <i4 segment row holding the keyword
    "segment_keys.json",  # segment keys in segment order
    "segments.jsonl",  # one JSON line per segment, UTF-8
    "segment_offsets.npy",  # <i8 segment i is bytes offsets[i]:offsets[i + 1]
)
# The manifest fields load_index reads and the JSON types they hold.
_MANIFEST_FIELDS = {"k1": (int, float), "b": (int, float), "embedder": dict,
                    "user_keywords": list, "files": dict}
# Files of earlier formats; save_index may replace a directory holding them.
_OLD_FORMAT_FILES = ("vectors.bin", "postings.json", "segments.json", "keywords.json",
                     "bm25_lengths.npy")

# Unicode letter/digit runs; underscores and hyphens split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Keyword candidates keep interior hyphens so part numbers survive intact.
_KEYWORD_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
_HAS_LETTER_RE = re.compile(r"[^\W\d_]", re.UNICODE)
_HAS_DIGIT_RE = re.compile(r"\d")


class IndexFormatError(Exception):
    """A persisted index is missing, corrupt, or from another version, or a
    save would replace a directory that is not an index."""


class InconsistentIndexError(IndexFormatError):
    """The indices of a bundle do not describe the same segment universe."""


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens ("CA-IS3641" -> ["ca", "is3641"])."""
    return [t.casefold() for t in _TOKEN_RE.findall(text)]


class Embedder(Protocol):
    """Deterministic text-to-vector interface; equal text, equal vector."""

    dim: int

    def embed(self, text: str) -> np.ndarray: ...

    def spec(self) -> dict: ...


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
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        codes = np.fromiter(map(self._code, tokenize(text)), np.intp)
        return self._vectors(codes, [len(codes)])[0]

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
    """Unit vectors over ``keys``: row ``i`` of the float32 ``(len(rows), dim)``
    matrix is the vector of segment row ``rows[i]``; ``rows`` ascends."""

    dim: int
    keys: list[str] = field(default_factory=list)
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    matrix: np.ndarray | None = None  # None: no vectors

    def __post_init__(self):
        if self.matrix is None:
            self.matrix = np.zeros((0, self.dim), dtype=np.float32)
        if self.matrix.shape != (len(self.rows), self.dim):
            raise ValueError(
                f"vector matrix shape {self.matrix.shape} != ({len(self.rows)}, {self.dim})"
            )

    @property
    def entries(self) -> dict[str, np.ndarray]:
        """Each vector's segment key to its row of the matrix (views, not copies)."""
        return {self.keys[row]: vector for row, vector in zip(self.rows.tolist(), self.matrix)}


@dataclass(eq=False)
class Postings:
    """The rows holding one term and the term's count in each of them."""

    rows: np.ndarray
    tf: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(eq=False)
class Bm25Index:
    """Okapi BM25 statistics over segment embedding_text tokens.

    Row ``i`` is segment ``keys[i]`` with ``lengths[i]`` tokens; each term
    maps to the :class:`Postings` of the rows holding it. ``corpus_size``,
    ``avgdl`` and each row's length ``norm`` are derived.
    """

    k1: float
    b: float
    keys: list[str] = field(default_factory=list)
    lengths: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    postings: dict[str, Postings] = field(default_factory=dict)
    corpus_size: int = field(init=False)
    avgdl: float = field(init=False)
    norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.k1 > 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.lengths.shape != (len(self.keys),):
            raise ValueError(f"{len(self.lengths)} lengths for {len(self.keys)} keys")
        self.corpus_size = len(self.keys)
        total = int(self.lengths.sum())
        self.avgdl = total / self.corpus_size if self.corpus_size else 0.0
        ratio = self.lengths / self.avgdl if self.avgdl > 0 else np.zeros(self.corpus_size)
        self.norm = 1.0 - self.b + self.b * ratio


@dataclass(eq=False)
class KeywordTable:
    """Critical keywords as inverted lists: ``rows`` maps each case-folded
    keyword to the ascending ``intp`` rows, of the key order ``keys``, holding it."""

    keys: list[str]
    rows: dict[str, np.ndarray] = field(default_factory=dict)


def _keyword(token: str) -> str:
    """The critical-keyword rule: the case-folded token if it mixes letters
    and digits, else ``""``. It catches part-number-shaped identifiers
    ("CA-IS3641", "iPhone15") that vector similarity tends to blur together."""
    if _HAS_LETTER_RE.search(token) and _HAS_DIGIT_RE.search(token):
        return token.casefold()
    return ""


def _with_user_keywords(found: set[str], text: str, user_keywords: Iterable[str]) -> set[str]:
    """``found`` less the no-keyword verdict "", plus the user keywords in ``text``."""
    found.discard("")
    words = [word for word in (raw.casefold().strip() for raw in user_keywords) if word]
    folded_text = text.casefold() if words else ""
    found.update(word for word in words if word in folded_text)
    return found


def extract_keywords(text: str, user_keywords: Iterable[str] | None = None) -> set[str]:
    """Tokens of ``text`` that mix letters and digits, plus the
    user-dictionary keywords it contains, all case-folded."""
    return _with_user_keywords(set(map(_keyword, _KEYWORD_TOKEN_RE.findall(text))), text,
                               user_keywords or ())


class _Scan(list):
    """Segments, their keys and, once a builder reads :attr:`tokens`, the one pass of
    ``_KEYWORD_TOKEN_RE`` over their embedding_text that all three builders share. A
    keyword token's ``-`` pieces are its ``_TOKEN_RE`` tokens, its term ids once folded."""

    @cached_property
    def keys(self) -> list[str]:
        return [seg.key for seg in self]

    @cached_property
    def tokens(self) -> tuple[dict[str, int], np.ndarray, np.ndarray, list[set[str]]]:
        """Term ids in order of first use; every row's term ids, row ``i``'s
        being ``ids[offsets[i]:offsets[i + 1]]``; each row's verdict set."""
        terms: dict[str, int] = {}
        term_ids = _Memo(lambda token: [terms.setdefault(piece.casefold(), len(terms))
                                        for piece in token.split("-")])
        verdict = _Memo(_keyword)
        ids, offsets, verdicts = array("i"), array("q", [0]), []
        for seg in self:
            tokens = _KEYWORD_TOKEN_RE.findall(seg.embedding_text)
            ids.extend(chain.from_iterable(map(term_ids.__getitem__, tokens)))
            offsets.append(len(ids))
            verdicts.append(set(map(verdict.__getitem__, tokens)))
        return terms, np.frombuffer(ids, np.intc), np.frombuffer(offsets, np.int64), verdicts


def _scan(segments: Sequence[Segment]) -> _Scan:  # the scan segments carry, or a new one
    return segments if isinstance(segments, _Scan) else _Scan(segments)


def build_vector_index(segments: Sequence[Segment], embedder: Embedder) -> VectorIndex:
    """Embed every augmented segment as a unit vector, skipping one whose vector
    is zero, not finite or of the wrong dimension. :class:`HashingEmbedder` builds
    blocks of rows from the shared token scan; others embed each text in turn."""
    scan = _scan(segments)
    rows = np.empty(len(scan), dtype=np.intp)
    matrix = np.empty((len(scan), embedder.dim), dtype=np.float32)
    n = 0  # vectors kept so far
    if type(embedder) is HashingEmbedder:
        terms, ids, offsets, _ = scan.tokens
        codes = np.fromiter(map(embedder._code, terms), np.intp, len(terms))
        for lo in range(0, len(scan), 1024):  # blocks bound the temporary arrays
            bounds = offsets[lo:lo + 1025]
            block = embedder._vectors(codes[ids[bounds[0]:bounds[-1]]], np.diff(bounds))
            norms = np.sqrt([row.dot(row) for row in block])[:, None]  # unit_vector's, per row
            kept = np.flatnonzero(norms)
            matrix[n:n + len(kept)] = block[kept] / norms[kept]
            rows[n:n + len(kept)] = kept + lo
            n += len(kept)
            for i in np.flatnonzero(norms == 0).tolist():
                log.warning("segment %s: vector is zero (no embeddable text); skipped from "
                            "vector index", scan.keys[lo + i])
    else:
        for row, seg in enumerate(scan):
            vector, problem = unit_vector(embedder.embed(seg.embedding_text), embedder.dim)
            if vector is None:
                log.warning("segment %s: vector %s; skipped from vector index", seg.key, problem)
                continue
            matrix[n], rows[n] = vector, row
            n += 1
    return VectorIndex(dim=embedder.dim, keys=scan.keys, rows=rows[:n], matrix=matrix[:n])


def build_bm25_index(segments: Sequence[Segment], k1: float = DEFAULT_K1,
                     b: float = DEFAULT_B) -> Bm25Index:
    """Inverted index with length statistics over the shared token scan: one
    sort of all (term, row) pairs gives each term's ascending rows and counts."""
    scan = _scan(segments)
    terms, ids, offsets, _ = scan.tokens
    n = len(scan)
    lengths = np.diff(offsets)
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)  # lives through the sort (peak RSS)
    pairs, tf = np.unique(ids * np.int64(n) + rows, return_counts=True)
    bounds = np.searchsorted(pairs, np.arange(len(terms) + 1, dtype=np.int64) * n).tolist()
    rows = np.remainder(pairs, max(n, 1), out=pairs).astype(np.intp, copy=False)
    tf = tf.astype(np.int32)
    postings = {term: Postings(rows[lo:hi], tf[lo:hi])
                for term, lo, hi in zip(terms, bounds, bounds[1:])}
    return Bm25Index(k1=k1, b=b, keys=scan.keys, lengths=lengths, postings=postings)


def _idf(index: Bm25Index, term: str) -> float:
    n = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.corpus_size - n + 0.5) / (n + 0.5))


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
        postings = index.postings.get(token)
        if postings is None:
            continue
        hit = np.flatnonzero(postings.rows == row)
        if hit.size == 0:
            continue
        freq = int(postings.tf[hit[0]])
        score += _idf(index, token) * (freq * (index.k1 + 1.0)) / (freq + index.k1 * norm)
    return score


def bm25_route(index: Bm25Index, query: str) -> np.ndarray:
    """BM25 score of every row (0.0 where nothing matches), as float64.

    Bit-identical to :func:`bm25_score` per key: each query token adds its
    contribution to the rows holding it, in query-token order.
    """
    scores = np.zeros(index.corpus_size)
    for token in tokenize(query):
        postings = index.postings.get(token)
        if postings is None:
            continue
        idf = _idf(index, token)
        rows, tf = postings.rows, postings.tf
        scores[rows] += idf * (tf * (index.k1 + 1.0)) / (tf + index.k1 * index.norm[rows])
    return scores


def bm25_scores(index: Bm25Index, query: str) -> dict[str, float]:
    """:func:`bm25_route` by key."""
    return dict(zip(index.keys, bm25_route(index, query).tolist()))


def build_keyword_table(segments: Sequence[Segment],
                        user_keywords: Iterable[str] | None = None) -> KeywordTable:
    """:func:`extract_keywords` of every segment (the token scan's verdicts), inverted."""
    user = list(user_keywords or [])
    scan = _scan(segments)
    found: dict[str, list[int]] = {}
    for row, (seg, words) in enumerate(zip(scan, scan.tokens[3])):
        for word in _with_user_keywords(words, seg.embedding_text, user):
            found.setdefault(word, []).append(row)
    return KeywordTable(scan.keys, {w: np.array(rows, np.intp) for w, rows in found.items()})


class StoredSegments(Sequence[Segment]):
    """Segments of a saved index, decoded from their JSON line when read.

    ``keys`` is the segment key order; reading row ``i`` decodes a fresh
    :class:`Segment` from ``blob[offsets[i]:offsets[i + 1]]``, so a query
    decodes only the rows it shows.
    """

    def __init__(self, keys: list[str], blob: bytes, offsets: list[int]):
        self.keys = keys
        self._blob = blob
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        row = range(len(self))[index]  # list semantics, IndexError included
        if isinstance(index, slice):
            return [self[i] for i in row]
        seg = Segment(**json.loads(self._blob[self._offsets[row]:self._offsets[row + 1]]))
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

    The segments, in corpus order, are the ranking universe: ``keys`` and
    the arrays derived at construction follow that order. Construction
    raises :class:`InconsistentIndexError` unless the keys are unique, every
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
    row_of: dict[str, int] = field(init=False, repr=False, compare=False)
    key_rank: np.ndarray = field(init=False, repr=False, compare=False)  # lexicographic

    def __post_init__(self):
        if isinstance(self.segments, StoredSegments):
            keys = self.keys = self.segments.keys
        else:
            keys = self.keys = [seg.key for seg in self.segments]
        self.row_of = {key: row for row, key in enumerate(keys)}
        universe = self.row_of.keys()
        if len(universe) != len(keys):
            dupes = sorted(key for key, n in Counter(keys).items() if n > 1)
            raise InconsistentIndexError(f"duplicate segment keys: {dupes}")
        for name, index in (("vector index", self.vectors), ("bm25 index", self.bm25),
                            ("keyword table", self.keywords)):
            if index.keys != keys:
                pairs = enumerate(zip_longest(index.keys, keys))
                row, (own, seg) = next((row, pair) for row, pair in pairs if pair[0] != pair[1])
                raise InconsistentIndexError(f"{name} is not in segment order: row {row} is "
                                             f"{seg!r} in the segments, {own!r} in the {name}")
        _check_rows("vector index", self.vectors.rows, len(keys))
        self.key_rank = np.empty(len(keys), dtype=np.intp)
        self.key_rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))


def build_indices(segments: Sequence[Segment], embedder: Embedder, k1: float = DEFAULT_K1,
                  b: float = DEFAULT_B, user_keywords: Iterable[str] | None = None) -> IndexBundle:
    """Build all three substrates over one augmented segment list and one token scan."""
    scan = _Scan(segments)  # decodes stored segments once, not per index
    user = sorted({kw.casefold().strip() for kw in user_keywords or [] if kw.strip()})
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
    """Instantiate an embedder from its manifest descriptor."""
    problem = _embedder_spec_problem(spec)
    if problem:
        raise ValueError(problem)
    if spec.get("kind", "hash") == "hash":
        return HashingEmbedder(dim=spec.get("dim", DEFAULT_DIM))
    from . import plugins

    return plugins.SubprocessEmbedder(command=list(spec["command"]), dim=spec["dim"])


def _json_bytes(payload: object, indent: int | None = None) -> bytes:
    separators = (",", ": ") if indent else (",", ":")
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=indent,
                      separators=separators)
    return (text + "\n").encode("utf-8")


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.intp)


def _file_entry(path: Path) -> dict:
    """The size and sha256 of the bytes on disk, read back in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
        return {"bytes": f.tell(), "sha256": digest.hexdigest()}


def _write_files(bundle: IndexBundle, directory: Path) -> dict:
    """Write every index file, then the manifest that lists their sizes and
    sha256 digests; returns the manifest."""
    files = {}

    def put(name: str, data: bytes | np.ndarray, dtype: str = "") -> None:  # dtype: as .npy
        with open(directory / name, "wb") as f:
            if dtype:  # np.save writes a file straight from the array's buffer: no heap copy
                np.save(f, np.ascontiguousarray(data, dtype=dtype), allow_pickle=False)
            else:
                f.write(data)
        files[name] = _file_entry(directory / name)

    put("vectors.npy", bundle.vectors.matrix, "<f4")
    put("vector_rows.npy", bundle.vectors.rows, "<i4")
    postings = bundle.bm25.postings
    for stem, lists in (("postings", {term: p.rows for term, p in postings.items()}),
                        ("keywords", bundle.keywords.rows)):  # one inverted-list encoding
        terms = sorted(lists)
        put(f"{stem}_terms.json", _json_bytes(terms))
        put(f"{stem}_offsets.npy", np.cumsum([0] + [len(lists[t]) for t in terms]), "<i8")
        put(f"{stem}_rows.npy", _concat([lists[t] for t in terms]), "<i4")
    put("postings_tf.npy", _concat([postings[term].tf for term in sorted(postings)]), "<i4")
    put("segment_keys.json", _json_bytes(bundle.keys))
    with open(directory / "segments.jsonl", "wb") as f:  # line by line: no blob on the heap
        lengths = [f.write(_json_bytes(vars(seg))) for seg in bundle.segments]
    files["segments.jsonl"] = _file_entry(directory / "segments.jsonl")
    put("segment_offsets.npy", np.cumsum([0] + lengths), "<i8")

    manifest = {
        "format_version": FORMAT_VERSION,
        "k1": bundle.bm25.k1,
        "b": bundle.bm25.b,
        "embedder": bundle.embedder_spec,
        "user_keywords": bundle.user_keywords,
        "files": files,
    }
    (directory / MANIFEST_FILE).write_bytes(_json_bytes(manifest, indent=2))
    return manifest


def save_index(bundle: IndexBundle, path: str | Path) -> dict:
    """Persist the bundle to a directory; returns the manifest written.

    The files are written into a new sibling directory, which then takes
    the place of ``path``: an interrupted save leaves the previous index
    (or none) in place and no partial one. A ``path`` that holds anything
    but index files is refused with :class:`IndexFormatError`.
    """
    target = Path(os.path.abspath(path))
    if target.is_dir():
        known = {MANIFEST_FILE, *INDEX_FILES, *_OLD_FORMAT_FILES}
        stray = sorted(p.name for p in target.iterdir() if p.name not in known)
        if stray:
            raise IndexFormatError(f"refusing to replace {target}: it holds {stray}, "
                                   "which are not index files")
    elif target.exists():
        raise IndexFormatError(f"refusing to replace {target}: it is not a directory")
    target.parent.mkdir(parents=True, exist_ok=True)

    def sibling(tag: str) -> Path:
        return target.with_name(f".{target.name}.{tag}-{os.urandom(4).hex()}")

    staging = sibling("new")
    staging.mkdir()
    try:
        manifest = _write_files(bundle, staging)
        if target.exists():
            old = sibling("old")
            os.rename(target, old)
            try:
                os.rename(staging, target)
            except BaseException:
                os.rename(old, target)
                raise
            shutil.rmtree(old)
        else:
            os.rename(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return manifest


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise IndexFormatError(f"no index manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IndexFormatError(f"corrupt manifest {manifest_path}: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format_version {version!r} (expected {FORMAT_VERSION})"
        )
    for name, kind in _MANIFEST_FIELDS.items():
        if isinstance(manifest.get(name), bool) or not isinstance(manifest.get(name), kind):
            raise IndexFormatError(f"manifest {manifest_path}: {name!r} is missing or mistyped")
    problem = _embedder_spec_problem(manifest["embedder"])
    if not all(isinstance(word, str) for word in manifest["user_keywords"]):
        problem = "'user_keywords' must be a list of strings"
    if problem:
        raise IndexFormatError(f"manifest {manifest_path}: {problem}")
    files = manifest["files"]
    if sorted(files) != sorted(INDEX_FILES):
        raise IndexFormatError(f"manifest {manifest_path} does not list the index files")
    for name, entry in files.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("bytes"), int)
                and isinstance(entry.get("sha256"), str)):
            raise IndexFormatError(f"manifest {manifest_path}: files[{name!r}] needs "
                                   "an int 'bytes' and a str 'sha256'")
    return manifest


def _read_checked(path: Path, entry: dict, mapped: bool = False) -> bytes | mmap.mmap:
    """The bytes of ``path`` once their size and sha256 match ``entry``; with
    ``mapped``, a read-only map of the file, checked without a heap copy."""
    try:
        with open(path, "rb") as f:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if mapped else f.read()
    except (OSError, ValueError) as exc:  # ValueError: an empty file cannot be mapped
        raise IndexFormatError(f"cannot read index file {path}: {exc}") from exc
    if len(data) != entry["bytes"]:
        raise IndexFormatError(
            f"index file {path} holds {len(data)} bytes, the manifest says {entry['bytes']}"
        )
    if hashlib.sha256(data).hexdigest() != entry["sha256"]:
        raise IndexFormatError(f"index file {path} does not match its sha256 in the manifest")
    return data


def _check_offsets(name: str, offsets: np.ndarray, count: int, end: int) -> None:
    if (offsets.shape != (count + 1,) or offsets[0] != 0 or offsets[-1] != end
            or np.any(offsets[1:] < offsets[:-1])):
        raise IndexFormatError(f"{name} does not split {end} entries into {count} parts")


def _check_rows(name: str, rows: np.ndarray, count: int,
                offsets: np.ndarray | None = None) -> None:
    """Raise :class:`InconsistentIndexError` unless ``rows`` are rows of ``count``
    segments, strictly ascending within each list ``rows[offsets[i]:offsets[i + 1]]``
    (without ``offsets``, one list)."""
    if rows.size and (rows.min() < 0 or rows.max() >= count):
        raise InconsistentIndexError(f"{name} holds rows outside the {count} segments")
    stalls = rows[1:] <= rows[:-1]  # stalls[j]: rows[j + 1] does not ascend from rows[j]
    if offsets is not None:  # unless rows[j + 1] begins a list
        stalls[offsets[(offsets > 0) & (offsets < len(rows))] - 1] = False
    if stalls.any():
        raise InconsistentIndexError(f"{name} holds a list of rows that is not strictly "
                                     "ascending")


def load_index(path: str | Path) -> IndexBundle:
    """Load a bundle persisted by :func:`save_index`; round-trip is exact.

    Every file must match the size and sha256 the manifest records. The
    vector matrix is memory-mapped read-only and segments are decoded
    when read (:class:`StoredSegments`). Raises :class:`IndexFormatError`
    for a missing, corrupt, other-version or inconsistent index.
    """
    directory = Path(path)
    manifest = _read_manifest(directory)

    def read(name: str, mapped: bool = False) -> bytes | mmap.mmap:
        return _read_checked(directory / name, manifest["files"][name], mapped)

    def parse(name: str):
        try:
            return json.loads(read(name))
        except ValueError as exc:
            raise IndexFormatError(f"corrupt index file {directory / name}: {exc}") from exc

    def array(name: str, dtype: str, ndim: int = 1, mmap: bool = False) -> np.ndarray:
        data = read(name, mapped=mmap)
        try:
            if mmap:
                loaded = np.asarray(np.load(directory / name, mmap_mode="r", allow_pickle=False))
            else:
                loaded = np.load(io.BytesIO(data), allow_pickle=False)
        except ValueError as exc:
            raise IndexFormatError(f"corrupt index file {directory / name}: {exc}") from exc
        if loaded.dtype != np.dtype(dtype) or loaded.ndim != ndim:
            raise IndexFormatError(f"index file {directory / name} holds {loaded.dtype} "
                                   f"{loaded.ndim}-d data, expected {dtype} {ndim}-d")
        return loaded

    keys = parse("segment_keys.json")
    blob = read("segments.jsonl")
    segment_offsets = array("segment_offsets.npy", "<i8")
    _check_offsets("segment_offsets.npy", segment_offsets, len(keys), len(blob))
    segments = StoredSegments(keys, blob, segment_offsets.tolist())

    def inverted(stem: str):  # (term, lo, hi) spans and the rows, widened to intp once
        terms = parse(f"{stem}_terms.json")
        if not (isinstance(terms, list) and set(map(type, terms)) <= {str}
                and all(map(str.__lt__, terms, terms[1:]))):
            raise IndexFormatError(f"{stem}_terms.json does not hold distinct sorted strings")
        offsets = array(f"{stem}_offsets.npy", "<i8")
        rows = array(f"{stem}_rows.npy", "<i4")
        _check_offsets(f"{stem}_offsets.npy", offsets, len(terms), len(rows))
        _check_rows(f"{stem}_rows.npy", rows, len(keys), offsets)
        return zip(terms, offsets.tolist(), offsets[1:].tolist()), rows.astype(np.intp)

    spans, rows = inverted("postings")
    tf = array("postings_tf.npy", "<i4")
    if len(tf) != len(rows):
        raise IndexFormatError(f"{len(tf)} posting counts for {len(rows)} posting rows")
    postings = {term: Postings(rows[lo:hi], tf[lo:hi]) for term, lo, hi in spans}
    lengths = np.bincount(rows, tf, len(keys)).astype(np.int64)  # exact: integer sums
    spans, rows = inverted("keywords")

    try:
        return IndexBundle(
            vectors=VectorIndex(dim=manifest["embedder"].get("dim", DEFAULT_DIM), keys=keys,
                                rows=array("vector_rows.npy", "<i4").astype(np.intp),
                                matrix=array("vectors.npy", "<f4", ndim=2, mmap=True)),
            bm25=Bm25Index(k1=float(manifest["k1"]), b=float(manifest["b"]), keys=keys,
                           lengths=lengths, postings=postings),
            keywords=KeywordTable(keys, {word: rows[lo:hi] for word, lo, hi in spans}),
            segments=segments,
            embedder_spec=dict(manifest["embedder"]),
            user_keywords=list(manifest["user_keywords"]),
        )
    except ValueError as exc:  # shapes that do not fit together
        raise IndexFormatError(f"corrupt index {directory}: {exc}") from exc
