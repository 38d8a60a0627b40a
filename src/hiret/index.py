"""Retrieval substrates: hashed vector index, BM25 index, keyword table.

All three are built over the augmented ``embedding_text`` of each segment,
keyed by ``doc_id#segment_id``, and persist to a directory as a JSON
manifest, a raw float32 vector blob (5-byte magic ``HIQA1``), JSON postings
and keyword files, and the segment payloads. The segment list is the one
source of the key order: in memory every index is a set of arrays whose
rows follow it (the BM25 and keyword rows are the segment rows; the vector
matrix holds a row per embeddable segment). An :class:`IndexBundle` checks
at construction that the three indices cover exactly its keys. Saving is
deterministic: re-saving an unchanged index reproduces the files byte for
byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Protocol

import numpy as np

from .corpus import Segment

log = logging.getLogger(__name__)

FORMAT_VERSION = 2
VECTOR_MAGIC = b"HIQA1"
DEFAULT_DIM = 256
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

MANIFEST_FILE = "manifest.json"
VECTORS_FILE = "vectors.bin"
POSTINGS_FILE = "postings.json"
KEYWORDS_FILE = "keywords.json"
SEGMENTS_FILE = "segments.json"

# Unicode letter/digit runs; underscores and hyphens split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Keyword candidates keep interior hyphens so part numbers survive intact.
_KEYWORD_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
_HAS_LETTER_RE = re.compile(r"[^\W\d_]", re.UNICODE)
_HAS_DIGIT_RE = re.compile(r"\d")


class IndexFormatError(Exception):
    """A persisted index is missing, corrupt, or from another version."""


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


class HashingEmbedder:
    """Signed feature-hashed bag of words, L2-normalized.

    Each token is hashed to one of ``dim`` buckets with a +/-1 sign; the
    bucket and sign come from a keyed blake2b digest, so equal text always
    embeds identically across processes. Zero-token input yields the zero
    vector, the unembeddable marker.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        tokens = tokenize(text)
        for token in tokens:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=5).digest()
            bucket = int.from_bytes(digest[:4], "little") % self.dim
            vec[bucket] += 1.0 if digest[4] & 1 else -1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def spec(self) -> dict:
        return {"kind": "hash", "dim": self.dim}


def is_embeddable(vector: np.ndarray) -> bool:
    return bool(np.any(vector))


@dataclass(eq=False)
class VectorIndex:
    """Unit vectors over embeddable segments: row ``i`` of the float32
    ``(len(keys), dim)`` matrix is the vector of segment ``keys[i]``."""

    dim: int
    keys: list[str] = field(default_factory=list)
    matrix: np.ndarray | None = None  # None: no vectors

    def __post_init__(self):
        if self.matrix is None:
            self.matrix = np.zeros((0, self.dim), dtype=np.float32)
        if self.matrix.shape != (len(self.keys), self.dim):
            raise ValueError(
                f"vector matrix shape {self.matrix.shape} != ({len(self.keys)}, {self.dim})"
            )

    @property
    def entries(self) -> dict[str, np.ndarray]:
        """Each key's row of the matrix (views, not copies)."""
        return dict(zip(self.keys, self.matrix))


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
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.lengths.shape != (len(self.keys),):
            raise ValueError(f"{len(self.lengths)} lengths for {len(self.keys)} keys")
        self.corpus_size = len(self.keys)
        total = int(self.lengths.sum())
        self.avgdl = total / self.corpus_size if self.corpus_size else 0.0
        ratio = self.lengths / self.avgdl if self.avgdl > 0 else np.zeros(self.corpus_size)
        self.norm = 1.0 - self.b + self.b * ratio


@dataclass
class KeywordTable:
    """Critical keywords per segment, case-folded.

    ``rows`` maps each keyword to the positions, in ``keywords`` order, of
    the segments that hold it; it is derived at construction.
    """

    keywords: dict[str, set[str]] = field(default_factory=dict)
    rows: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        found: dict[str, list[int]] = {}
        for row, words in enumerate(self.keywords.values()):
            for word in words:
                found.setdefault(word, []).append(row)
        self.rows = {word: np.array(rows, dtype=np.intp) for word, rows in found.items()}


class KeywordExtractor(Protocol):
    def extract(self, text: str) -> set[str]: ...


class PatternKeywordExtractor:
    """Default critical-keyword rule: tokens mixing letters and digits.

    Catches part-number-shaped identifiers ("CA-IS3641", "iPhone15") that
    vector similarity tends to blur together. Stand-in for a trained named
    entity detector behind the same interface.
    """

    def extract(self, text: str) -> set[str]:
        found: set[str] = set()
        for token in _KEYWORD_TOKEN_RE.findall(text):
            if _HAS_LETTER_RE.search(token) and _HAS_DIGIT_RE.search(token):
                found.add(token.casefold())
        return found


def extract_keywords(
    text: str,
    extractor: KeywordExtractor | None = None,
    user_keywords: Iterable[str] | None = None,
) -> set[str]:
    """Union of extractor hits and user-dictionary keywords present in text."""
    extractor = extractor or PatternKeywordExtractor()
    found = {kw for kw in extractor.extract(text) if kw}
    if user_keywords:
        folded_text = text.casefold()
        for raw in user_keywords:
            keyword = raw.casefold().strip()
            if keyword and keyword in folded_text:
                found.add(keyword)
    return found


def build_vector_index(segments: list[Segment], embedder: Embedder) -> VectorIndex:
    """Embed every augmented segment; unembeddable ones are skipped."""
    keys: list[str] = []
    matrix = np.empty((len(segments), embedder.dim), dtype=np.float32)
    for seg in segments:
        vector = embedder.embed(seg.embedding_text)
        if not is_embeddable(vector):
            log.warning("segment %s has no embeddable text; skipped from vector index", seg.key)
            continue
        matrix[len(keys)] = vector
        keys.append(seg.key)
    return VectorIndex(dim=embedder.dim, keys=keys, matrix=matrix[: len(keys)])


def build_bm25_index(
    segments: list[Segment],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> Bm25Index:
    """Inverted index with document-length statistics over embedding_text."""
    if k1 <= 0:
        raise ValueError(f"k1 must be > 0, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError(f"b must be in [0, 1], got {b}")
    lengths: list[int] = []
    found: dict[str, tuple[list[int], list[int]]] = {}
    for row, seg in enumerate(segments):
        tokens = tokenize(seg.embedding_text)
        lengths.append(len(tokens))
        for token, tf in Counter(tokens).items():
            rows, tfs = found.setdefault(token, ([], []))
            rows.append(row)
            tfs.append(tf)
    postings = {
        term: Postings(np.array(rows, dtype=np.intp), np.array(tfs, dtype=np.int64))
        for term, (rows, tfs) in found.items()
    }
    return Bm25Index(k1=k1, b=b, keys=[seg.key for seg in segments], lengths=lengths,
                     postings=postings)


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


def build_keyword_table(
    segments: list[Segment],
    extractor: KeywordExtractor | None = None,
    user_keywords: Iterable[str] | None = None,
) -> KeywordTable:
    extractor = extractor or PatternKeywordExtractor()
    user = list(user_keywords or [])
    return KeywordTable(
        {seg.key: extract_keywords(seg.embedding_text, extractor, user) for seg in segments}
    )


def _require_keys(name: str, table: Iterable[str], universe: AbstractSet[str],
                  complete: bool = True) -> None:
    """Raise :class:`InconsistentIndexError` naming the keys of ``table``
    outside ``universe`` and, if ``complete``, the keys it lacks."""
    table = set(table)
    extra = table - universe
    if extra:
        raise InconsistentIndexError(f"{name} has keys outside the segments: {sorted(extra)}")
    missing = universe - table if complete else ()
    if missing:
        raise InconsistentIndexError(f"{name} is missing keys: {sorted(missing)}")


@dataclass
class IndexBundle:
    """Everything a query needs: the three indices plus segment payloads.

    The segments, in corpus order, are the ranking universe: ``keys`` and
    the arrays derived at construction follow that order. Construction
    raises :class:`InconsistentIndexError` unless the keys are unique, the
    BM25 and keyword rows are exactly those keys in that order, and every
    vector key is one of them (segments without embeddable text have none).
    """

    vectors: VectorIndex
    bm25: Bm25Index
    keywords: KeywordTable
    segments: list[Segment]
    embedder_spec: dict
    user_keywords: list[str] = field(default_factory=list)
    keys: list[str] = field(init=False, repr=False, compare=False)
    row_of: dict[str, int] = field(init=False, repr=False, compare=False)
    key_rank: np.ndarray = field(init=False, repr=False, compare=False)  # lexicographic
    vector_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = self.keys = [seg.key for seg in self.segments]
        self.row_of = {key: row for row, key in enumerate(keys)}
        universe = self.row_of.keys()
        if len(universe) != len(keys):
            dupes = sorted(key for key, n in Counter(keys).items() if n > 1)
            raise InconsistentIndexError(f"duplicate segment keys: {dupes}")
        for name, rows in (("bm25 index", self.bm25.keys),
                           ("keyword table", list(self.keywords.keywords))):
            if rows != keys:
                _require_keys(name, rows, universe)
                raise InconsistentIndexError(f"{name} rows are not in segment order")
        _require_keys("vector index", self.vectors.keys, universe, complete=False)
        self.vector_rows = np.array([self.row_of[key] for key in self.vectors.keys],
                                    dtype=np.intp)
        self.key_rank = np.empty(len(keys), dtype=np.intp)
        self.key_rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))


def build_indices(
    segments: list[Segment],
    embedder: Embedder,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    extractor: KeywordExtractor | None = None,
    user_keywords: Iterable[str] | None = None,
) -> IndexBundle:
    """Build all three substrates over one augmented segment list."""
    user = sorted({kw.casefold().strip() for kw in user_keywords or [] if kw.strip()})
    return IndexBundle(
        vectors=build_vector_index(segments, embedder),
        bm25=build_bm25_index(segments, k1=k1, b=b),
        keywords=build_keyword_table(segments, extractor, user),
        segments=list(segments),
        embedder_spec=embedder.spec(),
        user_keywords=user,
    )


def make_embedder(spec: dict) -> Embedder:
    """Instantiate an embedder from its manifest descriptor."""
    kind = spec.get("kind", "hash")
    if kind == "hash":
        return HashingEmbedder(dim=int(spec.get("dim", DEFAULT_DIM)))
    if kind == "subprocess":
        from . import plugins

        return plugins.SubprocessEmbedder(
            command=list(spec["command"]), dim=int(spec["dim"])
        )
    raise ValueError(f"unknown embedder kind: {kind!r}")


def _dump_json(path: Path, payload: object, indent: int | None = None) -> None:
    separators = (",", ": ") if indent else (",", ":")
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=indent,
                      separators=separators)
    path.write_text(text + "\n", encoding="utf-8")


def save_index(bundle: IndexBundle, path: str | Path) -> dict:
    """Persist the bundle to a directory; returns the manifest written."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    vector_keys = bundle.vectors.keys
    manifest = {
        "format_version": FORMAT_VERSION,
        "dim": bundle.vectors.dim,
        "k1": bundle.bm25.k1,
        "b": bundle.bm25.b,
        "vector_keys": vector_keys,
        "embedder": bundle.embedder_spec,
        "user_keywords": bundle.user_keywords,
    }
    _dump_json(directory / MANIFEST_FILE, manifest, indent=2)

    with open(directory / VECTORS_FILE, "wb") as handle:
        handle.write(VECTOR_MAGIC)
        handle.write(np.asarray(bundle.vectors.matrix, dtype="<f4").tobytes())

    keys = bundle.bm25.keys
    _dump_json(
        directory / POSTINGS_FILE,
        {
            "doc_lengths": dict(zip(keys, bundle.bm25.lengths.tolist())),
            "postings": {
                term: sorted(zip([keys[row] for row in p.rows.tolist()], p.tf.tolist()))
                for term, p in bundle.bm25.postings.items()
            },
        },
    )
    _dump_json(
        directory / KEYWORDS_FILE,
        {key: sorted(words) for key, words in bundle.keywords.keywords.items()},
    )
    _dump_json(directory / SEGMENTS_FILE, [vars(s) for s in bundle.segments])
    return manifest


def load_index(path: str | Path) -> IndexBundle:
    """Load a bundle persisted by :func:`save_index`; round-trip is exact.

    Raises :class:`IndexFormatError` for a missing, corrupt, other-version
    or inconsistent index.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise IndexFormatError(f"no index manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IndexFormatError(f"corrupt manifest {manifest_path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format_version {version!r} (expected {FORMAT_VERSION})"
        )

    with open(directory / VECTORS_FILE, "rb") as handle:
        if handle.read(len(VECTOR_MAGIC)) != VECTOR_MAGIC:
            raise IndexFormatError(f"bad vector blob magic in {directory / VECTORS_FILE}")
        data = np.fromfile(handle, dtype="<f4")
    dim = int(manifest["dim"])
    vector_keys = list(manifest["vector_keys"])
    if data.size != dim * len(vector_keys):
        raise IndexFormatError(
            f"vector blob holds {data.size} floats, expected {dim * len(vector_keys)}"
        )
    vectors = VectorIndex(dim=dim, keys=vector_keys,
                          matrix=data.astype(np.float32, copy=False).reshape(-1, dim))

    segments = [
        Segment(**d) for d in json.loads((directory / SEGMENTS_FILE).read_text(encoding="utf-8"))
    ]
    keys = [seg.key for seg in segments]
    row_of = {key: row for row, key in enumerate(keys)}

    # The files hold keys in sorted order; rows follow the segments.
    stored = json.loads((directory / POSTINGS_FILE).read_text(encoding="utf-8"))
    lengths = stored["doc_lengths"]
    _require_keys("bm25 index", lengths, row_of.keys())
    postings = {}
    for term, pairs in stored["postings"].items():
        try:
            rows = np.array([row_of[key] for key, _ in pairs], dtype=np.intp)
        except KeyError as exc:
            raise InconsistentIndexError(
                f"bm25 postings of {term!r} hold a key outside the segments: {exc}"
            ) from None
        tf = np.array([tf for _, tf in pairs], dtype=np.int64)
        order = np.argsort(rows)
        postings[term] = Postings(rows[order], tf[order])
    bm25 = Bm25Index(k1=float(manifest["k1"]), b=float(manifest["b"]), keys=keys,
                     lengths=[lengths[key] for key in keys], postings=postings)

    raw_keywords = json.loads((directory / KEYWORDS_FILE).read_text(encoding="utf-8"))
    _require_keys("keyword table", raw_keywords, row_of.keys())
    keywords = KeywordTable({key: set(raw_keywords[key]) for key in keys})

    return IndexBundle(
        vectors=vectors,
        bm25=bm25,
        keywords=keywords,
        segments=segments,
        embedder_spec=dict(manifest["embedder"]),
        user_keywords=[str(kw) for kw in manifest.get("user_keywords", [])],
    )
