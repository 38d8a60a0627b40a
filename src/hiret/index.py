"""Retrieval substrates: hashed vector index, BM25 index, keyword table.

All three are built over the augmented ``embedding_text`` of each segment,
keyed by ``doc_id#segment_id``, and persist to a directory as a JSON
manifest, a raw float32 vector blob (5-byte magic ``HIQA1``), JSON postings
and keyword files, and the segment payloads. The segment list is the one
source of the key order; an :class:`IndexBundle` checks at construction
that the three indices cover exactly its keys. Saving is deterministic:
re-saving an unchanged index reproduces the files byte for byte.
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
from typing import Iterable, Protocol

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


@dataclass
class VectorIndex:
    """Unit vectors over embeddable segments, keyed by doc_id#segment_id."""

    dim: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Bm25Index:
    """Okapi BM25 statistics over segment embedding_text tokens.

    ``corpus_size`` and ``avgdl`` are derived from ``doc_lengths``.
    """

    k1: float
    b: float
    doc_lengths: dict[str, int] = field(default_factory=dict)
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    corpus_size: int = field(init=False)
    avgdl: float = field(init=False)

    def __post_init__(self):
        self.corpus_size = len(self.doc_lengths)
        total = sum(self.doc_lengths.values())
        self.avgdl = total / self.corpus_size if self.corpus_size else 0.0


@dataclass
class KeywordTable:
    """Critical keywords per segment, case-folded."""

    keywords: dict[str, set[str]] = field(default_factory=dict)


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
    index = VectorIndex(dim=embedder.dim)
    for seg in segments:
        vector = embedder.embed(seg.embedding_text)
        if not is_embeddable(vector):
            log.warning("segment %s has no embeddable text; skipped from vector index", seg.key)
            continue
        index.entries[seg.key] = vector.astype(np.float32)
    return index


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
    doc_lengths: dict[str, int] = {}
    postings: dict[str, dict[str, int]] = {}
    for seg in segments:
        tokens = tokenize(seg.embedding_text)
        doc_lengths[seg.key] = len(tokens)
        for token in tokens:
            slot = postings.setdefault(token, {})
            slot[seg.key] = slot.get(seg.key, 0) + 1
    return Bm25Index(k1=k1, b=b, doc_lengths=doc_lengths, postings=postings)


def _idf(index: Bm25Index, term: str) -> float:
    n = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.corpus_size - n + 0.5) / (n + 0.5))


def _length_norm(index: Bm25Index, key: str) -> float:
    dl = index.doc_lengths[key]
    ratio = dl / index.avgdl if index.avgdl > 0 else 0.0
    return 1.0 - index.b + index.b * ratio


def bm25_score(index: Bm25Index, query: str, key: str) -> float:
    """Okapi BM25 score of one segment against the query.

    IDF uses the ln(1 + (N - n + 0.5)/(n + 0.5)) variant, which never goes
    negative; query terms are summed with multiplicity.
    """
    if key not in index.doc_lengths:
        raise KeyError(f"segment key not indexed: {key}")
    norm = _length_norm(index, key)
    score = 0.0
    for token in tokenize(query):
        freq = index.postings.get(token, {}).get(key, 0)
        if not freq:
            continue
        score += _idf(index, token) * (freq * (index.k1 + 1.0)) / (freq + index.k1 * norm)
    return score


def bm25_scores(index: Bm25Index, query: str) -> dict[str, float]:
    """BM25 scores for every indexed segment (0.0 where nothing matches).

    Bit-identical to calling :func:`bm25_score` per key: contributions are
    accumulated in query-token order for each key.
    """
    scores = {key: 0.0 for key in index.doc_lengths}
    for token in tokenize(query):
        slot = index.postings.get(token)
        if not slot:
            continue
        idf = _idf(index, token)
        for key, freq in slot.items():
            norm = _length_norm(index, key)
            scores[key] += idf * (freq * (index.k1 + 1.0)) / (freq + index.k1 * norm)
    return scores


def build_keyword_table(
    segments: list[Segment],
    extractor: KeywordExtractor | None = None,
    user_keywords: Iterable[str] | None = None,
) -> KeywordTable:
    extractor = extractor or PatternKeywordExtractor()
    user = list(user_keywords or [])
    table = KeywordTable()
    for seg in segments:
        table.keywords[seg.key] = extract_keywords(seg.embedding_text, extractor, user)
    return table


@dataclass
class IndexBundle:
    """Everything a query needs: the three indices plus segment payloads.

    The segments, in corpus order, are the ranking universe. Construction
    raises :class:`InconsistentIndexError` unless their keys are unique,
    the BM25 index and keyword table cover exactly those keys, and every
    vector key is one of them (segments without embeddable text have none).
    """

    vectors: VectorIndex
    bm25: Bm25Index
    keywords: KeywordTable
    segments: list[Segment]
    embedder_spec: dict
    user_keywords: list[str] = field(default_factory=list)

    def __post_init__(self):
        keys = self.keys
        universe = set(keys)
        if len(universe) != len(keys):
            dupes = sorted(key for key, n in Counter(keys).items() if n > 1)
            raise InconsistentIndexError(f"duplicate segment keys: {dupes}")
        complete = {"bm25 index": self.bm25.doc_lengths, "keyword table": self.keywords.keywords}
        for name, table in {"vector index": self.vectors.entries, **complete}.items():
            extra = table.keys() - universe
            if extra:
                raise InconsistentIndexError(
                    f"{name} has keys outside the segments: {sorted(extra)}"
                )
        for name, table in complete.items():
            missing = universe - table.keys()
            if missing:
                raise InconsistentIndexError(f"{name} is missing keys: {sorted(missing)}")

    @property
    def keys(self) -> list[str]:
        """The ranking universe, in corpus order."""
        return [seg.key for seg in self.segments]

    def segment_by_key(self) -> dict[str, Segment]:
        return {seg.key: seg for seg in self.segments}


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

    vector_keys = list(bundle.vectors.entries)
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

    blob = bytearray(VECTOR_MAGIC)
    for key in vector_keys:
        blob += bundle.vectors.entries[key].astype("<f4").tobytes()
    (directory / VECTORS_FILE).write_bytes(bytes(blob))

    _dump_json(
        directory / POSTINGS_FILE,
        {
            "doc_lengths": bundle.bm25.doc_lengths,
            "postings": {
                term: sorted((key, tf) for key, tf in slot.items())
                for term, slot in bundle.bm25.postings.items()
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

    blob = (directory / VECTORS_FILE).read_bytes()
    if blob[: len(VECTOR_MAGIC)] != VECTOR_MAGIC:
        raise IndexFormatError(f"bad vector blob magic in {directory / VECTORS_FILE}")
    dim = int(manifest["dim"])
    vector_keys = list(manifest["vector_keys"])
    data = np.frombuffer(blob[len(VECTOR_MAGIC) :], dtype="<f4")
    if data.size != dim * len(vector_keys):
        raise IndexFormatError(
            f"vector blob holds {data.size} floats, expected {dim * len(vector_keys)}"
        )
    entries = {
        key: data[i * dim : (i + 1) * dim].copy() for i, key in enumerate(vector_keys)
    }

    stored = json.loads((directory / POSTINGS_FILE).read_text(encoding="utf-8"))
    postings = {
        term: {key: int(tf) for key, tf in pairs}
        for term, pairs in stored["postings"].items()
    }
    bm25 = Bm25Index(
        k1=float(manifest["k1"]),
        b=float(manifest["b"]),
        doc_lengths={k: int(v) for k, v in stored["doc_lengths"].items()},
        postings=postings,
    )

    raw_keywords = json.loads((directory / KEYWORDS_FILE).read_text(encoding="utf-8"))
    keywords = KeywordTable(keywords={key: set(words) for key, words in raw_keywords.items()})

    segments = [
        Segment(**d) for d in json.loads((directory / SEGMENTS_FILE).read_text(encoding="utf-8"))
    ]
    return IndexBundle(
        vectors=VectorIndex(dim=dim, entries=entries),
        bm25=bm25,
        keywords=keywords,
        segments=segments,
        embedder_spec=dict(manifest["embedder"]),
        user_keywords=[str(kw) for kw in manifest.get("user_keywords", [])],
    )
