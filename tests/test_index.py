import functools
import hashlib
import json
import math
import mmap
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from collections import Counter
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FORMAT_3_FILES,
    FORMAT_6_FILES,
    FORMAT_8_FILES,
    as_format_10,
    dense,
    edit_index,
    inverted_lists,
    keyword_sets,
    keyword_table,
    load_and_ingest,
    write_datasheet_corpus,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hiret.store
from hiret.corpus import DocumentRecord, ImageAsset, Segment, path_text
from hiret.hca import augment_document, without_augmentation
from hiret.index import (
    FORMAT_VERSION,
    INDEX_FILE,
    _RUN_BREAKS,
    Bm25Index,
    HashingEmbedder,
    InconsistentIndexError,
    IndexBundle,
    IndexFormatError,
    _Memo,
    _Scan,
    _invert,
    _narrowest,
    bm25_route,
    bm25_score,
    bm25_scores,
    build_bm25_index,
    build_indices,
    build_keyword_table,
    build_vector_index,
    extract_keywords,
    load_index,
    save_index,
    tokenize,
    unit_vector,
)
from hiret.retriever import RetrievalConfig, keyword_hits, retrieve, vector_route
from hiret.store import (_ARRAYS, _KINDS, StoredSegments, _crc32, _json_bytes, _quote,
                         _segment_line)

BM25_WORKED_EXAMPLE = 0.6099695188927519  # ln 2 * 0.88, recomputed by hand


def dir_bytes(directory):
    """Every entry of ``directory``, by name: an index's names and bytes."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# The regions of an index file, in the order it stores them.
REGIONS = ("lines", *_ARRAYS, "header", "header length", "crc32", "magic")


def file_regions(directory) -> dict[str, tuple[int, int]]:
    """Each of :data:`REGIONS` of ``directory``'s index file: its bytes ``lo:hi``."""
    data = (directory / INDEX_FILE).read_bytes()
    header = edit_index(directory)["header"]
    spans = {"lines": (0, header["lines"])}
    for name, (dtype, offset, count) in header["arrays"].items():
        spans[name] = (offset, offset + count * np.dtype(dtype).itemsize)
    tail = len(data) - 20
    spans.update({"header": (tail - int.from_bytes(data[tail:tail + 8], "little"), tail),
                  "header length": (tail, tail + 8), "crc32": (tail + 8, tail + 12),
                  "magic": (tail + 12, len(data))})
    return {name: spans[name] for name in REGIONS}


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


def naive_bm25(token_lists: dict[str, list[str]], query_tokens: list[str], key: str,
               k1: float, b: float) -> float:
    """Independent full-recount BM25 oracle over raw token lists."""
    n_docs = len(token_lists)
    avgdl = sum(len(toks) for toks in token_lists.values()) / n_docs if n_docs else 0.0
    dl = len(token_lists[key])
    score = 0.0
    for term in query_tokens:
        containing = sum(1 for toks in token_lists.values() if term in toks)
        freq = token_lists[key].count(term)
        if freq == 0:
            continue
        idf = math.log(1 + (n_docs - containing + 0.5) / (containing + 0.5))
        ratio = dl / avgdl if avgdl > 0 else 0.0
        score += idf * (freq * (k1 + 1)) / (freq + k1 * (1 - b + b * ratio))
    return score


def oracle_embed(text: str, dim: int) -> np.ndarray:
    """Scalar oracle for HashingEmbedder.embed: one blake2b digest and one
    signed add per token."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=5).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        vec[bucket] += 1.0 if digest[4] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


class OracleEmbedder:
    def __init__(self, dim: int):
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        return oracle_embed(text, self.dim)

    def spec(self) -> dict:
        return {"kind": "hash", "dim": self.dim}


def oracle_bm25(segments, k1: float = 1.2, b: float = 0.75) -> Bm25Index:
    """Scalar oracle for build_bm25_index: a Counter of each row's tokens."""
    found: dict[str, list[tuple[int, int]]] = {}
    for row, segment in enumerate(segments):
        for token, tf in Counter(tokenize(segment.embedding_text)).items():
            found.setdefault(token, []).append((row, tf))
    postings = inverted_lists({term: [row for row, _ in pairs] for term, pairs in found.items()})
    tf = np.array([tf for term in postings for _, tf in found[term]], dtype=np.int32)
    return Bm25Index(k1=k1, b=b, keys=[s.key for s in segments], postings=postings, tf=tf)


def tf_of(index: Bm25Index, term: str) -> np.ndarray:
    """The term's count in each row of ``index.postings[term]``."""
    lo, hi = index.postings.span(term)
    return index.tf[lo:hi]


class OracleExtractor:
    """The letters-and-digits keyword rule, applied to every token."""

    token = re.compile(r"[^\W_]+(?:-[^\W_]+)*")
    letter = re.compile(r"[^\W\d_]")
    digit = re.compile(r"\d")

    def extract(self, text: str) -> set[str]:
        return {t.casefold() for t in self.token.findall(text)
                if self.letter.search(t) and self.digit.search(t)}


# Case variants of one token, case folds that change length (ß, İ), digits,
# underscores and hyphens.
_WORDS = st.sampled_from(["Vcc", "VCC", "vcc", "\u00df", "SS", "ss", "stra\u00dfe", "STRASSE",
                          "\u0130", "i\u0307", "x9", "9", "42", "a_b", "_", "-", "--",
                          "CA-IS3641", "ca-is3641", "\u4e2d\u6587", "\u00e9t\u00e9", ""])
_TEXTS = st.lists(st.tuples(st.one_of(_WORDS, st.text(max_size=6)),
                            st.sampled_from([" ", "\n", "-", "_", ", ", ""])).map("".join),
                  max_size=12).map("".join)


class TestTokenizer:
    def test_part_numbers_split_on_hyphen(self):
        assert tokenize("CA-IS3641") == ["ca", "is3641"]

    def test_case_folding(self):
        assert tokenize("Vcc VCC vcc") == ["vcc", "vcc", "vcc"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]


class TestHashingEmbedder:
    def test_deterministic(self):
        e = HashingEmbedder()
        assert np.array_equal(e.embed("abc"), e.embed("abc"))

    def test_unit_norm(self):
        e = HashingEmbedder()
        for text in ["abc", "one two three", "CA-IS3641 transceiver datasheet"]:
            assert abs(np.linalg.norm(e.embed(text)) - 1.0) <= 1e-6

    def test_empty_input_is_unembeddable(self):
        for text in ["", " _-_ \n--"]:
            v = HashingEmbedder().embed(text)
            assert unit_vector(v, 256)[0] is None
            assert v.dtype == np.float64
            assert v.tobytes() == np.zeros(256).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=4), dim=st.sampled_from([1, 7, 256]))
    def test_matches_scalar_oracle_bit_for_bit(self, texts, dim):
        embedder = HashingEmbedder(dim)
        for text in texts + texts[::-1]:  # the second pass reads the memo
            vec = embedder.embed(text)
            assert vec.dtype == np.float64
            assert vec.tobytes() == oracle_embed(text, dim).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(_TEXTS, st.text()), dim=st.sampled_from([1, 7, 256]))
    def test_one_text_embeds_as_a_row_of_the_block_builder(self, text, dim):
        embedder = HashingEmbedder(dim)
        codes = np.fromiter(map(embedder._code, tokenize(text)), np.intp)
        assert embedder.embed(text).tobytes() == embedder._vectors(codes, [len(codes)])[0].tobytes()

    def test_instances_of_different_dim_do_not_share_buckets(self):
        small, large = HashingEmbedder(dim=8), HashingEmbedder(dim=256)
        for text in ["Vcc VCC vcc", "alpha x9", "Vcc alpha"]:
            assert small.embed(text).tobytes() == oracle_embed(text, 8).tobytes()
            assert large.embed(text).tobytes() == oracle_embed(text, 256).tobytes()

    def test_dimension(self):
        assert HashingEmbedder().embed("x").shape == (256,)
        assert HashingEmbedder(dim=32).embed("x").shape == (32,)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)

    @pytest.mark.parametrize("dim", [2.5, True, "8"])
    def test_dim_is_an_int_not_a_bool(self, dim):
        # the rule make_embedder applies to a spec's dim, refused before any embed
        with pytest.raises(ValueError, match="embedder 'dim' must be an integer >= 1"):
            HashingEmbedder(dim=dim)


class TestVectorIndex:
    def test_skips_unembeddable_segments(self):
        segments = [seg("d", "1", "alpha"), seg("d", "2", ""), seg("d", "3", "beta")]
        index = build_vector_index(segments, HashingEmbedder())
        assert sorted(index.entries) == ["d#1", "d#3"]

    def test_empty_corpus(self):
        index = build_vector_index([], HashingEmbedder())
        assert index.entries == {}

    def test_entries_match_embedder_output(self):
        e = HashingEmbedder()
        segments = [seg("d", "1", "alpha beta")]
        index = build_vector_index(segments, e)
        expected = e.embed("alpha beta").astype(np.float32)
        assert np.array_equal(index.entries["d#1"], expected)

    def test_bad_vectors_are_skipped_with_a_warning(self, caplog):
        class Fixed:
            dim = 2
            vectors = {"good": [3.0, 4.0], "nan": [math.nan, 1.0], "inf": [-math.inf, 0.0],
                       "huge": [1e308, 1e308], "wrong": [1.0, 2.0, 3.0], "zero": [0.0, 0.0]}

            def embed(self, text):
                return np.asarray(self.vectors[text], dtype=np.float64)

        segments = [seg("d", name, name) for name in Fixed.vectors]
        with caplog.at_level("WARNING", logger="hiret.index"):
            index = build_vector_index(segments, Fixed())
        assert list(index.entries) == ["d#good"]
        assert dense(index).tolist() == [[np.float32(0.6), np.float32(0.8)]]
        warned = "\n".join(r.getMessage() for r in caplog.records)
        for key, problem in [("nan", "is not finite"), ("inf", "is not finite"),
                             ("huge", "is not finite"), ("wrong", "has shape (3,)"),
                             ("zero", "is zero")]:
            assert f"segment d#{key}: vector {problem}" in warned

    @pytest.mark.parametrize("embedder", [HashingEmbedder(16), OracleEmbedder(16)],
                             ids=["hashing", "plug-in"])
    def test_empty_text_is_skipped_silently_and_punctuation_warns_once(self, embedder,
                                                                        caplog):
        # "" is an undescribed image, which HCA has warned of; "-- .." holds no token.
        segments = [seg("d", "1", "alpha"), seg("d", "2", ""), seg("d", "3", "-- ..")]
        with caplog.at_level("WARNING", logger="hiret.index"):
            index = build_vector_index(segments, embedder)
        assert list(index.entries) == ["d#1"]
        assert [r.getMessage() for r in caplog.records] == [
            "segment d#3: vector is zero (no embeddable text); skipped from vector index"]

    def test_plugin_blocks_store_what_the_hashing_blocks_store(self):
        # over two blocks of 1024 rows, with some rows that have no vector
        segments = [seg("d", f"{i:04d}", f"w{i % 97} w{i % 13} x{i % 7}" if i % 50 else "")
                    for i in range(2100)]
        hashed = build_vector_index(segments, HashingEmbedder(16))
        plugged = build_vector_index(segments, OracleEmbedder(16))
        assert len(hashed.rows) == 2058
        for name in ("rows", "offsets", "ordinals", "values"):
            assert getattr(hashed, name).tobytes() == getattr(plugged, name).tobytes(), name

    def test_self_cosine_is_one(self):
        segments = [seg("d", str(i), f"text number {i}") for i in range(5)]
        index = build_vector_index(segments, HashingEmbedder())
        for vec in index.entries.values():
            v = vec.astype(np.float64)
            assert abs(float(v @ v) - 1.0) <= 1e-6


@functools.cache
def _fixture_bm25() -> Bm25Index:
    """The BM25 index of the committed fixture corpus."""
    _, segments = load_and_ingest(Path(__file__).parent / "data" / "corpus")
    return build_bm25_index(segments)


class TestBm25:
    def two_doc_index(self):
        return build_bm25_index([seg("c", "d1", "a b"), seg("c", "d2", "a")], k1=1.2, b=0.75)

    def test_counting_example(self):
        index = self.two_doc_index()
        assert index.avgdl == 1.5
        assert len(index.keys) == 2
        assert [index.keys[row] for row in index.postings["a"]] == ["c#d1", "c#d2"]
        assert tf_of(index, "b").tolist() == [1]

    def test_worked_example(self):
        index = self.two_doc_index()
        assert bm25_score(index, "b", "c#d1") == pytest.approx(BM25_WORKED_EXAMPLE, abs=1e-12)
        assert bm25_score(index, "b", "c#d1") == pytest.approx(0.6100, abs=1e-3)

    def test_absent_term_contributes_zero(self):
        index = self.two_doc_index()
        assert bm25_score(index, "zzz", "c#d1") == 0.0
        assert bm25_score(index, "b zzz", "c#d1") == bm25_score(index, "b", "c#d1")

    def test_query_a_matches_oracle_on_both_docs(self):
        index = self.two_doc_index()
        tokens = {"c#d1": ["a", "b"], "c#d2": ["a"]}
        for key in tokens:
            expected = naive_bm25(tokens, ["a"], key, 1.2, 0.75)
            assert bm25_score(index, "a", key) == pytest.approx(expected, abs=1e-12)

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            bm25_score(self.two_doc_index(), "a", "c#nope")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_bm25_index([], k1=0.0)
        with pytest.raises(ValueError):
            build_bm25_index([], b=1.5)

    @pytest.mark.parametrize("k1", [math.inf, math.nan])
    def test_non_finite_k1_rejected(self, k1):
        with pytest.raises(ValueError, match="k1"):
            build_bm25_index([seg("c", "d1", "a b")], k1=k1)

    def test_empty_corpus_scores_empty(self):
        index = build_bm25_index([])
        assert index.keys == []
        assert bm25_scores(index, "anything") == {}

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(31337)
        vocab = [f"tok{i}" for i in range(30)]
        for _ in range(40):
            n_docs = rng.randrange(1, 20)
            segments = []
            token_lists = {}
            for d in range(n_docs):
                toks = [rng.choice(vocab) for _ in range(rng.randrange(1, 60))]
                segments.append(seg("c", str(d), " ".join(toks)))
                token_lists[f"c#{d}"] = toks
            k1 = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.0, 1.0)
            index = build_bm25_index(segments, k1=k1, b=b)
            query_tokens = [rng.choice(vocab) for _ in range(rng.randrange(1, 6))]
            query = " ".join(query_tokens)
            bulk = bm25_scores(index, query)
            for key, toks in token_lists.items():
                expected = naive_bm25(token_lists, query_tokens, key, k1, b)
                assert bm25_score(index, query, key) == pytest.approx(expected, abs=1e-9)
                assert bulk[key] == bm25_score(index, query, key)  # bit-identical paths

    def test_a_second_route_is_served_from_the_memo_bit_for_bit(self):
        index = build_bm25_index([seg("c", str(i), f"alpha beta{i % 3} gamma {'alpha ' * i}")
                                  for i in range(9)])
        query = "alpha beta1 gamma"
        first = bm25_route(index, query)
        kept = dict(index.contributions)
        assert sorted(kept) == ["alpha", "beta1", "gamma"]
        second = bm25_route(index, query)
        assert second.tobytes() == first.tobytes()
        assert all(index.contributions[term] is kept[term] for term in kept)  # not recomputed
        assert [float(x) for x in second] == [bm25_score(index, query, key) for key in index.keys]

    def test_a_repeated_term_adds_twice_and_an_absent_term_is_not_stored(self):
        index = self.two_doc_index()
        scores = bm25_route(index, "b zzz b a")
        assert list(index.contributions) == ["b", "a"]
        assert scores.tolist() == [bm25_score(index, "b zzz b a", key) for key in index.keys]
        assert scores[0] == 2 * bm25_score(index, "b", "c#d1") + bm25_score(index, "a", "c#d1")
        assert bm25_route(index, "zzz").tobytes() == np.zeros(2).tobytes()
        assert list(index.contributions) == ["b", "a"]

    def test_the_memo_holds_at_most_one_float_per_posting_entry(self):
        index = build_bm25_index([seg("c", str(i), f"w{i % 5} w{i % 7} x{i}") for i in range(30)])
        terms = list(index.postings)
        for query in terms + [" ".join(terms), "absent words only"]:
            bm25_route(index, query)
            assert len(index.contributions) <= len(index.postings)
        assert len(index.contributions) == len(index.postings)
        assert sum(v.nbytes for v in index.contributions.values()) == 8 * len(index.tf)

    def test_a_built_index_and_its_loaded_copy_each_start_an_empty_memo(self, tmp_path):
        bundle = build_indices([seg("d", "1", "alpha beta"), seg("d", "2", "alpha")],
                               HashingEmbedder())
        assert bundle.bm25.contributions == {}
        bm25_route(bundle.bm25, "alpha")
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.bm25.contributions == {}
        assert list(bundle.bm25.contributions) == ["alpha"]
        bm25_route(loaded.bm25, "beta")
        assert list(bundle.bm25.contributions) == ["alpha"]
        assert list(loaded.bm25.contributions) == ["beta"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_query_sequence_scores_what_a_fresh_index_scores(self, data):
        index = _fixture_bm25()  # one index whose memo every example adds to
        words = st.sampled_from(list(index.postings) + ["absent", "CA-IS3641"])
        for query in data.draw(st.lists(st.lists(words, max_size=6).map(" ".join), max_size=4)):
            fresh = Bm25Index(index.k1, index.b, index.keys, index.postings, index.tf)
            assert bm25_route(index, query).tobytes() == bm25_route(fresh, query).tobytes()


class TestBm25Build:
    def assert_matches_oracle(self, segments):
        index, oracle = build_bm25_index(segments), oracle_bm25(segments)
        assert index.keys == oracle.keys
        assert index.lengths.tolist() == [len(tokenize(s.embedding_text)) for s in segments]
        assert index.lengths.dtype == np.int64
        assert list(index.postings) == list(oracle.postings)
        assert index.postings.rows.dtype == np.min_scalar_type(len(segments))
        assert index.tf.dtype == np.int32
        for term, expected in oracle.postings.items():
            got = index.postings[term]
            assert got.tolist() == expected.tolist(), term
            assert tf_of(index, term).tolist() == tf_of(oracle, term).tolist(), term
            assert np.all(np.diff(got) > 0)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, max_size=8))
    def test_matches_counter_oracle(self, texts):
        self.assert_matches_oracle([seg("d", str(i), t) for i, t in enumerate(texts + [""])])
        # "every" (and "EVERY") is in every row, so its postings are all rows.
        everywhere = [seg("d", str(i), t + " EVERY") for i, t in enumerate(texts + ["every"])]
        self.assert_matches_oracle(everywhere)
        assert build_bm25_index(everywhere).postings["every"].tolist() == list(
            range(len(everywhere)))

    @pytest.mark.parametrize("most, dtype", [(3, "<u1"), (300, "<u2"), (70_000, "<u4")])
    def test_lengths_summed_by_chunks_are_the_exact_row_sums(self, tmp_path, most, dtype):
        """80 000 posting entries (1000 rows of 80 distinct terms) span the 65 536-entry
        chunk; one row holds a term ``most`` times, so the counts load as ``dtype``."""
        segments = [seg("d", f"{i:04d}", " ".join(f"t{(i + j) % 997}" for j in range(80)))
                    for i in range(1000)]
        segments.append(seg("d", "heavy", "t1 " * most))
        bundle = build_indices(segments, HashingEmbedder(dim=16))
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.bm25.tf.dtype == np.dtype(dtype)
        for index in (bundle.bm25, loaded.bm25):
            assert len(index.tf) > 1 << 16
            whole = np.bincount(index.postings.rows, index.tf, len(index.keys)).astype(np.int64)
            assert index.lengths.dtype == np.int64
            assert index.lengths.tobytes() == whole.tobytes()
        assert loaded.bm25.lengths[-1] == most  # the heavy row sorts last


# Unicode terms, some drawn often enough to repeat within a row and across rows.
_TERMS = st.one_of(st.sampled_from(["a", "B", "\u00df", "\u4e2d\u6587", "x9"]),
                   st.text(min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_TERMS, st.integers(0, 5)), max_size=30),
       empty_rows=st.integers(0, 2), absent=st.text(max_size=3))
def test_invert_lists_each_terms_distinct_rows_and_counts(pairs, empty_rows, absent):
    terms = list(dict.fromkeys(term for term, _ in pairs))  # in order of first use
    n = max((row for _, row in pairs), default=-1) + 1 + empty_rows
    by_row = sorted(pairs, key=lambda pair: pair[1])  # row r holds the next lengths[r] ids
    ids = np.array([terms.index(term) for term, _ in by_row], dtype=np.intc)
    lengths = np.bincount([row for _, row in pairs], minlength=n)
    lists, counts = _invert(terms, ids, lengths)

    assert list(lists) == lists.terms == sorted(terms)
    assert len(lists) == len(terms)
    assert lists.offsets[0] == 0 and lists.offsets[-1] == len(lists.rows) == len(counts)
    assert np.all(np.diff(lists.offsets) > 0)  # every listed term owns a row
    multiplicity = Counter(pairs)
    for term in terms:
        rows = lists[term]
        assert rows.dtype == np.min_scalar_type(n)
        assert rows.tolist() == sorted({row for t, row in pairs if t == term})
        lo, hi = lists.span(term)
        assert lists.rows[lo:hi].tolist() == rows.tolist()
        assert counts[lo:hi].tolist() == [multiplicity[term, row] for row in rows.tolist()]
        assert term in lists and lists.get(term) is not None
    # "" sorts before every term, four U+10FFFF after every term of at most three
    for missing in {absent, "", "\U0010ffff" * 4} - set(terms):
        assert lists.span(missing) == (0, 0)
        assert missing not in lists
        assert lists.get(missing) is None
        with pytest.raises(KeyError):
            lists[missing]


@pytest.mark.parametrize("terms, ids, lengths, rows, counts", [
    ([], [], [], [], []),  # no rows
    ([], [], [0, 0, 0], [], []),  # no terms: every row empty
    (["b", "a"], [0, 1, 0], [3], [0, 0], [1, 2]),  # one row
    (["b", "a"], [1, 1, 0], [0, 2, 0, 1, 0], [1, 3], [2, 1]),  # rows of length 0 around them
])
def test_invert_edge_cases(terms, ids, lengths, rows, counts):
    lists, found = _invert(terms, np.array(ids, np.intc), np.array(lengths, np.intp))
    assert lists.terms == sorted(terms)
    assert lists.rows.dtype == np.min_scalar_type(len(lengths)) and lists.rows.tolist() == rows
    assert found.tolist() == counts
    assert lists.offsets[0] == 0 and lists.offsets[-1] == len(rows)


def test_invert_peak_memory_stays_near_four_key_widths():
    """numpy reports its buffers to tracemalloc. Over 1 M ids, nearly each a distinct
    (term, row) pair, ``_invert`` peaks below four times the 8-byte key of each id
    (about 2.6 times); inverting with ``np.unique`` over the keys peaked at 6.05."""
    rng = np.random.default_rng(7)
    lengths = np.full(20_000, 50)
    ids = rng.integers(0, 900, int(lengths.sum())).astype(np.intc)
    terms = [f"t{i}" for i in range(900)]
    tracemalloc.start()
    try:
        lists, counts = _invert(terms, ids, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == len(ids) and len(lists.rows) > 0.9 * len(ids)
    assert peak < 4 * 8 * len(ids)


class TestKeywords:
    def test_part_number_pattern(self):
        assert extract_keywords("the CA-IS3641 transceiver") == {"ca-is3641"}

    def test_case_variants_yield_one_keyword(self):
        assert extract_keywords("CA-IS3641") == {"ca-is3641"}
        assert extract_keywords("ca-is3641") == {"ca-is3641"}
        assert extract_keywords("ca-is3641 CA-IS3641 Ca-Is3641") == {"ca-is3641"}

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=4))
    def test_pattern_extractor_matches_the_rule(self, texts):
        rows = texts + texts[::-1]  # the second pass reads the build's memo
        table = build_keyword_table([seg("d", str(i), t) for i, t in enumerate(rows)])
        assert keyword_sets(table) == [OracleExtractor().extract(t) for t in rows]
        for text in rows:
            assert extract_keywords(text) == OracleExtractor().extract(text)

    @settings(max_examples=200, deadline=None)
    @given(text=_TEXTS, user=st.lists(st.one_of(_WORDS, st.text(max_size=4)), max_size=3))
    def test_build_and_query_share_one_rule(self, text, user):
        table = build_keyword_table([seg("d", "1", text)], user)
        hits = keyword_hits(text, table, user_keywords=set(user))
        assert hits.tolist() == [len(extract_keywords(text, user))]

    def test_plain_prose_yields_nothing(self):
        assert extract_keywords("plain prose with no identifiers") == set()

    def test_user_dictionary_matches_case_folded(self):
        found = extract_keywords("iPhone15 battery", user_keywords={"iphone15"})
        assert "iphone15" in found

    def test_user_keyword_absent_from_text_not_added(self):
        assert extract_keywords("nothing here", user_keywords={"iphone15"}) == set()

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, max_size=5),
           extra=st.lists(st.one_of(_WORDS, st.text(max_size=4)), max_size=3))
    def test_raw_dictionary_is_read_as_extract_keywords_reads_it(self, texts, extra):
        # Mixed case, surrounding spaces, blank lines and duplicates, as a file holds them.
        raw = ["  IPhone15 ", "iphone15", "", "   ", "\t", "Vcc", "VCC\t", " stra\u00dfe"] + extra
        segments = [seg("d", str(i), t) for i, t in enumerate(texts + ["iPhone15 VCC STRASSE"])]
        for user in (raw, iter(raw)):  # a single-pass iterable too
            table = build_keyword_table(segments, user)
            expected = keyword_table(table.keys, [extract_keywords(s.embedding_text, raw)
                                                  for s in segments]).rows
            assert table.rows.terms == expected.terms
            assert table.rows.offsets.tolist() == expected.offsets.tolist()
            assert table.rows.rows.tolist() == expected.rows.tolist()
        assert {"iphone15", "vcc", "strasse"} <= keyword_sets(table)[-1]  # "\u00df" folds to "ss"

    def test_table_built_per_segment(self):
        segments = [seg("d", "1", "uses CA-IS3641"), seg("d", "2", "no parts")]
        table = build_keyword_table(segments)
        assert table.keys == ["d#1", "d#2"]
        assert keyword_sets(table) == [{"ca-is3641"}, set()]


# Texts rich in what the shared token scan must split alike: hyphen runs,
# underscores, case folds that change length, combining marks, punctuation, every
# ASCII control character, Unicode spaces, non-ASCII letters against "-" and "_",
# lone surrogates, which the scan's byte runs must carry through whole, and a run
# ("ab12\u00b7word": U+00B7 is no ASCII break, but no token holds it) with a keyword and
# a plain token.
_SCAN_TEXTS = st.one_of(_TEXTS, st.text(), st.lists(st.one_of(st.sampled_from(
    ["a", "Z", "9", "-", "_", " ", ".", "\u00df", "\u0130", "\u0301", "\u00b2",
     "\u0660", "\u4e2d", "!", "\n", "\x85", "\u2028", "\xa0", "\u3000", "\u00e9-",
     "-\u00e9", "\u00e9_", "_\u00e9", "\u4e2d-\u00df", "\u0430_\u0660", "ab12\u00b7word",
     "\u00b7", "x9"]
    + [chr(code) for code in range(32)] + ["\x7f"]),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)), max_size=30).map("".join))


def test_run_breaks_are_the_ascii_characters_no_token_holds():
    for code in range(128):
        holds = re.fullmatch(r"[^\W_]|-", chr(code)) is not None
        assert _RUN_BREAKS[code] == (code if holds else ord(" ")), repr(chr(code))
    assert _RUN_BREAKS[128:] == bytes(range(128, 256))  # multibyte characters stay whole


def test_a_lone_surrogate_scans_without_raising():
    segments = [seg("d", "1", "CA-IS3641\ud800x9 \udfffgain"), seg("d", "2", "\udc00")]
    terms, ids, offsets, verdicts = _Scan(segments).tokens
    assert list(terms) == ["ca", "is3641", "x9", "gain"]
    assert ids.tolist() == [0, 1, 2, 3] and offsets.tolist() == [0, 4, 4]
    assert verdicts == [{"ca-is3641", "x9"}, set()]


def test_keyword_verdicts_are_kept_per_run():
    rows = ["ab12\u00b7word", "x9 CA-IS3641 x9", "", "\u00b7 -- _", "x9 gain",
            "gain ab12\u00b7word"]
    verdicts = _Scan([seg("d", str(i), text) for i, text in enumerate(rows)]).tokens[3]
    # each row's set is its own
    assert verdicts == [{"ab12"}, {"x9", "ca-is3641"}, set(), set(), {"x9"}, {"ab12"}]
    assert len({id(found) for found in verdicts}) == len(rows)


@settings(max_examples=500, deadline=None)
@given(text=_SCAN_TEXTS)
def test_keyword_token_pieces_are_the_bm25_tokens(text):
    """The identity the one-pass ingest rests on: the ``-`` pieces of the keyword
    tokens are the letter/digit runs, with underscores and hyphens splitting them."""
    assert tokenize(text) == [run.casefold() for run in re.findall(r"[^\W_]+", text)]


class TestOneScanMatchesTheOracles:
    """build_indices reads each embedding_text once; every route it builds
    equals the route the independent oracles build from the raw text."""

    def assert_bundle_matches(self, segments, bundle, user):
        segments = sorted(segments, key=lambda s: s.key)  # the bundle's row order
        vectors = build_vector_index(segments, OracleEmbedder(bundle.vectors.dim))
        assert bundle.vectors.rows.tolist() == vectors.rows.tolist()
        for name in ("offsets", "ordinals", "values"):
            assert getattr(bundle.vectors, name).tobytes() == getattr(vectors, name).tobytes()
        bm25 = oracle_bm25(segments)
        assert bundle.bm25.lengths.tobytes() == bm25.lengths.tobytes()
        assert list(bundle.bm25.postings) == list(bm25.postings)
        for term, expected in bm25.postings.items():
            got = bundle.bm25.postings[term]
            assert (got.tolist(), tf_of(bundle.bm25, term).tolist()) == (
                expected.tolist(), tf_of(bm25, term).tolist()), term
        assert keyword_sets(bundle.keywords) == [
            OracleExtractor().extract(s.embedding_text)
            | {kw.casefold().strip() for kw in user
               if kw.strip() and kw.casefold().strip() in s.embedding_text.casefold()}
            for s in segments]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(texts=st.lists(_SCAN_TEXTS, max_size=10),
           user=st.lists(st.one_of(_WORDS, st.text(max_size=4)), max_size=3),
           dim=st.sampled_from([1, 7, 256]))
    def test_hashing_embedder(self, texts, user, dim):
        # Zero-token, all-punctuation and repeated rows ride along every time.
        rows = texts + ["", "-_-. !", "STRASSE stra\u00dfe"] + texts[:2]
        segments = [seg("d", str(i), t) for i, t in enumerate(rows)]
        bundle = build_indices(segments, HashingEmbedder(dim), user_keywords=user)
        self.assert_bundle_matches(segments, bundle, user)

    def test_blocks_of_rows_cover_a_long_list(self):
        rng = random.Random(5)
        words = ["Vcc", "CA-IS3641", "x9", "stra\u00dfe", "a_b", "--", "\u0130", "gain"]
        rows = [" ".join(rng.choices(words, k=rng.randrange(4))) for _ in range(2600)]
        segments = [seg("d", str(i), t) for i, t in enumerate(rows)]
        self.assert_bundle_matches(segments, build_indices(segments, HashingEmbedder()), [])

    def test_other_embedders_embed_each_text_once_in_order(self):
        class Recording:
            dim = 16

            def __init__(self):
                self.texts = []

            def embed(self, text):
                self.texts.append(text)
                return oracle_embed(text, self.dim)

            def spec(self):
                return {"kind": "hash", "dim": self.dim}

        class Subclassed(HashingEmbedder):  # overrides embed: not the default embedder
            def __init__(self, dim):
                super().__init__(dim)
                self.texts = []

            def embed(self, text):
                self.texts.append(text)
                return super().embed(text)

        rows = ["alpha CA-IS3641", "", "Beta beta x9", "alpha", "-_-"]
        segments = [seg("d", str(i), t) for i, t in enumerate(rows)]
        for embedder in (Recording(), Subclassed(16)):
            bundle = build_indices(segments, embedder, user_keywords=["beta"])
            assert embedder.texts == [text for text in rows if text]  # "" is never sent
            self.assert_bundle_matches(segments, bundle, ["beta"])


def test_datasheet_index_bytes_equal_the_oracle_bundle(tmp_path):
    _, segments = load_and_ingest(write_datasheet_corpus(tmp_path / "ds"))
    user = ["kvrms", "pinout"]
    built = build_indices(segments, HashingEmbedder(), user_keywords=user)
    segments = sorted(segments, key=lambda s: s.key)  # the built rows' order
    oracle = IndexBundle(
        vectors=build_vector_index(segments, OracleEmbedder(256)),
        bm25=oracle_bm25(segments),
        keywords=keyword_table([s.key for s in segments],
                               [OracleExtractor().extract(s.embedding_text)
                                | {kw for kw in user if kw in s.embedding_text.casefold()}
                                for s in segments]),
        segments=segments,
        embedder_spec=OracleEmbedder(256).spec(),
        user_keywords=user,
    )
    save_index(built, tmp_path / "built")
    save_index(oracle, tmp_path / "oracle")
    assert dir_bytes(tmp_path / "built") == dir_bytes(tmp_path / "oracle")


def test_duplicate_segment_keys_are_refused():
    segments = [seg("d", "1", "alpha"), seg("d", "2", "beta"), seg("d", "1", "gamma")]
    with pytest.raises(InconsistentIndexError, match="d#1"):
        build_indices(segments, HashingEmbedder())


def _entry_edit(name, i, change):
    """A header edit: field ``i`` of array ``name``'s entry becomes ``change(field)``."""
    def edit(header):
        header["arrays"][name][i] = change(header["arrays"][name][i])
    return edit


class TestPersistence:
    def build_bundle(self):
        segments = [
            seg("d1", "1", "alpha beta CA-IS3641"),
            seg("d1", "1.1", "gamma delta"),
            seg("d2", "1", "alpha epsilon"),
        ]
        segments[0].metadata_path = ["d1 title", "1 intro"]
        return build_indices(segments, HashingEmbedder(), user_keywords=["epsilon"])

    def test_round_trip_preserves_everything(self, tmp_path):
        bundle = self.build_bundle()
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.keys == bundle.keys
        assert loaded.bm25.k1 == bundle.bm25.k1
        assert loaded.bm25.avgdl == bundle.bm25.avgdl
        # a built bundle and its loaded copy list the terms in one sorted order
        assert list(loaded.bm25.postings) == list(bundle.bm25.postings)
        assert list(bundle.bm25.postings) == sorted(bundle.bm25.postings)
        for term, rows in bundle.bm25.postings.items():
            assert np.array_equal(loaded.bm25.postings[term], rows)
            assert np.array_equal(tf_of(loaded.bm25, term), tf_of(bundle.bm25, term))
        assert np.array_equal(loaded.bm25.lengths, bundle.bm25.lengths)
        assert keyword_sets(loaded.keywords) == keyword_sets(bundle.keywords)
        assert loaded.user_keywords == bundle.user_keywords
        assert [s.metadata_path for s in loaded.segments] == [
            s.metadata_path for s in bundle.segments
        ]
        for key in bundle.vectors.entries:
            assert np.array_equal(loaded.vectors.entries[key], bundle.vectors.entries[key])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        bundle = self.build_bundle()
        first, second = tmp_path / "a", tmp_path / "b"
        save_index(bundle, first)
        save_index(load_index(first), second)
        assert dir_bytes(first) == dir_bytes(second)

    def test_scores_survive_reload_bit_exactly(self, tmp_path):
        bundle = self.build_bundle()
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        for query in ["alpha beta", "ca-is3641 gamma", "epsilon"]:
            assert bm25_scores(bundle.bm25, query) == bm25_scores(loaded.bm25, query)

    def saved(self, tmp_path) -> Path:
        save_index(self.build_bundle(), tmp_path)
        return tmp_path / INDEX_FILE

    @pytest.mark.parametrize("region", REGIONS)
    def test_flipped_byte_is_refused(self, tmp_path, region):
        path = self.saved(tmp_path)
        lo, hi = file_regions(tmp_path)[region]
        assert lo < hi, region  # every region of this index holds a byte
        data = bytearray(path.read_bytes())
        data[(lo + hi) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        says = "does not end in an index's magic" if region == "magic" else (
            "does not match its crc32")
        with pytest.raises(IndexFormatError,
                           match=re.escape(f"index file {path} {says}")) as refused:
            load_index(tmp_path)
        if Path("/proc/self/maps").exists():  # the traceback, still held, keeps no map open
            assert refused.value.__traceback__ is not None
            assert str(path.resolve()) not in Path("/proc/self/maps").read_text()

    def assert_cut_is_refused(self, path, data, cut):
        path.write_bytes(data[:cut])
        says = "cannot read index file" if cut == 0 else "does not end in an index's magic"
        with pytest.raises(IndexFormatError, match=re.escape(says)) as refused:
            load_index(path.parent)
        assert str(path) in str(refused.value), cut

    @pytest.mark.parametrize("region", REGIONS)
    def test_file_cut_at_a_region_boundary_is_refused(self, tmp_path, region):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        lo, hi = file_regions(tmp_path)[region]
        assert (lo == 0) == (region == "lines") and lo < len(data)
        for cut in (lo, hi) if hi < len(data) else (lo,):  # the magic ends the file
            self.assert_cut_is_refused(path, data, cut)

    @pytest.mark.parametrize("region", REGIONS)
    def test_file_cut_inside_a_region_is_refused(self, tmp_path, region):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        lo, hi = file_regions(tmp_path)[region]
        assert hi - lo >= 2, region  # every region of this index holds a byte past its first
        self.assert_cut_is_refused(path, data, (lo + hi) // 2)

    @pytest.mark.parametrize("name", ["lines", *_ARRAYS])
    def test_emptied_region_the_header_vouches_for_is_refused(self, tmp_path, name):
        self.saved(tmp_path)
        edit_index(tmp_path, lambda parts: parts.update(
            {name: b"" if name == "lines" else parts[name][:0]}))
        with pytest.raises(IndexFormatError):
            load_index(tmp_path)

    def test_missing_file_is_refused(self, tmp_path):
        self.saved(tmp_path).unlink()
        with pytest.raises(IndexFormatError,
                           match=re.escape(f"no index at {tmp_path / INDEX_FILE}")):
            load_index(tmp_path)

    @pytest.mark.parametrize("edit, says", [
        (_entry_edit("postings_rows", 1, lambda offset: offset + 1),
         "arrays['postings_rows'] starts at"),
        (_entry_edit("vector_values", 2, lambda count: count + 600),
         "arrays['vector_values'] does not lie before the header"),
        (_entry_edit("segment_offsets", 1, lambda offset: -8),
         "arrays['segment_offsets'] does not lie before the header"),
        (_entry_edit("keywords_rows", 2, lambda count: -1),
         "arrays['keywords_rows'] does not lie before the header"),
        (_entry_edit("vector_rows", 0, lambda dtype: "<i8"),
         "arrays['vector_rows'] holds '<i8', expected <u1 or <u2 or <u4"),
        (_entry_edit("vector_values", 0, lambda dtype: "<f8"),
         "arrays['vector_values'] holds '<f8', expected <f4"),
        (_entry_edit("postings_tf", 0, lambda dtype: "<i4"),
         "arrays['postings_tf'] holds '<i4', expected <u1 or <u2 or <u4"),
        (lambda header: header["arrays"].pop("segment_offsets"),
         "arrays['segment_offsets'] is not a [dtype, offset, count]"),
        (_entry_edit("keywords_rows", 2, float),
         "arrays['keywords_rows'] is not a [dtype, offset, count]"),
        (lambda header: header.update(lines=10 ** 6),
         "its 1000000 bytes of segment lines do not end before the header"),
    ], ids=["unaligned", "past-the-header", "negative-offset", "negative-count", "rows-dtype",
            "values-dtype", "tf-dtype", "missing", "float-count", "lines-past-the-header"])
    def test_array_entry_that_cannot_be_viewed_is_refused(self, tmp_path, edit, says):
        path = self.saved(tmp_path)
        edit_index(tmp_path, header=edit)  # the trailer vouches for the header
        with pytest.raises(IndexFormatError,
                           match=re.escape(f"index file {path}: {says}")) as refused:
            load_index(tmp_path)
        if Path("/proc/self/maps").exists():  # the traceback, still held, keeps no map open
            assert refused.value.__traceback__ is not None
            assert str(path.resolve()) not in Path("/proc/self/maps").read_text()

    @pytest.mark.parametrize("field", ["k1", "b", "embedder", "user_keywords", "keys",
                                       "postings_terms", "keywords_terms", "lines", "arrays"])
    def test_header_without_a_field_is_refused(self, tmp_path, field):
        path = self.saved(tmp_path)
        edit_index(tmp_path, header=lambda header: header.pop(field))
        with pytest.raises(IndexFormatError, match=re.escape(
                f"index file {path}: {field!r} is missing or mistyped")):
            load_index(tmp_path)

    def test_header_without_a_format_version_is_refused(self, tmp_path):
        self.saved(tmp_path)
        edit_index(tmp_path, header=lambda header: header.pop("format_version"))
        with pytest.raises(IndexFormatError, match=re.escape(
                f"unsupported index format_version None (expected {FORMAT_VERSION})")):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", _ARRAYS)
    def test_header_without_an_array_entry_is_refused(self, tmp_path, name):
        path = self.saved(tmp_path)
        edit_index(tmp_path, header=lambda header: header["arrays"].pop(name))
        with pytest.raises(IndexFormatError, match=re.escape(
                f"index file {path}: arrays[{name!r}] is not a [dtype, offset, count]")):
            load_index(tmp_path)

    @pytest.mark.parametrize("header, says", [
        (b'{"format_version": ', "Expecting value"),
        (b"\xff{}", "codec can't decode"),
        (None, "the header's length runs past the start of the file"),
    ], ids=["not-json", "not-utf8", "longer-than-the-file"])
    def test_header_that_cannot_be_read_is_refused(self, tmp_path, header, says):
        path = self.saved(tmp_path)
        data = path.read_bytes()
        lo, hi = file_regions(tmp_path)["header"]
        body = data[:lo] + (header or data[lo:hi])
        body += (len(data) if header is None else len(header)).to_bytes(8, "little")
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little") + data[-8:])
        with pytest.raises(IndexFormatError, match=re.escape(f"corrupt index file {path}: ")
                           + f".*{says}"):
            load_index(tmp_path)

    def test_rows_and_terms_out_of_order_are_refused(self, tmp_path):
        """Each change below is re-stamped: the trailer's crc32 holds."""
        self.saved(tmp_path)
        saved = (tmp_path / INDEX_FILE).read_bytes()
        parts = edit_index(tmp_path)
        assert parts["header"]["keywords_terms"] == ["ca-is3641", "epsilon"]
        assert parts["keywords_rows"].tolist() == [0, 2]
        terms, offsets = parts["header"]["postings_terms"], parts["postings_offsets"]
        lo, hi = offsets[terms.index("alpha")], offsets[terms.index("alpha") + 1]
        postings_rows = parts["postings_rows"].copy()
        assert postings_rows[lo:hi].tolist() == [0, 2]
        postings_rows[lo:hi] = [2, 0]

        def refused(problem: str, arrays: dict | None = None, **header) -> None:
            edit_index(tmp_path, lambda parts: parts.update(arrays or {}),
                       lambda h: h.update(header))
            with pytest.raises(IndexFormatError, match=problem):
                load_index(tmp_path)
            (tmp_path / INDEX_FILE).write_bytes(saved)

        not_ascending = "holds a list of rows that is not strictly ascending"
        refused(f"keywords_rows {not_ascending}",  # row 0 holds ca-is3641 twice
                {"keywords_rows": np.array([0, 0, 2], "<u1"),
                 "keywords_offsets": np.array([0, 2, 3], "<i8")})
        refused("'keywords_terms' must hold distinct strings in sorted order",
                keywords_terms=["epsilon", "ca-is3641"])
        refused("'postings_terms' must hold distinct strings in sorted order",
                postings_terms=sorted(terms + terms[:1]))
        refused(f"postings_rows {not_ascending}", {"postings_rows": postings_rows})
        refused(f"vector index {not_ascending}", {"vector_rows": np.array([1, 0, 2], "<u1")})
        tf = parts["postings_tf"]
        refused(f"{len(tf) - 1} posting counts for {len(tf)} posting rows",
                {"postings_tf": tf[:-1]})
        refused("keywords_offsets does not split 2 entries into 2 non-empty parts",
                {"keywords_offsets": np.array([0, 0, 2], "<i8")})  # ca-is3641 owns no row
        load_index(tmp_path)  # each change undone, the index loads again

    def vector_arrays(self, tmp_path):
        arrays = {name: edit_index(self.saved(tmp_path).parent)[f"vector_{name}"]
                  for name in ("offsets", "ordinals", "values")}
        # the 3 vectors leave most of the 256 dimensions without an entry, which is legal
        assert (np.diff(arrays["offsets"]) == 0).any()
        return arrays

    @pytest.mark.parametrize("edit, problem", [
        (lambda a: {"offsets": a["offsets"][:-1]}, "vector_offsets does not split"),
        (lambda a: {"offsets": np.concatenate([[-1], a["offsets"][1:]])},
         "vector_offsets does not split"),
        (lambda a: {"offsets": np.concatenate([a["offsets"][:-1], a["offsets"][-1:] + 1])},
         "vector_offsets does not split"),
        (lambda a: {"offsets": np.concatenate([a["offsets"][:1], a["offsets"][-2:0:-1],
                                               a["offsets"][-1:]])},
         "vector_offsets does not split"),
        (lambda a: {"ordinals": np.concatenate([a["ordinals"][:-1], [3]]).astype("<u1")},
         "vector_ordinals holds rows outside the 3 vectors"),
        # an ordinal below 0 needs a signed type, which is refused
        (lambda a: {"ordinals": np.concatenate([a["ordinals"][:-1], [-1]]).astype("<i4")},
         "arrays['vector_ordinals'] holds '<i4', expected <u1 or <u2 or <u4"),
        (lambda a: {"values": a["values"][:-1]}, "vector values for"),
    ], ids=["offsets-shape", "offsets-start", "offsets-end", "offsets-decrease",
            "ordinal-past-the-vectors", "ordinal-negative", "values-length"])
    def test_vector_store_that_does_not_fit_is_refused(self, tmp_path, edit, problem):
        """Each change is re-stamped: the trailer's crc32 holds."""
        changes = {f"vector_{name}": data for name, data in
                   edit(self.vector_arrays(tmp_path)).items()}
        edit_index(tmp_path, lambda parts: parts.update(changes))
        with pytest.raises(IndexFormatError, match=re.escape(problem)):
            load_index(tmp_path)

    @pytest.mark.parametrize("swap", [True, False], ids=["swapped", "repeated"])
    def test_ordinals_that_do_not_ascend_in_a_dimension_are_refused(self, tmp_path, swap):
        arrays = self.vector_arrays(tmp_path)
        offsets, ordinals = arrays["offsets"], arrays["ordinals"]
        lo = int(offsets[np.flatnonzero(np.diff(offsets) >= 2)[0]])  # a dimension of 2 or more
        ordinals[lo:lo + 2] = ordinals[[lo + 1, lo]] if swap else ordinals[lo]
        edit_index(tmp_path, lambda parts: parts.update(vector_ordinals=ordinals))
        with pytest.raises(InconsistentIndexError, match="vector_ordinals holds a list of "
                                                         "rows that is not strictly ascending"):
            load_index(tmp_path)

    def test_term_counts_past_a_byte_are_stored_in_two_bytes(self, tmp_path):
        segments = [seg("d", "1", "vcc " * 256 + "gain"), seg("d", "2", "vcc gain gain")]
        bundle = build_indices(segments, HashingEmbedder(dim=16))
        save_index(bundle, tmp_path)
        assert edit_index(tmp_path)["postings_tf"].dtype == np.dtype("<u2")
        loaded = load_index(tmp_path)
        assert loaded.bm25.tf.tolist() == bundle.bm25.tf.tolist() == [1, 2, 256, 1]
        for query in ["vcc", "gain vcc vcc", "none"]:
            for key in bundle.keys:
                assert (bm25_scores(loaded.bm25, query)[key]
                        == bm25_score(loaded.bm25, query, key)
                        == bm25_score(bundle.bm25, query, key))

    @pytest.mark.parametrize("keys, says", [
        (7, "is missing or mistyped"), ("d1#1", "is missing or mistyped"),
        ({"d1#1": 0}, "is missing or mistyped"), (["d1#1", 7, "d2#1"], "must be a list of strings"),
        (["d1#1", None, "d2#1"], "must be a list of strings")])
    def test_keys_that_are_not_a_list_of_strings_are_refused(self, tmp_path, keys, says):
        self.saved(tmp_path)
        edit_index(tmp_path, header=lambda h: h.update(keys=keys))
        with pytest.raises(IndexFormatError, match=re.escape(f"'keys' {says}")):
            load_index(tmp_path)

    def test_segment_row_holding_another_key_is_refused_when_read(self, tmp_path):
        """A line stores its ids only when its doc_id holds "#"; then they must make
        the row's key. A line without them takes them from the key."""
        save_index(build_indices([seg("d#1", "1", "alpha"), seg("d1", "1", "beta")],
                                 HashingEmbedder()), tmp_path)
        assert edit_index(tmp_path)["header"]["keys"] == ["d#1#1", "d1#1"]
        edit_index(tmp_path, header=lambda h: h.update(keys=["d#1#0", "d1#0"]))  # in key order
        loaded = load_index(tmp_path)
        with pytest.raises(IndexFormatError, match="segment row 0 holds 'd#1#1', not 'd#1#0'"):
            loaded.segments[0]
        assert (loaded.segments[1].doc_id, loaded.segments[1].segment_id) == ("d1", "0")

    def test_keys_out_of_key_order_are_refused_at_load(self, tmp_path):
        self.saved(tmp_path)
        keys = edit_index(tmp_path)["header"]["keys"]
        keys[1], keys[2] = keys[2], keys[1]
        edit_index(tmp_path, header=lambda h: h.update(keys=keys))
        with pytest.raises(InconsistentIndexError, match=re.escape(
                f"segments are not in key order: row 2 is {keys[2]!r}, after {keys[1]!r}")):
            load_index(tmp_path)

    def test_version_mismatch_refuses_to_load(self, tmp_path):
        self.saved(tmp_path)
        edit_index(tmp_path, header=lambda h: h.update(format_version=99))
        with pytest.raises(IndexFormatError, match=re.escape(
                f"unsupported index format_version 99 (expected {FORMAT_VERSION})")):
            load_index(tmp_path)

    def test_missing_index_is_instructive(self, tmp_path):
        for directory in (tmp_path / "empty", tmp_path):
            with pytest.raises(IndexFormatError, match=re.escape(
                    f"no index at {directory / INDEX_FILE}")):
                load_index(directory)

    def test_empty_index_round_trips(self, tmp_path):
        bundle = build_indices([], HashingEmbedder())
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.keys == []
        assert loaded.vectors.entries == {}
        assert loaded.bm25.keys == [] and len(loaded.bm25.postings) == 0


class TestStoredSegments:
    def saved(self, tmp_path):
        segments = [seg("d", str(i), f"text {i} \u00e9\u2028\n") for i in range(4)]
        segments[2].metadata_path = ["d title", "2 body"]
        save_index(build_indices(segments, HashingEmbedder()), tmp_path)
        return segments, load_index(tmp_path).segments

    def test_rows_decode_to_the_saved_segments(self, tmp_path):
        segments, stored = self.saved(tmp_path)
        assert isinstance(stored, StoredSegments)
        assert len(stored) == 4
        assert [stored[i] for i in range(4)] == segments
        assert stored[-1] == segments[-1]
        assert stored[1:3] == segments[1:3]
        assert list(stored) == segments
        assert stored == segments
        with pytest.raises(IndexError):
            stored[4]

    def test_each_read_decodes_a_fresh_segment(self, tmp_path):
        _, stored = self.saved(tmp_path)
        stored[0].title = "changed"
        assert stored[0].title == "0"


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1,
                                  3 * (1 << 20) + 7])
def test_crc32_sums_every_window_of_a_prefix(tmp_path, size):
    data = random.Random(size).randbytes(size + 20)  # a prefix, as of an index file's trailer
    (tmp_path / "file").write_bytes(data)
    with open(tmp_path / "file", "rb") as f:
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data_map:
            assert _crc32(data_map, size) == zlib.crc32(data[:size])


def _mappings(path: Path) -> list[int]:
    """The ``Rss`` in kB of each mapping of ``path`` in ``/proc/self/smaps``."""
    rss, mine = [], False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):  # a mapping's first line ends in its path
            mine = line.endswith(f" {path}")
        elif mine and line.startswith("Rss:"):
            rss.append(int(line.split()[1]))
    return rss


@pytest.fixture(scope="module")
def large_index(tmp_path_factory) -> Path:
    """An index whose segment lines are over 4 MiB (six windows), saved once for the module."""
    body = "isolation voltage " * 240
    segments = [seg("d", f"{i:04d}", f"part {i} {body}") for i in range(600)]
    directory = Path(os.path.realpath(tmp_path_factory.mktemp("large"))) / "index"
    save_index(build_indices(segments, HashingEmbedder(dim=16)), directory)
    assert edit_index(directory)["header"]["lines"] >= 4 << 20
    return directory


class TestWindowedChecks:
    """The file's crc32 is summed through its map one 1 MiB window at a time, and each
    window is dropped once summed: the map a loaded index keeps holds only the rows a
    query decodes, and a refused file is left neither open nor mapped."""

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="no /proc/self/smaps")
    def test_the_kept_segment_map_holds_only_the_rows_read(self, large_index):
        loaded = load_index(large_index)
        [rss] = _mappings(large_index / INDEX_FILE)  # the one mapping of the file
        assert rss < 1024
        row = len(loaded.segments) // 2
        assert loaded.segments[row].key == loaded.keys[row]
        [rss] = _mappings(large_index / INDEX_FILE)
        assert rss < 1024

    @pytest.mark.parametrize("damage", ["flip", "cut"])
    def test_damage_in_the_last_window_is_refused_and_unmapped(self, large_index, tmp_path,
                                                               damage):
        directory = Path(os.path.realpath(shutil.copytree(large_index, tmp_path / "index")))
        path = directory / INDEX_FILE
        data = bytearray(path.read_bytes())
        last = (len(data) - 13) >> 20 << 20  # where the last window the crc32 sums starts
        assert last >= 3 << 20
        if damage == "flip":
            data[(last + len(data) - 12) // 2] ^= 0x01
            says = f"index file {path} does not match its crc32"
        else:
            del data[-1]
            says = f"index file {path} does not end in an index's magic"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match=re.escape(says)) as refused:
            load_index(directory)
        if Path("/proc/self/maps").exists():  # the traceback, still held, keeps no map open
            assert refused.value.__traceback__ is not None
            assert str(path) not in Path("/proc/self/maps").read_text()


class TestOneMap:
    """Each array is a view of the one map whose crc32 the load checked, and the map's
    pages are dropped once the bundle is built."""

    def test_a_file_swapped_after_its_check_is_not_the_one_loaded(self, tmp_path, monkeypatch):
        segments = [seg("d", f"{i:02d}", f"alpha beta w{i} " * (i + 1)) for i in range(20)]
        directory, other = tmp_path / "index", tmp_path / "other"
        save_index(build_indices(segments, HashingEmbedder(dim=16)), directory)
        save_index(build_indices(segments[:3], HashingEmbedder(dim=16)), other)
        checked = edit_index(directory)
        crc32 = hiret.store._crc32

        def swapping(data, end):  # another valid index is renamed in after the check
            crc = crc32(data, end)
            os.replace(other / INDEX_FILE, directory / INDEX_FILE)
            return crc

        monkeypatch.setattr(hiret.store, "_crc32", swapping)
        loaded = load_index(directory)
        assert len(edit_index(directory)["header"]["keys"]) == 3
        assert loaded.vectors.values.tobytes() == checked["vector_values"].tobytes()
        assert loaded.bm25.tf.tobytes() == checked["postings_tf"].tobytes()
        assert loaded.bm25.lengths.tolist() == [3 * (i + 1) for i in range(20)]
        assert list(loaded.segments) == sorted(segments, key=lambda s: s.key)

    @pytest.mark.skipif(not (Path("/proc/self/smaps").exists() and hasattr(mmap, "MADV_DONTNEED")),
                        reason="no /proc/self/smaps or no MADV_DONTNEED")
    def test_the_checked_arrays_are_not_left_resident(self, tmp_path):
        text = " ".join(f"t{j}" for j in range(1000))  # 400 000 postings: 800 KB of <u2 rows
        segments = [seg("d", f"{i:03d}", f"{text} x{i}") for i in range(400)]
        bundle = build_indices(segments, HashingEmbedder(dim=16))
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        [rss] = _mappings(Path(os.path.realpath(tmp_path)) / INDEX_FILE)  # its one map
        assert rss < 64  # kB; the load checks read every row, ordinal and term count
        lo, hi = file_regions(tmp_path)["postings_rows"]
        assert hi - lo > 800_000
        assert loaded.bm25.lengths.tolist() == [1001] * 400  # read again, through the map
        assert loaded.bm25.postings.rows.tobytes() == bundle.bm25.postings.rows.tobytes()


class TestDerivableText:
    """A stored segment line leaves out the ``embedding_text`` that ``path_text``
    derives from its path and content; every other text is stored as it is."""

    def segments(self):
        parts = [("1", "intro", "text", "the CA-IS3641 transceiver"),
                 ("2", "empty", "text", ""),
                 ("3", "ratings", "table", "Table: supply\n| parameter | max |\n|---|---|\n"
                                           "| vcc | 5.5 |"),
                 ("4", "package", "image", "![pinout](pinout.png)\nseen from above"),
                 ("5", "layout", "image", "![board](board.png)"),
                 ("6", "notes", "text", " padded\u2028body\n")]
        doc = DocumentRecord(doc_id="d", title="CA-IS3641 datasheet", source_path="d.md",
                             images=[ImageAsset("img1", "pinout.png", "sixteen pin package")])
        doc.attach_segments([Segment(segment_id=number, chapter_number=number, level=1,
                                     title=title, kind=kind, content=content)
                             for number, title, kind, content in parts])
        return augment_document(doc)

    def stored_texts(self, directory):
        """Each segment id's stored ``embedding_text``, None where the line leaves it out;
        a line leaves out the ids its key gives, so they are read from the keys."""
        parts = edit_index(directory)
        lines, keys = parts["lines"].splitlines(), parts["header"]["keys"]
        return {key.partition("#")[2]: json.loads(line).get("embedding_text")
                for key, line in zip(keys, lines, strict=True)}

    def test_only_a_derivable_text_is_left_out_and_each_round_trips(self, tmp_path):
        segments = self.segments()
        by_id = {s.segment_id: s for s in segments}
        assert by_id["2"].embedding_text == "CA-IS3641 datasheet > 2 empty"
        assert by_id["4"].embedding_text.startswith("CA-IS3641 datasheet > 4 package\nsixteen")
        assert by_id["5"].embedding_text == ""  # an image with no description
        first, rebuilt = tmp_path / "first", tmp_path / "rebuilt"
        save_index(build_indices(segments, HashingEmbedder()), first)
        stored = self.stored_texts(first)
        assert stored == {"1": None, "2": None, "3": by_id["3"].embedding_text,
                          "4": by_id["4"].embedding_text, "5": "", "6": None}
        loaded = load_index(first)
        assert list(loaded.segments) == segments
        # the loaded segments, derived texts included, rebuild the index byte for byte
        save_index(build_indices(loaded.segments, HashingEmbedder()), rebuilt)
        assert dir_bytes(first) == dir_bytes(rebuilt)

    def test_baseline_segments_round_trip(self, tmp_path):
        plain = without_augmentation(self.segments())
        save_index(build_indices(plain, HashingEmbedder()), tmp_path)
        # content under no path derives "\n" + content, so only the empty one is left out
        stored = self.stored_texts(tmp_path)
        assert [sid for sid, text in stored.items() if text is None] == ["2"]
        assert list(load_index(tmp_path).segments) == plain
        assert path_text([], "") == "" and path_text(["a", "b"], "c") == "a > b\nc"


class TestDerivedSegmentFields:
    """A stored line leaves out the ``doc_id`` and ``segment_id`` that its key partitions
    into (unless ``doc_id`` holds "#"), a ``chapter_number`` that is its ``segment_id``,
    a kind of ``_KINDS`` (the ``segment_kinds`` array holds it), a ``level`` of the path's
    length minus 1, and a path that is its parent's plus its HCA label: the parent is a
    lower row of the same run of its document's rows (``segment_parents``) or, for the
    reserved value ``len(keys)``, its document's title in the header's ``titles``. Every
    other field is stored. Every case decodes to the segments saved, and re-saving the
    loaded index reproduces every byte."""

    def document(self, doc_id, title, chapters, kind="text"):
        """HCA's segments of a document of ``(segment id, number, level, title)`` chapters."""
        doc = DocumentRecord(doc_id=doc_id, title=title, source_path=f"{doc_id}.md")
        doc.attach_segments([Segment(segment_id=sid, chapter_number=number, level=level,
                                     title=name, kind=kind, content=f"body of {sid}")
                             for sid, number, level, name in chapters])
        return augment_document(doc)

    def round_trip(self, tmp_path, segments) -> list[dict]:
        """The stored lines, once the segments round-trip and re-save byte for byte; each
        line also gets its row's ``parent`` (None for the title) and its ``title_of``."""
        first, again = tmp_path / "first", tmp_path / "again"
        save_index(build_indices(segments, HashingEmbedder(dim=16)), first)
        loaded = load_index(first).segments
        assert isinstance(loaded, StoredSegments)
        assert list(loaded) == sorted(segments, key=lambda s: s.key)
        assert [loaded[row] for row in range(len(loaded))] == list(loaded)  # read alone too
        save_index(load_index(first), again)
        assert dir_bytes(first) == dir_bytes(again)
        parts = edit_index(first)
        n, titles = len(segments), parts["header"]["titles"]
        assert parts["segment_parents"].dtype == np.dtype(_narrowest(n))
        lines = [json.loads(line) for line in parts["lines"].splitlines()]
        for row, (line, parent) in enumerate(zip(lines, parts["segment_parents"].tolist())):
            assert parent < row or parent == n  # a lower row, or the title
            line.update(parent=None if parent == n else parent)
        return lines, titles

    def test_a_doc_id_holding_the_key_separator_stores_both_ids(self, tmp_path):
        segments = self.document("a#b", "A", [("1", "1", 1, "x"), ("1.1", "1.1", 2, "y")])
        segments += self.document("a", "A", [("b#1", "1", 1, "x")])  # key "a#b#1" too, no "#"
        segments[-1].segment_id = "b#1"
        lines, titles = self.round_trip(tmp_path, segments[:2])
        assert [(line["doc_id"], line["segment_id"]) for line in lines] == [
            ("a#b", "1"), ("a#b", "1.1")]
        assert [line["parent"] for line in lines] == [None, 0] and titles == {"a#b": "A"}
        assert all("metadata_path" not in line for line in lines)
        (line,), _ = self.round_trip(tmp_path / "plain", segments[2:])
        assert "doc_id" not in line and "segment_id" not in line
        assert line["chapter_number"] == "1"  # not the segment id "b#1"

    def test_a_preamble_keeps_its_path_whole_unless_it_is_first(self, tmp_path):
        segments = self.document("d", "Doc", [("preamble", "", 0, "Doc"), ("1", "1", 1, "x")])
        assert [s.metadata_path for s in segments] == [["Doc"], ["Doc", "1 x"]]
        lines, titles = self.round_trip(tmp_path, segments)  # key order: 1, preamble
        assert titles == {"d": "Doc"}  # from "1 x", whose path less its label is ["Doc"]
        assert [line.get("metadata_path") for line in lines] == [None, ["Doc"]]
        assert [line.get("chapter_number") for line in lines] == [None, ""]
        assert all("level" not in line and "kind" not in line for line in lines)

    def test_an_empty_chapter_title_is_labelled_by_its_number(self, tmp_path):
        segments = self.document("d", "Doc", [("1", "1", 1, ""), ("1.1", "1.1", 2, "")])
        assert segments[1].metadata_path == ["Doc", "1", "1.1"]
        lines, _ = self.round_trip(tmp_path, segments)
        assert [line["parent"] for line in lines] == [None, 0]
        assert lines == [{"content": "body of 1", "parent": None, "title": ""},
                         {"content": "body of 1.1", "parent": 0, "title": ""}]

    def test_a_chapter_with_no_parent_chapter_hangs_from_the_title(self, tmp_path):
        segments = self.document("d", "Doc", [("1", "1", 1, "x"), ("2.1", "2.1", 2, "y")])
        assert segments[1].metadata_path == ["Doc", "2.1 y"]
        lines, titles = self.round_trip(tmp_path, segments)
        assert [line["parent"] for line in lines] == [None, None] and titles == {"d": "Doc"}
        assert [line.get("level") for line in lines] == [None, 2]  # not the path length - 1

    def test_a_chapter_with_no_parent_hangs_under_the_nearest_prefix(self, tmp_path):
        segments = self.document("d", "Doc", [("1", "1", 1, "x"), ("1.2.1", "1.2.1", 3, "y")])
        assert segments[1].metadata_path == ["Doc", "1 x", "1.2.1 y"]
        lines, _ = self.round_trip(tmp_path, segments)
        assert [line["parent"] for line in lines] == [None, 0]
        assert [line.get("level") for line in lines] == [None, 3]

    def test_a_repeated_chapter_number_takes_over_its_subchapters(self, tmp_path):
        segments = self.document("d", "Doc", [("3", "3", 1, "x"), ("3+2", "3", 1, "y"),
                                              ("3.1", "3.1", 2, "z")])
        assert segments[2].metadata_path == ["Doc", "3 y", "3.1 z"]
        lines, _ = self.round_trip(tmp_path, segments)  # key order: 3, 3+2, 3.1
        assert [line["parent"] for line in lines] == [None, None, 1]
        assert [line.get("chapter_number") for line in lines] == [None, "3", None]

    def test_an_empty_document_title_adds_no_root(self, tmp_path):
        segments = self.document("d", "", [("1", "1", 1, "x"), ("1.1", "1.1", 2, "y")])
        assert [s.metadata_path for s in segments] == [["1 x"], ["1 x", "1.1 y"]]
        lines, titles = self.round_trip(tmp_path, segments)
        assert titles == {"d": ""} and [line["parent"] for line in lines] == [None, 0]
        assert [line["level"] for line in lines] == [1, 2]  # the path lengths - 1 are 0, 1
        assert all("metadata_path" not in line for line in lines)

    def test_a_document_split_by_another_documents_rows(self, tmp_path):
        """Doc "a"'s rows are 0 and 2, split by doc "a#b"'s row 1: a path under a row of an
        earlier run of the document is stored whole, one under the title is not."""
        segments = self.document("a", "A", [("1", "1", 1, "x"), ("c", "1.1", 2, "y"),
                                            ("z", "2", 1, "w")])
        segments += self.document("a#b", "B", [("1", "1", 1, "v")])
        lines, titles = self.round_trip(tmp_path, segments)
        assert [s.key for s in sorted(segments, key=lambda s: s.key)] == [
            "a#1", "a#b#1", "a#c", "a#z"]
        assert titles == {"a": "A", "a#b": "B"}
        assert [line["parent"] for line in lines] == [None, None, None, None]
        assert [line.get("metadata_path") for line in lines] == [None, None, ["A", "1 x", "1.1 y"],
                                                                 None]
        assert [line.get("level") for line in lines] == [None, None, None, None]

    def test_a_document_whose_segments_disagree_on_the_title(self, tmp_path):
        segments = self.document("d", "Doc", [("1", "1", 1, "x")])
        segments += self.document("d", "Other", [("2", "2", 1, "y")])
        lines, titles = self.round_trip(tmp_path, segments)
        assert titles == {"d": "Doc"}  # the first row's
        assert [line.get("metadata_path") for line in lines] == [None, ["Other", "2 y"]]

    def test_a_kind_outside_the_three_is_stored(self, tmp_path):
        segments = self.document("d", "Doc", [("1", "1", 1, "x"), ("2", "2", 1, "y")])
        segments[1].kind = "weird"
        segments += self.document("e", "E", [("1", "1", 1, "z")], kind="table")
        lines, _ = self.round_trip(tmp_path, segments)
        assert [line.get("kind") for line in lines] == [None, "weird", None]
        assert edit_index(tmp_path / "first")["segment_kinds"].tolist() == [0, 0, 1]

    def test_a_path_not_ending_in_its_label_is_stored_whole(self, tmp_path):
        hand_built = Segment(segment_id="1", chapter_number="1", level=1, title="x",
                             kind="text", content="body", doc_id="d",
                             embedding_text="X > 1 y\nbody", metadata_path=["X", "1 y"])
        near_miss = Segment(segment_id="2", chapter_number="2", level=1, title=" x ",
                            kind="text", content="", doc_id="d", metadata_path=["2 x "])
        lines, titles = self.round_trip(tmp_path, [hand_built, near_miss])
        assert [line["metadata_path"] for line in lines] == [["X", "1 y"], ["2 x "]]
        assert titles == {}

    def test_segments_without_augmentation_store_their_empty_path(self, tmp_path):
        segments = without_augmentation(self.document("d", "Doc", [("1", "1", 1, "x"),
                                                                   ("2", "2", 1, "")]))
        lines, _ = self.round_trip(tmp_path, segments)
        assert [line["metadata_path"] for line in lines] == [[], []]
        assert [line["level"] for line in lines] == [1, 1]

    def test_a_chain_deeper_than_the_recursion_limit_decodes(self, tmp_path):
        depth = sys.getrecursionlimit() + 100
        numbers = [f"{i:04d}" for i in range(depth)]
        segments = [Segment(segment_id=number, chapter_number=number, level=i, title="",
                            kind="text", content="", doc_id="d", embedding_text="x",
                            metadata_path=numbers[:i + 1]) for i, number in enumerate(numbers)]
        save_index(build_indices(segments, HashingEmbedder(dim=16)), tmp_path)
        assert edit_index(tmp_path)["segment_parents"].tolist() == [depth, *range(depth - 1)]
        stored = load_index(tmp_path).segments
        assert stored[-1] == segments[-1]  # read alone, up a chain of every row
        assert list(stored) == segments

    TREE_PROBLEM = ("segment_parents and segment_kinds must give each of the 3 segments a lower "
                    f"row or 3 (its title) and a kind of {_KINDS}")

    @pytest.mark.parametrize("arrays, titles, says", [
        ({"segment_parents": [3, 1, 3]}, None, TREE_PROBLEM),  # row 1 its own parent: a cycle
        ({"segment_parents": [1, 0, 3]}, None, TREE_PROBLEM),  # rows 0 and 1 each other's
        ({"segment_parents": [4, 0, 3]}, None, TREE_PROBLEM),  # past the title's value
        ({"segment_parents": [3, 0]}, None, TREE_PROBLEM),
        ({"segment_kinds": [0, 3, 0]}, None, TREE_PROBLEM),
        ({"segment_kinds": [0, 0]}, None, TREE_PROBLEM),
        ({}, {"d": 7}, "'titles' must map document ids to strings"),
    ], ids=["own-row", "higher-row", "past-the-title", "short-parents", "kind-past-the-three",
            "short-kinds", "title-not-a-string"])
    def test_a_heading_tree_that_is_not_one_is_refused_at_load(self, tmp_path, arrays, titles,
                                                               says):
        """Each change is re-stamped: the trailer's crc32 holds."""
        segments = self.document("d", "Doc", [("1", "1", 1, "x"), ("1.1", "1.1", 2, "y"),
                                              ("2", "2", 1, "z")])
        save_index(build_indices(segments, HashingEmbedder(dim=16)), tmp_path)
        parts = edit_index(tmp_path)
        assert parts["segment_parents"].tolist() == [3, 0, 3]
        assert parts["header"]["titles"] == {"d": "Doc"}
        edit_index(tmp_path, lambda parts: parts.update(
            {name: np.array(values, "<u1") for name, values in arrays.items()}),
            lambda header: header.update(titles=titles or header["titles"]))
        with pytest.raises(IndexFormatError, match=re.escape(says)):
            load_index(tmp_path)

    def test_a_title_missing_from_the_table_is_refused_when_read(self, tmp_path):
        segments = self.document("d", "Doc", [("1", "1", 1, "x"), ("1.1", "1.1", 2, "y")])
        save_index(build_indices(segments, HashingEmbedder(dim=16)), tmp_path)
        edit_index(tmp_path, header=lambda header: header.update(titles={}))
        stored = load_index(tmp_path).segments
        for row in (0, 1):  # row 1's parent, row 0, hangs from the title
            with pytest.raises(IndexFormatError, match="segment row 0 is not a segment: 'd'"):
                stored[row]

    def test_iterating_decodes_each_line_once(self, tmp_path, monkeypatch):
        segments = self.document("d", "Doc", [("1", "1", 1, "x"), ("1.1", "1.1", 2, "y"),
                                              ("1.1.1", "1.1.1", 3, "z"), ("2", "2", 1, "w")])
        save_index(build_indices(segments, HashingEmbedder(dim=16)), tmp_path)
        stored, loads = load_index(tmp_path).segments, []
        monkeypatch.setattr(json, "loads", lambda data: loads.append(bytes(data))
                            or json.JSONDecoder().decode(bytes(data).decode("utf-8")))
        assert list(stored) == segments
        assert len(loads) == len(set(loads)) == 4  # each row's line once
        loads.clear()
        assert stored[2] == segments[2]  # read alone, "1.1.1" decodes its parent chain
        assert len(loads) == 3
        iterated = iter(stored)
        next(iterated).metadata_path.append("changed")  # a read segment is its reader's
        assert list(iterated) == segments[1:]


@pytest.mark.parametrize("count, dtype", [(0, "<u1"), (255, "<u1"), (256, "<u2"),
                                          (65_535, "<u2"), (65_536, "<u4"),
                                          (2 ** 32 - 1, "<u4")])
def test_the_narrowest_type_holds_the_count(count, dtype):
    assert _narrowest(count) == dtype


@pytest.mark.parametrize("n, dtype", [(255, "<u1"), (257, "<u2")])
def test_row_arrays_are_stored_and_loaded_in_the_narrowest_type(tmp_path, n, dtype):
    """257 segments cross from <u1 rows to <u2: row 256 is one past a byte. In memory the
    vector rows are intp, which every query scatters through."""
    segments = [seg("d", f"{i:03d}", f"common w{i} w{i}") for i in range(n)]  # never cancels
    bundle = build_indices(segments, HashingEmbedder(dim=16))
    save_index(bundle, tmp_path / "first")
    parts = edit_index(tmp_path / "first")
    assert {name: parts[name].dtype for name in _ARRAYS
            if name.endswith(("_rows", "_ordinals", "_tf"))} == {
        "vector_rows": np.dtype(dtype), "vector_ordinals": np.dtype(dtype),  # n vectors
        "postings_rows": np.dtype(dtype), "keywords_rows": np.dtype(dtype),
        "postings_tf": np.dtype("<u1")}
    loaded = load_index(tmp_path / "first")
    assert bundle.vectors.rows.dtype == loaded.vectors.rows.dtype == np.intp  # scattered through
    assert bundle.vectors.rows.tolist() == loaded.vectors.rows.tolist() == list(range(n))
    for built, read in ((bundle.vectors.ordinals, loaded.vectors.ordinals),
                        (bundle.bm25.postings.rows, loaded.bm25.postings.rows),
                        (bundle.keywords.rows.rows, loaded.keywords.rows.rows)):
        assert built.dtype == read.dtype == np.dtype(dtype)
        assert built.tolist() == read.tolist()
    assert loaded.bm25.postings["common"].tolist() == list(range(n))
    assert bm25_route(loaded.bm25, "common w200").tobytes() == bm25_route(
        bundle.bm25, "common w200").tobytes()
    save_index(loaded, tmp_path / "again")
    assert dir_bytes(tmp_path / "first") == dir_bytes(tmp_path / "again")


# Strings the segment-line writer must escape as the encoder does: quotes, backslashes,
# control characters, line and paragraph separators, the path separator, non-ASCII; and
# the key separator "#" and the space a chapter label strips.
_LINE_TEXTS = st.lists(st.one_of(st.sampled_from(
    ['"', "\\", "/", "\x7f", "\u2028", "\u2029", "\u00e9", "\u4e2d", "\U0001f600", " > ", "a",
     "#", " "]),
    st.characters(max_codepoint=0x1F),
    st.characters(blacklist_categories=("Cs",))), max_size=8).map("".join)


@st.composite
def _line_segments(draw):
    """A segment, and whether its path is derived: it ends in its HCA label, and the rest
    is the root of a document title (the tree's other parent, a lower row, needs a second
    line; the round-trip tests cover it)."""
    number, title = draw(_LINE_TEXTS), draw(_LINE_TEXTS)
    path = draw(st.lists(_LINE_TEXTS, max_size=3))  # an empty path too
    labelled = draw(st.booleans())
    if labelled:  # ending in the label HCA gives the chapter
        path.append(f"{number} {title}".strip())
    root = len(path[:-1]) < 2 and path[:-1] != [""]  # [] or [title]: the root of a title
    content = draw(_LINE_TEXTS)
    derivable = draw(st.booleans())
    return Segment(segment_id=draw(st.one_of(st.just(number), _LINE_TEXTS)),
                   chapter_number=number,
                   level=draw(st.one_of(st.just(len(path) - 1),
                                        st.integers(-(2 ** 70), 2 ** 70))), title=title,
                   kind=draw(st.one_of(st.sampled_from(_KINDS), _LINE_TEXTS)), content=content,
                   doc_id=draw(_LINE_TEXTS),
                   embedding_text=path_text(path, content) if derivable else draw(_LINE_TEXTS),
                   metadata_path=path), labelled and root and draw(st.booleans())


class TestSegmentLine:
    @settings(max_examples=300, deadline=None)
    @given(drawn=_line_segments())
    def test_is_the_compact_encoders_line(self, drawn):
        segment, derived = drawn
        fields = dict(vars(segment))
        if segment.embedding_text == path_text(segment.metadata_path, segment.content):
            del fields["embedding_text"]
        if "#" not in segment.doc_id:  # the key partitions back into both ids
            del fields["doc_id"], fields["segment_id"]
        if segment.chapter_number == segment.segment_id:
            del fields["chapter_number"]
        if segment.kind in _KINDS:  # segment_kinds holds it
            del fields["kind"]
        if segment.level == len(segment.metadata_path) - 1:
            del fields["level"]
        if derived:  # segment_parents and the header's titles give it
            del fields["metadata_path"]
        quoted = _Memo(_quote)  # the second line reads every short string from the memo
        line = _segment_line(segment, quoted, derived)
        assert line == _json_bytes(fields) == _segment_line(segment, quoted, derived)

    @settings(max_examples=300, deadline=None)
    @given(drawn=_line_segments())
    def test_decodes_to_the_segment_it_was_written_from(self, drawn):
        segment, derived = drawn
        line = _segment_line(segment, _Memo(_quote), derived)
        kind = _KINDS.index(segment.kind) if segment.kind in _KINDS else 0
        titles = {segment.doc_id: "".join(segment.metadata_path[:-1])} if derived else {}
        (decoded,) = StoredSegments([segment.key], line, np.array([0, len(line)]),
                                    np.array([1], "<u1"), np.array([kind], "<u1"), titles)
        assert decoded == segment
        assert _segment_line(decoded, _Memo(_quote), derived) == line

    @pytest.mark.parametrize("name, value", [("level", True), ("metadata_path", ["d", 1]),
                                             ("level", -1.0)])  # the path's length - 1
    def test_a_field_of_another_type_raises_at_save_and_keeps_the_index(self, tmp_path,
                                                                       name, value):
        target = tmp_path / "index"
        save_index(build_indices([seg("d", "1", "alpha")], HashingEmbedder()), target)
        def contents():
            return {p.name: p.read_bytes() for p in target.iterdir()}

        before = contents()
        bundle = build_indices([seg("d", "1", "beta")], HashingEmbedder())
        setattr(bundle.segments[0], name, value)  # the encoder would write true, or 1
        with pytest.raises(TypeError):
            save_index(bundle, target)
        assert contents() == before
        assert [p.name for p in tmp_path.iterdir()] == ["index"]


class TestAtomicSave:
    def bundle(self, texts):
        segments = [seg("d", str(i), text) for i, text in enumerate(texts)]
        return build_indices(segments, HashingEmbedder())

    def older_index(self, target, version, names):
        """An index directory of format ``version``: its ``names`` and a manifest."""
        target.mkdir()
        for name in names:
            (target / name).write_text("{}", encoding="utf-8")
        (target / "manifest.json").write_text(json.dumps({"format_version": version}),
                                              encoding="utf-8")

    def test_replaces_an_index_and_leaves_no_staging_directory(self, tmp_path):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha", "beta"]), target)
        save_index(self.bundle(["gamma delta"]), target)
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert os.listdir(target) == [INDEX_FILE]
        assert load_index(target).keys == ["d#0"]

    def test_replaces_a_format_10_index_of_the_same_file_name(self, tmp_path):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha", "beta"]), target)
        as_format_10(target)
        assert "titles" not in edit_index(target)["header"]
        with pytest.raises(IndexFormatError, match=re.escape(
                f"unsupported index format_version 10 (expected {FORMAT_VERSION})")):
            load_index(target)
        save_index(self.bundle(["gamma delta"]), target)
        assert os.listdir(target) == [INDEX_FILE]
        assert edit_index(target)["header"]["format_version"] == FORMAT_VERSION
        assert [s.content for s in load_index(target).segments] == ["gamma delta"]

    def test_a_loaded_index_reads_on_after_a_save_replaces_its_files(self, tmp_path):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha", "beta"]), target)
        loaded = load_index(target)
        save_index(loaded, target)  # every byte again, in a new inode
        assert list(load_index(target).segments) == list(loaded.segments)
        save_index(self.bundle(["gamma delta"]), target)  # removes the file loaded maps
        assert [s.content for s in loaded.segments] == ["alpha", "beta"]
        assert loaded.bm25.postings["beta"].tolist() == [1]

    def test_save_that_raises_at_any_step_keeps_the_previous_or_the_new_index(
            self, tmp_path, monkeypatch):
        # For every k, the save fails at its k-th open, write, fsync or rename. The rename
        # commits it, so the directory's fsync after it fails a save that is in place.
        target = tmp_path / "index"
        old = self.bundle(["alpha beta CA-IS3641", "gamma", "alpha epsilon"])
        new = self.bundle(["other", "texts"])

        def contents():
            return {p.name: p.read_bytes() for p in target.iterdir()}

        save_index(new, target)
        new_bytes = contents()
        save_index(old, target)
        old_bytes = contents()
        cfg = RetrievalConfig()
        expected = [retrieve(q, load_index(target), cfg).ranking for q in ["alpha", "ca-is3641"]]
        real_open, steps, fail_at = open, [], 0

        def step(name):
            steps.append(name)
            if len(steps) == fail_at:
                raise OSError(f"{name} failed")

        def counted(name, real):
            def call(*args, **kwargs):
                step(name)
                return real(*args, **kwargs)
            return call

        class Written:  # a file opened for writing, each write a step
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                step("write")
                return self.f.write(data)

            def __getattr__(self, name):
                return getattr(self.f, name)

        def opened(file, mode="r", *args, **kwargs):  # reads are not steps
            if "w" not in mode:
                return real_open(file, mode, *args, **kwargs)
            step("open")
            return Written(real_open(file, mode, *args, **kwargs))

        for fail_at in count(1):
            steps.clear()
            with monkeypatch.context() as patch:
                patch.setattr(hiret.store, "open", opened, raising=False)
                patch.setattr(os, "fsync", counted("fsync", os.fsync))
                patch.setattr(os, "replace", counted("replace", os.replace))
                try:
                    save_index(new, target)
                except OSError:
                    pass
                else:
                    assert len(steps) < fail_at, steps
            if len(steps) < fail_at:  # every step ran and none failed
                break
            assert [p.name for p in tmp_path.iterdir()] == ["index"], steps
            if "replace" in steps[:fail_at - 1]:  # committed: only the directory's fsync
                assert steps[fail_at - 1:] == ["fsync"], steps
                assert contents() == new_bytes, steps
                assert load_index(target).keys == new.keys
            else:  # the old index, as it was, and the temporary removed
                assert contents() == old_bytes, steps
                assert [retrieve(q, load_index(target), cfg).ranking
                        for q in ["alpha", "ca-is3641"]] == expected
            save_index(old, target)
            assert contents() == old_bytes
        assert fail_at == len(steps) + 1
        assert steps[0] == "open" and steps[-3:] == ["fsync", "replace", "fsync"], steps
        assert set(steps) == {"open", "write", "fsync", "replace"}, steps
        assert contents() == new_bytes

    def test_first_save_that_raises_leaves_no_directory(self, tmp_path, monkeypatch, caplog):
        def failing(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing)
        with pytest.raises(OSError, match="disk full"):
            save_index(self.bundle(["alpha"]), tmp_path / "a" / "b" / "index")
        assert list(tmp_path.iterdir()) == []

        def busy(*args):
            raise OSError("busy")

        monkeypatch.setattr(Path, "rmdir", busy)  # logged, and the save's own error raised
        with pytest.raises(OSError, match="disk full"):
            save_index(self.bundle(["alpha"]), tmp_path / "a" / "b" / "index")
        assert "could not remove what it made: busy" in caplog.text

    def test_interrupted_save_removes_what_it_made_and_reraises(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_index(self.bundle(["alpha"]), tmp_path / "a" / "index")
        assert list(tmp_path.iterdir()) == []

    def test_save_into_an_empty_directory_that_raises_keeps_the_directory(
            self, tmp_path, monkeypatch):
        target = tmp_path / "index"
        target.mkdir()

        def failing(*args):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing)
            with pytest.raises(OSError, match="disk full"):
                save_index(self.bundle(["alpha"]), target)
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert os.listdir(target) == []
        save_index(self.bundle(["beta"]), target)  # an empty directory is replaceable
        assert os.listdir(target) == [INDEX_FILE]
        assert load_index(target).keys == ["d#0"]

    def test_fsyncs_the_parent_of_each_directory_it_made(self, tmp_path, monkeypatch):
        fsync, fsyncs = os.fsync, []

        def counted(fd):
            fsyncs.append(fd)
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", counted)
        target = tmp_path / "a" / "b" / "index"
        save_index(self.bundle(["alpha"]), target)
        assert len(fsyncs) == 5  # the file, then index, b, a and tmp_path
        fsyncs.clear()
        save_index(self.bundle(["beta"]), target)
        assert len(fsyncs) == 2  # the file and index
        assert load_index(target).keys == ["d#0"]

    def test_removes_what_killed_saves_left_and_leaves_siblings_alone(self, tmp_path):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha"]), target)
        (target / f".{INDEX_FILE}.tmp").write_text("{}", encoding="utf-8")
        (tmp_path / ".index.old-0badf00d").mkdir()  # a format-8 save's, no longer swept
        save_index(self.bundle(["beta"]), target)
        assert os.listdir(target) == [INDEX_FILE]
        assert sorted(p.name for p in tmp_path.iterdir()) == [".index.old-0badf00d", "index"]
        assert load_index(target).keys == ["d#0"]

    def test_refuses_a_directory_holding_other_files(self, tmp_path):
        target = tmp_path / "index"
        target.mkdir()
        (target / "notes.txt").write_text("keep me", encoding="utf-8")
        with pytest.raises(IndexFormatError, match="notes.txt"):
            save_index(self.bundle(["alpha"]), target)
        assert [p.name for p in target.iterdir()] == ["notes.txt"]
        assert [p.name for p in tmp_path.iterdir()] == ["index"]

    def test_refuses_a_file(self, tmp_path):
        (tmp_path / "index").write_text("x", encoding="utf-8")
        with pytest.raises(IndexFormatError, match="not a directory"):
            save_index(self.bundle(["alpha"]), tmp_path / "index")

    def test_refuses_a_missing_directory_under_a_file_and_makes_nothing(self, tmp_path):
        (tmp_path / "index").write_text("x", encoding="utf-8")
        with pytest.raises(NotADirectoryError) as raised:
            save_index(self.bundle(["alpha"]), tmp_path / "index" / "sub" / "idx")
        assert raised.value.filename == os.path.realpath(tmp_path / "index")  # not the target
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert (tmp_path / "index").read_text(encoding="utf-8") == "x"

    def test_refuses_an_index_of_a_previous_format_and_leaves_it_as_it_was(self, tmp_path):
        format_2 = ["vectors.bin", "postings.json", "keywords.json", "segments.json"]
        format_9 = [f"{stem}.0badf00d.{suffix}" for stem, _, suffix in
                    (name.partition(".") for name in FORMAT_8_FILES)]
        for version, old in ((2, format_2), (3, FORMAT_3_FILES), (5, FORMAT_6_FILES),
                             (6, FORMAT_6_FILES), (7, FORMAT_8_FILES), (8, FORMAT_8_FILES),
                             (9, format_9)):
            target = tmp_path / f"index{version}"
            self.older_index(target, version, old)
            before = {p.name: p.read_bytes() for p in target.iterdir()}
            with pytest.raises(IndexFormatError, match="'manifest.json'.* not index files"):
                save_index(self.bundle(["alpha"]), target)
            assert {p.name: p.read_bytes() for p in target.iterdir()} == before
            with pytest.raises(IndexFormatError, match=re.escape(
                    f"unsupported index format_version {version} (expected {FORMAT_VERSION})")):
                load_index(target)

    @pytest.mark.parametrize("manifest", [
        b"{}", f'{{"format_version": {FORMAT_VERSION}}}'.encode(), b'{"format_version": "5"}',
        b'{"format_version": true}', b'{"format_version": 5.0}', b"[5]", b"5", b"not json",
        b"\xff\xfe", None])
    def test_a_manifest_of_no_older_format_loads_as_no_index(self, tmp_path, manifest):
        target = tmp_path / "index"
        target.mkdir()
        if manifest is not None:
            (target / "manifest.json").write_bytes(manifest)
        with pytest.raises(IndexFormatError, match=re.escape(f"no index at {target / INDEX_FILE}")):
            load_index(target)


@pytest.mark.parametrize("first", ["hiret.store", "hiret.index"])
def test_either_module_imports_first_and_the_index_names_the_stores_save_and_load(first):
    # The store imports the index, which re-exports the store's names in its last statement;
    # the bench's spans wrap hiret.index.save_index and load_index by attribute.
    code = (f"import {first}, hiret.index, hiret.store\n"
            "for name in ('save_index', 'load_index', 'INDEX_FILE', 'FORMAT_VERSION'):\n"
            "    assert getattr(hiret.index, name) is getattr(hiret.store, name), name\n")
    src = str(Path(hiret.store.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True, timeout=60)


BUNDLE_WORDS = ["alpha", "beta", "CA-IS3641", "\u00e9t\u00e9", "\u4e2d\u6587", "x9", "", "--",
                "\n"]


@st.composite
def small_bundles(draw):
    """Bundles of up to six segments: unicode text, segments with no
    embeddable text (so no vector), keys in any order, maybe none."""
    keys = draw(st.lists(st.tuples(st.text(max_size=4), st.text(max_size=4)), max_size=6,
                         unique_by=lambda pair: f"{pair[0]}#{pair[1]}"))
    words = st.sampled_from(BUNDLE_WORDS)
    segments = []
    for doc_id, segment_id in keys:
        text = " ".join(draw(st.lists(words, max_size=5)))
        segments.append(Segment(
            segment_id=segment_id,
            chapter_number=draw(st.text(max_size=3)),
            level=draw(st.integers(0, 4)),
            title=draw(st.text(max_size=6)),
            kind=draw(st.sampled_from(["text", "table", "image"])),
            content=draw(st.text(max_size=12)) + text,
            doc_id=doc_id,
            embedding_text=text,
            metadata_path=draw(st.lists(st.text(max_size=5), max_size=3)),
        ))
    user_keywords = draw(st.lists(st.sampled_from(["alpha", "\u00e9t\u00e9", "zz"]), max_size=2))
    return build_indices(segments, HashingEmbedder(dim=8), user_keywords=user_keywords)


class TestRetrieveProperty:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bundle=small_bundles(), words=st.lists(st.sampled_from(BUNDLE_WORDS), max_size=4),
           alpha=st.sampled_from([0.0, 0.5, 1.0]), beta=st.sampled_from([0.0, 0.1]),
           absent=st.text(max_size=6))
    def test_ranking_is_the_key_sort_by_fused_then_vector_then_key(self, bundle, words, alpha,
                                                                   beta, absent):
        cfg = RetrievalConfig(alpha=alpha, beta=beta)
        ranking = retrieve(" ".join(words), bundle, cfg).ranking
        fused = dict(zip(bundle.keys, ranking.fused.tolist()))
        v = dict(zip(bundle.keys, ranking.score_v.tolist()))
        expected = sorted(bundle.keys, key=lambda k: (-fused[k], -v[k], k))
        assert [row.segment_key for row in ranking] == expected
        assert [ranking.rank_of(key) for key in expected] == list(range(1, len(expected) + 1))
        for key in {absent, "", "\U0010ffff"} - set(bundle.keys):  # "" and U+10FFFF: no "#"
            assert ranking.rank_of(key) is None


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(bundle=small_bundles(), extra_query=st.text(max_size=10))
    def test_save_load_save_keeps_bytes_routes_and_segments(self, bundle, extra_query):
        embedder = HashingEmbedder(dim=8)
        queries = [extra_query, "alpha beta x9", "ca-is3641 \u00e9t\u00e9"]
        queries += [seg.embedding_text for seg in bundle.segments[:2]]
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a", Path(tmp) / "b"
            save_index(bundle, first)
            loaded = load_index(first)
            save_index(loaded, second)
            assert dir_bytes(first) == dir_bytes(second)

            assert loaded.keys == bundle.keys
            assert len(loaded.segments) == len(bundle.segments)
            for row, seg in enumerate(bundle.segments):
                assert loaded.segments[row] == seg
            user = set(bundle.user_keywords)
            for query in queries:
                assert (bm25_route(loaded.bm25, query).tobytes()
                        == bm25_route(bundle.bm25, query).tobytes())
                assert (keyword_hits(query, loaded.keywords, user_keywords=user).tobytes()
                        == keyword_hits(query, bundle.keywords, user_keywords=user).tobytes())
                assert (vector_route(query, loaded.vectors, embedder).tobytes()
                        == vector_route(query, bundle.vectors, embedder).tobytes())
