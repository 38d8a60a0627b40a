import hashlib
import json
import math
import os
import random
import re
import shutil
import tempfile
from collections import Counter
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FORMAT_3_FILES,
    FORMAT_6_FILES,
    dense,
    inverted_lists,
    keyword_sets,
    keyword_table,
    load_and_ingest,
    restamp_manifest,
    write_datasheet_corpus,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hiret.index
from hiret.corpus import DocumentRecord, ImageAsset, Segment, path_text
from hiret.hca import augment_document, without_augmentation
from hiret.index import (
    FORMAT_VERSION,
    INDEX_FILES,
    _RUN_BREAKS,
    Bm25Index,
    HashingEmbedder,
    InconsistentIndexError,
    IndexBundle,
    IndexFormatError,
    StoredSegments,
    _json_bytes,
    _Memo,
    _Scan,
    _invert,
    _quote,
    _segment_line,
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

BM25_WORKED_EXAMPLE = 0.6099695188927519  # ln 2 * 0.88, recomputed by hand


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


class TestBm25Build:
    def assert_matches_oracle(self, segments):
        index, oracle = build_bm25_index(segments), oracle_bm25(segments)
        assert index.keys == oracle.keys
        assert index.lengths.tolist() == [len(tokenize(s.embedding_text)) for s in segments]
        assert index.lengths.dtype == np.int64
        assert list(index.postings) == list(oracle.postings)
        assert index.postings.rows.dtype == np.intp and index.tf.dtype == np.int32
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
        assert rows.dtype == np.intp
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
    for name in ["manifest.json", *INDEX_FILES]:
        assert ((tmp_path / "built" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name


def test_duplicate_segment_keys_are_refused():
    segments = [seg("d", "1", "alpha"), seg("d", "2", "beta"), seg("d", "1", "gamma")]
    with pytest.raises(InconsistentIndexError, match="d#1"):
        build_indices(segments, HashingEmbedder())


class TestPersistence:
    def build_bundle(self):
        segments = [
            seg("d1", "1", "alpha beta CA-IS3641"),
            seg("d1", "1.1", "gamma delta"),
            seg("d2", "1", "alpha epsilon"),
        ]
        segments[0].metadata_path = ["d1 title", "1 intro"]
        return build_indices(segments, HashingEmbedder(), user_keywords=["epsilon"])

    def read_all(self, directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

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
        assert self.read_all(first) == self.read_all(second)

    def test_scores_survive_reload_bit_exactly(self, tmp_path):
        bundle = self.build_bundle()
        save_index(bundle, tmp_path)
        loaded = load_index(tmp_path)
        for query in ["alpha beta", "ca-is3641 gamma", "epsilon"]:
            assert bm25_scores(bundle.bm25, query) == bm25_scores(loaded.bm25, query)

    def test_corrupted_magic_refuses_to_load(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        blob = (tmp_path / "vector_values.npy").read_bytes()
        (tmp_path / "vector_values.npy").write_bytes(b"XXXXXX" + blob[6:])  # the .npy magic
        with pytest.raises(IndexFormatError, match="vector_values.npy"):
            load_index(tmp_path)
        # a manifest that vouches for the bad file does not get it parsed either
        restamp_manifest(tmp_path, "vector_values.npy")
        with pytest.raises(IndexFormatError, match="corrupt index file .*vector_values.npy"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_truncated_file_is_refused(self, tmp_path, name):
        save_index(self.build_bundle(), tmp_path)
        data = (tmp_path / name).read_bytes()
        (tmp_path / name).write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexFormatError, match=f"{name} holds {len(data) // 2} bytes"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_emptied_file_is_refused(self, tmp_path, name):
        save_index(self.build_bundle(), tmp_path)
        (tmp_path / name).write_bytes(b"")  # a memory-mapped array cannot even be mapped
        with pytest.raises(IndexFormatError, match=f"{name}"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_flipped_byte_is_refused(self, tmp_path, name):
        save_index(self.build_bundle(), tmp_path)
        data = bytearray((tmp_path / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (tmp_path / name).write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match=f"{name} does not match its crc32"):
            load_index(tmp_path)

    def test_missing_file_is_refused(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        (tmp_path / "postings_rows.npy").unlink()
        with pytest.raises(IndexFormatError, match="postings_rows.npy"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name, data, says", [
        ("vector_rows.npy", np.zeros(3, "<i8"), "holds int64 1-d data, expected <i4 1-d"),
        ("vector_values.npy", np.zeros((3, 1), "<f4"),
         "holds float32 2-d data, expected <f4 1-d"),
        ("postings_tf.npy", np.ones(14, "<i4"),
         "holds int32 1-d data, expected <u1 or <u2 or <u4 1-d"),
    ], ids=["dtype", "ndim", "tf-dtype"])
    def test_array_of_another_dtype_or_ndim_is_refused(self, tmp_path, name, data, says):
        save_index(self.build_bundle(), tmp_path)
        np.save(tmp_path / name, data)
        restamp_manifest(tmp_path, name)  # the manifest vouches for the file
        with pytest.raises(IndexFormatError, match=re.escape(f"{name} {says}")):
            load_index(tmp_path)

    def test_terms_file_that_is_not_json_is_refused(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        (tmp_path / "postings_terms.json").write_bytes(b'["alpha", ')
        restamp_manifest(tmp_path, "postings_terms.json")
        with pytest.raises(IndexFormatError, match="corrupt index file .*postings_terms.json"):
            load_index(tmp_path)

    def test_manifest_that_is_not_json_is_refused(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        (tmp_path / "manifest.json").write_text('{"format_version": ', encoding="utf-8")
        with pytest.raises(IndexFormatError, match="corrupt manifest .*manifest.json"):
            load_index(tmp_path)

    def test_manifest_must_list_every_file(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        del manifest["files"]["segments.jsonl"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexFormatError, match="does not list the index files"):
            load_index(tmp_path)

    def test_rows_and_terms_out_of_order_are_refused(self, tmp_path):
        """Each change below keeps every file's sum in the manifest right."""
        save_index(self.build_bundle(), tmp_path)
        saved = self.read_all(tmp_path)
        assert json.loads(saved["keywords_terms.json"]) == ["ca-is3641", "epsilon"]
        assert np.load(tmp_path / "keywords_rows.npy").tolist() == [0, 2]
        terms = json.loads(saved["postings_terms.json"])
        offsets = np.load(tmp_path / "postings_offsets.npy")
        lo, hi = offsets[terms.index("alpha")], offsets[terms.index("alpha") + 1]
        postings_rows = np.load(tmp_path / "postings_rows.npy")
        assert postings_rows[lo:hi].tolist() == [0, 2]
        postings_rows[lo:hi] = [2, 0]

        def refused(changes: dict, problem: str) -> None:
            for name, data in changes.items():
                if isinstance(data, np.ndarray):
                    np.save(tmp_path / name, data)
                else:
                    (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
                restamp_manifest(tmp_path, name)
            with pytest.raises(IndexFormatError, match=problem):
                load_index(tmp_path)
            for name in changes:
                (tmp_path / name).write_bytes(saved[name])
                restamp_manifest(tmp_path, name)

        not_ascending = "holds a list of rows that is not strictly ascending"
        refused({"keywords_rows.npy": np.array([0, 0, 2], "<i4"),  # row 0 holds ca-is3641 twice
                 "keywords_offsets.npy": np.array([0, 2, 3], "<i8")},
                f"keywords_rows.npy {not_ascending}")
        refused({"keywords_terms.json": ["epsilon", "ca-is3641"]},
                "keywords_terms.json does not hold distinct sorted strings")
        refused({"postings_terms.json": sorted(terms + terms[:1])},
                "postings_terms.json does not hold distinct sorted strings")
        refused({"postings_rows.npy": postings_rows}, f"postings_rows.npy {not_ascending}")
        refused({"vector_rows.npy": np.array([1, 0, 2], "<i4")}, f"vector index {not_ascending}")
        tf = np.load(tmp_path / "postings_tf.npy")
        refused({"postings_tf.npy": tf[:-1]},
                f"{len(tf) - 1} posting counts for {len(tf)} posting rows")
        refused({"keywords_offsets.npy": np.array([0, 0, 2], "<i8")},  # ca-is3641 owns no row
                "keywords_offsets.npy does not split 2 entries into 2 non-empty parts")
        load_index(tmp_path)  # each change undone, the index loads again

    def vector_arrays(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        arrays = {name: np.load(tmp_path / f"vector_{name}.npy")
                  for name in ("offsets", "ordinals", "values")}
        # the 3 vectors leave most of the 256 dimensions without an entry, which is legal
        assert (np.diff(arrays["offsets"]) == 0).any()
        return arrays

    @pytest.mark.parametrize("edit, problem", [
        (lambda a: {"offsets": a["offsets"][:-1]}, "vector_offsets.npy does not split"),
        (lambda a: {"offsets": np.concatenate([[-1], a["offsets"][1:]])},
         "vector_offsets.npy does not split"),
        (lambda a: {"offsets": np.concatenate([a["offsets"][:-1], a["offsets"][-1:] + 1])},
         "vector_offsets.npy does not split"),
        (lambda a: {"offsets": np.concatenate([a["offsets"][:1], a["offsets"][-2:0:-1],
                                               a["offsets"][-1:]])},
         "vector_offsets.npy does not split"),
        (lambda a: {"ordinals": np.concatenate([a["ordinals"][:-1], [3]]).astype("<i4")},
         "vector_ordinals.npy holds rows outside the 3 vectors"),
        (lambda a: {"ordinals": np.concatenate([a["ordinals"][:-1], [-1]]).astype("<i4")},
         "vector_ordinals.npy holds rows outside the 3 vectors"),
        (lambda a: {"values": a["values"][:-1]}, "vector values for"),
    ], ids=["offsets-shape", "offsets-start", "offsets-end", "offsets-decrease",
            "ordinal-past-the-vectors", "ordinal-negative", "values-length"])
    def test_vector_store_that_does_not_fit_is_refused(self, tmp_path, edit, problem):
        """Each change keeps every file's sum in the manifest right."""
        arrays = self.vector_arrays(tmp_path)
        for name, data in edit(arrays).items():
            np.save(tmp_path / f"vector_{name}.npy", data)
            restamp_manifest(tmp_path, f"vector_{name}.npy")
        with pytest.raises(IndexFormatError, match=problem):
            load_index(tmp_path)

    @pytest.mark.parametrize("swap", [True, False], ids=["swapped", "repeated"])
    def test_ordinals_that_do_not_ascend_in_a_dimension_are_refused(self, tmp_path, swap):
        arrays = self.vector_arrays(tmp_path)
        offsets, ordinals = arrays["offsets"], arrays["ordinals"]
        lo = int(offsets[np.flatnonzero(np.diff(offsets) >= 2)[0]])  # a dimension of 2 or more
        ordinals[lo:lo + 2] = ordinals[[lo + 1, lo]] if swap else ordinals[lo]
        np.save(tmp_path / "vector_ordinals.npy", ordinals)
        restamp_manifest(tmp_path, "vector_ordinals.npy")
        with pytest.raises(InconsistentIndexError, match="vector_ordinals.npy holds a list of "
                                                         "rows that is not strictly ascending"):
            load_index(tmp_path)

    def test_term_counts_past_a_byte_are_stored_in_two_bytes(self, tmp_path):
        segments = [seg("d", "1", "vcc " * 256 + "gain"), seg("d", "2", "vcc gain gain")]
        bundle = build_indices(segments, HashingEmbedder(dim=16))
        save_index(bundle, tmp_path)
        assert np.load(tmp_path / "postings_tf.npy").dtype == np.dtype("<u2")
        loaded = load_index(tmp_path)
        assert loaded.bm25.tf.tolist() == bundle.bm25.tf.tolist() == [1, 2, 256, 1]
        for query in ["vcc", "gain vcc vcc", "none"]:
            for key in bundle.keys:
                assert (bm25_scores(loaded.bm25, query)[key]
                        == bm25_score(loaded.bm25, query, key)
                        == bm25_score(bundle.bm25, query, key))

    @pytest.mark.parametrize("keys", [7, "d1#1", {"d1#1": 0}, ["d1#1", 7, "d2#1"],
                                      ["d1#1", None, "d2#1"]])
    def test_keys_file_that_is_not_a_list_of_strings_is_refused(self, tmp_path, keys):
        save_index(self.build_bundle(), tmp_path)
        (tmp_path / "segment_keys.json").write_text(json.dumps(keys), encoding="utf-8")
        restamp_manifest(tmp_path, "segment_keys.json")
        with pytest.raises(IndexFormatError,
                           match="segment_keys.json does not hold a list of strings"):
            load_index(tmp_path)

    def test_segment_row_holding_another_key_is_refused_when_read(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        keys = json.loads((tmp_path / "segment_keys.json").read_text(encoding="utf-8"))
        keys[0] = "d1#0"  # still in key order
        (tmp_path / "segment_keys.json").write_text(json.dumps(keys), encoding="utf-8")
        restamp_manifest(tmp_path, "segment_keys.json")
        loaded = load_index(tmp_path)
        with pytest.raises(IndexFormatError, match="segment row 0 holds 'd1#1', not 'd1#0'"):
            loaded.segments[0]

    def test_keys_out_of_key_order_are_refused_at_load(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        keys = json.loads((tmp_path / "segment_keys.json").read_text(encoding="utf-8"))
        keys[1], keys[2] = keys[2], keys[1]
        (tmp_path / "segment_keys.json").write_text(json.dumps(keys), encoding="utf-8")
        restamp_manifest(tmp_path, "segment_keys.json")
        with pytest.raises(InconsistentIndexError, match=re.escape(
                f"segments are not in key order: row 2 is {keys[2]!r}, after {keys[1]!r}")):
            load_index(tmp_path)

    def test_version_mismatch_refuses_to_load(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        manifest = (tmp_path / "manifest.json").read_text(encoding="utf-8")
        (tmp_path / "manifest.json").write_text(
            manifest.replace(f'"format_version": {FORMAT_VERSION}', '"format_version": 99'),
            encoding="utf-8",
        )
        with pytest.raises(IndexFormatError, match="format_version"):
            load_index(tmp_path)

    def test_missing_manifest_is_instructive(self, tmp_path):
        with pytest.raises(IndexFormatError, match="manifest"):
            load_index(tmp_path / "empty")

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

    def stored_lines(self, directory):
        lines = (directory / "segments.jsonl").read_bytes().splitlines()
        return [json.loads(line) for line in lines]

    def test_only_a_derivable_text_is_left_out_and_each_round_trips(self, tmp_path):
        segments = self.segments()
        by_id = {s.segment_id: s for s in segments}
        assert by_id["2"].embedding_text == "CA-IS3641 datasheet > 2 empty"
        assert by_id["4"].embedding_text.startswith("CA-IS3641 datasheet > 4 package\nsixteen")
        assert by_id["5"].embedding_text == ""  # an image with no description
        first, rebuilt = tmp_path / "first", tmp_path / "rebuilt"
        save_index(build_indices(segments, HashingEmbedder()), first)
        stored = {line["segment_id"]: line.get("embedding_text") for line in
                  self.stored_lines(first)}
        assert stored == {"1": None, "2": None, "3": by_id["3"].embedding_text,
                          "4": by_id["4"].embedding_text, "5": "", "6": None}
        loaded = load_index(first)
        assert list(loaded.segments) == segments
        # the loaded segments, derived texts included, rebuild the index byte for byte
        save_index(build_indices(loaded.segments, HashingEmbedder()), rebuilt)
        assert all((first / name).read_bytes() == (rebuilt / name).read_bytes()
                   for name in ["manifest.json", *INDEX_FILES])

    def test_baseline_segments_round_trip(self, tmp_path):
        plain = without_augmentation(self.segments())
        save_index(build_indices(plain, HashingEmbedder()), tmp_path)
        # content under no path derives "\n" + content, so only the empty one is left out
        stored = {line["segment_id"]: line.get("embedding_text") for line in
                  self.stored_lines(tmp_path)}
        assert [sid for sid, text in stored.items() if text is None] == ["2"]
        assert list(load_index(tmp_path).segments) == plain
        assert path_text([], "") == "" and path_text(["a", "b"], "c") == "a > b\nc"


# Strings the segment-line writer must escape as the encoder does: quotes, backslashes,
# control characters, line and paragraph separators, the path separator, non-ASCII.
_LINE_TEXTS = st.lists(st.one_of(st.sampled_from(
    ['"', "\\", "/", "\x7f", "\u2028", "\u2029", "\u00e9", "\u4e2d", "\U0001f600", " > ", "a"]),
    st.characters(max_codepoint=0x1F),
    st.characters(blacklist_categories=("Cs",))), max_size=8).map("".join)


@st.composite
def _line_segments(draw):
    path = draw(st.lists(_LINE_TEXTS, max_size=3))  # an empty path too
    content = draw(_LINE_TEXTS)
    derivable = draw(st.booleans())
    return Segment(segment_id=draw(_LINE_TEXTS), chapter_number=draw(_LINE_TEXTS),
                   level=draw(st.integers(-(2 ** 70), 2 ** 70)), title=draw(_LINE_TEXTS),
                   kind=draw(_LINE_TEXTS), content=content, doc_id=draw(_LINE_TEXTS),
                   embedding_text=path_text(path, content) if derivable else draw(_LINE_TEXTS),
                   metadata_path=path)


class TestSegmentLine:
    @settings(max_examples=300, deadline=None)
    @given(segment=_line_segments())
    def test_is_the_compact_encoders_line(self, segment):
        fields = dict(vars(segment))
        if segment.embedding_text == path_text(segment.metadata_path, segment.content):
            del fields["embedding_text"]
        quoted = _Memo(_quote)  # the second line reads every short string from the memo
        line = _segment_line(segment, quoted)
        assert line == _json_bytes(fields) == _segment_line(segment, quoted)

    @pytest.mark.parametrize("name, value", [("level", True), ("metadata_path", ["d", 1])])
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
        assert [p.name for p in tmp_path.iterdir()] == ["index"]  # no staging sibling


class TestAtomicSave:
    def bundle(self, texts):
        segments = [seg("d", str(i), text) for i, text in enumerate(texts)]
        return build_indices(segments, HashingEmbedder())

    def test_replaces_an_index_and_leaves_no_staging_directory(self, tmp_path):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha", "beta"]), target)
        save_index(self.bundle(["gamma delta"]), target)
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert load_index(target).keys == ["d#0"]

    def test_save_that_raises_between_writes_keeps_the_previous_index(self, tmp_path,
                                                                     monkeypatch, caplog):
        # For every k, the save fails at its k-th file write, rename or removal.
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

        def opened(file, mode="r", *args, **kwargs):  # reads are not steps
            if "w" in mode:
                step("open")
            return real_open(file, mode, *args, **kwargs)

        for fail_at in count(1):
            steps.clear()
            caplog.clear()
            with monkeypatch.context() as patch:
                patch.setattr(hiret.index, "open", opened, raising=False)
                patch.setattr(np, "save", counted("np.save", np.save))
                patch.setattr(Path, "write_bytes", counted("write_bytes", Path.write_bytes))
                patch.setattr(os, "rename", counted("rename", os.rename))
                patch.setattr(shutil, "rmtree", counted("rmtree", shutil.rmtree))
                try:
                    manifest = save_index(new, target)
                except OSError:
                    manifest = None
            if len(steps) < fail_at:  # every step ran and none failed
                break
            assert contents() in (old_bytes, new_bytes), steps
            left = [p for p in tmp_path.iterdir() if p != target]
            if manifest is None:
                assert left == [], steps
            else:
                # Only the removal after the swap fails without failing the save: the new
                # index is in place, the replaced one beside it, and a warning names it.
                assert steps[fail_at - 1] == "rmtree" and contents() == new_bytes, steps
                assert [p.name.startswith(".index.old-") for p in left] == [True], steps
                assert manifest == json.loads(contents()["manifest.json"])
                assert "could not remove" in caplog.text and left[0].name in caplog.text
            for p in left:
                shutil.rmtree(p)
            loaded = load_index(target)
            if contents() == old_bytes:
                assert [retrieve(q, loaded, cfg).ranking for q in ["alpha", "ca-is3641"]
                        ] == expected
            else:
                assert loaded.keys == new.keys
            save_index(old, target)  # the next save succeeds
            assert contents() == old_bytes
        assert fail_at == len(steps) + 1
        assert {"open", "np.save", "write_bytes", "rename", "rmtree"} <= set(steps), steps
        assert contents() == new_bytes

    def test_removes_stale_siblings_of_killed_saves(self, tmp_path):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha"]), target)
        for name in (".index.new-deadbeef", ".index.old-0badf00d", ".index.notes",
                     ".index.new-deadbeef0", ".other.new-deadbeef"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text("{}", encoding="utf-8")
        save_index(self.bundle(["beta"]), target)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".index.new-deadbeef0", ".index.notes", ".other.new-deadbeef", "index"]
        assert load_index(target).keys == ["d#0"]

    def test_an_index_set_aside_by_a_dead_save_is_read_and_then_put_back(self, tmp_path,
                                                                         monkeypatch):
        target = tmp_path / "index"
        save_index(self.bundle(["alpha"]), target)
        os.rename(target, tmp_path / ".index.old-0badf00d")  # a save died after this rename
        save_index(self.bundle(["beta", "gamma"]), tmp_path / "staged")
        os.rename(tmp_path / "staged", tmp_path / ".index.new-deadbeef")
        left = sorted(p.name for p in tmp_path.iterdir())
        assert load_index(target).keys == ["d#0"]
        assert sorted(p.name for p in tmp_path.iterdir()) == left  # read where it lies

        def failing(bundle, directory):
            raise OSError("disk full")

        with monkeypatch.context() as patch:  # the next save fails partway, then one succeeds
            patch.setattr(hiret.index, "_write_files", failing)
            with pytest.raises(OSError, match="disk full"):
                save_index(self.bundle(["delta"]), target)
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert load_index(target).keys == ["d#0"]
        save_index(self.bundle(["delta", "epsilon"]), target)
        assert load_index(target).keys == ["d#0", "d#1"]

    @pytest.mark.parametrize("indices, empty", [
        ([".index.old-0badf00d", ".index.old-deadbeef"], []),  # two: which one was replaced?
        ([".index.new-0badf00d", ".index.old-0badf0"], []),  # no old-<8 hex> sibling
        ([], [".index.old-0badf00d"]),  # one that holds no manifest
    ])
    def test_no_lone_old_sibling_with_a_manifest_is_no_index(self, tmp_path, indices, empty):
        for name in indices:
            save_index(self.bundle(["alpha"]), tmp_path / name)
        for name in empty:
            (tmp_path / name).mkdir()
        with pytest.raises(IndexFormatError, match="no index manifest"):
            load_index(tmp_path / "index")

    def test_stale_sibling_that_cannot_be_removed_is_logged(self, tmp_path, caplog):
        (tmp_path / ".index.old-0badf00d").write_text("a file, not a directory",
                                                      encoding="utf-8")
        save_index(self.bundle(["alpha"]), tmp_path / "index")
        assert "could not remove" in caplog.text and ".index.old-0badf00d" in caplog.text
        assert load_index(tmp_path / "index").keys == ["d#0"]

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

    def test_replaces_an_index_of_the_previous_format(self, tmp_path):
        format_2 = ["vectors.bin", "postings.json", "keywords.json", "segments.json"]
        for version, old in ((2, format_2), (3, FORMAT_3_FILES), (5, FORMAT_6_FILES),
                             (6, FORMAT_6_FILES)):
            target = tmp_path / f"index{version}"
            target.mkdir()
            for name in old:
                (target / name).write_text("{}", encoding="utf-8")
            (target / "manifest.json").write_text(json.dumps({"format_version": version}),
                                                  encoding="utf-8")
            with pytest.raises(IndexFormatError, match=re.escape(
                    f"unsupported index format_version {version} (expected {FORMAT_VERSION})")):
                load_index(target)
            save_index(self.bundle(["alpha"]), target)
            assert sorted(p.name for p in target.iterdir()) == sorted(
                ["manifest.json", *INDEX_FILES])
            assert load_index(target).keys == ["d#0"]

    @pytest.mark.parametrize("manifest", [
        b"{}", f'{{"format_version": {FORMAT_VERSION}}}'.encode(), b'{"format_version": "5"}',
        b'{"format_version": true}', b'{"format_version": 5.0}', b"[5]", b"5", b"not json",
        b"\xff\xfe", None])
    def test_refuses_other_files_beside_a_manifest_of_no_older_format(self, tmp_path, manifest):
        target = tmp_path / "index"
        target.mkdir()
        (target / "vectors.bin").write_text("{}", encoding="utf-8")
        if manifest is not None:
            (target / "manifest.json").write_bytes(manifest)
        with pytest.raises(IndexFormatError, match="vectors.bin"):
            save_index(self.bundle(["alpha"]), target)
        assert sorted(p.name for p in target.iterdir()) == (
            ["vectors.bin"] if manifest is None else ["manifest.json", "vectors.bin"])
        assert [p.name for p in tmp_path.iterdir()] == ["index"]


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
            for name in ["manifest.json", *INDEX_FILES]:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name

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
