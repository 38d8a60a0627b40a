import hashlib
import json
import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FORMAT_3_FILES,
    keyword_sets,
    keyword_table,
    load_and_ingest,
    restamp_manifest,
    write_datasheet_corpus,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hiret.corpus import Segment
from hiret.index import (
    _KEYWORD_TOKEN_RE,
    _TOKEN_RE,
    FORMAT_VERSION,
    INDEX_FILES,
    Bm25Index,
    HashingEmbedder,
    InconsistentIndexError,
    IndexBundle,
    IndexFormatError,
    Postings,
    StoredSegments,
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
    lengths = []
    found: dict[str, tuple[list[int], list[int]]] = {}
    for row, segment in enumerate(segments):
        tokens = tokenize(segment.embedding_text)
        lengths.append(len(tokens))
        for token, tf in Counter(tokens).items():
            rows, tfs = found.setdefault(token, ([], []))
            rows.append(row)
            tfs.append(tf)
    postings = {term: Postings(np.array(rows, dtype=np.intp), np.array(tfs, dtype=np.int32))
                for term, (rows, tfs) in found.items()}
    return Bm25Index(k1=k1, b=b, keys=[s.key for s in segments], lengths=lengths,
                     postings=postings)


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
        assert index.matrix.tolist() == [[np.float32(0.6), np.float32(0.8)]]
        warned = "\n".join(r.getMessage() for r in caplog.records)
        for key, problem in [("nan", "is not finite"), ("inf", "is not finite"),
                             ("huge", "is not finite"), ("wrong", "has shape (3,)"),
                             ("zero", "is zero")]:
            assert f"segment d#{key}: vector {problem}" in warned

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
        assert index.corpus_size == 2
        assert [index.keys[row] for row in index.postings["a"].rows] == ["c#d1", "c#d2"]
        assert index.postings["b"].tf.tolist() == [1]

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

    def test_empty_corpus_scores_empty(self):
        index = build_bm25_index([])
        assert index.corpus_size == 0
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
        assert index.lengths.tobytes() == oracle.lengths.tobytes()
        assert list(index.postings) == list(oracle.postings)  # terms in order of first use
        for term, expected in oracle.postings.items():
            got = index.postings[term]
            assert got.rows.dtype == np.intp and got.tf.dtype == np.int32
            assert got.rows.tolist() == expected.rows.tolist(), term
            assert got.tf.tolist() == expected.tf.tolist(), term
            assert np.all(np.diff(got.rows) > 0)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_TEXTS, max_size=8))
    def test_matches_counter_oracle(self, texts):
        self.assert_matches_oracle([seg("d", str(i), t) for i, t in enumerate(texts + [""])])
        # "every" (and "EVERY") is in every row, so its postings are all rows.
        everywhere = [seg("d", str(i), t + " EVERY") for i, t in enumerate(texts + ["every"])]
        self.assert_matches_oracle(everywhere)
        assert build_bm25_index(everywhere).postings["every"].rows.tolist() == list(
            range(len(everywhere)))


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

    def test_table_built_per_segment(self):
        segments = [seg("d", "1", "uses CA-IS3641"), seg("d", "2", "no parts")]
        table = build_keyword_table(segments)
        assert table.keys == ["d#1", "d#2"]
        assert keyword_sets(table) == [{"ca-is3641"}, set()]


# Texts rich in what the shared token scan must split alike: hyphen runs,
# underscores, case folds that change length, combining marks, punctuation.
_SCAN_TEXTS = st.one_of(_TEXTS, st.text(), st.text(st.sampled_from(
    ["a", "Z", "9", "-", "_", " ", ".", "\u00df", "\u0130", "\u0301", "\u00b2",
     "\u0660", "\u4e2d", "!", "\n"]), max_size=30))


@settings(max_examples=500, deadline=None)
@given(text=_SCAN_TEXTS)
def test_keyword_token_pieces_are_the_bm25_tokens(text):
    """The identity the one-pass ingest rests on."""
    pieces = [piece for token in _KEYWORD_TOKEN_RE.findall(text) for piece in token.split("-")]
    assert _TOKEN_RE.findall(text) == pieces


class TestOneScanMatchesTheOracles:
    """build_indices reads each embedding_text once; every route it builds
    equals the route the independent oracles build from the raw text."""

    def assert_bundle_matches(self, segments, bundle, user):
        vectors = build_vector_index(segments, OracleEmbedder(bundle.vectors.dim))
        assert bundle.vectors.rows.tolist() == vectors.rows.tolist()
        assert bundle.vectors.matrix.tobytes() == vectors.matrix.tobytes()
        bm25 = oracle_bm25(segments)
        assert bundle.bm25.lengths.tobytes() == bm25.lengths.tobytes()
        assert list(bundle.bm25.postings) == list(bm25.postings)  # first-use order
        for term, expected in bm25.postings.items():
            got = bundle.bm25.postings[term]
            assert (got.rows.tolist(), got.tf.tolist()) == (expected.rows.tolist(),
                                                            expected.tf.tolist()), term
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
            assert embedder.texts == rows
            self.assert_bundle_matches(segments, bundle, ["beta"])


def test_datasheet_index_bytes_equal_the_oracle_bundle(tmp_path):
    _, segments = load_and_ingest(write_datasheet_corpus(tmp_path / "ds"))
    user = ["kvrms", "pinout"]
    built = build_indices(segments, HashingEmbedder(), user_keywords=user)
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
        assert loaded.bm25.postings.keys() == bundle.bm25.postings.keys()
        for term, postings in bundle.bm25.postings.items():
            assert np.array_equal(loaded.bm25.postings[term].rows, postings.rows)
            assert np.array_equal(loaded.bm25.postings[term].tf, postings.tf)
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
        blob = (tmp_path / "vectors.npy").read_bytes()
        (tmp_path / "vectors.npy").write_bytes(b"XXXXXX" + blob[6:])  # the .npy magic
        with pytest.raises(IndexFormatError, match="vectors.npy"):
            load_index(tmp_path)
        # a manifest that vouches for the bad file does not get it parsed either
        restamp_manifest(tmp_path, "vectors.npy")
        with pytest.raises(IndexFormatError, match="corrupt index file .*vectors.npy"):
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
        (tmp_path / name).write_bytes(b"")  # the memory-mapped vectors.npy cannot even be mapped
        with pytest.raises(IndexFormatError, match=f"{name}"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_flipped_byte_is_refused(self, tmp_path, name):
        save_index(self.build_bundle(), tmp_path)
        data = bytearray((tmp_path / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (tmp_path / name).write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match=f"{name} does not match its sha256"):
            load_index(tmp_path)

    def test_missing_file_is_refused(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        (tmp_path / "postings_rows.npy").unlink()
        with pytest.raises(IndexFormatError, match="postings_rows.npy"):
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
        load_index(tmp_path)  # each change undone, the index loads again

    def test_segment_row_holding_another_key_is_refused_when_read(self, tmp_path):
        save_index(self.build_bundle(), tmp_path)
        keys = json.loads((tmp_path / "segment_keys.json").read_text(encoding="utf-8"))
        keys[0], keys[1] = keys[1], keys[0]
        (tmp_path / "segment_keys.json").write_text(json.dumps(keys), encoding="utf-8")
        restamp_manifest(tmp_path, "segment_keys.json")
        loaded = load_index(tmp_path)
        with pytest.raises(IndexFormatError, match="segment row 0 holds 'd1#1', not 'd1#1.1'"):
            loaded.segments[0]

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
        assert loaded.bm25.corpus_size == 0


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
                                                                     monkeypatch):
        target = tmp_path / "index"
        before = self.bundle(["alpha beta CA-IS3641", "gamma", "alpha epsilon"])
        save_index(before, target)
        saved = {p.name: p.read_bytes() for p in target.iterdir()}
        cfg = RetrievalConfig()
        expected = [retrieve(q, load_index(target), cfg).ranking for q in ["alpha", "ca-is3641"]]

        real_save, calls = np.save, []

        def save_then_fail(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # vectors.npy is written, vector_rows.npy is not
                raise OSError("disk full")
            return real_save(*args, **kwargs)

        monkeypatch.setattr(np, "save", save_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_index(self.bundle(["other", "texts"]), target)
        monkeypatch.undo()

        assert len(calls) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert {p.name: p.read_bytes() for p in target.iterdir()} == saved
        loaded = load_index(target)
        assert [retrieve(q, loaded, cfg).ranking for q in ["alpha", "ca-is3641"]] == expected

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
        for old in (format_2, FORMAT_3_FILES):
            target = tmp_path / f"index{len(old)}"
            target.mkdir()
            for name in ["manifest.json", *old]:
                (target / name).write_text("{}", encoding="utf-8")
            save_index(self.bundle(["alpha"]), target)
            assert sorted(p.name for p in target.iterdir()) == sorted(
                ["manifest.json", *INDEX_FILES])
            assert load_index(target).keys == ["d#0"]


@st.composite
def small_bundles(draw):
    """Bundles of up to six segments: unicode text, segments with no
    embeddable text (so no vector), keys in any order, maybe none."""
    keys = draw(st.lists(st.tuples(st.text(max_size=4), st.text(max_size=4)), max_size=6,
                         unique_by=lambda pair: f"{pair[0]}#{pair[1]}"))
    words = st.sampled_from(["alpha", "beta", "CA-IS3641", "\u00e9t\u00e9", "\u4e2d\u6587",
                             "x9", "", "--", "\n"])
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
