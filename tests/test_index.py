import math
import random

import numpy as np
import pytest

from hiret.corpus import Segment
from hiret.index import (
    FORMAT_VERSION,
    HashingEmbedder,
    InconsistentIndexError,
    IndexFormatError,
    PatternKeywordExtractor,
    bm25_score,
    bm25_scores,
    build_bm25_index,
    build_indices,
    build_keyword_table,
    build_vector_index,
    extract_keywords,
    is_embeddable,
    load_index,
    save_index,
    tokenize,
)

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
        v = HashingEmbedder().embed("")
        assert not is_embeddable(v)
        assert np.all(v == 0.0)

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


class TestKeywords:
    def test_part_number_pattern(self):
        assert extract_keywords("the CA-IS3641 transceiver") == {"ca-is3641"}

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
        assert table.keywords["d#1"] == {"ca-is3641"}
        assert table.keywords["d#2"] == set()

    def test_extractor_protocol(self):
        class Fixed:
            def extract(self, text):
                return {"pinout"} if "pinout" in text else set()

        assert extract_keywords("the pinout table", Fixed()) == {"pinout"}


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
        assert loaded.keywords.keywords == bundle.keywords.keywords
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
        blob = (tmp_path / "vectors.bin").read_bytes()
        (tmp_path / "vectors.bin").write_bytes(b"XXXXX" + blob[5:])
        with pytest.raises(IndexFormatError, match="magic"):
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
        assert loaded.bm25.corpus_size == 0
