"""The benchmark's inputs depend on the seed alone.

Run with ``python3 -m pytest bench``.
"""

import hashlib
from pathlib import Path

import corpus_gen


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_all(seed: int, out: Path) -> str:
    corpus = corpus_gen.generate(seed, 30)
    corpus_gen.write(corpus, out / "corpus")
    corpus_gen.write_bank(corpus.bank, out / "bank.jsonl")
    return _tree_digest(out)


def test_same_seed_same_files(tmp_path):
    assert _write_all(7, tmp_path / "a") == _write_all(7, tmp_path / "b")


def test_other_seed_other_files(tmp_path):
    assert _write_all(7, tmp_path / "a") != _write_all(8, tmp_path / "b")


def test_structure_and_bank():
    corpus = corpus_gen.generate(3, 60)
    assert len({doc.stem for doc in corpus.docs}) == 60
    for doc in corpus.docs:
        headings = [line for line in doc.text.splitlines() if line.startswith("# ")]
        assert len(headings) == corpus.segments_per_doc
        assert f"# {corpus_gen.TABLE_SECTION} " in doc.text
        assert f"# {corpus_gen.IMAGE_SECTION} " in doc.text
    undescribed = [d for d in corpus.docs if "description" not in d.meta["images"][0]]
    assert len(undescribed) == corpus.skipped_images >= 1
    stems = {doc.stem for doc in corpus.docs}
    assert {q["class"] for q in corpus.bank} == {"long", "short"}
    for q in corpus.bank:
        assert all(key.split("#")[0] in stems for key in q["relevant"])


def test_headings_stay_inside_one_window_core():
    for doc in corpus_gen.generate(5, 40).docs:
        words = 0
        for line in doc.text.splitlines():
            n = len(line.split())
            if line.startswith("# "):
                first, last = words, words + n - 1
                assert first // corpus_gen.WINDOW_WORDS == last // corpus_gen.WINDOW_WORDS
            words += n
