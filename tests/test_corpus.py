import json
import re

import pytest

from hiret.cli import main
from hiret.corpus import CorpusError, load_corpus, segment_key


def test_empty_directory_gives_empty_list(tmp_path):
    assert load_corpus(tmp_path) == []


def test_missing_directory_raises(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        load_corpus(tmp_path / "nope")


def test_regular_file_as_directory_raises(tmp_path):
    (tmp_path / "afile").write_text("a file, not a directory\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="is not a directory: .*afile$"):
        load_corpus(tmp_path / "afile")


def test_title_defaults_to_filename_stem(tmp_path):
    (tmp_path / "a.md").write_text("hello world", encoding="utf-8")
    records = load_corpus(tmp_path)
    assert len(records) == 1
    record = records[0]
    assert record.doc_id == "a"
    assert record.title == "a"
    assert record.text == "hello world"
    assert record.segments == []


def test_sidecar_supplies_title_and_images(tmp_path):
    (tmp_path / "ds.md").write_text("content", encoding="utf-8")
    (tmp_path / "ds.meta.json").write_text(
        json.dumps(
            {
                "title": "CA-IS3641 Datasheet",
                "images": [{"id": "img1", "file": "p3.png", "description": "pinout diagram"}],
            }
        ),
        encoding="utf-8",
    )
    (record,) = load_corpus(tmp_path)
    assert record.title == "CA-IS3641 Datasheet"
    assert len(record.images) == 1
    assert record.images[0].image_id == "img1"
    assert record.images[0].file_ref == "p3.png"
    assert record.images[0].description == "pinout diagram"


@pytest.mark.parametrize("meta,named", [
    ({"title": 5}, "'title' must be a string, got 5"),
    ({"title": None}, "'title' must be a string, got None"),
    ({"images": [{"id": 1}]}, "images[0]: 'id' must be a string, got 1"),
    ({"images": [{"file": ["p3.png"]}]}, "images[0]: 'file' must be a string, got ['p3.png']"),
    ({"images": [{"id": "a"}, {"description": None}]},
     "images[1]: 'description' must be a string, got None"),
    ({"images": None}, "'images' must be a list"),
], ids=["int-title", "null-title", "int-id", "list-file", "null-description", "null-images"])
def test_non_string_sidecar_value_is_refused(tmp_path, capsys, meta, named):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ds.md").write_text("# 1 Intro\nfig\n", encoding="utf-8")
    (corpus / "ds.meta.json").write_text(json.dumps(meta), encoding="utf-8")
    named = f"sidecar {corpus / 'ds.meta.json'}: {named}"
    with pytest.raises(CorpusError, match=re.escape(named)):
        load_corpus(corpus)
    assert main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "idx"),
                 "ingest"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "idx").exists()


@pytest.mark.parametrize("text,named", [
    ("{not json", "unreadable sidecar {}: "),
    ('["title"]', "sidecar {} must hold a JSON object"),
    ('{"images": ["p3.png"]}', "sidecar {}: images[0] must be an object"),
], ids=["not-json", "list", "image-not-object"])
def test_malformed_sidecar_is_refused(tmp_path, text, named):
    (tmp_path / "ds.md").write_text("# 1 Intro\nfig\n", encoding="utf-8")
    (tmp_path / "ds.meta.json").write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(named.format(tmp_path / "ds.meta.json"))):
        load_corpus(tmp_path)


def test_ordering_is_stable_by_path(tmp_path):
    for name in ["b.md", "a.txt", "c.md"]:
        (tmp_path / name).write_text("x", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "d.md").write_text("x", encoding="utf-8")
    ids = [r.doc_id for r in load_corpus(tmp_path)]
    assert ids == ["a", "b", "c", "d"]


def test_loading_is_deterministic(tmp_path):
    (tmp_path / "a.md").write_text("one two", encoding="utf-8")
    (tmp_path / "b.txt").write_text("three", encoding="utf-8")
    assert load_corpus(tmp_path) == load_corpus(tmp_path)


def test_duplicate_doc_id_is_hard_error(tmp_path):
    (tmp_path / "a.md").write_text("x", encoding="utf-8")
    (tmp_path / "a.txt").write_text("y", encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate doc_id 'a'"):
        load_corpus(tmp_path)


def test_unreadable_file_error_names_the_path(tmp_path):
    (tmp_path / "bin.md").write_bytes(b"\xff\xfe\x00broken")
    with pytest.raises(CorpusError, match="bin.md"):
        load_corpus(tmp_path)


def test_other_suffixes_are_ignored(tmp_path):
    (tmp_path / "a.md").write_text("x", encoding="utf-8")
    (tmp_path / "notes.pdf").write_text("x", encoding="utf-8")
    assert [r.doc_id for r in load_corpus(tmp_path)] == ["a"]


def test_segment_key_format():
    assert segment_key("doc", "3.2") == "doc#3.2"
