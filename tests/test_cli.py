import csv
import hashlib
import json
import logging
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import hiret

from conftest import (
    FORMAT_3_FILES,
    dense,
    manual_doc_stem,
    manual_doc_title,
    manual_queries,
    restamp_manifest,
    write_datasheet_corpus,
    write_manual_corpus,
)
from hiret.cli import (
    AppConfig,
    UsageError,
    _apply_overrides,
    build_parser,
    load_config,
    main,
    run_cohesion,
    run_eval,
    run_ingest,
    run_query,
)
from hiret.index import InconsistentIndexError, IndexFormatError, load_index
from make_golden import DATA_DIR

SRC_DIR = str(Path(hiret.__file__).resolve().parents[1])


def dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture()
def manual_setup(tmp_path):
    corpus = write_manual_corpus(tmp_path / "corpus", 5)
    index_dir = tmp_path / "index"
    cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(index_dir))
    run_ingest(cfg)
    return cfg, tmp_path


class TestIngest:
    def test_report_and_files(self, tmp_path):
        corpus = write_datasheet_corpus(tmp_path / "corpus")
        cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"))
        report = run_ingest(cfg)
        assert report["documents"] == 1
        assert report["segments"] == 5  # preamble + 4 chapters
        assert report["skipped"] == 0
        names = {p.name for p in (tmp_path / "index").iterdir()}
        assert names == {
            "manifest.json",
            "vector_rows.npy",
            "vector_offsets.npy",
            "vector_ordinals.npy",
            "vector_values.npy",
            "postings_terms.json",
            "postings_offsets.npy",
            "postings_rows.npy",
            "postings_tf.npy",
            "keywords_terms.json",
            "keywords_offsets.npy",
            "keywords_rows.npy",
            "segment_keys.json",
            "segments.jsonl",
            "segment_offsets.npy",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["corpus", "index"]  # no staging left

    def test_refuses_to_replace_a_directory_of_other_files(self, tmp_path, capsys):
        corpus = write_manual_corpus(tmp_path / "corpus", 1)
        before = dir_bytes(corpus)
        code = main(["--corpus-dir", str(corpus), "--index-dir", str(corpus), "ingest"])
        assert code == 2
        assert "not index files" in capsys.readouterr().err
        assert dir_bytes(corpus) == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus"]

    def test_reingest_is_byte_identical(self, tmp_path):
        corpus = write_manual_corpus(tmp_path / "corpus", 3)
        cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"))
        run_ingest(cfg)
        first = dir_bytes(tmp_path / "index")
        run_ingest(cfg)
        assert dir_bytes(tmp_path / "index") == first

    def test_reingest_through_a_symlink_replaces_the_directory_it_names(self, tmp_path):
        (tmp_path / "link").symlink_to(tmp_path / "real")
        for n_docs in (2, 3):  # the first ingest creates real, the second replaces it
            corpus = write_manual_corpus(tmp_path / f"corpus{n_docs}", n_docs)
            code = main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "link"),
                         "ingest"])
            assert code == 0
        assert (tmp_path / "link").is_symlink()
        assert {key.split("#")[0] for key in load_index(tmp_path / "link").keys} == {
            manual_doc_stem(i) for i in (1, 2, 3)}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus2", "corpus3", "link", "real"]  # no staging or old directory left

    def test_empty_corpus_is_ok_with_warning(self, tmp_path, capsys):
        (tmp_path / "corpus").mkdir()
        code = main(
            ["--corpus-dir", str(tmp_path / "corpus"), "--index-dir", str(tmp_path / "index"), "ingest"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 documents" in out

    def test_malformed_heading_counts_one_warning(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "odd.md").write_text("# 3.x Mystery\nbody text\n", encoding="utf-8")
        cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"))
        report = run_ingest(cfg)
        assert report["warnings"] == 1
        assert report["segments"] == 1

    @pytest.mark.parametrize("titles", [["1 Alpha", "1 Beta", "1+2 Gamma"],
                                        ["1+2 Gamma", "1 Beta", "1 Alpha"]])
    def test_plus_n_shaped_heading_number_ingests(self, tmp_path, titles):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d.md").write_text("".join(f"# {t}\nbody\n" for t in titles), encoding="utf-8")
        cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"))
        assert run_ingest(cfg)["segments"] == 3
        assert len(set(load_index(cfg.index_dir).keys)) == 3

    def test_fixture_ingest_warns_once_per_undescribed_image(self, tmp_path, capsys, caplog):
        code = main(["--corpus-dir", str(DATA_DIR / "corpus"), "--index-dir",
                     str(tmp_path / "index"), "ingest"])
        assert code == 0
        assert "(5 skipped, 5 warnings)" in capsys.readouterr().out
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warned) == 5
        assert all(w.endswith(": image has no description and no captioner; excluded from "
                              "the vector index") for w in warned)

    def test_report_counts_every_warning_logged_during_the_ingest(self, tmp_path, capsys,
                                                                  caplog, monkeypatch):
        # A punctuation-only document has no embeddable text: the vector index
        # warns that it skips the segment, and the report counts that warning.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.md").write_text("---\n", encoding="utf-8")
        (corpus / "a.meta.json").write_text(json.dumps({"title": "..."}), encoding="utf-8")
        reports = []
        monkeypatch.setattr("hiret.cli.run_ingest",
                            lambda cfg: reports.append(run_ingest(cfg)) or reports[-1])
        code = main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "index"),
                     "ingest"])
        assert code == 0
        assert "(1 skipped, 1 warnings)" in capsys.readouterr().out
        warned = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warned == ["segment a#preamble: vector is zero (no embeddable text); "
                          "skipped from vector index"]
        assert reports[0]["warning_messages"] == warned
        assert logging.getLogger("hiret").handlers == []  # the ingest's handler is gone

    @pytest.mark.parametrize("sidecar, field", [
        ({"title": "Doc \ud800 one"}, "'title'"),
        ({"images": [{"id": "fig1", "description": "pinout \udfff view"}]},
         "images[0]: 'description'"),
    ], ids=["title", "image-description"])
    def test_sidecar_string_with_a_lone_surrogate_is_a_data_error(self, tmp_path, capsys,
                                                                   monkeypatch, sidecar, field):
        corpus = write_manual_corpus(tmp_path / "corpus", 2)
        meta = corpus / f"{manual_doc_stem(2)}.meta.json"
        meta.write_text(json.dumps(sidecar), encoding="utf-8")  # the surrogate as a \u escape

        def parse_markdown(*args):
            raise AssertionError("parsed a document of a corpus that does not load")

        monkeypatch.setattr("hiret.cli.parse_markdown", parse_markdown)
        code = main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "index"),
                     "ingest"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: sidecar {meta}: {field} must be UTF-8 text, got ")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus"]  # no index, no staging sibling

    def test_file_name_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        corpus = write_manual_corpus(tmp_path / "corpus", 2)
        name = os.fsencode(corpus) + b"/ds\xff.md"  # "ds\udcff.md" as a str: no doc_id
        with open(name, "w", encoding="utf-8") as f:
            f.write("# 1 Overview\nBody.\n")
        code = main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "index"),
                     "ingest"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: document file name is not UTF-8: {name!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["corpus"]  # no index, no staging sibling

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = main(["--corpus-dir", str(tmp_path / "nope"), "ingest"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_segment_keys_globally_unique(self, tmp_path):
        corpus = write_manual_corpus(tmp_path / "corpus", 4)
        cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"))
        run_ingest(cfg)
        from hiret.index import load_index

        bundle = load_index(cfg.index_dir)
        assert len(bundle.keys) == len(set(bundle.keys)) == 40

    def test_embedder_config_flows_to_manifest(self, tmp_path):
        corpus = write_manual_corpus(tmp_path / "corpus", 1)
        cfg = AppConfig(
            corpus_dir=str(corpus),
            index_dir=str(tmp_path / "index"),
            embedder={"kind": "hash", "dim": 64},
        )
        run_ingest(cfg)
        manifest = json.loads((tmp_path / "index" / "manifest.json").read_text())
        assert "dim" not in manifest  # the embedder's dim is the one vector width
        assert manifest["embedder"] == {"dim": 64, "kind": "hash"}
        assert dense(load_index(cfg.index_dir).vectors).shape == (10, 64)

    def test_keyword_dictionary_persists_and_boosts(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.md").write_text("# 1 power\nthe supply block\n", encoding="utf-8")
        (corpus / "b.md").write_text("# 1 power\nthe regulator block\n", encoding="utf-8")
        words = tmp_path / "dict.txt"
        words.write_text("regulator\n", encoding="utf-8")
        cfg = AppConfig(
            corpus_dir=str(corpus),
            index_dir=str(tmp_path / "index"),
            keyword_dict=str(words),
            beta=1.0,
        )
        run_ingest(cfg)
        from hiret.cli import run_query

        result = run_query(cfg, "regulator power")
        assert result["results"][0]["segment_key"] == "b#1"
        assert result["results"][0]["keyword_hits"] == 1

    def test_keyword_dictionary_lines_are_stripped_folded_and_deduplicated(self, tmp_path):
        corpus = write_manual_corpus(tmp_path / "corpus", 1)
        words = tmp_path / "dict.txt"
        words.write_text("  Regulator \n\n\t\nregulator\r\nPINOUT\n", encoding="utf-8")
        run_ingest(AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"),
                             keyword_dict=str(words)))
        assert load_index(tmp_path / "index").user_keywords == ["pinout", "regulator"]

    def test_keyword_dictionary_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        corpus = write_manual_corpus(tmp_path / "corpus", 1)
        words = tmp_path / "dict.txt"
        words.write_bytes(b"\xffregulator\n")
        code = main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "index"),
                     "--keywords", str(words), "ingest"])
        assert code == 2
        assert f"error: cannot read keyword dictionary {words}: 'utf-8' codec" in \
            capsys.readouterr().err
        assert not (tmp_path / "index").exists()


class TestKilledIngest:
    def test_sigkill_mid_ingest_leaves_the_old_or_the_new_index(self, tmp_path):
        # Index A has no keyword dictionary; the killed ingest writes index B, with one.
        target = tmp_path / "index"
        flags = ["--corpus-dir", str(DATA_DIR / "corpus"), "--index-dir", str(target)]
        command = [sys.executable, "-m", "hiret.cli", *flags,
                   "--keywords", str(DATA_DIR / "keywords.txt"), "ingest"]
        env = {**os.environ, "PYTHONPATH": SRC_DIR}

        def digests(directory):
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in directory.iterdir()}

        def ingest_a():  # uninterrupted, and it must succeed
            assert main([*flags, "ingest"]) == 0
            return digests(target)

        index_a = ingest_a()
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=60)
        run_s = time.perf_counter() - started
        index_b = digests(target)
        assert index_a.keys() == index_b.keys() and index_a != index_b
        rng = random.Random(6)
        for delay in sorted(rng.uniform(0, run_s) for _ in range(5)):
            assert ingest_a() == index_a
            proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL)
            try:
                time.sleep(delay)
            finally:
                proc.kill()
                proc.wait(timeout=60)
            siblings = [p for p in tmp_path.iterdir() if p != target]
            assert all(p.name.startswith((".index.new-", ".index.old-")) for p in siblings)
            if target.exists():
                load_index(target)
                assert digests(target) in (index_a, index_b), delay
            else:  # killed between the save's two renames: A is aside, under its old- name
                old = [p for p in siblings if p.name.startswith(".index.old-")]
                assert len(old) == 1 and digests(old[0]) == index_a, delay
                assert load_index(target).user_keywords == [], delay
            for p in siblings:
                shutil.rmtree(p)
        assert ingest_a() == index_a

    @pytest.mark.parametrize("renames", [1, 2])
    def test_ingest_that_dies_after_a_rename_of_its_save_leaves_a_loadable_index(
            self, tmp_path, renames):
        # Index A has no keyword dictionary; the dying ingest writes index B, with one.
        target = tmp_path / "index"
        flags = ["--corpus-dir", str(DATA_DIR / "corpus"), "--index-dir", str(target)]
        assert main([*flags, "ingest"]) == 0
        index_a = dir_bytes(target)
        dying = ("import os, sys, hiret.cli\n"
                 "rename, done = os.rename, []\n"
                 "def rename_then_maybe_die(*args):\n"
                 "    rename(*args)\n"
                 "    done.append(args)\n"
                 f"    if len(done) == {renames}:\n"
                 "        os._exit(3)\n"
                 "os.rename = rename_then_maybe_die\n"
                 "sys.exit(hiret.cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", dying, *flags,
                               "--keywords", str(DATA_DIR / "keywords.txt"), "ingest"],
                              env={**os.environ, "PYTHONPATH": SRC_DIR},
                              capture_output=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        left = sorted(p.name[:11] for p in tmp_path.iterdir())
        # After the first rename A is aside and B staged; after the second B is in place.
        assert left == ([".index.new-", ".index.old-"] if renames == 1
                        else [".index.old-", "index"])
        loaded = load_index(target)
        assert sorted(p.name[:11] for p in tmp_path.iterdir()) == left  # nothing renamed
        assert bool(loaded.user_keywords) == (renames == 2)  # B has a dictionary, A none
        assert main([*flags, "ingest"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["index"]
        assert dir_bytes(target) == index_a


class TestPluginFailures:
    """A plug-in that cannot start, dies at once or lacks its command ends
    ``ingest`` with a one-line message and an exit code, not a traceback."""

    def ingest(self, tmp_path, **plugins):
        corpus = write_datasheet_corpus(tmp_path / "corpus")  # holds an image to caption
        config = tmp_path / "config.json"
        config.write_text(json.dumps(plugins), encoding="utf-8")
        return main(["--config", str(config), "--corpus-dir", str(corpus),
                     "--index-dir", str(tmp_path / "index"), "ingest"])

    @pytest.mark.parametrize("role", ["embedder", "captioner"])
    @pytest.mark.parametrize("command,says", [
        ([sys.executable, "-c", "pass"], "'-c', 'pass']"),
        (["hiret-test-no-such-worker"], "hiret-test-no-such-worker'] cannot start"),
    ], ids=["exits-at-once", "missing-executable"])
    def test_failing_worker_is_a_data_error(self, tmp_path, capsys, role, command, says):
        code = self.ingest(tmp_path, **{role: {"kind": "subprocess", "command": command,
                                               "dim": 3}})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: plug-in [") and says in err
        assert "Traceback" not in err
        assert not (tmp_path / "index").exists()

    def test_non_numeric_vector_is_a_data_error(self, tmp_path, capsys):
        worker = ("import json, sys\nfor line in sys.stdin:\n"
                  "    print(json.dumps({'vector': ['a', 'b', 'c']}), flush=True)\n")
        code = self.ingest(tmp_path, embedder={"kind": "subprocess", "dim": 3,
                                               "command": [sys.executable, "-c", worker]})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: plug-in [") and "'vector' of JSON numbers" in err
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("dim", [64.7, True, 0, "64"])
    def test_embedder_dim_must_be_a_positive_int(self, tmp_path, capsys, dim):
        code = self.ingest(tmp_path, embedder={"kind": "hash", "dim": dim})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: embedder 'dim' must be an integer >= 1")
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("command", [5, "python w.py", []], ids=["int", "string", "empty"])
    def test_captioner_command_must_be_a_list_of_strings(self, tmp_path, capsys, command):
        code = self.ingest(tmp_path, captioner={"kind": "subprocess", "command": command})
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("usage error: subprocess captioner 'command' must be a non-empty "
                       "list of strings\n")
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("role", ["embedder", "captioner"])
    def test_spec_without_command_is_usage_error(self, tmp_path, capsys, role):
        code = self.ingest(tmp_path, **{role: {"kind": "subprocess", "dim": 3}})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and "command" in err


class TestQuery:
    def test_unique_title_path_ranks_first(self, manual_setup, capsys):
        cfg, tmp_path = manual_setup
        query = f"{manual_doc_title(3)} pinout"
        code = main(
            ["--index-dir", cfg.index_dir, "query", query, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["segment_key"] == f"{manual_doc_stem(3)}#3"
        assert payload["results"][0]["rank"] == 1

    def test_each_result_shows_the_segment_its_key_names(self, manual_setup, capsys):
        cfg, _ = manual_setup
        code = main(["--index-dir", cfg.index_dir, "--top-k", "20", "query",
                     "timing characteristics pinout", "--json"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["results"]
        bundle = load_index(cfg.index_dir)
        assert len(results) == 20
        for result in results:
            seg = bundle.segments[bundle.keys.index(result["segment_key"])]
            shown = [result[name] for name in ("content", "metadata_path", "title", "kind")]
            assert shown == [seg.content, seg.metadata_path, seg.title, seg.kind]

    def test_top_k_one_gives_one_row(self, manual_setup, capsys):
        cfg, _ = manual_setup
        code = main(["--index-dir", cfg.index_dir, "--top-k", "1", "query", "pinout", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 1

    def test_repeat_is_deterministic(self, manual_setup, capsys):
        cfg, _ = manual_setup
        main(["--index-dir", cfg.index_dir, "query", "timing characteristics", "--json"])
        first = capsys.readouterr().out
        main(["--index-dir", cfg.index_dir, "query", "timing characteristics", "--json"])
        assert capsys.readouterr().out == first

    def test_table_output_shows_path_and_scores(self, manual_setup, capsys):
        cfg, _ = manual_setup
        code = main(["--index-dir", cfg.index_dir, "query", "ordering information"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fused=" in out and " > " in out

    def test_missing_index_is_instructive(self, tmp_path, capsys):
        code = main(["--index-dir", str(tmp_path / "missing"), "query", "x"])
        assert code == 2
        assert "ingest" in capsys.readouterr().err

    def test_inconsistent_index_is_refused_at_load(self, manual_setup, capsys):
        cfg, _ = manual_setup
        index_dir = Path(cfg.index_dir)
        saved = dir_bytes(index_dir)

        def refused(error, named):
            with pytest.raises(error, match=re.escape(named)):
                load_index(index_dir)
            assert main(["--index-dir", cfg.index_dir, "query", "pinout"]) == 2
            err = capsys.readouterr().err
            assert named in err and "run 'hiret ingest'" in err

        # Consistent file sums, bad contents: a key twice in the key order ...
        keys = json.loads(saved["segment_keys.json"])
        duplicated = keys[0]
        keys[1] = duplicated
        (index_dir / "segment_keys.json").write_text(json.dumps(keys), encoding="utf-8")
        restamp_manifest(index_dir, "segment_keys.json")
        refused(InconsistentIndexError, f"duplicate segment keys: [{duplicated!r}]")

        # ... and a keyword row past the last segment.
        (index_dir / "segment_keys.json").write_bytes(saved["segment_keys.json"])
        restamp_manifest(index_dir, "segment_keys.json")
        rows = np.load(index_dir / "keywords_rows.npy")
        rows[-1] = len(keys)
        np.save(index_dir / "keywords_rows.npy", rows)
        restamp_manifest(index_dir, "keywords_rows.npy")
        refused(IndexFormatError, f"keywords_rows.npy holds rows outside the {len(keys)} segments")

    def test_previous_format_asks_for_a_reingest(self, tmp_path, capsys):
        index_dir = tmp_path / "index"
        index_dir.mkdir()
        manifest = {"format_version": 3, "dim": 256, "k1": 1.2, "b": 0.75,
                    "embedder": {"kind": "hash", "dim": 256}, "user_keywords": [],
                    "files": {name: {"bytes": 2, "sha256": "0" * 64} for name in FORMAT_3_FILES}}
        (index_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        for name in FORMAT_3_FILES:
            (index_dir / name).write_text("{}", encoding="utf-8")
        code = main(["--index-dir", str(index_dir), "query", "pinout"])
        assert code == 2
        err = capsys.readouterr().err
        assert "format_version 3 (expected 8)" in err and "run 'hiret ingest'" in err

    def test_format_5_index_asks_for_a_reingest(self, manual_setup, capsys):
        cfg, _ = manual_setup
        manifest = Path(cfg.index_dir) / "manifest.json"
        text = manifest.read_text(encoding="utf-8")
        # format 6 has format 5's files, format 7 format 8's (with <i4 rows, every field stored)
        for version in (5, 6, 7):
            manifest.write_text(text.replace('"format_version": 8',
                                             f'"format_version": {version}'), encoding="utf-8")
            assert main(["--index-dir", cfg.index_dir, "query", "pinout"]) == 2
            err = capsys.readouterr().err
            assert f"format_version {version} (expected 8)" in err
            assert "run 'hiret ingest'" in err

    @pytest.mark.parametrize("edit,named", [
        (lambda m: m.update(embedder={"kind": "subprocess", "command": ["w"]}), "lacks ['dim']"),
        (lambda m: m.update(k1=None), "'k1' is missing or mistyped"),
        (lambda m: m.update(b="0.75"), "'b' is missing or mistyped"),
        (lambda m: m.update(user_keywords=None), "'user_keywords' is missing or mistyped"),
        (lambda m: m.update(user_keywords=[None]), "'user_keywords' must be a list of strings"),
        (lambda m: m.update(k1=0), "k1 must be > 0, got 0"),
        (lambda m: m.update(k1=math.inf), "k1 must be finite, got inf"),
        (lambda m: m.update(b=1.5), "b must be in [0, 1], got 1.5"),
        (lambda m: m["files"]["keywords_rows.npy"].pop("crc32"),
         "files['keywords_rows.npy'] needs"),
        (lambda m: m["files"].update({"vector_values.npy": 7}),
         "files['vector_values.npy'] needs"),
        (lambda m: m.update(embedder={"kind": "bogus"}), "unknown embedder kind: 'bogus'"),
        (lambda m: m.update(embedder={"kind": "subprocess", "dim": 256}), "lacks ['command']"),
        (lambda m: m.update(embedder={"kind": "subprocess", "command": "w", "dim": 256}),
         "'command' must be a non-empty list of strings"),
        (lambda m: m.update(embedder={"kind": "hash", "dim": 64}),
         "vector_offsets.npy does not split 1361 entries into 64 parts"),
    ], ids=["no-dim", "null-k1", "string-b", "null-dictionary", "null-dictionary-word",
            "zero-k1", "infinite-k1", "b-above-1", "no-crc32", "entry-not-object", "unknown-embedder",
            "embedder-no-command", "embedder-string-command", "embedder-other-dim"])
    def test_bad_manifest_field_is_named_and_asks_for_a_reingest(self, manual_setup, capsys,
                                                                 edit, named):
        cfg, _ = manual_setup
        path = Path(cfg.index_dir) / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexFormatError, match=re.escape(named)):
            load_index(cfg.index_dir)
        code = main(["--index-dir", cfg.index_dir, "query", "pinout"])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "run 'hiret ingest'" in err

    @pytest.mark.parametrize("line", [b"[1]", b'{"zz": 1}', b'{"segment_id": 5}'])
    def test_segment_line_that_is_not_a_segment_is_refused_by_row(self, manual_setup, capsys,
                                                                  line):
        cfg, _ = manual_setup
        index_dir = Path(cfg.index_dir)
        lines = (index_dir / "segments.jsonl").read_bytes().splitlines(keepends=True)
        lines[3] = line + b"\n"
        (index_dir / "segments.jsonl").write_bytes(b"".join(lines))
        np.save(index_dir / "segment_offsets.npy",
                np.cumsum([0] + [len(seg_line) for seg_line in lines], dtype="<i8"))
        for name in ("segments.jsonl", "segment_offsets.npy"):
            restamp_manifest(index_dir, name)
        code = main(["--index-dir", cfg.index_dir, "--top-k", str(len(lines)), "query", "pinout"])
        assert code == 2
        assert "error: segment row 3 is not a segment" in capsys.readouterr().err

    def test_damaged_file_is_refused_with_its_name(self, manual_setup, capsys):
        cfg, _ = manual_setup
        path = Path(cfg.index_dir) / "postings_tf.npy"
        path.write_bytes(path.read_bytes()[:-4])
        code = main(["--index-dir", cfg.index_dir, "query", "pinout"])
        assert code == 2
        err = capsys.readouterr().err
        assert "postings_tf.npy" in err and "run 'hiret ingest'" in err

    def test_closed_stdout_pipe_exits_cleanly(self, manual_setup):
        # `hiret query ... | head`: the reader is gone before the output is written
        cfg, _ = manual_setup
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hiret.cli", "--index-dir", cfg.index_dir,
                 "--top-k", "50", "query", "pinout", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": SRC_DIR},
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 0

    def test_empty_index_query_is_graceful(self, tmp_path, capsys):
        (tmp_path / "corpus").mkdir()
        cfg = AppConfig(corpus_dir=str(tmp_path / "corpus"), index_dir=str(tmp_path / "index"))
        run_ingest(cfg)
        code = main(["--index-dir", cfg.index_dir, "query", "anything"])
        assert code == 0
        assert "no results" in capsys.readouterr().out


class TestEval:
    def write_bank(self, path, queries):
        path.write_text(
            "".join(json.dumps(q) + "\n" for q in queries), encoding="utf-8"
        )

    def test_unique_targets_score_one(self, manual_setup, capsys):
        cfg, tmp_path = manual_setup
        bank = tmp_path / "bank.jsonl"
        self.write_bank(bank, manual_queries(5))
        out_csv = tmp_path / "report.csv"
        code = main(
            ["--index-dir", cfg.index_dir, "eval", str(bank), "--output", str(out_csv)]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "mean=1.000000" in summary

        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["query_id", "score"]
        body, summary_row = rows[1:-1], rows[-1]
        assert summary_row[0] == "summary"
        scores = [float(score) for _, score in body]
        assert float(summary_row[1]) == pytest.approx(sum(scores) / len(scores), abs=1e-12)

    def test_unknown_relevant_key_lists_query_ids(self, manual_setup, capsys):
        cfg, tmp_path = manual_setup
        bank = tmp_path / "bank.jsonl"
        self.write_bank(
            bank,
            [
                {"id": "good", "query": "pinout", "relevant": [f"{manual_doc_stem(1)}#3"]},
                {"id": "bad-one", "query": "x", "relevant": ["ghost#9"]},
            ],
        )
        code = main(["--index-dir", cfg.index_dir, "eval", str(bank)])
        assert code == 2
        assert "bad-one" in capsys.readouterr().err

    def test_bank_that_is_not_utf8_is_a_data_error(self, manual_setup, capsys):
        cfg, tmp_path = manual_setup
        bank = tmp_path / "bank.jsonl"
        bank.write_bytes(b'\xff{"query": "pinout", "relevant": ["x#1"]}\n')
        code = main(["--index-dir", cfg.index_dir, "eval", str(bank)])
        assert code == 2
        assert f"error: unreadable question bank {bank}: 'utf-8' codec" in capsys.readouterr().err

    def test_empty_bank_is_error(self, manual_setup, capsys):
        cfg, tmp_path = manual_setup
        bank = tmp_path / "bank.jsonl"
        bank.write_text("", encoding="utf-8")
        code = main(["--index-dir", cfg.index_dir, "eval", str(bank)])
        assert code == 2


class TestCohesion:
    def test_rows_cover_groups_and_points(self, manual_setup, tmp_path):
        cfg, _ = manual_setup
        rows = run_cohesion(cfg, "by-document")
        for variant in ("augmented", "raw"):
            stat_rows = [r for r in rows if r[0] == "stat" and r[1] == variant]
            point_rows = [r for r in rows if r[0] == "point" and r[1] == variant]
            assert len(stat_rows) == 5  # one per document
            assert len(point_rows) == 50  # one per segment

    def test_by_section_title_grouping(self, manual_setup):
        cfg, _ = manual_setup
        rows = run_cohesion(cfg, "by-section-title")
        stat_rows = [r for r in rows if r[0] == "stat" and r[1] == "augmented"]
        assert len(stat_rows) == 10  # one per distinct section title

    def test_csv_output(self, manual_setup, capsys):
        cfg, tmp_path = manual_setup
        out_csv = tmp_path / "cohesion.csv"
        code = main(
            ["--index-dir", cfg.index_dir, "cohesion", "--grouping", "by-document",
             "--output", str(out_csv)]
        )
        assert code == 0
        with open(out_csv, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "record"
        assert len(rows) == 1 + 2 * (5 + 50)

    def test_unknown_grouping_is_a_usage_error(self, tmp_path):
        cfg = AppConfig(index_dir=str(tmp_path / "index"))
        with pytest.raises(UsageError, match="unknown grouping: 'by-chapter'"):
            run_cohesion(cfg, "by-chapter")

    def test_singleton_group_marked_undefined(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "one.md").write_text("# 1 alpha\nalpha body\n# 2 beta\nbeta body\n")
        (corpus / "two.md").write_text("# 1 gamma\ngamma body\n")
        cfg = AppConfig(corpus_dir=str(corpus), index_dir=str(tmp_path / "index"))
        run_ingest(cfg)
        rows = run_cohesion(cfg, "by-document")
        stat = next(r for r in rows if r[0] == "stat" and r[1] == "augmented" and r[2] == "two")
        assert stat[4] == ""  # undefined mean pairwise cosine
        assert stat[6] == 1

    def test_one_segment_index_is_a_data_error_in_plain_words(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "one.md").write_text("# 1 alpha\nalpha body\n", encoding="utf-8")
        index_dir = str(tmp_path / "index")
        assert main(["--corpus-dir", str(corpus), "--index-dir", index_dir, "ingest"]) == 0
        capsys.readouterr()
        code = main(["--index-dir", index_dir, "cohesion", "--output", str(tmp_path / "c.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cohesion (augmented): the 2-D projection needs at least 2 vectors\n")


class TestConfigAndExitCodes:
    def test_config_file_with_overrides(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.9, "top_k": 3}), encoding="utf-8")
        cfg = load_config(config)
        assert cfg.alpha == 0.9 and cfg.top_k == 3

    @pytest.mark.parametrize("data", [{"top_k": "5"}, {"embedder": "hash"}])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, data):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        code = main(["--config", str(config), "ingest"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert next(iter(data)) in err

    @pytest.mark.parametrize("data", [{"alpha": 1}, {"keyword_dict": None}])
    def test_int_for_float_and_null_for_optional_load(self, tmp_path, data):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        assert asdict(load_config(config)) == {**asdict(AppConfig()), **data}

    FILE_VALUES = {
        "corpus_dir": "c1", "index_dir": "i1",
        "alpha": 0.75, "beta": 0.2, "gamma": 3.0, "top_k": 4, "k1": 1.1, "b": 0.6,
        "keyword_dict": "file.txt", "embedder": {"kind": "hash", "dim": 64},
        "captioner": {"kind": "subprocess", "command": ["describe"]},
    }
    FLAGS = [
        ("--corpus-dir", "c2", "corpus_dir", "c2"),
        ("--index-dir", "i2", "index_dir", "i2"),
        ("--alpha", "0.25", "alpha", 0.25),
        ("--beta", "0.5", "beta", 0.5),
        ("--gamma", "2.0", "gamma", 2.0),
        ("--top-k", "9", "top_k", 9),
        ("--k1", "1.5", "k1", 1.5),
        ("--b", "0.5", "b", 0.5),
        ("--keywords", "flag.txt", "keyword_dict", "flag.txt"),
    ]

    def test_every_field_but_the_plugins_has_a_flag(self):
        flagged = {name for _, _, name, _ in self.FLAGS}
        assert flagged == {f.name for f in fields(AppConfig)} - {"embedder", "captioner"}
        assert set(self.FILE_VALUES) == {f.name for f in fields(AppConfig)}

    @pytest.mark.parametrize("flag,text,name,value", FLAGS)
    def test_flag_overrides_its_config_value(self, tmp_path, flag, text, name, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.FILE_VALUES), encoding="utf-8")
        args = build_parser().parse_args(["--config", str(config), flag, text, "ingest"])
        cfg = _apply_overrides(load_config(args.config), args)
        assert asdict(cfg) == {**self.FILE_VALUES, name: value}

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"alpha": 0.9}]), encoding="utf-8")
        with pytest.raises(UsageError, match="must hold a JSON object"):
            load_config(config)

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alhpa": 0.9}), encoding="utf-8")
        code = main(["--config", str(config), "ingest"])
        assert code == 1
        assert "alhpa" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["--top-k", "not-a-number", "ingest"]) == 1

    def test_infinite_k1_is_usage_error(self, tmp_path, capsys):
        corpus = write_manual_corpus(tmp_path / "corpus", 1)
        code = main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "index"),
                     "--k1", "inf", "ingest"])
        assert code == 1
        assert "k1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("flags, code, says", [
        (["--k1", "inf"], 1, "k1 must be finite"),
        (["--b", "2"], 1, "b must be in [0, 1]"),
        (["--keywords", "missing.txt"], 2, "cannot read keyword dictionary"),
        # No flag or config key sets a conversion window. Before the command, the
        # flag is named, not the 7 argparse would take for the command.
        (["--window", "7"], 1, "unrecognized arguments: --window\n"),
        (["--window=7"], 1, "unrecognized arguments: --window=7"),
        (["--config", "window.json"], 1, "unknown keys: ['window']"),
        # A known flag's value that names a command is skipped, not taken for it.
        (["--index-dir", "ingest", "--window", "7"], 1, "unrecognized arguments: --window\n"),
        (["-x", "7"], 1, "unrecognized arguments: -x\n"),
    ], ids=["k1-inf", "b-2", "missing-keywords", "window-flag", "window-flag-equals",
            "window-config-key", "window-flag-after-a-command-value", "single-dash-flag"])
    def test_bad_ingest_setting_is_refused_before_any_conversion(self, tmp_path, capsys,
                                                                  monkeypatch, flags, code, says):
        calls = []
        monkeypatch.setattr("hiret.cli.parse_markdown", lambda *args: calls.append(args) or [])
        corpus = write_manual_corpus(tmp_path / "corpus", 2)
        (tmp_path / "window.json").write_text(json.dumps({"window": 400}), encoding="utf-8")
        flags = [str(tmp_path / f) if f.endswith((".txt", ".json")) else f for f in flags]
        assert main(["--corpus-dir", str(corpus), "--index-dir", str(tmp_path / "index"),
                     *flags, "ingest"]) == code
        assert says in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("args, target", [
        (["--index-dir", "afile/idx", "ingest"], "afile/idx"),
        (["--index-dir", "index", "eval", "bank.jsonl", "--output", "nodir/x.csv"],
         "nodir/x.csv"),
        (["--index-dir", "index", "cohesion", "--output", "nodir/x.csv"], "nodir/x.csv"),
    ], ids=["ingest-under-a-file", "eval-csv-in-no-directory", "cohesion-csv-in-no-directory"])
    def test_unwritable_output_is_a_data_error(self, manual_setup, capsys, monkeypatch,
                                               args, target):
        _, tmp_path = manual_setup
        (tmp_path / "afile").write_text("a file, not a directory\n", encoding="utf-8")
        (tmp_path / "bank.jsonl").write_text(
            "".join(json.dumps(query) + "\n" for query in manual_queries(5)), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        calls = []  # the output is refused before a document is parsed or the index is read
        for name in ("parse_markdown", "run_eval", "run_cohesion"):
            monkeypatch.setattr(f"hiret.cli.{name}", lambda *args: calls.append(args) or [])
        before = sorted(tmp_path.rglob("*"))
        assert main(["--corpus-dir", "corpus", *args]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {target}: [Errno " in err
        assert "Traceback" not in err
        assert calls == []
        # Nothing is left behind: no CSV, no index and no .idx.new-* staging sibling.
        assert sorted(tmp_path.rglob("*")) == before

    def test_ingest_makes_the_missing_parents_of_the_index(self, tmp_path, capsys):
        corpus = write_manual_corpus(tmp_path / "corpus", 2)
        index_dir = tmp_path / "new" / "deeper" / "index"
        assert main(["--corpus-dir", str(corpus), "--index-dir", str(index_dir), "ingest"]) == 0
        assert f"-> {index_dir}" in capsys.readouterr().out
        assert (index_dir / "manifest.json").is_file()

    @pytest.mark.parametrize("flags, says", [
        (["--alpha", "2", "query", "foo"], "alpha must be in [0, 1]"),
        (["--top-k", "0", "query", "foo"], "top_k must be >= 1"),
        (["--alpha", "2", "eval", "bank.jsonl"], "alpha must be in [0, 1]"),
        (["--top-k", "0", "eval", "bank.jsonl"], "top_k must be >= 1"),
        (["--topk", "5", "query", "x"], "unrecognized arguments: --topk\n"),
        (["--index-dir", "query", "--topk", "5", "query", "x"],
         "unrecognized arguments: --topk\n"),
        (["-x", "5", "query", "x"], "unrecognized arguments: -x\n"),
        (["--alpha", "-0.5", "query", "x"], "alpha must be in [0, 1]"),  # a value, not a flag
    ], ids=["query-alpha", "query-top-k", "eval-alpha", "eval-top-k", "query-topk-flag",
            "query-topk-flag-after-a-command-value", "query-single-dash-flag",
            "query-negative-alpha"])
    def test_bad_query_setting_is_refused_before_the_index_is_read(self, tmp_path, capsys,
                                                                   monkeypatch, flags, says):
        calls = []
        monkeypatch.setattr("hiret.index.load_index", lambda *args: calls.append(args))
        assert main(["--index-dir", str(tmp_path / "missing"), *flags]) == 1
        assert f"usage error: {says}" in capsys.readouterr().err
        assert calls == []

    def test_invalid_alpha_is_usage_error(self, manual_setup, capsys):
        cfg, _ = manual_setup
        code = main(["--index-dir", cfg.index_dir, "--alpha", "2.0", "query", "x"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_query_results_hold_the_ranked_then_the_segment_fields(self, manual_setup):
        cfg, _ = manual_setup
        results = run_query(cfg, "pinout")["results"]
        assert len(results) == cfg.top_k
        for row in results:
            assert list(row) == ["rank", "segment_key", "fused_score", "score_v", "score_r",
                                 "keyword_hits", "metadata_path", "title", "kind", "content"]

    def test_numeric_flags_parse_to_their_field_types(self):
        args = build_parser().parse_args(["--alpha", ".5", "--beta", ".1", "--gamma", "2",
                                          "--top-k", "4", "--k1", "1.5", "--b", ".5", "ingest"])
        parsed = {name: getattr(args, name)
                  for name in ("alpha", "beta", "gamma", "top_k", "k1", "b")}
        assert parsed == {"alpha": 0.5, "beta": 0.1, "gamma": 2.0, "top_k": 4, "k1": 1.5,
                          "b": 0.5}
        assert {name: type(value) for name, value in parsed.items()} == {
            "alpha": float, "beta": float, "gamma": float, "top_k": int, "k1": float,
            "b": float}

    def test_cohesion_grouping_accepts_exactly_the_two_groupings(self):
        parser = build_parser()
        assert parser.parse_args(["cohesion"]).grouping == "by-document"
        for grouping in ("by-document", "by-section-title"):
            assert parser.parse_args(["cohesion", "--grouping", grouping]).grouping == grouping
        with pytest.raises(UsageError, match="invalid choice: 'by-chapter'"):
            parser.parse_args(["cohesion", "--grouping", "by-chapter"])

    def test_importing_the_cli_loads_no_plugin_machinery(self):
        # Every `hiret query` pays for what `import hiret.cli` loads; plug-ins
        # (and subprocess with them) load only when a spec asks for one, and the
        # ingest's warning counter is a plain logging.Handler, not logging.handlers.
        code = ("import sys, hiret.cli; print(sorted("
                "{'subprocess', 'hiret.plugins', 'logging.handlers'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC_DIR}, check=True)
        assert proc.stdout == "[]\n"

    def test_console_script_runs(self, tmp_path):
        corpus = write_manual_corpus(tmp_path / "corpus", 1)
        proc = subprocess.run(
            [sys.executable, "-m", "hiret.cli", "--corpus-dir", str(corpus),
             "--index-dir", str(tmp_path / "index"), "ingest"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ingested 1 documents" in proc.stdout
