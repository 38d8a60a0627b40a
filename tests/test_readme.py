"""The README's examples run as they are written."""

import json
import re
import shlex
from pathlib import Path

from conftest import manual_queries, write_manual_corpus

from hiret import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_ranks_the_named_section_first(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.M | re.S)
    write_manual_corpus(tmp_path / "corpus", 5)
    monkeypatch.chdir(tmp_path)  # the example reads "corpus" from the working directory
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["outcome"].ranking.rank_of("unit03a7#3") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1"


def test_cli_block_runs_each_command(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)  # each fenced block, its language and its text
    (block,) = [text for _, text in blocks if text.startswith("hiret ")]
    lines = block.splitlines()
    assert [shlex.split(line)[-1] for line in lines] == [
        "ingest", "unit03a7 handbook pinout", "--json", "report.csv", "cohesion.csv"]
    write_manual_corpus(tmp_path / "corpus", 5)
    (tmp_path / "bank.jsonl").write_text(
        "".join(json.dumps(query) + "\n" for query in manual_queries(5)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the commands name their files relative to it
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "idx" / "index.hiret").is_file()
    assert (tmp_path / "report.csv").is_file() and (tmp_path / "cohesion.csv").is_file()
    out = capsys.readouterr().out
    assert out.startswith("ingested 5 documents") and "[unit03a7#3]" in out
