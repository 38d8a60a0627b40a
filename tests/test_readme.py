"""The README's examples run as they are written."""

import re
from pathlib import Path

from conftest import write_manual_corpus

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
