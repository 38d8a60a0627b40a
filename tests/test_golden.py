"""The golden ranking: ingesting the committed fixture reproduces every index
file byte for byte (each named by its logical name, as ``INDEX_FILES`` lists
it), every bank query's full ranking bit for bit and its log-rank score to the
last digit of its ``repr``.

A change that moves a ranking on purpose regenerates ``tests/data/golden.json``
with ``PYTHONPATH=src python tests/make_golden.py`` and says why.
"""

import json

import numpy as np

from make_golden import DATA_DIR, GOLDEN_FILE, golden_record


def test_ingest_and_rankings_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    got = golden_record(DATA_DIR, tmp_path / "index")
    differ = [f"file {name}" for name in golden["files"]
              if got["files"].get(name) != golden["files"][name]]
    differ += [f"query {qid} {part}" for qid, digests in golden["queries"].items()
               for part in digests if got["queries"].get(qid, {}).get(part) != digests[part]]
    assert sorted(got["files"]) == sorted(golden["files"])
    assert sorted(got["queries"]) == sorted(golden["queries"])
    assert not differ, (f"differs from {GOLDEN_FILE.name} (made with numpy {golden['numpy']}, "
                        f"running numpy {np.__version__}): {differ}")
