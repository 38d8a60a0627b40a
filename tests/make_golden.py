"""Write the golden-ranking fixture and the golden file ``test_golden.py`` checks.

The fixture under ``tests/data/`` is 20 near-identical datasheets (a table,
an image and part numbers each), a keyword dictionary and a question bank.
``golden.json`` records what ingesting it gives: the sha256 of each region of
the index file (its segment ``lines``, each array by name and the ``header``)
and, per bank query, digests of the full ranking in rank order (its keys,
the float64 bytes of ``fused`` and the bytes of ``hits``) and the ``repr`` of
its log-rank score, which reads every relevant key's rank through ``rank_of``.
The query digests name segments by key, not by row, so they hold across any
change of the index's row order. Regenerate both with

    PYTHONPATH=src python tests/make_golden.py

and say in CHANGES.md why the rankings changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import edit_index
from hiret.cli import AppConfig, run_ingest
from hiret.evalkit import evaluate_query, load_question_bank
from hiret.index import INDEX_FILE, load_index
from hiret.retriever import RetrievalConfig, retrieve

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_FILE = DATA_DIR / "golden.json"
N_DOCS = 20
FAMILIES = ["isolated bus transceiver", "isolated can transceiver", "digital isolator"]


def part_number(i: int) -> str:
    return f"HX-{3600 + 10 * (i % 7)}{'ABC'[i % 3]}{i:02d}"


def datasheet(i: int) -> tuple[str, dict]:
    """Document ``i``'s markdown and sidecar. Documents of one family share
    every section body but the ordering table's part numbers, so many
    segments tie on every route."""
    part, family = part_number(i), FAMILIES[i % 3]
    vcc_max = "5.5" if i % 2 else "3.6"
    text = f"""\
The {part} {family} provides galvanic isolation for industrial networks.
# 1 overview
The {family} crosses an isolation barrier rated for reinforced insulation.
Low emissions and high immunity suit long cable runs in noisy plants.
# 1.1 isolation
Reinforced isolation up to 5 kVrms with lifetime ratings per the insulation
standard.
# 2 electrical characteristics
Table: supply characteristics
| parameter | min | max | unit |
|---|---|---|---|
| vcc supply voltage | 2.5 | {vcc_max} | v |
| icc quiescent current | 1.6 | 2.9 | ma |
| vih input high threshold | 2.0 | 5.5 | v |
# 2.1 switching characteristics
Propagation delay and channel skew are specified over temperature.
# 3 package
![pinout diagram](pinout{i % 4}.png)
The figure shows the dual row package viewed from above.
# 4 ordering information
Order {part}R for tape and reel or {part}T for tubes.
"""
    # Every fourth sidecar lacks the image description: that image segment
    # has no embeddable text and no vector.
    images = [] if i % 4 == 3 else [
        {"id": "img1", "file": f"pinout{i % 4}.png",
         "description": "pinout diagram of the sixteen pin package"}]
    return text, {"title": f"{part} {family} datasheet", "images": images}


def bank() -> list[dict]:
    """A long and a short query per datasheet; some carry keywords."""
    queries = []
    for i in range(N_DOCS):
        part, family = part_number(i), FAMILIES[i % 3]
        doc = f"ds{i:02d}"
        queries.append({"id": f"{doc}-long", "query": f"{part} {family} datasheet isolation",
                        "relevant": [f"{doc}#1.1"]})
        short = {"id": f"{doc}-short", "query": f"{part}R ordering",
                 "relevant": [f"{doc}#4"]}
        if i % 5 == 0:
            short["keywords"] = [f"{part}T".lower()]
        queries.append(short)
    return queries


def write_fixture(root: Path = DATA_DIR) -> None:
    corpus = root / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for i in range(N_DOCS):
        text, meta = datasheet(i)
        (corpus / f"ds{i:02d}.md").write_text(text, encoding="utf-8")
        (corpus / f"ds{i:02d}.meta.json").write_text(json.dumps(meta, indent=1) + "\n",
                                                     encoding="utf-8")
    (root / "keywords.txt").write_text("kvrms\npinout\n", encoding="utf-8")
    (root / "bank.jsonl").write_text("".join(json.dumps(q) + "\n" for q in bank()),
                                     encoding="utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_record(root: Path, index_dir: Path) -> dict:
    """Ingest the fixture at ``root`` into ``index_dir``, load it back and
    digest the index file's regions and every bank query's full ranking."""
    run_ingest(AppConfig(corpus_dir=str(root / "corpus"), index_dir=str(index_dir),
                         keyword_dict=str(root / "keywords.txt")))
    bundle = load_index(index_dir)
    cfg = RetrievalConfig()
    queries = {}
    for eq in load_question_bank(root / "bank.jsonl"):
        ranking = retrieve(eq.query, bundle, cfg, user_keywords=eq.user_keywords).ranking
        order = ranking.order
        queries[eq.query_id] = {
            "order": _sha256("\n".join(ranking.keys[row] for row in order).encode("utf-8")),
            "fused": _sha256(ranking.fused[order].astype("<f8").tobytes()),
            "hits": _sha256(ranking.hits[order].astype("<i8").tobytes()),
            "logrank": repr(evaluate_query(ranking, eq, 1.0)),
        }
    parts, data = edit_index(index_dir), (index_dir / INDEX_FILE).read_bytes()
    files = {name: _sha256(parts[name].tobytes()) for name in parts["header"]["arrays"]}
    files["lines"] = _sha256(parts["lines"])
    files["header"] = _sha256(data[len(data) - 20 - int.from_bytes(data[-20:-12], "little"):-20])
    return {"numpy": np.__version__, "files": files, "queries": queries}


def main() -> int:
    write_fixture()
    with tempfile.TemporaryDirectory() as tmp:
        record = golden_record(DATA_DIR, Path(tmp) / "index")
    GOLDEN_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}: {len(record['files'])} files, "
          f"{len(record['queries'])} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
