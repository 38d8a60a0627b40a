"""Shared synthetic corpus builders for the test suite."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from hiret.corpus import DocumentRecord, load_corpus
from hiret.formatter import (
    IdentityConverter,
    convert_document,
    count_words,
    parse_markdown,
    plan_windows,
)
from hiret.hca import augment_document
from hiret.index import InvertedLists, KeywordTable, VectorIndex

SECTION_TITLES = [
    "overview",
    "features",
    "pinout",
    "electrical ratings",
    "timing characteristics",
    "mechanical data",
    "ordering information",
    "safety notes",
    "compliance",
    "revision history",
]

SECTION_BODIES = {
    "overview": (
        "This overview introduces the device family and summarizes the main "
        "capabilities, the supported supply range, and the intended operating "
        "conditions for typical installations."
    ),
    "features": (
        "The features include low standby drain, integrated surge "
        "protection, wide temperature tolerance, and a compact dual row "
        "package suitable for dense layouts."
    ),
    "pinout": (
        "The pinout exposes sixteen pins arranged in two rows. Supply pins "
        "sit on opposite corners and the differential pair occupies the "
        "center positions for short trace routing."
    ),
    "electrical ratings": (
        "The electrical ratings list absolute maximum stress levels for "
        "supply voltage, input current, and junction temperature. Exceeding "
        "any listed stress rating may cause permanent damage."
    ),
    "timing characteristics": (
        "The timing characteristics specify propagation delay, rise time, "
        "and channel skew over the full supply and temperature range with "
        "balanced loads on every output channel."
    ),
    "mechanical data": (
        "The mechanical data gives package outline drawings with body "
        "dimensions, lead pitch, and coplanarity limits together with the "
        "recommended solder land pattern for reflow assembly."
    ),
    "ordering information": (
        "The ordering information encodes the package variant, the "
        "temperature grade, and the tape or tube shipping option. Contact "
        "distribution for reel quantities and lead times."
    ),
    "safety notes": (
        "These safety notes cover handling precautions against "
        "electrostatic discharge and creepage distances when the device "
        "bridges isolated domains in mains connected equipment."
    ),
    "compliance": (
        "The compliance summary lists the component recognition programs "
        "and the reinforced insulation requirements of the applicable "
        "equipment standards the device is certified under."
    ),
    "revision history": (
        "The revision history records earlier releases that described "
        "preliminary characterization data. This release updates the "
        "ratings tables and clarifies the ordering code suffixes."
    ),
}


def manual_doc_stem(i: int) -> str:
    return f"unit{i:02d}a7"


def manual_doc_title(i: int) -> str:
    return f"{manual_doc_stem(i)} model{i:02d}x isolated bus transceiver handbook"


def manual_markdown() -> str:
    lines = []
    for number, title in enumerate(SECTION_TITLES, start=1):
        lines.append(f"# {number} {title}")
        lines.append(SECTION_BODIES[title])
    return "\n".join(lines) + "\n"


def write_manual_corpus(root: Path, n_docs: int) -> Path:
    """Structurally identical manuals differing only in their titles."""
    root.mkdir(parents=True, exist_ok=True)
    body = manual_markdown()
    for i in range(1, n_docs + 1):
        stem = manual_doc_stem(i)
        (root / f"{stem}.md").write_text(body, encoding="utf-8")
        (root / f"{stem}.meta.json").write_text(
            json.dumps({"title": manual_doc_title(i)}), encoding="utf-8"
        )
    return root


def manual_queries(n_docs: int) -> list[dict]:
    """Two queries per document, each naming the document and one section."""
    queries = []
    for i in range(1, n_docs + 1):
        stem = manual_doc_stem(i)
        for j, section_idx in enumerate([(2 * i) % 10, (2 * i + 5) % 10]):
            number = section_idx + 1
            title = SECTION_TITLES[section_idx]
            queries.append(
                {
                    "id": f"{stem}-q{j}",
                    "query": f"{manual_doc_title(i)} {title}",
                    "relevant": [f"{stem}#{number}"],
                }
            )
    return queries


def ingest_records(records: list[DocumentRecord], window: int = 400, padding: int = 50):
    """Run the convert/parse/augment pipeline in place; returns all segments."""
    segments = []
    for doc in records:
        plan = plan_windows(count_words(doc.text), window, padding)
        markdown = convert_document(doc.text, IdentityConverter(), plan)
        doc.attach_segments(parse_markdown(markdown, doc.title))
        augment_document(doc)
        segments.extend(doc.segments)
    return segments


def load_and_ingest(corpus_dir: Path, window: int = 400, padding: int = 50):
    records = load_corpus(corpus_dir)
    segments = ingest_records(records, window=window, padding=padding)
    return records, segments


DATASHEET_TEXT = """\
The CA-IS3641 transceiver provides galvanic isolation for industrial buses.
# 1 features
Low emissions, high immunity, and wide supply range distinguish the CA-IS3641
from earlier parts.
# 1.1 isolation
Reinforced isolation up to 5 kVrms with lifetime ratings per the insulation
standard.
# 2 electrical characteristics
Table: supply characteristics
| parameter | min | max | unit |
|---|---|---|---|
| vcc supply voltage | 3.0 | 5.5 | v |
| icc quiescent current | 1.6 | 2.9 | ma |
| vih input high threshold | 2.0 | 5.5 | v |
# 3 package
![pinout diagram](pinout.png)
The figure shows the dual row package viewed from above.
"""

DATASHEET_META = {
    "title": "CA-IS3641 Datasheet",
    "images": [
        {"id": "img1", "file": "pinout.png", "description": "pinout diagram of the sixteen pin package"}
    ],
}


def write_datasheet_corpus(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    (root / "ca-is3641.md").write_text(DATASHEET_TEXT, encoding="utf-8")
    (root / "ca-is3641.meta.json").write_text(json.dumps(DATASHEET_META), encoding="utf-8")
    return root


def edit_index(index_dir: Path, regions=None, header=None) -> dict:
    """The regions of ``index_dir``'s index file: its ``lines`` (bytes), each array by name
    and its ``header`` (a dict). With an edit the file is written again: ``regions(parts)``
    may replace the lines or any array (of any type or length), which are then laid out
    as a save lays them out; then ``header(parts["header"])`` may edit the header as it is
    written, and the trailer is re-stamped with the crc32 of the new bytes, as if the index
    had been saved so. Returns the regions as written."""
    path = Path(index_dir) / "index.hiret"
    data = path.read_bytes()
    head = json.loads(data[len(data) - 20 - int.from_bytes(data[-20:-12], "little"):-20])
    parts = {"lines": data[:head["lines"]], "header": head, **{
        name: np.frombuffer(data, dtype, count, offset).copy()
        for name, (dtype, offset, count) in head["arrays"].items()}}
    if regions is None and header is None:
        return parts
    if regions is not None:
        regions(parts)
    out = bytearray(parts["lines"])
    for name in sorted(head["arrays"], key=lambda name: head["arrays"][name][1]):
        out += bytes(-len(out) % 8)
        head["arrays"][name] = [parts[name].dtype.str.replace("|", "<"), len(out),
                                len(parts[name])]
        out += parts[name].tobytes()
    head["lines"] = len(parts["lines"])
    if header is not None:
        header(head)
    encoded = (json.dumps(head, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
               + "\n").encode("utf-8")
    out += encoded + len(encoded).to_bytes(8, "little")
    path.write_bytes(out + zlib.crc32(out).to_bytes(4, "little") + data[-8:])
    return parts


# The files of a format-8 index (and of format 7), which format 9 stored under names
# holding their crc32s.
FORMAT_8_FILES = ["vector_rows.npy", "vector_offsets.npy", "vector_ordinals.npy",
                  "vector_values.npy", "postings_terms.json", "postings_offsets.npy",
                  "postings_rows.npy", "postings_tf.npy", "keywords_terms.json",
                  "keywords_offsets.npy", "keywords_rows.npy", "segment_keys.json",
                  "segments.jsonl", "segment_offsets.npy"]

# The files of a format-6 index (and of format 5), which format 7 replaces.
FORMAT_6_FILES = ["vectors.npy", "vector_rows.npy", "postings_terms.json",
                  "postings_offsets.npy", "postings_rows.npy", "postings_tf.npy",
                  "keywords_terms.json", "keywords_offsets.npy", "keywords_rows.npy",
                  "segment_keys.json", "segments.jsonl", "segment_offsets.npy"]

# The files of a format-3 index, which format 4 replaces.
FORMAT_3_FILES = ["vectors.npy", "vector_rows.npy", "bm25_lengths.npy", "postings_terms.json",
                  "postings_offsets.npy", "postings_rows.npy", "postings_tf.npy", "keywords.json",
                  "segment_keys.json", "segments.jsonl", "segment_offsets.npy"]


def dense(vectors: VectorIndex) -> np.ndarray:
    """The ``(len(rows), dim)`` float32 matrix of the vectors, read through ``entries``."""
    return np.array(list(vectors.entries.values()), dtype=np.float32).reshape(
        len(vectors.rows), vectors.dim)


def keyword_sets(table: KeywordTable) -> list[set[str]]:
    """Each row's keywords, read back from the table's keyword -> rows lists,
    which must hold ascending, distinct rows in the narrowest unsigned type that holds
    the row count (the type an index stores them in)."""
    sets: list[set[str]] = [set() for _ in table.keys]
    for word, rows in table.rows.items():
        assert rows.dtype == np.min_scalar_type(len(table.keys)), word
        assert rows.tolist() == sorted(set(rows.tolist())), word
        for row in rows.tolist():
            sets[row].add(word)
    return sets


def inverted_lists(lists: dict[str, list[int]]) -> InvertedLists:
    """The inverted lists holding ``lists`` (term -> its ascending rows),
    assembled term by term."""
    terms = sorted(lists)
    offsets = np.cumsum([0] + [len(lists[term]) for term in terms], dtype=np.int64)
    rows = np.array([row for term in terms for row in lists[term]], dtype=np.intp)
    return InvertedLists(terms, offsets, rows)


def keyword_table(keys: list[str], sets: list[set[str]]) -> KeywordTable:
    """The keyword table over ``keys`` whose rows hold ``sets``."""
    found: dict[str, list[int]] = {}
    for row, words in enumerate(sets):
        for word in words:
            found.setdefault(word, []).append(row)
    return KeywordTable(keys, inverted_lists(found))
