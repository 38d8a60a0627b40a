"""Deterministic synthetic datasheet corpus and question bank.

The same seed always yields byte-identical files. Every document is a
near-identical datasheet: ten numbered sections (the section vocabulary of
the test suite) with three numbered subsections each, so 40 segments and no
preamble. Section 4.1 is a table and section 3.2 an image; a few documents
carry no image description, so their image segment is skipped by the
vector index. Documents differ in their part number (a letters-and-digits
identifier, so a critical keyword), device type, grade and table values.

The rule-based converter joins window cores with a line break, so a heading
line cut by a core boundary loses its title or its segment. The generator
keeps every heading inside one core of the default 400-word window, which
keeps the expected segment keys present; ``Corpus.headings_shifted`` counts
the headings it moved.

Usage: ``python3 bench/corpus_gen.py --seed 1 --docs 20 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

WINDOW_WORDS = 400  # default window of `hiret ingest`

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

SUBSECTIONS = {
    "overview": ["device family", "supply range", "typical installations"],
    "features": ["standby drain", "surge protection", "package options"],
    "pinout": ["pin functions", "package diagram", "trace routing"],
    "electrical ratings": ["supply characteristics", "stress levels", "junction temperature"],
    "timing characteristics": ["propagation delay", "rise time", "channel skew"],
    "mechanical data": ["package outline", "lead pitch", "land pattern"],
    "ordering information": ["package variant", "temperature grade", "shipping option"],
    "safety notes": ["electrostatic discharge", "creepage distances", "isolated domains"],
    "compliance": ["recognition programs", "reinforced insulation", "equipment standards"],
    "revision history": ["earlier releases", "characterization data", "code suffixes"],
}

TABLE_SECTION = "4.1"  # electrical ratings > supply characteristics
IMAGE_SECTION = "3.2"  # pinout > package diagram

DEVICES = [
    "isolated bus transceiver",
    "digital isolator",
    "isolated gate driver",
    "current sense amplifier",
]
GRADES = ["industrial", "automotive", "extended"]

FILLER = [
    "Values hold over the full supply and temperature range unless noted otherwise.",
    "Typical figures are measured at room temperature with nominal supply.",
    "Refer to the application circuit for decoupling and layout guidance.",
    "Production testing guarantees the listed limits on every shipped unit.",
    "Characterization covers three wafer lots and two assembly sites.",
    "Board designers should keep the isolation barrier free of copper.",
    "The evaluation module demonstrates the recommended configuration.",
    "Contact the field applications team for design review support.",
    "Limits apply after a settling period of one millisecond at power up.",
    "Long cable runs benefit from an external common mode choke.",
    "Operation outside the recommended conditions is not implied.",
    "The reference design files include schematics and a bill of materials.",
]

TABLE_ROWS = [
    ("vcc supply voltage", 3.0, 5.5, "v"),
    ("icc quiescent current", 1.2, 2.9, "ma"),
    ("vih input high threshold", 2.0, 5.5, "v"),
    ("vil input low threshold", 0.0, 0.8, "v"),
]

SHORT_WORD = {title: title.split()[0] for title in SECTION_TITLES}

# Known filler words the generator may append to shift a heading.
SHIFT_WORDS = ["see", "also", "the", "application", "notes"]


@dataclass
class Document:
    stem: str
    part: str
    title: str
    text: str
    meta: dict


@dataclass
class Corpus:
    docs: list[Document]
    keyword_dict: list[str]
    bank: list[dict]
    headings_shifted: int = 0
    skipped_images: int = 0
    segments_per_doc: int = 40

    @property
    def segments(self) -> int:
        return self.segments_per_doc * len(self.docs)


def _part_numbers(rng: random.Random, n: int) -> list[str]:
    letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
    space = len(letters) ** 2 * 9000
    return [
        f"{letters[(i // 9000) // len(letters)]}{letters[(i // 9000) % len(letters)]}{1000 + i % 9000}"
        for i in rng.sample(range(space), n)
    ]


class _Writer:
    """Accumulates lines and keeps headings inside one window core."""

    def __init__(self):
        self.lines: list[str] = []
        self.words = 0
        self.shifted = 0

    def body(self, line: str) -> None:
        self.lines.append(line)
        self.words += len(line.split())

    def heading(self, line: str) -> None:
        k = len(line.split())
        boundary = (self.words // WINDOW_WORDS + 1) * WINDOW_WORDS
        if self.words < boundary < self.words + k:
            pad = boundary - self.words
            self.lines[-1] += " " + " ".join(SHIFT_WORDS[i % len(SHIFT_WORDS)] for i in range(pad))
            self.words += pad
            self.shifted += 1
        self.body(line)


def _document(rng: random.Random, part: str, describe_image: bool) -> tuple[Document, int]:
    """One datasheet and the number of headings moved to a window boundary."""
    writer = _Writer()
    device = rng.choice(DEVICES)
    grade = rng.choice(GRADES)
    title = f"{part} {grade} {device} datasheet"
    image_file = f"{part.lower()}-pinout.png"
    for number, section in enumerate(SECTION_TITLES, start=1):
        writer.heading(f"# {number} {section}")
        writer.body(f"{SECTION_BODIES[section]} This section applies to the {part} {device}.")
        writer.body(rng.choice(FILLER))
        for sub_number, sub in enumerate(SUBSECTIONS[section], start=1):
            chapter = f"{number}.{sub_number}"
            writer.heading(f"# {chapter} {sub}")
            if chapter == TABLE_SECTION:
                writer.body(f"Table: {sub} of the {part}")
                writer.body("| parameter | min | max | unit |")
                writer.body("|---|---|---|---|")
                for label, lo, hi, unit in TABLE_ROWS:
                    lo_v = round(lo + rng.uniform(-0.2, 0.2), 2) if lo else lo
                    hi_v = round(hi + rng.uniform(-0.3, 0.3), 2)
                    writer.body(f"| {label} | {lo_v} | {hi_v} | {unit} |")
            elif chapter == IMAGE_SECTION:
                writer.body(f"![{sub}]({image_file})")
                writer.body(f"The figure shows the {part} package viewed from above.")
            else:
                value = rng.randint(2, 95)
                writer.body(
                    f"The {sub} of the {part} is specified at {value} units under "
                    f"the {grade} grade conditions described in {section}."
                )
                writer.body(" ".join(rng.sample(FILLER, 2)))
    image = {"id": "img1", "file": image_file}
    if describe_image:
        image["description"] = f"{part} pinout diagram of the sixteen pin package"
    meta = {"title": title, "images": [image]}
    text = "\n".join(writer.lines) + "\n"
    return Document(stem=part.lower(), part=part, title=title, text=text, meta=meta), writer.shifted


def generate(seed: int, n_docs: int, bank_size: int = 64) -> Corpus:
    """Build the corpus, keyword dictionary and question bank for ``seed``."""
    rng = random.Random(seed)
    parts = _part_numbers(rng, n_docs)
    # About one document in fifty has an image without a description.
    undescribed = set(rng.sample(range(n_docs), max(1, n_docs // 50)))
    docs = []
    shifted = 0
    for i, part in enumerate(parts):
        doc, moved = _document(rng, part, i not in undescribed)
        shifted += moved
        docs.append(doc)
    docs.sort(key=lambda d: d.stem)  # corpus order is file-path order

    keyword_dict = ["surge protection", "differential pair", "reflow assembly",
                    "common mode choke", "creepage distances", "junction temperature"]

    bank = []
    for j in range(bank_size):
        doc = docs[rng.randrange(len(docs))]
        number = rng.randrange(len(SECTION_TITLES)) + 1
        section = SECTION_TITLES[number - 1]
        if j % 2 == 0:
            query = f"{doc.title} {section}"
            cls = "long"
        else:
            query = f"{doc.part} {SHORT_WORD[section]}"
            cls = "short"
        relevant = [f"{doc.stem}#{number}"] + [
            f"{doc.stem}#{number}.{s}" for s in range(1, len(SUBSECTIONS[section]) + 1)
        ]
        bank.append({"id": f"q{j:03d}-{cls}", "class": cls, "query": query,
                     "relevant": relevant, "keywords": []})
    return Corpus(docs=docs, keyword_dict=keyword_dict, bank=bank,
                  headings_shifted=shifted, skipped_images=len(undescribed))


def write(corpus: Corpus, out: Path) -> None:
    """Write ``<stem>.md`` plus ``<stem>.meta.json`` per document."""
    out.mkdir(parents=True, exist_ok=True)
    for doc in corpus.docs:
        (out / f"{doc.stem}.md").write_text(doc.text, encoding="utf-8")
        (out / f"{doc.stem}.meta.json").write_text(
            json.dumps(doc.meta, sort_keys=True), encoding="utf-8"
        )


def write_bank(bank: list[dict], path: Path) -> None:
    """JSONL question bank in the format `hiret eval` reads."""
    path.write_text(
        "".join(json.dumps(q, sort_keys=True) + "\n" for q in bank), encoding="utf-8"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, default=500)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    corpus = generate(args.seed, args.docs)
    write(corpus, args.out / "corpus")
    write_bank(corpus.bank, args.out / "bank.jsonl")
    (args.out / "keywords.txt").write_text("\n".join(corpus.keyword_dict) + "\n", encoding="utf-8")
    print(f"{len(corpus.docs)} documents, {corpus.segments} segments, "
          f"{len(corpus.bank)} queries -> {args.out}")


if __name__ == "__main__":
    main()
