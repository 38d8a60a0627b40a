"""Document and segment data model plus corpus loading.

A corpus is a directory of .md/.txt files, one document each. An optional
``<name>.meta.json`` sidecar per document supplies the title and image
descriptions; without a sidecar the title defaults to the filename stem.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)

DOCUMENT_SUFFIXES = (".md", ".txt")


class CorpusError(Exception):
    """A corpus directory or one of its files cannot be loaded."""


def segment_key(doc_id: str, segment_id: str) -> str:
    """Globally unique key for a segment, used by all indices."""
    return f"{doc_id}#{segment_id}"


@dataclass
class ImageAsset:
    """An image belonging to a document, identified by file reference."""

    image_id: str
    file_ref: str
    description: str = ""


@dataclass
class Segment:
    """One chapter-level knowledge unit of a document.

    ``embedding_text`` and ``metadata_path`` stay empty until the hierarchy
    augmentation pass fills them; ``content`` always keeps the full original
    section body.
    """

    segment_id: str
    chapter_number: str  # dotted numeric string; "" for the preamble
    level: int  # number of dotted components; 0 for the preamble
    title: str
    kind: str  # "text", "table" or "image"
    content: str
    doc_id: str = ""  # stamped when attached to a DocumentRecord
    embedding_text: str = ""
    metadata_path: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return segment_key(self.doc_id, self.segment_id)


@dataclass
class DocumentRecord:
    """A single source document with its parsed segments and images."""

    doc_id: str
    title: str
    source_path: str
    text: str = ""
    segments: list[Segment] = field(default_factory=list)
    images: list[ImageAsset] = field(default_factory=list)

    def attach_segments(self, segments: list[Segment]) -> None:
        """Adopt parsed segments, stamping each with this document's id."""
        for seg in segments:
            seg.doc_id = self.doc_id
        self.segments = list(segments)


def _string(entry: dict, name: str, default: str, where: str) -> str:
    """``entry[name]`` (``default`` when absent), which must be a string."""
    value = entry.get(name, default)
    if not isinstance(value, str):
        raise CorpusError(f"{where}: {name!r} must be a string, got {value!r}")
    return value


def _read_sidecar(path: Path) -> tuple[str, list[ImageAsset]]:
    """The title (the filename stem unless the sidecar gives one) and images of ``path``."""
    sidecar = path.with_name(path.stem + ".meta.json")
    if not sidecar.exists():
        return path.stem, []
    try:
        data = json.loads(sidecar.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CorpusError(f"unreadable sidecar {sidecar}: {exc}") from exc
    if not isinstance(data, dict):
        raise CorpusError(f"sidecar {sidecar} must hold a JSON object")
    entries = data.get("images", [])
    if not isinstance(entries, list):
        raise CorpusError(f"sidecar {sidecar}: 'images' must be a list")
    images = []
    for i, entry in enumerate(entries):
        where = f"sidecar {sidecar}: images[{i}]"
        if not isinstance(entry, dict):
            raise CorpusError(f"{where} must be an object")
        images.append(ImageAsset(image_id=_string(entry, "id", f"img{i}", where),
                                 file_ref=_string(entry, "file", "", where),
                                 description=_string(entry, "description", "", where)))
    return _string(data, "title", "", f"sidecar {sidecar}") or path.stem, images


def load_corpus(root_dir: str | Path) -> list[DocumentRecord]:
    """Load every document file under ``root_dir``, ordered by path.

    One record per file; doc_id is the filename stem and must be unique
    across the corpus.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise CorpusError(f"corpus directory not found: {root}")

    paths = sorted(
        (p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in DOCUMENT_SUFFIXES),
        key=lambda p: p.relative_to(root).as_posix(),
    )

    records: list[DocumentRecord] = []
    seen_ids: dict[str, Path] = {}
    for path in paths:
        doc_id = path.stem
        if doc_id in seen_ids:
            raise CorpusError(
                f"duplicate doc_id {doc_id!r}: {seen_ids[doc_id]} and {path}"
            )
        seen_ids[doc_id] = path
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"unreadable document {path}: {exc}") from exc
        title, images = _read_sidecar(path)
        records.append(
            DocumentRecord(doc_id=doc_id, title=title, source_path=str(path), text=text,
                           images=images)
        )
    return records
