"""Cascading metadata augmentation over a per-document path table.

Every segment's embedding text starts with its root-to-chapter title path,
so that structurally identical chapters in different documents embed
differently. One walk over a document's segments keeps each chapter
number's path: the document title is the root, and a chapter's path is the
path of its deepest dotted-number prefix seen so far plus its own label.
Tables and images get kind-specific treatment before embedding: table data
cells are dropped (labels kept), images are represented by their
descriptions plus surrounding text.
"""

from __future__ import annotations

import logging
import re
from dataclasses import replace
from typing import Protocol

from .corpus import IMAGE_LINE_RE, DocumentRecord, ImageAsset, Segment, path_text

log = logging.getLogger(__name__)

_TABLE_SEPARATOR_RE = re.compile(r"^:?-{2,}:?$|^-+$")


class Captioner(Protocol):
    """Produces a textual description for an image from its file reference."""

    def describe(self, file_ref: str, context: str) -> str: ...


def _split_cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _is_separator_row(cells: list[str]) -> bool:
    return all(_TABLE_SEPARATOR_RE.match(cell) for cell in cells if cell) and any(cells)


def augment_table(seg: Segment) -> str:
    """Project a table segment down to its semantic labels.

    Keeps caption/description lines, the header row, and the first column's
    row labels; the data cells are dropped from the embedding text. The
    segment's content keeps the full table for answer-time context. Tables
    without a header row fall back to caption plus first column.
    """
    captions: list[str] = []
    rows: list[list[str]] = []
    has_separator = False
    for line in seg.content.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("|"):
            cells = _split_cells(stripped)
            if _is_separator_row(cells):
                has_separator = True
            else:
                rows.append(cells)
        else:
            captions.append(stripped)

    pieces = list(captions)
    if rows and has_separator:
        pieces.append(" ".join(cell for cell in rows[0] if cell))
        body = rows[1:]
    else:
        body = rows
    for row in body:
        if row and row[0]:
            pieces.append(row[0])
    return "\n".join(pieces)


def augment_image(
    asset: ImageAsset,
    surrounding_text: str,
    captioner: Captioner | None = None,
) -> str:
    """Embedding text for an image: description, caption, then context.

    Returns "" when neither a description nor a captioner can supply image
    semantics; callers exclude such segments from the vector index.
    """
    description = asset.description.strip()
    caption = ""
    if captioner is not None:
        caption = captioner.describe(asset.file_ref, surrounding_text).strip()
    if not description and not caption:
        return ""
    pieces = [p for p in (description, caption, surrounding_text.strip()) if p]
    return "\n".join(pieces)


def _resolve_image(seg: Segment, doc: DocumentRecord) -> tuple[ImageAsset, str]:
    """Find the referenced asset and collect the segment's surrounding text."""
    ref = ""
    alt = ""
    rest: list[str] = []
    for line in seg.content.splitlines():
        match = IMAGE_LINE_RE.match(line.strip())
        if match and not ref:
            ref = match.group("ref")
            alt = match.group("alt")
        elif line.strip():
            rest.append(line.strip())
    surrounding = " ".join(filter(None, [alt, *rest]))
    for asset in doc.images:
        if asset.file_ref == ref or asset.image_id == ref:
            return asset, surrounding
    return ImageAsset(image_id=ref, file_ref=ref, description=""), surrounding


def augment_document(doc: DocumentRecord, captioner: Captioner | None = None) -> list[Segment]:
    """Set each segment's ``metadata_path`` and prepend it to its embedding text.

    "1.2.1" with no "1.2" yet hangs under "1"; a repeated number takes over
    for the chapters after it; preambles get the title alone; empty titles
    and labels add no entry. The path is joined with `` > `` on the first
    line, followed by the kind-specific body (plain content, the table
    projection, or the image description bundle). Image segments with no
    obtainable description get an empty embedding_text and are later
    skipped by the vector index. Augmenting twice gives identical results.
    """
    root = [doc.title] if doc.title else []
    latest: dict[str, list[str]] = {}  # chapter number -> its path
    for seg in doc.segments:
        if seg.level == 0:
            path = list(root)
        else:
            parent = root
            parts = seg.chapter_number.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in latest:
                    parent = latest[prefix]
                    break
            label = f"{seg.chapter_number} {seg.title}".strip()
            path = parent + [label] if label else list(parent)
            latest[seg.chapter_number] = path
        seg.metadata_path = path
        if seg.kind == "table":
            body = augment_table(seg)
        elif seg.kind == "image":
            asset, surrounding = _resolve_image(seg, doc)
            body = augment_image(asset, surrounding, captioner)
            if not body:
                name = seg.key if seg.doc_id else seg.segment_id
                log.warning("segment %s: image has no description and no captioner; "
                            "excluded from the vector index", name)
                seg.embedding_text = ""
                continue
        else:
            body = seg.content
        seg.embedding_text = path_text(path, body)
    return list(doc.segments)


def without_augmentation(segments: list[Segment]) -> list[Segment]:
    """Copies whose embedding text is the raw content (baseline pipeline)."""
    return [replace(seg, embedding_text=seg.content, metadata_path=[]) for seg in segments]
