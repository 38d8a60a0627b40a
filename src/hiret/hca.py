"""Chapter-tree construction and cascading metadata augmentation.

Every document forms a tree: the document title is the root and each
numbered chapter is a node, parented by its deepest existing dotted-number
prefix. Walking the tree top-down prepends the root-to-node title path to
every segment's embedding text, so that structurally identical chapters in
different documents embed differently. Tables and images get kind-specific
treatment before embedding: table data cells are dropped (labels kept),
images are represented by their descriptions plus surrounding text.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from typing import Protocol

from .corpus import DocumentRecord, ImageAsset, Segment

log = logging.getLogger(__name__)

PATH_SEPARATOR = " > "

_IMAGE_REF_RE = re.compile(r"^!\[(?P<alt>[^\]]*)\]\((?P<ref>[^)]*)\)\s*$")
_TABLE_SEPARATOR_RE = re.compile(r"^:?-{2,}:?$|^-+$")


class Captioner(Protocol):
    """Produces a textual description for an image from its file reference."""

    def describe(self, file_ref: str, context: str) -> str: ...


@dataclass
class TreeNode:
    segment: Segment | None  # None at the root
    label: str  # path entry; "" contributes nothing (root uses doc title)
    parent: "TreeNode | None" = None
    children: list["TreeNode"] = field(default_factory=list)


@dataclass
class SegmentTree:
    """Chapter tree of one document; ``nodes`` keeps original segment order."""

    doc: DocumentRecord
    root: TreeNode
    nodes: list[TreeNode]


def build_tree(doc: DocumentRecord) -> SegmentTree:
    """Attach every segment under its deepest existing chapter prefix.

    Missing intermediate levels are bridged: "1.2.1" with no "1.2" seen yet
    attaches under "1". Level-0 preamble segments hang off the root and
    contribute no path entry of their own.
    """
    root = TreeNode(segment=None, label=doc.title)
    nodes: list[TreeNode] = []
    latest: dict[str, TreeNode] = {}

    for seg in doc.segments:
        if seg.level == 0:
            node = TreeNode(segment=seg, label="", parent=root)
        else:
            parent = root
            parts = seg.chapter_number.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in latest:
                    parent = latest[prefix]
                    break
            label = f"{seg.chapter_number} {seg.title}".strip()
            node = TreeNode(segment=seg, label=label, parent=parent)
            latest[seg.chapter_number] = node
        node.parent.children.append(node)
        nodes.append(node)
    return SegmentTree(doc=doc, root=root, nodes=nodes)


def node_path(node: TreeNode) -> list[str]:
    """Labels on the root-to-node chain, skipping empty entries."""
    labels: list[str] = []
    cursor: TreeNode | None = node
    while cursor is not None:
        if cursor.label:
            labels.append(cursor.label)
        cursor = cursor.parent
    labels.reverse()
    return labels


def serialize_path(path: list[str]) -> str:
    return PATH_SEPARATOR.join(path)


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
        match = _IMAGE_REF_RE.match(line.strip())
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


def cascade_metadata(
    tree: SegmentTree,
    captioner: Captioner | None = None,
    warnings: list[str] | None = None,
) -> list[Segment]:
    """Prepend each segment's root-to-node title path to its embedding text.

    The path is serialized with `` > `` on the first line, followed by the
    kind-specific body (plain content, the table projection, or the image
    description bundle). Image segments with no obtainable description get
    an empty embedding_text and are later skipped by the vector index.
    Running the cascade twice produces identical results.
    """
    augmented: list[Segment] = []
    for node in tree.nodes:
        seg = node.segment
        assert seg is not None
        path = node_path(node)
        seg.metadata_path = path
        prefix = serialize_path(path)
        if seg.kind == "table":
            body = augment_table(seg)
        elif seg.kind == "image":
            asset, surrounding = _resolve_image(seg, tree.doc)
            body = augment_image(asset, surrounding, captioner)
            if not body:
                name = seg.key if seg.doc_id else seg.segment_id
                message = (
                    f"segment {name}: image has no description "
                    "and no captioner; excluded from the vector index"
                )
                log.warning(message)
                if warnings is not None:
                    warnings.append(message)
                seg.embedding_text = ""
                augmented.append(seg)
                continue
        else:
            body = seg.content
        seg.embedding_text = f"{prefix}\n{body}" if body else prefix
        augmented.append(seg)
    return augmented


def augment_document(
    doc: DocumentRecord,
    captioner: Captioner | None = None,
    warnings: list[str] | None = None,
) -> list[Segment]:
    """Build the chapter tree and cascade metadata in one step."""
    return cascade_metadata(build_tree(doc), captioner=captioner, warnings=warnings)


def without_augmentation(segments: list[Segment]) -> list[Segment]:
    """Copies whose embedding text is the raw content (baseline pipeline)."""
    return [replace(seg, embedding_text=seg.content, metadata_path=[]) for seg in segments]
