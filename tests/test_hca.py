import random
from dataclasses import fields

import pytest

from hiret.corpus import DocumentRecord, ImageAsset, Segment
from hiret.hca import (
    PATH_SEPARATOR,
    augment_document,
    augment_image,
    augment_table,
    build_tree,
    cascade_metadata,
    without_augmentation,
)


def make_segment(number, title, content="body", kind="text"):
    level = 0 if number == "" else number.count(".") + 1
    return Segment(
        segment_id=number or "preamble",
        chapter_number=number,
        level=level,
        title=title,
        kind=kind,
        content=content,
    )


def make_doc(title, chapters, doc_id="doc"):
    doc = DocumentRecord(doc_id=doc_id, title=title, source_path=f"{doc_id}.md")
    doc.attach_segments([make_segment(num, t) for num, t in chapters])
    return doc


class StubCaptioner:
    def __init__(self, caption):
        self.caption = caption
        self.calls = []

    def describe(self, file_ref, context):
        self.calls.append((file_ref, context))
        return self.caption


class TestBuildTree:
    def test_children_follow_dotted_prefixes(self):
        doc = make_doc("D", [("1", "A"), ("1.1", "B"), ("2", "C")])
        tree = build_tree(doc)
        assert [n.label for n in tree.root.children] == ["1 A", "2 C"]
        node_one = tree.root.children[0]
        assert [n.label for n in node_one.children] == ["1.1 B"]

    def test_missing_intermediate_bridges_to_deepest_prefix(self):
        doc = make_doc("D", [("1", "A"), ("1.2.1", "Deep")])
        tree = build_tree(doc)
        node_one = tree.root.children[0]
        assert [n.label for n in node_one.children] == ["1.2.1 Deep"]

    def test_preamble_only_document(self):
        doc = make_doc("D", [("", "D")])
        tree = build_tree(doc)
        assert len(tree.root.children) == 1
        assert tree.nodes[0].segment.level == 0

    def test_orphan_attaches_to_root(self):
        doc = make_doc("D", [("3.4", "Lost")])
        tree = build_tree(doc)
        assert tree.root.children[0].label == "3.4 Lost"

    def test_traversal_reproduces_document_order(self):
        doc = make_doc(
            "D",
            [("", "D"), ("1", "A"), ("1.1", "B"), ("1.2", "C"), ("2", "E"), ("2.1", "F")],
        )
        tree = build_tree(doc)

        def dfs(node):
            out = []
            for child in node.children:
                out.append(child.segment.segment_id)
                out.extend(dfs(child))
            return out

        assert dfs(tree.root) == [s.segment_id for s in doc.segments]


class TestCascadeMetadata:
    def test_two_hop_path(self):
        doc = make_doc("CA-IS3641 Datasheet", [("1", "Features"), ("1.1", "Isolation")])
        segments = cascade_metadata(build_tree(doc))
        assert segments[1].metadata_path == [
            "CA-IS3641 Datasheet",
            "1 Features",
            "1.1 Isolation",
        ]

    def test_one_hop_path(self):
        doc = make_doc("CA-IS3641 Datasheet", [("2", "Pinout")])
        (seg,) = cascade_metadata(build_tree(doc))
        assert seg.metadata_path == ["CA-IS3641 Datasheet", "2 Pinout"]
        assert seg.embedding_text.startswith("CA-IS3641 Datasheet > 2 Pinout\n")

    def test_preamble_path_is_title_only(self):
        doc = make_doc("Doc Title", [("", "Doc Title")])
        (seg,) = cascade_metadata(build_tree(doc))
        assert seg.metadata_path == ["Doc Title"]

    def test_identical_chapters_differ_by_document_root(self):
        doc_a = make_doc("Alpha Manual", [("3", "Application")], doc_id="a")
        doc_b = make_doc("Beta Manual", [("3", "Application")], doc_id="b")
        (seg_a,) = cascade_metadata(build_tree(doc_a))
        (seg_b,) = cascade_metadata(build_tree(doc_b))
        assert seg_a.metadata_path[0] != seg_b.metadata_path[0]
        assert seg_a.embedding_text != seg_b.embedding_text

    def test_embedding_text_joins_path_and_content(self):
        doc = make_doc("T", [("1", "A")])
        (seg,) = cascade_metadata(build_tree(doc))
        assert seg.embedding_text == "T > 1 A\nbody"
        assert PATH_SEPARATOR in seg.embedding_text

    def test_cascade_is_idempotent(self):
        doc = make_doc("T", [("1", "A"), ("1.1", "B"), ("2", "C")])
        first = [s.embedding_text for s in cascade_metadata(build_tree(doc))]
        second = [s.embedding_text for s in cascade_metadata(build_tree(doc))]
        assert first == second

    def test_path_length_is_level_plus_one_on_gapless_trees(self):
        rng = random.Random(4242)
        for _ in range(30):
            chapters = []
            counters = []
            for _ in range(rng.randrange(1, 40)):
                depth = rng.randrange(1, 5)
                if depth > len(counters) + 1:
                    depth = len(counters) + 1
                counters = counters[: depth - 1] + [
                    (counters[depth - 1] + 1) if len(counters) >= depth else 1
                ]
                chapters.append((".".join(map(str, counters)), f"S{len(chapters)}"))
            doc = make_doc("Root", chapters)
            for seg in cascade_metadata(build_tree(doc)):
                assert len(seg.metadata_path) == seg.level + 1

    def test_child_path_extends_parent_path(self):
        doc = make_doc(
            "Root",
            [("1", "A"), ("1.1", "B"), ("1.1.1", "C"), ("1.2", "D"), ("2", "E")],
        )
        segments = cascade_metadata(build_tree(doc))
        by_number = {s.chapter_number: s for s in segments}
        parent_of = {"1.1": "1", "1.1.1": "1.1", "1.2": "1", "1": None, "2": None}
        for number, parent in parent_of.items():
            child_path = by_number[number].metadata_path
            if parent is None:
                assert child_path[:-1] == ["Root"]
            else:
                assert child_path[:-1] == by_number[parent].metadata_path


class TestAugmentTable:
    TABLE = "\n".join(
        [
            "Table: absolute ratings",
            "| Param | Min | Max |",
            "|---|---|---|",
            "| Vcc | 3 | 5.5 |",
            "| Icc | 1 | 2 |",
        ]
    )

    def test_header_and_labels_kept_data_dropped(self):
        seg = make_segment("4", "Specs", content=self.TABLE, kind="table")
        text = augment_table(seg)
        assert "Param Min Max" in text
        assert "Vcc" in text and "Icc" in text
        assert "3" not in text and "5.5" not in text
        assert "Table: absolute ratings" in text

    def test_content_retains_data_fields(self):
        seg = make_segment("4", "Specs", content=self.TABLE, kind="table")
        augment_table(seg)
        assert "| Vcc | 3 | 5.5 |" in seg.content

    def test_caption_only_block(self):
        seg = make_segment("4", "Specs", content="Table: thermal limits", kind="table")
        assert augment_table(seg) == "Table: thermal limits"

    def test_headerless_table_falls_back_to_first_column(self):
        content = "| Vcc | 3 | 5.5 |\n| Icc | 1 | 2 |"
        seg = make_segment("4", "Specs", content=content, kind="table")
        text = augment_table(seg)
        assert "Vcc" in text and "Icc" in text
        assert "5.5" not in text

    def test_projection_never_longer_than_content(self):
        rng = random.Random(99)
        for _ in range(20):
            rows = [f"| r{i} | {rng.randrange(100)} | {rng.randrange(100)} |" for i in range(5)]
            content = "caption line\n| a | b | c |\n|---|---|---|\n" + "\n".join(rows)
            seg = make_segment("1", "T", content=content, kind="table")
            assert len(augment_table(seg)) <= len(seg.content)


class TestAugmentImage:
    def test_description_passthrough(self):
        asset = ImageAsset("img1", "p3.png", "pinout diagram")
        text = augment_image(asset, "surrounding words")
        assert text.startswith("pinout diagram")
        assert "surrounding words" in text

    def test_captioner_fills_empty_description(self):
        asset = ImageAsset("img1", "p3.png", "")
        captioner = StubCaptioner("block diagram")
        text = augment_image(asset, "context", captioner)
        assert text.startswith("block diagram")
        assert "context" in text
        assert captioner.calls == [("p3.png", "context")]

    def test_no_description_and_no_captioner_yields_empty(self):
        asset = ImageAsset("img1", "p3.png", "")
        assert augment_image(asset, "context") == ""

    def test_cascade_excludes_undescribed_image_with_warning(self):
        doc = DocumentRecord(doc_id="d", title="T", source_path="d.md")
        doc.attach_segments(
            [make_segment("1", "Fig", content="![alt text](missing.png)", kind="image")]
        )
        warnings = []
        (seg,) = cascade_metadata(build_tree(doc), warnings=warnings)
        assert seg.embedding_text == ""
        assert len(warnings) == 1

    def test_cascade_resolves_asset_by_file_ref(self):
        doc = DocumentRecord(
            doc_id="d",
            title="T",
            source_path="d.md",
            images=[ImageAsset("img1", "p3.png", "pinout diagram")],
        )
        doc.attach_segments(
            [make_segment("2", "Package", content="![pins](p3.png)\nseen from above", kind="image")]
        )
        (seg,) = cascade_metadata(build_tree(doc))
        assert seg.embedding_text.startswith("T > 2 Package\npinout diagram")
        assert "seen from above" in seg.embedding_text


def test_without_augmentation_uses_raw_content():
    doc = make_doc("T", [("1", "A"), ("2", "B")])
    augmented = augment_document(doc)
    plain = without_augmentation(augmented)
    assert [s.embedding_text for s in plain] == [s.content for s in augmented]
    assert [s.key for s in plain] == [s.key for s in augmented]
    copied = [f.name for f in fields(Segment) if f.name not in ("embedding_text", "metadata_path")]
    for copy, original in zip(plain, augmented):
        assert [getattr(copy, name) for name in copied] == [getattr(original, name) for name in copied]
        assert copy.metadata_path == []
    # each copy owns its list, shared with no other copy and no original
    path_lists = [s.metadata_path for s in plain + augmented]
    assert len({id(path) for path in path_lists}) == len(path_lists)
    # originals untouched
    assert all(s.embedding_text.startswith("T") for s in augmented)
    assert all(s.metadata_path for s in augmented)
