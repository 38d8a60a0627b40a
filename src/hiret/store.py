"""The on-disk format of an index: one checked file per index directory.

An index persists to a directory as one file, :data:`INDEX_FILE` (format 11): the
per-segment JSON lines from offset 0, each array of :data:`_ARRAYS` at a multiple of 8
bytes, a compact JSON header, its length and a trailer of the crc32 of every byte before
it and a magic (each fact once, rows in key order, row arrays in their narrowest unsigned
type, HCA's heading tree as parent rows, no segment field the decoder derives, vectors by
column, non-zero components only). Postings and keywords are :class:`InvertedLists` over
the arrays as stored. Saving is atomic, durable and deterministic: the file is written to
a temporary, fsynced and renamed into place, which commits it, and re-saving an unchanged
index reproduces every byte. A save refuses a directory holding anything else, an older
index included. Loading maps the file once, checks its crc32 dropping the pages it reads,
views each array in that map as stored and decodes a segment when read.
"""

from __future__ import annotations

import errno
import json
import logging
import mmap
import os
import zlib
from collections.abc import Sequence
from itertools import repeat, takewhile
from pathlib import Path

import numpy as np

from .corpus import Segment, path_text
from .index import (DEFAULT_DIM, _UNSIGNED, Bm25Index, IndexBundle, IndexFormatError,
                    InvertedLists, KeywordTable, VectorIndex, _check_rows,
                    _embedder_spec_problem, _Memo, _narrowest)

log = logging.getLogger(__name__)

FORMAT_VERSION = 11
INDEX_FILE = "index.hiret"  # an index directory's one file
# Each array of an index file, in the order it is stored, and the types it may hold.
_ARRAYS = {
    "vector_rows": _UNSIGNED,  # _narrowest(segments) segment row of each vector
    "vector_offsets": ("<i8",),  # dimension j holds entries offsets[j]:offsets[j + 1]
    "vector_ordinals": _UNSIGNED,  # _narrowest(vectors) place in vector_rows of each entry
    "vector_values": ("<f4",),  # non-zero component of each entry
    "postings_offsets": ("<i8",),  # term i holds entries offsets[i]:offsets[i + 1]
    "postings_rows": _UNSIGNED,  # _narrowest(segments) segment row of each posting entry
    "postings_tf": _UNSIGNED,  # _narrowest(largest) term count of each posting entry
    "keywords_offsets": ("<i8",),  # keyword i holds rows offsets[i]:offsets[i + 1]
    "keywords_rows": _UNSIGNED,  # _narrowest(segments) segment row holding the keyword
    "segment_offsets": ("<i8",),  # segment i is bytes offsets[i]:offsets[i + 1] of the lines
    "segment_parents": _UNSIGNED,  # _narrowest(segments) lower parent row, or segments: the title
    "segment_kinds": ("<u1",),  # each segment's kind in _KINDS (0 where its line holds it)
}
_KINDS = ("text", "table", "image")
# The header fields load_index reads and the JSON types they hold.
_HEADER_FIELDS = {"k1": (int, float), "b": (int, float), "embedder": dict, "user_keywords": list,
                  "keys": list, "postings_terms": list, "keywords_terms": list, "lines": int,
                  "arrays": dict, "titles": dict}
_MAGIC = b"HIRETIDX"  # an index file's last 8 bytes
_TAIL = 20  # bytes after the header: its length (<u8), then the trailer's crc32 (<u4) and _MAGIC
_WINDOW = 1 << 20  # bytes _crc32 sums at a time


class StoredSegments(Sequence[Segment]):
    """Segments of a saved index, decoded from their JSON line when read.

    ``keys`` is the segment key order; reading row ``i`` decodes a fresh :class:`Segment`
    from ``blob[offsets[i]:offsets[i + 1]]`` and its ``parents`` chain of lower rows, so a
    query decodes only the rows it shows, deriving the fields :func:`_segment_line` leaves out.
    """

    def __init__(self, keys: list[str], blob: mmap.mmap | memoryview, offsets: np.ndarray,
                 parents: np.ndarray, kinds: np.ndarray, titles: dict[str, str]):
        self.keys, self._blob, self._offsets = keys, blob, offsets
        self._parents, self._kinds, self._titles = parents, kinds, titles

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):  # one dict of paths, whose parents come first: each line decoded once
        return map(self._decode, range(len(self)), repeat({}))

    def __getitem__(self, index):
        row = range(len(self))[index]  # list semantics, IndexError included
        return [self[i] for i in row] if isinstance(index, slice) else self._decode(row, {})

    def _decode(self, row: int, paths: dict[int, list[str]]) -> Segment:
        chain = [row]  # and its parents, each lower, up to one whose path is in paths
        while (up := int(self._parents[chain[-1]])) < len(self) and up not in paths:
            chain.append(up)
        for row in reversed(chain):  # each parent's path into paths before its child's
            try:
                fields = json.loads(self._blob[self._offsets[row]:self._offsets[row + 1]])
                if "doc_id" not in fields:  # the ids are the key's two parts
                    fields["doc_id"], _, fields["segment_id"] = self.keys[row].partition("#")
                number = fields.setdefault("chapter_number", fields["segment_id"])
                if "metadata_path" not in fields:  # its parent's path, then its HCA label
                    up = int(self._parents[row])  # len(self): its document's title, if not ""
                    head = paths[up] if up < len(self) else [
                        title for title in [self._titles[fields["doc_id"]]] if title]
                    fields["metadata_path"] = head + [f"{number} {fields['title']}".strip()]
                path = paths[row] = fields["metadata_path"][:]  # the segment's own may change
                seg = Segment(**{"kind": _KINDS[self._kinds[row]], "level": len(path) - 1,
                                 **fields})
                if "embedding_text" not in fields:
                    seg.embedding_text = path_text(seg.metadata_path, seg.content)
            except (TypeError, ValueError, LookupError, AttributeError) as exc:  # not a segment
                raise IndexFormatError(f"segment row {row} is not a segment: {exc}") from exc
            if seg.key != (key := self.keys[row]):
                raise IndexFormatError(f"segment row {row} holds {seg.key!r}, not {key!r}")
        return seg

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None



# Built once, not per call as json.dumps would; _segment_line writes with its escaper, _quote.
_COMPACT_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
_quote = json.encoder.encode_basestring


def _json_bytes(payload: object) -> bytes:
    return (_COMPACT_JSON.encode(payload) + "\n").encode("utf-8")


def _crc32(data: mmap.mmap, end: int) -> int:
    """The crc32 of ``data[:end]``, summed a 1 MiB window at a time; each window is then
    dropped (``MADV_DONTNEED``, where it exists), so none of the file stays resident."""
    crc, drop = 0, getattr(mmap, "MADV_DONTNEED", None)
    with memoryview(data) as view:
        for lo in range(0, end, _WINDOW):
            crc = zlib.crc32(view[lo:min(lo + _WINDOW, end)], crc)
            if drop is not None:
                data.madvise(drop, lo, _WINDOW)
    return crc


def _segment_line(seg: Segment, quoted: _Memo, derived: bool) -> bytes:
    """``seg``'s line as :data:`_COMPACT_JSON` writes it, less each field the decoder derives:
    the ids when ``doc_id`` holds no ``#``, a ``chapter_number`` equal to the ``segment_id``, a
    kind of :data:`_KINDS`, a level of the path's length minus 1, an ``embedding_text`` that
    :func:`path_text` gives and a path ``derived`` from the heading tree. A field not of its
    annotated type raises ``TypeError``. ``quoted``, one ``_Memo(_quote)`` per save, quotes
    the short fields; no body enters it."""
    q, level, path, text = quoted.__getitem__, seg.level, seg.metadata_path, seg.embedding_text
    if type(level) is not int or not isinstance(path, list):  # a bool would be written true
        raise TypeError(f"segment {seg.key}: not an int level or list path: {level!r}, {path!r}")
    text_field = "" if text == path_text(path, seg.content) else f'"embedding_text":{_quote(text)},'
    ids = f'"doc_id":{q(seg.doc_id)},', f'"segment_id":{q(seg.segment_id)},'  # type-checked
    doc_id, segment_id = ids if "#" in seg.doc_id else ("", "")  # or the key parts give them
    number = f'"chapter_number":{q(seg.chapter_number)},' * (seg.chapter_number != seg.segment_id)
    kind = f'"kind":{q(seg.kind)},' * (seg.kind not in _KINDS)
    level = f'"level":{int.__repr__(level)},' * (level != len(path) - 1)
    path = "" if derived else f'"metadata_path":[{",".join(map(q, path))}],'
    return (f'{{{number}"content":{_quote(seg.content)},{doc_id}{text_field}{kind}{level}'
            f'{path}{segment_id}"title":{q(seg.title)}}}\n').encode("utf-8")


def _write_index(bundle: IndexBundle, f) -> dict:
    """Write ``bundle`` to the binary file ``f``: the segment lines from offset 0, each of
    :data:`_ARRAYS` at the next multiple of 8 bytes, the header, its length and the trailer,
    whose crc32 is summed as the bytes before it are written. Returns the header."""
    crc = 0

    def put(data: bytes | np.ndarray) -> int:  # an array is written from its buffer
        nonlocal crc
        crc = zlib.crc32(data, crc)
        return f.write(data)

    quoted, n, titles, lengths, doc_id = _Memo(_quote), len(bundle.keys), {}, [], None
    parents, kinds = [], []  # each row's parent row (n: its document's title) and kind code
    for row, seg in enumerate(bundle.segments):  # no heap blob
        if seg.doc_id != doc_id:  # the paths of one run of a document's rows, not all (peak RSS)
            doc_id, tree = seg.doc_id, {}
        path, key = seg.metadata_path, tuple(seg.metadata_path)
        kinds.append(_KINDS.index(seg.kind) if seg.kind in _KINDS else 0)
        head = key[:-1] if path[-1:] == [f"{seg.chapter_number} {seg.title}".strip()] else None
        parent = tree.get(head, n)  # a row before it in this run whose path is its head, or n
        title = "".join(head) if head is not None and len(head) < 2 and "" not in head else None
        derived = parent < n or title is not None and titles.setdefault(doc_id, title) == title
        parents.append(parent)  # under its document's title (the first given): () for ""
        lengths.append(put(_segment_line(seg, quoted, derived)))
        tree[key] = row
    vectors, tf, rows = bundle.vectors, bundle.bm25.tf, _narrowest(n)
    postings, keywords = bundle.bm25.postings, bundle.keywords.rows
    stored = {"vector_rows": (vectors.rows, rows), "vector_offsets": (vectors.offsets, "<i8"),
              "vector_ordinals": (vectors.ordinals, _narrowest(len(vectors.rows))),
              "vector_values": (vectors.values, "<f4"),
              "postings_offsets": (postings.offsets, "<i8"), "postings_rows": (postings.rows, rows),
              "postings_tf": (tf, _narrowest(int(tf.max(initial=0)))),
              "keywords_offsets": (keywords.offsets, "<i8"), "keywords_rows": (keywords.rows, rows),
              "segment_offsets": (np.cumsum([0] + lengths), "<i8"),
              "segment_parents": (parents, rows), "segment_kinds": (kinds, "<u1")}
    arrays, end = {}, sum(lengths)
    for name, (values, dtype) in stored.items():
        array = np.ascontiguousarray(values, dtype)
        end += put(bytes(-end % 8))
        arrays[name] = [dtype, end, len(array)]
        end += put(array)
    header = {"format_version": FORMAT_VERSION, "k1": bundle.bm25.k1, "b": bundle.bm25.b,
              "embedder": bundle.embedder_spec, "user_keywords": bundle.user_keywords,
              "keys": bundle.keys, "postings_terms": postings.terms, "titles": titles,
              "keywords_terms": keywords.terms, "lines": sum(lengths), "arrays": arrays}
    encoded = _json_bytes(header)
    put(encoded + len(encoded).to_bytes(8, "little"))
    f.write(crc.to_bytes(4, "little") + _MAGIC)
    return header


def _check_replaceable(path: str | Path) -> Path:
    """The directory ``path`` names, through a symlink; :class:`IndexFormatError` unless it
    is missing or holds nothing but :data:`INDEX_FILE` and its temporary (no older index);
    ``NotADirectoryError`` if it is missing and its nearest existing ancestor is no directory."""
    target = Path(os.path.realpath(path))
    if target.is_dir():
        stray = sorted(set(os.listdir(target)) - {INDEX_FILE, f".{INDEX_FILE}.tmp"})
        if stray:
            raise IndexFormatError(f"refusing to replace {target}: it holds {stray}, which are "
                                   "not index files; remove them or choose another directory")
    elif target.exists():
        raise IndexFormatError(f"refusing to replace {target}: it is not a directory")
    elif not (ancestor := next(up for up in target.parents if up.exists())).is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(ancestor))
    return target


def save_index(bundle: IndexBundle, path: str | Path) -> dict:
    """Persist the bundle to a :func:`_check_replaceable` directory; returns the header.
    The file is written to ``.index.hiret.tmp`` and fsynced, and its rename onto
    :data:`INDEX_FILE` commits the save; the directory and the parent of each directory the
    save made are then fsynced. A save that raises or is killed before the rename leaves
    the previous index (or none) loadable; one that raises removes its temporary and every
    directory it made."""
    target = _check_replaceable(path)
    made = list(takewhile(lambda directory: not directory.exists(), (target, *target.parents)))
    target.mkdir(parents=True, exist_ok=True)
    temporary = target / f".{INDEX_FILE}.tmp"
    try:
        with open(temporary, "wb") as f:
            header = _write_index(bundle, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(temporary, target / INDEX_FILE)  # a new inode: loaded maps keep the old
    except BaseException:
        try:  # a removal that fails is logged, and the save's own error raised
            temporary.unlink(missing_ok=True)
            for directory in made:  # deepest first, each emptied by the one before
                directory.rmdir()
        except OSError as exc:
            log.warning("a failed save could not remove what it made: %s", exc)
        raise
    for directory in [target, *(made_dir.parent for made_dir in made)]:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return header


def _checked_header(file: Path, data: mmap.mmap) -> dict:
    """The header of the index file ``file``, mapped as ``data``, once the trailer's magic
    and crc32 match and the header holds every field :func:`load_index` reads, each array
    a view it can take."""
    size = len(data)
    if size < _TAIL or data[-8:] != _MAGIC:
        raise IndexFormatError(f"index file {file} does not end in an index's magic")
    if _crc32(data, size - 12) != int.from_bytes(data[-12:-8], "little"):
        raise IndexFormatError(f"index file {file} does not match its crc32")
    start = size - _TAIL - int.from_bytes(data[-_TAIL:-12], "little")
    try:
        if start < 0:
            raise ValueError("the header's length runs past the start of the file")
        header = json.loads(data[start:size - _TAIL])
    except ValueError as exc:
        raise IndexFormatError(f"corrupt index file {file}: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format_version {version!r} (expected {FORMAT_VERSION})"
        )
    problem = _header_problem(header, start)
    if problem:
        raise IndexFormatError(f"index file {file}: {problem}")
    return header


def _header_problem(header: dict, start: int) -> str:
    """Why :func:`load_index` cannot read ``header``, which starts at offset ``start``;
    "" when it can."""
    for name, kind in _HEADER_FIELDS.items():
        if isinstance(header.get(name), bool) or not isinstance(header.get(name), kind):
            return f"{name!r} is missing or mistyped"
    for name in ("user_keywords", "keys", "postings_terms", "keywords_terms"):
        if not set(map(type, words := header[name])) <= {str}:
            return f"{name!r} must be a list of strings"
        if name.endswith("_terms") and not all(map(str.__lt__, words, words[1:])):
            return f"{name!r} must hold distinct strings in sorted order"
    if not set(map(type, header["titles"].values())) <= {str}:
        return "'titles' must map document ids to strings"
    if not 0 <= header["lines"] <= start:
        return f"its {header['lines']} bytes of segment lines do not end before the header"
    for name, dtypes in _ARRAYS.items():
        entry = header["arrays"].get(name)
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(n) is int for n in entry[1:])):
            return f"arrays[{name!r}] is not a [dtype, offset, count]"
        if entry[0] not in dtypes:
            return f"arrays[{name!r}] holds {entry[0]!r}, expected {' or '.join(dtypes)}"
        if entry[1] % 8:
            return f"arrays[{name!r}] starts at {entry[1]}, not at a multiple of 8"
        if not 0 <= entry[1] <= entry[1] + entry[2] * np.dtype(entry[0]).itemsize <= start:
            return f"arrays[{name!r}] does not lie before the header"
    return _embedder_spec_problem(header["embedder"])


def _check_offsets(name: str, offsets: np.ndarray, count: int, end: int,
                   empty: bool = False) -> None:
    """Raise :class:`IndexFormatError` unless ``offsets`` splits ``end`` entries into
    ``count`` parts, each non-empty unless ``empty``."""
    if (offsets.shape != (count + 1,) or offsets[0] != 0 or offsets[-1] != end
            or np.any(np.diff(offsets) < (0 if empty else 1))):
        parts = "parts" if empty else "non-empty parts"
        raise IndexFormatError(f"{name} does not split {end} entries into {count} {parts}")


def load_index(path: str | Path) -> IndexBundle:
    """Load a bundle persisted by :func:`save_index`; round-trip is exact.

    The index file is mapped once and must end in the magic and the crc32 of the bytes
    before it; each array is a view of that map, as stored, and once the bundle is built
    the map's pages are dropped. Segments are decoded when read (:class:`StoredSegments`).
    Raises :class:`IndexFormatError` for a missing, corrupt, other-version or inconsistent
    index.
    """
    directory = Path(path)
    file = directory / INDEX_FILE
    try:
        with open(file, "rb") as f:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        try:  # an index of format 9 or older is a directory with a manifest.json
            version = json.loads((directory / "manifest.json").read_bytes()).get("format_version")
        except (OSError, ValueError, AttributeError):  # no manifest, not JSON, not an object
            version = None
        older = type(version) is int and version != FORMAT_VERSION
        raise IndexFormatError(f"unsupported index format_version {version} (expected "
                               f"{FORMAT_VERSION})" if older else f"no index at {file}") from None
    except (OSError, ValueError) as exc:  # ValueError: an empty file, which cannot be mapped
        raise IndexFormatError(f"cannot read index file {file}: {exc}") from exc
    try:
        header = _checked_header(file, data)
    except IndexFormatError:
        data.close()  # not kept open by the traceback
        raise
    keys = header["keys"]

    def array(name: str) -> np.ndarray:
        dtype, offset, count = header["arrays"][name]
        return np.frombuffer(data, dtype, count, offset)

    segment_offsets, n = array("segment_offsets"), len(keys)
    _check_offsets("segment_offsets", segment_offsets, n, header["lines"])
    parents, kinds = array("segment_parents"), array("segment_kinds")
    if not (len(parents) == len(kinds) == n and np.all(kinds < len(_KINDS)) and np.all(
            (parents < np.arange(n)) | (parents == n))):  # a lower row or a title: no cycle
        raise IndexFormatError(f"segment_parents and segment_kinds must give each of the {n} "
                               f"segments a lower row or {n} (its title) and a kind of {_KINDS}")

    def inverted(stem: str) -> InvertedLists:
        offsets, rows = array(f"{stem}_offsets"), array(f"{stem}_rows")
        _check_offsets(f"{stem}_offsets", offsets, len(header[f"{stem}_terms"]), len(rows))
        _check_rows(f"{stem}_rows", rows, len(keys), offsets)
        return InvertedLists(header[f"{stem}_terms"], offsets, rows)

    def vectors() -> VectorIndex:
        dim = header["embedder"].get("dim", DEFAULT_DIM)
        rows = array("vector_rows").astype(np.intp)
        offsets, ordinals = array("vector_offsets"), array("vector_ordinals")
        _check_offsets("vector_offsets", offsets, dim, len(ordinals), empty=True)
        _check_rows("vector_ordinals", ordinals, len(rows), offsets, of="vectors")
        return VectorIndex(dim=dim, keys=keys, rows=rows, offsets=offsets, ordinals=ordinals,
                           values=array("vector_values"))

    try:
        bundle = IndexBundle(
            vectors=vectors(),
            bm25=Bm25Index(k1=float(header["k1"]), b=float(header["b"]), keys=keys,
                           postings=inverted("postings"), tf=array("postings_tf")),
            keywords=KeywordTable(keys, inverted("keywords")),
            segments=StoredSegments(keys, data, segment_offsets, parents, kinds, header["titles"]),
            embedder_spec=dict(header["embedder"]),
            user_keywords=list(header["user_keywords"]),
        )
    except ValueError as exc:  # shapes that do not fit together
        raise IndexFormatError(f"corrupt index {directory}: {exc}") from exc
    if hasattr(mmap, "MADV_DONTNEED"):  # a query faults back the pages it reads
        data.madvise(mmap.MADV_DONTNEED)
    return bundle
