"""In-memory span recorder that wraps hiret's public functions from outside.

Nothing inside ``src/hiret`` is instrumented. A traced run replaces module
attributes (``hiret.retriever.vector_route``, ...) with thin wrappers that
record one span per call, so callers that look the name up at call time
are observed; an untraced run patches nothing and pays nothing. Spans are
``(name, start, end, parent, op)`` tuples kept in memory and written as
JSON when the run ends. ``op`` identifies the operation (one ingest, one
CLI query, one eval query) that a span belongs to.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (owner path, attribute, span name). Owners are resolved lazily so a child
# process can time the import of hiret before wrapping anything.
INGEST_WRAPS = [
    ("hiret.cli", "run_ingest", "cli.run_ingest"),
    ("hiret.cli", "load_corpus", "corpus.load"),
    ("hiret.cli", "plan_windows", "formatter.plan"),
    ("hiret.cli", "convert_document", "formatter.convert"),
    ("hiret.cli", "parse_markdown", "formatter.parse"),
    ("hiret.hca", "augment_document", "hca.augment"),
    ("hiret.index", "build_indices", "index.build"),
    ("hiret.index", "build_vector_index", "index.embed"),
    ("hiret.index", "build_bm25_index", "index.bm25_build"),
    ("hiret.index", "build_keyword_table", "index.keyword_build"),
    ("hiret.index", "save_index", "index.save"),
    ("hiret.plugins._LineProtocolClient", "request", "plugins.request"),
]
QUERY_WRAPS = [
    ("hiret.cli", "run_query", "cli.run_query"),
    ("hiret.index", "load_index", "index.load"),
    ("hiret.index", "make_embedder", "index.make_embedder"),
    ("hiret.retriever", "retrieve", "retriever.retrieve"),
    ("hiret.retriever", "vector_route", "retriever.vector_route"),
    ("hiret.retriever", "bm25_scores", "index.bm25_scores"),
    ("hiret.retriever", "keyword_route", "retriever.keyword_route"),
    ("hiret.retriever", "normalize_scores", "retriever.normalize"),
    ("hiret.retriever", "fuse_and_rank", "retriever.fuse_and_rank"),
    ("hiret.evalkit", "evaluate_query", "evalkit.evaluate_query"),
]
CLI_WRAPS = [("hiret.cli", "main", "cli.main")]


def _resolve(path: str):
    import importlib

    module_path, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module_path), attr)


def _count_result(tracer: "Tracer", name: str, args: tuple, result) -> None:
    """Work counts taken at the layer boundary, after the span closes."""
    if name == "formatter.plan":
        tracer.count("formatter.windows", result.iterations)
    elif name == "hca.augment":
        kinds = [seg.kind for seg in args[0].segments]
        tracer.count("hca.tables", kinds.count("table"))
        tracer.count("hca.images", kinds.count("image"))
    elif name == "index.embed":
        tracer.count("index.vectors", len(result.entries))
        tracer.count("index.skipped", len(args[0]) - len(result.entries))
    elif name == "index.bm25_build":
        tracer.count("index.bm25_terms", len(result.postings))
        tracer.count("index.bm25_postings", sum(len(s) for s in result.postings.values()))
    elif name == "index.bm25_scores":
        from hiret.index import tokenize

        bm25, query = args[0], args[1]
        touched = sum(len(bm25.postings.get(t, ())) for t in tokenize(query))
        tracer.count("index.bm25_postings_touched", touched)
    elif name == "retriever.keyword_route":
        tracer.count("retriever.keyword_hit_rows", sum(1 for c in result.values() if c))
    elif name == "retriever.fuse_and_rank":
        tracer.count("retriever.results_built", len(result))
    elif name == "plugins.request":
        tracer.count("plugins.calls", 1)


class Tracer:
    """Records spans and counts for the operation currently marked by ``op``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: list[tuple[str, float, str]] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        if self.op is not None:
            self.counts.append((name, value, self.op))

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.op))

    def wrap(self, owner_path: str, attr: str, name: str) -> None:
        owner = _resolve(owner_path)
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)  # placeholder keeps parents before children
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            _count_result(tracer, name, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def wrap_all(self, table) -> None:
        for owner_path, attr, name in table:
            self.wrap(owner_path, attr, name)

    @contextmanager
    def installed(self, table):
        """Wrap ``table`` for the duration of the block."""
        self.wrap_all(table)
        try:
            yield self
        finally:
            self.unwrap_all()

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def extend(self, payload: dict) -> None:
        """Merge spans and counts recorded by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, op in payload["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op))
        self.counts.extend(tuple(c) for c in payload["counts"])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.dump()), encoding="utf-8")


def per_op(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per operation: ``<name>.self_s``, ``<name>.total_s``, ``<name>.calls``
    for every span name, plus every count, summed within the operation."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    ops: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        row = ops[op]
        row[f"{name}.total_s"] += end - start
        row[f"{name}.self_s"] += end - start - child_time[i]
        row[f"{name}.calls"] += 1
    for name, value, op in tracer.counts:
        ops[op][name] += value
    return {op: dict(row) for op, row in ops.items()}


def median_over(ops: dict[str, dict[str, float]], key: str, op_ids=None) -> float:
    """Median over operations of one per-op quantity; 0 where never seen."""
    rows = [ops[o] for o in (op_ids if op_ids is not None else ops) if o in ops]
    values = [row.get(key, 0.0) for row in rows]
    return statistics.median(values) if values else 0.0
