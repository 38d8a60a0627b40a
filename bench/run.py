"""hiret benchmark: ingest, cold CLI query, warm eval and plug-in ingest.

Usage (from the repository root)::

    python3 bench/run.py --workload eval-warm-20k --seed 1 --seconds 10 --trace 0

Each run generates a synthetic datasheet corpus from ``--seed`` (see
``corpus_gen.py``) and sets the workload up, repeating a cheap set-up until
two seconds of set-up have passed (``setup_s`` is the median). After the
last set-up one closed-loop client runs for ``--seconds``: one operation at
a time, the next only after the previous one finished. Times are costs at
a fixed reference speed (``refclock.py``): CPU time on the one CPU the run
is pinned to, scaled by a reference probe sampled on that CPU, because the
shared host's speed changes by up to 2x within seconds. Every operation's
output is checked; failures count into ``failed``. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. Lines before it are a readable report and the run's facts
(machine, sizes, ranking digest).

A traced run spends half of ``--seconds`` untraced and half with the span
recorder of ``spans.py`` wrapped around hiret's public functions, and
reports per-layer self times (converted to cost with each operation's
cost / wall ratio), counts and the tracing overhead. Spans are written to ``bench/_out/``. Scratch files live under
``bench/_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import corpus_gen  # noqa: E402  (sibling module; the script's directory is on sys.path)
import refclock  # noqa: E402
import spans  # noqa: E402

SETUP_MIN_S = 2.0  # a cheap set-up repeats until this much set-up cost passed
MAX_SETUPS = 60
RUN_DEADLINE_S = 170.0  # every run ends well inside the 180 s limit
CLI_BANK = 8  # distinct queries of the CLI loop and of the ingest-20k checks
EVAL_BANK = 32  # distinct queries of the warm eval loop and the plug-in ingest checks
GAMMA = 1.0
TOP_K = 5  # `hiret query` default
INGEST_RE = re.compile(
    r"ingested (\d+) documents, (\d+) segments \((\d+) skipped, (\d+) warnings\)"
)
INDEX_FILES = {
    "manifest.json": "manifest",
    "vectors.bin": "vectors",
    "postings.json": "postings",
    "keywords.json": "keywords",
    "segments.json": "segments",
}

# Per-layer metric -> (per-operation quantity from spans.per_op, scale,
# query class the median is taken over, or None for every operation).
LAYER_METRICS = {
    "corpus.load_ms": ("corpus.load.self_s", 1e3, None),
    "formatter.convert_ms": ("formatter.convert.self_s", 1e3, None),
    "formatter.parse_ms": ("formatter.parse.self_s", 1e3, None),
    "formatter.windows": ("formatter.windows", 1, None),
    "hca.augment_ms": ("hca.augment.self_s", 1e3, None),
    "hca.tables": ("hca.tables", 1, None),
    "hca.images": ("hca.images", 1, None),
    "index.embed_ms": ("index.embed.self_s", 1e3, None),
    "index.vectors": ("index.vectors", 1, None),
    "index.skipped": ("index.skipped", 1, None),
    "index.bm25_build_ms": ("index.bm25_build.self_s", 1e3, None),
    "index.bm25_terms": ("index.bm25_terms", 1, None),
    "index.bm25_postings": ("index.bm25_postings", 1, None),
    "index.keyword_build_ms": ("index.keyword_build.self_s", 1e3, None),
    "index.save_ms": ("index.save.self_s", 1e3, None),
    "cli.run_ingest_ms": ("cli.run_ingest.self_s", 1e3, None),
    "plugins.request_ms": ("plugins.request.self_s", 1e3, None),
    "plugins.calls": ("plugins.calls", 1, None),
    "cli.import_ms": ("cli.import.self_s", 1e3, None),
    "cli.main_ms": ("cli.main.self_s", 1e3, None),
    "index.load_ms": ("index.load.self_s", 1e3, None),
    "cli.run_query_ms": ("cli.run_query.self_s", 1e3, None),
    "retriever.retrieve_ms": ("retriever.retrieve.total_s", 1e3, None),
    "retriever.overhead_ms": ("retriever.retrieve.self_s", 1e3, None),
    "retriever.vector_route_ms": ("retriever.vector_route.self_s", 1e3, None),
    "index.bm25_scores_ms.long": ("index.bm25_scores.self_s", 1e3, "long"),
    "index.bm25_scores_ms.short": ("index.bm25_scores.self_s", 1e3, "short"),
    "index.bm25_postings_touched.long": ("index.bm25_postings_touched", 1, "long"),
    "index.bm25_postings_touched.short": ("index.bm25_postings_touched", 1, "short"),
    "retriever.keyword_route_ms": ("retriever.keyword_route.self_s", 1e3, None),
    "retriever.keyword_hit_rows": ("retriever.keyword_hit_rows", 1, None),
    "retriever.normalize_ms": ("retriever.normalize.self_s", 1e3, None),
    "retriever.fuse_and_rank_ms": ("retriever.fuse_and_rank.self_s", 1e3, None),
    "retriever.results_built": ("retriever.results_built", 1, None),
    "evalkit.evaluate_query_ms": ("evalkit.evaluate_query.self_s", 1e3, None),
}


class SetupError(Exception):
    """The workload could not be set up; the run prints no result."""


@dataclass
class Child:
    code: int
    wall_s: float
    cost_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Run:
    """State of one benchmark run: settings, tallies, facts and traces."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    work: Path
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    tracer: spans.Tracer = field(default_factory=spans.Tracer)
    clock: refclock.RefClock = field(default_factory=refclock.RefClock)
    op_class: dict[str, str] = field(default_factory=dict)
    op_scale: dict[str, float] = field(default_factory=dict)  # traced op: cost / wall

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked unit of work; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)
        return ok

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    # -- child processes -------------------------------------------------

    def child(self, cmd: list[str], name: str) -> Child:
        """Run a process to completion; its wall time, cost and peak RSS."""
        out_path = self.work / f"{name}.out"
        err_path = self.work / f"{name}.err"
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def run_to_end():
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.work)
            exited, status, usage = self.clock.wait_child(proc.pid, max(1.0, self.remaining()))
            if not exited:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return (proc.returncode if exited else -9), usage

        (code, usage), wall, cost = self.clock.timed(run_to_end)
        return Child(
            code=code,
            wall_s=wall,
            cost_s=cost,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def cli(self, args: list[str], name: str, traced_op: str | None = None) -> Child:
        """`hiret <args>` exactly as the console script starts it."""
        if traced_op is None:
            cmd = [sys.executable, "-c", "from hiret.cli import entrypoint; entrypoint()"]
        else:
            spans_out = self.work / f"{name}.spans.json"
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_out), traced_op, "--"]
        child = self.child(cmd + args, name)
        if traced_op is not None and child.code == 0:
            self.tracer.extend(json.loads(spans_out.read_text(encoding="utf-8")))
        return child

    # -- the clock -------------------------------------------------------

    def scale_spans(self, n: int, traced: bool, wall_s: float, cost_s: float) -> None:
        """Remember how traced operation ``n`` converts wall time to cost."""
        if traced:
            self.op_scale[f"op{n}"] = cost_s / wall_s

    def until(self, seconds: float, at_least: int = 1):
        """Yield 0, 1, 2, ... until ``seconds`` passed and ``at_least`` ran."""
        start = time.perf_counter()
        i = 0
        while i < at_least or time.perf_counter() - start < seconds:
            if self.remaining() < 20:
                self.problems.append("run deadline reached; measurement cut short")
                return
            yield i
            i += 1

    def measure(self, op, at_least: int,
                traced_phase=contextlib.nullcontext) -> tuple[list, list]:
        """Closed loop: ``op(n, traced)`` back to back for ``--seconds``.

        A traced run spends the first half untraced and the second half
        inside ``traced_phase()``. Each op returns its (wall_s, cost_s).
        Returns the untraced and the traced operations.
        """
        share = self.seconds / 2 if self.traced else self.seconds
        ops = [op(n, False) for n in self.until(share, at_least)]
        traced = []
        if self.traced:
            with traced_phase():
                first = len(ops)
                traced = [op(first + n, True) for n in self.until(share, max(2, at_least))]
        return ops, traced


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(run: Run, n_docs: int) -> tuple[corpus_gen.Corpus, Path]:
    """Generate and write the corpus, bank and keyword dictionary.

    Every set-up of a run writes the same files in place: on an ext4
    volume, creating fresh files after deleting others took kernel time
    that grew 2-3x within a few dozen set-ups, so ``setup_s`` would have
    measured the runs before this one.
    """
    corpus = corpus_gen.generate(run.seed, n_docs)
    base = run.work / "in"
    corpus_gen.write(corpus, base / "corpus")
    corpus_gen.write_bank(corpus.bank, base / "bank.jsonl")
    (base / "keywords.txt").write_text("\n".join(corpus.keyword_dict) + "\n", encoding="utf-8")
    return corpus, base


def ingest_args(base: Path, index_dir: Path, plugin: bool) -> list[str]:
    args = ["--corpus-dir", str(base / "corpus"), "--index-dir", str(index_dir),
            "--keywords", str(base / "keywords.txt")]
    if plugin:
        config = base / "plugin.json"
        spec = {"kind": "subprocess", "dim": 256,
                "command": [sys.executable, str(BENCH / "embed_worker.py"), "256"]}
        config.write_text(json.dumps({"embedder": spec}), encoding="utf-8")
        args = ["--config", str(config)] + args
    return args + ["ingest"]


def index_bytes(index_dir: Path) -> dict[str, int]:
    sizes = {f"index.bytes.{stem}": 0 for stem in INDEX_FILES.values()}
    sizes["index.bytes.other"] = 0
    for path in index_dir.iterdir():
        sizes[f"index.bytes.{INDEX_FILES.get(path.name, 'other')}"] += path.stat().st_size
    return sizes


def record_inputs(run: Run, corpus: corpus_gen.Corpus, bundle) -> None:
    run.facts.update(
        docs=len(corpus.docs),
        segments=len(bundle.keys),
        bm25_terms=len(bundle.bm25.postings),
        skipped_images=corpus.skipped_images,
        headings_shifted=corpus.headings_shifted,
    )


# ---------------------------------------------------------------------------
# Checks against in-process references


def load_index(index_dir: Path):
    from hiret import index

    return index.load_index(index_dir)


def eval_query(q: dict):
    from hiret import evalkit

    return evalkit.EvalQuery(q["id"], q["query"], frozenset(q["relevant"]),
                             frozenset(q.get("keywords", ())))


def ranking_digest(ranking) -> str:
    text = "\n".join(f"{r.segment_key} {r.fused_score!r}" for r in ranking)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_ranking(run: Run, bundle, universe: set, q: dict, outcome) -> bool:
    """Full permutation, non-increasing fused scores, BM25 oracle on top-k."""
    from hiret import index

    ranking = outcome.ranking
    ok = len(ranking) == len(universe) and {r.segment_key for r in ranking} == universe
    ok = ok and all(r.rank == i for i, r in enumerate(ranking, start=1))
    ok = ok and all(a.fused_score >= b.fused_score for a, b in zip(ranking, ranking[1:]))
    raw = index.bm25_scores(bundle.bm25, q["query"])
    lo, hi = min(raw.values()), max(raw.values())
    for r in outcome.top:
        oracle = index.bm25_score(bundle.bm25, q["query"], r.segment_key)
        expected = 0.5 if hi == lo else (oracle - lo) / (hi - lo)
        ok = ok and raw[r.segment_key] == oracle and r.score_r == expected
    return run.check(ok, f"ranking check failed for {q['id']}")


class Reference:
    """In-process retrieval over a loaded index, for checks and log-rank."""

    def __init__(self, run: Run, bundle, scores=None, digests=None):
        from hiret import index, retriever

        self.run = run
        self.bundle = bundle
        self.universe = set(self.bundle.keys)
        self.embedder = index.make_embedder(self.bundle.embedder_spec)
        self.cfg = retriever.RetrievalConfig(top_k=TOP_K, gamma=GAMMA)
        self.base_keywords = set(self.bundle.user_keywords)
        self.scores: dict[str, float] = {} if scores is None else scores
        self.digests: dict[str, str] = {} if digests is None else digests

    def retrieve(self, q: dict):
        from hiret import retriever

        return retriever.retrieve(q["query"], self.bundle, self.cfg,
                                  user_keywords=self.base_keywords | set(q.get("keywords", ())),
                                  embedder=self.embedder)

    def score(self, q: dict, outcome) -> None:
        """Log-rank and digest of a bank query, checked once per query."""
        from hiret import evalkit

        digest = ranking_digest(outcome.ranking)
        if q["id"] in self.digests:
            self.run.check(digest == self.digests[q["id"]], f"ranking of {q['id']} changed")
            return
        check_ranking(self.run, self.bundle, self.universe, q, outcome)
        self.digests[q["id"]] = digest
        self.scores[q["id"]] = evalkit.evaluate_query(outcome.ranking, eval_query(q), GAMMA)

    def complete(self, bank: list[dict]) -> tuple[float, str]:
        """Score any bank query not seen yet; mean log-rank and bank digest."""
        for q in bank:
            if q["id"] not in self.digests:
                self.score(q, self.retrieve(q))
        mean = statistics.fmean(self.scores[q["id"]] for q in bank)
        digest = hashlib.sha256("".join(self.digests[q["id"]] for q in bank).encode()).hexdigest()
        return mean, digest

    def close(self) -> None:
        close = getattr(self.embedder, "close", None)
        if callable(close):
            close()


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Measured:
    setup_s: list[float]  # set-up costs
    ops: list[tuple[float, float]]  # (wall_s, cost_s) per operation
    rss_mb: float
    index_sizes: dict[str, int]
    logrank: float
    traced_ops: list[tuple[float, float]] = field(default_factory=list)


def set_up_and_measure(run: Run, setup, make_op, at_least: int = 1,
                       traced_phase=contextlib.nullcontext):
    """Set up the workload, then measure ``make_op(state)`` for ``--seconds``
    and at least ``at_least`` operations. A cheap set-up is first repeated,
    timed only, until SETUP_MIN_S of set-up cost has passed, which steadies
    its median.

    Returns (set-up costs, untraced ops, traced ops, last state).
    """
    setup_s, state = [], None
    total, rep = 1, 0
    while rep < total:
        state = None
        gc.collect()
        state, _, cost = run.clock.timed(setup)
        setup_s.append(cost)
        if rep == 0:
            total = min(MAX_SETUPS, max(1, math.ceil(SETUP_MIN_S / cost)))
        rep += 1
    ops, traced = run.measure(make_op(state), at_least, traced_phase)
    return setup_s, ops, traced, state


def build_index(run: Run, base: Path) -> Path:
    index_dir = base / "index"
    child = run.cli(ingest_args(base, index_dir, plugin=False), "setup")
    if child.code != 0:
        raise SetupError(f"set-up ingest failed ({child.code}): {child.stderr[-400:]}")
    return index_dir


def ingest_workload(run: Run, n_docs: int, plugin: bool, at_least: int, bank_size: int) -> Measured:
    rss = []
    last = None

    def make_op(state):
        corpus, base = state
        expected = (len(corpus.docs), corpus.segments, corpus.skipped_images,
                    corpus.skipped_images)

        def ingest_once(n: int, traced: bool) -> tuple[float, float]:
            nonlocal last
            index_dir = run.work / f"index{n}"
            child = run.cli(ingest_args(base, index_dir, plugin), f"ingest{n}",
                            f"op{n}" if traced else None)
            found = INGEST_RE.search(child.stdout)
            counts = tuple(int(g) for g in found.groups()) if found else None
            if run.check(child.code == 0 and counts == expected,
                         f"ingest {n}: exit {child.code}, counts {counts} != {expected}"):
                if last is not None:
                    shutil.rmtree(last, ignore_errors=True)
                last = index_dir
            rss.append(child.rss_mb)
            run.scale_spans(n, traced, child.wall_s, child.cost_s)
            return child.wall_s, child.cost_s

        return ingest_once

    setup_s, ops, traced, (corpus, _) = set_up_and_measure(
        run, lambda: make_inputs(run, n_docs), make_op, at_least)
    if last is None:
        raise SetupError("no ingest succeeded: " + "; ".join(run.problems))

    ref = Reference(run, load_index(last))
    try:
        run.check(len(ref.bundle.keys) == corpus.segments, "loaded index has the wrong key count")
        record_inputs(run, corpus, ref.bundle)
        bank = corpus.bank[:bank_size]
        logrank, digest = ref.complete(bank)
        if plugin:
            check_plugin_rankings(run, ref, bank)
    finally:
        ref.close()
    run.facts["ranking_digest"] = digest
    return Measured(setup_s, ops, statistics.median(rss), index_bytes(last), logrank, traced)


def check_plugin_rankings(run: Run, ref: Reference, bank: list[dict]) -> None:
    """The same segments indexed in-process with HashingEmbedder rank every
    bank query bit-identically to the index built through the worker."""
    from hiret import index

    embedder = index.HashingEmbedder(int(ref.bundle.embedder_spec["dim"]))
    local = Reference(run, index.build_indices(ref.bundle.segments, embedder,
                                               user_keywords=ref.bundle.user_keywords))
    for q in bank:
        run.check(ranking_digest(local.retrieve(q).ranking) == ref.digests[q["id"]],
                  f"plug-in ranking of {q['id']} differs from the in-process embedder")


def query_cli_workload(run: Run) -> Measured:
    results: list[tuple[dict, Child]] = []

    def setup():
        corpus, base = make_inputs(run, 500)
        return corpus, build_index(run, base)

    def make_op(state):
        corpus, index_dir = state
        bank = corpus.bank[:CLI_BANK]

        def query_once(n: int, traced: bool) -> tuple[float, float]:
            q = bank[n % len(bank)]
            traced_op = f"op{n}" if traced else None
            if traced:
                run.op_class[traced_op] = q["class"]
            child = run.cli(["--index-dir", str(index_dir), "--top-k", str(TOP_K),
                             "query", "--json", q["query"]], f"query{n}", traced_op)
            results.append((q, child))
            run.scale_spans(n, traced, child.wall_s, child.cost_s)
            return child.wall_s, child.cost_s

        return query_once

    setup_s, ops, traced, (corpus, index_dir) = set_up_and_measure(run, setup, make_op)
    bank = corpus.bank[:CLI_BANK]
    # Every set-up built the same index, so the last one is the reference.
    ref = Reference(run, load_index(index_dir))
    try:
        outcomes = {}
        for q in bank:
            outcomes[q["id"]] = outcome = ref.retrieve(q)
            ref.score(q, outcome)
        for q, child in results:
            expected = [(r.segment_key, r.fused_score) for r in outcomes[q["id"]].top]
            try:
                got = [(r["segment_key"], r["fused_score"])
                       for r in json.loads(child.stdout)["results"]]
            except (ValueError, KeyError, TypeError):
                got = None
            run.check(child.code == 0 and got == expected,
                      f"CLI query {q['id']}: exit {child.code}, top-k differs from in-process")
        record_inputs(run, corpus, ref.bundle)
        logrank, digest = ref.complete(bank)
    finally:
        ref.close()
    run.facts["ranking_digest"] = digest
    rss = statistics.median(child.rss_mb for _, child in results)
    return Measured(setup_s, ops, rss, index_bytes(index_dir), logrank, traced)


def eval_warm_workload(run: Run) -> Measured:
    from hiret import evalkit, retriever

    seen: dict[str, dict] = {"scores": {}, "digests": {}}  # shared by every set-up

    def setup():
        corpus, base = make_inputs(run, 500)
        index_dir = build_index(run, base)
        return corpus, index_dir, Reference(run, load_index(index_dir), **seen)

    def make_op(state):
        corpus, _, ref = state
        bank = corpus.bank[:EVAL_BANK]
        queries = [eval_query(q) for q in bank]

        def eval_once(n: int, traced: bool) -> tuple[float, float]:
            q, eq = bank[n % len(bank)], queries[n % len(bank)]
            keywords = ref.base_keywords | set(eq.user_keywords)
            if traced:
                run.tracer.op = f"op{n}"
                run.op_class[run.tracer.op] = q["class"]

            def query():
                outcome = retriever.retrieve(eq.query, ref.bundle, ref.cfg,
                                             user_keywords=keywords, embedder=ref.embedder)
                return outcome, evalkit.evaluate_query(outcome.ranking, eq, GAMMA)

            (outcome, score), wall, cost = run.clock.timed(query)
            run.tracer.op = None
            run.scale_spans(n, traced, wall, cost)
            ref.score(q, outcome)
            run.check(score == ref.scores[q["id"]], f"log-rank of {q['id']} changed")
            return wall, cost

        return eval_once

    setup_s, ops, traced, (corpus, index_dir, ref) = set_up_and_measure(
        run, setup, make_op, traced_phase=lambda: run.tracer.installed(spans.QUERY_WRAPS))
    record_inputs(run, corpus, ref.bundle)
    try:
        logrank, digest = ref.complete(corpus.bank[:EVAL_BANK])
    finally:
        ref.close()
    run.facts["ranking_digest"] = digest
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measured(setup_s, ops, rss, index_bytes(index_dir), logrank, traced)


WORKLOADS = {
    "ingest-20k": lambda run: ingest_workload(run, 500, plugin=False, at_least=3,
                                              bank_size=CLI_BANK),
    "query-cli-20k": query_cli_workload,
    "eval-warm-20k": eval_warm_workload,
    # On 4k segments eight queries left logrank_mean spreading 0.013 over
    # ten seeds; the bank's first 32 bring that to 0.005 and check cheaply.
    "ingest-plugin-4k": lambda run: ingest_workload(run, 100, plugin=True, at_least=3,
                                                    bank_size=EVAL_BANK),
}


# ---------------------------------------------------------------------------
# Reporting


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(m: Measured) -> dict[str, float]:
    costs = [cost for _, cost in m.ops]
    return {
        "setup_s": statistics.median(m.setup_s),
        "op_p50_ms": percentile(costs, 50) * 1e3,
        "op_p90_ms": percentile(costs, 90) * 1e3,
        "ops_per_s": 1.0 / statistics.median(costs),
        "peak_rss_mb": m.rss_mb,
        "index_mb": sum(m.index_sizes.values()) / 1e6,
        "logrank_mean": m.logrank,
    }


def span_costs(run: Run) -> dict[str, dict[str, float]]:
    """Per traced operation, span times converted from wall time to cost
    with the operation's own cost / wall ratio, so layer times and
    end-to-end times are in the same unit."""
    ops = spans.per_op(run.tracer)
    for op, row in ops.items():
        scale = run.op_scale.get(op, 1.0)
        for key in row:
            if key.endswith("_s"):
                row[key] *= scale
    return ops


def per_layer(run: Run, m: Measured) -> dict[str, float]:
    ops = span_costs(run)
    values = {}
    for metric, (key, scale, cls) in LAYER_METRICS.items():
        chosen = [op for op in ops if cls is None or run.op_class.get(op) == cls]
        values[metric] = spans.median_over(ops, key, chosen) * scale
    built = values["retriever.results_built"]
    values["retriever.useful_ratio"] = TOP_K / built if built else 0.0
    values.update(m.index_sizes)
    untraced = statistics.median(cost for _, cost in m.ops)
    traced = statistics.median(cost for _, cost in m.traced_ops)
    values["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    return values


def layer_table(run: Run) -> list[str]:
    """Median self time and calls per span name, over traced operations."""
    ops = span_costs(run)
    names = sorted({k[: -len(".self_s")] for row in ops.values() for k in row if k.endswith(".self_s")})
    rows = [(spans.median_over(ops, f"{n}.self_s") * 1e3, spans.median_over(ops, f"{n}.calls"), n)
            for n in names]
    return [f"#   {name:<32} self {ms:10.3f} ms  calls {calls:8.0f}"
            for ms, calls, name in sorted(rows, reverse=True)]


ALIASES = {
    "ingest-20k": [("ingest_s", "op_p50_ms", 1e-3, "s")],
    "ingest-plugin-4k": [("ingest_s", "op_p50_ms", 1e-3, "s")],
    "query-cli-20k": [("cli_query_p50_ms", "op_p50_ms", 1, "ms"),
                      ("cli_query_p90_ms", "op_p90_ms", 1, "ms")],
    "eval-warm-20k": [("query_p50_ms", "op_p50_ms", 1, "ms"),
                      ("query_p90_ms", "op_p90_ms", 1, "ms"),
                      ("eval_qps", "ops_per_s", 1, "1/s")],
}


def machine_facts() -> dict:
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
        "corpus": "synthetic datasheets (corpus_gen.py); the paper's MDQA set is not used",
        "load": "closed loop, one client, one operation at a time",
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="hiret benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hiret" / "cli.py").is_file():
        print(f"error: hiret sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hiret

    logging.getLogger("hiret").setLevel(logging.ERROR)  # expected skip warnings

    if Path(hiret.__file__).resolve().parent != SRC / "hiret":
        print(f"error: imported hiret from {hiret.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    run.facts.update(machine_facts(), workload=args.workload, seed=args.seed,
                     pinned_cpu=refclock.pin_to_one_cpu())
    try:
        measured = WORKLOADS[args.workload](run)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# hiret benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# facts {json.dumps(run.facts, sort_keys=True)}")
    print(f"# samples: setup={len(measured.setup_s)} ops={len(measured.ops)} "
          f"traced_ops={len(measured.traced_ops)} probes={len(run.clock.samples)}")
    print(f"# setup_s (cost) {[round(t, 3) for t in measured.setup_s]}")
    print(f"# op_ms (cost) {[round(c * 1e3, 1) for _, c in measured.ops]}")
    print(f"# op_ms (wall, probes included) {[round(w * 1e3, 1) for w, _ in measured.ops]}")
    print(f"# probe_ms median {statistics.median(run.clock.samples) * 1e3:.3f} "
          f"(reference {refclock.REF_LOOP_S * 1e3:g})")
    e2e = end_to_end(measured)
    print(f"op_p50_ms {e2e['op_p50_ms']:.6g} ms")
    print(f"op_p90_ms {e2e['op_p90_ms']:.6g} ms")
    for alias, name, scale, unit in ALIASES.get(args.workload, []):
        print(f"{alias} {e2e[name] * scale:.6g} {unit}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.6g} fraction "
          f"({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"# problem: {problem}")

    if args.trace:
        values = per_layer(run, measured)
        listed = spec["per_layer"]
        out = BENCH / "_out" / f"spans-{args.workload}-seed{args.seed}.json"
        run.tracer.write(out)
        print(f"# spans -> {out.relative_to(ROOT)}; median self time per operation:")
        print("\n".join(layer_table(run)))
    else:
        values, listed = e2e, spec["end_to_end"]
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']} {values[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
