"""The counts a traced benchmark run reads off the formatter and index layers
agree with the documents and bundle they describe, so a change to the ingest
loop or the index types cannot quietly turn a per-layer metric into a wrong
figure or a 0."""

import importlib.util
from pathlib import Path

from make_golden import DATA_DIR

import hiret.cli as cli
from hiret.corpus import load_corpus
from hiret.index import load_index

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    """``bench/spans.py`` as a module of its own, leaving ``sys.path`` as it is."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ingest_counts_the_postings_the_index_holds(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    cfg = cli.AppConfig(corpus_dir=str(DATA_DIR / "corpus"), index_dir=str(tmp_path / "index"),
                        keyword_dict=str(DATA_DIR / "keywords.txt"))
    with tracer.installed(spans.INGEST_WRAPS + spans.QUERY_WRAPS):
        tracer.op = "ingest"
        cli.run_ingest(cfg)
        tracer.op = "query"
        result = cli.run_query(cfg, "HX-3600A00 isolated bus transceiver ordering")
        tracer.op = None
    ops = spans.per_op(tracer)
    # The CLI converts nothing: each document's text goes straight to the parser, so
    # no window is planned or converted.
    echo = {"formatter.plan", "formatter.convert"}
    assert not [span for span in tracer.spans if span[0] in echo]
    assert ops["ingest"].get("formatter.windows", 0) == 0
    assert ops["ingest"]["formatter.parse.calls"] == len(load_corpus(cfg.corpus_dir))
    # Every other ingest layer runs, through the attribute the tracer wraps (the
    # plug-in protocol only with a plug-in embedder), so its per-layer figure is not 0.
    for _, _, name in spans.INGEST_WRAPS:
        if name not in echo | {"plugins.request"}:
            assert ops["ingest"].get(f"{name}.calls", 0) >= 1, name
    bundle = load_index(tmp_path / "index")
    assert ops["ingest"]["index.bm25_build.calls"] == 1
    assert ops["ingest"]["index.bm25_terms"] == len(bundle.bm25.postings) > 0
    assert ops["ingest"]["index.bm25_postings"] == len(bundle.bm25.postings.rows) > 0
    assert ops["query"]["index.load.calls"] == ops["query"]["retriever.retrieve.calls"] == 1
    assert result["results"]
