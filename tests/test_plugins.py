import sys
import time

import numpy as np
import pytest

from hiret import plugins
from hiret.index import build_indices, build_vector_index, make_embedder
from hiret.corpus import Segment
from hiret.retriever import RetrievalConfig, retrieve
from hiret.plugins import (
    PluginError,
    SubprocessCaptioner,
    SubprocessEmbedder,
)

EMBED_WORKER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    text = req["text"]
    vec = [float(len(text) % 7), 1.0, float(text.count("a"))]
    print(json.dumps({"vector": vec}), flush=True)
"""

CAPTION_WORKER = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    ref = req["text"].split("\\n", 1)[0]
    print(json.dumps({"caption": "image of " + ref}), flush=True)
"""

BROKEN_WORKER = """
import sys
for line in sys.stdin:
    print("not json", flush=True)
"""


def py(script):
    return [sys.executable, "-c", script]


class TestSubprocessEmbedder:
    def test_round_trip(self):
        with SubprocessEmbedder(py(EMBED_WORKER), dim=3) as embedder:
            vec = embedder.embed("banana")
            assert vec.shape == (3,)
            assert vec[2] == 3.0  # three a's
            assert np.array_equal(vec, embedder.embed("banana"))

    def test_newlines_in_text_survive_the_line_protocol(self):
        with SubprocessEmbedder(py(EMBED_WORKER), dim=3) as embedder:
            vec = embedder.embed("a\nb\na")
            assert vec[2] == 2.0

    def test_dim_mismatch_raises(self):
        with SubprocessEmbedder(py(EMBED_WORKER), dim=5) as embedder:
            with pytest.raises(PluginError, match="5-component"):
                embedder.embed("x")

    @pytest.mark.parametrize("vector", [["a", "b", "c"], [True, 1, 2], [1.0, None, 2.0]],
                             ids=["strings", "bool", "null"])
    def test_non_numeric_vector_names_the_plugin(self, vector):
        worker = ("import json, sys\nfor line in sys.stdin:\n"
                  f"    print(json.dumps({{'vector': {vector!r}}}), flush=True)\n")
        with SubprocessEmbedder(py(worker), dim=3) as embedder:
            with pytest.raises(PluginError, match=r"plug-in \[.*'vector' of JSON numbers"):
                embedder.embed("x")

    def test_invalid_response_raises(self):
        with SubprocessEmbedder(py(BROKEN_WORKER), dim=3) as embedder:
            with pytest.raises(PluginError, match="invalid JSON"):
                embedder.embed("x")

    def test_dead_worker_raises(self):
        with SubprocessEmbedder([sys.executable, "-c", "pass"], dim=3) as embedder:
            with pytest.raises(PluginError):
                embedder.embed("x")

    def test_usable_for_index_building(self):
        seg = Segment(
            segment_id="1", chapter_number="1", level=1, title="t", kind="text",
            content="aaa", doc_id="d", embedding_text="aaa",
        )
        with SubprocessEmbedder(py(EMBED_WORKER), dim=3) as embedder:
            index = build_vector_index([seg], embedder)
        assert list(index.entries) == ["d#1"]
        assert index.dim == 3

    def test_make_embedder_builds_subprocess_kind(self):
        embedder = make_embedder({"kind": "subprocess", "command": py(EMBED_WORKER), "dim": 3})
        try:
            assert embedder.embed("aa")[2] == 2.0
        finally:
            embedder.close()

    def test_retrieve_closes_the_embedder_it_made(self, monkeypatch):
        segments = [
            Segment(segment_id=sid, chapter_number=sid, level=1, title=sid, kind="text",
                    content=text, doc_id="d", embedding_text=text)
            for sid, text in [("1", "banana"), ("2", "apple pie")]
        ]
        with SubprocessEmbedder(py(EMBED_WORKER), dim=3) as embedder:
            bundle = build_indices(segments, embedder)
        closes = []
        original = SubprocessEmbedder.close

        def counting_close(self):
            closes.append(self)
            original(self)

        monkeypatch.setattr(SubprocessEmbedder, "close", counting_close)
        for _ in range(3):
            retrieve("banana", bundle, RetrievalConfig())
        assert len(closes) == 3


ONE_SHOT_WORKER = """
import json, sys
sys.stdin.readline()
print(json.dumps({"vector": [1.0, 0.0, 0.0]}), flush=True)
"""

# Answers once, then waits out EOF on stdin without exiting.
EOF_IGNORING_WORKER = """
import json, sys, time
sys.stdin.readline()
print(json.dumps({"vector": [1.0, 0.0, 0.0]}), flush=True)
sys.stdin.read()
time.sleep(60)
"""


class TestWorkerPipes:
    def test_close_closes_both_pipes(self):
        embedder = SubprocessEmbedder(py(EMBED_WORKER), dim=3)
        embedder.embed("x")
        proc = embedder._proc
        embedder.close()
        assert proc.stdin.closed and proc.stdout.closed
        assert proc.returncode == 0

    def test_close_kills_a_worker_that_ignores_eof(self, monkeypatch):
        monkeypatch.setattr(plugins, "CLOSE_GRACE_S", 0.2)
        embedder = SubprocessEmbedder(py(EOF_IGNORING_WORKER), dim=3)
        embedder.embed("x")
        proc = embedder._proc
        start = time.monotonic()
        embedder.close()
        assert time.monotonic() - start < 5
        assert proc.returncode is not None and proc.returncode != 0  # killed and reaped
        assert proc.stdin.closed and proc.stdout.closed

    def test_close_after_the_worker_died_closes_both_pipes(self):
        embedder = SubprocessEmbedder([sys.executable, "-c", "pass"], dim=3)
        with pytest.raises(PluginError):
            embedder.embed("x")
        proc = embedder._proc
        proc.wait(timeout=10)
        embedder.close()
        assert proc.stdin.closed and proc.stdout.closed

    def test_replacing_a_dead_worker_closes_its_pipes(self):
        with SubprocessEmbedder(py(ONE_SHOT_WORKER), dim=3) as embedder:
            embedder.embed("x")
            first = embedder._proc
            first.wait(timeout=10)
            embedder.embed("y")
            assert embedder._proc is not first
            assert first.stdin.closed and first.stdout.closed


class TestSubprocessCaptioner:
    def test_describe(self):
        with SubprocessCaptioner(py(CAPTION_WORKER)) as captioner:
            assert captioner.describe("pinout.png", "context") == "image of pinout.png"
