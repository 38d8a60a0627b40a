"""Embedder plug-in worker for the `{"kind": "subprocess"}` line protocol.

Reads one ``{"text": ...}`` JSON object per line on stdin and answers
``{"vector": [...]}`` with the same signed feature-hashed bag of words as
``hiret.index.HashingEmbedder`` (blake2b bucket and sign per token, L2
normalized), written with the stdlib and numpy only, so an index built
through this worker ranks exactly like one built in-process.

Usage: ``python3 bench/embed_worker.py [DIM]`` (default 256).
"""

import hashlib
import json
import re
import sys

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def embed(text: str, dim: int) -> list[float]:
    vec = np.zeros(dim, dtype=np.float64)
    for token in _TOKEN_RE.findall(text):
        digest = hashlib.blake2b(token.casefold().encode("utf-8"), digest_size=5).digest()
        bucket = int.from_bytes(digest[:4], "little") % dim
        vec[bucket] += 1.0 if digest[4] & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec.tolist()


def main() -> None:
    dim = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    for line in sys.stdin:
        vector = embed(json.loads(line)["text"], dim)
        sys.stdout.write(json.dumps({"vector": vector}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
