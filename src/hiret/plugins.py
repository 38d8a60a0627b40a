"""Out-of-process plug-in adapters speaking line-delimited JSON.

Each adapter spawns a long-lived worker process and exchanges one JSON
object per line over its standard I/O: the request is ``{"text": ...}``
and the response carries ``{"vector": [...]}`` or ``{"caption": "..."}``
depending on the plug-in role. Workers that cannot start, exit or answer
with malformed JSON raise PluginError.
"""

from __future__ import annotations

import json
import subprocess
from typing import Sequence

import numpy as np


class PluginError(Exception):
    """A plug-in subprocess died or returned an invalid response."""


class _LineProtocolClient:
    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._proc: subprocess.Popen | None = None

    def _ensure_started(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is not None:
            self.close()  # the worker died; its pipes are still open
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as exc:
                raise PluginError(f"plug-in {self.command!r} cannot start: {exc}") from exc
        return self._proc

    def request(self, text: str) -> dict:
        proc = self._ensure_started()
        assert proc.stdin is not None and proc.stdout is not None
        try:
            proc.stdin.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise PluginError(f"plug-in {self.command!r} pipe failure: {exc}") from exc
        if not line:
            raise PluginError(f"plug-in {self.command!r} closed its output stream")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise PluginError(f"plug-in {self.command!r} sent invalid JSON: {line!r}") from exc
        if not isinstance(response, dict):
            raise PluginError(f"plug-in {self.command!r} must answer a JSON object")
        return response

    def close(self) -> None:
        """End the worker (EOF on its stdin) and close both pipes."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:  # flushing into a worker that already exited
            pass
        try:
            proc.wait(timeout=10)
        finally:
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()


class SubprocessEmbedder(_LineProtocolClient):
    """Embedder backed by a worker answering {"vector": [...]}."""

    def __init__(self, command: Sequence[str], dim: int):
        super().__init__(command)
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        response = self.request(text)
        vector = response.get("vector")
        if (not isinstance(vector, list) or len(vector) != self.dim
                or not set(map(type, vector)) <= {int, float}):  # bool is not a number here
            raise PluginError(f"plug-in {self.command!r} must answer a {self.dim}-component "
                              "'vector' of JSON numbers")
        return np.asarray(vector, dtype=np.float64)

    def spec(self) -> dict:
        return {"kind": "subprocess", "command": self.command, "dim": self.dim}


class SubprocessCaptioner(_LineProtocolClient):
    """Captioner backed by a worker answering {"caption": "..."}."""

    def describe(self, file_ref: str, context: str) -> str:
        response = self.request(f"{file_ref}\n{context}")
        caption = response.get("caption")
        if not isinstance(caption, str):
            raise PluginError("captioner plug-in must answer a 'caption' string")
        return caption
