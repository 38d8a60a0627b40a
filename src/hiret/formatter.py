"""Sliding-window document conversion and structural markdown parsing.

Long documents are converted to structured markdown in fixed word-count
windows. Each window carries extra padding on both sides so the converter
can see across window boundaries, and each turn also receives the previous
turn's input and output for calibration. Only the unpadded core of each
window may contribute to the assembled output, so the cores tile the
document exactly once.

The converter itself is pluggable; the shipped default is a rule-based
pass that promotes existing markdown or numbered headings to the
``# <dotted-number> <title>`` form the parser expects.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from typing import Protocol

from .corpus import Segment

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\S+")
_HEADING_RE = re.compile(r"^#\s+(\S+)(?:\s+(.*))?$")
_NUMBER_RE = re.compile(r"^\d+(\.\d+)*$")
_MD_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S+)(?:\s+(.*))?$")
_PLAIN_HEADING_RE = re.compile(r"^(\d+(?:\.\d+)*)[.)]?\s+(\S.*)$")
_IMAGE_LINE_RE = re.compile(r"^!\[[^\]]*\]\([^)]*\)\s*$")


class ConversionError(Exception):
    """Converter failure; carries the failing turn and the partial output."""

    def __init__(self, turn: int, partial_output: str, cause: str):
        super().__init__(f"conversion failed at turn {turn}: {cause}")
        self.turn = turn
        self.partial_output = partial_output


@dataclass(frozen=True)
class WindowPlan:
    """Schedule of padded word-index spans covering a document.

    Turn t (1-based) sees words [max(0, (t-1)*W - K), min(N, t*W + K));
    its unpadded core is [(t-1)*W, min(N, t*W)). The cores tile [0, N).
    """

    window_size: int
    padding: int
    total_words: int
    spans: tuple[tuple[int, int], ...]
    iterations: int

    def core(self, turn: int) -> tuple[int, int]:
        """Unpadded word range owned by 1-based ``turn``."""
        if not 1 <= turn <= self.iterations:
            raise ValueError(f"turn {turn} outside 1..{self.iterations}")
        start = (turn - 1) * self.window_size
        return start, min(self.total_words, turn * self.window_size)


@dataclass(frozen=True)
class ConverterTurn:
    """One converter request: the current window plus last turn's pair.

    ``previous_input``/``previous_output`` are exactly the prior turn's
    values (empty strings at the first turn). ``core_start``/``core_end``
    are character offsets of the unpadded core within ``current_input``;
    the returned fragment must cover only that core region. ``index`` and
    ``total`` are the 1-based turn number and turn count.
    """

    index: int
    total: int
    current_input: str
    previous_input: str
    previous_output: str
    core_start: int
    core_end: int

    @property
    def core_text(self) -> str:
        return self.current_input[self.core_start : self.core_end]

    def core_starts_mid_line(self) -> bool:
        """True when the first core word continues a line begun earlier."""
        gap = self.current_input[: self.core_start]
        if not gap:
            return self.index > 1  # no left padding to inspect
        for ch in reversed(gap):
            if ch == "\n":
                return False
            if not ch.isspace():
                return True
        return self.index > 1

    def core_ends_mid_line(self) -> bool:
        """True when the last core line continues past the core boundary."""
        rest = self.current_input[self.core_end :]
        if not rest:
            return self.index < self.total  # no right padding to inspect
        for ch in rest:
            if ch == "\n":
                return False
            if not ch.isspace():
                return True
        return self.index < self.total


class DocumentConverter(Protocol):
    """Turns one windowed request into a markdown fragment."""

    def convert(self, turn: ConverterTurn) -> str: ...


class IdentityConverter:
    """Echoes the core of each window unchanged."""

    def convert(self, turn: ConverterTurn) -> str:
        return turn.core_text


class HeadingPromotionConverter:
    """Rule-based default converter.

    Promotes markdown headings of any depth whose first token is a dotted
    number ("## 3.2 Title") and short plain numbered lines ("3.2 Title") to
    first-level ``# 3.2 Title`` headings; all other lines pass through.
    Output covers exactly the core words, so conversion never drops or
    duplicates content. A line cut by the end of the core is promoted when
    the right padding shows the whole line and it is a heading: this core
    emits the promoted start, the next core the rest of the line as it is.
    A line continued from the previous core passes through untransformed.
    """

    max_heading_words = 12

    def convert(self, turn: ConverterTurn) -> str:
        lines = turn.core_text.split("\n")
        first_partial = turn.core_starts_mid_line()
        last_partial = turn.core_ends_mid_line()
        out: list[str] = []
        last = len(lines) - 1
        for i, line in enumerate(lines):
            if i == 0 and first_partial:
                out.append(line)
            elif i == last and last_partial:
                out.append(self._transform_start(line, turn))
            else:
                out.append(self._transform(line))
        return "\n".join(out)

    def _transform_start(self, start: str, turn: ConverterTurn) -> str:
        """Promoted form of ``start``, a line cut by the core end, when the
        whole line is a heading; ``start`` itself otherwise."""
        line_end = turn.current_input.find("\n", turn.core_end)
        if line_end < 0:
            return start  # the padding ends before the line does
        tail = turn.current_input[turn.core_end : line_end]
        whole = start + tail
        promoted = self._transform(whole)
        rest = tail.strip()
        if promoted == whole or not promoted.endswith(rest):
            return start
        return promoted[: len(promoted) - len(rest)].rstrip()

    def _transform(self, line: str) -> str:
        md = _MD_HEADING_RE.match(line)
        if md and _NUMBER_RE.match(md.group(2)):
            title = md.group(3) or ""
            return f"# {md.group(2)} {title}".rstrip()
        plain = _PLAIN_HEADING_RE.match(line)
        if plain and self._looks_like_heading(plain.group(2)):
            return f"# {plain.group(1)} {plain.group(2).strip()}"
        return line

    def _looks_like_heading(self, title: str) -> bool:
        words = title.split()
        return 0 < len(words) <= self.max_heading_words and not title.rstrip().endswith(
            (".", ",", ";", ":")
        )


def plan_windows(total_words: int, window_size: int, padding: int = 0) -> WindowPlan:
    """Build the sliding-window schedule for a document of ``total_words``."""
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if total_words < 0:
        raise ValueError(f"total_words must be >= 0, got {total_words}")

    iterations = math.ceil(total_words / window_size)
    spans = tuple(
        (
            max(0, (t - 1) * window_size - padding),
            min(total_words, t * window_size + padding),
        )
        for t in range(1, iterations + 1)
    )
    return WindowPlan(
        window_size=window_size,
        padding=padding,
        total_words=total_words,
        spans=spans,
        iterations=iterations,
    )


def count_words(text: str) -> int:
    """Number of whitespace-delimited tokens, the unit of window planning."""
    return len(_WORD_RE.findall(text))


def convert_document(doc_text: str, converter: DocumentConverter, plan: WindowPlan) -> str:
    """Run the converter over every window in order and join the fragments.

    Turns are strictly sequential: each receives the previous turn's input
    and output. Fragments are joined with the whitespace that separates
    their cores in ``doc_text``, so a line cut by a core boundary comes out
    whole. On converter failure the raised ConversionError carries the turn
    number and the output assembled so far, for resumption.
    """
    words = list(_WORD_RE.finditer(doc_text))
    if len(words) != plan.total_words:
        raise ValueError(
            f"plan covers {plan.total_words} words but document has {len(words)}"
        )
    if plan.iterations == 0:
        return ""

    parts: list[str] = []
    previous_input = ""
    previous_output = ""
    for t in range(1, plan.iterations + 1):
        span_start, span_end = plan.spans[t - 1]
        core_start, core_end = plan.core(t)
        window_lo = words[span_start].start()
        window_hi = words[span_end - 1].end()
        turn = ConverterTurn(
            index=t,
            total=plan.iterations,
            current_input=doc_text[window_lo:window_hi],
            previous_input=previous_input,
            previous_output=previous_output,
            core_start=words[core_start].start() - window_lo,
            core_end=words[core_end - 1].end() - window_lo,
        )
        try:
            fragment = converter.convert(turn)
        except Exception as exc:
            raise ConversionError(t, "".join(parts), str(exc)) from exc
        if t > 1:
            parts.append(doc_text[words[core_start - 1].end() : words[core_start].start()])
        parts.append(fragment)
        previous_input = turn.current_input
        previous_output = fragment
    return "".join(parts)


def _detect_kind(content: str) -> str:
    for line in content.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("|") or stripped.startswith("Table:"):
            return "table"
        if _IMAGE_LINE_RE.match(stripped):
            return "image"
        return "text"
    return "text"


def _finish_content(lines: list[str]) -> str:
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(line.rstrip() for line in lines)


def parse_markdown(
    markdown: str,
    doc_title: str,
    warnings: list[str] | None = None,
) -> list[Segment]:
    """Split structured markdown into one Segment per numbered heading.

    Headings are lines of the form ``# <dotted-number> <title>``. Lines
    before the first heading become a level-0 preamble segment titled with
    the document title. A heading whose number token is not purely numeric
    is accepted at level 1, and a warning is recorded.
    """
    segments: list[Segment] = []
    seen_ids: dict[str, int] = {}
    current_lines: list[str] = []
    current: Segment | None = None

    def unique_id(base: str) -> str:
        n = seen_ids.get(base, 0) + 1
        seen_ids[base] = n
        return base if n == 1 else f"{base}+{n}"

    def close_current() -> None:
        if current is None:
            if any(line.strip() for line in current_lines):
                content = _finish_content(current_lines)
                segments.append(
                    Segment(
                        segment_id=unique_id("preamble"),
                        chapter_number="",
                        level=0,
                        title=doc_title,
                        kind=_detect_kind(content),
                        content=content,
                    )
                )
            return
        current.content = _finish_content(current_lines)
        current.kind = _detect_kind(current.content)
        segments.append(current)

    for line in markdown.splitlines():
        match = _HEADING_RE.match(line)
        if not match:
            current_lines.append(line)
            continue
        close_current()
        current_lines = []
        number, title = match.group(1), match.group(2) or ""
        if _NUMBER_RE.match(number):
            level = number.count(".") + 1
        else:
            level = 1
            message = f"malformed heading number {number!r} in line {line!r}; kept at level 1"
            log.warning(message)
            if warnings is not None:
                warnings.append(message)
            if not title:
                title = number
        current = Segment(
            segment_id=unique_id(number),
            chapter_number=number,
            level=level,
            title=title.strip(),
            kind="text",
            content="",
        )
    close_current()
    return segments
