"""Sliding-window document conversion and structural markdown parsing.

A pluggable converter with a bounded context (e.g. an LLM bridge) sees a
document in fixed word-count windows. Each window carries extra padding on both
sides so the converter can see across window boundaries, and each turn also
receives the previous turn's input and output for calibration. Only the unpadded
core of each window may contribute to the assembled output, so the cores tile
the document exactly once; :class:`IdentityConverter`'s cores join back to the
text from its first word to its last. The CLI converts nothing: it hands each
document's stripped text to :func:`parse_markdown`, which splits it at every
numbered heading.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

from .corpus import IMAGE_LINE_RE, Segment

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\S+")  # \s holds exactly the code points str.isspace() does
_NUMBER_RE = re.compile(r"^\d+(\.\d+)*$")
_MD_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S+)(?:\s+(.*))?$")
_PLAIN_HEADING_RE = re.compile(r"^(\d+(?:\.\d+)*)[.)]?\s+(\S.*)$")
_MAX_HEADING_WORDS = 12  # a longer plain numbered line is a sentence, not a heading


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

    @property
    def iterations(self) -> int:
        return math.ceil(self.total_words / self.window_size)

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Padded word range seen by each turn, in turn order."""
        w, k, n = self.window_size, self.padding, self.total_words
        return tuple((max(0, t * w - k), min(n, (t + 1) * w + k)) for t in range(self.iterations))

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
    ``total`` are the 1-based turn number and turn count. A core starts
    and ends at a word, so it may cut a line; :func:`convert_document`
    joins the fragments with the whitespace between the cores.
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


class DocumentConverter(Protocol):
    """Turns one windowed request into a markdown fragment."""

    def convert(self, turn: ConverterTurn) -> str: ...


class IdentityConverter:
    """Echoes the core of each window unchanged."""

    def convert(self, turn: ConverterTurn) -> str:
        return turn.core_text


def _heading(line: str) -> tuple[str, str] | None:
    """The number and title of ``line`` when it is a heading: a markdown heading of any
    depth whose first token is a dotted number ("## 3.2 Title"), a short plain numbered
    line ("3.2 Title"), or a ``#`` heading whose first token is no number. An indented
    line is never a heading."""
    md = _MD_HEADING_RE.match(line)
    if md and (md.group(1) == "#" or _NUMBER_RE.match(md.group(2))):
        return md.group(2), md.group(3) or ""
    plain = _PLAIN_HEADING_RE.match(line)  # a title of \S.*: at least one word
    if plain and len(plain.group(2).split()) <= _MAX_HEADING_WORDS and not (
            plain.group(2).rstrip().endswith((".", ",", ";", ":"))):
        return plain.group(1), plain.group(2)
    return None


def plan_windows(total_words: int, window_size: int, padding: int = 0) -> WindowPlan:
    """Build the sliding-window schedule for a document of ``total_words``."""
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if total_words < 0:
        raise ValueError(f"total_words must be >= 0, got {total_words}")
    return WindowPlan(window_size=window_size, padding=padding, total_words=total_words)


def _word_bounds(text: str) -> list[int]:
    """The start and end offset of each whitespace-delimited word of ``text``, in
    turn: word ``i`` is ``text[bounds[2 * i]:bounds[2 * i + 1]]``, as ``str.split()``
    cuts it."""
    return [offset for word in _WORD_RE.finditer(text) for offset in word.span()]


def count_words(text: str) -> int:
    """Number of whitespace-delimited tokens, the unit of window planning: the words
    ``str.split()`` cuts, each of which :func:`_word_bounds` finds as one run of ``\\S``."""
    return len(text.split())


def convert_document(doc_text: str, converter: DocumentConverter, plan: WindowPlan) -> str:
    """Run the converter over every window in order and join the fragments.

    Turns are strictly sequential: each receives the previous turn's input
    and output. Fragments are joined with the whitespace that separates
    their cores in ``doc_text``, so a line cut by a core boundary comes out
    whole. On converter failure the raised ConversionError carries the turn
    number and the output assembled so far, for resumption. The plan must count
    the words as :func:`count_words` does.
    """
    bounds = _word_bounds(doc_text)
    starts, ends = bounds[0::2], bounds[1::2]  # word i is doc_text[starts[i]:ends[i]]
    if plan.total_words != len(starts):
        raise ValueError(f"plan covers {plan.total_words} words but document has "
                         f"{len(starts)}")

    parts: list[str] = []
    previous_input = previous_output = ""
    for t, (span_start, span_end) in enumerate(plan.spans, 1):
        core_start, core_end = plan.core(t)
        window_lo, core_lo = starts[span_start], starts[core_start]
        window_hi, core_hi = ends[span_end - 1], ends[core_end - 1]
        turn = ConverterTurn(
            index=t,
            total=plan.iterations,
            current_input=doc_text[window_lo:window_hi],
            previous_input=previous_input,
            previous_output=previous_output,
            core_start=core_lo - window_lo,
            core_end=core_hi - window_lo,
        )
        try:
            fragment = converter.convert(turn)
        except Exception as exc:
            raise ConversionError(t, "".join(parts), str(exc)) from exc
        if t > 1:
            parts.append(doc_text[ends[core_start - 1] : core_lo])
        parts.append(fragment)
        previous_input, previous_output = turn.current_input, fragment
    return "".join(parts)


def _finish_content(lines: list[str]) -> tuple[str, str]:
    """The content of a segment's right-stripped ``lines``, and its kind, read off its
    first non-blank line."""
    while lines and not lines[-1]:
        lines.pop()
    first = next(filter(None, lines), "").lstrip()
    kind = ("table" if first.startswith(("|", "Table:"))
            else "image" if IMAGE_LINE_RE.match(first) else "text")
    return "\n".join(lines), kind


def _unique_id(base: str, used: dict[str, int]) -> str:
    """``base`` when the document has no such id yet, else the first free
    ``base+n`` for n = 2, 3, …. ``used`` maps each id taken to the first n
    a repeat of it has not tried, so every id is unique and found once."""
    segment_id, n = base, used.get(base, 2)
    while segment_id in used:
        segment_id, n = f"{base}+{n}", n + 1
    used[base] = n
    used.setdefault(segment_id, 2)
    return segment_id


def parse_markdown(markdown: str, doc_title: str) -> list[Segment]:
    """Split structured markdown into one Segment per numbered heading.

    A heading is a ``# <dotted-number> <title>`` line, a markdown heading of any
    depth whose first token is a dotted number, or a short plain numbered line
    (``3.2 <title>``). Lines before the first heading become a level-0 preamble
    segment titled with the document title, kept only when they hold text. A
    ``#`` heading whose number token is not purely numeric is accepted at level
    1, and a warning is logged. A segment's id is ``preamble`` for the preamble
    and otherwise its chapter number; a number the document has already used
    takes the first free ``<number>+2``, ``<number>+3``, ….
    """
    lines: list[str] = []
    chunks: list[tuple[tuple[str, str, str] | None, list[str]]] = [(None, lines)]
    for line in markdown.splitlines():  # both heading patterns start with "#" or a digit
        if (line[:1] == "#" or line[:1].isdecimal()) and (heading := _heading(line)):
            chunks.append(((*heading, line), lines := []))
        else:
            lines.append(line.rstrip())

    segments: list[Segment] = []
    used_ids: dict[str, int] = {}
    for heading, lines in chunks:
        content, kind = _finish_content(lines)
        if heading is None:  # the lines before the first heading
            if not content:
                continue
            number, level, title = "", 0, doc_title
        else:
            number, title, line = heading
            if _NUMBER_RE.match(number):
                level = number.count(".") + 1
            else:
                level = 1
                log.warning("malformed heading number %r in line %r; kept at level 1",
                            number, line)
                title = title or number
            title = title.strip()
        segment_id = _unique_id(number or "preamble", used_ids)
        segments.append(Segment(segment_id=segment_id, chapter_number=number, level=level,
                                title=title, kind=kind, content=content))
    return segments
