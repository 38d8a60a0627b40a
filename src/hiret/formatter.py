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
from functools import cached_property, lru_cache
from itertools import compress, count
from operator import is_not
from typing import Protocol

from .corpus import IMAGE_LINE_RE, Segment

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"\S+")
_HEADING_RE = re.compile(r"^#\s+(\S+)(?:\s+(.*))?$")
_NUMBER_RE = re.compile(r"^\d+(\.\d+)*$")
_MD_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S+)(?:\s+(.*))?$")
_PLAIN_HEADING_RE = re.compile(r"^(\d+(?:\.\d+)*)[.)]?\s+(\S.*)$")
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks
_LINE_BREAK_RE = re.compile(f"[{_LINE_BREAKS}]")


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
    ``total`` are the 1-based turn number and turn count. ``reaches_end``
    is True when ``current_input`` runs to the end of the document. Two flags
    say what a window without padding does not show: ``starts_mid_line``
    that the first core word does not begin its line in the document (the
    line began in an earlier core, if only with indentation; never at the
    first turn), and ``ends_mid_line`` that the core's last line goes on
    past the core, to a word before any line break (never at the document
    end). A line break is any at which ``str.splitlines`` splits.
    """

    index: int
    total: int
    current_input: str
    previous_input: str
    previous_output: str
    core_start: int
    core_end: int
    reaches_end: bool = False
    starts_mid_line: bool = False
    ends_mid_line: bool = False

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


class HeadingPromotionConverter:
    """Rule-based default converter.

    Promotes markdown headings of any depth whose first token is a dotted
    number ("## 3.2 Title") and short plain numbered lines ("3.2 Title") to
    first-level ``# 3.2 Title`` headings; all other lines pass through.
    Lines end at every line break ``str.splitlines`` knows, as in
    :func:`parse_markdown`, and each break is kept as it is. Output covers
    exactly the core words, so conversion never drops or duplicates content.
    A line cut by the end of the core (``ConverterTurn.ends_mid_line``) is
    promoted when the right padding shows the whole line, up to its line
    break or the end of the document, and it is a heading; or, where the
    padding ends first, when its start is already a numbered markdown
    heading. This core emits the promoted start, the next core the rest of
    the line as it is. A core's first line passes through untransformed
    when it starts mid-line (``ConverterTurn.starts_mid_line``): it
    continues a line from the previous core, or it is indented, and an
    indented line is never a heading.
    """

    max_heading_words = 12

    def convert(self, turn: ConverterTurn) -> str:
        raw = turn.core_text.splitlines()
        lines = [self._transform(line) if line[:1] == "#" or line[:1].isdecimal() else line
                 for line in raw]  # both heading patterns start with "#" or \d, i.e. isdecimal
        if turn.ends_mid_line:
            lines[-1] = self._transform_start(raw[-1], turn)
        if turn.starts_mid_line:
            lines[0] = raw[0]
        pieces = turn.core_text.splitlines(keepends=True)
        for i in compress(count(), map(is_not, lines, raw)):  # a kept line is raw's own object
            pieces[i] = lines[i] + pieces[i][len(raw[i]):]  # the new line, then the old break
        return "".join(pieces)

    def _transform_start(self, start: str, turn: ConverterTurn) -> str:
        """Promoted form of ``start``, a line cut by the core end, when the
        whole line is a heading, or when the window ends before the line and
        ``start`` is a numbered markdown heading; ``start`` itself otherwise."""
        line_break = _LINE_BREAK_RE.search(turn.current_input, turn.core_end)
        if line_break:
            line_end = line_break.start()
        elif turn.reaches_end:
            line_end = len(turn.current_input)
        else:  # the padding ends before the line does; no title unmakes a markdown heading
            md = _MD_HEADING_RE.match(start)
            return self._transform(start) if md and _NUMBER_RE.match(md.group(2)) else start
        tail = turn.current_input[turn.core_end : line_end]
        whole = start + tail
        promoted = self._transform(whole)
        if promoted == whole:
            return start
        # Promotion keeps a heading's last words; the tail's go to the next core.
        starts = [word.start() for word in _WORD_RE.finditer(promoted)] + [len(promoted)]
        return promoted[: starts[-1 - count_words(tail)]].rstrip()

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
    return WindowPlan(window_size=window_size, padding=padding, total_words=total_words)


def count_words(text: str) -> int:
    """Number of whitespace-delimited tokens, the unit of window planning."""
    return len(text.split())  # the same whitespace test as _WORD_RE


@lru_cache(maxsize=64)
def _skip_words(m: int) -> re.Pattern[str]:
    """Matches the next ``m`` words from a word end or the start, none split; group 1: the last."""
    return re.compile(rf"\s*(?:\S+\s+){{{m - 1}}}(\S+)")


def convert_document(doc_text: str, converter: DocumentConverter, plan: WindowPlan) -> str:
    """Run the converter over every window in order and join the fragments.

    Turns are strictly sequential: each receives the previous turn's input
    and output. Fragments are joined with the whitespace that separates
    their cores in ``doc_text``, so a line cut by a core boundary comes out
    whole. On converter failure the raised ConversionError carries the turn
    number and the output assembled so far, for resumption.
    """
    edges = {i for t, (lo, hi) in enumerate(plan.spans, 1)  # the words whose offsets turns read
             for i in (lo, hi - 1, plan.core(t)[0], plan.core(t)[1] - 1)}
    starts, ends, pos, last = {}, {}, 0, -1
    for i in sorted(edges):  # skip ahead to each, with no Match for the words between
        if not (word := _skip_words(i - last).match(doc_text, pos)):
            break
        (starts[i], ends[i]), pos, last = word.span(1), word.end(), i
    if len(starts) < len(edges) or _WORD_RE.search(doc_text, pos):
        raise ValueError(f"plan covers {plan.total_words} words but document has "
                         f"{count_words(doc_text)}")

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
            reaches_end=span_end == plan.total_words,
            starts_mid_line=t > 1 and doc_text[core_lo - 1] not in _LINE_BREAKS,
            ends_mid_line=core_end < plan.total_words and _LINE_BREAK_RE.search(
                doc_text, core_hi, starts[core_end]) is None,
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


def _detect_kind(content: str) -> str:
    first = next((line.strip() for line in content.splitlines() if line.strip()), "")
    if first.startswith(("|", "Table:")):
        return "table"
    return "image" if IMAGE_LINE_RE.match(first) else "text"


def _finish_content(lines: list[str]) -> str:
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(line.rstrip() for line in lines)


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


def parse_markdown(
    markdown: str,
    doc_title: str,
    warnings: list[str] | None = None,
) -> list[Segment]:
    """Split structured markdown into one Segment per numbered heading.

    Headings are lines of the form ``# <dotted-number> <title>``. Lines
    before the first heading become a level-0 preamble segment titled with
    the document title, kept only when they hold text. A heading whose
    number token is not purely numeric is accepted at level 1, and a
    warning is recorded. A segment's id is ``preamble`` for the preamble
    and otherwise its chapter number; a number the document has already
    used takes the first free ``<number>+2``, ``<number>+3``, ….
    :class:`HeadingPromotionConverter` promotes a heading cut by a window
    boundary whole, on the document's last line too, so it arrives here
    as one line.
    """
    chunks: list[tuple[re.Match[str] | None, list[str]]] = [(None, [])]
    for line in markdown.splitlines():
        match = _HEADING_RE.match(line)
        if match:
            chunks.append((match, []))
        else:
            chunks[-1][1].append(line)

    segments: list[Segment] = []
    used_ids: dict[str, int] = {}
    for match, lines in chunks:
        content = _finish_content(lines)
        if match is None:  # the lines before the first heading
            if not content:
                continue
            number, level, title = "", 0, doc_title
        else:
            number, title = match.group(1), match.group(2) or ""
            if _NUMBER_RE.match(number):
                level = number.count(".") + 1
            else:
                level = 1
                message = (f"malformed heading number {number!r} in line {match.string!r}; "
                           "kept at level 1")
                log.warning(message)
                if warnings is not None:
                    warnings.append(message)
                title = title or number
            title = title.strip()
        segment_id = _unique_id(number or "preamble", used_ids)
        segments.append(Segment(segment_id=segment_id, chapter_number=number, level=level,
                                title=title, kind=_detect_kind(content), content=content))
    return segments
