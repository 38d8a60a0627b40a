import logging
import random
import re
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiret.corpus import IMAGE_LINE_RE, Segment
from hiret.formatter import (
    _MD_HEADING_RE,
    _PLAIN_HEADING_RE,
    _unique_id,
    _word_bounds,
)
from hiret.formatter import (
    ConversionError,
    ConverterTurn,
    IdentityConverter,
    convert_document,
    count_words,
    parse_markdown,
    plan_windows,
)


def words_of(text):
    return text.split()


@contextmanager
def logged_warnings():
    """The messages of the warnings hiret.formatter logs inside the block. A
    hypothesis test runs many examples per call, so it cannot use caplog."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("hiret.formatter")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


# Every str.isspace() code point, the whitespace str.split() cuts at, and look-alikes that are not.
_SPACES = [*filter(str.isspace, map(chr, range(sys.maxunicode + 1)))]
_NOT_SPACES = ["\u200b", "\u180e", "\ufeff", "\u2060", "a", "\u00e9", "#"]


# Heading markers, chapter numbers and words, with and without heading-breaking punctuation.
_CONVERTER_TOKENS = ["#", "##", "###", "1", "3.2", "1.1.4", "2)", "4.", "3.x", "alpha", "ratings",
                     "volts.", "x,", "|", "![p](p.png)", "\u200b"]
# What follows a token on its line: nothing (the next token joins it) or horizontal whitespace.
_GAPS = ["", " ", " ", "  ", "\t", "\xa0", "\u3000", "\x1f"]


# parse_markdown input: every str.splitlines line break, and lines tagged with their
# heading's (number, title) (None for a body or blank line). No body line starts with "#"
# and a space. A heading with an empty title and a malformed number is titled by its number.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029"]
_LINE_BREAK_CHARS = sorted(set("".join(_LINE_BREAKS)))
_H_SPACES = [" ", "\t", "\xa0", "\u3000", "\x1f"]
_WELL_FORMED_NUMBERS = ["1", "2", "3.2", "1.1.4", "10"]
_PARSE_HEADINGS = st.builds(
    lambda gap, number, title: (
        (number, title.strip() or ("" if number in _WELL_FORMED_NUMBERS else number)),
        f"#{gap}{number}{title}"),
    st.sampled_from(_H_SPACES),
    st.sampled_from(_WELL_FORMED_NUMBERS + ["3.x", "A", "1.", "1..2", "1+2", "1+3", "2+2", "1+2+2",
                                            "preamble"]),
    st.sampled_from(["", " ", " Title", "\tA  b ", "\u3000x"]),
)
_PARSE_BODIES = st.builds(
    lambda lead, words, trail: (None, lead + " ".join(words) + trail),
    st.sampled_from(["", " ", "\t", "\xa0"]),
    st.lists(st.sampled_from(["alpha", "|", "5", "##", "#x", "## 3.2", "Table:", "\u200b",
                              "![p](p.png)"]), min_size=1, max_size=4),
    st.sampled_from(["", " ", "\t", "\x1f"]),
)
_PARSE_BLANKS = st.sampled_from(["", " ", "\t", "\xa0 ", "\u3000"]).map(lambda line: (None, line))


class RecordingConverter:
    """Echoes cores while keeping every turn for inspection."""

    def __init__(self):
        self.turns = []

    def convert(self, turn: ConverterTurn) -> str:
        self.turns.append(turn)
        return turn.core_text


def word_list_conversion(text, plan):
    """The output and the turns of an echoing conversion, every offset read off the
    full list of ``\\S+`` matches: the oracle for the converter's word location."""
    words = list(re.finditer(r"\S+", text))
    assert len(words) == plan.total_words
    parts, turns, previous_input, previous_output = [], [], "", ""
    for t in range(1, plan.iterations + 1):
        span_start, span_end = plan.spans[t - 1]
        core_start, core_end = plan.core(t)
        window_lo, core_lo = words[span_start].start(), words[core_start].start()
        window_hi, core_hi = words[span_end - 1].end(), words[core_end - 1].end()
        turn = ConverterTurn(
            index=t, total=plan.iterations, current_input=text[window_lo:window_hi],
            previous_input=previous_input, previous_output=previous_output,
            core_start=core_lo - window_lo, core_end=core_hi - window_lo,
        )
        turns.append(turn)
        if t > 1:
            parts.append(text[words[core_start - 1].end():core_lo])
        parts.append(turn.core_text)
        previous_input, previous_output = turn.current_input, turn.core_text
    return "".join(parts), turns


# Whitespace around and between words: every line break, no-break and ideographic spaces, tabs.
_WINDOW_SPACES = [*_LINE_BREAK_CHARS, "\xa0", "\u3000", "\t", " ", "\x1f", "\u2009"]
_WINDOW_TEXTS = st.builds(
    lambda lead, body, trail: lead + body + trail,
    st.text(st.sampled_from(_WINDOW_SPACES), max_size=3),
    st.one_of(st.text(), st.text(st.sampled_from(_WINDOW_SPACES + _NOT_SPACES + ["1", ".", "é"])),
              st.text(st.sampled_from(_WINDOW_SPACES))),  # the last: no words at all
    st.text(st.sampled_from(_WINDOW_SPACES), max_size=3),
)


class FailingConverter:
    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def convert(self, turn: ConverterTurn) -> str:
        self.calls += 1
        if turn.index == self.fail_at:
            raise RuntimeError("backend unavailable")
        return turn.core_text


class TestPlanWindows:
    def test_worked_example(self):
        plan = plan_windows(1000, 400, 50)
        assert plan.iterations == 3
        assert plan.spans == ((0, 450), (350, 850), (750, 1000))

    def test_document_shorter_than_window(self):
        plan = plan_windows(300, 400, 50)
        assert plan.iterations == 1
        assert plan.spans == ((0, 300),)

    def test_empty_document(self):
        plan = plan_windows(0, 400, 50)
        assert plan.iterations == 0
        assert plan.spans == ()

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="window_size"):
            plan_windows(100, 0, 10)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            plan_windows(100, 10, -1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 5000), w=st.integers(1, 600), k=st.integers(0, 200))
    def test_cores_tile_document_exactly(self, n, w, k):
        plan = plan_windows(n, w, k)
        covered = []
        for t in range(1, plan.iterations + 1):
            lo, hi = plan.core(t)
            assert lo < hi
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_spans_clip_at_boundaries(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randrange(1, 2000)
            w = rng.randrange(1, 300)
            k = rng.randrange(0, 100)
            plan = plan_windows(n, w, k)
            for t, (lo, hi) in enumerate(plan.spans, start=1):
                assert lo == max(0, (t - 1) * w - k)
                assert hi == min(n, t * w + k)


class TestConvertDocument:
    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(st.text(), st.text(st.sampled_from(_SPACES + _NOT_SPACES + ["\ud800"]))))
    def test_count_words_is_the_word_pattern_count(self, text):
        assert count_words(text) == len(re.findall(r"\S+", text)) == len(text.split())
        bounds = _word_bounds(text).tolist()  # the words' offsets cut out str.split()'s words
        assert [text[lo:hi] for lo, hi in zip(bounds[0::2], bounds[1::2])] == text.split()
        # A plan from count_words passes convert_document's own word check.
        convert_document(text, IdentityConverter(), plan_windows(count_words(text), 3, 1))

    def test_the_whitespace_is_exactly_str_isspace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))  # each code point once
        bounds = _word_bounds(every).tolist()
        in_words = "".join(every[lo:hi] for lo, hi in zip(bounds[0::2], bounds[1::2]))
        outside = set(map(ord, every)) - set(map(ord, in_words))
        assert outside == {c for c in range(sys.maxunicode + 1) if chr(c).isspace()}

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), st.text(st.sampled_from(_SPACES + _NOT_SPACES))),
           w=st.integers(1, 12), k=st.integers(0, 12))
    def test_identity_keeps_the_word_sequence_for_any_text_and_plan(self, text, w, k):
        out = convert_document(text, IdentityConverter(), plan_windows(count_words(text), w, k))
        assert words_of(out) == words_of(text)

    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(st.text(), st.text(st.sampled_from(_SPACES + _NOT_SPACES)),
                          st.text(st.sampled_from(_SPACES))),  # the last: no words at all
           w=st.integers(1, 12), k=st.integers(0, 12))
    def test_identity_gives_the_text_from_its_first_word_to_its_last(self, text, w, k):
        plan = plan_windows(count_words(text), w, k)
        assert convert_document(text, IdentityConverter(), plan) == text.strip()

    def test_identity_is_word_exact_without_padding(self):
        text = " ".join(f"w{i}" for i in range(997))
        plan = plan_windows(count_words(text), 100, 0)
        out = convert_document(text, IdentityConverter(), plan)
        assert words_of(out) == words_of(text)

    def test_identity_is_word_exact_with_padding(self):
        text = "\n".join(f"line {i} alpha beta" for i in range(200))
        plan = plan_windows(count_words(text), 64, 16)
        out = convert_document(text, IdentityConverter(), plan)
        assert words_of(out) == words_of(text)

    def test_single_heading_prefix_appears_once(self):
        class PrefixOnce:
            def convert(self, turn):
                prefix = "# 1 X\n" if turn.index == 1 else ""
                return prefix + turn.core_text

        text = " ".join(f"w{i}" for i in range(500))
        plan = plan_windows(500, 100, 20)
        out = convert_document(text, PrefixOnce(), plan)
        headings = [line for line in out.splitlines() if line.startswith("# ")]
        assert headings == ["# 1 X"]

    def test_turns_chain_previous_input_and_output(self):
        text = " ".join(f"w{i}" for i in range(250))
        plan = plan_windows(250, 100, 10)
        converter = RecordingConverter()
        convert_document(text, converter, plan)
        assert len(converter.turns) == 3
        first, second, third = converter.turns
        assert first.previous_input == "" and first.previous_output == ""
        assert second.previous_input == first.current_input
        assert second.previous_output == first.core_text
        assert third.previous_output == second.core_text

    def test_padded_windows_overlap_cores(self):
        text = " ".join(f"w{i}" for i in range(300))
        plan = plan_windows(300, 100, 25)
        converter = RecordingConverter()
        convert_document(text, converter, plan)
        middle = converter.turns[1]
        window_words = words_of(middle.current_input)
        core_words = words_of(middle.core_text)
        assert window_words[:25] == [f"w{i}" for i in range(75, 100)]
        assert core_words == [f"w{i}" for i in range(100, 200)]

    def test_failure_carries_turn_and_partial_output(self):
        text = " ".join(f"w{i}" for i in range(300))
        plan = plan_windows(300, 100, 0)
        converter = FailingConverter(fail_at=3)
        with pytest.raises(ConversionError) as err:
            convert_document(text, converter, plan)
        assert err.value.turn == 3
        assert words_of(err.value.partial_output) == [f"w{i}" for i in range(200)]

    @settings(max_examples=400, deadline=None)
    @given(text=_WINDOW_TEXTS, w=st.integers(1, 8),
           k=st.one_of(st.just(0), st.integers(1, 3), st.integers(8, 12)))  # 8+: k >= w
    def test_turns_and_output_match_the_full_word_list(self, text, w, k):
        plan = plan_windows(count_words(text), w, k)
        converter = RecordingConverter()
        output = convert_document(text, converter, plan)
        assert (output, converter.turns) == word_list_conversion(text, plan)

    def test_plan_and_text_must_agree(self):
        plan = plan_windows(10, 5, 0)
        with pytest.raises(ValueError, match="words"):
            convert_document("just three words", IdentityConverter(), plan)

    # One word, a text of none, and texts whose words a skip that split them could stretch:
    # a window of 5 or 8 skips several words at once to the end of the last core.
    _MISCOUNTED = ["abc", "", " \u3000\n", "just three words", "\ta\xa0bb\u2028ccc ",
                   " ".join(f"w{i}" for i in range(40))]

    @pytest.mark.parametrize("text", _MISCOUNTED)
    @pytest.mark.parametrize("w, k", [(1, 0), (2, 1), (3, 5), (5, 0), (8, 2)])
    def test_a_plan_of_one_word_too_many_is_refused(self, text, w, k):
        n = count_words(text)
        with pytest.raises(ValueError, match=f"^plan covers {n + 1} words but document has {n}$"):
            convert_document(text, IdentityConverter(), plan_windows(n + 1, w, k))

    @pytest.mark.parametrize("text", [text for text in _MISCOUNTED if count_words(text)])
    @pytest.mark.parametrize("w, k", [(1, 0), (2, 1), (3, 5), (5, 0), (8, 2)])
    def test_a_plan_of_one_word_too_few_is_refused(self, text, w, k):
        n = count_words(text)
        with pytest.raises(ValueError, match=f"^plan covers {n - 1} words but document has {n}$"):
            convert_document(text, IdentityConverter(), plan_windows(n - 1, w, k))

    def test_empty_document_converts_to_empty(self):
        plan = plan_windows(0, 5, 2)
        assert convert_document("", IdentityConverter(), plan) == ""


class TestHeadingPromotionConverter:
    """The shipped conversion: the cores echoed and joined, then parse_markdown, which
    reads every numbered heading form."""

    def run(self, text, window=50, padding=10):
        plan = plan_windows(count_words(text), window, padding)
        return parse_markdown(convert_document(text, IdentityConverter(), plan), "doc")

    def test_promotes_deep_markdown_headings(self):
        (seg,) = self.run("## 3.2 Electrical Characteristics\nVcc = 5V")
        assert (seg.chapter_number, seg.level, seg.title, seg.content) == (
            "3.2", 2, "Electrical Characteristics", "Vcc = 5V")

    def test_promotes_plain_numbered_headings(self):
        (seg,) = self.run("1.2 Supply Pins\nbody text follows here")
        assert (seg.chapter_number, seg.level, seg.title, seg.content) == (
            "1.2", 2, "Supply Pins", "body text follows here")

    def test_keeps_existing_level_one_headings(self):
        (seg,) = self.run("# 4 Specs\ncontent")
        assert (seg.chapter_number, seg.level, seg.title) == ("4", 1, "Specs")

    def test_ignores_sentences_starting_with_numbers(self):
        line = "5 volts is applied to the rail, then the driver settles."
        (seg,) = self.run(line)
        assert (seg.segment_id, seg.content) == ("preamble", line)

    def test_ignores_unnumbered_headings(self):
        (seg,) = self.run("## Introduction\nbody")
        assert (seg.segment_id, seg.content) == ("preamble", "## Introduction\nbody")

    @pytest.mark.parametrize("body_words", [394, 395, 396])
    def test_heading_cut_by_core_boundary_stays_whole(self, body_words):
        # the 400-word core boundary falls after "electrical", "3.2" or "#"
        body = [f"b{i}" for i in range(body_words)]
        lines = ["# 1 introduction"]
        lines += [" ".join(body[i : i + 10]) for i in range(0, body_words, 10)]
        lines += ["# 3.2 electrical ratings", "vcc is five volts"]
        segments = self.run("\n".join(lines), window=400, padding=50)
        assert [(s.segment_id, s.title) for s in segments] == [
            ("1", "introduction"),
            ("3.2", "electrical ratings"),
        ]
        assert segments[1].content == "vcc is five volts"

    @pytest.mark.parametrize(
        "heading, body_words",
        [("## 3.2 electrical ratings", n) for n in (394, 395, 396)]
        + [("3.2 electrical ratings", n) for n in (395, 396)],
    )
    def test_noncanonical_heading_cut_by_core_boundary_is_promoted(self, heading, body_words):
        # the 400-word core boundary falls inside the heading line
        body = [f"b{i}" for i in range(body_words)]
        lines = ["# 1 introduction"]
        lines += [" ".join(body[i : i + 10]) for i in range(0, body_words, 10)]
        lines += [heading, "vcc is five volts"]
        segments = self.run("\n".join(lines), window=400, padding=50)
        assert [(s.segment_id, s.title) for s in segments] == [
            ("1", "introduction"),
            ("3.2", "electrical ratings"),
        ]
        assert segments[1].content == "vcc is five volts"

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_heading_on_the_last_line_cut_by_a_core_boundary_is_promoted(self, end):
        # the first window holds all 9 words; its 7-word core ends after "3.2"
        text = "# 1 intro\nbody words here\n3.2 electrical ratings" + end
        assert [s.segment_id for s in self.run(text, window=7, padding=5)] == ["1", "3.2"]

    @pytest.mark.parametrize("heading", ["##\t3.2  electrical ratings",
                                         "##  3.2\telectrical ratings"])
    def test_widely_spaced_heading_cut_after_its_marker_is_promoted(self, heading):
        # the first 7-word core ends after "##"
        text = f"# 1 intro\nbody words here\n{heading}\nvcc is five volts"
        segments = self.run(text, window=7, padding=5)
        assert [(s.segment_id, s.title) for s in segments] == [("1", "intro"),
                                                               ("3.2", "electrical ratings")]

    @pytest.mark.parametrize("heading, padding", [
        ("## 3.2 " + " ".join(f"t{i}" for i in range(8)), 5),  # the core ends after "##"
        *(("3.2 electrical ratings", k) for k in (0, 1, 2)),  # the core ends after "3.2"
    ])
    def test_heading_cut_by_a_core_end_the_padding_does_not_close_is_promoted(
            self, heading, padding):
        # The first 7-word core ends inside the heading line, and the padding shows
        # neither the end of that line nor the end of the document.
        text = f"# 1 intro\nbody words here\n{heading}\nvcc is five volts"
        segments = self.run(text, window=7, padding=padding)
        assert [s.chapter_number for s in segments] == ["1", "3.2"]

    def test_indented_numbered_line_at_a_core_start_passes_through(self):
        # the second core starts at "3.2"; a single window keeps the indented line too
        text = "# 1 intro\nbody words here\n  3.2 electrical ratings\nvcc"
        (seg,) = self.run(text, window=6, padding=5)
        assert (seg.segment_id, seg.content) == (
            "1", "body words here\n  3.2 electrical ratings\nvcc")

    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(st.tuples(st.sampled_from(["", " ", "\t"]), st.lists(
               st.tuples(st.sampled_from(_CONVERTER_TOKENS), st.sampled_from(_GAPS)), max_size=6),
               st.sampled_from(_LINE_BREAKS)), max_size=10),
           end=st.booleans(), w=st.integers(1, 8), k=st.integers(0, 8))
    def test_any_window_and_padding_converts_as_one_window(self, lines, end, w, k):
        # Each line ends with any str.splitlines break, the last one only when `end`.
        # Lines hold up to 6 words, so a padding may show less than the line it cuts.
        text = "".join(indent + "".join(token + gap for token, gap in tokens) + brk
                       for indent, tokens, brk in lines)
        if lines and not end:
            text = text[: -len(lines[-1][2])]
        assert self.run(text, w, k) == self.run(text, max(count_words(text), 1), 0)

    @pytest.mark.parametrize("brk", _LINE_BREAKS)
    def test_a_heading_title_stops_at_any_line_break(self, brk):
        segments = self.run(f"## 1{brk}body text")
        assert [(s.segment_id, s.title, s.content) for s in segments] == [
            ("1", "", "body text")]

    @pytest.mark.parametrize("text", ["# 1 intro\n## 3.2 electrical ratings\nvcc",
                                      "# 1 intro\n3.2 electrical ratings"])
    def test_core_after_a_line_break_without_padding_parses_as_one_window(self, text):
        # The second 3-word core starts the heading line, and no padding shows the break
        # before it. In the first text the core ends after "electrical".
        windowed = self.run(text, 3, 0)
        assert [s.segment_id for s in windowed] == ["1", "3.2"]
        assert windowed == self.run(text, count_words(text), 0)

    def test_heading_ending_a_core_without_padding_parses_as_one_window(self):
        # The second 3-word core is the whole plain heading line, and no padding shows
        # the line break after it.
        text = "# 1 intro\n3.2 electrical ratings\nvcc is five volts"
        for padding in (0, 1):
            assert [s.segment_id for s in self.run(text, 3, padding)] == ["1", "3.2"]

    def test_cut_line_that_is_no_heading_passes_through(self):
        body = " ".join(f"b{i}" for i in range(396))
        last = "3.2 volts is applied to the rail, then it settles."
        (seg,) = self.run(f"# 1 introduction\n{body}\n{last}", window=400, padding=50)
        assert (seg.segment_id, seg.content) == ("1", f"{body}\n{last}")

    def test_word_content_preserved_across_windows(self):
        lines = []
        for i in range(1, 21):
            lines.append(f"## {i} section {i}")
            lines.append(" ".join(f"t{i}w{j}" for j in range(30)))
        segments = self.run("\n".join(lines), window=40, padding=20)
        assert [(s.segment_id, s.title) for s in segments] == [
            (str(i), f"section {i}") for i in range(1, 21)]
        assert words_of(" ".join(s.content for s in segments)) == words_of(" ".join(lines[1::2]))

    def test_no_heading_starts_with_a_character_convert_skips(self):
        # parse_markdown tries only lines whose first character is "#" or isdecimal
        def heading(line):
            return bool(_MD_HEADING_RE.match(line) or _PLAIN_HEADING_RE.match(line))

        assert heading("# 1 Title") and heading("11 Title")
        starts = [hex(ord(c)) for c in map(chr, range(sys.maxunicode + 1))
                  if c != "#" and not c.isdecimal()
                  and (heading(c + "1 Title") or heading(c + " 1 Title"))]
        assert starts == []

    def test_the_regex_digit_class_is_isdecimal(self):
        differ = [hex(code) for code, c in enumerate(map(chr, range(sys.maxunicode + 1)))
                  if (re.match(r"\d", c) is not None) != c.isdecimal()]
        assert differ == []


# The heading rule as two passes, frozen as it was before parse_markdown took it over:
# promotion rewrote each numbered heading as "# <number> <title>", then the parser split
# at the lines its own heading pattern matched. The oracle.
_HEADING_RE = re.compile(r"^#\s+(\S+)(?:\s+(.*))?$")
_NUMBER_RE = re.compile(r"^\d+(\.\d+)*$")
_FROZEN_MD_HEADING_RE = re.compile(r"^(#{1,6})\s+(\S+)(?:\s+(.*))?$")
_FROZEN_PLAIN_HEADING_RE = re.compile(r"^(\d+(?:\.\d+)*)[.)]?\s+(\S.*)$")


def _promote(line):
    """``line`` as a ``# <dotted-number> <title>`` heading when it is a numbered one."""
    md = _FROZEN_MD_HEADING_RE.match(line)
    if md and _NUMBER_RE.match(md.group(2)):
        return f"# {md.group(2)} {md.group(3) or ''}".rstrip()
    plain = _FROZEN_PLAIN_HEADING_RE.match(line)
    if plain and len(plain.group(2).split()) <= 12 and not (
            plain.group(2).rstrip().endswith((".", ",", ";", ":"))):
        return f"# {plain.group(1)} {plain.group(2).strip()}"
    return line


def line_by_line_promote_headings(markdown):
    """Heading promotion, each line tried on its own: the oracle."""
    lines = markdown.splitlines()
    pieces = markdown.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line[:1] == "#" or line[:1].isdecimal():
            pieces[i] = _promote(line) + pieces[i][len(line):]
    return "".join(pieces)


def promoted_heading(line):
    """The (number, title) of a body line that promotion makes a heading, else None.
    Promotion writes only well-formed numbers, so the title is never the number."""
    match = _HEADING_RE.match(_promote(line))
    return match and (match.group(1), (match.group(2) or "").strip())


def line_by_line_parse_markdown(markdown, doc_title, warnings):
    """parse_markdown as it was before it read each line once: every line tried as a
    heading, each segment's kind read off a second split of its content. The oracle."""
    def detect_kind(content):
        first = next((line.strip() for line in content.splitlines() if line.strip()), "")
        if first.startswith(("|", "Table:")):
            return "table"
        return "image" if IMAGE_LINE_RE.match(first) else "text"

    def finish_content(lines):
        while lines and not lines[-1].strip():
            lines.pop()
        return "\n".join(line.rstrip() for line in lines)

    chunks = [(None, [])]
    for line in markdown.splitlines():
        match = _HEADING_RE.match(line)
        if match:
            chunks.append((match, []))
        else:
            chunks[-1][1].append(line)
    segments, used_ids = [], {}
    for match, lines in chunks:
        content = finish_content(lines)
        if match is None:
            if not content:
                continue
            number, level, title = "", 0, doc_title
        else:
            number, title = match.group(1), match.group(2) or ""
            if _NUMBER_RE.match(number):
                level = number.count(".") + 1
            else:
                level = 1
                warnings.append(f"malformed heading number {number!r} in line "
                                f"{match.string!r}; kept at level 1")
                title = title or number
            title = title.strip()
        segment_id = _unique_id(number or "preamble", used_ids)
        segments.append(Segment(segment_id=segment_id, chapter_number=number, level=level,
                                title=title, kind=detect_kind(content), content=content))
    return segments


# Markdown lines: heading marks, well-formed and malformed numbers, table, caption and image
# starts, words, and the whitespace before, between and after them (a line of it alone too).
_ORACLE_TOKENS = ["#", "##", "1", "3.2", "1.1.4", "2)", "4.", "3.x", "1..2", "1+2", ".5", "A",
                  "alpha", "volts.", "x,", "|", "|---|", "Table:", "![p](p.png)", "![a](b)x",
                  "\u200b", "\u0663", "preamble"]
_ORACLE_SPACES = ["", " ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
_ORACLE_LINES = st.one_of(
    st.builds(
        lambda lead, words, trail: lead + "".join(word + gap for word, gap in words) + trail,
        st.sampled_from(_ORACLE_SPACES),
        st.lists(st.tuples(st.sampled_from(_ORACLE_TOKENS), st.sampled_from(_ORACLE_SPACES)),
                 max_size=14),  # past _MAX_HEADING_WORDS
        st.sampled_from(_ORACLE_SPACES),
    ),
    st.builds(  # a heading, or a near miss, of every kind
        lambda mark, number, title: mark + number + title,
        st.sampled_from(["# ", "#\t", "#\xa0", "## ", "###  ", "#", ""]),
        st.sampled_from(["1", "3.2", "1.1.4", "3.x", "1..2", "A", "1+2", "2)", "4.", "\u0663"]),
        st.sampled_from(["", " ", " Title", "\tA  b ", "\u3000x", " volts, then.", " ratings:",
                         " a b c d e f g h i j k l", " a b c d e f g h i j k l m"]),
    ),
    st.sampled_from(["![p](p.png)", "  ![a](b) \t", "![a](b)x", " | a |", "Table: t", "", " ",
                     "\xa0\u3000"]),  # a segment's first line, whole
)


class TestAgainstTheLineByLineParser:
    @settings(max_examples=1000, deadline=None)
    @given(lines=st.lists(st.tuples(_ORACLE_LINES, st.sampled_from(_LINE_BREAKS))),
           end=st.booleans())
    def test_parse_and_promote_are_unchanged(self, lines, end):
        markdown = "".join(line + brk for line, brk in lines)
        if not end and lines:
            markdown = markdown[: -len(lines[-1][1])]
        for text in (markdown, line_by_line_promote_headings(markdown)):
            expected_warnings = []
            with logged_warnings() as warnings:
                segments = parse_markdown(text, "Doc")
            assert segments == line_by_line_parse_markdown(
                line_by_line_promote_headings(text), "Doc", expected_warnings)
            assert warnings == expected_warnings


class TestParseMarkdown:
    def test_grammar_forced_parse(self):
        (seg,) = parse_markdown("# 3.2 Electrical Characteristics\nVcc = 5V", "Doc")
        assert seg.chapter_number == "3.2"
        assert seg.level == 2
        assert seg.title == "Electrical Characteristics"
        assert seg.kind == "text"
        assert seg.content == "Vcc = 5V"

    def test_preamble_before_first_heading(self):
        segments = parse_markdown("intro text\n# 1 Features\nA", "Doc Title")
        assert len(segments) == 2
        preamble, features = segments
        assert preamble.level == 0
        assert preamble.chapter_number == ""
        assert preamble.title == "Doc Title"
        assert preamble.content == "intro text"
        assert features.chapter_number == "1"
        assert features.title == "Features"

    def test_no_preamble_when_first_line_is_heading(self):
        segments = parse_markdown("# 1 A\nbody", "Doc")
        assert [s.segment_id for s in segments] == ["1"]

    def test_table_kind_detected(self):
        (seg,) = parse_markdown("# 4 Specs\n| V | A |\n|---|---|\n| 5 | 2 |", "Doc")
        assert seg.kind == "table"

    def test_table_caption_kind_detected(self):
        (seg,) = parse_markdown("# 4 Specs\nTable: limits\n| V |\n| 5 |", "Doc")
        assert seg.kind == "table"

    def test_image_kind_detected(self):
        (seg,) = parse_markdown("# 2 Package\n![pinout](p3.png)", "Doc")
        assert seg.kind == "image"

    def test_malformed_number_accepted_at_level_one_with_warning(self, caplog):
        (seg,) = parse_markdown("# 3.x Mystery Section\nbody", "Doc")
        assert seg.level == 1
        assert seg.chapter_number == "3.x"
        assert seg.title == "Mystery Section"
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("hiret.formatter", "WARNING",
             "malformed heading number '3.x' in line '# 3.x Mystery Section'; kept at level 1")]

    def test_duplicate_chapter_numbers_get_unique_ids(self):
        segments = parse_markdown("# 1 A\nx\n# 1 B\ny", "Doc")
        assert [s.segment_id for s in segments] == ["1", "1+2"]

    @pytest.mark.parametrize(
        "numbers, ids",
        [
            (["1", "1", "1+2"], ["1", "1+2", "1+2+2"]),
            (["1+2", "1", "1"], ["1+2", "1", "1+3"]),
            (["1", "1", "1", "1+3", "1"], ["1", "1+2", "1+3", "1+3+2", "1+4"]),
        ],
    )
    def test_repeated_number_takes_the_next_free_plus_n_id(self, numbers, ids):
        text = "\n".join(f"# {number} Title\nbody" for number in numbers)
        assert [s.segment_id for s in parse_markdown(text, "Doc")] == ids

    def test_empty_document(self):
        assert parse_markdown("", "Doc") == []

    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(st.tuples(st.one_of(_PARSE_HEADINGS, _PARSE_BODIES, _PARSE_BLANKS),
                                    st.sampled_from(_LINE_BREAKS))),
           end=st.booleans())
    def test_reconstruction_up_to_whitespace(self, lines, end):
        text = "".join(line + brk for (_, line), brk in lines)
        if not end and lines:
            text = text[: -len(lines[-1][1])]
        segments = parse_markdown(text, "Doc")
        # A body line such as "## 3.2 x" or "5 alpha" reads as the heading promotion made it.
        lines = [((heading or promoted_heading(line), line), brk) for (heading, line), brk in lines]

        kept = [seg_line for seg in segments for seg_line in seg.content.split("\n")]
        body = [line for (heading, line), _ in lines if heading is None]
        assert [ln for ln in kept if ln.strip()] == [ln.rstrip() for ln in body if ln.strip()]
        headings = [heading for (heading, _), _ in lines if heading is not None]
        preamble = segments[: len(segments) - len(headings)]
        assert [(s.chapter_number, s.title) for s in segments[len(preamble):]] == headings
        assert [s.segment_id for s in preamble] == (["preamble"] if preamble else [])
        ids = [s.segment_id for s in segments]
        assert len(set(ids)) == len(ids)

    def test_level_matches_dotted_component_count(self):
        segments = parse_markdown("# 1 A\n# 1.1 B\n# 1.1.1 C\n# 2 D", "Doc")
        assert [s.level for s in segments] == [1, 2, 3, 1]
        for seg in segments:
            assert seg.level == len(seg.chapter_number.split("."))
