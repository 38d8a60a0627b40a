import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiret.formatter import (
    ConversionError,
    ConverterTurn,
    HeadingPromotionConverter,
    IdentityConverter,
    convert_document,
    count_words,
    parse_markdown,
    plan_windows,
)


def words_of(text):
    return text.split()


# Unicode whitespace (str.isspace) beyond ASCII, and look-alikes that are not.
_SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2000", "\u2009",
           "\u2028", "\u2029", "\u202f", "\u205f", "\u3000", " ", "\t", "\n", "\x0b", "\r"]
_NOT_SPACES = ["\u200b", "\u180e", "\ufeff", "\u2060", "a", "\u00e9", "#"]


class RecordingConverter:
    """Echoes cores while keeping every turn for inspection."""

    def __init__(self):
        self.turns = []

    def convert(self, turn: ConverterTurn) -> str:
        self.turns.append(turn)
        return turn.core_text


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
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), st.text(st.sampled_from(_SPACES + _NOT_SPACES))))
    def test_count_words_is_the_word_pattern_count(self, text):
        assert count_words(text) == len(re.findall(r"\S+", text))
        # A plan from count_words passes convert_document's own word check.
        convert_document(text, IdentityConverter(), plan_windows(count_words(text), 3, 1))

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), st.text(st.sampled_from(_SPACES + _NOT_SPACES))),
           w=st.integers(1, 12), k=st.integers(0, 12))
    def test_identity_keeps_the_word_sequence_for_any_text_and_plan(self, text, w, k):
        out = convert_document(text, IdentityConverter(), plan_windows(count_words(text), w, k))
        assert words_of(out) == words_of(text)

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

    def test_plan_and_text_must_agree(self):
        plan = plan_windows(10, 5, 0)
        with pytest.raises(ValueError, match="words"):
            convert_document("just three words", IdentityConverter(), plan)

    def test_empty_document_converts_to_empty(self):
        plan = plan_windows(0, 5, 2)
        assert convert_document("", IdentityConverter(), plan) == ""


class TestHeadingPromotionConverter:
    def run(self, text, window=50, padding=10):
        plan = plan_windows(count_words(text), window, padding)
        return convert_document(text, HeadingPromotionConverter(), plan)

    def test_promotes_deep_markdown_headings(self):
        out = self.run("## 3.2 Electrical Characteristics\nVcc = 5V")
        assert out.splitlines()[0] == "# 3.2 Electrical Characteristics"

    def test_promotes_plain_numbered_headings(self):
        out = self.run("1.2 Supply Pins\nbody text follows here")
        assert "# 1.2 Supply Pins" in out.splitlines()

    def test_keeps_existing_level_one_headings(self):
        out = self.run("# 4 Specs\ncontent")
        assert out.splitlines()[0] == "# 4 Specs"

    def test_ignores_sentences_starting_with_numbers(self):
        line = "5 volts is applied to the rail, then the driver settles."
        out = self.run(line)
        assert "# 5" not in out

    def test_ignores_unnumbered_headings(self):
        out = self.run("## Introduction\nbody")
        assert out.splitlines()[0] == "## Introduction"

    @pytest.mark.parametrize("body_words", [394, 395, 396])
    def test_heading_cut_by_core_boundary_stays_whole(self, body_words):
        # the 400-word core boundary falls after "electrical", "3.2" or "#"
        body = [f"b{i}" for i in range(body_words)]
        lines = ["# 1 introduction"]
        lines += [" ".join(body[i : i + 10]) for i in range(0, body_words, 10)]
        lines += ["# 3.2 electrical ratings", "vcc is five volts"]
        text = "\n".join(lines)
        out = self.run(text, window=400, padding=50)
        segments = parse_markdown(out, "doc")
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
        out = self.run("\n".join(lines), window=400, padding=50)
        assert "# 3.2 electrical ratings" in out.splitlines()
        segments = parse_markdown(out, "doc")
        assert [(s.segment_id, s.title) for s in segments] == [
            ("1", "introduction"),
            ("3.2", "electrical ratings"),
        ]
        assert segments[1].content == "vcc is five volts"

    def test_cut_line_that_is_no_heading_passes_through(self):
        body = " ".join(f"b{i}" for i in range(396))
        text = f"# 1 introduction\n{body}\n3.2 volts is applied to the rail, then it settles."
        out = self.run(text, window=400, padding=50)
        assert out == text

    def test_word_content_preserved_across_windows(self):
        lines = []
        for i in range(1, 21):
            lines.append(f"## {i} section {i}")
            lines.append(" ".join(f"t{i}w{j}" for j in range(30)))
        text = "\n".join(lines)
        out = self.run(text, window=40, padding=20)
        assert words_of(out)[0] == "#"
        plain = [w for w in words_of(out) if not w.startswith("#")]
        original_plain = [w for w in words_of(text) if not w.startswith("#")]
        assert plain == original_plain


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

    def test_malformed_number_accepted_at_level_one_with_warning(self):
        warnings = []
        (seg,) = parse_markdown("# 3.x Mystery Section\nbody", "Doc", warnings)
        assert seg.level == 1
        assert seg.chapter_number == "3.x"
        assert seg.title == "Mystery Section"
        assert len(warnings) == 1
        assert "3.x" in warnings[0]

    def test_duplicate_chapter_numbers_get_unique_ids(self):
        segments = parse_markdown("# 1 A\nx\n# 1 B\ny", "Doc")
        assert [s.segment_id for s in segments] == ["1", "1+2"]

    def test_empty_document(self):
        assert parse_markdown("", "Doc") == []

    def test_reconstruction_up_to_whitespace(self):
        rng = random.Random(5150)
        for _ in range(25):
            lines = []
            lines.extend(f"pre{i} text" for i in range(rng.randrange(0, 3)))
            for c in range(1, rng.randrange(2, 8)):
                depth = rng.randrange(1, 4)
                number = ".".join(str(rng.randrange(1, 9)) for _ in range(depth))
                lines.append(f"# {number} Section {c}")
                for j in range(rng.randrange(0, 4)):
                    lines.append(f"body {c} line {j}")
                if rng.random() < 0.3:
                    lines.append("")
            text = "\n".join(lines)
            segments = parse_markdown(text, "Doc")
            rebuilt = []
            for seg in segments:
                if seg.level > 0 or seg.chapter_number:
                    rebuilt.append(f"# {seg.chapter_number} {seg.title}".rstrip())
                if seg.content:
                    rebuilt.append(seg.content)
            normalize = lambda t: [ln.rstrip() for ln in t.splitlines() if ln.strip()]
            assert normalize("\n".join(rebuilt)) == normalize(text)

    def test_level_matches_dotted_component_count(self):
        segments = parse_markdown("# 1 A\n# 1.1 B\n# 1.1.1 C\n# 2 D", "Doc")
        assert [s.level for s in segments] == [1, 2, 3, 1]
        for seg in segments:
            assert seg.level == len(seg.chapter_number.split("."))
