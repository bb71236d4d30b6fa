import pytest

from dnumbers import (
    NamedAssignment,
    OverrideDegree,
    PairDegree,
    ScenarioDocument,
    WeightEntry,
    format_scenario,
    parse_f_table,
    parse_scenario,
)
from dnumbers.errors import (
    DuplicatePair,
    EmptySetAssignment,
    EmptySubset,
    FrameTooLarge,
    IntersectingPair,
    MassOverflow,
    OutOfRangeValue,
    ScenarioSyntaxError,
    ScenarioTooLarge,
    UnknownLabel,
)
from dnumbers.scenario import MAX_SCENARIO_BYTES
from conftest import FIXTURES, SCENARIOS

BAD = FIXTURES / "bad"
FTABLES = FIXTURES / "ftables"


def read(path):
    return path.read_bytes()


class TestParseShippedScenarios:
    def test_partial_sources_scenario(self):
        doc = parse_scenario(read(SCENARIOS / "abc_fusion.scn"))
        assert doc.frame == ("a", "b", "c")
        assert [named.name for named in doc.dnumbers] == ["D1", "D2"]
        d1 = doc.dnumbers[0]
        assert d1.entries == (
            WeightEntry(("a",), 0.7),
            WeightEntry(("b", "c"), 0.1),
            WeightEntry(("a", "b", "c"), 0.1),
        )
        assert doc.pairs == (
            PairDegree(("a", "b"), 0.1),
            PairDegree(("b", "c"), 0.2),
            PairDegree(("a", "c"), 0.0),
        )
        scenario = doc.build()
        assert abs(scenario.dnumbers["D1"].q_value - 0.9) < 1e-12
        assert abs(scenario.dnumbers["D2"].q_value - 0.8) < 1e-12
        assert scenario.model.degree(("a",), ("b",)) == 0.1

    def test_conflicting_graders_scenario(self):
        doc = parse_scenario(read(SCENARIOS / "high_medium.scn"))
        scenario = doc.build()
        assert scenario.dnumbers["G1"].weight("High") == 1.0
        assert scenario.dnumbers["G2"].weight("Medium") == 1.0

    def test_model_only_scenario_is_valid(self):
        doc = parse_scenario(read(SCENARIOS / "abc_overlaps.scn"))
        assert doc.dnumbers == ()
        matrix = doc.build_model().matrix()
        assert len(matrix.subsets) == 7

    def test_built_dnumbers_are_read_only(self):
        scenario = parse_scenario(read(SCENARIOS / "abc_fusion.scn")).build()
        with pytest.raises(TypeError):
            scenario.dnumbers["D3"] = scenario.dnumbers["D1"]

    def test_accepts_str_input(self):
        doc = parse_scenario("frame: x\ndnumber D:\n  {x}: 1\n")
        assert doc.build().dnumbers["D"].is_complete()

    def test_interleaved_sections_each_keep_their_own_entries(self):
        doc = parse_scenario(
            "frame: a, b, c\n"
            "nonexclusivity:\n  a ~ b: 0.25\n"
            "dnumber D:\n  {a}: 0.5\n  {b, c}: 0.5\n"
            "overrides:\n  {a} ~ {b, c}: 0.75\n"
            "dnumber E:\n  {c}: 1\n"
        )
        assert doc.pairs == (PairDegree(("a", "b"), 0.25),)
        assert doc.dnumbers == (
            NamedAssignment("D", (WeightEntry(("a",), 0.5), WeightEntry(("b", "c"), 0.5))),
            NamedAssignment("E", (WeightEntry(("c",), 1.0),)),
        )
        assert doc.overrides == (OverrideDegree((("a",), ("b", "c")), 0.75),)


class TestParseErrors:
    @pytest.mark.parametrize(
        "name, error, line",
        [
            ("syntax_missing_frame.scn", ScenarioSyntaxError, 1),
            ("syntax_bad_entry.scn", ScenarioSyntaxError, 3),
            ("syntax_self_pair.scn", ScenarioSyntaxError, 3),
            ("syntax_duplicate_frame.scn", ScenarioSyntaxError, 2),
            ("syntax_duplicate_name.scn", ScenarioSyntaxError, 4),
            ("syntax_entry_outside_section.scn", ScenarioSyntaxError, 2),
            ("syntax_bad_number.scn", ScenarioSyntaxError, 3),
            ("syntax_duplicate_frame_label.scn", ScenarioSyntaxError, 1),
            ("syntax_duplicate_section.scn", ScenarioSyntaxError, 4),
            ("unknown_label.scn", UnknownLabel, 3),
            ("unknown_label_pair.scn", UnknownLabel, 3),
            ("out_of_range_weight.scn", OutOfRangeValue, 3),
            ("out_of_range_negative.scn", OutOfRangeValue, 3),
            ("duplicate_pair.scn", DuplicatePair, 4),
            ("duplicate_override.scn", DuplicatePair, 4),
        ],
    )
    def test_located_parse_errors(self, name, error, line):
        with pytest.raises(error) as excinfo:
            parse_scenario(read(BAD / name))
        assert excinfo.value.line == line

    def test_syntax_error_reports_column(self):
        with pytest.raises(ScenarioSyntaxError) as excinfo:
            parse_scenario(b"frame: a, a\n")
        assert excinfo.value.column == 11
        with pytest.raises(UnknownLabel) as excinfo:
            parse_scenario(b"frame: a\ndnumber D:\n  {a, zz}: 0.5\n")
        assert excinfo.value.column == 7

    @pytest.mark.parametrize(
        "text, error, message, line, column",
        [
            (
                "frame: a, b\noverrides:\n  {a} ~ {b}: 0.1\noverrides:\n",
                ScenarioSyntaxError,
                "the overrides section is already declared",
                4,
                1,
            ),
            ("frame: a, b\ndnumber D:\n  {a,,b}: 0.5\n", ScenarioSyntaxError, "empty label", 3, 6),
            (
                "frame: a, b\ndnumber D:\n  {a b}: 0.5\n",
                ScenarioSyntaxError,
                "invalid label 'a b'",
                3,
                4,
            ),
            (
                "frame: a, b\nnonexclusivity:\n  a - b: 0.1\n",
                ScenarioSyntaxError,
                "expected '<label> ~ <label>: <degree>'",
                3,
                3,
            ),
            (
                "frame: a, b\noverrides:\n  {a} - {b}: 0.1\n",
                ScenarioSyntaxError,
                "expected '{<labels>} ~ {<labels>}: <degree>'",
                3,
                3,
            ),
        ],
        ids=["second-overrides-header", "empty-label", "invalid-label", "bad-pair", "bad-override"],
    )
    def test_located_inline_errors(self, text, error, message, line, column):
        with pytest.raises(error) as excinfo:
            parse_scenario(text)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == f"line {line}, column {column}: {message}"
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    @pytest.mark.parametrize("name", ["abc_fusion.scn", "abc_overlaps.scn", "high_medium.scn"])
    def test_a_leading_byte_order_mark_is_skipped(self, name):
        data = read(SCENARIOS / name)
        assert parse_scenario(b"\xef\xbb\xbf" + data) == parse_scenario(data)

    def test_invalid_utf8(self):
        with pytest.raises(ScenarioSyntaxError, match="^scenario is not valid UTF-8"):
            parse_scenario(b"frame: \xff\xfe\n")
        with pytest.raises(ScenarioSyntaxError, match="^table is not valid UTF-8"):
            parse_f_table(b"1 1 \xff\n")

    @pytest.mark.parametrize(
        "name, error",
        [
            ("mass_overflow.scn", MassOverflow),
            ("empty_set_mass.scn", EmptySetAssignment),
            ("intersecting_override.scn", IntersectingPair),
            ("empty_override.scn", EmptySubset),
            ("frame_too_large.scn", FrameTooLarge),
        ],
    )
    def test_domain_errors_surface_at_build(self, name, error):
        doc = parse_scenario(read(BAD / name))  # parses fine
        with pytest.raises(error):
            doc.build()


def padded(size: int) -> bytes:
    """A valid scenario of exactly ``size`` bytes: a frame line, then a comment."""
    head = b"frame: a\ndnumber D:\n  {a}: 1\n#"
    return head + b"x" * (size - len(head) - 1) + b"\n"


class TestSizeCap:
    def test_one_byte_under_the_cap_and_at_it_parse(self):
        for size in (MAX_SCENARIO_BYTES - 1, MAX_SCENARIO_BYTES):
            data = padded(size)
            assert len(data) == size
            assert parse_scenario(data).frame == ("a",)

    def test_one_byte_over_the_cap_is_rejected_before_decoding(self):
        data = padded(MAX_SCENARIO_BYTES + 1)
        with pytest.raises(ScenarioTooLarge, match="longer than"):
            parse_scenario(data)
        # Invalid UTF-8 would fail decoding; the size check comes first.
        with pytest.raises(ScenarioTooLarge):
            parse_scenario(b"\xff" * (MAX_SCENARIO_BYTES + 1))

    def test_text_is_capped_by_its_length(self):
        with pytest.raises(ScenarioTooLarge):
            parse_scenario(padded(MAX_SCENARIO_BYTES + 1).decode())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["abc_fusion.scn", "abc_overlaps.scn", "high_medium.scn"]
    )
    def test_parse_format_parse(self, name):
        doc = parse_scenario(read(SCENARIOS / name))
        printed = format_scenario(doc)
        assert parse_scenario(printed) == doc
        # canonical form is a fixed point
        assert format_scenario(parse_scenario(printed)) == printed

    def test_weights_preserved_exactly(self):
        text = "frame: a, b\ndnumber D:\n  {a}: 0.123456789012\n  {b}: 5e-05\n"
        doc = parse_scenario(text)
        again = parse_scenario(format_scenario(doc))
        assert again.dnumbers[0].entries[0].weight == 0.123456789012
        assert again.dnumbers[0].entries[1].weight == 5e-05

    def test_subsets_are_stored_sorted(self):
        doc = parse_scenario("frame: b, a\ndnumber D:\n  {b, a}: 1\n")
        assert doc.dnumbers[0].entries[0].subset == ("a", "b")

    @pytest.mark.parametrize("label", ["a,b", "a b", "{a}", "x#", "a:b", "a~b", "", "a\n"])
    def test_labels_that_do_not_read_back_are_refused(self, label):
        # "a,b" would print as "frame: a,b, c" and read back as three labels.
        doc = ScenarioDocument(frame=(label, "c"), dnumbers=(NamedAssignment("D", ()),))
        with pytest.raises(ScenarioSyntaxError) as info:
            format_scenario(doc)
        assert info.value.line is None and info.value.column is None
        assert repr(label) in str(info.value)

    def test_dnumber_names_that_do_not_read_back_are_refused(self):
        entries = (WeightEntry(("a",), 1.0),)
        doc = ScenarioDocument(
            frame=("a",), dnumbers=(NamedAssignment("D", entries), NamedAssignment("D 2", entries))
        )
        with pytest.raises(ScenarioSyntaxError, match="'D 2'"):
            format_scenario(doc)

    def test_the_first_label_that_does_not_read_back_is_named(self):
        doc = ScenarioDocument(frame=("a", "b c", "{d}"), dnumbers=(NamedAssignment("x y", ()),))
        with pytest.raises(ScenarioSyntaxError, match="'b c'"):
            format_scenario(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                ScenarioDocument(("a", "b"), (NamedAssignment("D", (WeightEntry(("z",), 1.0),)),)),
                "dnumber D's subset names 'z', which is not in the frame",
            ),
            (
                ScenarioDocument(("a", "b"), pairs=(PairDegree(("a", "z"), 0.5),)),
                "pair names 'z', which is not in the frame",
            ),
            (
                ScenarioDocument(("a", "b"), overrides=(OverrideDegree((("a",), ("b", "z")), 0.5),)),
                "override subset names 'z', which is not in the frame",
            ),
            (
                ScenarioDocument(("a", "b"), (NamedAssignment("D", (WeightEntry(("b", "a"), 1.0),)),)),
                "dnumber D's subset ('b', 'a') would not read back as written",
            ),
            (
                ScenarioDocument(("a", "b"), (NamedAssignment("D", (WeightEntry(("a", "a"), 1.0),)),)),
                "dnumber D's subset ('a', 'a') would not read back as written",
            ),
            (
                ScenarioDocument(("a", "b"), pairs=(PairDegree(("b", "a"), 0.5),)),
                "pair ('b', 'a') would not read back as written",
            ),
            (
                ScenarioDocument(("a", "b"), pairs=(PairDegree(("a", "a"), 0.5),)),
                "pair ('a', 'a') would not read back as written",
            ),
            (
                ScenarioDocument(("a", "b", "c"), overrides=(OverrideDegree((("a",), ("c", "b")), 0.5),)),
                "override subset ('c', 'b') would not read back as written",
            ),
        ],
    )
    def test_subsets_and_pairs_that_do_not_read_back_are_refused(self, doc, message):
        with pytest.raises(ScenarioSyntaxError) as info:
            format_scenario(doc)
        assert str(info.value).startswith(message)
        assert info.value.line is None and info.value.column is None

    def test_an_override_reads_back_with_its_subsets_sorted(self):
        # An override's degree belongs to the unordered pair, so its subsets
        # may come in either order; the parser sorts them.
        override = OverrideDegree((("b",), ("a", "c")), 0.5)
        doc = ScenarioDocument(("a", "b", "c"), overrides=(override,))
        printed = format_scenario(doc)
        assert "  {b} ~ {a, c}: 0.5\n" in printed
        again = parse_scenario(printed)
        assert again.overrides == (OverrideDegree((("a", "c"), ("b",)), 0.5),)
        assert again.build_model().subset_overrides == doc.build_model().subset_overrides

    def test_canonical_print_golden(self):
        doc = parse_scenario(read(SCENARIOS / "abc_fusion.scn"))
        golden = (FIXTURES / "golden" / "abc_fusion.canon").read_text()
        assert format_scenario(doc) == golden


class TestDocumentBuild:
    def test_build_is_order_stable(self):
        doc = ScenarioDocument(
            frame=("a", "b"),
            dnumbers=(
                NamedAssignment("second", (WeightEntry(("b",), 1.0),)),
                NamedAssignment("first", (WeightEntry(("a",), 1.0),)),
            ),
        )
        assert list(doc.build().dnumbers) == ["second", "first"]

    def test_duplicate_entries_are_summed_by_dnumber(self):
        doc = parse_scenario("frame: a\ndnumber D:\n  {a}: 0.25\n  {a}: 0.25\n")
        assert doc.build().dnumbers["D"].weight("a") == 0.5


class TestFTable:
    def test_valid_table(self):
        points = parse_f_table((FTABLES / "product_11.txt").read_bytes())
        assert len(points) == 121
        assert (1.0, 1.0, 1.0) in points

    def test_syntax_error(self):
        with pytest.raises(ScenarioSyntaxError) as excinfo:
            parse_f_table((FTABLES / "bad_syntax.txt").read_bytes())
        assert excinfo.value.line == 1

    def test_q_out_of_range(self):
        with pytest.raises(OutOfRangeValue):
            parse_f_table((FTABLES / "bad_range.txt").read_bytes())

    def test_non_number_field(self):
        with pytest.raises(ScenarioSyntaxError) as excinfo:
            parse_f_table("1 x 1\n")
        assert type(excinfo.value) is ScenarioSyntaxError
        assert str(excinfo.value) == "line 1, column 3: expected a number, got 'x'"
        assert (excinfo.value.line, excinfo.value.column) == (1, 3)

    def test_comments_and_blanks_ignored(self):
        points = parse_f_table("# hi\n\n1 1 1\n")
        assert points == ((1.0, 1.0, 1.0),)
