import errno
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from dnumbers import AGGREGATORS, Frame, classical, cli, fusion, parse_scenario
from dnumbers.cli import build_parser, run_cli
from dnumbers.fusion import RULES, STRATEGIES
from dnumbers.scenario import MAX_SCENARIO_BYTES
from conftest import FIXTURES, REPO, SCENARIOS
from helpers import render_matrix

BAD = FIXTURES / "bad"
GOLDEN = FIXTURES / "golden"
FTABLES = FIXTURES / "ftables"

FUSION = str(SCENARIOS / "abc_fusion.scn")
OVERLAPS = str(SCENARIOS / "abc_overlaps.scn")
HIGH_MEDIUM = str(SCENARIOS / "high_medium.scn")

RULE_NAMES = ("conjunctive", "disjunctive", "dempster", "yager", "dubois-prade", "dcr1", "dcr2")
DCR2_FLAGS = (
    ("--f", "min"),
    ("--f", "max"),
    ("--f", "avg"),
    ("--f", "one"),
    ("--strategy", "average-iterate"),
)


def combine_cases():
    """Every rule, plus each dcr2 flag set, in both formats, on the shipped
    scenarios and two three-source fixtures; keyed as written in the golden."""
    paths = sorted(SCENARIOS.glob("*.scn")) + sorted(FIXTURES.glob("three_*.scn"))
    for path in paths:
        for rule in RULE_NAMES:
            for flags in ((),) + (DCR2_FLAGS if rule == "dcr2" else ()):
                for output in ("human", "machine"):
                    key = " ".join((path.name, rule, *flags, output))
                    argv = ["combine", "--rule", rule, *flags, "--output", output, str(path)]
                    yield key, argv


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCombine:
    def test_dcr2_human_report_matches_presentation(self, capsys):
        code, out, err = run(capsys, "combine", "--rule", "dcr2", "--f", "product", FUSION)
        assert code == 0 and err == ""
        assert "0.6194" in out and "0.0929" in out and "0.0077" in out
        assert "sum of D_t = 0.4650" in out
        assert "f(Q1, Q2) = 0.7200" in out

    def test_dcr2_machine_report_matches_golden(self, capsys):
        code, out, err = run(capsys, "combine", "--rule", "dcr2", FUSION, "--output", "machine")
        assert code == 0
        assert out == (GOLDEN / "abc_fusion_dcr2.json").read_text()

    def test_machine_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "combine", "--rule", "dcr2", FUSION, "--output", "machine")
        _, second, _ = run(capsys, "combine", "--rule", "dcr2", FUSION, "--output", "machine")
        assert first == second

    def test_machine_weights_echo_full_precision(self, capsys):
        _, out, _ = run(capsys, "combine", "--rule", "dcr2", FUSION, "--output", "machine")
        payload = json.loads(out)
        weights = {tuple(w["subset"]): w["weight"] for w in payload["weights"]}
        assert weights[("a",)] == 0.72 * (0.4 / 0.465)
        assert payload["diagnostics"]["f_value"] == 0.72

    def test_dcr1_human_golden(self, capsys):
        code, out, err = run(capsys, "combine", "--rule", "dcr1", HIGH_MEDIUM)
        assert code == 0
        assert out == (GOLDEN / "high_medium_dcr1.txt").read_text()

    def test_dempster_total_conflict_exits_2(self, capsys):
        code, out, err = run(capsys, "combine", "--rule", "dempster", HIGH_MEDIUM)
        assert code == 2 and out == ""
        assert err.startswith("error[total-conflict]:")

    def test_dempster_incomplete_inputs_exit_2(self, capsys):
        code, _, err = run(capsys, "combine", "--rule", "dempster", FUSION)
        assert code == 2
        assert err.startswith("error[incomplete-input]:")

    def test_classical_rules_run(self, capsys):
        for rule in ("conjunctive", "disjunctive", "yager", "dubois-prade"):
            code, out, _ = run(capsys, "combine", "--rule", rule, HIGH_MEDIUM)
            assert code == 0, rule
        code, out, _ = run(capsys, "combine", "--rule", "conjunctive", HIGH_MEDIUM)
        assert "K = 1.0000" in out
        assert "{}: 1.0000" in out

    def test_f_flag_requires_dcr2(self, capsys):
        code, _, err = run(capsys, "combine", "--rule", "dcr1", "--f", "min", HIGH_MEDIUM)
        assert code == 2
        assert "dcr2" in err

    def test_strategy_flag_requires_dcr2(self, capsys):
        code, _, err = run(capsys, "combine", "--rule", "dempster", "--strategy", "fold", HIGH_MEDIUM)
        assert code == 2

    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "combine", "--rule", "pcr5", HIGH_MEDIUM)
        assert code == 2

    def test_three_source_fold_and_average(self, capsys, tmp_path):
        scn = tmp_path / "three.scn"
        scn.write_text(
            "frame: a, b\n"
            "dnumber D1:\n  {a}: 0.6\n  {a, b}: 0.4\n"
            "dnumber D2:\n  {b}: 0.5\n  {a, b}: 0.5\n"
            "dnumber D3:\n  {a}: 0.5\n  {a, b}: 0.5\n"
            "nonexclusivity:\n  a ~ b: 0.3\n"
        )
        code, out, _ = run(capsys, "combine", "--rule", "dcr2", str(scn), "--output", "machine")
        assert code == 0
        assert json.loads(out)["diagnostics"]["strategy"] == "fold"
        code, out, _ = run(
            capsys, "combine", "--rule", "dcr2", "--strategy", "average-iterate",
            str(scn), "--output", "machine",
        )
        assert code == 0
        assert json.loads(out)["diagnostics"]["strategy"] == "average-iterate"


    def test_three_source_classical_total_conflict_names_step(self, capsys, tmp_path):
        scn = tmp_path / "conflict.scn"
        scn.write_text(
            "frame: a, b\n"
            "dnumber D1:\n  {a}: 1\n"
            "dnumber D2:\n  {a}: 0.5\n  {a, b}: 0.5\n"
            "dnumber D3:\n  {b}: 1\n"
        )
        code, out, err = run(capsys, "combine", "--rule", "dempster", str(scn))
        assert code == 2 and out == ""
        assert err.startswith("error[total-conflict]: combination step 2:")

    def test_unusable_invocation_prints_abort_kind(self, capsys):
        three = str(FIXTURES / "three_complete.scn")
        code, out, err = run(capsys, "combine", "--rule", "conjunctive", three)
        assert code == 2 and out == ""
        assert err.startswith("error[abort]:")

    @pytest.mark.parametrize(
        "argv, passes",
        [
            (("combine", "--rule", "yager"), 2),
            (("combine", "--rule", "dubois-prade"), 2),
            (("conflict",), 1),
        ],
        ids=["yager", "dubois-prade", "conflict"],
    )
    def test_one_kernel_pass_per_step(self, capsys, monkeypatch, argv, passes):
        # Every pass over the focal pairs goes through _products, wherever it
        # is bound; global_conflict is counted too, in case a step calls it.
        seen = []

        def counted(fn):
            def wrapper(*args):
                seen.append(fn.__name__)
                return fn(*args)

            return wrapper

        for module, name in ((classical, "_products"), (classical, "global_conflict"),
                             (fusion, "_products"), (cli, "_products")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        three = str(FIXTURES / "three_complete.scn")
        code, _, _ = run(capsys, *argv, three)
        assert code == 0
        assert seen == ["_products"] * passes

    def test_focal_pair_budget_exits_2_with_its_kind(self, capsys, monkeypatch):
        # abc_fusion.scn combines 3 x 2 focal sets.
        monkeypatch.setattr(classical, "MAX_FOCAL_PAIRS", 5)
        code, out, err = run(capsys, "combine", "--rule", "dcr2", FUSION)
        assert code == 2 and out == ""
        assert err == "error[too-many-focal-pairs]: 3 x 2 focal sets make 6 pairs; the budget is 5\n"

    def test_f_flag_accepts_long_names(self, capsys):
        _, short, _ = run(capsys, "combine", "--rule", "dcr2", "--f", "min", FUSION)
        code, long, _ = run(capsys, "combine", "--rule", "dcr2", "--f", "minimum", FUSION)
        assert code == 0 and long == short

    def test_choices_come_from_the_library_tables(self):
        (commands,) = [a for a in build_parser()._actions if isinstance(a.choices, dict)]
        choices = {a.dest: a.choices for a in commands.choices["combine"]._actions if a.choices}
        assert list(choices["rule"]) == list(RULES)
        assert list(choices["f"]) == list(AGGREGATORS)
        assert list(choices["strategy"]) == list(STRATEGIES)

    def test_readme_example_matches_output(self, capsys):
        readme = (REPO / "README.md").read_text()
        command = "$ dnumbers combine --rule dcr2 --f product scenarios/abc_fusion.scn\n"
        shown = readme.split(command, 1)[1].split("```", 1)[0]
        _, out, _ = run(capsys, "combine", "--rule", "dcr2", "--f", "product", FUSION)
        assert out == shown


COMBINE_CASES = dict(combine_cases())
COMBINE_GOLDEN = json.loads((GOLDEN / "combine_all_rules.json").read_text())


@pytest.mark.parametrize("key", COMBINE_CASES)
def test_combine_matches_all_rule_golden(capsys, key):
    code, out, err = run(capsys, *COMBINE_CASES[key])
    assert {"exit": code, "stdout": out, "stderr": err} == COMBINE_GOLDEN[key]


def combine_error_cases():
    """Combine runs that end in an error, in both formats: every bad scenario
    under dcr2 and dempster, and under dcr1 with --f (which of the two errors
    wins); --f and --strategy given to each rule but dcr2; and scenarios with
    one source and with none. Keyed as written in the golden."""
    bad = sorted(BAD.glob("*.scn"))
    runs = [(path, rule, ()) for path in bad for rule in ("dcr2", "dempster")]
    runs += [(path, "dcr1", ("--f", "min")) for path in bad]
    runs += [
        (SCENARIOS / "high_medium.scn", rule, flags)
        for rule in RULE_NAMES if rule != "dcr2"
        for flags in (("--f", "min"), ("--strategy", "fold"))
    ]
    runs += [
        (path, rule, ())
        for path in (FIXTURES / "combine" / "one_source.scn", SCENARIOS / "abc_overlaps.scn")
        for rule in RULE_NAMES
    ]
    for path, rule, flags in runs:
        for output in ("human", "machine"):
            key = " ".join((path.relative_to(REPO).as_posix(), rule, *flags, output))
            yield key, ["combine", "--rule", rule, *flags, "--output", output, str(path)]


COMBINE_ERROR_CASES = dict(combine_error_cases())
COMBINE_ERROR_GOLDEN = json.loads((GOLDEN / "combine_errors.json").read_text())


def test_combine_error_golden_covers_every_case():
    assert len(COMBINE_ERROR_CASES) == 178
    assert sorted(COMBINE_ERROR_GOLDEN) == sorted(COMBINE_ERROR_CASES)


@pytest.mark.parametrize("key", COMBINE_ERROR_CASES)
def test_combine_errors_match_golden(capsys, key):
    code, out, err = run(capsys, *COMBINE_ERROR_CASES[key])
    assert {"exit": code, "stdout": out, "stderr": err} == COMBINE_ERROR_GOLDEN[key]


#: Every command but combine, as written in the transcript's keys; a ``.txt``
#: argument names an aggregator table in ``tests/fixtures/ftables``.
TRANSCRIPT_COMMANDS = (
    ("qvalue",),
    ("validate",),
    ("validate", "--f-table", "product_11.txt"),
    ("validate", "--f-table", "bad_syntax.txt"),
    ("validate", "--f-table", "bad_range.txt"),
    ("bel",),
    ("pl",),
    ("bel", "--subset", ","),
    ("conflict",),
    ("matrix", "expand"),
    ("matrix", "exclusive"),
)


def transcript_cases():
    """Each command of TRANSCRIPT_COMMANDS in both formats on every shipped,
    fixture and bad scenario but the 12-element matrix one; keyed as written
    in the transcript."""
    paths = (
        sorted(SCENARIOS.glob("*.scn"))
        + sorted(p for p in FIXTURES.glob("*.scn") if p.name != "matrix_cap12.scn")
        + sorted(BAD.glob("*.scn"))
    )
    for path in paths:
        for command in TRANSCRIPT_COMMANDS:
            args = [str(FTABLES / a) if a.endswith(".txt") else a for a in command]
            for output in ("human", "machine"):
                key = " ".join((path.relative_to(REPO).as_posix(), *command, output))
                yield key, [*args, "--output", output, str(path)]


TRANSCRIPT_CASES = dict(transcript_cases())
TRANSCRIPT = json.loads((GOLDEN / "cli_transcript.json").read_text())


def test_transcript_covers_every_case():
    assert len(TRANSCRIPT_CASES) == 572
    assert sorted(TRANSCRIPT) == sorted(TRANSCRIPT_CASES)


@pytest.mark.parametrize("key", TRANSCRIPT_CASES)
def test_cli_matches_transcript(capsys, key):
    code, out, err = run(capsys, *TRANSCRIPT_CASES[key])
    assert {"exit": code, "stdout": out, "stderr": err} == TRANSCRIPT[key]


def test_every_pinned_failure_prints_one_error_line_and_no_report():
    # The output contract: once the arguments parse, a failure writes exactly
    # one error[kind]: message line on stderr and nothing on stdout.
    pinned = [*TRANSCRIPT.values(), *COMBINE_GOLDEN.values(), *COMBINE_ERROR_GOLDEN.values()]
    failures = [case for case in pinned if case["exit"]]
    assert len(failures) == 718
    for case in failures:
        assert case["exit"] in (1, 2) and case["stdout"] == ""
        assert re.fullmatch(r"error\[[a-z-]+\]: [^\n]+\n", case["stderr"]), case["stderr"]
    assert all(case["stderr"] == "" for case in pinned if not case["exit"])


class TestMeasures:
    def test_bel_defaults_to_first_source_focal_sets(self, capsys):
        code, out, _ = run(capsys, "bel", FUSION)
        assert code == 0
        assert "source: D1" in out
        assert "incomplete source" in out
        assert "Bel({a}) = 0.7000" in out

    def test_bel_specific_subset_machine(self, capsys):
        code, out, _ = run(
            capsys, "bel", FUSION, "--source", "D2", "--subset", "a,c",
            "--output", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [{"subset": ["a", "c"], "value": 0.8}]
        assert payload["complete"] is False

    def test_pl_vacuous_subset(self, capsys):
        code, out, _ = run(capsys, "pl", HIGH_MEDIUM, "--source", "G1", "--subset", "High")
        assert code == 0
        assert "Pl({High}) = 1.0000" in out

    def test_unknown_source(self, capsys):
        code, _, err = run(capsys, "bel", FUSION, "--source", "D9")
        assert code == 2

    def test_subset_flag_naming_no_labels(self, capsys):
        with pytest.raises(cli._Abort) as excinfo:
            cli._parse_subset_flag(Frame(["a", "b", "c"]), ",")
        assert type(excinfo.value) is cli._Abort
        assert str(excinfo.value) == "--subset ',' names no labels"
        assert run(capsys, "bel", FUSION, "--subset", ",") == (
            2, "", "error[abort]: --subset ',' names no labels\n"
        )

    def test_unknown_subset_label(self, capsys):
        code, _, err = run(capsys, "bel", FUSION, "--subset", "zz")
        assert code == 2
        assert err.startswith("error[foreign-subset]:")


class TestDiagnostics:
    def test_qvalue(self, capsys):
        code, out, _ = run(capsys, "qvalue", FUSION)
        assert code == 0
        assert "D1: Q = 0.9000 (incomplete)" in out
        assert "D2: Q = 0.8000 (incomplete)" in out

    def test_qvalue_machine(self, capsys):
        code, out, _ = run(capsys, "qvalue", FUSION, "--output", "machine")
        payload = json.loads(out)
        assert [d["name"] for d in payload["dnumbers"]] == ["D1", "D2"]
        assert payload["dnumbers"][1]["q_value"] == 0.8

    def test_conflict(self, capsys):
        code, out, _ = run(capsys, "conflict", HIGH_MEDIUM)
        assert code == 0
        assert "K   = 1.0000" in out
        assert "K_D = 0.9000" in out

    def test_conflict_needs_two_sources(self, capsys):
        code, _, err = run(capsys, "conflict", OVERLAPS)
        assert code == 2


class TestMatrix:
    def test_expand_matches_golden(self, capsys):
        code, out, _ = run(capsys, "matrix", "expand", OVERLAPS, "--output", "machine")
        assert code == 0
        assert out == (GOLDEN / "abc_overlaps_matrix.json").read_text()

    @pytest.mark.parametrize("kind", ["expand", "exclusive"])
    def test_output_flag_may_stand_anywhere(self, capsys, kind):
        outputs = {
            run(capsys, *argv)
            for argv in (
                ("matrix", kind, "--output", "machine", OVERLAPS),
                ("matrix", kind, OVERLAPS, "--output", "machine"),
                ("matrix", "--output", "machine", kind, OVERLAPS),
            )
        }
        assert len(outputs) == 1
        code, out, err = outputs.pop()
        assert (code, err) == (0, "")
        assert json.loads(out)["kind"] == ("nonexclusive" if kind == "expand" else kind)

    def test_a_second_file_is_still_a_usage_error(self, capsys):
        for argv in (
            ("matrix", "expand", "--output", "machine", OVERLAPS, OVERLAPS),
            ("matrix", "expand", "-", "--output", "machine", OVERLAPS),
            ("matrix", "expand", "--output", "machine", "--bogus"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "unrecognized arguments" in err

    def test_exclusive_is_complement(self, capsys):
        _, expand_out, _ = run(capsys, "matrix", "expand", OVERLAPS, "--output", "machine")
        _, excl_out, _ = run(capsys, "matrix", "exclusive", OVERLAPS, "--output", "machine")
        rows = json.loads(expand_out)["rows"]
        comp = json.loads(excl_out)["rows"]
        for row, crow in zip(rows, comp):
            assert crow == [1.0 - v for v in row]

    def test_human_matrix_lists_subsets(self, capsys):
        code, out, _ = run(capsys, "matrix", "expand", OVERLAPS)
        assert code == 0
        assert "{a, b, c}" in out
        assert out.count("\n") == 8  # header plus seven rows

    def test_matrix_cap(self, capsys):
        code, _, err = run(capsys, "matrix", "expand", str(BAD / "frame_13.scn"))
        assert code == 2
        assert err.startswith("error[frame-too-large-for-matrix]:")

    @staticmethod
    def _scenario(seed: int, size: int) -> str:
        """A seeded model on ``size`` elements whose first labels hold a
        quote, a backslash and a non-ASCII letter: about 70% of the element
        pairs listed, a -0.0 override on the first two elements, and up to
        ``size`` random overrides."""
        rng = random.Random(seed)
        labels = ['q"', "b\\s", "\u00e9"] + [f"e{i}" for i in range(3, size)]
        labels = labels[:size]

        def subset(mask):
            return "{%s}" % ", ".join(l for i, l in enumerate(labels) if mask >> i & 1)

        lines = ["frame: " + ", ".join(labels), "nonexclusivity:"]
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.7:
                    lines.append(f"  {labels[i]} ~ {labels[j]}: {rng.random()!r}")
        lines.append("overrides:")
        overrides = {(1, 2): -0.0} if size >= 2 else {}
        full = (1 << size) - 1
        for _ in range(size):
            m1 = rng.randint(1, full)
            m2 = rng.randint(1, full) & ~m1
            if m2 and (m1, m2) not in overrides and (m2, m1) not in overrides:
                overrides[(m1, m2)] = rng.random()
        for (m1, m2), d in overrides.items():
            lines.append(f"  {subset(m1)} ~ {subset(m2)}: {d!r}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("size", range(1, 9))
    def test_rendering_matches_the_oracle(self, capsys, tmp_path, size):
        text = self._scenario(5000 + size, size)
        path = tmp_path / "matrix.scn"
        path.write_bytes(text.encode("utf-8"))
        matrix = parse_scenario(text.encode("utf-8")).build_model().matrix()
        for kind, expected in (("expand", matrix), ("exclusive", matrix.exclusive())):
            for output in ("human", "machine"):
                code, out, err = run(capsys, "matrix", kind, str(path), "--output", output)
                assert (code, err) == (0, "")
                assert out == render_matrix(expected, kind, output)

    @pytest.mark.parametrize("kind", ["expand", "exclusive"])
    @pytest.mark.parametrize("output", ["human", "machine"])
    def test_renders_without_float_rows(self, capsys, monkeypatch, tmp_path, kind, output):
        text = self._scenario(5100, 6)
        path = tmp_path / "matrix.scn"
        path.write_bytes(text.encode("utf-8"))
        matrix = parse_scenario(text.encode("utf-8")).build_model().matrix()
        expected = render_matrix(matrix if kind == "expand" else matrix.exclusive(), kind, output)

        def no_rows(cls, ranked):
            raise AssertionError("dnumbers matrix built the float rows")

        monkeypatch.setattr(fusion.DegreeMatrix, "_complete", classmethod(no_rows))
        code, out, err = run(capsys, "matrix", kind, str(path), "--output", output)
        assert (code, err, out) == (0, "", expected)

    def test_one_element_frame(self, capsys, tmp_path):
        path = tmp_path / "one.scn"
        path.write_text("frame: x\n")
        outputs = {
            (kind, output): run(capsys, "matrix", kind, str(path), "--output", output)
            for kind in ("expand", "exclusive")
            for output in ("human", "machine")
        }
        machine = '{\n  "kind": "%s",\n  "rows": [\n    [\n      %s\n    ]\n  ],\n' \
            '  "subsets": [\n    [\n      "x"\n    ]\n  ]\n}\n'
        assert outputs == {
            ("expand", "human"): (0, "    {x}\n{x}   1\n", ""),
            ("exclusive", "human"): (0, "    {x}\n{x}   0\n", ""),
            ("expand", "machine"): (0, machine % ("nonexclusive", "1.0"), ""),
            ("exclusive", "machine"): (0, machine % ("exclusive", "0.0"), ""),
        }

    def test_width_comes_from_the_printed_cells(self, capsys, tmp_path):
        # The override hides the only cells of the pair degree, so neither
        # 0.123457 nor its complement 0.876543 is printed or sets the width.
        path = tmp_path / "hidden.scn"
        path.write_text("frame: a, b\nnonexclusivity:\n  a ~ b: 0.1234567\n"
                        "overrides:\n  {a} ~ {b}: 0.5\n")
        model = parse_scenario(path.read_bytes()).build_model()
        code, out, _ = run(capsys, "matrix", "expand", str(path))
        assert code == 0
        assert out == render_matrix(model.matrix(), "expand", "human")
        assert out.splitlines() == [
            "          {a}    {b} {a, b}",
            "   {a}      1    0.5      1",
            "   {b}    0.5      1      1",
            "{a, b}      1      1      1",
        ]
        code, out, _ = run(capsys, "matrix", "exclusive", str(path), "--output", "machine")
        assert out == render_matrix(model.matrix().exclusive(), "exclusive", "machine")
        assert "0.8765433" not in out


class TestValidate:
    def test_valid_scenario(self, capsys):
        code, out, _ = run(capsys, "validate", FUSION)
        assert code == 0
        assert "scenario: OK" in out
        assert "dnumber D1: Q = 0.9000 (incomplete)" in out

    def test_valid_with_f_table(self, capsys):
        code, out, _ = run(
            capsys, "validate", FUSION, "--f-table", str(FTABLES / "product_11.txt")
        )
        assert code == 0
        assert "f-table: OK (121 points)" in out

    def test_files_with_a_byte_order_mark(self, capsys, tmp_path):
        scenario, table = tmp_path / "bom.scn", tmp_path / "bom.txt"
        scenario.write_bytes(b"\xef\xbb\xbf" + (SCENARIOS / "abc_fusion.scn").read_bytes())
        table.write_bytes(b"\xef\xbb\xbf" + (FTABLES / "product_11.txt").read_bytes())
        code, out, _ = run(capsys, "validate", str(scenario), "--f-table", str(table))
        assert code == 0
        assert "f-table: OK (121 points)" in out
        assert run(capsys, "qvalue", str(scenario)) == run(capsys, "qvalue", FUSION)

    @pytest.mark.parametrize(
        "table", ["bad_bound.txt", "missing_corner.txt", "bad_corner.txt", "bad_syntax.txt", "bad_range.txt"]
    )
    def test_bad_f_tables_exit_1(self, capsys, table):
        code, _, err = run(
            capsys, "validate", FUSION, "--f-table", str(FTABLES / table)
        )
        assert code == 1
        assert err.startswith("error[")


class TestExitCodes:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("syntax_bad_entry.scn", "scenario-syntax-error"),
            ("unknown_label.scn", "unknown-label"),
            ("out_of_range_weight.scn", "out-of-range-value"),
            ("duplicate_pair.scn", "duplicate-pair"),
        ],
    )
    def test_parse_errors_exit_1(self, capsys, name, kind):
        code, _, err = run(capsys, "validate", str(BAD / name))
        assert code == 1
        assert err.startswith(f"error[{kind}]:")
        assert "line" in err

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("mass_overflow.scn", "mass-overflow"),
            ("empty_set_mass.scn", "empty-set-assignment"),
            ("intersecting_override.scn", "intersecting-pair"),
            ("frame_too_large.scn", "frame-too-large"),
        ],
    )
    def test_domain_errors_exit_2(self, capsys, name, kind):
        code, _, err = run(capsys, "validate", str(BAD / name))
        assert code == 2
        assert err.startswith(f"error[{kind}]:")

    def test_scenario_over_the_byte_cap_exits_1(self, capsys, tmp_path):
        path = tmp_path / "large.scn"
        head = (SCENARIOS / "abc_fusion.scn").read_bytes() + b"#"
        path.write_bytes(head + b"x" * (MAX_SCENARIO_BYTES + 1 - len(head)))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1 and err.startswith("error[scenario-too-large]:")
        path.write_bytes(head + b"x" * (MAX_SCENARIO_BYTES - len(head)))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0 and out.startswith("scenario: OK")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.scn")
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "combine" in out
        assert out == build_parser().format_help()


class TestStartup:
    """What importing the CLI and printing a human report load, in a fresh
    interpreter; the interpreter's own start-up may load standard modules
    already, so only what the package adds is counted."""

    SCRIPT = """
import io, sys
from contextlib import redirect_stdout
before = set(sys.modules)
import dnumbers.cli
imported = set(sys.modules) - before
with redirect_stdout(io.StringIO()):
    code = dnumbers.cli.run_cli(["combine", "--rule", "dcr2", sys.argv[1]])
ran = set(sys.modules) - before - imported
print(code)
print(" ".join(sorted(imported)))
print(" ".join(sorted(ran)))
"""

    def test_import_and_human_combine_load_no_json_or_hashlib(self):
        src = str(REPO / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, FUSION],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        code, imported, ran = proc.stdout.splitlines()
        assert code == "0"
        assert "dnumbers.cli" in imported.split()
        assert not {"dataclasses", "inspect", "hashlib", "json"} & set(imported.split())
        assert not {"hashlib", "json"} & set(ran.split())

    def test_machine_output_still_carries_the_scenario_digest(self, capsys):
        code, out, _ = run(capsys, "combine", "--rule", "dcr2", "--output", "machine", FUSION)
        assert code == 0
        digest = hashlib.sha256((SCENARIOS / "abc_fusion.scn").read_bytes()).hexdigest()
        assert json.loads(out)["inputs"]["scenario_sha256"] == digest

    def test_human_output_does_not_compute_the_digest(self, capsys, monkeypatch):
        from dnumbers import cli

        calls = []
        monkeypatch.setattr(cli, "_digest", lambda raw: calls.append(raw) or "")
        code, _, _ = run(capsys, "combine", "--rule", "dcr2", FUSION)
        assert code == 0 and calls == []


def _child_env(unbuffered: str) -> dict:
    """The environment of a ``python -m dnumbers`` child that imports this
    tree, with ``PYTHONUNBUFFERED`` set to ``unbuffered`` (unset if empty)."""
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


class TestExit:
    """``main()`` freezes the heap once its report is out, so the collections
    at exit scan nothing; ``run_cli`` and the import, which long-lived
    processes run, freeze nothing, and the atexit handlers still run."""

    @staticmethod
    def _child(script: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=_child_env(unbuffered=""), capture_output=True, text=True, timeout=60,
        )

    def test_main_freezes_the_heap_before_the_atexit_handlers(self, capsys):
        script = (
            "import atexit, gc\n"
            "from dnumbers.cli import main\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "main()\n"
        )
        proc = self._child(script, "qvalue", FUSION)
        assert proc.returncode == 0 and proc.stderr == ""
        report, last = proc.stdout.rsplit("frozen ", 1)
        assert report == run(capsys, "qvalue", FUSION)[1]
        assert int(last) > 0

    def test_import_and_run_cli_freeze_nothing(self):
        script = (
            "import gc, io, sys\n"
            "from contextlib import redirect_stdout\n"
            "import dnumbers.cli\n"
            "imported = gc.get_freeze_count()\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = dnumbers.cli.run_cli(['qvalue', sys.argv[1]])\n"
            "print(code, imported, gc.get_freeze_count())\n"
        )
        proc = self._child(script, FUSION)
        assert proc.stdout == "0 0 0\n"

    def test_run_cli_in_process_leaves_the_freeze_count(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run(capsys, "qvalue", FUSION)
        assert code == 0 and gc.get_freeze_count() == before

    @pytest.mark.parametrize("output", ["human", "machine"])
    def test_main_prints_the_bytes_of_run_cli(self, capsys, output):
        argv = ["combine", "--rule", "dcr2", "--output", output, FUSION]
        code, out, err = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "dnumbers", *argv],
            env=_child_env(unbuffered=""), capture_output=True, timeout=60,
        )
        assert code == proc.returncode == 0
        assert proc.stdout == out.encode() and proc.stderr == err.encode() == b""


class TestClosedStdout:
    def test_reader_closing_the_pipe_ends_quietly_with_141(self, tmp_path):
        rng = random.Random(8)
        labels = [f"e{i}" for i in range(8)]
        pairs = [f"  {a} ~ {b}: {rng.random()!r}" for i, a in enumerate(labels) for b in labels[i + 1:]]
        path = tmp_path / "eight.scn"
        path.write_text("frame: " + ", ".join(labels) + "\nnonexclusivity:\n" + "\n".join(pairs) + "\n")
        src = str(REPO / "src")
        argv = [sys.executable, "-m", "dnumbers", "matrix", "expand", "--output", "machine", str(path)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        full = subprocess.run(argv, env=env, capture_output=True, timeout=60, check=True).stdout
        assert len(full) > 2**19  # 8 times a 64 KiB pipe buffer
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(1024)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert head == full[:1024]
        assert err == b""
        assert code == 141

    def test_closed_pipe_under_buffered_stdout_ends_quietly_with_141(self):
        argv = [sys.executable, "-m", "dnumbers", "matrix", "expand", str(FIXTURES / "matrix_cap12.scn")]
        env = _child_env(unbuffered="")
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(1024)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert len(head) == 1024
        assert err == b""
        assert code == 141


class TestFailingStdout:
    """A standard output that fails, other than a closed pipe, is one error
    line and exit 2, with no traceback and nothing reported again at
    shutdown; ``/dev/full`` fails every write with no space left."""

    @staticmethod
    def _failing_stdout(error: OSError) -> io.StringIO:
        class Failing(io.StringIO):
            def flush(self):
                raise error

        return Failing()

    def test_write_error_in_process_is_one_line_and_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", self._failing_stdout(OSError(errno.EIO, "I/O error")))
        assert run_cli(["qvalue", FUSION]) == 2
        assert capsys.readouterr().err == f"error[os-error]: [Errno {errno.EIO}] I/O error\n"

    @pytest.mark.parametrize("argv", [["--help"], ["matrix", "--help"]], ids=["help", "matrix-help"])
    def test_help_write_error_in_process_is_one_line_and_exit_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", self._failing_stdout(OSError(errno.EIO, "I/O error")))
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error[os-error]: [Errno {errno.EIO}] I/O error\n"

    def test_closed_pipe_in_process_is_left_to_main(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", self._failing_stdout(BrokenPipeError(errno.EPIPE, "x")))
        with pytest.raises(BrokenPipeError):
            run_cli(["qvalue", FUSION])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["qvalue", FUSION],
            ["matrix", "expand", OVERLAPS],
            ["matrix", "expand", str(FIXTURES / "matrix_cap12.scn"), "--output", "machine"],
            ["--help"],
            ["matrix", "--help"],
        ],
        ids=["qvalue", "matrix-expand", "matrix-expand-streamed", "help", "matrix-help"],
    )
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_failed_write_prints_one_error_line_and_exits_2(self, argv, unbuffered):
        # Buffered, stdout still holds the failed bytes when main() returns.
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "dnumbers", *argv],
                env=_child_env(unbuffered), stdout=full, stderr=subprocess.PIPE, timeout=120,
            )
        assert proc.stderr.decode().splitlines() == [
            f"error[os-error]: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        ]
        assert proc.returncode == 2


class TestStdin:
    def test_reads_scenario_from_stdin(self, capsys, monkeypatch):
        data = (SCENARIOS / "abc_fusion.scn").read_bytes()
        monkeypatch.setattr(
            sys, "stdin", type("S", (), {"buffer": io.BytesIO(data)})()
        )
        code, out, _ = run(capsys, "qvalue")
        assert code == 0
        assert "D1: Q = 0.9000" in out
