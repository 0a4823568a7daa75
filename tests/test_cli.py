import json
import os
import re
import subprocess
import sys
import time
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import report
from convlab.algebra import Carrier, EPSeq
from convlab.cli import SeqParseError, _grammar, _walk, main, parse_seq_literal
from convlab.report import figure_nodes
from convlab.submeasure import _MAX_TABLE_BYTES

from cli_runner import CliRunner
from oracles import format_seq_literal
from test_acceptance import crash_synthesis

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def runner():
    return CliRunner()


class TestSeqLiteral:
    def test_basic(self):
        p2 = Carrier(2)
        x = parse_seq_literal("[{0,1};{0},{1}]", p2)
        assert x.preperiod == (0b11,)
        assert set(x.period) == {0b01, 0b10}
        assert x.width == 2

    def test_empty_preperiod(self):
        p2 = Carrier(2)
        x = parse_seq_literal("[;{0}]", p2)
        assert x.preperiod == ()
        assert x.period == (0b01,)

    def test_empty_braces_are_bottom(self):
        p2 = Carrier(2)
        assert parse_seq_literal("[;{}]", p2).period == (0,)

    @pytest.mark.parametrize(
        "bad",
        ["", "[;]", "[{0}]", "[;{2}]", "[;{0}]x", "[;{a}]", "[;{0}"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SeqParseError):
            parse_seq_literal(bad, Carrier(2))

    # a missing separator, or a ',' right before ';', ']' or '}', with the
    # position the error names
    SEPARATOR_ERRORS = [
        ("[{0}{1};{0}]", "expected ';' at position 4"),
        ("[;{0}{1}]", "expected ']' at position 5"),
        ("[;{0},]", "',' before ']' at position 5"),
        ("[{0},;{1}]", "',' before ';' at position 4"),
        ("[;{0,}]", "',' before '}' at position 4"),
    ]

    @pytest.mark.parametrize("bad, message", SEPARATOR_ERRORS)
    def test_rejects_missing_or_trailing_separator(self, bad, message):
        with pytest.raises(SeqParseError) as exc:
            parse_seq_literal(bad, Carrier(2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad, message", SEPARATOR_ERRORS)
    def test_cli_rejects_missing_or_trailing_separator(self, bad, message):
        result = CliRunner().invoke(main, ["converge", "--atoms", "2", "--seq", bad])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"bad sequence literal: {message}" in result.output

    def test_error_carries_position(self):
        with pytest.raises(SeqParseError) as exc:
            parse_seq_literal("[;{9}]", Carrier(2))
        assert exc.value.position == 3
        assert "position 3" in str(exc.value)


@st.composite
def epseqs(draw):
    carrier = Carrier(draw(st.integers(min_value=1, max_value=5)))
    points = st.integers(min_value=0, max_value=carrier.size - 1)
    pre = draw(st.lists(points, max_size=4))
    per = draw(st.lists(points, min_size=1, max_size=4))
    return carrier, EPSeq(tuple(pre), tuple(per), carrier.n)


class TestFormatSeqLiteral:
    def test_format(self):
        p3 = Carrier(3)
        x = EPSeq((0b111,), (0b001, 0), p3.n)
        assert format_seq_literal(x) == "[{0,1,2};{0},{}]"

    @given(epseqs())
    def test_round_trip(self, case):
        carrier, x = case
        assert parse_seq_literal(format_seq_literal(x), carrier) == x


@st.composite
def spelled_literals(draw):
    """A sequence over P(n), n = 1..5, and a literal for it: each point's
    atoms in random order, with repeats and leading zeros."""
    carrier, x = draw(epseqs())

    def respell(point: re.Match) -> str:
        atoms = point.group(1).split(",") if point.group(1) else []
        atoms += draw(st.lists(st.sampled_from(atoms), max_size=2)) if atoms else []
        atoms = draw(st.permutations(atoms))
        return "{" + ",".join("0" * draw(st.integers(0, 3)) + a for a in atoms) + "}"

    return carrier, x, re.sub(r"\{([0-9,]*)\}", respell, format_seq_literal(x))


def mutated(draw, text: str) -> str:
    """text with one character inserted, deleted or replaced."""
    char = draw(st.sampled_from("[]{};,0123456789"))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        i = draw(st.integers(0, len(text)))
        return text[:i] + char + text[i:]
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + ("" if kind == "delete" else char) + text[i + 1 :]


def outcome(parse, text: str, carrier: Carrier):
    """The parsed sequence, or a refusal's message and position."""
    try:
        return parse(text, carrier)
    except SeqParseError as exc:
        return str(exc), exc.position


class TestGrammarAgreesWithWalker:
    """The compiled grammar accepts exactly the literals the character walker
    accepts, and both read them alike; a refusal is the walker's."""

    def agree(self, text: str, carrier: Carrier):
        walked = outcome(_walk, text, carrier)
        assert outcome(parse_seq_literal, text, carrier) == walked
        assert (_grammar(carrier.n).fullmatch(text) is not None) == isinstance(walked, EPSeq)
        return walked

    @settings(max_examples=400, deadline=None)
    @given(spelled_literals(), st.data())
    def test_spelled_and_one_character_off(self, case, data):
        carrier, x, text = case
        assert self.agree(text, carrier) == x
        self.agree(mutated(data.draw, text), carrier)


class TestPathologicalLiterals:
    """Long literals parse or refuse in well under a second, with the
    walker's position on a refusal, and never reach int() on a digit run."""

    P5 = Carrier(5)
    ZEROS = "[;{" + "0" * 100_000 + "}]"
    ATOMS = "[;{" + ",".join(str(i % 5) for i in range(50_000)) + "}]"
    # a period of 10,000 points, held entry for entry as written
    PERIOD = "[;" + ",".join("{" + str(i * i % 7 % 5) + "}" for i in range(10_000)) + "]"

    def parse_quickly(self, text: str):
        start = time.perf_counter()
        try:
            return parse_seq_literal(text, self.P5)
        finally:
            assert time.perf_counter() - start < 1

    def test_long_zero_run(self):
        assert self.parse_quickly(self.ZEROS).period == (0b1,)

    def test_many_atoms(self):
        assert self.parse_quickly(self.ATOMS).period == (0b11111,)

    def test_long_period(self):
        x = self.parse_quickly(self.PERIOD)
        assert x.period == tuple(1 << (i * i % 7 % 5) for i in range(10_000))

    @pytest.mark.parametrize(
        "text, position",
        [
            (ZEROS[:-2] + "5}]", 3),
            (ATOMS[:-2] + ",5}]", len(ATOMS) - 1),
            (PERIOD[:-1] + ",{5}]", len(PERIOD) + 1),
        ],
        ids=["zeros", "atoms", "period"],
    )
    def test_out_of_range_at_the_end(self, text, position):
        with pytest.raises(SeqParseError) as exc:
            self.parse_quickly(text)
        assert str(exc.value) == f"atom index out of range for P(5) at position {position}"


class TestConverge:
    def test_alternating_atoms_upper_law(self, runner):
        result = runner.invoke(
            main, ["converge", "--atoms", "2", "--seq", "[;{0},{1}]", "--law", "ls"]
        )
        assert result.exit_code == 0
        assert result.output == "mask=3 atoms={0,1}\n"

    def test_constant_two_sided(self, runner):
        result = runner.invoke(
            main, ["converge", "--atoms", "2", "--seq", "[;{0}]", "--law", "s"]
        )
        assert result.exit_code == 0
        assert result.output == "mask=1 atoms={0}\n"

    def test_lower_law_ignores_preperiod(self, runner):
        result = runner.invoke(
            main, ["converge", "--atoms", "2", "--seq", "[{0,1};{0}]", "--law", "li"]
        )
        assert result.exit_code == 0
        assert result.output == "mask=0 atoms={}\nmask=1 atoms={0}\n"

    def test_no_limits(self, runner):
        result = runner.invoke(
            main, ["converge", "--atoms", "2", "--seq", "[;{0},{1}]", "--law", "s"]
        )
        assert result.exit_code == 0
        assert result.output == "(no limits)\n"

    def test_bad_literal_is_usage_error(self, runner):
        result = runner.invoke(main, ["converge", "--atoms", "2", "--seq", "[;{9}]"])
        assert result.exit_code == 2
        assert "bad sequence literal" in result.output

    # superscript two and Arabic-Indic three both pass str.isdigit()
    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_is_usage_error(self, runner, digit):
        result = runner.invoke(
            main, ["converge", "--atoms", "4", "--seq", "[;{" + digit + "}]"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "expected atom index at position 3" in result.output

    def test_overlong_atom_index_is_usage_error(self, runner):
        # 5,000 digits: past the interpreter's limit on int() conversions
        result = runner.invoke(
            main, ["converge", "--atoms", "2", "--seq", "[;{" + "9" * 5000 + "}]"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "atom index out of range for P(2) at position 3" in result.output
        assert "99" not in result.output

    def test_leading_zeros_are_dropped(self):
        p5 = Carrier(5)
        assert parse_seq_literal("[;{03}]", p5).period == (1 << 3,)
        assert parse_seq_literal("[;{" + "0" * 5000 + "4}]", p5).period == (1 << 4,)
        with pytest.raises(SeqParseError, match="out of range"):
            parse_seq_literal("[;{05}]", p5)

    @pytest.mark.parametrize("atoms", ["0", "6", "-1"])
    def test_atoms_out_of_range(self, runner, atoms):
        result = runner.invoke(
            main, ["converge", "--atoms", atoms, "--seq", "[;{0}]"]
        )
        assert result.exit_code == 2

    # Arabic-Indic two and `_` separators: int() reads them as 2, 2 and 10
    @pytest.mark.parametrize("atoms", ["\u0662", "0_2", "1_0"])
    def test_atoms_must_be_ascii_digits(self, runner, atoms):
        result = runner.invoke(
            main, ["converge", "--atoms", atoms, "--seq", "[;{0}]", "--law", "s"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is not an integer in ASCII digits" in result.output


class TestConvergeAtFiveAtoms:
    # period values as atom lists; the expectation is built from the period's
    # join (limsup) and meet (liminf) masks alone
    PERIODS = [[[0], [1, 4]], [[2, 3]], [[0, 1, 2, 3, 4], [0, 2, 4]], [[], [4]]]

    @pytest.mark.parametrize("law", ["ls", "li", "s"])
    @pytest.mark.parametrize("period", PERIODS)
    def test_limits_follow_limsup_and_liminf(self, runner, law, period):
        values = [sum(1 << i for i in atoms) for atoms in period]
        sup = inf = values[0]
        for v in values:
            sup, inf = sup | v, inf & v
        expected = {
            "ls": [m for m in range(32) if m & sup == sup],
            "li": [m for m in range(32) if m & inf == m],
            "s": [sup] if sup == inf else [],
        }[law]
        literal = "[{1};" + ",".join("{" + ",".join(map(str, a)) + "}" for a in period) + "]"
        result = runner.invoke(
            main, ["converge", "--atoms", "5", "--seq", literal, "--law", law]
        )
        assert result.exit_code == 0
        lines = [
            f"mask={m} atoms={{{','.join(str(i) for i in range(5) if m >> i & 1)}}}"
            for m in expected
        ] or ["(no limits)"]
        assert result.output == "\n".join(lines) + "\n"


class TestDiagram:
    def test_table_output(self, runner):
        result = runner.invoke(main, ["diagram", "--atoms", "2"])
        assert result.exit_code == 0
        assert "collapse: convergences=3 topologies=3" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(main, ["diagram", "--atoms", "2", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["carrier"] == {"atoms": 2}

    def test_dot_output(self, runner):
        result = runner.invoke(main, ["diagram", "--atoms", "2", "--format", "dot"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph diagram {")

    def test_deterministic(self, runner):
        a = runner.invoke(main, ["diagram", "--atoms", "3", "--format", "json"])
        b = runner.invoke(main, ["diagram", "--atoms", "3", "--format", "json"])
        assert a.output == b.output

    def test_unknown_format_rejected(self, runner):
        result = runner.invoke(main, ["diagram", "--format", "yaml"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fmt", ["table", "json", "dot"])
    def test_violated_row_exits_one(self, runner, monkeypatch, fmt):
        # O_lsi replaced by O_li, its limits left honest: {{}} is open in
        # O_ls but not in O_li, so O_ls < O_lsi is the first row to fail
        def tampered(carrier):
            nodes = figure_nodes(carrier)
            nodes["O_lsi"] = nodes["O_li"]
            return nodes

        monkeypatch.setattr(report, "figure_nodes", tampered)
        result = runner.invoke(main, ["diagram", "--atoms", "2", "--format", fmt])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "relation violated: O_ls < O_lsi fails (witness: open {{}})\n"
        assert "Traceback" not in result.output


class TestVerify:
    def test_small_scale_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "--atoms", "2", "--samples", "50", "--seed", "1"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.startswith("[")]
        assert len(lines) == 12
        assert all("PASS" in l for l in lines)

    def test_deterministic_output(self, runner):
        args = ["verify", "--atoms", "2", "--samples", "50", "--seed", "7"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    @pytest.mark.parametrize("samples, detail", [("1", "1 sequence ("), ("20", "20 sequences (")])
    def test_cube_detail_counts_the_sequences(self, runner, samples, detail):
        result = runner.invoke(main, ["verify", "--atoms", "1", "--samples", samples])
        assert result.exit_code == 0, result.output
        cube = next(l for l in result.output.splitlines() if "coordinatewise cube limits" in l)
        assert cube.endswith(f"PASS  coordinatewise cube limits: {detail}the cube has no atom count)")

    # random.Random(-2) draws what random.Random(2) draws
    @pytest.mark.parametrize("seed", ["-2", "-1"])
    def test_negative_seed_rejected(self, runner, seed):
        result = runner.invoke(main, ["verify", "--atoms", "1", "--seed", seed])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"--seed must be >= 0, got {seed}" in result.output

    def test_zero_samples_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--atoms", "2", "--samples", "0"])
        assert result.exit_code == 2

    # 30 digits: far more samples than memory holds; rejected before any is drawn
    @pytest.mark.parametrize("samples", ["100001", "9" * 30])
    def test_samples_above_the_bound_rejected(self, runner, samples):
        result = runner.invoke(main, ["verify", "--atoms", "1", "--samples", samples])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--samples must be in 1..100000" in result.output

    # Arabic-Indic digits: int() reads them as 10 and 1
    @pytest.mark.parametrize(
        "option, value", [("--samples", "\u0661\u0660"), ("--seed", "\u0661")]
    )
    def test_integers_must_be_ascii_digits(self, runner, option, value):
        result = runner.invoke(main, ["verify", "--atoms", "1", option, value])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is not an integer in ASCII digits" in result.output

    # 5,000 digits: past the interpreter's limit on int() conversions
    @pytest.mark.parametrize(
        "args",
        [
            ["converge", "--atoms", "1" * 5000, "--seq", "[;{0}]"],
            ["verify", "--atoms", "1", "--seed", "1" * 5000],
            ["verify", "--atoms", "1", "--samples", "1" * 5000],
        ],
        ids=["atoms", "seed", "samples"],
    )
    def test_overlong_integer_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "an integer of 5000 characters is too long" in result.output
        assert "11" not in result.output

    def test_submeasure_file_checked(self, runner, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("0 0\n1 1/2\n2 1/2\n3 1\n")
        result = runner.invoke(
            main,
            [
                "verify",
                "--atoms",
                "2",
                "--samples",
                "20",
                "--submeasure",
                str(path),
            ],
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "table, message",
        [
            (b"0 0\nx 1\n", "mu.txt:2: expected 'mask value', got 'x 1'"),
            (b"0 0\n1 1/0\n", "mu.txt:2: expected 'mask value', got '1 1/0'"),
            (b"0 0\n1 -1/2\n", "mu.txt:2: value -1/2 is negative"),
            (b"0 0\n1 1/2\n2 1/2\n1 1\n3 1\n", "mu.txt:4: mask 1 already given on line 2"),
            (b"0 0\n\xff 1\n", "mu.txt: not a UTF-8 text file"),
            ("0 0\n\u0661 1\n".encode(), "mu.txt:2: expected 'mask value', got '\u0661 1'"),
            (b"0 0\n1 1_0\n", "mu.txt:2: expected 'mask value', got '1 1_0'"),
            (b"0 0\n1 1e9\n2 1\n3 1\n", "mu.txt:2: expected 'mask value', got '1 1e9'"),
            (b"0 0\n1 1\n2 1\n4 1\n", "mu.txt:4: mask 4 out of range for P(2)"),
            (b"-1 1\n", "mu.txt:1: mask -1 out of range for P(2)"),
            (b"0 0\n\xef\xbb\xbf1 1\n", "mu.txt:2: expected 'mask value', got '\\ufeff1 1'"),
            (b"\xef\xbb\xbf0 0\n\xff 1\n", "mu.txt: not a UTF-8 text file"),
            # a refused line of 40 characters is echoed whole, a longer one cut
            (b"1 1/" + b"0" * 36, "mu.txt:1: expected 'mask value', got '1 1/" + "0" * 36 + "'\n"),
            (b"1 1/" + b"0" * 37, "mu.txt:1: expected 'mask value', got '1 1/" + "0" * 36 + "'... (41 characters)\n"),
            (b"0 " + b"1" * 10**6, "mu.txt:1: expected 'mask value', got '0 " + "1" * 38 + "'... (1000002 characters)\n"),
        ],
        ids=[
            "non-integer-mask", "zero-denominator", "negative-value", "duplicate-mask", "not-utf8",
            "non-ascii-digit", "underscore", "exponent", "mask-too-large", "negative-mask",
            "bom-not-leading", "bom-then-not-utf8", "echo-40", "echo-cut-41", "echo-cut-1mb",
        ],
    )
    def test_bad_submeasure_table_is_usage_error(self, runner, tmp_path, table, message):
        path = tmp_path / "mu.txt"
        path.write_bytes(table)
        result = runner.invoke(
            main, ["verify", "--atoms", "2", "--samples", "20", "--submeasure", str(path)]
        )
        assert result.exit_code == 2
        assert message in result.output
        assert len(result.output) < 1000

    def test_submeasure_table_with_a_byte_order_mark_loads(self, runner, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_bytes(b"\xef\xbb\xbf0 0\n1 1/2\n2 1\n3 1\n")
        result = runner.invoke(main, ["verify", "--atoms", "2", "--submeasure", str(path)])
        assert result.exit_code == 0, result.output
        assert "12/12 criteria passed" in result.output
        assert "loaded table n=2" in result.output

    # a valid table padded by a comment to the cap and one byte past it
    @pytest.mark.parametrize("over, code", [(0, 0), (1, 2)], ids=["at-cap", "one-byte-over"])
    def test_submeasure_file_longer_than_the_cap(self, runner, tmp_path, over, code):
        table = b"0 0\n1 1/2\n2 1/2\n3 1\n#"
        path = tmp_path / "mu.txt"
        path.write_bytes(table + b"x" * (_MAX_TABLE_BYTES - len(table) + over))
        result = runner.invoke(
            main, ["verify", "--atoms", "2", "--samples", "20", "--submeasure", str(path)]
        )
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output
        assert (f"mu.txt: longer than {_MAX_TABLE_BYTES} bytes" in result.output) == bool(over)

    def test_submeasure_file_at_five_atoms(self, runner, tmp_path):
        path = tmp_path / "mu.txt"
        path.write_text("".join(f"{m} {m.bit_count()}/5\n" for m in range(32)))
        result = runner.invoke(
            main, ["verify", "--atoms", "5", "--samples", "10", "--submeasure", str(path)]
        )
        assert result.exit_code == 0, result.output

    def test_details_name_the_atom_counts_covered(self, runner):
        result = runner.invoke(main, ["verify", "--atoms", "5", "--samples", "10"])
        assert result.exit_code == 0, result.output
        lines = {
            l.split("]", 1)[1].split(":", 1)[0].split(None, 1)[1]: l
            for l in result.output.splitlines()
            if l.startswith("[")
        }
        assert len(lines) == 12
        assert all("PASS" in l for l in lines.values())
        # every criterion but the cube's, which has no atom count, runs at every n
        assert "the cube has no atom count" in lines["coordinatewise cube limits"]
        counted = [l for name, l in lines.items() if name != "coordinatewise cube limits"]
        assert len(counted) == 11
        assert all("n=1..5" in l for l in counted)
        assert "n=1..4" not in result.output and "n=1..3" not in result.output
        assert "triangle inequality, n=1..5" in lines["submeasure axioms and metric"]

    def test_crashing_criterion_exits_one_without_traceback(self, runner, monkeypatch):
        crash_synthesis(monkeypatch)
        result = runner.invoke(main, ["verify", "--atoms", "2"])
        assert result.exit_code == 1, result.output
        # a crash that escaped would also exit 1, with the exception kept here
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert (
            "[ 9/12] FAIL  antitone adjunction: ValueError: minimal neighbourhoods must be reflexive and transitive"
            in result.output.splitlines()
        )
        assert result.output.endswith("11/12 criteria passed\n")

    def test_missing_submeasure_file(self, runner):
        result = runner.invoke(
            main, ["verify", "--atoms", "2", "--submeasure", "/nonexistent"]
        )
        assert result.exit_code == 2


# Dedekind number M(5) (OEIS A000372): the down-sets of P(5), which are the
# opens of each one-sided sequential topology.
DEDEKIND_M5 = 7581


class TestDiagramAtFiveAtoms:
    @pytest.mark.parametrize("fmt", ["table", "json", "dot"])
    def test_exits_zero(self, runner, fmt):
        result = runner.invoke(main, ["diagram", "--atoms", "5", "--format", fmt])
        assert result.exit_code == 0, result.output

    def test_topology_sizes(self, runner):
        result = runner.invoke(main, ["diagram", "--atoms", "5", "--format", "json"])
        sizes = {n["name"]: n["size"] for n in json.loads(result.output)["nodes"]}
        assert sizes["O_ls"] == sizes["O_li"] == DEDEKIND_M5
        assert sizes["O_s"] == sizes["O_lsi"] == 2**32

    def test_collapse(self, runner):
        result = runner.invoke(main, ["diagram", "--atoms", "5"])
        assert "collapse: convergences=3 topologies=3" in result.output


# Each subcommand's options and the default its help must name, None for an
# option without one.
HELP_DEFAULTS = {
    "converge": {"--atoms": "2", "--seq": None, "--law": "ls"},
    "diagram": {"--atoms": "3", "--format": "table"},
    "verify": {"--atoms": "3", "--seed": "0", "--samples": "1000", "--submeasure": None},
}


def option_entries(help_text: str) -> dict[str, str]:
    """Each option's entry in a help text, keyed by each of its spellings
    (``-h, --help``): from the line it starts to the next option's line."""
    entries, names = {}, []
    for line in help_text.splitlines():
        words = line.split()
        if words and words[0].startswith("-"):
            names = [w.rstrip(",") for w in takewhile(lambda w: w.startswith("-"), words)]
            entries.update(dict.fromkeys(names, ""))
        for name in names:
            entries[name] += line + "\n"
    return entries


class TestUsageContract:
    """Exit codes and help output that every port of the command line keeps:
    0 and 1 by the result, 2 for a usage error, and never a traceback."""

    def test_group_help_names_every_subcommand(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert "--help" in option_entries(result.output)
        for name in HELP_DEFAULTS:
            assert name in result.output

    @pytest.mark.parametrize("command", sorted(HELP_DEFAULTS))
    def test_subcommand_help_names_every_option_and_default(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        entries = option_entries(result.output)
        assert "--help" in result.output
        for option, default in HELP_DEFAULTS[command].items():
            assert option in entries, result.output
            if default is not None:
                assert f"default: {default}" in entries[option], entries[option]

    def test_no_arguments_is_usage_error(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["converge", "--atom", "2", "--seq", "[;{0}]"],
            ["verify", "--sample", "10"],
            ["converge", "--atoms", "2", "--seq", "[;{0}]", "extra"],
            ["diagram", "--atoms", "2", "extra"],
            ["converge", "--atoms", "2"],
            ["frobnicate"],
        ],
        ids=["atom-prefix", "sample-prefix", "converge-extra", "diagram-extra", "no-seq", "unknown-command"],
    )
    def test_malformed_call_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_unknown_option_is_named_under_its_subcommand(self, runner):
        result = runner.invoke(main, ["converge", "--atom", "2", "--seq", "[;{0}]"])
        assert result.exit_code == 2
        assert result.stderr.endswith("convlab converge: error: unrecognized arguments: --atom 2\n")

    def test_submeasure_directory_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--atoms", "1", "--submeasure", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_repeated_option_last_wins(self, runner):
        result = runner.invoke(main, ["converge", "--atoms", "5", "--atoms", "2", "--seq", "[;{0}]", "--law", "s"])
        assert result.exit_code == 0
        assert result.output == "mask=1 atoms={0}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["converge", "--atoms", "2", "--seq", "[;{0}]"],
            ["diagram", "--atoms", "5", "--format", "json"],
            ["verify", "--atoms", "1", "--samples", "10"],
            ["--help"],
        ],
        ids=["converge", "diagram", "verify", "help"],
    )
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_one_without_traceback(self, args, buffered):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "convlab.cli", *args],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr
