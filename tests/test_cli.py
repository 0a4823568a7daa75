import json

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from convlab.algebra import Carrier, EPSeq
from convlab.cli import SeqParseError, main, parse_seq_literal

from oracles import format_seq_literal


@pytest.fixture
def runner():
    return CliRunner()


class TestSeqLiteral:
    def test_basic(self):
        p2 = Carrier(2)
        x = parse_seq_literal("[{0,1};{0},{1}]", p2)
        assert x.preperiod == (p2.element([0, 1]),)
        assert set(x.period) == {p2.element([0]), p2.element([1])}

    def test_empty_preperiod(self):
        p2 = Carrier(2)
        x = parse_seq_literal("[;{0}]", p2)
        assert x.preperiod == ()
        assert x.period == (p2.element([0]),)

    def test_empty_braces_are_bottom(self):
        p2 = Carrier(2)
        assert parse_seq_literal("[;{}]", p2).period == (p2.bottom,)

    @pytest.mark.parametrize(
        "bad",
        ["", "[;]", "[{0}]", "[;{2}]", "[;{0}]x", "[;{a}]", "[;{0}"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SeqParseError):
            parse_seq_literal(bad, Carrier(2))

    def test_error_carries_position(self):
        with pytest.raises(SeqParseError) as exc:
            parse_seq_literal("[;{9}]", Carrier(2))
        assert exc.value.position == 3
        assert "position 3" in str(exc.value)


@st.composite
def epseqs(draw):
    carrier = Carrier(draw(st.integers(min_value=1, max_value=5)))
    elems = st.integers(min_value=0, max_value=carrier.size - 1).map(
        lambda m: carrier.elements[m]
    )
    pre = draw(st.lists(elems, max_size=4))
    per = draw(st.lists(elems, min_size=1, max_size=4))
    return carrier, EPSeq(tuple(pre), tuple(per))


class TestFormatSeqLiteral:
    def test_format(self):
        p3 = Carrier(3)
        x = EPSeq((p3.top,), (p3.element([0]), p3.bottom))
        assert format_seq_literal(x) == "[{0,1,2};{},{0}]"

    @given(epseqs())
    def test_round_trip(self, case):
        carrier, x = case
        assert parse_seq_literal(format_seq_literal(x), carrier) == x


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
        assert parse_seq_literal("[;{03}]", p5).period == (p5.element([3]),)
        assert parse_seq_literal("[;{" + "0" * 5000 + "4}]", p5).period == (p5.element([4]),)
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
        ],
        ids=[
            "non-integer-mask", "zero-denominator", "negative-value", "duplicate-mask", "not-utf8",
            "non-ascii-digit", "underscore",
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
        assert "n=1..5" in lines["sequential topology open counts"]
        assert "n=1..3" in lines["antitone adjunction"]
        assert "n=1..5" not in lines["antitone adjunction"]
        assert "triangle inequality n=1..3" in lines["submeasure axioms and metric"]

    def test_missing_submeasure_file(self, runner):
        result = runner.invoke(
            main, ["verify", "--atoms", "2", "--submeasure", "/nonexistent"]
        )
        assert result.exit_code == 2


class TestAtomCapEnv:
    def test_env_lowers_cap(self, runner, monkeypatch):
        monkeypatch.setenv("CONVLAB_MAX_ATOMS", "2")
        result = runner.invoke(main, ["diagram", "--atoms", "3"])
        assert result.exit_code == 2
        assert "1..2" in result.output

    def test_env_cannot_raise_cap(self, runner, monkeypatch):
        monkeypatch.setenv("CONVLAB_MAX_ATOMS", "9")
        result = runner.invoke(
            main, ["converge", "--atoms", "6", "--seq", "[;{0}]"]
        )
        assert result.exit_code == 2

    def test_garbage_env_rejected(self, runner, monkeypatch):
        monkeypatch.setenv("CONVLAB_MAX_ATOMS", "lots")
        result = runner.invoke(main, ["diagram", "--atoms", "2"])
        assert result.exit_code == 2

    def test_env_must_be_ascii_digits(self, runner, monkeypatch):
        # Arabic-Indic two: int() reads it as 2, which would allow --atoms 2
        monkeypatch.setenv("CONVLAB_MAX_ATOMS", "\u0662")
        result = runner.invoke(main, ["diagram", "--atoms", "2"])
        assert result.exit_code == 2
        assert "CONVLAB_MAX_ATOMS must be an integer" in result.output

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_env_must_be_positive(self, runner, monkeypatch, env):
        # a cap below one used to be ignored, leaving the default cap of 5
        monkeypatch.setenv("CONVLAB_MAX_ATOMS", env)
        result = runner.invoke(main, ["converge", "--atoms", "5", "--seq", "[;{0}]", "--law", "s"])
        assert result.exit_code == 2
        assert f"CONVLAB_MAX_ATOMS must be at least 1, got '{env}'" in result.output


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
