"""The relation table and its one checker: every row the theory asserts,
tagged by source, and which claim of the paper's abstract each row or
criterion checks."""

from pathlib import Path

import pytest

from convlab.algebra import MAX_ATOMS, Carrier
from convlab.convergence import Convergence
from convlab.report import RELATIONS, figure_nodes, first_violation, rows_named
from convlab.verify import CRITERIA

README = Path(__file__).resolve().parent.parent / "README.md"

# report.REQUIRED and report.MEET_IDENTITIES as they stood before the table
# took their place, copied literally
OLD_MEET_IDENTITIES = (
    ("lambda_ls", "lambda_li", "lambda_s"),
    ("lambda_ls_star", "lambda_li_star", "lambda_s_star"),
    ("lim_O_ls", "lim_O_li", "lim_O_lsi"),
)
OLD_REQUIRED = (
    ("lambda_s", "<", "lambda_ls"),
    ("lambda_s", "<", "lambda_li"),
    ("lambda_s_star", "<", "lambda_ls_star"),
    ("lambda_s_star", "<", "lambda_li_star"),
    ("lim_O_lsi", "<", "lim_O_ls"),
    ("lim_O_lsi", "<", "lim_O_li"),
    ("lambda_ls", "<=", "lambda_ls_star"),
    ("lambda_li", "<=", "lambda_li_star"),
    ("lambda_s", "<=", "lambda_s_star"),
    ("lambda_ls_star", "<=", "lim_O_ls"),
    ("lambda_li_star", "<=", "lim_O_li"),
    ("lambda_s_star", "=", "lim_O_s"),
    ("O_ls", "<=", "O_s"),
    ("O_li", "<=", "O_s"),
    ("O_lsi", "<=", "O_s"),
    ("O_ls", "<", "O_lsi"),
    ("O_li", "<", "O_lsi"),
)


class TestTable:
    def test_no_old_row_dropped_or_weakened(self):
        old = [(f"{a} & {b}", "=", c) for a, b, c in OLD_MEET_IDENTITIES] + list(OLD_REQUIRED)
        assert [row[:3] for row in RELATIONS[: len(old)]] == old

    def test_rows_are_well_formed(self):
        names = set(figure_nodes(Carrier(1)))
        for lhs, rel, rhs, source in RELATIONS:
            assert rel in ("<=", "<", "=")
            assert source in ("general", "omega2", "maharam", "finite")
            assert rhs in names and set(lhs.split(" & ")) <= names
        assert len({row[:3] for row in RELATIONS}) == len(RELATIONS)

    def test_the_abstract_fixes_these_sources(self):
        source = {" ".join(row[:3]): row[3] for row in RELATIONS}
        assert source["lambda_ls & lambda_li = lambda_s"] == "general"
        assert source["O_ls < O_lsi"] == source["O_li < O_lsi"] == "general"
        assert source["lim_O_lsi = lambda_s"] == "omega2"
        assert source["O_lsi = O_s"] == "maharam"
        # a sequence converges in a join of topologies iff it converges in each
        assert source["lim_O_ls & lim_O_li = lim_O_lsi"] == "general"
        assert RELATIONS[-1][:3] == ("O_lsi", "=", "O_s")

    def test_rows_named_reads_the_table(self):
        assert rows_named("O_lsi = O_s", "lambda_s < lambda_ls") == (RELATIONS[-1], RELATIONS[3])
        with pytest.raises(KeyError):
            rows_named("O_s = O_lsi")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_row_holds(self, n):
        assert first_violation(RELATIONS, figure_nodes(Carrier(n))) is None


class TestChecker:
    """first_violation on the nodes of P(2), one row at a time."""

    @pytest.fixture(scope="class")
    def nodes(self):
        return figure_nodes(Carrier(2))

    def test_failing_inclusion_names_the_first_escape(self, nodes):
        # lambda_ls is not below lambda_s first on the constant-{} class
        row = ("lambda_ls", "<=", "lambda_s", "finite")
        assert first_violation((row,), nodes) == (row, 1)

    def test_strict_row_that_is_equal_has_no_witness(self, nodes):
        row = ("lambda_s", "<", "lim_O_s", "finite")
        assert first_violation((row,), nodes) == (row, None)

    def test_strict_row_that_escapes_names_the_escape(self, nodes):
        # lambda_li escapes lambda_ls first on the class {{0}}, point 1
        row = ("lambda_li", "<", "lambda_ls", "finite")
        assert first_violation((row,), nodes) == (row, 1 << 1)

    def test_equality_names_the_least_escape_either_way(self, nodes):
        # lambda_s escapes nothing; lambda_ls escapes lambda_s first on {{}}
        assert first_violation((("lambda_s", "=", "lambda_ls", "finite"),), nodes)[1] == 1
        assert first_violation((("lambda_ls", "=", "lambda_s", "finite"),), nodes)[1] == 1

    def test_meet_is_read_pointwise(self, nodes):
        row = ("lambda_ls & lambda_li", "=", "lambda_ls", "finite")
        assert first_violation((row,), nodes) == (row, 1)

    def test_known_escapes_are_read_not_computed(self, nodes):
        row = ("lambda_s", "<", "lambda_ls", "general")
        assert first_violation((row,), nodes, {("lambda_s", "lambda_ls"): 4, ("lambda_ls", "lambda_s"): 1}) == (row, 4)
        assert first_violation((row,), nodes, {("lambda_s", "lambda_ls"): None, ("lambda_ls", "lambda_s"): 1}) is None

    def test_first_violated_row_in_the_order_given(self, nodes):
        holds = ("lambda_s", "<", "lambda_ls", "general")
        first = ("lambda_ls", "<=", "lambda_s", "finite")
        second = ("O_s", "<=", "O_ls", "finite")
        assert first_violation((holds, second, first), nodes)[0] == second

    def test_topology_witness_is_an_open_mask(self, nodes):
        # {{0}}, point 1, is open in the discrete O_s but not in O_ls
        row = ("O_s", "<=", "O_ls", "finite")
        assert first_violation((row,), nodes) == (row, 1 << 1)

    def test_exceptions_are_read(self, nodes):
        # lambda_ls with the class {{}, {0}} losing its limits: the singleton
        # columns of lambda_ls_star, yet not equal to it
        tampered = dict(nodes, lambda_ls=Convergence(Carrier(2), nodes["lambda_ls"].lim1, [(0b11, 0)]))
        row = ("lambda_ls_star", "=", "lambda_ls", "finite")
        assert first_violation((row,), tampered) == (row, 0b11)


# The claims of the paper's abstract, each with the rows of RELATIONS that
# check it; the Alexandrov cube is checked by a criterion, not a row.
CLAIMS = (
    ("λ_s = λ_ls ∩ λ_li", lambda *row: row[:3] == ("lambda_ls & lambda_li", "=", "lambda_s")),
    (
        "O_lsi is the least topology extending O_ls and O_li",
        lambda *row: row[:3] in {("O_ls", "<", "O_lsi"), ("O_li", "<", "O_lsi"), ("O_lsi", "<=", "O_s")},
    ),
    ("the general hierarchy", lambda *row: row[3] == "general"),
    ("(ω,2)-distributive algebras: lim_O_lsi = λ_s", lambda *row: row[3] == "omega2"),
    ("Maharam algebras: O_lsi = τ_s", lambda *row: row[3] == "maharam"),
    ("the Alexandrov cube", "coordinatewise cube limits"),
    ("maximal diversity in some collapsing algebras", None),
)


def coverage_lines() -> tuple[list[str], set[str]]:
    """One README table line per claim, and the claims nothing checks.

    A row is checked by ``diagram`` at every atom count it accepts, and by
    each criterion that names it at n = 1..--atoms."""
    by_row = {row: ["diagram"] for row in RELATIONS}
    for i, (_, fn) in enumerate(CRITERIA, start=1):
        for row in getattr(fn, "rows", ()):
            by_row[row].append(f"criterion {i}")
    criteria = {name: i for i, (name, _) in enumerate(CRITERIA, start=1)}
    lines, unchecked = [], set()
    for claim, checks in CLAIMS:
        if isinstance(checks, str):
            lines.append(f"| {claim} | criterion {criteria[checks]} | — | none: sequences of subsets of ω |")
            continue
        rows = [row for row in RELATIONS if checks is not None and checks(*row)]
        if not rows:
            unchecked.add(claim)
            lines.append(f"| {claim} | open: ROADMAP item 4 | — | — |")
            continue
        cell = ", ".join(f"`{' '.join(row[:3])}` ({', '.join(by_row[row])})" for row in rows)
        sources = ", ".join(dict.fromkeys(row[3] for row in rows))
        lines.append(f"| {claim} | {cell} | {sources} | 1..{MAX_ATOMS} |")
    return lines, unchecked


class TestCoverage:
    def test_every_claim_but_diversity_is_checked(self):
        lines, unchecked = coverage_lines()
        assert unchecked == {"maximal diversity in some collapsing algebras"}
        assert len(lines) == len(CLAIMS)

    def test_readme_shows_the_table(self):
        readme = README.read_text(encoding="utf-8").splitlines()
        for line in coverage_lines()[0]:
            assert line in readme

    def test_criteria_that_check_rows(self):
        named = {name: getattr(fn, "rows", None) for name, fn in CRITERIA}
        assert named["pointwise meet identity"] == rows_named("lambda_ls & lambda_li = lambda_s")
        assert named["limit intersection law"] == rows_named("lim_O_ls & lim_O_li = lim_O_lsi")
        assert named["join collapse to discrete/metric"] == rows_named("O_lsi = O_s", "lim_O_lsi = lambda_s")
        assert named["strictness witnesses"] == rows_named("lambda_s < lambda_ls", "O_ls < O_lsi", "O_li < O_lsi")
        assert len(named["star-closure fixed points"]) == 4
        assert sum(rows is not None for rows in named.values()) == 5
