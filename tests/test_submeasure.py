import warnings
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convlab.algebra import Carrier, CarrierMismatchError, EPSeq, liminf
from convlab.convergence import lambda_s
from convlab.report import figure_nodes
from convlab.submeasure import (
    HalfBallReport,
    Submeasure,
    SubmeasureTableError,
    ValidationReport,
    ball,
    halfball_opens,
    metric_topology,
    validate_submeasure,
)
from convlab.topology import discrete, generate, synthesize_O_lambda

from oracles import (
    antidiscrete,
    fraction_values,
    halfball_oracle,
    halfball_sets,
    integer_submeasures,
    metric_neighbourhoods,
    open_masks,
    radii,
    submeasure_axioms,
    zero_classes,
    zero_submeasure,
)

# The counting and truncated measures at n = 1..3, and every integer
# submeasure with values 0..3 on P(2).
STANDARD = {
    f"{law.__name__}-n{n}": law(Carrier(n))
    for n in (1, 2, 3)
    for law in (Submeasure.counting, Submeasure.truncated_cardinality)
}
CENSUS = integer_submeasures(Carrier(2), 3)
MEASURES = [pytest.param(mu, id=name) for name, mu in STANDARD.items()] + [
    pytest.param(mu, id=f"integer-{'-'.join(map(str, fraction_values(mu)))}") for mu in CENSUS
]


@cache
def sides(n: int):
    """The diagram's O_ls and O_li on P(n)."""
    nodes = figure_nodes(Carrier(n))
    return nodes["O_ls"], nodes["O_li"]


def halfballs(mu: Submeasure, c: int, r: Fraction) -> HalfBallReport:
    """``halfball_opens`` around the point c in the diagram's O_ls and O_li."""
    return halfball_opens(mu, c, r, *sides(mu.carrier.n))


class TestValidation:
    def test_counting_measure_passes_everything(self, p3):
        report = validate_submeasure(Submeasure.counting(p3))
        assert report.zero_on_bottom
        assert report.monotone
        assert report.subadditive
        assert report.strictly_positive
        assert report.continuous
        assert report.continuous_note == "finite-trivial"

    def test_truncated_cardinality_is_submeasure_not_measure(self, p3):
        mu = Submeasure.truncated_cardinality(p3)
        report = validate_submeasure(mu)
        assert report.is_submeasure()
        assert report.continuous
        # subadditive but not additive: two disjoint atoms both weigh 1
        v = fraction_values(mu)
        assert v[0b011] < v[0b001] + v[0b010]

    def test_zero_submeasure_not_strictly_positive(self, p2):
        report = validate_submeasure(zero_submeasure(p2))
        assert report.zero_on_bottom and report.monotone and report.subadditive
        assert not report.strictly_positive

    def test_non_monotone_table_detected(self, p2):
        values = [Fraction(0), Fraction(2), Fraction(2), Fraction(1)]
        assert not validate_submeasure(Submeasure(p2, values)).monotone

    def test_wrong_table_size_rejected(self, p2):
        with pytest.raises(SubmeasureTableError):
            Submeasure(p2, [Fraction(0)])

    def test_negative_value_rejected(self, p2):
        with pytest.raises(SubmeasureTableError):
            Submeasure(p2, [Fraction(0), Fraction(-1), Fraction(1), Fraction(1)])


@st.composite
def fraction_tables(draw):
    """A table on P(1..3) of fractions with numerators 0..12 and denominators
    1..12, so the values seldom share a denominator.  Half the draws are
    lifted to a monotone table, each value the largest at or below its mask,
    and half get 0 on the bottom, so submeasures, monotone tables that are
    not subadditive and tables that are not monotone all occur."""
    m = 1 << draw(st.integers(1, 3))
    fractions = st.builds(Fraction, st.integers(0, 12), st.integers(1, 12))
    v = draw(st.lists(fractions, min_size=m, max_size=m))
    if draw(st.booleans()):
        v[0] = Fraction(0)
    if draw(st.booleans()):
        v = [max(v[s] for s in range(m) if s & ~a == 0) for a in range(m)]
    return v


# a tie that floats get wrong (5/6 <= 1/3 + 1/2 is False in floats), a sum
# just over, a table that is not monotone and one that is not subadditive
@example([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)])
@example([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(6, 7)])
@example([Fraction(0), Fraction(2), Fraction(2), Fraction(1)])
@example([Fraction(0), Fraction(1), Fraction(1), Fraction(5)])
@settings(max_examples=300, deadline=None)
@given(fraction_tables())
def test_integer_axioms_match_the_definitions(values):
    assert_table_matches_the_definitions(values)


def assert_table_matches_the_definitions(values):
    """The table a Submeasure holds for ``values``, its axioms, its metric
    topology when it is a submeasure, and its balls and half-balls at every
    point and radius of ``oracles.radii``, against the definitions on the
    fractions."""
    carrier = Carrier(len(values).bit_length() - 1)
    mu = Submeasure(carrier, values)
    assert fraction_values(mu) == tuple(map(Fraction, values))
    report = validate_submeasure(mu)
    assert report == ValidationReport(*submeasure_axioms(list(map(Fraction, values))))
    if report.is_submeasure():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert metric_topology(mu) == generate(carrier, zero_classes(mu))
    TestAgainstTheOracle.oracle_flags(mu)


class TestMetricTopology:
    def test_counting_measure_gives_discrete(self, p2):
        topo = metric_topology(Submeasure.counting(p2))
        assert topo == discrete(p2)
        assert len(open_masks(topo)) == 16

    def test_non_submeasure_refused(self, p2):
        # nonzero on the bottom
        with pytest.raises(SubmeasureTableError, match="^value table violates the submeasure axioms$"):
            metric_topology(Submeasure(p2, [1, 1, 1, 1]))

    def test_zero_submeasure_gives_antidiscrete(self, p2):
        with pytest.warns(UserWarning):
            topo = metric_topology(zero_submeasure(p2))
        assert topo == antidiscrete(p2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_two_sided_sequential_topology(self, n):
        carrier = Carrier(n)
        assert metric_topology(Submeasure.counting(carrier)) == synthesize_O_lambda(
            lambda_s(carrier)
        )

    def test_small_balls_are_singletons(self, p2):
        mu = Submeasure.counting(p2)
        for a in range(p2.size):
            assert ball(mu, a, Fraction(1, 4)) == 1 << a

    def test_triangle_inequality(self, p3):
        # the distance of a and b is mu of their symmetric difference
        v = fraction_values(Submeasure.counting(p3))
        for a in range(p3.size):
            for b in range(p3.size):
                for c in range(p3.size):
                    assert v[a ^ c] <= v[a ^ b] + v[b ^ c]

    def test_triangle_inequality_truncated(self, p3):
        v = fraction_values(Submeasure.truncated_cardinality(p3))
        for a in range(p3.size):
            for b in range(p3.size):
                for c in range(p3.size):
                    assert v[a ^ c] <= v[a ^ b] + v[b ^ c]


class TestDecreasingChains:
    def test_limit_along_chain_is_value_at_meet(self, p3):
        v = fraction_values(Submeasure.counting(p3))
        # decreasing chains on a finite carrier stabilize at their meet
        for a in range(p3.size):
            for b in range(p3.size):
                if b & a == b:
                    chain = EPSeq((a,), (b,), p3.n)
                    assert v[liminf(chain)] == v[b]


class TestHalfBalls:
    def test_half_balls_open_and_sandwiched(self, p2):
        mu = Submeasure.counting(p2)
        report = halfballs(mu, 0b01, Fraction(1))
        assert report == HalfBallReport(True, True, True)

    def test_huge_radius_gives_whole_carrier(self, p2):
        mu = Submeasure.counting(p2)
        report = halfballs(mu, 0b01, Fraction(10))
        assert report.o1_open_in_left and report.o2_open_in_right and report.sandwich

    def test_bottom_center_makes_o2_trivial(self, p2):
        # mu(0 - x) = 0 < r/2 for every x: o2 is all of P(2), open in O_li
        mu = Submeasure.counting(p2)
        report = halfballs(mu, 0, Fraction(1))
        flags, _ = halfball_oracle(mu, 0, Fraction(1))
        assert halfball_sets(mu, 0, Fraction(1))[1] == set(range(p2.size))
        assert tuple(report) == flags
        assert report.o2_open_in_right

    def test_all_centers_and_radii(self, p3):
        mu = Submeasure.counting(p3)
        for a in range(p3.size):
            for r in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
                report = halfballs(mu, a, r)
                assert report.o1_open_in_left
                assert report.o2_open_in_right
                assert report.sandwich

    def test_given_topologies_are_the_ones_read(self, p2):
        # around {0} at radius 1 the half-balls are {0, 1} and {1, 3}: open
        # in the discrete topology, not in the antidiscrete one
        mu, c = Submeasure.counting(p2), 1
        assert halfball_opens(mu, c, Fraction(1), discrete(p2), discrete(p2)) == HalfBallReport(True, True, True)
        assert halfball_opens(mu, c, Fraction(1), antidiscrete(p2), antidiscrete(p2)) == HalfBallReport(False, False, True)

    @pytest.mark.parametrize("c", [-1, 4])
    def test_point_mask_outside_the_carrier(self, p2, c):
        o = discrete(p2)
        with pytest.raises(ValueError, match=f"point mask {c} is not a point of P\\(2\\)"):
            halfball_opens(Submeasure.counting(p2), c, Fraction(1), o, o)

    @pytest.mark.parametrize("c", [-1, 4])
    def test_ball_point_outside_the_carrier(self, p2, c):
        # -1 would read the table from its end, and 4 past it
        with pytest.raises(ValueError, match=f"point mask {c} is not a point of P\\(2\\)"):
            ball(Submeasure.counting(p2), c, Fraction(1))

    def test_topology_on_another_carrier(self, p2):
        with pytest.raises(CarrierMismatchError):
            halfball_opens(Submeasure.counting(p2), 0, Fraction(1), discrete(p2), discrete(Carrier(3)))


class TestAgainstTheOracle:
    """The half-ball step, the balls and the metric topology against their
    definitions in ``oracles``, for every point and every radius of
    ``oracles.radii``."""

    def test_integer_census_on_p2(self):
        assert len(CENSUS) == 20
        assert all(validate_submeasure(mu).is_submeasure() for mu in CENSUS)
        assert sum(validate_submeasure(mu).strictly_positive for mu in CENSUS) == 13

    def test_counting_and_truncated_cases(self):
        assert sum(mu.carrier.size * len(radii(mu)) for mu in STANDARD.values()) == 104

    @staticmethod
    def oracle_flags(mu):
        """The oracle's flags at every point and radius, once the report and
        the ball have matched them."""
        seen = []
        for a in range(mu.carrier.size):
            for r in radii(mu):
                flags, ball_mask = halfball_oracle(mu, a, r)
                assert tuple(halfballs(mu, a, r)) == flags
                assert ball(mu, a, r) == ball_mask
                seen.append(flags)
        return seen

    @pytest.mark.parametrize("mu", MEASURES)
    def test_halfballs_and_balls(self, mu):
        # o1 is a down-set by monotonicity, o2 an up-set, and the
        # intersection lies in the ball by subadditivity
        assert set(self.oracle_flags(mu)) == {(True, True, True)}
        v = fraction_values(mu)
        for a in range(mu.carrier.size):
            for r in radii(mu):
                for x in range(mu.carrier.size):
                    if v[x & ~a] < r / 2 and v[a & ~x] < r / 2:
                        assert v[x ^ a] <= v[x & ~a] + v[a & ~x] < r

    # Without monotonicity o1 need not be a down-set, and without
    # subadditivity the half-balls' intersection can leave the ball: the
    # report must still follow the definitions, flag by flag.
    @pytest.mark.parametrize(
        "values, failing", [((0, 2, 2, 1), 0), ((0, 1, 1, 5), 2)], ids=["not-monotone", "not-subadditive"]
    )
    def test_tables_that_are_not_submeasures(self, p2, values, failing):
        flags = self.oracle_flags(Submeasure(p2, map(Fraction, values)))
        assert not all(f[failing] for f in flags)

    @pytest.mark.parametrize(
        "mu",
        MEASURES + [pytest.param(zero_submeasure(Carrier(n)), id=f"zero-n{n}") for n in (1, 2, 3)],
    )
    def test_metric_topology(self, mu):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            topo = metric_topology(mu)
        assert bool(caught) == (not validate_submeasure(mu).strictly_positive)
        assert topo == generate(mu.carrier, zero_classes(mu))
        assert list(topo.min_neighborhoods) == metric_neighbourhoods(mu)


class TestIntegerTable:
    """A table is held as integers over one denominator; Fraction is only the
    view ``oracles.fraction_values``."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integer_census_over_denominators(self, n):
        # every census table, and the same tables divided by 3 and by 12
        for mu in integer_submeasures(Carrier(n), 3):
            assert mu.denominator == 1
            for k in (1, 3, 12):
                assert_table_matches_the_definitions([Fraction(v, k) for v in mu.scaled])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counting_and_truncated_tables(self, n):
        car = Carrier(n)
        counting, truncated = Submeasure.counting(car), Submeasure.truncated_cardinality(car)
        assert fraction_values(counting) == tuple(Fraction(m.bit_count(), n) for m in range(car.size))
        assert fraction_values(truncated) == tuple(Fraction(min(1, m.bit_count())) for m in range(car.size))
        assert (counting.denominator, truncated.denominator) == (n, 1)

    def test_table_is_over_the_least_common_denominator(self, p2):
        mu = Submeasure(p2, [0, Fraction(2, 6), Fraction(1, 4), "7/12"])
        assert (mu.denominator, mu.scaled) == (12, (0, 4, 3, 7))

    def test_equal_fractions_spelled_apart_load_alike(self, tmp_path, p2):
        tables = []
        for third in ("1/3", "2/6"):
            path = tmp_path / "mu.txt"
            path.write_text(f"0 0\n1 {third}\n2 1/2\n3 5/6\n")
            mu = Submeasure.from_file(str(path), p2)
            tables.append((mu.denominator, mu.scaled))
        assert tables == [(6, (0, 2, 3, 5))] * 2


class TestFileLoading:
    def test_round_trip(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        lines = ["# counting measure on P(2)"]
        for m in range(p2.size):
            lines.append(f"{m} {Fraction(bin(m).count('1'), 2)}")
        path.write_text("\n".join(lines) + "\n")
        mu = Submeasure.from_file(str(path), p2)
        assert fraction_values(mu) == fraction_values(Submeasure.counting(p2))
        assert (mu.denominator, mu.scaled) == (2, (0, 1, 1, 2))

    def test_partial_table_rejected(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        path.write_text("0 0\n1 1/2\n")
        with pytest.raises(SubmeasureTableError):
            Submeasure.from_file(str(path), p2)

    def test_repeated_mask_names_both_lines(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        path.write_text("0 0\n1 1/2\n# again\n1 1/2\n2 1/2\n3 1\n")
        with pytest.raises(SubmeasureTableError, match=r":4: mask 1 already given on line 2$"):
            Submeasure.from_file(str(path), p2)

    def test_malformed_line_rejected(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        path.write_text("0 0 extra\n")
        with pytest.raises(SubmeasureTableError):
            Submeasure.from_file(str(path), p2)
