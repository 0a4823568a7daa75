from fractions import Fraction

import pytest

from convlab.algebra import Carrier, CarrierMismatchError
from convlab.convergence import lambda_s
from convlab.submeasure import (
    HalfBallReport,
    Submeasure,
    SubmeasureTableError,
    ball,
    check_halfball_opens,
    metric_topology,
    validate_submeasure,
)
from convlab.topology import discrete, synthesize_O_lambda

from oracles import antidiscrete, open_masks, zero_submeasure


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
        a, b = p3.element([0]), p3.element([1])
        assert mu(p3.element([0, 1])) < mu(a) + mu(b)

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


class TestMetricTopology:
    def test_counting_measure_gives_discrete(self, p2):
        topo = metric_topology(Submeasure.counting(p2))
        assert topo == discrete(p2)
        assert len(open_masks(topo)) == 16

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
        for a in p2.elements:
            assert ball(mu, a, Fraction(1, 4)) == frozenset({a})

    def test_triangle_inequality(self, p3):
        mu = Submeasure.counting(p3)
        for a in p3.elements:
            for b in p3.elements:
                for c in p3.elements:
                    assert mu.distance(a, c) <= mu.distance(a, b) + mu.distance(b, c)

    def test_triangle_inequality_truncated(self, p3):
        mu = Submeasure.truncated_cardinality(p3)
        for a in p3.elements:
            for b in p3.elements:
                for c in p3.elements:
                    assert mu.distance(a, c) <= mu.distance(a, b) + mu.distance(b, c)


class TestDecreasingChains:
    def test_limit_along_chain_is_value_at_meet(self, p3):
        from convlab.algebra import EPSeq, liminf

        mu = Submeasure.counting(p3)
        # decreasing chains on a finite carrier stabilize at their meet
        for a in p3.elements:
            for b in p3.elements:
                if b.mask & a.mask == b.mask:
                    chain = EPSeq((a,), (b,))
                    assert mu(liminf(chain)) == mu(b)


class TestHalfBalls:
    def test_half_balls_open_and_sandwiched(self, p2):
        mu = Submeasure.counting(p2)
        report = check_halfball_opens(mu, p2.element([0]), Fraction(1))
        assert report == HalfBallReport(True, True, True)

    def test_huge_radius_gives_whole_carrier(self, p2):
        mu = Submeasure.counting(p2)
        report = check_halfball_opens(mu, p2.element([0]), Fraction(10))
        assert report.o1_open_in_left and report.o2_open_in_right and report.sandwich

    def test_bottom_center_makes_o2_trivial(self, p2):
        mu = Submeasure.counting(p2)
        half = Fraction(1, 2)
        o2 = [x for x in p2.elements if mu.values[p2.bottom.mask & ~x.mask] < half]
        assert frozenset(o2) == frozenset(p2.elements)

    def test_all_centers_and_radii(self, p3):
        mu = Submeasure.counting(p3)
        for a in p3.elements:
            for r in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
                report = check_halfball_opens(mu, a, r)
                assert report.o1_open_in_left
                assert report.o2_open_in_right
                assert report.sandwich


class TestForeignElements:
    """An element of P(1) would read a wrong entry of a P(2) table, and one
    of P(3) an entry past its end; both are refused."""

    @pytest.fixture(params=[1, 3])
    def foreign(self, request):
        return Carrier(request.param).element([0])

    def test_value(self, p2, foreign):
        with pytest.raises(CarrierMismatchError):
            Submeasure.counting(p2)(foreign)

    def test_distance(self, p2, foreign):
        with pytest.raises(CarrierMismatchError):
            Submeasure.counting(p2).distance(p2.bottom, foreign)

    def test_ball(self, p2, foreign):
        with pytest.raises(CarrierMismatchError):
            ball(Submeasure.counting(p2), foreign, Fraction(1))

    def test_halfball_opens(self, p2, foreign):
        with pytest.raises(CarrierMismatchError):
            check_halfball_opens(Submeasure.counting(p2), foreign, Fraction(1))


class TestFileLoading:
    def test_round_trip(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        lines = ["# counting measure on P(2)"]
        for m in range(p2.size):
            lines.append(f"{m} {Fraction(bin(m).count('1'), 2)}")
        path.write_text("\n".join(lines) + "\n")
        mu = Submeasure.from_file(str(path), p2)
        assert mu.values == Submeasure.counting(p2).values

    def test_partial_table_rejected(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        path.write_text("0 0\n1 1/2\n")
        with pytest.raises(SubmeasureTableError):
            Submeasure.from_file(str(path), p2)

    def test_malformed_line_rejected(self, tmp_path, p2):
        path = tmp_path / "mu.txt"
        path.write_text("0 0 extra\n")
        with pytest.raises(SubmeasureTableError):
            Submeasure.from_file(str(path), p2)
