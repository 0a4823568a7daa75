import random

import pytest
from hypothesis import given, settings

from convlab.algebra import Carrier, EPSeq
from convlab.convergence import hbar_witness
from convlab.seqclass import InfClass, inf_class, representative, subsequence_classes

from oracles import (
    all_classes,
    class_repr,
    drop_prefix,
    least_singleton,
    prefix,
    select_values,
    stride,
    subclasses_of,
    value_at,
)
from test_algebra import random_epseq
from test_cli import epseqs


def _tail_of(y, sampled):
    """Canonical rotation may delete finitely many leading period entries;
    the constructed stream must embed order-preservingly into the sampled
    one (greedy subsequence matching)."""
    needle = prefix(y, len(sampled) - len(y.period) - len(y.preperiod))
    it = iter(sampled)
    return all(v in it for v in needle)


class TestInfClass:
    def test_preperiod_excluded(self, p2):
        x = EPSeq((p2.top,), (p2.element([0]), p2.element([1])))
        assert inf_class(x).values == frozenset({p2.element([0]), p2.element([1])})

    def test_constant(self, p2):
        for a in p2.elements:
            assert inf_class(EPSeq((), (a,))).values == frozenset({a})

    def test_repeats_in_period(self, p2):
        a, b = p2.element([0]), p2.element([1])
        x = EPSeq((), (a, a, b))
        # occurrence counting over three concatenated periods: both values
        # appear at least twice per window, nothing else appears at all
        window = list(x.period) * 3
        expected = {v for v in window if window.count(v) >= 2}
        assert inf_class(x).values == frozenset(expected) == {a, b}

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            InfClass(0, 2)


class TestSubsequenceClasses:
    def test_singleton(self, p2):
        s = InfClass(1 << p2.top.mask, p2.n)
        assert subsequence_classes(s) == frozenset({s})

    def test_pair_gives_three(self, p2):
        s = InfClass(p2.subset_mask({p2.element([0]), p2.element([1])}), p2.n)
        assert len(subsequence_classes(s)) == 3

    def test_triple_gives_seven(self, p3):
        s = InfClass(p3.subset_mask({p3.element([0]), p3.element([1]), p3.element([2])}), p3.n)
        assert len(subsequence_classes(s)) == 7

    def test_counts_match_powerset(self, p2):
        for s in all_classes(p2):
            assert len(subsequence_classes(s)) == 2 ** len(s.values) - 1


class TestRepresentative:
    def test_pair(self, p2):
        a, b = p2.element([0]), p2.element([1])
        s = InfClass(p2.subset_mask({a, b}), p2.n)
        assert representative(s) == EPSeq((), (a, b))

    def test_constant(self, p2):
        s = InfClass(1 << p2.top.mask, p2.n)
        assert representative(s) == EPSeq((), (p2.top,))

    def test_round_trip(self, p3):
        rng = random.Random(17)
        for _ in range(100):
            vals = frozenset(
                p3.elements[rng.randrange(p3.size)]
                for _ in range(rng.randrange(1, 5))
            )
            s = InfClass(p3.subset_mask(vals), p3.n)
            assert inf_class(representative(s)) == s


class TestClassMasks:
    def test_round_trip(self, p2):
        for mask in range(1, 1 << p2.size):
            assert p2.subset_mask(InfClass(mask, p2.n).values) == mask

    def test_zero_rejected(self, p2):
        with pytest.raises(ValueError):
            InfClass(0, p2.n)

    def test_negative_rejected(self, p2):
        with pytest.raises(ValueError, match=r"not a subset of P\(2\)"):
            InfClass(-1, p2.n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mask_past_the_carrier_rejected(self, n):
        carrier = Carrier(n)
        assert InfClass((1 << carrier.size) - 1, n).values == frozenset(carrier.elements)
        with pytest.raises(ValueError, match=rf"not a subset of P\({n}\)"):
            InfClass(1 << carrier.size, n)

    @pytest.mark.parametrize("width", [0, -1])
    def test_width_below_one_rejected(self, width):
        with pytest.raises(ValueError):
            InfClass(1, width)


class TestAgainstElementSets:
    """The mask-backed class against the same operations on its elements."""

    @settings(max_examples=200, deadline=None)
    @given(epseqs())
    def test_operations_match_element_sets(self, case):
        _, x = case
        s, period = inf_class(x), frozenset(x.period)
        assert s.values == period
        assert inf_class(representative(s)) == s
        assert representative(s).period == tuple(sorted(period, key=lambda e: e.mask))
        assert {c.values for c in subsequence_classes(s)} == subclasses_of(period)
        assert hbar_witness(s).values == least_singleton(period)
        assert repr(s) == class_repr(period)


class TestConcreteSubsequences:
    """The class-level reduction against honest index-map subsequences."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_subsequences_land_in_subclasses(self, n):
        carrier = Carrier(n)
        rng = random.Random(19 + n)
        for _ in range(200):
            x = random_epseq(carrier, rng)
            subs = subsequence_classes(inf_class(x))
            for k in range(1, 6):
                assert inf_class(drop_prefix(x, k)) in subs
                assert inf_class(stride(x, k)) in subs

    def test_drop_prefix_matches_sampling(self, p3):
        rng = random.Random(23)
        for _ in range(100):
            x = random_epseq(p3, rng)
            k = rng.randrange(0, 7)
            y = drop_prefix(x, k)
            sampled = [value_at(x, k + i) for i in range(20)]
            assert _tail_of(y, sampled)

    def test_stride_matches_sampling(self, p3):
        rng = random.Random(29)
        for _ in range(100):
            x = random_epseq(p3, rng)
            k = rng.randrange(1, 5)
            y = stride(x, k)
            sampled = [value_at(x, k * i) for i in range(20)]
            assert _tail_of(y, sampled)

    def test_every_subclass_realized(self, p2):
        """For each subclass there is a concrete selection realizing it."""
        rng = random.Random(31)
        for _ in range(100):
            x = random_epseq(p2, rng)
            for target in subsequence_classes(inf_class(x)):
                y = select_values(x, target.values)
                assert inf_class(y) == target
                # y really is a subsequence: its entries appear in x in order
                picked = [v for v in prefix(x, 40) if v in target.values]
                assert _tail_of(y, picked)
