import random
from hypothesis import given
from hypothesis import strategies as st
from functools import reduce

import pytest

from convlab.algebra import (
    Carrier,
    CarrierMismatchError,
    Element,
    EPSeq,
    canonical_period,
    complement,
    join,
    leq,
    liminf,
    limsup,
    meet,
)

from oracles import downset, pointwise_complement, prefix, upset


def tail_liminf(x: EPSeq) -> Element:
    """Oracle: evaluate join over k of (meet of a full tail window at k)."""
    window = len(x.preperiod) + len(x.period)
    tails = []
    for k in range(window + 1):
        vals = [x.value_at(i) for i in range(k, k + window)]
        tails.append(reduce(meet, vals))
    return reduce(join, tails)


def tail_limsup(x: EPSeq) -> Element:
    window = len(x.preperiod) + len(x.period)
    tails = []
    for k in range(window + 1):
        vals = [x.value_at(i) for i in range(k, k + window)]
        tails.append(reduce(join, vals))
    return reduce(meet, tails)


def random_epseq(carrier, rng):
    pre = tuple(carrier.elements[rng.randrange(carrier.size)] for _ in range(rng.randrange(0, 4)))
    per = tuple(carrier.elements[rng.randrange(carrier.size)] for _ in range(rng.randrange(1, 5)))
    return EPSeq(pre, per)


class TestLatticeOps:
    def test_meet_disjoint_atoms(self, p2):
        assert meet(p2.element([0]), p2.element([1])) == p2.bottom

    def test_join_atoms(self, p2):
        assert join(p2.element([0]), p2.element([1])) == p2.top

    def test_complement_bottom_is_top(self, p2):
        assert complement(p2.bottom) == p2.top

    def test_leq_is_subset_order(self, p3):
        for a in p3.elements:
            for b in p3.elements:
                assert leq(a, b) == (a.atoms <= b.atoms)

    def test_mixed_carrier_rejected(self, p2, p3):
        with pytest.raises(CarrierMismatchError):
            meet(p2.top, p3.top)

    def test_trivial_algebra_rejected(self):
        with pytest.raises(ValueError):
            Carrier(0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            Carrier(6)


class TestUpDownSets:
    def test_upset_of_bottom_is_everything(self, p2):
        assert upset([p2.bottom]) == frozenset(p2.elements)

    def test_upset_of_atoms(self, p2):
        got = upset([p2.element([0]), p2.element([1])])
        assert got == frozenset({p2.element([0]), p2.element([1]), p2.top})

    def test_downset_of_top_is_everything(self, p3):
        assert downset([p3.top]) == frozenset(p3.elements)

    def test_empty_input(self):
        assert upset([]) == frozenset()
        assert downset([]) == frozenset()

    def test_monotone_and_idempotent(self, p2):
        rng = random.Random(5)
        for _ in range(50):
            a = {p2.elements[rng.randrange(p2.size)] for _ in range(rng.randrange(0, 4))}
            b = a | {p2.elements[rng.randrange(p2.size)]}
            assert upset(a) <= upset(b)
            assert upset(upset(a)) == upset(a)
            assert downset(downset(a)) == downset(a)


class TestCarrierTables:
    """The atom-column up/down tables against their defining comprehensions."""

    @staticmethod
    def oracles(carrier):
        points = range(carrier.size)
        up = tuple(sum(1 << q for q in points if q & p == p) for p in points)
        down = tuple(sum(1 << q for q in points if q & p == q) for p in points)
        return up, down

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables_match_comprehensions(self, n):
        carrier = Carrier(n)
        up, down = self.oracles(carrier)
        assert carrier.up_masks == up
        assert carrier.down_masks == down

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_down_table_read_first(self, n):
        # each table is built on its own on first read, so either may come first
        carrier = Carrier(n)
        up, down = self.oracles(carrier)
        assert carrier.down_masks == down
        assert carrier.up_masks == up

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_elements_are_made_once(self, n):
        carrier = Carrier(n)
        assert carrier.bottom is carrier.elements[0]
        assert carrier.top is carrier.element(range(n)) is carrier.elements[-1]
        assert carrier.elements is carrier.elements
        assert all(e.mask == m and e.width == n for m, e in enumerate(carrier.elements))
        assert Carrier(n).bottom is not carrier.bottom

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_match_upset_and_downset(self, n):
        carrier = Carrier(n)
        for e in carrier.elements:
            assert carrier.subset_from_mask(carrier.up_masks[e.mask]) == upset([e])
            assert carrier.subset_from_mask(carrier.down_masks[e.mask]) == downset([e])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_subset_masks_outside_the_carrier_rejected(self, n):
        # -1 has every bit set, and 1 << size names a point past the last one
        carrier = Carrier(n)
        for mask in (-1, 1 << carrier.size):
            with pytest.raises(ValueError, match=rf"mask {mask} is not a subset of P\({n}\)"):
                carrier.subset_from_mask(mask)
        assert carrier.subset_from_mask((1 << carrier.size) - 1) == frozenset(carrier.elements)


class TestLimInfSup:
    def test_alternating_atoms(self, p2):
        x = EPSeq((), (p2.element([0]), p2.element([1])))
        assert liminf(x) == p2.bottom
        assert limsup(x) == p2.top

    def test_constant(self, p3):
        for a in p3.elements:
            x = EPSeq((), (a,))
            assert liminf(x) == a == limsup(x)

    def test_preperiod_drops_out(self, p2):
        x = EPSeq((p2.top,), (p2.element([0]),))
        assert liminf(x) == p2.element([0])
        assert limsup(x) == p2.element([0])

    def test_liminf_below_limsup(self, p3):
        rng = random.Random(7)
        for _ in range(200):
            x = random_epseq(p3, rng)
            assert leq(liminf(x), limsup(x))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tail_oracle_agreement(self, n):
        carrier = Carrier(n)
        rng = random.Random(100 + n)
        for _ in range(1000):
            x = random_epseq(carrier, rng)
            assert liminf(x) == tail_liminf(x)
            assert limsup(x) == tail_limsup(x)

    def test_preperiod_extension_invariance(self, p3):
        rng = random.Random(11)
        for _ in range(200):
            x = random_epseq(p3, rng)
            noise = tuple(p3.elements[rng.randrange(p3.size)] for _ in range(3))
            y = EPSeq(noise + x.preperiod, x.period)
            assert liminf(y) == liminf(x)
            assert limsup(y) == limsup(x)

    def test_de_morgan_duality(self, p3):
        rng = random.Random(13)
        for _ in range(200):
            x = random_epseq(p3, rng)
            assert liminf(x) == complement(limsup(pointwise_complement(x)))


def rotation_oracle(period, key):
    """Oracle for canonical_period: the shortest repeating block, then the
    least of its rotations, each rotation's keys rebuilt."""
    n = len(period)
    d = min(d for d in range(1, n + 1) if n % d == 0 and period == period[:d] * (n // d))
    block = period[:d]
    rotations = [block[i:] + block[:i] for i in range(d)]
    return min(rotations, key=lambda r: tuple(key(e) for e in r))


class TestEPSeqCanonicalization:
    @given(
        block=st.lists(st.integers(0, 3).map(lambda m: Element(m, 2)), min_size=1, max_size=5),
        repeat=st.integers(1, 3),
    )
    def test_matches_rotation_oracle(self, block, repeat):
        period = tuple(block) * repeat
        expected = rotation_oracle(period, lambda e: e.mask)
        assert canonical_period(period, lambda e: e.mask) == expected
        assert EPSeq((), period).period == expected

    def test_repeated_period_collapses(self, p2):
        a, b = p2.element([0]), p2.element([1])
        assert EPSeq((), (a, b, a, b)).period == (a, b)

    def test_rotation_normalized(self, p2):
        a, b = p2.element([0]), p2.element([1])
        assert EPSeq((), (b, a)) == EPSeq((), (a, b))

    def test_empty_period_rejected(self, p2):
        with pytest.raises(ValueError):
            EPSeq((p2.top,), ())

    def test_value_at(self, p2):
        a, b = p2.element([0]), p2.element([1])
        x = EPSeq((p2.top,), (a, b))
        assert prefix(x, 5) == [p2.top, a, b, a, b]


class TestLatticeProperties:
    """Randomized law checks driven by hypothesis over P(3)."""

    carrier = Carrier(3)
    elements = st.integers(min_value=0, max_value=7).map(
        lambda m: Element(m, 3)
    )

    @given(a=elements, b=elements)
    def test_absorption(self, a, b):
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a

    @given(a=elements, b=elements, c=elements)
    def test_distributivity(self, a, b, c):
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))

    @given(a=elements, b=elements)
    def test_de_morgan(self, a, b):
        assert complement(meet(a, b)) == join(complement(a), complement(b))

    @given(
        pre=st.lists(elements, max_size=4).map(tuple),
        per=st.lists(elements, min_size=1, max_size=4).map(tuple),
        extra=st.integers(min_value=1, max_value=3),
    )
    def test_period_repetition_invisible(self, pre, per, extra):
        assert EPSeq(pre, per) == EPSeq(pre, per * extra)

    @given(
        per=st.lists(elements, min_size=1, max_size=4).map(tuple),
        shift=st.integers(min_value=0, max_value=3),
    )
    def test_rotation_invisible(self, per, shift):
        shift %= len(per)
        assert EPSeq((), per) == EPSeq((), per[shift:] + per[:shift])
