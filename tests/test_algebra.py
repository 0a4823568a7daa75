import random
from hypothesis import given
from hypothesis import strategies as st
from functools import reduce
from operator import and_, or_

import pytest

from convlab.algebra import Carrier, Element, EPSeq, atom_set, echo, iter_bits, liminf, limsup
from convlab.seqclass import InfClass, inf_class

from oracles import atoms_text, downset, pointwise_complement, prefix, rotation_oracle, upset, value_at


def tail_liminf(x: EPSeq) -> int:
    """Oracle: evaluate join over k of (meet of a full tail window at k)."""
    window = len(x.preperiod) + len(x.period)
    tails = []
    for k in range(window + 1):
        vals = [value_at(x, i) for i in range(k, k + window)]
        tails.append(reduce(and_, vals))
    return reduce(or_, tails)


def tail_limsup(x: EPSeq) -> int:
    window = len(x.preperiod) + len(x.period)
    tails = []
    for k in range(window + 1):
        vals = [value_at(x, i) for i in range(k, k + window)]
        tails.append(reduce(or_, vals))
    return reduce(and_, tails)


def random_epseq(carrier, rng):
    pre = tuple(rng.randrange(carrier.size) for _ in range(rng.randrange(0, 4)))
    per = tuple(rng.randrange(carrier.size) for _ in range(rng.randrange(1, 5)))
    return EPSeq(pre, per, carrier.n)


def atoms(point: int) -> set[int]:
    return {i for i in range(point.bit_length()) if point >> i & 1}


class TestLatticeOps:
    def test_meet_disjoint_atoms(self, p2):
        # the common lower bounds of the atoms {0} and {1} in the order table are the bottom's
        assert p2.down_masks[0b01] & p2.down_masks[0b10] == p2.down_masks[0] == 1

    def test_join_atoms(self, p2):
        # the common upper bounds of the atoms {0} and {1} are the top's
        assert p2.up_masks[0b01] & p2.up_masks[0b10] == p2.up_masks[0b11] == 1 << 0b11

    def test_leq_is_subset_order(self, p3):
        # q lies above p in the order tables iff p's atoms are among q's
        for p in range(p3.size):
            for q in range(p3.size):
                below = atoms(p) <= atoms(q)
                assert (p3.up_masks[p] >> q & 1 == 1) == below == (p3.down_masks[q] >> p & 1 == 1)

    def test_mixed_carrier_rejected(self, p2, p3):
        # the top of P(3) is no point of P(2)
        with pytest.raises(ValueError, match="mask 7 out of range for width 2"):
            EPSeq((), (0, p3.size - 1), p2.n)

    def test_trivial_algebra_rejected(self):
        with pytest.raises(ValueError):
            Carrier(0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            Carrier(6)


class TestUpDownSets:
    def test_upset_of_bottom_is_everything(self, p2):
        assert upset(2, [0]) == frozenset(range(p2.size))

    def test_upset_of_atoms(self, p2):
        assert upset(2, [0b01, 0b10]) == frozenset({0b01, 0b10, 0b11})

    def test_downset_of_top_is_everything(self, p3):
        assert downset(3, [0b111]) == frozenset(range(p3.size))

    def test_empty_input(self):
        assert upset(2, []) == frozenset()
        assert downset(2, []) == frozenset()

    def test_monotone_and_idempotent(self, p2):
        rng = random.Random(5)
        for _ in range(50):
            a = {rng.randrange(p2.size) for _ in range(rng.randrange(0, 4))}
            b = a | {rng.randrange(p2.size)}
            assert upset(2, a) <= upset(2, b)
            assert upset(2, upset(2, a)) == upset(2, a)
            assert downset(2, downset(2, a)) == downset(2, a)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_match_upset_and_downset(self, n):
        carrier = Carrier(n)
        for p in range(carrier.size):
            assert frozenset(iter_bits(carrier.up_masks[p])) == upset(n, [p])
            assert frozenset(iter_bits(carrier.down_masks[p])) == downset(n, [p])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_subset_masks_outside_the_carrier_rejected(self, n):
        # -1 has every bit set, and 1 << size names a point past the last one
        carrier = Carrier(n)
        for mask in (-1, 1 << carrier.size):
            with pytest.raises(ValueError, match=rf"mask {mask} is not a subset of P\({n}\)"):
                carrier.subset_from_mask(mask)
        everything = carrier.subset_from_mask((1 << carrier.size) - 1)
        assert sorted((e.mask, e.width) for e in everything) == [(p, n) for p in range(carrier.size)]


class TestLimInfSup:
    def test_alternating_atoms(self, p2):
        x = EPSeq((), (0b01, 0b10), p2.n)
        assert liminf(x) == 0
        assert limsup(x) == 0b11

    def test_constant(self, p3):
        for a in range(p3.size):
            x = EPSeq((), (a,), p3.n)
            assert liminf(x) == a == limsup(x)

    def test_preperiod_drops_out(self, p2):
        x = EPSeq((0b11,), (0b01,), p2.n)
        assert liminf(x) == 0b01
        assert limsup(x) == 0b01

    def test_liminf_below_limsup(self, p3):
        rng = random.Random(7)
        for _ in range(200):
            x = random_epseq(p3, rng)
            assert atoms(liminf(x)) <= atoms(limsup(x))

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
            noise = tuple(rng.randrange(p3.size) for _ in range(3))
            y = EPSeq(noise + x.preperiod, x.period, p3.n)
            assert liminf(y) == liminf(x)
            assert limsup(y) == limsup(x)

    def test_de_morgan_duality(self, p3):
        rng = random.Random(13)
        for _ in range(200):
            x = random_epseq(p3, rng)
            assert liminf(x) == limsup(pointwise_complement(x)) ^ 0b111


class TestEPSeqCanonicalization:
    """A sequence holds the preperiod and period it is given, in the order
    given, after the range and non-empty checks.  What is canonical is its
    class: the consumers read only the set of period values, so a period's
    shortest block at its least rotation gives the same answers."""

    @given(
        pre=st.lists(st.integers(0, 3), max_size=4).map(tuple),
        block=st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple),
        repeat=st.integers(1, 3),
    )
    def test_matches_rotation_oracle(self, pre, block, repeat):
        period = block * repeat
        x, y = EPSeq(pre, period, 2), EPSeq(pre, rotation_oracle(period), 2)
        assert (x.preperiod, x.period) == (pre, period)
        assert prefix(x, len(pre) + 2 * len(period)) == list(pre + period * 2)
        assert (liminf(x), limsup(x), inf_class(x)) == (liminf(y), limsup(y), inf_class(y))

    def test_rotated_period_is_another_sequence(self, p2):
        # 3, 2, 1, 2, 1, ... and 3, 1, 2, 1, 2, ... have the same infinitely
        # occurring values but differ as sequences, and so as values
        x, y = EPSeq((3,), (2, 1), p2.n), EPSeq((3,), (1, 2), p2.n)
        assert x.period == (2, 1) and prefix(x, 4) == [3, 2, 1, 2]
        assert x != y and inf_class(x) == inf_class(y)

    def test_empty_period_rejected(self, p2):
        with pytest.raises(ValueError):
            EPSeq((0b11,), (), p2.n)

    def test_value_at(self, p2):
        a, b, top = 0b01, 0b10, 0b11
        x = EPSeq((top,), (b, a), p2.n)
        assert prefix(x, 5) == [top, b, a, b, a]

    @pytest.mark.parametrize("width", [0, -1])
    def test_width_below_one_rejected(self, width):
        with pytest.raises(ValueError, match="width must be at least 1"):
            EPSeq((), (0,), width)

    @pytest.mark.parametrize("entry", [-1, 4])
    def test_entry_outside_the_carrier_rejected(self, p2, entry):
        with pytest.raises(ValueError, match=f"mask {entry} out of range for width 2"):
            EPSeq((entry,), (0,), p2.n)
        with pytest.raises(ValueError, match=f"mask {entry} out of range for width 2"):
            EPSeq((), (0, entry), p2.n)


class TestValueTypes:
    """Element, EPSeq and InfClass are immutable values: equal only to their
    own class with equal fields, hashed as the tuple of their fields, and
    printed as before."""

    VALUES = [
        (Element(0b101, 3), (0b101, 3), "{0,2}"),
        (
            EPSeq(preperiod=[3], period=[2, 1, 2, 1], width=2),
            ((3,), (2, 1, 2, 1), 2),
            "EPSeq(preperiod=(3,), period=(2, 1, 2, 1), width=2)",
        ),
        (InfClass(0b110, 2), (0b110, 2), "InfClass({0},{1})"),
    ]

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=["Element", "EPSeq", "InfClass"])
    def test_value_semantics(self, value, fields, text):
        assert value == type(value)(*fields) and hash(value) == hash(fields)
        assert value != fields and repr(value) == text
        for name in ("mask", "period", "width", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        with pytest.raises(AttributeError):
            del value.width

    def test_equal_fields_of_another_class_differ(self):
        assert Element(3, 2) != InfClass(3, 2)
        assert len({Element(3, 2), InfClass(3, 2)}) == 2


class TestAtomSet:
    """The one formatter of a point's atoms, against a bit test per index."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_bit_tests(self, n):
        assert [atom_set(p) for p in range(1 << n)] == [atoms_text(p) for p in range(1 << n)]


class TestEcho:
    """The one formatter of refused input: whole up to 40 characters, then cut."""

    @pytest.mark.parametrize(
        "text, show, shown",
        [
            ("", repr, "''"),
            ("a" * 40, repr, "'" + "a" * 40 + "'"),
            ("a" * 41, repr, "'" + "a" * 40 + "'... (41 characters)"),
            ("\n" * 50, repr, repr("\n" * 40) + "... (50 characters)"),
            ("1" * 40, str, "1" * 40),
            ("-" + "1" * 4000, str, "-" + "1" * 39 + "... (4001 characters)"),
        ],
        ids=["empty", "repr-40", "repr-41", "escapes-cut-before-repr", "str-40", "str-4001"],
    )
    def test_cut_after_40_characters(self, text, show, shown):
        assert echo(text, show) == shown


class TestLatticeProperties:
    """Randomized law checks driven by hypothesis over P(3)."""

    points = st.integers(min_value=0, max_value=7)

    @given(
        pre=st.lists(points, max_size=4).map(tuple),
        per=st.lists(points, min_size=1, max_size=4).map(tuple),
        extra=st.integers(min_value=1, max_value=3),
    )
    def test_period_repetition_invisible(self, pre, per, extra):
        # the limits and the class read only the set of period values
        x, y = EPSeq(pre, per, 3), EPSeq(pre, per * extra, 3)
        assert y.period == per * extra
        assert (liminf(y), limsup(y), inf_class(y)) == (liminf(x), limsup(x), inf_class(x))

    @given(
        pre=st.lists(points, max_size=4).map(tuple),
        per=st.lists(points, min_size=1, max_size=4).map(tuple),
        shift=st.integers(min_value=0, max_value=3),
    )
    def test_rotation_invisible(self, pre, per, shift):
        shift %= len(per)
        x, y = EPSeq(pre, per, 3), EPSeq(pre, per[shift:] + per[:shift], 3)
        assert y.period == per[shift:] + per[:shift]
        assert (liminf(y), limsup(y), inf_class(y)) == (liminf(x), limsup(x), inf_class(x))
