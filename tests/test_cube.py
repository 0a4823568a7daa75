import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import cube
from convlab.algebra import canonical_period
from convlab.cube import (
    FC_EMPTY,
    FC_FULL,
    FCSeq,
    candidate_limits,
    check_T1235a,
    fc_cofinite,
    fc_finite,
    fc_liminf,
    fc_limsup,
    fc_repr,
    fc_support,
    lim_alexandrov,
    lim_alexandrov_dual,
    lim_cantor,
)
from convlab.verify import random_fcseq

from oracles import value_at
from test_algebra import rotation_oracle

# Every support the tests build lies below this coordinate, so it stands for
# all the coordinates beyond them.
FAR = 40


def member(a: int, i: int) -> bool:
    return bool(a >> i & 1)


def fc_set(cofinite: bool, support) -> int:
    return fc_cofinite(support) if cofinite else fc_finite(support)


def coordinate_key(a: int) -> tuple[bool, tuple[int, ...]]:
    """The cofinite flag and the sorted support, read coordinate by coordinate."""
    cofinite = member(a, FAR)
    return cofinite, tuple(i for i in range(FAR) if member(a, i) != cofinite)


# Per-coordinate oracles: the cube predicates checked one window coordinate
# at a time, the exceptional coordinates plus one generic coordinate beyond.

def oracle_window(x: FCSeq, extra=()) -> list[int]:
    coords: set[int] = set()
    for v in list(x.preperiod) + list(x.period) + list(extra):
        coords |= set(coordinate_key(v)[1])
    generic = (max(coords) + 1) if coords else 0
    return sorted(coords) + [generic]


def oracle_alexandrov(x: FCSeq, a: int) -> bool:
    vals = set(x.period)
    for i in oracle_window(x, [a]):
        if not member(a, i) and any(member(v, i) for v in vals):
            return False
    return True


def oracle_alexandrov_dual(x: FCSeq, a: int) -> bool:
    vals = set(x.period)
    for i in oracle_window(x, [a]):
        if member(a, i) and not all(member(v, i) for v in vals):
            return False
    return True


def oracle_cantor(x: FCSeq):
    vals = set(x.period)
    for i in oracle_window(x):
        if len({member(v, i) for v in vals}) > 1:
            return None
    return fc_limsup(x)


def fcsets(top: int):
    return st.builds(fc_set, st.booleans(), st.frozensets(st.integers(0, top), max_size=5))


fcseqs = st.builds(
    FCSeq,
    st.lists(fcsets(8), max_size=2).map(tuple),
    st.lists(fcsets(8), min_size=1, max_size=3).map(tuple),
)


class TestFCSetOps:
    """Finite and cofinite sets as signed int masks."""

    def test_complement_of_finite(self):
        assert ~fc_finite([2, 5]) == fc_cofinite([2, 5])

    @settings(max_examples=300)
    @given(fcsets(20), fcsets(20))
    def test_union_intersection_against_membership(self, a, b):
        for i in range(FAR + 1):
            assert member(a | b, i) == (member(a, i) or member(b, i))
            assert member(a & b, i) == (member(a, i) and member(b, i))
            assert member(~a, i) == (not member(a, i))
            assert member(a & ~b, i) == (member(a, i) and not member(b, i))

    def test_generic_coordinate_behaviour(self):
        a = fc_cofinite([0])
        assert not member(a, 0)
        assert member(a, 10**6)

    def test_canonical_equality(self):
        assert fc_finite([1, 2]) == fc_finite([2, 1])
        assert fc_finite([1]) != fc_cofinite([1])
        assert (FC_EMPTY, FC_FULL) == (fc_finite(()), fc_cofinite(()))

    def test_frozenset_and_list_supports_agree(self):
        a = fc_cofinite(frozenset({3, 0, 7}))
        b = fc_cofinite([7, 0, 3, 3])
        assert a == b and hash(a) == hash(b)
        assert fc_support(a) == fc_support(fc_finite([0, 3, 7])) == 0b10001001
        assert {a: 1}[b] == 1

    @given(fcsets(20))
    def test_repr_round_trips(self, a):
        text = fc_repr(a)
        inner = text.removeprefix("~")[1:-1]
        support = [int(i) for i in inner.split(",")] if inner else []
        assert fc_set(text.startswith("~"), support) == a

    def test_is_immutable(self):
        x = FCSeq((), (fc_finite([1]),))
        with pytest.raises(AttributeError):
            x.period = ()


class TestLimInfSup:
    def test_alternating_singletons(self):
        x = FCSeq((), (fc_finite([0]), fc_finite([1])))
        assert fc_limsup(x) == fc_finite([0, 1])
        assert fc_liminf(x) == FC_EMPTY

    def test_constant_cofinite(self):
        a = fc_cofinite([3])
        x = FCSeq((), (a,))
        assert fc_liminf(x) == a == fc_limsup(x)

    def test_tail_oracle(self):
        rng = random.Random(79)
        for _ in range(200):
            x = random_fcseq(rng)
            window = len(x.preperiod) + len(x.period)
            for i in range(10):
                inf_many = sum(
                    member(value_at(x, k), i)
                    for k in range(window, window + 2 * len(x.period))
                ) > 0
                all_but_fin = all(
                    member(value_at(x, k), i)
                    for k in range(window, window + 2 * len(x.period))
                )
                assert member(fc_limsup(x), i) == inf_many
                assert member(fc_liminf(x), i) == all_but_fin


class TestCubeLimits:
    def test_alternating_has_no_discrete_limit(self):
        x = FCSeq((), (fc_finite([0]), fc_finite([1])))
        assert lim_cantor(x) is None

    def test_alternating_half_open_limits_are_supersets(self):
        x = FCSeq((), (fc_finite([0]), fc_finite([1])))
        alex = lim_alexandrov(x)
        assert alex(fc_finite([0, 1]))
        assert alex(fc_cofinite([5]))
        assert alex(FC_FULL)
        assert not alex(fc_finite([0]))
        assert not alex(FC_EMPTY)

    def test_constant_discrete_limit(self):
        a = fc_cofinite([2, 4])
        assert lim_cantor(FCSeq((), (a,))) == a

    def test_alexandrov_matches_limsup_containment(self):
        rng = random.Random(83)
        cand_rng = random.Random(89)
        for _ in range(300):
            x = random_fcseq(rng)
            alex = lim_alexandrov(x)
            ls = fc_limsup(x)
            for a in candidate_limits(x, cand_rng):
                assert alex(a) == (a | ls == a)

    def test_dual_matches_liminf_containment(self):
        rng = random.Random(97)
        cand_rng = random.Random(101)
        for _ in range(300):
            x = random_fcseq(rng)
            dual = lim_alexandrov_dual(x)
            li = fc_liminf(x)
            for a in candidate_limits(x, cand_rng):
                assert dual(a) == (a & li == a)

    def test_half_open_predicates_do_not_read_limsup_or_liminf(self, monkeypatch):
        # criterion 10 compares lim_alexandrov with the limsup rule, so the
        # predicates must reach their verdicts without it
        def refuse(x):
            raise AssertionError("half-open predicate read a tail limit")

        monkeypatch.setattr(cube, "fc_limsup", refuse)
        monkeypatch.setattr(cube, "fc_liminf", refuse)
        x = FCSeq((), (fc_finite([0]), fc_cofinite([1])))
        assert lim_alexandrov(x)(FC_FULL) and not lim_alexandrov(x)(fc_finite([0]))
        assert lim_alexandrov_dual(x)(fc_finite([0])) and not lim_alexandrov_dual(x)(fc_finite([2]))

    def test_no_candidate_satisfies_both_when_liminf_below_limsup(self):
        x = FCSeq((), (fc_finite([0]), fc_finite([1])))
        alex, dual = lim_alexandrov(x), lim_alexandrov_dual(x)
        rng = random.Random(103)
        for a in candidate_limits(x, rng):
            assert not (alex(a) and dual(a))

    def test_conjunction_characterizes_discrete_limit(self):
        rng = random.Random(107)
        sample = [random_fcseq(rng) for _ in range(500)]
        assert check_T1235a(sample, random.Random(109))


class TestBitPredicatesAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(fcseqs, st.lists(fcsets(14), max_size=6))
    def test_bit_predicates_match_coordinate_loops(self, x, beyond):
        # candidates from the pool plus ones whose support reaches past the
        # sequence's window
        alex, dual = lim_alexandrov(x), lim_alexandrov_dual(x)
        for a in candidate_limits(x, random.Random(0)) + beyond:
            assert alex(a) == oracle_alexandrov(x, a)
            assert dual(a) == oracle_alexandrov_dual(x, a)
        assert lim_cantor(x) == oracle_cantor(x)


class TestDraws:
    """What the random sets may be, whatever the seeded streams hold."""

    def test_candidates_cover_the_window(self):
        # every window coordinate, the generic one included, is both in and
        # out of some random candidate's support, and both signs occur
        seqs, cands = random.Random(11), random.Random(13)
        held, cleared, signs, generic = 0, 0, set(), set()
        for _ in range(2000):
            x = random_fcseq(seqs)
            window = x.support | 1 << x.support.bit_length()
            for a in candidate_limits(x, cands)[6:]:
                support = fc_support(a)
                assert support & ~window == 0
                held |= support
                cleared |= window & ~support
                signs.add(a < 0)
                generic.add(support >> x.support.bit_length() & 1)
        assert held == cleared == (1 << 9) - 1
        assert signs == generic == {0, 1}

    def test_sampled_sets_are_fair_coins_on_coordinates_0_to_7(self):
        rng = random.Random(17)
        sets: list[int] = []
        for _ in range(2000):
            x = random_fcseq(rng)
            sets += x.preperiod + x.period
        assert all(fc_support(v) >> 8 == 0 for v in sets)
        assert {v < 0 for v in sets} == {True, False}
        for i in range(8):
            share = sum(fc_support(v) >> i & 1 for v in sets) / len(sets)
            assert 0.45 < share < 0.55


class TestPinnedStreams:
    # reprs of random_fcseq and the first nine candidate_limits (six
    # structured, three random) for seeds 0..4, captured from the
    # implementation that draws each random set with one getrandbits call
    # plus one sign bit: a seed keeps checking the same sequences and
    # candidates
    PINNED = [
        (
            "FCSeq(preperiod=(~{1,6,7},), period=(~{0,1,2,4,5,6,7}, {1,3}))",
            "[{3}, ~{0,2,4,5,6,7}, ~{3}, {0,2,4,5,6,7}, {}, ~{}, {3,4,5,6,7}, ~{1,2,4,6,7,8}, {3,5,7,8}]",
        ),
        (
            "FCSeq(preperiod=(), period=(~{3,4,6,7}, {0,1,6,7}, {0,6}))",
            "[{0}, ~{3,4}, ~{0}, {3,4}, {}, ~{}, ~{0,3,4,6,7}, {1,6,7}, {0,3,6,8}]",
        ),
        (
            "FCSeq(preperiod=(), period=({0,2,4},))",
            "[{0,2,4}, {0,2,4}, ~{0,2,4}, ~{0,2,4}, {}, ~{}, {0,2,4,5}, ~{0,2,5}, ~{5}]",
        ),
        (
            "FCSeq(preperiod=(), period=(~{1,2,3,4,6}, {1,3,4,7}, {0,1,3,7}))",
            "[{7}, ~{2,6}, ~{7}, {2,6}, {}, ~{}, ~{6,8}, ~{0}, ~{1,2}]",
        ),
        (
            "FCSeq(preperiod=(), period=(~{1,3,4}, {0,2,5,6}))",
            "[{0,2,5,6}, ~{1,3,4}, ~{0,2,5,6}, {1,3,4}, {}, ~{}, {0,1,2,5}, {0,4}, ~{1,2,5,6}]",
        ),
    ]

    @pytest.mark.parametrize("seed", range(5))
    def test_rng_streams_unchanged(self, seed):
        rng = random.Random(seed)
        x = random_fcseq(rng)
        pool = "[" + ", ".join(map(fc_repr, candidate_limits(x, rng)[:9])) + "]"
        assert (repr(x), pool) == self.PINNED[seed]

    # sha256 of one line per sequence over 2,000 seeded sequences: the
    # sequence, its candidate pool, both half-open predicates on every
    # candidate, the discrete limit, limsup and liminf, as captured from the
    # implementation that draws each set in one call and orders a period by
    # the sets' ints
    DIGEST = "ec532a3982d0ca403adb90ae2c6e8418ab68fb6ff1bf361f59551fa36ca9680d"

    def test_streams_and_verdicts_unchanged(self):
        seqs, cands = random.Random(2024), random.Random(2025)
        digest = hashlib.sha256()
        for _ in range(2000):
            x = random_fcseq(seqs)
            pool = candidate_limits(x, cands)
            alex, dual = lim_alexandrov(x), lim_alexandrov_dual(x)
            cantor = lim_cantor(x)
            fields = [
                repr(x),
                ",".join(map(fc_repr, pool)),
                "".join(f"{alex(a):d}{dual(a):d}" for a in pool),
                "None" if cantor is None else fc_repr(cantor),
                fc_repr(fc_limsup(x)),
                fc_repr(fc_liminf(x)),
            ]
            digest.update(("|".join(fields) + "\n").encode())
        assert digest.hexdigest() == self.DIGEST


class TestInvariances:
    def test_preperiod_extension_invariance(self):
        rng = random.Random(113)
        cand_rng = random.Random(127)
        for _ in range(100):
            x = random_fcseq(rng)
            noisy = FCSeq((fc_finite([11]),) + x.preperiod, x.period)
            for a in candidate_limits(x, cand_rng):
                assert lim_alexandrov(x)(a) == lim_alexandrov(noisy)(a)
                assert lim_alexandrov_dual(x)(a) == lim_alexandrov_dual(noisy)(a)
            assert lim_cantor(x) == lim_cantor(noisy)

    def test_de_morgan_transport(self):
        rng = random.Random(131)
        cand_rng = random.Random(137)
        for _ in range(200):
            x = random_fcseq(rng)
            flipped = FCSeq(
                tuple(~v for v in x.preperiod),
                tuple(~v for v in x.period),
            )
            for a in candidate_limits(x, cand_rng):
                assert lim_alexandrov_dual(x)(a) == lim_alexandrov(flipped)(~a)

    def test_coordinate_subbasic_sets_transport(self):
        # membership in the i-th discrete-coordinate subbasic set and its
        # complement is decided by the two half-open coordinate constraints
        rng = random.Random(139)
        for _ in range(200):
            s = fc_set(rng.random() < 0.5, frozenset(i for i in range(6) if rng.random() < 0.4))
            for i in range(8):
                in_b_i = not member(s, i)  # sets omitting coordinate i
                half_open = not member(s, i)  # constraint used by lim_alexandrov
                dual_open = member(s, i)  # constraint used by the dual
                assert in_b_i == half_open
                assert (not in_b_i) == dual_open


class TestFCSeqCanonicalization:
    @given(block=st.lists(fcsets(2), min_size=1, max_size=5), repeat=st.integers(1, 3))
    def test_matches_rotation_oracle(self, block, repeat):
        period = tuple(block) * repeat
        expected = rotation_oracle(period, int)
        assert canonical_period(period, int) == expected
        assert FCSeq((), period).period == expected

    def test_period_rotation_and_reduction(self):
        a, b = fc_finite([0]), fc_finite([1])
        assert FCSeq((), (b, a, b, a)).period == FCSeq((), (a, b)).period

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            FCSeq((FC_EMPTY,), ())

    def test_negative_support_rejected(self):
        for make in (fc_finite, fc_cofinite):
            with pytest.raises(ValueError):
                make([3, -1])
