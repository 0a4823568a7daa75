import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.algebra import canonical_period
from convlab.cube import (
    FC_EMPTY,
    FC_FULL,
    FCSeq,
    FCSet,
    _order_key,
    candidate_limits,
    check_T1235a,
    fc_cofinite,
    fc_complement,
    fc_finite,
    fc_intersection,
    fc_liminf,
    fc_limsup,
    fc_union,
    lim_alexandrov,
    lim_alexandrov_dual,
    lim_cantor,
)
from convlab.verify import random_fcseq

from oracles import fc_difference
from test_algebra import rotation_oracle


def brute_membership(s: FCSet, window: int = 12) -> tuple:
    return tuple(s.contains(i) for i in range(window)) + (s.cofinite,)


# Per-coordinate oracles: the cube predicates checked one window coordinate
# at a time, the exceptional coordinates plus one generic coordinate beyond.

def oracle_window(x: FCSeq, extra=()) -> list[int]:
    coords: set[int] = set()
    for v in list(x.preperiod) + list(x.period) + list(extra):
        coords |= v.support
    generic = (max(coords) + 1) if coords else 0
    return sorted(coords) + [generic]


def oracle_alexandrov(x: FCSeq, a: FCSet) -> bool:
    vals = set(x.period)
    for i in oracle_window(x, [a]):
        if not a.contains(i) and any(v.contains(i) for v in vals):
            return False
    return True


def oracle_alexandrov_dual(x: FCSeq, a: FCSet) -> bool:
    vals = set(x.period)
    for i in oracle_window(x, [a]):
        if a.contains(i) and not all(v.contains(i) for v in vals):
            return False
    return True


def oracle_cantor(x: FCSeq):
    vals = set(x.period)
    for i in oracle_window(x):
        if len({v.contains(i) for v in vals}) > 1:
            return None
    return fc_limsup(x)


def fcsets(top: int):
    return st.builds(FCSet, st.booleans(), st.frozensets(st.integers(0, top), max_size=5))


fcseqs = st.builds(
    FCSeq,
    st.lists(fcsets(8), max_size=2).map(tuple),
    st.lists(fcsets(8), min_size=1, max_size=3).map(tuple),
)


class TestFCSetOps:
    def test_complement_of_finite(self):
        assert fc_complement(fc_finite([2, 5])) == fc_cofinite([2, 5])

    def test_union_intersection_against_membership(self):
        rng = random.Random(73)
        for _ in range(300):
            a = FCSet(rng.random() < 0.5, frozenset(i for i in range(8) if rng.random() < 0.4))
            b = FCSet(rng.random() < 0.5, frozenset(i for i in range(8) if rng.random() < 0.4))
            for i in range(12):
                assert fc_union(a, b).contains(i) == (a.contains(i) or b.contains(i))
                assert fc_intersection(a, b).contains(i) == (a.contains(i) and b.contains(i))
                assert fc_difference(a, b).contains(i) == (a.contains(i) and not b.contains(i))

    def test_generic_coordinate_behaviour(self):
        a = fc_cofinite([0])
        assert not a.contains(0)
        assert a.contains(10**6)

    def test_canonical_equality(self):
        assert fc_finite([1, 2]) == fc_finite([2, 1])
        assert fc_finite([1]) != fc_cofinite([1])

    def test_frozenset_and_list_supports_agree(self):
        a = FCSet(True, frozenset({3, 0, 7}))
        b = FCSet(True, [7, 0, 3, 3])
        assert a == b and hash(a) == hash(b)
        assert a.support == frozenset({0, 3, 7})
        assert {a: 1}[b] == 1

    def test_is_immutable(self):
        a = fc_finite([1])
        with pytest.raises(AttributeError):
            a.bits = 0


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
                    x.value_at(k).contains(i)
                    for k in range(window, window + 2 * len(x.period))
                ) > 0
                all_but_fin = all(
                    x.value_at(k).contains(i)
                    for k in range(window, window + 2 * len(x.period))
                )
                assert fc_limsup(x).contains(i) == inf_many
                assert fc_liminf(x).contains(i) == all_but_fin


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
                assert alex(a) == (fc_union(a, ls) == a)

    def test_dual_matches_liminf_containment(self):
        rng = random.Random(97)
        cand_rng = random.Random(101)
        for _ in range(300):
            x = random_fcseq(rng)
            dual = lim_alexandrov_dual(x)
            li = fc_liminf(x)
            for a in candidate_limits(x, cand_rng):
                assert dual(a) == (fc_intersection(a, li) == a)

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


class TestPinnedStreams:
    # reprs of random_fcseq and the first nine candidate_limits (six
    # structured, three random) for seeds 0..4, captured from the
    # frozenset-backed implementation: a seed keeps checking the same
    # sequences and candidates
    PINNED = [
        (
            "FCSeq(preperiod=({2,6},), period=({1,4},))",
            "[{1,4}, {1,4}, ~{1,4}, ~{1,4}, {}, ~{}, ~{1,7}, {1,7}, ~{1,6}]",
        ),
        (
            "FCSeq(preperiod=(), period=({3,6}, ~{0,1,4,5,7}, ~{2,7}))",
            "[{3,6}, ~{7}, ~{3,6}, {7}, {}, ~{}, {0,1,2,3,4,5,6,7}, ~{1,4,5}, ~{2,8}]",
        ),
        (
            "FCSeq(preperiod=(), period=(~{0,4},))",
            "[~{0,4}, ~{0,4}, {0,4}, {0,4}, {}, ~{}, {0,4}, ~{5}, ~{0,4,5}]",
        ),
        (
            "FCSeq(preperiod=(), period=({5}, ~{2,5,6}, ~{1,4,5,7}))",
            "[{}, ~{}, ~{}, {}, {}, ~{}, {6,8}, ~{2,4,5,7}, {2,4}]",
        ),
        (
            "FCSeq(preperiod=(), period=({1,2,3,4}, ~{0,1,2,3}))",
            "[{4}, ~{0}, ~{4}, {0}, {}, ~{}, ~{0,1}, {3,4,5}, {2}]",
        ),
    ]

    @pytest.mark.parametrize("seed", range(5))
    def test_rng_streams_unchanged(self, seed):
        rng = random.Random(seed)
        x = random_fcseq(rng)
        assert (repr(x), repr(candidate_limits(x, rng)[:9])) == self.PINNED[seed]


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
                tuple(fc_complement(v) for v in x.preperiod),
                tuple(fc_complement(v) for v in x.period),
            )
            for a in candidate_limits(x, cand_rng):
                assert lim_alexandrov_dual(x)(a) == lim_alexandrov(flipped)(
                    fc_complement(a)
                )

    def test_coordinate_subbasic_sets_transport(self):
        # membership in the i-th discrete-coordinate subbasic set and its
        # complement is decided by the two half-open coordinate constraints
        rng = random.Random(139)
        for _ in range(200):
            s = FCSet(rng.random() < 0.5, frozenset(i for i in range(6) if rng.random() < 0.4))
            for i in range(8):
                in_b_i = not s.contains(i)  # sets omitting coordinate i
                half_open = not s.contains(i)  # constraint used by lim_alexandrov
                dual_open = s.contains(i)  # constraint used by the dual
                assert in_b_i == half_open
                assert (not in_b_i) == dual_open


class TestFCSeqCanonicalization:
    @given(block=st.lists(fcsets(2), min_size=1, max_size=5), repeat=st.integers(1, 3))
    def test_matches_rotation_oracle(self, block, repeat):
        period = tuple(block) * repeat
        expected = rotation_oracle(period, lambda s: (s.cofinite, tuple(sorted(s.support))))
        assert canonical_period(period, _order_key) == expected
        assert FCSeq((), period).period == expected

    def test_period_rotation_and_reduction(self):
        a, b = fc_finite([0]), fc_finite([1])
        assert FCSeq((), (b, a, b, a)).period == FCSeq((), (a, b)).period

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            FCSeq((FC_EMPTY,), ())

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            fc_finite([-1])
