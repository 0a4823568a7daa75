import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import cube
from convlab.algebra import liminf, limsup
from convlab.cube import (
    CubeSample,
    FCSeq,
    check_T1235a,
    fc_repr,
    fc_support,
    lim_alexandrov,
    lim_alexandrov_dual,
    lim_cantor,
)
from convlab.cli import main

from cli_runner import CliRunner
from oracles import (
    FC_EMPTY,
    FC_FULL,
    candidate_limits,
    cube_sample,
    fc_cofinite,
    fc_finite,
    fcseq_support,
    random_fcseq,
    rotation_oracle,
    value_at,
)

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
    return limsup(x)


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

    def test_value_semantics(self):
        # as test_algebra's TestValueTypes checks EPSeq: the period as given,
        # equal and hashed by the tuple of fields, never equal to that tuple
        a, b = fc_finite([0]), fc_finite([1])
        x = FCSeq(preperiod=[fc_cofinite([1])], period=[b, a, b, a])
        fields = ((fc_cofinite([1]),), (b, a, b, a))
        assert x == FCSeq(*fields) and hash(x) == hash(fields)
        assert x != fields and repr(x) == "FCSeq(preperiod=(~{1},), period=({1}, {0}, {1}, {0}))"
        for name in ("preperiod", "period"):
            with pytest.raises(AttributeError):
                setattr(x, name, ())
        with pytest.raises(AttributeError):
            del x.period

    def test_no_new_attribute(self):
        with pytest.raises(AttributeError):
            FCSeq((), (fc_finite([1]),)).other = ()


class TestLimInfSup:
    def test_alternating_singletons(self):
        x = FCSeq((), (fc_finite([0]), fc_finite([1])))
        assert limsup(x) == fc_finite([0, 1])
        assert liminf(x) == FC_EMPTY

    def test_constant_cofinite(self):
        a = fc_cofinite([3])
        x = FCSeq((), (a,))
        assert liminf(x) == a == limsup(x)

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
                assert member(limsup(x), i) == inf_many
                assert member(liminf(x), i) == all_but_fin


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
            ls = limsup(x)
            for a in candidate_limits(x, cand_rng):
                assert alex(a) == (a | ls == a)

    def test_dual_matches_liminf_containment(self):
        rng = random.Random(97)
        cand_rng = random.Random(101)
        for _ in range(300):
            x = random_fcseq(rng)
            dual = lim_alexandrov_dual(x)
            li = liminf(x)
            for a in candidate_limits(x, cand_rng):
                assert dual(a) == (a & li == a)

    def test_half_open_predicates_do_not_read_limsup_or_liminf(self, monkeypatch):
        # the predicates define what the packed laws are checked against, next
        # to the limsup and liminf rules, so they must not read those limits
        def refuse(x):
            raise AssertionError("half-open predicate read a tail limit")

        monkeypatch.setattr(cube, "limsup", refuse)
        monkeypatch.setattr(cube, "liminf", refuse)
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
        sample = cube_sample([random_fcseq(rng) for _ in range(500)], 9)
        assert check_T1235a(sample, sample.candidates(random.Random(109))) is None


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


# Packed samples the tests build: supports up to coordinate 14, the generic
# coordinate at 15.
WIDTH = 16


def stack(sets, width: int = WIDTH) -> int:
    """One finite or cofinite set per field, packed as a candidate stack."""
    return cube_sample([FCSeq((), (a,)) for a in sets], width).slots[0]


def guard(mask: int, i: int, width: int) -> bool:
    return bool(mask >> i * (width + 1) + width & 1)


class TestPackedSample:
    """CubeSample's guard masks against the per-FCSeq predicates."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(fcseqs, fcsets(14)), min_size=1, max_size=8))
    def test_packed_laws_match_the_predicates(self, pairs):
        # fcseqs reach coordinate 8 and the candidates coordinate 14, past
        # the sequences' window
        seqs = [x for x, _ in pairs]
        sample, a = cube_sample(seqs, WIDTH), stack([c for _, c in pairs])
        alex, dual, cantor = sample.alexandrov(a), sample.dual(a), sample.cantor()
        for i, (x, c) in enumerate(pairs):
            assert guard(alex, i, WIDTH) == lim_alexandrov(x)(c)
            assert guard(dual, i, WIDTH) == lim_alexandrov_dual(x)(c)
            assert guard(cantor, i, WIDTH) == (lim_cantor(x) is not None)
            assert sample.at(sample.limsup, i) == limsup(x)
            assert sample.at(sample.liminf, i) == liminf(x)
            assert set(sample.sequence(i).period) == set(x.period)
        assert check_T1235a(sample, [a] + sample.candidates(random.Random(len(pairs)))) is None

    def test_drawn_fields_match_the_predicates(self):
        sample = CubeSample.draw(random.Random(19), 2000)
        candidates = sample.candidates(random.Random(23))
        alex = [sample.alexandrov(a) for a in candidates]
        dual = [sample.dual(a) for a in candidates]
        cantor = sample.cantor()
        for i in range(2000):
            x = sample.sequence(i)
            assert x.preperiod == ()
            for a, alex_a, dual_a in zip(candidates, alex, dual):
                c = sample.at(a, i)
                assert guard(alex_a, i, 9) == lim_alexandrov(x)(c)
                assert guard(dual_a, i, 9) == lim_alexandrov_dual(x)(c)
                assert guard(alex_a & dual_a, i, 9) == (lim_cantor(x) == c)
            assert guard(cantor, i, 9) == (lim_cantor(x) is not None)
        assert check_T1235a(sample, candidates) is None

    def test_of_keeps_every_period_value_set(self):
        rng = random.Random(29)
        seqs = [random_fcseq(rng) for _ in range(300)]
        sample = cube_sample(seqs, 9)
        assert len(sample.slots) == max(len(x.period) for x in seqs)
        for i, x in enumerate(seqs):
            assert set(sample.sequence(i).period) == set(x.period)
            assert {sample.at(v, i) for v in sample.slots} == set(x.period)

    def test_of_rejects_a_support_on_the_generic_coordinate(self):
        cube_sample([FCSeq((), (fc_finite([7]),))], 9)
        for a in (fc_finite([8]), fc_cofinite([8])):
            with pytest.raises(ValueError):
                cube_sample([FCSeq((), (FC_EMPTY, a))], 9)

    def test_half_open_laws_do_not_read_limsup_or_liminf(self):
        # check_T1235a compares these laws with the limsup and liminf rules
        sample = cube_sample([FCSeq((), (fc_finite([0]), fc_cofinite([1])))], 9)
        del sample.limsup, sample.liminf
        assert sample.alexandrov(stack([FC_FULL], 9)) and not sample.alexandrov(stack([fc_finite([0])], 9))
        assert sample.dual(stack([fc_finite([0])], 9)) and not sample.dual(stack([fc_finite([2])], 9))


class TestPackedDraws:
    """What CubeSample.draw may hold, whatever the seeded streams are."""

    @pytest.fixture(scope="class")
    def sample(self):
        return CubeSample.draw(random.Random(31), 2000)

    def test_coordinates_0_to_7_are_fair_coins(self, sample):
        for v in sample.slots:
            assert v & sample.guards == 0
            for i in range(8):
                share = sum(sample.at(v, f) >> i & 1 for f in range(2000)) / 2000
                assert 0.45 < share < 0.55

    def test_generic_bit_set_exactly_on_cofinite_sets(self, sample):
        signs = set()
        for v in sample.slots:
            for f in range(2000):
                a = sample.at(v, f)
                assert fc_support(a) >> 8 == 0
                assert (a < 0) == bool(v >> f * 10 + 8 & 1)
                signs.add(a < 0)
        assert signs == {True, False}

    def test_every_length_1_to_4_occurs(self, sample):
        # a slot past the period repeats the first value, so a field's length
        # is one more than its last slot that differs from the first (rarely
        # less, where a drawn value repeats the first by chance)
        first = sample.slots[0]
        lengths = [
            1 + max((j for j, v in enumerate(sample.slots) if sample.at(v, f) != sample.at(first, f)), default=0)
            for f in range(2000)
        ]
        assert len(sample.slots) == 4
        for n in range(1, 5):
            assert 0.2 < lengths.count(n) / 2000 < 0.3

    # sha256 of criterion 10's slots and candidate stacks at verify seeds
    # 0..4 and 1,000 samples, captured from the packed draws: a seed keeps
    # checking the same sequences and candidates
    DIGESTS = [
        "026f830a3e219797a2816e3d8e76a01247d7cd23483c8d90459a2a9204dd5a67",
        "dd4000bb7c685d6d6ddc33cd6118ce727203d63651c1a4aeff1a6c7be3d38ae2",
        "793f6b8c09dedada7f7ea055e1ff1c8c37345bfccad988716d3221363bf0d1f8",
        "79fb7c38e47d7ca43239178815cfdaf1118aa2b29aba17bfdac8698225d3965c",
        "990c15457e94f9a04e00bcc4aeae4ddc537c95e64b607aedc9372173fc6f1363",
    ]

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_unchanged(self, seed):
        sample = CubeSample.draw(random.Random(seed + 2), 1000)
        stacks = sample.slots + tuple(sample.candidates(random.Random(seed + 3)))
        digest = hashlib.sha256(",".join(map(hex, stacks)).encode()).hexdigest()
        assert digest == self.DIGESTS[seed]


class TestCriterionFailure:
    """Criterion 10 with one packed law tampered: the rule it breaks, the
    sequence and the candidate are named, and verify exits 1."""

    @pytest.mark.parametrize("law, rule", [("alexandrov", "limsup"), ("dual", "liminf"), ("cantor", "conjunction")])
    def test_tampered_law_is_named_with_a_witness(self, monkeypatch, law, rule):
        # every law tampered to "no sequence converges"
        honest = CubeSample.draw(random.Random(2), 1000)
        candidates = honest.candidates(random.Random(3))
        monkeypatch.setattr(CubeSample, law, lambda self, *a: 0)
        got, i, a = check_T1235a(honest, candidates)
        assert got == rule
        x = honest.sequence(i)
        # the honest predicate converges where the tampered law said no
        if law == "alexandrov":
            assert lim_alexandrov(x)(a)
        elif law == "dual":
            assert lim_alexandrov_dual(x)(a)
        else:
            assert lim_cantor(x) == a
        result = CliRunner().invoke(main, ["verify", "--atoms", "1", "--samples", "1000"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        line = next(l for l in result.output.splitlines() if "coordinatewise cube limits" in l)
        assert line == f"[10/12] FAIL  coordinatewise cube limits: {rule} rule fails for {x!r} at candidate {fc_repr(a)}"


class TestDraws:
    """What the random sets may be, whatever the seeded streams hold."""

    def test_candidates_cover_the_window(self):
        # every window coordinate, the generic one included, is both in and
        # out of some random candidate's support, and both signs occur
        seqs, cands = random.Random(11), random.Random(13)
        held, cleared, signs, generic = 0, 0, set(), set()
        for _ in range(2000):
            x = random_fcseq(seqs)
            generic_bit = fcseq_support(x).bit_length()
            window = fcseq_support(x) | 1 << generic_bit
            for a in candidate_limits(x, cands)[6:]:
                support = fc_support(a)
                assert support & ~window == 0
                held |= support
                cleared |= window & ~support
                signs.add(a < 0)
                generic.add(support >> generic_bit & 1)
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


def recorded_repr(x: FCSeq) -> str:
    """repr of x with its period in the spelling the pins were recorded in."""
    return repr(FCSeq(x.preperiod, rotation_oracle(x.period)))


class TestPinnedStreams:
    # reprs of the oracles' random_fcseq and the first nine candidate_limits
    # (six structured, three random) for seeds 0..4, captured from the
    # implementation that draws each random set with one getrandbits call
    # plus one sign bit: a seed keeps drawing the same sequences and
    # candidates.  The periods were recorded at their least rotation, so each
    # drawn period is put in that spelling before it is formatted.
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
        assert (recorded_repr(x), pool) == self.PINNED[seed]

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
                recorded_repr(x),
                ",".join(map(fc_repr, pool)),
                "".join(f"{alex(a):d}{dual(a):d}" for a in pool),
                "None" if cantor is None else fc_repr(cantor),
                fc_repr(limsup(x)),
                fc_repr(liminf(x)),
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


def limits_at(x: FCSeq, candidates: list[int]) -> tuple:
    """Everything the cube consumers return for x, the predicates on candidates."""
    alex, dual = lim_alexandrov(x), lim_alexandrov_dual(x)
    verdicts = [(alex(a), dual(a)) for a in candidates]
    return liminf(x), limsup(x), lim_cantor(x), verdicts


class TestFCSeqCanonicalization:
    """An FCSeq holds the period it is given; rotating or repeating it changes
    no limit, since every consumer reads only the set of period values."""

    @given(
        pre=st.lists(fcsets(2), max_size=2).map(tuple),
        block=st.lists(fcsets(2), min_size=1, max_size=5).map(tuple),
        repeat=st.integers(1, 3),
        extra=st.lists(fcsets(3), max_size=4),
    )
    def test_matches_rotation_oracle(self, pre, block, repeat, extra):
        period = block * repeat
        x, y = FCSeq(pre, period), FCSeq(pre, rotation_oracle(period))
        assert (x.preperiod, x.period) == (pre, period)
        candidates = [liminf(x), limsup(x), FC_EMPTY, FC_FULL, *extra]
        assert limits_at(x, candidates) == limits_at(y, candidates)

    def test_period_rotation_and_reduction(self):
        a, b = fc_finite([0]), fc_finite([1])
        x, y = FCSeq((), (b, a, b, a)), FCSeq((), (a, b))
        assert x.period == (b, a, b, a) and x != y
        candidates = [FC_EMPTY, a, b, a | b, FC_FULL]
        assert limits_at(x, candidates) == limits_at(y, candidates)

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            FCSeq((FC_EMPTY,), ())

    def test_negative_support_rejected(self):
        for make in (fc_finite, fc_cofinite):
            with pytest.raises(ValueError):
                make([3, -1])
