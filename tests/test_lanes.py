"""Relations packed into lanes against the one-bit-per-step oracles.

``Carrier.pack``, ``unpack`` and ``transpose``, the packed closure behind
``synthesize_O_lambda``, the packed preorder check of ``Topology`` and the
lane popcounts of ``Convergence.limit_count`` are each compared with a loop
over single bits (``tests/oracles.py``) at n = 1..5, and the stacked
``Carrier.escapes`` with the pairwise ``Topology.__le__`` and ``leq_conv``.
Stacks of k relations are closed, transposed, checked and synthesized at
once, and compared field by field with the same operations on one relation
at a time, none setting a field's guard bit; criterion 9's draw is compared
with its relations drawn one at a time, and ``generate`` with the subbase
oracle. Lanes handed on instead of packed again are compared with a fresh
pack of their rows, and the laws and the operations on them are checked to
neither pack nor unpack.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import verify
from convlab.algebra import Carrier
from convlab.convergence import (
    ClosureAxiomError,
    Convergence,
    check_L1,
    lambda_li,
    lambda_ls,
    lambda_s,
    leq_conv,
    meet_conv,
    star,
)
from convlab.topology import (
    Topology,
    _preorders,
    _synthesized,
    _transitive_closure,
    generate,
    join_topologies,
    lim_of_topology_as_convergence,
    synthesize_O_lambda,
)

import oracles
from oracles import (
    generated_rows,
    is_preorder,
    random_columns,
    random_draws_by_relation,
    random_topology,
    sparse_columns,
    table_of,
    transpose_rows,
    warshall_rows,
)

CARRIERS = {n: Carrier(n) for n in range(1, 6)}


@st.composite
def relations(draw, max_atoms=5):
    """A carrier and one random row per point."""
    carrier = CARRIERS[draw(st.integers(1, max_atoms))]
    rows = draw(st.lists(st.integers(0, (1 << carrier.size) - 1), min_size=carrier.size, max_size=carrier.size))
    return carrier, rows


def reflexive(rows):
    return [row | 1 << p for p, row in enumerate(rows)]


@settings(max_examples=200, deadline=None)
@given(relations())
def test_transpose_against_oracle(relation):
    carrier, rows = relation
    lanes = carrier.pack(rows)
    assert carrier.unpack(lanes) == rows
    assert carrier.unpack(carrier.transpose(lanes)) == transpose_rows(rows, carrier.size)
    assert carrier.transpose(carrier.transpose(lanes)) == lanes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lane_constants(n):
    carrier = CARRIERS[n]
    m = carrier.size
    assert carrier.lane_ones == carrier.pack([1] * m)
    assert carrier.lane_diagonal == carrier.pack([1 << p for p in range(m)])
    # the full relation and the empty one are their own transposes
    assert carrier.transpose(carrier.pack([(1 << m) - 1] * m)) == carrier.pack([(1 << m) - 1] * m)
    assert carrier.transpose(0) == 0


@settings(max_examples=200, deadline=None)
@given(relations())
def test_synthesis_against_oracle_closure(relation):
    carrier, rows = relation
    lim1 = reflexive(rows)
    reach = warshall_rows(lim1)
    topo = synthesize_O_lambda(Convergence(carrier, lim1=lim1))
    assert topo.min_neighborhoods == tuple(transpose_rows(reach, carrier.size))
    assert topo.point_closures == tuple(reach)


@st.composite
def neighbourhood_lists(draw):
    """Candidate minimal neighbourhoods: random rows, reflexive rows, closed
    preorders with one bit cut, and preorders with one entry made negative,
    pushed above the carrier, or with an entry too many or too few."""
    carrier, rows = draw(relations())
    m, full = carrier.size, (1 << carrier.size) - 1
    kind = draw(st.sampled_from(["random", "reflexive", "preorder", "cut", "negative", "above", "length"]))
    if kind == "random":
        return carrier, rows
    if kind == "reflexive":
        return carrier, reflexive(rows)
    mins = warshall_rows(reflexive(rows))
    p = draw(st.integers(0, m - 1))
    if kind == "cut":
        mins[p] &= ~(1 << draw(st.integers(0, m - 1)))
    elif kind == "negative":
        mins[p] = draw(st.integers(max_value=-1))
    elif kind == "above":
        mins[p] |= 1 << draw(st.integers(m, m + 8))
    elif kind == "length":
        mins = mins[:-1] if draw(st.booleans()) else mins + [full]
    return carrier, mins


@settings(max_examples=400, deadline=None)
@given(neighbourhood_lists())
def test_topology_accepts_exactly_the_preorders(candidate):
    carrier, mins = candidate
    if is_preorder(carrier, mins):
        topo = Topology(carrier, mins)
        assert topo.min_neighborhoods == tuple(mins)
        assert topo.point_closures == tuple(transpose_rows(mins, carrier.size))
    else:
        with pytest.raises(ValueError, match="reflexive and transitive"):
            Topology(carrier, mins)


# P(2) has four points; N(0) = {0, 1} holds 1, whose N(1) = {1, 2} does not
# lie inside it
@pytest.mark.parametrize(
    "mins",
    [
        [0b0001, 0b0010, 0b0100, 0b0000],  # point 3 outside its own
        [0b0011, 0b0110, 0b0100, 0b1000],  # not transitive
        [0b0001, 0b0010, 0b0100, -1],  # negative
        [0b0001, 0b0010, 0b0100, 0b11000],  # above the carrier
        [0b0001, 0b0010, 0b0100],  # one too few
        [0b0001, 0b0010, 0b0100, 0b1000, 0b1000],  # one too many
    ],
    ids=["non-reflexive", "non-transitive", "negative", "above-full", "short", "long"],
)
def test_each_rejection(mins):
    carrier = CARRIERS[2]
    assert not is_preorder(carrier, mins)
    with pytest.raises(ValueError, match="reflexive and transitive"):
        Topology(carrier, mins)


@settings(max_examples=100, deadline=None)
@given(relations(max_atoms=3))
def test_limit_count_matches_table(relation):
    carrier, rows = relation
    lam = Convergence(carrier, lim1=rows)
    assert lam.limit_count() == sum(v.bit_count() for v in table_of(lam))


@settings(max_examples=100, deadline=None)
@given(relations())
def test_limit_count_from_column_sizes(relation):
    # past the tables: a is a limit of exactly the 2^|P_a| - 1 nonempty
    # classes inside P_a = {s : a in lim1[s]}, row a of the transpose
    carrier, rows = relation
    sizes = [col.bit_count() for col in transpose_rows(rows, carrier.size)]
    assert Convergence(carrier, lim1=rows).limit_count() == sum((1 << k) - 1 for k in sizes)


def guard_bits(carrier, flags):
    """The guard bit of field i for every true flags[i]: the top bit of the
    i-th (4^n + 1)-bit field."""
    width = carrier.size**2 + 1
    return sum(1 << i * width + width - 1 for i, flag in enumerate(flags) if flag)


def escapes(carrier, rows):
    """``Carrier.escapes`` on the stack of ``rows``."""
    return carrier.escapes(carrier.stack(rows), len(rows))


@st.composite
def escape_cases(draw):
    """A carrier, one to eight random topologies, one to eight random (L1)
    columns, and one of each to test against the stacks: a fresh draw or a
    row of the stack."""
    carrier = CARRIERS[draw(st.integers(1, 5))]
    m, full = carrier.size, (1 << carrier.size) - 1
    masks = st.integers(0, full)

    def topology():
        return generate(carrier, draw(st.lists(masks, max_size=4)))

    def columns():
        return Convergence(carrier, lim1=[draw(masks) | 1 << a for a in range(m)])

    k = draw(st.integers(1, 8))
    topos, convs = [topology() for _ in range(k)], [columns() for _ in range(k)]
    o = topology() if draw(st.booleans()) else draw(st.sampled_from(topos))
    lam = columns() if draw(st.booleans()) else draw(st.sampled_from(convs))
    return carrier, topos, o, convs, lam


@settings(max_examples=200, deadline=None)
@given(escape_cases())
def test_escapes_against_pairwise_order_tests(case):
    carrier, topos, o, convs, lam = case
    opens_escaped = escapes(carrier, [t._lanes for t in topos])
    assert opens_escaped(o._lanes) == guard_bits(carrier, [not t <= o for t in topos])
    limits_escaped = escapes(carrier, [c._lanes for c in convs])
    assert limits_escaped(lam._lanes) == guard_bits(carrier, [not leq_conv(lam, c) for c in convs])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_escapes_edge_rows(n):
    carrier = CARRIERS[n]
    full, top = (1 << carrier.size**2) - 1, 1 << carrier.size**2 - 1
    # a stack of one row
    assert escapes(carrier, [full])(full) == 0
    assert escapes(carrier, [0])(1) == guard_bits(carrier, [True])
    # failing only in the top data bit: the carry reaches this field's guard
    # and no further
    assert escapes(carrier, [full ^ top, full, full])(full) == guard_bits(carrier, [True, False, False])
    assert escapes(carrier, [full, full ^ top])(top) == guard_bits(carrier, [False, True])
    # failing only in bit 0 of the first field
    assert escapes(carrier, [full ^ 1, full])(1) == guard_bits(carrier, [True, False])
    # x escaping every row, and the empty relation escaping none
    rows = [full ^ 1, full ^ top, 0, full ^ 1 << carrier.size]
    assert escapes(carrier, rows)(full) == guard_bits(carrier, [True] * len(rows))
    assert escapes(carrier, rows)(0) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CARRIERS)),
    st.sampled_from([1, 2, 3, 5, 6, 7, 11, 54]),
    st.randoms(use_true_random=False),
    st.sampled_from(["random", "below", "row", "one bit"]),
)
def test_escapes_against_per_relation_oracle(n, k, rng, kind):
    # x is copied into the k fields by doubling shifts, which overshoot
    # the last field unless k is a power of two
    carrier = CARRIERS[n]
    width = carrier.size**2
    rows = [rng.getrandbits(width) | rng.getrandbits(width) | rng.getrandbits(width) for _ in range(k)]
    x = {
        "random": rng.getrandbits(width),
        "below": rows[rng.randrange(k)] & rng.getrandbits(width),
        "row": rows[rng.randrange(k)],
        "one bit": 1 << rng.randrange(width),
    }[kind]
    assert escapes(carrier, rows)(x) == guard_bits(carrier, [x & ~r != 0 for r in rows])


class TestHandedLanes:
    """The random columns hold their diagonal, each other bit drawn with its
    share: a fair coin, or 2^-n for criterion 9's draw (made one relation at
    a time, which its draw equals, ``TestStacks``).  Synthesis and limit
    operators keep the lanes they computed, and the random columns the lanes
    they were drawn as."""

    @staticmethod
    def assert_shares(draw, low, high):
        """2,000 draws on P(2) from ``draw``: each an (L1) relation without
        exceptions, each bit q of column p != q set in a share within (low, high)."""
        carrier, rng = CARRIERS[2], random.Random(37)
        draws = [draw(carrier, rng) for _ in range(2000)]
        assert all(check_L1(lam) and not lam.exceptions for lam in draws)
        for p in range(carrier.size):
            for q in range(carrier.size):
                share = sum(lam.lim1[p] >> q & 1 for lam in draws) / 2000
                if p == q:
                    assert share == 1
                else:
                    assert low < share < high

    def test_columns_hold_the_diagonal_and_fair_coins(self):
        self.assert_shares(random_columns, 0.45, 0.55)

    def test_sparse_columns_hold_the_diagonal_and_one_bit_in_four(self):
        # at n = 2 each other bit is the AND of two fair coins
        self.assert_shares(sparse_columns, 0.2, 0.3)

    def test_subbase_sets_are_fair_coins(self, monkeypatch):
        subbases = []
        monkeypatch.setattr(oracles, "generate", lambda carrier, subbase: subbases.append(subbase))
        rng = random.Random(41)
        for _ in range(2000):
            random_topology(CARRIERS[2], rng)
        for k in range(1, 5):
            assert 0.2 < sum(len(subbase) == k for subbase in subbases) / 2000 < 0.3
        masks = [mask for subbase in subbases for mask in subbase]
        assert all(0 <= mask < 16 for mask in masks)
        for q in range(4):
            assert 0.45 < sum(mask >> q & 1 for mask in masks) / len(masks) < 0.55

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_handed_lanes_match_a_fresh_pack(self, n):
        carrier = CARRIERS[n]
        rng = random.Random(43 + n)
        for _ in range(30):
            lam = random_columns(carrier, rng)
            assert lam._lanes == carrier.pack(lam.lim1)
            for o in (synthesize_O_lambda(lam), random_topology(carrier, rng)):
                assert o._lanes == carrier.pack(o.min_neighborhoods)
                lim = lim_of_topology_as_convergence(o)
                assert lim.lim1 == o.point_closures
                assert lim._lanes == carrier.pack(lim.lim1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_handed_lanes_are_checked_as_a_preorder(self, n):
        # row 0 reaches 1 and row 1 reaches 2, but row 0 does not reach 2;
        # and a relation without its diagonal
        carrier = CARRIERS[n]
        rows = [1 << p for p in range(carrier.size)]
        rows[0] |= 1 << 1
        rows[1] |= 1 << 2
        for lanes in (carrier.pack(rows), carrier.lane_diagonal ^ 1):
            with pytest.raises(ValueError, match="reflexive and transitive"):
                Topology._from_lanes(carrier, lanes)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_check_L1_reads_every_column(self, n):
        carrier = CARRIERS[n]
        rng = random.Random(47 + n)
        for _ in range(30):
            lam = random_columns(carrier, rng)
            assert check_L1(lam)
            # each column in turn without its own bit
            for p in range(carrier.size):
                cut = [col & ~(1 << p) if s == p else col for s, col in enumerate(lam.lim1)]
                assert not check_L1(Convergence(carrier, lim1=cut))


@settings(max_examples=200, deadline=None)
@given(relations(max_atoms=4))
def test_check_L1_against_the_columns(relation):
    carrier, rows = relation
    assert check_L1(Convergence(carrier, lim1=rows)) == all(row >> p & 1 for p, row in enumerate(rows))


class TestStoredForm:
    """Every relation on the points is held once, as lanes: the laws and the
    operations on them hand lanes on, and rows are unpacked only when read."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lane_operations_neither_pack_nor_unpack(self, n, monkeypatch):
        carrier = Carrier(n)
        carrier.transpose(0)  # Carrier._swaps packs its masks once per carrier
        calls = []
        for name in ("pack", "unpack"):
            original = getattr(Carrier, name)
            monkeypatch.setattr(Carrier, name, lambda self, x, f=original, name=name: calls.append(name) or f(self, x))
        ls, li, s = lambda_ls(carrier), lambda_li(carrier), lambda_s(carrier)
        assert [star(lam) for lam in (ls, li, s)] == [ls, li, s]
        assert meet_conv(ls, li) == s
        o_ls, o_li, o_s = (synthesize_O_lambda(lam) for lam in (ls, li, s))
        assert join_topologies(o_ls, o_li) == o_s
        assert lim_of_topology_as_convergence(o_s) == s
        assert check_L1(random_columns(carrier, random.Random(n)))
        # the class {0, top} has the limsup top and the liminf 0
        top = carrier.size - 1
        assert (ls.limit_mask(1 | 1 << top), li.limit_mask(1 | 1 << top)) == (1 << top, 1)
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_rows_and_lanes_build_equal_relations(self, relation):
        carrier, rows = relation
        mins = warshall_rows(reflexive(rows))
        pairs = [
            (Convergence(carrier, lim1=rows), Convergence._from_lanes(carrier, carrier.pack(rows))),
            (Topology(carrier, mins), Topology._from_lanes(carrier, carrier.pack(mins))),
        ]
        for built, handed in pairs:
            assert built == handed
            assert hash(built) == hash(handed)


@st.composite
def stacks(draw, max_fields=60):
    """A carrier on n = 1..4 atoms and 1..max_fields relations on its
    points: empty, random, or random with the diagonal set."""
    carrier = CARRIERS[draw(st.integers(1, 4))]
    relation = st.integers(0, (1 << carrier.size**2) - 1)
    field = st.one_of(st.just(0), relation, relation.map(lambda x: x | carrier.lane_diagonal))
    return carrier, draw(st.lists(field, min_size=1, max_size=max_fields))


class TestStacks:
    """A stack of k relations, relation i in field i, against the same
    operation on each relation alone, and on its rows by the oracles.
    ``generate`` takes one subbase and is checked against the oracle per
    subbase; criterion 9's draw against its relations drawn one at a time."""

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_closure_and_transpose_field_by_field(self, case):
        carrier, fields = case
        k, stack, m = len(fields), carrier.stack(fields), carrier.size
        assert carrier.unstack(stack, k) == fields
        closed = carrier.unstack(_transitive_closure(carrier, stack, k), k)
        assert closed == [_transitive_closure(carrier, f) for f in fields]
        assert closed == [carrier.pack(warshall_rows(carrier.unpack(f))) for f in fields]
        transposed = carrier.unstack(carrier.transpose(stack, k), k)
        assert transposed == [carrier.transpose(f) for f in fields]
        assert transposed == [carrier.pack(transpose_rows(carrier.unpack(f), m)) for f in fields]

    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.integers(0, 60))
    def test_layout(self, case, cut):
        # field i starts at bit (4^n + 1)·i, under its guard bit; a stack
        # given as the last entry carries on as the fields after it
        carrier, fields = case
        k, full = len(fields), (1 << carrier.size**2) - 1
        assert carrier.stacked(k).guards == guard_bits(carrier, [True] * k)
        assert carrier.stacked(k).data == sum(full << i * (carrier.size**2 + 1) for i in range(k))
        head, tail = fields[:cut], fields[cut:]
        assert carrier.stack(head + [carrier.stack(tail)]) == carrier.stack(fields)

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_every_operation_leaves_the_guard_bits_0(self, case):
        # the escape test's carry sets a guard bit that no stack operation set
        carrier, fields = case
        k, width = len(fields), carrier.size**2 + 1
        reflexive = [f | carrier.lane_diagonal for f in fields]
        results = {
            "closure": _transitive_closure(carrier, carrier.stack(fields), k),
            "transpose": carrier.transpose(carrier.stack(fields), k),
            "preorders": _preorders(carrier, carrier.stack([_transitive_closure(carrier, f) for f in reflexive]), k),
            "synthesis": _synthesized(carrier, carrier.stack(reflexive), k),
        }
        for name, stack in results.items():
            assert stack & guard_bits(carrier, [True] * k) == 0, name
            assert stack >> width * k == 0, name

    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.data())
    def test_preorder_check_field_by_field(self, case, data):
        # each field as drawn, or closed with its diagonal set: a preorder
        carrier, fields = case
        fields = [
            _transitive_closure(carrier, f | carrier.lane_diagonal) if data.draw(st.booleans()) else f
            for f in fields
        ]
        stack = carrier.stack(fields)
        if all(is_preorder(carrier, carrier.unpack(f)) for f in fields):
            assert _preorders(carrier, stack, len(fields)) == stack
        else:
            with pytest.raises(ValueError, match="reflexive and transitive"):
                _preorders(carrier, stack, len(fields))

    @settings(max_examples=150, deadline=None)
    @given(stacks(), st.booleans())
    def test_synthesis_field_by_field(self, case, reflexive_all):
        carrier, fields = case
        if reflexive_all:
            fields = [f | carrier.lane_diagonal for f in fields]
        k, stack = len(fields), carrier.stack(fields)
        lams = [Convergence._from_lanes(carrier, f) for f in fields]
        failing = [i for i, lam in enumerate(lams) if not check_L1(lam)]
        if not failing:
            assert carrier.unstack(_synthesized(carrier, stack, k), k) == [synthesize_O_lambda(lam)._lanes for lam in lams]
            return
        # the refusal names the first field without (L1) and its first point
        # outside its own column, as the one-field refusal names the point
        i = failing[0]
        p = next(p for p, col in enumerate(lams[i].lim1) if not col >> p & 1)
        lacks = f"column {p} of %s on P({carrier.n}) lacks the point {p}"
        with pytest.raises(ClosureAxiomError) as stacked:
            _synthesized(carrier, stack, k)
        assert str(stacked.value).endswith(": " + lacks % f"field {i} of a {k}-field stack")
        with pytest.raises(ClosureAxiomError) as alone:
            synthesize_O_lambda(lams[i])
        assert str(alone.value).endswith(": " + lacks % "a convergence")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(CARRIERS[n]),
            st.lists(st.lists(st.integers(0, (1 << (1 << n)) - 1), max_size=5), min_size=1, max_size=60),
        )
    ))
    def test_generation_per_subbase(self, case):
        # subbases of 0..5 sets, so some generate the antidiscrete topology
        carrier, subbases = case
        for s in subbases:
            rows, topo = generated_rows(carrier, s), generate(carrier, s)
            assert topo._lanes == carrier.pack(rows)
            assert lim_of_topology_as_convergence(topo)._lanes == carrier.pack(transpose_rows(rows, carrier.size))

    @pytest.mark.parametrize("mask", [1 << 5, -1])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_generation_checks_every_mask(self, mask, index):
        # P(1) has two points; bit 5 lies outside them, and -1 has every bit set
        subbases = [[1], [2, 3], [0]]
        subbases[index] = subbases[index] + [mask]
        with pytest.raises(ValueError, match=r"open masks must lie in 0\.\.3"):
            for subbase in subbases:
                generate(CARRIERS[1], subbase)

    @pytest.mark.parametrize("seed", range(5))
    def test_criterion_9_stacks_are_the_drawn_objects(self, seed):
        # criterion 9 draws at n = 1..4 from one generator seeded seed + 1
        stacked, alone = random.Random(seed + 1), random.Random(seed + 1)
        for n in range(1, 5):
            carrier = CARRIERS[n]
            relations = verify._random_draws(carrier, stacked, 50)
            assert relations == [sparse_columns(carrier, alone)._lanes for _ in range(50)]
            assert stacked.getstate() == alone.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_criterion_9_draws_match_the_per_relation_form(self, seed):
        # one list of n k words, ANDed in groups of n, is the same stream as
        # drawing and ANDing relation by relation
        listed, by_relation = random.Random(seed), random.Random(seed)
        for n in range(1, 6):
            carrier = CARRIERS[n]
            for k in (1, 50):
                assert verify._random_draws(carrier, listed, k) == random_draws_by_relation(carrier, by_relation, k)
                assert listed.getstate() == by_relation.getstate()
