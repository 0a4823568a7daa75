import random

import pytest

from convlab import topology
from convlab.algebra import Carrier, EPSeq
from convlab.convergence import (
    ClosureAxiomError,
    Convergence,
    lambda_li,
    lambda_ls,
    lambda_s,
    leq_conv,
)
from convlab.report import figure_nodes
from convlab.seqclass import InfClass, representative
from convlab.topology import (
    Topology,
    check_closed_char,
    complement_homeomorphism_check,
    discrete,
    first_open_not_in,
    generate,
    is_sequential,
    join_topologies,
    lim_of_topology_as_convergence,
    lim_topo,
    space_properties,
    synthesize_O_lambda,
)
from convlab.verify import brute_downsets

from oracles import (
    all_classes,
    antidiscrete,
    downset,
    from_table,
    generate_from_points,
    is_preorder,
    open_families,
    open_masks,
    points,
    preorder_census,
    random_l12_convergence,
    random_topology,
    reflexive_relations,
    sequential_closure,
    topology_from_opens,
    upset,
)
from test_algebra import random_epseq
from test_kernel import brute_topology


class TestGenerate:
    def test_empty_subbase_is_antidiscrete(self, p2):
        assert generate(p2, []) == antidiscrete(p2)

    def test_singletons_generate_discrete(self, p2):
        topo = generate(p2, [1 << p for p in range(p2.size)])
        assert topo == discrete(p2)
        assert len(open_masks(topo)) == 1 << p2.size

    def test_up_and_down_sets_generate_discrete(self, p1):
        subbase = [upset(1, [p]) for p in range(p1.size)] + [downset(1, [p]) for p in range(p1.size)]
        topo = generate_from_points(p1, subbase)
        assert topo == discrete(p1)

    # P(1) has two points; bit 5 lies outside them, and -1 has every bit set
    @pytest.mark.parametrize("mask", [1 << 5, -1])
    @pytest.mark.parametrize(
        "build",
        [lambda c, m: generate(c, [m]), lambda c, m: topology_from_opens(c, [0, 3, m])],
        ids=["generate", "Topology"],
    )
    def test_masks_outside_the_carrier_rejected(self, p1, build, mask):
        with pytest.raises(ValueError, match=r"open masks must lie in 0\.\.3"):
            build(p1, mask)

    def test_result_is_a_topology(self, p2):
        rng = random.Random(41)
        for _ in range(50):
            topo = random_topology(p2, rng)
            assert is_preorder(p2, list(topo.min_neighborhoods))


class TestSynthesis:
    def test_left_topology_opens_are_downsets_p2(self, p2):
        topo = synthesize_O_lambda(lambda_ls(p2))
        assert len(open_masks(topo)) == 6 == brute_downsets(2)

    def test_left_topology_p3_has_20_opens(self, p3):
        assert len(open_masks(synthesize_O_lambda(lambda_ls(p3)))) == 20 == brute_downsets(3)

    def test_left_topology_p4_has_168_opens(self, p4):
        assert len(open_masks(synthesize_O_lambda(lambda_ls(p4)))) == 168 == brute_downsets(4)

    def test_down_set_count_p5_is_dedekind(self):
        assert synthesize_O_lambda(lambda_ls(Carrier(5))).open_count() == 7581 == brute_downsets(5)

    def test_discrete_count_p5_exceeds_an_index(self):
        # a plain int: len() stops at sys.maxsize, below O_s's 2^64 opens at n = 6
        assert synthesize_O_lambda(lambda_s(Carrier(5))).open_count() == 2**32

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_two_sided_topology_is_discrete(self, n):
        carrier = Carrier(n)
        assert synthesize_O_lambda(lambda_s(carrier)) == discrete(carrier)

    def test_requires_L1_L2(self, p2):
        empty = Convergence(p2, lim1=[0] * p2.size)
        with pytest.raises(ClosureAxiomError):
            synthesize_O_lambda(empty)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strategies_agree(self, n):
        carrier = Carrier(n)
        rng = random.Random(43 + n)
        lams = [lambda_ls(carrier), lambda_li(carrier), lambda_s(carrier)]
        lams += [random_l12_convergence(carrier, rng) for _ in range(20)]
        for lam in lams:
            assert synthesize_O_lambda(lam) == brute_topology(lam)

    def test_single_closure_step(self, p2):
        lam = lambda_ls(p2)
        a_mask = 1 << 0b01 | 1 << 0b10
        closed = sequential_closure(lam, a_mask)
        # the class {{0},{1}} has limsup = top, so top joins the closure
        assert closed >> 0b11 & 1

    def test_closure_at_five_atoms(self):
        big = Carrier(5)
        a = 0b1
        assert sequential_closure(lambda_ls(big), 1 << a) == sum(1 << q for q in upset(5, [a]))
        assert sequential_closure(lambda_s(big), 1 << a) == 1 << a

    def test_closure_requires_L2(self, p1):
        # class 3's limits exceed those of its singletons, so no convergence has this table
        with pytest.raises(ValueError):
            from_table(p1, [0, 0b01, 0b10, 0b11])


class TestLimits:
    def test_constant_zero_in_left_topology(self, p2):
        o_ls = synthesize_O_lambda(lambda_ls(p2))
        limits = points(lim_topo(o_ls, EPSeq((), (0,), p2.n)))
        assert 0b11 in limits
        assert limits == frozenset(range(p2.size))

    def test_constant_zero_in_right_topology(self, p2):
        # right-topology opens are up-closed; the minimal open around any
        # a > 0 misses bottom, so the constant-0 sequence only converges to 0
        o_li = synthesize_O_lambda(lambda_li(p2))
        assert points(lim_topo(o_li, EPSeq((), (0,), p2.n))) == frozenset({0})

    def test_discrete_limits_are_eventual_constants(self, p2):
        topo = discrete(p2)
        a, top = 0b01, 0b11
        assert points(lim_topo(topo, EPSeq((top,), (a,), p2.n))) == frozenset({a})
        assert lim_topo(topo, EPSeq((), (a, top), p2.n)) == frozenset()

    def test_antidiscrete_limits_are_everything(self, p2):
        rng = random.Random(47)
        topo = antidiscrete(p2)
        for _ in range(20):
            x = random_epseq(p2, rng)
            assert points(lim_topo(topo, x)) == frozenset(range(p2.size))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closure_and_matches_neighbourhood_scan(self, n):
        # the scan lim_topo used to run: {a : S inside N(a)}
        carrier = Carrier(n)
        rng = random.Random(61 + n)
        for _ in range(30):
            topo = random_topology(carrier, rng)
            for _ in range(10):
                x = random_epseq(carrier, rng)
                smask = sum(1 << p for p in set(x.period))
                scan = frozenset(a for a, nb in enumerate(topo.min_neighborhoods) if smask & ~nb == 0)
                assert points(lim_topo(topo, x)) == scan
                assert points(lim_topo(topo, representative(InfClass(smask, carrier.n)))) == scan


class TestJoin:
    def test_join_of_up_and_down_is_discrete(self, p3):
        o_ls = synthesize_O_lambda(lambda_ls(p3))
        o_li = synthesize_O_lambda(lambda_li(p3))
        assert join_topologies(o_ls, o_li) == discrete(p3)

    def test_join_with_antidiscrete_is_identity(self, p2):
        o_ls = synthesize_O_lambda(lambda_ls(p2))
        assert join_topologies(o_ls, antidiscrete(p2)) == o_ls

    def test_join_idempotent(self, p2):
        o_ls = synthesize_O_lambda(lambda_ls(p2))
        assert join_topologies(o_ls, o_ls) == o_ls

    def test_join_contains_both(self, p2):
        rng = random.Random(53)
        for _ in range(20):
            o1 = random_topology(p2, rng)
            o2 = random_topology(p2, rng)
            joined = join_topologies(o1, o2)
            assert open_masks(o1) <= open_masks(joined)
            assert open_masks(o2) <= open_masks(joined)

    def test_limits_in_join_are_intersections(self, p3):
        o_ls = synthesize_O_lambda(lambda_ls(p3))
        o_li = synthesize_O_lambda(lambda_li(p3))
        joined = join_topologies(o_ls, o_li)
        rng = random.Random(59)
        for _ in range(300):
            x = random_epseq(p3, rng)
            assert lim_topo(joined, x) == lim_topo(o_ls, x) & lim_topo(o_li, x)


class TestAdjunction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_left_limits_recover_ls(self, n):
        carrier = Carrier(n)
        lam = lambda_ls(carrier)
        assert lim_of_topology_as_convergence(synthesize_O_lambda(lam)) == lam

    def test_discrete_limits_are_two_sided(self, p3):
        assert lim_of_topology_as_convergence(discrete(p3)) == lambda_s(p3)

    def test_antidiscrete_limits_are_everything(self, p2):
        lam = lim_of_topology_as_convergence(antidiscrete(p2))
        full = frozenset(range(p2.size))
        for s in all_classes(p2):
            assert points(lam(s)) == full

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_finite_topology_is_sequential(self, n):
        carrier = Carrier(n)
        rng = random.Random(61 + n)
        for _ in range(30):
            assert is_sequential(random_topology(carrier, rng))

    def test_downset_topology_sequential(self, p3):
        assert is_sequential(synthesize_O_lambda(lambda_ls(p3)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_galois_connection(self, n):
        carrier = Carrier(n)
        rng = random.Random(67 + n)
        convs = [lambda_ls(carrier), lambda_li(carrier), lambda_s(carrier)]
        convs += [random_l12_convergence(carrier, rng) for _ in range(50)]
        topos = [
            synthesize_O_lambda(lambda_ls(carrier)),
            discrete(carrier),
            antidiscrete(carrier),
        ]
        topos += [random_topology(carrier, rng) for _ in range(50)]
        for lam in convs:
            f_lam = synthesize_O_lambda(lam)
            for o in topos:
                assert (open_masks(o) <= open_masks(f_lam)) == leq_conv(
                    lam, lim_of_topology_as_convergence(o)
                )

    def test_antitone_both_directions(self, p2):
        rng = random.Random(71)
        convs = [random_l12_convergence(p2, rng) for _ in range(20)]
        for l1 in convs:
            for l2 in convs:
                if leq_conv(l1, l2):
                    assert (
                        open_masks(synthesize_O_lambda(l2))
                        <= open_masks(synthesize_O_lambda(l1))
                    )
        topos = [random_topology(p2, rng) for _ in range(20)]
        for o1 in topos:
            for o2 in topos:
                if open_masks(o1) <= open_masks(o2):
                    assert leq_conv(
                        lim_of_topology_as_convergence(o2),
                        lim_of_topology_as_convergence(o1),
                    )


def census(n: int) -> tuple[int, int, int]:
    """Over every reflexive relation on P(n)'s points, each taken as the
    columns of a convergence lam: the distinct O_lam, the T0 ones among them,
    and the lam that lim_{O_lam} gives back."""
    carrier = Carrier(n)
    topologies, fixed = set(), 0
    for rows in reflexive_relations(carrier.size):
        lam = Convergence(carrier, lim1=rows)
        o_lam = synthesize_O_lambda(lam)
        topologies.add(o_lam)
        fixed += lim_of_topology_as_convergence(o_lam) == lam
    return len(topologies), sum(space_properties(o).t0 for o in topologies), fixed


class TestCensus:
    """lam -> O_lam maps the reflexive relations on P(n)'s m = 2^n points onto
    the topologies on m points, and lim_{O_lam} is lam's transitive closure,
    so its fixed points are the preorders.  At m = 4 there are 355 topologies
    (OEIS A000798), 219 of them T0 (A001035, the partial orders)."""

    @pytest.mark.parametrize("n, counts", [(1, (4, 3, 4)), (2, (355, 219, 355))])
    def test_every_reflexive_relation(self, n, counts):
        preorders, orders = preorder_census(1 << n)
        assert census(n) == (preorders, orders, preorders) == counts

    def test_closure_skipping_its_last_pivot_fails(self, monkeypatch):
        # passes all 12 verify criteria: the preorder check reruns the same
        # closure, and the adjunction holds for any relation between lam and
        # its closure
        def skip_last_pivot(carrier, stack, k=1):
            assert k == 1
            m, full, ones = carrier.size, (1 << carrier.size) - 1, carrier.lane_ones
            for p in range(m - 1):
                stack |= (stack >> p & ones) * (stack >> p * m & full)
            return stack

        monkeypatch.setattr(topology, "_transitive_closure", skip_last_pivot)
        # it gives 632 distinct O_lam, 379 of them T0
        assert census(2) != (355, 219, 355)


class TestCharacterizations:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_closed_sets_of_left_topology(self, n):
        carrier = Carrier(n)
        assert check_closed_char(synthesize_O_lambda(lambda_ls(carrier)), "up")

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_closed_sets_of_right_topology(self, n):
        carrier = Carrier(n)
        assert check_closed_char(synthesize_O_lambda(lambda_li(carrier)), "down")

    def test_complement_homeomorphism(self, p1, p3):
        for carrier in (p1, p3):
            o_ls = synthesize_O_lambda(lambda_ls(carrier))
            o_li = synthesize_O_lambda(lambda_li(carrier))
            assert complement_homeomorphism_check(o_ls, o_li)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complement_map_fails_on_same_side(self, n):
        carrier = Carrier(n)
        o_ls = synthesize_O_lambda(lambda_ls(carrier))
        assert not complement_homeomorphism_check(o_ls, o_ls)

    def test_space_properties_left(self, p2):
        props = space_properties(synthesize_O_lambda(lambda_ls(p2)))
        assert props.t0 and props.connected and props.compact

    def test_discrete_disconnected(self, p2):
        props = space_properties(discrete(p2))
        assert not props.connected
        assert props.t0

    def test_antidiscrete_not_t0(self, p2):
        props = space_properties(antidiscrete(p2))
        assert not props.t0
        assert props.connected


class TestTopologyType:
    def test_must_contain_empty_and_full(self, p2):
        with pytest.raises(ValueError):
            topology_from_opens(p2, [0])

    # P(1) has two points.  The first two lists hold a mask outside them;
    # [0, 3] is the antidiscrete topology's open family, not one mask per point.
    @pytest.mark.parametrize(
        "mins", [[1 << 5, 3], [-1, 3], [0, 3]], ids=["bit5", "negative", "opens"]
    )
    def test_bad_neighbourhoods_rejected(self, p1, mins):
        with pytest.raises(ValueError, match="reflexive and transitive"):
            Topology(p1, mins)

    # the two masks P(1)'s tuple lookup used to fail on with an IndexError
    @pytest.mark.parametrize("mask", [1 << 7, -1], ids=["bit7", "negative"])
    def test_open_test_rejects_masks_outside_the_carrier(self, p1, mask):
        with pytest.raises(ValueError, match="not a subset of P\\(1\\)"):
            discrete(p1).is_open_mask(mask)

    def test_comparison_with_another_type_is_left_to_it(self, p1):
        topo = discrete(p1)
        assert topo.__eq__(topo.min_neighborhoods) is NotImplemented
        assert topo.__le__(topo.min_neighborhoods) is NotImplemented
        assert topo != topo.min_neighborhoods
        with pytest.raises(TypeError):
            topo <= topo.min_neighborhoods

    def test_open_families_in_canonical_order(self, p1):
        topo = discrete(p1)
        masks = [sum(1 << p for p in f) for f in open_families(topo)]
        assert masks == sorted(open_masks(topo))


class TestOpenFamilyClosure:
    def test_family_missing_a_union_rejected(self, p2):
        # {0} and {1} are open but their union, mask 3, is missing
        with pytest.raises(ValueError):
            topology_from_opens(p2, [0, 1, 2, 15])


class TestFirstOpenNotIn:
    def test_included_pair_is_decided_without_a_walk(self, monkeypatch):
        carrier = Carrier(4)
        o_s = synthesize_O_lambda(lambda_s(carrier))
        o_ls = synthesize_O_lambda(lambda_ls(carrier))
        for a in (o_s, o_ls):
            calls = []
            monkeypatch.setattr(o_s, "is_open_mask", lambda mask: calls.append(mask) or True)
            assert first_open_not_in(a, o_s) is None
            assert calls == []

    @staticmethod
    def adversarial(carrier):
        # discrete except N(top) = {bottom, top}: every open holding top and
        # not bottom is a witness against the discrete topology, and the least
        # of them, {top}, is the last open an ascending walk would reach
        top = carrier.size - 1
        return Topology(carrier, [1 << p for p in range(top)] + [1 | 1 << top])

    def test_adversarial_pair_is_decided_per_point(self, p4, monkeypatch):
        b = self.adversarial(p4)
        calls = []
        is_open_mask = b.is_open_mask
        monkeypatch.setattr(b, "is_open_mask", lambda mask: calls.append(mask) or is_open_mask(mask))
        assert first_open_not_in(discrete(p4), b) == 1 << 15
        assert len(calls) <= p4.size

    def test_adversarial_pair_at_five_atoms(self):
        carrier = Carrier(5)
        assert first_open_not_in(discrete(carrier), self.adversarial(carrier)) == 1 << 31

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_witness_is_the_least_open_not_in_the_other(self, n):
        carrier = Carrier(n)
        nodes = figure_nodes(carrier)
        topos = [nodes[name] for name in ("O_ls", "O_li", "O_s", "O_lsi")] + [self.adversarial(carrier)]
        opens = [open_masks(o) for o in topos]
        for a, opens_a in zip(topos, opens):
            for b, opens_b in zip(topos, opens):
                assert first_open_not_in(a, b) == min(opens_a - opens_b, default=None)
