import random
import warnings
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.algebra import Carrier, EPSeq
from convlab.convergence import (
    Convergence,
    check_hbar,
    check_L1,
    check_L2,
    hbar_witness,
    lambda_li,
    lambda_ls,
    lambda_s,
    leq_conv,
    meet_conv,
    star,
)
from convlab.seqclass import InfClass, inf_class

from oracles import (
    SweepCapacityError,
    all_classes,
    from_table,
    is_hausdorff,
    random_l12_convergence,
    satisfies_L3,
    star_table,
    table_is_L2,
    class_points,
    points,
    table_of,
    transpose_rows,
    upset,
)


@st.composite
def counted_convergences(draw):
    """A random column, with or without (L1), and 0-8 exceptions; each class
    is drawn afresh, repeats an earlier one or widens it, so repeated and
    nested classes both occur."""
    carrier = Carrier(draw(st.integers(1, 3)))
    m = carrier.size
    masks = st.integers(0, (1 << m) - 1)
    fresh = st.sampled_from([c for c in range(1, 1 << m) if c & (c - 1)])
    lim1 = draw(st.lists(masks, min_size=m, max_size=m))
    if draw(st.booleans()):
        lim1 = [col | 1 << s for s, col in enumerate(lim1)]
    classes = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "repeat", "widen"])) if classes else "fresh"
        e = draw(fresh) if kind == "fresh" else draw(st.sampled_from(classes))
        if kind == "widen":
            e |= draw(masks)
        classes.append(e)
    return Convergence(carrier, lim1=lim1, exceptions=[(e, draw(masks)) for e in classes])


def cls(carrier, *atom_lists):
    """The class of the points with the given atom lists."""
    return InfClass(sum(1 << sum(1 << i for i in atoms) for atoms in atom_lists), carrier.n)


class TestBuiltinRules:
    def test_ls_of_constant_zero_is_everything(self, p2):
        limits = points(lambda_ls(p2)(cls(p2, [])))
        assert limits == frozenset(range(p2.size))
        assert 0b11 in limits

    def test_ls_of_constant_is_upset(self, p3):
        lam = lambda_ls(p3)
        for a in range(p3.size):
            assert points(lam(InfClass(1 << a, p3.n))) == upset(3, [a])

    def test_ls_of_alternating_atoms_is_top_only(self, p2):
        assert points(lambda_ls(p2)(cls(p2, [0], [1]))) == frozenset({0b11})

    def test_li_of_constant_one_is_everything(self, p2):
        assert points(lambda_li(p2)(cls(p2, [0, 1]))) == frozenset(range(p2.size))

    def test_li_de_morgan_dual_of_ls(self, p3):
        ls, li, full = lambda_ls(p3), lambda_li(p3), p3.size - 1
        for s in all_classes(p3):
            flipped = InfClass(sum(1 << (v ^ full) for v in class_points(s)), p3.n)
            assert points(li(s)) == frozenset(b ^ full for b in points(ls(flipped)))

    def test_s_of_constant(self, p2):
        lam = lambda_s(p2)
        for a in range(p2.size):
            assert points(lam(InfClass(1 << a, p2.n))) == frozenset({a})

    def test_s_of_oscillation_is_empty(self, p2):
        assert lambda_s(p2)(cls(p2, [0], [1])) == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_s_is_meet_of_ls_li(self, n):
        carrier = Carrier(n)
        assert meet_conv(lambda_ls(carrier), lambda_li(carrier)) == lambda_s(carrier)


class TestConvergenceAlgebra:
    def test_meet_of_ls_li_pointwise(self, p2):
        met = meet_conv(lambda_ls(p2), lambda_li(p2))
        for s in all_classes(p2):
            assert met(s) == lambda_ls(p2)(s) & lambda_li(p2)(s)

    def test_s_strictly_below_ls(self, p2):
        assert leq_conv(lambda_s(p2), lambda_ls(p2))
        assert not leq_conv(lambda_ls(p2), lambda_s(p2))

    def test_meet_idempotent(self, p3):
        lam = lambda_ls(p3)
        assert meet_conv(lam, lam) == lam

    def test_self_meets_keep_one_exception_per_class(self, p3):
        lam = random_l12_convergence(p3, random.Random(0))
        assert len(lam.exceptions) == 247
        met = lam
        for _ in range(3):
            met = meet_conv(met, lam)
            assert len(met.exceptions) == 247
            assert met == lam

    def test_exceptions_for_one_class_merge(self, p2):
        x, y = 0b0110, 0b1100
        lam = Convergence(p2, lim1=p2.up_masks, exceptions=[(3, x), (3, y)])
        assert lam.exceptions == ((3, x & y),)

    def test_carrier_mismatch(self, p2, p3):
        from convlab.algebra import CarrierMismatchError

        with pytest.raises(CarrierMismatchError):
            meet_conv(lambda_ls(p2), lambda_ls(p3))

    def test_class_of_another_width_refused(self, p2):
        from convlab.algebra import CarrierMismatchError

        with pytest.raises(CarrierMismatchError, match=r"^class over P\(3\) fed to convergence on P\(2\)$"):
            lambda_ls(p2)(InfClass(1, 3))

    def test_equality_with_another_type_is_left_to_it(self, p2):
        lam = lambda_ls(p2)
        assert lam.__eq__(lam.lim1) is NotImplemented
        assert lam != lam.lim1 and lam != "lambda_ls"


class TestAxioms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ls_li_satisfy_L1_L2(self, n):
        carrier = Carrier(n)
        for lam in (lambda_ls(carrier), lambda_li(carrier)):
            assert check_L1(lam)
            assert check_L2(lam)

    def test_s_satisfies_L1_L2(self, p3):
        assert check_L1(lambda_s(p3))
        assert check_L2(lambda_s(p3))

    def test_constant_empty_fails_L1(self, p2):
        empty = Convergence(p2, lim1=[0] * p2.size, name="empty")
        assert not check_L1(empty)

    def test_builtins_satisfy_L3_at_finite_scale(self, p3):
        for lam in (lambda_ls(p3), lambda_li(p3), lambda_s(p3)):
            assert satisfies_L3(lam)


class TestHausdorff:
    def test_s_is_hausdorff(self, p3):
        assert is_hausdorff(lambda_s(p3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ls_li_not_hausdorff(self, n):
        carrier = Carrier(n)
        assert not is_hausdorff(lambda_ls(carrier))
        assert not is_hausdorff(lambda_li(carrier))

    def test_empty_is_vacuously_hausdorff(self, p2):
        # no class has a limit, so no class has two
        empty = Convergence(p2, lim1=[0] * p2.size)
        assert empty.limit_count() == 0
        assert all(empty.limit_mask(mask) == 0 for mask in range(1 << p2.size))
        assert is_hausdorff(empty)


class TestStar:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_star_fixes_builtins(self, n):
        carrier = Carrier(n)
        for build in (lambda_ls, lambda_li, lambda_s):
            lam = build(carrier)
            assert star(lam) == lam

    def test_star_on_singletons_is_identity(self, p3):
        lam = lambda_ls(p3)
        starred = star(lam)
        for a in range(p3.size):
            s = InfClass(1 << a, p3.n)
            assert starred(s) == lam(s)

    def test_hand_enumeration_alternating_pair(self, p2):
        # three nonempty subclasses of {{0},{1}}: inner unions are
        # up({0}), up({1}), up({0}) | up({1}); the intersection is {top}
        lam = lambda_ls(p2)
        a, b = 0b01, 0b10
        inner = [
            upset(2, [a]),
            upset(2, [b]),
            upset(2, [a]) | upset(2, [b]),
        ]
        expected = inner[0] & inner[1] & inner[2]
        assert expected == frozenset({0b11})
        assert points(star(lam)(cls(p2, [0], [1]))) == expected

    def test_star_extends(self, p3):
        for build in (lambda_ls, lambda_li, lambda_s):
            lam = build(p3)
            assert leq_conv(lam, star(lam))

    def test_star_distributes_over_meet_of_ls_li(self, p3):
        got = star(meet_conv(lambda_ls(p3), lambda_li(p3)))
        want = meet_conv(star(lambda_ls(p3)), star(lambda_li(p3)))
        assert got == want

    def test_star_idempotent(self, p3):
        for build in (lambda_ls, lambda_li, lambda_s):
            lam = build(p3)
            assert star(star(lam)) == star(lam)

    def test_star_preserves_hausdorff(self, p3):
        lam = lambda_s(p3)
        assert is_hausdorff(lam)
        assert is_hausdorff(star(lam))

    def test_star_of_l12_convergence_satisfies_L3(self, p2):
        rng = random.Random(37)
        for _ in range(20):
            lam = random_l12_convergence(p2, rng)
            assert satisfies_L3(star(lam))

    def test_warns_without_L1(self, p2):
        empty = Convergence(p2, lim1=[0] * p2.size)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            star(empty)
        assert caught

    def test_non_L2_input_closed_on_tables(self, p1):
        # class 3 has limits 11 but its singletons only 01 and 10, so the
        # star-closure gives it the intersection of 01, 10 and 11: nothing
        table = [0, 0b01, 0b10, 0b11]
        assert not table_is_L2(table, p1.size)
        with pytest.raises(ValueError):
            from_table(p1, table)
        assert star_table(table, p1.size) == table_of(lambda_s(p1))


class TestHbar:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_holds_on_finite_carriers(self, n):
        assert check_hbar(Carrier(n))

    def test_witness_is_least_singleton(self, p2):
        s = cls(p2, [0], [1])
        assert class_points(hbar_witness(s)) == frozenset({0b01})

    def test_witness_stable_under_subclasses(self, p3):
        full = InfClass((1 << p3.size) - 1, p3.n)
        w = hbar_witness(full)
        assert len(class_points(w)) == 1


class TestLazyRule:
    def test_rule_backed_convergence_matches_table(self, p2):
        def rule(s):
            top = 0
            for v in class_points(s):
                top |= v
            return upset(2, [top])

        table = [0] + [sum(1 << a for a in rule(s)) for s in all_classes(p2)]
        lam = from_table(p2, table)
        assert lam.exceptions == ()
        assert lam == lambda_ls(p2)

    def test_large_carrier_pointwise_only(self):
        big = Carrier(5)
        lam = lambda_ls(big)
        x = EPSeq((), (0,), big.n)
        assert big.size - 1 in points(lam(inf_class(x)))
        with pytest.raises(SweepCapacityError):
            table_of(lam)
        # counted without a table: the exception cuts every point above
        # {0, 1}, and 4,295,297,686 - sum_j C(4, j) 2^(2^(j+1) - 2) is left
        with_exception = Convergence(big, lim1=lam.lim1, exceptions=[(0b11, 0)])
        assert with_exception.limit_count() == 3_221_489_925


class TestEqualityAcrossForms:
    # exception classes hold two or more points: not one point, not the
    # empty class 0, and not 1 << size, which lies outside the carrier
    def test_needs_exactly_one_form(self):
        for n in (1, 2, 3):
            carrier = Carrier(n)
            for e in (1, 1 << carrier.size - 1, 0, 1 << carrier.size, -1):
                with pytest.raises(ValueError, match="exception class"):
                    Convergence(carrier, lim1=carrier.up_masks, exceptions=[(e, 0)])

    # bit 2 lies outside P(1)'s two points, and -1 has every bit set
    @pytest.mark.parametrize(
        "form",
        [
            {"lim1": [4, 1]},
            {"lim1": [1, -1]},
            {"lim1": [1, 2], "exceptions": [(0b11, -1)]},
            {"lim1": [1, 2], "exceptions": [(0b11, 4)]},
            # ANDing -1 into the first limit given for the class would hide it
            {"lim1": [1, 2], "exceptions": [(0b11, 1), (0b11, -1)]},
        ],
    )
    def test_limit_masks_must_lie_in_the_carrier(self, p1, form):
        with pytest.raises(ValueError, match="limit masks"):
            Convergence(p1, **form)

    # P(1) has two points, so two singleton limits; from_table wants a table
    # of 2^2 entries, and the six-entry table starts like lambda_s(P(1))'s
    @pytest.mark.parametrize(
        "form", [{"lim1": [1]}, {"lim1": [1, 2, 3]}, {"table": [0, 1]}, {"table": [0, 1, 2, 0, 0, 0]}]
    )
    def test_form_length_must_match_the_carrier(self, p1, form):
        if "table" in form:
            with pytest.raises(ValueError, match="2\\^size entries"):
                from_table(p1, form["table"])
        else:
            with pytest.raises(ValueError, match="expected"):
                Convergence(p1, **form)

    def test_large_carrier_star_fixes_ls(self):
        big = Carrier(5)
        lam = lambda_ls(big)
        starred = star(lam)
        assert lam == starred
        assert hash(lam) == hash(starred)

    def test_extensional_copy_equals_principal(self, p3):
        # every larger class as an exception holding its own limits: all redundant
        lam = lambda_li(p3)
        table = table_of(lam)
        exceptions = [(c, table[c]) for c in range(1, len(table)) if c & (c - 1)]
        copy = Convergence(p3, lim1=lam.lim1, exceptions=exceptions)
        assert copy.exceptions != ()
        assert copy == lam
        assert hash(copy) == hash(lam)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_limit_mask_rejects_masks_outside_the_carrier(self, n):
        carrier = Carrier(n)
        with_exception = Convergence(carrier, lim1=carrier.up_masks, exceptions=[(0b11, 0)])
        for lam in (lambda_ls(carrier), with_exception):
            for mask in (-1, 1 << carrier.size):
                with pytest.raises(ValueError, match=f"class mask {mask} .*P\\({n}\\)"):
                    lam.limit_mask(mask)


class TestLimitCount:
    """(nonempty class, limit) pairs: a is a limit of S under lambda_ls
    exactly when S lies in the downset of a, which holds 2^|a| points, so
    the count is sum_k C(n,k) (2^(2^k) - 1); lambda_li is its dual, and
    lambda_s has one limit per singleton class."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form(self, n):
        carrier = Carrier(n)
        one_sided = sum(comb(n, k) * ((1 << (1 << k)) - 1) for k in range(n + 1))
        assert lambda_ls(carrier).limit_count() == one_sided
        assert lambda_li(carrier).limit_count() == one_sided
        assert lambda_s(carrier).limit_count() == 1 << n

    def test_four_atoms(self, p4):
        assert lambda_ls(p4).limit_count() == 66_658

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_principal_matches_table(self, n):
        carrier = Carrier(n)
        for law in (lambda_ls, lambda_li, lambda_s):
            lam = law(carrier)
            assert lam.limit_count() == sum(v.bit_count() for v in table_of(lam))

    @settings(max_examples=300, deadline=None)
    @given(counted_convergences())
    def test_exceptions_match_table(self, lam):
        assert lam.limit_count() == sum(v.bit_count() for v in table_of(lam))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_larger_class_an_exception(self, n):
        rng = random.Random(n)
        for _ in range(10):
            lam = random_l12_convergence(Carrier(n), rng)
            assert lam.limit_count() == sum(v.bit_count() for v in table_of(lam))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_exception_on_two_points(self, n):
        # (E, A) cuts the points a of AND(lim1[E]) outside A, and removes
        # the 2^(|P_a| - 2) classes inside P_a that contain E
        carrier = Carrier(n)
        m = carrier.size
        for law in (lambda_ls, lambda_li, lambda_s):
            lim1 = law(carrier).lim1
            sizes = [col.bit_count() for col in transpose_rows(lim1, m)]  # |P_a|
            base = sum((1 << k) - 1 for k in sizes)
            for lim in (0, 0x5555_5555 & (1 << m) - 1):
                for t in range(m):
                    for s in range(t):
                        cut = lim1[s] & lim1[t] & ~lim
                        lam = Convergence(carrier, lim1=lim1, exceptions=[(1 << s | 1 << t, lim)])
                        expected = base - sum(1 << sizes[a] - 2 for a in range(m) if cut >> a & 1)
                        assert lam.limit_count() == expected

    def test_many_overlapping_two_point_classes_match_table(self, p4):
        # 30 two-point classes on 16 points overlap heavily: the count
        # branches on their shared points rather than on subsets of them
        rng = random.Random(30)
        for lim1 in (p4.up_masks, p4.down_masks):
            pairs = [rng.sample(range(16), 2) for _ in range(30)]
            lam = Convergence(p4, lim1=lim1, exceptions=[(1 << s | 1 << t, rng.randrange(1 << 16)) for s, t in pairs])
            assert lam.limit_count() == sum(v.bit_count() for v in table_of(lam))

    def test_cycle_of_two_point_classes(self):
        # lambda_ls on P(5) with the 32 classes {p, p + 1 mod 32}, none with a
        # limit: a is a limit of the classes inside its downset that hold no
        # consecutive pair.  Below a < 31 the cycle's edges split the downset
        # into runs of consecutive points, and a run of l points has F(l + 2)
        # such subsets; below the top the whole cycle has L(32) = F(31) + F(33)
        big = Carrier(5)
        fib = [0, 1]
        while len(fib) < 34:
            fib.append(fib[-1] + fib[-2])
        expected = fib[31] + fib[33] - 1
        for a in range(31):
            product, run = 1, 0
            for s in range(33):
                if s < 32 and s & ~a == 0:
                    run += 1
                else:
                    product, run = product * fib[run + 2], 0
            expected += product - 1
        cycle = [(1 << p | 1 << (p + 1) % 32, 0) for p in range(32)]
        assert Convergence(big, lim1=big.up_masks, exceptions=cycle).limit_count() == expected == 4_954_219

    def test_counts_without_a_class_sweep(self, monkeypatch):
        def no_sweep(self, mask):
            raise AssertionError("limit_count swept a class")

        monkeypatch.setattr(Convergence, "limit_mask", no_sweep)
        big = Carrier(5)
        with_exception = Convergence(big, lim1=big.up_masks, exceptions=[(0b11, 0)])
        assert with_exception.limit_count() == 3_221_489_925
        rng = random.Random(5)
        exceptions = [(rng.randrange(1 << 32), rng.randrange(1 << 32)) for _ in range(20)]
        lam = Convergence(big, lim1=big.down_masks, exceptions=exceptions)
        assert 0 < lam.limit_count() < lambda_li(big).limit_count()
