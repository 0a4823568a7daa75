"""Full verification suite at the largest exhaustive scale.

Runs every criterion once on a shared context and asserts each individually,
printing one status line per criterion (run with ``-s`` to see them).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import topology, verify
from convlab.algebra import Carrier
from convlab.convergence import Convergence, meet_conv
from convlab.report import figure_nodes, first_violation, rows_named
from convlab.seqclass import InfClass
from convlab.submeasure import Submeasure, ValidationReport, validate_submeasure
from convlab.topology import Topology, check_closed_char, discrete, lim_topo, space_properties
from convlab.verify import (
    CRITERIA,
    CriterionResult,
    VerifyContext,
    _crit_closed_char,
    _crit_galois,
    _crit_hbar,
    _crit_homeo_and_props,
    _crit_join_collapse,
    _crit_limit_intersection,
    _crit_open_counts,
    _crit_pointwise_meet,
    _crit_star_fixed,
    _crit_strictness,
    _crit_submeasures,
    brute_downsets,
    run_all,
)

from oracles import (
    backtrack_downsets,
    fraction_values,
    points,
    rotation_oracle,
    table_of,
    transpose_rows,
    triangle_holds,
)
from test_algebra import random_epseq


@pytest.fixture(scope="module")
def results():
    ctx = VerifyContext(atoms=4, seed=0, samples=1000)
    return {r.name: r for r in run_all(ctx)}


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(results, name):
    r: CriterionResult = results[name]
    status = "PASS" if r.passed else "FAIL"
    print(f"[{r.index:2d}/{len(CRITERIA)}] {status}  {r.name}: {r.detail}")
    assert r.passed, f"{r.name}: {r.detail}"


def test_all_twelve_present(results):
    assert len(results) == len(CRITERIA) == 12


class TestLimitIntersectionLaw:
    # the first 20 sequences random_epseq draws from random.Random(seed) on
    # P(n), as "preperiod/period" value masks in hex, one sequence per word,
    # captured from the sampler the criterion drew from before it compared
    # columns: the sequence-level tests keep checking the same sequences.
    # The periods were recorded at their least rotation, so each drawn period
    # is put in that spelling before it is formatted.
    PINNED = {
        (0, 1): "101/1 0/001 1/0 10/011 110/0 011/01 0/01 /1 011/1 1/0011 00/01 000/0 100/1 /011 0/1 /01 10/0 0/0 /01 /0",
        (0, 2): "302/23 1/021 2/0 30/132 320/0 032/02 1/13 /2 022/2 2/0321 11/02 001/0 211/2233 /032 1/2 /12 30/1 0/0 /03 /0",
        (0, 3): "604/4756 2/142 4/1 71/365 740/1 075/15 3/27 /5 144/5 4/1653 23/04 112/01 433/4775 /175 3/4 /25 60/2 0/0 /16 /001",
        (0, 4): "d18/9fbc 4/384 9/2 f3/6da e81/2 0fa/2a 7/4e /a 399/a 9/2ca7 56/18 224/12 876/8efb /3fa 7/8 /5b d1/4 1/0 /3c /031",
        (1, 1): "0/011 100/0011 100/0 /0001 101/01 01/0 01/0111 010/0111 /0011 010/001 0/01 11/001 1/1 01/0111 10/0 /0 /01 /1 /01 1/1",
        (1, 2): "0/033 310/0033 210/0 /0113 312/13 03/1 02/1223 031/1223 /0132 030/113 0/13 23/031 3/3 13/0232 30/1 /0 /0212 /2 /12 2/233",
        (1, 3): "1/177 631/0066 431/0 /0336 735/37 06/2 15/3447 073/2556 /1265 070/226 0/36 57/062 6/7 36/0565 70/2 /011 /0434 /45 /24 4/577",
        (1, 4): "2/3fe c63/00cd 873/0 /076d f7b/7e 0d/5 3a/699f 1f7/5bbd /35cb 0f1/55c 0/7c be/0c4 d/f 6d/0bdb e0/5 /122 /0878 /9b /58 8/afe",
        (2, 1): "/0 01/0 111/001 111/0 0/01 1/1 11/0011 111/1 1/1 11/011 /0 /1 0/01 0/0011 0/0 /0 /1 00/01 /0 /011",
        (2, 2): "/0 12/011 323/002 233/1 0/12 2/3 22/1133 232/2333 2/23 23/132 /001 /2 0/12 0/0022 1/0 /0 /2 11/03 /01 /022",
        (2, 3): "/1 24/023 657/005 566/23 0/25 5/67 55/2673 475/5777 5/47 46/375 /031 /4 1/34 0/0055 3/1 /0 /5 22/06 /02 /145",
        (2, 4): "/2 59/156 cbe/0b1 acd/57 0/5a b/de bb/5ce7 8fb/befe a/8f 9d/6fb /063 /8 3/78 1/11bb 7/2 /0 /b 45/0c /14 /39a",
        (3, 1): "0/001 100/0011 1/0 0/011 111/01 /01 11/0111 01/01 1/001 010/0011 000/0011 00/0 1/001 11/1 101/0111 10/01 /1 10/0 11/011 1/1",
        (3, 2): "1/003 211/1133 3/0 0/023 333/02 /13 32/1323 02/02 2/003 020/0231 000/0221 00/0 3/021 22/3 302/1232 20/0312 /223 30/0 23/122 2/223",
        (3, 3): "2/071 433/2376 6/1 0/047 667/15 /37 64/3656 04/15 4/117 151/0462 100/0543 01/0 6/042 55/6 614/3464 50/0625 /557 70/0 47/255 5/446",
        (3, 4): "4/0f2 876/47fc c/2 1/08f dce/3b /6f d9/7cbd 08/3a 8/2f3 2b2/09d4 311/1a87 02/1 d/184 ab/c c38/79d8 a0/0c4a /bbe f0/0 8e/5ba a/89c",
        (4, 1): "1/1 000/1 00/001 00/001 11/1 000/01 10/1 0/001 /0111 0/0011 11/01 /01 /011 /1 /011 10/01 01/01 /0111 /0001 /0",
        (4, 2): "2/3 100/3 01/021 10/112 22/2 111/02 21/2333 1/002 /1232 0/1132 32/02 /12 /123 /2 /022 21/0213 12/0212 /1222 /0131 /0",
        (4, 3): "4/6 211/6 03/142 30/243 45/5 323/0414 43/4676 3/014 /2475 1/2374 65/15 /34 /247 /5 /055 52/1437 24/0525 /2554 /1363 /0",
        (4, 4): "9/c 422/c 17/385 60/586 9b/a 757/0829 96/9ded 7/128 /48fa 2/56e8 da/3a /78 /59e /b /0aa a4/296e 48/0b5a /5bb9 /36d6 /1",
    }

    @pytest.mark.parametrize("seed, n", sorted(PINNED))
    def test_draws_are_pinned(self, seed, n):
        carrier, rng = Carrier(n), random.Random(seed)
        words = []
        for _ in range(20):
            x = random_epseq(carrier, rng)
            period = rotation_oracle(x.period)
            words.append("".join("%x" % p for p in x.preperiod) + "/" + "".join("%x" % p for p in period))
        assert " ".join(words) == self.PINNED[seed, n]

    def test_failure_names_a_sequence(self, monkeypatch):
        def tampered(carrier):
            nodes = figure_nodes(carrier)
            if carrier.n == 2:
                nodes["lim_O_lsi"] = nodes["lim_O_ls"]
            return nodes

        monkeypatch.setattr(verify, "figure_nodes", tampered)
        ctx = VerifyContext(atoms=2, seed=0, samples=50)
        passed, detail = _crit_limit_intersection(ctx)
        assert not passed
        # the constant-{} class: lim_O_ls gives it every point, the meet only {}
        assert detail == "lim_O_ls & lim_O_li = lim_O_lsi fails at n=2 (witness: class InfClass({}))"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_law_on_sampled_sequences(self, n):
        # the law read sequence by sequence through lim_topo, preperiods and
        # all, on the stream pinned above
        carrier, rng = Carrier(n), random.Random(n)
        o_ls, o_li, o_lsi = (figure_nodes(carrier)[f"O_{law}"] for law in ("ls", "li", "lsi"))
        for _ in range(300):
            x = random_epseq(carrier, rng)
            assert lim_topo(o_lsi, x) == lim_topo(o_ls, x) & lim_topo(o_li, x)

    @pytest.mark.parametrize("grown, emptied, least", [(9, None, 9), (9, 5, 5), (5, 9, 5)])
    def test_tampered_column_names_the_least_failing_class(self, monkeypatch, grown, emptied, least):
        # lim_O_lsi at n = 4 with one extra limit bit in column `grown`, and
        # optionally no limit in column `emptied`: only classes holding one of
        # those points fail, and the least of them is a singleton
        def tampered(carrier):
            nodes = figure_nodes(carrier)
            if carrier.n == 4:
                lim1 = list(nodes["lim_O_lsi"].lim1)
                lim1[grown] |= 1 << 3
                if emptied is not None:
                    lim1[emptied] = 0
                nodes["lim_O_lsi"] = Convergence(carrier, lim1=lim1)
            return nodes

        monkeypatch.setattr(verify, "figure_nodes", tampered)
        ctx = VerifyContext(atoms=4)
        passed, detail = _crit_limit_intersection(ctx)
        carrier = ctx.carrier(4)
        lsi = table_of(ctx.nodes(4)["lim_O_lsi"])
        both = table_of(meet_conv(ctx.nodes(4)["lim_O_ls"], ctx.nodes(4)["lim_O_li"]))
        failing = [c for c in range(1, 1 << carrier.size) if lsi[c] != both[c]]
        assert all(c >> grown & 1 or (emptied is not None and c >> emptied & 1) for c in failing)
        assert failing[0] == 1 << least
        assert not passed
        witness = InfClass(1 << least, carrier.n)
        assert detail == f"lim_O_ls & lim_O_li = lim_O_lsi fails at n=4 (witness: class {witness!r})"


def tamper_nodes(monkeypatch, at: int, **replace):
    """figure_nodes, as verify reads it, with node ``name`` on P(at) replaced
    by the node ``replace[name]`` names."""
    def tampered(carrier):
        nodes = figure_nodes(carrier)
        if carrier.n == at:
            nodes.update({name: nodes[other] for name, other in replace.items()})
        return nodes

    monkeypatch.setattr(verify, "figure_nodes", tampered)


class TestRowCriteria:
    """Criteria 1, 2, 5, 6 and 7 check rows of report.RELATIONS: one tampered
    node at n = 3 fails the first row that reads it, named with its witness."""

    @pytest.mark.parametrize(
        "criterion, replace, detail",
        [
            (
                _crit_pointwise_meet,
                {"lambda_s": "lambda_ls"},
                "lambda_ls & lambda_li = lambda_s fails at n=3 (witness: class InfClass({}))",
            ),
            (
                _crit_star_fixed,
                {"lambda_li_star": "lambda_s"},
                "lambda_li_star = lambda_li fails at n=3 (witness: class InfClass({0}))",
            ),
            (_crit_join_collapse, {"O_lsi": "O_ls"}, "O_lsi = O_s fails at n=3 (witness: open {{0}})"),
            (
                _crit_limit_intersection,
                {"lim_O_lsi": "lim_O_ls"},
                "lim_O_ls & lim_O_li = lim_O_lsi fails at n=3 (witness: class InfClass({}))",
            ),
            (_crit_strictness, {"O_lsi": "O_li"}, "O_ls < O_lsi fails at n=3 (witness: open {{}})"),
        ],
        ids=["pointwise-meet", "star-fixed", "join-collapse", "limit-intersection", "strictness"],
    )
    def test_tampered_node_names_row_n_and_witness(self, monkeypatch, criterion, replace, detail):
        tamper_nodes(monkeypatch, 3, **replace)
        assert criterion(VerifyContext(atoms=4)) == (False, detail)

    def test_metric_topology_is_checked_after_the_rows(self, monkeypatch):
        monkeypatch.setattr(verify, "metric_topology", lambda mu: figure_nodes(mu.carrier)["O_ls"])
        assert _crit_join_collapse(VerifyContext(atoms=2)) == (False, "metric topology != O_s at n=1")

    def test_strictness_without_a_witness(self, monkeypatch):
        tamper_nodes(monkeypatch, 2, lambda_ls="lambda_s")
        assert _crit_strictness(VerifyContext(atoms=2)) == (False, "lambda_s < lambda_ls fails at n=2")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_strictness_witness_is_the_constant_zero_class(self, n):
        # the row lambda_s < lambda_ls is strict where lambda_ls <= lambda_s
        # fails: on the class of the constant-0 sequence, where the top is a
        # lambda_ls limit and no lambda_s limit
        (row,) = rows_named("lambda_s < lambda_ls")
        assert row in _crit_strictness.rows
        ctx = VerifyContext(atoms=n)
        lhs, _, rhs, source = row
        _, mask = first_violation(((rhs, "<=", lhs, source),), ctx.nodes(n))
        zero, top = InfClass(1, n), (1 << n) - 1
        assert InfClass(mask, n) == zero
        assert top in points(ctx.nodes(n)["lambda_ls"](zero)) and top not in points(ctx.nodes(n)["lambda_s"](zero))


# M(n), the number of down-sets of P(n): OEIS A000372
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}


class TestOpenCounts:
    """Criterion 3 compares O_ls's open count with brute_downsets and the
    Dedekind numbers, and O_s's with 2^(2^n)."""

    def test_counter_agrees_with_backtracking_and_reads_no_order(self, monkeypatch):
        counts = {n: brute_downsets(n) for n in DEDEKIND}
        assert counts == {n: backtrack_downsets(n) for n in DEDEKIND} == DEDEKIND
        # the counter stays independent of the order criterion 3 checks
        for attribute in ("up_lanes", "down_lanes"):
            monkeypatch.setattr(Carrier, attribute, property(lambda c: 0))
        assert Carrier(3).up_lanes == Carrier(3).down_lanes == 0
        assert {n: brute_downsets(n) for n in DEDEKIND} == DEDEKIND

    def test_wrong_brute_count_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "brute_downsets", lambda n: DEDEKIND[n] + 1)
        assert _crit_open_counts(VerifyContext(atoms=2)) == (False, "n=1: opens=3, brute=4, expected=3")

    def test_wrong_open_count_fails(self, monkeypatch):
        tamper_nodes(monkeypatch, 2, O_ls="O_s")
        assert _crit_open_counts(VerifyContext(atoms=3)) == (False, "n=2: opens=16, brute=6, expected=6")

    def test_o_s_not_discrete_fails(self, monkeypatch):
        tamper_nodes(monkeypatch, 1, O_s="O_ls")
        assert _crit_open_counts(VerifyContext(atoms=2)) == (False, "n=1: O_s is not discrete")


class TestClosedChar:
    """Criterion 4 checks O_ls's closed sets against the up-sets, then O_li's
    against the down-sets, at each n; a failed check names its side and n."""

    @pytest.mark.parametrize(
        "side, detail",
        [("up", "left closed sets != up-sets at n=2"), ("down", "right closed sets != down-sets at n=2")],
    )
    def test_failed_side_is_named(self, monkeypatch, side, detail):
        def tampered(o, which):
            return check_closed_char(o, which) and not (which == side and o.carrier.n == 2)

        monkeypatch.setattr(verify, "check_closed_char", tampered)
        assert _crit_closed_char(VerifyContext(atoms=3)) == (False, detail)


class TestHomeoAndProps:
    """Criterion 8 checks the complement homeomorphism, then O_ls's space
    properties, at each n."""

    def test_failed_homeomorphism(self, monkeypatch):
        monkeypatch.setattr(verify, "complement_homeomorphism_check", lambda o_ls, o_li: False)
        assert _crit_homeo_and_props(VerifyContext(atoms=2)) == (
            False, "complement map is not a homeomorphism at n=1",
        )

    def test_disconnected_space(self, monkeypatch):
        monkeypatch.setattr(verify, "space_properties", lambda o: space_properties(o)._replace(connected=False))
        assert _crit_homeo_and_props(VerifyContext(atoms=2)) == (
            False,
            "space properties fail at n=1: "
            "SpaceProperties(t0=True, connected=False, compact=True, compact_note='finite carrier')",
        )


class TestAdjunction:
    @staticmethod
    def tamper(monkeypatch, **change):
        """figure_nodes, as verify reads it, with node ``name`` on P(4)
        replaced by ``change[name]`` of it; every other node is left alone."""
        def tampered(carrier):
            nodes = figure_nodes(carrier)
            if carrier.n == 4:
                nodes.update({name: f(nodes[name]) for name, f in change.items()})
            return nodes

        monkeypatch.setattr(verify, "figure_nodes", tampered)

    @staticmethod
    def record_syntheses(monkeypatch, change=lambda carrier, fields: fields):
        """Criterion 9's stacked synthesis, its fields passed through
        ``change``; returns the fields it handed on, by n."""
        made = {}

        def recorded(carrier, stack, k=1, name=""):
            made[carrier.n] = change(carrier, carrier.unstack(topology._synthesized(carrier, stack, k, name), k))
            return carrier.stack(made[carrier.n])

        monkeypatch.setattr(verify, "_synthesized", recorded)
        return made

    def test_tampered_synthesis_fails_at_four_atoms(self, monkeypatch):
        # the laws' O_lam replaced by the discrete topology at n = 4 only:
        # every O lies inside it, yet lambda_ls is not below the limits of O_s
        self.tamper(monkeypatch, **dict.fromkeys(("O_ls", "O_li", "O_s"), lambda o: discrete(o.carrier)))
        assert _crit_galois(VerifyContext(atoms=3)) == (
            True, "no counterexamples over built-in and random pairs, n=1..3",
        )
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "adjunction fails at n=4")

    def test_tampered_limit_operator_fails_at_four_atoms(self, monkeypatch):
        # the limit 15 of the singleton {0} dropped: lambda_ls is no longer
        # below lim_{O_ls}, yet O_ls still lies inside O_{lambda_ls}; 15 != 0,
        # so the operator stays (L1)
        self.tamper(
            monkeypatch, lim_O_ls=lambda lim: Convergence(lim.carrier, lim1=[lim.lim1[0] & ~(1 << 15), *lim.lim1[1:]])
        )
        assert _crit_galois(VerifyContext(atoms=3)) == (
            True, "no counterexamples over built-in and random pairs, n=1..3",
        )
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "adjunction fails at n=4")

    def test_limit_operator_with_an_exception_fails(self, monkeypatch):
        # the class {0, 15} loses every limit: lambda_ls is no longer below
        # lim_{O_ls}, though the singleton columns, which the stacked test
        # reads, are unchanged
        self.tamper(
            monkeypatch, lim_O_ls=lambda lim: Convergence(lim.carrier, lim1=lim.lim1, exceptions=[(1 | 1 << 15, 0)])
        )
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "lim_O has exceptions at n=4")

    @pytest.mark.parametrize("seed", range(5))
    def test_random_topologies_are_distinct(self, monkeypatch, seed):
        # the random relations are sparse, so their closures, the random
        # topologies the laws are tested against, are not all the antidiscrete one
        made = self.record_syntheses(monkeypatch)
        assert _crit_galois(VerifyContext(atoms=4, seed=seed))[0]
        assert [len(set(made[n])) >= 45 for n in (3, 4)] == [True, True]

    def test_swapped_random_topologies_fail(self, monkeypatch):
        # fields 0 and 1 of the stacked synthesis swapped from n = 3 on: each
        # relation is tested against the other's O_lam
        def swap(carrier, fields):
            if carrier.n >= 3:
                fields[0], fields[1] = fields[1], fields[0]
            return fields

        self.record_syntheses(monkeypatch, swap)
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "adjunction fails at n=3")


def synthesis_without_closure(carrier, stack, k=1, name=""):
    """``topology._synthesized`` with the transitive closure left out: in each
    field N(q) is {p : q in lim1[p]}, which is not a preorder for most
    columns at n >= 2."""
    fields = carrier.unstack(stack, k)
    return carrier.stack([Topology(carrier, transpose_rows(carrier.unpack(f), carrier.size))._lanes for f in fields])


def crash_synthesis(monkeypatch):
    """Bind the mutant wherever convlab looks the stacked synthesis up; every
    synthesis, one relation or a stack, runs through it."""
    for module in (topology, verify):
        monkeypatch.setattr(module, "_synthesized", synthesis_without_closure)


class TestCrashingCriterion:
    def test_raising_criterion_fails_and_later_ones_run(self, monkeypatch):
        def boom(ctx):
            raise RuntimeError("boom")

        criteria = list(CRITERIA)
        criteria[2] = (criteria[2][0], boom)
        monkeypatch.setattr(verify, "CRITERIA", criteria)
        results = run_all(VerifyContext(atoms=2, samples=20))
        assert len(results) == 12
        assert (results[2].passed, results[2].detail) == (False, "RuntimeError: boom")
        assert all(r.passed for i, r in enumerate(results) if i != 2)

    def test_synthesis_without_closure_fails_the_adjunction(self, monkeypatch):
        crash_synthesis(monkeypatch)
        results = run_all(VerifyContext(atoms=4))
        failed = [(r.name, r.detail) for r in results if not r.passed]
        assert failed == [
            ("antitone adjunction", "ValueError: minimal neighbourhoods must be reflexive and transitive")
        ]
        assert results[-1].index == 12


def order_lanes(carrier, up, steps):
    """``Carrier.up_lanes`` (up) or ``down_lanes`` rebuilt by the doubling
    steps (i, column) given, so a test can drop or alter one."""
    m, full = carrier.size, (1 << carrier.size) - 1
    lanes = full if up else full << (m - 1) * m
    for i, col in steps:
        if up:
            lanes |= lanes << (m << i) & col * carrier.lane_ones
        else:
            lanes |= lanes >> (m << i) & (full ^ col) * carrier.lane_ones
    return lanes


class TestBrokenCarrierOrder:
    """Each criterion but the cube's reads the order through the laws, so a
    packed up or down table built wrong fails it: lambda_ls or lambda_li
    then loses part of its diagonal, and synthesis refuses it."""

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_rebuild_matches_the_carrier(self, up):
        for n in range(1, 6):
            carrier = Carrier(n)
            table = carrier.up_lanes if up else carrier.down_lanes
            assert order_lanes(carrier, up, enumerate(carrier._columns())) == table

    @pytest.mark.parametrize(
        "attribute, up, mutant, witness",
        [
            # at n = 1 no step runs, so lane 1 stays empty
            ("up_lanes", True, lambda cols: list(enumerate(cols))[:-1], "column 1 of lambda_ls on P(1) lacks the point 1"),
            # the same column at n = 1, where there is only one; at n = 2
            # lane 2 is the top lane less the points with atom 1
            (
                "down_lanes", False, lambda cols: [(i, cols[-1] if i == 0 else col) for i, col in enumerate(cols)],
                "column 2 of lambda_li on P(2) lacks the point 2",
            ),
        ],
        ids=["up-last-step-dropped", "down-step-0-reads-the-last-column"],
    )
    def test_mutant_fails_verify(self, monkeypatch, attribute, up, mutant, witness):
        monkeypatch.setattr(Carrier, attribute, property(lambda c: order_lanes(c, up, mutant(c._columns()))))
        with pytest.warns(UserWarning, match=r"violating \(L1\)"):
            results = run_all(VerifyContext(atoms=3))
        failed = [r.name for r in results if not r.passed]
        assert failed == [name for name, _ in CRITERIA if name != "coordinatewise cube limits"]
        # the refusal names the broken law and its first point outside its own column
        assert results[0].detail == (
            f"ClosureAxiomError: sequential topology requires a convergence satisfying (L1): {witness}"
        )


# every axiom passes, so criterion 11 fails, if at all, on the triangle inequality
PASSING = ValidationReport(*[True] * 5)


def triangle_criterion(tables: dict):
    """Criterion 11 with validate_submeasure stubbed and the counting measure
    on P(n) replaced by ``tables[n]``, at n = 1..len(tables)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "validate_submeasure", lambda mu: PASSING)
        mp.setattr(Submeasure, "counting", classmethod(lambda cls, carrier: cls(carrier, tables[carrier.n])))
        return _crit_submeasures(VerifyContext(atoms=len(tables)))


class TestTriangleInequality:
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n) for n in (1, 2, 3))))
    def test_pairs_agree_with_triples(self, tables):
        tables = dict(enumerate(tables, start=1))
        failing = [n for n, v in tables.items() if not triangle_holds(Submeasure(Carrier(n), v))]
        passed, detail = triangle_criterion(tables)
        if failing:
            assert (passed, detail) == (False, f"triangle inequality fails at n={failing[0]}")
        else:
            assert (passed, detail) == (True, "axioms and triangle inequality, n=1..3")

    def test_names_the_only_failing_atom_count(self):
        # the counting measure's values, with the top of P(4) pushed above
        # d(top, {0,1}) + d({0,1}, bottom) = 1/2 + 1/2
        tables = {n: fraction_values(Submeasure.counting(Carrier(n))) for n in (1, 2, 3, 4)}
        tables[4] = tables[4][:-1] + (Fraction(3, 2),)
        assert [triangle_holds(Submeasure(Carrier(n), v)) for n, v in tables.items()] == [True, True, True, False]
        assert triangle_criterion(tables) == (False, "triangle inequality fails at n=4")


class TestSubmeasureAxioms:
    """Criterion 11 validates the counting measure, then the truncated one,
    at each n, then a loaded table; each failure is named."""

    @pytest.mark.parametrize(
        "call, change, detail",
        [
            (1, {"strictly_positive": False}, "counting measure fails an axiom at n=1"),
            (2, {"subadditive": False}, "truncated submeasure fails an axiom at n=1"),
            (3, {"continuous": False}, "counting measure fails an axiom at n=2"),
            (4, {"monotone": False}, "truncated submeasure fails an axiom at n=2"),
        ],
        ids=["counting-n1", "truncated-n1", "counting-n2", "truncated-n2"],
    )
    def test_failed_axiom_names_the_measure_and_n(self, monkeypatch, call, change, detail):
        calls = []

        def tampered(mu):
            calls.append(mu)
            report = validate_submeasure(mu)
            return report._replace(**change) if len(calls) == call else report

        monkeypatch.setattr(verify, "validate_submeasure", tampered)
        assert _crit_submeasures(VerifyContext(atoms=2)) == (False, detail)
        assert [mu.carrier.n for mu in calls] == [1, 1, 2, 2][:call]

    @staticmethod
    def loaded(tmp_path, values) -> Submeasure:
        path = tmp_path / "mu.txt"
        path.write_text("".join(f"{m} {v}\n" for m, v in enumerate(values)))
        return Submeasure.from_file(str(path), Carrier(2))

    def test_non_monotone_table_fails(self, tmp_path):
        # {0,1} weighs less than {0}
        mu = self.loaded(tmp_path, ["0", "1", "1", "1/2"])
        assert _crit_submeasures(VerifyContext(atoms=2, submeasure=mu)) == (
            False,
            "loaded table is not a submeasure: ValidationReport(zero_on_bottom=True, monotone=False, "
            "subadditive=True, strictly_positive=True, continuous=True, continuous_note='finite-trivial')",
        )

    def test_strictly_positive_table_must_induce_o_s(self, tmp_path, monkeypatch):
        mu = self.loaded(tmp_path, ["0", "1/2", "1/2", "1"])
        assert _crit_submeasures(VerifyContext(atoms=1, submeasure=mu)) == (
            True, "axioms and triangle inequality, n=1..1, loaded table n=2",
        )
        monkeypatch.setattr(verify, "metric_topology", lambda mu: figure_nodes(mu.carrier)["O_ls"])
        assert _crit_submeasures(VerifyContext(atoms=1, submeasure=mu)) == (
            False, "loaded strictly positive submeasure does not induce O_s",
        )


class TestHbarCriterion:
    """Criterion 12 checks the subsequence-stability condition, then that the
    full class's witness is a singleton, at each n."""

    def test_failed_condition_names_n(self, monkeypatch):
        monkeypatch.setattr(verify, "check_hbar", lambda carrier: carrier.n != 2)
        assert _crit_hbar(VerifyContext(atoms=3)) == (False, "subsequence-stability condition fails at n=2")

    def test_witness_must_be_a_singleton(self, monkeypatch):
        # the full class of P(1) holds both points
        monkeypatch.setattr(verify, "hbar_witness", lambda s: s)
        assert _crit_hbar(VerifyContext(atoms=2)) == (False, "witness is not a singleton at n=1")
