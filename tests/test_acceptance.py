"""Full verification suite at the largest exhaustive scale.

Runs every criterion once on a shared context and asserts each individually,
printing one status line per criterion (run with ``-s`` to see them).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import report, topology, verify
from convlab.algebra import Carrier
from convlab.convergence import Convergence, meet_conv
from convlab.report import figure_nodes
from convlab.seqclass import InfClass, representative
from convlab.submeasure import Submeasure, ValidationReport
from convlab.topology import Topology, discrete, lim_of_topology_as_convergence, lim_topo, synthesize_O_lambda
from convlab.verify import (
    CRITERIA,
    CriterionResult,
    VerifyContext,
    _crit_galois,
    _crit_limit_intersection,
    _crit_submeasures,
    run_all,
)

from oracles import table_of, transpose_rows, triangle_holds
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
    # columns: the sequence-level tests keep checking the same sequences
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
            words.append("".join("%x" % e.mask for e in x.preperiod) + "/" + "".join("%x" % e.mask for e in x.period))
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
        assert detail.startswith("intersection law fails at n=2 for EPSeq(preperiod=(")

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
        lsi = table_of(ctx.node("lim_O_lsi", 4))
        both = table_of(meet_conv(ctx.node("lim_O_ls", 4), ctx.node("lim_O_li", 4)))
        failing = [c for c in range(1, 1 << carrier.size) if lsi[c] != both[c]]
        assert all(c >> grown & 1 or (emptied is not None and c >> emptied & 1) for c in failing)
        assert failing[0] == 1 << least
        assert not passed
        assert detail == f"intersection law fails at n=4 for {representative(InfClass(1 << least, carrier.n))}"


class TestAdjunction:
    def test_tampered_synthesis_fails_at_four_atoms(self, monkeypatch):
        # O_lam replaced by the discrete topology at n = 4 only: every O lies
        # inside it, yet lambda_ls is not below the limits of O_s
        monkeypatch.setattr(
            verify,
            "synthesize_O_lambda",
            lambda lam: discrete(lam.carrier) if lam.carrier.n == 4 else synthesize_O_lambda(lam),
        )
        assert _crit_galois(VerifyContext(atoms=3)) == (
            True, "no counterexamples over built-in and random pairs, n=1..3",
        )
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "adjunction fails at n=4")

    @staticmethod
    def tamper_lim_O_ls(monkeypatch, change):
        """lim_{O_ls} at n = 4 replaced by ``change`` of it; every other limit
        operator is left alone."""
        def tampered(o):
            lim = lim_of_topology_as_convergence(o)
            if o.carrier.n == 4 and o.min_neighborhoods == o.carrier.down_masks:
                return change(lim)
            return lim

        monkeypatch.setattr(verify, "lim_of_topology_as_convergence", tampered)

    def test_tampered_limit_operator_fails_at_four_atoms(self, monkeypatch):
        # the limit 15 of the singleton {0} dropped: lambda_ls is no longer
        # below lim_{O_ls}, yet O_ls still lies inside O_{lambda_ls}; 15 != 0,
        # so the operator stays (L1)
        self.tamper_lim_O_ls(
            monkeypatch, lambda lim: Convergence(lim.carrier, lim1=[lim.lim1[0] & ~(1 << 15), *lim.lim1[1:]])
        )
        assert _crit_galois(VerifyContext(atoms=3)) == (
            True, "no counterexamples over built-in and random pairs, n=1..3",
        )
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "adjunction fails at n=4")

    def test_limit_operator_with_an_exception_fails(self, monkeypatch):
        # the class {0, 15} loses every limit: lambda_ls is no longer below
        # lim_{O_ls}, though the singleton columns, which the stacked test
        # reads, are unchanged
        self.tamper_lim_O_ls(
            monkeypatch, lambda lim: Convergence(lim.carrier, lim1=lim.lim1, exceptions=[(1 | 1 << 15, 0)])
        )
        assert _crit_galois(VerifyContext(atoms=4)) == (False, "lim_O has exceptions at n=4")


def synthesis_without_closure(lam):
    """synthesize_O_lambda with the transitive closure left out: N(q) is
    {p : q in lim1[p]}, which is not a preorder for most columns at n >= 2."""
    carrier = lam.carrier
    return Topology(carrier, transpose_rows(lam.lim1, carrier.size))


def crash_synthesis(monkeypatch):
    """Bind the mutant wherever convlab looks synthesis up."""
    for module in (topology, report, verify):
        monkeypatch.setattr(module, "synthesize_O_lambda", synthesis_without_closure)


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
        tables = {n: Submeasure.counting(Carrier(n)).values for n in (1, 2, 3, 4)}
        tables[4] = tables[4][:-1] + (Fraction(3, 2),)
        assert [triangle_holds(Submeasure(Carrier(n), v)) for n, v in tables.items()] == [True, True, True, False]
        assert triangle_criterion(tables) == (False, "triangle inequality fails at n=4")
