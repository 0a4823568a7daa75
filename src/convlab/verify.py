"""The exhaustive verification suite driven by ``convlab verify``.

Each criterion is a function returning (passed, detail); the runner prints
one line per criterion in fixed order.  Expected counts come from independent
brute-force enumerators kept deliberately separate from the code paths they
check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import Carrier
from .convergence import Convergence, check_hbar, first_difference, hbar_witness, meet_conv
from .cube import FCSeq, candidate_limits, check_T1235a, fc_limsup, lim_alexandrov, lim_cantor
from .report import figure_nodes
from .seqclass import InfClass, representative
from .submeasure import Submeasure, metric_topology, validate_submeasure
from .topology import (
    Topology,
    check_closed_char,
    complement_homeomorphism_check,
    generate,
    lim_of_topology_as_convergence,
    space_properties,
    synthesize_O_lambda,
)


@dataclass
class VerifyContext:
    atoms: int
    seed: int = 0
    samples: int = 1000
    submeasure: Optional[Submeasure] = None
    _nodes: dict[int, dict] = field(default_factory=dict, init=False, repr=False)

    def node(self, name: str, n: int):
        """The diagram node ``name`` on P(n), from one ``figure_nodes`` build per n."""
        if n not in self._nodes:
            self._nodes[n] = figure_nodes(Carrier(n))
        return self._nodes[n][name]

    def carrier(self, n: int) -> Carrier:
        return self.node("lambda_ls", n).carrier

    def scales(self) -> range:
        return range(1, self.atoms + 1)

    def covered(self) -> str:
        """The atom counts ``scales()`` runs through, as a criterion's detail names them."""
        return f"n=1..{self.atoms}"


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def random_fcseq(rng: random.Random) -> FCSeq:
    """A seeded sequence whose sets have supports inside coordinates 0..7:
    each set is one 8-bit draw plus a sign bit, so every coordinate is a fair
    coin, chosen so that one draw makes the whole set."""
    def rand_set() -> int:
        bits = rng.getrandbits(8)
        return ~bits if rng.getrandbits(1) else bits

    pre = tuple(rand_set() for _ in range(rng.randrange(0, 3)))
    per = tuple(rand_set() for _ in range(rng.randrange(1, 4)))
    return FCSeq(pre, per)


def brute_downsets(n: int) -> int:
    """Independent down-set counter: points of P(n) as frozensets of atoms,
    order via plain subset tests.  Points are decided in ascending mask order,
    a linear extension of inclusion, and a point may join only after every
    point below it has."""
    points = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    below = [sum(1 << q for q in range(p) if points[q] < points[p]) for p in range(len(points))]

    def extend(p: int, chosen: int) -> int:
        if p == len(points):
            return 1
        total = extend(p + 1, chosen)
        if chosen & below[p] == below[p]:
            total += extend(p + 1, chosen | 1 << p)
        return total

    return extend(0, 0)


def _crit_pointwise_meet(ctx: VerifyContext):
    for n in ctx.scales():
        if meet_conv(ctx.node("lambda_ls", n), ctx.node("lambda_li", n)) != ctx.node("lambda_s", n):
            return False, f"pointwise meet mismatch at n={n}"
    return True, f"all classes, {ctx.covered()}"


def _crit_star_fixed(ctx: VerifyContext):
    for n in ctx.scales():
        for law in ("ls", "li", "s"):
            if ctx.node(f"lambda_{law}_star", n) != ctx.node(f"lambda_{law}", n):
                return False, f"star(lambda_{law}) != lambda_{law} at n={n}"
        ls, li, s = (ctx.node(f"lambda_{law}_star", n) for law in ("ls", "li", "s"))
        if s != meet_conv(ls, li):
            return False, f"star meet identity fails at n={n}"
    return True, f"star fixes all three convergences, {ctx.covered()}"


def _crit_open_counts(ctx: VerifyContext):
    expected = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
    for n in ctx.scales():
        got = ctx.node("O_ls", n).open_count()
        independent = brute_downsets(n)
        if got != expected[n] or independent != expected[n]:
            return False, f"n={n}: opens={got}, brute={independent}, expected={expected[n]}"
        if ctx.node("O_s", n).open_count() != 1 << (1 << n):
            return False, f"n={n}: O_s is not discrete"
    return True, f"down-set counts and discreteness match, {ctx.covered()}"


def _crit_closed_char(ctx: VerifyContext):
    for n in ctx.scales():
        if not check_closed_char(ctx.node("O_ls", n), "up"):
            return False, f"left closed sets != up-sets at n={n}"
        if not check_closed_char(ctx.node("O_li", n), "down"):
            return False, f"right closed sets != down-sets at n={n}"
    return True, f"closed sets match the order characterization, {ctx.covered()} (chain clause finite-trivial)"


def _crit_join_collapse(ctx: VerifyContext):
    for n in ctx.scales():
        o_lsi, o_s = ctx.node("O_lsi", n), ctx.node("O_s", n)
        if o_lsi != o_s:
            return False, f"join != O_s at n={n}"
        if metric_topology(Submeasure.counting(ctx.carrier(n))) != o_s:
            return False, f"metric topology != O_s at n={n}"
        if ctx.node("lim_O_lsi", n) != ctx.node("lambda_s", n):
            return False, f"lim of join != lambda_s at n={n}"
    return True, f"join, metric and discrete topologies coincide, {ctx.covered()}"


def _crit_limit_intersection(ctx: VerifyContext):
    for n in ctx.scales():
        both = meet_conv(ctx.node("lim_O_ls", n), ctx.node("lim_O_li", n))
        cls = first_difference(both, ctx.node("lim_O_lsi", n))
        if cls is not None:
            return False, f"intersection law fails at n={n} for {representative(InfClass(cls, n))}"
    return True, f"all classes, {ctx.covered()}"


def _crit_strictness(ctx: VerifyContext):
    for n in ctx.scales():
        car = ctx.carrier(n)
        zero_class = InfClass(1, n)
        if car.top not in ctx.node("lambda_ls", n)(zero_class):
            return False, f"top not a left-limit of the constant-0 sequence at n={n}"
        if car.top in ctx.node("lambda_s", n)(zero_class):
            return False, f"top wrongly a two-sided limit at n={n}"
        for law in ("ls", "li"):
            if ctx.node("O_lsi", n) <= ctx.node(f"O_{law}", n):
                return False, f"O_{law} not strictly below the join at n={n}"
    return True, f"witness classes and witness opens found, {ctx.covered()}"


def _crit_homeo_and_props(ctx: VerifyContext):
    for n in ctx.scales():
        if not complement_homeomorphism_check(ctx.node("O_ls", n), ctx.node("O_li", n)):
            return False, f"complement map is not a homeomorphism at n={n}"
        props = space_properties(ctx.node("O_ls", n))
        if not (props.t0 and props.connected and props.compact):
            return False, f"space properties fail at n={n}: {props}"
    return True, f"homeomorphic, T0, connected, compact, {ctx.covered()}"


def _random_topology(carrier: Carrier, rng: random.Random) -> Topology:
    k = rng.randrange(1, 5)
    subbase = [rng.randrange(1 << carrier.size) for _ in range(k)]
    return generate(carrier, subbase)


def _crit_galois(ctx: VerifyContext):
    rng = random.Random(ctx.seed + 1)
    for n in ctx.scales():
        car = ctx.carrier(n)
        m = car.size
        convs = [ctx.node(f"lambda_{law}", n) for law in ("ls", "li", "s")]
        topos = [ctx.node(f"O_{law}", n) for law in ("ls", "li", "s", "lsi")]
        # random (L1) columns: O_lam reads only lam's columns, and lim_O must have
        # no exceptions, so lam <= lim_O is decided on singletons and exceptions of
        # lam would change neither side.  Stacked, guard i is set when o_i is not
        # inside O_lam (O_lam's lanes escape o_i's) and when lam is not below lim_o_i.
        convs += [Convergence(car, lim1=[rng.randrange(1 << m) | 1 << a for a in range(m)]) for _ in range(50)]
        topos += [_random_topology(car, rng) for _ in range(50)]
        lims = [lim_of_topology_as_convergence(o) for o in topos]
        if any(lim_o.exceptions for lim_o in lims):
            return False, f"lim_O has exceptions at n={n}"
        opens_escaped = car.escapes([o._lanes for o in topos])
        limits_escaped = car.escapes([lim_o._lanes for lim_o in lims])
        for lam in convs:
            if opens_escaped(synthesize_O_lambda(lam)._lanes) != limits_escaped(lam._lanes):
                return False, f"adjunction fails at n={n}"
    return True, f"no counterexamples over built-in and random pairs, {ctx.covered()}"


def _crit_cube(ctx: VerifyContext):
    rng = random.Random(ctx.seed + 2)
    sample = [random_fcseq(rng) for _ in range(ctx.samples)]
    cand_rng = random.Random(ctx.seed + 3)
    for x in sample:
        alex = lim_alexandrov(x)
        ls = fc_limsup(x)
        for a in candidate_limits(x, cand_rng):
            if alex(a) != (a | ls == a):
                return False, f"coordinatewise limit disagrees with limsup rule for {x}"
        cantor = lim_cantor(x)
        vals = set(x.period)
        expect = next(iter(vals)) if len(vals) == 1 else None
        if cantor != expect:
            return False, f"discrete-cube limit disagrees with the unique-value rule for {x}"
    if not check_T1235a(sample, random.Random(ctx.seed + 4)):
        return False, "predicate conjunction does not characterize the discrete limit"
    return True, f"{len(sample)} sequence{'s' if len(sample) != 1 else ''} (the cube has no atom count)"


def _crit_submeasures(ctx: VerifyContext):
    for n in ctx.scales():
        car = ctx.carrier(n)
        mu = Submeasure.counting(car)
        counting = validate_submeasure(mu)
        if not (counting.is_submeasure() and counting.strictly_positive and counting.continuous):
            return False, f"counting measure fails an axiom at n={n}"
        truncated = validate_submeasure(Submeasure.truncated_cardinality(car))
        if not (truncated.is_submeasure() and truncated.continuous):
            return False, f"truncated submeasure fails an axiom at n={n}"
        # d(a, c) <= d(a, b) + d(b, c) with x = a ^ b and y = b ^ c: every
        # triple gives a pair of masks, and every pair arises from a triple
        v = mu.values
        if any(v[x ^ y] > v[x] + v[y] for x in range(car.size) for y in range(car.size)):
            return False, f"triangle inequality fails at n={n}"
    loaded = ctx.submeasure
    if loaded is not None:
        rep = validate_submeasure(loaded)
        if not rep.is_submeasure():
            return False, f"loaded table is not a submeasure: {rep}"
        if rep.strictly_positive and metric_topology(loaded) != ctx.node("O_s", loaded.carrier.n):
            return False, "loaded strictly positive submeasure does not induce O_s"
    loaded_n = f", loaded table n={loaded.carrier.n}" if loaded is not None else ""
    return True, f"axioms and triangle inequality, {ctx.covered()}{loaded_n}"


def _crit_hbar(ctx: VerifyContext):
    for n in ctx.scales():
        car = ctx.carrier(n)
        if not check_hbar(car):
            return False, f"subsequence-stability condition fails at n={n}"
        sample = InfClass((1 << car.size) - 1, n)
        if hbar_witness(sample).mask.bit_count() != 1:
            return False, f"witness is not a singleton at n={n}"
    return True, f"singleton witnesses on every class, {ctx.covered()} (larger subclasses finite-trivial)"


CRITERIA: list[tuple[str, Callable[[VerifyContext], tuple[bool, str]]]] = [
    ("pointwise meet identity", _crit_pointwise_meet),
    ("star-closure fixed points", _crit_star_fixed),
    ("sequential topology open counts", _crit_open_counts),
    ("closed-set characterization", _crit_closed_char),
    ("join collapse to discrete/metric", _crit_join_collapse),
    ("limit intersection law", _crit_limit_intersection),
    ("strictness witnesses", _crit_strictness),
    ("complement homeomorphism and space properties", _crit_homeo_and_props),
    ("antitone adjunction", _crit_galois),
    ("coordinatewise cube limits", _crit_cube),
    ("submeasure axioms and metric", _crit_submeasures),
    ("subsequence-stable limsup condition", _crit_hbar),
]


def run_all(ctx: VerifyContext) -> list[CriterionResult]:
    """Run the criteria in order; one that raises fails, detailing the exception."""
    results = []
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        try:
            passed, detail = fn(ctx)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(i, name, passed, detail))
    return results


def format_results(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{r.index:2d}/{len(results)}] {status}  {r.name}: {r.detail}")
    total = sum(1 for r in results if r.passed)
    lines.append(f"{total}/{len(results)} criteria passed")
    return "\n".join(lines)
