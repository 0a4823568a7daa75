"""The exhaustive verification suite driven by ``convlab verify``.

Each criterion is a function returning (passed, detail); the runner prints
one line per criterion in fixed order.  Expected counts are literal known
values, and criterion 3 checks them against an independent counter that
reads nothing of the code paths it checks.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable
from functools import reduce
from operator import and_

from .algebra import Carrier
from .convergence import check_hbar, hbar_witness
from .cube import CubeSample, check_T1235a, fc_repr
from .report import figure_nodes, rows_named, violation
from .seqclass import InfClass
from .submeasure import Submeasure, metric_topology, validate_submeasure
from .topology import _synthesized, check_closed_char, complement_homeomorphism_check, space_properties


class VerifyContext:
    def __init__(self, atoms: int, seed: int = 0, samples: int = 1000, submeasure: Submeasure | None = None):
        self.atoms, self.seed, self.samples, self.submeasure = atoms, seed, samples, submeasure
        self._nodes: dict[int, dict] = {}

    def nodes(self, n: int) -> dict:
        """The diagram nodes on P(n), by name, from one ``figure_nodes`` build per n."""
        if n not in self._nodes:
            self._nodes[n] = figure_nodes(Carrier(n))
        return self._nodes[n]

    def carrier(self, n: int) -> Carrier:
        return self.nodes(n)["lambda_ls"].carrier

    def scales(self) -> range:
        return range(1, self.atoms + 1)

    def covered(self) -> str:
        """The atom counts ``scales()`` runs through, as a criterion's detail names them."""
        return f"n=1..{self.atoms}"


CriterionResult = namedtuple("CriterionResult", "index name passed detail")


def brute_downsets(n: int) -> int:
    """Independent down-set counter on the product law P(k+1) = P(k) x 2,
    with sets as point masks and no convlab order.  The points of P(k+1)
    holding atom k are those of P(k) moved up by 2^k, so a down-set of P(k+1)
    is a down-set a of the lower copy and a down-set b of the upper one, with
    b inside a: each point of b lies above its copy in a."""
    sets = [0, 1]  # the down-sets of P(0), which has one point
    for k in range(n):
        sets = [a | b << (1 << k) for a in sets for b in sets if b & ~a == 0]
    return len(sets)


def _rows_hold(passed: str, *texts: str, also: Callable[[VerifyContext, int], str | None] = lambda ctx, n: None):
    """A criterion checking, at each n, the rows of ``report.RELATIONS`` that
    read ``texts`` (its ``rows``), then ``also``; it details the first failure."""
    rows = rows_named(*texts)

    def criterion(ctx: VerifyContext) -> tuple[bool, str]:
        for n in ctx.scales():
            failed = violation(rows, ctx.nodes(n), where=f" at n={n}")
            detail = str(failed) if failed is not None else also(ctx, n)
            if detail is not None:
                return False, detail
        return True, f"{passed}, {ctx.covered()}"

    criterion.rows = rows
    return criterion


_crit_pointwise_meet = _rows_hold("all classes", "lambda_ls & lambda_li = lambda_s")
_crit_star_fixed = _rows_hold(
    "star fixes all three convergences",
    "lambda_ls_star = lambda_ls", "lambda_li_star = lambda_li", "lambda_s_star = lambda_s",
    "lambda_ls_star & lambda_li_star = lambda_s_star",
)


def _crit_open_counts(ctx: VerifyContext):
    expected = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
    for n in ctx.scales():
        got = ctx.nodes(n)["O_ls"].open_count()
        independent = brute_downsets(n)
        if got != expected[n] or independent != expected[n]:
            return False, f"n={n}: opens={got}, brute={independent}, expected={expected[n]}"
        if ctx.nodes(n)["O_s"].open_count() != 1 << (1 << n):
            return False, f"n={n}: O_s is not discrete"
    return True, f"down-set counts and discreteness match, {ctx.covered()}"


def _crit_closed_char(ctx: VerifyContext):
    for n in ctx.scales():
        if not check_closed_char(ctx.nodes(n)["O_ls"], "up"):
            return False, f"left closed sets != up-sets at n={n}"
        if not check_closed_char(ctx.nodes(n)["O_li"], "down"):
            return False, f"right closed sets != down-sets at n={n}"
    return True, f"closed sets match the order characterization, {ctx.covered()} (chain clause finite-trivial)"


def _metric_mismatch(ctx: VerifyContext, n: int) -> str | None:
    """Says so when the counting measure's metric topology on P(n) is not O_s."""
    if metric_topology(Submeasure.counting(ctx.carrier(n))) != ctx.nodes(n)["O_s"]:
        return f"metric topology != O_s at n={n}"
    return None


_crit_join_collapse = _rows_hold(
    "join, metric and discrete topologies coincide", "O_lsi = O_s", "lim_O_lsi = lambda_s", also=_metric_mismatch
)
_crit_limit_intersection = _rows_hold("all classes", "lim_O_ls & lim_O_li = lim_O_lsi")
# lambda_s < lambda_ls is witnessed by the constant-0 class
_crit_strictness = _rows_hold(
    "witness classes and witness opens found", "lambda_s < lambda_ls", "O_ls < O_lsi", "O_li < O_lsi"
)


def _crit_homeo_and_props(ctx: VerifyContext):
    for n in ctx.scales():
        if not complement_homeomorphism_check(ctx.nodes(n)["O_ls"], ctx.nodes(n)["O_li"]):
            return False, f"complement map is not a homeomorphism at n={n}"
        props = space_properties(ctx.nodes(n)["O_ls"])
        if not (props.t0 and props.connected and props.compact):
            return False, f"space properties fail at n={n}: {props}"
    return True, f"homeomorphic, T0, connected, compact, {ctx.covered()}"


def _random_draws(carrier: Carrier, rng: random.Random, k: int) -> list[int]:
    """The lanes of k sparse (L1) relations.  Relation i is the AND of n
    ``getrandbits(4^n)``, its diagonal then set, so each other bit is set with
    probability 2^-n, about one per row: sparse enough that their closures,
    and so their O_lam, differ.  The n k words are drawn in one list, in the
    order relation by relation, and ANDed in groups of n."""
    w, n = carrier.size**2, carrier.n
    words = [rng.getrandbits(w) for _ in range(n * k)]
    return [reduce(and_, words[i : i + n]) | carrier.lane_diagonal for i in range(0, n * k, n)]


def _crit_galois(ctx: VerifyContext):
    rng = random.Random(ctx.seed + 1)
    for n in ctx.scales():
        car, nodes = ctx.carrier(n), ctx.nodes(n)
        topos = [nodes[f"O_{law}"] for law in ("ls", "li", "s", "lsi")]
        lims = [nodes[f"lim_O_{law}"] for law in ("ls", "li", "s", "lsi")]
        if any(lim_o.exceptions for lim_o in lims):
            return False, f"lim_O has exceptions at n={n}"
        # random (L1) columns: O_lam reads only lam's columns and lim_O has no
        # exceptions, so exceptions of lam would change neither side.  Their
        # O_lam are the random topologies too, fields 4..53 after the diagram's.
        # At offset s guard j is set when o_(j+s) is not inside the j-th O_lam
        # (the opens' words) and when the j-th lam is not below lim_o_(j+s)
        # (the limits'); field 3 stands for O_lsi, which has no lam: it is empty.
        k = 50
        columns = car.stack(_random_draws(car, rng, k))
        o_lams = _synthesized(car, columns, k)
        opens = [o._lanes for o in topos] + [o_lams]
        lams = [nodes[f"lambda_{law}"]._lanes for law in ("ls", "li", "s")] + [0, columns]
        limits = [lim_o._lanes for lim_o in lims] + [car.transpose(o_lams, k)]
        by_opens = car.escape_diagonals(car.stack(opens[:3] + [0, o_lams]), car.stack(opens), k + 4)
        by_limits = car.escape_diagonals(car.stack(lams), car.stack(limits), k + 4)
        if any(a != b for a, b in zip(by_opens, by_limits)):
            return False, f"adjunction fails at n={n}"
    return True, f"no counterexamples over built-in and random pairs, {ctx.covered()}"


def _crit_cube(ctx: VerifyContext):
    sample = CubeSample.draw(random.Random(ctx.seed + 2), ctx.samples)
    if failed := check_T1235a(sample, sample.candidates(random.Random(ctx.seed + 3))):
        rule, i, a = failed
        return False, f"{rule} rule fails for {sample.sequence(i)} at candidate {fc_repr(a)}"
    return True, f"{ctx.samples} sequence{'s' if ctx.samples != 1 else ''} (the cube has no atom count)"


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
        v = mu.scaled
        if any(v[x ^ y] > v[x] + v[y] for x in range(car.size) for y in range(car.size)):
            return False, f"triangle inequality fails at n={n}"
    loaded = ctx.submeasure
    if loaded is not None:
        rep = validate_submeasure(loaded)
        if not rep.is_submeasure():
            return False, f"loaded table is not a submeasure: {rep}"
        if rep.strictly_positive and metric_topology(loaded) != ctx.nodes(loaded.carrier.n)["O_s"]:
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
