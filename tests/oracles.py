"""Reference implementations that only the tests call.

Each is a direct, point-by-point construction that the tests compare the
library's bit-mask code against: up/down sets against ``Carrier.up_masks`` and
``down_masks``, honest subsequences against the class reduction in
``convlab.seqclass``, subclasses, least singletons and reprs built from a
class's set of points against the bits of ``InfClass.mask``, full class tables against a convergence's singleton
column and exceptions, listed opens against the minimal neighbourhoods a
``Topology`` holds, the diagram's order decided pair by pair of node names
against ``report.build_figure1``'s pairs of equality classes, point-set
views of topologies, relations transposed, closed and
checked one bit per step against the packed lanes of ``Carrier`` and
``Topology``, the transpose's swap masks packed row by row against
``Carrier._swaps``, the triangle inequality over triples against ``verify``'s
pairs of masks, random convergences with exceptions, criterion 9's random
relations and topologies drawn one at a time against ``verify``'s stacks,
stacks taken apart into their fields,
the entries of eventually periodic sequences read one index at a time, the
least-rotation spelling that pinned periods were recorded in, one seeded
``FCSeq`` at a time with its own pool of candidate limits, against the
packed ``cube.CubeSample``, the preorders on a few points counted over every
reflexive relation, the down-sets of P(n) counted by backtracking point by
point against ``verify.brute_downsets``'s doubling, and the diagram's
nodes on P(1) as literal tables with their products and powers, against
``report.figure_nodes`` and ``topology.synthesize_O_lambda`` on P(n).
The (L3) and Hausdorff predicates read a convergence's columns, and finite
and cofinite sets and packed samples of given sequences are built for the
cube tests.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations, product
from operator import and_, or_
from typing import Iterable, Iterator

from convlab.algebra import Carrier, EPSeq, iter_bits, liminf, limsup
from convlab.convergence import Convergence, leq_conv, sos_union
from convlab.cube import CubeSample, FCSeq, fc_support
from convlab.report import KINDS, escape
from convlab.seqclass import InfClass
from convlab.submeasure import Submeasure
from convlab.topology import Topology, generate


# the empty and the full set of naturals as finite/cofinite ints
FC_EMPTY, FC_FULL = 0, -1


def upset(width: int, points: Iterable[int]) -> frozenset[int]:
    """All points of P(width) whose atoms hold those of some member of ``points``."""
    pts = list(points)
    return frozenset(m for m in range(1 << width) if any(p & m == p for p in pts))


def downset(width: int, points: Iterable[int]) -> frozenset[int]:
    """All points of P(width) whose atoms lie in those of some member of ``points``."""
    pts = list(points)
    return frozenset(m for m in range(1 << width) if any(p & m == m for p in pts))


def points(limits) -> frozenset[int]:
    """The point masks of a limit query's result."""
    return frozenset(e.mask for e in limits)


def atoms_text(point: int) -> str:
    """``{i,j}``: the atoms of a point, ascending, one bit test per index."""
    return "{" + ",".join(str(i) for i in range(point.bit_length()) if point >> i & 1) + "}"


def value_at(x: EPSeq | FCSeq, i: int):
    """Entry i of an eventually periodic sequence."""
    if i < len(x.preperiod):
        return x.preperiod[i]
    return x.period[(i - len(x.preperiod)) % len(x.period)]


def prefix(x: EPSeq, length: int) -> list[int]:
    """The first ``length`` entries of x."""
    return [value_at(x, i) for i in range(length)]


def format_seq_literal(x: EPSeq) -> str:
    """Inverse of ``cli.parse_seq_literal``: ``[pre;per]`` with ``{i,j}`` points."""
    return "[{};{}]".format(*(",".join(map(atoms_text, part)) for part in (x.preperiod, x.period)))


def rotation_oracle(period: tuple) -> tuple:
    """The shortest repeating block of period at the least of its rotations:
    the spelling the pinned random sequences were recorded in, when every
    sequence stored its period in that form."""
    n = len(period)
    d = min(d for d in range(1, n + 1) if n % d == 0 and period == period[:d] * (n // d))
    block = period[:d]
    return min(block[i:] + block[:i] for i in range(d))


def pointwise_complement(x: EPSeq) -> EPSeq:
    full = (1 << x.width) - 1
    return EPSeq(tuple(p ^ full for p in x.preperiod), tuple(p ^ full for p in x.period), x.width)


# -- concrete subsequence constructors -------------------------------------
#
# These sample the underlying infinite sequence through explicit increasing
# index maps, so the class-level reduction can be property-tested against
# honest subsequences.

def drop_prefix(x: EPSeq, k: int) -> EPSeq:
    """The subsequence x_{k}, x_{k+1}, ... (delete the first k entries)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= len(x.preperiod):
        return EPSeq(x.preperiod[k:], x.period, x.width)
    off = (k - len(x.preperiod)) % len(x.period)
    return EPSeq((), x.period[off:] + x.period[:off], x.width)


def stride(x: EPSeq, k: int) -> EPSeq:
    """The subsequence x_0, x_k, x_{2k}, ... (every k-th entry)."""
    if k < 1:
        raise ValueError("k must be positive")
    pre_len = len(x.preperiod)
    q = -(-pre_len // k)  # first j with j*k >= pre_len
    new_pre = tuple(value_at(x, j * k) for j in range(q))
    p = len(x.period)
    new_per = tuple(value_at(x, (q + j) * k) for j in range(p))
    return EPSeq(new_pre, new_per, x.width)


def select_values(x: EPSeq, values: frozenset[int]) -> EPSeq:
    """The subsequence of entries lying in ``values``.

    Realizes any target subclass: for S' a nonempty subset of inf_class(x),
    select_values(x, the points of S') is an honest subsequence with class S'.
    """
    if not values & set(x.period):
        raise ValueError("values must meet the period, or the selection is finite")
    new_pre = tuple(e for e in x.preperiod if e in values)
    new_per = tuple(e for e in x.period if e in values)
    return EPSeq(new_pre, new_per, x.width)


def all_classes(carrier: Carrier):
    """All 2^(2^n) - 1 classes in ascending characteristic-mask order."""
    for mask in range(1, 1 << carrier.size):
        yield InfClass(mask, carrier.n)


# -- classes as sets of points -----------------------------------------------
#
# The class operations built from the set of points a sequence visits
# infinitely often, by sorting and combining points instead of walking the
# bits of ``InfClass.mask``.

def class_points(s: InfClass) -> frozenset[int]:
    """The points of a class, one bit test per point of the carrier."""
    return frozenset(p for p in range(1 << s.width) if s.mask >> p & 1)


def subclasses_of(values: frozenset[int]) -> frozenset[frozenset[int]]:
    """Every nonempty subset of values, one combination size at a time."""
    vals = sorted(values)
    return frozenset(frozenset(c) for k in range(1, len(vals) + 1) for c in combinations(vals, k))


def least_singleton(values: frozenset[int]) -> frozenset[int]:
    """The singleton of the least point."""
    return frozenset([min(values)])


def class_repr(values: frozenset[int]) -> str:
    """``InfClass(...)`` listing the points in ascending order."""
    return "InfClass(" + ",".join(map(atoms_text, sorted(values))) + ")"


# -- full class tables ------------------------------------------------------
#
# A table lists the limit mask of every class mask (entry 0 unused), so it
# has 2^(2^n) entries and exists only up to 4 atoms.

class SweepCapacityError(RuntimeError):
    """An exhaustive class sweep was requested on a carrier too large to enumerate."""


def _require_table_capacity(carrier: Carrier) -> None:
    if carrier.size > 16:
        raise SweepCapacityError(
            f"carrier P({carrier.n}) has 2^{carrier.size} - 1 classes; "
            "exhaustive enumeration is only supported for up to 4 atoms"
        )


def sos_intersection_nonempty(table: list[int], m: int) -> list[int]:
    """out[A] = intersection of table[S] over all nonempty S contained in A."""
    full = (1 << m) - 1
    out = list(table)
    out[0] = full
    for e in range(m):
        bit = 1 << e
        for a in range(1 << m):
            if a & bit:
                out[a] &= out[a ^ bit]
    return out


@functools.cache
def table_of(lam: Convergence) -> tuple[int, ...]:
    """lam's table, by the subset transform over its columns and exceptions
    rather than through ``limit_mask``."""
    _require_table_capacity(lam.carrier)
    m = lam.carrier.size
    seed = [(1 << m) - 1] * (1 << m)
    for s, col in enumerate(lam.lim1):
        seed[1 << s] = col
    for e, a in lam.exceptions:
        seed[e] &= a
    out = sos_intersection_nonempty(seed, m)
    out[0] = 0
    return tuple(out)


def table_is_L2(table: list[int], m: int) -> bool:
    """table[S] lies inside table[S'] for every nonempty S' inside S; removing
    one point at a time suffices, since chains of removals reach every subset."""
    for s in range(1, 1 << m):
        if s & (s - 1) == 0:
            continue
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            if table[s] & ~table[s ^ bit]:
                return False
    return True


def star_table(table: list[int], m: int) -> tuple[int, ...]:
    """The star-closure on tables: intersect over nonempty S' of S the union
    of table[S''] over nonempty S'' of S'; it needs no (L2)."""
    outer = sos_intersection_nonempty(sos_union(table, m), m)
    outer[0] = 0
    return tuple(outer)


def from_table(carrier: Carrier, table: list[int]) -> Convergence:
    """The convergence with this table.  It keeps as exceptions only the
    classes whose entry is not the AND of their one-point-smaller
    subclasses' entries, and raises ``ValueError`` for a table violating (L2)."""
    m = carrier.size
    if len(table) != 1 << m or not table_is_L2(table, m):
        raise ValueError("a convergence needs an (L2) table of 2^size entries")
    exceptions = []
    for c in range(1, 1 << m):
        if c & (c - 1):
            below = (1 << m) - 1
            for s in iter_bits(c):
                below &= table[c ^ 1 << s]
            if table[c] != below:
                exceptions.append((c, table[c]))
    return Convergence(carrier, lim1=[table[1 << s] for s in range(m)], exceptions=exceptions)


def random_l12_convergence(carrier: Carrier, rng: random.Random) -> Convergence:
    """A random convergence satisfying (L1) and (L2): one random limit mask
    per class in ascending mask order, each point forced into its own
    singleton limits, and every larger class kept as an exception."""
    m = carrier.size
    drawn = [0] + [rng.randrange(1 << m) for _ in range(1, 1 << m)]
    lim1 = [drawn[1 << a] | 1 << a for a in range(m)]
    exceptions = [(c, drawn[c]) for c in range(1, 1 << m) if c & (c - 1)]
    return Convergence(carrier, lim1=lim1, exceptions=exceptions, name="random")


def satisfies_L3(lam: Convergence) -> bool:
    """The Urysohn condition: if every subsequence has a further subsequence
    converging to a, then a is already a limit of the original sequence.
    Under (L2) that is: lam's singleton columns without its exceptions lie
    below lam."""
    return leq_conv(Convergence._from_lanes(lam.carrier, lam._lanes), lam)


def is_hausdorff(lam: Convergence) -> bool:
    """At most one limit per class; under (L2) singleton classes have the
    largest sets, so every singleton column holds at most one bit."""
    return all(v & (v - 1) == 0 for v in lam.lim1)


def sequential_closure(lam: Convergence, subset_mask: int) -> int:
    """One application of the closure operator: all limits of sequences from
    A, which under (L2) is the union of the singleton limits lam({a}), a in A."""
    out = 0
    for a in iter_bits(subset_mask):
        out |= lam.lim1[a]
    return out


# -- relations one bit per step ---------------------------------------------
#
# A relation on the points of P(n) is a list of rows, one mask per point;
# the library packs it into lanes and works on all rows at once.

def transpose_rows(rows: Iterable[int], m: int) -> list[int]:
    """out[q] = {p : q in rows[p]}: the same relation read from the other side."""
    out = [0] * m
    for p, row in enumerate(rows):
        for q in iter_bits(row):
            out[q] |= 1 << p
    return out


def swaps_by_rows(carrier: Carrier) -> list[tuple[int, int]]:
    """``Carrier._swaps`` packed one row per point: per atom i, with j = 2^i,
    row p is the points holding atom i when p lacks it, else empty, and the
    shift is j(2^n - 1)."""
    m = carrier.size
    masks = []
    for j in (1 << i for i in range(carrier.n)):
        column = sum(1 << q for q in range(m) if q & j)
        masks.append((j * (m - 1), carrier.pack([0 if p & j else column for p in range(m)])))
    return masks


def warshall_rows(rows: Iterable[int]) -> list[int]:
    """The transitive closure of the relation, by Warshall's nested loops."""
    reach = list(rows)
    m = len(reach)
    for k in range(m):
        bit, row = 1 << k, reach[k]
        for i in range(m):
            if reach[i] & bit:
                reach[i] |= row
    return reach


def reflexive_relations(points: int) -> Iterator[list[int]]:
    """Every reflexive relation on ``points`` points, one row mask per point,
    its off-diagonal pairs taken as the bits of a counter."""
    pairs = [(p, q) for p in range(points) for q in range(points) if p != q]
    for bits in range(1 << len(pairs)):
        rows = [1 << p for p in range(points)]
        for i, (p, q) in enumerate(pairs):
            if bits >> i & 1:
                rows[p] |= 1 << q
        yield rows


def preorder_census(points: int) -> tuple[int, int]:
    """The preorders and the partial orders on ``points`` points: the
    reflexive relations with r in row p whenever q is in row p and r in
    row q, and those of them where q in row p and p in row q only for p = q."""
    preorders = orders = 0
    span = range(points)
    for rows in reflexive_relations(points):
        related = [(p, q) for p in span for q in span if rows[p] >> q & 1]
        if all(rows[p] >> r & 1 for p, q in related for r in span if rows[q] >> r & 1):
            preorders += 1
            orders += all(p == q or not rows[q] >> p & 1 for p, q in related)
    return preorders, orders


def backtrack_downsets(n: int) -> int:
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


# -- the product law ---------------------------------------------------------
#
# A point of P(a + b) is p = p1 | p2 << a with p1 in P(a) and p2 in P(b), so
# P(n) is the n-fold product of P(1).  The product R (x) S of relations has q
# in row p iff q1 is in row p1 of R and q2 in row p2 of S.

# Every diagram node on P(1), whose points are 0 (the bottom) and 1 (the
# top), as a 2 x 2 table: entry [p][q] is 1 iff q is in row p, a limit of the
# constant sequence p for a convergence, a point of N(p) for a topology.
# lambda_ls's limits lie above the limsup, lambda_li's below the liminf and
# lambda_s's are both; star leaves each alone.  O_ls is the Sierpinski space
# whose opens are the down-sets, O_li its dual, and O_s and their join O_lsi
# are discrete.  Each limit operator is its law.
_LS, _LI, _S = ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (0, 1))
P1_NODES = {
    "lambda_ls": _LS,
    "lambda_li": _LI,
    "lambda_s": _S,
    "lambda_ls_star": _LS,
    "lambda_li_star": _LI,
    "lambda_s_star": _S,
    "O_ls": ((1, 0), (1, 1)),
    "O_li": ((1, 1), (0, 1)),
    "O_s": _S,
    "O_lsi": _S,
    "lim_O_ls": _LS,
    "lim_O_li": _LI,
    "lim_O_s": _S,
    "lim_O_lsi": _S,
}


def product_rows(r: list[int], s: list[int]) -> list[int]:
    """R (x) S, for R on len(r) points and S on len(s), one row per point."""
    width = len(r).bit_length() - 1
    return [sum(row1 << (q2 << width) for q2 in range(len(s)) if row2 >> q2 & 1) for row2 in s for row1 in r]


def power_rows(table: tuple[tuple[int, int], ...], n: int) -> list[int]:
    """The n-fold (x)-power of a 2 x 2 table, one row per point of P(n)."""
    rows = [row[0] | row[1] << 1 for row in table]
    power = rows
    for _ in range(n - 1):
        power = product_rows(power, rows)
    return power


def generated_rows(carrier: Carrier, subbase: Iterable[int]) -> list[int]:
    """The minimal neighbourhoods of the topology a subbase generates, one
    point at a time: the AND of the subbase sets holding the point, or the
    carrier where none does."""
    sets, full = list(subbase), (1 << carrier.size) - 1
    return [functools.reduce(and_, (u for u in sets if u >> p & 1), full) for p in range(carrier.size)]


def is_preorder(carrier: Carrier, mins: list[int]) -> bool:
    """One mask per point, each inside the carrier; every point lies in its
    own, and q in N(p) implies N(q) inside N(p).  Each mask's range is
    checked before its bits are walked."""
    full = (1 << carrier.size) - 1
    if len(mins) != carrier.size:
        return False
    return all(
        nb >> p & 1
        and nb & ~full == 0
        and all(mins[q] & ~nb == 0 for q in iter_bits(nb))
        for p, nb in enumerate(mins)
    )


def random_columns(carrier: Carrier, rng: random.Random) -> Convergence:
    """Uniform (L1) columns, no exceptions: one ``getrandbits`` for the whole
    packed relation, its diagonal then set, so each other bit is a fair coin."""
    return Convergence._from_lanes(carrier, rng.getrandbits(carrier.size**2) | carrier.lane_diagonal)


def sparse_columns(carrier: Carrier, rng: random.Random) -> Convergence:
    """Sparse (L1) columns, no exceptions: the AND of n ``getrandbits`` for
    the whole packed relation, its diagonal then set, so each other bit is set
    with probability 2^-n; one of ``verify._random_draws``'s relations."""
    lanes = (1 << carrier.size**2) - 1
    for _ in range(carrier.n):
        lanes &= rng.getrandbits(carrier.size**2)
    return Convergence._from_lanes(carrier, lanes | carrier.lane_diagonal)


def unstack(carrier: Carrier, stack: int, k: int) -> list[int]:
    """The k relations of a stack, field i from bit (4^n + 1)·i, each cut out
    by its own shift and mask."""
    stride, data = carrier.size**2 + 1, (1 << carrier.size**2) - 1
    return [stack >> i * stride & data for i in range(k)]


def random_draws_by_relation(carrier: Carrier, rng: random.Random, k: int) -> list[int]:
    """``verify._random_draws`` one relation at a time: each relation draws
    its n words and ANDs them before the next relation draws."""
    w = carrier.size**2
    return [functools.reduce(and_, (rng.getrandbits(w) for _ in range(carrier.n))) | carrier.lane_diagonal for _ in range(k)]


def random_topology(carrier: Carrier, rng: random.Random) -> Topology:
    """The topology generated by 1..4 uniform subsets, one ``getrandbits`` each."""
    k = rng.randrange(1, 5)
    return generate(carrier, [rng.getrandbits(carrier.size) for _ in range(k)])


def antidiscrete(carrier: Carrier) -> Topology:
    full = (1 << carrier.size) - 1
    return Topology(carrier, [full] * carrier.size)


def generate_from_points(carrier: Carrier, subbase: Iterable[Iterable[int]]) -> Topology:
    return generate(carrier, [sum(1 << p for p in set(s)) for s in subbase])


def open_families(topo: Topology) -> list[frozenset[int]]:
    """Opens as point sets, in canonical (ascending mask) order."""
    return [frozenset(iter_bits(o)) for o in sorted(open_masks(topo))]


@functools.cache
def open_masks(topo: Topology) -> frozenset[int]:
    """All open masks: every union of minimal neighbourhoods (up to 4 atoms)."""
    _require_table_capacity(topo.carrier)
    opens = {0}
    for b in set(topo.min_neighborhoods):
        opens |= {o | b for o in opens}
    return frozenset(opens)


def topology_from_opens(carrier: Carrier, opens: Iterable[int]) -> Topology:
    """The topology whose opens are exactly ``opens``.

    Raises ``ValueError`` unless the family contains the empty set and the
    carrier, lies inside the carrier and is closed under union and
    intersection.
    """
    family = frozenset(opens)
    if 0 not in family or (1 << carrier.size) - 1 not in family:
        raise ValueError("a topology must contain the empty set and the carrier")
    topo = generate(carrier, family)
    # Every member is the union of the minimal neighbourhoods of its points,
    # so the family lies inside the topology it generates, and equals it
    # exactly when the sizes agree.
    if len(family) != topo.open_count():
        raise ValueError("open family is not closed under union and intersection")
    return topo


def fraction_values(mu: Submeasure) -> tuple[Fraction, ...]:
    """The table of mu as fractions, mu(a) = scaled[a] / denominator."""
    return tuple(Fraction(v, mu.denominator) for v in mu.scaled)


def zero_submeasure(carrier: Carrier) -> Submeasure:
    return Submeasure(carrier, [Fraction(0)] * carrier.size)


def triangle_holds(mu: Submeasure) -> bool:
    """d(a, c) <= d(a, b) + d(b, c) for every triple of points, d(a, b) = mu(a ^ b)."""
    v, pts = fraction_values(mu), range(mu.carrier.size)
    return all(v[a ^ c] <= v[a ^ b] + v[b ^ c] for a in pts for b in pts for c in pts)


def integer_submeasures(carrier: Carrier, top: int) -> list[Submeasure]:
    """Every submeasure on the carrier with integer values in 0..top, by the
    axioms: 0 on the bottom, monotone and subadditive."""
    m = carrier.size
    return [
        Submeasure(carrier, map(Fraction, v))
        for v in ((0, *rest) for rest in product(range(top + 1), repeat=m - 1))
        if all(v[a] <= v[a | b] and v[a | b] <= v[a] + v[b] for a in range(m) for b in range(m))
    ]


def radii(mu: Submeasure) -> list[Fraction]:
    """Every positive value of mu, each value doubled, and 1/3."""
    positive = {v for v in fraction_values(mu) if v > 0}
    return sorted(positive | {2 * v for v in positive} | {Fraction(1, 3)})


def submeasure_axioms(values: list[Fraction]) -> tuple[bool, bool, bool, bool, bool]:
    """The five flags of ``ValidationReport`` for a table indexed by atom
    mask, by definition on the fractions: zero on the bottom, monotone on
    every pair a <= b, subadditive on every pair, positive off the bottom,
    and continuous, which on a finite carrier is zero on the bottom, where
    every decreasing chain with meet 0 ends."""
    v, points = values, range(len(values))
    zero = v[0] == 0
    monotone = all(v[a] <= v[b] for a in points for b in points if a & ~b == 0)
    subadditive = all(v[a | b] <= v[a] + v[b] for a in points for b in points)
    positive = all(v[a] > 0 for a in points if a)
    return zero, monotone, subadditive, positive, zero


def halfball_sets(mu: Submeasure, a: int, r: Fraction) -> tuple[set[int], set[int]]:
    """The half-balls around a, o1 = {x : mu(x - a) < r/2} and
    o2 = {x : mu(a - x) < r/2}, as sets of atom masks."""
    v, points = fraction_values(mu), range(mu.carrier.size)
    o1 = {x for x in points if v[x & ~a] < Fraction(r) / 2}
    o2 = {x for x in points if v[a & ~x] < Fraction(r) / 2}
    return o1, o2


def halfball_oracle(mu: Submeasure, a: int, r: Fraction) -> tuple[tuple[bool, bool, bool], int]:
    """The half-ball step by definition, on the points 0..m-1 as atom masks:
    the three flags of ``HalfBallReport`` and the mask of the r-ball
    {x : mu(x ^ a) < r}.  O_ls's opens are the down-sets of inclusion and
    O_li's the up-sets (the closed-set characterization), so o1 must be a
    down-set and o2 an up-set."""
    v, points = fraction_values(mu), range(mu.carrier.size)
    o1, o2 = halfball_sets(mu, a, r)
    ball = {x for x in points if v[x ^ a] < r}
    down = all(y in o1 for x in o1 for y in points if y & ~x == 0)
    up = all(y in o2 for x in o2 for y in points if x & ~y == 0)
    return (down, up, a in o1 & o2 and o1 & o2 <= ball), sum(1 << x for x in ball)


def zero_classes(mu: Submeasure) -> list[int]:
    """Each point's class of points at distance 0, {x : mu(a ^ x) = 0}, as a mask."""
    v, points = fraction_values(mu), range(mu.carrier.size)
    return [sum(1 << x for x in points if v[a ^ x] == 0) for a in points]


def metric_neighbourhoods(mu: Submeasure) -> list[int]:
    """Each point's minimal neighbourhood in the topology generated by every
    ball {x : d(x, c) < r} with r > 0: the intersection of the balls that hold
    the point.  Those balls are the sets {x : d(x, c) <= t}, one per centre c
    and value t of mu."""
    v, points = fraction_values(mu), range(mu.carrier.size)
    balls = [sum(1 << x for x in points if v[x ^ c] <= t) for c in points for t in set(v)]
    full = (1 << len(v)) - 1
    return [functools.reduce(and_, (b for b in balls if b >> p & 1), full) for p in points]


def pairwise_escapes(payloads: dict) -> dict[tuple[str, str], object]:
    """The diagram's order with one witness call per ordered pair of distinct
    node names of a kind: escape[a, b] is the witness mask that a is not
    below b, or None when it is."""
    return {
        (a, b): escape(payloads[a], payloads[b])
        for _, _, names, _, _ in KINDS
        for a in names
        for b in names
        if a != b
    }


def fc_finite(items: Iterable[int]) -> int:
    """The finite set of the naturals ``items``."""
    bits = 0
    for i in items:
        if i < 0:
            raise ValueError("supports are sets of naturals")
        bits |= 1 << i
    return bits


def fc_cofinite(excluded: Iterable[int]) -> int:
    """The cofinite set of the naturals that omits ``excluded``."""
    return ~fc_finite(excluded)


def cube_sample(seqs: list[FCSeq], width: int) -> CubeSample:
    """The periods of ``seqs`` packed as ``CubeSample.draw`` packs its own,
    each support below coordinate ``width - 1``."""
    if any(fc_support(v) >> width - 1 for x in seqs for v in x.period):
        raise ValueError("a support reaches the generic coordinate")
    k, mask = max(len(x.period) for x in seqs), (1 << width) - 1
    cols = [x.period + x.period[:1] * (k - len(x.period)) for x in seqs]
    slots = (sum((c[j] & mask) << i * (width + 1) for i, c in enumerate(cols)) for j in range(k))
    return CubeSample(width, len(seqs), tuple(slots))


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


def fcseq_support(x: FCSeq) -> int:
    """The union of the supports of x's entries."""
    return functools.reduce(or_, map(fc_support, x.preperiod + x.period), 0)


def candidate_limits(x: FCSeq, rng) -> list[int]:
    """A candidate pool for predicate sweeps: six structured candidates derived
    from the sequence, then eight seeded random finite/cofinite sets, each one
    draw masked to the window (the support plus the generic coordinate just
    beyond it, which stands for all later ones) and one bit for its sign."""
    li, ls = liminf(x), limsup(x)
    pool = [li, ls, ~li, ~ls, FC_EMPTY, FC_FULL]
    support = fcseq_support(x)
    window = support | 1 << support.bit_length()
    for _ in range(8):
        bits = rng.getrandbits(window.bit_length()) & window
        pool.append(~bits if rng.getrandbits(1) else bits)
    return pool
