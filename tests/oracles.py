"""Reference implementations that only the tests call.

Each is a direct, element-by-element construction that the tests compare the
library's bit-mask code against: up/down sets against ``Carrier.up_masks`` and
``down_masks``, honest subsequences against the class reduction in
``convlab.seqclass``, subclasses, least singletons and reprs built from a
class's set of elements against the bits of ``InfClass.mask``, full class tables against a convergence's singleton
column and exceptions, listed opens against the minimal neighbourhoods a
``Topology`` holds, the diagram's order decided pair by pair of node names
against ``report.build_figure1``'s pairs of equality classes, element-set
views of topologies and submeasures, relations transposed, closed and
checked one bit per step against the packed lanes of ``Carrier`` and
``Topology``, the triangle inequality over triples against ``verify``'s
pairs of masks, random convergences with exceptions, and the entries of
eventually periodic sequences read one index at a time.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from convlab.algebra import Carrier, CarrierMismatchError, Element, EPSeq, complement, iter_bits
from convlab.convergence import Convergence, sos_union
from convlab.cube import FCSeq
from convlab.report import KINDS
from convlab.seqclass import InfClass
from convlab.submeasure import Submeasure
from convlab.topology import Topology, generate


def _width(elems: list[Element]) -> int:
    width = elems[0].width
    if any(e.width != width for e in elems):
        raise CarrierMismatchError("mixed-width elements")
    return width


def upset(elements: Iterable[Element]) -> frozenset[Element]:
    """All carrier elements lying above some member of ``elements``."""
    elems = list(elements)
    if not elems:
        return frozenset()
    width = _width(elems)
    return frozenset(
        Element(m, width)
        for m in range(1 << width)
        if any(e.mask & m == e.mask for e in elems)
    )


def downset(elements: Iterable[Element]) -> frozenset[Element]:
    """All carrier elements lying below some member of ``elements``."""
    elems = list(elements)
    if not elems:
        return frozenset()
    width = _width(elems)
    return frozenset(
        Element(m, width)
        for m in range(1 << width)
        if any(e.mask & m == m for e in elems)
    )


def value_at(x: EPSeq | FCSeq, i: int):
    """Entry i of an eventually periodic sequence."""
    if i < len(x.preperiod):
        return x.preperiod[i]
    return x.period[(i - len(x.preperiod)) % len(x.period)]


def prefix(x: EPSeq, length: int) -> list[Element]:
    """The first ``length`` entries of x."""
    return [value_at(x, i) for i in range(length)]


def format_seq_literal(x: EPSeq) -> str:
    """Inverse of ``cli.parse_seq_literal``: ``[pre;per]`` with ``{i,j}`` elements."""
    return "[{};{}]".format(*(",".join(map(repr, part)) for part in (x.preperiod, x.period)))


def pointwise_complement(x: EPSeq) -> EPSeq:
    return EPSeq(
        tuple(complement(e) for e in x.preperiod),
        tuple(complement(e) for e in x.period),
    )


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
        return EPSeq(x.preperiod[k:], x.period)
    off = (k - len(x.preperiod)) % len(x.period)
    return EPSeq((), x.period[off:] + x.period[:off])


def stride(x: EPSeq, k: int) -> EPSeq:
    """The subsequence x_0, x_k, x_{2k}, ... (every k-th entry)."""
    if k < 1:
        raise ValueError("k must be positive")
    pre_len = len(x.preperiod)
    q = -(-pre_len // k)  # first j with j*k >= pre_len
    new_pre = tuple(value_at(x, j * k) for j in range(q))
    p = len(x.period)
    new_per = tuple(value_at(x, (q + j) * k) for j in range(p))
    return EPSeq(new_pre, new_per)


def select_values(x: EPSeq, values: frozenset[Element]) -> EPSeq:
    """The subsequence of entries lying in ``values``.

    Realizes any target subclass: for S' a nonempty subset of inf_class(x),
    select_values(x, S'.values) is an honest subsequence with class S'.
    """
    if not values & set(x.period):
        raise ValueError("values must meet the period, or the selection is finite")
    new_pre = tuple(e for e in x.preperiod if e in values)
    new_per = tuple(e for e in x.period if e in values)
    return EPSeq(new_pre, new_per)


def all_classes(carrier: Carrier):
    """All 2^(2^n) - 1 classes in ascending characteristic-mask order."""
    for mask in range(1, 1 << carrier.size):
        yield InfClass(mask, carrier.n)


# -- classes as sets of elements ---------------------------------------------
#
# The class operations built from the set of elements a sequence visits
# infinitely often, by sorting and combining elements instead of walking the
# bits of ``InfClass.mask``.

def _by_mask(values: Iterable[Element]) -> list[Element]:
    return sorted(values, key=lambda e: e.mask)


def subclasses_of(values: frozenset[Element]) -> frozenset[frozenset[Element]]:
    """Every nonempty subset of values, one combination size at a time."""
    vals = _by_mask(values)
    return frozenset(frozenset(c) for k in range(1, len(vals) + 1) for c in combinations(vals, k))


def least_singleton(values: frozenset[Element]) -> frozenset[Element]:
    """The singleton of the element with the least mask."""
    return frozenset([min(values, key=lambda e: e.mask)])


def class_repr(values: frozenset[Element]) -> str:
    """``InfClass(...)`` listing the elements in ascending mask order."""
    return "InfClass(" + ",".join(repr(e) for e in _by_mask(values)) + ")"


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


def antidiscrete(carrier: Carrier) -> Topology:
    full = (1 << carrier.size) - 1
    return Topology(carrier, [full] * carrier.size)


def generate_from_elements(carrier: Carrier, subbase: Iterable[Iterable[Element]]) -> Topology:
    return generate(carrier, [carrier.subset_mask(s) for s in subbase])


def open_families(topo: Topology) -> list[frozenset[Element]]:
    """Opens as element sets, in canonical (ascending mask) order."""
    return [topo.carrier.subset_from_mask(o) for o in sorted(open_masks(topo))]


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


def zero_submeasure(carrier: Carrier) -> Submeasure:
    return Submeasure(carrier, [Fraction(0)] * carrier.size)


def triangle_holds(mu: Submeasure) -> bool:
    """d(a, c) <= d(a, b) + d(b, c) for every triple of elements."""
    elems = mu.carrier.elements
    return all(
        mu.distance(a, c) <= mu.distance(a, b) + mu.distance(b, c)
        for a in elems
        for b in elems
        for c in elems
    )


def pairwise_escapes(payloads: dict) -> dict[tuple[str, str], object]:
    """The diagram's order with one witness call per ordered pair of distinct
    node names of a kind: escape[a, b] is the witness that a is not below b,
    or None when it is."""
    return {
        (a, b): witness(payloads[a], payloads[b])
        for _, names, _, witness in KINDS
        for a in names
        for b in names
        if a != b
    }
