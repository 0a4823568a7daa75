"""Finite topologies and the convergence/topology adjunction.

Every finite topology is the Alexandrov topology of its specialization
preorder, so it is stored as the minimal open neighbourhood N(p) of each
point p, as carrier-subset bit-masks, and ``Topology(carrier, mins)`` is its
only constructor.  The opens are exactly the unions of minimal
neighbourhoods; they are counted and tested one mask at a time, never listed.
Synthesis of the sequential topology of a convergence, topological limits,
joins, and the space properties needed for the diagram reports all work on
the neighbourhood array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import Carrier, CarrierMismatchError, Element, EPSeq, iter_bits
from .convergence import ClosureAxiomError, Convergence, check_L1
from .seqclass import inf_class


def _transpose(rows: Iterable[int], m: int) -> list[int]:
    """out[q] = {p : q in rows[p]}: the same relation read from the other side."""
    out = [0] * m
    for p, row in enumerate(rows):
        for q in iter_bits(row):
            out[q] |= 1 << p
    return out


class Topology:
    """A finite topology, held as the minimal neighbourhood of every point.

    ``Topology(carrier, mins)`` is the topology whose minimal neighbourhood of
    point p is mins[p].  It raises ``ValueError`` unless there is one mask per
    point, each inside the carrier, and the masks form a preorder.  A family
    of opens is never a valid argument: it holds the empty set, and an empty
    neighbourhood fails reflexivity.
    """

    def __init__(self, carrier: Carrier, mins: Iterable[int]):
        self.carrier = carrier
        self.full = (1 << carrier.size) - 1
        self._mins = tuple(mins)
        # checked before the transpose, which walks the bits of every mask
        if not self.validate():
            raise ValueError("minimal neighbourhoods must be reflexive and transitive")
        # the closure of point p is {q : p in N(q)}
        self.point_closures = tuple(_transpose(self._mins, carrier.size))
        self._count: Optional[int] = None

    @property
    def min_neighborhoods(self) -> tuple[int, ...]:
        """Smallest open set around each point (finite spaces always have one)."""
        return self._mins

    def is_open_mask(self, mask: int) -> bool:
        return all(self._mins[p] & ~mask == 0 for p in iter_bits(mask))

    def is_open(self, subset: Iterable[Element]) -> bool:
        return self.is_open_mask(self.carrier.subset_mask(subset))

    def validate(self) -> bool:
        """Check that the neighbourhoods form a preorder: every point lies in
        its own, and q in N(p) implies N(q) inside N(p)."""
        mins = self._mins
        if len(mins) != self.carrier.size:
            return False
        return all(
            nb >> p & 1
            and nb & ~self.full == 0
            and all(mins[q] & ~nb == 0 for q in iter_bits(nb))
            for p, nb in enumerate(mins)
        )

    def __le__(self, other: "Topology") -> bool:
        """Every open of self is open in other: N_other(p) inside N_self(p)."""
        if not isinstance(other, Topology):
            return NotImplemented
        _check_same_carrier(self, other)
        return all(b & ~a == 0 for a, b in zip(self._mins, other._mins))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self.carrier == other.carrier and self._mins == other._mins

    def __hash__(self) -> int:
        return hash((self.carrier, self._mins))

    def open_count(self) -> int:
        """Number of open sets, counted as down-sets of the preorder
        q <= p iff q in N(p): those avoiding a point p avoid its closure,
        those containing p contain N(p)."""
        if self._count is None:
            mins, closures = self._mins, self.point_closures
            memo = {0: 1}

            def count(rest: int) -> int:
                if rest not in memo:
                    p = (rest & -rest).bit_length() - 1
                    memo[rest] = count(rest & ~closures[p]) + count(rest & ~mins[p])
                return memo[rest]

            self._count = count(self.full)
        return self._count

    def __repr__(self) -> str:
        return f"Topology(P({self.carrier.n}), {self.open_count()} opens)"


def first_open_not_in(a: Topology, b: Topology) -> Optional[int]:
    """Smallest mask that is open in a and not in b; None when a <= b.

    Inclusion is decided first, on the neighbourhood arrays.  Otherwise the
    walk visits a's opens in ascending mask order, deciding bits from the
    top: leaving p out forces its closure out, taking p in forces N(p) in,
    and neither choice can contradict an earlier one.
    """
    if a <= b:
        return None
    mins, closures = a.min_neighborhoods, a.point_closures
    stack = [(a.carrier.size - 1, 0, 0)]
    while stack:
        p, ones, zeros = stack.pop()
        if p < 0:
            if not b.is_open_mask(ones):
                return ones
        elif (ones | zeros) >> p & 1:
            stack.append((p - 1, ones, zeros))
        else:
            stack.append((p - 1, ones | mins[p], zeros))
            stack.append((p - 1, ones, zeros | closures[p]))
    return None


def _check_same_carrier(a, b) -> None:
    if a.carrier != b.carrier:
        raise CarrierMismatchError("operands live on different carriers")


def discrete(carrier: Carrier) -> Topology:
    return Topology(carrier, [1 << p for p in range(carrier.size)])


def generate(carrier: Carrier, subbase: Iterable[int]) -> Topology:
    """Smallest topology containing the subbase.

    Each point's minimal neighborhood is the intersection of the subbase sets
    containing it, or the carrier where none does; the opens are exactly the
    unions of minimal neighborhoods.  Each mask's range is checked before its
    bits are walked: ``iter_bits`` never ends on a negative mask.
    """
    full = (1 << carrier.size) - 1
    mins = [full] * carrier.size
    for mask in subbase:
        if not 0 <= mask <= full:
            raise ValueError(f"open masks must lie in 0..{full}")
        for p in iter_bits(mask):
            mins[p] &= mask
    return Topology(carrier, mins)


def synthesize_O_lambda(lam: Convergence) -> Topology:
    """The sequential topology of lam: opens are complements of the subsets
    fixed by the sequential-closure operator.

    Under (L2) the closure of A is the union of lam({a}) over a in A, so the
    closed sets are those closed under the transitive closure of the
    singleton relation a -> lam({a}), and N(q) is the set of points whose
    transitive closure reaches q.  Every convergence satisfies (L2); (L1)
    is checked.
    """
    if not check_L1(lam):
        raise ClosureAxiomError("sequential topology requires a convergence satisfying (L1)")
    m = lam.carrier.size
    reach = list(lam.lim1)
    for k in range(m):
        bit, row = 1 << k, reach[k]
        for i in range(m):
            if reach[i] & bit:
                reach[i] |= row
    return Topology(lam.carrier, _transpose(reach, m))


def lim_topo(o: Topology, x: EPSeq) -> frozenset[Element]:
    """Topological limits: points whose every neighborhood eventually absorbs x.

    a is a limit iff N(a) holds every value v of x's period, iff a lies in
    each closure of v: the limits of x's class under the limit operator
    ``lim_of_topology_as_convergence(o)``, the AND of ``point_closures[v]``.
    """
    return lim_of_topology_as_convergence(o)(inf_class(x))


def join_topologies(o1: Topology, o2: Topology) -> Topology:
    """Minimal topology containing both: N(p) = N1(p) & N2(p)."""
    _check_same_carrier(o1, o2)
    return Topology(
        o1.carrier, [a & b for a, b in zip(o1.min_neighborhoods, o2.min_neighborhoods)]
    )


def lim_of_topology_as_convergence(o: Topology) -> Convergence:
    """The adjoint direction: classes to their sets of topological limits.

    a is a limit of S exactly when S lies inside N(a), so the result is
    the convergence with lim1[s] = {a : s in N(a)} and no exceptions.
    """
    return Convergence(o.carrier, lim1=o.point_closures, name="lim_O")


def is_sequential(o: Topology) -> bool:
    """O is sequential iff synthesizing from its own limit operator returns O."""
    return synthesize_O_lambda(lim_of_topology_as_convergence(o)) == o


def check_closed_char(o: Topology, direction: str = "up") -> bool:
    """Closed sets are exactly the upward-closed (resp. downward-closed) sets
    that also contain meets of decreasing chains drawn from them.

    The closed sets are the up-sets exactly when the opens are the down-sets,
    that is, when N(p) is the downset of p (dually for "down").  On a finite
    carrier decreasing chains stabilize, so the chain clause is finite-trivial
    and only the family equality is checked.
    """
    carrier = o.carrier
    expected = carrier.down_masks if direction == "up" else carrier.up_masks
    return o.min_neighborhoods == expected


def complement_homeomorphism_check(o_ls: Topology, o_li: Topology) -> bool:
    """b -> b' maps the left topology's opens bijectively onto the right's:
    it carries each minimal neighbourhood N_ls(p) onto N_li(p')."""
    _check_same_carrier(o_ls, o_li)
    m = o_ls.carrier.size
    top = m - 1

    def map_open(u: int) -> int:
        out = 0
        for p in range(m):
            if u >> p & 1:
                out |= 1 << (top ^ p)
        return out

    return all(
        map_open(o_ls.min_neighborhoods[p]) == o_li.min_neighborhoods[top ^ p]
        for p in range(m)
    )


@dataclass(frozen=True)
class SpaceProperties:
    t0: bool
    connected: bool
    compact: bool
    compact_note: str = "finite carrier"


def space_properties(o: Topology) -> SpaceProperties:
    """T0: the N(p) are pairwise distinct.  Connected: the graph joining p
    to every point of N(p) is connected."""
    m = o.carrier.size
    mins = o.min_neighborhoods
    t0 = len(set(mins)) == m
    component, grown = 1, True
    while grown:
        grown = False
        for nb in mins:
            if nb & component and nb | component != component:
                component |= nb
                grown = True
    return SpaceProperties(t0=t0, connected=component == o.full, compact=True)
