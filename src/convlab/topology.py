"""Finite topologies and the convergence/topology adjunction.

Every finite topology is the Alexandrov topology of its specialization
preorder, so it is stored as the minimal open neighbourhood N(p) of each
point p, packed: N(p) is lane p of one int.  ``Topology(carrier, mins)``, a
carrier-subset bit-mask per point, is its only public constructor and packs
them once.  The preorder check, the closure, the transpose, joins and order
tests are each a few big-int steps on the lanes, and ``min_neighborhoods``
and ``point_closures`` are unpacked only when read.  The opens are exactly
the unions of minimal neighbourhoods; they are counted and tested one mask at
a time, never listed.  Synthesis of the sequential topology of a convergence,
topological limits, joins, and the space properties needed for the diagram
reports all work on the neighbourhood lanes.  Closure, the preorder check
and synthesis (``_synthesized``) take a stack of k relations and run once for
all k; one relation is a stack of one.  ``generate`` ANDs in one subbase set
at a time.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property

from .algebra import Carrier, Element, EPSeq, check_same_carrier, iter_bits
from .convergence import ClosureAxiomError, Convergence
from .seqclass import inf_class


def _transitive_closure(carrier: Carrier, stack: int, k: int = 1) -> int:
    """Warshall's algorithm on each of k stacked relations: step p adds row p
    to every row holding p.  A stack ANDs its holders, widened to full lanes,
    with row p of each field copied into all its lanes by n doubling shifts,
    cheaper than a product.  One relation, the diagram's case, multiplies its
    holders by row p: three times faster than the shifts at n = 4 and 5."""
    m, full, ones = carrier.size, (1 << carrier.size) - 1, carrier.lane_ones
    if k == 1:
        for p in range(m):
            stack |= (stack >> p & ones) * (stack >> p * m & full)
        return stack
    masks = carrier.stacked(k)
    for p in range(m):
        row = stack >> p * m & masks.lane0
        for i in range(carrier.n):
            row |= row << (m << i)
        stack |= (stack >> p & masks.ones) * full & row
    return stack


_NOT_A_PREORDER = "minimal neighbourhoods must be reflexive and transitive"


def _preorders(carrier: Carrier, stack: int, k: int = 1) -> int:
    """The stack, once each of its k relations holds its diagonal and closing it adds nothing."""
    diagonal = carrier.stacked(k).diagonal
    if stack & diagonal != diagonal or _transitive_closure(carrier, stack, k) != stack:
        raise ValueError(_NOT_A_PREORDER)
    return stack


def _synthesized(carrier: Carrier, stack: int, k: int = 1, name: str = "") -> int:
    """O_lam's neighbourhood lanes for k stacked column lanes, checked a
    preorder (see ``synthesize_O_lambda``).  Without (L1) the first field so
    (or ``name``) is refused, with its first column lacking its own point."""
    if missing := carrier.stacked(k).diagonal & ~stack:
        field, bit = divmod((missing & -missing).bit_length() - 1, carrier.stacked(1).guards.bit_length())
        p, who = bit // carrier.size, name or f"field {field} of a {k}-field stack"
        raise ClosureAxiomError(
            f"sequential topology requires a convergence satisfying (L1): column {p} of {who} on P({carrier.n}) "
            f"lacks the point {p}"
        )
    return _preorders(carrier, carrier.transpose(_transitive_closure(carrier, stack, k), k), k)


class Topology:
    """A finite topology, held as the minimal neighbourhood of every point.

    ``Topology(carrier, mins)`` is the topology whose minimal neighbourhood of
    point p is mins[p].  It raises ``ValueError`` unless there is one mask per
    point, each inside the carrier, and the masks form a preorder.  A family
    of opens is never a valid argument: it holds the empty set, and an empty
    neighbourhood fails reflexivity.
    """

    def __init__(self, carrier: Carrier, mins: Iterable[int]):
        mins = tuple(mins)
        if len(mins) != carrier.size or not 0 <= min(mins) <= max(mins) < 1 << carrier.size:
            raise ValueError(_NOT_A_PREORDER)
        self._hold(carrier, _preorders(carrier, carrier.pack(mins)))

    @classmethod
    def _from_lanes(cls, carrier: Carrier, lanes: int, checked: bool = False) -> "Topology":
        """The topology with ``lanes``, an int below 2^(4^n), as its packed
        neighbourhoods, checked a preorder unless a stacked helper has."""
        topo = cls.__new__(cls)
        topo._hold(carrier, lanes if checked else _preorders(carrier, lanes))
        return topo

    def _hold(self, carrier: Carrier, lanes: int) -> None:
        self.carrier = carrier
        self.full = (1 << carrier.size) - 1
        self._lanes = lanes

    @cached_property
    def min_neighborhoods(self) -> tuple[int, ...]:
        """Smallest open set around each point (finite spaces always have one), unpacked on first read."""
        return tuple(self.carrier.unpack(self._lanes))

    @cached_property
    def point_closures(self) -> tuple[int, ...]:
        """The closure of point p, {q : p in N(q)}, unpacked on first read."""
        return tuple(self.carrier.unpack(self.carrier.transpose(self._lanes)))

    def is_open_mask(self, mask: int) -> bool:
        """Whether the subset ``mask`` is open; raises ``ValueError`` unless
        0 <= mask < 2^(2^n)."""
        if not 0 <= mask <= self.full:
            raise ValueError(f"mask {mask} is not a subset of P({self.carrier.n})")
        return all(self.min_neighborhoods[p] & ~mask == 0 for p in iter_bits(mask))

    def __le__(self, other: "Topology") -> bool:
        """Every open of self is open in other: N_other(p) inside N_self(p)."""
        if not isinstance(other, Topology):
            return NotImplemented
        check_same_carrier(self, other)
        return other._lanes & ~self._lanes == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self.carrier == other.carrier and self._lanes == other._lanes

    def __hash__(self) -> int:
        return hash((self.carrier, self._lanes))

    def open_count(self) -> int:
        """Number of open sets, counted as down-sets of the preorder
        q <= p iff q in N(p): those avoiding a point p avoid its closure,
        those containing p contain N(p).  The opposite topology, with the
        transposed lanes, has as many: complement maps its opens onto these."""
        mins, closures = self.min_neighborhoods, self.point_closures
        memo = {0: 1}

        def count(rest: int) -> int:
            if rest not in memo:
                p = (rest & -rest).bit_length() - 1
                memo[rest] = count(rest & ~closures[p]) + count(rest & ~mins[p])
            return memo[rest]

        return count(self.full)

    def __repr__(self) -> str:
        return f"Topology(P({self.carrier.n}), {self.open_count()} opens)"


def first_open_not_in(a: Topology, b: Topology) -> int | None:
    """Smallest mask that is open in a and not in b; None when a <= b.

    Inclusion is decided first, on the neighbourhood arrays.  Otherwise the
    least such mask U is a minimal neighbourhood of a.  U is not open in b,
    so some r in U has N_b(r) not inside U; U is open in a, so N_a(r) is
    inside U.  Then N_a(r) is open in a and not open in b, since it holds r
    but not all of N_b(r), and N_a(r) <= U as an integer, so U = N_a(r).
    """
    if a <= b:
        return None
    return next(u for u in sorted(a.min_neighborhoods) if not b.is_open_mask(u))


def discrete(carrier: Carrier) -> Topology:
    return Topology._from_lanes(carrier, carrier.lane_diagonal)


def generate(carrier: Carrier, subbase: Iterable[int]) -> Topology:
    """Smallest topology containing the subbase.

    Each point's minimal neighborhood is the intersection of the subbase sets
    containing it, or the carrier where none does; the opens are exactly the
    unions of minimal neighborhoods.  A set U gives lane p U if p is in U,
    else the carrier: U in every lane OR the complement of its transpose.
    Each mask's range is checked.
    """
    full = (1 << carrier.size) - 1
    lanes = (1 << carrier.size**2) - 1
    for mask in subbase:
        if not 0 <= mask <= full:
            raise ValueError(f"open masks must lie in 0..{full}")
        layer = mask * carrier.lane_ones
        lanes &= layer | ~carrier.transpose(layer)
    return Topology._from_lanes(carrier, lanes)


def synthesize_O_lambda(lam: Convergence) -> Topology:
    """The sequential topology of lam: opens are complements of the subsets
    fixed by the sequential-closure operator.

    Under (L2) the closure of A is the union of lam({a}) over a in A, so the
    closed sets are those closed under the transitive closure of the
    singleton relation a -> lam({a}), and N(q) is the set of points whose
    transitive closure reaches q: the transpose of that closure.  Every
    convergence satisfies (L2); (L1) is checked, and a refusal names lam.
    """
    lanes = _synthesized(lam.carrier, lam._lanes, 1, lam.name or "a convergence")
    return Topology._from_lanes(lam.carrier, lanes, checked=True)


def lim_topo(o: Topology, x: EPSeq) -> frozenset[Element]:
    """Topological limits: points whose every neighborhood eventually absorbs x.

    a is a limit iff N(a) holds every value v of x's period, iff a lies in
    each closure of v: the limits of x's class under the limit operator
    ``lim_of_topology_as_convergence(o)``, the AND of ``point_closures[v]``.
    """
    return lim_of_topology_as_convergence(o)(inf_class(x))


def join_topologies(o1: Topology, o2: Topology) -> Topology:
    """Minimal topology containing both: N(p) = N1(p) & N2(p)."""
    check_same_carrier(o1, o2)
    return Topology._from_lanes(o1.carrier, o1._lanes & o2._lanes)


def lim_of_topology_as_convergence(o: Topology) -> Convergence:
    """The adjoint direction: classes to their sets of topological limits.

    a is a limit of S exactly when S lies inside N(a), so the result is
    the convergence with lim1[s] = {a : s in N(a)} and no exceptions, whose
    packed columns are the transposed neighbourhoods.
    """
    return Convergence._from_lanes(o.carrier, o.carrier.transpose(o._lanes), name="lim_O")


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
    return o._lanes == (o.carrier.down_lanes if direction == "up" else o.carrier.up_lanes)


def complement_homeomorphism_check(o_ls: Topology, o_li: Topology) -> bool:
    """b -> b' maps the left topology's opens bijectively onto the right's:
    it carries each minimal neighbourhood N_ls(p) onto N_li(p').  The
    complement reverses the bits of a point's index, so reversing all the
    packed lanes moves bit q of lane p to bit q' of lane p'."""
    check_same_carrier(o_ls, o_li)
    width = o_ls.carrier.size ** 2
    return int(f"{o_ls._lanes:0{width}b}"[::-1], 2) == o_li._lanes


SpaceProperties = namedtuple("SpaceProperties", "t0 connected compact compact_note", defaults=("finite carrier",))


def space_properties(o: Topology) -> SpaceProperties:
    """T0: the N(p) are pairwise distinct.  Connected: the graph joining p
    to every point of N(p) is connected, so the closure of that relation and
    its transpose relates point 0 to every point."""
    carrier = o.carrier
    t0 = len(set(o.min_neighborhoods)) == carrier.size
    linked = _transitive_closure(carrier, o._lanes | carrier.transpose(o._lanes))
    return SpaceProperties(t0=t0, connected=linked & o.full == o.full, compact=True)
