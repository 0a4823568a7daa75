"""Convergence structures on a finite Boolean algebra.

A convergence maps infinite-occurrence classes to sets of candidate limits;
both are bit-masks over the carrier enumeration.  Every convergence here
satisfies (L2), subsequences inherit limits, and has one form: its singleton
columns ``lim1[s]`` = lam({s}), held packed and unpacked only when read, and
exceptions (E, A), each a class E of two or more points with a limit mask A.

    lam(S) = AND of lim1[s] over s in S, AND of A over exceptions E inside S.

Every such map satisfies (L2), and every (L2) convergence has this form.  The
built-in laws, their star-closures and every topological limit operator have
no exceptions, so their operations cost O(2^n) instead of O(2^(2^n)), and
answer point queries at any size.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce
from operator import or_

from .algebra import Carrier, CarrierMismatchError, Element, check_same_carrier, iter_bits
from .seqclass import InfClass, subsequence_classes


class ClosureAxiomError(ValueError):
    """A convergence violates the (L1) precondition of the operation."""


def sos_union(table: list[int], m: int) -> list[int]:
    """Subset transform: out[A] = union of table[S] over all S contained in A.
    Only ``tests/oracles.py`` calls it; it stays bound because perfbench's
    tracer wraps it by name."""
    out = list(table)
    for e in range(m):
        bit = 1 << e
        for a in range(1 << m):
            if a & bit:
                out[a] |= out[a ^ bit]
    return out


def _avoiding(points: int, classes: frozenset[int], memo: dict) -> int:
    """Number of subsets of the point mask ``points`` holding no class (a mask
    inside ``points``) whole.  Points in no class double the count; on the
    rest, branch on a point p of a smallest class, leaving it out (dropping
    the classes that hold p) or putting it in (removing p from each class).
    An emptied class is held whole.  ``memo`` is keyed by the classes alone."""
    if not classes:
        return 1 << points.bit_count()
    if 0 in classes:
        return 0
    union = reduce(or_, classes)
    if classes not in memo:
        e = min(classes, key=int.bit_count)
        p = e & -e
        left_out = frozenset(c for c in classes if not c & p)
        put_in = frozenset(c & ~p for c in classes)
        memo[classes] = _avoiding(union & ~p, left_out, memo) + _avoiding(union & ~p, put_in, memo)
    return memo[classes] << (points & ~union).bit_count()


class Convergence:
    """A total map from infinite-occurrence classes to sets of limits.

    ``lim1[s]`` is the limit mask of the singleton class {s}; each exception
    (E, A) pairs a class mask E of two or more points with a limit mask A that
    every class containing E is cut down to.  Exceptions given for one class
    are kept as one, whose limit mask is the AND of theirs, in the order each
    class first appears; each given limit mask is range-checked on its own.
    """

    def __init__(
        self, carrier: Carrier, lim1: Sequence[int], exceptions: Iterable[tuple[int, int]] = (), name: str = ""
    ):
        if len(lim1) != carrier.size:
            raise ValueError(f"expected {carrier.size} singleton limits, got {len(lim1)}")
        if not 0 <= min(lim1) <= max(lim1) < 1 << carrier.size:
            raise ValueError(f"limit masks must lie in 0..2^{carrier.size} - 1")
        self._hold(carrier, carrier.pack(lim1), exceptions, name)

    @classmethod
    def _from_lanes(
        cls, carrier: Carrier, lanes: int, exceptions: Iterable[tuple[int, int]] = (), name: str = ""
    ) -> "Convergence":
        """The convergence with ``lanes``, an int below 2^(4^n), as its packed columns."""
        lam = cls.__new__(cls)
        lam._hold(carrier, lanes, exceptions, name)
        return lam

    def _hold(self, carrier: Carrier, lanes: int, exceptions: Iterable[tuple[int, int]], name: str) -> None:
        """Keep the packed columns, and merge and range-check the exceptions."""
        size, full = carrier.size, (1 << carrier.size) - 1
        merged: dict[int, int] = {}
        for e, a in exceptions:
            if not 0 <= e <= full or e & (e - 1) == 0:
                raise ValueError(f"exception class {e} must hold two or more of P({carrier.n})'s {size} points")
            if not 0 <= a <= full:
                raise ValueError(f"limit masks must lie in 0..2^{size} - 1")
            merged[e] = merged.get(e, full) & a
        self.carrier = carrier
        self.name = name
        self._full = full
        self._lanes = lanes
        self.exceptions = tuple(merged.items())

    @cached_property
    def lim1(self) -> tuple[int, ...]:
        """The singleton columns, unpacked from the lanes on first read."""
        return tuple(self.carrier.unpack(self._lanes))

    def limit_mask(self, mask: int) -> int:
        # the full limit mask is also the largest class mask
        out = self._full
        if not 0 <= mask <= out:
            raise ValueError(f"class mask {mask} is not a set of P({self.carrier.n})'s points")
        if not mask:
            return 0
        lanes, m = self._lanes, self.carrier.size
        for s in iter_bits(mask):
            out &= lanes >> s * m
        for e, a in self.exceptions:
            if e & ~mask == 0:
                out &= a
        return out

    def limit_count(self) -> int:
        """Number of (nonempty class, limit) pairs: the popcount sum of the table.

        A class has the limit a iff it lies inside P_a = {s : a in lim1[s]},
        column a of the lanes, and holds no class of F_a: the exception
        classes E inside P_a (a is in the AND of lim1 over E) whose A lacks
        a.  ``_avoiding`` counts those subsets of P_a, in time that grows
        with how the classes of F_a overlap.
        """
        lanes, ones, m = self._lanes, self.carrier.lane_ones, self.carrier.size
        cuts: dict[int, list[int]] = {}
        for e, lim in self.exceptions:
            inside = self._full
            for s in iter_bits(e):
                inside &= lanes >> s * m
            for a in iter_bits(inside & ~lim):
                cuts.setdefault(a, []).append(e)
        total = sum((1 << (lanes >> a & ones).bit_count()) - 1 for a in range(m))
        for a, classes in cuts.items():
            points = sum(1 << s for s in range(m) if lanes >> s * m + a & 1)  # P_a
            total += _avoiding(points, frozenset(classes), {}) - (1 << points.bit_count())
        return total

    def __call__(self, s: InfClass) -> frozenset[Element]:
        if s.width != self.carrier.n:
            raise CarrierMismatchError(
                f"class over P({s.width}) fed to convergence on P({self.carrier.n})"
            )
        return self.carrier.subset_from_mask(self.limit_mask(s.mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Convergence):
            return NotImplemented
        if self.carrier != other.carrier or self._lanes != other._lanes:
            return False
        if not (self.exceptions or other.exceptions):
            return True
        return first_escape(self, other) is None and first_escape(other, self) is None

    def __hash__(self) -> int:
        return hash((self.carrier, self._lanes))

    def __repr__(self) -> str:
        return f"Convergence({self.name or 'anonymous'}, P({self.carrier.n}))"


def lambda_ls(carrier: Carrier) -> Convergence:
    """Limits are everything above the limsup: upset of the join of the class,
    that is, the intersection of the upsets of its members."""
    return Convergence._from_lanes(carrier, carrier.up_lanes, name="lambda_ls")


def lambda_li(carrier: Carrier) -> Convergence:
    """Limits are everything below the liminf: downset of the meet of the
    class, that is, the intersection of the downsets of its members."""
    return Convergence._from_lanes(carrier, carrier.down_lanes, name="lambda_li")


def lambda_s(carrier: Carrier) -> Convergence:
    """The unique limit when liminf and limsup coincide, no limit otherwise."""
    return Convergence._from_lanes(carrier, carrier.lane_diagonal, name="lambda_s")


def meet_conv(a: Convergence, b: Convergence) -> Convergence:
    """Pointwise intersection of limit sets: the columns ANDed, the
    exceptions of both kept, one per class."""
    check_same_carrier(a, b)
    name = f"({a.name} & {b.name})" if a.name and b.name else ""
    return Convergence._from_lanes(a.carrier, a._lanes & b._lanes, a.exceptions + b.exceptions, name)


def first_escape(a: Convergence, b: Convergence) -> int | None:
    """Mask of the first class, in ascending mask order, on which a's limit
    set is not contained in b's; None when a <= b.

    Only singletons and b's exception classes need testing.  A class C whose
    singletons all pass has a(C) inside every b-column of its points, so if
    it escapes, some exception (E, A) of b with E inside C has a(C), and by
    (L2) a(E), not inside A: then E escapes too, and E <= C as an integer.
    A class holding a failing singleton {s} is likewise >= 1 << s.
    """
    check_same_carrier(a, b)
    # every failing singleton at once; the lowest set bit is in the least one's lane
    lost = a._lanes & ~b._lanes
    found = 1 << ((lost & -lost).bit_length() - 1) // a.carrier.size if lost else None
    for e, lim in b.exceptions:
        if (found is None or e < found) and a.limit_mask(e) & ~lim:
            found = e
    return found


def leq_conv(a: Convergence, b: Convergence) -> bool:
    """a <= b iff a's limit set is contained in b's on every class."""
    return first_escape(a, b) is None


def check_L1(lam: Convergence) -> bool:
    """Constant sequences converge to their value: every column holds its own
    point, so the packed lanes hold their diagonal."""
    diagonal = lam.carrier.lane_diagonal
    return lam._lanes & diagonal == diagonal


def check_L2(lam: Convergence) -> bool:
    """Subsequences inherit limits: lam(S) contained in lam(S') for S' subset of S.

    Always true: lam(S) is an AND over the columns and exceptions inside S,
    which include those inside S'.  It stays bound because perfbench's
    tracer wraps it by name.
    """
    return True


def star(lam: Convergence) -> Convergence:
    """Least extension closed under (L1)-(L3).

    On classes the double subsequence quantifier becomes: intersect over
    nonempty S' of S, the union over nonempty S'' of S' of lam(S'').  Under
    (L2) the inner union is the union of lam({s}) over s in S', so the result
    is lam's singleton columns without exceptions.  It warns when lam
    violates (L1).
    """
    if not check_L1(lam):
        warnings.warn("star-closure applied to a convergence violating (L1)", stacklevel=2)
    return Convergence._from_lanes(lam.carrier, lam._lanes, name=f"star({lam.name})")


def hbar_witness(s: InfClass) -> InfClass:
    """Subclass all of whose subclasses share its limsup: the least singleton."""
    return InfClass(s.mask & -s.mask, s.width)


def check_hbar(carrier: Carrier) -> bool:
    """Every class has a subclass on which the limsup is subsequence-stable.

    Every class contains a singleton {s}, and {s} is its own only nonempty
    subclass, so one test per point covers every class at any size; larger
    stable subclasses are finite-trivial and not searched for.
    """
    singles = (InfClass(1 << s, carrier.n) for s in range(carrier.size))
    return all(subsequence_classes(c) == {c} == {hbar_witness(c)} for c in singles)
