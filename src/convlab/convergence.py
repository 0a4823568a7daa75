"""Convergence structures on a finite Boolean algebra.

A convergence maps infinite-occurrence classes to sets of candidate limits;
both are bit-masks over the carrier enumeration.  Every convergence here
satisfies (L2), subsequences inherit limits, and has one form: its singleton
column ``lim1[s]`` = lam({s}) and a list of exceptions (E, A), each a class E
of two or more points with a limit mask A.  Then

    lam(S) = AND of lim1[s] over s in S, AND of A over exceptions E inside S.

Every such map satisfies (L2), and every (L2) convergence has this form.  The
built-in laws, their star-closures and every topological limit operator have
no exceptions, so their operations cost O(2^n) instead of O(2^(2^n)), and
answer point queries at any size.  Sweeps over all classes exist only up to
4 atoms and raise ``SweepCapacityError`` above that.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .algebra import Carrier, CarrierMismatchError, Element, check_same_carrier, iter_bits
from .seqclass import InfClass, class_from_mask, class_mask, subsequence_classes


class SweepCapacityError(RuntimeError):
    """An exhaustive class sweep was requested on a carrier too large to enumerate."""


class ClosureAxiomError(ValueError):
    """A convergence violates the (L1) precondition of the operation."""


def _require_table_capacity(carrier: Carrier) -> None:
    if carrier.size > 16:
        raise SweepCapacityError(
            f"carrier P({carrier.n}) has 2^{carrier.size} - 1 classes; "
            "exhaustive enumeration is only supported for up to 4 atoms"
        )


def sos_union(table: list[int], m: int) -> list[int]:
    """Subset transform: out[A] = union of table[S] over all S contained in A."""
    out = list(table)
    for e in range(m):
        bit = 1 << e
        for a in range(1 << m):
            if a & bit:
                out[a] |= out[a ^ bit]
    return out


class Convergence:
    """A total map from infinite-occurrence classes to sets of limits.

    ``lim1[s]`` is the limit mask of the singleton class {s}; each exception
    (E, A) pairs a class mask E of two or more points with a limit mask A that
    every class containing E is cut down to.  Exceptions given for one class
    are kept as one, whose limit mask is the AND of theirs, in the order each
    class first appears; each given limit mask is range-checked on its own.
    """

    def __init__(
        self,
        carrier: Carrier,
        lim1: Sequence[int],
        exceptions: Iterable[tuple[int, int]] = (),
        name: str = "",
    ):
        size = carrier.size
        full = (1 << size) - 1
        if len(lim1) != size:
            raise ValueError(f"expected {size} singleton limits, got {len(lim1)}")
        exceptions = tuple((e, a) for e, a in exceptions)
        merged: dict[int, int] = {}
        for e, a in exceptions:
            if not 0 <= e <= full or e & (e - 1) == 0:
                raise ValueError(f"exception class {e} must hold two or more of P({carrier.n})'s {size} points")
            merged[e] = merged.get(e, full) & a
        limits = [*lim1, *(a for _, a in exceptions)]
        if limits and not 0 <= min(limits) <= max(limits) <= full:
            raise ValueError(f"limit masks must lie in 0..2^{size} - 1")
        self.carrier = carrier
        self.name = name
        self._full = full
        self.lim1 = tuple(lim1)
        self.exceptions = tuple(merged.items())

    @cached_property
    def _lanes(self) -> int:
        """``lim1`` packed into lanes on first use, which no point query makes."""
        return self.carrier.pack(self.lim1)

    def limit_mask(self, mask: int) -> int:
        # the full limit mask is also the largest class mask
        out = self._full
        if not 0 <= mask <= out:
            raise ValueError(f"class mask {mask} is not a set of P({self.carrier.n})'s points")
        if not mask:
            return 0
        lim1 = self.lim1
        for s in iter_bits(mask):
            out &= lim1[s]
        for e, a in self.exceptions:
            if e & ~mask == 0:
                out &= a
        return out

    def limit_count(self) -> int:
        """Number of (nonempty class, limit) pairs: the popcount sum of the table.

        Without exceptions, a is a limit of S exactly when S is inside
        P_a = {s : a in lim1[s]}, which gives 2^|P_a| - 1 classes per point;
        |P_a| is the popcount of column a of the packed lanes.  With
        exceptions every class is swept, up to 4 atoms.
        """
        if self.exceptions:
            _require_table_capacity(self.carrier)
            return sum(self.limit_mask(c).bit_count() for c in range(1, 1 << self.carrier.size))
        lanes, ones = self._lanes, self.carrier.lane_ones
        return sum((1 << (lanes >> a & ones).bit_count()) - 1 for a in range(self.carrier.size))

    def __call__(self, s: InfClass) -> frozenset[Element]:
        if s.width != self.carrier.n:
            raise CarrierMismatchError(
                f"class over P({s.width}) fed to convergence on P({self.carrier.n})"
            )
        return self.carrier.subset_from_mask(self.limit_mask(class_mask(self.carrier, s)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Convergence):
            return NotImplemented
        if self.carrier != other.carrier or self.lim1 != other.lim1:
            return False
        return not (self.exceptions or other.exceptions) or first_difference(self, other) is None

    def __hash__(self) -> int:
        return hash((self.carrier, self.lim1))

    def __repr__(self) -> str:
        return f"Convergence({self.name or 'anonymous'}, P({self.carrier.n}))"


def lambda_ls(carrier: Carrier) -> Convergence:
    """Limits are everything above the limsup: upset of the join of the class,
    that is, the intersection of the upsets of its members."""
    return Convergence(carrier, lim1=carrier.up_masks, name="lambda_ls")


def lambda_li(carrier: Carrier) -> Convergence:
    """Limits are everything below the liminf: downset of the meet of the
    class, that is, the intersection of the downsets of its members."""
    return Convergence(carrier, lim1=carrier.down_masks, name="lambda_li")


def lambda_s(carrier: Carrier) -> Convergence:
    """The unique limit when liminf and limsup coincide, no limit otherwise."""
    return Convergence(
        carrier, lim1=[1 << s for s in range(carrier.size)], name="lambda_s"
    )


def meet_conv(a: Convergence, b: Convergence) -> Convergence:
    """Pointwise intersection of limit sets: the columns ANDed, the
    exceptions of both kept, one per class."""
    check_same_carrier(a, b)
    name = f"({a.name} & {b.name})" if a.name and b.name else ""
    lim1 = [x & y for x, y in zip(a.lim1, b.lim1)]
    return Convergence(a.carrier, lim1=lim1, exceptions=a.exceptions + b.exceptions, name=name)


def first_escape(a: Convergence, b: Convergence) -> Optional[int]:
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


def first_difference(a: Convergence, b: Convergence) -> Optional[int]:
    """Mask of the least class on which a's and b's limit sets differ; None
    when they agree on every class.  A class differs when one side escapes
    the other, so this is the least of the two ``first_escape`` classes."""
    return min((c for c in (first_escape(a, b), first_escape(b, a)) if c is not None), default=None)


def leq_conv(a: Convergence, b: Convergence) -> bool:
    """a <= b iff a's limit set is contained in b's on every class."""
    return first_escape(a, b) is None


def check_L1(lam: Convergence) -> bool:
    """Constant sequences converge to their value."""
    return all(col >> a & 1 for a, col in enumerate(lam.lim1))


def check_L2(lam: Convergence) -> bool:
    """Subsequences inherit limits: lam(S) contained in lam(S') for S' subset of S.

    Always true: lam(S) is an AND over the columns and exceptions inside S,
    which include those inside S'.  It stays bound because perfbench's
    tracer wraps it by name.
    """
    return True


def star(lam: Convergence, warn: bool = True) -> Convergence:
    """Least extension closed under (L1)-(L3).

    On classes the double subsequence quantifier becomes: intersect over
    nonempty S' of S, the union over nonempty S'' of S' of lam(S'').  Under
    (L2) the inner union is the union of lam({s}) over s in S', so the result
    is lam's singleton column without exceptions.  It warns when lam
    violates (L1).
    """
    if warn and not check_L1(lam):
        warnings.warn("star-closure applied to a convergence violating (L1)", stacklevel=2)
    return Convergence(lam.carrier, lim1=lam.lim1, name=f"star({lam.name})")


def check_L3(lam: Convergence) -> bool:
    """The Urysohn condition: if every subsequence has a further subsequence
    converging to a, then a is already a limit of the original sequence."""
    return leq_conv(star(lam, warn=False), lam)


def is_hausdorff(lam: Convergence) -> bool:
    """At most one limit per class; under (L2) singleton classes have the
    largest sets."""
    return all(v & (v - 1) == 0 for v in lam.lim1)


def hbar_witness(s: InfClass) -> InfClass:
    """Subclass all of whose subclasses share its limsup: the least singleton."""
    least = min(s.values, key=lambda e: e.mask)
    return InfClass(frozenset([least]))


def check_hbar(carrier: Carrier) -> bool:
    """Every class has a subclass on which the limsup is subsequence-stable.

    Every class contains a singleton {s}, and {s} is its own only nonempty
    subclass, so one test per point covers every class at any size; larger
    stable subclasses are finite-trivial and not searched for.
    """
    singles = (class_from_mask(carrier, 1 << s) for s in range(carrier.size))
    return all(subsequence_classes(c) == {c} == {hbar_witness(c)} for c in singles)
