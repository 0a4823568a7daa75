"""Convergence structures on a finite Boolean algebra.

A convergence maps infinite-occurrence classes to sets of candidate limits;
both are bit-masks over the carrier enumeration.  It comes in two forms:

- principal: only the singleton column ``lim1[s]`` = lam({s}) is stored and
  lam(S) is the intersection of ``lim1[s]`` over s in S.  The built-in laws,
  their star-closures and every topological limit operator have this form,
  so their operations cost O(2^n) instead of O(2^(2^n)).
- extensional: a full table indexed by class mask, for inputs that need not
  be principal (random or hand-made convergences, test oracles).

A principal convergence answers point queries at any size.  The full table
(``.table``) and other sweeps over all classes exist only up to 4 atoms and
raise ``SweepCapacityError`` above that.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

from .algebra import Carrier, CarrierMismatchError, Element, iter_bits
from .seqclass import InfClass, class_from_mask, class_mask, subsequence_classes


class SweepCapacityError(RuntimeError):
    """An exhaustive class sweep was requested on a carrier too large to enumerate."""


class ClosureAxiomError(ValueError):
    """A convergence violates the (L1)/(L2) precondition of the operation."""


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


class Convergence:
    """A total map from infinite-occurrence classes to sets of limits.

    Give exactly one representation: ``lim1`` (singleton limits of a
    principal convergence) or ``table`` (limit mask per class mask, entry 0
    unused).
    """

    def __init__(
        self,
        carrier: Carrier,
        table: Optional[list[int]] = None,
        name: str = "",
        lim1: Optional[Sequence[int]] = None,
    ):
        if (table is None) == (lim1 is None):
            raise ValueError("exactly one of table and lim1 is required")
        if lim1 is not None and len(lim1) != carrier.size:
            raise ValueError(f"expected {carrier.size} singleton limits, got {len(lim1)}")
        if table is not None and len(table) != 1 << carrier.size:
            raise ValueError(f"expected a table of 2^{carrier.size} entries, got {len(table)}")
        entries = table if lim1 is None else lim1
        if entries and not 0 <= min(entries) <= max(entries) < 1 << carrier.size:
            raise ValueError(f"limit masks must lie in 0..2^{carrier.size} - 1")
        self.carrier = carrier
        self.name = name
        self._table = table
        self._lim1 = tuple(lim1) if lim1 is not None else None

    @property
    def is_principal(self) -> bool:
        """Stored as singleton limits, so lam(S) is the meet of lam({s}), s in S."""
        return self._lim1 is not None

    @property
    def lim1(self) -> tuple[int, ...]:
        """The singleton column: lim1[s] is the limit mask of the class {s}."""
        if self._lim1 is not None:
            return self._lim1
        return tuple(self.limit_mask(1 << s) for s in range(self.carrier.size))

    @property
    def table(self) -> list[int]:
        """Full limit-set table indexed by class mask (entry 0 unused)."""
        if self._table is None:
            _require_table_capacity(self.carrier)
            lim1 = self._lim1
            built = [0] * (1 << self.carrier.size)
            built[0] = (1 << self.carrier.size) - 1
            for mask in range(1, len(built)):
                low = mask & -mask
                built[mask] = built[mask ^ low] & lim1[low.bit_length() - 1]
            built[0] = 0
            self._table = built
        return self._table

    def limit_mask(self, mask: int) -> int:
        if self._table is not None:
            return self._table[mask]
        if not mask:
            return 0
        out = (1 << self.carrier.size) - 1
        for s in iter_bits(mask):
            out &= self._lim1[s]
        return out

    def limit_count(self) -> int:
        """Number of (nonempty class, limit) pairs: the popcount sum of the table.

        For a principal convergence, a is a limit of S exactly when S is inside
        P_a = {s : a in lim1[s]}, which gives 2^|P_a| - 1 classes per point;
        the |P_a| are counted in one step per set bit of ``lim1``.
        """
        if self._lim1 is None:
            return sum(v.bit_count() for v in self.table)
        sizes = [0] * self.carrier.size
        for col in self._lim1:
            for a in iter_bits(col):
                sizes[a] += 1
        return sum((1 << k) - 1 for k in sizes)

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
        if self.is_principal and other.is_principal:
            return True
        return self.table == other.table

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


def _check_same_carrier(a: Convergence, b: Convergence) -> None:
    if a.carrier != b.carrier:
        raise CarrierMismatchError("convergences live on different carriers")


def meet_conv(a: Convergence, b: Convergence) -> Convergence:
    """Pointwise intersection of limit sets."""
    _check_same_carrier(a, b)
    name = f"({a.name} & {b.name})" if a.name and b.name else ""
    if a.is_principal and b.is_principal:
        lim1 = [x & y for x, y in zip(a.lim1, b.lim1)]
        return Convergence(a.carrier, lim1=lim1, name=name)
    table = [x & y for x, y in zip(a.table, b.table)]
    return Convergence(a.carrier, table=table, name=name)


def first_escape(a: Convergence, b: Convergence) -> Optional[int]:
    """Mask of the first class, in ascending mask order, on which a's limit
    set is not contained in b's; None when a <= b.

    For principal operands this is the first singleton {s} with
    lim1_a[s] not inside lim1_b[s]: every class below it in mask order holds
    only points where the columns are contained.
    """
    _check_same_carrier(a, b)
    if a.is_principal and b.is_principal:
        for s, (x, y) in enumerate(zip(a.lim1, b.lim1)):
            if x & ~y:
                return 1 << s
        return None
    ta, tb = a.table, b.table
    for mask in range(1, len(ta)):
        if ta[mask] & ~tb[mask]:
            return mask
    return None


def leq_conv(a: Convergence, b: Convergence) -> bool:
    """a <= b iff a's limit set is contained in b's on every class."""
    return first_escape(a, b) is None


def check_L1(lam: Convergence) -> bool:
    """Constant sequences converge to their value."""
    return all(col >> a & 1 for a, col in enumerate(lam.lim1))


def check_L2(lam: Convergence) -> bool:
    """Subsequences inherit limits: lam(S) contained in lam(S') for S' subset of S.

    A principal convergence satisfies it by construction.  Otherwise
    single-element removals suffice; chains of removals reach every subset.
    """
    if lam.is_principal:
        return True
    t = lam.table
    m = lam.carrier.size
    for s in range(1, 1 << m):
        if s & (s - 1) == 0:
            continue
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            if t[s] & ~t[s ^ bit]:
                return False
    return True


def star(lam: Convergence, warn: bool = True) -> Convergence:
    """Least extension closed under (L1)-(L3).

    On classes the double subsequence quantifier becomes: intersect over
    nonempty S' of S, the union over nonempty S'' of S' of lam(S'').  Under
    (L2) the inner union is the union of lam({s}) over s in S', so the result
    is the principal convergence on lam's singleton column.
    """
    l2 = check_L2(lam)
    if warn and not (l2 and check_L1(lam)):
        warnings.warn(
            "star-closure applied to a convergence violating (L1)/(L2)",
            stacklevel=2,
        )
    name = f"star({lam.name})"
    if l2:
        return Convergence(lam.carrier, lim1=lam.lim1, name=name)
    m = lam.carrier.size
    inner = sos_union(lam.table, m)
    outer = sos_intersection_nonempty(inner, m)
    outer[0] = 0
    return Convergence(lam.carrier, table=outer, name=name)


def check_L3(lam: Convergence) -> bool:
    """The Urysohn condition: if every subsequence has a further subsequence
    converging to a, then a is already a limit of the original sequence."""
    return leq_conv(star(lam, warn=False), lam)


def is_hausdorff(lam: Convergence) -> bool:
    """At most one limit per class; singleton classes have the largest sets
    in a principal convergence."""
    values = lam.lim1 if lam.is_principal else lam.table
    return all(v & (v - 1) == 0 for v in values)


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
