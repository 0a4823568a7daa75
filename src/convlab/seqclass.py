"""Infinite-occurrence classes of eventually periodic sequences.

Every implemented convergence depends on a sequence only through the set of
values it takes infinitely often, a set of points of P(n) held as one bit-mask,
and subsequence quantifiers reduce to its nonempty submasks.  This module
provides the quotient map, its section (``representative``) and the subclass
enumeration; the concrete subsequence constructors that realize the reduction,
and the enumeration of every class, are test oracles.
"""

from __future__ import annotations

from .algebra import EPSeq, Frozen, atom_set, iter_bits


class InfClass(Frozen):
    """The nonempty set of points of P(width) that a sequence visits
    infinitely often: bit p of ``mask`` holds the point p."""

    __slots__ = ("mask", "width")

    def __init__(self, mask: int, width: int):
        if width < 1 or mask <= 0 or mask.bit_length() > 1 << width:
            raise ValueError(f"class mask {mask} is empty or not a subset of P({width})")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "width", width)

    def __repr__(self) -> str:
        return "InfClass(" + ",".join(map(atom_set, iter_bits(self.mask))) + ")"


def inf_class(x: EPSeq) -> InfClass:
    """Quotient map: the distinct values of the period."""
    mask = 0
    for p in x.period:
        mask |= 1 << p
    return InfClass(mask, x.width)


def subsequence_classes(s: InfClass) -> frozenset[InfClass]:
    """Classes of all subsequences: the 2^|S| - 1 nonempty submasks of S."""
    result, sub = [], s.mask
    while sub:
        result.append(InfClass(sub, s.width))
        sub = (sub - 1) & s.mask
    return frozenset(result)


def representative(s: InfClass) -> EPSeq:
    """Section of the quotient map: empty preperiod, the points in ascending order."""
    return EPSeq((), tuple(iter_bits(s.mask)), s.width)
