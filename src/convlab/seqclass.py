"""Infinite-occurrence classes of eventually periodic sequences.

Every implemented convergence depends on a sequence only through the set of
values it takes infinitely often, a set of points of P(n) held as one bit-mask,
and subsequence quantifiers reduce to its nonempty submasks.  This module
provides the quotient map, its section (``representative``) and the subclass
enumeration; the concrete subsequence constructors that realize the reduction,
and the enumeration of every class, are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, EPSeq, iter_bits


@dataclass(frozen=True)
class InfClass:
    """The nonempty set of points of P(width) that a sequence visits
    infinitely often: bit p of ``mask`` holds the element with mask p."""

    mask: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.mask <= 0 or self.mask.bit_length() > 1 << self.width:
            raise ValueError(f"class mask {self.mask} is empty or not a subset of P({self.width})")

    @property
    def values(self) -> frozenset[Element]:
        return frozenset(_points(self))

    def __repr__(self) -> str:
        return "InfClass(" + ",".join(map(repr, _points(self))) + ")"


def _points(s: InfClass) -> tuple[Element, ...]:
    """The elements of s in ascending mask order."""
    return tuple(Element(p, s.width) for p in iter_bits(s.mask))


def inf_class(x: EPSeq) -> InfClass:
    """Quotient map: the distinct period values of the canonical form."""
    mask = 0
    for e in x.period:
        mask |= 1 << e.mask
    return InfClass(mask, x.width)


def subsequence_classes(s: InfClass) -> frozenset[InfClass]:
    """Classes of all subsequences: the 2^|S| - 1 nonempty submasks of S."""
    result, sub = [], s.mask
    while sub:
        result.append(InfClass(sub, s.width))
        sub = (sub - 1) & s.mask
    return frozenset(result)


def representative(s: InfClass) -> EPSeq:
    """Section of the quotient map: empty preperiod, values in mask order."""
    return EPSeq((), _points(s))
