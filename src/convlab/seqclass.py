"""Infinite-occurrence classes of eventually periodic sequences.

Every implemented convergence depends on a sequence only through the set of
values it takes infinitely often, and subsequence quantifiers reduce to
nonempty subsets of that set.  This module provides the quotient map, its
section (``representative``) and the subclass enumeration; the concrete
subsequence constructors that realize the reduction, and the enumeration of
every class, are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import Carrier, CarrierMismatchError, Element, EPSeq


@dataclass(frozen=True)
class InfClass:
    """The nonempty set of elements a sequence visits infinitely often."""

    values: frozenset[Element]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("infinite-occurrence class must be nonempty")
        widths = {e.width for e in self.values}
        if len(widths) != 1:
            raise CarrierMismatchError("mixed-width values in class")
        object.__setattr__(self, "values", frozenset(self.values))

    @property
    def width(self) -> int:
        return next(iter(self.values)).width

    def __repr__(self) -> str:
        inner = ",".join(repr(e) for e in sorted(self.values, key=lambda e: e.mask))
        return f"InfClass({inner})"


def inf_class(x: EPSeq) -> InfClass:
    """Quotient map: the distinct period values of the canonical form."""
    return InfClass(frozenset(x.period))


def subsequence_classes(s: InfClass) -> frozenset[InfClass]:
    """Classes of all subsequences: the 2^|S| - 1 nonempty subsets of S."""
    vals = sorted(s.values, key=lambda e: e.mask)
    result = set()
    for k in range(1, len(vals) + 1):
        for combo in combinations(vals, k):
            result.add(InfClass(frozenset(combo)))
    return frozenset(result)


def representative(s: InfClass) -> EPSeq:
    """Section of the quotient map: empty preperiod, values in mask order."""
    return EPSeq((), tuple(sorted(s.values, key=lambda e: e.mask)))


def class_mask(carrier: Carrier, s: InfClass) -> int:
    return carrier.subset_mask(s.values)


def class_from_mask(carrier: Carrier, mask: int) -> InfClass:
    if mask <= 0:
        raise ValueError("class mask must select at least one element")
    return InfClass(carrier.subset_from_mask(mask))

