"""Coordinatewise limits on the power set of the naturals.

Elements are finite or cofinite subsets of the naturals, so every set is
described by a finite support, held as one int bit-mask.  The three cube
topologies (half-open coordinates, reversed half-open coordinates, discrete
coordinates) are never materialized; their limit predicates are evaluated on
a window, the mask of the finitely many exceptional coordinates plus one
representative generic coordinate, at all its coordinates at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .algebra import canonical_period, iter_bits


@dataclass(frozen=True, init=False, slots=True)
class FCSet:
    """A finite or cofinite subset of the naturals.

    ``bits`` is the support as a bit-mask: the set itself when finite, its
    complement when cofinite (canonical).  The constructor takes any iterable.
    """

    cofinite: bool
    bits: int

    def __init__(self, cofinite: bool, support: Iterable[int]) -> None:
        bits = 0
        for i in support:
            if i < 0:
                raise ValueError("supports are sets of naturals")
            bits |= 1 << i
        _set(self, "cofinite", bool(cofinite))
        _set(self, "bits", bits)

    @property
    def support(self) -> frozenset[int]:
        """The support as a frozenset, read from ``bits``."""
        return frozenset(iter_bits(self.bits))

    def contains(self, i: int) -> bool:
        return bool(self.bits >> i & 1) != self.cofinite

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in iter_bits(self.bits))
        return f"~{{{inner}}}" if self.cofinite else f"{{{inner}}}"


_set = object.__setattr__


def _fc(cofinite: bool, bits: int) -> FCSet:
    """An FCSet from its flag and support mask, without the constructor's checks."""
    s = object.__new__(FCSet)
    _set(s, "cofinite", cofinite)
    _set(s, "bits", bits)
    return s


def fc_finite(items: Iterable[int]) -> FCSet:
    return FCSet(False, items)


def fc_cofinite(excluded: Iterable[int]) -> FCSet:
    return FCSet(True, excluded)


FC_EMPTY = fc_finite(())
FC_FULL = fc_cofinite(())


def fc_complement(a: FCSet) -> FCSet:
    return _fc(not a.cofinite, a.bits)


def fc_union(a: FCSet, b: FCSet) -> FCSet:
    if a.cofinite:
        return _fc(True, a.bits & b.bits if b.cofinite else a.bits & ~b.bits)
    if b.cofinite:
        return _fc(True, b.bits & ~a.bits)
    return _fc(False, a.bits | b.bits)


def fc_intersection(a: FCSet, b: FCSet) -> FCSet:
    if a.cofinite:
        return _fc(True, a.bits | b.bits) if b.cofinite else _fc(False, b.bits & ~a.bits)
    return _fc(False, a.bits & ~b.bits if b.cofinite else a.bits & b.bits)


def _order_key(s: FCSet) -> tuple[bool, tuple[int, ...]]:
    return s.cofinite, tuple(iter_bits(s.bits))


@dataclass(frozen=True)
class FCSeq:
    """Eventually periodic sequence of finite/cofinite sets."""

    preperiod: tuple[FCSet, ...]
    period: tuple[FCSet, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", canonical_period(tuple(self.period), _order_key))

    def value_at(self, i: int) -> FCSet:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]


def fc_liminf(x: FCSeq) -> FCSet:
    """Points belonging to all but finitely many entries."""
    out = FC_FULL
    for v in set(x.period):
        out = fc_intersection(out, v)
    return out


def fc_limsup(x: FCSeq) -> FCSet:
    """Points belonging to infinitely many entries."""
    out = FC_EMPTY
    for v in set(x.period):
        out = fc_union(out, v)
    return out


def _supports(x: FCSeq) -> int:
    out = 0
    for v in x.preperiod + x.period:
        out |= v.bits
    return out


def _window(coords: int) -> int:
    """The exceptional coordinates plus the generic one just beyond them."""
    return coords | 1 << coords.bit_length()


def _members(v: FCSet, window: int) -> int:
    """The window coordinates that v contains."""
    return (v.bits ^ window if v.cofinite else v.bits) & window


def lim_alexandrov(x: FCSeq) -> Callable[[FCSet], bool]:
    """Limit predicate for the cube whose coordinates have only {0} as a
    proper neighborhood: a coordinate at 0 in the candidate forces the
    sequence's coordinate to 0 eventually; a coordinate at 1 is unconstrained.
    """
    vals, coords = set(x.period), _supports(x)

    def holds(a: FCSet) -> bool:
        w = _window(coords | a.bits)
        return all(_members(v, w) & ~_members(a, w) == 0 for v in vals)

    return holds


def lim_alexandrov_dual(x: FCSeq) -> Callable[[FCSet], bool]:
    """Dual cube ({1} is the proper neighborhood): a coordinate at 1 in the
    candidate forces the sequence's coordinate to 1 eventually."""
    vals, coords = set(x.period), _supports(x)

    def holds(a: FCSet) -> bool:
        w = _window(coords | a.bits)
        return all(_members(a, w) & ~_members(v, w) == 0 for v in vals)

    return holds


def lim_cantor(x: FCSeq) -> Optional[FCSet]:
    """Limit in the cube with discrete coordinates: every coordinate must be
    eventually constant; the limit is that coordinatewise value."""
    w = _window(_supports(x))
    constant = len({_members(v, w) for v in set(x.period)}) == 1
    return fc_limsup(x) if constant else None


def candidate_limits(x: FCSeq, rng) -> list[FCSet]:
    """A candidate pool for predicate sweeps: six structured candidates derived
    from the sequence, then eight seeded random finite/cofinite sets in its window."""
    li, ls = fc_liminf(x), fc_limsup(x)
    pool = [li, ls, fc_complement(li), fc_complement(ls), FC_EMPTY, FC_FULL]
    universe = [1 << i for i in iter_bits(_window(_supports(x)))]
    for _ in range(8):
        bits = sum(b for b in universe if rng.random() < 0.5)
        pool.append(_fc(rng.random() < 0.5, bits))
    return pool


def check_T1235a(sample: list[FCSeq], rng) -> bool:
    """The conjunction of the two half-open cube predicates characterizes
    exactly the discrete-cube limit, over a candidate pool per sequence."""
    for x in sample:
        alex = lim_alexandrov(x)
        dual = lim_alexandrov_dual(x)
        cantor = lim_cantor(x)
        for a in candidate_limits(x, rng):
            both = alex(a) and dual(a)
            if both != (cantor is not None and cantor == a):
                return False
    return True
