"""Coordinatewise limits on the power set of the naturals.

Elements are finite or cofinite subsets of the naturals, each held as one
Python int: a finite set is its own bits, a cofinite set is ``~support``, a
negative int whose infinitely many high bits are set.  Union, intersection
and complement are ``|``, ``&`` and ``~``, and coordinate i is in a when
``a >> i & 1``.  The three cube topologies (half-open coordinates, reversed
half-open coordinates, discrete coordinates) are never materialized; their
limit predicates test every coordinate at once with one AND-NOT per period
value, since the int holds all of them.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from operator import and_, or_

from .algebra import Frozen, atom_set, liminf, limsup


def fc_support(a: int) -> int:
    """The support mask: the set itself when finite, its complement when cofinite."""
    return ~a if a < 0 else a


def fc_repr(a: int) -> str:
    """``{1,4}`` for a finite set, ``~{1,4}`` for the cofinite set omitting 1 and 4."""
    return ("~" if a < 0 else "") + atom_set(fc_support(a))


def _tuple_repr(sets: tuple[int, ...]) -> str:
    inner = ", ".join(map(fc_repr, sets))
    return f"({inner},)" if len(sets) == 1 else f"({inner})"


class FCSeq(Frozen):
    """Eventually periodic sequence of finite/cofinite sets as ints, preperiod
    and period held as given."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise ValueError("period must be nonempty")
        object.__setattr__(self, "preperiod", tuple(preperiod))
        object.__setattr__(self, "period", tuple(period))

    def __repr__(self) -> str:
        return f"FCSeq(preperiod={_tuple_repr(self.preperiod)}, period={_tuple_repr(self.period)})"


def lim_alexandrov(x: FCSeq) -> Callable[[int], bool]:
    """Limit predicate for the cube whose coordinates have only {0} as a
    proper neighborhood: a coordinate at 0 in the candidate forces the
    sequence's coordinate to 0 eventually; a coordinate at 1 is unconstrained.
    """
    vals = tuple(set(x.period))
    def converges(a: int) -> bool:
        for v in vals:
            if v & ~a:
                return False
        return True

    return converges


def lim_alexandrov_dual(x: FCSeq) -> Callable[[int], bool]:
    """Dual cube ({1} is the proper neighborhood): a coordinate at 1 in the
    candidate forces the sequence's coordinate to 1 eventually."""
    vals = tuple(set(x.period))
    def converges(a: int) -> bool:
        for v in vals:
            if a & ~v:
                return False
        return True

    return converges


def lim_cantor(x: FCSeq) -> int | None:
    """Limit in the cube with discrete coordinates: every coordinate must be
    eventually constant; the limit is that coordinatewise value."""
    ls = limsup(x)
    return ls if liminf(x) == ls else None


class CubeSample:
    """Sequences packed as ``Carrier.stack`` holds relations: sequence i is
    field i of ``width + 1`` bits, a set's window bits (coordinates below
    ``width - 1``, then a generic one for all later ones) under a guard bit.
    ``slots[j]`` holds the j-th period values, a shorter period repeating its
    first; no cube limit reads a preperiod or the order.  A limit is the guard
    mask of the sequences converging to their field of the candidate stack a."""

    def __init__(self, width: int, count: int, slots: tuple[int, ...]):
        self.width, self.slots = width, slots
        self.limsup, self.liminf = reduce(or_, slots), reduce(and_, slots)
        ones = ((1 << (width + 1) * count) - 1) // ((1 << width + 1) - 1)
        self.data, self.guards = ones * ((1 << width) - 1), ones << width

    @classmethod
    def draw(cls, rng, count: int) -> CubeSample:
        """Periods of length 1 + e, e two fair bits per field, whose values are
        9 fair window bits each: coordinates 0..7 and the sign."""
        ones = ((1 << 10 * count) - 1) // 1023
        e, first, *more = (rng.getrandbits(10 * count) & ones * m for m in (3, 511, 511, 511, 511))
        reach = ((r & ones) * 511 for r in (e | e >> 1, e >> 1, e & e >> 1))  # e >= 1, 2, 3
        return cls(9, count, (first, *(v & k | first & ~k for v, k in zip(more, reach))))

    def at(self, a: int, i: int) -> int:
        """The finite or cofinite set in field i of the stack a."""
        v = a >> i * (self.width + 1) & (1 << self.width) - 1
        return v - (v >> self.width - 1 << self.width)

    def sequence(self, i: int) -> FCSeq:
        """Sequence i, its period the distinct slot values in slot order."""
        return FCSeq((), tuple(dict.fromkeys(self.at(v, i) for v in self.slots)))

    def zero(self, x: int) -> int:
        """The guard bits of the fields where x has no window bit."""
        return ((x & self.data) + self.data) & self.guards ^ self.guards

    def alexandrov(self, a: int) -> int:
        """``lim_alexandrov``: no period value leaves a."""
        return reduce(and_, (self.zero(v & ~a) for v in self.slots))

    def dual(self, a: int) -> int:
        """``lim_alexandrov_dual``: every period value holds a."""
        return reduce(and_, (self.zero(a & ~v) for v in self.slots))

    def cantor(self) -> int:
        """``lim_cantor``: the guards of the sequences with a limit, which is limsup."""
        return self.zero(self.limsup ^ self.liminf)

    def candidates(self, rng) -> list[int]:
        """liminf, limsup, their complements, empty, full, 8 of fair window bits."""
        li, ls, bits = self.liminf, self.limsup, self.guards.bit_length()
        return [li, ls, li ^ self.data, ls ^ self.data, 0, self.data] + [rng.getrandbits(bits) & self.data for _ in range(8)]


def check_T1235a(sample: CubeSample, candidates: list[int]) -> tuple[str, int, int] | None:
    """On every field and candidate stack: the Alexandrov limits are the sets
    holding limsup, the dual ones those inside liminf, both hold exactly at the
    discrete-cube limit, which exists iff every period value is the first.
    The first failure as (rule, field, candidate set), or None."""
    zero, ls, li, (first, *rest) = sample.zero, sample.limsup, sample.liminf, sample.slots
    exists, unique = sample.cantor(), reduce(and_, (zero(v ^ first) for v in rest), sample.guards)
    for a in candidates:
        alex, dual = sample.alexandrov(a), sample.dual(a)
        for rule, got, want in (
            ("limsup", alex, zero(ls & ~a)),
            ("liminf", dual, zero(a & ~li)),
            ("conjunction", alex & dual, exists & zero(a ^ ls)),
            ("unique-value", exists, unique),
        ):
            if diff := got ^ want:
                i = (diff & -diff).bit_length() // (sample.width + 1) - 1
                return rule, i, sample.at(a, i)
    return None
