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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .algebra import canonical_period, iter_bits

FC_EMPTY = 0
FC_FULL = -1


def fc_finite(items: Iterable[int]) -> int:
    bits = 0
    for i in items:
        if i < 0:
            raise ValueError("supports are sets of naturals")
        bits |= 1 << i
    return bits


def fc_cofinite(excluded: Iterable[int]) -> int:
    return ~fc_finite(excluded)


def fc_support(a: int) -> int:
    """The support mask: the set itself when finite, its complement when cofinite."""
    return ~a if a < 0 else a


def fc_repr(a: int) -> str:
    """``{1,4}`` for a finite set, ``~{1,4}`` for the cofinite set omitting 1 and 4."""
    inner = ",".join(map(str, iter_bits(fc_support(a))))
    return f"~{{{inner}}}" if a < 0 else f"{{{inner}}}"


def _tuple_repr(sets: tuple[int, ...]) -> str:
    inner = ", ".join(map(fc_repr, sets))
    return f"({inner},)" if len(sets) == 1 else f"({inner})"


@dataclass(frozen=True, repr=False, slots=True)
class FCSeq:
    """Eventually periodic sequence of finite/cofinite sets, the period at its
    least rotation as ints; ``support`` is the union of its entries' supports."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    support: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", canonical_period(tuple(self.period), int))
        support = 0
        for v in self.preperiod + self.period:
            support |= fc_support(v)
        object.__setattr__(self, "support", support)

    def __repr__(self) -> str:
        return f"FCSeq(preperiod={_tuple_repr(self.preperiod)}, period={_tuple_repr(self.period)})"


def fc_liminf(x: FCSeq) -> int:
    """Points belonging to all but finitely many entries."""
    out = FC_FULL
    for v in x.period:
        out &= v
    return out


def fc_limsup(x: FCSeq) -> int:
    """Points belonging to infinitely many entries."""
    out = FC_EMPTY
    for v in x.period:
        out |= v
    return out


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


def lim_cantor(x: FCSeq) -> Optional[int]:
    """Limit in the cube with discrete coordinates: every coordinate must be
    eventually constant; the limit is that coordinatewise value."""
    limsup = fc_limsup(x)
    return limsup if fc_liminf(x) == limsup else None


def candidate_limits(x: FCSeq, rng) -> list[int]:
    """A candidate pool for predicate sweeps: six structured candidates derived
    from the sequence, then eight seeded random finite/cofinite sets, each one
    draw masked to the window (the support plus the generic coordinate just
    beyond it, which stands for all later ones) and one bit for its sign."""
    li, ls = fc_liminf(x), fc_limsup(x)
    pool = [li, ls, ~li, ~ls, FC_EMPTY, FC_FULL]
    window = x.support | 1 << x.support.bit_length()
    for _ in range(8):
        bits = rng.getrandbits(window.bit_length()) & window
        pool.append(~bits if rng.getrandbits(1) else bits)
    return pool


def check_T1235a(sample: list[FCSeq], pools: list[list[int]]) -> bool:
    """The conjunction of the two half-open cube predicates characterizes
    exactly the discrete-cube limit, over each sequence's candidate pool
    (``pools[i]`` for ``sample[i]``)."""
    for x, pool in zip(sample, pools, strict=True):
        alex = lim_alexandrov(x)
        dual = lim_alexandrov_dual(x)
        cantor = lim_cantor(x)
        for a in pool:
            if (alex(a) and dual(a)) != (cantor == a):
                return False
    return True
