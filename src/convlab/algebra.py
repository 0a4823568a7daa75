"""Finite Boolean algebra carrier P(n) and eventually periodic sequences.

Elements are bit-masks over atom indices, so meet/join/complement are integer
operations; a carrier makes its up/down tables and ``Element``s on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator

MAX_ATOMS = 5


class CarrierMismatchError(ValueError):
    """Operands belong to Boolean algebras with different atom counts."""


@dataclass(frozen=True)
class Element:
    """One element of P(n): a set of atom indices packed into ``mask``."""

    mask: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("element width must be at least 1")
        if not 0 <= self.mask < (1 << self.width):
            raise ValueError(f"mask {self.mask} out of range for width {self.width}")

    @property
    def atoms(self) -> frozenset[int]:
        return frozenset(i for i in range(self.width) if self.mask >> i & 1)

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.atoms)) + "}"


def _check_same(a: Element, b: Element) -> None:
    if a.width != b.width:
        raise CarrierMismatchError(f"widths differ: {a.width} vs {b.width}")


def meet(a: Element, b: Element) -> Element:
    _check_same(a, b)
    return Element(a.mask & b.mask, a.width)


def join(a: Element, b: Element) -> Element:
    _check_same(a, b)
    return Element(a.mask | b.mask, a.width)


def complement(a: Element) -> Element:
    return Element(a.mask ^ ((1 << a.width) - 1), a.width)


def leq(a: Element, b: Element) -> bool:
    _check_same(a, b)
    return a.mask & b.mask == a.mask


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Carrier:
    """The algebra P(n), whose tables are each built on their own on first read:
    ``up_masks[p]`` = {q >= p}, the AND of the columns of p's atoms (atom i's is
    1^(2^i) 0^(2^i) repeated), and ``down_masks[p]`` = {q <= p}, of the other
    columns' complements, in O(2^n · n); the 2^n ``elements`` in ascending mask
    order, each made and kept when any accessor first asks for it."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_ATOMS:
            raise ValueError(f"atom count must be in 1..{MAX_ATOMS}, got {n}")
        self.n = n
        self.size = 1 << n
        self._made: dict[int, Element] = {}

    def _element(self, mask: int) -> Element:
        return self._made.get(mask) or self._made.setdefault(mask, Element(mask, self.n))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(map(self._element, range(self.size)))

    def _columns(self) -> list[int]:
        full = (1 << self.size) - 1
        return [full // ((1 << 2 * k) - 1) * ((1 << 2 * k) - (1 << k)) for k in (1 << i for i in range(self.n))]

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        col, up = self._columns(), [(1 << self.size) - 1] * self.size
        for p in range(1, self.size):  # p & (p - 1) drops p's lowest atom
            up[p] = up[p & (p - 1)] & col[(p & -p).bit_length() - 1]
        return tuple(up)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        col, down = self._columns(), [(1 << self.size) - 1] * self.size
        for p in range(self.size - 2, -1, -1):  # p | (p + 1) adds p's lowest missing atom
            down[p] = down[p | (p + 1)] & ~col[(~p & (p + 1)).bit_length() - 1]
        return tuple(down)

    @property
    def bottom(self) -> Element:
        return self._element(0)

    @property
    def top(self) -> Element:
        return self._element(self.size - 1)

    def element(self, atoms: Iterable[int]) -> Element:
        mask = 0
        for i in atoms:
            if not 0 <= i < self.n:
                raise ValueError(f"atom index {i} out of range for P({self.n})")
            mask |= 1 << i
        return self._element(mask)

    def subset_mask(self, elems: Iterable[Element]) -> int:
        """Pack a set of elements into a carrier-subset bit-mask."""
        mask = 0
        for e in elems:
            if e.width != self.n:
                raise CarrierMismatchError(f"element width {e.width} != {self.n}")
            mask |= 1 << e.mask
        return mask

    def subset_from_mask(self, mask: int) -> frozenset[Element]:
        """Unpack a carrier-subset bit-mask, one step per set bit; raises
        ``ValueError`` unless 0 <= mask < 2^(2^n)."""
        if not 0 <= mask < 1 << self.size:
            raise ValueError(f"mask {mask} is not a subset of P({self.n})")
        return frozenset(map(self._element, iter_bits(mask)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Carrier) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Carrier", self.n))

    def __repr__(self) -> str:
        return f"Carrier(P({self.n}))"


def canonical_period(period: tuple, key: Callable) -> tuple:
    """The shortest repeating block of period, rotated so that the tuple of
    its entries' keys is least.  Each entry's key is computed once."""
    n = len(period)
    d = next(d for d in range(1, n + 1) if n % d == 0 and period == period[:d] * (n // d))
    keys = tuple(key(e) for e in period[:d])
    i = min(range(d), key=lambda i: keys[i:] + keys[:i])
    return period[i:d] + period[:i]


@dataclass(frozen=True)
class EPSeq:
    """Eventually periodic sequence: finite preperiod then a repeating period.

    The period is stored in canonical form: shortest repeating block, rotated
    to its lexicographically least rotation.  Canonicalization preserves the
    set of infinitely occurring values, which is all any consumer depends on.
    """

    preperiod: tuple[Element, ...]
    period: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        width = self.period[0].width
        for e in self.preperiod + self.period:
            if e.width != width:
                raise CarrierMismatchError("mixed-width entries in sequence")
        canon = canonical_period(tuple(self.period), lambda e: e.mask)
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", canon)

    @property
    def width(self) -> int:
        return self.period[0].width

    def value_at(self, i: int) -> Element:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]


def liminf(x: EPSeq) -> Element:
    """Largest element below all but finitely many entries: meet of the period."""
    return reduce(meet, set(x.period))


def limsup(x: EPSeq) -> Element:
    """Smallest element above infinitely many entries: join of the period."""
    return reduce(join, set(x.period))
