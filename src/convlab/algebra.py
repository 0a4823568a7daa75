"""Finite Boolean algebra carrier P(n) and eventually periodic sequences.

A point of P(n) is a set of atom indices packed into an int mask, so meet,
join and complement are ``&``, ``|`` and ``^`` from the parser to the printer;
a carrier makes its packed order tables on first read.  ``Element`` is only
what a limit query returns.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property, reduce
from operator import and_, attrgetter, or_

MAX_ATOMS = 5
# in every field of a stack: bit 0 of each lane, lane 0, the diagonal, Carrier._swaps, the data bits and the guard
StackMasks = namedtuple("StackMasks", "ones lane0 diagonal swaps data guards")


class ConvlabError(ValueError):
    """Input that convlab refuses: the command line exits 2 with ``prefix`` and the message."""

    prefix = ""


class CarrierMismatchError(ValueError):
    """Operands belong to Boolean algebras with different atom counts."""


class Frozen:
    """Base of the immutable slotted value types: an instance equals only an
    instance of its own class with equal fields, hashes as the tuple of its
    fields, and assigning or deleting a field raises ``AttributeError``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)  # an attrgetter binds no self: call self._fields(self)

    def __eq__(self, other: object) -> bool:
        return self._fields(self) == other._fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def check_same_carrier(a, b) -> None:
    """Raise ``CarrierMismatchError`` unless a and b live on one carrier."""
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise CarrierMismatchError("operands live on different carriers")


def atom_set(mask: int) -> str:
    """The atoms of ``mask`` as ``{i,j,...}``, ascending."""
    return "{" + ",".join(map(str, iter_bits(mask))) + "}"


class Element(Frozen):
    """A limit of a limit query: the point of P(width) with atom set ``mask``."""

    __slots__ = ("mask", "width")

    def __init__(self, mask: int, width: int):
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "width", width)

    def __repr__(self) -> str:
        return atom_set(self.mask)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Carrier:
    """The algebra P(n).  A relation on the points, row p a mask, packs into
    one int whose bit p·2^n + q holds "q in row p": ``pack``, ``unpack``, and
    ``transpose`` in n big-int steps, also on a stack of k relations, which
    holds relation i in field i, 4^n data bits under a guard bit that every
    stack operation leaves 0 (``stacked``, ``stack``); ``escape_diagonals``
    tests every field of one k-field stack against every field of another,
    one offset at a time.  The order is held so, each table built on its own
    on first read: ``up_lanes``, row p = {q >= p}, and ``down_lanes``, row
    p = {q <= p}.  Their rows ``up_masks`` and ``down_masks`` are made on
    first read."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_ATOMS:
            raise ValueError(f"atom count must be in 1..{MAX_ATOMS}, got {n}")
        self.n = n
        self.size = 1 << n
        self._stacks: dict[int, StackMasks] = {}

    def _columns(self) -> list[int]:
        full = (1 << self.size) - 1
        return [full // ((1 << 2 * k) - 1) * ((1 << 2 * k) - (1 << k)) for k in (1 << i for i in range(self.n))]

    @cached_property
    def lane_ones(self) -> int:  # bit 0 of every lane, so (lanes >> q) & lane_ones is column q
        return ((1 << self.size**2) - 1) // ((1 << self.size) - 1)

    @cached_property
    def lane_diagonal(self) -> int:  # bit p of lane p, for every point p
        return ((1 << self.size * (self.size + 1)) - 1) // ((2 << self.size) - 1)

    @cached_property
    def _swaps(self) -> list[tuple[int, int]]:
        """Per atom i, with j = 2^i: a mask of bit q in lane p for p without and q
        with atom i, and the shift j(2^n - 1) from there to bit q - j of lane p + j."""
        m = self.size
        return [(j * (m - 1), self.pack([0 if p & j else col for p in range(m)]))
                for j, col in zip((1 << i for i in range(self.n)), self._columns())]

    def stacked(self, k: int) -> StackMasks:
        """The masks of a stack of k relations, made once per k: field i starts
        at bit (4^n + 1)·i, its 4^n data bits under a guard bit."""
        if (masks := self._stacks.get(k)) is None:
            w = self.size**2
            fields = ((1 << (w + 1) * k) - 1) // ((2 << w) - 1)  # bit 0 of each field
            ones, lane0, diagonal = self.lane_ones * fields, (fields << self.size) - fields, self.lane_diagonal * fields
            swaps, guards = [(shift, mask * fields) for shift, mask in self._swaps], fields << w
            masks = self._stacks[k] = StackMasks(ones, lane0, diagonal, swaps, guards - fields, guards)
        return masks

    def stack(self, relations: Sequence[int]) -> int:
        stride = self.stacked(1).guards.bit_length()  # one field's data and the guard on top
        return sum(lanes << i * stride for i, lanes in enumerate(relations))

    def pack(self, rows: Sequence[int]) -> int:
        """Row p in lane p; each row must lie in 0..2^(2^n) - 1."""
        lanes = 0
        for row in reversed(rows):
            lanes = lanes << self.size | row
        return lanes

    def unpack(self, lanes: int) -> list[int]:
        return [lanes >> p * self.size & (1 << self.size) - 1 for p in range(self.size)]

    def transpose(self, lanes: int, k: int = 1) -> int:
        """Row q becomes {p : q in row p} in each of k stacked relations: per
        atom, one delta swap of the blocks."""
        for shift, mask in self.stacked(k).swaps:
            moved = (lanes ^ lanes >> shift) & mask
            lanes ^= moved | moved << shift
        return lanes

    def escape_diagonals(self, xs: int, rs: int, k: int) -> Iterator[int]:
        """For each offset s = 0..k - 1, the guard word of two k-field stacks
        with guard j set iff field j of xs escapes field (j + s) mod k of rs,
        x & ~r != 0.  rs is complemented once in its data bits and laid twice
        in a row; shifted down s fields and ANDed with xs, each field plus its
        data bits carries into its own guard iff nonzero."""
        masks, stride = self.stacked(k), self.stacked(1).guards.bit_length()
        outside = masks.data ^ rs
        outside |= outside << k * stride
        for s in range(k):
            yield ((xs & outside >> s * stride) + masks.data) & masks.guards

    @cached_property
    def up_lanes(self) -> int:
        """Lane 0 is every point; step i copies lanes 0..2^i - 1 up 2^i lanes,
        ANDed with atom i's column, so lane p is the AND of its atoms' columns."""
        m, lanes = self.size, (1 << self.size) - 1
        for i, col in enumerate(self._columns()):
            lanes |= lanes << (m << i) & col * self.lane_ones
        return lanes

    @cached_property
    def down_lanes(self) -> int:
        """The top lane is every point; step i copies the top 2^i lanes down
        2^i lanes, ANDed with the complement of atom i's column."""
        m, full = self.size, (1 << self.size) - 1
        lanes = full << (m - 1) * m
        for i, col in enumerate(self._columns()):
            lanes |= lanes >> (m << i) & (full ^ col) * self.lane_ones
        return lanes

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        return tuple(self.unpack(self.up_lanes))

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return tuple(self.unpack(self.down_lanes))

    def subset_from_mask(self, mask: int) -> frozenset[Element]:
        """Unpack a carrier-subset bit-mask, one step per set bit; raises
        ``ValueError`` unless 0 <= mask < 2^(2^n)."""
        if not 0 <= mask < 1 << self.size:
            raise ValueError(f"mask {mask} is not a subset of P({self.n})")
        return frozenset(Element(p, self.n) for p in iter_bits(mask))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Carrier) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Carrier", self.n))

    def __repr__(self) -> str:
        return f"Carrier(P({self.n}))"


class EPSeq(Frozen):
    """Eventually periodic sequence of points of P(width), each a mask: a
    finite preperiod, then a repeating period.

    Every entry must lie in 0..2^width - 1.  Preperiod and period are held as
    given, so equality follows the spelling; every consumer reads only the set
    of period values.
    """

    __slots__ = ("preperiod", "period", "width")

    def __init__(self, preperiod: Sequence[int], period: Sequence[int], width: int):
        if not period:
            raise ValueError("period must be nonempty")
        if width < 1:
            raise ValueError("sequence width must be at least 1")
        pre, per = tuple(preperiod), tuple(period)
        for mask in (min(pre + per), max(pre + per)):
            if not 0 <= mask < 1 << width:
                raise ValueError(f"mask {mask} out of range for width {width}")
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        object.__setattr__(self, "width", width)

    def __repr__(self) -> str:
        return f"EPSeq(preperiod={self.preperiod!r}, period={self.period!r}, width={self.width!r})"


def liminf(x: EPSeq) -> int:
    """Largest point below all but finitely many entries: meet of the period.
    Only ``x.period`` is read, so a ``cube.FCSeq`` serves as well."""
    return reduce(and_, x.period)


def limsup(x: EPSeq) -> int:
    """Smallest point above infinitely many entries: join of the period.
    Only ``x.period`` is read, so a ``cube.FCSeq`` serves as well."""
    return reduce(or_, x.period)
