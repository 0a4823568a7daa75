"""Submeasures on a finite Boolean algebra and their metric topologies.

All arithmetic is exact: ball membership at boundary radii and
subadditivity with equality must not depend on floating-point rounding.
A table is held as integers over one common denominator, mu(a) =
scaled[a] / denominator, so the axioms, the triangle inequality, the zero
distances and the balls compare integers.  ``Fraction`` appears only where a
table is given as rationals or read from a file.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from collections import namedtuple
from collections.abc import Iterable

from .algebra import Carrier, ConvlabError, check_same_carrier, echo
from .topology import Topology


# a mask and a value, as an integer or a fraction of integers, in ASCII digits
_LINE = re.compile(r"([+-]?[0-9]+)\s+([+-]?[0-9]+(?:/[0-9]+)?)", re.ASCII)
# far above a P(5) table of 32 short lines; an endless file stops here, not at memory's end
_MAX_TABLE_BYTES = 1 << 20


class SubmeasureTableError(ConvlabError):
    """The value table cannot be read, is malformed or does not cover the
    whole carrier."""

    prefix = "bad submeasure table: "


class ValidationReport(namedtuple(
    "ValidationReport",
    "zero_on_bottom monotone subadditive strictly_positive continuous continuous_note",
    defaults=("finite-trivial",),
)):
    """Outcome of the five submeasure axioms.

    ``continuous`` covers continuity along decreasing chains with meet 0; on a
    finite carrier such chains stabilize, so it reduces to vanishing at 0.
    """

    __slots__ = ()

    def is_submeasure(self) -> bool:
        return self.zero_on_bottom and self.monotone and self.subadditive


class Submeasure:
    """A total nonnegative-rational value table over the carrier, held as the
    integers ``scaled`` over the common ``denominator`` d >= 1:
    mu(a) = scaled[a] / d.  Given rationals are put over the least common
    multiple of their reduced denominators."""

    def __init__(self, carrier: Carrier, values: Iterable[Fraction]):
        from fractions import Fraction

        given = tuple(Fraction(v) for v in values)
        if len(given) != carrier.size:
            raise SubmeasureTableError(f"expected {carrier.size} values, got {len(given)}")
        if any(v < 0 for v in given):
            raise SubmeasureTableError("submeasure values must be nonnegative")
        d = math.lcm(*(v.denominator for v in given))
        self.carrier, self.denominator = carrier, d
        self.scaled = tuple(v.numerator * (d // v.denominator) for v in given)

    @classmethod
    def _of_scaled(cls, carrier: Carrier, denominator: int, scaled: tuple[int, ...]) -> "Submeasure":
        """The table scaled[a] / denominator, built without a Fraction."""
        mu = cls.__new__(cls)
        mu.carrier, mu.denominator, mu.scaled = carrier, denominator, scaled
        return mu

    @classmethod
    def counting(cls, carrier: Carrier) -> "Submeasure":
        """Normalized counting measure: |atoms| / n."""
        return cls._of_scaled(carrier, carrier.n, tuple(m.bit_count() for m in range(carrier.size)))

    @classmethod
    def truncated_cardinality(cls, carrier: Carrier) -> "Submeasure":
        """min(1, |atoms|): subadditive and monotone but not additive."""
        return cls._of_scaled(carrier, 1, tuple(min(1, m.bit_count()) for m in range(carrier.size)))

    @classmethod
    def from_file(cls, path: str, carrier: Carrier) -> "Submeasure":
        """Load a table of ``element-mask value`` lines, values as fractions.

        Each mask must appear exactly once, with a nonnegative value.
        """
        from fractions import Fraction

        values: dict[int, Fraction] = {}
        seen_at: dict[int, int] = {}
        try:
            with open(path, "rb") as fh:
                data = fh.read(_MAX_TABLE_BYTES + 1)
        except OSError as exc:
            raise SubmeasureTableError(f"{echo(path, str)}: {exc.strerror or exc}") from None
        if len(data) > _MAX_TABLE_BYTES:
            raise SubmeasureTableError(f"{path}: longer than {_MAX_TABLE_BYTES} bytes")
        try:
            text = data.decode("utf-8-sig")  # drops one leading byte-order mark
        except UnicodeDecodeError:
            raise SubmeasureTableError(f"{path}: not a UTF-8 text file") from None
        for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            # int() and Fraction() also read non-ASCII digits, "_" digit
            # separators and, Fraction() alone, decimals and unbounded exponents
            try:
                if (match := _LINE.fullmatch(line)) is None:
                    raise ValueError
                mask, value = int(match[1]), Fraction(match[2])
            except (ValueError, ZeroDivisionError):
                raise SubmeasureTableError(f"{where}: expected 'mask value', got {echo(line)}") from None
            if not 0 <= mask < carrier.size:
                raise SubmeasureTableError(
                    f"{where}: mask {mask} out of range for P({carrier.n})"
                )
            if value < 0:
                raise SubmeasureTableError(f"{where}: value {value} is negative")
            if mask in seen_at:
                raise SubmeasureTableError(
                    f"{where}: mask {mask} already given on line {seen_at[mask]}"
                )
            values[mask] = value
            seen_at[mask] = lineno
        missing = [m for m in range(carrier.size) if m not in values]
        if missing:
            raise SubmeasureTableError(
                f"{path}: table is not total, missing masks {missing}"
            )
        return cls(carrier, [values[m] for m in range(carrier.size)])


def validate_submeasure(mu: Submeasure) -> ValidationReport:
    """Exhaustive check of the submeasure axioms over the finite carrier, on
    the scaled integer table.  Monotone is tested on each point and one atom
    more, which chains to every pair a <= b; subadditive on pairs a < b, since
    the test is symmetric and holds for a = b when no value is negative."""
    v, m = mu.scaled, mu.carrier.size
    zero_on_bottom = v[0] == 0
    monotone = all(v[a] <= v[a | 1 << i] for i in range(mu.carrier.n) for a in range(m))
    subadditive = all(v[a | b] <= va + v[b] for a, va in enumerate(v) for b in range(a + 1, m))
    strictly_positive = 0 not in v[1:]
    # decreasing chains stabilize at their meet, so continuity along chains
    # with meet 0 is exactly vanishing at 0
    return ValidationReport(zero_on_bottom, monotone, subadditive, strictly_positive, continuous=zero_on_bottom)


def ball(mu: Submeasure, c: int, r: Fraction) -> int:
    """The mask of the points x at distance mu(x ^ c) below r from the point c.
    For r = p / q, an int or a Fraction, scaled[x ^ c] / d < p / q is
    compared as scaled[x ^ c] * q < p * d."""
    if not 0 <= c < mu.carrier.size:
        raise ValueError(f"point mask {c} is not a point of P({mu.carrier.n})")
    v, q, bound = mu.scaled, r.denominator, r.numerator * mu.denominator
    return sum(1 << x for x in range(mu.carrier.size) if v[x ^ c] * q < bound)


def metric_topology(mu: Submeasure) -> Topology:
    """Topology generated by all balls of the symmetric-difference
    pseudo-metric; discrete whenever mu is strictly positive.

    By the triangle inequality a ball holding a holds every point at distance
    0 from a, and a ball around a narrower than the least positive distance
    holds nothing else, so the balls generate the partition of the carrier
    into zero-distance classes: each point's class, {a ^ z : mu(z) = 0}, is
    its minimal neighbourhood.
    """
    report = validate_submeasure(mu)
    if not report.is_submeasure():
        raise SubmeasureTableError("value table violates the submeasure axioms")
    if not report.strictly_positive:
        warnings.warn(
            "submeasure is not strictly positive; the distance is only a "
            "pseudo-metric",
            stacklevel=2,
        )
    m, v = mu.carrier.size, mu.scaled
    zero = [z for z in range(m) if v[z] == 0]
    return Topology(mu.carrier, [sum(1 << (a ^ z) for z in zero) for a in range(m)])


HalfBallReport = namedtuple("HalfBallReport", "o1_open_in_left o2_open_in_right sandwich")


def halfball_opens(mu: Submeasure, c: int, r: Fraction, o_ls: Topology, o_li: Topology) -> HalfBallReport:
    """The two half-balls around the point c of radius r/2 are open in the
    given left and right sequential topologies, O_ls and O_li, and squeeze
    between c and the full ball."""
    car, v = mu.carrier, mu.scaled
    check_same_carrier(mu, o_ls)
    check_same_carrier(mu, o_li)
    disk = ball(mu, c, r)
    # scaled[y] / d < r / 2, as 2 q scaled[y] < p d
    q, bound = 2 * r.denominator, r.numerator * mu.denominator
    o1 = sum(1 << x for x in range(car.size) if v[x & ~c] * q < bound)
    o2 = sum(1 << x for x in range(car.size) if v[c & ~x] * q < bound)
    inter = o1 & o2
    return HalfBallReport(
        o1_open_in_left=o_ls.is_open_mask(o1),
        o2_open_in_right=o_li.is_open_mask(o2),
        sandwich=inter >> c & 1 == 1 and inter & ~disk == 0,
    )
