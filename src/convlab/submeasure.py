"""Submeasures on a finite Boolean algebra and their metric topologies.

All arithmetic is exact (fractions): ball membership at boundary radii must
not depend on floating-point rounding.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Carrier, Element
from .report import figure_nodes
from .topology import Topology, generate


# a mask and a value, as an integer or a fraction of integers, in ASCII digits
_LINE = re.compile(r"([+-]?[0-9]+)\s+([+-]?[0-9]+(?:/[0-9]+)?)", re.ASCII)


class SubmeasureTableError(ValueError):
    """The value table is malformed or does not cover the whole carrier."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the five submeasure axioms.

    ``continuous`` covers continuity along decreasing chains with meet 0; on a
    finite carrier such chains stabilize, so it reduces to vanishing at 0.
    """

    zero_on_bottom: bool
    monotone: bool
    subadditive: bool
    strictly_positive: bool
    continuous: bool
    continuous_note: str = "finite-trivial"

    def is_submeasure(self) -> bool:
        return self.zero_on_bottom and self.monotone and self.subadditive


class Submeasure:
    """A total nonnegative-rational value table over the carrier."""

    def __init__(self, carrier: Carrier, values: Iterable[Fraction]):
        self.carrier = carrier
        self.values = tuple(Fraction(v) for v in values)
        if len(self.values) != carrier.size:
            raise SubmeasureTableError(
                f"expected {carrier.size} values, got {len(self.values)}"
            )
        if any(v < 0 for v in self.values):
            raise SubmeasureTableError("submeasure values must be nonnegative")

    def __call__(self, a: Element) -> Fraction:
        return self.values[a.mask]

    def distance(self, a: Element, b: Element) -> Fraction:
        """mu of the symmetric difference; a pseudo-metric in general."""
        return self.values[a.mask ^ b.mask]

    @classmethod
    def counting(cls, carrier: Carrier) -> "Submeasure":
        """Normalized counting measure: |atoms| / n."""
        return cls(
            carrier,
            [Fraction(m.bit_count(), carrier.n) for m in range(carrier.size)],
        )

    @classmethod
    def truncated_cardinality(cls, carrier: Carrier) -> "Submeasure":
        """min(1, |atoms|): subadditive and monotone but not additive."""
        return cls(carrier, [Fraction(min(1, m.bit_count())) for m in range(carrier.size)])

    @classmethod
    def from_file(cls, path: str, carrier: Carrier) -> "Submeasure":
        """Load a table of ``element-mask value`` lines, values as fractions.

        Each mask must appear exactly once, with a nonnegative value.
        """
        values: dict[int, Fraction] = {}
        seen_at: dict[int, int] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError:
            raise SubmeasureTableError(f"{path}: not a UTF-8 text file") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            malformed = SubmeasureTableError(f"{where}: expected 'mask value', got {line!r}")
            # int() and Fraction() also read non-ASCII digits, "_" digit
            # separators and, Fraction() alone, decimals and unbounded exponents
            match = _LINE.fullmatch(line)
            if match is None:
                raise malformed
            try:
                mask, value = int(match[1]), Fraction(match[2])
            except (ValueError, ZeroDivisionError):
                raise malformed from None
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
    """Exhaustive check of the submeasure axioms over the finite carrier."""
    car = mu.carrier
    m = car.size
    v = mu.values
    zero_on_bottom = v[0] == 0
    monotone = all(v[a] <= v[b] for a in range(m) for b in range(m) if a & b == a)
    subadditive = all(v[a | b] <= v[a] + v[b] for a in range(m) for b in range(m))
    strictly_positive = all(v[a] > 0 for a in range(1, m))
    # decreasing chains stabilize at their meet, so continuity along chains
    # with meet 0 is exactly vanishing at 0
    return ValidationReport(zero_on_bottom, monotone, subadditive, strictly_positive, continuous=zero_on_bottom)


def ball(mu: Submeasure, a: Element, r: Fraction) -> frozenset[Element]:
    return frozenset(
        x for x in mu.carrier.elements if mu.distance(x, a) < r
    )


def metric_topology(mu: Submeasure) -> Topology:
    """Topology generated by all balls of the symmetric-difference
    pseudo-metric; discrete whenever mu is strictly positive.

    By the triangle inequality a ball holding a holds every point at distance
    0 from a, and a ball around a narrower than the least positive distance
    holds nothing else, so the balls generate the partition of the carrier
    into zero-distance classes.
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
    car = mu.carrier
    m = car.size
    return generate(
        car, [sum(1 << x for x in range(m) if mu.values[a ^ x] == 0) for a in range(m)]
    )


@dataclass(frozen=True)
class HalfBallReport:
    o1_open_in_left: bool
    o2_open_in_right: bool
    sandwich: bool


def check_halfball_opens(mu: Submeasure, a: Element, r: Fraction) -> HalfBallReport:
    """The two half-balls around a of radius r/2 are open in the left/right
    sequential topologies and squeeze between a and the full ball."""
    car = mu.carrier
    half = Fraction(r) / 2
    o1 = frozenset(
        x for x in car.elements if mu.values[x.mask & ~a.mask] < half
    )
    o2 = frozenset(
        x for x in car.elements if mu.values[a.mask & ~x.mask] < half
    )
    nodes = figure_nodes(car)
    inter = o1 & o2
    b = ball(mu, a, Fraction(r))
    return HalfBallReport(
        o1_open_in_left=nodes["O_ls"].is_open(o1),
        o2_open_in_right=nodes["O_li"].is_open(o2),
        sandwich=(a in inter) and inter <= b,
    )
