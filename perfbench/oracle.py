"""Independent answers for `converge`-style queries.

This module imports nothing from convlab on purpose: it is the reference the
query-mix workload checks convlab against. Elements of P(n) are atom-set
bit-masks; a sequence's infinitely occurring values are its period entries.
"""

from __future__ import annotations

from functools import reduce


def expected_limits(n: int, law: str, period: list[int]) -> list[int]:
    """Ascending masks of the limits of a sequence with the given period.

    liminf is the intersection and limsup the union of the period's atom
    sets. ls: everything above limsup. li: everything below liminf.
    s: the single value when the period has one distinct value, else nothing.
    """
    if law == "ls":
        limsup = reduce(lambda a, b: a | b, period)
        return [m for m in range(1 << n) if m & limsup == limsup]
    if law == "li":
        liminf = reduce(lambda a, b: a & b, period)
        return [m for m in range(1 << n) if m & ~liminf == 0]
    if law == "s":
        distinct = set(period)
        return sorted(distinct) if len(distinct) == 1 else []
    raise ValueError(f"unknown law {law!r}")
