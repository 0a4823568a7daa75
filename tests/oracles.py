"""Reference implementations that only the tests call.

Each is a direct, element-by-element construction that the tests compare the
library's bit-mask code against: up/down sets against ``Carrier.up_masks`` and
``down_masks``, honest subsequences against the class reduction in
``convlab.seqclass``, listed opens against the minimal neighbourhoods a
``Topology`` holds, the diagram's order decided pair by pair of node names
against ``report.build_figure1``'s pairs of equality classes, and element-set
views of topologies, FC sets and submeasures.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

from convlab.algebra import Carrier, CarrierMismatchError, Element, EPSeq, complement
from convlab.convergence import _require_table_capacity
from convlab.cube import FCSet, fc_complement, fc_intersection
from convlab.report import KINDS
from convlab.seqclass import class_from_mask
from convlab.submeasure import Submeasure
from convlab.topology import Topology, generate


def _width(elems: list[Element]) -> int:
    width = elems[0].width
    if any(e.width != width for e in elems):
        raise CarrierMismatchError("mixed-width elements")
    return width


def upset(elements: Iterable[Element]) -> frozenset[Element]:
    """All carrier elements lying above some member of ``elements``."""
    elems = list(elements)
    if not elems:
        return frozenset()
    width = _width(elems)
    return frozenset(
        Element(m, width)
        for m in range(1 << width)
        if any(e.mask & m == e.mask for e in elems)
    )


def downset(elements: Iterable[Element]) -> frozenset[Element]:
    """All carrier elements lying below some member of ``elements``."""
    elems = list(elements)
    if not elems:
        return frozenset()
    width = _width(elems)
    return frozenset(
        Element(m, width)
        for m in range(1 << width)
        if any(e.mask & m == m for e in elems)
    )


def pointwise_complement(x: EPSeq) -> EPSeq:
    return EPSeq(
        tuple(complement(e) for e in x.preperiod),
        tuple(complement(e) for e in x.period),
    )


# -- concrete subsequence constructors -------------------------------------
#
# These sample the underlying infinite sequence through explicit increasing
# index maps, so the class-level reduction can be property-tested against
# honest subsequences.

def drop_prefix(x: EPSeq, k: int) -> EPSeq:
    """The subsequence x_{k}, x_{k+1}, ... (delete the first k entries)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= len(x.preperiod):
        return EPSeq(x.preperiod[k:], x.period)
    off = (k - len(x.preperiod)) % len(x.period)
    return EPSeq((), x.period[off:] + x.period[:off])


def stride(x: EPSeq, k: int) -> EPSeq:
    """The subsequence x_0, x_k, x_{2k}, ... (every k-th entry)."""
    if k < 1:
        raise ValueError("k must be positive")
    pre_len = len(x.preperiod)
    q = -(-pre_len // k)  # first j with j*k >= pre_len
    new_pre = tuple(x.value_at(j * k) for j in range(q))
    p = len(x.period)
    new_per = tuple(x.value_at((q + j) * k) for j in range(p))
    return EPSeq(new_pre, new_per)


def select_values(x: EPSeq, values: frozenset[Element]) -> EPSeq:
    """The subsequence of entries lying in ``values``.

    Realizes any target subclass: for S' a nonempty subset of inf_class(x),
    select_values(x, S'.values) is an honest subsequence with class S'.
    """
    if not values & set(x.period):
        raise ValueError("values must meet the period, or the selection is finite")
    new_pre = tuple(e for e in x.preperiod if e in values)
    new_per = tuple(e for e in x.period if e in values)
    return EPSeq(new_pre, new_per)


def all_classes(carrier: Carrier):
    """All 2^(2^n) - 1 classes in ascending characteristic-mask order."""
    for mask in range(1, 1 << carrier.size):
        yield class_from_mask(carrier, mask)


def generate_from_elements(carrier: Carrier, subbase: Iterable[Iterable[Element]]) -> Topology:
    return generate(carrier, [carrier.subset_mask(s) for s in subbase])


def open_families(topo: Topology) -> list[frozenset[Element]]:
    """Opens as element sets, in canonical (ascending mask) order."""
    return [topo.carrier.subset_from_mask(o) for o in sorted(open_masks(topo))]


@functools.cache
def open_masks(topo: Topology) -> frozenset[int]:
    """All open masks: every union of minimal neighbourhoods (up to 4 atoms)."""
    _require_table_capacity(topo.carrier)
    opens = {0}
    for b in set(topo.min_neighborhoods):
        opens |= {o | b for o in opens}
    return frozenset(opens)


def topology_from_opens(carrier: Carrier, opens: Iterable[int]) -> Topology:
    """The topology whose opens are exactly ``opens``.

    Raises ``ValueError`` unless the family contains the empty set and the
    carrier, lies inside the carrier and is closed under union and
    intersection.
    """
    family = frozenset(opens)
    if 0 not in family or (1 << carrier.size) - 1 not in family:
        raise ValueError("a topology must contain the empty set and the carrier")
    topo = generate(carrier, family)
    # Every member is the union of the minimal neighbourhoods of its points,
    # so the family lies inside the topology it generates, and equals it
    # exactly when the sizes agree.
    if len(family) != topo.open_count():
        raise ValueError("open family is not closed under union and intersection")
    return topo


def fc_difference(a: FCSet, b: FCSet) -> FCSet:
    return fc_intersection(a, fc_complement(b))


def zero_submeasure(carrier: Carrier) -> Submeasure:
    return Submeasure(carrier, [Fraction(0)] * carrier.size)


def pairwise_escapes(payloads: dict) -> dict[tuple[str, str], object]:
    """The diagram's order with one witness call per ordered pair of distinct
    node names of a kind: escape[a, b] is the witness that a is not below b,
    or None when it is."""
    return {
        (a, b): witness(payloads[a], payloads[b])
        for _, names, _, witness in KINDS
        for a in names
        for b in names
        if a != b
    }
