"""The product law: P(n) is the n-fold product of P(1), every diagram node
on P(n) is the n-fold power of its node on P(1), and synthesis, transpose,
meets, joins and the limit operator commute with the product of relations,
which preserves and reflects both orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.algebra import MAX_ATOMS, Carrier
from convlab.convergence import Convergence, leq_conv, meet_conv
from convlab.report import figure_nodes
from convlab.topology import Topology, join_topologies, lim_of_topology_as_convergence, synthesize_O_lambda

from oracles import P1_NODES, power_rows, product_rows


def rows(payload) -> list[int]:
    """A node's relation: a convergence's columns, a topology's neighbourhoods."""
    if isinstance(payload, Convergence):
        assert payload.exceptions == ()
        return list(payload.lim1)
    return list(payload.min_neighborhoods)


@pytest.mark.parametrize("n", range(1, MAX_ATOMS + 1))
def test_every_node_is_the_power_of_its_node_on_p1(n):
    nodes = figure_nodes(Carrier(n))
    assert nodes.keys() == P1_NODES.keys()
    for name, table in P1_NODES.items():
        assert rows(nodes[name]) == power_rows(table, n), name


def test_product_of_points():
    # the identity times the swap: row p holds p with its atom 1 flipped
    assert product_rows([0b01, 0b10], [0b10, 0b01]) == [0b0100, 0b1000, 0b0001, 0b0010]


def reflexive(draw, n: int) -> list[int]:
    """A reflexive relation on P(n), as rows."""
    m = 1 << n
    return [draw(st.integers(0, (1 << m) - 1)) | 1 << p for p in range(m)]


@st.composite
def reflexive_pairs(draw):
    """Reflexive relations on P(a) and P(b), a + b <= 4, as rows."""
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 4 - a))
    return reflexive(draw, a), reflexive(draw, b)


def carrier_of(rows: list[int]) -> Carrier:
    return Carrier(len(rows).bit_length() - 1)


def convergence(rows: list[int]) -> Convergence:
    return Convergence(carrier_of(rows), lim1=rows)


def topology(rows: list[int]) -> Topology:
    return Topology(carrier_of(rows), rows)


def o_lambda(relation: list[int]) -> list[int]:
    return list(synthesize_O_lambda(convergence(relation)).min_neighborhoods)


def another(draw, rows: list[int]) -> list[int]:
    """A second reflexive relation on the points of rows: drawn on its own,
    or rows widened by one, so that rows <= it holds about half the time."""
    other = reflexive(draw, len(rows).bit_length() - 1)
    return [r | o for r, o in zip(rows, other)] if draw(st.booleans()) else other


@settings(max_examples=150, deadline=None)
@given(reflexive_pairs())
def test_synthesis_commutes_with_the_product(pair):
    lam, mu = pair
    assert o_lambda(product_rows(lam, mu)) == product_rows(o_lambda(lam), o_lambda(mu))


@settings(max_examples=100, deadline=None)
@given(reflexive_pairs())
def test_transpose_commutes_with_the_product(pair):
    def transposed(rows: list[int]) -> list[int]:
        carrier = carrier_of(rows)
        return carrier.unpack(carrier.transpose(carrier.pack(rows)))

    lam, mu = pair
    assert transposed(product_rows(lam, mu)) == product_rows(transposed(lam), transposed(mu))


@settings(max_examples=100, deadline=None)
@given(reflexive_pairs(), st.data())
def test_meet_commutes_with_the_product(pair, data):
    lam, mu = pair
    lam2, mu2 = another(data.draw, lam), another(data.draw, mu)

    def met(r: list[int], s: list[int]) -> list[int]:
        meet = meet_conv(convergence(r), convergence(s))
        assert meet.exceptions == ()
        return list(meet.lim1)

    assert met(product_rows(lam, mu), product_rows(lam2, mu2)) == product_rows(met(lam, lam2), met(mu, mu2))


@settings(max_examples=100, deadline=None)
@given(reflexive_pairs(), st.data())
def test_join_of_topologies_commutes_with_the_product(pair, data):
    lam, mu = pair
    o, p = o_lambda(lam), o_lambda(mu)
    o2, p2 = o_lambda(another(data.draw, lam)), o_lambda(another(data.draw, mu))

    def joined(r: list[int], s: list[int]) -> list[int]:
        return list(join_topologies(topology(r), topology(s)).min_neighborhoods)

    assert joined(product_rows(o, p), product_rows(o2, p2)) == product_rows(joined(o, o2), joined(p, p2))


@settings(max_examples=100, deadline=None)
@given(reflexive_pairs())
def test_limit_operator_commutes_with_the_product(pair):
    def limits(rows: list[int]) -> list[int]:
        lim = lim_of_topology_as_convergence(topology(rows))
        assert lim.exceptions == ()
        return list(lim.lim1)

    o, p = (o_lambda(rows) for rows in pair)
    assert limits(product_rows(o, p)) == product_rows(limits(o), limits(p))


# A product of nonempty rows holds another iff each factor holds its own, and
# reflexive rows are nonempty, so the product preserves and reflects both orders.
@settings(max_examples=150, deadline=None)
@given(reflexive_pairs(), st.data())
def test_product_preserves_and_reflects_the_convergence_order(pair, data):
    lam, mu = pair
    lam2, mu2 = another(data.draw, lam), another(data.draw, mu)
    product, product2 = convergence(product_rows(lam, mu)), convergence(product_rows(lam2, mu2))
    factors = leq_conv(convergence(lam), convergence(lam2)) and leq_conv(convergence(mu), convergence(mu2))
    assert leq_conv(product, product2) == factors


@settings(max_examples=150, deadline=None)
@given(reflexive_pairs(), st.data())
def test_product_preserves_and_reflects_the_topology_order(pair, data):
    lam, mu = pair
    o, p = o_lambda(lam), o_lambda(mu)
    o2, p2 = o_lambda(another(data.draw, lam)), o_lambda(another(data.draw, mu))
    if data.draw(st.booleans()):  # a finer topology on each side
        o2 = list(join_topologies(topology(o), topology(o2)).min_neighborhoods)
        p2 = list(join_topologies(topology(p), topology(p2)).min_neighborhoods)
    factors = topology(o) <= topology(o2) and topology(p) <= topology(p2)
    assert (topology(product_rows(o, p)) <= topology(product_rows(o2, p2))) == factors
