"""The product law: P(n) is the n-fold product of P(1), every diagram node
on P(n) is the n-fold power of its node on P(1), and synthesis commutes with
the product of relations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.algebra import MAX_ATOMS, Carrier
from convlab.convergence import Convergence
from convlab.report import figure_nodes
from convlab.topology import synthesize_O_lambda

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


@st.composite
def reflexive_pairs(draw):
    """Reflexive relations on P(a) and P(b), a + b <= 4, as rows."""
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 4 - a))

    def relation(n: int) -> list[int]:
        m = 1 << n
        return [draw(st.integers(0, (1 << m) - 1)) | 1 << p for p in range(m)]

    return relation(a), relation(b)


def o_lambda(relation: list[int]) -> list[int]:
    carrier = Carrier(len(relation).bit_length() - 1)
    return list(synthesize_O_lambda(Convergence(carrier, lim1=relation)).min_neighborhoods)


@settings(max_examples=150, deadline=None)
@given(reflexive_pairs())
def test_synthesis_commutes_with_the_product(pair):
    lam, mu = pair
    assert o_lambda(product_rows(lam, mu)) == product_rows(o_lambda(lam), o_lambda(mu))
