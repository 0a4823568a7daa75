"""The principal kernel against the extensional oracle.

Random (L1)/(L2) convergences at n <= 3 and the three built-in laws at n = 4
go through the kernel (singleton columns and minimal neighbourhoods) and
through full class tables or listed open sets (``tests/oracles.py``); both
must agree.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.algebra import Carrier
from convlab.convergence import (
    Convergence,
    lambda_li,
    lambda_ls,
    lambda_s,
    leq_conv,
    sos_intersection_nonempty,
    sos_union,
    star,
)
from convlab.report import DiagramNode, _conv_leq_witness
from convlab.topology import (
    first_open_not_in,
    lim_of_topology_as_convergence,
    synthesize_O_lambda,
)
from convlab.verify import _random_l12_convergence, _random_topology

from oracles import open_masks, topology_from_opens


def extensional(lam):
    """A table-form copy: every operation on it takes the table path."""
    return Convergence(lam.carrier, table=list(lam.table), name=lam.name)


def star_table(table, m):
    outer = sos_intersection_nonempty(sos_union(table, m), m)
    outer[0] = 0
    return outer


def brute_topology(lam):
    """Opens are the complements of the subsets A fixed by the closure
    A -> union of lam(S) over classes S inside A, tested subset by subset."""
    m = lam.carrier.size
    full = (1 << m) - 1
    u = sos_union(lam.table, m)
    return topology_from_opens(lam.carrier, [full ^ a for a in range(1 << m) if u[a] & ~a == 0])


def lim_table(o):
    """a is a topological limit of every nonempty class inside N(a)."""
    table = [0] * (1 << o.carrier.size)
    for a, nb in enumerate(o.min_neighborhoods):
        sub = nb
        while sub:
            table[sub] |= 1 << a
            sub = (sub - 1) & nb
    return table


def conv_size(lam):
    return DiagramNode("x", "convergence", lam).size


def topo_size(o):
    return DiagramNode("x", "topology", o).size


def check_against_oracle(lam, other):
    m = lam.carrier.size
    starred = star(lam)
    assert starred.is_principal
    assert starred.table == star_table(lam.table, m)

    topo = synthesize_O_lambda(lam)
    brute = brute_topology(lam)
    assert topo == brute
    assert topo.open_count() == topo_size(topo) == len(open_masks(brute))

    lim = lim_of_topology_as_convergence(topo)
    assert lim.is_principal
    assert lim.table == lim_table(topo)

    for conv in (starred, lim):
        assert conv_size(conv) == sum(v.bit_count() for v in conv.table)

    other_star = star(other, warn=False)
    for a, b in ((starred, other_star), (other_star, starred), (starred, lim), (lim, starred)):
        ea, eb = extensional(a), extensional(b)
        assert leq_conv(a, b) == leq_conv(ea, eb)
        assert _conv_leq_witness(a, b) == _conv_leq_witness(ea, eb)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=3), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_l12_convergences(n, seed):
    carrier = Carrier(n)
    rng = random.Random(seed)
    lam = _random_l12_convergence(carrier, rng)
    assert not lam.is_principal
    check_against_oracle(lam, _random_l12_convergence(carrier, rng))


@pytest.mark.parametrize("build", [lambda_ls, lambda_li, lambda_s])
def test_builtins_at_four_atoms(p4, build):
    lam = build(p4)
    assert lam.is_principal
    check_against_oracle(extensional(lam), lambda_s(p4))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=3), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_topologies(n, seed):
    carrier = Carrier(n)
    rng = random.Random(seed)
    o1, o2 = _random_topology(carrier, rng), _random_topology(carrier, rng)
    for o in (o1, o2):
        assert o.open_count() == len(open_masks(o))
        assert lim_of_topology_as_convergence(o).table == lim_table(o)
    assert (o1 <= o2) == (open_masks(o1) <= open_masks(o2))
    assert first_open_not_in(o1, o2) == min(open_masks(o1) - open_masks(o2), default=None)
