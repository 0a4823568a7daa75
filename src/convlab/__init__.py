"""Convergence structures, sequential topologies and submeasure metrics on
finite Boolean algebras and the finite-cofinite model of the powerset of the
naturals."""

from .algebra import (
    Carrier,
    CarrierMismatchError,
    EPSeq,
    liminf,
    limsup,
)
from .convergence import (
    ClosureAxiomError,
    Convergence,
    check_hbar,
    check_L1,
    check_L2,
    lambda_li,
    lambda_ls,
    lambda_s,
    leq_conv,
    meet_conv,
    star,
)
from .seqclass import InfClass, inf_class, representative, subsequence_classes

# read from the topology module on first use, so that importing convlab, as
# every CLI process does, does not load the topology layer
_TOPOLOGY_NAMES = {
    "Topology",
    "generate",
    "is_sequential",
    "join_topologies",
    "lim_of_topology_as_convergence",
    "lim_topo",
    "space_properties",
    "synthesize_O_lambda",
}


def __getattr__(name: str):
    if name in _TOPOLOGY_NAMES:
        from . import topology

        return getattr(topology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Carrier",
    "CarrierMismatchError",
    "ClosureAxiomError",
    "Convergence",
    "EPSeq",
    "InfClass",
    "Topology",
    "check_L1",
    "check_L2",
    "check_hbar",
    "generate",
    "inf_class",
    "is_sequential",
    "join_topologies",
    "lambda_li",
    "lambda_ls",
    "lambda_s",
    "leq_conv",
    "lim_of_topology_as_convergence",
    "lim_topo",
    "liminf",
    "limsup",
    "meet_conv",
    "representative",
    "space_properties",
    "star",
    "subsequence_classes",
    "synthesize_O_lambda",
]

__version__ = "0.1.0"
