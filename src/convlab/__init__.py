"""Convergence structures, sequential topologies and submeasure metrics on
finite Boolean algebras and the finite-cofinite model of the powerset of the
naturals."""

from .algebra import (
    Carrier,
    CarrierMismatchError,
    Element,
    EPSeq,
    complement,
    join,
    leq,
    liminf,
    limsup,
    meet,
)
from .convergence import (
    ClosureAxiomError,
    Convergence,
    SweepCapacityError,
    check_hbar,
    check_L1,
    check_L2,
    check_L3,
    is_hausdorff,
    lambda_li,
    lambda_ls,
    lambda_s,
    leq_conv,
    meet_conv,
    star,
)
from .seqclass import InfClass, inf_class, representative, subsequence_classes
from .topology import (
    Topology,
    generate,
    is_sequential,
    join_topologies,
    lim_of_topology_as_convergence,
    lim_topo,
    space_properties,
    synthesize_O_lambda,
)

__all__ = [
    "Carrier",
    "CarrierMismatchError",
    "ClosureAxiomError",
    "Convergence",
    "EPSeq",
    "Element",
    "InfClass",
    "SweepCapacityError",
    "Topology",
    "check_L1",
    "check_L2",
    "check_L3",
    "check_hbar",
    "complement",
    "generate",
    "inf_class",
    "is_hausdorff",
    "is_sequential",
    "join",
    "join_topologies",
    "lambda_li",
    "lambda_ls",
    "lambda_s",
    "leq",
    "leq_conv",
    "lim_of_topology_as_convergence",
    "lim_topo",
    "liminf",
    "limsup",
    "meet",
    "meet_conv",
    "representative",
    "space_properties",
    "star",
    "subsequence_classes",
    "synthesize_O_lambda",
]

__version__ = "0.1.0"
