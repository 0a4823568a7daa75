"""Diagram reconstruction: compute every convergence and topology node on a
carrier, their order relations with strictness witnesses, and emit DOT, JSON,
or a text table.

``figure_nodes`` is the one builder of the nodes, by name: ``build_figure1``,
``verify.VerifyContext`` and ``submeasure.check_halfball_opens`` read them
from it.

The order is decided once per ordered pair of equality classes: each kind's
nodes are grouped by payload, a witness that one class is not below another
is computed on their first names, and a pair inside one class has none.
Relations and the Hasse edges are read from that table, and so are the
relations the theory asserts, rows of ``REQUIRED`` and ``MEET_IDENTITIES``;
a violation aborts with a witness rather than a silently wrong diagram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product
from typing import Optional, Union

from .algebra import Carrier, Element, iter_bits
from .convergence import (
    Convergence, first_difference, first_escape, lambda_li, lambda_ls, lambda_s, meet_conv, star,
)
from .seqclass import InfClass
from .topology import (
    Topology,
    first_open_not_in,
    is_sequential,
    join_topologies,
    lim_of_topology_as_convergence,
    synthesize_O_lambda,
)


class RelationViolation(RuntimeError):
    """A relation required by the theory failed on the computed payloads."""

    def __init__(self, message: str, witness: Optional[str] = None):
        super().__init__(message if witness is None else f"{message} (witness: {witness})")
        self.witness = witness


CONVERGENCE_NODES = (
    "lambda_ls",
    "lambda_li",
    "lambda_s",
    "lambda_ls_star",
    "lambda_li_star",
    "lambda_s_star",
    "lim_O_ls",
    "lim_O_li",
    "lim_O_s",
    "lim_O_lsi",
)

TOPOLOGY_NODES = ("O_ls", "O_li", "O_s", "O_lsi")

# The relations the theory asserts, (a, rel, b) with rel "<=", "<" or "=";
# on topologies "<=" is inclusion of the opens.  Checked in this order.
REQUIRED = (
    ("lambda_s", "<", "lambda_ls"),
    ("lambda_s", "<", "lambda_li"),
    ("lambda_s_star", "<", "lambda_ls_star"),
    ("lambda_s_star", "<", "lambda_li_star"),
    ("lim_O_lsi", "<", "lim_O_ls"),
    ("lim_O_lsi", "<", "lim_O_li"),
    # star extends
    ("lambda_ls", "<=", "lambda_ls_star"),
    ("lambda_li", "<=", "lambda_li_star"),
    ("lambda_s", "<=", "lambda_s_star"),
    # star against topological limits: equal at this scale, but the general
    # theory only promises <= for the one-sided laws
    ("lambda_ls_star", "<=", "lim_O_ls"),
    ("lambda_li_star", "<=", "lim_O_li"),
    ("lambda_s_star", "=", "lim_O_s"),
    ("O_ls", "<=", "O_s"),
    ("O_li", "<=", "O_s"),
    ("O_lsi", "<=", "O_s"),
    ("O_ls", "<", "O_lsi"),
    ("O_li", "<", "O_lsi"),
)

# (a, b, c): the pointwise meet of a and b is c.  Checked before REQUIRED; a
# failure names the least class on which the meet and c differ.
MEET_IDENTITIES = (
    ("lambda_ls", "lambda_li", "lambda_s"),
    ("lambda_ls_star", "lambda_li_star", "lambda_s_star"),
    ("lim_O_ls", "lim_O_li", "lim_O_lsi"),
)


@dataclass(frozen=True)
class DiagramNode:
    name: str
    kind: str  # "convergence" | "topology"
    payload: Union[Convergence, Topology]

    @cached_property
    def size(self) -> int:
        if self.kind == "topology":
            return self.payload.open_count()
        return self.payload.limit_count()


@dataclass(frozen=True)
class Relation:
    lhs: str
    rhs: str
    rel: str  # "<=" | "subset"
    strict: bool
    witness: Optional[str] = None


@dataclass
class DiagramReport:
    carrier: Carrier
    nodes: list[DiagramNode] = field(default_factory=list)
    relations: list[Relation] = field(default_factory=list)
    equality_classes: dict[str, list[list[str]]] = field(default_factory=dict)
    collapse: dict[str, int] = field(default_factory=dict)


def _conv_leq_witness(a: Convergence, b: Convergence) -> Optional[str]:
    """First class (in mask order) where a's limit set escapes b's."""
    mask = first_escape(a, b)
    return None if mask is None else f"class {InfClass(mask, a.carrier.n)!r}"


def _topo_subset_witness(a: Topology, b: Topology) -> Optional[str]:
    """First open (in mask order) of a that is not open in b."""
    o = first_open_not_in(a, b)
    if o is None:
        return None
    return "open {" + ",".join(repr(Element(v, a.carrier.n)) for v in iter_bits(o)) + "}"


# kind, node names, relation label, witness that a is not below b
KINDS = (
    ("convergence", CONVERGENCE_NODES, "<=", _conv_leq_witness),
    ("topology", TOPOLOGY_NODES, "subset", _topo_subset_witness),
)


def figure_nodes(carrier: Carrier) -> dict[str, Union[Convergence, Topology]]:
    """Every diagram node on the carrier, by name: the three laws and their
    stars, their sequential topologies and the join O_lsi, and the limit
    operator of each topology."""
    nodes: dict[str, Union[Convergence, Topology]] = {
        "lambda_ls": lambda_ls(carrier),
        "lambda_li": lambda_li(carrier),
        "lambda_s": lambda_s(carrier),
    }
    for law in ("ls", "li", "s"):
        nodes[f"lambda_{law}_star"] = star(nodes[f"lambda_{law}"])
        nodes[f"O_{law}"] = synthesize_O_lambda(nodes[f"lambda_{law}"])
    nodes["O_lsi"] = join_topologies(nodes["O_ls"], nodes["O_li"])
    for law in ("ls", "li", "s", "lsi"):
        nodes[f"lim_O_{law}"] = lim_of_topology_as_convergence(nodes[f"O_{law}"])
    return nodes


def build_figure1(carrier: Carrier) -> DiagramReport:
    """Compute all diagram nodes on the carrier and verify the asserted
    relations, raising RelationViolation (with a witness) on any failure."""
    payloads = figure_nodes(carrier)
    report = DiagramReport(carrier=carrier)
    escape: dict[tuple[str, str], Optional[str]] = {}
    for kind, names, rel, witness in KINDS:
        report.nodes += [DiagramNode(name, kind, payloads[name]) for name in names]
        groups: dict[Union[Convergence, Topology], list[str]] = {}
        for name in names:
            groups.setdefault(payloads[name], []).append(name)
        report.equality_classes[kind] = classes = list(groups.values())
        # one witness per ordered pair of classes, read by every pair of their names
        for g, h in product(classes, repeat=2):
            w = None if g is h else witness(payloads[g[0]], payloads[h[0]])
            escape.update(((a, b), w) for a in g for b in h if a != b)
        report.relations += [
            Relation(a, b, rel, escape[b, a] is not None, escape[b, a])
            for a, b in permutations(names, 2)
            if escape[a, b] is None
        ]

    for a, b, c in MEET_IDENTITIES:
        meet = meet_conv(payloads[a], payloads[b])
        if meet != payloads[c]:
            witness = InfClass(first_difference(meet, payloads[c]), carrier.n)
            raise RelationViolation(f"{a} & {b} = {c} fails", f"class {witness!r}")
    for a, rel, b in REQUIRED:
        up, down = escape[a, b], escape[b, a]
        if up is not None or (rel == "<" and down is None) or (rel == "=" and down is not None):
            raise RelationViolation(f"{a} {rel} {b} fails", up or (down if rel == "=" else None))

    # The finite-scale collapse and its round trip.  A finite topology is fixed
    # by its limit operator, so with lim_O_lsi = lim_O_s this fails only when a
    # limit operator disagrees with the topology it was built from.
    same_limits = payloads["lim_O_lsi"] == payloads["lim_O_s"]
    if same_limits and is_sequential(payloads["O_lsi"]) and payloads["O_lsi"] != payloads["O_s"]:
        raise RelationViolation(
            "sequential O_lsi with matching limits must equal O_s", escape["O_s", "O_lsi"]
        )

    report.collapse = {
        "convergences": len(report.equality_classes["convergence"]),
        "topologies": len(report.equality_classes["topology"]),
    }
    return report


REPORT_SCHEMA = {
    "type": "object",
    "required": ["carrier", "nodes", "relations", "collapse"],
    "additionalProperties": False,
    "properties": {
        "carrier": {
            "type": "object",
            "required": ["atoms"],
            "additionalProperties": False,
            "properties": {"atoms": {"type": "integer", "minimum": 1}},
        },
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "size"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"type": "string", "enum": ["convergence", "topology"]},
                    "size": {"type": "integer", "minimum": 0},
                },
            },
        },
        "relations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lhs", "rhs", "rel", "strict", "witness"],
                "additionalProperties": False,
                "properties": {
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                    "rel": {"type": "string", "enum": ["<=", "subset"]},
                    "strict": {"type": "boolean"},
                    "witness": {"type": ["string", "null"]},
                },
            },
        },
        "collapse": {
            "type": "object",
            "required": ["convergences", "topologies"],
            "additionalProperties": False,
            "properties": {
                "convergences": {"type": "integer", "minimum": 1},
                "topologies": {"type": "integer", "minimum": 1},
            },
        },
    },
}


def _hasse_edges(groups: list[list[str]], below: set[tuple[str, str]]) -> list[tuple[int, int]]:
    """Covering relation between equality classes: edges with no shortcuts."""
    n = len(groups)
    lt = [[(groups[i][0], groups[j][0]) in below for j in range(n)] for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n)):
                edges.append((i, j))
    return edges


def emit(report: DiagramReport, fmt: str) -> str:
    if fmt == "json":
        return _emit_json(report)
    if fmt == "dot":
        return _emit_dot(report)
    if fmt == "table":
        return _emit_table(report)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_json(report: DiagramReport) -> str:
    payload = {
        "carrier": {"atoms": report.carrier.n},
        "nodes": [
            {"name": n.name, "kind": n.kind, "size": n.size} for n in report.nodes
        ],
        # a relation's fields are its json keys
        "relations": [vars(r) for r in report.relations],
        "collapse": report.collapse,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_dot(report: DiagramReport) -> str:
    below = {(r.lhs, r.rhs) for r in report.relations}
    lines = ["digraph diagram {", "  rankdir=BT;"]
    for kind in ("convergence", "topology"):
        groups = report.equality_classes[kind]
        lines.append(f"  subgraph cluster_{kind} {{")
        plural = "convergences" if kind == "convergence" else "topologies"
        lines.append(f'    label="{plural} on P({report.carrier.n})";')
        for i, g in enumerate(groups):
            lines.append(f'    {kind}_{i} [label="{" = ".join(g)}"];')
        for i, j in _hasse_edges(groups, below):
            lines.append(f"    {kind}_{i} -> {kind}_{j};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_table(report: DiagramReport) -> str:
    lines = [f"carrier: P({report.carrier.n})", "", "nodes:"]
    width = max(len(n.name) for n in report.nodes)
    for n in report.nodes:
        lines.append(f"  {n.name:<{width}}  {n.kind:<11}  size={n.size}")
    lines.append("")
    lines.append("strict relations (with witnesses):")
    for r in report.relations:
        if r.strict:
            w = f"  [{r.witness}]" if r.witness else ""
            lines.append(f"  {r.lhs} {r.rel} {r.rhs} (strict){w}")
    lines.append("")
    lines.append("equality classes:")
    for kind in ("convergence", "topology"):
        for g in report.equality_classes[kind]:
            lines.append("  " + " = ".join(g))
    lines.append("")
    lines.append(
        "collapse: convergences={convergences} topologies={topologies}".format(
            **report.collapse
        )
    )
    return "\n".join(lines) + "\n"
