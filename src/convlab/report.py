"""Diagram reconstruction: compute every convergence and topology node on a
carrier, their order relations with strictness witnesses, and emit DOT, JSON,
or a text table.

Every relation the theory asserts is re-verified from the computed payloads;
a violation aborts with a witness rather than producing a silently wrong
diagram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .algebra import Carrier
from .convergence import (
    Convergence, first_escape, lambda_li, lambda_ls, lambda_s, leq_conv, meet_conv, star,
)
from .seqclass import class_from_mask
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


@dataclass(frozen=True)
class DiagramNode:
    name: str
    kind: str  # "convergence" | "topology"
    payload: Union[Convergence, Topology]

    @property
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
    note: Optional[str] = None


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
    return None if mask is None else f"class {class_from_mask(a.carrier, mask)!r}"


def _topo_subset_witness(a: Topology, b: Topology) -> Optional[str]:
    """First open (in mask order) of a that is not open in b."""
    o = first_open_not_in(a, b)
    if o is None:
        return None
    elems = sorted(a.carrier.subset_from_mask(o), key=lambda e: e.mask)
    return "open {" + ",".join(repr(e) for e in elems) + "}"


def build_figure1(carrier: Carrier) -> DiagramReport:
    """Compute all diagram nodes on the carrier and verify the asserted
    relations, raising RelationViolation (with a witness) on any failure."""
    l_ls = lambda_ls(carrier)
    l_li = lambda_li(carrier)
    l_s = lambda_s(carrier)
    l_ls_star = star(l_ls)
    l_li_star = star(l_li)
    l_s_star = star(l_s)
    o_ls = synthesize_O_lambda(l_ls)
    o_li = synthesize_O_lambda(l_li)
    o_s = synthesize_O_lambda(l_s)
    o_lsi = join_topologies(o_ls, o_li)
    lim_ls = lim_of_topology_as_convergence(o_ls)
    lim_li = lim_of_topology_as_convergence(o_li)
    lim_s = lim_of_topology_as_convergence(o_s)
    lim_lsi = lim_of_topology_as_convergence(o_lsi)

    convs = {
        "lambda_ls": l_ls,
        "lambda_li": l_li,
        "lambda_s": l_s,
        "lambda_ls_star": l_ls_star,
        "lambda_li_star": l_li_star,
        "lambda_s_star": l_s_star,
        "lim_O_ls": lim_ls,
        "lim_O_li": lim_li,
        "lim_O_s": lim_s,
        "lim_O_lsi": lim_lsi,
    }
    topos = {"O_ls": o_ls, "O_li": o_li, "O_s": o_s, "O_lsi": o_lsi}

    report = DiagramReport(carrier=carrier)
    for name in CONVERGENCE_NODES:
        report.nodes.append(DiagramNode(name, "convergence", convs[name]))
    for name in TOPOLOGY_NODES:
        report.nodes.append(DiagramNode(name, "topology", topos[name]))

    # all pairwise relations
    for a in CONVERGENCE_NODES:
        for b in CONVERGENCE_NODES:
            if a == b:
                continue
            if leq_conv(convs[a], convs[b]):
                strict = not leq_conv(convs[b], convs[a])
                witness = _conv_leq_witness(convs[b], convs[a]) if strict else None
                report.relations.append(Relation(a, b, "<=", strict, witness))
    for a in TOPOLOGY_NODES:
        for b in TOPOLOGY_NODES:
            if a == b:
                continue
            if topos[a] <= topos[b]:
                strict = topos[a] != topos[b]
                witness = _topo_subset_witness(topos[b], topos[a]) if strict else None
                report.relations.append(Relation(a, b, "subset", strict, witness))

    _verify_required(carrier, convs, topos)

    report.equality_classes = {
        "convergence": _equality_classes(CONVERGENCE_NODES, lambda a, b: convs[a] == convs[b]),
        "topology": _equality_classes(TOPOLOGY_NODES, lambda a, b: topos[a] == topos[b]),
    }
    report.collapse = {
        "convergences": len(report.equality_classes["convergence"]),
        "topologies": len(report.equality_classes["topology"]),
    }
    return report


def _equality_classes(names, same) -> list[list[str]]:
    groups: list[list[str]] = []
    for name in names:
        for g in groups:
            if same(g[0], name):
                g.append(name)
                break
        else:
            groups.append([name])
    return groups


def _verify_required(carrier, convs, topos) -> None:
    def require_eq(a: str, b: str) -> None:
        if convs[a] != convs[b]:
            raise RelationViolation(
                f"{a} != {b}", _conv_leq_witness(convs[a], convs[b]) or _conv_leq_witness(convs[b], convs[a])
            )

    def require_lt(a: str, b: str) -> None:
        if not leq_conv(convs[a], convs[b]):
            raise RelationViolation(f"{a} <= {b} fails", _conv_leq_witness(convs[a], convs[b]))
        if leq_conv(convs[b], convs[a]):
            raise RelationViolation(f"{a} < {b} is not strict")

    # intersection identities
    if meet_conv(convs["lambda_ls"], convs["lambda_li"]) != convs["lambda_s"]:
        raise RelationViolation("lambda_ls & lambda_li != lambda_s")
    if meet_conv(convs["lambda_ls_star"], convs["lambda_li_star"]) != convs["lambda_s_star"]:
        raise RelationViolation("lambda_ls* & lambda_li* != lambda_s*")
    if meet_conv(convs["lim_O_ls"], convs["lim_O_li"]) != convs["lim_O_lsi"]:
        raise RelationViolation("lim_O_ls & lim_O_li != lim_O_lsi")

    # strictness
    require_lt("lambda_s", "lambda_ls")
    require_lt("lambda_s", "lambda_li")
    require_lt("lambda_s_star", "lambda_ls_star")
    require_lt("lambda_s_star", "lambda_li_star")
    require_lt("lim_O_lsi", "lim_O_ls")
    require_lt("lim_O_lsi", "lim_O_li")

    # star extends
    for base, starred in (
        ("lambda_ls", "lambda_ls_star"),
        ("lambda_li", "lambda_li_star"),
        ("lambda_s", "lambda_s_star"),
    ):
        if not leq_conv(convs[base], convs[starred]):
            raise RelationViolation(f"{base} <= {starred} fails")

    # star against topological limits; equality at this scale, the general
    # theory only promises <=
    if not leq_conv(convs["lambda_ls_star"], convs["lim_O_ls"]):
        raise RelationViolation("lambda_ls* <= lim_O_ls fails")
    if not leq_conv(convs["lambda_li_star"], convs["lim_O_li"]):
        raise RelationViolation("lambda_li* <= lim_O_li fails")
    require_eq("lambda_s_star", "lim_O_s")

    # topology inclusions
    for small, big in (("O_ls", "O_s"), ("O_li", "O_s"), ("O_lsi", "O_s"), ("O_ls", "O_lsi"), ("O_li", "O_lsi")):
        if not topos[small] <= topos[big]:
            raise RelationViolation(f"{small} subset {big} fails", _topo_subset_witness(topos[small], topos[big]))
    for small, big in (("O_ls", "O_lsi"), ("O_li", "O_lsi")):
        if topos[small] == topos[big]:
            raise RelationViolation(f"{small} strictly below {big} fails")

    # the finite-scale collapse and its round trip
    if convs["lim_O_lsi"] == convs["lim_O_s"] and is_sequential(topos["O_lsi"]):
        if topos["O_lsi"] != topos["O_s"]:
            raise RelationViolation(
                "sequential O_lsi with matching limits must equal O_s",
                _topo_subset_witness(topos["O_s"], topos["O_lsi"]),
            )


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


def _group_label(group: list[str]) -> str:
    return " = ".join(group)


def _hasse_edges(groups: list[list[str]], leq) -> list[tuple[int, int]]:
    """Covering relation between equality classes: edges with no shortcuts."""
    n = len(groups)
    below = [[leq(groups[i][0], groups[j][0]) and i != j for j in range(n)] for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n)):
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
        "relations": [
            {
                "lhs": r.lhs,
                "rhs": r.rhs,
                "rel": r.rel,
                "strict": r.strict,
                "witness": r.witness,
            }
            for r in report.relations
        ],
        "collapse": report.collapse,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_dot(report: DiagramReport) -> str:
    payloads = {n.name: n.payload for n in report.nodes}

    def conv_leq(a, b):
        return leq_conv(payloads[a], payloads[b])

    def topo_leq(a, b):
        return payloads[a] <= payloads[b]

    lines = ["digraph diagram {", "  rankdir=BT;"]
    for kind, order in (("convergence", conv_leq), ("topology", topo_leq)):
        groups = report.equality_classes[kind]
        lines.append(f"  subgraph cluster_{kind} {{")
        plural = "convergences" if kind == "convergence" else "topologies"
        lines.append(f'    label="{plural} on P({report.carrier.n})";')
        for i, g in enumerate(groups):
            lines.append(f'    {kind}_{i} [label="{_group_label(g)}"];')
        for i, j in _hasse_edges(groups, order):
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
            lines.append(f"  {_group_label(g)}")
    lines.append("")
    lines.append(
        "collapse: convergences={convergences} topologies={topologies}".format(
            **report.collapse
        )
    )
    return "\n".join(lines) + "\n"
