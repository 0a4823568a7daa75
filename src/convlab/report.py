"""Diagram reconstruction: compute every convergence and topology node on a
carrier, their order relations with strictness witnesses, and emit DOT, JSON,
or a text table.

``figure_nodes`` is the one builder of the nodes, by name: ``build_figure1``
and ``verify.VerifyContext`` read them from it.

The order is one class x class table per kind: its nodes are grouped by
payload into equality classes, and the table holds the witness, and its text,
that one class is not below another (None on the diagonal).  Node sizes (one
count per class, one for a topology and its opposite), relations and the Hasse
edges are read from it.  The JSON is written from one template per record,
byte for byte ``json.dumps(payload, indent=2, sort_keys=True)``.

``RELATIONS`` holds the relations the theory asserts, each row tagged
``general``, ``omega2``, ``maharam`` or ``finite``; ``first_violation``, their
one checker, runs on all of them in ``build_figure1``, where a violation
aborts with a witness rather than a silently wrong diagram, and on the rows
each verify criterion names.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from json.encoder import encode_basestring_ascii as _string

from .algebra import Carrier, atom_set, iter_bits
from .convergence import Convergence, first_escape, lambda_li, lambda_ls, lambda_s, meet_conv, star
from .seqclass import InfClass
from .topology import (
    Topology,
    first_open_not_in,
    join_topologies,
    lim_of_topology_as_convergence,
    synthesize_O_lambda,
)


class RelationViolation(RuntimeError):
    """A relation required by the theory failed on the computed payloads."""

    def __init__(self, message: str, witness: str | None = None):
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

# (lhs, rel, rhs, source), checked in this order.  rel is "<=", "<" or "=",
# "<=" on topologies being inclusion of the opens; an lhs "a & b" is a
# pointwise meet.  source is where the row holds: "general" in every complete
# Boolean algebra, "omega2" in (omega,2)-distributive and "maharam" in Maharam
# algebras (every P(n) is both), "finite" on every P(n) but not in the paper.
RELATIONS = (
    # the abstract's identity; the star meet holds at this scale
    ("lambda_ls & lambda_li", "=", "lambda_s", "general"),
    ("lambda_ls_star & lambda_li_star", "=", "lambda_s_star", "finite"),
    # the sets U1 & U2 are a base of a join, so a sequence converges in it iff in each
    ("lim_O_ls & lim_O_li", "=", "lim_O_lsi", "general"),
    # the constant-0 class has every point as a lambda_ls limit but only 0 as
    # a lambda_s limit, dually the constant-1 class; star is monotone and
    # leaves a constant class's limits alone
    ("lambda_s", "<", "lambda_ls", "general"),
    ("lambda_s", "<", "lambda_li", "general"),
    ("lambda_s_star", "<", "lambda_ls_star", "general"),
    ("lambda_s_star", "<", "lambda_li_star", "general"),
    ("lim_O_lsi", "<", "lim_O_ls", "general"),  # constant 0 converges to 1 in O_ls, not in O_lsi: ~{0} is open
    ("lim_O_lsi", "<", "lim_O_li", "general"),  # constant 1 converges to 0 in O_li, not in O_lsi: ~{1} is open
    # star extends
    ("lambda_ls", "<=", "lambda_ls_star", "general"),
    ("lambda_li", "<=", "lambda_li_star", "general"),
    ("lambda_s", "<=", "lambda_s_star", "general"),
    # lim_O_lambda extends lambda and satisfies (L1)-(L3), and lambda* is the
    # least such; the two-sided one is equal at this scale
    ("lambda_ls_star", "<=", "lim_O_ls", "general"),
    ("lambda_li_star", "<=", "lim_O_li", "general"),
    ("lambda_s_star", "=", "lim_O_s", "finite"),
    # lambda -> O_lambda is antitone, and O_lsi is the least topology holding
    # O_ls and O_li.  Strictly: an O_ls-open set holding 1 holds 0, the
    # constant-0 sequence's lambda_ls limit, but {0} is lambda_li-closed, so
    # its complement is O_li-open; dually for O_li
    ("O_ls", "<=", "O_s", "general"),
    ("O_li", "<=", "O_s", "general"),
    ("O_lsi", "<=", "O_s", "general"),
    ("O_ls", "<", "O_lsi", "general"),
    ("O_li", "<", "O_lsi", "general"),
    # star fixes every law at this scale
    ("lambda_ls_star", "=", "lambda_ls", "finite"),
    ("lambda_li_star", "=", "lambda_li", "finite"),
    ("lambda_s_star", "=", "lambda_s", "finite"),
    # the abstract's special cases
    ("lim_O_lsi", "=", "lambda_s", "omega2"),
    ("O_lsi", "=", "O_s", "maharam"),
)

Row = tuple[str, str, str, str]
Payload = Convergence | Topology


def rows_named(*texts: str) -> tuple[Row, ...]:
    """The rows of ``RELATIONS`` that read ``"lhs rel rhs"``, in the order given."""
    by_text = {" ".join(row[:3]): row for row in RELATIONS}
    return tuple(by_text[text] for text in texts)


# kind is "convergence" or "topology"; size is limit_count() of a convergence, open_count() of a topology
DiagramNode = namedtuple("DiagramNode", "name kind payload size")
# rel is "<=" or "subset"
Relation = namedtuple("Relation", "lhs rhs rel strict witness", defaults=(None,))
# equality_classes: kind -> lists of names; collapse: plural kind -> class count
DiagramReport = namedtuple("DiagramReport", "carrier nodes relations equality_classes collapse")


def escape(a: Payload, b: Payload) -> int | None:
    """The first witness, in mask order, that a is not below b: a class of
    convergences, an open of topologies; None when a <= b."""
    return first_escape(a, b) if isinstance(a, Convergence) else first_open_not_in(a, b)


def witness_text(payload: Payload, mask: int) -> str:
    """An ``escape`` mask of the payload's kind as the diagram prints it."""
    if isinstance(payload, Convergence):
        return f"class {InfClass(mask, payload.carrier.n)!r}"
    return "open {" + ",".join(map(atom_set, iter_bits(mask))) + "}"


def first_violation(
    rows: tuple[Row, ...], nodes: dict, known: dict | None = None
) -> tuple[Row, int | None] | None:
    """The first of ``rows`` that ``nodes`` violate, with its raw witness mask,
    or None.  A "<=" or "<" row is broken by the first escape of lhs from rhs
    (none for a "<" row that is not strict), an "=" row by the least escape
    either way.  ``known[a, b]`` is node a's escape from node b where it is
    computed already; the rest, meets included, are computed here."""
    known = known or {}
    for row in rows:
        lhs, rel, rhs, _ = row
        if (lhs, rhs) in known:
            up, down = known[lhs, rhs], known[rhs, lhs]
        else:
            left, _, right = lhs.partition(" & ")
            a, b = meet_conv(nodes[left], nodes[right]) if right else nodes[left], nodes[rhs]
            if rel == "=" and a == b:
                continue
            up, down = escape(a, b), escape(b, a)
        if rel == "=" and (up is not None or down is not None):
            return row, min(w for w in (up, down) if w is not None)
        if rel != "=" and (up is not None or (rel == "<" and down is None)):
            return row, up
    return None


def violation(
    rows: tuple[Row, ...], nodes: dict, known: dict | None = None, where: str = ""
) -> RelationViolation | None:
    """``first_violation`` as a RelationViolation naming the row, then
    ``where``, with its witness in the diagram's text; None when all hold."""
    found = first_violation(rows, nodes, known)
    if found is None:
        return None
    (lhs, rel, rhs, _), mask = found
    witness = None if mask is None else witness_text(nodes[rhs], mask)
    return RelationViolation(f"{lhs} {rel} {rhs} fails{where}", witness)


def _open_counts(classes: dict[Topology, int]) -> list[int]:
    """Each topology's ``open_count``, once for it and its opposite (see ``Topology.open_count``)."""
    opposite = {}  # the transposed lanes of each counted topology -> its count
    return [opposite.get(g._lanes) or opposite.setdefault(g.carrier.transpose(g._lanes), g.open_count()) for g in classes]


# kind, its plural, node names, relation label, the sizes of its distinct payloads
KINDS = (
    ("convergence", "convergences", CONVERGENCE_NODES, "<=", lambda classes: [g.limit_count() for g in classes]),
    ("topology", "topologies", TOPOLOGY_NODES, "subset", _open_counts),
)

# the name pairs, both ways, of the rows without a meet: first_violation reads their witnesses from known
_ROW_PAIRS = {(a, b) for lhs, _, rhs, _ in RELATIONS if " & " not in lhs for a, b in ((lhs, rhs), (rhs, lhs))}


def figure_nodes(carrier: Carrier) -> dict[str, Payload]:
    """Every diagram node on the carrier, by name: the three laws and their
    stars, their sequential topologies and the join O_lsi, and the limit
    operator of each topology."""
    nodes: dict[str, Payload] = {
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
    """Compute all diagram nodes on the carrier and check every row of
    ``RELATIONS``, raising RelationViolation (with a witness) on a failure."""
    payloads = figure_nodes(carrier)
    nodes, relations, equality_classes, collapse = [], [], {}, {}
    known: dict[tuple[str, str], int | None] = {}
    for kind, plural, names, rel, sizes in KINDS:
        classes: dict[Payload, int] = {}  # each distinct payload, by its equality class's index
        index = {name: classes.setdefault(payloads[name], len(classes)) for name in names}
        equality_classes[kind] = [[a for a in names if index[a] == i] for i in classes.values()]
        collapse[plural] = len(classes)
        # one witness, and its text, per ordered pair of classes; None on the diagonal
        witness = [[None if g is h else escape(g, h) for h in classes] for g in classes]
        text = [[None if w is None else witness_text(g, w) for w in row] for g, row in zip(classes, witness)]
        size = sizes(classes)  # equal payloads have equal sizes
        nodes += [DiagramNode(name, kind, payloads[name], size[index[name]]) for name in names]
        known.update({(a, b): witness[index[a]][index[b]] for a, b in _ROW_PAIRS if a in index})
        for (a, i), (b, j) in permutations(index.items(), 2):
            if witness[i][j] is None:
                relations.append(Relation(a, b, rel, witness[j][i] is not None, text[j][i]))

    failed = violation(RELATIONS, payloads, known)
    if failed is not None:
        raise failed
    return DiagramReport(carrier, nodes, relations, equality_classes, collapse)


def _record(**properties: dict) -> dict:
    """The schema of an object with exactly these properties, all required."""
    return {"type": "object", "required": list(properties), "additionalProperties": False, "properties": properties}


_STRING, _COUNT = {"type": "string"}, {"type": "integer", "minimum": 1}
REPORT_SCHEMA = _record(
    carrier=_record(atoms=_COUNT),
    nodes={"type": "array", "items": _record(
        name=_STRING, kind={"enum": ["convergence", "topology"]}, size={"type": "integer", "minimum": 0},
    )},
    relations={"type": "array", "items": _record(
        lhs=_STRING, rhs=_STRING, rel={"enum": ["<=", "subset"]}, strict={"type": "boolean"},
        witness={"type": ["string", "null"]},
    )},
    collapse=_record(convergences=_COUNT, topologies=_COUNT),
)


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


# The json output is json.dumps(payload, indent=2, sort_keys=True), written
# from one template per record with its keys in sorted order; strings are
# escaped by the function json.dumps itself calls with ensure_ascii.
_REPORT = (
    '{\n  "carrier": {\n    "atoms": %d\n  },\n  "collapse": {\n    "convergences": %d,\n    "topologies": %d\n  },'
    '\n  "nodes": %s,\n  "relations": %s\n}'
)
_NODE = '    {\n      "kind": %s,\n      "name": %s,\n      "size": %d\n    }'
_RELATION = '    {\n      "lhs": %s,\n      "rel": %s,\n      "rhs": %s,\n      "strict": %s,\n      "witness": %s\n    }'


def _json_list(records: list[str]) -> str:
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def _emit_json(report: DiagramReport) -> str:
    nodes = [_NODE % (_string(n.kind), _string(n.name), n.size) for n in report.nodes]
    relations = [_RELATION % (_string(r.lhs), _string(r.rel), _string(r.rhs), "true" if r.strict else "false",
                              "null" if r.witness is None else _string(r.witness)) for r in report.relations]
    c = report.collapse
    return _REPORT % (report.carrier.n, c["convergences"], c["topologies"], _json_list(nodes), _json_list(relations))


def _emit_dot(report: DiagramReport) -> str:
    below = {(r.lhs, r.rhs) for r in report.relations}
    lines = ["digraph diagram {", "  rankdir=BT;"]
    for kind, plural, *_ in KINDS:
        groups = report.equality_classes[kind]
        lines.append(f"  subgraph cluster_{kind} {{")
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
    for kind, *_ in KINDS:
        for g in report.equality_classes[kind]:
            lines.append("  " + " = ".join(g))
    lines.append("")
    lines.append(
        "collapse: convergences={convergences} topologies={topologies}".format(
            **report.collapse
        )
    )
    return "\n".join(lines) + "\n"
