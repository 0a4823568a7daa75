import json
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import report as report_module
from convlab.algebra import Carrier
from convlab.convergence import Convergence, lambda_li, lambda_ls, lambda_s, leq_conv, star
from convlab.report import (
    CONVERGENCE_NODES,
    KINDS,
    REPORT_SCHEMA,
    TOPOLOGY_NODES,
    DiagramNode,
    DiagramReport,
    Relation,
    RelationViolation,
    build_figure1,
    emit,
    figure_nodes,
    witness_text,
)
from convlab.submeasure import HalfBallReport, ValidationReport
from convlab.topology import (
    SpaceProperties,
    Topology,
    discrete,
    generate,
    join_topologies,
    lim_of_topology_as_convergence,
    synthesize_O_lambda,
)
from convlab.verify import CriterionResult

from oracles import open_masks, pairwise_escapes


@pytest.fixture(scope="module")
def report_p2():
    return build_figure1(Carrier(2))


@pytest.fixture(scope="module")
def report_p3():
    return build_figure1(Carrier(3))


class TestBuild:
    def test_all_nodes_present(self, report_p2):
        names = [n.name for n in report_p2.nodes]
        assert names == list(CONVERGENCE_NODES) + list(TOPOLOGY_NODES)

    def test_collapse_counts(self, report_p2, report_p3):
        for report in (report_p2, report_p3):
            assert report.collapse == {"convergences": 3, "topologies": 3}

    def test_two_sided_group_is_largest(self, report_p3):
        groups = report_p3.equality_classes["convergence"]
        two_sided = next(g for g in groups if "lambda_s" in g)
        assert set(two_sided) == {
            "lambda_s",
            "lambda_s_star",
            "lim_O_s",
            "lim_O_lsi",
        }

    def test_join_topology_collapses_to_discrete(self, report_p2):
        payloads = {n.name: n.payload for n in report_p2.nodes}
        assert payloads["O_lsi"] == payloads["O_s"] == discrete(report_p2.carrier)

    def test_builtin_convergences_survive_star(self, report_p3):
        payloads = {n.name: n.payload for n in report_p3.nodes}
        assert payloads["lambda_ls"] == payloads["lambda_ls_star"]
        assert payloads["lambda_li"] == payloads["lambda_li_star"]

    def test_strict_relations_carry_witnesses(self, report_p2):
        for r in report_p2.relations:
            if r.strict:
                assert r.witness

    def test_nonstrict_relations_have_no_witness(self, report_p2):
        for r in report_p2.relations:
            if not r.strict:
                assert r.witness is None

    def test_expected_strict_pairs_present(self, report_p2):
        strict = {(r.lhs, r.rhs) for r in report_p2.relations if r.strict}
        assert ("lambda_s", "lambda_ls") in strict
        assert ("lambda_s", "lambda_li") in strict
        assert ("O_ls", "O_lsi") in strict
        assert ("O_li", "O_lsi") in strict

    def test_relations_are_actually_true(self, report_p2):
        payloads = {n.name: n.payload for n in report_p2.nodes}
        for r in report_p2.relations:
            if r.rel == "<=":
                assert leq_conv(payloads[r.lhs], payloads[r.rhs])
            else:
                assert open_masks(payloads[r.lhs]) <= open_masks(payloads[r.rhs])

    def test_node_sizes(self, report_p2):
        sizes = {n.name: n.size for n in report_p2.nodes}
        assert sizes["O_ls"] == 6
        assert sizes["O_s"] == 16
        # lambda_s has exactly one limit per singleton class
        assert sizes["lambda_s"] == 4


def order_from_pairs(payloads):
    """Relations and equality classes read off the pairwise escape table: a
    name joins the first class whose first name it is equal to."""
    escape = pairwise_escapes(payloads)
    relations, classes = [], {}
    for kind, _, names, rel, _ in KINDS:
        for a in names:
            for b in names:
                if a != b and escape[a, b] is None:
                    w = escape[b, a]
                    text = None if w is None else witness_text(payloads[b], w)
                    relations.append(Relation(a, b, rel, w is not None, text))
        groups = []
        for name in names:
            same = [g for g in groups if escape[g[0], name] is None and escape[name, g[0]] is None]
            if same:
                same[0].append(name)
            else:
                groups.append([name])
        classes[kind] = groups
    return relations, classes


class TestOrderOnClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_pairwise_oracle(self, n):
        report = build_figure1(Carrier(n))
        relations, classes = order_from_pairs({node.name: node.payload for node in report.nodes})
        assert report.relations == relations
        assert report.equality_classes == classes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_witness_call_per_pair_of_classes(self, monkeypatch, n):
        calls = Counter()

        def counting(name):
            real = getattr(report_module, name)
            return lambda a, b: calls.update([name]) or real(a, b)

        for name in ("first_escape", "first_open_not_in"):
            monkeypatch.setattr(report_module, name, counting(name))
        build_figure1(Carrier(n))
        # three classes of each kind give 3 * 2 ordered pairs; the 10 and 4
        # names would give 90 and 12
        assert calls == {"first_escape": 6, "first_open_not_in": 6}


class TestEmitters:
    def test_json_validates_against_schema(self, report_p2):
        payload = json.loads(emit(report_p2, "json"))
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_json_collapse_round_trip(self, report_p3):
        payload = json.loads(emit(report_p3, "json"))
        assert payload["collapse"] == {"convergences": 3, "topologies": 3}
        assert payload["carrier"] == {"atoms": 3}
        assert len(payload["nodes"]) == 14

    def test_dot_shape(self, report_p2):
        dot = emit(report_p2, "dot")
        assert dot.startswith("digraph diagram {")
        assert dot.rstrip().endswith("}")
        assert "cluster_convergence" in dot
        assert "cluster_topology" in dot
        assert "topologys" not in dot

    def test_dot_hasse_has_no_shortcut_edges(self, report_p2):
        # three totally ordered convergence classes give exactly two edges
        dot = emit(report_p2, "dot")
        conv_edges = [
            line
            for line in dot.splitlines()
            if "->" in line and "convergence_" in line
        ]
        assert len(conv_edges) == 2

    def test_table_mentions_every_node(self, report_p2):
        table = emit(report_p2, "table")
        for name in CONVERGENCE_NODES + TOPOLOGY_NODES:
            assert name in table
        assert "collapse: convergences=3 topologies=3" in table

    def test_unknown_format_rejected(self, report_p2):
        with pytest.raises(ValueError):
            emit(report_p2, "yaml")

    def test_emit_is_deterministic(self, report_p2):
        for fmt in ("json", "dot", "table"):
            assert emit(report_p2, fmt) == emit(report_p2, fmt)

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "pure-python"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_json_is_json_dumps_with_indent(self, c_encoder, data):
        # records are split at "},\n" between them, so the strings hold
        # quotes, escapes, newlines, braces and that very boundary
        text = st.one_of(
            st.sampled_from(['"', "\\", "\n", "\t", "λ_ls ∩ λ_li", "{}", "},\n      {", "open {{}}"]),
            st.text(max_size=12),
        )
        lengths = st.sampled_from([0, 1, 2, 9])
        kinds = st.sampled_from(["convergence", "topology"])
        node = st.builds(DiagramNode, text, kinds, st.none(), st.integers(0, 10**30))
        rels = st.sampled_from(["<=", "subset"])
        relation = st.builds(Relation, text, text, rels, st.booleans(), st.none() | text)
        n_nodes, n_relations = data.draw(lengths), data.draw(lengths)
        nodes = data.draw(st.lists(node, min_size=n_nodes, max_size=n_nodes))
        relations = data.draw(st.lists(relation, min_size=n_relations, max_size=n_relations))
        collapse = {"convergences": data.draw(st.integers(1, 14)), "topologies": data.draw(st.integers(1, 4))}
        carrier = Carrier(data.draw(st.integers(1, 3)))
        report = DiagramReport(carrier, nodes, relations, {}, collapse)
        payload = {
            "carrier": {"atoms": carrier.n},
            "nodes": [{"name": n.name, "kind": n.kind, "size": n.size} for n in nodes],
            "relations": [
                {"lhs": r.lhs, "rhs": r.rhs, "rel": r.rel, "strict": r.strict, "witness": r.witness}
                for r in relations
            ],
            "collapse": collapse,
        }
        with pytest.MonkeyPatch.context() as mp:
            if not c_encoder:
                mp.setattr(json.encoder, "c_make_encoder", None)
            out = emit(report, "json")
        assert out == json.dumps(payload, indent=2, sort_keys=True)
        for key, records in (("nodes", nodes), ("relations", relations)):
            assert records or f'"{key}": []' in out
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_each_size_computed_once(self, monkeypatch):
        # one count per equality class, not per node: equal payloads have
        # equal sizes
        calls = Counter()
        for cls, method in ((Convergence, "limit_count"), (Topology, "open_count")):
            real = getattr(cls, method)
            monkeypatch.setattr(cls, method, lambda self, m=method, f=real: calls.update([m]) or f(self))
        report = build_figure1(Carrier(3))
        emit(report, "table")
        emit(report, "json")
        assert calls == {"limit_count": 3, "open_count": 3}
        assert report.collapse == {"convergences": 3, "topologies": 3}


def tamper_star(monkeypatch, law, replacement):
    """star returns replacement(carrier) for the law's convergence."""
    monkeypatch.setattr(
        report_module,
        "star",
        lambda lam: replacement(lam.carrier) if lam == law(lam.carrier) else star(lam),
    )


def honest_limits(monkeypatch, honest):
    """The limits of each tampered topology are those of its honest one."""
    monkeypatch.setattr(
        report_module,
        "lim_of_topology_as_convergence",
        lambda o: lim_of_topology_as_convergence(honest.get(o, o)),
    )


class TestViolationPath:
    """Each case breaks one payload of build_figure1 on P(2) so that one
    asserted relation is the first to fail, and checks that it is named."""

    def test_tampered_relation_detected(self, monkeypatch):
        # a join that forgets O_li has the limits of O_ls: the meet identity breaks
        monkeypatch.setattr(report_module, "join_topologies", lambda a, b: a)
        with pytest.raises(RelationViolation, match=r"lim_O_ls & lim_O_li !?= lim_O_lsi"):
            build_figure1(Carrier(2))

    def test_strictness_checked(self, monkeypatch):
        # lambda_ls* = lambda_s keeps every meet, but lambda_s* < lambda_ls* is not strict
        tamper_star(monkeypatch, lambda_ls, lambda_s)
        with pytest.raises(RelationViolation, match=r"lambda_s_star < lambda_ls_star"):
            build_figure1(Carrier(2))

    def test_star_extension_checked(self, monkeypatch):
        # lambda_ls with the top point dropped from the bottom's column: strictly
        # between lambda_s and lambda_ls, so only lambda_ls <= lambda_ls* fails
        def shrunk(carrier):
            lim1 = list(carrier.up_masks)
            lim1[0] &= ~(1 << (carrier.size - 1))
            return Convergence(carrier, lim1=lim1)

        tamper_star(monkeypatch, lambda_ls, shrunk)
        with pytest.raises(RelationViolation, match=r"lambda_ls <= lambda_ls_star fails"):
            build_figure1(Carrier(2))

    def test_equality_checked(self, monkeypatch):
        # O_s replaced by O_ls: lim_O_s becomes lambda_ls, only the equality reads it
        real = synthesize_O_lambda
        monkeypatch.setattr(
            report_module,
            "synthesize_O_lambda",
            lambda lam: real(lambda_ls(lam.carrier) if lam == lambda_s(lam.carrier) else lam),
        )
        with pytest.raises(RelationViolation, match=r"lambda_s_star !?= lim_O_s") as err:
            build_figure1(Carrier(2))
        assert err.value.witness == "class InfClass({})"

    def test_topology_strictness_checked(self, monkeypatch):
        # O_lsi replaced by O_ls with its top point made open: it lies strictly
        # above O_ls but misses the up-sets of O_li; its limits stay honest
        carrier = Carrier(2)
        o_ls = synthesize_O_lambda(lambda_ls(carrier))
        o_li = synthesize_O_lambda(lambda_li(carrier))
        top = 1 << (carrier.size - 1)
        fake = Topology(carrier, o_ls.min_neighborhoods[:-1] + (top,))
        monkeypatch.setattr(report_module, "join_topologies", lambda a, b: fake)
        honest_limits(monkeypatch, {fake: join_topologies(o_ls, o_li)})
        with pytest.raises(RelationViolation, match=r"O_li (subset|<) O_lsi fails") as err:
            build_figure1(carrier)
        assert err.value.witness == "open {{0},{0,1}}"

    def test_collapse_round_trip_checked(self, monkeypatch):
        # O_li replaced by the topology whose only proper open is the top point:
        # every inclusion holds, limits stay honest, yet the join is not O_s,
        # which only the last row, the Maharam case, reads
        carrier = Carrier(2)
        o_ls = synthesize_O_lambda(lambda_ls(carrier))
        o_li = synthesize_O_lambda(lambda_li(carrier))
        coarse = generate(carrier, [1 << (carrier.size - 1)])
        real = synthesize_O_lambda
        monkeypatch.setattr(
            report_module,
            "synthesize_O_lambda",
            lambda lam: coarse if lam == lambda_li(lam.carrier) else real(lam),
        )
        honest_limits(
            monkeypatch, {coarse: o_li, join_topologies(o_ls, coarse): join_topologies(o_ls, o_li)}
        )
        with pytest.raises(RelationViolation, match=r"^O_lsi = O_s fails") as err:
            build_figure1(carrier)
        assert err.value.witness == "open {{0}}"

    def test_violation_message_includes_witness(self):
        err = RelationViolation("a <= b fails", witness="class X")
        assert "class X" in str(err)
        assert err.witness == "class X"

    def test_report_is_a_plain_record(self, report_p2):
        assert isinstance(report_p2, DiagramReport)
        assert DiagramReport._fields == ("carrier", "nodes", "relations", "equality_classes", "collapse")
        assert all(isinstance(r, Relation) for r in report_p2.relations)
        with pytest.raises(AttributeError):
            report_p2.nodes = []

    def test_meet_identity_names_the_least_differing_class(self, monkeypatch):
        # lim_O_lsi on P(4) with point 5 = {0,2} gaining limit 3 and point
        # 9 = {0,3} losing every limit: {9} is the least class where the meet
        # escapes lim_O_lsi, but {5} is the least where the two differ
        def tampered(carrier):
            nodes = figure_nodes(carrier)
            lim1 = list(nodes["lim_O_lsi"].lim1)
            lim1[5] |= 1 << 3
            lim1[9] = 0
            nodes["lim_O_lsi"] = Convergence(carrier, lim1=lim1)
            return nodes

        monkeypatch.setattr(report_module, "figure_nodes", tampered)
        with pytest.raises(RelationViolation, match=r"lim_O_ls & lim_O_li = lim_O_lsi fails") as err:
            build_figure1(Carrier(4))
        assert err.value.witness == "class InfClass({0,2})"


class TestRecords:
    """The records a user reads: fields by name in their order, defaults,
    reprs as the details of criteria 8 and 11 print them, and no field that
    can be assigned."""

    RECORDS = [
        (DiagramNode, "name kind payload size", ("lambda_s", "convergence", None, 3)),
        (Relation, "lhs rhs rel strict witness", ("lambda_s", "lambda_ls", "<=", True, "class X")),
        (CriterionResult, "index name passed detail", (1, "pointwise meet identity", True, "all classes")),
        (SpaceProperties, "t0 connected compact compact_note", (True, False, True, "note")),
        (
            ValidationReport,
            "zero_on_bottom monotone subadditive strictly_positive continuous continuous_note",
            (True, False, True, False, True, "note"),
        ),
        (HalfBallReport, "o1_open_in_left o2_open_in_right sandwich", (True, False, True)),
    ]

    @pytest.mark.parametrize("cls, names, values", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
    def test_fields_by_name(self, cls, names, values):
        record = cls(*values)
        assert [getattr(record, name) for name in names.split()] == list(values)
        assert record == cls(**dict(zip(names.split(), values)))
        for name in names.split():
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_defaults(self):
        assert Relation("a", "b", "<=", False).witness is None
        assert SpaceProperties(True, True, True).compact_note == "finite carrier"
        assert ValidationReport(*[True] * 5).continuous_note == "finite-trivial"

    def test_reprs(self):
        assert repr(SpaceProperties(True, True, True)) == (
            "SpaceProperties(t0=True, connected=True, compact=True, compact_note='finite carrier')"
        )
        assert repr(ValidationReport(*[True] * 5)) == (
            "ValidationReport(zero_on_bottom=True, monotone=True, subadditive=True, "
            "strictly_positive=True, continuous=True, continuous_note='finite-trivial')"
        )
