"""Unit tests for typings, validation semantics, and compressed-graph validation."""

import pytest

from repro.graphs.compressed import CompressedGraph
from repro.graphs.graph import Graph
from repro.schema.parser import parse_schema
from repro.schema.shex import ShExSchema
from repro.schema.typing import Typing, is_valid_typing, maximal_typing, satisfies_type
from repro.schema.validation import (
    maximal_typing_compressed,
    satisfies,
    satisfies_compressed,
    satisfies_type_compressed,
    validate,
)
from repro.workloads.figures import figure2_expected_typing


class TestTypingObject:
    def test_basic_queries(self):
        typing = Typing({"n": {"t", "s"}, "m": set()})
        assert typing.types_of("n") == {"t", "s"}
        assert typing.types_of("zzz") == frozenset()
        assert typing.domain() == {"n"}
        assert ("n", "t") in typing and ("m", "t") not in typing
        assert ("n", "t") in typing.pairs()

    def test_is_total(self):
        graph = Graph()
        graph.add_edge("n", "a", "m")
        assert Typing({"n": {"t"}, "m": {"s"}}).is_total(graph)
        assert not Typing({"n": {"t"}}).is_total(graph)

    def test_equality_and_hash(self):
        assert Typing({"n": {"t"}}) == Typing({"n": frozenset({"t"})})
        assert len({Typing({"n": {"t"}}), Typing({"n": {"t"}})}) == 1


class TestMaximalTyping:
    def test_figure2_typing(self, g0, s0):
        typing = maximal_typing(g0, s0)
        expected = figure2_expected_typing()
        assert {n: set(typing.types_of(n)) for n in g0.nodes} == expected

    def test_maximal_typing_is_valid(self, g0, s0):
        typing = maximal_typing(g0, s0)
        assert is_valid_typing(g0, s0, typing.as_dict())

    def test_empty_graph_trivially_satisfies(self, s0):
        assert satisfies(Graph(), s0)

    def test_node_with_unknown_label_gets_no_type(self, s0):
        graph = Graph()
        graph.add_edge("x", "weird", "y")
        typing = maximal_typing(graph, s0)
        assert typing.types_of("x") == frozenset()
        # y has no outgoing edges: it satisfies t3 (eps)
        assert "t3" in typing.types_of("y")

    def test_satisfies_type_respects_candidate_typing(self, g0, s0):
        # with an empty candidate typing for the target, nothing matches
        assert not satisfies_type(g0, "n0", "t0", s0, {"n1": set()})
        assert satisfies_type(g0, "n0", "t0", s0, {"n1": {"t1"}})

    def test_mandatory_edge_missing_fails(self):
        schema = parse_schema("t -> a :: s\ns -> eps")
        graph = Graph()
        graph.add_node("lonely")
        typing = maximal_typing(graph, schema)
        assert typing.types_of("lonely") == {"s"}

    def test_excess_edges_fail(self):
        schema = parse_schema("t -> a :: s?\ns -> eps")
        graph = Graph()
        graph.add_edge("x", "a", "y1")
        graph.add_edge("x", "a", "y2")
        typing = maximal_typing(graph, schema)
        assert "t" not in typing.types_of("x")

    def test_disjunctive_definition(self):
        schema = ShExSchema({"t": "(a :: o | b :: o)", "o": "eps"})
        good = Graph()
        good.add_edge("x", "a", "y")
        assert "t" in maximal_typing(good, schema).types_of("x")
        bad = Graph()
        bad.add_edge("x", "a", "y")
        bad.add_edge("x", "b", "z")
        assert "t" not in maximal_typing(bad, schema).types_of("x")

    def test_cyclic_graph_and_schema(self):
        schema = parse_schema("t -> next :: t")
        graph = Graph()
        graph.add_edge("x", "next", "y")
        graph.add_edge("y", "next", "x")
        assert satisfies(graph, schema)
        chain = Graph()
        chain.add_edge("x", "next", "y")
        chain.add_node("y")
        assert not satisfies(chain, schema)

    def test_signature_needs_every_edge_assigned(self, bug_schema):
        graph = Graph()
        graph.add_edge("u", "name", "lit")
        graph.add_edge("lit", "isLiteral", "m")
        graph.add_edge("u", "unknown", "z")
        typing = maximal_typing(graph, bug_schema)
        assert "User" not in typing.types_of("u")

    def test_validate_report(self, bug_graph, bug_schema):
        report = validate(bug_graph, bug_schema)
        assert report.satisfied and bool(report)
        assert report.untyped_nodes == ()
        bugs = [n for n in bug_graph.nodes if str(n).endswith("bug1")]
        assert bugs and "Bug" in report.typing.types_of(bugs[0])

    def test_validate_reports_untyped_nodes(self, bug_schema):
        graph = Graph()
        graph.add_edge("x", "nonsense", "y")
        report = validate(graph, bug_schema)
        assert not report.satisfied
        assert "x" in report.untyped_nodes


class TestCompressedValidation:
    @pytest.fixture
    def schema(self):
        return parse_schema(
            """
            t -> a :: u[2;2] || b :: o?
            u -> c :: o*
            o -> eps
            """
        )

    def test_satisfying_compressed_graph(self, schema):
        graph = CompressedGraph()
        graph.add_edge("n", "a", "m", 2)
        graph.add_edge("m", "c", "z", 3)
        graph.add_node("z")
        assert satisfies_compressed(graph, schema)
        typing = maximal_typing_compressed(graph, schema)
        assert "t" in typing.types_of("n")
        assert "u" in typing.types_of("m")

    def test_violating_multiplicity(self, schema):
        graph = CompressedGraph()
        graph.add_edge("n", "a", "m", 3)
        graph.add_edge("m", "c", "z", 1)
        graph.add_node("z")
        assert not satisfies_compressed(graph, schema)

    def test_agrees_with_unpacked_validation(self, schema):
        for multiplicity in (1, 2, 3):
            graph = CompressedGraph()
            graph.add_edge("n", "a", "m", multiplicity)
            graph.add_edge("m", "c", "z", 2)
            graph.add_node("z")
            assert satisfies_compressed(graph, schema) == satisfies(graph.unpack(), schema)

    def test_satisfies_type_compressed_single_node(self, schema):
        graph = CompressedGraph()
        graph.add_node("z")
        assert satisfies_type_compressed(graph, "z", "o", schema, {"z": {"o"}})
        assert not satisfies_type_compressed(graph, "z", "t", schema, {"z": {"t"}})

    def test_zero_multiplicity_edges_are_ignored(self, schema):
        graph = CompressedGraph()
        graph.add_edge("n", "a", "m", 2)
        graph.add_edge("n", "b", "w", 0)
        graph.add_node("w")
        typing = maximal_typing_compressed(graph, schema)
        assert "t" in typing.types_of("n")

    @pytest.mark.requires_scipy
    def test_general_shex_definition_on_compressed_graph(self):
        schema = ShExSchema({"t": "(a :: o | b :: o)[2;2]", "o": "eps"})
        good = CompressedGraph()
        good.add_edge("n", "a", "x", 1)
        good.add_edge("n", "b", "y", 1)
        good.add_node("x")
        good.add_node("y")
        assert satisfies_compressed(good, schema)
        bad = CompressedGraph()
        bad.add_edge("n", "a", "x", 3)
        bad.add_node("x")
        assert not satisfies_compressed(bad, schema)
