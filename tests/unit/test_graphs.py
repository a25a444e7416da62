"""Unit tests for the graph models: general, simple, shape, compressed."""

import copy
import pickle

import pytest

from repro.core.intervals import Interval, ONE
from repro.errors import GraphError, NotSimpleGraphError
from repro.graphs.compressed import CompressedGraph, pack_simple_graph
from repro.graphs.graph import Edge, Graph
from repro.graphs.shape import (
    is_detshex0_minus_graph,
    is_deterministic_shape_graph,
    is_shape_graph,
    detshex0_minus_violations,
    star_closed_references,
)
from repro.graphs.simple import assert_simple, is_simple, simple_graph_from_triples


class TestGraphBasics:
    def test_add_edge_creates_nodes(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        assert graph.nodes == {"x", "y"}
        assert graph.edge_count == 1

    def test_default_interval_is_one(self):
        graph = Graph()
        edge = graph.add_edge("x", "a", "y")
        assert edge.occur == ONE

    def test_out_edges_and_labels(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "b", "z")
        graph.add_edge("y", "a", "z")
        assert graph.out_labels("x") == {"a", "b"}
        assert graph.out_degree("x") == 2
        assert graph.successors("x", "a") == ["y"]
        assert {e.label for e in graph.in_edges("z")} == {"b", "a"}

    def test_out_edges_by_label(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "a", "z")
        grouped = graph.out_edges_by_label("x")
        assert len(grouped["a"]) == 2

    def test_remove_edge_rejects_foreign_edge_with_coinciding_id(self):
        # Regression: an Edge from a different graph whose small-integer id
        # happens to coincide must not silently delete an unrelated edge.
        ours = Graph("ours")
        kept = ours.add_edge("x", "a", "y")
        other = Graph("other")
        foreign = other.add_edge("p", "b", "q")
        assert foreign.edge_id == kept.edge_id  # ids restart per graph
        with pytest.raises(GraphError):
            ours.remove_edge(foreign)
        assert ours.edge_count == 1 and ours.out_edges("x") == [kept]
        ours.remove_edge(kept)  # the genuine edge still removes fine
        assert ours.edge_count == 0

    def test_remove_edge_twice_raises(self):
        graph = Graph()
        edge = graph.add_edge("x", "a", "y")
        graph.remove_edge(edge)
        with pytest.raises(GraphError):
            graph.remove_edge(edge)

    def test_parallel_edges_allowed(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "a", "y")
        assert graph.edge_count == 2
        assert not graph.is_simple()

    def test_remove_edge_and_node(self):
        graph = Graph()
        edge = graph.add_edge("x", "a", "y")
        graph.add_edge("y", "b", "x")
        graph.remove_edge(edge)
        assert graph.edge_count == 1
        graph.remove_node("y")
        assert graph.nodes == {"x"}
        assert graph.edge_count == 0
        with pytest.raises(GraphError):
            graph.remove_node("missing")

    def test_copy_is_independent(self):
        graph = Graph("orig")
        graph.add_edge("x", "a", "y")
        clone = graph.copy()
        clone.add_edge("y", "b", "z")
        assert graph.edge_count == 1 and clone.edge_count == 2

    def test_relabel_nodes(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        renamed = graph.relabel_nodes({"x": "n0", "y": "n1"})
        assert renamed.nodes == {"n0", "n1"}
        with pytest.raises(GraphError):
            graph.relabel_nodes({"x": "y"})

    def test_subgraph(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("y", "a", "z")
        sub = graph.subgraph({"x", "y"})
        assert sub.nodes == {"x", "y"} and sub.edge_count == 1

    def test_disjoint_union(self):
        left, right = Graph("l"), Graph("r")
        left.add_edge("x", "a", "y")
        right.add_edge("x", "b", "y")
        union = left.disjoint_union(right)
        assert union.node_count == 4 and union.edge_count == 2

    def test_reachable_from(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("y", "a", "z")
        graph.add_edge("w", "a", "x")
        assert graph.reachable_from("x") == {"x", "y", "z"}

    def test_from_triples_and_back(self):
        triples = [("x", "a", "y"), ("y", "b", "z")]
        graph = Graph.from_triples(triples)
        assert sorted(graph.triples()) == sorted(triples)

    def test_from_triples_matches_sequential_add_edge(self):
        # Parallel edges, a self-loop, a repeated triple and a node first seen
        # as a target.
        triples = [("x", "a", "y"), ("y", "b", "x"), ("x", "a", "y"), ("z", "c", "z"),
                   ("y", "a", "w"), ("x", "b", "w"), ("w", "a", "x")]
        bulk = Graph.from_triples(triples, name="bulk")
        sequential = Graph("bulk")
        for source, label, target in triples:
            sequential.add_edge(source, label, target)
        assert bulk.name == "bulk"
        assert bulk.nodes == sequential.nodes
        assert bulk.edges == sequential.edges
        for node in sequential.nodes:
            assert bulk.out_edges(node) == sequential.out_edges(node)
            assert bulk.in_edges(node) == sequential.in_edges(node)
        assert bulk.add_edge("w", "c", "v").edge_id == sequential.add_edge("w", "c", "v").edge_id

    @staticmethod
    def _layout(graph):
        """Everything the bulk builder must reproduce, in iteration order:
        the nodes, the edges by id, each node's out- and in-edge ids in
        adjacency order, and the id the next edge gets."""
        return (
            list(graph.nodes),
            graph.edges,
            {node: [e.edge_id for e in graph.out_edges(node)] for node in graph.nodes},
            {node: [e.edge_id for e in graph.in_edges(node)] for node in graph.nodes},
            len(graph.adjacency().occur),
        )

    def test_from_edges_matches_add_node_add_edge(self):
        # Isolated nodes (one repeated, one also an endpoint), tuple and int
        # ids, every occur form add_edge takes, parallel edges, a self-loop.
        nodes = ["iso", ("t", 1), 7, "iso", "x"]
        edges = [("x", "a", "y", None), ("y", "b", ("t", 1), "*"), ("x", "a", "y", 2),
                 (7, "c", 7, (0, None)), (("t", 1), "a", "z", Interval(2, 2)),
                 ("z", "b", "x", ONE)]
        bulk = Graph.from_edges(edges, nodes=nodes, name="bulk")
        sequential = Graph("bulk")
        sequential.add_nodes(nodes)
        for source, label, target, occur in edges:
            sequential.add_edge(source, label, target, occur)
        assert bulk.name == "bulk"
        assert self._layout(bulk) == self._layout(sequential)
        assert bulk.add_edge("w", "c", "v").edge_id == sequential.add_edge("w", "c", "v").edge_id

    def test_transformations_match_the_add_edge_loop(self):
        graph = Graph("g")
        graph.add_node("iso")
        for source, label, target, occur in [("x", "a", "y", None), ("y", "b", "z", "*"),
                                              ("x", "a", "y", None), ("z", "a", "x", 3)]:
            graph.add_edge(source, label, target, occur)
        graph.remove_edge(graph.out_edges("x")[0])  # ids are renumbered below

        def rebuilt(nodes, edges, name):
            expected = Graph(name)
            expected.add_nodes(nodes)
            for source, label, target, occur in edges:
                expected.add_edge(source, label, target, occur)
            return expected

        content = [(e.source, e.label, e.target, e.occur) for e in graph.edges]
        assert self._layout(graph.copy()) == self._layout(rebuilt(graph.nodes, content, "g"))
        mapping = {"x": ("n", 0), "iso": 5}
        renamed = {node: mapping.get(node, node) for node in graph.nodes}
        assert self._layout(graph.relabel_nodes(mapping)) == self._layout(rebuilt(
            renamed.values(),
            [(renamed[s], label, renamed[t], occur) for s, label, t, occur in content],
            "g",
        ))
        keep = {"x", "y", "iso"}
        assert self._layout(graph.subgraph(keep)) == self._layout(rebuilt(
            keep, [edge for edge in content if edge[0] in keep and edge[2] in keep], "g"
        ))
        other = Graph("o")
        other.add_edge("x", "c", "x")
        assert self._layout(graph.disjoint_union(other)) == self._layout(rebuilt(
            [(0, node) for node in graph.nodes] + [(1, "x")],
            [((0, s), label, (0, t), occur) for s, label, t, occur in content]
            + [((1, "x"), "c", (1, "x"), ONE)],
            "g+o",
        ))

    def test_compressed_from_edges_keeps_the_invariants(self):
        packed = CompressedGraph.from_edges([(0, "a", 1, 2), (1, "b", 0, 1)], nodes=[2])
        assert packed.multiplicity(0, "a", 1) == 2 and packed.node_count == 3
        with pytest.raises(GraphError):
            CompressedGraph.from_edges([(0, "a", 1, 2), (0, "a", 1, 1)])
        with pytest.raises(GraphError):
            CompressedGraph.from_edges([(0, "a", 1, "*")])

    def test_str_contains_edges(self):
        graph = Graph("demo")
        graph.add_edge("x", "a", "y", "*")
        rendered = str(graph)
        assert "demo" in rendered and "x -a [*]-> y" in rendered


class TestEdgeContract:
    """What ``Edge`` guarantees callers, whatever class implements it."""

    def test_assignment_raises(self):
        edge = Edge(0, "x", "y", "a", ONE)
        for field in ("edge_id", "source", "target", "label", "occur"):
            with pytest.raises(AttributeError):
                setattr(edge, field, None)
        with pytest.raises(AttributeError):
            edge.extra = 1
        assert (edge.edge_id, edge.source, edge.target, edge.label, edge.occur) == (
            0, "x", "y", "a", ONE
        )

    def test_equal_fields_give_equal_edges_with_one_hash(self):
        first = Edge(3, ("t", 1), "y", "a", Interval(2, 5))
        second = Edge(3, ("t", 1), "y", "a", Interval(2, 5))
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        for other in (Edge(4, ("t", 1), "y", "a", Interval(2, 5)),
                      Edge(3, ("t", 1), "z", "a", Interval(2, 5)),
                      Edge(3, ("t", 1), "y", "b", Interval(2, 5)),
                      Edge(3, ("t", 1), "y", "a", ONE)):
            assert first != other

    def test_str_and_repr(self):
        assert str(Edge(0, "x", "y", "a", ONE)) == "x -a-> y"
        assert str(Edge(1, "x", 7, "b", Interval(2, 3))) == "x -b [[2;3]]-> 7"
        assert repr(Edge(0, "x", "y", "a", ONE)) == (
            "Edge(edge_id=0, source='x', target='y', label='a', occur=Interval(1, 1))"
        )

    def test_pickle_and_copy_round_trip(self):
        edge = Edge(5, ("t", 1), "y", "a", Interval(0, None))
        for restored in (
            pickle.loads(pickle.dumps(edge)),
            pickle.loads(pickle.dumps(edge, protocol=0)),
            copy.copy(edge),
            copy.deepcopy(edge),
        ):
            assert type(restored) is Edge and restored == edge

    def test_from_edges_equals_the_add_edge_loop(self):
        content = [("x", "a", "y", None), ("y", "b", "x", "*"), ("x", "a", "y", 2)]
        bulk = Graph.from_edges(content)
        sequential = Graph()
        added = [sequential.add_edge(*entry) for entry in content]
        assert bulk.edges == sequential.edges == added
        assert all(type(edge) is Edge for edge in bulk.edges)
        assert [hash(edge) for edge in bulk.edges] == [hash(edge) for edge in added]
        bulk.remove_edge(added[1])  # an equal Edge from another graph
        assert [edge.edge_id for edge in bulk.edges] == [0, 2]


class TestGraphClasses:
    def test_simple_graph_detection(self):
        graph = simple_graph_from_triples([("x", "a", "y"), ("x", "a", "y")])
        assert graph.edge_count == 1  # duplicates collapse
        assert is_simple(graph)
        assert assert_simple(graph) is graph

    def test_non_simple_rejected(self):
        graph = Graph()
        graph.add_edge("x", "a", "y", "*")
        with pytest.raises(NotSimpleGraphError):
            assert_simple(graph)

    def test_shape_graph_detection(self):
        graph = Graph()
        graph.add_edge("t", "a", "s", "*")
        graph.add_edge("t", "b", "s", "?")
        assert is_shape_graph(graph)
        graph.add_edge("t", "c", "s", Interval(2, 3))
        assert not is_shape_graph(graph)

    def test_deterministic_shape_graph(self):
        graph = Graph()
        graph.add_edge("t", "a", "s")
        graph.add_edge("t", "b", "s")
        assert is_deterministic_shape_graph(graph)
        graph.add_edge("t", "a", "u")
        assert not is_deterministic_shape_graph(graph)

    def test_star_closed_references(self):
        graph = Graph()
        star_edge = graph.add_edge("root", "rel", "root", "*")
        one_edge = graph.add_edge("root", "owner", "user", "1")
        closed = star_closed_references(graph)
        assert closed[star_edge.edge_id]
        # the 1-edge is *-closed because its source is referenced only via '*'
        assert closed[one_edge.edge_id]

    def test_unreferenced_source_gives_unclosed_reference(self):
        graph = Graph()
        edge = graph.add_edge("root", "owner", "user", "1")
        closed = star_closed_references(graph)
        assert not closed[edge.edge_id]

    def test_detshex0_minus_membership(self):
        graph = Graph()
        graph.add_edge("bug", "related", "bug", "*")
        graph.add_edge("bug", "reportedBy", "user", "1")
        graph.add_edge("user", "email", "lit", "?")
        graph.add_node("lit")
        assert is_detshex0_minus_graph(graph)
        assert detshex0_minus_violations(graph) == []

    def test_detshex0_minus_rejects_plus(self):
        graph = Graph()
        graph.add_edge("t", "a", "s", "+")
        graph.add_node("s")
        assert not is_detshex0_minus_graph(graph)
        assert any("'+'" in reason for reason in detshex0_minus_violations(graph))

    def test_detshex0_minus_rejects_unreferenced_optional(self):
        graph = Graph()
        graph.add_edge("t", "a", "s", "?")
        graph.add_node("s")
        assert not is_detshex0_minus_graph(graph)

    def test_detshex0_minus_rejects_non_star_closed_optional(self):
        graph = Graph()
        graph.add_edge("root", "x", "value", "1")
        graph.add_edge("value", "t", "leaf", "?")
        graph.add_node("leaf")
        assert not is_detshex0_minus_graph(graph)


class TestCompressedGraphs:
    def test_requires_singleton_intervals(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 3)
        with pytest.raises(GraphError):
            graph.add_edge("x", "b", "z", "*")

    def test_rejects_duplicate_labelled_edges(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 2)
        with pytest.raises(GraphError):
            graph.add_edge("x", "a", "y", 1)

    def test_multiplicity_lookup(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 4)
        assert graph.multiplicity("x", "a", "y") == 4
        assert graph.multiplicity("x", "b", "y") == 0

    def test_unpack_counts(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 3)
        graph.add_edge("y", "b", "z", 2)
        assert graph.unpacked_node_count() == 1 + 3 + 2
        unpacked = graph.unpack()
        assert unpacked.node_count == graph.unpacked_node_count()
        assert unpacked.edge_count == graph.unpacked_edge_count()
        assert unpacked.is_simple()

    def test_unpack_copies_share_out_neighborhood(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 2)
        graph.add_edge("y", "b", "z", 1)
        unpacked = graph.unpack()
        for index in range(2):
            assert len(unpacked.out_edges(("y", index))) == 1

    def test_unpack_respects_budget(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 1000)
        with pytest.raises(GraphError):
            graph.unpack(max_nodes=10)

    def test_unpack_exponential_in_binary_size(self):
        small = CompressedGraph()
        small.add_edge("x", "a", "y", 2)
        large = CompressedGraph()
        large.add_edge("x", "a", "y", 2 ** 10)
        # the description length grows by a few bits, the unpacking by ~2^10
        assert large.unpacked_node_count() > 100 * small.unpacked_node_count()

    def test_pack_simple_graph(self):
        graph = Graph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "b", "y")
        packed = pack_simple_graph(graph)
        assert packed.multiplicity("x", "a", "y") == 2
        assert packed.multiplicity("x", "b", "y") == 1

    def test_pack_rejects_intervals(self):
        graph = Graph()
        graph.add_edge("x", "a", "y", "*")
        with pytest.raises(GraphError):
            pack_simple_graph(graph)

    def test_is_compressed_predicate(self):
        graph = CompressedGraph()
        graph.add_edge("x", "a", "y", 2)
        assert graph.is_compressed()
        plain = Graph()
        plain.add_edge("x", "a", "y", "*")
        assert not plain.is_compressed()
