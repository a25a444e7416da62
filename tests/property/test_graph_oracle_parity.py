"""Parity of the columnar :class:`repro.graphs.graph.Graph` with the
dict-based oracle it replaced (``graph_oracle.py``).

Random sequences of ``add_node`` / ``add_edge`` / ``remove_edge`` /
``remove_node`` run on both graphs, failing alike; afterwards every public
answer must agree: the node set, the edges by id, each node's out- and
in-edges in adjacency order, the id the next edge gets, the derived
queries, the class predicates, the transformations (``copy``,
``subgraph``, ``relabel_nodes``, ``disjoint_union``) and a pickle round
trip.  The same sequences also run on graphs the bulk builders made
(``from_columns``, ``from_table``, ``load_graph``), whose rows start as
tuples and become lists as they change, so a graph with rows of both kinds
is copied, pickled and deep-copied too.  :class:`CompressedGraph` is held
to the oracle's ``multiplicity`` the same way.
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import DictCompressedGraph, DictGraph
from repro.errors import GraphError
from repro.graphs.compressed import CompressedGraph
from repro.graphs.graph import Graph
from repro.rdf import load_graph

#: The IRIs are the nodes an N-Triples document can name (``load_graph``).
IRIS = ["http://e/a", "http://e/b", "http://e/c"]
NODES = [0, 1, 2, "a", "b", ("t", 1), None] + IRIS
LABELS = ["p", "q", 5]
OCCURS = [None, "?", "*", "+", 2, 3, (0, None), (1, 4)]

_node = st.sampled_from(NODES)
_op = st.one_of(
    st.tuples(st.just("add_node"), _node),
    st.tuples(st.just("add_edge"), _node, st.sampled_from(LABELS), _node,
              st.sampled_from(OCCURS)),
    st.tuples(st.just("remove_edge"), st.integers(0, 40)),
    st.tuples(st.just("remove_node"), _node),
)
_ops = st.lists(_op, max_size=40)


def _apply(graph, op) -> object:
    """Run one operation; its result, or the class of the error it raised."""
    kind, *args = op
    try:
        if kind == "add_node":
            return graph.add_node(*args)
        if kind == "add_edge":
            return graph.add_edge(*args)
        if kind == "remove_edge":
            # The k-th edge by id, or an edge whose id is past the end.
            edges = graph.edges
            if args[0] < len(edges):
                return graph.remove_edge(edges[args[0]])
            return graph.remove_edge(edges[-1]._replace(edge_id=args[0] + 100)
                                     if edges else None)
        return graph.remove_node(*args)
    except (GraphError, AttributeError) as exc:
        return type(exc)


def _layout(graph) -> tuple:
    nodes = sorted(graph.nodes, key=repr)
    return (
        set(graph.nodes),
        graph.node_count,
        graph.edge_count,
        graph.edges,
        [graph.out_edges(node) for node in nodes],
        [graph.in_edges(node) for node in nodes],
    )


def _queries(graph) -> tuple:
    nodes = sorted(graph.nodes, key=repr)
    return (
        [graph.successors(node) for node in nodes],
        [graph.successors(node, "p") for node in nodes],
        [graph.out_degree(node) for node in nodes],
        [graph.out_labels(node) for node in nodes],
        [graph.out_edges_by_label(node) for node in nodes],
        [graph.reachable_from(node) for node in nodes],
        graph.labels(),
        graph.intervals(),
        graph.triples(),
        graph.is_simple(),
        graph.is_shape_graph(),
        graph.is_compressed(),
        graph.out_edges("absent"),
        graph.in_edges("absent"),
    )


def _next_id(graph) -> int:
    """The id the next edge gets, read off a pickled copy."""
    probe = pickle.loads(pickle.dumps(graph))
    return probe.add_edge("fresh", "p", "fresh").edge_id


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_mutations_match_the_oracle(ops):
    graph, oracle = Graph("g"), DictGraph("g")
    for op in ops:
        assert _apply(graph, op) == _apply(oracle, op), op
    assert _layout(graph) == _layout(oracle)
    assert _queries(graph) == _queries(oracle)
    assert _next_id(graph) == _next_id(oracle)


@settings(max_examples=200, deadline=None)
@given(_ops, _ops, st.sets(_node))
def test_transformations_match_the_oracle(ops, other_ops, keep):
    graph, oracle = Graph("g"), DictGraph("g")
    other, other_oracle = Graph("o"), DictGraph("o")
    for op in ops:
        _apply(graph, op)
        _apply(oracle, op)
    for op in other_ops:
        _apply(other, op)
        _apply(other_oracle, op)
    mapping = {node: ("renamed", node) for node in keep}
    pairs = [
        (graph.copy(), oracle.copy()),
        (graph.copy("c"), oracle.copy("c")),
        (graph.subgraph(keep), oracle.subgraph(keep)),
        (graph.relabel_nodes(mapping), oracle.relabel_nodes(mapping)),
        (graph.disjoint_union(other), oracle.disjoint_union(other_oracle)),
    ]
    for built, expected in pairs:
        assert type(built) is Graph and built.name == expected.name
        assert _layout(built) == _layout(expected)
        assert _next_id(built) == _next_id(expected)
    if graph.node_count > 1:
        first, second = sorted(graph.nodes, key=repr)[:2]
        clash = {first: second}
        try:
            graph.relabel_nodes(clash)
        except GraphError:
            pass
        else:
            raise AssertionError("a non-injective relabelling must raise")


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_pickle_and_deepcopy_round_trip(ops):
    graph = Graph("g")
    for op in ops:
        _apply(graph, op)
    for restored in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert type(restored) is Graph and restored.name == "g"
        assert _layout(restored) == _layout(graph)
        assert _queries(restored) == _queries(graph)
        assert _next_id(restored) == _next_id(graph)


_edge = st.tuples(_node, st.sampled_from(LABELS), _node, st.sampled_from(OCCURS))


def _bulk_pair(builder, edges, isolated):
    """A graph ``builder`` made of ``edges`` and ``isolated`` nodes, and the
    oracle built edge by edge from the same input."""
    if builder == "load_graph":
        # A document holds IRIs, interval-1 edges and each triple once.
        iri = {node: IRIS[position % len(IRIS)] for position, node in enumerate(NODES)}
        triples = dict.fromkeys(
            (iri[source], str(label), iri[target]) for source, label, target, _ in edges
        )
        text = "".join(f"<{s}> <http://e/{p}> <{t}> .\n" for s, p, t in triples)
        oracle = DictGraph.from_edges(((s, p, t, None) for s, p, t in triples), name="g")
        return load_graph(text, ntriples=True, name="g"), oracle
    oracle = DictGraph.from_edges(edges, nodes=isolated, name="g")
    source, label, target, occur = ([list(column) for column in zip(*edges)]
                                    or [[], [], [], []])
    if builder == "from_columns":
        return Graph.from_columns(source, label, target, occur, nodes=isolated, name="g"), oracle
    # A node table in another order than the edges first name the nodes.
    table = sorted(oracle.nodes, key=repr)
    row = table.index
    graph = Graph.from_table(table, list(map(row, source)), label,
                             list(map(row, target)), occur, name="g")
    return graph, oracle


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["from_columns", "from_table", "load_graph"]),
       st.lists(_edge, max_size=20), st.lists(_node, max_size=3), _ops)
def test_bulk_built_graphs_mutate_like_the_oracle(builder, edges, isolated, ops):
    graph, oracle = _bulk_pair(builder, edges, isolated)
    assert _layout(graph) == _layout(oracle)
    for op in ops:
        assert _apply(graph, op) == _apply(oracle, op), op
    assert _layout(graph) == _layout(oracle)
    assert _queries(graph) == _queries(oracle)
    assert _next_id(graph) == _next_id(oracle)
    assert _layout(graph.copy()) == _layout(oracle.copy())
    for restored in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert _layout(restored) == _layout(oracle)
        assert _queries(restored) == _queries(oracle)
        assert _next_id(restored) == _next_id(oracle)


_compressed_op = st.one_of(
    st.tuples(st.just("add_edge"), _node, st.sampled_from(LABELS), _node,
              st.sampled_from([None, 0, 2, 3, "*", (1, 2)])),
    st.tuples(st.just("remove_edge"), st.integers(0, 20)),
    st.tuples(st.just("remove_node"), _node),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_compressed_op, max_size=30))
def test_compressed_multiplicity_matches_the_oracle(ops):
    graph, oracle = CompressedGraph("c"), DictCompressedGraph("c")
    for op in ops:
        assert _apply(graph, op) == _apply(oracle, op), op
    assert _layout(graph) == _layout(oracle)
    triples = [(s, label, t) for s in NODES for label in LABELS for t in NODES]
    multiplicities = [oracle.multiplicity(*triple) for triple in triples]
    assert [graph.multiplicity(*triple) for triple in triples] == multiplicities
    restored = pickle.loads(pickle.dumps(graph))
    assert type(restored) is CompressedGraph
    assert [restored.multiplicity(*triple) for triple in triples] == multiplicities
    assert _next_id(restored) == _next_id(oracle)
