"""A test-only oracle: the dict-based graph the columnar
:class:`repro.graphs.graph.Graph` replaced.

Every node lives in a set and in two dicts of per-node edge-id dicts, and
every edge is an :class:`Edge` in an id-keyed table.  It answers the public
queries from those dicts directly, so
``tests/property/test_graph_oracle_parity.py`` can compare each answer of
the columnar layout with it after any sequence of mutations.
:class:`DictCompressedGraph` adds the compressed-graph checks and
:meth:`multiplicity` by a scan of the out-edges.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.intervals import Interval, ONE
from repro.errors import GraphError
from repro.graphs.graph import Edge

NodeId = Hashable
Label = str


class DictGraph:
    """The dict-of-dicts graph: a node set, per-node out/in dicts of edge
    ids, and an edge table of :class:`Edge` tuples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._nodes: Set[NodeId] = set()
        self._edges: Dict[int, Edge] = {}
        # Adjacency is an indexed set per node — a dict keyed by edge id —
        # so edge removal is O(1) instead of a list scan, while iteration
        # stays deterministic (insertion order).
        self._out: Dict[NodeId, Dict[int, None]] = {}
        self._in: Dict[NodeId, Dict[int, None]] = {}
        self._next_edge_id = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId) -> NodeId:
        """Add a node (idempotent) and return it."""
        if node not in self._nodes:
            self._nodes.add(node)
            self._out[node] = {}
            self._in[node] = {}
        return node

    def add_edge(
        self,
        source: NodeId,
        label: Label,
        target: NodeId,
        occur: object = None,
    ) -> Edge:
        """Add an edge ``source -label-> target`` with the given occurrence interval.

        ``occur`` defaults to ``1`` (the interval ``[1;1]``) and accepts anything
        :meth:`repro.core.intervals.Interval.of` does.
        """
        interval = ONE if occur is None else Interval.of(occur)
        self.add_node(source)
        self.add_node(target)
        edge = Edge(self._next_edge_id, source, target, label, interval)
        self._edges[edge.edge_id] = edge
        self._out[source][edge.edge_id] = None
        self._in[target][edge.edge_id] = None
        self._next_edge_id += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        """Remove an edge previously returned by :meth:`add_edge`.

        The stored edge must be the one passed: an :class:`Edge` from a
        *different* graph whose id happens to coincide raises
        :class:`repro.errors.GraphError` instead of silently deleting an
        unrelated edge.
        """
        stored = self._edges.get(edge.edge_id)
        if stored is None or stored != edge:
            raise GraphError(f"edge {edge} is not part of this graph")
        del self._edges[edge.edge_id]
        del self._out[edge.source][edge.edge_id]
        del self._in[edge.target][edge.edge_id]

    def remove_node(self, node: NodeId) -> None:
        """Remove a node together with all its incident edges."""
        if node not in self._nodes:
            raise GraphError(f"node {node!r} is not part of this graph")
        for edge in list(self.out_edges(node)):
            self.remove_edge(edge)
        for edge in list(self.in_edges(node)):
            self.remove_edge(edge)
        self._nodes.discard(node)
        self._out.pop(node, None)
        self._in.pop(node, None)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> Set[NodeId]:
        """The set of nodes (a live view; do not mutate)."""
        return self._nodes

    @property
    def edges(self) -> List[Edge]:
        """All edges of the graph."""
        return list(self._edges.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def out_edges(self, node: NodeId) -> List[Edge]:
        """The outbound neighborhood ``out(node)`` — all edges originating at ``node``."""
        return [self._edges[edge_id] for edge_id in self._out.get(node, ())]

    def in_edges(self, node: NodeId) -> List[Edge]:
        """All edges whose end point is ``node`` (the references to ``node``)."""
        return [self._edges[edge_id] for edge_id in self._in.get(node, ())]

    def out_degree(self, node: NodeId) -> int:
        return len(self._out.get(node, ()))

    def out_labels(self, node: NodeId) -> Set[Label]:
        """The set of predicate labels on outgoing edges of ``node``."""
        return {edge.label for edge in self.out_edges(node)}

    def out_edges_by_label(self, node: NodeId) -> Dict[Label, List[Edge]]:
        """Outgoing edges of ``node`` grouped by predicate label."""
        grouped: Dict[Label, List[Edge]] = {}
        for edge in self.out_edges(node):
            grouped.setdefault(edge.label, []).append(edge)
        return grouped

    def successors(self, node: NodeId, label: Optional[Label] = None) -> List[NodeId]:
        """End points of outgoing edges of ``node``, optionally restricted to a label."""
        return [
            edge.target
            for edge in self.out_edges(node)
            if label is None or edge.label == label
        ]

    def labels(self) -> Set[Label]:
        """All predicate labels used by the graph."""
        return {edge.label for edge in self._edges.values()}

    def intervals(self) -> Set[Interval]:
        """All occurrence intervals used by the graph."""
        return {edge.occur for edge in self._edges.values()}

    # ------------------------------------------------------------------ #
    # Class predicates
    # ------------------------------------------------------------------ #
    def is_simple(self) -> bool:
        """True for simple graphs: only the interval ``1`` and no duplicate
        (source, label, target) triples (Definition 2.1)."""
        seen: Set[Tuple[NodeId, Label, NodeId]] = set()
        for edge in self._edges.values():
            if edge.occur != ONE:
                return False
            key = (edge.source, edge.label, edge.target)
            if key in seen:
                return False
            seen.add(key)
        return True

    def is_shape_graph(self) -> bool:
        """True for shape graphs: every occurrence interval is basic (``1 ? + *``)."""
        return all(edge.occur.is_basic for edge in self._edges.values())

    def is_compressed(self) -> bool:
        """True when every interval is a singleton ``[k;k]`` and (source, label,
        target) triples are unique."""
        seen: Set[Tuple[NodeId, Label, NodeId]] = set()
        for edge in self._edges.values():
            if not edge.occur.is_singleton:
                return False
            key = (edge.source, edge.label, edge.target)
            if key in seen:
                return False
            seen.add(key)
        return True

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def _edge_tuples(self, rename=None) -> Iterator[Tuple[NodeId, Label, NodeId, Interval]]:
        """The edges as :meth:`from_edges` input, endpoints through ``rename``."""
        if rename is None:
            return (
                (edge.source, edge.label, edge.target, edge.occur)
                for edge in self._edges.values()
            )
        return (
            (rename[edge.source], edge.label, rename[edge.target], edge.occur)
            for edge in self._edges.values()
        )

    def copy(self, name: Optional[str] = None) -> "DictGraph":
        """A deep copy of the graph (edge ids are renumbered)."""
        return DictGraph.from_edges(
            self._edge_tuples(),
            nodes=self._nodes,
            name=name if name is not None else self.name,
        )

    def relabel_nodes(self, mapping: Mapping[NodeId, NodeId]) -> "DictGraph":
        """A copy of the graph with nodes renamed according to ``mapping``.

        Nodes absent from the mapping keep their identity.  The mapping must be
        injective on the graph's nodes.
        """
        renamed = {node: mapping.get(node, node) for node in self._nodes}
        if len(set(renamed.values())) != len(renamed):
            raise GraphError("node relabelling must be injective")
        return DictGraph.from_edges(
            self._edge_tuples(renamed), nodes=renamed.values(), name=self.name
        )

    def subgraph(self, nodes: Iterable[NodeId]) -> "DictGraph":
        """The induced subgraph on the given nodes."""
        keep = set(nodes)
        return DictGraph.from_edges(
            (
                edge
                for edge in self._edge_tuples()
                if edge[0] in keep and edge[2] in keep
            ),
            nodes=keep,
            name=self.name,
        )

    def disjoint_union(self, other: "DictGraph") -> "DictGraph":
        """The disjoint union; nodes are tagged ``(0, n)`` / ``(1, m)`` to avoid clashes."""
        left = {node: (0, node) for node in self._nodes}
        right = {node: (1, node) for node in other._nodes}
        return DictGraph.from_edges(
            chain(self._edge_tuples(left), other._edge_tuples(right)),
            nodes=chain(left.values(), right.values()),
            name=f"{self.name}+{other.name}",
        )

    def reachable_from(self, start: NodeId) -> Set[NodeId]:
        """Nodes reachable from ``start`` following edge direction."""
        seen: Set[NodeId] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(edge.target for edge in self.out_edges(node))
        return seen

    # ------------------------------------------------------------------ #
    # Interop / presentation
    # ------------------------------------------------------------------ #
    def triples(self) -> List[Tuple[NodeId, Label, NodeId]]:
        """The edges as ``(source, label, target)`` triples (intervals dropped)."""
        return [(edge.source, edge.label, edge.target) for edge in self._edges.values()]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, Label, NodeId, object]],
        nodes: Iterable[NodeId] = (),
        name: str = "",
    ) -> "DictGraph":
        """Build a graph from ``(source, label, target, occur)`` tuples.

        ``nodes`` are added first (isolated nodes included), then the edges;
        ``occur`` takes anything :meth:`add_edge` does.  One pass fills the
        node set, the adjacency and the edge table; the node order, the edge
        ids and the adjacency order are those of calling :meth:`add_node` per
        node and :meth:`add_edge` per edge.
        """
        graph = cls(name)
        known, table, out, into = graph._nodes, graph._edges, graph._out, graph._in
        new = tuple.__new__  # Edge(...) minus the Python-level __new__
        for node in nodes:
            if node not in known:
                known.add(node)
                out[node] = {}
                into[node] = {}
        edge_id = 0
        for source, label, target, occur in edges:
            if occur.__class__ is not Interval:
                occur = ONE if occur is None else Interval.of(occur)
            if source not in known:
                known.add(source)
                out[source] = {}
                into[source] = {}
            if target not in known:
                known.add(target)
                out[target] = {}
                into[target] = {}
            table[edge_id] = new(Edge, (edge_id, source, target, label, occur))
            out[source][edge_id] = None
            into[target][edge_id] = None
            edge_id += 1
        graph._next_edge_id = edge_id
        return graph


class DictCompressedGraph(DictGraph):
    """The oracle of :class:`repro.graphs.compressed.CompressedGraph`."""

    def add_edge(self, source, label, target, occur=None) -> Edge:
        interval = ONE if occur is None else Interval.of(occur)
        if not interval.is_singleton:
            raise GraphError(
                f"compressed graphs only allow singleton intervals, got {interval}"
            )
        for existing in self.out_edges(source):
            if existing.label == label and existing.target == target:
                raise GraphError(f"duplicate compressed edge {source!r} -{label}-> {target!r}")
        return super().add_edge(source, label, target, interval)

    def multiplicity(self, source: NodeId, label: str, target: NodeId) -> int:
        for edge in self.out_edges(source):
            if edge.label == label and edge.target == target:
                return edge.occur.lower
        return 0
