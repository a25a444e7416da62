"""The general graph model of Definition 2.1.

A graph is a tuple ``(N, E, source, target, lab, occur)``: a finite set of
nodes, a finite set of edges, functions giving each edge its origin and end
point, a predicate label from the fixed alphabet Σ, and an occurrence interval.
The model deliberately allows several edges between the same pair of nodes with
the same label; the derived classes of graphs are characterised by restrictions:

* a **simple graph** uses only the interval ``1`` and has no two edges with the
  same origin, end point, and label — this is the abstraction of RDF graphs;
* a **shape graph** uses only basic intervals (``1 ? + *``) — this is the
  graphical form of ShEx(RBE0) schemas;
* a **compressed graph** uses only singleton intervals ``[k;k]`` and at most one
  edge per (origin, label, end point) — see :mod:`repro.graphs.compressed`.

The class below is a straightforward adjacency structure optimised for the
access pattern of the paper's algorithms: iterating the outbound neighborhood
of a node, grouped by label.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.intervals import Interval, ONE
from repro.errors import GraphError

NodeId = Hashable
Label = str


class Edge(NamedTuple):
    """A single edge: origin, end point, predicate label, occurrence interval.

    An immutable named tuple: equality and hashing are by fields (an ``Edge``
    also equals the plain tuple of its fields), it pickles, and building one
    costs a tuple, which is most of :meth:`Graph.from_edges`.
    """

    edge_id: int
    source: NodeId
    target: NodeId
    label: Label
    occur: Interval

    def __str__(self) -> str:
        occur = "" if self.occur == ONE else f" [{self.occur}]"
        return f"{self.source} -{self.label}{occur}-> {self.target}"


class Graph:
    """A mutable general graph (Definition 2.1).

    Nodes are arbitrary hashable identifiers.  Edges are created through
    :meth:`add_edge` and identified by small integers; parallel edges with the
    same label are allowed, as the general model requires.
    """

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

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        for node in nodes:
            self.add_node(node)

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

    def add_edges(self, edges: Iterable[Tuple[NodeId, Label, NodeId]]) -> None:
        """Add many ``(source, label, target)`` edges with interval ``1``."""
        for source, label, target in edges:
            self.add_edge(source, label, target)

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

    def has_node(self, node: NodeId) -> bool:
        return node in self._nodes

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

    def copy(self, name: Optional[str] = None) -> "Graph":
        """A deep copy of the graph (edge ids are renumbered)."""
        return Graph.from_edges(
            self._edge_tuples(),
            nodes=self._nodes,
            name=name if name is not None else self.name,
        )

    def relabel_nodes(self, mapping: Mapping[NodeId, NodeId]) -> "Graph":
        """A copy of the graph with nodes renamed according to ``mapping``.

        Nodes absent from the mapping keep their identity.  The mapping must be
        injective on the graph's nodes.
        """
        renamed = {node: mapping.get(node, node) for node in self._nodes}
        if len(set(renamed.values())) != len(renamed):
            raise GraphError("node relabelling must be injective")
        return Graph.from_edges(
            self._edge_tuples(renamed), nodes=renamed.values(), name=self.name
        )

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """The induced subgraph on the given nodes."""
        keep = set(nodes)
        return Graph.from_edges(
            (
                edge
                for edge in self._edge_tuples()
                if edge[0] in keep and edge[2] in keep
            ),
            nodes=keep,
            name=self.name,
        )

    def disjoint_union(self, other: "Graph") -> "Graph":
        """The disjoint union; nodes are tagged ``(0, n)`` / ``(1, m)`` to avoid clashes."""
        left = {node: (0, node) for node in self._nodes}
        right = {node: (1, node) for node in other._nodes}
        return Graph.from_edges(
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
    ) -> "Graph":
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

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Tuple[NodeId, Label, NodeId]],
        name: str = "",
    ) -> "Graph":
        """Build a graph from ``(source, label, target)`` triples with interval ``1``."""
        return cls.from_edges(((s, p, o, ONE) for s, p, o in triples), name=name)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __str__(self) -> str:
        header = f"Graph {self.name!r}: {self.node_count} nodes, {self.edge_count} edges"
        lines = [header]
        for node in sorted(self._nodes, key=repr):
            for edge in self.out_edges(node):
                lines.append(f"  {edge}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Graph {self.name!r} |N|={self.node_count} |E|={self.edge_count}>"
