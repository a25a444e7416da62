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

The class below stores the tuple as columns.  ``E`` is the range of edge
ids, and ``source``, ``target``, ``lab`` and ``occur`` are four lists
indexed by edge id.  An id is never reused: removing an edge leaves a
tombstone, ``None`` in every column.  ``N`` is a node table, an
insertion-ordered dict from node id to row number, and each row has the
ids of its out-edges and its in-edges in insertion order, which serves the
access pattern of the paper's algorithms: iterating the outbound
neighborhood of a node.  No per-edge object is kept: an :class:`Edge` is
built when :attr:`Graph.edges`, :meth:`Graph.out_edges`,
:meth:`Graph.in_edges` or :meth:`Graph.add_edge` hands one out, and hot
loops read the columns through :meth:`Graph.adjacency`.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, count, repeat
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
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
    also equals the plain tuple of its fields) and it pickles.  A graph
    builds one on demand from its columns.
    """

    edge_id: int
    source: NodeId
    target: NodeId
    label: Label
    occur: Interval

    def __str__(self) -> str:
        occur = "" if self.occur == ONE else f" [{self.occur}]"
        return f"{self.source} -{self.label}{occur}-> {self.target}"


#: ``Edge(...)`` minus the Python-level ``__new__``.
_edge = Edge._make


class Adjacency(NamedTuple):
    """The live tables behind a :class:`Graph` (see :meth:`Graph.adjacency`).

    ``out[index[node]]`` and ``into[index[node]]`` list the ids of the
    node's out- and in-edges in insertion order; ``source[e]``,
    ``label[e]``, ``target[e]`` and ``occur[e]`` are edge ``e``'s fields.
    Read them, do not mutate them.
    """

    index: Dict[NodeId, int]
    out: List[List[int]]
    into: List[List[int]]
    source: List[NodeId]
    label: List[Label]
    target: List[NodeId]
    occur: List[Optional[Interval]]


def _rows(ids: List[int], ends: List[int], size: int) -> List[List[int]]:
    """Per row ``0 .. size-1``, the ids whose entry in ``ends`` is that row,
    ascending: one stable sort and one slice per row, no per-edge loop.

    The rows hold the very int objects of ``ids``, so the out- and in-rows
    of one graph share them."""
    order = sorted(ids, key=ends.__getitem__)
    tally = Counter(ends)
    cuts = list(accumulate(map(tally.get, range(size), repeat(0)), initial=0))
    return list(map(order.__getitem__, map(slice, cuts, cuts[1:])))


class Graph:
    """A mutable general graph (Definition 2.1), stored as columns.

    Nodes are arbitrary hashable identifiers.  Edges are created through
    :meth:`add_edge` and identified by small integers; parallel edges with the
    same label are allowed, as the general model requires.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._index: Dict[NodeId, int] = {}
        self._out: List[Optional[List[int]]] = []
        self._in: List[Optional[List[int]]] = []
        self._source: List[NodeId] = []
        self._label: List[Label] = []
        self._target: List[NodeId] = []
        self._occur: List[Optional[Interval]] = []
        self._edge_count = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId) -> NodeId:
        """Add a node (idempotent) and return it."""
        if node not in self._index:
            self._index[node] = len(self._out)
            self._out.append([])
            self._in.append([])
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
        edge_id = len(self._occur)
        self._source.append(source)
        self._label.append(label)
        self._target.append(target)
        self._occur.append(interval)
        self._out[self._index[source]].append(edge_id)
        self._in[self._index[target]].append(edge_id)
        self._edge_count += 1
        return _edge((edge_id, source, target, label, interval))

    def add_edges(self, edges: Iterable[Tuple[NodeId, Label, NodeId]]) -> None:
        """Add many ``(source, label, target)`` edges with interval ``1``."""
        for source, label, target in edges:
            self.add_edge(source, label, target)

    def remove_edge(self, edge: Edge) -> None:
        """Remove an edge previously returned by :meth:`add_edge`.

        The stored edge must be the one passed: an :class:`Edge` from a
        *different* graph whose id happens to coincide raises
        :class:`repro.errors.GraphError` instead of silently deleting an
        unrelated edge.  The id is not reused.
        """
        edge_id = edge.edge_id
        if not (
            0 <= edge_id < len(self._occur)
            and self._occur[edge_id] is not None
            and self._stored(edge_id) == edge
        ):
            raise GraphError(f"edge {edge} is not part of this graph")
        self._out[self._index[edge.source]].remove(edge_id)
        self._in[self._index[edge.target]].remove(edge_id)
        self._source[edge_id] = self._label[edge_id] = None
        self._target[edge_id] = self._occur[edge_id] = None
        self._edge_count -= 1

    def remove_node(self, node: NodeId) -> None:
        """Remove a node together with all its incident edges."""
        if node not in self._index:
            raise GraphError(f"node {node!r} is not part of this graph")
        for edge in self.out_edges(node):
            self.remove_edge(edge)
        for edge in self.in_edges(node):
            self.remove_edge(edge)
        row = self._index.pop(node)
        self._out[row] = self._in[row] = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _stored(self, edge_id: int) -> Edge:
        return _edge((
            edge_id,
            self._source[edge_id],
            self._target[edge_id],
            self._label[edge_id],
            self._occur[edge_id],
        ))

    @property
    def nodes(self) -> AbstractSet[NodeId]:
        """The set of nodes, in insertion order (a live view)."""
        return self._index.keys()

    @property
    def edges(self) -> List[Edge]:
        """All edges of the graph, by id."""
        return list(map(_edge, compress(
            zip(count(), self._source, self._target, self._label, self._occur),
            self._occur,
        )))

    @property
    def node_count(self) -> int:
        return len(self._index)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_node(self, node: NodeId) -> bool:
        return node in self._index

    def out_edges(self, node: NodeId) -> List[Edge]:
        """The outbound neighborhood ``out(node)`` — all edges originating at ``node``."""
        row = self._index.get(node)
        return [] if row is None else list(map(self._stored, self._out[row]))

    def in_edges(self, node: NodeId) -> List[Edge]:
        """All edges whose end point is ``node`` (the references to ``node``)."""
        row = self._index.get(node)
        return [] if row is None else list(map(self._stored, self._in[row]))

    def adjacency(self) -> Adjacency:
        """The live node table, rows and edge columns behind the queries above.

        For loops that visit every edge of a region once and cannot afford
        an :class:`Edge` per visit; do not mutate them.
        """
        return Adjacency(
            self._index, self._out, self._in,
            self._source, self._label, self._target, self._occur,
        )

    def out_degree(self, node: NodeId) -> int:
        row = self._index.get(node)
        return 0 if row is None else len(self._out[row])

    def out_labels(self, node: NodeId) -> Set[Label]:
        """The set of predicate labels on outgoing edges of ``node``."""
        row = self._index.get(node)
        return set() if row is None else set(map(self._label.__getitem__, self._out[row]))

    def out_edges_by_label(self, node: NodeId) -> Dict[Label, List[Edge]]:
        """Outgoing edges of ``node`` grouped by predicate label."""
        grouped: Dict[Label, List[Edge]] = {}
        for edge in self.out_edges(node):
            grouped.setdefault(edge.label, []).append(edge)
        return grouped

    def successors(self, node: NodeId, label: Optional[Label] = None) -> List[NodeId]:
        """End points of outgoing edges of ``node``, optionally restricted to a label."""
        row = self._index.get(node)
        if row is None:
            return []
        ids = self._out[row]
        if label is not None:
            ids = [edge_id for edge_id in ids if self._label[edge_id] == label]
        return list(map(self._target.__getitem__, ids))

    def _live(self) -> List[int]:
        """The ids of the edges not removed, ascending."""
        return list(compress(count(), self._occur))

    def labels(self) -> Set[Label]:
        """All predicate labels used by the graph."""
        return set(map(self._label.__getitem__, self._live()))

    def intervals(self) -> Set[Interval]:
        """All occurrence intervals used by the graph."""
        return set(filter(None, self._occur))

    # ------------------------------------------------------------------ #
    # Class predicates
    # ------------------------------------------------------------------ #
    def _unique_triples(self) -> bool:
        """No two edges share ``(source, label, target)``."""
        live = self._live()
        return len(live) == len(set(zip(
            map(self._source.__getitem__, live),
            map(self._label.__getitem__, live),
            map(self._target.__getitem__, live),
        )))

    def is_simple(self) -> bool:
        """True for simple graphs: only the interval ``1`` and no duplicate
        (source, label, target) triples (Definition 2.1)."""
        return self.intervals() <= {ONE} and self._unique_triples()

    def is_shape_graph(self) -> bool:
        """True for shape graphs: every occurrence interval is basic (``1 ? + *``)."""
        return all(occur.is_basic for occur in self.intervals())

    def is_compressed(self) -> bool:
        """True when every interval is a singleton ``[k;k]`` and (source, label,
        target) triples are unique."""
        return (
            all(occur.is_singleton for occur in self.intervals())
            and self._unique_triples()
        )

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def _columns(self, rename=None, ids=None) -> Tuple[list, list, list, list]:
        """Fresh ``(source, label, target, occur)`` columns of the edges
        ``ids`` (default: every live edge), endpoints through ``rename``."""
        if ids is None:
            ids = self._live()
        source = map(self._source.__getitem__, ids)
        target = map(self._target.__getitem__, ids)
        if rename is not None:
            source = map(rename.__getitem__, source)
            target = map(rename.__getitem__, target)
        return (
            list(source),
            list(map(self._label.__getitem__, ids)),
            list(target),
            list(map(self._occur.__getitem__, ids)),
        )

    def copy(self, name: Optional[str] = None) -> "Graph":
        """A deep copy of the graph (edge ids are renumbered)."""
        return Graph.from_columns(
            *self._columns(),
            nodes=self._index,
            name=name if name is not None else self.name,
        )

    def relabel_nodes(self, mapping: Mapping[NodeId, NodeId]) -> "Graph":
        """A copy of the graph with nodes renamed according to ``mapping``.

        Nodes absent from the mapping keep their identity.  The mapping must be
        injective on the graph's nodes.
        """
        renamed = {node: mapping.get(node, node) for node in self._index}
        if len(set(renamed.values())) != len(renamed):
            raise GraphError("node relabelling must be injective")
        return Graph.from_columns(
            *self._columns(renamed), nodes=renamed.values(), name=self.name
        )

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """The induced subgraph on the given nodes."""
        keep = set(nodes)
        source, target = self._source, self._target
        inside = [
            edge_id
            for edge_id in self._live()
            if source[edge_id] in keep and target[edge_id] in keep
        ]
        return Graph.from_columns(*self._columns(ids=inside), nodes=keep, name=self.name)

    def disjoint_union(self, other: "Graph") -> "Graph":
        """The disjoint union; nodes are tagged ``(0, n)`` / ``(1, m)`` to avoid clashes."""
        left = {node: (0, node) for node in self._index}
        right = {node: (1, node) for node in other._index}
        columns = zip(self._columns(left), other._columns(right))
        return Graph.from_columns(
            *(first + second for first, second in columns),
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
            frontier.extend(self.successors(node))
        return seen

    # ------------------------------------------------------------------ #
    # Interop / presentation
    # ------------------------------------------------------------------ #
    def triples(self) -> List[Tuple[NodeId, Label, NodeId]]:
        """The edges as ``(source, label, target)`` triples (intervals dropped)."""
        source, label, target, _ = self._columns()
        return list(zip(source, label, target))

    @classmethod
    def from_columns(
        cls,
        source: List[NodeId],
        label: List[Label],
        target: List[NodeId],
        occur: List[Interval],
        nodes: Iterable[NodeId] = (),
        name: str = "",
    ) -> "Graph":
        """The graph whose edge ``i`` is ``source[i] -label[i]-> target[i]``
        with interval ``occur[i]``.

        The graph takes the four lists as its columns, without a copy.
        ``nodes`` are added first (isolated nodes included), then the
        endpoints; an ``occur`` entry that is not an :class:`Interval`
        takes anything :meth:`add_edge` does.  The node order, the edge ids
        and the adjacency order are those of calling :meth:`add_node` per
        node and :meth:`add_edge` per edge, and no step loops over the
        edges in Python.
        """
        index = dict(zip(
            dict.fromkeys(chain(nodes, chain.from_iterable(zip(source, target)))),
            count(),
        ))
        return cls._assemble(
            index, source, label, target, occur,
            list(map(index.__getitem__, source)), list(map(index.__getitem__, target)),
            name,
        )

    @classmethod
    def from_table(
        cls,
        nodes: List[NodeId],
        source_rows: List[int],
        label: List[Label],
        target_rows: List[int],
        occur: List[Interval],
        name: str = "",
    ) -> "Graph":
        """The graph over the node table ``nodes`` (distinct, in order)
        whose edge ``i`` runs from ``nodes[source_rows[i]]`` to
        ``nodes[target_rows[i]]`` under ``label[i]`` and ``occur[i]``: the
        form of a columnar snapshot.  It equals :meth:`from_columns` of the
        endpoint columns over ``nodes`` and takes ``label`` and ``occur``
        without a copy.  A row outside the table raises ``IndexError``.
        """
        index = dict(zip(nodes, count()))
        if len(index) != len(nodes):
            raise GraphError("a node table must list each node once")
        if min(chain(source_rows, target_rows), default=0) < 0:
            raise IndexError("a node row is negative")
        return cls._assemble(
            index, list(map(nodes.__getitem__, source_rows)), label,
            list(map(nodes.__getitem__, target_rows)), occur,
            source_rows, target_rows, name,
        )

    @classmethod
    def _assemble(
        cls, index, source, label, target, occur, source_rows, target_rows, name
    ) -> "Graph":
        """The graph of a node table and its edge columns, ``source_rows``
        and ``target_rows`` numbering the endpoints by ``index``."""
        size = len(occur)
        if not len(source) == len(label) == len(target) == size:
            raise GraphError("edge columns must have one entry per edge")
        if not set(map(type, occur)) <= {Interval}:
            occur[:] = [ONE if entry is None else Interval.of(entry) for entry in occur]
        graph = cls(name)
        ids = list(range(size))
        graph._index = index
        graph._out = _rows(ids, source_rows, len(index))
        graph._in = _rows(ids, target_rows, len(index))
        graph._source, graph._label, graph._target, graph._occur = source, label, target, occur
        graph._edge_count = size
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, Label, NodeId, object]],
        nodes: Iterable[NodeId] = (),
        name: str = "",
    ) -> "Graph":
        """Build a graph from ``(source, label, target, occur)`` tuples.

        :meth:`from_columns` of their transpose: ``nodes`` are added first
        (isolated nodes included), then the edges, with the node order,
        edge ids and adjacency order of an :meth:`add_node` /
        :meth:`add_edge` loop.
        """
        entries = list(edges)
        if not set(map(len, entries)) <= {4}:
            raise GraphError("edges must be (source, label, target, occur) tuples")
        columns = [list(column) for column in zip(*entries)] or [[], [], [], []]
        return cls.from_columns(*columns, nodes=nodes, name=name)

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Tuple[NodeId, Label, NodeId]],
        name: str = "",
    ) -> "Graph":
        """Build a graph from ``(source, label, target)`` triples with interval ``1``."""
        return cls.from_edges(((s, p, o, ONE) for s, p, o in triples), name=name)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __str__(self) -> str:
        header = f"Graph {self.name!r}: {self.node_count} nodes, {self.edge_count} edges"
        lines = [header]
        for node in sorted(self._index, key=repr):
            for edge in self.out_edges(node):
                lines.append(f"  {edge}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Graph {self.name!r} |N|={self.node_count} |E|={self.edge_count}>"
