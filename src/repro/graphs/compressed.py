"""Compressed graphs and their unpacking (Section 6.1, Proposition 6.1).

A *compressed graph* attaches to every edge a singleton interval ``[k;k]``
giving the number of parallel edges it stands for, and — like simple graphs —
allows only one edge per (source, label, target) triple.  Its *unpacking* is the
simple graph obtained by making a sufficient number of copies of every node so
that every copy receives at most one incoming edge, while every copy keeps the
full outbound neighborhood.  Because multiplicities are written in binary the
unpacking can be exponentially larger than the compressed graph
(Proposition 6.1); the benchmark ``bench_compressed_unpack`` measures exactly
this blow-up.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.intervals import Interval, ONE
from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph

NodeId = Hashable


class CompressedGraph(Graph):
    """A graph restricted to singleton intervals and unique labelled edges."""

    def add_edge(self, source, label, target, occur=None) -> Edge:
        interval = ONE if occur is None else Interval.of(occur)
        if not interval.is_singleton:
            raise GraphError(
                f"compressed graphs only allow singleton intervals, got {interval}"
            )
        if self._find(source, label, target) is not None:
            raise GraphError(
                f"duplicate compressed edge {source!r} -{label}-> {target!r}; "
                "merge multiplicities instead"
            )
        return super().add_edge(source, label, target, interval)

    @classmethod
    def _assemble(cls, *tables) -> "CompressedGraph":
        """Every bulk builder (:meth:`from_columns`, :meth:`from_table`,
        :meth:`from_edges`), then one pass over the columns checking the
        invariants :meth:`add_edge` checks per edge."""
        graph = super()._assemble(*tables)
        if not graph.is_compressed():
            raise GraphError(
                "compressed graphs need singleton intervals and unique "
                "(source, label, target) edges"
            )
        return graph

    def _find(self, source: NodeId, label: str, target: NodeId) -> Optional[int]:
        """The id of the edge ``source -label-> target``, or ``None``."""
        index, out, _, _, labels, targets, _ = self.adjacency()
        row = index.get(source)
        for edge_id in () if row is None else out[row]:
            if labels[edge_id] == label and targets[edge_id] == target:
                return edge_id
        return None

    def multiplicity(self, source: NodeId, label: str, target: NodeId) -> int:
        """The multiplicity recorded for the given labelled edge (0 when absent)."""
        edge_id = self._find(source, label, target)
        return 0 if edge_id is None else self.adjacency().occur[edge_id].lower

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    def _copy_counts(self) -> Dict[NodeId, int]:
        """Number of copies of every node in the unpacking.

        A node needs as many copies as the largest multiplicity of a single
        incoming compressed edge (so that the parallel edges it stands for can
        reach pairwise-distinct copies, keeping the unpacking simple), with a
        minimum of one copy.
        """
        index, _, into, _, _, _, occur = self.adjacency()
        return {
            node: max((occur[edge_id].lower for edge_id in into[row]), default=1) or 1
            for node, row in index.items()
        }

    def unpacked_node_count(self) -> int:
        """Number of nodes of the unpacking, without materialising it."""
        return sum(self._copy_counts().values())

    def unpacked_edge_count(self) -> int:
        """Number of edges of the unpacking, without materialising it."""
        copies = self._copy_counts()
        return sum(copies[edge.source] * edge.occur.lower for edge in self.edges)

    # ------------------------------------------------------------------ #
    # Unpacking
    # ------------------------------------------------------------------ #
    def unpack(self, max_nodes: Optional[int] = None) -> Graph:
        """Materialise the simple graph this compressed graph stands for.

        Every node ``n`` becomes copies ``(n, 0), (n, 1), ...`` — as many as the
        largest multiplicity of an incoming compressed edge — and every
        compressed edge of multiplicity ``k`` becomes, for *each* copy of its
        source, ``k`` edges to the ``k`` distinct first copies of its target.
        All copies of a node therefore carry identical outbound neighborhoods,
        which is what makes the unpacking satisfy exactly the same schemas as
        the compressed graph (the property Proposition 6.1 relies on).

        ``max_nodes`` guards against accidentally materialising the exponential
        blow-up; a :class:`GraphError` is raised when the bound would be
        exceeded.
        """
        expected = self.unpacked_node_count()
        if max_nodes is not None and expected > max_nodes:
            raise GraphError(
                f"unpacking would create {expected} nodes, exceeding the bound {max_nodes}"
            )
        copies = self._copy_counts()
        unpacked = Graph(f"unpack({self.name})" if self.name else "unpacked")
        for node, count in copies.items():
            for index in range(count):
                unpacked.add_node((node, index))
        for edge in self.edges:
            multiplicity = edge.occur.lower
            if multiplicity == 0:
                continue
            for source_index in range(copies[edge.source]):
                for target_index in range(multiplicity):
                    unpacked.add_edge(
                        (edge.source, source_index),
                        edge.label,
                        (edge.target, target_index),
                    )
        return unpacked


def pack_simple_graph(graph: Graph, name: str = "") -> CompressedGraph:
    """Compress a (multi)graph by merging parallel same-labelled edges.

    Parallel edges between the same pair of nodes with the same label are
    replaced by a single edge carrying their count as a singleton interval.
    Occurrence intervals other than ``1`` are rejected: packing is defined on
    simple graphs (and on the node-fused multigraphs produced by the
    kind-compression of Section 6.1).
    """
    counts: Dict[Tuple[NodeId, str, NodeId], int] = {}
    for edge in graph.edges:
        if edge.occur != ONE:
            raise GraphError("pack_simple_graph expects edges with interval 1")
        key = (edge.source, edge.label, edge.target)
        counts[key] = counts.get(key, 0) + 1
    packed = CompressedGraph(name or f"pack({graph.name})")
    packed.add_nodes(graph.nodes)
    for (source, label, target), count in counts.items():
        packed.add_edge(source, label, target, Interval.singleton(count))
    return packed
