"""The kind partition (Section 6.1 compression) and its quotient view.

:func:`kind_partition` computes the coarsest counting-bisimulation partition
of a graph's nodes, and :func:`kind_compress` quotients the graph by it into
a :class:`KindView`.  No typing path reads the view: the fixpoint kernel's
row memo (:func:`repro.engine.fixpoint._stabilise_objects`) types alike
nodes once without building a partition.

A node's kind is determined by its *row* — the multiset of ``(label, kind of
target)`` over its out-edges — and in a coarsest partition no two kinds share
a row.  On an acyclic graph the kinds can therefore be computed by
**hash-consing, sinks first**: visit the nodes in Kahn order, read each
node's row over its targets' final kinds, and look the row up — a hit joins
that kind, a miss mints a fresh one.  One pass, no refinement rounds.  Only
the nodes that reach a cycle need the round-based refinement
(:func:`_refine_rounds`); the build hashes every other node first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.intervals import Interval
from repro.graphs.compressed import CompressedGraph
from repro.graphs.graph import Graph, Label
from repro.graphs.scc import peel

NodeId = Hashable

#: A quotient out-edge row in canonical form: the sorted
#: ``((label, target kind), per-member edge count)`` pairs.
Row = Tuple[Tuple[Tuple[Label, int], int], ...]


def row_of(graph: Graph, node: NodeId, kind_of: Dict[NodeId, int]) -> Row:
    """``node``'s canonical row: its out-edges counted by ``(label, kind)``.

    Intervals are ignored, as the view serves the plain semantics.
    """
    counts: Dict[Tuple[Label, int], int] = {}
    for edge in graph.out_edges(node):
        key = (edge.label, kind_of[edge.target])
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def kind_partition(graph: Graph) -> Dict[NodeId, int]:
    """The coarsest counting-bisimulation partition of ``graph``'s nodes.

    Two nodes share a kind iff they have identical *multisets* of
    ``(label, kind of target)`` over their out-edges — the neighbourhood
    signature the fixpoint kernel memoises, iterated to a fixed point.
    Kinds are numbered by first appearance in ``repr`` order of the nodes.

    The nodes that reach no cycle are kinded in one sinks-first
    hash-consing pass (each node's row is final once its successors are
    kinded).  The nodes that reach a cycle, if any, are then refined from
    one block, splitting by signature until stable (at most as many rounds
    as there are such nodes), with their other successors' kinds read as
    final.  A node that reaches a cycle is never counting-bisimilar to one
    that does not (by induction on the height of the latter), so the two
    parts share no kind.  Kinds are renumbered once at the end, giving the
    dict one refinement of the whole graph from one block would.
    """
    order = sorted(graph.nodes, key=repr)
    peeled, cyclic = peel(graph, order)
    provisional: Dict[NodeId, int] = {}
    index: Dict[Row, int] = {}
    for node in peeled:
        row = row_of(graph, node, provisional)
        provisional[node] = index.setdefault(row, len(index))
    if cyclic:
        refined = [node for node in order if node in cyclic]
        provisional = _refine_rounds(graph, refined, provisional)
    numbering: Dict[int, int] = {}
    return {
        node: numbering.setdefault(provisional[node], len(numbering))
        for node in order
    }


def _refine_rounds(
    graph: Graph, order: List[NodeId], frozen: Optional[Dict[NodeId, int]] = None
) -> Dict[NodeId, int]:
    """Signature refinement from one block over ``order``.

    Successors outside ``order`` must be keys of ``frozen``, whose kinds are
    read as final; ``order``'s colours are numbered after them, by first
    appearance in ``order``.  Returns ``frozen`` extended by the colours.
    """
    kind_of: Dict[NodeId, int] = dict(frozen or {})
    base = max(kind_of.values(), default=-1) + 1
    for node in order:
        kind_of[node] = base
    while True:
        fresh: Dict[Tuple, int] = {}
        colours = [
            fresh.setdefault(
                (kind_of[node], row_of(graph, node, kind_of)), base + len(fresh)
            )
            for node in order
        ]
        if all(kind_of[node] == colour for node, colour in zip(order, colours)):
            return kind_of
        kind_of.update(zip(order, colours))


@dataclass(frozen=True)
class KindView:
    """The kind-compression view of a graph: a snapshot of one version.

    ``compressed`` is the quotient: one node per kind (small integer ids), one
    edge per ``(kind, label, kind)`` with the member-wise edge count as its
    singleton multiplicity.  ``kind_of`` maps every original node to its kind;
    ``members`` lists each kind's nodes in ``repr`` order.  Typing the
    quotient under the compressed semantics and reading each node's types off
    its kind equals the per-node plain typing.  Nothing in a view changes
    when its graph does: a store hands out a new view at each version.
    """

    compressed: CompressedGraph
    kind_of: Dict[NodeId, int]
    members: Dict[int, Tuple[NodeId, ...]]

    @property
    def kind_count(self) -> int:
        return len(self.members)


def quotient_view(graph: Graph, kind_of: Dict[NodeId, int], name: str = "") -> KindView:
    """The :class:`KindView` of ``graph`` under ``kind_of``, a
    :func:`kind_partition` result.

    ``kind_of`` lists the nodes in ``repr`` order with kinds numbered by first
    appearance, so the members come out in ``repr`` order and kind order, and
    each kind's row is read off its first member (the partition makes it
    member-independent).  Occurrence intervals of the input are ignored —
    the view serves the *plain* semantics, where each edge counts once.
    """
    members: Dict[int, List[NodeId]] = {}
    for node, kind in kind_of.items():
        members.setdefault(kind, []).append(node)
    quotient = CompressedGraph.from_edges(
        (
            (kind, label, target, Interval.singleton(count))
            for kind, nodes in members.items()
            for (label, target), count in sorted(row_of(graph, nodes[0], kind_of), key=repr)
        ),
        nodes=members,
        name=name or f"kinds({graph.name})",
    )
    return KindView(
        compressed=quotient,
        kind_of=kind_of,
        members={kind: tuple(nodes) for kind, nodes in members.items()},
    )


def kind_compress(graph: Graph, name: str = "") -> KindView:
    """Quotient ``graph`` by :func:`kind_partition` into a compressed graph.

    Edge multiplicities of the quotient are the per-member counts: kind ``K``
    has an edge ``a[k]`` to kind ``K'`` when every member of ``K`` has exactly
    ``k`` out-edges labelled ``a`` into members of ``K'``.
    """
    return quotient_view(graph, kind_partition(graph), name)

