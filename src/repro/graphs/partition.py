"""The kind partition (Section 6.1 compression): full build and incremental upkeep.

:func:`kind_partition` computes the coarsest counting-bisimulation partition
from scratch, and :class:`PartitionMaintainer` keeps it up to date under an
edge :class:`repro.graphs.store.Delta`, so the graphs where compression wins
(clone-heavy, millions of structurally identical nodes) absorb small writes
at delta cost instead of the ``O(rounds × edges)`` of a rebuild per version.

Both are built on one observation: a node's kind is determined by its *row*
— the multiset of ``(label, kind of target)`` over its out-edges — and in a
coarsest partition no two kinds share a row.  On an acyclic graph the kinds
can therefore be computed by **hash-consing, sinks first**: visit the nodes
in Kahn order, read each node's row over its targets' final kinds, and look
the row up — a hit joins that kind, a miss mints a fresh one.  One pass, no
refinement rounds.  Only the nodes that reach a cycle need the round-based
refinement; a full build hashes every other node first.

An update has two phases:

1. **Affected region.**  A node's kind depends only on its *out-reachable*
   subgraph, so after an edge delta the kinds can change exactly for the
   backward closure of the delta's touched nodes (the same region
   :func:`repro.engine.fixpoint.retype_incremental` retypes).  Nodes outside
   it provably keep their kinds.
2. **Re-kinding: one pass, or two round-based steps on a cycle.**

   * *Acyclic region* (path ``"dag"``): one sinks-first pass.  The
     maintainer keeps a persistent *row index* (canonical row → kind) for
     every live kind; boundary kinds are frozen and region targets were
     re-kinded earlier in the pass, so every lookup reads final kinds.  Kind
     rows never change under this pass (a kind only gains or loses members),
     so the result is stable, and it is coarsest by induction on the
     region's topological order.  A minted kind whose members are exactly a
     fully-affected old kind's members takes back that old id.  The work is
     proportional to the region's edges plus the minted kinds.
   * *Region with a cycle* (path ``"rounds"``): a local split refinement
     re-partitions the region from a single block by signature refinement
     (frozen kinds across the boundary), giving a stable partition that may
     be too fine; then one counting refinement over the whole *quotient*
     (kinds as nodes, summed multiplicities as weights) merges kinds — exact
     because every stable partition refines bisimilarity.  The row index is
     rebuilt afterwards.

The quotient :class:`repro.graphs.compressed.CompressedGraph` is built on
first read (a view that does not shrink the graph enough never reads it) and
then patched in place — retired kinds removed, new kinds added, only changed
out-edge rows rewritten.  Deltas touching more than ``max_affected_fraction``
of the nodes fall back to a full rebuild and bump the maintainer's *epoch*.

``tests/property/test_partition_parity.py`` asserts that after arbitrary
delta sequences — acyclic and cyclic regions alike — the maintained
partition and patched quotient equal a fresh ``kind_partition`` /
``kind_compress`` run (up to kind renaming).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.core.intervals import Interval
from repro.graphs.compressed import CompressedGraph
from repro.graphs.graph import Graph, Label
from repro.graphs.scc import backward_closure, peel
from repro.obs import metrics as _obs_metrics

_REGISTRY = _obs_metrics.get_registry()
_M_UPDATES = _REGISTRY.counter(
    "repro_partition_updates_total",
    "Partition maintenance passes, by schedule (full = build or fallback).",
    labels=("mode",),
)
_M_SPLITS = _REGISTRY.counter(
    "repro_partition_splits_total", "Kinds created by refinement splits."
)
_M_MERGES = _REGISTRY.counter(
    "repro_partition_merges_total", "Kinds collapsed by equivalence merges."
)
_M_AFFECTED = _REGISTRY.histogram(
    "repro_partition_affected", "Affected-region size of one incremental update."
)
_M_AFFECTED_FRACTION = _REGISTRY.histogram(
    "repro_partition_affected_fraction",
    "Affected region as a fraction of the graph (incremental updates).",
    buckets=(0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0),
)

NodeId = Hashable

#: A quotient out-edge row in canonical form: the sorted
#: ``((label, target kind), per-member edge count)`` pairs.
Row = Tuple[Tuple[Tuple[Label, int], int], ...]

#: Fraction of the graph the affected region may reach before the maintainer
#: gives up on locality and rebuilds the partition from scratch (mirroring
#: ``retype_incremental``'s fallback).
MAX_AFFECTED_FRACTION = 0.5


def row_of(graph: Graph, node: NodeId, kind_of: Dict[NodeId, int]) -> Row:
    """``node``'s canonical row: its out-edges counted by ``(label, kind)``.

    Intervals are ignored, as the view serves the plain semantics.
    """
    counts: Dict[Tuple[Label, int], int] = {}
    for edge in graph.out_edges(node):
        key = (edge.label, kind_of[edge.target])
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def sinks_first(graph: Graph, order: List[NodeId]) -> Optional[List[NodeId]]:
    """The nodes of ``order`` sorted so every node follows its successors.

    Kahn's algorithm on the subgraph that ``order`` (nodes of ``graph``)
    induces, edges leaving it ignored; ``order`` fixes the tie-breaking, so the result is
    deterministic.  Returns ``None`` when that subgraph has a cycle.
    """
    peeled, cyclic = peel(graph, order)
    return None if cyclic else peeled


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
    return _build_partition(graph)[0]


def _build_partition(graph: Graph) -> Tuple[Dict[NodeId, int], str, int]:
    """:func:`kind_partition` plus the path taken (``"dag"`` when no node
    reaches a cycle, ``"rounds"`` otherwise) and how many nodes were refined
    in rounds."""
    order = sorted(graph.nodes, key=repr)
    peeled, cyclic = peel(graph, order)
    provisional: Dict[NodeId, int] = {}
    index: Dict[Row, int] = {}
    for node in peeled:
        row = row_of(graph, node, provisional)
        provisional[node] = index.setdefault(row, len(index))
    path = "dag"
    if cyclic:
        path = "rounds"
        refined = [node for node in order if node in cyclic]
        provisional = _refine_rounds(graph, refined, provisional)
    numbering: Dict[int, int] = {}
    return {
        node: numbering.setdefault(provisional[node], len(numbering))
        for node in order
    }, path, len(cyclic)


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


@dataclass
class PartitionStats:
    """Counters describing the maintainer's history (observability).

    ``mode`` is the last update's schedule: ``"full"`` (initial build or
    fallback rebuild), ``"incremental"``, or ``"unchanged"``.  ``affected`` is
    how many nodes the last update re-kinded (the region of an incremental
    update, every node for a full one).  ``path`` is how the last build or
    incremental update computed kinds: ``"dag"`` (one sinks-first pass) or
    ``"rounds"`` (refinement rounds, forced by a cycle); ``refined`` is how
    many nodes it refined in rounds (on a build, the nodes that reach a
    cycle); ``rounds`` counts the region refinement rounds run so far.  ``splits`` / ``merges`` count
    kinds minted and kinds collapsed over the maintainer's lifetime;
    ``full_builds`` / ``incremental_updates`` count schedules taken.
    """

    mode: str = "full"
    affected: int = 0
    path: str = ""
    refined: int = 0
    rounds: int = 0
    splits: int = 0
    merges: int = 0
    full_builds: int = 0
    incremental_updates: int = 0


class PartitionMaintainer:
    """The kind partition of one graph, maintained under edge deltas.

    The maintainer owns the partition bookkeeping — ``kind_of`` (node →
    kind), ``members`` (kind → node set), per-kind quotient ``rows`` and
    their inverse ``index`` (row → kind) — and the quotient
    :class:`CompressedGraph` itself, built on first read of :attr:`quotient`
    and from then on patched in place by :meth:`update`.
    Kind ids are stable across incremental updates: a kind untouched by a
    delta keeps its id, so consumers may key per-kind state (typings,
    caches) by ``(epoch, kind id)``.  A full rebuild bumps :attr:`epoch` and
    invalidates all such keys.
    """

    def __init__(self, graph: Graph, name: str = ""):
        self.epoch = 0
        self.stats = PartitionStats()
        self._name = name or f"kinds({graph.name})"
        self._rebuild(graph)
        self.stats.full_builds = 1  # the initial build is not a fallback

    @property
    def kind_count(self) -> int:
        return len(self.members)

    @property
    def quotient(self) -> CompressedGraph:
        """The quotient graph: one node per kind, one edge per row entry.

        Built from the rows on first read and patched in place by later
        updates.  Until then no update touches it, so a partition whose view
        is refused (too little shrink) or never typed builds none.
        """
        if self._quotient is None:
            self._quotient = CompressedGraph.from_edges(
                (
                    edge
                    for kind in sorted(self.rows)
                    for edge in self._row_edges(kind, self.rows[kind])
                ),
                nodes=self.members,
                name=self._name,
            )
        return self._quotient

    @classmethod
    def restore(
        cls,
        graph: Graph,
        kind_of: Dict[NodeId, int],
        epoch: int,
        name: str = "",
    ) -> "PartitionMaintainer":
        """Rebuild a maintainer from a persisted ``kind_of`` map.

        The persisted partition was coarsest when saved (it came out of
        :meth:`update` or the initial build), so no refinement is needed —
        only the derived bookkeeping (members, rows, row index) is recomputed
        from the map, in one pass over the graph; the quotient waits for its
        first read.  ``epoch`` is preserved so per-kind state persisted
        alongside (e.g. kind typings keyed by ``(epoch, kind)``) remains
        valid across the restart.
        """
        maintainer = cls.__new__(cls)
        maintainer.epoch = epoch
        maintainer.stats = PartitionStats(mode="restored")
        maintainer._name = name or f"kinds({graph.name})"
        maintainer._install(graph, dict(kind_of))
        return maintainer

    # ------------------------------------------------------------------ #
    # Full build
    # ------------------------------------------------------------------ #
    def _rebuild(self, graph: Graph) -> None:
        """Recompute everything from scratch (initial build and fallback)."""
        kind_of, self.stats.path, self.stats.refined = _build_partition(graph)
        self._install(graph, kind_of)
        self.stats.mode = "full"
        self.stats.affected = graph.node_count
        self.stats.full_builds += 1

    def _install(self, graph: Graph, kind_of: Dict[NodeId, int]) -> None:
        """Derive members, rows and the row index from ``kind_of``; drop the
        quotient (:attr:`quotient` rebuilds it from the rows when read)."""
        self.kind_of = kind_of
        self.members: Dict[int, Set[NodeId]] = {}
        for node, kind in kind_of.items():
            self.members.setdefault(kind, set()).add(node)
        # Rows are member-independent in a stable partition: read one member.
        self.rows: Dict[int, Row] = {
            kind: row_of(graph, next(iter(nodes)), kind_of)
            for kind, nodes in self.members.items()
        }
        self.index: Dict[Row, int] = {row: kind for kind, row in self.rows.items()}
        self._next_kind = max(self.members, default=-1) + 1
        self._quotient: Optional[CompressedGraph] = None

    @staticmethod
    def _row_edges(kind: int, row: Row):
        """The quotient edges of ``kind``'s row, in a deterministic order."""
        for (label, target), count in sorted(row, key=repr):
            yield kind, label, target, Interval.singleton(count)

    @classmethod
    def _write_row(cls, quotient: CompressedGraph, kind: int, row: Row) -> None:
        for edge in cls._row_edges(kind, row):
            quotient.add_edge(*edge)

    # ------------------------------------------------------------------ #
    # Incremental update
    # ------------------------------------------------------------------ #
    def update(
        self,
        graph: Graph,
        delta,
        max_affected_fraction: float = MAX_AFFECTED_FRACTION,
    ) -> bool:
        """Bring the partition up to date with ``graph`` after ``delta``.

        ``graph`` must already be in its post-delta state.  Returns False
        when the affected region forced a full rebuild (the epoch is bumped
        and kind ids are not comparable across the boundary), else True.
        """
        touched = [node for node in delta.touched_nodes() if graph.has_node(node)]
        if not touched:
            self.stats.mode = "unchanged"
            self.stats.affected = 0
            _M_UPDATES.labels(mode="unchanged").inc()
            return True

        affected = backward_closure(graph, touched)
        if len(affected) > max_affected_fraction * graph.node_count:
            self.epoch += 1
            self._rebuild(graph)
            _M_UPDATES.labels(mode="full").inc()
            return False

        self.stats.mode = "incremental"
        self.stats.affected = len(affected)
        self.stats.incremental_updates += 1
        _M_UPDATES.labels(mode="incremental").inc()
        if _obs_metrics.STATE.enabled:
            _M_AFFECTED.observe(len(affected))
            _M_AFFECTED_FRACTION.observe(len(affected) / max(graph.node_count, 1))

        dag = sinks_first(graph, sorted(affected, key=repr))
        if dag is not None:
            self.stats.path, self.stats.refined = "dag", 0
            self._rekind_sinks_first(graph, dag)
            return True
        self.stats.path, self.stats.refined = "rounds", len(affected)
        old_rows = dict(self.rows)  # rows are immutable tuples: no deep copy
        blocks = self._refine_affected(graph, affected)
        self._assign_kinds(graph, affected, blocks)
        self._merge_equivalent_kinds()
        self.index = {row: kind for kind, row in self.rows.items()}
        retired = frozenset(old_rows) - frozenset(self.rows)
        changed = frozenset(
            kind for kind, row in self.rows.items() if old_rows.get(kind) != row
        )
        self._patch_quotient(changed, retired)
        return True

    def _rekind_sinks_first(self, graph: Graph, order: List[NodeId]) -> None:
        """Re-kind an acyclic region: one hash-consing pass in Kahn order.

        Every live kind's row is in the index and no kind's row changes, so
        a node whose row (over final target kinds) is indexed joins that
        kind, and any other node mints a kind.  Old kinds left without
        members retire — except that a minted kind re-collecting exactly an
        old kind's members takes back its id (the delta left that kind's
        membership alone), which needs the minted rows renamed to match.
        """
        kind_of, members, rows, index = self.kind_of, self.members, self.rows, self.index
        previous = {node: kind_of[node] for node in order if node in kind_of}
        old_sizes = {kind: len(members[kind]) for kind in set(previous.values())}
        for node, kind in previous.items():
            members[kind].discard(node)
        minted: List[int] = []
        for node in order:
            row = row_of(graph, node, kind_of)
            kind = index.get(row)
            if kind is None:
                kind = self._next_kind
                self._next_kind += 1
                index[row] = kind
                rows[kind] = row
                members[kind] = set()
                minted.append(kind)
            members[kind].add(node)
            kind_of[node] = kind

        emptied = [kind for kind in old_sizes if not members[kind]]
        old_rows = {kind: rows.pop(kind) for kind in emptied}
        for kind, row in old_rows.items():
            del index[row]
            del members[kind]
        taken_back: Dict[int, int] = {}
        for kind in minted:
            nodes = members[kind]
            old = previous.get(next(iter(nodes)))
            if (
                old in old_rows
                and len(nodes) == old_sizes[old]
                and all(previous.get(node) == old for node in nodes)
            ):
                taken_back[kind] = old
        if taken_back:
            for kind in minted:
                row = rows.pop(kind)
                del index[row]
                if any(target in taken_back for (_label, target), _count in row):
                    row = tuple(
                        sorted(
                            ((label, taken_back.get(target, target)), count)
                            for (label, target), count in row
                        )
                    )
                kind_id = taken_back.get(kind, kind)
                rows[kind_id] = row
                index[row] = kind_id
            for kind, old in taken_back.items():
                members[old] = members.pop(kind)
                for node in members[old]:
                    kind_of[node] = old

        retired = frozenset(emptied) - frozenset(taken_back.values())
        splits = len(minted) - len(taken_back)
        self.stats.splits += splits
        self.stats.merges += len(retired)
        _M_SPLITS.inc(splits)
        _M_MERGES.inc(len(retired))
        # A taken-back id whose renamed row equals its old one is unchanged:
        # on a path of single-member kinds only the edited end really moves.
        changed = frozenset(
            kind
            for kind in (taken_back.get(kind, kind) for kind in minted)
            if rows[kind] != old_rows.get(kind)
        )
        self._patch_quotient(changed, retired)

    def _refine_affected(
        self, graph: Graph, affected: Set[NodeId]
    ) -> List[List[NodeId]]:
        """Cyclic region, step one: re-partition it from a single block.

        Signatures count ``(label, colour of target)`` where affected targets
        carry the refining colour and boundary targets their frozen kind —
        sound because nodes outside the region provably keep their kinds
        (their out-reachable subgraphs are untouched, and the old partition
        restricted to them stays both stable and coarsest).
        """
        order = sorted(affected, key=repr)
        colour: Dict[NodeId, int] = {node: -1 for node in order}
        while True:
            fresh: Dict[Tuple, int] = {}
            next_colour: Dict[NodeId, int] = {}
            for node in order:
                counts: Dict[Tuple, int] = {}
                for edge in graph.out_edges(node):
                    target = edge.target
                    reference = (
                        ("f", colour[target])
                        if target in affected
                        else ("b", self.kind_of[target])
                    )
                    key = (edge.label, reference)
                    counts[key] = counts.get(key, 0) + 1
                signature = (colour[node], tuple(sorted(counts.items())))
                bucket = fresh.get(signature)
                if bucket is None:
                    bucket = len(fresh)
                    fresh[signature] = bucket
                next_colour[node] = bucket
            self.stats.rounds += 1
            if next_colour == colour:
                break
            colour = next_colour
        blocks: Dict[int, List[NodeId]] = {}
        for node in order:
            blocks.setdefault(colour[node], []).append(node)
        return [blocks[bucket] for bucket in sorted(blocks)]

    def _assign_kinds(
        self, graph: Graph, affected: Set[NodeId], blocks: List[List[NodeId]]
    ) -> None:
        """Give each affected block a kind id and refresh the bookkeeping.

        A block keeps its old id when it is exactly an old kind's full
        membership (the common case: the delta did not actually re-kind the
        node) — otherwise it gets a fresh id, never reusing a retired one.
        Old kinds emptied by the re-assignment disappear; their ids retire.
        """
        # Pull affected nodes out of their old kinds first, so full-membership
        # checks below see the boundary members only.
        old_kind_of = {
            node: self.kind_of[node] for node in affected if node in self.kind_of
        }
        for node, kind in old_kind_of.items():
            survivors = self.members[kind]
            survivors.discard(node)
        for block in blocks:
            reuse: Optional[int] = None
            first = old_kind_of.get(block[0])
            if (
                first is not None
                and not self.members.get(first)  # no boundary members kept it
                and all(old_kind_of.get(node) == first for node in block)
            ):
                reuse = first
            if reuse is None:
                reuse = self._next_kind
                self._next_kind += 1
                self.stats.splits += 1
                _M_SPLITS.inc()
            self.members[reuse] = set(block)
            for node in block:
                self.kind_of[node] = reuse
        for kind in [kind for kind, nodes in self.members.items() if not nodes]:
            del self.members[kind]
            self.rows.pop(kind, None)
        # Rows of every surviving kind that lost or gained members are
        # recomputed below anyway; rows referencing re-kinded *targets* are
        # exactly the rows of the affected nodes' predecessors — all inside
        # the affected region, hence all recomputed here too.
        for block in blocks:
            self.rows[self.kind_of[block[0]]] = row_of(graph, block[0], self.kind_of)

    def _merge_equivalent_kinds(self) -> None:
        """Cyclic region, step two: merge kinds the local refinement kept apart.

        One counting refinement over the weighted quotient (kinds as nodes,
        row counts as weights) computes the coarsest stable coarsening of the
        current partition — which is the coarsest partition of the base graph,
        since the current one is already a bisimulation.  Classes with more
        than one kind merge into the member-richest kind (ties to the smaller
        id), so bulk re-labelling stays on the small side.
        """
        classes: Dict[int, int] = {kind: 0 for kind in self.rows}
        while True:
            fresh: Dict[Tuple, int] = {}
            next_classes: Dict[int, int] = {}
            for kind in sorted(self.rows):
                counts: Dict[Tuple[Label, int], int] = {}
                for (label, target), weight in self.rows[kind]:
                    key = (label, classes[target])
                    counts[key] = counts.get(key, 0) + weight
                signature = (classes[kind], tuple(sorted(counts.items())))
                bucket = fresh.get(signature)
                if bucket is None:
                    bucket = len(fresh)
                    fresh[signature] = bucket
                next_classes[kind] = bucket
            if next_classes == classes:
                break
            classes = next_classes
        grouped: Dict[int, List[int]] = {}
        for kind, bucket in classes.items():
            grouped.setdefault(bucket, []).append(kind)
        substitution: Dict[int, int] = {}
        for kinds in grouped.values():
            if len(kinds) < 2:
                continue
            survivor = max(kinds, key=lambda kind: (len(self.members[kind]), -kind))
            for kind in kinds:
                if kind != survivor:
                    substitution[kind] = survivor
        if not substitution:
            return
        self.stats.merges += len(substitution)
        _M_MERGES.inc(len(substitution))
        for retired, survivor in substitution.items():
            for node in self.members[retired]:
                self.kind_of[node] = survivor
            self.members[survivor] |= self.members.pop(retired)
            del self.rows[retired]
        for kind, row in self.rows.items():
            if not any(target in substitution for (_label, target), _count in row):
                continue
            rewritten: Dict[Tuple[Label, int], int] = {}
            for (label, target), count in row:
                key = (label, substitution.get(target, target))
                rewritten[key] = rewritten.get(key, 0) + count
            self.rows[kind] = tuple(sorted(rewritten.items()))

    def _patch_quotient(
        self, changed: FrozenSet[int], retired: FrozenSet[int]
    ) -> None:
        """Apply the update to the quotient graph in place.

        Retired kinds are removed; each changed kind is added, or has its
        out-edges rewritten when its id already was a quotient node.  A
        quotient never built is left unbuilt: its first read derives it from
        the rows, which are current.
        """
        quotient = self._quotient
        if quotient is None:
            return
        for kind in sorted(retired):
            quotient.remove_node(kind)
        for kind in sorted(changed):
            if quotient.has_node(kind):
                for edge in list(quotient.out_edges(kind)):
                    quotient.remove_edge(edge)
            else:
                quotient.add_node(kind)
            self._write_row(quotient, kind, self.rows[kind])
