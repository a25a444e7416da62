"""A versioned graph store: mutable graphs with a delta log and change-aware views.

The maximal-typing semantics is a greatest fixpoint, so when a graph changes by
a small edge delta only the typings of nodes that can *reach* the touched edges
can change (a node's types depend solely on its out-reachable subgraph).  Every
layer that wants to exploit this — the incremental fixpoint
(:func:`repro.engine.fixpoint.retype_incremental`), the engines' revalidation
path, the daemon's ``update_graph``/``revalidate`` ops — needs the same
substrate: a graph that knows *what changed between which versions*.

:class:`GraphStore` provides exactly that:

* it wraps a mutable :class:`repro.graphs.graph.Graph` (taking ownership: all
  mutation must go through the store);
* every mutation is a :class:`Delta` — a batch of edge insertions and
  removals — and bumps a monotonically increasing integer *version*;
* the delta log makes ``diff(v1, v2)`` exact for any two recorded versions,
  in either direction (backward diffs are inverses);
* the content fingerprint (:func:`repro.engine.compiled.graph_fingerprint`,
  the key batch jobs use too) is *maintained*: the first
  :meth:`GraphStore.fingerprint` hashes every fingerprint bucket, each delta
  marks the buckets of its touched nodes dirty, and later calls rehash only
  those — so keying result caches by content costs the delta, not the graph.
  A store restored from a snapshot gets its buckets back
  (:meth:`GraphStore.restore_fingerprint`) and hashes only what the deltas
  since touched.

The store holds no second copy of the graph: the region a delta can change is
the backward closure of its touched nodes, which every consumer computes with
:func:`repro.graphs.scc.backward_closure` over :meth:`Graph.in_edges`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.intervals import Interval, ONE
from repro.errors import GraphError
from repro.graphs.graph import Edge, Graph, Label
from repro.graphs.partition import KindView, kind_compress
from repro.graphs.partition import kind_partition  # noqa: F401 - public here too
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing

_REGISTRY = _obs_metrics.get_registry()
_M_DELTAS = _REGISTRY.counter(
    "repro_store_deltas_total", "Deltas applied across every GraphStore."
)
_M_DELTA_EDGES = _REGISTRY.histogram(
    "repro_store_delta_edges", "Edge entries (added + removed) of one applied delta."
)

NodeId = Hashable

#: One delta edge: ``(source, label, target, occurrence interval)``.
DeltaEdge = Tuple[NodeId, Label, NodeId, Interval]


def _normalise_edges(entries: Iterable) -> Tuple[DeltaEdge, ...]:
    """Coerce ``(s, a, t)`` / ``(s, a, t, occur)`` entries into delta edges."""
    edges: List[DeltaEdge] = []
    for entry in entries:
        if len(entry) == 3:
            source, label, target = entry
            occur = ONE
        elif len(entry) == 4:
            source, label, target, occur = entry
            occur = ONE if occur is None else Interval.of(occur)
        else:
            raise GraphError(
                f"delta edge must be (source, label, target[, occur]), got {entry!r}"
            )
        edges.append((source, label, target, occur))
    return tuple(edges)


@dataclass(frozen=True)
class Delta:
    """A batch of edge changes: insertions in ``added``, deletions in ``removed``.

    Deltas are *descriptions*, not references: edges are named by their
    ``(source, label, target, occur)`` content, so a delta built on one side of
    a socket applies on the other.  Build them with :meth:`Delta.of` (which
    accepts 3-tuples defaulting the interval to ``1``) and compose them with
    :meth:`then`; :meth:`inverse` swaps the two sides, which is what makes
    backward :meth:`GraphStore.diff` exact.
    """

    added: Tuple[DeltaEdge, ...] = ()
    removed: Tuple[DeltaEdge, ...] = ()

    @classmethod
    def of(cls, add: Iterable = (), remove: Iterable = ()) -> "Delta":
        """Build a delta from ``(source, label, target[, occur])`` entries."""
        return cls(added=_normalise_edges(add), removed=_normalise_edges(remove))

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    def inverse(self) -> "Delta":
        """The delta undoing this one (insertions and deletions swapped)."""
        return Delta(added=self.removed, removed=self.added)

    def then(self, other: "Delta") -> "Delta":
        """Sequential composition: this delta followed by ``other``.

        A removal in ``other`` of an edge this delta *added* cancels against
        it (multiset semantics, exact content match), so an edge added and
        later removed within a span contributes nothing — the composition of
        a store's log entries is always applicable to the span's starting
        content.  (Store log entries carry *resolved* removal intervals, which
        is what makes the exact match complete; see :meth:`GraphStore.apply`.)
        """
        pending: Dict[DeltaEdge, int] = {}
        for entry in self.added:
            pending[entry] = pending.get(entry, 0) + 1
        surviving_removals: List[DeltaEdge] = []
        for entry in other.removed:
            count = pending.get(entry, 0)
            if count:
                pending[entry] = count - 1
            else:
                surviving_removals.append(entry)
        surviving_added: List[DeltaEdge] = []
        for entry in self.added:
            count = pending.get(entry, 0)
            if count:
                pending[entry] = count - 1
                surviving_added.append(entry)
        return Delta(
            added=tuple(surviving_added) + other.added,
            removed=self.removed + tuple(surviving_removals),
        )

    def compact(self) -> "Delta":
        """Cancel insertions and removals of identical content (multiset).

        An edge that appears in both ``added`` and ``removed`` with the same
        ``(source, label, target, occur)`` is net-unchanged, so both entries
        drop (each occurrence cancels one occurrence of the other side).
        Exact on *resolved* deltas — store log entries and :meth:`GraphStore.diff`
        results, where removal intervals name the stored edge precisely.  On
        hand-written deltas a plain ``(s, a, t)`` removal acts as a wildcard
        in :meth:`GraphStore.apply` (it matches any stored interval), so
        cancelling it against an interval-``1`` insertion may change which
        stored edge the remaining entries target.
        """
        cancel: Dict[DeltaEdge, int] = {}
        removed_counts: Dict[DeltaEdge, int] = {}
        for entry in self.removed:
            removed_counts[entry] = removed_counts.get(entry, 0) + 1
        for entry in self.added:
            if removed_counts.get(entry, 0):
                removed_counts[entry] -= 1
                cancel[entry] = cancel.get(entry, 0) + 1
        if not cancel:
            return self
        added_cancel = dict(cancel)
        kept_added: List[DeltaEdge] = []
        for entry in self.added:
            if added_cancel.get(entry, 0):
                added_cancel[entry] -= 1
            else:
                kept_added.append(entry)
        kept_removed: List[DeltaEdge] = []
        for entry in self.removed:
            if cancel.get(entry, 0):
                cancel[entry] -= 1
            else:
                kept_removed.append(entry)
        return Delta(added=tuple(kept_added), removed=tuple(kept_removed))

    def touched_nodes(self) -> Set[NodeId]:
        """Every node occurring in the delta (sources and targets, both sides)."""
        nodes: Set[NodeId] = set()
        for source, _label, target, _occur in self.added + self.removed:
            nodes.add(source)
            nodes.add(target)
        return nodes

    # ------------------------------------------------------------------ #
    # Wire format (docs/protocol.md, the CLI --delta files)
    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, List[List[object]]]:
        """Render as the protocol's ``{"add": [...], "remove": [...]}`` object.

        Each entry is ``[source, label, target]``, or
        ``[source, label, target, k]`` for a singleton interval ``[k;k]``;
        non-singleton intervals use their string form (``"[1;3]"``, ``"*"``).
        """

        def entry(edge: DeltaEdge) -> List[object]:
            source, label, target, occur = edge
            if occur == ONE:
                return [source, label, target]
            if occur.is_singleton:
                return [source, label, target, occur.lower]
            return [source, label, target, str(occur)]

        return {
            "add": [entry(edge) for edge in self.added],
            "remove": [entry(edge) for edge in self.removed],
        }

    @classmethod
    def from_json(cls, payload) -> "Delta":
        """Parse the ``{"add": [...], "remove": [...]}`` wire object."""
        if not isinstance(payload, dict):
            raise GraphError("a delta must be an object with 'add'/'remove' lists")
        for field in ("add", "remove"):
            if field in payload and not isinstance(payload[field], list):
                raise GraphError(f"delta field {field!r} must be a list")
        unknown = set(payload) - {"add", "remove"}
        if unknown:
            raise GraphError(f"unknown delta field(s): {sorted(unknown)}")
        try:
            return cls.of(
                add=payload.get("add", ()), remove=payload.get("remove", ())
            )
        except (TypeError, ValueError) as exc:
            raise GraphError(f"malformed delta entry: {exc}") from exc


_STORE_IDS = itertools.count(1)


class GraphStore:
    """A versioned wrapper around a mutable graph, with a delta log.

    The store takes ownership of ``graph``: mutate only through
    :meth:`apply` / :meth:`add_edge` / :meth:`remove_edge` so the version
    counter and the log stay truthful.  Versions start at 0 (the wrapped
    graph's initial state) and increase by one per applied delta.

    ``store_id`` is a process-unique small integer — engines use it (together
    with the version) to key *typing snapshots*, which unlike result-cache
    entries are identity-bound: a typing belongs to one store's timeline.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        name: str = "",
        base_version: int = 0,
    ):
        self._graph = graph if graph is not None else Graph(name)
        if name:
            self._graph.name = name
        self.store_id: int = next(_STORE_IDS)
        # A store restored from a snapshot starts its history at the snapshot
        # version: versions below the base are unreachable (their deltas were
        # folded into the snapshot) and diff() refuses them.
        self._base = base_version
        self._version = base_version
        self._log: List[Delta] = []  # _log[i] transforms base+i into base+i+1
        self._fingerprint: Optional[Tuple[int, str]] = None
        # The maintained fingerprint, built by the first fingerprint() call:
        # each non-empty bucket's nodes, every bucket's digest, and the
        # buckets deltas touched since the last call.
        self._fp_members: Optional[Dict[int, Set[NodeId]]] = None
        self._fp_digests: List[bytes] = []
        self._fp_dirty: Set[int] = set()
        self._fp_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> Graph:
        """The current graph (read-only by convention: mutate via the store)."""
        return self._graph

    @property
    def name(self) -> str:
        return self._graph.name

    @property
    def version(self) -> int:
        """The monotonically increasing version of the wrapped graph."""
        return self._version

    @property
    def base_version(self) -> int:
        """The oldest version this store's history reaches (0 unless restored)."""
        return self._base

    def fingerprint(self) -> str:
        """The content fingerprint of the current graph, maintained per delta.

        Equal to :func:`repro.engine.compiled.graph_fingerprint` of the graph,
        so stores and batch jobs share cache keys.  The first call builds
        every bucket digest in one pass; :meth:`apply` then marks the buckets
        of the delta's touched nodes (sources and targets, new nodes
        included) dirty, and later calls rehash only those buckets before
        recombining the root.  Every bucket stays a SHA-256 digest of its
        content: an O(1)-per-edge additive or XOR sum of edge hashes would be
        cheaper to maintain but forgeable (see ``graph_fingerprint``).  Runs
        under a ``graph.fingerprint`` span tagged with ``mode`` (``full`` /
        ``incremental``) and the ``buckets`` rehashed; repeated calls at one
        version answer from a memo.
        """
        memo = self._fingerprint
        if memo is not None and memo[0] == self._version:
            return memo[1]
        from repro.engine.compiled import graph_buckets, nodes_digest, root_digest

        with self._fp_lock, _obs_tracing.span("graph.fingerprint") as span:
            version = self._version
            if self._fp_members is None:
                members, self._fp_digests = graph_buckets(self._graph)
                self._fp_members = {
                    bucket: set(nodes) for bucket, nodes in members.items()
                }
                span.annotate(mode="full", buckets=len(members))
            else:
                for bucket in self._fp_dirty:
                    self._fp_digests[bucket] = nodes_digest(
                        self._graph, self._fp_members[bucket]
                    )
                span.annotate(mode="incremental", buckets=len(self._fp_dirty))
            self._fp_dirty.clear()
            digest = root_digest(self._fp_digests)
            self._fingerprint = (version, digest)
            return digest

    def fingerprint_buckets(self) -> Tuple[Dict[int, Set[NodeId]], List[bytes]]:
        """``(members, digests)`` of the fingerprint at the current version:
        each non-empty bucket's nodes and every bucket's digest.

        Brings them up to date first, as :meth:`fingerprint` does.  The
        member sets are the store's own: read them before the next
        :meth:`apply`.
        """
        self.fingerprint()
        with self._fp_lock:
            return dict(self._fp_members), list(self._fp_digests)

    def restore_fingerprint(
        self, members: Dict[int, Set[NodeId]], digests: List[bytes]
    ) -> None:
        """Install fingerprint buckets saved at the current version.

        ``members`` must split the graph's nodes by
        :func:`repro.engine.compiled.fingerprint_bucket` and ``digests``
        hold every bucket's digest, as :meth:`fingerprint_buckets` gave
        them.  Later deltas mark their buckets dirty as usual, so the first
        :meth:`fingerprint` rehashes only those (``mode="incremental"``)
        instead of every bucket.
        """
        with self._fp_lock:
            self._fp_members = members
            self._fp_digests = list(digests)
            self._fp_dirty = set()
            self._fingerprint = None

    def _mark_fingerprint_dirty(self, nodes: Iterable[NodeId]) -> None:
        """Record that the fingerprint buckets of ``nodes`` need rehashing."""
        from repro.engine.compiled import fingerprint_bucket

        with self._fp_lock:
            if self._fp_members is None:
                return  # never built: the first fingerprint() hashes it all
            for node in nodes:
                bucket = fingerprint_bucket(repr(node))
                self._fp_members.setdefault(bucket, set()).add(node)
                self._fp_dirty.add(bucket)

    def typing_view(self) -> KindView:
        """The Section 6.1 kind-compression view of the current graph.

        A fresh :func:`repro.graphs.partition.kind_compress` on every call:
        nothing is cached, and no typing path reads it (the fixpoint kernel's
        row memo types alike nodes once instead).  It is kept for callers
        that report the partition itself.
        """
        return kind_compress(self._graph)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(self, delta: Delta) -> int:
        """Apply one delta atomically; returns the new version.

        Removals are resolved first (by edge content, one stored edge per
        entry), then insertions.  A removal that matches no stored edge raises
        :class:`repro.errors.GraphError` *before* anything is mutated, so a
        failed apply leaves the store at its prior version.  Durable stores
        hook :meth:`_wal_write`, which runs after resolution but still before
        any mutation — a failed write-ahead append likewise leaves the store
        untouched.

        The *logged* delta carries each removal's resolved interval (a plain
        ``(s, a, t)`` entry matches an edge of any interval), so log entries
        are exact edit scripts: :meth:`diff` compositions always apply, and
        :meth:`Delta.inverse` restores removed edges with their true
        intervals.
        """
        if isinstance(delta, dict):
            delta = Delta.from_json(delta)
        elif not isinstance(delta, Delta):
            raise GraphError(f"apply() expects a Delta, got {type(delta).__name__}")
        doomed: List[Edge] = []
        matched: Set[int] = set()
        for source, label, target, occur in delta.removed:
            edge = self._find_edge(source, label, target, occur, exclude=matched)
            if edge is None:
                raise GraphError(
                    f"delta removes absent edge {source!r} -{label}-> {target!r}"
                    f"{'' if occur == ONE else f' [{occur}]'}"
                )
            matched.add(edge.edge_id)
            doomed.append(edge)
        resolved = Delta(
            added=delta.added,
            removed=tuple(
                (edge.source, edge.label, edge.target, edge.occur) for edge in doomed
            ),
        )
        self._wal_write(resolved)
        for edge in doomed:
            self._graph.remove_edge(edge)
        for source, label, target, occur in delta.added:
            self._graph.add_edge(source, label, target, occur)
        self._mark_fingerprint_dirty(resolved.touched_nodes())
        self._log.append(resolved)
        self._version += 1
        if _obs_metrics.STATE.enabled:
            _M_DELTAS.inc()
            _M_DELTA_EDGES.observe(len(delta.added) + len(delta.removed))
        return self._version

    def _wal_write(self, resolved: Delta) -> None:
        """Write-ahead hook: called with the fully resolved delta *before* any
        mutation.  The base store persists nothing;
        :class:`repro.persist.store.DurableStore` overrides this to append
        the delta to its write-ahead log.  Raising aborts the apply with the
        store unchanged."""

    def _find_edge(
        self,
        source: NodeId,
        label: Label,
        target: NodeId,
        occur: Interval,
        exclude: Set[int],
    ) -> Optional[Edge]:
        """One stored edge matching the description (interval ``1`` matches any
        edge of the triple, so plain deltas need not know stored intervals)."""
        index, out, _, sources, labels, targets, occurs = self._graph.adjacency()
        row = index.get(source)
        for edge_id in () if row is None else out[row]:
            if edge_id in exclude or labels[edge_id] != label or targets[edge_id] != target:
                continue
            if occur == ONE or occurs[edge_id] == occur:
                return Edge(
                    edge_id, sources[edge_id], targets[edge_id], labels[edge_id], occurs[edge_id]
                )
        return None

    def add_edge(self, source: NodeId, label: Label, target: NodeId, occur=None) -> int:
        """Insert one edge (as a single-entry delta); returns the new version."""
        entry = (source, label, target) if occur is None else (source, label, target, occur)
        return self.apply(Delta.of(add=[entry]))

    def remove_edge(self, source: NodeId, label: Label, target: NodeId, occur=None) -> int:
        """Remove one matching edge (single-entry delta); returns the new version."""
        entry = (source, label, target) if occur is None else (source, label, target, occur)
        return self.apply(Delta.of(remove=[entry]))

    # ------------------------------------------------------------------ #
    # History
    # ------------------------------------------------------------------ #
    def diff(self, v1: int, v2: int) -> Delta:
        """The delta transforming version ``v1`` into version ``v2``.

        Forward diffs compose the log entries of the span with
        :meth:`Delta.then`; backward diffs are the inverse of the forward
        direction.  Both versions must lie in ``[base_version, version]`` — a
        restored store's history starts at its snapshot.  Applying
        ``diff(v1, v2)`` to a graph with version ``v1``'s content reproduces
        version ``v2``'s content.
        """
        for version in (v1, v2):
            if not self._base <= version <= self._version:
                raise GraphError(
                    f"version {version} is outside this store's history "
                    f"[{self._base}, {self._version}]"
                )
        if v1 == v2:
            return Delta()
        low, high = sorted((v1, v2))
        span = self._log[low - self._base : high - self._base]
        if v1 > v2:
            span = [delta.inverse() for delta in reversed(span)]
        combined = span[0]
        for delta in span[1:]:
            combined = combined.then(delta)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphStore #{self.store_id} {self.name!r} v{self._version} "
            f"|N|={self._graph.node_count} |E|={self._graph.edge_count}>"
        )
