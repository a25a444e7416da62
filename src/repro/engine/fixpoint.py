"""The shared maximal-typing fixpoint kernel.

Both validation semantics — plain graphs (:func:`repro.schema.typing.maximal_typing`)
and compressed graphs (:func:`repro.schema.validation.maximal_typing_compressed`)
— compute the same greatest fixpoint: start from the full relation ``N × Γ``
and drop ``(node, type)`` pairs whose check fails under the current relation
until nothing changes.  This module owns that loop once: two entry points
(a full run, and delta-seeded retyping of a graph's changed region) each
hand one active region to the kernel below.  The kernel starts a node from
its *label seed* (:meth:`repro.engine.compiled.CompiledSchema.label_seed`):
the types whose alphabet allows every label on the node's out-edges and
whose required labels it carries, not all of ``Γ``.  A dropped type fails
the node's check under any typing, so the greatest fixpoint is the same.
The kernel improves on the per-semantics worklists it replaced (retained in
:mod:`repro.schema.reference`) in three ways:

**Kahn release, then Tarjan.**  A node's types depend only on the types of
its successors, so the region is typed sinks first.  A node that reaches no
cycle is typed the moment Kahn's pass (:func:`repro.graphs.scc.release`)
releases it: its successors are final, so its types are a function of its
*row*, the multiset of ``(label, target types)`` over its out-edges, read
straight off the adjacency.  The first node with a given row is seeded and
checked; a later node with the same row (a clone, an unrolled copy: what
Section 6.1's kind quotient would merge) takes its types without a seed or
a check.  Only the nodes left over go through Tarjan
(:func:`repro.graphs.scc.tarjan`), and each of their strongly connected
components is driven to its local fixpoint, sinks first, under a memo keyed
by its *shape* (each member's row, an edge inside the component read as the
target's index): isomorphic cycles with equally typed boundaries are
stabilised once.  No component is revisited.  On an incremental run the
same order gives a *cut-off*: a component the delta did not touch, whose
successors outside it all came back with their prior types, keeps its prior
types unchecked.

**Fine-grained dirtiness.**  Work is tracked per ``(node, type)`` pair, not
per node.  When a successor reached through label ``a`` loses type ``τ``, a
pair ``(n, t)`` is marked dirty only when the symbol ``(a, τ)`` occurs in
``t``'s alphabet (the inverted index
:meth:`repro.engine.compiled.CompiledSchema.symbol_watchers`); all other types
of ``n`` provably cannot have been invalidated.  Iteration order comes from
the precomputed :attr:`repro.engine.compiled.CompiledSchema.type_order`, so
the inner loop performs no per-iteration ``sorted()`` calls.

**Signature memoisation and batched solving.**  A check's outcome depends
only on the type and the node's *neighbourhood signature* — the multiset of
``(label[, multiplicity], candidate types)`` over its out-edges — so
isomorphic nodes (clones, unrolled copies, kind-mates) are checked once per
signature.  Under the compressed semantics, a rule with per-symbol bounds is
decided by the same flow as a plain check, each group's count being its
summed edge multiplicity.  For any other rule each refinement round collects
every non-memoised check, assembles its linear system from the type's cached
normalised Presburger template
(:meth:`repro.engine.compiled.CompiledType.normalised_template`), and answers
the whole round through one batched MILP invocation
(:func:`repro.presburger.solver.solve_problems`) instead of one solver call
per pair.

Chaotic iteration of a monotone operator reaches the same greatest fixpoint
regardless of evaluation order, so all of the above is a *schedule* — the
resulting typing is identical to the naive full-rescan reference, which the
parity suite (``tests/property/test_fixpoint_parity.py``) asserts on
randomized instances.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.engine.compiled import CompiledSchema, compile_schema
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing
from repro.graphs.graph import Adjacency, Graph
from repro.graphs.scc import backward_closure, release, tarjan
from repro.schema.shex import ShExSchema, TypeName
from repro.schema.typing import Typing, edge_groups, satisfies_type_groups

NodeId = Hashable

#: A plain-semantics neighbourhood signature entry: (label, candidate types).
#: Compressed signatures additionally carry the edge multiplicity.


@dataclass
class FixpointStats:
    """Counters describing one kernel run (observability and benchmarks).

    ``checks`` counts (node, type) satisfaction questions asked;
    ``row_hits`` the nodes that took their types from the row memo or, on
    a cycle, from the component memo, without a seed or a check;
    ``signature_hits`` how many checks were answered from the
    neighbourhood-signature memo; ``shortcut_failures``
    how many failed outright because a mandatory edge had no candidate
    target type (no memo needed); ``solver_problems`` how many Presburger
    systems reached the batch solver (compressed semantics only).
    ``checks - signature_hits - shortcut_failures`` is therefore the number
    of checks actually *evaluated* — on a graph of isomorphic clones it
    stays flat as copies are added.  Presburger-side counters
    (satisfiability queries, actual MILP invocations) are read through a
    :class:`repro.presburger.solver.SolverWindow`.

    ``mode`` records which schedule produced the typing: ``"full"`` (the
    whole graph), ``"incremental"`` (delta-seeded), or ``"unchanged"`` (empty
    effective delta).  For incremental runs ``frontier`` is the number of
    delta-touched nodes (with any node the prior typing does not list),
    ``affected`` the size of their backward closure — the region retyped —
    and ``skipped`` how many of the region's components the cut-off left at
    their prior types without a check.
    """

    components: int = 0
    rounds: int = 0
    checks: int = 0
    row_hits: int = 0
    signature_hits: int = 0
    shortcut_failures: int = 0
    removals: int = 0
    solver_problems: int = 0
    mode: str = "full"
    frontier: int = 0
    affected: int = 0
    skipped: int = 0

    @property
    def evaluated(self) -> int:
        """Checks that required real work (no memo, no shortcut)."""
        return self.checks - self.signature_hits - self.shortcut_failures


# --------------------------------------------------------------------------- #
# Process-wide kernel metrics (repro.obs)
# --------------------------------------------------------------------------- #
_REGISTRY = _obs_metrics.get_registry()
_M_RUNS = _REGISTRY.counter(
    "repro_fixpoint_runs_total", "Kernel runs, by schedule mode.", labels=("mode",)
)
_M_RUN_SECONDS = _REGISTRY.histogram(
    "repro_fixpoint_run_seconds",
    "Wall time of one outermost kernel run, by schedule mode.",
    labels=("mode",),
)
_M_COMPONENTS = _REGISTRY.counter(
    "repro_fixpoint_components_total", "Strongly connected components scheduled."
)
_M_ROUNDS = _REGISTRY.counter(
    "repro_fixpoint_rounds_total", "Refinement rounds across all components."
)
_M_CHECKS = _REGISTRY.counter(
    "repro_fixpoint_checks_total", "(node, type) satisfaction checks asked."
)
_M_ROW_HITS = _REGISTRY.counter(
    "repro_fixpoint_row_hits_total",
    "Nodes typed from the row or component memo without a check.",
)
_M_SIGNATURE_HITS = _REGISTRY.counter(
    "repro_fixpoint_signature_hits_total",
    "Checks answered from the neighbourhood-signature memo.",
)
_M_SHORTCUT_FAILURES = _REGISTRY.counter(
    "repro_fixpoint_shortcut_failures_total",
    "Checks failed outright (mandatory edge with no candidate target).",
)
_M_REMOVALS = _REGISTRY.counter(
    "repro_fixpoint_removals_total", "(node, type) pairs dropped from the relation."
)
_M_SOLVER_PROBLEMS = _REGISTRY.counter(
    "repro_fixpoint_solver_problems_total",
    "Presburger systems handed to the batch solver.",
)
_M_FRONTIER = _REGISTRY.histogram(
    "repro_fixpoint_frontier",
    "Delta-touched nodes seeding an incremental run.",
)
_M_AFFECTED = _REGISTRY.histogram(
    "repro_fixpoint_affected", "Backward-closure size actually retyped."
)

_DEPTH = threading.local()

#: Stats fields flushed as counter increments when an outermost run ends.
_FLUSHED_FIELDS = (
    ("components", _M_COMPONENTS),
    ("rounds", _M_ROUNDS),
    ("checks", _M_CHECKS),
    ("row_hits", _M_ROW_HITS),
    ("signature_hits", _M_SIGNATURE_HITS),
    ("shortcut_failures", _M_SHORTCUT_FAILURES),
    ("removals", _M_REMOVALS),
    ("solver_problems", _M_SOLVER_PROBLEMS),
)


class _KernelScope:
    """Flush one *outermost* kernel run into the registry on exit.

    The entry functions nest (``retype_incremental`` falls back to
    ``maximal_typing_fixpoint``), and callers set ``stats.mode`` at
    different points, so per-function recording would double count and
    mislabel.  A thread-local depth makes only the
    outermost scope record — once, after the final ``mode`` is in place —
    and it flushes *deltas* of the stats fields since entry, so a caller
    reusing one ``FixpointStats`` across runs is counted correctly.
    """

    __slots__ = ("_stats", "_outermost", "_started", "_entry")

    def __init__(self, stats: "FixpointStats"):
        self._stats = stats

    def __enter__(self) -> "_KernelScope":
        depth = getattr(_DEPTH, "value", 0)
        _DEPTH.value = depth + 1
        self._outermost = depth == 0 and _obs_metrics.STATE.enabled
        if self._outermost:
            self._started = time.perf_counter()
            self._entry = {
                field: getattr(self._stats, field) for field, _ in _FLUSHED_FIELDS
            }
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _DEPTH.value -= 1
        if self._outermost and exc_type is None:
            stats = self._stats
            mode = stats.mode
            _M_RUNS.labels(mode=mode).inc()
            _M_RUN_SECONDS.labels(mode=mode).observe(
                time.perf_counter() - self._started
            )
            for field, counter in _FLUSHED_FIELDS:
                delta = getattr(stats, field) - self._entry[field]
                if delta:
                    counter.inc(delta)
            if mode in ("incremental", "unchanged"):
                _M_FRONTIER.observe(stats.frontier)
                _M_AFFECTED.observe(stats.affected)
        return False


def fixpoint_metrics_summary() -> Dict[str, object]:
    """Point-in-time totals of the kernel's process-wide counters.

    The daemon's ``metrics`` op embeds this; it is a convenience read over
    the ``repro_fixpoint_*`` instruments, not a separate store.
    """
    runs_by_mode: Dict[str, float] = {}
    runs = _REGISTRY.get("repro_fixpoint_runs_total")
    if runs is not None:
        runs_by_mode = {key[0]: child.value for key, child in runs._items()}
    checks = _M_CHECKS.value
    hits = _M_SIGNATURE_HITS.value
    return {
        "runs": runs_by_mode,
        "components": _M_COMPONENTS.value,
        "rounds": _M_ROUNDS.value,
        "checks": checks,
        "row_hits": _M_ROW_HITS.value,
        "signature_hits": hits,
        "signature_hit_rate": (hits / checks) if checks else 0.0,
        "shortcut_failures": _M_SHORTCUT_FAILURES.value,
        "removals": _M_REMOVALS.value,
        "solver_problems": _M_SOLVER_PROBLEMS.value,
    }


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
def _out_labels(adj: Adjacency, edge_ids, compressed: bool) -> frozenset:
    """The labels on a node's out-edges ``edge_ids`` that its label seed
    reads: under the compressed semantics an edge of multiplicity 0 counts
    for nothing."""
    label = adj.label
    if compressed:
        occur = adj.occur
        return frozenset(label[edge_id] for edge_id in edge_ids if occur[edge_id].lower)
    return frozenset(map(label.__getitem__, edge_ids))


def _row(
    adj: Adjacency, edge_ids, current: Dict[NodeId, FrozenSet[TypeName]],
    compressed: bool,
) -> FrozenSet:
    """A node's row over its successors' settled types, from its out-edge ids.

    The row is the multiset of ``(label, target types)`` over the out-edges,
    as a frozenset of ``(key, count)`` pairs; under the compressed semantics
    the key also carries the edge's occurrence interval.  A node without a
    self-loop reads nothing else in its label seed and its checks, so such
    nodes with equal rows get equal types.
    """
    counts: Dict[Tuple, int] = {}
    label, target = adj.label, adj.target
    if compressed:
        occur = adj.occur
        for edge_id in edge_ids:
            key = (label[edge_id], occur[edge_id], current[target[edge_id]])
            counts[key] = counts.get(key, 0) + 1
    else:
        for edge_id in edge_ids:
            key = (label[edge_id], current[target[edge_id]])
            counts[key] = counts.get(key, 0) + 1
    return frozenset(counts.items())


def _shape(
    adj: Adjacency,
    component: Tuple[NodeId, ...],
    current: Dict[NodeId, FrozenSet[TypeName]],
    compressed: bool,
) -> Tuple[FrozenSet, ...]:
    """A cyclic component's memo key: each member's row, in component order.

    An edge inside the component ends at its target's index in the
    component, an edge leaving it at the target's settled types.  The
    members' label seeds and checks read nothing else, so components with
    equal shapes get equal types, index by index.
    """
    row_of, out, _, _, label, target, occur = adj
    position = {node: at for at, node in enumerate(component)}
    shape = []
    for node in component:
        counts: Dict[Tuple, int] = {}
        for edge_id in out[row_of[node]]:
            end = position.get(target[edge_id])
            if end is None:
                end = current[target[edge_id]]
            key = (label[edge_id], occur[edge_id], end) if compressed else (label[edge_id], end)
            counts[key] = counts.get(key, 0) + 1
        shape.append(frozenset(counts.items()))
    return tuple(shape)


def _stabilise_objects(
    graph: Graph,
    active,
    current: Dict[NodeId, FrozenSet[TypeName]],
    compiled: CompiledSchema,
    compressed: bool,
    signature_memo: Dict[Tuple, bool],
    stats: FixpointStats,
    prior: Optional[Typing] = None,
    touched: Set[NodeId] = frozenset(),
) -> None:
    """Drive the ``active`` region to its greatest fixpoint, in place in ``current``.

    ``active`` nodes get their label seeds; out-edge targets outside it are
    read frozen from ``current``.  Settled types are stored as frozensets.

    A node of the region that reaches no cycle in it is typed as Kahn's pass
    (:func:`repro.graphs.scc.release`) releases it: its successors are
    final, so its types are a function of its :func:`_row`.  The first node
    with a given row is seeded and checked, and later ones take its types
    without a seed or a check (``stats.row_hits``).  The nodes left over go
    through Tarjan, and each of their components is seeded and driven to its
    local fixpoint sinks first, under a memo keyed by its :func:`_shape`: an
    isomorphic component with equally typed boundaries (a clone's cycle)
    takes the first one's types member by member, also counted in
    ``stats.row_hits``.  Both memos live for this call.

    With the ``prior`` typing of the graph before a delta whose nodes in
    ``active`` are ``touched`` (``current`` then reads every node it does
    not hold from ``prior``), a component is checked only when one of its
    nodes is touched or has an out-edge to a node whose types came back
    changed; any other component keeps its prior types without a check or
    an entry in ``current`` (the *cut-off*).  That is exact: its edges and
    everything it reads are as they were, so the checks would settle it
    where the prior fixpoint did.
    """
    type_order = compiled.type_order
    artifacts = {
        type_name: compiled.type_artifact(type_name) for type_name in type_order
    }
    label_seed = compiled.label_seed
    # Row -> types, and component shape -> its members' types.
    memo: Dict[object, object] = {}
    # The nodes to check: touched ones, and predecessors of changed ones.
    dirty: Set[NodeId] = set(touched)
    components = skipped = 0
    adj = graph.adjacency()
    row_of, out, into, source, _, target, _ = adj
    pending: Dict[NodeId, int] = {}
    for node in release(graph, active, pending):
        components += 1
        if prior is not None and node not in dirty:
            skipped += 1
            continue
        edge_ids = out[row_of[node]]
        row = _row(adj, edge_ids, current, compressed)
        types = memo.get(row)
        if types is None:
            current[node] = set(label_seed(_out_labels(adj, edge_ids, compressed)))
            _stabilise_single(
                adj, node, current, type_order, artifacts,
                signature_memo, stats, compressed, self_loop=False,
            )
            types = memo[row] = frozenset(current[node])
        else:
            stats.row_hits += 1
        current[node] = types
        if prior is not None and types != prior.types_of(node):
            dirty.update(map(source.__getitem__, into[row_of[node]]))
    if pending:
        watchers = compiled.symbol_watchers()
        stabilise = _stabilise_compressed if compressed else _stabilise_plain
        for component in tarjan(graph, pending):
            components += 1
            if prior is not None and not any(node in dirty for node in component):
                skipped += 1
                continue
            shape = _shape(adj, component, current, compressed)
            settled = memo.get(shape)
            if settled is None:
                for node in component:
                    current[node] = set(
                        label_seed(_out_labels(adj, out[row_of[node]], compressed))
                    )
                if len(component) == 1:
                    node = component[0]
                    _stabilise_single(
                        adj, node, current, type_order, artifacts,
                        signature_memo, stats, compressed,
                        self_loop=node in map(target.__getitem__, out[row_of[node]]),
                    )
                else:
                    stabilise(
                        adj, component, set(component), current,
                        type_order, artifacts, watchers, signature_memo, stats,
                    )
                settled = memo[shape] = tuple(frozenset(current[node]) for node in component)
            else:
                stats.row_hits += len(component)
            current.update(zip(component, settled))
            if prior is not None:
                for node, types in zip(component, settled):
                    if types != prior.types_of(node):
                        dirty.update(map(source.__getitem__, into[row_of[node]]))
    stats.components = components
    stats.skipped = skipped


def _stabilise_single(
    adj: Adjacency,
    node: NodeId,
    current: Dict[NodeId, Set[TypeName]],
    type_order: Tuple[TypeName, ...],
    artifacts: Dict[TypeName, object],
    signature_memo: Dict[Tuple, bool],
    stats: FixpointStats,
    compressed: bool,
    self_loop: bool,
) -> None:
    """Stabilise a one-node component: check its types until none fails.

    Its successors outside it are final, so without a ``self_loop`` one pass
    settles it; with one, a removal may invalidate the node's other types
    and the pass repeats.  Most components of acyclic graphs are like this,
    and skip the dirtiness bookkeeping.
    """
    types = current[node]
    while True:
        pending = [type_name for type_name in type_order if type_name in types]
        if not pending:
            return
        if compressed:
            stats.rounds += 1
            verdicts = _check_compressed_batch(
                adj, [(node, type_name) for type_name in pending],
                current, artifacts, signature_memo, stats,
            )
        else:
            stats.checks += len(pending)
            verdicts = [
                _check_plain(
                    adj, node, artifacts[type_name], current, signature_memo, stats
                )
                for type_name in pending
            ]
        removed = [
            type_name for type_name, verdict in zip(pending, verdicts) if not verdict
        ]
        if not removed:
            return
        types.difference_update(removed)
        stats.removals += len(removed)
        if not self_loop:
            return


def _compiled_schema(schema, compiled) -> CompiledSchema:
    if compiled is None:
        if schema is None:
            raise ValueError("pass a schema or a compiled schema")
        return compile_schema(schema)
    return compile_schema(compiled)


def maximal_typing_fixpoint(
    graph: Graph,
    schema: Optional[Union[ShExSchema, CompiledSchema]] = None,
    compiled: Optional[CompiledSchema] = None,
    compressed: bool = False,
    stats: Optional[FixpointStats] = None,
    signature_memo: Optional[Dict[Tuple, bool]] = None,
) -> Typing:
    """The maximal typing of ``graph``, by the fixpoint kernel.

    ``compressed`` selects the Section 6.1 semantics (edge multiplicities as
    exponents, satisfaction via batched Presburger solving).  Pass ``stats``
    to collect :class:`FixpointStats` about the run.  Either ``schema`` or a
    pre-built ``compiled`` schema must be given; results are identical to the
    naive references in :mod:`repro.schema.reference`.

    ``signature_memo`` optionally supplies a persistent
    ``(type, neighbourhood signature) -> verdict`` dictionary.  A check's
    outcome is a pure function of that key, so the memo may be carried across
    any number of runs *of the same compiled schema* — the engines reuse one
    per schema fingerprint, which is what makes repeated revalidation of
    slightly-changed graphs nearly free.
    """
    compiled = _compiled_schema(schema, compiled)
    if stats is None:
        stats = FixpointStats()
    with _KernelScope(stats), _obs_tracing.span(
        "fixpoint.full", compressed=compressed, nodes=graph.node_count,
    ) as trace_span:
        # (type, neighbourhood signature) -> verdict; shared across the run
        # so isomorphic nodes anywhere in the graph are checked once.
        if signature_memo is None:
            signature_memo = {}
        current: Dict[NodeId, FrozenSet[TypeName]] = {}
        hits = stats.row_hits
        _stabilise_objects(
            graph, graph.nodes, current, compiled, compressed, signature_memo, stats
        )
        stats.mode = "full"
        trace_span.annotate(row_hits=stats.row_hits - hits)
        return Typing.frozen(current)


# --------------------------------------------------------------------------- #
# Incremental retyping from a delta frontier
# --------------------------------------------------------------------------- #
def affected_region(graph: Graph, seeds) -> Set[NodeId]:
    """The backward closure of ``seeds``: every node that can reach a seed.

    A node's types depend only on its out-reachable subgraph, so after an edge
    delta the typing can change exactly for the nodes from which some touched
    node is reachable — the region :func:`repro.graphs.scc.backward_closure`
    collects with a BFS over the in-rows.  Seeds absent from the graph are
    ignored.
    """
    return backward_closure(
        graph, (node for node in seeds if graph.has_node(node))
    )


#: The fraction of the graph an incremental region may reach before
#: :func:`retype_incremental` types the whole graph instead.
MAX_AFFECTED_FRACTION = 0.5


def retype_incremental(
    store,
    prior_typing: Typing,
    delta,
    compiled: Optional[CompiledSchema] = None,
    schema: Optional[Union[ShExSchema, CompiledSchema]] = None,
    compressed: bool = False,
    stats: Optional[FixpointStats] = None,
    max_affected_fraction: float = MAX_AFFECTED_FRACTION,
    signature_memo: Optional[Dict[Tuple, bool]] = None,
) -> Typing:
    """Maximal typing of the *changed* graph, re-deriving only what ``delta`` can touch.

    ``store`` is a :class:`repro.graphs.store.GraphStore` (or a bare
    :class:`Graph`) already in its **new** state; ``prior_typing`` is the
    maximal typing of the state *before* ``delta`` was applied.  The result
    equals a from-scratch :func:`maximal_typing_fixpoint` of the new graph
    (the delta-parity suite asserts this pair-for-pair), computed as:

    1. collect the delta's touched nodes and their backward closure — the
       *affected region*; every node outside it keeps its prior types
       verbatim (its out-reachable subgraph is untouched, hence its slice of
       the greatest fixpoint is unchanged);
    2. drive the region to its local fixpoint with the kernel, component by
       component sinks first, reading the frozen prior types across the
       region boundary.  A component is reseeded with its label seeds —
       sound for additions and removals alike — unless the kernel's
       cut-off shows it keeps its prior types (see
       :func:`_stabilise_objects`);
    3. derive the result from ``prior_typing`` copy-on-write
       (:meth:`repro.schema.typing.Typing.updated`) with the region nodes
       whose types changed, so nothing outside the region is copied.

    When the affected region exceeds ``max_affected_fraction`` of the graph
    the incremental schedule would approach a full run anyway (and a large
    additive delta may grow typings across most of the prior fixpoint's
    support), so the kernel falls back to :func:`maximal_typing_fixpoint` —
    ``stats.mode`` then reports ``"full"`` instead of ``"incremental"``.  A delta touching no node of the graph reports
    ``"unchanged"`` and returns ``prior_typing`` itself.

    ``signature_memo`` has the :func:`maximal_typing_fixpoint` semantics: a
    persistent per-schema verdict memo.  It pays off here in particular —
    after a small delta, most affected (node, type) checks re-pose questions
    the prior run already answered.
    """
    compiled = _compiled_schema(schema, compiled)
    if stats is None:
        stats = FixpointStats()
    graph = getattr(store, "graph", store)
    with _KernelScope(stats), _obs_tracing.span("fixpoint.incremental") as trace_span:
        touched = {node for node in delta.touched_nodes() if graph.has_node(node)}
        # A store never drops nodes, but a delta composed over several
        # versions cancels an edge that was added and removed again, and a
        # node that edge created is then in neither the delta nor the prior
        # typing: such nodes are retyped like touched ones.
        listed = prior_typing.node_count + sum(
            1 for node in touched if not prior_typing.lists(node)
        )
        if listed < graph.node_count:
            touched.update(node for node in graph.nodes if not prior_typing.lists(node))
        stats.frontier = len(touched)
        if not touched:
            stats.mode = "unchanged"
            trace_span.annotate(mode="unchanged")
            return prior_typing

        affected = affected_region(graph, touched)
        stats.affected = len(affected)
        trace_span.annotate(frontier=stats.frontier, affected=stats.affected)
        if len(affected) > max_affected_fraction * graph.node_count:
            return maximal_typing_fixpoint(
                graph, compiled=compiled, compressed=compressed, stats=stats,
                signature_memo=signature_memo,
            )

        # Nodes the kernel leaves alone read as their prior (final) types.
        current = _OverPrior(prior_typing)
        if signature_memo is None:
            signature_memo = {}
        hits = stats.row_hits
        _stabilise_objects(
            graph, affected, current, compiled, compressed, signature_memo, stats,
            prior_typing, touched,
        )
        stats.mode = "incremental"
        trace_span.annotate(skipped=stats.skipped, row_hits=stats.row_hits - hits)
        return prior_typing.updated({
            node: types
            for node, types in current.items()
            if types != prior_typing.types_of(node) or not prior_typing.lists(node)
        })


class _OverPrior(dict):
    """A region's working types: a missing node reads as its prior types."""

    __slots__ = ("_prior",)

    def __init__(self, prior: Typing):
        super().__init__()
        self._prior = prior

    def __missing__(self, node: NodeId) -> FrozenSet[TypeName]:
        return self._prior.types_of(node)


# --------------------------------------------------------------------------- #
# Dirtiness propagation (shared by both semantics)
# --------------------------------------------------------------------------- #
def _mark_dirty(
    adj: Adjacency,
    node: NodeId,
    removed: Sequence[TypeName],
    member_set: Set[NodeId],
    current: Dict[NodeId, Set[TypeName]],
    watchers: Dict[object, Tuple[TypeName, ...]],
    dirty: Dict[NodeId, Set[TypeName]],
) -> List[NodeId]:
    """Mark the pairs invalidated by ``node`` losing ``removed`` types.

    Only predecessors inside the active component are marked: predecessors in
    other components are upstream in the condensation, hence not yet processed
    and still fully dirty.  Returns the members that gained dirty types.
    """
    touched: List[NodeId] = []
    source, label = adj.source, adj.label
    for edge_id in adj.into[adj.index[node]]:
        predecessor = source[edge_id]
        if predecessor not in member_set:
            continue
        predecessor_types = current[predecessor]
        marks = dirty[predecessor]
        before = len(marks)
        for lost in removed:
            for watcher in watchers.get((label[edge_id], lost), ()):
                if watcher in predecessor_types:
                    marks.add(watcher)
        if len(marks) != before:
            touched.append(predecessor)
    return touched


# --------------------------------------------------------------------------- #
# Plain semantics: per-pair Gauss-Seidel within a component
# --------------------------------------------------------------------------- #
def _stabilise_plain(
    adj: Adjacency,
    component: Tuple[NodeId, ...],
    member_set: Set[NodeId],
    current: Dict[NodeId, Set[TypeName]],
    type_order: Tuple[TypeName, ...],
    artifacts: Dict[TypeName, object],
    watchers: Dict[object, Tuple[TypeName, ...]],
    signature_memo: Dict[Tuple, bool],
    stats: FixpointStats,
) -> None:
    dirty: Dict[NodeId, Set[TypeName]] = {
        node: set(current[node]) for node in component
    }
    queue: deque = deque(component)  # components come pre-sorted by repr
    queued: Set[NodeId] = set(component)
    while queue:
        node = queue.popleft()
        queued.discard(node)
        pending = dirty[node]
        if not pending:
            continue
        dirty[node] = set()
        node_types = current[node]
        removed: List[TypeName] = []
        for type_name in type_order:
            if type_name not in pending or type_name not in node_types:
                continue
            stats.checks += 1
            if not _check_plain(
                adj, node, artifacts[type_name], current, signature_memo, stats
            ):
                node_types.discard(type_name)
                removed.append(type_name)
        if removed:
            stats.removals += len(removed)
            for touched in _mark_dirty(
                adj, node, removed, member_set, current, watchers, dirty
            ):
                if touched not in queued:
                    queue.append(touched)
                    queued.add(touched)


def _check_plain(
    adj: Adjacency,
    node: NodeId,
    artifact,
    current: Dict[NodeId, Set[TypeName]],
    signature_memo: Dict[Tuple, bool],
    stats: FixpointStats,
) -> bool:
    label_options = artifact.label_options
    labels, targets = adj.label, adj.target
    groups: Dict[Tuple[str, Tuple[TypeName, ...]], int] = {}
    for edge_id in adj.out[adj.index[node]]:
        label = labels[edge_id]
        target_types = current[targets[edge_id]]
        options = tuple(
            type_name
            for type_name in label_options.get(label, ())
            if type_name in target_types
        )
        if not options:
            stats.shortcut_failures += 1
            return False
        key = (label, options)
        groups[key] = groups.get(key, 0) + 1
    signature = (artifact.type_name, tuple(sorted(groups.items())))
    known = signature_memo.get(signature)
    if known is not None:
        stats.signature_hits += 1
        return known
    verdict = satisfies_type_groups(artifact, groups)
    signature_memo[signature] = verdict
    return verdict


# --------------------------------------------------------------------------- #
# Compressed semantics: round-based Jacobi sweeps with batched solving
# --------------------------------------------------------------------------- #
def _stabilise_compressed(
    adj: Adjacency,
    component: Tuple[NodeId, ...],
    member_set: Set[NodeId],
    current: Dict[NodeId, Set[TypeName]],
    type_order: Tuple[TypeName, ...],
    artifacts: Dict[TypeName, object],
    watchers: Dict[object, Tuple[TypeName, ...]],
    signature_memo: Dict[Tuple, bool],
    stats: FixpointStats,
) -> None:
    """Stabilise one component by synchronous rounds of batched checks.

    Each round snapshots every dirty surviving pair, decides all of them
    against the *current* relation (one batched MILP for the non-memoised
    ones), then applies the removals together and marks the next round's
    dirtiness.  Removing several pairs at once is sound because satisfaction
    is monotone in the relation — a pair invalid under the snapshot stays
    invalid under any smaller relation — and chaotic iteration converges to
    the same greatest fixpoint as the per-pair schedule.
    """
    dirty: Dict[NodeId, Set[TypeName]] = {
        node: set(current[node]) for node in component
    }
    while True:
        batch: List[Tuple[NodeId, TypeName]] = []
        for node in component:
            pending = dirty[node]
            if not pending:
                continue
            node_types = current[node]
            for type_name in type_order:
                if type_name in pending and type_name in node_types:
                    batch.append((node, type_name))
            dirty[node] = set()
        if not batch:
            return
        stats.rounds += 1
        verdicts = _check_compressed_batch(
            adj, batch, current, artifacts, signature_memo, stats
        )
        removed_by_node: Dict[NodeId, List[TypeName]] = {}
        for (node, type_name), verdict in zip(batch, verdicts):
            if not verdict:
                current[node].discard(type_name)
                removed_by_node.setdefault(node, []).append(type_name)
        for node, removed in removed_by_node.items():
            stats.removals += len(removed)
            _mark_dirty(adj, node, removed, member_set, current, watchers, dirty)


def _check_compressed_batch(
    adj: Adjacency,
    pairs: Sequence[Tuple[NodeId, TypeName]],
    current: Dict[NodeId, Set[TypeName]],
    artifacts: Dict[TypeName, object],
    signature_memo: Dict[Tuple, bool],
    stats: FixpointStats,
) -> List[bool]:
    """Decide one round of compressed checks.

    Rules with per-symbol bounds are decided by the flow as they come; the
    other rules' memo misses go to the solver in one batch.
    """
    verdicts: List[Optional[bool]] = [None] * len(pairs)
    pending_positions: Dict[Tuple, List[int]] = {}
    pending_order: List[Tuple] = []
    pending_problems: List[Tuple] = []
    for position, (node, type_name) in enumerate(pairs):
        stats.checks += 1
        artifact = artifacts[type_name]
        described = _compressed_signature(adj, node, artifact, current)
        if described is None:
            stats.shortcut_failures += 1
            verdicts[position] = False  # a mandatory edge has no candidate type
            continue
        signature, edge_descriptions = described
        known = signature_memo.get(signature)
        if known is not None:
            stats.signature_hits += 1
            verdicts[position] = known
            continue
        if artifact.group_bounds is not None:
            verdict = satisfies_type_groups(artifact, edge_groups(edge_descriptions))
            signature_memo[signature] = verdict
            verdicts[position] = verdict
            continue
        positions = pending_positions.get(signature)
        if positions is not None:
            positions.append(position)
            continue
        pending_positions[signature] = [position]
        pending_order.append(signature)
        pending_problems.append(_assemble_problem(artifact, edge_descriptions))
    if pending_problems:
        from repro.presburger.solver import solve_problems

        stats.solver_problems += len(pending_problems)
        solved = solve_problems(pending_problems)
        for signature, verdict in zip(pending_order, solved):
            signature_memo[signature] = verdict
            for position in pending_positions[signature]:
                verdicts[position] = verdict
    return [bool(verdict) for verdict in verdicts]


def _compressed_signature(
    adj: Adjacency,
    node: NodeId,
    artifact,
    current: Dict[NodeId, Set[TypeName]],
):
    """``(signature, edge descriptions)`` for one compressed check, or ``None``.

    ``None`` means the check fails outright: some edge with positive
    multiplicity has no candidate target type in the rule's alphabet.
    Zero-multiplicity edges are dropped — their parallel-edge variables are
    forced to zero, contributing nothing to any symbol count.
    """
    label_options = artifact.label_options
    labels, targets, occurs = adj.label, adj.target, adj.occur
    descriptions: List[Tuple[str, int, Tuple[TypeName, ...]]] = []
    for edge_id in adj.out[adj.index[node]]:
        label = labels[edge_id]
        multiplicity = occurs[edge_id].lower
        target_types = current[targets[edge_id]]
        options = tuple(
            type_name
            for type_name in label_options.get(label, ())
            if type_name in target_types
        )
        if not options:
            if multiplicity > 0:
                return None
            continue
        if multiplicity == 0:
            continue
        descriptions.append((label, multiplicity, options))
    signature = (artifact.type_name, tuple(sorted(descriptions)))
    return signature, descriptions


def _assemble_problem(artifact, edge_descriptions) -> Tuple:
    """Build the normalised linear system of one compressed check.

    Follows the encoding of Proposition 6.2 — variables ``y_{e,τ}`` split each
    compressed edge's multiplicity across candidate types, per-symbol totals
    ``z_{a::τ}`` must satisfy ``ψ_{δ(t)}(z̄, 1)`` — but assembles coefficient
    rows directly against the type's cached normalised template instead of
    building and re-normalising a formula tree per check.
    """
    z_vars, template_conjuncts = artifact.normalised_template()
    if not template_conjuncts:
        return ()  # ψ is unsatisfiable on its own
    rows: List[Tuple[Tuple[Tuple[str, int], ...], int]] = []
    contributions: Dict[object, List[str]] = {}
    for edge_index, (label, multiplicity, options) in enumerate(edge_descriptions):
        items = []
        for type_name in options:
            name = f"y!{edge_index}!{type_name}"
            items.append((name, 1))
            contributions.setdefault((label, type_name), []).append(name)
        rows.append((tuple(sorted(items)), multiplicity))
    for symbol in artifact.sorted_alphabet:
        items = [(z_vars[symbol], 1)]
        items.extend((name, -1) for name in contributions.get(symbol, ()))
        rows.append((tuple(sorted(items)), 0))
    call_rows = tuple(rows)
    return tuple(
        (call_rows + equalities, inequalities)
        for equalities, inequalities in template_conjuncts
    )
