"""Typings of graphs with respect to shape expression schemas.

A *typing* of a graph ``G`` w.r.t. a schema ``S`` is a relation
``T ⊆ N_G × Γ_S``.  A node ``n`` satisfies a shape expression ``E`` w.r.t. ``T``
when the intersection of ``L(E)`` with the language of the node's signature is
non-empty — equivalently, when every outgoing edge of ``n`` can be assigned a
type held (according to ``T``) by its end point so that the resulting bag over
``Σ × Γ`` belongs to ``L(E)``.  A typing is *valid* when every node satisfies
the definition of every type assigned to it; valid typings are closed under
union, so a unique maximal typing exists — it is the greatest fixed point of
the refinement operator implemented by :func:`maximal_typing`.

``G`` satisfies ``S`` when the maximal typing assigns at least one type to
every node (see :mod:`repro.schema.validation`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    ItemsView,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.graphs.graph import Graph
from repro.rbe.ast import RBE
from repro.schema.shex import ShExSchema, TypeName
from repro.util.assignment import feasible_split

NodeId = Hashable


_NO_TYPES: FrozenSet[TypeName] = frozenset()


class Typing:
    """An immutable typing relation, viewed as a map from nodes to sets of types.

    Typings produced by the fixpoint kernels list *every* node of the typed
    graph, untyped nodes mapped to the empty set.

    :meth:`updated` derives a typing copy-on-write: the result shares this
    typing's flat dict and holds only the reassigned nodes in an *overlay*,
    so a revalidation that retypes a small region pays for the region, not
    for the graph.  The untyped nodes are kept as a set the same way
    (:meth:`untyped`).
    """

    def __init__(self, assignments: Mapping[NodeId, Iterable[TypeName]]):
        self._adopt({
            node: types if type(types) is frozenset else frozenset(types)
            for node, types in assignments.items()
        })

    @classmethod
    def frozen(cls, assignments: Dict[NodeId, FrozenSet[TypeName]]) -> "Typing":
        """A typing that takes ``assignments`` as its flat dict, without a copy.

        Every value must already be a frozenset, and the caller must not
        change the dict afterwards: the fixpoint kernel hands over the dict
        it settled.
        """
        typing = cls.__new__(cls)
        typing._adopt(assignments)
        return typing

    def _adopt(
        self,
        flat: Dict[NodeId, FrozenSet[TypeName]],
        overlay: Optional[Dict[NodeId, FrozenSet[TypeName]]] = None,
        size: Optional[int] = None,
        untyped: Optional[FrozenSet[NodeId]] = None,
    ) -> None:
        self._assignments = flat
        # Nodes reassigned over the shared ``_assignments`` (None when flat),
        # and how many nodes the typing lists.
        self._overlay = overlay
        self._size = len(flat) if size is None else size
        self._untyped = untyped
        # The pair set that equality, hashing and pairs() are defined on,
        # built on first use: revalidation creates a typing per version and
        # mostly never compares or hashes it.
        self._pairs: Optional[FrozenSet[Tuple[NodeId, TypeName]]] = None
        self._hash: Optional[int] = None

    def __getstate__(self):
        # The memos stay out of pickles: str hashes are per-process, so a
        # pickled hash would be wrong in the process that loads it.
        return {"_assignments": self._flat()}

    def __setstate__(self, state) -> None:
        self._adopt(state["_assignments"])

    def _flat(self) -> Dict[NodeId, FrozenSet[TypeName]]:
        """Every ``node -> types`` entry in one dict, folding the overlay in
        (once: the folded dict replaces the shared one; never mutated)."""
        overlay = self._overlay
        if overlay is not None:
            flat = dict(self._assignments)
            flat.update(overlay)
            self._assignments, self._overlay = flat, None
        return self._assignments

    def updated(self, changes: Mapping[NodeId, Iterable[TypeName]]) -> "Typing":
        """This typing with the nodes of ``changes`` (re)assigned, copy-on-write.

        The result shares this typing's flat dict and keeps, in one overlay,
        every node reassigned since that dict was built.  Copying the overlay
        costs its size on every derivation, so once it outgrows the square
        root of the flat dict's size it is folded into a new flat dict: a run
        of derivations that each reassign ``d`` nodes of an ``n``-node typing
        then costs ``O(d·√n)`` per derivation, amortised, instead of ``O(n)``.
        """
        if not changes:
            return self
        overlay = dict(self._overlay) if self._overlay is not None else {}
        base = self._assignments
        untyped = set(self.untyped())
        size = self._size
        for node, types in changes.items():
            if type(types) is not frozenset:
                types = frozenset(types)
            if node not in overlay and node not in base:
                size += 1
            overlay[node] = types
            if types:
                untyped.discard(node)
            else:
                untyped.add(node)
        derived = Typing.__new__(Typing)
        derived._adopt(base, overlay, size, frozenset(untyped))
        if len(overlay) * len(overlay) > len(base):
            derived._flat()
        return derived

    @property
    def node_count(self) -> int:
        """How many nodes the typing lists (untyped ones included)."""
        return self._size

    def untyped(self) -> FrozenSet[NodeId]:
        """The listed nodes that carry no type (computed once, then kept)."""
        untyped = self._untyped
        if untyped is None:
            untyped = self._untyped = frozenset(
                node for node, types in self._flat().items() if not types
            )
        return untyped

    def types_of(self, node: NodeId) -> FrozenSet[TypeName]:
        """The set of types assigned to ``node`` (empty when unassigned)."""
        overlay = self._overlay
        if overlay is not None:
            types = overlay.get(node)
            if types is not None:
                return types
        return self._assignments.get(node, _NO_TYPES)

    def lists(self, node: NodeId) -> bool:
        """True when the typing lists ``node``, typed or not."""
        overlay = self._overlay
        return (overlay is not None and node in overlay) or node in self._assignments

    def domain(self) -> Set[NodeId]:
        """The nodes that carry at least one type."""
        return {node for node, types in self._flat().items() if types}

    def is_total(self, graph: Graph) -> bool:
        """True when every node of the graph carries at least one type."""
        return all(self.types_of(node) for node in graph.nodes)

    def pairs(self) -> FrozenSet[Tuple[NodeId, TypeName]]:
        """The typing as a (frozen) set of ``(node, type)`` pairs."""
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = frozenset(
                (node, type_name)
                for node, types in self._flat().items()
                for type_name in types
            )
        return pairs

    def as_dict(self) -> Dict[NodeId, FrozenSet[TypeName]]:
        return dict(self._flat())

    def items(self) -> ItemsView[NodeId, FrozenSet[TypeName]]:
        """``(node, types)`` for every node the typing lists (a read-only view)."""
        return self._flat().items()

    def __contains__(self, pair: Tuple[NodeId, TypeName]) -> bool:
        node, type_name = pair
        return type_name in self.types_of(node)

    def __eq__(self, other) -> bool:
        if isinstance(other, Typing):
            return self.pairs() == other.pairs()
        return NotImplemented

    def __hash__(self) -> int:
        memo = self._hash
        if memo is None:
            memo = self._hash = hash(self.pairs())
        return memo

    def __str__(self) -> str:
        lines = []
        assignments = self._flat()
        for node in sorted(assignments, key=repr):
            types = ", ".join(sorted(assignments[node]))
            lines.append(f"{node}: {{{types}}}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Type satisfaction for a single node
# --------------------------------------------------------------------------- #
def satisfies_type(
    graph: Graph,
    node: NodeId,
    type_name: TypeName,
    schema: ShExSchema,
    typing: Mapping[NodeId, Iterable[TypeName]],
    artifact=None,
) -> bool:
    """Does ``node`` satisfy the definition of ``type_name`` w.r.t. ``typing``?

    ``typing`` maps nodes to the candidate types of their end points (anything
    iterable; typically the current refinement state of
    :func:`maximal_typing`).  The test asks for an assignment of every outgoing
    edge to a type of its target such that the resulting bag matches the rule.
    Edges are grouped by label and candidate types and the groups are decided
    by :func:`satisfies_type_groups`.

    ``artifact`` optionally carries the precompiled per-type data of
    :class:`repro.engine.compiled.CompiledType`; without it the schema is
    compiled (and interned) on the fly.
    """
    if artifact is None:
        from repro.engine.compiled import compile_schema

        artifact = compile_schema(schema).type_artifact(type_name)
    groups = neighbourhood_groups(graph, node, typing, artifact.symbol_set, False)
    return groups is not None and satisfies_type_groups(artifact, groups)


def neighbourhood_groups(
    graph: Graph,
    node: NodeId,
    typing: Mapping[NodeId, Iterable[TypeName]],
    symbol_set,
    compressed: bool,
) -> Optional[Dict[Tuple[str, Tuple[TypeName, ...]], int]]:
    """The outgoing edges of ``node`` as counted ``(label, options)`` groups.

    ``options`` is the sorted tuple of the edge target's candidate types whose
    symbol ``(label, type)`` is in ``symbol_set``.  Each edge counts once
    under the plain semantics and by its multiplicity under the compressed
    one, and a group's count is the sum; an edge that counts 0 is dropped.
    ``None`` means the check fails outright: an edge that counts has no
    candidate type.
    """
    index, out, _, _, labels, targets, occurs = graph.adjacency()
    groups: Dict[Tuple[str, Tuple[TypeName, ...]], int] = {}
    for edge_id in out[index[node]] if node in index else ():
        count = occurs[edge_id].lower if compressed else 1
        if not count:
            continue
        label = labels[edge_id]
        target_types = typing.get(targets[edge_id], ())
        options = tuple(sorted({t for t in target_types if (label, t) in symbol_set}))
        if not options:
            return None
        key = (label, options)
        groups[key] = groups.get(key, 0) + count
    return groups


def satisfies_groups_by_membership(
    expr: RBE,
    groups: Mapping[Tuple[str, Tuple[TypeName, ...]], int],
) -> bool:
    """Plain check by exact RBE membership: enumerate every split of each
    (label, option set) count and test the bag against ``expr``.

    It decides the plain rules without per-symbol bounds, and the reference
    oracle of :mod:`repro.schema.reference` decides every plain rule with it,
    independently of the flow."""
    from repro.core.bags import Bag
    from repro.rbe.membership import rbe_matches

    group_keys = list(groups)

    def compositions(total: int, parts: int):
        """All ways to write ``total`` as an ordered sum of ``parts`` naturals."""
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    def assemble(index: int, bag_counts: Dict[Tuple[str, TypeName], int]) -> bool:
        if index == len(group_keys):
            return rbe_matches(expr, Bag(bag_counts))
        key = group_keys[index]
        label, options = key
        for split in compositions(groups[key], len(options)):
            extended = dict(bag_counts)
            for type_name, count in zip(options, split):
                if count:
                    symbol = (label, type_name)
                    extended[symbol] = extended.get(symbol, 0) + count
            if assemble(index + 1, extended):
                return True
        return False

    return assemble(0, {})


def satisfies_type_groups(
    artifact,
    groups: Mapping[Tuple[str, Tuple[TypeName, ...]], int],
) -> bool:
    """Type satisfaction from a grouped neighbourhood signature.

    ``groups`` maps ``(label, sorted options tuple)`` to a count: the number
    of outgoing edges sharing that label and candidate-type set under the
    plain semantics, or the sum of their multiplicities under the compressed
    semantics of Section 6.1.  ``artifact`` is a
    :class:`repro.engine.compiled.CompiledType`.  Every option tuple must be
    non-empty (an edge without candidates fails before grouping).

    A rule with per-symbol bounds is decided exactly, under either semantics,
    by one flow that splits each group's count across its symbols
    (:func:`repro.util.assignment.feasible_split`).  Any other rule is decided
    by enumerating the splits under exact RBE membership.  The kernel does
    that under the plain semantics only: a compressed count can be large, so
    compressed checks of such rules go through the Presburger encoding,
    which decides the same question about the same groups.
    """
    if artifact.group_bounds is not None:
        items = {
            key: (count, [(key[0], type_name) for type_name in key[1]])
            for key, count in groups.items()
        }
        return feasible_split(items, artifact.group_bounds) is not None
    return satisfies_groups_by_membership(artifact.expr, groups)


# --------------------------------------------------------------------------- #
# Maximal typing (greatest fixed point)
# --------------------------------------------------------------------------- #
def predecessor_map(graph: Graph) -> Dict[NodeId, Set[NodeId]]:
    """For each node, the sources of its incoming edges (its dependents)."""
    _, _, _, sources, _, targets, occurs = graph.adjacency()
    predecessors: Dict[NodeId, Set[NodeId]] = {node: set() for node in graph.nodes}
    for source, target, occur in zip(sources, targets, occurs):
        if occur is not None:  # not a removed edge
            predecessors[target].add(source)
    return predecessors


def maximal_typing(graph: Graph, schema: ShExSchema, compiled=None) -> Typing:
    """The unique maximal valid typing of ``graph`` with respect to ``schema``.

    Computed by the standard refinement — start from the full relation
    ``N × Γ`` and drop pairs ``(n, t)`` whose node no longer satisfies the
    definition of ``t`` under the current relation — scheduled by the shared
    fixpoint kernel of :mod:`repro.engine.fixpoint`: the graph is condensed
    into strongly connected components that stabilise sinks-first, a pair
    ``(n, t)`` is only re-checked when a successor lost a type appearing in
    ``t``'s alphabet, and isomorphic neighbourhood checks are memoised.

    ``compiled`` optionally supplies a
    :class:`repro.engine.compiled.CompiledSchema` whose per-type artifacts are
    reused instead of recomputing alphabets and RBE0 bounds per check.

    The historical implementations this kernel replaced are retained in
    :mod:`repro.schema.reference` for parity testing and benchmarking.
    """
    from repro.engine.fixpoint import maximal_typing_fixpoint

    return maximal_typing_fixpoint(graph, schema, compiled=compiled)


def is_valid_typing(
    graph: Graph,
    schema: ShExSchema,
    typing: Mapping[NodeId, Iterable[TypeName]],
) -> bool:
    """Check that every assigned pair ``(n, t)`` satisfies its definition."""
    prepared = {node: set(types) for node, types in typing.items()}
    for node, types in prepared.items():
        for type_name in types:
            if not satisfies_type(graph, node, type_name, schema, prepared):
                return False
    return True
