"""Parity of the kernel's component memo against the full-rescan oracle.

The kernel types a cyclic component once per *shape*: its members' rows in
component order, an edge inside the component read as the target's index,
an edge leaving it as the target's settled types (see
:func:`repro.engine.fixpoint._shape`).  These graphs repeat 2-rings, 3-rings
and self-loops many times; the copies differ only in which boundary node
each member points at, so some copies share a shape and others do not.  The
typing must equal :func:`repro.schema.reference.maximal_typing_reference`
under both semantics, for a full typing and for delta-region retyping.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint, retype_incremental
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference
from repro.workloads.generators import DEFAULT_LABELS, random_shape_schema

SEEDS = [1, 6, 14, 27, 58]
COPIES = 12

#: A ring member is ``R`` only when its boundary is a ``G`` node: copies
#: whose boundary is ``h`` lose ``R`` around the whole ring.
RING_SCHEMA = "R -> r :: R, b :: G\nG -> eps\nH -> x :: G\n"


def _edge(graph: Graph, source, label, target, rng, compressed: bool) -> None:
    if compressed:
        k = rng.choice([0, 1, 1, 2])
        graph.add_edge(source, label, target, (k, k))
    else:
        graph.add_edge(source, label, target)


def _rings(rng: random.Random, labels, boundary, compressed: bool) -> Graph:
    """``COPIES`` copies of a self-loop, a 2-ring and a 3-ring template.

    Every copy has the template's internal edges; each member's boundary
    edge goes to a node drawn from ``boundary`` per copy.  A few extra
    nodes point into ring copies, so they reach a cycle without being on
    one.
    """
    graph = Graph("rings")
    graph.add_nodes(boundary)
    for template, size in enumerate((1, 2, 3)):
        ring_labels = [rng.choice(labels) for _ in range(size)]
        out_labels = [rng.choice(labels) for _ in range(size)]
        for copy_index in range(COPIES):
            members = [(template, copy_index, index) for index in range(size)]
            for index, member in enumerate(members):
                successor = members[(index + 1) % size]
                _edge(graph, member, ring_labels[index], successor, rng, compressed)
                _edge(graph, member, out_labels[index], rng.choice(boundary), rng, compressed)
            if rng.random() < 0.3:
                _edge(graph, ("into", template, copy_index), rng.choice(labels),
                      members[0], rng, compressed)
    return graph


def _boundary(rng: random.Random, labels, compressed: bool) -> Graph:
    """A small DAG whose nodes carry different types."""
    graph = Graph("boundary")
    names = [f"leaf{i}" for i in range(4)]
    graph.add_nodes(names)
    for index, name in enumerate(names):
        for lower in names[:index]:
            if rng.random() < 0.5:
                _edge(graph, name, rng.choice(labels), lower, rng, compressed)
    return graph


def _random_case(seed: int, compressed: bool):
    rng = random.Random(seed)
    schema = random_shape_schema(4, rng=rng, name=f"rings-{seed}")
    labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
    boundary = _boundary(rng, labels, compressed)
    graph = _rings(rng, labels, sorted(boundary.nodes), compressed)
    for edge in boundary.edges:
        graph.add_edge(edge.source, edge.label, edge.target, edge.occur)
    return rng, schema, labels, graph


def _ring_case(compressed: bool):
    """:data:`RING_SCHEMA` on self-loops, 2-rings and 3-rings over ``g``/``h``."""
    rng = random.Random(5)
    graph = Graph("typed-rings")
    graph.add_edge("h", "x", "g")

    def edge(source, label, target):
        k = rng.choice([1, 1, 2]) if compressed else 1
        graph.add_edge(source, label, target, (k, k))

    for size in (1, 2, 3):
        for copy_index in range(COPIES):
            members = [(size, copy_index, index) for index in range(size)]
            for index, member in enumerate(members):
                edge(member, "r", members[(index + 1) % size])
                edge(member, "b", "g" if rng.random() < 0.7 else "h")
    return parse_schema(RING_SCHEMA, name="rings"), graph


def _assert_oracle(graph, schema, compressed: bool, stats=None, typing=None) -> None:
    if typing is None:
        typing = maximal_typing_fixpoint(graph, schema, compressed=compressed, stats=stats)
    oracle = maximal_typing_reference(graph, schema, compressed=compressed)
    assert typing == oracle, f"kernel:\n{typing}\noracle:\n{oracle}"


#: The compressed oracle decides every check through Presburger systems.
SEMANTICS = pytest.mark.parametrize("compressed", [
    pytest.param(False, id="plain"),
    pytest.param(True, id="compressed", marks=pytest.mark.requires_scipy),
])


@SEMANTICS
class TestFullTyping:
    def test_copies_differing_in_boundary_types(self, compressed):
        schema, graph = _ring_case(compressed)
        stats = FixpointStats()
        _assert_oracle(graph, schema, compressed, stats)
        typing = maximal_typing_fixpoint(graph, schema, compressed=compressed)
        rings = [node for node in graph.nodes if isinstance(node, tuple)]
        assert {bool(typing.types_of(node)) for node in rings} == {True, False}
        assert stats.row_hits > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_schema(self, seed, compressed):
        _, schema, _, graph = _random_case(seed, compressed)
        stats = FixpointStats()
        _assert_oracle(graph, schema, compressed, stats)
        assert stats.row_hits > 0


@SEMANTICS
class TestRegionRetyping:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_boundary_rewires_match_the_oracle(self, seed, compressed):
        # Each step moves the boundary edges of one or two ring copies to
        # other boundary nodes, so copies change shape against each other.
        # A moved edge touches a boundary node, which most copies reach:
        # the whole region is retyped rather than falling back to a full run.
        rng, schema, _, graph = _random_case(seed, compressed)
        compiled = compile_schema(schema)
        store = GraphStore(graph)
        typing = maximal_typing_fixpoint(store.graph, compiled, compressed=compressed)
        boundary = sorted(node for node in graph.nodes if isinstance(node, str))
        modes = set()
        for step in range(6):
            ring_edges = sorted(
                (edge for edge in store.graph.edges
                 if isinstance(edge.source, tuple) and isinstance(edge.target, str)),
                key=lambda edge: edge.edge_id,
            )
            moved = rng.sample(ring_edges, min(2, len(ring_edges)))
            existing = {(e.source, e.label, e.target) for e in store.graph.edges}
            add = []
            for edge in moved:
                target = rng.choice(boundary)
                if (edge.source, edge.label, target) not in existing:
                    add.append((edge.source, edge.label, target, edge.occur))
                    existing.add((edge.source, edge.label, target))
            delta = Delta.of(
                remove=[(e.source, e.label, e.target, e.occur) for e in moved], add=add
            )
            store.apply(delta)
            stats = FixpointStats()
            typing = retype_incremental(
                store, typing, delta, compiled=compiled, compressed=compressed, stats=stats,
                max_affected_fraction=1.0,
            )
            modes.add(stats.mode)
            _assert_oracle(store.graph, schema, compressed, typing=typing)
        assert modes == {"incremental"}
