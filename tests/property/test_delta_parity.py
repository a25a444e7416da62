"""Parity of incremental retyping against from-scratch typing, under random deltas.

:func:`repro.engine.fixpoint.retype_incremental` re-derives only the affected
region of an edge delta, seeded from the prior fixpoint; the result must equal
a from-scratch kernel run of the new graph *at every version*, for both
validation semantics.  This suite applies seeded random insert/remove
sequences through a :class:`repro.graphs.store.GraphStore` and asserts exactly
that, mirroring ``tests/property/test_fixpoint_parity.py``; it also covers
multi-version diffs (retyping across several deltas at once), the automatic
kind-compression view (full typings) next to region retyping of the same
stores, and the engine-level revalidation wrapper.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import (
    FixpointStats,
    expand_kind_typing,
    kind_typing_for_view,
    maximal_typing_fixpoint,
    maximal_typing_store,
    retype_incremental,
)
from repro.engine.validation import ValidationEngine
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema
from repro.workloads.generators import DEFAULT_LABELS, random_shape_schema, random_shex_schema

PLAIN_SEEDS = [2, 9, 17, 31, 53]
COMPRESSED_SEEDS = [4, 21, 39]
STEPS = 8


def _noise_graph(rng: random.Random, nodes: int, edges: int, labels) -> Graph:
    graph = Graph(f"delta-noise-{nodes}x{edges}")
    names = [f"n{i}" for i in range(nodes)]
    graph.add_nodes(names)
    for _ in range(edges):
        graph.add_edge(rng.choice(names), rng.choice(labels), rng.choice(names))
    return graph


def _random_plain_delta(rng: random.Random, graph: Graph, labels) -> Delta:
    """One random edit batch: removals of existing edges and/or fresh inserts."""
    add = []
    remove = []
    names = sorted(graph.nodes, key=repr)
    for _ in range(rng.randint(1, 3)):
        if graph.edge_count and rng.random() < 0.5:
            edge = rng.choice(sorted(graph.edges, key=lambda e: e.edge_id))
            remove.append((edge.source, edge.label, edge.target))
        else:
            source = rng.choice(names)
            # Occasionally attach a brand-new node to exercise node creation.
            target = f"fresh{rng.randint(0, 10 ** 6)}" if rng.random() < 0.25 else rng.choice(names)
            add.append((source, rng.choice(labels), target))
    return Delta.of(add=add, remove=remove)


def _assert_version_parity(store, schema, typing, compressed, seed, step) -> None:
    oracle = maximal_typing_fixpoint(store.graph, schema, compressed=compressed)
    assert typing == oracle, (
        f"seed {seed} step {step}: incremental typing diverged from the "
        f"from-scratch kernel at version {store.version} "
        f"(compressed={compressed})\nincremental:\n{typing}\noracle:\n{oracle}"
    )


class TestPlainDeltaParity:
    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_random_edit_sequence_matches_from_scratch(self, seed):
        rng = random.Random(seed)
        schema = random_shape_schema(4, rng=rng, name=f"delta-shex0-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 12, 20, labels))
        typing = maximal_typing_fixpoint(store.graph, schema)
        typings = {0: typing}
        for step in range(STEPS):
            delta = _random_plain_delta(rng, store.graph, labels)
            store.apply(delta)
            typing = retype_incremental(store, typing, delta, schema=schema)
            typings[store.version] = typing
            _assert_version_parity(store, schema, typing, False, seed, step)
        # Multi-version diffs: retype straight from an old snapshot.
        for old in (0, store.version // 2):
            jumped = retype_incremental(
                store, typings[old], store.diff(old, store.version), schema=schema
            )
            assert jumped == typing, f"seed {seed}: diff({old}->{store.version}) diverged"

    @pytest.mark.parametrize("seed", PLAIN_SEEDS[:2])
    def test_general_shex_schema(self, seed):
        rng = random.Random(seed)
        schema = random_shex_schema(3, rng=rng, name=f"delta-shex-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 8, 12, labels))
        typing = maximal_typing_fixpoint(store.graph, schema)
        for step in range(STEPS // 2):
            delta = _random_plain_delta(rng, store.graph, labels)
            store.apply(delta)
            typing = retype_incremental(store, typing, delta, schema=schema)
            _assert_version_parity(store, schema, typing, False, seed, step)


class TestCompressedDeltaParity:
    @pytest.mark.parametrize("seed", COMPRESSED_SEEDS)
    def test_multiplicity_edits_match_from_scratch(self, seed):
        rng = random.Random(seed)
        schema = random_shape_schema(3, rng=rng, name=f"delta-z-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = Graph(f"delta-compressed-{seed}")
        names = [f"c{i}" for i in range(7)]
        graph.add_nodes(names)
        triples = set()
        for _ in range(18):
            triple = (rng.choice(names), rng.choice(labels), rng.choice(names))
            if triple in triples:
                continue
            triples.add(triple)
            k = rng.choice([1, 1, 2, 3])
            graph.add_edge(*triple, (k, k))
        store = GraphStore(graph)
        typing = maximal_typing_fixpoint(store.graph, schema, compressed=True)
        for step in range(STEPS // 2):
            # An edit keeping the graph compressed: change one multiplicity,
            # drop one edge, or insert a fresh unique triple.
            kind = rng.random()
            edges = sorted(store.graph.edges, key=lambda e: e.edge_id)
            if kind < 0.4 and edges:
                edge = rng.choice(edges)
                k = edge.occur.lower + rng.choice([-1, 1, 2])
                entry = (edge.source, edge.label, edge.target)
                delta = Delta.of(
                    remove=[entry + (edge.occur,)],
                    add=[entry + ((max(k, 0),) * 2,)] if k >= 0 else [],
                )
            elif kind < 0.7 and edges:
                edge = rng.choice(edges)
                delta = Delta.of(
                    remove=[(edge.source, edge.label, edge.target, edge.occur)]
                )
            else:
                existing = {(e.source, e.label, e.target) for e in edges}
                triple = (rng.choice(names), rng.choice(labels), rng.choice(names))
                if triple in existing:
                    continue
                k = rng.choice([1, 2])
                delta = Delta.of(add=[triple + ((k, k),)])
            store.apply(delta)
            assert store.graph.is_compressed()
            typing = retype_incremental(
                store, typing, delta, schema=schema, compressed=True
            )
            _assert_version_parity(store, schema, typing, True, seed, step)


class TestKindViewParity:
    def test_clone_heavy_graph_types_identically_through_kinds(self):
        schema = bug_tracker_schema()
        base = bug_tracker_graph()
        graph = Graph("clones")
        for copy_index in range(12):
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        view = store.typing_view()
        assert view is not None and view.kind_count < graph.node_count
        stats = FixpointStats()
        via_kinds = maximal_typing_store(store, schema=schema, stats=stats)
        assert stats.mode == "kinds"
        assert via_kinds == maximal_typing_fixpoint(graph, schema)

    def test_small_graphs_skip_the_view(self):
        store = GraphStore(bug_tracker_graph())
        assert store.typing_view() is None  # below the size floor


class TestKindsDeltaParity:
    @pytest.mark.parametrize("seed", PLAIN_SEEDS[:3])
    def test_region_retyping_of_a_viewed_store_matches_from_scratch(self, seed):
        # A store whose kind view pays is still retyped by region after a
        # delta; the result must equal both full typings (quotient and per
        # node) of the new version.
        rng = random.Random(seed)
        schema = random_shape_schema(4, rng=rng, name=f"delta-kinds-{seed}")
        compiled = compile_schema(schema)
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        base = _noise_graph(rng, 10, 16, labels)
        names = sorted(base.nodes, key=repr)
        graph = Graph("cloned-noise")
        for copy_index in range(10):  # 100 nodes: above the view floor
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        view = store.typing_view()
        typing = expand_kind_typing(view, kind_typing_for_view(view, compiled))
        modes = set()
        for step in range(STEPS // 2):
            copy_index = rng.randrange(10)
            edge = (
                (copy_index, rng.choice(names)),
                rng.choice(labels),
                (copy_index, rng.choice(names)),
            )
            delta = Delta.of(add=[edge])
            store.apply(delta)
            stats = FixpointStats()
            typing = retype_incremental(store, typing, delta, compiled=compiled, stats=stats)
            modes.add(stats.mode)
            full = FixpointStats()
            assert typing == maximal_typing_store(store, compiled=compiled, stats=full), (
                f"seed {seed} step {step}: region retyping diverged (mode {stats.mode})"
            )
            assert full.mode == "kinds"
            assert typing == maximal_typing_fixpoint(store.graph, compiled)
        assert "incremental" in modes


class TestEngineRevalidationParity:
    def test_engine_tracks_versions_incrementally(self):
        rng = random.Random(99)
        schema = random_shape_schema(4, rng=rng, name="engine-delta")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 12, 20, labels))
        engine = ValidationEngine(cache_size=0)  # force recomputation paths
        first = engine.revalidate(store, schema)
        assert first.mode in ("full", "kinds")
        for _ in range(4):
            store.apply(_random_plain_delta(rng, store.graph, labels))
            outcome = engine.revalidate(store, schema)
            assert outcome.version == store.version
            assert outcome.mode in ("incremental", "full", "kinds")
            oracle = maximal_typing_fixpoint(store.graph, schema)
            expected = "valid" if all(
                oracle.types_of(node) for node in store.graph.nodes
            ) else "invalid"
            assert outcome.result.verdict == expected
