"""Unit tests for the vectorised fixpoint kernel (:mod:`repro.engine.vectorized`)."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.engine import fixpoint, vectorized
from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import (
    FixpointStats,
    maximal_typing_fixpoint,
    retype_incremental,
)
from repro.graphs.compressed import pack_simple_graph
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema


def _wide_schema(types: int = 70):
    """A chain schema with enough types to need two bitset words (W = 2)."""
    lines = [f"T{i} -> a :: T{i + 1}?" for i in range(types - 1)]
    lines.append(f"T{types - 1} -> eps")
    return parse_schema("\n".join(lines), name=f"wide-{types}")


class TestBinding:
    def test_available_matches_numpy_import(self):
        assert vectorized.available() is True

    def test_numpy_install_binds_the_vectorised_kernel(self, traced_kernels):
        assert fixpoint._stabilise is vectorized.stabilise
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        _typing, ran = traced_kernels(lambda: maximal_typing_fixpoint(graph, schema))
        assert ran == ["vectorized"]


class TestDenseTables:
    def test_bit_layout_and_caching(self):
        compiled = compile_schema(bug_tracker_schema())
        tables = compiled.dense_tables()
        assert compiled.dense_tables() is tables  # lazily built once
        count = len(tables.type_order)
        assert tables.words == max(1, (count + 63) // 64)
        expected_full = np.zeros(tables.words, dtype=np.uint64)
        for t in range(count):
            word, shift = int(tables.word_of[t]), int(tables.shift_of[t])
            assert int(tables.bit_rows[t, word]) == 1 << shift
            assert int(tables.bit_rows[t].sum()) == 1 << shift  # one bit only
            expected_full |= tables.bit_rows[t]
        assert np.array_equal(tables.full_mask, expected_full)

    def test_option_masks_mirror_the_alphabets(self):
        compiled = compile_schema(bug_tracker_schema())
        tables = compiled.dense_tables()
        type_index = compiled.type_index
        label_index = compiled.label_index
        for t_pos, type_name in enumerate(tables.type_order):
            alphabet = compiled.type_artifact(type_name).sorted_alphabet
            for label, target_type in alphabet:
                tau = type_index.get(target_type)
                if tau is None:
                    continue
                mask = tables.option_masks[t_pos, label_index[label]]
                word, shift = int(tables.word_of[tau]), int(tables.shift_of[tau])
                assert (int(mask[word]) >> shift) & 1

    def test_watcher_masks_invert_symbol_watchers(self):
        compiled = compile_schema(bug_tracker_schema())
        tables = compiled.dense_tables()
        type_index = compiled.type_index
        label_index = compiled.label_index
        for (label, target_type), watchers in compiled.symbol_watchers().items():
            tau = type_index.get(target_type)
            if tau is None:
                continue
            mask = tables.watcher_masks[label_index[label], tau]
            for watcher in watchers:
                w_pos = type_index[watcher]
                word, shift = int(tables.word_of[w_pos]), int(tables.shift_of[w_pos])
                assert (int(mask[word]) >> shift) & 1


class TestParity:
    def test_plain_matches_oracle(self, kernel):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        assert maximal_typing_fixpoint(graph, schema) == maximal_typing_reference(
            graph, schema
        )

    def test_compressed_matches_plain_oracle(self, kernel):
        # Packing merges nothing here, so the compressed semantics of the
        # packed graph is the plain semantics of the original.
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        typing = maximal_typing_fixpoint(pack_simple_graph(graph), schema, compressed=True)
        assert typing == maximal_typing_reference(graph, schema)

    def test_incremental_matches_from_scratch(self, kernel, traced_kernels):
        schema = bug_tracker_schema()
        store = GraphStore(bug_tracker_graph())
        prior = maximal_typing_fixpoint(store.graph, schema)
        delta = Delta.of(add=[("bug2", "relatedTo", "bug1")])
        store.apply(delta)
        stats = FixpointStats()
        typing, ran = traced_kernels(
            lambda: retype_incremental(store, prior, delta, schema=schema, stats=stats)
        )
        assert stats.mode == "incremental"
        assert ran == [kernel]
        assert typing == maximal_typing_reference(store.graph, schema)

    def test_wide_schema_needs_two_words(self, kernel):
        schema = _wide_schema(70)
        compiled = compile_schema(schema)
        assert compiled.dense_tables().words == 2
        graph = Graph("chain")
        for i in range(75):
            graph.add_edge(f"n{i}", "a", f"n{i + 1}")
        assert maximal_typing_fixpoint(graph, compiled) == maximal_typing_reference(
            graph, schema
        )

    def test_empty_and_edgeless_graphs(self, kernel):
        schema = bug_tracker_schema()
        assert maximal_typing_fixpoint(Graph("empty"), schema).domain() == set()
        isolated = Graph("isolated")
        isolated.add_nodes(["a", "b"])
        assert maximal_typing_fixpoint(isolated, schema) == maximal_typing_reference(
            isolated, schema
        )


class TestPlanCache:
    def test_whole_graph_plan_reused_until_mutation(self):
        # The module needs numpy, so the install binds the vectorised kernel.
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        maximal_typing_fixpoint(graph, schema)
        key, plan = graph._vectorized_plan
        maximal_typing_fixpoint(graph, schema)
        assert graph._vectorized_plan[1] is plan  # unchanged graph: plan reused
        graph.add_edge("bug2", "relatedTo", "bug1")
        typing = maximal_typing_fixpoint(graph, schema)
        new_key, new_plan = graph._vectorized_plan
        assert new_key != key and new_plan is not plan  # revision invalidates
        assert typing == maximal_typing_reference(graph, schema)

    def test_revision_counts_structural_mutations(self):
        graph = Graph("rev")
        base = graph.revision
        graph.add_node("a")
        assert graph.revision == base + 1
        graph.add_node("a")  # idempotent: no bump
        assert graph.revision == base + 1
        edge = graph.add_edge("a", "x", "b")
        after_edge = graph.revision
        assert after_edge > base + 1
        graph.remove_edge(edge)
        assert graph.revision > after_edge
