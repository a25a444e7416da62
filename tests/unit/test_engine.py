"""Unit tests for the engine subsystem: compiled schemas, caches, and batches."""

import pytest

from repro.engine.cache import LRUCache
from repro.engine.compiled import (
    CompiledSchema,
    compile_schema,
    graph_fingerprint,
    schema_fingerprint,
)
from repro.engine.containment import ContainmentEngine
from repro.engine.jobs import ValidationJob
from repro.engine.validation import ValidationEngine
from repro.graphs.compressed import CompressedGraph
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.schema.classes import SchemaClass
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference
from repro.schema.validation import satisfies_compressed, validate


@pytest.fixture
def schema():
    return parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")


@pytest.fixture
def good_graph():
    return Graph.from_triples(
        [("b1", "descr", "l1"), ("b1", "related", "b2"), ("b2", "descr", "l2")]
    )


@pytest.fixture
def bad_graph():
    return Graph.from_triples([("b1", "related", "b2")])


class TestFingerprints:
    def test_schema_fingerprint_ignores_name_and_order(self):
        one = parse_schema("A -> x :: B\nB -> eps", name="one")
        two = parse_schema("B -> eps\nA -> x :: B", name="two")
        assert schema_fingerprint(one) == schema_fingerprint(two)

    def test_schema_fingerprint_distinguishes_rules(self):
        one = parse_schema("A -> x :: B\nB -> eps")
        two = parse_schema("A -> x :: B?\nB -> eps")
        assert schema_fingerprint(one) != schema_fingerprint(two)

    def test_graph_fingerprint_tracks_structure(self):
        one = Graph.from_triples([("a", "x", "b")])
        two = Graph.from_triples([("a", "x", "b")])
        assert graph_fingerprint(one) == graph_fingerprint(two)
        two.add_edge("a", "x", "c")
        assert graph_fingerprint(one) != graph_fingerprint(two)

    def test_graph_fingerprint_sees_isolated_nodes(self):
        one = Graph.from_triples([("a", "x", "b")])
        two = Graph.from_triples([("a", "x", "b")])
        two.add_node("lonely")
        assert graph_fingerprint(one) != graph_fingerprint(two)

    def test_graph_fingerprint_sees_intervals(self):
        one = Graph()
        one.add_edge("a", "x", "b", "[2;2]")
        two = Graph()
        two.add_edge("a", "x", "b", "[3;3]")
        assert graph_fingerprint(one) != graph_fingerprint(two)


class TestCompiledSchema:
    def test_type_artifacts_are_interned(self, schema):
        compiled = CompiledSchema(schema)
        assert compiled.type_artifact("Bug") is compiled.type_artifact("Bug")

    def test_artifact_alphabet_sorted_once(self, schema):
        artifact = CompiledSchema(schema).type_artifact("Bug")
        assert artifact.sorted_alphabet == tuple(
            sorted(schema.definition("Bug").alphabet(), key=repr)
        )
        assert artifact.symbol_set == schema.definition("Bug").alphabet()

    def test_presburger_template_is_cached(self, schema):
        artifact = CompiledSchema(schema).type_artifact("Bug")
        assert artifact.presburger_template() is artifact.presburger_template()

    def test_schema_class_cached(self, schema):
        compiled = CompiledSchema(schema)
        assert compiled.schema_class is SchemaClass.DETSHEX0_MINUS
        assert compiled.is_shex0

    def test_compile_schema_interns_by_content(self, schema):
        again = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        assert compile_schema(schema) is compile_schema(again)

    def test_of_passes_compiled_through(self, schema):
        compiled = CompiledSchema(schema)
        assert CompiledSchema.of(compiled) is compiled


@pytest.fixture
def compile_calls(monkeypatch):
    """Count ``CompiledSchema`` constructions, from an empty intern table."""
    import repro.engine.compiled as compiled_module

    calls = []
    real_init = CompiledSchema.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(compiled_module, "_INTERNED", {})
    monkeypatch.setattr(CompiledSchema, "__init__", counting_init)
    return calls


class TestCompileOnce:
    def test_compile_schema_interns_a_handed_compiled_schema(self, schema, compile_calls):
        compiled = CompiledSchema(schema)
        assert compile_schema(compiled) is compiled
        assert compile_schema(schema) is compiled
        assert len(compile_calls) == 1

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_engine_compile_then_run_batch_compiles_once(
        self, schema, good_graph, compile_calls, backend
    ):
        with ValidationEngine(backend=backend) as engine:
            engine.compile(CompiledSchema(schema))
            report = engine.run_batch([(good_graph, schema)])
        assert report.verdicts() == ("valid",)
        assert len(compile_calls) == 1

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_daemon_load_schema_then_validate_compiles_once(
        self, tmp_path, compile_calls, backend
    ):
        from repro.serve.client import DaemonClient
        from repro.serve.daemon import start_in_thread

        handle = start_in_thread(
            socket_path=str(tmp_path / "shex.sock"), backend=backend, max_workers=2
        )
        try:
            with DaemonClient.connect(handle.daemon.socket_path) as client:
                client.load_schema(
                    "bug", text="Bug -> descr :: Lit, related :: Bug*\nLit -> eps"
                )
                answer = client.validate(
                    "bug", data_text="@prefix ex: <http://example.org/> .\n"
                    "ex:b1 ex:descr ex:l1 .\n",
                )
        finally:
            handle.stop()
        assert answer["verdict"] == "valid" and not answer["cached"]
        assert len(compile_calls) == 1


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(max_size=4)
        assert cache.get("k") == (False, None)
        cache.put("k", 1)
        assert cache.get("k") == (True, 1)
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_eviction_is_lru(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_zero_size_disables_caching(self):
        cache = LRUCache(max_size=0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)
        assert len(cache) == 0


class TestValidationEngine:
    def test_batch_matches_single_calls(self, schema, good_graph, bad_graph):
        with ValidationEngine() as engine:
            engine.submit(good_graph, schema)
            engine.submit(bad_graph, schema)
            report = engine.run_batch()
        assert report.verdicts() == ("valid", "invalid")
        assert validate(good_graph, schema).satisfied
        assert not validate(bad_graph, schema).satisfied

    def test_duplicate_jobs_in_one_batch_computed_once(self, schema, good_graph):
        with ValidationEngine() as engine:
            engine.submit(good_graph, schema)
            engine.submit(good_graph, schema)
            report = engine.run_batch()
        assert report.verdicts() == ("valid", "valid")
        assert report.jobs_from_cache == 1
        assert report.cache.misses == 1

    def test_second_batch_served_from_cache(self, schema, good_graph, bad_graph):
        with ValidationEngine() as engine:
            report1 = engine.run_batch([(good_graph, schema), (bad_graph, schema)])
            assert report1.jobs_from_cache == 0
            report2 = engine.run_batch([(good_graph, schema), (bad_graph, schema)])
        assert report2.jobs_from_cache == 2
        assert report2.verdicts() == report1.verdicts()
        assert report2.cache.hits == 2

    def test_structurally_equal_inputs_share_cache(self, schema):
        graph_a = Graph.from_triples([("b1", "descr", "l1")])
        graph_b = Graph.from_triples([("b1", "descr", "l1")])
        schema_b = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        with ValidationEngine() as engine:
            engine.run_batch([(graph_a, schema)])
            report = engine.run_batch([(graph_b, schema_b)])
        assert report.jobs_from_cache == 1

    def test_cache_disabled(self, schema, good_graph):
        with ValidationEngine(cache_size=0) as engine:
            engine.run_batch([(good_graph, schema)])
            report = engine.run_batch([(good_graph, schema)])
        assert report.jobs_from_cache == 0

    def test_payload_reports_untyped_nodes(self, schema, bad_graph):
        with ValidationEngine() as engine:
            report = engine.run_batch([(bad_graph, schema)])
        payload = report.results[0].payload
        # b2 has no outgoing edges, so it still satisfies Lit -> eps; only the
        # root lacking its descr edge goes untyped.
        assert payload["untyped_nodes"] == ("'b1'",)

    def test_compressed_jobs(self, schema):
        compressed = CompressedGraph()
        compressed.add_edge("b1", "descr", "l1")
        compressed.add_edge("b1", "related", "b2", "[3;3]")
        compressed.add_edge("b2", "descr", "l2")
        with ValidationEngine() as engine:
            engine.submit(compressed, schema, compressed=True)
            report = engine.run_batch()
        assert report.verdicts() == ("valid",)
        assert satisfies_compressed(compressed, schema)

    def test_compressed_and_plain_jobs_cached_separately(self, schema, good_graph):
        with ValidationEngine() as engine:
            engine.submit(good_graph, schema)
            engine.submit(good_graph, schema, compressed=True)
            report = engine.run_batch()
        assert report.jobs_from_cache == 0
        assert report.cache.misses == 2

    def test_engine_report_summary_mentions_backend(self, schema, good_graph):
        with ValidationEngine(backend="serial") as engine:
            report = engine.run_batch([(good_graph, schema)])
        assert "serial" in report.summary()

    def test_submit_accepts_precompiled_schema(self, schema, good_graph):
        with ValidationEngine() as engine:
            compiled = engine.compile(schema)
            engine.submit(good_graph, compiled)
            report = engine.run_batch()
        assert report.verdicts() == ("valid",)


class TestRevalidateVersionStamp:
    def test_delta_applied_during_typing_is_retyped_next_call(self, monkeypatch):
        """The snapshot carries the version typed, not the version seen after."""
        import repro.engine.validation as validation_module

        schema = parse_schema("T -> next :: T")
        cycle = Graph.from_triples([(f"n{i}", "next", f"n{(i + 1) % 4}") for i in range(4)])
        store = GraphStore(cycle)
        full_typing = validation_module.maximal_typing_fixpoint

        def typing_then_delta(graph, **options):
            typing = full_typing(graph, **options)
            monkeypatch.setattr(validation_module, "maximal_typing_fixpoint", full_typing)
            store.apply(Delta.of(remove=[("n3", "next", "n0")]))
            return typing

        monkeypatch.setattr(validation_module, "maximal_typing_fixpoint", typing_then_delta)
        with ValidationEngine() as engine:
            first = engine.revalidate(store, schema)
            second = engine.revalidate(store, schema)
        oracle = maximal_typing_reference(store.graph, schema)
        untyped = sorted(repr(node) for node in store.graph.nodes if not oracle.types_of(node))
        assert untyped
        assert second.version == store.version == 1
        assert second.mode != "unchanged"
        assert second.result.verdict == "invalid"
        assert list(second.result.payload["untyped_nodes"]) == untyped
        assert (first.version, first.result.verdict) == (0, "valid")


class TestSnapshotRefresh:
    """A cached revalidation keeps the cached typing as the store's snapshot."""

    SCHEMA = "T -> tag :: L, next :: T?\nL -> eps"

    @staticmethod
    def _chains() -> Graph:
        graph = Graph("chains")
        for chain in "ts":
            for index in range(20):
                graph.add_edge(f"{chain}{index}", "tag", f"{chain}l{index}")
                if index:
                    graph.add_edge(f"{chain}{index - 1}", "next", f"{chain}{index}")
        return graph

    def test_the_delta_after_a_repair_is_retyped_alone(self):
        schema = parse_schema(self.SCHEMA)
        store = GraphStore(self._chains())
        break_tag = Delta.of(remove=[("t19", "tag", "tl19")])
        with ValidationEngine() as engine:
            assert engine.revalidate(store, schema).result.verdict == "valid"
            store.apply(break_tag)
            assert engine.revalidate(store, schema).result.verdict == "invalid"
            store.apply(break_tag.inverse())
            repaired = engine.revalidate(store, schema)
            assert repaired.mode == "cached"
            (snapshot,) = engine.export_typings(store)
            assert snapshot["version"] == store.version == 2
            store.apply(Delta.of(remove=[("s5", "tag", "sl5")], add=[("s5", "tag", "sl7")]))
            after = engine.revalidate(store, schema)
        # Retyped against the repaired version: the break's nodes are not in
        # the region (from a stale snapshot it also held t19 and tl19).
        assert after.mode == "incremental"
        assert after.frontier == 3
        assert after.result.verdict == "valid"

    def test_a_process_batch_hit_leaves_no_snapshot(self):
        # A process worker's payload comes back pickled, so its typing is a
        # plain tuple of rows: a revalidation answered from it has no typing
        # to seed the next delta with.
        schema = parse_schema(self.SCHEMA)
        store = GraphStore(self._chains())
        with ValidationEngine(backend="process", max_workers=1) as engine:
            (filled,) = engine.run_batch([(store.graph.copy(), schema)]).results
            assert type(filled.payload["typing"]) is tuple
            assert engine.revalidate(store, schema).mode == "cached"
            assert engine.export_typings(store) == []  # the entry holds rows only
            store.apply(Delta.of(remove=[("s5", "tag", "sl5")], add=[("s5", "tag", "sl7")]))
            assert engine.revalidate(store, schema).mode == "full"


class TestCompressedEdgeCases:
    def test_empty_graph_is_valid(self, schema):
        empty = CompressedGraph()
        assert satisfies_compressed(empty, schema)
        with ValidationEngine() as engine:
            report = engine.run_batch([ValidationJob(empty, schema, compressed=True)])
        assert report.verdicts() == ("valid",)

    def test_multiplicity_zero_edge_is_ignored(self):
        schema = parse_schema("A -> b :: B*\nB -> eps")
        graph = CompressedGraph()
        graph.add_edge("n1", "b", "n2", "[2;2]")
        # A zero-multiplicity edge with a label outside every alphabet must
        # not disqualify its source node.
        graph.add_edge("n2", "junk", "n3", "[0;0]")
        assert satisfies_compressed(graph, schema)

    def test_positive_multiplicity_unknown_label_invalidates(self):
        schema = parse_schema("A -> b :: B*\nB -> eps")
        graph = CompressedGraph()
        graph.add_edge("n1", "b", "n2", "[2;2]")
        graph.add_edge("n2", "junk", "n3", "[1;1]")
        assert not satisfies_compressed(graph, schema)


class TestContainmentEngine:
    def test_batch_verdicts(self):
        old = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
        with ContainmentEngine() as engine:
            engine.submit(old, new)
            engine.submit(new, old)
            engine.submit(old, old)
            report = engine.run_batch()
        assert report.verdicts() == ("contained", "not-contained", "contained")
        negative = report.results[1]
        assert negative.payload["counterexample"] is not None

    def test_repeat_batch_hits_cache(self):
        old = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
        with ContainmentEngine() as engine:
            engine.run_batch([(old, new)])
            report = engine.run_batch([(old, new)])
        assert report.jobs_from_cache == 1

    def test_options_partition_the_cache(self):
        old = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
        with ContainmentEngine() as engine:
            engine.submit(old, new)
            engine.submit(old, new, max_nodes=10)
            report = engine.run_batch()
        assert report.jobs_from_cache == 0
        assert report.verdicts() == ("contained", "contained")

    def test_mixed_class_batch(self):
        detshex = parse_schema("A -> x :: B\nB -> eps")
        general = parse_schema("A -> (x :: B | x :: B || x :: B)\nB -> eps")
        with ContainmentEngine() as engine:
            engine.submit(detshex, detshex)
            engine.submit(detshex, general)
            report = engine.run_batch()
        assert report.results[0].verdict == "contained"
        assert report.results[1].verdict in ("contained", "unknown")


def _eager_rows(graph, typing):
    """The payload's ``typing`` rows as the eager tuple always rendered them."""
    return tuple(
        (repr(node), tuple(sorted(typing.types_of(node))))
        for node in sorted(graph.nodes, key=repr)
    )


def _clone_store_graph(copies=24):
    """Bug-tracker clones, copy 0 missing its descr: large enough for the
    kind view, with untyped nodes (the broken bug and whatever reaches it)."""
    graph = Graph("clones")
    for copy in range(copies):
        if copy:
            graph.add_edge(f"b{copy}", "descr", f"l{copy}")
        graph.add_edge(f"b{copy}", "related", f"c{copy}")
        graph.add_edge(f"c{copy}", "descr", f"m{copy}")
        graph.add_edge(f"c{copy}", "related", f"b{copy}")
    return graph


class TestTypingCoverage:
    """Every typing producer lists every graph node, untyped ones as ``{}``:
    payload rows are read off the typing, not off the live graph."""

    def _assert_covers(self, typing, graph):
        assignments = dict(typing.items())
        assert set(assignments) == set(graph.nodes)
        assert frozenset() in assignments.values()

    def test_kernels_and_references(self, schema):
        from repro.engine.fixpoint import maximal_typing_fixpoint
        from repro.schema.reference import maximal_typing_worklist
        from repro.schema.validation import maximal_typing_compressed

        graph = _clone_store_graph(2)
        for typing in (
            maximal_typing_fixpoint(graph, schema),
            maximal_typing_compressed(graph, schema),
            validate(graph, schema).typing,
            maximal_typing_reference(graph, schema),
            maximal_typing_worklist(graph, schema),
        ):
            self._assert_covers(typing, graph)

    def test_store_revalidation_modes_and_persisted_typings(self, schema):
        from repro.engine.fixpoint import maximal_typing_fixpoint, retype_incremental
        from repro.persist import codec

        store = GraphStore(_clone_store_graph())
        modes = []
        with ValidationEngine(cache_size=0) as engine:
            for delta in (
                None,
                Delta.of(add=[("b5", "related", "b6")]),
                Delta.of(remove=[("b5", "related", "b6")]),
            ):
                if delta is not None:
                    store.apply(delta)
                modes.append(engine.revalidate(store, schema).mode)
                (entry,) = engine.export_typings(store)
                self._assert_covers(entry["typing"], store.graph)
                nodes = list(store.graph.nodes)
                index = {node: position for position, node in enumerate(nodes)}
                self._assert_covers(
                    codec.decode_typing(codec.encode_typing(entry["typing"], index), nodes),
                    store.graph,
                )
        assert modes[0] == "full" and "incremental" in modes
        plain = GraphStore(_clone_store_graph(2))
        prior = maximal_typing_fixpoint(plain.graph, schema)
        self._assert_covers(prior, plain.graph)
        delta = Delta.of(add=[("b1", "related", "fresh")])
        plain.apply(delta)
        typing = retype_incremental(plain, prior, delta, schema=schema)
        self._assert_covers(typing, plain.graph)
        assert typing.types_of("fresh") == frozenset({"Lit"})


class TestTypingRows:
    def test_lazy_rows_render_compare_and_pickle_like_the_tuple(self, schema, bad_graph):
        import pickle

        with ValidationEngine() as engine:
            report = engine.run_batch([(bad_graph, schema)])
        rows = report.results[0].payload["typing"]
        eager = _eager_rows(bad_graph, validate(bad_graph, schema).typing)
        assert rows == eager and eager == rows
        assert repr(rows) == repr(eager) and hash(rows) == hash(eager)
        assert list(rows) == list(eager) and len(rows) == len(eager)
        assert rows[0] == eager[0] and ("'b1'", ()) in rows
        restored = pickle.loads(pickle.dumps(rows))
        assert type(restored) is tuple and restored == eager

    def test_typing_pickles_without_its_hash_memo(self):
        import pickle

        from repro.schema.typing import Typing

        typing = Typing({"a": {"T"}, "b": ()})
        hash(typing)
        assert "_hash" not in typing.__getstate__()
        restored = pickle.loads(pickle.dumps(typing))
        assert restored == typing and hash(restored) == hash(typing)

    def test_break_and_repair_revalidation_hits_the_batch_key(self, schema):
        store = GraphStore(_clone_store_graph(2))
        store.apply(Delta.of(add=[("b0", "descr", "l0")]))  # every bug typed
        broken = Delta.of(remove=[("b1", "descr", "l1")])
        with ValidationEngine() as engine:
            first = engine.revalidate(store, schema)
            store.apply(broken)
            assert engine.revalidate(store, schema).result.verdict == "invalid"
            store.apply(broken.inverse())
            repaired = engine.revalidate(store, schema)
            batch = engine.run_batch([(store.graph.copy(), schema)])
        assert first.result.verdict == "valid"
        assert repaired.mode == "cached" and repaired.result.cached
        assert repaired.result.key == first.result.key == batch.results[0].key
        assert batch.results[0].cached
        oracle = maximal_typing_reference(store.graph, schema)
        assert repaired.result.payload["typing"] == _eager_rows(store.graph, oracle)

    def test_process_batch_reread_yields_equal_rows(self, schema, bad_graph):
        with ValidationEngine(backend="process", max_workers=1) as engine:
            cold = engine.run_batch([(bad_graph, schema)]).results[0]
            warm = engine.run_batch([(bad_graph, schema)]).results[0]
        with ValidationEngine() as engine:
            serial = engine.run_batch([(bad_graph, schema)]).results[0]
        assert not cold.cached and warm.cached
        eager = _eager_rows(bad_graph, maximal_typing_reference(bad_graph, schema))
        assert type(warm.payload["typing"]) is tuple
        assert warm.payload["typing"] == serial.payload["typing"] == eager
