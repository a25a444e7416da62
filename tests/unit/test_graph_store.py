"""Unit tests for the versioned graph store, deltas, and the kind-compression view."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.intervals import Interval
from repro.engine.fixpoint import affected_region
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore, kind_compress, kind_partition
from repro.obs import metrics as obs_metrics
from repro.workloads.bugtracker import bug_tracker_graph


def _chain(*labels) -> Graph:
    graph = Graph("chain")
    for index, label in enumerate(labels):
        graph.add_edge(f"n{index}", label, f"n{index + 1}")
    return graph


class TestDelta:
    def test_of_normalises_intervals(self):
        delta = Delta.of(add=[("x", "a", "y"), ("x", "b", "z", (2, 2))])
        assert delta.added[0][3] == Interval.of(1)
        assert delta.added[1][3] == Interval.singleton(2)
        assert len(delta) == 2 and not delta.is_empty

    def test_inverse_and_composition(self):
        first = Delta.of(add=[("x", "a", "y")])
        second = Delta.of(remove=[("y", "b", "z")])
        both = first.then(second)
        assert both.added == first.added and both.removed == second.removed
        assert both.inverse().added == second.removed

    def test_touched_nodes_and_sources(self):
        delta = Delta.of(add=[("x", "a", "y")], remove=[("u", "b", "v")])
        assert delta.touched_nodes() == {"x", "y", "u", "v"}
        assert delta.touched_sources() == {"x", "u"}

    def test_json_round_trip(self):
        delta = Delta.of(add=[("x", "a", "y", (3, 3))], remove=[("u", "b", "v")])
        wire = json.loads(json.dumps(delta.to_json()))
        assert Delta.from_json(wire) == delta

    def test_from_json_rejects_malformed(self):
        with pytest.raises(GraphError):
            Delta.from_json(["not", "an", "object"])
        with pytest.raises(GraphError):
            Delta.from_json({"add": [["too", "short"]]})
        with pytest.raises(GraphError):
            Delta.from_json({"insert": []})


class TestGraphStore:
    def test_versions_are_monotone(self):
        store = GraphStore(_chain("a", "b"))
        assert store.version == 0
        assert store.add_edge("n0", "c", "n2") == 1
        assert store.remove_edge("n0", "c", "n2") == 2
        assert store.version == 2

    def test_apply_is_atomic_on_bad_removal(self):
        store = GraphStore(_chain("a"))
        bad = Delta.of(add=[("n0", "x", "n9")], remove=[("ghost", "a", "n1")])
        with pytest.raises(GraphError):
            store.apply(bad)
        assert store.version == 0
        assert not store.graph.has_node("n9")

    def test_removal_matches_interval_when_given(self):
        graph = Graph()
        graph.add_edge("x", "a", "y", (2, 2))
        store = GraphStore(graph)
        with pytest.raises(GraphError):
            store.remove_edge("x", "a", "y", (3, 3))
        store.remove_edge("x", "a", "y", (2, 2))
        assert store.graph.edge_count == 0

    def test_diff_forward_and_backward(self):
        store = GraphStore(_chain("a"))
        store.add_edge("n1", "b", "n2")
        store.add_edge("n2", "c", "n3")
        forward = store.diff(0, 2)
        assert [entry[1] for entry in forward.added] == ["b", "c"]
        backward = store.diff(2, 0)
        assert [entry[1] for entry in backward.removed] == ["c", "b"]
        assert store.diff(1, 1).is_empty
        with pytest.raises(GraphError):
            store.diff(0, 99)

    def test_diff_cancels_add_then_remove_spans(self):
        # An edge added and later removed within the span must vanish from
        # the composed diff, which is then applicable to the span's start.
        store = GraphStore(_chain("a"))
        store.add_edge("n0", "x", "n9")
        store.remove_edge("n0", "x", "n9")
        assert store.diff(0, 2).is_empty
        replay = GraphStore(_chain("a"))
        replay.apply(store.diff(0, 2))  # no-op, applies cleanly
        assert replay.graph.edge_count == 1

    def test_log_resolves_wildcard_removal_intervals(self):
        graph = Graph()
        graph.add_edge("x", "a", "y", (3, 3))
        store = GraphStore(graph)
        store.remove_edge("x", "a", "y")  # plain entry matches any interval
        backward = store.diff(1, 0)
        assert backward.added == ((("x"), "a", ("y"), Interval.singleton(3)),)
        store.apply(backward)  # round-trips with the true interval
        assert store.graph.edges[0].occur == Interval.singleton(3)

    def test_fingerprint_tracks_content(self):
        store = GraphStore(_chain("a"))
        before = store.fingerprint()
        assert store.fingerprint() == before  # memoised per version
        store.add_edge("n0", "z", "n1")
        changed = store.fingerprint()
        assert changed != before
        store.remove_edge("n0", "z", "n1")
        assert store.fingerprint() == before  # content round-trips

    def test_interned_ids_are_stable(self):
        store = GraphStore(_chain("a"))
        n0 = store.node_id("n0")
        assert store.node_id("n0") == n0
        assert store.node_id("n1") != n0
        a = store.label_id("a")
        store.add_edge("n1", "b", "brand-new")
        assert store.label_id("a") == a
        assert store.label_id("b") != a

    def test_store_ids_are_unique(self):
        assert GraphStore(Graph()).store_id != GraphStore(Graph()).store_id

    def test_region_closure_matches_backward_closure(self):
        from repro.graphs.scc import backward_closure

        store = GraphStore(_chain("a"))
        store.add_edge("n2", "b", "n0")  # a cycle back into the chain
        store.add_edge("side", "c", "n1")
        store.remove_edge("side", "c", "n1")  # removed edges must not leak
        for seeds in (["n0"], ["n1"], ["n2", "ghost"], []):
            expected = backward_closure(
                store.graph, (n for n in seeds if store.graph.has_node(n))
            )
            assert store.region_closure(seeds) == expected

    def test_region_closure_tracks_parallel_edge_counts(self):
        store = GraphStore(Graph())
        store.add_edge("x", "a", "y")
        store.add_edge("x", "a", "y")  # parallel edge with the same triple
        store.remove_edge("x", "a", "y")
        # One parallel edge remains: x still reaches y.
        assert store.region_closure(["y"]) == {"x", "y"}
        store.remove_edge("x", "a", "y")
        assert store.region_closure(["y"]) == {"y"}


class TestDeltaCompaction:
    def test_compact_cancels_matching_pairs(self):
        delta = Delta.of(
            add=[("x", "a", "y"), ("u", "b", "v")],
            remove=[("x", "a", "y"), ("p", "c", "q")],
        )
        compacted = delta.compact()
        assert compacted.added == Delta.of(add=[("u", "b", "v")]).added
        assert compacted.removed == Delta.of(remove=[("p", "c", "q")]).removed

    def test_compact_is_multiset_exact(self):
        # Two adds, one remove of the same content: exactly one pair cancels.
        delta = Delta.of(
            add=[("x", "a", "y"), ("x", "a", "y")], remove=[("x", "a", "y")]
        )
        compacted = delta.compact()
        assert len(compacted.added) == 1 and not compacted.removed

    def test_compact_respects_intervals(self):
        # Different intervals are different content: nothing cancels.
        delta = Delta.of(add=[("x", "a", "y", (2, 2))], remove=[("x", "a", "y")])
        assert delta.compact() == delta

    def test_compact_without_cancellation_returns_self(self):
        delta = Delta.of(add=[("x", "a", "y")])
        assert delta.compact() is delta


class TestLogCompaction:
    def _churny_store(self, steps: int) -> GraphStore:
        # Pure add/remove churn over existing nodes (deltas describe edges,
        # so targets must pre-exist for diffs to reproduce content exactly).
        store = GraphStore(_chain("a", "b", "c"))
        for index in range(steps):
            store.add_edge("n0", "x", f"n{index % 3 + 1}")
            store.remove_edge("n0", "x", f"n{index % 3 + 1}")
        return store

    def test_checkpointed_diff_equals_plain_diff(self):
        store = self._churny_store(20)  # 40 versions of add/remove churn
        plain = {
            (v1, v2): store.diff(v1, v2)
            for v1, v2 in [(0, 40), (3, 37), (40, 0), (37, 3), (8, 8)]
        }
        assert store.compact_log(every=8) == 5
        for (v1, v2), expected in plain.items():
            replay = GraphStore(_chain("a", "b", "c"))
            # Checkpointed diffs may order entries differently; they must
            # still describe the same edit (here: churn cancels to nothing).
            checkpointed = store.diff(v1, v2)
            assert checkpointed.compact().is_empty == expected.compact().is_empty
            if v1 == 0:
                replay.apply(checkpointed)
                assert replay.fingerprint() == store.fingerprint()

    def test_checkpoints_cancel_churn(self):
        store = self._churny_store(16)
        store.compact_log(every=8)
        # Every full window is pure churn: its checkpoint must be empty.
        assert all(delta.is_empty for delta in store._checkpoints.values())
        assert store.diff(0, 32).is_empty

    def test_compact_log_is_idempotent_and_incremental(self):
        store = self._churny_store(8)
        assert store.compact_log(every=4) == 4
        assert store.compact_log(every=4) == 4  # nothing new to compose
        store.add_edge("n0", "y", "n1")
        store.remove_edge("n0", "y", "n1")
        store.add_edge("n0", "y", "n2")
        store.remove_edge("n0", "y", "n2")
        assert store.compact_log(every=4) == 5  # one more completed window
        with pytest.raises(GraphError):
            store.compact_log(every=1)

    def test_changing_the_interval_rebuilds_the_grid(self):
        store = self._churny_store(8)
        store.compact_log(every=4)
        assert store.compact_log(every=8) == 2
        assert all(end - start == 8 for start, end in store._checkpoints)

    def test_mixed_span_uses_checkpoints_and_log_tail(self):
        store = GraphStore(Graph("grow"))
        for index in range(19):
            store.add_edge(f"s{index}", "a", f"t{index}")
        store.compact_log(every=8)
        forward = store.diff(2, 19)  # log prefix, one checkpoint, log tail
        replay = GraphStore(Graph("grow"))
        replay.apply(store.diff(0, 2))
        replay.apply(forward)
        assert replay.fingerprint() == store.fingerprint()
        backward = store.diff(19, 2)
        replay.apply(backward)
        assert replay.graph.edge_count == 2


class TestMaintainedView:
    def test_view_stats_are_passive(self):
        store = GraphStore(bug_tracker_graph())
        assert store.view_stats() == {"active": False}  # never typed
        assert store.view_epoch == -1

    def test_view_stats_report_the_maintained_partition(self):
        base = bug_tracker_graph()
        graph = Graph("clones")
        for copy_index in range(12):
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        assert store.typing_view() is not None
        stats = store.view_stats()
        assert stats["active"] is True
        assert stats["kinds"] * 4 <= graph.node_count
        assert stats["last_update"] == "full"
        assert stats["path"] == "rounds"  # the clones' bugs cite each other
        assert stats["epoch"] == 0 and store.view_epoch == 0
        store.add_edge((0, "fresh"), "descr", (0, "literal"))
        assert store.typing_view() is not None
        assert store.view_stats()["last_update"] == "incremental"
        assert store.view_stats()["incremental_updates"] == 1

    def test_partition_sync_span_carries_mode_affected_and_path(self):
        before = obs_metrics.STATE.enabled
        obs_metrics.STATE.enabled = True
        try:
            store = GraphStore(_chain(*["a"] * 80))
            with obs.start_trace("test.sync") as root:
                store._sync_partition()
                store.add_edge("n0", "b", "n1")
                store._sync_partition()
                store._sync_partition()
        finally:
            obs_metrics.STATE.enabled = before
        syncs = [
            child["tags"]
            for child in root.to_dict()["children"]
            if child["name"] == "partition.sync"
        ]
        assert syncs == [
            {"mode": "full", "affected": 81, "path": "dag"},
            {"mode": "incremental", "affected": 2, "path": "dag"},
            {"mode": "unchanged", "affected": 0, "path": "dag"},
        ]
        assert store.view_stats()["path"] == "dag"

    def test_custom_thresholds_bypass_the_maintainer(self):
        store = GraphStore(_chain("a", "b"))
        assert store.typing_view(min_nodes=1, min_ratio=1.0) is not None
        assert store.view_stats() == {"active": False}  # no maintainer built


class TestKindCompression:
    def test_partition_separates_structurally_distinct_nodes(self):
        graph = Graph()
        graph.add_edge("x1", "a", "sink")
        graph.add_edge("x2", "a", "sink")
        graph.add_edge("y", "a", "sink")
        graph.add_edge("y", "a", "sink")  # two parallel a-edges: its own kind
        kinds = kind_partition(graph)
        assert kinds["x1"] == kinds["x2"]
        assert kinds["y"] != kinds["x1"]
        assert kinds["sink"] != kinds["x1"]

    def test_quotient_counts_multiplicities(self):
        graph = Graph()
        graph.add_edge("y", "a", "s1")
        graph.add_edge("y", "a", "s2")
        view = kind_compress(graph)
        y_kind = view.kind_of["y"]
        (edge,) = view.compressed.out_edges(y_kind)
        assert edge.occur == Interval.singleton(2)

    def test_clone_graph_collapses(self):
        base = bug_tracker_graph()
        graph = Graph("clones")
        for copy_index in range(6):
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        view = kind_compress(graph)
        assert view.kind_count <= base.node_count
        assert sum(len(members) for members in view.members.values()) == graph.node_count

    def test_typing_view_heuristic(self):
        store = GraphStore(_chain("a", "b"))
        assert store.typing_view() is None  # far below the node floor
        assert store.typing_view(min_nodes=1, min_ratio=1.0) is not None


class TestAffectedRegion:
    def test_backward_closure(self):
        graph = _chain("a", "b", "c")  # n0 -> n1 -> n2 -> n3
        assert affected_region(graph, ["n2"]) == {"n0", "n1", "n2"}
        assert affected_region(graph, ["n0"]) == {"n0"}
        assert affected_region(graph, ["ghost"]) == set()


class TestCliDelta:
    SCHEMA = "Bug -> descr :: Lit, related :: Bug*\nLit -> eps\n"
    TURTLE = (
        "@prefix ex: <http://example.org/> .\n"
        "ex:b1 ex:descr ex:l1 ; ex:related ex:b2 .\n"
        "ex:b2 ex:descr ex:l2 .\n"
        "ex:b3 ex:descr ex:l3 .\n"
        "ex:b4 ex:descr ex:l4 .\n"
        "ex:b5 ex:descr ex:l5 .\n"
    )

    def _files(self, tmp_path, delta):
        schema = tmp_path / "s.shex"
        schema.write_text(self.SCHEMA)
        data = tmp_path / "g.ttl"
        data.write_text(self.TURTLE)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(delta))
        return str(schema), str(data), str(path)

    def test_validate_delta_revalidates_incrementally(self, tmp_path, capsys):
        from repro.cli import main

        schema, data, delta = self._files(
            tmp_path,
            {"remove": [["http://example.org/b2", "descr", "http://example.org/l2"]]},
        )
        status = main(["validate", "--schema", schema, "--data", data, "--delta", delta])
        out = capsys.readouterr().out
        assert status == 1  # post-delta verdict drives the exit code
        assert "base     v0: VALID" in out
        assert "delta    v1: INVALID [incremental" in out
        assert "untyped: 'http://example.org/b1'" in out

    def test_validate_delta_rejects_bad_json(self, tmp_path, capsys):
        from repro.cli import main

        schema, data, delta = self._files(tmp_path, {})
        with open(delta, "w", encoding="utf-8") as handle:
            handle.write("{broken")
        status = main(["validate", "--schema", schema, "--data", data, "--delta", delta])
        assert status == 2
        assert "error" in capsys.readouterr().err
