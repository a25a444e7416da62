"""Unit tests for the versioned graph store, deltas, and the kind-compression quotient."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro import obs
from repro.core.intervals import Interval
from repro.engine.compiled import graph_fingerprint
from repro.engine.fixpoint import affected_region
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.store import (
    Delta,
    GraphStore,
    kind_compress,
    kind_partition,
)
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

    def test_touched_nodes(self):
        delta = Delta.of(add=[("x", "a", "y")], remove=[("u", "b", "v")])
        assert delta.touched_nodes() == {"x", "y", "u", "v"}

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

    def test_store_ids_are_unique(self):
        assert GraphStore(Graph()).store_id != GraphStore(Graph()).store_id

    def test_affected_region_after_deltas(self):
        store = GraphStore(_chain("a"))  # n0 -> n1
        store.add_edge("n1", "b", "n2")
        store.add_edge("n2", "b", "n0")  # a cycle back into the chain
        store.add_edge("side", "c", "n1")
        store.remove_edge("side", "c", "n1")  # removed edges must not leak
        everyone = {"n0", "n1", "n2"}
        assert affected_region(store.graph, ["n0"]) == everyone
        assert affected_region(store.graph, ["side"]) == {"side"}
        assert affected_region(store.graph, ["n2", "ghost"]) == everyone
        assert affected_region(store.graph, ["ghost"]) == set()
        assert affected_region(store.graph, []) == set()

    def test_affected_region_tracks_parallel_edges(self):
        store = GraphStore(Graph())
        store.add_edge("x", "a", "y")
        store.add_edge("x", "a", "y")  # parallel edge with the same triple
        store.remove_edge("x", "a", "y")
        # One parallel edge remains: x still reaches y.
        assert affected_region(store.graph, ["y"]) == {"x", "y"}
        store.remove_edge("x", "a", "y")
        assert affected_region(store.graph, ["y"]) == {"y"}


class TestMaintainedFingerprint:
    """``GraphStore.fingerprint`` rehashes only the buckets deltas touched and
    always equals the from-scratch :func:`graph_fingerprint`."""

    NODES = [f"n{index}" for index in range(8)]
    LABELS = ["a", "b"]

    def _seed_graph(self) -> Graph:
        graph = Graph("maintained")
        for index, node in enumerate(self.NODES[:-1]):
            graph.add_edge(node, self.LABELS[index % 2], self.NODES[index + 1])
        return graph

    def _delta(self, rng: random.Random, graph: Graph, step: int) -> Delta:
        """Cycle through new targets, parallel edges, wide intervals, cycles."""
        edges = list(graph.edges)
        removals = []
        if edges and rng.random() < 0.5:
            edge = rng.choice(edges)
            removals.append((edge.source, edge.label, edge.target, edge.occur))
        nodes = sorted(graph.nodes)
        kind = step % 4
        if kind == 0:  # a node the graph has never seen, as a target only
            additions = [(rng.choice(nodes), rng.choice(self.LABELS), f"new{step}")]
        elif kind == 1 and edges:  # a parallel copy of a stored edge
            edge = rng.choice(edges)
            additions = [(edge.source, edge.label, edge.target, edge.occur)]
        elif kind == 2:  # intervals other than 1
            occur = rng.choice([(2, 2), (0, 3), (1, None)])
            additions = [(rng.choice(nodes), "a", rng.choice(nodes), occur)]
        else:  # close a cycle over a stored edge
            edge = rng.choice(edges) if edges else None
            additions = (
                [(edge.target, "b", edge.source)] if edge else [("n0", "b", "n0")]
            )
        return Delta.of(add=additions, remove=removals)

    def test_nodes_digest_equals_the_bucket_digest(self):
        # Intervals shared by many edges, and equal intervals that are
        # distinct objects: each bucket's digest is the same either way.
        from repro.engine.compiled import graph_buckets, nodes_digest

        graph = Graph("digests")
        for index in range(300):
            occur = [None, (2, 2), (0, 3), (1, None)][index % 4]
            graph.add_edge(f"n{index}", "a", f"n{(index * 7) % 300}", occur)
            graph.add_edge(f"n{index}", "b", f"m{index % 5}", (0, 3))
        members, digests = graph_buckets(graph)
        assert len(members) > 1
        for bucket, nodes in members.items():
            assert nodes_digest(graph, nodes) == digests[bucket]

    @pytest.mark.parametrize("seed", [3, 17, 41, 96])
    def test_matches_from_scratch_after_every_apply(self, seed):
        rng = random.Random(seed)
        store = GraphStore(self._seed_graph())
        assert store.fingerprint() == graph_fingerprint(store.graph.copy())
        for step in range(24):
            store.apply(self._delta(rng, store.graph, step))
            assert store.fingerprint() == graph_fingerprint(store.graph.copy()), (
                seed, step,
            )

    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_break_then_repair_restores_the_fingerprint(self, seed):
        rng = random.Random(seed)
        store = GraphStore(self._seed_graph())
        # No new nodes here: a node stays in the graph once its edges go.
        for step in (1, 2, 3) * 4:
            before = store.fingerprint()
            store.apply(self._delta(rng, store.graph, step))
            broken = store.fingerprint()
            store.apply(store.diff(store.version, store.version - 1))
            assert store.fingerprint() == before, (seed, step)
            store.apply(store.diff(store.version, store.version - 1))  # redo
            assert store.fingerprint() == broken, (seed, step)

    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_reopened_durable_store_matches_the_live_one(self, seed, tmp_path):
        from repro.persist import DurableStore

        rng = random.Random(seed)
        directory = str(tmp_path / "store")
        live = DurableStore.create(directory, self._seed_graph(), name="fp")
        live.fingerprint()  # built before the WAL tail: maintained across it
        for step in range(10):
            live.apply(self._delta(rng, live.graph, step))
        live.close()
        reopened = DurableStore.open(directory)
        try:
            assert reopened.version == live.version
            assert reopened.fingerprint() == live.fingerprint()
            delta = self._delta(rng, reopened.graph, 0)
            reopened.apply(delta)
            assert reopened.fingerprint() == graph_fingerprint(reopened.graph.copy())
        finally:
            reopened.close()

    @pytest.mark.parametrize("size", [50, 4000])
    def test_apply_rehashes_at_most_the_touched_buckets(self, size, monkeypatch):
        from repro.engine import compiled

        store = GraphStore(_chain(*(["a", "b"] * (size // 2))))
        store.fingerprint()
        rehashed = []
        real = compiled.nodes_digest
        monkeypatch.setattr(
            compiled, "nodes_digest",
            lambda graph, nodes: rehashed.append(set(nodes)) or real(graph, nodes),
        )
        delta = Delta.of(add=[("n3", "a", "n9"), ("n9", "b", "fresh")])
        touched = delta.touched_nodes()
        store.apply(delta)
        digest = store.fingerprint()
        assert 0 < len(rehashed) <= len(touched)
        assert all(bucket & touched for bucket in rehashed)
        assert sum(len(bucket) for bucket in rehashed) < size
        assert digest == graph_fingerprint(store.graph.copy())

    def test_fingerprint_span_reports_mode_and_buckets(self):
        before = obs_metrics.STATE.enabled
        obs_metrics.STATE.enabled = True
        try:
            store = GraphStore(_chain("a", "b", "a"))
            with obs.start_trace("test.fingerprint") as root:
                store.fingerprint()
                store.add_edge("n0", "b", "n1")
                store.fingerprint()
                store.fingerprint()  # memoised: no span
        finally:
            obs_metrics.STATE.enabled = before
        tags = [
            child["tags"]
            for child in root.to_dict()["children"]
            if child["name"] == "graph.fingerprint"
        ]
        assert [tag["mode"] for tag in tags] == ["full", "incremental"]
        assert tags[0]["buckets"] >= 1
        assert 1 <= tags[1]["buckets"] <= 2


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


class TestDiffReplay:
    NODES = [f"n{index}" for index in range(6)]
    LABELS = ["a", "b"]

    def _random_delta(self, rng: random.Random, graph: Graph) -> Delta:
        removals = []
        edges = list(graph.edges)
        rng.shuffle(edges)
        for edge in edges[: rng.randint(0, 2)]:
            # Plain entries exercise wildcard resolution of stored intervals.
            if rng.random() < 0.5:
                removals.append((edge.source, edge.label, edge.target))
            else:
                removals.append((edge.source, edge.label, edge.target, edge.occur))
        additions = []
        for _ in range(rng.randint(0 if removals else 1, 3)):
            entry = (rng.choice(self.NODES), rng.choice(self.LABELS), rng.choice(self.NODES))
            if rng.random() < 0.3:
                entry += ((rng.randint(1, 3),) * 2,)
            additions.append(entry)
        return Delta.of(add=additions, remove=removals)

    def _seed_graph(self) -> Graph:
        # Every node pre-exists: deltas describe edges, so a diff reproduces
        # content exactly only when both ends already exist at v1.
        graph = Graph("replay")
        graph.add_nodes(self.NODES)
        graph.add_edge("n0", "a", "n1")
        graph.add_edge("n1", "b", "n2", (2, 2))
        return graph

    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_diff_reproduces_every_version_pair(self, seed):
        rng = random.Random(seed)
        store = GraphStore(self._seed_graph())
        contents = [self._seed_graph()]
        fingerprints = [store.fingerprint()]
        for _ in range(12):
            store.apply(self._random_delta(rng, store.graph))
            contents.append(store.graph.copy())
            fingerprints.append(store.fingerprint())
        for v1, v2 in itertools.product(range(store.version + 1), repeat=2):
            replay = GraphStore(contents[v1].copy())
            replay.apply(store.diff(v1, v2))
            assert replay.fingerprint() == fingerprints[v2], (seed, v1, v2)


class TestTypingView:
    def test_typing_view_is_a_fresh_quotient_per_read(self):
        base = bug_tracker_graph()
        graph = Graph("clones")
        for copy_index in range(12):
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        first = store.typing_view()
        assert first.kind_count * 4 <= graph.node_count
        again = store.typing_view()
        assert again is not first  # nothing is cached
        assert again.kind_of == first.kind_of
        store.add_edge((0, "fresh"), "descr", (0, "literal"))
        after = store.typing_view()
        assert after.kind_of == kind_compress(store.graph).kind_of
        assert (0, "fresh") in after.kind_of and (0, "fresh") not in first.kind_of

    def test_revalidating_a_list_store_retypes_each_delta_by_region(self):
        from repro.engine.validation import ValidationEngine
        from repro.schema.parser import parse_schema

        schema = parse_schema(
            "Cell -> first :: Lit, rest :: Cell?, rest :: Nil?\nNil -> eps\nLit -> eps"
        )
        graph = Graph("list")
        for index in range(300):
            graph.add_edge(f"cell{index}", "first", f"v{index}")
            graph.add_edge(
                f"cell{index}", "rest", f"cell{index + 1}" if index < 299 else "nil"
            )
        store = GraphStore(graph)
        before = obs_metrics.STATE.enabled
        obs_metrics.STATE.enabled = True
        try:
            with ValidationEngine(cache_size=0) as engine, obs.start_trace("t") as root:
                assert engine.revalidate(store, schema).mode == "full"
                for step in range(6):
                    store.apply(Delta.of(
                        remove=[(f"cell{step}", "first", f"v{step}")],
                        add=[(f"cell{step}", "first", f"w{step}")],
                    ))
                    assert engine.revalidate(store, schema).mode == "incremental"
        finally:
            obs_metrics.STATE.enabled = before
        spans = [
            child for child in root.to_dict()["children"]
            if child["name"] == "engine.revalidate"
        ]
        assert [span["tags"]["route"] for span in spans] == ["full"] + ["region"] * 6
        for span in spans[1:]:
            assert span["tags"]["reason"].startswith("region ")
            (kernel,) = span["children"]
            assert kernel["name"] == "fixpoint.incremental"
            assert "row_hits" in kernel["tags"]


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

    def test_typing_view_equals_kind_compress(self):
        store = GraphStore(_chain("a", "b"))
        assert store.typing_view().kind_count == 3  # no size floor
        long_chain = GraphStore(_chain(*["a"] * 64))
        assert long_chain.typing_view().kind_count == 65  # one kind per node
        # Sixteen clones of a 5-node chain shrink the node count 16-fold.
        clones = Graph("clones")
        for copy_index in range(16):
            for index in range(4):
                clones.add_edge((copy_index, index), "a", (copy_index, index + 1))
        view = GraphStore(clones).typing_view()
        assert view.kind_count * 16 == clones.node_count
        assert view.kind_of == kind_compress(clones).kind_of


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

    def test_validate_delta_show_typing_prints_every_node(self, tmp_path, capsys):
        from repro.cli import main
        from repro.rdf.convert import load_graph
        from repro.schema.parser import parse_schema
        from repro.schema.reference import maximal_typing_reference

        removal = ["http://example.org/b2", "descr", "http://example.org/l2"]
        schema, data, delta = self._files(tmp_path, {"remove": [removal]})
        status = main([
            "validate", "--schema", schema, "--data", data, "--delta", delta,
            "--show-typing",
        ])
        out = capsys.readouterr().out
        assert status == 1
        graph = load_graph(self.TURTLE)
        graph.remove_edge(next(
            edge for edge in graph.out_edges(removal[0]) if edge.label == "descr"
        ))
        oracle = maximal_typing_reference(graph, parse_schema(self.SCHEMA))
        expected = [
            f"  {node!r}: {{{', '.join(sorted(oracle.types_of(node)))}}}"
            for node in sorted(graph.nodes, key=repr)
        ]
        printed = [line for line in out.splitlines() if line.startswith("  '")]
        assert printed == expected
        assert "  'http://example.org/b1': {}" in printed

    def test_validate_delta_rejects_bad_json(self, tmp_path, capsys):
        from repro.cli import main

        schema, data, delta = self._files(tmp_path, {})
        with open(delta, "w", encoding="utf-8") as handle:
            handle.write("{broken")
        status = main(["validate", "--schema", schema, "--data", data, "--delta", delta])
        assert status == 2
        assert "error" in capsys.readouterr().err
