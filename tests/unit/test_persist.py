"""Unit tests for the persist package: codec, WAL, durable stores, migrations."""

from __future__ import annotations

import gc
import json
import os
import random

import pytest

from repro import faults, obs
from repro.core.intervals import Interval
from repro.errors import PersistError
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.obs import metrics as obs_metrics
from repro.persist import DurableStore, codec
from repro.persist import migrations as migrations_mod
from repro.persist import wal as wal_mod
from repro.persist.store import read_manifest, write_manifest
from repro.persist.wal import FsyncPolicy, WriteAheadLog


def _graph(edges) -> Graph:
    graph = Graph("t")
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


def _base_graph() -> Graph:
    return _graph([("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")])


class TestCodec:
    def test_node_round_trip(self):
        for node in ("iri", ("lit", "hello"), ("lit", "")):
            assert codec.decode_node(codec.encode_node(node)) == node

    def test_delta_round_trip(self):
        delta = Delta.of(
            add=[("x", "a", "y", (3, 3)), (("lit", "s"), "b", "z")],
            remove=[("u", "b", "v")],
        )
        wire = json.loads(json.dumps(codec.encode_delta(delta)))
        assert codec.decode_delta(wire) == delta

    def test_occur_round_trip_unbounded(self):
        occur = Interval.of((2, None))
        assert codec.decode_occur(codec.encode_occur(occur)) == occur

    def test_scalar_nodes_round_trip(self):
        for node in (0, -3, True, False, 1.5, None, ("t", 1, (None, 2.0)), ()):
            wire = json.loads(json.dumps(codec.encode_node(node)))
            decoded = codec.decode_node(wire)
            assert decoded == node and type(decoded) is type(node)

    def test_non_string_labels_round_trip(self):
        # A store takes any JSON scalar label a client sends (Delta.from_json
        # does not type-check labels), so decoding must give each one back.
        delta = Delta.from_json({"add": [["a", 5, "b"], ["a", None, "b"], ["a", 1.5, "b"]]})
        wire = json.loads(json.dumps(codec.encode_delta(delta)))
        assert codec.decode_delta(wire) == delta

    def test_one_interval_per_distinct_pair(self):
        assert codec.decode_occur([2, None]) is codec.decode_occur([2, None])
        typing = codec.decode_typing([["a", ["T", "U"]], ["b", ["T", "U"]], [{"i": 1}, []]])
        assert typing.types_of("a") is typing.types_of("b")
        assert typing.types_of(1) == frozenset()

    @pytest.mark.parametrize(
        "decode, value",
        [
            (codec.decode_node, {"i": "a"}),
            (codec.decode_node, {"i": True}),
            (codec.decode_node, {"i": 1.0}),
            (codec.decode_node, {"b": 3}),
            (codec.decode_node, {"f": 1}),
            (codec.decode_node, {"n": False}),
            (codec.decode_node, {"t": 5}),
            (codec.decode_node, {"t": [{"i": "a"}]}),
            (codec.decode_node, {"x": 1}),
            (codec.decode_node, {"i": 1, "b": True}),
            (codec.decode_node, 5),
            (codec.decode_node, None),
            (codec.decode_node, ["a"]),
            (codec.decode_occur, [1.5, 2]),
            (codec.decode_occur, [True, True]),
            (codec.decode_occur, [1, False]),
            (codec.decode_occur, ["a", 1]),
            (codec.decode_occur, [None, 1]),
            (codec.decode_occur, [2, 1]),
            (codec.decode_occur, [-1, 3]),
            (codec.decode_occur, [1]),
            (codec.decode_occur, "ab"),
            (codec.decode_occur, {"a": 1, "b": 2}),
            (codec.decode_typing, [["n", "Bug"]]),
            (codec.decode_typing, [["n", [1]]]),
            (codec.decode_typing, [["n", [["T"]]]]),
            (codec.decode_typing, [["n"]]),
            (codec.decode_typing, [[{"i": "a"}, ["T"]]]),
            (codec.decode_typing, {"n": ["T"]}),
            (codec.decode_delta, {"add": [["a", "x", "b"]]}),
            (codec.decode_delta, {"remove": [["a", "x", {"t": 5}, [1, 1]]]}),
            (codec.decode_delta, {"add": "abcd"}),
        ],
    )
    def test_malformed_values_raise_persist_error(self, decode, value):
        with pytest.raises(PersistError):
            decode(value)


class TestDaemonRecovery:
    def test_non_string_label_survives_restart(self, tmp_path):
        """A delta with a JSON number label is taken (the protocol does not
        type labels), so the next daemon must recover the store holding it."""
        from repro.serve.client import DaemonClient
        from repro.serve.daemon import start_in_thread

        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                client.update_graph("g", data_text="<a> <p> <b> .\n", data_format="ntriples")
                client.checkpoint("g")
                client.update_graph("g", delta={"add": [["a", 5, "b"]]})
                before = client.status()["graphs"]["g"]

        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                after = client.status()["graphs"]["g"]
        assert (after["version"], after["edges"]) == (before["version"], 2)


class TestWal:
    def test_append_and_recover(self, tmp_path):
        path = str(tmp_path / "w.log")
        log = WriteAheadLog(path, "always")
        log.append(1, {"add": [["a", "x", "b", [1, 1]]], "remove": []})
        log.append(2, {"add": [], "remove": [["a", "x", "b", [1, 1]]]})
        log.close()
        records, stats = wal_mod.recover(path)
        assert [version for version, _ in records] == [1, 2]
        assert stats["records"] == 2 and stats["truncated"] == 0

    def test_torn_tail_truncated_at_every_offset(self, tmp_path):
        path = str(tmp_path / "w.log")
        log = WriteAheadLog(path, "always")
        log.append(1, {"add": [["a", "x", "b", [1, 1]]], "remove": []})
        log.append(2, {"add": [["b", "y", "c", [1, 1]]], "remove": []})
        log.close()
        blob = open(path, "rb").read()
        first_end = len(wal_mod.MAGIC) + len(
            wal_mod._frame(1, {"add": [["a", "x", "b", [1, 1]]], "remove": []})
        )
        # Cut the file anywhere inside the second record: the first must
        # survive, the tail must be dropped, never an exception.
        for cut in range(first_end, len(blob)):
            torn = str(tmp_path / "torn.log")
            with open(torn, "wb") as handle:
                handle.write(blob[:cut])
            records, stats = wal_mod.recover(torn)
            assert [version for version, _ in records] == [1]
            assert stats["truncated"] == (1 if cut > first_end else 0)

    def test_corrupt_magic_is_refused(self, tmp_path):
        # A wrong header means the file is not a WAL at all — refuse it
        # loudly instead of silently treating it as empty.
        path = str(tmp_path / "bad.log")
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL!\n" + b"\x00" * 32)
        with pytest.raises(PersistError, match="magic"):
            wal_mod.recover(path)

    def test_fsync_policy_parse(self):
        assert str(FsyncPolicy.parse("always")) == "always"
        assert str(FsyncPolicy.parse("off")) == "off"
        interval = FsyncPolicy.parse("interval")
        assert str(FsyncPolicy.parse(interval)) == str(interval)
        with pytest.raises(PersistError):
            FsyncPolicy.parse("sometimes")


class TestDurableStore:
    def test_create_then_reopen_parity(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph(), name="t")
        store.apply(Delta.of(add=[("a", "x", "c")]))
        store.apply(Delta.of(remove=[("b", "y", "c")]))
        store.close()

        reopened = DurableStore.open(directory)
        assert reopened.version == store.version == 2
        assert reopened.name == "t"
        assert reopened.graph.edge_count == store.graph.edge_count
        assert reopened.recovery["replayed"] == 2
        assert reopened.recovery["truncated"] == 0
        reopened.close()

    def test_non_string_labels_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph(), name="t")
        store.apply(Delta.from_json({"add": [["a", 5, "b"], ["b", None, "c"]]}))
        store.checkpoint()
        # Past the checkpoint: these live only in the WAL tail.
        store.apply(Delta.from_json({"add": [["c", 7, "a"]], "remove": [["a", 5, "b"]]}))
        store.close()

        reopened = DurableStore.open(directory)
        assert reopened.version == store.version == 2
        assert reopened.fingerprint() == store.fingerprint()

        def content(graph):
            return sorted(repr((e.source, e.label, e.target, e.occur)) for e in graph.edges)

        assert content(reopened.graph) == content(store.graph)
        reopened.close()

    def test_snapshot_with_kind_typings_still_opens(self, tmp_path):
        # Snapshots once stored a kind-level typing and its partition epoch
        # next to each node typing; they are read, and the extra fields left.
        from repro.engine.validation import ValidationEngine
        from repro.schema.parser import parse_schema

        schema = parse_schema("T -> x :: T?, y :: T?, z :: T?")
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph(), name="t")
        with ValidationEngine() as engine:
            engine.revalidate(store, schema)
            (typing_entry,) = engine.export_typings(store)
            store.checkpoint([typing_entry])
        store.close()
        path = os.path.join(directory, f"snapshot-{store.generation}.json")
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        (entry,) = snapshot["typings"]
        entry["kind_typing"] = entry["typing"]
        entry["epoch"] = 0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)

        reopened = DurableStore.open(directory)
        (restored,) = reopened.restored_typings
        assert restored["typing"] == typing_entry["typing"]
        assert (restored["kind_typing"], restored["epoch"]) == (None, -1)
        with ValidationEngine() as engine:
            engine.seed_typing(
                reopened, schema, restored["typing"], restored["version"],
                compressed=restored["compressed"],
                kind_typing=restored["kind_typing"], epoch=restored["epoch"],
            )
            assert engine.revalidate(reopened, schema).mode == "unchanged"
        reopened.close()

    def test_snapshot_with_a_persisted_partition_still_opens(self, tmp_path):
        # Snapshots once carried the store's kind partition (``kind_of`` and
        # its ``epoch``); it is no longer written, and one that is there is
        # ignored: the first full typing builds the partition afresh.
        from repro.engine.validation import ValidationEngine, _payload_from_typing
        from repro.schema.reference import maximal_typing_reference
        from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

        schema = bug_tracker_schema()
        base = bug_tracker_graph()
        clones = Graph.from_edges(
            ((copy, edge.source), edge.label, (copy, edge.target), edge.occur)
            for copy in range(12)
            for edge in base.edges
        )
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, clones, name="clones")
        with ValidationEngine(cache_size=0) as engine:
            assert engine.revalidate(store, schema).mode == "kinds"
            (typing_entry,) = engine.export_typings(store)
            store.checkpoint([typing_entry])
        prefix = "http://example.org/bugs#"
        store.apply(Delta.of(remove=[((3, f"{prefix}bug3"), "descr", (3, "literal:Kabang!||"))]))
        store.close()
        path = os.path.join(directory, f"snapshot-{store.generation}.json")
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert "partition" not in snapshot
        # Every node in one kind: a typing that read this would be wrong.
        snapshot["partition"] = {
            "kind_of": sorted(([node, 0] for node in snapshot["nodes"]), key=repr),
            "epoch": 3,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)

        reopened = DurableStore.open(directory)
        assert reopened.recovery["replayed"] == 1
        assert reopened.view_stats() == {"active": False}
        oracle = maximal_typing_reference(reopened.graph, schema)
        assert oracle.untyped()  # the removed descr leaves bug3 of copy 3 untyped
        _verdict, expected = _payload_from_typing(reopened.graph, oracle, False)
        with ValidationEngine(cache_size=0) as engine:
            outcome = engine.revalidate(reopened, schema)
            assert outcome.mode == "kinds"
            assert outcome.result.payload == expected
        (restored,) = reopened.restored_typings
        with ValidationEngine(cache_size=0) as engine:
            engine.seed_typing(
                reopened, schema, restored["typing"], restored["version"],
                compressed=restored["compressed"],
            )
            outcome = engine.revalidate(reopened, schema)
            assert outcome.mode == "incremental"
            assert outcome.result.payload == expected
        reopened.close()

    def test_checkpoint_rotates_and_prunes(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        for round_index in range(3):
            store.apply(Delta.of(add=[("a", f"r{round_index}", "b")]))
            store.checkpoint()
        generations = sorted(
            int(name.split("-")[1].split(".")[0])
            for name in os.listdir(directory)
            if name.startswith("snapshot-")
        )
        # Newest generation plus one fallback; older snapshots pruned.
        assert generations == [store.generation - 1, store.generation]
        assert store.persist_status()["wal_records"] == 0
        store.close()

    def test_reopen_replays_wal_tail(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.apply(Delta.of(add=[("a", "x", "c")]))
        store.close()
        mirror = GraphStore(_base_graph())
        mirror.apply(Delta.of(add=[("a", "x", "c")]))

        reopened = DurableStore.open(directory)
        assert reopened.version == mirror.version
        assert {
            (edge.source, edge.label, edge.target)
            for node in reopened.graph.nodes
            for edge in reopened.graph.out_edges(node)
        } == {
            (edge.source, edge.label, edge.target)
            for node in mirror.graph.nodes
            for edge in mirror.graph.out_edges(node)
        }
        reopened.close()

    def test_corrupt_newest_snapshot_falls_back_one_generation(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.checkpoint()
        newest = store.generation
        store.close()
        with open(os.path.join(directory, f"snapshot-{newest}.json"), "w") as fh:
            fh.write("{ truncated")
        reopened = DurableStore.open(directory)
        assert reopened.generation == newest - 1
        reopened.close()

    def test_empty_directory_is_not_a_store(self, tmp_path):
        with pytest.raises(PersistError, match="not a data directory"):
            DurableStore.open(str(tmp_path))

    def test_wal_only_directory_cannot_recover(self, tmp_path):
        directory = str(tmp_path / "store")
        os.makedirs(directory)
        write_manifest(
            directory,
            {"format": migrations_mod.CURRENT_FORMAT, "generation": 1},
        )
        log = WriteAheadLog(os.path.join(directory, "wal-1.log"), "always")
        log.append(1, {"add": [["a", "x", "b", [1, 1]]], "remove": []})
        log.close()
        with pytest.raises(PersistError, match="WAL alone"):
            DurableStore.open(directory)

    def test_snapshot_only_directory_recovers_clean(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.close()
        os.remove(os.path.join(directory, f"wal-{store.generation}.log"))
        reopened = DurableStore.open(directory)
        assert reopened.version == 0 and reopened.recovery["replayed"] == 0
        reopened.close()

    def test_duplicate_tail_record_is_deduped(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.apply(Delta.of(add=[("a", "x", "c")]))
        store.close()
        # A crash between append and ack can leave the same record twice:
        # re-append version 1 verbatim behind the durable layer's back.
        wal_path = os.path.join(directory, f"wal-{store.generation}.log")
        records, _ = wal_mod.recover(wal_path)
        with open(wal_path, "ab") as handle:
            handle.write(wal_mod._frame(*records[-1]))
        reopened = DurableStore.open(directory)
        assert reopened.version == 1
        assert reopened.recovery["deduped"] == 1
        reopened.close()

    def test_broken_record_sequence_is_an_error(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.close()
        wal_path = os.path.join(directory, f"wal-{store.generation}.log")
        with open(wal_path, "ab") as handle:
            handle.write(
                wal_mod._frame(5, {"add": [["a", "q", "b", [1, 1]]], "remove": []})
            )
        with pytest.raises(PersistError, match="sequence is broken"):
            DurableStore.open(directory)

    def test_future_format_is_refused_without_partial_load(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.close()
        manifest = read_manifest(directory)
        manifest["format"] = migrations_mod.CURRENT_FORMAT + 1
        write_manifest(directory, manifest)
        with pytest.raises(PersistError, match="refusing to load"):
            DurableStore.open(directory)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_open_leaves_the_collector_as_it_found_it(self, tmp_path, enabled):
        good = str(tmp_path / "good")
        DurableStore.create(good, _base_graph()).close()
        future = str(tmp_path / "future")
        store = DurableStore.create(future, _base_graph())
        store.close()
        path = os.path.join(future, f"snapshot-{store.generation}.json")
        with open(path) as handle:
            snapshot = json.load(handle)
        snapshot["format"] = migrations_mod.CURRENT_FORMAT + 1
        with open(path, "w") as handle:
            json.dump(snapshot, handle)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            DurableStore.open(good).close()
            assert gc.isenabled() is enabled
            with pytest.raises(PersistError, match="newer than"):
                DurableStore.open(future)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_open_spans_split_read_decode_and_replay(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.apply(Delta.of(add=[("a", "x", "c")]))
        store.close()
        before = obs_metrics.STATE.enabled
        obs_metrics.enable()
        try:
            with obs.start_trace("t.restart") as root:
                DurableStore.open(directory).close()
        finally:
            obs_metrics.STATE.enabled = before
        (opened,) = root.children
        assert opened.name == "persist.open"
        snapshot, decode, replay = opened.children
        assert (snapshot.name, decode.name, replay.name) == (
            "persist.snapshot", "persist.decode", "persist.replay"
        )
        size = os.path.getsize(os.path.join(directory, f"snapshot-{store.generation}.json"))
        assert snapshot.tags == {"bytes": size}
        assert decode.tags == {"nodes": 3, "edges": 3}
        assert replay.tags == {"records": 1}

    def test_persist_status_fields(self, tmp_path):
        store = DurableStore.create(str(tmp_path / "store"), _base_graph())
        store.apply(Delta.of(add=[("a", "x", "c")]))
        status = store.persist_status()
        assert status["generation"] == store.generation
        assert status["format"] == migrations_mod.CURRENT_FORMAT
        assert status["fsync"] == "always"
        assert status["wal_records"] == 1 and status["wal_bytes"] > 0
        assert status["last_checkpoint_at"] is not None
        store.close()


def _parity_history(seed, directory):
    """A durable store with tuple, int and isolated nodes, intervals ``1``,
    ``[0;*]`` and ``[2;2]``, removals, a checkpoint and a WAL tail; closed as
    a crash would leave it."""
    rng = random.Random(seed)
    pool = [f"s{i}" for i in range(8)] + [("c", i, "x") for i in range(6)] + list(range(5))
    labels, occurs = ["a", "b", "c"], [None, "*", 2]

    def edge():
        return (rng.choice(pool), rng.choice(labels), rng.choice(pool), rng.choice(occurs))

    graph = Graph("parity")
    graph.add_nodes(["lonely", ("iso", 0), 99])
    for _ in range(40):
        graph.add_edge(*edge())
    store = DurableStore.create(directory, graph)

    def churn(steps):
        for _ in range(steps):
            doomed = rng.sample(store.graph.edges, 2)
            store.apply(Delta.of(
                add=[edge() for _ in range(rng.randint(1, 3))],
                remove=[(e.source, e.label, e.target, e.occur) for e in doomed],
            ))

    churn(3)
    store.checkpoint()
    churn(4)
    store.close()


def _reference_open(directory):
    """What :meth:`DurableStore.open` must build, one add_node/add_edge at a
    time."""
    generation = read_manifest(directory)["generation"]
    with open(os.path.join(directory, f"snapshot-{generation}.json")) as handle:
        snapshot = json.load(handle)
    decode = codec.decode_node
    graph = Graph(snapshot["name"])
    for node in snapshot["nodes"]:
        graph.add_node(decode(node))
    for source, label, target, (lower, upper) in snapshot["edges"]:
        graph.add_edge(decode(source), label, decode(target), Interval(lower, upper))
    store = GraphStore(graph, snapshot["name"], base_version=snapshot["version"])
    records, _ = wal_mod.recover(os.path.join(directory, f"wal-{generation}.log"))
    for _version, payload in records:
        store.apply(codec.decode_delta(payload))
    return store


def _layout(graph):
    return (
        list(graph.nodes),
        list(graph._edges.items()),
        [(node, list(ids)) for node, ids in graph._out.items()],
        [(node, list(ids)) for node, ids in graph._in.items()],
    )


class TestBulkReopenParity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_open_equals_the_add_edge_reference(self, tmp_path, seed):
        directory = str(tmp_path / "store")
        _parity_history(seed, directory)
        reference = _reference_open(directory)
        opened = DurableStore.open(directory)
        assert opened.recovery["replayed"] == 4
        assert opened.version == reference.version
        assert _layout(opened.graph) == _layout(reference.graph)
        assert opened.fingerprint() == reference.fingerprint()
        edges = opened.graph.edges
        assert {(e.occur.lower, e.occur.upper) for e in edges} >= {(0, None), (2, 2), (1, 1)}
        assert len({id(e.occur) for e in edges}) <= len({e.occur for e in edges})
        opened.close()


class TestMigrations:
    def _format1_layout(self, directory: str) -> None:
        """A hand-written format-1 directory (no typing snapshots)."""
        os.makedirs(directory)
        snapshot = {
            "format": 1,
            "name": "legacy",
            "version": 0,
            "base": 0,
            "created_at": 0.0,
            "nodes": ["a", "b"],
            "edges": [["a", "x", "b", [1, 1]]],
            "log": [],
            "partition": None,
        }
        with open(os.path.join(directory, "snapshot-1.json"), "w") as handle:
            json.dump(snapshot, handle)
        with open(os.path.join(directory, "wal-1.log"), "wb") as handle:
            handle.write(wal_mod.MAGIC)
        write_manifest(directory, {"format": 1, "name": "legacy", "generation": 1})

    def test_format1_migrates_to_current(self, tmp_path):
        directory = str(tmp_path / "legacy")
        self._format1_layout(directory)
        store = DurableStore.open(directory)
        assert store.graph.edge_count == 1
        assert store.restored_typings == []
        assert read_manifest(directory)["format"] == migrations_mod.CURRENT_FORMAT
        store.close()

    def test_pending_refuses_future_format(self):
        with pytest.raises(PersistError, match="refusing to load"):
            migrations_mod.pending(migrations_mod.CURRENT_FORMAT + 1)

    def test_chain_is_ordered_and_complete(self):
        migrations_mod.check_ordering()
        targets = [mod.TO_FORMAT for mod in migrations_mod.pending(0)]
        assert targets == list(range(1, migrations_mod.CURRENT_FORMAT + 1))


class TestFaultInjection:
    def test_persist_io_fault_leaves_store_consistent(self, tmp_path):
        store = DurableStore.create(str(tmp_path / "store"), _base_graph())
        faults.install("persist.io=1.0", seed=7)
        try:
            with pytest.raises(faults.InjectedFault):
                store.apply(Delta.of(add=[("a", "x", "c")]))
        finally:
            faults.uninstall()
        # The failed append must not have advanced the store.
        assert store.version == 0
        store.apply(Delta.of(add=[("a", "x", "c")]))
        assert store.version == 1
        store.close()

    def test_torn_write_fault_self_heals(self, tmp_path):
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        faults.install("persist.torn_write=1.0", seed=7)
        try:
            with pytest.raises(faults.InjectedFault):
                store.apply(Delta.of(add=[("a", "x", "c")]))
        finally:
            faults.uninstall()
        assert store.version == 0
        # The partial frame on disk is truncated away by the next append...
        store.apply(Delta.of(add=[("a", "x", "c")]))
        store.close()
        # ...so recovery sees one clean record and no surviving damage.
        reopened = DurableStore.open(directory)
        assert reopened.version == 1
        assert reopened.recovery["replayed"] == 1
        reopened.close()
