"""Unit tests for the persist package: codec, WAL, durable stores, migrations."""

from __future__ import annotations

import gc
import json
import os
import random

import pytest

from repro import faults, obs
from repro.core.intervals import Interval
from repro.engine.compiled import FINGERPRINT_BUCKETS, FINGERPRINT_SCHEME, graph_fingerprint
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


def _decode_graph(snapshot):
    """The edges a snapshot's columnar tables decode to."""
    graph = codec.decode_graph(snapshot, codec.decode_nodes(snapshot["nodes"]))
    return [(e.source, e.label, e.target, e.occur) for e in graph.edges]


def _graph_tables(**changes):
    """One well-formed columnar graph (``a -x-> b``), with ``changes``."""
    tables = {"nodes": ["a", "b"], "labels": ["x"], "occurs": [[1, 1]], "edges": [0, 0, 1, 0]}
    tables.update(changes)
    return tables


def _decode_typing_of_one_node(entry):
    return codec.decode_typing(entry, ["n"])


def _decode_buckets(section):
    return codec.decode_fingerprint(section, ["a", "b"], FINGERPRINT_SCHEME, FINGERPRINT_BUCKETS)


def _buckets(**changes):
    """A well-formed fingerprint section for the node table ``["a", "b"]``."""
    section = {
        "scheme": FINGERPRINT_SCHEME,
        "digests": ["00" * 32] * FINGERPRINT_BUCKETS,
        "offsets": [0] + [2] * FINGERPRINT_BUCKETS,
    }
    section.update(changes)
    return section


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
        typing = codec.decode_typing(
            {"typesets": [[], ["T", "U"]], "typeset_of": [1, 1, 0, -1]}, ["a", "b", 1, "c"]
        )
        assert typing.types_of("a") is typing.types_of("b")
        assert typing.types_of(1) == frozenset()
        assert typing.lists(1) and not typing.lists("c")

    def test_decoded_typing_adopts_its_dict(self, monkeypatch):
        # decode_typing hands the dict it builds to Typing.frozen: no
        # second per-node copy through Typing(...).
        from repro.schema.typing import Typing

        nodes = ["a", "b", ("t", 1), "c", "d"]
        index = {node: position for position, node in enumerate(nodes)}
        typing = Typing({"a": {"T", "U"}, "b": {"U", "T"}, ("t", 1): set(), "d": {"T"}})
        entry = json.loads(json.dumps(codec.encode_typing(typing, index)))

        def no_copy(self, assignments):
            raise AssertionError("decode_typing copied its dict through Typing()")

        monkeypatch.setattr(Typing, "__init__", no_copy)
        decoded = codec.decode_typing(entry, nodes)
        monkeypatch.undo()
        assert decoded == typing
        assert decoded.types_of("a") is decoded.types_of("b")
        assert decoded.types_of("d") == frozenset({"T"})
        assert decoded.lists(("t", 1)) and not decoded.lists("c")

    def test_graph_tables_round_trip(self):
        # Tuple, int, None and isolated nodes; string, number, null and bool
        # labels (1 and True stay apart); [2;*], [0;*] and [3;3] intervals.
        graph = Graph("t")
        graph.add_node(("iso", 0))
        for source, label, target, occur in [
            (("c", 1, "x"), "a", 7, "*"),
            (7, 5, None, (2, None)),
            (None, None, ("c", 1, "x"), (3, 3)),
            ("s", 1, 7, None),
            ("s", True, 7, None),
            ("s", 1.5, "s", (2, None)),
            ("s", "a", 7, None),
            ("s", "a", 7, None),
        ]:
            graph.add_edge(source, label, target, occur)
        nodes = sorted(graph.nodes, key=repr)
        index = {node: position for position, node in enumerate(nodes)}
        tables = json.loads(json.dumps(codec.encode_graph(graph, nodes, index)))
        tables["nodes"] = [codec.encode_node(node) for node in nodes]
        decoded = _decode_graph(tables)

        def content(edges):
            return sorted(
                repr((s, type(a).__name__, a, t, o.lower, o.upper)) for s, a, t, o in edges
            )

        assert content(decoded) == content(
            (e.source, e.label, e.target, e.occur) for e in graph.edges
        )
        assert {type(a) for _s, a, _t, _o in decoded} == {str, int, float, bool, type(None)}
        assert len(tables["labels"]) == 6 and len(tables["occurs"]) == 4

    def test_typing_column_round_trip_and_missing_node(self):
        from repro.schema.typing import Typing

        nodes = ["a", ("t", 1), 3, None]
        index = {node: position for position, node in enumerate(nodes)}
        typing = Typing({"a": {"T", "U"}, ("t", 1): set(), None: {"U", "T"}})
        entry = json.loads(json.dumps(codec.encode_typing(typing, index)))
        assert entry == {"typesets": [[], ["T", "U"]], "typeset_of": [1, 0, -1, 1]}
        assert codec.decode_typing(entry, nodes) == typing
        with pytest.raises(PersistError, match="not in the snapshot's node table"):
            codec.encode_typing(Typing({"gone": {"T"}}), index)

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
            (_decode_typing_of_one_node, {"typesets": ["Bug"], "typeset_of": [0]}),
            (_decode_typing_of_one_node, {"typesets": [[1]], "typeset_of": [0]}),
            (_decode_typing_of_one_node, {"typesets": [[["T"]]], "typeset_of": [0]}),
            (_decode_typing_of_one_node, {"typesets": "T", "typeset_of": [0]}),
            (_decode_typing_of_one_node, {"typesets": [["T"]]}),
            (_decode_typing_of_one_node, {"typesets": [["T"]], "typeset_of": [0, 0]}),
            (_decode_typing_of_one_node, {"typesets": [["T"]], "typeset_of": []}),
            (_decode_typing_of_one_node, {"typesets": [["T"]], "typeset_of": [1]}),
            (_decode_typing_of_one_node, {"typesets": [["T"]], "typeset_of": [-2]}),
            (_decode_typing_of_one_node, {"typesets": [["T"]], "typeset_of": [True]}),
            (_decode_typing_of_one_node, {"typesets": [["T"]], "typeset_of": [0.0]}),
            (_decode_graph, _graph_tables(nodes={"a": 1})),
            (_decode_graph, _graph_tables(nodes=["a", {"i": "b"}])),
            (_decode_graph, _graph_tables(labels=[["x"]])),
            (_decode_graph, _graph_tables(labels="x")),
            (_decode_graph, _graph_tables(occurs=[[2, 1]])),
            (_decode_graph, _graph_tables(occurs=[[1, True]])),
            (_decode_graph, _graph_tables(edges=[2, 0, 1, 0])),
            (_decode_graph, _graph_tables(edges=[0, 0, -1, 0])),
            (_decode_graph, _graph_tables(edges=[0, 1, 1, 0])),
            (_decode_graph, _graph_tables(edges=[0, 0, 1, 1])),
            (_decode_graph, _graph_tables(edges=[0, 0, True, 0])),
            (_decode_graph, _graph_tables(edges=[0, False, 1, 0])),
            (_decode_graph, _graph_tables(edges=[0, 0, 1.0, 0])),
            (_decode_graph, _graph_tables(edges=[0, 0, 1])),
            (_decode_graph, _graph_tables(edges="abcd")),
            (_decode_buckets, _buckets(digests=["00" * 32] * (FINGERPRINT_BUCKETS - 1))),
            (_decode_buckets, _buckets(digests=["00" * 32] * (FINGERPRINT_BUCKETS + 1))),
            (_decode_buckets, _buckets(digests=["zz" * 32] * FINGERPRINT_BUCKETS)),
            (_decode_buckets, _buckets(digests=["00" * 31] * FINGERPRINT_BUCKETS)),
            (_decode_buckets, _buckets(digests=[0] * FINGERPRINT_BUCKETS)),
            (_decode_buckets, _buckets(offsets=[0] * FINGERPRINT_BUCKETS)),
            (_decode_buckets, _buckets(offsets=[0] + [3] * FINGERPRINT_BUCKETS)),
            (_decode_buckets, _buckets(offsets=[0, 2, 1] + [2] * (FINGERPRINT_BUCKETS - 2))),
            (_decode_buckets, _buckets(offsets=[False] + [2] * FINGERPRINT_BUCKETS)),
            (_decode_buckets, ["not", "a", "section"]),
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
        # Format-2 snapshots could store a kind-level typing and its
        # partition epoch next to each node typing; m0003 drops them.
        from repro.engine.validation import ValidationEngine
        from repro.schema.parser import parse_schema

        schema = parse_schema("T -> x :: T?, y :: T?, z :: T?")
        with ValidationEngine() as engine:
            mirror = GraphStore(_base_graph())
            engine.revalidate(mirror, schema)
            (typing_entry,) = engine.export_typings(mirror)
        snapshot = _format2_snapshot(mirror.graph, "t", typings=[typing_entry])
        (entry,) = snapshot["typings"]
        entry["kind_typing"] = entry["typing"]
        entry["epoch"] = 0
        directory = str(tmp_path / "store")
        _write_format2(directory, snapshot)

        reopened = DurableStore.open(directory)
        (restored,) = reopened.restored_typings
        assert restored["typing"] == typing_entry["typing"]
        assert (restored["kind_typing"], restored["epoch"]) == (None, -1)
        with open(os.path.join(directory, "snapshot-1.json")) as handle:
            (migrated,) = json.load(handle)["typings"]
        assert "kind_typing" not in migrated and "epoch" not in migrated
        with ValidationEngine() as engine:
            engine.seed_typing(
                reopened, schema, restored["typing"], restored["version"],
                compressed=restored["compressed"],
                kind_typing=restored["kind_typing"], epoch=restored["epoch"],
            )
            assert engine.revalidate(reopened, schema).mode == "unchanged"
        reopened.close()

    def test_snapshot_with_a_persisted_partition_still_opens(self, tmp_path):
        # Format-1 and -2 snapshots could carry the store's kind partition
        # (``kind_of`` and its ``epoch``); m0003 drops the section, and no
        # typing reads a partition.
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
        with ValidationEngine(cache_size=0) as engine:
            mirror = GraphStore(clones)
            assert engine.revalidate(mirror, schema).mode == "full"
            (typing_entry,) = engine.export_typings(mirror)
        snapshot = _format2_snapshot(clones, "clones", typings=[typing_entry])
        # Every node in one kind: a typing that read this would be wrong.
        snapshot["partition"] = {
            "kind_of": sorted(([node, 0] for node in snapshot["nodes"]), key=repr),
            "epoch": 3,
        }
        prefix = "http://example.org/bugs#"
        directory = str(tmp_path / "store")
        _write_format2(directory, snapshot, wal=[
            Delta.of(remove=[((3, f"{prefix}bug3"), "descr", (3, "literal:Kabang!||"))]),
        ])

        reopened = DurableStore.open(directory)
        assert reopened.recovery["replayed"] == 1
        with open(os.path.join(directory, "snapshot-1.json")) as handle:
            assert "partition" not in json.load(handle)
        oracle = maximal_typing_reference(reopened.graph, schema)
        assert oracle.untyped()  # the removed descr leaves bug3 of copy 3 untyped
        _verdict, expected = _payload_from_typing(reopened.graph, oracle, False)
        with ValidationEngine(cache_size=0) as engine:
            outcome = engine.revalidate(reopened, schema)
            assert outcome.mode == "full"
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
        assert decode.tags == {
            "nodes": 3, "edges": 3, "format": 3, "fingerprint": "restored",
        }
        assert replay.tags == {"records": 1}

    def test_checkpoint_spans_split_encode_and_write(self, tmp_path):
        from repro.schema.typing import Typing

        store = DurableStore.create(str(tmp_path / "store"), _base_graph())
        store.apply(Delta.of(add=[("a", "x", "c")]))
        entry = {"schema": "s", "compressed": False, "version": store.version,
                 "typing": Typing({"a": {"T"}, "b": set()})}
        before = obs_metrics.STATE.enabled
        obs_metrics.enable()
        try:
            with obs.start_trace("t.checkpoint") as root:
                store.checkpoint([entry])
        finally:
            obs_metrics.STATE.enabled = before
        (checkpoint,) = root.children
        assert checkpoint.name == "persist.checkpoint"
        encode, write = checkpoint.children
        assert (encode.name, write.name) == ("persist.encode", "persist.write")
        assert encode.tags == {"nodes": 3, "edges": 4, "typings": 1}
        size = os.path.getsize(_snapshot_path(store.directory))
        assert write.tags == {"bytes": size}
        store.close()

    def test_snapshot_is_one_canonical_dumps(self, tmp_path):
        # The file is exactly json.dumps(payload, sort_keys, compact) plus a
        # newline: what the streaming json.dump wrote before, byte for byte.
        store = DurableStore.create(str(tmp_path / "store"), _base_graph())
        store.apply(Delta.of(add=[("a", "x", ("t", 1.5, None, True))]))
        store.checkpoint()
        with open(_snapshot_path(store.directory), "rb") as handle:
            data = handle.read()
        payload = json.loads(data)
        assert data == (
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        store.close()

    def test_write_json_atomic_matches_the_streaming_encoder(self, tmp_path):
        import io

        from repro.persist import write_json_atomic

        payload = {"z": [1, 2.5, None, True], "a": {"é": "ü\u2028\n", "k": 1e300},
                   "m": [{"b": 1, "a": [[], {}]}], "n": -0.0}
        stream = io.StringIO()
        json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
        path = str(tmp_path / "out.json")
        size = write_json_atomic(path, payload)
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == (stream.getvalue() + "\n").encode("utf-8")
        assert size == len(data)
        assert not os.path.exists(path + ".tmp")

    def test_checkpoint_builds_and_writes_with_the_collector_paused(self, tmp_path, monkeypatch):
        from repro.persist import store as store_mod

        store = DurableStore.create(str(tmp_path / "store"), _base_graph())
        seen = []
        build, write = DurableStore._snapshot_payload, store_mod.write_json_atomic

        def spy_build(self, typings):
            seen.append(("build", gc.isenabled()))
            return build(self, typings)

        def spy_write(path, payload):
            seen.append(("write", gc.isenabled()))
            return write(path, payload)

        monkeypatch.setattr(DurableStore, "_snapshot_payload", spy_build)
        monkeypatch.setattr(store_mod, "write_json_atomic", spy_write)
        assert gc.isenabled()
        store.checkpoint()
        assert seen[:2] == [("build", False), ("write", False)]
        assert gc.isenabled()
        store.close()

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


def _format2_snapshot(graph, name, version=0, typings=()):
    """A format-2 snapshot of ``graph``: every edge with its endpoints
    encoded in place, every typing a sorted ``[[node, [types]], ...]`` list."""
    encode = codec.encode_node
    return {
        "format": 2,
        "name": name,
        "version": version,
        "base": version,
        "created_at": 0.0,
        "nodes": sorted((encode(node) for node in graph.nodes), key=repr),
        "edges": sorted(
            (
                [encode(e.source), e.label, encode(e.target), codec.encode_occur(e.occur)]
                for e in graph.edges
            ),
            key=repr,
        ),
        "log": [],
        "typings": [
            {
                "schema": entry["schema"],
                "compressed": entry["compressed"],
                "version": entry["version"],
                "typing": sorted(
                    ([encode(node), sorted(types)] for node, types in entry["typing"].items()),
                    key=repr,
                ),
            }
            for entry in typings
        ],
    }


def _write_format2(directory, snapshot, wal=()):
    """A format-2 data directory at generation 1: ``snapshot`` and a WAL
    holding ``wal``'s deltas."""
    os.makedirs(directory)
    with open(os.path.join(directory, "snapshot-1.json"), "w") as handle:
        json.dump(snapshot, handle)
    log = WriteAheadLog(os.path.join(directory, "wal-1.log"), "always")
    for version, delta in enumerate(wal, start=snapshot["version"] + 1):
        log.append(version, codec.encode_delta(delta))
    log.close()
    write_manifest(directory, {"format": 2, "name": snapshot["name"], "generation": 1})


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
    nodes = [codec.decode_node(node) for node in snapshot["nodes"]]
    graph = Graph(snapshot["name"])
    for node in nodes:
        graph.add_node(node)
    flat = snapshot["edges"]
    for row in range(0, len(flat), 4):
        source, label, target, occur = flat[row:row + 4]
        lower, upper = snapshot["occurs"][occur]
        graph.add_edge(
            nodes[source], snapshot["labels"][label], nodes[target], Interval(lower, upper)
        )
    store = GraphStore(graph, snapshot["name"], base_version=snapshot["version"])
    records, _ = wal_mod.recover(os.path.join(directory, f"wal-{generation}.log"))
    for _version, payload in records:
        store.apply(codec.decode_delta(payload))
    return store


def _layout(graph):
    """Node order, edges by id, and each node's out- and in-edge ids in
    adjacency order, through the public API."""
    return (
        list(graph.nodes),
        graph.edges,
        [(node, [e.edge_id for e in graph.out_edges(node)]) for node in graph.nodes],
        [(node, [e.edge_id for e in graph.in_edges(node)]) for node in graph.nodes],
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


def _clone_tables(copies):
    """The decoded snapshot tables of a ×``copies`` bug-tracker clone (one
    shared literal marker node) and its node table."""
    from repro.workloads.bugtracker import bug_tracker_graph

    base = bug_tracker_graph()

    def node(copy, name):
        return name if name == "__literal__" else f"c{copy}:{name}"

    graph = Graph.from_edges(
        (node(copy, e.source), e.label, node(copy, e.target), e.occur)
        for copy in range(copies)
        for e in base.edges
    )
    nodes = sorted(graph.nodes, key=repr)
    index = {name: position for position, name in enumerate(nodes)}
    tables = codec.encode_graph(graph, nodes, index)
    tables["nodes"] = [codec.encode_node(name) for name in nodes]
    tables = json.loads(json.dumps(tables))
    return tables, codec.decode_nodes(tables["nodes"])


def _kept(build):
    """``(result, bytes)``: what ``build()`` returns and the traced memory it
    still holds when it returns."""
    import tracemalloc

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestDecodeMemory:
    def test_clone_graph_build_allocates_at_most_4_mib(self):
        # The columns hold node ids, labels and shared intervals; no Edge
        # and no per-node dict is built, rows are tuples and the node rows
        # and edge ids are one set of int objects.  The dict-per-node
        # layout kept 12.5 MiB here, list rows with two sets of ints 4.8.
        tables, nodes = _clone_tables(1000)
        assert (len(nodes), len(tables["edges"]) // 4) == (16_001, 26_000)
        graph, kept = _kept(lambda: codec.decode_graph(tables, nodes))
        assert graph.edge_count == 26_000
        assert kept <= 4 * 2**20, f"the build kept {kept / 2**20:.2f} MiB"

    def test_clone_restored_fingerprint_members_keep_at_most_0_4_mib(self):
        # Each bucket's members are the tuple of its run of the node table;
        # one set per bucket kept 1.0 MiB here.
        tables, nodes = _clone_tables(1000)
        store = GraphStore(codec.decode_graph(tables, nodes))
        members, digests = store.fingerprint_buckets()
        table, _, offsets = codec.bucket_table(members, FINGERPRINT_BUCKETS)
        section = codec.encode_fingerprint(FINGERPRINT_SCHEME, digests, offsets)
        (restored, _), kept = _kept(lambda: codec.decode_fingerprint(
            section, table, FINGERPRINT_SCHEME, FINGERPRINT_BUCKETS
        ))
        assert sum(map(len, restored.values())) == 16_001
        assert kept <= 0.4 * 2**20, f"the members kept {kept / 2**20:.2f} MiB"


def _first_fingerprint_span(store):
    """The ``graph.fingerprint`` span of ``store``'s next fingerprint."""
    before = obs_metrics.STATE.enabled
    obs_metrics.enable()
    try:
        with obs.start_trace("t.fingerprint") as root:
            value = store.fingerprint()
    finally:
        obs_metrics.STATE.enabled = before
    (span,) = root.children
    assert span.name == "graph.fingerprint"
    return value, span


def _snapshot_path(directory):
    generation = read_manifest(directory)["generation"]
    return os.path.join(directory, f"snapshot-{generation}.json")


class TestPersistedFingerprint:
    def _store_with_tail(self, directory):
        """A checkpointed store plus a two-record WAL tail; the nodes the
        tail touched."""
        graph = _base_graph()
        graph.add_edge(("t", 1), 5, None, (2, None))
        store = DurableStore.create(directory, graph, name="t")
        tail = [
            Delta.of(add=[("a", "x", ("fresh", 0))], remove=[("b", "y", "c")]),
            Delta.of(add=[(None, "w", 7, "*")]),
        ]
        for delta in tail:
            store.apply(delta)
        store.close()
        touched = set().union(*(delta.touched_nodes() for delta in tail))
        return touched

    def test_first_fingerprint_after_open_rehashes_only_the_wal_buckets(self, tmp_path):
        from repro.engine.compiled import fingerprint_bucket

        directory = str(tmp_path / "store")
        touched = self._store_with_tail(directory)
        reopened = DurableStore.open(directory)
        value, span = _first_fingerprint_span(reopened)
        assert value == graph_fingerprint(reopened.graph)
        dirty = {fingerprint_bucket(repr(node)) for node in touched}
        assert span.tags == {"mode": "incremental", "buckets": len(dirty)}
        reopened.close()

    @pytest.mark.parametrize("section", [None, "foreign"])
    def test_an_absent_or_foreign_section_hashes_in_full(self, tmp_path, section):
        directory = str(tmp_path / "store")
        self._store_with_tail(directory)
        path = _snapshot_path(directory)
        with open(path) as handle:
            snapshot = json.load(handle)
        if section is None:
            del snapshot["fingerprint"]
        else:
            snapshot["fingerprint"]["scheme"] = "graph-buckets\x00512\x00"
            snapshot["fingerprint"]["digests"] = ["00"]  # not read: not this scheme
        with open(path, "w") as handle:
            json.dump(snapshot, handle)
        before = obs_metrics.STATE.enabled
        obs_metrics.enable()
        try:
            with obs.start_trace("t.restart") as root:
                reopened = DurableStore.open(directory)
        finally:
            obs_metrics.STATE.enabled = before
        (opened,) = root.children
        assert opened.children[1].tags["fingerprint"] == "absent"
        value, span = _first_fingerprint_span(reopened)
        assert value == graph_fingerprint(reopened.graph)
        assert span.tags["mode"] == "full"
        reopened.close()

    def test_deltas_after_a_restore_keep_the_fingerprint_exact(self, tmp_path):
        from repro.engine.compiled import fingerprint_bucket

        def bucket(node):
            return fingerprint_bucket(repr(node))

        graph = Graph("g")
        for index in range(400):
            graph.add_edge(f"n{index}", "next", f"n{(index + 1) % 400}")
        directory = str(tmp_path / "store")
        DurableStore.create(directory, graph, name="g").close()
        store = DurableStore.open(directory)
        restored = dict(store._fp_members)
        assert all(type(group) is tuple for group in restored.values())
        names = [f"new{index}" for index in range(200)]
        joining = [name for name in names if bucket(name) in restored][:3]
        fresh = next(name for name in names if bucket(name) not in restored)
        deltas = [
            # New nodes in restored buckets, then in an empty one.
            Delta.of(add=[("n0", "item", joining[0]), (joining[1], "next", "n5")]),
            Delta.of(add=[(fresh, "next", joining[2])], remove=[("n3", "next", "n4")]),
            Delta.of(remove=[("n10", "next", "n11"), ("n0", "item", joining[0])]),
            # Only nodes the store has: no bucket gains a member.
            Delta.of(add=[("n7", "back", "n6")]),
        ]
        for delta in deltas:
            store.apply(delta)
        value, span = _first_fingerprint_span(store)
        assert value == graph_fingerprint(store.graph)
        assert span.tags["mode"] == "incremental"
        grown = {bucket(node) for node in joining + [fresh]}
        members = store._fp_members
        for key, group in members.items():
            if key in grown:
                assert type(group) is set
            else:
                assert group is restored[key]
        store.checkpoint()
        with open(_snapshot_path(directory)) as handle:
            section = json.load(handle)["fingerprint"]
        store.close()

        expected = str(tmp_path / "expected")
        DurableStore.create(expected, store.graph.copy(), name="g").close()
        with open(_snapshot_path(expected)) as handle:
            assert json.load(handle)["fingerprint"] == section
        reopened = DurableStore.open(directory)
        value_again, span = _first_fingerprint_span(reopened)
        assert value_again == value and span.tags["mode"] == "incremental"
        reopened.checkpoint()
        with open(_snapshot_path(directory)) as handle:
            assert json.load(handle)["fingerprint"] == section
        reopened.close()

    def test_equal_states_write_byte_identical_snapshots(self, tmp_path, monkeypatch):
        from repro.persist import store as store_mod
        from repro.schema.typing import Typing

        monkeypatch.setattr(store_mod.time, "time", lambda: 1.0)
        edges = [(("t", 2), 5, None, (2, None)), ("a", None, 3, None), ("b", "x", "a", "*")]
        paths = []
        for name, order in (("one", edges), ("two", edges[::-1])):
            store = DurableStore.create(str(tmp_path / name), Graph("g"), name="g")
            store.apply(Delta.of(add=order[:1]))
            store.apply(Delta.of(add=order[1:]))
            nodes = sorted(store.graph.nodes, key=repr, reverse=name == "two")
            typing = Typing({node: {"T", "U"} if node == "a" else set() for node in nodes})
            store.checkpoint([{"schema": "s", "compressed": False, "version": 2, "typing": typing}])
            store.close()
            paths.append(_snapshot_path(str(tmp_path / name)))
        blobs = [open(path, "rb").read() for path in paths]
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["format"] == 3


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

    def test_migrations_write_through_the_atomic_writer(self, tmp_path, monkeypatch):
        # m0002 and m0003 each rewrite the snapshot; each rewrite fsyncs the
        # directory after its rename and leaves the canonical encoding.
        from repro.persist import atomic

        directory = str(tmp_path / "legacy")
        self._format1_layout(directory)
        synced = []
        fsync_dir = atomic.fsync_dir
        monkeypatch.setattr(atomic, "fsync_dir", lambda path: (synced.append(path), fsync_dir(path)))
        migrations_mod.migrate(directory, read_manifest(directory), write_manifest)
        # Per migration: the snapshot, then the manifest.
        assert synced == [directory] * 4
        with open(os.path.join(directory, "snapshot-1.json"), "rb") as handle:
            data = handle.read()
        payload = json.loads(data)
        assert payload["format"] == 3 and payload["typings"] == []
        assert data == (
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    def test_torn_format1_snapshot_falls_back_one_generation(self, tmp_path):
        # m0002 reads every snapshot; a truncated newest one is skipped, not
        # raised as a JSONDecodeError, and the open falls back to the last
        # readable generation.
        directory = str(tmp_path / "legacy")
        self._format1_layout(directory)
        with open(os.path.join(directory, "snapshot-2.json"), "w") as handle:
            handle.write('{"format": 1, "nodes": ["a", ')
        with open(os.path.join(directory, "wal-2.log"), "wb") as handle:
            handle.write(wal_mod.MAGIC)
        write_manifest(directory, {"format": 1, "name": "legacy", "generation": 2})
        store = DurableStore.open(directory)
        assert store.generation == 1 and store.graph.edge_count == 1
        assert read_manifest(directory)["format"] == migrations_mod.CURRENT_FORMAT
        store.close()

    def test_format2_store_migrates_to_columnar_snapshots(self, tmp_path):
        # Tuple, int and None ids, non-string labels, an unbounded interval
        # and a typing: m0003 rewrites the snapshot, the open reads it back.
        from repro.schema.typing import Typing

        graph = Graph("old")
        graph.add_node(("iso", 1))
        graph.add_edge(("c", 0), 5, 7, (2, None))
        graph.add_edge(7, None, None, "*")
        graph.add_edge(None, "x", ("c", 0))
        typing = Typing({node: {"T"} if node == 7 else set() for node in graph.nodes})
        entry = {"schema": "s", "compressed": True, "version": 0, "typing": typing}
        directory = str(tmp_path / "old")
        _write_format2(directory, _format2_snapshot(graph, "old", typings=[entry]),
                       wal=[Delta.of(add=[(7, 1.5, "new")])])
        store = DurableStore.open(directory)
        assert read_manifest(directory)["format"] == migrations_mod.CURRENT_FORMAT
        graph.add_edge(7, 1.5, "new")
        assert sorted(map(repr, store.graph.nodes)) == sorted(map(repr, graph.nodes))
        assert sorted(repr(tuple(e)[1:]) for e in store.graph.edges) == sorted(
            repr(tuple(e)[1:]) for e in graph.edges
        )
        (restored,) = store.restored_typings
        assert (restored["typing"], restored["compressed"]) == (typing, True)
        assert store.fingerprint() == graph_fingerprint(graph)
        store.close()

    def test_interrupted_migration_resumes(self, tmp_path):
        # A crash after m0003 rewrote the snapshots but before the manifest
        # said so: the rerun skips format-3 snapshots and keeps their buckets.
        directory = str(tmp_path / "store")
        store = DurableStore.create(directory, _base_graph())
        store.apply(Delta.of(add=[("a", "x", "c")]))
        store.close()
        manifest = read_manifest(directory)
        manifest["format"] = 2
        write_manifest(directory, manifest)
        before = open(_snapshot_path(directory), "rb").read()
        reopened = DurableStore.open(directory)
        assert open(_snapshot_path(directory), "rb").read() == before
        assert read_manifest(directory)["format"] == 3
        value, span = _first_fingerprint_span(reopened)
        assert span.tags["mode"] == "incremental"
        assert value == graph_fingerprint(reopened.graph)
        reopened.close()

    def test_torn_format2_snapshot_falls_back_one_generation(self, tmp_path):
        directory = str(tmp_path / "store")
        _write_format2(directory, _format2_snapshot(_base_graph(), "t"))
        with open(os.path.join(directory, "snapshot-2.json"), "w") as handle:
            handle.write('{"format": 2, "nodes": [')
        manifest = read_manifest(directory)
        manifest["generation"] = 2
        write_manifest(directory, manifest)
        store = DurableStore.open(directory)
        assert store.generation == 1 and store.graph.edge_count == 3
        store.close()

    def test_format2_typing_of_an_unknown_node_is_refused(self, tmp_path):
        from repro.schema.typing import Typing

        entry = {"schema": "s", "compressed": False, "version": 0,
                 "typing": Typing({"ghost": {"T"}})}
        directory = str(tmp_path / "store")
        _write_format2(directory, _format2_snapshot(_base_graph(), "t", typings=[entry]))
        with pytest.raises(PersistError, match="not in the graph"):
            DurableStore.open(directory)

    def test_format4_directory_is_refused_untouched(self, tmp_path):
        directory = str(tmp_path / "store")
        _write_format2(directory, _format2_snapshot(_base_graph(), "t"))
        manifest = read_manifest(directory)
        manifest["format"] = 4
        write_manifest(directory, manifest)
        files = {name: open(os.path.join(directory, name), "rb").read()
                 for name in os.listdir(directory)}
        with pytest.raises(PersistError, match="refusing to load"):
            DurableStore.open(directory)
        assert {name: open(os.path.join(directory, name), "rb").read()
                for name in os.listdir(directory)} == files

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
