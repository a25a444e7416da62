"""Crash-recovery properties of the durable store, against a mirror oracle.

A :class:`repro.persist.DurableStore` is driven through seeded random delta
sequences with checkpoints interleaved, while a plain in-memory
:class:`~repro.graphs.store.GraphStore` mirror records the exact edge set at
every version.  Then the "crash" happens: the WAL is truncated at an
arbitrary byte offset (any torn tail a real crash could leave).  The property
is that :meth:`DurableStore.open` always recovers *exactly* the mirror's
state at some version ``v`` with ``checkpoint_version <= v <= head`` — the
longest clean WAL prefix — never an error, never a partial record, never a
state the store was not in at some point.

A second suite checks that the recovered store revalidates like the
full-rescan oracle, and a third that a reopen restores what the columnar
snapshot and its persisted fingerprint buckets describe: the graph, every
exported typing and the fingerprint, rehashing only the buckets the WAL
tail touched.
"""

from __future__ import annotations

import os
import random
from typing import Dict, FrozenSet, Tuple

import pytest

from repro import obs
from repro.engine.compiled import fingerprint_bucket, graph_fingerprint
from repro.engine.validation import ValidationEngine, _payload_from_typing
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.obs import metrics as obs_metrics
from repro.persist import DurableStore
from repro.persist import wal as wal_mod
from repro.schema.reference import maximal_typing_reference
from repro.schema.typing import Typing
from repro.workloads.bugtracker import bug_tracker_schema

SEEDS = [3, 11, 29, 47, 61]
STEPS = 10
LABELS = ("descr", "reportedBy", "related", "name")


def _seed_graph(rng: random.Random) -> Graph:
    graph = Graph("crash")
    names = [f"n{i}" for i in range(8)]
    graph.add_nodes(names)
    for _ in range(12):
        graph.add_edge(rng.choice(names), rng.choice(LABELS), rng.choice(names))
    return graph


def _random_delta(rng: random.Random, graph: Graph) -> Delta:
    add, remove = [], []
    names = sorted(graph.nodes, key=repr)
    for _ in range(rng.randint(1, 3)):
        if graph.edge_count and rng.random() < 0.4:
            edge = rng.choice(sorted(graph.edges, key=lambda e: e.edge_id))
            candidate = (edge.source, edge.label, edge.target)
            if candidate not in remove:
                remove.append(candidate)
        else:
            source = rng.choice(names)
            target = (
                f"fresh{rng.randint(0, 10 ** 6)}"
                if rng.random() < 0.3
                else rng.choice(names)
            )
            label = rng.choice(LABELS)
            if target not in graph.successors(source, label) and (
                source, label, target
            ) not in add:
                add.append((source, label, target))
    return Delta.of(add=add, remove=remove)


def _edge_set(graph: Graph) -> FrozenSet[Tuple]:
    return frozenset(
        (edge.source, edge.label, edge.target, edge.occur)
        for node in graph.nodes
        for edge in graph.out_edges(node)
    )


def _drive(seed: int, directory: str):
    """Build a durable store with random history; return (store, states).

    ``states[v]`` is the mirror's exact edge set at version ``v``;
    checkpoints are cut at random steps so the WAL tail length varies.
    """
    rng = random.Random(seed)
    graph = _seed_graph(rng)
    store = DurableStore.create(directory, graph.copy(name="crash"), name="crash")
    mirror = GraphStore(graph.copy(name="mirror"))
    states: Dict[int, FrozenSet[Tuple]] = {0: _edge_set(mirror.graph)}
    for _ in range(STEPS):
        delta = _random_delta(rng, mirror.graph)
        if delta.is_empty:
            continue
        store.apply(delta)
        mirror.apply(delta)
        states[mirror.version] = _edge_set(mirror.graph)
        if rng.random() < 0.25:
            store.checkpoint()
    return store, states


class TestCrashRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_any_wal_truncation_recovers_a_real_version(self, seed, tmp_path):
        directory = str(tmp_path / "store")
        store, states = _drive(seed, directory)
        head = store.version
        checkpoint_version = head - store.persist_status()["wal_records"]
        generation = store.generation
        store.close()

        wal_path = os.path.join(directory, f"wal-{generation}.log")
        blob = open(wal_path, "rb").read()
        # Every truncation point, from "only the magic survives" to intact.
        for cut in range(len(wal_mod.MAGIC), len(blob) + 1):
            with open(wal_path, "wb") as handle:
                handle.write(blob[:cut])
            recovered = DurableStore.open(directory)
            try:
                version = recovered.version
                assert checkpoint_version <= version <= head, (
                    f"seed {seed}: cut at {cut} recovered version {version}, "
                    f"outside [{checkpoint_version}, {head}]"
                )
                assert _edge_set(recovered.graph) == states[version], (
                    f"seed {seed}: cut at {cut} recovered version {version} "
                    f"but the graph does not match the mirror oracle"
                )
                # Recovery healed the file: reopening is now clean.
                assert recovered.recovery["truncated"] in (0, 1)
            finally:
                recovered.close()

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_recovered_store_keeps_accepting_writes(self, seed, tmp_path):
        directory = str(tmp_path / "store")
        store, states = _drive(seed, directory)
        store.close()
        wal_path = os.path.join(directory, f"wal-{store.generation}.log")
        blob = open(wal_path, "rb").read()
        with open(wal_path, "wb") as handle:
            handle.write(blob[: max(len(blob) - 3, len(wal_mod.MAGIC))])

        recovered = DurableStore.open(directory)
        base = recovered.version
        recovered.apply(Delta.of(add=[("post", "related", "crash")]))
        assert recovered.version == base + 1
        recovered.close()
        # The post-crash write is itself durable.
        reopened = DurableStore.open(directory)
        assert reopened.version == base + 1
        assert ("post", "related", "crash") in {
            (e.source, e.label, e.target)
            for n in reopened.graph.nodes
            for e in reopened.graph.out_edges(n)
        }
        reopened.close()


class TestKernelParityAfterRecovery:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_kernel_parity(self, seed, tmp_path):
        """The fixpoint kernel revalidates the recovered store like the oracle."""
        directory = str(tmp_path / "store")
        store, _ = _drive(seed, directory)
        store.close()
        schema = bug_tracker_schema()
        recovered = DurableStore.open(directory)
        engine = ValidationEngine(backend="serial", cache_size=64)
        try:
            outcome = engine.revalidate(recovered, schema)
            oracle = maximal_typing_reference(recovered.graph, schema)
            expected = _payload_from_typing(recovered.graph, oracle, False)
        finally:
            engine.close()
            recovered.close()
        assert (outcome.result.verdict, outcome.result.payload) == expected, (
            f"seed {seed}: the kernel diverged from the oracle on the recovered store"
        )


#: Node ids, labels and intervals of every kind a snapshot encodes.
MIXED_NODES = ("s0", "s1", ("c", 0, "x"), ("c", 1, ("y", None)), 0, 7, None, "")
MIXED_LABELS = ("a", "b", 5, None, 1.5, True)
MIXED_OCCURS = (None, "*", (2, None), 3, (0, 2))


def _mixed_edge(rng: random.Random, fresh: int):
    source = rng.choice(MIXED_NODES)
    target = ("fresh", fresh) if rng.random() < 0.2 else rng.choice(MIXED_NODES)
    return (source, rng.choice(MIXED_LABELS), target, rng.choice(MIXED_OCCURS))


def _random_typing(rng: random.Random, graph: Graph) -> Typing:
    """Some typing of ``graph``'s nodes: the codec stores any such map."""
    names = ("T", "U", "V")
    return Typing({
        node: frozenset(name for name in names if rng.random() < 0.4)
        for node in graph.nodes
        if rng.random() < 0.9
    })


def _edge_multiset(graph: Graph):
    return sorted(
        repr((e.source, type(e.label).__name__, e.label, e.target, e.occur))
        for e in graph.edges
    )


class TestColumnarSnapshotParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reopen_restores_graph_typings_and_fingerprint(self, seed, tmp_path):
        rng = random.Random(seed)
        directory = str(tmp_path / "store")
        graph = Graph("mixed")
        graph.add_node(("iso", seed))
        for fresh in range(10):
            graph.add_edge(*_mixed_edge(rng, fresh))
        store = DurableStore.create(directory, graph.copy(), name="mixed")
        mirror = GraphStore(graph.copy())
        exported = []
        tail = []  # the deltas since the last checkpoint: the WAL tail
        for step in range(rng.randint(6, 12)):
            doomed = rng.sample(mirror.graph.edges, min(2, mirror.graph.edge_count))
            delta = Delta.of(
                add=[_mixed_edge(rng, 100 + step * 10 + i) for i in range(rng.randint(0, 3))],
                remove=[(e.source, e.label, e.target, e.occur) for e in doomed],
            )
            store.apply(delta)
            mirror.apply(delta)
            tail.append(delta)
            if rng.random() < 0.3:
                # Sometimes an older typing rides along: the snapshot then
                # keeps the log tail back to its version.
                older = exported[-1:] if rng.random() < 0.5 else []
                exported = older + [{
                    "schema": f"s{step}", "compressed": bool(step % 2),
                    "version": mirror.version, "typing": _random_typing(rng, mirror.graph),
                }]
                store.checkpoint(exported)
                tail = []
        for step in range(rng.randint(1, 4)):
            delta = Delta.of(add=[_mixed_edge(rng, 900 + step)])
            store.apply(delta)
            mirror.apply(delta)
            tail.append(delta)
        store.close()

        before = obs_metrics.STATE.enabled
        obs_metrics.enable()
        try:
            with obs.start_trace("t.restart") as root:
                reopened = DurableStore.open(directory)
                fingerprint = reopened.fingerprint()
        finally:
            obs_metrics.STATE.enabled = before
        try:
            assert reopened.version == mirror.version
            assert set(reopened.graph.nodes) == set(mirror.graph.nodes)
            assert _edge_multiset(reopened.graph) == _edge_multiset(mirror.graph)
            assert fingerprint == graph_fingerprint(reopened.graph)
            assert fingerprint == graph_fingerprint(mirror.graph)
            restored = [
                {key: entry[key] for key in ("schema", "compressed", "version", "typing")}
                for entry in reopened.restored_typings
            ]
            assert restored == exported
            _opened, span = root.children
            dirty = {
                fingerprint_bucket(repr(node))
                for delta in tail
                for node in delta.touched_nodes()
            }
            assert span.tags == {"mode": "incremental", "buckets": len(dirty)}
        finally:
            reopened.close()
