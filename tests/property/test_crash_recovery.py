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
full-rescan oracle.
"""

from __future__ import annotations

import os
import random
from typing import Dict, FrozenSet, Tuple

import pytest

from repro.engine.validation import ValidationEngine, _payload_from_typing
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.persist import DurableStore
from repro.persist import wal as wal_mod
from repro.schema.reference import maximal_typing_reference
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
