"""Every way into the one fixpoint kernel, against the full-rescan oracle.

:mod:`repro.engine.fixpoint` types every region with one kernel, but reaches it
along several paths, and each hands the kernel a different region with
different frozen types around it:

* a whole-graph run (:func:`repro.engine.fixpoint.maximal_typing_fixpoint`);
* a store's run (:func:`repro.engine.fixpoint.maximal_typing_store`), which
  types the kind quotient instead when the view pays;
* region retyping after edge insertions
  (:func:`repro.engine.fixpoint.retype_incremental`), building the graph up
  from its bare nodes in batches;
* region retyping after edge removals, tearing an overlay of extra edges
  back off the graph;
* a whole-graph run that reuses a signature memo filled on another graph;
* the validation engine's revalidation and its typing snapshot.

``TestEntryPaths`` crosses these paths with graph families that drive
different parts of the schedule — clones (signature memo, kind view), random
noise (cycles, dead ends, parallel edges), a long chain (one-node components),
a ring with chords (one large component) and hubs (wide out-degree under
interval rules) — and asserts the oracle's typing on each.
``TestCompressedEntryPaths`` does the same under the compressed semantics.

``TestLargeRegions`` types regions of 17,000 nodes, past any size the parity
suites reach, where a type lost at one end must travel the whole region: a
ring that is one strongly connected component, a chain of one-node
components, a power-law citation graph and clones typed through the kind
view.  The naive oracle rescans the whole graph once per round and needs as
many rounds as the region is long, so these cases compare with closed-form
typings or with the worklist baseline of :mod:`repro.schema.reference`.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import (
    FixpointStats,
    maximal_typing_fixpoint,
    maximal_typing_store,
    retype_incremental,
)
from repro.engine.validation import ValidationEngine
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference, maximal_typing_worklist
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema
from repro.workloads.generators import DEFAULT_LABELS, random_shape_schema, random_shex_schema

SEEDS = [6, 47]
BATCH = 4
LARGE = 17_000


# --------------------------------------------------------------------------- #
# Graph families: each returns (graph, schema, labels) for a seeded rng
# --------------------------------------------------------------------------- #
def _noise_edges(rng: random.Random, names, count: int, labels):
    return [(rng.choice(names), rng.choice(labels), rng.choice(names)) for _ in range(count)]


def _graph(name: str, names, edges) -> Graph:
    graph = Graph(name)
    graph.add_nodes(names)
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


def _clones(rng: random.Random):
    # Bug-tracker copies, two of them perturbed: above the kind view's size
    # floor, and the quotient still shrinks the graph well past its ratio.
    base = bug_tracker_graph()
    edges = [
        ((copy_index, edge.source), edge.label, (copy_index, edge.target))
        for copy_index in range(12)
        for edge in base.edges
    ]
    names = sorted({node for source, _, target in edges for node in (source, target)}, key=repr)
    labels = sorted({edge.label for edge in base.edges})
    for _ in range(2):
        copy_index = rng.randrange(12)
        members = sorted(base.nodes, key=repr)
        edges.append(
            ((copy_index, rng.choice(members)), rng.choice(labels), (copy_index, rng.choice(members)))
        )
    return _graph("clones", names, edges), bug_tracker_schema(), labels


def _shape_noise(rng: random.Random):
    schema = random_shape_schema(4, rng=rng, name="paths-shape")
    labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
    names = [f"n{i}" for i in range(14)]
    return _graph("shape-noise", names, _noise_edges(rng, names, 26, labels)), schema, labels


def _shex_noise(rng: random.Random):
    schema = random_shex_schema(4, rng=rng, name="paths-shex")
    labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
    names = [f"n{i}" for i in range(12)]
    return _graph("shex-noise", names, _noise_edges(rng, names, 20, labels)), schema, labels


def _chain(rng: random.Random):
    schema = random_shape_schema(3, num_labels=2, rng=rng, name="paths-chain")
    labels = list(DEFAULT_LABELS[:2])
    names = [f"c{i}" for i in range(60)]
    edges = [(names[i], rng.choice(labels), names[i + 1]) for i in range(59)]
    return _graph("chain", names, edges), schema, labels


def _ring(rng: random.Random):
    schema = random_shape_schema(3, num_labels=2, rng=rng, name="paths-ring")
    labels = list(DEFAULT_LABELS[:2])
    names = [f"r{i}" for i in range(60)]
    edges = [(names[i], rng.choice(labels), names[(i + 1) % 60]) for i in range(60)]
    edges += _noise_edges(rng, names, 6, labels)
    return _graph("ring", names, edges), schema, labels


def _hubs(rng: random.Random):
    low = rng.randint(1, 4)
    high = low + rng.randint(0, 4)
    schema = parse_schema(
        f"Hub -> item :: Leaf^[{low};{high}], tag :: Leaf?\nLeaf -> eps\n", name="paths-hubs"
    )
    names = [f"h{i}" for i in range(6)] + [f"l{i}" for i in range(10)]
    edges = []
    for hub in names[:6]:
        edges += [(hub, "item", f"l{rng.randrange(10)}") for _ in range(rng.randint(0, 9))]
        edges += [(hub, "tag", f"l{rng.randrange(10)}") for _ in range(rng.randint(0, 2))]
    return _graph("hubs", names, edges), schema, ["item", "tag"]


FAMILIES = {
    "clones": _clones,
    "shape-noise": _shape_noise,
    "shex-noise": _shex_noise,
    "chain": _chain,
    "ring": _ring,
    "hubs": _hubs,
}


# --------------------------------------------------------------------------- #
# Entry paths: each returns the typing of ``graph`` it reaches
# --------------------------------------------------------------------------- #
def _edge_entries(graph: Graph, compressed: bool):
    return [
        (edge.source, edge.label, edge.target, edge.occur) if compressed
        else (edge.source, edge.label, edge.target)
        for edge in sorted(graph.edges, key=lambda edge: edge.edge_id)
    ]


def _retyped(store, compiled, compressed, typing, delta):
    store.apply(delta)
    stats = FixpointStats()
    typing = retype_incremental(
        store, typing, delta, compiled=compiled, compressed=compressed,
        stats=stats, max_affected_fraction=1.0,
    )
    assert stats.mode in ("incremental", "unchanged")
    return typing


def _via_fixpoint(graph, compiled, compressed, rng, labels):
    return maximal_typing_fixpoint(graph, compiled=compiled, compressed=compressed)


def _via_store(graph, compiled, compressed, rng, labels):
    return maximal_typing_store(GraphStore(graph), compiled=compiled, compressed=compressed)


def _via_insertions(graph, compiled, compressed, rng, labels):
    store = GraphStore(_graph(graph.name, graph.nodes, ()))
    typing = maximal_typing_fixpoint(store.graph, compiled=compiled, compressed=compressed)
    entries = _edge_entries(graph, compressed)
    rng.shuffle(entries)
    for start in range(0, len(entries), BATCH):
        delta = Delta.of(add=entries[start:start + BATCH])
        typing = _retyped(store, compiled, compressed, typing, delta)
        assert typing == maximal_typing_fixpoint(
            store.graph, compiled=compiled, compressed=compressed
        ), f"after inserting edges {start}..{start + BATCH - 1}"
    assert store.graph.edge_count == graph.edge_count
    return typing


def _via_removals(graph, compiled, compressed, rng, labels):
    names = sorted(graph.nodes, key=repr)
    overlay = _noise_edges(rng, names, max(4, len(names) // 2), labels)
    if compressed:
        # A compressed graph keeps one edge per triple, and a removal whose
        # interval is 1 matches an edge of any interval: overlay new triples
        # only, with multiplicities other than 1.
        present = {(edge.source, edge.label, edge.target) for edge in graph.edges}
        overlay = [
            (*triple, rng.choice([(0, 0), (2, 2), (3, 3)]))
            for triple in sorted(set(overlay) - present, key=repr)
        ]
    store = GraphStore(graph.copy())
    store.apply(Delta.of(add=overlay))
    typing = maximal_typing_fixpoint(store.graph, compiled=compiled, compressed=compressed)
    for start in range(0, len(overlay), BATCH):
        delta = Delta.of(remove=overlay[start:start + BATCH])
        typing = _retyped(store, compiled, compressed, typing, delta)
        assert typing == maximal_typing_fixpoint(
            store.graph, compiled=compiled, compressed=compressed
        ), f"after removing overlay edges {start}..{start + BATCH - 1}"
    assert store.graph.edge_count == graph.edge_count
    return typing


def _via_carried_memo(graph, compiled, compressed, rng, labels):
    # Fill the memo on the graph with half its edges, then type the graph
    # itself with it: verdicts carried over must only be reused where the
    # (type, neighbourhood signature) key really matches.
    half = Graph.from_edges(
        (edge.source, edge.label, edge.target, edge.occur)
        for edge in sorted(graph.edges, key=lambda edge: edge.edge_id)[::2]
    )
    half.add_nodes(graph.nodes)
    memo = {}
    maximal_typing_fixpoint(half, compiled=compiled, compressed=compressed, signature_memo=memo)
    assert memo or not graph.node_count
    return maximal_typing_fixpoint(
        graph, compiled=compiled, compressed=compressed, signature_memo=memo
    )


def _via_engine(graph, compiled, compressed, rng, labels):
    store = GraphStore(graph)
    engine = ValidationEngine(cache_size=0)
    outcome = engine.revalidate(store, compiled, compressed=compressed)
    (snapshot,) = engine.export_typings(store)
    typing = snapshot["typing"]
    verdict = "valid" if all(typing.types_of(node) for node in graph.nodes) else "invalid"
    assert outcome.result.verdict == verdict
    return typing


ENTRIES = {
    "fixpoint": _via_fixpoint,
    "store": _via_store,
    "insertions": _via_insertions,
    "removals": _via_removals,
    "carried-memo": _via_carried_memo,
    "engine": _via_engine,
}


def _assert_entry_parity(entry: str, family: str, seed: int, compressed: bool, build) -> None:
    rng = random.Random(seed)
    graph, schema, labels = build(rng)
    oracle = maximal_typing_reference(graph, schema, compressed=compressed)
    typing = ENTRIES[entry](graph, compile_schema(schema), compressed, rng, labels)
    assert typing == oracle, (
        f"{entry} on {family} (seed {seed}, compressed={compressed}) disagrees with "
        f"the oracle\nkernel:\n{typing}\noracle:\n{oracle}"
    )
    assert typing.node_count == graph.node_count


class TestEntryPaths:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_entry_matches_the_oracle(self, entry, family, seed):
        _assert_entry_parity(entry, family, seed, False, FAMILIES[family])

    def test_clones_take_the_kind_view(self):
        graph, schema, _ = _clones(random.Random(SEEDS[0]))
        stats = FixpointStats()
        maximal_typing_store(GraphStore(graph), schema=schema, stats=stats)
        assert stats.mode == "kinds"


def _compressed_noise(rng: random.Random):
    schema = random_shape_schema(3, rng=rng, name="paths-compressed")
    labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
    names = [f"z{i}" for i in range(8)]
    graph = Graph("compressed-noise")
    graph.add_nodes(names)
    for source, label, target in sorted(set(_noise_edges(rng, names, 18, labels))):
        multiplicity = rng.choice([0, 1, 1, 2, 3])
        graph.add_edge(source, label, target, (multiplicity, multiplicity))
    return graph, schema, labels


def _compressed_hubs(rng: random.Random):
    schema = parse_schema(
        f"Hub -> item :: Leaf^[{rng.randint(2, 6)};{rng.randint(6, 12)}]\nLeaf -> eps\n",
        name="paths-compressed-hubs",
    )
    names = [f"h{i}" for i in range(4)] + [f"l{i}" for i in range(3)]
    graph = Graph("compressed-hubs")
    graph.add_nodes(names)
    for hub in names[:4]:
        for leaf in rng.sample(names[4:], rng.randint(1, 3)):
            multiplicity = rng.randint(0, 5)
            graph.add_edge(hub, "item", leaf, (multiplicity, multiplicity))
    return graph, schema, ["item"]


COMPRESSED_FAMILIES = {"noise": _compressed_noise, "hubs": _compressed_hubs}


class TestCompressedEntryPaths:
    @pytest.mark.requires_scipy  # the compressed oracle solves Presburger systems
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", sorted(COMPRESSED_FAMILIES))
    @pytest.mark.parametrize("entry", ["carried-memo", "fixpoint", "insertions", "removals"])
    def test_entry_matches_the_oracle(self, entry, family, seed):
        _assert_entry_parity(entry, family, seed, True, COMPRESSED_FAMILIES[family])


# --------------------------------------------------------------------------- #
# Regions of 17,000 nodes
# --------------------------------------------------------------------------- #
SELF = parse_schema("T -> a :: T\n", name="self")
SELF_OPTIONAL = parse_schema("T -> a :: T?\n", name="self-optional")


def _ring_graph(size: int, broken_at=None) -> Graph:
    return Graph.from_edges(
        (i, "b" if i == broken_at else "a", (i + 1) % size, None) for i in range(size)
    )


def _chain_graph(size: int) -> Graph:
    return Graph.from_edges((i, "a", i + 1, None) for i in range(size - 1))


def _powerlaw_graph(rng: random.Random, size: int) -> Graph:
    """Papers citing older papers by preferential attachment; every fiftieth
    paper of the newer half has no title."""
    edges = []
    ends = [0]
    for i in range(1, size):
        targets = set()
        while len(targets) < min(rng.choice((1, 2, 3, 4)), i):
            targets.add(rng.choice(ends) if rng.random() < 0.8 else rng.randrange(i))
        edges += [(i, "cites", target, None) for target in sorted(targets)]
        ends.extend(targets)
        ends.append(i)
    edges += [
        (i, "title", ("title", i), None) for i in range(size) if i % 50 or i < size // 2
    ]
    return Graph.from_edges(edges)


class TestLargeRegions:
    def test_ring_is_one_component_and_keeps_its_type(self):
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(_ring_graph(LARGE), SELF, stats=stats)
        assert typing.untyped() == frozenset()
        assert typing.node_count == LARGE
        assert stats.components == 1

    def test_one_wrong_label_untypes_the_whole_ring(self):
        # The loss starts at one node and must travel round all 17,000.
        typing = maximal_typing_fixpoint(_ring_graph(LARGE, broken_at=0), SELF)
        assert len(typing.untyped()) == LARGE

    def test_missing_last_edge_untypes_the_whole_chain(self):
        # 17,000 one-node components, each settled after its successor.
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(_chain_graph(LARGE), SELF, stats=stats)
        assert len(typing.untyped()) == LARGE
        assert stats.components == LARGE

    def test_optional_successor_types_the_whole_chain(self):
        typing = maximal_typing_fixpoint(_chain_graph(LARGE), SELF_OPTIONAL)
        assert typing.untyped() == frozenset()

    def test_region_retyping_breaks_and_mends_a_large_ring(self):
        compiled = compile_schema(SELF)
        store = GraphStore(_ring_graph(LARGE))
        typing = maximal_typing_fixpoint(store.graph, compiled=compiled)
        assert typing.untyped() == frozenset()
        cut = Delta.of(remove=[(0, "a", 1)], add=[(0, "b", 1)])
        typing = _retyped(store, compiled, False, typing, cut)
        assert len(typing.untyped()) == LARGE
        typing = _retyped(store, compiled, False, typing, cut.inverse())
        assert typing.untyped() == frozenset()

    def test_powerlaw_citations_match_the_worklist_baseline(self):
        schema = parse_schema(
            "Paper -> cites :: Paper*, title :: Title\nTitle -> eps\n", name="papers"
        )
        graph = _powerlaw_graph(random.Random(20190630), LARGE)
        typing = maximal_typing_fixpoint(graph, schema)
        assert typing == maximal_typing_worklist(graph, schema)
        papers = [node for node in range(LARGE) if "Paper" in typing.types_of(node)]
        assert papers and len(papers) < LARGE

    def test_large_clone_graph_types_alike_through_the_kind_view(self):
        base = bug_tracker_graph()
        copies = LARGE // base.node_count + 1
        graph = Graph.from_edges(
            ((copy_index, edge.source), edge.label, (copy_index, edge.target), None)
            for copy_index in range(copies)
            for edge in base.edges
        )
        assert graph.node_count >= LARGE
        stats = FixpointStats()
        via_kinds = maximal_typing_store(GraphStore(graph), schema=bug_tracker_schema(), stats=stats)
        assert stats.mode == "kinds"
        assert via_kinds == maximal_typing_fixpoint(graph, bug_tracker_schema())
