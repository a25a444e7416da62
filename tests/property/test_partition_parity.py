"""Parity of the maintained kind partition against from-scratch compression.

:class:`repro.graphs.partition.PartitionMaintainer` updates the counting
bisimulation under edge deltas — local split refinement over the affected
region, a quotient-level merge pass, in-place quotient patching.  After *any*
delta sequence the maintained state must equal a fresh
:func:`repro.graphs.store.kind_partition` / :func:`kind_compress` run, up to
the kind renaming (maintained ids are stable; fresh ids are repr-ordered):

* same partition *blocks* over the nodes;
* isomorphic quotient under the member-induced kind bijection (same rows,
  same multiplicities);
* consistent bookkeeping (members partition the node set, quotient nodes are
  exactly the kinds).

Acyclic regions take the sinks-first hash-consing pass and cyclic ones the
round-based refinement; the DAG-shaped sequences below cross between the two
paths in both directions and check that each path costs what it should.

On top of the structural parity, revalidating a store whose kind view pays
— a full typing through the quotient, then region retyping of each delta by
:meth:`ValidationEngine.revalidate` — must equal a full from-scratch typing
at every version.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fixpoint import (
    FixpointStats,
    expand_kind_typing,
    kind_typing_for_view,
    maximal_typing_fixpoint,
    retype_incremental,
)
from repro.engine.validation import ValidationEngine, _payload_from_typing
from repro.core.intervals import ONE
from repro.errors import GraphError
from repro.graphs import partition
from repro.graphs.graph import Graph
from repro.graphs.partition import PartitionMaintainer
from repro.graphs.scc import backward_closure, strongly_connected_components
from repro.graphs.store import Delta, GraphStore, kind_compress, kind_partition
from repro.schema.parser import parse_schema
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema
from repro.workloads.generators import DEFAULT_LABELS, random_shape_schema

SEEDS = [3, 11, 27, 42, 58]
STEPS = 10


def _noise_graph(rng: random.Random, nodes: int, edges: int, labels) -> Graph:
    graph = Graph(f"partition-noise-{nodes}x{edges}")
    names = [f"n{i}" for i in range(nodes)]
    graph.add_nodes(names)
    for _ in range(edges):
        graph.add_edge(rng.choice(names), rng.choice(labels), rng.choice(names))
    return graph


def _random_delta(rng: random.Random, graph: Graph, labels) -> Delta:
    """A random edit batch; removals never name the same stored edge twice."""
    add = []
    remove = []
    names = sorted(graph.nodes, key=repr)
    chosen: set = set()
    for _ in range(rng.randint(1, 3)):
        candidates = [
            edge
            for edge in sorted(graph.edges, key=lambda e: e.edge_id)
            if edge.edge_id not in chosen
        ]
        if candidates and rng.random() < 0.5:
            edge = rng.choice(candidates)
            chosen.add(edge.edge_id)
            remove.append((edge.source, edge.label, edge.target))
        else:
            source = rng.choice(names)
            target = (
                f"fresh{rng.randint(0, 10 ** 6)}"
                if rng.random() < 0.25
                else rng.choice(names)
            )
            add.append((source, rng.choice(labels), target))
    return Delta.of(add=add, remove=remove)


def _blocks(kind_of) -> frozenset:
    inverse = {}
    for node, kind in kind_of.items():
        inverse.setdefault(kind, set()).add(node)
    return frozenset(frozenset(members) for members in inverse.values())


def _assert_maintained_parity(maintainer, graph: Graph, context: str) -> None:
    """Maintained partition/quotient == fresh compression, up to renaming."""
    fresh_kinds = kind_partition(graph)
    assert _blocks(maintainer.kind_of) == _blocks(fresh_kinds), (
        f"{context}: maintained partition blocks diverged from kind_partition"
    )
    fresh = kind_compress(graph)
    bijection = {}
    for node in graph.nodes:
        bijection.setdefault(maintainer.kind_of[node], fresh.kind_of[node])
    maintained_rows = {
        bijection[kind]: {
            (edge.label, bijection[edge.target]): edge.occur.lower
            for edge in maintainer.quotient.out_edges(kind)
        }
        for kind in maintainer.members
    }
    fresh_rows = {
        kind: {
            (edge.label, edge.target): edge.occur.lower
            for edge in fresh.compressed.out_edges(kind)
        }
        for kind in fresh.members
    }
    assert maintained_rows == fresh_rows, (
        f"{context}: patched quotient is not isomorphic to kind_compress"
    )
    # Bookkeeping invariants: members partition the nodes, quotient nodes
    # are exactly the kinds, every row weight is positive.
    assert sum(len(nodes) for nodes in maintainer.members.values()) == graph.node_count
    assert set(maintainer.quotient.nodes) == set(maintainer.members)
    assert all(
        edge.occur.lower >= 1 for edge in maintainer.quotient.edges
    ), f"{context}: zero-multiplicity quotient edge survived"


class TestMaintainedPartitionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_edit_sequences_match_fresh_compression(self, seed):
        rng = random.Random(seed)
        labels = list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 14, 24, labels))
        maintainer = store._sync_partition()
        _assert_maintained_parity(maintainer, store.graph, f"seed {seed} build")
        for step in range(STEPS):
            store.apply(_random_delta(rng, store.graph, labels))
            maintainer = store._sync_partition()
            _assert_maintained_parity(
                maintainer, store.graph, f"seed {seed} step {step}"
            )

    def test_multi_version_sync_composes_deltas(self):
        # The maintainer may lag several versions behind; one sync must
        # absorb the composed delta exactly.
        rng = random.Random(7)
        labels = list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 12, 20, labels))
        store._sync_partition()
        for _ in range(4):  # four versions, no sync in between
            store.apply(_random_delta(rng, store.graph, labels))
        maintainer = store._sync_partition()
        _assert_maintained_parity(maintainer, store.graph, "multi-version sync")

    def test_clone_delta_splits_and_merges_back(self):
        base = bug_tracker_graph()
        graph = Graph("clones")
        for copy_index in range(12):
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        assert store.typing_view() is not None
        maintainer = store._maintainer
        kinds_before = maintainer.kind_count
        rows_before = dict(maintainer.rows)
        prefix = "http://example.org/bugs#"
        delta = Delta.of(
            remove=[((3, f"{prefix}bug3"), "descr", (3, "literal:Kabang!||"))]
        )
        store.apply(delta)
        store.typing_view()
        assert maintainer.stats.mode == "incremental"
        assert maintainer.kind_count > kinds_before  # copy 3 split out
        _assert_maintained_parity(maintainer, store.graph, "after split")
        store.apply(delta.inverse())
        store.typing_view()
        assert maintainer.kind_count == kinds_before  # merged back
        assert maintainer.stats.merges > 0
        _assert_maintained_parity(maintainer, store.graph, "after merge")
        # Over the round trip only the temporary kinds retire: every kind
        # is back under its id with its row.
        assert maintainer.rows == rows_before

    def test_large_delta_falls_back_to_a_rebuild(self):
        rng = random.Random(5)
        labels = list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 12, 18, labels))
        maintainer = store._sync_partition()
        epoch = maintainer.epoch
        # Touch most sinks at once: the backward closure covers the graph.
        add = [(f"n{i}", labels[0], f"n{(i + 1) % 12}") for i in range(10)]
        store.apply(Delta.of(add=add))
        store._sync_partition()
        assert maintainer.epoch == epoch + 1
        _assert_maintained_parity(maintainer, store.graph, "after rebuild")


#: Clone count of the DAG scenarios: edits stay inside copy 0, so every
#: original kind keeps its members in three untouched copies.  That majority
#: makes it the survivor whenever the cyclic path's merge (member-richest
#: kind wins) meets it, so a reverted sequence restores every original id.
DAG_COPIES = 4
DAG_SHAPES = ("chain", "tree", "powerlaw")


def _dag_base(shape: str, rng: random.Random, size: int):
    """A ``shape`` DAG plus a rank per non-literal node (edges go down in rank)."""
    graph = Graph(f"{shape}-{size}")
    rank = {}

    def literal() -> str:  # a few shared values, so kinds have several members
        return f"literal:v{rng.randrange(3)}"

    if shape == "chain":  # rdf:first/rest cells; the head is cell0
        for k in range(size):
            cell = f"cell{k}"
            rank[cell] = size - k
            graph.add_edge(cell, "first", literal())
            graph.add_edge(cell, "rest", f"cell{k + 1}" if k + 1 < size else "nil")
    elif shape == "tree":  # each node hangs below one of the 4 newest
        for i in range(size):
            node = f"t{i}"
            rank[node] = size - i
            graph.add_edge(node, "label", literal())
            if i:
                graph.add_edge(f"t{rng.randrange(max(0, i - 4), i)}", "kid", node)
    else:  # preferential attachment: each pub cites up to two older ones
        ends = [0]
        for i in range(size):
            node = f"p{i}"
            rank[node] = i
            graph.add_edge(node, "title", literal())
            cited = {
                rng.choice(ends) if rng.random() < 0.8 else rng.randrange(i)
                for _ in range(min(2, i))
            }
            for j in sorted(cited):
                graph.add_edge(node, "cites", f"p{j}")
                ends.append(j)
            ends.append(i)
    return graph, rank


def _cloned(base: Graph, copies: int) -> Graph:
    graph = Graph(f"{base.name}-x{copies}")
    for copy_index in range(copies):
        for edge in base.edges:
            graph.add_edge(
                (copy_index, edge.source), edge.label, (copy_index, edge.target)
            )
    return graph


def _dag_delta(rng: random.Random, graph: Graph, rank) -> Delta:
    """An edit of copy 0 that keeps the graph acyclic."""
    if rng.random() < 0.4:
        edges = [e for e in sorted(graph.edges, key=lambda e: e.edge_id) if e.source[0] == 0]
        edge = rng.choice(edges)
        return Delta.of(remove=[(edge.source, edge.label, edge.target)])
    upper, lower = sorted(rng.sample(sorted(rank), 2), key=rank.get, reverse=True)
    return Delta.of(add=[((0, upper), rng.choice(("link", "rest", "kid")), (0, lower))])


def _rdf_list(cells: int) -> Graph:
    graph = Graph(f"list-{cells}")
    for k in range(cells):
        graph.add_edge(f"cell{k}", "rdf:first", f"literal:v{k}")
        graph.add_edge(f"cell{k}", "rdf:rest", f"cell{k + 1}" if k + 1 < cells else "rdf:nil")
    return graph


class TestSinksFirstParity:
    @pytest.mark.parametrize("shape", DAG_SHAPES)
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_dag_sequences_cross_paths_and_round_trip(self, shape, seed):
        rng = random.Random(seed)
        base, rank = _dag_base(shape, rng, 20)
        store = GraphStore(_cloned(base, DAG_COPIES))
        maintainer = store._sync_partition()
        assert maintainer.stats.path == "dag"
        rows_before = dict(maintainer.rows)
        applied = []

        def step(delta: Delta, path: str, context: str) -> None:
            store.apply(delta)
            store._sync_partition()
            assert maintainer.stats.mode == "incremental", context
            assert maintainer.stats.path == path, context
            _assert_maintained_parity(maintainer, store.graph, f"{shape} seed {seed} {context}")

        for index in range(3):
            applied.append(_dag_delta(rng, store.graph, rank))
            step(applied[-1], "dag", f"edit {index}")
        # Close a two-cycle against an existing edge, then reopen it.
        edge = rng.choice(
            [e for e in sorted(store.graph.edges, key=lambda e: e.edge_id)
             if e.source[0] == 0 and e.target[1] in rank]
        )
        closing = Delta.of(add=[(edge.target, "back", edge.source)])
        for delta, path in ((closing, "rounds"), (closing.inverse(), "dag")):
            applied.append(delta)
            step(delta, path, f"cycle {path}")
        for index in range(3, 6):
            applied.append(_dag_delta(rng, store.graph, rank))
            step(applied[-1], "dag", f"edit {index}")
        for index, delta in enumerate(reversed(applied)):
            undo = delta.inverse()
            step(undo, "rounds" if undo == closing else "dag", f"undo {index}")

        assert maintainer.rows == rows_before, (
            f"{shape} seed {seed}: the reverted sequence left kinds changed"
        )


    @pytest.mark.parametrize("shape", DAG_SHAPES)
    def test_incremental_typing_on_dag_stores(self, shape):
        # The first typing goes through the quotient; every later delta is
        # retyped by region, whatever the maintained partition does.
        schema = parse_schema(
            "Node -> label :: Lit, kid :: Node*, link :: Node?\n"
            "Pub -> title :: Lit, cites :: Pub*\n"
            "Cell -> first :: Lit, rest :: Cell?\n"
            "Lit -> eps\n",
            name="dag-shapes",
        )
        modes = set()
        for seed in SEEDS[:3]:
            rng = random.Random(seed)
            base, rank = _dag_base(shape, rng, 20)
            store = GraphStore(_cloned(base, 8))  # enough clones for the view
            engine = ValidationEngine(cache_size=0)
            assert engine.revalidate(store, schema).mode == "kinds"
            for step in range(5):
                store.apply(_dag_delta(rng, store.graph, rank))
                outcome = engine.revalidate(store, schema)
                modes.add(outcome.mode)
                oracle = maximal_typing_fixpoint(store.graph, schema)
                _verdict, oracle_payload = _payload_from_typing(store.graph, oracle, False)
                assert outcome.result.payload == oracle_payload, (
                    f"{shape} seed {seed} step {step}: region typing diverged"
                )
        assert "incremental" in modes
        assert modes <= {"incremental", "unchanged"}, modes


class TestSinksFirstCost:
    def test_head_edit_on_a_long_list_runs_no_rounds(self, monkeypatch):
        store = GraphStore(_rdf_list(2000))
        maintainer = store._sync_partition()
        assert maintainer.stats.path == "dag"
        rounds = maintainer.stats.rounds

        def whole_quotient_merge(self):
            raise AssertionError("an acyclic region ran the whole-quotient merge")

        monkeypatch.setattr(
            PartitionMaintainer, "_merge_equivalent_kinds", whole_quotient_merge
        )
        reads = []
        real_row_of = partition.row_of
        monkeypatch.setattr(
            partition,
            "row_of",
            lambda graph, node, kind_of: reads.append(node) or real_row_of(graph, node, kind_of),
        )
        store.apply(
            Delta.of(
                remove=[("cell0", "rdf:first", "literal:v0")],
                add=[("cell0", "rdf:first", "literal:head")],
            )
        )
        store._sync_partition()
        stats = maintainer.stats
        assert (stats.mode, stats.path) == ("incremental", "dag")
        assert stats.rounds == rounds
        assert stats.affected == 3  # the head, its old and its new element
        assert len(reads) == stats.affected  # one row read per re-kinded node
        monkeypatch.undo()
        _assert_maintained_parity(maintainer, store.graph, "list head edit")

    def test_edit_inside_a_list_keeps_every_kind_id(self):
        # cell10 gains a second element: its single-member kind changes row,
        # and cell0..cell9 see it only through that kind.  Every minted kind
        # takes back its old id, and only cell10's row really changed.
        store = GraphStore(_rdf_list(50))
        maintainer = store._sync_partition()
        before = dict(maintainer.kind_of)
        rows_before = dict(maintainer.rows)
        delta = Delta.of(add=[("cell10", "rdf:first", "literal:v0")])
        store.apply(delta)
        assert maintainer.update(store.graph, delta)
        assert (maintainer.stats.path, maintainer.stats.affected) == ("dag", 12)
        assert maintainer.kind_of == before
        assert set(maintainer.rows) == set(rows_before)
        assert {
            kind for kind, row in maintainer.rows.items() if rows_before[kind] != row
        } == {before["cell10"]}
        _assert_maintained_parity(maintainer, store.graph, "list inner edit")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kind_partition_dag_pass_equals_the_round_loop(self, seed):
        rng = random.Random(seed)
        for shape in DAG_SHAPES:
            graph, _rank = _dag_base(shape, rng, 40)
            graph = _cloned(graph, 2)
            kinds, path, refined = partition._build_partition(graph)
            assert (path, refined) == ("dag", 0)
            order = sorted(graph.nodes, key=repr)
            assert kinds == partition._refine_rounds(graph, order), (
                f"{shape} seed {seed}: kind ids differ from the round loop"
            )
            assert list(kinds) == order

    @pytest.mark.parametrize("shape", DAG_SHAPES)
    def test_restored_maintainer_takes_a_dag_delta(self, shape):
        rng = random.Random(19)
        base, rank = _dag_base(shape, rng, 20)
        built = GraphStore(_cloned(base, DAG_COPIES))
        saved = built._sync_partition()
        # A restart: a fresh store over the same graph, partition restored.
        store = GraphStore(built.graph.copy())
        store.restore_partition(dict(saved.kind_of), saved.epoch)
        maintainer = store._maintainer
        assert maintainer.stats.mode == "restored"
        _assert_maintained_parity(maintainer, store.graph, f"{shape} restored")
        for index in range(3):
            store.apply(_dag_delta(rng, store.graph, rank))
            store._sync_partition()
            assert (maintainer.stats.mode, maintainer.stats.path) == ("incremental", "dag")
            assert maintainer.epoch == saved.epoch
            _assert_maintained_parity(
                maintainer, store.graph, f"{shape} restored, delta {index}"
            )


def _reaches_a_cycle(graph: Graph) -> set:
    """Every node with a path into a cycle (self-loops included), by brute force."""
    on_cycle = set()
    for component in strongly_connected_components(graph):
        if len(component) > 1 or any(
            edge.target == component[0] for edge in graph.out_edges(component[0])
        ):
            on_cycle.update(component)
    return backward_closure(graph, on_cycle)


@st.composite
def _cyclic_graphs(draw) -> Graph:
    """Random edges over a few nodes, plus chosen cyclic patterns: self-loops,
    cloned 2-cycles (two bugs citing each other, as in the clone documents)
    and acyclic chains hanging upstream of a cycle."""
    size = draw(st.integers(1, 8))
    labels = st.sampled_from(["a", "b"])
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, labels, node), max_size=14))
    for copy in range(draw(st.integers(0, 3))):  # 2-cycle clones with a leaf
        left, right = ("c", copy, 0), ("c", copy, 1)
        edges += [(left, "r", right), (right, "r", left), (left, "d", ("leaf", copy))]
    for loop in range(draw(st.integers(0, 2))):
        edges.append((("s", loop), draw(labels), ("s", loop)))
    for chain in range(draw(st.integers(0, 2))):  # upstream of some cycle
        target = draw(st.sampled_from([edge[0] for edge in edges] or [0]))
        links = draw(st.integers(1, 3))
        for step in range(links):
            edges.append((("u", chain, step), draw(labels), ("u", chain, step + 1)))
        edges.append((("u", chain, links), "a", target))
    return Graph.from_edges(
        (source, label, target, ONE) for source, label, target in edges
    )


class TestCyclicBuildParity:
    """The build hashes the nodes that reach no cycle and refines only the rest;
    it must give the very dict (numbering included) of one-block refinement
    of the whole graph."""

    @settings(max_examples=300, deadline=None)
    @given(_cyclic_graphs())
    def test_build_equals_whole_graph_refinement(self, graph):
        order = sorted(graph.nodes, key=repr)
        kinds, path, refined = partition._build_partition(graph)
        assert kinds == partition._refine_rounds(graph, order)
        assert list(kinds) == order
        cyclic = _reaches_a_cycle(graph)
        assert refined == len(cyclic)
        assert path == ("rounds" if cyclic else "dag")

    def test_clone_document_refines_only_its_cycles(self):
        graph = _cloned(bug_tracker_graph(), 4)
        maintainer = PartitionMaintainer(graph)
        assert maintainer.stats.path == "rounds"
        assert 0 < maintainer.stats.refined < graph.node_count
        assert maintainer.stats.refined == len(_reaches_a_cycle(graph))
        assert maintainer.kind_of == partition._refine_rounds(
            graph, sorted(graph.nodes, key=repr)
        )


class TestUpdateOutcome:
    def test_update_reports_whether_it_kept_the_epoch(self):
        rng = random.Random(23)
        labels = list(DEFAULT_LABELS[:3])
        store = GraphStore(_noise_graph(rng, 80, 60, labels))
        maintainer = store._sync_partition()
        for index in range(3):
            epoch = maintainer.epoch
            delta = _random_delta(rng, store.graph, labels)
            store.apply(delta)
            in_place = maintainer.update(store.graph, delta)
            assert in_place == (maintainer.stats.mode != "full")
            assert maintainer.epoch == (epoch if in_place else epoch + 1)
            assert set(maintainer.quotient.nodes) == set(maintainer.rows)
            _assert_maintained_parity(maintainer, store.graph, f"noise delta {index}")


class TestStorePathTypingParity:
    def test_incremental_typing_equals_full(self):
        schema = bug_tracker_schema()
        base = bug_tracker_graph()
        graph = Graph("clones")
        for copy_index in range(12):
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        engine = ValidationEngine(cache_size=0)  # force the computing paths
        first = engine.revalidate(store, schema)
        assert first.mode == "kinds"
        prefix = "http://example.org/bugs#"
        edits = [
            Delta.of(remove=[((3, f"{prefix}bug3"), "descr", (3, "literal:Kabang!||"))]),
            Delta.of(add=[((3, f"{prefix}bug4"), "related", (3, f"{prefix}bug1"))]),
            Delta.of(add=[((5, f"{prefix}bug1"), "related", (5, f"{prefix}bug2"))]),
        ]
        saw_incremental = False
        for step, delta in enumerate(edits):
            store.apply(delta)
            outcome = engine.revalidate(store, schema)
            assert outcome.version == store.version
            saw_incremental |= outcome.mode == "incremental"
            oracle = maximal_typing_fixpoint(store.graph, schema)
            _verdict, oracle_payload = _payload_from_typing(store.graph, oracle, False)
            assert outcome.result.payload == oracle_payload, (
                f"step {step}: typing diverged from the oracle "
                f"(mode {outcome.mode})"
            )
        assert saw_incremental, "the region path was never taken"

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_random_sequences_on_a_view_active_store(self, seed):
        rng = random.Random(seed)
        schema = random_shape_schema(4, rng=rng, name=f"partition-typing-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        base = _noise_graph(rng, 10, 16, labels)
        graph = Graph("cloned-noise")
        for copy_index in range(10):  # 100 nodes: above the view floor
            for edge in base.edges:
                graph.add_edge(
                    (copy_index, edge.source), edge.label, (copy_index, edge.target)
                )
        store = GraphStore(graph)
        engine = ValidationEngine(cache_size=0)
        engine.revalidate(store, schema)
        for step in range(4):
            copy_index = rng.randrange(10)
            local = _random_delta(rng, base, labels)
            delta = Delta.of(
                add=[
                    ((copy_index, s), label, (copy_index, t))
                    for s, label, t, _o in local.added
                ],
                remove=[
                    ((copy_index, s), label, (copy_index, t))
                    for s, label, t, _o in local.removed
                ],
            )
            try:
                store.apply(delta)
            except GraphError:
                continue  # the local edit named an edge a prior step removed
            outcome = engine.revalidate(store, schema)
            oracle = maximal_typing_fixpoint(store.graph, schema)
            _verdict, oracle_payload = _payload_from_typing(store.graph, oracle, False)
            assert outcome.result.payload == oracle_payload, (
                f"seed {seed} step {step}: revalidation diverged "
                f"(mode {outcome.mode})"
            )

    def test_region_retyping_of_a_viewed_store_direct_parity(self):
        # Drive the kernel entry directly: the quotient's full typing, then a
        # region retype of the delta, must reproduce the fresh quotient typing.
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
        assert view is not None
        from repro.engine.compiled import compile_schema

        compiled = compile_schema(schema)
        prior = expand_kind_typing(view, kind_typing_for_view(view, compiled))
        prefix = "http://example.org/bugs#"
        delta = Delta.of(
            remove=[((3, f"{prefix}bug3"), "descr", (3, "literal:Kabang!||"))]
        )
        store.apply(delta)
        stats = FixpointStats()
        incremental = retype_incremental(store, prior, delta, compiled=compiled, stats=stats)
        assert stats.mode == "incremental"
        assert store.view_stats()["partition_version"] == 0  # never synced since
        view = store.typing_view()
        assert incremental == expand_kind_typing(view, kind_typing_for_view(view, compiled))
        assert incremental == maximal_typing_fixpoint(store.graph, schema)
