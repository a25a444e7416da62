"""Parity of the store's kind view against from-scratch compression.

:meth:`repro.graphs.store.GraphStore.typing_view` builds the kind partition
and its quotient once per version it is read at.  After *any* delta sequence
— cyclic noise graphs, DAG shapes, clones — the view at each version must
equal a fresh :func:`repro.graphs.store.kind_compress` of that version's
graph, up to kind renaming:

* same partition *blocks* over the nodes;
* isomorphic quotient under the member-induced kind bijection (same rows,
  same multiplicities);

and the typing through the view must equal the oracle's.  Two reads at one
version build once (one ``partition.sync`` span), a refused view builds no
quotient, and a view handed out at one version does not change with later
deltas.

The build itself hashes the nodes that reach no cycle sinks first and
refines only the rest; it must give the very dict of one-block refinement
of the whole graph.  On top of that, revalidating a store whose kind view
pays — a full typing through the quotient, then region retyping of each
delta by :meth:`ValidationEngine.revalidate` — must equal a full
from-scratch typing at every version.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.fixpoint import (
    FixpointStats,
    expand_kind_typing,
    kind_typing_for_view,
    maximal_typing_fixpoint,
    maximal_typing_store,
    retype_incremental,
)
from repro.engine.validation import ValidationEngine, _payload_from_typing
from repro.core.intervals import ONE
from repro.errors import GraphError
from repro.graphs import partition
from repro.graphs import store as store_module
from repro.graphs.graph import Graph
from repro.graphs.scc import backward_closure, strongly_connected_components
from repro.graphs.store import (
    KIND_COMPRESS_MIN_NODES,
    KIND_COMPRESS_MIN_RATIO,
    Delta,
    GraphStore,
    kind_compress,
)
from repro.obs import metrics as obs_metrics
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema
from repro.workloads.generators import DEFAULT_LABELS, random_shape_schema

SEEDS = [3, 11, 27, 42, 58]
STEPS = 6


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


def _copy_delta(rng: random.Random, graph: Graph, copies: int, labels) -> Delta:
    """A :func:`_random_delta` confined to one copy of a cloned graph."""
    copy_index = rng.randrange(copies)
    local = Graph.from_edges(
        (edge.source[1], edge.label, edge.target[1], edge.occur)
        for edge in graph.edges
        if edge.source[0] == copy_index
    )
    delta = _random_delta(rng, local, labels)
    return Delta.of(
        add=[((copy_index, s), label, (copy_index, t)) for s, label, t, _o in delta.added],
        remove=[((copy_index, s), label, (copy_index, t)) for s, label, t, _o in delta.removed],
    )


def _blocks(kind_of) -> frozenset:
    inverse = {}
    for node, kind in kind_of.items():
        inverse.setdefault(kind, set()).add(node)
    return frozenset(frozenset(members) for members in inverse.values())


def _rows(view, rename=lambda kind: kind) -> dict:
    """Each kind's quotient row, kinds renamed by ``rename``."""
    return {
        rename(kind): {
            (edge.label, rename(edge.target)): edge.occur.lower
            for edge in view.compressed.out_edges(kind)
        }
        for kind in view.members
    }


def _assert_view_parity(view, graph: Graph, context: str) -> None:
    """``view`` == a fresh ``kind_compress`` of ``graph``, up to renaming."""
    fresh = kind_compress(graph)
    assert _blocks(view.kind_of) == _blocks(fresh.kind_of), (
        f"{context}: view blocks diverged from kind_partition"
    )
    bijection = {view.kind_of[node]: fresh.kind_of[node] for node in graph.nodes}
    assert _rows(view, bijection.get) == _rows(fresh), (
        f"{context}: view quotient is not isomorphic to kind_compress"
    )
    assert set(view.compressed.nodes) == set(view.members)
    assert sum(len(nodes) for nodes in view.members.values()) == graph.node_count


#: Clone count of the DAG scenarios: edits stay inside copy 0.
DAG_COPIES = 8
DAG_SHAPES = ("chain", "tree", "powerlaw")
DAG_SCHEMA = (
    "Node -> label :: Lit, kid :: Node*, link :: Node?\n"
    "Pub -> title :: Lit, cites :: Pub*\n"
    "Cell -> first :: Lit, rest :: Cell?\n"
    "Lit -> eps\n"
)


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


#: The delta sequences of the view-parity suite: cyclic noise graphs (one
#: whose view is refused, one cloned so that it pays), the DAG shapes and
#: cloned bug trackers.
VIEW_SHAPES = ("noise", "cloned-noise") + DAG_SHAPES + ("bug-clones",)


def _view_scenario(shape: str, rng: random.Random):
    """``(graph, schema, next delta)`` for one :data:`VIEW_SHAPES` entry."""
    if shape in DAG_SHAPES:
        base, rank = _dag_base(shape, rng, 20)
        schema = parse_schema(DAG_SCHEMA, name="dag-shapes")
        return _cloned(base, DAG_COPIES), schema, lambda graph: _dag_delta(rng, graph, rank)
    if shape == "bug-clones":
        labels = sorted({edge.label for edge in bug_tracker_graph().edges})
        return (
            _cloned(bug_tracker_graph(), 12),
            bug_tracker_schema(),
            lambda graph: _copy_delta(rng, graph, 12, labels),
        )
    schema = random_shape_schema(4, rng=rng, name=f"view-{shape}")
    labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
    if shape == "noise":
        return (
            _noise_graph(rng, 80, 120, labels),
            schema,
            lambda graph: _random_delta(rng, graph, labels),
        )
    return (
        _cloned(_noise_graph(rng, 10, 16, labels), 10),
        schema,
        lambda graph: _copy_delta(rng, graph, 10, labels),
    )


def _frozen(view):
    return dict(view.kind_of), sorted(map(repr, view.compressed.edges))


class TestViewParity:
    @pytest.mark.parametrize("shape", VIEW_SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_view_at_every_version_equals_fresh_compression(self, shape, seed, monkeypatch):
        rng = random.Random(seed)
        graph, schema, next_delta = _view_scenario(shape, rng)
        store = GraphStore(graph)
        builds = []
        real_quotient_view = store_module.quotient_view
        monkeypatch.setattr(
            store_module,
            "quotient_view",
            lambda *args, **kwargs: builds.append(1) or real_quotient_view(*args, **kwargs),
        )
        held = None  # a view handed out at an earlier version, and its content
        before = obs_metrics.STATE.enabled
        obs_metrics.STATE.enabled = True
        try:
            for step in range(STEPS + 1):
                context = f"{shape} seed {seed} step {step}"
                if step:
                    try:
                        store.apply(next_delta(store.graph))
                    except GraphError:
                        continue  # the edit named an edge an earlier step removed
                built = len(builds)
                with obs.start_trace("test.view") as root:
                    view = store.typing_view()
                    assert store.typing_view() is view, context
                syncs = [child for child in root.children if child.name == "partition.sync"]
                nodes = store.graph.node_count
                assert len(syncs) == (nodes >= KIND_COMPRESS_MIN_NODES), context

                fresh = kind_compress(store.graph)
                pays = (
                    nodes >= KIND_COMPRESS_MIN_NODES
                    and fresh.kind_count * KIND_COMPRESS_MIN_RATIO <= nodes
                )
                assert (view is not None) == pays, context
                assert len(builds) - built == pays, f"{context}: quotient builds"
                if view is not None:
                    _assert_view_parity(view, store.graph, context)

                typing = maximal_typing_store(store, schema=schema)
                assert typing == maximal_typing_reference(store.graph, schema), context
                assert len(builds) - built == pays, f"{context}: typing rebuilt the view"

                if held is not None:
                    assert _frozen(held[0]) == held[1], f"{context}: an old view changed"
                if view is not None:
                    held = (view, _frozen(view))
        finally:
            obs_metrics.STATE.enabled = before


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
        kinds, path, refined = partition.build_partition(graph)
        assert kinds == partition._refine_rounds(graph, order)
        assert list(kinds) == order
        cyclic = _reaches_a_cycle(graph)
        assert refined == len(cyclic)
        assert path == ("rounds" if cyclic else "dag")

    def test_clone_document_refines_only_its_cycles(self):
        graph = _cloned(bug_tracker_graph(), 4)
        kinds, path, refined = partition.build_partition(graph)
        assert path == "rounds"
        assert 0 < refined < graph.node_count
        assert refined == len(_reaches_a_cycle(graph))
        assert kinds == partition._refine_rounds(graph, sorted(graph.nodes, key=repr))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kind_partition_dag_pass_equals_the_round_loop(self, seed):
        rng = random.Random(seed)
        for shape in DAG_SHAPES:
            graph, _rank = _dag_base(shape, rng, 40)
            graph = _cloned(graph, 2)
            kinds, path, refined = partition.build_partition(graph)
            assert (path, refined) == ("dag", 0)
            order = sorted(graph.nodes, key=repr)
            assert kinds == partition._refine_rounds(graph, order), (
                f"{shape} seed {seed}: kind ids differ from the round loop"
            )
            assert list(kinds) == order


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

    @pytest.mark.parametrize("shape", DAG_SHAPES)
    def test_incremental_typing_on_dag_stores(self, shape):
        # The first typing goes through the quotient; every later delta is
        # retyped by region, without building the view again.
        schema = parse_schema(DAG_SCHEMA, name="dag-shapes")
        modes = set()
        for seed in SEEDS[:3]:
            rng = random.Random(seed)
            base, rank = _dag_base(shape, rng, 20)
            store = GraphStore(_cloned(base, DAG_COPIES))  # enough clones for the view
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
            assert store.view_stats()["partition_version"] == 0
        assert "incremental" in modes
        assert modes <= {"incremental", "unchanged"}, modes

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
