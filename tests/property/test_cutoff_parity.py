"""Region retyping with the cut-off, against the full-rescan oracle at every step.

:meth:`repro.engine.validation.ValidationEngine.revalidate` retypes a delta's
node region from the prior typing, and the kernel leaves a component
of that region unchecked when nothing it reads came back changed
(:func:`repro.engine.fixpoint._stabilise_objects`).  The result is derived
copy-on-write from the prior typing (:meth:`repro.schema.typing.Typing.updated`).
This suite drives random cyclic graphs — self-loops included — through random
delta sequences: additions that let types grow back, removals that make them
shrink, edges to nodes the graph did not have, and undo steps that return a
store to earlier content, so the engine answers from its result cache and
must carry on from the cached typing.  After every step a direct
:func:`retype_incremental` run must equal
:func:`repro.schema.reference.maximal_typing_reference` on the new graph, and
so must the engine's answer and typing snapshot after every step it is asked
to revalidate — it skips some, and then retypes the delta composed over
several versions — under both semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.engine import fixpoint
from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import FixpointStats, retype_incremental
from repro.engine.validation import ValidationEngine, _payload_from_typing
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference

# Every rule is an interval RBE0, so both semantics decide it by the flow;
# P and Q reach each other, R needs one or two P-typed ``a`` successors.
SCHEMA = parse_schema(
    "P -> a :: P*, b :: Q\n"
    "Q -> a :: Q?, c :: P*\n"
    "R -> a :: P[1;2], b :: R*, c :: Q?\n",
    name="cutoff",
)
COMPILED = compile_schema(SCHEMA)
NODES = [f"n{i}" for i in range(7)]  # the first five start in the graph
LABELS = ("a", "b", "c")

_edges = st.tuples(
    st.sampled_from(NODES[:5]), st.sampled_from(LABELS), st.sampled_from(NODES[:5])
)
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(NODES), st.sampled_from(LABELS), st.sampled_from(NODES),
            st.integers(min_value=0, max_value=2),
        ),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10 ** 6)),
        st.tuples(st.just("undo")),
    ),
    min_size=1,
    max_size=8,
)
# Per step, whether the engine skips revalidating after it.
_pauses = st.lists(st.booleans(), max_size=8)


def _initial_graph(edges, compressed: bool) -> Graph:
    graph = Graph("cutoff")
    graph.add_nodes(NODES[:5])
    for source, label, target in edges:
        graph.add_edge(source, label, target, (1, 1) if compressed else None)
    return graph


def _delta(step, graph: Graph, history, compressed: bool):
    """The delta a step names on the current graph (``None`` when it names
    nothing)."""
    if step[0] == "add":
        _tag, source, label, target, count = step
        occur = Interval.singleton(count) if compressed else None
        entry = (source, label, target) if occur is None else (source, label, target, occur)
        return Delta.of(add=[entry])
    if step[0] == "remove":
        edges = sorted(graph.edges, key=lambda edge: edge.edge_id)
        if not edges:
            return None
        edge = edges[step[1] % len(edges)]
        return Delta.of(remove=[(edge.source, edge.label, edge.target, edge.occur)])
    return history[-1].inverse() if history else None


def _check_engine(engine, store, oracle, compressed: bool, context: str) -> None:
    outcome = engine.revalidate(store, COMPILED, compressed=compressed)
    _verdict, expected = _payload_from_typing(store.graph, oracle, compressed)
    assert outcome.result.payload == expected, f"{context}: {outcome.mode}"
    (snapshot,) = engine.export_typings(store)
    assert snapshot["version"] == store.version, context
    assert snapshot["typing"] == oracle, f"{context}: snapshot after {outcome.mode}"


def _run(edges, steps, compressed: bool, pauses=()) -> None:
    store = GraphStore(_initial_graph(edges, compressed))
    engine = ValidationEngine()
    engine.revalidate(store, COMPILED, compressed=compressed)
    (snapshot,) = engine.export_typings(store)
    prior = snapshot["typing"]
    history = []
    for index, step in enumerate(steps):
        delta = _delta(step, store.graph, history, compressed)
        if delta is None:
            continue
        store.apply(delta)
        history.append(store.diff(store.version - 1, store.version))
        oracle = maximal_typing_reference(store.graph, SCHEMA, compressed=compressed)
        context = f"step {index} {step} (compressed={compressed})"

        # No fallback: the region path runs whatever the region's size.
        stats = FixpointStats()
        direct = retype_incremental(
            store, prior, history[-1], compiled=COMPILED, compressed=compressed,
            stats=stats, max_affected_fraction=1.0,
        )
        assert stats.mode in ("incremental", "unchanged"), context
        assert direct == oracle, f"{context}: retype_incremental ({stats.mode})"
        assert direct.node_count == store.graph.node_count, context
        assert direct.untyped() == {n for n in store.graph.nodes if not oracle.types_of(n)}
        prior = direct

        if index < len(pauses) and pauses[index]:
            continue
        _check_engine(engine, store, oracle, compressed, context)
    oracle = maximal_typing_reference(store.graph, SCHEMA, compressed=compressed)
    _check_engine(engine, store, oracle, compressed, "end")


class TestCutoffParity:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_edges, max_size=12), _steps, _pauses)
    def test_plain_deltas_match_the_oracle(self, edges, steps, pauses):
        _run(edges, steps, False, pauses)

    @pytest.mark.requires_scipy  # the compressed oracle solves Presburger systems
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_edges, max_size=10), _steps, _pauses)
    def test_compressed_deltas_match_the_oracle(self, edges, steps, pauses):
        _run(edges, steps, True, pauses)

    def test_a_node_left_by_a_cancelled_edge_is_typed(self):
        # The edge to n6 is added and removed between two revalidations: the
        # composed delta is empty, but the store keeps the isolated node n6,
        # which the prior typing does not list.  It must get every type that
        # needs no edges.
        schema = parse_schema("P -> a :: L*\nL -> eps\n", name="isolated")
        store = GraphStore(_initial_graph([("n0", "a", "n1")], False))
        engine = ValidationEngine()
        assert engine.revalidate(store, schema).result.verdict == "valid"
        store.add_edge("n0", "a", "n6")
        store.remove_edge("n0", "a", "n6")
        outcome = engine.revalidate(store, schema)
        oracle = maximal_typing_reference(store.graph, schema)
        assert oracle.types_of("n6") == {"L", "P"}
        assert outcome.result.verdict == "valid"
        assert outcome.result.payload == _payload_from_typing(store.graph, oracle, False)[1]
        (snapshot,) = engine.export_typings(store)
        assert snapshot["typing"] == oracle


class TestCutoff:
    def test_a_rewire_that_keeps_types_checks_only_the_touched_nodes(self):
        # Chains r0 -> ... -> r9 and s0 -> ... -> s9 of P nodes, each with
        # its Q partner: moving r9's partner edge to q0 touches r9, q9 and
        # q0, no type changes, and the other nodes of the region are cut off.
        graph = Graph("chains")
        for chain in "rs":
            for index in range(10):
                graph.add_edge(f"{chain}{index}", "b", f"{chain}q{index}")
                if index:
                    graph.add_edge(f"{chain}{index - 1}", "a", f"{chain}{index}")
        store = GraphStore(graph)
        prior = fixpoint.maximal_typing_fixpoint(store.graph, compiled=COMPILED)
        assert "P" in prior.types_of("r0")
        delta = Delta.of(remove=[("r9", "b", "rq9")], add=[("r9", "b", "rq0")])
        store.apply(delta)
        stats = FixpointStats()
        typing = retype_incremental(store, prior, delta, compiled=COMPILED, stats=stats)
        assert typing == maximal_typing_reference(store.graph, SCHEMA)
        assert stats.mode == "incremental"
        assert stats.affected == 12  # r0..r9, rq9 and rq0
        # Only the touched nodes are checked: r0..r8 are cut off.
        assert stats.skipped == 9
        assert typing == prior  # nothing changed, so no overlay entry either
        assert typing.untyped() == prior.untyped()
