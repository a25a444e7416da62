"""Interval-RBE0 rules are decided by the flow under both semantics, without SciPy.

Regression for a wrong answer: compressed checks used to search each solver
variable over ``0..16`` only when SciPy was missing, so four hubs with twenty
leaves each came back invalid against ``Hub -> item :: Leaf*`` when their
kind quotient was typed under the compressed semantics.  Now such rules never
reach the solver, and a rule that does need it raises instead of guessing.
"""

from __future__ import annotations

import pytest

import repro.presburger.solver as solver
from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint
from repro.engine.validation import ValidationEngine
from repro.errors import PresburgerError
from repro.graphs.graph import Graph
from repro.graphs.store import GraphStore
from repro.presburger.solver import SolverWindow
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference
from repro.schema.validation import satisfies_type_compressed

HUBS, LEAVES = 4, 20


@pytest.fixture
def no_scipy(monkeypatch):
    monkeypatch.setattr(solver, "_HAVE_SCIPY", False)


def _hubs() -> Graph:
    graph = Graph("hubs")
    for hub in range(HUBS):
        for leaf in range(LEAVES):
            graph.add_edge(f"hub{hub}", "item", f"leaf{hub}-{leaf}")
    return graph


def _compressed_hubs() -> Graph:
    """The same hubs compressed: one ``item`` edge of multiplicity 20 each."""
    graph = Graph("compressed-hubs")
    for hub in range(HUBS):
        graph.add_edge(f"hub{hub}", "item", f"leaf{hub}", (LEAVES, LEAVES))
    return graph


def test_hub_store_revalidate_is_valid_without_a_solver(no_scipy):
    schema = parse_schema("Hub -> item :: Leaf*\nLeaf -> eps", name="hubs")
    store = GraphStore(_hubs())
    window = SolverWindow()
    with ValidationEngine() as engine:
        outcome = engine.revalidate(store, schema)
    assert outcome.mode == "full"
    assert outcome.result.verdict == "valid"
    stats = window.snapshot()
    assert (stats.batch_calls, stats.milp_calls) == (0, 0)


def test_plain_store_typing_of_non_interval_rule_needs_no_solver(no_scipy):
    # The kind quotient would type this rule under the compressed semantics,
    # which needs the MILP; plain typing keeps to the nodes and the row memo
    # types the alike hubs once.
    schema = parse_schema(
        f"Hub -> (item :: Leaf | tag :: Leaf)^[{LEAVES};{LEAVES}]\nLeaf -> eps", name="hub"
    )
    graph = _hubs()
    graph.add_edge("hub0", "tag", "leaf0-0")
    store = GraphStore(graph)
    expected = maximal_typing_reference(graph, schema)
    stats = FixpointStats()
    assert maximal_typing_fixpoint(store.graph, schema, stats=stats) == expected
    assert stats.mode == "full"
    assert stats.row_hits == graph.node_count - 3  # all but one leaf, hub0, hub1
    with ValidationEngine() as engine:
        outcome = engine.revalidate(store, schema)
    assert outcome.mode == "full"
    assert outcome.result.verdict == ("valid" if expected.is_total(graph) else "invalid")
    assert not expected.is_total(graph)  # hub0 has one edge too many


@pytest.mark.parametrize(
    "rule, typed",
    [
        ("item :: Leaf*", True),
        ("item :: Leaf^[18;22]", True),
        ("item :: Leaf^[8;12]", False),
        ("item :: Leaf^[8;12], item :: Leaf^[8;12]", True),
    ],
)
def test_compressed_fixpoint_decides_interval_rules(no_scipy, rule, typed):
    schema = parse_schema(f"Hub -> {rule}\nLeaf -> eps", name="hub")
    window = SolverWindow()
    stats = FixpointStats()
    typing = maximal_typing_fixpoint(_compressed_hubs(), schema, compressed=True, stats=stats)
    assert [(f"hub{hub}", "Hub") in typing for hub in range(HUBS)] == [typed] * HUBS
    assert stats.solver_problems == 0
    solved = window.snapshot()
    assert (solved.batch_calls, solved.milp_calls) == (0, 0)


def test_non_interval_rule_raises_without_scipy(no_scipy):
    schema = parse_schema(
        f"Hub -> (item :: Leaf | tag :: Leaf)^[{LEAVES};{LEAVES}]\nLeaf -> eps", name="hub"
    )
    graph = _compressed_hubs()
    with pytest.raises(PresburgerError, match="solver"):
        maximal_typing_fixpoint(graph, schema, compressed=True)
    with pytest.raises(PresburgerError, match="solver"):
        satisfies_type_compressed(graph, "hub0", "Hub", schema, {"leaf0": {"Leaf"}})
