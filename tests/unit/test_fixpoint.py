"""Unit tests for the fixpoint kernel, SCC scheduling, and solver batching."""

from __future__ import annotations

import random

import pytest

from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint
from repro.graphs.graph import Graph
from repro.graphs.scc import condensation_order, strongly_connected_components
from repro.presburger.formula import Exists, eq, le, var
from repro.presburger.solver import (
    SolverWindow,
    formula_to_problem,
    is_satisfiable,
    problem_fingerprint,
    reset_solver_state,
    solve_problems,
)
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference
from repro.schema.typing import (
    Typing,
    satisfies_groups_by_membership,
    satisfies_type,
    satisfies_type_groups,
)
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema


def _clone(graph: Graph, copies: int) -> Graph:
    clone = Graph(f"{graph.name}-x{copies}")
    for index in range(copies):
        for edge in graph.edges:
            clone.add_edge(
                (index, edge.source), edge.label, (index, edge.target), edge.occur
            )
    return clone


class TestStronglyConnectedComponents:
    def test_dag_yields_singletons_sinks_first(self):
        graph = Graph.from_triples([("a", "x", "b"), ("b", "x", "c"), ("a", "x", "c")])
        components = strongly_connected_components(graph)
        assert [set(c) for c in components] == [{"c"}, {"b"}, {"a"}]

    def test_cycle_collapses_into_one_component(self):
        graph = Graph.from_triples(
            [("a", "x", "b"), ("b", "x", "c"), ("c", "x", "a"), ("c", "x", "d")]
        )
        components = strongly_connected_components(graph)
        assert [set(c) for c in components] == [{"d"}, {"a", "b", "c"}]
        # Restricted to a node set, edges leaving it are ignored: no cycle.
        region = strongly_connected_components(graph, {"b", "c", "d"})
        assert region == [("d",), ("c",), ("b",)]

    def test_edges_never_point_at_later_components(self):
        rng = random.Random(7)
        graph = Graph("random")
        names = [f"n{i}" for i in range(30)]
        graph.add_nodes(names)
        for _ in range(60):
            graph.add_edge(rng.choice(names), "a", rng.choice(names))
        components, component_of = condensation_order(graph)
        assert sorted(n for c in components for n in c) == sorted(names)
        for edge in graph.edges:
            assert component_of[edge.target] <= component_of[edge.source]

    def test_deep_path_does_not_recurse(self):
        graph = Graph("deep")
        for i in range(3000):
            graph.add_edge(i, "a", i + 1)
        components = strongly_connected_components(graph)
        assert len(components) == 3001  # a 3001-node path: one SCC per node
        assert components[0] == (3000,)  # the sink comes first


class TestFixpointKernel:
    def test_matches_oracle_on_bug_tracker(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        assert maximal_typing_fixpoint(graph, schema) == maximal_typing_reference(
            graph, schema
        )

    def test_requires_schema_or_compiled(self):
        with pytest.raises(ValueError, match="schema or a compiled"):
            maximal_typing_fixpoint(Graph("empty"))

    def test_accepts_precompiled_schema_positionally(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        compiled = compile_schema(schema)
        assert maximal_typing_fixpoint(graph, compiled) == maximal_typing_fixpoint(
            graph, schema
        )

    @pytest.mark.parametrize("kernel", ["object"], indirect=True)
    def test_signature_memo_collapses_clones(self, kernel):
        # The component count below encodes the SCC-driven schedule of the
        # object kernel; the vectorised kernel runs global Jacobi rounds and
        # reports components == 0, so pin this test to the object kernel.
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        copies = 8
        base_stats = FixpointStats()
        base = maximal_typing_fixpoint(graph, schema, stats=base_stats)
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(_clone(graph, copies), schema, stats=stats)
        for node in graph.nodes:
            assert typing.types_of((0, node)) == base.types_of(node)
            assert typing.types_of((copies - 1, node)) == base.types_of(node)
        # Clone copies are isomorphic: the signature memo must absorb every
        # repeated check, leaving the evaluated count flat as copies grow.
        assert stats.evaluated == base_stats.evaluated
        assert stats.signature_hits > base_stats.signature_hits
        assert stats.components == copies * len(strongly_connected_components(graph))

    @pytest.mark.requires_scipy
    def test_compressed_batches_solver_calls(self):
        # A repeated disjunction is not an interval rule, so its compressed
        # checks reach the Presburger solver.
        schema = parse_schema(
            "T -> (a :: U | b :: U)^[3;3], c :: T*\nU -> a :: U?", name="batched"
        )
        graph = Graph("batched")
        for i in range(8):
            graph.add_edge(f"t{i}", "a", f"u{i}", (1 + i % 3, 1 + i % 3))
            graph.add_edge(f"t{i}", "b", f"u{i}", (i % 3, i % 3))
            graph.add_edge(f"t{i}", "c", f"t{(i + 1) % 8}", (1, 1))
        reset_solver_state()
        window = SolverWindow()
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(graph, schema, compressed=True, stats=stats)
        solver = window.snapshot()
        assert typing == maximal_typing_reference(graph, schema, compressed=True)
        assert stats.rounds >= 1
        assert stats.solver_problems > 0
        # Batching: far fewer solver invocations than problems solved.
        assert solver.batch_calls < stats.solver_problems
        assert solver.milp_calls == 0  # everything went through the batch path

    def test_compressed_interval_rules_never_reach_the_solver(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        reset_solver_state()
        window = SolverWindow()
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(graph, schema, compressed=True, stats=stats)
        assert typing == maximal_typing_fixpoint(graph, schema)
        assert stats.rounds >= 1
        assert stats.solver_problems == 0
        assert window.snapshot().solver_calls == 0

    def test_empty_graph(self):
        typing = maximal_typing_fixpoint(Graph("empty"), bug_tracker_schema())
        assert typing.domain() == set()


class TestTypingPairs:
    def test_pairs_precomputed_and_frozen(self):
        typing = Typing({"n": {"t", "s"}, "m": set()})
        assert typing.pairs() == frozenset({("n", "t"), ("n", "s")})
        assert typing.pairs() is typing.pairs()  # no per-call rebuild
        with pytest.raises(AttributeError):
            typing.pairs().add(("m", "t"))

    def test_equality_and_hash_consistency(self):
        left = Typing({"n": {"t"}, "m": set()})
        right = Typing({"n": frozenset({"t"})})
        assert left == right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1
        assert left != Typing({"n": {"t", "s"}})


class TestSatisfiesTypeGroups:
    def test_flow_agrees_with_rbe_membership(self):
        # An explicit-interval rule whose 'a' edges may take two types: the
        # flow must agree with enumerating every split under RBE membership.
        schema = parse_schema(
            "T -> a :: U^[2;3], a :: V?, b :: U?\nU -> eps\nV -> eps", name="groups"
        )
        artifact = compile_schema(schema).type_artifact("T")
        assert artifact.group_bounds is not None
        cases = [
            {("a", ("U",)): 1, ("b", ("U",)): 1},
            {("a", ("U",)): 2, ("b", ("U",)): 1},
            {("a", ("U", "V")): 4},
            {("a", ("U", "V")): 5},
            {("a", ("V",)): 2, ("a", ("U",)): 2},
            {("a", ("U", "V")): 3, ("b", ("U",)): 2},
        ]
        verdicts = [satisfies_type_groups(artifact, groups) for groups in cases]
        assert verdicts == [
            satisfies_groups_by_membership(artifact.expr, groups) for groups in cases
        ]
        assert verdicts == [False, True, True, False, False, False]

    def test_satisfies_type_fails_an_edge_without_candidates(self):
        schema = parse_schema("T -> a :: U*\nU -> eps", name="groups")
        graph = Graph.from_triples([("x", "a", "y"), ("x", "a", "z")])
        assert satisfies_type(graph, "x", "T", schema, {"y": {"U"}, "z": {"U"}})
        assert not satisfies_type(graph, "x", "T", schema, {"y": {"U"}, "z": set()})


class TestSolverBatching:
    def test_fingerprint_invariant_under_renaming(self):
        left = formula_to_problem(eq(var("x") + var("y"), 3) & le(var("x"), 1))
        right = formula_to_problem(eq(var("p") + var("q"), 3) & le(var("p"), 1))
        assert problem_fingerprint(left) == problem_fingerprint(right)
        different = formula_to_problem(eq(var("p") + var("q"), 4) & le(var("p"), 1))
        assert problem_fingerprint(left) != problem_fingerprint(different)

    @pytest.mark.requires_scipy
    def test_solve_problems_matches_individual_satisfiability(self):
        formulas = [
            eq(var("a") + var("b"), 2),                       # sat
            eq(var("a"), 1) & eq(var("a"), 2),                # unsat
            le(var("c"), 5) & eq(2 * var("c"), 7),            # unsat (parity)
            eq(var("d"), 0) | eq(var("d"), 9),                # sat (disjunction)
            Exists(("h",), eq(var("h") + var("g"), 1)),       # sat
        ]
        problems = [formula_to_problem(formula) for formula in formulas]
        reset_solver_state()
        window = SolverWindow()
        batched = solve_problems(problems)
        assert batched == [True, False, False, True, True]
        stats = window.snapshot()
        assert stats.batch_calls == 1  # one MILP for the whole round
        for formula, expected in zip(formulas, batched):
            assert is_satisfiable(formula) is expected

    @pytest.mark.requires_scipy
    def test_memo_answers_repeats(self):
        reset_solver_state()
        window = SolverWindow()
        formula = eq(var("m") + var("n"), 5) & le(var("m"), 2)
        assert is_satisfiable(formula)
        before = window.snapshot()
        assert is_satisfiable(eq(var("u") + var("w"), 5) & le(var("u"), 2))
        after = window.snapshot()
        assert after.memo_hits == before.memo_hits + 1
        assert after.solver_calls == before.solver_calls  # nothing re-solved

    def test_trivial_problems_never_reach_the_solver(self):
        reset_solver_state()
        window = SolverWindow()
        assert solve_problems([(), (((), ()),)]) == [False, True]
        assert window.snapshot().solver_calls == 0

    @pytest.mark.requires_scipy
    def test_warm_start_reuses_witness_across_bound_drift(self):
        reset_solver_state()
        window = SolverWindow()
        # First solve harvests a witness for the conjunct's bounds-free
        # structure; the second shares that structure with a loosened
        # inequality bound, so the witness still verifies and no new
        # optimisation run is needed.
        assert solve_problems(
            [formula_to_problem(eq(var("x") + var("y"), 3) & le(var("x"), 1))]
        ) == [True]
        assert solve_problems(
            [formula_to_problem(eq(var("p") + var("q"), 3) & le(var("p"), 7))]
        ) == [True]
        stats = window.snapshot()
        assert stats.warm_hits == 1
        assert stats.solver_calls == 1  # only the harvesting solve ran

    @pytest.mark.requires_scipy
    def test_warm_start_never_answers_unsat_from_the_cache(self):
        reset_solver_state()
        # Harvest a witness, then tighten the bounds into infeasibility: the
        # stale witness must not leak a positive verdict.
        assert is_satisfiable(eq(var("a") + var("b"), 3) & le(var("a") + var("b"), 5))
        assert not is_satisfiable(
            eq(var("c") + var("d"), 3) & le(var("c") + var("d"), 2)
        )


class TestCompiledAdditions:
    def test_type_order_is_sorted_and_cached(self):
        compiled = compile_schema(bug_tracker_schema())
        order = compiled.type_order
        assert list(order) == sorted(compiled.schema.types)
        assert compiled.type_order is order

    def test_symbol_watchers_invert_the_alphabets(self):
        compiled = compile_schema(bug_tracker_schema())
        watchers = compiled.symbol_watchers()
        assert watchers[("reportedBy", "User")] == ("Bug",)
        assert set(watchers[("name", "Literal")]) == {"Employee", "User"}
        for symbol, types in watchers.items():
            for type_name in types:
                assert symbol in compiled.type_artifact(type_name).symbol_set

    def test_normalised_template_cached_and_consistent(self):
        compiled = compile_schema(bug_tracker_schema())
        artifact = compiled.type_artifact("User")
        z_vars, conjuncts = artifact.normalised_template()
        assert artifact.normalised_template() is artifact.normalised_template()
        assert set(z_vars) == set(artifact.sorted_alphabet)
        assert conjuncts  # a satisfiable rule has at least one feasible shape
