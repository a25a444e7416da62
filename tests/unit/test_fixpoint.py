"""Unit tests for the fixpoint kernel, SCC scheduling, and solver batching."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint, retype_incremental
from repro.errors import PresburgerError
from repro.graphs.compressed import pack_simple_graph
from repro.graphs.graph import Graph
from repro.graphs.scc import condensation_order, strongly_connected_components
from repro.graphs.store import Delta, GraphStore
from repro.presburger import solver
from repro.presburger.formula import Exists, eq, le, var
from repro.presburger.solver import (
    SolverWindow,
    formula_to_problem,
    is_satisfiable,
    solve_existential,
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


def _disjunction_instance():
    """A ring of nodes under a repeated disjunction: not an interval rule."""
    schema = parse_schema(
        "T -> (a :: U | b :: U)^[3;3], c :: T*\nU -> a :: U?", name="batched"
    )
    graph = Graph("batched")
    for i in range(8):
        graph.add_edge(f"t{i}", "a", f"u{i}", (1 + i % 3, 1 + i % 3))
        graph.add_edge(f"t{i}", "b", f"u{i}", (i % 3, i % 3))
        graph.add_edge(f"t{i}", "c", f"t{(i + 1) % 8}", (1, 1))
    return graph, schema


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

    def test_signature_memo_collapses_clones(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        copies = 8
        base_stats = FixpointStats()
        base = maximal_typing_fixpoint(graph, schema, stats=base_stats)
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(_clone(graph, copies), schema, stats=stats)
        for node in graph.nodes:
            assert typing.types_of((0, node)) == base.types_of(node)
            assert typing.types_of((copies - 1, node)) == base.types_of(node)
        # Clone copies are isomorphic: the row memo (acyclic nodes) and the
        # component memo (the bug1/bug2 cycle) type every node of a later copy
        # without a check, leaving the evaluated count flat as copies grow.
        assert stats.evaluated == base_stats.evaluated
        assert stats.row_hits == base_stats.row_hits + (copies - 1) * graph.node_count
        assert stats.components == copies * len(strongly_connected_components(graph))

    def test_row_hits_are_tagged_on_the_kernel_spans(self):
        from repro import obs
        from repro.obs import metrics as obs_metrics

        graph, schema = _clone(bug_tracker_graph(), 4), bug_tracker_schema()
        store = GraphStore(graph)
        before = obs_metrics.STATE.enabled
        obs_metrics.STATE.enabled = True
        try:
            with obs.start_trace("test.rows") as root:
                full = FixpointStats()
                prior = maximal_typing_fixpoint(graph, schema, stats=full)
                bug3 = (1, "http://example.org/bugs#bug3")
                delta = Delta.of(remove=[(bug3, "descr", (1, "literal:Kabang!||"))])
                store.apply(delta)
                region = FixpointStats()
                retype_incremental(store, prior, delta, schema=schema, stats=region)
        finally:
            obs_metrics.STATE.enabled = before
        tags = {child.name: child.tags for child in root.children}
        assert full.row_hits > 0
        assert tags["fixpoint.full"]["row_hits"] == full.row_hits
        assert tags["fixpoint.incremental"]["row_hits"] == region.row_hits

    @pytest.mark.requires_scipy
    def test_compressed_batches_solver_calls(self):
        # A repeated disjunction is not an interval rule, so its compressed
        # checks reach the Presburger solver.
        graph, schema = _disjunction_instance()
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

    def test_plain_disjunction_is_decided_without_the_solver(self):
        # The instance of test_compressed_batches_solver_calls under the plain
        # semantics: its checks go through the same batched check, which
        # decides plain rules by bag matching, never by MILP.
        graph, schema = _disjunction_instance()
        window = SolverWindow()
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(graph, schema, stats=stats)
        solver = window.snapshot()
        assert (solver.sat_checks, solver.solver_calls) == (0, 0)
        assert stats.solver_problems == 0
        assert stats.rounds >= 1
        assert typing == maximal_typing_reference(graph, schema)

    @pytest.mark.requires_scipy
    def test_one_memo_serves_both_semantics(self):
        # With every multiplicity 1 a node has the same groups under both
        # semantics, so a memo filled by plain typing answers every
        # compressed check of the disjunction, which would otherwise go to
        # the solver.
        schema = parse_schema(
            "T -> (a :: U | b :: U)^[3;3], c :: T*\nU -> a :: U?", name="batched"
        )
        graph = Graph("unit")
        for i in range(8):  # a typed ring t0..t5; t6 and t7 lack an edge
            for j in range(3 if i < 6 else 2):
                graph.add_edge(f"t{i}", "ab"[j % 2], f"u{i}_{j}", (1, 1))
            if i < 6:
                graph.add_edge(f"t{i}", "c", f"t{(i + 1) % 6}", (1, 1))
        memo = {}
        plain = maximal_typing_fixpoint(graph, schema, signature_memo=memo)
        window = SolverWindow()
        stats = FixpointStats()
        compressed = maximal_typing_fixpoint(
            graph, schema, compressed=True, signature_memo=memo, stats=stats
        )
        assert window.snapshot().solver_calls == 0
        assert stats.solver_problems == 0 and stats.signature_hits > 0
        assert compressed == plain and len(plain.untyped()) == 2
        assert compressed == maximal_typing_reference(graph, schema, compressed=True)

    def test_compressed_interval_rules_never_reach_the_solver(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
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

    def test_edgeless_graph(self):
        schema = bug_tracker_schema()
        isolated = Graph("isolated")
        isolated.add_nodes(["a", "b"])
        assert maximal_typing_fixpoint(isolated, schema) == maximal_typing_reference(
            isolated, schema
        )

    def test_compressed_matches_plain_oracle(self):
        # Packing merges nothing here, so the compressed semantics of the
        # packed graph is the plain semantics of the original.
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        typing = maximal_typing_fixpoint(pack_simple_graph(graph), schema, compressed=True)
        assert typing == maximal_typing_reference(graph, schema)

    def test_schema_wider_than_64_types(self):
        # A chain schema of 70 types, typed along a 76-node path.
        lines = [f"T{i} -> a :: T{i + 1}?" for i in range(69)]
        lines.append("T69 -> eps")
        schema = parse_schema("\n".join(lines), name="wide-70")
        graph = Graph("chain")
        for i in range(75):
            graph.add_edge(f"n{i}", "a", f"n{i + 1}")
        assert maximal_typing_fixpoint(graph, schema) == maximal_typing_reference(
            graph, schema
        )

    def test_incremental_matches_from_scratch(self):
        schema = bug_tracker_schema()
        store = GraphStore(bug_tracker_graph())
        prior = maximal_typing_fixpoint(store.graph, schema)
        delta = Delta.of(add=[("bug2", "relatedTo", "bug1")])
        store.apply(delta)
        stats = FixpointStats()
        typing = retype_incremental(store, prior, delta, schema=schema, stats=stats)
        assert stats.mode == "incremental"
        assert typing == maximal_typing_reference(store.graph, schema)
        assert typing == maximal_typing_fixpoint(store.graph, schema)


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
        window = SolverWindow()
        batched = solve_problems(problems)
        assert batched == [True, False, False, True, True]
        stats = window.snapshot()
        assert stats.batch_calls == 1  # one MILP for the whole round
        window.reset()
        for formula, expected in zip(formulas, batched):
            assert is_satisfiable(formula) is expected
        # is_satisfiable takes the same elastic path: one batch per formula,
        # never the dense per-conjunct MILP.
        stats = window.snapshot()
        assert stats.milp_calls == 0
        assert stats.batch_calls == len(formulas)

    def test_trivial_problems_never_reach_the_solver(self):
        window = SolverWindow()
        assert solve_problems([(), (((), ()),)]) == [False, True]
        assert window.snapshot().solver_calls == 0

    @pytest.mark.requires_scipy
    def test_sat_then_tightened_unsat(self):
        # The same constraint matrix, first feasible, then with its bounds
        # tightened into infeasibility: the earlier verdict must not leak.
        assert is_satisfiable(eq(var("a") + var("b"), 3) & le(var("a") + var("b"), 5))
        assert not is_satisfiable(
            eq(var("c") + var("d"), 3) & le(var("c") + var("d"), 2)
        )

    @pytest.mark.requires_scipy
    def test_repeats_and_renamings_are_solved_afresh(self):
        # No verdict memo: a repeat and a variable renaming each run the
        # elastic MILP again, and all three agree.
        window = SolverWindow()
        formula = eq(var("m") + var("n"), 5) & le(var("m"), 2)
        renamed = eq(var("u") + var("w"), 5) & le(var("u"), 2)
        assert is_satisfiable(formula)
        assert is_satisfiable(formula)
        assert is_satisfiable(renamed)
        stats = window.snapshot()
        assert stats.sat_checks == 3
        assert stats.batch_calls == 3

    @pytest.mark.requires_scipy
    def test_bound_drift_solves_each_problem(self):
        # Two problems sharing a structure with a loosened inequality bound:
        # both are solved, and no warm start is ever counted.
        window = SolverWindow()
        assert solve_problems(
            [formula_to_problem(eq(var("x") + var("y"), 3) & le(var("x"), 1))]
        ) == [True]
        assert solve_problems(
            [formula_to_problem(eq(var("p") + var("q"), 3) & le(var("p"), 7))]
        ) == [True]
        stats = window.snapshot()
        assert stats.solver_calls == 2
        assert stats.warm_hits == 0 and stats.warm_misses == 0

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("seed", range(3))
    def test_elastic_verdicts_agree_with_dense_witnesses(self, seed):
        # The elastic batch and the oracle's dense witness finder are two
        # independent MILPs; they must agree, and every witness must hold.
        rng = random.Random(seed)
        names = ["x", "y", "z"]
        formulas = []
        for _ in range(12):
            atoms = []
            for _ in range(rng.randint(1, 3)):
                left = sum(
                    (rng.randint(-2, 3) * var(name) for name in rng.sample(names, 2)),
                    var(rng.choice(names)),
                )
                build = rng.choice((eq, le))
                atoms.append(build(left, rng.randint(-2, 6)))
            formula = atoms[0]
            for atom in atoms[1:]:
                formula = formula & atom
            formulas.append((formula, atoms))
        verdicts = solve_problems([formula_to_problem(f) for f, _ in formulas])
        for (formula, atoms), verdict in zip(formulas, verdicts):
            witness = solve_existential(formula, wanted=names)
            assert (witness is not None) is verdict, str(formula)
            if witness is not None:
                assert all(atom.evaluate(witness) for atom in atoms), str(formula)

    @pytest.mark.requires_scipy
    def test_failed_solve_raises(self, monkeypatch):
        # The elastic program is always feasible and bounded, so a failed
        # solve is a solver fault: it must surface, not be answered otherwise.
        solver._bind_scipy()
        failed = SimpleNamespace(success=False, x=None, message="injected fault")
        monkeypatch.setattr(solver, "_milp", lambda **_: failed)
        formula = eq(var("a") + var("b"), 2)
        with pytest.raises(PresburgerError, match="injected fault"):
            solve_problems([formula_to_problem(formula)])
        with pytest.raises(PresburgerError, match="injected fault"):
            is_satisfiable(formula)


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
