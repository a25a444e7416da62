"""Parity of the fixpoint kernel against the naive full-rescan reference.

The SCC schedule, the (node, type) dirtiness discipline, the neighbourhood
signature memo, and the batched/memoised Presburger path of
:mod:`repro.engine.fixpoint` are all *schedules* over the same monotone
refinement operator, so the maximal typing they compute must be identical —
pair for pair — to the textbook full-rescan oracle retained in
:mod:`repro.schema.reference`.  This suite asserts exactly that on seeded,
randomized graphs and schemas, under both validation semantics, with the
intermediate pre-kernel worklist thrown in as a third opinion.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint
from repro.graphs.graph import Graph
from repro.presburger.solver import reset_solver_state
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_reference, maximal_typing_worklist
from repro.workloads.generators import (
    DEFAULT_LABELS,
    random_shape_schema,
    random_shex_schema,
    sample_instance,
)

PLAIN_SEEDS = [3, 7, 11, 19, 23, 42]
COMPRESSED_SEEDS = [5, 13, 29, 77]
VECTOR_SEEDS = [101, 211, 307, 401]


def _noise_graph(rng: random.Random, nodes: int, edges: int, labels) -> Graph:
    """An unconstrained random digraph: cycles, dead ends, parallel labels."""
    graph = Graph(f"noise-{nodes}x{edges}")
    names = [f"n{i}" for i in range(nodes)]
    graph.add_nodes(names)
    for _ in range(edges):
        graph.add_edge(rng.choice(names), rng.choice(labels), rng.choice(names))
    return graph


def _compressed_noise_graph(rng: random.Random, nodes: int, labels) -> Graph:
    """A random compressed graph: singleton intervals, unique (s, a, t) triples."""
    graph = Graph(f"compressed-noise-{nodes}")
    names = [f"c{i}" for i in range(nodes)]
    graph.add_nodes(names)
    seen = set()
    for _ in range(nodes * 3):
        triple = (rng.choice(names), rng.choice(labels), rng.choice(names))
        if triple in seen:
            continue
        seen.add(triple)
        multiplicity = rng.choice([0, 1, 1, 2, 3])
        source, label, target = triple
        graph.add_edge(source, label, target, (multiplicity, multiplicity))
    return graph


def _assert_parity(graph, schema, compressed: bool, seed: int) -> None:
    stats = FixpointStats()
    kernel = maximal_typing_fixpoint(graph, schema, compressed=compressed, stats=stats)
    oracle = maximal_typing_reference(graph, schema, compressed=compressed)
    worklist = maximal_typing_worklist(graph, schema, compressed=compressed)
    assert kernel == oracle, (
        f"seed {seed}: kernel disagrees with the full-rescan oracle on "
        f"{graph.name!r} / {schema.name!r} (compressed={compressed})\n"
        f"kernel:\n{kernel}\noracle:\n{oracle}"
    )
    assert worklist == oracle, f"seed {seed}: worklist baseline disagrees with oracle"
    assert stats.checks > 0


class TestPlainSemantics:
    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_shape_schema_on_valid_and_noise_graphs(self, seed):
        rng = random.Random(seed)
        schema = random_shape_schema(4, rng=rng, name=f"shex0-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        instance = sample_instance(schema, rng=rng, max_nodes=16, verify=False)
        graphs = [_noise_graph(rng, 10, 18, labels)]
        if instance is not None:
            graphs.append(instance)
        for graph in graphs:
            _assert_parity(graph, schema, compressed=False, seed=seed)

    @pytest.mark.parametrize("seed", PLAIN_SEEDS[:3])
    def test_general_shex_schema_on_noise_graphs(self, seed):
        rng = random.Random(seed)
        schema = random_shex_schema(3, rng=rng, name=f"shex-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _noise_graph(rng, 8, 12, labels)
        _assert_parity(graph, schema, compressed=False, seed=seed)


@pytest.mark.requires_scipy
class TestCompressedSemantics:
    @pytest.mark.parametrize("seed", COMPRESSED_SEEDS)
    def test_shape_schema_on_compressed_graphs(self, seed):
        reset_solver_state()  # independent runs: no cross-seed memo reuse
        rng = random.Random(seed)
        schema = random_shape_schema(3, rng=rng, name=f"shex0-z-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _compressed_noise_graph(rng, 7, labels)
        _assert_parity(graph, schema, compressed=True, seed=seed)

    @pytest.mark.parametrize("seed", COMPRESSED_SEEDS[:2])
    def test_general_shex_schema_on_compressed_graphs(self, seed):
        reset_solver_state()
        rng = random.Random(seed)
        schema = random_shex_schema(3, rng=rng, name=f"shex-z-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _compressed_noise_graph(rng, 6, labels)
        _assert_parity(graph, schema, compressed=True, seed=seed)


#: Rules whose explicit RBE0-style intervals force non-trivial Presburger
#: systems — wide windows, exact repetition counts, disjunction under a
#: bounded repetition — the shapes that stress the MILP rather than the
#: unfolding-free fast paths.
_ADVERSARIAL_RULES = [
    "T -> a :: U^[2;5], b :: U?\nU -> eps",
    "T -> (a :: U | b :: U)^[3;3], c :: T*\nU -> a :: U?",
    "T -> a :: U^[0;2], a :: U^[1;4]\nU -> b :: T*",
    "T -> (a :: U, b :: U)^[2;2] | c :: T+\nU -> eps",
]


class TestVectorizedKernelParity:
    """Each fixpoint kernel vs the oracle, pinned through the ``kernel`` fixture.

    The suites above run whichever kernel the install binds (the vectorised
    one when numpy imports); these cases run *both* kernels on the same
    seeded inputs so a parity break cannot hide behind the install.
    """

    @pytest.mark.parametrize("seed", VECTOR_SEEDS)
    def test_bitset_rounds_match_oracle_on_random_graphs(
        self, seed, kernel, traced_kernels
    ):
        rng = random.Random(seed)
        schema = random_shape_schema(4, rng=rng, name=f"vec-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _noise_graph(rng, 12, 22, labels)
        oracle = maximal_typing_reference(graph, schema)
        typing, ran = traced_kernels(lambda: maximal_typing_fixpoint(graph, schema))
        assert typing == oracle
        assert ran == [kernel]  # proves the pinned kernel ran

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("seed", VECTOR_SEEDS[:2])
    def test_bitset_rounds_match_oracle_on_compressed_graphs(self, seed, kernel):
        reset_solver_state()
        rng = random.Random(seed)
        schema = random_shape_schema(3, rng=rng, name=f"vec-z-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _compressed_noise_graph(rng, 7, labels)
        oracle = maximal_typing_reference(graph, schema, compressed=True)
        assert maximal_typing_fixpoint(graph, schema, compressed=True) == oracle

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("rules", _ADVERSARIAL_RULES)
    @pytest.mark.parametrize("seed", VECTOR_SEEDS[:2])
    def test_adversarial_interval_bounds_stress_the_solver(self, rules, seed, kernel):
        reset_solver_state()
        rng = random.Random(seed)
        schema = parse_schema(rules, name=f"adversarial-{seed}")
        labels = sorted(schema.labels())
        graph = _compressed_noise_graph(rng, 6, labels)
        oracle = maximal_typing_reference(graph, schema, compressed=True)
        assert maximal_typing_fixpoint(graph, schema, compressed=True) == oracle
