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
EXTRA_SEEDS = [101, 211, 307, 401]


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
        rng = random.Random(seed)
        schema = random_shape_schema(3, rng=rng, name=f"shex0-z-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _compressed_noise_graph(rng, 7, labels)
        _assert_parity(graph, schema, compressed=True, seed=seed)

    @pytest.mark.parametrize("seed", COMPRESSED_SEEDS[:2])
    def test_general_shex_schema_on_compressed_graphs(self, seed):
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


class TestMoreSeedsParity:
    """The kernel vs the oracle on further seeded inputs, and on interval
    rules that stress the solver."""

    @pytest.mark.parametrize("seed", EXTRA_SEEDS)
    def test_random_graphs_match_oracle(self, seed):
        rng = random.Random(seed)
        schema = random_shape_schema(4, rng=rng, name=f"vec-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _noise_graph(rng, 12, 22, labels)
        oracle = maximal_typing_reference(graph, schema)
        assert maximal_typing_fixpoint(graph, schema) == oracle

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("seed", EXTRA_SEEDS[:2])
    def test_compressed_graphs_match_oracle(self, seed):
        rng = random.Random(seed)
        schema = random_shape_schema(3, rng=rng, name=f"vec-z-{seed}")
        labels = sorted(schema.labels()) or list(DEFAULT_LABELS[:3])
        graph = _compressed_noise_graph(rng, 7, labels)
        oracle = maximal_typing_reference(graph, schema, compressed=True)
        assert maximal_typing_fixpoint(graph, schema, compressed=True) == oracle

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("rules", _ADVERSARIAL_RULES)
    @pytest.mark.parametrize("seed", EXTRA_SEEDS[:2])
    def test_adversarial_interval_bounds_stress_the_solver(self, rules, seed):
        rng = random.Random(seed)
        schema = parse_schema(rules, name=f"adversarial-{seed}")
        labels = sorted(schema.labels())
        graph = _compressed_noise_graph(rng, 6, labels)
        oracle = maximal_typing_reference(graph, schema, compressed=True)
        assert maximal_typing_fixpoint(graph, schema, compressed=True) == oracle


#: Schemas for the label-seed suite.  ``extra`` is a label no rule mentions.
_SEED_SCHEMAS = {
    # Not RBE0: only allowed labels prune (no rule has group bounds).
    "non-rbe0": "T -> (a :: U | b :: T)*, c :: U?\nU -> (a :: T, b :: U) | eps",
    # RBE0 with a label required through one of several symbols, a label
    # whose symbols are all optional, and summed intervals of one symbol.
    "required": (
        "T -> a :: U, a :: V?, b :: T*\n"
        "U -> b :: V?, b :: U?, c :: V*\n"
        "V -> c :: U^[0;2], c :: U^[1;1], a :: T?\n"
        "W -> eps"
    ),
}
SEED_LABELS = ["a", "b", "c", "extra"]
SEED_SEEDS = [2, 17, 31, 64]


def _assert_seed_parity(graph, schema, compressed: bool, seed: int) -> None:
    from repro.engine.compiled import compile_schema

    compiled = compile_schema(schema)
    oracle = maximal_typing_reference(graph, schema, compressed=compressed)
    typing = maximal_typing_fixpoint(graph, compiled, compressed=compressed)
    assert typing == oracle, f"seed {seed}: seeded kernel diverged on {schema.name!r}"
    for node in graph.nodes:  # the seed never drops a type the oracle keeps
        labels = frozenset(
            edge.label
            for edge in graph.out_edges(node)
            if edge.occur.lower or not compressed
        )
        assert oracle.types_of(node) <= compiled.label_seed(labels), node


class TestLabelSeedParity:
    """The kernel starts a node from its label seed, not from all of Γ; the
    greatest fixpoint must stay the oracle's."""

    def test_seed_keeps_allowed_and_required_labels(self):
        from repro.engine.compiled import compile_schema

        compiled = compile_schema(parse_schema(_SEED_SCHEMAS["required"], name="req"))
        assert compiled.type_artifact("T").required_labels == {"a"}
        assert compiled.type_artifact("U").required_labels == frozenset()
        assert compiled.type_artifact("V").required_labels == {"c"}
        assert compiled.label_seed(frozenset({"a"})) == {"T"}
        assert compiled.label_seed(frozenset({"a", "c"})) == {"V"}
        assert compiled.label_seed(frozenset()) == {"U", "W"}
        assert compiled.label_seed(frozenset({"extra"})) == frozenset()
        loose = compile_schema(parse_schema(_SEED_SCHEMAS["non-rbe0"], name="loose"))
        assert all(
            loose.type_artifact(name).group_bounds is None for name in ("T", "U")
        )
        assert loose.label_seed(frozenset({"a", "b", "c"})) == {"T"}
        assert loose.label_seed(frozenset()) == {"T", "U"}

    @pytest.mark.parametrize("rules", sorted(_SEED_SCHEMAS))
    @pytest.mark.parametrize("seed", SEED_SEEDS)
    def test_plain_graphs(self, rules, seed):
        rng = random.Random(seed)
        schema = parse_schema(_SEED_SCHEMAS[rules], name=rules)
        _assert_seed_parity(_noise_graph(rng, 12, 20, SEED_LABELS), schema, False, seed)

    @pytest.mark.requires_scipy  # the oracle decides compressed checks by MILP
    @pytest.mark.parametrize("seed", SEED_SEEDS)
    def test_compressed_graphs_with_zero_multiplicity_edges(self, seed):
        rng = random.Random(seed)
        schema = parse_schema(_SEED_SCHEMAS["required"], name="required")
        graph = _compressed_noise_graph(rng, 9, SEED_LABELS)
        assert any(edge.occur.lower == 0 for edge in graph.edges)
        _assert_seed_parity(graph, schema, True, seed)

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("seed", SEED_SEEDS[:2])
    def test_compressed_graphs_of_a_non_rbe0_schema(self, seed):
        rng = random.Random(seed)
        schema = parse_schema(_SEED_SCHEMAS["non-rbe0"], name="non-rbe0")
        _assert_seed_parity(_compressed_noise_graph(rng, 6, SEED_LABELS), schema, True, seed)


def _expanded(graph: Graph) -> Graph:
    """``graph`` with each edge of multiplicity ``k`` as ``k`` parallel edges."""
    plain = Graph(f"expanded-{graph.name}")
    plain.add_nodes(graph.nodes)
    for edge in sorted(graph.edges, key=lambda edge: edge.edge_id):
        for _ in range(edge.occur.lower):
            plain.add_edge(edge.source, edge.label, edge.target)
    return plain


class TestRowMemoParity:
    """The row memo types one-node components with equal rows once; under
    the compressed semantics rows that differ only in an edge's multiplicity
    must not share types.  The oracle types the graph with each edge of
    multiplicity ``k`` expanded into ``k`` parallel edges under the plain
    semantics, so it needs no solver."""

    @pytest.mark.parametrize("seed", SEED_SEEDS)
    def test_compressed_copies_with_redrawn_multiplicities(self, seed):
        rng = random.Random(seed)
        schema = parse_schema(_SEED_SCHEMAS["required"], name="required")
        # Acyclic triples (edges go to lower indices), so most components
        # are single nodes, plus one self-loop.
        triples = {(f"c{i}", rng.choice(SEED_LABELS), f"c{rng.randrange(i)}")
                   for i in range(1, 9) for _ in range(rng.randint(0, 3))}
        triples.add(("c5", "b", "c5"))
        graph = Graph("compressed-copies")
        for copy in range(4):  # the same triples, multiplicities drawn anew
            graph.add_nodes((copy, f"c{i}") for i in range(9))
            for source, label, target in sorted(triples):
                multiplicity = rng.choice([0, 1, 2, 3])
                graph.add_edge(
                    (copy, source), label, (copy, target), (multiplicity, multiplicity)
                )
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(graph, schema, compressed=True, stats=stats)
        assert typing == maximal_typing_reference(_expanded(graph), schema), f"seed {seed}"
        assert stats.row_hits > 0

    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_parallel_edges_count_in_plain_rows(self, seed):
        # Every node has one or two parallel a-edges into alike sinks: its
        # row has the same keys either way, but not the same counts.
        rng = random.Random(seed)
        schema = parse_schema(
            "One -> a :: L, b :: One?\nTwo -> a :: L^[2;2], b :: One?\nL -> eps", name="counts"
        )
        graph = Graph("parallel")
        for index in range(24):
            for _ in range(rng.choice([1, 2])):
                graph.add_edge(f"n{index}", "a", f"l{rng.randrange(3)}")
            if index and rng.random() < 0.5:
                graph.add_edge(f"n{index}", "b", f"n{rng.randrange(index)}")
        stats = FixpointStats()
        typing = maximal_typing_fixpoint(graph, schema, stats=stats)
        assert typing == maximal_typing_reference(graph, schema), f"seed {seed}"
        assert stats.row_hits > 0
