"""Graph validation against shape expression schemas.

``G`` satisfies ``S`` when the maximal typing assigns at least one type to
every node of ``G``.  Two flavours are provided:

* :func:`satisfies` / :func:`validate` for plain (simple or multi-) graphs —
  the semantics of Section 2;
* :func:`satisfies_compressed` for compressed graphs, where edge multiplicities
  are exponents in the node signature.  Rules that flatten to per-symbol
  intervals are decided by the same flow as plain graphs, with capacities
  equal to the multiplicities; every other rule goes through the existential
  Presburger encoding of Section 6.1 (Proposition 6.2: this procedure is in
  NP).

All entry points accept an optional precompiled schema (see
:mod:`repro.engine.compiled`); the single-call forms are thin wrappers that
compile on the fly, so batch callers — the engine — can pay compilation once
and reuse it across jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Tuple

from repro.graphs.graph import Graph
from repro.schema.shex import ShExSchema, TypeName
from repro.schema.typing import (
    Typing,
    maximal_typing,
    neighbourhood_groups,
    satisfies_type_groups,
)

if TYPE_CHECKING:
    from repro.presburger.formula import Formula

NodeId = Hashable


@dataclass
class ValidationReport:
    """The outcome of validating a graph against a schema."""

    satisfied: bool
    typing: Typing
    untyped_nodes: Tuple[NodeId, ...]

    def __bool__(self) -> bool:
        return self.satisfied


def validate(graph: Graph, schema: ShExSchema, compiled=None) -> ValidationReport:
    """Compute the maximal typing and report whether every node is typed.

    ``compiled`` optionally supplies a pre-built
    :class:`repro.engine.compiled.CompiledSchema` for ``schema``; without it
    one is compiled (and interned) on the fly.
    """
    typing = maximal_typing(graph, schema, compiled=compiled)
    untyped = tuple(
        sorted((node for node in graph.nodes if not typing.types_of(node)), key=repr)
    )
    return ValidationReport(satisfied=not untyped, typing=typing, untyped_nodes=untyped)


def satisfies(graph: Graph, schema: ShExSchema, compiled=None) -> bool:
    """True when ``graph`` satisfies ``schema`` (every node gets at least one type)."""
    return validate(graph, schema, compiled=compiled).satisfied


# --------------------------------------------------------------------------- #
# Compressed graphs (Section 6.1)
# --------------------------------------------------------------------------- #
def compressed_formula(
    graph: Graph,
    node: NodeId,
    typing: Mapping[NodeId, Iterable[TypeName]],
    artifact,
) -> Formula:
    """The existential Presburger formula of one compressed-graph check.

    Every compressed edge ``e`` of multiplicity ``k`` introduces variables
    ``y_{e,τ}`` (how many of the ``k`` parallel edges take type ``τ``), subject
    to ``Σ_τ y_{e,τ} = k``; the per-symbol totals ``z_{a::τ}`` must satisfy
    ``ψ_{δ(t)}(z̄, 1)``.  This is exactly the encoding behind Proposition 6.2.
    The formula is ``FALSE`` when an edge of positive multiplicity has no
    candidate type.

    ``artifact`` is the rule's :class:`repro.engine.compiled.CompiledType`,
    whose ``ψ`` template is shared by every formula built here — its count
    variables are rebound through fresh per-call sum constraints, so sharing
    it is sound.  :func:`satisfies_type_compressed` and the memo-free oracle
    of :mod:`repro.schema.reference` each decide the formula their own way.
    """
    from repro.presburger.formula import (
        FALSE,
        Exists,
        LinearTerm,
        conjunction,
        eq,
        fresh_variable,
        var,
    )

    symbol_set = artifact.symbol_set
    bound: List[str] = []
    constraints = []
    contributions: Dict[Tuple[str, TypeName], List[str]] = {}
    for edge in graph.out_edges(node):
        multiplicity = edge.occur.lower
        target_types = typing.get(edge.target, ())
        options = [t for t in target_types if (edge.label, t) in symbol_set]
        if not options:
            if multiplicity > 0:
                return FALSE
            continue
        total = LinearTerm.of(0)
        for option in options:
            name = fresh_variable(f"y_{edge.edge_id}_{option}")
            bound.append(name)
            total = total + var(name)
            contributions.setdefault((edge.label, option), []).append(name)
        constraints.append(eq(total, multiplicity))

    z_vars, psi = artifact.presburger_template()
    for symbol in artifact.sorted_alphabet:
        total = LinearTerm.of(0)
        for contributor in contributions.get(symbol, ()):  # type: ignore[arg-type]
            total = total + var(contributor)
        constraints.append(eq(var(z_vars[symbol]), total))
    constraints.append(psi)
    bound.extend(z_vars.values())
    return Exists(tuple(bound), conjunction(constraints)) if bound else conjunction(constraints)


def satisfies_type_compressed(
    graph: Graph,
    node: NodeId,
    type_name: TypeName,
    schema: ShExSchema,
    typing: Mapping[NodeId, Iterable[TypeName]],
    artifact=None,
) -> bool:
    """Type satisfaction for compressed graphs (Section 6.1).

    A rule with per-symbol bounds is decided by the flow of
    :func:`repro.schema.typing.satisfies_type_groups`, with each group's count
    the summed multiplicity of its edges.  Any other rule is decided through
    its existential Presburger formula (:func:`compressed_formula`), which
    needs SciPy's MILP and raises :class:`repro.errors.PresburgerError`
    without it.

    ``artifact`` optionally carries the precompiled per-type data
    (:class:`repro.engine.compiled.CompiledType`); without it the schema is
    compiled (and interned) on the fly.
    """
    if artifact is None:
        from repro.engine.compiled import compile_schema

        artifact = compile_schema(schema).type_artifact(type_name)
    if artifact.group_bounds is None:
        from repro.presburger.solver import is_satisfiable

        return is_satisfiable(compressed_formula(graph, node, typing, artifact))
    groups = neighbourhood_groups(graph, node, typing, artifact.symbol_set, True)
    return groups is not None and satisfies_type_groups(artifact, groups)


def maximal_typing_compressed(graph: Graph, schema: ShExSchema, compiled=None) -> Typing:
    """The maximal typing of a compressed graph (Section 6.1 semantics).

    Delegates to the shared fixpoint kernel (:mod:`repro.engine.fixpoint`)
    with the compressed semantics enabled: components stabilise sinks-first,
    ``(node, type)`` pairs are only re-checked when a successor lost a type in
    that type's alphabet, and checks are deduplicated by neighbourhood
    signature.  Rules with per-symbol bounds are decided by the flow; each
    round's Presburger questions for the other rules are answered through one
    batched MILP invocation (:func:`repro.presburger.solver.solve_problems`)
    instead of one solver call per pair.

    The historical per-pair worklist is retained in
    :mod:`repro.schema.reference` for parity testing and benchmarking.
    """
    from repro.engine.fixpoint import maximal_typing_fixpoint

    return maximal_typing_fixpoint(graph, schema, compiled=compiled, compressed=True)


def satisfies_compressed(graph: Graph, schema: ShExSchema, compiled=None) -> bool:
    """True when the compressed graph satisfies the schema (Proposition 6.2)."""
    typing = maximal_typing_compressed(graph, schema, compiled=compiled)
    return typing.is_total(graph)
