"""Retained naive maximal-typing implementations (parity oracle + baselines).

The production fixpoint lives in :mod:`repro.engine.fixpoint`; this module
preserves the two historical schedules it replaced, *unchanged in spirit*, so
that

* the property-style parity suite (``tests/property/test_fixpoint_parity.py``)
  can assert that the optimised kernel computes byte-identical maximal typings
  on randomized instances, and
* ``benchmarks/bench_fixpoint.py`` can quantify the kernel's speedup
  against the exact pre-kernel cost model.

Nothing here should be used on a hot path.  Neither semantics uses the flow
the kernel decides interval rules with, so the oracle stays an independent
decision procedure: plain checks enumerate splits under exact RBE membership
(:func:`repro.schema.typing.satisfies_groups_by_membership`), and compressed
checks decide every rule's Presburger formula with
:func:`repro.presburger.solver.solve_existential`: one dense MILP per
conjunct, not the elastic batch program the kernel decides them with (so they
need SciPy's MILP).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Set

from repro.graphs.graph import Graph
from repro.presburger.solver import solve_existential
from repro.schema.shex import ShExSchema, TypeName
from repro.schema.typing import (
    Typing,
    neighbourhood_groups,
    predecessor_map,
    satisfies_groups_by_membership,
)
from repro.schema.validation import compressed_formula

NodeId = Hashable


def _check(graph, node, type_name, current, artifacts, compressed: bool) -> bool:
    if compressed:
        # The Presburger encoding decided from scratch: an oracle independent
        # of the flow and of the kernel's elastic batch MILP.
        formula = compressed_formula(graph, node, current, artifacts[type_name])
        return solve_existential(formula) is not None
    artifact = artifacts[type_name]
    groups = neighbourhood_groups(graph, node, current, artifact.symbol_set, False)
    return groups is not None and satisfies_groups_by_membership(artifact.expr, groups)


def _artifacts(schema: ShExSchema, compiled):
    if compiled is None:
        from repro.engine.compiled import compile_schema

        compiled = compile_schema(schema)
    return {
        type_name: compiled.type_artifact(type_name) for type_name in schema.types
    }


def maximal_typing_worklist(
    graph: Graph,
    schema: ShExSchema,
    compiled=None,
    compressed: bool = False,
) -> Typing:
    """The pre-kernel node-level worklist (PR 1's fixpoint), both semantics.

    A node is re-examined — across *all* of its surviving types — whenever the
    type set of one of its successors shrank; types are re-sorted on every
    wake-up.  This is the exact schedule ``maximal_typing`` /
    ``maximal_typing_compressed`` used before the SCC kernel, kept as the
    benchmark baseline.
    """
    artifacts = _artifacts(schema, compiled)
    current: Dict[NodeId, Set[TypeName]] = {
        node: set(schema.types) for node in graph.nodes
    }
    predecessors = predecessor_map(graph)
    pending: deque = deque(sorted(graph.nodes, key=repr))
    queued: Set[NodeId] = set(pending)
    while pending:
        node = pending.popleft()
        queued.discard(node)
        shrunk = False
        for type_name in sorted(current[node]):
            if not _check(graph, node, type_name, current, artifacts, compressed):
                current[node].discard(type_name)
                shrunk = True
        if shrunk:
            for dependent in predecessors[node]:
                if dependent not in queued:
                    pending.append(dependent)
                    queued.add(dependent)
    return Typing(current)


def maximal_typing_reference(
    graph: Graph,
    schema: ShExSchema,
    compiled=None,
    compressed: bool = False,
) -> Typing:
    """The textbook full-rescan refinement: the parity suite's oracle.

    Every iteration re-checks *every* surviving ``(node, type)`` pair and the
    loop repeats until an iteration removes nothing.  Quadratically wasteful,
    but its correctness is evident from the greatest-fixpoint definition —
    which is the point of an oracle.
    """
    artifacts = _artifacts(schema, compiled)
    current: Dict[NodeId, Set[TypeName]] = {
        node: set(schema.types) for node in graph.nodes
    }
    changed = True
    while changed:
        changed = False
        for node in sorted(graph.nodes, key=repr):
            for type_name in sorted(current[node]):
                if not _check(graph, node, type_name, current, artifacts, compressed):
                    current[node].discard(type_name)
                    changed = True
    return Typing(current)
