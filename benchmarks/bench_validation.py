"""Validation scaling: ShEx0 (tractable) vs general ShEx (NP) type satisfaction.

Not a numbered table of the paper, but the substrate every containment result
relies on: validation of ShEx0 schemas uses the polynomial flow-based matching
([15], recalled in Section 2), while general shape expressions need the
NP membership machinery.  The benchmark validates the Figure 1 instance scaled
up by cloning, against the original (RBE0) schema and against the refactored
(ShEx0 but non-deterministic) schema from Section 1, plus a disjunctive
general-ShEx variant.
"""

import pytest

from harness import bug_tracker_clone
from repro.schema.shex import ShExSchema
from repro.schema.validation import satisfies
from repro.workloads.bugtracker import bug_tracker_refactored_schema, bug_tracker_schema

COPIES = [1, 4, 8]


def _general_shex_variant() -> ShExSchema:
    """A full-ShEx schema equivalent in spirit: a Bug's reporter is a user with or without email."""
    return ShExSchema(
        {
            "Bug": "descr :: Literal, reportedBy :: User, reproducedBy :: Employee?, related :: Bug*",
            "User": "(name :: Literal | name :: Literal || email :: Literal)",
            "Employee": "name :: Literal, email :: Literal",
            "Literal": "isLiteral :: Marker",
            "Marker": "eps",
        },
        name="bug-tracker-disjunctive",
    )


@pytest.mark.experiment("substrate")
@pytest.mark.parametrize("copies", COPIES)
def test_validation_detshex0_minus_schema(benchmark, copies):
    graph = bug_tracker_clone(copies)
    result = benchmark(satisfies, graph, bug_tracker_schema())
    assert result
    benchmark.extra_info["nodes"] = graph.node_count


@pytest.mark.experiment("substrate")
@pytest.mark.parametrize("copies", COPIES)
def test_validation_nondeterministic_shex0_schema(benchmark, copies):
    graph = bug_tracker_clone(copies)
    result = benchmark.pedantic(
        satisfies, args=(graph, bug_tracker_refactored_schema()), rounds=3, iterations=1
    )
    assert result
    benchmark.extra_info["nodes"] = graph.node_count


@pytest.mark.experiment("substrate")
@pytest.mark.parametrize("copies", [1, 4])
def test_validation_general_shex_schema(benchmark, copies):
    graph = bug_tracker_clone(copies)
    result = benchmark.pedantic(
        satisfies, args=(graph, _general_shex_variant()), rounds=3, iterations=1
    )
    assert result
    benchmark.extra_info["nodes"] = graph.node_count
