"""Property tests (hypothesis) for the bounded assignment behind the RBE0 check.

:func:`repro.util.assignment.feasible_assignment` decides, through a max-flow
with lower bounds, whether every item can join one of its allowed groups with
every group's load inside ``[lo; hi]``; :func:`feasible_split` is the same
flow with a count per item.  The oracles here enumerate every assignment or
split of small instances outright, decide plain checks of interval rules by
exact RBE membership, and decide compressed-graph checks of interval rules
through their Presburger encoding.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bags import Bag
from repro.engine.compiled import compile_schema
from repro.graphs.graph import Graph
from repro.presburger.solver import solve_existential
from repro.rbe.membership import rbe_matches
from repro.schema.parser import parse_schema
from repro.schema.typing import satisfies_type
from repro.schema.validation import compressed_formula, satisfies_type_compressed
from repro.util.assignment import feasible_assignment, feasible_split

GROUPS = ("g0", "g1", "g2", "g3")


@st.composite
def instances(draw):
    """Up to 7 items over up to 4 groups.

    Allowed lists may repeat a group or be empty; a lower bound may exceed the
    item count, an upper bound may be ``None`` or fall below the lower bound.
    """
    groups = GROUPS[: draw(st.integers(min_value=1, max_value=len(GROUPS)))]
    bounds = {
        group: (
            draw(st.integers(min_value=0, max_value=8)),
            draw(st.none() | st.integers(min_value=0, max_value=8)),
        )
        for group in groups
    }
    options = st.lists(st.sampled_from(groups), min_size=0, max_size=5)
    allowed = draw(st.dictionaries(st.integers(min_value=0, max_value=99), options, max_size=7))
    return allowed, bounds


def _within_loads(load, bounds) -> bool:
    return all(
        lo <= load[group] and (hi is None or load[group] <= hi)
        for group, (lo, hi) in bounds.items()
    )


def _brute_force_feasible(allowed, bounds) -> bool:
    items = list(allowed)
    choices = [sorted(set(allowed[item])) for item in items]
    return any(
        _within_loads(Counter(picked), bounds)
        for picked in itertools.product(*choices)
    )


class TestFeasibleAssignment:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_feasibility_matches_enumeration(self, instance):
        allowed, bounds = instance
        found = feasible_assignment(allowed, bounds)
        assert (found is not None) == _brute_force_feasible(allowed, bounds)

    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_returned_assignment_respects_lists_and_bounds(self, instance):
        allowed, bounds = instance
        found = feasible_assignment(allowed, bounds)
        if found is not None:
            assert set(found) == set(allowed)
            assert all(found[item] in allowed[item] for item in allowed)
            assert _within_loads(Counter(found.values()), bounds)


@st.composite
def counted_instances(draw):
    """Up to 4 items with counts up to 25 over up to 3 groups.

    Allowed lists may repeat a group or be empty; an upper bound may be
    ``None`` or fall below the lower bound.
    """
    groups = GROUPS[: draw(st.integers(min_value=1, max_value=3))]
    bounds = {}
    for group in groups:
        lo = draw(st.integers(min_value=0, max_value=25))
        bounds[group] = (lo, draw(st.none() | st.integers(min_value=lo - 2, max_value=60)))
    item = st.tuples(
        st.integers(min_value=0, max_value=25),
        st.lists(st.sampled_from(groups), min_size=0, max_size=4),
    )
    items = draw(st.dictionaries(st.integers(min_value=0, max_value=99), item, max_size=4))
    return items, bounds


def _compositions(total, parts):
    """Every way to write ``total`` as an ordered sum of ``parts`` naturals."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _brute_force_split_feasible(items, bounds) -> bool:
    """Enumerate every split of every item, merging equal capped load vectors.

    Loads are capped just past what decides a bound (``hi + 1``, or ``lo``
    when unbounded), so the set of reachable vectors stays small.
    """
    groups = list(bounds)
    caps = [lo if hi is None else hi + 1 for lo, hi in (bounds[g] for g in groups)]
    states = {tuple(0 for _ in groups)}
    for count, allowed in items.values():
        targets = [groups.index(group) for group in sorted(set(allowed))]
        grown = set()
        for split in _compositions(count, len(targets)):
            for state in states:
                loads = list(state)
                for index, units in zip(targets, split):
                    loads[index] = min(loads[index] + units, caps[index])
                grown.add(tuple(loads))
        states = grown
    return any(
        all(
            lo <= load and (hi is None or load <= hi)
            for load, (lo, hi) in zip(state, (bounds[g] for g in groups))
        )
        for state in states
    )


class TestFeasibleSplit:
    @given(counted_instances())
    @settings(max_examples=300, deadline=None)
    def test_feasibility_matches_split_enumeration(self, instance):
        items, bounds = instance
        found = feasible_split(items, bounds)
        assert (found is not None) == _brute_force_split_feasible(items, bounds)

    @given(counted_instances())
    @settings(max_examples=300, deadline=None)
    def test_returned_split_places_every_unit_within_bounds(self, instance):
        items, bounds = instance
        found = feasible_split(items, bounds)
        if found is not None:
            assert set(found) == set(items)
            load = Counter()
            for item, (count, allowed) in items.items():
                assert set(found[item]) <= set(allowed)
                assert sum(found[item].values()) == count
                load.update(found[item])
            assert _within_loads(load, bounds)


TYPES = ("U", "V", "W")


def _interval_check(draw, max_edges, max_multiplicity, max_lo, max_hi):
    """A rule ``T -> a :: U^[lo;hi], ...`` and the out-edges of one node.

    The rule has 1-5 atoms whose symbols may repeat.  Each edge has a label,
    a multiplicity and the candidate types of its target, drawn mostly among
    the types the rule pairs with that label so that many checks are
    satisfiable.
    """
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        lo = draw(st.integers(min_value=0, max_value=max_lo))
        hi = draw(st.none() | st.integers(min_value=lo, max_value=max_hi))
        atoms.append((draw(st.sampled_from(("a", "b"))), draw(st.sampled_from(TYPES)), lo, hi))
    rule = "T -> " + ", ".join(
        f"{label} :: {target}^[{lo};{'*' if hi is None else hi}]"
        for label, target, lo, hi in atoms
    )
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        label = draw(st.sampled_from(("a", "a", "a", "b", "b", "b", "c")))
        paired = sorted({target for atom_label, target, _, _ in atoms if atom_label == label})
        types = draw(st.frozensets(st.sampled_from(paired or list(TYPES)), min_size=1))
        if draw(st.booleans()):
            types |= {draw(st.sampled_from(TYPES))}
        multiplicity = draw(st.integers(min_value=0, max_value=max_multiplicity))
        edges.append((label, multiplicity, types))
    return rule, edges


@st.composite
def interval_checks(draw):
    """A compressed neighbourhood: up to 5 edges of multiplicity up to 25."""
    return _interval_check(draw, max_edges=5, max_multiplicity=25, max_lo=6, max_hi=40)


@st.composite
def plain_interval_checks(draw):
    """A plain neighbourhood: up to 6 edges, each counted once, against
    bounds small enough that the edges often reach them."""
    rule, edges = _interval_check(draw, max_edges=6, max_multiplicity=1, max_lo=2, max_hi=3)
    return rule, [(label, 1, types) for label, _, types in edges]


def _neighbourhood(rule, edges):
    """The schema of ``rule`` and one node ``n`` with ``edges``, typed."""
    schema = parse_schema(
        rule + "\n" + "\n".join(f"{name} -> eps" for name in TYPES), name="flow"
    )
    graph = Graph("neighbourhood")
    graph.add_node("n")
    typing = {}
    for index, (label, multiplicity, types) in enumerate(edges):
        graph.add_edge("n", label, f"x{index}", (multiplicity, multiplicity))
        typing[f"x{index}"] = set(types)
    return schema, graph, typing


class TestPlainFlowParity:
    @given(plain_interval_checks())
    @settings(max_examples=200, deadline=None)
    def test_flow_matches_rbe_membership(self, check):
        rule, edges = check
        schema, graph, typing = _neighbourhood(rule, edges)
        artifact = compile_schema(schema).type_artifact("T")
        assert artifact.group_bounds is not None
        # Every way to give each edge one of its candidate types in the rule's
        # alphabet, tested bag by bag for exact RBE membership.
        choices = [
            sorted(t for t in types if (label, t) in artifact.symbol_set)
            for label, _, types in edges
        ]
        bags = {
            frozenset(Counter(zip((label for label, _, _ in edges), picked)).items())
            for picked in itertools.product(*choices)
        }
        expected = any(rbe_matches(artifact.expr, Bag(dict(bag))) for bag in bags)
        flow = satisfies_type(graph, "n", "T", schema, typing, artifact=artifact)
        assert flow == expected


@pytest.mark.requires_scipy
class TestCompressedFlowParity:
    @given(interval_checks())
    @settings(max_examples=200, deadline=None)
    def test_flow_matches_presburger(self, check):
        rule, edges = check
        schema, graph, typing = _neighbourhood(rule, edges)
        artifact = compile_schema(schema).type_artifact("T")
        assert artifact.group_bounds is not None
        flow = satisfies_type_compressed(graph, "n", "T", schema, typing, artifact=artifact)
        formula = compressed_formula(graph, "n", typing, artifact)
        assert flow == (solve_existential(formula) is not None)
