"""Property tests (hypothesis) for the bounded assignment behind the RBE0 check.

:func:`repro.util.assignment.feasible_assignment` decides, through a max-flow
with lower bounds, whether every item can join one of its allowed groups with
every group's load inside ``[lo; hi]``.  The oracle here enumerates every
assignment of small instances outright.
"""

import itertools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.assignment import feasible_assignment

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


def _within_bounds(assignment, bounds) -> bool:
    load = Counter(assignment.values())
    return all(
        lo <= load[group] and (hi is None or load[group] <= hi)
        for group, (lo, hi) in bounds.items()
    )


def _brute_force_feasible(allowed, bounds) -> bool:
    items = list(allowed)
    choices = [sorted(set(allowed[item])) for item in items]
    return any(
        _within_bounds(dict(zip(items, picked)), bounds)
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
            assert _within_bounds(found, bounds)
