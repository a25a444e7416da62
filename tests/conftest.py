"""Shared fixtures: the paper's running examples and small reusable schemas."""

from __future__ import annotations

import gc
import importlib.util
import random

import pytest

from repro.schema.parser import parse_schema
from repro.workloads.bugtracker import (
    bug_tracker_graph,
    bug_tracker_refactored_schema,
    bug_tracker_schema,
)
from repro.workloads.figures import (
    figure2_graph,
    figure2_schema,
    figure3_shape_graph,
    figure4_graph_g,
    figure4_graph_h,
)

HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_scipy: the test needs SciPy's MILP (the `solver` extra); "
        "it is skipped without SciPy",
    )


def pytest_runtest_setup(item):
    if not HAVE_SCIPY and item.get_closest_marker("requires_scipy"):
        pytest.skip(
            "needs SciPy's MILP, which decides the Presburger queries of rules "
            "that are not interval-RBE0 (install the `solver` extra)"
        )


@pytest.fixture(autouse=True)
def _collector_left_on():
    """Fail a test after which the cyclic collector is off: a leaked pause
    (see ``repro.util.gcpause``) would otherwise only show as a slow,
    growing process.  The collector is turned back on for the next test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def g0():
    return figure2_graph()


@pytest.fixture
def s0():
    return figure2_schema()


@pytest.fixture
def h0():
    return figure3_shape_graph()


@pytest.fixture
def fig4_g():
    return figure4_graph_g()


@pytest.fixture
def fig4_h():
    return figure4_graph_h()


@pytest.fixture
def bug_schema():
    return bug_tracker_schema()


@pytest.fixture
def bug_graph():
    return bug_tracker_graph()


@pytest.fixture
def bug_refactored():
    return bug_tracker_refactored_schema()


@pytest.fixture
def tiny_schema():
    """A three-type DetShEx0- schema used across unit tests."""
    return parse_schema(
        """
        root -> item :: entry*, owner :: person
        entry -> name :: person?
        person -> eps
        """,
        name="tiny",
    )
