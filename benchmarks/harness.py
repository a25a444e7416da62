"""What the gated benchmarks share: timing, baselines, reports and the clone workload.

``bench_fixpoint``, ``bench_incremental``, ``bench_obs_overhead``,
``bench_persist`` and ``bench_soak`` import it, and ``bench_validation``
takes its clone builder.  Each runs both as
``python benchmarks/bench_X.py`` (the script's directory is first on
``sys.path``) and under ``pytest benchmarks/bench_X.py`` (pytest puts the
directory of a test file outside any package on ``sys.path``).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.graphs.graph import Graph
from repro.workloads.bugtracker import bug_tracker_graph


def timed(fn, *args, repeats: int = 1, **kwargs):
    """``(result, seconds)``: the last call's result and the best of
    ``repeats`` wall times.

    The gates compare wall-clock *ratios*; the minimum of several runs strips
    one-off noise (collector pauses, noisy neighbours) from each side.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def load_baseline(path: pathlib.Path) -> dict:
    """A committed ``baseline_*.json``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_report(report: dict, path: pathlib.Path) -> None:
    """Write a ``BENCH_*.json`` report, keys sorted."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def bug_tracker_clone(copies: int) -> Graph:
    """``copies`` disjoint copies of the Figure 1 bug tracker; copy ``i``'s
    nodes are ``(i, node)``."""
    base = bug_tracker_graph()
    graph = Graph(f"bugs-x{copies}")
    for copy_index in range(copies):
        for edge in base.edges:
            graph.add_edge(
                (copy_index, edge.source), edge.label, (copy_index, edge.target)
            )
    return graph
