"""Incremental-revalidation acceptance + regression benchmark (ISSUE 4).

Quantifies :func:`repro.engine.fixpoint.retype_incremental` against a full
kernel re-run on the cloned bug-tracker workload: a ×32 clone instance
(hundreds of nodes) takes a ≤1%-of-edges delta inside one copy, and the
delta-seeded retyping must

* agree pair-for-pair with a from-scratch :func:`maximal_typing_fixpoint` of
  the changed graph (parity);
* touch only the delta's affected region — one clone copy, not the graph
  (the machine-independent gate: ``affected ≤ nodes / copies``);
* beat the full re-run by at least ``MIN_SPEEDUP``× wall clock.

Results are written to ``BENCH_incremental.json`` and compared against the
committed ``benchmarks/baseline_incremental.json``: the run fails when the
machine-independent *speedup ratio* falls more than 25% below its committed
baseline, extending the CI regression gate to the incremental path.

Run directly (``python benchmarks/bench_incremental.py``) or via pytest
(``pytest benchmarks/bench_incremental.py``).
"""

from __future__ import annotations

import pathlib

from harness import bug_tracker_clone, load_baseline, timed, write_report
from repro import obs
from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import (
    FixpointStats,
    affected_region,
    maximal_typing_fixpoint,
    retype_incremental,
)
from repro.graphs.store import Delta, GraphStore
from repro.workloads.bugtracker import bug_tracker_schema

COPIES = 32
#: Acceptance floor (ISSUE 4) and the tolerated slide against the baseline.
MIN_SPEEDUP = 5.0
REGRESSION_TOLERANCE = 0.25
REPEATS = 5

HERE = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline_incremental.json"
REPORT_PATH = pathlib.Path("BENCH_incremental.json")

PREFIX = "http://example.org/bugs#"


def _small_delta(copy_index: int) -> Delta:
    """A ≤1%-of-edges edit confined to one clone copy.

    Three ops on a ~860-edge instance (≈0.35%): strip one bug's description
    (invalidating its referrers), and rewire a ``related`` reference.
    """
    bug3 = (copy_index, f"{PREFIX}bug3")
    bug4 = (copy_index, f"{PREFIX}bug4")
    bug1 = (copy_index, f"{PREFIX}bug1")
    return Delta.of(
        remove=[
            (bug3, "descr", (copy_index, "literal:Kabang!||")),
            ((copy_index, f"{PREFIX}bug2"), "related", bug3),
        ],
        add=[(bug4, "related", bug1)],
    )


def measure_incremental_speedup() -> dict:
    schema = bug_tracker_schema()
    compiled = compile_schema(schema)
    store = GraphStore(bug_tracker_clone(COPIES))
    graph = store.graph
    delta = _small_delta(copy_index=3)

    # The prior full run also warms the per-schema signature memo — exactly
    # what ValidationEngine.revalidate carries between versions of a store.
    memo: dict = {}
    prior = maximal_typing_fixpoint(graph, compiled=compiled, signature_memo=memo)
    store.apply(delta)

    # The contender re-runs the whole graph from scratch (cold memo per run),
    # which is what every layer did before the store existed.
    full_typing, full_seconds = timed(
        maximal_typing_fixpoint, graph, compiled=compiled, repeats=REPEATS
    )
    incremental_typing, incremental_seconds = timed(
        retype_incremental, store, prior, delta, compiled=compiled,
        signature_memo=memo, repeats=REPEATS,
    )
    # A dedicated run for the counters (stats accumulate across repeats).
    stats = FixpointStats()
    retype_incremental(store, prior, delta, compiled=compiled, stats=stats)

    assert incremental_typing == full_typing, "incremental typing diverged"
    assert stats.mode == "incremental", f"unexpected mode {stats.mode!r}"
    # Machine-independent gate: the retyped region must stay confined to the
    # touched copy — clones are disjoint, so the backward closure cannot leak.
    per_copy = graph.node_count // COPIES + 1
    assert stats.affected <= per_copy, (
        f"affected region leaked: {stats.affected} nodes retyped on a delta "
        f"confined to one ~{per_copy}-node copy"
    )
    delta_share = len(delta) / graph.edge_count
    assert delta_share <= 0.01, f"delta is {delta_share:.2%} of edges, not ≤1%"

    # Micro-gate: computing the affected region (the backward-closure BFS
    # over in_edges) must stay a negligible slice of the retype it serves.
    touched = [node for node in delta.touched_nodes() if graph.has_node(node)]
    _, region_seconds = timed(affected_region, graph, touched, repeats=REPEATS)
    region_share = region_seconds / incremental_seconds
    assert region_share < 0.05, (
        f"affected-region computation took {region_share:.1%} of the "
        f"incremental retype — the backward closure should stay <5% of it"
    )
    return {
        "copies": COPIES,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "delta_edges": len(delta),
        "delta_share": round(delta_share, 5),
        "affected": stats.affected,
        "frontier": stats.frontier,
        "full_seconds": round(full_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "region_seconds": round(region_seconds, 6),
        "region_share": round(region_share, 4),
        "speedup": round(full_seconds / incremental_seconds, 2),
    }


def test_incremental_revalidation_acceptance():
    # Capture the run's span tree (fixpoint.full vs fixpoint.incremental
    # timings nest under it) so BENCH_incremental.json localises regressions.
    with obs.start_trace("bench.incremental", copies=COPIES) as root:
        report = measure_incremental_speedup()
    report["spans"] = root.to_dict()
    write_report(report, REPORT_PATH)

    print(
        f"\n  ×{report['copies']} clone ({report['nodes']} nodes, "
        f"{report['edges']} edges), delta = {report['delta_edges']} edges "
        f"({report['delta_share']:.2%}):"
    )
    print(f"    full retyping:        {report['full_seconds'] * 1000:8.2f} ms")
    print(
        f"    incremental retyping: {report['incremental_seconds'] * 1000:8.2f} ms  "
        f"({report['speedup']}x, {report['affected']} of {report['nodes']} "
        f"nodes retyped)"
    )

    assert report["speedup"] >= MIN_SPEEDUP, (
        f"incremental speedup {report['speedup']}x below the {MIN_SPEEDUP}x "
        f"acceptance floor"
    )

    baseline = load_baseline(BASELINE_PATH)
    floor = baseline["incremental_speedup"] * (1.0 - REGRESSION_TOLERANCE)
    assert report["speedup"] >= floor, (
        f"incremental path regressed: speedup {report['speedup']}x vs committed "
        f"baseline {baseline['incremental_speedup']}x (floor {floor:.1f}x)"
    )


if __name__ == "__main__":
    test_incremental_revalidation_acceptance()
    print("  incremental revalidation acceptance + regression gate ✓")
