"""Fixpoint-kernel acceptance + regression benchmark (ISSUEs 3 and 9).

Quantifies the levers of the fixpoint kernel (:mod:`repro.engine.fixpoint`)
against the retained pre-kernel baselines (:mod:`repro.schema.reference`) on
the cloned bug-tracker instance:

* **plain typing speedup** — `maximal_typing` via the kernel vs the pre-PR
  node-level worklist at ×32 copies; must be ≥ 3×;
* **no solver on interval rules** — under the compressed semantics the
  bug-tracker rules flatten to per-symbol intervals, so the kernel decides
  them by the flow and must make exactly 0 Presburger solver calls (the
  one-call-per-check worklist baseline still decides them by MILP); both
  must agree;
* **parity** — the baselines and the kernel must agree pair-for-pair.

Results are written to ``BENCH_fixpoint.json`` and compared against the
committed ``benchmarks/baseline_fixpoint.json``: the run fails when a
*machine-independent ratio* falls more than 25% below its committed baseline,
which is the CI regression gate for the typing hot path.

Run directly (``python benchmarks/bench_fixpoint.py``) or via pytest
(``pytest benchmarks/bench_fixpoint.py``).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro import obs
from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint
from repro.graphs.compressed import pack_simple_graph
from repro.graphs.graph import Graph
from repro.presburger.solver import SolverWindow
from repro.schema.reference import maximal_typing_worklist
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

PLAIN_COPIES = 32
COMPRESSED_COPIES = 8
#: Acceptance floor and the tolerated slide vs the baseline.
MIN_PLAIN_SPEEDUP = 3.0
REGRESSION_TOLERANCE = 0.25

HERE = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline_fixpoint.json"
REPORT_PATH = pathlib.Path("BENCH_fixpoint.json")


def _cloned_instance(copies: int) -> Graph:
    base = bug_tracker_graph()
    graph = Graph(f"bugs-x{copies}")
    for copy_index in range(copies):
        for edge in base.edges:
            graph.add_edge(
                (copy_index, edge.source), edge.label, (copy_index, edge.target)
            )
    return graph


def _timed(fn, *args, repeats: int = 1, **kwargs):
    """``(result, seconds)`` with best-of-``repeats`` timing.

    The regression gate compares a wall-clock *ratio*; taking the minimum of
    several runs strips one-off noise (GC pauses, noisy CI neighbours) from
    both sides of that ratio.
    """
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def measure_plain_speedup() -> dict:
    """Kernel vs pre-PR worklist on plain maximal typing, ×32 clones."""
    schema = bug_tracker_schema()
    compiled = compile_schema(schema)
    graph = _cloned_instance(PLAIN_COPIES)
    # Warm compilation artifacts so neither side pays them inside the timer.
    maximal_typing_fixpoint(bug_tracker_graph(), compiled=compiled)

    # The kernel side runs in 1-3 ms, so only a best of many runs resolves
    # the gate's floor, and a shared host's speed drifts over seconds, so
    # the sides are interleaved: one worklist run, then five kernel runs,
    # five times over (best of 5 and best of 25).
    worklist_seconds = kernel_seconds = float("inf")
    for _ in range(5):
        worklist_typing, seconds = _timed(
            maximal_typing_worklist, graph, schema, compiled=compiled
        )
        worklist_seconds = min(worklist_seconds, seconds)
        kernel_typing, seconds = _timed(
            maximal_typing_fixpoint, graph, compiled=compiled, repeats=5
        )
        kernel_seconds = min(kernel_seconds, seconds)
    # Dedicated runs for the counters (stats would accumulate across repeats).
    stats = FixpointStats()
    maximal_typing_fixpoint(graph, compiled=compiled, stats=stats)
    single = FixpointStats()
    maximal_typing_fixpoint(_cloned_instance(1), compiled=compiled, stats=single)
    assert kernel_typing == worklist_typing, "kernel disagrees with the worklist"
    # Deterministic (machine-independent) gate: the row and signature memos
    # must keep the evaluated-check count flat across clone copies — a
    # regression here shows up regardless of how noisy the timing
    # environment is.
    assert stats.evaluated <= single.evaluated, (
        f"row/signature memo regressed: {stats.evaluated} checks evaluated on a "
        f"x{PLAIN_COPIES}-clone workload against {single.evaluated} on one copy"
    )
    return {
        "copies": PLAIN_COPIES,
        "nodes": graph.node_count,
        "worklist_seconds": round(worklist_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "speedup": round(worklist_seconds / kernel_seconds, 2),
        "kernel_checks": stats.checks,
        "kernel_evaluated": stats.evaluated,
        "kernel_evaluated_x1": single.evaluated,
        "kernel_row_hits": stats.row_hits,
        "kernel_signature_hits": stats.signature_hits,
    }


def measure_compressed() -> dict:
    """Compressed kernel vs the worklist baseline on the bug tracker, ×8 clones."""
    schema = bug_tracker_schema()
    compiled = compile_schema(schema)
    graph = pack_simple_graph(_cloned_instance(COMPRESSED_COPIES))

    # A private window over the solver counters: the benchmark's readings
    # stay correct even if other code resets the shared process window.
    window = SolverWindow()
    worklist_typing, worklist_seconds = _timed(
        maximal_typing_worklist, graph, schema, compiled=compiled, compressed=True
    )
    worklist_calls = window.snapshot().solver_calls

    window.reset()
    stats = FixpointStats()
    kernel_typing, kernel_seconds = _timed(
        maximal_typing_fixpoint, graph, compiled=compiled, compressed=True, stats=stats
    )
    kernel_calls = window.snapshot().solver_calls
    assert kernel_typing == worklist_typing, "compressed kernel disagrees"
    return {
        "copies": COMPRESSED_COPIES,
        "nodes": graph.node_count,
        "worklist_solver_calls": worklist_calls,
        "kernel_solver_calls": kernel_calls,
        "worklist_seconds": round(worklist_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "kernel_rounds": stats.rounds,
        "kernel_solver_problems": stats.solver_problems,
    }


def _load_baseline() -> dict:
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_report(report: dict) -> None:
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_fixpoint_kernel_acceptance():
    # The report carries the timed span tree of the run (bench phases plus
    # the fixpoint.* spans the kernel opens) so a regression can be localised
    # from BENCH_fixpoint.json alone.
    with obs.start_trace("bench.fixpoint") as root:
        with obs.span("bench.plain", copies=PLAIN_COPIES):
            plain = measure_plain_speedup()
        with obs.span("bench.compressed", copies=COMPRESSED_COPIES):
            compressed = measure_compressed()
    report = {
        "plain": plain,
        "compressed": compressed,
        "spans": root.to_dict(),
    }
    _write_report(report)

    print(f"\n  plain ×{plain['copies']} ({plain['nodes']} nodes):")
    print(f"    worklist: {plain['worklist_seconds'] * 1000:8.1f} ms")
    print(
        f"    kernel:   {plain['kernel_seconds'] * 1000:8.1f} ms  "
        f"({plain['speedup']}x, {plain['kernel_evaluated']} of "
        f"{plain['kernel_checks']} checks evaluated)"
    )
    print(f"  compressed ×{compressed['copies']} ({compressed['nodes']} nodes):")
    print(
        f"    solver calls: {compressed['worklist_solver_calls']} -> "
        f"{compressed['kernel_solver_calls']}; kernel "
        f"{compressed['kernel_seconds'] * 1000:.1f} ms"
    )

    assert plain["speedup"] >= MIN_PLAIN_SPEEDUP, (
        f"kernel speedup {plain['speedup']}x below the {MIN_PLAIN_SPEEDUP}x "
        f"acceptance floor"
    )
    assert compressed["kernel_solver_calls"] == 0, (
        f"the kernel made {compressed['kernel_solver_calls']} solver calls on the "
        "interval rules of the bug tracker; the flow must decide all of them"
    )
    assert compressed["kernel_solver_problems"] == 0, "an interval rule reached the solver"

    # Regression gate: the machine-independent ratios may not slide more than
    # 25% under what the committed baseline recorded.
    baseline = _load_baseline()
    speedup_floor = baseline["plain_speedup"] * (1.0 - REGRESSION_TOLERANCE)
    assert plain["speedup"] >= speedup_floor, (
        f"typing hot path regressed: speedup {plain['speedup']}x vs committed "
        f"baseline {baseline['plain_speedup']}x (floor {speedup_floor:.1f}x)"
    )


if __name__ == "__main__":
    test_fixpoint_kernel_acceptance()
    print("  fixpoint kernel acceptance + regression gate ✓")
