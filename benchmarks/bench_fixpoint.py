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
* **parity** — the baselines and the kernel must agree pair-for-pair;
* **linear loss propagation** — on a ring ``T -> a :: T`` broken at one
  edge, the loss travels one hop per round round the whole ring; under
  either semantics ten times the ring may cost at most
  ``MAX_RING_GROWTH`` times the time, where a schedule that scans the whole
  component every round costs about a hundred.

Results are written to ``BENCH_fixpoint.json`` and compared against the
committed ``benchmarks/baseline_fixpoint.json``: the run fails when a
*machine-independent ratio* falls more than 25% below its committed baseline,
which is the CI regression gate for the typing hot path.

Run directly (``python benchmarks/bench_fixpoint.py``) or via pytest
(``pytest benchmarks/bench_fixpoint.py``).
"""

from __future__ import annotations

import pathlib

from harness import bug_tracker_clone, load_baseline, timed, write_report
from repro import obs
from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint
from repro.graphs.compressed import pack_simple_graph
from repro.graphs.graph import Graph
from repro.presburger.solver import SolverWindow
from repro.schema.parser import parse_schema
from repro.schema.reference import maximal_typing_worklist
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

PLAIN_COPIES = 32
COMPRESSED_COPIES = 8
#: Acceptance floor and the tolerated slide vs the baseline.
MIN_PLAIN_SPEEDUP = 3.0
REGRESSION_TOLERANCE = 0.25
#: Interleaved timing rounds of the plain speedup: one worklist run, then
#: ``KERNEL_REPEATS`` kernel runs, each side keeping its best.
ROUNDS = 15
KERNEL_REPEATS = 5
#: The broken rings' sizes, and the time the larger may take over the smaller.
RING_SIZES = (1_700, 17_000)
MAX_RING_GROWTH = 30.0

HERE = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline_fixpoint.json"
REPORT_PATH = pathlib.Path("BENCH_fixpoint.json")


def measure_plain_speedup() -> dict:
    """Kernel vs pre-PR worklist on plain maximal typing, ×32 clones."""
    schema = bug_tracker_schema()
    compiled = compile_schema(schema)
    graph = bug_tracker_clone(PLAIN_COPIES)
    # Warm compilation artifacts so neither side pays them inside the timer.
    maximal_typing_fixpoint(bug_tracker_graph(), compiled=compiled)

    # The kernel side runs in 1-3 ms and a shared host's speed drifts over
    # seconds, so the sides are interleaved, each keeping its best: fifteen
    # rounds, best of 15 worklist and of 75 kernel runs, about a second.
    # Five rounds once read 20.9x-37.7x on one commit against the 33.75x
    # floor; on a 2-core VM, quiet or beside one busy process, both counts
    # passed every run, and fifteen read a narrower spread.
    worklist_seconds = kernel_seconds = float("inf")
    for _ in range(ROUNDS):
        worklist_typing, seconds = timed(
            maximal_typing_worklist, graph, schema, compiled=compiled
        )
        worklist_seconds = min(worklist_seconds, seconds)
        kernel_typing, seconds = timed(
            maximal_typing_fixpoint, graph, compiled=compiled, repeats=KERNEL_REPEATS
        )
        kernel_seconds = min(kernel_seconds, seconds)
    # Dedicated runs for the counters (stats would accumulate across repeats).
    stats = FixpointStats()
    maximal_typing_fixpoint(graph, compiled=compiled, stats=stats)
    single = FixpointStats()
    maximal_typing_fixpoint(bug_tracker_clone(1), compiled=compiled, stats=single)
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
    graph = pack_simple_graph(bug_tracker_clone(COMPRESSED_COPIES))

    # A private window over the solver counters: the benchmark's readings
    # stay correct even if other code resets the shared process window.
    window = SolverWindow()
    worklist_typing, worklist_seconds = timed(
        maximal_typing_worklist, graph, schema, compiled=compiled, compressed=True
    )
    worklist_calls = window.snapshot().solver_calls

    window.reset()
    stats = FixpointStats()
    kernel_typing, kernel_seconds = timed(
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


def _broken_ring(size: int) -> Graph:
    return Graph.from_edges(
        (i, "b" if i == 0 else "a", (i + 1) % size, None) for i in range(size)
    )


def measure_rings() -> dict:
    """Kernel time on broken rings of both sizes, under both semantics."""
    compiled = compile_schema(parse_schema("T -> a :: T\n", name="ring"))
    report = {}
    for compressed in (False, True):
        seconds = []
        for size in RING_SIZES:
            graph = _broken_ring(size)
            if compressed:
                graph = pack_simple_graph(graph)
            typing, best = timed(
                maximal_typing_fixpoint, graph, compiled=compiled,
                compressed=compressed, repeats=3,
            )
            assert len(typing.untyped()) == size, "a broken ring keeps a type"
            seconds.append(best)
        report["compressed" if compressed else "plain"] = {
            "nodes": list(RING_SIZES),
            "kernel_seconds": [round(value, 6) for value in seconds],
            "growth": round(seconds[1] / seconds[0], 2),
        }
    return report


def test_fixpoint_kernel_acceptance():
    # The report carries the timed span tree of the run (bench phases plus
    # the fixpoint.* spans the kernel opens) so a regression can be localised
    # from BENCH_fixpoint.json alone.
    with obs.start_trace("bench.fixpoint") as root:
        with obs.span("bench.plain", copies=PLAIN_COPIES):
            plain = measure_plain_speedup()
        with obs.span("bench.compressed", copies=COMPRESSED_COPIES):
            compressed = measure_compressed()
        with obs.span("bench.rings", sizes=list(RING_SIZES)):
            rings = measure_rings()
    report = {
        "plain": plain,
        "compressed": compressed,
        "rings": rings,
        "spans": root.to_dict(),
    }
    write_report(report, REPORT_PATH)

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
    for semantics, ring in rings.items():
        print(
            f"  broken ring, {semantics}: {ring['nodes'][0]} -> {ring['nodes'][1]} "
            f"nodes costs {ring['growth']}x"
        )
        assert ring["growth"] <= MAX_RING_GROWTH, (
            f"{semantics} loss propagation is not linear: a ring of "
            f"{ring['nodes'][1]} nodes took {ring['growth']}x the time of "
            f"{ring['nodes'][0]} (at most {MAX_RING_GROWTH}x)"
        )

    # Regression gate: the machine-independent ratios may not slide more than
    # 25% under what the committed baseline recorded.
    baseline = load_baseline(BASELINE_PATH)
    speedup_floor = baseline["plain_speedup"] * (1.0 - REGRESSION_TOLERANCE)
    assert plain["speedup"] >= speedup_floor, (
        f"typing hot path regressed: speedup {plain['speedup']}x vs committed "
        f"baseline {baseline['plain_speedup']}x (floor {speedup_floor:.1f}x)"
    )


if __name__ == "__main__":
    test_fixpoint_kernel_acceptance()
    print("  fixpoint kernel acceptance + regression gate ✓")
