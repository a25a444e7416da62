"""Soak acceptance benchmark: randomized runs with live oracles (ISSUE 8).

Two short deterministic soaks of the stack:

* a fault-free in-process run (``steps=250, seed=1234``) whose report is
  written to ``BENCH_soak.json`` and compared — everything except wall-clock
  timing — against the committed ``benchmarks/baseline_soak.json``, which
  documents the expected shape (spec echo, per-op and per-mode counts,
  ``invariant_checks_passed``, the ``faults`` tally block); the seeded run
  is bit-reproducible, so any drift is a real behaviour change;
* a run against a live in-thread daemon with a data dir under the
  ``mixed`` fault schedule (so ``persist.*`` faults hit its WAL appends),
  gated on *every* injected fault being recovered (client reconnects and
  retries, version-guarded update replays), on the oracle checks passing,
  and on reach: every point the schedule gives a positive rate was checked
  at least once, except the named :data:`UNREACHED` points, which must have
  been checked zero times.  The injector's per-point ``checked`` / ``fired``
  tallies are printed and written to ``BENCH_soak.json`` under
  ``fault_points``;
* a restart soak against a durable daemon (``--data-dir`` semantics): the
  weighted ``restart`` op checkpoints, bounces the daemon, and requires the
  recovered store to match the mirror exactly before the stream continues —
  gated on at least one restart happening and zero unrecovered faults.

Both runs check typing and containment answers against
:mod:`repro.schema.reference` and by-construction containment ground truths
on every ``check_every``-th step — the gates here are correctness gates, not
wall-clock gates.

Run directly (``python benchmarks/bench_soak.py``) or via pytest
(``pytest benchmarks/bench_soak.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from harness import load_baseline, write_report
from repro import faults
from repro.serve.client import DaemonClient
from repro.serve.daemon import start_in_thread
from repro.workloads.soak import (
    DaemonTarget,
    InProcessTarget,
    SoakSpec,
    _default_weights,
    run_soak,
)

STEPS = 250
FAULT_STEPS = 150
RESTART_STEPS = 60
RESTART_WEIGHT = 0.08
SEED = 1234
SCHEDULE = "mixed"

REPORT_PATH = pathlib.Path("BENCH_soak.json")
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baseline_soak.json"

#: Wall-clock fields excluded from the baseline comparison.
TIMING_KEYS = ("seconds", "ops_per_second")

#: Points of the faulted soak's schedule that no soak step can reach, each
#: with the reason.  The reach gate requires them to stay unchecked, so a
#: point that becomes reachable must leave this mapping.
UNREACHED = {
    "solver": "no soak rule reaches the Presburger MILP",
}


def _without_timing(report: dict) -> dict:
    return {key: value for key, value in report.items() if key not in TIMING_KEYS}


def test_soak_fault_free_report() -> None:
    """The fault-free soak: every oracle check passes; the report is written."""
    spec = SoakSpec(steps=STEPS, seed=SEED, fault=None)
    report = run_soak(spec, InProcessTarget(backend="serial"))
    write_report(report, REPORT_PATH)

    print(
        f"\n  fault-free soak: {report['steps']} steps in "
        f"{report['seconds']:.2f}s ({report['ops_per_second']:.1f} ops/s), "
        f"{report['invariant_checks_passed']} checks, modes {report['modes']}"
    )
    assert report["steps"] == STEPS
    assert report["invariant_checks_passed"] > 0, "the soak never checked anything"
    assert report["faults"]["injected"] == 0
    assert report["faults"]["unrecovered"] == 0
    assert set(report["ops"]) == {"update", "revalidate", "validate", "contains"}

    # The fault-free seeded run is deterministic: everything but wall-clock
    # timing must match the committed spec shape exactly.
    baseline = load_baseline(BASELINE_PATH)
    assert _without_timing(report) == _without_timing(baseline), (
        "fault-free soak report drifted from benchmarks/baseline_soak.json — "
        "regenerate the baseline if the drift is intentional"
    )


def test_soak_under_faults() -> None:
    """The faulted soak: a live daemon, the mixed schedule, zero unrecovered."""
    spec = SoakSpec(steps=FAULT_STEPS, seed=SEED, fault=SCHEDULE)
    with tempfile.TemporaryDirectory(prefix="bench-soak-") as tempdir:
        socket_path = os.path.join(tempdir, "soak.sock")
        handle = start_in_thread(
            socket_path=socket_path, backend="thread", max_workers=2,
            request_timeout=60.0, data_dir=os.path.join(tempdir, "data"),
        )
        plan = faults.install(SCHEDULE, seed=SEED).plan
        try:
            client = DaemonClient.connect_unix(socket_path, retries=4, backoff=0.05)
            report = run_soak(spec, DaemonTarget(client, "soak"))
        finally:
            injector = faults.uninstall()
            handle.stop()

    tallies = report["faults"]
    print(
        f"\n  faulted soak ({SCHEDULE}): {report['steps']} steps, "
        f"{tallies['injected']} faults injected {tallies['by_point']}, "
        f"{tallies['reconnects']} reconnects, "
        f"{tallies['client_retries']} client retries, "
        f"{tallies['op_retries']} op retries, "
        f"{report['invariant_checks_passed']} checks passed"
    )
    assert report["invariant_checks_passed"] > 0, "the soak never checked anything"
    assert tallies["injected"] > 0, (
        f"the {SCHEDULE!r} schedule never fired over {FAULT_STEPS} steps — "
        "the injector was not active"
    )
    assert tallies["unrecovered"] == 0, (
        f"{tallies['unrecovered']} injected fault(s) were not recovered"
    )

    # Reach, read from the injector itself so the fault-free report and its
    # baseline stay as they are.
    points = _point_tallies(plan.rates, injector.stats())
    _write_point_tallies(points)
    print("  fault point         rate  checked  fired")
    for point, row in points.items():
        print(f"  {point:<18} {row['rate']:>5}  {row['checked']:>7}  {row['fired']:>5}")
    unchecked = [
        point for point, row in points.items()
        if row["rate"] > 0 and row["checked"] == 0 and point not in UNREACHED
    ]
    assert not unchecked, (
        f"the {SCHEDULE!r} schedule gives {unchecked} a positive rate, but no "
        "soak step checked them — reach them or list them in UNREACHED"
    )
    reached = [point for point in UNREACHED if points.get(point, {}).get("checked")]
    assert not reached, (
        f"UNREACHED lists {reached}, but the soak checked them — drop them "
        "from the mapping"
    )


def _point_tallies(rates, stats) -> dict:
    """``{point: {"rate", "checked", "fired"}}`` for every scheduled or
    checked point, sorted by name."""
    names = sorted(set(rates) | set(stats["checked"]))
    return {
        point: {
            "rate": rates.get(point, 0.0),
            "checked": stats["checked"].get(point, 0),
            "fired": stats["fired"].get(point, 0),
        }
        for point in names
    }


def _write_point_tallies(points: dict) -> None:
    """Add the faulted run's per-point tallies to ``BENCH_soak.json``."""
    try:
        report = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {}
    report["fault_points"] = points
    write_report(report, REPORT_PATH)


def test_soak_with_restarts() -> None:
    """The restart soak: a durable daemon bounced mid-stream, mirror parity.

    The report's ``restarts`` block only exists when the op is weighted in,
    so the fault-free baseline comparison above is untouched.
    """
    weights = dict(_default_weights(), restart=RESTART_WEIGHT)
    spec = SoakSpec(steps=RESTART_STEPS, seed=SEED, size=3, weights=weights)
    with tempfile.TemporaryDirectory(prefix="bench-soak-restart-") as tempdir:
        socket_path = os.path.join(tempdir, "soak.sock")
        data_dir = os.path.join(tempdir, "data")
        daemon_options = dict(
            socket_path=socket_path, backend="thread", max_workers=2,
            request_timeout=60.0, data_dir=data_dir,
        )
        holder = {"handle": start_in_thread(**daemon_options)}

        def restarter():
            holder["handle"].stop()
            holder["handle"] = start_in_thread(**daemon_options)
            return DaemonClient.connect_unix(socket_path, retries=4, backoff=0.05)

        try:
            client = DaemonClient.connect_unix(socket_path, retries=4, backoff=0.05)
            report = run_soak(
                spec, DaemonTarget(client, "soak", restarter=restarter)
            )
        finally:
            holder["handle"].stop()

    restarts = report["restarts"]
    print(
        f"\n  restart soak: {report['steps']} steps, "
        f"{restarts['count']} restart(s) survived, first-revalidate modes "
        f"{restarts['modes']}, {report['invariant_checks_passed']} checks passed"
    )
    assert restarts["count"] > 0, (
        f"the restart op never fired over {RESTART_STEPS} steps at weight "
        f"{RESTART_WEIGHT} — raise the weight or the step count"
    )
    assert report["faults"]["unrecovered"] == 0, (
        f"{report['faults']['unrecovered']} fault(s) were not recovered"
    )


if __name__ == "__main__":
    test_soak_fault_free_report()
    test_soak_under_faults()
    test_soak_with_restarts()
    print("  soak acceptance gates ✓")
