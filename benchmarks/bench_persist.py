"""Warm-restart acceptance + regression benchmark (ISSUE 10).

Quantifies what snapshot + WAL persistence buys a restarted daemon.  One
×64 clone of the bug-tracker workload is served two ways after a restart:

* **cold** — a daemon with no ``--data-dir``: the client must re-send the
  schema (recompile), re-upload the graph document (re-parse, re-convert),
  and revalidate from scratch (full retype).  This is the only road back to
  a verdict for a memory-only daemon, so all three requests count;
* **warm** — a daemon restarted on the persisted data directory: schemas
  and graphs recover before the socket binds (snapshot load + WAL tail
  replay + engine typing seeding), and the first ``revalidate`` answers
  through the incremental machinery — never a full retype.

The gate compares client-visible time to the first verdict (connect →
verdict) and requires warm ≥ ``MIN_SPEEDUP``× cold; the daemon's own
start-up (including recovery) is measured and reported as
``recovery_seconds`` / ``total_speedup`` but not gated, since both sides
share thread/socket plumbing that would only blur the persistence signal.
The warm restart must additionally replay at most ``MAX_REPLAY_SHARE`` of
the delta log as WAL tail, and its first revalidation mode must be one of
the non-full modes.

Results go to ``BENCH_persist.json`` and are compared against the
committed ``benchmarks/baseline_persist.json``: the run fails when the
machine-independent speedup ratio falls more than 25% below its committed
baseline.  The data directory is left under ``BENCH_persist_data/`` so CI
can upload it as an artifact when the gate fails.

Run directly (``PYTHONPATH=src python benchmarks/bench_persist.py``) or via
pytest (``pytest benchmarks/bench_persist.py``).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

from repro.graphs.store import Delta
from repro.persist import DurableStore
from repro.serve.client import DaemonClient
from repro.serve.daemon import start_in_thread

COPIES = 64
#: Acceptance floor (ISSUE 10) and the tolerated slide against the baseline.
MIN_SPEEDUP = 5.0
REGRESSION_TOLERANCE = 0.25
#: The WAL tail a warm restart replays, as a share of the graph's edges.
MAX_REPLAY_SHARE = 0.01
REPEATS = 5

#: First-revalidate modes that honour the no-full-retype acceptance bar.
WARM_MODES = ("cached", "unchanged", "incremental")

HERE = pathlib.Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline_persist.json"
REPORT_PATH = pathlib.Path("BENCH_persist.json")
DATA_ROOT = pathlib.Path("BENCH_persist_data")

SCHEMA_TEXT = (
    "Bug -> descr :: Lit, reported :: User, related :: Bug*\n"
    "Lit -> eps\n"
    "User -> name :: Lit"
)

PREFIX = "http://example.org/"


def turtle_document(copies: int) -> str:
    """The clone workload as Turtle: ``copies`` disjoint bug clusters."""
    lines = ["@prefix ex: <http://example.org/> ."]
    for i in range(copies):
        lines.append(
            f"ex:bug{i}a ex:descr ex:lit{i}a ; ex:reported ex:user{i} ; "
            f"ex:related ex:bug{i}b ."
        )
        lines.append(
            f"ex:bug{i}b ex:descr ex:lit{i}b ; ex:reported ex:user{i} ; "
            f"ex:related ex:bug{i}a ."
        )
        lines.append(f"ex:bug{i}c ex:descr ex:lit{i}c ; ex:reported ex:user{i} .")
        lines.append(f"ex:user{i} ex:name ex:name{i} .")
    return "\n".join(lines) + "\n"


def tail_delta(copy_index: int) -> Delta:
    """A verdict-preserving ≤1% delta that rewires one copy's ``related``.

    ``related :: Bug*`` tolerates any target count, so the verdict stays
    valid — but the rewire changes quotient rows, so the warm restart's
    first revalidate genuinely retypes (incrementally) instead of
    answering with an untouched kind typing.
    """
    return Delta.from_json(
        {
            "add": [[f"{PREFIX}bug{copy_index}a", "related", f"{PREFIX}bug{copy_index}c"]],
            "remove": [[f"{PREFIX}bug{copy_index}a", "related", f"{PREFIX}bug{copy_index}b"]],
        }
    )


def cold_restart(root: pathlib.Path, text: str, tag: int) -> dict:
    """Fresh memory-only daemon: recompile + re-upload + full retype."""
    sock = str(root / f"cold{tag}.sock")
    handle = start_in_thread(socket_path=sock)
    try:
        with DaemonClient.connect(sock) as client:
            started = time.perf_counter()
            client.load_schema("bench", text=SCHEMA_TEXT)
            client.update_graph("bugs", data_text=text)
            answer = client.revalidate("bugs", "bench")
            elapsed = time.perf_counter() - started
    finally:
        handle.stop()
    return {"seconds": elapsed, "mode": answer["mode"], "verdict": answer["verdict"]}


def prepare_data_dir(root: pathlib.Path, data_dir: pathlib.Path, text: str) -> None:
    """Persist the workload: load, upload, revalidate, clean shutdown.

    The clean shutdown cuts a snapshot carrying the engine's typing
    alongside the graph, so a restart seeds the engine instead of retyping.
    """
    sock = str(root / "prepare.sock")
    handle = start_in_thread(socket_path=sock, data_dir=str(data_dir))
    try:
        with DaemonClient.connect(sock) as client:
            client.load_schema("bench", text=SCHEMA_TEXT)
            client.update_graph("bugs", data_text=text)
            client.revalidate("bugs", "bench")
            client.checkpoint("bugs")
    finally:
        handle.stop()


def warm_restart(root: pathlib.Path, data_dir: pathlib.Path, tag: int) -> dict:
    """Daemon restarted on the data dir: replay a WAL tail, one revalidate.

    Before the restart, a direct library write appends a small delta to the
    current WAL — the state a writer that died before its next checkpoint
    leaves behind — so recovery actually replays a tail and the first
    revalidate exercises the incremental path rather than answering
    ``unchanged``.
    """
    store = DurableStore.open(str(data_dir / "graphs" / "bugs"))
    try:
        store.apply(tail_delta(tag))
    finally:
        store.close()
    sock = str(root / f"warm{tag}.sock")
    recovery_started = time.perf_counter()
    handle = start_in_thread(socket_path=sock, data_dir=str(data_dir))
    recovery = time.perf_counter() - recovery_started
    try:
        with DaemonClient.connect(sock) as client:
            started = time.perf_counter()
            answer = client.revalidate("bugs", "bench")
            elapsed = time.perf_counter() - started
            persist = client.status()["graphs"]["bugs"]["persist"]
    finally:
        handle.stop()
    return {
        "seconds": elapsed,
        "recovery_seconds": recovery,
        "mode": answer["mode"],
        "verdict": answer["verdict"],
        "wal_records": persist["wal_records"],
        "generation": persist["generation"],
    }


def measure_warm_restart() -> dict:
    if DATA_ROOT.exists():
        shutil.rmtree(DATA_ROOT)
    DATA_ROOT.mkdir(parents=True)
    data_dir = DATA_ROOT / "data"
    text = turtle_document(COPIES)

    colds = [cold_restart(DATA_ROOT, text, tag) for tag in range(REPEATS)]
    prepare_data_dir(DATA_ROOT, data_dir, text)
    warms = [warm_restart(DATA_ROOT, data_dir, tag) for tag in range(REPEATS)]

    cold = min(colds, key=lambda entry: entry["seconds"])
    warm = min(warms, key=lambda entry: entry["seconds"])
    edges = COPIES * 9  # 9 edges per cluster in turtle_document
    replay_share = warm["wal_records"] / edges
    return {
        "copies": COPIES,
        "edges": edges,
        "cold_seconds": round(cold["seconds"], 6),
        "cold_mode": cold["mode"],
        "warm_seconds": round(warm["seconds"], 6),
        "warm_mode": warm["mode"],
        "recovery_seconds": round(warm["recovery_seconds"], 6),
        "replayed_records": warm["wal_records"],
        "replay_share": round(replay_share, 5),
        "generation": warm["generation"],
        "verdicts": {"cold": cold["verdict"], "warm": warm["verdict"]},
        "speedup": round(cold["seconds"] / warm["seconds"], 2),
        "total_speedup": round(
            cold["seconds"] / (warm["seconds"] + warm["recovery_seconds"]), 2
        ),
    }


def _load_baseline() -> dict:
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_report(report: dict) -> None:
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_warm_restart_acceptance():
    report = measure_warm_restart()
    _write_report(report)

    print(
        f"\n  ×{report['copies']} clone ({report['edges']} edges), "
        f"WAL tail = {report['replayed_records']} records "
        f"({report['replay_share']:.2%}):"
    )
    print(
        f"    cold restart (recompile+upload+retype): "
        f"{report['cold_seconds'] * 1000:8.2f} ms  mode={report['cold_mode']}"
    )
    print(
        f"    warm restart first revalidate:          "
        f"{report['warm_seconds'] * 1000:8.2f} ms  mode={report['warm_mode']}  "
        f"({report['speedup']}x; recovery {report['recovery_seconds'] * 1000:.2f} ms, "
        f"{report['total_speedup']}x end to end)"
    )

    assert report["warm_mode"] in WARM_MODES, (
        f"warm restart answered with a full retype "
        f"(mode {report['warm_mode']!r}) — typing snapshots were not seeded"
    )
    assert report["verdicts"]["warm"] == report["verdicts"]["cold"], (
        f"warm verdict {report['verdicts']['warm']!r} diverged from cold "
        f"{report['verdicts']['cold']!r}"
    )
    assert report["replay_share"] <= MAX_REPLAY_SHARE, (
        f"warm restart replayed {report['replay_share']:.2%} of the graph as "
        f"WAL tail (cap {MAX_REPLAY_SHARE:.0%}) — checkpoints are not keeping up"
    )
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"warm restart speedup {report['speedup']}x below the {MIN_SPEEDUP}x "
        f"acceptance floor"
    )

    baseline = _load_baseline()
    floor = baseline["warm_restart_speedup"] * (1.0 - REGRESSION_TOLERANCE)
    assert report["speedup"] >= floor, (
        f"warm restart regressed: speedup {report['speedup']}x vs committed "
        f"baseline {baseline['warm_restart_speedup']}x (floor {floor:.1f}x)"
    )


if __name__ == "__main__":
    test_warm_restart_acceptance()
    print("  warm-restart acceptance + regression gate ✓")
