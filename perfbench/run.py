"""The repository benchmark: one command, four workloads, every answer checked.

    python3 perfbench/run.py --workload daemon-churn --seed 1 --seconds 12 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` replays the seeded operations in-process with
a span around every call into a layer and reports the per-layer metrics (see
``traced.py``).  Standard output ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it, starting
``report``, carries the workload's own named metrics, ``error_rate``, sample
counts and the environment stamp.  Spans of a traced run are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import FSYNC, ROOT, SRC, Run, p50, round_time  # noqa: E402

END_TO_END = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
HASH_SEED = "0"


def _version(module: str):
    try:
        from importlib.metadata import version

        return version(module)
    except Exception:  # noqa: BLE001 — not installed
        return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), "r", encoding="ascii") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """A hash of every file under src/, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code: compare only equal stamps."""
    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "REPRO_VECTORIZE": os.environ.get("REPRO_VECTORIZE"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "fsync": FSYNC,
        "nproc": os.cpu_count(),
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict iteration orders follow the hash seed, and with them
        # the work a search or a fixpoint does: with a random seed per
        # process, one contains() loop took from 1.2 to 2.2 s.  Every
        # process of a run (this one, CLI children, daemons) uses one seed.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if os.environ.get("REPRO_FAULTS"):
        print("perfbench: REPRO_FAULTS is set; fault injection would make "
              "timings and verdicts meaningless", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # Turn a termination request into an exit, so the cleanup below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            from traced import traced_run

            figures = traced_run(run)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in sorted(figures["layers"].items())}
            report = {"per_layer": metrics}
        else:
            figures = WORKLOADS[args.workload](run)
            if not figures["by_class"]:
                run.fail("no operation completed")
            run.sample_host(force=True)
            scale = run.host_scale()
            values = {"round_s": round_time(figures["by_class"]) * scale,
                      "setup_s": figures["setup_s"] * scale,
                      "peak_rss_mb": figures["peak_rss_mb"]}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            named = {name: {"value": value, "unit": unit}
                     for name, (value, unit) in figures["named"].items()
                     if value is not None}
            named["setup_s"] = {"value": values["setup_s"], "unit": "s"}
            named["peak_rss_mb"] = {"value": figures["peak_rss_mb"], "unit": "MB"}
            named["error_rate"] = {
                "value": run.failed / max(run.attempted, 1), "unit": "ratio"}
            figures["detail"].update(
                per_class_p50_s={name: p50(samples)
                                 for name, samples in sorted(figures["by_class"].items())},
                measured_round_s=round_time(figures["by_class"]),
                measured_setup_s=figures["setup_s"],
                host_reference_s=run.host_samples)
            report = {"metrics": named, "detail": figures["detail"]}
    finally:
        run.close()
    report.update(workload=args.workload, environment=environment(args.seed),
                  attempted=run.attempted, failed=run.failed, errors=run.errors)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
