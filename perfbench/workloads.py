"""The four workloads, untraced: each returns its end-to-end figures.

Every workload is one closed loop from one client: the next operation starts
when the previous answer is in and checked.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

import gen
from common import (
    SCHEMA_NAME, BenchError, Daemon, Run, p50, p90,
    self_peak_rss_mb, timed_setup,
)

# The hub store is revalidated under the compressed semantics, the one that
# batches Presburger problems; the other stores take the plain path.
COMPRESSED = {"hub": True}
CRASH_TAIL = 30
PAIRS = 2500
# daemon-churn reads the daemon's peak RSS after this many operations.
RSS_OPS = 20


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# --------------------------------------------------------------------------- #
# validate-oneshot
# --------------------------------------------------------------------------- #
def oneshot_docs(run: Run, directory: str) -> Tuple[str, List[Tuple[str, str, int]]]:
    """The schema file and one document per shape: (shape, path, untyped)."""
    rng = random.Random(run.seed)
    schema = _write(os.path.join(directory, "schema.shex"), gen.SCHEMA_TEXT)
    docs = []
    for shape in gen.SHAPES:
        model = gen.document(shape, rng, broken=rng.random() < 0.25)
        path = _write(os.path.join(directory, f"{shape}.ttl"), model.turtle())
        docs.append((shape, path, len(model.untyped())))
    return schema, docs


def check_cli(run: Run, returncode: int, out: str, expected: int, what: str) -> None:
    if expected == 0:
        run.check(returncode == 0 and out.startswith("VALID:"),
                  f"{what}: expected VALID, got exit {returncode}: {out[:120]!r}")
    else:
        run.check(returncode == 1 and out.startswith(f"INVALID: {expected} node(s)"),
                  f"{what}: expected {expected} untyped, got exit {returncode}: {out[:120]!r}")


def run_cli(run: Run, schema: str, path: str) -> Tuple[int, str, float]:
    """One CLI child: its exit code, its output and its own peak RSS in MB.

    The peak RSS comes from the child's own rusage, not from RUSAGE_CHILDREN,
    which would also count the host-speed reference jobs.
    """
    proc = run.spawn(
        [sys.executable, "-m", "repro.cli", "validate", "--schema", schema, "--data", path],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"validate {path}: timed out")
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0


def validate_oneshot(run: Run) -> Dict[str, Any]:
    setup_s, (schema, docs) = timed_setup(
        run,
        lambda attempt: oneshot_docs(run, run.tmpdir("docs")),
        lambda state: shutil.rmtree(os.path.dirname(state[0])),
    )
    rng = random.Random(run.seed + 1)
    latencies: List[float] = []
    by_shape: Dict[str, List[float]] = {}
    peak_rss = 0.0
    start = time.perf_counter()
    # Whole rounds, one document of each shape per round, so every run
    # weighs the shapes alike.
    while time.perf_counter() - start < run.seconds:
        for shape, path, expected in rng.sample(docs, len(docs)):
            run.sample_host()
            with run.op():
                began = time.perf_counter()
                try:
                    returncode, out, rss = run_cli(run, schema, path)
                except BenchError as exc:
                    run.fail(str(exc))
                    continue
                elapsed = time.perf_counter() - began
                peak_rss = max(peak_rss, rss)
                latencies.append(elapsed)
                by_shape.setdefault(shape, []).append(elapsed)
                check_cli(run, returncode, out, expected, f"{shape} document")
    return {
        "by_class": by_shape,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "named": {
            "validate_p50_s": (p50(latencies), "s"),
            "validate_p90_s": (p90(latencies), "s"),
        },
        "detail": {
            "samples": len(latencies),
            "expected_untyped": {shape: n for shape, _, n in docs},
        },
    }


# --------------------------------------------------------------------------- #
# Daemon stores shared by daemon-churn and crash-restart
# --------------------------------------------------------------------------- #
def check_entry(run: Run, entry: Dict[str, Any], mirror: gen.Mirror, what: str) -> None:
    expected = {repr(node) for node in mirror.model.untyped()}
    got = set(entry.get("untyped_nodes", ()))
    verdict = "invalid" if expected else "valid"
    run.check(
        entry.get("verdict") == verdict and got == expected
        and entry.get("version") == mirror.version,
        f"{what} {mirror.name}: expected {verdict} with {len(expected)} untyped at "
        f"v{mirror.version}, got {entry.get('verdict')} with {len(got)} at "
        f"v{entry.get('version')}",
    )


def start_stores(run: Run, data_dir: str):
    """Daemon up, schema loaded, one store per shape registered and typed."""
    mirrors = {
        name: gen.Mirror(name, model)
        for name, model in gen.store_graphs(random.Random(run.seed)).items()
    }
    daemon = Daemon(run, data_dir)
    try:
        conn = daemon.wait_ready()
        conn.call("load_schema", name=SCHEMA_NAME, text=gen.SCHEMA_TEXT)
        for name, mirror in mirrors.items():
            conn.call("update_graph", name=name, data={"text": mirror.model.turtle()})
        for name, mirror in mirrors.items():
            entry = conn.call("revalidate", name=name, schema=SCHEMA_NAME,
                              compressed=COMPRESSED.get(name, False))
            check_entry(run, entry, mirror, "setup revalidate")
    except BaseException:
        daemon.stop()
        raise
    return daemon, mirrors


def churn_order(rng: random.Random, mirrors: Dict[str, gen.Mirror]):
    """Store names in rounds, each store once per round in a seeded order."""
    names = sorted(mirrors)
    while True:
        yield from rng.sample(names, len(names))


def revalidate_stores(conn, names) -> Dict[str, Dict[str, Any]]:
    """Revalidate ``names``, each under the semantics its typing was built with.

    The compressed stores go one by one, the plain ones in one ``graphs``
    request; the answer maps each graph name to its entry.
    """
    entries = [conn.call("revalidate", name=name, schema=SCHEMA_NAME, compressed=True)
               for name in names if COMPRESSED.get(name)]
    plain = [name for name in names if not COMPRESSED.get(name)]
    if plain:
        entries += conn.call("revalidate", graphs=plain, schema=SCHEMA_NAME)["results"]
    return {entry.get("graph"): entry for entry in entries}


def daemon_churn(run: Run) -> Dict[str, Any]:
    setup_s, (daemon, mirrors) = timed_setup(
        run,
        lambda attempt: start_stores(run, run.tmpdir("data")),
        lambda state: state[0].stop(),
    )
    rng = random.Random(run.seed + 1)
    updates: List[float] = []
    revalidates: List[float] = []
    pairs: List[float] = []
    by_store: Dict[str, List[float]] = {}
    modes: Dict[str, int] = {}
    rss = None
    try:
        conn = daemon.conn
        start = time.perf_counter()
        for name in churn_order(rng, mirrors):
            if time.perf_counter() - start >= run.seconds:
                break
            if len(pairs) == RSS_OPS:
                # After a fixed number of operations, so that the figure
                # includes what churn adds but not how far a host gets.
                rss = daemon.vmhwm_mb()
            mirror = mirrors[name]
            version = mirror.version
            kind, delta = mirror.next_delta(rng)
            run.sample_host()
            with run.op():
                try:
                    began = time.perf_counter()
                    summary = conn.call("update_graph", name=name, delta=delta,
                                        expect_version=version)
                    applied = time.perf_counter()
                    entry = conn.call("revalidate", name=name, schema=SCHEMA_NAME,
                                      compressed=COMPRESSED.get(name, False))
                    done = time.perf_counter()
                except (OSError, BenchError) as exc:
                    run.fail(f"{kind} on {name}: {exc}")
                    break  # the connection or the daemon is gone
                updates.append(applied - began)
                revalidates.append(done - applied)
                pairs.append(done - began)
                by_store.setdefault(name, []).append(pairs[-1])
                modes[entry.get("mode")] = modes.get(entry.get("mode"), 0) + 1
                run.check(summary.get("version") == mirror.version,
                          f"{kind} on {name}: store at v{summary.get('version')}")
                check_entry(run, entry, mirror, f"{kind} revalidate")
        wall = time.perf_counter() - start
        if rss is None and daemon.proc.poll() is None:
            rss = daemon.vmhwm_mb()
    finally:
        daemon.stop()
    return {
        "by_class": by_store,
        "setup_s": setup_s,
        "peak_rss_mb": rss or 0.0,
        "named": {
            "update_p50_s": (p50(updates), "s"),
            "update_p90_s": (p90(updates), "s"),
            "revalidate_p50_s": (p50(revalidates), "s"),
            "revalidate_p90_s": (p90(revalidates), "s"),
            "churn_ops_per_s": (len(pairs) / wall, "1/s"),
        },
        "detail": {
            "samples": len(pairs),
            "modes": modes,
            "fsync": "always",
        },
    }


# --------------------------------------------------------------------------- #
# crash-restart
# --------------------------------------------------------------------------- #
def crashed_data_dir(run: Run):
    """Stores checkpointed, an unfolded WAL tail, then SIGKILL."""
    data_dir = run.tmpdir("data")
    daemon, mirrors = start_stores(run, data_dir)
    try:
        conn = daemon.conn
        conn.call("checkpoint")
        rng = random.Random(run.seed + 2)
        names = sorted(mirrors)
        for index in range(CRASH_TAIL):
            mirror = mirrors[names[index % len(names)]]
            version = mirror.version
            _kind, delta = mirror.next_delta(rng)
            conn.call("update_graph", name=mirror.name, delta=delta, expect_version=version)
    finally:
        daemon.kill()
    return data_dir, mirrors


def crash_restart(run: Run) -> Dict[str, Any]:
    setup_s, (data_dir, mirrors) = timed_setup(
        run,
        lambda attempt: crashed_data_dir(run),
        lambda state: shutil.rmtree(state[0]),
    )
    restarts: List[float] = []
    rss = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < run.seconds:
        copy = run.tmpdir("restart")
        shutil.rmtree(copy)
        shutil.copytree(data_dir, copy)
        run.sample_host()
        with run.op():
            began = time.perf_counter()
            daemon = Daemon(run, copy)
            try:
                conn = daemon.wait_ready()
                entries = revalidate_stores(conn, sorted(mirrors))
                restarts.append(time.perf_counter() - began)
                rss = max(rss, daemon.vmhwm_mb())
                for name, mirror in mirrors.items():
                    check_entry(run, entries.get(name, {}), mirror, "restart")
            except (OSError, BenchError) as exc:
                run.fail(f"restart: {exc}")
            finally:
                # The copy is thrown away: no need to wait for a shutdown checkpoint.
                daemon.kill()
                shutil.rmtree(copy, ignore_errors=True)
    return {
        "by_class": {"restart": restarts},
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "named": {"restart_p50_s": (p50(restarts), "s")},
        "detail": {"samples": len(restarts), "wal_tail": CRASH_TAIL},
    }


# --------------------------------------------------------------------------- #
# contains-evolution
# --------------------------------------------------------------------------- #
def all_typed(graph, schema) -> bool:
    """Membership by the independent naive typing of repro.schema.reference."""
    from repro.schema.reference import maximal_typing_reference

    typing = maximal_typing_reference(graph, schema)
    return all(typing.types_of(node) for node in graph.nodes)


def check_containment(run: Run, kind: str, left, right, result) -> None:
    """Re-check one verdict without going through the containment code."""
    from repro.containment.api import Verdict
    from repro.containment.characterizing import characterizing_graph_for_schema

    verdict = result.verdict
    if kind.endswith("forward"):
        run.check(verdict is not Verdict.NOT_CONTAINED,
                  f"{kind}: a widening came back not-contained")
    if verdict is Verdict.NOT_CONTAINED and result.counterexample is not None:
        graph = result.counterexample
        run.check(all_typed(graph, left) and not all_typed(graph, right),
                  f"{kind}: counter-example does not separate the schemas")
    if kind.startswith("detshex"):
        # Corollary 4.3: the characterizing graph of the left schema is in
        # L(right) exactly when L(left) is contained in L(right).
        expected = all_typed(characterizing_graph_for_schema(left), right)
        run.check(verdict is (Verdict.CONTAINED if expected else Verdict.NOT_CONTAINED),
                  f"{kind}: verdict {verdict.value} disagrees with Corollary 4.3")


def contains_evolution(run: Run) -> Dict[str, Any]:
    from repro.containment.api import Verdict, contains

    setup_s, pairs = timed_setup(
        run,
        lambda attempt: gen.schema_pairs(random.Random(run.seed), PAIRS),
        lambda state: None,
    )
    # The corpus is the benchmark's, not the program's: keep the collector
    # from walking it on every full collection the program triggers.
    gc.freeze()
    latencies: List[float] = []
    by_kind: Dict[str, List[float]] = {}
    verdicts: Dict[str, Dict[str, int]] = {}
    decided = 0
    start = time.perf_counter()
    for kind, left, right in pairs:
        if time.perf_counter() - start >= run.seconds:
            break
        run.sample_host()
        with run.op():
            began = time.perf_counter()
            result = contains(left, right)
            latencies.append(time.perf_counter() - began)
            by_kind.setdefault(kind, []).append(latencies[-1])
            decided += result.verdict is not Verdict.UNKNOWN
            tally = verdicts.setdefault(kind, {})
            tally[result.verdict.value] = tally.get(result.verdict.value, 0) + 1
            check_containment(run, kind, left, right, result)
    return {
        "by_class": by_kind,
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "named": {
            "contains_p50_s": (p50(latencies), "s"),
            "contains_p90_s": (p90(latencies), "s"),
            "contains_decided_ratio": (decided / max(len(latencies), 1), "ratio"),
        },
        "detail": {
            "samples": len(latencies),
            "contains_total_s": sum(latencies),
            "verdicts": verdicts,
        },
    }


WORKLOADS = {
    "validate-oneshot": validate_oneshot,
    "daemon-churn": daemon_churn,
    "contains-evolution": contains_evolution,
    "crash-restart": crash_restart,
}
