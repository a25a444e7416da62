"""The traced run: the seeded operations replayed in one process, layer by layer.

Each call into a layer's public function is wrapped in a span recording its
name, start, end, parent span and the id of the operation it belongs to.
Spans stay in memory and are written to ``.perfbench_out/`` when the run
ends.  A layer's self time is its span minus the time its child spans cover,
summed within each operation; an operation's unattributed remainder is the
self time of its ``op`` span.

A traced run covers all four workloads (each gets a quarter of ``--seconds``),
so every run prints every per-layer metric.  The untraced wall time of the
same operations — CLI child processes, daemon round trips, daemon restarts,
and an untraced contains-evolution run in a child process — is measured
alongside, for ``trace.overhead_ratio``.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import gen
from common import ROOT, SCHEMA_NAME, BenchError, Daemon, Run, p50
from workloads import (
    COMPRESSED, check_cli, churn_order, check_containment, check_entry, crashed_data_dir,
    oneshot_docs, revalidate_stores, run_cli, start_stores,
)

OUT_DIR = ".perfbench_out"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op id]``."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None):
        """A span of the current operation, or of ``op`` when one is given."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, op or self._op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: str):
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def wrap(self, name: str, function, results: Optional[list] = None):
        """``function`` inside a span; its return values go to ``results``."""
        def traced(*args, **kwargs):
            with self.span(name):
                value = function(*args, **kwargs)
            if results is not None:
                results.append(value)
            return value
        return traced

    def layer_times(self, prefix: str) -> Dict[str, List[float]]:
        """Per span name, its self time summed within each ``prefix`` operation.

        A span's self time is its duration minus its children's; the list
        holds one sum per operation in which the name occurs.
        """
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        sums: Dict[Tuple[str, str], float] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if op is not None and op.startswith(prefix):
                sums[name, op] = sums.get((name, op), 0.0) + end - start - covered[index]
        times: Dict[str, List[float]] = {}
        for (name, _op), value in sums.items():
            times.setdefault(name, []).append(value)
        return times

    def op_wall(self, prefix: str) -> Tuple[float, float]:
        """Total wall time of ``prefix`` operations, and their unattributed part."""
        ops = self.layer_times(prefix).get("op", [])
        walls = [end - start for name, start, end, _p, op in self.spans
                 if name == "op" and op.startswith(prefix)]
        return sum(walls), sum(ops)

    def dump(self, path: str) -> None:
        names = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(names, span)) for span in self.spans], handle)


@contextlib.contextmanager
def spans_around(tracer: Tracer, targets):
    """Route calls through spans: ``targets`` holds ``(module, attribute, span,
    results)``; each module function is replaced by a traced wrapper and put
    back on exit, so the program's own code runs and its calls are timed."""
    saved = [(module, attribute, getattr(module, attribute))
             for module, attribute, _span, _results in targets]
    for (module, attribute, name, results), (_m, _a, function) in zip(targets, saved):
        setattr(module, attribute, tracer.wrap(name, function, results))
    try:
        yield
    finally:
        for module, attribute, function in saved:
            setattr(module, attribute, function)


def workload_report(run: Run, workload: str, seconds: float) -> Dict[str, Any]:
    """The ``report`` line of an untraced run of ``workload`` in a child process."""
    proc = run.spawn(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(run.seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"untraced {workload}: timed out")
    for line in out.decode("utf-8", "replace").splitlines():
        if line.startswith("report "):
            return json.loads(line[len("report "):])
    raise BenchError(f"untraced {workload}: exit {proc.returncode}, no report")


def _median(values: List[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# Import cost
# --------------------------------------------------------------------------- #
def import_costs(run: Run, repeats: int = 3) -> Dict[str, Tuple[float, str]]:
    """``python -c "import X"`` minus ``python -c pass``, medians of ``repeats``."""
    programs = {"pass": "pass", "cli": "import repro.cli", "scipy": "import scipy.optimize"}
    times: Dict[str, List[float]] = {key: [] for key in programs}
    for _ in range(repeats):
        for key, program in programs.items():
            began = time.perf_counter()
            proc = run.spawn([sys.executable, "-c", program],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            proc.wait()  # a blocking waitpid: a timeout would poll in 50 ms steps
            times[key].append(time.perf_counter() - began)
    base = p50(times["pass"])
    return {
        "import.cli_s": (p50(times["cli"]) - base, "s"),
        "import.scipy_s": (p50(times["scipy"]) - base, "s"),
    }


# --------------------------------------------------------------------------- #
# validate-oneshot
# --------------------------------------------------------------------------- #
def trace_oneshot(run: Run, tracer: Tracer, budget: float) -> Dict[str, Tuple[float, str]]:
    from repro.engine.compiled import CompiledSchema
    from repro.engine.fixpoint import FixpointStats, maximal_typing_fixpoint
    from repro.rdf.convert import rdf_to_simple_graph
    from repro.rdf.parser import parse_turtle_lite
    from repro.schema.parser import parse_schema

    schema_path, docs = oneshot_docs(run, run.tmpdir("docs"))
    rng = random.Random(run.seed + 1)
    untraced = 0.0
    triples = 0
    parse_time = 0.0
    checks = hits = 0
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < budget:
        for shape, path, expected in rng.sample(docs, len(docs)):
            count += 1
            with run.op():
                began = time.perf_counter()
                returncode, out, _rss = run_cli(run, schema_path, path)
                untraced += time.perf_counter() - began
                check_cli(run, returncode, out, expected, f"{shape} document")
                with tracer.op(f"validate-oneshot/{count}"):
                    with tracer.span("io.read"):
                        with open(schema_path, encoding="utf-8") as handle:
                            schema_text = handle.read()
                        with open(path, encoding="utf-8") as handle:
                            text = handle.read()
                    with tracer.span("schema.parse"):
                        schema = parse_schema(schema_text, name=schema_path)
                    with tracer.span("rdf.parse"):
                        began = time.perf_counter()
                        rdf = parse_turtle_lite(text, name=path)
                        parse_time += time.perf_counter() - began
                    with tracer.span("rdf.convert"):
                        graph = rdf_to_simple_graph(rdf, name=path)
                    with tracer.span("engine.compile"):
                        compiled = CompiledSchema(schema)
                    stats = FixpointStats()
                    with tracer.span("engine.typing"):
                        typing = maximal_typing_fixpoint(graph, compiled=compiled, stats=stats)
                        untyped = sum(1 for node in graph.nodes if not typing.types_of(node))
                triples += len(rdf)
                checks += stats.checks
                hits += stats.signature_hits
                run.check(untyped == expected,
                          f"traced {shape}: {untyped} untyped, expected {expected}")
    wall, unattributed = tracer.op_wall("validate-oneshot/")
    times = tracer.layer_times("validate-oneshot/")
    return {
        "rdf.parse_s": (_median(times["rdf.parse"]), "s"),
        "rdf.parse_triples_per_s": (triples / parse_time, "1/s"),
        "rdf.convert_s": (_median(times["rdf.convert"]), "s"),
        "schema.parse_s": (_median(times["schema.parse"]), "s"),
        "engine.compile_s": (_median(times["engine.compile"]), "s"),
        "engine.typing_s": (_median(times["engine.typing"]), "s"),
        "engine.checks": (checks / count, "count"),
        "engine.signature_hit_ratio": (_ratio(hits, checks), "ratio"),
        "trace.unattributed_share.validate-oneshot": (_ratio(unattributed, wall), "ratio"),
        "trace.overhead_ratio.validate-oneshot": (_ratio(wall, untraced), "ratio"),
    }


# --------------------------------------------------------------------------- #
# daemon-churn
# --------------------------------------------------------------------------- #
def churn_ops(seed: int, count: int):
    """The first ``count`` operations of the daemon-churn loop, precomputed."""
    mirrors = {name: gen.Mirror(name, model)
               for name, model in gen.store_graphs(random.Random(seed)).items()}
    rng = random.Random(seed + 1)
    order = churn_order(rng, mirrors)
    ops = []
    for _ in range(count):
        mirror = mirrors[next(order)]
        version = mirror.version
        kind, delta = mirror.next_delta(rng)
        expected = {repr(node) for node in mirror.model.untyped()}
        ops.append((mirror.name, version, kind, delta, expected))
    return ops


def _entry_ok(run: Run, entry: Dict[str, Any], expected: set, what: str) -> None:
    got = set(entry.get("untyped_nodes", ()))
    run.check(got == expected and entry.get("verdict") == ("invalid" if expected else "valid"),
              f"{what}: {len(got)} untyped, expected {len(expected)}")


def _wal_bytes(directory: str) -> int:
    return sum(os.path.getsize(path) for path in glob.glob(os.path.join(directory, "wal-*.log")))


def trace_churn(run: Run, tracer: Tracer, budget: float) -> Dict[str, Tuple[float, str]]:
    from repro.engine.validation import ValidationEngine
    from repro.graphs.store import Delta, GraphStore
    from repro.persist import DurableStore
    from repro.presburger.solver import SolverWindow
    from repro.rdf.convert import rdf_to_simple_graph
    from repro.rdf.parser import parse_turtle_lite
    from repro.schema.parser import parse_schema

    # Untraced: the same operations through a daemon, timed from the client.
    daemon, _mirrors = start_stores(run, run.tmpdir("data"))
    ops = []
    overheads: List[float] = []
    response_bytes: List[int] = []
    untraced = 0.0
    try:
        conn = daemon.conn
        pending = churn_ops(run.seed, 400)
        start = time.perf_counter()
        for name, version, kind, delta, expected in pending:
            if time.perf_counter() - start >= budget:
                break
            ops.append((name, version, kind, delta, expected))
            with run.op():
                began = time.perf_counter()
                conn.call("update_graph", name=name, delta=delta, expect_version=version)
                sent = time.perf_counter()
                entry = conn.call("revalidate", name=name, schema=SCHEMA_NAME,
                                  compressed=COMPRESSED.get(name, False))
                done = time.perf_counter()
                untraced += done - began
                overheads.append(done - sent - entry["seconds"])
                response_bytes.append(conn.last_bytes)
                _entry_ok(run, entry, expected, f"daemon {kind} on {name}")
    finally:
        daemon.stop()

    # Traced: the same operations on in-process durable stores.
    engine = ValidationEngine()
    compiled = engine.compile(parse_schema(gen.SCHEMA_TEXT, name=SCHEMA_NAME))
    durable: Dict[str, Any] = {}
    plain: Dict[str, Any] = {}
    for name, model in gen.store_graphs(random.Random(run.seed)).items():
        graph = rdf_to_simple_graph(parse_turtle_lite(model.turtle(), name=name), name=name)
        plain[name] = GraphStore(graph.copy(name=name))
        durable[name] = DurableStore.create(run.tmpdir(name), graph, name=name, fsync="always")
        engine.revalidate(durable[name], compiled, compressed=COMPRESSED.get(name, False))
    window = SolverWindow()
    syncs = used = 0
    shrink: List[float] = []
    incremental = 0
    affected = 0
    wal_growth = 0
    solver = {"batch": 0, "milp": 0, "warm_hits": 0, "warm_misses": 0}
    try:
        for index, (name, _version, kind, delta, expected) in enumerate(ops):
            store = durable[name]
            compressed = COMPRESSED.get(name, False)
            wal_before = _wal_bytes(store.directory)
            with tracer.op(f"daemon-churn/{index}"):
                with tracer.span("graphs.apply"):
                    plain[name].apply(Delta.from_json(delta))
                with tracer.span("persist.apply"):
                    store.apply(Delta.from_json(delta))
                if not compressed:
                    with tracer.span("graphs.view_sync"):
                        view = store.typing_view()
                    syncs += 1
                    if view is not None:
                        used += 1
                        shrink.append(store.graph.node_count / max(view.kind_count, 1))
                window.reset()
                with tracer.span("engine.revalidate"):
                    outcome = engine.revalidate(store, compiled, compressed=compressed)
                stats = window.snapshot()
            wal_growth += _wal_bytes(store.directory) - wal_before
            solver["batch"] += stats.batch_calls
            solver["milp"] += stats.milp_calls
            solver["warm_hits"] += stats.warm_hits
            solver["warm_misses"] += stats.warm_misses
            incremental += outcome.mode not in ("full", "kinds")
            affected += outcome.affected
            with run.op():
                _entry_ok(run, {"verdict": outcome.result.verdict,
                                "untyped_nodes": outcome.result.payload["untyped_nodes"]},
                          expected, f"traced {kind} on {name}")
    finally:
        for store in durable.values():
            store.close()
    count = max(len(ops), 1)
    wall, unattributed = tracer.op_wall("daemon-churn/")
    times = tracer.layer_times("daemon-churn/")
    return {
        "graphs.apply_s": (_median(times.get("graphs.apply", [])), "s"),
        "graphs.view_sync_s": (_median(times.get("graphs.view_sync", [])), "s"),
        "graphs.view_used_ratio": (_ratio(used, syncs), "ratio"),
        "graphs.view_shrink_ratio": (_median(shrink, 1.0), "ratio"),
        "persist.apply_s": (_median(times.get("persist.apply", [])), "s"),
        "persist.wal_bytes_per_delta": (wal_growth / count, "B"),
        "engine.revalidate_s": (_median(times.get("engine.revalidate", [])), "s"),
        "engine.incremental_ratio": (incremental / count, "ratio"),
        "engine.affected_nodes": (affected / count, "count"),
        "presburger.batch_calls": (solver["batch"] / count, "count"),
        "presburger.milp_calls": (solver["milp"] / count, "count"),
        "presburger.warm_hit_ratio": (
            _ratio(solver["warm_hits"], solver["warm_hits"] + solver["warm_misses"]), "ratio"),
        "serve.overhead_s": (_median(overheads), "s"),
        "serve.response_bytes": (_median(response_bytes), "B"),
        "trace.unattributed_share.daemon-churn": (_ratio(unattributed, wall), "ratio"),
        "trace.overhead_ratio.daemon-churn": (_ratio(wall, untraced), "ratio"),
    }


# --------------------------------------------------------------------------- #
# crash-restart
# --------------------------------------------------------------------------- #
def trace_restart(run: Run, tracer: Tracer, budget: float) -> Dict[str, Tuple[float, str]]:
    from repro.engine.validation import ValidationEngine
    from repro.persist import DurableStore
    from repro.schema.parser import parse_schema

    data_dir, mirrors = crashed_data_dir(run)
    ready: List[float] = []
    untraced = 0.0
    replayed = 0
    snapshot_bytes: List[int] = []
    count = 0
    start = time.perf_counter()
    while count == 0 or time.perf_counter() - start < budget:
        count += 1
        with run.op():
            # Untraced: a daemon restart on a private copy.
            copy = os.path.join(run.tmpdir("restart"), "data")
            shutil.copytree(data_dir, copy)
            began = time.perf_counter()
            daemon = Daemon(run, copy)
            try:
                conn = daemon.wait_ready()
                ready.append(time.perf_counter() - began)
                entries = revalidate_stores(conn, sorted(mirrors))
                untraced += time.perf_counter() - began
            finally:
                daemon.stop()
            for name, mirror in mirrors.items():
                check_entry(run, entries.get(name, {}), mirror, "daemon restart")
            shutil.rmtree(copy)

        with run.op():
            # Traced: the same recovery in-process.
            copy = os.path.join(run.tmpdir("restart"), "data")
            shutil.copytree(data_dir, copy)
            stores: Dict[str, Any] = {}
            with tracer.op(f"crash-restart/{count}"):
                engine = ValidationEngine()
                with tracer.span("io.read"):
                    with open(os.path.join(copy, "schemas", f"{SCHEMA_NAME}.shex"),
                              encoding="utf-8") as handle:
                        text = handle.read()
                with tracer.span("schema.parse"):
                    schema = parse_schema(text, name=SCHEMA_NAME)
                with tracer.span("engine.compile"):
                    compiled = engine.compile(schema)
                for directory in sorted(glob.glob(os.path.join(copy, "graphs", "*"))):
                    with tracer.span("persist.open"):
                        store = DurableStore.open(directory, fsync="always")
                    with tracer.span("engine.seed"):
                        for snap in store.restored_typings:
                            if snap["schema"] == compiled.fingerprint:
                                engine.seed_typing(
                                    store, compiled, snap["typing"], snap["version"],
                                    compressed=snap["compressed"],
                                    kind_typing=snap["kind_typing"], epoch=snap["epoch"],
                                )
                    stores[store.name] = store
                    replayed += store.recovery.get("replayed", 0)
                    snapshot_bytes.append(sum(
                        os.path.getsize(path)
                        for path in glob.glob(os.path.join(directory, "snapshot-*.json"))))
                outcomes = {}
                for name, store in stores.items():
                    with tracer.span("engine.revalidate"):
                        outcomes[name] = engine.revalidate(
                            store, compiled, compressed=COMPRESSED.get(name, False))
            for name, mirror in mirrors.items():
                outcome = outcomes.get(name)
                check_entry(run, {} if outcome is None else {
                    "verdict": outcome.result.verdict, "version": outcome.version,
                    "untyped_nodes": outcome.result.payload["untyped_nodes"],
                }, mirror, "traced restart")
            with tracer.span("persist.checkpoint", op=f"crash-restart/{count}/checkpoint"):
                for store in stores.values():
                    store.checkpoint(engine.export_typings(store))
            for store in stores.values():
                store.close()
            shutil.rmtree(copy)
    wall, unattributed = tracer.op_wall("crash-restart/")
    times = tracer.layer_times("crash-restart/")
    return {
        "persist.open_s": (_median(times["persist.open"]), "s"),
        "persist.replayed_records": (replayed / count, "count"),
        "persist.snapshot_bytes": (_median(snapshot_bytes), "B"),
        "persist.checkpoint_s": (_median(times["persist.checkpoint"]), "s"),
        "serve.ready_s": (_median(ready), "s"),
        "trace.unattributed_share.crash-restart": (_ratio(unattributed, wall), "ratio"),
        "trace.overhead_ratio.crash-restart": (_ratio(wall, untraced), "ratio"),
    }


# --------------------------------------------------------------------------- #
# contains-evolution
# --------------------------------------------------------------------------- #
def trace_contains(run: Run, tracer: Tracer, budget: float) -> Dict[str, Tuple[float, str]]:
    from repro.containment import api, characterizing
    from repro.engine.compiled import compile_schema

    # Untraced: the workload itself in a fresh process, whose caches (the
    # compile intern table, the solver memo) are as cold as this process's
    # are for these pairs; the traced replay then repeats its operations.
    report = workload_report(run, "contains-evolution", budget)
    run.check(report["failed"] == 0, f"untraced contains-evolution: {report['errors']}")
    untraced = report["detail"]["contains_total_s"]
    pairs = gen.schema_pairs(random.Random(run.seed), report["attempted"])
    searches: List[Any] = []
    layers = [
        (api, "contains_detshex0_minus", "containment.detshex", None),
        (api, "maximal_simulation", "embedding.simulation", None),
        (api, "find_counterexample", "containment.search", searches),
        (characterizing, "characterizing_graph_for_schema", "containment.characterizing", None),
    ]
    for index, (kind, left, right) in enumerate(pairs):
        with run.op():
            with spans_around(tracer, layers), tracer.op(f"contains-evolution/{index}"):
                # contains() is compile_schema on both sides, then
                # contains_compiled; classification is read here first.
                with tracer.span("schema.classify"):
                    sub, sup = compile_schema(left), compile_schema(right)
                    sub.schema_class, sup.schema_class, sub.is_shex0 and sup.is_shex0
                result = api.contains_compiled(sub, sup)
            check_containment(run, kind, left, right, result)
    wall, unattributed = tracer.op_wall("contains-evolution/")
    times = tracer.layer_times("contains-evolution/")
    return {
        "schema.classify_s": (_median(times.get("schema.classify", [])), "s"),
        "containment.detshex_s": (_median(times.get("containment.detshex", [])), "s"),
        "embedding.simulation_s": (_median(times.get("embedding.simulation", [])), "s"),
        "containment.characterizing_s": (
            _median(times.get("containment.characterizing", [])), "s"),
        "containment.search_s": (_median(times.get("containment.search", [])), "s"),
        "containment.candidates": (
            sum(search.candidates_checked for search in searches) / max(len(pairs), 1),
            "count"),
        "trace.unattributed_share.contains-evolution": (_ratio(unattributed, wall), "ratio"),
        "trace.overhead_ratio.contains-evolution": (_ratio(wall, untraced), "ratio"),
    }


def traced_run(run: Run) -> Dict[str, Any]:
    """Every workload's traced replay; the per-layer metrics of all of them."""
    tracer = Tracer()
    budget = run.seconds / 4
    layers: Dict[str, Tuple[float, str]] = {}
    layers.update(import_costs(run))
    layers.update(trace_oneshot(run, tracer, budget))
    layers.update(trace_churn(run, tracer, budget))
    layers.update(trace_restart(run, tracer, budget))
    layers.update(trace_contains(run, tracer, budget))
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    tracer.dump(os.path.join(ROOT, OUT_DIR, f"trace-{run.workload}-{run.seed}.json"))
    return {"layers": layers}
