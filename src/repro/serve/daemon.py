"""The long-lived validation daemon: compiled schemas that outlive requests.

A one-shot CLI invocation pays interpreter start-up, schema parsing, schema
compilation, and a cold result cache on *every* call — which defeats the point
of fingerprint-keyed compilation.  :class:`ValidationDaemon` keeps all of that
alive in one process: it listens on a Unix or TCP socket, speaks the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`, and serves
every request through a shared :class:`repro.serve.async_engine.AsyncValidationEngine`
/ :class:`AsyncContainmentEngine` pair, so

* each distinct schema is compiled once for the daemon's lifetime;
* repeated (schema, graph) and (left, right) jobs are answered from the
  fingerprint-keyed LRU caches across *all* connections;
* parsed schema/data texts are memoised by content hash, so resubmitting the
  same document skips the parser too.  A document registered with
  ``update_graph`` is not memoised: its store owns the one parsed graph.

Run it in the foreground with ``shex-serve start``, drive it with
``shex-serve status|stop``, ``shex-containment validate/batch --connect``, the
:class:`repro.serve.client.DaemonClient`, or raw ``nc`` (see
``docs/protocol.md``).  Tests and examples embed it via
:func:`start_in_thread`.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, unquote

import repro
from repro import faults
from repro.engine.cache import CacheStats, LRUCache, cache_collector
from repro.engine.compiled import CompiledSchema, graph_fingerprint
from repro.engine.fixpoint import fixpoint_metrics_summary
from repro.engine.jobs import JobResult, ValidationJob
from repro.errors import GraphError, ProtocolError, ReproError
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.persist import DurableStore, persist_metrics_summary
from repro.rdf.convert import load_graph
from repro.schema.parser import parse_schema
from repro.serve import protocol
from repro.serve.async_engine import (
    AsyncContainmentEngine,
    AsyncValidationEngine,
    run_in_worker,
)

#: Generous per-line limit (64 KiB default would truncate large graphs).
_LINE_LIMIT = 8 * 1024 * 1024

_LOG = logging.getLogger("repro.serve.daemon")

# Request-level instruments.  Responses that never resolved an op (bad JSON,
# unknown op) are labelled ``invalid`` so the error series still adds up.
_M_REQUESTS = obs_metrics.get_registry().counter(
    "repro_daemon_requests_total", "Requests handled, by operation.", labels=("op",)
)
_M_REQUEST_SECONDS = obs_metrics.get_registry().histogram(
    "repro_daemon_request_seconds",
    "Wall time from request line to final response, by operation.",
    labels=("op",),
)
_M_ERRORS = obs_metrics.get_registry().counter(
    "repro_daemon_errors_total", "Error responses, by protocol error code.",
    labels=("code",),
)
_M_SLOW = obs_metrics.get_registry().counter(
    "repro_daemon_slow_requests_total",
    "Requests slower than the slow-op log threshold.",
    labels=("op",),
)
_M_REJECTED = obs_metrics.get_registry().counter(
    "repro_daemon_rejected_total",
    "Requests or connections refused under backpressure, by reason.",
    labels=("reason",),
)

#: Control-plane operations that bypass the in-flight backpressure cap, so an
#: operator can still ``ping``/``status``/``stop`` an overloaded daemon.
_CONTROL_OPS = frozenset({"ping", "status", "metrics", "flush_cache", "shutdown"})


class _ParsedData:
    """A parse-memo entry: a document's graph, and its content fingerprint
    once a validation has needed it."""

    __slots__ = ("graph", "fingerprint")

    def __init__(self, graph):
        self.graph = graph
        self.fingerprint: Optional[str] = None


def _stats_dict(stats: CacheStats) -> Dict[str, Any]:
    """Render :class:`repro.engine.cache.CacheStats` as a JSON-safe dict."""
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "size": stats.size,
        "max_size": stats.max_size,
        "hit_rate": round(stats.hit_rate, 4),
    }


class ValidationDaemon:
    """Serve validation/containment over a socket with long-lived caches.

    Parameters mirror the engines: ``backend`` / ``max_workers`` pick the
    executor the jobs fan out to, ``cache_size`` bounds each in-memory
    result cache, which lives as long as the daemon; ``data_dir`` is what
    survives a restart.  Exactly one of ``socket_path`` (Unix) or ``host``+``port``
    (TCP) selects the listening endpoint; ``port=0`` asks the OS for a free
    port, readable from :attr:`address` once started.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        cache_size: int = 4096,
        slow_ms: float = 1000.0,
        log_level: Optional[str] = None,
        log_json: bool = False,
        request_timeout: Optional[float] = None,
        max_inflight: Optional[int] = None,
        max_connections: Optional[int] = None,
        drain_timeout: float = 5.0,
        data_dir: Optional[str] = None,
        fsync: str = "always",
        checkpoint_interval: Optional[float] = None,
    ):
        if (socket_path is None) == (host is None):
            raise ValueError("pass exactly one of socket_path or host/port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        #: Persistence root (``schemas/`` + ``graphs/<name>/``); ``None``
        #: keeps every store in memory only.  See docs/architecture.md,
        #: "Durability and recovery".
        self.data_dir = data_dir
        #: WAL fsync policy for durable stores (``always``/``interval[:s]``/``off``).
        self.fsync = fsync
        #: Seconds between automatic checkpoints (``None`` = only explicit
        #: ``checkpoint`` ops and the best-effort one at clean shutdown).
        self.checkpoint_interval = checkpoint_interval
        #: Requests slower than this (milliseconds) emit one structured
        #: ``slow_op`` log line carrying the request's timed span tree.
        self.slow_ms = slow_ms
        #: Default per-request deadline in seconds (``None`` = unbounded);
        #: a request's ``deadline_ms`` field overrides it per call.
        self.request_timeout = request_timeout
        #: Cap on concurrently *executing* work-plane requests; excess
        #: requests are rejected with ``overloaded`` instead of queueing.
        self.max_inflight = max_inflight
        #: Cap on open client connections; excess connects are answered with
        #: one ``overloaded`` error line and closed.
        self.max_connections = max_connections
        #: How long shutdown waits for in-flight requests before force-closing.
        self.drain_timeout = drain_timeout
        if log_level is not None:
            obs_logs.configure_logging(level=log_level, json_lines=log_json)
        self.validation = AsyncValidationEngine(
            backend=backend, max_workers=max_workers, cache_size=cache_size,
        )
        self.containment = AsyncContainmentEngine(
            backend=backend, max_workers=max_workers, cache_size=cache_size,
        )
        self._schemas: Dict[str, CompiledSchema] = {}
        self._stores: Dict[str, GraphStore] = {}
        # One lock per graph name: a delta must never land while a
        # revalidation is reading the same store (the fixpoint iterates live
        # adjacency), and the recorded (version, typing) snapshot must match
        # the graph it was computed from.  Different graphs proceed freely.
        self._store_locks: Dict[str, asyncio.Lock] = {}
        self._parsed = LRUCache(max_size=256)  # content-hash -> parsed document
        self._persisted_schemas: set = set()  # fingerprints on disk under schemas/
        self._requests: Dict[str, int] = {}
        self._connections = 0
        self._inflight = 0
        self._draining = False
        self._drained_clean = True
        self._conn_tasks: set = set()
        self._writers: set = set()
        self._started_at: Optional[float] = None
        self._collectors: list = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        # Per durable store: the (version, typing signature) its newest
        # snapshot holds, so checkpoints can be skipped when neither the
        # graph (WAL empty) nor the engine's typings moved since.
        self._checkpointed: Dict[str, Tuple[int, frozenset]] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """Human-readable listening address (``unix:...`` or ``tcp:host:port``)."""
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    async def start(self) -> None:
        """Recover :attr:`data_dir`, if any, then bind the socket and start
        accepting connections.

        The recovery blocks the loop; nothing is served before it ends.
        """
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        if self.data_dir is not None:
            # Recover before binding: the first request already sees every
            # persisted schema compiled and every graph warm-restarted.
            # Nothing is bound yet, so no request waits on the loop.  On an
            # offload worker the open would get a malloc arena of its own,
            # and glibc keeps about 2 MB of it after the open returns.
            self._open_data_dir()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                # Distinguish a stale socket (dead daemon) from a live one:
                # hijacking a live daemon's socket would orphan its caches and
                # later delete the new socket on the old daemon's shutdown.
                if self._socket_is_live(self.socket_path):
                    raise ReproError(
                        f"a daemon is already serving on {self.socket_path}; "
                        "stop it first (shex-serve stop) or pick another path"
                    )
                os.unlink(self.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path, limit=_LINE_LIMIT
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port, limit=_LINE_LIMIT
            )
            if not self.port:
                self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        # Expose this daemon's caches and gauges to the metrics registry for
        # the lifetime of the serve loop (collectors are sampled at
        # snapshot/scrape time, so there is no per-request cost).
        self._collectors = [
            cache_collector("validation", self.validation.engine.cache),
            cache_collector("containment", self.containment.engine.cache),
            cache_collector("parsed", self._parsed),
            self._daemon_collector,
        ]
        registry = obs_metrics.get_registry()
        for collector in self._collectors:
            registry.add_collector(collector)
        if self.data_dir is not None and self.checkpoint_interval:
            self._checkpoint_task = asyncio.create_task(self._auto_checkpoint())

    @staticmethod
    def _socket_is_live(path: str) -> bool:
        """True when something accepts connections on the Unix socket ``path``."""
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(path)
        except OSError:
            return False
        finally:
            probe.close()
        return True

    async def serve(self, on_ready=None) -> None:
        """Start, run until :meth:`request_stop` (or the ``shutdown`` op), clean up."""
        await self.start()
        if on_ready is not None:
            on_ready()
        try:
            await self._stopping.wait()
        finally:
            await self._shutdown()

    def request_stop(self) -> None:
        """Ask the serve loop to exit; safe to call from the event loop only.

        From another thread use ``loop.call_soon_threadsafe(daemon.request_stop)``
        (what :class:`DaemonHandle` does).
        """
        if self._stopping is not None:
            self._stopping.set()

    # ------------------------------------------------------------------ #
    # Persistence (``--data-dir``)
    # ------------------------------------------------------------------ #
    def _graph_dir(self, name: str) -> str:
        """The durable directory for graph ``name`` (percent-quoted)."""
        return os.path.join(self.data_dir, "graphs", quote(name, safe=""))

    def _open_data_dir(self) -> None:
        """Recover schemas and durable stores from :attr:`data_dir` (blocking).

        Schemas come back first (``schemas/*.shex``, recompiled), then every
        ``graphs/<name>/`` directory is opened through
        :meth:`repro.persist.DurableStore.open` — snapshot load plus WAL
        replay — and its persisted typing snapshots are seeded into the
        engine so the first ``revalidate`` runs incrementally instead of
        retyping the world.  A directory that cannot be recovered (unknown
        future format, broken record sequence) fails the daemon start with
        a clear error rather than serving a partial load.
        """
        schema_dir = os.path.join(self.data_dir, "schemas")
        graphs_dir = os.path.join(self.data_dir, "graphs")
        os.makedirs(schema_dir, exist_ok=True)
        os.makedirs(graphs_dir, exist_ok=True)
        by_fingerprint: Dict[str, CompiledSchema] = {}
        for entry in sorted(os.listdir(schema_dir)):
            if not entry.endswith(".shex"):
                continue
            name = unquote(entry[: -len(".shex")])
            with open(os.path.join(schema_dir, entry), "r", encoding="utf-8") as handle:
                text = handle.read()
            compiled = self.validation.engine.compile(parse_schema(text, name=name))
            self._schemas[name] = compiled
            by_fingerprint[compiled.fingerprint] = compiled
            self._persisted_schemas.add(compiled.fingerprint)
        for entry in sorted(os.listdir(graphs_dir)):
            directory = os.path.join(graphs_dir, entry)
            if not os.path.isdir(directory):
                continue
            store = DurableStore.open(directory, fsync=self.fsync)
            name = store.name or unquote(entry)
            seeded = 0
            for snapshot in store.restored_typings:
                compiled = by_fingerprint.get(snapshot["schema"])
                if compiled is None:
                    continue  # schema text was never persisted; retype cold
                self.validation.engine.seed_typing(
                    store,
                    compiled,
                    snapshot["typing"],
                    snapshot["version"],
                    compressed=snapshot["compressed"],
                )
                seeded += 1
            self._stores[name] = store
            self._checkpointed[name] = (
                store.version,
                self._typing_signature(
                    self.validation.engine.export_typings(store)
                ),
            )
            obs_logs.log_event(
                _LOG, logging.INFO, "persist_recovered",
                graph=name, generation=store.generation, version=store.version,
                seeded_typings=seeded, **store.recovery,
            )

    def _persist_schema_text(self, name: str, text: str) -> None:
        """Write one schema's source under ``schemas/`` (atomic replace)."""
        directory = os.path.join(self.data_dir, "schemas")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, quote(name, safe="") + ".shex")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _persist_schema_for_typings(
        self, reference: Any, compiled: CompiledSchema
    ) -> None:
        """Persist the schema text behind a ``revalidate`` reference.

        Checkpointed typings reseed at recovery only when the schema's text
        is on disk too (matched by fingerprint) — a revalidate carrying
        inline text or a path would otherwise retype cold after every
        restart even though its typing snapshot was persisted.  Registered
        names were already written by ``load_schema``; same-name re-persists
        replace the file, matching ``load_schema`` semantics.
        """
        if not self._schema_unpersisted(reference, compiled):
            return  # another request wrote it since the caller checked
        if "text" in reference:
            text = reference["text"]
            name = reference.get("name") or compiled.fingerprint[:16]
        else:
            name = reference["path"]
            text = self._read_path(name)
        self._persist_schema_text(str(name), text)
        self._persisted_schemas.add(compiled.fingerprint)

    def _schema_unpersisted(self, reference: Any, compiled: CompiledSchema) -> bool:
        """True when ``reference`` is inline text or a path whose schema is
        not on disk yet; a registered name was written by ``load_schema``."""
        return (
            compiled.fingerprint not in self._persisted_schemas
            and isinstance(reference, dict)
            and ("text" in reference or "path" in reference)
        )

    @staticmethod
    def _typing_signature(typings: List[Dict[str, Any]]) -> frozenset:
        """What identifies a set of engine typings for staleness checks."""
        return frozenset(
            (entry["schema"], entry["compressed"], entry["version"])
            for entry in typings
        )

    def _needs_checkpoint(self, name: str, store: DurableStore) -> bool:
        """True when the newest snapshot lags the graph or the typings.

        A clean WAL is not enough to skip: revalidations advance the
        engine's typing snapshots without writing any delta, and losing
        them would turn the next warm restart into a full retype.
        """
        if store.persist_status()["wal_records"] > 0:
            return True
        current = (
            store.version,
            self._typing_signature(self.validation.engine.export_typings(store)),
        )
        return self._checkpointed.get(name) != current

    async def _checkpoint_store(self, name: str, store: DurableStore) -> Dict[str, Any]:
        """Snapshot one durable store with the engine's typings (off-loop).

        Caller holds the store's lock: the exported typings then describe
        exactly the version the snapshot writes.
        """
        typings = self.validation.engine.export_typings(store)
        outcome = await self._offload(store.checkpoint, typings)
        self._checkpointed[name] = (store.version, self._typing_signature(typings))
        return outcome

    async def _auto_checkpoint(self) -> None:
        """Periodically fold dirty WALs into fresh snapshots (background task)."""
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            for name in sorted(self._stores):
                store = self._stores.get(name)
                if not isinstance(store, DurableStore) or not self._needs_checkpoint(
                    name, store
                ):
                    continue
                try:
                    async with self._store_lock(name):
                        outcome = await self._checkpoint_store(name, store)
                    obs_logs.log_event(
                        _LOG, logging.INFO, "auto_checkpoint", graph=name,
                        generation=outcome["generation"],
                        version=outcome["version"],
                        wal_records_folded=outcome["wal_records_folded"],
                    )
                except (OSError, ReproError) as exc:
                    obs_logs.log_event(
                        _LOG, logging.WARNING, "checkpoint_failed",
                        graph=name, error=str(exc),
                    )

    async def _final_checkpoint(self) -> None:
        """Best-effort checkpoint of every dirty durable store at shutdown."""
        for name, store in sorted(self._stores.items()):
            if not isinstance(store, DurableStore) or not self._needs_checkpoint(
                name, store
            ):
                continue
            try:
                await self._checkpoint_store(name, store)
            except (OSError, ReproError) as exc:
                obs_logs.log_event(
                    _LOG, logging.WARNING, "checkpoint_failed",
                    graph=name, error=str(exc),
                )

    def _daemon_collector(self):
        """Registry collector: daemon-level gauges sampled at scrape time."""
        started = self._started_at
        uptime = (time.time() - started) if started is not None else 0.0
        stores = sorted(self._stores.items())
        families = [
            (
                "repro_daemon_connections", "gauge", "Open client connections.",
                [({}, float(self._connections))],
            ),
            (
                "repro_daemon_uptime_seconds", "gauge",
                "Seconds since the daemon bound its socket.", [({}, uptime)],
            ),
            (
                "repro_daemon_schemas", "gauge", "Compiled schemas held in memory.",
                [({}, float(len(self._schemas)))],
            ),
            (
                "repro_daemon_graphs", "gauge", "Registered graph stores.",
                [({}, float(len(stores)))],
            ),
        ]
        if stores:
            families.append(
                (
                    "repro_graph_nodes", "gauge", "Nodes per registered graph store.",
                    [({"graph": name}, float(store.graph.node_count))
                     for name, store in stores],
                )
            )
            families.append(
                (
                    "repro_graph_version", "gauge",
                    "Delta-log version per registered graph store.",
                    [({"graph": name}, float(store.version)) for name, store in stores],
                )
            )
        durable = [
            (name, store) for name, store in stores
            if isinstance(store, DurableStore)
        ]
        if durable:
            families.append(
                (
                    "repro_persist_generation", "gauge",
                    "Snapshot generation per durable graph store.",
                    [({"graph": name}, float(store.generation))
                     for name, store in durable],
                )
            )
            families.append(
                (
                    "repro_persist_wal_records", "gauge",
                    "WAL records since the last checkpoint, per durable store.",
                    [({"graph": name}, float(store.persist_status()["wal_records"]))
                     for name, store in durable],
                )
            )
        return families

    async def _shutdown(self) -> None:
        # Refuse new work first (new connections and new work-plane requests
        # answer ``overloaded``), then let whatever is already executing —
        # including a streamed batch mid-flight — write its responses before
        # any socket is torn down.
        self._draining = True
        registry = obs_metrics.get_registry()
        for collector in self._collectors:
            registry.remove_collector(collector)
        self._collectors = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + max(self.drain_timeout, 0.0)
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self._drained_clean = self._inflight == 0
        if not self._drained_clean:
            obs_logs.log_event(
                _LOG, logging.WARNING, "drain_timeout",
                inflight=self._inflight, drain_timeout=self.drain_timeout,
            )
        # Close lingering client connections and wait for their handlers, so
        # nothing is left to be force-cancelled at loop teardown.
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._checkpoint_task
            self._checkpoint_task = None
        if self.data_dir is not None:
            # A clean shutdown leaves an empty WAL behind: the next open
            # replays nothing and the snapshot carries the typings.
            await self._final_checkpoint()
        for store in self._stores.values():
            if isinstance(store, DurableStore):
                store.close()
        await self.validation.aclose()
        await self.containment.aclose()
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining or (
            self.max_connections is not None
            and self._connections >= self.max_connections
        ):
            # Refused before any request is read: one structured error line,
            # then close.  Clients treat ``overloaded`` as retry-after-backoff.
            reason = "draining" if self._draining else "connections"
            if obs_metrics.STATE.enabled:
                _M_REJECTED.labels(reason=reason).inc()
            message = (
                "daemon is draining for shutdown"
                if self._draining
                else f"connection limit reached ({self.max_connections})"
            )
            with contextlib.suppress(ConnectionError):
                writer.write(
                    protocol.encode(
                        protocol.error_response(None, protocol.E_OVERLOADED, message)
                    )
                )
                await writer.drain()
            writer.close()
            with contextlib.suppress(ConnectionError, asyncio.CancelledError):
                await writer.wait_closed()
            return
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None, protocol.E_BAD_REQUEST, "request line too long"
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break  # client closed its end
                if not line.strip():
                    continue
                stop_after = await self._handle_line(line.strip(), writer)
                await writer.drain()
                if stop_after:
                    self.request_stop()
                    break
        except ConnectionError:
            pass  # client vanished mid-request; nothing to answer
        finally:
            self._connections -= 1
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes, writer: asyncio.StreamWriter) -> bool:
        """Answer one request line; returns True when the daemon should stop.

        Every response — success or error — echoes a ``trace`` id: the one
        the client sent (any string), or one minted here.  The request runs
        under a ``daemon.<op>`` trace root so spans opened further down
        (fixpoint runs, solver batches, batch executors) attach to it, and
        requests slower than :attr:`slow_ms` emit one structured ``slow_op``
        log line carrying that timed span tree.
        """
        request_id: Any = None
        op: Optional[str] = None
        trace_id: Optional[str] = None
        root = None
        error_code: Optional[str] = None
        stop_after = False
        started = time.perf_counter()
        try:
            message = protocol.decode_request(line)
            request_id = message.get("id")
            trace_id = message.get("trace")
            if trace_id is not None and not isinstance(trace_id, str):
                raise ProtocolError("'trace' must be a string", protocol.E_BAD_REQUEST)
            if trace_id is None:
                trace_id = obs_tracing.new_trace_id()
            op = message["op"]
            self._requests[op] = self._requests.get(op, 0) + 1
            if op not in _CONTROL_OPS:
                if self._draining:
                    if obs_metrics.STATE.enabled:
                        _M_REJECTED.labels(reason="draining").inc()
                    raise ProtocolError(
                        "daemon is draining for shutdown", protocol.E_OVERLOADED
                    )
                if (
                    self.max_inflight is not None
                    and self._inflight >= self.max_inflight
                ):
                    if obs_metrics.STATE.enabled:
                        _M_REJECTED.labels(reason="inflight").inc()
                    raise ProtocolError(
                        f"too many in-flight requests "
                        f"(limit {self.max_inflight}); retry after a backoff",
                        protocol.E_OVERLOADED,
                    )
            deadline = self._request_deadline(message)
            with obs_tracing.start_trace(f"daemon.{op}", trace_id=trace_id) as root:
                self._inflight += 1
                try:
                    if op == "batch":
                        work = self._op_batch(message, writer, trace_id)
                        if deadline is None:
                            await work
                        else:
                            await asyncio.wait_for(work, deadline)
                    else:
                        handler = getattr(self, f"_op_{op}")
                        if deadline is None:
                            result = await handler(message)
                        else:
                            result = await asyncio.wait_for(
                                handler(message), deadline
                            )
                        await self._send(
                            writer,
                            protocol.encode(
                                protocol.ok_response(
                                    request_id, result, trace=trace_id
                                )
                            ),
                        )
                        stop_after = op == "shutdown"
                finally:
                    self._inflight -= 1
        except asyncio.TimeoutError:
            error_code = protocol.E_DEADLINE
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request_id,
                        protocol.E_DEADLINE,
                        f"request ran past its deadline of {deadline:.3f}s "
                        "and was cancelled",
                        trace=trace_id,
                    )
                )
            )
        except ConnectionError:
            # The transport died mid-request (client vanished, or an injected
            # drop): nothing can be answered; the connection handler cleans up.
            error_code = "connection-lost"
            raise
        except ProtocolError as exc:
            error_code = exc.code
            request_id, trace_id = self._salvage_envelope(line, request_id, trace_id)
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request_id, exc.code, str(exc), trace=trace_id
                    )
                )
            )
        except ReproError as exc:
            error_code = protocol.E_PARSE
            request_id, trace_id = self._salvage_envelope(line, request_id, trace_id)
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request_id, protocol.E_PARSE, str(exc), trace=trace_id
                    )
                )
            )
        except Exception as exc:  # noqa: BLE001 — the connection must survive
            error_code = protocol.E_INTERNAL
            request_id, trace_id = self._salvage_envelope(line, request_id, trace_id)
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request_id,
                        protocol.E_INTERNAL,
                        f"{type(exc).__name__}: {exc}",
                        trace=trace_id,
                    )
                )
            )
        finally:
            self._finish_request(op, trace_id, started, root, error_code)
        return stop_after

    def _request_deadline(self, message: Dict[str, Any]) -> Optional[float]:
        """The request's deadline in seconds: ``deadline_ms`` when present,
        else the daemon's ``request_timeout`` default (``None`` = unbounded)."""
        value = message.get("deadline_ms")
        if value is None:
            return self.request_timeout
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ProtocolError(
                "'deadline_ms' must be a positive number", protocol.E_BAD_REQUEST
            )
        return float(value) / 1000.0

    async def _send(self, writer: asyncio.StreamWriter, payload: bytes) -> None:
        """Write one response line, honouring any injected socket fault.

        ``daemon.drop`` aborts the transport before anything is written;
        ``daemon.partial`` writes a prefix of the line and then aborts (the
        client sees a torn frame and must reconnect); ``daemon.delay`` sleeps
        before the write, exercising client timeouts.
        """
        injector = faults.STATE.injector
        if injector is not None:
            if injector.should_fire("daemon.drop"):
                if writer.transport is not None:
                    writer.transport.abort()
                raise ConnectionResetError("injected connection drop")
            if injector.should_fire("daemon.partial"):
                writer.write(payload[: max(1, len(payload) // 2)])
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
                if writer.transport is not None:
                    writer.transport.abort()
                raise ConnectionResetError("injected partial write")
            if injector.should_fire("daemon.delay"):
                await asyncio.sleep(injector.plan.delay_ms / 1000.0)
        writer.write(payload)

    @staticmethod
    def _salvage_envelope(
        line: bytes, request_id: Any, trace_id: Optional[str]
    ) -> Tuple[Any, str]:
        """Best-effort ``(id, trace)`` for error responses.

        When the envelope was rejected before the trace was read (bad JSON,
        unknown op, non-string trace), recover what the payload did carry so
        even rejections echo the caller's trace — minting one otherwise.
        """
        if trace_id is None or request_id is None:
            try:
                partial = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                partial = None
            if isinstance(partial, dict):
                if request_id is None:
                    request_id = partial.get("id")
                if trace_id is None and isinstance(partial.get("trace"), str):
                    trace_id = partial["trace"]
        if trace_id is None:
            trace_id = obs_tracing.new_trace_id()
        return request_id, trace_id

    def _finish_request(
        self,
        op: Optional[str],
        trace_id: Optional[str],
        started: float,
        root: Any,
        error_code: Optional[str],
    ) -> None:
        """Record one request's latency metrics and, when slow, a log line."""
        elapsed = time.perf_counter() - started
        label = op or "invalid"
        if obs_metrics.STATE.enabled:
            _M_REQUESTS.labels(op=label).inc()
            _M_REQUEST_SECONDS.labels(op=label).observe(elapsed)
            if error_code is not None:
                _M_ERRORS.labels(code=error_code).inc()
        if elapsed * 1000.0 < self.slow_ms:
            return
        if obs_metrics.STATE.enabled:
            _M_SLOW.labels(op=label).inc()
        fields: Dict[str, Any] = {
            "op": label,
            "seconds": round(elapsed, 6),
            "trace": trace_id,
        }
        if error_code is not None:
            fields["error"] = error_code
        if getattr(root, "children", None):
            fields["spans"] = root.to_dict()
        obs_logs.log_event(_LOG, logging.WARNING, "slow_op", **fields)

    # ------------------------------------------------------------------ #
    # Document resolution (shared by validate/contains/batch)
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _offload(fn, *args):
        """Run blocking work (parsing, compilation, file reads) off the loop.

        Keeps ``ping``/``status`` responsive on other connections while one
        request compiles a large schema or reads a big document.  Spans
        opened inside ``fn`` attach to the request's ``daemon.<op>`` trace,
        and a deadline does not release the caller's store lock before ``fn``
        returns (:func:`repro.serve.async_engine.run_in_worker`).
        """
        return await run_in_worker(fn, *args)

    def _read_path(self, path: str) -> str:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ProtocolError(
                f"cannot read {path!r}: {exc.strerror or exc}", protocol.E_BAD_REQUEST
            ) from exc

    def _memoised(self, kind: str, reference: Any, *tail: Any) -> Any:
        """The parse memo's entry for a ``{"text": ...}`` reference, found
        without parsing or IO (safe on the event loop); ``None`` on a miss."""
        if isinstance(reference, dict) and isinstance(reference.get("text"), str):
            digest = hashlib.sha256(reference["text"].encode("utf-8")).hexdigest()
            key = (kind, digest) + tail
            if key in self._parsed:
                found, value = self._parsed.get(key)
                if found:
                    return value
        return None

    async def _schema(self, reference: Any, field: str = "schema") -> CompiledSchema:
        """Resolve a schema reference: on the loop when it is registered or
        memoised, else on a worker."""
        if isinstance(reference, str):
            return self._resolve_schema(reference)
        compiled = self._memoised("schema", reference)
        if compiled is None:
            compiled = await self._offload(self._resolve_schema, reference, field)
        return compiled

    def _resolve_schema(self, reference: Any, field: str = "schema") -> CompiledSchema:
        """A schema reference: a registered name, ``{"text": ...}``, or ``{"path": ...}``."""
        if isinstance(reference, str):
            compiled = self._schemas.get(reference)
            if compiled is None:
                raise ProtocolError(
                    f"schema {reference!r} has not been loaded "
                    f"(known: {sorted(self._schemas) or 'none'})",
                    protocol.E_UNKNOWN_SCHEMA,
                )
            return compiled
        if isinstance(reference, dict):
            if "text" in reference:
                text, name = reference["text"], reference.get("name", f"<{field}>")
            elif "path" in reference:
                text, name = self._read_path(reference["path"]), reference["path"]
            else:
                raise ProtocolError(
                    f"{field!r} object needs a 'text' or 'path' key",
                    protocol.E_BAD_REQUEST,
                )
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            found, cached = self._parsed.get(("schema", digest))
            if found:
                return cached
            compiled = self.validation.engine.compile(parse_schema(text, name=name))
            self._parsed.put(("schema", digest), compiled)
            return compiled
        raise ProtocolError(
            f"{field!r} must be a registered name or an object with text/path",
            protocol.E_BAD_REQUEST,
        )

    def _fingerprinted_data(self, reference: Any) -> "_ParsedData":
        """The parse memo's entry for a data reference, with the graph's
        content fingerprint (computed once per memoised document)."""
        parsed = self._parsed_data(reference)
        if parsed.fingerprint is None:
            parsed.fingerprint = graph_fingerprint(parsed.graph)
        return parsed

    def _parsed_data(self, reference: Any) -> "_ParsedData":
        """Parse (or find in the memo) the document a data reference names:
        ``{"text": ..., "format": ...}`` or ``{"path": ...}``."""
        text, name, ntriples, key = self._data_document(reference)
        found, cached = self._parsed.get(key)
        if found:
            return cached
        parsed = _ParsedData(load_graph(text, ntriples=ntriples, name=name))
        self._parsed.put(key, parsed)
        return parsed

    def _owned_graph(self, reference: Any, name: str) -> Graph:
        """The graph of a data reference for a new store to own.

        On a memo hit the memo keeps its graph and the store gets a copy; on
        a miss the parse goes to the store alone and stays out of the memo,
        so a registered document is held once.
        """
        text, source, ntriples, key = self._data_document(reference)
        found, cached = self._parsed.get(key)
        if found:
            return cached.graph.copy(name=name or cached.graph.name)
        return load_graph(text, ntriples=ntriples, name=name or source)

    def _data_document(self, reference: Any) -> Tuple[str, str, bool, Tuple[str, str, str]]:
        """``(text, name, ntriples, memo key)`` of a data reference:
        ``{"text": ..., "format": ...}`` or ``{"path": ...}``."""
        if not isinstance(reference, dict):
            raise ProtocolError(
                "'data' must be an object with a 'text' or 'path' key",
                protocol.E_BAD_REQUEST,
            )
        if "text" in reference:
            text, name = reference["text"], reference.get("name", "<data>")
            default_format = "turtle"
        elif "path" in reference:
            name = reference["path"]
            text = self._read_path(name)
            default_format = "ntriples" if name.endswith(".nt") else "turtle"
        else:
            raise ProtocolError(
                "'data' object needs a 'text' or 'path' key", protocol.E_BAD_REQUEST
            )
        data_format = reference.get("format", default_format)
        if data_format not in ("turtle", "ntriples"):
            raise ProtocolError(
                f"unknown data format {data_format!r}; expected turtle or ntriples",
                protocol.E_BAD_REQUEST,
            )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return text, name, data_format == "ntriples", ("data", digest, data_format)

    def _validation_result(self, result: JobResult) -> Dict[str, Any]:
        return {
            "verdict": result.verdict,
            "label": result.label,
            "untyped_nodes": list(result.payload["untyped_nodes"]),
            "cached": result.cached,
            "seconds": round(result.seconds, 6),
        }

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    async def _op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "version": repro.__version__,
            "protocol": protocol.PROTOCOL_VERSION,
        }

    async def _op_load_schema(self, message: Dict[str, Any]) -> Dict[str, Any]:
        name = protocol.require(message, "name", str)
        if "text" in message:
            text = protocol.require(message, "text", str)
        else:
            text = await self._offload(self._read_path, protocol.require(message, "path", str))
        compiled = await self._offload(
            lambda: self.validation.engine.compile(parse_schema(text, name=name))
        )
        self._schemas[name] = compiled
        if self.data_dir is not None:
            await self._offload(self._persist_schema_text, name, text)
            self._persisted_schemas.add(compiled.fingerprint)
        return {
            "name": name,
            "fingerprint": compiled.fingerprint,
            "schema_class": str(compiled.schema_class),
            "types": len(compiled.schema.types),
        }

    async def _op_validate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # A repeated request resolves both references from memory on the
        # loop and, keyed by the memoised fingerprints, answers a cache hit
        # without a worker hop.
        compiled = await self._schema(protocol.require(message, "schema"))
        reference = protocol.require(message, "data")
        parsed = None
        if isinstance(reference, dict):
            parsed = self._memoised("data", reference, reference.get("format", "turtle"))
        if parsed is None or parsed.fingerprint is None:
            parsed = await self._offload(self._fingerprinted_data, reference)
        compressed = message.get("compressed", False)
        if not isinstance(compressed, bool):
            raise ProtocolError("'compressed' must be a boolean", protocol.E_BAD_REQUEST)
        result = await self.validation.submit(
            parsed.graph, compiled, compressed=compressed,
            label=str(message.get("label", "")), fingerprint=parsed.fingerprint,
        )
        response = self._validation_result(result)
        if message.get("include_typing"):
            response["typing"] = [
                [node, list(types)] for node, types in result.payload["typing"]
            ]
        return response

    async def _op_contains(self, message: Dict[str, Any]) -> Dict[str, Any]:
        left = await self._schema(protocol.require(message, "left"), "left")
        right = await self._schema(protocol.require(message, "right"), "right")
        options = {}
        for option in ("max_nodes", "samples"):
            if option in message:
                value = message[option]
                if not isinstance(value, int):
                    raise ProtocolError(
                        f"{option!r} must be an integer", protocol.E_BAD_REQUEST
                    )
                options[option] = value
        result = await self.containment.submit(
            left, right, label=str(message.get("label", "")), **options
        )
        payload = result.payload
        return {
            "verdict": result.verdict,
            "method": payload["method"],
            "left_class": payload["left_class"],
            "right_class": payload["right_class"],
            "counterexample": (
                list(payload["counterexample"])
                if payload["counterexample"] is not None
                else None
            ),
            "cached": result.cached,
            "seconds": round(result.seconds, 6),
        }

    async def _op_batch(
        self,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
        trace: Optional[str] = None,
    ) -> None:
        """Validate many jobs; stream per-job events or return one list."""
        request_id = message.get("id")
        declared = protocol.require(message, "jobs", list)
        stream = message.get("stream", False)
        if not isinstance(stream, bool):
            raise ProtocolError("'stream' must be a boolean", protocol.E_BAD_REQUEST)
        def build_jobs():
            jobs = []
            for position, entry in enumerate(declared):
                if not isinstance(entry, dict):
                    raise ProtocolError(
                        f"jobs[{position}] must be an object", protocol.E_BAD_REQUEST
                    )
                compiled = self._resolve_schema(protocol.require(entry, "schema"))
                graph = self._parsed_data(protocol.require(entry, "data")).graph
                jobs.append(
                    ValidationJob(
                        graph=graph,
                        schema=compiled.schema,
                        compressed=bool(entry.get("compressed", False)),
                        label=str(entry.get("label", f"job-{position}")),
                    )
                )
            return jobs

        jobs = await self._offload(build_jobs)
        collected: Dict[int, Dict[str, Any]] = {}
        cached_count = 0
        started = time.perf_counter()
        async for result in self.validation.stream_batch(jobs):
            entry = dict(self._validation_result(result), index=result.index)
            cached_count += int(result.cached)
            if stream:
                await self._send(
                    writer,
                    protocol.encode(
                        protocol.ok_response(request_id, entry, "result", trace=trace)
                    ),
                )
                await writer.drain()
            else:
                collected[result.index] = entry
        summary = {
            "jobs": len(jobs),
            "cached": cached_count,
            "seconds": round(time.perf_counter() - started, 6),
            "cache": self._cache_stats()["validation"],
        }
        if stream:
            await self._send(
                writer,
                protocol.encode(
                    protocol.ok_response(request_id, summary, "done", trace=trace)
                ),
            )
        else:
            summary["results"] = [collected[index] for index in range(len(jobs))]
            await self._send(
                writer,
                protocol.encode(
                    protocol.ok_response(request_id, summary, trace=trace)
                ),
            )

    def _store_lock(self, name: str) -> asyncio.Lock:
        lock = self._store_locks.get(name)
        if lock is None:
            lock = self._store_locks[name] = asyncio.Lock()
        return lock

    def _resolve_store(self, name: str) -> GraphStore:
        store = self._stores.get(name)
        if store is None:
            raise ProtocolError(
                f"graph {name!r} has not been registered "
                f"(known: {sorted(self._stores) or 'none'})",
                protocol.E_UNKNOWN_GRAPH,
            )
        return store

    @staticmethod
    def _store_summary(name: str, store: GraphStore) -> Dict[str, Any]:
        return {
            "name": name,
            "version": store.version,
            "nodes": store.graph.node_count,
            "edges": store.graph.edge_count,
        }

    @classmethod
    def _store_status(cls, name: str, store: GraphStore) -> Dict[str, Any]:
        """The ``status`` view of one store: summary plus persistence state."""
        summary = cls._store_summary(name, store)
        persist = getattr(store, "persist_status", None)
        if persist is not None:
            summary["persist"] = persist()
        return summary

    async def _op_update_graph(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Register a named graph store, or apply an edge delta to one.

        With ``data`` the document becomes a fresh store (version 0),
        replacing any previous graph of that name; with ``delta`` the
        ``{"add": [...], "remove": [...]}`` edit is applied to the existing
        store and bumps its version.  Node and label names in a delta are the
        *converted* graph identifiers (IRIs, ``literal:...`` forms, shortened
        predicate names) — see docs/protocol.md.
        """
        name = protocol.require(message, "name", str)
        has_data = "data" in message
        has_delta = "delta" in message
        if has_data == has_delta:
            raise ProtocolError(
                "op 'update_graph' needs exactly one of 'data' or 'delta'",
                protocol.E_BAD_REQUEST,
            )
        expect = message.get("expect_version")
        if expect is not None and (isinstance(expect, bool) or not isinstance(expect, int)):
            raise ProtocolError(
                "'expect_version' must be an integer", protocol.E_BAD_REQUEST
            )
        async with self._store_lock(name):
            if has_data:
                graph = await self._offload(self._owned_graph, message["data"], name)
                previous = self._stores.get(name)
                if isinstance(previous, DurableStore):
                    previous.close()
                if self.data_dir is not None:
                    store = await self._offload(
                        lambda: DurableStore.create(
                            self._graph_dir(name), graph,
                            name=name, fsync=self.fsync,
                        )
                    )
                    self._checkpointed[name] = (store.version, frozenset())
                else:
                    store = GraphStore(graph)
                self._stores[name] = store
                return self._store_summary(name, store)
            store = self._resolve_store(name)
            if expect is not None and store.version != expect:
                # The compare-and-set that makes delta retries at-most-once: a
                # replay of an already-applied delta sees the bumped version
                # and is rejected here instead of being applied twice.
                raise ProtocolError(
                    f"graph {name!r} is at version {store.version}, "
                    f"expected {expect}",
                    protocol.E_CONFLICT,
                )
            delta = protocol.require(message, "delta", dict)
            try:
                parsed = Delta.from_json(delta)
                await self._offload(store.apply, parsed)
            except GraphError as exc:
                raise ProtocolError(str(exc), protocol.E_BAD_REQUEST) from exc
            result = self._store_summary(name, store)
            result["applied"] = len(parsed)
            return result

    async def _op_revalidate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Validate the current version of one or many registered graph stores.

        Addressing: exactly one of ``name`` (one graph, the original shape),
        ``graphs`` (a list of names), or ``all: true`` (every registered
        graph, sorted).  Incremental when the engine holds the typing of an
        earlier version — the response's ``mode`` field reports which path
        answered (``cached`` / ``unchanged`` / ``incremental`` / ``full``).

        Batched form: the whole batch is revalidated against one resolved
        schema in a single engine hop, so every graph after the first reuses
        the schema's warm signature memo.  Unknown names are reported per
        entry (``{"graph": ..., "error": {...}}``) without failing the batch.
        """
        name = message.get("name")
        graphs = message.get("graphs")
        all_graphs = message.get("all", False)
        if not isinstance(all_graphs, bool):
            raise ProtocolError("'all' must be a boolean", protocol.E_BAD_REQUEST)
        given = sum((name is not None, graphs is not None, bool(all_graphs)))
        if given != 1:
            raise ProtocolError(
                "op 'revalidate' needs exactly one of 'name', 'graphs', or 'all'",
                protocol.E_BAD_REQUEST,
            )
        schema_ref = protocol.require(message, "schema")
        compiled = await self._schema(schema_ref)
        if self.data_dir is not None and self._schema_unpersisted(schema_ref, compiled):
            await self._offload(self._persist_schema_for_typings, schema_ref, compiled)
        compressed = message.get("compressed", False)
        if not isinstance(compressed, bool):
            raise ProtocolError("'compressed' must be a boolean", protocol.E_BAD_REQUEST)

        if name is not None:
            if not isinstance(name, str):
                raise ProtocolError("'name' must be a string", protocol.E_BAD_REQUEST)
            async with self._store_lock(name):
                store = self._resolve_store(name)
                outcome = await self.validation.revalidate(
                    store, compiled, compressed=compressed,
                    label=str(message.get("label", "")),
                )
            return self._revalidation_entry(name, outcome)

        if all_graphs:
            names = sorted(self._stores)
        else:
            if not isinstance(graphs, list) or not all(
                isinstance(entry, str) for entry in graphs
            ):
                raise ProtocolError(
                    "'graphs' must be a list of graph names", protocol.E_BAD_REQUEST
                )
            names = list(dict.fromkeys(graphs))  # dedup, keep request order
        entries: Dict[str, Dict[str, Any]] = {}
        # All per-store locks are taken (in sorted order, one acquisition
        # site, hence no deadlock) before the names are even resolved: the
        # whole batch then validates a consistent snapshot of every
        # addressed store — a store replaced by a concurrent update_graph
        # is seen in its post-replacement state, exactly like the
        # single-name path which resolves under its lock.
        async with contextlib.AsyncExitStack() as stack:
            for graph_name in sorted(names):
                await stack.enter_async_context(self._store_lock(graph_name))
            known: List[Tuple[str, GraphStore]] = []
            for graph_name in names:
                store = self._stores.get(graph_name)
                if store is None:
                    entries[graph_name] = {
                        "graph": graph_name,
                        "error": {
                            "code": protocol.E_UNKNOWN_GRAPH,
                            "message": f"graph {graph_name!r} has not been registered",
                        },
                    }
                else:
                    known.append((graph_name, store))
            outcomes = await self.validation.revalidate_many(
                [store for _name, store in known], compiled, compressed=compressed
            )
            for (graph_name, _store), outcome in zip(known, outcomes):
                entries[graph_name] = self._revalidation_entry(graph_name, outcome)
        results = [entries[graph_name] for graph_name in names]
        return {
            "graphs": len(results),
            "valid": sum(1 for entry in results if entry.get("verdict") == "valid"),
            "invalid": sum(
                1 for entry in results if entry.get("verdict") == "invalid"
            ),
            "unknown": sum(1 for entry in results if "error" in entry),
            "results": results,
        }

    def _revalidation_entry(self, name: str, outcome) -> Dict[str, Any]:
        """One graph's revalidation outcome as a response object."""
        entry = self._validation_result(outcome.result)
        entry.update(
            {
                "graph": name,
                "version": outcome.version,
                "mode": outcome.mode,
                "frontier": outcome.frontier,
                "affected": outcome.affected,
            }
        )
        return entry

    async def _op_checkpoint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Fold WALs into fresh snapshots: one graph (``name``) or all.

        Idempotent — checkpointing an already-clean store just cuts another
        snapshot — so the client classifies it retryable.  Requires the
        daemon to be running with ``--data-dir``.
        """
        if self.data_dir is None:
            raise ProtocolError(
                "daemon is not persisting (start it with --data-dir)",
                protocol.E_BAD_REQUEST,
            )
        name = message.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("'name' must be a string", protocol.E_BAD_REQUEST)
        names = [name] if name is not None else sorted(self._stores)
        results: Dict[str, Dict[str, Any]] = {}
        for graph_name in names:
            async with self._store_lock(graph_name):
                store = self._resolve_store(graph_name)
                if not isinstance(store, DurableStore):
                    raise ProtocolError(
                        f"graph {graph_name!r} is not durable",
                        protocol.E_BAD_REQUEST,
                    )
                outcome = await self._checkpoint_store(graph_name, store)
            outcome["seconds"] = round(outcome["seconds"], 6)
            results[graph_name] = outcome
        return {"graphs": len(results), "results": results}

    def _uptime(self) -> float:
        """Seconds since the daemon bound its socket (0.0 before start)."""
        if self._started_at is None:
            return 0.0
        return round(time.time() - self._started_at, 3)

    def _cache_stats(self) -> Dict[str, Dict[str, Any]]:
        """Every cache's counters as one JSON-safe dict.

        The single place (``status``, batch summaries, and the ``metrics``
        op all read through here) that renders :class:`CacheStats`.
        """
        return {
            "validation": _stats_dict(self.validation.engine.cache.stats()),
            "containment": _stats_dict(self.containment.engine.cache.stats()),
            "parsed": _stats_dict(self._parsed.stats()),
        }

    async def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        caches = self._cache_stats()
        return {
            "version": repro.__version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "address": self.address,
            "backend": self.validation.backend,
            "data_dir": self.data_dir,
            "uptime_seconds": self._uptime(),
            "connections": self._connections,
            "inflight": self._inflight,
            "draining": self._draining,
            "limits": {
                "request_timeout": self.request_timeout,
                "max_inflight": self.max_inflight,
                "max_connections": self.max_connections,
                "drain_timeout": self.drain_timeout,
            },
            "requests": dict(sorted(self._requests.items())),
            "schemas": {
                name: compiled.fingerprint
                for name, compiled in sorted(self._schemas.items())
            },
            "graphs": {
                name: self._store_status(name, store)
                for name, store in sorted(self._stores.items())
            },
            "validation_cache": caches["validation"],
            "containment_cache": caches["containment"],
            "parsed_cache": caches["parsed"],
        }

    async def _op_metrics(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One structured snapshot of everything the registry knows.

        The curated sections (``solver``, ``fixpoint``, ``caches``,
        ``graphs``) are convenience reads over the same instruments the raw
        ``metrics`` section dumps; ``prometheus`` is the full text
        exposition, ready to write to a scrape endpoint or file.  Pass
        ``"prometheus": false`` to omit the (redundant, largest) text block.
        """
        include_prometheus = message.get("prometheus", True)
        if not isinstance(include_prometheus, bool):
            raise ProtocolError(
                "'prometheus' must be a boolean", protocol.E_BAD_REQUEST
            )
        # The solver module (and the Presburger formulas it imports) loads
        # on the first ``metrics`` request, not at every daemon start.
        from repro.presburger.solver import solver_metrics_summary

        registry = obs_metrics.get_registry()
        result: Dict[str, Any] = {
            "version": repro.__version__,
            "enabled": obs_metrics.enabled(),
            "uptime_seconds": self._uptime(),
            "connections": self._connections,
            "requests": dict(sorted(self._requests.items())),
            "solver": solver_metrics_summary(),
            "fixpoint": fixpoint_metrics_summary(),
            "persist": persist_metrics_summary(),
            "caches": self._cache_stats(),
            "graphs": {
                name: self._store_status(name, store)
                for name, store in sorted(self._stores.items())
            },
            "metrics": registry.snapshot(),
        }
        if include_prometheus:
            result["prometheus"] = obs_metrics.render_prometheus(registry)
        return result

    async def _op_flush_cache(self, message: Dict[str, Any]) -> Dict[str, Any]:
        flushed = {
            "validation": len(self.validation.engine.cache),
            "containment": len(self.containment.engine.cache),
            "parsed": len(self._parsed),
        }
        self.validation.engine.cache.clear()
        self.containment.engine.cache.clear()
        self._parsed.clear()
        return {"flushed": flushed}

    async def _op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"stopping": True}


# --------------------------------------------------------------------------- #
# Embedding helper: run a daemon on a background thread
# --------------------------------------------------------------------------- #
class DaemonHandle:
    """A daemon running on a background thread, stoppable from the caller.

    Returned by :func:`start_in_thread`; usable as a context manager.  The
    daemon object is exposed as :attr:`daemon` (e.g. for ``daemon.address``).
    """

    def __init__(self, daemon: ValidationDaemon, thread: threading.Thread):
        self.daemon = daemon
        self._thread = thread

    @property
    def address(self) -> str:
        """The running daemon's listening address."""
        return self.daemon.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the daemon and join its thread.

        Raises :class:`RuntimeError` when the serve thread is still alive
        after ``timeout`` seconds — a daemon wedged mid-drain must be
        reported, not silently leaked into the next test or benchmark.
        """
        loop = self.daemon._loop
        if loop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(self.daemon.request_stop)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"daemon thread did not stop within {timeout}s "
                f"(address {self.daemon.address}, "
                f"{self.daemon._inflight} requests in flight)"
            )

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


def start_in_thread(timeout: float = 10.0, **daemon_options) -> DaemonHandle:
    """Start a :class:`ValidationDaemon` on a daemon thread; returns once bound.

    Keyword arguments go to the :class:`ValidationDaemon` constructor.  Used
    by the tests, ``examples/serve_demo.py``, and the serve benchmark to embed
    a real socket-speaking daemon without spawning a process.
    """
    daemon = ValidationDaemon(**daemon_options)
    ready = threading.Event()
    failures: list = []

    def runner() -> None:
        try:
            asyncio.run(daemon.serve(on_ready=ready.set))
        except BaseException as exc:  # noqa: BLE001 — surfaced to the caller
            failures.append(exc)
        finally:
            ready.set()

    thread = threading.Thread(target=runner, name="repro-serve-daemon", daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise RuntimeError(f"daemon did not come up within {timeout}s")
    if failures:
        raise failures[0]
    return DaemonHandle(daemon, thread)
