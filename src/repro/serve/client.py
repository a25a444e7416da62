"""A small blocking client for the validation daemon.

:class:`DaemonClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over a Unix or TCP socket.  It is deliberately
synchronous — the CLI's ``--connect`` mode, the ``shex-serve`` control
commands, scripts, and tests all want plain calls, and the concurrency lives
on the daemon side::

    from repro.serve.client import DaemonClient

    with DaemonClient.connect("unix:/tmp/shex.sock") as client:
        client.load_schema("bug", text="Bug -> descr :: Lit, related :: Bug*\\nLit -> eps")
        answer = client.validate("bug", data_text="@prefix ex: <http://e/> .\\nex:b ex:descr ex:l .")
        print(answer["verdict"], answer["cached"])

Errors reported by the daemon surface as :class:`repro.errors.DaemonError`
with the protocol error code in ``.code``; transport problems raise the usual
``OSError`` family (the daemon closing mid-request raises
:class:`repro.errors.DaemonConnectionError`, which is both).

The client is *self-healing* by default: when the connection dies — daemon
restart, injected socket drop, torn frame — it redials with jittered
exponential backoff and retries the request, but only when a replay is safe:
pure operations (``validate``, ``contains``, ``revalidate``, ``status``, ...)
retry freely, ``update_graph`` deltas are replayed only when guarded by
``expect_version`` (the daemon's compare-and-set makes the replay
at-most-once), and an unguarded mutation surfaces the transport error
untouched.  Pass ``retries=0`` to get the old fail-fast behaviour.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import DaemonConnectionError, DaemonError, ProtocolError
from repro.serve import protocol

#: Operations whose replay is always safe: they never mutate daemon state
#: in a way a duplicate could corrupt (``load_schema``/``flush_cache``/
#: ``checkpoint`` are idempotent — a repeated checkpoint just writes another
#: generation of the same content; the rest are pure reads or cached
#: computations).
RETRYABLE_OPS = frozenset(
    {
        "ping",
        "load_schema",
        "validate",
        "contains",
        "batch",
        "revalidate",
        "checkpoint",
        "status",
        "metrics",
        "flush_cache",
    }
)

#: Daemon error codes that are safe to retry for *any* op: the daemon
#: rejected the request before executing it.
_RETRY_ANY_CODES = frozenset({protocol.E_OVERLOADED})

#: Daemon error codes retried only for idempotent requests (execution may
#: have started or partially happened).
_RETRY_IDEMPOTENT_CODES = frozenset(
    {protocol.E_OVERLOADED, protocol.E_DEADLINE, protocol.E_INTERNAL}
)


class DaemonClient:
    """One connection to a running :class:`repro.serve.daemon.ValidationDaemon`.

    Build it with :meth:`connect` (address string) or :meth:`connect_unix` /
    :meth:`connect_tcp`.  The client is a context manager; requests on one
    client are sequential (open several clients for concurrent traffic).

    ``retries`` bounds how many times one request may be replayed after a
    transport failure or a retryable daemon rejection; ``backoff`` is the
    base delay of the jittered exponential backoff (doubling per attempt,
    capped at ``backoff_max``, scaled by a uniform 0.5–1.0 jitter).
    """

    def __init__(
        self,
        sock: socket.socket,
        dial: Optional[Callable[[], socket.socket]] = None,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
    ):
        self._socket: Optional[socket.socket] = sock
        self._reader = sock.makefile("rb")
        self._dial = dial
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self._request_id = 0
        #: Trace id echoed on the most recent response (``None`` before the
        #: first request, or when talking to a pre-1.6 daemon).
        self.last_trace: Optional[str] = None
        #: How many times this client redialled the daemon.
        self.reconnects = 0
        #: How many request attempts were replayed after a failure.
        self.retried_requests = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def connect(
        cls, address: str, timeout: float = 30.0, retries: int = 2,
        backoff: float = 0.05,
    ) -> "DaemonClient":
        """Connect to ``unix:PATH``, ``tcp:HOST:PORT``, ``HOST:PORT``, or a path."""
        socket_path, tcp = protocol.split_address(address)
        if socket_path is not None:
            return cls.connect_unix(socket_path, timeout, retries, backoff)
        host, port = tcp
        return cls.connect_tcp(
            host, port, timeout=timeout, retries=retries, backoff=backoff
        )

    @classmethod
    def connect_unix(
        cls, path: str, timeout: float = 30.0, retries: int = 2,
        backoff: float = 0.05,
    ) -> "DaemonClient":
        """Connect to a daemon listening on a Unix socket path."""

        def dial() -> socket.socket:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(path)
            return sock

        return cls(dial(), dial=dial, retries=retries, backoff=backoff)

    @classmethod
    def connect_tcp(
        cls, host: str, port: int, timeout: float = 30.0, retries: int = 2,
        backoff: float = 0.05,
    ) -> "DaemonClient":
        """Connect to a daemon listening on TCP ``host:port``."""

        def dial() -> socket.socket:
            return socket.create_connection((host, port), timeout=timeout)

        return cls(dial(), dial=dial, retries=retries, backoff=backoff)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _read_response(self) -> Dict[str, Any]:
        if self._reader is None:
            raise DaemonConnectionError("client is not connected")
        line = self._reader.readline()
        if not line:
            raise DaemonConnectionError("connection closed by the daemon")
        if not line.endswith(b"\n"):
            # A torn frame: the daemon (or the network) died mid-line.  The
            # stream can no longer be framed, so the connection is poisoned.
            raise DaemonConnectionError("connection died mid-response (torn frame)")
        try:
            message = json.loads(line.decode("utf-8"))
        except Exception as exc:  # pragma: no cover — a daemon bug, not a user error
            raise ProtocolError(f"daemon sent invalid JSON: {exc}") from exc
        if not isinstance(message, dict):
            raise ProtocolError("daemon response is not a JSON object")
        return message

    def _teardown(self) -> None:
        """Drop the dead connection so the next attempt redials."""
        try:
            if self._reader is not None:
                self._reader.close()
        except OSError:
            pass
        try:
            if self._socket is not None:
                self._socket.close()
        except OSError:
            pass
        self._reader = None
        self._socket = None

    def _ensure_connected(self) -> None:
        if self._socket is not None:
            return
        if self._dial is None:
            raise DaemonConnectionError(
                "connection lost and this client cannot redial "
                "(constructed from a raw socket)"
            )
        sock = self._dial()
        self._socket = sock
        self._reader = sock.makefile("rb")
        self.reconnects += 1

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.backoff_max, self.backoff * (2 ** (attempt - 1)))
        time.sleep(delay * (0.5 + random.random() / 2.0))

    @staticmethod
    def _is_idempotent(op: str, params: Dict[str, Any]) -> bool:
        if op in RETRYABLE_OPS:
            return True
        if op == "update_graph":
            # Registering a document replaces the store wholesale (replay
            # converges); a delta replay is safe only under the daemon's
            # expected-version compare-and-set.
            return "data" in params or params.get("expect_version") is not None
        return False

    def request(
        self, op: str, trace: Optional[str] = None, **params: Any
    ) -> Dict[str, Any]:
        """Send one request and return its ``result`` dict.

        ``trace`` is an optional caller-chosen trace id, propagated through
        the daemon and echoed on the response; omit it and the daemon mints
        one.  Either way the echoed id lands in :attr:`last_trace`.  Raises
        :class:`repro.errors.DaemonError` when the daemon answers with a
        structured error.  Transport failures and retryable rejections are
        replayed up to :attr:`retries` times when the request is idempotent
        (see the module docstring for the exact policy).
        """
        idempotent = self._is_idempotent(op, params)
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                self._request_id += 1
                message = dict(params, op=op, id=self._request_id)
                if trace is not None:
                    message["trace"] = trace
                self._socket.sendall(protocol.encode(message))
                return self._unwrap(self._read_response())
            except DaemonError as exc:
                if isinstance(exc, DaemonConnectionError):
                    self._teardown()
                    retryable = idempotent
                else:
                    retryable = exc.code in _RETRY_ANY_CODES or (
                        idempotent and exc.code in _RETRY_IDEMPOTENT_CODES
                    )
                attempt += 1
                if not retryable or attempt > self.retries:
                    raise
            except OSError:
                self._teardown()
                attempt += 1
                if not idempotent or attempt > self.retries:
                    raise
            self.retried_requests += 1
            self._sleep_backoff(attempt)

    def _unwrap(self, response: Dict[str, Any]) -> Dict[str, Any]:
        self.last_trace = response.get("trace", self.last_trace)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        raise DaemonError(
            error.get("message", "daemon reported an error"),
            error.get("code", "internal-error"),
        )

    # ------------------------------------------------------------------ #
    # Convenience operations (one method per protocol op)
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        """Liveness check; returns the daemon's version and protocol revision."""
        return self.request("ping")

    def load_schema(
        self, name: str, text: Optional[str] = None, path: Optional[str] = None
    ) -> Dict[str, Any]:
        """Register a schema under ``name`` from inline text or a daemon-side path."""
        if (text is None) == (path is None):
            raise ValueError("pass exactly one of text or path")
        params = {"text": text} if text is not None else {"path": path}
        return self.request("load_schema", name=name, **params)

    def validate(
        self,
        schema: Any,
        data_text: Optional[str] = None,
        data_path: Optional[str] = None,
        data_format: Optional[str] = None,
        compressed: bool = False,
        label: str = "",
        include_typing: bool = False,
    ) -> Dict[str, Any]:
        """Validate one document: ``schema`` is a registered name or ``{"text"/"path"}``."""
        data = self._data_reference(data_text, data_path, data_format)
        params: Dict[str, Any] = {
            "schema": schema,
            "data": data,
            "compressed": compressed,
            "label": label,
        }
        if include_typing:
            params["include_typing"] = True
        return self.request("validate", **params)

    def contains(self, left: Any, right: Any, **options: Any) -> Dict[str, Any]:
        """Check ``L(left) ⊆ L(right)``; options: ``max_nodes``, ``samples``."""
        return self.request("contains", left=left, right=right, **options)

    def batch_validate(
        self,
        jobs: Iterable[Dict[str, Any]],
        stream: bool = False,
        on_result: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Run many validate jobs in one request; returns the batch summary.

        Each job is ``{"schema": ..., "data": ..., "compressed"?, "label"?}``.
        With ``stream=True`` the daemon sends per-job ``result`` events in
        completion order — ``on_result`` is invoked for each — followed by a
        ``done`` summary.  Without streaming, the summary carries a
        ``results`` list in submission order.

        Validation is pure, so a batch whose connection dies mid-stream is
        replayed wholesale (the daemon answers repeats from its result
        cache); with ``stream=True`` an ``on_result`` callback may then see
        duplicate events for jobs delivered before the failure.
        """
        declared = list(jobs)
        attempt = 0
        while True:
            try:
                self._ensure_connected()
                self._request_id += 1
                message = {
                    "op": "batch",
                    "id": self._request_id,
                    "jobs": declared,
                    "stream": stream,
                }
                self._socket.sendall(protocol.encode(message))
                if not stream:
                    return self._unwrap(self._read_response())
                while True:
                    response = self._read_response()
                    result = self._unwrap(response)
                    if response.get("event") == "done":
                        return result
                    if on_result is not None:
                        on_result(result)
            except DaemonError as exc:
                if isinstance(exc, DaemonConnectionError):
                    self._teardown()
                    retryable = True
                else:
                    retryable = exc.code in _RETRY_IDEMPOTENT_CODES
                attempt += 1
                if not retryable or attempt > self.retries:
                    raise
            except OSError:
                self._teardown()
                attempt += 1
                if attempt > self.retries:
                    raise
            self.retried_requests += 1
            self._sleep_backoff(attempt)

    def update_graph(
        self,
        name: str,
        data_text: Optional[str] = None,
        data_path: Optional[str] = None,
        data_format: Optional[str] = None,
        delta: Optional[Dict[str, Any]] = None,
        expect_version: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Register a named graph store on the daemon, or apply a delta to it.

        Pass exactly one of a data document (``data_text`` / ``data_path``,
        registering version 0) or ``delta`` — an
        ``{"add": [[source, label, target], ...], "remove": [...]}`` object
        (see :meth:`repro.graphs.store.Delta.to_json`) advancing the version.
        Returns ``{"name", "version", "nodes", "edges"}``.

        ``expect_version`` (deltas only) is the store version the delta was
        derived against: the daemon applies it only if the store still sits
        at that version, answering ``version-conflict`` otherwise.  This is
        what makes delta retries safe — a replay of an already-applied delta
        is rejected instead of applied twice — so the client auto-retries
        guarded deltas and never retries unguarded ones.
        """
        has_data = data_text is not None or data_path is not None
        if has_data == (delta is not None):
            raise ValueError("pass exactly one of data_text/data_path or delta")
        if delta is not None:
            params: Dict[str, Any] = {"name": name, "delta": delta}
            if expect_version is not None:
                params["expect_version"] = expect_version
            return self.request("update_graph", **params)
        if expect_version is not None:
            raise ValueError("expect_version only applies to delta updates")
        data = self._data_reference(data_text, data_path, data_format)
        return self.request("update_graph", name=name, data=data)

    def revalidate(
        self,
        name: str,
        schema: Any,
        compressed: bool = False,
        label: str = "",
    ) -> Dict[str, Any]:
        """Validate the current version of the named graph store.

        ``schema`` is a registered name or ``{"text"/"path"}``.  The response
        carries the usual validation fields plus ``version`` and ``mode``
        (``cached`` / ``unchanged`` / ``incremental`` / ``full`` /
        ``kinds``).
        """
        return self.request(
            "revalidate", name=name, schema=schema, compressed=compressed, label=label
        )

    def revalidate_many(
        self,
        schema: Any,
        graphs: Optional[Iterable[str]] = None,
        all_graphs: bool = False,
        compressed: bool = False,
    ) -> Dict[str, Any]:
        """Revalidate many graph stores against one schema in one request.

        Pass ``graphs`` (a list of registered names) or ``all_graphs=True``
        (every store on the daemon).  The batch shares the schema's warm
        signature memo across graphs; unknown names come back as per-entry
        ``{"graph": ..., "error": {...}}`` objects without failing the
        batch.  Returns ``{"graphs", "valid", "invalid", "unknown",
        "results"}`` with results in request (or sorted, for ``all``) order.
        """
        if (graphs is None) == (not all_graphs):
            raise ValueError("pass exactly one of graphs or all_graphs=True")
        params: Dict[str, Any] = {"schema": schema, "compressed": compressed}
        if all_graphs:
            params["all"] = True
        else:
            params["graphs"] = list(graphs)
        return self.request("revalidate", **params)

    def checkpoint(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Snapshot the daemon's durable graph stores to their data dir.

        With ``name``, checkpoints that one graph; without, every durable
        graph.  Requires the daemon to have been started with ``--data-dir``.
        Idempotent (and classified retryable): repeating it writes another
        generation of the same content.  Returns per-graph ``{"generation",
        "version", "wal_records_folded"}`` blocks under ``"results"``.
        """
        params: Dict[str, Any] = {} if name is None else {"name": name}
        return self.request("checkpoint", **params)

    def status(self) -> Dict[str, Any]:
        """Daemon status: uptime, request counters, schemas, cache statistics."""
        return self.request("status")

    def metrics(self, prometheus: bool = True) -> Dict[str, Any]:
        """The daemon's metrics snapshot (see ``docs/observability.md``).

        Structured sections (``solver``, ``fixpoint``, ``caches``,
        ``graphs``, raw ``metrics`` families) plus, unless
        ``prometheus=False``, the full Prometheus text exposition under
        ``"prometheus"``.
        """
        return self.request("metrics", prometheus=prometheus)

    def flush_cache(self) -> Dict[str, Any]:
        """Empty the daemon's result and parse caches; returns flushed counts."""
        return self.request("flush_cache")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop (it answers before exiting)."""
        return self.request("shutdown")

    # ------------------------------------------------------------------ #
    # Helpers / lifecycle
    # ------------------------------------------------------------------ #
    @staticmethod
    def _data_reference(
        text: Optional[str], path: Optional[str], data_format: Optional[str]
    ) -> Dict[str, Any]:
        if (text is None) == (path is None):
            raise ValueError("pass exactly one of data_text or data_path")
        data: Dict[str, Any] = {"text": text} if text is not None else {"path": path}
        if data_format is not None:
            data["format"] = data_format
        return data

    def close(self) -> None:
        """Close the connection (also via the context-manager protocol)."""
        self._teardown()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def batch_jobs_from_manifest(entries) -> List[Dict[str, Any]]:
    """Turn :class:`repro.engine.manifest.ManifestEntry` rows into batch jobs.

    File contents are inlined client-side, so the daemon never needs to share
    a filesystem with the caller (TCP deployments).
    """
    jobs: List[Dict[str, Any]] = []
    texts: Dict[str, str] = {}

    def read(path: str) -> str:
        if path not in texts:
            with open(path, "r", encoding="utf-8") as handle:
                texts[path] = handle.read()
        return texts[path]

    for entry in entries:
        jobs.append(
            {
                "schema": {"text": read(entry.schema), "name": entry.schema},
                "data": {
                    "text": read(entry.data),
                    "name": entry.data,
                    "format": "ntriples" if entry.data_is_ntriples else "turtle",
                },
                "label": entry.label,
            }
        )
    return jobs
