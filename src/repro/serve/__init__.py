"""repro.serve — async/streaming front-end and long-lived validation daemon.

The batch engines of :mod:`repro.engine` answer *one process's* workload; this
subsystem keeps the expensive artifacts alive *across* workloads:

* :class:`AsyncValidationEngine` / :class:`AsyncContainmentEngine`
  (:mod:`repro.serve.async_engine`) — asyncio wrappers over the executor
  backends whose ``stream_batch`` yields results in completion order, with no
  batch barrier, plus in-flight deduplication of identical jobs;
* :class:`ValidationDaemon` (:mod:`repro.serve.daemon`) — a newline-delimited
  JSON server over a Unix or TCP socket: load/compile schemas once, validate
  graphs, check containment, and query/flush the shared fingerprint-keyed
  caches across thousands of requests;
* :class:`DaemonClient` (:mod:`repro.serve.client`) — a small blocking client
  used by the CLI's ``--connect`` mode, scripts, and tests;
* :mod:`repro.serve.protocol` — the wire protocol: ops, error codes, and
  encoding helpers (specified in ``docs/protocol.md``);
* :mod:`repro.serve.cli` — the ``shex-serve`` start/status/stop/flush command.

See ``docs/architecture.md`` for where this layer sits in the system and
``examples/serve_demo.py`` for an end-to-end tour.  The names above are
exported lazily: a daemon start imports neither the client nor anything it
does not serve.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.async_engine": (
        "AsyncBatchEngine",
        "AsyncContainmentEngine",
        "AsyncValidationEngine",
    ),
    "repro.serve.client": ("DaemonClient", "batch_jobs_from_manifest"),
    "repro.serve.daemon": ("DaemonHandle", "ValidationDaemon", "start_in_thread"),
    "repro.serve.protocol": ("PROTOCOL_VERSION",),
})
