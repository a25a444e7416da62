"""``repro.obs`` — unified observability: metrics, tracing, structured logs.

One dependency-free substrate every subsystem reports through:

* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges,
  and histograms (fixed log-scale buckets), with on-demand collectors,
  structured snapshots, and a Prometheus text-exposition renderer;
* :mod:`repro.obs.tracing` — ``span(name, **tags)`` context managers
  building timed, nested span trees under per-request trace ids;
* :mod:`repro.obs.logs` — JSON-line / key=value structured logging.

Everything is on by default and near-free when off: :func:`disable` (or
``REPRO_OBS=0`` in the environment) flips one module flag checked first in
every hot-path call, and :func:`span` then returns a shared no-op object.

Quick tour::

    >>> from repro import obs
    >>> checks = obs.counter("doc_checks_total", "Checks run.")
    >>> checks.inc()
    >>> obs.get_registry().value("doc_checks_total") >= 1.0
    True
    >>> with obs.start_trace("doc.request") as root:
    ...     with obs.span("doc.phase", step=1):
    ...         pass
    >>> [child.name for child in root.children]
    ['doc.phase']
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.obs.logs": ("configure_logging", "log_event"),
    "repro.obs.metrics": (
        "REGISTRY",
        "Counter",
        "CounterWindow",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "counter",
        "default_buckets",
        "disable",
        "enable",
        "enabled",
        "gauge",
        "get_registry",
        "histogram",
        "parse_prometheus",
        "render_prometheus",
    ),
    "repro.obs.tracing": (
        "NOOP_SPAN",
        "Span",
        "current_span",
        "current_trace_id",
        "new_trace_id",
        "span",
        "start_trace",
    ),
})
