"""A dependency-free metrics registry: counters, gauges, and histograms.

This is the measurement half of :mod:`repro.obs` (the tracing half lives in
:mod:`repro.obs.tracing`).  Every hot layer of the reproduction — the
Presburger solver, the fixpoint kernel, the result caches, the graph store,
the daemon — registers its instruments here, and consumers read them either
as a structured :meth:`MetricsRegistry.snapshot` or as a Prometheus
text-exposition rendering (:func:`render_prometheus`).

Design points:

* **No dependencies.**  The registry is plain Python; the Prometheus output
  follows the text-exposition format closely enough for any scraper, and
  :func:`parse_prometheus` is a small reader used by the CI smoke test.
* **Near-zero overhead when disabled.**  ``disable()`` flips one module-level
  flag; ``inc``/``observe`` return immediately after a single attribute
  check, and :func:`repro.obs.tracing.span` returns a shared no-op object.
  Set ``REPRO_OBS=0`` in the environment to start disabled.
* **Thread-safe.**  Each instrument guards its state with one lock;
  instruments are registered once at import time, so the hot path never
  takes the registry lock.
* **Monotone counters, resettable reads.**  Prometheus semantics want
  counters that only go up; consumers that need "since my last reset"
  deltas (the solver's per-benchmark windows, the daemon's per-engine
  snapshots) subtract a remembered baseline instead of zeroing the
  instrument — see :class:`CounterWindow`.

Doctest::

    >>> from repro.obs import metrics
    >>> registry = metrics.MetricsRegistry()
    >>> jobs = registry.counter("demo_jobs_total", "Jobs run.", labels=("kind",))
    >>> jobs.labels(kind="validation").inc(3)
    >>> registry.value("demo_jobs_total", kind="validation")
    3.0
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class _State:
    """Module-level enabled flag, shared with :mod:`repro.obs.tracing`."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = os.environ.get("REPRO_OBS", "1") not in ("0", "false", "off")


STATE = _State()


def enable() -> None:
    """Turn instrumentation on (the default unless ``REPRO_OBS=0``)."""
    STATE.enabled = True


def disable() -> None:
    """Turn instrumentation off: increments, observations, and spans no-op."""
    STATE.enabled = False


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return STATE.enabled


def default_buckets() -> Tuple[float, ...]:
    """The fixed log-scale histogram buckets: powers of 4 from 1e-6 to ~1e6.

    One geometric ladder covers both wall-clock seconds (microseconds to
    minutes) and set sizes (single digits to millions) with 21 buckets, so
    every histogram in the catalogue shares a scale unless it overrides it.
    """
    return tuple(1e-6 * 4.0**exponent for exponent in range(21))


_DEFAULT_BUCKETS = default_buckets()


def _check_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(f"bad metric name {name!r}; use [a-zA-Z0-9_]+")
    return name


def _label_key(
    labels: Sequence[str], values: Dict[str, Any]
) -> Tuple[str, ...]:
    if set(values) != set(labels):
        raise ValueError(
            f"expected labels {tuple(labels)!r}, got {tuple(sorted(values))!r}"
        )
    return tuple(str(values[label]) for label in labels)


class Instrument:
    """Base class: a named family of children keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help_text
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.label_names:
            self._children[()] = self._new_child()

    # -- subclass hooks --
    def _new_child(self):
        raise NotImplementedError

    def labels(self, **values: Any):
        """The child instrument for one combination of label values."""
        key = _label_key(self.label_names, values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not STATE.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Counter(Instrument):
    """A monotonically increasing count (Prometheus ``counter``)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (label-free counters only)."""
        self._children[()].inc(amount)

    @property
    def value(self) -> float:
        """The unlabelled child's value (label-free counters only)."""
        return self._children[()].value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not STATE.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not STATE.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Gauge(Instrument):
    """A value that can go up and down (Prometheus ``gauge``)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._children[()].dec(amount)

    @property
    def value(self) -> float:
        return self._children[()].value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]):
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not STATE.enabled:
            return
        # Prometheus buckets are *inclusive* upper bounds (``le``):
        # a value exactly on a boundary lands in that boundary's bucket.
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def state(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
        return {
            "buckets": [list(pair) for pair in zip(self._bounds, counts)],
            "inf": counts[-1],
            "count": total,
            "sum": total_sum,
        }

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum


class Histogram(Instrument):
    """A distribution with fixed buckets (Prometheus ``histogram``).

    Buckets default to :func:`default_buckets` — a log ladder shared by
    every histogram so renderings line up — and are *inclusive* upper
    bounds, matching Prometheus ``le`` semantics.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        bounds = tuple(buckets) if buckets is not None else _DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        super().__init__(name, help_text, labels)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._children[()].observe(value)

    @property
    def count(self) -> int:
        return self._children[()].count

    @property
    def sum(self) -> float:
        return self._children[()].sum


class MetricsRegistry:
    """A namespace of instruments plus on-demand *collectors*.

    Collectors are callables returning ``(name, kind, help, samples)``
    tuples, where ``samples`` is a list of ``(label_dict, value)`` pairs —
    they let stateful objects (caches, graph stores) report point-in-time
    gauges without the registry owning them.  Register with
    :meth:`add_collector`, and **remove** with :meth:`remove_collector`
    when the owning object shuts down, or a long-lived process accretes
    dead collectors.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}
        self._collectors: List[Callable[[], Iterable[Tuple]]] = []

    # -- registration --------------------------------------------------------
    def register(self, instrument: Instrument) -> Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument):
                    raise ValueError(
                        f"metric {instrument.name!r} already registered "
                        f"as a {existing.kind}"
                    )
                return existing
            self._instruments[instrument.name] = instrument
            return instrument

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch the existing) counter called ``name``."""
        return self.register(Counter(name, help_text, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, labels: Sequence[str] = ()) -> Gauge:
        """Register (or fetch the existing) gauge called ``name``."""
        return self.register(Gauge(name, help_text, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Register (or fetch the existing) histogram called ``name``."""
        return self.register(Histogram(name, help_text, labels, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument called ``name``, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def value(self, name: str, **labels: Any) -> float:
        """Convenience: the current value of one counter/gauge child."""
        instrument = self.get(name)
        if instrument is None:
            return 0.0
        return instrument.labels(**labels).value

    def add_collector(self, collector: Callable[[], Iterable[Tuple]]) -> None:
        """Attach an on-demand sample source (see the class docstring)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def remove_collector(self, collector: Callable[[], Iterable[Tuple]]) -> None:
        """Detach a collector; unknown collectors are ignored."""
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    # -- reads ---------------------------------------------------------------
    def _collected(self) -> List[Tuple[str, str, str, List[Tuple[Dict, float]]]]:
        with self._lock:
            collectors = list(self._collectors)
        families = []
        for collector in collectors:
            for name, kind, help_text, samples in collector():
                families.append(
                    (name, kind, help_text, [(dict(lv), float(v)) for lv, v in samples])
                )
        return families

    def snapshot(self) -> Dict[str, Any]:
        """A structured, JSON-serialisable dump of every instrument.

        Shape: ``{name: {"kind", "help", "samples": [{"labels", ...}, ...]}}``
        where counter/gauge samples carry ``"value"`` and histogram samples
        carry ``"count"``/``"sum"``/``"buckets"`` (pairs of upper bound and
        cumulative-per-bucket count) plus ``"inf"``.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        out: Dict[str, Any] = {}
        for name, instrument in instruments:
            samples = []
            for key, child in instrument._items():
                labels = dict(zip(instrument.label_names, key))
                if instrument.kind == "histogram":
                    sample: Dict[str, Any] = dict(child.state(), labels=labels)
                else:
                    sample = {"labels": labels, "value": child.value}
                samples.append(sample)
            out[name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "samples": samples,
            }
        for name, kind, help_text, samples in self._collected():
            # Several collectors may report into one family (e.g. every
            # cache under ``repro_cache_hits_total``); merge their samples.
            family = out.setdefault(
                name, {"kind": kind, "help": help_text, "samples": []}
            )
            family["samples"].extend(
                {"labels": labels, "value": value} for labels, value in samples
            )
        return out

    def reset(self) -> None:
        """Zero every registered instrument (tests and benchmarks only).

        Collectors are left attached — they report live state, not history.
        Never call this in a scraped process: Prometheus counters must be
        monotone; use :class:`CounterWindow` for resettable reads instead.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            with instrument._lock:
                keep = () if not instrument.label_names else None
                instrument._children.clear()
                if keep is not None:
                    instrument._children[()] = instrument._new_child()


class CounterWindow:
    """Resettable, thread-safe reads over monotone counters.

    A window remembers a baseline per ``(counter, label)`` pair;
    :meth:`read` returns deltas since the last :meth:`reset`.  This is how
    per-engine / per-benchmark "since I started" numbers are taken without
    zeroing process-wide instruments under other readers' feet.
    """

    def __init__(self, registry: "MetricsRegistry", names: Sequence[str]):
        self._registry = registry
        self._names = tuple(names)
        self._lock = threading.Lock()
        self._baseline: Dict[str, float] = {}
        self.reset()

    def _current(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for name in self._names:
            instrument = self._registry.get(name)
            values[name] = 0.0 if instrument is None else instrument.value
        return values

    def reset(self) -> None:
        """Rebase the window: subsequent reads start from zero."""
        current = self._current()
        with self._lock:
            self._baseline = current

    def read(self) -> Dict[str, float]:
        """Deltas since the last reset, one entry per tracked counter."""
        current = self._current()
        with self._lock:
            return {
                name: current[name] - self._baseline.get(name, 0.0)
                for name in self._names
            }


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(
        '%s="%s"' % (key, str(value).replace("\\", r"\\").replace('"', r"\""))
        for key, value in pairs
    )
    return "{%s}" % rendered


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text-exposition format (v0.0.4).

    Histograms expand to cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``, exactly as a scraper expects.
    """
    lines: List[str] = []
    for name, family in registry.snapshot().items():
        kind = family["kind"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                cumulative = 0
                for bound, count in sample["buckets"]:
                    cumulative += count
                    lines.append(
                        name
                        + "_bucket"
                        + _format_labels(labels, ("le", _format_value(bound)))
                        + " "
                        + str(cumulative)
                    )
                cumulative += sample["inf"]
                lines.append(
                    name + "_bucket" + _format_labels(labels, ("le", "+Inf"))
                    + " " + str(cumulative)
                )
                lines.append(
                    name + "_sum" + _format_labels(labels) + " "
                    + _format_value(sample["sum"])
                )
                lines.append(
                    name + "_count" + _format_labels(labels) + " "
                    + str(sample["count"])
                )
            else:
                lines.append(
                    name + _format_labels(labels) + " "
                    + _format_value(sample["value"])
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """A small reader for the text-exposition format (smoke tests, tooling).

    Returns ``{metric_name: {"type": ..., "samples": [(labels, value)]}}``
    where bucket/sum/count series are grouped under their base family name.
    Raises :class:`ValueError` on a malformed line.
    """
    families: Dict[str, Dict[str, Any]] = {}
    declared: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                declared[parts[2]] = parts[3] if len(parts) > 3 else "untyped"
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_blob, _, value_text = rest.rpartition("}")
            value_text = value_text.strip()
            labels: Dict[str, str] = {}
            for chunk in filter(None, label_blob.split(",")):
                if "=" not in chunk:
                    raise ValueError(f"malformed label in line: {raw!r}")
                key, _, quoted = chunk.partition("=")
                if len(quoted) < 2 or quoted[0] != '"' or quoted[-1] != '"':
                    raise ValueError(f"unquoted label value in line: {raw!r}")
                labels[key.strip()] = quoted[1:-1]
        else:
            pieces = line.split()
            if len(pieces) < 2:
                raise ValueError(f"malformed sample line: {raw!r}")
            name, value_text = pieces[0], pieces[1]
            labels = {}
        try:
            value = float(value_text.replace("+Inf", "inf"))
        except ValueError as exc:
            raise ValueError(f"bad sample value in line: {raw!r}") from exc
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        family = families.setdefault(
            base, {"type": declared.get(base, "untyped"), "samples": []}
        )
        family["samples"].append((labels, value))
    return families


#: The process-wide default registry every repro subsystem registers into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def counter(name, help_text, labels=()):
    """Register (or fetch) a counter on the default registry."""
    return REGISTRY.counter(name, help_text, labels)


def gauge(name, help_text, labels=()):
    """Register (or fetch) a gauge on the default registry."""
    return REGISTRY.gauge(name, help_text, labels)


def histogram(name, help_text, labels=(), buckets=None):
    """Register (or fetch) a histogram on the default registry."""
    return REGISTRY.histogram(name, help_text, labels, buckets)
