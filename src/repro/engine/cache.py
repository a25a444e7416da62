"""The result cache: a thread-safe in-memory LRU with usage counters.

The engines key it by content fingerprints of the job inputs (see
:func:`repro.engine.compiled.schema_fingerprint` /
:func:`repro.engine.compiled.graph_fingerprint`), so identical jobs — the same
schema and data loaded twice, or re-submitted across batches — are answered
without recomputation, regardless of object identity.  Entries live as long
as their process; reuse across CLI runs goes through a running daemon
(``batch --connect``), and restart-surviving state through its
``--data-dir``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Tuple


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"size={self.size}/{self.max_size} hit-rate={self.hit_rate:.1%}"
        )


class LRUCache:
    """Least-recently-used mapping with bounded size and usage counters.

    ``max_size <= 0`` disables caching entirely (every lookup is a miss and
    nothing is stored), which keeps the engine code path uniform.
    """

    _MISSING = object()

    def __init__(self, max_size: int = 1024):
        self.max_size = max_size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(found, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            value = self._entries.get(key, self._MISSING)
            if value is self._MISSING:
                self._misses += 1
                return False, None
            self._entries.move_to_end(key)
            self._hits += 1
            return True, value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the least-recent overflow."""
        if self.max_size <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """A consistent snapshot of the usage counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self.max_size,
            )


def cache_collector(label: str, cache):
    """A :mod:`repro.obs` collector exposing one cache as ``repro_cache_*``.

    ``cache`` is anything with the ``stats() -> CacheStats`` contract
    (:class:`LRUCache` or the parse cache's wrapper); ``label`` becomes the
    ``cache`` label distinguishing families.
    Register the returned callable with
    :meth:`repro.obs.MetricsRegistry.add_collector` — and remove it when the
    owning object shuts down.
    """

    def collect():
        stats = cache.stats()
        labels = {"cache": label}
        return [
            (
                "repro_cache_hits_total", "counter",
                "Lookups answered from the cache.", [(labels, stats.hits)],
            ),
            (
                "repro_cache_misses_total", "counter",
                "Lookups the cache could not answer.", [(labels, stats.misses)],
            ),
            (
                "repro_cache_evictions_total", "counter",
                "Entries evicted by LRU overflow.",
                [(labels, stats.evictions)],
            ),
            (
                "repro_cache_entries", "gauge",
                "Entries currently held.", [(labels, stats.size)],
            ),
        ]

    return collect
