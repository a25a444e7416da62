"""Pluggable execution backends for the validation and containment engines.

Three interchangeable backends implement a single ``map_ordered`` contract —
apply a callable to every item, returning results in input order:

* ``serial`` — plain loop in the calling thread; the reference backend every
  other backend must agree with byte-for-byte;
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`; effective
  when the underlying work releases the GIL (the SciPy MILP solver does) or is
  I/O-bound (loading manifests);
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; true
  parallelism for the CPU-bound Python checks.  Jobs and results must be
  picklable, which is why the process engines ship plain schemas/graphs and
  recompile inside the workers (compilation is interned per process, so each
  distinct schema is compiled once per worker, not once per job).

Backends are deliberately tiny: the engines own caching and result
assembly, so a backend only needs ordered map.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

BACKENDS = ("serial", "thread", "process")


class SerialExecutor:
    """The reference backend: an ordinary loop, no concurrency."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = 1

    def map_ordered(
        self, fn: Callable[[Item], Result], items: Sequence[Item]
    ) -> List[Result]:
        """Apply ``fn`` to every item, in order, in the calling thread."""
        return [fn(item) for item in items]

    def close(self) -> None:
        """Nothing to release; present for backend interchangeability."""


class _PoolExecutor:
    """Shared shape of the thread/process backends."""

    name = "pool"
    _pool_cls = ThreadPoolExecutor

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._pool_cls(max_workers=self.max_workers)
        return self._pool

    def map_ordered(
        self, fn: Callable[[Item], Result], items: Sequence[Item]
    ) -> List[Result]:
        """Apply ``fn`` to every item through the pool; results in input order."""
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        return list(pool.map(fn, items))

    def close(self) -> None:
        """Shut the pool down; a later ``map_ordered`` re-creates it lazily."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend (shared memory; benefits GIL-releasing work)."""

    name = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend (true parallelism; jobs must be picklable)."""

    name = "process"
    _pool_cls = ProcessPoolExecutor


def get_executor(backend: str, max_workers: Optional[int] = None):
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``)."""
    if backend == "serial":
        return SerialExecutor(max_workers)
    if backend == "thread":
        return ThreadExecutor(max_workers)
    if backend == "process":
        return ProcessExecutor(max_workers)
    raise ValueError(
        f"unknown executor backend {backend!r}; expected one of {', '.join(BACKENDS)}"
    )

