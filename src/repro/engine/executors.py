"""Execution backends for the validation and containment engines.

One :class:`Executor` serves the three backends through a single call,
``submit(fn, *args) -> concurrent.futures.Future``:

* ``serial`` — a pool of one thread: jobs run one at a time, in submission
  order; the reference backend every other backend must agree with
  byte-for-byte;
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`; effective
  when the underlying work releases the GIL (the SciPy MILP solver does) or is
  I/O-bound (loading manifests);
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; true
  parallelism for the CPU-bound Python checks.  Jobs and results must be
  picklable, which is why the engines ship plain schemas/graphs and recompile
  inside the workers (compilation is interned per process, so each distinct
  schema is compiled once per worker, not once per job).

Thread-shaped pools run ``fn`` in a copy of the submitter's
:mod:`contextvars` context, so spans opened by the job attach to the active
trace; a process pool cannot carry the context.  The synchronous batch driver
waits on the futures, the asyncio front-end awaits them through
:func:`asyncio.wrap_future`.  The engines own caching and result assembly.
"""

from __future__ import annotations

import contextvars
import os
from typing import Callable, Optional

from repro.engine.backends import BACKENDS


class Executor:
    """A lazily started worker pool behind one ``submit`` call."""

    def __init__(self, backend: str = "serial", max_workers: Optional[int] = None):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        self.name = backend
        if backend == "serial":
            self.max_workers = 1
        else:
            self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._pool = None

    def submit(self, fn: Callable, *args):
        """Schedule ``fn(*args)``; returns its :class:`concurrent.futures.Future`."""
        if self.name == "process":
            return self._started("ProcessPoolExecutor").submit(fn, *args)
        context = contextvars.copy_context()
        return self._started("ThreadPoolExecutor").submit(context.run, fn, *args)

    def _started(self, pool_class: str):
        if self._pool is None:
            # Imported on the first job, so importing the engine loads no
            # concurrent.futures / multiprocessing.
            import concurrent.futures

            self._pool = getattr(concurrent.futures, pool_class)(self.max_workers)
        return self._pool

    def close(self) -> None:
        """Shut the pool down; a later ``submit`` re-creates it lazily."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def get_executor(backend: str, max_workers: Optional[int] = None) -> Executor:
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``)."""
    return Executor(backend, max_workers)
