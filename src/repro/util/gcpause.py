"""One process-wide, counted pause of the cyclic garbage collector.

Bulk builders (:func:`repro.rdf.load_graph`, :meth:`DurableStore.open
<repro.persist.store.DurableStore.open>`, the snapshot build of
:meth:`~repro.persist.store.DurableStore.checkpoint`) allocate many
containers that are acyclic, so the collector would only rescan a growing
heap.  They run inside :func:`collector_paused`.

The pause is counted because the daemon runs these builders in worker
threads at once.  A hand-rolled ``was = gc.isenabled(); gc.disable(); ...;
if was: gc.enable()`` per caller is not safe there: if thread B reads
``isenabled()`` while thread A's pause is on, and A re-enables the collector
before B disables it, B's exit restores "off" and the collector stays off
for the rest of the process.  Here the first entry turns the collector off
(only if it was on) and the last exit turns it back on (only then).  Not
``gc.freeze()``: frozen objects would outlive a store that is later
replaced.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_resume = False  # whether the last exit turns the collector back on


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the ``with`` body (see module docstring)."""
    global _depth, _resume
    with _lock:
        if _depth == 0:
            _resume = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _resume:
                gc.enable()
