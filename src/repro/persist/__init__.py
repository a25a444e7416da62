"""Durable warm-restarting stores: snapshot + WAL persistence (ISSUE 10).

Public surface:

* :class:`DurableStore` — a :class:`repro.graphs.store.GraphStore` persisted
  to a directory: atomic generational snapshots, a CRC32-checksummed
  write-ahead log with configurable fsync policy, and crash-safe recovery
  that truncates torn tails and replays through the incremental machinery.
* :class:`FsyncPolicy` / :class:`WriteAheadLog` — the WAL layer.
* :data:`CURRENT_FORMAT` and :mod:`repro.persist.migrations` — the on-disk
  format version and its ordered migration chain.
* :func:`persist_metrics_summary` — the ``repro_persist_*`` counter totals
  the daemon's ``metrics`` op exposes.
"""

from repro.persist.atomic import write_json_atomic
from repro.persist.migrations import CURRENT_FORMAT
from repro.persist.store import (
    DurableStore,
    persist_metrics_summary,
    read_manifest,
    write_manifest,
)
from repro.persist.wal import FsyncPolicy, WriteAheadLog

__all__ = [
    "CURRENT_FORMAT",
    "DurableStore",
    "FsyncPolicy",
    "WriteAheadLog",
    "persist_metrics_summary",
    "read_manifest",
    "write_json_atomic",
    "write_manifest",
]
