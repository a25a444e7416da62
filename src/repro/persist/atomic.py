"""Atomic JSON files: the one writer of snapshots, manifests and migrations.

A file is written as ``path + ".tmp"``, fsynced, renamed over ``path``, and
the directory is fsynced so that the rename itself survives a crash.  A
crash at any point leaves either the old file or the new one, never a torn
mix.  This module imports nothing from :mod:`repro.persist`, so both the
store and the migrations it runs can use it.
"""

from __future__ import annotations

import json
import os
from typing import Any


def fsync_dir(directory: str) -> None:
    """Make the entries of ``directory`` (a rename, say) durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_json_atomic(path: str, payload: Any) -> int:
    """Write ``payload`` as compact, key-sorted JSON and a newline via
    write-tmp → fsync → rename → fsync-dir; returns the number of bytes.

    The text comes from one :func:`json.dumps` call, which takes the C
    encoder (a streaming :func:`json.dump` never does), and goes out in one
    write.
    """
    data = (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")
    return len(data)
