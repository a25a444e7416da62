"""Length-prefixed, CRC32-checksummed write-ahead log.

One WAL file holds the deltas applied to a :class:`~repro.persist.store.
DurableStore` since its last snapshot.  The file starts with a fixed magic
header and then a flat sequence of records::

    +--------+--------+----------------------+
    | u32 LE | u32 LE | UTF-8 JSON payload   |
    | length | crc32  | (``length`` bytes)   |
    +--------+--------+----------------------+

Each payload is ``{"v": to_version, "delta": <codec delta>}`` — the delta
that advances the store from ``to_version - 1`` to ``to_version``.  Records
carry their target version explicitly so replay can *deduplicate*: a crash
between the WAL append and the process dying can leave a duplicate tail
record, and replay simply skips anything at or below the store's current
version.

Recovery never fails on a damaged tail.  :func:`read_records` scans records
front to back and stops at the first frame that is short, truncated, or
fails its checksum; everything before it is intact (CRC-verified), and the
damaged suffix is reported as a byte offset so the opener can truncate the
file back to its last good record — exactly the contract of the
crash-recovery property suite: *no record that was fully fsynced is ever
lost, and no torn record is ever half-applied*.

Durability is the fsync policy's business (:class:`FsyncPolicy`):

``always``        fsync after every append — no acknowledged write is lost.
``interval[:s]``  fsync at most every ``s`` seconds (default 1.0) — bounded
                  loss window, much higher throughput.
``off``           never fsync explicitly — the OS page cache decides.

Fault injection hooks: ``persist.io`` raises before anything is written;
``persist.torn_write`` writes a *partial* frame and raises, leaving exactly
the torn-tail state recovery must cope with.  A writer that survives a torn
write self-heals on the next append by truncating back to the last good
offset first.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro import faults as _faults
from repro.errors import PersistError
from repro.obs import metrics as _obs_metrics

MAGIC = b"RWAL0001\n"
_HEADER = struct.Struct("<II")

_REGISTRY = _obs_metrics.get_registry()
_M_APPENDS = _REGISTRY.counter(
    "repro_persist_wal_appends_total", "WAL records appended"
)
_M_BYTES = _REGISTRY.counter(
    "repro_persist_wal_bytes_total", "WAL bytes written (frames, not fsync)"
)
_M_REPLAYED = _REGISTRY.counter(
    "repro_persist_replayed_records_total", "WAL records replayed at open"
)
_M_TRUNCATED = _REGISTRY.counter(
    "repro_persist_truncated_tails_total", "damaged WAL tails truncated"
)


# --------------------------------------------------------------------------- #
# Fsync policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FsyncPolicy:
    """When to fsync the WAL file after an append (see module docstring)."""

    mode: str = "always"
    interval: float = 1.0

    @classmethod
    def parse(cls, spec: "FsyncPolicy | str") -> "FsyncPolicy":
        if isinstance(spec, FsyncPolicy):
            return spec
        text = str(spec).strip().lower()
        if text in ("always", "off"):
            return cls(text)
        if text == "interval":
            return cls("interval")
        if text.startswith("interval:"):
            try:
                seconds = float(text.split(":", 1)[1])
            except ValueError:
                raise PersistError(f"bad fsync policy {spec!r}") from None
            if seconds <= 0:
                raise PersistError(f"fsync interval must be positive: {spec!r}")
            return cls("interval", seconds)
        raise PersistError(
            f"bad fsync policy {spec!r} (expected always, interval[:seconds], or off)"
        )

    def __str__(self) -> str:
        if self.mode == "interval":
            return f"interval:{self.interval:g}"
        return self.mode


def _frame(version: int, delta_payload: Any) -> bytes:
    payload = json.dumps(
        {"v": version, "delta": delta_payload},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# --------------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------------- #
def scan_frames(data: bytes) -> Tuple[List[Tuple[int, Any]], int, bool]:
    """Parse WAL bytes into ``(records, good_size, damaged_tail)``.

    ``records`` is the list of ``(version, delta_payload)`` pairs whose
    frames are fully present and CRC-clean; ``good_size`` is the byte offset
    just past the last good frame (the truncation point); ``damaged_tail``
    is True when trailing bytes past ``good_size`` had to be discarded.
    """
    if not data.startswith(MAGIC):
        raise PersistError("WAL file has a bad magic header")
    records: List[Tuple[int, Any]] = []
    offset = len(MAGIC)
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            return records, offset, True
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > size:
            return records, offset, True
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            return records, offset, True
        try:
            record = json.loads(payload.decode("utf-8"))
            version = record["v"]
            delta_payload = record["delta"]
        except (ValueError, KeyError, TypeError):
            return records, offset, True
        records.append((version, delta_payload))
        offset = end
    return records, offset, False


def read_records(path: str) -> Tuple[List[Tuple[int, Any]], int, bool]:
    """:func:`scan_frames` over a file; missing file reads as empty."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, False
    if not data:
        return [], 0, False
    return scan_frames(data)


# --------------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------------- #
class WriteAheadLog:
    """Append-only writer over one WAL file (single-writer discipline)."""

    def __init__(self, path: str, policy: "FsyncPolicy | str" = "always"):
        self.path = path
        self.policy = FsyncPolicy.parse(policy)
        self.records = 0
        self.bytes = 0
        self._torn = False
        self._last_sync = time.monotonic()
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "ab")
        if fresh:
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
        self._good_offset = self._file.tell()

    # ------------------------------------------------------------------ #
    def append(self, version: int, delta_payload: Any) -> int:
        """Append one record; returns the frame size in bytes.

        Write-ahead contract: raises *before* touching the file on an
        injected ``persist.io`` fault, and leaves a torn (but recoverable)
        tail on ``persist.torn_write``.  Either way no record is partially
        acknowledged — the caller must not mutate its store if this raises.
        """
        _faults.maybe_fail("persist.io")
        frame = _frame(version, delta_payload)
        if self._torn:
            # A previous torn write left garbage past the good offset;
            # reclaim it before appending (self-healing writer).
            self._file.truncate(self._good_offset)
            self._file.seek(self._good_offset)
            self._torn = False
        if _faults.should_fire("persist.torn_write"):
            self._file.write(frame[: max(1, len(frame) // 2)])
            self._file.flush()
            self._torn = True
            raise _faults.InjectedIOError("persist.torn_write")
        self._file.write(frame)
        self._file.flush()
        self._maybe_sync()
        self._good_offset += len(frame)
        self.records += 1
        self.bytes += len(frame)
        _M_APPENDS.inc()
        _M_BYTES.inc(len(frame))
        return len(frame)

    def _maybe_sync(self) -> None:
        if self.policy.mode == "off":
            return
        now = time.monotonic()
        if self.policy.mode == "interval" and now - self._last_sync < self.policy.interval:
            return
        os.fsync(self._file.fileno())
        self._last_sync = now

    def sync(self) -> None:
        """Force an fsync regardless of policy (checkpoint barrier)."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._last_sync = time.monotonic()

    def close(self) -> None:
        try:
            self._file.flush()
        finally:
            self._file.close()


# --------------------------------------------------------------------------- #
# Recovery helpers
# --------------------------------------------------------------------------- #
def recover(path: str) -> Tuple[List[Tuple[int, Any]], Dict[str, int]]:
    """Read a WAL for replay, truncating any damaged tail in place.

    Returns ``(records, stats)`` where ``stats`` has ``records``,
    ``truncated`` (0/1) and ``dropped_bytes``.  Missing file → no records.
    """
    records, good_size, damaged = read_records(path)
    stats = {"records": len(records), "truncated": 0, "dropped_bytes": 0}
    if damaged:
        total = os.path.getsize(path)
        stats["truncated"] = 1
        stats["dropped_bytes"] = total - good_size
        with open(path, "r+b") as handle:
            handle.truncate(good_size)
            handle.flush()
            os.fsync(handle.fileno())
        _M_TRUNCATED.inc()
    if records:
        _M_REPLAYED.inc(len(records))
    return records, stats
