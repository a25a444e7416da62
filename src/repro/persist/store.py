"""Durable graph stores: snapshot + WAL persistence with warm recovery.

A :class:`DurableStore` is a :class:`repro.graphs.store.GraphStore` whose
state survives the process.  On disk, one store owns one directory::

    <directory>/
        MANIFEST.json          # {"format": N, "name": ..., "generation": G}
        snapshot-<G>.json      # graph + delta log tail + typings + fingerprint
        wal-<G>.log            # deltas applied since snapshot G

A snapshot (on-disk format 3) is columnar: one node table, ``labels`` and
``occurs`` tables, the edges as one flat list of indices into them, and
each typing as a ``typesets`` table with one index per node of the table
(:mod:`repro.persist.codec`).  It also carries the graph's fingerprint at
the snapshot's version: the 256 bucket digests, tagged with the
fingerprint scheme, and the node table grouped by bucket with offsets.

**Checkpointing** (:meth:`DurableStore.checkpoint`) writes the next
generation's snapshot with the atomic write-tmp → fsync → rename dance
(:func:`repro.persist.atomic.write_json_atomic`: one C-encoded
``json.dumps`` and one write), opens a fresh WAL, *then* flips the
manifest — so a crash at any point leaves the previous generation fully
intact.  The payload build and the write run with the cyclic collector
paused (:func:`repro.util.gcpause.collector_paused`).  One previous
generation is kept as a fallback against a corrupt newest snapshot; older
ones are pruned.

**Every apply is write-ahead**: the resolved delta is appended to the WAL
(length-prefixed, CRC32-checksummed, fsync per policy) *before* the graph
mutates, via the :meth:`GraphStore._wal_write` hook — a failed append
leaves the store at its prior version, so the disk never lags an
acknowledged write by more than the fsync policy's window.

**Opening** (:meth:`DurableStore.open`) runs any pending format migrations
(:mod:`repro.persist.migrations`), loads the newest readable snapshot
(falling back one generation if the newest is corrupt), restores the
delta-log tail, then replays the WAL — truncating a torn tail record instead
of failing, and skipping duplicate records left by a crash-during-append
(records carry their target version).  The snapshot decodes in bulk: each
node and interval once, and the graph's columns sliced off the flat edge
list (:func:`repro.persist.codec.decode_graph`), with no object per edge;
the cyclic collector is paused for the whole open (what it builds is
acyclic) by the same counted pause, and left as it was found.  When the
snapshot's fingerprint scheme is this build's, its buckets are installed
before the WAL replay (:meth:`GraphStore.restore_fingerprint`), so the
first ``fingerprint()`` rehashes only the buckets the replayed deltas
touched; otherwise it hashes every bucket.  No kind partition is persisted.  The snapshot's persisted
typing snapshots come back as :attr:`restored_typings`, ready for
:meth:`repro.engine.validation.ValidationEngine.seed_typing` — which is
what makes the restart *warm*: the first revalidate runs incrementally from
the checkpoint instead of retyping the world.
"""

from __future__ import annotations

import glob
import json
import os
import re
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import faults as _faults
from repro.engine.compiled import FINGERPRINT_BUCKETS, FINGERPRINT_SCHEME
from repro.errors import GraphError, PersistError
from repro.graphs.graph import Graph
from repro.graphs.store import Delta, GraphStore
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing
from repro.persist import codec
from repro.persist import migrations as _migrations
from repro.persist import wal as _wal
from repro.persist.atomic import write_json_atomic
from repro.persist.wal import FsyncPolicy, WriteAheadLog
from repro.util.gcpause import collector_paused

MANIFEST_NAME = "MANIFEST.json"
_GEN_RE = re.compile(r"^(?:snapshot|wal)-(\d+)\.(?:json|log)$")

_REGISTRY = _obs_metrics.get_registry()
_M_CHECKPOINTS = _REGISTRY.counter(
    "repro_persist_checkpoints_total", "snapshot checkpoints written"
)
_M_SNAPSHOT_SECONDS = _REGISTRY.histogram(
    "repro_persist_snapshot_seconds", "wall time of one checkpoint"
)


# --------------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------------- #
def write_manifest(directory: str, manifest: Dict[str, Any]) -> None:
    write_json_atomic(os.path.join(directory, MANIFEST_NAME), manifest)


def read_manifest(directory: str) -> Dict[str, Any]:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise PersistError(f"no manifest in {directory!r} — not a data directory") from None
    except ValueError as exc:
        raise PersistError(f"corrupt manifest {path!r}: {exc}") from None
    if not isinstance(manifest, dict) or "format" not in manifest:
        raise PersistError(f"corrupt manifest {path!r}: missing format")
    return manifest


# --------------------------------------------------------------------------- #
# The durable store
# --------------------------------------------------------------------------- #
class DurableStore(GraphStore):
    """A graph store checkpointed to a directory (see module docstring).

    Construct via :meth:`create` (fresh directory) or :meth:`open` (recover
    an existing one); the bare constructor wires no files.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        name: str = "",
        *,
        directory: str,
        fsync: "FsyncPolicy | str" = "always",
        base_version: int = 0,
        generation: int = 0,
    ):
        self.directory = os.path.abspath(directory)
        self._policy = FsyncPolicy.parse(fsync)
        self._generation = generation
        self._wal: Optional[WriteAheadLog] = None
        self._replaying = False
        self._last_checkpoint_at: Optional[float] = None
        #: Typing snapshots restored by :meth:`open`, for engine seeding.
        self.restored_typings: List[Dict[str, Any]] = []
        #: What :meth:`open` had to do: replayed/deduped record counts,
        #: torn-tail truncation, snapshot fallback.
        self.recovery: Dict[str, int] = {}
        super().__init__(graph, name, base_version=base_version)

    # ------------------------------------------------------------------ #
    # Write-ahead hook
    # ------------------------------------------------------------------ #
    def _wal_write(self, resolved: Delta) -> None:
        if self._replaying:
            return
        if self._wal is None:
            # Applying in memory only would acknowledge a delta that a
            # restart loses.
            raise PersistError(
                f"durable store {self.directory!r} is closed: the delta "
                "would not be logged"
            )
        self._wal.append(self._version + 1, codec.encode_delta(resolved))

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _snapshot_path(self, generation: int) -> str:
        return os.path.join(self.directory, f"snapshot-{generation}.json")

    def _wal_path(self, generation: int) -> str:
        return os.path.join(self.directory, f"wal-{generation}.log")

    # ------------------------------------------------------------------ #
    # Creation
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        directory: str,
        graph: Optional[Graph] = None,
        name: str = "",
        fsync: "FsyncPolicy | str" = "always",
    ) -> "DurableStore":
        """Start a fresh durable store in ``directory`` (replacing any old one)."""
        os.makedirs(directory, exist_ok=True)
        for stale in glob.glob(os.path.join(directory, "snapshot-*.json")) + glob.glob(
            os.path.join(directory, "wal-*.log")
        ):
            os.remove(stale)
        manifest = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest):
            os.remove(manifest)
        store = cls(graph, name, directory=directory, fsync=fsync)
        store.checkpoint()
        return store

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls, directory: str, fsync: "FsyncPolicy | str" = "always"
    ) -> "DurableStore":
        """Recover the store persisted in ``directory`` (see module docstring)."""
        # What an open builds is acyclic (graph, log, typings), so the
        # cyclic collector would only rescan the growing heap; it is paused
        # for the open and left as it was found.
        with collector_paused():
            return cls._open(os.path.abspath(directory), fsync)

    @classmethod
    def _open(cls, directory: str, fsync: "FsyncPolicy | str") -> "DurableStore":
        with _obs_tracing.span("persist.open", directory=directory) as span:
            manifest = read_manifest(directory)
            manifest = _migrations.migrate(directory, manifest, write_manifest)
            with _obs_tracing.span("persist.snapshot") as snapshot_span:
                snapshot, generation, size = cls._load_snapshot(
                    directory, int(manifest.get("generation", 0))
                )
                snapshot_span.annotate(bytes=size)
            if generation != manifest.get("generation"):
                manifest["generation"] = generation
                write_manifest(directory, manifest)

            with _obs_tracing.span("persist.decode") as decode_span:
                store = cls._decode_snapshot(snapshot, directory, fsync, generation)
                decode_span.annotate(
                    nodes=store._graph.node_count,
                    edges=store._graph.edge_count,
                    format=snapshot["format"],
                    fingerprint="absent" if store._fp_members is None else "restored",
                )

            store._replay_wal(generation)
            span.annotate(
                generation=generation,
                version=store.version,
                replayed=store.recovery["replayed"],
                truncated=store.recovery["truncated"],
            )
            return store

    @classmethod
    def _decode_snapshot(
        cls,
        snapshot: Dict[str, Any],
        directory: str,
        fsync: "FsyncPolicy | str",
        generation: int,
    ) -> "DurableStore":
        """The store a snapshot describes: graph, log tail, typings and, when
        the snapshot carries them under this build's scheme, the fingerprint
        buckets."""
        nodes = codec.decode_nodes(snapshot.get("nodes", []))
        graph = codec.decode_graph(snapshot, nodes, snapshot.get("name", ""))
        base = int(snapshot.get("base", snapshot["version"]))
        store = cls(
            graph,
            snapshot.get("name", ""),
            directory=directory,
            fsync=fsync,
            base_version=base,
            generation=generation,
        )
        # The persisted log tail (history *behind* the snapshot): the
        # graph is at snapshot["version"], the log spans [base, version].
        tail = [codec.decode_delta(entry) for entry in snapshot.get("log", ())]
        if len(tail) != snapshot["version"] - base:
            raise PersistError(
                f"snapshot log tail has {len(tail)} entries for span "
                f"[{base}, {snapshot['version']}] in {directory!r}"
            )
        store._log.extend(tail)
        store._version = int(snapshot["version"])
        store._last_checkpoint_at = snapshot.get("created_at")
        for entry in snapshot.get("typings", ()):
            store.restored_typings.append(
                {
                    "schema": entry["schema"],
                    "compressed": bool(entry["compressed"]),
                    "version": int(entry["version"]),
                    "typing": codec.decode_typing(entry, nodes),
                    # Kind-level typings are no longer persisted or read;
                    # the keys stay for callers that pass them through to
                    # ValidationEngine.seed_typing.
                    "kind_typing": None,
                    "epoch": -1,
                }
            )
        buckets = codec.decode_fingerprint(
            snapshot.get("fingerprint"), nodes, FINGERPRINT_SCHEME, FINGERPRINT_BUCKETS
        )
        if buckets is not None:
            store.restore_fingerprint(*buckets)
        return store

    @staticmethod
    def _load_snapshot(
        directory: str, generation: int
    ) -> Tuple[Dict[str, Any], int, int]:
        """The newest readable snapshot at or one below ``generation``, its
        generation and its size in bytes."""
        for candidate in (generation, generation - 1):
            if candidate < 1:
                continue
            path = os.path.join(directory, f"snapshot-{candidate}.json")
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                snapshot = json.loads(data)
            except (FileNotFoundError, ValueError):
                continue
            if not isinstance(snapshot, dict) or "version" not in snapshot:
                continue
            fmt = int(snapshot.get("format", 1))
            if fmt > _migrations.CURRENT_FORMAT:
                raise PersistError(
                    f"snapshot {path!r} uses on-disk format {fmt}, newer than "
                    f"this build's format {_migrations.CURRENT_FORMAT}"
                )
            return snapshot, candidate, len(data)
        raise PersistError(
            f"no usable snapshot in {directory!r} (manifest generation "
            f"{generation}) — cannot recover a store from a WAL alone"
        )

    def _replay_wal(self, generation: int) -> None:
        """Replay the generation's WAL tail into the freshly loaded store."""
        path = self._wal_path(generation)
        records, stats = _wal.recover(path)
        deduped = 0
        with _obs_tracing.span("persist.replay", records=len(records)):
            self._replaying = True
            try:
                for version, payload in records:
                    if version <= self._version:
                        deduped += 1  # duplicate tail record (crash mid-append)
                        continue
                    if version != self._version + 1:
                        raise PersistError(
                            f"WAL {path!r} jumps from version {self._version} "
                            f"to {version} — record sequence is broken"
                        )
                    try:
                        self.apply(codec.decode_delta(payload))
                    except GraphError as exc:
                        raise PersistError(
                            f"WAL {path!r} record for version {version} does "
                            f"not apply: {exc}"
                        ) from exc
            finally:
                self._replaying = False
        self._wal = WriteAheadLog(path, self._policy)
        # Report the full WAL content as "since last checkpoint": replayed
        # records are exactly the appends since the snapshot was cut.
        self._wal.records = stats["records"] - deduped
        self._wal.bytes = max(0, self._wal._good_offset - len(_wal.MAGIC))
        self.recovery = {
            "replayed": stats["records"] - deduped,
            "deduped": deduped,
            "truncated": stats["truncated"],
            "dropped_bytes": stats["dropped_bytes"],
        }

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self, typings: Iterable[Dict[str, Any]] = ()) -> Dict[str, Any]:
        """Write the next generation's snapshot and rotate the WAL.

        ``typings`` is the output of
        :meth:`repro.engine.validation.ValidationEngine.export_typings`;
        entries older than the store's history floor are dropped, and the
        persisted delta-log tail is extended down to the oldest surviving
        entry so every persisted typing stays incrementally reachable after
        a restart.  Returns ``{"generation", "version", "wal_records_folded",
        "seconds"}``.
        """
        start = time.perf_counter()
        generation = self._generation + 1
        with _obs_tracing.span(
            "persist.checkpoint", generation=generation, version=self._version
        ):
            _faults.maybe_fail("persist.io")
            # The payload is as acyclic as an open's build, and as large.
            with collector_paused():
                with _obs_tracing.span("persist.encode") as encode_span:
                    snapshot = self._snapshot_payload(list(typings))
                    encode_span.annotate(
                        nodes=self._graph.node_count,
                        edges=self._graph.edge_count,
                        typings=len(snapshot["typings"]),
                    )
                with _obs_tracing.span("persist.write") as write_span:
                    size = write_json_atomic(self._snapshot_path(generation), snapshot)
                    write_span.annotate(bytes=size)
            fresh_wal = WriteAheadLog(self._wal_path(generation), self._policy)
            folded = self._wal.records if self._wal is not None else 0
            write_manifest(
                self.directory,
                {
                    "format": _migrations.CURRENT_FORMAT,
                    "name": self.name,
                    "generation": generation,
                },
            )
            if self._wal is not None:
                self._wal.close()
            self._wal = fresh_wal
            self._generation = generation
            self._last_checkpoint_at = time.time()
            self._prune(keep_from=generation - 1)
        seconds = time.perf_counter() - start
        _M_CHECKPOINTS.inc()
        _M_SNAPSHOT_SECONDS.observe(seconds)
        return {
            "generation": generation,
            "version": self._version,
            "wal_records_folded": folded,
            "seconds": seconds,
        }

    def _snapshot_payload(self, typings: List[Dict[str, Any]]) -> Dict[str, Any]:
        usable = [
            entry
            for entry in typings
            if self._base <= entry["version"] <= self._version
        ]
        base = min([entry["version"] for entry in usable] + [self._version])
        tail = [
            codec.encode_delta(self._log[cursor - self._base].compact())
            for cursor in range(base, self._version)
        ]
        # The node table is grouped by fingerprint bucket, so a reopen gets
        # every bucket's members back by slicing instead of hashing.
        members, digests = self.fingerprint_buckets()
        nodes, encoded, offsets = codec.bucket_table(members, FINGERPRINT_BUCKETS)
        if len(nodes) != self._graph.node_count:
            raise PersistError(
                f"fingerprint buckets hold {len(nodes)} nodes, the graph "
                f"{self._graph.node_count}"
            )
        index = {node: position for position, node in enumerate(nodes)}
        return {
            "format": _migrations.CURRENT_FORMAT,
            "name": self.name,
            "version": self._version,
            "base": base,
            "created_at": time.time(),
            "nodes": encoded,
            **codec.encode_graph(self._graph, nodes, index),
            "log": tail,
            "typings": [
                {
                    "schema": entry["schema"],
                    "compressed": entry["compressed"],
                    "version": entry["version"],
                    **codec.encode_typing(entry["typing"], index),
                }
                for entry in usable
            ],
            "fingerprint": codec.encode_fingerprint(FINGERPRINT_SCHEME, digests, offsets),
        }

    def _prune(self, keep_from: int) -> None:
        """Delete snapshot/WAL files of generations below ``keep_from``."""
        for entry in os.listdir(self.directory):
            match = _GEN_RE.match(entry)
            if match and int(match.group(1)) < keep_from:
                try:
                    os.remove(os.path.join(self.directory, entry))
                except OSError:
                    pass  # pruning is best-effort; next checkpoint retries

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        return self._generation

    @property
    def closed(self) -> bool:
        """True when no write-ahead log is open (after :meth:`close`): a
        delta would not be logged."""
        return self._wal is None

    def persist_status(self) -> Dict[str, Any]:
        """The persistence block of the daemon's per-graph ``status``."""
        wal = self._wal  # read once: another thread may close the store
        return {
            "generation": self._generation,
            "format": _migrations.CURRENT_FORMAT,
            "fsync": str(self._policy),
            "wal_records": wal.records if wal is not None else 0,
            "wal_bytes": wal.bytes if wal is not None else 0,
            "last_checkpoint_at": self._last_checkpoint_at,
            "base_version": self._base,
        }

    def sync(self) -> None:
        """Force the WAL to disk regardless of the fsync policy."""
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


def persist_metrics_summary() -> Dict[str, int]:
    """Process-lifetime totals of the ``repro_persist_*`` counters.

    The view the daemon's ``metrics`` op exposes under ``"persist"`` —
    monotone registry reads, unaffected by anyone's stats windows.
    """
    registry = _obs_metrics.get_registry()
    return {
        "wal_appends": int(registry.value("repro_persist_wal_appends_total")),
        "wal_bytes": int(registry.value("repro_persist_wal_bytes_total")),
        "replayed_records": int(registry.value("repro_persist_replayed_records_total")),
        "truncated_tails": int(registry.value("repro_persist_truncated_tails_total")),
        "checkpoints": int(registry.value("repro_persist_checkpoints_total")),
    }
