"""The batched, parallel, cache-aware validation engine.

:class:`ValidationEngine` turns the one-shot :func:`repro.schema.validation.validate`
into a service-shaped API:

* ``submit`` queues (graph, schema) jobs — plain or compressed semantics;
* ``run_batch`` executes every queued job through a pluggable backend
  (``serial`` / ``thread`` / ``process``), serving repeats from an LRU cache
  keyed by content fingerprints and compiling every distinct schema exactly
  once;
* the result is an :class:`repro.engine.jobs.EngineReport` whose per-job
  payloads are byte-identical across backends.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.base import BatchEngine
from repro.engine.compiled import CompiledSchema, compile_schema, graph_fingerprint
from repro.engine.fixpoint import (
    MAX_AFFECTED_FRACTION,
    FixpointStats,
    maximal_typing_fixpoint,
    retype_incremental,
)
from repro.engine.jobs import JobResult, Stopwatch, ValidationJob
from repro.graphs.graph import Graph
from repro.graphs.store import GraphStore
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing
from repro.schema.shex import ShExSchema
from repro.schema.typing import Typing
from repro.schema.validation import maximal_typing_compressed, validate

JobLike = Union[ValidationJob, Tuple[Graph, ShExSchema]]

_REGISTRY = _obs_metrics.get_registry()
_M_REVALIDATIONS = _REGISTRY.counter(
    "repro_engine_revalidations_total",
    "Store revalidations, by resolved mode (cached included).",
    labels=("mode",),
)
_M_REVALIDATE_SECONDS = _REGISTRY.histogram(
    "repro_engine_revalidate_seconds",
    "Wall time of one computed (non-cached) revalidation.",
)


class TypingRows(Sequence):
    """A payload's ``typing`` rows, built from an immutable typing on first read.

    The rows are ``(repr(node), sorted types)`` for every node, sorted by the
    node's ``repr`` — untyped nodes included with ``()``.  The sequence
    renders (``repr``), compares (``==``) and hashes like that tuple, and
    pickles *as* the tuple, so cached and cross-process payloads are plain
    tuples.  Revalidation creates one per version and rarely reads it; only
    ``include_typing`` / ``--show-typing`` callers pay for the sort.
    """

    __slots__ = ("_typing", "_rows")

    def __init__(self, typing: Typing):
        self._typing = typing
        self._rows: Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]] = None

    @property
    def typing(self) -> Typing:
        """The typing the rows are read from."""
        return self._typing

    def rows(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """The rows as a plain tuple (built once)."""
        rows = self._rows
        if rows is None:
            keyed = sorted(
                ((repr(node), types) for node, types in self._typing.items()),
                key=itemgetter(0),
            )
            rows = self._rows = tuple(
                (text, tuple(sorted(types))) for text, types in keyed
            )
        return rows

    def __len__(self) -> int:
        return self._typing.node_count

    def __getitem__(self, index):
        return self.rows()[index]

    def __iter__(self):
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        if isinstance(other, TypingRows):
            other = other.rows()
        if isinstance(other, tuple):
            return self.rows() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows())

    def __repr__(self) -> str:
        return repr(self.rows())

    def __reduce__(self):
        return (tuple, (self.rows(),))


def _payload_from_typing(
    graph: Graph, typing: Typing, compressed: bool
) -> Tuple[str, Dict]:
    """The deterministic (verdict, payload) pair for a computed typing.

    Shared by the batch path and the store-revalidation path, so both produce
    byte-identical cache entries for the same (graph, schema, semantics).

    The kernels' typings list every node of ``graph`` (untyped ones with the
    empty set), so the payload is read off the immutable typing alone — a
    store may move on while the payload sits in a cache.  Only the untyped
    nodes are read here, from the set the typing keeps
    (:meth:`repro.schema.typing.Typing.untyped`); the full ``typing`` rows
    are a :class:`TypingRows`, sorted when first read, because a
    revalidation that sorted a row per node paid for the whole graph on
    every version.  A typing that omits nodes is first widened to every node
    of ``graph``.
    """
    if typing.node_count != graph.node_count:
        typing = Typing({node: typing.types_of(node) for node in graph.nodes})
    untyped = sorted(typing.untyped(), key=repr)
    verdict = "valid" if not untyped else "invalid"
    payload = {
        "untyped_nodes": tuple(repr(node) for node in untyped),
        "typing": TypingRows(typing),
        "compressed": compressed,
    }
    return verdict, payload


def _region_route(stats: FixpointStats, nodes: int) -> Tuple[str, str]:
    """``(route, reason)`` of a revalidation that started from a prior typing."""
    if stats.mode == "unchanged":
        return "region", "no touched node"
    region = f"region {stats.affected}/{nodes}"
    if stats.mode == "incremental":
        return "region", f"{region} <= {MAX_AFFECTED_FRACTION}"
    return "full", f"{region} > {MAX_AFFECTED_FRACTION}"


def _validation_payload(job: ValidationJob, compiled: CompiledSchema) -> Tuple[str, Dict]:
    """Run one job to a deterministic (verdict, payload) pair."""
    if job.compressed:
        typing = maximal_typing_compressed(job.graph, job.schema, compiled=compiled)
    else:
        typing = validate(job.graph, job.schema, compiled=compiled).typing
    return _payload_from_typing(job.graph, typing, job.compressed)


@dataclass(frozen=True)
class RevalidationOutcome:
    """The outcome of one store revalidation.

    ``result`` is the usual deterministic :class:`repro.engine.jobs.JobResult`
    (cache-compatible with the batch path); the extra fields describe *how*
    the typing was obtained: ``version`` is the store version validated,
    ``mode`` one of ``cached`` / ``unchanged`` / ``incremental`` / ``full``,
    and for incremental runs ``frontier`` / ``affected`` are the
    delta-touched node count and the size of the retyped region.
    """

    result: JobResult
    version: int
    mode: str
    frontier: int = 0
    affected: int = 0


def _job_worker(job: ValidationJob) -> Tuple[str, Dict]:
    """Run one job on any backend (module-level, hence picklable).

    The schema is compiled through the per-process intern table, so each
    distinct schema is compiled once per process — in a thread-shaped pool
    the engine's own :meth:`ValidationEngine.compile` already interned it.
    """
    return _validation_payload(job, compile_schema(job.schema))


class ValidationEngine(BatchEngine):
    """Batch validation with pluggable executors and a fingerprint-keyed cache.

    Usage::

        engine = ValidationEngine(backend="thread", max_workers=4)
        engine.submit(graph_a, schema)
        engine.submit(graph_b, schema, compressed=True)
        report = engine.run_batch()

    The engine may be reused across batches; the cache persists between them.
    """

    kind = "validation"

    #: How many (schema, store) typing snapshots to retain for incremental
    #: revalidation; least-recently refreshed snapshots are dropped first.
    TYPING_SNAPSHOTS = 64

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        cache_size: int = 1024,
    ):
        super().__init__(backend, max_workers, cache_size)
        # (schema fingerprint, store id, compressed) -> (version, Typing):
        # the prior fixpoints that seed incremental revalidation.
        self._typings: "OrderedDict[Tuple, Tuple[int, Typing]]" = OrderedDict()
        # schema fingerprint -> persistent (type, signature) -> verdict memo;
        # a verdict is a pure function of its key, so carrying the memo
        # across revalidations of the same schema is sound and makes repeated
        # small-delta checks answer almost entirely from memory.
        self._signature_memos: Dict[str, Dict[Tuple, bool]] = {}
        # The short-held lock guards the bookkeeping dicts; the per-token
        # locks serialise computation per (schema, store, semantics) so
        # revalidations of unrelated stores run concurrently.
        self._revalidate_lock = threading.Lock()
        self._token_locks: Dict[Tuple, threading.Lock] = {}

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def compile(self, schema: Union[ShExSchema, CompiledSchema]) -> CompiledSchema:
        """Compile a schema through the shared per-process intern table."""
        return compile_schema(schema)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        graph: Graph,
        schema: Union[ShExSchema, CompiledSchema],
        compressed: bool = False,
        label: str = "",
    ) -> int:
        """Queue one job; returns its index within the next batch."""
        compiled = self.compile(schema)
        self._pending.append(
            ValidationJob(graph=graph, schema=compiled.schema, compressed=compressed, label=label)
        )
        return len(self._pending) - 1

    # ------------------------------------------------------------------ #
    # Store revalidation (incremental path)
    # ------------------------------------------------------------------ #
    def revalidate(
        self,
        store: GraphStore,
        schema: Union[ShExSchema, CompiledSchema],
        compressed: bool = False,
        label: str = "",
    ) -> RevalidationOutcome:
        """Validate the current version of a :class:`repro.graphs.store.GraphStore`.

        The engine keeps, per (schema, store), the node typing of the last
        version it validated.  A later call retypes only the delta's node
        region: :func:`repro.engine.fixpoint.retype_incremental` on the
        store's edge delta since that version (``mode "incremental"``, or
        ``"unchanged"`` when the delta touches no node).  Full typings — the
        first one, and the fallback for a region past
        :data:`repro.engine.fixpoint.MAX_AFFECTED_FRACTION` of the graph —
        type ``store.graph`` with
        :func:`repro.engine.fixpoint.maximal_typing_fixpoint` (``mode
        "full"``).  Results are also pushed through the regular
        fingerprint-keyed result cache, so a
        store whose content matches an earlier job — any store, any version —
        is answered without computing at all (``mode="cached"``); when the
        cached payload still holds its typing, that typing becomes the
        store's snapshot too.

        Revalidation always computes in the calling thread (a typing snapshot
        cannot usefully cross an executor boundary); the configured backend
        still applies to ``run_batch``.  From a held typing
        (:meth:`typed_version`) the call costs the region of the delta since
        that version, or one full typing of the store when the region passes
        the fraction above.  Concurrent revalidations of the
        *same* (schema, store, semantics) serialise on a per-token lock;
        unrelated stores and schemas proceed in parallel.  The caller must
        not mutate ``store`` while its revalidation runs (the daemon holds a
        per-store lock across ``update_graph``/``revalidate`` for this).
        """
        compiled = self.compile(schema)
        token = (compiled.fingerprint, store.store_id, compressed)
        with self._revalidate_lock:
            token_lock = self._token_locks.setdefault(token, threading.Lock())
            if len(self._token_locks) > 4 * self.TYPING_SNAPSHOTS:
                # Locks are tiny; prune strays for abandoned stores.
                self._token_locks = {token: token_lock}
        with token_lock:
            # Every stamp below uses the version read here, before typing: a
            # store mutated while the typing runs then leaves a snapshot that
            # is older than the store, so the next call retypes the change.
            version = store.version
            key = ("validation", compiled.fingerprint, store.fingerprint(), compressed)
            found, value = self.cache.get(key)
            if found:
                verdict, payload = value
                _M_REVALIDATIONS.labels(mode="cached").inc()
                rows = payload.get("typing")
                if isinstance(rows, TypingRows):
                    # The maximal typing of this very content: it seeds the
                    # next delta.  (An entry that a process-backend run_batch
                    # filled holds only the rows: TypingRows pickles as a
                    # tuple.)
                    self._remember(token, version, rows.typing)
                return RevalidationOutcome(
                    result=JobResult(
                        index=0, kind=self.kind, label=label, key=key,
                        verdict=verdict, payload=payload, seconds=0.0, cached=True,
                    ),
                    version=version,
                    mode="cached",
                )
            with self._revalidate_lock:
                snapshot = self._typings.get(token)
                memo = self._signature_memos.setdefault(compiled.fingerprint, {})
                if len(memo) > 65536:  # a runaway-signature backstop, not an LRU
                    memo.clear()
            stats = FixpointStats()
            with Stopwatch() as clock, _obs_tracing.span(
                "engine.revalidate", compressed=compressed, version=version
            ) as trace_span:
                if snapshot is not None and snapshot[0] == version:
                    typing = snapshot[1]
                    stats.mode = "unchanged"
                    route, reason = "snapshot", "typed at this version"
                elif snapshot is not None and snapshot[0] < version:
                    typing = retype_incremental(
                        store, snapshot[1], store.diff(snapshot[0], version),
                        compiled=compiled, compressed=compressed, stats=stats,
                        signature_memo=memo,
                    )
                    route, reason = _region_route(stats, store.graph.node_count)
                else:
                    typing = maximal_typing_fixpoint(
                        store.graph, compiled=compiled, compressed=compressed, stats=stats,
                        signature_memo=memo,
                    )
                    route, reason = "full", "no prior typing"
                verdict, payload = _payload_from_typing(store.graph, typing, compressed)
                trace_span.annotate(mode=stats.mode, route=route, reason=reason)
            _M_REVALIDATIONS.labels(mode=stats.mode).inc()
            _M_REVALIDATE_SECONDS.observe(clock.seconds)
            self._remember(token, version, typing)
            self.cache.put(key, (verdict, payload))
            return RevalidationOutcome(
                result=JobResult(
                    index=0, kind=self.kind, label=label, key=key,
                    verdict=verdict, payload=payload, seconds=clock.seconds,
                    cached=False,
                ),
                version=version,
                mode=stats.mode,
                frontier=stats.frontier,
                affected=stats.affected,
            )

    def typed_version(
        self,
        store: GraphStore,
        schema: Union[ShExSchema, CompiledSchema],
        compressed: bool = False,
    ) -> Optional[int]:
        """The version of ``store`` whose typing is held for ``(schema,
        compressed)``, or ``None`` when there is none; :meth:`revalidate`
        starts from that typing."""
        token = (self.compile(schema).fingerprint, store.store_id, compressed)
        with self._revalidate_lock:
            snapshot = self._typings.get(token)
        return None if snapshot is None else snapshot[0]

    def _remember(self, token: Tuple, version: int, typing: Typing) -> None:
        """Keep ``typing`` as the snapshot of ``token`` at ``version``."""
        with self._revalidate_lock:
            self._typings[token] = (version, typing)
            self._typings.move_to_end(token)
            while len(self._typings) > self.TYPING_SNAPSHOTS:
                self._typings.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Typing snapshot export / import (persistence support)
    # ------------------------------------------------------------------ #
    def export_typings(self, store: GraphStore) -> List[Dict[str, object]]:
        """The engine's typing snapshots bound to ``store``, for persistence.

        Each entry carries the schema fingerprint, semantics flag, snapshot
        version and the node-level :class:`Typing` — exactly what
        :meth:`seed_typing` needs to warm a fresh engine after a restart.
        Entries are plain objects; the persistence codec owns their JSON
        form.
        """
        with self._revalidate_lock:
            items = list(self._typings.items())
        return [
            {
                "schema": fingerprint,
                "compressed": compressed,
                "version": version,
                "typing": typing,
            }
            for (fingerprint, store_id, compressed), (version, typing) in items
            if store_id == store.store_id
        ]

    def seed_typing(
        self,
        store: GraphStore,
        schema: Union[ShExSchema, CompiledSchema],
        typing: Typing,
        version: int,
        compressed: bool = False,
        kind_typing: Optional[Typing] = None,
        epoch: int = -1,
    ) -> None:
        """Install a persisted typing snapshot for ``(schema, store)``.

        Called once per restored snapshot entry after a warm restart, before
        the first :meth:`revalidate` — which then runs incrementally from
        ``version`` instead of retyping the world.  ``version`` must not
        exceed the store's current version and must be reachable by
        :meth:`GraphStore.diff` (i.e. at or above its ``base_version``).
        ``kind_typing`` and ``epoch`` are deprecated: they are accepted and
        ignored (revalidation retypes node regions and needs no kind-level
        typing), and will be dropped.
        """
        if not store.base_version <= version <= store.version:
            raise ValueError(
                f"typing snapshot version {version} is outside the store's "
                f"history [{store.base_version}, {store.version}]"
            )
        compiled = self.compile(schema)
        self._remember((compiled.fingerprint, store.store_id, compressed), version, typing)

    # ------------------------------------------------------------------ #
    # BatchEngine hooks
    # ------------------------------------------------------------------ #
    def _coerce_job(self, job: JobLike) -> ValidationJob:
        if isinstance(job, ValidationJob):
            return job
        graph, schema = job
        return ValidationJob(graph=graph, schema=schema)

    def _key_job(self, job: ValidationJob, memo: Dict) -> Tuple:
        # Fingerprints are memoized by object identity for the duration of one
        # batch: a manifest validating one graph against fifty schemas (or one
        # schema against fifty graphs) hashes each object once, not per job.
        # The memo is per-batch on purpose — graphs are mutable, so identity
        # says nothing about content across run_batch calls.
        schema_key = ("schema", id(job.schema))
        schema_fp = memo.get(schema_key)
        if schema_fp is None:
            schema_fp = self.compile(job.schema).fingerprint
            memo[schema_key] = schema_fp
        graph_key = ("graph", id(job.graph))
        graph_fp = memo.get(graph_key)
        if graph_fp is None:
            graph_fp = graph_fingerprint(job.graph)
            memo[graph_key] = graph_fp
        return ("validation", schema_fp, graph_fp, job.compressed)

    _job_worker = staticmethod(_job_worker)
