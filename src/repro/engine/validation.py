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

For single very large graphs, :func:`maximal_typing_chunked` additionally
parallelises *inside* one job: each refinement round partitions the node
frontier into chunks whose (node, type) checks are independent reads of the
current relation, evaluates the chunks through the executor, then applies all
removals at once (a Jacobi-style sweep — it reaches the same greatest fixpoint
as the sequential worklist because removals are monotone).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.base import BatchEngine
from repro.engine.compiled import (
    CompiledSchema,
    compile_schema,
    graph_fingerprint,
    schema_fingerprint,
)
from repro.engine.executors import SerialExecutor, chunked
from repro.engine.fixpoint import (
    FixpointStats,
    expand_kind_typing,
    kind_typing_for_view,
    kind_view,
    maximal_typing_store,
    retype_incremental,
    retype_kinds_incremental,
)
from repro.engine.jobs import JobResult, Stopwatch, ValidationJob
from repro.graphs.graph import Graph
from repro.graphs.store import GraphStore
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing
from repro.schema.shex import ShExSchema
from repro.schema.typing import Typing, predecessor_map, satisfies_type
from repro.schema.validation import (
    maximal_typing_compressed,
    satisfies_type_compressed,
    validate,
)

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


def _payload_from_typing(
    graph: Graph, typing: Typing, compressed: bool
) -> Tuple[str, Dict]:
    """The deterministic (verdict, payload) pair for a computed typing.

    Shared by the batch path and the store-revalidation path, so both produce
    byte-identical cache entries for the same (graph, schema, semantics).
    """
    untyped = tuple(
        sorted(
            (node for node in graph.nodes if not typing.types_of(node)),
            key=repr,
        )
    )
    verdict = "valid" if not untyped else "invalid"
    payload = {
        "untyped_nodes": tuple(repr(node) for node in untyped),
        "typing": tuple(
            (repr(node), tuple(sorted(typing.types_of(node))))
            for node in sorted(graph.nodes, key=repr)
        ),
        "compressed": compressed,
    }
    return verdict, payload


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
    ``mode`` one of ``cached`` / ``unchanged`` / ``incremental`` /
    ``kinds-incremental`` / ``full`` / ``kinds``, and for incremental runs
    ``frontier`` / ``affected`` are the delta-touched node (or kind) count
    and the size of the retyped region.
    """

    result: JobResult
    version: int
    mode: str
    frontier: int = 0
    affected: int = 0


def _process_worker(job: ValidationJob) -> Tuple[str, Dict]:
    """Module-level worker for the process backend (must be picklable).

    Receives the plain job; the schema is recompiled in the worker through the
    per-process intern table, so each distinct schema is compiled once per
    worker process rather than once per job.
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
        cache_dir: Optional[str] = None,
        cache_max_mb: Optional[float] = None,
        cache_ttl: Optional[float] = None,
    ):
        super().__init__(
            backend, max_workers, cache_size, cache_dir, cache_max_mb, cache_ttl
        )
        self._compiled: Dict[str, CompiledSchema] = {}
        # (schema fingerprint, store id, compressed) ->
        # (version, node Typing, kind Typing or None, view epoch):
        # the prior fixpoints that seed incremental revalidation.  The kind
        # typing (quotient-level, stable kind ids) is what makes the
        # compressed path incremental; the view epoch guards id reuse.
        self._typings: "OrderedDict[Tuple, Tuple[int, Typing, Optional[Typing], int]]" = (
            OrderedDict()
        )
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
        """Compile a schema, interning by content fingerprint within the engine."""
        if isinstance(schema, CompiledSchema):
            self._compiled.setdefault(schema.fingerprint, schema)
            return schema
        fingerprint = schema_fingerprint(schema)
        compiled = self._compiled.get(fingerprint)
        if compiled is None:
            compiled = CompiledSchema(schema)
            self._compiled[fingerprint] = compiled
        return compiled

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

        The engine keeps, per (schema, store), the typing of the last version
        it validated — node-level, plus the quotient's kind-level typing when
        the store's kind-compression view is active.  A later call re-derives
        only what the change can touch: with an active view, the composed
        :meth:`repro.graphs.store.GraphStore.view_delta` seeds
        :func:`repro.engine.fixpoint.retype_kinds_incremental` and only kinds
        reaching a changed quotient row are retyped (``mode
        "kinds-incremental"``); otherwise the edge delta seeds
        :func:`repro.engine.fixpoint.retype_incremental` on the plain graph.
        First encounters run a full typing through the view when present
        (:func:`repro.engine.fixpoint.maximal_typing_store`).  Results are
        also pushed through the regular fingerprint-keyed result cache, so a
        store whose content matches an earlier job — any store, any version —
        is answered without computing at all (``mode="cached"``).

        Revalidation always computes in the calling thread (a typing snapshot
        cannot usefully cross an executor boundary); the configured backend
        still applies to ``run_batch``.  Concurrent revalidations of the
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
                # Syncing the view also maintains the kind partition under
                # the delta (the store's cost, paid once per version); the
                # view serves the plain semantics only, and only the schemas
                # kind_view allows.
                view = kind_view(store, compiled) if not compressed else None
                kind_typing: Optional[Typing] = None
                if snapshot is not None and snapshot[0] == version:
                    typing = snapshot[1]
                    kind_typing = snapshot[2]
                    stats.mode = "unchanged"
                elif view is not None:
                    view_delta = None
                    if (
                        snapshot is not None
                        and snapshot[0] <= version
                        and snapshot[2] is not None
                        and snapshot[3] == store.view_epoch
                    ):
                        view_delta = store.view_delta(snapshot[0], version)
                    if view_delta is not None:
                        # The compressed path, end-to-end incremental: only
                        # kinds reaching a changed quotient row are retyped.
                        kind_typing = retype_kinds_incremental(
                            view, snapshot[2], view_delta, compiled=compiled,
                            stats=stats, signature_memo=memo,
                        )
                    else:
                        kind_typing = kind_typing_for_view(
                            view, compiled, stats=stats, signature_memo=memo
                        )
                    typing = expand_kind_typing(view, kind_typing)
                elif snapshot is not None and snapshot[0] <= version:
                    typing = retype_incremental(
                        store, snapshot[1], store.diff(snapshot[0], version),
                        compiled=compiled, compressed=compressed, stats=stats,
                        signature_memo=memo,
                    )
                else:
                    typing = maximal_typing_store(
                        store, compiled=compiled, compressed=compressed, stats=stats,
                        signature_memo=memo,
                    )
                verdict, payload = _payload_from_typing(store.graph, typing, compressed)
                trace_span.annotate(mode=stats.mode)
            _M_REVALIDATIONS.labels(mode=stats.mode).inc()
            _M_REVALIDATE_SECONDS.observe(clock.seconds)
            with self._revalidate_lock:
                self._typings[token] = (
                    version, typing, kind_typing, store.view_epoch
                )
                self._typings.move_to_end(token)
                while len(self._typings) > self.TYPING_SNAPSHOTS:
                    self._typings.popitem(last=False)
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

    # ------------------------------------------------------------------ #
    # Typing snapshot export / import (persistence support)
    # ------------------------------------------------------------------ #
    def export_typings(self, store: GraphStore) -> List[Dict[str, object]]:
        """The engine's typing snapshots bound to ``store``, for persistence.

        Each entry carries the schema fingerprint, semantics flag, snapshot
        version, the node-level :class:`Typing`, the kind-level typing (or
        ``None``), and the partition epoch the kind typing was keyed under —
        exactly what :meth:`seed_typing` needs to warm a fresh engine after
        a restart.  Entries are plain objects; the persistence codec owns
        their JSON form.
        """
        with self._revalidate_lock:
            items = list(self._typings.items())
        return [
            {
                "schema": fingerprint,
                "compressed": compressed,
                "version": version,
                "typing": typing,
                "kind_typing": kind_typing,
                "epoch": epoch,
            }
            for (fingerprint, store_id, compressed), (
                version,
                typing,
                kind_typing,
                epoch,
            ) in items
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
        """
        if not store.base_version <= version <= store.version:
            raise ValueError(
                f"typing snapshot version {version} is outside the store's "
                f"history [{store.base_version}, {store.version}]"
            )
        compiled = self.compile(schema)
        token = (compiled.fingerprint, store.store_id, compressed)
        with self._revalidate_lock:
            self._typings[token] = (version, typing, kind_typing, epoch)
            self._typings.move_to_end(token)
            while len(self._typings) > self.TYPING_SNAPSHOTS:
                self._typings.popitem(last=False)

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

    def _execute_single(self, job: ValidationJob) -> Tuple[str, Dict]:
        return _validation_payload(job, self.compile(job.schema))

    _job_worker = staticmethod(_process_worker)


# --------------------------------------------------------------------------- #
# Intra-job parallelism: chunked frontier refinement
# --------------------------------------------------------------------------- #
def maximal_typing_chunked(
    graph: Graph,
    schema: ShExSchema,
    compiled: Optional[CompiledSchema] = None,
    executor=None,
    chunk_size: int = 64,
    compressed: bool = False,
) -> Typing:
    """Maximal typing by synchronous rounds over a chunked node frontier.

    Each round checks every (node, type) pair of the current frontier against a
    *frozen* snapshot of the relation — chunks only read shared state, so they
    can run on the serial or thread executor — then applies all discovered
    removals at once and builds the next frontier from the predecessors of the
    shrunk nodes.  This Jacobi-style sweep removes (possibly) fewer pairs per
    round than the sequential worklist but converges to the same greatest
    fixpoint.

    The process backend is rejected: chunk work closes over the shared typing
    relation, which cannot cross a process boundary (use job-level parallelism
    through :class:`ValidationEngine` instead).
    """
    if executor is not None and getattr(executor, "name", "") == "process":
        raise ValueError(
            "maximal_typing_chunked requires a shared-memory executor "
            "(serial or thread); use ValidationEngine for process-level parallelism"
        )
    compiled = compile_schema(schema) if compiled is None else compiled
    artifacts = {
        type_name: compiled.type_artifact(type_name) for type_name in schema.types
    }
    if compressed:
        def check(node, type_name, current) -> bool:
            return satisfies_type_compressed(
                graph, node, type_name, schema, current, artifact=artifacts[type_name]
            )
    else:
        def check(node, type_name, current) -> bool:
            return satisfies_type(
                graph, node, type_name, schema, current, artifact=artifacts[type_name]
            )

    executor = executor or SerialExecutor()
    current = {node: set(schema.types) for node in graph.nodes}
    predecessors = predecessor_map(graph)
    frontier = sorted(graph.nodes, key=repr)
    while frontier:
        def check_chunk(nodes) -> List[Tuple[object, str]]:
            removals = []
            for node in nodes:
                for type_name in sorted(current[node]):
                    if not check(node, type_name, current):
                        removals.append((node, type_name))
            return removals

        chunk_results = executor.map_ordered(check_chunk, chunked(frontier, chunk_size))
        next_frontier = set()
        for node, type_name in (pair for chunk in chunk_results for pair in chunk):
            if type_name in current[node]:
                current[node].discard(type_name)
                next_frontier |= predecessors[node]
        frontier = sorted(next_frontier, key=repr)
    return Typing(current)
