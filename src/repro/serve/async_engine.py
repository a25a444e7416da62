"""Asyncio front-end over the batch engines: results stream as they finish.

The synchronous engines (:class:`repro.engine.ValidationEngine`,
:class:`repro.engine.ContainmentEngine`) are batch-shaped: ``run_batch``
blocks until the *slowest* job is done and then returns everything at once.
This module removes that barrier.  :class:`AsyncValidationEngine` and
:class:`AsyncContainmentEngine` wrap a sync engine and drive the same
per-job steps as its ``run_batch`` (:class:`repro.engine.base.BatchEngine`):
a cache miss goes to the engine's executor through its one ``submit`` call
and is awaited with :func:`asyncio.wrap_future`, on every backend.

* ``await engine.submit(...)`` — run one job and get its
  :class:`repro.engine.jobs.JobResult`;
* ``async for result in engine.stream_batch(jobs)`` — results are yielded in
  *completion* order, so a fast job is delivered while slow neighbours are
  still running (each result carries its submission ``index``);
* ``await engine.run_batch(jobs)`` — convenience barrier returning an
  ordered :class:`repro.engine.jobs.EngineReport`, like the sync API.

The wrapper shares the wrapped engine's result cache, executor and metrics,
and adds *in-flight deduplication*: two concurrent submissions of the same
fingerprint key compute once and share the outcome.  This is what the
long-lived daemon (:mod:`repro.serve.daemon`) runs on.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import AsyncIterator, Dict, Iterable, List, Optional, Tuple

from repro.engine.containment import ContainmentEngine
from repro.engine.jobs import (
    ContainmentJob,
    EngineReport,
    JobResult,
    Stopwatch,
    ValidationJob,
)
from repro.engine.validation import ValidationEngine


async def run_in_worker(fn, *args):
    """Run ``fn(*args)`` on the loop's default thread pool and await it.

    The caller's :mod:`contextvars` context rides along (``run_in_executor``
    does not propagate it), so spans opened inside ``fn`` attach to the
    active trace.  A worker thread cannot be interrupted, so cancelling the
    awaiting task — a request deadline — does not return until ``fn`` has:
    locks the caller holds stay held while the worker still uses what they
    guard.  The cancellation is re-raised afterwards.
    """
    context = contextvars.copy_context()
    future = asyncio.get_running_loop().run_in_executor(
        None, lambda: context.run(fn, *args)
    )
    try:
        return await asyncio.shield(future)
    except asyncio.CancelledError:
        while not future.done():
            try:
                await asyncio.wait([future])
            except asyncio.CancelledError:
                continue
        if not future.cancelled():
            future.exception()  # retrieved: the request already failed
        raise


class AsyncBatchEngine:
    """Shared asyncio plumbing over a synchronous :class:`BatchEngine`.

    A job is keyed, looked up in the cache, deduplicated against the
    computations in flight, and otherwise submitted to the wrapped engine's
    executor — its worker pool, or the one thread of ``serial`` — so the
    async layer adds concurrency *between* awaiting callers without a pool
    of its own.

    Subclasses provide ``_make_engine`` plus job coercion/submission sugar.
    """

    def __init__(self, engine=None, **engine_options):
        self.engine = engine if engine is not None else self._make_engine(**engine_options)
        self._owns_engine = engine is None
        # key -> the asyncio.Task computing that key.  Consumers await it
        # through asyncio.shield, so cancelling one consumer (a dropped
        # connection, an abandoned stream) never poisons the shared
        # computation for the others.
        self._inflight: Dict[Tuple, asyncio.Task] = {}

    # -- subclass hooks ------------------------------------------------------
    @staticmethod
    def _make_engine(**engine_options):
        raise NotImplementedError

    # -- dispatch ------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The wrapped engine's backend name (``serial``/``thread``/``process``)."""
        return self.engine.backend

    async def _compute(self, job, key: Tuple) -> Tuple[str, Dict, float]:
        """The shared per-key computation: run the miss, fill the cache."""
        try:
            done = await asyncio.wrap_future(self.engine._submit(job))
            return self.engine._finish(key, done)
        finally:
            self._inflight.pop(key, None)

    async def _run_job(self, job, index: int = 0, memo: Optional[Dict] = None) -> JobResult:
        """Key, cache-check, dedup, and (if needed) compute one job.

        ``memo`` may hold fingerprints the caller already knows, in the
        engine's ``_key_job`` memo form.
        """
        engine = self.engine
        key = engine._key_job(job, {} if memo is None else memo)
        result = engine._cached(job, index, key)
        if result is not None:
            engine._count("cached")
            return result

        task = self._inflight.get(key)
        shared = task is not None
        if task is None:
            task = asyncio.ensure_future(self._compute(job, key))
            # Retrieve the exception even if every consumer was cancelled,
            # so an orphaned failure does not warn at garbage collection.
            task.add_done_callback(lambda t: t.cancelled() or t.exception())
            self._inflight[key] = task
        # shield: cancelling THIS consumer must not cancel the shared task —
        # other submissions of the same key may be awaiting it.
        verdict, payload, seconds = await asyncio.shield(task)
        engine._count("deduped" if shared else "computed")
        return engine._result(
            job, index, key, verdict, payload, 0.0 if shared else seconds, shared
        )

    # -- public API ----------------------------------------------------------
    async def stream_batch(self, jobs: Iterable) -> AsyncIterator[JobResult]:
        """Yield one :class:`JobResult` per job, in *completion* order.

        Every result carries the submission ``index`` of its job, so callers
        can reassemble submission order if they need it.  The first result is
        available as soon as the fastest job (or any cache hit) finishes —
        there is no batch barrier.
        """
        batch = [self.engine._coerce_job(job) for job in jobs]
        tasks = [
            asyncio.ensure_future(self._run_job(job, index))
            for index, job in enumerate(batch)
        ]
        try:
            with Stopwatch() as clock:
                for completed in asyncio.as_completed(tasks):
                    yield await completed
        finally:
            for task in tasks:
                task.cancel()
            self.engine._count_batch(f"async+{self.backend}", clock.seconds)

    async def run_batch(self, jobs: Iterable) -> EngineReport:
        """Await every job and return an ordered :class:`EngineReport`.

        Equivalent to the sync ``run_batch`` (same verdicts, same payloads),
        with the report's backend tagged ``async+<backend>``.
        """
        results: List[JobResult] = []
        with Stopwatch() as clock:
            async for result in self.stream_batch(jobs):
                results.append(result)
        results.sort(key=lambda result: result.index)
        return EngineReport(
            results=tuple(results),
            backend=f"async+{self.backend}",
            seconds=clock.seconds,
            cache=self.engine.cache.stats(),
        )

    # -- lifecycle -----------------------------------------------------------
    async def aclose(self) -> None:
        """Release the wrapped engine, if owned.

        Waits for any still-in-flight shared computations first, so nothing
        is left running against a closed executor.
        """
        pending = list(self._inflight.values())
        self._inflight.clear()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._owns_engine:
            self.engine.close()

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info) -> bool:
        await self.aclose()
        return False


class AsyncValidationEngine(AsyncBatchEngine):
    """Asyncio wrapper around :class:`repro.engine.ValidationEngine`.

    Usage::

        async with AsyncValidationEngine(backend="thread", max_workers=4) as engine:
            result = await engine.submit(graph, schema)
            async for result in engine.stream_batch([(g, schema) for g in graphs]):
                print(result.index, result.verdict, result.cached)

    An existing sync engine may be passed as the first argument to share its
    cache and compiled-schema table (the daemon does this); otherwise one is
    created from the keyword options and closed with the wrapper.
    """

    @staticmethod
    def _make_engine(**engine_options) -> ValidationEngine:
        return ValidationEngine(**engine_options)

    async def submit(
        self,
        graph,
        schema,
        compressed: bool = False,
        label: str = "",
        fingerprint: Optional[str] = None,
    ) -> JobResult:
        """Validate one graph against one schema; awaits the result.

        The job is keyed by the compiled schema's fingerprint, and by
        ``fingerprint`` — the graph's content fingerprint — when the caller
        knows it, so a cache hit hashes neither.
        """
        compiled = self.engine.compile(schema)
        job = ValidationJob(
            graph=graph, schema=compiled.schema, compressed=compressed, label=label
        )
        memo = {("schema", id(job.schema)): compiled.fingerprint}
        if fingerprint is not None:
            memo[("graph", id(graph))] = fingerprint
        return await self._run_job(job, memo=memo)


class AsyncContainmentEngine(AsyncBatchEngine):
    """Asyncio wrapper around :class:`repro.engine.ContainmentEngine`.

    ``submit`` awaits one ``L(left) ⊆ L(right)`` check; ``stream_batch``
    accepts :class:`repro.engine.jobs.ContainmentJob` instances or
    ``(left, right)`` schema pairs.
    """

    @staticmethod
    def _make_engine(**engine_options) -> ContainmentEngine:
        return ContainmentEngine(**engine_options)

    async def submit(self, left, right, label: str = "", **options) -> JobResult:
        """Check ``L(left) ⊆ L(right)``; extra keywords tune the search."""
        left_compiled = self.engine.compile(left)
        right_compiled = self.engine.compile(right)
        job = ContainmentJob.make(
            left_compiled.schema, right_compiled.schema, label=label, **options
        )
        return await self._run_job(job)
