"""The shared job lifecycle behind the validation and containment engines.

Every job follows the same lifecycle — key it by content fingerprints, answer
a repeat from the result cache, dedup identical keys, run the miss on the
executor backend, fill the cache, and assemble a
:class:`repro.engine.jobs.JobResult`.  :class:`BatchEngine` owns each step
once; its synchronous ``run_batch`` and the asyncio front-end
(:mod:`repro.serve.async_engine`) both drive those steps.  Subclasses provide
the job-specific parts: coercion, key derivation, and the module-level worker.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import faults as _faults
from repro.engine.cache import LRUCache
from repro.engine.executors import get_executor
from repro.engine.jobs import EngineReport, JobResult, Stopwatch
from repro.obs import metrics as _obs_metrics
from repro.obs import tracing as _obs_tracing

_REGISTRY = _obs_metrics.get_registry()
_M_BATCHES = _REGISTRY.counter(
    "repro_engine_batches_total",
    "run_batch invocations, by job kind and backend.",
    labels=("kind", "backend"),
)
_M_BATCH_SECONDS = _REGISTRY.histogram(
    "repro_engine_batch_seconds",
    "Wall time of one run_batch call, by job kind and backend.",
    labels=("kind", "backend"),
)
_M_JOBS = _REGISTRY.counter(
    "repro_engine_jobs_total",
    "Jobs answered, by kind and outcome (computed / cached / deduped).",
    labels=("kind", "outcome"),
)
_M_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_engine_queue_wait_seconds",
    "Dispatch-to-start wait of one miss in the executor, by backend.",
    labels=("backend",),
)
_M_EXECUTE = _REGISTRY.histogram(
    "repro_engine_execute_seconds",
    "Pure execution time of one miss (queue wait excluded), by backend.",
    labels=("backend",),
)

#: What one miss hands back from the executor:
#: ``(verdict, payload, queue wait seconds, execute seconds)``.
Done = Tuple[str, Dict, float, float]


def _run_miss(worker: Callable, job, dispatched: float) -> Done:
    """Run one cache miss on an executor worker, timing wait and execution.

    Module-level, so the process backend can pickle it.  ``dispatched`` is
    the submitter's :func:`time.perf_counter` reading; the monotonic clock is
    shared by every process on the machine, so the wait is measured across
    the process boundary too.
    """
    started = time.perf_counter()
    # Stands in for a worker dying mid-job: the injected exception
    # propagates through the future exactly like a real crash.
    _faults.maybe_fail("executor")
    verdict, payload = worker(job)
    return verdict, payload, max(started - dispatched, 0.0), time.perf_counter() - started


class BatchEngine:
    """The per-job steps and the ``run_batch`` driver shared by both engines.

    Subclasses set :attr:`kind` and implement:

    * ``_coerce_job(job)`` — accept the convenience tuple forms;
    * ``_key_job(job, memo)`` — the cache key (content fingerprints); ``memo``
      is a per-batch scratch dict for amortising repeated hashing;
    * ``_job_worker`` — a module-level (hence picklable) function running one
      job to a ``(verdict, payload)`` pair, on every backend.

    The steps of one job are :meth:`_cached`, :meth:`_submit`,
    :meth:`_finish`, :meth:`_result` and :meth:`_count`.
    """

    kind = "job"

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        cache_size: int = 1024,
    ):
        self.backend = backend
        self._executor = get_executor(backend, max_workers)
        self.cache = LRUCache(cache_size)
        self._pending: List = []

    # -- subclass hooks ------------------------------------------------------
    def _coerce_job(self, job):
        raise NotImplementedError

    def _key_job(self, job, memo: Dict) -> Tuple:
        raise NotImplementedError

    #: Module-level worker with the ``job -> (verdict, payload)`` contract.
    #: Subclasses assign it with ``_job_worker = staticmethod(_job_worker)``.
    _job_worker = None

    # -- the steps of one job ------------------------------------------------
    def _result(self, job, index, key, verdict, payload, seconds, cached) -> JobResult:
        return JobResult(index, self.kind, job.label, key, verdict, payload, seconds, cached)

    def _cached(self, job, index: int, key: Tuple) -> Optional[JobResult]:
        """The cached result of ``key``, or ``None`` on a miss."""
        found, value = self.cache.get(key)
        if not found:
            return None
        verdict, payload = value
        return self._result(job, index, key, verdict, payload, 0.0, True)

    def _submit(self, job):
        """Run one miss on the executor; the future resolves to a :data:`Done`."""
        return self._executor.submit(_run_miss, self._job_worker, job, time.perf_counter())

    def _finish(self, key: Tuple, done: Done) -> Tuple[str, Dict, float]:
        """Record a computed miss and cache it; returns ``(verdict, payload, seconds)``."""
        verdict, payload, wait, seconds = done
        _M_QUEUE_WAIT.labels(backend=self.backend).observe(wait)
        _M_EXECUTE.labels(backend=self.backend).observe(seconds)
        self.cache.put(key, (verdict, payload))
        return verdict, payload, seconds

    def _count(self, outcome: str, jobs: int = 1) -> None:
        """Count ``jobs`` answered with ``outcome`` (computed / cached / deduped)."""
        if _obs_metrics.STATE.enabled:
            _M_JOBS.labels(kind=self.kind, outcome=outcome).inc(jobs)

    def _count_batch(self, backend: str, seconds: float) -> None:
        """Count one batch run on ``backend`` and its wall time."""
        if _obs_metrics.STATE.enabled:
            _M_BATCHES.labels(kind=self.kind, backend=backend).inc()
            _M_BATCH_SECONDS.labels(kind=self.kind, backend=backend).observe(seconds)

    # -- the synchronous driver ----------------------------------------------
    def run_batch(self, jobs: Optional[Iterable] = None) -> EngineReport:
        """Execute the given jobs (or everything queued via ``submit``).

        Results come back in submission order.  Jobs whose fingerprint key was
        seen before are answered from the cache; duplicate keys within one
        batch are computed once and shared; the rest fan out to the executor.
        """
        if jobs is None:
            batch = self._pending
            self._pending = []
        else:
            batch = [self._coerce_job(job) for job in jobs]

        with Stopwatch() as clock, _obs_tracing.span(
            "engine.run_batch", kind=self.kind, backend=self.backend, jobs=len(batch)
        ):
            memo: Dict = {}
            keyed = [(job, self._key_job(job, memo)) for job in batch]

            results: List[Optional[JobResult]] = [None] * len(keyed)
            misses: List[Tuple] = []
            miss_indices: Dict[Tuple, List[int]] = {}
            for index, (job, key) in enumerate(keyed):
                if key in miss_indices:
                    miss_indices[key].append(index)
                    continue
                results[index] = self._cached(job, index, key)
                if results[index] is None:
                    misses.append((job, key))
                    miss_indices[key] = [index]

            futures = [self._submit(job) for job, _key in misses]
            try:
                outcomes = [future.result() for future in futures]
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
            for (_job, key), done in zip(misses, outcomes):
                verdict, payload, seconds = self._finish(key, done)
                for position, index in enumerate(miss_indices[key]):
                    results[index] = self._result(
                        keyed[index][0], index, key, verdict, payload,
                        seconds if position == 0 else 0.0, position > 0,
                    )

        if batch:
            self._count_batch(self.backend, clock.seconds)
            computed = len(misses)
            deduped = sum(len(indices) - 1 for indices in miss_indices.values())
            cached = len(batch) - computed - deduped
            self._count("computed", computed)
            if cached:
                self._count("cached", cached)
            if deduped:
                self._count("deduped", deduped)
        return EngineReport(
            results=tuple(result for result in results if result is not None),
            backend=self.backend,
            seconds=clock.seconds,
            cache=self.cache.stats(),
        )

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut down the executor backend (idempotent; also via ``with``)."""
        self._executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
