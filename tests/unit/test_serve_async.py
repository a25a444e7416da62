"""Tests for the asyncio front-end: parity, streaming, caching, dedup."""

import asyncio
import threading
import time

import pytest

from repro.engine.validation import ValidationEngine
import repro.engine.validation as engine_validation
from repro.graphs.graph import Graph
from repro.schema.parser import parse_schema
from repro.serve.async_engine import AsyncContainmentEngine, AsyncValidationEngine
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema


@pytest.fixture
def schema():
    return parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")


@pytest.fixture
def good_graph():
    return Graph.from_triples(
        [("b1", "descr", "l1"), ("b1", "related", "b2"), ("b2", "descr", "l2")]
    )


@pytest.fixture
def bad_graph():
    return Graph.from_triples([("b1", "related", "b2")])


def thirty_job_mix(schema, good_graph, bad_graph):
    """A 30-job mix over several graphs/schemas with duplicates, as manifests have."""
    other_schema = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
    chain = Graph.from_triples(
        [(f"b{i}", "related", f"b{i+1}") for i in range(5)]
        + [(f"b{i}", "descr", f"l{i}") for i in range(6)]
    )
    pool = [
        (good_graph, schema),
        (bad_graph, schema),
        (chain, schema),
        (bug_tracker_graph(), bug_tracker_schema()),
        (good_graph, other_schema),
        (bad_graph, other_schema),
    ]
    return [pool[index % len(pool)] for index in range(30)]


class TestAsyncParity:
    def test_matches_serial_run_batch_on_30_jobs(self, schema, good_graph, bad_graph):
        jobs = thirty_job_mix(schema, good_graph, bad_graph)
        with ValidationEngine() as engine:
            reference = engine.run_batch(jobs)

        async def run():
            async with AsyncValidationEngine(backend="thread", max_workers=4) as engine:
                return await engine.run_batch(jobs)

        report = asyncio.run(run())
        assert report.verdicts() == reference.verdicts()
        assert report.canonical() == reference.canonical()
        assert len(report.results) == 30

    def test_async_serial_backend_matches_too(self, schema, good_graph, bad_graph):
        jobs = thirty_job_mix(schema, good_graph, bad_graph)
        with ValidationEngine() as engine:
            reference = engine.run_batch(jobs)

        async def run():
            async with AsyncValidationEngine() as engine:
                return await engine.run_batch(jobs)

        report = asyncio.run(run())
        assert report.canonical() == reference.canonical()
        assert report.backend == "async+serial"


class TestStreaming:
    def test_first_result_lands_before_slowest_job_finishes(
        self, schema, good_graph, bad_graph, monkeypatch
    ):
        """stream_batch must yield early results while a slow job still runs."""
        release_slow = threading.Event()
        real_payload = engine_validation._validation_payload

        def gated_payload(job, compiled):
            if job.label == "slow":
                assert release_slow.wait(10), "slow job was never released"
            return real_payload(job, compiled)

        monkeypatch.setattr(engine_validation, "_validation_payload", gated_payload)

        from repro.engine.jobs import ValidationJob

        jobs = [
            ValidationJob(graph=bad_graph, schema=schema, label="slow"),
            ValidationJob(graph=good_graph, schema=schema, label="fast"),
        ]

        async def run():
            order = []
            async with AsyncValidationEngine(backend="thread", max_workers=2) as engine:
                async for result in engine.stream_batch(jobs):
                    order.append(result.label)
                    if result.label == "fast":
                        # The fast job arrived while the slow one is still
                        # blocked — the stream has no batch barrier.
                        assert not release_slow.is_set()
                        release_slow.set()
            return order

        order = asyncio.run(run())
        assert order == ["fast", "slow"]

    def test_results_carry_submission_indices(self, schema, good_graph, bad_graph):
        async def run():
            seen = {}
            async with AsyncValidationEngine(backend="thread", max_workers=2) as engine:
                async for result in engine.stream_batch(
                    [(good_graph, schema), (bad_graph, schema)]
                ):
                    seen[result.index] = result.verdict
            return seen

        assert asyncio.run(run()) == {0: "valid", 1: "invalid"}


class TestAsyncCaching:
    def test_submit_twice_hits_cache(self, schema, good_graph):
        async def run():
            async with AsyncValidationEngine() as engine:
                first = await engine.submit(good_graph, schema)
                second = await engine.submit(good_graph, schema)
                return first, second

        first, second = asyncio.run(run())
        assert (first.cached, second.cached) == (False, True)
        assert first.verdict == second.verdict == "valid"

    def test_concurrent_identical_jobs_compute_once(self, schema, good_graph, monkeypatch):
        calls = []
        real_payload = engine_validation._validation_payload

        def counting_payload(job, compiled):
            calls.append(job.label)
            time.sleep(0.05)  # widen the in-flight window
            return real_payload(job, compiled)

        monkeypatch.setattr(engine_validation, "_validation_payload", counting_payload)

        async def run():
            async with AsyncValidationEngine(backend="thread", max_workers=4) as engine:
                results = await asyncio.gather(
                    *(engine.submit(good_graph, schema) for _ in range(5))
                )
            return results

        results = asyncio.run(run())
        assert len(calls) == 1  # in-flight dedup: one real computation
        assert {result.verdict for result in results} == {"valid"}
        assert sum(1 for result in results if not result.cached) == 1

    def test_cancelling_one_consumer_does_not_poison_shared_job(
        self, schema, good_graph, monkeypatch
    ):
        """A dropped client must not cancel the computation other clients share."""
        release = threading.Event()
        real_payload = engine_validation._validation_payload

        def gated_payload(job, compiled):
            assert release.wait(10)
            return real_payload(job, compiled)

        monkeypatch.setattr(engine_validation, "_validation_payload", gated_payload)

        async def run():
            async with AsyncValidationEngine(backend="thread", max_workers=2) as engine:
                first = asyncio.ensure_future(engine.submit(good_graph, schema))
                second = asyncio.ensure_future(engine.submit(good_graph, schema))
                await asyncio.sleep(0.05)  # both are waiting on the shared job
                first.cancel()  # client A disconnects mid-request
                release.set()
                result = await second  # client B still gets its answer
                with pytest.raises(asyncio.CancelledError):
                    await first
                return result

        result = asyncio.run(run())
        assert result.verdict == "valid"

    def test_shares_cache_with_wrapped_sync_engine(self, schema, good_graph):
        with ValidationEngine() as sync_engine:
            sync_engine.run_batch([(good_graph, schema)])

            async def run():
                async with AsyncValidationEngine(sync_engine) as engine:
                    return await engine.submit(good_graph, schema)

            result = asyncio.run(run())
            assert result.cached  # answered from the sync engine's cache


class TestAsyncContainment:
    def test_submit_and_cache(self):
        old = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")

        async def run():
            async with AsyncContainmentEngine() as engine:
                forward = await engine.submit(old, new)
                backward = await engine.submit(new, old)
                repeat = await engine.submit(old, new)
            return forward, backward, repeat

        forward, backward, repeat = asyncio.run(run())
        assert forward.verdict == "contained"
        assert backward.verdict == "not-contained"
        assert repeat.cached and repeat.verdict == "contained"

    def test_stream_batch_pairs(self):
        old = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")

        async def run():
            async with AsyncContainmentEngine(backend="thread", max_workers=2) as engine:
                report = await engine.run_batch([(old, new), (new, old), (old, old)])
            return report

        report = asyncio.run(run())
        assert report.verdicts() == ("contained", "not-contained", "contained")


def _histogram_count(name, backend):
    from repro.obs import metrics as obs_metrics

    instrument = obs_metrics.get_registry().get(name)
    return 0 if instrument is None else instrument.labels(backend=backend).count


@pytest.fixture
def obs_enabled():
    from repro.obs import metrics as obs_metrics

    before = obs_metrics.STATE.enabled
    obs_metrics.enable()
    yield
    obs_metrics.STATE.enabled = before


class TestAsyncExecutorPath:
    """The daemon's submit path runs the same miss step as the sync driver."""

    FAMILIES = ("repro_engine_execute_seconds", "repro_engine_queue_wait_seconds")

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_a_miss_observes_execute_and_queue_wait(
        self, schema, good_graph, obs_enabled, backend
    ):
        before = [_histogram_count(name, backend) for name in self.FAMILIES]

        async def run():
            async with AsyncValidationEngine(backend=backend) as engine:
                return await engine.submit(good_graph, schema)

        assert not asyncio.run(run()).cached
        after = [_histogram_count(name, backend) for name in self.FAMILIES]
        assert [b - a for a, b in zip(before, after)] == [1, 1]

    def test_executor_fault_surfaces_and_is_not_cached(self, schema, good_graph):
        from repro import faults
        from repro.faults import InjectedFault

        async def run():
            async with AsyncValidationEngine(backend="thread") as engine:
                faults.install("executor=1.0", seed=0)
                try:
                    with pytest.raises(InjectedFault):
                        await engine.submit(good_graph, schema)
                finally:
                    faults.uninstall()
                return await engine.submit(good_graph, schema)

        retry = asyncio.run(run())
        assert retry.verdict == "valid" and not retry.cached

    def test_process_backend_times_each_miss(self, obs_enabled):
        jobs = [
            (bug_tracker_graph(), bug_tracker_schema()),
            (Graph.from_triples([("b1", "related", "b2")]), bug_tracker_schema()),
            (Graph.from_triples([("x", "descr", "y")]), bug_tracker_schema()),
        ]
        before = _histogram_count("repro_engine_queue_wait_seconds", "process")
        with ValidationEngine(backend="process", max_workers=2) as engine:
            report = engine.run_batch(jobs)
        after = _histogram_count("repro_engine_queue_wait_seconds", "process")
        assert after - before == len(jobs)
        seconds = [result.seconds for result in report.results]
        # Each job's own execute time, not one pool-averaged figure.
        assert all(value > 0.0 for value in seconds)
        assert len(set(seconds)) == len(jobs)
