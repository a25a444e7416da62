"""Executor backends: the serial, thread, and process engines must agree exactly."""

import pytest

from repro.engine.containment import ContainmentEngine
from repro.engine.executors import BACKENDS, get_executor
from repro.engine.validation import ValidationEngine
from repro.graphs.compressed import CompressedGraph
from repro.graphs.graph import Graph
from repro.schema.parser import parse_schema
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema
from repro.workloads.generators import random_shape_schema, sample_instance

import random


def _validation_jobs():
    """A deterministic mixed batch: valid, invalid, and compressed jobs."""
    schema = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
    good = Graph.from_triples(
        [("b1", "descr", "l1"), ("b1", "related", "b2"), ("b2", "descr", "l2")]
    )
    bad = Graph.from_triples([("b1", "related", "b2")])
    compressed = CompressedGraph()
    compressed.add_edge("b1", "descr", "l1")
    compressed.add_edge("b1", "related", "b2", "[3;3]")
    compressed.add_edge("b2", "descr", "l2")
    jobs = [(good, schema), (bad, schema), (bug_tracker_graph(), bug_tracker_schema())]
    rng = random.Random(7)
    generated = random_shape_schema(4, rng=rng)
    instance = sample_instance(generated, root_type="t0", rng=rng, max_nodes=12)
    if instance is not None:
        jobs.append((instance, generated))
    return jobs, [(compressed, schema)]


class TestExecutorPrimitives:
    def test_get_executor_by_name(self):
        for backend in BACKENDS:
            assert get_executor(backend).name == backend
        assert get_executor("serial", max_workers=4).max_workers == 1

    def test_get_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_executor("gpu")

    def test_submit_futures_resolve_in_submission_order(self):
        items = list(range(20))
        for backend in ("serial", "thread"):
            with get_executor(backend, max_workers=4) as executor:
                futures = [executor.submit(lambda x: x * x, item) for item in items]
                assert [future.result() for future in futures] == [x * x for x in items]

    def test_serial_runs_one_job_at_a_time_in_order(self):
        started = []
        with get_executor("serial") as executor:
            futures = [executor.submit(started.append, item) for item in range(10)]
            for future in futures:
                future.result()
        assert started == list(range(10))


class TestBackendParity:
    def test_validation_backends_byte_identical(self):
        plain, compressed = _validation_jobs()
        canonicals = {}
        for backend in BACKENDS:
            with ValidationEngine(backend=backend, max_workers=2) as engine:
                for graph, schema in plain:
                    engine.submit(graph, schema)
                for graph, schema in compressed:
                    engine.submit(graph, schema, compressed=True)
                canonicals[backend] = engine.run_batch().canonical()
        assert canonicals["serial"] == canonicals["thread"] == canonicals["process"]

    def test_containment_backends_byte_identical(self):
        old = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        new = parse_schema("Bug -> descr :: Lit?, related :: Bug*\nLit -> eps")
        rng = random.Random(11)
        extra_a = random_shape_schema(3, rng=rng, name="a")
        extra_b = random_shape_schema(3, rng=rng, name="b")
        pairs = [(old, new), (new, old), (old, old), (extra_a, extra_b)]
        canonicals = {}
        for backend in BACKENDS:
            with ContainmentEngine(backend=backend, max_workers=2) as engine:
                for left, right in pairs:
                    engine.submit(left, right, max_nodes=12, samples=5)
                canonicals[backend] = engine.run_batch().canonical()
        assert canonicals["serial"] == canonicals["thread"] == canonicals["process"]

    def test_process_backend_reuses_cache_across_batches(self):
        plain, _ = _validation_jobs()
        with ValidationEngine(backend="process", max_workers=2) as engine:
            first = engine.run_batch(plain)
            second = engine.run_batch(plain)
        assert second.jobs_from_cache == len(plain)
        assert first.verdicts() == second.verdicts()
