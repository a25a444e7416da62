"""Tests for the in-memory result cache, its metrics, and where verdicts live.

:class:`repro.engine.cache.LRUCache` is the one result cache of the engines
and the daemon.  Its entries live as long as their process: reuse across CLI
runs goes through a running daemon (``batch --connect``), and a restarted
engine or daemon recomputes.
"""

from __future__ import annotations

import threading

import pytest

from repro.cli import main as containment_main
from repro.engine.cache import CacheStats, LRUCache, cache_collector
from repro.engine.validation import ValidationEngine
from repro.graphs.graph import Graph
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.workloads.bugtracker import bug_tracker_graph, bug_tracker_schema

SCHEMA_TEXT = "Bug -> descr :: Lit, related :: Bug*\nLit -> eps\n"
GOOD_TURTLE = (
    "@prefix ex: <http://example.org/> .\n"
    "ex:b1 ex:descr ex:l1 ; ex:related ex:b2 .\n"
    "ex:b2 ex:descr ex:l2 .\n"
)


class TestLRUCacheContract:
    def test_put_overwrites_and_refreshes_without_eviction(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # overwrite: "a" is now the most recent
        cache.put("c", 3)       # so "b" is the one evicted
        assert cache.get("a") == (True, 10)
        assert "b" not in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_size_never_exceeds_bound_and_every_overflow_counts(self):
        cache = LRUCache(max_size=3)
        for index in range(10):
            cache.put(index, index)
        stats = cache.stats()
        assert len(cache) == stats.size == 3
        assert stats.evictions == 7
        assert [key for key in range(10) if key in cache] == [7, 8, 9]

    def test_clear_drops_entries_but_keeps_lifetime_counters(self):
        cache = LRUCache(max_size=1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.put("b", 2)
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0 and cache.get("b") == (False, None)
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)

    def test_values_are_returned_as_stored(self):
        cache = LRUCache(max_size=4)
        payload = ("valid", {"untyped_nodes": ("'b1'",), "typing": ((0, 1),)})
        cache.put(("schema-fp", "graph-fp"), payload)
        found, value = cache.get(("schema-fp", "graph-fp"))
        assert found and value is payload
        assert isinstance(value[1]["typing"], tuple)

    def test_membership_is_neither_a_lookup_nor_a_refresh(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "zzz" not in cache
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0
        cache.put("c", 3)       # "a" was not refreshed by `in`: it goes
        assert "a" not in cache

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_non_positive_bound_counts_misses_and_stores_nothing(self, max_size):
        cache = LRUCache(max_size=max_size)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)
        stats = cache.stats()
        assert stats.misses == 1 and stats.size == 0 and stats.evictions == 0

    def test_stats_of_an_unused_cache(self):
        stats = LRUCache(max_size=5).stats()
        assert stats == CacheStats(hits=0, misses=0, evictions=0, size=0, max_size=5)
        assert stats.hit_rate == 0.0
        assert str(stats) == "hits=0 misses=0 evictions=0 size=0/5 hit-rate=0.0%"

    def test_concurrent_puts_and_gets_stay_bounded_and_counted(self):
        """Writers overflow the bound while readers look up the same keys."""
        cache = LRUCache(max_size=4)
        keys = list(range(16))
        lookups_per_reader = 30 * len(keys)
        errors = []

        def write_loop():
            try:
                for _ in range(30):
                    for key in keys:
                        cache.put(key, ("payload", key))
            except Exception as exc:  # noqa: BLE001 — the assertion below reports
                errors.append(exc)

        def read_loop():
            try:
                for _ in range(30):
                    for key in keys:
                        found, value = cache.get(key)
                        if found:
                            assert value == ("payload", key)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write_loop) for _ in range(2)]
        threads += [threading.Thread(target=read_loop) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        assert stats.hits + stats.misses == 3 * lookups_per_reader
        assert stats.size == len(cache) <= 4


class TestCacheCollector:
    def _families(self, collector):
        return {name: (kind, samples) for name, kind, _help, samples in collector()}

    def test_families_mirror_the_stats(self):
        cache = LRUCache(max_size=1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)
        families = self._families(cache_collector("validation", cache))
        labels = {"cache": "validation"}
        assert families == {
            "repro_cache_hits_total": ("counter", [(labels, 1)]),
            "repro_cache_misses_total": ("counter", [(labels, 1)]),
            "repro_cache_evictions_total": ("counter", [(labels, 1)]),
            "repro_cache_entries": ("gauge", [(labels, 1)]),
        }

    def test_reads_live_counters_on_every_call(self):
        cache = LRUCache(max_size=4)
        collector = cache_collector("parsed", cache)
        before = self._families(collector)["repro_cache_misses_total"][1]
        cache.get("absent")
        cache.get("absent")
        after = self._families(collector)["repro_cache_misses_total"][1]
        assert before == [({"cache": "parsed"}, 0)]
        assert after == [({"cache": "parsed"}, 2)]

    def test_two_caches_merge_into_one_family_per_counter(self):
        first, second = LRUCache(max_size=2), LRUCache(max_size=2)
        first.get("x")
        second.put("y", 1)
        second.get("y")
        registry = MetricsRegistry()
        registry.add_collector(cache_collector("validation", first))
        registry.add_collector(cache_collector("containment", second))
        snapshot = registry.snapshot()
        hits = {
            sample["labels"]["cache"]: sample["value"]
            for sample in snapshot["repro_cache_hits_total"]["samples"]
        }
        assert hits == {"validation": 0.0, "containment": 1.0}
        text = render_prometheus(registry)
        assert 'repro_cache_entries{cache="containment"} 1' in text
        assert "# TYPE repro_cache_evictions_total counter" in text


class TestVerdictLifetime:
    def test_cache_size_bound_evicts_across_batches(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        other = Graph.from_triples([("b1", "descr", "l1")])
        with ValidationEngine(cache_size=1) as engine:
            engine.run_batch([(graph, schema)])
            engine.run_batch([(other, schema)])   # evicts the first verdict
            report = engine.run_batch([(graph, schema)])
        assert report.jobs_from_cache == 0
        assert report.cache.evictions == 2

    def test_a_new_engine_recomputes(self):
        graph, schema = bug_tracker_graph(), bug_tracker_schema()
        with ValidationEngine() as engine:
            cold = engine.run_batch([(graph, schema)])
        with ValidationEngine() as engine:
            again = engine.run_batch([(graph, schema)])
        assert cold.results[0].cached is False
        assert again.results[0].cached is False
        assert again.results[0].payload == cold.results[0].payload

    def test_a_restarted_daemon_recomputes(self, tmp_path):
        from repro.serve.client import DaemonClient
        from repro.serve.daemon import start_in_thread

        answers = []
        for name in ("a.sock", "b.sock"):
            sock = str(tmp_path / name)
            with start_in_thread(socket_path=sock):
                with DaemonClient.connect(sock) as client:
                    client.load_schema("bug", text=SCHEMA_TEXT)
                    answers.append(client.validate("bug", data_text=GOOD_TURTLE))
                    answers.append(client.validate("bug", data_text=GOOD_TURTLE))
        first, repeat, after_restart, _ = answers
        assert (first["cached"], repeat["cached"]) == (False, True)
        assert after_restart["cached"] is False
        assert after_restart["verdict"] == first["verdict"] == "valid"

    def test_separate_local_batch_runs_share_nothing(self, tmp_path, capsys):
        (tmp_path / "schema.shex").write_text(SCHEMA_TEXT)
        (tmp_path / "good.ttl").write_text(GOOD_TURTLE)
        manifest = tmp_path / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\ngood.ttl schema.shex\n")
        argv = ["batch", "--manifest", str(manifest)]
        for _ in range(2):
            assert containment_main(argv) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            # Within one run the duplicate job is a hit; the run before it
            # left nothing behind for the first job.
            assert "[cache]" not in lines[0]
            assert lines[1].endswith("[cache]")
