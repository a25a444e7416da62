"""The observability substrate: registry, tracing, structured logs."""

import io
import json
import logging
import threading

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.logs import configure_logging, log_event
from repro.obs.metrics import (
    CounterWindow,
    MetricsRegistry,
    default_buckets,
    parse_prometheus,
    render_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def obs_enabled():
    """Force instrumentation on for the test, restoring the prior state."""
    before = obs_metrics.STATE.enabled
    obs_metrics.enable()
    yield
    obs_metrics.STATE.enabled = before


@pytest.fixture
def obs_disabled():
    before = obs_metrics.STATE.enabled
    obs_metrics.disable()
    yield
    obs_metrics.STATE.enabled = before


class TestInstruments:
    def test_counter_counts(self, registry, obs_enabled):
        jobs = registry.counter("t_jobs_total", "Jobs.")
        jobs.inc()
        jobs.inc(2.5)
        assert jobs.value == 3.5
        assert registry.value("t_jobs_total") == 3.5

    def test_counter_rejects_negative_increment(self, registry, obs_enabled):
        errors = registry.counter("t_errors_total", "Errors.")
        with pytest.raises(ValueError):
            errors.inc(-1)

    def test_labelled_children_are_independent(self, registry, obs_enabled):
        jobs = registry.counter("t_by_kind_total", "Jobs.", labels=("kind",))
        jobs.labels(kind="a").inc()
        jobs.labels(kind="a").inc()
        jobs.labels(kind="b").inc()
        assert registry.value("t_by_kind_total", kind="a") == 2.0
        assert registry.value("t_by_kind_total", kind="b") == 1.0

    def test_wrong_label_set_is_rejected(self, registry):
        jobs = registry.counter("t_strict_total", "Jobs.", labels=("kind",))
        with pytest.raises(ValueError):
            jobs.labels(backend="thread")
        with pytest.raises(ValueError):
            jobs.labels(kind="a", backend="thread")

    def test_bad_metric_name_is_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad-name", "Nope.")
        with pytest.raises(ValueError):
            registry.counter("", "Nope.")

    def test_reregistration_returns_the_same_instrument(self, registry):
        first = registry.counter("t_same_total", "Same.")
        second = registry.counter("t_same_total", "Same.")
        assert first is second

    def test_kind_collision_raises(self, registry):
        registry.counter("t_kind_total", "A counter.")
        with pytest.raises(ValueError):
            registry.gauge("t_kind_total", "Now a gauge?")

    def test_gauge_moves_both_ways(self, registry, obs_enabled):
        depth = registry.gauge("t_depth", "Depth.")
        depth.set(4)
        depth.inc()
        depth.dec(2)
        assert depth.value == 3.0

    def test_registry_reset_zeroes_instruments(self, registry, obs_enabled):
        plain = registry.counter("t_reset_total", "Plain.")
        labelled = registry.counter("t_reset_by_op_total", "Labelled.", labels=("op",))
        plain.inc(5)
        labelled.labels(op="x").inc()
        registry.reset()
        assert plain.value == 0.0
        assert registry.value("t_reset_by_op_total", op="x") == 0.0


class TestHistogramBuckets:
    def test_default_buckets_are_a_fixed_log_ladder(self):
        buckets = default_buckets()
        assert len(buckets) == 21
        assert buckets[0] == pytest.approx(1e-6)
        for lower, upper in zip(buckets, buckets[1:]):
            assert upper == pytest.approx(lower * 4.0)

    def test_boundary_value_lands_in_its_own_bucket(self, registry, obs_enabled):
        """``le`` bounds are inclusive: an exact boundary hit counts there."""
        hist = registry.histogram("t_edges", "Edges.", buckets=(1.0, 2.0, 4.0))
        hist.observe(2.0)
        state = hist._children[()].state()
        counts = {bound: count for bound, count in state["buckets"]}
        assert counts[2.0] == 1
        assert counts[1.0] == 0 and counts[4.0] == 0
        assert state["inf"] == 0

    def test_values_beyond_the_last_bucket_go_to_inf(self, registry, obs_enabled):
        hist = registry.histogram("t_over", "Over.", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.0)  # boundary: first bucket
        hist.observe(3.0)  # beyond the ladder
        state = hist._children[()].state()
        counts = {bound: count for bound, count in state["buckets"]}
        assert counts[1.0] == 2
        assert state["inf"] == 1
        assert state["count"] == 3
        assert state["sum"] == pytest.approx(4.5)

    def test_unsorted_or_duplicate_buckets_are_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("t_unsorted", "Bad.", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("t_dupes", "Bad.", buckets=(1.0, 1.0))

    def test_observe_is_thread_safe(self, registry, obs_enabled):
        hist = registry.histogram("t_threads", "Threaded.", buckets=(10.0,))
        rounds = 200

        def worker():
            for _ in range(rounds):
                hist.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 4 * rounds
        assert hist.sum == pytest.approx(4 * rounds * 1.0)


class TestDisabledFastPath:
    def test_disabled_counter_stays_flat(self, registry, obs_disabled):
        jobs = registry.counter("t_off_total", "Off.")
        jobs.inc(10)
        assert jobs.value == 0.0

    def test_disabled_histogram_records_nothing(self, registry, obs_disabled):
        hist = registry.histogram("t_off_hist", "Off.")
        hist.observe(1.0)
        assert hist.count == 0

    def test_disabled_tracing_returns_the_noop_singleton(self, obs_disabled):
        assert obs.start_trace("t.root") is obs_tracing.NOOP_SPAN
        assert obs.span("t.child") is obs_tracing.NOOP_SPAN
        # Usable directly as a context manager, and serialises to nothing.
        with obs.start_trace("t.root") as root:
            assert root is obs_tracing.NOOP_SPAN
        assert root.to_dict() == {}

    def test_enable_disable_roundtrip(self):
        before = obs_metrics.STATE.enabled
        try:
            obs_metrics.disable()
            assert not obs_metrics.enabled()
            obs_metrics.enable()
            assert obs_metrics.enabled()
        finally:
            obs_metrics.STATE.enabled = before


class TestTracing:
    def test_span_tree_nests_and_shares_the_trace_id(self, obs_enabled):
        with obs.start_trace("t.request", op="validate") as root:
            with obs.span("t.phase", step=1) as child:
                with obs.span("t.inner"):
                    pass
            assert child.trace_id == root.trace_id
        assert [c.name for c in root.children] == ["t.phase"]
        assert [c.name for c in root.children[0].children] == ["t.inner"]
        assert root.seconds > 0.0
        tree = root.to_dict()
        assert tree["tags"] == {"op": "validate"}
        assert tree["children"][0]["children"][0]["name"] == "t.inner"

    def test_supplied_trace_id_propagates(self, obs_enabled):
        with obs.start_trace("t.request", trace_id="cafe0123") as root:
            assert obs.current_trace_id() == "cafe0123"
        assert root.trace_id == "cafe0123"

    def test_span_outside_any_trace_is_a_noop(self, obs_enabled):
        assert obs.current_span() is None
        assert obs.span("t.orphan") is obs_tracing.NOOP_SPAN

    def test_annotate_updates_tags_mid_flight(self, obs_enabled):
        with obs.start_trace("t.request") as root:
            with obs.span("t.work") as working:
                working.annotate(mode="incremental")
        assert root.children[0].tags["mode"] == "incremental"

    def test_fanout_beyond_max_children_is_counted_not_kept(self, obs_enabled):
        with obs.start_trace("t.fanout") as root:
            for _ in range(obs_tracing.MAX_CHILDREN + 5):
                with obs.span("t.leaf"):
                    pass
        assert len(root.children) == obs_tracing.MAX_CHILDREN
        assert root.dropped == 5
        assert root.to_dict()["dropped"] == 5

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_batch_kernel_spans_reach_the_trace(self, obs_enabled, backend):
        from repro.engine.validation import ValidationEngine
        from repro.graphs.graph import Graph
        from repro.schema.parser import parse_schema

        schema = parse_schema("Bug -> descr :: Lit, related :: Bug*\nLit -> eps")
        graphs = [
            Graph.from_triples([(f"b{n}", "descr", f"l{n}")]) for n in range(3)
        ]
        with ValidationEngine(backend=backend, max_workers=3) as engine:
            with obs.start_trace("t") as root:
                engine.run_batch([(graph, schema) for graph in graphs])
        (batch,) = root.to_dict()["children"]
        assert batch["name"] == "engine.run_batch"
        kernels = [child["name"] for child in batch["children"]]
        assert kernels == ["fixpoint.full"] * 3

    def test_new_trace_ids_are_distinct_hex(self):
        first, second = obs.new_trace_id(), obs.new_trace_id()
        assert first != second
        int(first, 16), int(second, 16)
        assert len(first) == 16


class TestCollectors:
    @staticmethod
    def _constant_collector(value):
        def collect():
            return [
                (
                    "t_collected", "gauge", "Collected.",
                    [({"source": "test"}, value)],
                )
            ]

        return collect

    def test_collector_samples_appear_in_snapshot(self, registry):
        registry.add_collector(self._constant_collector(7.0))
        family = registry.snapshot()["t_collected"]
        assert family["kind"] == "gauge"
        assert family["samples"] == [{"labels": {"source": "test"}, "value": 7.0}]

    def test_same_family_from_two_collectors_merges(self, registry):
        def one():
            return [("t_shared", "counter", "Shared.", [({"cache": "a"}, 1.0)])]

        def two():
            return [("t_shared", "counter", "Shared.", [({"cache": "b"}, 2.0)])]

        registry.add_collector(one)
        registry.add_collector(two)
        samples = registry.snapshot()["t_shared"]["samples"]
        assert {s["labels"]["cache"] for s in samples} == {"a", "b"}

    def test_removed_collector_stops_reporting(self, registry):
        collector = self._constant_collector(1.0)
        registry.add_collector(collector)
        registry.remove_collector(collector)
        assert "t_collected" not in registry.snapshot()
        registry.remove_collector(collector)  # unknown: ignored


class TestCounterWindow:
    def test_window_reads_deltas_since_reset(self, registry, obs_enabled):
        jobs = registry.counter("t_window_total", "Windowed.")
        jobs.inc(5)
        window = CounterWindow(registry, ["t_window_total"])
        jobs.inc(3)
        assert window.read() == {"t_window_total": 3.0}
        window.reset()
        assert window.read() == {"t_window_total": 0.0}
        jobs.inc()
        assert window.read() == {"t_window_total": 1.0}

    def test_two_windows_do_not_interfere(self, registry, obs_enabled):
        jobs = registry.counter("t_two_windows_total", "Windowed.")
        first = CounterWindow(registry, ["t_two_windows_total"])
        jobs.inc(2)
        second = CounterWindow(registry, ["t_two_windows_total"])
        jobs.inc(1)
        second.reset()  # must not rebase `first`
        jobs.inc(4)
        assert first.read()["t_two_windows_total"] == 7.0
        assert second.read()["t_two_windows_total"] == 4.0

    def test_unregistered_counter_reads_zero(self, registry):
        window = CounterWindow(registry, ["t_missing_total"])
        assert window.read() == {"t_missing_total": 0.0}


class TestPrometheusExposition:
    def test_round_trip_counters_and_gauges(self, registry, obs_enabled):
        registry.counter("t_prom_total", "Jobs.", labels=("op",)).labels(op="x").inc(3)
        registry.gauge("t_prom_depth", "Depth.").set(1.5)
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["t_prom_total"]["type"] == "counter"
        assert ({"op": "x"}, 3.0) in parsed["t_prom_total"]["samples"]
        assert parsed["t_prom_depth"]["samples"] == [({}, 1.5)]

    def test_histogram_renders_cumulative_buckets(self, registry, obs_enabled):
        hist = registry.histogram("t_prom_hist", "Hist.", buckets=(1.0, 2.0))
        for value in (0.5, 0.5, 1.5, 9.0):
            hist.observe(value)
        text = render_prometheus(registry)
        parsed = parse_prometheus(text)
        samples = dict(
            (labels.get("le", key), value)
            for labels, value in parsed["t_prom_hist"]["samples"]
            for key in [None]
        )
        # Cumulative: le="1" counts 2, le="2" counts 3, +Inf counts all 4.
        assert samples["1"] == 2.0
        assert samples["2"] == 3.0
        assert samples["+Inf"] == 4.0
        assert 't_prom_hist_bucket{le="+Inf"} 4' in text
        assert "t_prom_hist_count 4" in text

    def test_label_values_are_escaped(self, registry, obs_enabled):
        tricky = registry.counter("t_escape_total", "Esc.", labels=("path",))
        tricky.labels(path='a"b\\c').inc()
        text = render_prometheus(registry)
        parsed = parse_prometheus(text)
        assert parsed["t_escape_total"]["samples"][0][1] == 1.0

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("just_a_name_no_value")
        with pytest.raises(ValueError):
            parse_prometheus('bad{label=unquoted} 1')
        with pytest.raises(ValueError):
            parse_prometheus("name not_a_number")

    def test_snapshot_is_json_serialisable(self, registry, obs_enabled):
        registry.counter("t_json_total", "C.").inc()
        registry.histogram("t_json_hist", "H.").observe(0.25)
        json.dumps(registry.snapshot())


class TestStructuredLogs:
    def test_json_lines_carry_event_and_fields(self):
        stream = io.StringIO()
        logger = configure_logging(level="info", json_lines=True, stream=stream)
        try:
            log_event(logger, logging.INFO, "unit_test", op="ping", seconds=0.25)
            record = json.loads(stream.getvalue().strip())
            assert record["event"] == "unit_test"
            assert record["op"] == "ping"
            assert record["seconds"] == 0.25
            assert record["level"] == "info"
            assert record["ts"].endswith("Z")
        finally:
            configure_logging(stream=io.StringIO())

    def test_key_value_format_renders_fields(self):
        stream = io.StringIO()
        logger = configure_logging(level="debug", json_lines=False, stream=stream)
        try:
            log_event(logger, logging.WARNING, "slow_op", op="batch", trace="abc")
            line = stream.getvalue()
            assert "slow_op" in line and 'op="batch"' in line and 'trace="abc"' in line
        finally:
            configure_logging(stream=io.StringIO())

    def test_records_below_the_level_are_dropped(self):
        stream = io.StringIO()
        logger = configure_logging(level="warning", json_lines=True, stream=stream)
        try:
            log_event(logger, logging.INFO, "too_quiet")
            assert stream.getvalue() == ""
        finally:
            configure_logging(stream=io.StringIO())

    def test_reconfiguration_replaces_the_handler(self):
        first, second = io.StringIO(), io.StringIO()
        logger = configure_logging(level="info", json_lines=True, stream=first)
        logger = configure_logging(level="info", json_lines=True, stream=second)
        try:
            handlers = [
                h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)
            ]
            assert len(handlers) == 1
            log_event(logger, logging.INFO, "after_reconfigure")
            assert first.getvalue() == ""
            assert "after_reconfigure" in second.getvalue()
        finally:
            configure_logging(stream=io.StringIO())

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")
