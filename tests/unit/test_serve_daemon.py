"""Daemon round-trip tests: Unix socket, caching, streaming, error handling."""

import json
import socket

import pytest

from repro.cli import main as containment_main
from repro.errors import DaemonError
from repro.serve.cli import main as serve_main
from repro.serve.client import DaemonClient
from repro.serve.daemon import start_in_thread

SCHEMA_TEXT = "Bug -> descr :: Lit, related :: Bug*\nLit -> eps"

GOOD_TURTLE = """
@prefix ex: <http://example.org/> .
ex:b1 ex:descr ex:l1 ; ex:related ex:b2 .
ex:b2 ex:descr ex:l2 .
"""

BAD_TURTLE = """
@prefix ex: <http://example.org/> .
ex:b1 ex:related ex:b2 .
"""


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a Unix socket, torn down (and socket removed) after."""
    handle = start_in_thread(
        socket_path=str(tmp_path / "shex.sock"), backend="thread", max_workers=2
    )
    yield handle
    handle.stop()


@pytest.fixture
def client(daemon):
    with DaemonClient.connect(daemon.daemon.socket_path) as connected:
        yield connected


class TestRoundTrip:
    def test_ping_reports_version_and_protocol(self, client):
        answer = client.ping()
        assert answer["pong"] is True
        assert answer["protocol"] == 1

    def test_validate_repeat_is_served_from_cache(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        first = client.validate("bug", data_text=GOOD_TURTLE)
        second = client.validate("bug", data_text=GOOD_TURTLE)
        assert first["verdict"] == second["verdict"] == "valid"
        assert not first["cached"] and second["cached"]
        # The acceptance check: cache-stats in the status response prove the
        # repeat was a hit on the daemon's shared cache.
        stats = client.status()["validation_cache"]
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_cache_survives_across_connections(self, daemon):
        path = daemon.daemon.socket_path
        with DaemonClient.connect(path) as first:
            first.load_schema("bug", text=SCHEMA_TEXT)
            assert not first.validate("bug", data_text=GOOD_TURTLE)["cached"]
        with DaemonClient.connect(path) as second:
            # New connection, same daemon: compiled schema and result persist.
            assert second.validate("bug", data_text=GOOD_TURTLE)["cached"]

    def test_invalid_document_reports_untyped_nodes(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        answer = client.validate("bug", data_text=BAD_TURTLE)
        assert answer["verdict"] == "invalid"
        assert len(answer["untyped_nodes"]) == 1

    def test_include_typing_lists_every_node_computed_and_cached(self, client):
        from repro.rdf.convert import load_graph
        from repro.schema.parser import parse_schema
        from repro.schema.reference import maximal_typing_reference

        graph = load_graph(BAD_TURTLE)
        oracle = maximal_typing_reference(graph, parse_schema(SCHEMA_TEXT))
        eager = [
            [repr(node), sorted(oracle.types_of(node))]
            for node in sorted(graph.nodes, key=repr)
        ]
        assert [] in [types for _node, types in eager]  # untyped rows stay
        client.load_schema("bug", text=SCHEMA_TEXT)
        first = client.validate("bug", data_text=BAD_TURTLE, include_typing=True)
        second = client.validate("bug", data_text=BAD_TURTLE, include_typing=True)
        assert not first["cached"] and second["cached"]
        assert first["typing"] == second["typing"] == eager

    def test_inline_schema_without_registration(self, client):
        answer = client.validate({"text": SCHEMA_TEXT}, data_text=GOOD_TURTLE)
        assert answer["verdict"] == "valid"

    def test_containment_over_the_wire(self, client):
        relaxed = "Bug -> descr :: Lit?, related :: Bug*\nLit -> eps"
        client.load_schema("old", text=SCHEMA_TEXT)
        client.load_schema("new", text=relaxed)
        assert client.contains("old", "new")["verdict"] == "contained"
        backward = client.contains("new", "old")
        assert backward["verdict"] == "not-contained"
        assert backward["counterexample"]
        assert client.contains("old", "new")["cached"]

    def test_batch_streams_results_then_done(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        jobs = [
            {"schema": "bug", "data": {"text": GOOD_TURTLE}, "label": "a"},
            {"schema": "bug", "data": {"text": BAD_TURTLE}, "label": "b"},
            {"schema": "bug", "data": {"text": GOOD_TURTLE}, "label": "c"},
        ]
        events = []
        summary = client.batch_validate(jobs, stream=True, on_result=events.append)
        assert summary["jobs"] == 3
        assert sorted(event["label"] for event in events) == ["a", "b", "c"]
        verdicts = {event["label"]: event["verdict"] for event in events}
        assert verdicts == {"a": "valid", "b": "invalid", "c": "valid"}

    def test_flush_cache_empties_stats(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.validate("bug", data_text=GOOD_TURTLE)
        flushed = client.flush_cache()["flushed"]
        assert flushed["validation"] == 1
        assert client.status()["validation_cache"]["size"] == 0

    def test_second_daemon_refuses_a_live_socket(self, daemon):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="already serving"):
            start_in_thread(socket_path=daemon.daemon.socket_path)
        # The original daemon is untouched.
        with DaemonClient.connect(daemon.daemon.socket_path) as client:
            assert client.ping()["pong"] is True

    def test_shutdown_is_clean(self, tmp_path):
        handle = start_in_thread(socket_path=str(tmp_path / "down.sock"))
        with DaemonClient.connect(handle.daemon.socket_path) as client:
            assert client.shutdown() == {"stopping": True}
        handle._thread.join(10)
        assert not handle._thread.is_alive()
        assert not (tmp_path / "down.sock").exists()  # socket file removed


LARGE_TURTLE = GOOD_TURTLE + "".join(
    f"ex:c{i} ex:descr ex:m{i} .\n" for i in range(8)
)


class TestGraphStoreOps:
    def test_update_graph_registers_and_applies_deltas(self, client):
        registered = client.update_graph("bugs", data_text=GOOD_TURTLE)
        assert registered == {"name": "bugs", "version": 0, "nodes": 4, "edges": 3}
        advanced = client.update_graph(
            "bugs",
            delta={"add": [["http://example.org/b2", "related", "http://example.org/b1"]]},
        )
        assert advanced["version"] == 1 and advanced["edges"] == 4
        assert advanced["applied"] == 1
        status = client.status()
        assert status["graphs"]["bugs"]["version"] == 1

    def test_revalidate_tracks_versions_and_modes(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.update_graph("bugs", data_text=LARGE_TURTLE)
        first = client.revalidate("bugs", "bug")
        assert first["verdict"] == "valid" and first["mode"] == "full"
        assert first["version"] == 0
        # Stripping b2's descr demotes it to Lit, which breaks b1's
        # related :: Bug reference — but only nodes reaching b2 are retyped.
        client.update_graph(
            "bugs",
            delta={"remove": [["http://example.org/b2", "descr", "http://example.org/l2"]]},
        )
        second = client.revalidate("bugs", "bug")
        assert second["verdict"] == "invalid"
        assert second["mode"] == "incremental"
        assert second["version"] == 1
        assert second["untyped_nodes"] == ["'http://example.org/b1'"]
        third = client.revalidate("bugs", "bug")
        assert third["mode"] in ("cached", "unchanged")

    def test_update_graph_requires_exactly_one_input(self, client):
        with pytest.raises(DaemonError) as caught:
            client.request("update_graph", name="g")
        assert caught.value.code == "bad-request"
        with pytest.raises(DaemonError) as caught:
            client.request(
                "update_graph", name="g", data={"text": GOOD_TURTLE}, delta={"add": []}
            )
        assert caught.value.code == "bad-request"

    def test_revalidate_unknown_graph(self, client):
        with pytest.raises(DaemonError) as caught:
            client.revalidate("ghost", {"text": SCHEMA_TEXT})
        assert caught.value.code == "unknown-graph"

    def test_delta_against_unregistered_graph(self, client):
        with pytest.raises(DaemonError) as caught:
            client.update_graph("ghost", delta={"add": [["x", "a", "y"]]})
        assert caught.value.code == "unknown-graph"

    def test_malformed_delta_is_bad_request(self, client):
        client.update_graph("bugs", data_text=GOOD_TURTLE)
        with pytest.raises(DaemonError) as caught:
            client.update_graph("bugs", delta={"add": [["too", "short"]]})
        assert caught.value.code == "bad-request"
        with pytest.raises(DaemonError) as caught:
            client.update_graph("bugs", delta={"remove": [["ghost", "a", "ghost2"]]})
        assert caught.value.code == "bad-request"  # removal of an absent edge

    def test_batched_revalidate_over_named_graphs(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.update_graph("good", data_text=GOOD_TURTLE)
        client.update_graph("bad", data_text=BAD_TURTLE)
        summary = client.revalidate_many("bug", graphs=["good", "bad", "ghost"])
        assert summary["graphs"] == 3
        assert summary["valid"] == 1 and summary["invalid"] == 1
        assert summary["unknown"] == 1
        by_graph = {entry["graph"]: entry for entry in summary["results"]}
        assert by_graph["good"]["verdict"] == "valid"
        assert by_graph["bad"]["untyped_nodes"] == ["'http://example.org/b1'"]
        # unknown-graph is per entry, never fatal for the batch
        assert by_graph["ghost"]["error"]["code"] == "unknown-graph"
        # results preserve request order
        assert [entry["graph"] for entry in summary["results"]] == [
            "good", "bad", "ghost",
        ]

    def test_batched_revalidate_all_graphs(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.update_graph("one", data_text=GOOD_TURTLE)
        client.update_graph("two", data_text=GOOD_TURTLE)
        summary = client.revalidate_many("bug", all_graphs=True)
        assert summary["graphs"] == 2 and summary["unknown"] == 0
        assert [entry["graph"] for entry in summary["results"]] == ["one", "two"]
        # A second pass answers without recomputation (cached/unchanged).
        again = client.revalidate_many("bug", all_graphs=True)
        assert all(
            entry["mode"] in ("cached", "unchanged") for entry in again["results"]
        )

    def test_revalidate_rejects_ambiguous_addressing(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        with pytest.raises(DaemonError) as caught:
            client.request(
                "revalidate", schema="bug", name="g", graphs=["g"], all=False
            )
        assert caught.value.code == "bad-request"
        with pytest.raises(DaemonError) as caught:
            client.request("revalidate", schema="bug")
        assert caught.value.code == "bad-request"
        with pytest.raises(DaemonError) as caught:
            client.request("revalidate", schema="bug", graphs="not-a-list")
        assert caught.value.code == "bad-request"

    def test_status_reports_stores_without_a_kind_view(self, client):
        # No typing path builds a kind partition, so status has none to show.
        client.load_schema("bug", text=SCHEMA_TEXT)
        clone_turtle = "@prefix ex: <http://example.org/> .\n" + "".join(
            f"ex:b{i} ex:descr ex:l{i} .\n" for i in range(40)
        )
        client.update_graph("clones", data_text=clone_turtle)
        assert client.revalidate("clones", "bug")["mode"] == "full"
        client.update_graph(
            "clones", delta={"add": [["http://example.org/b0", "related",
                                      "http://example.org/b1"]]}
        )
        assert client.revalidate("clones", "bug")["mode"] == "incremental"
        entry = client.status()["graphs"]["clones"]
        assert "view" not in entry
        assert (entry["version"], entry["nodes"], entry["edges"]) == (1, 80, 41)

    def test_registering_same_document_twice_is_independent(self, client):
        client.update_graph("one", data_text=GOOD_TURTLE)
        client.update_graph("two", data_text=GOOD_TURTLE)  # each parses its own
        client.update_graph(
            "one",
            delta={"add": [["http://example.org/b2", "related", "http://example.org/b1"]]},
        )
        status = client.status()["graphs"]
        assert status["one"]["edges"] == 4
        assert status["two"]["edges"] == 3  # untouched by one's delta


class TestThreadHops:
    """Work the size of a delta answers on the event loop; a document parse
    and a store's first typing take exactly one worker hop each."""

    DELTA = {"add": [["http://example.org/b2", "related", "http://example.org/b1"]]}

    def test_only_whole_graph_work_leaves_the_loop(self, client, monkeypatch):
        import repro.serve.daemon as daemon_module

        hops = []
        real = daemon_module.run_in_worker

        async def counting(fn, *args):
            hops.append(fn)
            return await real(fn, *args)

        monkeypatch.setattr(daemon_module, "run_in_worker", counting)
        client.load_schema("bug", text=SCHEMA_TEXT)

        def hops_of(call):
            before = len(hops)
            answer = call()
            return len(hops) - before, answer

        for name in ("a", "b", "c"):
            assert hops_of(lambda: client.update_graph(name, data_text=GOOD_TURTLE))[0] == 1
        for name in ("a", "b"):  # b's answer is cached: a had its content
            assert hops_of(lambda: client.revalidate(name, "bug"))[0] == 1
        assert hops_of(lambda: client.update_graph("a", delta=self.DELTA))[0] == 0
        count, entry = hops_of(lambda: client.revalidate("a", "bug"))
        assert (count, entry["mode"]) == (0, "incremental")
        assert hops_of(lambda: client.update_graph("b", delta=self.DELTA))[0] == 0
        assert hops_of(lambda: client.revalidate_many("bug", graphs=["a", "b"]))[0] == 0
        # One store without a typing sends the whole batch to one worker.
        assert hops_of(lambda: client.revalidate_many("bug", graphs=["a", "c"]))[0] == 1
        # A delta over half the graph's four nodes is applied, and typed, off
        # the loop.
        large = {"add": [
            ["http://example.org/b1", "related", "http://example.org/b1"],
            ["http://example.org/b2", "related", "http://example.org/b2"],
            ["http://example.org/b1", "related", "http://example.org/b2"],
        ]}
        assert hops_of(lambda: client.update_graph("a", delta=large))[0] == 1
        count, entry = hops_of(lambda: client.revalidate("a", "bug"))
        assert count == 1 and entry["version"] == 2


class TestRegistrationOwnership:
    """A registered graph is owned by its store: on a parse-memo miss it is
    parsed for the store and kept out of the memo; on a hit the store gets
    a copy of the memo's graph."""

    B2_DESCR = ["http://example.org/b2", "descr", "http://example.org/l2"]

    def test_registering_on_a_miss_leaves_the_memo_unchanged(self, client):
        before = client.status()["parsed_cache"]["size"]
        client.update_graph("a", data_text=GOOD_TURTLE)
        assert client.status()["parsed_cache"]["size"] == before
        client.load_schema("bug", text=SCHEMA_TEXT)
        assert client.revalidate("a", "bug")["verdict"] == "valid"

    def test_a_delta_on_a_store_registered_on_a_hit_leaves_the_memo_alone(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        assert client.validate("bug", data_text=GOOD_TURTLE)["verdict"] == "valid"
        size = client.status()["parsed_cache"]["size"]
        client.update_graph("a", data_text=GOOD_TURTLE)  # a memo hit: copied
        client.update_graph("a", delta={"remove": [self.B2_DESCR]})
        assert client.revalidate("a", "bug")["verdict"] == "invalid"
        # The compressed semantics misses the result cache, so this retypes
        # the memo's graph: the unmodified document's verdict.
        again = client.validate("bug", data_text=GOOD_TURTLE, compressed=True)
        assert (again["verdict"], again["cached"], again["untyped_nodes"]) == (
            "valid", False, [],
        )
        assert client.status()["parsed_cache"]["size"] == size

    def test_two_stores_of_one_memoised_document_are_independent(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.validate("bug", data_text=GOOD_TURTLE)
        client.update_graph("a", data_text=GOOD_TURTLE)
        client.update_graph("b", data_text=GOOD_TURTLE)
        client.update_graph("a", delta={"remove": [self.B2_DESCR]})
        status = client.status()["graphs"]
        assert (status["a"]["edges"], status["b"]["edges"]) == (2, 3)
        assert client.revalidate("a", "bug")["verdict"] == "invalid"
        assert client.revalidate("b", "bug")["verdict"] == "valid"


class TestErrorHandling:
    def test_malformed_json_is_a_structured_error_not_a_crash(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10)
            raw.connect(daemon.daemon.socket_path)
            raw.sendall(b"this is not json\n")
            reader = raw.makefile("rb")
            answer = json.loads(reader.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == "bad-json"
            # The connection survives the bad line and still answers requests.
            raw.sendall(b'{"op": "ping", "id": 42}\n')
            answer = json.loads(reader.readline())
            assert answer["ok"] is True and answer["id"] == 42

    def test_unknown_op(self, client):
        with pytest.raises(DaemonError) as caught:
            client.request("frobnicate")
        assert caught.value.code == "unknown-op"

    def test_missing_fields(self, client):
        with pytest.raises(DaemonError) as caught:
            client.request("validate")
        assert caught.value.code == "bad-request"

    def test_unknown_schema_name(self, client):
        with pytest.raises(DaemonError) as caught:
            client.validate("never-loaded", data_text=GOOD_TURTLE)
        assert caught.value.code == "unknown-schema"

    def test_broken_schema_text_is_a_parse_error(self, client):
        with pytest.raises(DaemonError) as caught:
            client.validate({"text": "A -> x :: Undefined\n"}, data_text=GOOD_TURTLE)
        assert caught.value.code == "parse-error"

    def test_broken_data_text_is_a_parse_error(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        with pytest.raises(DaemonError) as caught:
            client.validate("bug", data_text="not turtle @@@")
        assert caught.value.code == "parse-error"

    def test_errors_do_not_poison_the_connection(self, client):
        for _ in range(3):
            with pytest.raises(DaemonError):
                client.request("validate")
        assert client.ping()["pong"] is True


class TestObservability:
    def test_every_response_echoes_a_trace_id(self, client):
        client.ping()
        minted = client.last_trace
        assert isinstance(minted, str) and len(minted) == 16
        int(minted, 16)
        client.request("ping", trace="trace-from-client")
        assert client.last_trace == "trace-from-client"

    def test_error_responses_carry_the_trace_too(self, client):
        with pytest.raises(DaemonError):
            client.request("validate", trace="err-trace")
        assert client.last_trace == "err-trace"

    def test_non_string_trace_is_rejected(self, client):
        with pytest.raises(DaemonError) as caught:
            client.request("ping", trace=7)
        assert caught.value.code == "bad-request"

    def test_raw_responses_include_trace_field(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10)
            raw.connect(daemon.daemon.socket_path)
            reader = raw.makefile("rb")
            raw.sendall(b'{"op": "ping", "id": 1, "trace": "abc"}\n')
            answer = json.loads(reader.readline())
            assert answer["ok"] is True and answer["trace"] == "abc"
            raw.sendall(b'{"op": "frobnicate", "id": 2}\n')
            answer = json.loads(reader.readline())
            assert answer["ok"] is False and "trace" in answer

    def test_batch_responses_share_one_trace(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        job = {"schema": "bug", "data": {"text": GOOD_TURTLE}}
        seen = []
        client.batch_validate(
            [job, job], stream=True, on_result=lambda _: seen.append(client.last_trace)
        )
        done_trace = client.last_trace
        assert done_trace is not None
        assert all(trace == done_trace for trace in seen)

    def test_metrics_op_reports_every_subsystem(self, client):
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.validate("bug", data_text=GOOD_TURTLE)
        client.validate("bug", data_text=GOOD_TURTLE)
        snapshot = client.metrics()
        assert snapshot["enabled"] is True
        assert snapshot["uptime_seconds"] >= 0.0
        assert snapshot["requests"]["validate"] >= 2
        assert snapshot["fixpoint"]["runs"]  # the first validate ran the kernel
        assert "sat_checks" in snapshot["solver"]
        assert set(snapshot["caches"]) == {"validation", "containment", "parsed"}
        assert snapshot["caches"]["validation"]["hits"] >= 1
        families = snapshot["metrics"]
        assert "repro_daemon_requests_total" in families
        assert "repro_cache_hits_total" in families
        cache_labels = {
            sample["labels"]["cache"]
            for sample in families["repro_cache_hits_total"]["samples"]
        }
        assert {"validation", "containment", "parsed"} <= cache_labels

    def test_metrics_prometheus_text_parses(self, client):
        from repro.obs import parse_prometheus

        client.ping()
        snapshot = client.metrics()
        families = parse_prometheus(snapshot["prometheus"])
        assert families["repro_daemon_requests_total"]["type"] == "counter"
        assert families["repro_daemon_request_seconds"]["type"] == "histogram"
        assert any(
            labels.get("op") == "ping" and value >= 1
            for labels, value in families["repro_daemon_requests_total"]["samples"]
        )
        # Omitting the text exposition is the documented opt-out.
        assert "prometheus" not in client.metrics(prometheus=False)

    def test_slow_requests_emit_a_structured_log(self, tmp_path, caplog):
        import logging

        handle = start_in_thread(
            socket_path=str(tmp_path / "slow.sock"), slow_ms=0.0
        )
        try:
            with caplog.at_level(logging.WARNING, logger="repro.serve.daemon"):
                with DaemonClient.connect(handle.daemon.socket_path) as connected:
                    connected.request("ping", trace="slow-trace")
        finally:
            handle.stop()
        slow = [r for r in caplog.records if r.getMessage() == "slow_op"]
        assert slow, "expected a slow_op record with slow_ms=0"
        fields = slow[-1].fields
        assert fields["op"] == "ping"
        assert fields["trace"] == "slow-trace"
        assert fields["seconds"] >= 0.0

    def test_metrics_cli_renderings(self, daemon, capsys):
        from repro.obs import parse_prometheus

        address = daemon.daemon.socket_path
        with DaemonClient.connect(address) as connected:
            connected.load_schema("bug", text=SCHEMA_TEXT)
            connected.validate("bug", data_text=GOOD_TURTLE)
        assert serve_main(["metrics", "--connect", address]) == 0
        human = capsys.readouterr().out
        assert "requests:" in human and "cache validation:" in human
        assert serve_main(["metrics", "--connect", address, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert "solver" in parsed and "fixpoint" in parsed
        assert serve_main(["metrics", "--connect", address, "--prometheus"]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert "repro_daemon_requests_total" in families
        assert serve_main(
            ["metrics", "--connect", address, "--json", "--prometheus"]
        ) == 2
        assert "at most one" in capsys.readouterr().err


class TestCliConnectMode:
    @pytest.fixture
    def workspace(self, tmp_path):
        (tmp_path / "schema.shex").write_text(SCHEMA_TEXT + "\n")
        (tmp_path / "good.ttl").write_text(GOOD_TURTLE)
        (tmp_path / "bad.ttl").write_text(BAD_TURTLE)
        return tmp_path

    def test_validate_connect(self, daemon, workspace, capsys):
        argv = [
            "validate",
            "--connect", daemon.daemon.socket_path,
            "--schema", str(workspace / "schema.shex"),
            "--data", str(workspace / "good.ttl"),
        ]
        assert containment_main(argv) == 0
        assert "VALID" in capsys.readouterr().out
        # Second invocation is answered from the daemon cache.
        assert containment_main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_validate_connect_invalid_exits_1(self, daemon, workspace, capsys):
        code = containment_main(
            [
                "validate",
                "--connect", daemon.daemon.socket_path,
                "--schema", str(workspace / "schema.shex"),
                "--data", str(workspace / "bad.ttl"),
            ]
        )
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_batch_connect_summary_on_stderr(self, daemon, workspace, capsys):
        manifest = workspace / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\nbad.ttl schema.shex\ngood.ttl schema.shex\n")
        code = containment_main(["batch", "--manifest", str(manifest), "--connect", daemon.daemon.socket_path])
        captured = capsys.readouterr()
        assert code == 1  # one job is invalid
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3  # stdout: exactly one line per job, in order
        assert "VALID" in lines[0] and "INVALID" in lines[1]
        assert "via daemon" in captured.err and "job(s)" in captured.err

    def test_batch_connect_reuses_verdicts_across_runs(self, daemon, workspace, capsys):
        # The daemon's cache is what carries verdicts from one CLI run to the
        # next; the local engine's cache dies with each process.
        manifest = workspace / "jobs.txt"
        manifest.write_text("good.ttl schema.shex\nbad.ttl schema.shex\n")
        argv = ["batch", "--manifest", str(manifest), "--connect", daemon.daemon.socket_path]
        assert containment_main(argv) == 1
        assert "[cache]" not in capsys.readouterr().out
        assert containment_main(argv + ["--cache-size", "8"]) == 1
        captured = capsys.readouterr()
        assert all(line.endswith("[cache]") for line in captured.out.strip().splitlines())
        assert "--cache-size are ignored with --connect" in captured.err

    def test_validate_connect_delta_round_trip(self, daemon, workspace, capsys):
        delta = workspace / "delta.json"
        delta.write_text(
            json.dumps(
                {"remove": [["http://example.org/b2", "descr", "http://example.org/l2"]]}
            )
        )
        code = containment_main(
            [
                "validate",
                "--connect", daemon.daemon.socket_path,
                "--schema", str(workspace / "schema.shex"),
                "--data", str(workspace / "good.ttl"),
                "--delta", str(delta),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "base     v0: VALID" in out
        assert "delta    v1: INVALID" in out

    def test_shex_serve_update_and_revalidate(self, daemon, workspace, capsys):
        address = daemon.daemon.socket_path
        code = serve_main(
            [
                "update", "--connect", address,
                "--name", "bugs", "--data", str(workspace / "good.ttl"),
            ]
        )
        assert code == 0
        assert "version 0" in capsys.readouterr().out
        code = serve_main(
            [
                "revalidate", "--connect", address,
                "--name", "bugs", "--schema", str(workspace / "schema.shex"),
            ]
        )
        assert code == 0
        assert "VALID" in capsys.readouterr().out
        delta = workspace / "delta.json"
        delta.write_text(
            json.dumps(
                {"remove": [["http://example.org/b2", "descr", "http://example.org/l2"]]}
            )
        )
        code = serve_main(
            [
                "update", "--connect", address,
                "--name", "bugs", "--delta", str(delta),
            ]
        )
        assert code == 0
        assert "version 1" in capsys.readouterr().out
        code = serve_main(
            [
                "revalidate", "--connect", address,
                "--name", "bugs", "--schema", str(workspace / "schema.shex"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "untyped" in out

    def test_shex_serve_update_requires_one_input(self, daemon, capsys):
        code = serve_main(
            ["update", "--connect", daemon.daemon.socket_path, "--name", "g"]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_shex_serve_revalidate_all(self, daemon, workspace, capsys):
        address = daemon.daemon.socket_path
        serve_main(["update", "--connect", address, "--name", "good",
                    "--data", str(workspace / "good.ttl")])
        serve_main(["update", "--connect", address, "--name", "bad",
                    "--data", str(workspace / "bad.ttl")])
        capsys.readouterr()
        code = serve_main(["revalidate", "--connect", address, "--all",
                           "--schema", str(workspace / "schema.shex")])
        captured = capsys.readouterr()
        assert code == 1  # one graph is invalid
        lines = captured.out.strip().splitlines()
        assert any(line.startswith("INVALID: graph 'bad'") for line in lines)
        assert any(line.startswith("VALID: graph 'good'") for line in lines)
        assert "2 graph(s): 1 valid, 1 invalid, 0 unknown" in captured.err

    def test_shex_serve_revalidate_batch_reports_unknown(self, daemon, workspace, capsys):
        address = daemon.daemon.socket_path
        serve_main(["update", "--connect", address, "--name", "good",
                    "--data", str(workspace / "good.ttl")])
        capsys.readouterr()
        code = serve_main(["revalidate", "--connect", address,
                           "--name", "good", "--name", "ghost",
                           "--schema", str(workspace / "schema.shex")])
        captured = capsys.readouterr()
        assert code == 1
        assert "UNKNOWN: graph 'ghost'" in captured.out
        assert "1 valid, 0 invalid, 1 unknown" in captured.err

    def test_shex_serve_revalidate_requires_name_or_all(self, daemon, capsys):
        code = serve_main(["revalidate", "--connect", daemon.daemon.socket_path,
                           "--schema", "missing.shex"])
        assert code == 2
        assert "--name" in capsys.readouterr().err

    def test_shex_serve_status_and_flush_and_stop(self, daemon, capsys):
        address = daemon.daemon.socket_path
        assert serve_main(["status", "--connect", address]) == 0
        out = capsys.readouterr().out
        assert "backend: thread" in out and "validation cache" in out
        assert serve_main(["status", "--connect", address, "--json"]) == 0
        assert '"pid"' in capsys.readouterr().out
        assert serve_main(["flush", "--connect", address]) == 0
        assert "flushed" in capsys.readouterr().out
        assert serve_main(["stop", "--connect", address]) == 0
        daemon._thread.join(10)
        assert not daemon._thread.is_alive()

    def test_shex_serve_status_unreachable_exits_2(self, tmp_path, capsys):
        code = serve_main(["status", "--connect", str(tmp_path / "no.sock")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_shex_serve_start_rejects_ambiguous_endpoint(self, capsys):
        assert serve_main(["start"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_connect_refused_exits_2(self, workspace, capsys):
        code = containment_main(
            [
                "validate",
                "--connect", str(workspace / "nothing.sock"),
                "--schema", str(workspace / "schema.shex"),
                "--data", str(workspace / "good.ttl"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
