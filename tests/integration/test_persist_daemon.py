"""End-to-end durability tests: a daemon with ``--data-dir`` across restarts.

The full warm-restart story (ISSUE 10): schemas and graphs persisted by one
daemon are recovered by the next before the socket binds; the first
revalidate after the bounce answers through the incremental machinery (never
a full retype when typings were checkpointed); the ``checkpoint`` op, the
status/metrics persist surfaces, and the background auto-checkpoint loop all
work against a live daemon.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import parse_prometheus
from repro.serve.cli import main as serve_main
from repro.serve.client import DaemonClient
from repro.serve.daemon import start_in_thread
from repro.workloads.soak import DaemonTarget, SoakRunner, SoakSpec, _default_weights

SCHEMA_TEXT = "Bug -> descr :: Lit, related :: Bug*\nLit -> eps\n"
TURTLE = (
    "@prefix ex: <http://example.org/> .\n"
    "ex:b1 ex:descr ex:l1 ; ex:related ex:b2 .\n"
    "ex:b2 ex:descr ex:l2 .\n"
)
#: Revalidation modes a warm restart may answer with — anything but a
#: from-scratch retype ("full").
WARM_MODES = {"cached", "unchanged", "incremental"}


def _populate(address):
    with DaemonClient.connect(address) as client:
        client.load_schema("bug", text=SCHEMA_TEXT)
        client.update_graph("bugs", data_text=TURTLE)
        answer = client.revalidate("bugs", "bug")
    return answer


class TestDurableDaemon:
    def test_warm_restart_recovers_schemas_graphs_and_typings(self, tmp_path):
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(socket_path=address, data_dir=data_dir):
            cold = _populate(address)
        assert cold["verdict"] == "valid"

        # Clean shutdown checkpointed; the next daemon recovers everything
        # before serving — no client re-upload, no schema re-send.
        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                status = client.status()
                assert status["data_dir"] == data_dir
                assert "bug" in status["schemas"]
                warm = client.revalidate("bugs", "bug")
        assert warm["verdict"] == "valid"
        assert warm["version"] == cold["version"]
        assert warm["mode"] in WARM_MODES, (
            f"first revalidate after restart retyped from scratch "
            f"(mode {warm['mode']!r})"
        )

    def test_inline_schema_revalidate_warm_restarts(self, tmp_path):
        """The ``shex-serve revalidate --schema file`` shape: the schema
        arrives as inline text with every request, never via ``load_schema``.
        A durable daemon must persist that text anyway, or the checkpointed
        typings have no schema to reseed against after the bounce."""
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        schema_ref = {"text": SCHEMA_TEXT, "name": "inline.shex"}
        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                client.update_graph("bugs", data_text=TURTLE)
                cold = client.revalidate("bugs", schema_ref)
        assert cold["verdict"] == "valid"

        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                warm = client.revalidate("bugs", schema_ref)
        assert warm["verdict"] == "valid"
        assert warm["mode"] in WARM_MODES, (
            f"inline-schema typing was not recovered (mode {warm['mode']!r})"
        )

    def test_revalidate_writes_a_schema_only_when_one_is_due(self, tmp_path):
        # A registered name was written by load_schema, and inline text is
        # written once per fingerprint: neither costs a worker hop after that.
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        inline = {"text": SCHEMA_TEXT + "Note -> eps\n", "name": "inline.shex"}
        with start_in_thread(socket_path=address, data_dir=data_dir) as handle:
            daemon = handle.daemon
            persist, written = daemon._persist_schema_for_typings, []

            def recording(reference, compiled):
                written.append(reference)
                persist(reference, compiled)

            daemon._persist_schema_for_typings = recording
            _populate(address)
            with DaemonClient.connect(address) as client:
                for _ in range(2):
                    assert client.revalidate("bugs", "bug")["verdict"] == "valid"
                    assert client.revalidate("bugs", inline)["verdict"] == "valid"
        assert written == [inline]

    def test_wal_tail_replayed_on_restart(self, tmp_path):
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(socket_path=address, data_dir=data_dir):
            _populate(address)
            with DaemonClient.connect(address) as client:
                client.checkpoint("bugs")
                # Past the checkpoint: this delta lives only in the WAL.
                client.update_graph(
                    "bugs",
                    delta={
                        "add": [["http://example.org/b2", "related",
                                 "http://example.org/b1"]],
                        "remove": [],
                    },
                )
                version = client.status()["graphs"]["bugs"]["version"]
                persist = client.status()["graphs"]["bugs"]["persist"]
                assert persist["wal_records"] == 1

        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                entry = client.status()["graphs"]["bugs"]
                assert entry["version"] == version
                answer = client.revalidate("bugs", "bug")
        assert answer["verdict"] == "valid" and answer["version"] == version

    def test_checkpoint_op_and_status_fields(self, tmp_path):
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(socket_path=address, data_dir=data_dir):
            _populate(address)
            with DaemonClient.connect(address) as client:
                answer = client.checkpoint()
                assert answer["graphs"] == 1
                entry = answer["results"]["bugs"]
                assert entry["generation"] >= 1 and entry["seconds"] >= 0
                # Idempotent: a second checkpoint folds nothing new.
                again = client.checkpoint("bugs")
                assert again["results"]["bugs"]["wal_records_folded"] == 0

                persist = client.status()["graphs"]["bugs"]["persist"]
                assert persist["generation"] == again["results"]["bugs"]["generation"]
                assert persist["wal_records"] == 0
                assert persist["last_checkpoint_at"] is not None
                assert persist["fsync"] == "always"

    def test_checkpoint_without_data_dir_is_a_clean_error(self, tmp_path):
        address = str(tmp_path / "d.sock")
        with start_in_thread(socket_path=address):
            with DaemonClient.connect(address) as client:
                from repro.errors import DaemonError

                with pytest.raises(DaemonError, match="data-dir"):
                    client.checkpoint()

    def test_auto_checkpoint_interval(self, tmp_path):
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(
            socket_path=address, data_dir=data_dir, checkpoint_interval=0.2
        ):
            _populate(address)
            with DaemonClient.connect(address) as client:
                client.update_graph(
                    "bugs",
                    delta={
                        "add": [["http://example.org/b2", "related",
                                 "http://example.org/b1"]],
                        "remove": [],
                    },
                )
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    persist = client.status()["graphs"]["bugs"]["persist"]
                    if persist["wal_records"] == 0 and persist["generation"] >= 2:
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("auto-checkpoint never folded the WAL tail")

    def test_typing_only_progress_is_checkpointed(self, tmp_path):
        """Revalidation advances typings without WAL writes; the shutdown
        checkpoint must persist them anyway (the dirty-signature path)."""
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                client.load_schema("bug", text=SCHEMA_TEXT)
                client.update_graph("bugs", data_text=TURTLE)
                client.checkpoint("bugs")  # graph persisted, no typing yet
                client.revalidate("bugs", "bug")  # typing-only progress

        with start_in_thread(socket_path=address, data_dir=data_dir):
            with DaemonClient.connect(address) as client:
                warm = client.revalidate("bugs", "bug")
        assert warm["mode"] in WARM_MODES, (
            f"typing computed after the last checkpoint was lost "
            f"(mode {warm['mode']!r})"
        )

    def test_prometheus_round_trip_includes_persist_families(
        self, tmp_path, capsys
    ):
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        with start_in_thread(socket_path=address, data_dir=data_dir):
            _populate(address)
            with DaemonClient.connect(address) as client:
                client.checkpoint("bugs")
                client.update_graph(
                    "bugs",
                    delta={
                        "add": [["http://example.org/b2", "related",
                                 "http://example.org/b1"]],
                        "remove": [],
                    },
                )
            assert serve_main(["metrics", "--connect", address, "--prometheus"]) == 0
            exposition = capsys.readouterr().out
            assert serve_main(["metrics", "--connect", address]) == 0
            human = capsys.readouterr().out
            assert serve_main(["status", "--connect", address]) == 0
            status_text = capsys.readouterr().out

        families = parse_prometheus(exposition)
        for name in (
            "repro_persist_wal_appends_total",
            "repro_persist_wal_bytes_total",
            "repro_persist_checkpoints_total",
            "repro_persist_generation",
            "repro_persist_wal_records",
        ):
            assert name in families, f"exposition is missing {name}"
        wal_gauges = families["repro_persist_wal_records"]
        samples = {
            labels["graph"]: value for labels, value in wal_gauges["samples"]
        }
        assert samples.get("bugs") == 1.0
        assert "persist:" in human
        assert "durable: generation" in status_text

    def test_soak_restart_op_against_durable_daemon(self, tmp_path):
        """The weighted ``restart`` op end to end: checkpoint, bounce,
        mirror parity, stream continues."""
        address = str(tmp_path / "d.sock")
        data_dir = str(tmp_path / "data")
        options = dict(socket_path=address, data_dir=data_dir)
        holder = {"handle": start_in_thread(**options)}

        def restarter():
            holder["handle"].stop()
            holder["handle"] = start_in_thread(**options)
            return DaemonClient.connect(address)

        weights = dict(_default_weights(), restart=0.1)
        spec = SoakSpec(steps=30, seed=5, size=2, weights=weights)
        try:
            client = DaemonClient.connect(address)
            target = DaemonTarget(client, "soak", restarter=restarter)
            report = SoakRunner(spec, target).run()
            target.close()
        finally:
            holder["handle"].stop()
        assert report["restarts"]["count"] >= 1
        assert report["faults"]["unrecovered"] == 0
        assert set(report["ops"]) == {
            "update", "revalidate", "validate", "contains", "restart",
        }
