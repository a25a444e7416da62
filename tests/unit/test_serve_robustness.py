"""The hardened serve stack: deadlines, backpressure, drain, retries, reconnects."""

import json
import socket
import threading
import time

import pytest

from repro import faults
from repro.errors import DaemonConnectionError, DaemonError
from repro.serve.client import DaemonClient
from repro.serve.daemon import DaemonHandle, start_in_thread

SCHEMA_TEXT = "Bug -> descr :: Lit, related :: Bug*\nLit -> eps"

TURTLE = """
@prefix ex: <http://example.org/> .
ex:b1 ex:descr ex:l1 ; ex:related ex:b2 .
ex:b2 ex:descr ex:l2 .
"""


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    faults.uninstall()
    yield
    faults.uninstall()


def _start(tmp_path, **options):
    return start_in_thread(
        socket_path=str(tmp_path / "shex.sock"), backend="thread", max_workers=2,
        **options,
    )


def _raw_request(path: str, payload: dict) -> dict:
    """One request over a raw socket, bypassing the client's retry logic."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10.0)
        sock.connect(path)
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())


class TestDeadlines:
    def test_deadline_ms_overruns_answer_deadline_exceeded(self, tmp_path):
        handle = _start(tmp_path)
        try:
            # A microsecond deadline on an op that offloads real work: the
            # handler cannot finish before the timer fires.
            answer = _raw_request(
                handle.daemon.socket_path,
                {
                    "op": "validate",
                    "id": 1,
                    "deadline_ms": 0.001,
                    "schema": {"text": SCHEMA_TEXT},
                    "data": {"text": TURTLE},
                },
            )
            assert answer["ok"] is False
            assert answer["error"]["code"] == "deadline-exceeded"
        finally:
            handle.stop()

    def test_daemon_default_request_timeout(self, tmp_path):
        handle = _start(tmp_path, request_timeout=0.000001)
        try:
            answer = _raw_request(
                handle.daemon.socket_path,
                {
                    "op": "validate",
                    "id": 1,
                    "schema": {"text": SCHEMA_TEXT},
                    "data": {"text": TURTLE},
                },
            )
            assert answer["ok"] is False
            assert answer["error"]["code"] == "deadline-exceeded"
        finally:
            handle.stop()

    def test_deadline_keeps_the_store_lock_until_the_worker_returns(self, tmp_path):
        handle = _start(tmp_path)
        entered, release = threading.Event(), threading.Event()
        try:
            path = handle.daemon.socket_path
            with DaemonClient.connect(path) as client:
                client.update_graph("g", data_text=TURTLE)
            engine = handle.daemon.validation.engine
            original = engine.revalidate

            def blocked_revalidate(*args, **kwargs):
                entered.set()
                assert release.wait(10.0)
                return original(*args, **kwargs)

            engine.revalidate = blocked_revalidate
            answers = {}

            def send(key, payload):
                answers[key] = _raw_request(path, payload)

            revalidate = threading.Thread(target=send, args=("revalidate", {
                "op": "revalidate", "id": 1, "deadline_ms": 50, "name": "g",
                "schema": {"text": SCHEMA_TEXT},
            }))
            revalidate.start()
            assert entered.wait(10.0)
            update = threading.Thread(target=send, args=("update", {
                "op": "update_graph", "id": 2, "name": "g",
                "delta": TestVersionGuard.DELTA,
            }))
            update.start()
            time.sleep(0.3)  # well past the deadline; the worker still runs
            store = handle.daemon._stores["g"]
            assert store.version == 0
            assert update.is_alive()
            release.set()
            revalidate.join(10.0)
            update.join(10.0)
            assert answers["revalidate"]["error"]["code"] == "deadline-exceeded"
            assert answers["update"]["result"]["version"] == 1
            assert store.version == 1
        finally:
            release.set()
            handle.stop()

    def test_bad_deadline_rejected(self, tmp_path):
        handle = _start(tmp_path)
        try:
            answer = _raw_request(
                handle.daemon.socket_path,
                {"op": "ping", "id": 1, "deadline_ms": -5},
            )
            assert answer["error"]["code"] == "bad-request"
        finally:
            handle.stop()

    def test_control_ops_ignore_backpressure_not_deadlines(self, tmp_path):
        # ping carries no deadline risk but must still accept deadline_ms.
        handle = _start(tmp_path)
        try:
            answer = _raw_request(
                handle.daemon.socket_path,
                {"op": "ping", "id": 1, "deadline_ms": 5000},
            )
            assert answer["ok"] is True
        finally:
            handle.stop()


class TestBackpressure:
    def test_inflight_limit_rejects_work_ops(self, tmp_path):
        handle = _start(tmp_path, max_inflight=0)
        try:
            answer = _raw_request(
                handle.daemon.socket_path,
                {
                    "op": "validate",
                    "id": 1,
                    "schema": {"text": SCHEMA_TEXT},
                    "data": {"text": TURTLE},
                },
            )
            assert answer["ok"] is False
            assert answer["error"]["code"] == "overloaded"
            # Control-plane ops bypass the limit.
            assert _raw_request(
                handle.daemon.socket_path, {"op": "ping", "id": 2}
            )["ok"] is True
            assert _raw_request(
                handle.daemon.socket_path, {"op": "status", "id": 3}
            )["ok"] is True
        finally:
            handle.stop()

    def test_connection_limit_rejects_new_connections(self, tmp_path):
        handle = _start(tmp_path, max_connections=1)
        try:
            with DaemonClient.connect(handle.daemon.socket_path) as client:
                assert client.ping()["pong"] is True
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as extra:
                    extra.settimeout(5.0)
                    extra.connect(handle.daemon.socket_path)
                    with extra.makefile("rb") as reader:
                        answer = json.loads(reader.readline())
                assert answer["ok"] is False
                assert answer["error"]["code"] == "overloaded"
                # The first connection is unaffected.
                assert client.ping()["pong"] is True
        finally:
            handle.stop()

    def test_client_retries_overloaded_for_any_op(self, tmp_path):
        handle = _start(tmp_path, max_inflight=0)
        try:
            client = DaemonClient.connect(
                handle.daemon.socket_path, retries=1, backoff=0.001
            )
            with pytest.raises(DaemonError) as info:
                client.validate({"text": SCHEMA_TEXT}, data_text=TURTLE)
            assert info.value.code == "overloaded"
            assert client.retried_requests >= 1
            client.close()
        finally:
            handle.stop()

    def test_status_reports_limits(self, tmp_path):
        handle = _start(
            tmp_path, max_inflight=8, max_connections=4, request_timeout=5.0,
            drain_timeout=2.0,
        )
        try:
            with DaemonClient.connect(handle.daemon.socket_path) as client:
                status = client.status()
                assert status["limits"] == {
                    "request_timeout": 5.0,
                    "max_inflight": 8,
                    "max_connections": 4,
                    "drain_timeout": 2.0,
                }
                assert status["draining"] is False
                assert isinstance(status["inflight"], int)
        finally:
            handle.stop()


class TestVersionGuard:
    DELTA = {
        "add": [["http://example.org/b2", "related", "http://example.org/b1"]],
        "remove": [],
    }

    def test_expect_version_conflict(self, tmp_path):
        handle = _start(tmp_path)
        try:
            with DaemonClient.connect(handle.daemon.socket_path) as client:
                client.update_graph("g", data_text=TURTLE)
                answer = client.update_graph("g", delta=self.DELTA, expect_version=0)
                assert answer["version"] == 1
                # A replay of the same guarded delta is rejected, not re-applied.
                with pytest.raises(DaemonError) as info:
                    client.update_graph("g", delta=self.DELTA, expect_version=0)
                assert info.value.code == "version-conflict"
                assert client.status()["graphs"]["g"]["version"] == 1
        finally:
            handle.stop()

    def test_expect_version_with_data_rejected_client_side(self, tmp_path):
        handle = _start(tmp_path)
        try:
            with DaemonClient.connect(handle.daemon.socket_path) as client:
                with pytest.raises(ValueError):
                    client.update_graph("g", data_text=TURTLE, expect_version=0)
        finally:
            handle.stop()


class TestReconnect:
    def test_client_survives_daemon_restart_on_same_socket(self, tmp_path):
        handle = _start(tmp_path)
        path = handle.daemon.socket_path
        client = DaemonClient.connect(path, retries=3, backoff=0.01)
        try:
            assert client.ping()["pong"] is True
            handle.stop()
            handle = _start(tmp_path)
            assert handle.daemon.socket_path == path
            assert client.ping()["pong"] is True
            assert client.reconnects >= 1
        finally:
            client.close()
            handle.stop()

    def test_injected_partial_writes_are_retried(self, tmp_path):
        handle = _start(tmp_path)
        try:
            client = DaemonClient.connect(
                handle.daemon.socket_path, retries=3, backoff=0.01
            )
            faults.install("daemon.partial=1.0", seed=1)
            with pytest.raises((DaemonError, OSError)):
                client.ping()  # every response is torn; retries exhaust
            faults.uninstall()
            assert client.ping()["pong"] is True  # recovers once faults stop
            assert client.reconnects >= 1
            client.close()
        finally:
            handle.stop()

    def test_raw_socket_client_cannot_redial(self, tmp_path):
        handle = _start(tmp_path)
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(handle.daemon.socket_path)
            client = DaemonClient(sock)
            assert client.ping()["pong"] is True
            client._teardown()
            with pytest.raises(DaemonConnectionError):
                client.ping()
            client.close()
        finally:
            handle.stop()


class TestConnectionFailures:
    def test_client_killed_mid_batch_stream(self, tmp_path):
        handle = _start(tmp_path)
        try:
            path = handle.daemon.socket_path
            jobs = [
                {"schema": {"text": SCHEMA_TEXT}, "data": {"text": TURTLE}}
                for _ in range(4)
            ]
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            sock.connect(path)
            request = {"op": "batch", "id": 1, "jobs": jobs, "stream": True}
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            reader = sock.makefile("rb")
            first = json.loads(reader.readline())  # one streamed event arrives
            assert first.get("event") in ("result", "done")
            # Kill the client abruptly, mid-stream.
            sock.close()
            # The daemon survives and serves the next client.
            assert _raw_request(path, {"op": "ping", "id": 2})["ok"] is True
        finally:
            handle.stop()

    def test_half_open_socket_with_partial_line(self, tmp_path):
        handle = _start(tmp_path)
        try:
            path = handle.daemon.socket_path
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            sock.sendall(b'{"op": "ping", "id"')  # no newline, never finished
            sock.shutdown(socket.SHUT_WR)  # half-open: write side gone
            time.sleep(0.05)
            sock.close()
            assert _raw_request(path, {"op": "ping", "id": 1})["ok"] is True
        finally:
            handle.stop()

    def test_malformed_frame_after_valid_one(self, tmp_path):
        handle = _start(tmp_path)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(10.0)
                sock.connect(handle.daemon.socket_path)
                reader = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "id": 1}\n')
                assert json.loads(reader.readline())["ok"] is True
                sock.sendall(b"this is not json\n")
                answer = json.loads(reader.readline())
                assert answer["ok"] is False
                assert answer["error"]["code"] == "bad-json"
                # The connection survives the malformed frame.
                sock.sendall(b'{"op": "ping", "id": 2}\n')
                assert json.loads(reader.readline())["ok"] is True
        finally:
            handle.stop()


class TestDrain:
    def test_shutdown_answers_then_drains(self, tmp_path):
        handle = _start(tmp_path, drain_timeout=2.0)
        try:
            with DaemonClient.connect(handle.daemon.socket_path) as client:
                assert client.shutdown()["stopping"] is True
        finally:
            handle.stop()
        assert handle.daemon._drained_clean is True

    def test_stop_raises_when_thread_will_not_join(self, tmp_path):
        handle = _start(tmp_path)
        try:
            stuck = threading.Thread(target=time.sleep, args=(5.0,), daemon=True)
            stuck.start()
            fake = DaemonHandle(handle.daemon, stuck)
            with pytest.raises(RuntimeError, match="did not stop"):
                fake.stop(timeout=0.05)
        finally:
            handle.stop()
