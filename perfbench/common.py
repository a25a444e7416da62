"""Run context, daemon processes and the NDJSON connection used by every workload."""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Relative to ROOT (every process runs there), which keeps socket paths short.
TMP_BASE = ".perfbench_tmp"
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
FSYNC = "always"
# The host's speed is sampled by timing a job that runs none of the program's
# code (a Python start plus the imports the program also makes), every
# REFERENCE_EVERY_S between operations; times are then given for a host on
# which that job takes REFERENCE_S (see README, "Host speed").
REFERENCE_PROGRAM = "import numpy, scipy.optimize, networkx"
REFERENCE_EVERY_S = 4.0
REFERENCE_S = 1.0
SCHEMA_NAME = "bench"


class BenchError(Exception):
    """An operation failed: a wrong answer, a crash, a timeout."""


class Run:
    """One benchmark run: settings, scratch space, op tallies, live processes."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed_ops = 0
        self.setup_failed = False
        self.errors: List[str] = []
        self.tmp = os.path.join(TMP_BASE, f"{os.getpid()}-{seed}")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.procs: List[subprocess.Popen] = []
        self._dirs = 0
        self._op_ok: Optional[bool] = None  # None outside an operation
        self.host_samples: List[float] = []
        self._host_at: Optional[float] = None

    def tmpdir(self, tag: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{tag}{self._dirs}")
        os.makedirs(path)
        return path

    @contextlib.contextmanager
    def op(self):
        """One attempted operation: however many of its checks fail, it fails once."""
        self.attempted += 1
        self._op_ok = True
        try:
            yield
        finally:
            self._op_ok = None

    @property
    def failed(self) -> int:
        """Failed operations, plus one if a set-up check failed; at most ``attempted``."""
        return min(self.failed_ops + self.setup_failed, max(self.attempted, 1))

    def fail(self, message: str) -> None:
        if self._op_ok is None:
            self.setup_failed = True
        elif self._op_ok:
            self._op_ok = False
            self.failed_ops += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition

    def close(self) -> None:
        """Kill whatever is still running and remove the scratch space."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_BASE)
        except OSError:
            pass

    def sample_host(self, force: bool = False) -> None:
        """Time the reference job, unless it ran less than REFERENCE_EVERY_S ago."""
        if (not force and self._host_at is not None
                and time.perf_counter() - self._host_at < REFERENCE_EVERY_S):
            return
        began = time.perf_counter()
        proc = self.spawn([sys.executable, "-c", REFERENCE_PROGRAM],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would show in a 1 s sample.
        if proc.wait() != 0:
            raise BenchError(f"reference job exited with {proc.returncode}")
        self.host_samples.append(time.perf_counter() - began)
        self._host_at = time.perf_counter()

    def host_scale(self) -> float:
        """Seconds measured here × this = seconds on the reference host."""
        return REFERENCE_S / statistics.median(self.host_samples)

    def spawn(self, argv: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, **kwargs)
        self.procs.append(proc)
        return proc


def timed_setup(run: Run, build: Callable[[int], Any],
                teardown: Callable[[Any], None]) -> Tuple[float, Any]:
    """Build ``SETUP_REPEATS`` times, and more while they add up to less than
    ``SETUP_MIN_S`` (a cheap set-up is noisy); the median time and the last
    state.  Every state but the last is torn down outside the timed region.
    """
    times: List[float] = []
    state = None
    run.sample_host(force=True)
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        if state is not None:
            teardown(state)
        run.sample_host()
        start = time.perf_counter()
        state = build(len(times))
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def round_time(by_class: Dict[str, List[float]]) -> float:
    """One typical round: the sum over input classes of each class's median.

    Every class adds its own median, so a regression in any shape, store or
    pair kind moves the figure by that class's share of a round.
    """
    return sum(statistics.median(values) for values in by_class.values())


def p90(values: List[float]) -> Optional[float]:
    """The 90th percentile, only when at least 10 samples lie above it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Conn:
    """One NDJSON connection to a daemon (the protocol of docs/protocol.md)."""

    def __init__(self, path: str, timeout: float = 120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")
        self.last_bytes = 0
        self._id = 0

    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        self._id += 1
        message = dict(params, op=op, id=self._id)
        self.sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
        line = self.reader.readline()
        if not line.endswith(b"\n"):
            raise BenchError(f"{op}: connection closed by the daemon")
        self.last_bytes = len(line)
        response = json.loads(line)
        if not response.get("ok"):
            raise BenchError(f"{op}: {response.get('error')}")
        return response["result"]

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Daemon:
    """``shex-serve start --backend thread --jobs 2`` on a private socket."""

    def __init__(self, run: Run, data_dir: str):
        directory = run.tmpdir("sock")
        self.socket = os.path.join(directory, "d.sock")
        self.log = os.path.join(directory, "daemon.log")
        with open(self.log, "wb") as log:
            self.proc = run.spawn(
                [sys.executable, "-m", "repro.serve.cli", "start",
                 "--socket", self.socket, "--backend", "thread", "--jobs", "2",
                 "--data-dir", data_dir, "--fsync", FSYNC, "--log-level", "warning"],
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.conn: Optional[Conn] = None

    def wait_ready(self, timeout: float = 90.0) -> Conn:
        """Poll until the socket answers ``ping``; returns the connection."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}: {self._log_tail()}")
            try:
                conn = Conn(self.socket)
                conn.call("ping")
                self.conn = conn
                return conn
            except (OSError, BenchError):
                if time.perf_counter() > deadline:
                    raise BenchError("daemon did not answer ping in time")
                time.sleep(0.005)

    def _log_tail(self) -> str:
        with open(self.log, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()[-400:]

    def vmhwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come in time."""
        try:
            if self.conn is not None and self.proc.poll() is None:
                self.conn.call("shutdown")
        except (OSError, BenchError):
            pass
        finally:
            if self.conn is not None:
                self.conn.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def kill(self) -> None:
        """SIGKILL: no shutdown checkpoint, the WAL tail stays unfolded."""
        if self.conn is not None:
            self.conn.close()
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
