"""Load generation: the server process, wire connections, closed and open loops.

Requests are pre-encoded JSON lines; responses are kept as raw bytes and
parsed after the timed region, so the generator does as little as
possible while it measures.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import select
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "perfbench" / "launcher.py"

#: Seconds a server may take to print its ready line (generation included).
READY_TIMEOUT = 150.0


def encode(request: Dict[str, Any]) -> bytes:
    return json.dumps(request).encode("utf-8") + b"\n"


class Connection:
    """One TCP connection speaking the newline-JSON protocol."""

    def __init__(self, address: Tuple[str, int], timeout: float = 120.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def recv(self) -> bytes:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.send(encode(request))
        return json.loads(self.recv())

    def close(self) -> None:
        self._reader.close()
        self.sock.close()


class ServerProcess:
    """The server in its own process, ready once it answers ``ping``.

    Standard error (the engine's slow-query log) goes straight to a file,
    so no pipe can fill and stall the server.  :meth:`stop` always reaps
    the process, on failure paths too.
    """

    def __init__(self, workdir: pathlib.Path, workload: str, tag: str,
                 trace: bool = False):
        self.log_path = workdir / f"{tag}.log"
        self._log = open(self.log_path, "wb")
        command = [sys.executable, str(LAUNCHER), "--workload", workload]
        if trace:
            command.append("--trace")
        env = dict(os.environ, PYTHONHASHSEED="0")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, cwd=str(ROOT), env=env,
        )
        try:
            self.info = self._read(READY_TIMEOUT)
            self.address = ("127.0.0.1", int(self.info["port"]))
            _await_ping(self.address, deadline=time.perf_counter() + 30.0)
        except BaseException:
            self.stop()
            raise
        #: Launch to first ok ping: generate, index build, listen.
        self.setup_s = time.perf_counter() - started

    def _read(self, timeout: float) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"server process gave no reply; see {self.log_path}")
        return json.loads(line)

    def command(self, payload: Dict[str, Any], timeout: float = 120.0) -> Dict[str, Any]:
        self.proc.stdin.write(encode(payload))
        self.proc.stdin.flush()
        return self._read(timeout)

    def memory_mb(self, field: str) -> float:
        """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{field} missing from /proc status")

    def sample_rss(self, interval: float = 0.2) -> "RssSampler":
        """Samples the resident set every ``interval`` s while in a ``with``."""
        return RssSampler(self, interval)

    def stop(self) -> None:
        """Ask the server to quit, then terminate and reap it regardless."""
        proc = self.proc
        try:
            if proc.poll() is None:
                try:
                    self.command({"cmd": "quit"}, timeout=20.0)
                except (OSError, RuntimeError, ValueError):
                    pass
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass
            self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class RssSampler:
    """A thread reading the server's ``VmRSS`` periodically."""

    def __init__(self, server: ServerProcess, interval: float):
        self.samples: List[float] = []
        self._server = server
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.samples.append(self._server.memory_mb("VmRSS"))

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _await_ping(address: Tuple[str, int], deadline: float) -> None:
    while True:
        try:
            conn = Connection(address, timeout=10.0)
            try:
                if conn.call({"op": "ping"}).get("ok"):
                    return
            finally:
                conn.close()
        except OSError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.01)


class Sample:
    """One request's timestamps (``perf_counter`` seconds) and raw response."""

    __slots__ = ("due", "sent", "done", "raw")

    def __init__(self) -> None:
        self.due: Optional[float] = None
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.raw: Optional[bytes] = None


def closed_loop(conns: Sequence[Connection], lanes: Sequence[List[Tuple[int, bytes]]],
                samples: List[Sample]) -> None:
    """Each connection sends its lane's next request when the last returns."""
    barrier = threading.Barrier(len(lanes))

    def drive(conn: Connection, lane: List[Tuple[int, bytes]]) -> None:
        barrier.wait()
        for index, line in lane:
            sample = samples[index]
            sample.sent = sample.due = time.perf_counter()
            try:
                conn.send(line)
                sample.raw = conn.recv()
            except OSError:
                return  # the rest of the lane stays unanswered: failures
            sample.done = time.perf_counter()

    _join([threading.Thread(target=drive, args=(c, l), daemon=True) for c, l in zip(conns, lanes)])


def open_loop(conns: Sequence[Connection], schedule: Sequence[Tuple[int, int, float, bytes]],
              samples: List[Sample]) -> None:
    """Send each request at its scheduled offset, whatever is outstanding.

    ``schedule`` holds ``(index, connection, offset seconds, line)``.
    Requests pipeline on their connection; one reader per connection
    matches responses to requests in order.
    """
    pending = [collections.deque() for _ in conns]
    expected = [sum(1 for _, c, _, _ in schedule if c == n) for n in range(len(conns))]

    def receive(n: int) -> None:
        for _ in range(expected[n]):
            try:
                raw = conns[n].recv()
            except OSError:
                return
            sample = samples[pending[n].popleft()]
            sample.done = time.perf_counter()
            sample.raw = raw

    readers = [threading.Thread(target=receive, args=(n,), daemon=True) for n in range(len(conns))]
    for reader in readers:
        reader.start()
    start = time.perf_counter() + 0.05
    try:
        for index, n, offset, line in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = samples[index]
            sample.due = due
            pending[n].append(index)
            sample.sent = time.perf_counter()
            conns[n].send(line)
    except OSError:
        pass  # unanswered requests count as failures
    finally:
        for reader in readers:
            reader.join(timeout=120)


def _join(threads: Sequence[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
