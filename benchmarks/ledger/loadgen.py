"""The load generator: open-loop HTTP over keep-alive sockets, and the
window and percentile arithmetic applied to what it records.

Open loop: every request has a due time fixed before the run; a
connection that is still waiting for an answer sends the next request
late, and that request's latency still counts from the instant it was
*due*, so a stall is charged to every request it delayed. How late the
generator itself ran is reported beside the latencies.
"""

from __future__ import annotations

import socket
import threading
import time
from statistics import median
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from workloads import Request


class Sample(NamedTuple):
    kind: str
    due: float  # perf_counter seconds
    sent: float
    done: float
    status: int  # 0 = connection error
    body: bytes
    index: int  # position in its connection's schedule

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Connection:
    """One keep-alive HTTP/1.1 client socket; just enough of the protocol
    for the async edge (it always answers with Content-Length)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._address = (host, port)
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        return sock

    def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one request, return (status, body). Raises OSError."""
        if self._sock is None:
            self._sock = self._connect()
        try:
            self._sock.sendall(raw)
            return self._read_response()
        except OSError:
            self.close()
            raise

    def _read_response(self) -> Tuple[int, bytes]:
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head = buffer[:end]
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body_start = end + 4
        while len(buffer) < body_start + length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        self._buffer = buffer[body_start + length:]
        return status, buffer[body_start:body_start + length]

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


def drive(
    host: str,
    port: int,
    schedule: Sequence[Request],
    start: float,
    keep_body: Callable[[str, int], bool],
) -> List[Sample]:
    """Send one connection's schedule; request i is due at start + offset."""
    conn = Connection(host, port)
    samples: List[Sample] = []
    clock = time.perf_counter
    try:
        for index, (offset, kind, raw, _payload) in enumerate(schedule):
            due = start + offset
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                status, body = conn.request(raw)
            except OSError:
                status, body = 0, b""
            done = clock()
            samples.append(
                Sample(kind, due, sent, done, status,
                       body if keep_body(kind, index) else b"", index)
            )
    finally:
        conn.close()
    return samples


def run_open_loop(
    host: str,
    port: int,
    schedules: Sequence[Sequence[Request]],
    start: float,
    keep_body: Callable[[str, int], bool],
) -> List[List[Sample]]:
    """Drive every schedule on its own connection and thread (at most
    one per core of this box), all counting due times from ``start``
    (a perf_counter instant shortly ahead). Returns samples per connection."""
    results: List[List[Sample]] = [[] for _ in schedules]
    errors: List[BaseException] = []

    def worker(i: int) -> None:
        try:
            results[i] = drive(host, port, schedules[i], start, keep_body)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"ledger-conn-{i}")
        for i in range(len(schedules))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


# -- arithmetic ---------------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in 0..100)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def split_windows(
    stamped: Sequence[Tuple[float, float]], lo: float, hi: float, n_windows: int
) -> List[List[float]]:
    """Values of (time, value) pairs bucketed into n equal windows of [lo, hi)."""
    windows: List[List[float]] = [[] for _ in range(n_windows)]
    width = (hi - lo) / n_windows
    for t, value in stamped:
        if lo <= t < hi:
            windows[min(int((t - lo) / width), n_windows - 1)].append(value)
    return windows


def windowed_percentile(
    stamped: Sequence[Tuple[float, float]],
    lo: float,
    hi: float,
    n_windows: int,
    q: float,
    min_beyond: int = 0,
) -> Optional[float]:
    """Median over windows of each window's q-th percentile.

    A window reports its percentile only when at least ``min_beyond``
    of its samples lie beyond it (a p99 of sixty samples is one
    sample); ``None`` when no window can.
    """
    per_window = []
    for values in split_windows(stamped, lo, hi, n_windows):
        if not values or len(values) * (100.0 - q) / 100.0 < min_beyond:
            continue
        per_window.append(percentile(sorted(values), q))
    return median(per_window) if per_window else None
