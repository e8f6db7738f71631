"""The program under test as a child process: start, watch, stop.

The server is the unmodified ``python -m repro.cli serve-http`` (or, in
the traced pass, ``traced_server.py``, which wraps the layers' entry
points and then calls the same CLI). It runs in its own process group
so one signal reaches everything it started, listens on an ephemeral
port, and is stopped on every exit path of the run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from loadgen import Connection
from workloads import http_request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

_BANNER = re.compile(r"on http://([0-9.]+):(\d+) ")
_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


class Server:
    """A started ``serve-http`` process."""

    def __init__(self, serve_args: List[str], workdir: Path, spans_path: Optional[Path]):
        self.log_path = workdir / "server.log"
        self.spans_path = spans_path
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", "serve-http"]
        else:
            argv = [sys.executable, str(HERE / "traced_server.py"), str(spans_path)]
        argv += ["--port", "0", "--quiet"] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=str(workdir), start_new_session=True,
        )
        self.host = "127.0.0.1"
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Block until ``GET /v1/health`` answers ok; returns seconds since start."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with code {self.proc.returncode} "
                    f"before it was ready:\n{self.log_tail()}"
                )
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                try:
                    conn = Connection(self.host, self.port, timeout=5.0)
                    try:
                        status, body = conn.request(http_request("GET", "/v1/health"))
                    finally:
                        conn.close()
                    if status == 200 and b'"ok"' in body:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.01)
        raise ServerError(
            f"server was not healthy within {timeout_s:.0f} s:\n{self.log_tail()}"
        )

    def log_tail(self, lines: int = 30) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "(no server log)"
        return "\n".join(text.splitlines()[-lines:])

    def cpu_seconds(self) -> tuple:
        """(user, system) CPU seconds of the server process so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as fh:
            # Field 2 is "(comm)" and may hold spaces; count from its end.
            fields = fh.read().rsplit(b")", 1)[1].split()
        return int(fields[11]) / _TICKS, int(fields[12]) / _TICKS

    def cpu_busy_s(self) -> float:
        """CPU seconds of all the server's threads, at nanosecond
        resolution where the kernel exposes scheduler statistics (the
        clock ticks of ``stat`` are too coarse for a two-second window)."""
        total_ns = 0
        try:
            for task in os.listdir(f"/proc/{self.pid}/task"):
                with open(f"/proc/{self.pid}/task/{task}/schedstat", "rb") as fh:
                    total_ns += int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            return sum(self.cpu_seconds())
        return total_ns / 1e9

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, grace_s: float = 20.0) -> None:
        """SIGTERM the group (the traced server dumps its spans on it),
        then SIGKILL whatever is left, and wait for the process to end."""
        try:
            if self.proc.poll() is None:
                _signal_group(self.pid, signal.SIGTERM)
                try:
                    self.proc.wait(timeout=grace_s)
                except subprocess.TimeoutExpired:
                    pass
            _signal_group(self.pid, signal.SIGKILL)
            self.proc.wait()
        finally:
            self._log.close()


def _signal_group(pid: int, sig: int) -> None:
    try:
        os.killpg(pid, sig)
    except ProcessLookupError:
        pass
