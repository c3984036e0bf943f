"""Load-generator plumbing: the daemon subprocess, /proc readers, counted
connections and percentiles.

Everything here is workload-independent.  :class:`DaemonProcess` starts
``python -m repro.server --port 0`` (or the traced launcher) as a child
process and always stops it again -- first with the protocol's ``shutdown``
op, then by terminate and kill -- so a failed run leaves no daemon behind.
:class:`Connection` wraps one :class:`repro.server.client.TcpClient` with
retries off, so every request the daemon sees is one the generator counted.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

#: How long a daemon may take to print its listening address.
SPAWN_TIMEOUT_S = 60.0
#: How long a stopping daemon may take to exit before it is killed.
STOP_TIMEOUT_S = 10.0


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: Sequence[float], q: float) -> dict:
    """A percentile with the sample it rests on.

    ``n`` is the sample count and ``beyond`` how many samples lie above the
    percentile, so a reader sees when a tail figure rests on few points.
    """
    value = percentile(values, q)
    return {"q": q, "value": value, "n": len(values),
            "beyond": sum(1 for v in values if v > value)}


# --------------------------------------------------------------------------- #
# /proc readers
# --------------------------------------------------------------------------- #
def cpu_seconds(pid: int, proc_root: str = "/proc") -> float:
    """User plus system CPU seconds a process has used so far.

    Fields 14 and 15 of ``/proc/<pid>/stat`` in clock ticks; the command
    name (field 2) may contain spaces, so fields are counted after its
    closing parenthesis.
    """
    text = Path(proc_root, str(pid), "stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int, proc_root: str = "/proc") -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    for line in Path(proc_root, str(pid), "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM line for pid {pid}")


# --------------------------------------------------------------------------- #
# The daemon subprocess
# --------------------------------------------------------------------------- #
class DaemonProcess:
    """One daemon child process, started on an ephemeral port.

    ``command`` is the program and arguments up to (not including) the
    server flags; ``flags`` are the ``repro.server`` CLI flags.  The child's
    standard error goes to ``log_path`` so a crash can be diagnosed.
    """

    def __init__(self, command: Sequence[str], flags: Sequence[str],
                 src_dir: Path, log_path: Path) -> None:
        self.command = list(command)
        self.flags = list(flags)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command + self.flags, stdout=subprocess.PIPE,
            stderr=self._log, env=env)
        self.port = self._read_port()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_port(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if " serving on " in line:
                address = line.split(" serving on ", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError(
            f"daemon {' '.join(self.command)} exited or stalled before "
            f"listening (exit code {self.proc.poll()})")

    def stop(self, client=None) -> None:
        """Stop the daemon: ``shutdown`` op, then terminate, then kill."""
        try:
            if client is not None and self.proc.poll() is None:
                try:
                    client.shutdown_daemon()
                except Exception:  # noqa: BLE001 - the kill below still runs
                    pass
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            self.kill()

    def kill(self) -> None:
        """Terminate (then kill) the child and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def server_command() -> list[str]:
    """The untraced daemon: the CLI entry point, unmodified."""
    return [sys.executable, "-m", "repro.server"]


# --------------------------------------------------------------------------- #
# Counted connections
# --------------------------------------------------------------------------- #
class OpCounts:
    """Requests sent, answered ok and failed (by error code), per op."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.sent: dict[str, int] = {}
        self.ok: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.codes: dict[str, int] = {}

    def record(self, op: str, code: Optional[str]) -> None:
        with self._lock:
            self.sent[op] = self.sent.get(op, 0) + 1
            if code is None:
                self.ok[op] = self.ok.get(op, 0) + 1
            else:
                self.failed[op] = self.failed.get(op, 0) + 1
                self.codes[code] = self.codes.get(code, 0) + 1


class Connection:
    """One TCP connection to the daemon; every call is counted and timed.

    Retries are off: an ``overloaded`` answer or a dropped connection is a
    failure the run reports, not something the client papers over.
    """

    def __init__(self, port: int, counts: OpCounts,
                 timeout: float = 60.0) -> None:
        from repro.server.client import RetryPolicy, TcpClient
        self.client = TcpClient("127.0.0.1", port, timeout=timeout,
                                retry=RetryPolicy(attempts=1))
        self.counts = counts

    def call(self, op: str, method: Callable, *args, **kwargs):
        """``(result, seconds, error code)``; result is ``None`` on failure."""
        from repro.server.client import DaemonError
        from repro.server.protocol import ProtocolError
        started = time.perf_counter()
        try:
            result = method(self.client, *args, **kwargs)
            code = None
        except DaemonError as error:
            result, code = None, error.code
        except ProtocolError:
            result, code = None, "protocol"
        elapsed = time.perf_counter() - started
        self.counts.record(op, code)
        return result, elapsed, code

    def close(self) -> None:
        self.client.close()
