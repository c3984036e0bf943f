"""Restartable serving harness for fault-injection tests.

:class:`ServerHarness` owns a daemon *factory* instead of a daemon: it can
kill the whole serving stack mid-request and bring an identically
configured daemon back up **on the same port**, which is the scenario the
resilient clients must survive -- a daemon restart between a request and
its retry.  Because analyses are pure functions of the registered
configuration, a retried query against the restarted daemon returns a
bit-identical result (fresh caches change statistics, never values);
tests assert exactly that.

Typical use::

    def build():
        daemon = AnalysisDaemon()
        daemon.add_config("pt", config)
        return daemon

    with ServerHarness(build) as harness:
        client = TcpClient(*harness.address, retry=RetryPolicy(...))
        harness.restart()           # drop everything, same port
        client.query("pt")          # reconnects + retries transparently

The harness is deliberately *not* graceful on :meth:`restart`: it stops
the server with a zero grace window so established connections die with
unsent responses -- the hard failure mode.  Graceful drain is exercised
separately through :meth:`DaemonServer.stop`.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.server.daemon import AnalysisDaemon
from repro.server.tcp import DaemonServer


class ServerHarness:
    """A TCP serving stack that can be killed and rebuilt on one port."""

    def __init__(self, factory: Callable[[], AnalysisDaemon],
                 host: str = "127.0.0.1") -> None:
        self._factory = factory
        self._host = host
        self._port: Optional[int] = None
        self._lock = threading.Lock()
        self.server: Optional[DaemonServer] = None
        self.restarts = 0
        self.start()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); stable across restarts."""
        assert self._port is not None
        return self._host, self._port

    @property
    def daemon(self) -> AnalysisDaemon:
        """The currently serving daemon instance."""
        assert self.server is not None
        return self.server.daemon

    def start(self) -> "ServerHarness":
        """Build a fresh daemon and serve it (port 0 first, then pinned)."""
        with self._lock:
            if self.server is not None:
                return self
            server = DaemonServer(self._factory(), host=self._host,
                                  port=self._port or 0)
            self._port = server.address[1]
            server.serve_in_background()
            self.server = server
        return self

    def stop(self, grace: Optional[float] = None) -> None:
        """Stop the stack; ``grace`` as in :meth:`DaemonServer.stop`."""
        with self._lock:
            server, self.server = self.server, None
        if server is not None:
            server.stop(grace=grace)

    def restart(self) -> "ServerHarness":
        """Hard-kill the stack and rebuild it on the same port.

        Zero grace: in-flight connections die uncleanly, exactly like a
        crashed daemon.  The replacement daemon comes from the factory,
        so registered targets are back but caches start cold.
        """
        self.stop(grace=0.0)
        self.restarts += 1
        return self.start()

    def __enter__(self) -> "ServerHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop(grace=0.0)
