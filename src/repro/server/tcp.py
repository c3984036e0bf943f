"""TCP front end of the analysis daemon.

A :class:`socketserver.ThreadingTCPServer` speaking the line-delimited JSON
protocol: one connection thread per client, one request per line, one
response per line, requests answered in order per connection.  Each
request is served on its connection's thread; all state lives in the
:class:`~repro.server.daemon.AnalysisDaemon` (whose session pool is
thread-safe), and the transport layer only frames bytes.

``start_server`` binds and serves in a daemon thread, returning the running
server -- the pattern examples and tests use::

    daemon = AnalysisDaemon()
    daemon.add_config("powertrain", config)
    server = start_server(daemon, port=0)       # port 0: ephemeral
    with TcpClient(*server.server_address) as client:
        client.ping()
    server.stop()

A client sending the ``shutdown`` op stops the server (and drains the
daemon) after its response line is written.
"""

from __future__ import annotations

import socketserver
import threading
import time
from typing import Optional

from repro.server.daemon import AnalysisDaemon
from repro.server.protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7677


class _RequestHandler(socketserver.StreamRequestHandler):
    """One client connection: drain request lines until EOF or shutdown.

    Two fault-injection sites live here (see :mod:`repro.server.faults`):
    ``tcp.drop`` closes the connection uncleanly instead of writing the
    response (the client sees EOF mid-request and must reconnect+retry),
    ``tcp.slow`` delays the response write (client read timeouts).
    """

    def handle(self) -> None:
        server: "DaemonServer" = self.server  # type: ignore[assignment]
        daemon = server.daemon
        for line in self.rfile:
            if server.stopped:
                # The server was stopped (or hard-restarted) while this
                # connection idled: die like the listener did, so clients
                # reconnect to whatever now owns the port instead of
                # talking to a zombie daemon.
                return
            if not line.strip():
                continue
            decode_start = time.perf_counter()
            try:
                request = decode_line(line)
            except ProtocolError as error:
                self.wfile.write(encode_line(
                    error_response(str(error), code="protocol")))
                self.wfile.flush()
                continue
            decode_ms = (time.perf_counter() - decode_start) * 1000.0
            response = daemon.handle(request, decode_ms=decode_ms)
            if daemon.faults.check("tcp.drop") is not None:
                # Unclean close *after* the work ran: exactly the window
                # where a retried idempotent request must come back
                # bit-identical, not double-applied.
                self.connection.close()
                return
            rule = daemon.faults.check("tcp.slow")
            if rule is not None:
                time.sleep(rule.arg / 1000.0)
            data = daemon.encode_response(request, response, encode_line)
            try:
                self.wfile.write(data)
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return  # client went away; nothing left to tell it
            if daemon.shutdown_requested:
                server.stop_async()
                return


class DaemonServer(socketserver.ThreadingTCPServer):
    """Threading TCP server bound to one :class:`AnalysisDaemon`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, daemon: AnalysisDaemon,
                 host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> None:
        super().__init__((host, port), _RequestHandler)
        self.daemon = daemon
        self._thread: Optional[threading.Thread] = None
        self._stop_lock = threading.Lock()
        self._stopped = False

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has begun (connections should close)."""
        return self._stopped

    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port) -- resolves ``port=0``."""
        host, port = self.server_address[:2]
        return str(host), int(port)

    def serve_in_background(self) -> "DaemonServer":
        """Start ``serve_forever`` on a daemon thread; returns self."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-daemon-tcp", daemon=True)
        self._thread.start()
        return self

    def stop(self, close_daemon: bool = True,
             grace: Optional[float] = None) -> None:
        """Stop serving, join the serve thread, optionally close the daemon.

        Safe against concurrent calls (the shutdown op stops the server from
        a background thread while the owner may call ``stop()`` too): the
        lock makes the second caller wait until the listening socket is
        actually closed, so no caller returns while the port still accepts
        connections.

        Stopping only closes the *listening* socket; established
        connections keep their handler threads, so in-flight requests
        finish (or get typed drain errors) through
        :meth:`AnalysisDaemon.close` -- ``grace`` overrides its window.
        """
        with self._stop_lock:
            if not self._stopped:
                self._stopped = True
                self.shutdown()
                self.server_close()
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)
        if close_daemon:
            self.daemon.close(grace=grace)

    def stop_async(self) -> None:
        """Stop from inside a handler thread (shutdown op)."""
        threading.Thread(target=self.stop, daemon=True).start()

    def __enter__(self) -> "DaemonServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server(daemon: AnalysisDaemon, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> DaemonServer:
    """Bind a :class:`DaemonServer` and serve it in a background thread."""
    return DaemonServer(daemon, host=host, port=port).serve_in_background()
