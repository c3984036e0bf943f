"""CLI entry point: ``python -m repro.server``.

Starts an :class:`~repro.server.daemon.AnalysisDaemon` with the standard
workloads registered and serves the line-delimited JSON protocol over TCP
until interrupted (or until a client sends ``shutdown``):

* target ``powertrain`` -- the paper's case-study K-Matrix
  (``--messages`` controls its size);
* system ``multibus`` plus per-segment shards ``multibus/CAN-<i>`` -- an
  ``--buses``-segment gateway chain for system-level requests.

Example session (from another terminal)::

    $ python -m repro.server --port 7677 &
    $ printf '%s\\n' '{"op": "health"}' | nc 127.0.0.1 7677
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.obs.tracing import DEFAULT_TRACE_RING
from repro.server.daemon import DEFAULT_GRACE, AnalysisDaemon
from repro.server.tcp import DEFAULT_HOST, DEFAULT_PORT, DaemonServer
from repro.service.deltas import BusConfiguration
from repro.store import ResultStore
from repro.workloads.multibus import multibus_system
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)


def build_daemon(messages: int = 80, buses: int = 4,
                 messages_per_bus: int = 15,
                 max_inflight: int | None = None,
                 grace: float = DEFAULT_GRACE,
                 slow_query_ms: float | None = None,
                 trace_ring: int = DEFAULT_TRACE_RING,
                 store_dir: str | None = None,
                 store_max_bytes: int | None = None,
                 monitor_window_ms: float = 100.0,
                 monitor_history: int = 128) -> AnalysisDaemon:
    """Daemon preloaded with the standard serving targets."""
    store = None
    if store_dir is not None:
        store = ResultStore(store_dir, max_bytes=store_max_bytes)
    daemon = AnalysisDaemon(max_inflight=max_inflight, grace=grace,
                            slow_query_ms=slow_query_ms,
                            trace_ring=trace_ring, store=store,
                            monitor_window_ms=monitor_window_ms,
                            monitor_history=monitor_history)
    config = PowertrainConfig(n_messages=messages)
    daemon.add_config("powertrain", BusConfiguration(
        kmatrix=powertrain_kmatrix(config),
        bus=powertrain_bus(config),
        assumed_jitter_fraction=0.15,
        controllers=powertrain_controllers(config)))
    daemon.add_system("multibus", multibus_system(
        n_buses=buses, messages_per_bus=messages_per_bus))
    return daemon


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve the what-if analysis daemon over TCP.")
    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"bind address (default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port, 0 for ephemeral "
                             f"(default {DEFAULT_PORT})")
    parser.add_argument("--messages", type=int, default=80,
                        help="size of the powertrain target (default 80)")
    parser.add_argument("--buses", type=int, default=4,
                        help="segments in the multibus system (default 4)")
    parser.add_argument("--messages-per-bus", type=int, default=15,
                        help="messages per multibus segment (default 15)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="cap on concurrently executing work requests; "
                             "beyond it clients get a typed 'overloaded' "
                             "error with a retry hint (default: unbounded)")
    parser.add_argument("--grace", type=float, default=DEFAULT_GRACE,
                        help="seconds a shutdown drains in-flight work "
                             f"before cancelling it (default {DEFAULT_GRACE})")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log requests slower than this many ms to the "
                             "'repro.slowlog' logger (default: off)")
    parser.add_argument("--trace-ring", type=int,
                        default=DEFAULT_TRACE_RING,
                        help="how many slowest traces the 'traces' op "
                             f"retains (default {DEFAULT_TRACE_RING})")
    parser.add_argument("--store-dir", default=None,
                        help="directory of the persistent result store; "
                             "restarts warm-start from it (default: off)")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        help="size bound of the store; oldest-read entries "
                             "are evicted beyond it (default: unbounded)")
    parser.add_argument("--monitor-window-ms", type=float, default=100.0,
                        help="default conformance-monitor window size a "
                             "monitor_start without window_ms inherits "
                             "(default 100)")
    parser.add_argument("--monitor-history", type=int, default=128,
                        help="default closed-window count each monitor's "
                             "metrics history retains (default 128)")
    args = parser.parse_args(argv)
    if args.store_max_bytes is not None and args.store_dir is None:
        parser.error("--store-max-bytes requires --store-dir")

    if args.slow_query_ms is not None:
        # Make sure the slow-query records reach stderr even when the
        # operator has not configured logging themselves.
        logging.basicConfig(level=logging.WARNING)

    daemon = build_daemon(messages=args.messages, buses=args.buses,
                          messages_per_bus=args.messages_per_bus,
                          max_inflight=args.max_inflight,
                          grace=args.grace,
                          slow_query_ms=args.slow_query_ms,
                          trace_ring=args.trace_ring,
                          store_dir=args.store_dir,
                          store_max_bytes=args.store_max_bytes,
                          monitor_window_ms=args.monitor_window_ms,
                          monitor_history=args.monitor_history)
    server = DaemonServer(daemon, host=args.host, port=args.port)
    if daemon.store is not None:
        print(daemon.store.describe())
    host, port = server.address
    print(f"{daemon.name} serving on {host}:{port} "
          f"(targets: {', '.join(daemon.pool.targets())}; "
          f"systems: {', '.join(daemon.pool.systems())})")
    sys.stdout.flush()
    try:
        server.serve_in_background()
        # Wait on the daemon's shutdown signal or the operator's Ctrl-C.
        while not daemon.wait_for_shutdown(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        server.stop()
    print(daemon.describe())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
