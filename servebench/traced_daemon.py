"""Traced daemon launcher for the benchmark's per-layer ledger.

Installs timing wrappers on the public functions of every serving layer,
then runs the unmodified CLI entry point ``repro.server.__main__.main``.
When the daemon shuts down (``shutdown`` op), the recorded spans are
written to ``--spans-out`` as one JSON list.  Run from the repository root::

    PYTHONPATH=src python servebench/traced_daemon.py \\
        --spans-out spans.json -- --port 0

Each wrapper goes on the attribute callers actually look up at call time:
the TCP handler calls ``repro.server.tcp.decode_line``/``encode_line``, the
daemon calls ``protocol.<encoder>`` through the module and
``path_latency_all`` through its own namespace.  The client side of the
ledger is wrapped the same way by :func:`install_client_spans`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ledger import SpanRecorder


def _length_of_result(args, kwargs, result):
    return len(result)


def _length_of_line(args, kwargs, result):
    return len(args[0])


def _op_of_request(args, kwargs, result):
    return args[1].get("op")


def _stored_bytes(args, kwargs, result):
    store, kind, digest = args[:3]
    path = store._path(kind, digest)
    return path.stat().st_size if result and path.exists() else 0


def install_daemon_spans(recorder: SpanRecorder) -> None:
    """Wrap the daemon-side layer boundaries (see the module docstring)."""
    import repro.core.engine as engine
    import repro.server.daemon as daemon
    import repro.server.protocol as protocol
    import repro.server.tcp as tcp
    from repro.analysis.response_time import CanBusAnalysis
    from repro.monitor.conformance import ConformanceMonitor
    from repro.parallel import resolve_mode
    from repro.service.deltas import BusConfiguration
    from repro.service.session import AnalysisSession
    from repro.store.store import ResultStore
    from repro.whatif.session import SystemSession

    recorder.wrap(tcp, "decode_line", "tcp.decode_line", _length_of_line)
    recorder.wrap(tcp, "encode_line", "tcp.encode_line", _length_of_result)
    recorder.wrap(daemon.AnalysisDaemon, "handle", "daemon.handle",
                  _op_of_request)
    for name in ("query_result_to_json", "system_query_result_to_json",
                 "frames_from_json"):
        recorder.wrap(protocol, name, f"protocol.{name}")
    recorder.wrap(AnalysisSession, "query", "session.query")
    recorder.wrap(BusConfiguration, "build_analysis",
                  "session.build_analysis")
    recorder.wrap(CanBusAnalysis, "response_times_batch",
                  "analysis.response_times_batch")
    recorder.wrap(SystemSession, "query", "whatif.query")
    recorder.wrap(engine.CompositionalAnalysis, "run", "engine.run")
    recorder.wrap(daemon, "path_latency_all", "paths.path_latency_all")
    recorder.wrap(ResultStore, "get", "store.get")
    recorder.wrap(ResultStore, "put", "store.put", _stored_bytes)
    recorder.wrap(ConformanceMonitor, "ingest", "monitor.ingest")
    recorder.wrap(ConformanceMonitor, "status", "monitor.status")

    # Segment analyses may run on a thread pool: carry the submitting
    # span into the pool threads so their spans keep their parent.
    parallel_map = engine.parallel_map

    def propagating(fn, items, mode="auto", max_workers=None):
        items = list(items)
        if resolve_mode(mode, len(items)) != "process":
            fn = recorder.bind(fn)
        return parallel_map(fn, items, mode=mode, max_workers=max_workers)

    engine.parallel_map = propagating


def install_client_spans(recorder: SpanRecorder) -> None:
    """Wrap the client's round trip and its line codec."""
    import repro.server.client as client
    recorder.wrap(client.TcpClient, "_roundtrip", "client.roundtrip",
                  _op_of_request)
    recorder.wrap(client, "encode_line", "client.encode_line",
                  _length_of_result)
    recorder.wrap(client, "decode_line", "client.decode_line",
                  _length_of_line)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    server_argv: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, server_argv = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description="Run the analysis daemon with layer timing wrappers.")
    parser.add_argument("--spans-out", required=True,
                        help="file the recorded spans are written to")
    args = parser.parse_args(argv)

    recorder = SpanRecorder(request_starts={"tcp.decode_line"})
    install_daemon_spans(recorder)
    from repro.server.__main__ import main as serve
    try:
        return serve(server_argv)
    finally:
        out = Path(args.spans_out)
        partial = out.with_name(out.name + ".partial")
        partial.write_text(json.dumps(recorder.to_json()))
        os.replace(partial, out)


if __name__ == "__main__":
    raise SystemExit(main())
