"""Clients of the analysis daemon.

Two transports, one API:

* :class:`InProcessClient` -- wraps an :class:`AnalysisDaemon` directly but
  still round-trips every request and response through the JSON codec, so
  it exercises byte-for-byte the wire protocol (tests and single-process
  deployments);
* :class:`TcpClient` -- a blocking socket client for the
  :mod:`repro.server.tcp` front end; thread-safe (one request in flight at
  a time per client) and self-healing: a dropped connection is re-dialled
  transparently on the next attempt.

Responses are plain decoded protocol dicts -- floats in them bit-match the
kernel's local results (see :mod:`repro.server.protocol`).  A failed
request raises :class:`DaemonError` carrying the daemon's message and
typed error ``code``; a lost connection raises :class:`ConnectionLost`
(a ``DaemonError`` with code ``"transport"``).

Retries
-------
Both clients share one :class:`RetryPolicy` (exponential backoff with
jitter).  What may be retried follows the protocol's error taxonomy:

* ``overloaded`` responses are always retryable -- the daemon rejected
  the request before running it -- and the server's ``retry_after_ms``
  hint floors the backoff delay;
* transport failures are retried as each op's ``retry`` rule in
  :data:`~repro.server.protocol.OPS` says: query ops are idempotent
  (analyses are pure), ops that mutate daemon state are re-sent only
  when no byte reached the daemon, and ``shutdown`` never is;
* ``timeout``, ``draining`` and the request-fault codes (``invalid``,
  ``protocol``, ``unknown_target``) are never retried: the outcome would
  not improve, or the caller's deadline is already spent.

Each attempt sends a fresh request ``id``, and both clients verify the
daemon echoed it back: a mismatched reply (e.g. a stale response left in
the stream by an earlier half-read) raises
:class:`~repro.server.protocol.ProtocolError` and, on TCP, poisons the
connection so the next attempt re-dials instead of desynchronising.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from itertools import count
from typing import Mapping, Optional, Sequence

from repro.reporting.tables import format_path_latency_table
from repro.server.daemon import AnalysisDaemon
from repro.server.protocol import (
    OPS,
    ProtocolError,
    config_to_json,
    decode_line,
    deltas_to_json,
    encode_line,
    paths_to_json,
    system_deltas_to_json,
    system_to_json,
)
from repro.service.deltas import BusConfiguration, Delta
from repro.whatif.system_deltas import SystemDelta


class DaemonError(RuntimeError):
    """The daemon answered ``ok: false`` (or the transport failed).

    ``code`` is the protocol's typed error code (see
    :mod:`repro.server.protocol`), plus the client-side pseudo-code
    ``"transport"`` for connection failures.  ``retry_after_ms`` carries
    the backoff hint of ``overloaded`` responses.
    """

    def __init__(self, message: str, code: str = "internal",
                 retry_after_ms: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_ms = retry_after_ms

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request can succeed (never executed)."""
        return self.code in ("overloaded", "transport")


class ConnectionLost(DaemonError):
    """The TCP connection failed; ``sent`` tells whether bytes went out."""

    def __init__(self, message: str, sent: bool) -> None:
        super().__init__(message, code="transport")
        self.sent = sent


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for retryable daemon requests.

    ``attempts`` bounds total tries (1 = no retries).  The n-th retry
    sleeps ``base_delay * multiplier**(n-1)`` seconds, capped at
    ``max_delay``, spread by ``jitter`` (a fraction: 0.5 means the delay
    is drawn uniformly from [75 %, 125 %] of nominal) so a burst of
    rejected clients does not re-arrive in lockstep.  A server-supplied
    ``retry_after_ms`` hint floors the delay.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int, rng: random.Random,
              retry_after_ms: Optional[int] = None) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        nominal = min(self.max_delay,
                      self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            nominal *= 1.0 + self.jitter * (rng.random() - 0.5)
        if retry_after_ms is not None:
            nominal = max(nominal, retry_after_ms / 1000.0)
        return nominal


#: The ``system_query`` response fields :meth:`BaseClient.analyze_system`
#: keeps: the fixed point, without the query's label, stats and tasks.
_ANALYZE_SYSTEM_FIELDS = ("system", "shards", "fingerprint", "converged",
                          "iterations", "all_deadlines_met", "messages",
                          "bus_reports")


def _unbounded(value: Optional[float]) -> "float | str":
    """A wire latency for a table cell: ``null`` reads ``unbounded``."""
    return "unbounded" if value is None else value


class BaseClient:
    """Shared typed helpers and retry loop over the raw transport."""

    retry: RetryPolicy

    def __init__(self, retry: Optional[RetryPolicy] = None) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self._ids = count(1)
        # Deterministic per-client jitter: tests that count sleeps can
        # pin it with RetryPolicy(jitter=0).
        self._rng = random.Random(0x5EED)
        self.retries = 0

    def _roundtrip(self, request: dict) -> dict:
        """Send one encoded request; return the decoded response dict."""
        raise NotImplementedError

    def request(self, op: str, **params) -> dict:
        """Send one request; return the ``result`` payload or raise.

        Transparently retries per the module docstring's rules; every
        attempt uses a fresh request ``id`` and verifies the echo.

        A ``None``-valued param is left out of the request, so typed
        callers pass optional arguments straight through.

        Any op accepts ``trace=True`` (and an optional ``trace_id``);
        the daemon's inline span tree and echoed trace id are folded
        into the returned payload under ``"trace"`` / ``"trace_id"``.
        """
        params = {key: value for key, value in params.items()
                  if value is not None}
        retry = OPS[op].retry if op in OPS else "always"
        attempt = 0
        while True:
            attempt += 1
            request = {"op": op, "id": next(self._ids), **params}
            try:
                response = self._roundtrip(request)
            except ConnectionLost as error:
                may_retry = retry == "always" or (
                    retry == "connect" and not error.sent)
                if not may_retry or attempt >= self.retry.attempts:
                    raise
                self.retries += 1
                time.sleep(self.retry.delay(attempt, self._rng))
                continue
            echoed = response.get("id")
            if echoed is not None and echoed != request["id"]:
                self._poison()
                raise ProtocolError(
                    f"response id {echoed!r} does not match request id "
                    f"{request['id']!r}; connection desynchronised")
            if response.get("ok"):
                result = response["result"]
                if isinstance(result, dict):
                    # Trace data rides at the envelope level on the wire;
                    # surface it with the payload so callers keep a single
                    # return value.
                    if "trace" in response:
                        result.setdefault("trace", response["trace"])
                    if "trace_id" in response:
                        result.setdefault("trace_id", response["trace_id"])
                return result
            code = str(response.get("code", "internal"))
            retry_after_ms = response.get("retry_after_ms")
            if code == "overloaded" and retry != "never" \
                    and attempt < self.retry.attempts:
                self.retries += 1
                time.sleep(self.retry.delay(
                    attempt, self._rng, retry_after_ms=retry_after_ms))
                continue
            raise DaemonError(
                response.get("error", "unknown daemon error"),
                code=code, retry_after_ms=retry_after_ms)

    def _poison(self) -> None:
        """Invalidate transport state after a desynchronised reply."""

    # -- liveness / inventory ------------------------------------------- #
    def ping(self) -> dict:
        return self.request("ping")

    def health(self) -> dict:
        return self.request("health")

    def stats(self) -> dict:
        return self.request("stats")

    def targets(self) -> dict:
        return self.request("targets")

    def scenarios(self) -> dict:
        return self.request("scenarios")

    # -- observability --------------------------------------------------- #
    def metrics(self, format: Optional[str] = None,
                history: bool = False,
                history_last: Optional[int] = None) -> dict:
        """Structured metrics snapshot (plus a rendered summary table).

        ``format="prometheus"`` (alias ``"text"``) additionally returns
        the Prometheus text exposition format under the ``"text"`` key.
        ``history=True`` folds in the windowed series rings of every
        running conformance monitor under ``"history"``; ``history_last``
        bounds how many windows come back per series.
        """
        return self.request(
            "metrics", format=format,
            history=history or history_last is not None or None,
            history_last=history_last)

    def traces(self, limit: Optional[int] = None) -> dict:
        """The slowest retained traces (span trees), slowest first."""
        return self.request("traces", limit=limit)

    # -- analysis ------------------------------------------------------- #
    def query(self, target: str, deltas: Sequence[Delta] = (),
              message_names: Optional[Sequence[str]] = None,
              label: Optional[str] = None,
              with_report: bool = True,
              deadline_ms: Optional[float] = None,
              trace: bool = False,
              trace_id: Optional[str] = None) -> dict:
        """One what-if query; ``deltas`` are typed Delta objects.

        ``deadline_ms`` bounds the daemon-side analysis: past it the
        request fails with a typed ``timeout`` error instead of running
        to the iteration cap.  ``trace=True`` asks the daemon for the
        request's span tree, returned under ``"trace"`` in the payload;
        a client-supplied ``trace_id`` is propagated and echoed back.
        """
        return self.request(
            "query", target=target, deltas=deltas_to_json(deltas),
            with_report=with_report,
            message_names=None if message_names is None
            else list(message_names),
            label=label, deadline_ms=deadline_ms, trace=trace or None,
            trace_id=trace_id)

    def run_scenario(self, target: str, scenario: str,
                     deadline_ms: Optional[float] = None) -> dict:
        """Execute a per-bus catalog scenario against a target."""
        return self.request("scenario", target=target, scenario=scenario,
                            deadline_ms=deadline_ms)

    def batch(self, target: str, queries: Sequence[Mapping],
              deadline_ms: Optional[float] = None) -> dict:
        """Run independent labelled queries as one request, in order.

        Each entry is ``{"deltas": [Delta, ...], "label": ...}``; deltas
        given as objects are encoded here.  A ``deadline_ms`` bounds the
        whole batch; steps that miss it come back as per-step
        ``{"error": ..., "code": ...}`` entries.
        """
        encoded = [
            {**step, "deltas": deltas_to_json(step["deltas"])}
            if step.get("deltas") and isinstance(step["deltas"][0], Delta)
            else dict(step) for step in queries]
        return self.request("batch", target=target, queries=encoded,
                            deadline_ms=deadline_ms)

    def analyze_system(self, system: str,
                       shards: Optional[Mapping[str, str]] = None,
                       deadline_ms: Optional[float] = None) -> dict:
        """Run the compositional fixed point of a registered system.

        A ``system_query`` without deltas, cut down to the fixed point:
        the system name and shard map, fingerprint, convergence,
        ``messages`` and ``bus_reports``.  ``shards`` optionally re-keys
        the per-bus report sections (pass the map a ``register`` call
        returned, or any aliasing you prefer).
        """
        response = self.system_query(system, shards=shards,
                                     deadline_ms=deadline_ms)
        return {key: response[key] for key in _ANALYZE_SYSTEM_FIELDS}

    # -- system-level what-if ------------------------------------------- #
    def register_config(self, name: str, config: BusConfiguration) -> dict:
        """Register a single-bus serving target over the wire."""
        return self.request("register", name=name,
                            config=config_to_json(config))

    def register_system(self, name: str, system) -> dict:
        """Register a system model; the response carries the shard map."""
        return self.request("register", name=name,
                            system=system_to_json(system))

    def register_workload(self, name: str, generator: str,
                          params: Optional[Mapping] = None) -> dict:
        """Register a *named workload*: the daemon expands it server-side.

        Ships ``(generator, params)`` -- kilobytes -- instead of a full
        topology; identical parameters from different clients dedupe by
        fingerprint into the same sessions and store entries.  The
        response matches :meth:`register_system` (shard map) or
        :meth:`register_config` (single target), depending on what the
        generator builds.
        """
        workload: dict = {"generator": generator}
        if params is not None:
            workload["params"] = dict(params)
        return self.request("register", name=name, workload=workload)

    def store_stats(self) -> dict:
        """Persistent-store counters and occupancy (control op)."""
        return self.request("store", action="stats")

    def store_compact(self, max_bytes: Optional[int] = None) -> dict:
        """Evict oldest-read store entries down to ``max_bytes``."""
        return self.request("store", action="compact", max_bytes=max_bytes)

    def store_clear(self) -> dict:
        """Remove every persistent-store entry."""
        return self.request("store", action="clear")

    def system_query(self, system: str,
                     deltas: Sequence[SystemDelta] = (),
                     paths: Sequence = (),
                     shards: Optional[Mapping[str, str]] = None,
                     label: Optional[str] = None,
                     deadline_ms: Optional[float] = None,
                     trace: bool = False,
                     trace_id: Optional[str] = None) -> dict:
        """One topology what-if query; ``deltas`` are typed SystemDeltas.

        ``paths`` (typed :class:`~repro.core.paths.EndToEndPath` objects)
        are evaluated against the edited topology's fixed point in the
        same request; ``shards`` re-keys the per-bus report sections.
        ``trace``/``trace_id`` behave as in :meth:`query`.
        """
        return self.request(
            "system_query", system=system,
            deltas=system_deltas_to_json(deltas),
            paths=paths_to_json(paths) or None,
            shards=None if shards is None else dict(shards),
            label=label, deadline_ms=deadline_ms, trace=trace or None,
            trace_id=trace_id)

    def system_scenario(self, system: str, scenario: str,
                        deadline_ms: Optional[float] = None) -> dict:
        """Execute a topology catalog scenario against a system."""
        return self.request("scenario", system=system, scenario=scenario,
                            deadline_ms=deadline_ms)

    def path_latency(self, system: str, paths: Sequence,
                     deltas: Sequence[SystemDelta] = (),
                     label: Optional[str] = None,
                     deadline_ms: Optional[float] = None) -> dict:
        """End-to-end path latencies under an optional delta sequence.

        A ``system_query`` with ``paths``, cut down to the system name,
        fingerprint and path entries, plus a text table rendered here
        from those entries (``unbounded`` where the wire says ``null``).
        """
        if not paths:
            raise ValueError("path_latency needs paths")
        response = self.system_query(system, deltas, paths=paths,
                                     label=label, deadline_ms=deadline_ms)
        rows = [[entry["path"], _unbounded(entry["worst_case"]),
                 entry["best_case"], _unbounded(entry["jitter"]),
                 len(entry["per_segment"])]
                for entry in response["paths"]]
        return {
            "system": response["system"],
            "fingerprint": response["fingerprint"],
            "paths": response["paths"],
            "table": format_path_latency_table(
                rows, title=f"{system}: end-to-end path latency"),
        }

    # -- conformance monitoring ----------------------------------------- #
    def monitor_start(self, target: str,
                      rules: Sequence = (),
                      window_ms: Optional[float] = None,
                      history_windows: Optional[int] = None,
                      max_arrivals: Optional[int] = None,
                      fit_max_n: Optional[int] = None,
                      deadline_ms: Optional[float] = None) -> dict:
        """Bind a conformance monitor to a registered target.

        ``rules`` are typed :class:`~repro.monitor.AlertRule` objects (or
        equivalent JSON mappings, including the one-line ``expr`` form).
        Starting over an existing monitor replaces it -- fresh windows,
        history and alert state.  Retried only on connect failure: once
        bytes may have reached the daemon, a blind re-send could wipe a
        monitor another request already started feeding.
        """
        return self.request(
            "monitor_start", target=target,
            rules=[rule.to_json() if hasattr(rule, "to_json") else dict(rule)
                   for rule in rules] or None,
            window_ms=window_ms, history_windows=history_windows,
            max_arrivals=max_arrivals, fit_max_n=fit_max_n,
            deadline_ms=deadline_ms)

    def monitor_ingest(self, target: str, frames: Sequence,
                       flush: bool = False,
                       deadline_ms: Optional[float] = None) -> dict:
        """Stream one chunk of observed frames into a running monitor.

        ``frames`` are typed :class:`~repro.monitor.ObservedFrame`
        objects (or equivalent compact arrays); ``flush=True`` closes the
        window in progress after the chunk (end-of-replay bookkeeping).
        Not idempotent -- ingesting advances window state -- so it is
        retried only when the connection failed before any bytes went
        out.
        """
        return self.request(
            "monitor_ingest", target=target,
            frames=[frame.to_json() if hasattr(frame, "to_json")
                    else list(frame) for frame in frames],
            flush=flush or None, deadline_ms=deadline_ms)

    def monitor_status(self, target: str) -> dict:
        """Snapshot of one monitor: bounds, counters, overrides, alerts."""
        return self.request("monitor_status", target=target)

    def monitor_alerts(self, target: str,
                       last: Optional[int] = None) -> dict:
        """Recent fired alerts, the active set, and the installed rules."""
        return self.request("monitor_alerts", target=target, last=last)

    def monitor_stop(self, target: str) -> dict:
        """Detach one monitor; final counters come back in the reply."""
        return self.request("monitor_stop", target=target)

    def shutdown_daemon(self) -> dict:
        """Ask the daemon to stop serving (never retried)."""
        return self.request("shutdown")

    # -- convenience ---------------------------------------------------- #
    @staticmethod
    def worst_case(result: Mapping, name: str) -> Optional[float]:
        """Worst-case response time from a ``query`` result payload."""
        return result["results"][name]["worst_case"]


class InProcessClient(BaseClient):
    """Protocol-faithful client over a daemon in the same process."""

    def __init__(self, daemon: AnalysisDaemon,
                 retry: Optional[RetryPolicy] = None) -> None:
        super().__init__(retry=retry)
        self.daemon = daemon

    def _roundtrip(self, request: dict) -> dict:
        # Encode/decode both directions: what the daemon sees is exactly
        # the object a TCP peer would deliver, typos and all, and the
        # reply is the line the TCP transport would write.  Decode time
        # flows into the trace up front, as over TCP.
        wire = encode_line(request)
        decode_start = time.perf_counter()
        wire_request = decode_line(wire)
        decode_ms = (time.perf_counter() - decode_start) * 1000.0
        response = self.daemon.handle(wire_request, decode_ms=decode_ms)
        return decode_line(
            self.daemon.encode_response(wire_request, response))


class TcpClient(BaseClient):
    """Blocking line-protocol client for the TCP front end.

    Connects lazily and reconnects transparently: a request that finds
    the connection dead (daemon restarted, injected drop, ...) re-dials
    before sending, and the retry loop in :class:`BaseClient` turns a
    mid-request drop into a fresh attempt for idempotent ops.
    """

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        super().__init__(retry=retry)
        self._host = host
        self._port = port
        self._timeout = timeout
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._lock = threading.Lock()
        self.reconnects = 0
        self._connect()  # fail fast on a wrong address

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._timeout)
        self._reader = self._socket.makefile("rb")

    def _drop_connection(self) -> None:
        sock, reader = self._socket, self._reader
        self._socket = None
        self._reader = None
        try:
            if reader is not None:
                reader.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def _poison(self) -> None:
        with self._lock:
            self._drop_connection()

    def _roundtrip(self, request: dict) -> dict:
        with self._lock:
            sent = False
            try:
                if self._socket is None:
                    self.reconnects += 1
                    self._connect()
                self._socket.sendall(encode_line(request))
                sent = True
                line = self._reader.readline()
            except (OSError, ValueError) as error:
                self._drop_connection()
                raise ConnectionLost(
                    f"connection to {self._host}:{self._port} failed: "
                    f"{error}", sent=sent) from error
            if not line:
                self._drop_connection()
                raise ConnectionLost("connection closed by daemon",
                                     sent=True)
        return decode_line(line)

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "TcpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
