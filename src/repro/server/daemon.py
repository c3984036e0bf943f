"""The long-running analysis daemon.

:class:`AnalysisDaemon` is the serving layer over the what-if service: it
owns a sharded :class:`~repro.server.pool.SessionPool` and a scenario
catalog, and answers protocol requests (see :mod:`repro.server.protocol`).
Every request runs on the thread that hands it to :meth:`handle` -- for
TCP, the connection's handler thread:

``ping`` / ``health`` / ``stats`` / ``targets`` / ``scenarios``
    Liveness, inventory and cache statistics (the stats endpoint renders
    the :func:`repro.reporting.tables.format_session_stats` table).
``query``
    Typed deltas against a registered target -- the interactive what-if
    primitive.  Results are bit-identical to a from-scratch ``analyze_all``
    of the mutated configuration (the session guarantees it).
``scenario``
    A named :class:`~repro.service.catalog.WhatIfScenario` run against
    exactly one of a ``target`` (a bus target or shard; the daemon's
    per-bus catalog) or a ``system`` (that system's topology catalog:
    message re-mapping sweep, bus-speed degradation, gateway failover).
    The session kind decides how each step is encoded.
``batch``
    Many labelled delta queries, run one after another and returned in
    request order.
``register``
    Server-side workload registration over the wire: a serialized
    single-bus configuration or a whole
    :class:`~repro.core.system.SystemModel`.  System registrations answer
    with the shard-name map (bus -> ``<name>/<bus>``), so clients address
    per-segment sessions without re-deriving shard names after a
    (re-)registration.
``system_query``
    Typed :class:`~repro.whatif.system_deltas.SystemDelta` edits against a
    registered :class:`~repro.core.system.SystemModel` -- the one system
    op.  Served through the system's
    :class:`~repro.whatif.session.SystemSession` over the pool's
    per-segment sessions, so repeated requests (and per-segment what-if
    queries in between) hit the same warm caches.  Bit-identical to a
    from-scratch engine run on the equivalently edited model; optionally
    evaluates end-to-end paths in the same request and re-keys per-bus
    sections by a client-supplied shard map.  The clients'
    ``analyze_system`` (no deltas) and ``path_latency`` (with paths) are
    forms of it.
``metrics`` / ``traces``
    Observability: a structured snapshot of the daemon's
    :class:`~repro.obs.MetricsRegistry` (optionally rendered in the
    Prometheus text exposition format) and the slowest retained request
    traces (see :mod:`repro.obs.tracing`).  Every request is traced --
    stages ``decode -> admission -> session_plan -> solve -> encode`` --
    and the span tree is returned inline when a request sets
    ``trace: true``.  ``metrics`` with ``history: true`` folds in
    the windowed time-series rings of every running conformance monitor.
``monitor_start`` / ``monitor_ingest`` / ``monitor_status`` /
``monitor_alerts`` / ``monitor_stop``
    The live conformance layer (:mod:`repro.monitor`): ``monitor_start``
    binds a :class:`~repro.monitor.ConformanceMonitor` to a registered
    target's session (optionally with declarative alert rules);
    ``monitor_ingest`` streams chunks of observed frames into it,
    flagging observed response times that exceed the *current* analytic
    bound or deadline -- re-deriving bounds through the session when the
    observed arrival envelope escapes the registered event model, so a
    flagged bound is never stale; ``monitor_status`` / ``monitor_alerts``
    answer from in-memory state (control ops: they keep working during
    overload and drain); ``monitor_stop`` detaches the monitor.
``shutdown``
    Graceful stop (the TCP front end watches :attr:`shutdown_requested`).

Transport-independent by construction: :meth:`handle` consumes and
produces plain protocol dicts, so the in-process client, the TCP server
and tests all exercise literally the same code path.

Fault tolerance
---------------
Every request may carry ``deadline_ms``; the daemon arms a
:class:`~repro.cancel.CancelToken` from it and threads the token into the
request's fixed-point loops, so a divergent or oversized analysis returns
a typed ``timeout`` error instead of pinning a thread to the iteration
cap.  Admission control bounds concurrently executing work requests
(``max_inflight``); beyond it, the daemon answers a typed ``overloaded``
error carrying a ``retry_after_ms`` backoff hint -- the request never ran,
so clients can always retry it.  Control ops (``ping``/``health``/
``stats``/``targets``/``scenarios``/``shutdown``) bypass admission control
and keep answering during overload and drain.  :meth:`close` drains
gracefully: new work is rejected with a typed ``draining`` error,
in-flight requests get a grace window to finish, and whatever remains is
cooperatively cancelled -- every in-flight client gets an error
*response*, never a dead socket.
See :mod:`repro.server.protocol` for the full error taxonomy and
:mod:`repro.server.faults` for the deterministic fault-injection seam
(``REPRO_FAULTS``).
"""

from __future__ import annotations

import logging
import sys
import threading
import time
from typing import Mapping, Optional

from repro.cancel import Cancelled, CancelToken, DeadlineExceeded
from repro.core.paths import path_latency_all
from repro.core.system import SystemModel
from repro.monitor.conformance import ConformanceMonitor, MonitorConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    DEFAULT_TRACE_RING,
    SlowQueryLog,
    Trace,
    TraceRing,
)
from repro.reporting.tables import format_metrics_table, format_session_stats
from repro.server import faults as faults_mod
from repro.server import protocol
from repro.server.pool import SessionPool, UnknownTargetError
from repro.service.catalog import ScenarioCatalog, builtin_catalog
from repro.service.deltas import BusConfiguration
from repro.sim.trace import UnknownMessageError
from repro.whatif.catalog import builtin_system_catalog
from repro.whatif.session import SystemSession
from repro.workloads.registry import builtin_registry

_log = logging.getLogger(__name__)

#: Default grace window (seconds) :meth:`AnalysisDaemon.close` waits for
#: in-flight work requests before cancelling them.
DEFAULT_GRACE = 10.0

#: How long :meth:`AnalysisDaemon.close` waits, after cancelling, for the
#: cancelled requests to unwind and answer.
_CANCEL_WAIT = 2.0

#: Ops that answer from in-memory state: they bypass admission control and
#: keep being served while the daemon is overloaded or draining, so
#: monitoring (and the shutdown request itself) always gets through.
_CONTROL_OPS = frozenset(
    {"ping", "health", "stats", "targets", "scenarios", "metrics",
     "traces", "store", "monitor_status", "monitor_alerts",
     "monitor_stop", "shutdown"})


class AnalysisDaemon:
    """Multi-client analysis server over a sharded session pool.

    ``max_inflight`` bounds concurrently executing *work* requests
    (control ops are exempt).  ``grace`` is the drain window of
    :meth:`close` in seconds.  ``faults`` injects deterministic failures
    for tests (default: whatever ``REPRO_FAULTS`` specifies; see
    :mod:`repro.server.faults`).

    ``store`` is an optional :class:`~repro.store.ResultStore`; its
    registry becomes the daemon's :class:`~repro.obs.MetricsRegistry`
    (without a store, a fresh one), shared with the pool and every
    session, system session and monitor.  ``trace_ring`` bounds how many
    slowest traces the ``traces`` op retains; ``slow_query_ms`` enables
    the structured slow-query log at that threshold in milliseconds
    (default: off).

    ``monitor_window_ms`` / ``monitor_history`` are the defaults a
    ``monitor_start`` without explicit parameters inherits: the
    conformance window size and how many closed windows the per-monitor
    metrics history retains.
    """

    def __init__(
        self,
        catalog: Optional[ScenarioCatalog] = None,
        name: str = "repro-daemon",
        max_inflight: Optional[int] = None,
        grace: float = DEFAULT_GRACE,
        faults: Optional[faults_mod.FaultInjector] = None,
        slow_query_ms: Optional[float] = None,
        trace_ring: int = DEFAULT_TRACE_RING,
        store=None,
        workloads=None,
        monitor_window_ms: float = 100.0,
        monitor_history: int = 128,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.name = name
        self.catalog = catalog if catalog is not None else builtin_catalog()
        # One registry for the whole serving stack: the store's, so its
        # lookups count next to the sessions that make them.
        self.store = store
        self.metrics = store.metrics if store is not None \
            else MetricsRegistry()
        self.pool = SessionPool(metrics=self.metrics, store=store)
        self.workloads = workloads if workloads is not None \
            else builtin_registry()
        self.traces = TraceRing(trace_ring)
        self.slowlog = SlowQueryLog(slow_query_ms)
        self.max_inflight = max_inflight
        self.grace = grace
        self.faults = faults if faults is not None else faults_mod.from_env()
        if monitor_window_ms <= 0:
            raise ValueError("monitor_window_ms must be positive")
        if monitor_history < 1:
            raise ValueError("monitor_history must be at least 1")
        self.monitor_window_ms = float(monitor_window_ms)
        self.monitor_history = int(monitor_history)
        self._monitors: dict[str, ConformanceMonitor] = {}
        self._monitor_lock = threading.Lock()
        self._system_sessions: dict[str, SystemSession] = {}
        self._system_catalogs: dict[str, ScenarioCatalog] = {}
        self._engine_lock = threading.Lock()
        self._started = time.monotonic()
        self._shutdown = threading.Event()
        # In-flight work-request accounting: the token registry is what a
        # drain cancels, the counter is what admission control bounds and
        # what close() waits on (``_idle`` is notified when it hits 0).
        self._active_lock = threading.Lock()
        self._idle = threading.Condition(self._active_lock)
        self._active_tokens: dict[int, CancelToken] = {}
        self._active_seq = 0
        self._inflight = 0
        self._draining = False
        # Per-thread stash of the request being handled (so op handlers
        # can attach session spans) and of the last finished trace (so
        # the transport can fold in encode time; see take_trace).
        self._trace_local = threading.local()
        self._m_inflight = self.metrics.gauge("daemon_inflight")
        self._m_admission = {
            "accepted": self.metrics.counter(
                "daemon_admission_total", decision="accepted"),
            "rejected_overload": self.metrics.counter(
                "daemon_admission_total", decision="rejected_overload"),
            "rejected_draining": self.metrics.counter(
                "daemon_admission_total", decision="rejected_draining"),
        }
        self._ops = {
            "ping": self._op_ping,
            "health": self._op_health,
            "stats": self._op_stats,
            "targets": self._op_targets,
            "scenarios": self._op_scenarios,
            "query": self._op_query,
            "scenario": self._op_scenario,
            "batch": self._op_batch,
            "register": self._op_register,
            "system_query": self._op_system_query,
            "metrics": self._op_metrics,
            "traces": self._op_traces,
            "store": self._op_store,
            "monitor_start": self._op_monitor_start,
            "monitor_ingest": self._op_monitor_ingest,
            "monitor_status": self._op_monitor_status,
            "monitor_alerts": self._op_monitor_alerts,
            "monitor_stop": self._op_monitor_stop,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------ #
    # Registration (server-side; the protocol itself is read-only)
    # ------------------------------------------------------------------ #
    def add_config(self, name: str, config: BusConfiguration) -> None:
        """Serve a single-bus configuration under ``name``."""
        self.pool.add_config(name, config)

    def add_system(self, name: str, system: SystemModel) -> dict[str, str]:
        """Serve a system model; returns its shard-name map.

        The map (bus name -> ``<name>/<bus>`` shard target) is what the
        ``register`` response forwards to clients.  Re-registering a name
        drops any cached system session and topology catalog for it, so
        later system requests analyse the new model, not the old one.
        """
        shards = self.pool.add_system(name, system)
        with self._engine_lock:
            self._system_sessions.pop(name, None)
            self._system_catalogs.pop(name, None)
        return shards

    def _system_session(self, name: str) -> SystemSession:
        """The (lazily created) system session of a registered system.

        Built over the pool's shard sessions, so per-shard ``query``
        requests and system-level requests share one warm cache; the
        session itself re-fingerprints the registered model per query, so
        even in-place gateway or ECU edits between requests can never
        serve a stale fixed point.
        """
        system, sessions = self.pool.system(name)
        with self._engine_lock:
            session = self._system_sessions.get(name)
            if session is None or session.base_system is not system:
                session = SystemSession(
                    system, sessions=sessions, name=f"{self.name}:{name}",
                    metrics=self.metrics, store=self.store)
                self._system_sessions[name] = session
            return session

    def _system_catalog(self, name: str) -> ScenarioCatalog:
        """The (lazily derived) topology scenario catalog of one system."""
        system, _ = self.pool.system(name)
        with self._engine_lock:
            catalog = self._system_catalogs.get(name)
            if catalog is None:
                catalog = builtin_system_catalog(system)
                self._system_catalogs[name] = catalog
            return catalog

    @property
    def shutdown_requested(self) -> bool:
        """Whether a client asked the daemon to stop."""
        return self._shutdown.is_set()

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown request arrives (or the timeout passes)."""
        return self._shutdown.wait(timeout)

    def close(self, grace: Optional[float] = None) -> None:
        """Drain and stop the daemon (idempotent).

        New work requests are rejected with a typed ``draining`` error
        immediately; in-flight requests get up to ``grace`` seconds
        (default: the constructor's) to finish; the remainder is
        cooperatively cancelled, so every outstanding request resolves with
        a typed error response -- never a hang.  Returns once no work
        request is in flight, or at most :data:`_CANCEL_WAIT` seconds after
        cancelling (a request that ignores its token is not waited for).
        """
        if grace is None:
            grace = self.grace
        self._shutdown.set()
        with self._idle:
            self._draining = True
            if self._idle.wait_for(lambda: self._inflight == 0,
                                   timeout=max(0.0, grace)):
                return
            tokens = list(self._active_tokens.values())
        for token in tokens:
            token.cancel(reason="draining")
        # Cancelled requests unwind at their next fixed-point iteration.
        with self._idle:
            self._idle.wait_for(lambda: self._inflight == 0,
                                timeout=_CANCEL_WAIT)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def handle(self, request: Mapping, *,
               decode_ms: Optional[float] = None) -> dict:
        """Serve one protocol request dict; always returns a response dict.

        Never raises: every error is reported as ``{"ok": false, "code":
        ...}`` (see the taxonomy in :mod:`repro.server.protocol`) so one
        malformed -- or timed-out, or drain-cancelled -- request cannot
        take down a connection.  An exception outside the taxonomy is
        answered as ``internal``.

        Every request is traced (stages ``decode`` -> ``admission`` ->
        ``session_plan`` -> ``solve``; the transport folds in ``encode``
        via :meth:`take_trace`); the slowest traces
        are retained for the ``traces`` op, and the span tree is returned
        inline when the request sets ``trace: true``.  ``decode_ms`` is
        the transport's line-decode time.
        """
        request_id = request.get("id")
        op = request.get("op")
        handler = self._ops.get(op)
        # Label cardinality stays bounded: unknown (client-invented) op
        # strings all map to "?" in metrics and traces.
        op_name = str(op) if handler is not None else "?"
        self.metrics.counter("daemon_requests_total", op=op_name).inc()
        requested_id = request.get("trace_id")
        target = request.get("target") or request.get("system")
        trace = Trace(
            op=op_name,
            target=str(target) if target is not None else None,
            trace_id=str(requested_id) if requested_id is not None else None,
            inline=bool(request.get("trace")))
        if decode_ms is not None:
            trace.backdate(float(decode_ms))
            trace.record("decode", float(decode_ms))
        try:
            response = self._dispatch(request, request_id, op, handler, trace)
        except Exception as error:  # noqa: BLE001 - outermost guard
            _log.exception("unhandled error serving op %r", op_name)
            response = self._error(f"{type(error).__name__}: {error}",
                                   request_id, code="internal")
        return self._finalize_trace(
            trace, response,
            echo=trace.inline or requested_id is not None)

    def _dispatch(self, request: Mapping, request_id, op, handler,
                  trace: Trace) -> dict:
        """Admission control plus op dispatch for one (traced) request."""
        if handler is None:
            return self._error(
                f"unknown op {op!r}; supported: "
                f"{', '.join(sorted(self._ops))}", request_id, code="invalid")
        try:
            cancel = self._cancel_for(request)
        except protocol.ProtocolError as error:
            return self._error(str(error), request_id, code="protocol")
        control = op in _CONTROL_OPS
        token_key = None
        rejection = None
        admission = trace.begin("admission")
        if not control:
            with self._active_lock:
                if self._draining:
                    self._m_admission["rejected_draining"].inc()
                    rejection = self._error(
                        f"daemon {self.name} is draining", request_id,
                        code="draining")
                elif self.max_inflight is not None \
                        and self._inflight >= self.max_inflight:
                    self._m_admission["rejected_overload"].inc()
                    rejection = self._error(
                        f"daemon at max in-flight requests "
                        f"({self.max_inflight})", request_id,
                        code="overloaded",
                        retry_after_ms=50 * max(1, self._inflight))
                else:
                    self._inflight += 1
                    self._m_inflight.set(self._inflight)
                    self._m_admission["accepted"].inc()
                    # Every work request gets a token -- deadline-less when
                    # the request has none -- so a drain can always cancel
                    # it.
                    if cancel is None:
                        cancel = CancelToken()
                    self._active_seq += 1
                    token_key = self._active_seq
                    self._active_tokens[token_key] = cancel
            if rejection is None:
                rule = self.faults.check("handle.stall")
                if rule is not None:
                    time.sleep(rule.arg / 1000.0)
        trace.end(admission)
        if rejection is not None:
            return rejection
        self._trace_local.current = trace
        try:
            return self._reply(handler(request, cancel), request_id)
        except DeadlineExceeded:
            return self._error(
                f"deadline of {request.get('deadline_ms')} ms exceeded",
                request_id, code="timeout")
        except Cancelled as error:
            code = "draining" if error.reason == "draining" else "timeout"
            return self._error(str(error), request_id, code=code)
        except UnknownTargetError as error:
            return self._error(str(error), request_id, code="unknown_target")
        except UnknownMessageError as error:
            # A KeyError subclass: must outrank the generic "invalid"
            # mapping below so a frame naming an unregistered message gets
            # the same taxonomy slot as an unregistered target.
            return self._error(str(error), request_id, code="unknown_target")
        except protocol.ProtocolError as error:
            return self._error(str(error), request_id, code="protocol")
        except (KeyError, ValueError, TypeError, AttributeError) as error:
            # AttributeError covers type-malformed but valid-JSON params
            # (e.g. a string where a list of objects belongs): the contract
            # is an error *response*, never a dead connection.
            return self._error(str(error) or repr(error), request_id,
                               code="invalid")
        finally:
            self._trace_local.current = None
            if not control:
                with self._idle:
                    self._inflight -= 1
                    self._m_inflight.set(self._inflight)
                    if token_key is not None:
                        self._active_tokens.pop(token_key, None)
                    if self._inflight == 0:
                        self._idle.notify_all()

    @staticmethod
    def _cancel_for(request: Mapping) -> Optional[CancelToken]:
        """The request's deadline token (``None`` without ``deadline_ms``)."""
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, bool) or \
                not isinstance(deadline_ms, (int, float)):
            raise protocol.ProtocolError(
                f"deadline_ms must be a positive number, "
                f"got {deadline_ms!r}")
        # Also rejects NaN, inf and integers beyond the float range.
        if not 0 < deadline_ms <= sys.float_info.max:
            raise protocol.ProtocolError(
                f"deadline_ms must be finite and positive, "
                f"got {deadline_ms!r}")
        return CancelToken.after_ms(float(deadline_ms))

    def _finalize_trace(self, trace: Trace, response: dict,
                        echo: bool) -> dict:
        """Close a request's trace: metrics, retention, slow log, echo."""
        duration = trace.finish()
        self.metrics.histogram("daemon_op_ms", op=trace.op).observe(duration)
        self.traces.add(trace)
        if self.slowlog.threshold_ms is not None:
            result = response.get("result")
            fingerprint = result.get("fingerprint") \
                if isinstance(result, dict) else None
            self.slowlog.maybe_log(trace, fingerprint=fingerprint)
        if echo:
            response["trace_id"] = trace.trace_id
        if trace.inline:
            response["trace"] = trace.to_json()
        self._trace_local.finished = trace
        return response

    def take_trace(self) -> Optional[Trace]:
        """Pop the trace of the request this thread just handled.

        Transport hook: the TCP server (and the in-process client) call
        it after :meth:`handle` to fold their line-encode time into the
        trace's ``encode`` span -- the trace object is already retained
        by reference, so the amendment shows up in ``traces`` output too.
        """
        trace = getattr(self._trace_local, "finished", None)
        self._trace_local.finished = None
        return trace

    def _current_trace(self) -> Optional[Trace]:
        """The trace of the request being handled on this thread."""
        return getattr(self._trace_local, "current", None)

    def _reply(self, result: dict, request_id) -> dict:
        response = {"ok": True, "result": result}
        if request_id is not None:
            response["id"] = request_id
        return response

    def _error(self, message: str, request_id, code: str = "internal",
               retry_after_ms: Optional[int] = None) -> dict:
        """A typed error response, counted in ``daemon_errors_total``.

        ``batch`` step slots come through here too (their ``ok``/``id``
        keys dropped), so every error the daemon reports is counted once.
        """
        self.metrics.counter("daemon_errors_total", code=code).inc()
        return protocol.error_response(
            message, code=code, request_id=request_id,
            retry_after_ms=retry_after_ms)

    def _step_error(self, message: str, code: str) -> dict:
        """The error slot of one failed ``batch`` step."""
        slot = self._error(message, None, code=code)
        del slot["ok"]
        return slot

    def _counts(self) -> dict:
        """Request and error totals, read from the metrics registry."""
        ops = self.metrics.family("daemon_requests_total", "op")
        codes = self.metrics.family("daemon_errors_total", "code")
        return {
            "requests_served": int(sum(ops.values())),
            "errors": int(sum(codes.values())),
            "timeouts": int(codes.get("timeout", 0)),
            "rejected_overload": int(codes.get("overloaded", 0)),
            "rejected_draining": int(codes.get("draining", 0)),
            "ops": {op: int(count) for op, count in ops.items()},
        }

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _op_ping(self, request: Mapping, cancel=None) -> dict:
        return {"pong": True, "name": self.name}

    def _op_health(self, request: Mapping, cancel=None) -> dict:
        causes: list[str] = []
        status = "ok"
        if self._draining:
            status = "draining"
            causes.append("daemon is draining")
        # Conformance alerts are health conditions: an active alert means
        # observed behaviour is out of its declared envelope right now.
        with self._monitor_lock:
            monitors = sorted(self._monitors.items())
        active_alerts = 0
        for monitor_target, monitor in monitors:
            active = monitor.engine.active
            if active:
                active_alerts += len(active)
                causes.append(
                    f"monitor {monitor_target}: {len(active)} active "
                    f"alert(s)")
        if status == "ok" and active_alerts:
            status = "degraded"
        with self._active_lock:
            inflight = self._inflight
        counts = self._counts()
        return {
            "status": status,
            "causes": causes,
            "name": self.name,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sessions": len(self.pool),
            "targets": self.pool.targets(),
            "systems": self.pool.systems(),
            "scenarios": self.catalog.names(),
            "monitors": [name for name, _ in monitors],
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            # Metrics-derived signals: the observable inputs behind the
            # status flag, so "degraded" always has a visible cause.
            "signals": {
                "inflight": inflight,
                "max_inflight": self.max_inflight,
                "rejected_overload": counts["rejected_overload"],
                "rejected_draining": counts["rejected_draining"],
                "timeouts": counts["timeouts"],
                "monitor_active_alerts": active_alerts,
            },
        }

    def _op_stats(self, request: Mapping, cancel=None) -> dict:
        stats = self.pool.stats()
        return {
            **self._counts(),
            "sessions": [protocol.session_stats_to_json(s) for s in stats],
            "evicted_sessions": self.pool.evicted_sessions,
            "faults": self.faults.describe(),
            "table": format_session_stats(
                stats, title=f"{self.name}: session statistics"),
        }

    def _op_targets(self, request: Mapping, cancel=None) -> dict:
        return {"targets": self.pool.targets(),
                "systems": self.pool.systems()}

    def _op_scenarios(self, request: Mapping, cancel=None) -> dict:
        def entries(catalog: ScenarioCatalog) -> list[dict]:
            return [{"name": scenario.name,
                     "queries": len(scenario.queries),
                     "description": scenario.description}
                    for scenario in map(catalog.get, catalog.names())]

        return {
            "scenarios": entries(self.catalog),
            "system_scenarios": {
                system: entries(self._system_catalog(system))
                for system in self.pool.systems()},
        }

    def _op_query(self, request: Mapping, cancel=None) -> dict:
        session = self.pool.get(str(request["target"]))
        deltas = protocol.deltas_from_json(request.get("deltas", ()))
        message_names = request.get("message_names")
        if message_names is not None:
            message_names = [str(n) for n in message_names]
        result = session.query(
            deltas,
            message_names=message_names,
            label=request.get("label"),
            with_report=bool(request.get("with_report", True)),
            cancel=cancel,
            trace=self._current_trace(),
        )
        return protocol.query_result_to_json(result)

    def _op_scenario(self, request: Mapping, cancel=None) -> dict:
        """A named scenario against a bus ``target`` or a ``system``."""
        target, system = request.get("target"), request.get("system")
        if (target is None) == (system is None):
            raise protocol.ProtocolError(
                "scenario needs exactly one of 'target' or 'system'")
        if target is not None:
            key, name = "target", str(target)
            session = self.pool.get(name)
            catalog, encode = self.catalog, protocol.query_result_to_json
        else:
            key, name = "system", str(system)
            session = self._system_session(name)
            catalog = self._system_catalog(name)
            encode = protocol.system_query_result_to_json
        run = catalog.run(str(request["scenario"]), session, cancel=cancel,
                          trace=self._current_trace())
        return {
            key: name,
            "scenario": run.scenario,
            "session": run.session,
            "queries": [encode(query) for query in run.queries],
            "table": run.to_table(),
        }

    def _op_batch(self, request: Mapping, cancel=None) -> dict:
        """Independent labelled delta queries, run in request order.

        The steps run one after another on the request's own thread,
        under its cancel token and its one in-flight slot, so a batch
        aggregates exactly like a serial loop of ``query`` requests.

        Failures resolve *per step*: a timed-out, drain-cancelled or
        unexpectedly failing step yields an ``{"error": ..., "code": ...}``
        entry in its slot while every other step's result stays
        bit-identical to a serial run.  The batch as a whole still answers
        ``ok``; a malformed step fails it before any step runs.
        """
        target = str(request["target"])
        session = self.pool.get(target)
        steps = request.get("queries", ())
        if not isinstance(steps, (list, tuple)) or not all(
                isinstance(step, Mapping) for step in steps):
            raise ValueError("batch field 'queries' must be a list of "
                             "objects")
        decoded = [(protocol.deltas_from_json(step.get("deltas", ())),
                    step.get("label"), bool(step.get("with_report", True)))
                   for step in steps]
        trace = self._current_trace()
        results = []
        for deltas, label, with_report in decoded:
            rule = self.faults.check("worker.stall")
            if rule is not None:
                time.sleep(rule.arg / 1000.0)
            try:
                if cancel is not None:
                    cancel.check()
                result = session.query(deltas, label=label,
                                       with_report=with_report,
                                       cancel=cancel, trace=trace)
                results.append(protocol.query_result_to_json(result))
            except DeadlineExceeded:
                results.append(self._step_error(
                    "deadline exceeded", "timeout"))
            except Cancelled as error:
                code = ("draining" if error.reason == "draining"
                        else "timeout")
                results.append(self._step_error(str(error), code))
            except Exception as error:  # noqa: BLE001 - typed per-step slot
                _log.exception("unhandled error in a batch step on %r",
                               target)
                results.append(self._step_error(
                    str(error) or repr(error), "internal"))
        return {"target": target, "results": results}

    def _op_register(self, request: Mapping, cancel=None) -> dict:
        """Server-side workload registration over the wire.

        ``{"name": ..., "system": {...}}`` registers a system (response
        carries the shard-name map); ``{"name": ..., "config": {...}}``
        registers a single-bus target; ``{"name": ..., "workload":
        {"generator": ..., "params": {...}}}`` expands a *named workload*
        server-side -- the client ships kilobytes of parameters, the
        daemon builds the topology, and identical parameters from
        different clients dedupe by fingerprint into the same pool
        sessions and store entries.
        """
        name = str(request["name"])
        if "system" in request:
            system = protocol.system_from_json(request["system"])
            shards = self.add_system(name, system)
            return {"system": name, "shards": shards,
                    "scenarios": self._system_catalog(name).names()}
        if "config" in request:
            config = protocol.config_from_json(request["config"])
            self.add_config(name, config)
            return {"target": name}
        if "workload" in request:
            spec = request["workload"]
            if not isinstance(spec, Mapping) or "generator" not in spec:
                raise protocol.ProtocolError(
                    "workload payload needs a 'generator' name")
            generator = str(spec["generator"])
            params = spec.get("params") or {}
            if not isinstance(params, Mapping):
                raise protocol.ProtocolError(
                    "workload 'params' must be an object")
            # UnknownWorkloadError / bad parameters are ValueErrors: the
            # dispatcher maps them to a typed ``invalid`` error response.
            workload = self.workloads.expand(generator, params)
            if isinstance(workload, BusConfiguration):
                self.add_config(name, workload)
                return {"target": name, "generator": generator}
            shards = self.add_system(name, workload)
            return {"system": name, "generator": generator,
                    "shards": shards,
                    "scenarios": self._system_catalog(name).names()}
        raise protocol.ProtocolError(
            "register needs a 'system', 'config' or 'workload' payload")

    def _shard_names(self, name: str,
                     override: "Mapping | None") -> dict[str, str]:
        """Bus -> reported-name map of one system (client override wins).

        ``override`` is the shard map a client got back from ``register``
        (or any aliasing it prefers); unknown buses in it are an error so
        typos fail loudly instead of silently dropping a segment.
        """
        shards = self.pool.shard_map(name)
        if override:
            unknown = set(override) - set(shards)
            if unknown:
                raise protocol.ProtocolError(
                    f"shard map names unknown buses: {sorted(unknown)}")
            shards.update({str(bus): str(alias)
                           for bus, alias in override.items()})
        return shards

    def _op_system_query(self, request: Mapping, cancel=None) -> dict:
        """Typed topology deltas against a registered system."""
        name = str(request["system"])
        session = self._system_session(name)
        deltas = protocol.system_deltas_from_json(request.get("deltas", ()))
        shards = self._shard_names(name, request.get("shards"))
        outcome = session.query(deltas, label=request.get("label"),
                                cancel=cancel, trace=self._current_trace())
        response = protocol.system_query_result_to_json(outcome)
        response["system"] = name
        response["shards"] = shards
        response["bus_reports"] = {
            shards.get(bus, bus): report
            for bus, report in response["bus_reports"].items()}
        if "paths" in request:
            paths = protocol.paths_from_json(request["paths"])
            response["paths"] = [
                protocol.path_latency_to_json(latency)
                for latency in path_latency_all(
                    paths, outcome.system, outcome.result)]
        return response

    def _op_metrics(self, request: Mapping, cancel=None) -> dict:
        """Structured snapshot of the daemon's metrics registry.

        ``{"format": "prometheus"}`` (or ``"text"``) additionally
        renders the text exposition format under ``"text"``;
        ``{"history": true}`` folds in every running conformance
        monitor's windowed series rings (``history_last`` bounds how
        many windows per series), answering "the last N windows" next
        to the registry's "since boot".
        """
        snapshot = self.metrics.snapshot()
        result = {
            "metrics": snapshot,
            "table": format_metrics_table(
                snapshot, title=f"{self.name}: metrics"),
        }
        fmt = request.get("format")
        if fmt in ("text", "prometheus"):
            result["text"] = self.metrics.render_prometheus()
        elif fmt is not None:
            raise protocol.ProtocolError(
                f"unknown metrics format {fmt!r}; "
                f"supported: 'text'/'prometheus'")
        if request.get("history"):
            last = request.get("history_last")
            if last is not None and (
                    isinstance(last, bool) or not isinstance(last, int)
                    or last < 1):
                raise protocol.ProtocolError(
                    f"history_last must be a positive integer, "
                    f"got {last!r}")
            with self._monitor_lock:
                monitors = sorted(self._monitors.items())
            result["history"] = {
                name: monitor.history.snapshot(last)
                for name, monitor in monitors}
        return result

    def _op_traces(self, request: Mapping, cancel=None) -> dict:
        """The retained slowest traces, slowest first."""
        limit = request.get("limit")
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int) \
                    or limit < 1:
                raise protocol.ProtocolError(
                    f"limit must be a positive integer, got {limit!r}")
        return {
            "traces": self.traces.snapshot(limit),
            "retained": len(self.traces),
            "capacity": self.traces.capacity,
            "seen": self.traces.seen,
            "slow_query_ms": self.slowlog.threshold_ms,
            "slow_queries_logged": self.slowlog.emitted,
        }

    def _op_store(self, request: Mapping, cancel=None) -> dict:
        """Persistent-store maintenance: stats (default), compact, clear.

        A daemon without a configured store answers ``enabled: false``
        instead of erroring, so fleet-wide monitoring can blindly poll.
        """
        action = str(request.get("action", "stats"))
        if action not in ("stats", "compact", "clear"):
            raise protocol.ProtocolError(
                f"unknown store action {action!r}; "
                f"supported: 'stats'/'compact'/'clear'")
        if self.store is None:
            return {"enabled": False, "action": action}
        if action == "compact":
            max_bytes = request.get("max_bytes")
            if max_bytes is not None and (
                    isinstance(max_bytes, bool)
                    or not isinstance(max_bytes, int) or max_bytes < 0):
                raise protocol.ProtocolError(
                    f"max_bytes must be a non-negative integer, "
                    f"got {max_bytes!r}")
            stats = self.store.compact(max_bytes)
            return {"enabled": True, "action": action, "stats": stats}
        if action == "clear":
            removed = self.store.clear()
            return {"enabled": True, "action": action, "removed": removed,
                    "stats": self.store.stats()}
        return {"enabled": True, "action": action,
                "stats": self.store.stats()}

    # ------------------------------------------------------------------ #
    # Conformance monitoring (protocol v6)
    # ------------------------------------------------------------------ #
    def _monitor_for(self, target: str) -> ConformanceMonitor:
        """The running monitor of one target (typed error when absent)."""
        with self._monitor_lock:
            monitor = self._monitors.get(target)
            if monitor is None:
                raise UnknownTargetError(target, sorted(self._monitors))
        return monitor

    def _op_monitor_start(self, request: Mapping, cancel=None) -> dict:
        """Bind (or re-bind) a conformance monitor to a registered target.

        Starting over an existing monitor replaces it wholesale -- fresh
        windows, history, fitted overrides and alert state -- so a replay
        always begins from the registered event models, not from whatever
        a previous stream fitted.
        """
        target = str(request["target"])
        session = self.pool.get(target)
        window_ms = request.get("window_ms", self.monitor_window_ms)
        history = request.get("history_windows", self.monitor_history)
        if isinstance(window_ms, bool) \
                or not isinstance(window_ms, (int, float)):
            raise protocol.ProtocolError(
                f"window_ms must be a positive number, got {window_ms!r}")
        if isinstance(history, bool) or not isinstance(history, int):
            raise protocol.ProtocolError(
                f"history_windows must be a positive integer, "
                f"got {history!r}")
        extras = {}
        for key in ("max_arrivals", "fit_max_n"):
            value = request.get(key)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise protocol.ProtocolError(
                    f"{key} must be an integer, got {value!r}")
            extras[key] = value
        # Range validation happens in MonitorConfig (ValueError -> the
        # typed ``invalid`` response).
        config = MonitorConfig(
            window_ms=protocol.float_field(
                request, "window_ms", self.monitor_window_ms),
            history_windows=history, **extras)
        rules = protocol.alert_rules_from_json(request.get("rules", ()))
        monitor = ConformanceMonitor(
            session, target=target, config=config, rules=rules,
            metrics=self.metrics, trace_ring=self.traces,
            slow_log=self.slowlog)
        with self._monitor_lock:
            self._monitors[target] = monitor
        return {
            "target": target,
            "window_ms": config.window_ms,
            "history_windows": config.history_windows,
            "messages": sorted(monitor.status()["messages"]),
            "rules": [rule.describe() for rule in rules],
        }

    def _op_monitor_ingest(self, request: Mapping, cancel=None) -> dict:
        """Stream one chunk of observed frames into a running monitor.

        ``{"flush": true}`` additionally closes the window in progress
        after the chunk -- end-of-replay bookkeeping, so trailing alert
        evaluation is not left waiting for a frame that never comes.
        """
        target = str(request["target"])
        monitor = self._monitor_for(target)
        frames = protocol.frames_from_json(request.get("frames", ()))
        report = monitor.ingest(frames, cancel=cancel)
        if request.get("flush"):
            tail = monitor.flush(cancel=cancel)
            report.windows_closed += tail.windows_closed
            report.refits += tail.refits
            report.violations.extend(tail.violations)
            report.alerts.extend(tail.alerts)
        result = report.to_json()
        result["target"] = target
        result["violations_total"] = monitor.violations_total
        return result

    def _op_monitor_status(self, request: Mapping, cancel=None) -> dict:
        """Snapshot of one monitor: bounds, counts, overrides, alerts."""
        return self._monitor_for(str(request["target"])).status()

    def _op_monitor_alerts(self, request: Mapping, cancel=None) -> dict:
        """Recent fired alerts, the active set, and the installed rules."""
        monitor = self._monitor_for(str(request["target"]))
        last = request.get("last")
        if last is not None and (
                isinstance(last, bool) or not isinstance(last, int)
                or last < 1):
            raise protocol.ProtocolError(
                f"last must be a positive integer, got {last!r}")
        result = monitor.alerts(last)
        result["rules"] = [rule.to_json()
                           for rule in monitor.engine.rules]
        return result

    def _op_monitor_stop(self, request: Mapping, cancel=None) -> dict:
        """Detach one monitor; its final counters come back in the reply."""
        target = str(request["target"])
        with self._monitor_lock:
            monitor = self._monitors.pop(target, None)
            if monitor is None:
                raise UnknownTargetError(target, sorted(self._monitors))
        status = monitor.status()
        return {
            "target": target,
            "stopped": True,
            "frames": status["frames"],
            "violations": status["violations"],
            "refits": status["refits"],
        }

    def _op_shutdown(self, request: Mapping, cancel=None) -> dict:
        self._shutdown.set()
        return {"stopping": True}

    # ------------------------------------------------------------------ #
    # Context manager
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "AnalysisDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        """One-line daemon summary."""
        counts = self._counts()
        return (f"{self.name}: {len(self.pool)} sessions, "
                f"{len(self.catalog)} scenarios, "
                f"{counts['requests_served']} requests served "
                f"({counts['errors']} errors)")
