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
    :class:`~repro.whatif.session.SystemSession`, which the pool keeps
    over its per-segment sessions, so repeated requests (and per-segment
    what-if queries in between) hit the same warm caches.  Bit-identical to a
    from-scratch engine run on the equivalently edited model; optionally
    evaluates end-to-end paths in the same request and re-keys per-bus
    sections by a client-supplied shard map.  The clients'
    ``analyze_system`` (no deltas) and ``path_latency`` (with paths) are
    forms of it.
``metrics`` / ``traces`` / ``store``
    Observability and upkeep: a structured snapshot of the daemon's
    :class:`~repro.obs.MetricsRegistry` (optionally rendered in the
    Prometheus text exposition format), the slowest retained request
    traces (see :mod:`repro.obs.tracing`) and the persistent result
    store's ``stats`` / ``compact`` / ``clear``.  Every request is traced --
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
    read its in-memory state; ``monitor_stop`` detaches it.
``shutdown``
    Graceful stop (the TCP front end watches :attr:`shutdown_requested`).

Every op and its parameters are declared once, in
:data:`repro.server.protocol.OPS`; each op is served by ``_op_<name>``.

Transport-independent by construction: :meth:`handle` consumes and
produces protocol dicts (an analysed configuration's results ride in them
as encoded :class:`~repro.server.protocol.Fragment`\\ s) and
:meth:`encode_response` turns one into its line, so the in-process
client, the TCP server and tests all exercise literally the same code
path.

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
``stats``/``targets``/``scenarios``/``metrics``/``traces``/``store``/
``monitor_status``/``monitor_alerts``/``monitor_stop``/``shutdown``; the
table marks them) bypass admission control and keep answering during
overload and drain.  :meth:`close` drains
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
import threading
import time
from dataclasses import replace
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
from repro.workloads.registry import builtin_registry

_log = logging.getLogger(__name__)

#: Default grace window (seconds) :meth:`AnalysisDaemon.close` waits for
#: in-flight work requests before cancelling them.
DEFAULT_GRACE = 10.0

#: How long :meth:`AnalysisDaemon.close` waits, after cancelling, for the
#: cancelled requests to unwind and answer.
_CANCEL_WAIT = 2.0


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
        # What a monitor_start without settings gets (ranges checked).
        self.monitor_config = MonitorConfig(
            window_ms=float(monitor_window_ms),
            history_windows=int(monitor_history))
        self._monitors: dict[str, ConformanceMonitor] = {}
        self._monitor_lock = threading.Lock()
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
        # the transport can fold in encode time; see encode_response).
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

    # ------------------------------------------------------------------ #
    # Registration (server-side; the protocol itself is read-only)
    # ------------------------------------------------------------------ #
    def add_config(self, name: str, config: BusConfiguration) -> None:
        """Serve a single-bus configuration under ``name``.

        A conformance monitor on ``name`` stops unless the registration
        kept its session (see :meth:`_stop_stale_monitors`).
        """
        self.pool.add_config(name, config)
        self._stop_stale_monitors()

    def add_system(self, name: str, system: SystemModel) -> dict[str, str]:
        """Serve a system model; returns its shard-name map.

        The map (bus name -> ``<name>/<bus>`` shard target) is what the
        ``register`` response forwards to clients.  The pool keeps the
        system as its system session: re-registering a name replaces it,
        so later system requests analyse the new model, not the old one,
        and drops the old shards the new model has no bus for.  A
        conformance monitor on a shard the registration replaced or
        dropped stops.
        """
        shards = self.pool.add_system(name, system)
        self._stop_stale_monitors()
        return shards

    def _stop_stale_monitors(self) -> None:
        """Stop every monitor whose target no longer names its session.

        A monitor checks frames against the bounds of the session it was
        started on; once a registration replaced that target's session (a
        changed configuration) or dropped the target, its bounds belong to
        no served model, so it stops and ``monitor_*`` on the target
        answers ``unknown_target``.  A registration that lands on the same
        session (same fingerprint) keeps its monitor.
        """
        with self._monitor_lock:
            for target, monitor in list(self._monitors.items()):
                if target not in self.pool \
                        or self.pool.get(target) is not monitor.session:
                    del self._monitors[target]

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

        Before admission, the request is checked against its op's entry
        in :data:`repro.server.protocol.OPS`; its handler gets the result.

        Every request is traced (stages ``decode`` -> ``admission`` ->
        ``session_plan`` -> ``solve``; the transport folds in ``encode``
        via :meth:`encode_response`); the slowest traces
        are retained for the ``traces`` op.  When the request sets ``trace:
        true``, :meth:`encode_response` appends the span tree to the reply
        line, after the ``encode`` span; the returned dict carries only
        the ``trace_id``.  ``decode_ms`` is the transport's line-decode
        time.
        """
        request_id = request.get("id")
        op = request.get("op")
        spec = protocol.OPS.get(op) if isinstance(op, str) else None
        # Label cardinality stays bounded: unknown (client-invented) op
        # strings all map to "?" in metrics and traces.
        op_name = op if spec is not None else "?"
        self.metrics.counter("daemon_requests_total", op=op_name).inc()
        # Traced before the check: only strings and ``trace: true`` count.
        requested_id = request.get("trace_id")
        target = request.get("target") or request.get("system")
        trace = Trace(
            op=op_name,
            target=target if isinstance(target, str) else None,
            trace_id=requested_id if isinstance(requested_id, str) else None,
            inline=request.get("trace") is True)
        if decode_ms is not None:
            trace.backdate(float(decode_ms))
            trace.record("decode", float(decode_ms))
        try:
            response = self._dispatch(request, request_id, spec, trace)
        except Exception as error:  # noqa: BLE001 - outermost guard
            _log.exception("unhandled error serving op %r", op_name)
            response = self._error(f"{type(error).__name__}: {error}",
                                   request_id, code="internal")
        return self._finalize_trace(
            trace, response,
            echo=trace.inline or isinstance(requested_id, str))

    def _dispatch(self, request: Mapping, request_id,
                  spec: Optional[protocol.Op], trace: Trace) -> dict:
        """Table check, admission and dispatch of one traced request."""
        if spec is None:
            return self._error(
                f"unknown op {request.get('op')!r}; supported: "
                f"{', '.join(sorted(protocol.OPS))}", request_id,
                code="invalid")
        try:
            params = spec.check(request, spec.name)
        except protocol.ProtocolError as error:
            return self._error(str(error), request_id, code="protocol")
        except (KeyError, ValueError, TypeError) as error:
            # A value the table accepts that its domain object refuses.
            return self._error(str(error) or repr(error), request_id,
                               code="invalid")
        deadline_ms = params["deadline_ms"]
        cancel = None if deadline_ms is None \
            else CancelToken.after_ms(float(deadline_ms))
        token_key = None
        rejection = None
        admission = trace.begin("admission")
        if not spec.control:
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
            handler = getattr(self, f"_op_{spec.name}")
            response = {"ok": True, "result": handler(params, cancel)}
            if request_id is not None:
                response["id"] = request_id
            return response
        except DeadlineExceeded:
            return self._error(
                f"deadline of {deadline_ms} ms exceeded",
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
        except (KeyError, ValueError, TypeError) as error:
            return self._error(str(error) or repr(error), request_id,
                               code="invalid")
        finally:
            self._trace_local.current = None
            if not spec.control:
                with self._idle:
                    self._inflight -= 1
                    self._m_inflight.set(self._inflight)
                    if token_key is not None:
                        self._active_tokens.pop(token_key, None)
                    if self._inflight == 0:
                        self._idle.notify_all()

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
        self._trace_local.finished = trace
        return response

    def encode_response(self, request: Mapping, response: dict,
                        encode=protocol.encode_line) -> bytes:
        """The line of a response :meth:`handle` just made on this thread.

        Transport hook for the TCP server and the in-process client.
        ``encode`` runs once per response and is timed as the trace's
        ``encode`` span (the trace is retained by reference, so
        ``traces`` output shows it too); the TCP server passes the
        ``encode_line`` its own module names, so a timing wrapper put
        there sees every reply.  The span tree of a request that set
        ``trace: true`` is rendered once, after that span closes, and
        appended to the line.  A response the encoder refuses (a NaN,
        say) is answered with a typed ``internal`` error instead.
        """
        encoded = True
        started = time.perf_counter()
        try:
            data = encode(response)
        except Exception as error:  # noqa: BLE001 - one reply per line
            _log.exception("unencodable response to op %r",
                           request.get("op"))
            encoded = False
            data = encode(self._error(
                f"response not encodable: {error}", request.get("id")))
        encode_ms = (time.perf_counter() - started) * 1000.0
        trace = getattr(self._trace_local, "finished", None)
        self._trace_local.finished = None
        if trace is None:
            return data
        trace.extend("encode", encode_ms)
        return protocol.append_member(data, "trace", trace.to_json()) \
            if encoded and trace.inline else data

    def _current_trace(self) -> Optional[Trace]:
        """The trace of the request being handled on this thread."""
        return getattr(self._trace_local, "current", None)

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
    def _op_ping(self, params: dict, cancel=None) -> dict:
        return {"pong": True, "name": self.name}

    def _op_health(self, params: dict, cancel=None) -> dict:
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

    def _op_stats(self, params: dict, cancel=None) -> dict:
        stats = self.pool.stats()
        return {
            **self._counts(),
            "sessions": [protocol.session_stats_to_json(s) for s in stats],
            "evicted_sessions": self.pool.evicted_sessions,
            "faults": self.faults.describe(),
            "table": format_session_stats(
                stats, title=f"{self.name}: session statistics"),
        }

    def _op_targets(self, params: dict, cancel=None) -> dict:
        return {"targets": self.pool.targets(),
                "systems": self.pool.systems()}

    def _op_scenarios(self, params: dict, cancel=None) -> dict:
        def entries(catalog: ScenarioCatalog) -> list[dict]:
            return [{"name": scenario.name,
                     "queries": len(scenario.queries),
                     "description": scenario.description}
                    for scenario in map(catalog.get, catalog.names())]

        return {
            "scenarios": entries(self.catalog),
            "system_scenarios": {
                system: entries(builtin_system_catalog(
                    self.pool.system(system).base_system))
                for system in self.pool.systems()},
        }

    def _op_query(self, params: dict, cancel=None) -> dict:
        session = self.pool.get(params["target"])
        result = session.query(
            params["deltas"],
            message_names=params["message_names"],
            label=params["label"],
            with_report=params["with_report"],
            cancel=cancel,
            trace=self._current_trace(),
        )
        return protocol.query_result_to_json(result)

    def _op_scenario(self, params: dict, cancel=None) -> dict:
        """A named scenario against a bus ``target`` or a ``system``."""
        if params["target"] is not None:
            key, name = "target", params["target"]
            session = self.pool.get(name)
            catalog, encode = self.catalog, protocol.query_result_to_json
        else:
            key, name = "system", params["system"]
            session = self.pool.system(name)
            catalog = builtin_system_catalog(session.base_system)
            encode = protocol.system_query_result_to_json
        run = catalog.run(params["scenario"], session, cancel=cancel,
                          trace=self._current_trace())
        return {
            key: name,
            "scenario": run.scenario,
            "session": run.session,
            "queries": [encode(query) for query in run.queries],
            "table": run.to_table(),
        }

    def _op_batch(self, params: dict, cancel=None) -> dict:
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
        target = params["target"]
        session = self.pool.get(target)
        trace = self._current_trace()
        results = []
        for step in params["queries"]:
            rule = self.faults.check("worker.stall")
            if rule is not None:
                time.sleep(rule.arg / 1000.0)
            try:
                if cancel is not None:
                    cancel.check()
                result = session.query(step["deltas"], label=step["label"],
                                       with_report=step["with_report"],
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

    def _op_register(self, params: dict, cancel=None) -> dict:
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
        name, system = params["name"], params["system"]
        if system is not None:
            shards = self.add_system(name, system)
            return {"system": name, "shards": shards,
                    "scenarios": builtin_system_catalog(system).names()}
        if params["config"] is not None:
            self.add_config(name, params["config"])
            return {"target": name}
        generator = params["workload"]["generator"]
        # An unknown generator is an UnknownWorkloadError (``invalid``);
        # the generator's declarations reject bad parameters (``protocol``).
        workload = self.workloads.expand(
            generator, params["workload"]["params"])
        if isinstance(workload, BusConfiguration):
            self.add_config(name, workload)
            return {"target": name, "generator": generator}
        shards = self.add_system(name, workload)
        return {"system": name, "generator": generator, "shards": shards,
                "scenarios": builtin_system_catalog(workload).names()}

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
            shards.update(override)
        return shards

    def _op_system_query(self, params: dict, cancel=None) -> dict:
        """Typed topology deltas against a registered system."""
        name = params["system"]
        session = self.pool.system(name)
        shards = self._shard_names(name, params["shards"])
        outcome = session.query(params["deltas"], label=params["label"],
                                cancel=cancel, trace=self._current_trace())
        response = protocol.system_query_result_to_json(outcome)
        response["system"] = name
        response["shards"] = shards
        response["bus_reports"] = {
            shards.get(bus, bus): report
            for bus, report in response["bus_reports"].items()}
        if params["paths"] is not None:
            response["paths"] = [
                protocol.path_latency_to_json(latency)
                for latency in path_latency_all(
                    params["paths"], outcome.system, outcome.result)]
        return response

    def _op_metrics(self, params: dict, cancel=None) -> dict:
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
        if params["format"] is not None:
            result["text"] = self.metrics.render_prometheus()
        if params["history"]:
            with self._monitor_lock:
                monitors = sorted(self._monitors.items())
            result["history"] = {
                name: monitor.history.snapshot(params["history_last"])
                for name, monitor in monitors}
        return result

    def _op_traces(self, params: dict, cancel=None) -> dict:
        """The retained slowest traces, slowest first."""
        return {
            "traces": self.traces.snapshot(params["limit"]),
            "retained": len(self.traces),
            "capacity": self.traces.capacity,
            "seen": self.traces.seen,
            "slow_query_ms": self.slowlog.threshold_ms,
            "slow_queries_logged": self.slowlog.emitted,
        }

    def _op_store(self, params: dict, cancel=None) -> dict:
        """Persistent-store maintenance: stats (default), compact, clear.

        A daemon without a configured store answers ``enabled: false``
        instead of erroring, so fleet-wide monitoring can blindly poll.
        """
        action = params["action"]
        if self.store is None:
            return {"enabled": False, "action": action}
        if action == "compact":
            stats = self.store.compact(params["max_bytes"])
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

    def _op_monitor_start(self, params: dict, cancel=None) -> dict:
        """Bind (or re-bind) a conformance monitor to a registered target.

        Starting over an existing monitor replaces it wholesale -- fresh
        windows, history, fitted overrides and alert state -- so a replay
        always begins from the registered event models, not from whatever
        a previous stream fitted.  A monitor lives as long as its target's
        session: re-registering the target with a changed configuration,
        or a system without its bus, stops it.
        """
        target = params["target"]
        session = self.pool.get(target)
        settings = {key: params[key] for key in (
            "window_ms", "history_windows", "max_arrivals", "fit_max_n")
            if params[key] is not None}
        # MonitorConfig checks the ranges (ValueError -> ``invalid``).
        config = replace(self.monitor_config, **settings)
        rules = params["rules"]
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

    def _op_monitor_ingest(self, params: dict, cancel=None) -> dict:
        """Stream one chunk of observed frames into a running monitor.

        ``{"flush": true}`` additionally closes the window in progress
        after the chunk -- end-of-replay bookkeeping, so trailing alert
        evaluation is not left waiting for a frame that never comes.
        """
        target = params["target"]
        monitor = self._monitor_for(target)
        frames = protocol.frames_from_json(params["frames"])
        report = monitor.ingest(frames, cancel=cancel)
        if params["flush"]:
            tail = monitor.flush(cancel=cancel)
            report.windows_closed += tail.windows_closed
            report.refits += tail.refits
            report.violations.extend(tail.violations)
            report.alerts.extend(tail.alerts)
        result = report.to_json()
        result["target"] = target
        result["violations_total"] = monitor.violations_total
        return result

    def _op_monitor_status(self, params: dict, cancel=None) -> dict:
        """Snapshot of one monitor: bounds, counts, overrides, alerts."""
        return self._monitor_for(params["target"]).status()

    def _op_monitor_alerts(self, params: dict, cancel=None) -> dict:
        """Recent fired alerts, the active set, and the installed rules."""
        monitor = self._monitor_for(params["target"])
        result = monitor.alerts(params["last"])
        result["rules"] = [rule.to_json()
                           for rule in monitor.engine.rules]
        return result

    def _op_monitor_stop(self, params: dict, cancel=None) -> dict:
        """Detach one monitor; its final counters come back in the reply."""
        target = params["target"]
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

    def _op_shutdown(self, params: dict, cancel=None) -> dict:
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
