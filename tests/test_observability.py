"""Tests of the observability layer: metrics, traces, slow-query log.

Two properties anchor the suite.  First, exactness: counters are locked
registry instruments and the only record of counts, so after any
workload they must reconcile exactly with the requests sent -- including
under concurrent increments and under every ``REPRO_PARALLEL`` mode --
and every component's own stats must sum to the registry's family
totals.  Second, faithfulness: a request's
span tree must cover all five stages (decode -> admission ->
session_plan -> solve -> encode) and its durations must fit inside the
round trip the client observed.
"""

from __future__ import annotations

import logging
import math
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.server.pool as pool_module
import repro.whatif.session as whatif_session
from repro.cancel import CancelToken, Cancelled
from repro.monitor import ConformanceMonitor, chunked, frames_from_trace
from repro.obs import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    TraceRing,
)
from repro.server import (
    AnalysisDaemon,
    DaemonError,
    InProcessClient,
    TcpClient,
    start_server,
)
from repro.server.pool import SessionPool
from repro.server.protocol import (
    decode_line, deltas_to_json, session_stats_to_json)
from repro.service.deltas import BusConfiguration, JitterDelta
from repro.service.session import AnalysisSession
from repro.sim.simulator import CanBusSimulator, SimulationConfig
from repro.store import ResultStore
from repro.whatif import (
    BusSpeedDelta, GatewayConfigDelta, SegmentConfigDelta, SystemSession,
)
from repro.workloads.multibus import multibus_system
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)

#: The stages every traced work request must cover, in order.
WORK_STAGES = ["decode", "admission", "session_plan", "solve", "encode"]


def _powertrain_config(n_messages: int = 20) -> BusConfiguration:
    config = PowertrainConfig(n_messages=n_messages)
    return BusConfiguration(
        kmatrix=powertrain_kmatrix(config),
        bus=powertrain_bus(config),
        assumed_jitter_fraction=0.15,
        controllers=powertrain_controllers(config))


def _daemon(**kwargs) -> AnalysisDaemon:
    daemon = AnalysisDaemon(name="obs-test", **kwargs)
    daemon.add_config("powertrain", _powertrain_config())
    return daemon


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.value("requests_total") == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.reset()
        assert counter.value == 0

    def test_counter_identity_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        a = registry.counter("x", op="query")
        b = registry.counter("x", op="ping")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert registry.value("x", op="query") == 2
        assert registry.value("x", op="ping") == 3
        snapshot = registry.snapshot()
        assert snapshot["counters"]['x{op="ping"}'] == 3
        assert snapshot["counters"]['x{op="query"}'] == 2

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5
        assert registry.snapshot()["gauges"]["depth"] == 5

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 5000.0):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["lat"]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5056.5)
        # Inclusive upper bounds: 1.0 falls in the first bucket.
        assert snap["buckets"] == [
            [1.0, 2], [10.0, 1], [100.0, 1], ["+Inf", 1]]

    def test_histogram_re_registration_conflicts(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        # Same buckets: same instrument.
        assert registry.histogram("h", buckets=(1.0, 2.0)) is \
            registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(5.0,))
        with pytest.raises(ValueError):
            registry.counter("h")

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        hist = registry.histogram("obs", buckets=(10.0,))
        n_threads, n_incs = 8, 2000

        def work():
            for _ in range(n_incs):
                counter.inc()
                hist.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * n_incs
        snap = registry.snapshot()["histograms"]["obs"]
        assert snap["count"] == n_threads * n_incs
        assert snap["sum"] == pytest.approx(n_threads * n_incs)

    def test_snapshot_and_reset_race_safety(self):
        """Snapshots taken mid-increment never raise and reset zeroes."""
        registry = MetricsRegistry()
        counter = registry.counter("racy")
        stop = threading.Event()

        def work():
            while not stop.is_set():
                counter.inc()

        thread = threading.Thread(target=work)
        thread.start()
        try:
            for _ in range(50):
                snapshot = registry.snapshot()
                assert snapshot["counters"]["racy"] >= 0
        finally:
            stop.set()
            thread.join()
        registry.reset()
        assert counter.value == 0

    def test_child_counts_into_its_family(self):
        registry = MetricsRegistry()
        family = registry.counter("queries_total", op="query")
        first, second = family.child(), family.child()
        first.inc()
        second.inc(2)
        family.inc(4)
        assert (first.value, second.value) == (1, 2)
        assert registry.value("queries_total", op="query") == 7
        with pytest.raises(ValueError):
            first.inc(-1)
        assert (first.value, family.value) == (1, 7)
        # Children are per-instance shares, not registry entries.
        assert list(registry.snapshot()["counters"]) == \
            ['queries_total{op="query"}']

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", op="query").inc(3)
        registry.gauge("depth").set(2)
        hist = registry.histogram("lat_ms", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="query"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        # Cumulative buckets with an +Inf terminator, plus count and sum.
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_count 2" in text
        assert "lat_ms_sum 5.5" in text


# --------------------------------------------------------------------------- #
# Traces, ring, slow-query log (unit level)
# --------------------------------------------------------------------------- #
class TestTrace:
    def test_span_tree_shape(self):
        trace = Trace(op="query", target="powertrain")
        outer = trace.begin("solve")
        inner = trace.begin("inner", parent=outer)
        trace.end(inner)
        trace.end(outer)
        trace.record("encode", 1.5)
        total = trace.finish()
        data = trace.to_json()
        assert data["op"] == "query"
        assert data["target"] == "powertrain"
        assert len(data["trace_id"]) == 16
        assert [span["name"] for span in data["spans"]] == [
            "solve", "encode"]
        assert data["spans"][0]["children"][0]["name"] == "inner"
        assert data["duration_ms"] == pytest.approx(total)

    def test_extend_grows_span_and_total(self):
        trace = Trace(op="ping")
        trace.record("encode", 1.0)
        total = trace.finish()
        trace.extend("encode", 2.0)
        assert trace.stage_ms("encode") == pytest.approx(3.0)
        assert trace.duration_ms == pytest.approx(total + 2.0)
        # A stage the trace never opened is created on the spot.
        trace.extend("flush", 0.5)
        assert trace.stage_ms("flush") == pytest.approx(0.5)


class TestTraceRing:
    @staticmethod
    def _finished_trace(duration_ms: float) -> Trace:
        trace = Trace(op="query")
        trace.finish()
        trace.duration_ms = duration_ms
        return trace

    def test_keeps_slowest_n(self):
        ring = TraceRing(capacity=3)
        for duration in (5.0, 1.0, 9.0, 3.0, 7.0, 2.0):
            ring.add(self._finished_trace(duration))
        assert len(ring) == 3
        assert ring.seen == 6
        assert ring.evicted == 3
        durations = [t["duration_ms"] for t in ring.snapshot()]
        assert durations == [9.0, 7.0, 5.0]

    def test_limit_and_reset(self):
        ring = TraceRing(capacity=4)
        for duration in (1.0, 2.0, 3.0):
            ring.add(self._finished_trace(duration))
        assert [t["duration_ms"] for t in ring.snapshot(limit=2)] == \
            [3.0, 2.0]
        ring.reset()
        assert len(ring) == 0
        assert ring.seen == 0

    def test_zero_capacity_is_a_noop(self):
        ring = TraceRing(capacity=0)
        ring.add(self._finished_trace(1.0))
        assert len(ring) == 0
        assert ring.snapshot() == []


class TestSlowQueryLog:
    @staticmethod
    def _trace(duration_ms: float) -> Trace:
        trace = Trace(op="query", target="powertrain")
        trace.record("solve", duration_ms)
        trace.finish()
        trace.duration_ms = duration_ms
        return trace

    def test_disabled_by_default(self, caplog):
        log = SlowQueryLog()
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            assert not log.maybe_log(self._trace(10_000.0))
        assert not caplog.records

    def test_logs_structured_line(self, caplog):
        log = SlowQueryLog(threshold_ms=1.0, min_interval_s=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            assert log.maybe_log(self._trace(5.0), fingerprint="abc123")
        assert log.emitted == 1
        message = caplog.records[0].getMessage()
        assert "op=query" in message
        assert "target=powertrain" in message
        assert "fingerprint=abc123" in message
        assert "solve=5.000" in message
        assert "duration_ms=5.000" in message

    def test_below_threshold_not_logged(self, caplog):
        log = SlowQueryLog(threshold_ms=100.0, min_interval_s=0.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            assert not log.maybe_log(self._trace(5.0))
        assert log.emitted == 0

    def test_rate_limit_counts_suppressed(self, caplog):
        log = SlowQueryLog(threshold_ms=1.0, min_interval_s=3600.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            assert log.maybe_log(self._trace(5.0))
            assert not log.maybe_log(self._trace(6.0))
            assert not log.maybe_log(self._trace(7.0))
        assert log.emitted == 1
        # The suppressed count surfaces on the next emitted line.
        log._last_emit = -math.inf
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            assert log.maybe_log(self._trace(8.0))
        assert "suppressed=2" in caplog.records[-1].getMessage()

    def test_first_record_emitted_on_fresh_monotonic_clock(self, caplog,
                                                            monkeypatch):
        """A clock just past its origin (a freshly booted host) still logs."""
        monkeypatch.setattr(time, "monotonic", lambda: 5.0)
        log = SlowQueryLog(threshold_ms=1.0, min_interval_s=3600.0)
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            assert log.maybe_log(self._trace(5.0))
            assert not log.maybe_log(self._trace(6.0))
        assert log.emitted == 1
        assert "suppressed=0" in caplog.records[-1].getMessage()


# --------------------------------------------------------------------------- #
# Daemon integration: tracing
# --------------------------------------------------------------------------- #
class TestDaemonTracing:
    def test_query_span_tree_covers_all_stages(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            start = time.perf_counter()
            result = client.query(
                "powertrain", [JitterDelta(fraction=0.2)],
                trace=True)
            round_trip_ms = (time.perf_counter() - start) * 1000.0
            trace = result["trace"]
            names = [span["name"] for span in trace["spans"]]
            assert names == WORK_STAGES
            stage_sum = sum(span["duration_ms"] for span in trace["spans"])
            assert 0.0 < stage_sum <= round_trip_ms
            # The root total covers every stage and fits the round trip.
            assert stage_sum <= trace["duration_ms"] <= round_trip_ms

    def test_transport_renders_the_span_tree_once(self, monkeypatch):
        """``handle`` leaves the tree out of the response dict and
        ``encode_response`` renders it once, after the ``encode`` span."""
        renders = []
        to_json = Trace.to_json
        monkeypatch.setattr(
            Trace, "to_json",
            lambda trace: renders.append(trace.op) or to_json(trace))
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            result = client.query("powertrain", trace=True)
            assert renders == ["query"]
            assert [s["name"] for s in result["trace"]["spans"]] == \
                WORK_STAGES
            client.query("powertrain")
            assert renders == ["query"]
            request = {"op": "query", "target": "powertrain", "trace": True}
            response = daemon.handle(request)
            assert "trace" not in response
            assert renders == ["query"]
            line = decode_line(daemon.encode_response(request, response))
            assert renders == ["query", "query"]
            assert [s["name"] for s in line["trace"]["spans"]][-1] == \
                "encode"

    def test_cache_hit_trace_has_zero_solve(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.query("powertrain")
            result = client.query("powertrain", trace=True)
            trace = result["trace"]
            assert [s["name"] for s in trace["spans"]] == WORK_STAGES
            solve = next(s for s in trace["spans"] if s["name"] == "solve")
            assert solve["duration_ms"] == 0.0

    def test_traced_scenario_has_a_solve_span_per_step(self):
        with _daemon() as daemon:
            daemon.add_system("plant", multibus_system(
                n_buses=3, messages_per_bus=6, seed=2))
            client = InProcessClient(daemon)
            for where in ({"target": "powertrain",
                           "scenario": "paper-jitter-sweep"},
                          {"system": "plant",
                           "scenario": "bus-speed-degradation"}):
                result = client.request("scenario", trace=True, **where)
                names = [s["name"] for s in result["trace"]["spans"]]
                assert names.count("solve") == len(result["queries"])
                assert names.count("session_plan") == len(result["queries"])

    def test_traced_batch_has_a_solve_span_per_step(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            steps = [{"deltas": deltas_to_json([JitterDelta(fraction=f)])}
                     for f in (0.0, 0.1, 0.2, 0.1)]
            result = client.request("batch", target="powertrain",
                                    queries=steps, trace=True)
            names = [s["name"] for s in result["trace"]["spans"]]
            assert names.count("solve") == len(steps)
            assert names.count("session_plan") == len(steps)

    def test_untraced_response_has_no_trace_keys(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            result = client.query("powertrain")
            assert "trace" not in result
            assert "trace_id" not in result

    def test_client_supplied_trace_id_is_propagated(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            result = client.request("query", target="powertrain",
                                    trace_id="deadbeef01")
            assert result["trace_id"] == "deadbeef01"
            # And it names the retained trace in the ring.
            ids = [t["trace_id"]
                   for t in client.traces()["traces"]]
            assert "deadbeef01" in ids

    def test_traces_op_returns_slowest_first(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.query("powertrain")
            client.ping()
            listing = client.traces()
            durations = [t["duration_ms"] for t in listing["traces"]]
            assert durations == sorted(durations, reverse=True)
            assert listing["retained"] == len(listing["traces"])
            assert listing["seen"] >= len(listing["traces"])
            assert listing["slow_query_ms"] is None

    def test_trace_ring_capacity_evicts(self):
        with _daemon(trace_ring=2) as daemon:
            client = InProcessClient(daemon)
            for _ in range(6):
                client.ping()
            listing = client.traces()
            assert listing["capacity"] == 2
            assert listing["retained"] == 2
            assert listing["seen"] >= 6
            assert daemon.traces.evicted > 0

    def test_traces_limit_validation(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            with pytest.raises(DaemonError) as excinfo:
                client.traces(limit=0)
            assert excinfo.value.code == "protocol"

    def test_rejected_request_is_traced(self):
        with _daemon(max_inflight=1) as daemon:
            client = InProcessClient(daemon)
            # Fill the only in-flight slot from another thread, then the
            # next work request is rejected -- but still traced.
            daemon._inflight = 1
            request = {"op": "query", "target": "powertrain", "trace": True}
            try:
                response = decode_line(daemon.encode_response(
                    request, daemon.handle(request)))
            finally:
                daemon._inflight = 0
            assert response["ok"] is False
            assert response["code"] == "overloaded"
            names = [s["name"] for s in response["trace"]["spans"]]
            assert "admission" in names
            assert daemon.metrics.value(
                "daemon_admission_total",
                decision="rejected_overload") == 1

    def test_tcp_trace_roundtrip(self):
        daemon = _daemon()
        server = start_server(daemon, port=0)
        try:
            host, port = server.address
            with TcpClient(host, port) as client:
                start = time.perf_counter()
                result = client.query("powertrain", trace=True,
                                      trace_id="feedface42")
                round_trip_ms = (time.perf_counter() - start) * 1000.0
                assert result["trace_id"] == "feedface42"
                trace = result["trace"]
                assert trace["trace_id"] == "feedface42"
                names = [s["name"] for s in trace["spans"]]
                assert names == WORK_STAGES
                stage_sum = sum(
                    s["duration_ms"] for s in trace["spans"])
                assert 0.0 < stage_sum <= round_trip_ms
                assert stage_sum <= trace["duration_ms"] <= round_trip_ms
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# Daemon integration: metrics
# --------------------------------------------------------------------------- #
class TestDaemonMetrics:
    def test_counters_reconcile_with_requests(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.query("powertrain")                      # cold miss
            client.query("powertrain")                      # cache hit
            client.query("powertrain",
                         [JitterDelta(fraction=0.3)])  # warm miss
            metrics = client.metrics()["metrics"]
            counters = metrics["counters"]
            assert counters['daemon_requests_total{op="query"}'] == 3
            assert counters["session_queries_total"] == 3
            assert counters["session_cache_hits_total"] == 1
            assert counters["session_cache_misses_total"] == 2
            plan_total = sum(
                counters.get(
                    f'session_plan_messages_total{{action="{a}"}}', 0)
                for a in ("reuse", "warm", "cold"))
            n_messages = len(_powertrain_config().kmatrix)
            assert plan_total == 2 * n_messages  # both misses, all messages
            # Per-op latency histogram: one observation per query request.
            hists = metrics["histograms"]
            assert hists['daemon_op_ms{op="query"}']["count"] == 3
            assert hists["solver_iterations"]["count"] == 2
            assert hists["solver_iterations"]["sum"] > 0

    def test_admission_and_inflight_metrics(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.query("powertrain")
            registry = daemon.metrics
            assert registry.value("daemon_admission_total",
                                  decision="accepted") == 1
            assert registry.snapshot()["gauges"]["daemon_inflight"] == 0

    def test_error_counter(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            with pytest.raises(DaemonError):
                client.query("nonexistent-target")
            assert daemon.metrics.value(
                "daemon_errors_total", code="unknown_target") == 1

    def test_metrics_op_formats(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.ping()
            plain = client.metrics()
            assert "text" not in plain
            assert "metric" in plain["table"]
            rendered = client.metrics(format="prometheus")
            assert "# TYPE daemon_requests_total counter" in \
                rendered["text"]
            with pytest.raises(DaemonError) as excinfo:
                client.metrics(format="xml")
            assert excinfo.value.code == "protocol"

    def test_solver_iteration_buckets_are_iteration_shaped(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.query("powertrain")
            hist = daemon.metrics.histogram(
                "solver_iterations", buckets=ITERATION_BUCKETS)
            snap = hist.snapshot()
            assert snap["count"] == 1
            assert snap["sum"] >= 1

    def test_pool_and_jobs_metrics_registered(self):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            client.batch("powertrain", [
                {"deltas": [], "label": "a"},
                {"deltas": [JitterDelta(fraction=0.25)],
                 "label": "b"},
            ])
            snapshot = daemon.metrics.snapshot()
            assert snapshot["gauges"]["pool_sessions"] >= 1
            assert snapshot["counters"]["session_queries_total"] == 2


# --------------------------------------------------------------------------- #
# Health signals
# --------------------------------------------------------------------------- #
class TestHealthSignals:
    def test_ok_health_has_signals_and_no_causes(self):
        with _daemon() as daemon:
            health = InProcessClient(daemon).health()
            assert health["status"] == "ok"
            assert health["causes"] == []
            signals = health["signals"]
            assert signals["inflight"] == 0
            assert signals["rejected_overload"] == 0
            assert signals["timeouts"] == 0

    def test_draining_health_names_the_cause(self):
        daemon = _daemon()
        daemon.close(grace=0.0)
        health = daemon.handle({"op": "health"})["result"]
        assert health["status"] == "draining"
        assert "daemon is draining" in health["causes"]

    def test_rejections_show_up_in_signals(self):
        with _daemon(max_inflight=1) as daemon:
            daemon._inflight = 1
            try:
                daemon.handle({"op": "query", "target": "powertrain"})
            finally:
                daemon._inflight = 0
            health = InProcessClient(daemon).health()
            assert health["signals"]["rejected_overload"] == 1


# --------------------------------------------------------------------------- #
# Slow-query log through the daemon
# --------------------------------------------------------------------------- #
class TestDaemonSlowLog:
    def test_slow_query_logged_with_fingerprint(self, caplog):
        with _daemon(slow_query_ms=0.0) as daemon:
            daemon.slowlog.min_interval_s = 0.0
            client = InProcessClient(daemon)
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                client.query("powertrain")
            assert daemon.slowlog.emitted >= 1
            message = caplog.records[0].getMessage()
            assert "op=query" in message
            assert "target=powertrain" in message
            assert "fingerprint=" in message
            assert "solve=" in message
            listing = client.traces()
            assert listing["slow_query_ms"] == 0.0
            assert listing["slow_queries_logged"] >= 1

    def test_disabled_slowlog_stays_silent(self, caplog):
        with _daemon() as daemon:
            client = InProcessClient(daemon)
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                client.query("powertrain")
            assert not caplog.records


# --------------------------------------------------------------------------- #
# Determinism across parallel modes
# --------------------------------------------------------------------------- #
class TestParallelModeDeterminism:
    @pytest.mark.parametrize("mode", ["serial", "auto", "process"])
    def test_counters_exact_under_mode(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", mode)
        daemon = AnalysisDaemon(name=f"obs-{mode}")
        daemon.add_config("powertrain", _powertrain_config())
        try:
            client = InProcessClient(daemon)
            steps = [{"deltas": [JitterDelta(fraction=0.1 * k)],
                      "label": f"step-{k}"} for k in range(1, 6)]
            result = client.batch("powertrain", steps)
            assert len(result["results"]) == 5
            assert all("error" not in entry
                       for entry in result["results"])
            counters = daemon.metrics.snapshot()["counters"]
            # Exactly one session query per batch step, however the
            # steps were scheduled.
            assert counters["session_queries_total"] == 5
            hits = counters.get("session_cache_hits_total", 0)
            misses = counters.get("session_cache_misses_total", 0)
            assert hits + misses == 5
        finally:
            daemon.close()


# --------------------------------------------------------------------------- #
# Count agreement: per-instance stats are views over the registry
# --------------------------------------------------------------------------- #
_SESSION_FAMILIES = {
    "queries": "session_queries_total",
    "cache_hits": "session_cache_hits_total",
    "cache_misses": "session_cache_misses_total",
    "evictions": "session_evictions_total",
}
_STORE_FAMILIES = {
    "hits": ("store_lookups_total", {"result": "hit"}),
    "misses": ("store_lookups_total", {"result": "miss"}),
    "corrupt": ("store_lookups_total", {"result": "corrupt"}),
    "stale": ("store_lookups_total", {"result": "stale"}),
    "publishes": ("store_publishes_total", {}),
    "publish_errors": ("store_publish_errors_total", {}),
    "evictions": ("store_evictions_total", {}),
}
_FRACTIONS = (0.0, 0.1, 0.2, 0.3)
_POLLING_PERIODS = (1.0, 2.0, 5.0, 10.0)

_agreement_frames: list = []


def _monitor_chunks() -> list:
    """Recorded frames of the 8-message powertrain bus, in 64-frame chunks."""
    if not _agreement_frames:
        config = _powertrain_config(8)
        trace = CanBusSimulator(
            config.kmatrix, config.bus, controllers=config.controllers,
            config=SimulationConfig(duration=400.0, seed=5)).run()
        _agreement_frames.extend(chunked(frames_from_trace(trace), 64))
    return _agreement_frames


def _family(registry: MetricsRegistry, name: str, **labels) -> int:
    return int(registry.value(name, **labels) or 0)


class TestCountAgreement:
    def test_cancelled_queries_are_not_counted(self):
        registry = MetricsRegistry()
        session = AnalysisSession.from_config(
            _powertrain_config(8), metrics=registry)
        system = SystemSession(
            multibus_system(n_buses=2, messages_per_bus=6, seed=2),
            metrics=registry)
        fired = CancelToken()
        fired.cancel()
        with pytest.raises(Cancelled):
            session.query((JitterDelta(fraction=0.2),), cancel=fired)
        with pytest.raises(Cancelled):
            system.query(BusSpeedDelta("CAN-1", 250_000.0), cancel=fired)
        families = ("session_queries_total", "session_cache_misses_total",
                    "system_queries_total", "system_cache_misses_total")
        assert [_family(registry, name) for name in families] == [0] * 4
        assert (session.stats().queries, session.stats().cache_misses) \
            == (0, 0)
        assert (system.stats().queries, system.stats().cache_hits) == (0, 0)

        session.query((JitterDelta(fraction=0.2),))
        assert (session.stats().queries, session.stats().cache_misses) \
            == (1, 1)
        assert _family(registry, "session_queries_total") == 1
        assert _family(registry, "session_cache_misses_total") == 1
        system.query(BusSpeedDelta("CAN-1", 250_000.0))
        assert system.stats().queries == 1
        assert _family(registry, "system_queries_total") == 1
        assert _family(registry, "system_cache_misses_total") == 1
        # The engine's segment queries count on the segment sessions,
        # which share the registry.
        segments = system.session_stats()
        assert _family(registry, "session_queries_total") == \
            1 + sum(stats.queries for stats in segments)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["query", "cancelled", "put", "get", "corrupt",
                         "register", "ingest", "system", "system_edit"]),
        st.integers(0, 1), st.integers(0, 3)), max_size=25))
    @example(ops=[("query", 0, k) for k in range(4)]          # evicting
             + [("query", 0, 3), ("cancelled", 1, 2), ("cancelled", 0, 3)]
             + [("query", 0, 0), ("query", 1, 1)]             # store hits
             + [("put", 0, 1), ("get", 0, 1), ("get", 1, 1),
                ("corrupt", 0, 1)]
             + [("register", 0, k) for k in range(3)]
             + [("ingest", 0, 0)] * 3
             + [("system", 0, 1), ("system", 1, 1)]           # store hit
             + [("system_edit", 0, k) for k in range(4)])     # re-based
    def test_component_stats_sum_to_registry_families(self, ops):
        registry = MetricsRegistry()
        config = _powertrain_config(8)
        # One session per pool, so re-registering a target evicts.
        with mock.patch.object(pool_module, "_MAX_SESSIONS", 1):
            pools = [SessionPool(metrics=registry) for _ in range(2)]
        chunks = iter(_monitor_chunks())
        fired = CancelToken()
        fired.cancel()
        with tempfile.TemporaryDirectory() as root:
            stores = [ResultStore(f"{root}/{i}", metrics=registry)
                      for i in range(2)]
            # Both what-if sessions and both system sessions publish to and
            # read from the first store, so each can hit what the other
            # (or its own evicted configuration) left there.
            sessions = [AnalysisSession.from_config(
                config, max_cached_configs=2, name=f"s{i}",
                metrics=registry, store=stores[0]) for i in range(2)]
            # Two results per system session, so a third topology evicts.
            with mock.patch.object(whatif_session, "_MAX_CACHED_RESULTS", 2):
                systems = [SystemSession(
                    multibus_system(n_buses=2, messages_per_bus=6, seed=2),
                    name=f"sys{i}", metrics=registry, store=stores[0])
                    for i in range(2)]
            monitor = ConformanceMonitor(
                AnalysisSession.from_config(config, metrics=registry),
                target="agreement", metrics=registry)
            sessions.append(monitor.session)
            for op, which, arg in ops:
                digest = f"d{arg}"
                if op == "query":
                    sessions[which].query(
                        (JitterDelta(fraction=_FRACTIONS[arg]),))
                elif op == "cancelled":
                    try:
                        sessions[which].query(
                            (JitterDelta(fraction=_FRACTIONS[arg]),),
                            cancel=fired)
                    except Cancelled:
                        pass
                elif op == "put":
                    stores[which].put("bus", digest, {})
                elif op == "get":
                    stores[which].get("bus", digest)
                elif op == "corrupt":
                    stores[which]._path("bus", digest).write_bytes(b"{")
                    stores[which].get("bus", digest)
                elif op == "register":
                    # One name under a new configuration orphans the last.
                    pools[which].add_config(
                        "t", BusConfiguration(
                            kmatrix=config.kmatrix, bus=config.bus,
                            assumed_jitter_fraction=_FRACTIONS[arg]))
                elif op == "ingest":
                    chunk = next(chunks, None)
                    if chunk is not None:
                        monitor.ingest(chunk)
                elif op == "system":
                    systems[which].query((GatewayConfigDelta(
                        "GW0", polling_period=_POLLING_PERIODS[arg]),))
                else:
                    systems[which].query((SegmentConfigDelta(
                        "CAN-1", (JitterDelta(fraction=_FRACTIONS[arg]),)),))
            store_stats = [store.stats() for store in stores]

        all_stats = [session.stats() for session in sessions]
        all_stats += [stats for pool in pools for stats in pool.stats()]
        all_stats += [stats for system in systems
                      for stats in system.session_stats()]
        for field_name, family in _SESSION_FAMILIES.items():
            assert sum(getattr(s, field_name) for s in all_stats) == \
                _family(registry, family)
        for action, field_name in (("reuse", "reused"),
                                   ("warm", "warm_started"),
                                   ("cold", "cold")):
            assert sum(getattr(s, field_name) for s in all_stats) == \
                _family(registry, "session_plan_messages_total",
                        action=action)
        for key, (family, labels) in _STORE_FAMILIES.items():
            assert sum(stats[key] for stats in store_stats) == \
                _family(registry, family, **labels)
        assert sum(pool.evicted_sessions for pool in pools) == \
            _family(registry, "pool_evictions_total")
        assert sum(system.stats().evictions for system in systems) == \
            _family(registry, "system_evictions_total")
        # Pool and segment sessions have no store, hence no store hits.
        assert sum(session.store_hits for session in sessions) == \
            _family(registry, "session_store_hits_total")
        assert sum(system.store_hits for system in systems) == \
            _family(registry, "system_store_hits_total")
        status = monitor.status()
        assert status["frames"] == _family(
            registry, "monitor_frames_total", target="agreement")
        assert status["refits"] == _family(
            registry, "monitor_refits_total", target="agreement")
        assert status["violations"] == sum(registry.family(
            "monitor_violations_total", "message").values())

        counts = [value for stats in all_stats
                  for key, value in session_stats_to_json(stats).items()
                  if key != "name"]
        counts += [stats[key] for stats in store_stats
                   for key in _STORE_FAMILIES]
        counts += [status[key] for key in ("frames", "violations", "refits")]
        counts += [entry[key] for entry in status["messages"].values()
                   for key in ("frames", "completed", "violations")]
        assert all(type(count) is int for count in counts)
