"""Tests for the live conformance monitor (repro.monitor) and its ops.

Covers the transport-free layers (metrics history, alert rules, frame
streams, the monitor core) and the serving tier end to end: a recorded
simulation trace replayed in chunks through a TCP daemon, with an injected
jitter burst that pushes exactly one message past its analytic deadline.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.response_time import CanBusAnalysis
from repro.cancel import CancelToken, DeadlineExceeded
from repro.events.curves import (
    EmpiricalEventTrace,
    fit_periodic_jitter,
    fit_periodic_jitter_many,
)
from repro.monitor import (
    AlertEngine,
    AlertRule,
    ConformanceMonitor,
    MonitorConfig,
    ObservedFrame,
    chunked,
    frames_from_trace,
    inject_jitter_burst,
)
from repro.obs.history import MetricsHistory, SeriesRing
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.server.client import DaemonError, InProcessClient, TcpClient
from repro.server.daemon import AnalysisDaemon
from repro.server.tcp import start_server
from repro.service.deltas import BusConfiguration
from repro.service.session import AnalysisSession
from repro.sim.simulator import CanBusSimulator, SimulationConfig


def _configuration(small_kmatrix, small_bus) -> BusConfiguration:
    return BusConfiguration(kmatrix=small_kmatrix, bus=small_bus,
                            assumed_jitter_fraction=0.0)


def _recorded_frames(small_kmatrix, small_bus, duration=2000.0, seed=3):
    simulator = CanBusSimulator(
        small_kmatrix, small_bus,
        config=SimulationConfig(duration=duration, seed=seed))
    return frames_from_trace(simulator.run())


#: Raw ``monitor_ingest`` frame texts the codec must reject, each with the
#: field(s) its typed error names.  Written as JSON text, which parses
#: ``NaN``, ``Infinity``, ``1e999`` and a 400-digit integer; the client's
#: strict encoder would refuse to send the non-finite ones.
_BAD_FRAMES = [
    pytest.param('["Slow", NaN, 5.0, true, 1]', "queued_at", id="nan-queued"),
    pytest.param('["Slow", -Infinity, 5.0, true, 1]', "queued_at",
                 id="neg-inf-queued"),
    pytest.param('["Slow", 1.0, NaN, true, 1]', "finished_at",
                 id="nan-finished"),
    pytest.param('["Slow", 1.0, Infinity, true, 1]', "finished_at",
                 id="inf-finished"),
    pytest.param('["Slow", 1.0, 1e999, true, 1]', "finished_at",
                 id="1e999-finished"),
    pytest.param('["Slow", ' + "9" * 400 + ', 5.0, true, 1]', "queued_at",
                 id="huge-int-queued"),
    pytest.param('["Slow", 1.0, ' + "9" * 400 + ', true, 1]', "finished_at",
                 id="huge-int-finished"),
    pytest.param('["Slow", -1e308, 1e308, true, 1]', "finished_at - queued_at",
                 id="overflowing-response-time"),
    pytest.param('["Slow", "1.5", 5.0, true, 1]', "queued_at",
                 id="string-queued"),
    pytest.param('["Slow", 1.0, true, true, 1]', "finished_at",
                 id="bool-finished"),
    pytest.param('["Slow", 5.0, 1.0, true, 1]', "finished_at",
                 id="finished-before-queued"),
    pytest.param('["Slow", 1.0, 5.0, "false", 1]', "success",
                 id="string-success"),
    pytest.param('["Slow", 1.0, 5.0, true, 1.9]', "attempt",
                 id="float-attempt"),
    pytest.param('["Slow", 1.0, 5.0, true, 0]', "attempt", id="zero-attempt"),
    pytest.param('["Slow", 1.0, 5.0, true, -3]', "attempt",
                 id="negative-attempt"),
    pytest.param('[7, 1.0, 5.0, true, 1]', "message", id="int-message"),
    pytest.param('"abcde"', "5-element array", id="bare-string"),
]


@st.composite
def _decoder_row(draw):
    """A ``monitor_ingest`` row and the field it breaks (``""``: valid)."""
    queued = draw(st.floats(min_value=-1e6, max_value=1e6))
    finished = queued + draw(st.floats(min_value=0.0, max_value=1e3))
    row = [draw(st.sampled_from(["Slow", "FastA", "Mid"])), queued, finished,
           draw(st.booleans()), draw(st.integers(min_value=1, max_value=2**63 - 1))]
    breaks = draw(st.sampled_from(
        ["", "", "", "shape", "message", "queued_at", "finished_at",
         "precedes", "response", "success", "attempt"]))
    if breaks == "shape":
        return draw(st.sampled_from(
            [row[:4], row + [1], "abcde", {"message": "Slow"}, None])), \
            "must be a 5-element array"
    if breaks == "precedes":
        row[2] = queued - 1.0
        return row, "finished_at"
    if breaks == "response":
        return [row[0], -1e308, 1e308] + row[3:], "finished_at - queued_at"
    bad = {
        "message": [7, None, True, ["Slow"]],
        "queued_at": ["1.5", True, None, float("nan"), float("-inf"),
                      10 ** 400],
        "finished_at": ["2", False, float("nan"), float("inf"), 10 ** 400],
        "success": ["false", 1, 0, None],
        "attempt": [1.9, 1.0, 0, -3, True, "1", 2 ** 63],
    }
    if breaks:
        index = ["message", "queued_at", "finished_at", "success",
                 "attempt"].index(breaks)
        row[index] = draw(st.sampled_from(bad[breaks]))
    return row, breaks


_decoder_rows = st.lists(_decoder_row(), max_size=12)


# --------------------------------------------------------------------------- #
# Metrics history
# --------------------------------------------------------------------------- #
class TestMetricsHistory:
    def test_ring_evicts_oldest(self):
        ring = SeriesRing(capacity=3)
        for window in range(5):
            ring.append(window, float(window))
        assert [p.window for p in ring.last()] == [2, 3, 4]
        assert [p.value for p in ring.last(2)] == [3.0, 4.0]

    def test_history_series_and_snapshot_rendering(self):
        history = MetricsHistory(capacity=4)
        for window in range(6):
            history.record(window, "observed_max_ms", 1.0 + window,
                           message="Slow")
            history.record(window, "monitor_violations", 0.0)
        series = history.series("observed_max_ms", message="Slow")
        assert [p.window for p in series] == [2, 3, 4, 5]
        assert history.latest("observed_max_ms", message="Slow") == 6.0
        assert history.window_values("monitor_violations", last=2) == \
            [0.0, 0.0]
        snapshot = history.snapshot(last=1)
        assert snapshot['observed_max_ms{message="Slow"}'] == [[5, 6.0]]
        assert "monitor_violations" in snapshot
        assert sorted(snapshot) == history.names()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MetricsHistory(capacity=0)
        with pytest.raises(ValueError):
            SeriesRing(capacity=0)


# --------------------------------------------------------------------------- #
# Alert rules and engine
# --------------------------------------------------------------------------- #
class TestAlertRules:
    def test_parse_full_expression(self):
        rule = AlertRule.parse(
            "tight", "observed_slack_ms < 0.1*deadline for 3 windows")
        assert rule.metric == "observed_slack_ms"
        assert rule.op == "<"
        assert rule.threshold == 0.1
        assert rule.scale == "deadline"
        assert rule.for_windows == 3
        assert rule.describe() == \
            "observed_slack_ms < 0.1*deadline for 3 windows"

    def test_parse_minimal_and_json_round_trip(self):
        rule = AlertRule.parse("any", "violations > 0")
        assert rule.scale is None and rule.for_windows == 1
        assert protocol.alert_rules_from_json([rule.to_json()]) == (rule,)
        via_expr = protocol.alert_rules_from_json(
            [{"name": "any", "expr": "violations > 0"}])
        assert via_expr == (rule,)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            AlertRule.parse("bad", "observed_slack_ms ~ 3")
        with pytest.raises(ValueError):
            AlertRule.parse("bad", "x < 1*frobnicate")
        with pytest.raises(ValueError):
            AlertRule(name="", metric="m", op="<", threshold=1.0)
        with pytest.raises(ValueError):
            AlertRule(name="r", metric="m", op="<", threshold=1.0,
                      for_windows=0)

    def test_streaks_are_edge_triggered_and_rearm(self):
        engine = AlertEngine(
            [AlertRule.parse("tight", "slack < 1.0 for 2 windows")])
        fired = []
        samples = [0.5, 0.5, 0.5, 5.0, 0.5, 0.5]
        for window, value in enumerate(samples):
            fired.extend(engine.evaluate(window, {"M": {"slack": value}}))
        # First excursion fires once at its second window; the clearing in
        # window 3 re-arms; the second excursion fires again at window 5.
        assert [(a.window, a.subject) for a in fired] == [(1, "M"), (5, "M")]
        assert engine.active == [("tight", "M")]

    def test_scaled_threshold_uses_subject_quantities(self):
        engine = AlertEngine(
            [AlertRule.parse("tight", "slack < 0.1*deadline")])
        scales = {"A": {"deadline": 100.0}, "B": {"deadline": 10.0}}
        alerts = engine.evaluate(
            0, {"A": {"slack": 5.0}, "B": {"slack": 5.0}}, scales)
        # 5 < 10 fires for A (deadline 100); 5 < 1 does not fire for B.
        assert [(a.subject, a.threshold) for a in alerts] == [("A", 10.0)]

    def test_missing_metric_resets_streak(self):
        engine = AlertEngine(
            [AlertRule.parse("tight", "slack < 1.0 for 2 windows")])
        assert engine.evaluate(0, {"M": {"slack": 0.5}}) == []
        assert engine.evaluate(1, {"M": {}}) == []
        assert engine.evaluate(2, {"M": {"slack": 0.5}}) == []


# --------------------------------------------------------------------------- #
# Frame streams
# --------------------------------------------------------------------------- #
class TestStreams:
    def test_frames_from_trace_sorted_by_completion(
            self, small_kmatrix, small_bus):
        frames = _recorded_frames(small_kmatrix, small_bus, duration=300.0)
        assert frames
        assert all(a.finished_at <= b.finished_at
                   for a, b in zip(frames, frames[1:]))

    def test_chunked_sizes(self):
        frames = [ObservedFrame("M", float(i), float(i) + 1.0)
                  for i in range(10)]
        chunks = list(chunked(frames, size=4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        with pytest.raises(ValueError):
            list(chunked(frames, size=0))

    def test_frame_json_round_trip(self):
        frame = ObservedFrame("M", 1.5, 2.25, success=False, attempt=2)
        assert ObservedFrame.from_json(frame.to_json()) == frame
        assert frame.response_time == 0.75

    def test_inject_jitter_burst_moves_queuing_earlier(self):
        frames = [ObservedFrame("S", 100.0 * i, 100.0 * i + 1.0)
                  for i in range(10)]
        burst = inject_jitter_burst(frames, "S", start=300.0, count=3,
                                    shift=30.0)
        affected = [f for f in burst if f.queued_at != f.finished_at - 1.0]
        assert len(affected) == 3
        # Linear ramp: 10, 20, 30 ms earlier; completions untouched.
        assert [round(f.response_time, 6) for f in affected] == \
            [11.0, 21.0, 31.0]

    def test_protocol_codecs_and_version(self):
        assert protocol.PROTOCOL_VERSION == 7
        frames = [ObservedFrame("M", 0.0, 1.0),
                  ObservedFrame("A", 0.5, 2.0, success=False, attempt=2),
                  ObservedFrame("M", 1.0, 3)]
        decoded = protocol.frames_from_json(protocol.frames_to_json(frames))
        assert decoded.names == ("A", "M")
        assert decoded.message.tolist() == [1, 0, 1]
        assert decoded.to_frames() == frames
        assert len(protocol.frames_from_json([])) == 0
        with pytest.raises(protocol.ProtocolError):
            protocol.frames_from_json([[1, 2, 3]])
        rules = protocol.alert_rules_from_json(
            [{"name": "a", "expr": "violations > 0"}])
        assert rules[0].metric == "violations"
        with pytest.raises(protocol.ProtocolError):
            protocol.alert_rules_from_json(["not an object"])
        with pytest.raises(protocol.ProtocolError):
            protocol.alert_rules_from_json([{"name": "a"}])

    @pytest.mark.parametrize("text,field", _BAD_FRAMES)
    def test_frame_codec_rejects_non_finite_instants(self, text, field):
        items = json.loads(f'[["Slow", 0.5, 1.0, true, 1], {text}]')
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.frames_from_json(items)
        assert "frame 1" in str(excinfo.value)
        assert field in str(excinfo.value)

    @settings(max_examples=300, deadline=None)
    @given(rows=_decoder_rows)
    def test_frame_codec_contract(self, rows):
        """Valid rows decode to the frames they encode; otherwise the
        error names the first broken row and its first broken field."""
        broken = [index for index, (_, field) in enumerate(rows) if field]
        items = [row for row, _ in rows]
        if not broken:
            batch = protocol.frames_from_json(items)
            assert batch.to_frames() == [ObservedFrame(*row) for row in items]
            return
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.frames_from_json(items)
        prefix = f"malformed observed frame {broken[0]}: "
        assert str(excinfo.value).startswith(prefix + rows[broken[0]][1]), \
            str(excinfo.value)


# --------------------------------------------------------------------------- #
# Monitor core (no transport)
# --------------------------------------------------------------------------- #
class TestConformanceMonitor:
    def _monitor(self, small_kmatrix, small_bus, rules=()):
        session = AnalysisSession(small_kmatrix, small_bus,
                                  name="monitor-test")
        return ConformanceMonitor(
            session, target="bus", rules=rules,
            config=MonitorConfig(window_ms=100.0))

    def test_clean_replay_flags_nothing(self, small_kmatrix, small_bus):
        monitor = self._monitor(small_kmatrix, small_bus)
        frames = _recorded_frames(small_kmatrix, small_bus)
        total = 0
        for chunk in chunked(frames, 256):
            total += len(monitor.ingest(chunk).violations)
        total += len(monitor.flush().violations)
        status = monitor.status()
        assert total == 0
        assert status["violations"] == 0
        assert status["refits"] == 0
        assert status["overrides"] == []
        assert status["frames"] == len(frames)

    def test_burst_flags_exactly_one_message_with_fresh_bound(
            self, small_kmatrix, small_bus):
        monitor = self._monitor(small_kmatrix, small_bus)
        frames = inject_jitter_burst(
            _recorded_frames(small_kmatrix, small_bus), "Slow",
            start=500.0, count=5, shift=120.0)
        violations = []
        for chunk in chunked(frames, 256):
            violations.extend(monitor.ingest(chunk).violations)
        violations.extend(monitor.flush().violations)
        assert violations
        assert {v.message for v in violations} == {"Slow"}
        status = monitor.status()
        assert status["overrides"] == ["Slow"]
        # The flagged record carries the re-derived (post-refit) bound: it
        # bit-matches a from-scratch analysis with the final fitted model.
        arrivals = EmpiricalEventTrace(
            [f.queued_at for f in frames
             if f.message == "Slow" and f.attempt == 1])
        fitted = fit_periodic_jitter(arrivals, 100.0, max_n=64)
        direct = CanBusAnalysis(
            small_kmatrix, small_bus, assumed_jitter_fraction=0.0,
            event_models={"Slow": fitted}).analyze_all()
        assert status["messages"]["Slow"]["bound"] == \
            direct["Slow"].worst_case
        assert status["messages"]["Slow"]["fitted_jitter"] == fitted.jitter
        # Deadline violations only: the refit made the bound cover the
        # observed burst before the violation was recorded.
        assert all(v.kind == "observed-over-deadline" for v in violations)
        assert all(v.observed <= status["messages"]["Slow"]["bound"] + 1e-9
                   for v in violations)

    def test_violation_counters_and_alerts(self, small_kmatrix, small_bus):
        registry = MetricsRegistry()
        session = AnalysisSession(small_kmatrix, small_bus,
                                  name="monitor-metrics")
        monitor = ConformanceMonitor(
            session, target="bus",
            rules=(AlertRule.parse("any-violation", "violations > 0"),),
            config=MonitorConfig(window_ms=100.0), metrics=registry)
        frames = inject_jitter_burst(
            _recorded_frames(small_kmatrix, small_bus), "Slow",
            start=500.0, count=5, shift=120.0)
        alerts = []
        for chunk in chunked(frames, 256):
            alerts.extend(monitor.ingest(chunk).alerts)
        alerts.extend(monitor.flush().alerts)
        assert [a.rule for a in alerts] == ["any-violation"]
        assert registry.value("monitor_violations_total",
                              message="Slow", target="bus") == 1.0
        assert registry.value("monitor_violations_total",
                              message="FastA", target="bus") == 0.0
        assert registry.value("monitor_alerts_total",
                              rule="any-violation", target="bus") == 1.0
        assert registry.value("monitor_refits_total", target="bus") >= 1.0
        fired = monitor.alerts()["fired"]
        assert fired and fired[-1]["rule"] == "any-violation"
        # History carries the windowed series behind the alert.
        assert monitor.history.latest("observed_max_ms", message="Slow") \
            is not None

    def test_two_targets_keep_separate_series(self, small_kmatrix,
                                              small_bus):
        """Monitors sharing a registry and message names count apart."""
        registry = MetricsRegistry()
        rules = (AlertRule.parse("any-violation", "violations > 0"),)
        monitors = {
            target: ConformanceMonitor(
                AnalysisSession(small_kmatrix, small_bus, name=target),
                target=target, rules=rules,
                config=MonitorConfig(window_ms=100.0), metrics=registry)
            for target in ("burst", "clean")}
        frames = _recorded_frames(small_kmatrix, small_bus)
        streams = {
            "burst": inject_jitter_burst(frames, "Slow", start=500.0,
                                         count=5, shift=120.0),
            "clean": frames}
        for target, monitor in monitors.items():
            for chunk in chunked(streams[target], 256):
                monitor.ingest(chunk)
            monitor.flush()
        for target, expected in (("burst", 1), ("clean", 0)):
            status = monitors[target].status()
            violations = registry.value(
                "monitor_violations_total", message="Slow", target=target)
            assert violations == status["messages"]["Slow"]["violations"] \
                == status["violations"] == expected
            assert registry.value("monitor_alerts_total",
                                  rule="any-violation",
                                  target=target) == expected

    def test_refits_under_trimming_match_fresh_fits(
            self, small_kmatrix, small_bus, monkeypatch):
        """Every fit the monitor makes -- incremental, or restarted after
        a trim -- equals a fit of a fresh trace over the same arrivals."""
        import repro.monitor.conformance as conformance
        fits = []

        def checked_fit(traces, periods, max_n):
            fitted = fit_periodic_jitter_many(traces, periods, max_n=max_n)
            fresh = fit_periodic_jitter_many(
                [EmpiricalEventTrace(trace.timestamps) for trace in traces],
                periods, max_n=max_n)
            fits.extend(zip(map(id, traces), map(len, traces), fitted, fresh))
            return fitted

        monkeypatch.setattr(conformance, "fit_periodic_jitter_many",
                            checked_fit)
        session = AnalysisSession(small_kmatrix, small_bus,
                                  name="monitor-trim")
        monitor = ConformanceMonitor(
            session, target="bus",
            config=MonitorConfig(window_ms=100.0, max_arrivals=8))
        frames = inject_jitter_burst(
            _recorded_frames(small_kmatrix, small_bus), "Slow",
            start=500.0, count=5, shift=120.0)
        for chunk in chunked(frames, 64):
            monitor.ingest(chunk)
        monitor.flush()
        status = monitor.status()
        assert status["overrides"] == ["Slow"]
        # Trims happened: some trace was refitted after shrinking.
        sizes: dict[int, list[int]] = {}
        for trace_id, size, _, _ in fits:
            sizes.setdefault(trace_id, []).append(size)
        assert any(later < earlier for history in sizes.values()
                   for earlier, later in zip(history, history[1:]))
        assert all(fitted == fresh for _, _, fitted, fresh in fits)
        override = monitor.overrides["Slow"]
        assert override.jitter in {fitted for _, _, fitted, _ in fits}
        assert status["messages"]["Slow"]["fitted_jitter"] == override.jitter

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(start=st.floats(min_value=0.0, max_value=1500.0),
           count=st.integers(min_value=1, max_value=8),
           shift=st.floats(min_value=0.0, max_value=200.0),
           max_arrivals=st.sampled_from([8, 4096]))
    def test_chunking_does_not_change_the_outcome(
            self, small_kmatrix, small_bus, start, count, shift,
            max_arrivals):
        """The same burst stream ingested in chunks of 1, 7, 64, 1024 and
        whole (typed, or decoded from the wire) concludes the same."""
        frames = inject_jitter_burst(
            _recorded_frames(small_kmatrix, small_bus, duration=1200.0),
            "Slow", start=start, count=count, shift=shift)
        rules = (AlertRule.parse("any-violation", "violations > 0"),
                 AlertRule.parse("tight", "observed_slack_ms < 0.5*deadline"
                                 " for 2 windows"))

        def replay(chunks):
            monitor = ConformanceMonitor(
                AnalysisSession(small_kmatrix, small_bus, name="chunks"),
                target="bus", rules=rules,
                config=MonitorConfig(window_ms=100.0,
                                     max_arrivals=max_arrivals))
            reports = [monitor.ingest(chunk) for chunk in chunks]
            reports.append(monitor.flush())
            return (
                [v.to_json() for r in reports for v in r.violations],
                [a.to_json() for r in reports for a in r.alerts],
                sum(r.windows_closed for r in reports),
                sum(r.refits for r in reports),
                sum(r.frames for r in reports),
                monitor.status(),
                monitor.history.snapshot(),
            )

        whole = replay([frames])
        assert whole[4] == len(frames)
        assert replay([protocol.frames_from_json(
            protocol.frames_to_json(frames))]) == whole
        for size in (1, 7, 64, 1024):
            assert replay(chunked(frames, size)) == whole, size

    def test_ties_order_by_queuing_instant_then_name(self, small_kmatrix,
                                                     small_bus):
        monitor = self._monitor(small_kmatrix, small_bus)
        # All three complete at 40 ms, far past the 10 ms deadlines.
        report = monitor.ingest([ObservedFrame("FastB", 2.0, 40.0),
                                 ObservedFrame("FastA", 2.0, 40.0),
                                 ObservedFrame("FastB", 1.0, 40.0)])
        flagged = []
        for violation in report.violations:
            key = (violation.message, violation.queued_at)
            if not flagged or flagged[-1] != key:
                flagged.append(key)
        assert flagged == [("FastB", 1.0), ("FastA", 2.0), ("FastB", 2.0)]

    def test_far_future_frame_honours_the_deadline(self, small_kmatrix,
                                                    small_bus):
        registry = MetricsRegistry()
        session = AnalysisSession(small_kmatrix, small_bus,
                                  name="monitor-deadline")
        monitor = ConformanceMonitor(
            session, target="bus", config=MonitorConfig(window_ms=100.0),
            metrics=registry)
        monitor.ingest([ObservedFrame("Slow", 0.0, 1.0)])
        # 1e7 ms is 100 000 windows to close: seconds of work, cut short.
        with pytest.raises(DeadlineExceeded):
            monitor.ingest([ObservedFrame("FastA", 2.0, 3.0),
                            ObservedFrame("Slow", 1e7 - 1.0, 1e7)],
                           cancel=CancelToken.after_ms(50))
        assert monitor.status()["window"] < 100_000
        report = monitor.ingest([ObservedFrame("FastB", 4.0, 5.0)])
        assert report.frames == 1
        status = monitor.status()
        # The frame processed before the deadline counts in both records.
        assert status["frames"] == 3
        assert registry.value("monitor_frames_total", target="bus") == 3.0

    def test_unknown_message_raises_typed_error(self, small_kmatrix,
                                                small_bus):
        from repro.sim.trace import UnknownMessageError
        registry = MetricsRegistry()
        session = AnalysisSession(small_kmatrix, small_bus,
                                  name="monitor-unknown")
        monitor = ConformanceMonitor(
            session, target="bus", config=MonitorConfig(window_ms=100.0),
            metrics=registry)
        before = (monitor.status(), monitor.history.snapshot(),
                  registry.snapshot())
        chunk = [ObservedFrame("Slow", 1.0, 2.0),
                 ObservedFrame("Slow", 251.0, 252.0),
                 ObservedFrame("Nope", 301.0, 302.0)]
        with pytest.raises(UnknownMessageError) as excinfo:
            monitor.ingest(chunk)
        assert excinfo.value.name == "Nope"
        # Nothing of the chunk was applied, so a corrected retry counts
        # each frame once.
        assert (monitor.status(), monitor.history.snapshot(),
                registry.snapshot()) == before
        report = monitor.ingest(chunk[:2])
        assert report.frames == 2
        assert monitor.status()["frames"] == 2
        assert monitor.status()["window"] == 2


# --------------------------------------------------------------------------- #
# Serving tier: acceptance end-to-end
# --------------------------------------------------------------------------- #
class TestMonitorOverTheWire:
    def _daemon(self, small_kmatrix, small_bus):
        daemon = AnalysisDaemon(name="monitor-e2e")
        daemon.add_config("bus", _configuration(small_kmatrix, small_bus))
        return daemon

    def test_tcp_replay_conformance_end_to_end(self, small_kmatrix,
                                               small_bus):
        frames = _recorded_frames(small_kmatrix, small_bus)
        burst = inject_jitter_burst(frames, "Slow", start=500.0, count=5,
                                    shift=120.0)
        daemon = self._daemon(small_kmatrix, small_bus)
        server = start_server(daemon, port=0)
        host, port = server.address
        try:
            with TcpClient(host, port) as client:
                client.monitor_start(
                    "bus", window_ms=100.0,
                    rules=[AlertRule.parse("any-violation",
                                           "violations > 0")])
                # Clean replay first: nothing may be flagged.
                clean_violations = []
                for chunk in chunked(frames, 256):
                    report = client.monitor_ingest("bus", chunk)
                    clean_violations.extend(report["violations"])
                report = client.monitor_ingest("bus", [], flush=True)
                clean_violations.extend(report["violations"])
                assert clean_violations == []
                assert client.monitor_status("bus")["violations"] == 0

                # Restart and replay the burst: exactly one message flagged.
                client.monitor_start(
                    "bus", window_ms=100.0,
                    rules=[AlertRule.parse("any-violation",
                                           "violations > 0")])
                violations, alerts = [], []
                for chunk in chunked(burst, 256):
                    report = client.monitor_ingest("bus", chunk)
                    violations.extend(report["violations"])
                    alerts.extend(report["alerts"])
                report = client.monitor_ingest("bus", [], flush=True)
                violations.extend(report["violations"])
                alerts.extend(report["alerts"])
                assert {v["message"] for v in violations} == {"Slow"}

                # Re-derived bound bit-matches a from-scratch analysis with
                # the fitted empirical model -- through JSON and TCP.
                status = client.monitor_status("bus")
                arrivals = EmpiricalEventTrace(
                    [f.queued_at for f in burst
                     if f.message == "Slow" and f.attempt == 1])
                fitted = fit_periodic_jitter(arrivals, 100.0, max_n=64)
                direct = CanBusAnalysis(
                    small_kmatrix, small_bus, assumed_jitter_fraction=0.0,
                    event_models={"Slow": fitted}).analyze_all()
                assert status["messages"]["Slow"]["bound"] == \
                    direct["Slow"].worst_case
                assert status["overrides"] == ["Slow"]

                # The violation and the fired alert are visible through the
                # observability ops.
                counters = client.metrics(
                    history=True, history_last=8)["metrics"]["counters"]
                assert counters[
                    'monitor_violations_total{message="Slow",target="bus"}'] == 1.0
                assert counters[
                    'monitor_alerts_total{rule="any-violation",target="bus"}'] == 1.0
                assert [a["rule"] for a in alerts] == ["any-violation"]
                fired = client.monitor_alerts("bus")["fired"]
                assert [a["rule"] for a in fired] == ["any-violation"]
                history = client.metrics(
                    history=True, history_last=8)["history"]
                assert 'observed_max_ms{message="Slow"}' in history["bus"]
                stopped = client.monitor_stop("bus")
                assert stopped["violations"] == len(violations)
        finally:
            server.stop()

    def test_monitor_error_taxonomy_over_the_wire(self, small_kmatrix,
                                                  small_bus):
        daemon = self._daemon(small_kmatrix, small_bus)
        client = InProcessClient(daemon)
        with pytest.raises(DaemonError) as excinfo:
            client.monitor_status("bus")
        assert excinfo.value.code == "unknown_target"
        with pytest.raises(DaemonError) as excinfo:
            client.monitor_start("missing")
        assert excinfo.value.code == "unknown_target"
        client.monitor_start("bus")
        with pytest.raises(DaemonError) as excinfo:
            client.monitor_ingest("bus", [ObservedFrame("Nope", 0.0, 1.0)])
        assert excinfo.value.code == "unknown_target"
        with pytest.raises(DaemonError) as excinfo:
            client.monitor_ingest("bus", [["bad", "frame"]])
        assert excinfo.value.code == "protocol"
        with pytest.raises(DaemonError) as excinfo:
            client.monitor_start("bus", window_ms=-1.0)
        assert excinfo.value.code == "invalid"
        with pytest.raises(DaemonError, match="window_ms") as excinfo:
            client.monitor_start("bus", window_ms=10 ** 400)
        assert excinfo.value.code == "protocol"
        # A NaN window or a history ring too large to allocate is refused
        # at start, not on the first window close of every later ingest.
        with pytest.raises(DaemonError, match="history_windows") as excinfo:
            client.monitor_start("bus", history_windows=2 ** 63)
        assert excinfo.value.code == "invalid"
        response = daemon.handle({"op": "monitor_start", "target": "bus",
                                  "window_ms": float("nan")})
        assert response["code"] == "protocol"
        assert "window_ms" in response["error"]
        daemon.close()

    @pytest.mark.parametrize("transport", ["in-process", "tcp"])
    def test_bad_frames_and_far_future_get_typed_errors(
            self, small_kmatrix, small_bus, transport):
        daemon = self._daemon(small_kmatrix, small_bus)
        server = start_server(daemon, port=0) if transport == "tcp" \
            else None
        sock = reader = None
        if server is not None:
            sock = socket.create_connection(server.address, timeout=30.0)
            reader = sock.makefile("rb")

        def call(line: str) -> dict:
            # Raw text, as a peer could send it: the client's encoder
            # refuses NaN and infinities before they reach the daemon.
            if sock is None:
                return daemon.handle(protocol.decode_line(line))
            sock.sendall(line.encode("utf-8") + b"\n")
            return protocol.decode_line(reader.readline())

        def ingest(frames: str, **params) -> dict:
            extra = "".join(f', "{key}": {json.dumps(value)}'
                            for key, value in params.items())
            return call('{"op": "monitor_ingest", "target": "bus", '
                        f'"frames": {frames}{extra}}}')

        def status() -> dict:
            response = call('{"op": "monitor_status", "target": "bus"}')
            assert response["ok"], response
            protocol.encode_line(response)  # stays encodable
            return response["result"]

        try:
            assert call('{"op": "monitor_start", "target": "bus"}')["ok"]
            assert ingest('[["Slow", 0.0, 1.0, true, 1]]')["ok"]
            for text, field in (case.values for case in _BAD_FRAMES):
                response = ingest(f'[["FastA", 0.5, 1.5, true, 1], {text}]')
                assert response["ok"] is False
                assert response["code"] == "protocol", response
                assert "frame 1" in response["error"]
                assert field in response["error"]
            # Rejected chunks are rejected whole: nothing was ingested.
            assert status()["frames"] == 1
            response = ingest('[["Slow", 9999999.0, 10000000.0, true, 1]]',
                              deadline_ms=50)
            assert response["ok"] is False
            assert response["code"] == "timeout", response
            response = ingest('[["FastB", 2.0, 3.0, true, 1]]')
            assert response["ok"], response
            assert response["result"]["frames"] == 1
            assert status()["frames"] == 2
        finally:
            if sock is not None:
                reader.close()
                sock.close()
            if server is not None:
                server.stop()
            daemon.close()

    def test_monitor_restart_resets_state(self, small_kmatrix, small_bus):
        daemon = self._daemon(small_kmatrix, small_bus)
        client = InProcessClient(daemon)
        frames = inject_jitter_burst(
            _recorded_frames(small_kmatrix, small_bus), "Slow",
            start=500.0, count=5, shift=120.0)
        client.monitor_start("bus", window_ms=100.0)
        client.monitor_ingest("bus", frames, flush=True)
        assert client.monitor_status("bus")["violations"] == 1
        client.monitor_start("bus", window_ms=100.0)
        status = client.monitor_status("bus")
        assert status["violations"] == 0
        assert status["frames"] == 0
        assert status["overrides"] == []
        daemon.close()

    def test_monitor_stops_with_its_targets_session(self):
        """A registration that replaces or drops a monitored target's
        session stops its monitor; one that keeps the session keeps it."""
        from repro.workloads.multibus import multibus_system

        daemon = AnalysisDaemon(name="monitor-rereg")
        client = InProcessClient(daemon)
        client.register_system("plant", multibus_system(3, 6, seed=1))
        client.monitor_start("plant/CAN-2")
        client.monitor_start("plant/CAN-1")
        # CAN-2 is dropped, CAN-1 gets a new configuration.
        client.register_system("plant", multibus_system(2, 9, seed=3))
        for target in ("plant/CAN-2", "plant/CAN-1"):
            with pytest.raises(DaemonError) as excinfo:
                client.monitor_status(target)
            assert excinfo.value.code == "unknown_target"
        assert client.health()["monitors"] == []
        started = client.monitor_start("plant/CAN-1")
        assert len(started["messages"]) == len(
            client.query("plant/CAN-1")["results"])
        # The same model again lands on the same sessions.
        client.register_system("plant", multibus_system(2, 9, seed=3))
        assert client.monitor_status("plant/CAN-1")["target"] == \
            "plant/CAN-1"
        # So does a single-bus target registered twice alike.
        config = BusConfiguration.from_segment(
            multibus_system(2, 9, seed=3).buses["CAN-0"])
        client.register_config("solo", config)
        client.monitor_start("solo")
        client.register_config("solo", config)
        assert client.health()["monitors"] == ["plant/CAN-1", "solo"]
        client.register_config("solo", BusConfiguration.from_segment(
            multibus_system(2, 6, seed=2).buses["CAN-0"]))
        assert client.health()["monitors"] == ["plant/CAN-1"]
        daemon.close()

    def test_health_reports_active_alerts(self, small_kmatrix, small_bus):
        daemon = self._daemon(small_kmatrix, small_bus)
        client = InProcessClient(daemon)
        client.monitor_start(
            "bus", window_ms=100.0,
            rules=[AlertRule.parse("always", "frames >= 0")])
        frames = _recorded_frames(small_kmatrix, small_bus, duration=300.0)
        client.monitor_ingest("bus", frames, flush=True)
        health = client.health()
        assert health["monitors"] == ["bus"]
        assert health["status"] == "degraded"
        assert any("active alert" in cause for cause in health["causes"])
        assert health["signals"]["monitor_active_alerts"] >= 1
        client.monitor_stop("bus")
        assert client.health()["status"] == "ok"
        daemon.close()

    def test_monitor_status_is_a_control_op_during_drain(self, small_kmatrix,
                                                         small_bus):
        daemon = self._daemon(small_kmatrix, small_bus)
        client = InProcessClient(daemon)
        client.monitor_start("bus")
        daemon.close(grace=0.0)
        # Status/alerts keep answering while draining; ingest is rejected.
        assert client.monitor_status("bus")["target"] == "bus"
        assert client.monitor_alerts("bus")["active"] == []
        with pytest.raises(DaemonError) as excinfo:
            client.monitor_ingest("bus", [])
        assert excinfo.value.code == "draining"

    def test_reporting_formatters_render(self, small_kmatrix, small_bus):
        from repro.reporting import format_alerts, format_monitor_status
        daemon = self._daemon(small_kmatrix, small_bus)
        client = InProcessClient(daemon)
        client.monitor_start(
            "bus", rules=[AlertRule.parse("any", "violations > 0")])
        frames = inject_jitter_burst(
            _recorded_frames(small_kmatrix, small_bus), "Slow",
            start=500.0, count=5, shift=120.0)
        client.monitor_ingest("bus", frames, flush=True)
        status_text = format_monitor_status(client.monitor_status("bus"),
                                            title="monitor")
        assert "Slow" in status_text and "violation" in status_text
        alerts_text = format_alerts(client.monitor_alerts("bus"))
        assert "any" in alerts_text
        daemon.close()
