"""The online conformance monitor.

A :class:`ConformanceMonitor` is bound to one registered bus target and its
store-backed :class:`~repro.service.session.AnalysisSession`.  It ingests
observed frame streams (live from the simulator, or replayed in chunks over
the daemon's ``monitor_ingest`` op) and continuously checks three
conformance properties per message:

* **observed response vs analytic bound** -- every observed response time
  must stay at or below the current analytic worst case; an excursion means
  the analysis assumptions no longer describe the bus;
* **observed response vs deadline** -- the operational property the paper
  verifies analytically, checked against what actually happened;
* **arrival envelope vs registered event model** -- the observed
  ``empirical_eta_minus`` envelope must dominate the registered model's
  lower curve.  When it escapes (equivalently, by the eta/delta duality:
  the minimal conservative fitted jitter exceeds the registered jitter),
  the monitor *re-derives* the bounds by issuing an
  :class:`~repro.service.deltas.EventModelDelta` with the fitted model to
  the session -- so a flagged bound is always the current analytic answer
  for the observed behaviour, never a stale one, and bit-matches a
  from-scratch ``analyze_all`` of the overridden configuration (the
  session contract).

Time is sliced into fixed windows (``MonitorConfig.window_ms``).  At each
window close the monitor records per-message series into a
:class:`~repro.obs.MetricsHistory` ring, runs the declarative
:class:`~repro.monitor.rules.AlertEngine`, and re-checks arrival envelopes.
Violations feed the registry counters, the trace ring (one span-tree record
per violation, retained by overshoot severity) and the slow-query log.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.events.curves import EmpiricalEventTrace, fit_periodic_jitter_many
from repro.events.model import EventModel, event_model_from_parameters
from repro.monitor.rules import Alert, AlertEngine, AlertRule
from repro.monitor.stream import FrameBatch, ObservedFrame
from repro.obs import MetricsHistory, MetricsRegistry, Trace
from repro.service.deltas import EventModelDelta
from repro.sim.trace import UnknownMessageError

#: Absolute slack (ms) granted before an observed response time counts as
#: over a bound/deadline -- the same guard band the schedulability verdicts
#: use, absorbing float fuzz without hiding real excursions.
_VIOLATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of one conformance monitor."""

    window_ms: float = 100.0
    history_windows: int = 128
    max_arrivals: int = 4096
    fit_max_n: int = 64
    jitter_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        # NaN fails the comparison; a ring beyond sys.maxsize cannot exist.
        if not 0 < self.window_ms < math.inf:
            raise ValueError("window_ms must be positive and finite")
        if not 1 <= self.history_windows <= sys.maxsize:
            raise ValueError(f"history_windows must be >= 1 and <= {sys.maxsize}")
        if self.max_arrivals < 2:
            raise ValueError("max_arrivals must be >= 2")
        if self.fit_max_n < 2:
            raise ValueError("fit_max_n must be >= 2")


@dataclass(frozen=True)
class ViolationRecord:
    """One flagged conformance violation."""

    message: str
    kind: str  # "observed-over-bound" | "observed-over-deadline"
    window: int
    observed: float
    bound: float | None
    deadline: float
    queued_at: float

    @property
    def overshoot(self) -> float:
        """How far past the violated limit the observation landed (ms)."""
        if self.kind == "observed-over-bound" and self.bound is not None:
            return self.observed - self.bound
        return self.observed - self.deadline

    def to_json(self) -> dict:
        return {
            "message": self.message,
            "kind": self.kind,
            "window": self.window,
            "observed": self.observed,
            "bound": self.bound,
            "deadline": self.deadline,
            "queued_at": self.queued_at,
            "overshoot": self.overshoot,
        }


@dataclass
class IngestReport:
    """What one ``ingest`` call observed and concluded."""

    frames: int = 0
    windows_closed: int = 0
    refits: int = 0
    violations: list[ViolationRecord] = field(default_factory=list)
    alerts: list[Alert] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "frames": self.frames,
            "windows_closed": self.windows_closed,
            "refits": self.refits,
            "violations": [v.to_json() for v in self.violations],
            "alerts": [a.to_json() for a in self.alerts],
        }


class _MessageState:
    """Mutable monitoring state of one registered message."""

    __slots__ = (
        "name",
        "period",
        "registered_jitter",
        "deadline",
        "bound",
        "bounded",
        "arrivals",
        "override",
        "frames",
        "completed",
        "observed_max",
        "window_arrivals",
        "window_completed",
        "window_max",
    )

    def __init__(self, name: str, period: float, registered_jitter: float) -> None:
        self.name = name
        self.period = period
        self.registered_jitter = registered_jitter
        self.deadline = 0.0
        self.bound: float | None = None
        self.bounded = False
        self.arrivals = EmpiricalEventTrace()
        self.override: EventModel | None = None
        self.frames = 0
        self.completed = 0
        self.observed_max = 0.0
        self.window_arrivals = 0
        self.window_completed = 0
        self.window_max = 0.0

    @property
    def current_jitter(self) -> float:
        """Jitter of the model currently backing this message's bound."""
        if self.override is not None:
            return self.override.jitter
        return self.registered_jitter

    def alert_sample(self) -> tuple[dict[str, float], dict[str, float]]:
        """The closing window's metric values and threshold scales."""
        values: dict[str, float] = {
            "frames": float(self.window_completed),
            "arrivals": float(self.window_arrivals),
        }
        if self.window_completed:
            values["observed_max_ms"] = self.window_max
            values["observed_slack_ms"] = self.deadline - self.window_max
        scale: dict[str, float] = {"deadline": self.deadline}
        if self.bounded and self.bound is not None:
            scale["bound"] = self.bound
        return values, scale

    def reset_window(self) -> None:
        self.window_arrivals = 0
        self.window_completed = 0
        self.window_max = 0.0


class ConformanceMonitor:
    """Checks an observed frame stream against live analytic bounds."""

    def __init__(
        self,
        session,
        *,
        target: str = "bus",
        config: MonitorConfig | None = None,
        rules: Sequence[AlertRule] = (),
        metrics=None,
        trace_ring=None,
        slow_log=None,
    ) -> None:
        self.session = session
        self.target = target
        self.config = config or MonitorConfig()
        self.history = MetricsHistory(self.config.history_windows)
        self.engine = AlertEngine(rules)
        self.trace_ring = trace_ring
        self.slow_log = slow_log
        self._lock = threading.Lock()
        self._overrides: dict[str, EventModel] = {}
        self._window = 0
        self._window_violations = 0
        base_config = session.base_config
        self._states: dict[str, _MessageState] = {}
        for message in base_config.kmatrix:
            model = base_config.effective_event_model(message.name)
            self._states[message.name] = _MessageState(message.name, message.period, model.jitter)
        # Columnar ingest addresses states by position: frames carry a
        # state index, and the violation limits are arrays over it.
        self._state_list = list(self._states.values())
        self._state_index = {name: index for index, name in enumerate(self._states)}
        self._bound_limit = np.full(len(self._state_list), np.inf)
        self._deadline_limit = np.full(len(self._state_list), np.inf)
        # History series keys, computed once: each window close records
        # ~4 points per message in one record_many call.
        series = ("monitor_frames", "monitor_arrivals", "observed_max_ms", "observed_slack_ms")
        self._series_keys = [
            tuple(self.history.key(name, message=message) for name in series)
            for message in self._states
        ]
        self._violations_key = self.history.key("monitor_violations")
        # Baseline bounds and policy-resolved deadlines from the session's
        # own report; every refit refreshes both through the same path.
        self._warm = session.query((), label="monitor-baseline")
        self._apply_query_result(self._warm)
        # The monitor's counts live in its children of the registry's
        # monitor_* families, labelled by target (status() reads them);
        # without a shared registry the monitor keeps a private one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter = self.metrics.counter
        self._frames_total = counter("monitor_frames_total", target=target).child()
        self._windows_total = counter("monitor_windows_total", target=target).child()
        self._refits_total = counter("monitor_refits_total", target=target).child()
        self._violation_counters = {
            name: counter("monitor_violations_total", message=name, target=target).child()
            for name in self._states
        }
        self._alert_counters = {
            rule.name: counter("monitor_alerts_total", rule=rule.name, target=target).child()
            for rule in self.engine.rules
        }

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, frames: FrameBatch | Iterable[ObservedFrame], cancel=None) -> IngestReport:
        """Feed a chunk of observed frames; returns what was concluded.

        ``frames`` is a :class:`~repro.monitor.stream.FrameBatch` (what
        ``monitor_ingest`` decodes) or typed frames, which are put into
        columns first.  Frames are processed in completion order (ties by
        queuing instant, then message name); windows strictly before the
        newest completion are closed along the way (alert evaluation,
        history recording, envelope re-checks).

        The chunk is processed a window segment at a time: counts, maxima
        and arrivals of a segment are tallied in bulk, and only a frame
        over its bound or deadline stops the segment, to re-derive the
        bounds and flag it before the rest of the segment is checked
        against the refreshed bounds.

        Every message name is resolved before any state changes: a chunk
        naming a message the registered system does not define raises
        :class:`~repro.sim.trace.UnknownMessageError` and is rejected
        whole.  A cancel token cuts a chunk short between segments and at
        each window close; the frames tallied before the cut stay counted.
        """
        batch = frames if isinstance(frames, FrameBatch) else FrameBatch.from_frames(frames)
        report = IngestReport()
        order = np.lexsort((batch.message, batch.queued_at, batch.finished_at))
        lookup = np.array([self._state_index.get(name, -1) for name in batch.names], dtype=np.intp)
        states = lookup[batch.message[order]]
        if (states < 0).any():
            name = batch.names[batch.message[order][np.argmax(states < 0)]]
            raise UnknownMessageError(name, self._states)
        queued = batch.queued_at[order]
        finished = batch.finished_at[order]
        columns = (
            states,
            queued,
            finished - queued,
            batch.success[order],
            batch.attempt[order] == 1,
        )
        # Frames are sorted by completion, so each frame's window, raised
        # to the running maximum, splits the chunk into window segments.
        windows = np.maximum.accumulate(np.floor_divide(finished, self.config.window_ms))
        with self._lock:
            try:
                start = 0
                while start < len(states):
                    if cancel is not None:
                        cancel.check()
                    self._advance_windows(int(windows[start]), report, cancel)
                    end = int(np.searchsorted(windows, self._window, side="right"))
                    self._ingest_segment(columns, start, end, report, cancel)
                    start = end
            finally:
                # One batched increment per chunk: exact at every request
                # boundary (status() waits for the lock), without a lock
                # round-trip per segment -- including a chunk a cancel
                # cuts short.
                if report.frames:
                    self._frames_total.inc(report.frames)
        return report

    def _ingest_segment(self, columns, start: int, end: int, report: IngestReport, cancel) -> None:
        """Ingest frames ``start:end`` of the sorted columns, all of them in
        the current window."""
        states, queued, response, success, first = columns
        while start < end:
            window = slice(start, end)
            index = states[window]
            over = success[window] & (
                (response[window] > self._bound_limit[index])
                | (response[window] > self._deadline_limit[index])
            )
            hit = int(over.argmax()) if over.any() else -1
            stop = end if hit < 0 else start + hit + 1
            part = slice(start, stop)
            self._tally(states[part], queued[part], response[part], success[part], first[part])
            report.frames += stop - start
            if hit >= 0:
                # Re-derive before flagging, so the record carries the
                # current analytic answer for the observed arrivals, never a
                # stale one; the frames after it meet the refreshed bounds.
                state = self._state_list[int(states[stop - 1])]
                if self._refit_if_escaped((state,), cancel):
                    report.refits += 1
                self._flag_violations(
                    state, float(queued[stop - 1]), float(response[stop - 1]), report
                )
            start = stop

    def _tally(self, states, queued, response, success, first) -> None:
        """Fold a run of frames into the per-message counts, maxima and
        arrival traces (first attempts, in frame order)."""
        size = len(self._state_list)
        frames = np.bincount(states, minlength=size).tolist()
        arrived = states[first]
        arrivals = np.bincount(arrived, minlength=size).tolist()
        completed_states = states[success]
        completed = np.bincount(completed_states, minlength=size).tolist()
        peaks = np.full(size, -np.inf)
        np.maximum.at(peaks, completed_states, response[success])
        peaks = peaks.tolist()
        # Arrival instants grouped by message, frame order kept within each.
        arrival_times = queued[first][np.argsort(arrived, kind="stable")].tolist()
        offset = 0
        for index, count in enumerate(frames):
            if not count:
                continue
            state = self._state_list[index]
            state.frames += count
            if arrivals[index]:
                state.arrivals.extend(arrival_times[offset : offset + arrivals[index]])
                offset += arrivals[index]
                state.window_arrivals += arrivals[index]
            if completed[index]:
                state.completed += completed[index]
                state.window_completed += completed[index]
                peak = peaks[index]
                if peak > state.window_max:
                    state.window_max = peak
                if peak > state.observed_max:
                    state.observed_max = peak

    def _flag_violations(
        self,
        state: _MessageState,
        queued_at: float,
        observed: float,
        report: IngestReport,
    ) -> None:
        kinds = []
        if (
            state.bounded
            and state.bound is not None
            and observed > state.bound + _VIOLATION_TOLERANCE
        ):
            kinds.append("observed-over-bound")
        if observed > state.deadline + _VIOLATION_TOLERANCE:
            kinds.append("observed-over-deadline")
        for kind in kinds:
            violation = ViolationRecord(
                message=state.name,
                kind=kind,
                window=self._window,
                observed=observed,
                bound=state.bound if state.bounded else None,
                deadline=state.deadline,
                queued_at=queued_at,
            )
            self._violation_counters[state.name].inc()
            self._window_violations += 1
            report.violations.append(violation)
            self._record_violation_trace(violation)

    def _record_violation_trace(self, violation: ViolationRecord) -> None:
        if self.trace_ring is None and self.slow_log is None:
            return
        trace = Trace(
            op="monitor_violation",
            target=f"{self.target}/{violation.message}",
        )
        trace.record("observed_ms", violation.observed)
        if violation.bound is not None:
            trace.record("bound_ms", violation.bound)
        trace.record("deadline_ms", violation.deadline)
        trace.record(violation.kind, violation.overshoot)
        # Retention in the ring is by duration; a violation's severity is
        # its overshoot, so the worst excursions are the ones kept.
        trace.duration_ms = violation.overshoot
        if self.trace_ring is not None:
            self.trace_ring.add(trace)
        if self.slow_log is not None:
            self.slow_log.maybe_log(trace, fingerprint=f"violation:{violation.message}")

    # ------------------------------------------------------------------ #
    # Windows, envelopes, re-derivation
    # ------------------------------------------------------------------ #
    def _advance_windows(self, target_window: int, report: IngestReport, cancel) -> None:
        # A frame far in the future closes one window per ``window_ms`` it
        # skips: check the token at each, so a deadline bounds the gap.
        while self._window < target_window:
            if cancel is not None:
                cancel.check()
            self._close_window(report, cancel)
            self._window += 1

    def _close_window(self, report: IngestReport, cancel) -> None:
        window = self._window
        report.windows_closed += 1
        self._windows_total.inc()
        escaped = [state for state in self._state_list if state.window_arrivals]
        if self._refit_if_escaped(escaped, cancel):
            report.refits += 1
        # Without rules nothing reads the alert sample, so it is not built.
        alerting = bool(self.engine.rules)
        sample: dict[str | None, dict[str, float]] = {}
        scales: dict[str, dict[str, float]] = {}
        points = []
        # Tracked on the monitor, not the report: one window may span
        # several ingest chunks.
        window_violations = self._window_violations
        self._window_violations = 0
        for state, keys in zip(self._state_list, self._series_keys):
            frames_key, arrivals_key, max_key, slack_key = keys
            points.append((frames_key, state.window_completed))
            points.append((arrivals_key, state.window_arrivals))
            if state.window_completed:
                points.append((max_key, state.window_max))
                points.append((slack_key, state.deadline - state.window_max))
            if alerting:
                sample[state.name], scales[state.name] = state.alert_sample()
            state.reset_window()
        points.append((self._violations_key, window_violations))
        self.history.record_many(window, points)
        if not alerting:
            return
        global_values: dict[str, float] = {"violations": float(window_violations)}
        for rule in self.engine.rules:
            if rule.metric not in global_values:
                value = self.metrics.value(rule.metric)
                if value is not None:
                    global_values[rule.metric] = value
        sample[None] = global_values
        fired = self.engine.evaluate(window, sample, scales)
        report.alerts.extend(fired)
        for alert in fired:
            counter = self._alert_counters.get(alert.rule)
            if counter is not None:
                counter.inc()

    def _refit_if_escaped(self, states: Iterable[_MessageState], cancel) -> bool:
        """Re-derive bounds when any state's arrival envelope escaped.

        Escape test: fit the tightest conservative periodic-with-jitter
        model to the observed arrivals; a fitted jitter above the current
        model's is, by the eta/delta duality, exactly an
        ``empirical_eta_minus`` curve dipping below the model's
        ``eta_minus`` on some horizon.  All escaped messages are folded
        into one :class:`EventModelDelta` so interference coupling is
        re-solved once, and every message's bound/deadline refreshes from
        the same query.
        """
        candidates = [state for state in states if len(state.arrivals) >= 2]
        jitters = fit_periodic_jitter_many(
            [state.arrivals for state in candidates],
            [state.period for state in candidates],
            max_n=self.config.fit_max_n,
        )
        changed = False
        for state, jitter in zip(candidates, jitters):
            if jitter > state.current_jitter + self.config.jitter_tolerance:
                fitted = event_model_from_parameters(state.period, jitter=jitter)
                self._overrides[state.name] = fitted
                state.override = fitted
                changed = True
        if not changed:
            return False
        delta = EventModelDelta.from_mapping(dict(self._overrides))
        result = self.session.query(
            (delta,),
            warm_from=self._warm,
            label="monitor-refit",
            cancel=cancel,
        )
        self._warm = result
        self._apply_query_result(result)
        self._refits_total.inc()
        self._trim_arrivals()
        return True

    def _apply_query_result(self, result) -> None:
        for verdict in result.report.verdicts:
            index = self._state_index[verdict.name]
            state = self._state_list[index]
            state.deadline = verdict.deadline
            state.bound = verdict.worst_case_response
            state.bounded = result.results[verdict.name].bounded
            # An observed response time is over a limit when it exceeds
            # limit + tolerance; an unbounded message has no bound limit.
            self._deadline_limit[index] = state.deadline + _VIOLATION_TOLERANCE
            self._bound_limit[index] = (
                state.bound + _VIOLATION_TOLERANCE
                if state.bounded and state.bound is not None
                else np.inf
            )

    def _trim_arrivals(self) -> None:
        limit = self.config.max_arrivals
        for state in self._states.values():
            if len(state.arrivals) > limit:
                # The setter resets the trace's incremental fit: the next
                # fit of a trimmed trace folds its retained arrivals anew.
                state.arrivals.timestamps = state.arrivals.timestamps[-limit:]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def flush(self, cancel=None) -> IngestReport:
        """Close the window in progress (end-of-replay bookkeeping)."""
        report = IngestReport()
        with self._lock:
            self._close_window(report, cancel)
            self._window += 1
        return report

    @property
    def overrides(self) -> dict[str, EventModel]:
        """Current fitted event-model overrides (name -> model)."""
        with self._lock:
            return dict(self._overrides)

    def status(self) -> dict:
        """JSON-shaped snapshot of the monitor's state."""
        with self._lock:
            messages = {}
            for name in sorted(self._states):
                state = self._states[name]
                entry = {
                    "bound": state.bound if state.bounded else None,
                    "deadline": state.deadline,
                    "frames": state.frames,
                    "completed": state.completed,
                    "violations": int(self._violation_counters[name].value),
                    "registered_jitter": state.registered_jitter,
                }
                if state.completed:
                    entry["observed_max"] = state.observed_max
                if state.override is not None:
                    entry["fitted_jitter"] = state.override.jitter
                messages[name] = entry
            return {
                "target": self.target,
                "window_ms": self.config.window_ms,
                "window": self._window,
                "frames": int(self._frames_total.value),
                "violations": self._violations_total_locked(),
                "refits": int(self._refits_total.value),
                "overrides": sorted(self._overrides),
                "active_alerts": [
                    {"rule": rule, "subject": subject} for rule, subject in self.engine.active
                ],
                "messages": messages,
            }

    @property
    def violations_total(self) -> int:
        with self._lock:
            return self._violations_total_locked()

    def _violations_total_locked(self) -> int:
        return int(sum(counter.value for counter in self._violation_counters.values()))

    def alerts(self, last: int | None = None) -> dict:
        """Recent fired alerts plus the currently active set."""
        with self._lock:
            return {
                "target": self.target,
                "fired": [a.to_json() for a in self.engine.recent(last)],
                "active": [
                    {"rule": rule, "subject": subject} for rule, subject in self.engine.active
                ],
            }
