"""Request tracing: trace ids, span trees, slow-trace retention, slow log.

Every protocol request handled by the daemon gets a :class:`Trace`: a
root span for the whole request plus child spans for the stages

    decode -> admission -> session_plan -> solve -> encode

recorded by the transport (``server/tcp.py``), the daemon's admission
block and the analysis session.  The trace id is propagated from the
client's ``trace_id`` field when present, otherwise generated, and is
echoed on traced responses so client-side and daemon-side records join.

Retention is "slowest N": :class:`TraceRing` is a bounded min-heap that
keeps the N slowest finished traces seen so far (the daemon's ``traces``
op serves them, slowest first).  :class:`SlowQueryLog` additionally
emits a structured one-line stdlib-``logging`` record for any trace
over a threshold, rate-limited so a pathological workload cannot flood
the log; it is off by default and enabled by ``--slow-query-ms``.

Cost model: a trace is a plain object append per stage plus two
``perf_counter`` calls per span -- around a microsecond per stage, paid
once per request, never per fixed-point iteration.  The
``obs_overhead_parity`` scenario in ``benchmarks/perf/run_bench.py``
gates this at parity with the uninstrumented path.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import threading
import time
import uuid

__all__ = [
    "DEFAULT_TRACE_RING",
    "SlowQueryLog",
    "Span",
    "Trace",
    "TraceRing",
    "new_trace_id",
]

DEFAULT_TRACE_RING = 64

logger = logging.getLogger("repro.slowlog")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-negligible)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed stage.  ``start_ms`` is the offset from trace start."""

    __slots__ = ("name", "start_ms", "duration_ms", "children", "_t0")

    def __init__(self, name: str, start_ms: float) -> None:
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self.children: list[Span] = []
        self._t0 = 0.0

    def to_json(self) -> dict:
        out: dict = {
            "name": self.name,
            "start_ms": round(self.start_ms, 6),
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.children:
            out["children"] = [child.to_json() for child in self.children]
        return out


class Trace:
    """A span tree for one request, safe to touch from multiple threads.

    Spans are explicit (no implicit context stack): the transport, the
    daemon and the analysis session each record into the trace they are
    handed.  The lock covers the transport folding its encode time into a
    trace the ``traces`` op may already be reading.  Usage::

        trace = Trace(op="query", target="powertrain")
        span = trace.begin("solve")
        ...
        trace.end(span)
        trace.finish()
    """

    __slots__ = (
        "trace_id",
        "op",
        "target",
        "spans",
        "duration_ms",
        "inline",
        "_lock",
        "_start",
        "started_at",
    )

    def __init__(
        self,
        op: str,
        target: str | None = None,
        trace_id: str | None = None,
        inline: bool = False,
    ) -> None:
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.op = op
        self.target = target
        self.spans: list[Span] = []
        self.duration_ms = 0.0
        self.inline = inline
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self.started_at = time.time()

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._start) * 1000.0

    def backdate(self, duration_ms: float) -> None:
        """Shift the trace's start ``duration_ms`` earlier.

        The transport decodes the request line *before* the daemon can
        construct the trace; backdating by the decode time makes the
        root interval cover that stage, so the stage durations always
        fit inside the root total.
        """
        self._start -= duration_ms / 1000.0
        self.started_at -= duration_ms / 1000.0

    def begin(self, name: str, parent: Span | None = None) -> Span:
        span = Span(name, self._now_ms())
        span._t0 = time.perf_counter()
        with self._lock:
            (parent.children if parent is not None else self.spans).append(span)
        return span

    def end(self, span: Span) -> float:
        span.duration_ms = (time.perf_counter() - span._t0) * 1000.0
        return span.duration_ms

    def record(self, name: str, duration_ms: float, parent: Span | None = None) -> Span:
        """Append an externally timed stage ending now."""
        span = Span(name, max(0.0, self._now_ms() - duration_ms))
        span.duration_ms = duration_ms
        with self._lock:
            (parent.children if parent is not None else self.spans).append(span)
        return span

    def extend(self, name: str, duration_ms: float) -> Span:
        """Add time to the top-level span ``name``, creating it if absent.

        The finished total (``duration_ms``) grows by the same amount:
        the transport uses this to fold its line-encode time into an
        already-finalized trace, so the root still covers every stage.
        """
        span = None
        with self._lock:
            for candidate in self.spans:
                if candidate.name == name:
                    candidate.duration_ms += duration_ms
                    span = candidate
                    break
            self.duration_ms += duration_ms
        if span is None:
            span = self.record(name, duration_ms)
        return span

    def finish(self) -> float:
        """Close the root span; returns total duration in milliseconds."""
        self.duration_ms = self._now_ms()
        return self.duration_ms

    def stage_ms(self, name: str) -> float | None:
        with self._lock:
            for span in self.spans:
                if span.name == name:
                    return span.duration_ms
        return None

    def to_json(self) -> dict:
        with self._lock:
            spans = [span.to_json() for span in self.spans]
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "target": self.target,
            "started_at": self.started_at,
            "duration_ms": round(self.duration_ms, 6),
            "spans": spans,
        }


class TraceRing:
    """Bounded retention of the slowest finished traces.

    A min-heap keyed by duration: while under capacity every trace is
    kept; at capacity a new trace replaces the fastest retained one iff
    it is slower.  ``snapshot`` renders slowest-first.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_RING) -> None:
        if capacity < 0:
            raise ValueError(f"trace ring capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, Trace]] = []
        self._seq = itertools.count()
        self.seen = 0
        self.evicted = 0

    def add(self, trace: Trace) -> None:
        if self.capacity == 0:
            return
        entry = (trace.duration_ms, next(self._seq), trace)
        with self._lock:
            self.seen += 1
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
            elif entry[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)
                self.evicted += 1
            else:
                self.evicted += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def snapshot(self, limit: int | None = None) -> list[dict]:
        """JSON span trees of the retained traces, slowest first."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        if limit is not None:
            entries = entries[: max(0, limit)]
        return [trace.to_json() for _, _, trace in entries]

    def reset(self) -> None:
        with self._lock:
            self._heap.clear()
            self.seen = 0
            self.evicted = 0


class SlowQueryLog:
    """Structured one-line records for traces over a threshold.

    Disabled when ``threshold_ms`` is ``None`` (the default) -- the
    check is then a single ``is None`` compare per request.  When
    enabled, at most one record per ``min_interval_s`` is emitted;
    suppressed records are counted and the count is attached to the
    next emitted line so nothing disappears silently.
    """

    def __init__(
        self,
        threshold_ms: float | None = None,
        min_interval_s: float = 1.0,
        log: logging.Logger | None = None,
    ) -> None:
        self.threshold_ms = threshold_ms
        self.min_interval_s = min_interval_s
        self.logger = log if log is not None else logger
        self._lock = threading.Lock()
        # "Never emitted": time.monotonic() counts from an arbitrary origin
        # (often boot), so any finite start could suppress the first record.
        self._last_emit = -math.inf
        self._suppressed = 0
        self.emitted = 0

    def maybe_log(self, trace: Trace, fingerprint: str | None = None) -> bool:
        """Log ``trace`` if it crossed the threshold; returns True if logged."""
        if self.threshold_ms is None or trace.duration_ms < self.threshold_ms:
            return False
        now = time.monotonic()
        with self._lock:
            if now - self._last_emit < self.min_interval_s:
                self._suppressed += 1
                return False
            self._last_emit = now
            suppressed, self._suppressed = self._suppressed, 0
            self.emitted += 1
        stages = " ".join(f"{span.name}={span.duration_ms:.3f}" for span in trace.spans)
        self.logger.warning(
            "slow-query trace_id=%s op=%s target=%s fingerprint=%s "
            "duration_ms=%.3f suppressed=%d %s",
            trace.trace_id,
            trace.op,
            trace.target,
            fingerprint,
            trace.duration_ms,
            suppressed,
            stages,
        )
        return True
