"""Observed frame streams: the monitor's wire-level input.

An :class:`ObservedFrame` is the minimal fact the conformance monitor needs
about one bus transmission: which message, when it was queued, when it
finished, whether it succeeded, and which attempt it was.  Streams come from
two places:

* live from the simulator (or, in a real deployment, a bus tap):
  :func:`frames_from_trace` flattens a recorded
  :class:`~repro.sim.trace.SimulationTrace` into queue-order frames;
* replayed over the daemon protocol: :func:`chunked` splits a stream into
  bounded ``monitor_ingest`` requests.

:func:`inject_jitter_burst` perturbs a clean stream deterministically -- it
is how the tests and the ``examples/live_monitor.py`` demo manufacture a
replay whose observed jitter escapes the registered event model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class ObservedFrame:
    """One observed (attempted or completed) frame transmission.

    ``queued_at`` / ``finished_at`` are milliseconds on the observer's
    clock; ``attempt`` counts retransmissions of the same instance, so
    arrival envelopes are built from first attempts only while response
    times come from successful completions.
    """

    message: str
    queued_at: float
    finished_at: float
    success: bool = True
    attempt: int = 1

    @property
    def response_time(self) -> float:
        """Observed response time (completion minus queuing instant)."""
        return self.finished_at - self.queued_at

    def to_json(self) -> list:
        """Compact array form used by the ``monitor_ingest`` op."""
        return [
            self.message,
            self.queued_at,
            self.finished_at,
            self.success,
            self.attempt,
        ]

    @classmethod
    def from_json(cls, payload: Sequence) -> "ObservedFrame":
        """Inverse of :meth:`to_json`.

        Raises ``ValueError`` naming the field when an instant is not a
        finite float (``NaN``, an infinity, an integer too large for a
        float) or the response time between two finite instants overflows:
        such a frame would poison the arrival trace and the status report.
        """
        message, queued_at, finished_at, success, attempt = payload
        queued_at = _finite_ms("queued_at", queued_at)
        finished_at = _finite_ms("finished_at", finished_at)
        if not isfinite(finished_at - queued_at):
            raise ValueError("finished_at - queued_at is not a finite response time")
        return cls(
            message=str(message),
            queued_at=queued_at,
            finished_at=finished_at,
            success=bool(success),
            attempt=int(attempt),
        )


def _finite_ms(field: str, value) -> float:
    """``value`` as a finite float, or a ``ValueError`` naming ``field``."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None
    if not isfinite(number):
        raise ValueError(f"{field} must be a finite number, got {number!r}")
    return number


def frames_from_trace(trace) -> list[ObservedFrame]:
    """Flatten a :class:`~repro.sim.trace.SimulationTrace` into a stream.

    One frame per transmission record (failed attempts included, so the
    monitor sees retransmissions), sorted by queuing instant then completion
    -- the order a bus tap would emit them.
    """
    frames = [
        ObservedFrame(
            message=record.message,
            queued_at=record.queued_at,
            finished_at=record.finished_at,
            success=record.success,
            attempt=record.attempt,
        )
        for record in trace.transmissions
    ]
    frames.sort(key=lambda f: (f.finished_at, f.queued_at, f.message))
    return frames


def chunked(frames: Iterable[ObservedFrame], size: int = 256) -> Iterator[list[ObservedFrame]]:
    """Split a stream into bounded chunks for ``monitor_ingest`` requests."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    chunk: list[ObservedFrame] = []
    for frame in frames:
        chunk.append(frame)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def inject_jitter_burst(
    frames: Sequence[ObservedFrame],
    message: str,
    *,
    start: float,
    count: int,
    shift: float,
) -> list[ObservedFrame]:
    """Deterministically perturb one message's frames into a jitter burst.

    The first ``count`` frames of ``message`` queued at or after ``start``
    get their queuing instants moved *earlier* by a linear ramp up to
    ``shift`` milliseconds (the i-th affected frame by ``shift * (i + 1) /
    count``).  Completion times are untouched, so each affected observed
    response time grows by its ramp amount, and consecutive queuing gaps
    shrink -- exactly the signature of a source whose real jitter exceeds
    what the K-Matrix registered.  Frames are re-sorted by completion so the
    result is still a valid stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    affected = 0
    result = []
    for frame in frames:
        if affected < count and frame.message == message and frame.queued_at >= start:
            affected += 1
            delta = shift * affected / count
            frame = replace(frame, queued_at=max(frame.queued_at - delta, 0.0))
        result.append(frame)
    result.sort(key=lambda f: (f.finished_at, f.queued_at, f.message))
    return result
