"""Observed frame streams: the monitor's wire-level input.

An :class:`ObservedFrame` is the minimal fact the conformance monitor needs
about one bus transmission: which message, when it was queued, when it
finished, whether it succeeded, and which attempt it was.  A
:class:`FrameBatch` holds a chunk of them as columns, the form the monitor
ingests.  Streams come from two places:

* live from the simulator (or, in a real deployment, a bus tap):
  :func:`frames_from_trace` flattens a recorded
  :class:`~repro.sim.trace.SimulationTrace` into queue-order frames;
* replayed over the daemon protocol: :func:`chunked` splits a stream into
  bounded ``monitor_ingest`` requests, and :meth:`FrameBatch.from_json`
  decodes one request's rows straight into columns.

:func:`inject_jitter_burst` perturbs a clean stream deterministically -- it
is how the tests and the ``examples/live_monitor.py`` demo manufacture a
replay whose observed jitter escapes the registered event model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Exclusive upper bound of ``attempt``: the batch stores it as int64.
_ATTEMPT_LIMIT = 2**63


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

        Raises ``ValueError`` naming the field when ``payload`` breaks the
        row contract of :meth:`FrameBatch.from_json`.
        """
        problem = _row_problem(payload)
        if problem is not None:
            raise ValueError(problem)
        message, queued_at, finished_at, success, attempt = payload
        return cls(message, float(queued_at), float(finished_at), success, attempt)


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """A chunk of observed frames as columns, one entry per frame.

    ``names`` are the chunk's distinct message names, sorted, and
    ``message`` indexes them -- so index order is name order, and sorting
    on the index sorts frames by name.  ``queued_at`` / ``finished_at`` are
    float64, ``success`` bool and ``attempt`` int64.
    """

    names: tuple[str, ...]
    message: np.ndarray
    queued_at: np.ndarray
    finished_at: np.ndarray
    success: np.ndarray
    attempt: np.ndarray

    def __len__(self) -> int:
        return len(self.message)

    @classmethod
    def from_frames(cls, frames: Iterable[ObservedFrame]) -> "FrameBatch":
        """The columns of a sequence of typed frames (no validation)."""
        frames = list(frames)
        return cls._from_columns(
            [frame.message for frame in frames],
            [frame.queued_at for frame in frames],
            [frame.finished_at for frame in frames],
            [frame.success for frame in frames],
            [frame.attempt for frame in frames],
        )

    @classmethod
    def from_json(cls, rows: Sequence) -> "FrameBatch":
        """Decode ``monitor_ingest`` rows ``[message, queued_at,
        finished_at, success, attempt]`` into columns.

        The row contract: a 5-element array; ``message`` a string; both
        instants JSON numbers (not strings or booleans) that are finite as
        floats, with ``finished_at >= queued_at`` and a finite difference;
        ``success`` a boolean; ``attempt`` an integer >= 1.  The columns are
        checked whole (one float conversion and one ``isfinite`` over all
        response times); only when a check fails are the rows scanned, to
        raise a ``ValueError`` naming the first bad frame's index and field.
        """
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"observed frames must be an array, got {rows!r}")
        batch = cls._checked_columns(rows) if rows else cls._from_columns([], [], [], [], [])
        if batch is not None:
            return batch
        for index, row in enumerate(rows):
            problem = _row_problem(row)
            if problem is not None:
                raise ValueError(f"malformed observed frame {index}: {problem}")
        raise AssertionError("a column check failed but every row passed")

    @classmethod
    def _checked_columns(cls, rows: Sequence) -> "FrameBatch | None":
        """The batch of ``rows``, or ``None`` when any row is malformed."""
        if not _all_types(rows, (list, tuple)) or set(map(len, rows)) != {5}:
            return None
        messages, queued, finished, success, attempt = zip(*rows)
        if not (
            _all_types(messages, str)
            and _all_types(queued, (int, float), exclude=bool)
            and _all_types(finished, (int, float), exclude=bool)
            and _all_types(success, bool)
            and _all_types(attempt, int, exclude=bool)
            and min(attempt) >= 1
            and max(attempt) < _ATTEMPT_LIMIT
        ):
            return None
        try:
            batch = cls._from_columns(messages, queued, finished, success, attempt)
        except OverflowError:  # an integer instant too large for a float
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            response = batch.finished_at - batch.queued_at
        # A non-finite instant or an overflowing difference makes the
        # response time non-finite (NaN fails both comparisons).
        if not ((response >= 0.0) & (response < np.inf)).all():
            return None
        return batch

    @classmethod
    def _from_columns(cls, messages, queued, finished, success, attempt) -> "FrameBatch":
        names = tuple(sorted(set(messages)))
        lookup = {name: index for index, name in enumerate(names)}
        return cls(
            names=names,
            message=np.fromiter(map(lookup.__getitem__, messages), np.intp, len(messages)),
            queued_at=np.array(queued, dtype=float),
            finished_at=np.array(finished, dtype=float),
            success=np.array(success, dtype=bool),
            attempt=np.array(attempt, dtype=np.int64),
        )

    def to_frames(self) -> list[ObservedFrame]:
        """The batch as typed frames, in batch order."""
        return [
            ObservedFrame(self.names[message], queued_at, finished_at, success, attempt)
            for message, queued_at, finished_at, success, attempt in zip(
                self.message.tolist(),
                self.queued_at.tolist(),
                self.finished_at.tolist(),
                self.success.tolist(),
                self.attempt.tolist(),
            )
        ]


def _all_types(values: Iterable, types, exclude: type | None = None) -> bool:
    """True when every value is an instance of ``types`` but not ``exclude``."""
    return all(
        issubclass(kind, types) and (exclude is None or not issubclass(kind, exclude))
        for kind in set(map(type, values))
    )


def _row_problem(row) -> str | None:
    """What breaks the row contract of :meth:`FrameBatch.from_json`, naming
    the field, or ``None`` for a valid row."""
    if not _all_types((row,), (list, tuple)) or len(row) != 5:
        return f"must be a 5-element array, got {row!r}"
    message, queued_at, finished_at, success, attempt = row
    if not isinstance(message, str):
        return f"message must be a string, got {message!r}"
    instants = []
    for field, value in (("queued_at", queued_at), ("finished_at", finished_at)):
        if not _all_types((value,), (int, float), exclude=bool):
            return f"{field} must be a number, got {value!r}"
        try:
            number = float(value)
        except OverflowError:
            return f"{field} is too large for a float"
        if not isfinite(number):
            return f"{field} must be a finite number, got {number!r}"
        instants.append(number)
    queued_at, finished_at = instants
    if finished_at < queued_at:
        return f"finished_at {finished_at!r} precedes queued_at {queued_at!r}"
    if not isfinite(finished_at - queued_at):
        return "finished_at - queued_at is not a finite response time"
    if not isinstance(success, bool):
        return f"success must be a boolean, got {success!r}"
    if not _all_types((attempt,), int, exclude=bool) or not 1 <= attempt < _ATTEMPT_LIMIT:
        return f"attempt must be a positive integer, got {attempt!r}"
    return None


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
