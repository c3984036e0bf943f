"""Windowed time-series history for selected metrics.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what happened since
boot" -- monotone totals and gauge levels.  The conformance monitor (PR 10)
needs the other observability axis: "what happened in the last N windows", so
an alert rule like ``observed_slack_ms < 0.1 * deadline for 3 windows`` has
something to evaluate and the ``metrics`` op can serve recent trendlines
instead of lifetime aggregates only.

:class:`MetricsHistory` keeps one bounded :class:`SeriesRing` per
``(series, labels)`` pair.  Recording is O(1), memory is strictly bounded by
``capacity`` points per series, and snapshots render label sets into the same
``name{label="value"}`` form the registry uses so both layers read alike.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

__all__ = ["MetricsHistory", "SeriesPoint", "SeriesRing"]

# One point per window is cheap (two floats); 128 windows of a 100 ms
# monitor window is ~13 s of lookback per series, plenty for "for N
# windows" alert predicates while staying trivially bounded.
DEFAULT_HISTORY_WINDOWS = 128


class SeriesPoint(tuple):
    """A ``(window, value)`` pair; a plain tuple with named accessors."""

    __slots__ = ()

    def __new__(cls, window: int, value: float) -> "SeriesPoint":
        return tuple.__new__(cls, (int(window), float(value)))

    @property
    def window(self) -> int:
        return self[0]

    @property
    def value(self) -> float:
        return self[1]


class SeriesRing:
    """Fixed-capacity ring of :class:`SeriesPoint` entries, oldest evicted."""

    __slots__ = ("_points",)

    def __init__(self, capacity: int = DEFAULT_HISTORY_WINDOWS) -> None:
        if capacity < 1:
            raise ValueError("history capacity must be >= 1")
        self._points: deque[SeriesPoint] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def append(self, window: int, value: float) -> None:
        self._points.append(SeriesPoint(window, value))

    def last(self, n: int | None = None) -> list[SeriesPoint]:
        """The most recent ``n`` points, oldest first (all when ``None``)."""
        points = list(self._points)
        if n is not None and n >= 0:
            points = points[len(points) - min(n, len(points)) :]
        return points

    def __len__(self) -> int:
        return len(self._points)


#: A series key: ``(name, sorted (label, value) pairs)``.
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def _series_key(name: str, labels: dict[str, object]) -> SeriesKey:
    return name, tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(key: SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsHistory:
    """Thread-safe windowed history keyed like registry instruments.

    ``record`` appends one point to the ``(series, labels)`` ring and
    ``record_many`` one point to each of several rings; rings are created on
    first use.  Readers get copies, so snapshots are safe to serialise while
    the monitor keeps recording.
    """

    def __init__(self, capacity: int = DEFAULT_HISTORY_WINDOWS) -> None:
        if capacity < 1:
            raise ValueError("history capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._series: dict[SeriesKey, SeriesRing] = {}

    def key(self, name: str, **labels: object) -> SeriesKey:
        """The key of one series, for :meth:`record_many`.

        Computing a key sorts its labels; a writer that records the same
        series every window computes its keys once.
        """
        return _series_key(name, labels)

    def record(self, window: int, name: str, value: float, **labels: object) -> None:
        """Append ``value`` for window index ``window`` to one series."""
        self.record_many(window, ((_series_key(name, labels), value),))

    def record_many(self, window: int, points: Iterable[tuple[SeriesKey, float]]) -> None:
        """Append one point per ``(key, value)`` for window index ``window``.

        Keys come from :meth:`key`; the whole batch takes the lock once.
        """
        with self._lock:
            series = self._series
            for key, value in points:
                ring = series.get(key)
                if ring is None:
                    ring = series[key] = SeriesRing(self.capacity)
                ring.append(window, value)

    def series(self, name: str, last: int | None = None, **labels: object) -> list[SeriesPoint]:
        """Points of one series, oldest first (empty if never recorded)."""
        key = _series_key(name, labels)
        with self._lock:
            ring = self._series.get(key)
            return ring.last(last) if ring is not None else []

    def latest(self, name: str, **labels: object) -> float | None:
        """Most recent value of one series, or ``None`` if never recorded."""
        points = self.series(name, last=1, **labels)
        return points[-1].value if points else None

    def window_values(self, name: str, last: int, **labels: object) -> list[float]:
        """The values (without window indices) of the last ``last`` points."""
        return [point.value for point in self.series(name, last=last, **labels)]

    def names(self) -> list[str]:
        """Rendered series names, sorted."""
        with self._lock:
            return sorted(_render_key(key) for key in self._series)

    def snapshot(self, last: int | None = None) -> dict[str, list[list[float]]]:
        """JSON-shaped view: rendered name -> ``[[window, value], ...]``."""
        with self._lock:
            entries: Iterable = sorted(self._series.items())
            return {
                _render_key(key): [[point.window, point.value] for point in ring.last(last)]
                for key, ring in entries
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)
