"""Generic arrival curves and distance functions.

The standard event models in :mod:`repro.events.model` have closed-form
eta/delta functions.  For analysis results (e.g. the observed activation
pattern at a gateway output, or a trace captured by the simulator) we also
need *empirical* curves sampled from event timestamps.  This module provides
both a thin wrapper type used by generic algorithms and the construction of
empirical curves from traces, so analysis and simulation results can be
compared in the same vocabulary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class ArrivalCurve:
    """A pair of arrival-curve callables (eta_plus, eta_minus).

    Instances wrap either closed-form event-model curves or empirical curves
    constructed from a trace, giving downstream code a uniform interface.
    """

    eta_plus: Callable[[float], int]
    eta_minus: Callable[[float], int]
    label: str = "arrival-curve"

    def max_events(self, dt: float) -> int:
        """Maximum number of events in any window of length ``dt``."""
        return self.eta_plus(dt)

    def min_events(self, dt: float) -> int:
        """Minimum number of events in any window of length ``dt``."""
        return self.eta_minus(dt)

    def dominates(self, other: "ArrivalCurve", horizons: Sequence[float]) -> bool:
        """True when this curve upper/lower-bounds ``other`` on all horizons."""
        for dt in horizons:
            if self.eta_plus(dt) < other.eta_plus(dt):
                return False
            if self.eta_minus(dt) > other.eta_minus(dt):
                return False
        return True


@dataclass(frozen=True)
class DistanceFunction:
    """A pair of distance-function callables (delta_minus, delta_plus)."""

    delta_minus: Callable[[int], float]
    delta_plus: Callable[[int], float]
    label: str = "distance-function"

    def min_span(self, n: int) -> float:
        """Minimum time spanned by ``n`` consecutive events."""
        return self.delta_minus(n)

    def max_span(self, n: int) -> float:
        """Maximum time spanned by ``n`` consecutive events."""
        return self.delta_plus(n)


class EmpiricalEventTrace:
    """A recorded sequence of event timestamps with curve extraction.

    Used to turn simulator traces into arrival curves that can be checked
    against the analytic curves of the configured event models (the analytic
    eta_plus must dominate the empirical one, and the empirical eta_minus
    must dominate the analytic one).

    ``add`` and ``extend`` are O(1) amortised per timestamp: new timestamps
    are buffered and merged with a single Timsort pass the next time the
    (sorted) timestamps are read.  The previous per-event ``list.insert``
    made trace construction quadratic, which dominated long simulator runs.

    The trace also carries the fold state of :func:`fit_periodic_jitter_many`
    (and so of :func:`fit_periodic_jitter`), one entry per
    ``(period, max_n)``: how many sorted timestamps are already folded and
    the jitter they require.  While timestamps arrive at or above the
    high-water mark the folded prefix stays put, so a refit costs amortised
    O(new arrivals x ``max_n``).  A timestamp below the mark (it may shift
    the sorted prefix) and any assignment to :attr:`timestamps` (e.g.
    trimming old arrivals) clear the fold state, and the next fit starts
    from scratch.
    """

    def __init__(self, timestamps: Iterable[float] | None = None) -> None:
        self.timestamps = timestamps or ()

    @property
    def timestamps(self) -> list[float]:
        """Sorted event timestamps (flushes any buffered ``add`` calls).

        The list is the trace's own: replace it through the setter rather
        than mutating it in place.
        """
        pending = self._pending
        if pending:
            self._times.extend(pending)
            pending.clear()
            # Timsort is O(n) on the mostly-sorted result of appends.
            self._times.sort()
        return self._times

    @timestamps.setter
    def timestamps(self, values: Iterable[float]) -> None:
        self._times = sorted(float(t) for t in values)
        self._pending: list[float] = []
        self._high = self._times[-1] if self._times else float("-inf")
        self._folds: dict[tuple, tuple[int, float]] = {}

    def add(self, timestamp: float) -> None:
        """Record an event occurrence (timestamps may arrive out of order)."""
        self.extend((timestamp,))

    def extend(self, timestamps: Iterable[float]) -> None:
        """Record several event occurrences, in arrival order.

        Equivalent to one :meth:`add` per timestamp: the fold state is
        cleared when any of them lands below the running high-water mark.
        """
        values = [float(t) for t in timestamps]
        if not values:
            return
        if values[0] < self._high or any(map(gt, values, values[1:])):
            self._folds.clear()
        self._high = max(self._high, max(values))
        self._pending.extend(values)

    def __len__(self) -> int:
        return len(self._times) + len(self._pending)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmpiricalEventTrace):
            return NotImplemented
        return self.timestamps == other.timestamps

    def __repr__(self) -> str:
        return f"EmpiricalEventTrace(timestamps={self.timestamps!r})"

    def count_in_window(self, start: float, length: float) -> int:
        """Number of events with ``start <= t < start + length``."""
        lo = bisect_left(self.timestamps, start)
        hi = bisect_left(self.timestamps, start + length)
        return hi - lo

    def empirical_eta_plus(self, dt: float) -> int:
        """Maximum observed number of events in any window of length ``dt``."""
        if dt <= 0 or not self.timestamps:
            return 0
        best = 0
        times = self.timestamps
        hi = 0
        for lo, start in enumerate(times):
            if hi < lo:
                hi = lo
            while hi < len(times) and times[hi] < start + dt:
                hi += 1
            best = max(best, hi - lo)
        return best

    def empirical_eta_minus(self, dt: float) -> int:
        """Minimum observed number of events in any fully covered window.

        A single sliding-window pass symmetric to :meth:`empirical_eta_plus`:
        the minimising window starts at an event (or just after one), so for
        each event two anchor windows are examined -- ``(t, t + dt]`` and
        ``(t + 1e-9, t + 1e-9 + dt]`` -- with all four boundary pointers
        advancing monotonically (O(n) total instead of the previous
        re-scan per anchor).
        """
        if dt <= 0 or not self.timestamps:
            return 0
        times = self.timestamps
        last = times[-1]
        span = last - times[0]
        if dt > span:
            return 0
        n = len(times)
        worst = n
        # Pointers: lo_* = first index strictly after the window start,
        # hi_* = first index strictly after the window end, for the two
        # anchor families (at an event / just after an event).
        lo_a = hi_a = lo_b = hi_b = 0
        for i, start in enumerate(times):
            if start + dt <= last + 1e-9:
                while lo_a < n and times[lo_a] <= start:
                    lo_a += 1
                while hi_a < n and times[hi_a] <= start + dt:
                    hi_a += 1
                if hi_a - lo_a < worst:
                    worst = hi_a - lo_a
            nudged = start + 1e-9
            if nudged + dt <= last + 1e-9:
                while lo_b < n and times[lo_b] <= nudged:
                    lo_b += 1
                while hi_b < n and times[hi_b] <= nudged + dt:
                    hi_b += 1
                if hi_b - lo_b < worst:
                    worst = hi_b - lo_b
        return max(worst, 0)

    def empirical_delta_minus(self, n: int) -> float:
        """Minimum observed span of ``n`` consecutive events."""
        if n < 2 or len(self.timestamps) < n:
            return 0.0
        times = self.timestamps
        return min(times[i + n - 1] - times[i] for i in range(len(times) - n + 1))

    def empirical_delta_plus(self, n: int) -> float:
        """Maximum observed span of ``n`` consecutive events."""
        if n < 2 or len(self.timestamps) < n:
            return 0.0
        times = self.timestamps
        return max(times[i + n - 1] - times[i] for i in range(len(times) - n + 1))

    def to_arrival_curve(self, label: str = "empirical") -> ArrivalCurve:
        """Wrap the empirical curves into an :class:`ArrivalCurve`."""
        return ArrivalCurve(
            eta_plus=self.empirical_eta_plus,
            eta_minus=self.empirical_eta_minus,
            label=label,
        )

    def inter_arrival_times(self) -> list[float]:
        """Distances between consecutive recorded events."""
        times = self.timestamps
        return [b - a for a, b in zip(times, times[1:])]


def curve_from_event_model(model, label: str | None = None) -> ArrivalCurve:
    """Build an :class:`ArrivalCurve` view of a standard event model."""
    return ArrivalCurve(
        eta_plus=model.eta_plus,
        eta_minus=model.eta_minus,
        label=label or model.describe(),
    )


def distance_from_event_model(model, label: str | None = None) -> DistanceFunction:
    """Build a :class:`DistanceFunction` view of a standard event model."""
    return DistanceFunction(
        delta_minus=model.delta_minus,
        delta_plus=model.delta_plus,
        label=label or model.describe(),
    )


def merge_traces(traces: Iterable[EmpiricalEventTrace]) -> EmpiricalEventTrace:
    """Merge several traces into one (e.g. all frames on a bus)."""
    merged: list[float] = []
    for trace in traces:
        merged.extend(trace.timestamps)
    return EmpiricalEventTrace(timestamps=merged)


def fit_periodic_jitter(trace: EmpiricalEventTrace, period: float,
                        max_n: int | None = 64,
                        min_distance: float = 0.0):
    """Fit the tightest conservative periodic-with-jitter model to a trace.

    Given the (known) nominal period, returns the standard event model with
    the smallest jitter ``J`` whose distance function lower-bounds the
    observed one::

        delta_minus(n) = max((n - 1) * period - J, 0)
                       <= empirical_delta_minus(n)   for all examined n

    i.e. ``J = max_n ((n - 1) * period - empirical_delta_minus(n))`` floored
    at zero.  By the standard eta/delta duality this makes the analytic
    ``eta_plus`` dominate the empirical arrival curve on every horizon the
    trace covers, so feeding the fitted model to the analysis yields a bound
    that is valid for the observed behaviour -- the *minimal* conservative
    re-derivation the conformance monitor needs when a message's observed
    arrivals escape its registered event model.

    ``max_n`` caps the span scan (``None`` examines every span the trace
    supports); the required jitter of a jittery-periodic source saturates at
    small ``n``.  The result comes from
    :func:`~repro.events.model.event_model_from_parameters`, so a fit with
    zero observed jitter is a plain :class:`PeriodicEventModel`.

    This is the one-trace call of :func:`fit_periodic_jitter_many`, which
    holds the fold and its incremental state (see there).
    """
    from repro.events.model import event_model_from_parameters

    (jitter,) = fit_periodic_jitter_many((trace,), (period,), max_n=max_n)
    return event_model_from_parameters(period, jitter=jitter,
                                       min_distance=min_distance)


#: Cells of one fold temporary.  Rows are folded in blocks of at most this
#: many ``(row, span)`` cells, so a long fold (a fresh or trimmed trace, or
#: ``max_n=None``) never materialises rows x count at once.
_FOLD_CELLS = 1 << 16


def fit_periodic_jitter_many(traces: Sequence[EmpiricalEventTrace],
                             periods: Sequence[float],
                             max_n: int | None = 64) -> list[float]:
    """The fitted jitter of each trace (see :func:`fit_periodic_jitter`).

    The fit is a fold over event pairs ``i < j`` at most ``max_n - 1``
    apart, keeping the largest ``(j - i) * period - (t[j] - t[i])``.  It
    equals the per-``n`` formula bit for bit: float subtraction is monotone
    in its subtrahend, so the largest difference is the one with the
    smallest span.

    Each trace keeps its fold per ``(period, max_n)``, so refitting a trace
    that only grew at its end folds just the new events: amortised
    O(new x ``max_n``) per fit instead of O(len x ``max_n``).  Out-of-order
    additions and assignments to :attr:`EmpiricalEventTrace.timestamps`
    reset the fold (see there).

    The new events of every trace fold in one numpy pass: each trace
    contributes its new events plus the ``max_n - 1`` before them (padded
    in front with ``-inf``, whose spans never win), every row ``j`` is a
    ``sliding_window_view`` window ``t[j - max_n + 1 .. j]``, and the
    row maxima reduce per trace.  Every cell is the same IEEE
    ``d * period - (t[j] - t[j - d])`` the scalar definition computes, so
    the result does not depend on how traces are batched.
    """
    traces = list(traces)
    periods = list(periods)
    if len(traces) != len(periods):
        raise ValueError(f"{len(traces)} traces but {len(periods)} periods")
    for period in periods:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
    jitters: list[float] = []
    blocks: list[_RowBlock] = []
    for index, (trace, period) in enumerate(zip(traces, periods)):
        times = trace.timestamps
        folded, jitter = trace._folds.get((period, max_n), (1, 0.0))
        jitters.append(jitter)
        width = len(times) - 1 if max_n is None else max_n - 1
        if width < 1:
            continue
        step = max(_FOLD_CELLS // (width + 1), 1)
        for first in range(max(folded, 1), len(times), step):
            end = min(first + step, len(times))
            blocks.append(_RowBlock(index, times, first, end, width, float(period)))
    for batch in _batches(blocks):
        for block, required in zip(batch, _fold_rows(batch)):
            if required > jitters[block.trace]:
                jitters[block.trace] = required
    for trace, period, jitter in zip(traces, periods, jitters):
        trace._folds[(period, max_n)] = (len(trace), jitter)
    return jitters


class _RowBlock(NamedTuple):
    """Rows ``first .. end - 1`` of one trace's fold, ``width`` spans each."""

    trace: int
    times: list[float]
    first: int
    end: int
    width: int
    period: float


def _batches(blocks: list[_RowBlock]) -> Iterator[list[_RowBlock]]:
    """Runs of consecutive blocks of one width, at most _FOLD_CELLS cells."""
    batch: list[_RowBlock] = []
    cells = 0
    for block in blocks:
        size = (block.end - block.first) * (block.width + 1)
        if batch and (block.width != batch[0].width or cells + size > _FOLD_CELLS):
            yield batch
            batch, cells = [], 0
        batch.append(block)
        cells += size
    if batch:
        yield batch


def _fold_rows(blocks: list[_RowBlock]) -> list[float]:
    """The largest ``d * period - (t[j] - t[j - d])`` of each row block."""
    width = blocks[0].width
    values: list[float] = []
    bases = []
    for block in blocks:
        bases.append(len(values))
        lead = block.first - width
        if lead < 0:
            values.extend([-np.inf] * -lead)
        values.extend(block.times[max(lead, 0):block.end])
    rows = np.array([block.end - block.first for block in blocks])
    starts = np.cumsum(rows) - rows
    # Row r of block b is the window at bases[b] + (r - starts[b]).
    picks = np.arange(rows.sum()) + np.repeat(np.array(bases) - starts, rows)
    windows = sliding_window_view(np.array(values, dtype=float), width + 1)[picks]
    row_periods = np.repeat([block.period for block in blocks], rows)
    spans = np.arange(width, 0, -1, dtype=float)
    required = np.multiply.outer(row_periods, spans) - (windows[:, -1:] - windows[:, :-1])
    return np.maximum.reduceat(required.max(axis=1), starts).tolist()
