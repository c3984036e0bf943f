"""Parameterised standard event models.

The classes here implement the eta/delta calculus for the standard event
models used throughout the library.  They are deliberately immutable value
objects: analysis code creates derived models (e.g. output event models with
increased jitter) instead of mutating existing ones, which keeps the global
fixed-point iteration in :mod:`repro.core` easy to reason about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


#: Relative snap tolerance for the robust integer divisions below.  It must
#: be large enough to absorb accumulated rounding noise of the fixed-point
#: sums (a few hundred ulps, i.e. < 1e-13 relative) yet strictly smaller than
#: any deliberate perturbation callers apply -- sensitivity probes nudge
#: windows by 1e-6 ms against periods up to ~1e3 ms, i.e. 1e-9 relative, so
#: an *absolute* 1e-9 snap (the previous rule) could swallow a real event.
_EPSILON = 1e-12


def _ceil_div(numerator: float, denominator: float) -> int:
    """Ceiling of ``numerator / denominator`` robust to float fuzz."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    value = numerator / denominator
    nearest = round(value)
    if abs(value - nearest) <= _EPSILON * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.ceil(value))


def _floor_div(numerator: float, denominator: float) -> int:
    """Floor of ``numerator / denominator`` robust to float fuzz."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    value = numerator / denominator
    nearest = round(value)
    if abs(value - nearest) <= _EPSILON * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(value))


@dataclass(frozen=True)
class EventModel:
    """Base class for standard event models.

    Attributes
    ----------
    period:
        Average distance between events (ms).  For sporadic models this is
        the minimum inter-arrival time.
    jitter:
        Maximum deviation of an event from its periodic reference point (ms).
    min_distance:
        Minimum distance between any two consecutive events (ms).  Only
        meaningful when ``jitter >= period`` (burst models); otherwise the
        minimum distance implied by period and jitter is used.
    """

    period: float
    jitter: float = 0.0
    min_distance: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so these reject NaN fields too.
        # Infinite jitter stays legal: it is the output model of a sender
        # whose response time is unbounded.
        if not 0 < self.period < math.inf:
            raise ValueError(
                f"period must be positive and finite, got {self.period}")
        if not self.jitter >= 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        if not self.min_distance >= 0:
            raise ValueError(
                f"min_distance must be non-negative, got {self.min_distance}"
            )

    # ------------------------------------------------------------------ #
    # Arrival curves
    # ------------------------------------------------------------------ #
    def eta_plus(self, dt: float) -> int:
        """Maximum number of events in any half-open window of length ``dt``."""
        if dt <= 0:
            return 0
        by_jitter = _ceil_div(dt + self.jitter, self.period)
        if self.min_distance > 0:
            by_distance = _ceil_div(dt, self.min_distance) + 1
            return min(by_jitter, by_distance)
        return by_jitter

    def eta_minus(self, dt: float) -> int:
        """Minimum number of events in any half-open window of length ``dt``."""
        if dt <= self.jitter:
            return 0
        return max(0, _floor_div(dt - self.jitter, self.period))

    # ------------------------------------------------------------------ #
    # Distance functions
    # ------------------------------------------------------------------ #
    def delta_minus(self, n: int) -> float:
        """Minimum distance between the first and last of ``n`` events."""
        if n < 2:
            return 0.0
        spaced = (n - 1) * self.period - self.jitter
        if self.min_distance > 0:
            return max(spaced, (n - 1) * self.min_distance, 0.0)
        return max(spaced, 0.0)

    def delta_plus(self, n: int) -> float:
        """Maximum distance between the first and last of ``n`` events."""
        if n < 2:
            return 0.0
        return (n - 1) * self.period + self.jitter

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def rate(self) -> float:
        """Long-term average event rate (events per millisecond)."""
        return 1.0 / self.period

    @property
    def is_bursty(self) -> bool:
        """True when the jitter exceeds the period (events can pile up)."""
        return self.jitter > self.period

    @property
    def effective_min_distance(self) -> float:
        """Smallest possible distance between two consecutive events."""
        if self.is_bursty:
            return self.min_distance
        return max(self.period - self.jitter, self.min_distance, 0.0)

    def with_jitter(self, jitter: float) -> "EventModel":
        """Return a copy of this model with a different jitter."""
        return replace(self, jitter=float(jitter))

    def with_period(self, period: float) -> "EventModel":
        """Return a copy of this model with a different period."""
        return replace(self, period=float(period))

    def describe(self) -> str:
        """One-line human-readable description."""
        parts = [f"P={self.period:g}ms"]
        if self.jitter:
            parts.append(f"J={self.jitter:g}ms")
        if self.min_distance:
            parts.append(f"d_min={self.min_distance:g}ms")
        return f"{type(self).__name__}({', '.join(parts)})"


@dataclass(frozen=True)
class PeriodicEventModel(EventModel):
    """Strictly periodic activation: one event every ``period`` milliseconds."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.jitter != 0.0:
            raise ValueError("PeriodicEventModel requires zero jitter; "
                             "use PeriodicWithJitter instead")


@dataclass(frozen=True)
class PeriodicWithJitter(EventModel):
    """Periodic activation with bounded jitter (``jitter < period`` typical).

    The model admits jitter values up to and beyond the period; once the
    jitter exceeds the period consider :class:`PeriodicWithBurst` so that a
    realistic minimum distance bounds transient bursts.
    """


@dataclass(frozen=True)
class PeriodicWithBurst(EventModel):
    """Periodic activation with large jitter limited by a minimum distance.

    This is the standard "periodic with burst" event model: on average one
    event per ``period``, but transiently up to ``b = eta_plus(~0)`` events
    can arrive back to back, separated only by ``min_distance``.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_distance <= 0:
            raise ValueError("PeriodicWithBurst requires a positive min_distance")

    @property
    def burst_size(self) -> int:
        """Maximum number of events that can arrive (almost) simultaneously."""
        return self.eta_plus(self.min_distance)


@dataclass(frozen=True)
class SporadicEventModel(EventModel):
    """Events separated by at least ``period`` (minimum inter-arrival time)."""

    def eta_minus(self, dt: float) -> int:  # noqa: D102 - inherited semantics
        # A sporadic source gives no lower bound on the number of events.
        return 0


#: Stable tag of every standard event model class, shared by the wire
#: protocol and the result store so both formats name a model alike.
EVENT_MODEL_CLASSES: dict[str, type[EventModel]] = {
    "event": EventModel,
    "periodic": PeriodicEventModel,
    "periodic-jitter": PeriodicWithJitter,
    "periodic-burst": PeriodicWithBurst,
    "sporadic": SporadicEventModel,
}
EVENT_MODEL_TAGS: dict[type[EventModel], str] = {
    cls: tag for tag, cls in EVENT_MODEL_CLASSES.items()}


def event_model_from_parameters(
    period: float,
    jitter: float = 0.0,
    min_distance: float = 0.0,
    sporadic: bool = False,
) -> EventModel:
    """Build the most specific standard event model for the given parameters.

    This is the conversion used when importing K-Matrix rows or when deriving
    output event models: choose the narrowest class that represents the
    ``(period, jitter, min_distance)`` triple.

    Parameters
    ----------
    period:
        Activation period or minimum inter-arrival time in milliseconds.
    jitter:
        Activation jitter in milliseconds.
    min_distance:
        Minimum distance between consecutive events; only used when the
        jitter exceeds the period.
    sporadic:
        When true, return a :class:`SporadicEventModel` regardless of jitter.
    """
    if sporadic:
        return SporadicEventModel(period=period, jitter=jitter,
                                  min_distance=min_distance)
    if jitter <= 0:
        return PeriodicEventModel(period=period)
    if jitter > period and min_distance > 0:
        return PeriodicWithBurst(period=period, jitter=jitter,
                                 min_distance=min_distance)
    return PeriodicWithJitter(period=period, jitter=jitter,
                              min_distance=min_distance)
