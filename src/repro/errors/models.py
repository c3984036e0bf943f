"""Worst-case error-overhead functions for CAN.

All models implement the same contract: ``overhead(t, recovery, retransmit)``
is a monotonically non-decreasing function of the window length ``t`` giving
the worst-case time (ms) consumed by error signalling and retransmissions in
any window of length ``t``.

* ``recovery`` is the worst-case duration of one error-signalling sequence
  (31 bit times, see :func:`repro.can.frame.error_recovery_overhead`);
* ``retransmit`` is the worst-case transmission time of the longest frame
  that could have been corrupted and must be resent -- the analysis passes
  the longest frame of priority higher than or equal to the message under
  analysis, per the classical Tindell/Burns formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _check_min_interarrival(value: float) -> None:
    # Also false for NaN, which every ordered comparison rejects.
    if not 0 < value < math.inf:
        raise ValueError(f"min_interarrival must be finite and positive, "
                         f"got {value!r}")


def _count_arrivals(t: float, period: float) -> int:
    """Number of sporadic arrivals with minimum separation ``period`` in ``t``.

    One arrival can always coincide with the start of the window; further
    arrivals need a full ``period`` each.  ``t <= 0`` yields zero.
    """
    if t <= 0:
        return 0
    value = t / period
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        value = nearest
    return 1 + int(math.floor(value))


@dataclass(frozen=True)
class ErrorModel:
    """Base class: no errors at all (also usable directly)."""

    def overhead(self, t: float, recovery: float, retransmit: float) -> float:
        """Worst-case error-handling time in a window of length ``t`` (ms)."""
        del t, recovery, retransmit
        return 0.0

    def errors_in(self, t: float) -> int:
        """Worst-case number of corrupted frames in a window of length ``t``."""
        del t
        return 0

    def describe(self) -> str:
        """Human-readable one-liner used in reports."""
        return "no errors"


@dataclass(frozen=True)
class NoErrors(ErrorModel):
    """Explicit alias of the error-free model for readability."""


@dataclass(frozen=True)
class SporadicErrorModel(ErrorModel):
    """At most one error per ``min_interarrival`` milliseconds.

    This is the MTBF-style model of Tindell & Burns: the bound holds as long
    as single-bit upsets are separated by at least ``min_interarrival``.

    Attributes
    ----------
    min_interarrival:
        Minimum distance between two error events in milliseconds.  Typical
        values for a noisy vehicle environment are in the 5..50 ms range; the
        model degenerates gracefully for very large values (rare errors).
    """

    min_interarrival: float = 10.0

    def __post_init__(self) -> None:
        _check_min_interarrival(self.min_interarrival)

    def errors_in(self, t: float) -> int:
        return _count_arrivals(t, self.min_interarrival)

    def overhead(self, t: float, recovery: float, retransmit: float) -> float:
        return self.errors_in(t) * (recovery + retransmit)

    def describe(self) -> str:
        return f"sporadic errors (>= {self.min_interarrival:g} ms apart)"


@dataclass(frozen=True)
class BurstErrorModel(ErrorModel):
    """Errors arrive in bursts (Punnekkat, Hansson & Norström).

    A burst consists of up to ``burst_length`` error events separated by at
    most ``intra_burst_gap`` milliseconds; bursts themselves are separated by
    at least ``min_interarrival`` milliseconds.  Each error in a burst costs
    an error-recovery sequence plus a retransmission of the corrupted frame.

    Attributes
    ----------
    min_interarrival:
        Minimum distance between the *starts* of two bursts (ms).
    burst_length:
        Maximum number of errors per burst.
    intra_burst_gap:
        Maximum spacing between consecutive errors inside one burst (ms);
        only used to bound how many errors of a burst can fall into a short
        window.
    """

    min_interarrival: float = 50.0
    burst_length: int = 3
    intra_burst_gap: float = 1.0

    def __post_init__(self) -> None:
        _check_min_interarrival(self.min_interarrival)
        if self.burst_length < 1:
            raise ValueError("burst_length must be at least 1")
        # Also false for NaN, which every ordered comparison rejects.
        if not 0 <= self.intra_burst_gap < math.inf:
            raise ValueError(f"intra_burst_gap must be finite and "
                             f"non-negative, got {self.intra_burst_gap!r}")
        if self.burst_length * self.intra_burst_gap >= self.min_interarrival:
            raise ValueError(
                "burst must fit inside the inter-burst distance: "
                "burst_length * intra_burst_gap < min_interarrival")

    def errors_in(self, t: float) -> int:
        if t <= 0:
            return 0
        bursts = _count_arrivals(t, self.min_interarrival)
        # Within the window the last burst may only partially fit; bound the
        # number of its errors by the intra-burst spacing.
        if self.intra_burst_gap > 0:
            partial = min(self.burst_length, 1 + int(t // self.intra_burst_gap))
        else:
            partial = self.burst_length
        full_bursts = max(bursts - 1, 0)
        return full_bursts * self.burst_length + partial

    def overhead(self, t: float, recovery: float, retransmit: float) -> float:
        return self.errors_in(t) * (recovery + retransmit)

    def describe(self) -> str:
        return (f"burst errors (bursts of {self.burst_length}, "
                f">= {self.min_interarrival:g} ms apart)")


@dataclass(frozen=True)
class CompositeErrorModel(ErrorModel):
    """Superposition of several independent error sources.

    The worst-case overheads of independent sources simply add; this is the
    standard conservative composition (e.g. background single-bit upsets plus
    occasional EMI bursts from ignition).
    """

    components: tuple[ErrorModel, ...] = ()

    def errors_in(self, t: float) -> int:
        return sum(component.errors_in(t) for component in self.components)

    def overhead(self, t: float, recovery: float, retransmit: float) -> float:
        return sum(component.overhead(t, recovery, retransmit)
                   for component in self.components)

    def describe(self) -> str:
        if not self.components:
            return "no errors"
        return " + ".join(component.describe() for component in self.components)


def composite(models: Sequence[ErrorModel]) -> ErrorModel:
    """Convenience constructor collapsing trivial compositions."""
    real = [m for m in models if not isinstance(m, NoErrors) and type(m) is not ErrorModel]
    if not real:
        return NoErrors()
    if len(real) == 1:
        return real[0]
    return CompositeErrorModel(components=tuple(real))
