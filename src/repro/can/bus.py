"""CAN bus configuration.

A :class:`CanBus` bundles the physical parameters of one bus segment (bit
rate, whether worst-case bit stuffing is assumed) and provides per-message
transmission times, the values that feed both the load analysis and the
response-time analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.can.frame import (
    best_case_transmission_time, error_recovery_overhead,
    worst_case_transmission_time,
)
from repro.can.message import CanMessage


@dataclass(frozen=True)
class CanBus:
    """One CAN bus segment.

    Attributes
    ----------
    name:
        Symbolic name, e.g. ``"Powertrain-CAN"``.
    bit_rate_bps:
        Bit rate in bits per second; the case study uses 500 kbit/s.
    bit_stuffing:
        Whether worst-case bit stuffing is included in worst-case
        transmission times.  The paper's best-case experiments exclude it,
        the worst-case ones include it.
    """

    name: str
    bit_rate_bps: float = 500_000.0
    bit_stuffing: bool = True

    def __post_init__(self) -> None:
        # Also false for NaN, which every ordered comparison rejects.
        if not 0 < self.bit_rate_bps < math.inf:
            raise ValueError(f"bit_rate_bps must be finite and positive, "
                             f"got {self.bit_rate_bps!r}")

    @property
    def bit_time_ms(self) -> float:
        """Duration of one bit on the wire in milliseconds."""
        return 1000.0 / self.bit_rate_bps

    # ------------------------------------------------------------------ #
    # Per-message timing
    # ------------------------------------------------------------------ #
    def transmission_time(self, message: CanMessage) -> float:
        """Worst-case transmission time of ``message`` on this bus (ms)."""
        return worst_case_transmission_time(
            payload_bytes=message.dlc,
            bit_rate_bps=self.bit_rate_bps,
            frame_format=message.frame_format,
            bit_stuffing=self.bit_stuffing,
        )

    def best_case_transmission_time(self, message: CanMessage) -> float:
        """Best-case transmission time of ``message`` on this bus (ms)."""
        return best_case_transmission_time(
            payload_bytes=message.dlc,
            bit_rate_bps=self.bit_rate_bps,
            frame_format=message.frame_format,
        )

    def error_recovery_time(self) -> float:
        """Worst-case duration of one error signalling sequence (ms)."""
        return error_recovery_overhead(self.bit_rate_bps)

    def with_bit_stuffing(self, enabled: bool) -> "CanBus":
        """Copy of this bus with bit stuffing switched on or off."""
        return CanBus(name=self.name, bit_rate_bps=self.bit_rate_bps,
                      bit_stuffing=enabled)

    def with_bit_rate(self, bit_rate_bps: float) -> "CanBus":
        """Copy of this bus running at a different bit rate."""
        return CanBus(name=self.name, bit_rate_bps=bit_rate_bps,
                      bit_stuffing=self.bit_stuffing)

    def describe(self) -> str:
        """One-line human-readable summary."""
        stuffing = "worst-case stuffing" if self.bit_stuffing else "no stuffing"
        return (f"{self.name}: {self.bit_rate_bps / 1000:g} kbit/s, {stuffing}")
