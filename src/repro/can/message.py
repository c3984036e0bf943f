"""K-Matrix message abstraction.

A :class:`CanMessage` is one row of the communication matrix: a CAN frame
with an identifier (which doubles as its arbitration priority), a payload
length, a sending ECU, receiving ECUs, and the timing attributes the OEM
knows (period) or assumes (jitter, deadline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from repro.can.frame import CanFrameFormat
from repro.events.model import EventModel, event_model_from_parameters


class MessageDirection(str, Enum):
    """Direction of a message from the point of view of one ECU."""

    SEND = "send"
    RECEIVE = "receive"


@dataclass(frozen=True)
class SignalSpec:
    """A signal packed into a CAN message (name, start bit, length in bits).

    Signals do not influence the timing analysis directly, but carrying them
    through the K-Matrix lets examples show realistic message payload layouts
    and lets the gateway route individual signals between buses.
    """

    name: str
    start_bit: int
    length_bits: int

    def __post_init__(self) -> None:
        if self.start_bit < 0 or self.length_bits <= 0:
            raise ValueError("signal start_bit must be >= 0 and length > 0")
        if self.start_bit + self.length_bits > 64:
            raise ValueError(
                f"signal {self.name!r} exceeds the 64-bit CAN payload")


@dataclass(frozen=True)
class CanMessage:
    """One message (frame) of the communication matrix.

    Attributes
    ----------
    name:
        Unique symbolic name, e.g. ``"EngineTorque1"``.
    can_id:
        CAN identifier.  Lower identifiers win arbitration, i.e. the CAN id
        *is* the priority of the message on the bus.
    dlc:
        Data length code -- number of payload bytes (0..8).
    period:
        Sending period in milliseconds (from the K-Matrix).
    jitter:
        Queuing jitter of the sending ECU in milliseconds.  Unknown jitters
        are represented as ``None`` and filled in by experiment assumptions.
    deadline:
        Relative deadline in milliseconds.  The paper's strictest experiment
        uses the minimum re-arrival time (i.e. ``period - jitter``); when the
        deadline is ``None`` the analysis derives it from the configured
        deadline policy.
    sender:
        Name of the sending ECU.
    receivers:
        Names of the receiving ECUs.
    frame_format:
        Standard (11-bit) or extended (29-bit) identifier.
    signals:
        Optional payload layout.
    min_distance:
        Minimum distance between two queuings of this message (ms); only
        relevant for bursty senders such as gateways or diagnostics.
    """

    name: str
    can_id: int
    dlc: int
    period: float
    sender: str
    receivers: tuple[str, ...] = ()
    jitter: Optional[float] = None
    deadline: Optional[float] = None
    frame_format: CanFrameFormat = CanFrameFormat.STANDARD
    signals: tuple[SignalSpec, ...] = ()
    min_distance: float = 0.0

    def __post_init__(self) -> None:
        if self.can_id < 0:
            raise ValueError(f"can_id must be non-negative, got {self.can_id}")
        max_id = 0x7FF if self.frame_format == CanFrameFormat.STANDARD else 0x1FFFFFFF
        if self.can_id > max_id:
            raise ValueError(
                f"can_id 0x{self.can_id:X} does not fit the "
                f"{self.frame_format.value} format (max 0x{max_id:X})")
        if not 0 <= self.dlc <= 8:
            raise ValueError(f"dlc must be 0..8, got {self.dlc}")
        # NaN fails every comparison, so these reject NaN fields too.
        if not 0 < self.period < math.inf:
            raise ValueError(
                f"period must be positive and finite, got {self.period}")
        if self.jitter is not None and not self.jitter >= 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        if self.deadline is not None and not self.deadline > 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if not self.min_distance >= 0:
            raise ValueError(
                f"min_distance must be non-negative, got {self.min_distance}")

    # ------------------------------------------------------------------ #
    # Priorities and deadlines
    # ------------------------------------------------------------------ #
    @property
    def priority(self) -> int:
        """Arbitration priority: identical to the CAN identifier.

        Smaller values denote *higher* priority, matching CAN arbitration.
        """
        return self.can_id

    @property
    def jitter_known(self) -> bool:
        """Whether the K-Matrix specifies a send jitter for this message."""
        return self.jitter is not None

    def effective_jitter(self, assumed_jitter_fraction: float = 0.0) -> float:
        """Jitter to use in analysis.

        Known jitters are used as-is; unknown jitters are assumed to be
        ``assumed_jitter_fraction * period`` -- the knob the paper's
        experiments sweep ("jitter in % of message period").
        """
        if self.jitter is not None:
            return self.jitter
        if assumed_jitter_fraction < 0:
            raise ValueError("assumed_jitter_fraction must be non-negative")
        return assumed_jitter_fraction * self.period

    def effective_deadline(self, policy: str = "period",
                           jitter: float | None = None) -> float:
        """Deadline to verify against.

        Policies
        --------
        ``"period"``
            Deadline equals the period (implicit deadline): the message must
            be transmitted before its next instance is queued.
        ``"min-rearrival"``
            Deadline equals the minimum re-arrival time ``period - jitter``:
            the strictest interpretation used in the paper's worst-case
            experiment (the send buffer may be overwritten as soon as the
            next instance can arrive).
        ``"explicit"``
            Use the explicit per-message deadline, falling back to the period
            when none is given.
        """
        if policy == "explicit":
            return self.deadline if self.deadline is not None else self.period
        if policy == "period":
            return self.period
        if policy == "min-rearrival":
            effective_jitter = self.jitter if jitter is None else jitter
            effective_jitter = effective_jitter or 0.0
            return max(self.period - effective_jitter, 1e-6)
        raise ValueError(f"unknown deadline policy {policy!r}")

    # ------------------------------------------------------------------ #
    # Event model and derived copies
    # ------------------------------------------------------------------ #
    def event_model(self, assumed_jitter_fraction: float = 0.0) -> EventModel:
        """Standard event model describing the queuing of this message."""
        return event_model_from_parameters(
            period=self.period,
            jitter=self.effective_jitter(assumed_jitter_fraction),
            min_distance=self.min_distance,
        )

    def with_can_id(self, can_id: int) -> "CanMessage":
        """Copy of this message with a different identifier (re-prioritised)."""
        return replace(self, can_id=can_id)

    def with_jitter(self, jitter: Optional[float]) -> "CanMessage":
        """Copy of this message with a different (or unknown) jitter."""
        return replace(self, jitter=jitter)

    def with_period(self, period: float) -> "CanMessage":
        """Copy of this message with a different period."""
        return replace(self, period=period)

    def payload_bits(self) -> int:
        """Number of payload bits carried by the frame."""
        return self.dlc * 8

    def describe(self) -> str:
        """One-line human readable summary used in reports."""
        jitter = "?" if self.jitter is None else f"{self.jitter:g}"
        return (f"{self.name}: id=0x{self.can_id:03X} dlc={self.dlc} "
                f"T={self.period:g}ms J={jitter}ms sender={self.sender}")
