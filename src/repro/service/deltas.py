"""Typed what-if deltas and the configuration they mutate.

A what-if query never edits the OEM's K-Matrix in place: it describes the
hypothetical change as a small, typed *delta* -- "this message's jitter
grows", "the bus gets noisier", "these two priorities are swapped" -- and the
:class:`~repro.service.session.AnalysisSession` applies the delta to a
copy-on-write view of the base configuration.  Deltas are frozen dataclasses,
so a scenario (a named sequence of deltas) is itself a hashable, picklable
value that can be registered in a catalog, shipped to a worker process, and
reproduced exactly.

:class:`BusConfiguration` is the unit a delta transforms: one bus's K-Matrix
plus everything else :class:`~repro.analysis.response_time.CanBusAnalysis`
consumes.  ``apply`` returns a new configuration sharing every untouched
:class:`~repro.can.message.CanMessage` with its parent (messages are frozen,
so structural sharing is safe), which keeps a 100-query sweep from copying
the matrix 100 times over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from repro.analysis.response_time import CanBusAnalysis
from repro.can.bus import CanBus
from repro.can.controller import ControllerModel
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.errors.models import ErrorModel, NoErrors
from repro.events.model import EventModel


@dataclass(frozen=True)
class BusConfiguration:
    """Everything one bus analysis depends on, as a single immutable value.

    ``deadline_policy`` influences only the schedulability verdicts, never
    the response times; the session therefore excludes it from the analysis
    cache key and applies it when rendering a report.
    """

    kmatrix: KMatrix
    bus: CanBus
    error_model: ErrorModel = field(default_factory=NoErrors)
    assumed_jitter_fraction: float = 0.0
    controllers: Optional[Mapping[str, ControllerModel]] = None
    event_models: Optional[Mapping[str, EventModel]] = None
    deadline_policy: str = "period"

    @classmethod
    def from_segment(cls, segment,
                     controllers: Optional[Mapping[str, ControllerModel]]
                     = None) -> "BusConfiguration":
        """Configuration of one :class:`~repro.core.system.BusSegment`.

        (Duck-typed to avoid a ``service -> core`` import cycle; anything
        with the segment attributes works.)  The session pool and the
        system-level what-if layer both shard systems through this.
        """
        return cls(
            kmatrix=segment.kmatrix,
            bus=segment.bus,
            error_model=segment.error_model,
            assumed_jitter_fraction=segment.assumed_jitter_fraction,
            controllers=dict(controllers) if controllers else None,
            deadline_policy=segment.deadline_policy,
        )

    def build_analysis(self) -> CanBusAnalysis:
        """Fresh analysis kernel for this configuration."""
        return CanBusAnalysis(
            kmatrix=self.kmatrix,
            bus=self.bus,
            error_model=self.error_model,
            assumed_jitter_fraction=self.assumed_jitter_fraction,
            controllers=self.controllers,
            event_models=self.event_models,
        )

    def effective_event_model(self, name: str) -> EventModel:
        """The activation model the analysis assumes for one message.

        Resolved exactly as the kernel resolves it: an explicit
        ``event_models`` override wins, otherwise the K-Matrix row's own
        model under the configuration's assumed jitter fraction.  The
        conformance monitor compares observed arrival envelopes against
        this model to decide when a re-derivation is due.
        """
        override = (self.event_models or {}).get(name)
        if override is not None:
            return override
        return self.kmatrix.get(name).event_model(self.assumed_jitter_fraction)

    def analysis_key(self) -> tuple:
        """Hashable fingerprint of every analysis-relevant input.

        Two configurations with equal keys produce bit-identical
        ``analyze_all`` results; the deadline policy is deliberately left
        out (see the class docstring).
        """
        controllers = tuple(sorted((self.controllers or {}).items()))
        event_models = tuple(sorted((self.event_models or {}).items()))
        return (
            tuple(self.kmatrix.messages),
            self.bus,
            self.error_model,
            self.assumed_jitter_fraction,
            controllers,
            event_models,
        )


class Delta:
    """Base class of all what-if deltas (see the module docstring)."""

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        """Return a new configuration with this delta applied."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner used in reports and query labels."""
        return type(self).__name__


def _replace_message(kmatrix: KMatrix, name: str,
                     message: CanMessage) -> KMatrix:
    """New matrix with one message replaced, sharing all the others."""
    if name not in kmatrix:
        raise KeyError(name)
    return KMatrix(messages=[
        message if m.name == name else m for m in kmatrix.messages])


@dataclass(frozen=True)
class JitterDelta(Delta):
    """Change send jitter: one message's, or the global assumed fraction.

    With ``message_name`` set, the named message's jitter becomes ``jitter``
    milliseconds (or ``fraction`` of its period).  Without it, ``fraction``
    replaces the configuration's assumed jitter fraction -- the paper's
    global "jitter in % of message period" knob applied to every message
    whose jitter the K-Matrix does not specify.
    """

    message_name: Optional[str] = None
    jitter: Optional[float] = None
    fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.jitter is None) == (self.fraction is None):
            raise ValueError("specify exactly one of jitter= or fraction=")
        if self.message_name is None and self.fraction is None:
            raise ValueError("a global JitterDelta needs fraction=")
        for field_name in ("jitter", "fraction"):
            value = getattr(self, field_name)
            # Also false for NaN, which every ordered comparison rejects.
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{field_name} must be finite and "
                                 f"non-negative, got {value!r}")

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        if self.message_name is None:
            return replace(config, assumed_jitter_fraction=self.fraction)
        message = config.kmatrix.get(self.message_name)
        value = self.jitter if self.jitter is not None \
            else self.fraction * message.period
        return replace(config, kmatrix=_replace_message(
            config.kmatrix, self.message_name, message.with_jitter(value)))

    def describe(self) -> str:
        if self.message_name is None:
            return f"assumed jitter -> {self.fraction:.0%}"
        if self.jitter is not None:
            return f"J({self.message_name}) -> {self.jitter:g} ms"
        return f"J({self.message_name}) -> {self.fraction:.0%} of period"


@dataclass(frozen=True)
class ErrorModelDelta(Delta):
    """Replace the bus-error model (e.g. "this segment gets noisier")."""

    error_model: ErrorModel = field(default_factory=NoErrors)

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        return replace(config, error_model=self.error_model)

    def describe(self) -> str:
        return f"errors -> {self.error_model.describe()}"


@dataclass(frozen=True)
class PriorityDelta(Delta):
    """Re-assign CAN identifiers (the optimizer's and integrator's knob).

    Exactly one form must be given:

    ``swap``
        Exchange the identifiers of two named messages.
    ``order``
        A full priority order (highest first); the matrix's existing
        identifier pool is re-assigned along it -- the GA's encoding.
    ``id_by_name``
        Explicit identifier assignments (unnamed messages keep theirs).
    """

    swap: Optional[tuple[str, str]] = None
    order: Optional[tuple[str, ...]] = None
    id_by_name: Optional[tuple[tuple[str, int], ...]] = None

    def __post_init__(self) -> None:
        forms = [self.swap, self.order, self.id_by_name]
        if sum(form is not None for form in forms) != 1:
            raise ValueError(
                "specify exactly one of swap=, order= or id_by_name=")
        if self.swap is not None and len(self.swap) != 2:
            raise ValueError(
                f"swap= names two messages, got {len(self.swap)}")
        # Normalise sequences to tuples so the delta stays hashable.
        if self.swap is not None:
            object.__setattr__(self, "swap", tuple(self.swap))
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))
        if self.id_by_name is not None and not isinstance(
                self.id_by_name, tuple):
            object.__setattr__(
                self, "id_by_name", tuple(dict(self.id_by_name).items()))

    @classmethod
    def from_mapping(cls, id_by_name: Mapping[str, int]) -> "PriorityDelta":
        """Delta from a plain ``name -> can_id`` mapping."""
        return cls(id_by_name=tuple(sorted(id_by_name.items())))

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        kmatrix = config.kmatrix
        if self.swap is not None:
            first, second = self.swap
            mapping = {first: kmatrix.get(second).can_id,
                       second: kmatrix.get(first).can_id}
        elif self.order is not None:
            names = {m.name for m in kmatrix}
            if set(self.order) != names or len(self.order) != len(names):
                raise ValueError(
                    "order= must be a permutation of the matrix's messages")
            pool = sorted(m.can_id for m in kmatrix)
            mapping = dict(zip(self.order, pool))
        else:
            mapping = dict(self.id_by_name)
        return replace(config, kmatrix=kmatrix.with_priorities(mapping))

    def describe(self) -> str:
        if self.swap is not None:
            return f"swap priorities {self.swap[0]} <-> {self.swap[1]}"
        if self.order is not None:
            return f"re-prioritise {len(self.order)} messages"
        return f"re-assign {len(self.id_by_name)} identifiers"


@dataclass(frozen=True)
class AddMessageDelta(Delta):
    """Add a message to the K-Matrix ("what if this ECU also sends ...")."""

    message: CanMessage = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not isinstance(self.message, CanMessage):
            raise ValueError("AddMessageDelta needs a CanMessage")

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        return replace(config, kmatrix=KMatrix(
            messages=[*config.kmatrix.messages, self.message]))

    def describe(self) -> str:
        return (f"add {self.message.name} "
                f"(id=0x{self.message.can_id:X}, T={self.message.period:g}ms)")


@dataclass(frozen=True)
class RemoveMessageDelta(Delta):
    """Remove a message from the K-Matrix."""

    message_name: str = ""

    def __post_init__(self) -> None:
        if not self.message_name:
            raise ValueError("RemoveMessageDelta needs a message name")

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        if self.message_name not in config.kmatrix:
            raise KeyError(self.message_name)
        return replace(config, kmatrix=KMatrix(messages=[
            m for m in config.kmatrix.messages if m.name != self.message_name]))

    def describe(self) -> str:
        return f"remove {self.message_name}"


@dataclass(frozen=True)
class EventModelDelta(Delta):
    """Replace or merge externally supplied activation models.

    This is the compositional engine's delta: every global iteration turns
    the propagated send models of one bus segment into an
    ``EventModelDelta`` and issues it to the segment's session, so the next
    iteration's bus analysis starts from cached kernels instead of being
    rebuilt.  ``models`` holds ``(message_name, event_model)`` pairs (kept
    sorted by name, so equal override maps hash equally); with
    ``replace=True`` the pairs *become* the configuration's override map,
    otherwise they are merged into the existing overrides.

    Event models are frozen dataclasses, so the delta stays hashable and
    picklable like every other delta.
    """

    models: tuple[tuple[str, EventModel], ...] = ()
    replace_all: bool = False

    def __post_init__(self) -> None:
        pairs = tuple(sorted(
            (str(name), model) for name, model in dict(self.models).items()))
        for _, model in pairs:
            if not isinstance(model, EventModel):
                raise ValueError(
                    f"EventModelDelta needs EventModel values, got {model!r}")
        object.__setattr__(self, "models", pairs)

    @classmethod
    def from_mapping(cls, models: Mapping[str, EventModel],
                     replace_all: bool = False) -> "EventModelDelta":
        """Delta from a plain ``name -> event model`` mapping."""
        return cls(models=tuple(sorted(models.items())),
                   replace_all=replace_all)

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        for name, _ in self.models:
            if name not in config.kmatrix:
                raise KeyError(name)
        if self.replace_all:
            merged = dict(self.models)
        else:
            merged = dict(config.event_models or {})
            merged.update(self.models)
        return replace(config, event_models=merged or None)

    def describe(self) -> str:
        if not self.models:
            return "clear event-model overrides" if self.replace_all \
                else "event models unchanged"
        names = ", ".join(name for name, _ in self.models[:3])
        suffix = ", ..." if len(self.models) > 3 else ""
        return f"inject event models for {names}{suffix}"


@dataclass(frozen=True)
class BusDelta(Delta):
    """Change physical bus parameters (bit rate, stuffing assumption)."""

    bit_rate_bps: Optional[float] = None
    bit_stuffing: Optional[bool] = None

    def __post_init__(self) -> None:
        # Also false for NaN, which every ordered comparison rejects.
        if self.bit_rate_bps is not None \
                and not 0 < self.bit_rate_bps < math.inf:
            raise ValueError(f"bit_rate_bps must be finite and positive, "
                             f"got {self.bit_rate_bps!r}")

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        bus = config.bus
        if self.bit_rate_bps is not None:
            bus = bus.with_bit_rate(self.bit_rate_bps)
        if self.bit_stuffing is not None:
            bus = bus.with_bit_stuffing(self.bit_stuffing)
        return replace(config, bus=bus)

    def describe(self) -> str:
        parts = []
        if self.bit_rate_bps is not None:
            parts.append(f"bit rate -> {self.bit_rate_bps / 1000:g} kbit/s")
        if self.bit_stuffing is not None:
            parts.append(f"stuffing -> {'on' if self.bit_stuffing else 'off'}")
        return ", ".join(parts) or "bus unchanged"


@dataclass(frozen=True)
class DeadlinePolicyDelta(Delta):
    """Switch the deadline interpretation (report-only, never re-analyses)."""

    policy: str = "period"

    def __post_init__(self) -> None:
        if self.policy not in ("period", "min-rearrival", "explicit"):
            raise ValueError(f"unknown deadline policy {self.policy!r}")

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        return replace(config, deadline_policy=self.policy)

    def describe(self) -> str:
        return f"deadlines -> {self.policy}"


def apply_deltas(config: BusConfiguration,
                 deltas: Sequence[Delta]) -> BusConfiguration:
    """Fold a delta sequence over a base configuration (left to right)."""
    for delta in deltas:
        config = delta.apply(config)
    return config
