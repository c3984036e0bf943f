"""Typed system-level what-if deltas: topology edits as values.

Where :mod:`repro.service.deltas` describes hypothetical changes to *one
bus*, the deltas here describe changes to the *system*: a message moved to
another segment, a bus re-clocked, a gateway route added or removed, an ECU
task re-budgeted.  Like their per-bus counterparts they are frozen,
hashable, picklable dataclasses, they never mutate the
:class:`~repro.core.system.SystemModel` they are applied to (``apply``
returns a copy-on-write derivative sharing every untouched segment, gateway
and ECU with its parent), and a scenario built from them reproduces
exactly.

Each delta additionally knows which bus segments it edits *directly*
(:meth:`SystemDelta.touched_buses`); the
:class:`~repro.whatif.session.SystemSession` closes that set under gateway
reachability to report which shards a query invalidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.can.kmatrix import KMatrix
from repro.core.system import BusSegment, SystemModel
from repro.ecu.task import EcuModel
from repro.events.model import EventModel
from repro.gateway.model import ForwardingPolicy, GatewayModel, GatewayRoute
from repro.service.deltas import (
    BusConfiguration,
    Delta,
    EventModelDelta,
    apply_deltas,
)


class SystemDelta:
    """Base class of all system-level what-if deltas."""

    def apply(self, system: SystemModel) -> SystemModel:
        """Return a new system with this delta applied (copy-on-write)."""
        raise NotImplementedError

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        """Buses whose local analysis inputs this delta edits directly.

        Downstream propagation through gateways is *not* included here;
        :meth:`SystemSession.invalidated_by` closes the set under the
        gateway influence graph.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner used in reports and query labels."""
        return type(self).__name__


def _require_bus(system: SystemModel, bus_name: str) -> BusSegment:
    segment = system.buses.get(bus_name)
    if segment is None:
        raise KeyError(
            f"unknown bus {bus_name!r}; system has: "
            f"{', '.join(sorted(system.buses))}")
    return segment


def _require_gateway(system: SystemModel, name: str) -> GatewayModel:
    gateway = system.gateways.get(name)
    if gateway is None:
        raise KeyError(
            f"unknown gateway {name!r}; system has: "
            f"{', '.join(sorted(system.gateways)) or 'none'}")
    return gateway


@dataclass(frozen=True)
class MoveMessageDelta(SystemDelta):
    """Re-map one message to another bus segment.

    The paper's architecture-exploration move: "what if this frame went
    over the body bus instead".  The message keeps its parameters (a new
    identifier may be assigned with ``new_can_id`` when the target bus
    already uses the old one), and gateway routes naming the message follow
    it -- their ``source_bus`` / ``destination_bus`` are rewritten so the
    edited system stays consistent under
    :meth:`~repro.core.system.SystemModel.validate`.
    """

    message_name: str
    to_bus: str
    new_can_id: Optional[int] = None

    def apply(self, system: SystemModel) -> SystemModel:
        source = system.bus_of_message(self.message_name)
        target = _require_bus(system, self.to_bus)
        message = source.kmatrix.get(self.message_name)
        if self.new_can_id is not None:
            message = message.with_can_id(self.new_can_id)
        edited = system.shallow_copy()
        if source.name == target.name:
            # Same bus: the move degenerates to an identifier re-assignment.
            edited.buses[source.name] = replace(source, kmatrix=KMatrix(
                messages=[message if m.name == self.message_name else m
                          for m in source.kmatrix.messages]))
        else:
            edited.buses[source.name] = replace(source, kmatrix=KMatrix(
                messages=[m for m in source.kmatrix.messages
                          if m.name != self.message_name]))
            edited.buses[target.name] = replace(target, kmatrix=KMatrix(
                messages=[*target.kmatrix.messages, message]))
        for name, gateway in system.gateways.items():
            routes = tuple(
                replace(
                    route,
                    source_bus=(target.name
                                if route.source_message == self.message_name
                                else route.source_bus),
                    destination_bus=(
                        target.name
                        if route.destination_message == self.message_name
                        else route.destination_bus))
                for route in gateway.routes)
            if routes != tuple(gateway.routes):
                edited.gateways[name] = replace(gateway, routes=list(routes))
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        return frozenset(
            {system.bus_of_message(self.message_name).name, self.to_bus})

    def describe(self) -> str:
        suffix = (f" (id=0x{self.new_can_id:X})"
                  if self.new_can_id is not None else "")
        return f"move {self.message_name} -> {self.to_bus}{suffix}"


@dataclass(frozen=True)
class BusSpeedDelta(SystemDelta):
    """Re-clock one bus segment (e.g. "CAN-1 degrades to 250 kbit/s")."""

    bus_name: str
    bit_rate_bps: float

    def __post_init__(self) -> None:
        if not 0 < self.bit_rate_bps < math.inf:
            raise ValueError(f"bit_rate_bps must be finite and positive, "
                             f"got {self.bit_rate_bps!r}")

    def apply(self, system: SystemModel) -> SystemModel:
        segment = _require_bus(system, self.bus_name)
        edited = system.shallow_copy()
        edited.buses[self.bus_name] = replace(
            segment, bus=segment.bus.with_bit_rate(self.bit_rate_bps))
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        return frozenset({self.bus_name})

    def describe(self) -> str:
        return f"{self.bus_name} -> {self.bit_rate_bps / 1000:g} kbit/s"


@dataclass(frozen=True)
class AddGatewayRouteDelta(SystemDelta):
    """Add a forwarding relation (optionally creating the gateway).

    With ``polling_period`` set and the gateway absent, a fresh
    periodic-polling gateway is created -- the failover scenario's "bring
    up the backup gateway" step.  Both route endpoints must already exist
    in the named buses' K-Matrices.
    """

    gateway_name: str
    route: GatewayRoute = None  # type: ignore[assignment]
    polling_period: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.route, GatewayRoute):
            raise ValueError("AddGatewayRouteDelta needs a GatewayRoute")

    def apply(self, system: SystemModel) -> SystemModel:
        for message_name, bus_name in (
                (self.route.source_message, self.route.source_bus),
                (self.route.destination_message, self.route.destination_bus)):
            segment = _require_bus(system, bus_name)
            if message_name not in segment.kmatrix:
                raise KeyError(
                    f"route endpoint {message_name!r} is not on {bus_name!r}")
        edited = system.shallow_copy()
        gateway = system.gateways.get(self.gateway_name)
        if gateway is None:
            gateway = GatewayModel(
                name=self.gateway_name,
                routes=[self.route],
                policy=ForwardingPolicy.PERIODIC_POLLING,
                **({"polling_period": self.polling_period}
                   if self.polling_period is not None else {}))
        else:
            gateway = replace(gateway, routes=[*gateway.routes, self.route])
            if self.polling_period is not None:
                gateway = replace(gateway,
                                  polling_period=self.polling_period)
        edited.gateways[self.gateway_name] = gateway
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        # The new route changes the destination's send model; routes already
        # sharing its queue see a longer forwarding interval, so their
        # destinations are touched too.
        touched = {self.route.destination_bus}
        gateway = system.gateways.get(self.gateway_name)
        if gateway is not None:
            touched.update(
                r.destination_bus
                for r in gateway.routes_through_queue(self.route.queue))
        return frozenset(touched)

    def describe(self) -> str:
        return f"{self.gateway_name} += {self.route.describe()}"


@dataclass(frozen=True)
class RemoveGatewayRouteDelta(SystemDelta):
    """Drop the route producing one destination message.

    The destination message stays in its K-Matrix (it falls back to its
    K-Matrix activation assumptions); only the forwarding relation -- and
    with it the propagated send model -- disappears.
    """

    gateway_name: str
    destination_message: str = ""

    def __post_init__(self) -> None:
        if not self.destination_message:
            raise ValueError(
                "RemoveGatewayRouteDelta needs a destination message")

    def apply(self, system: SystemModel) -> SystemModel:
        gateway = _require_gateway(system, self.gateway_name)
        route = gateway.route_for_destination(self.destination_message)
        edited = system.shallow_copy()
        edited.gateways[self.gateway_name] = replace(
            gateway,
            routes=[r for r in gateway.routes if r is not route])
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        gateway = _require_gateway(system, self.gateway_name)
        route = gateway.route_for_destination(self.destination_message)
        touched = {
            r.destination_bus
            for r in gateway.routes_through_queue(route.queue)}
        touched.add(route.destination_bus)
        return frozenset(touched)

    def describe(self) -> str:
        return f"{self.gateway_name} -= route to {self.destination_message}"


@dataclass(frozen=True)
class GatewayConfigDelta(SystemDelta):
    """Change a gateway's forwarding configuration (degradation knob)."""

    gateway_name: str
    polling_period: Optional[float] = None
    copy_time: Optional[float] = None
    policy: Optional[ForwardingPolicy] = None

    def __post_init__(self) -> None:
        if (self.polling_period is None and self.copy_time is None
                and self.policy is None):
            raise ValueError("GatewayConfigDelta changes nothing")

    def apply(self, system: SystemModel) -> SystemModel:
        gateway = _require_gateway(system, self.gateway_name)
        changes: dict = {}
        if self.polling_period is not None:
            changes["polling_period"] = self.polling_period
        if self.copy_time is not None:
            changes["copy_time"] = self.copy_time
        if self.policy is not None:
            changes["policy"] = ForwardingPolicy(self.policy)
        edited = system.shallow_copy()
        edited.gateways[self.gateway_name] = replace(gateway, **changes)
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        gateway = _require_gateway(system, self.gateway_name)
        return frozenset(r.destination_bus for r in gateway.routes)

    def describe(self) -> str:
        parts = []
        if self.polling_period is not None:
            parts.append(f"polling -> {self.polling_period:g} ms")
        if self.copy_time is not None:
            parts.append(f"copy -> {self.copy_time:g} ms")
        if self.policy is not None:
            parts.append(f"policy -> {ForwardingPolicy(self.policy).value}")
        return f"{self.gateway_name}: " + ", ".join(parts)


@dataclass(frozen=True)
class EcuTaskDelta(SystemDelta):
    """Re-budget one task of a detailed ECU model.

    Changing one task's execution budget changes the response intervals of
    every lower-priority task on that ECU, so *all* messages the ECU's
    tasks queue get new send models -- ``touched_buses`` reflects that.
    """

    ecu_name: str
    task_name: str = ""
    wcet: Optional[float] = None
    bcet: Optional[float] = None
    activation: Optional[EventModel] = None

    def __post_init__(self) -> None:
        if not self.task_name:
            raise ValueError("EcuTaskDelta needs a task name")
        if self.wcet is None and self.bcet is None \
                and self.activation is None:
            raise ValueError("EcuTaskDelta changes nothing")

    def _ecu(self, system: SystemModel) -> EcuModel:
        ecu = system.ecus.get(self.ecu_name)
        if ecu is None:
            raise KeyError(
                f"no detailed model for ECU {self.ecu_name!r}; available: "
                f"{', '.join(sorted(system.ecus)) or 'none'}")
        return ecu

    def apply(self, system: SystemModel) -> SystemModel:
        ecu = self._ecu(system)
        task = ecu.task(self.task_name)
        changes: dict = {}
        if self.wcet is not None:
            changes["wcet"] = self.wcet
        if self.bcet is not None:
            changes["bcet"] = self.bcet
        if self.activation is not None:
            changes["activation"] = self.activation
        edited_task = replace(task, **changes)
        edited = system.shallow_copy()
        edited.ecus[self.ecu_name] = EcuModel(
            name=ecu.name,
            tasks=[edited_task if t.name == self.task_name else t
                   for t in ecu.tasks],
            overheads=ecu.overheads,
            timetable=ecu.timetable,
        )
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        ecu = self._ecu(system)
        touched: set[str] = set()
        for task in ecu.tasks:
            for message_name in task.sends_messages:
                try:
                    touched.add(system.bus_of_message(message_name).name)
                except KeyError:
                    continue
        return frozenset(touched)

    def describe(self) -> str:
        parts = []
        if self.wcet is not None:
            parts.append(f"wcet -> {self.wcet:g} ms")
        if self.bcet is not None:
            parts.append(f"bcet -> {self.bcet:g} ms")
        if self.activation is not None:
            parts.append("new activation model")
        return f"{self.ecu_name}.{self.task_name}: " + ", ".join(parts)


@dataclass(frozen=True)
class SegmentConfigDelta(SystemDelta):
    """Apply per-bus :class:`~repro.service.deltas.Delta` edits to one bus.

    This is the bridge to the PR 3 what-if vocabulary: any delta sequence a
    single-bus :class:`~repro.service.session.AnalysisSession` accepts
    (jitter, error model, priorities, add/remove message, bus physics,
    deadline policy) becomes a system-level edit of the named segment.
    :class:`~repro.service.deltas.EventModelDelta` is rejected -- activation
    overrides are owned by the compositional engine's propagation, and a
    topology query injecting them would fight the fixed point.
    """

    bus_name: str
    deltas: tuple[Delta, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(self.deltas))
        if not self.deltas:
            raise ValueError("SegmentConfigDelta needs at least one delta")
        for delta in self.deltas:
            if isinstance(delta, EventModelDelta):
                raise ValueError(
                    "EventModelDelta cannot be applied system-level: the "
                    "compositional engine owns activation overrides")
            if not isinstance(delta, Delta):
                raise ValueError(
                    f"SegmentConfigDelta needs service deltas, got {delta!r}")

    def apply(self, system: SystemModel) -> SystemModel:
        segment = _require_bus(system, self.bus_name)
        config = apply_deltas(
            BusConfiguration.from_segment(segment), self.deltas)
        edited = system.shallow_copy()
        edited.buses[self.bus_name] = BusSegment(
            bus=config.bus,
            kmatrix=config.kmatrix,
            error_model=config.error_model,
            deadline_policy=config.deadline_policy,
            assumed_jitter_fraction=config.assumed_jitter_fraction,
        )
        return edited

    def touched_buses(self, system: SystemModel) -> frozenset[str]:
        return frozenset({self.bus_name})

    def describe(self) -> str:
        inner = "; ".join(delta.describe() for delta in self.deltas)
        return f"{self.bus_name}: {inner}"


def apply_system_deltas(system: SystemModel,
                        deltas: Sequence[SystemDelta]) -> SystemModel:
    """Fold a system-delta sequence over a base system (left to right)."""
    for delta in deltas:
        system = delta.apply(system)
    return system
