"""System model: buses, ECUs, gateways and their interconnection.

The system model is the OEM's integration view (Figure 3 of the paper): per
bus a K-Matrix and physical parameters, per ECU either a detailed task model
(when the supplier discloses one or the OEM uses assumptions) or just the
controller type, plus error and diagnostics models, and the gateways that
couple the buses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.can.bus import CanBus
from repro.can.controller import ControllerModel
from repro.can.kmatrix import KMatrix
from repro.ecu.task import EcuModel
from repro.errors.models import ErrorModel, NoErrors
from repro.gateway.model import GatewayModel, GatewayRoute


@dataclass
class BusSegment:
    """One bus of the system: physical configuration plus its K-Matrix."""

    bus: CanBus
    kmatrix: KMatrix
    error_model: ErrorModel = field(default_factory=NoErrors)
    deadline_policy: str = "period"
    assumed_jitter_fraction: float = 0.0

    @property
    def name(self) -> str:
        """Bus name (unique within the system)."""
        return self.bus.name


@dataclass
class SystemModel:
    """The complete integration model the OEM analyses.

    Attributes
    ----------
    name:
        System name, e.g. ``"Powertrain network"``.
    buses:
        Bus segments keyed by bus name.
    ecus:
        Detailed ECU task models keyed by ECU name (optional per ECU --
        the whole point of the paper is that the OEM often has to work with
        assumptions instead).
    gateways:
        Gateway models keyed by gateway (ECU) name.
    controllers:
        CAN controller models keyed by ECU name.
    """

    name: str
    buses: dict[str, BusSegment] = field(default_factory=dict)
    ecus: dict[str, EcuModel] = field(default_factory=dict)
    gateways: dict[str, GatewayModel] = field(default_factory=dict)
    controllers: dict[str, ControllerModel] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_bus(self, segment: BusSegment) -> None:
        """Register a bus segment."""
        if segment.name in self.buses:
            raise ValueError(f"bus {segment.name!r} already registered")
        self.buses[segment.name] = segment

    def add_ecu(self, ecu: EcuModel) -> None:
        """Register a detailed ECU model."""
        if ecu.name in self.ecus:
            raise ValueError(f"ECU {ecu.name!r} already registered")
        self.ecus[ecu.name] = ecu

    def add_gateway(self, gateway: GatewayModel) -> None:
        """Register a gateway."""
        if gateway.name in self.gateways:
            raise ValueError(f"gateway {gateway.name!r} already registered")
        self.gateways[gateway.name] = gateway

    # ------------------------------------------------------------------ #
    # Copy-on-write derivation (the system-delta layer edits through these)
    # ------------------------------------------------------------------ #
    def shallow_copy(self) -> "SystemModel":
        """New system sharing every bus, ECU, gateway and controller object.

        The typed system deltas of :mod:`repro.whatif` never mutate a model
        in place: they copy the container dicts, replace only the edited
        entries, and share everything untouched with the parent -- the same
        structural sharing :class:`~repro.service.deltas.BusConfiguration`
        uses one level down.
        """
        return SystemModel(
            name=self.name,
            buses=dict(self.buses),
            ecus=dict(self.ecus),
            gateways=dict(self.gateways),
            controllers=dict(self.controllers),
        )

    def fingerprint(self) -> tuple:
        """Hashable fingerprint of every analysis-relevant system input.

        Two systems with equal fingerprints produce bit-identical
        :class:`~repro.core.engine.CompositionalAnalysis` results.  The
        fingerprint deliberately covers the *values* of buses, gateways,
        ECUs and controllers -- gateway and ECU containers are mutable, so
        any cache over whole-system results must invalidate on this value,
        never on object identity (see
        :meth:`~repro.gateway.model.GatewayModel.analysis_key`).  The
        system name is excluded: renaming changes no analysis input.
        """
        buses = tuple(
            (name,
             tuple(segment.kmatrix.messages),
             segment.bus,
             segment.error_model,
             segment.assumed_jitter_fraction,
             segment.deadline_policy)
            for name, segment in sorted(self.buses.items()))
        gateways = tuple(
            gateway.analysis_key()
            for _, gateway in sorted(self.gateways.items()))
        ecus = tuple(
            ecu.analysis_key() for _, ecu in sorted(self.ecus.items()))
        controllers = tuple(sorted(self.controllers.items()))
        return (buses, gateways, ecus, controllers)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def bus_of_message(self, message_name: str) -> BusSegment:
        """The bus segment carrying the given message."""
        for segment in self.buses.values():
            if message_name in segment.kmatrix:
                return segment
        raise KeyError(message_name)

    def message_names(self) -> list[str]:
        """All message names across all buses."""
        names: list[str] = []
        for segment in self.buses.values():
            names.extend(m.name for m in segment.kmatrix)
        return names

    def ecu_names(self) -> list[str]:
        """All ECU names referenced anywhere in the system."""
        names: set[str] = set(self.ecus)
        names.update(self.gateways)
        names.update(self.controllers)
        for segment in self.buses.values():
            names.update(segment.kmatrix.ecu_names())
        return sorted(names)

    def validate(self) -> list[str]:
        """Cross-component consistency checks; returns a list of problems.

        An empty list means the model is consistent: every task-sent message
        and every gateway route endpoint exists in some K-Matrix, and message
        names are globally unique.
        """
        problems: list[str] = []
        seen: dict[str, str] = {}
        for segment in self.buses.values():
            for message in segment.kmatrix:
                if message.name in seen:
                    problems.append(
                        f"message {message.name!r} appears on both "
                        f"{seen[message.name]!r} and {segment.name!r}")
                seen[message.name] = segment.name
        for ecu in self.ecus.values():
            for task in ecu.tasks:
                for message_name in task.sends_messages:
                    if message_name not in seen:
                        problems.append(
                            f"task {task.name!r} on {ecu.name!r} sends unknown "
                            f"message {message_name!r}")
        for gateway in self.gateways.values():
            for route in gateway.routes:
                if route.source_message not in seen:
                    problems.append(
                        f"gateway {gateway.name!r} forwards unknown source "
                        f"message {route.source_message!r}")
                if route.destination_message not in seen:
                    problems.append(
                        f"gateway {gateway.name!r} produces unknown destination "
                        f"message {route.destination_message!r}")
                if route.source_message in seen and \
                        seen[route.source_message] != route.source_bus:
                    problems.append(
                        f"route {route.describe()} expects source on "
                        f"{route.source_bus!r} but it is on "
                        f"{seen[route.source_message]!r}")
                if route.destination_message in seen and \
                        seen[route.destination_message] != route.destination_bus:
                    problems.append(
                        f"route {route.describe()} expects destination on "
                        f"{route.destination_bus!r} but it is on "
                        f"{seen[route.destination_message]!r}")
        return problems

    def describe(self) -> str:
        """Multi-line inventory of the system (the Figure-3 information)."""
        lines = [f"System {self.name!r}:"]
        for segment in self.buses.values():
            lines.append(f"  bus {segment.name}: {len(segment.kmatrix)} messages, "
                         f"{segment.bus.bit_rate_bps / 1000:g} kbit/s, "
                         f"errors: {segment.error_model.describe()}")
        lines.append(f"  detailed ECU models: {sorted(self.ecus) or 'none'}")
        lines.append(f"  gateways: {sorted(self.gateways) or 'none'}")
        return "\n".join(lines)


def influence_edges(system: SystemModel) -> frozenset[tuple[str, str]]:
    """Directed bus-influence edges the gateways induce.

    ``(A, B)`` means a change on bus ``A`` can change the analysis inputs
    of bus ``B`` within one propagation step: a gateway forwards a message
    from ``A`` to ``B``, or a route sourced on ``A`` shares an output queue
    with a route destined for ``B`` (queueing couples their forwarding
    latencies and the queue-length bound).
    """
    edges: set[tuple[str, str]] = set()
    for gateway in system.gateways.values():
        by_queue: dict[str, list[GatewayRoute]] = {}
        for route in gateway.routes:
            edges.add((route.source_bus, route.destination_bus))
            by_queue.setdefault(route.queue, []).append(route)
        for routes in by_queue.values():
            for first in routes:
                for second in routes:
                    edges.add((first.source_bus, second.destination_bus))
    return frozenset(edges)


def downstream_closure(seeds: frozenset[str],
                       edges: frozenset[tuple[str, str]]) -> frozenset[str]:
    """Buses reachable from ``seeds`` along the influence edges."""
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        bus = frontier.pop()
        for source, destination in edges:
            if source == bus and destination not in reached:
                reached.add(destination)
                frontier.append(destination)
    return frozenset(reached)
