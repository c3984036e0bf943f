"""Parameterised multi-bus systems beyond the two-bus gateway example.

The ROADMAP's scale-out direction asks for multi-bus systems "beyond two
gateways" as routine workloads: a chain of CAN segments coupled by
store-and-forward gateways, each forwarding its segment's most important
traffic to the next.  :func:`multibus_system` generates such a system
deterministically from a seed -- valid under
:meth:`~repro.core.system.SystemModel.validate`, analysable by the
compositional engine, and sliceable into per-bus what-if sessions via
``AnalysisSession.from_system(system, bus)`` for each of its buses.
"""

from __future__ import annotations

from dataclasses import replace

from repro.can.bus import CanBus
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.core.paths import EndToEndPath
from repro.core.system import BusSegment, SystemModel
from repro.errors.models import SporadicErrorModel
from repro.gateway.model import ForwardingPolicy, GatewayModel, GatewayRoute
from repro.workloads.scaling import synthetic_kmatrix

#: Identifier block reserved for gateway-forwarded frames: below the 0x80+
#: range :func:`synthetic_kmatrix` assigns, so forwarded traffic keeps the
#: high priority a real gateway configuration would give it.
_FORWARD_ID_BASE = 0x40


def _prefixed(kmatrix: KMatrix, prefix: str) -> KMatrix:
    """Rename messages and ECUs so names stay globally unique."""
    def rename(message: CanMessage) -> CanMessage:
        return replace(
            message,
            name=f"{prefix}_{message.name}",
            sender=f"{prefix}_{message.sender}",
            receivers=tuple(f"{prefix}_{r}" for r in message.receivers),
        )
    return kmatrix.map_messages(rename)


def multibus_system(
    n_buses: int = 3,
    messages_per_bus: int = 15,
    seed: int = 0,
    n_ecus: int = 4,
    bit_rate_bps: float = 500_000.0,
    routes_per_gateway: int = 2,
    error_interarrival_ms: float = 200.0,
    assumed_jitter_fraction: float = 0.1,
    polling_period_ms: float = 2.5,
) -> SystemModel:
    """A chain of ``n_buses`` CAN segments coupled by polling gateways.

    Gateway ``i`` forwards the ``routes_per_gateway`` highest-priority
    messages of bus ``i`` onto bus ``i + 1`` (as new high-priority frames it
    sends there), so jitter injected on one segment propagates down the
    chain -- the workload the compositional engine and the per-bus what-if
    batches both exercise.
    """
    if n_buses < 2:
        raise ValueError("n_buses must be at least 2")
    if routes_per_gateway < 1:
        raise ValueError("routes_per_gateway must be at least 1")
    if routes_per_gateway > messages_per_bus:
        raise ValueError("routes_per_gateway cannot exceed messages_per_bus")

    matrices = [
        _prefixed(
            synthetic_kmatrix(
                messages_per_bus, n_ecus=n_ecus, seed=seed + index,
                known_jitter_probability=0.25),
            f"B{index}")
        for index in range(n_buses)
    ]
    bus_names = [f"CAN-{index}" for index in range(n_buses)]

    system = SystemModel(name=f"multibus-{n_buses}x{messages_per_bus}")
    gateways: list[GatewayModel] = []
    for index in range(n_buses - 1):
        gateway_name = f"GW{index}"
        sources = matrices[index].sorted_by_priority()[:routes_per_gateway]
        routes = []
        for route_index, source in enumerate(sources):
            receivers = matrices[index + 1].senders()[:1]
            forwarded = CanMessage(
                name=f"{gateway_name}_{source.name}",
                can_id=_FORWARD_ID_BASE + route_index,
                dlc=source.dlc,
                period=source.period,
                sender=gateway_name,
                receivers=tuple(receivers),
            )
            matrices[index + 1].add(forwarded)
            routes.append(GatewayRoute(
                source_message=source.name,
                destination_message=forwarded.name,
                source_bus=bus_names[index],
                destination_bus=bus_names[index + 1]))
        gateways.append(GatewayModel(
            name=gateway_name,
            policy=ForwardingPolicy.PERIODIC_POLLING,
            polling_period=polling_period_ms,
            copy_time=0.05,
            routes=routes))

    for index, (kmatrix, bus_name) in enumerate(zip(matrices, bus_names)):
        system.add_bus(BusSegment(
            bus=CanBus(name=bus_name, bit_rate_bps=bit_rate_bps),
            kmatrix=kmatrix,
            error_model=SporadicErrorModel(
                min_interarrival=error_interarrival_ms),
            assumed_jitter_fraction=assumed_jitter_fraction))
    for gateway in gateways:
        system.add_gateway(gateway)

    problems = system.validate()
    if problems:  # pragma: no cover - generator invariant
        raise AssertionError(
            "multibus_system produced an inconsistent model:\n  "
            + "\n  ".join(problems))
    return system


def multibus_paths(system: SystemModel,
                   per_gateway: int = 1) -> tuple[EndToEndPath, ...]:
    """Cause-effect chains through a multibus system's gateways.

    For each gateway (in name order) the ``per_gateway`` first routes yield
    one path ``source message -> gateway forwarding -> forwarded message``
    -- the end-to-end latencies the system-level what-if queries and the
    ``system_whatif`` benchmark track across topology edits.
    """
    paths: list[EndToEndPath] = []
    for gateway_name in sorted(system.gateways):
        gateway = system.gateways[gateway_name]
        for route in gateway.routes[:per_gateway]:
            paths.append(EndToEndPath(
                name=f"{route.source_message}->{route.destination_message}",
                segments=(
                    ("message", route.source_message),
                    ("gateway",
                     f"{gateway_name}:{route.destination_message}"),
                    ("message", route.destination_message),
                )))
    return tuple(paths)
