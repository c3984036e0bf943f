"""The topology families of the what-if scenario catalog.

:func:`repro.service.catalog.builtin_catalog` registers the paper's
*parameter* families (jitter, errors, priorities); the families here are
its *topology* families -- the architecture moves Figure 3's integration
view is actually about:

* **message re-mapping sweeps** -- one message tried on every other bus;
* **bus-speed degradation** -- one segment stepped down through the
  standard CAN bit rates;
* **gateway failover** -- a gateway's routes migrated, one by one, onto a
  backup gateway.

They are the same :class:`~repro.service.catalog.WhatIfScenario` values as
the per-bus families, with typed
:class:`~repro.whatif.system_deltas.SystemDelta` steps, so a registered
scenario replays exactly -- through a local
:class:`~repro.whatif.session.SystemSession` or the daemon's ``scenario``
op with a ``system``.  Unlike the per-bus families, topology
scenarios depend on the topology: :func:`builtin_system_catalog` derives
the standard families *from* a concrete system (which message, which bus,
which gateway) deterministically.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.system import SystemModel
from repro.service.catalog import (
    ScenarioCatalog,
    ScenarioQuery,
    WhatIfScenario,
)
from repro.whatif.system_deltas import (
    AddGatewayRouteDelta,
    BusSpeedDelta,
    GatewayConfigDelta,
    MoveMessageDelta,
    RemoveGatewayRouteDelta,
    SystemDelta,
)

#: Standard CAN bit rates (bit/s), fastest first -- the degradation ladder.
STANDARD_BIT_RATES_BPS: tuple[float, ...] = (
    1_000_000.0, 500_000.0, 250_000.0, 125_000.0)


# --------------------------------------------------------------------------- #
# Scenario families
# --------------------------------------------------------------------------- #
def message_remap_sweep_scenario(
    system: SystemModel,
    message_name: str,
    target_buses: Sequence[str] | None = None,
    name: str | None = None,
) -> WhatIfScenario:
    """Try one message on every (other) bus -- "where should this frame go".

    Each step is independent (applied to the base topology); the first step
    is the unchanged baseline.  Messages that are gateway route endpoints
    are legal targets: the routes follow the message.
    """
    home = system.bus_of_message(message_name).name
    message = system.buses[home].kmatrix.get(message_name)
    if target_buses is None:
        target_buses = [bus for bus in sorted(system.buses) if bus != home]
    queries = [ScenarioQuery(label=f"{message_name}@{home} (base)")]
    from repro.can.frame import CanFrameFormat
    max_id = 0x7FF if message.frame_format == CanFrameFormat.STANDARD \
        else 0x1FFFFFFF
    for bus in target_buses:
        if bus == home:
            continue
        # Segments may share identifier ranges; when the message's id is
        # taken on the target bus, assign the highest free one within the
        # frame format's range (lowest priority, so the sweep perturbs
        # the target bus as little as possible).  A bus with no free
        # identifier left is skipped rather than made invalid.
        used = {m.can_id for m in system.buses[bus].kmatrix}
        new_can_id = None
        if message.can_id in used:
            new_can_id = next(
                (can_id for can_id in range(max_id, -1, -1)
                 if can_id not in used), None)
            if new_can_id is None:
                continue
        queries.append(ScenarioQuery(
            label=f"{message_name}@{bus}",
            deltas=(MoveMessageDelta(message_name=message_name,
                                     to_bus=bus, new_can_id=new_can_id),)))
    return WhatIfScenario(
        name=name or f"remap-{message_name}",
        queries=tuple(queries),
        description=f"{message_name} re-mapped across bus segments")


def bus_speed_degradation_scenario(
    system: SystemModel,
    bus_name: str,
    bit_rates_bps: Sequence[float] | None = None,
    name: str | None = None,
) -> WhatIfScenario:
    """Step one segment down the standard CAN bit-rate ladder."""
    if bus_name not in system.buses:
        raise KeyError(bus_name)
    base_rate = system.buses[bus_name].bus.bit_rate_bps
    if bit_rates_bps is None:
        bit_rates_bps = [rate for rate in STANDARD_BIT_RATES_BPS
                         if rate < base_rate]
    queries = [ScenarioQuery(
        label=f"{bus_name}@{base_rate / 1000:g}kbit/s (base)")]
    for rate in bit_rates_bps:
        queries.append(ScenarioQuery(
            label=f"{bus_name}@{rate / 1000:g}kbit/s",
            deltas=(BusSpeedDelta(bus_name=bus_name, bit_rate_bps=rate),)))
    return WhatIfScenario(
        name=name or f"degrade-{bus_name}",
        queries=tuple(queries),
        description=f"{bus_name} bit rate degraded step by step")


def gateway_failover_scenario(
    system: SystemModel,
    gateway_name: str,
    backup_name: str | None = None,
    backup_polling_period: float | None = None,
    name: str | None = None,
) -> WhatIfScenario:
    """Migrate a gateway's routes onto a backup, one route at a time.

    Step 0 is the healthy baseline, step 1 degrades the primary (doubled
    polling period -- the overload precursor), and each following step
    cumulatively moves one more route to the backup gateway until the
    primary forwards nothing.  The backup defaults to ``<name>-backup``
    with twice the primary's polling period (a cold standby is slower).
    """
    gateway = system.gateways.get(gateway_name)
    if gateway is None:
        raise KeyError(gateway_name)
    if not gateway.routes:
        raise ValueError(f"gateway {gateway_name!r} has no routes to fail over")
    backup = backup_name or f"{gateway_name}-backup"
    backup_period = (backup_polling_period
                     if backup_polling_period is not None
                     else 2.0 * gateway.polling_period)
    queries = [
        ScenarioQuery(label=f"{gateway_name} healthy"),
        ScenarioQuery(
            label=f"{gateway_name} degraded",
            deltas=(GatewayConfigDelta(
                gateway_name=gateway_name,
                polling_period=2.0 * gateway.polling_period),)),
    ]
    moved: list[SystemDelta] = []
    for route in gateway.routes:
        moved.append(RemoveGatewayRouteDelta(
            gateway_name=gateway_name,
            destination_message=route.destination_message))
        moved.append(AddGatewayRouteDelta(
            gateway_name=backup, route=route,
            polling_period=backup_period))
        queries.append(ScenarioQuery(
            label=f"failover {route.destination_message} -> {backup}",
            deltas=tuple(moved)))
    return WhatIfScenario(
        name=name or f"failover-{gateway_name}",
        queries=tuple(queries),
        description=(f"routes of {gateway_name} migrated to {backup}"))


def builtin_system_catalog(system: SystemModel) -> ScenarioCatalog:
    """The standard topology families derived from one concrete system.

    Deterministic: the degraded bus is the busiest segment, the re-mapped
    message is the highest-priority message of that segment that is not a
    gateway route endpoint (falling back to the highest-priority one), and
    the failover scenario targets the first gateway in name order.
    Systems without gateways simply get fewer scenarios.
    """
    catalog = ScenarioCatalog()
    if not system.buses:
        return catalog
    busiest = max(sorted(system.buses),
                  key=lambda bus: len(system.buses[bus].kmatrix))
    catalog.register(bus_speed_degradation_scenario(
        system, busiest, name="bus-speed-degradation"))
    ordered = system.buses[busiest].kmatrix.sorted_by_priority()
    # A message to re-map needs a second bus and a message on the busiest.
    if len(system.buses) > 1 and ordered:
        endpoints = {
            route.source_message
            for gateway in system.gateways.values()
            for route in gateway.routes}
        endpoints.update(
            route.destination_message
            for gateway in system.gateways.values()
            for route in gateway.routes)
        movable = [m for m in ordered if m.name not in endpoints] or ordered
        catalog.register(message_remap_sweep_scenario(
            system, movable[0].name, name="message-remap-sweep"))
    for gateway_name in sorted(system.gateways):
        if system.gateways[gateway_name].routes:
            catalog.register(gateway_failover_scenario(
                system, gateway_name, name="gateway-failover"))
            break
    return catalog
