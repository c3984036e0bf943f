#!/usr/bin/env python3
"""Compositional analysis of a two-bus system with a gateway and ECU models.

Shows the full SymTA/S-style loop (Section 5.2): detailed ECU task models
produce message send jitters, the bus analyses consume them, the gateway
propagates arrival timing onto the second bus, and the global fixed point
yields end-to-end latencies along a sensor-to-actuator path -- plus a
comparison of the same message set on a FlexRay static segment, and a
cached what-if session per bus: the same scenario from the catalog swept
over every segment of the system (and over a larger generated multi-bus
chain), one session per segment.

Run with:  python examples/multibus_gateway_system.py
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.core.engine import CompositionalAnalysis
from repro.core.paths import EndToEndPath, path_latency
from repro.core.system import BusSegment, SystemModel
from repro.ecu.task import EcuModel, OsekOverheads, Task, TaskKind
from repro.errors.models import SporadicErrorModel
from repro.events.model import PeriodicEventModel
from repro.flexray.analysis import compare_with_can
from repro.gateway.model import ForwardingPolicy, GatewayModel, GatewayRoute
from repro.reporting.tables import format_table
from repro.service import AnalysisSession, JitterDelta, jitter_sweep_scenario
from repro.workloads.multibus import multibus_system


def build_system() -> SystemModel:
    chassis = KMatrix(messages=[
        CanMessage(name="WheelSpeeds", can_id=0x90, dlc=8, period=10.0,
                   sender="BrakeECU", receivers=("Gateway",)),
        CanMessage(name="YawRate", can_id=0xA0, dlc=6, period=10.0,
                   sender="BrakeECU", receivers=("Gateway",)),
        CanMessage(name="SteeringAngle", can_id=0xB0, dlc=4, period=20.0,
                   sender="SteeringECU", receivers=("Gateway", "BrakeECU")),
    ])
    powertrain = KMatrix(messages=[
        CanMessage(name="PT_WheelSpeeds", can_id=0x98, dlc=8, period=10.0,
                   sender="Gateway", receivers=("EngineECU",)),
        CanMessage(name="EngineTorque", can_id=0x88, dlc=8, period=10.0,
                   sender="EngineECU", receivers=("Gateway",)),
        CanMessage(name="GearState", can_id=0x120, dlc=3, period=50.0,
                   sender="TransmissionECU", receivers=("EngineECU",)),
    ])
    system = SystemModel(name="chassis+powertrain")
    system.add_bus(BusSegment(
        bus=CanBus(name="Chassis-CAN", bit_rate_bps=500_000.0),
        kmatrix=chassis,
        error_model=SporadicErrorModel(min_interarrival=200.0),
        assumed_jitter_fraction=0.1))
    system.add_bus(BusSegment(
        bus=CanBus(name="Powertrain-CAN", bit_rate_bps=500_000.0),
        kmatrix=powertrain,
        error_model=SporadicErrorModel(min_interarrival=200.0),
        assumed_jitter_fraction=0.1))
    system.add_gateway(GatewayModel(
        name="Gateway", policy=ForwardingPolicy.PERIODIC_POLLING,
        polling_period=2.5, copy_time=0.05,
        routes=[GatewayRoute(source_message="WheelSpeeds",
                             destination_message="PT_WheelSpeeds",
                             source_bus="Chassis-CAN",
                             destination_bus="Powertrain-CAN")]))
    system.add_ecu(EcuModel(
        name="EngineECU", overheads=OsekOverheads(),
        tasks=[
            Task(name="InjectionISR", priority=1, wcet=0.3, bcet=0.1,
                 kind=TaskKind.INTERRUPT,
                 activation=PeriodicEventModel(period=2.0)),
            Task(name="TorqueControl", priority=4, wcet=1.8, bcet=0.9,
                 activation=PeriodicEventModel(period=10.0),
                 sends_messages=("EngineTorque",)),
            Task(name="Housekeeping", priority=12, wcet=3.0, bcet=1.0,
                 kind=TaskKind.COOPERATIVE,
                 activation=PeriodicEventModel(period=100.0)),
        ]))
    return system


def main() -> None:
    system = build_system()
    print(system.describe())

    result = CompositionalAnalysis(system).run()
    print()
    print(result.describe())

    rows = []
    for name, message_result in sorted(result.message_results.items()):
        rows.append([name, message_result.best_case, message_result.worst_case,
                     result.send_jitter(name), result.arrival_jitter(name)])
    print()
    print(format_table(
        ["message", "best [ms]", "worst [ms]", "send J [ms]", "arrival J [ms]"],
        rows, title="Fixed-point message timing"))

    path = EndToEndPath(name="wheel-speed-to-engine", segments=(
        ("message", "WheelSpeeds"),
        ("gateway", "Gateway:PT_WheelSpeeds"),
        ("message", "PT_WheelSpeeds"),
        ("task", "EngineECU.TorqueControl"),
        ("message", "EngineTorque"),
    ))
    latency = path_latency(path, system, result)
    print()
    print(latency.describe())
    for segment, worst in latency.per_segment:
        print(f"    {segment:<38} {worst:8.3f} ms")

    # Time-triggered alternative for the power-train messages.
    powertrain = system.buses["Powertrain-CAN"].kmatrix
    rows = compare_with_can(powertrain,
                            system.buses["Powertrain-CAN"].bus,
                            assumed_jitter_fraction=0.1)
    print()
    print(format_table(["message", "CAN worst [ms]", "FlexRay worst [ms]"],
                       rows,
                       title="Event-triggered vs. time-triggered comparison"))

    # ---------------------------------------------------------------- #
    # Cached what-if queries per bus: one session per segment, the same
    # catalog scenario run on each of them in bus order.
    # ---------------------------------------------------------------- #
    session = AnalysisSession.from_system(system, "Powertrain-CAN")
    session.analyze()
    whatif = session.query(
        (JitterDelta(message_name="PT_WheelSpeeds", jitter=1.5),),
        label="gateway forwarding jitter grows to 1.5 ms")
    print()
    print("What-if on the powertrain segment:")
    print("  " + whatif.describe())
    print("  " + session.describe())

    sweep = jitter_sweep_scenario(fractions=(0.0, 0.1, 0.2, 0.3))
    results = [sweep.run(AnalysisSession.from_system(system, bus, name=bus))
               for bus in system.buses]
    for run in results:
        print()
        print(run.to_table())

    # The same sweep over a generated many-bus chain.
    chain = multibus_system(n_buses=4, messages_per_bus=12, seed=3)
    results = [sweep.run(AnalysisSession.from_system(chain, bus, name=bus))
               for bus in chain.buses]
    print()
    print(f"{chain.name}: swept {len(results)} buses, "
          f"{sum(len(r.queries) for r in results)} what-if queries, "
          "loss at 30 % jitter per bus: "
          + ", ".join(f"{r.session}={r.queries[-1].report.loss_fraction:.0%}"
                      for r in results))


if __name__ == "__main__":
    main()
