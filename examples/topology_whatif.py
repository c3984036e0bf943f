#!/usr/bin/env python
"""Topology what-if: a gateway-failover scenario end to end.

The system-level question this walks through is the paper's headline use
case: an OEM integrates a multi-bus network, a gateway is suspected to be
a single point of failure, and the architecture team wants to know --
*before* building anything -- what happens to end-to-end latencies when
its routes migrate to a (slower) backup gateway.

Part 1 answers it locally with a :class:`repro.whatif.SystemSession`:
typed topology deltas, incremental re-analysis, per-step path latencies.
Part 2 asks the *same* questions through the analysis daemon over TCP --
``register`` (which returns the shard-name map), ``system_query`` (also
behind the client's ``path_latency``) and ``scenario`` -- the way a
design-exploration dashboard would.

Run with::

    PYTHONPATH=src python examples/topology_whatif.py
"""

from repro.reporting.tables import format_path_latency_table, format_table
from repro.server import AnalysisDaemon, TcpClient, start_server
from repro.whatif import (
    AddGatewayRouteDelta,
    BusSpeedDelta,
    GatewayConfigDelta,
    RemoveGatewayRouteDelta,
    SystemSession,
    gateway_failover_scenario,
)
from repro.workloads.multibus import multibus_paths, multibus_system


def build_system():
    """A 4-bus gateway chain -- the integration view of Figure 3."""
    return multibus_system(n_buses=4, messages_per_bus=12, seed=42)


def local_walkthrough() -> None:
    print("=" * 72)
    print("Part 1: local SystemSession")
    print("=" * 72)

    system = build_system()
    session = SystemSession(system)
    paths = multibus_paths(system)

    baseline = session.analyze()
    print(f"\nbaseline: {baseline.describe()}")
    print(format_path_latency_table(
        session.path_latency(paths), title="baseline path latencies"))

    # One-off questions: typed deltas, each bit-identical to a
    # from-scratch engine run on the edited topology.
    degraded = session.query(
        GatewayConfigDelta("GW1", polling_period=10.0),
        label="GW1 polling x4")
    print(f"\n{degraded.describe()}")

    slow_bus = session.query(
        BusSpeedDelta("CAN-2", 250_000.0), label="CAN-2 at 250 kbit/s")
    print(slow_bus.describe())

    # Manual failover: move GW1's first route to a cold standby.
    route = system.gateways["GW1"].routes[0]
    failover = (
        RemoveGatewayRouteDelta("GW1", route.destination_message),
        AddGatewayRouteDelta("GW1-standby", route, polling_period=5.0),
    )
    print(format_path_latency_table(
        session.path_latency(paths[:2], failover),
        title="first route on the standby gateway"))

    # The registered scenario family runs the whole migration; every
    # step's result carries its own fixed point, so the tracked paths'
    # worst cases come from the steps without another query.
    run = gateway_failover_scenario(system, "GW1").run(session)
    print("\n" + run.to_table())
    print(format_table(
        ["step"] + [f"{path.name} [ms]" for path in paths[:2]],
        [[step.label] + [step.path_latency(path).worst_case
                         for path in paths[:2]]
         for step in run.queries],
        title="tracked path worst cases per failover step"))
    print(f"\n{session.describe()}")


def daemon_walkthrough() -> None:
    print("\n" + "=" * 72)
    print("Part 2: the same exploration through the daemon (TCP)")
    print("=" * 72)

    daemon = AnalysisDaemon(name="topology-daemon")
    server = start_server(daemon, port=0)
    host, port = server.address
    system = build_system()
    paths = multibus_paths(system)

    try:
        with TcpClient(host, port) as client:
            # Registration over the wire returns the shard map, so the
            # client can address per-segment sessions without re-deriving
            # "<system>/<bus>" strings.
            registration = client.register_system("plant", system)
            print(f"\nregistered shards: {registration['shards']}")
            print(f"topology scenarios: {registration['scenarios']}")

            response = client.system_query(
                "plant",
                (GatewayConfigDelta("GW1", polling_period=10.0),),
                paths=paths[:2],
                shards=registration["shards"],
                label="GW1 degraded")
            print(f"\nsystem_query '{response['label']}': "
                  f"converged={response['converged']}, "
                  f"invalidated={response['stats']['invalidated']}")
            for entry in response["paths"]:
                print(f"  path {entry['path']}: "
                      f"worst {entry['worst_case']:.3f} ms")

            scenario = client.system_scenario("plant", "gateway-failover")
            print("\n" + scenario["table"])

            latencies = client.path_latency("plant", paths[:3])
            print("\n" + latencies["table"])
    finally:
        server.stop()


def main() -> None:
    local_walkthrough()
    daemon_walkthrough()


if __name__ == "__main__":
    main()
