#!/usr/bin/env python3
"""The analysis daemon as multi-user infrastructure.

What a deployment of the daemon looks like, end to end:

1. build an :class:`AnalysisDaemon` serving the power-train case study and
   a 4-bus gateway-chain system (sharded into one session per segment);
2. serve it over TCP (ephemeral port) and connect a
   :class:`TcpClient` -- every request below crosses a real socket as
   line-delimited JSON;
3. health-check it, run the paper's jitter-sweep scenario from the
   catalog, issue an ad-hoc priority-swap what-if, and send a batch of
   error-rate queries as one request;
4. request the compositional fixed point of the multibus system twice --
   the second run is served from the warm per-segment session caches
   (watch the ``hits`` column) -- then run one of its topology scenarios
   through the same ``scenario`` op, naming the system instead of a
   target;
5. run a traced query (``trace=True``) and print the five-stage span
   tree the daemon returns inline, then pull the slowest retained trace
   back out of the daemon's trace ring via the ``traces`` op;
6. print the daemon's metrics snapshot (the ``metrics`` op -- cache
   hit/miss traffic, warm/cold plan splits, solver iteration
   histograms) and its session-statistics table, then shut it down from
   the client side;
7. demonstrate persistence: boot a daemon onto a ``ResultStore``
   directory, register a *named* workload (the daemon expands
   ``("multibus_chain", {...})`` server-side), analyze it, then
   hard-kill the daemon through a :class:`ServerHarness` and restart
   it on the same port -- the reborn daemon answers the same system
   analysis from the store (watch ``store_lookups_total{result=hit}``)
   bit-identically, without re-running the fixed point.

Run with:  python examples/analysis_daemon.py
"""

from __future__ import annotations

import tempfile

from repro import (
    AnalysisDaemon,
    BusConfiguration,
    ErrorModelDelta,
    JitterDelta,
    PriorityDelta,
    ResultStore,
    RetryPolicy,
    SporadicErrorModel,
    TcpClient,
    start_server,
)
from repro.reporting import format_trace
from repro.server.harness import ServerHarness
from repro.workloads.multibus import multibus_system
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)


def build_daemon() -> AnalysisDaemon:
    # max_inflight bounds concurrent work (beyond it clients get typed
    # 'overloaded' errors with a retry hint and back off); grace is the
    # drain window of a shutdown.
    daemon = AnalysisDaemon(name="example-daemon", max_inflight=8,
                            grace=5.0)
    config = PowertrainConfig(n_messages=50)
    daemon.add_config("powertrain", BusConfiguration(
        kmatrix=powertrain_kmatrix(config),
        bus=powertrain_bus(config),
        assumed_jitter_fraction=0.15,
        controllers=powertrain_controllers(config)))
    shards = daemon.add_system(
        "multibus", multibus_system(n_buses=4, messages_per_bus=10))
    print("registered system 'multibus' with shards: "
          + ", ".join(shards.values()))
    return daemon


def main() -> None:
    daemon = build_daemon()
    server = start_server(daemon, port=0)
    host, port = server.address
    print(f"daemon serving on {host}:{port}\n")

    # The client retries idempotent requests through overload and dropped
    # connections with exponential backoff + jitter, and verifies every
    # response echoes its request id.
    with TcpClient(host, port, retry=RetryPolicy(attempts=4)) as client:
        health = client.health()
        print(f"health: {health['status']}, protocol v{health['protocol']}, "
              f"{health['sessions']} sessions, "
              f"{len(health['scenarios'])} catalog scenarios; "
              f"{health['inflight']} in flight / "
              f"max {health['max_inflight']}")

        # A deadline bounds the daemon-side analysis: a divergent or
        # oversized query answers a typed 'timeout' error instead of
        # spinning to the iteration cap.  This one is generous, so the
        # result is bit-identical to the unbounded query.
        bounded = client.query("powertrain", deadline_ms=60_000,
                               label="bounded")
        print(f"deadline-bounded query answered "
              f"{len(bounded['results'])} messages")

        # A named catalog scenario, exactly as a dashboard would run it.
        sweep = client.run_scenario("powertrain", "paper-jitter-sweep")
        print()
        print(sweep["table"])

        # An ad-hoc what-if: trade the identifiers of two messages.
        kmatrix_names = sorted(sweep["queries"][0]["results"])
        first, second = kmatrix_names[0], kmatrix_names[1]
        swap = client.query(
            "powertrain", (PriorityDelta(swap=(first, second)),),
            label=f"swap {first}<->{second}")
        print(f"\n{swap['label']}: "
              f"{swap['stats']['reused']} reused, "
              f"{swap['stats']['warm_started']} warm, "
              f"{swap['stats']['cold']} cold "
              f"(fingerprint {swap['fingerprint']})")

        # A batch: several what-ifs in one request, answered in order.
        batch = client.batch("powertrain", [
            {"deltas": (ErrorModelDelta(SporadicErrorModel(
                min_interarrival=interarrival)),
                JitterDelta(fraction=0.25)),
             "label": f"errors>={interarrival:g}ms"}
            for interarrival in (500.0, 100.0, 20.0)])
        print("\nbatch verdicts:")
        for entry in batch["results"]:
            report = entry["report"]
            print(f"  {entry['label']}: loss {report['loss_fraction']:.1%}, "
                  f"utilization {report['utilization']:.1%}")

        # System-level fixed point on the sharded sessions -- twice.
        for attempt in ("cold", "warm"):
            outcome = client.analyze_system("multibus")
            print(f"\nmultibus fixed point ({attempt}): "
                  f"converged={outcome['converged']} "
                  f"after {outcome['iterations']} iterations, "
                  f"deadlines met: {outcome['all_deadlines_met']}")
        degradation = client.system_scenario("multibus",
                                             "bus-speed-degradation")
        print()
        print(degradation["table"])

        # A traced query: the response carries the span tree inline --
        # decode, admission, session_plan, solve, encode --
        # and the daemon retains the slowest traces in a ring for later
        # inspection (the `traces` op, `--trace-ring` sizes it).
        traced = client.query(
            "powertrain", (JitterDelta(fraction=0.3),),
            label="traced", trace=True)
        print()
        print(format_trace(traced["trace"], title="inline trace"))

        slowest = client.traces(limit=1)["traces"]
        if slowest:
            print()
            print(format_trace(slowest[0], title="slowest retained trace"))

        # The metrics snapshot: one registry wired through the daemon,
        # session pool and sessions.  `format="prometheus"`
        # would add the text exposition format for a scrape endpoint.
        metrics = client.metrics()
        print()
        print(metrics["table"])

        stats = client.stats()
        print()
        print(stats["table"])
        print(f"\nrequests served: {stats['requests_served']} "
              f"({stats['errors']} errors, {stats['timeouts']} timeouts, "
              f"{stats['rejected_overload']} rejected as overloaded)")

        client.shutdown_daemon()
    server.stop()
    print("\ndaemon stopped.")

    warm_restart_demo()


def warm_restart_demo() -> None:
    """Kill a store-backed daemon mid-flight and warm-boot its successor."""
    print("\n--- persistence: warm restart from the result store ---")
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:

        def factory() -> AnalysisDaemon:
            # Each generation opens its own handle on the shared store
            # directory -- exactly what `--store-dir` does for the CLI.
            daemon = AnalysisDaemon(name="persistent-daemon",
                                    store=ResultStore(store_dir))
            return daemon

        with ServerHarness(factory) as harness:
            host, port = harness.address
            with TcpClient(host, port) as client:
                # A *named* workload: the client ships generator name +
                # parameters; the daemon expands it server-side and
                # dedupes by fingerprint, so every client registering
                # these parameters shares one session and store entries.
                registered = client.register_workload(
                    "fleet", "multibus_chain",
                    {"n_buses": 4, "messages_per_bus": 10, "seed": 3})
                print("registered workload 'fleet' -> shards: "
                      + ", ".join(registered["shards"]))
                first = client.analyze_system("fleet")
                print(f"generation 1 solved the fixed point: "
                      f"{first['iterations']} iterations, "
                      f"{len(first['messages'])} messages")

            harness.restart()  # hard kill, no drain -- then reboot
            print("daemon killed and restarted on the same port")

            with TcpClient(host, port) as client:
                client.register_workload(
                    "fleet", "multibus_chain",
                    {"n_buses": 4, "messages_per_bus": 10, "seed": 3})
                second = client.analyze_system("fleet")
                stats = client.store_stats()["stats"]
                print(f"generation 2 answered from the store: "
                      f"bit-identical={second['messages'] == first['messages']}"
                      f", store hits {stats['hits']}, "
                      f"{stats['entries']} entries on disk")
                client.shutdown_daemon()
    print("persistent daemon stopped.")


if __name__ == "__main__":
    main()
