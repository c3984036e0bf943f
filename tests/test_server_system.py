"""Daemon system endpoints: register, system_query, scenarios, paths.

The wire contract under test: a system registered over the JSON protocol
answers ``system_query`` and ``scenario`` requests (and the clients'
``analyze_system`` / ``path_latency`` forms of ``system_query``)
with floats that **bit-match** a local from-scratch
``CompositionalAnalysis`` run on the equivalently edited model (the
protocol round-trips every finite double exactly), the ``register``
response carries the shard-name map so clients never re-derive shard
names, and ``python -m repro.server`` starts and shuts down cleanly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.engine import CompositionalAnalysis
from repro.core.paths import path_latency_all
from repro.server import (
    AnalysisDaemon,
    DaemonError,
    InProcessClient,
    TcpClient,
    protocol,
    start_server,
)
from repro.service.deltas import BusConfiguration, JitterDelta
from repro.service.session import FingerprintKey
from repro.whatif import (
    BusSpeedDelta,
    GatewayConfigDelta,
    SegmentConfigDelta,
    apply_system_deltas,
    builtin_system_catalog,
)
from repro.workloads.multibus import multibus_paths, multibus_system
from repro.workloads.registry import builtin_registry
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _expected_wire_results(system, deltas=()):
    """Worst cases of a from-scratch run, in wire encoding (None = inf)."""
    result = CompositionalAnalysis(
        apply_system_deltas(system, deltas), incremental=False).run()
    return {name: value.worst_case if value.bounded else None
            for name, value in result.message_results.items()}


def _catalog_entries(system):
    """The ``scenarios`` op's listing of a system's topology catalog."""
    catalog = builtin_system_catalog(system)
    return [{"name": name, "queries": len(catalog.get(name).queries),
             "description": catalog.get(name).description}
            for name in catalog.names()]


class TestProtocolSystemCodecs:
    def test_system_roundtrip_preserves_fingerprint(self):
        registry = builtin_registry()
        systems = [multibus_system(n_buses=3, messages_per_bus=8, seed=21)]
        # Each builtin system workload's expansion decodes through the
        # table too.
        systems += [registry.expand(name) for name in registry.names()
                    if registry.get(name).kind == "system"]
        for system in systems:
            encoded = protocol.encode_line(protocol.system_to_json(system))
            decoded = protocol.system_from_json(protocol.decode_line(encoded))
            assert decoded.fingerprint() == system.fingerprint()
            assert decoded.validate() == []

    def test_ecu_system_roundtrip(self):
        from test_core import _two_bus_system

        system = _two_bus_system()
        decoded = protocol.system_from_json(protocol.system_to_json(system))
        assert decoded.fingerprint() == system.fingerprint()

    def test_config_roundtrip(self):
        registry = builtin_registry()
        configs = [BusConfiguration(
            kmatrix=powertrain_kmatrix(PowertrainConfig(n_messages=16)),
            bus=powertrain_bus(PowertrainConfig(n_messages=16)),
            assumed_jitter_fraction=0.15,
            controllers=powertrain_controllers(
                PowertrainConfig(n_messages=16)))]
        # Each builtin bus workload's expansion decodes through the table.
        configs += [registry.expand(name) for name in registry.names()
                    if registry.get(name).kind == "config"]
        for config in configs:
            decoded = protocol.config_from_json(
                protocol.config_to_json(config))
            assert decoded.analysis_key() == config.analysis_key()

    def test_system_delta_roundtrips(self):
        system = multibus_system(n_buses=2, messages_per_bus=6, seed=1)
        route = system.gateways["GW0"].routes[0]
        from repro.whatif import (
            AddGatewayRouteDelta,
            EcuTaskDelta,
            MoveMessageDelta,
            RemoveGatewayRouteDelta,
        )
        deltas = (
            MoveMessageDelta("B1_Msg002_ECU0", "CAN-0", new_can_id=0x300),
            BusSpeedDelta("CAN-1", 125_000.0),
            AddGatewayRouteDelta("GWX", route, polling_period=4.0),
            RemoveGatewayRouteDelta("GW0", route.destination_message),
            GatewayConfigDelta("GW0", polling_period=8.0, copy_time=0.1),
            EcuTaskDelta("ECU1", "T1", wcet=0.5, bcet=0.1),
            SegmentConfigDelta("CAN-0", (JitterDelta(fraction=0.2),)),
        )
        # Every delta of the builtin topology catalog of the 4x30 chain.
        catalog = builtin_system_catalog(
            multibus_system(n_buses=4, messages_per_bus=30, seed=7))
        deltas += tuple(delta for name in catalog.names()
                        for query in catalog.get(name).queries
                        for delta in query.deltas)
        encoded = protocol.system_deltas_to_json(deltas)
        assert protocol.system_deltas_from_json(encoded) == deltas

    def test_unknown_system_delta_tag_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown system"):
            protocol.system_delta_from_json({"sysdelta": "teleport"})

    def test_path_roundtrip(self):
        for system in (multibus_system(n_buses=3, messages_per_bus=6, seed=2),
                       multibus_system(n_buses=4, messages_per_bus=30,
                                       seed=7)):
            paths = multibus_paths(system)
            assert protocol.paths_from_json(
                protocol.paths_to_json(paths)) == paths


class TestSystemEndpointsInProcess:
    @pytest.fixture()
    def served(self):
        daemon = AnalysisDaemon(name="sys-test")
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=23)
        client = InProcessClient(daemon)
        registration = client.register_system("plant", system)
        yield daemon, client, system, registration
        daemon.close()

    def test_register_returns_shard_map_and_scenarios(self, served):
        _, _, _, registration = served
        assert registration["shards"] == {
            "CAN-0": "plant/CAN-0", "CAN-1": "plant/CAN-1",
            "CAN-2": "plant/CAN-2"}
        assert "gateway-failover" in registration["scenarios"]

    def test_reregistration_returns_fresh_shard_map(self, served):
        _, client, _, _ = served
        replacement = multibus_system(n_buses=2, messages_per_bus=6, seed=3)
        registration = client.register_system("plant", replacement)
        assert sorted(registration["shards"].values()) == [
            "plant/CAN-0", "plant/CAN-1"]
        response = client.analyze_system("plant")
        assert set(response["shards"]) == {"CAN-0", "CAN-1"}
        assert response["messages"] == {
            name: protocol.result_to_json(value) for name, value in
            CompositionalAnalysis(replacement, incremental=False)
            .run().message_results.items()}

    def test_reregistration_with_fewer_buses_drops_their_shards(
            self, served):
        _, client, system, _ = served
        client.query("plant/CAN-2")
        replacement = multibus_system(n_buses=2, messages_per_bus=6, seed=3)
        client.register_system("plant", replacement)
        with pytest.raises(DaemonError) as caught:
            client.query("plant/CAN-2")
        assert caught.value.code == "unknown_target"
        assert client.targets()["targets"] == ["plant/CAN-0", "plant/CAN-1"]
        # The re-mapping sweep visits every bus, so the two topologies'
        # catalogs differ.
        listed = client.scenarios()["system_scenarios"]["plant"]
        assert listed == _catalog_entries(replacement)
        assert listed != _catalog_entries(system)

    def test_systems_without_messages_or_buses_are_served(self, served):
        """Valid topologies the fuzzer reaches: buses without messages get
        no re-mapping scenario, and a system without buses runs no
        gateway."""
        _, client, _, _ = served
        empty_buses = {"name": "idle", "buses": [
            {"bus": {"name": name, "bit_rate_bps": 500_000.0}}
            for name in ("CAN-A", "CAN-B")]}
        reply = client.request("register", name="idle", system=empty_buses)
        assert reply["scenarios"] == ["bus-speed-degradation"]
        client.request("register", name="bare", system={
            "name": "bare", "gateways": [{"name": "GW"}]})
        answer = client.system_query("bare")
        assert answer["converged"] and answer["messages"] == {}

    def test_system_query_bit_matches_fresh_run(self, served):
        _, client, system, _ = served
        deltas = (BusSpeedDelta("CAN-1", 250_000.0),)
        response = client.system_query("plant", deltas, label="degrade")
        expected = _expected_wire_results(system, deltas)
        got = {name: entry["worst_case"]
               for name, entry in response["messages"].items()}
        assert got == expected
        assert response["stats"]["invalidated"] == ["CAN-1", "CAN-2"]
        assert response["label"] == "degrade"

    def test_system_query_accepts_shard_map(self, served):
        _, client, _, registration = served
        response = client.system_query(
            "plant", (), shards=registration["shards"])
        assert sorted(response["bus_reports"]) == [
            "plant/CAN-0", "plant/CAN-1", "plant/CAN-2"]
        with pytest.raises(DaemonError, match="unknown buses"):
            client.system_query("plant", (), shards={"CAN-9": "x"})

    def test_system_query_with_paths(self, served):
        _, client, system, _ = served
        paths = multibus_paths(system)
        deltas = (GatewayConfigDelta("GW0", polling_period=7.5),)
        response = client.system_query("plant", deltas, paths=paths)
        edited = apply_system_deltas(system, deltas)
        expected = path_latency_all(
            paths, edited,
            CompositionalAnalysis(edited, incremental=False).run())
        got = {entry["path"]: entry["worst_case"]
               for entry in response["paths"]}
        assert got == {latency.path.name: latency.worst_case
                       for latency in expected}

    def test_path_latency_endpoint(self, served):
        _, client, system, _ = served
        paths = multibus_paths(system)
        deltas = (GatewayConfigDelta("GW0", polling_period=7.5),)
        for step in ((), deltas):
            response = client.path_latency("plant", paths, step)
            edited = apply_system_deltas(system, step)
            expected = path_latency_all(
                paths, edited,
                CompositionalAnalysis(edited, incremental=False).run())
            assert set(response) == {"system", "fingerprint", "paths",
                                     "table"}
            assert response["system"] == "plant"
            assert response["fingerprint"] == FingerprintKey(
                edited.fingerprint()).digest
            assert response["paths"] == [
                protocol.path_latency_to_json(latency)
                for latency in expected]
            assert "end-to-end path latency" in response["table"]
        with pytest.raises(ValueError, match="needs paths"):
            client.path_latency("plant", ())

    def test_path_latency_table_reads_unbounded_for_null(self, served,
                                                         monkeypatch):
        _, client, system, _ = served
        paths = multibus_paths(system)[:1]
        response = client.system_query("plant", paths=paths)
        response["paths"][0].update(worst_case=None, jitter=None)
        monkeypatch.setattr(client, "system_query",
                            lambda *args, **kwargs: response)
        table = client.path_latency("plant", paths)["table"]
        assert table.count("unbounded") == 2

    def test_system_scenario_endpoint(self, served):
        _, client, system, _ = served
        response = client.system_scenario("plant", "bus-speed-degradation")
        assert response["system"] == "plant"
        assert response["scenario"] == "bus-speed-degradation"
        assert len(response["queries"]) >= 2
        assert "converged" in response["table"]
        steps = builtin_system_catalog(system).get(
            "bus-speed-degradation").queries
        assert [query["label"] for query in response["queries"]] == [
            step.label for step in steps]
        for query, step in zip(response["queries"], steps):
            assert query["messages"] == {
                name: protocol.result_to_json(value) for name, value in
                CompositionalAnalysis(
                    apply_system_deltas(system, step.deltas),
                    incremental=False).run().message_results.items()}
        with pytest.raises(DaemonError, match="unknown scenario"):
            client.system_scenario("plant", "no-such-scenario")

    def test_analyze_system_fields_match_fresh_run(self, served):
        _, client, system, registration = served
        shards = registration["shards"]
        expected = CompositionalAnalysis(system, incremental=False).run()
        response = client.analyze_system("plant", shards=shards)
        assert response == {
            "system": "plant",
            "shards": shards,
            "fingerprint": FingerprintKey(system.fingerprint()).digest,
            "converged": expected.converged,
            "iterations": expected.iterations,
            "all_deadlines_met": expected.all_deadlines_met,
            "messages": {name: protocol.result_to_json(value)
                         for name, value in
                         expected.message_results.items()},
            "bus_reports": {shards[bus]: protocol.report_to_json(report)
                            for bus, report in
                            expected.bus_reports.items()},
        }

    def test_repeated_system_queries_hit_the_cache(self, served):
        _, client, _, _ = served
        deltas = (BusSpeedDelta("CAN-2", 125_000.0),)
        first = client.system_query("plant", deltas)
        second = client.system_query("plant", deltas)
        assert not first["stats"]["cache_hit"]
        assert second["stats"]["cache_hit"]
        assert first["messages"] == second["messages"]

    def test_analyze_system_detects_inplace_gateway_edit(self, served):
        """The satellite-fix contract at the wire level: an in-place route
        edit of a *registered* system (object identity unchanged) must
        invalidate the daemon's memoized system results by fingerprint."""
        daemon, client, _, _ = served
        before = client.analyze_system("plant")
        # ``register`` decoded a server-side copy; edit *that* model in
        # place, exactly as server-side code holding the registered object
        # would (object identity unchanged, fingerprint changed).
        registered = daemon.pool.system("plant").base_system
        registered.gateways["GW0"].polling_period = 12.0
        after = client.analyze_system("plant")
        expected = _expected_wire_results(registered)
        got = {name: entry["worst_case"]
               for name, entry in after["messages"].items()}
        assert got == expected
        assert after["fingerprint"] != before["fingerprint"]

    def test_register_config_over_the_wire(self, served):
        _, client, _, _ = served
        config = BusConfiguration(
            kmatrix=powertrain_kmatrix(PowertrainConfig(n_messages=16)),
            bus=powertrain_bus(PowertrainConfig(n_messages=16)),
            assumed_jitter_fraction=0.15)
        registration = client.register_config("pt16", config)
        assert registration == {"target": "pt16"}
        response = client.query("pt16", (JitterDelta(fraction=0.3),))
        from repro.service.session import AnalysisSession
        session = AnalysisSession.from_config(config)
        local = session.query((JitterDelta(fraction=0.3),))
        assert {name: entry["worst_case"]
                for name, entry in response["results"].items()} == {
            name: value.worst_case if value.bounded else None
            for name, value in local.results.items()}

    def test_register_without_payload_is_an_error(self, served):
        _, client, _, _ = served
        with pytest.raises(DaemonError, match="register needs"):
            client.request("register", name="x")


class TestScenarioOpErrors:
    """``scenario`` takes exactly one of ``target`` or ``system``: every
    malformed form gets one typed error and the connection stays usable."""

    CONFIG = BusConfiguration(
        kmatrix=powertrain_kmatrix(PowertrainConfig(n_messages=16)),
        bus=powertrain_bus(PowertrainConfig(n_messages=16)),
        assumed_jitter_fraction=0.15)

    @pytest.mark.parametrize("params, code", [
        ({"target": "pt16", "system": "plant",
          "scenario": "paper-jitter-sweep"}, "protocol"),
        ({"scenario": "paper-jitter-sweep"}, "protocol"),
        ({"target": "nope", "scenario": "paper-jitter-sweep"},
         "unknown_target"),
        ({"system": "nope", "scenario": "gateway-failover"},
         "unknown_target"),
        ({"target": "pt16", "scenario": "no-such-scenario"}, "invalid"),
        ({"system": "plant", "scenario": "no-such-scenario"}, "invalid"),
    ])
    def test_one_typed_error_then_a_clean_query(self, params, code):
        daemon = AnalysisDaemon(name="scenario-errors")
        daemon.add_config("pt16", self.CONFIG)
        daemon.add_system("plant", multibus_system(
            n_buses=2, messages_per_bus=6, seed=4))
        server = start_server(daemon, port=0)
        try:
            with TcpClient(*server.address) as client:
                errors = daemon.metrics.family("daemon_errors_total", "code")
                with pytest.raises(DaemonError) as caught:
                    client.request("scenario", **params)
                assert caught.value.code == code
                after = daemon.metrics.family("daemon_errors_total", "code")
                assert sum(after.values()) == sum(errors.values()) + 1
                # The client checks every response id: a second response
                # to the failed request would fail this query.
                clean = client.query("pt16", with_report=False)
                assert clean["results"] == {
                    name: protocol.result_to_json(value) for name, value in
                    self.CONFIG.build_analysis().analyze_all().items()}
        finally:
            server.stop()
            daemon.close()


class TestSystemEndpointsOverTcp:
    def test_full_system_workflow_over_a_socket(self):
        daemon = AnalysisDaemon(name="tcp-sys")
        system = multibus_system(n_buses=3, messages_per_bus=6, seed=29)
        server = start_server(daemon, port=0)
        try:
            host, port = server.address
            with TcpClient(host, port) as client:
                registration = client.register_system("plant", system)
                assert registration["shards"]["CAN-0"] == "plant/CAN-0"
                deltas = (BusSpeedDelta("CAN-1", 250_000.0),)
                response = client.system_query(
                    "plant", deltas, paths=multibus_paths(system))
                expected = _expected_wire_results(system, deltas)
                got = {name: entry["worst_case"]
                       for name, entry in response["messages"].items()}
                assert got == expected
                health = client.health()
                assert health["protocol"] == protocol.PROTOCOL_VERSION
                assert "plant" in health["systems"]
        finally:
            server.stop()


class TestServerCliSmoke:
    def test_module_starts_serves_and_shuts_down(self):
        """``python -m repro.server`` must come up, answer, and exit 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--messages", "16", "--buses", "2", "--messages-per-bus", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            banner: list[str] = []

            def read_banner():
                banner.append(process.stdout.readline())

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=60.0)
            assert banner and "serving on" in banner[0], banner
            address = banner[0].split("serving on ", 1)[1].split()[0]
            host, port_text = address.rsplit(":", 1)
            with TcpClient(host, int(port_text)) as client:
                assert client.ping()["pong"] is True
                health = client.health()
                assert "powertrain" in health["targets"]
                assert "multibus" in health["systems"]
                client.shutdown_daemon()
            stdout, stderr = process.communicate(timeout=30.0)
            assert process.returncode == 0, stderr
            assert "requests served" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
