"""Tests of the analysis daemon: protocol, pool, clients, TCP.

The core exactness property throughout: every response-time float a client
reads from the daemon -- through the JSON protocol, possibly over a real
socket, possibly interleaved with other clients' mutating queries -- must
**bit-match** a from-scratch ``CanBusAnalysis.analyze_all`` of the mutated
configuration.  JSON round-trips finite doubles exactly (``repr`` codec),
so ``==`` is the right comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import socket
import threading

import pytest

import repro.server.client as client_module
import repro.server.pool as pool_module
import repro.server.protocol as protocol

from repro.can.message import CanMessage
from repro.errors.models import (
    BurstErrorModel,
    CompositeErrorModel,
    NoErrors,
    SporadicErrorModel,
)
from repro.events.model import (
    PeriodicEventModel,
    PeriodicWithBurst,
    PeriodicWithJitter,
    SporadicEventModel,
)
from repro.server import (
    AnalysisDaemon,
    DaemonError,
    InProcessClient,
    ProtocolError,
    SessionPool,
    TcpClient,
    UnknownTargetError,
    start_server,
)
from repro.server.protocol import (
    decode_line,
    delta_from_json,
    delta_to_json,
    encode_line,
    error_model_from_json,
    error_model_to_json,
    event_model_from_json,
    event_model_to_json,
)
from repro.service.catalog import builtin_catalog
from repro.service.deltas import (
    AddMessageDelta,
    BusConfiguration,
    BusDelta,
    DeadlinePolicyDelta,
    ErrorModelDelta,
    EventModelDelta,
    JitterDelta,
    PriorityDelta,
    RemoveMessageDelta,
    apply_deltas,
)
from repro.workloads.multibus import multibus_system
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)


def _powertrain_config(n_messages: int = 30) -> BusConfiguration:
    config = PowertrainConfig(n_messages=n_messages)
    return BusConfiguration(
        kmatrix=powertrain_kmatrix(config),
        bus=powertrain_bus(config),
        assumed_jitter_fraction=0.15,
        controllers=powertrain_controllers(config))


def _reference_worst_cases(config: BusConfiguration, deltas=()) -> dict:
    """From-scratch analyze_all of the delta'd configuration."""
    mutated = apply_deltas(config, deltas)
    analysis = mutated.build_analysis()
    return {name: result.worst_case if result.bounded else None
            for name, result in analysis.analyze_all().items()}


@pytest.fixture(scope="module")
def daemon() -> AnalysisDaemon:
    d = AnalysisDaemon(name="test-daemon")
    d.add_config("powertrain", _powertrain_config())
    d.add_system("multibus", multibus_system(
        n_buses=3, messages_per_bus=8, seed=5))
    yield d
    d.close()


@pytest.fixture(scope="module")
def client(daemon) -> InProcessClient:
    return InProcessClient(daemon)


# --------------------------------------------------------------------------- #
# Protocol codec
# --------------------------------------------------------------------------- #
class TestProtocolRoundtrips:
    EVENT_MODELS = [
        PeriodicEventModel(period=10.0),
        PeriodicWithJitter(period=10.0, jitter=2.5),
        PeriodicWithBurst(period=10.0, jitter=15.0, min_distance=0.5),
        SporadicEventModel(period=7.5, jitter=1.25),
    ]

    ERROR_MODELS = [
        NoErrors(),
        SporadicErrorModel(min_interarrival=31.25),
        BurstErrorModel(min_interarrival=50.0, burst_length=3,
                        intra_burst_gap=1.5),
        CompositeErrorModel(components=(
            SporadicErrorModel(min_interarrival=100.0),
            BurstErrorModel(min_interarrival=500.0, burst_length=2,
                            intra_burst_gap=0.25))),
    ]

    def test_event_models_roundtrip(self):
        for model in self.EVENT_MODELS:
            data = decode_line(encode_line(event_model_to_json(model)))
            assert event_model_from_json(data) == model
            assert type(event_model_from_json(data)) is type(model)

    def test_error_models_roundtrip(self):
        for model in self.ERROR_MODELS:
            data = decode_line(encode_line(error_model_to_json(model)))
            assert error_model_from_json(data) == model

    def test_deltas_roundtrip(self):
        deltas = [
            JitterDelta(fraction=0.35),
            JitterDelta(message_name="M1", jitter=0.625),
            JitterDelta(message_name="M1", fraction=0.1),
            ErrorModelDelta(SporadicErrorModel(min_interarrival=12.5)),
            PriorityDelta(swap=("A", "B")),
            PriorityDelta(order=("C", "A", "B")),
            PriorityDelta.from_mapping({"A": 0x10, "B": 0x20}),
            EventModelDelta.from_mapping(
                {"A": PeriodicWithJitter(period=5.0, jitter=1.0)},
                replace_all=True),
            AddMessageDelta(CanMessage(
                name="New", can_id=0x77, dlc=4, period=12.5,
                sender="ECU_X", receivers=("ECU_Y",), jitter=0.5)),
            RemoveMessageDelta("Old"),
            BusDelta(bit_rate_bps=250_000.0, bit_stuffing=False),
            DeadlinePolicyDelta("min-rearrival"),
        ]
        # Every delta of the builtin catalog decodes through the table too.
        catalog = builtin_catalog()
        deltas += [delta for name in catalog.names()
                   for query in catalog.get(name).queries
                   for delta in query.deltas]
        for delta in deltas:
            data = decode_line(encode_line(delta_to_json(delta)))
            assert delta_from_json(data) == delta

    def test_unknown_tags_raise(self):
        with pytest.raises(ProtocolError):
            delta_from_json({"delta": "quantum"})
        with pytest.raises(ProtocolError):
            event_model_from_json({"model": "chaotic", "period": 1.0})
        with pytest.raises(ProtocolError):
            error_model_from_json({"errors": "gremlins"})

    def test_malformed_lines_raise(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            decode_line(b"\n")
        # Invalid UTF-8 and integer literals past the interpreter's digit
        # limit fail inside the decoder, not as JSON syntax errors.
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe\n")
        with pytest.raises(ProtocolError):
            decode_line(b'{"deadline_ms": ' + b"9" * 5000 + b"}\n")


# --------------------------------------------------------------------------- #
# Session pool
# --------------------------------------------------------------------------- #
class TestSessionPool:
    def test_identical_configs_share_a_session(self):
        pool = SessionPool()
        first = pool.add_config("alpha", _powertrain_config(20))
        second = pool.add_config("beta", _powertrain_config(20))
        assert first is second
        assert len(pool) == 1
        assert pool.get("alpha") is pool.get("beta")

    def test_deadline_policy_separates_sessions(self):
        pool = SessionPool()
        base = _powertrain_config(20)
        strict = BusConfiguration(
            kmatrix=base.kmatrix, bus=base.bus,
            error_model=base.error_model,
            assumed_jitter_fraction=base.assumed_jitter_fraction,
            controllers=base.controllers,
            deadline_policy="min-rearrival")
        assert pool.add_config("a", base) is not pool.add_config("b", strict)

    def test_unknown_target_raises_with_inventory(self):
        pool = SessionPool()
        pool.add_config("only", _powertrain_config(20))
        with pytest.raises(UnknownTargetError) as error:
            pool.get("missing")
        assert "only" in str(error.value)

    def test_lru_eviction_of_unpinned_sessions(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_MAX_SESSIONS", 2)
        pool = SessionPool()
        for index, size in enumerate((16, 20, 24)):
            pool.add_config(f"t{index}", _powertrain_config(size))
        # Every session is named by a target, so none is evictable yet.
        assert len(pool) == 3
        assert pool.evicted_sessions == 0
        # Re-registering t0, then t1, orphans their first sessions; the
        # bound reclaims the oldest orphan (t0's) and keeps t1's.
        for index in (0, 1):
            pool.add_config(f"t{index}", _powertrain_config(24))
        assert len(pool) == 2
        assert pool.evicted_sessions == 1
        assert [stats.name for stats in pool.stats()] == ["t1", "t2"]
        assert "t2" in pool

    def test_system_sharding(self):
        pool = SessionPool()
        system = multibus_system(n_buses=3, messages_per_bus=6, seed=2)
        shards = pool.add_system("chain", system)
        assert shards == {"CAN-0": "chain/CAN-0", "CAN-1": "chain/CAN-1",
                          "CAN-2": "chain/CAN-2"}
        assert pool.shard_map("chain") == shards
        session = pool.system("chain")
        assert session.base_system is system
        # The system session queries the pool's shards, not copies.
        sessions = session._sessions
        assert sorted(sessions) == ["CAN-0", "CAN-1", "CAN-2"]
        assert sessions["CAN-1"] is pool.get("chain/CAN-1")

    def test_system_name_containing_slash(self):
        pool = SessionPool()
        system = multibus_system(n_buses=2, messages_per_bus=6, seed=2)
        pool.add_system("plant/line1", system)
        assert pool.shard_map("plant/line1") == {
            "CAN-0": "plant/line1/CAN-0", "CAN-1": "plant/line1/CAN-1"}
        assert sorted(pool.system("plant/line1")._sessions) == [
            "CAN-0", "CAN-1"]

    def test_reregistered_system_drops_the_shards_it_lost(self):
        pool = SessionPool()
        pool.add_system("f", multibus_system(4, 6, seed=2))
        replacement = multibus_system(3, 6, seed=3)
        shards = pool.add_system("f", replacement)
        assert pool.targets() == ["f/CAN-0", "f/CAN-1", "f/CAN-2"]
        assert sorted(pool.shard_map("f").values()) == pool.targets()
        assert shards == pool.shard_map("f")
        assert pool.system("f").base_system is replacement
        with pytest.raises(UnknownTargetError):
            pool.get("f/CAN-3")

    def test_reregistration_unpins_the_orphaned_session(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_MAX_SESSIONS", 1)
        pool = SessionPool()
        pool.add_config("target", _powertrain_config(16))
        # Same name, new configuration: the old fingerprint loses its
        # alias and its pin, so the bound can reclaim it.
        pool.add_config("target", _powertrain_config(20))
        assert len(pool) == 1
        assert pool.evicted_sessions == 1
        assert pool.get("target").base_config.kmatrix is not None


# --------------------------------------------------------------------------- #
# REPRO_PARALLEL validation (satellite)
# --------------------------------------------------------------------------- #
class TestReproParallelValidation:
    def test_invalid_override_raises_naming_modes(self, monkeypatch):
        from repro.parallel import resolve_mode
        monkeypatch.setenv("REPRO_PARALLEL", "processes")
        with pytest.raises(ValueError) as error:
            resolve_mode("auto", 4)
        message = str(error.value)
        for mode in ("serial", "process", "auto"):
            assert mode in message
        monkeypatch.setenv("REPRO_PARALLEL", "thread")
        with pytest.raises(ValueError, match="allowed modes"):
            resolve_mode("auto", 4)

    def test_auto_and_empty_overrides_are_accepted(self, monkeypatch):
        from repro.parallel import resolve_mode
        monkeypatch.setenv("REPRO_PARALLEL", "auto")
        assert resolve_mode("serial", 4) == "serial"
        monkeypatch.setenv("REPRO_PARALLEL", "  ")
        assert resolve_mode("serial", 4) == "serial"


# --------------------------------------------------------------------------- #
# Daemon endpoints (in-process client, full protocol path)
# --------------------------------------------------------------------------- #
class TestDaemonEndpoints:
    def test_ping_health_targets_scenarios(self, client):
        assert client.ping()["pong"] is True
        health = client.health()
        assert health["status"] == "ok"
        assert "powertrain" in health["targets"]
        assert "multibus" in health["systems"]
        assert "paper-jitter-sweep" in health["scenarios"]
        names = [s["name"] for s in client.scenarios()["scenarios"]]
        assert names == sorted(names)

    def test_query_bit_matches_from_scratch(self, client):
        config = _powertrain_config()
        victim = config.kmatrix.sorted_by_priority()[5].name
        deltas = (JitterDelta(message_name=victim, jitter=1.75),)
        response = client.query("powertrain", deltas)
        expected = _reference_worst_cases(config, deltas)
        got = {name: entry["worst_case"]
               for name, entry in response["results"].items()}
        assert got == expected

    def test_query_subset_and_no_report(self, client):
        config = _powertrain_config()
        names = [m.name for m in config.kmatrix.sorted_by_priority()[:3]]
        response = client.query(
            "powertrain", (JitterDelta(fraction=0.3),),
            message_names=names, with_report=False)
        assert sorted(response["results"]) == sorted(names)
        assert response["report"] is None

    def test_query_unknown_target_is_clean_error(self, client):
        with pytest.raises(DaemonError, match="unknown target"):
            client.query("nope", ())

    def test_unknown_op_is_clean_error(self, client):
        with pytest.raises(DaemonError, match="unknown op"):
            client.request("frobnicate")

    def test_malformed_delta_is_clean_error(self, client):
        with pytest.raises(DaemonError):
            client.request("query", target="powertrain",
                           deltas=[{"delta": "quantum"}])

    def test_type_malformed_params_are_clean_errors(self, client, daemon,
                                                    monkeypatch):
        """Valid JSON of the wrong shape must yield an error response,
        never an unhandled exception (which would kill a TCP connection)."""
        with pytest.raises(DaemonError):
            client.request("query", target="powertrain", deltas="abc")
        with pytest.raises(DaemonError):
            client.request("batch", target="powertrain", queries=["x"])
        # The op table declares 'queries' as an array of step objects.
        for queries in ("abc", {"deltas": []}, [{"deltas": []}, 3]):
            with pytest.raises(DaemonError, match="'queries'") as caught:
                client.request("batch", target="powertrain",
                               queries=queries)
            assert caught.value.code == "protocol"
        with pytest.raises(DaemonError):
            client.request("query", target="powertrain",
                           deltas=[{"delta": "jitter", "fraction": "many"}])
        # The daemon is still alive afterwards.
        assert client.ping()["pong"] is True
        # Non-finite numbers (``1e999`` and ``NaN`` decode to inf / nan),
        # sent after a warm base query, in-process and over TCP.  The
        # client codec refuses to write them, so requests go out through a
        # permissive encoder; the daemon's replies still use the strict one.
        monkeypatch.setattr(client_module, "encode_line", lambda obj: (
            json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"))
        server = start_server(daemon, port=0)
        try:
            with TcpClient(*server.address) as tcp:
                for peer in (client, tcp):
                    self._assert_non_finite_rejected(peer)
                assert tcp.reconnects == 0
        finally:
            server.stop(close_daemon=False)

    @staticmethod
    def _assert_non_finite_rejected(peer) -> None:
        config = _powertrain_config()
        name = config.kmatrix.messages[0].name
        base = peer.query("powertrain", with_report=False)["results"]
        assert {n: entry["worst_case"] for n, entry in base.items()} \
            == _reference_worst_cases(config)
        # An integer literal too large for a double (400 digits) decodes to
        # a Python int that float() refuses with OverflowError.
        for value in (math.inf, math.nan, 10 ** 400):
            for params, code, field in (
                    ({"deltas": [{"delta": "jitter", "fraction": value}]},
                     "protocol", "fraction"),
                    ({"deltas": [{"delta": "jitter", "message_name": name,
                                  "jitter": value}]},
                     "protocol", "jitter"),
                    ({"deltas": [{"delta": "bus", "bit_rate_bps": value}]},
                     "protocol", "bit_rate_bps"),
                    ({"deltas": [{"delta": "error-model", "error_model": {
                        "errors": "sporadic",
                        "min_interarrival": value}}]},
                     "protocol", "min_interarrival"),
                    ({"deltas": [{"delta": "error-model", "error_model": {
                        "errors": "burst", "min_interarrival": 50.0,
                        "burst_length": 3, "intra_burst_gap": value}}]},
                     "protocol", "intra_burst_gap"),
                    ({"deadline_ms": value}, "protocol", "deadline_ms")):
                with pytest.raises(DaemonError, match=field) as caught:
                    peer.request("query", target="powertrain", **params)
                assert caught.value.code == code
                deltas = (JitterDelta(fraction=0.35),)
                clean = peer.query("powertrain", deltas, with_report=False)
                assert {n: entry["worst_case"] for n, entry
                        in clean["results"].items()} \
                    == _reference_worst_cases(config, deltas)
        # Every float field is read by one declaration at every depth: a
        # NaN, an infinity or an overflowing literal answers ``protocol``
        # in a delta, an event model, a K-Matrix row, a system delta and a
        # registration payload alike.
        probe = {"name": "Probe", "can_id": 0x7F0, "dlc": 8,
                 "period": 10.0, "sender": "Probe-ECU"}
        for op, params, code, field in (
                ("query", {"target": "powertrain", "deltas": [
                    {"delta": "event-models", "models": {
                        name: {"model": "periodic", "period": 10 ** 400}}}]},
                 "protocol", "period"),
                *(("query", {"target": "powertrain", "deltas": [
                    {"delta": "event-models", "models": {name: model}}]},
                   "protocol", field) for field, model in (
                    ("period", {"model": "periodic", "period": math.inf}),
                    ("period", {"model": "periodic-jitter",
                                "period": math.nan, "jitter": 1.0}),
                    ("jitter", {"model": "periodic-jitter", "period": 10.0,
                                "jitter": math.nan}),
                    ("min_distance", {"model": "periodic-burst",
                                      "period": 10.0, "jitter": 25.0,
                                      "min_distance": math.nan}))),
                *(("query", {"target": "powertrain", "deltas": [
                    {"delta": "add-message",
                     "message": {**probe, field: value}}]},
                   "protocol", field) for field, value in (
                    ("period", math.nan), ("period", math.inf),
                    ("jitter", math.nan), ("deadline", math.nan),
                    ("min_distance", math.nan))),
                ("system_query", {"system": "multibus", "deltas": [
                    {"sysdelta": "bus-speed", "bus": "CAN-0",
                     "bit_rate_bps": 10 ** 400}]}, "protocol", "bit_rate_bps"),
                # Integer, boolean and string fields are read by kind, not
                # coerced: no truncated float, stringly boolean or string
                # unpacked into characters.
                *(("query", {"target": "powertrain", "deltas": [
                    {"delta": "add-message",
                     "message": {**probe, field: value}}]},
                   "protocol", field) for field, value in (
                    ("can_id", 1.9), ("can_id", True), ("dlc", "8"))),
                *(("query", {"target": "powertrain", "deltas": [delta]},
                   "protocol", field) for field, delta in (
                    ("burst_length", {"delta": "error-model",
                                      "error_model": {
                                          "errors": "burst",
                                          "min_interarrival": 50.0,
                                          "burst_length": 2.9,
                                          "intra_burst_gap": 1.0}}),
                    ("replace_all", {"delta": "event-models", "models": {
                        name: {"model": "periodic", "period": 10.0}},
                        "replace_all": "false"}),
                    ("bit_stuffing", {"delta": "bus",
                                      "bit_stuffing": "false"}),
                    ("swap", {"delta": "priority", "swap": "ab"}))),
                *(("register", {"name": "bad-bus", "system": {
                    "name": "bad-bus", "buses": [{"bus": {
                        "name": "CAN-0", "bit_rate_bps": value}}]}},
                   "protocol", "bit_rate_bps")
                  for value in (math.nan, 10 ** 400))):
            with pytest.raises(DaemonError, match=field) as caught:
                peer.request(op, **params)
            assert caught.value.code == code
            clean = peer.query("powertrain", with_report=False)
            assert {n: entry["worst_case"] for n, entry
                    in clean["results"].items()} \
                == _reference_worst_cases(config)

    def test_reregistered_system_is_not_served_stale(self):
        daemon = AnalysisDaemon(name="rereg")
        daemon.add_system("sys", multibus_system(
            n_buses=2, messages_per_bus=6, seed=1))
        client = InProcessClient(daemon)
        first = client.analyze_system("sys")
        replacement = multibus_system(n_buses=3, messages_per_bus=8, seed=2)
        daemon.add_system("sys", replacement)
        second = client.analyze_system("sys")
        assert len(second["messages"]) > len(first["messages"])
        from repro.core.engine import CompositionalAnalysis
        direct = CompositionalAnalysis(replacement,
                                       incremental=False).run()
        got = {name: entry["worst_case"]
               for name, entry in second["messages"].items()}
        assert got == {
            name: result.worst_case if result.bounded else None
            for name, result in direct.message_results.items()}
        daemon.close()

    def test_scenario_run(self, client):
        response = client.run_scenario("powertrain", "paper-jitter-sweep")
        assert response["scenario"] == "paper-jitter-sweep"
        assert len(response["queries"]) == 13
        assert "query" in response["table"]
        config = _powertrain_config()
        last = response["queries"][-1]
        expected = _reference_worst_cases(
            config, (JitterDelta(fraction=0.6),))
        got = {name: entry["worst_case"]
               for name, entry in last["results"].items()}
        assert got == expected

    def test_batch_preserves_request_order(self, client):
        config = _powertrain_config()
        fractions = [0.05 * i for i in range(8)]
        response = client.batch("powertrain", [
            {"deltas": (JitterDelta(fraction=f),), "label": f"f{index}"}
            for index, f in enumerate(fractions)])
        assert [q["label"] for q in response["results"]] == [
            f"f{i}" for i in range(len(fractions))]
        for fraction, entry in zip(fractions, response["results"]):
            expected = _reference_worst_cases(
                config, (JitterDelta(fraction=fraction),))
            got = {name: value["worst_case"]
                   for name, value in entry["results"].items()}
            assert got == expected

    def test_analyze_system_matches_direct_engine(self, client):
        from repro.core.engine import CompositionalAnalysis
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=5)
        direct = CompositionalAnalysis(system, incremental=False).run()
        response = client.analyze_system("multibus")
        assert response["converged"] == direct.converged
        assert response["iterations"] == direct.iterations
        got = {name: entry["worst_case"]
               for name, entry in response["messages"].items()}
        expected = {name: result.worst_case if result.bounded else None
                    for name, result in direct.message_results.items()}
        assert got == expected
        # A second request reuses the pool sessions and stays identical.
        assert client.analyze_system("multibus")["messages"] == \
            response["messages"]

    def test_stats_endpoint_exposes_sessions_and_table(self, client):
        client.query("powertrain", (JitterDelta(fraction=0.25),))
        stats = client.stats()
        assert stats["requests_served"] > 0
        names = [s["name"] for s in stats["sessions"]]
        assert "powertrain" in names
        table = stats["table"]
        for header in ("session", "queries", "hits", "reused", "warm",
                       "cold"):
            assert header in table
        assert "powertrain" in table


# --------------------------------------------------------------------------- #
# The op table: one declared parameter check for every request
# --------------------------------------------------------------------------- #
class _CapturingClient(client_module.BaseClient):
    """A client whose transport records each request line and answers ok."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[bytes] = []

    def _roundtrip(self, request: dict) -> dict:
        self.lines.append(encode_line(request))
        return {"ok": True, "result": {}, "id": request["id"]}


class TestOpTable:
    @pytest.mark.parametrize("op, params, field", [
        ("query", {"target": "powertrain", "with_report": "false"},
         "'with_report'"),
        ("batch", {"target": "powertrain",
                   "queries": [{"deltas": [], "with_report": "false"}]},
         "'with_report'"),
        ("metrics", {"history": "no"}, "'history'"),
        ("query", {"target": "powertrain", "trace": "false"}, "'trace'"),
        ("register", {"name": "both",
                      "system": protocol.system_to_json(multibus_system(
                          n_buses=2, messages_per_bus=4, seed=3)),
                      "config": protocol.config_to_json(
                          _powertrain_config(8))},
         "exactly one of 'system' or 'config' or 'workload'"),
        ("query", {"target": "powertrain", "delta": [
            {"delta": "jitter", "fraction": 0.4}]}, "'delta'"),
        ("query", {"target": "powertrain", "message_names": "M1"},
         "'message_names'"),
        # Nested objects are checked by the same table: a typo'd key is
        # no bus-wide what-if and no base configuration, a float is no
        # CAN identifier, and a rule value is not coerced.
        ("query", {"target": "powertrain", "deltas": [
            {"delta": "jitter", "fraction": 0.2, "message_nam": "x"}]},
         "'message_nam'"),
        ("query", {"target": "powertrain", "deltas": [
            {"delta": "bus", "bit_stufing": False}]}, "'bit_stufing'"),
        ("query", {"target": "powertrain", "deltas": [
            {"delta": "add-message", "message": {
                "name": "Probe", "can_id": 1.9, "dlc": 8, "period": 10.0,
                "sender": "Probe-ECU"}}]}, "'can_id'"),
        ("register", {"name": "both", "config": {
            **protocol.config_to_json(_powertrain_config(8)),
            "messages": [{"name": "Probe", "can_id": 1.9, "dlc": 8,
                          "period": 10.0, "sender": "Probe-ECU"}]}},
         "'can_id'"),
        *(("monitor_start", {"target": "powertrain", "rules": [
            {"name": "r", "metric": "violations", "op": ">",
             "threshold": 0, **rule}]}, field)
          for rule, field in (
              ({"for_windows": 2.9}, "'for_windows'"),
              ({"threshold": "3"}, "'threshold'"),
              ({"threshold": True}, "'threshold'"),
              ({"name": 5}, "'name'"))),
        ("register", {"name": "both", "workload": {
            "generator": "synthetic_bus", "params": {"n_mesages": 8}}},
         "'n_mesages'"),
    ])
    def test_no_request_is_coerced(self, client, daemon, op, params, field):
        """A request the table rejects answers one ``protocol`` error
        naming the field, instead of an answer for another request."""
        errors = sum(daemon.metrics.family(
            "daemon_errors_total", "code").values())
        with pytest.raises(DaemonError, match=field) as caught:
            client.request(op, **params)
        assert caught.value.code == "protocol"
        inventory = client.targets()
        assert "both" not in inventory["systems"] + inventory["targets"]
        assert sum(daemon.metrics.family(
            "daemon_errors_total", "code").values()) == errors + 1

    def test_client_request_lines_are_pinned(self):
        """Typed client methods pass optional arguments straight through;
        the request lines they send stay exactly these."""
        from repro.core.paths import EndToEndPath
        from repro.monitor.stream import ObservedFrame
        from repro.whatif.system_deltas import BusSpeedDelta

        fraction = (JitterDelta(fraction=0.3),)
        path = EndToEndPath(name="p", segments=(("message", "M1"),))
        client = _CapturingClient()
        client.metrics()
        client.metrics(history_last=3)
        client.traces(limit=4)
        client.query("t", fraction, message_names=["A", "B"])
        client.query("t", message_names=[], label="L", with_report=False)
        client.query("t", deadline_ms=12.5, trace=True, trace_id="abc")
        client.query("t", trace=False)
        client.batch("t", [{"deltas": fraction, "label": "a"}],
                     deadline_ms=3)
        client.register_workload("n", "g")
        client.store_compact()
        client.system_query(
            "s", (BusSpeedDelta(bus_name="B", bit_rate_bps=250000.0),),
            paths=[path], shards={"a": "b"}, trace=True)
        client.system_query("s", paths=(), shards={})
        client.system_scenario("s", "sc", deadline_ms=1.0)
        client.monitor_start("t", rules=(), window_ms=5.0, fit_max_n=4)
        client.monitor_ingest("t", [ObservedFrame("A", 0.0, 1.0)],
                              flush=True)
        client.monitor_ingest("t", [], flush=False)
        client.monitor_alerts("t", last=2)
        assert b"".join(client.lines).decode().splitlines() == [
            '{"op":"metrics","id":1}',
            '{"op":"metrics","id":2,"history":true,"history_last":3}',
            '{"op":"traces","id":3,"limit":4}',
            '{"op":"query","id":4,"target":"t","deltas":[{"delta":"jitter",'
            '"fraction":0.3}],"with_report":true,"message_names":["A","B"]}',
            '{"op":"query","id":5,"target":"t","deltas":[],'
            '"with_report":false,"message_names":[],"label":"L"}',
            '{"op":"query","id":6,"target":"t","deltas":[],'
            '"with_report":true,"deadline_ms":12.5,"trace":true,'
            '"trace_id":"abc"}',
            '{"op":"query","id":7,"target":"t","deltas":[],'
            '"with_report":true}',
            '{"op":"batch","id":8,"target":"t","queries":[{"deltas":'
            '[{"delta":"jitter","fraction":0.3}],"label":"a"}],'
            '"deadline_ms":3}',
            '{"op":"register","id":9,"name":"n","workload":'
            '{"generator":"g"}}',
            '{"op":"store","id":10,"action":"compact"}',
            '{"op":"system_query","id":11,"system":"s","deltas":'
            '[{"sysdelta":"bus-speed","bus":"B","bit_rate_bps":250000.0}],'
            '"paths":[{"name":"p","segments":[["message","M1"]]}],'
            '"shards":{"a":"b"},"trace":true}',
            '{"op":"system_query","id":12,"system":"s","deltas":[],'
            '"shards":{}}',
            '{"op":"scenario","id":13,"system":"s","scenario":"sc",'
            '"deadline_ms":1.0}',
            '{"op":"monitor_start","id":14,"target":"t","window_ms":5.0,'
            '"fit_max_n":4}',
            '{"op":"monitor_ingest","id":15,"target":"t","frames":'
            '[["A",0.0,1.0,true,1]],"flush":true}',
            '{"op":"monitor_ingest","id":16,"target":"t","frames":[]}',
            '{"op":"monitor_alerts","id":17,"target":"t","last":2}',
        ]

    def test_readme_names_the_table_ops_and_control_set(self):
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        rows = readme.split("| op | answers |", 1)[1].split("\n\n", 1)[0]
        table_ops = [op for row in rows.splitlines()[2:]
                     for op in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(table_ops) == sorted(protocol.OPS)
        sentence = re.search(r"Control ops \(([^)]*)\)", readme).group(1)
        assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(
            op.name for op in protocol.OPS.values() if op.control)


# --------------------------------------------------------------------------- #
# Concurrent clients (the multi-user property)
# --------------------------------------------------------------------------- #
class TestConcurrentClients:
    N_THREADS = 6
    QUERIES_PER_THREAD = 8

    def test_interleaved_mutating_queries_all_bit_match(self):
        """N threads issue interleaved jitter/priority deltas against one
        daemon; every response must bit-match a from-scratch analysis of
        exactly that delta sequence (no cross-client bleed)."""
        config = _powertrain_config(24)
        daemon = AnalysisDaemon(name="concurrent")
        daemon.add_config("shared", config)
        priorities = config.kmatrix.sorted_by_priority()
        pairs = [(priorities[i].name, priorities[i + 1].name)
                 for i in range(0, 8, 2)]
        failures: list[str] = []
        barrier = threading.Barrier(self.N_THREADS)

        def run_client(thread_index: int) -> None:
            client = InProcessClient(daemon)
            barrier.wait(timeout=10)
            for step in range(self.QUERIES_PER_THREAD):
                if (thread_index + step) % 2 == 0:
                    victim = priorities[3 + thread_index].name
                    deltas = (JitterDelta(
                        message_name=victim,
                        jitter=0.25 * (step + 1) * (thread_index + 1)),)
                else:
                    deltas = (PriorityDelta(
                        swap=pairs[(thread_index + step) % len(pairs)]),)
                response = client.query("shared", deltas, with_report=False)
                got = {name: entry["worst_case"]
                       for name, entry in response["results"].items()}
                expected = _reference_worst_cases(config, deltas)
                if got != expected:
                    failures.append(
                        f"thread {thread_index} step {step}: mismatch")

        threads = [threading.Thread(target=run_client, args=(index,))
                   for index in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        daemon.close()
        assert not failures, failures
        stats = daemon.pool.stats()[0]
        assert stats.queries == self.N_THREADS * self.QUERIES_PER_THREAD


# --------------------------------------------------------------------------- #
# TCP transport
# --------------------------------------------------------------------------- #
class TestTcpTransport:
    def test_tcp_end_to_end_bit_matches_in_process(self):
        config = _powertrain_config(24)
        daemon = AnalysisDaemon(name="tcp-test")
        daemon.add_config("powertrain", config)
        server = start_server(daemon, port=0)
        host, port = server.address
        try:
            deltas = (JitterDelta(fraction=0.4),)
            local = InProcessClient(daemon).query("powertrain", deltas)
            with TcpClient(host, port) as tcp:
                assert tcp.ping()["pong"] is True
                remote = tcp.query("powertrain", deltas)
                assert remote["results"] == local["results"]
                assert remote["fingerprint"] == local["fingerprint"]
                scenario = tcp.run_scenario("powertrain",
                                            "paper-error-sweep-sporadic")
                assert len(scenario["queries"]) == 8
        finally:
            server.stop()

    def test_shutdown_op_stops_the_server(self):
        daemon = AnalysisDaemon(name="tcp-shutdown")
        daemon.add_config("powertrain", _powertrain_config(16))
        server = start_server(daemon, port=0)
        host, port = server.address
        with TcpClient(host, port) as tcp:
            assert tcp.shutdown_daemon()["stopping"] is True
        assert daemon.shutdown_requested
        server.stop()
        with pytest.raises(OSError):
            TcpClient(host, port, timeout=0.5)

    def test_concurrent_tcp_clients(self):
        config = _powertrain_config(20)
        daemon = AnalysisDaemon(name="tcp-multi")
        daemon.add_config("powertrain", config)
        server = start_server(daemon, port=0)
        host, port = server.address
        failures: list[str] = []

        def run_client(index: int) -> None:
            try:
                with TcpClient(host, port) as tcp:
                    for step in range(4):
                        fraction = 0.05 * ((index + step) % 6)
                        deltas = (JitterDelta(fraction=fraction),)
                        response = tcp.query("powertrain", deltas,
                                             with_report=False)
                        got = {name: entry["worst_case"] for name, entry
                               in response["results"].items()}
                        if got != _reference_worst_cases(config, deltas):
                            failures.append(f"client {index} step {step}")
            except Exception as error:  # noqa: BLE001 - collected for assert
                failures.append(f"client {index}: {error!r}")

        threads = [threading.Thread(target=run_client, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        try:
            assert not failures, failures
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# Wire bytes: replies spliced from a cache entry's encoded fragments
# --------------------------------------------------------------------------- #
def _wire_script(config: BusConfiguration) -> list[dict]:
    """Misses, hits, subsets, ``with_report: false``, no messages, a label
    needing escapes, two deadline policies on one entry, 69 unbounded
    messages, a batch, a repeated scenario and two errors."""
    names = [message.name for message in config.kmatrix][::11]
    jitter = protocol.deltas_to_json([JitterDelta(fraction=0.3)])
    errors = protocol.deltas_to_json(
        [ErrorModelDelta(SporadicErrorModel(min_interarrival=0.5))])

    def policy(name: str) -> list[dict]:
        return [{"delta": "deadline-policy", "policy": name}]

    query = {"op": "query", "target": "pt"}
    return [
        {**query, "id": 1},
        {**query, "id": 2},
        {**query, "message_names": names, "id": "three"},
        {**query, "with_report": False},
        {**query, "message_names": [], "id": 5},
        {**query, "deltas": jitter, "message_names": names, "id": 6},
        {**query, "deltas": jitter, "label": "j30", "id": 7},
        {**query, "deltas": jitter, "label": "j30\u00e9\"", "id": 8},
        {**query, "deltas": errors, "id": 9},
        {**query, "deltas": errors, "with_report": False, "id": 10},
        {**query, "deltas": errors, "id": 11},
        {"op": "batch", "target": "pt", "id": 12, "queries": [
            {"label": "base"},
            {"deltas": protocol.deltas_to_json([JitterDelta(fraction=0.4)])},
            {"deltas": errors, "with_report": False}, {"deltas": jitter}]},
        {"op": "scenario", "target": "pt",
         "scenario": "paper-operating-points", "id": 13},
        {"op": "scenario", "target": "pt",
         "scenario": "paper-operating-points", "id": 14},
        {**query, "deltas": policy("min"), "id": 15},
        {**query, "deltas": policy("min-rearrival"), "id": 16},
        {**query, "deltas": errors + policy("min-rearrival"), "id": 17},
        {"op": "query", "target": "nope", "id": 18},
    ]


def _wire_daemon() -> tuple[AnalysisDaemon, BusConfiguration]:
    config = _powertrain_config(80)
    daemon = AnalysisDaemon(name="wire")
    daemon.add_config("pt", config)
    return daemon, config


def _tcp_reply_lines(daemon: AnalysisDaemon, requests) -> list[bytes]:
    """Each request sent as a raw line over TCP; the raw reply lines."""
    server = start_server(daemon, port=0)
    try:
        with socket.create_connection(server.address, timeout=60) as sock:
            reader = sock.makefile("rb")
            lines = []
            for request in requests:
                sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
                lines.append(reader.readline())
            return lines
    finally:
        server.stop()


class TestWireBytes:
    """Replies for an analysed configuration are joined from its cache
    entry's encoded members; the bytes must stay those of one plain
    ``json.dumps`` of the reply object."""

    #: sha1 of the script's reply lines before fragments were cached.
    PINNED = "89882a7d5a41afc6c84e042ceb0df73d463345f9"

    def test_reply_lines_are_pinned(self):
        daemon, config = _wire_daemon()
        lines = _tcp_reply_lines(daemon, _wire_script(config))
        assert len(lines) == 18
        assert all(line.endswith(b"\n") for line in lines)
        assert hashlib.sha1(b"".join(lines)).hexdigest() == self.PINNED

    def test_every_line_is_its_plain_reencode(self):
        daemon, config = _wire_daemon()
        lines = _tcp_reply_lines(daemon, _wire_script(config))
        for line in lines:
            plain = json.dumps(json.loads(line), separators=(",", ":"),
                               allow_nan=False)
            assert line == plain.encode("utf-8") + b"\n"
        unbounded = json.loads(lines[8])["result"]["results"]
        assert sum(entry["worst_case"] is None
                   for entry in unbounded.values()) == 69

    def test_subset_then_full_matrix_gives_the_full_reply(self):
        daemon, config = _wire_daemon()
        names = [message.name for message in config.kmatrix][::7]
        full = {"op": "query", "target": "pt", "id": 1}
        subset = {**full, "message_names": names}
        (want,) = _tcp_reply_lines(daemon, [full])
        daemon, _ = _wire_daemon()
        got_subset, got = _tcp_reply_lines(daemon, [subset, full])
        assert list(json.loads(got_subset)["result"]["results"]) == names
        # The second query completes the entry the subset started, so
        # only its plan statistics differ from a first full query.
        want, got = json.loads(want), json.loads(got)
        assert got["result"].pop("stats")["reused"] == len(names)
        want["result"].pop("stats")
        assert got == want

    def test_eviction_drops_the_entry_fragments(self):
        from repro.service.session import AnalysisSession
        session = AnalysisSession.from_config(
            _powertrain_config(16), max_cached_configs=2)
        evicted = (JitterDelta(fraction=0.2),)
        first = session.query(evicted)
        protocol.query_result_to_json(first)
        assert len(first.wire["results"]) == 16
        for fraction in (0.3, 0.4, 0.5):
            protocol.query_result_to_json(
                session.query((JitterDelta(fraction=fraction),)))
        live = [entry.wire for entry in session._cache.values()]
        assert len(live) == 2
        assert all(wire is not first.wire for wire in live)
        again = session.query(evicted)
        assert again.wire is not first.wire and again.wire == {}
        assert protocol.encode_line(protocol.query_result_to_json(again)) \
            == protocol.encode_line(protocol.query_result_to_json(first))

    def test_unencodable_reply_is_typed_internal_over_both_transports(
            self, monkeypatch):
        daemon, _ = _wire_daemon()
        monkeypatch.setattr(daemon, "_op_ping",
                            lambda params, cancel=None: {"x": math.nan})
        server = start_server(daemon, port=0)
        try:
            with TcpClient(*server.address) as tcp:
                for peer in (InProcessClient(daemon), tcp):
                    with pytest.raises(DaemonError) as caught:
                        peer.ping()
                    assert caught.value.code == "internal"
                    assert "not encodable" in str(caught.value)
                    assert peer.health()["status"] == "ok"
        finally:
            server.stop()


# --------------------------------------------------------------------------- #
# Session stats (satellite)
# --------------------------------------------------------------------------- #
class TestSessionStats:
    def test_stats_counters_and_table(self):
        from repro.reporting.tables import format_session_stats
        from repro.service.session import AnalysisSession
        config = _powertrain_config(16)
        session = AnalysisSession.from_config(config, name="stats-test",
                                              max_cached_configs=2)
        session.analyze()
        session.analyze()  # exact cache hit
        for fraction in (0.2, 0.3, 0.4):  # forces evictions (bound is 2)
            session.query((JitterDelta(fraction=fraction),))
        stats = session.stats()
        assert stats.queries == 5
        assert stats.cache_hits == 1
        assert stats.cache_misses == 4
        assert stats.evictions >= 1
        assert stats.reused + stats.warm_started + stats.cold > 0
        table = format_session_stats([stats])
        assert "stats-test" in table
        assert "evicted" in table
