"""Persistent result store + named workload registry tests.

The store's contract mirrors the serving caches it persists: every
store-served answer must be *bit-identical* to a cold solve, and every
failure mode of the disk (torn writes, foreign bytes, stale schema
versions, concurrent daemons sharing one directory) must degrade to a
counted miss plus a cold solve -- never a wrong number, never an
exception out of a request.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.analysis.response_time import MessageResponseTime
from repro.can.bus import CanBus
from repro.obs.metrics import MetricsRegistry
from repro.server import AnalysisDaemon, DaemonError, InProcessClient, TcpClient
from repro.server.faults import FaultInjector
from repro.server.harness import ServerHarness
from repro.service.session import AnalysisSession
from repro.store import ResultStore
from repro.store.codec import (
    SCHEMA_VERSION,
    bus_payload_from_json,
    bus_payload_to_json,
    float_from_json,
    float_to_json,
    system_result_from_json,
    system_result_to_json,
)
from repro.whatif.session import SystemSession
from repro.whatif.system_deltas import BusSpeedDelta, SegmentConfigDelta
from repro.workloads import builtin_registry, multibus_system, synthetic_kmatrix
from repro.service.deltas import JitterDelta


def _bus_session(n_messages=10, seed=0, **kwargs) -> AnalysisSession:
    kmatrix = synthetic_kmatrix(n_messages, seed=seed)
    bus = CanBus(name="B", bit_rate_bps=500_000.0)
    return AnalysisSession(kmatrix, bus, **kwargs)


def _fleet(seed=7):
    return multibus_system(n_buses=3, messages_per_bus=8, seed=seed)


# --------------------------------------------------------------------------- #
# Codec: bit-exact round trips
# --------------------------------------------------------------------------- #
class TestCodec:
    def test_floats_round_trip_bit_exactly(self):
        values = [0.0, -0.0, 1e-308, 0.1 + 0.2, 123456.789, math.pi,
                  math.inf, -math.inf]
        for value in values:
            token = float_to_json(value)
            back = float_from_json(json.loads(json.dumps(token)))
            assert math.copysign(1.0, back) == math.copysign(1.0, value)
            assert back == value or (math.isnan(back) and math.isnan(value))

    def test_nan_round_trips(self):
        assert math.isnan(float_from_json(float_to_json(math.nan)))

    def test_unbounded_result_round_trips(self):
        result = MessageResponseTime(
            name="M1", can_id=0x80, transmission_time=0.26, blocking=0.26,
            jitter=1.5, worst_case=math.inf, best_case=0.26,
            busy_period=math.inf, instances_analyzed=3, bounded=False,
            queuing_delays=(0.3, 0.7, math.inf))
        payload = bus_payload_to_json({"M1": result})
        wire = json.loads(json.dumps(payload, allow_nan=False))
        assert bus_payload_from_json(wire)["M1"] == result

    def test_system_result_round_trips(self):
        outcome = SystemSession(_fleet()).analyze().result
        payload = system_result_to_json(outcome)
        wire = json.loads(json.dumps(payload, allow_nan=False))
        assert system_result_from_json(wire) == outcome


# --------------------------------------------------------------------------- #
# Store core: atomicity, corruption tolerance, eviction
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put("bus", "abc123", {"results": {}})
        assert store.get("bus", "abc123") == {"results": {}}
        assert store.contains("bus", "abc123")
        assert store.get("bus", "feed00") is None
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_kinds_are_disjoint(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bus", "aa", {"results": {}})
        assert store.get("system", "aa") is None

    def test_bad_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("bus", "../escape", {})
        with pytest.raises(ValueError):
            store.get("bus", "")

    def test_torn_bytes_are_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bus", "aa", {"results": {}})
        path = store._path("bus", "aa")
        path.write_bytes(path.read_bytes()[:11])
        assert store.get("bus", "aa") is None
        assert store.stats()["corrupt"] == 1
        assert not path.exists(), "corrupt entries are quarantined"

    def test_foreign_json_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store._path("bus", "aa").write_text("[1, 2, 3]")
        assert store.get("bus", "aa") is None
        assert store.stats()["corrupt"] == 1

    def test_key_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bus", "aa", {"results": {}})
        raw = store._path("bus", "aa").read_bytes()
        store._path("bus", "bb").write_bytes(raw)
        assert store.get("bus", "bb") is None
        assert store.stats()["corrupt"] == 1

    def test_stale_schema_is_a_miss_but_not_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"schema": SCHEMA_VERSION + 1, "kind": "bus", "key": "aa",
                  "payload": {"results": {}}}
        store._path("bus", "aa").write_text(json.dumps(record))
        assert store.get("bus", "aa") is None
        assert store.stats()["stale"] == 1
        assert store._path("bus", "aa").exists(), \
            "a newer daemon generation may own stale-schema entries"

    def test_eviction_under_size_pressure(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(10):
            store.put("bus", f"d{index:02d}", {"results": {"pad": "x" * 200}})
        total = store.stats()["bytes"]
        store.max_bytes = total // 2
        store.put("bus", "d10", {"results": {"pad": "x" * 200}})
        stats = store.stats()
        assert stats["bytes"] <= store.max_bytes
        assert stats["evictions"] > 0
        # The newest entry survives (oldest-read go first).
        assert store.contains("bus", "d10")

    def test_lru_touch_on_read(self, tmp_path):
        import os
        store = ResultStore(tmp_path)
        store.put("bus", "old", {"results": {}})
        store.put("bus", "new", {"results": {}})
        # Make "old" genuinely oldest, then read it to refresh it.
        past = store._path("bus", "old")
        os.utime(past, (1, 1))
        assert store.get("bus", "old") is not None
        store.max_bytes = store.stats()["bytes"] - 1
        store.compact()
        assert store.contains("bus", "old"), "read entries are LRU-refreshed"

    def test_compact_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(4):
            store.put("bus", f"e{index}", {"results": {}})
        stats = store.compact(max_bytes=0)
        assert stats["entries"] == 0 and stats["evictions"] == 4
        store.put("bus", "f0", {"results": {}})
        assert store.clear() == 1
        assert store.stats()["entries"] == 0

    def test_metrics_binding(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path, metrics=registry)
        store.put("bus", "aa", {"results": {}})
        store.get("bus", "aa")
        store.get("bus", "bb")
        assert registry.value("store_publishes_total") == 1
        assert registry.value("store_lookups_total", result="hit") == 1
        assert registry.value("store_lookups_total", result="miss") == 1


# --------------------------------------------------------------------------- #
# Fault injection: the store degrades, requests never fail
# --------------------------------------------------------------------------- #
class TestStoreFaults:
    def test_torn_write_degrades_to_cold_solve(self, tmp_path):
        faults = FaultInjector.from_spec("store.torn_write@1")
        cold = _bus_session().analyze()
        warm_writer = _bus_session(
            store=ResultStore(tmp_path, faults=faults))
        assert warm_writer.analyze().results == cold.results
        # The publish was torn: a fresh session must cold-solve (counted
        # corrupt), still bit-identically, and then re-publish cleanly.
        store = ResultStore(tmp_path, faults=FaultInjector())
        reader = _bus_session(store=store)
        result = reader.analyze()
        assert result.results == cold.results
        assert reader.store_hits == 0
        assert store.stats()["corrupt"] == 1
        assert store.stats()["publishes"] == 1
        third = _bus_session(store=ResultStore(tmp_path))
        assert third.analyze().results == cold.results
        assert third.store_hits == 1

    def test_stale_schema_degrades_to_cold_solve(self, tmp_path):
        faults = FaultInjector.from_spec("store.stale_schema@1")
        cold = _bus_session().analyze()
        writer = _bus_session(store=ResultStore(tmp_path, faults=faults))
        assert writer.analyze().results == cold.results
        store = ResultStore(tmp_path)
        reader = _bus_session(store=store)
        assert reader.analyze().results == cold.results
        assert reader.store_hits == 0
        assert store.stats()["stale"] == 1

    def test_torn_write_through_daemon_requests_never_fail(self, tmp_path):
        system = _fleet()
        with AnalysisDaemon(name="cold") as plain:
            plain.add_system("fleet", system)
            want = InProcessClient(plain).analyze_system("fleet")
        faults = FaultInjector.from_spec("store.torn_write@1+")
        with AnalysisDaemon(
                name="torn",
                store=ResultStore(tmp_path, faults=faults)) as daemon:
            daemon.add_system("fleet", system)
            client = InProcessClient(daemon)
            assert client.analyze_system("fleet") == want
            stats = client.store_stats()["stats"]
            assert stats["publish_errors"] > 0
            assert stats["publishes"] == 0


# --------------------------------------------------------------------------- #
# Bit-identity: store-served == cold solve, across many seeds
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(24))
    def test_bus_results_bit_identical_across_seeds(self, tmp_path, seed):
        cold = _bus_session(seed=seed).analyze()
        publisher = _bus_session(seed=seed, store=ResultStore(tmp_path))
        publisher.analyze()
        served = _bus_session(seed=seed, store=ResultStore(tmp_path))
        result = served.analyze()
        assert served.store_hits == 1
        assert result.results == cold.results
        assert result.report == cold.report

    def test_delta_variants_round_trip(self, tmp_path):
        deltas = (JitterDelta("Msg000_ECU1", 1.25),)
        cold = _bus_session(seed=3).query(deltas)
        publisher = _bus_session(seed=3, store=ResultStore(tmp_path))
        publisher.query(deltas)
        served = _bus_session(seed=3, store=ResultStore(tmp_path))
        result = served.query(deltas)
        assert served.store_hits == 1
        assert result.results == cold.results

    def test_system_results_bit_identical(self, tmp_path):
        system = _fleet()
        cold = SystemSession(system).analyze()
        SystemSession(system, store=ResultStore(tmp_path)).analyze()
        served_session = SystemSession(system, store=ResultStore(tmp_path))
        served = served_session.analyze()
        assert served_session.store_hits == 1
        assert served.result == cold.result
        assert served.stats.cache_hit

    def test_system_delta_variants_round_trip(self, tmp_path):
        system = _fleet()
        delta = BusSpeedDelta("CAN-1", 250_000.0)
        cold = SystemSession(system).query((delta,))
        SystemSession(system, store=ResultStore(tmp_path)).query((delta,))
        served_session = SystemSession(system, store=ResultStore(tmp_path))
        served = served_session.query((delta,))
        assert served_session.store_hits == 1
        assert served.result == cold.result


# --------------------------------------------------------------------------- #
# Serving stack: restarts, shared directories, concurrency
# --------------------------------------------------------------------------- #
class TestDaemonRestart:
    def test_two_daemons_share_one_store_dir(self, tmp_path):
        system = _fleet()
        with AnalysisDaemon(name="plain") as plain:
            plain.add_system("fleet", system)
            want = InProcessClient(plain).analyze_system("fleet")

        with AnalysisDaemon(name="a", store=ResultStore(tmp_path)) as a:
            a.add_system("fleet", system)
            first = InProcessClient(a).analyze_system("fleet")
        assert first == want

        with AnalysisDaemon(name="b", store=ResultStore(tmp_path)) as b:
            b.add_system("fleet", system)
            client = InProcessClient(b)
            assert client.analyze_system("fleet") == want
            assert b.metrics.value(
                "store_lookups_total", result="hit") >= 1
            stats = client.store_stats()
            assert stats["enabled"] is True
            assert stats["stats"]["hits"] >= 1

    def test_per_shard_query_served_from_store(self, tmp_path):
        system = _fleet()
        with AnalysisDaemon(name="a", store=ResultStore(tmp_path)) as a:
            a.add_system("fleet", system)
            client = InProcessClient(a)
            client.analyze_system("fleet")
            want = client.query("fleet/CAN-0")
        with AnalysisDaemon(name="b", store=ResultStore(tmp_path)) as b:
            b.add_system("fleet", system)
            got = InProcessClient(b).query("fleet/CAN-0")
        assert got["results"] == want["results"]

    def test_store_op_compact_and_clear(self, tmp_path):
        with AnalysisDaemon(store=ResultStore(tmp_path)) as daemon:
            daemon.add_system("fleet", _fleet())
            client = InProcessClient(daemon)
            client.analyze_system("fleet")
            assert client.store_stats()["stats"]["entries"] > 0
            compacted = client.store_compact(max_bytes=0)
            assert compacted["stats"]["entries"] == 0
            client.analyze_system("fleet")  # in-memory caches still serve
            cleared = client.store_clear()
            assert cleared["stats"]["entries"] == 0

    def test_store_op_validates_input(self, tmp_path):
        with AnalysisDaemon(store=ResultStore(tmp_path)) as daemon:
            client = InProcessClient(daemon)
            with pytest.raises(DaemonError) as err:
                client.request("store", action="explode")
            assert err.value.code == "protocol"
            with pytest.raises(DaemonError) as err:
                client.store_compact(max_bytes=-1)
            assert err.value.code == "protocol"

    def test_tcp_restart_serves_system_query_from_store(self, tmp_path):
        def factory() -> AnalysisDaemon:
            daemon = AnalysisDaemon(store=ResultStore(tmp_path))
            daemon.add_system("fleet", _fleet())
            return daemon

        delta = SegmentConfigDelta(
            "CAN-0", (JitterDelta("B0_Msg000_ECU1", 0.5),))
        with ServerHarness(factory) as harness:
            with TcpClient(*harness.address) as client:
                first = client.system_query("fleet", [delta])
            harness.restart()
            with TcpClient(*harness.address) as client:
                second = client.system_query("fleet", [delta])
                hits = harness.daemon.metrics.value(
                    "store_lookups_total", result="hit")
        assert second["messages"] == first["messages"]
        assert hits >= 1

    def test_concurrent_publish_and_lookup(self, tmp_path):
        store = ResultStore(tmp_path)
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def worker(worker_seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for seed in (worker_seed, worker_seed + 1, 0):
                    session = _bus_session(
                        n_messages=6, seed=seed,
                        store=ResultStore(tmp_path))
                    cold = _bus_session(n_messages=6, seed=seed).analyze()
                    assert session.analyze().results == cold.results
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert store.stats()["entries"] > 0


# --------------------------------------------------------------------------- #
# Named workload registry
# --------------------------------------------------------------------------- #
class TestWorkloadRegistry:
    def test_builtin_names(self):
        registry = builtin_registry()
        assert "multibus_chain" in registry.names()
        assert "powertrain" in registry.names()
        listing = registry.describe()
        assert listing["multibus_chain"]["kind"] == "system"
        assert "n_buses" in listing["multibus_chain"]["params"]

    def test_expansion_is_deterministic(self):
        registry = builtin_registry()
        params = {"n_buses": 2, "messages_per_bus": 6, "seed": 5}
        first = registry.expand("multibus_chain", params)
        second = registry.expand("multibus_chain", params)
        assert first.fingerprint() == second.fingerprint()

    def test_unknown_generator_and_param_raise(self):
        registry = builtin_registry()
        with pytest.raises(ValueError):
            registry.expand("nope", {})
        with pytest.raises(ValueError):
            registry.expand("multibus_chain", {"bogus": 1})

    def test_register_workload_over_the_wire(self, tmp_path):
        params = {"n_buses": 2, "messages_per_bus": 6, "seed": 5}
        with AnalysisDaemon(store=ResultStore(tmp_path)) as daemon:
            client = InProcessClient(daemon)
            reply = client.register_workload("fleet", "multibus_chain",
                                             params)
            assert reply["system"] == "fleet"
            assert reply["generator"] == "multibus_chain"
            assert set(reply["shards"]) == {"CAN-0", "CAN-1"}
            want = client.analyze_system("fleet")
        # Full-topology registration of the same parameters is
        # fingerprint-identical, so a restart via the *named* path serves
        # the explicitly-registered fleet's results (and vice versa).
        with AnalysisDaemon(store=ResultStore(tmp_path)) as daemon:
            client = InProcessClient(daemon)
            client.register_system(
                "fleet", builtin_registry().expand("multibus_chain", params))
            assert client.analyze_system("fleet") == want
            assert daemon.metrics.value(
                "store_lookups_total", result="hit") >= 1

    def test_register_workload_config_kind(self):
        with AnalysisDaemon() as daemon:
            client = InProcessClient(daemon)
            reply = client.register_workload(
                "bench", "synthetic_bus", {"n_messages": 8, "seed": 1})
            assert reply == {"target": "bench", "generator": "synthetic_bus"}
            answer = client.query("bench")
            assert len(answer["results"]) == 8

    def test_workload_errors_are_typed(self):
        with AnalysisDaemon() as daemon:
            client = InProcessClient(daemon)
            with pytest.raises(DaemonError) as err:
                client.register_workload("x", "nope")
            assert err.value.code == "invalid"
            with pytest.raises(DaemonError) as err:
                client.register_workload("x", "multibus_chain", {"bogus": 1})
            assert err.value.code == "invalid"
            with pytest.raises(DaemonError) as err:
                client.request("register", name="x", workload={})
            assert err.value.code == "protocol"

    @pytest.mark.parametrize("params, field", [
        ({"n_messages": 8.7, "seed": 1}, "n_messages"),
        ({"n_messages": 8, "seed": "1"}, "seed"),
        ({"n_messages": 8, "seed": True}, "seed"),
        ({"n_messages": 8.0}, "n_messages"),
        ({"n_messages": 8, "bit_rate_bps": "fast"}, "bit_rate_bps"),
        ({"n_messages": 8, "bit_rate_bps": 10 ** 400}, "bit_rate_bps"),
        ({"n_messages": 8, "id_policy": 1}, "id_policy"),
    ])
    def test_workload_params_are_not_coerced(self, params, field):
        with AnalysisDaemon() as daemon:
            client = InProcessClient(daemon)
            with pytest.raises(DaemonError, match=repr(field)) as err:
                client.register_workload("x", "synthetic_bus", params)
            assert err.value.code == "invalid"
            assert daemon.pool.targets() == []
            # A float parameter still takes an integer.
            client.register_workload("x", "synthetic_bus",
                                     {"n_messages": 8, "bit_rate_bps": 250000})
            bus = daemon.pool.get("x").base_config.bus
            assert bus.bit_rate_bps == 250000.0

    def test_identical_workloads_dedupe_into_one_session(self):
        with AnalysisDaemon() as daemon:
            client = InProcessClient(daemon)
            params = {"n_messages": 8, "seed": 1}
            client.register_workload("alice", "synthetic_bus", params)
            client.register_workload("bob", "synthetic_bus", params)
            assert daemon.pool.get("alice") is daemon.pool.get("bob")
