"""Persistent result store + named workload registry tests.

The store's contract mirrors the serving caches it persists: every
store-served answer must be *bit-identical* to a cold solve, and every
failure mode of the disk (torn writes, foreign bytes, stale schema
versions, concurrent daemons sharing one directory) must degrade to a
counted miss plus a cold solve -- never a wrong number, never an
exception out of a request.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import struct
import sys
import threading
from typing import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.response_time import MessageResponseTime
from repro.analysis.schedulability import MessageVerdict, SchedulabilityReport
from repro.can.bus import CanBus
from repro.core.results import SystemAnalysisResult
from repro.ecu.analysis import TaskResponseTime
from repro.events.model import (
    EventModel,
    PeriodicEventModel,
    PeriodicWithBurst,
    PeriodicWithJitter,
    SporadicEventModel,
)
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
    floats_from_json,
    floats_to_json,
    system_result_from_json,
    system_result_to_json,
)
from repro.whatif.session import SystemSession, _store_digest
from repro.whatif.system_deltas import BusSpeedDelta, SegmentConfigDelta
from repro.workloads import builtin_registry, multibus_system, synthetic_kmatrix
from repro.service.deltas import JitterDelta


def _bus_session(n_messages=10, seed=0, **kwargs) -> AnalysisSession:
    kmatrix = synthetic_kmatrix(n_messages, seed=seed)
    bus = CanBus(name="B", bit_rate_bps=500_000.0)
    return AnalysisSession(kmatrix, bus, **kwargs)


def _fleet(seed=7):
    return multibus_system(n_buses=3, messages_per_bus=8, seed=seed)


def _result(name="M1", delays=(0.3, 0.7)) -> MessageResponseTime:
    return MessageResponseTime(
        name=name, can_id=0x80, transmission_time=0.26, blocking=0.26,
        jitter=1.5, worst_case=2.0, best_case=0.26, busy_period=3.0,
        instances_analyzed=len(delays), bounded=True,
        queuing_delays=tuple(delays))


def _bits(value):
    """A comparable image of ``value`` in which every float is its bytes.

    ``==`` cannot see ``-0.0`` vs ``0.0`` and fails on ``nan``; the image
    tells them apart and matches identical doubles, NaN payloads included.
    """
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, Mapping):
        return tuple((key, _bits(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    return (type(value).__name__, value)


def _entry(store: ResultStore, kind: str, digest: str) -> dict:
    return json.loads(store._path(kind, digest).read_bytes())


def _rewrite(store: ResultStore, kind: str, digest: str, record: dict) -> None:
    store._path(kind, digest).write_text(json.dumps(record))


# --------------------------------------------------------------------------- #
# Codec: bit-exact round trips
# --------------------------------------------------------------------------- #
class TestCodec:
    def test_floats_round_trip_bit_exactly(self):
        values = [0.0, -0.0, 5e-324, 1e-308, 0.1 + 0.2, 123456.789, math.pi,
                  math.inf, -math.inf]
        text = json.loads(json.dumps(floats_to_json(values)))
        assert _bits(floats_from_json(text, len(values))) == _bits(values)

    def test_nan_round_trips(self):
        quiet = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
        values = [math.nan, -math.nan, quiet]
        back = floats_from_json(floats_to_json(values), 3)
        assert _bits(back) == _bits(values)

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
        assert _bits(system_result_from_json(wire)) == _bits(outcome)

    def test_payload_is_columnar(self):
        outcome = SystemSession(_fleet()).analyze().result
        payload = system_result_to_json(outcome)
        messages = payload["messages"]
        assert messages["name"] == list(outcome.message_results)
        assert len(base64.b64decode(messages["times"])) \
            == 8 * 6 * len(outcome.message_results)
        assert sum(messages["queuing_count"]) == sum(
            len(r.queuing_delays) for r in outcome.message_results.values())


# Every double the codec must carry by its bytes: the non-finite worst cases,
# signed zeros, subnormals and NaNs with payloads among ordinary values.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                     2.225073858507201e-308]))
_NONNEG = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.inf, 5e-324]))
_PERIOD = st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True)
_NAMES = st.text(max_size=6)
_INTS = st.integers(min_value=-(2 ** 31), max_value=2 ** 31)


@st.composite
def _message_results(draw, names):
    bounded = draw(st.booleans())
    delays = draw(st.lists(_ANY_FLOAT, max_size=4))
    worst = draw(_ANY_FLOAT) if bounded else math.inf
    return {name: MessageResponseTime(
        name, draw(_INTS), draw(_ANY_FLOAT), draw(_ANY_FLOAT),
        draw(_ANY_FLOAT), worst, draw(_ANY_FLOAT), draw(_ANY_FLOAT),
        draw(_INTS), bounded, tuple(delays)) for name in names}


@st.composite
def _bus_results(draw):
    return draw(_message_results(
        draw(st.lists(_NAMES, max_size=6, unique=True))))


@st.composite
def _event_model(draw):
    cls = draw(st.sampled_from([EventModel, PeriodicEventModel,
                                PeriodicWithJitter, PeriodicWithBurst,
                                SporadicEventModel]))
    period = draw(_PERIOD)
    jitter = 0.0 if cls is PeriodicEventModel else draw(_NONNEG)
    distance = draw(_NONNEG)
    if cls is PeriodicWithBurst:
        distance = draw(st.floats(min_value=5e-324, allow_infinity=True))
    return cls(period, jitter, distance)


@st.composite
def _report(draw):
    verdicts = tuple(
        MessageVerdict(name, draw(_INTS), draw(_ANY_FLOAT), draw(_ANY_FLOAT),
                       draw(_ANY_FLOAT), draw(st.booleans()),
                       draw(st.booleans()))
        for name in draw(st.lists(_NAMES, max_size=4)))
    return SchedulabilityReport(
        verdicts, draw(st.sampled_from(["period", "min_interarrival"])),
        draw(_ANY_FLOAT))


@st.composite
def _system_results(draw):
    names = draw(st.lists(_NAMES, max_size=6, unique=True))
    tasks = {key: TaskResponseTime(
        draw(_NAMES), draw(_ANY_FLOAT), draw(_ANY_FLOAT), draw(_ANY_FLOAT),
        draw(_ANY_FLOAT), draw(_INTS), draw(st.booleans()))
        for key in draw(st.lists(_NAMES, max_size=3, unique=True))}
    models = st.dictionaries(_NAMES, _event_model(), max_size=5)
    return SystemAnalysisResult(
        converged=draw(st.booleans()), iterations=draw(_INTS),
        message_results=draw(_message_results(names)),
        task_results=tasks,
        bus_reports=draw(st.dictionaries(_NAMES, _report(), max_size=3)),
        send_models=draw(models), arrival_models=draw(models))


def _columns(table: dict, path: tuple = ()):
    """Every (path, value) column of a payload, nested tables included."""
    for key, value in table.items():
        if isinstance(value, dict):
            yield from _columns(value, path + (key,))
        elif isinstance(value, (list, str)):
            yield path + (key,), value


def _malform(payload: dict, path: tuple, how: str) -> None:
    """Damage one column so that no decoder can accept it."""
    *parents, field = path
    table = payload
    for key in parents:
        table = table[key]
    column = table[field]
    if isinstance(column, list):
        # A ragged column: one value too many, of the column's own type.
        table[field] = column + [column[0] if column else 0]
    elif how == "base64":
        table[field] = "*not base64*"
    else:
        table[field] = base64.b64encode(
            base64.b64decode(column) + b"\0").decode("ascii")


class TestCodecProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(results=_bus_results())
    def test_bus_payload_round_trips_bit_identically(self, results):
        wire = json.loads(json.dumps(bus_payload_to_json(results),
                                     allow_nan=False))
        assert _bits(bus_payload_from_json(wire, names=set(results))) \
            == _bits(results)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(result=_system_results())
    def test_system_result_round_trips_bit_identically(self, result):
        wire = json.loads(json.dumps(system_result_to_json(result),
                                     allow_nan=False))
        assert _bits(system_result_from_json(wire)) == _bits(result)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(result=_system_results(), data=st.data(),
           how=st.sampled_from(["base64", "bytes"]))
    def test_malformed_column_is_a_counted_corrupt_miss(
            self, tmp_path_factory, result, data, how):
        store = ResultStore(tmp_path_factory.mktemp("store"))
        assert store.put("system", "aa", result)
        record = _entry(store, "system", "aa")
        paths = [path for path, _ in _columns(record["payload"])]
        _malform(record["payload"], data.draw(st.sampled_from(paths)), how)
        _rewrite(store, "system", "aa", record)
        assert store.get("system", "aa") is None
        stats = store.stats()
        assert (stats["corrupt"], stats["hits"]) == (1, 0)
        assert not store.contains("system", "aa")


# --------------------------------------------------------------------------- #
# Store core: atomicity, corruption tolerance, eviction
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put("bus", "abc123", {"M1": _result()})
        assert store.get("bus", "abc123") == {"M1": _result()}
        assert store.contains("bus", "abc123")
        assert store.get("bus", "feed00") is None
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_kinds_are_disjoint(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bus", "aa", {})
        assert store.get("system", "aa") is None

    def test_bad_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("bus", "../escape", {})
        with pytest.raises(ValueError):
            store.get("bus", "")

    def test_unencodable_value_is_a_publish_error(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.put("bus", "aa", {"M2": _result("M1")})
        assert not store.put("system", "aa", {"not": "a result"})
        stats = store.stats()
        assert (stats["publish_errors"], stats["entries"]) == (2, 0)

    def test_torn_bytes_are_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bus", "aa", {})
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
        store.put("bus", "aa", {})
        raw = store._path("bus", "aa").read_bytes()
        store._path("bus", "bb").write_bytes(raw)
        assert store.get("bus", "bb") is None
        assert store.stats()["corrupt"] == 1

    def test_undecodable_payload_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        record = {"schema": SCHEMA_VERSION, "kind": "bus", "key": "aa",
                  "payload": {"results": {}}}
        _rewrite(store, "bus", "aa", record)
        assert store.get("bus", "aa") is None
        stats = store.stats()
        assert (stats["corrupt"], stats["hits"]) == (1, 0)
        assert not store.contains("bus", "aa")

    def test_message_set_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bus", "aa", {"M1": _result()})
        assert store.get("bus", "aa", names={"M1", "M2"}) is None
        assert store.stats()["corrupt"] == 1
        assert not store.contains("bus", "aa")

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
        padded = {"M1": _result(delays=[0.5] * 25)}
        for index in range(10):
            store.put("bus", f"d{index:02d}", padded)
        total = store.stats()["bytes"]
        store.max_bytes = total // 2
        store.put("bus", "d10", padded)
        stats = store.stats()
        assert stats["bytes"] <= store.max_bytes
        assert stats["evictions"] > 0
        # The newest entry survives (oldest-read go first).
        assert store.contains("bus", "d10")

    def test_bounded_publishes_rescan_only_past_the_bound(
            self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path, max_bytes=1 << 30)
        scans = []
        scan = store._scan
        monkeypatch.setattr(
            store, "_scan", lambda: scans.append(None) or scan())
        for index in range(50):
            assert store.put("bus", f"p{index:02d}", {"M1": _result()})
        assert len(scans) <= 1
        # A publish that passes the bound still rescans and evicts.
        store.max_bytes = store.stats()["bytes"]
        store.put("bus", "p50", {"M1": _result()})
        stats = store.stats()
        assert stats["bytes"] <= store.max_bytes and stats["evictions"] > 0
        assert store.contains("bus", "p50")

    def test_lru_touch_on_read(self, tmp_path):
        import os
        store = ResultStore(tmp_path)
        store.put("bus", "old", {})
        store.put("bus", "new", {})
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
            store.put("bus", f"e{index}", {})
        stats = store.compact(max_bytes=0)
        assert stats["entries"] == 0 and stats["evictions"] == 4
        store.put("bus", "f0", {})
        assert store.clear() == 1
        assert store.stats()["entries"] == 0

    def test_publish_claims_each_entry_until_its_file_goes(self, tmp_path):
        results = {"M1": _result()}
        store = ResultStore(tmp_path)
        # A failed attempt keeps the claim: it is not retried.
        store.publish("bus", "bad", {"M2": _result("M1")})
        store.publish("bus", "bad", results)
        store.publish("bus", "aa", results)
        store.publish("bus", "aa", results)
        stats = store.stats()
        assert (stats["publish_errors"], stats["publishes"]) == (1, 1)
        store.clear()
        store.publish("bus", "aa", results)
        assert store.stats()["publishes"] == 2
        # A hit takes the claim; the corrupt read that unlinks the file
        # releases it.
        reader = ResultStore(tmp_path)
        assert reader.get("bus", "aa") == results
        reader.publish("bus", "aa", results)
        reader._path("bus", "aa").write_bytes(b"{")
        assert reader.get("bus", "aa") is None
        reader.publish("bus", "aa", results)
        assert reader.stats()["publishes"] == 1
        assert reader.get("bus", "aa") == results

    def test_publish_claims_end_with_a_file_another_store_unlinked(self, tmp_path):
        results = {"M1": _result()}
        writer, other = ResultStore(tmp_path), ResultStore(tmp_path)
        writer.publish("bus", "x", results)
        other.clear()
        writer.publish("bus", "x", results)
        assert writer.stats()["entries"] == 1
        # A hit's claim ends the same way.
        assert other.get("bus", "x") == results
        writer.clear()
        other.publish("bus", "x", results)
        assert (other.stats()["entries"], other.stats()["publishes"]) == (1, 1)

    def test_concurrent_publishes_write_each_entry_once(self, tmp_path):
        store = ResultStore(tmp_path)
        results = {"M1": _result()}
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait(timeout=30)
            for index in range(20):
                store.publish("bus", f"e{index}", results)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = store.stats()
        assert (stats["publishes"], stats["entries"]) == (20, 20)

    def test_metrics_binding(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path, metrics=registry)
        store.put("bus", "aa", {})
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

    def test_undecodable_bus_entry_is_corrupt_and_replaced(self, tmp_path):
        cold = _bus_session().analyze()
        publisher = _bus_session(store=ResultStore(tmp_path))
        publisher.analyze()
        digest = publisher.key_for(()).digest
        store = ResultStore(tmp_path)
        record = _entry(store, "bus", digest)
        record["payload"]["messages"]["can_id"].pop()
        _rewrite(store, "bus", digest, record)
        reader = _bus_session(store=store)
        assert reader.analyze().results == cold.results
        stats = store.stats()
        assert (stats["hits"], stats["corrupt"]) == (0, 1)
        assert reader.store_hits == 0
        assert stats["publishes"] == 1, "the next publish replaces the entry"
        third = _bus_session(store=ResultStore(tmp_path))
        assert third.analyze().results == cold.results
        assert third.store_hits == 1

    def test_foreign_message_set_is_corrupt_and_replaced(self, tmp_path):
        # Another configuration's fixed points filed under this digest
        # decode cleanly but cover the wrong messages.
        cold = _bus_session(seed=2).analyze()
        foreign = _bus_session(n_messages=6, seed=2).analyze().results
        digest = _bus_session(seed=2).key_for(()).digest
        store = ResultStore(tmp_path)
        store.put("bus", digest, foreign)
        reader = _bus_session(seed=2, store=store)
        assert reader.analyze().results == cold.results
        stats = store.stats()
        assert (stats["hits"], stats["corrupt"]) == (0, 1)
        assert store.get("bus", digest) == cold.results

    def test_undecodable_system_entry_is_corrupt_and_replaced(self, tmp_path):
        system = _fleet()
        cold = SystemSession(system).analyze()
        SystemSession(system, store=ResultStore(tmp_path)).analyze()
        store = ResultStore(tmp_path)
        digest = _store_digest(cold.key)
        record = _entry(store, "system", digest)
        record["payload"]["send_models"]["params"] = "*"
        _rewrite(store, "system", digest, record)
        reader = SystemSession(system, store=store)
        assert reader.analyze().result == cold.result
        stats = store.stats()
        assert (stats["hits"], stats["corrupt"]) == (0, 1)
        assert reader.store_hits == 0
        assert stats["publishes"] == 1
        third = SystemSession(system, store=ResultStore(tmp_path))
        assert third.analyze().result == cold.result
        assert third.store_hits == 1

    def test_system_entry_of_another_pass_order_misses(self, tmp_path):
        # An entry under the bare fingerprint digest -- where an engine
        # of the Jacobi pass order kept its fixed points, with that
        # order's larger ``iterations`` -- is neither served nor removed.
        system = _fleet()
        cold = SystemSession(system).analyze()
        store = ResultStore(tmp_path)
        jacobi = dataclasses.replace(
            cold.result, iterations=cold.result.iterations + 2)
        assert store.put("system", cold.key.digest, jacobi)
        reader = SystemSession(system, store=store)
        assert reader.analyze().result == cold.result
        assert reader.store_hits == 0
        assert store.get("system", cold.key.digest) == jacobi
        assert store.get("system", _store_digest(cold.key)) == cold.result

    def test_older_schema_generation_does_not_block_publishing(self, tmp_path):
        # An entry an older daemon generation left for the same key sits
        # under its own file name: it neither shadows nor blocks this
        # generation's entry, and only ages out through eviction.
        cold = _bus_session().analyze()
        digest = _bus_session().key_for(()).digest
        old = tmp_path / "entries" / f"bus-{digest}.json"
        old.parent.mkdir(parents=True)
        old.write_text(json.dumps({"schema": SCHEMA_VERSION - 1, "kind": "bus",
                                   "key": digest, "payload": {"results": {}}}))
        for generation in range(2):
            store = ResultStore(tmp_path)
            session = _bus_session(store=store)
            assert session.analyze().results == cold.results
            assert session.store_hits == generation
        assert old.exists()
        assert store.stats()["entries"] == 2

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
            hits = b.metrics.value("store_lookups_total", result="hit")
        assert got["results"] == want["results"]
        assert hits == 1

    def test_system_query_persists_one_system_entry(self, tmp_path):
        # The engine's segment queries run on the pool's store-backed
        # shard sessions but neither read nor write bus entries: the
        # system entry already holds the whole fixed point.
        store = ResultStore(tmp_path)
        with AnalysisDaemon(store=store) as daemon:
            daemon.add_system("fleet", _fleet())
            client = InProcessClient(daemon)
            client.system_query("fleet", [BusSpeedDelta("CAN-1", 250_000.0)])
            stats = store.stats()
            names = sorted(path.name.split("-")[0]
                           for path in store.entries_dir.iterdir())
        assert names == ["system"]
        assert (stats["publishes"], stats["hits"]) == (1, 0)
        assert stats["misses"] == 1, "only the system entry was looked up"

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

    def test_cleared_entries_are_published_again(self, tmp_path):
        # Clearing releases each entry's publish claim with its file, so
        # the next answer for a configuration still cached in memory
        # persists it again.
        store = ResultStore(tmp_path)
        with AnalysisDaemon(store=store) as daemon:
            daemon.add_config("bus", _bus_session().base_config)
            daemon.add_system("fleet", _fleet())
            client = InProcessClient(daemon)
            for _ in range(2):
                client.query("bus")
                client.system_query("fleet")
                kinds = sorted(path.name.split("-")[0]
                               for path in store.entries_dir.iterdir())
                assert kinds == ["bus", "system"]
                assert client.store_clear()["stats"]["entries"] == 0

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
            assert err.value.code == "protocol"
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
            assert err.value.code == "protocol"
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
