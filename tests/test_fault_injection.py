"""Fault-injection tests of the serving tier.

Every test drives a *failure* path -- deadline blown, daemon overloaded
or draining, connection dropped, daemon restarted mid-conversation -- and
asserts the contract of :mod:`repro.server.protocol`'s error taxonomy:
the client always gets a typed error or a bit-identical retried result,
never a hung future, a dead socket without recourse, or a silently
wrong number.

Fault schedules come from :class:`repro.server.faults.FaultInjector` so
each failure fires deterministically on the n-th pass through a named
site; nothing here sleeps and hopes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.can.kmatrix import KMatrix
from repro.cancel import Cancelled, CancelToken, DeadlineExceeded
from repro.server import AnalysisDaemon, DaemonError, InProcessClient, \
    ProtocolError, TcpClient
from repro.server.client import ConnectionLost, RetryPolicy
from repro.server.faults import (
    FaultInjector,
    FaultSpecError,
    from_env,
)
from repro.server.harness import ServerHarness
from repro.server.protocol import deltas_to_json
from repro.server.tcp import start_server
from repro.service.deltas import BusConfiguration, JitterDelta
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)
from repro.workloads.scaling import scaled_kmatrix

def _powertrain_config(n_messages: int = 20) -> BusConfiguration:
    config = PowertrainConfig(n_messages=n_messages)
    return BusConfiguration(
        kmatrix=powertrain_kmatrix(config),
        bus=powertrain_bus(config),
        assumed_jitter_fraction=0.15,
        controllers=powertrain_controllers(config))


def _divergent_config() -> BusConfiguration:
    """A workload whose utilization sits just above 1.

    The busy-period fixed point grows geometrically toward the horizon,
    so an unbounded analysis takes seconds -- long enough that any
    reasonable ``deadline_ms`` fires first, on either kernel backend.
    """
    bus = powertrain_bus()
    base = scaled_kmatrix(0.99, bus, seed=1)
    u0 = sum(bus.transmission_time(m) / m.period for m in base.messages)
    scale = u0 / 1.00002
    overloaded = KMatrix(messages=[replace(m, period=m.period * scale)
                                   for m in base.messages])
    return BusConfiguration(kmatrix=overloaded, bus=bus)


@pytest.fixture(scope="module")
def config() -> BusConfiguration:
    return _powertrain_config()


@pytest.fixture(scope="module")
def divergent() -> BusConfiguration:
    return _divergent_config()


def _fresh_daemon(config, *, faults=None, **kwargs) -> AnalysisDaemon:
    daemon = AnalysisDaemon(
        faults=faults if faults is not None else FaultInjector(), **kwargs)
    daemon.add_config("pt", config)
    return daemon


def _assert_pool_clean(daemon: AnalysisDaemon) -> None:
    """No request left in flight, no leaked worker threads after a drain."""
    assert daemon._inflight == 0
    assert not any(t.name.startswith("repro-worker")
                   for t in threading.enumerate())


# --------------------------------------------------------------------------- #
# Fault-spec parsing
# --------------------------------------------------------------------------- #
class TestFaultSpecs:
    def test_spec_round_trip(self):
        injector = FaultInjector.from_spec(
            "tcp.drop@2, worker.stall@1:200, handle.stall@3+:50")
        assert injector
        assert injector.check("tcp.drop") is None          # hit 1
        rule = injector.check("tcp.drop")                  # hit 2
        assert rule is not None and rule.nth == 2
        assert injector.fired() == ("tcp.drop#2",)

    def test_onwards_rule_keeps_firing(self):
        injector = FaultInjector.from_spec("handle.stall@2+:5")
        assert injector.check("handle.stall") is None
        assert injector.check("handle.stall").arg == 5.0
        assert injector.check("handle.stall").arg == 5.0

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault site"):
            FaultInjector.from_spec("tcp.explode@1")

    @pytest.mark.parametrize("spec", ["tcp.drop@x", "tcp.drop@0",
                                      "tcp.slow@1:fast", "tcp.slow@1:-3"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            FaultInjector.from_spec(spec)

    def test_from_env(self):
        injector = from_env({"REPRO_FAULTS": "tcp.drop@1"})
        assert injector and injector.check("tcp.drop") is not None
        assert not from_env({})

    def test_empty_injector_is_free(self):
        assert FaultInjector().check("tcp.drop") is None


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_divergent_query_times_out_within_twice_deadline(
            self, config, divergent):
        """The acceptance criterion: a 100 ms deadline against a divergent
        fixed point answers a typed ``timeout`` within 200 ms, while a
        concurrent client's queries still come back bit-identical."""
        daemon = _fresh_daemon(config)
        daemon.add_config("div", divergent)
        client = InProcessClient(daemon)
        try:
            reference = client.query("pt")["results"]
            outcome = {}

            def divergent_query():
                start = time.monotonic()
                response = daemon.handle({"op": "query", "target": "div",
                                          "deadline_ms": 100, "id": 1})
                outcome["elapsed_ms"] = (time.monotonic() - start) * 1000
                outcome["response"] = response

            worker = threading.Thread(target=divergent_query)
            worker.start()
            concurrent = client.query("pt")["results"]
            worker.join(timeout=5)
            assert not worker.is_alive()
            response = outcome["response"]
            assert response["ok"] is False
            assert response["code"] == "timeout"
            assert response["id"] == 1
            assert outcome["elapsed_ms"] < 200
            assert concurrent == reference
            assert client.query("pt")["results"] == reference
            assert daemon.handle({"op": "stats"})["result"]["timeouts"] == 1
        finally:
            daemon.close(grace=0.5)
        _assert_pool_clean(daemon)

    def test_generous_deadline_result_bit_identical(self, config):
        daemon = _fresh_daemon(config)
        client = InProcessClient(daemon)
        try:
            plain = client.query("pt")["results"]
            bounded = client.query("pt", deadline_ms=60_000)["results"]
            assert bounded == plain
        finally:
            daemon.close(grace=0.5)

    @pytest.mark.parametrize("bad", ["soon", -5, 0, True])
    def test_invalid_deadline_is_protocol_error(self, config, bad):
        daemon = _fresh_daemon(config)
        try:
            response = daemon.handle(
                {"op": "query", "target": "pt", "deadline_ms": bad})
            assert response["ok"] is False
            assert response["code"] == "protocol"
        finally:
            daemon.close(grace=0.5)

    def test_cancelled_carries_reason(self):
        token = CancelToken()
        token.cancel(reason="draining")
        with pytest.raises(Cancelled) as exc_info:
            token.check()
        assert exc_info.value.reason == "draining"
        with pytest.raises(DeadlineExceeded):
            CancelToken.after_ms(-1).check()


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_overloaded_response_carries_retry_hint(self, config):
        daemon = _fresh_daemon(config, max_inflight=1)
        try:
            with daemon._active_lock:
                daemon._inflight += 1  # occupy the only slot
            response = daemon.handle({"op": "query", "target": "pt"})
            assert response["ok"] is False
            assert response["code"] == "overloaded"
            assert response["retry_after_ms"] >= 50
            # control ops are exempt from admission control
            assert daemon.handle({"op": "health"})["ok"] is True
            stats = daemon.handle({"op": "stats"})["result"]
            assert stats["rejected_overload"] == 1
            with daemon._active_lock:
                daemon._inflight -= 1
        finally:
            daemon.close(grace=0.5)

    def test_client_retries_through_overload(self, config):
        daemon = _fresh_daemon(config, max_inflight=1)
        client = InProcessClient(
            daemon, retry=RetryPolicy(attempts=5, base_delay=0.02, jitter=0))
        try:
            reference = client.query("pt")["results"]
            with daemon._active_lock:
                daemon._inflight += 1

            def release():
                time.sleep(0.03)
                with daemon._active_lock:
                    daemon._inflight -= 1

            threading.Thread(target=release).start()
            assert client.query("pt")["results"] == reference
            assert client.retries >= 1
        finally:
            daemon.close(grace=0.5)


# --------------------------------------------------------------------------- #
# Graceful drain through the daemon (in-process and TCP)
# --------------------------------------------------------------------------- #
class TestGracefulDrain:
    def test_shutdown_during_batch_resolves_every_step(self, config):
        """Closing the daemon mid-batch yields, per step, either a result
        bit-identical to a serial run or a typed error entry."""
        reference_daemon = _fresh_daemon(config)
        try:
            reference = InProcessClient(reference_daemon).query(
                "pt", deltas=[JitterDelta(fraction=0.2)])["results"]
        finally:
            reference_daemon.close(grace=0.5)

        daemon = _fresh_daemon(
            config, faults=FaultInjector.from_spec("worker.stall@1+:40"))
        steps = [{"deltas": deltas_to_json([JitterDelta(fraction=0.2)]),
                  "label": f"step{i}"} for i in range(6)]
        outcome = {}

        def run_batch():
            outcome["response"] = daemon.handle(
                {"op": "batch", "target": "pt",
                 "queries": steps, "id": 3})

        worker = threading.Thread(target=run_batch)
        worker.start()
        time.sleep(0.06)  # let some steps finish, others wait their turn
        daemon.close(grace=0.15)
        worker.join(timeout=10)
        assert not worker.is_alive()
        response = outcome["response"]
        assert response["id"] == 3
        if response["ok"]:
            results = response["result"]["results"]
            assert len(results) == len(steps)
            for entry in results:
                if "error" in entry:
                    assert entry["code"] == "draining"
                else:
                    assert entry["results"] == reference
        else:
            assert response["code"] in ("draining", "timeout")
        _assert_pool_clean(daemon)

    def test_tcp_shutdown_during_batch_answers_not_dead_socket(self, config):
        daemon = _fresh_daemon(
            config, faults=FaultInjector.from_spec("worker.stall@1+:40"))
        server = start_server(daemon, port=0)
        client = TcpClient(*server.address, retry=RetryPolicy(attempts=1))
        outcome = {}

        def run_batch():
            try:
                outcome["result"] = client.batch(
                    "pt", [{"label": f"s{i}"} for i in range(6)])
            except DaemonError as error:
                outcome["error"] = error

        worker = threading.Thread(target=run_batch)
        worker.start()
        time.sleep(0.06)
        server.stop(grace=0.15)
        worker.join(timeout=10)
        assert not worker.is_alive()
        # Either a full per-step answer or a *typed* error -- a bare dead
        # socket surfaces as ConnectionLost, which is also typed.
        if "error" in outcome:
            assert isinstance(outcome["error"], DaemonError)
            assert outcome["error"].code in ("draining", "timeout",
                                             "transport")
        else:
            assert len(outcome["result"]["results"]) == 6
        client.close()
        _assert_pool_clean(daemon)

    def test_drain_cancels_in_flight_query(self, config, divergent):
        """A deadline-less query stuck in a divergent fixed point is
        cancelled by the drain once its grace window passes, and answers a
        typed ``draining`` error instead of running to the horizon."""
        daemon = _fresh_daemon(config)
        daemon.add_config("div", divergent)
        outcome = {}

        def divergent_query():
            outcome["response"] = daemon.handle(
                {"op": "query", "target": "div", "id": 5})

        worker = threading.Thread(target=divergent_query)
        worker.start()
        time.sleep(0.05)
        started = time.monotonic()
        daemon.close(grace=0.1)
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert time.monotonic() - started < 5.0
        response = outcome["response"]
        assert response["ok"] is False
        assert response["code"] == "draining"
        assert response["id"] == 5
        assert daemon.metrics.value("daemon_inflight") == 0
        _assert_pool_clean(daemon)

    def test_post_drain_requests_typed_while_control_ops_answer(self, config):
        daemon = _fresh_daemon(config)
        daemon.close(grace=0.2)
        rejected = daemon.handle({"op": "query", "target": "pt"})
        assert rejected["ok"] is False and rejected["code"] == "draining"
        assert daemon.handle({"op": "ping"})["ok"] is True
        health = daemon.handle({"op": "health"})["result"]
        assert health["status"] == "draining"
        assert daemon.handle({"op": "stats"})["result"][
            "rejected_draining"] == 1


# --------------------------------------------------------------------------- #
# Daemon counters: one source, the metrics registry
# --------------------------------------------------------------------------- #
class TestDaemonCounters:
    def test_stats_and_signals_equal_registry_series(self, config,
                                                      divergent):
        daemon = _fresh_daemon(config, max_inflight=4)
        daemon.add_config("div", divergent)
        steps = [{"deltas": deltas_to_json((JitterDelta(fraction=f),))}
                 for f in (0.1, 0.2, 0.3)]
        try:
            timeout = daemon.handle(
                {"op": "query", "target": "div", "deadline_ms": 50})
            assert timeout["code"] == "timeout"
            batch = daemon.handle({"op": "batch", "target": "div",
                                   "deadline_ms": 50, "queries": steps})
            assert batch["ok"] is True
            assert [slot["code"] for slot in batch["result"]["results"]] \
                == ["timeout"] * len(steps)
            assert daemon.handle({"op": "batch", "target": "pt",
                                  "queries": "abc"})["code"] == "protocol"
            assert daemon.handle({"op": "frobnicate"})["code"] == "invalid"
            assert daemon.handle({"op": "query", "target": "nope"})[
                "code"] == "unknown_target"
            with daemon._active_lock:
                daemon._inflight += 4  # occupy every admission slot
            assert daemon.handle({"op": "query", "target": "pt"})[
                "code"] == "overloaded"
            with daemon._active_lock:
                daemon._inflight -= 4
            assert daemon.handle({"op": "query", "target": "pt"})["ok"]
        finally:
            daemon.close(grace=0.5)
        assert daemon.handle({"op": "query", "target": "pt"})[
            "code"] == "draining"

        codes = daemon.metrics.family("daemon_errors_total", "code")
        assert codes == {"draining": 1, "invalid": 1, "overloaded": 1,
                         "protocol": 1,
                         "timeout": 1 + len(steps), "unknown_target": 1}
        stats = daemon.handle({"op": "stats"})["result"]
        ops = daemon.metrics.family("daemon_requests_total", "op")
        signals = daemon.handle({"op": "health"})["result"]["signals"]
        expected = {"timeouts": codes["timeout"],
                    "rejected_overload": codes["overloaded"],
                    "rejected_draining": codes["draining"]}
        assert stats["requests_served"] == sum(ops.values())
        assert stats["ops"] == ops
        assert stats["errors"] == sum(codes.values())
        for field, value in expected.items():
            assert stats[field] == value, field
            assert signals[field] == value, field
        assert (f"{int(sum(ops.values())) + 1} requests served "
                f"({stats['errors']} errors)") in daemon.describe()

    def test_unexpected_exception_is_typed_internal(self, config,
                                                    monkeypatch):
        """An exception outside the taxonomy -- raised by the handler or by
        encoding its result -- still gets exactly one typed ``internal``
        reply, in-process and over TCP, and the connection survives."""
        daemon = _fresh_daemon(config)

        def overflowing(params, cancel=None):
            raise OverflowError("int too large to convert to float")

        server = start_server(daemon, port=0)
        try:
            with TcpClient(*server.address) as tcp:
                expected = tcp.query("pt")["results"]
                monkeypatch.setattr(daemon, "_op_query", overflowing)
                response = daemon.handle(
                    {"op": "query", "target": "pt", "id": 7})
                assert response["ok"] is False
                assert response["code"] == "internal"
                assert response["id"] == 7
                assert "OverflowError" in response["error"]
                with pytest.raises(DaemonError) as caught:
                    tcp.query("pt")
                assert caught.value.code == "internal"
                # A result the wire codec refuses (NaN) is replaced by a
                # typed error instead of killing the connection.
                monkeypatch.setattr(daemon, "_op_query",
                                    lambda params, cancel=None:
                                    {"worst_case": float("nan")})
                with pytest.raises(DaemonError) as caught:
                    tcp.query("pt")
                assert caught.value.code == "internal"
                monkeypatch.undo()
                assert tcp.query("pt")["results"] == expected
                assert tcp.reconnects == 0
        finally:
            server.stop()
        codes = daemon.metrics.family("daemon_errors_total", "code")
        assert codes == {"internal": 3}


# --------------------------------------------------------------------------- #
# TCP faults: drops, slow reads, restarts
# --------------------------------------------------------------------------- #
class TestTcpFaults:
    def test_dropped_connection_retried_bit_identical(self, config):
        daemon = _fresh_daemon(
            config, faults=FaultInjector.from_spec("tcp.drop@2"))
        server = start_server(daemon, port=0)
        client = TcpClient(*server.address,
                           retry=RetryPolicy(base_delay=0.01, jitter=0))
        try:
            first = client.query("pt")["results"]
            retried = client.query("pt")["results"]  # dropped, then retried
            assert retried == first
            assert client.retries == 1 and client.reconnects == 1
            assert daemon.faults.fired() == ("tcp.drop#2",)
        finally:
            client.close()
            server.stop(grace=0.5)

    def test_drop_without_retries_is_typed_connection_lost(self, config):
        daemon = _fresh_daemon(
            config, faults=FaultInjector.from_spec("tcp.drop@1"))
        server = start_server(daemon, port=0)
        client = TcpClient(*server.address, retry=RetryPolicy(attempts=1))
        try:
            with pytest.raises(ConnectionLost) as exc_info:
                client.query("pt")
            assert exc_info.value.code == "transport"
            assert exc_info.value.retryable
        finally:
            client.close()
            server.stop(grace=0.5)

    def test_slow_read_then_clean_recovery(self, config):
        """A slow response delays but does not desynchronise the stream."""
        daemon = _fresh_daemon(
            config, faults=FaultInjector.from_spec("tcp.slow@1:80"))
        server = start_server(daemon, port=0)
        client = TcpClient(*server.address,
                           retry=RetryPolicy(base_delay=0.01, jitter=0))
        try:
            start = time.monotonic()
            first = client.query("pt")["results"]
            assert time.monotonic() - start >= 0.08
            assert client.query("pt")["results"] == first
            assert client.retries == 0  # slow, not broken
        finally:
            client.close()
            server.stop(grace=0.5)

    def test_mid_conversation_restart_retried_bit_identical(self, config):
        with ServerHarness(lambda: _fresh_daemon(config)) as harness:
            client = TcpClient(*harness.address,
                               retry=RetryPolicy(base_delay=0.02, jitter=0))
            before = client.query("pt")["results"]
            harness.restart()
            after = client.query("pt")["results"]
            assert after == before
            assert client.reconnects >= 1
            assert harness.restarts == 1
            client.close()

    def test_register_not_retried_after_send(self, config):
        """Non-idempotent ops surface a mid-request drop instead of
        silently re-sending."""
        daemon = _fresh_daemon(
            config, faults=FaultInjector.from_spec("tcp.drop@1"))
        server = start_server(daemon, port=0)
        client = TcpClient(*server.address,
                           retry=RetryPolicy(attempts=3, base_delay=0.01,
                                             jitter=0))
        try:
            with pytest.raises(ConnectionLost) as exc_info:
                client.register_config("pt2", config)
            assert exc_info.value.sent
            assert client.retries == 0
        finally:
            client.close()
            server.stop(grace=0.5)


# --------------------------------------------------------------------------- #
# Response-id verification
# --------------------------------------------------------------------------- #
class TestResponseIds:
    @pytest.mark.parametrize("op,params", [
        ("ping", {}),
        ("health", {}),
        ("stats", {}),
        ("targets", {}),
        ("scenarios", {}),
        ("query", {"target": "pt"}),
        ("batch", {"target": "pt", "queries": [{"label": "a"}]}),
        ("nonsense", {}),
    ])
    def test_every_response_echoes_request_id(self, config, op, params):
        daemon = _fresh_daemon(config)
        try:
            response = daemon.handle({"op": op, "id": 7719, **params})
            assert response["id"] == 7719
        finally:
            daemon.close(grace=0.5)

    def test_mismatched_id_raises_protocol_error(self, config):
        class MisroutingDaemon(AnalysisDaemon):
            def handle(self, request, **kwargs):
                response = super().handle(request, **kwargs)
                response["id"] = -1
                return response

        daemon = MisroutingDaemon(faults=FaultInjector())
        daemon.add_config("pt", config)
        client = InProcessClient(daemon)
        try:
            with pytest.raises(ProtocolError, match="does not match"):
                client.query("pt")
        finally:
            daemon.close(grace=0.5)
