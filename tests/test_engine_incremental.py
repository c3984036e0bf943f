"""Engine-on-sessions equivalence: incremental vs rebuild-per-iteration.

The compositional engine issues :class:`EventModelDelta` queries to
per-segment :class:`AnalysisSession` objects in every ``REPRO_PARALLEL``
mode.  ``incremental=False`` is the from-scratch reference that
reconstructs ``CanBusAnalysis`` every global iteration (the only sweep
``process`` hands to worker processes), and everything here asserts the
two are **bit-identical** -- results, models, reports, convergence and
iteration counts -- across the multibus workload family and under warm
re-analysis.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

import repro.core.engine

from repro.can.kmatrix import KMatrix
from repro.core.engine import CompositionalAnalysis
from repro.obs.metrics import MetricsRegistry
from repro.service.session import AnalysisSession
from repro.workloads.multibus import multibus_system


def _assert_identical(first, second) -> None:
    assert first.converged == second.converged
    assert first.iterations == second.iterations
    assert first.message_results == second.message_results
    assert first.send_models == second.send_models
    assert first.arrival_models == second.arrival_models
    assert first.task_results == second.task_results
    assert first.bus_reports == second.bus_reports


def _run_both(system):
    rebuild = CompositionalAnalysis(system, incremental=False).run()
    incremental = CompositionalAnalysis(system, incremental=True).run()
    _assert_identical(rebuild, incremental)
    return rebuild


class TestEngineOnSessions:
    @pytest.mark.parametrize("n_buses,messages,seed", [
        (2, 6, 0), (3, 10, 1), (4, 12, 2), (5, 8, 3), (6, 15, 4),
    ])
    def test_multibus_chains_bit_identical(self, n_buses, messages, seed):
        system = multibus_system(
            n_buses=n_buses, messages_per_bus=messages, seed=seed)
        result = _run_both(system)
        assert result.converged

    def test_denser_routing_bit_identical(self):
        system = multibus_system(
            n_buses=4, messages_per_bus=10, seed=7, routes_per_gateway=3)
        _run_both(system)

    def test_harsher_errors_bit_identical(self):
        system = multibus_system(
            n_buses=3, messages_per_bus=10, seed=9,
            error_interarrival_ms=20.0, assumed_jitter_fraction=0.3)
        _run_both(system)

    def test_repeated_runs_on_one_engine_are_identical(self):
        system = multibus_system(n_buses=4, messages_per_bus=10, seed=11)
        engine = CompositionalAnalysis(system)
        first = engine.run()
        second = engine.run()
        _assert_identical(first, second)
        # The re-run is served almost entirely from the session caches.
        stats = engine.session_stats()
        assert sum(s.cache_hits for s in stats) > 0

    def test_reanalysis_after_segment_edit_is_exact(self):
        """Mutating a segment between runs must not serve stale results."""
        system = multibus_system(n_buses=4, messages_per_bus=10, seed=13)
        engine = CompositionalAnalysis(system)
        engine.run()
        segment = system.buses["CAN-0"]
        victim = segment.kmatrix.sorted_by_priority()[0]
        segment.kmatrix = KMatrix(messages=[
            replace(m, jitter=(m.jitter or 0.0) + 0.4 * m.period)
            if m.name == victim.name else m
            for m in segment.kmatrix.messages])
        incremental = engine.run()
        fresh = CompositionalAnalysis(system, incremental=False).run()
        _assert_identical(fresh, incremental)

    def test_ecu_system_bit_identical_and_reanalysis_sees_ecu_edits(self):
        """Systems with detailed ECU models: equivalence, plus a persistent
        engine must pick up a replaced ECU model on the next run."""
        from dataclasses import replace as dc_replace

        from test_core import _two_bus_system

        system = _two_bus_system()
        _run_both(system)
        engine = CompositionalAnalysis(system)
        engine.run()
        ecu = system.ecus["EngineECU"]
        system.ecus["EngineECU"] = dc_replace(ecu, tasks=[
            dc_replace(task, wcet=task.wcet * 2.0) for task in ecu.tasks])
        incremental = engine.run()
        fresh = CompositionalAnalysis(system, incremental=False).run()
        _assert_identical(fresh, incremental)
        assert incremental.task_results[
            "EngineECU.TorqueTask"].worst_case > 1.5

    def test_engine_accepts_external_sessions(self):
        """The daemon shares its pool sessions with the engine this way."""
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=15)
        sessions = {
            segment.name: AnalysisSession.from_segment(
                segment, controllers=dict(system.controllers) or None,
                name=f"pool:{segment.name}")
            for segment in system.buses.values()
        }
        engine = CompositionalAnalysis(system, sessions=sessions)
        result = engine.run()
        fresh = CompositionalAnalysis(system, incremental=False).run()
        _assert_identical(fresh, result)
        assert all(session.queries > 0 for session in sessions.values())
        assert engine.session_for("CAN-0") is sessions["CAN-0"]

    def test_unknown_session_bus_rejected(self):
        system = multibus_system(n_buses=2, messages_per_bus=6, seed=1)
        session = AnalysisSession.from_segment(system.buses["CAN-0"])
        with pytest.raises(ValueError, match="unknown buses"):
            CompositionalAnalysis(system, sessions={"CAN-X": session})

    def test_process_mode_runs_on_sessions(self, monkeypatch):
        """``REPRO_PARALLEL=process`` does not pick the algorithm: the
        default engine still queries its segment sessions, fans nothing
        out, and stays bit-identical to ``serial``."""
        system = multibus_system(n_buses=3, messages_per_bus=6, seed=17)
        monkeypatch.setenv("REPRO_PARALLEL", "serial")
        serial = CompositionalAnalysis(system).run()
        monkeypatch.setenv("REPRO_PARALLEL", "process")

        def no_fan_out(*args, **kwargs):
            raise AssertionError("the session path fanned out")

        monkeypatch.setattr(repro.core.engine, "parallel_map", no_fan_out)
        registry = MetricsRegistry()
        sessions = {
            segment.name: AnalysisSession.from_segment(
                segment, controllers=dict(system.controllers) or None,
                metrics=registry)
            for segment in system.buses.values()
        }
        process = CompositionalAnalysis(system, sessions=sessions).run()
        assert registry.value("session_queries_total") > 0
        _assert_identical(serial, process)

    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("mode", [None, "auto"])
    def test_run_starts_no_thread(self, monkeypatch, mode, incremental):
        """Segment analyses hold the GIL, so every global iteration runs
        them on the calling thread: no pool, no thread.  (Under ``process``
        only the ``incremental=False`` reference fans out, to worker
        processes.)"""
        system = multibus_system(n_buses=4, messages_per_bus=8, seed=19)
        monkeypatch.setenv("REPRO_PARALLEL", "serial")
        serial = CompositionalAnalysis(system, incremental=incremental).run()
        if mode is None:
            monkeypatch.delenv("REPRO_PARALLEL")
        else:
            monkeypatch.setenv("REPRO_PARALLEL", mode)

        started = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        result = CompositionalAnalysis(system, incremental=incremental).run()
        monkeypatch.undo()
        assert started == []
        _assert_identical(serial, result)
