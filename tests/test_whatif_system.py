"""System-level what-if layer: bit-identity, invalidation, catalogs.

Every :class:`SystemDelta` query answered by a :class:`SystemSession` must
be **bit-identical** to a from-scratch ``CompositionalAnalysis(...,
incremental=False).run()`` on an *independently hand-edited*
:class:`SystemModel` -- the expected topologies here are built by mutating
fresh systems directly, never through ``delta.apply``, so the delta
semantics themselves are under test.  The suite also covers the
fingerprint-based invalidation of in-place gateway/ECU edits (mutable
containers, stable identities) and the ``REPRO_PARALLEL`` modes.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import repro.whatif.session as whatif_session
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.core.engine import (
    CompositionalAnalysis,
    _analyze_segment_job,
    _models_equal,
)
from repro.core.paths import path_latency_all
from repro.core.results import SystemAnalysisResult
from repro.core.system import SystemModel
from repro.ecu.analysis import EcuAnalysis, message_output_models
from repro.errors.models import SporadicErrorModel
from repro.gateway.model import (
    ForwardingPolicy,
    GatewayAnalysis,
    GatewayModel,
    GatewayRoute,
)
from repro.service.deltas import (
    ErrorModelDelta,
    EventModelDelta,
    JitterDelta,
    PriorityDelta,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.session import AnalysisSession
from repro.whatif import (
    AddGatewayRouteDelta,
    BusSpeedDelta,
    EcuTaskDelta,
    GatewayConfigDelta,
    MoveMessageDelta,
    RemoveGatewayRouteDelta,
    SegmentConfigDelta,
    SystemSession,
    apply_system_deltas,
    builtin_system_catalog,
    influence_edges,
)
from repro.workloads.multibus import multibus_paths, multibus_system


def _assert_identical(first, second) -> None:
    assert first.converged == second.converged
    assert first.iterations == second.iterations
    assert first.message_results == second.message_results
    assert first.send_models == second.send_models
    assert first.arrival_models == second.arrival_models
    assert first.task_results == second.task_results
    assert first.bus_reports == second.bus_reports


def _fresh_run(system: SystemModel):
    return CompositionalAnalysis(system, incremental=False).run()


def _check(session: SystemSession, deltas, expected_system: SystemModel,
           paths=()) -> None:
    """One query vs the from-scratch run on the hand-edited system."""
    outcome = session.query(deltas)
    expected = _fresh_run(expected_system)
    _assert_identical(outcome.result, expected)
    if paths:
        got = session.path_latency(paths, deltas)
        want = path_latency_all(paths, expected_system, expected)
        assert got == want


PARAMS = [
    dict(n_buses=2, messages_per_bus=6, seed=0),
    dict(n_buses=3, messages_per_bus=10, seed=1),
    dict(n_buses=4, messages_per_bus=8, seed=2),
]


WALK_PARAMS = dict(n_buses=3, messages_per_bus=8, seed=5)


def _seeded_walk(base: SystemModel):
    """Fifteen seeded steps of one or two topology edits on ``base`` (a
    ``multibus_system(**WALK_PARAMS)``): segment configurations recur
    under topologies that differ elsewhere, so the per-bus caches serve
    other topologies' configurations as bases."""
    route = base.gateways["GW0"].routes[0]
    endpoints = {name for gateway in base.gateways.values()
                 for r in gateway.routes
                 for name in (r.source_message, r.destination_message)}
    victim = next(m for m in reversed(
        base.buses["CAN-2"].kmatrix.sorted_by_priority())
        if m.name not in endpoints)
    free_id = max(m.can_id for m in base.buses["CAN-0"].kmatrix) + 7
    edits = [
        (BusSpeedDelta("CAN-1", 250_000.0),),
        (BusSpeedDelta("CAN-1", 1_000_000.0),),
        (SegmentConfigDelta("CAN-0", (JitterDelta(fraction=0.3),)),),
        (SegmentConfigDelta("CAN-0", (JitterDelta(fraction=0.05),)),),
        (MoveMessageDelta(victim.name, "CAN-0", new_can_id=free_id),),
        (GatewayConfigDelta("GW0", polling_period=6.0),),
        (RemoveGatewayRouteDelta("GW0", route.destination_message),
         AddGatewayRouteDelta("GW0-backup", route, polling_period=5.0)),
    ]
    rng = random.Random(25)
    for _ in range(15):
        yield tuple(delta for edit in rng.sample(
            edits, rng.choice((1, 2))) for delta in edit)


class TestSystemDeltaBitIdentity:
    @pytest.mark.parametrize("params", PARAMS)
    def test_bus_speed_delta(self, params):
        base = multibus_system(**params)
        session = SystemSession(base)
        edited = multibus_system(**params)
        segment = edited.buses["CAN-1"]
        segment.bus = segment.bus.with_bit_rate(250_000.0)
        _check(session, BusSpeedDelta("CAN-1", 250_000.0), edited,
               paths=multibus_paths(base))

    @pytest.mark.parametrize("params", PARAMS)
    def test_move_message_delta(self, params):
        base = multibus_system(**params)
        session = SystemSession(base)
        last_bus = f"CAN-{params['n_buses'] - 1}"
        victim = base.buses[last_bus].kmatrix.sorted_by_priority()[-1]
        free_id = max(m.can_id for m in base.buses["CAN-0"].kmatrix) + 7
        edited = multibus_system(**params)
        moved = edited.buses[last_bus].kmatrix.remove(victim.name)
        edited.buses["CAN-0"].kmatrix.add(moved.with_can_id(free_id))
        _check(session,
               MoveMessageDelta(victim.name, "CAN-0", new_can_id=free_id),
               edited)

    @pytest.mark.parametrize("params", PARAMS)
    def test_move_message_rewrites_routes(self, params):
        """Moving a route endpoint drags its gateway routes along."""
        base = multibus_system(**params)
        session = SystemSession(base)
        gateway = base.gateways["GW0"]
        route = gateway.routes[0]
        victim = route.destination_message  # lives on CAN-1
        home = base.bus_of_message(victim).name
        target = "CAN-0"
        free_id = max(m.can_id for m in base.buses[target].kmatrix) + 9
        edited = multibus_system(**params)
        moved = edited.buses[home].kmatrix.remove(victim)
        edited.buses[target].kmatrix.add(moved.with_can_id(free_id))
        for gw_edit in edited.gateways.values():
            gw_edit.routes = [
                replace(r,
                        source_bus=(target if r.source_message == victim
                                    else r.source_bus),
                        destination_bus=(target
                                         if r.destination_message == victim
                                         else r.destination_bus))
                for r in gw_edit.routes]
        assert edited.validate() == []
        _check(session,
               MoveMessageDelta(victim, target, new_can_id=free_id), edited)

    @pytest.mark.parametrize("params", PARAMS)
    def test_gateway_config_delta(self, params):
        base = multibus_system(**params)
        session = SystemSession(base)
        edited = multibus_system(**params)
        edited.gateways["GW0"].polling_period = 9.5
        _check(session, GatewayConfigDelta("GW0", polling_period=9.5),
               edited, paths=multibus_paths(base))

    @pytest.mark.parametrize("params", PARAMS)
    def test_remove_gateway_route_delta(self, params):
        base = multibus_system(**params)
        session = SystemSession(base)
        destination = base.gateways["GW0"].routes[0].destination_message
        edited = multibus_system(**params)
        gw_edit = edited.gateways["GW0"]
        gw_edit.routes = [r for r in gw_edit.routes
                          if r.destination_message != destination]
        _check(session, RemoveGatewayRouteDelta("GW0", destination), edited)

    @pytest.mark.parametrize("params", PARAMS)
    def test_add_gateway_route_failover(self, params):
        """Remove a route from the primary, re-add it on a backup."""
        base = multibus_system(**params)
        session = SystemSession(base)
        route = base.gateways["GW0"].routes[0]
        deltas = (
            RemoveGatewayRouteDelta("GW0", route.destination_message),
            AddGatewayRouteDelta("GW0-backup", route, polling_period=5.0),
        )
        edited = multibus_system(**params)
        gw_edit = edited.gateways["GW0"]
        gw_edit.routes = [r for r in gw_edit.routes
                          if r.destination_message
                          != route.destination_message]
        from repro.gateway.model import GatewayModel
        edited.add_gateway(GatewayModel(
            name="GW0-backup", routes=[route], polling_period=5.0))
        _check(session, deltas, edited)

    @pytest.mark.parametrize("params", PARAMS)
    def test_segment_config_delta_wraps_bus_deltas(self, params):
        base = multibus_system(**params)
        session = SystemSession(base)
        victim = base.buses["CAN-0"].kmatrix.sorted_by_priority()[0]
        deltas = SegmentConfigDelta("CAN-0", (
            JitterDelta(message_name=victim.name, jitter=0.8),
            ErrorModelDelta(SporadicErrorModel(min_interarrival=50.0)),
        ))
        edited = multibus_system(**params)
        segment = edited.buses["CAN-0"]
        segment.kmatrix = KMatrix(messages=[
            m.with_jitter(0.8) if m.name == victim.name else m
            for m in segment.kmatrix.messages])
        segment.error_model = SporadicErrorModel(min_interarrival=50.0)
        _check(session, deltas, edited)

    @pytest.mark.parametrize("params", PARAMS)
    def test_segment_priority_swap(self, params):
        base = multibus_system(**params)
        session = SystemSession(base)
        ordered = base.buses["CAN-0"].kmatrix.sorted_by_priority()
        first, second = ordered[0], ordered[1]
        deltas = SegmentConfigDelta(
            "CAN-0", (PriorityDelta(swap=(first.name, second.name)),))
        edited = multibus_system(**params)
        segment = edited.buses["CAN-0"]
        segment.kmatrix = segment.kmatrix.with_priorities(
            {first.name: second.can_id, second.name: first.can_id})
        _check(session, deltas, edited)

    def test_ecu_task_delta(self):
        from test_core import _two_bus_system

        base = _two_bus_system()
        session = SystemSession(base)
        ecu_name = sorted(base.ecus)[0]
        task = base.ecus[ecu_name].tasks[0]
        edited = _two_bus_system()
        ecu_edit = edited.ecus[ecu_name]
        edited.ecus[ecu_name] = replace(ecu_edit, tasks=[
            replace(t, wcet=t.wcet * 1.8) if t.name == task.name else t
            for t in ecu_edit.tasks])
        _check(session,
               EcuTaskDelta(ecu_name, task.name, wcet=task.wcet * 1.8),
               edited)

    def test_delta_sequences_compose(self):
        params = dict(n_buses=3, messages_per_bus=8, seed=4)
        base = multibus_system(**params)
        session = SystemSession(base)
        deltas = (
            BusSpeedDelta("CAN-2", 250_000.0),
            GatewayConfigDelta("GW1", polling_period=6.0),
            SegmentConfigDelta("CAN-0", (JitterDelta(fraction=0.3),)),
        )
        edited = multibus_system(**params)
        segment = edited.buses["CAN-2"]
        segment.bus = segment.bus.with_bit_rate(250_000.0)
        edited.gateways["GW1"].polling_period = 6.0
        edited.buses["CAN-0"].assumed_jitter_fraction = 0.3
        _check(session, deltas, edited, paths=multibus_paths(base))


class TestSystemSessionBehaviour:
    def test_chained_sweep_is_incremental_and_exact(self):
        params = dict(n_buses=3, messages_per_bus=10, seed=6)
        base = multibus_system(**params)
        session = SystemSession(base)
        for rate in (500_000.0, 400_000.0, 250_000.0, 125_000.0):
            edited = multibus_system(**params)
            segment = edited.buses["CAN-1"]
            segment.bus = segment.bus.with_bit_rate(rate)
            _check(session, BusSpeedDelta("CAN-1", rate), edited)
        # Revisiting an already-analysed topology is a pure cache hit.
        before = session.stats()
        again = session.query(BusSpeedDelta("CAN-1", 250_000.0))
        assert again.stats.cache_hit
        assert session.stats().cache_hits == before.cache_hits + 1

    def test_base_query_and_repeat(self):
        base = multibus_system(n_buses=2, messages_per_bus=6, seed=3)
        session = SystemSession(base)
        first = session.analyze()
        _assert_identical(first.result, _fresh_run(base))
        assert session.query(()).stats.cache_hit

    def test_unchanged_segments_hit_their_session_caches(self):
        base = multibus_system(n_buses=4, messages_per_bus=8, seed=8)
        session = SystemSession(base)
        session.analyze()
        session.query(BusSpeedDelta("CAN-3", 250_000.0))
        # The last bus has no downstream: CAN-0..2 answered from cache.
        stats = {s.name: s for s in session.session_stats()}
        untouched = [s for name, s in stats.items()
                     if name.endswith(("CAN-0", "CAN-1", "CAN-2"))]
        assert untouched and all(s.cache_hits > 0 for s in untouched)

    def test_invalidation_closes_over_gateway_reachability(self):
        base = multibus_system(n_buses=4, messages_per_bus=6, seed=9)
        session = SystemSession(base)
        # An upstream edit invalidates every downstream segment...
        assert session.invalidated_by(
            BusSpeedDelta("CAN-0", 250_000.0)) == frozenset(
            {"CAN-0", "CAN-1", "CAN-2", "CAN-3"})
        # ...a leaf edit only itself.
        assert session.invalidated_by(
            BusSpeedDelta("CAN-3", 250_000.0)) == frozenset({"CAN-3"})

    def test_invalidation_covers_actual_changes(self):
        params = dict(n_buses=3, messages_per_bus=8, seed=10)
        base = multibus_system(**params)
        session = SystemSession(base)
        baseline = session.analyze().result
        delta = SegmentConfigDelta("CAN-0", (JitterDelta(fraction=0.5),))
        outcome = session.query(delta)
        changed_buses = {
            base.bus_of_message(name).name
            for name, result in outcome.result.message_results.items()
            if result != baseline.message_results[name]}
        assert changed_buses <= set(outcome.stats.invalidated)

    def test_cache_hit_reports_this_querys_invalidated_set(self):
        base = multibus_system(n_buses=3, messages_per_bus=6, seed=2)
        # The bus's own rate: the edited topology is the base topology.
        delta = BusSpeedDelta("CAN-0", base.buses["CAN-0"].bus.bit_rate_bps)
        every = ("CAN-0", "CAN-1", "CAN-2")
        assert SystemSession(base).query(delta).stats.invalidated == every
        session = SystemSession(base)
        session.analyze()
        hit = session.query(delta, label="same rate")
        assert hit.stats.cache_hit
        assert (hit.label, hit.deltas) == ("same rate", (delta,))
        assert hit.stats.invalidated == every
        again = session.analyze()
        assert again.stats.cache_hit
        assert (again.label, again.deltas) == (None, ())
        assert again.stats.invalidated == ()

    def test_bounded_result_cache_keeps_the_base(self, monkeypatch):
        monkeypatch.setattr(whatif_session, "_MAX_CACHED_RESULTS", 2)
        registry = MetricsRegistry()
        params = dict(n_buses=3, messages_per_bus=8, seed=6)
        session = SystemSession(multibus_system(**params), metrics=registry)
        session.analyze()
        edited = {}
        for rate in (400_000.0, 250_000.0, 125_000.0):
            edited[rate] = multibus_system(**params)
            segment = edited[rate].buses["CAN-1"]
            segment.bus = segment.bus.with_bit_rate(rate)
            _check(session, BusSpeedDelta("CAN-1", rate), edited[rate])
        stats = session.stats()
        assert (stats.cached_results, stats.evictions) == (2, 2)
        assert session.analyze().stats.cache_hit
        # An evicted topology is recomputed, still exactly.
        again = session.query(BusSpeedDelta("CAN-1", 400_000.0))
        assert not again.stats.cache_hit
        _assert_identical(again.result, _fresh_run(edited[400_000.0]))
        assert session.stats().evictions == 3
        assert registry.value("system_evictions_total") == 3

    def test_rejects_bare_service_deltas(self):
        base = multibus_system(n_buses=2, messages_per_bus=6, seed=0)
        session = SystemSession(base)
        with pytest.raises(ValueError, match="SegmentConfigDelta"):
            session.query((JitterDelta(fraction=0.2),))

    def test_segment_config_rejects_event_model_delta(self):
        with pytest.raises(ValueError, match="EventModelDelta"):
            SegmentConfigDelta("CAN-0", (EventModelDelta(),))

    def test_unknown_references_fail_loudly(self):
        base = multibus_system(n_buses=2, messages_per_bus=6, seed=0)
        session = SystemSession(base)
        with pytest.raises(KeyError, match="unknown bus"):
            session.query(BusSpeedDelta("CAN-9", 250_000.0))
        with pytest.raises(KeyError, match="unknown gateway"):
            session.query(GatewayConfigDelta("GW9", polling_period=1.0))
        with pytest.raises(KeyError):
            session.query(MoveMessageDelta("NoSuchMessage", "CAN-0"))


class TestOneSessionPerBus:
    """Every topology's engine run queries the base buses' sessions: an
    edited segment is re-based on its bus's session, never given one."""

    @staticmethod
    def _cold_on(session: SystemSession, bus: str) -> int:
        return sum(stats.cold for stats in session.session_stats()
                   if stats.name.endswith(f":{bus}"))

    def test_edited_segment_plans_from_the_bus_cache(self, monkeypatch):
        params = dict(n_buses=3, messages_per_bus=10, seed=1)
        delta = SegmentConfigDelta("CAN-1", (JitterDelta(fraction=0.3),))
        fresh = SystemSession(multibus_system(**params))
        fresh.query(delta)
        warm = SystemSession(multibus_system(**params))
        warm.analyze()
        before = self._cold_on(warm, "CAN-1")
        created = []
        init = AnalysisSession.__init__

        def counting_init(self, *args, **kwargs):
            created.append(kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisSession, "__init__", counting_init)
        outcome = warm.query(delta)
        _assert_identical(outcome.result, _fresh_run(
            apply_system_deltas(multibus_system(**params), (delta,))))
        assert self._cold_on(warm, "CAN-1") - before \
            < self._cold_on(fresh, "CAN-1")
        base = warm.base_system
        victim = base.buses["CAN-2"].kmatrix.sorted_by_priority()[-1]
        free_id = max(m.can_id for m in base.buses["CAN-0"].kmatrix) + 7
        warm.query(BusSpeedDelta("CAN-0", 250_000.0))
        warm.query(MoveMessageDelta(victim.name, "CAN-0", new_can_id=free_id))
        assert created == []
        assert warm.stats().segment_sessions == len(base.buses)

    def test_seeded_walk_is_exact(self):
        params = WALK_PARAMS
        base = multibus_system(**params)
        session = SystemSession(base)
        for deltas in _seeded_walk(base):
            outcome = session.query(deltas)
            _assert_identical(outcome.result, _fresh_run(
                apply_system_deltas(multibus_system(**params), deltas)))
        assert session.stats().segment_sessions == len(base.buses)


class TestParallelModes:
    @pytest.mark.parametrize("mode", ["serial", "auto", "process"])
    def test_modes_bit_identical(self, mode, monkeypatch):
        params = dict(n_buses=3, messages_per_bus=6, seed=12)
        base = multibus_system(**params)
        deltas = (BusSpeedDelta("CAN-1", 250_000.0),
                  GatewayConfigDelta("GW0", polling_period=7.0))
        monkeypatch.setenv("REPRO_PARALLEL", "serial")
        reference = SystemSession(multibus_system(**params)).query(deltas)
        monkeypatch.setenv("REPRO_PARALLEL", mode)
        outcome = SystemSession(base).query(deltas)
        _assert_identical(outcome.result, reference.result)
        expected = _fresh_run(apply_system_deltas(base, deltas))
        _assert_identical(outcome.result, expected)


class TestFingerprintInvalidation:
    """Mutable gateway/ECU containers must invalidate by fingerprint."""

    def test_persistent_engine_survives_inplace_gateway_edits(self):
        """The engine's retained sweep memo is fingerprint-guarded: an
        in-place route edit (same object identities everywhere) between
        runs must produce exactly the from-scratch fixed point."""
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=13)
        engine = CompositionalAnalysis(system)
        engine.run()
        gateway = system.gateways["GW0"]
        gateway.polling_period = 11.0
        _assert_identical(_fresh_run(system), engine.run())
        gateway.routes.pop()
        _assert_identical(_fresh_run(system), engine.run())

    def test_persistent_rebuild_engine_discards_stale_seeds(self):
        """The rebuild path keeps no seeds across runs: in-place edits
        that leave every *event model* unchanged (bit rate, priority
        swap, error model) must not warm the next run from the old --
        possibly overshooting -- results."""
        params = dict(n_buses=3, messages_per_bus=8, seed=13)
        edits = [
            lambda seg: setattr(
                seg, "bus", seg.bus.with_bit_rate(
                    seg.bus.bit_rate_bps * 2.0)),
            lambda seg: setattr(
                seg, "kmatrix", seg.kmatrix.with_priorities({
                    seg.kmatrix.sorted_by_priority()[0].name:
                        seg.kmatrix.sorted_by_priority()[1].can_id,
                    seg.kmatrix.sorted_by_priority()[1].name:
                        seg.kmatrix.sorted_by_priority()[0].can_id})),
            lambda seg: setattr(seg, "error_model",
                                SporadicErrorModel(min_interarrival=500.0)),
        ]
        for edit in edits:
            system = multibus_system(**params)
            engine = CompositionalAnalysis(system, incremental=False)
            engine.run()
            edit(system.buses["CAN-0"])
            _assert_identical(
                CompositionalAnalysis(system, incremental=False).run(),
                engine.run())

    def test_session_detects_inplace_gateway_edit(self):
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=14)
        session = SystemSession(system)
        session.analyze()
        fingerprint = session.base_fingerprint
        system.gateways["GW0"].polling_period = 12.5
        outcome = session.analyze()
        assert not outcome.stats.cache_hit
        assert session.base_fingerprint != fingerprint
        assert session.stats().base_invalidations == 1
        _assert_identical(outcome.result, _fresh_run(system))

    def test_session_detects_inplace_route_addition(self):
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=15)
        session = SystemSession(system)
        session.analyze()
        source = system.buses["CAN-1"].kmatrix.sorted_by_priority()[1]
        destination = system.buses["CAN-2"].kmatrix.sorted_by_priority()[-1]
        system.gateways["GW1"].add_route(GatewayRoute(
            source_message=source.name,
            destination_message=destination.name,
            source_bus="CAN-1", destination_bus="CAN-2"))
        outcome = session.analyze()
        assert not outcome.stats.cache_hit
        _assert_identical(outcome.result, _fresh_run(system))

    def test_session_detects_inplace_ecu_edit(self):
        from test_core import _two_bus_system

        system = _two_bus_system()
        session = SystemSession(system)
        session.analyze()
        ecu_name = sorted(system.ecus)[0]
        ecu = system.ecus[ecu_name]
        system.ecus[ecu_name] = replace(ecu, tasks=[
            replace(task, wcet=task.wcet * 2.0) for task in ecu.tasks])
        outcome = session.analyze()
        assert not outcome.stats.cache_hit
        _assert_identical(outcome.result, _fresh_run(system))

    def test_gateway_analysis_key_tracks_route_edits(self):
        system = multibus_system(n_buses=2, messages_per_bus=6, seed=1)
        gateway = system.gateways["GW0"]
        key = gateway.analysis_key()
        assert key == gateway.analysis_key()
        gateway.polling_period *= 2.0
        assert key != gateway.analysis_key()
        restored = key[:3] + (gateway.polling_period,) + key[4:]
        assert restored == gateway.analysis_key()


class TestSystemScenarioCatalog:
    def test_builtin_catalog_families_run(self):
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=16)
        catalog = builtin_system_catalog(system)
        assert set(catalog.names()) == {
            "bus-speed-degradation", "gateway-failover",
            "message-remap-sweep"}
        session = SystemSession(system)
        for name in catalog.names():
            run = catalog.run(name, session)
            assert len(run.queries) >= 2
            table = run.to_table()
            assert name in table or run.scenario in table
            for query in run.queries:
                expected = _fresh_run(
                    apply_system_deltas(system, query.deltas))
                _assert_identical(query.result, expected)

    def test_failover_final_step_empties_the_primary(self):
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=17)
        catalog = builtin_system_catalog(system)
        scenario = catalog.get("gateway-failover")
        final = apply_system_deltas(system, scenario.queries[-1].deltas)
        assert final.gateways["GW0"].routes == []
        assert len(final.gateways["GW0-backup"].routes) == \
            len(system.gateways["GW0"].routes)

    def test_remap_sweep_respects_the_identifier_range(self):
        """A target bus already using the top standard id must get a free
        in-range identifier, never 0x7FF + 1 (reproduces the review
        finding: the scenario used max-used + 1 and crashed at run time)."""
        from repro.whatif import message_remap_sweep_scenario

        system = multibus_system(n_buses=2, messages_per_bus=6, seed=20)
        segment = system.buses["CAN-1"]
        top = segment.kmatrix.sorted_by_priority()[-1]
        segment.kmatrix = KMatrix(messages=[
            replace(m, can_id=0x7FF) if m.name == top.name else m
            for m in segment.kmatrix.messages])
        victim = system.buses["CAN-0"].kmatrix.sorted_by_priority()[0]
        scenario = message_remap_sweep_scenario(system, victim.name)
        run = scenario.run(SystemSession(system))
        assert len(run.queries) == 2  # base + CAN-1
        assert run.queries[-1].result.converged

    def test_tracked_paths_cost_one_query_per_step(self):
        """Path latencies of a k-step topology scenario come from the
        steps' own fixed points: k queries, no extra cache hit, and each
        latency equals a from-scratch run's."""
        from repro.whatif import gateway_failover_scenario

        system = multibus_system(n_buses=4, messages_per_bus=12, seed=42)
        paths = multibus_paths(system)[:2]
        session = SystemSession(system)
        run = gateway_failover_scenario(system, "GW1").run(session)
        latencies = [tuple(step.path_latency(path) for path in paths)
                     for step in run.queries]
        stats = session.stats()
        assert stats.queries == len(run.queries)
        assert stats.cache_hits == 0
        for step, got in zip(run.queries, latencies):
            edited = apply_system_deltas(system, step.deltas)
            assert got == path_latency_all(paths, edited, _fresh_run(edited))

    def test_scenarios_are_deterministic(self):
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=18)
        first = builtin_system_catalog(system)
        second = builtin_system_catalog(system)
        for name in first.names():
            assert first.get(name) == second.get(name)


class TestInfluenceGraph:
    def test_chain_edges(self):
        system = multibus_system(n_buses=3, messages_per_bus=6, seed=19)
        edges = influence_edges(system)
        assert ("CAN-0", "CAN-1") in edges
        assert ("CAN-1", "CAN-2") in edges
        assert ("CAN-2", "CAN-1") not in edges


# --------------------------------------------------------------------------- #
# Gateway-order sweep vs an independent Jacobi oracle
# --------------------------------------------------------------------------- #
def _min_transmission_time(system: SystemModel, message_names) -> float:
    min_distance = 0.0
    for name in message_names:
        try:
            segment = system.bus_of_message(name)
        except KeyError:
            continue
        tx = segment.bus.best_case_transmission_time(
            segment.kmatrix.get(name))
        min_distance = min(min_distance, tx) if min_distance else tx
    return min_distance


def _jacobi_run(system: SystemModel, max_iterations: int = 50):
    """The compositional fixed point in Jacobi order: every iteration
    analyses every bus against the previous iteration's gateway outputs.
    Test-local, over the engine's segment job only, so the engine's sweep
    plan is checked against an order that does not share it."""
    ecu_send: dict = {}
    task_results: dict = {}
    for ecu_name, ecu in system.ecus.items():
        for task_name, result in EcuAnalysis(ecu).analyze_all().items():
            task_results[f"{ecu_name}.{task_name}"] = result
        ecu_send.update(message_output_models(
            ecu, min_output_distance=_min_transmission_time(
                system, {m for task in ecu.tasks
                         for m in task.sends_messages})))
    controllers = dict(system.controllers)
    send, previous_send, states = dict(ecu_send), {}, {}
    converged = False
    for iteration in range(1, max_iterations + 1):
        message_results, arrivals, reports = {}, {}, {}
        for name, segment in system.buses.items():
            results, segment_arrivals, report, states[name] = \
                _analyze_segment_job(
                    (segment, controllers, dict(send), states.get(name)))
            message_results.update(results)
            arrivals.update(segment_arrivals)
            reports[name] = report
        new_send = dict(ecu_send)
        for gateway in system.gateways.values():
            new_send.update(GatewayAnalysis(gateway).output_event_models(
                arrivals, min_output_distance=_min_transmission_time(
                    system, [r.destination_message for r in gateway.routes])))
        if _models_equal(new_send, send) and iteration > 1:
            converged = True
            break
        if _models_equal(new_send, previous_send):
            converged, send = True, new_send
            break
        previous_send, send = send, new_send
    if not system.gateways and not system.ecus:
        converged = True
    return SystemAnalysisResult(
        converged=converged, iterations=iteration,
        message_results=message_results, task_results=task_results,
        bus_reports=reports, send_models=send, arrival_models=arrivals)


def _assert_matches_jacobi(result, jacobi, iterations: bool = False) -> None:
    """Every field but ``iterations`` (unless asked), dict order included:
    reply bytes follow the order of these maps."""
    assert result.converged == jacobi.converged
    for field in ("message_results", "send_models", "arrival_models",
                  "task_results", "bus_reports"):
        got, want = getattr(result, field), getattr(jacobi, field)
        assert got == want, field
        assert list(got) == list(want), field
    if iterations:
        assert result.iterations == jacobi.iterations


def _forward(system: SystemModel, gateway: str, source: str,
             source_bus: str, destination_bus: str, can_id: int,
             queue: str = "default") -> GatewayRoute:
    """Add ``gateway``'s copy of ``source`` to ``destination_bus`` and
    return the route that forwards it."""
    message = system.buses[source_bus].kmatrix.get(source)
    kmatrix = system.buses[destination_bus].kmatrix
    kmatrix.add(CanMessage(
        name=f"{gateway}_{source}", can_id=can_id, dlc=message.dlc,
        period=message.period, sender=gateway,
        receivers=tuple(kmatrix.senders()[:1])))
    return GatewayRoute(
        source_message=source, destination_message=f"{gateway}_{source}",
        source_bus=source_bus, destination_bus=destination_bus, queue=queue)


def _original(system: SystemModel, bus: str, rank: int) -> str:
    """The ``rank``-th highest-priority message of ``bus`` that no gateway
    put there."""
    return [m.name for m in system.buses[bus].kmatrix.sorted_by_priority()
            if m.sender not in system.gateways][rank]


def _cycle_system() -> SystemModel:
    """Two buses forwarding to each other: GW0 CAN-0 -> CAN-1 and GW1
    CAN-1 -> CAN-0, the back route at top priority.  Jacobi converges in
    4 iterations here."""
    system = multibus_system(n_buses=2, messages_per_bus=8, seed=1,
                             bit_rate_bps=125_000.0)
    route = _forward(system, "GW1", _original(system, "CAN-1", 0),
                     "CAN-1", "CAN-0", can_id=0x41)
    system.add_gateway(GatewayModel(
        name="GW1", policy=ForwardingPolicy.PERIODIC_POLLING,
        polling_period=2.5, copy_time=0.05, routes=[route]))
    return system


def _queue_coupled_system(capacity=None) -> SystemModel:
    """A 3-bus chain plus GW2, whose routes from CAN-0 and from CAN-1 to
    CAN-2 share one output queue."""
    system = multibus_system(n_buses=3, messages_per_bus=8, seed=4)
    routes = [
        _forward(system, "GW2", _original(system, "CAN-0", 2),
                 "CAN-0", "CAN-2", can_id=0x48, queue="shared"),
        _forward(system, "GW2", _original(system, "CAN-1", 0),
                 "CAN-1", "CAN-2", can_id=0x49, queue="shared"),
    ]
    system.add_gateway(GatewayModel(
        name="GW2", policy=ForwardingPolicy.PERIODIC_POLLING,
        polling_period=2.5, copy_time=0.05, routes=routes,
        queue_capacities={} if capacity is None else {"shared": capacity}))
    return system


def _cut_cycle_system() -> SystemModel:
    """A 3-bus chain at 62.5 kbit/s plus GWB, which forwards GW0's copy
    on CAN-1 back to CAN-0 at top priority: the cycle CAN-0 <-> CAN-1
    feeds CAN-2 through GW1 and needs 17 passes to converge."""
    system = multibus_system(n_buses=3, messages_per_bus=6, seed=2,
                             bit_rate_bps=62_500.0)
    route = _forward(system, "GWB",
                     system.gateways["GW0"].routes[0].destination_message,
                     "CAN-1", "CAN-0", can_id=0x01)
    system.add_gateway(GatewayModel(
        name="GWB", policy=ForwardingPolicy.PERIODIC_POLLING,
        polling_period=2.5, copy_time=0.05, routes=[route]))
    return system


class TestGatewayOrderSweep:
    """The engine sweeps in gateway order; the Jacobi order reaches the
    same fixed point in more iterations."""

    @pytest.mark.parametrize("params", PARAMS)
    def test_builtin_catalog_matches_jacobi(self, params):
        system = multibus_system(**params)
        catalog = builtin_system_catalog(system)
        session = SystemSession(system)
        for name in catalog.names():
            for query in catalog.run(name, session).queries:
                edited = apply_system_deltas(system, query.deltas)
                jacobi = _jacobi_run(edited)
                _assert_matches_jacobi(query.result, jacobi)
                _assert_matches_jacobi(_fresh_run(edited), jacobi)
                assert query.result.iterations <= jacobi.iterations

    def test_seeded_walk_matches_jacobi(self):
        base = multibus_system(**WALK_PARAMS)
        session = SystemSession(base)
        for deltas in _seeded_walk(base):
            jacobi = _jacobi_run(
                apply_system_deltas(multibus_system(**WALK_PARAMS), deltas))
            _assert_matches_jacobi(session.query(deltas).result, jacobi)

    def test_chain_converges_in_one_pass_plus_confirmation(self):
        system = multibus_system(n_buses=4, messages_per_bus=30, seed=0)
        result = CompositionalAnalysis(system).run()
        jacobi = _jacobi_run(system)
        assert result.converged
        assert result.iterations == 2
        assert jacobi.iterations == 4
        _assert_matches_jacobi(result, jacobi)
        _assert_identical(result, _fresh_run(system))

    def test_bus_order_does_not_change_the_pass_count(self):
        """A chain listed downstream-first is swept in gateway order all
        the same, and its maps keep ``system.buses`` order."""
        system = multibus_system(n_buses=4, messages_per_bus=10, seed=6)
        system.buses = dict(reversed(system.buses.items()))
        result = CompositionalAnalysis(system).run()
        assert result.iterations == 2
        assert list(result.bus_reports) == list(system.buses)
        _assert_matches_jacobi(result, _jacobi_run(system))
        _assert_identical(result, _fresh_run(system))

    def test_gateway_cycle_is_swept_jacobi_style(self):
        system = _cycle_system()
        edges = influence_edges(system)
        assert {("CAN-0", "CAN-1"), ("CAN-1", "CAN-0")} <= edges
        result = CompositionalAnalysis(system).run()
        jacobi = _jacobi_run(system)
        assert result.converged
        assert jacobi.iterations == 4
        _assert_matches_jacobi(result, jacobi, iterations=True)
        _assert_identical(result, _fresh_run(system))

    @pytest.mark.parametrize("max_iterations", [4, 8])
    def test_cut_cycle_feeding_a_downstream_bus(self, max_iterations):
        """A run the iteration limit cuts short: both orders report it
        unconverged after the same count and agree on the cycle's buses,
        the send models and the tasks.  The downstream bus was analysed
        against the cycle's outputs of the current pass, which the Jacobi
        order reaches one iteration later."""
        system = _cut_cycle_system()
        assert CompositionalAnalysis(system).run().iterations == 17
        result = CompositionalAnalysis(
            system, max_iterations=max_iterations).run()
        jacobi = _jacobi_run(system, max_iterations)
        later = _jacobi_run(system, max_iterations + 1)
        assert not result.converged and not jacobi.converged
        assert result.iterations == jacobi.iterations == max_iterations
        assert result.send_models == jacobi.send_models
        assert result.task_results == jacobi.task_results
        downstream = {m.name for m in system.buses["CAN-2"].kmatrix}
        for field in ("message_results", "arrival_models"):
            got = getattr(result, field)
            assert list(got) == list(getattr(jacobi, field))
            for name, value in got.items():
                oracle = later if name in downstream else jacobi
                assert value == getattr(oracle, field)[name], (field, name)
        assert result.bus_reports["CAN-2"] != jacobi.bus_reports["CAN-2"]
        assert result.bus_reports == {**jacobi.bus_reports,
                                      "CAN-2": later.bus_reports["CAN-2"]}
        _assert_identical(result, CompositionalAnalysis(
            system, max_iterations=max_iterations, incremental=False).run())

    @pytest.mark.parametrize("capacity", [None, 2])
    def test_queue_coupled_routes_from_two_buses(self, capacity):
        system = _queue_coupled_system(capacity)
        assert ("CAN-0", "CAN-2") in influence_edges(system)
        result = CompositionalAnalysis(system).run()
        jacobi = _jacobi_run(system)
        assert result.converged
        assert result.iterations == 2
        assert jacobi.iterations == 3
        _assert_matches_jacobi(result, jacobi)
        _assert_identical(result, _fresh_run(system))
