"""Delta correctness: every session query bit-matches a from-scratch analysis.

The what-if service promises that its reuse / warm-start / cold planning is
invisible in the results: a query through an
:class:`~repro.service.session.AnalysisSession` must equal -- ``==`` on the
full result objects, i.e. bit for bit -- a cold ``analyze_all`` of a fresh
:class:`~repro.analysis.response_time.CanBusAnalysis` built on the mutated
K-Matrix.  These tests sweep the same structurally diverse synthetic seed
corpus as ``tests/test_kernel_equivalence.py`` over every delta type,
including the invalidation cases (jitter shrinking, priority swaps, message
add/remove) where stale seeds would be unsound.
"""

from __future__ import annotations

import pytest

import repro.service.session as session_module
from repro.analysis.response_time import CanBusAnalysis
from repro.analysis.schedulability import report_from_results
from repro.can.bus import CanBus
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.cancel import CancelToken, Cancelled
from repro.errors.models import BurstErrorModel, NoErrors, SporadicErrorModel
from repro.optimize.objectives import AnalysisScenario, evaluate_configuration
from repro.service import (
    AddMessageDelta,
    AnalysisSession,
    BusConfiguration,
    ErrorModelDelta,
    EventModelDelta,
    JitterDelta,
    PriorityDelta,
    RemoveMessageDelta,
    ScenarioCatalog,
    SessionEvaluator,
    builtin_catalog,
    jitter_sweep_scenario,
    message_jitter_sweep_scenario,
    priority_swap_scenario,
)
from repro.service.deltas import BusDelta, DeadlinePolicyDelta, apply_deltas
from repro.workloads.multibus import multibus_system
from repro.workloads.scaling import scaling_benchmark_case, synthetic_kmatrix

#: Same corpus shape as the kernel-equivalence suite.
SEEDS = tuple(range(16))

_BUS = CanBus(name="svc", bit_rate_bps=250_000.0)


def _matrix(seed: int) -> KMatrix:
    return synthetic_kmatrix(
        n_messages=9 + seed % 6,
        n_ecus=3 + seed % 3,
        seed=seed,
        id_policy=("block", "rate-monotonic", "random")[seed % 3],
        known_jitter_probability=0.3,
    )


def _session(seed: int, **kwargs) -> AnalysisSession:
    return AnalysisSession(_matrix(seed), _BUS, **kwargs)


def _reference(config: BusConfiguration):
    """Cold from-scratch analysis of a configuration."""
    return config.build_analysis().analyze_all()


def _fresh_report(config: BusConfiguration, policy: str):
    """The report of a from-scratch analysis under ``policy``."""
    analysis = config.build_analysis()
    return report_from_results(
        config.kmatrix, analysis, analysis.analyze_all(), policy)


def _count_report_builds(monkeypatch) -> list:
    """Record the deadline policy of every report the session builds."""
    builds = []
    build = session_module.report_from_results

    def counting(kmatrix, analysis, results, policy):
        builds.append(policy)
        return build(kmatrix, analysis, results, policy)

    monkeypatch.setattr(session_module, "report_from_results", counting)
    return builds


def assert_query_exact(session: AnalysisSession, deltas: tuple,
                       warm_from=None) -> None:
    """The session result must ``==`` a cold analysis of the mutated matrix."""
    result = session.query(deltas, warm_from=warm_from)
    expected = _reference(apply_deltas(session.base_config, deltas))
    assert result.results == expected


class TestDeltaExactness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fraction_sweep_up_and_down(self, seed):
        """Ascending points warm-start, descending points must not go stale."""
        session = _session(seed)
        session.analyze()
        for fraction in (0.1, 0.3, 0.6, 0.2, 0.0, 0.45):
            assert_query_exact(session, (JitterDelta(fraction=fraction),))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_message_jitter_grow_and_shrink(self, seed):
        kmatrix = _matrix(seed)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        for index in (0, len(kmatrix) // 2, len(kmatrix) - 1):
            name = kmatrix.messages[index].name
            for jitter in (2.5, 0.5, 7.0, 0.0):
                assert_query_exact(
                    session, (JitterDelta(message_name=name, jitter=jitter),))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_error_model_harden_and_relax(self, seed):
        session = _session(seed)
        session.analyze()
        models = (
            SporadicErrorModel(min_interarrival=100.0),
            SporadicErrorModel(min_interarrival=10.0),
            SporadicErrorModel(min_interarrival=400.0),
            BurstErrorModel(min_interarrival=60.0, burst_length=3,
                            intra_burst_gap=0.5),
            NoErrors(),
        )
        for model in models:
            assert_query_exact(session, (ErrorModelDelta(model),))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_priority_swap_invalidates_exactly(self, seed):
        kmatrix = _matrix(seed)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        order = [m.name for m in kmatrix.sorted_by_priority()]
        swaps = [(order[0], order[-1]), (order[0], order[1]),
                 (order[len(order) // 2], order[-1])]
        for pair in swaps:
            assert_query_exact(session, (PriorityDelta(swap=pair),))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_reprioritisation(self, seed):
        kmatrix = _matrix(seed)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        order = tuple(m.name for m in kmatrix.sorted_by_priority())
        reversed_order = tuple(reversed(order))
        rotated = order[1:] + order[:1]
        for candidate in (reversed_order, rotated):
            assert_query_exact(session, (PriorityDelta(order=candidate),))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_and_remove_message(self, seed):
        kmatrix = _matrix(seed)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        ids = {m.can_id for m in kmatrix}
        highest = CanMessage(name="IntruderHigh", can_id=min(ids) - 1,
                             dlc=8, period=5.0, sender="ECU1")
        lowest = CanMessage(name="IntruderLow", can_id=max(ids) + 1,
                            dlc=8, period=20.0, sender="ECU2")
        assert_query_exact(session, (AddMessageDelta(highest),))
        assert_query_exact(session, (AddMessageDelta(lowest),))
        for victim in (kmatrix.sorted_by_priority()[0].name,
                       kmatrix.sorted_by_priority()[-1].name):
            assert_query_exact(session, (RemoveMessageDelta(victim),))

    @pytest.mark.parametrize("seed", (0, 3, 7, 11))
    def test_stacked_deltas(self, seed):
        kmatrix = _matrix(seed)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        order = [m.name for m in kmatrix.sorted_by_priority()]
        deltas = (
            JitterDelta(fraction=0.25),
            ErrorModelDelta(SporadicErrorModel(min_interarrival=50.0)),
            PriorityDelta(swap=(order[0], order[2])),
            JitterDelta(message_name=order[1], jitter=4.0),
            BusDelta(bit_stuffing=False),
        )
        for length in range(1, len(deltas) + 1):
            assert_query_exact(session, deltas[:length])

    def test_chained_sweep_equals_independent_queries(self):
        """A warm-chained sweep must equal per-point fresh sessions."""
        kmatrix = _matrix(5)
        chained = AnalysisSession(kmatrix, _BUS)
        previous = None
        for fraction in (0.0, 0.1, 0.2, 0.3, 0.4):
            previous = chained.query((JitterDelta(fraction=fraction),),
                                     warm_from=previous)
            fresh = CanBusAnalysis(
                kmatrix, _BUS,
                assumed_jitter_fraction=fraction).analyze_all()
            assert previous.results == fresh


class TestEventModelDeltaExactness:
    """The engine's delta: externally injected activation models.

    Chained injections with growing jitter and an appearing minimum
    distance reproduce exactly the shape the compositional engine issues
    every global iteration -- including the sharpened cap-appearance
    dominance rule and the O(|changed|) seed re-verification, both of
    which must never cost a bit of exactness.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chained_injections_exact(self, seed):
        from repro.events.model import (
            PeriodicWithBurst,
            PeriodicWithJitter,
        )
        session = _session(seed)
        kmatrix = session.base_config.kmatrix
        targets = kmatrix.sorted_by_priority()[:2]
        previous = None
        for step in range(4):
            models = {}
            for index, message in enumerate(targets):
                jitter = (0.1 + 0.35 * step) * message.period * (index + 1)
                if step == 0:
                    models[message.name] = PeriodicWithJitter(
                        period=message.period, jitter=jitter)
                else:
                    # From step 1 on a transmission-time-scale minimum
                    # distance appears: the engine's iteration-2 shape.
                    models[message.name] = PeriodicWithBurst(
                        period=message.period,
                        jitter=max(jitter, message.period * 1.01),
                        min_distance=0.25)
            deltas = (EventModelDelta.from_mapping(models, replace_all=True),)
            result = session.query(deltas, warm_from=previous)
            expected = _reference(apply_deltas(session.base_config, deltas))
            assert result.results == expected
            previous = result

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shrinking_injections_stay_exact(self, seed):
        """Jitter shrinking between injections forces cold paths -- the
        planner must notice, not warm-start from a too-high seed."""
        from repro.events.model import PeriodicWithJitter
        session = _session(seed)
        kmatrix = session.base_config.kmatrix
        victim = kmatrix.sorted_by_priority()[0]
        previous = None
        for jitter_factor in (2.0, 0.4, 1.2, 0.1):
            models = {victim.name: PeriodicWithJitter(
                period=victim.period, jitter=jitter_factor * victim.period)}
            deltas = (EventModelDelta.from_mapping(models, replace_all=True),)
            result = session.query(deltas, warm_from=previous)
            expected = _reference(apply_deltas(session.base_config, deltas))
            assert result.results == expected
            previous = result

    def test_merge_vs_replace_semantics(self):
        from repro.events.model import PeriodicWithJitter
        session = _session(3)
        kmatrix = session.base_config.kmatrix
        first, second = kmatrix.sorted_by_priority()[:2]
        inject_first = EventModelDelta.from_mapping(
            {first.name: PeriodicWithJitter(period=first.period, jitter=1.0)})
        inject_second = EventModelDelta.from_mapping(
            {second.name: PeriodicWithJitter(period=second.period,
                                             jitter=2.0)})
        merged = apply_deltas(session.base_config,
                              (inject_first, inject_second))
        assert set(merged.event_models) == {first.name, second.name}
        replaced = apply_deltas(
            session.base_config,
            (inject_first,
             EventModelDelta.from_mapping(
                 {second.name: PeriodicWithJitter(period=second.period,
                                                  jitter=2.0)},
                 replace_all=True)))
        assert set(replaced.event_models) == {second.name}
        assert_query_exact(session, (inject_first, inject_second))

    def test_unknown_message_rejected(self):
        from repro.events.model import PeriodicWithJitter
        session = _session(1)
        delta = EventModelDelta.from_mapping(
            {"NoSuchMessage": PeriodicWithJitter(period=5.0, jitter=1.0)})
        with pytest.raises(KeyError):
            session.query((delta,))

    def test_non_event_model_value_rejected(self):
        with pytest.raises(ValueError):
            EventModelDelta(models=(("M", 5.0),))


def _seed_check_script(kmatrix: KMatrix) -> list[tuple]:
    """Same-structure what-ifs whose warm seeds go through the session's
    seed re-verification: single-message jitter growth (counts that move
    for few or many lower-priority windows), then engine-shaped
    injections on the three highest-priority messages (growing jitter,
    an appearing minimum distance), a return to the base shape, and a
    changed top row beside a changed lowest-priority one."""
    from repro.events.model import PeriodicWithBurst, PeriodicWithJitter
    order = kmatrix.sorted_by_priority()
    top = order[:3]
    script = [(JitterDelta(message_name=message.name, jitter=jitter),)
              for message, jitter in ((order[0], 0.01), (order[0], 0.02),
                                      (order[1], 0.3), (order[0], 1.5),
                                      (order[2], 4.0), (order[1], 6.0))]
    for step in range(4):
        models = {}
        for index, message in enumerate(top):
            jitter = (0.05 + 0.3 * step) * message.period * (index + 1)
            if step < 2:
                models[message.name] = PeriodicWithJitter(
                    period=message.period, jitter=jitter)
            else:
                models[message.name] = PeriodicWithBurst(
                    period=message.period,
                    jitter=max(jitter, message.period * 1.01),
                    min_distance=0.25)
        script.append(
            (EventModelDelta.from_mapping(models, replace_all=True),))
    script.append((EventModelDelta.from_mapping(
        {top[0].name: PeriodicWithJitter(period=top[0].period, jitter=0.0)},
        replace_all=True),))
    # The lowest row's counts move at every other seed's windows, but it
    # interferes with none of them.
    last = order[-1]
    script.append((EventModelDelta.from_mapping(
        {top[0].name: PeriodicWithJitter(period=top[0].period, jitter=0.01),
         last.name: PeriodicWithJitter(period=last.period,
                                       jitter=1.5 * last.period)},
        replace_all=True),))
    return script


class TestSeedReverification:
    """The warm-seed shortcut: exact, and exactly as eager as it was.

    A seed whose changed higher-priority counts do not move at any of its
    windows is returned as reused without a solve.  Every answer, reused
    messages included, must equal a cold analysis, and the per-query
    reused/warm/cold split is pinned, so an edit that makes the shortcut
    stricter (more solves) or looser (more reuse) fails here.
    """

    #: Per-query (reused, warm_started, cold) of the script, by seed.
    PINNED = {
        0: [(23, 1, 0), (23, 1, 0), (19, 5, 0), (13, 11, 0), (4, 20, 0),
            (1, 23, 0), (0, 0, 24), (0, 24, 0), (0, 24, 0), (1, 23, 0),
            (23, 1, 0), (22, 2, 0)],
        3: [(23, 1, 0), (23, 1, 0), (21, 3, 0), (11, 13, 0), (2, 22, 0),
            (1, 23, 0), (14, 10, 0), (0, 24, 0), (0, 24, 0), (1, 23, 0),
            (23, 1, 0), (22, 2, 0)],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_decisions_pinned_and_exact(self, seed):
        kmatrix = synthetic_kmatrix(
            n_messages=24, n_ecus=4, seed=seed, id_policy="rate-monotonic",
            known_jitter_probability=0.3)
        session = AnalysisSession(kmatrix, _BUS)
        previous = session.analyze()
        decisions = []
        for deltas in _seed_check_script(kmatrix):
            result = session.query(deltas, warm_from=previous)
            # Reused messages included: the cold analysis is the oracle.
            assert result.results == _reference(
                apply_deltas(session.base_config, deltas))
            decisions.append((result.stats.reused,
                              result.stats.warm_started, result.stats.cold))
            previous = result
        assert decisions == self.PINNED[seed]


class TestSessionMechanics:
    def test_repeated_query_hits_cache(self):
        session = _session(2)
        first = session.query((JitterDelta(fraction=0.2),))
        second = session.query((JitterDelta(fraction=0.2),))
        assert second.stats.cache_hit
        assert first.results == second.results
        assert first.fingerprint == second.fingerprint

    def test_deadline_policy_reuses_analysis_cache(self):
        session = _session(2)
        period = session.query((JitterDelta(fraction=0.2),))
        strict = session.query(
            (JitterDelta(fraction=0.2), DeadlinePolicyDelta("min-rearrival")))
        assert strict.stats.cache_hit
        assert strict.report.deadline_policy == "min-rearrival"
        assert period.report.deadline_policy == "period"
        assert {v.name: v.worst_case_response
                for v in strict.report.verdicts} == {
                    v.name: v.worst_case_response
                    for v in period.report.verdicts}

    def test_cached_configuration_builds_its_report_once(self, monkeypatch):
        builds = _count_report_builds(monkeypatch)
        session = _session(2)
        deltas = (JitterDelta(fraction=0.2),)
        config = apply_deltas(session.base_config, deltas)
        first = session.query(deltas)
        again = session.query(deltas)
        assert again.stats.cache_hit
        assert again.report is first.report
        assert first.report == _fresh_report(config, "period")
        assert builds == ["period"]

    def test_each_deadline_policy_gets_its_own_report(self, monkeypatch):
        builds = _count_report_builds(monkeypatch)
        session = _session(2)
        deltas = (JitterDelta(fraction=0.2),)
        config = apply_deltas(session.base_config, deltas)
        period = session.query(deltas)
        strict = session.query(
            deltas + (DeadlinePolicyDelta("min-rearrival"),))
        assert strict.stats.cache_hit
        assert strict.report is not period.report
        assert strict.report == _fresh_report(config, "min-rearrival")
        assert period.report == _fresh_report(config, "period")
        assert session.query(
            deltas, deadline_policy="min-rearrival").report is strict.report
        assert session.query(deltas).report is period.report
        assert builds == ["period", "min-rearrival"]

    def test_subset_and_reportless_queries_cache_no_report(self, monkeypatch):
        builds = _count_report_builds(monkeypatch)
        kmatrix = _matrix(6)
        session = AnalysisSession(kmatrix, _BUS)
        deltas = (JitterDelta(fraction=0.3),)
        names = tuple(m.name for m in kmatrix)[:3]
        assert session.query(deltas, message_names=names).report is None
        assert session.query(deltas, with_report=False).report is None
        assert session.query(deltas, message_names=names).report is None
        assert builds == []
        full = session.query(deltas)
        assert builds == ["period"]
        assert full.report == _fresh_report(
            apply_deltas(session.base_config, deltas), "period")

    def test_cancelled_query_caches_no_report(self, monkeypatch):
        builds = _count_report_builds(monkeypatch)
        session = _session(3)
        deltas = (JitterDelta(fraction=0.25),)
        token = CancelToken()
        token.cancel()
        with pytest.raises(Cancelled):
            session.query(deltas, cancel=token)
        assert builds == []
        result = session.query(deltas)
        assert builds == ["period"]
        assert result.report == _fresh_report(
            apply_deltas(session.base_config, deltas), "period")

    def test_low_priority_whatif_reuses_upstream_results(self):
        """Bumping the lowest-priority jitter must not re-solve the rest."""
        kmatrix = _matrix(4)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        victim = kmatrix.sorted_by_priority()[-1]
        grown = (victim.jitter or 0.0) + 3.0
        result = session.query(
            (JitterDelta(message_name=victim.name, jitter=grown),))
        assert result.stats.reused == len(kmatrix) - 1
        assert result.stats.cold == 0

    def test_subset_query_matches_full_query(self):
        kmatrix = _matrix(6)
        session = AnalysisSession(kmatrix, _BUS)
        names = tuple(m.name for m in kmatrix)[:3]
        subset = session.query((JitterDelta(fraction=0.3),),
                               message_names=names)
        assert set(subset.results) == set(names)
        assert subset.report is None
        full = session.query((JitterDelta(fraction=0.3),))
        for name in names:
            assert subset.results[name] == full.results[name]

    def test_subset_then_full_extends_partial_entry(self):
        kmatrix = _matrix(6)
        session = AnalysisSession(kmatrix, _BUS)
        name = kmatrix.messages[0].name
        session.query((JitterDelta(fraction=0.1),), message_names=(name,))
        full = session.query((JitterDelta(fraction=0.1),))
        expected = CanBusAnalysis(
            kmatrix, _BUS, assumed_jitter_fraction=0.1).analyze_all()
        assert full.results == expected

    def test_cache_eviction_keeps_base_and_stays_exact(self):
        kmatrix = _matrix(3)
        session = AnalysisSession(kmatrix, _BUS, max_cached_configs=3)
        session.analyze()
        for fraction in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            assert_query_exact(session, (JitterDelta(fraction=fraction),))
        base_again = session.analyze()
        assert base_again.results == _reference(session.base_config)

    def test_unknown_message_rejected(self):
        session = _session(1)
        with pytest.raises(KeyError):
            session.query((JitterDelta(message_name="NoSuch", jitter=1.0),))
        with pytest.raises(KeyError):
            session.query((), message_names=("NoSuch",))

    def test_warm_from_accepts_tuples_of_results_and_keys(self):
        session = _session(1)
        first = session.query((JitterDelta(fraction=0.1),))
        second = session.query((JitterDelta(fraction=0.2),))
        chained = session.query((JitterDelta(fraction=0.3),),
                                warm_from=(first, second))
        assert chained.results == _reference(
            apply_deltas(session.base_config, (JitterDelta(fraction=0.3),)))
        key = session.key_for((JitterDelta(fraction=0.2),))
        keyed = session.query((JitterDelta(fraction=0.35),), warm_from=(key,))
        assert keyed.stats.warm_started > 0

    def test_priority_swap_accepts_list(self):
        kmatrix = _matrix(1)
        session = AnalysisSession(kmatrix, _BUS)
        names = [m.name for m in kmatrix.sorted_by_priority()]
        delta = PriorityDelta(swap=[names[0], names[1]])
        result = session.query((delta,))
        assert result.results == _reference(
            apply_deltas(session.base_config, (delta,)))

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            JitterDelta()
        with pytest.raises(ValueError):
            JitterDelta(message_name="X", jitter=1.0, fraction=0.1)
        with pytest.raises(ValueError):
            PriorityDelta()
        with pytest.raises(ValueError):
            PriorityDelta(swap=("a", "b"), order=("a", "b"))
        with pytest.raises(ValueError):
            DeadlinePolicyDelta("bogus")


class TestCatalogAndBatch:
    def test_builtin_catalog_runs_bit_exact(self):
        catalog = builtin_catalog()
        assert "paper-jitter-sweep" in catalog
        session = _session(8)
        run = catalog.run("paper-error-sweep-sporadic", session)
        assert len(run.queries) == 8
        for query in run.queries:
            expected = _reference(
                apply_deltas(session.base_config, query.deltas))
            assert query.results == expected
        assert "paper-error-sweep-sporadic" in run.to_table()

    def test_catalog_registration_and_errors(self):
        catalog = ScenarioCatalog()
        scenario = jitter_sweep_scenario(fractions=(0.0, 0.2))
        catalog.register(scenario)
        with pytest.raises(ValueError):
            catalog.register(scenario)
        catalog.register(scenario, overwrite=True)
        with pytest.raises(KeyError):
            catalog.get("missing")
        assert catalog.names() == [scenario.name]

    def test_message_jitter_and_swap_families(self):
        kmatrix = _matrix(9)
        session = AnalysisSession(kmatrix, _BUS)
        session.analyze()
        order = [m.name for m in kmatrix.sorted_by_priority()]
        for scenario in (
                message_jitter_sweep_scenario(order[-1], (0.5, 1.0, 2.0)),
                priority_swap_scenario([(order[0], order[1]),
                                        (order[1], order[-1])])):
            run = scenario.run(session)
            for query in run.queries:
                expected = _reference(
                    apply_deltas(session.base_config, query.deltas))
                assert query.results == expected

    def test_system_jobs_cover_all_buses(self):
        system = multibus_system(n_buses=3, messages_per_bus=8, seed=2)
        scenario = jitter_sweep_scenario(fractions=(0.0, 0.2))
        results = [
            scenario.run(AnalysisSession.from_system(system, bus, name=bus))
            for bus in system.buses]
        assert [r.session for r in results] == list(system.buses)
        for result, segment in zip(results, system.buses.values()):
            expected = _reference(BusConfiguration(
                kmatrix=segment.kmatrix, bus=segment.bus,
                error_model=segment.error_model,
                assumed_jitter_fraction=0.2,
                controllers=dict(system.controllers) or None))
            assert result.queries[-1].results == expected


    @pytest.mark.parametrize("name", (
        "paper-jitter-sweep", "jitter-sweep-fine",
        "paper-error-sweep-sporadic", "paper-error-sweep-burst"))
    def test_sweep_steps_warm_start_from_the_previous_step(self, name):
        """A catalog sweep on a fresh session plans every step after the
        first against the step before it, with no cold message: the
        session's previous-query basis is the scenario's warm chain."""
        kmatrix, bus = scaling_benchmark_case(100)
        run = builtin_catalog().run(name, AnalysisSession(kmatrix, bus))
        for previous, step in zip(run.queries, run.queries[1:]):
            assert step.stats.basis == previous.key, step.label
            assert step.stats.cold == 0, step.label


class TestSessionEvaluator:
    @pytest.mark.parametrize("seed", (0, 4, 9, 13))
    def test_matches_direct_evaluation(self, seed):
        kmatrix = _matrix(seed)
        scenarios = [
            AnalysisScenario(name="lo", bus=_BUS, assumed_jitter_fraction=0.1),
            AnalysisScenario(name="hi", bus=_BUS, assumed_jitter_fraction=0.3),
            AnalysisScenario(
                name="noisy", bus=_BUS,
                error_model=SporadicErrorModel(min_interarrival=40.0),
                assumed_jitter_fraction=0.2,
                deadline_policy="min-rearrival"),
        ]
        evaluator = SessionEvaluator(kmatrix, scenarios)
        order = tuple(m.name for m in kmatrix.sorted_by_priority())
        assert (evaluator.evaluate(order)
                == evaluate_configuration(kmatrix, scenarios))
        # A mutated child seeded from the parent stays exact.
        child = order[1:] + order[:1]
        pool = sorted(m.can_id for m in kmatrix)
        child_matrix = kmatrix.with_priorities(dict(zip(child, pool)))
        seeded = evaluator.evaluate(child, parent=order)
        assert seeded == evaluate_configuration(child_matrix, scenarios)

    def test_repeated_candidates_hit_cache(self):
        kmatrix = _matrix(2)
        scenarios = [
            AnalysisScenario(name="a", bus=_BUS, assumed_jitter_fraction=0.1),
            AnalysisScenario(name="b", bus=_BUS, assumed_jitter_fraction=0.2),
        ]
        evaluator = SessionEvaluator(kmatrix, scenarios)
        order = tuple(m.name for m in kmatrix.sorted_by_priority())
        first = evaluator.evaluate(order)
        second = evaluator.evaluate(order)
        assert first == second
        sessions = list(evaluator._sessions.values())
        assert sessions and all(s.cache_hits > 0 for s in sessions)


class TestScenarioRunReporting:
    def test_rows_and_describe(self):
        session = _session(7)
        scenario = jitter_sweep_scenario(fractions=(0.0, 0.3))
        run = scenario.run(session)
        rows = run.rows()
        assert len(rows) == 2
        assert rows[0][0] == "jitter 0%"
        text = run.describe()
        assert "paper-jitter-sweep" in text
        table = run.to_table()
        assert "reused" in table and "cold" in table
