"""Property-based equivalence: optimised kernel vs retained reference path.

The cached/warm-started analysis kernel of
:mod:`repro.analysis.response_time` must return results **identical** (not
just close) to the naive formulation retained in
:mod:`repro.analysis.reference` -- same float summation order, same fixed
points, bit for bit.  These tests sweep many structurally different
synthetic K-Matrices (:func:`repro.workloads.scaling.synthetic_kmatrix`
seeds, mirroring a hypothesis-style generator with a fixed corpus so CI is
deterministic) and compare full result objects with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.reference import ReferenceCanBusAnalysis
from repro.analysis.response_time import CanBusAnalysis
from repro.analysis.vector import _eta_plus_vec, _segment_layout, _segment_sums
from repro.can.bus import CanBus
from repro.can.controller import CanControllerType, ControllerModel
from repro.errors.models import (
    BurstErrorModel,
    CompositeErrorModel,
    SporadicErrorModel,
)
from repro.events.model import EventModel, PeriodicWithJitter
from repro.optimize.genetic import GeneticOptimizerConfig, optimize_priorities
from repro.optimize.objectives import AnalysisScenario, evaluate_configuration
import repro.parallel
from repro.parallel import parallel_map, resolve_mode
from repro.service.deltas import apply_deltas
from repro.service.evaluation import SessionEvaluator
from repro.sensitivity.jitter import jitter_sensitivity, jitter_sensitivity_all
from repro.workloads.scaling import scaling_benchmark_case, synthetic_kmatrix

#: Synthetic K-Matrix corpus: >= 20 seeds with varying shape and id policy.
SEEDS = tuple(range(24))

_BUS = CanBus(name="equiv", bit_rate_bps=250_000.0)


def _matrix(seed: int):
    return synthetic_kmatrix(
        n_messages=10 + seed % 7,
        n_ecus=3 + seed % 4,
        seed=seed,
        id_policy=("block", "rate-monotonic", "random")[seed % 3],
        known_jitter_probability=0.3,
    )


def _error_model(seed: int):
    """No errors, sporadic, burst, or both superposed.

    ``CompositeErrorModel`` adds its components' overheads with the
    builtin ``sum()``, which compensates float sums since Python 3.12; the
    kernel and the reference call the same method, so they must agree on
    every version.
    """
    if seed % 4 == 0:
        return None
    sporadic = SporadicErrorModel(min_interarrival=25.0)
    burst = BurstErrorModel(min_interarrival=60.0, burst_length=3,
                            intra_burst_gap=0.5)
    if seed % 4 == 1:
        return sporadic
    if seed % 4 == 2:
        return burst
    return CompositeErrorModel(components=(sporadic, burst))


_CONTROLLER_KINDS = (CanControllerType.QUEUED_FIFO, CanControllerType.BASIC,
                     CanControllerType.FULL)


def _controllers(seed: int):
    """Mixed controllers on two seeds in three, none on the rest.

    A FIFO-queued ECU's internal blocking is a builtin ``sum()`` of the
    transmission times queued ahead (two or three of them here), shared by
    the kernel and the reference like the composite error overhead.
    """
    if seed % 3 == 0:
        return None
    return {f"ECU{i + 1}": ControllerModel(
                controller_type=_CONTROLLER_KINDS[(seed + i) % 3],
                tx_buffers=3 + i % 2)
            for i in range(3 + seed % 4)}


class TestAnalyzeAllEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_analysis_identical(self, seed):
        kmatrix = _matrix(seed)
        fraction = (seed % 5) * 0.1
        kwargs = dict(error_model=_error_model(seed),
                      assumed_jitter_fraction=fraction,
                      controllers=_controllers(seed))
        fast = CanBusAnalysis(kmatrix, _BUS, **kwargs).analyze_all()
        slow = ReferenceCanBusAnalysis(kmatrix, _BUS, **kwargs).analyze_all()
        assert fast == slow

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_start_identical_to_cold(self, seed):
        """Ascending-jitter warm starts converge to the same fixed points."""
        kmatrix = _matrix(seed)
        previous = None
        for fraction in (0.0, 0.1, 0.25, 0.4, 0.6):
            analysis = CanBusAnalysis(
                kmatrix, _BUS, assumed_jitter_fraction=fraction)
            warm = analysis.analyze_all(warm_start=previous)
            cold = CanBusAnalysis(
                kmatrix, _BUS, assumed_jitter_fraction=fraction).analyze_all()
            assert warm == cold
            previous = warm

    def test_scaling_case_identical(self):
        kmatrix, bus = scaling_benchmark_case(100)
        assert (CanBusAnalysis(kmatrix, bus).analyze_all()
                == ReferenceCanBusAnalysis(kmatrix, bus).analyze_all())


class TestBackendEquivalence:
    """The batch solver, whole-bus and per message, vs the reference spec."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backends_bit_identical(self, seed):
        kmatrix = _matrix(seed)
        kwargs = dict(error_model=_error_model(seed),
                      assumed_jitter_fraction=(seed % 5) * 0.1,
                      controllers=_controllers(seed))
        analysis = CanBusAnalysis(kmatrix, _BUS, **kwargs)
        reference = ReferenceCanBusAnalysis(
            kmatrix, _BUS, **kwargs).analyze_all()
        assert analysis.analyze_all() == reference
        singles = CanBusAnalysis(kmatrix, _BUS, **kwargs)
        assert {m.name: singles.response_time(m) for m in kmatrix} \
            == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_warm_start_identical(self, seed):
        """Ascending-jitter seeds through the batched pass stay exact."""
        kmatrix = _matrix(seed)
        previous = None
        for fraction in (0.0, 0.2, 0.45):
            analysis = CanBusAnalysis(
                kmatrix, _BUS, assumed_jitter_fraction=fraction)
            warm = analysis.response_times_batch(
                [(m, previous.get(m.name) if previous is not None else None)
                 for m in kmatrix])
            reference = ReferenceCanBusAnalysis(
                kmatrix, _BUS, assumed_jitter_fraction=fraction).analyze_all()
            assert warm == reference
            previous = warm

    @pytest.mark.parametrize("seed", (0, 7, 14))
    def test_batch_matches_single_message_calls(self, seed):
        kmatrix = _matrix(seed)
        kwargs = dict(error_model=_error_model(seed + 1),
                      assumed_jitter_fraction=0.2,
                      controllers=_controllers(seed + 1))
        batch_analysis = CanBusAnalysis(kmatrix, _BUS, **kwargs)
        reference = ReferenceCanBusAnalysis(kmatrix, _BUS, **kwargs)
        singles = {m.name: reference.response_time(m) for m in kmatrix}
        batched = batch_analysis.response_times_batch(
            [(m, None) for m in kmatrix])
        assert batched == singles
        # Seeding every message from its own converged result must
        # reproduce it (the fixed point is already reached).
        reseeded = batch_analysis.response_times_batch(
            [(m, singles[m.name]) for m in kmatrix])
        assert reseeded == singles
        warm_single = CanBusAnalysis(kmatrix, _BUS, **kwargs)
        assert {m.name: warm_single.response_time(
            m, warm_start=singles[m.name]) for m in kmatrix} == singles

    def test_unbounded_results_identical(self):
        """An overloaded bus diverges exactly like the reference."""
        kmatrix = _matrix(4)
        slow_bus = CanBus(name="overload", bit_rate_bps=9_600.0)
        reference = ReferenceCanBusAnalysis(kmatrix, slow_bus).analyze_all()
        assert any(not r.bounded for r in reference.values())
        assert CanBusAnalysis(kmatrix, slow_bus).analyze_all() == reference
        singles = CanBusAnalysis(kmatrix, slow_bus)
        assert {m.name: singles.response_time(m) for m in kmatrix} \
            == reference

    def test_segment_sums_add_left_to_right(self):
        """Interference sums equal the reference's ``+=`` loop bit for bit,
        on terms where compensated summation (the builtin ``sum`` since
        Python 3.12) and reordering both give a different double."""
        terms = [1.0] + [1e-16] * 10
        segments = [terms, [], terms[::-1], [2.5]]

        def plus_equals(segment):
            total = 0.0
            for term in segment:
                total += term
            return total

        assert plus_equals(terms) == 1.0
        assert plus_equals(terms[::-1]) > 1.0
        values = np.array([term for segment in segments for term in segment])
        counts = np.array([len(segment) for segment in segments])
        sums = _segment_sums(values, _segment_layout(counts))
        assert sums.tolist() == [plus_equals(s) for s in segments]

    def test_subset_batch_preserves_item_order(self):
        kmatrix = _matrix(6)
        subset = list(kmatrix)[::-2]
        analysis = CanBusAnalysis(kmatrix, _BUS)
        results = analysis.response_times_batch(
            [(m, None) for m in subset])
        assert list(results) == [m.name for m in subset]
        full = ReferenceCanBusAnalysis(kmatrix, _BUS).analyze_all()
        for message in subset:
            assert results[message.name] == full[message.name]


def _snap_windows(models: list, ks: list) -> list:
    """Windows on and one ulp around every model's count steps.

    ``k * period - jitter`` is where the jitter count steps (the snap
    boundary of its ceiling), ``k * min_distance`` where the cap does;
    ``k`` runs from below zero, so windows ``<= 0`` occur too.
    """
    steps = [0.0, -0.0]
    for model in models:
        for k in ks:
            steps.append(k * model.period - model.jitter)
            if model.min_distance > 0.0:
                steps.append(k * model.min_distance)
    return [value for step in steps
            for value in (np.nextafter(step, -np.inf), step,
                          np.nextafter(step, np.inf))]


_flat_models = st.builds(
    lambda period, jitter_factor, cap: EventModel(
        period=period, jitter=jitter_factor * period,
        min_distance=cap * period),
    period=st.floats(min_value=0.05, max_value=1000.0),
    # Up to three periods of jitter: bursts, where a cap can bind.
    jitter_factor=st.floats(min_value=0.0, max_value=3.0),
    # No cap, caps far below the period (they bind once the jitter
    # exceeds it) and caps at or above it (they never bind).
    cap=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.5),
                  st.floats(min_value=1.0, max_value=4.0)))


class TestEtaPlusCount:
    """The solver's one activation count vs the scalar ``eta_plus``.

    :func:`~repro.analysis.vector._eta_plus_vec` feeds the interference
    rows, the own-instance counts and the session's seed re-verification;
    it must equal :meth:`EventModel.eta_plus` bit for bit at every
    window, above all where a float rounding could tip a ceiling.
    """

    @settings(max_examples=200, deadline=None)
    @given(models=st.lists(_flat_models, min_size=1, max_size=4),
           ks=st.lists(st.integers(min_value=-2, max_value=60),
                       min_size=1, max_size=6),
           extra=st.lists(st.floats(min_value=-50.0, max_value=5e4),
                          max_size=6))
    @example(models=[EventModel(period=10.0, jitter=25.0, min_distance=0.5),
                     EventModel(period=10.0, jitter=2.0, min_distance=40.0),
                     EventModel(period=0.1, jitter=0.3)],
             ks=[0, 1, 3, 7], extra=[-1.0, 1e-300, 0.35])
    def test_matches_scalar_eta_plus(self, models, ks, extra):
        windows = np.array(_snap_windows(models, ks) + extra,
                           dtype=np.float64)
        params = np.array([(m.period, m.jitter, m.min_distance)
                           for m in models], dtype=np.float64)
        # Rows x windows, broadcast the way the session evaluates the
        # changed rows over every seed window.
        counts = _eta_plus_vec(windows, *params.T[..., None])
        expected = np.array([[model.eta_plus(float(dt)) for dt in windows]
                             for model in models], dtype=np.float64)
        assert counts.tobytes() == expected.tobytes()
        # One row per window, the solver's own layout.
        for model, row in zip(models, expected):
            flat = _eta_plus_vec(
                windows, np.full(windows.size, model.period),
                np.full(windows.size, model.jitter),
                np.full(windows.size, model.min_distance))
            assert flat.tobytes() == row.tobytes()


@dataclass(frozen=True)
class _DoubledArrivals(PeriodicWithJitter):
    """A model whose class overrides ``eta_plus`` (twice the arrivals)."""

    def eta_plus(self, dt: float) -> int:
        return 2 * super().eta_plus(dt)


class TestEtaPlusOverride:
    """Models overriding ``eta_plus`` stay bit-identical to the reference.

    One high- and one low-priority message get the overriding model, so the
    solver meets it both as a message's own model and as an interference
    row of every lower-priority message.
    """

    @staticmethod
    def _setup(seed: int):
        kmatrix = _matrix(seed)
        ordered = kmatrix.sorted_by_priority()
        overrides = {
            m.name: _DoubledArrivals(period=m.period, jitter=0.1 * m.period)
            for m in (ordered[0], ordered[-1])}
        return kmatrix, ordered, overrides

    @pytest.mark.parametrize("seed", (0, 3, 8, 13))
    def test_analysis_and_session_identical(self, seed):
        from repro.service import AnalysisSession, JitterDelta

        kmatrix, ordered, overrides = self._setup(seed)
        kwargs = dict(error_model=_error_model(seed),
                      assumed_jitter_fraction=0.1, event_models=overrides)
        reference = ReferenceCanBusAnalysis(
            kmatrix, _BUS, **kwargs).analyze_all()
        assert CanBusAnalysis(kmatrix, _BUS, **kwargs).analyze_all() \
            == reference
        singles = CanBusAnalysis(kmatrix, _BUS, **kwargs)
        assert {m.name: singles.response_time(m) for m in kmatrix} \
            == reference

        session = AnalysisSession(kmatrix, _BUS, **kwargs)
        assert session.query().results == reference
        for deltas in ((JitterDelta(fraction=0.3),),
                       (JitterDelta(message_name=ordered[1].name,
                                    jitter=0.4 * ordered[1].period),)):
            warm = session.query(deltas)
            assert warm.stats.cold < warm.stats.total
            config = apply_deltas(session.base_config, deltas)
            expected = ReferenceCanBusAnalysis(
                config.kmatrix, _BUS, error_model=config.error_model,
                assumed_jitter_fraction=config.assumed_jitter_fraction,
                event_models=overrides).analyze_all()
            assert warm.results == expected

    def test_adopted_kernel_drops_replaced_override_row(self):
        """Replacing an overriding row with a standard model is exact."""
        kmatrix, ordered, overrides = self._setup(5)
        basis = CanBusAnalysis(kmatrix, _BUS, event_models=overrides)
        basis.analyze_all()
        top = ordered[0].name
        standard = PeriodicWithJitter(period=ordered[0].period,
                                      jitter=overrides[top].jitter)
        models = {**overrides, top: standard}
        adopted = CanBusAnalysis(kmatrix, _BUS, event_models=models)
        adopted.adopt_kernels(basis)
        assert adopted.analyze_all() == ReferenceCanBusAnalysis(
            kmatrix, _BUS, event_models=models).analyze_all()

    @pytest.mark.parametrize("seed", (1, 5, 10))
    def test_what_if_shares_basis_kernels(self, seed):
        """Jitter and error-model what-ifs keep the structure, so their
        analyses share the basis's kernel objects and stay exact; a
        priority what-if changes the structure and builds its own."""
        from repro.service import (
            AnalysisSession,
            ErrorModelDelta,
            JitterDelta,
            PriorityDelta,
        )

        kmatrix, ordered, overrides = self._setup(seed)
        session = AnalysisSession(kmatrix, _BUS, assumed_jitter_fraction=0.1,
                                  event_models=overrides)
        base = session.query()
        basis = session._cache[base.key].analysis
        for deltas in ((JitterDelta(fraction=0.3),),
                       (JitterDelta(message_name=ordered[1].name,
                                    jitter=0.4 * ordered[1].period),),
                       (ErrorModelDelta(SporadicErrorModel(
                           min_interarrival=25.0)),)):
            result = session.query(deltas, warm_from=base)
            analysis = session._cache[result.key].analysis
            assert analysis is not basis
            assert analysis._kernels is basis._kernels
            assert all(analysis._kernel(m) is basis._kernel(m)
                       for m in kmatrix)
            config = apply_deltas(session.base_config, deltas)
            assert result.results == ReferenceCanBusAnalysis(
                config.kmatrix, _BUS, error_model=config.error_model,
                assumed_jitter_fraction=config.assumed_jitter_fraction,
                event_models=overrides).analyze_all()

        swap = (PriorityDelta(swap=(ordered[0].name, ordered[-1].name)),)
        swapped = session.query(swap, warm_from=base)
        analysis = session._cache[swapped.key].analysis
        config = apply_deltas(session.base_config, swap)
        assert analysis._kernels is not basis._kernels
        assert not any(analysis._kernel(m) is basis._kernel(m)
                       for m in config.kmatrix)
        assert swapped.results == ReferenceCanBusAnalysis(
            config.kmatrix, _BUS, assumed_jitter_fraction=0.1,
            event_models=overrides).analyze_all()

    @pytest.mark.parametrize("seed", (1, 5, 10))
    def test_cold_what_if_still_shares_basis_kernels(self, seed):
        """Shrinking the top message's jitter leaves no usable seed, so
        every message is solved cold and the plan reports no basis -- but
        the structure is the basis's, so the kernels are still shared, not
        rebuilt."""
        from repro.service import AnalysisSession, JitterDelta

        kmatrix, ordered, _ = self._setup(seed)
        session = AnalysisSession(kmatrix, _BUS, assumed_jitter_fraction=0.2)
        base = session.query()
        basis = session._cache[base.key].analysis
        top = ordered[0].name
        assert base.results[top].jitter > 0.0
        deltas = (JitterDelta(message_name=top,
                              jitter=0.5 * base.results[top].jitter),)
        result = session.query(deltas, warm_from=base)
        assert result.stats.cold == result.stats.total
        assert result.stats.basis_fingerprint is None
        analysis = session._cache[result.key].analysis
        assert analysis._kernels is basis._kernels
        config = apply_deltas(session.base_config, deltas)
        assert result.results == ReferenceCanBusAnalysis(
            config.kmatrix, _BUS, error_model=config.error_model,
            assumed_jitter_fraction=config.assumed_jitter_fraction,
            event_models=config.event_models).analyze_all()


class TestSensitivityEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sweep_matches_reference_points(self, seed):
        kmatrix = _matrix(seed)
        fractions = (0.0, 0.15, 0.3, 0.45)
        curves = jitter_sensitivity_all(kmatrix, _BUS,
                                        jitter_fractions=fractions)
        for index, fraction in enumerate(fractions):
            reference = ReferenceCanBusAnalysis(
                kmatrix, _BUS, assumed_jitter_fraction=fraction).analyze_all()
            for message in kmatrix:
                assert (curves[message.name].response_times[index]
                        == reference[message.name].worst_case)

    def test_single_message_delegates_to_shared_sweep(self):
        kmatrix = _matrix(3)
        name = kmatrix.messages[0].name
        single = jitter_sensitivity(name, kmatrix, _BUS)
        shared = jitter_sensitivity_all(kmatrix, _BUS)[name]
        assert single == shared

    def test_unsorted_fractions_keep_caller_order(self):
        kmatrix = _matrix(5)
        fractions = (0.3, 0.0, 0.6, 0.15)
        curves = jitter_sensitivity_all(kmatrix, _BUS,
                                        jitter_fractions=fractions)
        sorted_curves = jitter_sensitivity_all(
            kmatrix, _BUS, jitter_fractions=tuple(sorted(fractions)))
        for name, curve in curves.items():
            assert curve.jitter_fractions == fractions
            lookup = dict(zip(sorted_curves[name].jitter_fractions,
                              sorted_curves[name].response_times))
            assert curve.response_times == tuple(
                lookup[f] for f in fractions)


def _scenarios(seed: int) -> list[AnalysisScenario]:
    return [
        AnalysisScenario(name="lo", bus=_BUS, assumed_jitter_fraction=0.1),
        AnalysisScenario(name="hi", bus=_BUS, assumed_jitter_fraction=0.3),
        AnalysisScenario(
            name="noisy", bus=_BUS,
            error_model=SporadicErrorModel(min_interarrival=40.0),
            assumed_jitter_fraction=0.2, deadline_policy="min-rearrival"),
    ]


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_objective_values_identical(self, seed):
        """Kernel == reference objective vector, and the GA's session path
        (chained + parent-seeded) == a cold evaluation."""
        kmatrix = _matrix(seed)
        scenarios = _scenarios(seed)
        fast = evaluate_configuration(kmatrix, scenarios)
        slow = evaluate_configuration(kmatrix, scenarios, backend="reference")
        assert fast == slow
        evaluator = SessionEvaluator(kmatrix, scenarios)
        order = tuple(m.name for m in kmatrix.sorted_by_priority())
        assert evaluator.evaluate(order) == fast
        # Parent seeding from a *different* candidate must stay exact: demote
        # the highest-priority message to the back, seed from the original.
        child_order = order[1:] + order[:1]
        pool = sorted(m.can_id for m in kmatrix)
        child = kmatrix.with_priorities(
            dict(zip(child_order, pool)))
        seeded = evaluator.evaluate(child_order, parent=order)
        assert seeded == evaluate_configuration(child, scenarios)

    @pytest.mark.parametrize("seed", (0, 5, 11, 17, 23))
    def test_ga_runs_identical(self, seed):
        kmatrix = _matrix(seed)
        scenarios = _scenarios(seed)
        config = dict(population_size=6, archive_size=3, generations=2,
                      seed=seed)
        fast = optimize_priorities(kmatrix, scenarios,
                                   GeneticOptimizerConfig(**config))
        slow = optimize_priorities(
            kmatrix, scenarios,
            GeneticOptimizerConfig(**config, analysis_backend="reference"))
        assert fast.best_evaluation == slow.best_evaluation
        assert fast.original_evaluation == slow.original_evaluation
        assert fast.history == slow.history
        assert fast.evaluations == slow.evaluations
        assert ([m.can_id for m in fast.best_kmatrix]
                == [m.can_id for m in slow.best_kmatrix])


def _square(x):
    return x * x


def _uneven_work(n):
    total = 0
    for i in range((20 - n) * 500):
        total += i
    return n


def _boom(n):
    if n == 3:
        raise ValueError("n=3")
    return n


def _analyze_at(fraction):
    return CanBusAnalysis(
        _matrix(7), _BUS, assumed_jitter_fraction=fraction).analyze_all()


class TestParallelHelper:
    def test_serial_and_process_modes_agree(self):
        items = list(range(20))
        assert (parallel_map(_square, items, mode="serial")
                == parallel_map(_square, items, mode="process")
                == [x * x for x in items])

    def test_unpicklable_callable_runs_serially(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("a closure was shipped to a process pool")

        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", no_pool)
        offset = 1
        assert parallel_map(lambda x: x + offset, [1, 2, 3],  # noqa: E731
                            mode="process") == [2, 3, 4]

    def test_order_preserved_with_uneven_work(self):
        assert (parallel_map(_uneven_work, list(range(20)), mode="process")
                == list(range(20)))

    def test_exceptions_propagate(self):
        for mode in ("serial", "process"):
            with pytest.raises(ValueError):
                parallel_map(_boom, [1, 2, 3, 4], mode=mode)

    def test_resolve_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert resolve_mode("serial", 10) == "serial"
        assert resolve_mode("auto", 10) == "serial"
        assert resolve_mode("process", 10) == "process"
        assert resolve_mode("process", 1) == "serial"
        for mode in ("warp", "thread"):
            with pytest.raises(ValueError):
                resolve_mode(mode, 4)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "serial")
        assert resolve_mode("process", 10) == "serial"
        monkeypatch.setenv("REPRO_PARALLEL", "process")
        assert resolve_mode("auto", 10) == "process"

    def test_parallel_analysis_matches_serial(self, monkeypatch):
        """Process-parallel segment analysis returns bit-identical results."""
        jobs = [0.0, 0.1, 0.2, 0.3]
        monkeypatch.setenv("REPRO_PARALLEL", "process")
        processed = parallel_map(_analyze_at, jobs)
        monkeypatch.setenv("REPRO_PARALLEL", "serial")
        serial = parallel_map(_analyze_at, jobs)
        assert processed == serial
