"""Unit tests for priority-assignment baselines and the genetic optimizer."""

from __future__ import annotations

import pytest

import repro.parallel
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.errors.models import NoErrors
from repro.optimize.assignment import (
    audsley_assignment,
    deadline_monotonic_assignment,
    rate_monotonic_assignment,
)
from repro.optimize.genetic import (
    GeneticOptimizerConfig,
    optimize_priorities,
)
from repro.optimize.objectives import (
    AnalysisScenario,
    evaluate_configuration,
    paper_scenarios,
)


@pytest.fixture()
def inverted_matrix() -> KMatrix:
    """Fast messages carry the worst identifiers (anti-rate-monotonic)."""
    return KMatrix(messages=[
        CanMessage(name="Slow1", can_id=0x100, dlc=8, period=200.0, sender="E1"),
        CanMessage(name="Slow2", can_id=0x101, dlc=8, period=200.0, sender="E2"),
        CanMessage(name="Mid1", can_id=0x200, dlc=8, period=20.0, sender="E1"),
        CanMessage(name="Fast1", can_id=0x300, dlc=8, period=5.0, sender="E2",
                   deadline=1.0),
        CanMessage(name="Fast2", can_id=0x301, dlc=8, period=5.0, sender="E1",
                   deadline=1.0),
    ])


class TestDeterministicAssignments:
    def test_rate_monotonic_orders_by_period(self, inverted_matrix):
        reassigned = rate_monotonic_assignment(inverted_matrix)
        ordered = [m.name for m in reassigned.sorted_by_priority()]
        assert ordered[:2] == ["Fast1", "Fast2"]
        assert ordered[-1] in {"Slow1", "Slow2"}

    def test_id_pool_is_preserved(self, inverted_matrix):
        reassigned = rate_monotonic_assignment(inverted_matrix)
        assert sorted(m.can_id for m in reassigned) == \
            sorted(m.can_id for m in inverted_matrix)

    def test_deadline_monotonic_uses_explicit_deadlines(self, inverted_matrix):
        reassigned = deadline_monotonic_assignment(inverted_matrix)
        ordered = [m.name for m in reassigned.sorted_by_priority()]
        assert set(ordered[:2]) == {"Fast1", "Fast2"}

    def test_original_matrix_untouched(self, inverted_matrix):
        rate_monotonic_assignment(inverted_matrix)
        assert inverted_matrix.get("Fast1").can_id == 0x300


class TestAudsley:
    def test_finds_feasible_assignment(self, inverted_matrix, small_bus):
        scenario = AnalysisScenario(name="strict", bus=small_bus,
                                    deadline_policy="explicit")
        # The inverted assignment misses deadlines ...
        assert scenario.analyze(inverted_matrix).loss_fraction > 0.0
        # ... but Audsley finds an assignment that does not.
        optimized, feasible = audsley_assignment(inverted_matrix, scenario)
        assert feasible
        assert scenario.analyze(optimized).all_deadlines_met

    def test_reports_infeasible_systems(self, small_bus):
        kmatrix = KMatrix(messages=[
            CanMessage(name="A", can_id=0x100, dlc=8, period=1.0,
                       deadline=0.25, sender="E1"),
            CanMessage(name="B", can_id=0x200, dlc=8, period=1.0,
                       deadline=0.25, sender="E2"),
        ])
        scenario = AnalysisScenario(name="hopeless", bus=small_bus,
                                    deadline_policy="explicit")
        optimized, feasible = audsley_assignment(kmatrix, scenario)
        assert not feasible
        assert len(optimized) == len(kmatrix)  # still a complete matrix


class TestObjectives:
    def test_evaluation_counts_losses(self, inverted_matrix, small_bus):
        scenario = AnalysisScenario(name="strict", bus=small_bus,
                                    deadline_policy="explicit")
        bad = evaluate_configuration(inverted_matrix, [scenario])
        good = evaluate_configuration(
            deadline_monotonic_assignment(inverted_matrix), [scenario])
        assert bad.lost_messages > good.lost_messages
        assert good.dominates(bad) or good.objectives() < bad.objectives()

    def test_paper_scenarios_structure(self, small_bus):
        scenarios = paper_scenarios(small_bus, jitter_fractions=(0.1, 0.25))
        assert len(scenarios) == 4
        names = {s.name for s in scenarios}
        assert any("worst" in n for n in names)
        assert any("best" in n for n in names)

    def test_dominance_is_strict(self, inverted_matrix, small_bus):
        scenario = AnalysisScenario(name="s", bus=small_bus)
        evaluation = evaluate_configuration(inverted_matrix, [scenario])
        assert not evaluation.dominates(evaluation)


class TestGeneticOptimizer:
    def test_optimizer_repairs_inverted_assignment(self, inverted_matrix,
                                                   small_bus):
        scenario = AnalysisScenario(name="strict", bus=small_bus,
                                    deadline_policy="explicit",
                                    error_model=NoErrors())
        config = GeneticOptimizerConfig(population_size=8, archive_size=4,
                                        generations=4, seed=1)
        result = optimize_priorities(inverted_matrix, [scenario], config)
        assert result.best_evaluation.lost_messages == 0
        assert result.improved
        assert scenario.analyze(result.best_kmatrix).all_deadlines_met

    def test_optimizer_never_returns_worse_than_original(self, small_kmatrix,
                                                         small_bus):
        scenario = AnalysisScenario(name="ok", bus=small_bus)
        config = GeneticOptimizerConfig(population_size=6, archive_size=3,
                                        generations=2, seed=2)
        result = optimize_priorities(small_kmatrix, [scenario], config)
        assert result.best_evaluation.lost_messages <= \
            result.original_evaluation.lost_messages

    def test_result_reuses_id_pool(self, inverted_matrix, small_bus):
        scenario = AnalysisScenario(name="strict", bus=small_bus,
                                    deadline_policy="explicit")
        config = GeneticOptimizerConfig(population_size=6, archive_size=3,
                                        generations=2, seed=3)
        result = optimize_priorities(inverted_matrix, [scenario], config)
        assert sorted(m.can_id for m in result.best_kmatrix) == \
            sorted(m.can_id for m in inverted_matrix)
        assert {m.name for m in result.best_kmatrix} == \
            {m.name for m in inverted_matrix}

    def test_process_mode_returns_the_serial_result(self, inverted_matrix,
                                                    small_bus, monkeypatch):
        """``REPRO_PARALLEL=process`` does not pick the GA's algorithm or
        executor: every candidate goes through the session planner on the
        calling thread, so no worker process starts and the run is the
        serial one."""
        scenarios = paper_scenarios(small_bus)
        config = GeneticOptimizerConfig(population_size=8, archive_size=4,
                                        generations=3, seed=5)
        monkeypatch.setenv("REPRO_PARALLEL", "serial")
        serial = optimize_priorities(inverted_matrix, scenarios, config)

        def no_pool(*args, **kwargs):
            raise AssertionError("the GA started a process pool")

        monkeypatch.setenv("REPRO_PARALLEL", "process")
        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", no_pool)
        process = optimize_priorities(inverted_matrix, scenarios, config)
        assert process.best_evaluation == serial.best_evaluation
        assert process.original_evaluation == serial.original_evaluation
        assert process.history == serial.history
        assert process.evaluations == serial.evaluations
        assert process.archive == serial.archive
        assert ([(m.name, m.can_id) for m in process.best_kmatrix]
                == [(m.name, m.can_id) for m in serial.best_kmatrix])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GeneticOptimizerConfig(population_size=1)
        with pytest.raises(ValueError):
            GeneticOptimizerConfig(mutation_probability=1.5)

    def test_describe_summarises_run(self, inverted_matrix, small_bus):
        scenario = AnalysisScenario(name="s", bus=small_bus,
                                    deadline_policy="explicit")
        config = GeneticOptimizerConfig(population_size=6, archive_size=3,
                                        generations=2, seed=4)
        result = optimize_priorities(inverted_matrix, [scenario], config)
        assert "lost messages" in result.describe()
