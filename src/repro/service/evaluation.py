"""Session-backed candidate evaluation for the priority optimizer.

The GA evaluates thousands of identifier assignments against the same small
scenario set.  :class:`SessionEvaluator` routes those evaluations through
cached-kernel sessions -- one per (bus, error model, controllers) scenario
group -- so every candidate is expressed as a
:class:`~repro.service.deltas.PriorityDelta` plus the scenario's jitter
fraction.  The session's incremental planner then delivers the ROADMAP's
"per-candidate incremental re-analysis" for free:

* messages whose higher-priority set a mutation did not touch **reuse** the
  parent's converged fixed point outright (no iteration at all);
* messages that only *lost* priority **warm-start** from the parent (the
  ``_parent_seeds`` criterion of :mod:`repro.optimize.objectives`,
  generalised and machine-checked);
* messages that gained priority are analysed cold, preserving exactness.

Scenario chaining (ascending jitter inside one group) also falls out of the
planner, so the evaluator subsumes both warm-start channels of
:func:`repro.optimize.objectives.evaluate_configuration_with_context` while
returning bit-identical evaluations and contexts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.can.kmatrix import KMatrix
from repro.optimize.objectives import (
    AnalysisScenario,
    ConfigurationEvaluation,
    EvaluationContext,
    aggregate_reports,
)
from repro.service.deltas import JitterDelta, PriorityDelta
from repro.service.session import AnalysisSession, QueryResult


def _group_key(scenario: AnalysisScenario) -> tuple:
    return (scenario.bus, scenario.error_model,
            tuple(sorted((scenario.controllers or {}).items())))


class SessionEvaluator:
    """Evaluates identifier assignments through cached what-if sessions.

    Drop-in (bit-identical) replacement for the ``"kernel"`` path of
    :func:`repro.optimize.objectives.evaluate_configuration_with_context`.
    Thread-safe: the underlying sessions serialise cache access and every
    analysis path is deterministic.
    """

    def __init__(
        self,
        kmatrix: KMatrix,
        scenarios: Sequence[AnalysisScenario],
        sensitivity_threshold: float = 0.10,
        max_cached_configs: int = 128,
    ) -> None:
        self.kmatrix = kmatrix
        self.scenarios = tuple(scenarios)
        self.sensitivity_threshold = sensitivity_threshold
        self._sessions: dict[tuple, AnalysisSession] = {}
        self._session_of: list[AnalysisSession] = []
        base_fraction: dict[tuple, float] = {}
        for scenario in self.scenarios:
            key = _group_key(scenario)
            fraction = scenario.assumed_jitter_fraction
            if key not in base_fraction or fraction < base_fraction[key]:
                base_fraction[key] = fraction
        for scenario in self.scenarios:
            key = _group_key(scenario)
            if key not in self._sessions:
                self._sessions[key] = AnalysisSession(
                    kmatrix=kmatrix,
                    bus=scenario.bus,
                    error_model=scenario.error_model,
                    assumed_jitter_fraction=base_fraction[key],
                    controllers=scenario.controllers,
                    max_cached_configs=max_cached_configs,
                    name=f"ga:{scenario.bus.name}",
                )
            self._session_of.append(self._sessions[key])
        # Ascending-jitter schedule, mirroring the direct evaluation path.
        self._schedule = sorted(
            range(len(self.scenarios)),
            key=lambda i: self.scenarios[i].assumed_jitter_fraction)

    def _deltas_for(self, order: tuple[str, ...], index: int):
        fraction = self.scenarios[index].assumed_jitter_fraction
        return (PriorityDelta(order=order), JitterDelta(fraction=fraction))

    def evaluate(
        self,
        order: Sequence[str],
        warm_start: EvaluationContext | None = None,
    ) -> tuple[ConfigurationEvaluation, EvaluationContext]:
        """Evaluate one priority order across all scenarios.

        ``order`` lists message names from highest to lowest priority; the
        base matrix's identifier pool is re-assigned along it (the GA's
        encoding).  ``warm_start`` names the parent candidate whose cached
        configurations seed the incremental plans.
        """
        order = tuple(order)
        reports = {}
        results: dict[int, Mapping] = {}
        previous_in_group: dict[int, QueryResult] = {}
        for index in self._schedule:
            scenario = self.scenarios[index]
            session = self._session_of[index]
            warm = []
            chained = previous_in_group.get(id(session))
            if chained is not None:
                warm.append(chained)
            if warm_start is not None:
                warm.append(session.key_for(
                    self._deltas_for(warm_start.priority_order, index)))
            result = session.query(
                self._deltas_for(order, index),
                warm_from=warm or None,
                deadline_policy=scenario.deadline_policy,
                label=f"{scenario.name}")
            reports[index] = result.report
            results[index] = result.results
            previous_in_group[id(session)] = result
        evaluation = aggregate_reports(
            [reports[i] for i in range(len(self.scenarios))],
            self.sensitivity_threshold)
        context = EvaluationContext(
            priority_order=order,
            scenario_results=tuple(
                results[i] for i in range(len(self.scenarios))),
        )
        return evaluation, context

    def describe(self) -> str:
        """Cache statistics of the underlying sessions."""
        return "\n".join(session.describe()
                         for session in self._sessions.values())
