"""Session-backed candidate evaluation for the priority optimizer.

The GA evaluates thousands of identifier assignments against the same small
scenario set.  :class:`SessionEvaluator` routes those evaluations through
cached-kernel sessions -- one per (bus, error model, controllers) scenario
group -- so every candidate is expressed as a
:class:`~repro.service.deltas.PriorityDelta` plus the scenario's jitter
fraction.  The session's incremental planner then delivers the
per-candidate incremental re-analysis:

* messages whose higher-priority set a mutation did not touch **reuse** the
  parent's converged fixed point outright (no iteration at all);
* messages that only *lost* priority **warm-start** from the parent;
* messages that gained priority are analysed cold, preserving exactness.

Inside one group the scenarios run in ascending jitter, each warm-started
from the previous one.  Every evaluation is bit-identical to the cold
:func:`repro.optimize.objectives.evaluate_configuration`, and this is the
GA's only kernel evaluation path.
"""

from __future__ import annotations

from typing import Sequence

from repro.can.kmatrix import KMatrix
from repro.optimize.objectives import (
    AnalysisScenario,
    ConfigurationEvaluation,
    aggregate_reports,
)
from repro.service.deltas import JitterDelta, PriorityDelta
from repro.service.session import AnalysisSession, QueryResult


def _group_key(scenario: AnalysisScenario) -> tuple:
    return (scenario.bus, scenario.error_model,
            tuple(sorted((scenario.controllers or {}).items())))


class SessionEvaluator:
    """Evaluates identifier assignments through cached what-if sessions.

    Bit-identical to :func:`repro.optimize.objectives.evaluate_configuration`.
    Thread-safe: the underlying sessions serialise cache access and every
    analysis path is deterministic.
    """

    def __init__(
        self,
        kmatrix: KMatrix,
        scenarios: Sequence[AnalysisScenario],
        sensitivity_threshold: float = 0.10,
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
                    name=f"ga:{scenario.bus.name}",
                )
            self._session_of.append(self._sessions[key])
        # Ascending-jitter schedule: each scenario warm-starts the next
        # one of its group.
        self._schedule = sorted(
            range(len(self.scenarios)),
            key=lambda i: self.scenarios[i].assumed_jitter_fraction)

    def _deltas_for(self, order: tuple[str, ...], index: int):
        fraction = self.scenarios[index].assumed_jitter_fraction
        return (PriorityDelta(order=order), JitterDelta(fraction=fraction))

    def evaluate(
        self,
        order: Sequence[str],
        parent: Sequence[str] | None = None,
    ) -> ConfigurationEvaluation:
        """Evaluate one priority order across all scenarios.

        ``order`` lists message names from highest to lowest priority; the
        base matrix's identifier pool is re-assigned along it (the GA's
        encoding).  ``parent`` is the priority order of the candidate this
        one was derived from; its cached configurations seed the
        incremental plans.
        """
        order = tuple(order)
        reports = {}
        previous_in_group: dict[int, QueryResult] = {}
        for index in self._schedule:
            scenario = self.scenarios[index]
            session = self._session_of[index]
            warm = []
            chained = previous_in_group.get(id(session))
            if chained is not None:
                warm.append(chained)
            if parent is not None:
                warm.append(session.key_for(
                    self._deltas_for(tuple(parent), index)))
            result = session.query(
                self._deltas_for(order, index),
                warm_from=warm or None,
                deadline_policy=scenario.deadline_policy,
                label=f"{scenario.name}")
            reports[index] = result.report
            previous_in_group[id(session)] = result
        return aggregate_reports(
            [reports[i] for i in range(len(self.scenarios))],
            self.sensitivity_threshold)

    def describe(self) -> str:
        """Cache statistics of the underlying sessions."""
        return "\n".join(session.describe()
                         for session in self._sessions.values())
