"""Optimizer objectives: what-if scenarios and their aggregation.

The paper's optimizer is configured "to favor robust configurations over
sensitive ones": a candidate identifier assignment is evaluated not for one
operating point but across a set of what-if scenarios (different jitter
assumptions, error models and deadline interpretations).  This module defines
the scenario abstraction and the multi-objective evaluation the genetic
optimizer and the baselines share.

:func:`evaluate_configuration` analyses every scenario cold.  The GA scores
its candidates incrementally through
:class:`repro.service.evaluation.SessionEvaluator`, which aggregates with
the same :func:`aggregate_reports` and returns identical evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.reference import ReferenceCanBusAnalysis
from repro.analysis.schedulability import (
    SchedulabilityReport,
    analyze_schedulability,
    report_from_results,
)
from repro.can.bus import CanBus
from repro.can.controller import ControllerModel
from repro.can.kmatrix import KMatrix
from repro.errors.models import BurstErrorModel, ErrorModel, NoErrors


@dataclass(frozen=True)
class AnalysisScenario:
    """One what-if operating point a candidate configuration is checked in."""

    name: str
    bus: CanBus
    error_model: ErrorModel = field(default_factory=NoErrors)
    assumed_jitter_fraction: float = 0.0
    deadline_policy: str = "period"
    controllers: Mapping[str, ControllerModel] | None = None

    def analyze(self, kmatrix: KMatrix) -> SchedulabilityReport:
        """Run the schedulability analysis of ``kmatrix`` in this scenario."""
        return analyze_schedulability(
            kmatrix=kmatrix,
            bus=self.bus,
            error_model=self.error_model,
            assumed_jitter_fraction=self.assumed_jitter_fraction,
            deadline_policy=self.deadline_policy,
            controllers=self.controllers,
        )


@dataclass(frozen=True)
class ConfigurationEvaluation:
    """Multi-objective evaluation of one identifier assignment.

    Objectives (all to be minimised):

    ``lost_messages``
        Total number of deadline misses summed over all scenarios -- the
        paper's primary goal ("exhibit less message loss").
    ``negative_robustness``
        Negated sum of the worst normalised slacks across scenarios; a more
        robust configuration has larger slacks and therefore a smaller
        (more negative) value.
    ``sensitivity_penalty``
        Number of messages whose slack falls below 10 % of their deadline in
        any scenario, approximating "favor robust configurations over
        sensitive ones".
    """

    lost_messages: int
    negative_robustness: float
    sensitivity_penalty: int
    per_scenario_loss: tuple[float, ...] = ()

    def objectives(self) -> tuple[float, float, float]:
        """Objective vector (all minimised)."""
        return (float(self.lost_messages), self.negative_robustness,
                float(self.sensitivity_penalty))

    def dominates(self, other: "ConfigurationEvaluation") -> bool:
        """Pareto dominance on the objective vector."""
        mine, theirs = self.objectives(), other.objectives()
        return all(m <= t for m, t in zip(mine, theirs)) and any(
            m < t for m, t in zip(mine, theirs))


def aggregate_reports(
    reports: Sequence[SchedulabilityReport],
    sensitivity_threshold: float = 0.10,
) -> ConfigurationEvaluation:
    """Fold per-scenario schedulability reports into the objective vector.

    Shared by the direct evaluation below and the session-backed evaluator
    in :mod:`repro.service.evaluation`, so both aggregate identically
    (``reports`` must be in caller scenario order).
    """
    lost = 0
    robustness = 0.0
    tight_messages: set[str] = set()
    per_scenario_loss = []
    for report in reports:
        lost += len(report.missed)
        per_scenario_loss.append(report.loss_fraction)
        worst = report.worst_normalized_slack
        # Clamp the contribution of one scenario so a single unbounded
        # response time does not drown out the other objectives.
        robustness += max(min(worst, 1.0), -1.0)
        for verdict in report.verdicts:
            if verdict.normalized_slack < sensitivity_threshold:
                tight_messages.add(verdict.name)
    return ConfigurationEvaluation(
        lost_messages=lost,
        negative_robustness=-robustness,
        sensitivity_penalty=len(tight_messages),
        per_scenario_loss=tuple(per_scenario_loss),
    )


def evaluate_configuration(
    kmatrix: KMatrix,
    scenarios: Sequence[AnalysisScenario],
    sensitivity_threshold: float = 0.10,
    backend: str = "kernel",
) -> ConfigurationEvaluation:
    """Evaluate one K-Matrix (identifier assignment) across all scenarios.

    Every scenario is analysed cold.  ``backend`` selects the optimised
    kernel (``"kernel"``, the default) or the retained naive path
    (``"reference"``, used by the equivalence tests and the seed-vs-kernel
    benchmark); both return identical evaluations.  The GA's incremental
    path is :class:`repro.service.evaluation.SessionEvaluator`.
    """
    if backend not in ("kernel", "reference"):
        raise ValueError(f"unknown analysis backend {backend!r}")
    reports = []
    for scenario in scenarios:
        if backend == "kernel":
            reports.append(scenario.analyze(kmatrix))
            continue
        analysis = ReferenceCanBusAnalysis(
            kmatrix=kmatrix, bus=scenario.bus,
            error_model=scenario.error_model,
            assumed_jitter_fraction=scenario.assumed_jitter_fraction,
            controllers=scenario.controllers)
        reports.append(report_from_results(
            kmatrix, analysis, analysis.analyze_all(),
            scenario.deadline_policy))
    return aggregate_reports(reports, sensitivity_threshold)


def paper_scenarios(
    bus: CanBus,
    controllers: Mapping[str, ControllerModel] | None = None,
    jitter_fractions: Sequence[float] = (0.15, 0.25),
    error_model: ErrorModel | None = None,
) -> list[AnalysisScenario]:
    """The scenario set used for the Figure-5 optimization run.

    The optimizer is asked to keep the bus loss-free up to 25 % jitter in the
    paper's *worst-case* interpretation (burst errors, bit stuffing, minimum
    re-arrival deadlines) while also staying robust in the benign best-case
    interpretation.
    """
    error_model = error_model if error_model is not None else BurstErrorModel(
        min_interarrival=50.0, burst_length=3, intra_burst_gap=0.5)
    scenarios = []
    for fraction in jitter_fractions:
        scenarios.append(AnalysisScenario(
            name=f"best-case@{fraction:.0%}",
            bus=bus.with_bit_stuffing(False),
            error_model=NoErrors(),
            assumed_jitter_fraction=fraction,
            deadline_policy="period",
            controllers=controllers,
        ))
        scenarios.append(AnalysisScenario(
            name=f"worst-case@{fraction:.0%}",
            bus=bus.with_bit_stuffing(True),
            error_model=error_model,
            assumed_jitter_fraction=fraction,
            deadline_policy="min-rearrival",
            controllers=controllers,
        ))
    return scenarios
