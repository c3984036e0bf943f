"""Optimizer objectives: what-if scenarios and their aggregation.

The paper's optimizer is configured "to favor robust configurations over
sensitive ones": a candidate identifier assignment is evaluated not for one
operating point but across a set of what-if scenarios (different jitter
assumptions, error models and deadline interpretations).  This module defines
the scenario abstraction and the multi-objective evaluation the genetic
optimizer and the baselines share.

Warm starts
-----------
A candidate evaluation re-solves the same fixed points many times, so two
warm-start channels (both obeying the lower-bound contract documented in
:mod:`repro.analysis.response_time`, hence bit-identical to cold starts):

* **scenario chaining** -- scenarios that differ only in the assumed jitter
  fraction are evaluated in ascending order, each seeded from the previous
  one (raising jitter only grows the fixed points);
* **parent seeding** -- a GA candidate starts from its parent's evaluation,
  but only for messages where the parent solution provably lower-bounds the
  child's: the child must give the message a superset of the parent's
  higher-priority messages *and* at least the parent's blocking term.
  Messages that got a better priority than in the parent (where the parent
  solution could overshoot the new least fixed point) are analysed cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.reference import ReferenceCanBusAnalysis
from repro.analysis.response_time import CanBusAnalysis, MessageResponseTime
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


@dataclass(frozen=True)
class EvaluationContext:
    """Warm-start seeds carried from one evaluated candidate to the next.

    ``priority_order`` is the candidate's message order from highest to
    lowest priority; ``scenario_results`` maps scenario index to the raw
    per-message response times of that scenario.
    """

    priority_order: tuple[str, ...]
    scenario_results: tuple[Mapping[str, MessageResponseTime], ...]


def _chain_predecessor(
    scenarios: Sequence[AnalysisScenario],
    evaluated: Sequence[int],
    index: int,
) -> int | None:
    """Best already-evaluated scenario to chain warm starts from.

    A predecessor must differ from ``scenarios[index]`` only in a smaller or
    equal assumed jitter fraction (same bus, error model and controllers --
    the deadline policy does not influence response times); among candidates
    the largest jitter wins.
    """
    target = scenarios[index]
    best: int | None = None
    for done in evaluated:
        other = scenarios[done]
        if other.bus != target.bus:
            continue
        if other.error_model != target.error_model:
            continue
        if other.controllers != target.controllers:
            continue
        if other.assumed_jitter_fraction > target.assumed_jitter_fraction:
            continue
        if (best is None or scenarios[best].assumed_jitter_fraction
                < other.assumed_jitter_fraction):
            best = done
    return best


def _parent_seeds(
    kmatrix: KMatrix,
    analysis: CanBusAnalysis,
    order: Sequence[str],
    parent: EvaluationContext,
    scenario_index: int,
) -> dict[str, MessageResponseTime]:
    """Parent results that provably lower-bound the child's fixed points.

    A parent result for message ``m`` is a valid seed when the child gives
    ``m`` a superset of the parent's higher-priority messages (checked via a
    running maximum over child positions, O(n) total) and at least the
    parent's blocking term; then the child's analysis right-hand side
    dominates the parent's pointwise and the seeded iteration converges to
    the same least fixed point as a cold start.
    """
    if scenario_index >= len(parent.scenario_results):
        return {}
    parent_results = parent.scenario_results[scenario_index]
    child_pos = {name: i for i, name in enumerate(order)}
    if len(child_pos) != len(parent.priority_order):
        return {}
    seeds: dict[str, MessageResponseTime] = {}
    running_max = -1
    for name in parent.priority_order:
        position = child_pos.get(name)
        if position is None:
            return {}
        result = parent_results.get(name)
        if (result is not None and result.bounded and running_max < position):
            message = kmatrix.get(name)
            if analysis.blocking(message) >= result.blocking:
                seeds[name] = result
        if position > running_max:
            running_max = position
    return seeds


def _merge_seeds(
    first: Mapping[str, MessageResponseTime] | None,
    second: Mapping[str, MessageResponseTime] | None,
) -> Mapping[str, MessageResponseTime] | None:
    """Elementwise maximum of two seed maps (both are lower bounds)."""
    if not first:
        return second
    if not second:
        return first
    merged: dict[str, MessageResponseTime] = dict(first)
    for name, candidate in second.items():
        existing = merged.get(name)
        if existing is None or candidate.busy_period > existing.busy_period:
            merged[name] = candidate
    return merged


def aggregate_reports(
    reports: Sequence[SchedulabilityReport],
    sensitivity_threshold: float = 0.10,
) -> ConfigurationEvaluation:
    """Fold per-scenario schedulability reports into the objective vector.

    Shared by the direct evaluation path below and the session-backed
    evaluator in :mod:`repro.service.evaluation`, so both aggregate
    identically (``reports`` must be in caller scenario order).
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
) -> ConfigurationEvaluation:
    """Evaluate one K-Matrix (identifier assignment) across all scenarios."""
    evaluation, _ = evaluate_configuration_with_context(
        kmatrix, scenarios, sensitivity_threshold=sensitivity_threshold)
    return evaluation


def evaluate_configuration_with_context(
    kmatrix: KMatrix,
    scenarios: Sequence[AnalysisScenario],
    sensitivity_threshold: float = 0.10,
    warm_start: EvaluationContext | None = None,
    backend: str = "kernel",
) -> tuple[ConfigurationEvaluation, EvaluationContext]:
    """Evaluate a candidate and return warm-start context for its offspring.

    ``warm_start`` supplies the parent candidate's context (see the module
    docstring); ``backend`` selects the optimised kernel (``"kernel"``, the
    default) or the retained naive path (``"reference"``, used by
    equivalence tests and the seed-vs-kernel benchmark; it ignores all warm
    starts).
    """
    if backend not in ("kernel", "reference"):
        raise ValueError(f"unknown analysis backend {backend!r}")
    order = tuple(m.name for m in kmatrix.sorted_by_priority())

    # Evaluate scenarios in an order that allows chaining: ascending jitter
    # within compatible groups.  Objectives are aggregated in the caller's
    # scenario order afterwards, so the result is order-independent.
    schedule = sorted(range(len(scenarios)),
                      key=lambda i: scenarios[i].assumed_jitter_fraction)
    reports: dict[int, SchedulabilityReport] = {}
    results: dict[int, dict[str, MessageResponseTime]] = {}
    evaluated: list[int] = []
    for index in schedule:
        scenario = scenarios[index]
        if backend == "reference":
            analysis = ReferenceCanBusAnalysis(
                kmatrix=kmatrix, bus=scenario.bus,
                error_model=scenario.error_model,
                assumed_jitter_fraction=scenario.assumed_jitter_fraction,
                controllers=scenario.controllers)
            scenario_results = analysis.analyze_all()
        else:
            analysis = CanBusAnalysis(
                kmatrix=kmatrix, bus=scenario.bus,
                error_model=scenario.error_model,
                assumed_jitter_fraction=scenario.assumed_jitter_fraction,
                controllers=scenario.controllers)
            seeds: Mapping[str, MessageResponseTime] | None = None
            predecessor = _chain_predecessor(scenarios, evaluated, index)
            if predecessor is not None:
                seeds = results[predecessor]
            if warm_start is not None:
                seeds = _merge_seeds(seeds, _parent_seeds(
                    kmatrix, analysis, order, warm_start, index))
            scenario_results = analysis.analyze_all(warm_start=seeds)
        results[index] = scenario_results
        reports[index] = report_from_results(
            kmatrix, analysis, scenario_results, scenario.deadline_policy)
        evaluated.append(index)

    evaluation = aggregate_reports(
        [reports[i] for i in range(len(scenarios))], sensitivity_threshold)
    context = EvaluationContext(
        priority_order=order,
        scenario_results=tuple(results[i] for i in range(len(scenarios))),
    )
    return evaluation, context


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
