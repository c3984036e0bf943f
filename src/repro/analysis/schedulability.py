"""System-level schedulability verdicts and message-loss prediction.

The paper's experiments boil down to two questions per configuration:

* which messages meet their deadlines ("verified that all messages will meet
  their deadlines" in experiment 1);
* which messages can be *lost*, i.e. overwritten in the sender's buffer
  because their worst-case response time exceeds the minimum re-arrival time
  (Sections 2 and 4.2, plotted in Figure 5 as a percentage of the K-Matrix).

This module turns per-message response times into those verdicts and into
the aggregate loss fraction used throughout the benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.response_time import CanBusAnalysis, MessageResponseTime
from repro.can.bus import CanBus
from repro.can.controller import ControllerModel
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.errors.models import ErrorModel
from repro.events.model import EventModel


@dataclass(frozen=True)
class MessageVerdict:
    """Schedulability verdict for one message."""

    name: str
    can_id: int
    worst_case_response: float
    deadline: float
    slack: float
    meets_deadline: bool
    can_be_lost: bool

    @property
    def normalized_slack(self) -> float:
        """Slack divided by the deadline (robustness indicator, may be < 0)."""
        if self.deadline <= 0:
            return -math.inf
        return self.slack / self.deadline

    def describe(self) -> str:
        """One-line summary used in reports."""
        status = "OK " if self.meets_deadline else "MISS"
        return (f"[{status}] {self.name}: R={self.worst_case_response:.3f} ms, "
                f"D={self.deadline:.3f} ms, slack={self.slack:.3f} ms")


@dataclass(frozen=True)
class SchedulabilityReport:
    """Aggregate schedulability result of one bus configuration."""

    verdicts: tuple[MessageVerdict, ...]
    deadline_policy: str
    utilization: float

    @property
    def all_deadlines_met(self) -> bool:
        """True when no message misses its deadline."""
        return all(v.meets_deadline for v in self.verdicts)

    @property
    def missed(self) -> tuple[MessageVerdict, ...]:
        """Verdicts of messages that miss their deadline."""
        return tuple(v for v in self.verdicts if not v.meets_deadline)

    @property
    def lossy(self) -> tuple[MessageVerdict, ...]:
        """Verdicts of messages that can be lost (overwritten before resend)."""
        return tuple(v for v in self.verdicts if v.can_be_lost)

    @property
    def loss_fraction(self) -> float:
        """Fraction of K-Matrix messages that can miss their deadline (0..1).

        This is the y-axis of Figure 5: "# of messages that miss their
        deadline" as a share of all messages in the K-Matrix.
        """
        if not self.verdicts:
            return 0.0
        return len(self.missed) / len(self.verdicts)

    @property
    def total_slack(self) -> float:
        """Sum of positive slacks (robustness reserve of the configuration)."""
        return sum(max(v.slack, 0.0) for v in self.verdicts)

    @property
    def worst_normalized_slack(self) -> float:
        """Smallest slack/deadline ratio across all messages."""
        if not self.verdicts:
            return math.inf
        return min(v.normalized_slack for v in self.verdicts)

    def verdict_for(self, name: str) -> MessageVerdict:
        """Verdict of one message by name."""
        for verdict in self.verdicts:
            if verdict.name == name:
                return verdict
        raise KeyError(name)

    def describe(self) -> str:
        """Multi-line report: verdicts sorted by slack, tightest first."""
        lines = [
            f"Schedulability ({self.deadline_policy} deadlines), "
            f"utilization {self.utilization * 100:.1f} %: "
            f"{len(self.missed)}/{len(self.verdicts)} messages miss "
            f"({self.loss_fraction * 100:.1f} %)",
        ]
        for verdict in sorted(self.verdicts, key=lambda v: v.slack):
            lines.append("  " + verdict.describe())
        return "\n".join(lines)


def _deadline_for(message: CanMessage, policy: str,
                  analysis_jitter: float) -> float:
    """Resolve the deadline of a message under the chosen policy."""
    return message.effective_deadline(policy=policy, jitter=analysis_jitter)


def analyze_schedulability(
    kmatrix: KMatrix,
    bus: CanBus,
    error_model: ErrorModel | None = None,
    assumed_jitter_fraction: float = 0.0,
    deadline_policy: str = "period",
    controllers: Mapping[str, ControllerModel] | None = None,
    event_models: Mapping[str, EventModel] | None = None,
    warm_start: Mapping[str, MessageResponseTime] | None = None,
) -> SchedulabilityReport:
    """Full schedulability analysis of one bus configuration.

    Parameters
    ----------
    kmatrix, bus, error_model, assumed_jitter_fraction, controllers,
    event_models:
        Passed through to :class:`~repro.analysis.response_time.CanBusAnalysis`.
    deadline_policy:
        ``"period"`` (implicit deadlines), ``"min-rearrival"`` (the paper's
        strictest worst-case experiment) or ``"explicit"``.
    warm_start:
        Optional fixed-point seeds (previous response times) forwarded to
        :meth:`~repro.analysis.response_time.CanBusAnalysis.analyze_all`;
        must satisfy the lower-bound contract documented there.
    """
    report, _ = schedulability_with_results(
        kmatrix=kmatrix, bus=bus, error_model=error_model,
        assumed_jitter_fraction=assumed_jitter_fraction,
        deadline_policy=deadline_policy, controllers=controllers,
        event_models=event_models, warm_start=warm_start)
    return report


def schedulability_with_results(
    kmatrix: KMatrix,
    bus: CanBus,
    error_model: ErrorModel | None = None,
    assumed_jitter_fraction: float = 0.0,
    deadline_policy: str = "period",
    controllers: Mapping[str, ControllerModel] | None = None,
    event_models: Mapping[str, EventModel] | None = None,
    warm_start: Mapping[str, MessageResponseTime] | None = None,
) -> tuple[SchedulabilityReport, dict[str, MessageResponseTime]]:
    """Like :func:`analyze_schedulability`, but also returns the raw
    per-message response times so callers can chain warm starts (e.g. an
    ascending jitter sweep)."""
    analysis = CanBusAnalysis(
        kmatrix=kmatrix,
        bus=bus,
        error_model=error_model,
        assumed_jitter_fraction=assumed_jitter_fraction,
        controllers=controllers,
        event_models=event_models,
    )
    results = analysis.analyze_all(warm_start=warm_start)
    report = report_from_results(kmatrix, analysis, results, deadline_policy)
    return report, results


def report_from_results(
    kmatrix: KMatrix,
    analysis: CanBusAnalysis,
    results: Mapping[str, MessageResponseTime],
    deadline_policy: str = "period",
) -> SchedulabilityReport:
    """Build a :class:`SchedulabilityReport` from already computed response
    times, so callers that have just run ``analyze_all`` (e.g. the
    compositional engine) do not pay for a second full analysis."""
    verdicts = []
    for message in kmatrix:
        result = results[message.name]
        deadline = _deadline_for(message, deadline_policy,
                                 analysis.jitter(message))
        slack = deadline - result.worst_case
        meets = result.bounded and result.worst_case <= deadline + 1e-9
        verdicts.append(MessageVerdict(
            name=message.name,
            can_id=message.can_id,
            worst_case_response=result.worst_case,
            deadline=deadline,
            slack=slack,
            meets_deadline=meets,
            can_be_lost=not meets,
        ))
    return SchedulabilityReport(
        verdicts=tuple(verdicts),
        deadline_policy=deadline_policy,
        utilization=analysis.utilization(),
    )


def message_loss_fraction(
    kmatrix: KMatrix,
    bus: CanBus,
    jitter_fraction: float,
    error_model: ErrorModel | None = None,
    deadline_policy: str = "period",
    controllers: Mapping[str, ControllerModel] | None = None,
) -> float:
    """Fraction of messages that can be lost at a given assumed jitter.

    Convenience wrapper producing one point of a Figure-5 curve: apply the
    assumed jitter fraction to all messages with unknown jitter and return
    the loss fraction under the given error model and deadline policy.
    """
    report = analyze_schedulability(
        kmatrix=kmatrix,
        bus=bus,
        error_model=error_model,
        assumed_jitter_fraction=jitter_fraction,
        deadline_policy=deadline_policy,
        controllers=controllers,
    )
    return report.loss_fraction


def response_time_table(
    report_results: Mapping[str, MessageResponseTime] | Sequence[MessageResponseTime],
) -> list[tuple[str, float, float]]:
    """Flatten response-time results into (name, best, worst) rows."""
    if isinstance(report_results, Mapping):
        values = list(report_results.values())
    else:
        values = list(report_results)
    return [(r.name, r.best_case, r.worst_case) for r in values]
