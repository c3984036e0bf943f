"""Result containers of the compositional system analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.response_time import MessageResponseTime
from repro.analysis.schedulability import SchedulabilityReport
from repro.ecu.analysis import TaskResponseTime
from repro.events.model import EventModel


@dataclass(frozen=True)
class SystemAnalysisResult:
    """Global fixed point of one compositional analysis run.

    Attributes
    ----------
    converged:
        Whether the event-model propagation reached a fixed point.  A
        non-converged system is overloaded somewhere (jitters keep growing),
        which the paper calls a transient overload / bottleneck situation.
    iterations:
        Number of engine passes performed.  Each pass sweeps every bus and
        gateway once in gateway order, so an acyclic topology typically
        takes two: one to reach the fixed point, one to confirm it.
    message_results:
        Per-message response-time results, keyed by message name.
    task_results:
        Per-task response-time results, keyed by ``"ecu.task"``.
    bus_reports:
        Per-bus schedulability reports, keyed by bus name.
    send_models:
        Event models with which each message is queued at its sender (the
        propagated "send jitter" of Figure 6), keyed by message name.
    arrival_models:
        Event models with which each message arrives at its receivers (the
        "receive jitter" of Figure 6), keyed by message name.
    """

    converged: bool
    iterations: int
    message_results: Mapping[str, MessageResponseTime]
    task_results: Mapping[str, TaskResponseTime]
    bus_reports: Mapping[str, SchedulabilityReport]
    send_models: Mapping[str, EventModel]
    arrival_models: Mapping[str, EventModel]

    @property
    def all_deadlines_met(self) -> bool:
        """True when every bus report is free of deadline misses."""
        return self.converged and all(
            report.all_deadlines_met for report in self.bus_reports.values())

    @property
    def total_messages(self) -> int:
        """Number of messages analysed across all buses."""
        return len(self.message_results)

    def worst_case_response(self, message_name: str) -> float:
        """Worst-case response time of one message (ms)."""
        return self.message_results[message_name].worst_case

    def send_jitter(self, message_name: str) -> float:
        """Send jitter of one message at the fixed point (ms)."""
        model = self.send_models.get(message_name)
        return model.jitter if model is not None else math.nan

    def arrival_jitter(self, message_name: str) -> float:
        """Arrival (receive) jitter of one message at the fixed point (ms)."""
        model = self.arrival_models.get(message_name)
        return model.jitter if model is not None else math.nan

    def describe(self) -> str:
        """Multi-line summary of the system verdict."""
        status = "converged" if self.converged else "DID NOT CONVERGE"
        lines = [f"System analysis {status} after {self.iterations} iterations"]
        for bus_name, report in self.bus_reports.items():
            lines.append(
                f"  {bus_name}: {len(report.missed)}/{len(report.verdicts)} "
                f"messages miss their deadline "
                f"(utilization {report.utilization * 100:.1f} %)")
        return "\n".join(lines)
