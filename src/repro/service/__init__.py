"""What-if analysis service: cached-kernel sessions, deltas, scenarios.

The service layer turns the fast analysis kernel into a query engine for the
paper's core use case -- interactive what-if exploration against one shared
K-Matrix:

* :mod:`repro.service.deltas` -- typed what-if deltas and the immutable
  :class:`BusConfiguration` they transform;
* :mod:`repro.service.session` -- :class:`AnalysisSession`, which caches
  frozen kernels plus converged fixed points per configuration fingerprint
  and re-analyses only what a delta actually changed;
* :mod:`repro.service.catalog` -- named, reproducible scenario definitions
  (per-bus and topology alike) and the :class:`ScenarioCatalog` registry;
* :mod:`repro.service.evaluation` -- session-backed candidate evaluation
  for the genetic priority optimizer.
"""

from repro.service.catalog import (
    ScenarioCatalog,
    ScenarioQuery,
    ScenarioRunResult,
    WhatIfScenario,
    builtin_catalog,
    error_sweep_scenario,
    jitter_sweep_scenario,
    message_jitter_sweep_scenario,
    paper_operating_points_scenario,
    priority_swap_scenario,
)
from repro.service.deltas import (
    AddMessageDelta,
    BusConfiguration,
    BusDelta,
    DeadlinePolicyDelta,
    Delta,
    ErrorModelDelta,
    EventModelDelta,
    JitterDelta,
    PriorityDelta,
    RemoveMessageDelta,
    apply_deltas,
)
from repro.service.evaluation import SessionEvaluator
from repro.service.session import (
    AnalysisSession,
    QueryResult,
    QueryStats,
    SessionStats,
)

__all__ = [
    "AddMessageDelta",
    "AnalysisSession",
    "BusConfiguration",
    "BusDelta",
    "DeadlinePolicyDelta",
    "Delta",
    "ErrorModelDelta",
    "EventModelDelta",
    "JitterDelta",
    "PriorityDelta",
    "QueryResult",
    "QueryStats",
    "RemoveMessageDelta",
    "SessionStats",
    "ScenarioCatalog",
    "ScenarioQuery",
    "ScenarioRunResult",
    "SessionEvaluator",
    "WhatIfScenario",
    "apply_deltas",
    "builtin_catalog",
    "error_sweep_scenario",
    "jitter_sweep_scenario",
    "message_jitter_sweep_scenario",
    "paper_operating_points_scenario",
    "priority_swap_scenario",
]
