"""CAN identifier (priority) optimization (Section 4.3 of the paper).

"In order to eliminate this message loss we were looking for optimized
priority (CAN ID) configurations.  We used the automatic optimization feature
of our SymTA/S tool suite to find better CAN ID configurations that would
exhibit less message loss.  The optimizer also performs what-if analysis
using genetic algorithms.  We configured the optimizer to favor robust
configurations over sensitive ones."

This package provides:

* deterministic baselines: rate-/deadline-monotonic re-assignment and
  Audsley's optimal priority assignment (:mod:`repro.optimize.assignment`);
* evaluation scenarios bundling jitter assumptions, error models and deadline
  policies into optimizer objectives (:mod:`repro.optimize.objectives`);
* an SPEA2-style multi-objective genetic algorithm searching the space of
  identifier permutations (:mod:`repro.optimize.genetic`).
"""

from repro.optimize.assignment import (
    audsley_assignment,
    deadline_monotonic_assignment,
    rate_monotonic_assignment,
)
from repro.optimize.objectives import (
    AnalysisScenario,
    ConfigurationEvaluation,
    evaluate_configuration,
    paper_scenarios,
)
from repro.optimize.genetic import (
    GeneticOptimizerConfig,
    OptimizationResult,
    optimize_priorities,
)

__all__ = [
    "rate_monotonic_assignment",
    "deadline_monotonic_assignment",
    "audsley_assignment",
    "AnalysisScenario",
    "ConfigurationEvaluation",
    "evaluate_configuration",
    "paper_scenarios",
    "GeneticOptimizerConfig",
    "OptimizationResult",
    "optimize_priorities",
]
