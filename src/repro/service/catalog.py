"""Named what-if scenarios and the catalog that registers them.

A :class:`WhatIfScenario` is a reproducible, picklable description of one
exploration: an ordered sequence of :class:`ScenarioQuery` steps, each a
labelled delta tuple applied to a session's base configuration.  One model
serves both session kinds: the steps of a per-bus scenario hold
:class:`~repro.service.deltas.Delta` edits and run on an
:class:`~repro.service.session.AnalysisSession`, the steps of a topology
scenario (:mod:`repro.whatif.catalog`) hold
:class:`~repro.whatif.system_deltas.SystemDelta` edits and run on a
:class:`~repro.whatif.session.SystemSession`.  Running a scenario is the
same loop either way; the session plans every step against the previous
query, which is how the paper's ascending jitter sweep and the
benign-to-harsh error sweep re-use fixed points.

The :class:`ScenarioCatalog` maps scenario names to definitions -- the
pattern of oq-engine's registered, parameterised calculation runs: a
client or a CLI can execute "paper-jitter-sweep" against any session and
get the same tracked inputs and report shape every time.
:func:`builtin_catalog` registers the paper's families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors.models import (
    BurstErrorModel,
    NoErrors,
    SporadicErrorModel,
)
from repro.service.deltas import (
    BusDelta,
    DeadlinePolicyDelta,
    ErrorModelDelta,
    JitterDelta,
    PriorityDelta,
)

#: The paper's Figure-4/5 jitter axis (0..60 % in 5 % steps).
PAPER_JITTER_FRACTIONS: tuple[float, ...] = tuple(
    round(0.05 * i, 2) for i in range(13))

#: Error inter-arrival sweep, benign to harsh (matches sensitivity.error).
PAPER_ERROR_INTERARRIVALS_MS: tuple[float, ...] = (
    1000.0, 500.0, 200.0, 100.0, 50.0, 20.0, 10.0, 5.0)


@dataclass(frozen=True)
class ScenarioQuery:
    """One step of a scenario: a labelled delta tuple."""

    label: str
    deltas: tuple = ()


@dataclass(frozen=True)
class ScenarioRunResult:
    """Deterministically ordered results of one scenario run.

    ``queries`` holds the session's own result per step
    (:class:`~repro.service.session.QueryResult` or
    :class:`~repro.whatif.session.SystemQueryResult`); each renders its
    own table row.
    """

    scenario: str
    session: str
    queries: tuple

    def rows(self) -> list[list[object]]:
        """One table row per step (see the result type's ``table_row``)."""
        return [query.table_row() for query in self.queries]

    def to_table(self, title: Optional[str] = None) -> str:
        """Render via :func:`repro.reporting.tables.format_table`."""
        from repro.reporting.tables import format_table
        headers = self.queries[0].TABLE_HEADERS if self.queries \
            else ("query",)
        return format_table(
            headers, self.rows(),
            title=title or f"What-if scenario {self.scenario!r} "
                           f"on {self.session}")

    def describe(self) -> str:
        """Multi-line summary, one line per query."""
        lines = [f"Scenario {self.scenario!r} on {self.session}:"]
        lines.extend("  " + q.describe() for q in self.queries)
        return "\n".join(lines)


@dataclass(frozen=True)
class WhatIfScenario:
    """A named, reproducible sequence of what-if queries."""

    name: str
    queries: tuple[ScenarioQuery, ...]
    description: str = ""

    def run(self, session, cancel=None, trace=None) -> ScenarioRunResult:
        """Execute every query against ``session`` in definition order.

        ``session`` is an :class:`~repro.service.session.AnalysisSession`
        or a :class:`~repro.whatif.session.SystemSession`, matching the
        steps' delta kind.  ``cancel`` (a :class:`repro.cancel.CancelToken`)
        bounds the whole run and ``trace`` (a :class:`repro.obs.Trace`)
        collects every step's spans.
        """
        return ScenarioRunResult(
            scenario=self.name, session=session.name,
            queries=tuple(
                session.query(step.deltas, label=step.label, cancel=cancel,
                              trace=trace)
                for step in self.queries))

    def describe(self) -> str:
        return (f"{self.name}: {len(self.queries)} queries"
                + (f" -- {self.description}" if self.description else ""))


class ScenarioCatalog:
    """Registry of named what-if scenarios."""

    def __init__(self) -> None:
        self._scenarios: dict[str, WhatIfScenario] = {}

    def register(self, scenario: WhatIfScenario,
                 overwrite: bool = False) -> WhatIfScenario:
        """Register a scenario under its name; returns it for chaining."""
        if not overwrite and scenario.name in self._scenarios:
            raise ValueError(f"scenario {scenario.name!r} already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> WhatIfScenario:
        """Look up a scenario by name."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: "
                f"{', '.join(sorted(self._scenarios)) or 'none'}") from None

    def names(self) -> list[str]:
        """All registered scenario names, sorted."""
        return sorted(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[WhatIfScenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    def run(self, name: str, session, cancel=None,
            trace=None) -> ScenarioRunResult:
        """Execute a registered scenario against a session."""
        return self.get(name).run(session, cancel=cancel, trace=trace)

    def describe(self) -> str:
        """Multi-line inventory of the catalog."""
        lines = [f"Scenario catalog ({len(self)} scenarios):"]
        lines.extend("  " + self._scenarios[name].describe()
                     for name in self.names())
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Scenario families
# --------------------------------------------------------------------------- #
def jitter_sweep_scenario(
    fractions: Sequence[float] = PAPER_JITTER_FRACTIONS,
    name: str = "paper-jitter-sweep",
) -> WhatIfScenario:
    """The paper's global jitter sweep, ascending (each step warm-starts)."""
    ordered = sorted(fractions)
    queries = tuple(
        ScenarioQuery(label=f"jitter {fraction:.0%}",
                      deltas=(JitterDelta(fraction=fraction),))
        for fraction in ordered)
    return WhatIfScenario(
        name=name, queries=queries,
        description="assumed jitter fraction swept over all unknown jitters")


def message_jitter_sweep_scenario(
    message_name: str,
    jitters_ms: Sequence[float],
    name: str | None = None,
) -> WhatIfScenario:
    """Sweep one message's send jitter -- "what if this sender degrades"."""
    ordered = sorted(jitters_ms)
    queries = tuple(
        ScenarioQuery(label=f"J({message_name})={jitter:g}ms",
                      deltas=(JitterDelta(message_name=message_name,
                                          jitter=jitter),))
        for jitter in ordered)
    return WhatIfScenario(
        name=name or f"jitter-whatif-{message_name}", queries=queries,
        description=f"send jitter of {message_name} swept upwards")


def error_sweep_scenario(
    interarrivals_ms: Sequence[float] = PAPER_ERROR_INTERARRIVALS_MS,
    kind: str = "sporadic",
    name: str | None = None,
) -> WhatIfScenario:
    """Benign-to-harsh error-rate sweep (each step warm-starts)."""
    if kind not in ("sporadic", "burst"):
        raise ValueError(f"unknown error model kind {kind!r}")
    ordered = sorted(interarrivals_ms, reverse=True)
    queries = []
    for interarrival in ordered:
        if kind == "sporadic":
            model = SporadicErrorModel(min_interarrival=interarrival)
        else:
            model = BurstErrorModel(
                min_interarrival=interarrival, burst_length=3,
                intra_burst_gap=min(0.5, interarrival / 10.0))
        queries.append(ScenarioQuery(
            label=f"errors >= {interarrival:g}ms",
            deltas=(ErrorModelDelta(model),)))
    return WhatIfScenario(
        name=name or f"paper-error-sweep-{kind}", queries=tuple(queries),
        description=f"{kind} error inter-arrival swept benign to harsh")


def paper_operating_points_scenario(
    jitter_fractions: Sequence[float] = (0.15, 0.25),
    name: str = "paper-operating-points",
) -> WhatIfScenario:
    """The Figure-5 optimisation operating points as what-if queries.

    Mirrors :func:`repro.optimize.objectives.paper_scenarios`: per jitter
    fraction a benign interpretation (no stuffing, no errors, period
    deadlines) and a worst-case one (stuffing, burst errors, min-rearrival
    deadlines).
    """
    from repro.experiments import WORST_CASE_ERRORS
    burst = WORST_CASE_ERRORS
    queries = []
    for fraction in jitter_fractions:
        queries.append(ScenarioQuery(
            label=f"best-case@{fraction:.0%}",
            deltas=(BusDelta(bit_stuffing=False),
                    ErrorModelDelta(NoErrors()),
                    JitterDelta(fraction=fraction),
                    DeadlinePolicyDelta("period"))))
        queries.append(ScenarioQuery(
            label=f"worst-case@{fraction:.0%}",
            deltas=(BusDelta(bit_stuffing=True),
                    ErrorModelDelta(burst),
                    JitterDelta(fraction=fraction),
                    DeadlinePolicyDelta("min-rearrival"))))
    return WhatIfScenario(
        name=name, queries=tuple(queries),
        description="the four operating points of the Figure-5 GA run")


def priority_swap_scenario(
    pairs: Sequence[tuple[str, str]],
    name: str = "priority-swaps",
) -> WhatIfScenario:
    """One query per identifier swap -- "what if we traded these two ids"."""
    queries = tuple(
        ScenarioQuery(label=f"swap {a}<->{b}",
                      deltas=(PriorityDelta(swap=(a, b)),))
        for a, b in pairs)
    return WhatIfScenario(
        name=name, queries=queries,
        description="pairwise identifier swaps against the base assignment")


def builtin_catalog() -> ScenarioCatalog:
    """Catalog preloaded with the paper's scenario families."""
    catalog = ScenarioCatalog()
    catalog.register(jitter_sweep_scenario())
    catalog.register(jitter_sweep_scenario(
        fractions=tuple(round(0.02 * i, 2) for i in range(31)),
        name="jitter-sweep-fine"))
    catalog.register(error_sweep_scenario(kind="sporadic"))
    catalog.register(error_sweep_scenario(kind="burst"))
    catalog.register(paper_operating_points_scenario())
    return catalog
