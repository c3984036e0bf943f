"""Deterministic batch execution of scenario runs.

A :class:`BatchJob` pairs a base :class:`~repro.service.deltas.BusConfiguration`
with a :class:`~repro.service.catalog.WhatIfScenario`; the
:class:`BatchRunner` executes many jobs through
:func:`repro.parallel.parallel_map` with results returned **in job order**,
so a batch aggregates exactly like a serial loop.  The per-job worker
:func:`run_batch_job` is a top-level function and every job field is a
picklable frozen value, which is what makes ``REPRO_PARALLEL=process`` pools
work (the blocker named in the ROADMAP's perf targets).

Jobs that share a base configuration can instead run serially against one
shared session via :meth:`BatchRunner.run_on_session`, which keeps the
kernel cache hot across scenarios -- the cached-delta mode the service
benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.parallel import parallel_map
from repro.service.catalog import ScenarioRunResult, WhatIfScenario
from repro.service.deltas import BusConfiguration
from repro.service.session import AnalysisSession


@dataclass(frozen=True)
class BatchJob:
    """One independent unit of a batch: a scenario against a configuration."""

    label: str
    config: BusConfiguration
    scenario: WhatIfScenario


def run_batch_job(job: BatchJob) -> ScenarioRunResult:
    """Execute one job in a fresh session (top-level, hence picklable)."""
    session = AnalysisSession.from_config(job.config, name=job.label)
    return job.scenario.run(session)


class BatchRunner:
    """Executes scenario batches with deterministic result ordering.

    ``mode`` is a :func:`repro.parallel.parallel_map` mode: ``"process"``
    fans the jobs out to worker processes, ``"serial"`` and ``"auto"`` run
    them in order on the calling thread.
    """

    def __init__(self, mode: str = "auto",
                 max_workers: int | None = None) -> None:
        self.mode = mode
        self.max_workers = max_workers

    def run(self, jobs: Sequence[BatchJob]) -> list[ScenarioRunResult]:
        """Run independent jobs; results come back in job order.

        Each job gets its own session (no shared cache), so jobs are fully
        independent and safe for ``process`` pools.
        """
        return parallel_map(run_batch_job, list(jobs), mode=self.mode,
                            max_workers=self.max_workers)

    def run_on_session(self, session: AnalysisSession,
                       scenarios: Sequence[WhatIfScenario],
                       ) -> list[ScenarioRunResult]:
        """Run scenarios serially against one shared, warm session."""
        return [scenario.run(session) for scenario in scenarios]


# --------------------------------------------------------------------------- #
# Batch families (the ROADMAP's scale-out workloads)
# --------------------------------------------------------------------------- #
def scaling_jobs(scenario: WhatIfScenario,
                 sizes: Sequence[int] = (50, 100, 200, 400),
                 seed: int = 1) -> list[BatchJob]:
    """One job per synthetic K-Matrix size (hundreds-of-messages workloads).

    Uses :func:`repro.workloads.scaling.scaling_benchmark_case`, which holds
    utilization roughly constant across sizes.
    """
    from repro.workloads.scaling import scaling_benchmark_case
    jobs = []
    for size in sizes:
        kmatrix, bus = scaling_benchmark_case(size, seed=seed)
        jobs.append(BatchJob(
            label=f"n={size}",
            config=BusConfiguration(kmatrix=kmatrix, bus=bus),
            scenario=scenario))
    return jobs


def system_jobs(system, scenario: WhatIfScenario) -> list[BatchJob]:
    """One job per bus segment of a system model (multi-bus family).

    Segments are analysed with their K-Matrix assumptions (no cross-bus
    propagation -- that is the compositional engine's job); the batch
    answers "how does every bus react to this what-if" in one sweep.
    """
    jobs = []
    for segment in system.buses.values():
        jobs.append(BatchJob(
            label=segment.name,
            config=BusConfiguration(
                kmatrix=segment.kmatrix,
                bus=segment.bus,
                error_model=segment.error_model,
                assumed_jitter_fraction=segment.assumed_jitter_fraction,
                controllers=dict(system.controllers) or None,
                deadline_policy=segment.deadline_policy),
            scenario=scenario))
    return jobs
