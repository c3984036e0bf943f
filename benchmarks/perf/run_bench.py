#!/usr/bin/env python
"""Deterministic seed-vs-kernel timing suite.

Runs four scenarios that dominate the paper's reproduction workload, timing
the retained naive analysis path (:mod:`repro.analysis.reference`, the seed
formulation) against the optimised kernel
(:mod:`repro.analysis.response_time` with warm starts threaded through the
sweeps), and writes the results to ``BENCH_timing.json`` at the repo root:

* ``analyze_all_powertrain80`` -- one cold full-matrix analysis of the
  80-message power-train case study;
* ``jitter_sweep_13pt`` -- the 13-point Figure-4 jitter sweep over the full
  matrix (warm-started in the kernel path);
* ``scaling_n{50,100,200,400}`` -- cold full-matrix analyses of synthetic
  K-Matrices with the bus bit rate scaled to hold utilization roughly
  constant (see :func:`repro.workloads.scaling.scaling_benchmark_case`);
* ``ga_run`` -- a small SPEA2 optimisation of the case study
  (population 12, 4 generations) across the four paper scenarios.

A ``service`` section measures the what-if service layer.  Here the "seed"
column is **not** the naive reference path but 100 *independent kernel*
``analyze_all`` runs -- the strongest baseline a client without the session
cache could use:

* ``service_jitter_whatif_100q`` -- a 100-query what-if sweep of one
  mid-priority message's send jitter through a cached
  :class:`~repro.service.session.AnalysisSession`; gated at >= 5x
  (``min_speedup``) under ``--check``;
* ``service_fraction_sweep_100q`` -- a 100-point global assumed-jitter
  sweep through the same session machinery (informational);
* ``service_cold_session`` -- one cold session construction + base
  analysis, bounding the session overhead on a cache-less query;
* ``obs_overhead_parity`` -- the 100-query sweep through an
  *instrumented* session (live :class:`~repro.obs.MetricsRegistry` plus
  one :class:`~repro.obs.Trace` per query) vs the uninstrumented
  session; gated at >= 0.95x under ``--check``, i.e. observability must
  stay within ~5% of free;
* ``monitor_ingest_overhead`` -- a recorded simulation trace replayed in
  chunks through a bare :class:`~repro.monitor.ConformanceMonitor` vs a
  fully equipped one (registry counters, alert rules, violation trace
  ring); gated at >= 0.95x under ``--check``, so live monitoring
  observability also stays within ~5% of the conformance check itself.

A ``server`` section measures the analysis daemon and the engine-on-sessions
refactor (the PR 4 subsystem); the "seed" columns are again the strongest
non-cached kernel baselines:

* ``server_whatif_throughput`` -- the same 100-query jitter sweep issued by
  an :class:`~repro.server.client.InProcessClient` through the daemon's
  full JSON protocol (encode, queue, session pool, decode) vs 100
  independent cold kernel ``analyze_all`` runs; gated at >= 2x under
  ``--check``;
* ``engine_incremental`` -- the daemon's system-serving pattern on a
  6-bus gateway chain: one cold compositional fixed point plus two
  re-analyses after an upstream jitter edit, through one persistent
  engine whose per-segment sessions answer event-model deltas
  incrementally, vs the same three fixed points on the
  rebuild-per-iteration path (``incremental=False``, the pre-refactor
  engine).  Bit-identical by assertion and gated at >= 2x under
  ``--check``; the single-cold-run ratio is recorded as
  ``cold_run_speedup`` for reference.
* ``daemon_restart_warm`` -- the persistent result store (PR 9): a fresh
  daemon booted onto a store directory that a previous daemon generation
  already populated answers a system analysis plus two topology what-if
  queries from disk (decode + validate) instead of re-running the
  compositional fixed point, vs an identical fresh daemon without a
  store.  Responses are asserted bit-identical (modulo the cache-hit
  stats block) and gated at >= 3x under ``--check``;
* ``system_whatif`` -- the system-level what-if layer (PR 5): a sweep of
  typed topology deltas (bus-speed degradation, gateway config edits,
  per-segment jitter edits, a gateway failover, a message re-map) plus
  end-to-end path latencies per step, answered by one
  :class:`~repro.whatif.session.SystemSession` with shared per-segment
  sessions, vs one from-scratch ``incremental=False`` engine run per
  delta on the equivalently edited model.  Per-message results and path
  latencies are asserted bit-identical; gated at >= 2x under ``--check``.

All workloads are seeded and the analyses are exact, so both paths produce
**identical results** -- the suite asserts this before trusting any timing.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # rewrite baseline
    PYTHONPATH=src python benchmarks/perf/run_bench.py --check    # CI regression gate
    PYTHONPATH=src python benchmarks/perf/run_bench.py --check --quick  # CI budget

``--check`` compares fresh kernel timings against the committed baseline and
exits non-zero when any scenario is more than ``--threshold`` (default 2.0)
times slower; the gate is skipped (exit 0) when no baseline exists yet.
``--skip-seed`` reuses the baseline's seed timings instead of re-running the
slow reference path (useful for quick iteration).  ``--quick`` is the CI
preset: best-of-2 timings, ``--skip-seed`` implied (except for scenarios
carrying a ``min_speedup`` floor, whose seed-vs-kernel ratio is only fair
when both sides are timed in the same run) and ``ga_run`` skipped, with
every remaining workload byte-identical so the gate stays comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.reference import ReferenceCanBusAnalysis  # noqa: E402
from repro.can.kmatrix import KMatrix  # noqa: E402
from repro.analysis.response_time import CanBusAnalysis  # noqa: E402
from repro.optimize.genetic import (  # noqa: E402
    GeneticOptimizerConfig,
    optimize_priorities,
)
from repro.optimize.objectives import paper_scenarios  # noqa: E402
from repro.sensitivity.jitter import (  # noqa: E402
    DEFAULT_JITTER_FRACTIONS,
    jitter_sensitivity_all,
)
from repro.workloads.powertrain import (  # noqa: E402
    PowertrainConfig,
    powertrain_bus,
    powertrain_controllers,
    powertrain_kmatrix,
)
from repro.core.engine import CompositionalAnalysis  # noqa: E402
from repro.monitor import (  # noqa: E402
    AlertRule,
    ConformanceMonitor,
    chunked,
    frames_from_trace,
)
from repro.obs import MetricsRegistry, Trace, TraceRing  # noqa: E402
from repro.sim import CanBusSimulator, SimulationConfig  # noqa: E402
from repro.server import AnalysisDaemon, InProcessClient  # noqa: E402
from repro.service import (  # noqa: E402
    AnalysisSession,
    BusConfiguration,
    JitterDelta,
)
from repro.core.paths import path_latency_all  # noqa: E402
from repro.whatif import (  # noqa: E402
    AddGatewayRouteDelta,
    BusSpeedDelta,
    GatewayConfigDelta,
    MoveMessageDelta,
    RemoveGatewayRouteDelta,
    SegmentConfigDelta,
    SystemSession,
    apply_system_deltas,
)
from repro.workloads.multibus import (  # noqa: E402
    multibus_paths,
    multibus_system,
)
from repro.store import ResultStore  # noqa: E402
from repro.workloads.scaling import scaling_benchmark_case  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_timing.json"
SCALING_SIZES = (50, 100, 200, 400)
GA_CONFIG = dict(population_size=12, archive_size=6, generations=4, seed=7)
SERVICE_QUERIES = 100
SERVICE_MIN_SPEEDUP = 5.0
SERVER_MIN_SPEEDUP = 2.0
ENGINE_BUSES = 6
ENGINE_MESSAGES_PER_BUS = 40
ENGINE_MIN_SPEEDUP = 2.0
WHATIF_BUSES = 5
WHATIF_MESSAGES_PER_BUS = 30
WHATIF_MIN_SPEEDUP = 2.0
RESTART_BUSES = 5
RESTART_MESSAGES_PER_BUS = 30
RESTART_MIN_SPEEDUP = 3.0
# Instrumented vs uninstrumented parity: metrics + tracing may cost at
# most ~5% on the session what-if sweep (speedup floor below 1.0).
OBS_MIN_SPEEDUP = 0.95


def _timed(fn, repeat: int):
    """Best-of-``repeat`` wall-clock time and the last result."""
    best = None
    result = None
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _case_study():
    config = PowertrainConfig(n_messages=80)
    return (powertrain_kmatrix(config), powertrain_bus(config),
            powertrain_controllers(config))


def run_scenarios(repeat: int, skip_seed: bool,
                  baseline: dict | None,
                  quick: bool = False) -> dict[str, dict]:
    """Run every scenario; returns name -> timing record.

    ``quick`` drops ``ga_run`` (the slowest kernel-side scenario); every
    other workload is kept byte-identical so kernel timings stay comparable
    against the committed baseline, and the regression gate simply skips
    scenarios missing from the fresh run.
    """
    kmatrix, bus, controllers = _case_study()
    scenarios: dict[str, dict] = {}

    def record(name: str, seed_fn, kernel_fn, check_equal=None, **extra):
        kernel_seconds, kernel_result = _timed(kernel_fn, repeat)
        baseline_entry = (baseline or {}).get("scenarios", {}).get(name, {})
        # min_speedup scenarios gate on the seed/kernel *ratio*, so both
        # sides must come from the same run: mixing a reused quiet-machine
        # seed timing with a fresh kernel timing makes the ratio track
        # runner noise instead of the code.  Their seed side is cheap
        # (it is the kernel itself, run query-by-query), so always time it.
        reuse_seed = (skip_seed and "min_speedup" not in extra
                      and "seed_seconds" in baseline_entry)
        if reuse_seed:
            seed_seconds = baseline_entry["seed_seconds"]
        else:
            # Same best-of policy as the kernel path, so the reported
            # speedup is not inflated by scheduling noise on the seed side.
            seed_seconds, seed_result = _timed(seed_fn, repeat)
            if check_equal is not None:
                check_equal(seed_result, kernel_result)
        scenarios[name] = {
            "seed_seconds": round(seed_seconds, 6),
            "kernel_seconds": round(kernel_seconds, 6),
            "speedup": round(seed_seconds / kernel_seconds, 2),
            **extra,
        }
        print(f"  {name:24s} seed {seed_seconds:8.3f}s   "
              f"kernel {kernel_seconds:8.3f}s   "
              f"speedup {seed_seconds / kernel_seconds:6.1f}x")

    def assert_identical(seed_result, kernel_result):
        if seed_result != kernel_result:
            raise AssertionError(
                "seed and kernel paths disagree -- timing aborted")

    # 1. Cold full-matrix analysis of the case study.
    record(
        "analyze_all_powertrain80",
        lambda: ReferenceCanBusAnalysis(
            kmatrix, bus, assumed_jitter_fraction=0.15,
            controllers=controllers).analyze_all(),
        lambda: CanBusAnalysis(
            kmatrix, bus, assumed_jitter_fraction=0.15,
            controllers=controllers).analyze_all(),
        check_equal=assert_identical,
        n_messages=len(kmatrix),
    )

    # 2. The 13-point Figure-4 jitter sweep (warm-started kernel path).
    def seed_sweep():
        return [
            ReferenceCanBusAnalysis(
                kmatrix, bus, assumed_jitter_fraction=fraction,
                controllers=controllers).analyze_all()
            for fraction in DEFAULT_JITTER_FRACTIONS
        ]

    def kernel_sweep():
        return jitter_sensitivity_all(kmatrix, bus, controllers=controllers)

    def check_sweep(seed_result, kernel_result):
        for index, per_point in enumerate(seed_result):
            for name, response in per_point.items():
                got = kernel_result[name].response_times[index]
                want = response.worst_case
                if got != want:
                    raise AssertionError(
                        f"sweep mismatch at point {index}, message {name}")

    record("jitter_sweep_13pt", seed_sweep, kernel_sweep,
           check_equal=check_sweep,
           n_messages=len(kmatrix), points=len(DEFAULT_JITTER_FRACTIONS))

    # 3. Scaling sweep: cold analyses at constant utilization.
    for size in SCALING_SIZES:
        scaled_kmatrix, scaled_bus = scaling_benchmark_case(size)
        record(
            f"scaling_n{size}",
            lambda k=scaled_kmatrix, b=scaled_bus:
                ReferenceCanBusAnalysis(k, b).analyze_all(),
            lambda k=scaled_kmatrix, b=scaled_bus:
                CanBusAnalysis(k, b).analyze_all(),
            check_equal=assert_identical,
            n_messages=size,
        )

    # 4. One small GA run (objective values are asserted identical).
    if quick:
        print("  ga_run                   skipped (--quick)")
    else:
        ga_scenarios = paper_scenarios(bus, controllers)

        def seed_ga():
            return optimize_priorities(
                kmatrix, ga_scenarios,
                GeneticOptimizerConfig(**GA_CONFIG,
                                       analysis_backend="reference"))

        def kernel_ga():
            return optimize_priorities(kmatrix, ga_scenarios,
                                       GeneticOptimizerConfig(**GA_CONFIG))

        def check_ga(seed_result, kernel_result):
            if (seed_result.best_evaluation != kernel_result.best_evaluation
                    or seed_result.history != kernel_result.history
                    or seed_result.evaluations != kernel_result.evaluations):
                raise AssertionError("GA backends disagree -- timing aborted")

        record("ga_run", seed_ga, kernel_ga, check_equal=check_ga,
               n_messages=len(kmatrix), **GA_CONFIG)

    # 5. Service layer: cached-delta what-if queries vs INDEPENDENT kernel
    # analyses (the "seed" column is the kernel itself here, not the naive
    # reference path -- see the module docstring).  The what-if victim is
    # the median-priority message: everything below it is re-analysed per
    # query, everything above comes straight from the session cache.
    priority_order = kmatrix.sorted_by_priority()
    victim = priority_order[len(priority_order) // 2]
    base_jitter = victim.jitter or 0.0
    jitters = [base_jitter + 0.002 * i * victim.period
               for i in range(SERVICE_QUERIES)]

    def independent_whatif():
        results = []
        for jitter in jitters:
            mutated = kmatrix.map_messages(
                lambda m, j=jitter: m.with_jitter(j)
                if m.name == victim.name else m)
            results.append(CanBusAnalysis(
                mutated, bus, assumed_jitter_fraction=0.15,
                controllers=controllers).analyze_all())
        return results

    def session_whatif():
        session = AnalysisSession(kmatrix, bus, assumed_jitter_fraction=0.15,
                                  controllers=controllers)
        results, previous = [], None
        for jitter in jitters:
            previous = session.query(
                (JitterDelta(message_name=victim.name, jitter=jitter),),
                warm_from=previous, with_report=False)
            results.append(previous.results)
        return results

    record("service_jitter_whatif_100q", independent_whatif, session_whatif,
           check_equal=assert_identical, n_messages=len(kmatrix),
           queries=SERVICE_QUERIES, victim=victim.name,
           baseline="independent kernel analyze_all",
           min_speedup=SERVICE_MIN_SPEEDUP)

    fractions = [round(0.006 * i, 4) for i in range(SERVICE_QUERIES)]

    def independent_fraction_sweep():
        return [CanBusAnalysis(kmatrix, bus, assumed_jitter_fraction=fraction,
                               controllers=controllers).analyze_all()
                for fraction in fractions]

    def session_fraction_sweep():
        session = AnalysisSession(
            kmatrix, bus, assumed_jitter_fraction=fractions[0],
            controllers=controllers)
        results, previous = [], None
        for fraction in fractions:
            previous = session.query((JitterDelta(fraction=fraction),),
                                     warm_from=previous, with_report=False)
            results.append(previous.results)
        return results

    record("service_fraction_sweep_100q", independent_fraction_sweep,
           session_fraction_sweep, check_equal=assert_identical,
           n_messages=len(kmatrix), queries=SERVICE_QUERIES,
           baseline="independent kernel analyze_all")

    def plain_cold():
        return CanBusAnalysis(kmatrix, bus, assumed_jitter_fraction=0.15,
                              controllers=controllers).analyze_all()

    def session_cold():
        # with_report=False keeps the comparison apples-to-apples: the
        # plain-kernel baseline does not build a schedulability report.
        return AnalysisSession(
            kmatrix, bus, assumed_jitter_fraction=0.15,
            controllers=controllers).query((), with_report=False).results

    record("service_cold_session", plain_cold, session_cold,
           check_equal=assert_identical, n_messages=len(kmatrix),
           baseline="plain kernel analyze_all")

    # 5b. Observability overhead parity: the same 100-query jitter sweep
    # through an *instrumented* session (a shared MetricsRegistry plus one
    # Trace with session spans per query -- what every daemon request
    # pays) vs the "uninstrumented" session of (5), which since counts
    # live only in the registry carries a private registry and so pays
    # the same counter updates; the gap measured is the shared registry
    # and the tracing.  The "speedup" is the uninstrumented/instrumented
    # ratio, gated at >= 0.95x: metrics and tracing must stay within ~5%
    # of free, or the PR 6/7 serving gains are being paid back in
    # bookkeeping.
    def uninstrumented_whatif():
        return session_whatif()

    def instrumented_whatif():
        registry = MetricsRegistry()
        session = AnalysisSession(kmatrix, bus, assumed_jitter_fraction=0.15,
                                  controllers=controllers, metrics=registry)
        results, previous = [], None
        for jitter in jitters:
            trace = Trace(op="query", target="case")
            previous = session.query(
                (JitterDelta(message_name=victim.name, jitter=jitter),),
                warm_from=previous, with_report=False, trace=trace)
            trace.finish()
            results.append(previous.results)
        return results

    record("obs_overhead_parity", uninstrumented_whatif, instrumented_whatif,
           check_equal=assert_identical, n_messages=len(kmatrix),
           queries=SERVICE_QUERIES, victim=victim.name,
           baseline="uninstrumented session sweep",
           min_speedup=OBS_MIN_SPEEDUP)

    # 5c. Monitor ingest overhead: the same recorded trace replayed in
    # chunks through a *bare* conformance monitor (conformance checks and
    # the counters of its private registry) vs a fully equipped one
    # (shared MetricsRegistry, alert rules, violation trace ring) -- what
    # every `monitor_ingest` request pays for the observability attached
    # to it.  Gated at >= 0.95x like obs_overhead_parity: alerting and
    # windowed history must stay within ~5% of the bare conformance check.
    monitor_trace = CanBusSimulator(
        kmatrix, bus, controllers=controllers,
        config=SimulationConfig(duration=1500.0, seed=11)).run()
    monitor_frames = frames_from_trace(monitor_trace)

    def replay_monitor(monitor):
        for chunk in chunked(monitor_frames, 256):
            monitor.ingest(chunk)
        monitor.flush()
        status = monitor.status()
        return (status["frames"], status["violations"], status["refits"])

    def bare_monitor_replay():
        session = AnalysisSession(kmatrix, bus, assumed_jitter_fraction=0.15,
                                  controllers=controllers)
        return replay_monitor(ConformanceMonitor(session, target="bench"))

    def equipped_monitor_replay():
        # Registry on the monitor only: session instrumentation overhead
        # is obs_overhead_parity's subject, not this scenario's.
        registry = MetricsRegistry()
        session = AnalysisSession(kmatrix, bus, assumed_jitter_fraction=0.15,
                                  controllers=controllers)
        rules = (
            AlertRule.parse("any-violation", "violations > 0"),
            AlertRule.parse(
                "tight-slack",
                "observed_slack_ms < 0.05*deadline for 2 windows"),
        )
        monitor = ConformanceMonitor(
            session, target="bench", rules=rules, metrics=registry,
            trace_ring=TraceRing(16))
        return replay_monitor(monitor)

    record("monitor_ingest_overhead", bare_monitor_replay,
           equipped_monitor_replay, check_equal=assert_identical,
           n_messages=len(kmatrix), frames=len(monitor_frames),
           baseline="bare conformance monitor replay",
           min_speedup=OBS_MIN_SPEEDUP)

    # 6. Daemon throughput: the 100-query jitter sweep again, but through
    # the full serving stack (JSON protocol both ways, job accounting,
    # sharded session pool) vs the independent-kernel baseline of (5).
    def daemon_whatif():
        daemon = AnalysisDaemon(name="bench-daemon")
        daemon.add_config("case", BusConfiguration(
            kmatrix=kmatrix, bus=bus, assumed_jitter_fraction=0.15,
            controllers=controllers))
        client = InProcessClient(daemon)
        results = []
        for jitter in jitters:
            response = client.query(
                "case",
                (JitterDelta(message_name=victim.name, jitter=jitter),),
                with_report=False)
            results.append({name: entry["worst_case"]
                            for name, entry in response["results"].items()})
        daemon.close()
        return results

    def independent_worst_cases():
        results = []
        for analysis in independent_whatif():
            results.append({
                name: result.worst_case if result.bounded else None
                for name, result in analysis.items()})
        return results

    record("server_whatif_throughput", independent_worst_cases,
           daemon_whatif, check_equal=assert_identical,
           n_messages=len(kmatrix), queries=SERVICE_QUERIES,
           victim=victim.name,
           baseline="independent kernel analyze_all",
           min_speedup=SERVER_MIN_SPEEDUP)

    # 7. Incremental compositional engine: the daemon's system-serving
    # pattern -- one cold global fixed point of a gateway chain plus two
    # re-analyses after an upstream jitter edit, against one persistent
    # engine whose per-segment sessions answer event-model deltas
    # incrementally vs rebuilding every bus analysis per iteration.
    engine_system = multibus_system(
        n_buses=ENGINE_BUSES, messages_per_bus=ENGINE_MESSAGES_PER_BUS,
        seed=3)
    engine_segment = engine_system.buses["CAN-0"]
    engine_victim = engine_segment.kmatrix.sorted_by_priority()[0]
    base_matrix = engine_segment.kmatrix
    kmatrix_variants = [base_matrix]
    for bump in (0.05, 0.10):
        kmatrix_variants.append(KMatrix(messages=[
            replace(m, jitter=(m.jitter or 0.0) + bump * m.period)
            if m.name == engine_victim.name else m
            for m in base_matrix.messages]))

    def engine_on_sessions():
        engine_segment.kmatrix = base_matrix
        engine = CompositionalAnalysis(engine_system)
        outcomes = []
        for variant in kmatrix_variants:
            engine_segment.kmatrix = variant
            outcomes.append(engine.run().message_results)
        engine_segment.kmatrix = base_matrix
        return outcomes

    def engine_rebuild():
        outcomes = []
        for variant in kmatrix_variants:
            engine_segment.kmatrix = variant
            outcomes.append(CompositionalAnalysis(
                engine_system, incremental=False).run().message_results)
        engine_segment.kmatrix = base_matrix
        return outcomes

    # Single cold fixed point, sessions vs rebuild (informational).
    cold_session_seconds, _ = _timed(
        lambda: CompositionalAnalysis(engine_system).run(), repeat)
    cold_rebuild_seconds, _ = _timed(
        lambda: CompositionalAnalysis(
            engine_system, incremental=False).run(), repeat)

    record("engine_incremental", engine_rebuild, engine_on_sessions,
           check_equal=assert_identical,
           n_buses=ENGINE_BUSES,
           messages_per_bus=ENGINE_MESSAGES_PER_BUS,
           requests=len(kmatrix_variants),
           baseline="rebuild-per-iteration engine (incremental=False)",
           cold_run_speedup=round(
               cold_rebuild_seconds / cold_session_seconds, 2),
           min_speedup=ENGINE_MIN_SPEEDUP)

    # 8. System-level what-if: a topology exploration sweep (bus-speed
    # degradation, gateway edits, per-segment jitter edits, a failover, a
    # message re-map) with per-step end-to-end path latencies, through one
    # SystemSession vs one from-scratch rebuild engine run per delta.
    whatif_system = multibus_system(
        n_buses=WHATIF_BUSES, messages_per_bus=WHATIF_MESSAGES_PER_BUS,
        seed=5)
    whatif_paths = multibus_paths(whatif_system)
    gw_route = whatif_system.gateways["GW2"].routes[0]
    leaf_bus = f"CAN-{WHATIF_BUSES - 1}"
    movable = whatif_system.buses[leaf_bus].kmatrix.sorted_by_priority()[-1]
    free_id = max(
        m.can_id for m in whatif_system.buses["CAN-1"].kmatrix) + 21
    base_rate = whatif_system.buses["CAN-1"].bus.bit_rate_bps
    whatif_queries = [()]
    whatif_queries.extend(
        (BusSpeedDelta("CAN-1", base_rate * factor),)
        for factor in (0.9, 0.8, 0.7, 0.6))
    whatif_queries.extend(
        (GatewayConfigDelta("GW1", polling_period=2.5 * factor),)
        for factor in (2.0, 3.0))
    whatif_queries.extend(
        (SegmentConfigDelta("CAN-0", (JitterDelta(fraction=fraction),)),)
        for fraction in (0.2, 0.3))
    # Leaf-bus edits: nothing downstream, so four of the five shards are
    # provably cache-served -- the sweet spot of per-segment sharding.
    whatif_queries.extend(
        (SegmentConfigDelta(leaf_bus, (JitterDelta(fraction=fraction),)),)
        for fraction in (0.15, 0.25, 0.35))
    whatif_queries.append(
        (BusSpeedDelta(leaf_bus, base_rate * 0.85),))
    whatif_queries.append((
        RemoveGatewayRouteDelta("GW2", gw_route.destination_message),
        AddGatewayRouteDelta("GW2-backup", gw_route, polling_period=5.0)))
    whatif_queries.append(
        (MoveMessageDelta(movable.name, "CAN-1", new_can_id=free_id),))

    def whatif_session_sweep():
        session = SystemSession(whatif_system)
        outcomes = []
        for deltas in whatif_queries:
            outcome = session.query(deltas)
            latencies = session.path_latency(whatif_paths, deltas)
            outcomes.append((outcome.result.message_results, latencies))
        return outcomes

    def whatif_rebuild_sweep():
        outcomes = []
        for deltas in whatif_queries:
            edited = apply_system_deltas(whatif_system, deltas)
            result = CompositionalAnalysis(
                edited, incremental=False).run()
            outcomes.append((result.message_results,
                             path_latency_all(whatif_paths, edited, result)))
        return outcomes

    record("system_whatif", whatif_rebuild_sweep, whatif_session_sweep,
           check_equal=assert_identical,
           n_buses=WHATIF_BUSES,
           messages_per_bus=WHATIF_MESSAGES_PER_BUS,
           queries=len(whatif_queries),
           paths=len(whatif_paths),
           baseline="from-scratch engine run per delta (incremental=False)",
           min_speedup=WHATIF_MIN_SPEEDUP)

    # 9. Warm restart through the persistent result store: a rebooted
    # daemon pointed at a store directory a previous generation already
    # populated answers the same system requests from disk (decode +
    # validate), skipping the compositional fixed point entirely.  The
    # seed side is the identical daemon without a store -- exactly what a
    # restart costs today without persistence.  The warm-up daemon that
    # publishes the entries runs outside the timed region.
    restart_system = multibus_system(
        n_buses=RESTART_BUSES, messages_per_bus=RESTART_MESSAGES_PER_BUS,
        seed=11)
    restart_rate = restart_system.buses["CAN-1"].bus.bit_rate_bps
    restart_queries = [
        (BusSpeedDelta("CAN-1", restart_rate * 0.8),),
        (SegmentConfigDelta("CAN-0", (JitterDelta(fraction=0.25),)),),
    ]

    def restart_requests(store):
        daemon = AnalysisDaemon(name="restart-bench", store=store)
        daemon.add_system("fleet", restart_system)
        client = InProcessClient(daemon)
        outcomes = [client.analyze_system("fleet")]
        for deltas in restart_queries:
            response = client.system_query("fleet", deltas)
            # The stats block legitimately differs (the warm daemon
            # reports a cache hit); everything numeric must be identical.
            response.pop("stats", None)
            outcomes.append(response)
        daemon.close()
        return outcomes

    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        restart_requests(ResultStore(store_dir))  # untimed warm-up publish
        record("daemon_restart_warm",
               lambda: restart_requests(None),
               lambda: restart_requests(ResultStore(store_dir)),
               check_equal=assert_identical,
               n_buses=RESTART_BUSES,
               messages_per_bus=RESTART_MESSAGES_PER_BUS,
               requests=1 + len(restart_queries),
               baseline="cold daemon re-solving after restart",
               min_speedup=RESTART_MIN_SPEEDUP)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    return scenarios


def check_regression(fresh: dict[str, dict], baseline: dict,
                     threshold: float,
                     speedup_margin: float = 1.0) -> list[str]:
    """Scenario names whose kernel time regressed beyond the threshold,
    plus scenarios that fell below their declared minimum speedup (the
    service layer's >= 5x cached-query target).

    ``speedup_margin`` scales the min_speedup floors before comparing
    (``--quick`` passes 0.9): both sides of a gated ratio are timed in
    the same run (see ``run_scenarios``), so machine speed cancels, but
    a CPU-steal spike can still land on one side of a sub-second
    scenario.  A real regression lands far below the scaled floor.
    """
    failures = []
    for name, entry in baseline.get("scenarios", {}).items():
        old = entry.get("kernel_seconds")
        new = fresh.get(name, {}).get("kernel_seconds")
        if not old or not new:
            continue
        if new > threshold * old:
            failures.append(
                f"{name}: kernel {new:.3f}s vs baseline {old:.3f}s "
                f"(> {threshold:.1f}x)")
    for name, entry in fresh.items():
        minimum = entry.get("min_speedup")
        if minimum and entry.get("speedup", 0.0) < minimum * speedup_margin:
            failures.append(
                f"{name}: speedup {entry.get('speedup', 0.0):.1f}x below "
                f"the required {minimum * speedup_margin:.1f}x "
                f"({minimum:.1f}x floor, {speedup_margin:.0%} margin)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the timing JSON")
    parser.add_argument("--check", action="store_true",
                        help="fail when a scenario regresses vs the baseline")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="allowed kernel slow-down factor for --check")
    parser.add_argument("--repeat", type=int, default=2,
                        help="best-of repetitions for kernel timings")
    parser.add_argument("--skip-seed", action="store_true",
                        help="reuse baseline seed timings (skip slow path)")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: best-of-2 timings, baseline seed "
                             "timings reused for the reference-path "
                             "scenarios (min_speedup scenarios time both "
                             "sides), ga_run skipped; combine with --check")
    args = parser.parse_args(argv)
    if args.quick:
        # Best-of-2, not best-of-1: the min_speedup floors leave ~20%
        # headroom and a single noisy timing on a shared runner blows
        # through that.  Seed timings (the slow side) stay reused.
        args.repeat = 2
        args.skip_seed = True

    baseline = None
    if args.output.exists():
        baseline = json.loads(args.output.read_text(encoding="utf-8"))

    print("Running seed-vs-kernel timing suite "
          "(REPRO_PARALLEL=%s)..." % (os.environ.get("REPRO_PARALLEL", "auto")))
    scenarios = run_scenarios(args.repeat, args.skip_seed, baseline,
                              quick=args.quick)

    if args.check:
        if baseline is None:
            print("no committed baseline -- regression gate skipped")
            return 0
        failures = check_regression(
            scenarios, baseline, args.threshold,
            speedup_margin=0.9 if args.quick else 1.0)
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print("  " + failure)
            return 1
        print(f"regression gate passed (threshold {args.threshold:.1f}x)")
        return 0

    payload = {
        "schema": 1,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "scenarios": scenarios,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
