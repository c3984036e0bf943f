"""The compositional fixed-point iteration.

One global iteration performs three local analysis sweeps and one
propagation step:

1. **ECUs**: every detailed ECU model is analysed with
   :class:`~repro.ecu.analysis.EcuAnalysis`; the response-time intervals of
   its sender tasks yield *send* event models for the messages they queue.
2. **Buses**: every bus is analysed with
   :class:`~repro.analysis.response_time.CanBusAnalysis`, using the
   propagated send models where available and the K-Matrix assumptions
   everywhere else; the message response-time intervals yield *arrival*
   event models at the receivers.
3. **Gateways**: every gateway turns the arrival models of its source
   messages into send models of its destination messages (adding forwarding
   latency and jitter), which feed the next iteration's bus analyses.

The iteration stops when no event model changed (fixed point) or when the
iteration limit is reached (reported as non-convergence -- the system is
overloaded or has a cyclic dependency that keeps amplifying jitter).

Two performance levers keep large systems in the "within minutes" envelope:

* one global iteration analyses its bus segments in order on the calling
  thread.  The segment analyses hold the GIL, so a thread pool only adds
  contention: 300 system what-ifs on a 4x30-message gateway chain took a
  median 14.7 ms with a pool per global iteration and 7.6 ms without (one
  process on a shared 2-CPU host), and at 4x150 messages the pool was no
  faster either;
* successive global iterations are **incremental**: every bus segment is
  owned by a per-segment
  :class:`~repro.service.session.AnalysisSession`, and each iteration
  issues the propagated send models as one
  :class:`~repro.service.deltas.EventModelDelta` to that session.  The
  session's planner then decides *per message* whether the cached fixed
  point can be reused outright (nothing at or above the message's priority
  changed), warm-started (its inputs only grew -- the monotone case that
  dominates converging systems; see the warm-start contract in
  :mod:`repro.analysis.response_time`), or must be re-solved cold (an
  oscillating gateway shrank a jitter).

``REPRO_PARALLEL`` does not choose between algorithms: the default engine
runs on the segment sessions in every mode.  ``incremental=False`` keeps
the from-scratch reference, which rebuilds every segment's
:class:`~repro.analysis.response_time.CanBusAnalysis` each iteration and is
bit-identical to the session path.  ``process`` only changes the executor
of that reference sweep: its picklable segment jobs fan out to worker
processes through :func:`repro.parallel.parallel_map` (results merge in
segment order, so the mode never changes a result).  That fan-out stays
because a cold reference run is the one case where worker processes
measured faster: 4x150 messages (multibus seed 7, 2 CPUs) took
1.08-1.12 s serial and 0.72-0.84 s under ``process``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.response_time import (
    CanBusAnalysis,
    MessageResponseTime,
    _model_dominates,
)
from repro.analysis.schedulability import report_from_results
from repro.cancel import CancelToken
from repro.core.results import SystemAnalysisResult
from repro.core.system import BusSegment, SystemModel
from repro.ecu.analysis import EcuAnalysis, message_output_models
from repro.events.model import EventModel
from repro.events.operations import output_event_model
from repro.gateway.model import GatewayAnalysis
from repro.parallel import parallel_map
from repro.service.deltas import BusConfiguration, Delta, EventModelDelta
from repro.service.session import AnalysisSession


_MODEL_EPS = 1e-6


def _models_equal(first: Mapping[str, EventModel],
                  second: Mapping[str, EventModel]) -> bool:
    """Whether two event-model maps are (numerically) identical.

    Models of different classes are never equal even with identical
    parameters: a :class:`SporadicEventModel` and a periodic model with the
    same ``(period, jitter, min_distance)`` bound different event streams,
    and treating them as equal could terminate the global fixed point early.
    """
    if first.keys() != second.keys():
        return False
    for name, model in first.items():
        other = second[name]
        if type(model) is not type(other):
            return False
        if abs(model.period - other.period) > _MODEL_EPS:
            return False
        if abs(model.jitter - other.jitter) > _MODEL_EPS:
            return False
        if abs(model.min_distance - other.min_distance) > _MODEL_EPS:
            return False
    return True


def _segment_arrival_models(
    kmatrix,
    models: Mapping[str, EventModel],
    results: Mapping[str, MessageResponseTime],
) -> dict[str, EventModel]:
    """Arrival event models of one analysed segment.

    Shared by the incremental (session) and rebuild sweeps so both derive
    the propagated models through literally the same arithmetic.
    """
    arrival_models: dict[str, EventModel] = {}
    for message in kmatrix:
        result = results[message.name]
        input_model = models[message.name]
        if not result.bounded:
            # Represent divergence as a very large jitter so that the
            # fixed point reports non-convergence instead of hiding it.
            arrival_models[message.name] = input_model.with_jitter(
                input_model.jitter + 100.0 * message.period)
            continue
        arrival_models[message.name] = output_event_model(
            input_model=input_model,
            best_case_response=result.best_case,
            worst_case_response=result.worst_case,
            min_output_distance=result.transmission_time,
        )
    return arrival_models


def _segment_overrides(segment: BusSegment,
                       send_models: Mapping[str, EventModel],
                       ) -> dict[str, EventModel]:
    """The propagated send models of one segment's messages.

    One walk over the K-Matrix with dict lookups: testing every send model
    with ``name in segment.kmatrix`` would scan the matrix once per model.
    """
    overrides: dict[str, EventModel] = {}
    for message in segment.kmatrix:
        model = send_models.get(message.name)
        if model is not None:
            overrides[message.name] = model
    return overrides


def _analyze_segment_job(args: tuple) -> tuple:
    """Analyse one bus segment (top-level so ``process`` pools can pickle it).

    ``args`` is ``(segment, controllers, send_models, previous)`` where
    ``previous`` carries the segment's (event models, results) from the last
    global iteration of the same run.  Its results seed the new analysis
    when every event model dominates its predecessor (the warm-start
    contract of :mod:`repro.analysis.response_time`); the segment's other
    inputs cannot change within one run.
    """
    segment, controllers, send_models, previous = args
    overrides = _segment_overrides(segment, send_models)
    analysis = CanBusAnalysis(
        kmatrix=segment.kmatrix,
        bus=segment.bus,
        error_model=segment.error_model,
        assumed_jitter_fraction=segment.assumed_jitter_fraction,
        controllers=controllers,
        event_models=overrides,
    )
    models = {m.name: analysis.event_model(m) for m in segment.kmatrix}
    seeds = None
    if previous is not None:
        previous_models, previous_results = previous
        if all(_model_dominates(previous_models[name], model)
               for name, model in models.items()):
            seeds = previous_results
    results = analysis.analyze_all(warm_start=seeds)
    arrival_models = _segment_arrival_models(segment.kmatrix, models, results)
    report = report_from_results(
        segment.kmatrix, analysis, results, segment.deadline_policy)
    return results, arrival_models, report, (models, results)


@dataclass(frozen=True, eq=False)
class _SegmentRebase(Delta):
    """Engine-internal delta: the segment's own configuration replaces the
    session's base configuration (see
    :meth:`CompositionalAnalysis._segment_queries`).  The session keys what
    it yields by value, like every other configuration."""

    config: BusConfiguration

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        return self.config


#: LRU bound of each engine-owned segment session: successive global
#: iterations only ever chain off the previous configuration and the base,
#: so a small cache keeps memory flat on hundreds-of-messages segments.
_SESSION_CACHE_PER_SEGMENT = 8


class CompositionalAnalysis:
    """Global analysis of a :class:`~repro.core.system.SystemModel`.

    :meth:`run` performs every global iteration on the calling thread.  By
    default it analyses the bus segments one after another on their
    sessions, in every ``REPRO_PARALLEL`` mode: the analysis holds the GIL,
    so the engine starts no threads (a server handling one request per
    thread keeps exactly that thread busy).  Only the ``incremental=False``
    reference fans out, and only under ``process``.

    Parameters
    ----------
    system:
        The integration model to analyse.
    max_iterations:
        Bound on global fixed-point iterations.
    sessions:
        Optional mapping of bus name to an existing
        :class:`~repro.service.session.AnalysisSession` for that segment
        (the analysis daemon shares its sharded session pool this way, so
        repeated system analyses hit warm caches across requests).  Missing
        segments get a private session on first use.  A session serves its
        bus whatever the segment's configuration: one whose base
        configuration differs from the segment's (a what-if topology, an
        in-place edit between runs) is re-based by value on every run, not
        replaced, so the bus keeps its one warm cache.  The engine's
        segment queries pass ``use_store=False``: a store-backed session
        neither looks up nor publishes the intermediate configurations of
        a run, whose fixed point the caller persists whole
        (``SystemSession`` writes one ``system`` entry per topology).
    incremental:
        When ``True`` (default), bus sweeps run on the per-segment sessions
        (reuse / warm-start per message), whatever ``REPRO_PARALLEL`` says.
        ``False`` selects the from-scratch reference: every iteration
        rebuilds each segment's analysis, warm-seeded only from the
        previous iteration of the same run, and no state survives a
        :meth:`run`.  Both produce bit-identical results;
        ``REPRO_PARALLEL=process`` only hands the reference's segment jobs
        to worker processes.
    """

    def __init__(self, system: SystemModel, max_iterations: int = 50,
                 sessions: Mapping[str, AnalysisSession] | None = None,
                 incremental: bool = True) -> None:
        problems = system.validate()
        if problems:
            raise ValueError(
                "inconsistent system model:\n  " + "\n  ".join(problems))
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.system = system
        self.max_iterations = max_iterations
        self.incremental = incremental
        # Per-segment (query, arrival models) of the session path's *last*
        # run, retained across runs: arrival models carry over only on an
        # exact query-key match, so a persistent engine re-analysing after
        # an in-place segment, ECU or gateway edit stays bit-identical --
        # the memo invalidates by fingerprint, never by object identity.
        # The reference path (incremental=False) neither reads nor writes
        # it; ``process`` only changes that path's executor.
        self._sweep_state: dict[str, tuple] = {}
        self._sessions: dict[str, AnalysisSession] = dict(sessions or {})
        unknown = set(self._sessions) - set(system.buses)
        if unknown:
            raise ValueError(
                f"sessions for unknown buses: {sorted(unknown)}")

    # ------------------------------------------------------------------ #
    # Session pool access
    # ------------------------------------------------------------------ #
    def session_for(self, bus_name: str) -> AnalysisSession:
        """The per-segment session of one bus (created on first use)."""
        return self._session_for(self.system.buses[bus_name])

    def session_stats(self) -> list:
        """Statistics of every segment session created so far."""
        return [self._sessions[name].stats() for name in sorted(self._sessions)]

    def _session_for(self, segment: BusSegment) -> AnalysisSession:
        session = self._sessions.get(segment.name)
        if session is None:
            session = AnalysisSession.from_segment(
                segment,
                controllers=dict(self.system.controllers) or None,
                max_cached_configs=_SESSION_CACHE_PER_SEGMENT,
                name=f"engine:{segment.name}")
            self._sessions[segment.name] = session
        return session

    def _segment_queries(self) -> dict[str, tuple[AnalysisSession, tuple]]:
        """Each bus's session and the deltas its queries lead with.

        A segment whose configuration differs from its session's base (a
        system what-if edited it, or it was reconfigured in place since) is
        re-based: its configuration, built once per :meth:`run`, goes in
        front of every iteration's :class:`EventModelDelta`.  The session
        stays the bus's one session, so the edited segment plans against
        every configuration the bus has cached.
        """
        controllers = dict(self.system.controllers) or None
        queries: dict[str, tuple[AnalysisSession, tuple]] = {}
        for segment in self.system.buses.values():
            session = self._session_for(segment)
            config = BusConfiguration.from_segment(
                segment, controllers=controllers)
            prefix = () if config == session.base_config \
                else (_SegmentRebase(config),)
            queries[segment.name] = (session, prefix)
        return queries

    # ------------------------------------------------------------------ #
    # Local sweeps
    # ------------------------------------------------------------------ #
    def _ecu_sweep(self) -> tuple[dict[str, EventModel], dict[str, object]]:
        """Analyse all detailed ECUs; return send models and task results."""
        send_models: dict[str, EventModel] = {}
        task_results: dict[str, object] = {}
        for ecu_name, ecu in self.system.ecus.items():
            analysis = EcuAnalysis(ecu)
            results = analysis.analyze_all()
            for task_name, result in results.items():
                task_results[f"{ecu_name}.{task_name}"] = result
            # Minimum output distance: the transmission time of the shortest
            # frame the ECU sends on its bus keeps burst models physical.
            min_distance = 0.0
            for message_name in {
                    m for task in ecu.tasks for m in task.sends_messages}:
                try:
                    segment = self.system.bus_of_message(message_name)
                except KeyError:
                    continue
                message = segment.kmatrix.get(message_name)
                tx = segment.bus.best_case_transmission_time(message)
                min_distance = min(min_distance, tx) if min_distance else tx
            send_models.update(message_output_models(
                ecu, min_output_distance=min_distance))
        return send_models, task_results

    def _query_segment_session(
        self,
        segment: BusSegment,
        segment_query: tuple[AnalysisSession, tuple],
        send_models: Mapping[str, EventModel],
        previous: tuple | None,
        cancel: CancelToken | None = None,
    ) -> tuple:
        """One incremental segment analysis: issue the propagated send
        models as an :class:`EventModelDelta` to the segment's session.

        ``segment_query`` is the bus's ``(session, leading deltas)`` pair
        from :meth:`_segment_queries`.  ``previous`` is the segment's
        ``(query, arrival models)`` pair from the last iteration; when the
        new query lands on the same configuration fingerprint the arrival
        models are carried over verbatim (same analysis inputs imply the
        same outputs), so converged segments cost a cache lookup per
        iteration, not a propagation pass.
        """
        session, deltas = segment_query
        overrides = _segment_overrides(segment, send_models)
        if overrides:
            deltas = (*deltas, EventModelDelta.from_mapping(
                overrides, replace_all=True))
        prev_query, prev_arrivals = previous or (None, None)
        query = session.query(deltas, warm_from=prev_query, cancel=cancel,
                              use_store=False)
        if prev_query is not None and query.key == prev_query.key:
            arrivals = prev_arrivals
        else:
            models = session.input_models(deltas)
            arrivals = _segment_arrival_models(
                segment.kmatrix, models, query.results)
        return query.results, arrivals, query.report, (query, arrivals)

    def _bus_sweep(
        self,
        send_models: Mapping[str, EventModel],
        previous_sweep: Mapping[str, tuple],
        segment_queries: Mapping[str, tuple] | None,
        cancel: CancelToken | None = None,
    ) -> tuple[dict[str, MessageResponseTime], dict[str, EventModel], dict,
               dict[str, tuple]]:
        """Analyse all buses with the given send models.

        By default every segment's query runs, in order on the calling
        thread, against its cached session (deltas planned per message),
        whatever ``REPRO_PARALLEL`` says; ``segment_queries`` is the run's
        :meth:`_segment_queries`.  With ``incremental=False`` the
        sweep instead hands picklable job tuples for the top-level
        :func:`_analyze_segment_job` to :func:`repro.parallel.parallel_map`,
        warm-seeded with each segment's (event models, results) from the
        previous iteration; only ``process`` sends them to worker processes.
        """
        segments = list(self.system.buses.values())
        if self.incremental:
            outcomes = [
                self._query_segment_session(
                    segment, segment_queries[segment.name], send_models,
                    previous_sweep.get(segment.name), cancel=cancel)
                for segment in segments]
        else:
            controllers = dict(self.system.controllers)
            jobs = [(segment, controllers, dict(send_models),
                     previous_sweep.get(segment.name))
                    for segment in segments]
            outcomes = parallel_map(_analyze_segment_job, jobs)
        message_results: dict[str, MessageResponseTime] = {}
        arrival_models: dict[str, EventModel] = {}
        bus_reports = {}
        sweep_state: dict[str, tuple] = {}
        for segment, (results, arrivals, report, state) in zip(
                segments, outcomes):
            message_results.update(results)
            arrival_models.update(arrivals)
            bus_reports[segment.name] = report
            sweep_state[segment.name] = state
        return message_results, arrival_models, bus_reports, sweep_state

    def _gateway_sweep(
        self,
        arrival_models: Mapping[str, EventModel],
    ) -> dict[str, EventModel]:
        """Propagate arrival models through all gateways."""
        forwarded: dict[str, EventModel] = {}
        for gateway in self.system.gateways.values():
            analysis = GatewayAnalysis(gateway)
            min_distance = 0.0
            for route in gateway.routes:
                try:
                    segment = self.system.bus_of_message(route.destination_message)
                except KeyError:
                    continue
                message = segment.kmatrix.get(route.destination_message)
                tx = segment.bus.best_case_transmission_time(message)
                min_distance = min(min_distance, tx) if min_distance else tx
            forwarded.update(analysis.output_event_models(
                arrival_models, min_output_distance=min_distance))
        return forwarded

    # ------------------------------------------------------------------ #
    # Fixed point
    # ------------------------------------------------------------------ #
    def run(self, cancel: CancelToken | None = None) -> SystemAnalysisResult:
        """Iterate local analyses and propagation until a global fixed point.

        ``cancel`` (see :mod:`repro.cancel`) is threaded into every
        session query's fixed-point loops and additionally checked between
        global iterations, which is the cancellation granule of the
        ``incremental=False`` reference sweep (its segment jobs take no
        token, and under ``REPRO_PARALLEL=process`` run in worker
        processes).  A fired token raises out of ``run`` without corrupting
        the session path's retained sweep state: it is only replaced by
        completed sweeps.  The reference starts every run from scratch.
        """
        ecu_send_models, task_results = self._ecu_sweep()
        send_models: dict[str, EventModel] = dict(ecu_send_models)

        previous_send: dict[str, EventModel] = {}
        message_results: dict[str, MessageResponseTime] = {}
        arrival_models: dict[str, EventModel] = {}
        bus_reports: dict = {}
        converged = False
        iterations = 0

        previous_sweep = self._sweep_state if self.incremental else {}
        segment_queries = self._segment_queries() if self.incremental \
            else None
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            if cancel is not None:
                cancel.check()
            (message_results, arrival_models, bus_reports,
             previous_sweep) = self._bus_sweep(
                send_models, previous_sweep, segment_queries, cancel=cancel)
            if self.incremental:
                self._sweep_state = previous_sweep
            forwarded = self._gateway_sweep(arrival_models)
            new_send = dict(ecu_send_models)
            new_send.update(forwarded)
            if _models_equal(new_send, send_models) and iteration > 1:
                converged = True
                break
            if _models_equal(new_send, previous_send):
                # Oscillation between two states: treat the larger-jitter one
                # as the conservative fixed point.
                converged = True
                send_models = new_send
                break
            previous_send = send_models
            send_models = new_send
        else:
            converged = False

        if not self.system.gateways and not self.system.ecus:
            # A single-bus system without propagation converges trivially.
            converged = True

        return SystemAnalysisResult(
            converged=converged,
            iterations=iterations,
            message_results=message_results,
            task_results=task_results,
            bus_reports=bus_reports,
            send_models=send_models,
            arrival_models=arrival_models,
        )
