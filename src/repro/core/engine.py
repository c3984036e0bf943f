"""The compositional fixed-point iteration.

Every detailed ECU model is analysed once per run with
:class:`~repro.ecu.analysis.EcuAnalysis`: the response-time intervals of
its sender tasks yield *send* event models for the messages they queue.
Then the buses and gateways are swept in **gateway order** until the
gateway outputs stop changing.  The order is planned once per :meth:`run`
from the bus-influence graph (:func:`~repro.core.system.influence_edges`):
its strongly connected components in topological order, the buses of a
component in ``system.buses`` order, and each gateway attached to the last
component holding one of its routes' source buses.  One *pass* (the
``iterations`` unit) visits every component in that order:

1. **Buses**: each bus of the component is analysed with
   :class:`~repro.analysis.response_time.CanBusAnalysis`, using the current
   send models where available and the K-Matrix assumptions everywhere
   else; the message response-time intervals yield *arrival* event models
   at the receivers.  All buses of one component see the same send models,
   so inside a gateway cycle the pass is a Jacobi step.
2. **Gateways**: every gateway attached to the component turns the arrival
   models of its source messages into send models of its destination
   messages (adding forwarding latency and jitter), which the components
   after it see within the same pass.

Each gateway runs once per pass, after all of its sources are fresh, so on
an acyclic topology one pass reaches the fixed point and a second pass
confirms it.  The run stops when a pass leaves the send models unchanged
(fixed point), when they return to the values of the pass before
(oscillation, reported as converged), or when the iteration limit is
reached (reported as non-convergence -- the system is overloaded or has a
cyclic dependency that keeps amplifying jitter).

Two performance levers keep large systems in the "within minutes" envelope:

* the engine analyses its bus segments one after another on the calling
  thread.  The segment analyses hold the GIL, so a thread pool only adds
  contention: 300 system what-ifs on a 4x30-message gateway chain took a
  median 14.7 ms with a pool per global iteration and 7.6 ms without (one
  process on a shared 2-CPU host), and at 4x150 messages the pool was no
  faster either;
* successive passes are **incremental**: every bus segment is owned by a
  per-segment :class:`~repro.service.session.AnalysisSession`, and each
  pass issues the propagated send models as one
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
:class:`~repro.analysis.response_time.CanBusAnalysis` each pass and is
bit-identical to the session path (both follow one sweep plan, so their
iteration counts agree too).  ``process`` only changes the executor of
that reference sweep: the picklable jobs of one component's buses fan out
to worker processes through :func:`repro.parallel.parallel_map` (results
merge in segment order, so the mode never changes a result).  A component
of one bus -- every component of a gateway chain -- runs inline, so no
builtin workload, example or benchmark reaches the fan-out any more: the
4x150-message reference (multibus seed 7) starts no worker pool and took
0.77-0.98 s serial and 0.86-1.06 s under ``process`` (2-CPU shared host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.response_time import (
    CanBusAnalysis,
    MessageResponseTime,
    _model_dominates,
)
from repro.analysis.schedulability import report_from_results
from repro.can.message import CanMessage
from repro.cancel import CancelToken
from repro.core.results import SystemAnalysisResult
from repro.core.system import (
    BusSegment,
    SystemModel,
    downstream_closure,
    influence_edges,
)
from repro.ecu.analysis import EcuAnalysis, message_output_models
from repro.events.model import EventModel
from repro.events.operations import output_event_model
from repro.gateway.model import GatewayAnalysis
from repro.parallel import parallel_map
from repro.service.deltas import BusConfiguration, Delta, EventModelDelta
from repro.service.session import AnalysisSession


#: Names the pass order of :meth:`CompositionalAnalysis.run`.  A result's
#: ``iterations`` counts that order's passes, so
#: :class:`~repro.whatif.session.SystemSession` folds the tag into the
#: store digest of every whole-system fixed point: an entry an engine of
#: another order wrote misses instead of answering its count.
SWEEP_ORDER = "gateway-order"

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
    pass of the same run.  Its results seed the new analysis
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


def _sweep_components(buses: Sequence[str],
                      edges: frozenset[tuple[str, str]]) -> list[list[str]]:
    """The strongly connected components of the bus-influence graph, in
    topological order, each holding its buses in ``buses`` order.

    A component's buses all reach one another.  Sorting the components by
    how many buses reach them is topological: when one component reaches
    another, every bus upstream of the first is upstream of the second,
    and so are the second's own buses.  The sort is stable, so unrelated
    components keep the ``buses`` order of their first bus.
    """
    reach = {bus: downstream_closure(frozenset((bus,)), edges)
             for bus in buses}
    components: list[list[str]] = []
    placed: set[str] = set()
    for bus in buses:
        if bus not in placed:
            component = [other for other in buses
                         if other in reach[bus] and bus in reach[other]]
            placed.update(component)
            components.append(component)
    upstream = {bus: sum(bus in reach[other] for other in buses)
                for bus in buses}
    components.sort(key=lambda component: upstream[component[0]])
    return components


@dataclass(frozen=True)
class _GatewayStep:
    """One gateway of a sweep plan with its per-run constants."""

    name: str
    analysis: GatewayAnalysis
    min_output_distance: float


@dataclass(frozen=True)
class _SweepStage:
    """One component of a sweep plan: its buses, analysed against the same
    send models, then the gateways whose last source bus is among them."""

    segments: tuple[BusSegment, ...]
    gateways: tuple[_GatewayStep, ...]


@dataclass(frozen=True, eq=False)
class _SegmentRebase(Delta):
    """Engine-internal delta: the segment's own configuration replaces the
    session's base configuration (see
    :meth:`CompositionalAnalysis._segment_queries`).  The session keys what
    it yields by value, like every other configuration."""

    config: BusConfiguration

    def apply(self, config: BusConfiguration) -> BusConfiguration:
        return self.config


#: LRU bound of each engine-owned segment session: successive passes only
#: ever chain off the previous configuration and the base,
#: so a small cache keeps memory flat on hundreds-of-messages segments.
_SESSION_CACHE_PER_SEGMENT = 8


class CompositionalAnalysis:
    """Global analysis of a :class:`~repro.core.system.SystemModel`.

    :meth:`run` performs every pass on the calling thread.  By
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
        Bound on fixed-point passes (``iterations``).
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
        ``False`` selects the from-scratch reference: every pass
        rebuilds each segment's analysis, warm-seeded only from the
        previous pass of the same run, and no state survives a
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
        front of every pass's :class:`EventModelDelta`.  The session
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
    def _ecu_sweep(
        self,
        carriers: Mapping[str, tuple[BusSegment, CanMessage]],
    ) -> tuple[dict[str, EventModel], dict[str, object]]:
        """Analyse all detailed ECUs; return send models and task results.

        ``carriers`` maps each message name to its ``(segment, message)``
        (see :meth:`_carriers`).
        """
        send_models: dict[str, EventModel] = {}
        task_results: dict[str, object] = {}
        for ecu_name, ecu in self.system.ecus.items():
            analysis = EcuAnalysis(ecu)
            results = analysis.analyze_all()
            for task_name, result in results.items():
                task_results[f"{ecu_name}.{task_name}"] = result
            # Minimum output distance: the transmission time of the shortest
            # frame the ECU sends on its bus keeps burst models physical.
            send_models.update(message_output_models(
                ecu, min_output_distance=_min_transmission_time(
                    carriers,
                    {m for task in ecu.tasks for m in task.sends_messages})))
        return send_models, task_results

    def _carriers(self) -> dict[str, tuple[BusSegment, CanMessage]]:
        """Each message name's ``(segment, message)``, built once per run:
        the first bus carrying it, as :meth:`SystemModel.bus_of_message`
        finds it, without a scan of every K-Matrix per lookup."""
        carriers: dict[str, tuple[BusSegment, CanMessage]] = {}
        for segment in self.system.buses.values():
            for message in segment.kmatrix:
                carriers.setdefault(message.name, (segment, message))
        return carriers

    def _sweep_plan(
        self,
        carriers: Mapping[str, tuple[BusSegment, CanMessage]],
    ) -> list[_SweepStage]:
        """The run's sweep plan (see the module docstring).

        Each gateway is attached to the last component holding one of its
        routes' source buses, so it runs once per pass with every source
        fresh -- queue-coupled routes from several source buses included.
        (Routes in separate queues of one gateway are not coupled: a
        destination bus swept before the gateway's last source bus sees
        the previous pass's output, which can cost a pass, not exactness.)
        A gateway naming no bus of the system runs after the last
        component; a system without buses has no message to forward, so
        its plan is empty.  Each gateway's :class:`GatewayAnalysis` and
        minimum output distance are built here, once per run.
        """
        buses = list(self.system.buses)
        if not buses:
            return []
        components = _sweep_components(buses, influence_edges(self.system))
        stage_of = {bus: index for index, component in enumerate(components)
                    for bus in component}
        attached: list[list[_GatewayStep]] = [[] for _ in components]
        for name, gateway in self.system.gateways.items():
            stage = max((stage_of[route.source_bus]
                         for route in gateway.routes
                         if route.source_bus in stage_of),
                        default=len(components) - 1)
            attached[stage].append(_GatewayStep(
                name=name,
                analysis=GatewayAnalysis(gateway),
                min_output_distance=_min_transmission_time(
                    carriers,
                    [route.destination_message for route in gateway.routes])))
        return [
            _SweepStage(
                segments=tuple(self.system.buses[bus] for bus in component),
                gateways=tuple(steps))
            for component, steps in zip(components, attached)]

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
        ``(query, arrival models)`` pair from the last pass; when the
        new query lands on the same configuration fingerprint the arrival
        models are carried over verbatim (same analysis inputs imply the
        same outputs), so converged segments cost a cache lookup per
        pass, not a propagation pass.
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

    def _stage_sweep(
        self,
        stage: _SweepStage,
        send_models: Mapping[str, EventModel],
        previous_sweep: Mapping[str, tuple],
        segment_queries: Mapping[str, tuple] | None,
        cancel: CancelToken | None = None,
    ) -> list[tuple]:
        """Analyse one component's buses against the same send models.

        By default every segment's query runs, in order on the calling
        thread, against its cached session (deltas planned per message),
        whatever ``REPRO_PARALLEL`` says; ``segment_queries`` is the run's
        :meth:`_segment_queries`.  With ``incremental=False`` the
        stage instead hands picklable job tuples for the top-level
        :func:`_analyze_segment_job` to :func:`repro.parallel.parallel_map`,
        warm-seeded with each segment's (event models, results) from the
        previous pass; only ``process`` sends them to worker processes.
        Returns one ``(results, arrivals, report, state)`` per segment.
        """
        if self.incremental:
            return [
                self._query_segment_session(
                    segment, segment_queries[segment.name], send_models,
                    previous_sweep.get(segment.name), cancel=cancel)
                for segment in stage.segments]
        controllers = dict(self.system.controllers)
        jobs = [(segment, controllers, dict(send_models),
                 previous_sweep.get(segment.name))
                for segment in stage.segments]
        return parallel_map(_analyze_segment_job, jobs)

    # ------------------------------------------------------------------ #
    # Fixed point
    # ------------------------------------------------------------------ #
    def run(self, cancel: CancelToken | None = None) -> SystemAnalysisResult:
        """Sweep the buses and gateways in gateway order until a fixed point.

        Each pass (one unit of ``iterations``) visits the sweep plan's
        components in topological order: a component's buses are analysed
        against the current send models, then its gateways fold their
        outputs into those models for the components after it.  A pass
        converges when the send models at its end equal those at its start;
        each gateway runs once per pass, so no bus saw an intermediate
        value.  On an acyclic topology that takes one pass plus one
        confirming pass.  ``message_results``, ``arrival_models`` and
        ``bus_reports`` are built in ``system.buses`` order from each
        bus's last analysis.

        ``cancel`` (see :mod:`repro.cancel`) is threaded into every
        session query's fixed-point loops and additionally checked before
        each component, which is the cancellation granule of the
        ``incremental=False`` reference sweep (its segment jobs take no
        token, and under ``REPRO_PARALLEL=process`` run in worker
        processes).  A fired token raises out of ``run`` without corrupting
        the session path's retained sweep state: it is only replaced by
        completed passes.  The reference starts every run from scratch.
        """
        carriers = self._carriers()
        ecu_send_models, task_results = self._ecu_sweep(carriers)
        plan = self._sweep_plan(carriers)
        send_models: dict[str, EventModel] = dict(ecu_send_models)
        # Each gateway's latest outputs, in ``system.gateways`` order: the
        # send models are the ECU models overridden by these, gateway by
        # gateway, exactly as one whole gateway sweep would fold them.
        forwarded: dict[str, dict[str, EventModel]] = {
            name: {} for name in self.system.gateways}

        def current_send() -> dict[str, EventModel]:
            send = dict(ecu_send_models)
            for outputs in forwarded.values():
                send.update(outputs)
            return send

        previous_send: dict[str, EventModel] = {}
        outcomes: dict[str, tuple] = {}
        arrivals: dict[str, EventModel] = {}
        converged = False
        iterations = 0

        previous_sweep = self._sweep_state if self.incremental else {}
        segment_queries = self._segment_queries() if self.incremental \
            else None
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            sweep: dict[str, tuple] = {}
            seen = send_models
            for stage in plan:
                if cancel is not None:
                    cancel.check()
                stage_outcomes = self._stage_sweep(
                    stage, seen, previous_sweep, segment_queries,
                    cancel=cancel)
                for segment, outcome in zip(stage.segments, stage_outcomes):
                    outcomes[segment.name] = outcome
                    arrivals.update(outcome[1])
                    sweep[segment.name] = outcome[3]
                if stage.gateways:
                    for step in stage.gateways:
                        forwarded[step.name] = step.analysis.output_event_models(
                            arrivals, min_output_distance=step.min_output_distance)
                    seen = current_send()
            previous_sweep = sweep
            if self.incremental:
                self._sweep_state = sweep
            new_send = current_send()
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

        message_results: dict[str, MessageResponseTime] = {}
        arrival_models: dict[str, EventModel] = {}
        bus_reports: dict = {}
        for name in self.system.buses:
            results, segment_arrivals, report, _ = outcomes[name]
            message_results.update(results)
            arrival_models.update(segment_arrivals)
            bus_reports[name] = report
        return SystemAnalysisResult(
            converged=converged,
            iterations=iterations,
            message_results=message_results,
            task_results=task_results,
            bus_reports=bus_reports,
            send_models=send_models,
            arrival_models=arrival_models,
        )


def _min_transmission_time(
    carriers: Mapping[str, tuple[BusSegment, CanMessage]],
    message_names,
) -> float:
    """Best-case transmission time of the shortest named frame (0.0 when
    none is carried): the minimum output distance that keeps a sender's
    burst models physical.  Unknown names are skipped."""
    min_distance = 0.0
    for name in message_names:
        carrier = carriers.get(name)
        if carrier is None:
            continue
        segment, message = carrier
        tx = segment.bus.best_case_transmission_time(message)
        min_distance = min(min_distance, tx) if min_distance else tx
    return min_distance
