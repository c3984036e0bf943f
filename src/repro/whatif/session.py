"""System-level what-if sessions: incremental topology exploration.

A :class:`SystemSession` is to a :class:`~repro.core.system.SystemModel`
what an :class:`~repro.service.session.AnalysisSession` is to one bus: it
holds a base topology, answers typed
:class:`~repro.whatif.system_deltas.SystemDelta` queries, and makes
repeated exploration incremental -- while staying **bit-identical** to a
from-scratch :class:`~repro.core.engine.CompositionalAnalysis` run on the
equivalently edited system.  Three mechanisms provide the incrementality:

* **one session per bus** -- every bus segment of the base topology has
  exactly one :class:`AnalysisSession` (a daemon pool shard, or one the
  system session creates), injected into every engine run whatever the
  topology.  Segments a delta does not touch answer their per-iteration
  queries from warm caches; an edited segment re-bases its query on the
  bus's session (see :class:`~repro.core.engine.CompositionalAnalysis`),
  so its configurations land in the same cache and the planner
  warm-starts or reuses them from every configuration that bus has
  analysed, in any topology;
* **a whole-result cache** keyed by the edited system's *fingerprint*
  (:meth:`~repro.core.system.SystemModel.fingerprint`): repeating a query
  -- or asking for path latencies after it -- costs a dictionary lookup.
  It is the serving stack's one bounded LRU
  (:class:`~repro.service.session.BoundedLRU`, :data:`_MAX_CACHED_RESULTS`
  entries, the base topology's result always kept, evictions counted in
  ``system_evictions_total``); a result the store serves joins it, and
  every hit answers with its own query's label, deltas and invalidated
  set.  Gateway and ECU containers are mutable, so the fingerprint
  covers their values; an in-place edit of the base system (e.g.
  :meth:`GatewayModel.add_route`) is detected on the next query and
  invalidates every cached result rather than serving a stale fixed point;
* **gateway-aware invalidation accounting** -- each query reports which
  shards its deltas invalidate: the directly touched buses closed under
  the gateway influence graph (:func:`~repro.core.system.
  influence_edges`).  Segments outside that set are provably served from
  cache at every global iteration.

End-to-end path latency is a first-class query here:
:meth:`SystemSession.path_latency` evaluates
:class:`~repro.core.paths.EndToEndPath` portfolios against the (cached)
fixed point of any delta sequence, which is what turns the daemon into the
design-exploration server of the paper's system-level claim.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from repro.cancel import CancelToken
from repro.core.engine import SWEEP_ORDER, CompositionalAnalysis
from repro.core.paths import EndToEndPath, PathLatency, path_latency_all
from repro.core.results import SystemAnalysisResult
from repro.core.system import (
    SystemModel, downstream_closure, influence_edges,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.deltas import BusConfiguration
from repro.service.session import (
    AnalysisSession, BoundedLRU, FingerprintKey, SessionStats,
)
from repro.whatif.system_deltas import SystemDelta

#: LRU bound on a system session's cached whole-system fixed points (the
#: base topology's result is never evicted).  Delta resolution is memoised
#: for four times as many delta sequences.
_MAX_CACHED_RESULTS = 128


def _store_digest(key: FingerprintKey) -> str:
    """Store digest of a topology's fixed point: its fingerprint digest
    tagged with the engine's pass order (:data:`~repro.core.engine.
    SWEEP_ORDER`), which its ``iterations`` count depends on."""
    return f"{key.digest}-{SWEEP_ORDER}"


@dataclass(frozen=True)
class SystemQueryStats:
    """How one system query was obtained."""

    invalidated: tuple[str, ...]
    segments: int
    cache_hit: bool = False

    def describe(self) -> str:
        if self.cache_hit:
            return f"cache hit ({self.segments} segments)"
        scope = ", ".join(self.invalidated) or "none"
        return (f"{len(self.invalidated)}/{self.segments} segments "
                f"invalidated ({scope})")


@dataclass(frozen=True)
class SystemQueryResult:
    """Outcome of one system-level what-if query."""

    label: Optional[str]
    deltas: tuple[SystemDelta, ...]
    result: SystemAnalysisResult
    stats: SystemQueryStats
    system: SystemModel = field(repr=False, compare=False, default=None)
    key: object = field(repr=False, compare=False, default=None)

    #: Column headers of :meth:`table_row` (a scenario run's table).
    TABLE_HEADERS = ("query", "converged", "missed", "invalidated")

    @property
    def fingerprint(self) -> str:
        """Deterministic digest of the analysed topology."""
        return self.key.digest if isinstance(self.key, FingerprintKey) else ""

    def table_row(self) -> list[object]:
        """(query, converged, deadline misses, invalidated segments)."""
        return [self.label or self.fingerprint,
                "yes" if self.result.converged else "NO",
                sum(len(report.missed)
                    for report in self.result.bus_reports.values()),
                len(self.stats.invalidated)]

    def worst_case(self, message_name: str) -> float:
        """Worst-case response time of one message (ms)."""
        return self.result.message_results[message_name].worst_case

    def path_latency(self, path: EndToEndPath) -> PathLatency:
        """End-to-end latency of one path over this query's fixed point."""
        return path_latency_all((path,), self.system, self.result)[0]

    def describe(self) -> str:
        label = self.label or ", ".join(
            d.describe() for d in self.deltas) or "base topology"
        verdict = ("converged" if self.result.converged
                   else "DID NOT CONVERGE")
        return f"{label}: {verdict}, {self.stats.describe()}"


@dataclass(frozen=True)
class SystemSessionStats:
    """One :class:`SystemSession`'s share of the registry's counters.

    A view, not a second record: ``queries`` (answered queries; a
    cancelled query is not one), ``cache_hits``, ``base_invalidations``
    and ``evictions`` (results the bounded cache dropped) are read from
    the session's children of the ``system_*`` families of its metrics
    registry, so the sum over the sessions sharing a registry is the
    family total.  ``cached_results`` is the current result-cache size and
    ``segment_sessions`` the number of per-bus sessions (one per bus of
    the base topology).
    """

    name: str
    queries: int
    cache_hits: int
    cached_results: int
    segment_sessions: int
    base_invalidations: int
    evictions: int

    def describe(self) -> str:
        return (f"{self.name}: {self.queries} queries "
                f"({self.cache_hits} hits), {self.cached_results} cached "
                f"results, {self.segment_sessions} segment sessions, "
                f"{self.base_invalidations} base invalidations")


class SystemSession:
    """What-if query engine over one base :class:`SystemModel`.

    Parameters
    ----------
    system:
        The base topology; deltas apply on top of it.  The session detects
        in-place edits of this model between queries by re-fingerprinting
        it (the base is then treated as a new topology and every cached
        result is dropped).
    max_iterations:
        Global iteration bound handed to every engine run.
    sessions:
        Optional pre-existing per-segment sessions of the *base* topology,
        keyed by bus name -- the daemon injects its pool shards here so
        system queries and per-shard what-if queries share one warm cache.
        The session creates one for every other bus.  These are the only
        segment sessions: every topology's engine run queries them.
    """

    def __init__(
        self,
        system: SystemModel,
        max_iterations: int = 50,
        name: str | None = None,
        sessions: Mapping[str, AnalysisSession] | None = None,
        metrics=None,
        store=None,
    ) -> None:
        problems = system.validate()
        if problems:
            raise ValueError(
                "inconsistent system model:\n  " + "\n  ".join(problems))
        self.name = name or f"system:{system.name}"
        self.max_iterations = max_iterations
        self._base = system
        self._lock = threading.RLock()
        self._base_key = FingerprintKey(system.fingerprint())
        # Bus name -> that bus's one segment session.
        self._sessions: dict[str, AnalysisSession] = dict(sessions or {})
        # Optional repro.store.ResultStore: whole-system fixed points are
        # looked up by topology fingerprint on a miss and published with
        # every answer (the store keeps one attempt per entry), so a
        # restarted daemon answers system queries without re-running the
        # engine.
        self.store = store
        # The session's counts live in its children of the registry's
        # system_* families (see stats()); the registry, private when none
        # is given, is shared with every segment session this system
        # session creates (see _add_base_sessions_locked).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter = self.metrics.counter
        self._m_queries = counter("system_queries_total").child()
        self._m_hits = counter("system_cache_hits_total").child()
        self._m_misses = counter("system_cache_misses_total").child()
        self._m_invalidations = counter(
            "system_base_invalidations_total").child()
        self._m_store_hits = counter("system_store_hits_total").child()
        self._m_evictions = counter("system_evictions_total").child()
        self._results = BoundedLRU(_MAX_CACHED_RESULTS, self._m_evictions)
        self._delta_memo = BoundedLRU(4 * _MAX_CACHED_RESULTS)
        unknown = set(self._sessions) - set(system.buses)
        if unknown:
            raise ValueError(f"sessions for unknown buses: {sorted(unknown)}")
        self._add_base_sessions_locked()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def base_system(self) -> SystemModel:
        """The session's base topology (deltas apply on top of it)."""
        return self._base

    @property
    def store_hits(self) -> int:
        """System fixed points this session read back from its store."""
        return int(self._m_store_hits.value)

    @property
    def base_fingerprint(self) -> str:
        """Deterministic digest of the base topology."""
        return self._base_key.digest

    def analyze(self) -> SystemQueryResult:
        """Analyse (or fetch) the base topology."""
        return self.query(())

    def query(
        self,
        deltas: "SystemDelta | Sequence[SystemDelta]" = (),
        *,
        label: str | None = None,
        cancel: "CancelToken | None" = None,
        trace=None,
    ) -> SystemQueryResult:
        """Run one system-level what-if query.

        ``deltas`` (a single delta or a sequence, applied left to right)
        describe the hypothetical topology; the returned fixed point is
        bit-identical to ``CompositionalAnalysis(edited, incremental=False)
        .run()`` on the equivalently edited model.  ``cancel`` (see
        :mod:`repro.cancel`) bounds the engine run; a fired token raises
        before the result cache is touched, so cached answers keep being
        served after a cancelled query.  ``trace`` (a
        :class:`repro.obs.Trace`) records ``session_plan``/``solve``
        spans around resolution and the engine run.
        """
        deltas = self._normalize(deltas)
        plan_span = None if trace is None else trace.begin("session_plan")
        with self._lock:
            self._refresh_base_locked()
            system, key, invalidated = self._resolve_locked(deltas)
            cached = self._results.get(key)
            sessions = {name: self._sessions[name]
                        for name in system.buses if name in self._sessions}
        stats = SystemQueryStats(
            invalidated=tuple(sorted(invalidated)),
            segments=len(system.buses), cache_hit=True)
        if cached is None and self.store is not None:
            # A prior process may have published the whole-system fixed
            # point for exactly this topology fingerprint.
            stored = self.store.get("system", _store_digest(key), names={
                m.name for segment in system.buses.values()
                for m in segment.kmatrix}, trace=trace)
            if stored is not None:
                self._m_store_hits.inc()
                cached = SystemQueryResult(
                    label=label, deltas=deltas, result=stored, stats=stats,
                    system=system, key=key)
                with self._lock:
                    self._results.put(key, cached, keep=(self._base_key, key))
        if cached is not None:
            if trace is not None:
                trace.end(plan_span)
                trace.record("solve", 0.0)
            self._m_queries.inc()
            self._m_hits.inc()
            outcome = replace(cached, label=label, deltas=deltas, stats=stats)
        else:
            # The engine run is pure and deterministic; it happens outside
            # the lock so concurrent queries genuinely overlap (a
            # duplicated computation is harmless -- both produce the same
            # value).
            engine = CompositionalAnalysis(
                system, max_iterations=self.max_iterations, sessions=sessions)
            if trace is not None:
                trace.end(plan_span)
                solve_span = trace.begin("solve")
            result = engine.run(cancel=cancel)
            if trace is not None:
                trace.end(solve_span)
            self._m_queries.inc()
            self._m_misses.inc()
            outcome = SystemQueryResult(
                label=label, deltas=deltas, result=result,
                stats=replace(stats, cache_hit=False), system=system, key=key)
            with self._lock:
                self._results.put(key, outcome, keep=(self._base_key, key))
        if self.store is not None:
            self.store.publish("system", _store_digest(key), outcome.result)
        return outcome

    def path_latency(
        self,
        paths: "EndToEndPath | Sequence[EndToEndPath]",
        deltas: "SystemDelta | Sequence[SystemDelta]" = (),
        *,
        label: str | None = None,
        cancel: "CancelToken | None" = None,
    ) -> tuple[PathLatency, ...]:
        """End-to-end latencies of the given paths under a delta sequence.

        Served from the cached fixed point whenever the topology was
        already analysed, so per-delta path tracking costs one engine run
        per *distinct* topology, not per path.
        """
        if isinstance(paths, EndToEndPath):
            paths = (paths,)
        outcome = self.query(deltas, label=label, cancel=cancel)
        return path_latency_all(tuple(paths), outcome.system, outcome.result)

    def invalidated_by(
        self,
        deltas: "SystemDelta | Sequence[SystemDelta]",
    ) -> frozenset[str]:
        """Buses a delta sequence invalidates, gateway-reachability aware.

        The directly edited buses plus every bus reachable from them along
        the gateway influence graph of the base *and* the edited topology
        (a removed route's former influence still invalidates its old
        downstream segments).
        """
        deltas = self._normalize(deltas)
        with self._lock:
            self._refresh_base_locked()
            return self._resolve_locked(deltas)[2]

    def stats(self) -> SystemSessionStats:
        """The session's share of the registry counters (thread-safe)."""
        with self._lock:
            return SystemSessionStats(
                name=self.name,
                queries=int(self._m_queries.value),
                cache_hits=int(self._m_hits.value),
                cached_results=len(self._results),
                segment_sessions=len(self._sessions),
                base_invalidations=int(self._m_invalidations.value),
                evictions=int(self._m_evictions.value),
            )

    def session_stats(self) -> list[SessionStats]:
        """Statistics of every per-segment session, in stable name order."""
        with self._lock:
            sessions = sorted(self._sessions.values(),
                              key=lambda session: session.name)
        return [session.stats() for session in sessions]

    def describe(self) -> str:
        """One-line session summary."""
        return self.stats().describe()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize(deltas) -> tuple[SystemDelta, ...]:
        if isinstance(deltas, SystemDelta):
            return (deltas,)
        deltas = tuple(deltas)
        for delta in deltas:
            if not isinstance(delta, SystemDelta):
                raise ValueError(
                    f"expected SystemDelta instances, got {delta!r} -- "
                    "wrap per-bus deltas in SegmentConfigDelta")
        return deltas

    def _add_base_sessions_locked(self) -> None:
        """Create the session of every base bus that has none yet."""
        controllers = dict(self._base.controllers) or None
        for segment in self._base.buses.values():
            if segment.name not in self._sessions:
                self._sessions[segment.name] = AnalysisSession.from_config(
                    BusConfiguration.from_segment(
                        segment, controllers=controllers),
                    name=f"{self.name}:{segment.name}", metrics=self.metrics)

    def _refresh_base_locked(self) -> None:
        """Detect in-place edits of the base system between queries.

        Gateway and ECU models are mutable; if the base topology's
        fingerprint changed since the last query, every cached result and
        resolved delta is potentially stale and is dropped.  Each bus keeps
        its session and warm cache: the session's cache is keyed by
        configuration value, and the engine re-bases a segment whose
        configuration no longer matches the session's base.
        """
        key = FingerprintKey(self._base.fingerprint())
        if key == self._base_key:
            return
        self._base_key = key
        self._results.clear()
        self._delta_memo.clear()
        self._add_base_sessions_locked()
        self._m_invalidations.inc()

    def _resolve_locked(
        self, deltas: tuple[SystemDelta, ...],
    ) -> tuple[SystemModel, FingerprintKey, frozenset[str]]:
        """Delta sequence -> (edited system, key, invalidated buses)."""
        if not deltas:
            return self._base, self._base_key, frozenset()
        memo = self._delta_memo.get(deltas)
        if memo is None:
            touched: set[str] = set()
            edges = set(influence_edges(self._base))
            system = self._base
            for delta in deltas:
                touched |= delta.touched_buses(system)
                system = delta.apply(system)
            edges |= influence_edges(system)
            invalidated = downstream_closure(
                frozenset(touched), frozenset(edges))
            memo = (system, FingerprintKey(system.fingerprint()), invalidated)
            self._delta_memo.put(deltas, memo)
        return memo
