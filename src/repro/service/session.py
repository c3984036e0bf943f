"""Cached-kernel what-if sessions with delta-based incremental re-analysis.

An :class:`AnalysisSession` turns the fast analysis kernel into a query
engine for interactive exploration: it holds one base
:class:`~repro.service.deltas.BusConfiguration`, fingerprints every
configuration it analyses, and caches the frozen
:class:`~repro.analysis.response_time.CanBusAnalysis` kernel, the last
converged fixed point and its schedulability reports per fingerprint.  A
query is a sequence of typed deltas; the session applies them to a
copy-on-write view and then plans, per message, the cheapest *exact* way to
obtain the new result:

``reuse``
    Every input of the message's analysis (own event model and transmission
    time, the full ordered higher-priority interference sequence, blocking,
    error model, divergence horizon) is bit-identical to a cached
    configuration -- the cached :class:`MessageResponseTime` *is* the result
    and no fixed point is solved at all.
``warm``
    The inputs changed, but only monotonically (jitters grew, the error
    model hardened, the higher-priority set gained members, blocking did not
    shrink) -- the cached solution is a valid lower bound under the PR 2
    warm-start contract of :mod:`repro.analysis.response_time`, so the fixed
    point is re-converged from it in a handful of iterations.
``cold``
    Anything else (jitter shrank, a message got a better priority, a
    higher-priority message disappeared): the message is analysed from
    scratch, because a stale seed could overshoot the new least fixed point.

All three paths return results bit-identical to a from-scratch
``analyze_all`` on the mutated K-Matrix; the plan only decides how much work
that takes.  Divergent (unbounded) results are always re-derived cold before
caching so that every cached value is the canonical cold-start value.

Sessions are thread-safe: the cache is guarded by a lock, analyses run
outside it, and a concurrent duplicate computation is harmless because every
path is deterministic.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.response_time import (
    CanBusAnalysis,
    MessageResponseTime,
    _error_model_dominates,
    _model_dominates,
    _models_identical,
)
from repro.analysis.schedulability import (
    SchedulabilityReport,
    report_from_results,
)
from repro.analysis.vector import _eta_plus_vec
from repro.can.bus import CanBus
from repro.can.controller import ControllerModel
from repro.can.kmatrix import KMatrix
from repro.obs.metrics import ITERATION_BUCKETS, SIZE_BUCKETS, MetricsRegistry
from repro.cancel import CancelToken
from repro.errors.models import ErrorModel, NoErrors
from repro.events.model import EventModel
from repro.service.deltas import BusConfiguration, Delta, apply_deltas

_REUSE = "reuse"
_WARM = "warm"
_COLD = "cold"


# --------------------------------------------------------------------------- #
# Seed re-verification (the warm-start predicates live in
# repro.analysis.response_time, beside the contract they implement)
# --------------------------------------------------------------------------- #
def _unaffected_seeds(old: CanBusAnalysis, new: CanBusAnalysis,
                      changed: Iterable[str],
                      seeds: Mapping[str, MessageResponseTime]) -> set[str]:
    """The converged ``seeds`` that are *provably still the exact fixed
    point* under ``new``.

    ``old`` and ``new`` share structure, blocking, error model and
    horizon, and differ only in the ``changed`` (standard ``eta_plus``)
    event models; no seed's own model is among them.  A seed's busy
    period and queuing delays are exact fixed points of the old
    right-hand side, which differs from the new one only in the changed
    higher-priority rows' activation counts.  Where none of those counts
    moves at any of the seed's windows, the new right-hand side
    reproduces the seed bit-for-bit, and the dominance precondition
    (seed <= new least fixed point) pins it to *the* least fixed point.
    All seeds' windows are checked in one pass of the solver's own count
    over the rows of the tables it reads.
    """
    windows: list[float] = []
    owners: list[int] = []
    starts: list[int] = []
    for seed in seeds.values():
        starts.append(len(windows))
        windows.append(seed.busy_period)
        windows.extend(seed.queuing_delays)
        owners.extend([seed.can_id] * (1 + len(seed.queuing_delays)))
    dt = np.array(windows, dtype=np.float64) + new._bit_time
    rows = np.array([new._rows[name] for name in changed], dtype=np.int64)
    # Old rows above new rows: both counts in one call.
    period, jitter, min_distance = np.concatenate(
        (old._table[rows, 1:], new._table[rows, 1:])).T[..., None]
    counts = _eta_plus_vec(dt, period, jitter, min_distance)
    moved = ((counts[:rows.size] != counts[rows.size:])
             & (new._ids[rows][:, None] < np.array(owners))).any(axis=0)
    affected = np.logical_or.reduceat(moved, starts)
    return {name for name, hit in zip(seeds, affected.tolist()) if not hit}


# --------------------------------------------------------------------------- #
# Per-configuration profile (what the planner compares)
# --------------------------------------------------------------------------- #
class _Profile:
    """Analysis-relevant facts of one configuration, indexed for planning."""

    __slots__ = ("names", "ids", "senders", "tx", "best_tx", "models",
                 "order", "pos", "horizon", "message_set", "bus",
                 "controllers", "error_model")

    def __init__(self, config: BusConfiguration,
                 analysis: CanBusAnalysis) -> None:
        kmatrix = config.kmatrix
        self.names: tuple[str, ...] = tuple(m.name for m in kmatrix)
        self.ids: dict[str, int] = {m.name: m.can_id for m in kmatrix}
        self.senders: dict[str, str] = {m.name: m.sender for m in kmatrix}
        # The analysis froze these maps at construction; referencing them
        # keeps profile building O(1) in the per-message dimensions.
        self.tx: Mapping[str, float] = analysis._transmission_times
        self.best_tx: Mapping[str, float] = analysis._best_case_times
        self.models: Mapping[str, EventModel] = analysis._models
        order = sorted(self.names, key=lambda n: self.ids[n])
        self.order: tuple[str, ...] = tuple(order)
        self.pos: dict[str, int] = {n: i for i, n in enumerate(order)}
        self.horizon: float = analysis._horizon
        self.message_set: frozenset[str] = frozenset(self.names)
        self.bus = config.bus
        self.controllers = dict(config.controllers or {})
        self.error_model = config.error_model


class FingerprintKey:
    """Fingerprint wrapper caching its (expensive, per-message) hash.

    The one cache key of the per-bus sessions (over a configuration's
    analysis key) and of :class:`repro.whatif.session.SystemSession` (over a
    system fingerprint).  One query performs several cache operations on the
    same key; hashing the 80-message tuple once instead of per operation
    keeps fingerprinting off the hot path.  The display ``digest`` is a
    *deterministic* sha1 over the fingerprint's repr (process hashes are
    ``PYTHONHASHSEED``-randomised, and query reports must stay
    byte-identical across runs and parallel modes); it is computed lazily so
    pure sweeps never pay for it.
    """

    __slots__ = ("value", "_hash", "_digest")

    def __init__(self, value: tuple) -> None:
        self.value = value
        self._hash = hash(value)
        self._digest: str | None = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, FingerprintKey):
            return NotImplemented
        return self._hash == other._hash and self.value == other.value

    def __repr__(self) -> str:
        return f"key:{self.digest}"

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha1(
                repr(self.value).encode()).hexdigest()[:12]
        return self._digest


class BoundedLRU(OrderedDict):
    """Map of at most ``bound`` entries, least recently used first.

    The one bounded cache of the serving stack: a session's analysed
    configurations, a system session's results, both delta memos and the
    daemon pool's sessions.  :meth:`get` touches the entry it finds;
    ``[]``, ``in`` and :meth:`peek` do not.  :meth:`put` inserts (or
    refreshes) an entry, then evicts the oldest entries outside the
    caller's ``keep`` set, counting each in ``evictions`` (a counter
    child) when one is given.  It has no lock of its own: every access
    runs under the owner's lock.
    """

    def __init__(self, bound: int, evictions=None) -> None:
        super().__init__()
        self.bound = bound
        self.evictions = evictions

    #: Lookup that leaves the LRU order alone.
    peek = OrderedDict.get

    def get(self, key):
        value = OrderedDict.get(self, key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key, value, keep=()) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.bound:
            victim = next((k for k in self if k not in keep), None)
            if victim is None:
                return
            del self[victim]
            if self.evictions is not None:
                self.evictions.inc()


class _CacheEntry:
    """One analysed configuration: kernel, fixed point, planning profile,
    the full-matrix schedulability report per deadline policy, and the
    wire memo -- encoded results the protocol layer fills through
    :attr:`QueryResult.wire` and that lives and dies with the entry."""

    __slots__ = ("key", "config", "analysis", "profile", "results",
                 "reports", "wire")

    def __init__(self, key: FingerprintKey, config: BusConfiguration,
                 analysis: CanBusAnalysis, profile: _Profile) -> None:
        self.key = key
        self.config = config
        self.analysis = analysis
        self.profile = profile
        self.results: dict[str, MessageResponseTime] = {}
        self.reports: dict[str, SchedulabilityReport] = {}
        self.wire: dict = {}

    @property
    def digest(self) -> str:
        return self.key.digest

    def blocking_of(self, name: str) -> float:
        """Blocking term of one message (cached inside the kernel)."""
        return self.analysis.blocking(self.config.kmatrix.get(name))


# --------------------------------------------------------------------------- #
# Query result objects
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SessionStats:
    """One :class:`AnalysisSession`'s share of the registry's counters.

    A view, not a second record: every count is read from the session's
    children of the ``session_*`` families of its metrics registry, so
    the sum over the sessions sharing a registry is the family total.
    ``queries`` counts answered queries (a cancelled query is not one);
    ``cache_hits`` those answered entirely from a cached fingerprint or
    the result store; ``cache_misses`` the remainder.  The plan counts
    (``reused`` / ``warm_started`` / ``cold``) aggregate the per-message
    actions of every *computed* query (cache-hit queries never plan), so
    they describe how much incremental structure the session exploited.
    """

    name: str
    cached_configs: int
    queries: int
    cache_hits: int
    cache_misses: int
    evictions: int
    reused: int
    warm_started: int
    cold: int

    def as_row(self) -> list[object]:
        """Row for :func:`repro.reporting.tables.format_session_stats`."""
        return [self.name, self.cached_configs, self.queries,
                self.cache_hits, self.cache_misses, self.evictions,
                self.reused, self.warm_started, self.cold]

    def describe(self) -> str:
        return (f"{self.name}: {self.cached_configs} cached configs, "
                f"{self.queries} queries ({self.cache_hits} hits), "
                f"{self.evictions} evictions; plans: {self.reused} reused, "
                f"{self.warm_started} warm, {self.cold} cold")


@dataclass(frozen=True)
class QueryStats:
    """How the session obtained one query's results.

    ``basis`` is the cache key of the configuration the incremental plan
    started from (its deterministic digest renders lazily -- fingerprints
    are only materialised when someone reads them).
    """

    total: int
    reused: int
    warm_started: int
    cold: int
    cache_hit: bool = False
    basis: Optional[object] = None

    @property
    def basis_fingerprint(self) -> Optional[str]:
        """Digest of the basis configuration (``None`` for cold plans)."""
        if self.basis is None:
            return None
        return self.basis.digest if isinstance(self.basis, FingerprintKey) \
            else str(self.basis)

    def describe(self) -> str:
        if self.cache_hit:
            return f"cache hit ({self.total} messages)"
        basis = self.basis_fingerprint
        return (f"{self.reused} reused, {self.warm_started} warm-started, "
                f"{self.cold} cold of {self.total} messages"
                + (f" (basis {basis})" if basis else ""))


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one what-if query against a session.

    ``fingerprint`` identifies the analysed configuration (a deterministic
    digest, stable across processes and parallel modes); passing the whole
    result back as ``warm_from=`` of a later query declares it the
    preferred incremental basis (sweeps chain their points this way).
    ``wire`` is the memo of the cache entry that answered the query, so a
    served result is encoded once per entry, not once per reply.
    """

    label: Optional[str]
    deltas: tuple[Delta, ...]
    results: Mapping[str, MessageResponseTime]
    report: Optional[SchedulabilityReport]
    stats: QueryStats
    key: object = field(repr=False, compare=False, default=None)
    wire: Optional[dict] = field(repr=False, compare=False, default=None)

    #: Column headers of :meth:`table_row` (a scenario run's table).
    TABLE_HEADERS = ("query", "loss %", "worst slack", "reused", "warm",
                     "cold")

    @property
    def fingerprint(self) -> str:
        """Digest of the analysed configuration (rendered lazily)."""
        return self.key.digest if isinstance(self.key, FingerprintKey) else ""

    def table_row(self) -> list[object]:
        """(query, loss fraction, worst slack, reused, warm, cold)."""
        report = self.report
        return [self.label or self.fingerprint,
                report.loss_fraction if report is not None else float("nan"),
                report.worst_normalized_slack if report is not None
                else float("nan"),
                self.stats.reused, self.stats.warm_started, self.stats.cold]

    def worst_case(self, name: str) -> float:
        """Worst-case response time of one message (ms)."""
        return self.results[name].worst_case

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        label = self.label or ", ".join(
            d.describe() for d in self.deltas) or "base"
        summary = self.stats.describe()
        if self.report is not None:
            summary += (f"; {len(self.report.missed)}/"
                        f"{len(self.report.verdicts)} deadline misses")
        return f"{label}: {summary}"


# --------------------------------------------------------------------------- #
# The session
# --------------------------------------------------------------------------- #
class AnalysisSession:
    """What-if query engine over one base bus configuration.

    Parameters mirror :class:`~repro.analysis.response_time.CanBusAnalysis`
    plus ``deadline_policy`` (for the reports) and ``max_cached_configs``
    (LRU bound on cached kernels; the base configuration is never evicted).
    """

    def __init__(
        self,
        kmatrix: KMatrix,
        bus: CanBus,
        error_model: ErrorModel | None = None,
        assumed_jitter_fraction: float = 0.0,
        controllers: Mapping[str, ControllerModel] | None = None,
        event_models: Mapping[str, EventModel] | None = None,
        deadline_policy: str = "period",
        max_cached_configs: int = 128,
        name: str | None = None,
        metrics=None,
        store=None,
    ) -> None:
        if max_cached_configs < 2:
            raise ValueError("max_cached_configs must be at least 2")
        self.name = name or f"session:{bus.name}"
        self._base = BusConfiguration(
            kmatrix=kmatrix,
            bus=bus,
            error_model=error_model if error_model is not None else NoErrors(),
            assumed_jitter_fraction=assumed_jitter_fraction,
            controllers=dict(controllers) if controllers else None,
            event_models=dict(event_models) if event_models else None,
            deadline_policy=deadline_policy,
        )
        self._base_key = FingerprintKey(self._base.analysis_key())
        self._lock = threading.Lock()
        self._last_key: FingerprintKey | None = None
        # Optional repro.store.ResultStore.  Consulted when the in-memory
        # cache cannot serve a query; converged full fixed points are
        # published back so a restarted daemon warm-starts from disk.
        # Every cached value is the canonical cold-start value (module
        # docstring invariant), so store round-trips stay bit-identical.
        self.store = store
        # The session's counts live in its children of the registry's
        # session_* families (see stats()); without a shared registry the
        # session keeps a private one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter = self.metrics.counter
        self._m_evictions = counter("session_evictions_total").child()
        self._cache = BoundedLRU(max_cached_configs, self._m_evictions)
        # Applying a delta sequence rebuilds the K-Matrix; repeated
        # sequences (a sweep's points, a GA parent looked up per child)
        # resolve through this memo instead.
        self._delta_memo = BoundedLRU(4 * max_cached_configs)
        self._m_queries = counter("session_queries_total").child()
        self._m_hits = counter("session_cache_hits_total").child()
        self._m_misses = counter("session_cache_misses_total").child()
        self._m_plan = {
            action: counter(
                "session_plan_messages_total", action=action).child()
            for action in ("reuse", "warm", "cold")}
        self._m_store_hits = counter("session_store_hits_total").child()
        self._m_iterations = self.metrics.histogram(
            "solver_iterations", buckets=ITERATION_BUCKETS)
        self._m_batch = self.metrics.histogram(
            "solver_batch_size", buckets=SIZE_BUCKETS)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: BusConfiguration,
                    **kwargs) -> "AnalysisSession":
        """Session over an explicit :class:`BusConfiguration`."""
        return cls(
            kmatrix=config.kmatrix, bus=config.bus,
            error_model=config.error_model,
            assumed_jitter_fraction=config.assumed_jitter_fraction,
            controllers=config.controllers, event_models=config.event_models,
            deadline_policy=config.deadline_policy, **kwargs)

    @classmethod
    def from_segment(cls, segment, controllers=None,
                     **kwargs) -> "AnalysisSession":
        """Session over one :class:`~repro.core.system.BusSegment`."""
        return cls(
            kmatrix=segment.kmatrix, bus=segment.bus,
            error_model=segment.error_model,
            assumed_jitter_fraction=segment.assumed_jitter_fraction,
            controllers=controllers, deadline_policy=segment.deadline_policy,
            **kwargs)

    @classmethod
    def from_system(cls, system, bus_name: str, **kwargs) -> "AnalysisSession":
        """Session over one bus of a :class:`~repro.core.system.SystemModel`."""
        segment = system.buses[bus_name]
        return cls.from_segment(
            segment, controllers=system.controllers or None, **kwargs)

    # ------------------------------------------------------------------ #
    # Public queries
    # ------------------------------------------------------------------ #
    @property
    def base_config(self) -> BusConfiguration:
        """The session's base configuration (deltas apply on top of it)."""
        return self._base

    def key_for(self, deltas: Sequence[Delta] = ()) -> "FingerprintKey":
        """Opaque cache key of the configuration a delta sequence yields.

        Useful to name a warm-start basis without keeping the whole
        :class:`QueryResult` around (the GA's parent seeding does this).
        """
        return self._resolve(tuple(deltas))[1]

    def _resolve(self, deltas: tuple,
                 ) -> tuple[BusConfiguration, "FingerprintKey"]:
        """Delta sequence -> (configuration, cache key), memoised."""
        if not deltas:
            return self._base, self._base_key
        with self._lock:
            entry = self._delta_memo.get(deltas)
        if entry is None:
            config = apply_deltas(self._base, deltas)
            entry = (config, FingerprintKey(config.analysis_key()))
            with self._lock:
                self._delta_memo.put(deltas, entry)
        return entry

    def analyze(self) -> QueryResult:
        """Analyse (or fetch) the base configuration."""
        return self.query(())

    def query(
        self,
        deltas: Sequence[Delta] = (),
        *,
        warm_from: "QueryResult | FingerprintKey | Iterable | None" = None,
        message_names: Sequence[str] | None = None,
        deadline_policy: str | None = None,
        label: str | None = None,
        with_report: bool = True,
        cancel: "CancelToken | None" = None,
        trace=None,
        use_store: bool = True,
    ) -> QueryResult:
        """Run one what-if query.

        Parameters
        ----------
        deltas:
            Typed deltas applied (left to right) to the base configuration.
        warm_from:
            Preferred incremental bases: a previous :class:`QueryResult`
            or a ``key_for`` key, or an iterable of them.  The session
            additionally considers the previous query and the base
            configuration and picks the basis whose plan does the least
            work; an unusable basis only costs speed, never exactness.
        message_names:
            Restrict the query to these messages (their results depend only
            on higher-priority *models*, so a subset query returns exactly
            the full query's values for those names).
        deadline_policy:
            Deadline interpretation for the report (default: the
            configuration's).
        label:
            Optional human-readable name carried into the result.
        with_report:
            Skip the schedulability report when ``False`` (pure sweeps that
            only consume response times save the verdict construction).
        cancel:
            Optional :class:`repro.cancel.CancelToken` checked between
            fixed-point iterations; a fired token raises
            :class:`repro.cancel.Cancelled` before any cache state is
            updated, so a cancelled query leaves the session exactly as it
            was (already-cached answers keep being served).
        trace:
            Optional :class:`repro.obs.Trace`; when present the session
            records ``session_plan`` (delta resolution, cache lookup,
            plan choice) and ``solve`` (fixed-point execution) spans.
        use_store:
            When ``False``, the query neither reads nor publishes the result
            store entry of its configuration.  The compositional engine's
            segment queries pass it: their intermediate configurations are
            rarely asked for again, and the system entry already persists
            the whole fixed point.  A later query with the default publishes
            a complete cached fixed point that is not yet in the store.
        """
        plan_span = None if trace is None else trace.begin("session_plan")
        config, key = self._resolve(tuple(deltas))
        needed = None if message_names is None else [
            str(n) for n in message_names]
        if needed is not None:
            for n in needed:
                if n not in config.kmatrix:
                    raise KeyError(n)
        policy = deadline_policy or config.deadline_policy

        # Only cache bookkeeping runs under the lock; analyses and report
        # construction (both pure) happen outside so concurrent queries on
        # one session genuinely overlap.
        use_store = use_store and self.store is not None
        stats = None
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                covered = set(entry.results)
                wanted = set(needed) if needed is not None else set(
                    entry.profile.names)
                if wanted <= covered:
                    self._last_key = key
                    stats = QueryStats(
                        total=len(wanted), reused=len(wanted),
                        warm_started=0, cold=0, cache_hit=True,
                        basis=entry.key)
            if stats is None:
                bases = self._basis_candidates(warm_from, key)
        if stats is None:
            analysis = entry.analysis if entry is not None \
                else config.build_analysis()
            profile = entry.profile if entry is not None \
                else _Profile(config, analysis)
            # Persistent-store lookup: the in-memory cache cannot serve this
            # query, but a prior process may have persisted the converged
            # fixed point for exactly this fingerprint.
            stored = self.store.get(
                "bus", key.digest, names=profile.message_set,
                trace=trace) if use_store else None
            if stored is not None:
                with self._lock:
                    entry = self._entry_locked(key, config, analysis, profile)
                    for msg_name, value in stored.items():
                        entry.results.setdefault(msg_name, value)
                    self._last_key = key
                    self._m_store_hits.inc()
                wanted = set(needed) if needed is not None \
                    else set(profile.names)
                stats = QueryStats(
                    total=len(wanted), reused=len(wanted),
                    warm_started=0, cold=0, cache_hit=True, basis=entry.key)
        if stats is not None:
            if trace is not None:
                trace.end(plan_span)
                trace.record("solve", 0.0)
            self._m_queries.inc()
            self._m_hits.inc()
            return self._finish(entry, config, tuple(deltas), needed, policy,
                                label, stats, with_report, use_store)

        plan, basis, adopt_changed, fast_ok, donor = self._choose_plan(
            profile, analysis, config, bases, needed)
        if trace is not None:
            trace.end(plan_span)
            solve_span = trace.begin("solve")
        iterations_before = analysis.profile_iterations
        stats, results = self._execute(
            config, analysis, profile, plan, basis, needed,
            existing=entry.results if entry is not None else None,
            adopt_changed=adopt_changed, fast_ok=fast_ok, donor=donor,
            cancel=cancel)
        if trace is not None:
            trace.end(solve_span)
        self._m_queries.inc()
        self._m_misses.inc()
        self._m_plan["reuse"].inc(stats.reused)
        self._m_plan["warm"].inc(stats.warm_started)
        self._m_plan["cold"].inc(stats.cold)
        self._m_iterations.observe(
            analysis.profile_iterations - iterations_before)
        self._m_batch.observe(stats.warm_started + stats.cold)

        with self._lock:
            entry = self._entry_locked(key, config, analysis, profile)
            entry.results.update(results)
            self._last_key = key
        stats = QueryStats(
            total=stats.total, reused=stats.reused,
            warm_started=stats.warm_started, cold=stats.cold,
            basis=basis.key if basis is not None else None)
        return self._finish(entry, config, tuple(deltas), needed, policy,
                            label, stats, with_report, use_store)

    def describe(self) -> str:
        """One-line session summary (cache occupancy and hit statistics)."""
        return (f"{self.name}: {len(self._cache)} cached configurations, "
                f"{self.queries} queries, {self.cache_hits} cache hits")

    @property
    def queries(self) -> int:
        """Queries this session answered."""
        return int(self._m_queries.value)

    @property
    def cache_hits(self) -> int:
        """Answered queries served from the cache or the result store."""
        return int(self._m_hits.value)

    @property
    def store_hits(self) -> int:
        """Fixed points this session read back from its result store."""
        return int(self._m_store_hits.value)

    def stats(self) -> SessionStats:
        """The session's share of the registry counters (thread-safe)."""
        with self._lock:
            return SessionStats(
                name=self.name,
                cached_configs=len(self._cache),
                queries=self.queries,
                cache_hits=self.cache_hits,
                cache_misses=int(self._m_misses.value),
                evictions=int(self._m_evictions.value),
                reused=int(self._m_plan["reuse"].value),
                warm_started=int(self._m_plan["warm"].value),
                cold=int(self._m_plan["cold"].value),
            )

    def input_models(self, deltas: Sequence[Delta] = (),
                     ) -> dict[str, EventModel]:
        """Per-message activation models of the configuration ``deltas`` yield.

        Exactly the models a fresh
        :class:`~repro.analysis.response_time.CanBusAnalysis` of that
        configuration would report via ``event_model`` -- the compositional
        engine derives output (arrival) event models from them.  Served from
        the cached kernel when the configuration was already analysed.
        """
        config, key = self._resolve(tuple(deltas))
        with self._lock:
            entry = self._cache.peek(key)
        if entry is not None:
            return dict(entry.profile.models)
        overrides = dict(config.event_models or {})
        models: dict[str, EventModel] = {}
        for message in config.kmatrix:
            model = overrides.get(message.name)
            if model is None:
                model = message.event_model(config.assumed_jitter_fraction)
            models[message.name] = model
        return models

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _finish(self, entry: _CacheEntry, config: BusConfiguration,
                deltas: tuple, needed: list[str] | None, policy: str,
                label: str | None, stats: QueryStats,
                with_report: bool, publish: bool) -> QueryResult:
        if publish and len(entry.results) == len(entry.profile.names):
            # The store keeps one attempt per entry (ResultStore.publish).
            self.store.publish("bus", entry.digest, entry.results)
        report = None
        if needed is None:
            results = {m.name: entry.results[m.name]
                       for m in config.kmatrix}
            if with_report:
                # A full entry's results never change (every path is
                # deterministic), so its frozen report is built once per
                # policy; setdefault hands racing builders the same object.
                report = entry.reports.get(policy)
                if report is None:
                    report = entry.reports.setdefault(
                        policy, report_from_results(
                            config.kmatrix, entry.analysis, results, policy))
        else:
            results = {n: entry.results[n] for n in needed}
        return QueryResult(
            label=label, deltas=deltas,
            results=results, report=report, stats=stats, key=entry.key,
            wire=entry.wire)

    def _entry_locked(self, key: FingerprintKey, config: BusConfiguration,
                      analysis: CanBusAnalysis, profile: _Profile,
                      ) -> _CacheEntry:
        """The cache entry of ``key``, touched or inserted (caller holds
        the lock).  An insert keeps the base, the last query and itself."""
        entry = self._cache.get(key)
        if entry is None:
            entry = _CacheEntry(key, config, analysis, profile)
            self._cache.put(key, entry,
                            keep=(self._base_key, self._last_key, key))
        return entry

    def _basis_candidates(self, warm_from, new_key: "FingerprintKey",
                          ) -> list[_CacheEntry]:
        """Cached entries to consider as incremental bases (caller-preferred
        first, then the previous query, then the base configuration)."""
        keys: list[FingerprintKey] = []
        if warm_from is not None:
            if isinstance(warm_from, (QueryResult, FingerprintKey)):
                warm_from = (warm_from,)
            keys.extend(item.key if isinstance(item, QueryResult) else item
                        for item in warm_from)
        if self._last_key is not None:
            keys.append(self._last_key)
        keys.append(self._base_key)
        entries: list[_CacheEntry] = []
        seen: set[int] = set()
        for key in keys:
            if key == new_key:
                continue
            entry = self._cache.peek(key)
            if entry is not None and id(entry) not in seen:
                seen.add(id(entry))
                entries.append(entry)
        return entries

    def _choose_plan(self, profile: _Profile, analysis: CanBusAnalysis,
                     config: BusConfiguration,
                     bases: Sequence[_CacheEntry],
                     needed: Sequence[str] | None,
                     ) -> tuple[dict[str, str], _CacheEntry | None,
                                set[str] | None, bool, _CacheEntry | None]:
        """Plan against each candidate basis; keep the cheapest.

        The third element names the changed event models when the winning
        basis satisfies the kernel-sharing precondition of
        :meth:`CanBusAnalysis.adopt_kernels` (``None`` otherwise); the
        fourth flags whether warm seeds may additionally go through the
        :func:`_unaffected_seeds` re-verification shortcut (structure,
        blocking, error model and horizon all carried over), which reads
        the changed names.  The fifth is the candidate whose kernels the
        new analysis adopts: the winning basis when it satisfies that
        precondition, else the first candidate that does -- a plan that
        solves every message cold still shares the kernels of a
        same-structure configuration instead of building and caching its
        own copy.
        """
        wanted = list(needed) if needed is not None else list(profile.names)
        best_plan = {name: _COLD for name in wanted}
        best_basis = None
        best_changed: set[str] | None = None
        best_fast = False
        best_cost = len(wanted) * 10
        donor = None
        for basis in bases:
            outcome = self._plan(profile, analysis, config, basis, wanted)
            if outcome is None:
                continue
            plan, adopt_changed, fast_ok = outcome
            if donor is None and adopt_changed is not None:
                donor = basis
            colds = sum(1 for a in plan.values() if a == _COLD)
            warms = sum(1 for a in plan.values() if a == _WARM)
            cost = 10 * colds + warms
            if cost < best_cost:
                best_plan, best_basis, best_cost = plan, basis, cost
                best_changed = adopt_changed
                best_fast = fast_ok
            if colds == 0:
                # Nothing left to gain from another basis: a different one
                # could at best turn warm starts into reuses, which a later
                # exact-fingerprint hit handles anyway.
                break
        if best_changed is not None:
            donor = best_basis
        return best_plan, best_basis, best_changed, best_fast, donor

    def _plan(self, new: _Profile, analysis: CanBusAnalysis,
              config: BusConfiguration, basis: _CacheEntry,
              wanted: Sequence[str],
              ) -> tuple[dict[str, str], set[str] | None, bool] | None:
        """Per-message action plan against one basis, or ``None``.

        ``None`` means the basis is structurally unusable (different bus
        timing, controllers or senders): every comparison below assumes
        transmission times and blocking groupings carry over.
        """
        old = basis.profile
        if new.bus != old.bus or new.controllers != old.controllers:
            return None
        common = new.message_set & old.message_set
        for name in common:
            if new.senders[name] != old.senders[name] \
                    or new.tx[name] != old.tx[name] \
                    or new.best_tx[name] != old.best_tx[name]:
                return None
        # Deltas preserve the relative K-Matrix order of surviving messages;
        # interference sums run in that order, so reuse requires it.
        if [n for n in old.names if n in common] != [
                n for n in new.names if n in common]:
            return None

        error_same = new.error_model == old.error_model
        error_dom = error_same or _error_model_dominates(
            old.error_model, new.error_model)
        horizon_same = new.horizon == old.horizon
        changed = {name for name in common
                   if not _models_identical(old.models[name],
                                            new.models[name])}
        all_dominate = error_dom and all(
            _model_dominates(old.models[name], new.models[name])
            for name in changed)

        if new.names == old.names and new.ids == old.ids:
            # Same structure: the basis's kernels are shared outright, and
            # warm seeds may be re-verified by the changed rows' counts
            # alone (sound only when the error model and the divergence
            # horizon also carried over -- _unaffected_seeds assumes both).
            return (self._plan_same_priorities(
                new, wanted, changed, error_same, all_dominate, horizon_same),
                changed, error_same and horizon_same)
        return (self._plan_new_priorities(
            new, analysis, config, basis, wanted, common, changed, error_same,
            all_dominate, horizon_same), None, False)

    def _plan_same_priorities(self, new: _Profile, wanted, changed,
                              error_same, all_dominate, horizon_same,
                              ) -> dict[str, str]:
        """Fast path: identical message set and identifiers.

        Only event models and the error model can differ, so a message is
        untouched exactly when nothing at or above its priority changed;
        blocking and interference membership are structurally preserved.
        """
        min_changed = min((new.ids[n] for n in changed), default=None)
        plan: dict[str, str] = {}
        for name in wanted:
            affected = (not error_same or name in changed
                        or (min_changed is not None
                            and min_changed < new.ids[name]))
            if not affected:
                plan[name] = _REUSE if horizon_same else _WARM
            elif all_dominate:
                plan[name] = _WARM
            else:
                plan[name] = _COLD
        return plan

    def _plan_new_priorities(self, new: _Profile, analysis: CanBusAnalysis,
                             config: BusConfiguration, basis: _CacheEntry,
                             wanted, common, changed, error_same,
                             all_dominate, horizon_same) -> dict[str, str]:
        """Slow path: priorities or matrix membership changed.

        Per message the higher-priority *name set* decides everything:

        * unchanged set (and nothing in it re-modelled, same blocking) --
          the interference sequence is bit-identical, so the cached result
          is reused;
        * the old set is a subset of the new one and every shared model only
          grew -- the old solution lower-bounds the new fixed point, so it
          warm-starts the iteration (a demoted message of a GA candidate
          seeded from its parent);
        * anything else is analysed cold.

        The subset test runs in O(n) overall via a running maximum over the
        basis priority order mapped into new positions.
        """
        old = basis.profile
        same_set = new.message_set == old.message_set
        # prefix_changed[k]: any of the k highest-priority basis messages
        # has a different event model (or left the matrix).
        prefix_changed = [False] * (len(old.order) + 1)
        # prefix_max[k]: largest new position among those k messages
        # (infinite when one of them no longer exists).
        prefix_max = [-1] * (len(old.order) + 1)
        infinity = len(new.order) + 1
        for k, name in enumerate(old.order):
            position = new.pos.get(name, infinity)
            prefix_max[k + 1] = max(prefix_max[k], position)
            prefix_changed[k + 1] = prefix_changed[k] or (
                name in changed or name not in common)

        plan: dict[str, str] = {}
        for name in wanted:
            if name not in common:
                plan[name] = _COLD
                continue
            k_new = new.pos[name]
            k_old = old.pos[name]
            subset_ok = prefix_max[k_old] < k_new
            sets_equal = subset_ok and k_old == k_new
            blocking_old = None
            blocking_new = None
            if not same_set or not sets_equal:
                # Membership around the message moved: compare the actual
                # blocking terms (max lower-priority frame + controller).
                blocking_old = basis.blocking_of(name)
                blocking_new = analysis.blocking(config.kmatrix.get(name))
            if (sets_equal and error_same and not prefix_changed[k_old]
                    and name not in changed
                    and (same_set or blocking_new == blocking_old)):
                plan[name] = _REUSE if horizon_same else _WARM
            elif (subset_ok and all_dominate
                  and (blocking_new is None
                       or blocking_new >= blocking_old)):
                plan[name] = _WARM
            else:
                plan[name] = _COLD
        return plan

    def _execute(self, config: BusConfiguration, analysis: CanBusAnalysis,
                 profile: _Profile, plan: Mapping[str, str],
                 basis: _CacheEntry | None,
                 needed: Sequence[str] | None,
                 existing: Mapping[str, MessageResponseTime] | None,
                 adopt_changed: set[str] | None = None,
                 fast_ok: bool = False,
                 donor: _CacheEntry | None = None,
                 cancel: "CancelToken | None" = None,
                 ) -> tuple[QueryStats, dict[str, MessageResponseTime]]:
        """Run the plan; every fall-back lands on an exact cold start."""
        reused = warm = cold = 0
        results: dict[str, MessageResponseTime] = {}
        wanted = None if needed is None else set(needed)
        horizon = profile.horizon
        if donor is not None:
            # Structure-preserving candidate: share its kernels instead of
            # rebuilding them (see adopt_kernels).
            analysis.adopt_kernels(donor.analysis)
        unaffected: set[str] = set()
        if fast_ok and adopt_changed:
            # Warm seeds of messages whose own model is untouched are
            # re-verified in one vector pass instead of re-solved (see
            # _unaffected_seeds); all changed models are standard-
            # ``eta_plus`` ones here (all_dominate vetted them).
            seeds = {name: basis.results[name] for name, action in plan.items()
                     if action == _WARM and name not in adopt_changed
                     and name in basis.results
                     and basis.results[name].bounded}
            if seeds:
                unaffected = _unaffected_seeds(
                    basis.analysis, analysis, adopt_changed, seeds)
        # First pass: settle every reuse decision and collect the messages
        # that actually need a fixed point, with their warm seeds.  The
        # solves then run as ONE batched pass (`response_times_batch`): the
        # whole what-if query becomes a couple of vectorized RHS evaluations
        # across all messages.
        solve: list = []
        warm_seeded: set[str] = set()
        for message in config.kmatrix:
            name = message.name
            if wanted is not None and name not in wanted:
                continue
            if existing is not None and name in existing:
                results[name] = existing[name]
                reused += 1
                continue
            action = plan.get(name, _COLD)
            seed = basis.results.get(name) if basis is not None else None
            if name in unaffected:
                results[name] = seed
                reused += 1
                continue
            if action == _REUSE and seed is not None:
                fits = seed.bounded and seed.busy_period <= horizon and all(
                    w <= horizon for w in seed.queuing_delays)
                if fits or (not seed.bounded
                            and basis.profile.horizon == horizon):
                    results[name] = seed
                    reused += 1
                    continue
                action = _WARM if seed.bounded else _COLD
            results[name] = None  # placeholder keeps K-Matrix order
            if action == _WARM and seed is not None and seed.bounded:
                solve.append((message, seed))
                warm_seeded.add(name)
                warm += 1
            else:
                solve.append((message, None))
                cold += 1
        if solve:
            solved = analysis.response_times_batch(solve, cancel=cancel)
            # Keep cached divergent values canonical (cold-start): re-run
            # warm-seeded messages that diverged, again as one batch.
            retry = [message for message, _ in solve
                     if message.name in warm_seeded
                     and not solved[message.name].bounded]
            if retry:
                solved.update(analysis.response_times_batch(
                    [(message, None) for message in retry], cancel=cancel))
            for message, _ in solve:
                results[message.name] = solved[message.name]
        total = reused + warm + cold
        return QueryStats(total=total, reused=reused, warm_started=warm,
                          cold=cold), results
