"""Sharded session pool: the daemon's unit of state.

A :class:`SessionPool` owns every :class:`~repro.service.session.AnalysisSession`
the daemon serves queries through.  Sessions are *sharded by bus segment*:
registering a single-bus target creates one session, registering a
:class:`~repro.core.system.SystemModel` creates one session per bus segment
(named ``<target>/<bus>``) plus keeps the system itself so the
compositional engine can run **on the same sessions** -- a system-level
analysis request and a per-segment what-if query therefore hit one shared
cache.

Sessions are additionally keyed by their base-configuration fingerprint:
two targets registered with identical configurations (two clients exploring
the same K-Matrix) share a single session, which is what turns N clients
into one warm cache instead of N cold ones.

The pool is LRU-bounded (:data:`_MAX_SESSIONS`), with a pinning rule: a
session that a registered target names is immune to eviction -- a live
serving target never silently loses its cache, so the bound is a cap on
*orphaned* sessions and can be exceeded by named ones.  A session is
orphaned (and LRU-evictable) once every name aliasing it is re-registered
to a different configuration.  All operations are
thread-safe -- the TCP front end serves each connection from its own
thread.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.core.system import SystemModel
from repro.obs.metrics import MetricsRegistry
from repro.service.deltas import BusConfiguration
from repro.service.session import (
    AnalysisSession, BoundedLRU, FingerprintKey, SessionStats,
)

#: Cached-configuration bound of every session the pool creates.  A system's
#: shard is that bus's one session for every topology its system what-ifs
#: explore (see :class:`~repro.whatif.session.SystemSession`), so this bound
#: also caps the configurations all those topologies leave on the bus.
_SHARD_CACHED_CONFIGS = 64

#: LRU bound on the pool's sessions; sessions a target names are kept
#: beyond it.
_MAX_SESSIONS = 64


class UnknownTargetError(KeyError):
    """A request named a target the pool does not serve."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = sorted(known)

    def __str__(self) -> str:
        known = ", ".join(self.known) or "none"
        return f"unknown target {self.name!r}; registered: {known}"


class SessionPool:
    """Fingerprint-keyed, LRU-bounded pool of analysis sessions."""

    def __init__(self, metrics=None, store=None) -> None:
        self._lock = threading.RLock()
        # Registry handed to every session the pool creates (private when
        # none is given); the daemon passes its own so one `metrics`
        # request covers the whole serving stack.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_evictions = self.metrics.counter(
            "pool_evictions_total").child()
        self._m_sessions = self.metrics.gauge("pool_sessions")
        # Fingerprint -> session (LRU order); name -> fingerprint aliases.
        self._sessions = BoundedLRU(_MAX_SESSIONS, self._m_evictions)
        self._targets: dict[str, object] = {}
        self._systems: dict[str, SystemModel] = {}
        self._system_shards: dict[str, list[str]] = {}
        # Optional repro.store.ResultStore, handed to every session the
        # pool creates so per-bus fixed points persist across restarts.
        self.store = store

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add_config(self, name: str,
                   config: BusConfiguration) -> AnalysisSession:
        """Register a single-bus target; returns its (possibly shared)
        session."""
        with self._lock:
            return self._register(name, config)

    def add_system(self, name: str, system: SystemModel) -> dict[str, str]:
        """Register a system: one session shard per bus segment.

        Returns the shard-name map (bus name -> ``<name>/<bus>`` target),
        which is what the daemon's ``register`` response hands to clients
        so they never have to re-derive shard names after a
        (re-)registration.  The system model itself is kept so
        :meth:`system` can hand it (plus its shard sessions) to the
        compositional engine.
        """
        problems = system.validate()
        if problems:
            raise ValueError(
                "inconsistent system model:\n  " + "\n  ".join(problems))
        shards: dict[str, str] = {}
        with self._lock:
            for segment in system.buses.values():
                shard = f"{name}/{segment.name}"
                config = BusConfiguration.from_segment(
                    segment, controllers=dict(system.controllers) or None)
                self._register(shard, config)
                shards[segment.name] = shard
            self._systems[name] = system
            self._system_shards[name] = list(shards.values())
        return shards

    def shard_map(self, name: str) -> dict[str, str]:
        """Bus name -> shard target map of one registered system."""
        with self._lock:
            if name not in self._systems:
                raise UnknownTargetError(name, self._systems)
            return {shard[len(name) + 1:]: shard
                    for shard in self._system_shards.get(name, ())}

    def _register(self, name: str,
                  config: BusConfiguration) -> AnalysisSession:
        # The analysis key excludes the deadline policy (it never changes
        # response times), but sessions default their *reports* to the base
        # policy -- so it is part of the sharing key here.  Every lookup
        # and LRU touch hashes the key, so it caches its hash.
        key = FingerprintKey((config.analysis_key(), config.deadline_policy))
        session = self._sessions.peek(key)
        if session is None:
            session = AnalysisSession.from_config(
                config, max_cached_configs=_SHARD_CACHED_CONFIGS,
                name=name, metrics=self.metrics, store=self.store)
        self._targets[name] = key
        # A re-registration under a changed configuration may orphan the
        # old fingerprint: no target names it any more, so the bound can
        # reclaim it instead of leaking it.
        self._sessions.put(key, session, keep=set(self._targets.values()))
        self._m_sessions.set(len(self._sessions))
        return session

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> AnalysisSession:
        """Session of a registered target (LRU-touching)."""
        with self._lock:
            key = self._targets.get(name)
            if key is None:
                raise UnknownTargetError(name, self.targets())
            return self._sessions.get(key)

    def system(self, name: str) -> tuple[SystemModel,
                                         dict[str, AnalysisSession]]:
        """A registered system and its per-segment shard sessions.

        The returned mapping is keyed by *bus name* (what
        :class:`~repro.core.engine.CompositionalAnalysis` expects as its
        ``sessions=``).  Shards are named targets, so never evicted.
        """
        with self._lock:
            system = self._systems.get(name)
            if system is None:
                raise UnknownTargetError(name, self._systems)
            # Strip the "<system name>/" prefix; a plain split would
            # mis-parse system names that themselves contain "/".
            return system, {
                shard[len(name) + 1:]: self._sessions.get(self._targets[shard])
                for shard in self._system_shards[name]}

    def targets(self) -> list[str]:
        """All registered target names, sorted."""
        with self._lock:
            return sorted(self._targets)

    def systems(self) -> list[str]:
        """All registered system names, sorted."""
        with self._lock:
            return sorted(self._systems)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._targets

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def evicted_sessions(self) -> int:
        """Sessions this pool evicted: its ``pool_evictions_total`` share."""
        return int(self._m_evictions.value)

    def stats(self) -> list[SessionStats]:
        """Per-session statistics, in stable (name) order."""
        with self._lock:
            sessions = sorted(self._sessions.values(),
                              key=lambda session: session.name)
            return [session.stats() for session in sessions]

    def describe(self) -> str:
        """Multi-line pool summary."""
        with self._lock:
            lines = [f"Session pool: {len(self._sessions)} sessions "
                     f"({len(self._targets)} targets, "
                     f"{self.evicted_sessions} evicted)"]
            lines.extend("  " + stats.describe() for stats in self.stats())
        return "\n".join(lines)
