"""Sharded session pool: the daemon's unit of state.

A :class:`SessionPool` owns every :class:`~repro.service.session.AnalysisSession`
the daemon serves queries through, and every system it serves.  Sessions
are *sharded by bus segment*: registering a single-bus target creates one
session, registering a :class:`~repro.core.system.SystemModel` creates one
session per bus segment (named ``<target>/<bus>``) and the system's
:class:`~repro.whatif.session.SystemSession` over those shards, so the
compositional engine runs **on the same sessions** -- a system-level
analysis request and a per-segment what-if query therefore hit one shared
cache.  Registering a system name again replaces its system session and
unregisters the old shards the new topology does not have.

Sessions are additionally keyed by their base-configuration fingerprint:
two targets registered with identical configurations (two clients exploring
the same K-Matrix) share a single session, which is what turns N clients
into one warm cache instead of N cold ones.

The pool is LRU-bounded (:data:`_MAX_SESSIONS`), and a session that a
registered target names is never evicted -- a live serving target never
silently loses its cache, so the bound is a cap on *orphaned* sessions and
can be exceeded by named ones.  A session is orphaned (and LRU-evictable)
once no target names it: every name aliasing it was re-registered to a
different configuration, or its system was re-registered without its bus.
All operations are thread-safe -- the TCP front end serves each connection
from its own thread.
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
from repro.whatif.session import SystemSession

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
    """Fingerprint-keyed, LRU-bounded pool of analysis sessions, and the
    registry of the systems served over them."""

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
        # System name -> its system session over the shard sessions.
        self._systems: dict[str, SystemSession] = {}
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
        """Register a system: one session shard per bus segment, and the
        system's :class:`~repro.whatif.session.SystemSession` over them.

        Returns the shard-name map (bus name -> ``<name>/<bus>`` target),
        which is what the daemon's ``register`` response hands to clients
        so they never have to re-derive shard names after a
        (re-)registration.  Re-registering ``name`` replaces its system
        session, so later system requests analyse the new model, and
        unregisters the old shards whose bus the new model lacks.
        """
        problems = system.validate()
        if problems:
            raise ValueError(
                "inconsistent system model:\n  " + "\n  ".join(problems))
        controllers = dict(system.controllers) or None
        with self._lock:
            old = self._systems.get(name)
            if old is not None:
                for bus in old.base_system.buses.keys() - system.buses.keys():
                    self._targets.pop(f"{name}/{bus}", None)
            sessions = {
                segment.name: self._register(
                    f"{name}/{segment.name}",
                    BusConfiguration.from_segment(
                        segment, controllers=controllers))
                for segment in system.buses.values()}
            self._systems[name] = SystemSession(
                system, sessions=sessions, name=name, metrics=self.metrics,
                store=self.store)
            return self.shard_map(name)

    def shard_map(self, name: str) -> dict[str, str]:
        """Bus name -> shard target map of one registered system."""
        return {bus: f"{name}/{bus}"
                for bus in self.system(name).base_system.buses}

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

    def system(self, name: str) -> SystemSession:
        """The system session of a registered system.

        It queries the system's shard sessions, so per-shard ``query``
        requests and system-level requests share one warm cache.
        """
        with self._lock:
            session = self._systems.get(name)
            if session is None:
                raise UnknownTargetError(name, self._systems)
            return session

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
