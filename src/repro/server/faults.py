"""Deterministic fault injection for the serving tier.

Production code cannot prove its failure paths by waiting for real faults,
so the serving stack exposes *injection sites* -- named points where a
:class:`FaultInjector` may deterministically trigger a failure on the n-th
time execution passes through.  The sites wired in this PR:

``worker.stall``
    Before each ``batch`` step, on the request thread: sleep for the
    rule's argument (ms).  Exercises deadlines and drain-cancellation of a
    batch part-way through its steps.  The site keeps its historical
    name.
``handle.stall``
    At the top of :meth:`AnalysisDaemon.handle` for work ops: same sleep,
    but on the transport thread -- exercises admission control backpressure
    (in-flight requests pile up) and client read timeouts.
``tcp.drop``
    In the TCP request handler, after reading a request and before
    writing its response: close the connection uncleanly.  Exercises
    client reconnect + retry.
``tcp.slow``
    Before writing a TCP response: sleep for the argument (ms).  Exercises
    client read timeouts and the reply-id verification that keeps a timed-
    out read from desynchronising later replies.
``store.torn_write``
    In :meth:`~repro.store.ResultStore.put`: write a truncated entry
    directly to the final path (no atomic rename), simulating a crash
    mid-write.  The next lookup must count ``corrupt`` and cold-solve.
``store.stale_schema``
    In :meth:`~repro.store.ResultStore.put`: stamp the entry with a bumped
    schema version, simulating a file owned by a newer daemon generation.
    Lookups must count ``stale`` and cold-solve without deleting it.

Spec syntax
-----------
A spec is a comma-separated list of rules::

    site[@n][:arg]

``site`` names the injection site; ``@n`` (default 1) makes the rule fire
on exactly the n-th hit of that site (1-based, counted per injector);
``@n+`` fires on the n-th and every later hit; ``:arg`` is the rule's
numeric argument -- milliseconds for stalls/slow writes, ignored by
``tcp.drop``.  Examples::

    tcp.drop@2                   # drop the 2nd connection's reply
    worker.stall@1:200           # first batch step sleeps 200 ms
    handle.stall@3+:50           # every request from the 3rd on adds 50 ms

The ``REPRO_FAULTS`` environment variable carries a spec into a daemon
spawned out-of-process (:func:`from_env`); in-process tests pass an
injector explicitly.  Counters are per-injector and thread-safe, so a test
re-creating its injector restarts the schedule deterministically.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

ENV_VAR = "REPRO_FAULTS"

#: Sites the serving stack currently wires; unknown sites in a spec raise
#: immediately (a typo'd site would otherwise silently never fire).
KNOWN_SITES = ("worker.stall", "handle.stall", "tcp.drop", "tcp.slow",
               "store.torn_write", "store.stale_schema")


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` spec."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule: fire at ``site`` on hit ``nth`` (1-based)."""

    site: str
    nth: int = 1
    onwards: bool = False
    arg: float = 0.0

    def matches(self, hit: int) -> bool:
        return hit >= self.nth if self.onwards else hit == self.nth


class FaultInjector:
    """Deterministic n-th-hit fault trigger shared across the stack.

    ``check(site)`` increments the site's hit counter and returns the
    matching :class:`FaultRule` (or ``None``); the call site decides what
    the fault *means* (sleep, drop, ...).  An injector with no rules is
    free: ``check`` returns immediately without taking the lock.
    """

    def __init__(self, rules: "list[FaultRule] | None" = None) -> None:
        self._rules: dict[str, list[FaultRule]] = {}
        for rule in rules or []:
            self._rules.setdefault(rule.site, []).append(rule)
        self._hits: dict[str, int] = {}
        self._fired: list[str] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse a spec string (see the module docstring's syntax)."""
        rules: list[FaultRule] = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            rules.append(_parse_rule(chunk))
        return cls(rules)

    def __bool__(self) -> bool:
        return bool(self._rules)

    # ------------------------------------------------------------------ #
    # Trigger
    # ------------------------------------------------------------------ #
    def check(self, site: str) -> Optional[FaultRule]:
        """Count a pass through ``site``; return the rule that fires, if any."""
        if not self._rules:
            return None
        with self._lock:
            rules = self._rules.get(site)
            if rules is None:
                return None
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for rule in rules:
                if rule.matches(hit):
                    self._fired.append(f"{site}#{hit}")
                    return rule
        return None

    def fired(self) -> tuple[str, ...]:
        """``site#hit`` labels of every fault fired so far (test assertions)."""
        with self._lock:
            return tuple(self._fired)

    def describe(self) -> str:
        rules = sorted(
            f"{r.site}@{r.nth}{'+' if r.onwards else ''}"
            + (f":{r.arg:g}" if r.arg else "")
            for site_rules in self._rules.values() for r in site_rules)
        return "faults: " + (", ".join(rules) if rules else "none")


def _parse_rule(chunk: str) -> FaultRule:
    site, _, arg_part = chunk.partition(":")
    site, _, nth_part = site.partition("@")
    site = site.strip()
    if site not in KNOWN_SITES:
        raise FaultSpecError(
            f"unknown fault site {site!r}; known: {', '.join(KNOWN_SITES)}")
    nth, onwards = 1, False
    if nth_part:
        nth_part = nth_part.strip()
        if nth_part.endswith("+"):
            onwards = True
            nth_part = nth_part[:-1]
        try:
            nth = int(nth_part)
        except ValueError:
            raise FaultSpecError(
                f"bad hit count in fault rule {chunk!r}") from None
        if nth < 1:
            raise FaultSpecError(
                f"hit count must be >= 1 in fault rule {chunk!r}")
    arg = 0.0
    if arg_part:
        try:
            arg = float(arg_part)
        except ValueError:
            raise FaultSpecError(
                f"bad argument in fault rule {chunk!r}") from None
        if arg < 0:
            raise FaultSpecError(
                f"argument must be >= 0 in fault rule {chunk!r}")
    return FaultRule(site=site, nth=nth, onwards=onwards, arg=arg)


def from_env(environ: "os._Environ | dict | None" = None) -> FaultInjector:
    """Injector configured by ``REPRO_FAULTS`` (empty when unset).

    Called once per daemon at construction time, so a spec fires on the
    daemon's own deterministic hit counters regardless of how many
    daemons a test spawns.
    """
    env = environ if environ is not None else os.environ
    spec = env.get(ENV_VAR, "")
    if not spec:
        return FaultInjector()
    return FaultInjector.from_spec(spec)
