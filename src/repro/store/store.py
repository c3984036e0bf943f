"""Crash-safe, size-bounded, disk-backed result store.

Layout
------
One JSON file per entry::

    <root>/
      entries/
        bus-<digest>.v2.json     # AnalysisSession fixed points
        system-<digest>.v2.json  # SystemAnalysisResult (the digest
                                 # names the engine's pass order too)

Every file is an envelope ``{"schema": N, "kind": ..., "key": ...,
"payload": ...}`` whose payload is the kind's columnar table set (see
:mod:`repro.store.codec`).  The store owns the codecs: :meth:`ResultStore.put`
takes the result object and :meth:`ResultStore.get` hands one back.  An entry
is written to a unique temp name in the same directory and published with
``os.replace`` -- readers only ever see a complete old entry or a complete
new one, never a torn write, and two daemons sharing one store directory
race benignly (last rename wins; both sides wrote the same canonical fixed
point).  File names carry the schema version, so daemon generations with
different schemas sharing a directory never shadow each other's entries;
the other generation's files only age out through eviction.

Corruption tolerance
--------------------
``get`` never raises on store content.  Unparseable bytes (a torn write that
*bypassed* the rename, disk rot), a foreign envelope, a payload the kind's
decoder rejects, or one covering another message set than the caller
expects are counted as ``corrupt``, quarantined by unlinking (so the next
publish replaces them), and reported as a miss; an envelope with the wrong
``schema`` version is counted as ``stale`` and reported as a miss *without*
deleting it (a newer daemon may own it).  Either way the caller falls back
to a cold solve.

Publish claims
--------------
:meth:`ResultStore.publish` is the serving stack's one publish rule: the
sessions offer every complete fixed point they answer with, and the store
makes one attempt per entry.  A :meth:`~ResultStore.get` hit or the first
publish takes the entry's claim; a failed write keeps it, so a store that
keeps failing costs no encoding per answer.  A claim taken by a hit or a
successful write holds only while the entry's file exists (one ``stat`` per
claimed publish), so a configuration whose entry is gone is published
again, whichever store sharing the directory unlinked it (``clear``,
eviction, a corrupt read).

Eviction
--------
Reads touch the entry's mtime, so mtime order is LRU order.  When
``max_bytes`` is set, a publish that passes the bound trims oldest-read
entries until the store fits; ``compact()`` applies the same policy on
demand.  A publish only rescans the directory when the byte total of the
last scan plus the bytes written since passes the bound, so bytes another
process adds to a shared directory are seen at the next rescan.

Fault injection sites (``REPRO_FAULTS``)
----------------------------------------
``store.torn_write``
    A publish writes only a truncated prefix of the entry bytes *directly
    to the final path*, simulating a crash mid-write without the atomic
    rename.  The next lookup must degrade to a counted miss.
``store.stale_schema``
    A publish stamps ``schema + 1`` on the envelope, simulating an entry
    left behind by a newer daemon.  The next lookup must degrade to a
    counted miss without destroying the entry.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import AbstractSet, Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.server import faults as faults_mod
from repro.store.codec import (
    SCHEMA_VERSION,
    StoreCodecError,
    bus_payload_from_json,
    bus_payload_to_json,
    system_result_from_json,
    system_result_to_json,
)

#: Entry kinds the serving stack persists, each with its (encode, decode)
#: codec pair.
CODECS = {
    "bus": (bus_payload_to_json, bus_payload_from_json),
    "system": (system_result_to_json, system_result_from_json),
}


def _file_name(kind: str, digest: str) -> str:
    return f"{kind}-{digest}.v{SCHEMA_VERSION}.json"


class ResultStore:
    """Fingerprint-keyed persistent cache of converged analysis results.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.
    max_bytes:
        Optional size bound.  ``None`` disables eviction.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` that
        lookups/publishes/evictions/corruption are counted in (default: a
        private one).  :meth:`stats` reads this store's share of it.
    faults:
        Optional :class:`~repro.server.faults.FaultInjector`.  Defaults to
        the ``REPRO_FAULTS`` environment spec, matching the daemon.
    fsync:
        Fsync entry files before renaming them into place.  Off by
        default: the atomic rename already guarantees consistency against
        process crashes, and per-publish fsyncs dominate publish cost;
        turn it on when surviving power loss matters.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        max_bytes: Optional[int] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[faults_mod.FaultInjector] = None,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.fsync = fsync
        self.faults = faults if faults is not None else faults_mod.from_env()
        # Re-entrant: eviction holds it while _quarantine releases claims.
        self._lock = threading.RLock()
        # Byte total of the last scan plus the bytes written since.
        self._written = math.inf
        # File name -> whether its taken publish claim stands on a file this
        # store wrote or read (False: the attempt is running or failed).
        self._claimed: dict[str, bool] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # stats() key -> this store's child of the registry family.
        counter = self.metrics.counter
        self._counters = {
            "hits": counter("store_lookups_total", result="hit").child(),
            "misses": counter("store_lookups_total", result="miss").child(),
            "corrupt": counter("store_lookups_total", result="corrupt").child(),
            "stale": counter("store_lookups_total", result="stale").child(),
            "publishes": counter("store_publishes_total").child(),
            "publish_errors": counter("store_publish_errors_total").child(),
            "evictions": counter("store_evictions_total").child(),
        }
        self._m_bytes = self.metrics.gauge("store_bytes")
        self._m_entries = self.metrics.gauge("store_entries")

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    def _path(self, kind: str, digest: str) -> Path:
        if kind not in CODECS:
            raise ValueError(f"unknown store kind {kind!r}")
        safe = "".join(c for c in digest if c.isalnum() or c in "-_")
        if not safe or safe != digest:
            raise ValueError(f"bad store digest {digest!r}")
        return self.entries_dir / _file_name(kind, digest)

    def contains(self, kind: str, digest: str) -> bool:
        """Cheap existence probe (no counters, no mtime touch)."""
        return self._path(kind, digest).exists()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(
        self, kind: str, digest: str, *, names: Optional[AbstractSet[str]] = None, trace=None
    ) -> Any:
        """Return the decoded entry for ``(kind, digest)`` or ``None``.

        ``bus`` entries decode to ``{name: MessageResponseTime}``, ``system``
        entries to a :class:`~repro.core.results.SystemAnalysisResult`.
        ``names``, when given, is the message set the entry must cover.
        Never raises on store content: torn, foreign, undecodable or stale
        entries are counted and reported as misses so the caller
        cold-solves.  A hit takes the entry's publish claim (see
        :meth:`publish`); ``trace`` (a :class:`repro.obs.Trace`) records
        the lookup as a ``store_lookup`` span.
        """
        started = time.perf_counter()
        try:
            return self._read(kind, digest, names)
        finally:
            if trace is not None:
                trace.record("store_lookup", (time.perf_counter() - started) * 1000.0)

    def _read(self, kind: str, digest: str, names: Optional[AbstractSet[str]]) -> Any:
        path = self._path(kind, digest)
        try:
            data = path.read_bytes()
        except OSError:
            self._counters["misses"].inc()
            return None
        try:
            record = json.loads(data)
        except ValueError:
            return self._corrupt(path)
        if not isinstance(record, dict):
            return self._corrupt(path)
        if record.get("schema") != SCHEMA_VERSION:
            # A different schema version is not damage: another daemon
            # generation may legitimately own this entry.  Miss, keep it.
            self._counters["stale"].inc()
            return None
        payload = record.get("payload")
        if record.get("kind") != kind or record.get("key") != digest or not isinstance(
            payload, dict
        ):
            return self._corrupt(path)
        try:
            value = CODECS[kind][1](payload, names)
        except StoreCodecError:
            return self._corrupt(path)
        try:  # LRU bookkeeping; best-effort (entry may be racing eviction)
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self._claimed[path.name] = True
        self._counters["hits"].inc()
        return value

    # ------------------------------------------------------------------ #
    # Publish
    # ------------------------------------------------------------------ #
    def publish(self, kind: str, digest: str, value: Any) -> None:
        """Persist ``value`` unless this entry's publish claim is taken
        (see "Publish claims" in the module docstring)."""
        name = _file_name(kind, digest)
        with self._lock:
            written = self._claimed.get(name)
            if written is False or (written and self.contains(kind, digest)):
                return
            self._claimed[name] = False
        if self.contains(kind, digest) or self.put(kind, digest, value):
            with self._lock:
                self._claimed[name] = True

    def put(self, kind: str, digest: str, value: Any) -> bool:
        """Atomically persist ``value`` (what :meth:`get` returns for the
        kind); return True on success.

        Never raises: encoding or filesystem failures are counted as
        ``publish_errors`` and reported as False (the store is a cache --
        losing a publish costs a future cold solve, nothing more).
        """
        path = self._path(kind, digest)
        try:
            payload = CODECS[kind][0](value)
            record = {"schema": SCHEMA_VERSION, "kind": kind, "key": digest, "payload": payload}
            rule = self.faults.check("store.stale_schema") if self.faults else None
            if rule is not None:
                record["schema"] = SCHEMA_VERSION + 1
            data = json.dumps(record, separators=(",", ":"), allow_nan=False).encode("ascii")
        except (AttributeError, TypeError, ValueError):
            self._counters["publish_errors"].inc()
            return False
        rule = self.faults.check("store.torn_write") if self.faults else None
        if rule is not None:
            # Simulate a crash mid-write with no atomic rename: leave a
            # truncated entry at the *final* path.
            try:
                with open(path, "wb") as handle:
                    handle.write(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            self._counters["publish_errors"].inc()
            return False
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._counters["publish_errors"].inc()
            return False
        self._counters["publishes"].inc()
        if self.max_bytes is not None:
            with self._lock:
                self._written += len(data)
                fits = self._written <= self.max_bytes
            if not fits:
                self._evict_to(self.max_bytes)
        return True

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Snapshot of counters plus on-disk entry count / byte total."""
        entries, total = self._scan()
        self._publish_gauges(len(entries), total)
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "max_bytes": self.max_bytes,
            "entries": len(entries),
            "bytes": total,
            **{key: int(counter.value) for key, counter in self._counters.items()},
        }

    def compact(self, max_bytes: Optional[int] = None) -> dict:
        """Evict oldest-read entries down to ``max_bytes`` (or the bound)."""
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is not None:
            self._evict_to(limit)
        return self.stats()

    def clear(self) -> int:
        """Remove every entry; return how many were removed."""
        removed = 0
        for path, _size, _mtime in self._scan()[0]:
            if self._quarantine(path):
                removed += 1
        self._publish_gauges(0, 0)
        return removed

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _scan(self) -> "tuple[list[tuple[Path, int, float]], int]":
        entries: "list[tuple[Path, int, float]]" = []
        total = 0
        try:
            names = os.listdir(self.entries_dir)
        except OSError:
            return [], 0
        for name in names:
            if not name.endswith(".json"):
                continue  # temp files and foreign droppings don't count
            path = self.entries_dir / name
            try:
                stat = path.stat()
            except OSError:
                continue  # raced an eviction/clear from another process
            entries.append((path, stat.st_size, stat.st_mtime))
            total += stat.st_size
        return entries, total

    def _evict_to(self, limit: int) -> None:
        with self._lock:
            entries, total = self._scan()
            if total <= limit:
                self._written = total
                self._publish_gauges(len(entries), total)
                return
            entries.sort(key=lambda item: item[2])  # oldest mtime first
            evicted = 0
            for path, size, _mtime in entries:
                if total <= limit:
                    break
                if self._quarantine(path):
                    total -= size
                    evicted += 1
            self._counters["evictions"].inc(evicted)
            self._written = total
            self._publish_gauges(len(entries) - evicted, total)

    def _corrupt(self, path: Path) -> None:
        """Count a damaged entry and unlink it so a publish can replace it."""
        self._quarantine(path)
        self._counters["corrupt"].inc()
        return None

    def _quarantine(self, path: Path) -> bool:
        with self._lock:
            self._claimed.pop(path.name, None)
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def _publish_gauges(self, entries: int, total: int) -> None:
        self._m_bytes.set(total)
        self._m_entries.set(entries)

    def describe(self) -> str:
        """One-line summary for logs."""
        stats = self.stats()
        bound = "unbounded" if self.max_bytes is None else f"{self.max_bytes} B"
        return f"ResultStore({self.root}, {stats['entries']} entries, {stats['bytes']} B, {bound})"
