"""Disk-backed persistent result store.

The serving stack's caches -- session fixed points, system-session results,
pool shards -- all die with the process.  This package persists converged
results on disk, keyed by the same deterministic fingerprints the in-memory
caches already use, so a daemon restart warm-starts from the prior fleet's
converged state and identical configurations registered by different clients
dedupe globally.

Design points (see ``store.py`` and ``codec.py`` for details):

- one JSON file per entry under ``<root>/entries/``, written atomically
  (tmp file + ``os.replace``); numpy is the only dependency;
- versioned on-disk schema: every entry carries ``schema``/``kind``/``key``
  envelope fields, and anything that fails to decode -- torn write, stale
  schema, foreign file, a payload the kind's codec rejects -- is a *miss*,
  never an exception;
- columnar, bit-exact payloads (schema 2): names once, int and bool
  columns as lists, every float of a table in one little-endian
  ``float64`` array, so a store-served answer is bit-identical to a cold
  solve, the non-finite worst cases of unbounded results included;
- the store owns the codecs: ``put`` takes a result object and ``get``
  returns one, so a payload is only a hit once it decoded;
- LRU / size-bounded: reads touch the entry mtime, and ``max_bytes``
  evicts oldest-read entries first.

Bus entries are written by per-bus client queries; a system query persists
one ``system`` entry and no entry for the compositional engine's
intermediate segment configurations.
"""

from repro.store.codec import (
    SCHEMA_VERSION,
    bus_payload_from_json,
    bus_payload_to_json,
    system_result_from_json,
    system_result_to_json,
)
from repro.store.store import ResultStore

__all__ = [
    "ResultStore",
    "SCHEMA_VERSION",
    "bus_payload_to_json",
    "bus_payload_from_json",
    "system_result_to_json",
    "system_result_from_json",
]
