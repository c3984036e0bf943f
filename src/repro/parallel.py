"""Deterministic parallel evaluation of independent analysis units.

The analysis decomposes into units that share no state: bus segments inside
one global iteration, GA candidates inside one generation, scenario jobs of
a batch.  :func:`parallel_map` evaluates such units concurrently while
guaranteeing that results come back **in input order** -- callers aggregate
them exactly as a serial loop would, so parallelism never changes a single
result bit.

Who still fans out, and when:

* :meth:`repro.service.batch.BatchRunner.run` hands its jobs to whatever
  mode it resolves;
* the compositional engine's ``incremental=False`` reference sweep and the
  GA's population evaluation fan out only under ``process``.  Every other
  mode runs their units in order on the calling thread: the units are pure
  Python and hold the GIL, so a thread pool only added contention (about
  twice the time per system what-if, measured in :mod:`repro.core.engine`).

The mode never selects an algorithm.  The default engine runs on its
segment sessions on the calling thread in every mode, so it never calls
this module.

Execution modes
---------------
``serial``
    Plain loop; always available, always the fallback.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The analysis is pure
    Python, so threads only pay off when the work releases the GIL (numpy
    batches, I/O); that is why the engine and the GA ignore this mode
    (see above).
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Requires picklable
    functions and arguments (no closures); the engine's reference sweep,
    the GA's population evaluation and the service batch runner all submit
    top-level worker functions with picklable job tuples, so a global
    ``REPRO_PARALLEL=process`` override genuinely runs them multi-process.
    When a callable cannot be pickled the call still degrades to ``thread``
    instead of crashing.
``auto``
    ``serial`` when the machine has one usable core, the item count is
    smaller than two, or the environment variable ``REPRO_PARALLEL`` is set
    to ``serial``; ``thread`` otherwise.

``REPRO_PARALLEL`` overrides the mode globally (``serial`` / ``thread`` /
``process``; ``auto`` and unset leave the caller's mode in charge), which
keeps benchmarks and CI deterministic without plumbing a flag through every
call site.  Any other value raises a :class:`ValueError` naming the allowed
modes.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

_MODES = ("auto", "serial", "thread", "process")


def available_workers() -> int:
    """Number of usable CPU cores (at least one)."""
    return max(os.cpu_count() or 1, 1)


def resolve_mode(mode: str = "auto", n_items: int = 2) -> str:
    """Resolve an execution mode to ``serial``/``thread``/``process``.

    A set but invalid ``REPRO_PARALLEL`` raises immediately instead of
    silently falling through to the caller's mode: a typo like
    ``REPRO_PARALLEL=processes`` in CI would otherwise just quietly
    benchmark the wrong executor.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown parallel mode {mode!r}; expected {_MODES}")
    override = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if override and override not in _MODES:
        raise ValueError(
            f"invalid REPRO_PARALLEL={override!r}; allowed modes are "
            f"{', '.join(_MODES)} (or unset, which means auto)")
    if override in ("serial", "thread", "process"):
        mode = override
    if mode == "auto":
        mode = "thread" if available_workers() > 1 and n_items > 1 else "serial"
    if mode != "serial" and n_items < 2:
        mode = "serial"
    return mode


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    mode: str = "auto",
    max_workers: int | None = None,
) -> list[_R]:
    """Apply ``fn`` to every item, returning results in input order.

    Exceptions propagate exactly as in a serial loop: the first failing item
    (in input order) raises.  ``max_workers`` caps the pool size; by default
    the pool matches ``min(len(items), available_workers())``.
    """
    materialized: Sequence[_T] = list(items)
    resolved = resolve_mode(mode, len(materialized))
    if resolved == "serial":
        return [fn(item) for item in materialized]
    if resolved == "process":
        try:
            pickle.dumps(fn)
        except (pickle.PicklingError, AttributeError, TypeError):
            resolved = "thread"
    workers = max_workers or min(len(materialized), available_workers())
    executor_cls = (ThreadPoolExecutor if resolved == "thread"
                    else ProcessPoolExecutor)
    with executor_cls(max_workers=workers) as pool:
        return list(pool.map(fn, materialized))
