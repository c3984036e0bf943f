"""Deterministic parallel evaluation of independent analysis units.

:func:`parallel_map` applies a function to independent units and returns
the results **in input order**, so callers aggregate them exactly as a
serial loop would and the mode never changes a single result bit.

Only one caller fans out: the compositional engine's ``incremental=False``
reference sweep hands its segment jobs to :func:`parallel_map` in
whatever mode resolves.

The mode never selects an algorithm.  The default engine runs on its
segment sessions and the GA evaluates its candidates through session
queries, both on the calling thread in every mode, so neither calls this
module.

Execution modes
---------------
``serial``
    Plain loop on the calling thread; always available, always the
    fallback.  The analysis is pure Python and holds the GIL, so a thread
    pool never paid off and there is no thread mode.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Requires picklable
    functions and arguments (no closures); the engine's reference sweep
    submits a top-level worker function with picklable job tuples, so a
    global ``REPRO_PARALLEL=process`` override genuinely runs it
    multi-process.  When a callable cannot be pickled
    the call falls back to ``serial`` instead of crashing.
``auto``
    ``serial``; only an explicit ``process`` starts worker processes.

``REPRO_PARALLEL`` overrides the mode globally (``serial`` / ``process``;
``auto`` and unset leave the caller's mode in charge), which keeps
benchmarks and CI deterministic without plumbing a flag through every call
site.  Any other value raises a :class:`ValueError` naming the allowed
modes.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

_MODES = ("auto", "serial", "process")


def available_workers() -> int:
    """Number of usable CPU cores (at least one)."""
    return max(os.cpu_count() or 1, 1)


def resolve_mode(mode: str = "auto", n_items: int = 2) -> str:
    """Resolve an execution mode to ``serial`` or ``process``.

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
    if override in ("serial", "process"):
        mode = override
    if mode == "auto" or n_items < 2:
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
    if (resolve_mode(mode, len(materialized)) == "process"
            and _picklable(fn)):
        workers = max_workers or min(len(materialized), available_workers())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, materialized))
    return [fn(item) for item in materialized]


def _picklable(fn: Callable) -> bool:
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True
