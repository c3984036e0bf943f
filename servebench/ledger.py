"""Span recording and the per-layer ledger of the traced run.

The traced run times calls into each layer's public functions from outside
the program: :meth:`SpanRecorder.wrap` replaces a module or class attribute
with a timing wrapper, so every caller that looks the attribute up at call
time records a span.  A span is ``(name, start, end, parent, request,
meta)``:

* ``start``/``end`` are ``time.perf_counter()`` seconds.  On Linux that is
  ``CLOCK_MONOTONIC``, shared by every process of the machine, so spans of
  the daemon and of the load generator sit on one time axis;
* ``parent`` is the index of the enclosing span on the same thread (or the
  span that handed work to a pool thread, see :meth:`SpanRecorder.bind`);
* ``request`` groups the spans of one request: a span named in
  ``request_starts`` opens a new request on its thread, and every later span
  of that thread belongs to it until the next one;
* ``meta`` is a small per-span value (the op of a handled request, the byte
  length of an encoded line).

Spans stay in memory; :meth:`SpanRecorder.to_json` serialises them once,
when the traced process ends.  A span's *self time* is its duration minus
the part of its interval that its children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Iterable, Mapping, Optional, Sequence

NAME, START, END, PARENT, REQUEST, META = range(6)


class SpanRecorder:
    """In-memory span store with timing wrappers and context propagation."""

    def __init__(self, request_starts: Iterable[str] = ()) -> None:
        self.spans: list[list] = []
        self.request_starts = frozenset(request_starts)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _context(self) -> tuple[Optional[int], Optional[int]]:
        stack = getattr(self._local, "stack", None)
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        return parent, getattr(self._local, "request", None)

    def open(self, name: str) -> int:
        """Start a span on this thread; returns its index."""
        parent, request = self._context()
        if name in self.request_starts:
            request = next(self._requests)
            self._local.request = request
        record = [name, time.perf_counter(), None, parent, request, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one on this thread)."""
        self.spans[index][END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, owner, attr: str, name: str,
             meta: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``meta(args, kwargs, result)`` (optional) computes the span's meta
        value after the call returns and the span has closed, so its cost
        is not timed.  :meth:`uninstall` restores every wrapped attribute.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if meta is not None:
                recorder.spans[index][META] = meta(args, kwargs, result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def bind(self, fn: Callable) -> Callable:
        """``fn`` running under this thread's current span and request.

        For work handed to a pool thread: spans the pool thread records
        become children of the span that submitted the work.
        """
        parent, request = self._context()
        local = self._local

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            saved = (getattr(local, "root", None),
                     getattr(local, "request", None),
                     getattr(local, "stack", None))
            local.root, local.request, local.stack = parent, request, []
            try:
                return fn(*args, **kwargs)
            finally:
                local.root, local.request, local.stack = saved

        return bound

    def uninstall(self) -> None:
        """Restore every attribute :meth:`wrap` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[list]:
        """Every span as a JSON-ready list (list index = span id).

        A span still open (a request in flight when the process ended) is
        closed at the time of the call.
        """
        now = time.perf_counter()
        with self._lock:
            return [record[:END] + [now if record[END] is None
                                    else record[END]] + record[END + 1:]
                    for record in self.spans]


# --------------------------------------------------------------------------- #
# Analysis of recorded spans
# --------------------------------------------------------------------------- #
def covered(intervals: Iterable[tuple[float, float]],
            lower: float, upper: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lower, upper]``."""
    total = 0.0
    reach = lower
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, upper)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: Sequence[Sequence]) -> list[list[int]]:
    """Child indices of every span."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent is not None and 0 <= parent < len(spans):
            children[parent].append(index)
    return children


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part its children cover (seconds)."""
    children = children_of(spans)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        inner = covered(((spans[c][START], spans[c][END])
                         for c in children[index]), start, end)
        result.append((end - start) - inner)
    return result


def descendants(root: int, children: Sequence[Sequence[int]]) -> list[int]:
    """Indices of every span below ``root`` (depth first)."""
    found: list[int] = []
    pending = list(children[root])
    while pending:
        index = pending.pop()
        found.append(index)
        pending.extend(children[index])
    return found


class RequestLedger:
    """Per-request time by span name, for requests whose root matches.

    ``roots`` are the spans that represent whole requests (for example the
    daemon's ``handle`` spans of one op inside the timed region).  For each
    root the ledger sums, per span name, the *outermost* inclusive time
    (a span nested inside one of the same name is not counted twice), the
    self time and the call count over the root, its descendants, and the
    spans of the same request recorded outside the root on its thread
    (the transport's line decode and encode).
    """

    def __init__(self, spans: Sequence[Sequence], roots: Sequence[int]):
        self.requests = len(roots)
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.meta: dict[str, float] = {}
        children = children_of(spans)
        selfs = self_times(spans)
        by_request: dict[object, list[int]] = {}
        for index, span in enumerate(spans):
            if span[PARENT] is None and span[REQUEST] is not None:
                by_request.setdefault(span[REQUEST], []).append(index)
        for root in roots:
            members = set(descendants(root, children))
            members.add(root)
            members.update(by_request.get(spans[root][REQUEST], ()))
            for index in members:
                self._add(spans, index, members, selfs)

    def _add(self, spans, index, members, selfs) -> None:
        span = spans[index]
        name = span[NAME]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + selfs[index]
        if isinstance(span[META], (int, float)) \
                and not isinstance(span[META], bool):
            self.meta[name] = self.meta.get(name, 0.0) + span[META]
        parent = span[PARENT]
        while parent is not None and parent in members:
            if spans[parent][NAME] == name:
                return  # nested in a span of the same name: counted there
            parent = spans[parent][PARENT]
        self.inclusive[name] = self.inclusive.get(name, 0.0) + \
            (span[END] - span[START])

    def per_request_ms(self, name: str, kind: str = "inclusive") -> float:
        """Milliseconds per request spent in ``name`` (0 when absent)."""
        table = self.inclusive if kind == "inclusive" else self.self_time
        if not self.requests:
            return 0.0
        return table.get(name, 0.0) * 1000.0 / self.requests

    def per_request(self, name: str, table: Mapping) -> float:
        """Per-request average of a count or meta table entry."""
        if not self.requests:
            return 0.0
        return table.get(name, 0) / self.requests


def roots_in_window(spans: Sequence[Sequence], name: str, op: str,
                    lower: float, upper: float) -> list[int]:
    """Spans named ``name`` with meta ``op`` that start in the window."""
    return [index for index, span in enumerate(spans)
            if span[NAME] == name and span[META] == op
            and lower <= span[START] <= upper]
