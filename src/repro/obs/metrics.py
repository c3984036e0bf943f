"""Dependency-free metrics: counters, gauges and fixed-bucket histograms.

The serving tier needs to answer "is the warm-start path winning?",
"which cache is thrashing?" and "how long does a ``query`` take at p99?"
without a debugger attached.  This module is the substrate: a
:class:`MetricsRegistry` handing out named, optionally labelled metric
instruments that are

- **thread-safe** -- every instrument guards its state with its own
  lock, and the registry itself is locked only on instrument creation
  and snapshot/reset, never on the hot update path;
- **snapshot-able** -- :meth:`MetricsRegistry.snapshot` returns a plain
  nested dict (JSON-ready, suitable for the daemon's ``metrics`` op) and
  :meth:`MetricsRegistry.render_prometheus` emits the text exposition
  format so a scrape endpoint is a one-liner;
- **resettable** -- :meth:`MetricsRegistry.reset` zeroes every
  instrument in place without invalidating handles held by
  instrumented code;
- **always-on-cheap** -- an update is one lock acquire plus an int/float
  add (histograms add a bisect over a dozen bucket bounds).  Hot loops
  never call into the registry per iteration; they publish once per
  solve, request or ingest chunk.

Instruments are keyed by ``(name, sorted(labels))`` so
``registry.counter("daemon_requests_total", op="query")`` always returns
the same object; callers on hot paths should fetch the instrument once
and keep the reference.

The registry is the only record of counts.  A component that reports
its own share of a counter family (a session's ``stats()``, a store's
``stats()``, a monitor's ``status()``) holds a :meth:`Counter.child` of
the family: the child's ``inc`` bumps the family in the same locked
step, so the per-instance count and the family total cannot disagree.
A component built without a registry creates a private one, so no code
path runs without instruments.

Only the stdlib is used; nothing here imports numpy or any other repro
layer, so every layer (including ``analysis/``) may depend on it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "SIZE_BUCKETS",
]

# Upper bounds (inclusive) of the fixed histogram buckets; one implicit
# +inf bucket is appended.  Latency in milliseconds spanning 50 us to
# 10 s, iteration counts spanning single fixed-point rounds to the
# divergence cap, set sizes spanning one message to large batches.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
)
ITERATION_BUCKETS: tuple[float, ...] = (
    1.0,
    2.0,
    3.0,
    5.0,
    8.0,
    13.0,
    21.0,
    34.0,
    55.0,
    89.0,
    144.0,
    377.0,
    1000.0,
    10000.0,
    100000.0,
)
SIZE_BUCKETS: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count.  ``inc`` is thread-safe."""

    __slots__ = ("name", "labels", "_lock", "_value", "_parent")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._parent: Counter | None = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount
            if self._parent is not None:
                self._parent._value += amount

    def child(self) -> Counter:
        """A per-instance share of this counter, outside the registry.

        The child's ``inc`` adds to itself and to this counter under this
        counter's lock, so the family total is always the sum of its
        children's counts (plus any direct ``inc``).  A registry
        ``reset`` zeroes the family, not the children.
        """
        child = Counter(self.name, self.labels)
        child._lock = self._lock
        child._parent = self
        return child

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down (queue depth, inflight count)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-bucket histogram tracking count, sum and per-bucket counts.

    Buckets are inclusive upper bounds; one +inf overflow bucket is
    always present.  ``observe`` costs one lock plus a binary search
    over the (small, fixed) bound list -- cheap enough for per-request
    use, too expensive for per-iteration use (accumulate locally and
    observe totals instead).
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_count", "_sum")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS_MS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict:
        """``{"count", "sum", "buckets": [[upper_bound, count], ...]}``.

        The overflow bucket is reported with ``"+Inf"`` as its bound.
        Bucket counts are per-bucket (not cumulative); the Prometheus
        exposition converts to cumulative form.
        """
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        buckets: list[list] = [[bound, counts[i]] for i, bound in enumerate(self.bounds)]
        buckets.append(["+Inf", counts[-1]])
        return {"count": total, "sum": acc, "buckets": buckets}

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0


class MetricsRegistry:
    """Get-or-create factory and snapshot point for all instruments.

    Components that share a registry publish into the same families, so
    a daemon's single ``metrics`` request sees its whole serving stack;
    each component reads its own share through :meth:`Counter.child`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(f"metric {name!r} already registered as {type(metric).__name__}")
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS_MS,
        **labels: str,
    ) -> Histogram:
        metric = self._get(Histogram, name, labels, buckets=buckets)
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ValueError(f"histogram {name!r} already registered with other buckets")
        return metric

    def _items(self) -> Iterator[tuple[str, object]]:
        with self._lock:
            entries = sorted(self._metrics.items())
        for (name, labels), metric in entries:
            yield name + _label_suffix(labels), metric

    def snapshot(self) -> dict:
        """A JSON-ready nested dict of every instrument's current state.

        ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: {"count", "sum", "buckets"}}}`` with label
        sets rendered into the name (``daemon_op_ms{op="query"}``).
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for full_name, metric in self._items():
            if isinstance(metric, Counter):
                out["counters"][full_name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][full_name] = metric.value
            elif isinstance(metric, Histogram):
                out["histograms"][full_name] = metric.snapshot()
        return out

    def value(self, name: str, **labels: str) -> float | None:
        """The current value of a counter/gauge, or ``None`` if absent."""
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        with self._lock:
            metric = self._metrics.get(key)
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value

    def family(self, name: str, label: str) -> dict[str, float]:
        """Counter/gauge values of one metric name, keyed by ``label``."""
        with self._lock:
            entries = [
                (dict(labels).get(label, ""), metric)
                for (metric_name, labels), metric in self._metrics.items()
                if metric_name == name and not isinstance(metric, Histogram)
            ]
        return {key: metric.value for key, metric in sorted(entries, key=lambda e: e[0])}

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry.

        Histogram buckets are emitted cumulatively with ``le`` labels
        plus ``_count`` and ``_sum`` series, counters as ``counter``,
        gauges as ``gauge``.
        """
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for _, metric in self._items():
            name = metric.name
            suffix = _label_suffix(metric.labels)
            if isinstance(metric, Counter):
                type_line(name, "counter")
                lines.append(f"{name}{suffix} {metric.value:g}")
            elif isinstance(metric, Gauge):
                type_line(name, "gauge")
                lines.append(f"{name}{suffix} {metric.value:g}")
            elif isinstance(metric, Histogram):
                type_line(name, "histogram")
                snap = metric.snapshot()
                base = list(metric.labels)
                cumulative = 0
                for bound, count in snap["buckets"]:
                    cumulative += count
                    le = "+Inf" if bound == "+Inf" else f"{bound:g}"
                    bucket_suffix = _label_suffix(tuple(base + [("le", le)]))
                    lines.append(f"{name}_bucket{bucket_suffix} {cumulative}")
                lines.append(f"{name}_count{suffix} {snap['count']}")
                lines.append(f"{name}_sum{suffix} {snap['sum']:g}")
        return "\n".join(lines) + "\n"
