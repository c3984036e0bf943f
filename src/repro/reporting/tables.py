"""Plain-text table formatting used by benchmarks and examples.

A what-if scenario run renders through :func:`format_table` with the
columns of its step results (``QueryResult.TABLE_HEADERS`` /
``SystemQueryResult.TABLE_HEADERS``); the daemon clients render path
latency tables from wire rows through :func:`format_path_latency_table`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a simple fixed-width table.

    Numbers are formatted with three decimals, percentages (floats in 0..1
    when the header ends in ``%``) are scaled, everything else is ``str()``.
    """
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered: list[str] = []
        for header, cell in zip(headers, row):
            if isinstance(cell, float):
                if header.strip().endswith("%"):
                    rendered.append(f"{cell * 100:.1f}")
                else:
                    rendered.append(f"{cell:.3f}")
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def series_to_rows(series: Mapping[str, Sequence[tuple[float, float]]],
                   ) -> list[list[object]]:
    """Merge named (x, y) series into rows sharing the x column.

    All series must be sampled at the same x values (the benchmarks sweep a
    common jitter axis), which is validated.
    """
    names = list(series)
    if not names:
        return []
    xs = [x for x, _ in series[names[0]]]
    for name in names[1:]:
        other_xs = [x for x, _ in series[name]]
        if other_xs != xs:
            raise ValueError(f"series {name!r} is sampled at different x values")
    rows: list[list[object]] = []
    for index, x in enumerate(xs):
        row: list[object] = [x]
        for name in names:
            row.append(series[name][index][1])
        rows.append(row)
    return rows


def format_loss_curves(series: Mapping[str, Sequence[tuple[float, float]]],
                       title: str = "Message loss vs. jitter") -> str:
    """Figure-5 style table: jitter fraction column plus one loss column per curve."""
    headers = ["jitter %"] + [f"{name} %" for name in series]
    rows = series_to_rows(series)
    # The x column is also a fraction: scale it like the loss columns.
    return format_table(headers, rows, title=title)


def format_sensitivity_table(curves: Mapping[str, Sequence[tuple[float, float]]],
                             title: str = "Response time vs. jitter") -> str:
    """Figure-4 style table: jitter fraction column plus response-time columns."""
    headers = ["jitter %"] + [f"{name} [ms]" for name in curves]
    rows = series_to_rows(curves)
    return format_table(headers, rows, title=title)


def format_path_latency_table(latencies: Iterable[object],
                              title: str | None = "End-to-end path latency",
                              ) -> str:
    """Per-path latency table (the system what-if layer's path queries).

    ``latencies`` is an iterable of :class:`repro.core.paths.PathLatency`
    (or anything exposing the same ``as_row``, or plain rows in that
    shape, as the clients build from a ``system_query`` response);
    columns are the worst and best case, the end-to-end jitter bound, and
    the hop count.  Unbounded paths render as ``unbounded`` rather than
    ``inf``.
    """
    headers = ["path", "worst [ms]", "best [ms]", "jitter [ms]", "hops"]
    rows = [entry.as_row() if hasattr(entry, "as_row") else list(entry)
            for entry in latencies]
    return format_table(headers, rows, title=title)


def format_metrics_table(snapshot: Mapping[str, Mapping[str, object]],
                         title: str | None = None) -> str:
    """Render a :meth:`repro.obs.metrics.MetricsRegistry.snapshot`.

    Counters and gauges share one name/value table; histograms get a
    second table with their count, sum and mean (the full per-bucket
    breakdown stays in the structured snapshot / Prometheus rendering,
    where tooling can consume it).
    """
    scalar_rows: list[list[object]] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        scalar_rows.append([name, "counter", value])
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        scalar_rows.append([name, "gauge", value])
    parts: list[str] = []
    if scalar_rows:
        parts.append(format_table(["metric", "kind", "value"],
                                  scalar_rows, title=title))
        title = None
    histogram_rows: list[list[object]] = []
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        count = data["count"]
        total = data["sum"]
        mean = total / count if count else 0.0
        histogram_rows.append([name, count, float(total), mean])
    if histogram_rows:
        parts.append(format_table(["histogram", "count", "sum", "mean"],
                                  histogram_rows, title=title))
    if not parts:
        return title or "(no metrics recorded)"
    return "\n\n".join(parts)


def format_trace(trace: Mapping[str, object],
                 title: str | None = None) -> str:
    """Render one trace (``Trace.to_json`` output) as an indented tree.

    The root line carries the trace id, op and total duration; each span
    line shows its start offset and duration, children indented under
    their parent.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"trace {trace.get('trace_id')}  op={trace.get('op')}"
        f"  target={trace.get('target')}"
        f"  total={float(trace.get('duration_ms', 0.0)):.3f} ms")

    def _walk(span: Mapping[str, object], depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{span.get('name')}"
            f"  +{float(span.get('start_ms', 0.0)):.3f} ms"
            f"  {float(span.get('duration_ms', 0.0)):.3f} ms")
        for child in span.get("children", ()):  # type: ignore[union-attr]
            _walk(child, depth + 1)

    for span in trace.get("spans", ()):  # type: ignore[union-attr]
        _walk(span, 1)
    return "\n".join(lines)


def format_monitor_status(status: Mapping[str, object],
                          title: str | None = None) -> str:
    """Render a conformance monitor's ``status()`` snapshot.

    One header line with the stream-level counters, then one row per
    registered message: current analytic bound, policy deadline, observed
    maximum (blank until the message completed at least once), frame and
    violation counts, and the registered vs fitted jitter (the latter
    blank while the observed arrival envelope still fits the registered
    event model).
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    overrides = status.get("overrides") or []
    lines.append(
        f"monitor {status.get('target')}: window {status.get('window')} "
        f"({float(status.get('window_ms', 0.0)):g} ms), "
        f"{status.get('frames')} frames, "
        f"{status.get('violations')} violation(s), "
        f"{status.get('refits')} refit(s), "
        f"{len(overrides)} override(s)")
    for alert in status.get("active_alerts", ()):
        lines.append(
            f"  ALERT {alert.get('rule')}"
            f" [{alert.get('subject') or 'global'}]")
    rows: list[list[object]] = []
    messages = status.get("messages", {})
    for name in sorted(messages):
        entry = messages[name]
        bound = entry.get("bound")
        observed = entry.get("observed_max")
        fitted = entry.get("fitted_jitter")
        rows.append([
            name,
            float(bound) if bound is not None else "unbounded",
            float(entry.get("deadline", 0.0)),
            float(observed) if observed is not None else "",
            entry.get("frames", 0),
            entry.get("violations", 0),
            float(entry.get("registered_jitter", 0.0)),
            float(fitted) if fitted is not None else "",
        ])
    table = format_table(
        ["message", "bound ms", "deadline ms", "observed max",
         "frames", "violations", "reg jitter", "fitted jitter"],
        rows)
    return "\n".join(lines) + "\n" + table


def format_alerts(alerts: Mapping[str, object],
                  title: str | None = None) -> str:
    """Render a ``monitor_alerts`` payload: fired log plus active set."""
    fired = alerts.get("fired", ())
    rows = [[alert.get("rule"), alert.get("subject") or "global",
             alert.get("window"), float(alert.get("value", 0.0)),
             float(alert.get("threshold", 0.0)), alert.get("expr")]
            for alert in fired]
    table = format_table(
        ["rule", "subject", "window", "value", "threshold", "expr"],
        rows, title=title)
    active = alerts.get("active", ())
    if active:
        names = ", ".join(
            f"{entry.get('rule')}[{entry.get('subject') or 'global'}]"
            for entry in active)
        return f"{table}\nactive: {names}"
    return f"{table}\nactive: none"


def format_session_stats(stats: Iterable[object],
                         title: str | None = "Session statistics") -> str:
    """Per-session cache statistics table (the daemon's stats endpoint).

    ``stats`` is an iterable of
    :class:`repro.service.session.SessionStats` (or anything exposing the
    same ``as_row``); columns are the cached-configuration count, query and
    cache-hit/miss totals, evictions, and the aggregated per-message plan
    counts (reused / warm-started / cold).
    """
    headers = ["session", "configs", "queries", "hits", "misses",
               "evicted", "reused", "warm", "cold"]
    rows = [entry.as_row() if hasattr(entry, "as_row") else list(entry)
            for entry in stats]
    return format_table(headers, rows, title=title)
