"""Reporting helpers: paper-shaped tables and series.

The benchmarks regenerate every figure of the paper as text: a curve becomes
a table of (x, y) rows, a Gantt picture becomes ASCII art.  The helpers here
format those tables consistently so benchmark output, example output and
EXPERIMENTS.md all look the same.
"""

from repro.reporting.tables import (
    format_alerts,
    format_loss_curves,
    format_metrics_table,
    format_monitor_status,
    format_sensitivity_table,
    format_session_stats,
    format_table,
    format_trace,
    series_to_rows,
)

__all__ = [
    "format_table",
    "series_to_rows",
    "format_alerts",
    "format_loss_curves",
    "format_metrics_table",
    "format_monitor_status",
    "format_sensitivity_table",
    "format_session_stats",
    "format_trace",
]
