"""Answer checking: every response the benchmark receives is compared with
an independent in-process computation, outside the timed region.

* ``query``: worst cases must equal ``CanBusAnalysis(...).analyze_all()`` of
  the delta-applied configuration, unbounded results mapped to ``None`` the
  way the wire codec sends them;
* ``system_query``: message worst cases and path latencies must equal a
  from-scratch ``CompositionalAnalysis(..., incremental=False).run()`` of
  the edited system plus ``path_latency_all``;
* ``monitor_ingest`` / ``monitor_status``: every chunk report, and the
  state every status read saw, must equal an in-process
  :class:`~repro.monitor.ConformanceMonitor` replay of the same frames.

Each checker returns ``None`` for a match and a one-line description of the
first difference otherwise.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence


def _first_difference(got, want, where: str = "") -> Optional[str]:
    if isinstance(want, Mapping) and isinstance(got, Mapping):
        if set(got) != set(want):
            missing = sorted(set(want) - set(got))[:3]
            extra = sorted(set(got) - set(want))[:3]
            return f"{where or 'answer'}: keys differ (missing {missing}, " \
                   f"unexpected {extra})"
        for key in sorted(want, key=str):
            found = _first_difference(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != expected {len(want)}"
        for index, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{where}[{index}]")
            if found:
                return found
        return None
    if got != want or type(got) is bool and type(want) is not bool:
        return f"{where}: got {got!r}, expected {want!r}"
    return None


def _wire_float(value: float) -> Optional[float]:
    """Non-finite floats travel as ``null`` on the wire."""
    return value if math.isfinite(value) else None


# --------------------------------------------------------------------------- #
# Single-bus what-if queries
# --------------------------------------------------------------------------- #
def bus_reference(config, deltas: Sequence) -> dict[str, Optional[float]]:
    """Worst case per message of a from-scratch analysis (``None``: unbounded)."""
    from repro.analysis.response_time import CanBusAnalysis
    from repro.service.deltas import apply_deltas
    edited = apply_deltas(config, tuple(deltas))
    analysis = CanBusAnalysis(
        kmatrix=edited.kmatrix, bus=edited.bus,
        error_model=edited.error_model,
        assumed_jitter_fraction=edited.assumed_jitter_fraction,
        controllers=edited.controllers, event_models=edited.event_models)
    return {name: result.worst_case if result.bounded else None
            for name, result in analysis.analyze_all().items()}


def check_query(response: Mapping, expected: Mapping) -> Optional[str]:
    """Compare a ``query`` result payload with :func:`bus_reference`."""
    got = {name: entry["worst_case"]
           for name, entry in response["results"].items()}
    return _first_difference(got, dict(expected), "worst_case")


# --------------------------------------------------------------------------- #
# System what-if queries
# --------------------------------------------------------------------------- #
def system_reference(system, deltas: Sequence, paths: Sequence) -> dict:
    """Message worst cases and path latencies of a from-scratch engine run."""
    from repro.core.engine import CompositionalAnalysis
    from repro.core.paths import path_latency_all
    from repro.whatif.system_deltas import apply_system_deltas
    edited = apply_system_deltas(system, tuple(deltas))
    result = CompositionalAnalysis(edited, incremental=False).run()
    return {
        "messages": {name: value.worst_case if value.bounded else None
                     for name, value in result.message_results.items()},
        "paths": [{"path": latency.path.name,
                   "worst_case": _wire_float(latency.worst_case),
                   "best_case": latency.best_case,
                   "per_segment": [[reference, _wire_float(worst)]
                                   for reference, worst
                                   in latency.per_segment]}
                  for latency in path_latency_all(paths, edited, result)],
    }


def check_system_query(response: Mapping, expected: Mapping) -> Optional[str]:
    """Compare a ``system_query`` payload with :func:`system_reference`."""
    got = {
        "messages": {name: entry["worst_case"]
                     for name, entry in response["messages"].items()},
        "paths": [{"path": entry["path"],
                   "worst_case": entry["worst_case"],
                   "best_case": entry["best_case"],
                   "per_segment": entry["per_segment"]}
                  for entry in response.get("paths", ())],
    }
    return _first_difference(got, dict(expected), "system")


# --------------------------------------------------------------------------- #
# Conformance monitoring
# --------------------------------------------------------------------------- #
def _status_state(status: Mapping) -> tuple:
    return (status["frames"], status["violations"], status["refits"])


def monitor_reference(config, chunks: Sequence[Sequence]) -> dict:
    """In-process replay of one monitor pass: ``monitor_start``, then every
    chunk, the last one with ``flush``, as the daemon serves them.

    Returns the JSON report of every ingest request, the final status, and
    every ``(frames, violations, refits)`` state a status read may observe
    (reads see whole chunks: ingest and flush each hold the monitor lock).
    """
    from repro.monitor.conformance import ConformanceMonitor
    from repro.service.session import AnalysisSession
    monitor = ConformanceMonitor(AnalysisSession.from_config(config),
                                 target="reference")
    reports = []
    states = {_status_state(monitor.status())}
    for chunk in chunks:
        report = monitor.ingest(chunk)
        states.add(_status_state(monitor.status()))
        reports.append(report.to_json())
    tail = monitor.flush()
    report.windows_closed += tail.windows_closed
    report.refits += tail.refits
    report.violations.extend(tail.violations)
    report.alerts.extend(tail.alerts)
    reports[-1] = report.to_json()
    status = monitor.status()
    states.add(_status_state(status))
    return {"reports": reports, "status": status, "states": states}


def check_ingest(response: Mapping, expected: Mapping) -> Optional[str]:
    """Compare one ``monitor_ingest`` answer with the reference report."""
    got = {key: response[key] for key in expected if key in response}
    return _first_difference(got, dict(expected), "ingest")


def check_status_read(response: Mapping, states: set) -> Optional[str]:
    """A concurrent ``monitor_status`` must show a state between chunks."""
    state = _status_state(response)
    if state not in states:
        return f"status read saw (frames, violations, refits)={state}, " \
               f"not a state of the reference replay"
    return None


def check_final_status(response: Mapping, expected: Mapping) -> Optional[str]:
    """The end-of-run ``monitor_status`` against the reference replay."""
    keys = ("frames", "violations", "refits", "overrides", "window")
    got = {key: response[key] for key in keys}
    got["messages"] = response["messages"]
    want = {key: expected[key] for key in keys}
    want["messages"] = expected["messages"]
    return _first_difference(got, want, "status")
