"""Bit-exact columnar codecs for persisted analysis results.

Persisted entries must reproduce the original dataclasses exactly -- a
store-served answer has to be bit-identical to a cold solve, unbounded
results (``worst_case == inf``) included.  Every collection is therefore
stored as columns rather than as one object per item:

- names once, as a list of strings;
- int and bool fields as JSON lists;
- float fields as one little-endian ``float64`` array per table
  (``dtype="<f8"``, row-major, base64-encoded), so every double -- ``inf``,
  ``nan``, ``-0.0``, subnormals -- round-trips by its bytes and the files
  stay strict JSON without special tokens;
- ragged float lists (``queuing_delays``) flattened into one array beside a
  length column.

A column of the wrong type or length, bad base64, or a byte count that does
not match its table raises :class:`StoreCodecError`; so does any value the
result dataclasses reject.

Two payload kinds exist, matching the two cache layers they warm:

- ``bus``: the converged per-message fixed points of one
  ``AnalysisSession`` configuration (``{name: MessageResponseTime}``),
  keyed by the session fingerprint digest::

      {"messages": <message table>}

- ``system``: a full ``SystemAnalysisResult``, keyed by the
  ``SystemModel.fingerprint()`` digest::

      {"converged": ..., "iterations": ..., "messages": <message table>,
       "tasks": ..., "reports": ..., "send_models": ...,
       "arrival_models": ...}

A message table is ``{"name", "can_id", "instances_analyzed", "bounded",
"times", "queuing_count", "queuing_delays"}`` with ``times`` holding
``(transmission_time, blocking, jitter, worst_case, best_case,
busy_period)`` per message; an event-model table is ``{"name", "model",
"params"}``: a tag column plus a ``(period, jitter, min_distance)`` block.
Both decoders take the message set the caller expects (``names``) and
reject a payload that covers another one.
"""

from __future__ import annotations

import base64
import binascii
from itertools import accumulate
from typing import AbstractSet, Mapping

import numpy as np

from repro.analysis.response_time import MessageResponseTime
from repro.analysis.schedulability import MessageVerdict, SchedulabilityReport
from repro.core.results import SystemAnalysisResult
from repro.ecu.analysis import TaskResponseTime
from repro.events.model import EVENT_MODEL_CLASSES, EVENT_MODEL_TAGS, EventModel

# Bumped whenever the entry envelope or any payload codec changes shape.
# A reader that finds a different version treats the entry as a miss
# (``stale`` counter), never as an error: old daemons can share a store
# directory with new ones and simply re-solve.  Version 2: columnar tables.
SCHEMA_VERSION = 2

_F8 = np.dtype("<f8")


class StoreCodecError(ValueError):
    """A persisted payload does not decode to the expected shape."""


# --------------------------------------------------------------------------- #
# Columns
# --------------------------------------------------------------------------- #
def floats_to_json(values: list[float]) -> str:
    """Encode a flat float list as base64 of its little-endian doubles."""
    return base64.b64encode(np.array(values, dtype=_F8).tobytes()).decode("ascii")


def floats_from_json(text: object, count: int, width: int = 1) -> list:
    """Decode :func:`floats_to_json` output holding ``count`` rows of ``width``.

    Returns a flat list of floats for ``width == 1`` and a list of
    ``width``-long rows otherwise.
    """
    if not isinstance(text, str):
        raise StoreCodecError(f"float column is {type(text).__name__}, not base64")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise StoreCodecError(f"bad float column: {exc}") from exc
    if len(raw) != count * width * _F8.itemsize:
        raise StoreCodecError(
            f"float column holds {len(raw)} bytes, expected {count} x {width} doubles"
        )
    array = np.frombuffer(raw, dtype=_F8)
    return (array if width == 1 else array.reshape(count, width)).tolist()


def _column(table: Mapping, field: str, kind: type, count: int) -> list:
    """One JSON list column of exactly ``count`` values of ``kind``."""
    values = table[field]
    if type(values) is not list or len(values) != count:
        raise StoreCodecError(f"column {field!r} is not a list of {count} values")
    if not set(map(type, values)) <= {kind}:
        raise StoreCodecError(f"column {field!r} holds a non-{kind.__name__} value")
    return values


def _keys(table: Mapping, field: str = "name") -> list[str]:
    """A table's key column: distinct strings, one per row."""
    keys = table[field]
    if type(keys) is not list:
        raise StoreCodecError(f"column {field!r} is not a list")
    _column(table, field, str, len(keys))
    if len(set(keys)) != len(keys):
        raise StoreCodecError(f"column {field!r} repeats a key")
    return keys


def _offsets(table: Mapping, field: str, count: int) -> list[int]:
    """Running end offsets of a ragged table's length column."""
    lengths = _column(table, field, int, count)
    if any(length < 0 for length in lengths):
        raise StoreCodecError(f"column {field!r} holds a negative length")
    return list(accumulate(lengths))


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def _messages_to_json(results: Mapping[str, MessageResponseTime]) -> dict:
    times: list[float] = []
    delays: list[float] = []
    for name, r in results.items():
        if r.name != name:
            raise StoreCodecError(f"result {r.name!r} stored under {name!r}")
        times += (r.transmission_time, r.blocking, r.jitter)
        times += (r.worst_case, r.best_case, r.busy_period)
        delays += r.queuing_delays
    values = results.values()
    return {
        "name": list(results),
        "can_id": [r.can_id for r in values],
        "instances_analyzed": [r.instances_analyzed for r in values],
        "bounded": [r.bounded for r in values],
        "times": floats_to_json(times),
        "queuing_count": [len(r.queuing_delays) for r in values],
        "queuing_delays": floats_to_json(delays),
    }


def _messages_from_json(
    table: Mapping, names: AbstractSet[str] | None
) -> dict[str, MessageResponseTime]:
    order = _keys(table)
    if names is not None and set(order) != names:
        raise StoreCodecError("entry covers another message set")
    count = len(order)
    can_ids = _column(table, "can_id", int, count)
    instances = _column(table, "instances_analyzed", int, count)
    bounded = _column(table, "bounded", bool, count)
    times = floats_from_json(table["times"], count, 6)
    ends = _offsets(table, "queuing_count", count)
    delays = floats_from_json(table["queuing_delays"], ends[-1] if ends else 0)
    return {
        name: MessageResponseTime(name, can_id, *row, inst, ok, tuple(delays[start:end]))
        for name, can_id, row, inst, ok, start, end in zip(
            order, can_ids, times, instances, bounded, [0, *ends], ends
        )
    }


def _tasks_to_json(results: Mapping[str, TaskResponseTime]) -> dict:
    values = results.values()
    times: list[float] = []
    for r in values:
        times += (r.worst_case, r.best_case, r.blocking, r.busy_period)
    return {
        "key": list(results),
        "name": [r.name for r in values],
        "instances_analyzed": [r.instances_analyzed for r in values],
        "bounded": [r.bounded for r in values],
        "times": floats_to_json(times),
    }


def _tasks_from_json(table: Mapping) -> dict[str, TaskResponseTime]:
    keys = _keys(table, "key")
    count = len(keys)
    names = _column(table, "name", str, count)
    instances = _column(table, "instances_analyzed", int, count)
    bounded = _column(table, "bounded", bool, count)
    times = floats_from_json(table["times"], count, 4)
    return {
        key: TaskResponseTime(name, *row, inst, ok)
        for key, name, row, inst, ok in zip(keys, names, times, instances, bounded)
    }


def _reports_to_json(reports: Mapping[str, SchedulabilityReport]) -> dict:
    verdicts = [v for report in reports.values() for v in report.verdicts]
    times: list[float] = []
    for v in verdicts:
        times += (v.worst_case_response, v.deadline, v.slack)
    values = reports.values()
    return {
        "name": list(reports),
        "deadline_policy": [r.deadline_policy for r in values],
        "utilization": floats_to_json([r.utilization for r in values]),
        "verdict_count": [len(r.verdicts) for r in values],
        "verdicts": {
            "name": [v.name for v in verdicts],
            "can_id": [v.can_id for v in verdicts],
            "meets_deadline": [v.meets_deadline for v in verdicts],
            "can_be_lost": [v.can_be_lost for v in verdicts],
            "times": floats_to_json(times),
        },
    }


def _reports_from_json(table: Mapping) -> dict[str, SchedulabilityReport]:
    buses = _keys(table)
    count = len(buses)
    policies = _column(table, "deadline_policy", str, count)
    utilization = floats_from_json(table["utilization"], count)
    ends = _offsets(table, "verdict_count", count)
    rows = table["verdicts"]
    total = ends[-1] if ends else 0
    names = _column(rows, "name", str, total)
    can_ids = _column(rows, "can_id", int, total)
    meets = _column(rows, "meets_deadline", bool, total)
    lossy = _column(rows, "can_be_lost", bool, total)
    times = floats_from_json(rows["times"], total, 3)
    verdicts = [
        MessageVerdict(name, can_id, *row, meet, lost)
        for name, can_id, row, meet, lost in zip(names, can_ids, times, meets, lossy)
    ]
    return {
        bus: SchedulabilityReport(tuple(verdicts[start:end]), policy, util)
        for bus, policy, util, start, end in zip(buses, policies, utilization, [0, *ends], ends)
    }


def _models_to_json(models: Mapping[str, EventModel]) -> dict:
    tags: list[str] = []
    params: list[float] = []
    for model in models.values():
        tag = EVENT_MODEL_TAGS.get(type(model))
        if tag is None:
            raise StoreCodecError(f"cannot store event model type {type(model).__name__}")
        tags.append(tag)
        params += (model.period, model.jitter, model.min_distance)
    return {"name": list(models), "model": tags, "params": floats_to_json(params)}


def _models_from_json(table: Mapping) -> dict[str, EventModel]:
    names = _keys(table)
    count = len(names)
    tags = _column(table, "model", str, count)
    params = floats_from_json(table["params"], count, 3)
    return {name: EVENT_MODEL_CLASSES[tag](*row) for name, tag, row in zip(names, tags, params)}


# --------------------------------------------------------------------------- #
# Payloads
# --------------------------------------------------------------------------- #
def bus_payload_to_json(results: Mapping[str, MessageResponseTime]) -> dict:
    """Encode an ``AnalysisSession``'s converged fixed points."""
    return {"messages": _messages_to_json(results)}


def bus_payload_from_json(
    data: Mapping, names: AbstractSet[str] | None = None
) -> dict[str, MessageResponseTime]:
    """Decode :func:`bus_payload_to_json` output to ``{name: result}``.

    ``names``, when given, is the message set the payload must cover.
    """
    try:
        return _messages_from_json(data["messages"], names)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCodecError(f"bad bus payload: {exc!r}") from exc


def system_result_to_json(result: SystemAnalysisResult) -> dict:
    """Encode a full :class:`SystemAnalysisResult`, losslessly."""
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "messages": _messages_to_json(result.message_results),
        "tasks": _tasks_to_json(result.task_results),
        "reports": _reports_to_json(result.bus_reports),
        "send_models": _models_to_json(result.send_models),
        "arrival_models": _models_to_json(result.arrival_models),
    }


def system_result_from_json(
    data: Mapping, names: AbstractSet[str] | None = None
) -> SystemAnalysisResult:
    """Decode :func:`system_result_to_json` output.

    ``names``, when given, is the message set the payload must cover.
    """
    try:
        converged, iterations = data["converged"], data["iterations"]
        if type(converged) is not bool or type(iterations) is not int:
            raise StoreCodecError("bad converged/iterations fields")
        return SystemAnalysisResult(
            converged=converged,
            iterations=iterations,
            message_results=_messages_from_json(data["messages"], names),
            task_results=_tasks_from_json(data["tasks"]),
            bus_reports=_reports_from_json(data["reports"]),
            send_models=_models_from_json(data["send_models"]),
            arrival_models=_models_from_json(data["arrival_models"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCodecError(f"bad system payload: {exc!r}") from exc
