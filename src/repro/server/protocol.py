"""Line-delimited JSON protocol of the analysis daemon.

One request or response is one JSON object on one line (``\\n`` terminated,
UTF-8) -- the framing oq-engine's dbserver and most job-queue daemons use:
trivially debuggable with ``nc``, trivially proxied, and streamable over any
byte pipe.  The same codec backs the TCP transport and the in-process
client, so a request tested in-process is byte-for-byte the request that
goes over a socket.

Floats survive the protocol **exactly**: ``json`` serialises them via
``repr``, which round-trips every finite IEEE-754 double, so a response-time
read from the daemon bit-matches the kernel's local result.  The tests rely
on this.

Requests are ``{"op": <name>, ...params}``; responses are
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": <message>,
"code": <error code>}``.  An optional ``"id"`` field is echoed verbatim so
pipelining clients can match responses to requests -- and clients *verify*
the echo: a response whose ``id`` does not match the outstanding request is
a protocol violation (a desynchronised connection), never silently
accepted.  Every request additionally accepts an optional ``deadline_ms``
(float, milliseconds): the daemon arms a
:class:`~repro.cancel.CancelToken` with it and aborts the request's
fixed-point loops when it expires.  Every op's parameters are declared
once, in :data:`OPS`.

Error taxonomy
--------------
Failed responses carry a machine-readable ``code`` so clients can decide
to retry, back off, or give up without parsing prose:

``timeout``
    The request's ``deadline_ms`` expired mid-analysis (the typed outcome
    of a divergent or oversized fixed point).  Safe to retry with a larger
    deadline; the partial work left no state behind.
``overloaded``
    Admission control rejected the request -- the daemon's in-flight
    bound (``max_inflight``) is full.  The response carries
    ``retry_after_ms``, a backoff hint scaled to the in-flight count.
    Always safe to retry: the request was never executed.
``draining``
    The daemon is shutting down (or drained this request mid-flight
    after its grace window).  Not retryable on the same connection;
    clients should fail over.
``unknown_target``
    The named target/system is not registered (a typo, or a registration
    raced a query).
``protocol``
    A request :data:`OPS` rejects (a missing, undeclared, wrong-kind or
    out-of-range parameter) or a malformed protocol object.
``invalid``
    An unknown op, or values :data:`OPS` accepts but a decoder or domain
    object rejects (unknown message names, negative periods).
``internal``
    Unexpected server-side failure; the connection stays usable.

Retry guidance: ``overloaded`` is retryable for *any* op (nothing ran);
``timeout``/``internal`` are retryable for read-only queries, which are
idempotent by construction (registration is the only mutating op, and even
it is idempotent for identical payloads).

Typed values (deltas, event models, error models, CAN messages) are tagged
objects, e.g. ``{"delta": "jitter", "message_name": "M12", "jitter": 0.4}``.
Unknown tags raise :class:`ProtocolError` -- the daemon never guesses.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Optional, Sequence

from repro.can.bus import CanBus
from repro.can.controller import CanControllerType, ControllerModel
from repro.can.frame import CanFrameFormat
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.core.paths import EndToEndPath, PathLatency
from repro.core.system import BusSegment, SystemModel
from repro.ecu.task import (
    EcuModel,
    OsekOverheads,
    Task,
    TaskKind,
    TimeTable,
    TimeTableEntry,
)
from repro.gateway.model import ForwardingPolicy, GatewayModel, GatewayRoute
from repro.errors.models import (
    BurstErrorModel,
    CompositeErrorModel,
    ErrorModel,
    NoErrors,
    SporadicErrorModel,
)
from repro.events.model import (
    EVENT_MODEL_CLASSES,
    EVENT_MODEL_TAGS,
    EventModel,
)
from repro.monitor.rules import AlertRule
from repro.monitor.stream import FrameBatch, ObservedFrame
from repro.service.deltas import (
    AddMessageDelta,
    BusConfiguration,
    BusDelta,
    DeadlinePolicyDelta,
    Delta,
    ErrorModelDelta,
    EventModelDelta,
    JitterDelta,
    PriorityDelta,
    RemoveMessageDelta,
)
from repro.whatif.system_deltas import (
    AddGatewayRouteDelta,
    BusSpeedDelta,
    EcuTaskDelta,
    GatewayConfigDelta,
    MoveMessageDelta,
    RemoveGatewayRouteDelta,
    SegmentConfigDelta,
    SystemDelta,
)

#: Protocol revision, reported by the ``health`` endpoint; bump on any
#: incompatible wire change.  Version 2 added the system-level layer:
#: ``register``, ``system_query``, ``system_scenario`` and ``path_latency``
#: requests, with full topology (system model), system-delta and
#: end-to-end-path codecs.  Version 3 added the fault-tolerance layer:
#: ``deadline_ms`` on every request, typed error ``code`` fields (see the
#: module docstring's taxonomy), ``retry_after_ms`` backoff hints on
#: ``overloaded`` rejections, and drain observability in
#: ``health``/``stats``.  Version 4 added the observability layer: every
#: request accepts ``trace: true`` (inline span tree in the response)
#: and an optional client-supplied ``trace_id`` (echoed back), plus the
#: ``metrics`` (structured registry snapshot, optional Prometheus text
#: exposition) and ``traces`` (slowest retained traces) control ops and
#: metrics-derived ``signals``/``causes`` in ``health``.  Version 5 added
#: the persistence layer: the ``store`` control op (``action``:
#: ``stats``/``compact``/``clear``) over the daemon's disk-backed result
#: store, and a third ``register`` payload -- ``workload``: ``{"generator":
#: <name>, "params": {...}}`` -- that the daemon expands server-side via
#: the named workload registry (identical parameters dedupe by fingerprint
#: into the same sessions and store entries, so clients ship kilobytes of
#: parameters instead of full topologies).  Version 6 added the conformance
#: monitoring layer: the ``monitor_start`` / ``monitor_ingest`` /
#: ``monitor_status`` / ``monitor_alerts`` / ``monitor_stop`` ops (observed
#: frame streams replayed in chunks against a registered target's analytic
#: bounds, with declarative alert rules), compact frame arrays
#: (``[message, queued_at, finished_at, success, attempt]``), alert-rule
#: objects (structured fields or one-line ``expr`` syntax), and a
#: ``history`` parameter on ``metrics`` returning the last-N-window
#: time-series of the monitor's windowed series.  Within version 6,
#: ``health`` and ``stats`` later dropped their job-queue fields (the
#: ``queue`` blocks and the ``queue_depth``/``straggler_count`` signals)
#: when batch steps moved onto the request thread; no request changed.
#: Version 7 folded the system ops into one: ``analyze_system`` (a
#: ``system_query`` without deltas, whose response was a subset of
#: ``system_query``'s) and ``path_latency`` (a ``system_query`` with
#: ``paths``) are gone from the wire and live on as client-side forms of
#: ``system_query``, which renders the path table from the JSON rows.
#: ``system_scenario`` is gone too: ``scenario`` takes exactly one of
#: ``target`` (a bus target or shard) or ``system`` and answers one typed
#: error when given both or neither, and ``scenarios`` lists per-bus and
#: per-system scenarios with one entry shape (``name``, ``queries``,
#: ``description``).  ``system_query``, ``query``, ``register``,
#: ``metrics``, ``shutdown`` and the monitor ops kept their request and
#: response shapes.  Later in version 7, requests came to be checked
#: against one table (:data:`OPS`) and nested fields read by JSON kind,
#: so coerced values (``with_report: "false"``, a can_id of 1.9) became
#: typed errors; no request a shipped client sends changed.
PROTOCOL_VERSION = 7

#: The machine-readable error codes of the taxonomy documented above.
ERROR_CODES = ("timeout", "overloaded", "draining", "unknown_target",
               "protocol", "invalid", "internal")


class ProtocolError(ValueError):
    """A malformed or unsupported protocol object."""


_REQUIRED = object()

#: JSON kind -> the Python types of a decoded value of that kind.
_KINDS = {"string": str, "integer": int, "number": (int, float),
          "boolean": bool, "array": (list, tuple), "object": Mapping,
          "any": object}


def _expect(value, kind: str, field: str, error=ValueError):
    """``value`` if it is of JSON ``kind`` (a boolean is no number), else
    ``error`` naming ``field``."""
    if not isinstance(value, _KINDS[kind]) or (
            isinstance(value, bool) and kind in ("integer", "number")):
        raise error(f"{field} must be a JSON {kind}, "
                    f"got {reprlib.repr(value)}")
    return value


def _field(data: Mapping, field: str, default=_REQUIRED, *, kind: str):
    """``data[field]`` of JSON ``kind``, or ``default`` when it is absent.

    Every scalar field of a protocol object is read by one of the typed
    readers below.  A value of another kind -- in a ``float`` field, one
    ``float()`` rejects or cannot hold -- is a ``ValueError`` naming the
    field (the daemon's ``invalid``; registration payloads wrap it into
    ``protocol``); a missing required field is ``KeyError(field)``.  Range
    checks stay with the typed objects the value feeds.
    """
    if field not in data:
        if default is _REQUIRED:
            raise KeyError(field)
        return default
    value = data[field]
    if kind != "float":
        return _expect(value, kind, field)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{field} must be a number representable as a float, "
            f"got {reprlib.repr(value)}") from None


float_field = partial(_field, kind="float")
int_field = partial(_field, kind="integer")
bool_field = partial(_field, kind="boolean")
str_field = partial(_field, kind="string")


def strings_field(data: Mapping, field: str, default=_REQUIRED) -> tuple:
    """``data[field]`` as a tuple, if it is a JSON array of strings."""
    return tuple(_expect(item, "string", field)
                 for item in _field(data, field, default, kind="array"))


def error_response(message: str, code: str = "internal",
                   request_id=None,
                   retry_after_ms: Optional[int] = None) -> dict:
    """Build a failed response dict carrying the typed error ``code``.

    ``retry_after_ms`` (for ``overloaded`` rejections) tells clients how
    long to back off before retrying.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    response: dict = {"ok": False, "error": message, "code": code}
    if retry_after_ms is not None:
        response["retry_after_ms"] = int(retry_after_ms)
    if request_id is not None:
        response["id"] = request_id
    return response


# --------------------------------------------------------------------------- #
# Requests: one declared parameter table for every op
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Param:
    """One request parameter: its JSON ``kind``; its ``default`` (``null``
    reads as absent when that is ``None``) or ``required``; the
    ``choices``/``minimum``/``maximum`` no domain object checks; and the
    declaration of each array element or map value (``items``) or of an
    object's ``fields`` (a tuple, kept as a name map), exactly one of its
    ``one_of`` fields given."""

    name: str
    kind: str
    default: object = None
    required: bool = False
    choices: tuple = ()
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    items: Optional["Param"] = None
    fields: "Mapping[str, Param]" = ()
    one_of: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", {f.name: f for f in self.fields})

    def check(self, value, where: str):
        """``value`` (containers: a checked copy, defaults filled in), or
        a ``ProtocolError`` naming ``where`` and the field at fault."""
        _expect(value, self.kind, where, ProtocolError)
        if self.choices and value not in self.choices:
            raise ProtocolError(
                f"{where} must be one of {self.choices}, got {value!r}")
        if (self.minimum is not None and not value >= self.minimum) or (
                self.maximum is not None and not value <= self.maximum):
            raise ProtocolError(
                f"{where} must be within [{self.minimum!r}, "
                f"{self.maximum or 'inf'}], got {reprlib.repr(value)}")
        if self.items is not None:
            if self.kind == "object":
                return {key: self.items.check(item, f"{where}[{key!r}]")
                        for key, item in value.items()}
            return [self.items.check(item, f"{where}[{index}]")
                    for index, item in enumerate(value)]
        if not self.fields:
            return value
        for key in value:
            if key not in self.fields:
                raise ProtocolError(f"{where} has no parameter {key!r}; "
                                    f"declared: {', '.join(self.fields)}")
        checked = {}
        for key, field in self.fields.items():
            if key not in value:
                if field.required:
                    raise ProtocolError(f"{where} needs parameter {key!r}")
                checked[key] = field.default
            elif value[key] is None and field.default is None \
                    and not field.required:
                checked[key] = None
            else:
                checked[key] = field.check(value[key],
                                           f"{where} parameter {key!r}")
        if self.one_of and sum(
                checked[key] is not None for key in self.one_of) != 1:
            raise ProtocolError(f"{where} needs exactly one of "
                                f"{' or '.join(map(repr, self.one_of))}")
        return checked


#: Parameters of every op; 5e-324 is the smallest positive double.
COMMON_PARAMS = (
    Param("op", "string", required=True), Param("id", "any"),
    Param("deadline_ms", "number", minimum=5e-324,
          maximum=sys.float_info.max),
    Param("trace", "boolean", False), Param("trace_id", "string"))


@dataclass(frozen=True)
class Op(Param):
    """A request object: the op's ``fields`` plus :data:`COMMON_PARAMS`.

    A ``control`` op answers from in-memory state: it bypasses admission
    and keeps being served during overload and drain.  ``retry``: when a
    client re-sends it after a failed connection -- ``always``
    (idempotent), ``connect`` (mutating: if no byte went out), ``never``.
    """

    kind: str = "object"
    control: bool = False
    retry: str = "always"

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", (*self.fields, *COMMON_PARAMS))
        super().__post_init__()


_TARGET = Param("target", "string", required=True)
#: Delta, path, rule and frame elements are checked by their decoders.
_DELTAS = Param("deltas", "array", ())
_LABEL = Param("label", "string")
_WITH_REPORT = Param("with_report", "boolean", True)

#: Every op of the protocol, declared once: the daemon checks each request
#: against its entry before admission and dispatches by the op's name.
OPS = {op.name: op for op in (
    *(Op(name, control=True) for name in (
        "ping", "health", "stats", "targets", "scenarios")),
    Op("query", fields=(
        _TARGET, _DELTAS, _LABEL, _WITH_REPORT,
        Param("message_names", "array", items=Param("name", "string")))),
    Op("scenario", fields=(
        Param("target", "string"), Param("system", "string"),
        Param("scenario", "string", required=True)),
       one_of=("target", "system")),
    Op("batch", fields=(_TARGET, Param("queries", "array", (), items=Param(
        "query", "object", fields=(_DELTAS, _LABEL, _WITH_REPORT))))),
    Op("register", fields=(
        Param("name", "string", required=True), Param("system", "object"),
        Param("config", "object"), Param("workload", "object", fields=(
            Param("generator", "string", required=True),
            Param("params", "object")))),
       one_of=("system", "config", "workload"), retry="connect"),
    Op("system_query", fields=(
        Param("system", "string", required=True), _DELTAS, _LABEL,
        Param("paths", "array"),
        Param("shards", "object", items=Param("shard", "string")))),
    Op("metrics", fields=(
        Param("format", "string", choices=("text", "prometheus")),
        Param("history", "boolean", False),
        Param("history_last", "integer", minimum=1)), control=True),
    Op("traces", fields=(Param("limit", "integer", minimum=1),),
       control=True),
    Op("store", fields=(
        Param("action", "string", "stats",
              choices=("stats", "compact", "clear")),
        Param("max_bytes", "integer", minimum=0)), control=True),
    # MonitorConfig checks the ranges of the monitor's settings.
    Op("monitor_start", fields=(
        _TARGET, Param("rules", "array", ()), Param("window_ms", "number"),
        Param("history_windows", "integer"),
        Param("max_arrivals", "integer"), Param("fit_max_n", "integer")),
       retry="connect"),
    Op("monitor_ingest", fields=(
        _TARGET, Param("frames", "array", ()),
        Param("flush", "boolean", False)), retry="connect"),
    Op("monitor_status", fields=(_TARGET,), control=True),
    Op("monitor_alerts", fields=(
        _TARGET, Param("last", "integer", minimum=1)), control=True),
    Op("monitor_stop", fields=(_TARGET,), control=True),
    Op("shutdown", control=True, retry="never"),
)}


# --------------------------------------------------------------------------- #
# Event models
# --------------------------------------------------------------------------- #


def event_model_to_json(model: EventModel) -> dict:
    """Tagged JSON object for a standard event model."""
    tag = EVENT_MODEL_TAGS.get(type(model))
    if tag is None:
        raise ProtocolError(
            f"cannot serialise event model type {type(model).__name__}")
    return {"model": tag, "period": model.period, "jitter": model.jitter,
            "min_distance": model.min_distance}


def event_model_from_json(data: Mapping) -> EventModel:
    """Inverse of :func:`event_model_to_json`."""
    cls = EVENT_MODEL_CLASSES.get(data.get("model"))
    if cls is None:
        raise ProtocolError(f"unknown event model tag {data.get('model')!r}")
    return cls(period=float_field(data, "period"),
               jitter=float_field(data, "jitter", 0.0),
               min_distance=float_field(data, "min_distance", 0.0))


# --------------------------------------------------------------------------- #
# Error models
# --------------------------------------------------------------------------- #
def error_model_to_json(model: ErrorModel) -> dict:
    """Tagged JSON object for a bus-error model."""
    if isinstance(model, NoErrors):
        return {"errors": "none"}
    if isinstance(model, SporadicErrorModel):
        return {"errors": "sporadic",
                "min_interarrival": model.min_interarrival}
    if isinstance(model, BurstErrorModel):
        return {"errors": "burst", "min_interarrival": model.min_interarrival,
                "burst_length": model.burst_length,
                "intra_burst_gap": model.intra_burst_gap}
    if isinstance(model, CompositeErrorModel):
        return {"errors": "composite",
                "components": [error_model_to_json(c)
                               for c in model.components]}
    if type(model) is ErrorModel:
        return {"errors": "none"}
    raise ProtocolError(
        f"cannot serialise error model type {type(model).__name__}")


def error_model_from_json(data: Mapping) -> ErrorModel:
    """Inverse of :func:`error_model_to_json`."""
    kind = data.get("errors")
    if kind == "none":
        return NoErrors()
    if kind == "sporadic":
        return SporadicErrorModel(
            min_interarrival=float_field(data, "min_interarrival"))
    if kind == "burst":
        return BurstErrorModel(
            min_interarrival=float_field(data, "min_interarrival"),
            burst_length=int_field(data, "burst_length"),
            intra_burst_gap=float_field(data, "intra_burst_gap"))
    if kind == "composite":
        return CompositeErrorModel(components=tuple(
            error_model_from_json(c) for c in data["components"]))
    raise ProtocolError(f"unknown error model tag {kind!r}")


# --------------------------------------------------------------------------- #
# CAN messages
# --------------------------------------------------------------------------- #
def can_message_to_json(message: CanMessage) -> dict:
    """JSON object for a K-Matrix row (timing-relevant fields only)."""
    data = {
        "name": message.name,
        "can_id": message.can_id,
        "dlc": message.dlc,
        "period": message.period,
        "sender": message.sender,
        "receivers": list(message.receivers),
    }
    if message.jitter is not None:
        data["jitter"] = message.jitter
    if message.deadline is not None:
        data["deadline"] = message.deadline
    if message.min_distance:
        data["min_distance"] = message.min_distance
    if message.frame_format is not CanFrameFormat.STANDARD:
        data["frame_format"] = message.frame_format.value
    return data


def can_message_from_json(data: Mapping) -> CanMessage:
    """Inverse of :func:`can_message_to_json`."""
    try:
        return CanMessage(
            name=str_field(data, "name"),
            can_id=int_field(data, "can_id"),
            dlc=int_field(data, "dlc"),
            period=float_field(data, "period"),
            sender=str_field(data, "sender"),
            receivers=strings_field(data, "receivers", ()),
            jitter=float_field(data, "jitter", None),
            deadline=float_field(data, "deadline", None),
            min_distance=float_field(data, "min_distance", 0.0),
            frame_format=CanFrameFormat(
                data.get("frame_format", CanFrameFormat.STANDARD.value)),
        )
    except KeyError as missing:
        raise ProtocolError(f"CAN message object lacks {missing}") from None


# --------------------------------------------------------------------------- #
# Deltas
# --------------------------------------------------------------------------- #
def delta_to_json(delta: Delta) -> dict:
    """Tagged JSON object for any typed what-if delta."""
    if isinstance(delta, JitterDelta):
        data = {"delta": "jitter"}
        if delta.message_name is not None:
            data["message_name"] = delta.message_name
        if delta.jitter is not None:
            data["jitter"] = delta.jitter
        if delta.fraction is not None:
            data["fraction"] = delta.fraction
        return data
    if isinstance(delta, ErrorModelDelta):
        return {"delta": "error-model",
                "error_model": error_model_to_json(delta.error_model)}
    if isinstance(delta, PriorityDelta):
        if delta.swap is not None:
            return {"delta": "priority", "swap": list(delta.swap)}
        if delta.order is not None:
            return {"delta": "priority", "order": list(delta.order)}
        return {"delta": "priority",
                "id_by_name": {name: can_id
                               for name, can_id in delta.id_by_name}}
    if isinstance(delta, EventModelDelta):
        return {"delta": "event-models",
                "models": {name: event_model_to_json(model)
                           for name, model in delta.models},
                "replace_all": delta.replace_all}
    if isinstance(delta, AddMessageDelta):
        return {"delta": "add-message",
                "message": can_message_to_json(delta.message)}
    if isinstance(delta, RemoveMessageDelta):
        return {"delta": "remove-message",
                "message_name": delta.message_name}
    if isinstance(delta, BusDelta):
        data = {"delta": "bus"}
        if delta.bit_rate_bps is not None:
            data["bit_rate_bps"] = delta.bit_rate_bps
        if delta.bit_stuffing is not None:
            data["bit_stuffing"] = delta.bit_stuffing
        return data
    if isinstance(delta, DeadlinePolicyDelta):
        return {"delta": "deadline-policy", "policy": delta.policy}
    raise ProtocolError(
        f"cannot serialise delta type {type(delta).__name__}")


def delta_from_json(data: Mapping) -> Delta:
    """Inverse of :func:`delta_to_json`."""
    kind = data.get("delta")
    if kind == "jitter":
        return JitterDelta(
            message_name=str_field(data, "message_name", None),
            jitter=float_field(data, "jitter", None),
            fraction=float_field(data, "fraction", None))
    if kind == "error-model":
        return ErrorModelDelta(error_model_from_json(data["error_model"]))
    if kind == "priority":
        if "swap" in data:
            first, second = strings_field(data, "swap")
            return PriorityDelta(swap=(first, second))
        if "order" in data:
            return PriorityDelta(order=strings_field(data, "order"))
        if "id_by_name" in data:
            ids = _field(data, "id_by_name", kind="object")
            return PriorityDelta.from_mapping(
                {name: int_field(ids, name) for name in ids})
        raise ProtocolError("priority delta needs swap=, order= or "
                            "id_by_name=")
    if kind == "event-models":
        return EventModelDelta.from_mapping(
            {name: event_model_from_json(model)
             for name, model in data.get("models", {}).items()},
            replace_all=bool_field(data, "replace_all", False))
    if kind == "add-message":
        return AddMessageDelta(can_message_from_json(data["message"]))
    if kind == "remove-message":
        return RemoveMessageDelta(str_field(data, "message_name"))
    if kind == "bus":
        return BusDelta(
            bit_rate_bps=float_field(data, "bit_rate_bps", None),
            bit_stuffing=bool_field(data, "bit_stuffing", None))
    if kind == "deadline-policy":
        return DeadlinePolicyDelta(str_field(data, "policy"))
    raise ProtocolError(f"unknown delta tag {kind!r}")


def deltas_from_json(items: Sequence[Mapping]) -> tuple[Delta, ...]:
    """Decode a request's delta list."""
    return tuple(delta_from_json(item) for item in items)


def deltas_to_json(deltas: Sequence[Delta]) -> list[dict]:
    """Encode a delta list for a request."""
    return [delta_to_json(delta) for delta in deltas]


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
class Fragment(Mapping):
    """A JSON object encoded once and written verbatim by :func:`encode_line`.

    Read as a mapping it decodes itself, so an in-process caller of
    :meth:`~repro.server.daemon.AnalysisDaemon.handle` sees the object a
    peer would read off the wire.
    """

    __slots__ = ("text", "_decoded")

    def __init__(self, text: str) -> None:
        self.text = text
        self._decoded: Optional[dict] = None

    def _value(self) -> dict:
        if self._decoded is None:
            self._decoded = json.loads(self.text)
        return self._decoded

    def __getitem__(self, key):
        return self._value()[key]

    def __iter__(self):
        return iter(self._value())

    def __len__(self) -> int:
        return len(self._value())


def result_to_json(result) -> dict:
    """JSON object for one :class:`MessageResponseTime`."""
    return {
        "name": result.name,
        "can_id": result.can_id,
        "worst_case": result.worst_case if result.bounded else None,
        "best_case": result.best_case,
        "transmission_time": result.transmission_time,
        "blocking": result.blocking,
        "jitter": result.jitter,
        "busy_period": result.busy_period,
        "instances_analyzed": result.instances_analyzed,
        "bounded": result.bounded,
    }


def _finite(value: float) -> Optional[float]:
    """Non-finite floats become ``None`` (JSON has no inf/nan)."""
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def report_to_json(report) -> Optional[dict]:
    """JSON summary of a :class:`SchedulabilityReport` (``None`` passthrough)."""
    if report is None:
        return None
    return {
        "all_deadlines_met": report.all_deadlines_met,
        "missed": sorted(v.name for v in report.missed),
        "loss_fraction": report.loss_fraction,
        "worst_normalized_slack": _finite(report.worst_normalized_slack),
        "utilization": report.utilization,
        "deadline_policy": report.deadline_policy,
    }


def query_result_to_json(result) -> dict:
    """JSON object for a :class:`repro.service.session.QueryResult`.

    ``results`` and ``report`` are :class:`Fragment`\\ s built from the
    answering cache entry's memo (``result.wire``): each message's
    ``"name":{...}`` member and each deadline policy's report is encoded
    the first time a reply needs it, and every later reply -- the full
    matrix, a ``message_names`` subset, a batch or scenario step -- joins
    the members it asks for.  Only ``label``, ``fingerprint`` and
    ``stats`` are per reply.
    """
    memo = result.wire if result.wire is not None else {}
    members = memo.setdefault("results", {})
    parts = []
    for name, value in result.results.items():
        part = members.get(name)
        if part is None:
            part = members[name] = \
                f"{_dumps(name)}:{_dumps(result_to_json(value))}"
        parts.append(part)
    report = result.report
    if report is not None:
        reports = memo.setdefault("reports", {})
        text = reports.get(report.deadline_policy)
        if text is None:
            text = reports[report.deadline_policy] = \
                _dumps(report_to_json(report))
        report = Fragment(text)
    return {
        "label": result.label,
        "fingerprint": result.fingerprint,
        "results": Fragment("{" + ",".join(parts) + "}"),
        "report": report,
        "stats": {
            "total": result.stats.total,
            "reused": result.stats.reused,
            "warm_started": result.stats.warm_started,
            "cold": result.stats.cold,
            "cache_hit": result.stats.cache_hit,
        },
    }


def session_stats_to_json(stats) -> dict:
    """JSON object for a :class:`repro.service.session.SessionStats`."""
    return {
        "name": stats.name,
        "cached_configs": stats.cached_configs,
        "queries": stats.queries,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "evictions": stats.evictions,
        "reused": stats.reused,
        "warm_started": stats.warm_started,
        "cold": stats.cold,
    }


# --------------------------------------------------------------------------- #
# Topologies (buses, segments, gateways, ECUs, whole systems)
# --------------------------------------------------------------------------- #
def bus_to_json(bus: CanBus) -> dict:
    """JSON object for one physical bus."""
    return {"name": bus.name, "bit_rate_bps": bus.bit_rate_bps,
            "bit_stuffing": bus.bit_stuffing}


def bus_from_json(data: Mapping) -> CanBus:
    """Inverse of :func:`bus_to_json`."""
    try:
        return CanBus(name=str_field(data, "name"),
                      bit_rate_bps=float_field(data, "bit_rate_bps"),
                      bit_stuffing=bool_field(data, "bit_stuffing", True))
    except KeyError as missing:
        raise ProtocolError(f"bus object lacks {missing}") from None


def controller_to_json(controller: ControllerModel) -> dict:
    """JSON object for one CAN controller model."""
    return {
        "controller_type": controller.controller_type.value,
        "tx_buffers": controller.tx_buffers,
        "abort_on_higher_priority": controller.abort_on_higher_priority,
    }


def controller_from_json(data: Mapping) -> ControllerModel:
    """Inverse of :func:`controller_to_json`."""
    try:
        return ControllerModel(
            controller_type=CanControllerType(data["controller_type"]),
            tx_buffers=int_field(data, "tx_buffers", 3),
            abort_on_higher_priority=bool_field(
                data, "abort_on_higher_priority", False))
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"bad controller object: {error}") from None


def segment_to_json(segment: BusSegment) -> dict:
    """JSON object for one bus segment (bus + K-Matrix + local models)."""
    return {
        "bus": bus_to_json(segment.bus),
        "messages": [can_message_to_json(m) for m in segment.kmatrix],
        "error_model": error_model_to_json(segment.error_model),
        "deadline_policy": segment.deadline_policy,
        "assumed_jitter_fraction": segment.assumed_jitter_fraction,
    }


def segment_from_json(data: Mapping) -> BusSegment:
    """Inverse of :func:`segment_to_json`."""
    try:
        return BusSegment(
            bus=bus_from_json(data["bus"]),
            kmatrix=KMatrix(messages=[
                can_message_from_json(m) for m in data.get("messages", ())]),
            error_model=error_model_from_json(
                data.get("error_model", {"errors": "none"})),
            deadline_policy=str_field(data, "deadline_policy", "period"),
            assumed_jitter_fraction=float_field(
                data, "assumed_jitter_fraction", 0.0))
    except KeyError as missing:
        raise ProtocolError(f"segment object lacks {missing}") from None


def config_to_json(config: BusConfiguration) -> dict:
    """JSON object for a single-bus :class:`BusConfiguration`."""
    data = {
        "bus": bus_to_json(config.bus),
        "messages": [can_message_to_json(m) for m in config.kmatrix],
        "error_model": error_model_to_json(config.error_model),
        "assumed_jitter_fraction": config.assumed_jitter_fraction,
        "deadline_policy": config.deadline_policy,
    }
    if config.controllers:
        data["controllers"] = {name: controller_to_json(c)
                               for name, c in config.controllers.items()}
    if config.event_models:
        data["event_models"] = {name: event_model_to_json(model)
                                for name, model in
                                config.event_models.items()}
    return data


def config_from_json(data: Mapping) -> BusConfiguration:
    """Inverse of :func:`config_to_json`: a segment object plus optional
    controllers and event models."""
    try:
        controllers = {name: controller_from_json(c)
                       for name, c in data.get("controllers", {}).items()}
        event_models = {name: event_model_from_json(m)
                        for name, m in data.get("event_models", {}).items()}
    except KeyError as missing:
        raise ProtocolError(f"config object lacks {missing}") from None
    return replace(
        BusConfiguration.from_segment(segment_from_json(data), controllers),
        event_models=event_models or None)


def gateway_route_to_json(route: GatewayRoute) -> dict:
    """JSON object for one gateway forwarding relation."""
    return {
        "source_message": route.source_message,
        "destination_message": route.destination_message,
        "source_bus": route.source_bus,
        "destination_bus": route.destination_bus,
        "queue": route.queue,
    }


def gateway_route_from_json(data: Mapping) -> GatewayRoute:
    """Inverse of :func:`gateway_route_to_json`."""
    try:
        return GatewayRoute(
            source_message=str_field(data, "source_message"),
            destination_message=str_field(data, "destination_message"),
            source_bus=str_field(data, "source_bus"),
            destination_bus=str_field(data, "destination_bus"),
            queue=str_field(data, "queue", "default"))
    except KeyError as missing:
        raise ProtocolError(f"gateway route lacks {missing}") from None


def gateway_to_json(gateway: GatewayModel) -> dict:
    """JSON object for one gateway model."""
    return {
        "name": gateway.name,
        "routes": [gateway_route_to_json(r) for r in gateway.routes],
        "policy": gateway.policy.value,
        "polling_period": gateway.polling_period,
        "copy_time": gateway.copy_time,
        "queue_capacities": dict(gateway.queue_capacities),
    }


def gateway_from_json(data: Mapping) -> GatewayModel:
    """Inverse of :func:`gateway_to_json`."""
    try:
        capacities = _field(data, "queue_capacities", {}, kind="object")
        return GatewayModel(
            name=str_field(data, "name"),
            routes=[gateway_route_from_json(r)
                    for r in data.get("routes", ())],
            policy=ForwardingPolicy(
                data.get("policy", ForwardingPolicy.PERIODIC_POLLING.value)),
            polling_period=float_field(data, "polling_period", 5.0),
            copy_time=float_field(data, "copy_time", 0.05),
            queue_capacities={queue: int_field(capacities, queue)
                              for queue in capacities})
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"bad gateway object: {error}") from None


def task_to_json(task: Task) -> dict:
    """JSON object for one ECU task."""
    data = {
        "name": task.name,
        "priority": task.priority,
        "wcet": task.wcet,
        "bcet": task.bcet,
        "kind": task.kind.value,
        "sends_messages": list(task.sends_messages),
        "non_preemptable_region": task.non_preemptable_region,
    }
    if task.activation is not None:
        data["activation"] = event_model_to_json(task.activation)
    return data


def task_from_json(data: Mapping) -> Task:
    """Inverse of :func:`task_to_json`."""
    try:
        return Task(
            name=str_field(data, "name"),
            priority=int_field(data, "priority"),
            wcet=float_field(data, "wcet"),
            bcet=float_field(data, "bcet", 0.0),
            kind=TaskKind(data.get("kind", TaskKind.PREEMPTIVE.value)),
            activation=(event_model_from_json(data["activation"])
                        if "activation" in data else None),
            sends_messages=strings_field(data, "sends_messages", ()),
            non_preemptable_region=float_field(
                data, "non_preemptable_region", 0.0))
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"bad task object: {error}") from None


def ecu_to_json(ecu: EcuModel) -> dict:
    """JSON object for one detailed ECU model."""
    overheads = ecu.overheads
    data = {
        "name": ecu.name,
        "tasks": [task_to_json(t) for t in ecu.tasks],
        "overheads": {
            "activation": overheads.activation,
            "termination": overheads.termination,
            "isr_entry": overheads.isr_entry,
            "schedule_point": overheads.schedule_point,
        },
    }
    if ecu.timetable is not None:
        data["timetable"] = {
            "period": ecu.timetable.period,
            "entries": [{"task_name": e.task_name, "offset": e.offset}
                        for e in ecu.timetable.entries],
        }
    return data


def ecu_from_json(data: Mapping) -> EcuModel:
    """Inverse of :func:`ecu_to_json`."""
    try:
        overheads = data.get("overheads", {})
        timetable = None
        if "timetable" in data:
            table = data["timetable"]
            timetable = TimeTable(
                period=float_field(table, "period"),
                entries=tuple(
                    TimeTableEntry(task_name=str_field(e, "task_name"),
                                   offset=float_field(e, "offset"))
                    for e in table.get("entries", ())))
        return EcuModel(
            name=str_field(data, "name"),
            tasks=[task_from_json(t) for t in data.get("tasks", ())],
            overheads=OsekOverheads(
                activation=float_field(overheads, "activation", 0.004),
                termination=float_field(overheads, "termination", 0.003),
                isr_entry=float_field(overheads, "isr_entry", 0.002),
                schedule_point=float_field(
                    overheads, "schedule_point", 0.002)),
            timetable=timetable)
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"bad ECU object: {error}") from None


def system_to_json(system: SystemModel) -> dict:
    """JSON object for a whole :class:`SystemModel` (the register payload)."""
    return {
        "name": system.name,
        "buses": [segment_to_json(s) for s in system.buses.values()],
        "gateways": [gateway_to_json(g) for g in system.gateways.values()],
        "ecus": [ecu_to_json(e) for e in system.ecus.values()],
        "controllers": {name: controller_to_json(c)
                        for name, c in system.controllers.items()},
    }


def system_from_json(data: Mapping) -> SystemModel:
    """Inverse of :func:`system_to_json`."""
    try:
        system = SystemModel(name=str_field(data, "name", "system"))
        for segment in data.get("buses", ()):
            system.add_bus(segment_from_json(segment))
        for gateway in data.get("gateways", ()):
            system.add_gateway(gateway_from_json(gateway))
        for ecu in data.get("ecus", ()):
            system.add_ecu(ecu_from_json(ecu))
        system.controllers.update(
            {name: controller_from_json(c)
             for name, c in data.get("controllers", {}).items()})
    except ValueError as error:
        raise ProtocolError(f"bad system object: {error}") from None
    return system


# --------------------------------------------------------------------------- #
# System deltas
# --------------------------------------------------------------------------- #
def system_delta_to_json(delta: SystemDelta) -> dict:
    """Tagged JSON object for any typed system-level delta."""
    if isinstance(delta, MoveMessageDelta):
        data = {"sysdelta": "move-message",
                "message_name": delta.message_name, "to_bus": delta.to_bus}
        if delta.new_can_id is not None:
            data["new_can_id"] = delta.new_can_id
        return data
    if isinstance(delta, BusSpeedDelta):
        return {"sysdelta": "bus-speed", "bus": delta.bus_name,
                "bit_rate_bps": delta.bit_rate_bps}
    if isinstance(delta, AddGatewayRouteDelta):
        data = {"sysdelta": "add-gateway-route",
                "gateway": delta.gateway_name,
                "route": gateway_route_to_json(delta.route)}
        if delta.polling_period is not None:
            data["polling_period"] = delta.polling_period
        return data
    if isinstance(delta, RemoveGatewayRouteDelta):
        return {"sysdelta": "remove-gateway-route",
                "gateway": delta.gateway_name,
                "destination_message": delta.destination_message}
    if isinstance(delta, GatewayConfigDelta):
        data = {"sysdelta": "gateway-config", "gateway": delta.gateway_name}
        if delta.polling_period is not None:
            data["polling_period"] = delta.polling_period
        if delta.copy_time is not None:
            data["copy_time"] = delta.copy_time
        if delta.policy is not None:
            data["policy"] = ForwardingPolicy(delta.policy).value
        return data
    if isinstance(delta, EcuTaskDelta):
        data = {"sysdelta": "ecu-task", "ecu": delta.ecu_name,
                "task": delta.task_name}
        if delta.wcet is not None:
            data["wcet"] = delta.wcet
        if delta.bcet is not None:
            data["bcet"] = delta.bcet
        if delta.activation is not None:
            data["activation"] = event_model_to_json(delta.activation)
        return data
    if isinstance(delta, SegmentConfigDelta):
        return {"sysdelta": "segment-config", "bus": delta.bus_name,
                "deltas": deltas_to_json(delta.deltas)}
    raise ProtocolError(
        f"cannot serialise system delta type {type(delta).__name__}")


def system_delta_from_json(data: Mapping) -> SystemDelta:
    """Inverse of :func:`system_delta_to_json`."""
    kind = data.get("sysdelta")
    if kind == "move-message":
        return MoveMessageDelta(
            message_name=str_field(data, "message_name"),
            to_bus=str_field(data, "to_bus"),
            new_can_id=int_field(data, "new_can_id", None))
    if kind == "bus-speed":
        return BusSpeedDelta(bus_name=str_field(data, "bus"),
                             bit_rate_bps=float_field(data, "bit_rate_bps"))
    if kind == "add-gateway-route":
        return AddGatewayRouteDelta(
            gateway_name=str_field(data, "gateway"),
            route=gateway_route_from_json(data["route"]),
            polling_period=float_field(data, "polling_period", None))
    if kind == "remove-gateway-route":
        return RemoveGatewayRouteDelta(
            gateway_name=str_field(data, "gateway"),
            destination_message=str_field(data, "destination_message"))
    if kind == "gateway-config":
        return GatewayConfigDelta(
            gateway_name=str_field(data, "gateway"),
            polling_period=float_field(data, "polling_period", None),
            copy_time=float_field(data, "copy_time", None),
            policy=(ForwardingPolicy(data["policy"])
                    if "policy" in data else None))
    if kind == "ecu-task":
        return EcuTaskDelta(
            ecu_name=str_field(data, "ecu"),
            task_name=str_field(data, "task"),
            wcet=float_field(data, "wcet", None),
            bcet=float_field(data, "bcet", None),
            activation=(event_model_from_json(data["activation"])
                        if "activation" in data else None))
    if kind == "segment-config":
        return SegmentConfigDelta(
            bus_name=str_field(data, "bus"),
            deltas=deltas_from_json(data.get("deltas", ())))
    raise ProtocolError(f"unknown system delta tag {kind!r}")


def system_deltas_from_json(items: Sequence[Mapping],
                            ) -> tuple[SystemDelta, ...]:
    """Decode a request's system-delta list."""
    return tuple(system_delta_from_json(item) for item in items)


def system_deltas_to_json(deltas: Sequence[SystemDelta]) -> list[dict]:
    """Encode a system-delta list for a request."""
    return [system_delta_to_json(delta) for delta in deltas]


# --------------------------------------------------------------------------- #
# End-to-end paths
# --------------------------------------------------------------------------- #
def path_to_json(path: EndToEndPath) -> dict:
    """JSON object for one cause-effect chain."""
    return {"name": path.name,
            "segments": [[kind, reference]
                         for kind, reference in path.segments]}


def path_from_json(data: Mapping) -> EndToEndPath:
    """Inverse of :func:`path_to_json`."""
    try:
        # EndToEndPath unpacks every segment into (kind, reference).
        segments = tuple(
            tuple(_expect(part, "string", "segments")
                  for part in _expect(segment, "array", "segments"))
            for segment in _field(data, "segments", (), kind="array"))
        return EndToEndPath(name=str_field(data, "name"), segments=segments)
    except (KeyError, ValueError) as error:
        raise ProtocolError(f"bad path object: {error}") from None


def paths_from_json(items: Sequence[Mapping]) -> tuple[EndToEndPath, ...]:
    """Decode a request's path list."""
    return tuple(path_from_json(item) for item in items)


def paths_to_json(paths: Sequence[EndToEndPath]) -> list[dict]:
    """Encode a path list for a request."""
    return [path_to_json(path) for path in paths]


def path_latency_to_json(latency: PathLatency) -> dict:
    """JSON object for one :class:`PathLatency` (inf encodes as null)."""
    return {
        "path": latency.path.name,
        "worst_case": _finite(latency.worst_case),
        "best_case": latency.best_case,
        "jitter": _finite(latency.jitter),
        "per_segment": [[reference, _finite(worst)]
                        for reference, worst in latency.per_segment],
    }


def system_query_result_to_json(outcome) -> dict:
    """JSON object for a :class:`repro.whatif.session.SystemQueryResult`."""
    result = outcome.result
    return {
        "label": outcome.label,
        "fingerprint": outcome.fingerprint,
        "converged": result.converged,
        "iterations": result.iterations,
        "all_deadlines_met": result.all_deadlines_met,
        "messages": {name: result_to_json(value)
                     for name, value in result.message_results.items()},
        "tasks": {name: {"worst_case": _finite(value.worst_case),
                         "best_case": value.best_case,
                         "bounded": value.bounded}
                  for name, value in result.task_results.items()},
        "bus_reports": {bus: report_to_json(report)
                        for bus, report in result.bus_reports.items()},
        "stats": {
            "invalidated": list(outcome.stats.invalidated),
            "segments": outcome.stats.segments,
            "cache_hit": outcome.stats.cache_hit,
        },
    }


# --------------------------------------------------------------------------- #
# Conformance monitoring (protocol v6)
# --------------------------------------------------------------------------- #
def frames_to_json(frames: Sequence[ObservedFrame]) -> list[list]:
    """Compact array form of an observed frame stream.

    One frame is ``[message, queued_at, finished_at, success, attempt]`` --
    positional, because ``monitor_ingest`` ships thousands of them and the
    field names would dominate the payload.
    """
    return [frame.to_json() for frame in frames]


def frames_from_json(items: Sequence) -> FrameBatch:
    """Inverse of :func:`frames_to_json`, decoded straight into columns.

    A frame that breaks the row contract of
    :meth:`~repro.monitor.stream.FrameBatch.from_json` -- wrong shape, a
    string or boolean where a number belongs, a non-finite or overflowing
    instant, a completion before its queuing instant, a non-boolean
    ``success``, an ``attempt`` that is not a positive integer -- is a
    :class:`ProtocolError` naming the frame's index in ``items`` and the
    offending field, and rejects the whole chunk.
    """
    try:
        return FrameBatch.from_json(items)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def alert_rules_from_json(items: Sequence[Mapping]) -> tuple[AlertRule, ...]:
    """Alert rules from request payloads (structured or ``expr`` syntax)."""
    rules = []
    for item in items:
        if not isinstance(item, Mapping):
            raise ProtocolError(f"alert rule must be an object, got {item!r}")
        try:
            rules.append(AlertRule.from_json(item))
        except KeyError as missing:
            raise ProtocolError(
                f"alert rule object lacks {missing}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed alert rule: {exc}") from None
    return tuple(rules)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
class _Splice(Exception):
    """The encoder met a :class:`Fragment`."""


def _refuse(value):
    if isinstance(value, Fragment):
        raise _Splice
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False,
                          default=_refuse).encode


def _encode(value) -> str:
    """``value`` as JSON text: a fragment verbatim, a container holding
    one member by member, anything else in one ``json`` call."""
    if isinstance(value, Fragment):
        return value.text
    try:
        return _dumps(value)
    except _Splice:
        pass
    if isinstance(value, Mapping):
        return "{" + ",".join(f"{_dumps(key)}:{_encode(item)}"
                              for key, item in value.items()) + "}"
    return "[" + ",".join(map(_encode, value)) + "]"


def encode_line(obj: Mapping) -> bytes:
    """One protocol object as one newline-terminated UTF-8 line.

    Bytes are those of ``json.dumps(obj, separators=(",", ":"),
    allow_nan=False)`` with every :class:`Fragment` read as its object.
    """
    return _encode(obj).encode("utf-8") + b"\n"


def append_member(line: bytes, key: str, value) -> bytes:
    """An encoded object ``line`` with ``"key":value`` as its last member."""
    return b"%s,%s:%s}\n" % (line[:-2], _dumps(key).encode("utf-8"),
                              _dumps(value).encode("utf-8"))


def decode_line(line: "bytes | str") -> dict:
    """Inverse of :func:`encode_line` (accepts str for convenience)."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        obj = json.loads(line) if line else None
    except ValueError as error:
        # JSON syntax, invalid UTF-8 and over-long integer literals alike.
        raise ProtocolError(f"malformed protocol line: {error}") from None
    if not line:
        raise ProtocolError("empty protocol line")
    if not isinstance(obj, dict):
        raise ProtocolError("protocol line must encode a JSON object")
    return obj

