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
    A request :data:`OPS` rejects, at any depth: a missing or undeclared
    key, a wrong kind (a ``float`` field also takes no NaN, infinity or
    integer literal a double cannot hold), an unknown tag, a value outside
    a declared range or choice set, or both/neither of an exactly-one
    group.
``invalid``
    An unknown op, or values :data:`OPS` accepts but a domain object or a
    lookup rejects (a negative period, an unknown message name or
    workload generator).
``internal``
    Unexpected server-side failure; the connection stays usable.

Retry guidance: ``overloaded`` is retryable for *any* op (nothing ran);
``timeout``/``internal`` are retryable for read-only queries, which are
idempotent by construction (registration is the only mutating op, and even
it is idempotent for identical payloads).

Typed values (deltas, event models, error models, system deltas) are
tagged objects, e.g. ``{"delta": "jitter", "message_name": "M12",
"jitter": 0.4}``.  Every protocol object is declared in the one
:class:`Param` table and read by :meth:`Param.check`, which builds its
domain object; unknown tags raise :class:`ProtocolError` -- the daemon
never guesses.  Observed frame rows are the one exception: they are read
in columns by :func:`frames_from_json`.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

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
#: typed errors; no request a shipped client sends changed.  Later still
#: in version 7, every nested object -- deltas, models, topologies, paths,
#: alert rules, workload parameters -- came to be declared in and checked
#: by that table, so an undeclared, wrong-kind or non-finite value answers
#: ``protocol`` at every depth; again no request a shipped client sends
#: changed.
PROTOCOL_VERSION = 7

#: The machine-readable error codes of the taxonomy documented above.
ERROR_CODES = ("timeout", "overloaded", "draining", "unknown_target",
               "protocol", "invalid", "internal")


class ProtocolError(ValueError):
    """A malformed or unsupported protocol object."""


#: JSON kind -> the Python types of a decoded value of that kind (no
#: boolean is a number); a ``float`` is a number read as a finite double.
_KINDS = {"string": str, "integer": int, "number": (int, float),
          "float": (int, float), "boolean": bool, "array": (list, tuple),
          "object": Mapping, "any": object}
_NUMBERS = ("integer", "number", "float")


def _values(enum) -> tuple:
    """The wire values of an enum, as a declaration's ``choices``."""
    return tuple(member.value for member in enum)


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
# Declarations: one checker for every protocol object
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Param:
    """One declared protocol value: its JSON ``kind``; its ``default``
    (``null`` reads as absent when that is ``None``) or ``required``; the
    ``choices``/``minimum``/``maximum`` no domain object checks; and the
    declaration of each array element or map value (``items``) or of an
    object's ``fields`` (a tuple, kept as a name map), exactly one of its
    ``one_of`` fields given.

    A tagged union names its ``tag`` field, whose value picks one of its
    ``variants`` (object declarations named by their tag value, kept as a
    name map).  ``build`` makes the domain object from a checked object's
    fields, passed as keywords.
    """

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
    tag: Optional[str] = None
    variants: "Mapping[str, Param]" = ()
    build: Optional[Callable] = None

    def __post_init__(self) -> None:
        for attribute in ("fields", "variants"):
            declared = getattr(self, attribute)
            if not isinstance(declared, Mapping):
                object.__setattr__(self, attribute,
                                   {param.name: param for param in declared})

    def check(self, value, where: str):
        """``value`` as declared -- an array as a tuple of checked items,
        a map or object as a checked copy (defaults filled in), built into
        its domain object when the declaration has ``build`` -- or a
        ``ProtocolError`` naming ``where`` and the field at fault.

        A value the table accepts may still be refused by its domain
        object (``ValueError``, ``KeyError``, ``TypeError``); a table
        rejection anywhere else in ``value`` outranks that refusal.
        """
        try:
            return self._check(value, where, True)
        except ProtocolError:
            raise
        except (KeyError, ValueError, TypeError):
            self._check(value, where, False)
            raise

    def _check(self, value, where: str, build: bool):
        kind = self.kind
        if not isinstance(value, _KINDS[kind]) or (
                isinstance(value, bool) and kind in _NUMBERS):
            raise ProtocolError(f"{where} must be a JSON {kind}, "
                                f"got {reprlib.repr(value)}")
        if kind == "float":
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ProtocolError(f"{where} must be a finite number, "
                                    f"got {reprlib.repr(value)}")
        if self.choices and value not in self.choices:
            raise ProtocolError(
                f"{where} must be one of {self.choices}, got {value!r}")
        if (self.minimum is not None and not value >= self.minimum) or (
                self.maximum is not None and not value <= self.maximum):
            raise ProtocolError(
                f"{where} must be within [{self.minimum!r}, "
                f"{self.maximum or 'inf'}], got {reprlib.repr(value)}")
        if kind != "array" and kind != "object":
            return value
        if self.items is not None:
            if kind == "object":
                return {key: self.items._check(item, f"{where}[{key!r}]",
                                               build)
                        for key, item in value.items()}
            return tuple([self.items._check(item, f"{where}[{index}]", build)
                          for index, item in enumerate(value)])
        declaration, tag = self, None
        if self.variants:
            tag = self.tag
            variant = value.get(tag)
            declaration = self.variants.get(variant) \
                if isinstance(variant, str) else None
            if declaration is None:
                raise ProtocolError(
                    f"{where}: unknown {self.name} tag {variant!r}; "
                    f"declared: {', '.join(self.variants)}")
        elif not self.fields:
            return value
        fields = declaration.fields
        for key in value:
            if key not in fields and key != tag:
                raise ProtocolError(f"{where} has no parameter {key!r}; "
                                    f"declared: {', '.join(fields)}")
        checked = {}
        for key, field in fields.items():
            if key not in value:
                if field.required:
                    raise ProtocolError(f"{where} needs parameter {key!r}")
                checked[key] = field.default
            elif value[key] is None and field.default is None \
                    and not field.required:
                checked[key] = None
            else:
                checked[key] = field._check(
                    value[key], f"{where} parameter {key!r}", build)
        one_of = declaration.one_of
        if one_of and sum(checked[key] is not None for key in one_of) != 1:
            raise ProtocolError(f"{where} needs exactly one of "
                                f"{' or '.join(map(repr, one_of))}")
        if declaration.build is None or not build:
            return checked
        return declaration.build(**checked)


#: An array of names (rebound to each field that holds one).
_NAMES = Param("names", "array", items=Param("name", "string"))


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


#: A standard event model, tagged by its class (``model``).
_EVENT_MODEL = Param("event model", "object", tag="model", variants=tuple(
    Param(tag, "object", build=cls, fields=(
        Param("period", "float", required=True),
        Param("jitter", "float", 0.0), Param("min_distance", "float", 0.0)))
    for tag, cls in EVENT_MODEL_CLASSES.items()))
event_model_from_json = partial(_EVENT_MODEL.check, where="event model")


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


#: A bus-error model, tagged by its kind (``errors``).
_ERROR_MODEL = Param("error model", "object", tag="errors", variants=(
    Param("none", "object", build=NoErrors),
    Param("sporadic", "object", build=SporadicErrorModel, fields=(
        Param("min_interarrival", "float", required=True),)),
    Param("burst", "object", build=BurstErrorModel, fields=(
        Param("min_interarrival", "float", required=True),
        Param("burst_length", "integer", required=True),
        Param("intra_burst_gap", "float", required=True)))))
# A composite nests error models: its variant joins the union it refers to.
_ERROR_MODEL.variants["composite"] = Param(
    "composite", "object", build=CompositeErrorModel, fields=(
        Param("components", "array", required=True, items=_ERROR_MODEL),))
error_model_from_json = partial(_ERROR_MODEL.check, where="error model")


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


_CAN_MESSAGE = Param("message", "object", build=lambda frame_format, **row: (
    CanMessage(frame_format=CanFrameFormat(frame_format), **row)), fields=(
    Param("name", "string", required=True),
    Param("can_id", "integer", required=True),
    Param("dlc", "integer", required=True),
    Param("period", "float", required=True),
    Param("sender", "string", required=True),
    replace(_NAMES, name="receivers", default=()),
    Param("jitter", "float"), Param("deadline", "float"),
    Param("min_distance", "float", 0.0),
    Param("frame_format", "string", CanFrameFormat.STANDARD.value,
          choices=_values(CanFrameFormat))))


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


def _priority_delta(swap, order, id_by_name) -> PriorityDelta:
    if id_by_name is not None:
        return PriorityDelta.from_mapping(id_by_name)
    return PriorityDelta(swap=swap, order=order)


#: A what-if delta of one bus, tagged by its kind (``delta``).
_DELTA = Param("delta", "object", tag="delta", variants=(
    Param("jitter", "object", build=JitterDelta, fields=(
        Param("message_name", "string"), Param("jitter", "float"),
        Param("fraction", "float"))),
    Param("error-model", "object", build=ErrorModelDelta, fields=(
        replace(_ERROR_MODEL, name="error_model", required=True),)),
    Param("priority", "object", build=_priority_delta, fields=(
        replace(_NAMES, name="swap"), replace(_NAMES, name="order"),
        Param("id_by_name", "object", items=Param("can_id", "integer"))),
          one_of=("swap", "order", "id_by_name")),
    Param("event-models", "object", build=EventModelDelta.from_mapping,
          fields=(Param("models", "object", {}, items=_EVENT_MODEL),
                  Param("replace_all", "boolean", False))),
    Param("add-message", "object", build=AddMessageDelta, fields=(
        replace(_CAN_MESSAGE, required=True),)),
    Param("remove-message", "object", build=RemoveMessageDelta, fields=(
        Param("message_name", "string", required=True),)),
    Param("bus", "object", build=BusDelta, fields=(
        Param("bit_rate_bps", "float"), Param("bit_stuffing", "boolean"))),
    Param("deadline-policy", "object", build=DeadlinePolicyDelta, fields=(
        Param("policy", "string", required=True),))))
_DELTAS = Param("deltas", "array", (), items=_DELTA)
delta_from_json = partial(_DELTA.check, where="delta")
deltas_from_json = partial(_DELTAS.check, where="deltas")


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


_BUS = Param("bus", "object", required=True, build=CanBus, fields=(
    Param("name", "string", required=True),
    Param("bit_rate_bps", "float", required=True),
    Param("bit_stuffing", "boolean", True)))


def controller_to_json(controller: ControllerModel) -> dict:
    """JSON object for one CAN controller model."""
    return {
        "controller_type": controller.controller_type.value,
        "tx_buffers": controller.tx_buffers,
        "abort_on_higher_priority": controller.abort_on_higher_priority,
    }


_CONTROLLER = Param(
    "controller", "object",
    build=lambda controller_type, **settings: ControllerModel(
        CanControllerType(controller_type), **settings),
    fields=(
        Param("controller_type", "string", required=True,
              choices=_values(CanControllerType)),
        Param("tx_buffers", "integer", 3),
        Param("abort_on_higher_priority", "boolean", False)))
_CONTROLLERS = Param("controllers", "object", {}, items=_CONTROLLER)


def segment_to_json(segment: BusSegment) -> dict:
    """JSON object for one bus segment (bus + K-Matrix + local models)."""
    return {
        "bus": bus_to_json(segment.bus),
        "messages": [can_message_to_json(m) for m in segment.kmatrix],
        "error_model": error_model_to_json(segment.error_model),
        "deadline_policy": segment.deadline_policy,
        "assumed_jitter_fraction": segment.assumed_jitter_fraction,
    }


def _segment(messages, **segment) -> BusSegment:
    return BusSegment(kmatrix=KMatrix(messages=list(messages)), **segment)


#: The fields of a bus segment, which a configuration extends.
_SEGMENT_FIELDS = (
    _BUS, Param("messages", "array", (), items=_CAN_MESSAGE),
    replace(_ERROR_MODEL, name="error_model", default=NoErrors()),
    Param("deadline_policy", "string", "period"),
    Param("assumed_jitter_fraction", "float", 0.0))


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


def _config(controllers, event_models, **segment) -> BusConfiguration:
    return replace(
        BusConfiguration.from_segment(_segment(**segment), controllers),
        event_models=event_models or None)


_CONFIG = Param("config", "object", build=_config, fields=(
    *_SEGMENT_FIELDS, _CONTROLLERS,
    Param("event_models", "object", {}, items=_EVENT_MODEL)))
config_from_json = partial(_CONFIG.check, where="config")


def gateway_route_to_json(route: GatewayRoute) -> dict:
    """JSON object for one gateway forwarding relation."""
    return {
        "source_message": route.source_message,
        "destination_message": route.destination_message,
        "source_bus": route.source_bus,
        "destination_bus": route.destination_bus,
        "queue": route.queue,
    }


_ROUTE = Param("route", "object", build=GatewayRoute, fields=(
    *(Param(name, "string", required=True) for name in (
        "source_message", "destination_message", "source_bus",
        "destination_bus")),
    Param("queue", "string", "default")))
_POLICY = Param("policy", "string",
                choices=_values(ForwardingPolicy))


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


def _gateway(routes, policy, queue_capacities, **settings) -> GatewayModel:
    return GatewayModel(routes=list(routes), policy=ForwardingPolicy(policy),
                        queue_capacities=dict(queue_capacities), **settings)


_GATEWAY = Param("gateway", "object", build=_gateway, fields=(
    Param("name", "string", required=True),
    Param("routes", "array", (), items=_ROUTE),
    replace(_POLICY, default=ForwardingPolicy.PERIODIC_POLLING.value),
    Param("polling_period", "float", 5.0), Param("copy_time", "float", 0.05),
    Param("queue_capacities", "object", {},
          items=Param("capacity", "integer"))))


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


_TASK = Param("task", "object", build=lambda kind, **task: Task(
    kind=TaskKind(kind), **task), fields=(
    Param("name", "string", required=True),
    Param("priority", "integer", required=True),
    Param("wcet", "float", required=True), Param("bcet", "float", 0.0),
    Param("kind", "string", TaskKind.PREEMPTIVE.value,
          choices=_values(TaskKind)),
    replace(_EVENT_MODEL, name="activation"),
    replace(_NAMES, name="sends_messages", default=()),
    Param("non_preemptable_region", "float", 0.0)))


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


_ECU = Param("ecu", "object", build=lambda tasks, **ecu: EcuModel(
    tasks=list(tasks), **ecu), fields=(
    Param("name", "string", required=True),
    Param("tasks", "array", (), items=_TASK),
    Param("overheads", "object", OsekOverheads(), build=OsekOverheads,
          fields=(Param("activation", "float", 0.004),
                  Param("termination", "float", 0.003),
                  Param("isr_entry", "float", 0.002),
                  Param("schedule_point", "float", 0.002))),
    Param("timetable", "object", build=TimeTable, fields=(
        Param("period", "float", required=True),
        Param("entries", "array", (), items=Param(
            "entry", "object", build=TimeTableEntry, fields=(
                Param("task_name", "string", required=True),
                Param("offset", "float", required=True))))))))


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


def _system(name, buses, gateways, ecus, controllers) -> SystemModel:
    system = SystemModel(name=name, controllers=dict(controllers))
    for segment in buses:
        system.add_bus(segment)
    for gateway in gateways:
        system.add_gateway(gateway)
    for ecu in ecus:
        system.add_ecu(ecu)
    return system


_SYSTEM = Param("system", "object", build=_system, fields=(
    Param("name", "string", "system"),
    Param("buses", "array", (), items=Param(
        "segment", "object", build=_segment, fields=_SEGMENT_FIELDS)),
    Param("gateways", "array", (), items=_GATEWAY),
    Param("ecus", "array", (), items=_ECU), _CONTROLLERS))
system_from_json = partial(_SYSTEM.check, where="system")


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


def _gateway_config(gateway, policy, **settings) -> GatewayConfigDelta:
    return GatewayConfigDelta(
        gateway, policy=None if policy is None else ForwardingPolicy(policy),
        **settings)


_GATEWAY_NAME = Param("gateway", "string", required=True)
#: A topology delta, tagged by its kind (``sysdelta``); wire names the bus,
#: gateway, ECU and task by ``bus``/``gateway``/``ecu``/``task``.
_SYSTEM_DELTA = Param("system delta", "object", tag="sysdelta", variants=(
    Param("move-message", "object", build=MoveMessageDelta, fields=(
        Param("message_name", "string", required=True),
        Param("to_bus", "string", required=True),
        Param("new_can_id", "integer"))),
    Param("bus-speed", "object", build=lambda bus, bit_rate_bps: (
        BusSpeedDelta(bus, bit_rate_bps)), fields=(
        Param("bus", "string", required=True),
        Param("bit_rate_bps", "float", required=True))),
    Param("add-gateway-route", "object", build=lambda gateway, **route: (
        AddGatewayRouteDelta(gateway, **route)), fields=(
        _GATEWAY_NAME, replace(_ROUTE, required=True),
        Param("polling_period", "float"))),
    Param("remove-gateway-route", "object", build=lambda gateway, **route: (
        RemoveGatewayRouteDelta(gateway, **route)), fields=(
        _GATEWAY_NAME, Param("destination_message", "string",
                             required=True))),
    Param("gateway-config", "object", build=_gateway_config, fields=(
        _GATEWAY_NAME, Param("polling_period", "float"),
        Param("copy_time", "float"), _POLICY)),
    Param("ecu-task", "object", build=lambda ecu, task, **edit: (
        EcuTaskDelta(ecu, task, **edit)), fields=(
        Param("ecu", "string", required=True),
        Param("task", "string", required=True), Param("wcet", "float"),
        Param("bcet", "float"), replace(_EVENT_MODEL, name="activation"))),
    Param("segment-config", "object", build=lambda bus, deltas: (
        SegmentConfigDelta(bus, deltas)), fields=(
        Param("bus", "string", required=True), _DELTAS))))
_SYSTEM_DELTAS = replace(_DELTAS, items=_SYSTEM_DELTA)
system_delta_from_json = partial(_SYSTEM_DELTA.check, where="system delta")
system_deltas_from_json = partial(_SYSTEM_DELTAS.check, where="deltas")


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


#: A cause-effect chain: ``segments`` are ``[kind, reference]`` pairs.
_PATH = Param("path", "object", build=EndToEndPath, fields=(
    Param("name", "string", required=True),
    Param("segments", "array", (), items=replace(_NAMES, name="segment"))))
_PATHS = Param("paths", "array", items=_PATH)
path_from_json = partial(_PATH.check, where="path")
paths_from_json = partial(_PATHS.check, where="paths")


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


def _alert_rule(name, expr, message, **structured) -> AlertRule:
    """A rule from its ``expr`` or from its structured fields: an ``expr``
    states the operator, threshold, scale and window count itself."""
    if expr is not None:
        given = [key for key, value in structured.items() if value is not None]
        if given:
            raise ProtocolError(f"an alert rule with 'expr' takes no {given}")
        return AlertRule.parse(name, expr, message=message)
    if structured["op"] is None or structured["threshold"] is None:
        raise ProtocolError("an alert rule with 'metric' needs 'op' and "
                            "'threshold'")
    if structured["for_windows"] is None:
        del structured["for_windows"]
    return AlertRule(name=name, message=message, **structured)


#: An alert rule, in structured fields or in one-line ``expr`` syntax.
_ALERT_RULE = Param("rule", "object", build=_alert_rule, fields=(
    Param("name", "string", required=True), Param("expr", "string"),
    Param("metric", "string"), Param("op", "string"),
    Param("threshold", "float"), Param("scale", "string"),
    Param("for_windows", "integer"), Param("message", "string")),
    one_of=("expr", "metric"))
_ALERT_RULES = Param("rules", "array", (), items=_ALERT_RULE)
alert_rules_from_json = partial(_ALERT_RULES.check, where="rules")


# --------------------------------------------------------------------------- #
# Requests: one declared parameter table for every op
# --------------------------------------------------------------------------- #
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
_LABEL = Param("label", "string")
_WITH_REPORT = Param("with_report", "boolean", True)

#: Every op of the protocol, declared once: the daemon checks each request
#: against its entry before admission and dispatches by the op's name.
OPS = {op.name: op for op in (
    *(Op(name, control=True) for name in (
        "ping", "health", "stats", "targets", "scenarios")),
    Op("query", fields=(
        _TARGET, _DELTAS, _LABEL, _WITH_REPORT,
        replace(_NAMES, name="message_names"))),
    Op("scenario", fields=(
        Param("target", "string"), Param("system", "string"),
        Param("scenario", "string", required=True)),
       one_of=("target", "system")),
    Op("batch", fields=(_TARGET, Param("queries", "array", (), items=Param(
        "query", "object", fields=(_DELTAS, _LABEL, _WITH_REPORT))))),
    Op("register", fields=(
        Param("name", "string", required=True), _SYSTEM, _CONFIG,
        # The generator's own declarations check its parameters.
        Param("workload", "object", fields=(
            Param("generator", "string", required=True),
            Param("params", "object")))),
       one_of=("system", "config", "workload"), retry="connect"),
    Op("system_query", fields=(
        Param("system", "string", required=True), _SYSTEM_DELTAS, _LABEL,
        _PATHS,
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
        _TARGET, _ALERT_RULES, Param("window_ms", "float"),
        Param("history_windows", "integer"),
        Param("max_arrivals", "integer"), Param("fit_max_n", "integer")),
       retry="connect"),
    # Frame rows are read in columns, by frames_from_json.
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

