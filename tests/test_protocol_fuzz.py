"""Protocol fuzzer: requests generated from the op table, over TCP.

Every strategy is derived from :data:`repro.server.protocol.OPS` and the
declarations it nests: a valid request gives each required parameter (and
any optional ones) a value of its declared kind, range and choices, at
every depth -- deltas, system deltas, paths, alert rules and register
payloads follow their declarations, a tagged union takes one of its
variants, and a named workload one builtin generator's declared
parameters.  A mutated request then breaks one declaration, at the top or
inside one nested object, in one way -- a required field dropped, a value
the declaration rejects (wrong kind, non-finite, out of range, not a
choice), an undeclared key, an unknown or missing tag, or both/neither of
an exactly-one group -- and a few carry an unknown ``op`` instead.

Whatever is sent, the daemon must answer each line with exactly one
response carrying the request's ``id`` and, when it fails, a code from the
taxonomy other than ``internal``; a mutated request must answer
``protocol``, an unknown op ``invalid``.  The connection must survive,
and the next clean ``query`` must still bit-match a from-scratch
``analyze_all``.
"""

from __future__ import annotations

import json
import math
import socket
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import AnalysisDaemon, start_server
from repro.server import protocol
from repro.service.deltas import BusConfiguration, JitterDelta, PriorityDelta
from repro.workloads.multibus import multibus_system
from repro.workloads.registry import builtin_registry
from repro.workloads.powertrain import (
    PowertrainConfig,
    powertrain_bus,
    powertrain_kmatrix,
)

#: Longer than any generated string, so no generated name can collide
#: with them (a generated ``register`` could otherwise replace them).
CLEAN = "fuzz-clean-target"
SYSTEM = "fuzz-clean-system"
_TEXT = st.text(max_size=8)
#: Every request's ``op`` and ``id``: the fuzzer sets them itself.
_ENVELOPE = ("op", "id")

_CONFIG = BusConfiguration(
    kmatrix=powertrain_kmatrix(PowertrainConfig(n_messages=12)),
    bus=powertrain_bus(PowertrainConfig(n_messages=12)),
    assumed_jitter_fraction=0.15)
_NAMES = [message.name for message in _CONFIG.kmatrix.sorted_by_priority()]

#: Deltas that decode and analyse (and converge) on the clean target, so
#: some generated queries and batch steps really run and cache a mutated
#: configuration next to the clean one.
_SAMPLE_DELTAS = [protocol.delta_to_json(delta) for delta in (
    JitterDelta(fraction=0.3),
    JitterDelta(message_name=_NAMES[-1], jitter=2.0),
    PriorityDelta(swap=(_NAMES[0], _NAMES[1])),
)]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1e6, 1e6) | _TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=6)


#: Each builtin generator's parameters, as one object declaration.
_WORKLOADS = {name: protocol.Param(name, "object",
                                   fields=builtin_registry().get(name).params)
              for name in builtin_registry().names()}
#: Small valid workload parameters, so a generated registration expands
#: to a small topology.
_WORKLOAD_VALUES = {"integer": st.integers(0, 6),
                    "float": st.floats(0.0, 1e3) | st.integers(0, 6),
                    "string": _TEXT}
#: Nesting below which generated arrays are empty: an error model nests
#: error models.
_DEPTH = 3


def _rejects(param: protocol.Param, value) -> bool:
    """Whether the table refuses ``value`` for ``param`` (a field, where
    ``null`` reads as absent when the default is ``None``)."""
    if value is None:
        return param.required or param.default is not None
    try:
        param.check(value, param.name)
    except protocol.ProtocolError:
        return True
    except (KeyError, ValueError, TypeError):
        pass  # accepted by the table, refused by its domain object
    return False


def _valid(param: protocol.Param, depth: int = 0):
    """Values the declaration accepts."""
    if param.choices:
        return st.sampled_from(param.choices)
    if param.variants:
        return st.sampled_from(sorted(param.variants)).flatmap(
            lambda tag: _object(param.variants[tag], depth).map(
                lambda body: {param.tag: tag, **body}))
    if param.name == "workload":
        return st.sampled_from(sorted(_WORKLOADS)).flatmap(
            lambda generator: st.fixed_dictionaries(
                {"generator": st.just(generator),
                 "params": st.fixed_dictionaries({}, optional={
                     name: _WORKLOAD_VALUES[field.kind] for name, field
                     in _WORKLOADS[generator].fields.items()})}))
    if param.kind == "string":
        if param.name == "target":
            return st.just(CLEAN) | _TEXT
        if param.name == "system":
            return st.just(SYSTEM) | _TEXT
        return _TEXT
    if param.kind == "boolean":
        return st.booleans()
    if param.kind in ("integer", "number", "float"):
        low = param.minimum if param.minimum is not None else -1000
        integers = st.integers(math.ceil(low), math.ceil(low) + 2000)
        if param.kind == "integer":
            return integers
        return integers | st.floats(low, 1e6)
    if param.kind == "array":
        if param.items is None:
            return st.lists(_JSON, max_size=3)
        if depth >= _DEPTH:
            return st.just([])
        items = _valid(param.items, depth + 1)
        if param.items.tag == "delta":
            items = st.sampled_from(_SAMPLE_DELTAS) | items
        return st.lists(items, max_size=2)
    if param.fields:
        return _object(param, depth)
    return st.dictionaries(_TEXT, _valid(param.items, depth + 1)
                           if param.items else _JSON, max_size=3)


def _object(param: protocol.Param, depth: int, envelope=()):
    """Objects giving every required field of ``param`` and any optional
    ones (``envelope``: fields the fuzzer sets itself)."""
    fields = [field for name, field in param.fields.items()
              if name not in envelope]
    grouped = [field for field in fields if field.name in param.one_of]
    required = {field.name: _valid(field, depth) for field in fields
                if field.required}
    optional = {field.name: _valid(field, depth) for field in fields
                if not field.required and field not in grouped}
    objects = st.fixed_dictionaries(required, optional=optional)
    if not grouped:
        return objects
    return st.tuples(objects, st.sampled_from(grouped).flatmap(
        lambda member: st.tuples(st.just(member.name),
                                 _valid(member, depth)))
    ).map(lambda pair: {**pair[0], pair[1][0]: pair[1][1]})


def _rejected(param: protocol.Param):
    """Values the table refuses for ``param``."""
    return (_JSON | st.integers() | st.floats()).filter(
        lambda value: _rejects(param, value))


def _broken(param: protocol.Param, value):
    """``value``, valid for ``param``, broken in one declared way: here
    or inside one element, map value or field it nests."""
    if param.variants:
        body = param.variants[value[param.tag]]
        return st.one_of(
            st.just({k: v for k, v in value.items() if k != param.tag}),
            _JSON.filter(lambda tag: not (
                isinstance(tag, str) and tag in param.variants)).map(
                lambda tag: {**value, param.tag: tag}),
            _broken_object(body, value, skip=(param.tag,)))
    if param.name == "workload":
        return _broken_object(param, value, nested={
            "params": _WORKLOADS[value["generator"]]})
    if param.fields:
        return _broken_object(param, value)
    if param.items is not None and value:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        return st.sampled_from(keys).flatmap(
            lambda key: _broken(param.items, value[key]).map(
                lambda item: _replaced(value, key, item)))
    return _rejected(param)


def _replaced(container, key, item):
    if isinstance(container, dict):
        return {**container, key: item}
    return [*container[:key], item, *container[key + 1:]]


def _broken_object(param: protocol.Param, value: dict, skip=(),
                   nested=None):
    """An object of ``param`` broken in one declared way (``skip``: keys
    it does not own; ``nested``: declarations of its free-form fields)."""
    fields = [field for name, field in param.fields.items()
              if name not in skip]
    ways = [st.builds(lambda key, item: {**value, key: item},
                      _TEXT.filter(lambda key: key not in param.fields
                                   and key not in skip), _JSON)]
    required = [field.name for field in fields if field.required]
    if required:
        ways.append(st.sampled_from(required).map(
            lambda name: {k: v for k, v in value.items() if k != name}))
    if fields:
        ways.append(st.sampled_from(fields).flatmap(
            lambda field: _rejected(field).map(
                lambda item: {**value, field.name: item})))
    if param.one_of:
        ways.append(st.just({k: v for k, v in value.items()
                             if k not in param.one_of}))
        absent = [name for name in param.one_of if value.get(name) is None]
        ways.append(st.sampled_from(absent).flatmap(
            lambda extra: _valid(param.fields[extra]).map(
                lambda item: {**value, extra: item})))
    nested = {**{field.name: field for field in fields
                 if field.items or field.fields or field.variants},
              **(nested or {})}
    deeper = [name for name in nested if value.get(name) is not None]
    if deeper:
        ways.append(st.sampled_from(deeper).flatmap(
            lambda name: _broken(nested[name], value[name]).map(
                lambda item: {**value, name: item})))
    return st.one_of(ways)


@st.composite
def _cases(draw):
    """A request and the code it must answer (``None``: any but
    ``internal``)."""
    op = draw(st.sampled_from(sorted(protocol.OPS)))
    spec = protocol.OPS[op]
    request = {"op": op, **draw(_object(spec, 0, envelope=_ENVELOPE))}
    # A valid shutdown would stop the server: it is only sent mutated.
    if op == "shutdown" or draw(st.booleans()):
        return draw(_broken_object(spec, request, skip=_ENVELOPE)), \
            "protocol"
    if draw(st.integers(0, 9)) == 0:
        unknown = draw(_JSON.filter(lambda value: not (
            isinstance(value, str) and value in protocol.OPS)))
        return {**request, "op": unknown}, "invalid"
    return request, None


class _Line:
    """One raw TCP connection speaking the line protocol."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.reader = self.sock.makefile("rb")
        self.ids = count(1)

    def call(self, request: dict) -> dict:
        request = {**request, "id": next(self.ids)}
        # Not the strict codec: generated values may be non-finite.
        self.sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        line = self.reader.readline()
        assert line, "the daemon closed the connection"
        response = protocol.decode_line(line)
        assert response.get("id") == request["id"], response
        return response

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture(scope="module")
def served():
    """A TCP connection to a daemon serving the clean target, and the
    clean target's from-scratch results as the wire encodes them."""
    daemon = AnalysisDaemon(name="fuzz")
    daemon.add_config(CLEAN, _CONFIG)
    daemon.add_system(SYSTEM, multibus_system(
        n_buses=2, messages_per_bus=4, seed=7))
    expected = {name: protocol.result_to_json(result) for name, result
                in _CONFIG.build_analysis().analyze_all().items()}
    server = start_server(daemon, port=0)
    line = _Line(server.address)
    try:
        yield line, expected
    finally:
        line.close()
        server.stop()


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(case=_cases())
def test_every_request_gets_one_typed_answer(served, case):
    line, expected = served
    request, code = case
    response = line.call(request)
    if not response["ok"]:
        assert response["code"] in protocol.ERROR_CODES, response
        assert response["code"] != "internal", (request, response)
    if code is not None:
        assert response.get("code") == code, (request, response)
    clean = line.call({"op": "query", "target": CLEAN, "with_report": False})
    assert clean["ok"], clean
    assert clean["result"]["results"] == expected
