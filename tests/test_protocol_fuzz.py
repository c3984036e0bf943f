"""Protocol fuzzer: requests generated from the op table, over TCP.

Every strategy is derived from :data:`repro.server.protocol.OPS`: a valid
request gives each required parameter (and any optional ones) a value of
its declared kind, range and choices; a mutated request then breaks the
declaration in one way -- a required parameter dropped, a value the
declaration rejects (wrong kind, out of range, not a choice), an
undeclared key, or both/neither of an exactly-one group -- and a few carry
an unknown ``op`` instead.

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


def _rejects(param: protocol.Param, value) -> bool:
    """Whether the table refuses ``value`` for ``param``."""
    if value is None:
        return param.required or param.default is not None
    try:
        param.check(value, param.name)
    except protocol.ProtocolError:
        return True
    return False


def _valid(param: protocol.Param):
    """Values the declaration accepts."""
    if param.choices:
        return st.sampled_from(param.choices)
    if param.kind == "string":
        if param.name == "target":
            return st.just(CLEAN) | _TEXT
        if param.name == "system":
            return st.just(SYSTEM) | _TEXT
        return _TEXT
    if param.kind == "boolean":
        return st.booleans()
    if param.kind in ("integer", "number"):
        low = param.minimum if param.minimum is not None else -1000
        integers = st.integers(math.ceil(low), math.ceil(low) + 2000)
        if param.kind == "integer":
            return integers
        return integers | st.floats(low, 1e6)
    if param.kind == "array":
        if param.name == "deltas":
            return st.lists(st.sampled_from(_SAMPLE_DELTAS) | _JSON,
                            max_size=2)
        return st.lists(_valid(param.items) if param.items else _JSON,
                        max_size=3)
    if param.fields:
        return _params(param.fields.values(), param.one_of)
    return st.dictionaries(_TEXT, _valid(param.items) if param.items
                           else _JSON, max_size=3)


def _params(params, one_of=()):
    """Objects giving every required parameter and any optional ones."""
    params = [param for param in params if param.name not in _ENVELOPE]
    grouped = [param for param in params if param.name in one_of]
    required = {param.name: _valid(param) for param in params
                if param.required}
    optional = {param.name: _valid(param) for param in params
                if not param.required and param not in grouped}
    objects = st.fixed_dictionaries(required, optional=optional)
    if not grouped:
        return objects
    return st.tuples(objects, st.sampled_from(grouped).flatmap(
        lambda member: st.tuples(st.just(member.name), _valid(member)))
    ).map(lambda pair: {**pair[0], pair[1][0]: pair[1][1]})


def _mutations(op: protocol.Op, request: dict):
    """Ways to break one valid request of ``op``; each must answer
    ``protocol``."""
    params = [param for name, param in op.fields.items()
              if name not in _ENVELOPE]
    ways = [st.builds(lambda key, value: {**request, key: value},
                      _TEXT.filter(lambda key: key not in op.fields), _JSON)]
    required = [param.name for param in params if param.required]
    if required:
        ways.append(st.sampled_from(required).map(
            lambda name: {k: v for k, v in request.items() if k != name}))
    ways.append(st.sampled_from(params).flatmap(
        lambda param: (_JSON | st.integers() | st.floats()).filter(
            lambda value: _rejects(param, value)).map(
            lambda value: {**request, param.name: value})))
    if op.one_of:
        ways.append(st.just({k: v for k, v in request.items()
                             if k not in op.one_of}))
        absent = [name for name in op.one_of if request.get(name) is None]
        ways.append(st.sampled_from(absent).flatmap(
            lambda extra: _valid(op.fields[extra]).map(
                lambda value: {**request, extra: value})))
    return st.one_of(ways)


@st.composite
def _cases(draw):
    """A request and the code it must answer (``None``: any but
    ``internal``)."""
    op = draw(st.sampled_from(sorted(protocol.OPS)))
    spec = protocol.OPS[op]
    request = {"op": op, **draw(_params(spec.fields.values(), spec.one_of))}
    # A valid shutdown would stop the server: it is only sent mutated.
    if op == "shutdown" or draw(st.booleans()):
        return draw(_mutations(spec, request)), "protocol"
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
