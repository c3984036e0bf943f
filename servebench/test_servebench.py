"""Tests of the serving benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python -m pytest
servebench``.
"""

from __future__ import annotations

import os
import types

import pytest

from answers import bus_reference, check_query, check_status_read
from ledger import (
    END,
    START,
    RequestLedger,
    SpanRecorder,
    covered,
    self_times,
)
from loadgen import cpu_seconds, peak_rss_mib, percentile, summarize


# -- percentiles -------------------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_reports_the_sample_behind_a_percentile():
    summary = summarize(list(range(1, 101)), 99)
    assert summary["n"] == 100
    assert summary["value"] == pytest.approx(99.01)
    assert summary["beyond"] == 1  # only 100 lies above p99
    assert summarize([1.0, 2.0, 3.0, 4.0], 50)["beyond"] == 2


# -- spans and self time -----------------------------------------------------
def _span(name, start, end, parent=None, request=1, meta=None):
    return [name, start, end, parent, request, meta]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("handle", 0.0, 10.0),
        _span("query", 1.0, 4.0, parent=0),
        _span("query", 3.0, 6.0, parent=0),   # overlaps its sibling
        _span("solve", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),   # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)


def test_ledger_counts_nested_spans_of_one_name_once():
    spans = [
        _span("decode", 0.0, 0.5, request=7),
        _span("handle", 0.5, 10.0, request=7, meta="query"),
        _span("query", 1.0, 6.0, parent=1, request=7),
        _span("query", 2.0, 3.0, parent=2, request=7),
        _span("handle", 20.0, 21.0, request=8, meta="query"),
    ]
    ledger = RequestLedger(spans, roots=[1])
    assert ledger.requests == 1
    assert ledger.inclusive["query"] == pytest.approx(5.0)
    assert ledger.calls["query"] == 2
    assert ledger.inclusive["decode"] == pytest.approx(0.5)
    assert ledger.per_request_ms("handle", "self") == pytest.approx(4500.0)
    assert "handle" in ledger.inclusive and ledger.calls["handle"] == 1


def test_recorder_wraps_nests_propagates_and_uninstalls():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    recorder = SpanRecorder(request_starts={"outer"})
    recorder.wrap(module, "inner", "inner", meta=lambda a, k, r: r)
    recorder.wrap(module, "outer", "outer")
    assert module.outer(1) == 4
    index = recorder.open("outer")
    bound = recorder.bind(module.inner)
    recorder.close(index)
    assert bound(5) == 6
    recorder.uninstall()
    assert module.outer(1) == 4
    spans = recorder.to_json()
    names = [span[0] for span in spans]
    assert names.count("outer") == 2 and names.count("inner") == 2
    outer, inner = spans[0], spans[1]
    assert inner[3] == 0 and inner[5] == 2 and inner[4] == outer[4]
    assert spans[3][3] == 2 and spans[3][4] == spans[2][4]  # bound call
    assert all(span[START] <= span[END] for span in spans)
    assert len(recorder.to_json()) == 4  # uninstalled: no new spans


# -- /proc readers -----------------------------------------------------------
def test_proc_readers_parse_stat_and_status(tmp_path):
    proc = tmp_path / "4242"
    proc.mkdir()
    ticks = os.sysconf("SC_CLK_TCK")
    # A command name with spaces and a parenthesis must not shift fields.
    fields = ["S", "1", "1", "1", "0", "-1", "0", "0", "0", "0", "0",
              str(3 * ticks), str(ticks), "0", "0"]
    (proc / "stat").write_text("4242 (odd) name) " + " ".join(fields))
    (proc / "status").write_text("Name:\tx\nVmPeak:\t9 kB\nVmHWM:\t 2048 kB\n")
    assert cpu_seconds(4242, proc_root=str(tmp_path)) == pytest.approx(4.0)
    assert peak_rss_mib(4242, proc_root=str(tmp_path)) == pytest.approx(2.0)


def test_proc_readers_on_this_process():
    before = cpu_seconds(os.getpid())
    total = 0
    while cpu_seconds(os.getpid()) - before < 0.02:
        total += sum(range(10000))
    assert peak_rss_mib(os.getpid()) > 1.0


# -- answer checking ---------------------------------------------------------
@pytest.fixture(scope="module")
def small_config():
    from repro.can.bus import CanBus
    from repro.can.kmatrix import KMatrix
    from repro.can.message import CanMessage
    from repro.service.deltas import BusConfiguration
    kmatrix = KMatrix([
        CanMessage("A", 0x100, dlc=8, period=10.0, sender="E1"),
        CanMessage("B", 0x200, dlc=8, period=20.0, sender="E2"),
        CanMessage("C", 0x300, dlc=4, period=50.0, sender="E1"),
    ])
    return BusConfiguration(kmatrix=kmatrix, bus=CanBus("Bus", 500_000.0))


def test_answer_checker_accepts_the_daemon_answer(small_config):
    from repro.server import AnalysisDaemon, InProcessClient
    from repro.service.deltas import JitterDelta
    deltas = (JitterDelta(message_name="B", jitter=3.0),)
    with AnalysisDaemon() as daemon:
        daemon.add_config("bus", small_config)
        answer = InProcessClient(daemon).query("bus", deltas)
    assert check_query(answer, bus_reference(small_config, deltas)) is None


def test_answer_checker_rejects_a_doctored_result(small_config):
    expected = bus_reference(small_config, ())
    doctored = {"results": {name: {"worst_case": value}
                            for name, value in expected.items()}}
    assert check_query(doctored, expected) is None
    doctored["results"]["C"]["worst_case"] += 1e-9
    problem = check_query(doctored, expected)
    assert problem is not None and "C" in problem
    del doctored["results"]["C"]
    assert "keys differ" in check_query(doctored, expected)


def test_status_read_must_match_a_replay_state():
    states = {(0, 0, 0), (256, 0, 1)}
    assert check_status_read(
        {"frames": 256, "violations": 0, "refits": 1}, states) is None
    assert check_status_read(
        {"frames": 256, "violations": 1, "refits": 1}, states) is not None
