"""Unit tests for empirical traces and arrival-curve wrappers."""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.events.curves as curves
from repro.events.curves import (
    ArrivalCurve,
    EmpiricalEventTrace,
    curve_from_event_model,
    distance_from_event_model,
    fit_periodic_jitter,
    fit_periodic_jitter_many,
    merge_traces,
)
from repro.events.model import PeriodicEventModel, PeriodicWithJitter


class TestEmpiricalEventTrace:
    def test_count_in_window(self):
        trace = EmpiricalEventTrace(timestamps=[0.0, 5.0, 10.0, 15.0])
        assert trace.count_in_window(0.0, 10.0) == 2
        assert trace.count_in_window(0.0, 10.1) == 3
        assert trace.count_in_window(20.0, 10.0) == 0

    def test_add_keeps_order(self):
        trace = EmpiricalEventTrace(timestamps=[5.0, 1.0])
        trace.add(3.0)
        assert trace.timestamps == [1.0, 3.0, 5.0]

    def test_empirical_eta_plus_of_periodic_trace(self):
        trace = EmpiricalEventTrace(timestamps=[i * 10.0 for i in range(10)])
        assert trace.empirical_eta_plus(10.5) == 2
        assert trace.empirical_eta_plus(1.0) == 1

    def test_empirical_delta_functions(self):
        trace = EmpiricalEventTrace(timestamps=[0.0, 9.0, 20.0, 29.0])
        assert trace.empirical_delta_minus(2) == pytest.approx(9.0)
        assert trace.empirical_delta_plus(2) == pytest.approx(11.0)
        assert trace.empirical_delta_minus(5) == 0.0

    def test_inter_arrival_times(self):
        trace = EmpiricalEventTrace(timestamps=[0.0, 2.0, 7.0])
        assert trace.inter_arrival_times() == [2.0, 5.0]

    def test_empty_trace_is_harmless(self):
        trace = EmpiricalEventTrace()
        assert len(trace) == 0
        assert trace.empirical_eta_plus(10.0) == 0
        assert trace.empirical_eta_minus(10.0) == 0

    def test_merge_traces(self):
        merged = merge_traces([
            EmpiricalEventTrace(timestamps=[0.0, 10.0]),
            EmpiricalEventTrace(timestamps=[5.0]),
        ])
        assert merged.timestamps == [0.0, 5.0, 10.0]

    def test_analytic_model_dominates_jittered_trace(self):
        """An analytic model with the trace's parameters must upper-bound it."""
        model = PeriodicWithJitter(period=10.0, jitter=3.0)
        # Simulated arrivals: period 10, each displaced by <= 3 ms.
        offsets = [0.0, 2.5, 1.0, 3.0, 0.5, 2.0]
        trace = EmpiricalEventTrace(
            timestamps=[i * 10.0 + offsets[i % len(offsets)] for i in range(30)])
        for dt in (1.0, 5.0, 10.0, 25.0, 50.0, 100.0):
            assert model.eta_plus(dt) >= trace.empirical_eta_plus(dt)
            assert model.eta_minus(dt) <= trace.empirical_eta_minus(dt)


class TestCurveWrappers:
    def test_curve_from_event_model_delegates(self):
        model = PeriodicEventModel(period=10.0)
        curve = curve_from_event_model(model)
        assert curve.max_events(25.0) == model.eta_plus(25.0)
        assert curve.min_events(25.0) == model.eta_minus(25.0)

    def test_distance_from_event_model_delegates(self):
        model = PeriodicWithJitter(period=10.0, jitter=2.0)
        distance = distance_from_event_model(model)
        assert distance.min_span(3) == model.delta_minus(3)
        assert distance.max_span(3) == model.delta_plus(3)

    def test_dominates(self):
        loose = curve_from_event_model(PeriodicWithJitter(period=10.0, jitter=5.0))
        tight = curve_from_event_model(PeriodicEventModel(period=10.0))
        horizons = [1.0, 10.0, 50.0]
        assert loose.dominates(tight, horizons)
        assert not tight.dominates(loose, horizons)

    def test_trace_to_arrival_curve(self):
        trace = EmpiricalEventTrace(timestamps=[0.0, 10.0, 20.0])
        curve = trace.to_arrival_curve("measured")
        assert isinstance(curve, ArrivalCurve)
        assert curve.max_events(25.0) == 3


# --------------------------------------------------------------------------- #
# Incremental periodic-jitter fit vs a from-scratch oracle
# --------------------------------------------------------------------------- #
def _oracle_jitter(timestamps, period, max_n):
    """The per-``n`` definition, recomputed from scratch on a fresh trace."""
    trace = EmpiricalEventTrace(timestamps)
    limit = len(trace) if max_n is None else min(max_n, len(trace))
    jitter = 0.0
    for n in range(2, limit + 1):
        required = (n - 1) * period - trace.empirical_delta_minus(n)
        if required > jitter:
            jitter = required
    return jitter


#: (period, max_n) pairs the property interleaves on one trace; an int
#: period and ``max_n`` of 1, 2 and None cover the edges of the fold.
_FIT_KEYS = [(10.0, 64), (10.0, 4), (7.3, None), (10, 8), (0.1, 2),
             (10.0, 1)]

_instants = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(_instants, min_size=1,
                                           max_size=6)),
        st.tuples(st.just("late"), _instants),
        st.tuples(st.just("trim"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("fit"), st.integers(min_value=0,
                                              max_value=len(_FIT_KEYS) - 1)),
    ),
    max_size=40,
)


class TestIncrementalJitterFit:
    @settings(max_examples=200, deadline=None)
    @given(operations=_operations)
    def test_fit_equals_from_scratch_oracle(self, operations):
        trace = EmpiricalEventTrace()
        shadow: list[float] = []
        for kind, arg in operations:
            if kind == "add":
                # In-order: each gap lands at or above the high-water mark.
                high = max(shadow, default=0.0)
                for gap in arg:
                    high += gap
                    trace.add(high)
                    shadow.append(high)
            elif kind == "late":
                # Anywhere, usually below the high-water mark.
                trace.add(arg)
                shadow.append(arg)
            elif kind == "trim":
                # Keep the newest ``arg`` arrivals, as the monitor does.
                start = max(len(shadow) - arg, 0)
                shadow = sorted(shadow)[start:]
                trace.timestamps = trace.timestamps[start:]
            else:
                period, max_n = _FIT_KEYS[arg]
                fitted = fit_periodic_jitter(trace, period, max_n=max_n)
                assert fitted.jitter == _oracle_jitter(shadow, period, max_n)
        assert trace.timestamps == sorted(shadow)
        for period, max_n in _FIT_KEYS:
            assert fit_periodic_jitter(trace, period, max_n=max_n).jitter \
                == _oracle_jitter(shadow, period, max_n)

    def test_refit_folds_only_new_arrivals(self):
        trace = EmpiricalEventTrace([i * 10.0 for i in range(100)])
        assert fit_periodic_jitter(trace, 10.0).jitter == 0.0
        assert trace._folds[(10.0, 64)] == (100, 0.0)
        trace.add(995.0)  # 5 ms early: required jitter 5
        assert fit_periodic_jitter(trace, 10.0).jitter == 5.0
        assert trace._folds[(10.0, 64)] == (101, 5.0)

    def test_out_of_order_add_and_trim_reset_the_fold(self):
        trace = EmpiricalEventTrace([0.0, 10.0, 20.0, 30.0])
        fit_periodic_jitter(trace, 10.0)
        trace.add(5.0)
        assert trace._folds == {}
        assert fit_periodic_jitter(trace, 10.0).jitter == \
            _oracle_jitter([0.0, 5.0, 10.0, 20.0, 30.0], 10.0, 64)
        trace.timestamps = trace.timestamps[-2:]
        assert trace._folds == {}
        assert fit_periodic_jitter(trace, 10.0).jitter == 0.0


#: One trace of the batched-fold property: increasing arrival gaps, a
#: period, and the fold state the trace is in when the batch fits it.
_batched_traces = st.lists(
    st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
                 max_size=30),
        st.sampled_from([10.0, 7.3, 0.1, 10]),
        st.sampled_from(["fresh", "partial", "late", "trim"]),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=8,
)


class TestBatchedJitterFit:
    @settings(max_examples=200, deadline=None)
    @given(specs=_batched_traces,
           max_n=st.sampled_from([2, 64, None]),
           cells=st.sampled_from([3, 64, curves._FOLD_CELLS]))
    def test_many_equals_oracle_per_trace(self, specs, max_n, cells):
        """One batched fit over traces in mixed fold states equals the
        from-scratch oracle of each, however the rows are blocked."""
        traces, periods, shadows = [], [], []
        for gaps, period, state, cut in specs:
            times = []
            for gap in gaps:
                times.append((times[-1] if times else 0.0) + gap)
            cut = min(cut, len(times))
            trace = EmpiricalEventTrace(times[:cut])
            shadow = times[:cut]
            if state != "fresh":
                # Fold the prefix, then grow the trace at its end.
                fit_periodic_jitter_many([trace], [period], max_n=max_n)
                trace.extend(times[cut:])
                shadow = list(times)
            if state == "late":
                trace.add(times[0] - 1.0 if times else 0.0)
                shadow.append(times[0] - 1.0 if times else 0.0)
            elif state == "trim":
                trace.timestamps = trace.timestamps[len(shadow) // 2:]
                shadow = sorted(shadow)[len(shadow) // 2:]
            traces.append(trace)
            periods.append(period)
            shadows.append(shadow)
        with patch.object(curves, "_FOLD_CELLS", cells):
            jitters = fit_periodic_jitter_many(traces, periods, max_n=max_n)
        expected = [_oracle_jitter(shadow, period, max_n)
                    for shadow, period in zip(shadows, periods)]
        assert jitters == expected
        for trace, period, jitter in zip(traces, periods, jitters):
            assert trace._folds[(period, max_n)] == (len(trace), jitter)
        # A refit with nothing new folds nothing and answers the same.
        assert fit_periodic_jitter_many(traces, periods, max_n=max_n) == expected

    def test_scalar_fit_is_the_one_trace_batch(self):
        trace = EmpiricalEventTrace([0.0, 8.0, 20.0, 29.0])
        assert fit_periodic_jitter(trace, 10.0).jitter == \
            fit_periodic_jitter_many([EmpiricalEventTrace(trace.timestamps)],
                                     [10.0])[0] == 2.0

    def test_rejects_bad_periods_and_lengths(self):
        trace = EmpiricalEventTrace([0.0, 10.0])
        with pytest.raises(ValueError, match="period"):
            fit_periodic_jitter_many([trace, trace], [10.0, 0.0])
        assert trace._folds == {}
        with pytest.raises(ValueError):
            fit_periodic_jitter_many([trace], [10.0, 5.0])
        assert fit_periodic_jitter_many([], []) == []

    def test_extend_matches_one_add_per_timestamp(self):
        added = EmpiricalEventTrace([0.0, 10.0])
        extended = EmpiricalEventTrace([0.0, 10.0])
        for trace in (added, extended):
            fit_periodic_jitter(trace, 10.0)
        for value in (20.0, 30.0):
            added.add(value)
        extended.extend([20.0, 30.0])
        assert added._folds == extended._folds != {}
        extended.extend([40.0, 35.0])
        assert extended._folds == {}
        assert extended.timestamps == [0.0, 10.0, 20.0, 30.0, 35.0, 40.0]
