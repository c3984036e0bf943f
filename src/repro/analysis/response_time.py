"""Worst-case response-time analysis for CAN messages.

The analysis follows the classical fixed-priority non-preemptive busy-period
formulation introduced by Tindell & Burns for CAN and corrected by Davis,
Burns, Bril & Lukkien (2007):

* a message can be blocked by at most one lower-priority frame that already
  won arbitration (plus controller-internal blocking, Section 3.2 of the
  paper);
* all higher-priority frames queued before the message starts transmission
  delay it; their arrivals are bounded by their standard event models
  (periodic with jitter / burst), which generalises the classical
  ``ceil((w + J_k + tau_bit) / T_k)`` term;
* bus errors add recovery and retransmission overhead according to the
  configured :class:`~repro.errors.ErrorModel`;
* when the busy period extends beyond the message's period, all instances
  inside the busy period must be analysed (the Davis et al. revision).

All times are in milliseconds.

Analysis kernel
---------------
:class:`CanBusAnalysis` is the hot primitive of the whole library: the jitter
sweeps of Figure 4/5, the GA of Section 4.3 and the compositional engine all
reduce to many ``analyze_all`` calls.  The class therefore builds, once per
instance, one bus-wide *interference table*: an ``(n, 4)`` float64 array with
one ``(transmission_time, period, jitter, min_distance)`` row per message in
K-Matrix order, plus a ``{row: model}`` map of the event models that override
``eta_plus``.  Each message's kernel holds only structural data -- its own
row, transmission times, blocking, error-retransmission bound and
``hp_rows``, the table rows of its higher-priority messages in K-Matrix
order (so float summation order -- and hence every result bit -- matches
the naive formulation retained in :mod:`repro.analysis.reference`).  The
busy-period and queuing-delay fixed points of all requested messages then
run in lockstep over ``table[hp_rows]`` in :class:`repro.analysis.vector.
BatchSolver` instead of re-deriving priority sets, event models, blocking
terms and horizons on every iteration.  Rows whose event model overrides
``eta_plus`` are evaluated through the model itself.

Kernels carry no event model, so two analyses of the same structure (same
K-Matrix order, identifiers, transmission times, senders, controllers and
bus) have identical kernels: a what-if that only changes jitters, event
models or the error model shares its basis's kernels outright
(:meth:`CanBusAnalysis.adopt_kernels`) and differs from it only in the
O(n) table.

Because the right-hand side of each fixed point depends on the iterate only
through *integer* activation counts (the ``eta_plus`` values and the error
count), successive iterates are sums of the same quantities and the iteration
is run to exact float equality (``new_w == w``) instead of a ``1e-9`` delta:
once the activation counts stop changing the iterate reproduces itself
bit-for-bit, which both terminates earlier and makes results independent of
the convergence epsilon.

Warm starts
-----------
``analyze_all(warm_start=...)`` and ``response_time(message, warm_start=...)``
seed each fixed point from a previous :class:`MessageResponseTime` (its
``busy_period`` and per-instance ``queuing_delays``).  The contract is:

    A seed is only valid when it is a **known lower bound** of the new least
    fixed point -- i.e. when it is the converged solution of an analysis
    whose right-hand side is pointwise less than or equal to the current one
    (same priorities and transmission times; jitters no larger; periods
    equal; minimum distances no smaller; error model no harsher).

Under that contract the warm-started iteration converges to *exactly* the
same least fixed point as a cold start (monotone iteration from any point
below the least fixed point cannot cross it), so warm-started sweeps remain
bit-identical to cold ones while skipping most iterations.  Sweeping the
assumed jitter fraction upwards, repeating a bus analysis inside the global
engine with non-decreased jitters, or hardening the error model along a
sweep all satisfy the contract.  Seeds that might overshoot (e.g. results of
a *different* priority assignment) must not be passed: the iteration could
land on a larger fixed point and silently lose exactness.

The contract's model-level half is machine-checked by
:func:`_model_dominates` and :func:`_error_model_dominates` below; the
what-if session planner and the compositional engine's reference sweep both
decide their warm starts with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.analysis import vector as _vector
from repro.cancel import CancelToken
from repro.can.bus import CanBus
from repro.can.controller import ControllerModel
from repro.can.kmatrix import KMatrix
from repro.can.message import CanMessage
from repro.errors.models import (
    BurstErrorModel,
    CompositeErrorModel,
    ErrorModel,
    NoErrors,
    SporadicErrorModel,
)
from repro.events.model import EventModel


#: Safety valve for the fixed-point iterations: if a busy period grows beyond
#: this many times the largest period involved, the configuration is treated
#: as unschedulable (response time unbounded for practical purposes).
_MAX_BUSY_PERIOD_FACTOR = 1000.0

#: Base implementation of the arrival curve; event models that do not
#: override it are evaluated from their interference-table row.
_BASE_ETA_PLUS = EventModel.eta_plus


@dataclass(frozen=True)
class MessageResponseTime:
    """Analysis result for one message.

    ``queuing_delays`` records the converged queuing-delay fixed point of
    every instance analysed inside the busy period; it is what warm-started
    re-analyses (see the module docstring) use as seeds.
    """

    name: str
    can_id: int
    transmission_time: float
    blocking: float
    jitter: float
    worst_case: float
    best_case: float
    busy_period: float
    instances_analyzed: int
    bounded: bool = True
    queuing_delays: tuple[float, ...] = ()

    @property
    def response_interval(self) -> float:
        """Width of the response-time interval (drives output jitter)."""
        if not self.bounded:
            return math.inf
        return self.worst_case - self.best_case

    def describe(self) -> str:
        """One-line summary used in reports."""
        wc = f"{self.worst_case:.3f}" if self.bounded else "unbounded"
        return (f"{self.name}: R=[{self.best_case:.3f}, {wc}] ms "
                f"(C={self.transmission_time:.3f}, B={self.blocking:.3f}, "
                f"J={self.jitter:.3f})")


def best_case_response_time(message: CanMessage, bus: CanBus) -> float:
    """Best-case response time: the frame wins arbitration immediately.

    No interference, no blocking, no stuff bits beyond the fixed format.
    """
    return bus.best_case_transmission_time(message)


# --------------------------------------------------------------------------- #
# Warm-start predicates (the contract of the module docstring, machine-checked)
# --------------------------------------------------------------------------- #
def _models_identical(old: EventModel, new: EventModel) -> bool:
    """Bit-identical event models (same class, same parameters)."""
    return type(old) is type(new) and old == new


def _model_dominates(old: EventModel, new: EventModel) -> bool:
    """Whether ``new.eta_plus >= old.eta_plus`` pointwise.

    Periods must be equal, jitter must not shrink, and a burst-limiting
    minimum distance may tighten, be dropped -- or **appear**, provided the
    cap curve ``ceil(dt/d) + 1`` never dips below the old jitter curve
    ``ceil((dt + J_old) / T)``.  Writing ``x_k = (k-1)*T - J_old`` for the
    infimum window at which the old curve reaches ``k`` events, the cap
    right after ``x_k`` is ``floor(x_k/d) + 2``, so dominance needs
    ``floor(x_k/d) >= k - 2`` for every ``k >= 3``; the deficit shrinks by
    at least ``T/d - 1`` per step, so with ``d <= T`` the ``k = 3`` check
    ``2*T - J_old >= d`` settles all of them (and implies ``J_old < 2*T``,
    which covers ``k <= 2``).  This is exactly the compositional engine's
    iteration-2 shape: a gateway output model gains a transmission-time
    minimum distance far below the period, which caps bursts without ever
    lowering the curve.  Models with a custom ``eta_plus`` are only
    accepted when literally unchanged.
    """
    if (type(old).eta_plus is not _BASE_ETA_PLUS
            or type(new).eta_plus is not _BASE_ETA_PLUS):
        return _models_identical(old, new)
    if new.period != old.period or new.jitter < old.jitter:
        return False
    if new.min_distance != old.min_distance:
        if new.min_distance == 0.0:
            pass  # dropping the cap only raises eta_plus
        elif 0.0 < old.min_distance and \
                new.min_distance <= old.min_distance:
            pass  # tightening the cap only raises eta_plus
        elif old.min_distance == 0.0 and (
                new.min_distance <= old.period
                and 2.0 * old.period - old.jitter >= new.min_distance):
            pass  # a cap appeared, entirely above the old jitter curve
        else:
            return False
    return True


def _error_model_dominates(old: ErrorModel, new: ErrorModel) -> bool:
    """Whether ``new.overhead >= old.overhead`` pointwise (conservative).

    Unknown combinations return ``False`` and force a cold start, never a
    wrong warm start.
    """
    if old == new:
        return True
    if isinstance(old, NoErrors) or type(old) is ErrorModel:
        return True
    if isinstance(old, SporadicErrorModel) and isinstance(
            new, SporadicErrorModel):
        return new.min_interarrival <= old.min_interarrival
    if isinstance(old, BurstErrorModel) and isinstance(new, BurstErrorModel):
        return (new.min_interarrival <= old.min_interarrival
                and new.burst_length >= old.burst_length
                and new.intra_burst_gap <= old.intra_burst_gap)
    if isinstance(old, CompositeErrorModel) and isinstance(
            new, CompositeErrorModel):
        if len(old.components) != len(new.components):
            return False
        return all(_error_model_dominates(o, n) for o, n in
                   zip(old.components, new.components))
    return False


class _MessageKernel:
    """Structural per-message data of the analysis (see the module docstring).

    ``row`` is the message's own row of the bus-wide interference table and
    ``hp_rows`` an int64 array of its higher-priority rows in K-Matrix
    order.  No event model is referenced, so a kernel is valid for every
    analysis of the same structure and is shared, never mutated.
    """

    __slots__ = ("row", "own_c", "best_c", "blocking", "retransmit",
                 "hp_rows")


class CanBusAnalysis:
    """Response-time analysis of all messages sharing one CAN bus.

    Parameters
    ----------
    kmatrix:
        Communication matrix of the bus.
    bus:
        Bus configuration (bit rate, stuffing assumption).
    error_model:
        Bus-error model adding recovery/retransmission overhead; defaults to
        an error-free bus.
    assumed_jitter_fraction:
        Jitter assumed for messages whose jitter the K-Matrix does not
        specify, expressed as a fraction of the message period (the knob the
        paper sweeps from 0 % to 60 %).
    controllers:
        Optional per-ECU controller models adding internal blocking.
    event_models:
        Optional externally supplied activation models (used by the
        compositional engine to inject gateway output models); by default
        each message's own K-Matrix event model is used.
    """

    def __init__(
        self,
        kmatrix: KMatrix,
        bus: CanBus,
        error_model: ErrorModel | None = None,
        assumed_jitter_fraction: float = 0.0,
        controllers: Mapping[str, ControllerModel] | None = None,
        event_models: Mapping[str, EventModel] | None = None,
    ) -> None:
        self.kmatrix = kmatrix
        self.bus = bus
        self.error_model = error_model if error_model is not None else NoErrors()
        self.assumed_jitter_fraction = assumed_jitter_fraction
        self.controllers = dict(controllers or {})
        self._external_event_models = dict(event_models or {})
        self._transmission_times = {
            m.name: bus.transmission_time(m) for m in kmatrix
        }
        self._best_case_times = {
            m.name: bus.best_case_transmission_time(m) for m in kmatrix
        }
        self._bit_time = bus.bit_time_ms
        self._recovery = bus.error_recovery_time()
        self._no_errors = isinstance(self.error_model, NoErrors)
        # Event models are frozen once: every fixed-point iteration reads
        # them, so they must not be rebuilt per call.
        self._models = {m.name: self._resolve_event_model(m) for m in kmatrix}
        # The bus-wide interference table: one (transmission_time, period,
        # jitter, min_distance) row per message in K-Matrix order, and the
        # rows whose model overrides eta_plus.
        self._rows = {name: row for row, name in enumerate(self._models)}
        self._table = np.array(
            [(self._transmission_times[name], model.period, model.jitter,
              model.min_distance) for name, model in self._models.items()],
            dtype=np.float64).reshape(-1, 4)
        self._custom = {
            row: model for row, model in enumerate(self._models.values())
            if type(model).eta_plus is not _BASE_ETA_PLUS}
        self._ids = np.array([m.can_id for m in kmatrix], dtype=np.int64)
        # One divergence horizon for the whole bus (the per-message horizon
        # of the naive formulation always evaluates to this global value).
        self._horizon = _MAX_BUSY_PERIOD_FACTOR * max(
            (m.period for m in kmatrix), default=1.0)
        # Profiling accumulator (a monotonic plain int, mirroring
        # BatchSolver's): total lockstep iterations.  Always-on; the
        # service layer reads deltas and publishes them to its metrics
        # registry once per solve.
        self.profile_iterations = 0
        # Per-message kernels, built lazily so single-message queries do not
        # pay the full O(n^2) higher-priority row construction.
        self._kernels: dict[str, _MessageKernel] = {}
        # Blocking terms are O(n) each and queried both by the what-if
        # planner (before any kernel exists) and by kernel construction.
        self._blocking: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Model accessors
    # ------------------------------------------------------------------ #
    def _resolve_event_model(self, message: CanMessage) -> EventModel:
        if message.name in self._external_event_models:
            return self._external_event_models[message.name]
        return message.event_model(self.assumed_jitter_fraction)

    def transmission_time(self, message: CanMessage) -> float:
        """Worst-case transmission time of ``message`` on the analysed bus."""
        return self._transmission_times[message.name]

    def event_model(self, message: CanMessage) -> EventModel:
        """Activation model of ``message`` (external override or K-Matrix)."""
        model = self._models.get(message.name)
        if model is None:
            model = self._resolve_event_model(message)
        return model

    def jitter(self, message: CanMessage) -> float:
        """Queuing jitter of ``message`` used by the analysis."""
        return self.event_model(message).jitter

    def blocking(self, message: CanMessage) -> float:
        """Worst-case blocking: one lower-priority frame plus controller term."""
        value = self._blocking.get(message.name)
        if value is None:
            value = self._compute_blocking(message)
            self._blocking[message.name] = value
        return value

    def _compute_blocking(self, message: CanMessage) -> float:
        lower = self.kmatrix.lower_priority_than(message)
        bus_blocking = max(
            (self._transmission_times[m.name] for m in lower), default=0.0)
        controller = self.controllers.get(message.sender)
        internal = 0.0
        if controller is not None:
            same_ecu_lower = {
                m.name: self._transmission_times[m.name]
                for m in self.kmatrix.sent_by(message.sender)
                if m.can_id > message.can_id
            }
            internal = controller.internal_blocking(message.name, same_ecu_lower)
        return bus_blocking + internal

    # ------------------------------------------------------------------ #
    # Kernel construction
    # ------------------------------------------------------------------ #
    def _kernel(self, message: CanMessage) -> _MessageKernel:
        kernel = self._kernels.get(message.name)
        if kernel is None:
            kernel = self._build_kernel(message)
            self._kernels[message.name] = kernel
        return kernel

    def _build_kernel(self, message: CanMessage) -> _MessageKernel:
        kernel = _MessageKernel()
        kernel.row = self._rows[message.name]
        kernel.own_c = self._transmission_times[message.name]
        kernel.best_c = self._best_case_times[message.name]
        kernel.blocking = self.blocking(message)
        kernel.hp_rows = np.flatnonzero(self._ids < message.can_id)
        kernel.retransmit = max(
            [kernel.own_c] + self._table[kernel.hp_rows, 0].tolist())
        return kernel

    def adopt_kernels(self, basis: "CanBusAnalysis") -> None:
        """Share ``basis``'s kernels and blocking terms with this analysis.

        Precondition (the caller must guarantee it -- the what-if session's
        planner does): ``basis`` analyses the *same* K-Matrix list order,
        identifiers, transmission times, senders, controllers and bus as
        this analysis.  Kernels and blocking depend on nothing else, so the
        two analyses may differ in every event model and in the bus-error
        model and still share both caches by reference.  Kernels are
        immutable and deterministic, so a racing duplicate lazy build in
        either analysis stores an identical value.
        """
        self._kernels = basis._kernels
        self._blocking = basis._blocking

    # ------------------------------------------------------------------ #
    # Public analysis entry points
    # ------------------------------------------------------------------ #
    def response_time(
        self,
        message: CanMessage,
        warm_start: MessageResponseTime | None = None,
        cancel: CancelToken | None = None,
    ) -> MessageResponseTime:
        """Worst-case (and best-case) response time of one message.

        ``warm_start`` seeds the busy-period and per-instance queuing-delay
        fixed points from a previous result; see the module docstring for the
        monotonicity contract that keeps the seeded analysis exact.
        ``cancel`` (see :mod:`repro.cancel`) is checked between fixed-point
        iterations; a fired token raises instead of running to the cap.
        A one-item :meth:`response_times_batch`.
        """
        return self.response_times_batch(
            [(message, warm_start)], cancel=cancel)[message.name]

    def response_times_batch(
        self,
        items: Sequence[tuple[CanMessage, MessageResponseTime | None]],
        cancel: CancelToken | None = None,
    ) -> dict[str, MessageResponseTime]:
        """Response times of many ``(message, warm_start)`` pairs at once.

        All messages are solved in lockstep by :class:`repro.analysis.
        vector.BatchSolver`: one busy-period pass over all messages, then
        one queuing-delay pass over all analysed instances, each evaluating
        every activation count with :func:`repro.analysis.vector.
        _eta_plus_vec` as array operations.  Warm seeds follow the
        lower-bound contract of the module docstring and are applied in
        the same batch, so a warm what-if re-converges in a couple of
        numpy passes.  A seed the what-if session proves still exact with
        that same count is reused and never reaches this method.

        The returned dict preserves ``items`` order.
        """
        batch = [(message, self._kernel(message), warm)
                 for message, warm in items]
        if not batch:
            return {}
        solver = _vector.BatchSolver(
            [kernel for _, kernel, _ in batch], self._table, self._custom,
            self._bit_time, self._recovery, self._horizon,
            None if self._no_errors else self.error_model,
            cancel=cancel)
        busy_seeds = [
            warm.busy_period if warm is not None and warm.bounded
            else None
            for _, _, warm in batch]
        busy, busy_ok = solver.busy_periods(busy_seeds)
        instance_counts = solver.own_instances(busy)
        item_kernel: list[int] = []
        item_instance: list[float] = []
        item_seeds: list[float | None] = []
        counts: list[int] = []
        busy_ok_list = busy_ok.tolist()
        for index, (message, kernel, warm) in enumerate(batch):
            if not busy_ok_list[index]:
                counts.append(0)
                continue
            instances = int(instance_counts[index])
            counts.append(instances)
            delay_seeds: Sequence[float] = ()
            if warm is not None and warm.bounded:
                delay_seeds = warm.queuing_delays
            for q in range(instances):
                item_kernel.append(index)
                item_instance.append(float(q))
                item_seeds.append(
                    delay_seeds[q] if q < len(delay_seeds) else None)
        delays_w, delays_ok = solver.queuing_delays(
            item_kernel, item_instance, item_seeds)
        self.profile_iterations += solver.iterations
        busy_list = busy.tolist()
        w_list = delays_w.tolist()
        ok_list = delays_ok.tolist()
        results: dict[str, MessageResponseTime] = {}
        position = 0
        for index, (message, kernel, warm) in enumerate(batch):
            own_c = kernel.own_c
            own_model = self._models[message.name]
            jitter = own_model.jitter
            blocking = kernel.blocking
            if not busy_ok_list[index]:
                results[message.name] = MessageResponseTime(
                    name=message.name, can_id=message.can_id,
                    transmission_time=own_c, blocking=blocking,
                    jitter=jitter, worst_case=math.inf,
                    best_case=kernel.best_c,
                    busy_period=busy_list[index],
                    instances_analyzed=0, bounded=False)
                continue
            instances = counts[index]
            worst = 0.0
            bounded = True
            delays: list[float] = []
            for q in range(instances):
                if not ok_list[position + q]:
                    bounded = False
                    worst = math.inf
                    break
                w = w_list[position + q]
                delays.append(w)
                # The (q+1)-th instance arrives no earlier than
                # delta_minus(q+1) after the critical-instant arrival,
                # which itself was delayed by the full jitter.
                arrival_offset = own_model.delta_minus(q + 1)
                response = jitter + w + own_c - arrival_offset
                worst = max(worst, response)
            position += instances
            results[message.name] = MessageResponseTime(
                name=message.name,
                can_id=message.can_id,
                transmission_time=own_c,
                blocking=blocking,
                jitter=jitter,
                worst_case=worst,
                best_case=kernel.best_c,
                busy_period=busy_list[index],
                instances_analyzed=instances,
                bounded=bounded,
                queuing_delays=tuple(delays),
            )
        return results

    def analyze_all(
        self,
        warm_start: Mapping[str, MessageResponseTime] | None = None,
        cancel: CancelToken | None = None,
    ) -> dict[str, MessageResponseTime]:
        """Response times of every message in the K-Matrix, keyed by name.

        ``warm_start`` maps message names to previous results used as
        fixed-point seeds (missing names are analysed cold); the seeds must
        satisfy the lower-bound contract described in the module docstring.
        The whole bus is solved in one batch (:meth:`response_times_batch`).
        """
        if warm_start is None:
            return self.response_times_batch(
                [(m, None) for m in self.kmatrix], cancel=cancel)
        return self.response_times_batch(
            [(m, warm_start.get(m.name)) for m in self.kmatrix],
            cancel=cancel)

    def utilization(self) -> float:
        """Worst-case bus utilization implied by the analysed message set."""
        return sum(
            self._transmission_times[m.name] / m.period for m in self.kmatrix)


def worst_case_response_time(
    message: CanMessage,
    kmatrix: KMatrix,
    bus: CanBus,
    error_model: ErrorModel | None = None,
    assumed_jitter_fraction: float = 0.0,
    controllers: Mapping[str, ControllerModel] | None = None,
) -> MessageResponseTime:
    """Convenience wrapper analysing a single message.

    Builds a :class:`CanBusAnalysis` for the full K-Matrix (interference
    needs all higher-priority messages) and returns the result for
    ``message`` only.
    """
    analysis = CanBusAnalysis(
        kmatrix=kmatrix, bus=bus, error_model=error_model,
        assumed_jitter_fraction=assumed_jitter_fraction,
        controllers=controllers)
    return analysis.response_time(message)
